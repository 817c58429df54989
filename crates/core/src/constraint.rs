//! The communication constraint graph (paper Def. 2.1).
//!
//! Vertices are module ports with positions; directed arcs are
//! point-to-point unidirectional channels annotated with the two *arc
//! properties*: the distance `d(a)` (derived from the port positions
//! under the chosen norm, so it is consistent by construction) and the
//! required bandwidth `b(a)`.

use crate::error::BuildError;
use crate::units::Bandwidth;
use ccs_geom::{Norm, Point2};
use std::fmt;

/// Identifier of a port (constraint-graph vertex).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub u32);

/// Identifier of a constraint arc (channel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArcId(pub u32);

impl PortId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ArcId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for ArcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0 + 1) // paper numbers arcs from a1
    }
}

/// A module port: a named position in the plane.
#[derive(Debug, Clone, PartialEq)]
pub struct Port {
    /// Human-readable name (module/port label).
    pub name: String,
    /// Position `p(v)` in application units.
    pub position: Point2,
}

/// A constraint arc: a channel with its two arc properties (plus the
/// optional hop bound of the latency extension).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Channel {
    /// Source port `u`.
    pub src: PortId,
    /// Destination port `v`.
    pub dst: PortId,
    /// Required bandwidth `b(a)`.
    pub bandwidth: Bandwidth,
    /// Distance `d(a) = ‖p(u) − p(v)‖`, fixed at build time.
    pub distance: f64,
    /// Optional bound on link hops end-to-end (an extension in the
    /// latency-insensitive direction of the paper's conclusion): the
    /// implementation may traverse at most this many link instances in
    /// series. `None` = unconstrained (the paper's model).
    pub max_hops: Option<u32>,
}

/// An immutable, validated communication constraint graph.
///
/// Build one with [`ConstraintGraph::builder`]; the builder enforces the
/// invariants the synthesis algorithm relies on (finite positions, no
/// self-loops, strictly positive distances and bandwidths).
///
/// # Examples
///
/// ```
/// use ccs_core::constraint::ConstraintGraph;
/// use ccs_core::units::Bandwidth;
/// use ccs_geom::{Norm, Point2};
///
/// let mut b = ConstraintGraph::builder(Norm::Manhattan);
/// let cpu = b.add_port("cpu", Point2::new(0.0, 0.0));
/// let mem = b.add_port("mem", Point2::new(3.0, 4.0));
/// let arc = b.add_channel(cpu, mem, Bandwidth::from_gbps(3.2))?;
/// let g = b.build()?;
/// assert_eq!(g.arc(arc).distance, 7.0); // Manhattan
/// # Ok::<(), ccs_core::error::BuildError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ConstraintGraph {
    norm: Norm,
    ports: Vec<Port>,
    arcs: Vec<Channel>,
}

impl ConstraintGraph {
    /// Starts building a constraint graph measured under `norm`.
    pub fn builder(norm: Norm) -> ConstraintGraphBuilder {
        ConstraintGraphBuilder {
            norm,
            ports: Vec::new(),
            arcs: Vec::new(),
        }
    }

    /// The norm distances are measured under.
    pub fn norm(&self) -> Norm {
        self.norm
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// Number of arcs (`|A|`).
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// The port record for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a port of this graph.
    pub fn port(&self, id: PortId) -> &Port {
        &self.ports[id.index()]
    }

    /// The channel record for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an arc of this graph.
    pub fn arc(&self, id: ArcId) -> &Channel {
        &self.arcs[id.index()]
    }

    /// Position of a port, `p(v)`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a port of this graph.
    pub fn position(&self, id: PortId) -> Point2 {
        self.ports[id.index()].position
    }

    /// Source and destination positions of an arc.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an arc of this graph.
    pub fn arc_endpoints(&self, id: ArcId) -> (Point2, Point2) {
        let a = self.arc(id);
        (self.position(a.src), self.position(a.dst))
    }

    /// Iterates over `(id, port)` pairs.
    pub fn ports(&self) -> impl Iterator<Item = (PortId, &Port)> + '_ {
        self.ports
            .iter()
            .enumerate()
            .map(|(i, p)| (PortId(i as u32), p))
    }

    /// Iterates over `(id, channel)` pairs.
    pub fn arcs(&self) -> impl Iterator<Item = (ArcId, &Channel)> + '_ {
        self.arcs
            .iter()
            .enumerate()
            .map(|(i, a)| (ArcId(i as u32), a))
    }

    /// Iterates over all arc ids.
    pub fn arc_ids(&self) -> impl Iterator<Item = ArcId> + '_ {
        (0..self.arcs.len() as u32).map(ArcId)
    }

    /// Total bandwidth demand over all channels.
    pub fn total_demand(&self) -> Bandwidth {
        self.arcs.iter().map(|a| a.bandwidth).sum()
    }

    /// Sum of all arc distances (the lower bound on total wirelength of
    /// any point-to-point implementation).
    pub fn total_distance(&self) -> f64 {
        self.arcs.iter().map(|a| a.distance).sum()
    }
}

/// Incremental builder for [`ConstraintGraph`].
#[derive(Debug, Clone)]
pub struct ConstraintGraphBuilder {
    norm: Norm,
    ports: Vec<Port>,
    arcs: Vec<Channel>,
}

impl ConstraintGraphBuilder {
    /// Adds a port and returns its id. Positions are validated at
    /// [`build`](Self::build).
    pub fn add_port(&mut self, name: impl Into<String>, position: Point2) -> PortId {
        let id = PortId(self.ports.len() as u32);
        self.ports.push(Port {
            name: name.into(),
            position,
        });
        id
    }

    /// Adds a unidirectional channel from `src` to `dst` requiring
    /// `bandwidth`; the distance is computed from the port positions.
    ///
    /// # Errors
    ///
    /// * [`BuildError::UnknownPort`] — an endpoint was never added;
    /// * [`BuildError::SelfLoop`] — `src == dst`;
    /// * [`BuildError::ZeroDistance`] — the endpoints share a position
    ///   (Assumption 2.1 requires positive implementation costs);
    /// * [`BuildError::NonFiniteDistance`] — the endpoints are so far
    ///   apart that the distance overflows;
    /// * [`BuildError::ZeroBandwidth`] — `bandwidth` is zero.
    pub fn add_channel(
        &mut self,
        src: PortId,
        dst: PortId,
        bandwidth: Bandwidth,
    ) -> Result<ArcId, BuildError> {
        self.add_channel_limited(src, dst, bandwidth, None)
    }

    /// Like [`add_channel`](Self::add_channel) with an optional bound on
    /// the number of link hops the implementation may use in series
    /// (latency extension; `Some(1)` forces a direct single-link
    /// implementation).
    ///
    /// # Errors
    ///
    /// As [`add_channel`](Self::add_channel), plus
    /// [`BuildError::ZeroBandwidth`]-style rejection of a zero hop bound
    /// via [`BuildError::ZeroHopBound`].
    pub fn add_channel_limited(
        &mut self,
        src: PortId,
        dst: PortId,
        bandwidth: Bandwidth,
        max_hops: Option<u32>,
    ) -> Result<ArcId, BuildError> {
        if src.index() >= self.ports.len() {
            return Err(BuildError::UnknownPort(src));
        }
        if dst.index() >= self.ports.len() {
            return Err(BuildError::UnknownPort(dst));
        }
        if src == dst {
            return Err(BuildError::SelfLoop(src));
        }
        if bandwidth.is_zero() {
            return Err(BuildError::ZeroBandwidth);
        }
        if max_hops == Some(0) {
            return Err(BuildError::ZeroHopBound);
        }
        let (from, to) = (
            self.ports[src.index()].position,
            self.ports[dst.index()].position,
        );
        let distance = self.norm.distance(from, to);
        if distance <= 0.0 {
            return Err(BuildError::ZeroDistance(src, dst));
        }
        // A non-finite position is `build`'s error to report; finite
        // positions can still be far enough apart to overflow the norm.
        if from.is_finite() && to.is_finite() && !distance.is_finite() {
            return Err(BuildError::NonFiniteDistance(src, dst));
        }
        let id = ArcId(self.arcs.len() as u32);
        self.arcs.push(Channel {
            src,
            dst,
            bandwidth,
            distance,
            max_hops,
        });
        Ok(id)
    }

    /// Finalizes the graph.
    ///
    /// # Errors
    ///
    /// [`BuildError::NonFinitePosition`] if any port position is NaN or
    /// infinite.
    pub fn build(self) -> Result<ConstraintGraph, BuildError> {
        for (i, p) in self.ports.iter().enumerate() {
            if !p.position.is_finite() {
                return Err(BuildError::NonFinitePosition(PortId(i as u32)));
            }
        }
        Ok(ConstraintGraph {
            norm: self.norm,
            ports: self.ports,
            arcs: self.arcs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbps(x: f64) -> Bandwidth {
        Bandwidth::from_mbps(x)
    }

    #[test]
    fn build_simple_graph() {
        let mut b = ConstraintGraph::builder(Norm::Euclidean);
        let p0 = b.add_port("A", Point2::new(0.0, 0.0));
        let p1 = b.add_port("B", Point2::new(3.0, 4.0));
        let a = b.add_channel(p0, p1, mbps(10.0)).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.port_count(), 2);
        assert_eq!(g.arc_count(), 1);
        assert_eq!(g.arc(a).distance, 5.0);
        assert_eq!(g.arc(a).bandwidth, mbps(10.0));
        assert_eq!(g.port(p0).name, "A");
        assert_eq!(g.norm(), Norm::Euclidean);
    }

    #[test]
    fn distance_follows_norm() {
        let mut b = ConstraintGraph::builder(Norm::Manhattan);
        let p0 = b.add_port("A", Point2::new(0.0, 0.0));
        let p1 = b.add_port("B", Point2::new(3.0, 4.0));
        let a = b.add_channel(p0, p1, mbps(1.0)).unwrap();
        assert_eq!(b.build().unwrap().arc(a).distance, 7.0);
    }

    #[test]
    fn bidirectional_needs_two_arcs() {
        let mut b = ConstraintGraph::builder(Norm::Euclidean);
        let p0 = b.add_port("D", Point2::new(0.0, 0.0));
        let p1 = b.add_port("E", Point2::new(3.6, 0.0));
        let a = b.add_channel(p0, p1, mbps(10.0)).unwrap();
        let a_rev = b.add_channel(p1, p0, mbps(10.0)).unwrap();
        let g = b.build().unwrap();
        assert_ne!(a, a_rev);
        assert_eq!(g.arc(a).src, g.arc(a_rev).dst);
    }

    #[test]
    fn rejects_unknown_port() {
        let mut b = ConstraintGraph::builder(Norm::Euclidean);
        let p0 = b.add_port("A", Point2::ORIGIN);
        let err = b.add_channel(p0, PortId(9), mbps(1.0)).unwrap_err();
        assert_eq!(err, BuildError::UnknownPort(PortId(9)));
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = ConstraintGraph::builder(Norm::Euclidean);
        let p0 = b.add_port("A", Point2::ORIGIN);
        assert_eq!(
            b.add_channel(p0, p0, mbps(1.0)),
            Err(BuildError::SelfLoop(p0))
        );
    }

    #[test]
    fn rejects_coincident_ports() {
        let mut b = ConstraintGraph::builder(Norm::Euclidean);
        let p0 = b.add_port("A", Point2::new(1.0, 1.0));
        let p1 = b.add_port("B", Point2::new(1.0, 1.0));
        assert_eq!(
            b.add_channel(p0, p1, mbps(1.0)),
            Err(BuildError::ZeroDistance(p0, p1))
        );
    }

    #[test]
    fn rejects_zero_bandwidth() {
        let mut b = ConstraintGraph::builder(Norm::Euclidean);
        let p0 = b.add_port("A", Point2::ORIGIN);
        let p1 = b.add_port("B", Point2::new(1.0, 0.0));
        assert_eq!(
            b.add_channel(p0, p1, Bandwidth::ZERO),
            Err(BuildError::ZeroBandwidth)
        );
    }

    #[test]
    fn rejects_overflowing_distance() {
        let mut b = ConstraintGraph::builder(Norm::Euclidean);
        let p0 = b.add_port("A", Point2::ORIGIN);
        let p1 = b.add_port("B", Point2::new(1e300, 1e300));
        assert_eq!(
            b.add_channel(p0, p1, mbps(1.0)),
            Err(BuildError::NonFiniteDistance(p0, p1))
        );
    }

    #[test]
    fn rejects_non_finite_position_at_build() {
        let mut b = ConstraintGraph::builder(Norm::Euclidean);
        let p = b.add_port("A", Point2::new(f64::NAN, 0.0));
        assert_eq!(b.build().unwrap_err(), BuildError::NonFinitePosition(p));
    }

    #[test]
    fn aggregates() {
        let mut b = ConstraintGraph::builder(Norm::Euclidean);
        let p0 = b.add_port("A", Point2::new(0.0, 0.0));
        let p1 = b.add_port("B", Point2::new(10.0, 0.0));
        let p2 = b.add_port("C", Point2::new(0.0, 5.0));
        b.add_channel(p0, p1, mbps(10.0)).unwrap();
        b.add_channel(p0, p2, mbps(20.0)).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.total_demand(), mbps(30.0));
        assert_eq!(g.total_distance(), 15.0);
        assert_eq!(g.arc_ids().count(), 2);
        assert_eq!(g.ports().count(), 3);
    }

    #[test]
    fn display_ids_match_paper_numbering() {
        assert_eq!(ArcId(0).to_string(), "a1");
        assert_eq!(PortId(2).to_string(), "p2");
    }
}
