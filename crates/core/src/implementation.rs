//! The implementation graph (paper Def. 2.4/2.5).
//!
//! Vertices are either **computational** (the images `χ(v)` of the
//! constraint-graph ports, at the same positions) or **communication**
//! (instances of library nodes: repeaters, muxes, demuxes). Every edge
//! maps to a library link instance — except zero-length *attachment*
//! edges, which connect a port to a node standing at the very same
//! position (the paper glosses over this detail; attachments carry no
//! length, no cost and unlimited bandwidth, so Def. 2.5's cost is
//! unchanged).
//!
//! The graph also records, per constraint arc, the nominal vertex route
//! implementing it, so the independent [`crate::check`] verifier can
//! re-validate everything without trusting the synthesizer.

use crate::constraint::{ArcId, ConstraintGraph, PortId};
use crate::library::{Library, LinkId, NodeKind};
use crate::placement::{Candidate, Endpoint};
use crate::units::Bandwidth;
use ccs_geom::{Norm, Point2};
use ccs_graph::{Digraph, EdgeId, NodeId};
use std::collections::HashMap;

/// A vertex of the implementation graph.
#[derive(Debug, Clone, PartialEq)]
pub enum ImplVertex {
    /// The image `χ(v)` of a constraint-graph port.
    Computational {
        /// The originating port.
        port: PortId,
        /// The port's name, copied for display.
        name: String,
        /// Position (identical to the port's).
        position: Point2,
    },
    /// An instance of a communication node from the library.
    Communication {
        /// Which library node kind this instantiates.
        kind: NodeKind,
        /// Placed position.
        position: Point2,
    },
}

impl ImplVertex {
    /// The vertex position.
    pub fn position(&self) -> Point2 {
        match self {
            ImplVertex::Computational { position, .. }
            | ImplVertex::Communication { position, .. } => *position,
        }
    }

    /// `true` for computational vertices.
    pub fn is_computational(&self) -> bool {
        matches!(self, ImplVertex::Computational { .. })
    }
}

/// What an implementation edge physically is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeKind {
    /// An instance of a library link.
    Link(LinkId),
    /// A zero-length connection between a port and a co-located node.
    Attachment,
}

/// An edge of the implementation graph.
#[derive(Debug, Clone, PartialEq)]
pub struct ImplEdge {
    /// Physical kind.
    pub kind: EdgeKind,
    /// Geometric length (0 for attachments).
    pub length: f64,
    /// Bandwidth one instance sustains (`∞` for attachments).
    pub capacity: Bandwidth,
    /// Cost of this instance (0 for attachments).
    pub cost: f64,
    /// Segment (lane-group) id: parallel lanes of one duplicated stretch
    /// share it.
    pub lane_group: u32,
    /// Parallel lanes in this edge's group.
    pub lanes: u32,
    /// Constraint arcs (by index) routed over this group.
    pub arcs: Vec<usize>,
}

/// A built communication architecture.
#[derive(Debug, Clone)]
pub struct ImplementationGraph {
    graph: Digraph<ImplVertex, ImplEdge>,
    port_vertex: Vec<NodeId>,
    routes: Vec<Vec<NodeId>>,
    norm: Norm,
    node_cost_total: f64,
    next_group: u32,
}

impl ImplementationGraph {
    /// Assembles the implementation graph realizing `selected` candidates
    /// for `graph` with `library`.
    ///
    /// # Panics
    ///
    /// Panics if a candidate references an arc index outside the graph —
    /// candidates must come from the same synthesis run.
    pub fn build(
        graph: &ConstraintGraph,
        library: &Library,
        selected: &[Candidate],
    ) -> ImplementationGraph {
        let mut b = Builder {
            graph: Digraph::new(),
            port_vertex: Vec::new(),
            routes: vec![Vec::new(); graph.arc_count()],
            node_cost_total: 0.0,
            next_group: 0,
            library,
            source: graph,
        };
        for (pid, port) in graph.ports() {
            let v = b.graph.add_node(ImplVertex::Computational {
                port: pid,
                name: port.name.clone(),
                position: port.position,
            });
            b.port_vertex.push(v);
        }
        for cand in selected {
            b.add_candidate(cand);
        }
        ImplementationGraph {
            graph: b.graph,
            port_vertex: b.port_vertex,
            routes: b.routes,
            norm: graph.norm(),
            node_cost_total: b.node_cost_total,
            next_group: b.next_group,
        }
    }

    /// The underlying digraph.
    pub fn graph(&self) -> &Digraph<ImplVertex, ImplEdge> {
        &self.graph
    }

    /// The norm lengths are measured under.
    pub fn norm(&self) -> Norm {
        self.norm
    }

    /// The implementation vertex `χ(p)` of a port.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a port of the source graph.
    pub fn port_vertex(&self, p: PortId) -> NodeId {
        self.port_vertex[p.index()]
    }

    /// The nominal vertex route implementing a constraint arc (empty when
    /// the arc was not implemented — the verifier reports that).
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn route(&self, a: ArcId) -> &[NodeId] {
        &self.routes[a.index()]
    }

    /// Replaces the nominal vertex route of arc `a` — for what-if
    /// analysis and fault-injection tests that need routes the
    /// synthesizer would not produce (re-entrant, severed, or empty
    /// routes). The verifier and the simulator treat the override like
    /// any other route and report its defects honestly.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn set_route(&mut self, a: ArcId, route: Vec<NodeId>) {
        self.routes[a.index()] = route;
    }

    /// Total architecture cost: link instances plus communication nodes
    /// (Def. 2.5; computational vertices are free).
    pub fn total_cost(&self) -> f64 {
        self.link_cost() + self.node_cost_total
    }

    /// Cost of all link instances.
    pub fn link_cost(&self) -> f64 {
        self.graph.edges().map(|(_, e)| e.data.cost).sum()
    }

    /// Cost of all communication nodes.
    pub fn node_cost(&self) -> f64 {
        self.node_cost_total
    }

    /// Number of link instances (attachments excluded).
    pub fn link_count(&self) -> usize {
        self.graph
            .edges()
            .filter(|(_, e)| matches!(e.data.kind, EdgeKind::Link(_)))
            .count()
    }

    /// Number of communication vertices of `kind`.
    pub fn count_nodes(&self, kind: NodeKind) -> usize {
        self.graph
            .nodes()
            .filter(|(_, v)| matches!(v, ImplVertex::Communication { kind: k, .. } if *k == kind))
            .count()
    }

    /// Number of repeater instances — the headline figure of the paper's
    /// on-chip example.
    pub fn repeater_count(&self) -> usize {
        self.count_nodes(NodeKind::Repeater)
    }

    /// Number of lane groups (costed segments).
    pub fn group_count(&self) -> u32 {
        self.next_group
    }

    /// Edges belonging to lane group `g`.
    pub fn group_edges(
        &self,
        g: u32,
    ) -> impl Iterator<Item = (EdgeId, &ccs_graph::Edge<ImplEdge>)> + '_ {
        self.graph.edges().filter(move |(_, e)| {
            e.data.lane_group == g && matches!(e.data.kind, EdgeKind::Link(_))
        })
    }

    /// Graphviz DOT rendering for inspection.
    pub fn to_dot(&self, name: &str) -> String {
        ccs_graph::dot::to_dot(
            &self.graph,
            name,
            |v| match v {
                ImplVertex::Computational { name, .. } => name.clone(),
                ImplVertex::Communication { kind, position } => {
                    format!("{kind}@{position}")
                }
            },
            |e| match e.kind {
                EdgeKind::Link(l) => format!("{l} len={:.2}", e.length),
                EdgeKind::Attachment => "~".to_string(),
            },
        )
    }
}

struct Builder<'a> {
    graph: Digraph<ImplVertex, ImplEdge>,
    port_vertex: Vec<NodeId>,
    routes: Vec<Vec<NodeId>>,
    node_cost_total: f64,
    next_group: u32,
    library: &'a Library,
    source: &'a ConstraintGraph,
}

impl Builder<'_> {
    fn add_comm(&mut self, kind: NodeKind, position: Point2) -> NodeId {
        self.node_cost_total += self.library.node_cost(kind).unwrap_or(0.0);
        self.graph
            .add_node(ImplVertex::Communication { kind, position })
    }

    fn attachment(&mut self, from: NodeId, to: NodeId) {
        self.graph.add_edge(
            from,
            to,
            ImplEdge {
                kind: EdgeKind::Attachment,
                length: 0.0,
                capacity: Bandwidth::from_mbps(f64::MAX / 1e6),
                cost: 0.0,
                lane_group: u32::MAX,
                lanes: 1,
                arcs: Vec::new(),
            },
        );
    }

    /// Expands one costed segment into vertices and edges; returns the
    /// lane-0 vertex path from `from_v` to `to_v` inclusive.
    fn expand_segment(
        &mut self,
        seg: &crate::placement::SegmentPlan,
        from_v: NodeId,
        to_v: NodeId,
    ) -> Vec<NodeId> {
        let link = self.library.link(seg.plan.link);
        let hops = seg.plan.hops.max(1);
        let lanes = seg.plan.lanes.max(1);
        let group = self.next_group;
        self.next_group += 1;
        let hop_len = seg.length / hops as f64;
        let hop_cost = link.cost_of_span(hop_len);

        // Duplication inserts a demux/mux pair at the stretch endpoints.
        let (entry, exit) = if lanes > 1 {
            let demux = self.add_comm(NodeKind::Demux, seg.from_pos);
            let mux = self.add_comm(NodeKind::Mux, seg.to_pos);
            self.attachment(from_v, demux);
            self.attachment(mux, to_v);
            (demux, mux)
        } else {
            (from_v, to_v)
        };

        let mut lane0: Vec<NodeId> = Vec::new();
        for lane in 0..lanes {
            let mut prev = entry;
            let mut chain = vec![entry];
            for h in 1..=hops {
                let next = if h == hops {
                    exit
                } else {
                    // Repeaters sit along the norm's natural wiring path
                    // (the rectilinear L under Manhattan), so positions
                    // subdivide the segment length exactly.
                    let pos =
                        self.source
                            .norm()
                            .along(seg.from_pos, seg.to_pos, h as f64 / hops as f64);
                    self.add_comm(NodeKind::Repeater, pos)
                };
                self.graph.add_edge(
                    prev,
                    next,
                    ImplEdge {
                        kind: EdgeKind::Link(seg.plan.link),
                        length: hop_len,
                        capacity: link.bandwidth,
                        cost: hop_cost,
                        lane_group: group,
                        lanes,
                        arcs: seg.arcs.clone(),
                    },
                );
                chain.push(next);
                prev = next;
            }
            if lane == 0 {
                lane0 = chain;
            }
        }
        if lanes > 1 {
            let mut full = vec![from_v];
            full.extend(lane0);
            full.push(to_v);
            full
        } else {
            lane0
        }
    }

    fn add_candidate(&mut self, cand: &Candidate) {
        match cand.kind {
            crate::placement::CandidateKind::PointToPoint => {
                let seg = &cand.segments[0];
                let (from_v, to_v) = self.segment_port_vertices(seg);
                let path = self.expand_segment(seg, from_v, to_v);
                self.routes[cand.arcs[0]] = path;
            }
            crate::placement::CandidateKind::Merging { .. } => {
                let hub_a = cand.hub_a.expect("merging has hub A");
                let hub_b = cand.hub_b.expect("merging has hub B");
                // Hub hardware: the general dumbbell uses a mux/demux
                // pair; a star merging may use one switch doing both jobs.
                let (mux_v, demux_v) = match cand.hub_hardware {
                    crate::placement::HubHardware::MuxDemux => (
                        self.add_comm(NodeKind::Mux, hub_a),
                        self.add_comm(NodeKind::Demux, hub_b),
                    ),
                    crate::placement::HubHardware::SingleSwitch => {
                        let sw = self.add_comm(NodeKind::Switch, hub_a);
                        (sw, sw)
                    }
                };
                // Hub costs were already accumulated by add_comm, matching
                // cand.node_cost by construction.

                // Expand each priced segment once.
                let mut src_path: HashMap<usize, Vec<NodeId>> = HashMap::new();
                let mut dst_path: HashMap<usize, Vec<NodeId>> = HashMap::new();
                let mut trunk_path: Option<Vec<NodeId>> = None;
                for seg in cand.segments.iter() {
                    match (seg.from, seg.to) {
                        (Endpoint::Port(p), Endpoint::HubA) => {
                            let from_v = self.port_vertex[p.index()];
                            let path = self.expand_segment(seg, from_v, mux_v);
                            src_path.insert(seg.arcs[0], path);
                        }
                        (Endpoint::HubA, Endpoint::HubB) => {
                            let path = self.expand_segment(seg, mux_v, demux_v);
                            trunk_path = Some(path);
                        }
                        (Endpoint::HubB, Endpoint::Port(p)) => {
                            let to_v = self.port_vertex[p.index()];
                            let path = self.expand_segment(seg, demux_v, to_v);
                            dst_path.insert(seg.arcs[0], path);
                        }
                        other => unreachable!("malformed merge segment {other:?}"),
                    }
                }

                // Zero-length stretches became attachments; a single
                // switch is both hubs at once and needs no connector.
                let trunk = trunk_path.unwrap_or_else(|| {
                    if mux_v == demux_v {
                        vec![mux_v]
                    } else {
                        self.attachment(mux_v, demux_v);
                        vec![mux_v, demux_v]
                    }
                });

                for &arc_idx in &cand.arcs {
                    let arc = self.source.arc(ArcId(arc_idx as u32));
                    let src_v = self.port_vertex[arc.src.index()];
                    let dst_v = self.port_vertex[arc.dst.index()];
                    let head = src_path.get(&arc_idx).cloned().unwrap_or_else(|| {
                        self.attachment(src_v, mux_v);
                        vec![src_v, mux_v]
                    });
                    let tail = dst_path.get(&arc_idx).cloned().unwrap_or_else(|| {
                        self.attachment(demux_v, dst_v);
                        vec![demux_v, dst_v]
                    });
                    let mut route = head;
                    route.extend_from_slice(&trunk[1..]);
                    route.extend_from_slice(&tail[1..]);
                    self.routes[arc_idx] = route;
                }
            }
        }
    }

    fn segment_port_vertices(&self, seg: &crate::placement::SegmentPlan) -> (NodeId, NodeId) {
        let from = match seg.from {
            Endpoint::Port(p) => self.port_vertex[p.index()],
            _ => panic!("point-to-point segment must start at a port"),
        };
        let to = match seg.to {
            Endpoint::Port(p) => self.port_vertex[p.index()],
            _ => panic!("point-to-point segment must end at a port"),
        };
        (from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::ConstraintGraph;
    use crate::library::{soc_paper_library, wan_paper_library, Library, Link};
    use crate::placement::{merge_candidate, point_to_point_candidate};
    use ccs_geom::Norm;

    fn mbps(x: f64) -> Bandwidth {
        Bandwidth::from_mbps(x)
    }

    fn two_arc_graph() -> ConstraintGraph {
        let mut b = ConstraintGraph::builder(Norm::Euclidean);
        let s0 = b.add_port("A", Point2::new(0.0, 0.0));
        let s1 = b.add_port("B", Point2::new(5.0, 0.0));
        let d = b.add_port("D", Point2::new(64.8, 76.4));
        b.add_channel(s0, d, mbps(10.0)).unwrap();
        b.add_channel(s1, d, mbps(10.0)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn p2p_build_single_edge() {
        let g = two_arc_graph();
        let lib = wan_paper_library();
        let cands = vec![
            point_to_point_candidate(&g, &lib, 0).unwrap(),
            point_to_point_candidate(&g, &lib, 1).unwrap(),
        ];
        let total: f64 = cands.iter().map(|c| c.cost).sum();
        let imp = ImplementationGraph::build(&g, &lib, &cands);
        assert_eq!(imp.link_count(), 2);
        assert_eq!(imp.repeater_count(), 0);
        assert!((imp.total_cost() - total).abs() < 1e-9);
        // Routes are direct port-to-port.
        assert_eq!(imp.route(ArcId(0)).len(), 2);
        assert_eq!(imp.route(ArcId(0))[0], imp.port_vertex(PortId(0)));
        assert_eq!(imp.route(ArcId(0))[1], imp.port_vertex(PortId(2)));
    }

    #[test]
    fn merge_build_has_hubs_and_trunk() {
        let g = two_arc_graph();
        let lib = wan_paper_library();
        let cand = merge_candidate(&g, &lib, &[0, 1]).unwrap().unwrap();
        let cost = cand.cost;
        let imp = ImplementationGraph::build(&g, &lib, std::slice::from_ref(&cand));
        assert_eq!(imp.count_nodes(NodeKind::Mux), 1);
        assert_eq!(imp.count_nodes(NodeKind::Demux), 1);
        assert!((imp.total_cost() - cost).abs() < 1e-6);
        // Both routes start at their source port, end at the destination.
        for (i, arc) in [(0usize, ArcId(0)), (1, ArcId(1))] {
            let r = imp.route(arc);
            assert_eq!(r[0], imp.port_vertex(g.arc(arc).src), "arc {i}");
            assert_eq!(*r.last().unwrap(), imp.port_vertex(g.arc(arc).dst));
            // Interior vertices are communication nodes.
            for &v in &r[1..r.len() - 1] {
                assert!(!imp.graph().node(v).is_computational());
            }
        }
    }

    #[test]
    fn segmentation_inserts_repeaters_at_interpolated_positions() {
        let mut b = ConstraintGraph::builder(Norm::Manhattan);
        let s = b.add_port("s", Point2::new(0.0, 0.0));
        let t = b.add_port("t", Point2::new(1.2, 0.6));
        b.add_channel(s, t, mbps(100.0)).unwrap();
        let g = b.build().unwrap();
        let lib = soc_paper_library(0.6);
        let cand = point_to_point_candidate(&g, &lib, 0).unwrap();
        let imp = ImplementationGraph::build(&g, &lib, &[cand]);
        // Manhattan distance 1.8 → ⌊1.8/0.6⌋ = 3 repeaters, 4 hops.
        assert_eq!(imp.repeater_count(), 3);
        assert_eq!(imp.link_count(), 4);
        assert!((imp.total_cost() - 3.0).abs() < 1e-9);
        // Each hop's Manhattan length is 1.8 / 4.
        for (_, e) in imp.graph().edges() {
            assert!((e.data.length - 0.45).abs() < 1e-9);
        }
        // Route is the full chain.
        assert_eq!(imp.route(ArcId(0)).len(), 5);
    }

    #[test]
    fn manhattan_repeaters_lie_on_the_rectilinear_path() {
        let mut b = ConstraintGraph::builder(Norm::Manhattan);
        let s = b.add_port("s", Point2::new(0.0, 0.0));
        let t = b.add_port("t", Point2::new(1.2, 1.2));
        b.add_channel(s, t, mbps(100.0)).unwrap();
        let g = b.build().unwrap();
        let lib = soc_paper_library(0.6);
        let cand = point_to_point_candidate(&g, &lib, 0).unwrap();
        let imp = ImplementationGraph::build(&g, &lib, std::slice::from_ref(&cand));
        // Every repeater sits on the L-path: either on the horizontal leg
        // (y = 0) or the vertical leg (x = 1.2) — never on the diagonal.
        for (_, v) in imp.graph().nodes() {
            if let ImplVertex::Communication { position, .. } = v {
                let on_l = position.y.abs() < 1e-9 || (position.x - 1.2).abs() < 1e-9;
                assert!(on_l, "repeater off the rectilinear path: {position}");
            }
        }
        assert!(crate::check::verify(&g, &lib, &imp).is_empty());
    }

    #[test]
    fn duplication_inserts_demux_mux_pair() {
        let lib = Library::builder()
            .link(Link::per_length("thin", mbps(4.0), 1.0))
            .node(NodeKind::Mux, 2.0)
            .node(NodeKind::Demux, 3.0)
            .build()
            .unwrap();
        let mut b = ConstraintGraph::builder(Norm::Euclidean);
        let s = b.add_port("s", Point2::new(0.0, 0.0));
        let t = b.add_port("t", Point2::new(10.0, 0.0));
        b.add_channel(s, t, mbps(10.0)).unwrap();
        let g = b.build().unwrap();
        let cand = point_to_point_candidate(&g, &lib, 0).unwrap();
        assert_eq!(cand.segments[0].plan.lanes, 3);
        let imp = ImplementationGraph::build(&g, &lib, std::slice::from_ref(&cand));
        assert_eq!(imp.count_nodes(NodeKind::Demux), 1);
        assert_eq!(imp.count_nodes(NodeKind::Mux), 1);
        assert_eq!(imp.link_count(), 3);
        assert!((imp.node_cost() - 5.0).abs() < 1e-9);
        assert!((imp.total_cost() - cand.cost).abs() < 1e-9);
        // Lane edges share a group and record 3 lanes.
        let groups: Vec<u32> = imp
            .graph()
            .edges()
            .filter(|(_, e)| matches!(e.data.kind, EdgeKind::Link(_)))
            .map(|(_, e)| e.data.lane_group)
            .collect();
        assert!(groups.iter().all(|&g| g == groups[0]));
        let (_, e) = imp.group_edges(groups[0]).next().unwrap();
        assert_eq!(e.data.lanes, 3);
    }

    #[test]
    fn single_switch_merge_builds_and_routes() {
        let lib = Library::builder()
            .link(Link::per_length("radio", mbps(11.0), 2000.0))
            .node(NodeKind::Repeater, 0.0)
            .node(NodeKind::Switch, 5.0)
            .build()
            .unwrap();
        let g = two_arc_graph();
        let cand = merge_candidate(&g, &lib, &[0, 1]).unwrap().unwrap();
        assert_eq!(
            cand.hub_hardware,
            crate::placement::HubHardware::SingleSwitch
        );
        let cost = cand.cost;
        let imp = ImplementationGraph::build(&g, &lib, std::slice::from_ref(&cand));
        assert_eq!(imp.count_nodes(NodeKind::Switch), 1);
        assert_eq!(imp.count_nodes(NodeKind::Mux), 0);
        assert_eq!(imp.count_nodes(NodeKind::Demux), 0);
        assert!((imp.total_cost() - cost).abs() < 1e-6);
        // Routes pass through the switch and verify cleanly.
        for arc in [ArcId(0), ArcId(1)] {
            let r = imp.route(arc);
            assert_eq!(r[0], imp.port_vertex(g.arc(arc).src));
            assert_eq!(*r.last().unwrap(), imp.port_vertex(g.arc(arc).dst));
        }
        assert!(crate::check::verify(&g, &lib, &imp).is_empty());
    }

    #[test]
    fn dot_export_mentions_ports() {
        let g = two_arc_graph();
        let lib = wan_paper_library();
        let cands = vec![point_to_point_candidate(&g, &lib, 0).unwrap()];
        let imp = ImplementationGraph::build(&g, &lib, &cands);
        let dot = imp.to_dot("wan");
        assert!(dot.contains("digraph wan"));
        assert!(dot.contains("\"A\""));
    }
}
