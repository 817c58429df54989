//! Distance functions (`‖p(u) − p(v)‖` in the paper).
//!
//! Definition 2.1 of the paper deliberately leaves the notion of distance
//! open: a System-on-Chip uses the Manhattan distance between port
//! coordinates, a LAN/WAN uses the Euclidean distance. [`Norm`] captures
//! that choice as a value so a whole synthesis run can be parameterized by
//! it.

use crate::Point2;
use std::fmt;

/// A planar norm selecting how arc lengths are measured.
///
/// # Examples
///
/// ```
/// use ccs_geom::{Norm, Point2};
///
/// let a = Point2::new(0.0, 0.0);
/// let b = Point2::new(3.0, 4.0);
/// assert_eq!(Norm::Euclidean.distance(a, b), 5.0);
/// assert_eq!(Norm::Manhattan.distance(a, b), 7.0);
/// assert_eq!(Norm::Chebyshev.distance(a, b), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Norm {
    /// The L2 norm — straight-line distance (WAN / LAN instances).
    #[default]
    Euclidean,
    /// The L1 norm — rectilinear wiring distance (on-chip instances).
    Manhattan,
    /// The L∞ norm — provided for completeness (e.g. diagonal routing).
    Chebyshev,
}

/// A frame in which a separable norm is a weighted sum of per-coordinate
/// `|Δ|`: points map in by the first function and back by the second,
/// and weights scale by the factor.
pub(crate) type SeparableFrame = (fn(Point2) -> Point2, fn(Point2) -> Point2, f64);

impl Norm {
    /// All supported norms, in declaration order.
    pub const ALL: [Norm; 3] = [Norm::Euclidean, Norm::Manhattan, Norm::Chebyshev];

    /// The separable frame of Manhattan (the identity) and of Chebyshev
    /// — since `‖Δ‖∞ = (|Δu| + |Δv|)/2`, `(u, v) = (x + y, x − y)` with
    /// halved weights; `None` for Euclidean, which does not separate.
    pub(crate) fn separable_frame(self) -> Option<SeparableFrame> {
        match self {
            Norm::Euclidean => None,
            Norm::Manhattan => Some((|p| p, |p| p, 1.0)),
            Norm::Chebyshev => Some((
                |p| Point2::new(p.x + p.y, p.x - p.y),
                |p| Point2::new((p.x + p.y) / 2.0, (p.x - p.y) / 2.0),
                0.5,
            )),
        }
    }

    /// Distance between two points under this norm.
    #[inline]
    pub fn distance(self, a: Point2, b: Point2) -> f64 {
        self.magnitude(b - a)
    }

    /// Length of a displacement vector under this norm.
    #[inline]
    pub fn magnitude(self, v: Point2) -> f64 {
        match self {
            Norm::Euclidean => v.len(),
            Norm::Manhattan => v.x.abs() + v.y.abs(),
            Norm::Chebyshev => v.x.abs().max(v.y.abs()),
        }
    }

    /// Total length of a polyline visiting `points` in order.
    ///
    /// Returns `0.0` for fewer than two points.
    ///
    /// ```
    /// use ccs_geom::{Norm, Point2};
    /// let path = [
    ///     Point2::new(0.0, 0.0),
    ///     Point2::new(1.0, 0.0),
    ///     Point2::new(1.0, 2.0),
    /// ];
    /// assert_eq!(Norm::Euclidean.path_length(&path), 3.0);
    /// ```
    pub fn path_length(self, points: &[Point2]) -> f64 {
        points.windows(2).map(|w| self.distance(w[0], w[1])).sum()
    }

    /// The point a fraction `t ∈ [0, 1]` of the way from `from` to `to`
    /// along this norm's natural wiring path.
    ///
    /// Under the Euclidean (and Chebyshev) norms that is the straight
    /// segment; under Manhattan it is the rectilinear L-path (horizontal
    /// leg first, then vertical), so interpolated waypoints — repeater
    /// sites, for instance — land where a real wire would run. In every
    /// case consecutive waypoints' distances sum exactly to
    /// `distance(from, to)`.
    ///
    /// ```
    /// use ccs_geom::{Norm, Point2};
    /// let a = Point2::new(0.0, 0.0);
    /// let b = Point2::new(2.0, 2.0);
    /// // Halfway along the 4-unit L-path: the corner of the L.
    /// assert_eq!(Norm::Manhattan.along(a, b, 0.5), Point2::new(2.0, 0.0));
    /// assert_eq!(Norm::Euclidean.along(a, b, 0.5), Point2::new(1.0, 1.0));
    /// ```
    pub fn along(self, from: Point2, to: Point2, t: f64) -> Point2 {
        match self {
            Norm::Euclidean | Norm::Chebyshev => from.lerp(to, t),
            Norm::Manhattan => {
                let dx = (to.x - from.x).abs();
                let total = dx + (to.y - from.y).abs();
                if total <= 0.0 {
                    return from;
                }
                let walked = t.clamp(0.0, 1.0) * total;
                if walked <= dx {
                    // Still on the horizontal leg.
                    Point2::new(from.x + (to.x - from.x).signum() * walked, from.y)
                } else {
                    Point2::new(to.x, from.y + (to.y - from.y).signum() * (walked - dx))
                }
            }
        }
    }
}

impl fmt::Display for Norm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Norm::Euclidean => "euclidean",
            Norm::Manhattan => "manhattan",
            Norm::Chebyshev => "chebyshev",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_distances() {
        let a = Point2::new(1.0, 1.0);
        let b = Point2::new(4.0, 5.0);
        assert_eq!(Norm::Euclidean.distance(a, b), 5.0);
        assert_eq!(Norm::Manhattan.distance(a, b), 7.0);
        assert_eq!(Norm::Chebyshev.distance(a, b), 4.0);
    }

    #[test]
    fn zero_distance_to_self() {
        let p = Point2::new(-3.5, 2.25);
        for n in Norm::ALL {
            assert_eq!(n.distance(p, p), 0.0);
        }
    }

    #[test]
    fn path_length_degenerate() {
        for n in Norm::ALL {
            assert_eq!(n.path_length(&[]), 0.0);
            assert_eq!(n.path_length(&[Point2::new(1.0, 1.0)]), 0.0);
        }
    }

    #[test]
    fn path_length_sums_segments() {
        let pts = [
            Point2::new(0.0, 0.0),
            Point2::new(3.0, 4.0),
            Point2::new(3.0, 0.0),
        ];
        assert_eq!(Norm::Euclidean.path_length(&pts), 9.0);
        assert_eq!(Norm::Manhattan.path_length(&pts), 11.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(Norm::Euclidean.to_string(), "euclidean");
        assert_eq!(Norm::Manhattan.to_string(), "manhattan");
        assert_eq!(Norm::Chebyshev.to_string(), "chebyshev");
    }

    fn pt() -> impl Strategy<Value = Point2> {
        (-1e3..1e3f64, -1e3..1e3f64).prop_map(|(x, y)| Point2::new(x, y))
    }

    proptest! {
        /// Norm axioms: non-negativity, symmetry, triangle inequality, and
        /// the standard L∞ ≤ L2 ≤ L1 ordering.
        #[test]
        fn norm_axioms(a in pt(), b in pt(), c in pt()) {
            for n in Norm::ALL {
                let dab = n.distance(a, b);
                let dba = n.distance(b, a);
                let dac = n.distance(a, c);
                let dcb = n.distance(c, b);
                prop_assert!(dab >= 0.0);
                prop_assert!((dab - dba).abs() < 1e-9);
                prop_assert!(dab <= dac + dcb + 1e-9);
            }
            let l1 = Norm::Manhattan.distance(a, b);
            let l2 = Norm::Euclidean.distance(a, b);
            let linf = Norm::Chebyshev.distance(a, b);
            prop_assert!(linf <= l2 + 1e-9);
            prop_assert!(l2 <= l1 + 1e-9);
        }

        /// Waypoints from `along` subdivide the distance exactly: the
        /// hop lengths of an n-way split sum to the endpoint distance,
        /// and each hop is 1/n of it.
        #[test]
        fn along_subdivides_exactly(a in pt(), b in pt(), n in 2usize..7) {
            for norm in Norm::ALL {
                let d = norm.distance(a, b);
                let points: Vec<Point2> = (0..=n)
                    .map(|i| norm.along(a, b, i as f64 / n as f64))
                    .collect();
                prop_assert!(points[0].approx_eq(a, 1e-9));
                prop_assert!(points[n].approx_eq(b, 1e-9));
                for w in points.windows(2) {
                    let hop = norm.distance(w[0], w[1]);
                    prop_assert!((hop - d / n as f64).abs() < 1e-6,
                        "{norm}: hop {hop} vs {}", d / n as f64);
                }
            }
        }

        /// Distances are translation invariant and scale linearly.
        #[test]
        fn translation_and_scaling(a in pt(), b in pt(), t in pt(), s in 0.0..100.0f64) {
            for n in Norm::ALL {
                let d = n.distance(a, b);
                let dt = n.distance(a + t, b + t);
                prop_assert!((d - dt).abs() < 1e-6);
                let ds = n.distance(a * s, b * s);
                prop_assert!((ds - d * s).abs() < 1e-5);
            }
        }
    }
}
