//! Single-hub Weber-point solvers.
//!
//! Placing a merge hub (a mux, demux or repeater station) so the total
//! link cost of the star around it is minimal is the classic *weighted
//! Weber problem*: minimize `Σ wᵢ·‖xᵢ − m‖` over hub positions `m`. The
//! weights are per-length link costs, so the optimum is exactly the
//! cheapest hub location. The paper solves this as part of deriving the
//! "exact structure" of each candidate arc implementation (Section 3).
//!
//! * Under the **Manhattan** norm the problem separates per coordinate and
//!   is solved *exactly* by weighted medians.
//! * Under the **Chebyshev** norm a 45° rotation turns it into a Manhattan
//!   problem, also solved exactly.
//! * Under the **Euclidean** norm the crate's smoothed-Newton kernel
//!   (`newton.rs`) minimizes the convex objective to within
//!   round-off, snapping onto an anchor when the optimum sits on one.

use crate::norm::SeparableFrame;
use crate::{Aabb, Norm, Point2};

/// A weighted Weber (geometric-median) problem instance.
///
/// # Examples
///
/// ```
/// use ccs_geom::{Norm, Point2, weber::WeberProblem};
///
/// // Three equally weighted terminals of an equilateral-ish star.
/// let p = WeberProblem::new(vec![
///     (Point2::new(0.0, 0.0), 1.0),
///     (Point2::new(4.0, 0.0), 1.0),
///     (Point2::new(2.0, 3.0), 1.0),
/// ]);
/// let hub = p.solve(Norm::Euclidean);
/// // The optimum is interior and no worse than any terminal.
/// assert!(p.cost(hub, Norm::Euclidean) <= p.cost(Point2::new(0.0, 0.0), Norm::Euclidean));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WeberProblem {
    anchors: Vec<(Point2, f64)>,
    cutoff: Option<f64>,
}

/// The result of a [`WeberProblem::solve_detailed`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeberSolution {
    /// The optimal hub position.
    pub hub: Point2,
    /// Newton steps taken (0 for the exact Manhattan/Chebyshev solvers).
    pub iterations: usize,
    /// Whether a smoothing stage stopped at its step cap unconverged.
    pub capped: bool,
    /// A certified lower bound on the optimal objective, at or above the
    /// [cutoff](WeberProblem::with_cutoff), when the solve stopped
    /// early. The hub is then the solver's iterate, not the optimum.
    /// Always `None` for the exact solvers.
    pub certified: Option<f64>,
}

impl WeberProblem {
    /// Creates a problem from `(position, weight)` anchors.
    ///
    /// # Panics
    ///
    /// Panics if `anchors` is empty, any weight is negative or non-finite,
    /// or any position is non-finite.
    pub fn new(anchors: Vec<(Point2, f64)>) -> Self {
        assert!(
            !anchors.is_empty(),
            "Weber problem needs at least one anchor"
        );
        for &(p, w) in &anchors {
            assert!(p.is_finite(), "non-finite anchor position {p}");
            assert!(w.is_finite() && w >= 0.0, "invalid anchor weight {w}");
        }
        WeberProblem {
            anchors,
            cutoff: None,
        }
    }

    /// Lets the Euclidean solve stop early once it proves the optimal
    /// objective is at least `cutoff` (reported in
    /// [`WeberSolution::certified`]). The exact separable solvers
    /// ignore it.
    pub fn with_cutoff(mut self, cutoff: f64) -> Self {
        self.cutoff = Some(cutoff);
        self
    }

    /// The `(position, weight)` anchors of the problem.
    pub fn anchors(&self) -> &[(Point2, f64)] {
        &self.anchors
    }

    /// Objective value `Σ wᵢ·‖xᵢ − m‖` for a candidate hub `m`.
    pub fn cost(&self, m: Point2, norm: Norm) -> f64 {
        self.anchors
            .iter()
            .map(|&(p, w)| w * norm.distance(p, m))
            .sum()
    }

    /// Solves for the optimal hub position under `norm`.
    ///
    /// Manhattan and Chebyshev solutions are exact; the Euclidean solution
    /// is within [`f64`] round-off of the global optimum (the objective is
    /// convex).
    pub fn solve(&self, norm: Norm) -> Point2 {
        self.solve_detailed(norm).hub
    }

    /// [`solve`](Self::solve), also reporting the solver's work.
    pub fn solve_detailed(&self, norm: Norm) -> WeberSolution {
        let (hub, iterations, capped, certified) = match norm.separable_frame() {
            Some(frame) => (self.solve_separable(frame), 0, false, None),
            None => {
                let p = crate::newton::minimize([&self.anchors, &[]], 1, 0.0, self.cutoff);
                (p.hubs[0], p.steps, p.capped, p.certified)
            }
        };
        WeberSolution {
            hub,
            iterations,
            capped,
            certified,
        }
    }

    /// The exact solve of a separable norm: a weighted median per
    /// coordinate of its frame.
    fn solve_separable(&self, (to, from, _): SeparableFrame) -> Point2 {
        let median = |pick: fn(Point2) -> f64| {
            let axis: Vec<(f64, f64)> = self
                .anchors
                .iter()
                .map(|&(p, w)| (pick(to(p)), w))
                .collect();
            crate::median::weighted_median(&axis).unwrap_or(pick(to(self.anchors[0].0)))
        };
        from(Point2::new(median(|p| p.x), median(|p| p.y)))
    }
}

/// Brute-force oracle: the best point of an `n × n` grid over `bounds`.
///
/// Exponentially slower than [`WeberProblem::solve`]; intended for tests
/// and for visual sanity checks, not production use.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn grid_search(problem: &WeberProblem, bounds: Aabb, n: usize, norm: Norm) -> Point2 {
    assert!(n >= 2, "grid must have at least 2 points per axis");
    let mut best = bounds.min;
    let mut best_cost = f64::INFINITY;
    for i in 0..n {
        for j in 0..n {
            let p = Point2::new(
                bounds.min.x + bounds.width() * (i as f64) / ((n - 1) as f64),
                bounds.min.y + bounds.height() * (j as f64) / ((n - 1) as f64),
            );
            let c = problem.cost(p, norm);
            if c < best_cost {
                best_cost = c;
                best = p;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn square() -> WeberProblem {
        WeberProblem::new(vec![
            (Point2::new(0.0, 0.0), 1.0),
            (Point2::new(2.0, 0.0), 1.0),
            (Point2::new(2.0, 2.0), 1.0),
            (Point2::new(0.0, 2.0), 1.0),
        ])
    }

    #[test]
    fn unit_square_center_all_norms() {
        let p = square();
        for n in Norm::ALL {
            let m = p.solve(n);
            assert!(m.approx_eq(Point2::new(1.0, 1.0), 1e-6), "{n}: got {m}");
        }
    }

    #[test]
    fn single_anchor_is_its_own_optimum() {
        let p = WeberProblem::new(vec![(Point2::new(3.0, -4.0), 2.5)]);
        for n in Norm::ALL {
            assert!(p.solve(n).approx_eq(Point2::new(3.0, -4.0), 1e-12));
        }
    }

    #[test]
    fn two_anchors_euclidean_on_segment() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(10.0, 0.0);
        let p = WeberProblem::new(vec![(a, 1.0), (b, 1.0)]);
        let m = p.solve(Norm::Euclidean);
        // Any point on the segment is optimal; cost must equal the span.
        assert!((p.cost(m, Norm::Euclidean) - 10.0).abs() < 1e-9);
        assert!(m.y.abs() < 1e-9 && m.x >= -1e-9 && m.x <= 10.0 + 1e-9);
    }

    #[test]
    fn dominant_weight_pins_optimum_to_anchor() {
        // If one anchor holds more than half the total weight the Weber
        // point is that anchor (majority theorem), for every norm.
        let heavy = Point2::new(1.0, 1.0);
        let p = WeberProblem::new(vec![
            (heavy, 10.0),
            (Point2::new(9.0, 3.0), 1.0),
            (Point2::new(-4.0, 7.0), 2.0),
        ]);
        for n in Norm::ALL {
            assert!(p.solve(n).approx_eq(heavy, 1e-7), "{n}");
        }
    }

    #[test]
    fn fermat_point_of_equilateral_triangle() {
        let h = 3f64.sqrt();
        let p = WeberProblem::new(vec![
            (Point2::new(-1.0, 0.0), 1.0),
            (Point2::new(1.0, 0.0), 1.0),
            (Point2::new(0.0, h), 1.0),
        ]);
        let m = p.solve(Norm::Euclidean);
        // Fermat point = centroid for an equilateral triangle.
        assert!(m.approx_eq(Point2::new(0.0, h / 3.0), 1e-6), "got {m}");
    }

    #[test]
    fn manhattan_median_is_exact() {
        let p = WeberProblem::new(vec![
            (Point2::new(0.0, 0.0), 1.0),
            (Point2::new(10.0, 1.0), 1.0),
            (Point2::new(3.0, 8.0), 1.0),
        ]);
        let m = p.solve(Norm::Manhattan);
        assert_eq!(m, Point2::new(3.0, 1.0));
    }

    #[test]
    fn zero_weight_anchor_ignored() {
        let p = WeberProblem::new(vec![
            (Point2::new(0.0, 0.0), 1.0),
            (Point2::new(100.0, 100.0), 0.0),
        ]);
        assert!(p.solve(Norm::Euclidean).approx_eq(Point2::ORIGIN, 1e-9));
    }

    #[test]
    #[should_panic(expected = "at least one anchor")]
    fn empty_problem_panics() {
        let _ = WeberProblem::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "invalid anchor weight")]
    fn negative_weight_panics() {
        let _ = WeberProblem::new(vec![(Point2::ORIGIN, -1.0)]);
    }

    #[test]
    fn grid_search_agrees_on_square() {
        let p = square();
        let bounds = Aabb::new(Point2::new(-1.0, -1.0), Point2::new(3.0, 3.0));
        let g = grid_search(&p, bounds, 41, Norm::Euclidean);
        assert!(g.approx_eq(Point2::new(1.0, 1.0), 0.11));
    }

    fn anchors_strategy() -> impl Strategy<Value = Vec<(Point2, f64)>> {
        proptest::collection::vec(
            ((-50.0..50.0f64, -50.0..50.0f64), 0.1..5.0f64)
                .prop_map(|((x, y), w)| (Point2::new(x, y), w)),
            1..12,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The analytic solution is never worse than a 60×60 grid oracle.
        #[test]
        fn solver_beats_grid_oracle(anchors in anchors_strategy()) {
            let p = WeberProblem::new(anchors.clone());
            let bounds = Aabb::from_points(anchors.iter().map(|a| a.0))
                .unwrap()
                .inflated(1.0);
            for n in Norm::ALL {
                let m = p.solve(n);
                let g = grid_search(&p, bounds, 60, n);
                prop_assert!(
                    p.cost(m, n) <= p.cost(g, n) + 1e-6,
                    "{n}: solver {} vs grid {}", p.cost(m, n), p.cost(g, n)
                );
            }
        }

        /// The optimum lies inside the anchors' bounding box (true for all
        /// three norms by convexity and coordinate monotonicity).
        #[test]
        fn optimum_inside_bbox(anchors in anchors_strategy()) {
            let p = WeberProblem::new(anchors.clone());
            let bounds = Aabb::from_points(anchors.iter().map(|a| a.0))
                .unwrap()
                .inflated(1e-6);
            for n in [Norm::Euclidean, Norm::Manhattan] {
                let m = p.solve(n);
                prop_assert!(bounds.contains(m), "{n}: {m} outside {bounds:?}");
            }
        }

        /// Local perturbations never improve the returned optimum.
        #[test]
        fn perturbation_never_improves(anchors in anchors_strategy()) {
            let p = WeberProblem::new(anchors);
            for n in Norm::ALL {
                let m = p.solve(n);
                let c = p.cost(m, n);
                for (dx, dy) in [(0.01, 0.0), (-0.01, 0.0), (0.0, 0.01), (0.0, -0.01),
                                 (0.5, 0.5), (-0.5, 0.5)] {
                    let c2 = p.cost(m + Point2::new(dx, dy), n);
                    prop_assert!(c <= c2 + 1e-7, "{n}: {c} > {c2}");
                }
            }
        }
    }
}
