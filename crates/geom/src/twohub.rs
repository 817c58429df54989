//! Two-hub placement: the geometry of a k-way arc merging.
//!
//! A k-way merging realizes k constraint arcs `(uᵢ, vᵢ)` as: a branch link
//! from each source `uᵢ` to a mux hub `M₁`, a shared trunk (the paper's
//! *common path* `q*`) from `M₁` to a demux hub `M₂`, and a branch link
//! from `M₂` to each destination `vᵢ`. With per-length link prices as
//! weights, the cheapest hubs minimize
//!
//! ```text
//! f(M₁, M₂) = Σᵢ aᵢ‖uᵢ − M₁‖ + q·‖M₁ − M₂‖ + Σᵢ bᵢ‖M₂ − vᵢ‖
//! ```
//!
//! `f` is jointly convex (a sum of norms of affine maps). Under the
//! Manhattan norm it separates per coordinate into convex piecewise-linear
//! 1-D problems whose optima lie on breakpoints, so those are solved
//! *exactly*; Chebyshev reduces to Manhattan by a 45° rotation. The
//! Euclidean case runs the crate's smoothed-Newton kernel (`newton.rs`)
//! on both hubs at once (a 4×4 system), then snaps onto the kinks — a
//! hub on an anchor, a collapsed trunk. With a
//! [cutoff](TwoHubProblem::with_cutoff) the kernel stops as soon as it
//! certifies that the optimum reaches it.

use crate::norm::SeparableFrame;
use crate::{Norm, Point2};

/// A two-hub (mux/demux) placement problem.
///
/// # Examples
///
/// ```
/// use ccs_geom::{Norm, Point2, twohub::TwoHubProblem};
///
/// // Three channels from a cluster on the left all target the same
/// // destination far right; branch links cost 2/unit, the shared trunk 4.
/// let dest = Point2::new(100.0, 2.0);
/// let p = TwoHubProblem::new(
///     vec![
///         (Point2::new(0.0, 0.0), 2.0),
///         (Point2::new(0.0, 4.0), 2.0),
///         (Point2::new(2.0, 2.0), 2.0),
///     ],
///     vec![(dest, 2.0), (dest, 2.0), (dest, 2.0)],
///     4.0,
/// );
/// let sol = p.solve(Norm::Euclidean);
/// // The demux hub collapses onto the shared destination (the three
/// // destination branches outweigh the trunk) and the mux sits in the
/// // source cluster.
/// assert!(sol.hub_b.approx_eq(dest, 1e-4));
/// assert!(sol.hub_a.x < 10.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TwoHubProblem {
    sources: Vec<(Point2, f64)>,
    sinks: Vec<(Point2, f64)>,
    trunk_weight: f64,
    cutoff: Option<f64>,
}

/// The result of a [`TwoHubProblem::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoHubSolution {
    /// Position of the source-side hub (mux).
    pub hub_a: Point2,
    /// Position of the destination-side hub (demux).
    pub hub_b: Point2,
    /// Objective value at the returned hubs.
    pub cost: f64,
    /// Newton steps taken (0 for the exact solvers).
    pub iterations: usize,
    /// The final Newton decrement, as the predicted objective gap `λ²/2`
    /// of the last smoothing stage (0 for the exact breakpoint solvers,
    /// which have none; for a [certified](Self::certified) early exit,
    /// the decrement of the step it stopped after).
    pub residual: f64,
    /// Whether a smoothing stage stopped at its step cap unconverged
    /// (always `false` for the exact solvers).
    pub capped: bool,
    /// A certified lower bound on the optimal objective, at or above the
    /// [cutoff](TwoHubProblem::with_cutoff), when the solve stopped
    /// early. The hubs are then the solver's iterate, not the optimum.
    /// Always `None` for the exact solvers.
    pub certified: Option<f64>,
}

impl TwoHubProblem {
    /// Creates a problem from weighted sources, weighted sinks, and the
    /// trunk's per-length weight.
    ///
    /// # Panics
    ///
    /// Panics if either terminal set is empty, or any weight is negative
    /// or non-finite.
    pub fn new(sources: Vec<(Point2, f64)>, sinks: Vec<(Point2, f64)>, trunk_weight: f64) -> Self {
        assert!(
            !sources.is_empty(),
            "two-hub problem needs at least one source"
        );
        assert!(!sinks.is_empty(), "two-hub problem needs at least one sink");
        assert!(
            trunk_weight.is_finite() && trunk_weight >= 0.0,
            "invalid trunk weight {trunk_weight}"
        );
        for &(p, w) in sources.iter().chain(&sinks) {
            assert!(p.is_finite(), "non-finite terminal {p}");
            assert!(w.is_finite() && w >= 0.0, "invalid terminal weight {w}");
        }
        TwoHubProblem {
            sources,
            sinks,
            trunk_weight,
            cutoff: None,
        }
    }

    /// Lets the Euclidean solve stop early once it proves the optimal
    /// objective is at least `cutoff` (reported in
    /// [`TwoHubSolution::certified`]). The exact separable solvers
    /// ignore it.
    pub fn with_cutoff(mut self, cutoff: f64) -> Self {
        self.cutoff = Some(cutoff);
        self
    }

    /// The weighted source terminals.
    pub fn sources(&self) -> &[(Point2, f64)] {
        &self.sources
    }

    /// The weighted sink terminals.
    pub fn sinks(&self) -> &[(Point2, f64)] {
        &self.sinks
    }

    /// The trunk's per-length weight.
    pub fn trunk_weight(&self) -> f64 {
        self.trunk_weight
    }

    /// Objective value for a candidate hub pair.
    pub fn cost(&self, hub_a: Point2, hub_b: Point2, norm: Norm) -> f64 {
        let sum = |pts: &[(Point2, f64)], hub| -> f64 {
            pts.iter().map(|&(p, w)| w * norm.distance(p, hub)).sum()
        };
        sum(&self.sources, hub_a)
            + sum(&self.sinks, hub_b)
            + self.trunk_weight * norm.distance(hub_a, hub_b)
    }

    /// Solves for the optimal hub pair under `norm`.
    ///
    /// Manhattan and Chebyshev solutions are exact (breakpoint
    /// enumeration); the Euclidean solution is the joint smoothed-Newton
    /// optimum, within [`f64`] round-off of the global one.
    pub fn solve(&self, norm: Norm) -> TwoHubSolution {
        let ([hub_a, hub_b], iterations, residual, capped, certified) = match norm.separable_frame()
        {
            Some(frame) => (self.solve_separable(frame), 0, 0.0, false, None),
            // The objective is jointly convex in (hub_a, hub_b) — every
            // term is a nonnegative multiple of a norm of an affine
            // expression — so one start reaches the global optimum.
            None => {
                let p = crate::newton::minimize(
                    [&self.sources, &self.sinks],
                    2,
                    self.trunk_weight,
                    self.cutoff,
                );
                (p.hubs, p.steps, p.decrement, p.capped, p.certified)
            }
        };
        TwoHubSolution {
            hub_a,
            hub_b,
            cost: self.cost(hub_a, hub_b, norm),
            iterations,
            residual,
            capped,
            certified,
        }
    }

    /// The exact hubs of a separable norm: two 1-D breakpoint problems
    /// in its frame.
    fn solve_separable(&self, (to, from, scale): SeparableFrame) -> [Point2; 2] {
        let axis = |pts: &[(Point2, f64)], pick: fn(Point2) -> f64| -> Vec<(f64, f64)> {
            pts.iter().map(|&(p, w)| (pick(to(p)), w * scale)).collect()
        };
        let solve = |pick: fn(Point2) -> f64| {
            let (sources, sinks) = (axis(&self.sources, pick), axis(&self.sinks, pick));
            solve_1d(&sources, &sinks, self.trunk_weight * scale)
        };
        let ((ax, bx, _), (ay, by, _)) = (solve(|p| p.x), solve(|p| p.y));
        [from(Point2::new(ax, ay)), from(Point2::new(bx, by))]
    }
}

/// Exact 1-D two-hub solve: minimize
/// `Σ aᵢ|sᵢ − m₁| + q|m₁ − m₂| + Σ bⱼ|tⱼ − m₂|`.
///
/// The objective is convex piecewise linear, so an optimum exists with both
/// hubs on breakpoints (sample coordinates); all pairs are enumerated.
fn solve_1d(sources: &[(f64, f64)], sinks: &[(f64, f64)], q: f64) -> (f64, f64, f64) {
    let mut breaks: Vec<f64> = sources.iter().chain(sinks).map(|&(x, _)| x).collect();
    breaks.sort_by(f64::total_cmp);
    breaks.dedup();
    let eval = |m1: f64, m2: f64| -> f64 {
        let s: f64 = sources.iter().map(|&(x, w)| w * (x - m1).abs()).sum();
        let t: f64 = sinks.iter().map(|&(x, w)| w * (x - m2).abs()).sum();
        s + t + q * (m1 - m2).abs()
    };
    let mut best = (breaks[0], breaks[0], eval(breaks[0], breaks[0]));
    for &m1 in &breaks {
        for &m2 in &breaks {
            let c = eval(m1, m2);
            if c < best.2 {
                best = (m1, m2, c);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weber::WeberProblem;
    use proptest::prelude::*;

    #[test]
    fn degenerate_single_source_single_sink() {
        // One source, one sink, trunk cheaper than branches: the trunk
        // should span (almost) the whole distance, hubs at the terminals.
        let s = Point2::new(0.0, 0.0);
        let t = Point2::new(10.0, 0.0);
        let p = TwoHubProblem::new(vec![(s, 5.0)], vec![(t, 5.0)], 1.0);
        let sol = p.solve(Norm::Euclidean);
        assert!((sol.cost - 10.0).abs() < 1e-6, "cost {}", sol.cost);
        assert!(sol.hub_a.approx_eq(s, 1e-4));
        assert!(sol.hub_b.approx_eq(t, 1e-4));
    }

    #[test]
    fn expensive_trunk_collapses_hubs() {
        // Trunk far more expensive than branches: the hubs coincide and the
        // trunk has zero length.
        let p = TwoHubProblem::new(
            vec![(Point2::new(0.0, 0.0), 1.0), (Point2::new(0.0, 2.0), 1.0)],
            vec![(Point2::new(4.0, 1.0), 1.0)],
            1_000.0,
        );
        let sol = p.solve(Norm::Euclidean);
        assert!(
            Norm::Euclidean.distance(sol.hub_a, sol.hub_b) < 1e-6,
            "hubs should coincide: {} vs {}",
            sol.hub_a,
            sol.hub_b
        );
    }

    #[test]
    fn shared_destination_puts_demux_at_destination() {
        // Three 10 Mbps channels into the same destination D: the cheapest
        // demux position is D itself, so the "common path" ends at D — the
        // shape of the paper's WAN solution (Fig. 4).
        let d = Point2::new(64.8, 76.4);
        let p = TwoHubProblem::new(
            vec![
                (Point2::new(0.0, 0.0), 2.0),
                (Point2::new(5.0, 0.0), 2.0),
                (Point2::new(-2.8, 4.6), 2.0),
            ],
            vec![(d, 2.0), (d, 2.0), (d, 2.0)],
            4.0,
        );
        let sol = p.solve(Norm::Euclidean);
        assert!(sol.hub_b.approx_eq(d, 1e-4), "demux at {}", sol.hub_b);
        // The mux must sit near the source cluster, not near D.
        assert!(
            Norm::Euclidean.distance(sol.hub_a, Point2::new(0.7, 1.5)) < 6.0,
            "mux at {}",
            sol.hub_a
        );
    }

    #[test]
    fn manhattan_solution_is_exact() {
        let p = TwoHubProblem::new(
            vec![(Point2::new(0.0, 0.0), 1.0), (Point2::new(0.0, 10.0), 1.0)],
            vec![(Point2::new(20.0, 5.0), 1.0)],
            1.5,
        );
        let sol = p.solve(Norm::Manhattan);
        // Verify against perturbations around the solution.
        for dx in [-0.5, 0.0, 0.5] {
            for dy in [-0.5, 0.0, 0.5] {
                let c = p.cost(
                    sol.hub_a + Point2::new(dx, dy),
                    sol.hub_b + Point2::new(dy, dx),
                    Norm::Manhattan,
                );
                assert!(sol.cost <= c + 1e-9);
            }
        }
    }

    #[test]
    fn chebyshev_matches_rotated_manhattan_cost() {
        let p = TwoHubProblem::new(
            vec![(Point2::new(0.0, 0.0), 1.0), (Point2::new(3.0, 7.0), 2.0)],
            vec![(Point2::new(10.0, 2.0), 1.0)],
            2.0,
        );
        let sol = p.solve(Norm::Chebyshev);
        let recomputed = p.cost(sol.hub_a, sol.hub_b, Norm::Chebyshev);
        assert!((sol.cost - recomputed).abs() < 1e-9);
        // Coarse optimality check.
        for dx in [-1.0, 1.0] {
            let c = p.cost(sol.hub_a + Point2::new(dx, 0.0), sol.hub_b, Norm::Chebyshev);
            assert!(sol.cost <= c + 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn empty_sources_panic() {
        let _ = TwoHubProblem::new(vec![], vec![(Point2::ORIGIN, 1.0)], 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid trunk weight")]
    fn negative_trunk_weight_panics() {
        let _ = TwoHubProblem::new(
            vec![(Point2::ORIGIN, 1.0)],
            vec![(Point2::ORIGIN, 1.0)],
            -2.0,
        );
    }

    fn terminals(n: usize) -> impl Strategy<Value = Vec<(Point2, f64)>> {
        proptest::collection::vec(
            ((-30.0..30.0f64, -30.0..30.0f64), 0.5..4.0f64)
                .prop_map(|((x, y), w)| (Point2::new(x, y), w)),
            1..n,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Perturbing either hub never improves the returned solution.
        #[test]
        fn local_optimality(
            sources in terminals(6),
            sinks in terminals(6),
            trunk in 0.1..8.0f64,
        ) {
            let p = TwoHubProblem::new(sources, sinks, trunk);
            for norm in [Norm::Euclidean, Norm::Manhattan] {
                let sol = p.solve(norm);
                for (dx, dy) in [(0.05, 0.0), (-0.05, 0.0), (0.0, 0.05), (0.0, -0.05),
                                 (1.0, 1.0), (-1.0, 1.0)] {
                    let d = Point2::new(dx, dy);
                    prop_assert!(sol.cost <= p.cost(sol.hub_a + d, sol.hub_b, norm) + 1e-6);
                    prop_assert!(sol.cost <= p.cost(sol.hub_a, sol.hub_b + d, norm) + 1e-6);
                    prop_assert!(sol.cost <= p.cost(sol.hub_a + d, sol.hub_b + d, norm) + 1e-6);
                }
            }
        }

        /// The objective reported equals an independent recomputation.
        #[test]
        fn reported_cost_is_consistent(
            sources in terminals(5),
            sinks in terminals(5),
            trunk in 0.0..5.0f64,
        ) {
            let p = TwoHubProblem::new(sources, sinks, trunk);
            let sol = p.solve(Norm::Euclidean);
            let recomputed = p.cost(sol.hub_a, sol.hub_b, Norm::Euclidean);
            prop_assert!((sol.cost - recomputed).abs() < 1e-9);
        }

        /// A certificate never overstates the optimum: with a cutoff
        /// anywhere around the optimal cost, an early exit reports a
        /// bound at or above the cutoff and at or below the full solve's
        /// cost, and a solve that does not stop early is the full solve.
        #[test]
        fn certificate_bounds_the_optimum(
            sources in terminals(6),
            sinks in terminals(6),
            trunk in 0.0..8.0f64,
            frac in 0.5..1.01f64,
        ) {
            let p = TwoHubProblem::new(sources, sinks, trunk);
            let full = p.solve(Norm::Euclidean);
            prop_assert!(full.certified.is_none());
            let cut = p.clone().with_cutoff(full.cost * frac).solve(Norm::Euclidean);
            match cut.certified {
                Some(c) => {
                    prop_assert!(c >= full.cost * frac);
                    prop_assert!(c <= full.cost * (1.0 + 1e-12), "cert {c} > optimum {}", full.cost);
                }
                None => prop_assert_eq!(cut, full),
            }
            let star = WeberProblem::new(p.sources().iter().chain(p.sinks()).copied().collect());
            let hub = star.solve(Norm::Euclidean);
            let opt = star.cost(hub, Norm::Euclidean);
            let cut = star.with_cutoff(opt * frac).solve_detailed(Norm::Euclidean);
            if let Some(c) = cut.certified {
                prop_assert!(c >= opt * frac && c <= opt * (1.0 + 1e-12), "cert {c} vs optimum {opt}");
            }
        }

        /// Manhattan: the exact solver is never worse than alternating
        /// coordinate medians started from the terminals.
        #[test]
        fn manhattan_never_worse_than_terminal_hubs(
            sources in terminals(5),
            sinks in terminals(5),
            trunk in 0.1..5.0f64,
        ) {
            let p = TwoHubProblem::new(sources.clone(), sinks.clone(), trunk);
            let sol = p.solve(Norm::Manhattan);
            for &(s, _) in &sources {
                for &(t, _) in &sinks {
                    prop_assert!(sol.cost <= p.cost(s, t, Norm::Manhattan) + 1e-9);
                }
            }
        }
    }
}
