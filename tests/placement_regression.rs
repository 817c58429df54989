//! Regression: the smoothed-Newton Euclidean placement solver is never
//! worse than the alternating-Weiszfeld + pattern-search solver it
//! replaced, by more than 1e-9 relative.
//!
//! The old solver lives only here, as the reference. Problems come from
//! the clustered-WAN family (every k-way merge of seeded 12-channel
//! WANs, weighted by the library's effective link rates, exactly as
//! placement builds them), from random terminals, and from the kink
//! cases the smoothing must snap back onto.

use ccs::core::constraint::{ArcId, ConstraintGraph};
use ccs::core::library::wan_paper_library;
use ccs::core::placement::effective_rate;
use ccs::gen::random::{clustered_wan, ClusteredWanConfig};
use ccs::geom::twohub::TwoHubProblem;
use ccs::geom::weber::WeberProblem;
use ccs::geom::{Norm, Point2};
use proptest::prelude::*;

/// The replaced solver, verbatim in behaviour.
mod old {
    use super::*;

    fn weiszfeld_step(anchors: &[(Point2, f64)], y: Point2) -> Point2 {
        let mut num = Point2::ORIGIN;
        let mut den = 0.0;
        let mut coincident_weight = 0.0;
        let mut subgrad = Point2::ORIGIN;
        for &(p, w) in anchors {
            let d = (p - y).len();
            if d < 1e-12 {
                coincident_weight += w;
            } else {
                num = num + p * (w / d);
                den += w / d;
                subgrad = subgrad + (p - y) * (w / d);
            }
        }
        if den == 0.0 {
            return y;
        }
        let t = num / den;
        if coincident_weight == 0.0 {
            return t;
        }
        let r = subgrad.len();
        if r <= coincident_weight {
            y
        } else {
            y + (t - y) * (1.0 - coincident_weight / r)
        }
    }

    fn centroid(pts: &[(Point2, f64)]) -> Point2 {
        let tw: f64 = pts.iter().map(|&(_, w)| w).sum();
        if tw <= 0.0 {
            return pts[0].0;
        }
        let mut c = Point2::ORIGIN;
        for &(p, w) in pts {
            c = c + p * w;
        }
        c / tw
    }

    pub fn weiszfeld(anchors: &[(Point2, f64)], max_iter: usize) -> Point2 {
        let active: Vec<(Point2, f64)> = anchors.iter().copied().filter(|a| a.1 > 0.0).collect();
        match active.len() {
            0 => return anchors[0].0,
            1 => return active[0].0,
            _ => {}
        }
        let mut y = centroid(anchors);
        for _ in 0..max_iter {
            let next = weiszfeld_step(&active, y);
            if (next - y).len() < 1e-9 {
                return next;
            }
            y = next;
        }
        y
    }

    const DIRS: [(f64, f64); 8] = [
        (1.0, 0.0),
        (-1.0, 0.0),
        (0.0, 1.0),
        (0.0, -1.0),
        (1.0, 1.0),
        (-1.0, -1.0),
        (1.0, -1.0),
        (-1.0, 1.0),
    ];

    pub fn star(p: &WeberProblem) -> Point2 {
        let e = Norm::Euclidean;
        let start = weiszfeld(p.anchors(), 1_000);
        let mut h = p
            .anchors()
            .iter()
            .map(|&(a, _)| e.distance(a, start))
            .fold(1.0, f64::max)
            / 8.0;
        let (mut best, mut best_cost) = (start, p.cost(start, e));
        let mut budget = 4_000usize;
        while h > 1e-9 && budget > 0 {
            let mut improved = false;
            for &(dx, dy) in &DIRS {
                budget = budget.saturating_sub(1);
                let cand = best + Point2::new(dx, dy) * h;
                let c = p.cost(cand, e);
                if c + 1e-13 < best_cost {
                    (best, best_cost, improved) = (cand, c, true);
                }
            }
            if !improved {
                h /= 2.0;
            }
        }
        best
    }

    pub fn two_hub(p: &TwoHubProblem) -> f64 {
        let e = Norm::Euclidean;
        let q = p.trunk_weight();
        let (mut a, mut b) = (centroid(p.sources()), centroid(p.sinks()));
        let mut cost = p.cost(a, b, e);
        let mut a_anchors = p.sources().to_vec();
        a_anchors.push((b, q));
        let mut b_anchors = p.sinks().to_vec();
        b_anchors.push((a, q));
        for _ in 0..80 {
            *a_anchors.last_mut().unwrap() = (b, q);
            a = weiszfeld(&a_anchors, 200);
            *b_anchors.last_mut().unwrap() = (a, q);
            b = weiszfeld(&b_anchors, 200);
            let next = p.cost(a, b, e);
            let done = cost - next < 1e-9 * cost.max(1.0);
            cost = next;
            if done {
                break;
            }
        }
        let mut h = p
            .sources()
            .iter()
            .chain(p.sinks())
            .map(|&(t, _)| e.distance(t, a))
            .fold(1.0, f64::max)
            / 4.0;
        let mut budget = 12_000usize;
        while h > 1e-9 && budget > 0 {
            let mut improved = false;
            for &(dx, dy) in &DIRS {
                let d = Point2::new(dx, dy) * h;
                for (da, db) in [(d, Point2::ORIGIN), (Point2::ORIGIN, d), (d, d)] {
                    budget = budget.saturating_sub(1);
                    let c = p.cost(a + da, b + db, e);
                    if c + 1e-12 < cost {
                        (a, b, cost, improved) = (a + da, b + db, c, true);
                    }
                }
            }
            if !improved {
                h /= 2.0;
            }
        }
        cost
    }
}

const REL_TOL: f64 = 1e-9;

/// Asserts the new solvers are finite and within `REL_TOL` of the old
/// ones on both the dumbbell and the star over the same terminals.
fn check(sources: &[(Point2, f64)], sinks: &[(Point2, f64)], q: f64) {
    let e = Norm::Euclidean;
    let p = TwoHubProblem::new(sources.to_vec(), sinks.to_vec(), q);
    let sol = p.solve(e);
    assert!(sol.hub_a.is_finite() && sol.hub_b.is_finite() && sol.cost.is_finite());
    assert!(sol.residual.is_finite(), "residual {}", sol.residual);
    let reference = old::two_hub(&p);
    assert!(
        sol.cost <= reference + REL_TOL * reference.abs(),
        "two-hub: new {} vs old {reference} on {p:?}",
        sol.cost
    );

    let star = WeberProblem::new(sources.iter().chain(sinks).copied().collect());
    let hub = star.solve(e);
    assert!(hub.is_finite());
    let (new, reference) = (star.cost(hub, e), star.cost(old::star(&star), e));
    assert!(
        new <= reference + REL_TOL * reference.abs(),
        "star: new {new} vs old {reference} on {star:?}"
    );
}

/// Weighted terminals of one side of a merge.
type Terminals = Vec<(Point2, f64)>;

/// The dumbbell and star problems of every `stride`-th k-way merge
/// (k = 2..=4) of a seeded clustered WAN, weighted as placement does:
/// `(sources, sinks, trunk weight)`.
fn wan_problems(seed: u64, stride: usize) -> Vec<(Terminals, Terminals, f64)> {
    let g: ConstraintGraph = clustered_wan(&ClusteredWanConfig {
        seed,
        channels: 12,
        ..ClusteredWanConfig::default()
    });
    let lib = wan_paper_library();
    let n = g.arc_count();
    let mut subsets: Vec<Vec<usize>> = Vec::new();
    for mask in 1u32..(1 << n) {
        if (2..=4).contains(&mask.count_ones()) {
            subsets.push((0..n).filter(|&i| mask >> i & 1 == 1).collect());
        }
    }
    subsets
        .iter()
        .step_by(stride)
        .filter_map(|subset| {
            let arcs: Vec<_> = subset.iter().map(|&i| g.arc(ArcId(i as u32))).collect();
            let q = effective_rate(&lib, arcs.iter().map(|a| a.bandwidth).sum())?;
            let mut sources = Vec::new();
            let mut sinks = Vec::new();
            for a in arcs {
                let w = effective_rate(&lib, a.bandwidth)?;
                sources.push((g.position(a.src), w));
                sinks.push((g.position(a.dst), w));
            }
            Some((sources, sinks, q))
        })
        .collect()
}

#[test]
fn never_worse_on_clustered_wan_merges() {
    let mut checked = 0;
    for seed in [1, 2, 3] {
        for (sources, sinks, q) in wan_problems(seed, 13) {
            check(&sources, &sinks, q);
            checked += 1;
        }
    }
    assert!(checked > 100, "only {checked} problems");
}

#[test]
fn kink_cases() {
    let p = |x, y| Point2::new(x, y);
    let dest = p(100.0, 2.0);
    // The demux pinned on a shared destination.
    check(
        &[(p(0.0, 0.0), 2.0), (p(0.0, 4.0), 2.0), (p(2.0, 2.0), 2.0)],
        &[(dest, 2.0), (dest, 2.0), (dest, 2.0)],
        4.0,
    );
    // A majority-weight anchor pins both hubs.
    check(
        &[(p(1.0, 1.0), 10.0), (p(9.0, 3.0), 1.0)],
        &[(p(-4.0, 7.0), 2.0)],
        3.0,
    );
    // An expensive trunk collapses onto one star hub.
    check(
        &[(p(0.0, 0.0), 1.0), (p(0.0, 2.0), 1.0)],
        &[(p(4.0, 1.0), 1.0)],
        1e3,
    );
    // Zero weights: a free hub and an ignored terminal.
    check(
        &[(p(0.0, 0.0), 0.0)],
        &[(p(5.0, 5.0), 1.0), (p(9.0, 0.0), 0.0)],
        1.0,
    );
    check(&[(p(0.0, 0.0), 0.0)], &[(p(5.0, 5.0), 0.0)], 0.0);
    // Coincident terminals.
    check(
        &[(p(3.0, 3.0), 1.0), (p(3.0, 3.0), 2.0)],
        &[(p(3.0, 3.0), 1.0)],
        2.0,
    );
    check(
        &[(p(0.0, 0.0), 1.0), (p(0.0, 0.0), 1.0)],
        &[(p(6.0, 8.0), 1.0), (p(6.0, 8.0), 1.0)],
        1.0,
    );
    // A single terminal per side, and no trunk at all.
    check(&[(p(-2.0, 1.0), 1.5)], &[(p(7.0, -3.0), 0.5)], 1.0);
    check(
        &[(p(0.0, 0.0), 1.0), (p(4.0, 0.0), 1.0)],
        &[(p(2.0, 9.0), 1.0), (p(5.0, 7.0), 3.0)],
        0.0,
    );
    // Far from the origin: the kernel works in a centered frame.
    check(
        &[(p(1e6, 1e6), 1.0), (p(1e6 + 3.0, 1e6), 1.0)],
        &[(p(1e6, 1e6 + 40.0), 1.0)],
        1.5,
    );
}

#[test]
fn single_terminal_star() {
    let p = WeberProblem::new(vec![(Point2::new(3.0, -4.0), 2.5)]);
    let sol = p.solve_detailed(Norm::Euclidean);
    assert_eq!(sol.hub, Point2::new(3.0, -4.0));
    assert_eq!(sol.iterations, 0);
}

fn terminals(n: usize) -> impl Strategy<Value = Vec<(Point2, f64)>> {
    proptest::collection::vec(
        ((-50.0..50.0f64, -50.0..50.0f64), 0.0..5.0f64)
            .prop_map(|((x, y), w)| (Point2::new(x, y), w)),
        1..n,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn never_worse_on_random_terminals(
        sources in terminals(6),
        sinks in terminals(6),
        q in 0.0..10.0f64,
    ) {
        check(&sources, &sinks, q);
    }
}
