//! The smoothed-Newton kernel behind every Euclidean hub placement.
//!
//! Both Euclidean placement problems — the one-hub star of
//! [`WeberProblem`](crate::weber::WeberProblem) and the two-hub dumbbell
//! of [`TwoHubProblem`](crate::twohub::TwoHubProblem) — minimize a sum of
//! weighted norms of affine expressions in the hub positions:
//!
//! ```text
//! f(M₁, M₂) = Σᵢ aᵢ‖M₁ − uᵢ‖ + q‖M₁ − M₂‖ + Σⱼ bⱼ‖M₂ − vⱼ‖
//! ```
//!
//! (the star is the one-hub case, with no trunk). `f` is convex but has
//! kinks where a hub sits on an anchor or the trunk collapses. The kernel
//! smooths every term `w‖x‖` to `w·sqrt(‖x‖² + ε²)` — strictly convex,
//! and within `ε·Σw` of `f` — and minimizes it by damped Newton steps (a
//! 2×2 or 4×4 symmetric solve) with Armijo backtracking, from the
//! weighted centroids of each hub's anchors. ε starts at 1e-2 of the
//! anchors' extent and shrinks 100× per stage down to 1e-12, each stage
//! warm-started from the last; every loop has a fixed cap. A final snap
//! tries the kinks the smoothing rounds off — a hub exactly on an anchor,
//! a collapsed trunk — and keeps whichever is cheaper under the true
//! objective.
//!
//! Given a cutoff, the kernel also stops early: after every Newton step
//! it moves the iterate onto the kinks within `10·ε`, builds a
//! convexity certificate — a lower bound on `min f` from a subgradient
//! there, taken over the anchors' bounding box (see
//! `HubObjective::certificate`) — and returns as soon as that bound
//! reaches the cutoff.

use crate::{Aabb, Point2};

/// Smoothing at the first stage, relative to the problem extent.
const EPS_FIRST: f64 = 1e-2;
/// Per-stage smoothing shrink factor.
const EPS_SHRINK: f64 = 1e-2;
/// Number of smoothing stages: ε runs 1e-2, 1e-4, …, 1e-12 × extent.
const STAGES: usize = 6;
/// Newton-step cap per stage; a stage that hits it marks the solve capped.
const STAGE_STEPS: usize = 40;
/// Backtracking-halving cap per line search.
const HALVINGS: usize = 50;
/// Armijo sufficient-decrease constant.
const ARMIJO: f64 = 1e-4;
/// A stage converges when the predicted decrease λ²/2 falls below this
/// fraction of the smoothed objective (round-off level).
const DECREMENT_TOL: f64 = 1e-15;
/// Kink snap radius, relative to the problem extent.
const SNAP_RADIUS: f64 = 1e-6;
/// Certificate snap radius, in units of the stage's smoothing ε.
const CERT_RADIUS: f64 = 10.0;

/// Hub `h` is pulled toward the weighted anchors `pulls[h]` (a star uses
/// only the first slot); with two hubs a trunk of weight `trunk` joins
/// them.
struct HubObjective<'a> {
    pulls: [&'a [(Point2, f64)]; 2],
    hubs: usize,
    trunk: f64,
}

/// The kernel's result.
pub(crate) struct Placement {
    /// Hub positions (the second equals the first for a star).
    pub hubs: [Point2; 2],
    /// Newton steps taken over all stages.
    pub steps: usize,
    /// Whether some stage stopped at its step cap unconverged.
    pub capped: bool,
    /// Newton-decrement gap estimate `λ²/2` when the last stage stopped.
    pub decrement: f64,
    /// A certified lower bound on `min f`, at or above the cutoff, when
    /// the solve stopped early (`hubs` are then the current iterate, not
    /// the optimum).
    pub certified: Option<f64>,
}

/// One smoothed term `w·sqrt(‖d‖² + ε²)`: value, gradient in `d`, and
/// the Hessian's `(xx, xy, yy)` entries. The diagonal uses the
/// cancellation-free form `(‖d‖² − dₓ² + ε²)/r² = (d_y² + ε²)/r²`.
fn term(d: Point2, w: f64, eps2: f64) -> (f64, Point2, [f64; 3]) {
    let r2 = d.len2() + eps2;
    let r = r2.sqrt();
    let s = w / r;
    let k = s / r2;
    let hess = [
        k * (d.y * d.y + eps2),
        -k * d.x * d.y,
        k * (d.x * d.x + eps2),
    ];
    (w * r, d * s, hess)
}

impl HubObjective<'_> {
    fn anchors(&self) -> impl Iterator<Item = &(Point2, f64)> + '_ {
        self.pulls[..self.hubs].iter().flat_map(|p| p.iter())
    }

    /// Smoothed objective at hubs `x`, given in the frame centered on `o`.
    fn value(&self, x: &[Point2; 2], o: Point2, eps2: f64) -> f64 {
        let mut f = 0.0;
        for (pulls, &m) in self.pulls[..self.hubs].iter().zip(x) {
            for &(p, w) in *pulls {
                f += w * ((m - (p - o)).len2() + eps2).sqrt();
            }
        }
        if self.hubs == 2 {
            f += self.trunk * ((x[0] - x[1]).len2() + eps2).sqrt();
        }
        f
    }

    /// Smoothed value, gradient and Hessian at `x` (frame centered on `o`).
    fn model(&self, x: &[Point2; 2], o: Point2, eps2: f64) -> (f64, [f64; 4], [[f64; 4]; 4]) {
        let mut f = 0.0;
        let mut g = [0.0; 4];
        let mut hess = [[0.0; 4]; 4];
        let mut add = |i: usize, j: usize, sign: f64, t: &[f64; 3]| {
            hess[i][j] += sign * t[0];
            hess[i][j + 1] += sign * t[1];
            hess[i + 1][j] += sign * t[1];
            hess[i + 1][j + 1] += sign * t[2];
        };
        for h in 0..self.hubs {
            for &(p, w) in self.pulls[h] {
                let (v, gr, t) = term(x[h] - (p - o), w, eps2);
                f += v;
                g[2 * h] += gr.x;
                g[2 * h + 1] += gr.y;
                add(2 * h, 2 * h, 1.0, &t);
            }
        }
        if self.hubs == 2 {
            // d = M₁ − M₂: +∇ on M₁, −∇ on M₂; the Hessian block is ±t.
            let (v, gr, t) = term(x[0] - x[1], self.trunk, eps2);
            f += v;
            for (i, si) in [(0, 1.0), (2, -1.0)] {
                g[i] += si * gr.x;
                g[i + 1] += si * gr.y;
                for (j, sj) in [(0, 1.0), (2, -1.0)] {
                    add(i, j, si * sj, &t);
                }
            }
        }
        (f, g, hess)
    }

    fn minimize(&self, cutoff: Option<f64>) -> Placement {
        let n = 2 * self.hubs;
        let bb = Aabb::from_points(self.anchors().map(|a| a.0)).expect("hub problems have anchors");
        // Work in a frame centered on the anchors, so ε stays well above
        // the coordinates' round-off.
        let (origin, scale) = (bb.center(), bb.width().max(bb.height()));
        let bounds = [bb.min - origin, bb.max - origin];
        let mut out = Placement {
            hubs: [origin; 2],
            steps: 0,
            capped: false,
            decrement: 0.0,
            certified: None,
        };
        if scale == 0.0 {
            // Every anchor coincides: that point is optimal for every hub.
            return out;
        }
        let start = |h: usize| centroid(self.pulls[h.min(self.hubs - 1)]) - origin;
        let mut x = [start(0), start(1)];
        let mut eps = EPS_FIRST * scale;
        for _ in 0..STAGES {
            let eps2 = eps * eps;
            let mut converged = false;
            for _ in 0..STAGE_STEPS {
                let (f, g, hess) = self.model(&x, origin, eps2);
                let dx = newton_direction(&hess, &g, n);
                let dec: f64 = -(0..n).map(|i| g[i] * dx[i]).sum::<f64>();
                out.decrement = (dec / 2.0).max(0.0);
                // Also stops on a non-descent direction (dec ≤ 0).
                if dec.is_nan() || dec <= DECREMENT_TOL * f {
                    converged = true;
                    break;
                }
                // Halve the step until it decreases enough; a failed line
                // search means round-off has the last word.
                let trial = |t: f64| {
                    let x = [
                        x[0] + Point2::new(dx[0], dx[1]) * t,
                        x[1] + Point2::new(dx[2], dx[3]) * t,
                    ];
                    (self.value(&x, origin, eps2) <= f - ARMIJO * t * dec).then_some(x)
                };
                let Some(next) = (0..HALVINGS).find_map(|k| trial(0.5f64.powi(k as i32))) else {
                    converged = true;
                    break;
                };
                x = next;
                out.steps += 1;
                if let Some(cutoff) = cutoff {
                    let cert = self.certificate(&x, origin, CERT_RADIUS * eps, bounds);
                    if cert >= cutoff {
                        out.certified = Some(cert);
                        out.hubs = [x[0] + origin, x[1] + origin];
                        return out;
                    }
                }
            }
            out.capped |= !converged;
            eps *= EPS_SHRINK;
        }
        out.hubs = self.snap([x[0] + origin, x[1] + origin], SNAP_RADIUS * scale);
        out
    }

    /// A lower bound on `min f` from the iterate `x` (frame centered on
    /// `o`). `x` first moves onto the kinks within `radius`: two hubs
    /// that close merge at their midpoint, and a hub that close to one
    /// of its anchors moves onto it (a merged pair onto any anchor).
    /// At that point `y` the subdifferential of `f` holds `s + v`, with
    /// `s` the gradient of the smooth terms, `v` any vector in the ball
    /// of radius `Σw` of the anchors a hub sits on, and, for a collapsed
    /// trunk, any `(u, −u)` with `‖u‖ ≤ q`; a near-min-norm choice of
    /// those gives `g`. Convexity gives `f(z) ≥ f(y) + g·(z − y)`, and the
    /// anchors' bounding box `[lo, hi]` holds a minimizer (clamping both
    /// hubs into it moves neither away from any anchor nor from the
    /// other hub), so
    ///
    /// ```text
    /// min f ≥ f(y) − Σ_j |g_j|·(g_j > 0 ? y_j − lo_j : hi_j − y_j).
    /// ```
    fn certificate(&self, x: &[Point2; 2], o: Point2, radius: f64, [lo, hi]: [Point2; 2]) -> f64 {
        let collapsed = self.hubs == 2 && (x[0] - x[1]).len() <= radius;
        let mut y = *x;
        if collapsed {
            let m = nearest_anchor(self.anchors(), x[0].midpoint(x[1]), o, radius);
            y = [m, m];
        } else {
            for h in 0..self.hubs {
                y[h] = nearest_anchor(self.pulls[h].iter(), x[h], o, radius);
            }
        }
        // True value, smooth gradient `s` and kink ball radius per hub.
        let mut f = 0.0;
        let mut s = [Point2::ORIGIN; 2];
        let mut ball = [0.0; 2];
        for h in 0..self.hubs {
            for &(p, w) in self.pulls[h] {
                let d = y[h] - (p - o);
                let r = d.len();
                f += w * r;
                if r > 0.0 {
                    s[h] = s[h] + d * (w / r);
                } else {
                    ball[h] += w;
                }
            }
        }
        let mut g = [shrink(s[0], ball[0]), shrink(s[1], ball[1])];
        if collapsed {
            // Alternate the trunk's `u` (the best split of `s₀ + v₀` and
            // `s₁ + v₁` given the balls' `v`) and the balls' shrink.
            let mut v = [Point2::ORIGIN; 2];
            for _ in 0..2 {
                let u = clip((s[1] + v[1] - s[0] - v[0]) * 0.5, self.trunk);
                let (a, b) = (s[0] + u, s[1] - u);
                g = [shrink(a, ball[0]), shrink(b, ball[1])];
                v = [g[0] - a, g[1] - b];
            }
        } else if self.hubs == 2 {
            let d = y[0] - y[1];
            let r = d.len();
            f += self.trunk * r;
            let t = d * (self.trunk / r);
            g = [shrink(s[0] + t, ball[0]), shrink(s[1] - t, ball[1])];
        }
        let slack =
            |g: f64, y: f64, lo: f64, hi: f64| if g > 0.0 { g * (y - lo) } else { -g * (hi - y) };
        (0..self.hubs).fold(f, |c, h| {
            c - slack(g[h].x, y[h].x, lo.x, hi.x) - slack(g[h].y, y[h].y, lo.y, hi.y)
        })
    }

    /// The cheapest, under the true objective, of `x` and the kinks
    /// within `radius` of it: each hub on its nearest anchor, and (two
    /// hubs) the collapsed trunk, bare or on an anchor. Ties go to the
    /// kink.
    fn snap(&self, x: [Point2; 2], radius: f64) -> [Point2; 2] {
        let near = |m| nearest_anchor(self.anchors(), m, Point2::ORIGIN, radius);
        let (a, b) = (near(x[0]), near(x[1]));
        let mid = x[0].midpoint(x[1]);
        let m = near(mid);
        let candidates = [[a, b], [a, x[1]], [x[0], b], [mid, mid], [m, m]];
        let collapsed = self.hubs == 2 && (x[0] - x[1]).len() <= radius;
        let mut best = (self.value(&x, Point2::ORIGIN, 0.0), x);
        for &c in &candidates[..if collapsed { 5 } else { 3 }] {
            let f = self.value(&c, Point2::ORIGIN, 0.0);
            if f <= best.0 {
                best = (f, c);
            }
        }
        let [m1, m2] = best.1;
        [m1, if self.hubs == 2 { m2 } else { m1 }]
    }
}

/// Solves `H·Δ = −g` for the leading `n × n` block by Cholesky. A hub
/// that nothing pulls on has an all-zero block (and zero gradient); its
/// non-positive pivots are skipped, leaving that hub's step zero.
fn newton_direction(hess: &[[f64; 4]; 4], g: &[f64; 4], n: usize) -> [f64; 4] {
    let mut l = [[0.0; 4]; 4];
    for j in 0..n {
        let s = hess[j][j] - (0..j).map(|k| l[j][k] * l[j][k]).sum::<f64>();
        if s.is_nan() || s <= 0.0 {
            continue;
        }
        l[j][j] = s.sqrt();
        for i in j + 1..n {
            l[i][j] = (hess[i][j] - (0..j).map(|k| l[i][k] * l[j][k]).sum::<f64>()) / l[j][j];
        }
    }
    let mut y = [0.0; 4];
    for i in 0..n {
        if l[i][i] > 0.0 {
            y[i] = (-g[i] - (0..i).map(|k| l[i][k] * y[k]).sum::<f64>()) / l[i][i];
        }
    }
    for i in (0..n).rev() {
        if l[i][i] > 0.0 {
            y[i] = (y[i] - (i + 1..n).map(|k| l[k][i] * y[k]).sum::<f64>()) / l[i][i];
        }
    }
    y
}

/// The anchor nearest to `m` within `radius`, in the frame centered on
/// `o` (`m` itself when none is that close; ties go to the later anchor).
fn nearest_anchor<'a>(
    anchors: impl Iterator<Item = &'a (Point2, f64)>,
    m: Point2,
    o: Point2,
    radius: f64,
) -> Point2 {
    let mut best = (radius, m);
    for &(p, _) in anchors {
        let d = (p - o - m).len();
        if d <= best.0 {
            best = (d, p - o);
        }
    }
    best.1
}

/// `v` moved toward the origin by `r` (the origin when `‖v‖ ≤ r`): the
/// smallest vector in `v` plus the ball of radius `r`.
fn shrink(v: Point2, r: f64) -> Point2 {
    v - clip(v, r)
}

/// `v` clipped to the ball of radius `r`.
fn clip(v: Point2, r: f64) -> Point2 {
    let n = v.len();
    if n <= r {
        v
    } else {
        v * (r / n)
    }
}

/// Minimizes the objective of hubs pulled toward `pulls[h]` (one or two
/// `hubs`, the second joined by a trunk of weight `trunk`), stopping
/// early once a certified lower bound on the optimum reaches `cutoff`.
pub(crate) fn minimize(
    pulls: [&[(Point2, f64)]; 2],
    hubs: usize,
    trunk: f64,
    cutoff: Option<f64>,
) -> Placement {
    HubObjective { pulls, hubs, trunk }.minimize(cutoff)
}

/// Weighted centroid of `pts` (the first point when every weight is
/// zero) — the kernel's start point for a hub.
fn centroid(pts: &[(Point2, f64)]) -> Point2 {
    let tw: f64 = pts.iter().map(|a| a.1).sum();
    if tw <= 0.0 {
        return pts[0].0;
    }
    pts.iter()
        .fold(Point2::ORIGIN, |c, &(p, w)| c + p * (w / tw))
}
