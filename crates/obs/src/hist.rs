//! Mergeable log-bucketed latency histograms and rolling windows.
//!
//! The `ccs serve` daemon needs latency distributions that are cheap
//! to record from many worker threads at once, cheap to snapshot from
//! the reader thread, and mergeable across sources without losing
//! information. This module provides the classic HDR-style layout:
//! a value's bucket is `(power-of-two exponent, linear sub-bucket)`,
//! so bucket width grows with magnitude and the quantile estimate
//! carries a *relative* error bound instead of an absolute one.
//!
//! # Bucket scheme
//!
//! Values are `u64` (nanoseconds by convention; nothing here assumes
//! a unit). With `SUB_BITS = 5` there are `SUB = 32` linear
//! sub-buckets per power of two:
//!
//! * values below `SUB` get exact single-unit buckets (`index = v`);
//! * a value with highest set bit `e >= SUB_BITS` lands in octave
//!   `e - SUB_BITS + 1`, sub-bucket = the `SUB_BITS` bits after the
//!   leading one: `index = octave * SUB + sub`, bucket width
//!   `2^(e - SUB_BITS)`.
//!
//! The two regions meet seamlessly at `v = SUB`, and the whole `u64`
//! range fits in [`BUCKETS`] buckets (1920 for `SUB_BITS = 5`).
//!
//! # Error bound
//!
//! A bucket at value magnitude `v` is at most `v / SUB` wide, and the
//! estimate returned for it is the bucket midpoint, so any quantile
//! estimate is within `1/(2*SUB)` of the true sample quantile in
//! relative terms — **±1.5625% for `SUB = 32`** — plus at most one
//! unit of integer rounding. Values below `SUB` are exact. The
//! property tests in `tests/hist_property.rs` hold the estimator to
//! exactly this bound against sorted-sample quantiles.
//!
//! # Concurrency and merging
//!
//! [`Hist::record`] is a relaxed atomic increment per bucket plus
//! atomic min/max/sum upkeep — safe from any number of threads, no
//! locks. [`Snapshot`]s are plain data; [`Snapshot::merge`] adds
//! bucket-wise and is commutative and associative, so partitioning a
//! sample across N histograms and merging their snapshots in any
//! order yields the same distribution as recording into one (the
//! thread-count invariance the property tests pin down).
//!
//! A snapshot taken while writers are active is not a point-in-time
//! cut: buckets are read one by one with relaxed loads. Every
//! recorded value still lands in exactly one snapshot eventually —
//! fine for telemetry, not for accounting.
//!
//! # Rolling windows
//!
//! [`Windowed`] pairs a lifetime histogram with a ring of
//! [`EPOCHS`] epoch slices of [`EPOCH_NS`] each (2 s x 32 = 64 s of
//! coverage). Recording stamps the slice for `now / EPOCH_NS`,
//! resetting slices whose stamp is stale; [`Windowed::window`] merges
//! the slices overlapping the requested span. A window of W seconds
//! therefore covers between `W - 2 s` and `W` seconds of history
//! (epoch granularity), always including the in-progress epoch.
//! Callers supply `now_ns` from their own monotonic clock, which
//! keeps this module deterministic under test.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// log2 of the linear sub-bucket count per power of two.
pub const SUB_BITS: u32 = 5;

/// Linear sub-buckets per power of two; the relative quantile error
/// bound is `1 / (2 * SUB)`.
pub const SUB: usize = 1 << SUB_BITS;

/// Total buckets covering the full `u64` range.
pub const BUCKETS: usize = ((64 - SUB_BITS as usize) << SUB_BITS) + SUB;

/// Upper bound on the relative error of [`Snapshot::quantile`]
/// (`1 / (2 * SUB)`), excluding one unit of integer rounding.
pub const RELATIVE_ERROR: f64 = 1.0 / (2.0 * SUB as f64);

/// Ring slices kept by [`Windowed`].
pub const EPOCHS: usize = 32;

/// Duration of one ring slice in nanoseconds (2 s).
pub const EPOCH_NS: u64 = 2_000_000_000;

/// The bucket index of `v`. Total over all of `u64`.
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let octave = (e - SUB_BITS + 1) as usize;
    let sub = ((v >> (e - SUB_BITS)) as usize) & (SUB - 1);
    (octave << SUB_BITS) + sub
}

/// The half-open value range `[lo, hi)` covered by bucket `i`.
///
/// # Panics
///
/// When `i >= BUCKETS`.
#[must_use]
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < BUCKETS, "bucket index {i} out of range");
    if i < SUB {
        return (i as u64, i as u64 + 1);
    }
    let octave = (i >> SUB_BITS) as u32;
    let e = octave + SUB_BITS - 1;
    let sub = (i & (SUB - 1)) as u64;
    let width = 1u64 << (e - SUB_BITS);
    let lo = (1u64 << e) + sub * width;
    (lo, lo.saturating_add(width))
}

/// The representative value reported for bucket `i` (the midpoint;
/// see the module-level error bound).
#[must_use]
pub fn bucket_mid(i: usize) -> u64 {
    let (lo, hi) = bucket_bounds(i);
    lo + (hi - lo) / 2
}

/// A concurrent log-bucketed histogram of `u64` values.
pub struct Hist {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

impl std::fmt::Debug for Hist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hist")
            .field("count", &self.count.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Hist {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Hist {
        Hist {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value (relaxed atomics; callable from any thread).
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Values recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A mergeable copy of the current state (bucket-by-bucket relaxed
    /// reads; not a point-in-time cut under concurrent writers).
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let mut counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        while counts.last() == Some(&0) {
            counts.pop();
        }
        let count = self.count.load(Ordering::Relaxed);
        Snapshot {
            counts,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of a [`Hist`]; merges commutatively.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Per-bucket counts, trailing zeros trimmed.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Snapshot {
    /// An empty snapshot (the merge identity).
    #[must_use]
    pub fn empty() -> Snapshot {
        Snapshot::default()
    }

    /// Values in the snapshot.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (wrapping beyond `u64`).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded values (0 when empty).
    #[must_use]
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Folds `other` into `self` bucket-wise. Commutative and
    /// associative: any merge order over any partition of a sample
    /// yields the same snapshot.
    pub fn merge(&mut self, other: &Snapshot) {
        self.merge_at(other, 0);
    }

    /// [`merge`](Self::merge) for an `other` whose bucket counts start
    /// at bucket `base`.
    fn merge_at(&mut self, other: &Snapshot, base: usize) {
        if other.count == 0 {
            return;
        }
        if self.counts.len() < base + other.counts.len() {
            self.counts.resize(base + other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts[base..].iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// The estimated `q`-quantile (`q` clamped to `[0, 1]`): the
    /// midpoint of the bucket holding the sample of rank
    /// `ceil(q * count)`. Within [`RELATIVE_ERROR`] of the exact
    /// sorted-sample quantile, plus one unit of rounding; 0 when the
    /// snapshot is empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil without going through floats for the common exact cases.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                // Clamp to the observed extremes: the top bucket's
                // midpoint can exceed the true max.
                return bucket_mid(i).clamp(self.min(), self.max);
            }
        }
        self.max
    }
}

/// One slice of the epoch ring: what was recorded during `epoch`. Its
/// bucket counts start at bucket `base`, the lowest one recorded, so a
/// slice stores only the span its values cover.
#[derive(Debug, Clone)]
struct Slice {
    epoch: u64,
    base: usize,
    snap: Snapshot,
}

/// A lifetime [`Hist`] plus a ring of epoch slices for rolling-window
/// views. The lifetime histogram stays lock-free; the ring takes a
/// short mutex per record (one bucket increment under the lock).
pub struct Windowed {
    lifetime: Hist,
    ring: Mutex<Vec<Slice>>,
}

impl Default for Windowed {
    fn default() -> Self {
        Windowed::new()
    }
}

impl std::fmt::Debug for Windowed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Windowed")
            .field("lifetime", &self.lifetime)
            .finish_non_exhaustive()
    }
}

impl Windowed {
    /// An empty windowed histogram.
    #[must_use]
    pub fn new() -> Windowed {
        Windowed {
            lifetime: Hist::new(),
            ring: Mutex::new(Vec::new()),
        }
    }

    /// Records `v` at monotonic time `now_ns` into both the lifetime
    /// histogram and the current epoch slice.
    pub fn record(&self, v: u64, now_ns: u64) {
        self.lifetime.record(v);
        let epoch = now_ns / EPOCH_NS;
        let slot = (epoch % EPOCHS as u64) as usize;
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.is_empty() {
            ring.resize(
                EPOCHS,
                Slice {
                    epoch: u64::MAX,
                    base: 0,
                    snap: Snapshot::empty(),
                },
            );
        }
        let slice = &mut ring[slot];
        if slice.epoch != epoch {
            slice.epoch = epoch;
            slice.snap = Snapshot::empty();
        }
        let snap = &mut slice.snap;
        let idx = bucket_index(v);
        if snap.count == 0 {
            slice.base = idx;
        } else if idx < slice.base {
            let grow = slice.base - idx;
            snap.counts.splice(0..0, std::iter::repeat_n(0, grow));
            slice.base = idx;
        }
        let at = idx - slice.base;
        if snap.counts.len() <= at {
            snap.counts.resize(at + 1, 0);
        }
        snap.counts[at] += 1;
        snap.min = if snap.count == 0 { v } else { snap.min.min(v) };
        snap.max = snap.max.max(v);
        snap.count += 1;
        snap.sum = snap.sum.wrapping_add(v);
    }

    /// The lifetime distribution.
    #[must_use]
    pub fn lifetime(&self) -> Snapshot {
        self.lifetime.snapshot()
    }

    /// The merged distribution of roughly the last `window_ns`
    /// nanoseconds as of `now_ns`: every epoch slice overlapping
    /// `[now_ns - window_ns, now_ns]`. Epoch-granular — see the
    /// module docs for the exact coverage bracket. A `window_ns`
    /// beyond the ring's span is clamped to it.
    #[must_use]
    pub fn window(&self, now_ns: u64, window_ns: u64) -> Snapshot {
        let epoch_now = now_ns / EPOCH_NS;
        // Never reach beyond the ring: a slice older than EPOCHS-1
        // epochs shares its slot with a newer epoch.
        let span = (window_ns / EPOCH_NS).min(EPOCHS as u64 - 1);
        let cutoff = epoch_now.saturating_sub(span);
        let mut merged = Snapshot::empty();
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        for slice in ring.iter() {
            if slice.epoch != u64::MAX && slice.epoch >= cutoff && slice.epoch <= epoch_now {
                merged.merge_at(&slice.snap, slice.base);
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_total() {
        let mut vals = Vec::new();
        for shift in 0..64u32 {
            for delta in [0u64, 1, 3] {
                vals.push((1u64 << shift).saturating_add(delta << shift.saturating_sub(3)));
            }
        }
        vals.sort_unstable();
        let mut last = 0usize;
        for v in vals {
            let i = bucket_index(v);
            assert!(
                i >= last,
                "index must not decrease: v={v} i={i} last={last}"
            );
            assert!(i < BUCKETS);
            last = i;
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bounds_invert_the_index() {
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo < hi);
            assert_eq!(bucket_index(lo), i, "lo of bucket {i}");
            assert_eq!(bucket_index(hi - 1), i, "hi-1 of bucket {i}");
            if hi != u64::MAX || i == BUCKETS - 1 {
                // widths tile the range without gaps
                if i + 1 < BUCKETS {
                    assert_eq!(bucket_bounds(i + 1).0, hi, "bucket {i} abuts {}", i + 1);
                }
            }
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = Hist::new();
        for v in 0..SUB as u64 {
            h.record(v);
        }
        let s = h.snapshot();
        for rank in 1..=SUB as u64 {
            let q = rank as f64 / SUB as f64;
            assert_eq!(s.quantile(q), rank - 1, "quantile {q}");
        }
    }

    #[test]
    fn quantile_respects_the_relative_bound() {
        let h = Hist::new();
        let mut vals: Vec<u64> = (0..2000u64).map(|i| 1_000 + i * i * 37).collect();
        for &v in &vals {
            h.record(v);
        }
        vals.sort_unstable();
        let s = h.snapshot();
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
            let exact = vals[rank - 1];
            let est = s.quantile(q);
            let err = (est as f64 - exact as f64).abs();
            assert!(
                err <= exact as f64 * RELATIVE_ERROR + 1.0,
                "q={q}: est {est} vs exact {exact} (err {err})"
            );
        }
    }

    #[test]
    fn merge_is_commutative() {
        let (a, b) = (Hist::new(), Hist::new());
        for v in [5u64, 100, 7_000, 1 << 40] {
            a.record(v);
        }
        for v in [9u64, 100, 65_535] {
            b.record(v);
        }
        let (sa, sb) = (a.snapshot(), b.snapshot());
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 7);
        assert_eq!(ab.min(), 5);
        assert_eq!(ab.max(), 1 << 40);
    }

    #[test]
    fn empty_snapshot_is_the_merge_identity() {
        let h = Hist::new();
        h.record(42);
        let s = h.snapshot();
        let mut merged = s.clone();
        merged.merge(&Snapshot::empty());
        assert_eq!(merged, s);
        let mut other = Snapshot::empty();
        other.merge(&s);
        assert_eq!(other, s);
        assert_eq!(Snapshot::empty().quantile(0.5), 0);
        assert_eq!(Snapshot::empty().mean(), 0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Hist::new());
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        h.record(t * 1_000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 8_000);
        assert_eq!(h.snapshot().count(), 8_000);
    }

    #[test]
    fn windows_age_out_and_lifetime_does_not() {
        let w = Windowed::new();
        // Epoch 0: one fast value.
        w.record(100, 0);
        // 30 epochs later: one slow value.
        let later = 30 * EPOCH_NS;
        w.record(1_000_000, later);
        assert_eq!(w.lifetime().count(), 2);
        let recent = w.window(later, 10_000_000_000); // last 10 s
        assert_eq!(recent.count(), 1, "epoch-0 value aged out of 10 s");
        assert_eq!(recent.max(), 1_000_000);
        let wide = w.window(later, 60_000_000_000); // last 60 s
        assert_eq!(wide.count(), 2, "both within 60 s");
    }

    #[test]
    fn stale_slot_reuse_resets_the_slice() {
        let w = Windowed::new();
        w.record(7, 0);
        // EPOCHS epochs later the same slot is reused for a new epoch.
        let reuse = EPOCHS as u64 * EPOCH_NS;
        w.record(9, reuse);
        let now = w.window(reuse, EPOCH_NS);
        assert_eq!(now.count(), 1, "old epoch's count must not leak in");
        assert_eq!(now.max(), 9);
        assert_eq!(w.lifetime().count(), 2);
    }

    #[test]
    fn window_equals_sum_of_parts() {
        // Thread-count invariance at the window level: recording a
        // sample into one Windowed vs. two and merging their windows
        // gives identical snapshots.
        let one = Windowed::new();
        let (a, b) = (Windowed::new(), Windowed::new());
        for i in 0..100u64 {
            let v = i * 997 + 13;
            let t = i * (EPOCH_NS / 50);
            one.record(v, t);
            if i % 2 == 0 {
                a.record(v, t);
            } else {
                b.record(v, t);
            }
        }
        let now = 100 * (EPOCH_NS / 50);
        for win in [10_000_000_000u64, 60_000_000_000] {
            let mut parts = a.window(now, win);
            parts.merge(&b.window(now, win));
            assert_eq!(parts, one.window(now, win));
        }
        let mut parts = a.lifetime();
        parts.merge(&b.lifetime());
        assert_eq!(parts, one.lifetime());
    }
}
