//! Percentile, rate and digest arithmetic.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Operations a timed phase completes at least, so that p90 has
/// [`MIN_TAIL`] samples beyond it.
pub const MIN_OPS: usize = 100;

/// The `q`-quantile (`0 < q < 1`) of `samples` by the nearest-rank rule
/// (the `ceil(q·n)`-th smallest value), or `None` when fewer than
/// [`MIN_TAIL`] samples lie beyond that rank.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile must lie in (0, 1)");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_TAIL {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Completed operations per second of wall time.
pub fn rate(ops: usize, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        return 0.0;
    }
    ops as f64 / seconds
}

/// `num / den`, or 0 for an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over a sequence of `u64` words: the digest of per-op cost
/// bits two runs compare exactly.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank ceil(0.5·100) = 50, ceil(0.9·100) = 90.
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        // Order of the input does not matter.
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 0.9), Some(90.0));
    }

    #[test]
    fn tail_rule_needs_ten_beyond_p90() {
        // 100 samples leave exactly 10 beyond p90; 99 leave 9.
        let ok: Vec<f64> = (0..MIN_OPS).map(|i| i as f64).collect();
        assert_eq!(percentile(&ok, 0.9), Some(89.0));
        assert_eq!(percentile(&ok[..MIN_OPS - 1], 0.9), None);
        // p50 needs far fewer samples.
        assert_eq!(percentile(&ok[..21], 0.5), Some(10.0));
        assert_eq!(percentile(&ok[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_and_rate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(rate(250, 2.5), 100.0);
        assert_eq!(rate(5, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.push(1);
        a.push(2);
        let mut b = Digest::default();
        b.push(2);
        b.push(1);
        assert_ne!(a.hex(), b.hex());
        let mut c = Digest::default();
        c.push(1);
        c.push(2);
        assert_eq!(a.hex(), c.hex());
    }
}
