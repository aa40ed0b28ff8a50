//! Order statistics for the benchmark's timings.

/// Percentiles the benchmark may quote as a timing's tail, lowest first.
pub const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
/// The tolerance keeps float error in `p / 100 · n` (99.9% of 10 000 is
/// 9990.000000000002) from moving the rank up by one.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest percentile of [`TAIL_LADDER`] that has at least ten samples
/// beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n > 0 && n - rank(p, n) >= 10)
}

/// Nearest-rank percentile `p` (0–100] of `sorted` (ascending); 0 if empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(p, sorted.len()) - 1]
}

/// Median of `values` (sorts them); 0 if empty.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// A log-linear histogram of nanosecond values with ~3% resolution, for
/// timings recorded once per item (too many to keep individually).
#[derive(Debug, Clone)]
pub struct LogHist {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;

impl Default for LogHist {
    fn default() -> Self {
        Self {
            counts: vec![0; (SUB * 64) as usize],
            total: 0,
            max: 0,
        }
    }
}

impl LogHist {
    fn bucket(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros();
        let mantissa = (v >> (exp - SUB_BITS)) & (SUB - 1);
        ((u64::from(exp - SUB_BITS + 1) << SUB_BITS) + mantissa) as usize
    }

    /// Smallest value that lands in bucket `b`.
    fn lower_bound(b: usize) -> u64 {
        let b = b as u64;
        if b < SUB {
            return b;
        }
        let exp = (b >> SUB_BITS) + u64::from(SUB_BITS) - 1;
        (SUB | (b & (SUB - 1))) << (exp - u64::from(SUB_BITS))
    }

    /// Record `count` samples of value `v`.
    pub fn record(&mut self, v: u64, count: u64) {
        self.counts[Self::bucket(v)] += count;
        self.total += count;
        self.max = self.max.max(v);
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &LogHist) {
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Largest value recorded.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Nearest-rank percentile `p`, reported as its bucket's lower bound.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let want = rank(p, self.total as usize) as u64;
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= want {
                return Self::lower_bound(b);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(66_340), Some(99.9));
        assert_eq!(tail_percentile(1_000_000), Some(99.999));
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond_it() {
        for n in 1..5_000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n - rank(p, n) >= 10, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn histogram_buckets_are_ordered_and_tight() {
        let mut last = 0;
        for v in (0..1_000_000u64).step_by(7) {
            let b = LogHist::bucket(v);
            assert!(b >= last);
            last = b;
            let lo = LogHist::lower_bound(b);
            assert!(lo <= v && v - lo <= v / 16, "v={v} lo={lo}");
        }
        let mut h = LogHist::default();
        for v in 1..=1000 {
            h.record(v * 1000, 1);
        }
        let p99 = h.percentile(99.0) as f64;
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 0.04, "{p99}");
        assert_eq!(h.max(), 1_000_000);
        assert_eq!(h.total(), 1000);
    }
}
