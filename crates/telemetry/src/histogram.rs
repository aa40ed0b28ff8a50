//! A from-scratch log-bucketed latency histogram (HDR-style).
//!
//! Values (nanoseconds, byte sizes, …) are binned into buckets whose width
//! grows geometrically: each power-of-two octave is split into
//! `2^SUB_BITS = 4` linear sub-buckets, so any recorded value lands in a
//! bucket whose span is at most 25% of its lower bound. Quantile queries
//! walk the bucket counts and return the bucket's *upper* bound, which
//! makes every reported quantile a tight upper bound on the true order
//! statistic: the true value lies in the same bucket, i.e. within one
//! log-bucket (≤ 25% relative error) below the estimate.
//!
//! The recording path is three relaxed atomic operations (bucket count,
//! running sum, running max) and is safe to share across threads with `&`
//! access. 252 buckets cover the full `u64` range, so a histogram is a
//! fixed 2 KiB of counters — cheap enough to embed one per metric in a
//! process-wide registry.
//!
//! Histograms are mergeable: bucket-wise addition is exact, associative
//! and commutative, so per-shard histograms can be combined into a fleet
//! view without any loss beyond the shared bucket resolution.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: each power-of-two octave has `2^SUB_BITS`
/// linear sub-buckets (4 ⇒ ≤ 25% relative bucket width).
pub const SUB_BITS: u32 = 2;
/// Number of sub-buckets per octave.
pub const SUB: usize = 1 << SUB_BITS;
/// Total bucket count: indexes 0..SUB are exact small values, then
/// `(63 − SUB_BITS + 1) · SUB` log buckets; 252 for SUB_BITS = 2.
pub const NUM_BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// The bucket index a value falls into.
#[inline(always)]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // v ∈ [2^msb, 2^(msb+1))
    let shift = msb - SUB_BITS;
    let sub = ((v >> shift) as usize) & (SUB - 1);
    (msb as usize - SUB_BITS as usize + 1) * SUB + sub
}

/// The largest value stored in bucket `i` — what quantile queries report.
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    let msb = (i / SUB) as u32 + SUB_BITS - 1;
    let sub = (i % SUB) as u64;
    let lo = (SUB as u64 + sub) << (msb - SUB_BITS);
    // The top sub-bucket of the 2^63 octave ends exactly at u64::MAX.
    lo.saturating_add((1u64 << (msb - SUB_BITS)) - 1)
}

/// A concurrent log-bucketed histogram. Record with `&self`; snapshot at
/// any time for quantiles, export, merging, or per-run deltas.
#[derive(Debug)]
pub struct LogHistogram {
    // sync: counter — relaxed per-bucket tallies; snapshots are
    // point-in-time-ish by contract (module docs).
    buckets: [AtomicU64; NUM_BUCKETS],
    // sync: counter — relaxed running sum, same contract as `buckets`.
    sum: AtomicU64,
    // sync: counter — relaxed running max (`fetch_max`).
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// A fresh empty histogram (usable in `static` initializers).
    pub const fn new() -> Self {
        // The standard const-array-init idiom: each use of ZERO is a
        // distinct fresh atomic, which is exactly what we want here.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Self {
            buckets: [ZERO; NUM_BUCKETS],
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value (three relaxed atomic ops).
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Consistent-enough point-in-time copy of the counters.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Quantile `q ∈ [0, 1]` as an upper bound (see module docs).
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }

    /// Fold another histogram's snapshot into this one (shard merging).
    pub fn absorb(&self, other: &HistogramSnapshot) {
        for (mine, &theirs) in self.buckets.iter().zip(&other.buckets) {
            if theirs != 0 {
                mine.fetch_add(theirs, Ordering::Relaxed);
            }
        }
        self.sum.fetch_add(other.sum, Ordering::Relaxed);
        self.max.fetch_max(other.max, Ordering::Relaxed);
    }
}

/// A plain (non-atomic) copy of a histogram's state: the unit of export,
/// merging, and per-run delta computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts, indexed by [`bucket_index`].
    pub buckets: Vec<u64>,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn empty() -> Self {
        Self {
            buckets: vec![0; NUM_BUCKETS],
            sum: 0,
            max: 0,
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Quantile `q ∈ [0, 1]` by nearest-rank over the bucket counts,
    /// reported as the containing bucket's upper bound. For `q = 1.0` the
    /// exact running max is returned instead.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Never report past the observed max (the top bucket's
                // upper bound can exceed it by up to 25%).
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Exact bucket-wise merge: associative and commutative. Sums use
    /// saturating addition, which keeps associativity (`min(total, MAX)`
    /// regardless of grouping) even for pathological value streams.
    pub fn merge(&self, other: &Self) -> Self {
        Self {
            buckets: self
                .buckets
                .iter()
                .zip(&other.buckets)
                .map(|(a, b)| a.saturating_add(*b))
                .collect(),
            sum: self.sum.saturating_add(other.sum),
            max: self.max.max(other.max),
        }
    }

    /// What happened since `before` was captured from the same histogram.
    /// Counts and sums subtract exactly (they are monotone); `max` cannot
    /// be un-merged, so the later (cumulative) max is kept as an upper
    /// bound for the interval.
    pub fn delta_since(&self, before: &Self) -> Self {
        Self {
            buckets: self
                .buckets
                .iter()
                .zip(&before.buckets)
                .map(|(now, b4)| now.saturating_sub(*b4))
                .collect(),
            sum: self.sum.saturating_sub(before.sum),
            max: self.max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper(v as usize), v);
        }
    }

    #[test]
    fn bucket_bounds_are_consistent() {
        // Every value maps to a bucket whose upper bound maps back to the
        // same bucket and is ≥ the value; the bucket below is < the value.
        for &v in &[4u64, 5, 7, 8, 100, 999, 1_000_000, u64::MAX / 3, u64::MAX] {
            let i = bucket_index(v);
            assert!(i < NUM_BUCKETS, "index {i} for {v}");
            let hi = bucket_upper(i);
            assert!(hi >= v, "upper {hi} < value {v}");
            assert_eq!(bucket_index(hi), i, "upper bound left the bucket");
            if i > 0 {
                assert!(bucket_upper(i - 1) < v);
            }
        }
    }

    #[test]
    fn bucket_width_within_25_percent() {
        for i in SUB..NUM_BUCKETS - SUB {
            let hi = bucket_upper(i);
            let lo = bucket_upper(i - 1).saturating_add(1);
            let width = hi - lo + 1;
            assert!(
                (width as f64) <= 0.25 * lo as f64 + 1.0,
                "bucket {i}: [{lo}, {hi}] too wide"
            );
        }
    }

    #[test]
    fn quantiles_of_known_distribution() {
        let h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        // Upper-bound semantics: estimate ≥ true, within one bucket.
        assert!((500..=639).contains(&p50), "p50 {p50}");
        assert!((990..=1000).contains(&p99), "p99 {p99}");
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(h.snapshot().count(), 1000);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.snapshot().mean(), 0.0);
    }

    #[test]
    fn absorb_merges_shards() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        for v in 0..100u64 {
            a.record(v);
            b.record(v * 1000);
        }
        a.absorb(&b.snapshot());
        assert_eq!(a.count(), 200);
        assert_eq!(a.snapshot().max, 99_000);
    }

    #[test]
    fn delta_since_isolates_a_run() {
        let h = LogHistogram::new();
        h.record(10);
        h.record(20);
        let before = h.snapshot();
        h.record(1000);
        let d = h.snapshot().delta_since(&before);
        assert_eq!(d.count(), 1);
        assert_eq!(d.sum, 1000);
        assert_eq!(d.quantile(0.5), 1000);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        // Unit form of the property: three concrete snapshots.
        let mk = |vals: &[u64]| {
            let h = LogHistogram::new();
            for &v in vals {
                h.record(v);
            }
            h.snapshot()
        };
        let a = mk(&[1, 2, 3, 1000]);
        let b = mk(&[7, 7, 7]);
        let c = mk(&[u64::MAX, 0]);
        assert_eq!(a.merge(&b.merge(&c)), a.merge(&b).merge(&c));
        assert_eq!(a.merge(&b), b.merge(&a));
    }

    fn true_nearest_rank(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    proptest::proptest! {
        #[test]
        fn prop_index_roundtrip(v in 0u64..u64::MAX) {
            let i = bucket_index(v);
            proptest::prop_assert!(i < NUM_BUCKETS);
            proptest::prop_assert!(bucket_upper(i) >= v);
            proptest::prop_assert_eq!(bucket_index(bucket_upper(i)), i);
        }

        #[test]
        fn prop_quantile_bounds_true_quantile_within_one_bucket(
            mut vals in proptest::collection::vec(0u64..1_000_000_000, 1..400),
            qs in proptest::collection::vec(0.01f64..1.0, 1..6),
        ) {
            let h = LogHistogram::new();
            for &v in &vals {
                h.record(v);
            }
            vals.sort_unstable();
            for &q in &qs {
                let est = h.quantile(q);
                let truth = true_nearest_rank(&vals, q);
                // The estimate is an upper bound on the true quantile…
                proptest::prop_assert!(est >= truth, "q={q}: est {est} < true {truth}");
                // …and lives in the true quantile's own log-bucket, i.e.
                // within one bucket (≤ 25% relative error).
                proptest::prop_assert_eq!(
                    bucket_index(est),
                    bucket_index(truth),
                    "q={q}: est {est} not in true bucket of {truth}"
                );
            }
        }

        #[test]
        fn prop_merge_associative(
            xs in proptest::collection::vec(0u64..u64::MAX, 0..50),
            ys in proptest::collection::vec(0u64..u64::MAX, 0..50),
            zs in proptest::collection::vec(0u64..u64::MAX, 0..50),
        ) {
            let mk = |vals: &[u64]| {
                let h = LogHistogram::new();
                for &v in vals {
                    // Keep sums away from u64 overflow across three merges.
                    h.record(v >> 2);
                }
                h.snapshot()
            };
            let (a, b, c) = (mk(&xs), mk(&ys), mk(&zs));
            proptest::prop_assert_eq!(a.merge(&b.merge(&c)), a.merge(&b).merge(&c));
            proptest::prop_assert_eq!(a.merge(&b), b.merge(&a));
        }
    }
}
