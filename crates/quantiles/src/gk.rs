//! The Greenwald–Khanna ε-approximate quantile summary (SIGMOD 2001).
//!
//! GK keeps a sorted list of tuples `(v, g, Δ)` where `g` is the gap in
//! minimum rank to the previous tuple and `Δ` bounds the rank uncertainty.
//! Invariant: `g_i + Δ_i ≤ ⌊2εn⌋ + 1` for every tuple, which guarantees any
//! rank query is answered within `εn`.
//!
//! This is the summary SQUAD attaches to each tracked heavy key, and the
//! paper's canonical example of an *offline query* structure: every query
//! walks/binary-searches the summary (§II-B footnote 2), which is what makes
//! the per-item detect loop of the SQUAD baseline slow compared to
//! QuantileFilter's O(1) test.

/// Clamp a quantile argument into `[0, 1)` the way Definition 2 requires.
#[inline]
fn clamp_q(q: f64) -> f64 {
    if q < 0.0 {
        0.0
    } else if q >= 1.0 {
        0.999_999_999
    } else {
        q
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    value: f64,
    /// Gap between this tuple's min-rank and the previous tuple's min-rank.
    g: u64,
    /// Rank uncertainty: max-rank = min-rank + delta.
    delta: u64,
}

/// A GK quantile summary with target rank error `epsilon`.
#[derive(Debug, Clone)]
pub struct GkSummary {
    entries: Vec<Entry>,
    epsilon: f64,
    count: u64,
    inserts_since_compress: u64,
}

impl GkSummary {
    /// Create a summary that answers quantile queries within `epsilon·n`
    /// rank error.
    ///
    /// # Panics
    /// Panics unless `0 < epsilon < 1`.
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0,1)");
        Self {
            entries: Vec::new(),
            epsilon,
            count: 0,
            inserts_since_compress: 0,
        }
    }

    /// The configured rank-error parameter.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of stored tuples (the space the structure actually uses).
    pub fn tuple_count(&self) -> usize {
        self.entries.len()
    }

    /// Insert one observation.
    pub fn insert(&mut self, value: f64) {
        debug_assert!(!value.is_nan());
        self.count += 1;
        // Find the first entry with entry.value > value.
        let pos = self.entries.partition_point(|e| e.value <= value);
        let delta = if pos == 0 || pos == self.entries.len() {
            // New minimum or maximum: exact rank.
            0
        } else {
            self.threshold().saturating_sub(1)
        };
        self.entries.insert(pos, Entry { value, g: 1, delta });
        self.inserts_since_compress += 1;
        // Compress every ⌈1/(2ε)⌉ inserts as in the original algorithm.
        let period = (1.0 / (2.0 * self.epsilon)).ceil() as u64;
        if self.inserts_since_compress >= period {
            self.compress();
            self.inserts_since_compress = 0;
        }
    }

    /// Number of observations inserted.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Approximate `q`-quantile (`q ∈ [0, 1)`), or `None` if empty.
    ///
    /// Follows the paper's Definition 2: the item whose rank is `⌊q·n⌋`
    /// in the sorted order, within `εn`.
    pub fn query(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        // Definition 2 uses 0-based ⌊q·n⌋; GK ranks are 1-based.
        let rank = (clamp_q(q) * self.count as f64).floor() as u64 + 1;
        self.query_rank(rank.min(self.count))
    }

    /// Reset to empty.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.count = 0;
        self.inserts_since_compress = 0;
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.entries.capacity() * core::mem::size_of::<Entry>()
    }

    #[inline]
    fn threshold(&self) -> u64 {
        (2.0 * self.epsilon * self.count as f64).floor() as u64
    }

    /// Merge tuples whose combined uncertainty still satisfies the GK
    /// invariant. Runs right-to-left as in the original paper.
    fn compress(&mut self) {
        if self.entries.len() < 3 {
            return;
        }
        let limit = self.threshold();
        let mut i = self.entries.len() - 2;
        // Never merge into the first or remove the last tuple: min and max
        // must stay exact.
        while i >= 1 {
            let merged_g = self.entries[i].g + self.entries[i + 1].g;
            if merged_g + self.entries[i + 1].delta <= limit {
                self.entries[i + 1].g = merged_g;
                self.entries.remove(i);
            }
            if i == 0 {
                break;
            }
            i -= 1;
        }
    }

    /// Rank query: the value whose min/max rank brackets `rank` (1-based)
    /// within `εn`.
    fn query_rank(&self, rank: u64) -> Option<f64> {
        if self.entries.is_empty() {
            return None;
        }
        let slack = self.epsilon * self.count as f64;
        let mut r_min = 0u64;
        for i in 0..self.entries.len() - 1 {
            r_min += self.entries[i].g;
            let next_r_max = r_min + self.entries[i + 1].g + self.entries[i + 1].delta;
            if next_r_max as f64 > rank as f64 + slack {
                return Some(self.entries[i].value);
            }
        }
        self.entries.last().map(|e| e.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank_of(sorted: &[f64], v: f64) -> (usize, usize) {
        let lo = sorted.partition_point(|&x| x < v);
        let hi = sorted.partition_point(|&x| x <= v);
        (lo, hi)
    }

    /// Check that for all tested quantiles the returned value's true rank is
    /// within eps*n + 1 of the target rank.
    fn assert_rank_error_bounded(values: &mut [f64], gk: &GkSummary, eps: f64) {
        values.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        let n = values.len() as f64;
        for &q in &[0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99] {
            let est = gk.query(q).unwrap();
            let target = (q * n).floor();
            let (lo, hi) = rank_of(values, est);
            let err = if (lo as f64) > target {
                lo as f64 - target
            } else if (hi as f64) < target {
                target - hi as f64
            } else {
                0.0
            };
            assert!(
                err <= eps * n + 1.0,
                "q={q}: rank err {err} > {} (n={n})",
                eps * n + 1.0
            );
        }
    }

    #[test]
    fn clamp_q_bounds() {
        assert_eq!(clamp_q(-0.5), 0.0);
        assert_eq!(clamp_q(0.5), 0.5);
        assert!(clamp_q(1.0) < 1.0);
    }

    #[test]
    fn exact_for_tiny_streams() {
        let mut gk = GkSummary::new(0.01);
        for v in [5.0, 1.0, 9.0] {
            gk.insert(v);
        }
        // {1,5,9}: 0.5-quantile is 5.
        assert_eq!(gk.query(0.5), Some(5.0));
        assert_eq!(gk.query(0.0), Some(1.0));
    }

    #[test]
    fn sorted_input_error_bounded() {
        let eps = 0.01;
        let mut gk = GkSummary::new(eps);
        let mut values: Vec<f64> = (0..20_000).map(f64::from).collect();
        for &v in &values {
            gk.insert(v);
        }
        assert_rank_error_bounded(&mut values, &gk, eps);
    }

    #[test]
    fn reverse_sorted_input_error_bounded() {
        let eps = 0.02;
        let mut gk = GkSummary::new(eps);
        let mut values: Vec<f64> = (0..10_000).rev().map(f64::from).collect();
        for &v in &values {
            gk.insert(v);
        }
        assert_rank_error_bounded(&mut values, &gk, eps);
    }

    #[test]
    fn shuffled_input_error_bounded() {
        use rand::prelude::*;
        let eps = 0.01;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut values: Vec<f64> = (0..30_000).map(f64::from).collect();
        values.shuffle(&mut rng);
        let mut gk = GkSummary::new(eps);
        for &v in &values {
            gk.insert(v);
        }
        assert_rank_error_bounded(&mut values, &gk, eps);
    }

    #[test]
    fn space_is_sublinear() {
        let mut gk = GkSummary::new(0.01);
        for v in 0..100_000 {
            gk.insert(f64::from(v));
        }
        // GK guarantees O((1/ε)·log(εn)) tuples; with ε = 0.01 and n = 1e5
        // the summary must be far below n.
        assert!(
            gk.tuple_count() < 5_000,
            "summary kept {} tuples",
            gk.tuple_count()
        );
    }

    #[test]
    fn duplicates_handled() {
        let eps = 0.05;
        let mut gk = GkSummary::new(eps);
        let mut values = vec![];
        for i in 0..5000 {
            let v = f64::from(i % 10);
            gk.insert(v);
            values.push(v);
        }
        assert_rank_error_bounded(&mut values, &gk, eps);
    }

    #[test]
    fn clear_resets() {
        let mut gk = GkSummary::new(0.1);
        gk.insert(1.0);
        gk.clear();
        assert_eq!(gk.count(), 0);
        assert_eq!(gk.query(0.5), None);
    }

    #[test]
    fn min_max_always_exact() {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut gk = GkSummary::new(0.02);
        let mut lo = f64::MAX;
        let mut hi = f64::MIN;
        for _ in 0..10_000 {
            let v: f64 = rng.gen_range(-1000.0..1000.0);
            gk.insert(v);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        assert_eq!(gk.query(0.0), Some(lo));
        // The max is reachable at q→1.
        assert_eq!(gk.query(0.999_999_9), Some(hi));
    }

    #[test]
    #[should_panic(expected = "epsilon must be")]
    fn invalid_epsilon_rejected() {
        let _ = GkSummary::new(0.0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        #[test]
        fn prop_rank_error_within_bound(values in proptest::collection::vec(-1e4f64..1e4, 100..2000)) {
            let eps = 0.05;
            let mut gk = GkSummary::new(eps);
            for &v in &values {
                gk.insert(v);
            }
            let mut sorted = values.clone();
            assert_rank_error_bounded(&mut sorted, &gk, eps);
        }
    }
}
