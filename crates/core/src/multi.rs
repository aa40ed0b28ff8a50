//! Multi-criteria monitoring (§III-C third flexibility): watch one key
//! under several `⟨ε, δ, T⟩` criteria at once.
//!
//! One Qweight cannot serve two criteria (unless only ε differs), so the
//! paper forms composite keys: data key × criterion number. A key with `r`
//! criteria becomes `r` logical keys and `r` inserts; "the overhead of this
//! scheme increases with r, but it performs well when r is small."

use crate::criteria::Criteria;
use crate::error::QfError;
use crate::filter::{QuantileFilter, Report};
use qf_hash::StreamKey;
use qf_sketch::WeightSketch;

/// A QuantileFilter wrapper that monitors every key under a fixed list of
/// criteria simultaneously.
#[derive(Debug, Clone)]
pub struct MultiCriteriaFilter<S: WeightSketch> {
    filter: QuantileFilter<S>,
    criteria: Vec<Criteria>,
}

impl<S: WeightSketch> MultiCriteriaFilter<S> {
    /// Wrap a filter with the criteria set to monitor, or a typed error if
    /// `criteria` is empty.
    pub fn try_new(filter: QuantileFilter<S>, criteria: Vec<Criteria>) -> Result<Self, QfError> {
        if criteria.is_empty() {
            return Err(QfError::InvalidConfig {
                reason: "need at least one criterion".into(),
            });
        }
        Ok(Self { filter, criteria })
    }

    /// Wrap a filter with the criteria set to monitor.
    ///
    /// # Panics
    /// Panics if `criteria` is empty.
    pub fn new(filter: QuantileFilter<S>, criteria: Vec<Criteria>) -> Self {
        match Self::try_new(filter, criteria) {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        }
    }

    /// The number of criteria `r`.
    pub fn criteria_count(&self) -> usize {
        self.criteria.len()
    }

    /// The monitored criteria.
    pub fn criteria(&self) -> &[Criteria] {
        &self.criteria
    }

    /// Insert an item, streaming every `(criterion index, report)` pair
    /// that fired into `sink` — the allocation-free primary path,
    /// matching the caller-supplied-sink shape of
    /// [`QuantileFilter::insert_batch`]. Performs `r` composite-key
    /// inserts; non-finite
    /// values are dropped (as in [`QuantileFilter::insert`]).
    ///
    /// An earlier version cloned the whole criteria `Vec` *and* allocated
    /// a fresh result `Vec` on every insert; indexed criteria copies
    /// (`Criteria` is `Copy`) and the sink remove both from the per-item
    /// path, which QF-L002 now holds to the hot-path standard.
    pub fn insert_into<K: StreamKey>(
        &mut self,
        key: &K,
        value: f64,
        sink: &mut impl FnMut(usize, Report),
    ) {
        if !value.is_finite() {
            return;
        }
        for idx in 0..self.criteria.len() {
            let c = self.criteria[idx];
            let composite = (key, idx as u32);
            if let Some(report) = self.filter.insert_with_criteria(&composite, value, &c) {
                sink(idx, report);
            }
        }
    }

    /// Insert an item and collect the fired `(criterion index, report)`
    /// pairs into a fresh `Vec` — a thin compatibility wrapper over
    /// [`Self::insert_into`] for callers that prefer the allocating
    /// shape; hot loops should pass their own sink instead.
    pub fn insert<K: StreamKey>(&mut self, key: &K, value: f64) -> Vec<(usize, Report)> {
        let mut out = Vec::new();
        self.insert_into(key, value, &mut |idx, report| out.push((idx, report)));
        out
    }

    /// Query the Qweight of a key under one criterion.
    pub fn query<K: StreamKey>(&self, key: &K, criterion: usize) -> i64 {
        self.filter.query(&(key, criterion as u32))
    }

    /// Delete a key's state under every criterion.
    pub fn delete<K: StreamKey>(&mut self, key: &K) {
        for idx in 0..self.criteria.len() {
            self.filter.delete(&(key, idx as u32));
        }
    }

    /// Total charged memory.
    pub fn memory_bytes(&self) -> usize {
        self.filter.memory_bytes()
    }

    /// Borrow the wrapped filter.
    pub fn inner(&self) -> &QuantileFilter<S> {
        &self.filter
    }
}

impl<S> qf_sketch::invariants::CheckInvariants for MultiCriteriaFilter<S>
where
    S: WeightSketch + qf_sketch::invariants::CheckInvariants,
{
    /// Audit the criteria list (never empty — enforced at construction)
    /// and the wrapped filter.
    fn check_invariants(&self) -> Result<(), qf_sketch::invariants::InvariantViolation> {
        use qf_sketch::invariants::InvariantViolation as V;
        if self.criteria.is_empty() {
            return Err(V::new("MultiCriteriaFilter", "criteria list is empty"));
        }
        self.filter.check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QuantileFilterBuilder;
    use qf_sketch::CountSketch;

    fn multi() -> MultiCriteriaFilter<CountSketch<i8>> {
        let filter = QuantileFilterBuilder::new(Criteria::default())
            .candidate_buckets(128)
            .vague_dims(3, 1024)
            .seed(3)
            .build();
        // Criterion 0: p90 > 100 with ε = 5 (threshold 50, +9/−1).
        // Criterion 1: p50 > 400 with ε = 3 (threshold 6, +1/−1).
        MultiCriteriaFilter::new(
            filter,
            vec![
                Criteria::new(5.0, 0.9, 100.0).unwrap(),
                Criteria::new(3.0, 0.5, 400.0).unwrap(),
            ],
        )
    }

    #[test]
    fn criteria_fire_independently() {
        let mut m = multi();
        // Values of 200: above criterion 0's T (100) but below criterion
        // 1's T (400) — only criterion 0 should ever fire.
        let mut fired = [0usize; 2];
        for _ in 0..50 {
            for (idx, _) in m.insert(&1u64, 200.0) {
                fired[idx] += 1;
            }
        }
        assert!(fired[0] > 0, "criterion 0 must fire");
        assert_eq!(fired[1], 0, "criterion 1 must not fire");
    }

    #[test]
    fn both_fire_on_extreme_values() {
        let mut m = multi();
        let mut fired = [0usize; 2];
        for _ in 0..50 {
            for (idx, _) in m.insert(&2u64, 500.0) {
                fired[idx] += 1;
            }
        }
        assert!(fired[0] > 0);
        assert!(fired[1] > 0);
    }

    #[test]
    fn per_criterion_state_is_separate() {
        let mut m = multi();
        for _ in 0..3 {
            m.insert(&3u64, 200.0);
        }
        // Criterion 0 accumulated +9·3 = 27; criterion 1 accumulated −3.
        assert_eq!(m.query(&3u64, 0), 27);
        assert_eq!(m.query(&3u64, 1), -3);
    }

    #[test]
    fn delete_clears_all_criteria() {
        let mut m = multi();
        for _ in 0..3 {
            m.insert(&4u64, 500.0);
        }
        m.delete(&4u64);
        assert_eq!(m.query(&4u64, 0), 0);
        assert_eq!(m.query(&4u64, 1), 0);
    }

    #[test]
    fn insert_into_matches_allocating_wrapper() {
        // Two identically-seeded filters, one driven through the sink
        // path and one through the wrapper: report-for-report identical.
        let mut a = multi();
        let mut b = multi();
        for round in 0..200u64 {
            let key = round % 7;
            let value = if round % 3 == 0 { 500.0 } else { 200.0 };
            let mut via_sink = Vec::new();
            a.insert_into(&key, value, &mut |idx, report| via_sink.push((idx, report)));
            let via_wrapper = b.insert(&key, value);
            assert_eq!(via_sink, via_wrapper, "round {round}");
        }
    }

    #[test]
    fn non_finite_values_hit_no_criterion() {
        let mut m = multi();
        let mut fired = 0usize;
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            m.insert_into(&9u64, bad, &mut |_, _| fired += 1);
        }
        assert_eq!(fired, 0);
        assert_eq!(m.query(&9u64, 0), 0, "state untouched by dropped values");
    }

    #[test]
    #[should_panic(expected = "at least one criterion")]
    fn empty_criteria_rejected() {
        let filter = QuantileFilterBuilder::new(Criteria::default())
            .candidate_buckets(4)
            .vague_dims(2, 64)
            .build();
        let _ = MultiCriteriaFilter::new(filter, vec![]);
    }
}
