//! [`OutstandingDetector`] adapters for QuantileFilter and its variants, so
//! the eval harness can sweep all structures through one interface.

use crate::OutstandingDetector;
use qf_sketch::{CountMinSketch, CountSketch, WeightSketch};
use quantile_filter::{
    Criteria, ElectionStrategy, QuantileFilter, QuantileFilterBuilder, QweightSketch,
};

/// QuantileFilter as an [`OutstandingDetector`], with a configurable vague
/// sketch (CS default, CMS for the Fig. 12 ablation).
pub struct QfDetector<S: WeightSketch = CountSketch<i8>> {
    inner: QuantileFilter<S>,
    label: String,
}

impl QfDetector<CountSketch<i8>> {
    /// Paper-default configuration inside a byte budget: b = 6, d = 3,
    /// candidate:vague = 4:1, comparative election, CS vague part.
    pub fn paper_default(criteria: Criteria, memory_bytes: usize, seed: u64) -> Self {
        Self {
            inner: QuantileFilterBuilder::new(criteria)
                .memory_budget_bytes(memory_bytes)
                .seed(seed)
                .build(),
            label: "QuantileFilter".into(),
        }
    }

    /// Fully parameterized CS-vague variant (used by the Fig. 9–12 sweeps).
    #[allow(clippy::too_many_arguments)]
    pub fn with_params(
        criteria: Criteria,
        memory_bytes: usize,
        bucket_len: usize,
        vague_depth: usize,
        candidate_fraction: f64,
        strategy: ElectionStrategy,
        seed: u64,
    ) -> Self {
        Self {
            inner: QuantileFilterBuilder::new(criteria)
                .memory_budget_bytes(memory_bytes)
                .bucket_len(bucket_len)
                .vague_depth(vague_depth)
                .candidate_fraction(candidate_fraction)
                .strategy(strategy)
                .seed(seed)
                .build(),
            label: format!("QF({}+CS)", strategy.label()),
        }
    }
}

impl QfDetector<CountMinSketch<i32>> {
    /// CMS-vague variant for the Fig. 12 ablation.
    pub fn with_cms(
        criteria: Criteria,
        memory_bytes: usize,
        vague_depth: usize,
        candidate_fraction: f64,
        strategy: ElectionStrategy,
        seed: u64,
    ) -> Self {
        let vague_bytes = ((memory_bytes as f64 * (1.0 - candidate_fraction)) as usize).max(16);
        let sketch = CountMinSketch::with_memory_budget(vague_depth, vague_bytes, seed ^ 0x7A63);
        Self {
            inner: QuantileFilterBuilder::new(criteria)
                .memory_budget_bytes(memory_bytes)
                .candidate_fraction(candidate_fraction)
                .strategy(strategy)
                .seed(seed)
                .build_with_sketch(sketch),
            label: format!("QF({}+CMS)", strategy.label()),
        }
    }
}

impl<S: WeightSketch> QfDetector<S> {
    /// Borrow the wrapped filter.
    pub fn filter(&self) -> &QuantileFilter<S> {
        &self.inner
    }

    /// Mutable access (e.g. for dynamic criteria experiments).
    pub fn filter_mut(&mut self) -> &mut QuantileFilter<S> {
        &mut self.inner
    }
}

impl<S: WeightSketch> OutstandingDetector for QfDetector<S> {
    #[inline]
    fn insert(&mut self, key: u64, value: f64) -> bool {
        self.inner.insert(&key, value).is_some()
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }

    fn name(&self) -> String {
        self.label.clone()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// The Algorithm-1 (vague-only) estimator as a detector — quantifies what
/// candidate election adds.
pub struct Algorithm1Detector {
    inner: QweightSketch<i32>,
}

impl Algorithm1Detector {
    /// Build within a byte budget at depth `d = 3`.
    pub fn new(criteria: Criteria, memory_bytes: usize, seed: u64) -> Self {
        Self {
            inner: QweightSketch::with_memory_budget(criteria, 3, memory_bytes, seed),
        }
    }
}

impl OutstandingDetector for Algorithm1Detector {
    #[inline]
    fn insert(&mut self, key: u64, value: f64) -> bool {
        self.inner.insert(&key, value).is_some()
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }

    fn name(&self) -> String {
        "Algorithm1(CS only)".into()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactDetector;

    fn crit() -> Criteria {
        Criteria::new(5.0, 0.9, 100.0).unwrap()
    }

    #[test]
    fn qf_detector_reports_like_exact_on_hot_key() {
        let mut qf = QfDetector::paper_default(crit(), 64 * 1024, 1);
        let mut exact = ExactDetector::new(crit());
        for i in 0..100 {
            let v = if i % 2 == 0 { 500.0 } else { 5.0 };
            let a = qf.insert(42, v);
            let b = exact.insert(42, v);
            assert_eq!(a, b, "divergence at item {i}");
        }
    }

    #[test]
    fn memory_within_budget() {
        let qf = QfDetector::paper_default(crit(), 32 * 1024, 2);
        assert!(qf.memory_bytes() <= 32 * 1024);
        assert!(qf.memory_bytes() > 16 * 1024, "budget badly underused");
    }

    #[test]
    fn cms_variant_constructs_and_detects() {
        let mut qf = QfDetector::with_cms(crit(), 32 * 1024, 3, 0.8, ElectionStrategy::Forceful, 3);
        let mut reported = false;
        for _ in 0..100 {
            reported |= qf.insert(1, 500.0);
        }
        assert!(reported);
        assert!(qf.name().contains("CMS"));
    }

    #[test]
    fn algorithm1_detector_works() {
        let mut a1 = Algorithm1Detector::new(crit(), 16 * 1024, 4);
        let mut reported = false;
        for _ in 0..100 {
            reported |= a1.insert(9, 500.0);
        }
        assert!(reported);
    }
}
