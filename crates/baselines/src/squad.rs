//! SQUAD-style detector: heavy-hitter tracking + per-key quantile
//! summaries (after Shahout, Friedman & Ben Basat, "Together is Better:
//! Heavy Hitters Quantile Estimation", SIGMOD 2023).
//!
//! Mechanism reproduced: a [`qf_sketch::SpaceSaving`] table identifies the
//! heavy keys; each tracked key carries a GK summary of its values.
//! Answering the online detection task then requires querying the GK
//! summary after every insert — a binary-search "offline query" per item,
//! the cost the paper's §V-C throughput comparison highlights. Accuracy
//! converges to 100% as memory admits more tracked keys (Fig. 4/5
//! behaviour); untracked (cold) keys are invisible, which bounds recall at
//! small memory.

use crate::OutstandingDetector;
use qf_quantiles::GkSummary;
use qf_sketch::SpaceSaving;
use quantile_filter::Criteria;
use std::collections::HashMap;

/// Estimated steady-state bytes per tracked key (SpaceSaving entry + GK
/// summary); used to derive capacity from a byte budget.
const EST_BYTES_PER_KEY: usize = 512;

/// GK rank-error parameter for the per-key summaries.
const GK_EPSILON: f64 = 0.01;

/// SQUAD-style detector.
pub struct SquadDetector {
    criteria: Criteria,
    heavy: SpaceSaving,
    summaries: HashMap<u64, GkSummary>,
}

impl SquadDetector {
    /// Build with a byte budget; the budget determines how many keys can be
    /// tracked.
    pub fn new(criteria: Criteria, memory_bytes: usize, _seed: u64) -> Self {
        let capacity = (memory_bytes / EST_BYTES_PER_KEY).max(1);
        Self {
            criteria,
            heavy: SpaceSaving::new(capacity),
            summaries: HashMap::with_capacity(capacity),
        }
    }

    /// Number of currently tracked keys.
    pub fn tracked_keys(&self) -> usize {
        self.heavy.len()
    }

    /// SpaceSaving count over-estimation bound for a tracked key.
    pub fn count_error(&self, key: u64) -> Option<u64> {
        self.heavy.estimate(key).map(|e| e.err)
    }
}

impl OutstandingDetector for SquadDetector {
    fn insert(&mut self, key: u64, value: f64) -> bool {
        // Heavy-hitter admission: an eviction drops the victim's summary.
        if let Some(victim) = self.heavy.observe(key) {
            self.summaries.remove(&victim);
        }
        let summary = self
            .summaries
            .entry(key)
            .or_insert_with(|| GkSummary::new(GK_EPSILON));
        summary.insert(value);

        // The per-item "online" answer requires an offline-style GK query:
        // the (ε, δ)-quantile of the summary vs T.
        let n = summary.count();
        if n == 0 {
            return false;
        }
        let idx = (self.criteria.delta() * n as f64 - self.criteria.epsilon()).floor();
        if idx < 0.0 {
            return false;
        }
        let q = idx / n as f64;
        match summary.query(q) {
            Some(v) if v > self.criteria.threshold() => {
                // Report and reset the value set (Definition 4); the
                // SpaceSaving frequency is retained so the key stays hot.
                summary.clear();
                true
            }
            _ => false,
        }
    }

    fn memory_bytes(&self) -> usize {
        self.heavy.memory_bytes()
            + self
                .summaries
                .values()
                .map(|s| 8 + s.memory_bytes() + 16)
                .sum::<usize>()
    }

    fn name(&self) -> String {
        "SQUAD".into()
    }

    fn reset(&mut self) {
        self.heavy.clear();
        self.summaries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crit() -> Criteria {
        Criteria::new(5.0, 0.9, 100.0).unwrap()
    }

    #[test]
    fn tracked_hot_key_detected() {
        let mut d = SquadDetector::new(crit(), 256 * 1024, 1);
        let mut reported = false;
        for _ in 0..100 {
            reported |= d.insert(1, 500.0);
        }
        assert!(reported);
    }

    #[test]
    fn quiet_key_not_reported() {
        let mut d = SquadDetector::new(crit(), 256 * 1024, 2);
        for _ in 0..500 {
            assert!(!d.insert(2, 5.0));
        }
    }

    #[test]
    fn report_timing_close_to_exact() {
        // With only above-T values the first report should come at item 6
        // (⌊0.9n − 5⌋ ≥ 0 ⇒ n = 6), exactly as the exact detector.
        let mut d = SquadDetector::new(crit(), 256 * 1024, 3);
        let mut first = None;
        for i in 1..=10 {
            if d.insert(3, 500.0) && first.is_none() {
                first = Some(i);
            }
        }
        assert_eq!(first, Some(6));
    }

    #[test]
    fn capacity_evicts_cold_keys() {
        let c = crit();
        let mut d = SquadDetector::new(c, 2 * EST_BYTES_PER_KEY, 4); // capacity 2
        d.insert(1, 5.0);
        d.insert(2, 5.0);
        d.insert(3, 5.0); // evicts one of the first two
        assert_eq!(d.tracked_keys(), 2);
        // Evicted summaries are dropped with their keys.
        assert_eq!(d.summaries.len(), 2);
    }

    #[test]
    fn small_memory_misses_spread_keys() {
        // 1 tracked key; alternate two hot outstanding keys — SpaceSaving
        // churn must cost detections relative to ample memory.
        let c = crit();
        let mut small = SquadDetector::new(c, EST_BYTES_PER_KEY, 5);
        let mut big = SquadDetector::new(c, 64 * EST_BYTES_PER_KEY, 5);
        let mut small_reports = 0;
        let mut big_reports = 0;
        for i in 0..200 {
            let key = (i % 2) as u64;
            if small.insert(key, 500.0) {
                small_reports += 1;
            }
            if big.insert(key, 500.0) {
                big_reports += 1;
            }
        }
        assert!(
            big_reports > small_reports,
            "big {big_reports} vs small {small_reports}"
        );
    }

    #[test]
    fn memory_reporting_grows_with_keys() {
        let mut d = SquadDetector::new(crit(), 1024 * 1024, 6);
        let empty = d.memory_bytes();
        for k in 0..100 {
            for _ in 0..20 {
                d.insert(k, 50.0);
            }
        }
        assert!(d.memory_bytes() > empty);
        d.reset();
        assert_eq!(d.tracked_keys(), 0);
    }

    #[test]
    fn count_error_exposed() {
        let mut d = SquadDetector::new(crit(), EST_BYTES_PER_KEY, 7); // capacity 1
        d.insert(1, 5.0);
        d.insert(1, 5.0);
        d.insert(2, 5.0); // evicts key 1, inherits err = 2
        assert_eq!(d.count_error(2), Some(2));
        assert_eq!(d.count_error(1), None);
    }
}
