//! The `QfMetrics` registry: the process-wide latency histograms, as one
//! statically-allocated struct.
//!
//! A field-per-metric struct (rather than a name → metric hash map) keeps
//! recording free of lookups: a recording call site is a
//! [`LogHistogram::record`] on a fixed address. The process-wide instance
//! from [`global()`] is what qf-eval's telemetered runner records its
//! sampled insert latencies into, and what the exporters read.
//!
//! Counts do not live here. A filter counts its own paths in
//! `FilterStats`, and a pipeline serves each shard's counts from the shard
//! itself (qf-ops's `/metrics`), so no per-item event ever lands in a
//! process-global word.
//!
//! ## Naming conventions
//!
//! Metric names follow Prometheus style: `qf_` prefix, base units in the
//! name (`_ns`).

use crate::histogram::{HistogramSnapshot, LogHistogram};

/// The full metric registry (see module docs for naming rules).
#[derive(Debug, Default)]
pub struct QfMetrics {
    /// `qf_insert_latency_ns`: sampled whole-insert latencies.
    pub insert_latency_ns: LogHistogram,
}

impl QfMetrics {
    /// A fresh all-zero registry (usable in `static` initializers).
    pub const fn new() -> Self {
        Self {
            insert_latency_ns: LogHistogram::new(),
        }
    }

    /// Point-in-time copy of every metric, tagged with its exported name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            meta: Vec::new(),
            histograms: vec![("qf_insert_latency_ns", self.insert_latency_ns.snapshot())],
        }
    }
}

static GLOBAL: QfMetrics = QfMetrics::new();

/// The process-wide registry.
#[inline(always)]
pub fn global() -> &'static QfMetrics {
    &GLOBAL
}

/// A point-in-time copy of a registry: the input to both exporters, and
/// the unit of per-run delta computation.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Free-form annotations (detector name, workload, …) carried into
    /// the exporters as JSON strings / Prometheus comments.
    pub meta: Vec<(String, String)>,
    /// `(exported name, state)` per histogram.
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Attach a meta annotation (builder-style).
    pub fn with_meta(mut self, key: &str, value: impl ToString) -> Self {
        self.meta.push((key.to_string(), value.to_string()));
        self
    }

    /// Look up a histogram by exported name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h)
    }

    /// The change between two snapshots of the *same* registry: histogram
    /// buckets subtract exactly; histogram maxima keep the later
    /// cumulative value (see [`HistogramSnapshot::delta_since`]). Meta is
    /// taken from `self`.
    pub fn delta_since(&self, before: &Self) -> Self {
        Self {
            meta: self.meta.clone(),
            histograms: self
                .histograms
                .iter()
                .zip(&before.histograms)
                .map(|((n, now), (n2, b4))| {
                    debug_assert_eq!(n, n2, "snapshot field order diverged");
                    (*n, now.delta_since(b4))
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_registry_snapshots_to_zero() {
        let m = QfMetrics::new();
        let s = m.snapshot();
        assert!(s.histograms.iter().all(|(_, h)| h.count() == 0));
    }

    #[test]
    fn snapshot_reflects_updates_by_name() {
        let m = QfMetrics::new();
        m.insert_latency_ns.record(100);
        let s = m.snapshot();
        assert_eq!(s.histogram("qf_insert_latency_ns").unwrap().count(), 1);
        assert!(s.histogram("no_such_metric").is_none());
    }

    #[test]
    fn delta_isolates_an_interval() {
        let m = QfMetrics::new();
        m.insert_latency_ns.record(10);
        let before = m.snapshot();
        m.insert_latency_ns.record(50);
        m.insert_latency_ns.record(70);
        let d = m.snapshot().delta_since(&before);
        assert_eq!(d.histogram("qf_insert_latency_ns").unwrap().count(), 2);
    }

    #[test]
    fn meta_attaches() {
        let s = QfMetrics::new()
            .snapshot()
            .with_meta("detector", "QuantileFilter");
        assert_eq!(s.meta[0].1, "QuantileFilter");
    }
}
