//! # qf-telemetry
//!
//! Zero-cost instrumentation for the QuantileFilter stack: the primitives,
//! the registry, and the exporters that make a running filter observable
//! without slowing it down.
//!
//! ## The three layers
//!
//! 1. **Primitives** — relaxed-atomic [`Counter`]s and [`Gauge`]s, a
//!    from-scratch log-bucketed [`LogHistogram`] (HDR-style: ≤ 25% bucket
//!    width, mergeable, p50/p95/p99/max), and a scope-guard [`SpanTimer`].
//!    All are `&self`-recordable and safe to share across threads.
//! 2. **Registry** — [`QfMetrics`]: one statically-allocated field per
//!    metric (no hash map on the hot path), a process-wide instance via
//!    [`global()`], point-in-time [`MetricsSnapshot`]s with per-run
//!    [`delta_since`](MetricsSnapshot::delta_since), and the
//!    [`Recorder`] trait ([`GlobalRecorder`] / no-op [`NullRecorder`])
//!    that instrumented crates drive.
//! 3. **Exporters** — Prometheus text format ([`to_prometheus`]), a JSON
//!    dump ([`to_json`]), and a [`PeriodicReporter`] that writes
//!    `<prefix>.metrics.{json,prom}` sidecars atomically during a run.
//!
//! ## The zero-cost contract
//!
//! This crate is always cheap to *depend on* (no dependencies of its own),
//! but the instrumented crates only *call* into it behind their
//! `telemetry` cargo feature. With the feature off, every hook in
//! `quantile-filter` / `qf-sketch` is compiled out. With it on, a hook is
//! one uncontended relaxed `fetch_add` (~5 ns) and never touches filter
//! state, so the filter reports the same items either way. The guard is
//! the workspace root's `tests/observer_golden.rs`: CI runs it in the
//! plain, `telemetry` and `trace` builds, and each must reproduce the
//! committed report sequence of a fixed seeded Zipf trace (628 reports)
//! and its hash.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod counter;
pub mod export;
pub mod histogram;
pub mod recorder;
pub mod registry;
pub mod reporter;
pub mod span;

pub use counter::{Counter, Gauge};
pub use export::{to_json, to_prometheus, EXPORT_QUANTILES};
pub use histogram::{bucket_index, bucket_upper, HistogramSnapshot, LogHistogram, NUM_BUCKETS};
pub use recorder::{CounterId, GaugeId, GlobalRecorder, HistogramId, NullRecorder, Recorder};
pub use registry::{global, MetricsSnapshot, QfMetrics};
pub use reporter::PeriodicReporter;
pub use span::SpanTimer;
