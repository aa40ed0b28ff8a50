//! # qf-telemetry
//!
//! Latency histograms and their exporters for the QuantileFilter stack.
//!
//! ## The three layers
//!
//! 1. **Primitive** — a from-scratch log-bucketed [`LogHistogram`]
//!    (HDR-style: ≤ 25% bucket width, mergeable, p50/p95/p99/max),
//!    `&self`-recordable and safe to share across threads.
//! 2. **Registry** — [`QfMetrics`]: one statically-allocated field per
//!    histogram (no hash map on the recording path), a process-wide
//!    instance via [`global()`], and point-in-time [`MetricsSnapshot`]s
//!    with per-run [`delta_since`](MetricsSnapshot::delta_since).
//! 3. **Exporters** — Prometheus text format ([`to_prometheus`]), a JSON
//!    dump ([`to_json`]), and a [`PeriodicReporter`] that writes
//!    `<prefix>.metrics.{json,prom}` sidecars atomically during a run.
//!
//! ## What records here
//!
//! Only whole-operation latencies, sampled by the caller: qf-eval's
//! telemetered runner times one insert in 2^k and records it into
//! `qf_insert_latency_ns`, and the qf-bench chaos harness keeps its own
//! restart-latency histograms. No hot path records into this crate.
//! Counts live with what they count: a filter's per-path counts in its
//! `FilterStats`, and a pipeline's per-shard counts in the shard, served
//! by qf-ops's `/metrics` with a `shard` label.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod export;
pub mod histogram;
pub mod registry;
pub mod reporter;

pub use export::{to_json, to_prometheus, EXPORT_QUANTILES};
pub use histogram::{bucket_index, bucket_upper, HistogramSnapshot, LogHistogram, NUM_BUCKETS};
pub use registry::{global, MetricsSnapshot, QfMetrics};
pub use reporter::PeriodicReporter;
