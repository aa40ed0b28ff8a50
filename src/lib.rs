//! # qf-repro — QuantileFilter reproduction umbrella crate
//!
//! Re-exports the whole workspace so examples and downstream users can
//! depend on a single crate:
//!
//! * [`quantile_filter`] — the QuantileFilter core (ICDE 2024 paper
//!   contribution): Qweight, candidate election, criteria flexibility.
//! * [`qf_sketch`] — Count sketch / Count-Min substrate with saturating
//!   narrow counters and stochastic rounding.
//! * [`qf_quantiles`] — the Greenwald–Khanna summary behind SQUAD.
//! * [`qf_baselines`] — exact ground truth, naive dual-Csketch, and the
//!   SQUAD / SketchPolymer / HistSketch-style comparators.
//! * [`qf_datasets`] — internet-like / cloud-like / Zipf workload
//!   generators and trace IO.
//! * [`qf_eval`] — metrics, runners and per-figure experiment drivers.
//! * [`qf_pipeline`] — live concurrent ingest: hash router, bounded
//!   SPSC shard queues with backpressure, per-shard worker threads, and
//!   snapshot-under-load.
//! * [`qf_hash`] — xxHash64, MurmurHash3 and seeded hash families.
//!
//! See `examples/` for runnable scenarios and DESIGN.md / EXPERIMENTS.md
//! for the reproduction methodology and results.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub use qf_baselines;
pub use qf_datasets;
pub use qf_eval;
pub use qf_hash;
pub use qf_pipeline;
pub use qf_quantiles;
pub use qf_sketch;
pub use quantile_filter;

/// Workspace version, for examples that print provenance.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
