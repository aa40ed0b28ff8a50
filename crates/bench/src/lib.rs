//! qf-bench: figure-regeneration binaries, the hot-path harness
//! ([`hotpath`]) that times the scalar insert against the batched one,
//! the live-pipeline throughput harness ([`pipeline`]), and the
//! self-healing harness ([`chaos`]) that prices supervision overhead and
//! restart latency.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod chaos;
pub mod hotpath;
pub mod metrics;
pub mod pipeline;
