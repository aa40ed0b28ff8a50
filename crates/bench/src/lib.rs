//! qf-bench: figure-regeneration binaries, the live-pipeline throughput
//! harness ([`pipeline`]), and the self-healing harness ([`chaos`]) that
//! prices supervision overhead and restart latency. Insert-path costs are
//! measured by the repository benchmark (`perfbench/`), not here.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod chaos;
pub mod pipeline;
