//! The single-key quantile summary behind the SQUAD baseline.
//!
//! [`gk`] is the Greenwald–Khanna summary (SIGMOD 2001), the
//! deterministic ε-approximate summary SQUAD attaches to each heavy key.
//! Queries walk the summary, which is precisely the "offline query" cost
//! the paper contrasts with QuantileFilter's constant-time test (§II-B).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod gk;

pub use gk::GkSummary;
