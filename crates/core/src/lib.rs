//! # QuantileFilter
//!
//! A from-scratch Rust reproduction of **"Online Detection of Outstanding
//! Quantiles with QuantileFilter"** (ICDE 2024): the first approximate
//! algorithm purpose-built for detecting *quantile-outstanding keys* — keys
//! whose `(ε, δ)`-quantile of recent values exceeds a threshold `T` — in
//! constant time per stream item.
//!
//! ## The two techniques
//!
//! 1. **Qweight** ([`criteria`], [`qweight`]): give each item weight `−1`
//!    if its value is `≤ T` and `+δ/(1−δ)` if `> T`. Then
//!    `q_{ε,δ}(x) > T ⇔ Qw(x) ≥ ε/(1−δ)`, turning a rank query into a
//!    running-sum threshold test.
//! 2. **Candidate election** ([`candidate`], [`filter`]): a compact array
//!    of `(fingerprint, Qweight)` buckets tracks the keys most likely to be
//!    reported exactly, while a Count sketch (the *vague part*,
//!    [`qf_sketch::CountSketch`]) absorbs everything else. Keys with large
//!    estimated Qweights are promoted into the candidate part by one of
//!    three election strategies ([`strategy`]).
//!
//! ## Quick start
//!
//! ```
//! use quantile_filter::{Criteria, QuantileFilter, QuantileFilterBuilder};
//!
//! // Report keys whose 95th-percentile value exceeds 200.0,
//! // with rank slack ε = 30 (the paper's defaults).
//! let criteria = Criteria::new(30.0, 0.95, 200.0).unwrap();
//! let mut qf: QuantileFilter = QuantileFilterBuilder::new(criteria)
//!     .memory_budget_bytes(64 * 1024)
//!     .seed(7)
//!     .build();
//!
//! let mut reported = false;
//! for i in 0..5000u64 {
//!     let key = i % 10;
//!     let value = if key == 3 { 500.0 } else { 50.0 };
//!     reported |= qf.insert(&key, value).is_some();
//! }
//! assert!(reported, "key 3 is outstanding and must be reported");
//! ```
//!
//! Also included: the naive dual-Csketch strawman of §II-D ([`naive`]), the
//! vague-only estimator of Algorithm 1 ([`algorithm1`]), the per-key /
//! multi-criteria support of §III-C ([`multi`]), and a crash-safe
//! versioned snapshot/restore layer ([`snapshot`]) with a typed,
//! panic-free error surface ([`error`]).

// The configuration, ingest, and snapshot paths must never panic: every
// failure is a typed `QfError`/`BuilderError`. The lint gate enforces the
// absence of unwrap/expect outside tests; the panicking convenience
// wrappers (`build()`, `new()`) use explicit `panic!` with the typed
// error's message and are documented as such.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod algorithm1;
pub mod builder;
pub mod candidate;
pub mod criteria;
pub mod epoch;
pub mod error;
pub mod filter;
pub mod invariants;
pub mod multi;
pub mod naive;
pub mod query;
pub mod qweight;
pub mod snapshot;
pub mod strategy;
pub mod stream;
pub(crate) mod trace;
pub mod vague;

pub use algorithm1::QweightSketch;
pub use builder::QuantileFilterBuilder;
pub use criteria::Criteria;
pub use epoch::EpochFilter;
pub use error::{BuilderError, QfError};
pub use filter::{QuantileFilter, Report, ReportSource};
pub use invariants::{CheckInvariants, InvariantViolation};
pub use multi::MultiCriteriaFilter;
pub use naive::NaiveDualCsketch;
pub use query::parse_query;
pub use snapshot::{SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use strategy::ElectionStrategy;
