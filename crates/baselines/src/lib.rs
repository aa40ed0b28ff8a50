//! Baseline detectors for the QuantileFilter evaluation (§V comparators).
//!
//! Every detector implements [`OutstandingDetector`]: stream in items,
//! get back per-item "report this key now" decisions, exactly the online
//! task of Definition 4. The set:
//!
//! * [`exact::ExactDetector`] — zero-error ground truth via two counters
//!   per key (the oracle all accuracy metrics compare against).
//! * [`qf::QfDetector`] — adapter over [`quantile_filter::QuantileFilter`].
//! * [`naive::NaiveDetector`] — the §II-D dual-Csketch strawman.
//! * [`squad::SquadDetector`] — SQUAD-style: SpaceSaving heavy-hitter
//!   tracking with a per-tracked-key GK summary, queried after every
//!   insert (the "offline query" cost model).
//! * [`sketch_polymer::SketchPolymerDetector`] — SketchPolymer-style:
//!   shared log-bucket histograms in a counter matrix, with the
//!   early-value discard that causes its systematic recall ceiling.
//! * [`hist_sketch::HistSketchDetector`] — HistSketch-style: exact per-key
//!   compact histograms for promoted keys over a shared light sketch; its
//!   heavy part grows with the key population (the "unbounded and
//!   unpredictable space usage" the paper observes).
//!
//! The SOTA detectors are re-implementations of each system's *mechanism*
//! from the published descriptions, not line-by-line ports; DESIGN.md §4
//! records the correspondence argument.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod exact;
pub mod hist_sketch;
pub mod naive;
pub mod qf;
pub mod sketch_polymer;
pub mod squad;
pub mod value_buckets;

pub use exact::ExactDetector;
pub use hist_sketch::HistSketchDetector;
pub use naive::NaiveDetector;
pub use qf::QfDetector;
pub use sketch_polymer::SketchPolymerDetector;
pub use squad::SquadDetector;

/// An online quantile-outstanding-key detector (Definition 4).
pub trait OutstandingDetector {
    /// Process one item; `true` means "key reported now" (and the
    /// detector's state for the key has been reset per Definition 4).
    fn insert(&mut self, key: u64, value: f64) -> bool;

    /// Current structure size in bytes (the paper's memory axis). For
    /// fixed-size sketches this is the configured budget; for growing
    /// structures (exact, SQUAD, HistSketch heavy part) it is live usage.
    fn memory_bytes(&self) -> usize;

    /// Display name for experiment logs.
    fn name(&self) -> String;

    /// Clear all state.
    fn reset(&mut self);
}
