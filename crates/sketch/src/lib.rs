//! Frequency/weight sketch substrate for the QuantileFilter reproduction.
//!
//! The paper's vague part is a Count sketch extended to *signed, weighted*
//! updates — a significant departure from textbook frequency sketches, since
//! Qweights are routinely negative (§I Technique 2). This crate provides:
//!
//! * [`counter`] — the [`SketchCounter`](counter::SketchCounter) trait over
//!   `i8 / i16 / i32 / i64` with **overflow-reversal protection**: the paper
//!   requires that "operations must prevent overflow reversals, ignoring any
//!   addition or subtraction that would cause it" (§III-B Technical Details),
//!   which lets 8/16-bit counters be used safely.
//! * [`rounding`] — unbiased stochastic rounding of fractional weights such
//!   as `δ/(1−δ)` into integer counter increments (§III-A Technical
//!   Details; variance `< 0.25`).
//! * [`count_sketch`] — the Count sketch (Charikar–Chen–Farach-Colton) with
//!   weighted ± updates, median estimation, deletion and reset.
//! * [`count_min`] — a Count-Min sketch variant with signed counters, kept
//!   as the alternative vague part evaluated in Fig. 12 (Choice 2).
//! * [`traits`] — the [`WeightSketch`](traits::WeightSketch) abstraction the
//!   QuantileFilter core is generic over.
//! * [`snapshot`] — the [`SketchState`](snapshot::SketchState) trait used by
//!   the crash-safety layer to persist and restore sketch state.

// Unsafe discipline (QF-L007's compiler-side sibling): every op in
// an `unsafe fn` sits in its own SAFETY-commented block.
#![deny(unsafe_op_in_unsafe_fn)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod count_min;
pub mod count_sketch;
pub mod counter;
pub mod invariants;
pub mod rounding;
pub mod simd;
pub mod snapshot;
pub mod space_saving;
pub mod traits;

pub use count_min::CountMinSketch;
pub use count_sketch::CountSketch;
pub use counter::SketchCounter;
pub use invariants::{CheckInvariants, InvariantViolation};
pub use rounding::{SplitWeight, StochasticRounder};
pub use snapshot::{SketchShape, SketchState, SKETCH_KIND_CMS, SKETCH_KIND_CS};
pub use space_saving::{SpaceSaving, SsEntry};
pub use traits::{prefetch_read, WeightSketch};
