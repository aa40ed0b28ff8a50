//! qf-model: exhaustive concurrency model checking for the workspace's
//! hand-rolled lock-free protocols.
//!
//! The crate has two faces:
//!
//! * [`sync`] — the **qf-sync shim**: drop-in stand-ins for
//!   `std::sync::atomic`, `std::sync::Mutex`, `std::thread::park`/
//!   `unpark`, `UnsafeCell` payload slots, and the spin/yield hints.
//!   In a normal build every wrapper is a `#[inline(always)]` forward
//!   to the `std` primitive and adds no code of its own. The
//!   `shim_equiv` proptest suite checks that the forwarding is
//!   observably equivalent to `std::sync` (same results and final
//!   state for arbitrary single-threaded op sequences); no test
//!   inspects the generated code. Under
//!   `--cfg qf_model` the same names resolve to instrumented model
//!   primitives driven by the explorer below.
//! * the **explorer** ([`model`], [`try_model`], [`Checker`]; only
//!   compiled under `cfg(qf_model)`) — a loom-style DFS over thread
//!   interleavings *and* weak-memory read choices. Every instrumented
//!   operation is a schedule point; loads may read any store the C11
//!   view semantics allow (per-location store history, per-thread
//!   views, release/acquire message views, fence views, a global
//!   SeqCst view for fence-based handshakes), so torn publications and
//!   stale reads that a real machine only exhibits under rare timing
//!   are explored deterministically. Vector clocks detect data races
//!   on [`sync::cell::RaceCell`] payloads; a blocked-thread sweep
//!   detects lost-wakeup deadlocks; state hashing prunes interleavings
//!   that reconverge to an already fully-explored state.
//!
//! The three protocols checked by the workspace harnesses:
//!
//! 1. SPSC ring handoff (`qf-pipeline/src/ring.rs`) — slot publication
//!    via release/acquire on `tail`, the slot's release (with the buffer
//!    the consumer leaves in it) via release/acquire on `head`, park/wake
//!    via the SeqCst fence handshake.
//! 2. Flight-recorder seqlock (`qf-trace/src/ring.rs`) — per-slot
//!    stamp parking + release publication, acquire/fence reader.
//! 3. Supervisor generation fencing (`qf-pipeline/src/supervisor.rs`)
//!    — stale-worker commits made side-effect-free by a generation
//!    check under the recovery mutex.
//!
//! Run them with `cargo xtask model` (which sets
//! `RUSTFLAGS=--cfg qf_model`); see DESIGN.md §15 for the protocol
//! specs and the model's semantics, including its documented
//! approximations (SeqCst via a global view join, as in loom).

// Unsafe discipline (QF-L007's compiler-side sibling): every op in
// an `unsafe fn` sits in its own SAFETY-commented block.
#![deny(unsafe_op_in_unsafe_fn)]
pub mod sync;

#[cfg(qf_model)]
pub mod rt;

#[cfg(qf_model)]
pub use rt::{model, try_model, Checker, Stats, Violation};

/// Real-build stand-in for [`rt::model`]: runs the closure once on the
/// current thread. Lets harness helpers be written against one name;
/// the exhaustive exploration only exists under `--cfg qf_model`.
#[cfg(not(qf_model))]
pub fn model<F: Fn() + Send + Sync + 'static>(f: F) {
    f();
}
