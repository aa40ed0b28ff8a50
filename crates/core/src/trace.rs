//! Feature-gated flight-recorder trace hooks for the filter hot path.
//!
//! They record *event trails*, not aggregate counts: with the `trace`
//! cargo feature **off** (the default) every function here is an empty
//! `#[inline(always)]` body and each call site compiles to nothing, so
//! the untraced filter is bit-identical to the pre-trace crate. With the
//! feature **on**, each hook is one thread-local lookup plus (if a
//! recorder is installed — the pipeline worker installs one per shard
//! via [`qf_trace::tls`]) a wait-free ring-buffer write. Threads without
//! a recorder drop events after the lookup, so single-threaded eval runs
//! stay cheap.
//!
//! The hooks cover the control-flow joints worth replaying after a
//! crash: epoch rollovers, candidate elections (both verdicts),
//! evictions, and fired reports. Pure counts (hits, inserts,
//! bucket-full) live in [`FilterStats`](crate::filter::FilterStats) — a
//! flight recorder records *decisions*, not traffic volume. Nothing here
//! reads a clock: events are ordered by qf-trace's global sequence
//! counter (QF-L002).

#[cfg(feature = "trace")]
mod hooks {
    use qf_trace::{tls, EventKind};

    /// The reset manager rolled the epoch over.
    #[inline(always)]
    pub fn epoch_rollover(items: u64, epochs_completed: u64) {
        tls::emit(EventKind::EpochRollover, items, epochs_completed);
    }

    /// A candidate election replaced the minimum entry.
    #[inline(always)]
    pub fn election_win(est: i64, min_qw: i64) {
        tls::emit(EventKind::ElectionWin, est as u64, min_qw as u64);
    }

    /// A candidate election kept the incumbent.
    #[inline(always)]
    pub fn election_loss(est: i64, min_qw: i64) {
        tls::emit(EventKind::ElectionLoss, est as u64, min_qw as u64);
    }

    /// A candidate entry was evicted into the vague part.
    #[inline(always)]
    pub fn eviction(fp: u16, qw: i64) {
        tls::emit(EventKind::Eviction, u64::from(fp), qw as u64);
    }

    /// A report fired from the candidate part's exact Qweight.
    #[inline(always)]
    pub fn report_candidate(qw: i64) {
        tls::emit(EventKind::Report, qw as u64, 0);
    }

    /// A report fired from the vague part's estimate.
    #[inline(always)]
    pub fn report_vague(qw: i64) {
        tls::emit(EventKind::Report, qw as u64, 1);
    }
}

#[cfg(not(feature = "trace"))]
mod hooks {
    /// No-op: tracing is compiled out.
    #[inline(always)]
    pub fn epoch_rollover(_items: u64, _epochs_completed: u64) {}

    /// No-op: tracing is compiled out.
    #[inline(always)]
    pub fn election_win(_est: i64, _min_qw: i64) {}

    /// No-op: tracing is compiled out.
    #[inline(always)]
    pub fn election_loss(_est: i64, _min_qw: i64) {}

    /// No-op: tracing is compiled out.
    #[inline(always)]
    pub fn eviction(_fp: u16, _qw: i64) {}

    /// No-op: tracing is compiled out.
    #[inline(always)]
    pub fn report_candidate(_qw: i64) {}

    /// No-op: tracing is compiled out.
    #[inline(always)]
    pub fn report_vague(_qw: i64) {}
}

pub(crate) use hooks::*;
