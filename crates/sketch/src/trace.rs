//! Feature-gated flight-recorder trace hooks for sketch-level events.
//!
//! Same zero-cost contract as [`crate::telemetry`]: with the `trace`
//! cargo feature **off** (the default) the hook is an empty
//! `#[inline(always)]` body and the call sites compile out. With the
//! feature **on**, a saturation emits one event into the calling
//! thread's installed flight recorder (see [`qf_trace::tls`]) — threads
//! without a recorder drop it after one relaxed load.
//!
//! The hook is only *called* from telemetry's clamp-detection branch:
//! deciding whether a cell clamped takes widening arithmetic per cell
//! per insert, and under narrow counters (the paper-default `i8` vague
//! part) a heavy stream clamps on nearly every insert — measured ~20%
//! of scalar throughput on the internet-like workload of the `hotpath`
//! bench, a qf-bench bin that has since been deleted. That
//! detection is telemetry's accepted per-insert cost; `trace` alone
//! must stay inside the ≤2% A/B budget, so a trace-only build compiles
//! the detection (and this hook's call sites) out entirely, and the
//! observability build (`telemetry,trace`, what qf-ops runs) emits from
//! the branch telemetry already pays for.
//!
//! Emission is also *sampled*: an unsampled hook would flood the
//! 256-slot flight recorder with nothing but saturation events. The
//! hook emits the first saturation a thread sees and every `SAMPLE`-th
//! after that, carrying the running count in the event's `b` payload —
//! the dump shows both the onset and the magnitude of saturation
//! pressure without washing out the history around it.

#[cfg(feature = "trace")]
mod hooks {
    use qf_trace::{tls, EventKind};
    use std::cell::Cell;

    /// Emit 1-in-`SAMPLE` saturations (plus the very first).
    const SAMPLE: u64 = 1024;

    thread_local! {
        static SATURATIONS: Cell<u64> = const { Cell::new(0) };
    }

    /// A sketch cell clamped at its numeric bound instead of absorbing
    /// the full delta. `a` is the row; `b` is this thread's running
    /// saturation count at emit time (not the column — under sampling
    /// the aggregate pressure is the diagnostic, not one cell address).
    /// Threads with no recorder skip even the counting: in a process
    /// that never installed a recorder, [`tls::installed`] is a single
    /// relaxed load of a read-mostly static — no TLS access at all.
    // Call sites live inside telemetry's clamp-detection branch (see
    // module docs), so a trace-only build has none.
    #[allow(dead_code)]
    #[inline]
    pub fn saturation(row: usize, _col: usize) {
        if !tls::installed() {
            return;
        }
        SATURATIONS.with(|s| {
            let n = s.get();
            s.set(n + 1);
            if n % SAMPLE == 0 {
                tls::emit(EventKind::SketchSaturation, row as u64, n + 1);
            }
        });
    }
}

#[cfg(not(feature = "trace"))]
mod hooks {
    // Saturation detection only runs when telemetry is on, so with
    // trace off this no-op is referenced only from telemetry builds.
    /// No-op: tracing is compiled out.
    #[allow(dead_code)]
    #[inline(always)]
    pub fn saturation(_row: usize, _col: usize) {}
}

#[allow(unused_imports)]
pub(crate) use hooks::saturation;
