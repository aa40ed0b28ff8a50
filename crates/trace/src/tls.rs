//! Thread-local emit context.
//!
//! Library crates (qf-core, qf-sketch) emit events without knowing which
//! shard or recorder they run under: the pipeline worker calls
//! [`install`] when it takes ownership of a shard, and every
//! [`emit`] from that thread lands in the shard's flight recorder
//! stamped with the installed shard/generation. Threads with no context
//! installed (single-threaded eval runs, tests, the user's own threads)
//! drop events for free — `emit` is one thread-local read and a branch.

use crate::event::EventKind;
use crate::ring::FlightRecorder;
use qf_model::sync::atomic::{AtomicUsize, Ordering};
use std::cell::{Cell, RefCell};
use std::sync::Arc;

struct TlsCtx {
    rec: Arc<FlightRecorder>,
    shard: u16,
    generation: u32,
}

thread_local! {
    // ACTIVE mirrors CTX.is_some() so the installed check is a TLS bool
    // read with no RefCell borrow-flag traffic.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static CTX: RefCell<Option<TlsCtx>> = const { RefCell::new(None) };
}

/// Number of threads with a recorder currently installed, process-wide.
///
/// This is the real fast-path gate: a TLS access still costs several
/// nanoseconds on the saturated-sketch emit path (measured ~25% on the
/// internet-like workload of the since-deleted `hotpath` bench, whose
/// narrow counters clamp on most inserts), while a relaxed load of a read-mostly static is an
/// ordinary L1 hit. Processes that never install a recorder — every
/// eval/bench/detect run — pay only that load per would-be event.
// sync: counter — relaxed install gate; an emit that misses a racing
// install only drops that event, which TLS handoff tolerates anyway.
static INSTALLED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Bind this thread's emits to `rec`, stamped `shard`/`generation`.
/// Called by the pipeline worker on spawn (and again after a restart
/// bumps the generation). Replaces any previous binding.
pub fn install(rec: Arc<FlightRecorder>, shard: u16, generation: u32) {
    CTX.with(|c| {
        let was_bound = c.borrow().is_some();
        *c.borrow_mut() = Some(TlsCtx {
            rec,
            shard,
            generation,
        });
        if !was_bound {
            INSTALLED_THREADS.fetch_add(1, Ordering::Relaxed);
        }
    });
    ACTIVE.with(|a| a.set(true));
}

/// Drop this thread's binding; subsequent emits are no-ops.
pub fn clear() {
    ACTIVE.with(|a| a.set(false));
    CTX.with(|c| {
        if c.borrow_mut().take().is_some() {
            INSTALLED_THREADS.fetch_sub(1, Ordering::Relaxed);
        }
    });
}

/// Whether this thread currently has a recorder installed. Pre-filtered
/// by the process-wide count, so on recorder-free processes this is one
/// relaxed load — cheap enough for hot emit points to call per event.
#[inline]
pub fn installed() -> bool {
    INSTALLED_THREADS.load(Ordering::Relaxed) != 0 && ACTIVE.with(Cell::get)
}

/// Record one event against this thread's installed recorder, or do
/// nothing if none is installed. Returns the global sequence number of
/// the recorded event (0 when dropped).
#[inline]
pub fn emit(kind: EventKind, a: u64, b: u64) -> u64 {
    if !installed() {
        return 0;
    }
    emit_installed(kind, a, b)
}

/// The installed-thread slow half of [`emit`], kept out of line so the
/// drop path stays a leaf.
#[inline(never)]
fn emit_installed(kind: EventKind, a: u64, b: u64) -> u64 {
    CTX.with(|c| match &*c.borrow() {
        Some(ctx) => ctx.rec.emit(kind, ctx.shard, ctx.generation, a, b),
        None => 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_without_context_is_dropped() {
        clear();
        assert!(!installed());
        assert_eq!(emit(EventKind::Report, 1, 2), 0);
    }

    #[test]
    fn installed_context_stamps_shard_and_generation() {
        let rec = Arc::new(FlightRecorder::with_capacity(8));
        install(Arc::clone(&rec), 5, 3);
        assert!(installed());
        let seq = emit(EventKind::SnapshotCut, 10, 20);
        assert!(seq > 0);
        let events = rec.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].seq, seq);
        assert_eq!(events[0].shard, 5);
        assert_eq!(events[0].generation, 3);
        assert_eq!((events[0].a, events[0].b), (10, 20));
        clear();
        assert_eq!(emit(EventKind::SnapshotCut, 0, 0), 0);
        assert_eq!(rec.snapshot().len(), 1, "post-clear emits must not land");
    }

    #[test]
    fn reinstall_rebinds_generation() {
        let rec = Arc::new(FlightRecorder::with_capacity(8));
        install(Arc::clone(&rec), 2, 1);
        emit(EventKind::CheckpointSeal, 0, 0);
        install(Arc::clone(&rec), 2, 2);
        emit(EventKind::CheckpointSeal, 1, 0);
        let gens: Vec<u32> = rec.snapshot().iter().map(|e| e.generation).collect();
        assert_eq!(gens, vec![1, 2]);
        clear();
    }
}
