//! Feature-gated flight-recorder plumbing for the pipeline.
//!
//! One [`ShardFlight`] per shard: a cheap cloneable handle to the
//! shard's bounded event ring. The worker installs it as its thread's
//! emit context (so qf-core/qf-sketch trace hooks land in the right
//! ring), the router stamps backpressure edges and supervision verdicts
//! into it directly, and the supervisor dumps it to
//! `flight-<shard>-<generation>.json` on every restart and quarantine —
//! turning each `RecoveryRecord` into a full pre-crash event trail.
//!
//! With the `trace` cargo feature **off** (the default) `ShardFlight` is
//! a zero-sized stub and every method is an empty `#[inline(always)]`
//! body, so the untraced pipeline is bit-identical to the pre-trace
//! build. The lint rule QF-L006 holds this file to the cfg-pairing
//! discipline.

#[cfg(feature = "trace")]
mod imp {
    use qf_trace::{tls, EventKind, FlightRecorder, TraceEvent};
    use std::path::{Path, PathBuf};
    use std::sync::Arc;

    /// Events retained per shard. 256 decisions of history costs 8 KiB
    /// per shard and comfortably spans a crash window (a full burst plus
    /// several checkpoint intervals' worth of elections and reports).
    pub const FLIGHT_CAPACITY: usize = 256;

    /// Handle to one shard's flight recorder.
    #[derive(Clone)]
    pub struct ShardFlight {
        rec: Arc<FlightRecorder>,
        shard: u16,
    }

    impl ShardFlight {
        /// Build the shard's recorder (cold: once per launch/restart).
        pub(crate) fn new(shard: usize) -> Self {
            Self {
                rec: Arc::new(FlightRecorder::with_capacity(FLIGHT_CAPACITY)),
                shard: shard as u16,
            }
        }

        /// Bind the calling thread's qf-trace emit context to this
        /// shard's ring — the worker calls this when it takes ownership.
        pub(crate) fn install(&self, generation: u64) {
            tls::install(Arc::clone(&self.rec), self.shard, generation as u32);
        }

        /// Router-side: a shard queue crossed a backpressure edge.
        pub(crate) fn backpressure(&self, generation: u64, entering: bool, enqueued: u64) {
            self.rec.emit(
                EventKind::Backpressure,
                self.shard,
                generation as u32,
                u64::from(entering),
                enqueued,
            );
        }

        /// Supervisor-side: the shard's worker was restarted.
        pub(crate) fn restart(&self, generation: u64, cause: u64, lost: u64) {
            self.rec.emit(
                EventKind::WorkerRestart,
                self.shard,
                generation as u32,
                cause,
                lost,
            );
        }

        /// Supervisor-side: the shard was quarantined.
        pub(crate) fn quarantine(&self, generation: u64, cause: u64, lost: u64) {
            self.rec.emit(
                EventKind::WorkerQuarantine,
                self.shard,
                generation as u32,
                cause,
                lost,
            );
        }

        /// Copy out the ring's intact events, oldest first.
        pub fn events(&self) -> Vec<TraceEvent> {
            self.rec.snapshot()
        }

        /// Render the ring as a `qf-flight/v1` JSON document (the
        /// `/flight?shard=N` endpoint body). `Some` iff tracing is
        /// compiled in.
        pub fn events_json(&self, generation: u64, cause: &str) -> Option<String> {
            Some(qf_trace::render_dump(
                self.shard,
                generation as u32,
                cause,
                &self.rec.snapshot(),
            ))
        }

        /// Dump the ring to `dir/flight-<shard>-<generation>.json`.
        /// Returns the path, or `None` if the write failed (dumps are
        /// diagnostics — a full disk must not turn recovery into an
        /// error).
        pub(crate) fn dump(&self, dir: &Path, generation: u64, cause: &str) -> Option<PathBuf> {
            qf_trace::write_dump(
                dir,
                self.shard,
                generation,
                generation as u32,
                cause,
                &self.rec.snapshot(),
            )
            .ok()
        }
    }

    /// Worker-thread hook: a quiesce snapshot was cut. Lands in the
    /// worker's installed ring via the thread-local context.
    #[inline(always)]
    pub(crate) fn snapshot_cut(bytes: u64, applied: u64) {
        tls::emit(EventKind::SnapshotCut, bytes, applied);
    }

    /// Worker-thread hook: a recovery checkpoint was sealed.
    #[inline(always)]
    pub(crate) fn checkpoint_seal(seq: u64, applied: u64) {
        tls::emit(EventKind::CheckpointSeal, seq, applied);
    }
}

#[cfg(not(feature = "trace"))]
mod imp {
    use std::path::{Path, PathBuf};

    /// Zero-sized stub: tracing is compiled out.
    #[derive(Clone)]
    pub struct ShardFlight;

    impl ShardFlight {
        /// No-op: tracing is compiled out.
        #[inline(always)]
        pub(crate) fn new(_shard: usize) -> Self {
            Self
        }

        /// No-op: tracing is compiled out.
        #[inline(always)]
        pub(crate) fn install(&self, _generation: u64) {}

        /// No-op: tracing is compiled out.
        #[inline(always)]
        pub(crate) fn backpressure(&self, _generation: u64, _entering: bool, _enqueued: u64) {}

        /// No-op: tracing is compiled out.
        #[inline(always)]
        pub(crate) fn restart(&self, _generation: u64, _cause: u64, _lost: u64) {}

        /// No-op: tracing is compiled out.
        #[inline(always)]
        pub(crate) fn quarantine(&self, _generation: u64, _cause: u64, _lost: u64) {}

        /// Always `None`: tracing is compiled out.
        #[inline(always)]
        pub fn events_json(&self, _generation: u64, _cause: &str) -> Option<String> {
            None
        }

        /// Always `None`: tracing is compiled out.
        #[inline(always)]
        pub(crate) fn dump(&self, _dir: &Path, _generation: u64, _cause: &str) -> Option<PathBuf> {
            None
        }
    }

    /// No-op: tracing is compiled out.
    #[inline(always)]
    pub(crate) fn snapshot_cut(_bytes: u64, _applied: u64) {}

    /// No-op: tracing is compiled out.
    #[inline(always)]
    pub(crate) fn checkpoint_seal(_seq: u64, _applied: u64) {}
}

pub use imp::ShardFlight;
pub(crate) use imp::{checkpoint_seal, snapshot_cut};
