//! qf-pipeline: live concurrent ingest for the QuantileFilter stack.
//!
//! The paper's deployments are single-writer — one switch/FPGA pipeline
//! owns the structure. This crate keeps that model while scaling across
//! cores by hash sharding: a single-threaded router partitions keys over
//! per-shard worker threads (each owning a private
//! [`quantile_filter::QuantileFilter`]) connected by bounded, hand-rolled
//! SPSC ring queues that carry item *slabs* of up to `slab_capacity`
//! items — one ring slot per slab, so the Lamport and wake handshakes
//! amortize over a slab and each slab drains through the fused
//! `insert_batch` hot path. A slab travels when it fills, or earlier
//! when [`Pipeline::poll_reports`] finds its shard's queue empty: an idle
//! worker gets the partial slab, so a polling caller sees reports
//! without waiting for slabs to fill, while a loaded shard still batches
//! full slabs. Per-key state
//! never crosses a shard boundary, so the reported key set is identical
//! to single-threaded execution over the same per-shard item order — the
//! equivalence the stress suite and qf-eval's `pipeline_equivalence` pin.
//!
//! What the pipeline adds over feeding sharded filters from one thread:
//!
//! * **Online ingest** — items are routed as they arrive
//!   ([`Pipeline::ingest`]), not pre-partitioned from a slice.
//! * **Backpressure** — a full shard queue either blocks the router or
//!   sheds the item with exact per-shard accounting
//!   ([`BackpressurePolicy`]).
//! * **Snapshot under load** — a quiesce barrier flows through the FIFO
//!   queues, each worker emits a wire-v2 filter snapshot at the barrier
//!   point, and the frames are merged into one self-delimiting,
//!   checksummed envelope that [`Pipeline::restore`] round-trips
//!   byte-identically ([`Pipeline::snapshot`]).
//! * **Graceful shutdown** — queues drain fully and the final accounting
//!   conserves: offered = enqueued + dropped + rejected and
//!   enqueued = processed + shed + lost ([`Pipeline::shutdown`]).
//! * **Self-healing** — every pipeline runs per-shard checkpoint/replay
//!   recovery, a hang watchdog, and restart with capped backoff, so a
//!   crashed or wedged worker costs a bounded, *accounted* loss window
//!   instead of the pipeline ([`Pipeline::launch_supervised`] tunes it
//!   with a [`SupervisorConfig`]). A checkpoint is a copy of the shard's
//!   filter plus a digest. The qf-chaos harness ([`ChaosPlan`] +
//!   [`Pipeline::launch_chaos`]) injects panics, hangs, poison keys, and
//!   checkpoint corruption to prove it.
//!
//! ## Memory per shard
//!
//! [`Pipeline::memory_bytes`] is the detector state, the paper's memory
//! axis: the sum of the shard filters' charges, which is what each filter
//! allocates for its arrays less 18 B of padding. Supervision and the
//! handoff cost each shard more, and that is not counted there:
//!
//! * two checkpoint copies of the filter;
//! * a replay journal of `2 × (checkpoint_interval + slab_capacity)`
//!   entries at 16 B each: 270,352 B at the default 8,192-item interval
//!   and 256-item slabs;
//! * up to `ring_slots() + 1` slabs of `slab_capacity` items at 16 B each
//!   — one per ring slot, the slab being applied included, plus the
//!   router's — 20,480 B at 256-item slabs and `queue_capacity: 1024`.
//!
//! A 512 KiB shard (524,274 B of filter arrays) thus holds about 1.84 MB
//! in its filter, checkpoints and journal, and about 1.86 MB with its
//! slabs.
//!
//! ```
//! use qf_pipeline::{BackpressurePolicy, Pipeline, PipelineConfig};
//! use quantile_filter::Criteria;
//!
//! let mut pipe = Pipeline::launch(PipelineConfig {
//!     shards: 4,
//!     criteria: Criteria::new(5.0, 0.9, 100.0)?,
//!     memory_bytes_per_shard: 32 * 1024,
//!     queue_capacity: 1024,
//!     slab_capacity: 256,
//!     policy: BackpressurePolicy::Block,
//!     seed: 0,
//! })?;
//! for i in 0..50_000u64 {
//!     pipe.ingest(i % 64, 5.0)?;       // background traffic
//!     pipe.ingest(1_000, 500.0)?;      // one hot key
//! }
//! let reported = pipe.poll_reports();
//! let summary = pipe.shutdown()?;
//! assert_eq!(summary.offered, summary.enqueued + summary.dropped);
//! assert!(reported.iter().chain(&summary.reports).any(|r| r.key == 1_000));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// Unsafe discipline (QF-L007's compiler-side sibling): every op in
// an `unsafe fn` sits in its own SAFETY-commented block.
#![deny(unsafe_op_in_unsafe_fn)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(missing_docs)]

pub mod chaos;
pub mod flight;
pub mod health;
pub mod pipeline;
pub mod ring;
pub mod snapshot;
pub mod supervisor;
mod telemetry;
pub mod worker;

pub use chaos::{ChaosPlan, Fault};
pub use flight::ShardFlight;
pub use health::{OpsView, ShardHealth};
pub use pipeline::{
    BackpressurePolicy, IngestOutcome, Pipeline, PipelineConfig, PipelineSummary, ReportEvent,
    ShardSummary,
};
pub use ring::{Consumer, Producer, PushError, SpscRing};
pub use snapshot::{PIPELINE_SNAPSHOT_MAGIC, PIPELINE_SNAPSHOT_VERSION};
pub use supervisor::{CrashCause, RecoveredBase, RecoveryRecord, ShardState, SupervisorConfig};

use quantile_filter::QfError;

/// The shard a key routes to, used by this crate's router and by every
/// serial reference the equivalence suites compare it against, so their
/// per-shard item streams are identical — the foundation of the
/// equivalence guarantee. The `0x5AAD` tweak decorrelates routing from
/// the filters' own key hashing.
#[inline]
pub fn shard_of(key: u64, shards: usize) -> usize {
    (qf_hash::mix64(key ^ 0x5AAD) % shards as u64) as usize
}

/// Pipeline failures. Everything is typed — a worker panic is recovered
/// by the supervisor, never propagated or left hanging.
#[derive(Debug)]
pub enum PipelineError {
    /// The configuration cannot be launched.
    InvalidConfig {
        /// What was wrong with it.
        reason: String,
    },
    /// A shard's state could not be produced: a quarantined shard whose
    /// filter could not be rebuilt for a snapshot.
    WorkerDied {
        /// The dead worker's shard index.
        shard: usize,
    },
    /// A snapshot envelope or per-shard frame failed to decode.
    Snapshot(QfError),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidConfig { reason } => write!(f, "invalid pipeline config: {reason}"),
            Self::WorkerDied { shard } => write!(f, "worker for shard {shard} died"),
            Self::Snapshot(e) => write!(f, "pipeline snapshot error: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QfError> for PipelineError {
    fn from(e: QfError) -> Self {
        Self::Snapshot(e)
    }
}
