//! Live supervision state and per-shard counts for the ops endpoint.
//!
//! The router already knows each shard's lifecycle state, strike count,
//! recovery history and admission counts — but it owns that state
//! exclusively, and the ops HTTP server runs on its own thread.
//! [`ShardBoard`] is the bridge: a tiny all-atomic scoreboard per shard,
//! written by the router on every transition (state changes, restarts)
//! and at every slab handoff, drop and rejection — never per admitted
//! item — and read lock-free by anyone holding an [`OpsView`]. The
//! worker's side of a shard's counts (processed, shed, reports, seals
//! and its filter's [`FilterStats`]) already sits in the shard's
//! recovery state, which the worker writes under its commit lock once
//! per slab; [`OpsView::counts`] copies it out under that same lock.
//!
//! [`OpsView`] is the detachable read handle handed to `qf-ops`: clone
//! it out of a live [`Pipeline`](crate::Pipeline) before starting the
//! server and the `/metrics`, `/health` and `/flight` endpoints keep
//! working for the pipeline's whole life without touching router state.
//! Unlike the flight recorder this module is **not** feature-gated — the
//! scoreboard costs a few relaxed stores per slab, so `/metrics` and
//! `/health` work in every build; only `/flight` additionally needs the
//! `trace` feature.

use crate::flight::ShardFlight;
use crate::pipeline::ShardSummary;
use crate::supervisor::{CrashCause, RecoveryRecord, ShardRecovery, ShardState};
use quantile_filter::filter::FilterStats;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Lock-free per-shard supervision scoreboard. Router-written,
/// ops-read; all loads/stores are `Relaxed` because each field is
/// independently meaningful (a reader may see a restart's generation
/// bump before its cause — both values are individually valid).
///
/// Aligned to its own pair of cache lines, as the ring pads its
/// cursors: the router stores into it once per slab, and those stores
/// must never share a line with a word a worker writes.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct ShardBoard {
    /// Items admitted to the shard, as of the router's last handoff,
    /// drop, rejection or recovery on it.
    // sync: counter — relaxed scoreboard word (struct docs).
    enqueued: AtomicU64,
    /// Incoming items dropped at the router, as of the same points.
    // sync: counter — relaxed scoreboard word (struct docs).
    dropped: AtomicU64,
    /// Items refused because the shard was quarantined.
    // sync: counter — relaxed scoreboard word (struct docs).
    rejected: AtomicU64,
    /// [`ShardState::code`] of the current state.
    // sync: counter — relaxed scoreboard word (struct docs).
    state: AtomicI64,
    /// Consecutive-crash strikes currently on record.
    // sync: counter — relaxed scoreboard word (struct docs).
    strikes: AtomicU64,
    /// Completed restarts (quarantine does not count).
    // sync: counter — relaxed scoreboard word (struct docs).
    restarts: AtomicU64,
    /// Generation of the live (or last fenced) worker lineage.
    // sync: counter — relaxed scoreboard word (struct docs).
    generation: AtomicU64,
    /// [`CrashCause::code`] of the most recent recovery; `0` = never.
    // sync: counter — relaxed scoreboard word (struct docs).
    last_cause: AtomicU64,
    /// Items lost in the most recent recovery.
    // sync: counter — relaxed scoreboard word (struct docs).
    last_lost: AtomicU64,
    /// Items lost over the shard's life: every recovery's loss window.
    // sync: counter — relaxed scoreboard word (struct docs).
    lost: AtomicU64,
    /// Journal items replayed onto rebuilt filters over the shard's life.
    // sync: counter — relaxed scoreboard word (struct docs).
    replayed: AtomicU64,
    /// Detection-to-respawn latency of the most recent restart, µs.
    // sync: counter — relaxed scoreboard word (struct docs).
    last_latency_micros: AtomicU64,
}

impl ShardBoard {
    /// Router-side: the shard changed lifecycle state.
    pub(crate) fn set_state(&self, state: ShardState, strikes: u32) {
        self.state.store(state.code(), Ordering::Relaxed);
        self.strikes.store(u64::from(strikes), Ordering::Relaxed);
    }

    /// Router-side: its admission counts for the shard, stored at a slab
    /// handoff, a drop, a rejection or a recovery.
    pub(crate) fn publish_router(&self, enqueued: u64, dropped: u64, rejected: u64) {
        self.enqueued.store(enqueued, Ordering::Relaxed);
        self.dropped.store(dropped, Ordering::Relaxed);
        self.rejected.store(rejected, Ordering::Relaxed);
    }

    /// Router-side: a recovery (restart or quarantine) completed.
    /// `generation` is the live lineage after it, and `lost` the shard's
    /// loss over its whole life, this recovery's included.
    pub(crate) fn record_recovery(&self, record: &RecoveryRecord, generation: u64, lost: u64) {
        self.generation.store(generation, Ordering::Relaxed);
        self.last_cause
            .store(record.cause.code(), Ordering::Relaxed);
        self.last_lost.store(record.lost, Ordering::Relaxed);
        self.lost.store(lost, Ordering::Relaxed);
        self.replayed.fetch_add(record.replayed, Ordering::Relaxed);
        self.last_latency_micros
            .store(record.restart_latency.as_micros() as u64, Ordering::Relaxed);
        if !record.quarantined {
            self.restarts.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn read(&self, shard: usize) -> ShardHealth {
        ShardHealth {
            shard,
            state: ShardState::from_code(self.state.load(Ordering::Relaxed))
                .unwrap_or(ShardState::Running),
            strikes: self.strikes.load(Ordering::Relaxed) as u32,
            restarts: self.restarts.load(Ordering::Relaxed),
            generation: self.generation.load(Ordering::Relaxed),
            last_cause: CrashCause::from_code(self.last_cause.load(Ordering::Relaxed)),
            last_lost: self.last_lost.load(Ordering::Relaxed),
            last_restart_latency_micros: self.last_latency_micros.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time supervision state of one shard, as served by `/health`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHealth {
    /// Shard index.
    pub shard: usize,
    /// Current lifecycle state.
    pub state: ShardState,
    /// Consecutive-crash strikes currently on record.
    pub strikes: u32,
    /// Completed restarts over the pipeline's life.
    pub restarts: u64,
    /// Generation of the live worker lineage.
    pub generation: u64,
    /// Cause of the most recent recovery, `None` if the shard has never
    /// crashed.
    pub last_cause: Option<CrashCause>,
    /// Items lost in the most recent recovery.
    pub last_lost: u64,
    /// Detection-to-respawn latency of the most recent restart, in
    /// microseconds (zero when quarantined or never crashed).
    pub last_restart_latency_micros: u64,
}

/// One shard's counts as `/metrics` serves them, read from the counts
/// the pipeline already keeps per shard.
#[derive(Debug, Clone, Copy)]
pub struct ShardCounts {
    /// Shard index.
    pub shard: usize,
    /// The shard's accounting, field for field what
    /// [`PipelineSummary::per_shard`](crate::PipelineSummary::per_shard)
    /// holds once the pipeline is drained. Before that, the router's
    /// counts (`enqueued`, `dropped`, `rejected`) are those of its last
    /// slab handoff, drop, rejection or recovery on the shard, and
    /// `processed`, `shed` and `reports` those of the worker's last
    /// commit.
    pub accounting: ShardSummary,
    /// Checkpoints sealed over the shard's life.
    pub checkpoint_seals: u64,
    /// Journal items replayed onto rebuilt filters over the shard's life.
    pub replayed: u64,
    /// The shard filter's statistics as of the worker's last commit. After
    /// a recovery that loses the state ([`RecoveredBase::StateLoss`]) they
    /// restart from zero at the next commit.
    ///
    /// [`RecoveredBase::StateLoss`]: crate::RecoveredBase::StateLoss
    pub stats: FilterStats,
}

/// What an [`OpsView`] reads for one shard.
#[derive(Clone)]
pub(crate) struct ShardView {
    pub(crate) board: Arc<ShardBoard>,
    pub(crate) recovery: Arc<ShardRecovery>,
    pub(crate) flight: ShardFlight,
}

/// Detachable, thread-safe read handle over a pipeline's per-shard
/// scoreboards, recovery counts and flight recorders. Obtained from
/// [`Pipeline::ops_view`](crate::Pipeline::ops_view); stays valid after
/// the pipeline shuts down (it reports the final state).
#[derive(Clone)]
pub struct OpsView {
    shards: Vec<ShardView>,
}

impl OpsView {
    pub(crate) fn new(shards: Vec<ShardView>) -> Self {
        Self { shards }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Point-in-time health of every shard.
    pub fn health(&self) -> Vec<ShardHealth> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| s.board.read(i))
            .collect()
    }

    /// `true` iff every shard is currently `Running`.
    pub fn healthy(&self) -> bool {
        self.shards
            .iter()
            .all(|s| s.board.state.load(Ordering::Relaxed) == ShardState::Running.code())
    }

    /// Point-in-time counts of every shard, the `/metrics` source. Takes
    /// each shard's commit lock once, to copy a few words.
    pub fn counts(&self) -> Vec<ShardCounts> {
        self.shards
            .iter()
            .enumerate()
            .map(|(shard, s)| {
                let b = &s.board;
                let (processed, shed, reports, checkpoint_seals, stats) = {
                    let inner = s.recovery.lock();
                    (
                        inner.processed,
                        inner.shed,
                        inner.reports,
                        inner.seals,
                        inner.stats,
                    )
                };
                ShardCounts {
                    shard,
                    accounting: ShardSummary {
                        enqueued: b.enqueued.load(Ordering::Relaxed),
                        dropped: b.dropped.load(Ordering::Relaxed),
                        rejected: b.rejected.load(Ordering::Relaxed),
                        processed,
                        shed,
                        lost: b.lost.load(Ordering::Relaxed),
                        reports,
                        restarts: b.restarts.load(Ordering::Relaxed),
                        state: ShardState::from_code(b.state.load(Ordering::Relaxed))
                            .unwrap_or(ShardState::Running),
                    },
                    checkpoint_seals,
                    replayed: b.replayed.load(Ordering::Relaxed),
                    stats,
                }
            })
            .collect()
    }

    /// The `/health` endpoint body: per-shard supervision state as a
    /// self-contained JSON document (hand-rendered — this workspace is
    /// dependency-free by design).
    pub fn health_json(&self) -> String {
        let shards = self.health();
        let mut out = String::with_capacity(128 + 160 * shards.len());
        out.push_str("{\"healthy\":");
        out.push_str(if self.healthy() { "true" } else { "false" });
        out.push_str(",\"shards\":[");
        for (i, h) in shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"shard\":{},\"state\":\"{}\",\"strikes\":{},\"restarts\":{},\
                 \"generation\":{},\"last_cause\":{},\"last_lost\":{},\
                 \"last_restart_latency_micros\":{}}}",
                h.shard,
                h.state.name(),
                h.strikes,
                h.restarts,
                h.generation,
                h.last_cause
                    .map_or_else(|| "null".to_string(), |c| format!("\"{}\"", c.name())),
                h.last_lost,
                h.last_restart_latency_micros,
            ));
        }
        out.push_str("]}");
        out
    }

    /// The `/flight?shard=N` endpoint body: the shard's live flight
    /// recorder rendered as a `qf-flight/v1` document. `None` when the
    /// shard index is out of range or the `trace` feature is compiled
    /// out.
    pub fn flight_json(&self, shard: usize) -> Option<String> {
        let s = self.shards.get(shard)?;
        let generation = s.board.generation.load(Ordering::Relaxed);
        s.flight.events_json(generation, "live")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn view(n: usize) -> OpsView {
        OpsView::new(
            (0..n)
                .map(|shard| ShardView {
                    board: Arc::new(ShardBoard::default()),
                    recovery: Arc::new(ShardRecovery::new(16, 16)),
                    flight: ShardFlight::new(shard),
                })
                .collect(),
        )
    }

    fn record(cause: CrashCause, lost: u64, micros: u64, quarantined: bool) -> RecoveryRecord {
        RecoveryRecord {
            shard: 0,
            generation: 0,
            cause,
            base: None,
            replayed: 3,
            recovered_seq: 0,
            lost,
            prior_applied: 0,
            quarantined,
            restart_latency: Duration::from_micros(micros),
        }
    }

    #[test]
    fn fresh_view_is_healthy_and_running() {
        let v = view(3);
        assert_eq!(v.shard_count(), 3);
        assert!(v.healthy());
        for h in v.health() {
            assert_eq!(h.state, ShardState::Running);
            assert_eq!(h.last_cause, None);
            assert_eq!(h.restarts, 0);
        }
        let json = v.health_json();
        assert!(json.starts_with("{\"healthy\":true"));
        assert!(json.contains("\"state\":\"running\""));
        assert!(json.contains("\"last_cause\":null"));
    }

    #[test]
    fn recovery_updates_flow_through() {
        let v = view(2);
        v.shards[1].board.set_state(ShardState::Quarantined, 3);
        v.shards[1]
            .board
            .record_recovery(&record(CrashCause::Panic, 17, 0, true), 4, 17);
        assert!(!v.healthy());
        let h = v.health()[1];
        assert_eq!(h.state, ShardState::Quarantined);
        assert_eq!(h.strikes, 3);
        assert_eq!(h.restarts, 0, "quarantine is not a restart");
        assert_eq!(h.generation, 4);
        assert_eq!(h.last_cause, Some(CrashCause::Panic));
        assert_eq!(h.last_lost, 17);
        let json = v.health_json();
        assert!(json.starts_with("{\"healthy\":false"));
        assert!(json.contains("\"state\":\"quarantined\""));
        assert!(json.contains("\"last_cause\":\"panic\""));
    }

    #[test]
    fn restart_increments_restarts() {
        let v = view(1);
        let board = &v.shards[0].board;
        board.record_recovery(&record(CrashCause::Hang, 5, 1234, false), 1, 5);
        board.record_recovery(&record(CrashCause::Hang, 2, 900, false), 2, 7);
        let h = v.health()[0];
        assert_eq!(h.restarts, 2);
        assert_eq!(h.generation, 2);
        assert_eq!(h.last_restart_latency_micros, 900);
        let c = v.counts()[0];
        assert_eq!((c.accounting.restarts, c.accounting.lost), (2, 7));
        assert_eq!(c.replayed, 6, "replay counts accumulate");
    }

    #[test]
    fn router_counts_flow_through() {
        let v = view(2);
        v.shards[1].board.publish_router(40, 2, 1);
        let c = v.counts();
        assert_eq!(c[0].accounting, ShardSummary::default());
        let a = c[1].accounting;
        assert_eq!((a.enqueued, a.dropped, a.rejected), (40, 2, 1));
    }

    #[test]
    fn flight_json_bounds_checked() {
        let v = view(1);
        assert!(v.flight_json(9).is_none(), "out-of-range shard");
        // In-range: Some iff the trace feature is compiled in.
        assert_eq!(v.flight_json(0).is_some(), cfg!(feature = "trace"));
    }
}
