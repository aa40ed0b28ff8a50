//! Supervision & recovery: the state and arithmetic that turn a worker
//! crash into a bounded-loss restart instead of a pipeline-fatal error.
//!
//! ## The shard lifecycle state machine
//!
//! ```text
//!            progress resumes
//!          ┌───────────────────┐
//!          ▼                   │
//!       Running ──stall──▶ Suspect ──deadline──▶ Restarting ─┐
//!          ▲                                        │        │
//!          └──────────── respawned ◀────────────────┘        │
//!                                       strikes > max ──▶ Quarantined
//! ```
//!
//! The router (single-threaded, in `pipeline.rs`) drives the machine: it
//! detects death via `PushError::Disconnected` (the worker's `AliveGuard`
//! flips the ring flag on any exit, including panic unwind) and hangs via
//! the per-shard [`ShardRecovery::progress`] counter checked against a
//! deadline whenever pushes stall. A crashed shard restarts with capped
//! exponential backoff; after `max_strikes` rapid crashes it is
//! quarantined and the pipeline degrades (that shard's items fail with a
//! typed per-item outcome) rather than dies.
//!
//! ## Checkpoint + journal: what recovery rebuilds from
//!
//! Every worker appends each applied item to a bounded in-memory
//! **replay journal** and seals a **checkpoint** every
//! `checkpoint_interval` applied items. A checkpoint is a copy of the
//! filter — `clone_from` into the slot's own filter, so it allocates
//! nothing after the slot's first seal — plus the live filter's
//! `state_digest`, taken right after the copy with qf-hash's
//! stripe-parallel kernel. The digest describes the live filter, not the
//! copy, so a copy damaged while it was written, or at any time after,
//! fails it. It is an in-memory digest, not xxh64: checkpoints never
//! leave the process. Checkpoints are double-buffered: a new seal lands
//! in the standby slot and only then becomes "latest", so a torn
//! checkpoint never replaces a good one. The journal is pruned only up
//! to the *older* checkpoint's sequence, with one `drain` of the prefix
//! whose length follows from the journal's consecutive sequence numbers.
//! Those numbers are not stored: the journal always ends at the last
//! applied item, so the front entry's is `applied + 1 − len`.
//! So `older checkpoint + journal` still reconstructs the full state when
//! the newest checkpoint fails its digest — corruption costs replay
//! time, not data.
//!
//! Recovery therefore rebuilds `copy(newest valid checkpoint) +
//! replay(journal suffix)`, yielding a filter equal to the crashed one at
//! its last journaled item. Everything past that point — the slab being
//! applied at crash time plus whatever slabs sat in the SPSC ring — is
//! the **loss window**, accounted exactly in [`RecoveryRecord::lost`] and
//! the pipeline summary, never silently absorbed. (Items still buffered
//! router-side survive a crash — they re-flush to the replacement worker
//! — so they are excluded from the window.)
//!
//! All of this state lives behind one uncontended mutex per shard
//! ([`ShardRecovery`]), written by the worker in per-slab batches (the
//! worker takes the lock once per slab of up to
//! `PipelineConfig::slab_capacity` items) and read by the router only
//! during recovery — so the fault-free hot path pays one uncontended
//! lock plus a handful of word writes per slab. Generation fencing
//! makes abandoned workers harmless: the router bumps
//! `RecoveryInner::generation` under the lock before rebuilding, and a
//! stale worker (e.g. one that was hung and later wakes) observes the
//! mismatch on its next batch commit and exits without journaling,
//! reporting, or sealing anything.

use crate::chaos::ArmedChaos;
use crate::telemetry;
use core::time::Duration;
use qf_model::sync::atomic::{AtomicU64, Ordering};
use qf_model::sync::{Mutex, MutexGuard};
use quantile_filter::QuantileFilter;
use std::collections::VecDeque;

/// Lifecycle state of a supervised shard. See the module docs for the
/// transition diagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardState {
    /// The worker is alive and making progress.
    #[default]
    Running,
    /// Pushes are stalling and the progress counter has stopped moving;
    /// the watchdog deadline is ticking.
    Suspect,
    /// A crash or hang was confirmed; the shard is being rebuilt from
    /// checkpoint + journal.
    Restarting,
    /// The shard exceeded its strike budget and will not be restarted;
    /// its items are rejected with a typed per-item outcome.
    Quarantined,
}

impl ShardState {
    /// Numeric encoding used by the `qf_pipeline_shard_state` gauge
    /// (which exports the *sum* of codes across shards, so `0` means
    /// every shard is `Running`).
    pub fn code(self) -> i64 {
        match self {
            Self::Running => 0,
            Self::Suspect => 1,
            Self::Restarting => 2,
            Self::Quarantined => 3,
        }
    }

    /// Inverse of [`code`](Self::code); `None` for unknown encodings.
    pub fn from_code(code: i64) -> Option<Self> {
        match code {
            0 => Some(Self::Running),
            1 => Some(Self::Suspect),
            2 => Some(Self::Restarting),
            3 => Some(Self::Quarantined),
            _ => None,
        }
    }

    /// Stable lowercase name used by the `/health` ops endpoint.
    pub fn name(self) -> &'static str {
        match self {
            Self::Running => "running",
            Self::Suspect => "suspect",
            Self::Restarting => "restarting",
            Self::Quarantined => "quarantined",
        }
    }
}

/// Supervision policy knobs. Passed to
/// [`Pipeline::launch_supervised`](crate::Pipeline::launch_supervised);
/// [`Default`] is what [`Pipeline::launch`](crate::Pipeline::launch) and
/// [`Pipeline::restore`](crate::Pipeline::restore) use, tuned for
/// production-ish streams (checkpoint every 8Ki items, 200 ms watchdog).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Seal a checkpoint every this many applied items (per shard). The
    /// replay journal is sized to `2 × (interval + slab_capacity)`
    /// entries so that even a corrupted newest checkpoint recovers
    /// losslessly from the older one.
    pub checkpoint_interval: u64,
    /// How long a shard's progress counter may stay frozen while its
    /// queue is refusing items before the worker is declared hung.
    pub watchdog_deadline: Duration,
    /// Crashes tolerated in quick succession before the shard is
    /// quarantined instead of restarted.
    pub max_strikes: u32,
    /// Backoff before the first restart; doubles per strike.
    pub backoff_base: Duration,
    /// Ceiling on the exponential backoff.
    pub backoff_cap: Duration,
    /// Applied items after a restart that reset the strike counter — a
    /// shard that runs this far is considered healthy again.
    pub strike_forgiveness: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            checkpoint_interval: 8192,
            watchdog_deadline: Duration::from_millis(200),
            max_strikes: 3,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(200),
            strike_forgiveness: 4 * 8192,
        }
    }
}

impl SupervisorConfig {
    /// Reject configurations the supervisor cannot honor.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.checkpoint_interval == 0 {
            return Err("checkpoint interval must be at least 1 item");
        }
        if self.watchdog_deadline.is_zero() {
            return Err("watchdog deadline must be non-zero");
        }
        Ok(())
    }

    /// Backoff before restart number `strikes` (1-based): capped
    /// exponential.
    pub fn backoff_for(&self, strikes: u32) -> Duration {
        let factor = 1u32 << strikes.saturating_sub(1).min(16);
        self.backoff_base
            .saturating_mul(factor)
            .min(self.backoff_cap)
    }
}

/// Why a shard was recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashCause {
    /// The worker thread exited without being told to (panic unwind,
    /// observed as `PushError::Disconnected`).
    Panic,
    /// The worker stopped making progress past the watchdog deadline.
    Hang,
    /// The worker failed to drain and exit within the shutdown deadline.
    ShutdownStall,
}

impl CrashCause {
    /// Numeric encoding carried in the `a` payload of flight-recorder
    /// restart/quarantine events (`0` is reserved for "unknown").
    pub fn code(self) -> u64 {
        match self {
            Self::Panic => 1,
            Self::Hang => 2,
            Self::ShutdownStall => 3,
        }
    }

    /// Stable lowercase name used in flight dumps and `/health` output.
    pub fn name(self) -> &'static str {
        match self {
            Self::Panic => "panic",
            Self::Hang => "hang",
            Self::ShutdownStall => "shutdown_stall",
        }
    }

    /// Inverse of [`code`](Self::code); `None` for `0` and unknown codes.
    pub fn from_code(code: u64) -> Option<Self> {
        match code {
            1 => Some(Self::Panic),
            2 => Some(Self::Hang),
            3 => Some(Self::ShutdownStall),
            _ => None,
        }
    }
}

/// What recovery rebuilt the shard's filter from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveredBase {
    /// A copy of the checkpoint at `seq` + journal replay.
    Checkpoint {
        /// Applied-item sequence the checkpoint captured.
        seq: u64,
    },
    /// No checkpoint existed yet; the shard's base — a filter built from
    /// the config, or the frame it was restored from — replayed the full
    /// journal (which still covered the shard's whole history).
    Fresh,
    /// Neither checkpoint passed its digest *and* the journal no longer
    /// reached back to item 1: the shard restarted from its base and its
    /// later state is gone. `RecoveryRecord::prior_applied` says how much.
    StateLoss,
}

/// One recovery event, as recorded in
/// [`PipelineSummary::recoveries`](crate::PipelineSummary::recoveries).
/// The loss bound: a crash loses exactly `lost` items — the uncommitted
/// slabs holding a ring slot at crash time, the one being applied
/// included, at most `PipelineConfig::ring_slots() × slab_capacity` —
/// and nothing else. A quarantine record also counts the router-held
/// slab it discards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryRecord {
    /// Shard that crashed.
    pub shard: usize,
    /// Generation that was fenced (the replacement runs `generation+1`).
    pub generation: u64,
    /// What the supervisor observed.
    pub cause: CrashCause,
    /// What the replacement filter was rebuilt from; `None` when no
    /// rebuild was attempted (quarantine on strike exhaustion, terminal
    /// fence at shutdown).
    pub base: Option<RecoveredBase>,
    /// Journal items re-applied on top of the base (reports suppressed —
    /// they were already emitted by the crashed generation).
    pub replayed: u64,
    /// Applied-item sequence the replacement resumed from.
    pub recovered_seq: u64,
    /// Items whose effect did not survive: enqueued but never journaled.
    pub lost: u64,
    /// Items the fenced generation had applied before the crash (only
    /// differs from `recovered_seq` under [`RecoveredBase::StateLoss`]).
    pub prior_applied: u64,
    /// `true` when this crash exhausted the strike budget and the shard
    /// was quarantined instead of restarted.
    pub quarantined: bool,
    /// Detection-to-respawn wall time (zero when quarantined).
    pub restart_latency: Duration,
}

/// One applied item. Its sequence number is implied by its position: the
/// journal holds the consecutive items ending at `RecoveryInner::applied`.
#[derive(Debug, Clone, Copy)]
struct JournalEntry {
    key: u64,
    value: f64,
}

#[derive(Debug)]
struct Checkpoint {
    seq: u64,
    filter: QuantileFilter,
    /// `filter.state_digest()` at the seal; a mismatch at recovery means
    /// the copy was damaged in memory.
    digest: u64,
}

/// The mutex-guarded half of a shard's recovery state. Workers append to
/// it once per burst; the router reads it only while recovering or
/// summarizing.
#[derive(Debug)]
pub(crate) struct RecoveryInner {
    /// Fencing token: bumped by the router before every rebuild. A
    /// worker whose own generation no longer matches must exit without
    /// side effects.
    pub(crate) generation: u64,
    /// Applied-and-journaled items of the surviving lineage.
    pub(crate) applied: u64,
    /// Reports emitted for journaled items (crash-safe report count).
    pub(crate) reports: u64,
    /// Items shed by the worker under `DropOldest` (popped, discarded,
    /// never applied).
    pub(crate) shed: u64,
    journal: VecDeque<JournalEntry>,
    journal_cap: usize,
    slots: [Option<Checkpoint>; 2],
    latest: usize,
    seals: u64,
}

/// Per-shard recovery state shared between the router, the live worker,
/// and any abandoned predecessors (which the generation fence renders
/// inert).
#[derive(Debug)]
pub(crate) struct ShardRecovery {
    inner: Mutex<RecoveryInner>,
    /// Liveness counter: bumped per popped item, read by the watchdog.
    /// Monotone across generations; only "has it moved" matters.
    // sync: counter — relaxed watchdog heartbeat; a stale read only
    // delays a hang verdict by one scan, and every state handoff goes
    // through `inner`'s lock edges.
    progress: AtomicU64,
}

impl ShardRecovery {
    /// `max_burst` is the largest batch a worker commits under one lock
    /// acquisition — the pipeline's slab capacity — so the journal can
    /// always absorb a full checkpoint interval plus one in-flight slab
    /// on both sides of the double-buffered prune horizon.
    pub(crate) fn new(checkpoint_interval: u64, max_burst: usize) -> Self {
        let journal_cap = 2 * (checkpoint_interval as usize + max_burst);
        Self {
            inner: Mutex::new(RecoveryInner {
                generation: 0,
                applied: 0,
                reports: 0,
                shed: 0,
                journal: VecDeque::with_capacity(journal_cap + 1),
                journal_cap,
                slots: [None, None],
                latest: 0,
                seals: 0,
            }),
            progress: AtomicU64::new(0),
        }
    }

    /// Bump the liveness counter by `n` popped items; returns the value
    /// *before* the bump (the pop ordinal base for the burst).
    pub(crate) fn note_progress(&self, n: u64) -> u64 {
        self.progress.fetch_add(n, Ordering::Relaxed)
    }

    /// Current liveness counter (watchdog side).
    pub(crate) fn progress(&self) -> u64 {
        self.progress.load(Ordering::Relaxed)
    }

    /// Lock the inner state. Poisoning is tolerated (the shim's `lock`
    /// continues with the inner data): a worker can only panic inside
    /// `filter.insert` (outside the lock) or via injected chaos, but if
    /// a panic ever does land mid-commit the recovery data is still the
    /// best information available.
    pub(crate) fn lock(&self) -> MutexGuard<'_, RecoveryInner> {
        self.inner.lock()
    }
}

/// What [`RecoveryInner::recover`] rebuilt.
#[derive(Debug)]
pub(crate) struct Recovered {
    pub(crate) filter: QuantileFilter,
    pub(crate) base: RecoveredBase,
    pub(crate) replayed: u64,
    /// `applied` of the fenced lineage at recovery time.
    pub(crate) prior_applied: u64,
    /// `applied` the replacement resumes from (== `prior_applied` except
    /// under `StateLoss`, where it is 0).
    pub(crate) recovered_seq: u64,
}

impl RecoveryInner {
    /// Journal a slab of applied items, in order. Called by the worker
    /// inside its batch commit, after the generation check.
    pub(crate) fn append(&mut self, items: &[(u64, f64)]) {
        self.applied += items.len() as u64;
        self.journal.extend(
            items
                .iter()
                .map(|&(key, value)| JournalEntry { key, value }),
        );
        // Unreachable by construction (seals prune faster than the cap),
        // but a bounded journal must stay bounded regardless.
        let excess = self.journal.len().saturating_sub(self.journal_cap);
        self.journal.drain(..excess);
    }

    /// Checkpoints sealed so far (the chaos seal ordinal).
    #[cfg(test)]
    pub(crate) fn seals(&self) -> u64 {
        self.seals
    }

    /// Sequence number of the journal's front entry (`applied + 1` when
    /// the journal is empty): entries are consecutive and end at
    /// `applied`.
    fn front_seq(&self) -> u64 {
        self.applied + 1 - self.journal.len() as u64
    }

    /// The journal's entries with their sequence numbers.
    #[cfg(test)]
    fn journal_with_seqs(&self) -> impl Iterator<Item = (u64, &JournalEntry)> {
        (self.front_seq()..).zip(&self.journal)
    }

    fn latest_seq(&self) -> u64 {
        self.slots[self.latest].as_ref().map_or(0, |c| c.seq)
    }

    /// Is the shard due for a checkpoint at the current batch boundary?
    pub(crate) fn due_seal(&self, interval: u64) -> bool {
        self.applied - self.latest_seq() >= interval
    }

    /// Seal a checkpoint of `filter` (whose state must equal the journal
    /// head, i.e. call this only at a batch boundary). Runs once per
    /// `checkpoint_interval` items, never per item. The copy lands in the
    /// standby slot's filter through `clone_from`, so after the first two
    /// seals a seal allocates nothing.
    pub(crate) fn seal_checkpoint(
        &mut self,
        shard: usize,
        filter: &QuantileFilter,
        chaos: Option<&ArmedChaos>,
    ) {
        let standby = 1 - self.latest;
        let copy = match self.slots[standby].take() {
            Some(mut old) => {
                old.filter.clone_from(filter);
                old.filter
            }
            None => filter.clone(),
        };
        // The source's digest, not the copy's: damage done to the copy
        // while it was written then fails recovery's check.
        let mut digest = filter.state_digest();
        self.seals += 1;
        if let Some(ch) = chaos {
            ch.corrupt_checkpoint(shard, self.seals, &mut digest);
        }
        self.slots[standby] = Some(Checkpoint {
            seq: self.applied,
            filter: copy,
            digest,
        });
        self.latest = standby;
        // Keep the journal reaching back to the *older* checkpoint so a
        // corrupt newest one still recovers losslessly. Journal seqs are
        // consecutive, so the entries at or below `bound` are a prefix
        // whose length follows from the front entry's seq.
        let bound = self.slots[1 - standby].as_ref().map_or(0, |c| c.seq);
        let stale = (bound + 1).saturating_sub(self.front_seq()) as usize;
        self.journal.drain(..stale.min(self.journal.len()));
        telemetry::checkpoint_sealed();
        // Runs on the worker thread (under the commit lock), so the
        // thread-local flight context routes this to the shard's ring.
        crate::flight::checkpoint_seal(self.seals, self.applied);
    }

    /// Rebuild a filter from the best available base without mutating
    /// anything: newest valid checkpoint + journal suffix, else older
    /// checkpoint, else the shard's base (`build_fresh`) when the journal
    /// still covers the whole history. A checkpoint is valid when its
    /// copy still matches its digest. `None` means the state is
    /// unrecoverable (both checkpoints bad and the journal is pruned) or
    /// `build_fresh` failed.
    pub(crate) fn reconstruct(
        &self,
        build_fresh: &mut dyn FnMut() -> Option<QuantileFilter>,
    ) -> Option<(QuantileFilter, RecoveredBase, u64)> {
        for idx in [self.latest, 1 - self.latest] {
            let Some(c) = &self.slots[idx] else { continue };
            if c.filter.state_digest() != c.digest {
                continue;
            }
            let mut filter = c.filter.clone();
            if let Some(replayed) = self.replay_onto(&mut filter, c.seq) {
                return Some((filter, RecoveredBase::Checkpoint { seq: c.seq }, replayed));
            }
        }
        // No checkpoint is usable. The base works iff the journal still
        // reaches back to item 1 (or nothing was ever applied).
        let covers_all = self.front_seq() == 1;
        if covers_all {
            let mut filter = build_fresh()?;
            let replayed = self.replay_onto(&mut filter, 0)?;
            return Some((filter, RecoveredBase::Fresh, replayed));
        }
        None
    }

    /// Replay journal entries `(base_seq, applied]` onto `filter`,
    /// suppressing reports (the crashed generation already emitted
    /// them). `None` if the journal does not reach back to
    /// `base_seq + 1`; it always reaches forward to `applied`.
    fn replay_onto(&self, filter: &mut QuantileFilter, base_seq: u64) -> Option<u64> {
        let front = self.front_seq();
        if front > base_seq + 1 {
            return None;
        }
        let skip = (base_seq + 1 - front) as usize;
        for e in self.journal.iter().skip(skip) {
            let _ = filter.insert(&e.key, e.value);
        }
        Some(self.applied - base_seq)
    }

    /// Fence the current generation and rebuild the shard's filter.
    /// `None` only when `build_fresh` itself fails — every other path
    /// degrades to [`RecoveredBase::StateLoss`] (restart empty, account
    /// the rollback) rather than giving up.
    pub(crate) fn recover(
        &mut self,
        build_fresh: &mut dyn FnMut() -> Option<QuantileFilter>,
    ) -> Option<Recovered> {
        self.generation += 1;
        let prior_applied = self.applied;
        if let Some((filter, base, replayed)) = self.reconstruct(build_fresh) {
            telemetry::replayed(replayed);
            return Some(Recovered {
                filter,
                base,
                replayed,
                prior_applied,
                recovered_seq: prior_applied,
            });
        }
        // Unrecoverable state: restart the lineage from its base.
        let filter = build_fresh()?;
        self.applied = 0;
        self.journal.clear();
        self.slots = [None, None];
        self.latest = 0;
        Some(Recovered {
            filter,
            base: RecoveredBase::StateLoss,
            replayed: 0,
            prior_applied,
            recovered_seq: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quantile_filter::{Criteria, QuantileFilterBuilder};

    fn build() -> QuantileFilter {
        let criteria = match Criteria::new(5.0, 0.9, 100.0) {
            Ok(c) => c,
            Err(e) => panic!("criteria: {e:?}"),
        };
        match QuantileFilterBuilder::new(criteria)
            .memory_budget_bytes(16 * 1024)
            .seed(7)
            .try_build()
        {
            Ok(f) => f,
            Err(e) => panic!("build: {e:?}"),
        }
    }

    fn drive(
        rec: &ShardRecovery,
        filter: &mut QuantileFilter,
        items: &[(u64, f64)],
        interval: u64,
    ) {
        for &(k, v) in items {
            let _ = filter.insert(&k, v);
            let mut inner = rec.lock();
            inner.append(&[(k, v)]);
            if inner.due_seal(interval) {
                inner.seal_checkpoint(0, filter, None);
            }
        }
    }

    fn workload(n: usize) -> Vec<(u64, f64)> {
        (0..n)
            .map(|i| {
                let key = (i as u64 * 2654435761) % 37;
                let value = if i % 9 == 0 { 450.0 } else { (i % 20) as f64 };
                (key, value)
            })
            .collect()
    }

    #[test]
    fn recover_equals_uncrashed_filter() {
        let rec = ShardRecovery::new(16, 16);
        let mut filter = build();
        let items = workload(300);
        drive(&rec, &mut filter, &items, 16);
        let mut inner = rec.lock();
        let recovered = match inner.recover(&mut || Some(build())) {
            Some(r) => r,
            None => panic!("recover failed"),
        };
        assert_eq!(recovered.recovered_seq, 300);
        assert_eq!(recovered.prior_applied, 300);
        assert!(matches!(
            recovered.base,
            RecoveredBase::Checkpoint { .. } | RecoveredBase::Fresh
        ));
        // The rebuilt filter is byte-identical to the live one.
        assert_eq!(recovered.filter.snapshot(), filter.snapshot());
        assert_eq!(inner.generation, 1);
    }

    /// Where a checkpoint's sketch grid lives (its largest array).
    fn grid_ptr(c: &Checkpoint) -> *const i8 {
        c.filter.vague_part().inner().raw_cells().as_ptr()
    }

    #[test]
    fn seal_copies_into_the_standby_filter() {
        let rec = ShardRecovery::new(16, 16);
        let mut filter = build();
        drive(&rec, &mut filter, &workload(32), 16);
        let mut inner = rec.lock();
        assert_eq!(inner.seals(), 2, "both slots hold a checkpoint");
        let standby = 1 - inner.latest;
        let old = inner.slots[standby].as_ref().map(grid_ptr);
        for (k, v) in workload(5) {
            let _ = filter.insert(&k, v);
        }
        inner.seal_checkpoint(0, &filter, None);
        assert_eq!(inner.latest, standby);
        let latest = inner.slots[standby].as_ref();
        assert_eq!(latest.map(grid_ptr), old, "the seal reallocated");
        assert_eq!(latest.map(|c| c.filter.snapshot()), Some(filter.snapshot()));
        assert_eq!(latest.map(|c| c.digest), Some(filter.state_digest()));
    }

    #[test]
    fn slab_append_numbers_and_bounds_the_journal() {
        // cap = 2 × (interval + burst) = 12 entries.
        let rec = ShardRecovery::new(4, 2);
        let mut inner = rec.lock();
        let items: Vec<(u64, f64)> = (0..20).map(|i| (i, i as f64)).collect();
        inner.append(&items[..5]);
        inner.append(&items[5..]);
        assert_eq!(inner.applied, 20);
        let seqs: Vec<u64> = inner.journal_with_seqs().map(|(seq, _)| seq).collect();
        assert_eq!(seqs, (9..=20).collect::<Vec<_>>(), "newest 12, in order");
        assert!(inner.journal_with_seqs().all(|(seq, e)| e.key + 1 == seq));
    }

    #[test]
    fn recover_before_first_checkpoint_replays_full_journal() {
        let rec = ShardRecovery::new(1000, 16);
        let mut filter = build();
        let items = workload(50);
        drive(&rec, &mut filter, &items, 1000);
        let mut inner = rec.lock();
        assert_eq!(inner.seals(), 0);
        let recovered = match inner.recover(&mut || Some(build())) {
            Some(r) => r,
            None => panic!("recover failed"),
        };
        assert_eq!(recovered.base, RecoveredBase::Fresh);
        assert_eq!(recovered.replayed, 50);
        assert_eq!(recovered.filter.snapshot(), filter.snapshot());
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_to_older() {
        let rec = ShardRecovery::new(16, 16);
        let mut filter = build();
        drive(&rec, &mut filter, &workload(200), 16);
        let mut inner = rec.lock();
        // Corrupt the newest slot in place.
        let latest = inner.latest;
        if let Some(c) = inner.slots[latest].as_mut() {
            c.digest ^= 0x40;
        } else {
            panic!("no newest checkpoint after 200 items at interval 16");
        }
        let newest_seq = inner.latest_seq();
        let recovered = match inner.recover(&mut || Some(build())) {
            Some(r) => r,
            None => panic!("recover failed"),
        };
        match recovered.base {
            RecoveredBase::Checkpoint { seq } => {
                assert!(seq < newest_seq, "fell back past the corrupt newest")
            }
            other => panic!("expected older-checkpoint base, got {other:?}"),
        }
        assert_eq!(recovered.recovered_seq, 200, "fallback is lossless");
        assert_eq!(recovered.filter.snapshot(), filter.snapshot());
    }

    /// The digest covers the checkpoint's data, not only itself: a copy
    /// changed after its seal fails its digest, and recovery falls back
    /// to the older checkpoint without losing an item.
    #[test]
    fn damaged_checkpoint_copy_falls_back_to_older() {
        let rec = ShardRecovery::new(16, 16);
        let mut filter = build();
        drive(&rec, &mut filter, &workload(200), 16);
        let mut inner = rec.lock();
        assert!(inner.seals() >= 3, "seals: {}", inner.seals());
        let latest = inner.latest;
        let newest_seq = inner.latest_seq();
        let older_seq = inner.slots[1 - latest].as_ref().map(|c| c.seq);
        let Some(newest) = inner.slots[latest].as_mut() else {
            panic!("no newest checkpoint after 200 items at interval 16");
        };
        // Deleting a tracked key zeroes its Qweight in the copy.
        let damaged = (0..37u64).any(|key| newest.filter.delete(&key) != 0);
        assert!(damaged, "no tracked key had a Qweight to delete");
        assert_ne!(newest.filter.state_digest(), newest.digest);
        let recovered = match inner.recover(&mut || Some(build())) {
            Some(r) => r,
            None => panic!("recover failed"),
        };
        assert_eq!(
            recovered.base,
            RecoveredBase::Checkpoint {
                seq: older_seq.unwrap_or(0)
            }
        );
        assert!(older_seq < Some(newest_seq));
        assert_eq!(recovered.recovered_seq, inner.applied);
        assert_eq!(recovered.recovered_seq, 200);
        assert_eq!(recovered.filter.snapshot(), filter.snapshot());
    }

    /// A seal prunes the journal to the entries after the older
    /// checkpoint, whatever the slab lengths that reached it.
    #[test]
    fn seal_prunes_the_journal_to_the_older_checkpoint() {
        let (interval, max_slab) = (40, 23);
        let rec = ShardRecovery::new(interval, max_slab);
        let mut filter = build();
        let items = workload(1_000);
        // Uneven slabs, as the poll handoff cuts them.
        let lens = [1, 23, 7, 16, 2, 11, 23, 5, 1, 19];
        let mut at = 0;
        let mut seals = 0;
        for len in lens.iter().cycle() {
            let slab = &items[at..(at + len).min(items.len())];
            if slab.is_empty() {
                break;
            }
            at += slab.len();
            for &(k, v) in slab {
                let _ = filter.insert(&k, v);
            }
            let mut inner = rec.lock();
            inner.append(slab);
            if !inner.due_seal(interval) {
                continue;
            }
            inner.seal_checkpoint(0, &filter, None);
            seals += 1;
            let older = inner.slots[1 - inner.latest].as_ref().map_or(0, |c| c.seq);
            let seqs: Vec<u64> = inner.journal_with_seqs().map(|(seq, _)| seq).collect();
            assert_eq!(seqs.first(), Some(&(older + 1)), "seal {seals}");
            assert_eq!(seqs.last(), Some(&inner.applied), "seal {seals}");
            assert_eq!(seqs.len() as u64, inner.applied - older, "seal {seals}");
            if seals == 1 {
                assert_eq!(older, 0, "the first seal keeps the journal from item 1");
            }
        }
        assert!(seals > 10, "seals: {seals}");
    }

    #[test]
    fn both_checkpoints_corrupt_degrades_to_state_loss() {
        let rec = ShardRecovery::new(16, 16);
        let mut filter = build();
        drive(&rec, &mut filter, &workload(200), 16);
        let mut inner = rec.lock();
        for slot in inner.slots.iter_mut().flatten() {
            slot.digest ^= 0xFF;
        }
        let recovered = match inner.recover(&mut || Some(build())) {
            Some(r) => r,
            None => panic!("recover failed"),
        };
        assert_eq!(recovered.base, RecoveredBase::StateLoss);
        assert_eq!(recovered.prior_applied, 200);
        assert_eq!(recovered.recovered_seq, 0);
        assert_eq!(inner.applied, 0);
        // The lineage restarts cleanly: new appends journal from seq 1.
        inner.append(&[(1, 1.0)]);
        assert_eq!(inner.applied, 1);
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let cfg = SupervisorConfig {
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(12),
            ..SupervisorConfig::default()
        };
        assert_eq!(cfg.backoff_for(1), Duration::from_millis(2));
        assert_eq!(cfg.backoff_for(2), Duration::from_millis(4));
        assert_eq!(cfg.backoff_for(3), Duration::from_millis(8));
        assert_eq!(cfg.backoff_for(4), Duration::from_millis(12));
        assert_eq!(cfg.backoff_for(30), Duration::from_millis(12));
    }

    #[test]
    fn config_validation() {
        assert!(SupervisorConfig::default().validate().is_ok());
        let bad = SupervisorConfig {
            checkpoint_interval: 0,
            ..SupervisorConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = SupervisorConfig {
            watchdog_deadline: Duration::ZERO,
            ..SupervisorConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn shard_state_codes_are_ordered() {
        assert_eq!(ShardState::Running.code(), 0);
        assert!(ShardState::Suspect.code() < ShardState::Restarting.code());
        assert_eq!(ShardState::Quarantined.code(), 3);
        assert_eq!(ShardState::default(), ShardState::Running);
    }

    /// Replay an arbitrary prefix `items[..upto]` into a fresh filter —
    /// the uncrashed serial reference for the equivalence property.
    fn reference_over(items: &[(u64, f64)], upto: usize) -> QuantileFilter {
        let mut f = build();
        for &(k, v) in &items[..upto] {
            let _ = f.insert(&k, v);
        }
        f
    }

    const PROPTEST_CASES: u32 = if cfg!(miri) { 6 } else { 48 };

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(PROPTEST_CASES))]

        /// The recovery-equivalence property: for ANY crash point, ANY
        /// checkpoint interval, ANY workload, and ANY corruption mode,
        /// `restore(checkpoint) + replay(journal)` rebuilds a filter
        /// byte-identical to an uncrashed run over the same prefix — or,
        /// when corruption forces `StateLoss`, says so honestly with
        /// `recovered_seq == 0` instead of resurrecting silent garbage.
        #[test]
        fn prop_recovery_matches_uncrashed_run(
            raw in proptest::collection::vec((0u64..64, 0.0f64..500.0), 1..300),
            interval in 1u64..40,
            corrupt_mode in 0u8..3,
        ) {
            let crash_at = raw.len();
            let rec = ShardRecovery::new(interval, 16);
            let mut live = build();
            drive(&rec, &mut live, &raw, interval);
            let mut inner = rec.lock();
            match corrupt_mode {
                0 => {}
                1 => {
                    let latest = inner.latest;
                    if let Some(c) = inner.slots[latest].as_mut() {
                        c.digest ^= 0x40;
                    }
                }
                _ => {
                    for slot in inner.slots.iter_mut().flatten() {
                        slot.digest ^= 0xFF;
                    }
                }
            }
            let had_checkpoint = inner.slots.iter().any(Option::is_some);
            let recovered = match inner.recover(&mut || Some(build())) {
                Some(r) => r,
                None => panic!("recover with a working builder must not fail"),
            };
            proptest::prop_assert_eq!(recovered.prior_applied, crash_at as u64);
            match recovered.base {
                RecoveredBase::Checkpoint { .. } | RecoveredBase::Fresh => {
                    proptest::prop_assert_eq!(recovered.recovered_seq, crash_at as u64);
                    proptest::prop_assert_eq!(
                        recovered.filter.snapshot(),
                        reference_over(&raw, crash_at).snapshot(),
                        "recovered filter diverged: crash_at={} interval={} mode={}",
                        crash_at, interval, corrupt_mode
                    );
                }
                RecoveredBase::StateLoss => {
                    // Only reachable when corruption removed every usable
                    // base AND the journal no longer reaches item 1.
                    proptest::prop_assert!(corrupt_mode == 2 && had_checkpoint);
                    proptest::prop_assert_eq!(recovered.recovered_seq, 0);
                    proptest::prop_assert_eq!(inner.applied, 0);
                }
            }
            // Single-slot corruption is ALWAYS lossless: the journal is
            // pruned only to the older checkpoint's seq, so the older
            // slot (or the journal alone) still covers the gap.
            if corrupt_mode < 2 {
                proptest::prop_assert_eq!(recovered.recovered_seq, crash_at as u64);
            }
        }
    }

    /// Exhaustive model check of the generation fence (runs only under
    /// `RUSTFLAGS='--cfg qf_model'`, via `cargo xtask model`).
    ///
    /// The protocol under verification is the worker's batch commit
    /// (`worker.rs`): take the recovery lock, compare
    /// `RecoveryInner::generation` against the worker's own generation
    /// *under that lock*, and only then journal the batch. The fence
    /// invariant: once the router has bumped the generation, a stale
    /// worker's commit is side-effect-free — `applied` never moves
    /// after the router snapshots it at recovery time.
    #[cfg(qf_model)]
    mod fencing {
        use super::super::ShardRecovery;
        use qf_model::sync::thread;
        use qf_model::{try_model, Checker};
        use std::sync::Arc;

        /// Worker committing concurrently with the router fencing: in
        /// every interleaving the commit either lands before the fence
        /// (and is counted in the router's snapshot) or is refused by
        /// the generation check — the snapshot is final either way.
        #[test]
        fn stale_commit_after_fence_is_side_effect_free() {
            let stats = Checker::new()
                .check(|| {
                    let rec = Arc::new(ShardRecovery::new(8, 4));
                    let worker = {
                        let rec = Arc::clone(&rec);
                        // Worker of generation 0: the real commit shape —
                        // generation checked under the same lock hold as
                        // the append.
                        thread::spawn(move || {
                            let mut inner = rec.lock();
                            if inner.generation == 0 {
                                inner.append(&[(1, 1.0)]);
                            }
                        })
                    };
                    let snap = {
                        let mut inner = rec.lock();
                        // `build_fresh` refusing means recover() bumps the
                        // fence and leaves every other field untouched —
                        // the minimal router rebuild.
                        let _ = inner.recover(&mut || None);
                        inner.applied
                    };
                    worker.join().unwrap();
                    let final_applied = rec.lock().applied;
                    assert_eq!(
                        final_applied, snap,
                        "stale commit landed after the generation fence"
                    );
                })
                .expect("generation fence must make stale commits side-effect-free");
            assert!(stats.executions > 1, "stats: {stats:?}");
        }

        /// Seeded-bug self-test: the same commit with the generation
        /// check hoisted *outside* the lock hold that appends. The
        /// fence can then land between check and append, and the stale
        /// commit goes through — the checker must catch it.
        #[test]
        fn seeded_check_outside_lock_caught() {
            let v = try_model(|| {
                let rec = Arc::new(ShardRecovery::new(8, 4));
                let worker = {
                    let rec = Arc::clone(&rec);
                    thread::spawn(move || {
                        // BUG under test: generation read under one lock
                        // hold, append under another.
                        let gen_then = rec.lock().generation;
                        if gen_then == 0 {
                            rec.lock().append(&[(1, 1.0)]);
                        }
                    })
                };
                let snap = {
                    let mut inner = rec.lock();
                    let _ = inner.recover(&mut || None);
                    inner.applied
                };
                worker.join().unwrap();
                let final_applied = rec.lock().applied;
                assert_eq!(
                    final_applied, snap,
                    "stale commit landed after the generation fence"
                );
            });
            let v = v.expect_err("unfenced check-then-append must admit a stale commit");
            assert!(v.message.contains("stale commit"), "{}", v.message);
        }
    }
}
