//! The pipeline itself: config, launch, routing, backpressure, snapshot
//! under load, supervision/recovery, and drained shutdown.
//!
//! ## Topology
//!
//! ```text
//!              ┌─ SPSC ring ─ worker 0 (owns QuantileFilter #0) ─┐
//!  router ─────┼─ SPSC ring ─ worker 1 (owns QuantileFilter #1) ─┼─ mpsc ─ caller
//!  (1 thread)  └─ SPSC ring ─ worker N (owns QuantileFilter #N) ─┘  sink
//! ```
//!
//! The router ([`Pipeline::ingest`], single-threaded by `&mut self`)
//! hashes each key to its shard with [`crate::shard_of`] and appends it
//! to that shard's **slab** — a bounded chunk buffered in the router. A
//! slab is flushed into the shard's bounded queue as one ring slot when
//! it fills, when [`Pipeline::poll_reports`] finds the shard's queue
//! empty (its worker is idle, so the partial slab goes now rather than
//! waiting to fill), and on quiesce, snapshot, [`Pipeline::flush`], and
//! shutdown. The Lamport handshake, the park/wake handshake, and the
//! drop accounting are paid once per slab instead of once per item.
//! Each worker owns its filter outright — the paper's
//! single-writer deployment model, preserved per shard — drains each
//! slab through the fused `insert_batch` hot path, sends [`Event`]s
//! into one shared mpsc sink the caller drains with
//! [`Pipeline::poll_reports`], and leaves the emptied slab in its ring
//! slot, where the router's next push takes it back: a warmed router
//! refills slabs instead of allocating one per handoff.
//!
//! ## Supervision
//!
//! Every pipeline runs the self-healing layer from [`crate::supervisor`]
//! ([`Pipeline::launch`] with [`SupervisorConfig::default`],
//! [`Pipeline::launch_supervised`] with explicit settings): the router
//! doubles as supervisor, detecting worker death on `Disconnected` pushes
//! and worker *hangs* via a per-shard progress watchdog, then fencing the
//! old generation and respawning the shard from its checkpoint + replay
//! journal with capped exponential backoff. Repeated rapid crashes
//! quarantine the shard: its items come back as
//! [`IngestOutcome::ShardDown`] and the rest of the pipeline keeps
//! running. Per shard this costs the filter, two checkpoint copies of it,
//! and a journal of `2 × (checkpoint_interval + slab_capacity)` entries.
//!
//! ## Conservation laws
//!
//! Pinned by the stress and chaos suites, for every shard and in total:
//!
//! ```text
//! offered  == enqueued + dropped + rejected        (router-side)
//! enqueued == processed + shed + lost_to_crash     (after drained shutdown)
//! ```
//!
//! `rejected` counts items refused because their shard was quarantined;
//! `shed` counts oldest-**slab** drops under the shedding policies (a
//! shed credit discards the whole slab at the queue head, every
//! contained item counted, and its keys un-noted from the `ShedFair`
//! sketch); `lost_to_crash` is exactly the accounted loss
//! window of each crash (the uncommitted slabs holding a ring slot, the
//! one being applied included — items still buffered in the router
//! survive a restart and flush to the replacement worker), zero when
//! nothing crashed. Both laws hold at
//! slab granularity: `enqueued` counts admission into the router slab,
//! which is an extension of the queue — shutdown and snapshot flush it
//! before cutting.
//!
//! ## Ordering guarantee (and its limits)
//!
//! Per shard, items are applied in exactly the order they were ingested,
//! and reports from one shard arrive in the sink in emission order.
//! *Across* shards no order is defined — two reports from different
//! shards may arrive in either order relative to their ingest order.
//! Since per-key state never crosses shards, the reported *key set* (and
//! each shard's report sequence) is identical to single-threaded
//! execution; only the cross-shard interleaving of the sink is
//! scheduling-dependent. The same holds outside the accounted loss
//! windows of crashes: a recovered shard's report sequence is the
//! serial reference's sequence with the lost items' reports excised.

use crate::chaos::{ArmedChaos, ChaosPlan};
use crate::flight::ShardFlight;
use crate::health::{OpsView, ShardBoard, ShardView};
use crate::ring::{Producer, PushError, SpscRing};
use crate::snapshot::{open_shards, seal_shards};
use crate::supervisor::{CrashCause, RecoveryRecord, ShardRecovery, ShardState, SupervisorConfig};
use crate::worker::{run_supervised, Event, Msg, Slab, Supervision};
use crate::{shard_of, PipelineError};
use quantile_filter::{Criteria, QuantileFilter, QuantileFilterBuilder, Report};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Spin/yield rounds per bounded push attempt on the blocking path,
/// between watchdog checks. Small enough that a hung worker is noticed
/// within a few clock reads, large enough that the clock is not on the
/// per-push path when the queue has room.
const PUSH_ROUND_BUDGET: usize = 512;

/// What the router does when a shard queue is full. The policy resolves
/// when a filled slab meets a full ring, against the incoming item (the
/// one that filled the slab). Only `DropNewest` acts at once: the other
/// three first wait for room, up to `PUSH_ROUND_BUDGET` (512) spin/yield
/// rounds per attempt, so while the worker keeps draining they all behave
/// like `Block`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Wait (spin/yield) until the worker frees a slot. Lossless;
    /// ingest latency absorbs the overload.
    Block,
    /// Drop the incoming item as soon as one push finds the ring full,
    /// without waiting, and count it per shard (served as
    /// `qf_pipeline_dropped_total{shard="N"}`). The rest of the slab stays
    /// buffered for the next flush. Bounded ingest latency; the drop rate
    /// is the overload signal.
    DropNewest,
    /// Admit the incoming item by shedding the *oldest* queued slab. A
    /// full ring first makes the router wait up to 512 spin/yield rounds,
    /// as `Block` does. Only if the ring is still full does it post a
    /// shed credit, which the worker redeems by discarding the slab at
    /// the queue head (every contained item counted per shard as `shed`);
    /// the router then waits for the slot that frees. Keeps the freshest
    /// data when the worker stalls — the right bias for an online
    /// detector. At `slab_capacity: 1` this is exactly the v1 oldest-item
    /// drop.
    DropOldest,
    /// `DropOldest` with per-key fairness: admission history is sampled
    /// into 256 key buckets. After the same wait of up to 512 rounds, an
    /// item from a bucket holding more than 4× its fair share is dropped
    /// *itself* instead of posting a shed credit against someone else's
    /// oldest slab. Heavy keys absorb the overload they cause; light keys
    /// keep flowing.
    ShedFair,
}

/// Static configuration of a [`Pipeline`].
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Number of shards == worker threads. Keys are partitioned across
    /// shards by [`crate::shard_of`].
    pub shards: usize,
    /// Detection criteria, shared by every shard's filter.
    pub criteria: Criteria,
    /// Memory budget per shard filter, in bytes.
    pub memory_bytes_per_shard: usize,
    /// Items per shard queue (minimum 2). The ring carries whole slabs,
    /// so it gets [`Self::ring_slots`] slots and holds up to
    /// `ring_slots() * slab_capacity` items, the slab the worker is
    /// applying included: `queue_capacity` rounded up to whole slabs and
    /// a power-of-two slot count.
    pub queue_capacity: usize,
    /// The maximum slab size: items the router buffers per shard before
    /// handing them over as one ring slot (minimum 1; `1` reproduces the
    /// v1 per-item handoff semantics bit for bit). A slab is handed over
    /// when it is full, at [`Pipeline::flush`], snapshot and shutdown, or
    /// at a [`Pipeline::poll_reports`] that finds its queue empty, so an
    /// idle worker gets partial slabs. Larger slabs amortize the handoff
    /// and wake handshakes under load and widen both the shed and the
    /// crash-loss granule.
    pub slab_capacity: usize,
    /// Full-queue behavior.
    pub policy: BackpressurePolicy,
    /// Base RNG seed; shard `i` uses `seed.wrapping_add(i)`, matching the
    /// distinct-seeds-per-shard convention of the eval harness.
    pub seed: u64,
}

impl PipelineConfig {
    /// The seed shard `i`'s filter is built with.
    pub fn shard_seed(&self, shard: usize) -> u64 {
        self.seed.wrapping_add(shard as u64)
    }

    /// Slots in each shard's ring: ⌈`queue_capacity` / `slab_capacity`⌉
    /// rounded up to a power of two, minimum 2. A slab holds its slot
    /// until the worker has committed it, so the slots bound the slab
    /// being applied as well as the queued ones: a crashed worker loses
    /// at most these slabs, and `ring_slots() * slab_capacity` items bound
    /// each restart's loss window.
    pub fn ring_slots(&self) -> usize {
        self.queue_capacity
            .div_ceil(self.slab_capacity.max(1))
            .max(2)
            .next_power_of_two()
    }

    fn validate(&self) -> Result<(), PipelineError> {
        if self.shards == 0 {
            return Err(PipelineError::InvalidConfig {
                reason: "pipeline needs at least one shard".into(),
            });
        }
        if self.queue_capacity < 2 {
            return Err(PipelineError::InvalidConfig {
                reason: "queue capacity must be at least 2".into(),
            });
        }
        if self.slab_capacity == 0 {
            return Err(PipelineError::InvalidConfig {
                reason: "slab capacity must be at least 1".into(),
            });
        }
        Ok(())
    }

    fn build_filter(&self, shard: usize) -> Result<QuantileFilter, PipelineError> {
        QuantileFilterBuilder::new(self.criteria)
            .memory_budget_bytes(self.memory_bytes_per_shard)
            .seed(self.shard_seed(shard))
            .try_build()
            .map_err(|e| PipelineError::InvalidConfig {
                reason: e.to_string(),
            })
    }

    /// Shard `shard`'s state before its first item, which recovery
    /// rebuilds on when no checkpoint is usable: the frame it was
    /// restored from, or a filter built from this config.
    fn base_filter(&self, shard: usize, restored: Option<&[u8]>) -> Option<QuantileFilter> {
        match restored {
            Some(frame) => QuantileFilter::restore(frame).ok(),
            None => self.build_filter(shard).ok(),
        }
    }
}

/// Per-item verdict from [`Pipeline::ingest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// The item was admitted: it sits in its shard's router slab or on
    /// the shard queue (the slab is an extension of the queue — flushed
    /// on fill, at a poll that finds the queue empty, and on quiesce,
    /// snapshot, [`Pipeline::flush`], and shutdown).
    Enqueued,
    /// The queue was full and the policy shed the *incoming* item
    /// ([`BackpressurePolicy::DropNewest`], or the fairness drop under
    /// [`BackpressurePolicy::ShedFair`]); it was counted per shard.
    Dropped,
    /// The item's shard is quarantined: its worker exhausted its strike
    /// budget. Only this shard's items are affected; other shards keep
    /// accepting.
    ShardDown,
}

/// A report pulled out of the sink, tagged with its origin shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportEvent {
    /// Shard whose filter fired.
    pub shard: usize,
    /// The reported key.
    pub key: u64,
    /// The filter's report payload.
    pub report: Report,
}

/// Exact per-shard accounting, returned by [`Pipeline::shutdown`]; the
/// same fields live in [`OpsView::counts`](crate::OpsView::counts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardSummary {
    /// Items accepted onto this shard's queue.
    pub enqueued: u64,
    /// Items shed at the router (incoming-item drops).
    pub dropped: u64,
    /// Items refused because the shard was quarantined.
    pub rejected: u64,
    /// Items the worker popped, applied to its filter and journaled,
    /// surviving every recovery.
    pub processed: u64,
    /// Oldest-item drops redeemed by the worker under the shedding
    /// policies.
    pub shed: u64,
    /// Items whose effect did not survive a crash (enqueued, never
    /// journaled). Always 0 without faults.
    pub lost: u64,
    /// Reports the worker's filter emitted for journaled items.
    pub reports: u64,
    /// Times this shard's worker was restarted by the supervisor.
    pub restarts: u64,
    /// Lifecycle state at shutdown.
    pub state: ShardState,
}

/// Final accounting for a drained pipeline. See the module docs for the
/// conservation laws the stress/chaos suites pin.
#[derive(Debug, Clone)]
pub struct PipelineSummary {
    /// Items presented to [`Pipeline::ingest`].
    pub offered: u64,
    /// Items accepted onto some shard queue.
    pub enqueued: u64,
    /// Incoming items shed at the router.
    pub dropped: u64,
    /// Items refused because their shard was quarantined.
    pub rejected: u64,
    /// Items applied to shard filters and journaled.
    pub processed: u64,
    /// Oldest-item drops under the shedding policies.
    pub shed: u64,
    /// Items lost to worker crashes — the summed accounted loss windows.
    pub lost_to_crash: u64,
    /// Total reports emitted.
    pub reports_emitted: u64,
    /// Worker restarts across all shards.
    pub restarts: u64,
    /// Per-shard breakdown, indexed by shard.
    pub per_shard: Vec<ShardSummary>,
    /// Every recovery event, in occurrence order (empty without faults).
    pub recoveries: Vec<RecoveryRecord>,
    /// Reports not yet consumed via [`Pipeline::poll_reports`] when the
    /// pipeline shut down, in sink arrival order.
    pub reports: Vec<ReportEvent>,
}

/// Router-side state of one shard: its queue and slab, its accounting,
/// and its supervision state.
struct ShardHandle {
    queue: Producer<Msg>,
    worker: Option<JoinHandle<()>>,
    /// The shard's accumulating slab: admitted items wait here until the
    /// slab fills, a poll finds the queue empty, or a flush point, then
    /// travel as one ring slot. While a flush holds the slab, an empty
    /// stand-in that owns no buffer ([`Slab::take`]); the push's leftover
    /// replaces it ([`ShardHandle::refill`]), or a refused push puts the
    /// slab back.
    buf: Slab,
    enqueued: u64,
    dropped: u64,
    rejected: u64,
    /// The shard's flight recorder (zero-sized stub without `trace`).
    /// One ring per shard for the pipeline's whole life — it spans
    /// worker restarts so dumps keep the pre-crash history.
    flight: ShardFlight,
    /// Lock-free mirror of this shard's supervision state and router
    /// counts, read by [`OpsView`] holders.
    board: Arc<ShardBoard>,
    /// Router-side backpressure edge detector: `true` while the last
    /// push attempt on this shard found the queue full.
    stalled: bool,
    recovery: Arc<ShardRecovery>,
    /// Mirror of the recovery generation (authoritative copy lives under
    /// the lock); used to discard stale snapshot frames.
    generation: u64,
    state: ShardState,
    strikes: u32,
    /// `applied` when the current worker generation started; the strike
    /// counter resets once the shard runs `strike_forgiveness` past it.
    applied_at_restart: u64,
    restarts: u64,
    /// Loss already attributed to earlier fences, so each recovery
    /// record carries only its own increment.
    lost_so_far: u64,
    /// Watchdog: last observed progress counter and when the stall clock
    /// last (re)started — at a move of the counter, or at a probe that
    /// followed a gap in the probes.
    last_progress: u64,
    last_progress_at: Instant,
    /// Watchdog: when [`Pipeline::hang_confirmed`] last probed this shard.
    last_probe_at: Instant,
    /// The wire-v2 frame a [`Pipeline::restore`]d shard started from: its
    /// state before its first item, which recovery rebuilds on when no
    /// checkpoint is usable. `None` for a shard launched from the config,
    /// which rebuilds on a fresh filter instead.
    restored: Option<Vec<u8>>,
}

impl ShardHandle {
    /// Store the router's counts on the board: at a slab handoff, a drop,
    /// a rejection or a recovery, never per admitted item.
    fn publish(&self) {
        self.board
            .publish_router(self.enqueued, self.dropped, self.rejected);
    }

    /// A push landed and returned what its slot held: the emptied slab
    /// the worker released there becomes the next one to fill. A slot
    /// that never held a slab (warm-up) or last held a control message
    /// returns none, and only then is a slab allocated.
    fn refill(&mut self, back: Option<Msg>) {
        self.buf = match back {
            Some(Msg::Slab(slab)) => slab,
            _ => Slab::with_capacity(self.buf.capacity()),
        };
    }
}

/// The router's ends of a newly spawned worker generation.
struct Spawned {
    queue: Producer<Msg>,
    worker: JoinHandle<()>,
}

/// Admission sampling for [`BackpressurePolicy::ShedFair`]: 256 hash
/// buckets of recent admissions, halved once the window fills so the
/// estimate tracks the live mix.
///
/// Shared between the router (which notes admissions and asks
/// [`is_heavy`](Self::is_heavy)) and the shard workers (which *un-note*
/// every key of a slab they discard against a shed credit, so shed
/// traffic stops counting as admission history — the exact per-key
/// accounting the slab-granular `ShedFair` contract requires). All ops
/// are relaxed: the sketch is a heuristic, and every counter update is
/// a single atomic RMW, so the counts themselves never tear.
pub(crate) struct Fairness {
    // sync: counter — heuristic admission sketch, relaxed RMWs only;
    // router and workers race on single updates and no other memory is
    // published through these counts, so no ordering edge is required.
    buckets: Box<[AtomicU32; 256]>,
    // sync: counter — same protocol as `buckets`; decay tolerates
    // lost-update skew by CAS-halving.
    total: AtomicU32,
}

impl Fairness {
    const WINDOW: u32 = 4096;
    const HEAVY_FACTOR: u32 = 4;

    fn new() -> Self {
        Self {
            buckets: Box::new(std::array::from_fn(|_| AtomicU32::new(0))),
            total: AtomicU32::new(0),
        }
    }

    /// Bucket a key; the tweak decorrelates fairness sampling from both
    /// routing and the filters' own hashing.
    fn bucket(key: u64) -> usize {
        (qf_hash::mix64(key ^ 0xFA1B) & 0xFF) as usize
    }

    fn note(&self, key: u64) {
        let b = &self.buckets[Self::bucket(key)];
        // sync: counter — relaxed admission sample; readers tolerate
        // arbitrary interleaving with decay and unnote.
        b.fetch_add(1, Ordering::Relaxed);
        // sync: counter — relaxed window clock for the decay trigger.
        let total = self.total.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
        if total >= Self::WINDOW {
            self.decay();
        }
    }

    /// Halve every bucket and rebuild the total. Concurrent `unnote`s
    /// racing a halving can be folded in or lost by one count — the
    /// sketch already forgets half its history here by design.
    fn decay(&self) {
        let mut total = 0u32;
        for b in self.buckets.iter() {
            // sync: counter — relaxed CAS halving; exact w.r.t.
            // concurrent increments/decrements on the same bucket.
            let _ = b.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v >> 1));
            // sync: counter — relaxed re-read for the rebuilt total.
            total += b.load(Ordering::Relaxed);
        }
        // sync: counter — relaxed total rebuild; racy by at most the
        // in-flight notes/unnotes of the same window.
        self.total.store(total, Ordering::Relaxed);
    }

    /// Remove one admission of `key` from the sample — called by a
    /// worker for every item of a slab it shed, saturating at zero.
    pub(crate) fn unnote(&self, key: u64) {
        let b = &self.buckets[Self::bucket(key)];
        // sync: counter — relaxed saturating decrement; CAS keeps the
        // bucket from underflowing past concurrent decay.
        if b.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
            .is_ok()
        {
            // sync: counter — relaxed saturating decrement of the window total.
            let _ = self
                .total
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
        }
    }

    fn is_heavy(&self, key: u64) -> bool {
        // sync: counter — relaxed heuristic reads; staleness only skews
        // which item absorbs an overload drop.
        let share = self.buckets[Self::bucket(key)].load(Ordering::Relaxed);
        let fair = self.total.load(Ordering::Relaxed) / 256 + 1; // sync: counter — relaxed heuristic read
        share > Self::HEAVY_FACTOR * fair
    }
}

/// A live concurrent ingest pipeline. See the module docs for topology
/// and guarantees; `&mut self` on the ingest path enforces the
/// single-producer half of the SPSC contract.
pub struct Pipeline {
    config: PipelineConfig,
    sup: SupervisorConfig,
    shards: Vec<ShardHandle>,
    events: Receiver<Event>,
    /// Kept so the router can spawn replacement workers; also means the
    /// event channel never reports disconnected.
    sink: Sender<Event>,
    /// Reports received while waiting for snapshot barriers, preserved in
    /// arrival order for the next `poll_reports`.
    pending: VecDeque<ReportEvent>,
    offered: u64,
    memory_bytes: usize,
    /// Per-shard admission sampling; populated only under `ShedFair`.
    /// `Arc`-shared with the shard workers, which un-note shed slabs.
    fairness: Vec<Arc<Fairness>>,
    /// The fault plan armed by [`Self::launch_chaos`]; `None` otherwise.
    chaos: Option<ArmedChaos>,
    /// Fenced workers not yet known to have exited; reaped at shutdown.
    graveyard: Vec<JoinHandle<()>>,
    recoveries: Vec<RecoveryRecord>,
    /// Where restart/quarantine flight dumps land (no-op without the
    /// `trace` feature).
    flight_dir: PathBuf,
}

impl Pipeline {
    /// Build per-shard filters from `config` and launch the workers with
    /// [`SupervisorConfig::default`] supervision.
    pub fn launch(config: PipelineConfig) -> Result<Self, PipelineError> {
        Self::launch_supervised(config, SupervisorConfig::default())
    }

    /// [`Self::launch`] with explicit supervision settings: checkpoint
    /// interval, watchdog deadline, strike budget and restart backoff.
    /// See [`SupervisorConfig`].
    pub fn launch_supervised(
        config: PipelineConfig,
        sup: SupervisorConfig,
    ) -> Result<Self, PipelineError> {
        Self::launch_with_filters(config, sup, None, Vec::new())
    }

    /// [`Self::launch_supervised`] with an armed [`ChaosPlan`] — the
    /// qf-chaos harness entry point. Production code never injects
    /// faults; this exists so the recovery machinery is tested by the
    /// same code path it protects.
    pub fn launch_chaos(
        config: PipelineConfig,
        sup: SupervisorConfig,
        plan: &ChaosPlan,
    ) -> Result<Self, PipelineError> {
        Self::launch_with_filters(config, sup, Some(plan.arm()), Vec::new())
    }

    /// Launch one worker per shard. Shard `i` starts from `restored[i]`
    /// (a filter and the frame it was decoded from) when there is one,
    /// else from a filter built from `config`.
    fn launch_with_filters(
        config: PipelineConfig,
        sup: SupervisorConfig,
        chaos: Option<ArmedChaos>,
        restored: Vec<(QuantileFilter, Vec<u8>)>,
    ) -> Result<Self, PipelineError> {
        config.validate()?;
        sup.validate()
            .map_err(|reason| PipelineError::InvalidConfig {
                reason: format!("supervisor config: {reason}"),
            })?;
        let (sink, events) = channel();
        let fairness = Self::fairness_for(&config);
        let mut restored = restored.into_iter();
        let mut shards = Vec::with_capacity(config.shards);
        let mut memory_bytes = 0usize;
        for shard in 0..config.shards {
            let (filter, restored) = match restored.next() {
                Some((filter, frame)) => (filter, Some(frame)),
                None => (config.build_filter(shard)?, None),
            };
            memory_bytes += filter.memory_bytes();
            let recovery = Arc::new(ShardRecovery::new(
                sup.checkpoint_interval,
                config.slab_capacity,
            ));
            let flight = ShardFlight::new(shard);
            let Spawned { queue, worker } = Self::spawn_worker(
                &config,
                shard,
                filter,
                sink.clone(),
                Supervision {
                    recovery: Arc::clone(&recovery),
                    generation: 0,
                    checkpoint_interval: sup.checkpoint_interval,
                    slab_capacity: config.slab_capacity,
                    chaos: chaos.clone(),
                    fairness: fairness.get(shard).cloned(),
                    flight: flight.clone(),
                },
            )?;
            shards.push(ShardHandle {
                queue,
                worker: Some(worker),
                buf: Slab::with_capacity(config.slab_capacity),
                enqueued: 0,
                dropped: 0,
                rejected: 0,
                flight,
                board: Arc::new(ShardBoard::default()),
                stalled: false,
                recovery,
                generation: 0,
                state: ShardState::Running,
                strikes: 0,
                applied_at_restart: 0,
                restarts: 0,
                lost_so_far: 0,
                last_progress: 0,
                last_progress_at: Instant::now(),
                last_probe_at: Instant::now(),
                restored,
            });
        }
        Ok(Self {
            config,
            sup,
            shards,
            events,
            sink,
            pending: VecDeque::new(),
            offered: 0,
            memory_bytes,
            fairness,
            chaos,
            graveyard: Vec::new(),
            recoveries: Vec::new(),
            flight_dir: PathBuf::from("results"),
        })
    }

    fn fairness_for(config: &PipelineConfig) -> Vec<Arc<Fairness>> {
        if config.policy == BackpressurePolicy::ShedFair {
            (0..config.shards)
                .map(|_| Arc::new(Fairness::new()))
                .collect()
        } else {
            Vec::new()
        }
    }

    /// Start one worker generation with its own ring; returns the
    /// router's end of it and the worker's join handle.
    ///
    /// Drained slabs come back through the same ring: the worker leaves
    /// each one in its slot, and the router's next push there takes it
    /// back. A shard's slabs are thus the router's `buf` (or, during a
    /// flush, the slab in its hand, with a stand-in that owns no buffer
    /// in `buf`) and one per ring slot, which covers the slab the worker is
    /// applying: at most `ring_slots() + 1` per generation. A new
    /// generation gets a new ring, so a fenced worker that wakes up never
    /// touches a slot its successor uses.
    fn spawn_worker(
        config: &PipelineConfig,
        shard: usize,
        filter: QuantileFilter,
        sink: Sender<Event>,
        sup: Supervision,
    ) -> Result<Spawned, PipelineError> {
        let (queue, consumer) = SpscRing::with_capacity(config.ring_slots()).split();
        let worker = std::thread::Builder::new()
            .name(format!("qf-pipeline-{shard}"))
            .spawn(move || run_supervised(shard, consumer, filter, sink, sup))
            .map_err(|e| PipelineError::InvalidConfig {
                reason: format!("failed to spawn worker thread: {e}"),
            })?;
        Ok(Spawned { queue, worker })
    }

    /// Rebuild a pipeline from a [`Self::snapshot`] envelope, with
    /// [`SupervisorConfig::default`] supervision. Queue and policy settings
    /// come from `config` (they are not part of filter state); the shard
    /// count must match the envelope. Each shard keeps its frame as the
    /// base its recovery rebuilds on before the first checkpoint.
    pub fn restore(bytes: &[u8], config: PipelineConfig) -> Result<Self, PipelineError> {
        config.validate()?;
        let frames = open_shards(bytes)?;
        if frames.len() != config.shards {
            return Err(PipelineError::InvalidConfig {
                reason: format!(
                    "snapshot has {} shards but config asks for {}",
                    frames.len(),
                    config.shards
                ),
            });
        }
        let mut restored = Vec::with_capacity(frames.len());
        for frame in frames {
            restored.push((QuantileFilter::restore(frame)?, frame.to_vec()));
        }
        Self::launch_with_filters(config, SupervisorConfig::default(), None, restored)
    }

    /// The configuration this pipeline was launched with.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Number of shards / worker threads.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Summed memory of the shard filters, captured at launch: the
    /// detector state, which is the paper's memory axis. A shard's
    /// checkpoints, journal and slabs are not counted here; the crate
    /// docs' [memory per shard](crate#memory-per-shard) section prices
    /// them.
    pub fn memory_bytes(&self) -> usize {
        self.memory_bytes
    }

    /// Slabs in `shard`'s ring that its worker has not taken yet (racy
    /// snapshot): queued slabs, not items, and not the slab being
    /// applied, which still holds its slot.
    pub fn queue_len(&self, shard: usize) -> usize {
        self.shards.get(shard).map_or(0, |s| s.queue.len())
    }

    /// Items presented to [`Self::ingest`] so far.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Lifecycle state of `shard`.
    pub fn shard_state(&self, shard: usize) -> ShardState {
        self.shards
            .get(shard)
            .map_or(ShardState::Running, |s| s.state)
    }

    /// Detach a thread-safe read handle over the per-shard supervision
    /// scoreboards, counts and flight recorders — what the `qf-ops` HTTP
    /// server serves from. Cheap to clone; stays valid after shutdown.
    pub fn ops_view(&self) -> OpsView {
        OpsView::new(
            self.shards
                .iter()
                .map(|h| ShardView {
                    board: Arc::clone(&h.board),
                    recovery: Arc::clone(&h.recovery),
                    flight: h.flight.clone(),
                })
                .collect(),
        )
    }

    /// Redirect restart/quarantine flight dumps (default: `results/`).
    /// No-op without the `trace` feature.
    pub fn set_flight_dir(&mut self, dir: impl Into<PathBuf>) {
        self.flight_dir = dir.into();
    }

    /// Where restart/quarantine flight dumps land.
    pub fn flight_dir(&self) -> &Path {
        &self.flight_dir
    }

    /// Worker restarts so far across all shards.
    pub fn restarts(&self) -> u64 {
        self.shards.iter().map(|s| s.restarts).sum()
    }

    /// Items currently buffered in `shard`'s router slab, waiting for
    /// the slab to fill, for a [`Self::poll_reports`] that finds the
    /// shard's queue empty, or for a flush point. These items are counted
    /// as enqueued (the slab is an extension of the queue); snapshots and
    /// shutdown always flush them first.
    pub fn buffered_len(&self, shard: usize) -> usize {
        self.shards.get(shard).map_or(0, |s| s.buf.len())
    }

    /// Flush every shard's partial router slab into its queue, so all
    /// admitted items become visible to the workers without waiting for
    /// slabs to fill. Items already counted as enqueued are never
    /// dropped here: the flush blocks (recovering through crashes) until
    /// each slab lands or its shard is quarantined.
    /// [`Self::poll_reports`] hands over partial slabs without blocking,
    /// but only to shards whose queue is empty.
    pub fn flush(&mut self) {
        for shard in 0..self.shards.len() {
            self.flush_buffered(shard);
        }
    }

    /// Route one item to its shard. Never fails the whole call for a
    /// single bad shard: a full queue resolves per the backpressure
    /// policy, and a dead or hung worker is recovered (restarted from
    /// checkpoint + journal) and the flush retried. Only a quarantined
    /// shard yields [`IngestOutcome::ShardDown`], for *its* items, while
    /// other shards keep accepting.
    ///
    /// The admitted item lands in the shard's router slab; the slab
    /// travels to the worker when it fills (the backpressure policy
    /// resolves *at that flush*, against the incoming item), at the next
    /// [`Self::poll_reports`] that finds the shard's queue empty, or at
    /// the next quiesce/flush/shutdown point. A caller that polls
    /// therefore sees an idle shard's reports without filling its slab.
    pub fn ingest(&mut self, key: u64, value: f64) -> Result<IngestOutcome, PipelineError> {
        self.offered += 1;
        let shard = shard_of(key, self.shards.len());
        let handle = &mut self.shards[shard];
        let mut flushed = false;
        let outcome = if handle.state == ShardState::Quarantined {
            IngestOutcome::ShardDown
        } else {
            handle.buf.push(key, value);
            flushed = handle.buf.is_full();
            if flushed {
                self.flush_full(shard, key)
            } else {
                IngestOutcome::Enqueued
            }
        };
        let handle = &mut self.shards[shard];
        match outcome {
            IngestOutcome::Enqueued => {
                handle.enqueued += 1;
                if self.config.policy == BackpressurePolicy::ShedFair {
                    self.fairness[shard].note(key);
                }
            }
            IngestOutcome::Dropped => handle.dropped += 1,
            IngestOutcome::ShardDown => handle.rejected += 1,
        }
        if flushed || outcome != IngestOutcome::Enqueued {
            handle.publish();
        }
        Ok(outcome)
    }

    /// Flush a just-filled slab. The push loop recovers through dead and
    /// hung workers; the backpressure policy resolves here, against the
    /// incoming item (the last one admitted to the slab). Returns that
    /// item's outcome — earlier slab items were already counted as
    /// enqueued by their own ingest calls.
    fn flush_full(&mut self, shard: usize, key: u64) -> IngestOutcome {
        let policy = self.config.policy;
        let mut msg = Msg::Slab(self.shards[shard].buf.take());
        let mut shed_requested = false;
        loop {
            if self.shards[shard].state == ShardState::Quarantined {
                // Quarantined mid-flush: the slab is discarded. Items
                // admitted by earlier calls stay counted as enqueued
                // and fall into the recomputed crash loss; the incoming
                // item itself is rejected.
                return IngestOutcome::ShardDown;
            }
            let attempt = match policy {
                BackpressurePolicy::DropNewest => self.shards[shard].queue.try_push(msg),
                _ => self.shards[shard]
                    .queue
                    .try_push_for(msg, PUSH_ROUND_BUDGET),
            };
            match attempt {
                Ok(back) => {
                    self.shards[shard].refill(back);
                    if self.shards[shard].stalled {
                        self.note_backpressure(shard, false);
                    }
                    return IngestOutcome::Enqueued;
                }
                Err((PushError::Disconnected, m)) => {
                    // Survivor count excludes the incoming item: it is
                    // not yet counted as enqueued (this flush decides
                    // its outcome), so it must not offset the loss
                    // window either.
                    let in_hand = Self::msg_len(&m).saturating_sub(1);
                    msg = m;
                    self.recover_shard(shard, CrashCause::Panic, in_hand);
                }
                Err((PushError::Full, m)) => {
                    msg = m;
                    if !self.shards[shard].stalled {
                        self.note_backpressure(shard, true);
                    }
                    match policy {
                        BackpressurePolicy::DropNewest => {
                            return Self::undo_admit(&mut self.shards[shard], msg);
                        }
                        BackpressurePolicy::Block => {}
                        BackpressurePolicy::DropOldest | BackpressurePolicy::ShedFair => {
                            if policy == BackpressurePolicy::ShedFair
                                && self.fairness[shard].is_heavy(key)
                            {
                                // The heavy key absorbs the overload it
                                // causes: its own item is dropped, the
                                // rest of the slab stays buffered.
                                return Self::undo_admit(&mut self.shards[shard], msg);
                            }
                            if !shed_requested {
                                // One credit == the worker discards the
                                // whole slab at the queue head.
                                self.shards[shard].queue.request_shed(1);
                                shed_requested = true;
                            }
                        }
                    }
                    if self.hang_confirmed(shard) {
                        let in_hand = Self::msg_len(&msg).saturating_sub(1);
                        self.recover_shard(shard, CrashCause::Hang, in_hand);
                    }
                }
            }
        }
    }

    /// A failed flush hands the slab back: remove the just-admitted
    /// incoming item (it is dropped, not enqueued) and re-buffer the
    /// remainder — those items stay admitted and retry at the next
    /// flush point.
    fn undo_admit(handle: &mut ShardHandle, msg: Msg) -> IngestOutcome {
        if let Msg::Slab(mut slab) = msg {
            let _ = slab.pop();
            handle.buf = slab;
        }
        IngestOutcome::Dropped
    }

    /// Items carried by a message the router still holds (0 for control
    /// messages) — subtracted from a fence's loss window, since they
    /// will be re-flushed to the replacement worker.
    fn msg_len(msg: &Msg) -> u64 {
        match msg {
            Msg::Slab(slab) => slab.len() as u64,
            _ => 0,
        }
    }

    /// Blocking flush of `shard`'s partial slab (no incoming item to
    /// resolve a policy against: every buffered item is already counted
    /// as enqueued, so it must reach the worker or die with the shard).
    /// Used by [`Self::flush`], snapshots, and shutdown.
    fn flush_buffered(&mut self, shard: usize) {
        if self.shards[shard].buf.is_empty() {
            return;
        }
        let mut msg = Msg::Slab(self.shards[shard].buf.take());
        loop {
            if self.shards[shard].state == ShardState::Quarantined {
                // Discarded: the items stay counted as enqueued and land
                // in the shard's recomputed crash loss.
                return;
            }
            match self.shards[shard]
                .queue
                .try_push_for(msg, PUSH_ROUND_BUDGET)
            {
                Ok(back) => {
                    self.shards[shard].refill(back);
                    self.shards[shard].publish();
                    if self.shards[shard].stalled {
                        self.note_backpressure(shard, false);
                    }
                    return;
                }
                Err((PushError::Disconnected, m)) => {
                    let in_hand = Self::msg_len(&m);
                    msg = m;
                    self.recover_shard(shard, CrashCause::Panic, in_hand);
                }
                Err((PushError::Full, m)) => {
                    msg = m;
                    if !self.shards[shard].stalled {
                        self.note_backpressure(shard, true);
                    }
                    if self.hang_confirmed(shard) {
                        let in_hand = Self::msg_len(&msg);
                        self.recover_shard(shard, CrashCause::Hang, in_hand);
                    }
                }
            }
        }
    }

    /// Deliver a control message to `shard`'s worker, recovering through
    /// dead and hung workers until it lands. `false` when the shard is,
    /// or ends up, quarantined: there is no worker left to receive it.
    /// An emptied slab the push takes back from the slot is freed: the
    /// worker releases the control message's slot empty, so the next slab
    /// pushed there allocates its successor.
    fn push_control(&mut self, shard: usize, mut msg: Msg) -> bool {
        loop {
            if self.shards[shard].state == ShardState::Quarantined {
                return false;
            }
            match self.shards[shard]
                .queue
                .try_push_for(msg, PUSH_ROUND_BUDGET)
            {
                Ok(_) => return true,
                Err((PushError::Disconnected, m)) => {
                    msg = m;
                    self.recover_shard(shard, CrashCause::Panic, 0);
                }
                Err((PushError::Full, m)) => {
                    msg = m;
                    if self.hang_confirmed(shard) {
                        self.recover_shard(shard, CrashCause::Hang, 0);
                    }
                }
            }
        }
    }

    /// Watchdog probe, called only when pushes to `shard` are stalling:
    /// has its progress counter stayed frozen through a whole deadline of
    /// probes?
    ///
    /// A probe that comes more than a deadline after the previous one
    /// convicts nothing: in that gap the router was itself not running (a
    /// host-wide stall) or not pushing, so it watched no stall it could
    /// blame on the worker. The stall clock restarts at that probe
    /// instead. A real hang is still convicted after a deadline of
    /// probes; a worker that hung while the router was idle is convicted
    /// one deadline later than its hang alone would warrant.
    fn hang_confirmed(&mut self, shard: usize) -> bool {
        let deadline = self.sup.watchdog_deadline;
        let s = &mut self.shards[shard];
        let progress = s.recovery.progress();
        let now = Instant::now();
        let previous_probe = std::mem::replace(&mut s.last_probe_at, now);
        if progress != s.last_progress {
            s.last_progress = progress;
            s.last_progress_at = now;
            if s.state == ShardState::Suspect {
                Self::set_state(s, ShardState::Running);
            }
            return false;
        }
        if now.duration_since(previous_probe) >= deadline {
            s.last_progress_at = now;
        } else if now.duration_since(s.last_progress_at) >= deadline {
            return true;
        }
        if s.state == ShardState::Running {
            Self::set_state(s, ShardState::Suspect);
        }
        false
    }

    /// Record a backpressure edge on `shard`'s flight recorder: its
    /// queue just became full (`entering`) or just accepted again.
    /// Edges only — a sustained stall is two events, not a flood.
    fn note_backpressure(&mut self, shard: usize, entering: bool) {
        let h = &mut self.shards[shard];
        h.stalled = entering;
        h.flight.backpressure(h.generation, entering, h.enqueued);
    }

    fn set_state(s: &mut ShardHandle, state: ShardState) {
        s.state = state;
        s.board.set_state(state, s.strikes);
    }

    /// Fence the shard's current worker generation and either restart it
    /// from checkpoint + journal (with backoff) or quarantine it once
    /// the strike budget is exhausted. Loss is accounted here, at the
    /// fence point. `in_hand` is the number of items in a slab the
    /// caller still holds (a flush that bounced off the dead worker):
    /// those items — like the shard's router-buffered slab — survive
    /// the crash and will be re-flushed to the replacement, so they are
    /// excluded from this fence's loss window.
    fn recover_shard(&mut self, shard: usize, cause: CrashCause, in_hand: u64) {
        let t0 = Instant::now();
        let config = self.config;
        let sup = self.sup;
        let s = &mut self.shards[shard];
        if s.state == ShardState::Quarantined {
            return;
        }
        Self::set_state(s, ShardState::Restarting);
        // Fence + rebuild under one lock acquisition: after this block
        // the old generation can neither journal nor seal.
        let (recovered, applied_now, processed_now, shed_now, fenced_gen) = {
            let mut inner = s.recovery.lock();
            if inner.applied.saturating_sub(s.applied_at_restart) >= sup.strike_forgiveness {
                s.strikes = 0;
            }
            s.strikes += 1;
            let fenced_gen = inner.generation;
            let recovered = if s.strikes >= sup.max_strikes {
                inner.generation += 1;
                None
            } else {
                let restored = s.restored.as_deref();
                inner.recover(&mut || config.base_filter(shard, restored))
            };
            s.generation = inner.generation;
            (
                recovered,
                inner.applied,
                inner.processed,
                inner.shed,
                fenced_gen,
            )
        };
        // Loss attributable to this fence: everything enqueued that is
        // neither journaled-processed nor shed nor already-accounted —
        // minus what the router still holds (its buffered slab plus any
        // slab in the caller's hand), which survives the crash and will
        // be re-flushed to the replacement worker. Covers the
        // uncommitted slabs in the ring's slots, the one being applied
        // included.
        let buffered = s.buf.len() as u64 + in_hand;
        let lost_inc = s
            .enqueued
            .saturating_sub(buffered)
            .saturating_sub(shed_now)
            .saturating_sub(processed_now)
            .saturating_sub(s.lost_so_far);
        s.lost_so_far += lost_inc;
        // Retire the old worker: dropping its producer closes the ring
        // (so a hung worker that wakes drains to `None` and exits), and
        // the join handle goes to the graveyard for reaping at shutdown.
        if let Some(old) = s.worker.take() {
            if old.is_finished() {
                let _ = old.join();
            } else {
                self.graveyard.push(old);
            }
        }
        let mut record = RecoveryRecord {
            shard,
            generation: fenced_gen,
            cause,
            base: None,
            replayed: 0,
            recovered_seq: applied_now,
            lost: lost_inc,
            prior_applied: applied_now,
            quarantined: true,
            restart_latency: Duration::ZERO,
        };
        let respawned = match recovered {
            None => None,
            Some(rec) => {
                record.base = Some(rec.base);
                record.replayed = rec.replayed;
                record.recovered_seq = rec.recovered_seq;
                record.prior_applied = rec.prior_applied;
                std::thread::sleep(sup.backoff_for(s.strikes));
                Self::spawn_worker(
                    &config,
                    shard,
                    rec.filter,
                    self.sink.clone(),
                    Supervision {
                        recovery: Arc::clone(&s.recovery),
                        generation: s.generation,
                        checkpoint_interval: sup.checkpoint_interval,
                        slab_capacity: config.slab_capacity,
                        chaos: self.chaos.clone(),
                        fairness: self.fairness.get(shard).cloned(),
                        flight: s.flight.clone(),
                    },
                )
                .ok()
            }
        };
        match respawned {
            Some(Spawned { queue, worker }) => {
                s.queue = queue;
                s.worker = Some(worker);
                s.stalled = false;
                s.restarts += 1;
                s.applied_at_restart = record.recovered_seq;
                s.last_progress = s.recovery.progress();
                s.last_progress_at = Instant::now();
                record.quarantined = false;
                record.restart_latency = t0.elapsed();
                Self::set_state(s, ShardState::Running);
            }
            None => {
                // Quarantine is terminal: the router-held slabs excluded
                // above will never be re-flushed — they are discarded,
                // so fold them back into this fence's loss.
                s.lost_so_far += buffered;
                record.lost += buffered;
                // Quarantine: park a closed queue in the handle so any
                // residual push fails fast, and stop routing to it.
                let (producer, consumer) = SpscRing::with_capacity(2).split();
                consumer.mark_dead();
                drop(consumer);
                s.queue = producer;
                s.stalled = false;
                Self::set_state(s, ShardState::Quarantined);
            }
        }
        // Stamp the supervision verdict into the shard's flight ring and
        // dump it: every restart/quarantine leaves a
        // flight-<shard>-<fenced_gen>.json trail ending in its cause.
        if record.quarantined {
            s.flight.quarantine(fenced_gen, cause.code(), record.lost);
        } else {
            s.flight.restart(fenced_gen, cause.code(), record.lost);
        }
        s.flight.dump(&self.flight_dir, fenced_gen, cause.name());
        s.board
            .record_recovery(&record, s.generation, s.lost_so_far);
        s.publish();
        self.recoveries.push(record);
    }

    /// Drain every report currently available without blocking, in sink
    /// arrival order (per shard: emission order).
    ///
    /// First, every shard whose queue is empty — its worker has taken
    /// every slab and is idle or finishing the last one, which still
    /// holds its slot — is handed its partial router slab. That is the
    /// freshness contract: while a shard's worker is idle, a later poll
    /// returns the reports for every item ingested before this one,
    /// without further ingest. A shard whose queue is non-empty keeps
    /// filling its slab, so a loaded pipeline batches exactly as before.
    pub fn poll_reports(&mut self) -> Vec<ReportEvent> {
        self.hand_off_idle();
        let mut out: Vec<ReportEvent> = self.pending.drain(..).collect();
        loop {
            match self.events.try_recv() {
                Ok(Event::Report { shard, key, report }) => {
                    out.push(ReportEvent { shard, key, report });
                }
                // A stray barrier ack outside `snapshot` can only come
                // from a fenced generation that answered an abandoned
                // barrier; tolerate rather than poison.
                Ok(Event::Snapshot { .. }) => {}
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
            }
        }
        out
    }

    /// Push each non-empty router slab whose shard queue is empty, without
    /// blocking. The router is the only producer, so an empty queue has
    /// room and no backpressure policy applies. A dead consumer — a
    /// crashed worker, or the closed ring of a quarantined shard — hands
    /// the slab back and it stays buffered: the flush and recovery paths
    /// own those cases.
    fn hand_off_idle(&mut self) {
        for shard in 0..self.shards.len() {
            let handle = &mut self.shards[shard];
            if handle.buf.is_empty() || !handle.queue.is_empty() {
                continue;
            }
            let slab = handle.buf.take();
            match handle.queue.try_push(Msg::Slab(slab)) {
                Ok(back) => {
                    handle.refill(back);
                    handle.publish();
                    if handle.stalled {
                        self.note_backpressure(shard, false);
                    }
                }
                Err((_, msg)) => {
                    if let Msg::Slab(slab) = msg {
                        handle.buf = slab;
                    }
                }
            }
        }
    }

    /// Snapshot all shard filters at a consistent cut *while the pipeline
    /// keeps running*, returning the merged envelope.
    ///
    /// A `Quiesce` barrier message is pushed through each shard queue
    /// (never dropped, regardless of policy). Because the queues are
    /// FIFO, each worker snapshots after applying exactly the items
    /// ingested before this call and none after — a consistent cut
    /// without stopping ingest on other shards; each worker resumes the
    /// moment its own encode finishes. Reports that arrive while waiting
    /// for the barrier acks are buffered for the next
    /// [`Self::poll_reports`].
    ///
    /// A worker that dies or hangs mid-barrier is recovered and the
    /// barrier re-issued to its replacement (whose filter resumes from
    /// the journal head, i.e. the crash's accounted loss window is
    /// excluded from the cut), and a quarantined shard contributes the
    /// frame reconstructed from its checkpoint + journal; the call errors
    /// only if that reconstruction is impossible.
    pub fn snapshot(&mut self) -> Result<Vec<u8>, PipelineError> {
        // Flush partial router slabs first so the barrier cut includes
        // every admitted item (recovering through crashes as needed).
        self.flush();
        let n = self.shards.len();
        let mut frames: Vec<Option<Vec<u8>>> = vec![None; n];
        let mut missing = 0usize;
        for (shard, frame) in frames.iter_mut().enumerate() {
            self.push_barrier(shard, frame)?;
            if frame.is_none() {
                missing += 1;
            }
        }
        // Wait half a deadline between probes: the watchdog convicts only
        // a stall it watched through probes less than a deadline apart.
        let probe_every = self.sup.watchdog_deadline / 2;
        while missing > 0 {
            match self.events.recv_timeout(probe_every) {
                Ok(Event::Report { shard, key, report }) => {
                    self.pending.push_back(ReportEvent { shard, key, report });
                }
                Ok(Event::Snapshot {
                    shard,
                    generation,
                    bytes,
                }) => {
                    // Frames from fenced generations answer barriers that
                    // were already re-issued; discard them.
                    if generation == self.shards[shard].generation
                        && frames[shard].replace(bytes).is_none()
                    {
                        missing -= 1;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    for (shard, frame) in frames.iter_mut().enumerate() {
                        if frame.is_some() {
                            continue;
                        }
                        if !self.shards[shard].queue.consumer_alive() {
                            self.recover_shard(shard, CrashCause::Panic, 0);
                        } else if self.hang_confirmed(shard) {
                            self.recover_shard(shard, CrashCause::Hang, 0);
                        } else {
                            continue;
                        }
                        self.push_barrier(shard, frame)?;
                        if frame.is_some() {
                            missing -= 1;
                        }
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // Unreachable (the router holds a sink sender); fail
                    // closed regardless.
                    let shard = frames.iter().position(Option::is_none).unwrap_or(0);
                    return Err(PipelineError::WorkerDied { shard });
                }
            }
        }
        let frames: Vec<Vec<u8>> = frames.into_iter().flatten().collect();
        Ok(seal_shards(&frames))
    }

    /// Push a quiesce barrier to `shard`, recovering through dead or hung
    /// workers; fills `frame` directly if the shard is, or ends up,
    /// quarantined.
    fn push_barrier(
        &mut self,
        shard: usize,
        frame: &mut Option<Vec<u8>>,
    ) -> Result<(), PipelineError> {
        if !self.push_control(shard, Msg::Quiesce) {
            *frame = Some(self.reconstruct_frame(shard)?);
        }
        Ok(())
    }

    /// Rebuild a quarantined shard's filter from its recovery state and
    /// encode it — the snapshot path for shards with no live worker.
    fn reconstruct_frame(&self, shard: usize) -> Result<Vec<u8>, PipelineError> {
        let s = &self.shards[shard];
        let restored = s.restored.as_deref();
        let inner = s.recovery.lock();
        match inner.reconstruct(&mut || self.config.base_filter(shard, restored)) {
            Some((filter, _, _)) => Ok(filter.snapshot()),
            None => Err(PipelineError::WorkerDied { shard }),
        }
    }

    /// Stop ingest, drain every queue to empty, join the workers, and
    /// return the final accounting plus any unconsumed reports.
    ///
    /// Always produces a summary (the `Result` is `Ok`): crashes during
    /// the final drain are fenced and accounted like any other, and
    /// quarantined shards report their journaled state.
    pub fn shutdown(mut self) -> Result<PipelineSummary, PipelineError> {
        let n = self.shards.len();
        // Flush partial router slabs so every admitted item reaches its
        // worker (or is accounted at a fence) before the drain sentinel.
        self.flush();
        // Phase 1: deliver the drain sentinel to every live shard,
        // recovering through crashes and hangs so it always lands (or
        // the shard ends up quarantined with its loss accounted).
        for shard in 0..n {
            self.push_control(shard, Msg::Shutdown);
        }
        // Phase 2: join the live workers. The grace window re-arms on
        // progress, so a long legitimate drain never trips it; a worker
        // that stops progressing without exiting is fenced, accounted,
        // and detached.
        for shard in 0..n {
            let Some(worker) = self.shards[shard].worker.take() else {
                continue;
            };
            match self.join_with_grace(shard, worker) {
                Some(Ok(())) => {}
                Some(Err(_)) => {
                    // Panicked during the final drain (e.g. a late chaos
                    // fault): fence and account; no restart at teardown.
                    self.fence_terminally(shard, CrashCause::Panic);
                }
                None => {
                    self.fence_terminally(shard, CrashCause::ShutdownStall);
                }
            }
        }
        // Phase 3: assemble the summary from the recovery state (the
        // crash-safe source of truth).
        let mut totals = PipelineSummary {
            offered: self.offered,
            enqueued: 0,
            dropped: 0,
            rejected: 0,
            processed: 0,
            shed: 0,
            lost_to_crash: 0,
            reports_emitted: 0,
            restarts: 0,
            per_shard: Vec::with_capacity(n),
            recoveries: std::mem::take(&mut self.recoveries),
            reports: Vec::new(),
        };
        for s in &self.shards {
            let (processed, shard_shed, shard_reports) = {
                let inner = s.recovery.lock();
                (inner.processed, inner.shed, inner.reports)
            };
            let lost = s
                .enqueued
                .saturating_sub(shard_shed)
                .saturating_sub(processed);
            let summary = ShardSummary {
                enqueued: s.enqueued,
                dropped: s.dropped,
                rejected: s.rejected,
                processed,
                shed: shard_shed,
                lost,
                reports: shard_reports,
                restarts: s.restarts,
                state: s.state,
            };
            totals.enqueued += summary.enqueued;
            totals.dropped += summary.dropped;
            totals.rejected += summary.rejected;
            totals.processed += summary.processed;
            totals.shed += summary.shed;
            totals.lost_to_crash += summary.lost;
            totals.reports_emitted += summary.reports;
            totals.restarts += summary.restarts;
            totals.per_shard.push(summary);
        }
        // Phase 4: drain the sink (all live workers have exited; fenced
        // stragglers can no longer send reports past their fence).
        let mut reports: Vec<ReportEvent> = self.pending.drain(..).collect();
        while let Ok(ev) = self.events.try_recv() {
            if let Event::Report { shard, key, report } = ev {
                reports.push(ReportEvent { shard, key, report });
            }
        }
        totals.reports = reports;
        // Phase 5: reap the graveyard. Fenced workers exit on their own
        // (closed queue or generation check); give bounded time to the
        // ones still mid-sleep, then detach.
        let grace = self.sup.watchdog_deadline.saturating_mul(20);
        for handle in std::mem::take(&mut self.graveyard) {
            let t0 = Instant::now();
            while !handle.is_finished() && t0.elapsed() < grace {
                std::thread::sleep(Duration::from_millis(1));
            }
            if handle.is_finished() {
                let _ = handle.join();
            }
        }
        Ok(totals)
    }

    /// Join a live worker, re-arming the grace window whenever the shard
    /// makes progress. `None` means it neither progressed nor exited for
    /// a full window and was detached. Polls with a nap that starts at
    /// 5 µs and doubles up to 1 ms, so a worker that exits promptly is
    /// joined in microseconds.
    fn join_with_grace(
        &self,
        shard: usize,
        worker: JoinHandle<()>,
    ) -> Option<std::thread::Result<()>> {
        let grace = self.sup.watchdog_deadline.saturating_mul(20);
        let recovery = &self.shards[shard].recovery;
        let mut last = recovery.progress();
        let mut armed_at = Instant::now();
        let mut nap = Duration::from_micros(5);
        while !worker.is_finished() {
            if armed_at.elapsed() >= grace {
                let now = recovery.progress();
                if now == last {
                    return None;
                }
                last = now;
                armed_at = Instant::now();
            }
            std::thread::sleep(nap);
            nap = (nap * 2).min(Duration::from_millis(1));
        }
        Some(worker.join())
    }

    /// Terminal fence during shutdown: bump the generation, account the
    /// loss, and mark the shard quarantined — no restart at teardown.
    fn fence_terminally(&mut self, shard: usize, cause: CrashCause) {
        let s = &mut self.shards[shard];
        let (applied_now, processed_now, shed_now, fenced_gen) = {
            let mut inner = s.recovery.lock();
            let fenced = inner.generation;
            inner.generation += 1;
            (inner.applied, inner.processed, inner.shed, fenced)
        };
        s.generation += 1;
        let lost_inc = s
            .enqueued
            .saturating_sub(shed_now)
            .saturating_sub(processed_now)
            .saturating_sub(s.lost_so_far);
        s.lost_so_far += lost_inc;
        Self::set_state(s, ShardState::Quarantined);
        s.flight.quarantine(fenced_gen, cause.code(), lost_inc);
        s.flight.dump(&self.flight_dir, fenced_gen, cause.name());
        let record = RecoveryRecord {
            shard,
            generation: fenced_gen,
            cause,
            base: None,
            replayed: 0,
            recovered_seq: applied_now,
            lost: lost_inc,
            prior_applied: applied_now,
            quarantined: true,
            restart_latency: Duration::ZERO,
        };
        s.board
            .record_recovery(&record, s.generation, s.lost_so_far);
        self.recoveries.push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(shards: usize, policy: BackpressurePolicy) -> PipelineConfig {
        let criteria = match Criteria::new(5.0, 0.9, 100.0) {
            Ok(c) => c,
            Err(e) => panic!("criteria: {e:?}"),
        };
        PipelineConfig {
            shards,
            criteria,
            memory_bytes_per_shard: 16 * 1024,
            queue_capacity: 32,
            // slab=1 keeps these unit tests on per-item flush semantics.
            slab_capacity: 1,
            policy,
            seed: 0xD00D,
        }
    }

    /// A key routed to `shard` under this shard count.
    fn key_on(shard: usize, shards: usize) -> u64 {
        (0u64..)
            .find(|k| shard_of(*k, shards) == shard)
            .expect("some key routes to every shard")
    }

    /// `queue_capacity` counts items: the ring gets whole slabs, a
    /// power-of-two slot count, and never fewer than two slots.
    #[test]
    fn ring_slots_count_whole_slabs() {
        for (queue_capacity, slab_capacity, slots) in [
            (1024, 256, 4),
            (1024, 1, 1024),
            (2, 4096, 2),
            (1025, 256, 8),
        ] {
            let config = PipelineConfig {
                queue_capacity,
                slab_capacity,
                ..cfg(1, BackpressurePolicy::Block)
            };
            assert_eq!(
                config.ring_slots(),
                slots,
                "queue_capacity {queue_capacity}, slab_capacity {slab_capacity}"
            );
        }
    }

    fn launch(config: PipelineConfig) -> Pipeline {
        match Pipeline::launch(config) {
            Ok(p) => p,
            Err(e) => panic!("launch: {e}"),
        }
    }

    fn shut(pipe: Pipeline) -> PipelineSummary {
        match pipe.shutdown() {
            Ok(s) => s,
            Err(e) => panic!("shutdown: {e}"),
        }
    }

    /// A worker that exits out of band is recovered: its shard keeps
    /// accepting items, the sibling shard never notices, and the summary
    /// conserves every item with exactly one restart.
    #[test]
    fn dead_worker_is_recovered_and_its_shard_keeps_accepting() {
        let mut pipe = launch(cfg(2, BackpressurePolicy::Block));
        // Kill worker 0 out of band; its AliveGuard marks the ring dead.
        assert!(pipe.shards[0].queue.push_blocking(Msg::Shutdown).is_ok());
        let (k0, k1) = (key_on(0, 2), key_on(1, 2));
        let ingest = |pipe: &mut Pipeline, key: u64| match pipe.ingest(key, 5.0) {
            Ok(IngestOutcome::Enqueued) => {}
            other => panic!("key {key} refused: {other:?}"),
        };
        // Until the router meets the dead ring, items land behind the
        // sentinel and fall into the accounted loss window.
        for _ in 0..10_000 {
            ingest(&mut pipe, k0);
            if pipe.restarts() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(pipe.restarts(), 1, "the dead worker was never recovered");
        assert_eq!(pipe.shard_state(0), ShardState::Running);
        for _ in 0..64 {
            ingest(&mut pipe, k0);
            ingest(&mut pipe, k1);
        }
        let summary = shut(pipe);
        assert_eq!(
            summary.offered,
            summary.enqueued + summary.dropped + summary.rejected
        );
        assert_eq!(
            summary.enqueued,
            summary.processed + summary.shed + summary.lost_to_crash
        );
        assert_eq!(summary.restarts, 1);
        assert_eq!(summary.recoveries.len(), 1);
        assert_eq!(summary.recoveries[0].shard, 0);
        assert_eq!(summary.recoveries[0].cause, CrashCause::Panic);
        let (s0, s1) = (summary.per_shard[0], summary.per_shard[1]);
        assert!(s0.processed >= 64, "shard 0 stopped applying: {s0:?}");
        assert_eq!((s1.restarts, s1.lost), (0, 0), "shard 1 was disturbed");
        assert_eq!(s1.processed, s1.enqueued);
    }

    /// A recovered shard gets a fresh ring: the router pushes to the
    /// replacement worker's ring, not the fenced worker's, so a fenced
    /// worker that wakes up can never touch a slot the live generation
    /// uses. The shard keeps accepting and conserving items through the
    /// new ring, and its slabs keep coming back through it.
    #[test]
    fn recovery_gives_the_shard_a_fresh_ring() {
        let config = PipelineConfig {
            slab_capacity: 4,
            ..cfg(2, BackpressurePolicy::Block)
        };
        let mut pipe = launch(config);
        let fenced = pipe.shards[0].queue.ring_addr();
        assert!(pipe.shards[0].queue.push_blocking(Msg::Shutdown).is_ok());
        let (k0, k1) = (key_on(0, 2), key_on(1, 2));
        let ingest = |pipe: &mut Pipeline, key: u64| match pipe.ingest(key, 5.0) {
            Ok(IngestOutcome::Enqueued) => {}
            other => panic!("key {key} refused: {other:?}"),
        };
        for _ in 0..10_000 {
            ingest(&mut pipe, k0);
            if pipe.restarts() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(pipe.restarts(), 1, "the dead worker was never recovered");
        // The replacement's ring was built while the router still held
        // the fenced one, so two live rings cannot share an address.
        assert_ne!(
            pipe.shards[0].queue.ring_addr(),
            fenced,
            "the router still pushes to the fenced generation's ring"
        );
        // Many slabs per shard, handed over both full and at polls, so
        // every slot of the new ring carries a slab back at least once.
        for round in 0..64 {
            for _ in 0..9 {
                ingest(&mut pipe, k0);
                ingest(&mut pipe, k1);
            }
            if round % 4 == 0 {
                let _ = pipe.poll_reports();
            }
        }
        let summary = shut(pipe);
        assert_eq!(
            summary.offered,
            summary.enqueued + summary.dropped + summary.rejected
        );
        assert_eq!(
            summary.enqueued,
            summary.processed + summary.shed + summary.lost_to_crash
        );
        assert_eq!(summary.restarts, 1);
        let (s0, s1) = (summary.per_shard[0], summary.per_shard[1]);
        assert!(s0.processed >= 64 * 9, "shard 0 stopped applying: {s0:?}");
        assert_eq!(s1.processed, s1.enqueued);
    }

    /// The watchdog convicts only a stall it watched: a probe that comes
    /// more than a deadline after the previous one restarts the stall
    /// clock, and only a whole deadline of closely spaced probes
    /// convicts. An idle worker never moves its progress counter, so to
    /// the probe it looks exactly like a hung one.
    #[test]
    fn watchdog_convicts_only_a_stall_it_watched() {
        let deadline = Duration::from_millis(20);
        let sup = SupervisorConfig {
            watchdog_deadline: deadline,
            ..SupervisorConfig::default()
        };
        let mut pipe = match Pipeline::launch_supervised(cfg(1, BackpressurePolicy::Block), sup) {
            Ok(p) => p,
            Err(e) => panic!("launch: {e}"),
        };
        let mut watched_from = Instant::now();
        for gap in 0..3 {
            std::thread::sleep(2 * deadline);
            watched_from = Instant::now();
            assert!(
                !pipe.hang_confirmed(0),
                "a probe after a gap of twice the deadline convicted (gap {gap})"
            );
        }
        let give_up = watched_from + Duration::from_secs(30);
        while !pipe.hang_confirmed(0) {
            assert!(
                Instant::now() < give_up,
                "continuous probes never convicted"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            watched_from.elapsed() >= deadline,
            "convicted after {:?} of probes, under the {deadline:?} deadline",
            watched_from.elapsed()
        );
        assert_eq!(shut(pipe).restarts, 0);
    }

    /// A restored shard that crashes before its first checkpoint rebuilds
    /// on the state it was restored from, not on a filter built from the
    /// config: a snapshot taken right after the crash is the restored
    /// envelope, byte for byte.
    #[test]
    fn restored_shard_recovers_onto_its_restored_state() {
        let config = cfg(2, BackpressurePolicy::Block);
        let mut original = launch(config);
        for i in 0..600u64 {
            let value = if i % 7 == 0 { 500.0 } else { 5.0 };
            assert!(original.ingest(i % 40, value).is_ok());
        }
        let envelope = match original.snapshot() {
            Ok(bytes) => bytes,
            Err(e) => panic!("snapshot: {e}"),
        };
        let _ = shut(original);
        let mut pipe = match Pipeline::restore(&envelope, config) {
            Ok(p) => p,
            Err(e) => panic!("restore: {e}"),
        };
        assert!(pipe.shards[0].queue.push_blocking(Msg::Shutdown).is_ok());
        match pipe.snapshot() {
            Ok(bytes) => assert!(bytes == envelope, "the restored state was lost"),
            Err(e) => panic!("snapshot: {e}"),
        }
        assert_eq!(shut(pipe).restarts, 1);
    }

    /// ShedFair's frequency sketch: a key hammered well past its fair
    /// share reads as heavy; background keys in other buckets do not.
    #[test]
    fn fairness_flags_heavy_hitters_only() {
        let f = Fairness::new();
        let heavy = 7u64;
        let mut light = heavy + 1;
        while Fairness::bucket(light) == Fairness::bucket(heavy) {
            light += 1;
        }
        for i in 0..2_048u64 {
            f.note(heavy);
            f.note(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        assert!(f.is_heavy(heavy));
        assert!(!f.is_heavy(light));
    }

    /// The decay window halves counts instead of forgetting them: a key
    /// that stops being heavy is eventually forgiven.
    #[test]
    fn fairness_decays_stale_heavy_hitters() {
        let f = Fairness::new();
        let heavy = 7u64;
        for _ in 0..1_024 {
            f.note(heavy);
        }
        assert!(f.is_heavy(heavy));
        let mut spread = 0u64;
        for _ in 0..6 {
            for _ in 0..Fairness::WINDOW {
                // Spread uniformly over other buckets.
                spread = spread.wrapping_add(0x9E37_79B9_7F4A_7C15);
                f.note(spread);
            }
        }
        assert!(!f.is_heavy(heavy), "stale heavy hitter never decayed");
    }

    /// Shed un-noting is exact per key: discarding everything a slab
    /// contained returns the sketch to its pre-admission state, so shed
    /// traffic stops counting as admission history.
    #[test]
    fn fairness_unnote_reverses_admissions_exactly() {
        let f = Fairness::new();
        let heavy = 7u64;
        for _ in 0..1_024 {
            f.note(heavy);
        }
        assert!(f.is_heavy(heavy));
        for _ in 0..1_024 {
            f.unnote(heavy);
        }
        assert!(!f.is_heavy(heavy), "unnote did not reverse note");
        // Saturating: un-noting past zero never wraps.
        f.unnote(heavy);
        assert!(!f.is_heavy(heavy));
    }
}
