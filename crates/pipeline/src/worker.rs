//! The per-shard worker: takes slabs off its SPSC queue, drains each one
//! through its privately-owned `QuantileFilter`'s fused batch path, and
//! forwards reports to the sink.
//!
//! Single-writer is preserved by construction — the filter lives on the
//! worker's stack; the only other copies are the checkpoints the worker
//! itself seals. This file is in the QF-L002 hot-path set: the message
//! loop performs no allocation and reads no clocks (snapshot encoding,
//! which does allocate, only runs on an explicit quiesce message — see
//! the `snapshot` method; the report buffer is allocated once in a cold
//! constructor, and slab buffers are allocated by the router and
//! recycled, never freed, in steady state).
//!
//! ## Slab handoff
//!
//! A queue slot carries a [`Slab`] — a router-filled chunk of up to
//! `slab_capacity` items — not a single item. The Lamport handshake, the
//! park/wake handshake, shed-credit redemption, and the journal lock are
//! each paid **once per slab**; the items inside drain through
//! [`QuantileFilter::insert_batch`], which is bit-identical to inserting
//! them one by one. A shed credit redeems a whole slab: the
//! oldest queued slab is discarded intact, its length counted into
//! `shed`, and (under `ShedFair`) its keys un-noted from the shared
//! fairness sketch so partial-slab shed stays exactly accounted per key.
//!
//! A slab keeps its ring slot from the router's push until the worker
//! *releases* it: take → apply → commit → send reports → release. The
//! release leaves the drained slab in its slot, emptied but with its
//! buffer kept, and the router's next push into that slot takes it back
//! as its next slab instead of allocating one. So the ring's slots bound
//! the slab being applied as well as the queued ones, and there is no
//! second ring for the way back. `Quiesce` and `Shutdown` release an
//! empty slot.
//!
//! The loop body, [`run_supervised`], keeps the crash-recovery contract
//! from [`crate::supervisor`]: a slab is taken, applied, then
//! *committed* — journaled under the shard's recovery lock, with a
//! checkpoint sealed when due — before any report is sent. The order is
//! the whole correctness story:
//!
//! * reports only ever describe journaled items, so a recovered filter
//!   (checkpoint + journal replay) is never *behind* the reports the
//!   caller saw;
//! * a crash between take and commit loses exactly the slabs that hold a
//!   ring slot uncommitted — the one being applied and the queued ones,
//!   at most `ring_slots()` — which is the accounted loss window;
//! * the commit starts with a generation check, so a worker the router
//!   has fenced off (e.g. one that hung and later woke) exits without
//!   journaling, reporting, sealing, or releasing anything.
//!
//! One lock acquisition per slab keeps the checkpoint machinery off the
//! per-item path (the QF-L002 requirement); the slab capacity bounds
//! both the amortization window and the per-commit loss window.

use crate::chaos::ArmedChaos;
use crate::flight::{self, ShardFlight};
use crate::pipeline::Fairness;
use crate::ring::Consumer;
use crate::supervisor::ShardRecovery;
use crate::telemetry;
use quantile_filter::{QuantileFilter, Report};
use std::sync::mpsc::Sender;
use std::sync::Arc;

/// A router-filled chunk of routed items, handed to the worker as one
/// ring slot. Owns its heap buffer; slabs still in a ring's slots are
/// freed with the ring.
#[derive(Debug)]
pub struct Slab {
    items: Vec<(u64, f64)>,
    capacity: usize,
}

impl Slab {
    /// Allocate an empty slab that fills at `capacity` items. Cold by
    /// contract: the router allocates one only when a push got no
    /// drained slab back (at warm-up, or into a slot a control message
    /// held), never per item.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            items: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Move the slab out, leaving in its place an empty slab of the same
    /// capacity that owns no buffer: the router's stand-in while the slab
    /// is being pushed. Allocates nothing.
    pub(crate) fn take(&mut self) -> Slab {
        Slab {
            items: std::mem::take(&mut self.items),
            capacity: self.capacity,
        }
    }

    /// Append one routed item. Callers check [`Self::is_full`] first;
    /// the fill level is the router's flush trigger.
    #[inline]
    pub fn push(&mut self, key: u64, value: f64) {
        self.items.push((key, value));
    }

    /// Remove and return the most recently pushed item (the router's
    /// "un-admit the incoming item" path for drop policies).
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, f64)> {
        self.items.pop()
    }

    /// Drop every item but keep the buffer, so the slab can be filled
    /// again without allocating.
    #[inline]
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Items currently held.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Is the slab empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Has the slab reached its flush threshold?
    #[inline]
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// The items, in admission order.
    #[inline]
    pub fn items(&self) -> &[(u64, f64)] {
        &self.items
    }

    /// The flush threshold this slab was built with.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// One message on a shard queue.
#[derive(Debug)]
pub enum Msg {
    /// A slab of routed items, drained through the fused batch path.
    Slab(Slab),
    /// Quiesce barrier: snapshot the filter *now* (every earlier slab is
    /// applied, no later one is) and send the bytes to the sink.
    Quiesce,
    /// Drain sentinel: the router will push nothing further; exit after
    /// this message.
    Shutdown,
}

/// An event a worker pushes into the shared sink channel.
#[derive(Debug, Clone)]
pub enum Event {
    /// The just-inserted key was reported quantile-outstanding.
    Report {
        /// Shard that produced the report.
        shard: usize,
        /// The reported key.
        key: u64,
        /// The filter's report payload.
        report: Report,
    },
    /// A quiesce barrier reached this shard; `bytes` is the wire-v2
    /// snapshot of its filter at the barrier point.
    Snapshot {
        /// Shard the snapshot belongs to.
        shard: usize,
        /// Worker generation that produced the frame. The router discards
        /// frames from fenced generations — a worker that hung through a
        /// barrier and woke after its replacement must not answer the new
        /// barrier.
        generation: u64,
        /// `QuantileFilter::snapshot()` bytes.
        bytes: Vec<u8>,
    },
}

/// Everything a worker generation needs beyond its queue, filter and
/// sink: its shared recovery state, its fencing token, and the armed
/// chaos plan (tests only; `None` in production).
pub(crate) struct Supervision {
    pub(crate) recovery: Arc<ShardRecovery>,
    pub(crate) generation: u64,
    pub(crate) checkpoint_interval: u64,
    /// Router slab size; bounds the per-commit report buffer.
    pub(crate) slab_capacity: usize,
    pub(crate) chaos: Option<ArmedChaos>,
    /// Shared `ShedFair` admission sketch (`None` under other
    /// policies); shed slabs un-note their keys here.
    pub(crate) fairness: Option<Arc<Fairness>>,
    /// The shard's flight recorder; installed as this worker thread's
    /// trace emit context so core/sketch trace hooks land in the right
    /// ring. Survives the worker across restarts (the ring keeps the
    /// pre-crash history the supervisor dumps).
    pub(crate) flight: ShardFlight,
}

/// Per-commit report staging for the worker loop: reports are
/// buffered through apply + commit and only sent once the slab is
/// journaled (see the module docs for why the order is load-bearing).
struct ReportBuf {
    buf: Vec<(usize, Report)>,
}

impl ReportBuf {
    /// Allocate once, sized to the slab capacity — the worker-lifetime
    /// buffer that keeps allocation out of the slab loop.
    fn new(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
        }
    }
}

/// Owns the queue's consumer side and marks it dead when the worker
/// exits — including by unwinding — so a blocked router errors out
/// instead of spinning forever.
struct AliveGuard {
    queue: Consumer<Msg>,
}

impl Drop for AliveGuard {
    fn drop(&mut self) {
        self.queue.mark_dead();
    }
}

/// Un-note every key of a shed slab from the shared fairness sketch, so
/// the admission history the router samples stops counting items that
/// were discarded before they ever reached a filter.
fn unnote_shed(fairness: Option<&Arc<Fairness>>, slab: &Slab) {
    if let Some(f) = fairness {
        for &(key, _) in slab.items() {
            f.unnote(key);
        }
    }
}

/// Release a drained slab's ring slot, leaving the slab in it emptied
/// for the router's next push there to take back.
fn release_slab(queue: &mut Consumer<Msg>, mut slab: Slab) {
    slab.clear();
    queue.release(Some(Msg::Slab(slab)));
}

/// The worker body: take slab → apply → commit → report → release. Runs
/// on a dedicated thread until [`Msg::Shutdown`], until the router
/// closes the queue's producer side, or until the generation is fenced.
/// See the module docs for why that order is load-bearing. A fenced
/// worker returns before its release, so its slot stays occupied in a
/// ring the router no longer pushes to.
pub(crate) fn run_supervised(
    shard: usize,
    queue: Consumer<Msg>,
    mut filter: QuantileFilter,
    sink: Sender<Event>,
    sup: Supervision,
) {
    queue.register_current_thread();
    sup.flight.install(sup.generation);
    let mut guard = AliveGuard { queue };
    let mut processed = 0u64;
    let mut staged = ReportBuf::new(sup.slab_capacity);
    // A `None` take ends the loop: the producer closed, i.e. this
    // generation was fenced off (or the pipeline is tearing down
    // without a drain).
    while let Some(msg) = guard.queue.take_wait() {
        match msg {
            Msg::Shutdown => {
                guard.queue.release(None);
                break;
            }
            Msg::Quiesce => {
                snapshot(shard, sup.generation, &filter, &sink, processed);
                guard.queue.release(None);
            }
            Msg::Slab(slab) => {
                let n = slab.len();
                // Takes are progress, whether applied or shed — this is
                // the liveness signal the watchdog reads, and the pop
                // ordinal clock the chaos plan addresses items by
                // (ordinals stay per-item: `base + i`).
                let base = sup.recovery.note_progress(n as u64);
                telemetry::dequeued_n(n as u64);
                // Redeem a shed credit against this whole slab (the
                // oldest in the queue by FIFO). The length still counts
                // as committed shed so conservation holds exactly.
                if guard.queue.take_shed(1) != 0 {
                    telemetry::shed_n(n as u64);
                    unnote_shed(sup.fairness.as_ref(), &slab);
                    {
                        let mut inner = sup.recovery.lock();
                        if inner.generation != sup.generation {
                            return;
                        }
                        inner.shed += n as u64;
                    }
                    release_slab(&mut guard.queue, slab);
                    continue;
                }
                staged.buf.clear();
                let items = slab.items();
                if let Some(chaos) = &sup.chaos {
                    // Chaos-armed runs need the per-item probe between
                    // inserts; `insert_batch` is bit-identical to this
                    // loop, so the applied state cannot diverge.
                    for (i, &(key, value)) in items.iter().enumerate() {
                        chaos.before_apply(shard, base + i as u64, key);
                        if let Some(report) = filter.insert(&key, value) {
                            staged.buf.push((i, report));
                        }
                    }
                } else {
                    let buf = &mut staged.buf;
                    filter.insert_batch(items, &mut |i, report| buf.push((i, report)));
                }
                {
                    let mut inner = sup.recovery.lock();
                    if inner.generation != sup.generation {
                        // Fenced: a replacement owns this lineage now.
                        // Exit with zero further side effects — nothing
                        // journaled, no reports sent for this slab.
                        return;
                    }
                    inner.append(items);
                    inner.reports += staged.buf.len() as u64;
                    if inner.due_seal(sup.checkpoint_interval) {
                        inner.seal_checkpoint(shard, &filter, sup.chaos.as_ref());
                    }
                }
                processed += n as u64;
                for (i, report) in staged.buf.drain(..) {
                    telemetry::report();
                    let _ = sink.send(Event::Report {
                        shard,
                        key: items[i].0,
                        report,
                    });
                }
                release_slab(&mut guard.queue, slab);
            }
        }
    }
}

/// Encode the filter at the quiesce point and ship it to the sink.
/// Cold by contract: runs once per snapshot request, never per item.
fn snapshot(
    shard: usize,
    generation: u64,
    filter: &QuantileFilter,
    sink: &Sender<Event>,
    applied: u64,
) {
    let bytes = filter.snapshot();
    flight::snapshot_cut(bytes.len() as u64, applied);
    let _ = sink.send(Event::Snapshot {
        shard,
        generation,
        bytes,
    });
}
