//! Bounded single-producer / single-consumer ring queue.
//!
//! Hand-rolled (no external deps) because the pipeline's hot path is one
//! `push` per message and one `pop` per worker iteration: a fixed
//! power-of-two slot array, a producer-owned `tail`, a consumer-owned
//! `head`, and acquire/release pairs on exactly those two words. No locks,
//! no per-message allocation — the slot array is the only heap memory and
//! it is allocated once in [`SpscRing::with_capacity`].
//!
//! The ring is payload-agnostic; the pipeline's slab handoff lives one
//! layer up. Each slot carries a whole `Msg` — usually a router-filled
//! item slab — so one acquire/release handshake and at most one wake
//! amortize over `slab_capacity` items, and a capacity-`N` ring holds up
//! to `N × slab_capacity` items in flight. Nothing in the protocol below
//! changed for slabs: an owned payload is moved in by `push` and out by
//! `pop`, and the drop path releases slots still occupied at teardown
//! whatever they hold. Shed credits redeem against whole slots (one
//! credit = the oldest queued *slab*); per-item shed accounting is the
//! worker's job, not the ring's.
//!
//! The single-producer / single-consumer discipline is enforced in the
//! type system: [`split`](SpscRing::split) yields one [`Producer`] and one
//! [`Consumer`], neither of which is `Clone`. The pipeline gives each
//! shard queue its producer side to the (single-threaded) router and its
//! consumer side to the shard's worker thread; each worker generation's
//! return ring, which carries drained slabs back for reuse, runs the
//! other way.
//!
//! All synchronization goes through the `qf_model::sync` shim: a
//! zero-cost re-export of `std` in real builds, and the instrumented
//! model-checker primitives under `--cfg qf_model` — the exhaustive
//! interleaving harness in `tests/model_ring.rs` explores exactly this
//! source. DESIGN.md §15 specifies the protocol below edge by edge.
//!
//! ## Idle strategy
//!
//! An empty-queue consumer first spins (with a spin hint), then yields,
//! then parks its thread; the producer unparks it after a push when (and
//! only when) the parked flag is up, using the SeqCst-fence handshake so
//! a wakeup can never be lost between the consumer's "is it still
//! empty?" re-check and the producer's flag read. A full-queue
//! *producer* under the blocking backpressure policy only spins/yields —
//! producer stalls end as soon as the consumer frees a slot, so parking
//! machinery on that side would buy nothing.
//!
//! ## Liveness
//!
//! Every slot-freeing pop is observed by the producer via `head`; every
//! blocking wait re-checks [`consumer_alive`](SpscRing) so a worker that
//! exits (including by panic — the worker holds a drop guard) turns a
//! would-be deadlock into a [`PushError::Disconnected`]. The symmetric
//! signal exists on the other side: dropping (or [`close`](Producer::close)-ing)
//! the producer makes [`Consumer::pop_wait`] return `None` once the queue
//! drains, so a worker whose router fenced it off unblocks instead of
//! parking forever.
//!
//! ## Shed credits
//!
//! Only the consumer owns `head`, so "drop the *oldest* queued message"
//! cannot be done by the producer directly. Instead the producer posts a
//! **shed credit** ([`Producer::request_shed`]); the consumer redeems
//! credits ([`Consumer::take_shed`]) by popping and discarding that many
//! messages before its next apply. The handoff is a single relaxed
//! counter — the producer's full-queue retry observes freed slots through
//! `head` exactly as it does for ordinary pops.

use std::mem::MaybeUninit;
use std::sync::Arc;

use qf_model::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicUsize, Ordering};
use qf_model::sync::cell::RaceCell;
use qf_model::sync::hint;
use qf_model::sync::thread::{self, Thread};
use qf_model::sync::Mutex;

/// Spins before the consumer escalates from `spin_loop` to `yield_now`.
#[cfg(not(qf_model))]
const SPINS_BEFORE_YIELD: usize = 64;
/// Yields before the consumer escalates from `yield_now` to parking.
#[cfg(not(qf_model))]
const YIELDS_BEFORE_PARK: usize = 32;

/// Model builds shrink the escalation ladder to one rung each, so the
/// explorer reaches the park/wake handshake — the part worth checking —
/// within a tractable number of schedule points. Every rung (spin,
/// yield, park) is still exercised.
#[cfg(qf_model)]
const SPINS_BEFORE_YIELD: usize = 1;
#[cfg(qf_model)]
const YIELDS_BEFORE_PARK: usize = 1;

/// Why a push did not take effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is full (only returned by [`Producer::try_push`]).
    Full,
    /// The consumer side is gone; no push can ever succeed again.
    Disconnected,
}

struct Slot<T>(RaceCell<MaybeUninit<T>>);

/// The shared ring state. Construct with [`SpscRing::with_capacity`] and
/// [`split`](SpscRing::split) into the two endpoint handles.
pub struct SpscRing<T> {
    slots: Box<[Slot<T>]>,
    mask: usize,
    /// Next slot the producer writes (monotonic, wraps via `mask`).
    // sync: release-acquire — push_slot's Release store publishes the
    // slot write; try_pop's Acquire load pairs with it.
    tail: AtomicUsize,
    /// Next slot the consumer reads (monotonic, wraps via `mask`).
    // sync: release-acquire — pop_slot's Release store publishes the
    // freed slot; try_push's Acquire load pairs with it.
    head: AtomicUsize,
    /// Cleared by the consumer's drop guard when the worker exits.
    // sync: release-acquire — mark_dead's Release store pairs with the
    // producer-side Acquire loads in try_push/consumer_alive.
    consumer_alive: AtomicBool,
    /// Raised when the producer endpoint is closed or dropped: the
    /// consumer drains what is queued, then `pop_wait` returns `None`.
    // sync: release-acquire — close's Release store orders the final
    // pushes before pop_wait's Acquire load observes the close.
    producer_closed: AtomicBool,
    /// Oldest-item drop credits posted by the producer under shedding
    /// backpressure, redeemed by the consumer via `take_shed`.
    // sync: counter — relaxed credit counter; freed slots are observed
    // through `head`, never through this value.
    shed_requests: AtomicU32,
    /// Raised by the consumer just before parking.
    // sync: seqcst-handshake — relaxed flag sealed by SeqCst fences on
    // both sides (pop_wait / wake_consumer), the Dekker-style store-
    // buffering guard that makes lost wakeups impossible.
    consumer_parked: AtomicBool,
    /// The consumer thread to unpark; registered before the first pop.
    consumer_thread: Mutex<Option<Thread>>,
}

impl<T> SpscRing<T> {
    /// Allocate a ring with at least `capacity` slots (rounded up to a
    /// power of two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let mut slots = Vec::with_capacity(cap);
        for _ in 0..cap {
            slots.push(Slot(RaceCell::new(MaybeUninit::uninit())));
        }
        Self {
            slots: slots.into_boxed_slice(),
            mask: cap - 1,
            tail: AtomicUsize::new(0),
            head: AtomicUsize::new(0),
            consumer_alive: AtomicBool::new(true),
            producer_closed: AtomicBool::new(false),
            shed_requests: AtomicU32::new(0),
            consumer_parked: AtomicBool::new(false),
            consumer_thread: Mutex::new(None),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Split into the producer and consumer endpoints.
    pub fn split(self) -> (Producer<T>, Consumer<T>) {
        let ring = Arc::new(self);
        (
            Producer {
                ring: Arc::clone(&ring),
            },
            Consumer { ring },
        )
    }

    /// Items currently queued (racy snapshot; exact when quiescent).
    fn len(&self) -> usize {
        self.tail
            .load(Ordering::Acquire)
            .wrapping_sub(self.head.load(Ordering::Acquire))
    }

    /// Write `value` into the slot at `tail` and publish it.
    ///
    /// Safety: caller is the unique producer and has verified the slot is
    /// free (`tail - head < capacity`); the consumer only reads slots
    /// strictly below `tail`, so this write is unaliased.
    fn push_slot(&self, value: T) {
        let tail = self.tail.load(Ordering::Relaxed); // sync: relaxed-ok — producer-owned word
        let slot = &self.slots[tail & self.mask];
        // SAFETY: per the caller contract above, this slot is free and
        // no other thread touches it until the Release store below
        // publishes it.
        unsafe {
            slot.0.with_mut(|p| {
                (*p).write(value);
            });
        }
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
    }

    /// Read the slot at `head` out and free it.
    ///
    /// Safety: caller is the unique consumer and has verified the slot is
    /// filled (`head < tail`); the producer only writes slots at or above
    /// `tail`, so this read is unaliased and initialized.
    fn pop_slot(&self) -> T {
        let head = self.head.load(Ordering::Relaxed); // sync: relaxed-ok — consumer-owned word
        let slot = &self.slots[head & self.mask];
        // SAFETY: per the caller contract above, the slot was initialized
        // by the producer and published through `tail`'s Release store,
        // which the caller's Acquire load observed.
        let value = unsafe { slot.0.with(|p| (*p).assume_init_read()) };
        self.head.store(head.wrapping_add(1), Ordering::Release);
        value
    }
}

impl<T> Drop for SpscRing<T> {
    fn drop(&mut self) {
        // Both handles are gone; drain whatever is still queued.
        let head = self.head.load(Ordering::Relaxed); // sync: relaxed-ok — exclusive &mut self
        let tail = self.tail.load(Ordering::Relaxed); // sync: relaxed-ok — exclusive &mut self
        let mut at = head;
        while at != tail {
            let slot = &self.slots[at & self.mask];
            // SAFETY: slots in [head, tail) were initialized by the
            // producer and never popped; `&mut self` proves no endpoint
            // can race this drain.
            unsafe {
                slot.0.with_mut(|p| {
                    (*p).assume_init_drop();
                });
            }
            at = at.wrapping_add(1);
        }
    }
}

/// The unique producing endpoint of a ring.
pub struct Producer<T> {
    ring: Arc<SpscRing<T>>,
}

impl<T> Producer<T> {
    /// Push without waiting. On failure the value is handed back alongside
    /// the reason: [`PushError::Full`] if no slot is free,
    /// [`PushError::Disconnected`] if the consumer is gone.
    pub fn try_push(&mut self, value: T) -> Result<(), (PushError, T)> {
        if !self.ring.consumer_alive.load(Ordering::Acquire) {
            return Err((PushError::Disconnected, value));
        }
        let tail = self.ring.tail.load(Ordering::Relaxed); // sync: relaxed-ok — producer-owned word
        let head = self.ring.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) > self.ring.mask {
            return Err((PushError::Full, value));
        }
        self.ring.push_slot(value);
        self.wake_consumer();
        Ok(())
    }

    /// Push, spinning/yielding while the queue is full (the blocking
    /// backpressure policy). Fails only if the consumer disappears.
    pub fn push_blocking(&mut self, mut value: T) -> Result<(), PushError> {
        let mut spins = 0usize;
        loop {
            match self.try_push(value) {
                Ok(()) => return Ok(()),
                Err((PushError::Disconnected, _)) => return Err(PushError::Disconnected),
                Err((PushError::Full, v)) => {
                    value = v;
                    if spins < SPINS_BEFORE_YIELD {
                        hint::spin_loop();
                    } else {
                        thread::yield_now();
                    }
                    spins += 1;
                }
            }
        }
    }

    /// Push with a bounded wait: spin/yield at most `budget` times, then
    /// hand the value back as [`PushError::Full`]. The shedding policies
    /// use this so a hung consumer can never wedge the router the way an
    /// unbounded [`Self::push_blocking`] would.
    pub fn try_push_for(&mut self, mut value: T, budget: usize) -> Result<(), (PushError, T)> {
        let mut spins = 0usize;
        loop {
            match self.try_push(value) {
                Ok(()) => return Ok(()),
                Err((PushError::Disconnected, v)) => return Err((PushError::Disconnected, v)),
                Err((PushError::Full, v)) => {
                    if spins >= budget {
                        return Err((PushError::Full, v));
                    }
                    value = v;
                    if spins < SPINS_BEFORE_YIELD {
                        hint::spin_loop();
                    } else {
                        thread::yield_now();
                    }
                    spins += 1;
                }
            }
        }
    }

    /// Post `n` oldest-item drop credits for the consumer to redeem (the
    /// `DropOldest` family of backpressure policies) and wake it if
    /// parked.
    pub fn request_shed(&mut self, n: u32) {
        self.ring.shed_requests.fetch_add(n, Ordering::Relaxed);
        self.wake_consumer();
    }

    /// Close the producing endpoint: the consumer drains what is queued,
    /// then its `pop_wait` returns `None`. Idempotent; also runs on drop.
    pub fn close(&mut self) {
        self.ring.producer_closed.store(true, Ordering::Release);
        self.wake_consumer();
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.ring.len() == 0
    }

    /// Is the consumer endpoint still alive?
    pub fn consumer_alive(&self) -> bool {
        self.ring.consumer_alive.load(Ordering::Acquire)
    }

    /// SeqCst-fence handshake: after publishing `tail`, unpark the
    /// consumer iff it is (or is about to be) parked.
    fn wake_consumer(&self) {
        fence(Ordering::SeqCst);
        if self.ring.consumer_parked.load(Ordering::Relaxed) {
            if let Some(t) = self.ring.consumer_thread.lock().as_ref() {
                t.unpark();
            }
        }
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        // A producer that goes away (shutdown, or a router fencing off a
        // suspect worker) must not leave the consumer parked forever.
        self.close();
    }
}

/// The unique consuming endpoint of a ring.
pub struct Consumer<T> {
    ring: Arc<SpscRing<T>>,
}

impl<T> Consumer<T> {
    /// Register the calling thread as the one to unpark. Workers call this
    /// once before their first [`Self::pop_wait`].
    pub fn register_current_thread(&self) {
        *self.ring.consumer_thread.lock() = Some(thread::current());
    }

    /// Pop without waiting.
    pub fn try_pop(&mut self) -> Option<T> {
        let head = self.ring.head.load(Ordering::Relaxed); // sync: relaxed-ok — consumer-owned word
        let tail = self.ring.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        Some(self.ring.pop_slot())
    }

    /// Pop, escalating empty-queue waits from spin to yield to park.
    /// The producer's post-push fence pairs with the fence below, so
    /// either this thread sees the new item on its re-check or the
    /// producer sees the parked flag and unparks it. Returns `None` once
    /// the producer endpoint is closed (or dropped) *and* the queue is
    /// drained — the close/park race is covered by the same fence
    /// handshake as pushes.
    pub fn pop_wait(&mut self) -> Option<T> {
        loop {
            let mut spins = 0usize;
            while spins < SPINS_BEFORE_YIELD + YIELDS_BEFORE_PARK {
                if let Some(v) = self.try_pop() {
                    return Some(v);
                }
                if self.ring.producer_closed.load(Ordering::Acquire) {
                    // Re-check after observing the close: the producer's
                    // final pushes happen-before the Release store.
                    return self.try_pop();
                }
                if spins < SPINS_BEFORE_YIELD {
                    hint::spin_loop();
                } else {
                    thread::yield_now();
                }
                spins += 1;
            }
            // Self-register before the first park, so an unregistered
            // consumer can never sleep beyond the producer's reach.
            self.register_current_thread();
            self.ring.consumer_parked.store(true, Ordering::Relaxed);
            fence(Ordering::SeqCst);
            if let Some(v) = self.try_pop() {
                self.ring.consumer_parked.store(false, Ordering::Relaxed);
                return Some(v);
            }
            if self.ring.producer_closed.load(Ordering::Acquire) {
                self.ring.consumer_parked.store(false, Ordering::Relaxed);
                return self.try_pop();
            }
            thread::park();
            self.ring.consumer_parked.store(false, Ordering::Relaxed);
        }
    }

    /// Redeem up to `max` shed credits posted by
    /// [`Producer::request_shed`]; returns how many were taken. The
    /// consumer discards that many oldest queued items before applying
    /// its next batch.
    pub fn take_shed(&mut self, max: u32) -> u32 {
        // Fast path for the overwhelmingly common no-credits case: one
        // relaxed load, no RMW on the per-burst hot path.
        if self.ring.shed_requests.load(Ordering::Relaxed) == 0 {
            return 0;
        }
        let mut taken = 0u32;
        let _ = self
            .ring
            .shed_requests
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                taken = v.min(max);
                Some(v - taken)
            });
        taken
    }

    /// Mark the consumer as gone so blocked producers fail fast instead of
    /// waiting forever. Called by the worker's drop guard.
    pub fn mark_dead(&self) {
        self.ring.consumer_alive.store(false, Ordering::Release);
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.ring.len() == 0
    }

    /// Address of the shared ring, so tests can tell two endpoints'
    /// rings apart.
    #[cfg(test)]
    pub(crate) fn ring_addr(&self) -> *const SpscRing<T> {
        Arc::as_ptr(&self.ring)
    }
}
