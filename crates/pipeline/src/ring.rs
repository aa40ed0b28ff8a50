//! Bounded single-producer / single-consumer ring queue whose slots carry
//! a buffer back as well as forward.
//!
//! Hand-rolled (no external deps) because the pipeline's hot path is one
//! `push` per message and one take/release per worker iteration: a fixed
//! power-of-two array of `Option<T>` slots, a producer-owned `tail`, two
//! consumer-owned words (`taken` and `head`), and acquire/release pairs on
//! exactly those three words. No locks, no per-message allocation — the
//! slot array is the only heap memory and it is allocated once in
//! [`SpscRing::with_capacity`].
//!
//! The ring is payload-agnostic; the pipeline's slab handoff lives one
//! layer up. Each slot carries a whole `Msg` — usually a router-filled
//! item slab — so one acquire/release handshake and at most one wake
//! amortize over `slab_capacity` items, and a capacity-`N` ring holds up
//! to `N × slab_capacity` items in flight. Shed credits redeem against
//! whole slots (one credit = the oldest queued *slab*); per-item shed
//! accounting is the worker's job, not the ring's.
//!
//! ## Take, release, and the buffer that comes back
//!
//! A slot is the consumer's from the producer's push until the consumer
//! *releases* it, not merely until it reads the value out:
//!
//! 1. [`Producer::try_push`] writes the value into the slot at `tail`,
//!    publishes it (`tail`, Release), and returns whatever the slot held
//!    before — the leftover the consumer left there on its last release.
//! 2. [`Consumer::try_take`] moves the value out of the slot at `taken`
//!    and advances `taken` (Release). The slot stays occupied.
//! 3. [`Consumer::release`] writes a leftover (or `None`) into the slot
//!    at `head` and advances `head` (Release): only now may the producer
//!    write that slot again, and its Acquire load of `head` orders the
//!    consumer's every use of the slot before its own write.
//!
//! So `head ≤ taken ≤ tail`: `[taken, tail)` is published but not yet
//! taken, which is what [`Producer::len`] counts, and `[head, taken)` is
//! taken and not yet released. A push finds the ring full when
//! `tail − head` reaches the slot count, so the capacity bounds the
//! values the consumer is still working on as well as the queued ones.
//! The pipeline's worker releases a drained slab's emptied buffer into
//! its slot, and the router's next push there takes it back as its next
//! slab: buffers make their round trip through the one ring.
//! [`Consumer::pop_wait`] and [`Consumer::try_pop`] are a take followed
//! by a release of nothing.
//!
//! `taken` and `head` are both consumer-written and share one cache line;
//! `tail` has a line of its own, so the consumer's per-slab stores never
//! invalidate the line the producer writes on every push. Each endpoint
//! keeps a private copy of the cursors it owns and never loads its own
//! words back: the producer's one cursor load is `head`, the consumer's
//! is `tail`, and `len` reads `tail` and `taken`.
//!
//! The single-producer / single-consumer discipline is enforced in the
//! type system: [`split`](SpscRing::split) yields one [`Producer`] and one
//! [`Consumer`], neither of which is `Clone`. The pipeline gives each
//! shard queue its producer side to the (single-threaded) router and its
//! consumer side to the shard's worker thread.
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
//! producer stalls end as soon as the consumer releases a slot, so
//! parking machinery on that side would buy nothing.
//!
//! ## Liveness
//!
//! Every release is observed by the producer via `head`; every blocking
//! wait re-checks [`consumer_alive`](SpscRing) so a worker that exits
//! (including by panic — the worker holds a drop guard) turns a would-be
//! deadlock into a [`PushError::Disconnected`]. The symmetric signal
//! exists on the other side: dropping (or [`close`](Producer::close)-ing)
//! the producer makes [`Consumer::take_wait`] return `None` once the
//! queue drains, so a worker whose router fenced it off unblocks instead
//! of parking forever.
//!
//! ## Shed credits
//!
//! Only the consumer owns `taken` and `head`, so "drop the *oldest* queued
//! message" cannot be done by the producer directly. Instead the producer
//! posts a **shed credit** ([`Producer::request_shed`]); the consumer
//! redeems credits ([`Consumer::take_shed`]) by discarding that many taken
//! messages instead of applying them. The handoff is a single relaxed
//! counter — the producer's full-queue retry observes released slots
//! through `head` exactly as it does for ordinary releases.

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

struct Slot<T>(RaceCell<Option<T>>);

/// The producer's cursor, on a cache line (pair) of its own.
#[repr(align(128))]
struct ProducerLine {
    /// Next slot the producer writes (monotonic, wraps via `mask`).
    // sync: release-acquire — push_slot's Release store publishes the
    // slot write; try_take's and len's Acquire loads pair with it.
    tail: AtomicUsize,
}

/// The consumer's two cursors: both written only by the consumer, so
/// they share one line, away from `tail`.
#[repr(align(128))]
struct ConsumerLine {
    /// Next slot the consumer takes a value out of (monotonic, wraps via
    /// `mask`).
    // sync: release-acquire — take_slot's Release store pairs with len's
    // Acquire load, so a producer that reads the ring empty has seen
    // every take that emptied it.
    taken: AtomicUsize,
    /// Next slot the consumer releases back to the producer (monotonic,
    /// wraps via `mask`; never passes `taken`).
    // sync: release-acquire — release_slot's Release store publishes the
    // consumer's last use of the slot and the leftover it wrote there;
    // try_push's Acquire load pairs with it.
    head: AtomicUsize,
}

/// The shared ring state. Construct with [`SpscRing::with_capacity`] and
/// [`split`](SpscRing::split) into the two endpoint handles.
pub struct SpscRing<T> {
    slots: Box<[Slot<T>]>,
    mask: usize,
    producer: ProducerLine,
    consumer: ConsumerLine,
    /// Cleared by the consumer's drop guard when the worker exits.
    // sync: release-acquire — mark_dead's Release store pairs with the
    // producer-side Acquire loads in try_push/consumer_alive.
    consumer_alive: AtomicBool,
    /// Raised when the producer endpoint is closed or dropped: the
    /// consumer drains what is queued, then `take_wait` returns `None`.
    // sync: release-acquire — close's Release store orders the final
    // pushes before take_wait's Acquire load observes the close.
    producer_closed: AtomicBool,
    /// Oldest-item drop credits posted by the producer under shedding
    /// backpressure, redeemed by the consumer via `take_shed`.
    // sync: counter — relaxed credit counter; released slots are observed
    // through `head`, never through this value.
    shed_requests: AtomicU32,
    /// Raised by the consumer just before parking.
    // sync: seqcst-handshake — relaxed flag sealed by SeqCst fences on
    // both sides (take_wait / wake_consumer), the Dekker-style store-
    // buffering guard that makes lost wakeups impossible.
    consumer_parked: AtomicBool,
    /// The consumer thread to unpark; registered before the first take.
    consumer_thread: Mutex<Option<Thread>>,
}

impl<T> SpscRing<T> {
    /// Allocate a ring with at least `capacity` slots (rounded up to a
    /// power of two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let mut slots = Vec::with_capacity(cap);
        for _ in 0..cap {
            slots.push(Slot(RaceCell::new(None)));
        }
        Self {
            slots: slots.into_boxed_slice(),
            mask: cap - 1,
            producer: ProducerLine {
                tail: AtomicUsize::new(0),
            },
            consumer: ConsumerLine {
                taken: AtomicUsize::new(0),
                head: AtomicUsize::new(0),
            },
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
                tail: 0,
            },
            Consumer {
                ring,
                taken: 0,
                head: 0,
            },
        )
    }

    /// Values published but not yet taken (racy snapshot; exact when
    /// quiescent).
    fn len(&self) -> usize {
        self.producer
            .tail
            .load(Ordering::Acquire)
            .wrapping_sub(self.consumer.taken.load(Ordering::Acquire))
    }

    /// Write `value` into the slot at `tail` (the producer's cursor, from
    /// its own copy), publish it, and return what the slot held.
    ///
    /// Safety: caller is the unique producer and has verified, through an
    /// Acquire load of `head`, that the slot is released
    /// (`tail - head < capacity`); the consumer only touches slots in
    /// `[head, tail)`, so this access is unaliased.
    fn push_slot(&self, tail: usize, value: T) -> Option<T> {
        let slot = &self.slots[tail & self.mask];
        // SAFETY: per the caller contract above, the consumer released
        // this slot and no other thread touches it until the Release
        // store below publishes it.
        let back = unsafe { slot.0.with_mut(|p| (*p).replace(value)) };
        self.producer
            .tail
            .store(tail.wrapping_add(1), Ordering::Release);
        back
    }

    /// Move the value out of the slot at `taken` (the consumer's take
    /// cursor, from its own copy). The slot stays the consumer's until
    /// [`Self::release_slot`].
    ///
    /// Safety: caller is the unique consumer and has verified, through an
    /// Acquire load of `tail`, that the slot is published
    /// (`taken < tail`); the producer only writes slots it has seen
    /// released, and this one is not (`head ≤ taken`).
    fn take_slot(&self, taken: usize) -> Option<T> {
        let slot = &self.slots[taken & self.mask];
        // SAFETY: per the caller contract above, the producer published
        // this slot through `tail`'s Release store, which the caller's
        // Acquire load observed, and will not write it again before
        // `head` passes it.
        let value = unsafe { slot.0.with_mut(|p| (*p).take()) };
        debug_assert!(value.is_some(), "a published slot held no value");
        self.consumer
            .taken
            .store(taken.wrapping_add(1), Ordering::Release);
        value
    }

    /// Leave `leftover` in the slot at `head` (the consumer's release
    /// cursor, from its own copy) and hand the slot back to the producer.
    ///
    /// Safety: caller is the unique consumer and has verified
    /// `head < taken`, so the slot was taken and the producer has not
    /// been allowed to write it since.
    fn release_slot(&self, head: usize, leftover: Option<T>) {
        let slot = &self.slots[head & self.mask];
        // SAFETY: per the caller contract above, the slot is still the
        // consumer's; the Release store below hands it over.
        unsafe { slot.0.with_mut(|p| *p = leftover) };
        self.consumer
            .head
            .store(head.wrapping_add(1), Ordering::Release);
    }
}

/// The unique producing endpoint of a ring.
pub struct Producer<T> {
    ring: Arc<SpscRing<T>>,
    /// This endpoint's copy of `tail`, which only it writes.
    tail: usize,
}

impl<T> Producer<T> {
    /// Push without waiting. On success, returns what the slot held: the
    /// leftover the consumer released into it, or `None` for a slot that
    /// never held one. On failure the value is handed back alongside the
    /// reason: [`PushError::Full`] if no slot is released,
    /// [`PushError::Disconnected`] if the consumer is gone.
    pub fn try_push(&mut self, value: T) -> Result<Option<T>, (PushError, T)> {
        if !self.ring.consumer_alive.load(Ordering::Acquire) {
            return Err((PushError::Disconnected, value));
        }
        let head = self.ring.consumer.head.load(Ordering::Acquire);
        if self.tail.wrapping_sub(head) > self.ring.mask {
            return Err((PushError::Full, value));
        }
        let back = self.ring.push_slot(self.tail, value);
        self.tail = self.tail.wrapping_add(1);
        self.wake_consumer();
        Ok(back)
    }

    /// Push, spinning/yielding while the queue is full (the blocking
    /// backpressure policy). Fails only if the consumer disappears.
    pub fn push_blocking(&mut self, mut value: T) -> Result<Option<T>, PushError> {
        let mut spins = 0usize;
        loop {
            match self.try_push(value) {
                Ok(back) => return Ok(back),
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
    pub fn try_push_for(
        &mut self,
        mut value: T,
        budget: usize,
    ) -> Result<Option<T>, (PushError, T)> {
        let mut spins = 0usize;
        loop {
            match self.try_push(value) {
                Ok(back) => return Ok(back),
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
    /// then its `take_wait` returns `None`. Idempotent; also runs on drop.
    pub fn close(&mut self) {
        self.ring.producer_closed.store(true, Ordering::Release);
        self.wake_consumer();
    }

    /// Values published but not yet taken by the consumer.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Has the consumer taken everything published?
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

    /// Address of the shared ring, so tests can tell two endpoints'
    /// rings apart.
    #[cfg(test)]
    pub(crate) fn ring_addr(&self) -> *const SpscRing<T> {
        Arc::as_ptr(&self.ring)
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
    /// This endpoint's copies of `taken` and `head`, which only it writes.
    taken: usize,
    head: usize,
}

impl<T> Consumer<T> {
    /// Register the calling thread as the one to unpark. Workers call this
    /// once before their first [`Self::take_wait`].
    pub fn register_current_thread(&self) {
        *self.ring.consumer_thread.lock() = Some(thread::current());
    }

    /// Take the oldest published value without waiting. Its slot stays
    /// occupied until [`Self::release`].
    pub fn try_take(&mut self) -> Option<T> {
        let tail = self.ring.producer.tail.load(Ordering::Acquire);
        if self.taken == tail {
            return None;
        }
        let value = self.ring.take_slot(self.taken);
        self.taken = self.taken.wrapping_add(1);
        value
    }

    /// Release the oldest taken slot, leaving `leftover` in it for the
    /// producer's next push there to return. A release with no slot
    /// taken does nothing (and drops `leftover`).
    pub fn release(&mut self, leftover: Option<T>) {
        if self.head != self.taken {
            self.ring.release_slot(self.head, leftover);
            self.head = self.head.wrapping_add(1);
        }
    }

    /// Take without releasing, escalating empty-queue waits from spin to
    /// yield to park. The producer's post-push fence pairs with the fence
    /// below, so either this thread sees the new value on its re-check or
    /// the producer sees the parked flag and unparks it. Returns `None`
    /// once the producer endpoint is closed (or dropped) *and* everything
    /// published is taken — the close/park race is covered by the same
    /// fence handshake as pushes.
    pub fn take_wait(&mut self) -> Option<T> {
        loop {
            let mut spins = 0usize;
            while spins < SPINS_BEFORE_YIELD + YIELDS_BEFORE_PARK {
                if let Some(v) = self.try_take() {
                    return Some(v);
                }
                if self.ring.producer_closed.load(Ordering::Acquire) {
                    // Re-check after observing the close: the producer's
                    // final pushes happen-before the Release store.
                    return self.try_take();
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
            if let Some(v) = self.try_take() {
                self.ring.consumer_parked.store(false, Ordering::Relaxed);
                return Some(v);
            }
            if self.ring.producer_closed.load(Ordering::Acquire) {
                self.ring.consumer_parked.store(false, Ordering::Relaxed);
                return self.try_take();
            }
            thread::park();
            self.ring.consumer_parked.store(false, Ordering::Relaxed);
        }
    }

    /// Pop without waiting: a take followed by a release of nothing.
    pub fn try_pop(&mut self) -> Option<T> {
        let value = self.try_take()?;
        self.release(None);
        Some(value)
    }

    /// Pop with [`Self::take_wait`]'s wait: a take followed by a release
    /// of nothing.
    pub fn pop_wait(&mut self) -> Option<T> {
        let value = self.take_wait()?;
        self.release(None);
        Some(value)
    }

    /// Redeem up to `max` shed credits posted by
    /// [`Producer::request_shed`]; returns how many were taken. The
    /// consumer discards that many oldest taken items instead of applying
    /// them.
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

    /// Values published but not yet taken.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Has everything published been taken?
    pub fn is_empty(&self) -> bool {
        self.ring.len() == 0
    }
}
