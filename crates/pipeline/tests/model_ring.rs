//! Exhaustive model check of the SPSC ring (`qf_pipeline::SpscRing`).
//!
//! Runs only under `RUSTFLAGS='--cfg qf_model'` (via `cargo xtask
//! model`). The ring's contract under concurrency:
//!
//! - every successfully pushed value is taken exactly once, in FIFO
//!   order — no lost slots, no duplicated slots;
//! - payloads are never torn (the model's `RaceCell` race detector
//!   proves every slot access is ordered by the tail/head handshake);
//! - a buffer the consumer releases into its slot comes back to the
//!   producer's next push there, owned by one side at a time, and is
//!   freed exactly once;
//! - the park/wake handshake never deadlocks: a consumer that parks is
//!   always woken by a later push or close.
//!
//! Three seeded-bug miniatures pin down *why* the orderings are what
//! they are: weakening the tail publish or the head release to
//! `Relaxed` is a data race, and dropping the `SeqCst` park/wake fences
//! is a lost wakeup.
#![cfg(qf_model)]

use qf_model::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use qf_model::sync::cell::RaceCell;
use qf_model::sync::thread;
use qf_model::{try_model, Checker};
use qf_pipeline::SpscRing;
use std::sync::atomic::AtomicUsize as TallyWord;
use std::sync::Arc;

/// Producer pushes 1, 2 into a capacity-2 ring and closes; the
/// consumer drains with `pop_wait`. Exactly `[1, 2]` must come out, in
/// order, in every interleaving — and every consumer park must be
/// matched by a wakeup (a miss would surface as a reported deadlock).
#[test]
fn fifo_no_loss_no_dup_no_deadlock() {
    let stats = Checker::new()
        .preemption_bound(2)
        .check(|| {
            let (mut tx, mut rx) = SpscRing::with_capacity(2).split();
            let producer = thread::spawn(move || {
                // Capacity 2 and two pushes: `Full` is impossible, and
                // the consumer being alive is guaranteed by construction.
                tx.try_push(1u64).expect("push 1");
                tx.try_push(2u64).expect("push 2");
                tx.close();
            });
            let mut got = Vec::new();
            while let Some(v) = rx.pop_wait() {
                got.push(v);
            }
            producer.join().unwrap();
            assert_eq!(got, vec![1, 2], "lost, duplicated, or reordered slot");
        })
        .expect("SPSC ring must deliver every push exactly once, in order");
    assert!(stats.executions > 1, "stats: {stats:?}");
}

/// Backpressure path: two `push_blocking` calls through a capacity-1
/// ring force the producer through its spin/yield loop (the second
/// push must wait for the pop) and wrap the ring. FIFO and
/// exactly-once must survive the wraparound.
#[test]
fn blocking_push_wraparound_preserves_fifo() {
    Checker::new()
        .preemption_bound(2)
        .check(|| {
            let (mut tx, mut rx) = SpscRing::with_capacity(1).split();
            let producer = thread::spawn(move || {
                for v in 1..=2u64 {
                    tx.push_blocking(v).expect("consumer alive");
                }
                tx.close();
            });
            let mut got = Vec::new();
            while let Some(v) = rx.pop_wait() {
                got.push(v);
            }
            producer.join().unwrap();
            assert_eq!(got, vec![1, 2], "wraparound broke FIFO");
        })
        .expect("blocking pushes must deliver every value exactly once, in order");
}

/// A consumer that races ahead parks; the producer's push + close must
/// always reach it. Deadlock here is the lost-wakeup bug the SeqCst
/// fence handshake exists to prevent.
#[test]
fn parked_consumer_always_woken() {
    Checker::new()
        .preemption_bound(3)
        .check(|| {
            let (mut tx, mut rx) = SpscRing::with_capacity(1).split();
            let consumer = thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = rx.pop_wait() {
                    got.push(v);
                }
                got
            });
            tx.try_push(7u64).expect("push");
            tx.close();
            let got = consumer.join().unwrap();
            assert_eq!(got, vec![7]);
        })
        .expect("a parked consumer must always be woken by push or close");
}

/// The slab-slot protocol: ring slots carry *owned heap slabs* (the
/// pipeline's `Msg::Slab` payload), not words. Every slab must come out
/// exactly once with its contents intact — the tail publish must order
/// the slab's heap writes, not just the slot word, and no interleaving
/// may drop or duplicate a slab (which would double-free or leak its
/// allocation).
#[test]
fn slab_slot_protocol_delivers_each_slab_exactly_once() {
    Checker::new()
        .preemption_bound(2)
        .check(|| {
            let (mut tx, mut rx) = SpscRing::with_capacity(2).split();
            let producer = thread::spawn(move || {
                tx.try_push(vec![(1u64, 1.0f64), (2, 2.0)]).expect("slab 1");
                tx.try_push(vec![(3u64, 3.0f64)]).expect("slab 2");
                tx.close();
            });
            let mut got = Vec::new();
            while let Some(slab) = rx.pop_wait() {
                got.extend(slab);
            }
            producer.join().unwrap();
            assert_eq!(
                got,
                vec![(1, 1.0), (2, 2.0), (3, 3.0)],
                "slab lost, duplicated, or torn"
            );
        })
        .expect("every slab must be delivered exactly once, contents intact");
}

/// A slab buffer stand-in for the round-trip harness. Its contents live
/// on the heap behind a race-checked cell, like a slab's item buffer, so
/// the checker sees every touch wherever the handle travels; dropping it
/// tallies one free for its id.
struct Buf {
    id: usize,
    items: Box<RaceCell<u64>>,
    /// Frees per buffer id: a plain `std` tally, outside the model's
    /// schedule, so counting adds no interleavings.
    // sync: counter — bookkeeping only, read after every thread joined.
    frees: Arc<[TallyWord; 3]>,
}

impl Buf {
    fn new(id: usize, frees: &Arc<[TallyWord; 3]>) -> Self {
        Self {
            id,
            items: Box::new(RaceCell::new(0)),
            frees: Arc::clone(frees),
        }
    }
}

impl Drop for Buf {
    fn drop(&mut self) {
        self.frees[self.id - 1].fetch_add(1, Ordering::Relaxed);
    }
}

/// The slab's round trip: the producer fills and pushes three buffers
/// through a capacity-2 ring, allocating a new one whenever a push gets
/// nothing back; the consumer takes each one, checks and clears it, and
/// releases it back into its slot. The third push must wait for the
/// first release and get back exactly the first buffer, cleared. The
/// race checker proves each buffer is owned by one side at a time (the
/// producer's fill, the consumer's check and clear, and the producer's
/// re-read are ordered by the `tail` and `head` handshakes), and the
/// tallies prove every buffer is freed exactly once: none leaked in a
/// slot, none dropped twice.
#[test]
fn slab_round_trip_returns_the_first_buffer_to_the_third_push() {
    Checker::new()
        .preemption_bound(2)
        .check(|| {
            let frees: Arc<[TallyWord; 3]> = Arc::new(Default::default());
            let (mut tx, mut rx) = SpscRing::with_capacity(2).split();
            let f2 = Arc::clone(&frees);
            let producer = thread::spawn(move || {
                let mut buf = Buf::new(1, &f2);
                for id in 1..=3 {
                    // SAFETY: the producer owns `buf`: it is fresh, or a
                    // push took it back after an Acquire load of `head`
                    // that synchronized with the consumer's release.
                    unsafe { buf.items.with_mut(|p| *p = 10 * id as u64) };
                    buf = match tx.push_blocking(buf).expect("consumer alive") {
                        Some(back) => {
                            assert_eq!(id, 3, "push {id} got a buffer back");
                            assert_eq!(back.id, 1, "the third push got buffer {}", back.id);
                            // SAFETY: as above — released, then taken
                            // back through the Acquire load of `head`.
                            let left = unsafe { back.items.with(|p| *p) };
                            assert_eq!(left, 0, "the buffer came back uncleared");
                            back
                        }
                        None => {
                            assert!(id < 3, "the third push got nothing back");
                            Buf::new(id + 1, &f2)
                        }
                    };
                }
                tx.close();
                buf
            });
            let mut seen = Vec::new();
            while let Some(buf) = rx.take_wait() {
                // SAFETY: the take's Acquire load of `tail` synchronized
                // with the push that published this buffer.
                let got = unsafe { buf.items.with(|p| *p) };
                assert_eq!(got, 10 * buf.id as u64, "torn buffer {}", buf.id);
                // SAFETY: the slot is still the consumer's until the
                // release below.
                unsafe { buf.items.with_mut(|p| *p = 0) };
                seen.push(buf.id);
                rx.release(Some(buf));
            }
            let kept = producer.join().unwrap();
            assert_eq!(seen, vec![1, 2, 3], "lost, duplicated, or reordered buffer");
            assert_eq!(kept.id, 1);
            drop(kept);
            drop(rx);
            for (i, freed) in frees.iter().enumerate() {
                assert_eq!(
                    freed.load(Ordering::Relaxed),
                    1,
                    "buffer {} was freed {} times",
                    i + 1,
                    freed.load(Ordering::Relaxed)
                );
            }
        })
        .expect("every buffer makes its round trip, owned by one side at a time");
}

/// `PushError::Disconnected` mid-slab: a dead consumer hands the
/// in-flight slab *back to the producer intact* — this returned-value
/// contract is what lets the router count (or re-flush) every item of a
/// bounced slab instead of losing it from both sides of the
/// conservation law.
#[test]
fn disconnected_push_hands_the_slab_back_intact() {
    Checker::new()
        .preemption_bound(2)
        .check(|| {
            let (mut tx, rx) = SpscRing::with_capacity(2).split();
            let consumer = thread::spawn(move || {
                rx.mark_dead();
            });
            let slab = vec![(7u64, 7.0f64), (8, 8.0)];
            match tx.try_push(slab) {
                Ok(_) => {}
                Err((e, returned)) => {
                    assert!(matches!(e, qf_pipeline::PushError::Disconnected));
                    assert_eq!(
                        returned,
                        vec![(7, 7.0), (8, 8.0)],
                        "bounced slab must come back intact"
                    );
                }
            }
            consumer.join().unwrap();
        })
        .expect("a bounced slab is returned intact, never dropped silently");
}

/// Seeded-bug self-test: the ring's slot handshake with the tail
/// publish weakened to `Relaxed`. The consumer's acquire load of
/// `tail` then no longer synchronizes with the payload write, so the
/// payload read is a data race — the checker must say so.
///
/// This miniature is the justification for the `Release` store in
/// `push_slot`: weaken it and the harnesses above fail exactly like
/// this.
#[test]
fn seeded_relaxed_tail_publish_caught() {
    let v = try_model(|| {
        let slot = Arc::new(RaceCell::new(0u64));
        let tail = Arc::new(AtomicUsize::new(0));
        let (s2, t2) = (Arc::clone(&slot), Arc::clone(&tail));
        let producer = thread::spawn(move || {
            // SAFETY: (model) intentionally unsynchronized — the model
            // race checker is the subject under test here.
            unsafe { s2.with_mut(|p| *p = 41) };
            t2.store(1, Ordering::Relaxed); // BUG under test: not Release
        });
        if tail.load(Ordering::Acquire) == 1 {
            // SAFETY: (model) claimed ordered by the acquire load above,
            // which the seeded relaxed publish fails to provide.
            let got = unsafe { slot.with(|p| *p) };
            assert_eq!(got, 41);
        }
        producer.join().unwrap();
    });
    let v = v.expect_err("relaxed tail publish must be reported as a race");
    assert!(v.message.contains("data race"), "{}", v.message);
}

/// The fixed twin: `Release` publish, `Acquire` observe — race-free
/// and value-correct, proving the seeded test fails for the right
/// reason.
#[test]
fn seeded_twin_release_tail_publish_verified() {
    Checker::new()
        .check(|| {
            let slot = Arc::new(RaceCell::new(0u64));
            let tail = Arc::new(AtomicUsize::new(0));
            let (s2, t2) = (Arc::clone(&slot), Arc::clone(&tail));
            let producer = thread::spawn(move || {
                // SAFETY: the Release store below publishes this write;
                // the reader only looks after its Acquire load observes it.
                unsafe { s2.with_mut(|p| *p = 41) };
                t2.store(1, Ordering::Release);
            });
            if tail.load(Ordering::Acquire) == 1 {
                // SAFETY: Acquire synchronized with the Release publish.
                let got = unsafe { slot.with(|p| *p) };
                assert_eq!(got, 41);
            }
            producer.join().unwrap();
        })
        .expect("release/acquire tail handshake must verify clean");
}

/// Seeded-bug self-test for the slab handoff: a slab buffer handed to
/// the consumer through a bare `Relaxed` ready-flag instead of the
/// ring. The flag's load doesn't synchronize with the slab's heap
/// writes, so reading the slab races — exactly the bug the real
/// protocol avoids by moving slabs *through* the ring's slots.
#[test]
fn seeded_relaxed_slab_handoff_caught() {
    let v = try_model(|| {
        let slab = Arc::new(RaceCell::new(0u64)); // stands in for slab contents
        let ready = Arc::new(AtomicBool::new(false));
        let (s2, r2) = (Arc::clone(&slab), Arc::clone(&ready));
        let router = thread::spawn(move || {
            // SAFETY: (model) intentionally unsynchronized — the model
            // race checker is the subject under test here.
            unsafe { s2.with_mut(|p| *p = 99) };
            r2.store(true, Ordering::Relaxed); // BUG under test: not a ring push
        });
        if ready.load(Ordering::Relaxed) {
            // SAFETY: (model) claimed ordered by the ready flag, which
            // the seeded relaxed handoff fails to provide.
            let got = unsafe { slab.with(|p| *p) };
            assert_eq!(got, 99);
        }
        router.join().unwrap();
    });
    let v = v.expect_err("relaxed slab handoff must be reported as a race");
    assert!(v.message.contains("data race"), "{}", v.message);
}

/// The fixed twin: the same slab contents handed through the actual
/// ring. The slot handshake (Release tail publish / Acquire observe)
/// orders the slab's heap writes before any consumer read — the
/// race-checker-visible proof that slab handoff needs no per-item
/// synchronization beyond the one slot exchange.
#[test]
fn seeded_twin_slab_through_ring_verified() {
    Checker::new()
        .preemption_bound(2)
        .check(|| {
            let slab = Arc::new(RaceCell::new(0u64));
            let (mut tx, mut rx) = SpscRing::with_capacity(1).split();
            let s2 = Arc::clone(&slab);
            let router = thread::spawn(move || {
                // SAFETY: written before the ring push; the push's
                // Release publish orders it before the consumer's read.
                unsafe { s2.with_mut(|p| *p = 99) };
                tx.try_push(Arc::clone(&s2)).expect("push slab");
                tx.close();
            });
            while let Some(handed) = rx.pop_wait() {
                // SAFETY: the pop's Acquire load synchronized with the
                // push that published this slab.
                let got = unsafe { handed.with(|p| *p) };
                assert_eq!(got, 99);
            }
            router.join().unwrap();
        })
        .expect("slab handoff through the ring must verify race-free");
}

/// Seeded-bug self-test for the way back: the consumer leaves a buffer
/// in its slot and releases the slot with `head` stored `Relaxed`. The
/// producer's Acquire load of `head` then no longer synchronizes with
/// the consumer's write, so the producer's read of the buffer it takes
/// back races with it — the checker must say so.
///
/// This miniature is the justification for the `Release` store in
/// `release_slot`: weaken it and the round-trip harness above fails
/// exactly like this.
#[test]
fn seeded_relaxed_head_release_caught() {
    let v = try_model(|| {
        let slot = Arc::new(RaceCell::new(0u64));
        let head = Arc::new(AtomicUsize::new(0));
        let (s2, h2) = (Arc::clone(&slot), Arc::clone(&head));
        let consumer = thread::spawn(move || {
            // SAFETY: (model) intentionally unsynchronized — the model
            // race checker is the subject under test here.
            unsafe { s2.with_mut(|p| *p = 7) };
            h2.store(1, Ordering::Relaxed); // BUG under test: not Release
        });
        if head.load(Ordering::Acquire) == 1 {
            // SAFETY: (model) claimed ordered by the acquire load above,
            // which the seeded relaxed release fails to provide.
            let got = unsafe { slot.with(|p| *p) };
            assert_eq!(got, 7);
        }
        consumer.join().unwrap();
    });
    let v = v.expect_err("relaxed head release must be reported as a race");
    assert!(v.message.contains("data race"), "{}", v.message);
}

/// The fixed twin: `Release` release, `Acquire` observe — the buffer the
/// producer takes back is race-free and holds what the consumer left.
#[test]
fn seeded_twin_release_head_verified() {
    Checker::new()
        .check(|| {
            let slot = Arc::new(RaceCell::new(0u64));
            let head = Arc::new(AtomicUsize::new(0));
            let (s2, h2) = (Arc::clone(&slot), Arc::clone(&head));
            let consumer = thread::spawn(move || {
                // SAFETY: the Release store below publishes this write;
                // the producer only looks after its Acquire load sees it.
                unsafe { s2.with_mut(|p| *p = 7) };
                h2.store(1, Ordering::Release);
            });
            if head.load(Ordering::Acquire) == 1 {
                // SAFETY: Acquire synchronized with the Release release.
                let got = unsafe { slot.with(|p| *p) };
                assert_eq!(got, 7);
            }
            consumer.join().unwrap();
        })
        .expect("release/acquire head handshake must verify clean");
}

/// Seeded-bug self-test: the park/wake handshake with both `SeqCst`
/// fences dropped. The producer can then check `parked` before the
/// consumer's flag store becomes visible *and* the consumer can check
/// the item flag before the push becomes visible — both sides miss,
/// the consumer parks forever: a lost wakeup, reported as a deadlock.
#[test]
fn seeded_unfenced_park_handshake_deadlocks() {
    let v = try_model(|| {
        let item = Arc::new(AtomicBool::new(false));
        let parked = Arc::new(AtomicBool::new(false));
        let (i2, p2) = (Arc::clone(&item), Arc::clone(&parked));
        let consumer = thread::current();
        let producer = thread::spawn(move || {
            i2.store(true, Ordering::Relaxed);
            // BUG under test: no fence(SeqCst) here.
            if p2.load(Ordering::Relaxed) {
                consumer.unpark();
            }
        });
        if !item.load(Ordering::Relaxed) {
            parked.store(true, Ordering::Relaxed);
            // BUG under test: no fence(SeqCst) here.
            if !item.load(Ordering::Relaxed) {
                thread::park();
            }
            parked.store(false, Ordering::Relaxed);
        }
        producer.join().unwrap();
    });
    let v = v.expect_err("unfenced park handshake must deadlock somewhere");
    assert!(v.message.contains("deadlock"), "{}", v.message);
}

/// The fixed twin: both fences restored (the shape `wake_consumer` and
/// `take_wait` actually use) — no interleaving loses the wakeup.
#[test]
fn seeded_twin_fenced_park_handshake_verified() {
    Checker::new()
        .check(|| {
            let item = Arc::new(AtomicBool::new(false));
            let parked = Arc::new(AtomicBool::new(false));
            let (i2, p2) = (Arc::clone(&item), Arc::clone(&parked));
            let consumer = thread::current();
            let producer = thread::spawn(move || {
                i2.store(true, Ordering::Relaxed);
                fence(Ordering::SeqCst);
                if p2.load(Ordering::Relaxed) {
                    consumer.unpark();
                }
            });
            if !item.load(Ordering::Relaxed) {
                parked.store(true, Ordering::Relaxed);
                fence(Ordering::SeqCst);
                if !item.load(Ordering::Relaxed) {
                    thread::park();
                }
                parked.store(false, Ordering::Relaxed);
            }
            producer.join().unwrap();
        })
        .expect("fenced park handshake must verify clean");
}
