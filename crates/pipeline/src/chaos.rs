//! qf-chaos: deterministic fault injection for the supervised pipeline.
//!
//! A [`ChaosPlan`] describes *what* goes wrong — worker panics, hangs
//! (sleeps past the watchdog deadline), poison items, checkpoint
//! corruption (a flipped bit of a checkpoint's stored digest) — and
//! *when*, addressed by pop ordinal or seal ordinal so a plan replays
//! identically run-to-run. [`Pipeline::launch_chaos`]
//! (crate::Pipeline::launch_chaos) arms the plan; the armed state is
//! shared across worker generations through an `Arc`, so a fault with
//! `times: 1` fires exactly once even though the shard that tripped it is
//! restarted with a fresh worker.
//!
//! ## Ordinal clocks
//!
//! Item faults trigger on the shard's **pop ordinal** — the value of the
//! per-shard progress counter when the item's slab is popped, plus the
//! item's offset inside the slab, starting at 0 and monotone across
//! restarts (items lost to a crash are never popped again, so the clock
//! never repeats a value). Slab batching leaves the clock per-item: a
//! slab pop advances the counter by the slab's length and each item
//! keeps its own ordinal, so plans written against v1 address the same
//! items. Checkpoint faults trigger
//! on the shard's **seal ordinal** — 1 for the first checkpoint the
//! lineage seals, counting every seal attempt including corrupted ones.
//!
//! This module is held to the hot-path rules (QF-L002) because its check
//! runs per applied item when chaos is armed; the per-item probe is a
//! scan over a short fault list with no allocation and no clock reads
//! (the hang fault *sleeps*, which is the fault being modeled, not a
//! clock *read*).

use core::time::Duration;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// One injected fault. All coordinates are deterministic ordinals — see
/// the module docs for the two clocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The worker for `shard` panics when it pops ordinal `at_pop`.
    /// Models a crash mid-stream; fires once.
    Panic {
        /// Target shard.
        shard: usize,
        /// Pop ordinal that trips the panic (0-based).
        at_pop: u64,
    },
    /// The worker for `shard` sleeps `millis` before applying ordinal
    /// `at_pop`. With `millis` past the watchdog deadline this models a
    /// hung worker; fires once.
    Hang {
        /// Target shard.
        shard: usize,
        /// Pop ordinal that trips the sleep (0-based).
        at_pop: u64,
        /// How long the worker stays wedged.
        millis: u64,
    },
    /// Any worker that pops an item with this key panics, `times` times
    /// total. Models a poison message that crashes its consumer on every
    /// redelivery until the strike budget quarantines the shard (the
    /// pipeline itself never redelivers — each retry is a fresh ingest).
    Poison {
        /// The poisoned key.
        key: u64,
        /// How many pops of this key panic before it turns benign.
        times: u32,
    },
    /// Flip one bit of the stored digest of `shard`'s `seal`-th
    /// checkpoint (1-based), so recovery finds the copy damaged and
    /// exercises the double-buffer fallback; fires once.
    CorruptCheckpoint {
        /// Target shard.
        shard: usize,
        /// Seal ordinal to corrupt (1-based).
        seal: u64,
    },
    /// Corrupt every checkpoint `shard` ever seals, forcing recovery to
    /// lean on the journal (fresh-replay or `StateLoss` paths).
    CorruptEveryCheckpoint {
        /// Target shard.
        shard: usize,
    },
}

/// A reusable description of the faults to inject into one pipeline run.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    faults: Vec<Fault>,
}

impl ChaosPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a fault (builder-style).
    #[must_use]
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// The faults in this plan.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Arm the plan: attach per-fault remaining-use budgets. One armed
    /// instance is shared (via `Arc`) by every worker generation of the
    /// pipeline, so budgets span restarts.
    pub(crate) fn arm(&self) -> ArmedChaos {
        let remaining = self
            .faults
            .iter()
            .map(|f| {
                AtomicU32::new(match *f {
                    Fault::Poison { times, .. } => times,
                    Fault::CorruptEveryCheckpoint { .. } => u32::MAX,
                    Fault::Panic { .. } | Fault::Hang { .. } | Fault::CorruptCheckpoint { .. } => 1,
                })
            })
            .collect();
        ArmedChaos {
            shared: Arc::new(ChaosShared {
                faults: self.faults.clone(),
                remaining,
            }),
        }
    }
}

#[derive(Debug)]
struct ChaosShared {
    faults: Vec<Fault>,
    /// Uses left per fault, index-aligned with `faults`. `u32::MAX`
    /// means unlimited (never decremented to keep it truly unlimited).
    // sync: release-acquire — the consume CAS (`AcqRel` fetch_update)
    // hands the budget across worker generations so a respawned worker
    // observes every use its predecessors burned.
    remaining: Vec<AtomicU32>,
}

/// A [`ChaosPlan`] with live budgets, cloned into every worker
/// generation. Cheap to clone (one `Arc` bump) and cheap to probe (a
/// scan over the fault list).
#[derive(Debug, Clone)]
pub(crate) struct ArmedChaos {
    shared: Arc<ChaosShared>,
}

impl ArmedChaos {
    /// Consume one use of fault `idx`; `false` when its budget is spent.
    fn consume(&self, idx: usize) -> bool {
        self.shared.remaining[idx]
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
                if v == 0 {
                    None
                } else if v == u32::MAX {
                    Some(v)
                } else {
                    Some(v - 1)
                }
            })
            .is_ok()
    }

    /// Probe the item faults for (`shard`, pop `ordinal`, `key`). Called
    /// by the worker just before applying the item.
    ///
    /// # Panics
    ///
    /// Panics when a [`Fault::Panic`] or [`Fault::Poison`] matches —
    /// that *is* the injected fault; the worker's `AliveGuard` turns the
    /// unwind into a detectable crash.
    pub(crate) fn before_apply(&self, shard: usize, ordinal: u64, key: u64) {
        for (idx, fault) in self.shared.faults.iter().enumerate() {
            match *fault {
                Fault::Panic { shard: s, at_pop }
                    if s == shard && at_pop == ordinal && self.consume(idx) =>
                {
                    panic!("qf-chaos: injected panic at shard {shard} pop {ordinal}");
                }
                Fault::Hang {
                    shard: s,
                    at_pop,
                    millis,
                } if s == shard && at_pop == ordinal && self.consume(idx) => {
                    std::thread::sleep(Duration::from_millis(millis));
                }
                Fault::Poison { key: k, .. } if k == key && self.consume(idx) => {
                    panic!("qf-chaos: injected poison on key {key} at shard {shard}");
                }
                _ => {}
            }
        }
    }

    /// Probe the checkpoint faults for (`shard`, `seal` ordinal) and flip
    /// one bit of the checkpoint's stored `digest` on a match — the copy
    /// then reads as damaged, which is what the digest exists to catch.
    pub(crate) fn corrupt_checkpoint(&self, shard: usize, seal: u64, digest: &mut u64) {
        for (idx, fault) in self.shared.faults.iter().enumerate() {
            let hit = match *fault {
                Fault::CorruptCheckpoint { shard: s, seal: n } => s == shard && n == seal,
                Fault::CorruptEveryCheckpoint { shard: s } => s == shard,
                _ => false,
            };
            if hit && self.consume(idx) {
                *digest ^= 0x10;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builds_and_exposes_faults() {
        let plan = ChaosPlan::new()
            .with(Fault::Panic {
                shard: 1,
                at_pop: 10,
            })
            .with(Fault::Poison { key: 7, times: 2 });
        assert_eq!(plan.faults().len(), 2);
    }

    #[test]
    fn panic_fault_fires_once_at_its_ordinal() {
        let armed = ChaosPlan::new()
            .with(Fault::Panic {
                shard: 0,
                at_pop: 3,
            })
            .arm();
        armed.before_apply(0, 2, 9); // wrong ordinal: no fire
        armed.before_apply(1, 3, 9); // wrong shard: no fire
        let armed2 = armed.clone();
        let r = std::panic::catch_unwind(move || armed2.before_apply(0, 3, 9));
        assert!(r.is_err(), "fault should have fired");
        // Budget spent: same coordinates are now benign.
        armed.before_apply(0, 3, 9);
    }

    #[test]
    fn poison_fires_exactly_times_times() {
        let armed = ChaosPlan::new()
            .with(Fault::Poison { key: 42, times: 2 })
            .arm();
        for expect_fire in [true, true, false, false] {
            let probe = armed.clone();
            let r = std::panic::catch_unwind(move || probe.before_apply(0, 0, 42));
            assert_eq!(r.is_err(), expect_fire);
        }
        armed.before_apply(0, 0, 41); // other keys never fire
    }

    #[test]
    fn checkpoint_corruption_targets_its_seal() {
        let armed = ChaosPlan::new()
            .with(Fault::CorruptCheckpoint { shard: 2, seal: 2 })
            .arm();
        let clean = 7u64;
        let mut digest = clean;
        armed.corrupt_checkpoint(2, 1, &mut digest);
        assert_eq!(digest, clean, "seal 1 untouched");
        armed.corrupt_checkpoint(2, 2, &mut digest);
        assert_ne!(digest, clean, "seal 2 corrupted");
        let mut again = clean;
        armed.corrupt_checkpoint(2, 2, &mut again);
        assert_eq!(again, clean, "budget spent after one corruption");
    }

    #[test]
    fn corrupt_every_checkpoint_never_exhausts() {
        let armed = ChaosPlan::new()
            .with(Fault::CorruptEveryCheckpoint { shard: 0 })
            .arm();
        for seal in 1..50u64 {
            let mut digest = 0u64;
            armed.corrupt_checkpoint(0, seal, &mut digest);
            assert_ne!(digest, 0, "seal {seal} should corrupt");
        }
        let mut other = 0u64;
        armed.corrupt_checkpoint(1, 1, &mut other);
        assert_eq!(other, 0, "other shards untouched");
    }

    #[test]
    fn hang_fault_sleeps_then_disarms() {
        let armed = ChaosPlan::new()
            .with(Fault::Hang {
                shard: 0,
                at_pop: 0,
                millis: 1,
            })
            .arm();
        armed.before_apply(0, 0, 1); // sleeps ~1ms, no panic
        armed.before_apply(0, 0, 1); // disarmed
    }
}
