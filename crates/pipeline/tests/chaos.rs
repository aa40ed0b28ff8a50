//! qf-chaos: fault-injection acceptance suite for the supervised
//! pipeline.
//!
//! Every test here drives a real multi-threaded pipeline through injected
//! faults (worker panics, hangs, poison keys, checkpoint corruption) and
//! pins the recovery contract:
//!
//! * **Termination** — no fault combination deadlocks the router or
//!   propagates a panic out of a worker thread.
//! * **Conservation** — `offered == enqueued + dropped + rejected` and
//!   `enqueued == processed + shed + lost`, per shard and in total, no
//!   matter what crashed when.
//! * **Equivalence modulo loss** — with a crash whose loss window is
//!   made deterministic (a poison item hitting an idle shard), the
//!   recovered pipeline's per-shard report *sequences* equal the serial
//!   reference over the stream minus exactly the lost item.
//!
//! Timing knobs shrink-or-relax under Miri: workloads get smaller, and
//! the watchdog deadline is made effectively infinite so interpreter
//! slowness is never mistaken for a hung worker (hang *detection* is
//! covered natively; under Miri the same plans still pin termination and
//! conservation).

use qf_pipeline::{
    shard_of, BackpressurePolicy, ChaosPlan, CrashCause, Fault, IngestOutcome, Pipeline,
    PipelineConfig, PipelineSummary, RecoveredBase, ReportEvent, ShardState, SupervisorConfig,
};
use quantile_filter::{Criteria, QuantileFilter, QuantileFilterBuilder};
use rand::{Rng, SeedableRng, SmallRng};
use std::time::Duration;

#[cfg(miri)]
const N_ITEMS: usize = 600;
#[cfg(not(miri))]
const N_ITEMS: usize = 12_000;

fn criteria() -> Criteria {
    match Criteria::new(5.0, 0.9, 100.0) {
        Ok(c) => c,
        Err(e) => panic!("criteria: {e:?}"),
    }
}

/// Router slab capacity for the whole suite: the CI matrix pins one via
/// `QF_PIPELINE_SLAB` (1 / 64 / 4096); default exercises mid-size slabs.
fn slab_capacity() -> usize {
    match std::env::var("QF_PIPELINE_SLAB") {
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => panic!("bad QF_PIPELINE_SLAB value: {s:?}"),
        },
        Err(_) => 64,
    }
}

fn config(shards: usize, queue_capacity: usize, policy: BackpressurePolicy) -> PipelineConfig {
    PipelineConfig {
        shards,
        criteria: criteria(),
        memory_bytes_per_shard: 16 * 1024,
        queue_capacity,
        slab_capacity: slab_capacity(),
        policy,
        seed: 0xC0FFEE,
    }
}

/// Watchdog deadline: short natively so hang recovery actually runs;
/// effectively infinite under Miri so interpreter slowness never reads
/// as a hang.
fn watchdog() -> Duration {
    if cfg!(miri) {
        Duration::from_secs(300)
    } else {
        Duration::from_millis(30)
    }
}

fn sup_config(checkpoint_interval: u64) -> SupervisorConfig {
    SupervisorConfig {
        checkpoint_interval,
        watchdog_deadline: watchdog(),
        max_strikes: 5,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
        strike_forgiveness: 1_000_000,
    }
}

fn shard_counts() -> Vec<usize> {
    if let Ok(s) = std::env::var("QF_PIPELINE_STRESS_SHARDS") {
        match s.trim().parse::<usize>() {
            Ok(n) if n >= 1 => return vec![n],
            _ => panic!("bad QF_PIPELINE_STRESS_SHARDS value: {s:?}"),
        }
    }
    if cfg!(miri) {
        vec![1, 2]
    } else {
        vec![1, 2, 4, 8]
    }
}

/// Same workload shape as the stress suite: zipf-ish background plus hot
/// keys far over the threshold, so faults land on a stream that reports.
fn workload(seed: u64, n: usize) -> Vec<(u64, f64)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        if rng.gen_bool(0.12) {
            let hot = 1_000 + rng.gen_range(0u64..4);
            items.push((hot, 400.0 + rng.gen_range(0.0..200.0)));
        } else {
            let key = rng.gen_range(0u64..128);
            items.push((key, rng.gen_range(0.0..20.0)));
        }
    }
    items
}

fn serial_reference(cfg: &PipelineConfig, items: &[(u64, f64)]) -> Vec<Vec<u64>> {
    let mut filters: Vec<QuantileFilter> = (0..cfg.shards)
        .map(|s| {
            match QuantileFilterBuilder::new(cfg.criteria)
                .memory_budget_bytes(cfg.memory_bytes_per_shard)
                .seed(cfg.shard_seed(s))
                .try_build()
            {
                Ok(f) => f,
                Err(e) => panic!("build: {e:?}"),
            }
        })
        .collect();
    let mut reports = vec![Vec::new(); cfg.shards];
    for &(key, value) in items {
        let shard = shard_of(key, cfg.shards);
        if filters[shard].insert(&key, value).is_some() {
            reports[shard].push(key);
        }
    }
    reports
}

fn per_shard_sequences(shards: usize, reports: &[ReportEvent]) -> Vec<Vec<u64>> {
    let mut seqs = vec![Vec::new(); shards];
    for r in reports {
        seqs[r.shard].push(r.key);
    }
    seqs
}

/// The conservation laws every chaos run must satisfy, per shard and in
/// total, plus internal consistency of the recovery ledger and the loss
/// bound: a restart loses at most the slabs in the ring's slots, the one
/// its worker was applying included, and a quarantine may also discard
/// the slab the router held.
fn assert_conserved(cfg: &PipelineConfig, summary: &PipelineSummary, context: &str) {
    let restart_bound = (cfg.ring_slots() * cfg.slab_capacity) as u64;
    let quarantine_bound = restart_bound + cfg.slab_capacity as u64;
    assert_eq!(
        summary.offered,
        summary.enqueued + summary.dropped + summary.rejected,
        "router-side conservation violated ({context}): {summary:?}"
    );
    assert_eq!(
        summary.enqueued,
        summary.processed + summary.shed + summary.lost_to_crash,
        "worker-side conservation violated ({context}): {summary:?}"
    );
    let mut lost_from_records = 0u64;
    for r in &summary.recoveries {
        lost_from_records += r.lost;
        let bound = if r.quarantined {
            quarantine_bound
        } else {
            restart_bound
        };
        assert!(
            r.lost <= bound,
            "recovery lost {} items, over its {bound}-item bound ({context}): {r:?}",
            r.lost
        );
        if !r.quarantined {
            assert!(
                r.base.is_some(),
                "restarted shard without a recovery base ({context}): {r:?}"
            );
        }
    }
    assert_eq!(
        summary.lost_to_crash, lost_from_records,
        "loss not fully attributed to recovery records ({context}): {summary:?}"
    );
    for (shard, s) in summary.per_shard.iter().enumerate() {
        assert_eq!(
            s.enqueued,
            s.processed + s.shed + s.lost,
            "shard {shard} conservation violated ({context}): {s:?}"
        );
        if s.state == ShardState::Running {
            assert_eq!(
                s.rejected, 0,
                "healthy shard {shard} rejected items ({context})"
            );
        }
    }
    let restarts_from_records = summary.recoveries.iter().filter(|r| !r.quarantined).count() as u64;
    assert_eq!(summary.restarts, restarts_from_records, "({context})");
}

fn drive(pipe: &mut Pipeline, items: &[(u64, f64)], got: &mut Vec<ReportEvent>) -> (u64, u64, u64) {
    let (mut enq, mut dropped, mut rejected) = (0u64, 0u64, 0u64);
    for (i, &(key, value)) in items.iter().enumerate() {
        match pipe.ingest(key, value) {
            Ok(IngestOutcome::Enqueued) => enq += 1,
            Ok(IngestOutcome::Dropped) => dropped += 1,
            Ok(IngestOutcome::ShardDown) => rejected += 1,
            Err(e) => panic!("ingest must not fail per-item: {e}"),
        }
        if i % 2_048 == 0 {
            got.extend(pipe.poll_reports());
        }
    }
    (enq, dropped, rejected)
}

/// The full fault × policy × shard-count matrix: every combination must
/// terminate, keep panics contained, and conserve accounting exactly.
#[test]
fn chaos_matrix_terminates_and_conserves() {
    // Under Miri, one lossless and one shedding policy keep the matrix
    // tractable; the full four-policy sweep runs natively.
    let policies: &[BackpressurePolicy] = if cfg!(miri) {
        &[BackpressurePolicy::Block, BackpressurePolicy::DropOldest]
    } else {
        &[
            BackpressurePolicy::Block,
            BackpressurePolicy::DropNewest,
            BackpressurePolicy::DropOldest,
            BackpressurePolicy::ShedFair,
        ]
    };
    let n = N_ITEMS;
    let plans: Vec<(&str, ChaosPlan)> = vec![
        (
            "panic",
            ChaosPlan::new().with(Fault::Panic {
                shard: 0,
                at_pop: (n / 64) as u64,
            }),
        ),
        (
            "hang",
            ChaosPlan::new().with(Fault::Hang {
                shard: 0,
                at_pop: (n / 32) as u64,
                millis: 80,
            }),
        ),
        (
            "poison",
            ChaosPlan::new().with(Fault::Poison {
                key: 1_001,
                times: 1,
            }),
        ),
        (
            "corrupt-checkpoint",
            ChaosPlan::new()
                .with(Fault::CorruptCheckpoint { shard: 0, seal: 1 })
                .with(Fault::Panic {
                    shard: 0,
                    at_pop: (n / 16) as u64,
                }),
        ),
        (
            "corrupt-every-checkpoint",
            ChaosPlan::new()
                .with(Fault::CorruptEveryCheckpoint { shard: 0 })
                .with(Fault::Panic {
                    shard: 0,
                    at_pop: (n / 8) as u64,
                }),
        ),
    ];
    for shards in shard_counts() {
        for (plan_name, plan) in &plans {
            for &policy in policies {
                let cfg = config(shards, 64, policy);
                let context = format!("plan={plan_name} policy={policy:?} shards={shards}");
                let mut pipe = match Pipeline::launch_chaos(cfg, sup_config(32), plan) {
                    Ok(p) => p,
                    Err(e) => panic!("launch ({context}): {e}"),
                };
                let items = workload(11, n);
                let mut got = Vec::new();
                let (enq, dropped, rejected) = drive(&mut pipe, &items, &mut got);
                let summary = match pipe.shutdown() {
                    Ok(s) => s,
                    Err(e) => panic!("shutdown must always summarize ({context}): {e}"),
                };
                assert_eq!(summary.offered, items.len() as u64, "({context})");
                assert_eq!(summary.enqueued, enq, "({context})");
                assert_eq!(summary.dropped, dropped, "({context})");
                assert_eq!(summary.rejected, rejected, "({context})");
                assert_conserved(&cfg, &summary, &context);
                if policy == BackpressurePolicy::Block {
                    assert_eq!(summary.dropped, 0, "Block never drops ({context})");
                }
            }
        }
    }
}

/// Supervision with no faults is invisible: report sequences equal the
/// serial reference exactly, nothing is lost, nothing restarts.
#[test]
fn supervised_without_faults_equals_serial_reference() {
    for shards in shard_counts() {
        let cfg = config(shards, 256, BackpressurePolicy::Block);
        let items = workload(3, N_ITEMS);
        let expected = serial_reference(&cfg, &items);
        let mut pipe = match Pipeline::launch_supervised(cfg, sup_config(64)) {
            Ok(p) => p,
            Err(e) => panic!("launch: {e}"),
        };
        let mut got = Vec::new();
        drive(&mut pipe, &items, &mut got);
        got.extend(pipe.poll_reports());
        let summary = match pipe.shutdown() {
            Ok(s) => s,
            Err(e) => panic!("shutdown: {e}"),
        };
        got.extend(summary.reports.iter().copied());
        assert_eq!(summary.lost_to_crash, 0);
        assert_eq!(summary.restarts, 0);
        assert_eq!(summary.rejected, 0);
        assert_eq!(summary.processed, items.len() as u64);
        assert!(summary.recoveries.is_empty());
        assert_eq!(
            per_shard_sequences(shards, &got),
            expected,
            "shards={shards}"
        );
    }
}

/// The loss-bound statement, made deterministic: a poison item that hits
/// an *idle* shard is the entire loss window (nothing else is in-flight),
/// so the recovered run must equal the serial reference over the stream
/// minus exactly that one item.
#[test]
fn recovery_equals_serial_reference_minus_the_lost_item() {
    let shards = 2;
    let cfg = config(shards, 256, BackpressurePolicy::Block);
    let poison_key = 999_999u64;
    let items = workload(5, N_ITEMS);
    let half = items.len() / 2;
    let expected = serial_reference(&cfg, &items);

    let plan = ChaosPlan::new().with(Fault::Poison {
        key: poison_key,
        times: 1,
    });
    let mut pipe = match Pipeline::launch_chaos(cfg, sup_config(64), &plan) {
        Ok(p) => p,
        Err(e) => panic!("launch: {e}"),
    };
    let mut got = Vec::new();
    drive(&mut pipe, &items[..half], &mut got);
    // Push partial router slabs out, then let every shard drain and
    // commit, so nothing shares the poison item's loss window.
    pipe.flush();
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while (0..shards).any(|s| pipe.queue_len(s) > 0) {
        assert!(std::time::Instant::now() < deadline, "queues never drained");
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(if cfg!(miri) { 50 } else { 20 }));
    match pipe.ingest(poison_key, 777.0) {
        Ok(IngestOutcome::Enqueued) => {}
        other => panic!("poison item should enqueue, got {other:?}"),
    }
    // The poison item travels alone: its slab holds exactly one item, so
    // the uncommitted-slab loss window is exactly one item wide.
    pipe.flush();
    // Give the worker time to pop it, panic, and unwind; the next push
    // to that shard detects the death and recovers synchronously.
    std::thread::sleep(Duration::from_millis(if cfg!(miri) { 100 } else { 30 }));
    drive(&mut pipe, &items[half..], &mut got);
    got.extend(pipe.poll_reports());
    let summary = match pipe.shutdown() {
        Ok(s) => s,
        Err(e) => panic!("shutdown: {e}"),
    };
    got.extend(summary.reports.iter().copied());

    assert_eq!(summary.offered, items.len() as u64 + 1);
    assert_eq!(
        summary.lost_to_crash, 1,
        "loss window is exactly the poison item"
    );
    assert_eq!(summary.processed, items.len() as u64);
    assert_eq!(summary.restarts, 1);
    assert_conserved(&cfg, &summary, "deterministic poison");
    let rec = &summary.recoveries[0];
    assert_eq!(rec.cause, CrashCause::Panic);
    assert_eq!(rec.lost, 1);
    assert!(!rec.quarantined);
    assert!(
        matches!(
            rec.base,
            Some(RecoveredBase::Checkpoint { .. }) | Some(RecoveredBase::Fresh)
        ),
        "checkpoint+journal recovery should be lossless here: {rec:?}"
    );
    assert_eq!(
        per_shard_sequences(shards, &got),
        expected,
        "recovered output must equal serial reference minus the lost item"
    );
}

/// Satellite regression: a worker killed *between slab claim and commit*
/// (the panic lands mid-slab, after `note_progress` claimed the pop
/// ordinals but before the journal commit) loses the whole in-flight
/// slab — and every one of its items must be counted in `lost_to_crash`,
/// not silently dropped from both sides of the conservation law.
#[test]
fn mid_slab_death_counts_the_whole_slab_as_lost() {
    let slab = 8usize;
    let mut cfg = config(1, 64, BackpressurePolicy::Block);
    // Fixed slab size so the in-flight slab (and thus the expected loss
    // window) is exact regardless of the matrix's QF_PIPELINE_SLAB.
    cfg.slab_capacity = slab;
    // Panic at pop ordinal 12: item 4 of the *second* slab, strictly
    // between that slab's claim (ordinal base 8) and its commit.
    let plan = ChaosPlan::new().with(Fault::Panic {
        shard: 0,
        at_pop: (slab + slab / 2) as u64,
    });
    let mut pipe = match Pipeline::launch_chaos(cfg, sup_config(64), &plan) {
        Ok(p) => p,
        Err(e) => panic!("launch: {e}"),
    };
    // Two full slabs, auto-flushed at fill. Slab 1 commits; slab 2 is
    // claimed and then dies uncommitted.
    for i in 0..(2 * slab) as u64 {
        match pipe.ingest(i, 5.0) {
            Ok(IngestOutcome::Enqueued) => {}
            other => panic!("ingest {i}: {other:?}"),
        }
    }
    // Wait until the doomed slab has been popped (queue empty) and the
    // unwind has finished, so the death is observable at the next flush.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while pipe.queue_len(0) > 0 {
        assert!(std::time::Instant::now() < deadline, "queue never drained");
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(if cfg!(miri) { 100 } else { 30 }));
    // One more item: its flush bounces off the dead ring
    // (`PushError::Disconnected`), triggering recovery. The item itself
    // is still in the router's hands, so it survives to the replacement.
    match pipe.ingest(9_999, 5.0) {
        Ok(IngestOutcome::Enqueued) => {}
        other => panic!("post-crash ingest: {other:?}"),
    }
    pipe.flush();
    let summary = match pipe.shutdown() {
        Ok(s) => s,
        Err(e) => panic!("shutdown: {e}"),
    };
    assert_conserved(&cfg, &summary, "mid-slab death");
    assert_eq!(
        summary.lost_to_crash, slab as u64,
        "the whole in-flight slab is the loss window: {summary:?}"
    );
    assert_eq!(summary.enqueued, 2 * slab as u64 + 1);
    assert_eq!(
        summary.processed,
        slab as u64 + 1,
        "slab 1 plus the re-flushed post-crash item"
    );
    assert_eq!(summary.restarts, 1);
    let rec = &summary.recoveries[0];
    assert_eq!(rec.cause, CrashCause::Panic);
    assert_eq!(rec.lost, slab as u64, "{rec:?}");
    assert!(!rec.quarantined);
}

/// The loss bound is tight: a worker hung on its first slab, with the
/// router filling the ring behind it until the watchdog convicts, loses
/// exactly `ring_slots() × slab_capacity` items. The slab being applied
/// holds its slot until its commit, so it is one of the `ring_slots()`,
/// not one more; the router's own slab and the one in its hand survive
/// to the replacement.
#[test]
#[cfg_attr(miri, ignore = "hang detection needs a real-time watchdog deadline")]
fn hang_with_a_full_ring_loses_exactly_the_ring() {
    let slab = 8usize;
    let mut cfg = config(1, 64, BackpressurePolicy::Block);
    // Fixed slab size so the expected loss is exact regardless of the
    // matrix's QF_PIPELINE_SLAB.
    cfg.slab_capacity = slab;
    // The worker sleeps before applying the first item of slab 1, well
    // past the watchdog deadline.
    let plan = ChaosPlan::new().with(Fault::Hang {
        shard: 0,
        at_pop: 0,
        millis: 300,
    });
    let mut pipe = match Pipeline::launch_chaos(cfg, sup_config(64), &plan) {
        Ok(p) => p,
        Err(e) => panic!("launch: {e}"),
    };
    // Ingest until the watchdog convicts. The ring fills with slab 1
    // (taken, hung) and the slabs queued behind it; then every flush
    // finds it full and probes the watchdog.
    let mut key = 0u64;
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while pipe.restarts() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "the hung worker was never convicted"
        );
        match pipe.ingest(key, 5.0) {
            Ok(IngestOutcome::Enqueued) => key += 1,
            other => panic!("ingest {key}: {other:?}"),
        }
    }
    // A little more traffic through the replacement.
    for _ in 0..(4 * slab) {
        match pipe.ingest(key, 5.0) {
            Ok(IngestOutcome::Enqueued) => key += 1,
            other => panic!("ingest {key}: {other:?}"),
        }
    }
    let summary = match pipe.shutdown() {
        Ok(s) => s,
        Err(e) => panic!("shutdown: {e}"),
    };
    assert_conserved(&cfg, &summary, "hang with a full ring");
    assert_eq!(summary.restarts, 1, "{:?}", summary.recoveries);
    let rec = &summary.recoveries[0];
    assert_eq!(rec.cause, CrashCause::Hang, "{rec:?}");
    assert!(!rec.quarantined, "{rec:?}");
    assert_eq!(
        rec.lost,
        (cfg.ring_slots() * slab) as u64,
        "a full ring loses its slots' slabs, the one being applied included: {rec:?}"
    );
    assert_eq!(summary.lost_to_crash, rec.lost);
    assert_eq!(summary.processed, key - rec.lost);
}

/// A worker that hangs while a snapshot waits for its barrier is
/// convicted by the snapshot's own watchdog probes, which come less than
/// a deadline apart, and the barrier is re-issued to the replacement:
/// the snapshot returns long before the hang would have ended.
#[test]
#[cfg_attr(miri, ignore = "hang detection needs a real-time watchdog deadline")]
fn snapshot_convicts_a_worker_hung_behind_its_barrier() {
    let slab = 8usize;
    let mut cfg = config(1, 64, BackpressurePolicy::Block);
    cfg.slab_capacity = slab;
    let plan = ChaosPlan::new().with(Fault::Hang {
        shard: 0,
        at_pop: 0,
        millis: 2_000,
    });
    let mut pipe = match Pipeline::launch_chaos(cfg, sup_config(64), &plan) {
        Ok(p) => p,
        Err(e) => panic!("launch: {e}"),
    };
    // One full slab: the worker takes it and hangs on its first item.
    for key in 0..slab as u64 {
        match pipe.ingest(key, 5.0) {
            Ok(IngestOutcome::Enqueued) => {}
            other => panic!("ingest {key}: {other:?}"),
        }
    }
    let bytes = match pipe.snapshot() {
        Ok(b) => b,
        Err(e) => panic!("snapshot behind a hung worker: {e}"),
    };
    assert_eq!(pipe.restarts(), 1, "the hung worker was never convicted");
    assert!(Pipeline::restore(&bytes, cfg).is_ok());
    let summary = match pipe.shutdown() {
        Ok(s) => s,
        Err(e) => panic!("shutdown: {e}"),
    };
    assert_conserved(&cfg, &summary, "snapshot behind a hang");
    let rec = &summary.recoveries[0];
    assert_eq!(rec.cause, CrashCause::Hang, "{rec:?}");
    assert_eq!(rec.lost, slab as u64, "the slab being applied: {rec:?}");
}

/// A poll hands a partial slab over only when the shard's queue is empty.
/// With the worker held on slab 1 and slab 2 still queued, the partial
/// slab stays in the router.
#[test]
fn poll_leaves_a_partial_slab_buffered_behind_a_queued_slab() {
    let slab = 8usize;
    let mut cfg = config(1, 64, BackpressurePolicy::Block);
    cfg.slab_capacity = slab;
    // The worker sleeps before applying slab 1's first item, long enough
    // to outlast the ingest and poll below even under the interpreter.
    let plan = ChaosPlan::new().with(Fault::Hang {
        shard: 0,
        at_pop: 0,
        millis: if cfg!(miri) { 2_000 } else { 300 },
    });
    // A watchdog far past the hang: this test is about the handoff, not
    // about hang recovery.
    let sup = SupervisorConfig {
        watchdog_deadline: Duration::from_secs(300),
        ..sup_config(64)
    };
    let mut pipe = match Pipeline::launch_chaos(cfg, sup, &plan) {
        Ok(p) => p,
        Err(e) => panic!("launch: {e}"),
    };
    // Slabs 1 and 2 fill and go to the queue; three more items stay in
    // the router.
    let partial = 3;
    for i in 0..(2 * slab + partial) as u64 {
        match pipe.ingest(i, 5.0) {
            Ok(IngestOutcome::Enqueued) => {}
            other => panic!("ingest {i}: {other:?}"),
        }
    }
    assert_eq!(pipe.buffered_len(0), partial);
    assert!(pipe.queue_len(0) > 0, "slab 2 waits behind the hang");
    let got = pipe.poll_reports();
    assert!(got.is_empty(), "{got:?}");
    assert_eq!(
        pipe.buffered_len(0),
        partial,
        "a poll must not hand a slab to a shard whose queue is not empty"
    );
    let summary = match pipe.shutdown() {
        Ok(s) => s,
        Err(e) => panic!("shutdown: {e}"),
    };
    assert_conserved(&cfg, &summary, "poll behind a hang");
    assert_eq!(summary.processed, (2 * slab + partial) as u64);
    assert_eq!(summary.restarts, 0, "{:?}", summary.recoveries);
}

/// A poll can hand a partial slab to a worker that is dying or dead. The
/// slab either lands in the dying worker's ring, and is counted lost at
/// the fence, or bounces off the dead ring and stays buffered for the
/// replacement. Either way the accounting conserves and the replacement
/// processes everything outside the loss window.
#[test]
fn poll_handoff_to_a_dying_worker_conserves() {
    let slab = 8usize;
    let mut cfg = config(1, 64, BackpressurePolicy::Block);
    cfg.slab_capacity = slab;
    let plan = ChaosPlan::new().with(Fault::Panic {
        shard: 0,
        at_pop: 0,
    });
    let mut pipe = match Pipeline::launch_chaos(cfg, sup_config(64), &plan) {
        Ok(p) => p,
        Err(e) => panic!("launch: {e}"),
    };
    let mut key = 0u64;
    let mut ingest = |pipe: &mut Pipeline, n: usize| {
        for _ in 0..n {
            match pipe.ingest(key, 5.0) {
                Ok(IngestOutcome::Enqueued) => key += 1,
                other => panic!("ingest {key}: {other:?}"),
            }
        }
    };
    // A partial slab and a poll: the queue is empty, so the slab goes to
    // the worker, which panics on its first item.
    let partial = 3;
    ingest(&mut pipe, partial);
    let _ = pipe.poll_reports();
    assert_eq!(pipe.buffered_len(0), 0, "an empty queue takes the slab");
    // A second partial slab, polled at once: the worker is dying or dead,
    // or has not popped the first slab yet.
    ingest(&mut pipe, partial);
    let _ = pipe.poll_reports();
    let in_router = pipe.buffered_len(0);
    let in_ring = usize::from(in_router == 0);
    // Wait until the first slab is popped and the unwind has finished.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while pipe.queue_len(0) > in_ring {
        assert!(std::time::Instant::now() < deadline, "slab never popped");
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(if cfg!(miri) { 1_000 } else { 30 }));
    // The worker is dead now: a poll bounces off its ring and keeps
    // whatever is buffered.
    let _ = pipe.poll_reports();
    assert_eq!(pipe.buffered_len(0), in_router);
    // Two full slabs: the first flush finds the dead ring and recovers
    // the shard; the replacement takes the rest.
    ingest(&mut pipe, 2 * slab);
    let summary = match pipe.shutdown() {
        Ok(s) => s,
        Err(e) => panic!("shutdown: {e}"),
    };
    assert_conserved(&cfg, &summary, "poll handoff to a dying worker");
    let lost = (partial * (1 + in_ring)) as u64;
    assert_eq!(summary.lost_to_crash, lost, "{summary:?}");
    assert_eq!(summary.enqueued, (2 * partial + 2 * slab) as u64);
    assert_eq!(summary.processed, summary.enqueued - lost);
    assert_eq!(summary.restarts, 1);
    let rec = &summary.recoveries[0];
    assert_eq!(rec.cause, CrashCause::Panic);
    assert!(!rec.quarantined);
}

/// Repeated poison redeliveries exhaust the strike budget: the shard is
/// quarantined, *its* items come back `ShardDown`, and every other shard
/// keeps accepting — the pipeline degrades instead of dying.
#[test]
fn strike_exhaustion_quarantines_only_the_poisoned_shard() {
    let shards = 2;
    let cfg = config(shards, 64, BackpressurePolicy::Block);
    let sup = SupervisorConfig {
        max_strikes: 3,
        ..sup_config(32)
    };
    let poison_key = 424_242u64;
    let poisoned_shard = shard_of(poison_key, shards);
    // Enough budget that the key keeps killing replacements until the
    // strike budget, not the fault budget, decides the outcome.
    let plan = ChaosPlan::new().with(Fault::Poison {
        key: poison_key,
        times: u32::MAX - 1,
    });
    let mut pipe = match Pipeline::launch_chaos(cfg, sup, &plan) {
        Ok(p) => p,
        Err(e) => panic!("launch: {e}"),
    };
    let mut down_seen = false;
    for _ in 0..10_000 {
        match pipe.ingest(poison_key, 5.0) {
            Ok(IngestOutcome::Enqueued) => {
                // Deliver the buffered poison immediately (with slab > 1
                // it would otherwise sit in the router).
                pipe.flush();
                std::thread::sleep(Duration::from_millis(2));
            }
            Ok(IngestOutcome::ShardDown) => {
                down_seen = true;
                break;
            }
            Ok(IngestOutcome::Dropped) => panic!("Block policy dropped"),
            Err(e) => panic!("ingest: {e}"),
        }
    }
    assert!(down_seen, "shard never quarantined");
    assert_eq!(pipe.shard_state(poisoned_shard), ShardState::Quarantined);

    // The other shard still accepts; the quarantined one fails fast.
    let mut other_key = 0u64;
    while shard_of(other_key, shards) == poisoned_shard {
        other_key += 1;
    }
    match pipe.ingest(other_key, 5.0) {
        Ok(IngestOutcome::Enqueued) => {}
        other => panic!("healthy shard refused an item: {other:?}"),
    }
    match pipe.ingest(poison_key, 5.0) {
        Ok(IngestOutcome::ShardDown) => {}
        other => panic!("quarantined shard accepted an item: {other:?}"),
    }
    // Snapshot still works: the quarantined shard contributes the frame
    // reconstructed from its checkpoint + journal.
    let bytes = match pipe.snapshot() {
        Ok(b) => b,
        Err(e) => panic!("snapshot with quarantined shard: {e}"),
    };
    assert!(Pipeline::restore(&bytes, cfg).is_ok());

    let summary = match pipe.shutdown() {
        Ok(s) => s,
        Err(e) => panic!("shutdown: {e}"),
    };
    assert_conserved(&cfg, &summary, "quarantine");
    assert!(summary.rejected >= 2);
    assert_eq!(
        summary.per_shard[poisoned_shard].state,
        ShardState::Quarantined
    );
    let quarantine_records = summary.recoveries.iter().filter(|r| r.quarantined).count();
    assert_eq!(quarantine_records, 1, "{:?}", summary.recoveries);
    assert_eq!(
        summary.restarts, 2,
        "max_strikes-1 restarts before quarantine"
    );
}

/// A worker wedged past the watchdog deadline is detected, fenced, and
/// replaced; the pipeline keeps flowing and the hang is recorded with its
/// cause. (Hang *detection* needs real time; skipped under Miri, where
/// the deadline is pinned effectively-infinite.)
#[test]
#[cfg_attr(miri, ignore = "hang detection needs a real-time watchdog deadline")]
fn hung_worker_is_detected_and_replaced() {
    let shards = 2;
    let mut cfg = config(shards, 16, BackpressurePolicy::Block);
    // Hang *detection* needs the router to keep flushing (and stalling)
    // while the worker sleeps. The ring never has fewer than two slots,
    // so at 4096-item slabs it holds 8,192 items and the router slab
    // another 4,096: more than the whole workload, and no push pressure
    // ever builds. Cap the slab so the scenario stays reachable at every
    // matrix point.
    cfg.slab_capacity = cfg.slab_capacity.min(16);
    let plan = ChaosPlan::new().with(Fault::Hang {
        shard: 0,
        at_pop: 64,
        millis: 400,
    });
    let mut pipe = match Pipeline::launch_chaos(cfg, sup_config(32), &plan) {
        Ok(p) => p,
        Err(e) => panic!("launch: {e}"),
    };
    let items = workload(9, N_ITEMS);
    let mut got = Vec::new();
    drive(&mut pipe, &items, &mut got);
    let summary = match pipe.shutdown() {
        Ok(s) => s,
        Err(e) => panic!("shutdown: {e}"),
    };
    assert_conserved(&cfg, &summary, "hang");
    assert!(
        summary
            .recoveries
            .iter()
            .any(|r| r.cause == CrashCause::Hang),
        "hang never detected: {:?}",
        summary.recoveries
    );
    assert!(summary.restarts >= 1);
    // The replacement started from checkpoint + journal and kept going:
    // far more items processed than could fit in one queue + burst.
    assert!(summary.processed > summary.lost_to_crash);
}

/// Snapshot-under-chaos: a barrier issued while a worker is dying is
/// re-issued to the replacement, and the resulting envelope restores.
#[test]
fn snapshot_survives_a_mid_barrier_crash() {
    let shards = 2;
    let cfg = config(shards, 64, BackpressurePolicy::Block);
    let n = N_ITEMS / 2;
    let plan = ChaosPlan::new().with(Fault::Panic {
        shard: 0,
        at_pop: (n / 4) as u64,
    });
    let mut pipe = match Pipeline::launch_chaos(cfg, sup_config(32), &plan) {
        Ok(p) => p,
        Err(e) => panic!("launch: {e}"),
    };
    let items = workload(13, n);
    let mut got = Vec::new();
    drive(&mut pipe, &items, &mut got);
    let bytes = match pipe.snapshot() {
        Ok(b) => b,
        Err(e) => panic!("snapshot under chaos: {e}"),
    };
    let restored = match Pipeline::restore(&bytes, cfg) {
        Ok(p) => p,
        Err(e) => panic!("restore: {e}"),
    };
    match restored.shutdown() {
        Ok(_) => {}
        Err(e) => panic!("restored pipeline shutdown: {e}"),
    }
    // The original keeps working after the barrier.
    drive(&mut pipe, &items, &mut got);
    let summary = match pipe.shutdown() {
        Ok(s) => s,
        Err(e) => panic!("shutdown: {e}"),
    };
    assert_conserved(&cfg, &summary, "snapshot under chaos");
}

/// Corrupting every checkpoint forces recovery onto the journal-only
/// paths; when the journal no longer reaches item 1, the shard restarts
/// empty with the rollback accounted as `StateLoss`, never silently.
#[test]
fn corrupt_checkpoints_degrade_to_accounted_state_loss() {
    let shards = 1;
    let mut cfg = config(shards, 64, BackpressurePolicy::Block);
    // The StateLoss restart must happen *mid-run*. The ring never has
    // fewer than two slots, so at 4096-item slabs ring and router slab
    // hold 12,288 items, more than the whole workload: the crash
    // surfaces only at the shutdown drain, and the shard fences
    // terminally instead of restarting. Cap the slab so the router is still flushing (and
    // detecting the death) when the panic fires.
    cfg.slab_capacity = cfg.slab_capacity.min(16);
    let n = N_ITEMS;
    let plan = ChaosPlan::new()
        .with(Fault::CorruptEveryCheckpoint { shard: 0 })
        .with(Fault::Panic {
            shard: 0,
            at_pop: (n / 2) as u64,
        });
    // Small interval: by the crash point the journal has been pruned far
    // past item 1, so journal-only recovery is impossible.
    let mut pipe = match Pipeline::launch_chaos(cfg, sup_config(16), &plan) {
        Ok(p) => p,
        Err(e) => panic!("launch: {e}"),
    };
    let items = workload(17, n);
    let mut got = Vec::new();
    drive(&mut pipe, &items, &mut got);
    let summary = match pipe.shutdown() {
        Ok(s) => s,
        Err(e) => panic!("shutdown: {e}"),
    };
    assert_conserved(&cfg, &summary, "corrupt-every-checkpoint");
    let state_loss = summary
        .recoveries
        .iter()
        .find(|r| r.base == Some(RecoveredBase::StateLoss));
    let Some(rec) = state_loss else {
        panic!("expected a StateLoss recovery: {:?}", summary.recoveries);
    };
    assert!(
        rec.prior_applied > 0,
        "rollback size must be recorded: {rec:?}"
    );
    assert_eq!(rec.recovered_seq, 0, "StateLoss restarts the lineage");
    // The items applied before the rollback still count as processed —
    // their reports were emitted and journaled before the state was lost.
    assert!(summary.processed >= rec.prior_applied);
}

/// Flight-dump acceptance (trace builds only): every restart *and*
/// quarantine leaves `flight-<shard>-<generation>.json` in the pipeline's
/// flight directory, the dump parses, its event sequence is strictly
/// monotone, and the cause event agrees with the supervisor's own
/// `RecoveryRecord` (cause code, lost count, fenced generation). This is
/// the on-disk half of the recovery ledger: the record says *what* the
/// supervisor decided, the dump says *what the shard was doing* when it
/// died.
#[cfg(feature = "trace")]
mod flight_dumps {
    use super::*;
    use qf_pipeline::{Fault, RecoveryRecord};
    use std::path::{Path, PathBuf};

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("qf_chaos_flight_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Pull `"key": N` out of one hand-rolled JSON event object. Panics
    /// (failing the test) when the field is missing or non-numeric — that
    /// *is* the parseability assertion.
    fn u64_field(obj: &str, key: &str) -> u64 {
        let tag = format!("\"{key}\": ");
        let at = match obj.find(&tag) {
            Some(i) => i + tag.len(),
            None => panic!("event missing field {key:?}: {obj}"),
        };
        let digits: String = obj[at..].chars().take_while(char::is_ascii_digit).collect();
        match digits.parse() {
            Ok(v) => v,
            Err(e) => panic!("field {key:?} not numeric ({e}): {obj}"),
        }
    }

    fn event_lines(body: &str) -> Vec<&str> {
        body.lines()
            .map(str::trim_start)
            .filter(|l| l.starts_with("{\"seq\":"))
            .collect()
    }

    /// The dump a recovery record promises: present, schema-tagged,
    /// monotone, and carrying exactly one cause event for this fenced
    /// generation whose payload matches the record.
    fn assert_dump_matches(dir: &Path, rec: &RecoveryRecord) {
        let path = dir.join(format!("flight-{}-{}.json", rec.shard, rec.generation));
        let body = match std::fs::read_to_string(&path) {
            Ok(b) => b,
            Err(e) => panic!("recovery {rec:?} left no dump at {}: {e}", path.display()),
        };
        assert!(
            body.contains("\"schema\": \"qf-flight/v1\""),
            "schema tag missing in {}",
            path.display()
        );
        assert!(
            body.contains(&format!("\"cause\": \"{}\"", rec.cause.name())),
            "dump cause disagrees with record {rec:?}: {body}"
        );
        let events = event_lines(&body);
        assert!(!events.is_empty(), "empty dump for {rec:?}");
        let mut prev_seq = None;
        for e in &events {
            let seq = u64_field(e, "seq");
            if let Some(p) = prev_seq {
                assert!(seq > p, "seqs not strictly monotone at {e}");
            }
            prev_seq = Some(seq);
        }
        let expected_name = if rec.quarantined {
            "worker_quarantine"
        } else {
            "worker_restart"
        };
        // Older generations' cause events legitimately linger in the ring
        // (it spans restarts); match on this record's fenced generation.
        let cause_events: Vec<&&str> = events
            .iter()
            .filter(|e| {
                e.contains(&format!("\"name\": \"{expected_name}\""))
                    && u64_field(e, "generation") == rec.generation
            })
            .collect();
        assert_eq!(
            cause_events.len(),
            1,
            "want exactly one {expected_name} for generation {} in {}: {body}",
            rec.generation,
            path.display()
        );
        let cause = cause_events[0];
        assert_eq!(
            u64_field(cause, "a"),
            rec.cause.code(),
            "cause code mismatch for {rec:?}: {cause}"
        );
        assert_eq!(
            u64_field(cause, "b"),
            rec.lost,
            "lost count mismatch for {rec:?}: {cause}"
        );
        assert_eq!(u64_field(cause, "shard"), rec.shard as u64, "{cause}");
    }

    /// Strike exhaustion produces both record kinds in one run — two
    /// restarts, then a quarantine — and each must have its dump.
    #[test]
    fn every_restart_and_quarantine_writes_a_consistent_dump() {
        let dir = scratch_dir("quarantine");
        let shards = 2;
        let cfg = config(shards, 64, BackpressurePolicy::Block);
        let sup = SupervisorConfig {
            max_strikes: 3,
            ..sup_config(32)
        };
        let poison_key = 424_242u64;
        let plan = ChaosPlan::new().with(Fault::Poison {
            key: poison_key,
            times: u32::MAX - 1,
        });
        let mut pipe = match Pipeline::launch_chaos(cfg, sup, &plan) {
            Ok(p) => p,
            Err(e) => panic!("launch: {e}"),
        };
        pipe.set_flight_dir(&dir);
        for _ in 0..10_000 {
            match pipe.ingest(poison_key, 5.0) {
                Ok(IngestOutcome::Enqueued) => {
                    pipe.flush();
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(IngestOutcome::ShardDown) => break,
                other => panic!("unexpected ingest outcome: {other:?}"),
            }
        }
        let summary = match pipe.shutdown() {
            Ok(s) => s,
            Err(e) => panic!("shutdown: {e}"),
        };
        assert!(
            summary.recoveries.iter().any(|r| r.quarantined)
                && summary.recoveries.iter().any(|r| !r.quarantined),
            "run must exercise both restart and quarantine: {:?}",
            summary.recoveries
        );
        for rec in &summary.recoveries {
            assert_dump_matches(&dir, rec);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A plain panic-driven restart dumps too, and the pre-crash trail
    /// (checkpoint seals from the fenced generation) is in it.
    #[test]
    fn restart_dump_carries_the_pre_crash_trail() {
        let dir = scratch_dir("restart");
        let cfg = config(1, 64, BackpressurePolicy::Block);
        let n = N_ITEMS;
        let plan = ChaosPlan::new().with(Fault::Panic {
            shard: 0,
            at_pop: (n / 4) as u64,
        });
        let mut pipe = match Pipeline::launch_chaos(cfg, sup_config(32), &plan) {
            Ok(p) => p,
            Err(e) => panic!("launch: {e}"),
        };
        pipe.set_flight_dir(&dir);
        let items = workload(21, n);
        let mut got = Vec::new();
        drive(&mut pipe, &items, &mut got);
        let summary = match pipe.shutdown() {
            Ok(s) => s,
            Err(e) => panic!("shutdown: {e}"),
        };
        let restart = summary.recoveries.iter().find(|r| !r.quarantined);
        let Some(rec) = restart else {
            panic!("panic plan produced no restart: {:?}", summary.recoveries);
        };
        assert_dump_matches(&dir, rec);
        let path = dir.join(format!("flight-{}-{}.json", rec.shard, rec.generation));
        let body = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{e}"));
        // checkpoint_interval=32 and ~n/4 pops before the crash: the
        // fenced generation sealed checkpoints, and those seals must be
        // on the tape ahead of the restart event.
        assert!(
            body.contains("\"name\": \"checkpoint_seal\""),
            "pre-crash checkpoint seals missing from dump: {body}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
