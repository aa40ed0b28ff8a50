//! Threaded pipeline stress suite: the acceptance bars from the pipeline
//! issue, pinned.
//!
//! * **Equivalence** — for randomized workloads and every shard count,
//!   each shard's concurrent report *sequence* (a stronger claim than the
//!   reported key set) equals a single-threaded serial reference that
//!   routes with the same `shard_of` over the same item order.
//! * **Drop accounting** — under `DropNewest`, offered = enqueued +
//!   dropped and processed = enqueued, exactly, per shard and in total.
//! * **Snapshot under load** — an envelope taken mid-stream restores to a
//!   pipeline that (a) re-snapshots byte-identically and (b) continues
//!   the suffix with report sequences identical to the original's
//!   post-barrier reports.
//!
//! Sizes shrink under Miri (like the histogram stress tests); the CI
//! matrix pins one shard count per job via `QF_PIPELINE_STRESS_SHARDS`
//! and one router slab capacity via `QF_PIPELINE_SLAB` (slab = 1 is the
//! v1 per-item handoff, reproduced bit-for-bit).

use qf_pipeline::{
    shard_of, BackpressurePolicy, IngestOutcome, Pipeline, PipelineConfig, ReportEvent,
};
use quantile_filter::{Criteria, QuantileFilter, QuantileFilterBuilder};
use rand::{Rng, SeedableRng, SmallRng};

#[cfg(miri)]
const N_ITEMS: usize = 2_000;
#[cfg(not(miri))]
const N_ITEMS: usize = 60_000;

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
        seed: 0xA5A5,
    }
}

/// Shard counts to exercise: the CI matrix pins one via env var,
/// otherwise the full 1/2/4/8 sweep (1/2 under Miri, where every extra
/// thread is expensive).
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

/// A mixed workload: zipf-ish background keys at modest values plus a few
/// persistently-hot keys whose values are far above the threshold, so
/// every run produces real reports.
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

/// The serial reference: same per-shard filters (same seeds), same
/// routing, single thread. Returns per-shard report key sequences.
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

/// Group a flat report stream into per-shard key sequences.
fn per_shard_sequences(shards: usize, reports: &[ReportEvent]) -> Vec<Vec<u64>> {
    let mut seqs = vec![Vec::new(); shards];
    for r in reports {
        seqs[r.shard].push(r.key);
    }
    seqs
}

#[test]
fn concurrent_reports_equal_serial_routing() {
    for shards in shard_counts() {
        for workload_seed in [1u64, 2, 3] {
            let cfg = config(shards, 256, BackpressurePolicy::Block);
            let items = workload(workload_seed, N_ITEMS);
            let expected = serial_reference(&cfg, &items);

            let mut pipe = match Pipeline::launch(cfg) {
                Ok(p) => p,
                Err(e) => panic!("launch: {e}"),
            };
            let mut got = Vec::new();
            for (i, &(key, value)) in items.iter().enumerate() {
                match pipe.ingest(key, value) {
                    Ok(IngestOutcome::Enqueued) => {}
                    Ok(other) => panic!("Block policy refused an item: {other:?}"),
                    Err(e) => panic!("ingest: {e}"),
                }
                // Interleave sink draining with ingest so the pending
                // buffer path is exercised too.
                if i % 4_096 == 0 {
                    got.extend(pipe.poll_reports());
                }
            }
            got.extend(pipe.poll_reports());
            let summary = match pipe.shutdown() {
                Ok(s) => s,
                Err(e) => panic!("shutdown: {e}"),
            };
            got.extend(summary.reports.iter().copied());

            assert_eq!(summary.offered, items.len() as u64);
            assert_eq!(summary.enqueued, items.len() as u64);
            assert_eq!(summary.dropped, 0);
            assert_eq!(summary.processed, summary.enqueued);
            assert_eq!(
                per_shard_sequences(shards, &got),
                expected,
                "shards={shards} workload_seed={workload_seed}"
            );
            assert!(
                got.iter().any(|r| r.key >= 1_000),
                "workload produced no hot-key reports (shards={shards})"
            );
        }
    }
}

#[test]
fn drop_accounting_conserves() {
    for shards in shard_counts() {
        // Tiny queues + burst ingest: the router outruns the workers, so
        // DropNewest sheds. The conservation law must hold regardless of
        // how many drops the scheduler produces.
        let cfg = config(shards, 2, BackpressurePolicy::DropNewest);
        let items = workload(7, N_ITEMS);
        let mut pipe = match Pipeline::launch(cfg) {
            Ok(p) => p,
            Err(e) => panic!("launch: {e}"),
        };
        let mut seen_enqueued = 0u64;
        let mut seen_dropped = 0u64;
        for &(key, value) in &items {
            match pipe.ingest(key, value) {
                Ok(IngestOutcome::Enqueued) => seen_enqueued += 1,
                Ok(IngestOutcome::Dropped) => seen_dropped += 1,
                Ok(IngestOutcome::ShardDown) => panic!("healthy shard reported down"),
                Err(e) => panic!("ingest: {e}"),
            }
        }
        let summary = match pipe.shutdown() {
            Ok(s) => s,
            Err(e) => panic!("shutdown: {e}"),
        };
        assert_eq!(summary.offered, items.len() as u64);
        assert_eq!(summary.enqueued, seen_enqueued);
        assert_eq!(summary.dropped, seen_dropped);
        assert_eq!(summary.offered, summary.enqueued + summary.dropped);
        assert_eq!(summary.processed, summary.enqueued, "full drain");
        for (shard, s) in summary.per_shard.iter().enumerate() {
            assert_eq!(
                s.processed, s.enqueued,
                "shard {shard} drained short (shards={shards})"
            );
        }
        let per_shard_enq: u64 = summary.per_shard.iter().map(|s| s.enqueued).sum();
        let per_shard_drop: u64 = summary.per_shard.iter().map(|s| s.dropped).sum();
        assert_eq!(per_shard_enq, summary.enqueued);
        assert_eq!(per_shard_drop, summary.dropped);
    }
}

/// Satellite regression: slab-granular shedding must keep the router
/// conservation law exact. One shed credit discards a *whole* slab at
/// the queue head, and a slab bounced back to the router under
/// DropNewest/ShedFair loses exactly the incoming item — in every case
/// `offered == enqueued + dropped + rejected` and, after a full drain,
/// `enqueued == processed + shed`, per shard and in total.
#[test]
fn shed_accounting_conserves_at_slab_granularity() {
    for policy in [
        BackpressurePolicy::DropOldest,
        BackpressurePolicy::ShedFair,
        BackpressurePolicy::DropNewest,
    ] {
        for shards in shard_counts() {
            // Tiny queues force shedding at nearly every slab flush.
            let cfg = config(shards, 2, policy);
            let items = workload(13, N_ITEMS);
            let mut pipe = match Pipeline::launch(cfg) {
                Ok(p) => p,
                Err(e) => panic!("launch: {e}"),
            };
            let mut seen_enqueued = 0u64;
            let mut seen_dropped = 0u64;
            for &(key, value) in &items {
                match pipe.ingest(key, value) {
                    Ok(IngestOutcome::Enqueued) => seen_enqueued += 1,
                    Ok(IngestOutcome::Dropped) => seen_dropped += 1,
                    Ok(IngestOutcome::ShardDown) => panic!("healthy shard reported down"),
                    Err(e) => panic!("ingest: {e}"),
                }
            }
            let summary = match pipe.shutdown() {
                Ok(s) => s,
                Err(e) => panic!("shutdown: {e}"),
            };
            assert_eq!(summary.offered, items.len() as u64, "{policy:?}");
            assert_eq!(summary.enqueued, seen_enqueued, "{policy:?}");
            assert_eq!(summary.dropped, seen_dropped, "{policy:?}");
            assert_eq!(summary.rejected, 0, "{policy:?}");
            assert_eq!(
                summary.offered,
                summary.enqueued + summary.dropped + summary.rejected,
                "router conservation broke ({policy:?}, shards={shards})"
            );
            assert_eq!(
                summary.enqueued,
                summary.processed + summary.shed,
                "worker conservation broke ({policy:?}, shards={shards})"
            );
            for (shard, s) in summary.per_shard.iter().enumerate() {
                assert_eq!(
                    s.enqueued,
                    s.processed + s.shed,
                    "shard {shard} conservation broke ({policy:?}, shards={shards})"
                );
            }
            if policy == BackpressurePolicy::DropNewest && cfg.slab_capacity == 1 {
                // slab=1 reproduces v1 exactly: every drop is a single
                // incoming item bounced off a full one-slot flush.
                assert_eq!(summary.shed, 0, "DropNewest must never shed");
            }
        }
    }
}

#[test]
fn snapshot_under_load_restores_byte_identically() {
    for shards in shard_counts() {
        let cfg = config(shards, 256, BackpressurePolicy::Block);
        let items = workload(11, N_ITEMS);
        let (prefix, suffix) = items.split_at(items.len() / 2);

        let mut original = match Pipeline::launch(cfg) {
            Ok(p) => p,
            Err(e) => panic!("launch: {e}"),
        };
        for &(key, value) in prefix {
            if let Err(e) = original.ingest(key, value) {
                panic!("ingest: {e}");
            }
        }
        // Queues are typically non-empty here: the barrier has to wait
        // for in-flight items, which is the "under load" part. With
        // slab > 1, partial slabs also sit in the router — the barrier
        // must flush them so the cut includes router-buffered keys.
        let buffered_before: usize = (0..shards).map(|s| original.buffered_len(s)).sum();
        if cfg.slab_capacity > 1 {
            assert!(
                buffered_before > 0,
                "expected partial router slabs before the barrier \
                 (shards={shards}, slab={})",
                cfg.slab_capacity
            );
        }
        let envelope = match original.snapshot() {
            Ok(b) => b,
            Err(e) => panic!("snapshot: {e}"),
        };
        for shard in 0..shards {
            assert_eq!(
                original.buffered_len(shard),
                0,
                "barrier left items buffered in the router (shard {shard})"
            );
        }
        // Reports visible after the barrier ack are exactly the
        // pre-barrier ones: nothing post-barrier has been ingested yet —
        // and they must cover the *whole* prefix, including the items
        // that were still router-buffered when `snapshot` was called.
        let pre_barrier = original.poll_reports();
        assert_eq!(
            per_shard_sequences(shards, &pre_barrier),
            serial_reference(&cfg, prefix),
            "barrier cut lost router-buffered keys (shards={shards})"
        );

        // (a) restore → snapshot is byte-identical (determinism of the
        // per-shard wire-v2 encodings and of the envelope framing).
        let mut mirror = match Pipeline::restore(&envelope, cfg) {
            Ok(p) => p,
            Err(e) => panic!("restore: {e}"),
        };
        let re_envelope = match mirror.snapshot() {
            Ok(b) => b,
            Err(e) => panic!("re-snapshot: {e}"),
        };
        assert_eq!(envelope, re_envelope, "shards={shards}");

        // (b) the restored pipeline continues the suffix with the same
        // per-shard report sequences as the original's post-barrier run.
        let mut original_post = Vec::new();
        let mut mirror_post = Vec::new();
        for &(key, value) in suffix {
            if let Err(e) = original.ingest(key, value) {
                panic!("ingest original: {e}");
            }
            if let Err(e) = mirror.ingest(key, value) {
                panic!("ingest mirror: {e}");
            }
        }
        original_post.extend(original.poll_reports());
        mirror_post.extend(mirror.poll_reports());
        let original_summary = match original.shutdown() {
            Ok(s) => s,
            Err(e) => panic!("shutdown original: {e}"),
        };
        let mirror_summary = match mirror.shutdown() {
            Ok(s) => s,
            Err(e) => panic!("shutdown mirror: {e}"),
        };
        original_post.extend(original_summary.reports.iter().copied());
        mirror_post.extend(mirror_summary.reports.iter().copied());

        assert_eq!(
            per_shard_sequences(shards, &original_post),
            per_shard_sequences(shards, &mirror_post),
            "post-barrier divergence (shards={shards})"
        );
        // Sanity: the serial reference over the whole stream matches the
        // original's full report record (pre-barrier + post-barrier).
        let mut full = pre_barrier;
        full.extend(original_post.iter().copied());
        assert_eq!(
            per_shard_sequences(shards, &full),
            serial_reference(&cfg, &items),
            "full-stream divergence (shards={shards})"
        );
    }
}

#[test]
fn worker_death_is_reported_not_hung() {
    // A pipeline whose worker has exited (shutdown already consumed it)
    // can't be built directly; instead check the queue-level contract the
    // router relies on: a dead consumer turns pushes into errors.
    use qf_pipeline::{PushError, SpscRing};
    let (mut producer, consumer) = SpscRing::<u64>::with_capacity(4).split();
    consumer.mark_dead();
    assert!(matches!(
        producer.try_push(1),
        Err((PushError::Disconnected, 1))
    ));
    assert_eq!(producer.push_blocking(2), Err(PushError::Disconnected));
}

#[test]
fn spsc_ring_transfers_everything_in_order() {
    let (mut producer, mut consumer) = spsc_ring(8);
    let n: u64 = if cfg!(miri) { 5_000 } else { 500_000 };
    let handle = std::thread::spawn(move || {
        let mut next = 0u64;
        let mut sum = 0u64;
        loop {
            let v = match consumer.pop_wait() {
                Some(v) => v,
                None => panic!("producer closed before the sentinel"),
            };
            if v == u64::MAX {
                break;
            }
            assert_eq!(v, next, "out-of-order or duplicated element");
            next += 1;
            sum = sum.wrapping_add(v);
        }
        (next, sum)
    });
    for v in 0..n {
        if let Err(e) = producer.push_blocking(v) {
            panic!("push: {e:?}");
        }
    }
    if let Err(e) = producer.push_blocking(u64::MAX) {
        panic!("push sentinel: {e:?}");
    }
    match handle.join() {
        Ok((count, sum)) => {
            assert_eq!(count, n);
            assert_eq!(sum, n.wrapping_mul(n.wrapping_sub(1)) / 2);
        }
        Err(_) => panic!("consumer panicked"),
    }
}

/// Small helper so the ring test reads naturally.
fn spsc_ring(cap: usize) -> (qf_pipeline::Producer<u64>, qf_pipeline::Consumer<u64>) {
    qf_pipeline::SpscRing::with_capacity(cap).split()
}
