//! A warmed pipeline hands slabs over without allocating.
//!
//! A worker leaves each slab it has drained in its ring slot, emptied,
//! and the router's next push into that slot takes it back and fills it
//! again. So once every slot has held a slab, neither a full-slab flush
//! nor a poll handoff of a partial slab allocates. Without the round
//! trip, every handoff would allocate a fresh slab on the router thread
//! while the worker frees the last one.
//!
//! The counting allocator sees every thread, the worker's included, so
//! this binary holds exactly one test.

mod alloc_count;

use alloc_count::allocations;
use qf_repro::qf_pipeline::{
    BackpressurePolicy, IngestOutcome, Pipeline, PipelineConfig, SupervisorConfig,
};
use qf_repro::quantile_filter::Criteria;
use std::time::{Duration, Instant};

const SLAB: usize = 256;
const QUEUE: usize = 1024;
/// Items before the counted window: past the first two checkpoint seals
/// (every 8,192 items), which allocate the two checkpoint copies.
const WARM_UP: u64 = 3 * 8_192 + 1_000;
/// Full-slab flushes, and poll handoffs, inside the counted window.
const ROUNDS: usize = 256;
/// Items of each partial slab handed over at a poll.
const PARTIAL: usize = 17;

fn config() -> PipelineConfig {
    let criteria = match Criteria::new(5.0, 0.9, 100.0) {
        Ok(c) => c,
        Err(e) => panic!("criteria: {e}"),
    };
    PipelineConfig {
        shards: 1,
        criteria,
        memory_bytes_per_shard: 32 * 1024,
        queue_capacity: QUEUE,
        slab_capacity: SLAB,
        policy: BackpressurePolicy::Block,
        seed: 11,
    }
}

/// Admit one item. Every value is below `T`, so no key is ever reported
/// and the report sink never allocates.
fn ingest(pipe: &mut Pipeline, i: u64) {
    match pipe.ingest(i % 4_096, 5.0) {
        Ok(IngestOutcome::Enqueued) => {}
        other => panic!("item {i} refused: {other:?}"),
    }
}

/// Poll until the router has handed its partial slab to the worker.
fn poll_until_handed_off(pipe: &mut Pipeline) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while pipe.buffered_len(0) > 0 {
        assert!(Instant::now() < deadline, "the partial slab never left");
        assert!(
            pipe.poll_reports().is_empty(),
            "a sub-threshold key was reported"
        );
    }
}

#[test]
fn a_warmed_pipeline_hands_slabs_over_without_allocating() {
    // A watchdog deadline far past any scheduling stall on a loaded
    // host: a false hang verdict would respawn the worker, which
    // allocates, inside the window.
    let sup = SupervisorConfig {
        watchdog_deadline: Duration::from_secs(60),
        ..SupervisorConfig::default()
    };
    let mut pipe = match Pipeline::launch_supervised(config(), sup) {
        Ok(p) => p,
        Err(e) => panic!("launch: {e}"),
    };
    let mut next = 0u64;
    while next < WARM_UP {
        ingest(&mut pipe, next);
        next += 1;
        if next.is_multiple_of(1_000) {
            poll_until_handed_off(&mut pipe);
        }
    }
    poll_until_handed_off(&mut pipe);

    let before = allocations();
    for _ in 0..ROUNDS {
        // The router's slab is empty here, so the SLAB-th item fills it
        // and flushes it inside `ingest`.
        for _ in 0..SLAB {
            ingest(&mut pipe, next);
            next += 1;
        }
        for _ in 0..PARTIAL {
            ingest(&mut pipe, next);
            next += 1;
        }
        poll_until_handed_off(&mut pipe);
    }
    let allocated = allocations() - before;

    // A shard never holds more than `ring_slots() + 1` slabs at once (one
    // per ring slot and the router's), so a window can at most top a
    // warmed shard up to that count.
    let bound = pipe.config().ring_slots() as u64 + 1;
    assert!(
        allocated <= bound,
        "{allocated} allocations for {ROUNDS} full-slab flushes and {ROUNDS} poll \
         handoffs (bound {bound}): slabs are not being reused"
    );
    let summary = match pipe.shutdown() {
        Ok(s) => s,
        Err(e) => panic!("shutdown: {e}"),
    };
    assert_eq!(summary.offered, next);
    assert_eq!(summary.processed, next);
    assert_eq!(summary.reports_emitted, 0);
}
