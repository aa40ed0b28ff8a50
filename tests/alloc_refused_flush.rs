//! A flush the full queue refuses allocates nothing.
//!
//! Under `DropNewest`, a slab that fills while the shard's queue is full
//! comes back to the router, which drops the incoming item and keeps the
//! rest buffered. While the flush holds the slab, an empty stand-in that
//! owns no buffer takes its place, and the refused slab simply goes
//! back. Allocating a replacement slab for every flush instead would cost
//! one allocation and one free of a whole slab per dropped item, for as
//! long as the overload lasts.
//!
//! The counting allocator sees every thread, so this binary holds
//! exactly one test.

mod alloc_count;

use alloc_count::allocations;
use qf_repro::qf_pipeline::{
    BackpressurePolicy, ChaosPlan, Fault, IngestOutcome, Pipeline, PipelineConfig, SupervisorConfig,
};
use qf_repro::quantile_filter::Criteria;
use std::time::{Duration, Instant};

const SLAB: usize = 256;
const QUEUE: usize = 1024;
/// How long the worker stays wedged on its first slab. The counted
/// window takes well under a millisecond; shutdown waits this out.
const HANG_MS: u64 = 1_000;
/// Dropped ingests inside the counted window.
const DROPS: u64 = 1_000;

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
        policy: BackpressurePolicy::DropNewest,
        seed: 13,
    }
}

fn ingest(pipe: &mut Pipeline, i: u64) -> IngestOutcome {
    match pipe.ingest(i % 4_096, 5.0) {
        Ok(outcome) => outcome,
        Err(e) => panic!("item {i}: {e}"),
    }
}

#[test]
fn dropped_ingests_allocate_nothing() {
    // The worker hangs on its first item, so the queue fills and stays
    // full; the watchdog deadline outlasts the hang, so it is never
    // taken for a dead worker and nothing is respawned.
    let plan = ChaosPlan::new().with(Fault::Hang {
        shard: 0,
        at_pop: 0,
        millis: HANG_MS,
    });
    let sup = SupervisorConfig {
        watchdog_deadline: Duration::from_secs(60),
        ..SupervisorConfig::default()
    };
    let mut pipe = match Pipeline::launch_chaos(config(), sup, &plan) {
        Ok(p) => p,
        Err(e) => panic!("launch: {e}"),
    };
    // One full slab goes to the worker, which takes it and hangs on its
    // first item; wait for that take. The slab keeps its slot until the
    // worker releases it after the hang, so no slot frees up inside the
    // window.
    let mut next = 0u64;
    while next < SLAB as u64 {
        assert_eq!(ingest(&mut pipe, next), IngestOutcome::Enqueued);
        next += 1;
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while pipe.queue_len(0) > 0 {
        assert!(
            Instant::now() < deadline,
            "the worker never took its first slab"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // Fill the queue and the router slab up to the first drop. Each push
    // into a slot that never held a slab allocates the router's next one.
    loop {
        let outcome = ingest(&mut pipe, next);
        next += 1;
        match outcome {
            IngestOutcome::Enqueued => {}
            IngestOutcome::Dropped => break,
            IngestOutcome::ShardDown => panic!("shard quarantined at item {next}"),
        }
        assert!(next < 64 * SLAB as u64, "the queue never filled");
    }
    let admitted = next - 1;

    let before = allocations();
    for _ in 0..DROPS {
        let outcome = ingest(&mut pipe, next);
        next += 1;
        assert_eq!(
            outcome,
            IngestOutcome::Dropped,
            "the hung worker freed a slot inside the window"
        );
    }
    let allocated = allocations() - before;
    assert_eq!(
        allocated, 0,
        "{DROPS} dropped ingests allocated {allocated} times"
    );

    let summary = match pipe.shutdown() {
        Ok(s) => s,
        Err(e) => panic!("shutdown: {e}"),
    };
    assert_eq!(summary.offered, next);
    assert_eq!(summary.dropped, DROPS + 1);
    assert_eq!(summary.enqueued, admitted);
    assert_eq!(summary.processed, admitted);
    assert_eq!(summary.restarts, 0);
}
