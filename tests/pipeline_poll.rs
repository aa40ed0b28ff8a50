//! Online reporting through the pipeline: a caller that only polls sees a
//! key's report while the key's router slab is still partial.
//!
//! The router hands a shard's slab to its worker when the slab fills, at a
//! flush point (`flush`, `snapshot`, `shutdown`), or at a `poll_reports`
//! that finds the shard's queue empty. Each test here ingests fewer items
//! than a slab, never flushes, and polls until the report arrives; without
//! the handoff at the poll the report would wait for a slab that never
//! fills. Both launch modes share the one handoff path.

use qf_repro::qf_pipeline::{
    shard_of, BackpressurePolicy, IngestOutcome, Pipeline, PipelineConfig, ReportEvent,
    SupervisorConfig,
};
use qf_repro::quantile_filter::Criteria;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
const SLAB: usize = 256;
const HOT: u64 = 42;
/// ⟨ε = 5, δ = 0.9, T = 100⟩: a value above `T` weighs 9 and a key is
/// reported at Qweight 50, so the sixth value above `T` reports it.
const ITEMS_TO_REPORT: usize = 6;

fn config() -> PipelineConfig {
    let criteria = match Criteria::new(5.0, 0.9, 100.0) {
        Ok(c) => c,
        Err(e) => panic!("criteria: {e}"),
    };
    PipelineConfig {
        shards: SHARDS,
        criteria,
        memory_bytes_per_shard: 16 * 1024,
        queue_capacity: 64,
        slab_capacity: SLAB,
        policy: BackpressurePolicy::Block,
        seed: 7,
    }
}

/// Ingest the items that make `HOT` outstanding, then poll — and only
/// poll — until its report arrives, and check the accounting at shutdown.
fn poll_alone_delivers_the_report(mut pipe: Pipeline) {
    let shard = shard_of(HOT, SHARDS);
    for i in 0..ITEMS_TO_REPORT {
        match pipe.ingest(HOT, 500.0) {
            Ok(IngestOutcome::Enqueued) => {}
            other => panic!("ingest {i}: {other:?}"),
        }
    }
    assert_eq!(pipe.buffered_len(shard), ITEMS_TO_REPORT);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut got: Vec<ReportEvent> = Vec::new();
    while got.is_empty() {
        assert!(
            Instant::now() < deadline,
            "no report after 10 s of polling; {} items still buffered in the router",
            pipe.buffered_len(shard)
        );
        got.extend(pipe.poll_reports());
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(pipe.buffered_len(shard), 0, "the poll handed the slab over");
    assert_eq!(got.len(), 1, "{got:?}");
    assert_eq!((got[0].shard, got[0].key), (shard, HOT));
    let summary = match pipe.shutdown() {
        Ok(s) => s,
        Err(e) => panic!("shutdown: {e}"),
    };
    assert_eq!(summary.offered, ITEMS_TO_REPORT as u64);
    assert_eq!(summary.processed, ITEMS_TO_REPORT as u64);
    assert_eq!(summary.reports_emitted, 1);
    assert!(summary.reports.is_empty(), "{:?}", summary.reports);
}

#[test]
fn poll_delivers_a_partial_slabs_report() {
    match Pipeline::launch(config()) {
        Ok(pipe) => poll_alone_delivers_the_report(pipe),
        Err(e) => panic!("launch: {e}"),
    }
}

#[test]
fn supervised_poll_delivers_a_partial_slabs_report() {
    match Pipeline::launch_supervised(config(), SupervisorConfig::default()) {
        Ok(pipe) => poll_alone_delivers_the_report(pipe),
        Err(e) => panic!("launch: {e}"),
    }
}
