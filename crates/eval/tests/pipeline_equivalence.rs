//! Differential suite: the live concurrent pipeline against a serial
//! reference.
//!
//! The reference routes every item with `qf_pipeline::shard_of` to one of
//! a `Vec<QfDetector>` and seeds shard `i`'s filter with `i`, exactly as
//! the pipeline does, so over the same trace the per-shard item streams
//! are identical. The contract ([`PipelineDetector`] docs): for 1/2/4/8
//! shards, the concurrent pipeline's reported key set equals the serial
//! reference's, regardless of how the OS interleaves the worker threads.

use qf_baselines::{OutstandingDetector, QfDetector};
use qf_datasets::{zipf_dataset, Item, ZipfConfig};
use qf_eval::PipelineDetector;
use qf_pipeline::{shard_of, SupervisorConfig};
use quantile_filter::Criteria;
use std::collections::HashSet;

fn criteria(threshold: f64) -> Criteria {
    match Criteria::new(5.0, 0.9, threshold) {
        Ok(c) => c,
        Err(e) => panic!("criteria: {e}"),
    }
}

const SHARD_MEMORY: usize = 32 * 1024;

/// Single-threaded serial routing over the same shard geometry.
fn serial_reference(items: &[Item], threshold: f64, shards: usize) -> HashSet<u64> {
    let mut bank: Vec<QfDetector> = (0..shards)
        .map(|i| QfDetector::paper_default(criteria(threshold), SHARD_MEMORY, i as u64))
        .collect();
    let mut reported = HashSet::new();
    for it in items {
        if bank[shard_of(it.key, shards)].insert(it.key, it.value) {
            reported.insert(it.key);
        }
    }
    reported
}

#[test]
fn pipeline_reports_equal_serial_sharded_routing() {
    let data = zipf_dataset(&ZipfConfig::tiny());
    for shards in [1usize, 2, 4, 8] {
        let reference = serial_reference(&data.items, data.threshold, shards);
        assert!(
            !reference.is_empty(),
            "trace produced no reports — equivalence would be vacuous"
        );
        let detector =
            PipelineDetector::paper_default(criteria(data.threshold), shards, SHARD_MEMORY);
        let run = match detector.run(&data.items) {
            Ok(r) => r,
            Err(e) => panic!("pipeline run (shards={shards}): {e}"),
        };
        assert_eq!(
            run.reported, reference,
            "pipeline vs serial divergence at shards={shards}"
        );
        // Lossless policy + full drain: conservation is exact.
        assert_eq!(run.summary.offered, data.items.len() as u64);
        assert_eq!(run.summary.dropped, 0);
        assert_eq!(run.summary.processed, run.summary.enqueued);
    }
}

#[test]
fn supervised_pipeline_reports_equal_serial_sharded_routing() {
    // Supervision (checkpointing, journaling, watchdog) must be
    // observationally free when nothing crashes: same key set as the
    // serial reference, zero loss, zero restarts.
    let data = zipf_dataset(&ZipfConfig::tiny());
    for shards in [2usize, 4] {
        let reference = serial_reference(&data.items, data.threshold, shards);
        let detector =
            PipelineDetector::paper_default(criteria(data.threshold), shards, SHARD_MEMORY);
        let run = match detector.run_supervised(SupervisorConfig::default(), &data.items) {
            Ok(r) => r,
            Err(e) => panic!("supervised pipeline run (shards={shards}): {e}"),
        };
        assert_eq!(
            run.reported, reference,
            "supervised pipeline vs serial divergence at shards={shards}"
        );
        assert_eq!(run.summary.lost_to_crash, 0);
        assert_eq!(run.summary.restarts, 0);
        assert_eq!(run.summary.rejected, 0);
        assert_eq!(run.summary.processed, run.summary.enqueued);
        assert!(run.summary.recoveries.is_empty());
    }
}
