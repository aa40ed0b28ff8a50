//! Adapter running the live `qf-pipeline` under the eval harness, so the
//! differential/equivalence suites exercise the concurrent system with
//! the same workloads and comparisons as the batch detectors.
//!
//! [`PipelineDetector`] has the eval harness's shape: feed a trace, get
//! back the deduplicated reported-key set. It seeds shard `i` with
//! `base_seed + i`, so routing each item with `qf_pipeline::shard_of` to
//! one of `shards` `QfDetector::paper_default(criteria, mem, i)` filters
//! in a single thread is the exact serial reference for a pipeline with
//! `seed: 0`, the equivalence the `pipeline_equivalence` test pins.

use qf_datasets::Item;
use qf_pipeline::{
    BackpressurePolicy, Pipeline, PipelineConfig, PipelineError, PipelineSummary, SupervisorConfig,
};
use quantile_filter::Criteria;
use std::collections::HashSet;

/// The detector-shaped face of a live pipeline: owns a config, runs
/// traces end to end (launch → ingest → drain → shutdown) per call.
#[derive(Debug, Clone, Copy)]
pub struct PipelineDetector {
    config: PipelineConfig,
}

/// A completed pipeline run over one trace.
#[derive(Debug)]
pub struct PipelineRun {
    /// Deduplicated reported keys — the currency of the eval suites.
    pub reported: HashSet<u64>,
    /// The pipeline's final accounting (conservation, per-shard stats).
    pub summary: PipelineSummary,
}

impl PipelineDetector {
    /// Lossless configuration matching the serial reference (module docs):
    /// `shards` filters of `memory_bytes_per_shard` each, shard `i`
    /// seeded with `i`, blocking backpressure.
    pub fn paper_default(criteria: Criteria, shards: usize, memory_bytes_per_shard: usize) -> Self {
        Self {
            config: PipelineConfig {
                shards,
                criteria,
                memory_bytes_per_shard,
                queue_capacity: 1024,
                slab_capacity: 256,
                policy: BackpressurePolicy::Block,
                seed: 0,
            },
        }
    }

    /// Use a custom pipeline config (drop policies, other seeds, …).
    pub fn with_config(config: PipelineConfig) -> Self {
        Self { config }
    }

    /// The wrapped config.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Stream `items` through a freshly-launched pipeline and drain it.
    pub fn run(&self, items: &[Item]) -> Result<PipelineRun, PipelineError> {
        self.drive(Pipeline::launch(self.config)?, items)
    }

    /// Same run, but through the self-healing layer: checkpointing and
    /// journaling on, watchdog armed. With no faults injected this must
    /// report exactly what [`run`](Self::run) reports — the equivalence
    /// suite pins that supervision is observationally free.
    pub fn run_supervised(
        &self,
        sup: SupervisorConfig,
        items: &[Item],
    ) -> Result<PipelineRun, PipelineError> {
        self.drive(Pipeline::launch_supervised(self.config, sup)?, items)
    }

    fn drive(&self, mut pipe: Pipeline, items: &[Item]) -> Result<PipelineRun, PipelineError> {
        let mut reported = HashSet::new();
        for item in items {
            pipe.ingest(item.key, item.value)?;
        }
        for ev in pipe.poll_reports() {
            reported.insert(ev.key);
        }
        let summary = pipe.shutdown()?;
        for ev in &summary.reports {
            reported.insert(ev.key);
        }
        Ok(PipelineRun { reported, summary })
    }
}
