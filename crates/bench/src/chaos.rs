//! The self-healing-pipeline harness behind the `chaos` bin: how fast is
//! recovery when something goes wrong? A poison key is injected at evenly
//! spaced points of the trace, each delivery killing its worker; the
//! supervisor's own [`RecoveryRecord`]s give the restart latency
//! distribution (p50/p99/max) plus the replay and loss totals.
//!
//! Results render as the `BENCH_chaos.json` schema documented on
//! [`render_json`].

use qf_datasets::Item;
use qf_pipeline::{
    ChaosPlan, Fault, Pipeline, PipelineConfig, PipelineError, RecoveryRecord, SupervisorConfig,
};
use qf_telemetry::LogHistogram;

/// Restart-latency distribution over one fault-injection run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryStats {
    /// Recoveries observed (quarantines excluded — none should occur).
    pub samples: usize,
    /// Median restart latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile restart latency, microseconds.
    pub p99_us: u64,
    /// Worst restart latency, microseconds.
    pub max_us: u64,
    /// Journal entries replayed across all recoveries.
    pub replayed_total: u64,
    /// Items lost to crash windows across the whole run (accounted).
    pub lost_total: u64,
    /// Items applied end to end despite the crashes.
    pub processed: u64,
}

/// Distill restart latencies through the same [`LogHistogram`] the rest
/// of the stack uses for latency distributions (one estimator, one error
/// model: quantiles are bucket upper bounds, ≤25% relative error; `max`
/// is exact, and quantile estimates are clamped to it so the reported
/// distribution is internally consistent).
fn latency_stats(latencies_us: impl IntoIterator<Item = u64>) -> (usize, u64, u64, u64) {
    let hist = LogHistogram::new();
    for us in latencies_us {
        hist.record(us);
    }
    let snap = hist.snapshot();
    let max = snap.max;
    (
        snap.count() as usize,
        snap.quantile(0.50).min(max),
        snap.quantile(0.99).min(max),
        max,
    )
}

/// Stream `items` through a supervised pipeline while a poison key kills
/// a worker `crashes` times at evenly spaced points, then distill the
/// supervisor's recovery records. `strike_forgiveness: 1` keeps the
/// strike counter at bay (each crash is separated by real progress), so
/// every fault ends in a restart, never a quarantine.
///
/// Each poison must kill a *live* worker mid-trace: a crash that surfaces
/// only at the shutdown drain fences terminally instead of restarting,
/// and has no restart latency to measure. `config.queue_capacity` counts
/// items, so a queue far shorter than the trace keeps the router at the
/// workers' pace and the crashes spread over the run.
pub fn measure_recovery(
    config: PipelineConfig,
    sup: SupervisorConfig,
    items: &[Item],
    crashes: u32,
) -> Result<RecoveryStats, PipelineError> {
    // A key outside every dataset generator's range, so it perturbs
    // nothing but the worker it kills.
    let poison_key = u64::MAX - 1;
    let plan = ChaosPlan::new().with(Fault::Poison {
        key: poison_key,
        times: crashes,
    });
    let sup = SupervisorConfig {
        strike_forgiveness: 1,
        ..sup
    };
    let mut pipe = Pipeline::launch_chaos(config, sup, &plan)?;
    let gap = (items.len() / (crashes.max(1) as usize + 1)).max(1);
    for (i, it) in items.iter().enumerate() {
        if i % gap == gap - 1 {
            pipe.ingest(poison_key, 1.0)?;
        }
        pipe.ingest(it.key, it.value)?;
    }
    let summary = pipe.shutdown()?;
    if summary.offered != summary.enqueued + summary.dropped + summary.rejected
        || summary.enqueued != summary.processed + summary.shed + summary.lost_to_crash
    {
        return Err(PipelineError::InvalidConfig {
            reason: format!("conservation violated under chaos: {summary:?}"),
        });
    }
    let restarts: Vec<&RecoveryRecord> = summary
        .recoveries
        .iter()
        .filter(|r| !r.quarantined)
        .collect();
    let (samples, p50_us, p99_us, max_us) = latency_stats(
        restarts
            .iter()
            .map(|r| r.restart_latency.as_micros() as u64),
    );
    Ok(RecoveryStats {
        samples,
        p50_us,
        p99_us,
        max_us,
        replayed_total: restarts.iter().map(|r| r.replayed).sum(),
        lost_total: summary.lost_to_crash,
        processed: summary.processed,
    })
}

/// A full harness run, renderable as `BENCH_chaos.json`.
#[derive(Debug, Clone)]
pub struct ChaosBenchReport {
    /// "full" or "tiny" (the CI smoke mode).
    pub mode: String,
    /// `available_parallelism` of the measuring host.
    pub nproc: usize,
    /// Items per shard queue (`PipelineConfig::queue_capacity`; the ring
    /// holds that many items rounded up to whole slabs).
    pub queue_capacity: usize,
    /// Items per handoff slab (one ring slot carries one slab).
    pub slab_capacity: usize,
    /// Checkpoint cadence used by the supervised runs.
    pub checkpoint_interval: u64,
    /// Trace length.
    pub items: usize,
    /// The fault-injection distillate.
    pub recovery: RecoveryStats,
}

/// Render the report as the `BENCH_chaos.json` document:
///
/// ```json
/// {
///   "schema": "qf-bench-chaos/v3",
///   "mode": "full",                   // or "tiny" (CI smoke)
///   "nproc": 8,
///   "queue_capacity": 1024,           // items per shard queue
///   "slab_capacity": 256,             // items per handoff slab
///   "checkpoint_interval": 8192,
///   "items": 2000000,
///   "recovery": {
///     "samples": 16,                  // restarts observed
///     "restart_latency_p50_us": 900,
///     "restart_latency_p99_us": 2400,
///     "restart_latency_max_us": 2600,
///     "replayed_total": 131072,       // journal entries replayed
///     "lost_total": 1024,             // accounted crash-window loss
///     "processed": 1998976
///   }
/// }
/// ```
pub fn render_json(report: &ChaosBenchReport) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str("{\n");
    out.push_str("  \"schema\": \"qf-bench-chaos/v3\",\n");
    out.push_str(&format!("  \"mode\": \"{}\",\n", report.mode));
    out.push_str(&format!("  \"nproc\": {},\n", report.nproc));
    out.push_str(&format!(
        "  \"queue_capacity\": {},\n",
        report.queue_capacity
    ));
    out.push_str(&format!("  \"slab_capacity\": {},\n", report.slab_capacity));
    out.push_str(&format!(
        "  \"checkpoint_interval\": {},\n",
        report.checkpoint_interval
    ));
    out.push_str(&format!("  \"items\": {},\n", report.items));
    let r = &report.recovery;
    out.push_str("  \"recovery\": {\n");
    out.push_str(&format!("    \"samples\": {},\n", r.samples));
    out.push_str(&format!("    \"restart_latency_p50_us\": {},\n", r.p50_us));
    out.push_str(&format!("    \"restart_latency_p99_us\": {},\n", r.p99_us));
    out.push_str(&format!("    \"restart_latency_max_us\": {},\n", r.max_us));
    out.push_str(&format!("    \"replayed_total\": {},\n", r.replayed_total));
    out.push_str(&format!("    \"lost_total\": {},\n", r.lost_total));
    out.push_str(&format!("    \"processed\": {}\n", r.processed));
    out.push_str("  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qf_pipeline::BackpressurePolicy;
    use quantile_filter::Criteria;
    use std::time::Duration;

    fn criteria() -> Criteria {
        match Criteria::new(5.0, 0.9, 100.0) {
            Ok(c) => c,
            Err(e) => panic!("criteria: {e}"),
        }
    }

    fn trace(len: usize, keys: u64, seed: u64) -> Vec<Item> {
        let mut rng = qf_hash::SplitMix64::new(seed);
        (0..len)
            .map(|_| {
                let key = rng.next_u64() % keys;
                let value = if rng.next_u64() % 100 < 30 {
                    500.0
                } else {
                    5.0
                };
                Item { key, value }
            })
            .collect()
    }

    fn config(shards: usize) -> PipelineConfig {
        PipelineConfig {
            shards,
            criteria: criteria(),
            memory_bytes_per_shard: 16 * 1024,
            queue_capacity: 256,
            slab_capacity: 64,
            policy: BackpressurePolicy::Block,
            seed: 0,
        }
    }

    fn sup() -> SupervisorConfig {
        SupervisorConfig {
            checkpoint_interval: 512,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            ..SupervisorConfig::default()
        }
    }

    #[test]
    fn latency_stats_are_ordered_and_clamped() {
        assert_eq!(latency_stats([]), (0, 0, 0, 0));
        // A single sample: every statistic collapses to it exactly (the
        // quantile's bucket upper bound is clamped to the true max).
        assert_eq!(latency_stats([700]), (1, 700, 700, 700));
        let (n, p50, p99, max) = latency_stats(1..=1000u64);
        assert_eq!(n, 1000);
        assert_eq!(max, 1000, "max is exact");
        assert!(p50 <= p99 && p99 <= max, "p50={p50} p99={p99} max={max}");
        // LogHistogram's contract: quantiles land within 25% above the
        // true order statistic (bucket upper bounds).
        assert!((500..=625).contains(&p50), "p50={p50}");
        assert!((990..=1000).contains(&p99), "p99={p99}");
    }

    #[test]
    fn recovery_stats_capture_each_injected_crash() {
        let items = trace(30_000, 500, 10);
        let stats = match measure_recovery(config(2), sup(), &items, 3) {
            Ok(s) => s,
            Err(e) => panic!("measure: {e}"),
        };
        assert_eq!(stats.samples, 3, "every poison delivery must restart");
        assert!(stats.p50_us <= stats.p99_us);
        assert!(stats.p99_us <= stats.max_us);
        assert!(
            stats.lost_total >= 3,
            "each crash loses at least its poison item"
        );
        assert!(stats.processed > 0);
    }

    #[test]
    fn rendered_json_is_balanced_and_complete() {
        let report = ChaosBenchReport {
            mode: "tiny".into(),
            nproc: 8,
            queue_capacity: 256,
            slab_capacity: 64,
            checkpoint_interval: 512,
            items: 1000,
            recovery: RecoveryStats {
                samples: 4,
                p50_us: 900,
                p99_us: 2400,
                max_us: 2600,
                replayed_total: 2048,
                lost_total: 5,
                processed: 995,
            },
        };
        let json = render_json(&report);
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close} in:\n{json}"
            );
        }
        for key in [
            "\"qf-bench-chaos/v3\"",
            "\"slab_capacity\": 64",
            "\"checkpoint_interval\": 512",
            "\"restart_latency_p50_us\": 900",
            "\"restart_latency_p99_us\": 2400",
            "\"lost_total\": 5",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
    }
}
