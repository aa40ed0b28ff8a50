//! Live-pipeline throughput harness: offered load vs sustained Mops, drop
//! rate and loss rate across shard counts and backpressure policies.
//!
//! ```text
//! cargo run -p qf-bench --release --bin pipeline -- \
//!     [--tiny] [--out PATH] [--repeats N] [--items N] [--queue N] \
//!     [--slab N] [--metrics-out PREFIX] [--no-metrics]
//! ```
//!
//! For each shard count in {1, 2, 4, 8} and each backpressure policy
//! (`block`, `drop_newest`, `drop_oldest`, `shed_fair`), streams a Zipf
//! trace through a freshly launched `qf-pipeline` and records:
//!
//! * offered Mops — the router-side ingest rate (what the caller sees);
//! * sustained Mops — items applied to shard filters over the whole run
//!   including the drain;
//! * drop rate — items shed at the router under the dropping policies
//!   (always 0 under `block`; the measurement aborts if conservation
//!   `offered == enqueued + dropped` or `enqueued == processed + shed`
//!   ever fails);
//! * loss rate — items that never reached a filter, router drops plus
//!   worker sheds: `(offered − processed) / offered`.
//!
//! Writes the results as `BENCH_pipeline.json` (schema v3, documented on
//! `qf_bench::pipeline::render_json`). `--tiny` is the CI smoke mode:
//! the 50K-item trace, one repeat, same schema.
//!
//! The harness detects `nproc` up front; every point measured with
//! `nproc < shards + 1` (router plus one worker per shard can't each own
//! a core) is tagged `"oversubscribed": true` in the JSON so 1-core
//! numbers are never mistaken for scaling data. When cores allow, worker
//! placement is left to the OS scheduler — each worker is its own OS
//! thread, and with `nproc >= shards + 1` they spread onto distinct
//! cores; the toolchain has no affinity syscall to pin harder.
//!
//! Like the `detect` bin, an end-of-run telemetry snapshot lands at
//! `<prefix>.metrics.{json,prom}` (default prefix
//! `results/bench-pipeline`, override with `--metrics-out`, suppress
//! with `--no-metrics`). The counters are only live under
//! `--features telemetry`; without it the sidecars record zeros.

use qf_bench::pipeline::{
    detect_nproc, measure_pipeline, render_json, PipelineBenchReport, WorkloadMeta,
};
use qf_datasets::{zipf_dataset, ZipfConfig};
use qf_pipeline::{BackpressurePolicy, PipelineConfig};
use quantile_filter::Criteria;

const SHARD_POINTS: [usize; 4] = [1, 2, 4, 8];
const POLICIES: [BackpressurePolicy; 4] = [
    BackpressurePolicy::Block,
    BackpressurePolicy::DropNewest,
    BackpressurePolicy::DropOldest,
    BackpressurePolicy::ShedFair,
];
const SHARD_MEMORY: usize = 32 * 1024;

fn usage() -> ! {
    eprintln!(
        "usage: pipeline [--tiny] [--out PATH] [--repeats N] [--items N] [--queue N] \
         [--slab N] [--metrics-out PREFIX] [--no-metrics]"
    );
    std::process::exit(2)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut tiny = false;
    let mut out = "BENCH_pipeline.json".to_string();
    let mut repeats: Option<usize> = None;
    let mut items: Option<usize> = None;
    let mut queue_capacity = 1024usize;
    let mut slab_capacity = 256usize;
    let mut metrics_out: Option<String> = None;
    let mut no_metrics = false;

    let mut i = 0;
    while i < argv.len() {
        let val = |i: usize| argv.get(i + 1).cloned().unwrap_or_else(|| usage());
        match argv[i].as_str() {
            "--tiny" => tiny = true,
            "--out" => {
                out = val(i);
                i += 1;
            }
            "--repeats" => {
                repeats = Some(val(i).parse().unwrap_or_else(|_| usage()));
                i += 1;
            }
            "--items" => {
                items = Some(val(i).parse().unwrap_or_else(|_| usage()));
                i += 1;
            }
            "--queue" => {
                queue_capacity = val(i).parse().unwrap_or_else(|_| usage());
                i += 1;
            }
            "--slab" => {
                slab_capacity = val(i).parse().unwrap_or_else(|_| usage());
                i += 1;
            }
            "--metrics-out" => {
                metrics_out = Some(val(i));
                i += 1;
            }
            "--no-metrics" => no_metrics = true,
            _ => usage(),
        }
        i += 1;
    }

    let repeats = repeats.unwrap_or(if tiny { 1 } else { 3 });
    let nproc = detect_nproc();

    let mut cfg = if tiny {
        ZipfConfig::tiny()
    } else {
        ZipfConfig::default()
    };
    if let Some(n) = items {
        cfg.items = n;
    }
    let data = zipf_dataset(&cfg);
    let criteria = match Criteria::new(30.0, 0.95, data.threshold) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bad criteria: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "pipeline: mode={} repeats={repeats} nproc={nproc} queue={queue_capacity} \
         slab={slab_capacity} trace zipf {} items / {} keys",
        if tiny { "tiny" } else { "full" },
        data.items.len(),
        data.key_count
    );

    let mut points = Vec::new();
    for policy in POLICIES {
        for shards in SHARD_POINTS {
            let config = PipelineConfig {
                shards,
                criteria,
                memory_bytes_per_shard: SHARD_MEMORY,
                queue_capacity,
                slab_capacity,
                policy,
                seed: 0,
            };
            let m = match measure_pipeline(config, &data.items, repeats) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("pipeline run (shards={shards}, {policy:?}): {e}");
                    std::process::exit(1);
                }
            };
            println!(
                "{:<12} x{shards}: offered {:.2} Mops | sustained {:.2} Mops | \
                 drop rate {:.4} | loss rate {:.4} | {} reported keys{}",
                m.policy,
                m.offered_mops(),
                m.sustained_mops(),
                m.drop_rate(),
                m.loss_rate(),
                m.reported_keys,
                if m.oversubscribed {
                    " | OVERSUBSCRIBED"
                } else {
                    ""
                }
            );
            points.push(m);
        }
    }

    let report = PipelineBenchReport {
        mode: if tiny { "tiny" } else { "full" }.to_string(),
        nproc,
        repeats,
        queue_capacity,
        slab_capacity,
        memory_bytes_per_shard: SHARD_MEMORY,
        workload: WorkloadMeta {
            name: "zipf".into(),
            items: data.items.len(),
            keys: data.key_count,
            threshold: data.threshold,
        },
        points,
    };
    let json = render_json(&report);
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");

    if !no_metrics {
        match qf_bench::metrics::flush_global_sidecars(metrics_out, "results/bench-pipeline") {
            Ok((json_path, prom_path)) => {
                println!("wrote {} and {}", json_path.display(), prom_path.display());
            }
            Err(e) => {
                eprintln!("failed to write telemetry sidecars: {e}");
                std::process::exit(1);
            }
        }
    }
}
