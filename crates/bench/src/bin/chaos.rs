//! Self-healing pipeline harness: restart latency under injected crashes.
//!
//! ```text
//! cargo run -p qf-bench --release --bin chaos -- \
//!     [--tiny] [--out PATH] [--items N] [--queue N] [--slab N] \
//!     [--crashes N]
//! ```
//!
//! Streams a Zipf trace through a 4-shard pipeline under repeated
//! injected worker crashes and distills the restart-latency distribution
//! (p50/p99/max), replay volume, and the accounted loss from the
//! supervisor's own recovery records.
//!
//! Writes `BENCH_chaos.json` (schema documented on
//! `qf_bench::chaos::render_json`). `--tiny` is the CI smoke mode.

use qf_bench::chaos::{measure_recovery, render_json, ChaosBenchReport};
use qf_bench::pipeline::detect_nproc;
use qf_datasets::{zipf_dataset, ZipfConfig};
use qf_pipeline::{BackpressurePolicy, PipelineConfig, SupervisorConfig};
use quantile_filter::Criteria;
use std::time::Duration;

const SHARD_MEMORY: usize = 32 * 1024;
const RECOVERY_SHARDS: usize = 4;

fn usage() -> ! {
    eprintln!(
        "usage: chaos [--tiny] [--out PATH] [--items N] [--queue N] [--slab N] \
         [--crashes N]"
    );
    std::process::exit(2)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut tiny = false;
    let mut out = "BENCH_chaos.json".to_string();
    let mut items: Option<usize> = None;
    let mut queue_capacity = 1024usize;
    let mut slab_capacity = 256usize;
    let mut crashes: Option<u32> = None;

    let mut i = 0;
    while i < argv.len() {
        let val = |i: usize| argv.get(i + 1).cloned().unwrap_or_else(|| usage());
        match argv[i].as_str() {
            "--tiny" => tiny = true,
            "--out" => {
                out = val(i);
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
            "--crashes" => {
                crashes = Some(val(i).parse().unwrap_or_else(|_| usage()));
                i += 1;
            }
            _ => usage(),
        }
        i += 1;
    }

    let crashes = crashes.unwrap_or(if tiny { 4 } else { 16 });
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
    let sup = SupervisorConfig {
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(8),
        ..SupervisorConfig::default()
    };

    println!(
        "chaos: mode={} nproc={nproc} queue={queue_capacity} \
         slab={slab_capacity} crashes={crashes} trace zipf {} items / {} keys",
        if tiny { "tiny" } else { "full" },
        data.items.len(),
        data.key_count
    );

    let config = PipelineConfig {
        shards: RECOVERY_SHARDS,
        criteria,
        memory_bytes_per_shard: SHARD_MEMORY,
        queue_capacity,
        slab_capacity,
        policy: BackpressurePolicy::Block,
        seed: 0,
    };

    println!("injecting {crashes} worker crashes (panic backtraces below are expected)...");
    let recovery = match measure_recovery(config, sup, &data.items, crashes) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("recovery run: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "recovery x{RECOVERY_SHARDS}: {} restarts | p50 {} us | p99 {} us | max {} us | \
         replayed {} | lost {}",
        recovery.samples,
        recovery.p50_us,
        recovery.p99_us,
        recovery.max_us,
        recovery.replayed_total,
        recovery.lost_total
    );

    let report = ChaosBenchReport {
        mode: if tiny { "tiny" } else { "full" }.to_string(),
        nproc,
        queue_capacity,
        slab_capacity,
        checkpoint_interval: sup.checkpoint_interval,
        items: data.items.len(),
        recovery,
    };
    let json = render_json(&report);
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");
}
