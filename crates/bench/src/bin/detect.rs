//! Run outstanding-key detection over a saved trace.
//!
//! ```text
//! cargo run -p qf-bench --release --bin detect -- \
//!     --trace PATH [--scheme qf|squad|polymer|hist|naive|exact] \
//!     [--memory BYTES] [--query SQL] [--eps E --delta D --threshold T] \
//!     [--ground-truth] [--seed S] [--metrics-out PREFIX] [--no-metrics]
//! ```
//!
//! The criteria come either from the paper's SQL form (`--query "SELECT
//! key FROM s GROUP BY key HAVING QUANTILE(value_set, 0.95) >= 300 WITH
//! eps = 30"`) or from the individual flags. With `--ground-truth` the
//! exact outstanding set is computed too and precision/recall/F1 printed.
//!
//! Every run emits telemetry sidecars `<prefix>.metrics.json` and
//! `<prefix>.metrics.prom` (default prefix `results/detect-<scheme>`;
//! override with `--metrics-out`, suppress with `--no-metrics`): the
//! sampled insert-latency histogram plus the run's meta (detector,
//! items, seconds, Mops, memory, sample rate).

use qf_baselines::{
    ExactDetector, HistSketchDetector, NaiveDetector, OutstandingDetector, QfDetector,
    SketchPolymerDetector, SquadDetector,
};
use qf_datasets::trace;
use qf_eval::{ground_truth, run_detector_telemetered, Accuracy, TelemetryConfig};
use quantile_filter::{parse_query, Criteria};

fn usage() -> ! {
    eprintln!(
        "usage: detect --trace PATH [--scheme qf|squad|polymer|hist|naive|exact]\n\
         \x20              [--memory BYTES] [--query SQL]\n\
         \x20              [--eps E] [--delta D] [--threshold T]\n\
         \x20              [--ground-truth] [--seed S]\n\
         \x20              [--metrics-out PREFIX] [--no-metrics]"
    );
    std::process::exit(2)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut trace_path = None;
    let mut scheme = "qf".to_string();
    let mut memory = 1 << 20;
    let mut query: Option<String> = None;
    let mut eps = 30.0;
    let mut delta = 0.95;
    let mut threshold: Option<f64> = None;
    let mut want_truth = false;
    let mut seed = 1u64;
    let mut metrics_out: Option<String> = None;
    let mut no_metrics = false;

    let mut i = 0;
    while i < argv.len() {
        let val = |i: usize| argv.get(i + 1).cloned().unwrap_or_else(|| usage());
        match argv[i].as_str() {
            "--trace" => {
                trace_path = Some(val(i));
                i += 1;
            }
            "--scheme" => {
                scheme = val(i);
                i += 1;
            }
            "--memory" => {
                memory = val(i).parse().unwrap_or_else(|_| usage());
                i += 1;
            }
            "--query" => {
                query = Some(val(i));
                i += 1;
            }
            "--eps" => {
                eps = val(i).parse().unwrap_or_else(|_| usage());
                i += 1;
            }
            "--delta" => {
                delta = val(i).parse().unwrap_or_else(|_| usage());
                i += 1;
            }
            "--threshold" => {
                threshold = Some(val(i).parse().unwrap_or_else(|_| usage()));
                i += 1;
            }
            "--ground-truth" => want_truth = true,
            "--seed" => {
                seed = val(i).parse().unwrap_or_else(|_| usage());
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
    let Some(path) = trace_path else { usage() };

    let (items, trace_threshold) = trace::read_file(&path).unwrap_or_else(|e| {
        eprintln!("failed to read trace {path}: {e}");
        std::process::exit(1);
    });
    let criteria = match query {
        Some(q) => parse_query(&q).unwrap_or_else(|e| {
            eprintln!("bad --query: {e}");
            std::process::exit(1);
        }),
        None => {
            Criteria::new(eps, delta, threshold.unwrap_or(trace_threshold)).unwrap_or_else(|e| {
                eprintln!("bad criteria: {e}");
                std::process::exit(1);
            })
        }
    };
    println!(
        "trace: {} items; criteria: eps={} delta={} T={}; scheme={scheme} memory={memory}B",
        items.len(),
        criteria.epsilon(),
        criteria.delta(),
        criteria.threshold()
    );

    let mut detector: Box<dyn OutstandingDetector> = match scheme.as_str() {
        "qf" => Box::new(QfDetector::paper_default(criteria, memory, seed)),
        "squad" => Box::new(SquadDetector::new(criteria, memory, seed)),
        "polymer" => Box::new(SketchPolymerDetector::new(criteria, memory, seed)),
        "hist" => Box::new(HistSketchDetector::new(criteria, memory, seed)),
        "naive" => Box::new(NaiveDetector::new(criteria, memory, seed)),
        "exact" => Box::new(ExactDetector::new(criteria)),
        _ => usage(),
    };

    let telemetry = if no_metrics {
        TelemetryConfig {
            sidecar_prefix: None,
            ..TelemetryConfig::default()
        }
    } else {
        let prefix = metrics_out.unwrap_or_else(|| format!("results/detect-{scheme}"));
        TelemetryConfig::with_sidecar(prefix)
    };
    let run = run_detector_telemetered(detector.as_mut(), &items, &telemetry).unwrap_or_else(|e| {
        eprintln!("failed to write telemetry sidecar: {e}");
        std::process::exit(1);
    });
    let result = run.result;
    println!(
        "reported {} distinct keys ({} report events) in {:.3}s — {:.2} Mops, {} live bytes",
        result.reported.len(),
        result.report_events,
        result.seconds,
        result.mops(),
        result.memory_bytes
    );
    if let Some(h) = run.metrics.histogram("qf_insert_latency_ns") {
        println!(
            "insert latency (sampled, ns): p50={} p95={} p99={} max={}",
            h.quantile(0.50),
            h.quantile(0.95),
            h.quantile(0.99),
            h.max
        );
    }
    if let Some((json, prom)) = &run.sidecars {
        println!("telemetry: {} / {}", json.display(), prom.display());
    }

    if want_truth {
        let truth = ground_truth(&items, &criteria);
        let acc = Accuracy::of(&result.reported, &truth);
        println!("ground truth: {} outstanding keys; {acc}", truth.len());
    }
}
