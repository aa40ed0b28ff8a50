//! The repository benchmark.
//!
//! ```text
//! qf-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for `--seconds` on inputs drawn from `--seed`, checks
//! every output against a reference, and prints the measured metrics: the
//! end-to-end ones with `--trace 0`, the per-layer ones with `--trace 1`.
//! The last line of standard output is one JSON object; the lines before
//! it describe the inputs, the checks and every metric's sample count. The
//! exit code is 1 when any check failed.

mod check;
mod ledger;
mod pipeline;
mod stats;
mod trace;

use check::{exact_keys, mismatches, precision_recall, reference_reports, RefReport};
use ledger::Ledger;
use pipeline::{Episode, Mode, BATCH, SLAB};
use quantile_filter::{Criteria, QuantileFilter, QuantileFilterBuilder};
use stats::{median, percentile_sorted, tail_percentile, LogHist};
use std::collections::HashSet;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Model, Trace};

/// Items per trace.
const TRACE_LEN: usize = 2_000_000;
/// The filter seed (shard 0's seed in the pipeline runs). Fixed, so that
/// only the inputs change with `--seed`.
const FILTER_SEED: u64 = 0x51F1_7E2D;
/// Set-ups timed before each pass of the untraced run; `setup_s` is the
/// median of all of them.
const SETUPS_PER_PASS: usize = 5;
/// Share of a traced run's time given to the insert ledger; the rest goes
/// to the pipeline episodes.
const LEDGER_SHARE: f64 = 0.4;

/// ⟨ε = 30, δ = 0.95, T = 300⟩ for every workload.
fn criteria() -> Criteria {
    Criteria::new(30.0, 0.95, 300.0).expect("the benchmark's criteria are valid")
}

#[derive(Debug, Clone, Copy)]
enum Loop {
    /// `QuantileFilter::insert_batch` in 200-item calls, closed loop.
    Filter,
    /// A single-shard pipeline in this mode.
    Pipeline(Mode),
}

#[derive(Debug, Clone, Copy)]
struct Workload {
    name: &'static str,
    model: Model,
    memory_bytes: usize,
    drive: Loop,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "filter-zipf",
        model: Model::Zipf,
        memory_bytes: 512 * 1024,
        drive: Loop::Filter,
    },
    Workload {
        name: "filter-internet",
        model: Model::Internet,
        memory_bytes: 32 * 1024,
        drive: Loop::Filter,
    },
    Workload {
        name: "pipeline-open",
        model: Model::Zipf,
        memory_bytes: 512 * 1024,
        drive: Loop::Pipeline(Mode {
            supervised: false,
            rate_mops: Some(8.0),
        }),
    },
    Workload {
        name: "pipeline-supervised",
        model: Model::Zipf,
        memory_bytes: 512 * 1024,
        drive: Loop::Pipeline(Mode {
            supervised: true,
            rate_mops: None,
        }),
    },
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                let found = WORKLOADS.iter().find(|w| w.name == value);
                workload = Some(*found.ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
    })
}

/// Metrics in print order, with the sample count behind each.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str, String)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str, samples: impl ToString) {
        self.0.push((name, value, unit, samples.to_string()));
    }
}

/// What a run's checks found.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

/// Everything a workload needs, computed before any timing.
struct Prepared {
    workload: Workload,
    trace: Trace,
    reference: Vec<RefReport>,
    exact: HashSet<u64>,
}

impl Prepared {
    fn build(&self) -> QuantileFilter {
        QuantileFilterBuilder::new(criteria())
            .memory_budget_bytes(self.workload.memory_bytes)
            .seed(FILTER_SEED)
            .build()
    }

    fn pipeline_config(&self) -> qf_pipeline::PipelineConfig {
        pipeline::config(criteria(), self.workload.memory_bytes, FILTER_SEED)
    }

    fn items(&self) -> &[(u64, f64)] {
        &self.trace.items
    }
}

/// One closed-loop filter pass: a fresh filter fed the trace in `batch`-item
/// `insert_batch` calls. Returns the pass time, the reports, each report's
/// latency from the start of its call, and (traced) every call's time.
struct FilterPass {
    ns: f64,
    reports: Vec<RefReport>,
    latencies_us: Vec<f64>,
    call_ns: Vec<f64>,
    filter: QuantileFilter,
}

fn filter_pass(p: &Prepared, batch: usize, traced: bool) -> FilterPass {
    let mut filter = p.build();
    let mut reports = Vec::with_capacity(p.reference.len());
    let mut latencies_us = Vec::with_capacity(p.reference.len());
    let calls = if traced {
        p.items().len() / batch + 1
    } else {
        0
    };
    let mut call_ns = Vec::with_capacity(calls);
    let t0 = Instant::now();
    for (c, items) in p.items().chunks(batch).enumerate() {
        let start = Instant::now();
        filter.insert_batch(items, &mut |i, r| {
            latencies_us.push(start.elapsed().as_nanos() as f64 / 1e3);
            reports.push((c * batch + i, r));
        });
        if traced {
            call_ns.push(start.elapsed().as_nanos() as f64);
        }
    }
    let ns = t0.elapsed().as_nanos() as f64;
    FilterPass {
        ns,
        reports,
        latencies_us,
        call_ns,
        filter: black_box(filter),
    }
}

/// One set-up, in seconds: from `QuantileFilterBuilder::build` or
/// `Pipeline::launch*` to the first item being accepted.
fn setup_s(p: &Prepared) -> Result<f64, qf_pipeline::PipelineError> {
    let first = p.items()[0];
    let ns = match p.workload.drive {
        Loop::Filter => {
            let t0 = Instant::now();
            let mut filter = p.build();
            filter.insert_batch(&[first], &mut |_, _| {});
            let ns = t0.elapsed().as_nanos() as f64;
            black_box(filter);
            ns
        }
        Loop::Pipeline(mode) => pipeline::setup_ns(p.pipeline_config(), mode, first)?,
    };
    Ok(ns / 1e9)
}

/// Sort `values` (so that percentiles can be read from them) and describe
/// their spread.
fn spread_line(values: &mut [f64], unit: &str) -> String {
    values.sort_by(f64::total_cmp);
    let q = |p| percentile_sorted(values, p);
    format!(
        "min {:.3} q1 {:.3} median {:.3} q3 {:.3} max {:.3} {unit} (n={})",
        q(0.0),
        q(25.0),
        q(50.0),
        q(75.0),
        q(100.0),
        values.len()
    )
}

/// Median of one pass's report latencies.
fn p50(latencies: &[f64]) -> f64 {
    median(&mut latencies.to_vec())
}

/// Print the highest percentile of `latencies` that has ten samples beyond
/// it; returns the p99.
fn print_tail(mut latencies: Vec<f64>) -> f64 {
    latencies.sort_by(f64::total_cmp);
    let n = latencies.len();
    if let Some(tail) = tail_percentile(n) {
        println!(
            "latency tail: p{tail} = {:.3} us, max = {:.3} us (n={n})",
            percentile_sorted(&latencies, tail),
            latencies.last().copied().unwrap_or(0.0)
        );
    }
    percentile_sorted(&latencies, 99.0)
}

fn mops(items: usize, ns: f64) -> f64 {
    if ns > 0.0 {
        items as f64 / ns * 1e3
    } else {
        0.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The untraced run: every end-to-end metric.
fn end_to_end(
    p: &Prepared,
    budget: Duration,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), qf_pipeline::PipelineError> {
    let n = p.items().len();
    let (mut setups, mut throughput, mut p50s) = (Vec::new(), Vec::new(), Vec::new());
    let mut latencies = Vec::new();
    let mut reported: Option<HashSet<u64>> = None;
    let start = Instant::now();
    while throughput.len() < 3 || start.elapsed() < budget {
        // Set-ups are spread over the run, so that they sample the same
        // host conditions as the passes.
        for _ in 0..SETUPS_PER_PASS {
            setups.push(setup_s(p)?);
        }
        let (ns, pass_latencies, keys, failed) = match p.workload.drive {
            Loop::Filter => {
                let pass = filter_pass(p, BATCH, false);
                let failed = mismatches(&pass.reports, &p.reference);
                let keys: Vec<u64> = pass.reports.iter().map(|&(i, _)| p.items()[i].0).collect();
                (pass.ns, pass.latencies_us, keys, failed)
            }
            Loop::Pipeline(mode) => {
                let ep = pipeline::run(p.pipeline_config(), mode, p.items(), &p.reference, false)?;
                (ep.wall_ns, ep.latencies_us, ep.reported, ep.failed)
            }
        };
        throughput.push(mops(n, ns));
        p50s.push(p50(&pass_latencies));
        latencies.extend(pass_latencies);
        tally.attempted += n as u64;
        tally.failed += failed;
        reported.get_or_insert_with(|| keys.into_iter().collect());
    }
    let runs = throughput.len();
    println!("passes: {}", spread_line(&mut throughput, "Mops"));
    m.put(
        "throughput_mops",
        percentile_sorted(&throughput, 95.0),
        "Mops",
        format!("95th percentile of {runs} passes of {n} items"),
    );
    let samples = latencies.len();
    println!("per-pass p50 latency: {}", spread_line(&mut p50s, "us"));
    m.put(
        "report_latency_p50_us",
        percentile_sorted(&p50s, 5.0),
        "us",
        format!("5th percentile of {runs} per-pass medians, {samples} reports"),
    );
    print_tail(latencies);
    let reported = reported.unwrap_or_default();
    let (precision, recall) = precision_recall(&reported, &p.exact);
    let keys = format!(
        "{} reported keys, {} exact keys",
        reported.len(),
        p.exact.len()
    );
    m.put("recall", recall, "frac", &keys);
    m.put("precision", precision, "frac", &keys);
    m.put("memory_bytes", p.build().memory_bytes() as f64, "B", 1);
    let count = setups.len();
    m.put(
        "setup_s",
        median(&mut setups),
        "s",
        format!("median of {count}"),
    );
    Ok(())
}

/// The traced run: every per-layer metric.
fn per_layer(
    p: &Prepared,
    budget: Duration,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), qf_pipeline::PipelineError> {
    let n = p.items().len();
    let nf = n as f64;
    let start = Instant::now();

    // The insert ledger; the filter's own loop, plain and traced; and the
    // worker's 256-item `insert_batch` calls.
    let proto = p.build();
    let ledger = Ledger::replay(&proto, FILTER_SEED, p.items());
    tally.failed += mismatches(&ledger.reports, &p.reference);
    let mut scratch = (Vec::new(), Vec::new());
    let (mut stages, mut plain, mut traced_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut slab_ns = Vec::new();
    let mut plain_latencies = Vec::new();
    let mut sealed = None;
    let ledger_budget = budget.mul_f64(LEDGER_SHARE);
    while stages.len() < 3 || start.elapsed() < ledger_budget {
        stages.push(ledger.time_stages(&mut scratch));
        let pass = filter_pass(p, BATCH, false);
        tally.failed += mismatches(&pass.reports, &p.reference);
        plain.push(pass.ns);
        if matches!(p.workload.drive, Loop::Filter) {
            plain_latencies.extend(pass.latencies_us);
        }
        let traced = filter_pass(p, BATCH, true);
        tally.failed += mismatches(&traced.reports, &p.reference);
        traced_ns.push(traced.ns);
        let worker = filter_pass(p, SLAB, true);
        tally.failed += mismatches(&worker.reports, &p.reference);
        slab_ns.extend(worker.call_ns);
        sealed.get_or_insert(worker.filter);
        tally.attempted += 3 * n as u64;
    }
    let reps = stages.len();
    let stage =
        |f: fn(&ledger::StageTimes) -> f64| median(&mut stages.iter().map(f).collect::<Vec<_>>());
    let (hash, round) = (stage(|s| s.hash), stage(|s| s.round));
    let (candidate, vague, election) = (
        stage(|s| s.candidate),
        stage(|s| s.vague),
        stage(|s| s.election),
    );
    let sum = stage(|s| s.sum());
    let filter_ns = median(&mut plain);
    let visits = ledger.visits();
    let reps_of = |what: &str| format!("median of {reps} replays, {what}");
    m.put(
        "hash.ns_per_item",
        hash / nf,
        "ns",
        reps_of(&format!("{n} items")),
    );
    m.put(
        "round.ns_per_item",
        round / nf,
        "ns",
        reps_of(&format!("{n} items")),
    );
    m.put(
        "candidate.ns_per_item",
        candidate / nf,
        "ns",
        reps_of(&format!("{n} items")),
    );
    m.put(
        "candidate.hit_frac",
        ratio(ledger.candidate_hits as f64, nf),
        "frac",
        n,
    );
    m.put(
        "vague.ns_per_visit",
        ratio(vague, visits as f64),
        "ns",
        reps_of(&format!("{visits} visits")),
    );
    m.put("vague.visit_frac", ratio(visits as f64, nf), "frac", n);
    let exchanges = ledger.exchanges as f64;
    m.put(
        "election.ns_per_exchange",
        ratio(election, exchanges),
        "ns",
        reps_of(&format!("{exchanges} exchanges")),
    );
    m.put(
        "election.win_frac",
        ratio(exchanges, ledger.elections as f64),
        "frac",
        ledger.elections,
    );
    let vague_reports = ledger
        .reports
        .iter()
        .filter(|(_, r)| r.source == quantile_filter::ReportSource::Vague)
        .count();
    m.put("report.count", ledger.reports.len() as f64, "count", 1);
    m.put(
        "report.vague_frac",
        ratio(vague_reports as f64, ledger.reports.len() as f64),
        "frac",
        ledger.reports.len(),
    );
    m.put(
        "filter.ns_per_item",
        filter_ns / nf,
        "ns",
        format!("median of {reps} passes"),
    );
    m.put(
        "ledger.stage_sum_ns_per_item",
        sum / nf,
        "ns",
        format!("median of {reps} replays"),
    );
    m.put(
        "ledger.residual_frac",
        ratio((filter_ns - sum).abs(), filter_ns),
        "frac",
        reps,
    );
    let slabs = slab_ns.len();
    m.put(
        "worker.ns_per_slab",
        median(&mut slab_ns),
        "ns",
        format!("median of {slabs} slabs"),
    );

    // A filter in the run's state, sealed as the supervisor seals it.
    let sealed = sealed.unwrap_or(proto);
    let mut seal_us: Vec<f64> = (0..21)
        .map(|_| {
            let t0 = Instant::now();
            black_box(sealed.snapshot());
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    let seal_us = median(&mut seal_us);

    // Pipeline episodes, plain and traced, in the workload's own mode; the
    // filter workloads use an unsupervised closed loop.
    let mode = match p.workload.drive {
        Loop::Pipeline(mode) => mode,
        Loop::Filter => Mode {
            supervised: false,
            rate_mops: None,
        },
    };
    let (mut plain_mops, mut traced_mops) = (Vec::new(), Vec::new());
    let mut traced_eps: Vec<Episode> = Vec::new();
    while traced_eps.len() < 3 || start.elapsed() < budget {
        let ep = pipeline::run(p.pipeline_config(), mode, p.items(), &p.reference, false)?;
        plain_mops.push(mops(n, ep.wall_ns));
        tally.failed += ep.failed;
        if matches!(p.workload.drive, Loop::Pipeline(_)) {
            plain_latencies.extend(ep.latencies_us);
        }
        let ep = pipeline::run(p.pipeline_config(), mode, p.items(), &p.reference, true)?;
        traced_mops.push(mops(n, ep.wall_ns));
        tally.failed += ep.failed;
        tally.attempted += 2 * n as u64;
        traced_eps.push(ep);
    }
    let eps = traced_eps.len();
    let sum_of = |f: fn(&Episode) -> f64| traced_eps.iter().map(f).sum::<f64>();
    let calls = sum_of(|e| e.layers.router_calls as f64);
    m.put(
        "router.ns_per_item",
        ratio(sum_of(|e| e.layers.router_ns), calls),
        "ns",
        format!("{calls} calls"),
    );
    m.put(
        "router.slow_call_frac",
        ratio(sum_of(|e| e.layers.slow_calls as f64), calls),
        "frac",
        format!("{calls} calls"),
    );
    let mut backlog: Vec<f64> = traced_eps
        .iter()
        .flat_map(|e| e.layers.backlog.iter().copied())
        .collect();
    backlog.sort_by(f64::total_cmp);
    m.put(
        "ring.backlog_slabs_p50",
        percentile_sorted(&backlog, 50.0),
        "slabs",
        backlog.len(),
    );
    m.put(
        "ring.backlog_slabs_p99",
        percentile_sorted(&backlog, 99.0),
        "slabs",
        backlog.len(),
    );
    let buffered_samples = sum_of(|e| e.layers.buffered_samples as f64);
    m.put(
        "router.buffered_items",
        ratio(sum_of(|e| e.layers.buffered_sum), buffered_samples),
        "items",
        buffered_samples,
    );
    let polls = sum_of(|e| e.layers.polls as f64);
    m.put(
        "sink.ns_per_poll",
        ratio(sum_of(|e| e.layers.sink_ns), polls),
        "ns",
        format!("{polls} polls"),
    );
    let mut drain_ms: Vec<f64> = traced_eps.iter().map(|e| e.layers.drain_ns / 1e6).collect();
    m.put(
        "drain.ms",
        median(&mut drain_ms),
        "ms",
        format!("median of {eps} episodes"),
    );
    let interval = qf_pipeline::SupervisorConfig::default().checkpoint_interval;
    let seals = if mode.supervised {
        (n as u64 / interval) as f64
    } else {
        0.0
    };
    let mut wall_ns: Vec<f64> = traced_eps.iter().map(|e| e.wall_ns).collect();
    m.put(
        "checkpoint.seal_us",
        seal_us,
        "us",
        "median of 21 snapshots",
    );
    m.put(
        "checkpoint.seals",
        seals,
        "count",
        format!("per episode of {n} items"),
    );
    m.put(
        "checkpoint.share",
        ratio(seals * seal_us * 1e3, median(&mut wall_ns)),
        "frac",
        eps,
    );
    let mut late = LogHist::default();
    for e in &traced_eps {
        late.merge(&e.lateness);
    }
    m.put(
        "gen.late_p99_us",
        late.percentile(99.0) as f64 / 1e3,
        "us",
        late.total(),
    );
    m.put(
        "gen.late_max_us",
        late.max() as f64 / 1e3,
        "us",
        late.total(),
    );

    let samples = plain_latencies.len();
    m.put(
        "report_latency_p99_us",
        print_tail(plain_latencies),
        "us",
        format!("{samples} reports, untraced passes"),
    );

    // Tracing overhead on the workload's own loop.
    let (mut untraced, mut traced) = match p.workload.drive {
        Loop::Filter => (
            plain.iter().map(|&ns| mops(n, ns)).collect::<Vec<_>>(),
            traced_ns.iter().map(|&ns| mops(n, ns)).collect::<Vec<_>>(),
        ),
        Loop::Pipeline(_) => (plain_mops, traced_mops),
    };
    let (u, t) = (median(&mut untraced), median(&mut traced));
    m.put("trace.untraced_mops", u, "Mops", untraced.len());
    m.put("trace.traced_mops", t, "Mops", traced.len());
    m.put(
        "trace.overhead_frac",
        ratio(u - t, u),
        "frac",
        untraced.len(),
    );
    Ok(())
}

/// A JSON number with every digit the measurement has.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qf-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let trace = trace::generate(w.model, TRACE_LEN, args.seed);
    println!(
        "workload: {} ({:?} trace, {} KiB, {:?})",
        w.name,
        w.model,
        w.memory_bytes / 1024,
        w.drive
    );
    println!(
        "trace: seed={} items={} keys={} digest={:#018x}",
        args.seed,
        trace.items.len(),
        trace.keys,
        trace.digest
    );
    let prepared = {
        let mut reference_filter = QuantileFilterBuilder::new(criteria())
            .memory_budget_bytes(w.memory_bytes)
            .seed(FILTER_SEED)
            .build();
        Prepared {
            workload: w,
            reference: reference_reports(&mut reference_filter, &trace.items),
            exact: exact_keys(criteria(), &trace.items),
            trace,
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let mut metrics = Metrics::default();
    let mut tally = Tally::default();
    let run = if args.traced {
        per_layer(&prepared, budget, &mut metrics, &mut tally)
    } else {
        end_to_end(&prepared, budget, &mut metrics, &mut tally)
    };
    if let Err(e) = run {
        eprintln!("qf-perfbench: pipeline error: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "checks: failed_ops_frac={} ({} failed of {} attempted; exact detector, report sequences, conservation laws)",
        json_number(ratio(tally.failed as f64, tally.attempted as f64)),
        tally.failed,
        tally.attempted
    );
    for (name, value, unit, samples) in &metrics.0 {
        println!(
            "metric: {name} = {} {unit} ({samples})",
            json_number(*value)
        );
    }
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit, _)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
