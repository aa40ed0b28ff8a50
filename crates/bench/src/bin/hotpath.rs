//! Hot-path throughput harness: the scalar `insert` against the batched
//! `insert_batch` of one filter.
//!
//! ```text
//! cargo run -p qf-bench --release --bin hotpath -- \
//!     [--tiny] [--out PATH] [--repeats N] [--items N] [--seed S]
//! ```
//!
//! Measures single-thread Mops/s of both paths on Zipf, CAIDA-shaped
//! (internet-like) and many-keys Zipf traces. The two paths make
//! identical report decisions by construction, and the run exits non-zero
//! if their report counts ever differ.
//!
//! Writes the results as `BENCH_hotpath.json` (schema documented on
//! `qf_bench::hotpath::render_json`). `--tiny` is the CI smoke mode:
//! 50K-item traces, one repeat, same schema.

use qf_bench::hotpath::{
    measure_batch, measure_scalar, HotpathDims, HotpathReport, WorkloadResult,
};
use qf_bench::pipeline::detect_nproc;
use qf_datasets::{internet_like, zipf_dataset, Dataset, InternetConfig, ZipfConfig};
use quantile_filter::Criteria;

const BATCH_CHUNK: usize = 4096;

fn usage() -> ! {
    eprintln!("usage: hotpath [--tiny] [--out PATH] [--repeats N] [--items N] [--seed S]");
    std::process::exit(2)
}

fn measure_workload(
    dataset: &Dataset,
    seed: u64,
    repeats: usize,
    short_name: &str,
) -> WorkloadResult {
    let criteria = match Criteria::new(30.0, 0.95, dataset.threshold) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bad criteria for {short_name}: {e}");
            std::process::exit(1);
        }
    };
    let dims = HotpathDims::paper_32k(seed);
    let pairs: Vec<(u64, f64)> = dataset.items.iter().map(|it| (it.key, it.value)).collect();

    let scalar = measure_scalar(criteria, &dims, &pairs, repeats);
    let batch = measure_batch(criteria, &dims, &pairs, BATCH_CHUNK, repeats);
    if scalar.reports != batch.reports {
        eprintln!(
            "report-count divergence on {short_name}: scalar={} batch={} — \
             the two paths are not running the same filter",
            scalar.reports, batch.reports
        );
        std::process::exit(1);
    }
    println!(
        "{short_name}: scalar {:.2} Mops | batch {:.2} Mops ({:.2}x) | {} reports",
        scalar.mops(),
        batch.mops(),
        batch.mops() / scalar.mops(),
        batch.reports,
    );

    WorkloadResult {
        name: short_name.to_string(),
        items: dataset.items.len(),
        keys: dataset.key_count,
        threshold: dataset.threshold,
        scalar,
        batch,
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut tiny = false;
    let mut out = "BENCH_hotpath.json".to_string();
    let mut repeats: Option<usize> = None;
    let mut items: Option<usize> = None;
    let mut seed = 0xB127_0001u64;

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
            "--seed" => {
                seed = val(i).parse().unwrap_or_else(|_| usage());
                i += 1;
            }
            _ => usage(),
        }
        i += 1;
    }

    let repeats = repeats.unwrap_or(if tiny { 1 } else { 3 });
    let nproc = detect_nproc();

    // The third trace is the paper's many-keys Zipf variant (§V-A): far
    // more keys than candidate slots, so nearly every insert exercises the
    // vague part — the regime the one-pass rewrite targets.
    let (zipf_cfg, internet_cfg, many_cfg) = if tiny {
        (
            ZipfConfig::tiny(),
            InternetConfig::tiny(),
            ZipfConfig {
                keys: 200_000,
                ..ZipfConfig::tiny()
            },
        )
    } else {
        (
            ZipfConfig::default(),
            InternetConfig::default(),
            ZipfConfig::many_keys(),
        )
    };
    let (zipf_cfg, internet_cfg, many_cfg) = match items {
        Some(n) => (
            ZipfConfig {
                items: n,
                ..zipf_cfg
            },
            InternetConfig {
                items: n,
                ..internet_cfg
            },
            ZipfConfig {
                items: n,
                ..many_cfg
            },
        ),
        None => (zipf_cfg, internet_cfg, many_cfg),
    };

    println!(
        "hotpath: mode={} repeats={repeats} nproc={nproc}",
        if tiny { "tiny" } else { "full" }
    );
    let zipf = zipf_dataset(&zipf_cfg);
    let internet = internet_like(&internet_cfg);
    let many = zipf_dataset(&many_cfg);
    println!(
        "traces: zipf {} items / {} keys; internet {} items / {} keys; zipf-many {} items / {} keys",
        zipf.items.len(),
        zipf.key_count,
        internet.items.len(),
        internet.key_count,
        many.items.len(),
        many.key_count
    );

    let workloads = vec![
        measure_workload(&zipf, seed, repeats, "zipf"),
        measure_workload(&internet, seed, repeats, "internet"),
        measure_workload(&many, seed, repeats, "zipf-many"),
    ];

    let report = HotpathReport {
        mode: if tiny { "tiny" } else { "full" }.to_string(),
        nproc,
        repeats,
        batch_chunk: BATCH_CHUNK,
        workloads,
    };
    let json = qf_bench::hotpath::render_json(&report);
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");
}
