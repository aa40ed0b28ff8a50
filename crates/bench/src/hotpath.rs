//! The hot-path harness behind the `hotpath` bin.
//!
//! It times [`QuantileFilter::insert`] against [`QuantileFilter::insert_batch`]
//! on the same trace and the same filter. The two paths make bit-identical
//! report decisions (pinned by the `batch_equivalence` suite), so the
//! comparison measures the insert flow and nothing else, and any report
//! count that differs between them is a bug the bin refuses to publish.
//!
//! The harness reports best-of-`repeats` wall-clock throughput in Mops/s
//! (million inserts per second) and renders the whole run as the
//! `BENCH_hotpath.json` schema documented on [`render_json`].

use quantile_filter::{Criteria, QuantileFilter, QuantileFilterBuilder};
use std::hint::black_box;
use std::time::Instant;

/// Structure dimensions of the measured filter, fixed rather than derived
/// from a byte budget so every run measures the same geometry.
#[derive(Debug, Clone, Copy)]
pub struct HotpathDims {
    /// Candidate buckets `m`.
    pub candidate_buckets: usize,
    /// Entries per bucket `b`.
    pub bucket_len: usize,
    /// Vague-part rows `d`.
    pub vague_depth: usize,
    /// Vague-part counters per row `w`.
    pub vague_width: usize,
    /// Master seed, passed to [`QuantileFilterBuilder::seed`].
    pub seed: u64,
}

impl HotpathDims {
    /// ≈32 KiB at the paper's 4:1 candidate:vague split with b = 6, d = 3:
    /// 728 × 6 candidate entries (6 B each) plus 3 × 2184 i8 counters.
    /// Small enough to stay cache-resident, so the scalar/batch difference
    /// is hashing and arithmetic rather than DRAM.
    pub fn paper_32k(seed: u64) -> Self {
        Self {
            candidate_buckets: 728,
            bucket_len: 6,
            vague_depth: 3,
            vague_width: 2184,
            seed,
        }
    }
}

/// Build the filter with exactly the given dimensions and seed.
fn build_filter(criteria: Criteria, dims: &HotpathDims) -> QuantileFilter {
    QuantileFilterBuilder::new(criteria)
        .candidate_buckets(dims.candidate_buckets)
        .bucket_len(dims.bucket_len)
        .vague_dims(dims.vague_depth, dims.vague_width)
        .seed(dims.seed)
        .build()
}

/// One timed ingest run: item count, best wall-clock seconds, reports.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Items ingested per run.
    pub items: usize,
    /// Best-of-repeats wall-clock seconds.
    pub seconds: f64,
    /// Reports from the last repeat.
    pub reports: u64,
}

impl Measurement {
    /// Million inserts per second.
    pub fn mops(&self) -> f64 {
        if self.seconds <= 0.0 {
            return 0.0;
        }
        self.items as f64 / self.seconds / 1e6
    }
}

/// Best-of-`repeats` timing: `setup` runs untimed before each repeat (so
/// construction and allocation stay out of the measurement), `run` is the
/// timed ingest and returns its report count.
fn timed<T>(
    items_len: usize,
    repeats: usize,
    mut setup: impl FnMut() -> T,
    mut run: impl FnMut(&mut T) -> u64,
) -> Measurement {
    let mut best = f64::INFINITY;
    let mut reports = 0;
    for _ in 0..repeats.max(1) {
        let mut state = setup();
        let t0 = Instant::now();
        let r = run(&mut state);
        let dt = t0.elapsed().as_secs_f64();
        black_box(&state);
        reports = r;
        if dt < best {
            best = dt;
        }
    }
    Measurement {
        items: items_len,
        seconds: best,
        reports,
    }
}

/// Time the scalar [`QuantileFilter::insert`] over `items`.
pub fn measure_scalar(
    criteria: Criteria,
    dims: &HotpathDims,
    items: &[(u64, f64)],
    repeats: usize,
) -> Measurement {
    timed(
        items.len(),
        repeats,
        || build_filter(criteria, dims),
        |f| {
            let mut r = 0u64;
            for &(k, v) in items {
                r += u64::from(f.insert(&k, v).is_some());
            }
            r
        },
    )
}

/// Time [`QuantileFilter::insert_batch`] over `items` in `chunk`-sized
/// feeds (the chunk only bounds how far the prefetcher looks ahead; the
/// replayed stream is identical).
pub fn measure_batch(
    criteria: Criteria,
    dims: &HotpathDims,
    items: &[(u64, f64)],
    chunk: usize,
    repeats: usize,
) -> Measurement {
    timed(
        items.len(),
        repeats,
        || build_filter(criteria, dims),
        |f| {
            let mut r = 0u64;
            for part in items.chunks(chunk.max(1)) {
                f.insert_batch(part, &mut |_, _| r += 1);
            }
            r
        },
    )
}

/// All measurements taken on one trace.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Workload name ("zipf", "internet").
    pub name: String,
    /// Stream length.
    pub items: usize,
    /// Distinct keys present.
    pub keys: u64,
    /// Value threshold `T` used by the criteria.
    pub threshold: f64,
    /// Scalar [`QuantileFilter::insert`].
    pub scalar: Measurement,
    /// [`QuantileFilter::insert_batch`].
    pub batch: Measurement,
}

/// A full harness run, renderable as `BENCH_hotpath.json`.
#[derive(Debug, Clone)]
pub struct HotpathReport {
    /// "full" or "tiny" (the CI smoke mode).
    pub mode: String,
    /// `available_parallelism` of the measuring host.
    pub nproc: usize,
    /// Best-of repeats per measurement.
    pub repeats: usize,
    /// Batch feed size used by the `insert_batch` measurement.
    pub batch_chunk: usize,
    /// Per-workload results.
    pub workloads: Vec<WorkloadResult>,
}

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "0".into()
    }
}

/// Render the report as the `BENCH_hotpath.json` document:
///
/// ```json
/// {
///   "schema": "qf-bench-hotpath/v4",
///   "mode": "full",            // or "tiny" (CI smoke)
///   "nproc": 2,                // cores on the measuring host
///   "repeats": 3,              // best-of repeats per number
///   "batch_chunk": 4096,
///   "workloads": [{
///     "name": "zipf", "items": 2000000, "keys": 93269, "threshold": 300.0,
///     "scalar_mops": 14.0,     // insert()
///     "batch_mops": 16.0,      // insert_batch()
///     "batch_speedup_vs_scalar": 1.14,
///     "reports": 1234          // identical on both paths by construction
///   }]
/// }
/// ```
///
/// v4 drops v3's `legacy_*` fields and `sharded` points: the harness
/// times only the two insert paths, and multi-core scaling is the
/// pipeline bench's subject.
pub fn render_json(report: &HotpathReport) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str("{\n");
    out.push_str("  \"schema\": \"qf-bench-hotpath/v4\",\n");
    out.push_str(&format!("  \"mode\": \"{}\",\n", report.mode));
    out.push_str(&format!("  \"nproc\": {},\n", report.nproc));
    out.push_str(&format!("  \"repeats\": {},\n", report.repeats));
    out.push_str(&format!("  \"batch_chunk\": {},\n", report.batch_chunk));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in report.workloads.iter().enumerate() {
        let (scalar, batch) = (w.scalar.mops(), w.batch.mops());
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", w.name));
        out.push_str(&format!("      \"items\": {},\n", w.items));
        out.push_str(&format!("      \"keys\": {},\n", w.keys));
        out.push_str(&format!("      \"threshold\": {},\n", num(w.threshold)));
        out.push_str(&format!("      \"scalar_mops\": {},\n", num(scalar)));
        out.push_str(&format!("      \"batch_mops\": {},\n", num(batch)));
        out.push_str(&format!(
            "      \"batch_speedup_vs_scalar\": {},\n",
            num(if scalar > 0.0 { batch / scalar } else { 0.0 })
        ));
        out.push_str(&format!("      \"reports\": {}\n", w.batch.reports));
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 < report.workloads.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qf_hash::SplitMix64;

    fn criteria() -> Criteria {
        match Criteria::new(5.0, 0.9, 100.0) {
            Ok(c) => c,
            Err(e) => panic!("criteria: {e}"),
        }
    }

    fn trace(len: usize, keys: u64, seed: u64) -> Vec<(u64, f64)> {
        let mut rng = SplitMix64::new(seed);
        (0..len)
            .map(|_| {
                let key = rng.next_u64() % keys;
                let value = if rng.next_u64() % 100 < 40 {
                    500.0
                } else {
                    5.0
                };
                (key, value)
            })
            .collect()
    }

    #[test]
    fn scalar_and_batch_measurements_agree_on_reports() {
        let dims = HotpathDims {
            candidate_buckets: 64,
            bucket_len: 4,
            vague_depth: 3,
            vague_width: 1024,
            seed: 0xBEE,
        };
        let c = criteria();
        let items = trace(20_000, 1_500, 11);
        let scalar = measure_scalar(c, &dims, &items, 1);
        let batch = measure_batch(c, &dims, &items, 4096, 1);
        assert!(scalar.reports > 0);
        assert_eq!(scalar.reports, batch.reports);
        assert_eq!(scalar.items, 20_000);
    }

    #[test]
    fn rendered_json_is_balanced_and_complete() {
        let m = Measurement {
            items: 1000,
            seconds: 0.001,
            reports: 5,
        };
        let workload = |name: &str| WorkloadResult {
            name: name.into(),
            items: 1000,
            keys: 100,
            threshold: 300.0,
            scalar: m,
            batch: m,
        };
        let report = HotpathReport {
            mode: "tiny".into(),
            nproc: 1,
            repeats: 1,
            batch_chunk: 4096,
            workloads: vec![workload("zipf"), workload("internet")],
        };
        let json = render_json(&report);
        for (open, close) in [('{', '}'), ('[', ']')] {
            let opens = json.matches(open).count();
            let closes = json.matches(close).count();
            assert_eq!(opens, closes, "unbalanced {open}{close} in:\n{json}");
        }
        for key in [
            "\"schema\"",
            "\"qf-bench-hotpath/v4\"",
            "\"scalar_mops\"",
            "\"batch_mops\"",
            "\"batch_speedup_vs_scalar\": 1.000",
            "\"reports\": 5",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        assert!(!json.contains("legacy") && !json.contains("sharded"));
        // No trailing commas (the classic hand-rolled-JSON bug).
        assert!(!json.contains(",\n  ]"));
        assert!(!json.contains(",}"));
    }

    #[test]
    fn measurement_mops_math() {
        let m = Measurement {
            items: 2_000_000,
            seconds: 0.5,
            reports: 0,
        };
        assert!((m.mops() - 4.0).abs() < 1e-9);
        let zero = Measurement {
            items: 10,
            seconds: 0.0,
            reports: 0,
        };
        assert_eq!(zero.mops(), 0.0);
    }
}
