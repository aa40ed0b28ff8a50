//! Telemetry-aware detector runs: sampled insert-latency spans, periodic
//! sidecar flushes, and a per-run [`MetricsSnapshot`] delta.
//!
//! [`run_detector_telemetered`] wraps the plain
//! [`run_detector`](crate::runner::run_detector) loop with three additions:
//!
//! 1. **Sampled latency spans.** One insert in every
//!    2^[`TelemetryConfig::sample_shift`] is timed with `Instant` and the
//!    nanoseconds recorded into the global `qf_insert_latency_ns`
//!    histogram. Sampling keeps the timing overhead off the other 15/16 of
//!    the stream, so the run's wall-clock MOPS stays representative.
//! 2. **Periodic sidecars.** If a [`PeriodicReporter`] is configured, it is
//!    ticked every [`TICK_STRIDE`] items, emitting
//!    `<prefix>.metrics.{json,prom}` mid-run for live scraping, and flushed
//!    unconditionally at the end of the run.
//! 3. **Per-run isolation.** The global registry is process-wide and
//!    cumulative; this runner snapshots it before the loop and returns
//!    `after.delta_since(&before)`, so the caller sees only this run's
//!    samples even when several runs share the process.
//!
//! The snapshot carries the latency histogram plus the run's meta
//! (detector, items, seconds, Mops, memory, sample rate). A filter's
//! per-path counts are its `FilterStats`, not registry entries.

use crate::runner::RunResult;
use qf_baselines::OutstandingDetector;
use qf_datasets::Item;
use qf_telemetry::{global, MetricsSnapshot, PeriodicReporter};
use std::collections::HashSet;
use std::io;
use std::time::{Duration, Instant};

/// Reporter ticks happen every this many items — a single `Instant`
/// comparison each, so the stride only bounds tick granularity, not cost.
pub const TICK_STRIDE: usize = 4096;

/// How a telemetered run samples latency and emits sidecars.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Time one insert in every `2^sample_shift` (default 4 ⇒ 1 in 16).
    pub sample_shift: u32,
    /// Sidecar path prefix (`<prefix>.metrics.json` / `.prom`), or `None`
    /// to skip file output and only return the snapshot.
    pub sidecar_prefix: Option<std::path::PathBuf>,
    /// Minimum interval between mid-run sidecar writes.
    pub report_interval: Duration,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            sample_shift: 4,
            sidecar_prefix: None,
            report_interval: Duration::from_secs(5),
        }
    }
}

impl TelemetryConfig {
    /// Config that writes sidecars under the given prefix.
    pub fn with_sidecar(prefix: impl Into<std::path::PathBuf>) -> Self {
        Self {
            sidecar_prefix: Some(prefix.into()),
            ..Self::default()
        }
    }
}

/// A [`RunResult`] plus the run's metric delta and sidecar paths.
#[derive(Debug)]
pub struct TelemeteredRun {
    /// The ordinary run outcome (reports, timing, memory).
    pub result: RunResult,
    /// This run's slice of the global registry, with meta annotations.
    pub metrics: MetricsSnapshot,
    /// Paths of the sidecars written, if a prefix was configured.
    pub sidecars: Option<(std::path::PathBuf, std::path::PathBuf)>,
}

/// Stream `items` through `detector` like
/// [`run_detector`](crate::runner::run_detector), recording sampled insert
/// latencies and (optionally) emitting telemetry sidecars.
pub fn run_detector_telemetered(
    detector: &mut dyn OutstandingDetector,
    items: &[Item],
    config: &TelemetryConfig,
) -> io::Result<TelemeteredRun> {
    let before = global().snapshot();
    let sample_mask = (1usize << config.sample_shift) - 1;
    let mut reporter = config
        .sidecar_prefix
        .as_ref()
        .map(|p| PeriodicReporter::new(p, config.report_interval));

    let mut reported = HashSet::new();
    let mut report_events = 0u64;
    let start = Instant::now();
    for (i, it) in items.iter().enumerate() {
        let hit = if i & sample_mask == 0 {
            let span = Instant::now();
            let hit = detector.insert(it.key, it.value);
            global()
                .insert_latency_ns
                .record(span.elapsed().as_nanos() as u64);
            hit
        } else {
            detector.insert(it.key, it.value)
        };
        if hit {
            report_events += 1;
            reported.insert(it.key);
        }
        if i % TICK_STRIDE == 0 {
            if let Some(rep) = reporter.as_mut() {
                rep.tick(|| global().snapshot().delta_since(&before))?;
            }
        }
    }
    let seconds = start.elapsed().as_secs_f64();

    let result = RunResult {
        reported,
        report_events,
        items: items.len(),
        seconds,
        memory_bytes: detector.memory_bytes(),
    };
    let metrics = global()
        .snapshot()
        .delta_since(&before)
        .with_meta("detector", detector.name())
        .with_meta("items", result.items)
        .with_meta("seconds", format!("{seconds:.6}"))
        .with_meta("mops", format!("{:.3}", result.mops()))
        .with_meta("memory_bytes", result.memory_bytes)
        .with_meta(
            "latency_sample_rate",
            format!("1/{}", 1usize << config.sample_shift),
        );

    let sidecars = match reporter.as_mut() {
        Some(rep) => {
            rep.flush(&metrics)?;
            Some((rep.json_path(), rep.prom_path()))
        }
        None => None,
    };

    Ok(TelemeteredRun {
        result,
        metrics,
        sidecars,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qf_baselines::QfDetector;
    use quantile_filter::Criteria;
    use std::fs;
    use std::sync::{Mutex, MutexGuard};

    // The registry is process-wide; serialize these tests so one run's
    // delta window never overlaps another test's recording.
    static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

    fn lock_registry() -> MutexGuard<'static, ()> {
        match REGISTRY_LOCK.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn items_with_one_hot_key() -> Vec<Item> {
        let mut items = Vec::new();
        for i in 0..3000u64 {
            items.push(Item {
                key: i % 50,
                value: 5.0,
            });
            if i % 10 == 0 {
                items.push(Item {
                    key: 999,
                    value: 500.0,
                });
            }
        }
        items
    }

    fn crit() -> Criteria {
        Criteria::new(5.0, 0.9, 100.0).unwrap()
    }

    #[test]
    fn telemetered_run_matches_plain_run_semantics() {
        let _g = lock_registry();
        let items = items_with_one_hot_key();
        let mut det = QfDetector::paper_default(crit(), 256 * 1024, 1);
        let plain = crate::runner::run_detector(&mut det, &items);
        let mut det2 = QfDetector::paper_default(crit(), 256 * 1024, 1);
        let tele = run_detector_telemetered(&mut det2, &items, &TelemetryConfig::default())
            .expect("no sidecar configured, no io possible");
        assert_eq!(tele.result.reported, plain.reported);
        assert_eq!(tele.result.report_events, plain.report_events);
        assert_eq!(tele.result.items, plain.items);
        assert!(tele.sidecars.is_none());
    }

    #[test]
    fn latency_histogram_sampled_at_configured_rate() {
        let _g = lock_registry();
        let items = items_with_one_hot_key();
        let mut det = QfDetector::paper_default(crit(), 64 * 1024, 2);
        let cfg = TelemetryConfig {
            sample_shift: 4,
            ..TelemetryConfig::default()
        };
        let tele = run_detector_telemetered(&mut det, &items, &cfg).unwrap();
        let hist = tele.metrics.histogram("qf_insert_latency_ns").unwrap();
        let expected = items.len().div_ceil(16) as u64;
        assert_eq!(hist.count(), expected);
        assert!(hist.quantile(0.5) > 0, "p50 of real insert latencies");
    }

    #[test]
    fn sidecars_written_and_well_formed() {
        let _g = lock_registry();
        let items = items_with_one_hot_key();
        let mut det = QfDetector::paper_default(crit(), 64 * 1024, 3);
        let prefix =
            std::env::temp_dir().join(format!("qf_eval_sidecar_test_{}", std::process::id()));
        let cfg = TelemetryConfig::with_sidecar(&prefix);
        let tele = run_detector_telemetered(&mut det, &items, &cfg).unwrap();
        let (json_path, prom_path) = tele.sidecars.expect("sidecar prefix was configured");
        let json = fs::read_to_string(&json_path).unwrap();
        let prom = fs::read_to_string(&prom_path).unwrap();
        assert!(json.contains("\"qf_insert_latency_ns\""));
        assert!(json.contains("\"detector\""));
        assert!(prom.contains("# TYPE qf_insert_latency_ns histogram"));
        assert!(prom.contains("qf_insert_latency_ns_bucket{le=\"+Inf\"}"));
        let _ = fs::remove_file(json_path);
        let _ = fs::remove_file(prom_path);
    }
}
