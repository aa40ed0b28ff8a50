//! The periodic reporter: telemetry sidecars next to eval results.
//!
//! A [`PeriodicReporter`] owns a path *prefix* and writes two files,
//! `<prefix>.metrics.json` and `<prefix>.metrics.prom`, atomically
//! (write-to-temp + rename) so a Prometheus textfile collector or a
//! results-ingesting script never observes a half-written snapshot.
//! [`PeriodicReporter::tick`] is designed to be called from inside a
//! streaming loop: it is a single `Instant` comparison until the interval
//! elapses, then one snapshot + two file writes. The owner writes the
//! end-of-run state with [`PeriodicReporter::flush`].

use crate::export::{to_json, to_prometheus};
use crate::registry::MetricsSnapshot;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Writes `<prefix>.metrics.{json,prom}` sidecars, rate-limited.
#[derive(Debug)]
pub struct PeriodicReporter {
    prefix: PathBuf,
    interval: Duration,
    last: Instant,
    writes: u64,
}

impl PeriodicReporter {
    /// Report to `<prefix>.metrics.json` / `.prom` at most every
    /// `interval` (the first [`tick`](Self::tick) after construction
    /// waits a full interval; use [`flush`](Self::flush) for an
    /// unconditional write).
    pub fn new(prefix: impl Into<PathBuf>, interval: Duration) -> Self {
        Self {
            prefix: prefix.into(),
            interval,
            last: Instant::now(),
            writes: 0,
        }
    }

    /// Path of the JSON sidecar.
    pub fn json_path(&self) -> PathBuf {
        sidecar_path(&self.prefix, "metrics.json")
    }

    /// Path of the Prometheus text sidecar.
    pub fn prom_path(&self) -> PathBuf {
        sidecar_path(&self.prefix, "metrics.prom")
    }

    /// Number of snapshots written so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Write the sidecars if the interval has elapsed. `snap` is only
    /// invoked when a write actually happens, so the caller can pass a
    /// closure that captures registry deltas lazily. Returns whether a
    /// write occurred.
    pub fn tick(&mut self, snap: impl FnOnce() -> MetricsSnapshot) -> io::Result<bool> {
        if self.last.elapsed() < self.interval {
            return Ok(false);
        }
        self.flush(&snap())?;
        Ok(true)
    }

    /// Unconditionally write both sidecars (the end-of-run flush).
    pub fn flush(&mut self, snap: &MetricsSnapshot) -> io::Result<()> {
        write_atomic(&self.json_path(), to_json(snap).as_bytes())?;
        write_atomic(&self.prom_path(), to_prometheus(snap).as_bytes())?;
        self.last = Instant::now();
        self.writes += 1;
        Ok(())
    }
}

fn sidecar_path(prefix: &Path, ext: &str) -> PathBuf {
    let mut os = prefix.as_os_str().to_os_string();
    os.push(".");
    os.push(ext);
    PathBuf::from(os)
}

fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            fs::create_dir_all(dir)?;
        }
    }
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::QfMetrics;

    fn scratch_prefix(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("qf_telemetry_test_{}_{tag}", std::process::id()))
    }

    #[test]
    fn flush_writes_both_sidecars() {
        let m = QfMetrics::new();
        m.insert_latency_ns.record(9);
        let prefix = scratch_prefix("flush");
        let mut rep = PeriodicReporter::new(&prefix, Duration::from_secs(3600));
        rep.flush(&m.snapshot()).unwrap();
        let json = fs::read_to_string(rep.json_path()).unwrap();
        let prom = fs::read_to_string(rep.prom_path()).unwrap();
        assert!(json.contains("\"qf_insert_latency_ns\": {\"count\": 1"));
        assert!(prom.contains("qf_insert_latency_ns_count 1"));
        assert_eq!(rep.writes(), 1);
        let _ = fs::remove_file(rep.json_path());
        let _ = fs::remove_file(rep.prom_path());
    }

    #[test]
    fn tick_respects_interval_then_fires() {
        let m = QfMetrics::new();
        let prefix = scratch_prefix("tick");
        let mut rep = PeriodicReporter::new(&prefix, Duration::from_millis(30));
        assert!(!rep.tick(|| m.snapshot()).unwrap(), "fired too early");
        std::thread::sleep(Duration::from_millis(40));
        assert!(
            rep.tick(|| m.snapshot()).unwrap(),
            "did not fire after interval"
        );
        assert!(
            !rep.tick(|| m.snapshot()).unwrap(),
            "rate limit reset failed"
        );
        let _ = fs::remove_file(rep.json_path());
        let _ = fs::remove_file(rep.prom_path());
    }

    #[test]
    fn sidecar_paths_append_not_replace_extension() {
        let rep = PeriodicReporter::new("results/detect-qf.run1", Duration::ZERO);
        assert_eq!(
            rep.json_path(),
            PathBuf::from("results/detect-qf.run1.metrics.json")
        );
        assert_eq!(
            rep.prom_path(),
            PathBuf::from("results/detect-qf.run1.metrics.prom")
        );
    }
}
