//! Exporters: Prometheus text format and a JSON snapshot dump.
//!
//! Both render a [`MetricsSnapshot`], so they are pure functions of data
//! already copied out of the atomics — exporting never blocks or perturbs
//! the hot path. JSON is written by hand (the workspace is offline and
//! vendors no `serde_json`); the emitted subset is deliberately tiny:
//! objects, strings, integers, and floats only.
//!
//! ## Prometheus text format
//!
//! Histograms become classic cumulative-bucket families:
//! `<name>_bucket{le="…"}`, `<name>_sum`, `<name>_count`, plus
//! precomputed `<name>{quantile="…"}` summary samples for p50/p95/p99 so
//! dashboards work without `histogram_quantile()`. Meta annotations are
//! emitted as `# qf_meta key value` comments.
//!
//! ## JSON layout
//!
//! ```json
//! {
//!   "meta": {"detector": "QuantileFilter"},
//!   "histograms": {
//!     "qf_insert_latency_ns": {
//!       "count": 57, "sum": 12345, "max": 999, "mean": 216.6,
//!       "p50": 207, "p95": 831, "p99": 991
//!     }
//!   }
//! }
//! ```

use crate::histogram::{bucket_upper, HistogramSnapshot};
use crate::registry::MetricsSnapshot;
use std::fmt::Write as _;

/// Quantiles both exporters precompute for every histogram.
pub const EXPORT_QUANTILES: [(f64, &str); 3] = [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99")];

/// Render a snapshot in the Prometheus text exposition format.
pub fn to_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(4096);
    for (k, v) in &snap.meta {
        let _ = writeln!(out, "# qf_meta {k} {v}");
    }
    for (name, h) in &snap.histograms {
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (i, &c) in h.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cumulative += c;
            let _ = writeln!(
                out,
                "{name}_bucket{{le=\"{}\"}} {cumulative}",
                bucket_upper(i)
            );
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
        let _ = writeln!(out, "{name}_sum {}", h.sum);
        let _ = writeln!(out, "{name}_count {}", h.count());
        for &(q, label) in &EXPORT_QUANTILES {
            let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {}", h.quantile(q));
        }
        let _ = writeln!(out, "{name}_max {}", h.max);
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn histogram_json(h: &HistogramSnapshot) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"count\": {}, \"sum\": {}, \"max\": {}, \"mean\": {:.3}",
        h.count(),
        h.sum,
        h.max,
        h.mean()
    );
    for &(q, _) in &EXPORT_QUANTILES {
        let key = format!("p{:.0}", q * 100.0);
        let _ = write!(out, ", \"{key}\": {}", h.quantile(q));
    }
    out.push('}');
    out
}

/// Render a snapshot as a JSON object (see module docs for the layout).
pub fn to_json(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n  \"meta\": {");
    for (i, (k, v)) in snap.meta.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{}\": \"{}\"", json_escape(k), json_escape(v));
    }
    out.push_str("},\n  \"histograms\": {");
    for (i, (name, h)) in snap.histograms.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    \"{}\": {}",
            json_escape(name),
            histogram_json(h)
        );
    }
    out.push_str("\n  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::QfMetrics;

    fn sample_snapshot() -> MetricsSnapshot {
        let m = QfMetrics::new();
        for v in 1..=100u64 {
            m.insert_latency_ns.record(v * 10);
        }
        m.snapshot().with_meta("detector", "QuantileFilter")
    }

    #[test]
    fn prometheus_has_types_samples_and_meta() {
        let text = to_prometheus(&sample_snapshot());
        assert!(text.contains("# qf_meta detector QuantileFilter"));
        assert_eq!(
            text.matches("# TYPE qf_insert_latency_ns histogram")
                .count(),
            1
        );
        assert!(text.contains("qf_insert_latency_ns_bucket{le=\"+Inf\"} 100"));
        assert!(text.contains("qf_insert_latency_ns_count 100"));
        assert!(text.contains("qf_insert_latency_ns{quantile=\"0.95\"}"));
    }

    #[test]
    fn prometheus_buckets_are_cumulative_and_sorted() {
        let text = to_prometheus(&sample_snapshot());
        let mut last_le = 0u64;
        let mut last_cum = 0u64;
        for line in text
            .lines()
            .filter(|l| l.starts_with("qf_insert_latency_ns_bucket{le=\"") && !l.contains("+Inf"))
        {
            let le: u64 = line.split('"').nth(1).unwrap().parse().unwrap();
            let cum: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(le > last_le, "buckets out of order: {line}");
            assert!(cum >= last_cum, "counts not cumulative: {line}");
            last_le = le;
            last_cum = cum;
        }
        assert!(last_cum == 100);
    }

    #[test]
    fn json_is_structurally_sound() {
        let json = to_json(&sample_snapshot());
        // Balanced braces and the expected keys, without a JSON parser.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"meta\": {"));
        assert!(json.contains("\"detector\": \"QuantileFilter\""));
        assert!(json.contains("\"qf_insert_latency_ns\": {\"count\": 100"));
        assert!(json.contains("\"p50\":"));
        assert!(json.contains("\"p95\":"));
        assert!(json.contains("\"p99\":"));
        assert!(!json.contains(",,"));
    }

    #[test]
    fn empty_snapshot_exports_cleanly() {
        let m = QfMetrics::new();
        let snap = m.snapshot();
        let text = to_prometheus(&snap);
        assert!(text.contains("qf_insert_latency_ns_count 0"));
        let json = to_json(&snap);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
