//! qf-ops: a live operations endpoint for the supervised pipeline.
//!
//! One background thread, one `std::net::TcpListener`, zero
//! dependencies — the same hand-rolled discipline as the rest of the
//! workspace. [`OpsServer::start`] takes an [`OpsView`] detached from a
//! running [`qf_pipeline::Pipeline`] and serves:
//!
//! | route            | body                                              |
//! |------------------|---------------------------------------------------|
//! | `/metrics`       | per-shard counts, Prometheus text exposition      |
//! | `/metrics.json`  | the same counts as JSON                           |
//! | `/health`        | per-shard supervision state (JSON)                |
//! | `/flight?shard=N`| shard `N`'s flight recorder as `qf-flight/v1`     |
//!
//! `/metrics` serves one sample per shard of every family in [`SERIES`],
//! labelled `shard="N"`; the shard set is fixed at launch, so the label
//! vocabulary is closed. The counts are the ones the pipeline keeps per
//! shard anyway ([`OpsView::counts`]): the router's, stored on the
//! shard's board once per slab handoff, drop or rejection, and the
//! worker's, copied under its commit lock — one lock per shard per
//! scrape. `/metrics` and `/health` work in every build; `/flight`
//! answers 404 unless the `trace` feature compiled the flight recorders
//! in.
//!
//! The HTTP dialect is deliberately minimal: `GET` only, `HTTP/1.1`,
//! `Connection: close` on every response, no keep-alive, no TLS. This is
//! an operational side-door for `curl` and scrapers on a trusted
//! network, not a web framework.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(missing_docs)]

use qf_pipeline::{OpsView, ShardCounts};
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Cap on request bytes read before answering; anything longer than a
/// header block this size is not a request this server understands.
const MAX_REQUEST_BYTES: usize = 16 * 1024;

/// Accept-loop poll interval while idle (the listener is non-blocking so
/// the stop flag is observed promptly).
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Reads one sample of a family from a shard's counts.
type Sample = fn(&ShardCounts) -> u64;

/// The families `/metrics` serves, in exposition order: name, Prometheus
/// type, and the count each shard's sample reads. DESIGN.md §9 gives
/// each one's source and when it updates.
pub const SERIES: [(&str, &str, Sample); 15] = [
    ("qf_pipeline_enqueued_total", "counter", |c| {
        c.accounting.enqueued
    }),
    ("qf_pipeline_dropped_total", "counter", |c| {
        c.accounting.dropped
    }),
    ("qf_pipeline_shard_down_rejected_total", "counter", |c| {
        c.accounting.rejected
    }),
    ("qf_pipeline_processed_total", "counter", |c| {
        c.accounting.processed
    }),
    ("qf_pipeline_shed_oldest_total", "counter", |c| {
        c.accounting.shed
    }),
    ("qf_pipeline_reports_total", "counter", |c| {
        c.accounting.reports
    }),
    ("qf_pipeline_checkpoint_seal_total", "counter", |c| {
        c.checkpoint_seals
    }),
    ("qf_candidate_hits_total", "counter", |c| {
        c.stats.candidate_hits
    }),
    ("qf_candidate_inserts_total", "counter", |c| {
        c.stats.candidate_inserts
    }),
    ("qf_candidate_bucket_full_total", "counter", |c| {
        c.stats.vague_visits
    }),
    ("qf_candidate_evictions_total", "counter", |c| {
        c.stats.exchanges
    }),
    ("qf_pipeline_restarts_total", "counter", |c| {
        c.accounting.restarts
    }),
    ("qf_pipeline_lost_total", "counter", |c| c.accounting.lost),
    ("qf_pipeline_replayed_items_total", "counter", |c| {
        c.replayed
    }),
    ("qf_pipeline_shard_state", "gauge", |c| {
        c.accounting.state.code().unsigned_abs()
    }),
];

/// The `/metrics` body: every family under one `# TYPE` line, one
/// `shard="N"` sample per shard.
pub fn metrics_text(view: &OpsView) -> String {
    let counts = view.counts();
    let mut out = String::with_capacity(64 * SERIES.len() * (counts.len() + 1));
    for (name, kind, sample) in SERIES {
        let _ = writeln!(out, "# TYPE {name} {kind}");
        for c in &counts {
            let _ = writeln!(out, "{name}{{shard=\"{}\"}} {}", c.shard, sample(c));
        }
    }
    out
}

/// The `/metrics.json` body: each family's samples as an array indexed by
/// shard.
pub fn metrics_json(view: &OpsView) -> String {
    let counts = view.counts();
    let mut out = String::with_capacity(64 * SERIES.len() * (counts.len() + 1));
    let _ = write!(out, "{{\"shards\": {}", counts.len());
    for (name, kind, sample) in SERIES {
        let samples: Vec<String> = counts.iter().map(|c| sample(c).to_string()).collect();
        let _ = write!(
            out,
            ",\n  \"{name}\": {{\"type\": \"{kind}\", \"by_shard\": [{}]}}",
            samples.join(", ")
        );
    }
    out.push_str("\n}\n");
    out
}

/// A running ops endpoint. Dropping it (or calling
/// [`shutdown`](Self::shutdown)) stops the accept loop and joins the
/// server thread.
pub struct OpsServer {
    addr: SocketAddr,
    // sync: counter — relaxed stop latch, polled by the accept loop;
    // the `join` in `stop_and_join` is the shutdown ordering edge.
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl OpsServer {
    /// Bind `addr` (e.g. `"127.0.0.1:9898"`, or port `0` for an
    /// ephemeral port) and start serving `view` on a background thread.
    pub fn start(addr: impl ToSocketAddrs, view: OpsView) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("qf-ops".into())
            .spawn(move || accept_loop(listener, view, stop_flag))?;
        Ok(Self {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The address the server actually bound (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, join the server thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for OpsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: TcpListener, view: OpsView, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => serve_connection(stream, &view),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            // Transient accept errors (aborted handshake etc.): keep
            // serving; the endpoint outliving one bad connection is the
            // whole point.
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Handle one request on `stream`; all errors are answered or dropped,
/// never propagated (a scraper must not be able to kill the server).
fn serve_connection(mut stream: TcpStream, view: &OpsView) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let mut req = Vec::new();
    let mut buf = [0u8; 1024];
    // Read until the end of the header block; the routes take no bodies.
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                req.extend_from_slice(&buf[..n]);
                if req.windows(4).any(|w| w == b"\r\n\r\n") || req.len() > MAX_REQUEST_BYTES {
                    break;
                }
            }
            Err(_) => return,
        }
    }
    let request_line = match std::str::from_utf8(&req)
        .ok()
        .and_then(|s| s.lines().next())
    {
        Some(l) => l,
        None => return,
    };
    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m, t),
        _ => return,
    };
    let (status, content_type, body) = if method != "GET" {
        (405, "text/plain", "method not allowed\n".to_string())
    } else {
        route(target, view)
    };
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        _ => "Method Not Allowed",
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    let _ = stream.flush();
}

/// Dispatch a request target to its response. Public-in-crate shape so
/// the tests can exercise routing without sockets.
fn route(target: &str, view: &OpsView) -> (u16, &'static str, String) {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        "/metrics" => (200, "text/plain; version=0.0.4", metrics_text(view)),
        "/metrics.json" => (200, "application/json", metrics_json(view)),
        "/health" => (200, "application/json", view.health_json()),
        "/flight" => match shard_param(query) {
            None => (
                400,
                "text/plain",
                "expected /flight?shard=<index>\n".to_string(),
            ),
            Some(shard) => match view.flight_json(shard) {
                Some(body) => (200, "application/json", body),
                None => (
                    404,
                    "text/plain",
                    if shard < view.shard_count() {
                        "flight recording requires the `trace` feature\n".to_string()
                    } else {
                        format!("no such shard {shard}\n")
                    },
                ),
            },
        },
        _ => (
            404,
            "text/plain",
            "routes: /metrics /metrics.json /health /flight?shard=N\n".to_string(),
        ),
    }
}

/// Extract `shard=N` from a query string.
fn shard_param(query: &str) -> Option<usize> {
    query
        .split('&')
        .find_map(|kv| kv.strip_prefix("shard="))
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qf_pipeline::{
        BackpressurePolicy, ChaosPlan, Fault, Pipeline, PipelineConfig, PipelineSummary,
        SupervisorConfig,
    };
    use quantile_filter::Criteria;
    use std::collections::HashMap;

    fn pipeline() -> Pipeline {
        let criteria = match Criteria::new(5.0, 0.9, 100.0) {
            Ok(c) => c,
            Err(e) => panic!("criteria: {e:?}"),
        };
        match Pipeline::launch(PipelineConfig {
            shards: 2,
            criteria,
            memory_bytes_per_shard: 16 * 1024,
            queue_capacity: 32,
            slab_capacity: 1,
            policy: BackpressurePolicy::Block,
            seed: 0,
        }) {
            Ok(p) => p,
            Err(e) => panic!("launch: {e}"),
        }
    }

    fn get(addr: SocketAddr, target: &str) -> String {
        let mut stream = match TcpStream::connect(addr) {
            Ok(s) => s,
            Err(e) => panic!("connect: {e}"),
        };
        let _ = write!(stream, "GET {target} HTTP/1.1\r\nHost: x\r\n\r\n");
        let mut out = String::new();
        let _ = stream.read_to_string(&mut out);
        out
    }

    #[test]
    fn serves_all_routes_over_tcp() {
        let pipe = pipeline();
        let server = match OpsServer::start("127.0.0.1:0", pipe.ops_view()) {
            Ok(s) => s,
            Err(e) => panic!("start: {e}"),
        };
        let addr = server.addr();

        let health = get(addr, "/health");
        assert!(health.starts_with("HTTP/1.1 200"), "health: {health}");
        assert!(health.contains("\"shards\":["));
        assert!(health.contains("\"state\":\"running\""));

        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200"), "metrics: {metrics}");
        assert!(metrics.contains("text/plain"));
        assert!(metrics.contains("\nqf_pipeline_enqueued_total{shard=\"1\"} "));

        let json = get(addr, "/metrics.json");
        assert!(json.starts_with("HTTP/1.1 200"), "metrics.json: {json}");
        assert!(json.contains("application/json"));

        let flight = get(addr, "/flight?shard=0");
        if cfg!(feature = "trace") {
            assert!(flight.starts_with("HTTP/1.1 200"), "flight: {flight}");
            assert!(flight.contains("qf-flight/v1"));
        } else {
            assert!(flight.starts_with("HTTP/1.1 404"), "flight: {flight}");
        }

        assert!(get(addr, "/flight").starts_with("HTTP/1.1 400"));
        assert!(get(addr, "/flight?shard=99").starts_with("HTTP/1.1 404"));
        assert!(get(addr, "/nope").starts_with("HTTP/1.1 404"));

        server.shutdown();
        let _ = pipe.shutdown();
    }

    #[test]
    fn route_table_without_sockets() {
        let pipe = pipeline();
        let view = pipe.ops_view();
        assert_eq!(route("/health", &view).0, 200);
        assert_eq!(route("/metrics", &view).0, 200);
        assert_eq!(route("/metrics.json", &view).0, 200);
        assert_eq!(route("/flight", &view).0, 400);
        assert_eq!(route("/flight?shard=bogus", &view).0, 400);
        assert_eq!(route("/flight?shard=7", &view).0, 404);
        assert_eq!(route("/whatever", &view).0, 404);
        let expected = if cfg!(feature = "trace") { 200 } else { 404 };
        assert_eq!(route("/flight?shard=1", &view).0, expected);
        let _ = pipe.shutdown();
    }

    /// ~20k items over 1,000 keys, Zipf(1.1) by inverse CDF from a fixed
    /// xorshift stream. Every seventh key runs hot (40% of its values
    /// above `T`), so reports fire from both parts of the filter.
    fn zipf_items(n: usize) -> Vec<(u64, f64)> {
        let weights: Vec<f64> = (1..=1_000)
            .map(|r| 1.0 / f64::powf(r as f64, 1.1))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in weights {
            acc += w / total;
            cdf.push(acc);
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| {
                let key = cdf.partition_point(|&c| c < next()).min(999) as u64;
                let high = if key.is_multiple_of(7) { 0.4 } else { 0.05 };
                let value = if next() < high { 500.0 } else { 5.0 };
                (key, value)
            })
            .collect()
    }

    /// Parse `/metrics` into (family, shard) → value, checking the format
    /// on the way: each family has exactly one `# TYPE` line, and its
    /// samples follow it contiguously.
    fn parse_metrics(body: &str) -> HashMap<(String, usize), u64> {
        let mut samples = HashMap::new();
        let mut typed: Vec<String> = Vec::new();
        for line in body.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split(' ').next().unwrap_or_default().to_string();
                assert!(!typed.contains(&name), "second # TYPE line for {name}");
                typed.push(name);
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            let (name, label) = series.split_once("{shard=\"").expect("shard label");
            assert_eq!(
                typed.last().map(String::as_str),
                Some(name),
                "sample of {name} outside its family's block"
            );
            let shard = label.trim_end_matches("\"}").parse().expect("shard index");
            samples.insert((name.to_string(), shard), value.parse().expect("value"));
        }
        assert_eq!(typed.len(), SERIES.len(), "families served: {typed:?}");
        samples
    }

    /// Drive `items` through `pipe`, detach a view, drain, and check that
    /// every shard's served counts equal its drained summary.
    fn served_counts_match_summary(mut pipe: Pipeline, items: &[(u64, f64)]) -> PipelineSummary {
        for &(key, value) in items {
            assert!(pipe.ingest(key, value).is_ok());
        }
        let view = pipe.ops_view();
        let summary = match pipe.shutdown() {
            Ok(s) => s,
            Err(e) => panic!("shutdown: {e}"),
        };
        let (status, _, body) = route("/metrics", &view);
        assert_eq!(status, 200);
        let m = parse_metrics(&body);
        let get = |name: &str, shard: usize| match m.get(&(name.to_string(), shard)) {
            Some(&v) => v,
            None => panic!("no {name}{{shard=\"{shard}\"}} in:\n{body}"),
        };
        for (shard, s) in summary.per_shard.iter().enumerate() {
            let served = [
                ("qf_pipeline_enqueued_total", s.enqueued),
                ("qf_pipeline_dropped_total", s.dropped),
                ("qf_pipeline_shard_down_rejected_total", s.rejected),
                ("qf_pipeline_processed_total", s.processed),
                ("qf_pipeline_shed_oldest_total", s.shed),
                ("qf_pipeline_lost_total", s.lost),
                ("qf_pipeline_reports_total", s.reports),
                ("qf_pipeline_restarts_total", s.restarts),
                ("qf_pipeline_shard_state", s.state.code().unsigned_abs()),
            ];
            for (name, expected) in served {
                assert_eq!(get(name, shard), expected, "{name} of shard {shard}");
            }
            // Every value is finite, so each applied item took exactly
            // one of the filter's three insert paths.
            let paths = get("qf_candidate_hits_total", shard)
                + get("qf_candidate_inserts_total", shard)
                + get("qf_candidate_bucket_full_total", shard);
            assert_eq!(paths, s.processed, "insert paths of shard {shard}");
            assert!(get("qf_pipeline_checkpoint_seal_total", shard) > 0);
            assert!(
                s.processed > 0 && s.reports > 0,
                "idle shard {shard}: {s:?}"
            );
        }
        summary
    }

    fn metrics_config() -> (PipelineConfig, SupervisorConfig) {
        let criteria = match Criteria::new(5.0, 0.9, 100.0) {
            Ok(c) => c,
            Err(e) => panic!("criteria: {e:?}"),
        };
        let config = PipelineConfig {
            shards: 2,
            criteria,
            memory_bytes_per_shard: 16 * 1024,
            queue_capacity: 1024,
            slab_capacity: 64,
            policy: BackpressurePolicy::Block,
            seed: 3,
        };
        let sup = SupervisorConfig {
            checkpoint_interval: 1024,
            ..SupervisorConfig::default()
        };
        (config, sup)
    }

    #[test]
    fn metrics_equal_the_drained_summary_per_shard() {
        let items = zipf_items(20_000);
        let (config, sup) = metrics_config();
        let pipe = match Pipeline::launch_supervised(config, sup) {
            Ok(p) => p,
            Err(e) => panic!("launch: {e}"),
        };
        let summary = served_counts_match_summary(pipe, &items);
        assert_eq!(summary.restarts, 0);

        // The same equalities hold across a restart from checkpoint +
        // journal, which the served restart count shows.
        let plan = ChaosPlan::new().with(Fault::Panic {
            shard: 0,
            at_pop: 3_000,
        });
        let mut pipe = match Pipeline::launch_chaos(config, sup, &plan) {
            Ok(p) => p,
            Err(e) => panic!("launch: {e}"),
        };
        // Trace builds dump the restart's flight ring; keep it out of the
        // source tree.
        let dir = std::env::temp_dir().join(format!("qf_ops_flight_{}", std::process::id()));
        pipe.set_flight_dir(&dir);
        let summary = served_counts_match_summary(pipe, &items);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(summary.per_shard[0].restarts, 1);
        assert_eq!(summary.per_shard[1].restarts, 0);
    }

    #[test]
    fn metrics_json_has_every_family() {
        let pipe = pipeline();
        let view = pipe.ops_view();
        let json = metrics_json(&view);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        for (name, kind, _) in SERIES {
            assert!(
                json.contains(&format!(
                    "\"{name}\": {{\"type\": \"{kind}\", \"by_shard\": ["
                )),
                "{name} missing: {json}"
            );
        }
        let _ = pipe.shutdown();
    }

    #[test]
    fn shard_param_parsing() {
        assert_eq!(shard_param("shard=3"), Some(3));
        assert_eq!(shard_param("a=1&shard=0"), Some(0));
        assert_eq!(shard_param(""), None);
        assert_eq!(shard_param("shard=x"), None);
    }
}
