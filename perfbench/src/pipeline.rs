//! Pipeline episodes: one fresh single-shard pipeline fed the whole trace,
//! open loop on a fixed schedule or closed loop, with every report matched
//! to the item that caused it.
//!
//! The traced variant times the calls into each pipeline layer from here:
//! `ingest` (router; at each slab handoff it samples the ring's
//! `queue_len` and counts a full ring), `buffered_len`, `poll_reports`
//! (sink) and `shutdown` (drain).

use crate::check::{match_reports, pipeline_failures, RefReport};
use crate::stats::LogHist;
use qf_pipeline::{
    BackpressurePolicy, Pipeline, PipelineConfig, PipelineError, ReportEvent, SupervisorConfig,
};
use quantile_filter::Criteria;
use std::time::{Duration, Instant};

/// Items per router slab.
pub const SLAB: usize = 256;
/// Items per closed-loop offer batch (and per `insert_batch` call of the
/// filter workloads). Not a multiple of [`SLAB`], so the router's partial
/// slab is sampled at every fill level; and not a multiple of 128, so the
/// median report of a call does not sit on the boundary between two of
/// `insert_batch`'s 64-item chunks, where it would jump by a chunk's
/// hashing time from one seed to the next.
pub const BATCH: usize = 200;
/// Ring slots per shard.
pub const QUEUE: usize = 1024;
/// How long an episode waits for outstanding reports after its last item.
const REPORT_WAIT: Duration = Duration::from_secs(2);

/// The single-shard configuration every pipeline run uses.
pub fn config(criteria: Criteria, memory_bytes: usize, seed: u64) -> PipelineConfig {
    PipelineConfig {
        shards: 1,
        criteria,
        memory_bytes_per_shard: memory_bytes,
        queue_capacity: QUEUE,
        slab_capacity: SLAB,
        policy: BackpressurePolicy::Block,
        seed,
    }
}

/// How an episode offers its items.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    /// Launch with `SupervisorConfig::default()` (checkpoint + journal).
    pub supervised: bool,
    /// Open loop at this many million items per second; `None` is a
    /// closed loop that offers the next batch as soon as the last returned.
    pub rate_mops: Option<f64>,
}

fn launch(cfg: PipelineConfig, mode: Mode) -> Result<Pipeline, PipelineError> {
    if mode.supervised {
        Pipeline::launch_supervised(cfg, SupervisorConfig::default())
    } else {
        Pipeline::launch(cfg)
    }
}

/// Nanoseconds from `Pipeline::launch*` to the first item being accepted.
pub fn setup_ns(cfg: PipelineConfig, mode: Mode, first: (u64, f64)) -> Result<f64, PipelineError> {
    let t0 = Instant::now();
    let mut pipe = launch(cfg, mode)?;
    pipe.ingest(first.0, first.1)?;
    let ns = t0.elapsed().as_nanos() as f64;
    pipe.shutdown()?;
    Ok(ns)
}

/// The per-layer observations of a traced episode.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Nanoseconds inside `ingest`, over `router_calls` calls.
    pub router_ns: f64,
    pub router_calls: u64,
    /// Slab-handoff calls that found the ring full.
    pub slow_calls: u64,
    /// Ring backlog (`queue_len`, slabs) at each slab handoff.
    pub backlog: Vec<f64>,
    /// `buffered_len` sampled after each offer batch.
    pub buffered_sum: f64,
    pub buffered_samples: u64,
    /// Nanoseconds inside `poll_reports`, over `polls` calls.
    pub sink_ns: f64,
    pub polls: u64,
    /// Nanoseconds inside `shutdown`.
    pub drain_ns: f64,
}

/// What one episode measured.
#[derive(Debug, Clone, Default)]
pub struct Episode {
    /// Nanoseconds from the first item's due time to the end of the drain.
    pub wall_ns: f64,
    /// Ingest→report latency of every matched report, µs.
    pub latencies_us: Vec<f64>,
    /// Reported keys, one per report.
    pub reported: Vec<u64>,
    /// Items lost, refused or mis-reported, plus broken conservation laws.
    pub failed: u64,
    /// How late each item was offered, ns (see [`open_batch`] and [`closed_lateness`]).
    pub lateness: LogHist,
    pub layers: Layers,
}

/// Open loop: item `i` is due `i · period` after the start. Returns the
/// end of the batch of items due at `now` (capped at one slab past `next`)
/// and records each one's lateness, `now − due`.
pub fn open_batch(now: u64, next: usize, len: usize, period_ns: f64, late: &mut LogHist) -> usize {
    let due = ((now as f64 / period_ns) as usize + 1).min(len);
    let end = due.min(next + SLAB);
    for i in next..end {
        late.record(now.saturating_sub((i as f64 * period_ns) as u64), 1);
    }
    end
}

/// Closed loop: a batch is due when the previous one returned, so
/// its lateness is the caller's own time in between (report polling and
/// bookkeeping).
pub fn closed_lateness(now: u64, previous_return: u64, late: &mut LogHist) {
    late.record(now.saturating_sub(previous_return), 1);
}

/// Run one episode over `items` on a fresh pipeline.
pub fn run(
    cfg: PipelineConfig,
    mode: Mode,
    items: &[(u64, f64)],
    reference: &[RefReport],
    traced: bool,
) -> Result<Episode, PipelineError> {
    let mut pipe = launch(cfg, mode)?;
    let mut ep = Episode::default();
    let layers = &mut ep.layers;
    let mut events: Vec<(ReportEvent, u64)> = Vec::with_capacity(reference.len());
    let mut stamps: Vec<u64> = Vec::new();
    let period_ns = mode.rate_mops.map(|r| 1e3 / r);
    let t0 = Instant::now();
    let since = |t: Instant| t.duration_since(t0).as_nanos() as u64;
    let mut next = 0;
    let mut returned = 0;
    while next < items.len() {
        let now = since(Instant::now());
        let end = match period_ns {
            Some(p) => open_batch(now, next, items.len(), p, &mut ep.lateness),
            None => {
                closed_lateness(now, returned, &mut ep.lateness);
                stamps.push(now);
                (next + BATCH).min(items.len())
            }
        };
        let offered_at = if traced { since(Instant::now()) } else { now };
        for &(key, value) in &items[next..end] {
            if traced && pipe.buffered_len(0) + 1 == SLAB {
                let backlog = pipe.queue_len(0);
                layers.backlog.push(backlog as f64);
                layers.slow_calls += u64::from(backlog >= QUEUE);
            }
            pipe.ingest(key, value)?;
        }
        returned = since(Instant::now());
        if traced {
            layers.router_ns += (returned - offered_at) as f64;
            layers.router_calls += (end - next) as u64;
            layers.buffered_sum += pipe.buffered_len(0) as f64;
            layers.buffered_samples += 1;
        }
        next = end;
        let polled = pipe.poll_reports();
        let arrived = since(Instant::now());
        if traced {
            layers.sink_ns += (arrived - returned) as f64;
            layers.polls += 1;
        }
        events.extend(polled.into_iter().map(|e| (e, arrived)));
    }
    pipe.flush();
    let waited = Instant::now();
    while events.len() < reference.len() && waited.elapsed() < REPORT_WAIT {
        let polled = pipe.poll_reports();
        let arrived = since(Instant::now());
        events.extend(polled.into_iter().map(|e| (e, arrived)));
    }
    let drain = Instant::now();
    let summary = pipe.shutdown()?;
    let done = since(Instant::now());
    layers.drain_ns = (done - since(drain)) as f64;
    events.extend(summary.reports.iter().map(|&e| (e, done)));

    let got: Vec<ReportEvent> = events.iter().map(|&(e, _)| e).collect();
    let (causes, mismatched) = match_reports(reference, items, &got);
    ep.failed = mismatched + pipeline_failures(&summary, items.len() as u64);
    ep.wall_ns = done as f64;
    ep.reported = got.iter().map(|e| e.key).collect();
    ep.latencies_us = causes
        .iter()
        .zip(&events)
        .filter_map(|(&cause, &(_, arrived))| {
            let cause = cause?;
            let due = match period_ns {
                Some(p) => (cause as f64 * p) as u64,
                None => stamps[cause / BATCH],
            };
            Some(arrived.saturating_sub(due) as f64 / 1e3)
        })
        .collect();
    Ok(ep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_offers_what_is_due_and_counts_a_stall_as_lateness() {
        let mut late = LogHist::default();
        // 125 ns per item (8 Mops). At t = 0 only item 0 is due.
        assert_eq!(open_batch(0, 0, 10_000, 125.0, &mut late), 1);
        assert_eq!(late.total(), 1);
        assert_eq!(late.max(), 0);
        // The generator stalls until t = 1000 ns: items 1..=8 are due, and
        // item 1 (due at 125 ns) is 875 ns late.
        assert_eq!(open_batch(1_000, 1, 10_000, 125.0, &mut late), 9);
        assert_eq!(late.total(), 9);
        assert_eq!(late.max(), 875);
        // A long stall is offered one slab at a time; the backlog keeps
        // its lateness.
        let end = open_batch(1_000_000, 9, 10_000, 125.0, &mut late);
        assert_eq!(end, 9 + SLAB);
        assert_eq!(late.max(), 1_000_000 - 9 * 125);
        // Nothing is offered past the trace.
        assert_eq!(
            open_batch(u64::MAX / 2, 9_990, 10_000, 125.0, &mut late),
            10_000
        );
    }

    #[test]
    fn closed_loop_lateness_is_the_callers_gap() {
        let mut late = LogHist::default();
        closed_lateness(1_500, 1_000, &mut late);
        closed_lateness(2_000, 2_000, &mut late);
        assert_eq!((late.total(), late.max()), (2, 500));
    }

    #[test]
    fn an_episode_reproduces_the_serial_reference() {
        let criteria = Criteria::new(30.0, 0.95, 300.0).expect("valid criteria");
        let cfg = config(criteria, 32 * 1024, 9);
        let items: Vec<(u64, f64)> = (0..20_000u64)
            .map(|i| (i % 61, if i % 2 == 0 { 500.0 } else { 5.0 }))
            .collect();
        let mut filter = quantile_filter::QuantileFilterBuilder::new(criteria)
            .memory_budget_bytes(32 * 1024)
            .seed(cfg.shard_seed(0))
            .build();
        let reference = crate::check::reference_reports(&mut filter, &items);
        assert!(!reference.is_empty());
        for mode in [
            Mode {
                supervised: false,
                rate_mops: None,
            },
            Mode {
                supervised: true,
                rate_mops: Some(1.0),
            },
        ] {
            let ep = run(cfg, mode, &items, &reference, true).expect("episode");
            assert_eq!(ep.failed, 0);
            assert_eq!(ep.latencies_us.len(), reference.len());
            assert!(!ep.layers.backlog.is_empty() && ep.layers.polls > 0);
        }
    }
}
