//! Concurrency stress for the lock-free latency histogram: many threads
//! hammering shared histograms must never lose an update.
//!
//! Every test asserts *conservation* — the total observed after the storm
//! equals the total injected — which is exactly the property relaxed
//! atomics can silently break if an ordering or a read-modify-write is
//! wrong. The same tests run under Miri in CI (with the thread counts
//! below, which Miri's scheduler can actually interleave).

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

use qf_telemetry::{HistogramSnapshot, LogHistogram};

/// Small enough for Miri to explore interleavings, large enough for real
/// contention on native builds.
const THREADS: usize = 4;
const OPS_PER_THREAD: u64 = if cfg!(miri) { 200 } else { 20_000 };

#[test]
fn histogram_conserves_samples_across_threads() {
    let hist = LogHistogram::new();
    thread::scope(|s| {
        let hist = &hist;
        for t in 0..THREADS {
            s.spawn(move || {
                for i in 0..OPS_PER_THREAD {
                    // Spread samples across many buckets, including 0 and
                    // large values, so multiple cells contend.
                    hist.record((i << (t % 8)) ^ t as u64);
                }
            });
        }
    });
    let total = (THREADS as u64) * OPS_PER_THREAD;
    assert_eq!(
        hist.count(),
        total,
        "lost histogram samples under contention"
    );
    let snap = hist.snapshot();
    assert_eq!(snap.count(), total, "snapshot disagrees with live count");
}

#[test]
fn snapshots_taken_mid_storm_are_coherent() {
    // A snapshot raced against writers may miss in-flight samples, but it
    // must never *invent* them, and successive snapshots must be monotone:
    // later deltas never go negative.
    let hist = LogHistogram::new();
    let done = AtomicU64::new(0);
    thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for i in 0..OPS_PER_THREAD {
                    hist.record(i % 1024);
                }
                done.fetch_add(1, Ordering::Release);
            });
        }
        s.spawn(|| {
            let mut prev = HistogramSnapshot::empty();
            loop {
                let finished = done.load(Ordering::Acquire) == THREADS as u64;
                let now = hist.snapshot();
                assert!(
                    now.count() >= prev.count(),
                    "snapshot count went backwards: {} -> {}",
                    prev.count(),
                    now.count()
                );
                let delta = now.delta_since(&prev);
                assert_eq!(
                    delta.count(),
                    now.count() - prev.count(),
                    "delta miscounts the interval"
                );
                prev = now;
                if finished {
                    break;
                }
                thread::yield_now();
            }
        });
    });
    assert_eq!(hist.count(), (THREADS as u64) * OPS_PER_THREAD);
}

#[test]
fn absorb_and_merge_conserve_counts_across_threads() {
    // Shards record concurrently; an aggregator absorbs each shard's
    // snapshot into a global histogram. Total mass must be conserved and
    // equal the merged snapshot view.
    let shards: Vec<LogHistogram> = (0..THREADS).map(|_| LogHistogram::new()).collect();
    thread::scope(|s| {
        for (t, shard) in shards.iter().enumerate() {
            s.spawn(move || {
                for i in 0..OPS_PER_THREAD {
                    shard.record(i.wrapping_mul(t as u64 + 1) % 4096);
                }
            });
        }
    });

    let global = LogHistogram::new();
    let mut merged = HistogramSnapshot::empty();
    for shard in &shards {
        let snap = shard.snapshot();
        global.absorb(&snap);
        merged = merged.merge(&snap);
    }
    let total = (THREADS as u64) * OPS_PER_THREAD;
    assert_eq!(global.count(), total, "absorb lost samples");
    assert_eq!(merged.count(), total, "merge lost samples");
    // The two aggregation paths must agree on shape, not just mass.
    for q in [0.5, 0.9, 0.99] {
        assert_eq!(
            global.snapshot().quantile(q),
            merged.quantile(q),
            "absorb and merge disagree at q={q}"
        );
    }
}
