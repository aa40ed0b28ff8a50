//! Differential replay: `insert_batch` must be indistinguishable from
//! sequential `insert` — bit for bit.
//!
//! Same replay discipline as `differential_oracle.rs`: deterministic
//! SplitMix64 traces, identically-seeded twin structures, and assertions
//! on *every* observable — the full report sequence (index, source,
//! Qweight), the running statistics, both RNG states (stochastic rounder
//! and election), and a final point-query sweep. Any divergence in hash
//! reuse, RNG draw order, or control flow between the batch and scalar
//! paths fails here with the first diverging item index.
//!
//! Regimes:
//! 1. **Integer weights** (δ = 0.75): the rounder never draws randomness,
//!    so this isolates control-flow and hashing equivalence.
//! 2. **Fractional weights** (δ = 0.6): every above-`T` item draws from
//!    the rounder's RNG, so this pins the batch path to the exact same
//!    per-item draw order.
//! 3. **Chunked feeding with poisoned values**: the same trace split into
//!    uneven chunks (including singleton and whole-trace chunks) with NaN
//!    and ±∞ sprinkled in must drop them exactly like scalar `insert`.
//! 4. **Boundary geometry**: batch lengths straddling the internal
//!    `INGEST_CHUNK` (and non-multiples of the 4-lane SWAR width), plus a
//!    batch whose final item lands in the candidate array's *last* bucket
//!    — the corner where pass 1 prefetches the last bucket's lines and
//!    the SWAR probe window reads the tail padding.
//! 5. **Vague-depth sweep**: every supported sketch depth for both
//!    CountSketch and Count-Min, including `d > MAX_LANES` where lane
//!    precomputation falls back to per-call hashing.
//! 6. **Interleaved deletes**: turnstile traffic between batches must
//!    leave the twins in identical state.

use proptest::prelude::*;
use proptest::{prop_assert_eq, proptest};
use qf_repro::qf_hash::MAX_LANES;
use qf_repro::qf_sketch::{CountMinSketch, CountSketch};
use qf_repro::quantile_filter::{Criteria, QuantileFilter, QuantileFilterBuilder, Report};

/// Minimal deterministic RNG (SplitMix64), as in the differential oracle.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn criteria(epsilon: f64, delta: f64, threshold: f64) -> Criteria {
    match Criteria::new(epsilon, delta, threshold) {
        Ok(c) => c,
        Err(e) => panic!("criteria: {e}"),
    }
}

/// Small, collision-heavy filter so the vague path, elections, and
/// reports are all exercised hard.
fn build(c: Criteria, seed: u64) -> QuantileFilter {
    QuantileFilterBuilder::new(c)
        .candidate_buckets(8)
        .bucket_len(2)
        .vague_dims(3, 256)
        .seed(seed)
        .build()
}

fn trace(seed: u64, len: usize, keys: u64, hot_pct: u64) -> Vec<(u64, f64)> {
    let mut rng = Rng(seed);
    (0..len)
        .map(|_| {
            let key = rng.below(keys);
            let value = if rng.below(100) < hot_pct { 500.0 } else { 5.0 };
            (key, value)
        })
        .collect()
}

/// Feed `items` through the scalar path and return the report log.
fn scalar_reports<S: qf_repro::qf_sketch::WeightSketch>(
    qf: &mut QuantileFilter<S>,
    items: &[(u64, f64)],
) -> Vec<(usize, Report)> {
    let mut log = Vec::new();
    for (i, &(k, v)) in items.iter().enumerate() {
        if let Some(r) = qf.insert(&k, v) {
            log.push((i, r));
        }
    }
    log
}

/// Feed `items` through `insert_batch` in chunks of `chunk` and return the
/// report log with *global* item indices.
fn batch_reports<S: qf_repro::qf_sketch::WeightSketch>(
    qf: &mut QuantileFilter<S>,
    items: &[(u64, f64)],
    chunk: usize,
) -> Vec<(usize, Report)> {
    let mut log = Vec::new();
    for (c, chunk_items) in items.chunks(chunk.max(1)).enumerate() {
        let base = c * chunk.max(1);
        qf.insert_batch(chunk_items, &mut |i, r| log.push((base + i, r)));
    }
    log
}

fn assert_twins_agree<S: qf_repro::qf_sketch::WeightSketch>(
    scalar: &QuantileFilter<S>,
    batched: &QuantileFilter<S>,
    keys: u64,
    regime: &str,
) {
    let (s, b) = (scalar.stats(), batched.stats());
    assert_eq!(
        s.candidate_hits, b.candidate_hits,
        "{regime}: candidate_hits"
    );
    assert_eq!(
        s.candidate_inserts, b.candidate_inserts,
        "{regime}: inserts"
    );
    assert_eq!(s.vague_visits, b.vague_visits, "{regime}: vague_visits");
    assert_eq!(s.exchanges, b.exchanges, "{regime}: exchanges");
    assert_eq!(s.reports, b.reports, "{regime}: reports");
    for k in 0..keys {
        assert_eq!(
            scalar.query(&k),
            batched.query(&k),
            "{regime}: post-trace Qweight differs for key {k}"
        );
    }
}

#[test]
fn integer_weight_replay_is_bit_identical() {
    // δ = 0.75 ⇒ +3/−1 exactly: the rounder is deterministic, so this
    // regime isolates control-flow and hashing equivalence.
    let c = criteria(5.0, 0.75, 100.0);
    let items = trace(0xABCD, 30_000, 300, 55);
    let mut scalar = build(c, 0x11);
    let mut batched = build(c, 0x11);
    let want = scalar_reports(&mut scalar, &items);
    let got = batch_reports(&mut batched, &items, 256);
    assert!(
        want.len() > 30,
        "only {} reports — trace too tame",
        want.len()
    );
    assert_eq!(got, want, "integer regime: report sequences diverge");
    assert_twins_agree(&scalar, &batched, 300, "integer");
}

#[test]
fn fractional_weight_replay_consumes_rng_identically() {
    // δ = 0.6 ⇒ +1.5 above T: every above-item draws from the rounder's
    // RNG. The batch path must make exactly the same draws in the same
    // order, or the report log and final state drift immediately.
    let c = criteria(5.0, 0.6, 100.0);
    let items = trace(0xF00D, 30_000, 200, 60);
    let mut scalar = build(c, 0x22);
    let mut batched = build(c, 0x22);
    let want = scalar_reports(&mut scalar, &items);
    let got = batch_reports(&mut batched, &items, 512);
    assert!(!want.is_empty(), "fractional trace produced no reports");
    assert_eq!(got, want, "fractional regime: report sequences diverge");
    assert_twins_agree(&scalar, &batched, 200, "fractional");
}

#[test]
fn every_chunking_matches_scalar() {
    // Chunk size must be invisible: singleton chunks, odd sizes, and one
    // whole-trace batch all replay to the same log as scalar insert.
    let c = criteria(5.0, 0.75, 100.0);
    let items = trace(0x5EED, 12_000, 150, 55);
    let mut scalar = build(c, 0x33);
    let want = scalar_reports(&mut scalar, &items);
    for chunk in [1usize, 2, 3, 7, 64, 1000, items.len()] {
        let mut batched = build(c, 0x33);
        let got = batch_reports(&mut batched, &items, chunk);
        assert_eq!(got, want, "chunk size {chunk} diverges from scalar");
        assert_twins_agree(&scalar, &batched, 150, "chunked");
    }
}

#[test]
fn chunk_boundary_lengths_replay_identically() {
    // The internal ingest chunk is 64 items: batch lengths straddling it,
    // and lengths that are not multiples of the 4-lane SWAR width, must be
    // invisible in the replay.
    let c = criteria(5.0, 0.6, 100.0);
    for len in [1usize, 3, 63, 64, 65, 67, 127, 128, 129] {
        let items = trace(0xA11 + len as u64, len, 40, 60);
        let mut scalar = build(c, 0x66);
        let mut batched = build(c, 0x66);
        let want = scalar_reports(&mut scalar, &items);
        let got = batch_reports(&mut batched, &items, items.len());
        assert_eq!(got, want, "batch length {len} diverges from scalar");
        assert_twins_agree(&scalar, &batched, 40, "boundary length");
    }
}

#[test]
fn batch_tail_in_last_bucket_matches_scalar() {
    // Pass 1 prefetches each item's own bucket; when the final item of a
    // batch hashes to the candidate array's last bucket, the prefetch
    // touches the array's last lines and the SWAR probe window reads the
    // tail padding. Pin that corner: batches around the chunk size whose
    // final key lands in the last bucket, with that bucket crowded by
    // earlier plants.
    let c = criteria(5.0, 0.75, 100.0);
    let probe = build(c, 0x55);
    let buckets = probe.candidate_part().buckets();
    let last_bucket_keys: Vec<u64> = (0..1_000_000u64)
        .filter(|k| probe.candidate_part().bucket_of(k) == buckets - 1)
        .take(8)
        .collect();
    assert_eq!(last_bucket_keys.len(), 8, "key search exhausted");
    for len in [1usize, 63, 64, 65] {
        let mut items = trace(0x600D + len as u64, len - 1, 64, 55);
        // Crowd the 2-slot last bucket so the tail item walks a full
        // window (match-miss over padding, then election).
        for (i, &k) in last_bucket_keys.iter().take(4).enumerate() {
            if i < items.len() {
                items[i] = (k, 500.0);
            }
        }
        items.push((last_bucket_keys[7], 500.0));
        let mut scalar = build(c, 0x55);
        let mut batched = build(c, 0x55);
        let want = scalar_reports(&mut scalar, &items);
        let got = batch_reports(&mut batched, &items, items.len());
        assert_eq!(got, want, "len {len}: tail-in-last-bucket diverges");
        assert_twins_agree(&scalar, &batched, 64, "last-bucket tail");
        for &k in &last_bucket_keys {
            assert_eq!(scalar.query(&k), batched.query(&k), "planted key {k}");
        }
    }
}

#[test]
fn depth_sweep_cs_and_cms_batch_matches_scalar() {
    // Every vague depth regime for both sketch families, including
    // d > MAX_LANES where RowLanes precomputation yields the empty marker
    // and the filter serves keys per call — batch must stay bit-identical
    // through the fallback too.
    let c = criteria(5.0, 0.75, 100.0);
    let items = trace(0xD00D, 6_000, 120, 55);
    for d in [1usize, 2, 3, 5, MAX_LANES, MAX_LANES + 1] {
        let build_cs = || {
            QuantileFilterBuilder::new(c)
                .candidate_buckets(8)
                .bucket_len(2)
                .seed(0x77)
                .build_with_sketch(CountSketch::<i64>::new(d, 256, 0x77AA))
        };
        let (mut scalar, mut batched) = (build_cs(), build_cs());
        let want = scalar_reports(&mut scalar, &items);
        let got = batch_reports(&mut batched, &items, 96);
        assert!(!want.is_empty(), "CS d={d}: trace produced no reports");
        assert_eq!(got, want, "CS d={d}: report sequences diverge");
        assert_twins_agree(&scalar, &batched, 120, "CS depth sweep");

        let build_cms = || {
            QuantileFilterBuilder::new(c)
                .candidate_buckets(8)
                .bucket_len(2)
                .seed(0x77)
                .build_with_sketch(CountMinSketch::<i64>::new(d, 256, 0x77AA))
        };
        let (mut scalar, mut batched) = (build_cms(), build_cms());
        let want = scalar_reports(&mut scalar, &items);
        let got = batch_reports(&mut batched, &items, 96);
        assert_eq!(got, want, "CMS d={d}: report sequences diverge");
        assert_twins_agree(&scalar, &batched, 120, "CMS depth sweep");
    }
}

#[test]
fn interleaved_deletes_replay_identically() {
    // Turnstile traffic: deletes between batches must drain the same mass
    // from both twins and leave later report indices untouched.
    let c = criteria(5.0, 0.75, 100.0);
    let items = trace(0xDE1, 9_000, 90, 55);
    let mut scalar = build(c, 0x88);
    let mut batched = build(c, 0x88);
    let mut want = Vec::new();
    let mut got = Vec::new();
    for (seg_idx, seg) in items.chunks(300).enumerate() {
        let base = seg_idx * 300;
        for (i, &(k, v)) in seg.iter().enumerate() {
            if let Some(r) = scalar.insert(&k, v) {
                want.push((base + i, r));
            }
        }
        batched.insert_batch(seg, &mut |i, r| got.push((base + i, r)));
        let victim = (seg_idx as u64 * 7) % 90;
        assert_eq!(
            scalar.delete(&victim),
            batched.delete(&victim),
            "segment {seg_idx}: delete estimate diverges"
        );
    }
    assert_eq!(got, want, "deletes disturbed the replay");
    assert_twins_agree(&scalar, &batched, 90, "interleaved deletes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_unaligned_lengths_and_chunks_replay_identically(
        len in 1usize..180,
        chunk in 1usize..80,
        seed in 0u64..1_000,
    ) {
        // Random (batch length, chunk size) pairs — most are unaligned to
        // both the 64-item ingest chunk and the 4-lane SWAR width. The
        // fractional δ keeps the rounder RNG in play.
        let c = criteria(5.0, 0.6, 100.0);
        let items = trace(seed ^ 0xC0FF_EE00, len, 48, 60);
        let mut scalar = build(c, seed);
        let mut batched = build(c, seed);
        let want = scalar_reports(&mut scalar, &items);
        let got = batch_reports(&mut batched, &items, chunk);
        prop_assert_eq!(got, want);
        let (s, b) = (scalar.stats(), batched.stats());
        prop_assert_eq!(s.reports, b.reports);
        prop_assert_eq!(s.vague_visits, b.vague_visits);
        prop_assert_eq!(s.candidate_hits, b.candidate_hits);
    }
}

#[test]
fn poisoned_values_are_dropped_identically() {
    // NaN/±∞ sprinkled through the trace: scalar insert drops them
    // silently; insert_batch must drop the same items and nothing else
    // (in particular the item *indices* of later reports must still match).
    let c = criteria(5.0, 0.75, 100.0);
    let mut items = trace(0xBAD, 8_000, 100, 55);
    let mut rng = Rng(0xDEAD);
    for _ in 0..400 {
        let at = rng.below(items.len() as u64) as usize;
        let poison = match rng.below(3) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        };
        items[at].1 = poison;
    }
    let mut scalar = build(c, 0x44);
    let mut batched = build(c, 0x44);
    let want = scalar_reports(&mut scalar, &items);
    let got = batch_reports(&mut batched, &items, 333);
    assert_eq!(got, want, "poisoned trace: report sequences diverge");
    assert_twins_agree(&scalar, &batched, 100, "poisoned");
}
