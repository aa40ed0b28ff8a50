//! Fault-injection harness: damaged snapshots and poisoned value streams
//! must surface as *typed errors* — never a panic, never silent
//! corruption.
//!
//! Faults covered:
//! * single-bit flips at every position of a snapshot
//! * truncation at every length
//! * format version skew
//! * wrong-container restores (epoch bytes into a bare filter, ...)
//! * random garbage buffers
//! * NaN / ±∞ / subnormal-adjacent adversarial value streams
//! * snapshots written while fingerprint 0 was still a storable value

use qf_repro::qf_hash::SplitMix64;
use qf_repro::qf_sketch::CountSketch;
use qf_repro::quantile_filter::epoch::{EpochFilter, FixedSize};
use qf_repro::quantile_filter::snapshot::SNAPSHOT_VERSION;
use qf_repro::quantile_filter::{
    Criteria, MultiCriteriaFilter, QfError, QuantileFilter, QuantileFilterBuilder,
};

fn crit() -> Criteria {
    Criteria::new(5.0, 0.9, 100.0).unwrap()
}

/// A small but fully-populated filter: candidate entries, vague-part mass,
/// advanced RNG states, non-zero stats.
fn warm_filter(seed: u64) -> QuantileFilter {
    let mut qf = QuantileFilterBuilder::new(crit())
        .candidate_buckets(8)
        .bucket_len(2)
        .vague_dims(2, 32)
        .seed(seed)
        .build();
    for k in 0u64..200 {
        qf.insert(&k, if k % 7 == 0 { 500.0 } else { 10.0 });
    }
    qf
}

#[test]
fn every_bit_flip_yields_typed_error() {
    let bytes = warm_filter(1).snapshot();
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut dam = bytes.clone();
            dam[byte] ^= 1 << bit;
            match QuantileFilter::<CountSketch<i8>>::restore(&dam) {
                Err(QfError::CorruptSnapshot { .. }) | Err(QfError::VersionMismatch { .. }) => {}
                Err(other) => panic!("unexpected error kind at byte {byte}: {other:?}"),
                Ok(_) => panic!("flip at byte {byte} bit {bit} silently accepted"),
            }
        }
    }
}

#[test]
fn every_truncation_yields_typed_error() {
    let bytes = warm_filter(2).snapshot();
    for len in 0..bytes.len() {
        assert!(
            matches!(
                QuantileFilter::<CountSketch<i8>>::restore(&bytes[..len]),
                Err(QfError::CorruptSnapshot { .. })
            ),
            "truncation to {len} bytes not rejected"
        );
    }
}

#[test]
fn version_skew_is_version_mismatch_not_corruption() {
    let mut bytes = warm_filter(3).snapshot();
    // 1 is the retired pre-length-field format; the rest are futures.
    for future in [1u32, 7, u32::MAX] {
        bytes[4..8].copy_from_slice(&future.to_le_bytes());
        assert_eq!(
            QuantileFilter::<CountSketch<i8>>::restore(&bytes).unwrap_err(),
            QfError::VersionMismatch {
                found: future,
                supported: SNAPSHOT_VERSION
            }
        );
    }
}

#[test]
fn wrong_container_restores_rejected() {
    let qf = warm_filter(4);
    let ef: EpochFilter = EpochFilter::new(crit(), 4096, 100, 4, FixedSize);
    let mc = MultiCriteriaFilter::new(warm_filter(5), vec![crit()]);

    // Filter bytes into the two wrappers, wrapper bytes into the filter,
    // and wrapper bytes into each other: all six cross-restores must fail.
    let filter_bytes = qf.snapshot();
    let epoch_bytes = ef.snapshot();
    let multi_bytes = mc.snapshot();

    assert!(EpochFilter::<i8, FixedSize>::restore(&filter_bytes, FixedSize).is_err());
    assert!(MultiCriteriaFilter::<CountSketch<i8>>::restore(&filter_bytes).is_err());
    assert!(QuantileFilter::<CountSketch<i8>>::restore(&epoch_bytes).is_err());
    assert!(MultiCriteriaFilter::<CountSketch<i8>>::restore(&epoch_bytes).is_err());
    assert!(QuantileFilter::<CountSketch<i8>>::restore(&multi_bytes).is_err());
    assert!(EpochFilter::<i8, FixedSize>::restore(&multi_bytes, FixedSize).is_err());
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = SplitMix64::new(0xFA11);
    for len in [0usize, 1, 8, 21, 28, 29, 64, 300, 4096] {
        for _ in 0..50 {
            let garbage: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            assert!(QuantileFilter::<CountSketch<i8>>::restore(&garbage).is_err());
        }
    }
}

#[test]
fn garbage_behind_valid_header_never_panics() {
    // Keep the 4-byte magic and valid version so decoding proceeds past
    // the header checks into checksum validation.
    let mut rng = SplitMix64::new(0xFA12);
    for _ in 0..200 {
        let mut bytes = b"QFSN".to_vec();
        bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        let tail = (rng.next_u64() % 600) as usize;
        bytes.extend((0..tail).map(|_| rng.next_u64() as u8));
        assert!(QuantileFilter::<CountSketch<i8>>::restore(&bytes).is_err());
    }
}

#[test]
fn poisoned_stream_detection_matches_clean_stream() {
    // Interleave NaN/±∞ poison into an otherwise identical stream: the
    // poisoned filter must emit exactly the clean filter's reports and
    // finish with identical per-key state — i.e. zero silent corruption.
    let poisons = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    let mut clean = warm_filter(6);
    let mut poisoned = warm_filter(6);
    let mut rng = SplitMix64::new(0x0150);
    for i in 0..5_000u64 {
        let key = i % 41;
        let value = if key == 3 { 400.0 } else { 20.0 };
        if rng.next_u64().is_multiple_of(4) {
            let p = poisons[(rng.next_u64() % 3) as usize];
            assert!(poisoned.insert(&key, p).is_none(), "poison reported");
        }
        assert_eq!(
            clean.insert(&key, value),
            poisoned.insert(&key, value),
            "item {i}"
        );
    }
    for k in 0u64..41 {
        assert_eq!(clean.query(&k), poisoned.query(&k), "key {k} corrupted");
    }
    assert_eq!(clean.stats().reports, poisoned.stats().reports);
    // And the end states snapshot to identical bytes.
    assert_eq!(clean.snapshot(), poisoned.snapshot());
}

#[test]
fn try_insert_surfaces_poison_as_typed_error() {
    let mut qf = warm_filter(7);
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        match qf.try_insert(&1u64, bad) {
            Err(QfError::NonFiniteValue { value }) => {
                assert!(value.is_nan() || value.is_infinite());
            }
            other => panic!("expected NonFiniteValue for {bad}, got {other:?}"),
        }
    }
    // The rejections left the filter usable.
    assert!(qf.try_insert(&1u64, 50.0).unwrap().is_none());
}

#[test]
fn wrappers_drop_poison_without_panic() {
    let mut ef: EpochFilter = EpochFilter::new(crit(), 8 * 1024, 10, 8, FixedSize);
    for _ in 0..50 {
        assert!(ef.insert(&1u64, f64::NAN).is_none());
    }
    // Dropped items must not consume epoch capacity.
    assert_eq!(ef.epochs_completed(), 0);
    assert_eq!(ef.remaining_in_epoch(), 10);

    let mut mc = MultiCriteriaFilter::new(warm_filter(9), vec![crit()]);
    for _ in 0..50 {
        assert!(mc.insert(&1u64, f64::NEG_INFINITY).is_empty());
    }
}

#[test]
fn extreme_finite_values_are_legal() {
    // f64::MAX / MIN_POSITIVE / −MAX are finite and must flow through the
    // normal Qweight paths, not be confused with poison.
    let mut qf = warm_filter(10);
    assert!(qf.try_insert(&2u64, f64::MAX).is_ok());
    assert!(qf.try_insert(&2u64, f64::MIN_POSITIVE).is_ok());
    assert!(qf.try_insert(&2u64, -f64::MAX).is_ok());
}

#[test]
fn restored_filter_snapshot_is_idempotent() {
    // snapshot(restore(snapshot(f))) == snapshot(f): nothing is lost or
    // invented across a round trip.
    let qf = warm_filter(11);
    let first = qf.snapshot();
    let restored: QuantileFilter = QuantileFilter::restore(&first).unwrap();
    assert_eq!(restored.snapshot(), first);
}

// Two snapshots recorded from the wire-v2 encoder of the candidate
// layout that kept a per-bucket occupancy bitmask, and so could store
// fingerprint 0. Both are of `one_bucket()`; FP0_KEY's `h_fp` is 0 under
// its seed, and FP1_KEY's is 1.

/// `one_bucket()` after FP0_KEY was inserted with values 500, 500 and 10:
/// one entry, fingerprint 0, Qweight 17.
const FP0_SNAPSHOT: &str = concat!(
    "5146534e02000000be00000094945a1693631f93014b0000000000000000001440cdcccccccc",
    "ccec3f00000000000059400101000000000000000200000000000000e215c4b000000000f612",
    "9ef10000000001010100000000000000040000000000000030f8815d73f36e3c0500ed5e0000",
    "0000020000000000000001000000000000000000000000000000000000000000000000000000",
    "000000000100001100000000000000000000ebe60d7ac976488700000000185d3159055c2543",
);

/// `one_bucket()` after FP0_KEY was inserted with value 500 and FP1_KEY
/// with value 10: fingerprint 0 with Qweight 9 next to fingerprint 1 with
/// Qweight −1.
const FP0_FP1_SNAPSHOT: &str = concat!(
    "5146534e02000000be00000094945a1693631f93014b0000000000000000001440cdcccccccc",
    "ccec3f00000000000059400101000000000000000200000000000000e215c4b000000000f612",
    "9ef1000000000101010000000000000004000000000000001b7c37deb979379e0500ed5e0000",
    "0000000000000000000002000000000000000000000000000000000000000000000000000000",
    "0000000001000009000000010100ffffffffebe60d7ac9764887000000007bf860dfbc7028ff",
);

const FP0_KEY: u64 = 32_336;
const FP1_KEY: u64 = 140_299;

/// The shape both recorded snapshots were taken of.
fn one_bucket() -> QuantileFilter {
    QuantileFilterBuilder::new(crit())
        .candidate_buckets(1)
        .bucket_len(2)
        .vague_dims(1, 4)
        .seed(7)
        .build()
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn stored_zero_fingerprint_restores_as_fingerprint_one() {
    // Both keys now hash to fingerprint 1 in bucket 0.
    let probe = one_bucket();
    let cand = probe.candidate_part();
    assert_eq!(cand.fingerprint_of(&FP0_KEY), 1);
    assert_eq!(cand.fingerprint_of(&FP1_KEY), 1);

    let mut qf: QuantileFilter = QuantileFilter::restore(&unhex(FP0_SNAPSHOT)).unwrap();
    let entries: Vec<_> = qf.candidate_part().iter_entries().collect();
    assert_eq!(entries, [(0, 1, 17)]);
    assert_eq!(qf.query(&FP0_KEY), 17);
    // The restored entry is the key's own: the next insert updates it.
    assert!(qf.insert(&FP0_KEY, 10.0).is_none());
    assert_eq!(qf.query(&FP0_KEY), 16);
    assert_eq!(qf.candidate_part().occupancy(), 1);
}

#[test]
fn stored_zero_fingerprint_next_to_fingerprint_one_is_rejected() {
    match QuantileFilter::<CountSketch<i8>>::restore(&unhex(FP0_FP1_SNAPSHOT)) {
        Err(QfError::CorruptSnapshot { .. }) => {}
        other => panic!("expected a corrupt-snapshot error, got {other:?}"),
    }
}
