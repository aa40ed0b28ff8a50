//! Observer-effect golden: instrumentation must never change what the
//! filter reports.
//!
//! The `trace` hooks are required to be pure observers. With the feature
//! off they compile to nothing. With it on they only stamp events into a
//! thread-local ring (and drop them on threads with no recorder
//! installed, as here); they never touch filter state or RNG streams.
//! One binary cannot compile both feature configurations, so the check is
//! a golden: the full report sequence of a fixed seeded Zipf trace is
//! hashed and compared against a constant computed from the
//! uninstrumented build. CI runs this test in both build modes, with no
//! feature and with `trace`; each must reproduce the same numbers.
//!
//! The assertions run in order of cause, so a failure names what drifted:
//! first the trace digest (the dataset generator changed), then the report
//! count, the report sequence and its hash (the filter or its
//! instrumentation changed). The sequence is committed as
//! `observer_golden_reports.txt`, so a drift prints the first report that
//! differs rather than only a hash.

use qf_repro::qf_baselines::{OutstandingDetector, QfDetector};
use qf_repro::qf_datasets::{zipf_dataset, Item, ZipfConfig};
use qf_repro::quantile_filter::Criteria;

/// Order-sensitive digest of every key and value bit of the trace.
fn trace_digest(items: &[Item]) -> u64 {
    items.iter().fold(0x9E37_79B9_7F4A_7C15, |acc, it| {
        qf_repro::qf_hash::mix64(acc ^ it.key).wrapping_add(it.value.to_bits())
    })
}

/// The (item index, key) pair of every report event, in order.
fn report_sequence(detector: &mut dyn OutstandingDetector, items: &[Item]) -> Vec<(u64, u64)> {
    let mut reports = Vec::new();
    for (i, it) in items.iter().enumerate() {
        if detector.insert(it.key, it.value) {
            reports.push((i as u64, it.key));
        }
    }
    reports
}

/// FNV-1a over the (item index, key) pairs.
fn sequence_hash(reports: &[(u64, u64)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(index, key) in reports {
        for b in index.to_le_bytes().into_iter().chain(key.to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The committed sequence: `#` comment lines, then one `<index> <key>`
/// line per report.
fn golden_sequence() -> Vec<(u64, u64)> {
    include_str!("observer_golden_reports.txt")
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| {
            let parsed = line
                .split_once(' ')
                .and_then(|(i, k)| Some((i.parse().ok()?, k.parse().ok()?)));
            match parsed {
                Some(pair) => pair,
                None => panic!("malformed golden line {line:?}"),
            }
        })
        .collect()
}

#[test]
fn report_sequence_is_identical_in_every_instrumentation_mode() {
    let cfg = ZipfConfig {
        items: 120_000,
        keys: 4_000,
        alpha: 1.2,
        seed: 77,
        ..ZipfConfig::default()
    };
    let ds = zipf_dataset(&cfg);
    let digest = trace_digest(&ds.items);
    assert_eq!(
        digest, 0xcbb9_bf2a_ee31_dea6,
        "dataset changed: trace digest {digest:#018x}; the filter was not run"
    );

    let criteria = match Criteria::new(30.0, 0.95, ds.threshold) {
        Ok(c) => c,
        Err(e) => panic!("paper-default criteria: {e}"),
    };
    let mut det = QfDetector::paper_default(criteria, 128 * 1024, 9);
    let reports = report_sequence(&mut det, &ds.items);
    assert_eq!(
        reports.len(),
        628,
        "instrumentation or filter changed: {} reports on an unchanged trace",
        reports.len()
    );
    let golden = golden_sequence();
    let len = reports.len().max(golden.len());
    if let Some(n) = (0..len).find(|&n| reports.get(n) != golden.get(n)) {
        panic!(
            "instrumentation or filter changed: report {n} is (index, key) {:?}, \
             golden {:?}",
            reports.get(n),
            golden.get(n)
        );
    }
    let hash = sequence_hash(&reports);
    assert_eq!(
        hash, 0x47b7_dc03_60ce_e143,
        "instrumentation or filter changed: report sequence hash {hash:#018x} \
         on an unchanged trace"
    );
}
