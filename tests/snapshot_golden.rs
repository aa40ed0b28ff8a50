//! The wire-v2 golden corpus: the exact bytes `snapshot()` writes.
//!
//! Every case below builds a filter deterministically, snapshots it, and
//! compares the bytes against a committed record: length plus xxh64 for
//! every case, and the full bytes of the smallest one. The records were
//! taken from the encoder that wrote wire v2 through per-section buffers
//! (config and state each built in a `ByteWriter`, then copied into the
//! envelope); the one-pass encoder must reproduce them byte for byte.
//!
//! A mismatch means the bytes on disk changed. If that was deliberate,
//! bump `SNAPSHOT_VERSION` and replace the records with the table the
//! failure prints.

use qf_repro::qf_hash::{xxh64, SplitMix64};
use qf_repro::qf_sketch::CountMinSketch;
use qf_repro::quantile_filter::epoch::{EpochFilter, FixedSize};
use qf_repro::quantile_filter::{
    Criteria, ElectionStrategy, MultiCriteriaFilter, QuantileFilter, QuantileFilterBuilder,
};

fn crit() -> Criteria {
    Criteria::new(5.0, 0.9, 100.0).unwrap()
}

/// A deterministic Zipf-like stream: about one key in nine is heavy-valued.
fn stream(seed: u64, n: usize) -> Vec<(u64, f64)> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let key = (1.0 / (u + 1e-6)).powf(1.1) as u64;
            let value = if key.is_multiple_of(9) { 500.0 } else { 10.0 };
            (key, value)
        })
        .collect()
}

fn fed<S: qf_repro::qf_sketch::WeightSketch>(
    mut qf: QuantileFilter<S>,
    items: &[(u64, f64)],
) -> QuantileFilter<S> {
    qf.insert_batch(items, &mut |_, _| {});
    qf
}

fn small(bucket_len: usize) -> QuantileFilterBuilder {
    QuantileFilterBuilder::new(crit())
        .candidate_buckets(32)
        .bucket_len(bucket_len)
        .vague_dims(3, 256)
        .seed(77)
}

/// Every corpus case, in table order.
fn cases() -> Vec<(&'static str, Vec<u8>)> {
    let items = stream(11, 5_000);
    let tiny = fed(
        QuantileFilterBuilder::new(crit())
            .candidate_buckets(2)
            .bucket_len(2)
            .vague_dims(2, 8)
            .seed(3)
            .build(),
        &[(1, 300.0), (2, 300.0), (3, 300.0), (1, 300.0), (4, 5.0)],
    );
    let mut epoch: EpochFilter = EpochFilter::new(crit(), 8 * 1024, 3_000, 3, FixedSize);
    for &(k, v) in &items[..4_500] {
        epoch.insert(&k, v);
    }
    let mut multi = MultiCriteriaFilter::new(
        small(4).build(),
        vec![crit(), Criteria::new(3.0, 0.5, 400.0).unwrap()],
    );
    for &(k, v) in &items[..2_000] {
        multi.insert(&k, v);
    }
    vec![
        ("filter-tiny", tiny.snapshot()),
        ("filter-empty", small(4).build().snapshot()),
        ("filter-i8-b4", fed(small(4).build(), &items).snapshot()),
        ("filter-i8-b1", fed(small(1).build(), &items).snapshot()),
        ("filter-i8-b6", fed(small(6).build(), &items).snapshot()),
        ("filter-i8-b65", fed(small(65).build(), &items).snapshot()),
        (
            "filter-i16",
            fed(small(4).build_with_counter::<i16>(), &items).snapshot(),
        ),
        (
            "filter-i32",
            fed(small(4).build_with_counter::<i32>(), &items).snapshot(),
        ),
        (
            "filter-i64",
            fed(small(4).build_with_counter::<i64>(), &items).snapshot(),
        ),
        (
            "filter-cms-i32",
            fed(
                small(4).build_with_sketch(CountMinSketch::<i32>::new(3, 256, 5)),
                &items,
            )
            .snapshot(),
        ),
        (
            "filter-probabilistic",
            fed(
                small(4).strategy(ElectionStrategy::Probabilistic).build(),
                &items,
            )
            .snapshot(),
        ),
        (
            "filter-forceful",
            fed(
                small(4).strategy(ElectionStrategy::Forceful).build(),
                &items,
            )
            .snapshot(),
        ),
        (
            "filter-512k",
            fed(
                QuantileFilterBuilder::new(Criteria::new(30.0, 0.95, 300.0).unwrap())
                    .memory_budget_bytes(512 * 1024)
                    .seed(0x51F1_7E2D)
                    .build(),
                &stream(12, 200_000),
            )
            .snapshot(),
        ),
        ("epoch-mid", epoch.snapshot()),
        ("multi-2", multi.snapshot()),
    ]
}

/// `(case, length, xxh64(bytes, 0))`.
const GOLDEN: [(&str, usize, u64); 15] = [
    ("filter-tiny", 224, 0x8c22239493977a67),
    ("filter-empty", 1852, 0xa813c0a98b181716),
    ("filter-i8-b4", 1852, 0x6add660922d1b082),
    ("filter-i8-b1", 1180, 0xb0434ac287aeacdb),
    ("filter-i8-b6", 2300, 0x30b44e76d71f5807),
    ("filter-i8-b65", 15516, 0x3c2825fb1e195f64),
    ("filter-i16", 2620, 0x22d384b3eb389d11),
    ("filter-i32", 4156, 0xde0224531c8dc1e6),
    ("filter-i64", 7228, 0x75ae0dcfb84ca3b3),
    ("filter-cms-i32", 4156, 0x66c281513a69ba70),
    ("filter-probabilistic", 1852, 0xd199b7883d17e188),
    ("filter-forceful", 1852, 0xd4e4f96ab831555a),
    ("filter-512k", 594344, 0x6f0a0e8cf065db73),
    ("epoch-mid", 9534, 0x44f0e8f2b9570e1a),
    ("multi-2", 1904, 0x5721f450675da9b3),
];

/// The full bytes of `filter-tiny`, as hex.
const TINY_HEX: &str = concat!(
    "5146534e02000000e0000000af00d920d0cdfb37014b00000000000000000014",
    "40cdccccccccccec3f0000000000005940010200000000000000020000000000",
    "0000e615c4b000000000f2129ef1000000000101020000000000000008000000",
    "0000000056f0165ce6e6dd780100ed5e00000000010000000000000003000000",
    "0000000001000000000000000000000000000000000000000000000001ca6209",
    "0000000184550900000001bb0d12000000000000000000006c61385d19237684",
    "702175c1e287698b000000010000000000000000000000ff55a18f1037c9ebe1",
);

/// Which part of an envelope `offset` falls in, for mismatch reports.
fn region(bytes: &[u8], offset: usize) -> &'static str {
    let config_len = bytes
        .get(21..25)
        .map_or(0, |b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize);
    match offset {
        0..=24 => "header",
        o if o < 25 + config_len => "config section",
        o if o + 8 < bytes.len() => "state section",
        _ => "checksum",
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn snapshots_match_the_committed_wire_v2_corpus() {
    let cases = cases();
    let table: Vec<String> = cases
        .iter()
        .map(|(name, b)| format!("    ({name:?}, {}, {:#018x}),", b.len(), xxh64(b, 0)))
        .collect();
    let mut bad = Vec::new();
    for ((name, bytes), (want_name, want_len, want_hash)) in cases.iter().zip(GOLDEN) {
        assert_eq!(*name, want_name, "case order drifted from the table");
        if bytes.len() != want_len || xxh64(bytes, 0) != want_hash {
            bad.push(format!(
                "{name}: {} bytes, xxh64 {:#018x}; recorded {want_len} bytes, xxh64 {want_hash:#018x}",
                bytes.len(),
                xxh64(bytes, 0)
            ));
        }
    }
    let got = hex(&cases[0].1);
    if got != TINY_HEX {
        let at = got
            .as_bytes()
            .chunks(2)
            .zip(TINY_HEX.as_bytes().chunks(2))
            .position(|(a, b)| a != b)
            .unwrap_or(got.len().min(TINY_HEX.len()) / 2);
        bad.push(format!(
            "filter-tiny: first difference at byte {at} ({}); bytes are {got}",
            region(&cases[0].1, at)
        ));
    }
    assert!(
        bad.is_empty(),
        "wire-v2 bytes changed:\n{}\ncurrent table:\n{}",
        bad.join("\n"),
        table.join("\n")
    );
}
