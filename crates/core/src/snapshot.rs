//! Versioned, checksummed snapshot/restore for crash recovery.
//!
//! A long-running stream processor checkpoints its QuantileFilter so a
//! crash loses only the items since the last checkpoint, not the whole
//! epoch of accumulated Qweights. The format captures *every* piece of
//! mutable state — hash seeds, candidate slots, vague-part counters, both
//! RNG streams, statistics, and (for [`EpochFilter`]) the epoch counters —
//! so a restored filter emits a byte-identical report sequence from the
//! resume point.
//!
//! ## Wire format (version 2)
//!
//! ```text
//! offset  size  field
//! 0       4     magic "QFSN"
//! 4       4     format version (u32 LE) — currently 2
//! 8       4     total length (u32 LE): size of the whole envelope,
//!               checksum included — makes the snapshot self-delimiting
//! 12      8     config digest (u64 LE): xxh64(config bytes, DIGEST_SEED)
//! 20      1     container tag: 1 = QuantileFilter, 2 = EpochFilter,
//!               3 = MultiCriteriaFilter
//! 21      4     config length (u32 LE)
//! 25      …     config bytes   (structural parameters; covered by digest)
//! …       …     state bytes    (slots, counters, RNG states, stats)
//! end−8   8     checksum (u64 LE): xxh64 over ALL preceding bytes
//! ```
//!
//! All integers are little-endian; `f64`s are stored as their IEEE-754 bit
//! patterns. The trailing checksum covers the entire envelope including
//! the header, so any single bit flip anywhere in the snapshot is caught:
//! a flip before the checksum changes the computed value, a flip inside
//! the checksum mismatches the recomputed one. The separate config digest
//! additionally binds the structural parameters, giving a targeted
//! "config digest mismatch" diagnostic when only the geometry was damaged.
//!
//! Version 2 added the total-length field: the envelope declares its own
//! size, so a buffer carrying extra bytes after the checksum is rejected
//! with a targeted "trailing garbage" diagnostic instead of the trailing
//! bytes being silently folded into the checksum comparison. Embedders
//! that frame snapshots inside larger files get an exact byte count.
//!
//! ## Version policy
//!
//! The version is bumped whenever the byte layout changes incompatibly.
//! Readers reject other versions with [`QfError::VersionMismatch`] rather
//! than guessing — restore-time migration belongs to the embedder, which
//! knows where old checkpoints live.
//!
//! Decode order: length/magic → version → declared-length bounds →
//! whole-file checksum → container tag → config bounds → config digest →
//! field parsing. Every failure is a typed [`QfError`]; no input, however
//! adversarial, panics or allocates unbounded memory (dimension fields
//! are capped before any allocation).

use crate::candidate::CandidatePart;
use crate::criteria::Criteria;
use crate::epoch::{EpochFilter, ResizePolicy};
use crate::error::QfError;
use crate::filter::{FilterStats, QuantileFilter};
use crate::multi::MultiCriteriaFilter;
use crate::strategy::ElectionStrategy;
use qf_hash::wire::{ByteReader, ByteWriter};
use qf_hash::xxh64;
use qf_sketch::snapshot::{SketchShape, SketchState};
use qf_sketch::{SketchCounter, WeightSketch};

/// First four bytes of every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"QFSN";

/// The format version this build writes and the only one it reads.
///
/// History: 1 = initial envelope; 2 = added the total-length field at
/// offset 8 (self-delimiting envelope, trailing-garbage detection).
pub const SNAPSHOT_VERSION: u32 = 2;

/// Container tag for a bare [`QuantileFilter`].
pub const TAG_FILTER: u8 = 1;
/// Container tag for an [`EpochFilter`].
pub const TAG_EPOCH: u8 = 2;
/// Container tag for a [`MultiCriteriaFilter`].
pub const TAG_MULTI: u8 = 3;

/// Seed for the config digest (distinct from the checksum seed so the two
/// hashes never collide by construction).
const DIGEST_SEED: u64 = 0x5EED_D16E_57C0_4F16;
/// Seed for the whole-envelope checksum.
const CHECKSUM_SEED: u64 = 0x5EED_C4EC_5A11_D00D;

/// Bound on the serialized criteria list of a [`MultiCriteriaFilter`] —
/// a corrupted count field must not drive a huge allocation.
const MAX_SNAPSHOT_CRITERIA: u32 = 1 << 20;

// Header = magic(4) + version(4) + total_len(4) + digest(8) + tag(1) +
// config_len(4); the envelope additionally carries the trailing 8-byte
// checksum.
const HEADER_BYTES: usize = 25;
const MIN_SNAPSHOT_BYTES: usize = HEADER_BYTES + 8;

fn corrupt(reason: &str) -> QfError {
    QfError::CorruptSnapshot {
        reason: reason.to_string(),
    }
}

/// Room reserved for a config section. A filter's config is 75 bytes; the
/// wrappers prepend an epoch length or their criteria list.
const CONFIG_HINT: usize = 128;

/// Encode one envelope into `out` in a single pass over the container.
///
/// The header, the config section and the state section are written
/// straight into the final buffer, which is reserved once from
/// `state_len` (and not at all when `out` already holds an envelope of
/// this size). The header's two lengths and the config digest are patched
/// in once their sections are down, then the checksum is taken over the
/// finished body. `tests/snapshot_golden.rs` pins the resulting bytes.
fn seal_into(
    out: &mut Vec<u8>,
    tag: u8,
    state_len: usize,
    config: impl FnOnce(&mut ByteWriter),
    state: impl FnOnce(&mut ByteWriter),
) {
    let hint = HEADER_BYTES + CONFIG_HINT + state_len + 8;
    let mut w = ByteWriter::reuse(std::mem::take(out), hint);
    w.put_bytes(&SNAPSHOT_MAGIC);
    w.put_u32(SNAPSHOT_VERSION);
    // Total length (4), config digest (8), tag, config length (4): the
    // zeroed fields are patched below.
    w.put_block(12);
    w.put_u8(tag);
    w.put_u32(0);
    config(&mut w);
    let config_end = w.len();
    state(&mut w);
    let mut bytes = w.into_bytes();
    let total = (bytes.len() + 8) as u32;
    let digest = xxh64(&bytes[HEADER_BYTES..config_end], DIGEST_SEED);
    let config_len = (config_end - HEADER_BYTES) as u32;
    bytes[8..12].copy_from_slice(&total.to_le_bytes());
    bytes[12..20].copy_from_slice(&digest.to_le_bytes());
    bytes[21..HEADER_BYTES].copy_from_slice(&config_len.to_le_bytes());
    let checksum = xxh64(&bytes, CHECKSUM_SEED);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    *out = bytes;
}

/// Validate the envelope and split it into `(config, state)` sections.
fn open(bytes: &[u8], want_tag: u8) -> Result<(&[u8], &[u8]), QfError> {
    if bytes.len() < MIN_SNAPSHOT_BYTES {
        return Err(corrupt("snapshot shorter than minimal envelope"));
    }
    if bytes[..4] != SNAPSHOT_MAGIC {
        return Err(corrupt("bad magic (not a QuantileFilter snapshot)"));
    }
    let mut header = ByteReader::new(&bytes[4..HEADER_BYTES]);
    let (version, total_len, digest, tag, config_len) = (|| -> Result<_, qf_hash::WireError> {
        Ok((
            header.get_u32()?,
            header.get_u32()? as usize,
            header.get_u64()?,
            header.get_u8()?,
            header.get_u32()? as usize,
        ))
    })()
    .map_err(|_| corrupt("truncated header"))?;
    if version != SNAPSHOT_VERSION {
        return Err(QfError::VersionMismatch {
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    // The envelope is self-delimiting (version 2): the declared length
    // must match the buffer exactly, so both truncation and trailing
    // garbage get targeted diagnostics before any checksum math.
    if total_len < MIN_SNAPSHOT_BYTES {
        return Err(corrupt("declared length shorter than minimal envelope"));
    }
    if bytes.len() < total_len {
        return Err(corrupt("snapshot truncated (shorter than declared length)"));
    }
    if bytes.len() > total_len {
        return Err(corrupt("trailing garbage after snapshot envelope"));
    }
    let (body, trailer) = bytes.split_at(total_len - 8);
    let stored = u64::from_le_bytes(trailer.try_into().unwrap_or([0; 8]));
    if xxh64(body, CHECKSUM_SEED) != stored {
        return Err(corrupt("checksum mismatch"));
    }
    if tag != want_tag {
        return Err(corrupt("container tag mismatch (wrong filter type)"));
    }
    let sections = &body[HEADER_BYTES..];
    if config_len > sections.len() {
        return Err(corrupt("config length out of range"));
    }
    let (config, state) = sections.split_at(config_len);
    if xxh64(config, DIGEST_SEED) != digest {
        return Err(corrupt("config digest mismatch"));
    }
    Ok((config, state))
}

fn strategy_tag(s: ElectionStrategy) -> u8 {
    match s {
        ElectionStrategy::Comparative => 1,
        ElectionStrategy::Probabilistic => 2,
        ElectionStrategy::Forceful => 3,
    }
}

fn strategy_from_tag(tag: u8) -> Result<ElectionStrategy, QfError> {
    match tag {
        1 => Ok(ElectionStrategy::Comparative),
        2 => Ok(ElectionStrategy::Probabilistic),
        3 => Ok(ElectionStrategy::Forceful),
        _ => Err(corrupt("unknown election strategy tag")),
    }
}

fn write_criteria(c: &Criteria, w: &mut ByteWriter) {
    w.put_f64(c.epsilon());
    w.put_f64(c.delta());
    w.put_f64(c.threshold());
}

fn read_criteria(r: &mut ByteReader<'_>) -> Result<Criteria, QfError> {
    let epsilon = r.get_f64().map_err(|_| corrupt("truncated criteria"))?;
    let delta = r.get_f64().map_err(|_| corrupt("truncated criteria"))?;
    let threshold = r.get_f64().map_err(|_| corrupt("truncated criteria"))?;
    Criteria::new(epsilon, delta, threshold).map_err(|e| corrupt(&e.to_string()))
}

/// Write a filter's structural parameters (digest-covered).
fn write_filter_config<S>(qf: &QuantileFilter<S>, w: &mut ByteWriter)
where
    S: WeightSketch + SketchState,
{
    write_criteria(&qf.default_criteria(), w);
    w.put_u8(strategy_tag(qf.strategy()));
    let cand = qf.candidate_part();
    w.put_u64(cand.buckets() as u64);
    w.put_u64(cand.bucket_len() as u64);
    w.put_u64(cand.bucket_seed());
    w.put_u64(cand.fp_seed());
    qf.vague_part().inner().shape().write(w);
}

/// Bytes [`write_filter_state`] appends: the two RNG states and five
/// stats counters, then the candidate slots and the sketch state.
fn filter_state_len<S>(qf: &QuantileFilter<S>) -> usize
where
    S: WeightSketch + SketchState,
{
    7 * 8 + qf.candidate_part().state_len() + qf.vague_part().inner().shape().state_len()
}

/// Write a filter's mutable state (slots, counters, RNGs, stats).
fn write_filter_state<S>(qf: &QuantileFilter<S>, w: &mut ByteWriter)
where
    S: WeightSketch + SketchState,
{
    w.put_u64(qf.rounder_state());
    w.put_u64(qf.rng_state());
    let stats = qf.stats();
    w.put_u64(stats.candidate_hits);
    w.put_u64(stats.candidate_inserts);
    w.put_u64(stats.vague_visits);
    w.put_u64(stats.exchanges);
    w.put_u64(stats.reports);
    qf.candidate_part().write_state(w);
    qf.vague_part().inner().write_state(w);
}

/// Parse config + state sections back into a filter. Both readers must be
/// fully consumed, otherwise the snapshot carries unexplained bytes.
fn read_filter<S>(
    config: &mut ByteReader<'_>,
    state: &mut ByteReader<'_>,
) -> Result<QuantileFilter<S>, QfError>
where
    S: WeightSketch + SketchState,
{
    let criteria = read_criteria(config)?;
    let strategy_byte = config.get_u8().map_err(|_| corrupt("truncated config"))?;
    let strategy = strategy_from_tag(strategy_byte)?;
    let trunc = |_| corrupt("truncated config");
    let buckets = config.get_u64().map_err(trunc)?;
    let bucket_len = config.get_u64().map_err(trunc)?;
    let bucket_seed = config.get_u64().map_err(trunc)?;
    let fp_seed = config.get_u64().map_err(trunc)?;
    let shape = SketchShape::read(config).map_err(|e| corrupt(&e.to_string()))?;

    let strunc = |_| corrupt("truncated state");
    let rounder_state = state.get_u64().map_err(strunc)?;
    let rng_state = state.get_u64().map_err(strunc)?;
    let stats = FilterStats {
        candidate_hits: state.get_u64().map_err(strunc)?,
        candidate_inserts: state.get_u64().map_err(strunc)?,
        vague_visits: state.get_u64().map_err(strunc)?,
        exchanges: state.get_u64().map_err(strunc)?,
        reports: state.get_u64().map_err(strunc)?,
    };
    let candidate = CandidatePart::from_state(buckets, bucket_len, bucket_seed, fp_seed, state)
        .map_err(|e| corrupt(&e.to_string()))?;
    let sketch = S::from_state(shape, state).map_err(|e| corrupt(&e.to_string()))?;
    Ok(QuantileFilter::from_restored(
        criteria,
        candidate,
        sketch,
        strategy,
        rounder_state,
        rng_state,
        stats,
    ))
}

fn ensure_drained(config: &ByteReader<'_>, state: &ByteReader<'_>) -> Result<(), QfError> {
    if !config.is_empty() {
        return Err(corrupt("trailing bytes in config section"));
    }
    if !state.is_empty() {
        return Err(corrupt("trailing bytes in state section"));
    }
    Ok(())
}

impl<S: WeightSketch + SketchState> QuantileFilter<S> {
    /// Serialize the complete filter state into the versioned envelope.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.snapshot_into(&mut out);
        out
    }

    /// [`Self::snapshot`] into a caller-owned buffer: `out` is cleared and
    /// receives the same bytes, reusing its allocation. A checkpointer that
    /// hands back its previous envelope seals without allocating.
    pub fn snapshot_into(&self, out: &mut Vec<u8>) {
        seal_into(
            out,
            TAG_FILTER,
            filter_state_len(self),
            |w| write_filter_config(self, w),
            |w| write_filter_state(self, w),
        );
    }

    /// Rebuild a filter from [`Self::snapshot`] bytes. The restored filter
    /// continues the stream exactly where the original left off: same
    /// Qweights, same RNG positions, hence a byte-identical report stream.
    pub fn restore(bytes: &[u8]) -> Result<Self, QfError> {
        let (config, state) = open(bytes, TAG_FILTER)?;
        let mut config = ByteReader::new(config);
        let mut state = ByteReader::new(state);
        let filter = read_filter(&mut config, &mut state)?;
        ensure_drained(&config, &state)?;
        Ok(filter)
    }
}

impl<C: SketchCounter, P: ResizePolicy> EpochFilter<C, P> {
    /// Serialize the epoch manager and its inner filter.
    ///
    /// The resize policy is **not** serialized — policies may carry
    /// arbitrary state; [`Self::restore`] takes a fresh one.
    pub fn snapshot(&self) -> Vec<u8> {
        let (filter, criteria, seed, epoch_len, items, memory, epochs) = self.snapshot_parts();
        let mut out = Vec::new();
        seal_into(
            &mut out,
            TAG_EPOCH,
            // Criteria (three f64s) and four u64 counters, then the filter.
            7 * 8 + filter_state_len(filter),
            |w| {
                w.put_u64(epoch_len);
                write_filter_config(filter, w);
            },
            |w| {
                write_criteria(&criteria, w);
                w.put_u64(seed);
                w.put_u64(items);
                w.put_u64(memory);
                w.put_u64(epochs);
                write_filter_state(filter, w);
            },
        );
        out
    }

    /// Rebuild from [`Self::snapshot`] bytes, resuming mid-epoch with the
    /// supplied resize policy.
    pub fn restore(bytes: &[u8], policy: P) -> Result<Self, QfError> {
        let (config, state) = open(bytes, TAG_EPOCH)?;
        let mut config = ByteReader::new(config);
        let mut state = ByteReader::new(state);
        let epoch_len = config.get_u64().map_err(|_| corrupt("truncated config"))?;
        if epoch_len == 0 {
            return Err(corrupt("epoch length must be positive"));
        }
        let strunc = |_| corrupt("truncated state");
        let criteria = read_criteria(&mut state)?;
        let seed = state.get_u64().map_err(strunc)?;
        let items = state.get_u64().map_err(strunc)?;
        let memory = state.get_u64().map_err(strunc)?;
        let epochs = state.get_u64().map_err(strunc)?;
        if items > epoch_len {
            return Err(corrupt("epoch progress exceeds epoch length"));
        }
        let filter = read_filter(&mut config, &mut state)?;
        ensure_drained(&config, &state)?;
        let memory = usize::try_from(memory).map_err(|_| corrupt("memory budget out of range"))?;
        Ok(Self::from_restored(
            filter, criteria, seed, epoch_len, items, memory, epochs, policy,
        ))
    }
}

impl<S: WeightSketch + SketchState> MultiCriteriaFilter<S> {
    /// Serialize the criteria list and the wrapped filter.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        seal_into(
            &mut out,
            TAG_MULTI,
            filter_state_len(self.inner()),
            |w| {
                w.put_u32(self.criteria().len() as u32);
                for c in self.criteria() {
                    write_criteria(c, w);
                }
                write_filter_config(self.inner(), w);
            },
            |w| write_filter_state(self.inner(), w),
        );
        out
    }

    /// Rebuild from [`Self::snapshot`] bytes.
    pub fn restore(bytes: &[u8]) -> Result<Self, QfError> {
        let (config, state) = open(bytes, TAG_MULTI)?;
        let mut config = ByteReader::new(config);
        let mut state = ByteReader::new(state);
        let count = config.get_u32().map_err(|_| corrupt("truncated config"))?;
        if count == 0 {
            return Err(corrupt("need at least one criterion"));
        }
        if count > MAX_SNAPSHOT_CRITERIA {
            return Err(corrupt("criteria count out of range"));
        }
        let mut criteria = Vec::with_capacity(count as usize);
        for _ in 0..count {
            criteria.push(read_criteria(&mut config)?);
        }
        let filter = read_filter(&mut config, &mut state)?;
        ensure_drained(&config, &state)?;
        Self::try_new(filter, criteria)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QuantileFilterBuilder;
    use crate::epoch::FixedSize;
    use qf_sketch::{CountMinSketch, CountSketch};

    fn crit() -> Criteria {
        Criteria::new(5.0, 0.9, 100.0).unwrap()
    }

    fn warm_filter() -> QuantileFilter {
        let mut qf = QuantileFilterBuilder::new(crit())
            .candidate_buckets(32)
            .bucket_len(4)
            .vague_dims(3, 256)
            .seed(77)
            .build();
        for k in 0u64..500 {
            qf.insert(&k, if k % 9 == 0 { 500.0 } else { 5.0 });
        }
        qf
    }

    #[test]
    fn roundtrip_preserves_queries_and_stats() {
        let qf = warm_filter();
        let restored: QuantileFilter = QuantileFilter::restore(&qf.snapshot()).unwrap();
        for k in 0u64..500 {
            assert_eq!(qf.query(&k), restored.query(&k), "key {k}");
        }
        assert_eq!(qf.stats().reports, restored.stats().reports);
        assert_eq!(qf.stats().vague_visits, restored.stats().vague_visits);
        assert_eq!(qf.memory_bytes(), restored.memory_bytes());
    }

    #[test]
    fn roundtrip_resumes_byte_identical_reports() {
        let mut qf = warm_filter();
        let mut restored: QuantileFilter = QuantileFilter::restore(&qf.snapshot()).unwrap();
        for i in 0..2000u64 {
            let key = i % 37;
            let v = if key == 5 { 400.0 } else { 10.0 };
            assert_eq!(qf.insert(&key, v), restored.insert(&key, v), "item {i}");
        }
    }

    #[test]
    fn snapshot_is_deterministic() {
        let qf = warm_filter();
        assert_eq!(qf.snapshot(), qf.snapshot());
    }

    #[test]
    fn snapshot_into_overwrites_any_previous_contents() {
        let qf = warm_filter();
        let want = qf.snapshot();
        for stale in [
            Vec::new(),
            vec![0xAB; 3],
            vec![0xCD; want.len()],
            vec![0xEF; 10 * want.len()],
        ] {
            let mut out = stale;
            qf.snapshot_into(&mut out);
            assert_eq!(out, want);
        }
    }

    #[test]
    fn state_len_is_the_written_length() {
        let qf = warm_filter();
        let mut state = ByteWriter::new();
        write_filter_state(&qf, &mut state);
        assert_eq!(filter_state_len(&qf), state.len());
    }

    #[test]
    fn cms_filter_roundtrips() {
        let mut qf: QuantileFilter<CountMinSketch<i32>> = QuantileFilterBuilder::new(crit())
            .candidate_buckets(8)
            .bucket_len(2)
            .vague_dims(3, 128)
            .seed(5)
            .build_with_sketch(CountMinSketch::new(3, 128, 5));
        for k in 0u64..200 {
            qf.insert(&k, 500.0);
        }
        let restored: QuantileFilter<CountMinSketch<i32>> =
            QuantileFilter::restore(&qf.snapshot()).unwrap();
        for k in 0u64..200 {
            assert_eq!(qf.query(&k), restored.query(&k));
        }
    }

    #[test]
    fn epoch_filter_resumes_mid_epoch() {
        let mut ef: EpochFilter = EpochFilter::new(crit(), 8 * 1024, 300, 3, FixedSize);
        for i in 0..450u64 {
            ef.insert(&(i % 11), if i % 11 == 4 { 400.0 } else { 20.0 });
        }
        let mut restored: EpochFilter = EpochFilter::restore(&ef.snapshot(), FixedSize).unwrap();
        assert_eq!(ef.epochs_completed(), restored.epochs_completed());
        assert_eq!(ef.remaining_in_epoch(), restored.remaining_in_epoch());
        for i in 0..600u64 {
            let key = i % 11;
            let v = if key == 4 { 400.0 } else { 20.0 };
            assert_eq!(ef.insert(&key, v), restored.insert(&key, v), "item {i}");
        }
        assert_eq!(ef.epochs_completed(), restored.epochs_completed());
    }

    #[test]
    fn multi_criteria_filter_roundtrips() {
        let filter = QuantileFilterBuilder::new(Criteria::default())
            .candidate_buckets(64)
            .vague_dims(3, 512)
            .seed(13)
            .build();
        let mut m = MultiCriteriaFilter::new(
            filter,
            vec![crit(), Criteria::new(3.0, 0.5, 400.0).unwrap()],
        );
        for i in 0..300u64 {
            m.insert(&(i % 7), 450.0);
        }
        let mut restored: MultiCriteriaFilter<CountSketch<i8>> =
            MultiCriteriaFilter::restore(&m.snapshot()).unwrap();
        assert_eq!(m.criteria_count(), restored.criteria_count());
        for k in 0u64..7 {
            assert_eq!(m.query(&k, 0), restored.query(&k, 0));
            assert_eq!(m.query(&k, 1), restored.query(&k, 1));
        }
        for i in 0..300u64 {
            assert_eq!(m.insert(&(i % 7), 450.0), restored.insert(&(i % 7), 450.0));
        }
    }

    #[test]
    fn wrong_container_tag_rejected() {
        let qf = warm_filter();
        let err = MultiCriteriaFilter::<CountSketch<i8>>::restore(&qf.snapshot()).unwrap_err();
        assert!(matches!(err, QfError::CorruptSnapshot { reason } if reason.contains("tag")));
    }

    #[test]
    fn version_skew_is_typed() {
        let mut bytes = warm_filter().snapshot();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        let err = QuantileFilter::<CountSketch<i8>>::restore(&bytes).unwrap_err();
        assert_eq!(
            err,
            QfError::VersionMismatch {
                found: 99,
                supported: SNAPSHOT_VERSION
            }
        );
    }

    #[test]
    fn every_single_bit_flip_is_detected_in_small_snapshot() {
        // Exhaustive single-bit-flip sweep over a small but complete
        // snapshot: every flip must surface as a typed error (never a
        // silently-accepted wrong filter, never a panic).
        let mut qf = QuantileFilterBuilder::new(crit())
            .candidate_buckets(2)
            .bucket_len(2)
            .vague_dims(2, 8)
            .seed(3)
            .build();
        for k in 0u64..20 {
            qf.insert(&k, 300.0);
        }
        let bytes = qf.snapshot();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut dam = bytes.clone();
                dam[byte] ^= 1 << bit;
                assert!(
                    QuantileFilter::<CountSketch<i8>>::restore(&dam).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn adversarial_resealed_huge_dims_rejected() {
        // An attacker who can rewrite the snapshot can also fix up the
        // digest and checksum, so integrity hashing alone is no defense:
        // the dimension caps must refuse to allocate for absurd geometry.
        let mut config = ByteWriter::new();
        write_criteria(&crit(), &mut config);
        config.put_u8(1); // comparative
        config.put_u64(u64::MAX); // buckets
        config.put_u64(u64::MAX); // bucket_len
        config.put_u64(1); // bucket seed
        config.put_u64(2); // fp seed
        qf_sketch::snapshot::SketchShape {
            kind: qf_sketch::SKETCH_KIND_CS,
            counter_bytes: 1,
            rows: u64::MAX,
            width: u64::MAX,
        }
        .write(&mut config);
        let mut bytes = Vec::new();
        seal_into(
            &mut bytes,
            TAG_FILTER,
            0,
            |w| w.put_bytes(config.as_slice()),
            |_| {},
        );
        let err = QuantileFilter::<CountSketch<i8>>::restore(&bytes).unwrap_err();
        assert!(matches!(err, QfError::CorruptSnapshot { .. }), "{err:?}");
    }

    #[test]
    fn trailing_garbage_rejected_for_every_container() {
        let qf = warm_filter();
        let ef: EpochFilter = EpochFilter::new(crit(), 8 * 1024, 300, 3, FixedSize);
        let m = MultiCriteriaFilter::new(
            QuantileFilterBuilder::new(Criteria::default())
                .candidate_buckets(8)
                .vague_dims(2, 64)
                .seed(1)
                .build(),
            vec![crit()],
        );
        type RestoreErr = fn(&[u8]) -> Option<QfError>;
        let cases: [(&str, Vec<u8>, RestoreErr); 3] = [
            ("filter", qf.snapshot(), |b| {
                QuantileFilter::<CountSketch<i8>>::restore(b).err()
            }),
            ("epoch", ef.snapshot(), |b| {
                EpochFilter::<i8, FixedSize>::restore(b, FixedSize).err()
            }),
            ("multi", m.snapshot(), |b| {
                MultiCriteriaFilter::<CountSketch<i8>>::restore(b).err()
            }),
        ];
        for (name, bytes, restore) in cases {
            for extra in [1usize, 8, 1024] {
                let mut dam = bytes.clone();
                dam.extend(std::iter::repeat_n(0xAB, extra));
                let err = restore(&dam)
                    .unwrap_or_else(|| panic!("{name} snapshot +{extra} bytes accepted"));
                assert!(
                    matches!(
                        &err,
                        QfError::CorruptSnapshot { reason } if reason.contains("trailing garbage")
                    ),
                    "{name} +{extra}: wrong diagnostic {err:?}"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_rejected_even_with_resealed_checksum() {
        // An adversary appends garbage and re-computes the trailing
        // checksum over the extended buffer: the declared total length
        // still gives them away.
        let bytes = warm_filter().snapshot();
        let mut dam = bytes[..bytes.len() - 8].to_vec();
        dam.extend_from_slice(&[0xCD; 16]);
        let checksum = xxh64(&dam, CHECKSUM_SEED);
        dam.extend_from_slice(&checksum.to_le_bytes());
        let err = QuantileFilter::<CountSketch<i8>>::restore(&dam).unwrap_err();
        assert!(
            matches!(
                &err,
                QfError::CorruptSnapshot { reason } if reason.contains("trailing garbage")
            ),
            "resealed garbage got a different diagnostic: {err:?}"
        );
    }

    #[test]
    fn declared_length_skew_rejected() {
        let bytes = warm_filter().snapshot();
        // Understate the length: the buffer now looks like it carries
        // trailing garbage.
        let mut dam = bytes.clone();
        dam[8..12].copy_from_slice(&((bytes.len() as u32) - 1).to_le_bytes());
        assert!(QuantileFilter::<CountSketch<i8>>::restore(&dam).is_err());
        // Overstate it: truncation.
        let mut dam = bytes.clone();
        dam[8..12].copy_from_slice(&((bytes.len() as u32) + 1).to_le_bytes());
        assert!(QuantileFilter::<CountSketch<i8>>::restore(&dam).is_err());
        // Understate below the minimal envelope.
        let mut dam = bytes;
        dam[8..12].copy_from_slice(&4u32.to_le_bytes());
        assert!(QuantileFilter::<CountSketch<i8>>::restore(&dam).is_err());
    }

    #[test]
    fn truncation_at_every_length_rejected() {
        let bytes = warm_filter().snapshot();
        for len in 0..bytes.len() {
            assert!(
                QuantileFilter::<CountSketch<i8>>::restore(&bytes[..len]).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }
}
