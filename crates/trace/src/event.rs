//! Fixed-size binary trace events.
//!
//! A [`TraceEvent`] is the decoded form of one flight-recorder slot: a
//! globally ordered sequence number, an [`EventKind`], the shard and
//! worker generation it was emitted under, and two kind-specific `u64`
//! payload words. The encoded form packs kind/shard/generation into a
//! single `u64` meta word (see [`pack_meta`]/[`unpack_meta`]) so a slot
//! is exactly four machine words and can be written with four relaxed
//! atomic stores.

/// What happened. The discriminants are part of the `qf-flight/v1` dump
/// format: they appear verbatim in dumped JSON (`"kind"` numeric +
/// `"name"` string) and must not be reordered.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// An epoch boundary: the reset manager rolled the filter over.
    /// `a` = items observed in the finished epoch, `b` = epochs completed.
    EpochRollover = 1,
    /// A candidate election decided to replace the minimum entry.
    /// `a` = challenger's estimated Qweight (bits), `b` = incumbent
    /// minimum Qweight (bits).
    ElectionWin = 2,
    /// A candidate election kept the incumbent. Payload as `ElectionWin`.
    ElectionLoss = 3,
    /// A candidate entry was evicted into the vague part. `a` = evicted
    /// fingerprint, `b` = evicted Qweight (i64 bits).
    Eviction = 4,
    /// An outstanding-quantile report fired. `a` = estimated Qweight
    /// (i64 bits), `b` = 0 for a candidate-part (exact) report, 1 for a
    /// vague-part (estimated) report.
    Report = 5,
    /// The worker sealed a recovery checkpoint. `a` = checkpoint
    /// sequence number, `b` = items applied at seal time.
    CheckpointSeal = 6,
    /// The router's view of a shard queue crossed a backpressure edge.
    /// `a` = 1 entering backpressure, 0 leaving, `b` = items enqueued to
    /// the shard so far.
    Backpressure = 7,
    /// The supervisor restarted the shard's worker. `a` = crash cause
    /// code (see qf-pipeline `CrashCause`), `b` = items lost to the
    /// crash window.
    WorkerRestart = 8,
    /// The supervisor quarantined the shard. Payload as `WorkerRestart`.
    WorkerQuarantine = 9,
    /// A quiesce-barrier snapshot was cut on the worker. `a` = snapshot
    /// byte length, `b` = items applied at the cut.
    SnapshotCut = 10,
    /// A sketch counter saturated instead of wrapping. `a` = row, `b` =
    /// the emitting thread's running saturation count. Nothing emits it
    /// any more (the per-insert detection it needed is gone); it stays
    /// decodable so dumps recorded before that still parse.
    SketchSaturation = 11,
}

impl EventKind {
    /// Stable lower-case name used in dumped JSON.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::EpochRollover => "epoch_rollover",
            EventKind::ElectionWin => "election_win",
            EventKind::ElectionLoss => "election_loss",
            EventKind::Eviction => "eviction",
            EventKind::Report => "report",
            EventKind::CheckpointSeal => "checkpoint_seal",
            EventKind::Backpressure => "backpressure",
            EventKind::WorkerRestart => "worker_restart",
            EventKind::WorkerQuarantine => "worker_quarantine",
            EventKind::SnapshotCut => "snapshot_cut",
            EventKind::SketchSaturation => "sketch_saturation",
        }
    }

    /// Decode a discriminant byte; `None` for anything a torn slot or a
    /// future format could contain.
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            1 => EventKind::EpochRollover,
            2 => EventKind::ElectionWin,
            3 => EventKind::ElectionLoss,
            4 => EventKind::Eviction,
            5 => EventKind::Report,
            6 => EventKind::CheckpointSeal,
            7 => EventKind::Backpressure,
            8 => EventKind::WorkerRestart,
            9 => EventKind::WorkerQuarantine,
            10 => EventKind::SnapshotCut,
            11 => EventKind::SketchSaturation,
            _ => return None,
        })
    }
}

/// One decoded flight-recorder event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global sequence number (process-wide, monotone, starts at 1).
    /// Events from different shards interleave on this axis, which is
    /// what makes cross-shard causality reconstructible from dumps.
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// Shard the event was emitted under.
    pub shard: u16,
    /// Worker generation at emit time (bumps on every restart).
    pub generation: u32,
    /// First kind-specific payload word.
    pub a: u64,
    /// Second kind-specific payload word.
    pub b: u64,
}

/// Pack kind/shard/generation into one meta word:
/// bits 0..8 kind, 8..24 shard, 24..56 generation (low 32 bits).
#[inline(always)]
pub fn pack_meta(kind: EventKind, shard: u16, generation: u32) -> u64 {
    (kind as u64) | ((shard as u64) << 8) | ((generation as u64) << 24)
}

/// Inverse of [`pack_meta`]; `None` if the kind byte is not a known
/// discriminant (torn slot).
#[inline]
pub fn unpack_meta(meta: u64) -> Option<(EventKind, u16, u32)> {
    let kind = EventKind::from_code((meta & 0xFF) as u8)?;
    let shard = ((meta >> 8) & 0xFFFF) as u16;
    let generation = ((meta >> 24) & 0xFFFF_FFFF) as u32;
    Some((kind, shard, generation))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_roundtrips_all_kinds() {
        for code in 1u8..=11 {
            let kind = match EventKind::from_code(code) {
                Some(k) => k,
                None => panic!("code {code} should decode"),
            };
            assert_eq!(kind as u8, code);
            let meta = pack_meta(kind, 0xBEEF, 0xDEAD_0001);
            assert_eq!(unpack_meta(meta), Some((kind, 0xBEEF, 0xDEAD_0001)));
        }
    }

    #[test]
    fn unknown_kind_codes_decode_to_none() {
        assert_eq!(EventKind::from_code(0), None);
        assert_eq!(EventKind::from_code(12), None);
        assert_eq!(EventKind::from_code(0xFF), None);
        assert_eq!(unpack_meta(0), None);
    }

    #[test]
    fn names_are_stable_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for code in 1u8..=11 {
            let kind = match EventKind::from_code(code) {
                Some(k) => k,
                None => panic!("code {code} should decode"),
            };
            assert!(seen.insert(kind.name()), "duplicate name {}", kind.name());
        }
    }
}
