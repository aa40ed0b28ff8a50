//! The candidate part (§III-B): `m` buckets of `b` entries, each entry a
//! `⟨fingerprint, Qweight⟩` pair tracking a likely-outstanding key exactly.
//!
//! Entries store a 16-bit fingerprint plus a 32-bit signed Qweight counter.
//! Space accounting per entry is therefore 6 bytes, which is what the
//! paper's memory axis (candidate ≈ 80% of the budget at the default 4:1
//! split) charges.
//!
//! # Layout: structure-of-arrays
//!
//! The part stores three parallel arrays instead of an array of slot
//! structs: a flat `Vec<u16>` of fingerprints, a flat `Vec<i32>` of
//! Qweights, and a per-bucket occupancy bitmask. A bucket is the contiguous
//! range `[bucket·b, (bucket+1)·b)` of each array (the cuckoo-filter
//! layout). This is what makes the hot bucket scan data-parallel: the probe
//! fingerprint is broadcast across the four 16-bit lanes of a `u64` and
//! compared against packed fingerprint words with the branch-free SWAR
//! detectors of `qf_sketch::simd`, so a 6-entry bucket resolves in two
//! packed compares instead of six compare-and-branch iterations. The
//! fingerprint array carries [`FP_PAD`] zeroed cells of tail padding so
//! every bucket's probe window is whole packed words with no scalar
//! remainder (the Qweight array carries the same amount of *saturated*
//! padding for the fixed-window election — see [`QW_PAD_VALUE`]). The
//! occupancy mask exists because `fp == 0, qw == 0` is a
//! *valid occupied entry* — occupancy cannot be inferred from the payload
//! arrays — but since free slots keep a zeroed fingerprint, only `fp == 0`
//! probes ever consult it on the match path; as a bonus the
//! first-free-slot election becomes a single `trailing_zeros`.
//!
//! The snapshot wire format is unchanged from the AoS layout (per slot:
//! occupancy byte, fingerprint, Qweight, in slot order), so snapshots
//! written by either layout restore into the other bit-identically.

use qf_hash::wire::{ByteReader, ByteWriter, WireError};
use qf_hash::{fingerprint16, fingerprint16_prehashed, HashedKey, RowHasher, StreamKey};
use qf_sketch::simd::{broadcast4, eq_lanes4, movemask4, pack4, LANES_PER_WORD};

/// Bytes charged per entry: 2 (fingerprint) + 4 (Qweight counter).
pub const ENTRY_BYTES: usize = 6;

/// Bytes per slot in a snapshot's state section: the occupancy flag plus
/// the entry (see [`CandidatePart::write_state`]).
const SLOT_WIRE_BYTES: usize = 1 + ENTRY_BYTES;

/// Zeroed fingerprint slots appended past the last bucket so every bucket's
/// probe window `[start, start + bucket_len.next_multiple_of(4))` is in
/// bounds — the SWAR scan then runs whole packed words with no scalar
/// remainder loop. Padding (and any cross-bucket lanes inside the window)
/// is stripped by the bucket mask before match bits are consumed, and the
/// padding cells are never written, so they stay zero for the life of the
/// part (enforced by `check_invariants`). Not charged by `memory_bytes`.
const FP_PAD: usize = LANES_PER_WORD - 1;

/// Value of the Qweight padding cells appended past the last bucket (the
/// analogue of [`FP_PAD`] for the `qws` array). `i32::MAX` instead of zero:
/// the full-bucket election loads a fixed eight-lane window that may reach
/// into the tail, and a saturated padding lane can never win a strict
/// minimum over a live lane, so the fixed-window min needs no tail branch.
/// (An all-saturated bucket ties the padding; the election masks the result
/// to live lanes, so even that degenerate case cannot elect padding.)
/// Like the fingerprint padding, these cells are never written and are not
/// charged by `memory_bytes`.
const QW_PAD_VALUE: i32 = i32::MAX;

/// Outcome of the scalar reference walk `CandidatePart::offer` (tests only).
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateOutcome {
    /// The key's fingerprint matched; its Qweight is now the payload.
    Updated {
        /// Qweight after the update.
        qweight: i64,
    },
    /// The bucket had room; a fresh entry was created with the item weight.
    Inserted,
    /// Bucket full and no match: the caller must go to the vague part.
    BucketFull,
}

/// Outcome of offering an item to the candidate part with
/// [`CandidatePart::offer_or_min`]. The bucket-full case carries the
/// bucket's minimum entry, discovered during the same pass over the slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OfferOutcome {
    /// The key's fingerprint matched; its Qweight is now the payload.
    Updated {
        /// Qweight after the update.
        qweight: i64,
    },
    /// The bucket had room; a fresh entry was created with the item weight.
    Inserted,
    /// Bucket full and no match: the caller must go to the vague part.
    /// `⟨min_fp, min_qw⟩` is the bucket's minimum-Qweight entry (Algorithm 2
    /// line 14), so the election needs no second scan of the bucket.
    BucketFull {
        /// Fingerprint of the minimum-Qweight entry.
        min_fp: u16,
        /// That entry's Qweight.
        min_qw: i64,
    },
}

/// The candidate array, in structure-of-arrays layout (see module docs).
#[derive(Debug, Clone)]
pub struct CandidatePart {
    /// Fingerprint of every slot; 0 for free slots.
    fps: Vec<u16>,
    /// Qweight of every slot; 0 for free slots.
    qws: Vec<i32>,
    /// Occupancy bitmask, `occ_words` words per bucket; bit `i` of a
    /// bucket's word group ⇔ slot `i` occupied.
    occ: Vec<u64>,
    buckets: usize,
    bucket_len: usize,
    /// `bucket_len.div_ceil(64)` — words of occupancy per bucket.
    occ_words: usize,
    bucket_hash: RowHasher,
    fp_seed: u64,
}

impl CandidatePart {
    /// Create a part with `buckets` buckets of `bucket_len` entries, or
    /// `None` if either dimension is zero.
    pub fn try_new(buckets: usize, bucket_len: usize, seed: u64) -> Option<Self> {
        if bucket_len == 0 {
            return None;
        }
        let bucket_hash = RowHasher::from_parts(buckets, seed ^ 0xB0C4_15E5)?;
        let occ_words = bucket_len.div_ceil(64);
        Some(Self {
            fps: vec![0; buckets * bucket_len + FP_PAD],
            qws: {
                let mut qws = vec![0; buckets * bucket_len + FP_PAD];
                qws[buckets * bucket_len..].fill(QW_PAD_VALUE);
                qws
            },
            occ: vec![0; buckets * occ_words],
            buckets,
            bucket_len,
            occ_words,
            bucket_hash,
            fp_seed: seed ^ 0xF19E_12F1,
        })
    }

    /// Create a part with `buckets` buckets of `bucket_len` entries.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(buckets: usize, bucket_len: usize, seed: u64) -> Self {
        match Self::try_new(buckets, bucket_len, seed) {
            Some(part) => part,
            None if buckets == 0 => panic!("need at least one bucket"),
            None => panic!("need at least one entry per bucket"),
        }
    }

    /// Build the largest part with `bucket_len`-entry buckets that fits a
    /// byte budget (≥ 1 bucket); `None` if `bucket_len == 0`.
    pub fn try_with_memory_budget(bucket_len: usize, bytes: usize, seed: u64) -> Option<Self> {
        if bucket_len == 0 {
            return None;
        }
        let buckets = (bytes / (bucket_len * ENTRY_BYTES)).max(1);
        Self::try_new(buckets, bucket_len, seed)
    }

    /// Build the largest part with `bucket_len`-entry buckets that fits a
    /// byte budget (≥ 1 bucket).
    ///
    /// # Panics
    /// Panics if `bucket_len == 0`.
    pub fn with_memory_budget(bucket_len: usize, bytes: usize, seed: u64) -> Self {
        match Self::try_with_memory_budget(bucket_len, bytes, seed) {
            Some(part) => part,
            None => panic!("need at least one entry per bucket"),
        }
    }

    /// Number of buckets `m`.
    #[inline(always)]
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// Entries per bucket `b` (the "block length" of Figs. 9(b)/10(b)).
    #[inline(always)]
    pub fn bucket_len(&self) -> usize {
        self.bucket_len
    }

    /// Charged memory in bytes. Padding cells (see [`FP_PAD`]) are not
    /// charged: they exist for loadability, not capacity.
    pub fn memory_bytes(&self) -> usize {
        self.buckets * self.bucket_len * ENTRY_BYTES
    }

    /// Number of occupied entries.
    pub fn occupancy(&self) -> usize {
        self.occ.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The bucket index a key hashes to (`h_b(x)`).
    #[inline(always)]
    pub fn bucket_of<K: StreamKey + ?Sized>(&self, key: &K) -> usize {
        self.bucket_hash.index(key)
    }

    /// The key's candidate fingerprint (`h_fp(x)`).
    #[inline(always)]
    pub fn fingerprint_of<K: StreamKey + ?Sized>(&self, key: &K) -> u16 {
        fingerprint16(key, self.fp_seed)
    }

    /// Both candidate coordinates — `h_b(x)` and `h_fp(x)` — captured once
    /// per insert and carried through the whole operation, so neither hash
    /// is ever recomputed mid-insert. Fixed-width keys route through their
    /// seed-independent prehash digest, sharing one mix round between the
    /// bucket and fingerprint hashes (bit-identically — see
    /// [`StreamKey::prehash`]).
    #[inline(always)]
    pub fn coords_of<K: StreamKey + ?Sized>(&self, key: &K) -> HashedKey {
        if let Some(p) = key.prehash() {
            return self.coords_of_prehashed(p);
        }
        HashedKey {
            bucket: self.bucket_of(key),
            fp: self.fingerprint_of(key),
        }
    }

    /// [`Self::coords_of`] from a key's [`StreamKey::prehash`] digest —
    /// bit-identical for the key that produced it.
    #[inline(always)]
    pub fn coords_of_prehashed(&self, prehash: u64) -> HashedKey {
        HashedKey {
            bucket: self.bucket_hash.index_prehashed(prehash),
            fp: fingerprint16_prehashed(prehash, self.fp_seed),
        }
    }

    /// Hint-prefetch a bucket's fingerprint and Qweight lines ahead of
    /// [`Self::offer_or_min`] — used by the batch ingest path, which hashes
    /// a whole chunk before applying it. Out-of-range buckets are ignored
    /// rather than prefetched: the chunked pipeline prefetches one item
    /// ahead, and at the batch tail the "next" coordinates can be one past
    /// the live range — a hint pointing past the allocation is
    /// architecturally harmless but is a bounds bug waiting for a non-hint
    /// rewrite, so it is guarded here.
    #[inline(always)]
    pub fn prefetch(&self, bucket: usize) {
        if bucket >= self.buckets {
            return;
        }
        let start = bucket * self.bucket_len;
        qf_sketch::prefetch_read(self.fps.as_ptr().wrapping_add(start));
        qf_sketch::prefetch_read(self.qws.as_ptr().wrapping_add(start));
        qf_sketch::prefetch_read(self.occ.as_ptr().wrapping_add(bucket * self.occ_words));
    }

    #[inline(always)]
    fn occupied(&self, bucket: usize, slot: usize) -> bool {
        self.occ[bucket * self.occ_words + slot / 64] >> (slot % 64) & 1 == 1
    }

    #[inline(always)]
    fn set_occupied(&mut self, bucket: usize, slot: usize) {
        self.occ[bucket * self.occ_words + slot / 64] |= 1u64 << (slot % 64);
    }

    #[inline(always)]
    fn clear_occupied(&mut self, bucket: usize, slot: usize) {
        self.occ[bucket * self.occ_words + slot / 64] &= !(1u64 << (slot % 64));
    }

    /// Bit `i` set ⇔ slot `i` exists in a bucket. Only meaningful for
    /// single-word buckets (`bucket_len ≤ 64`).
    #[inline(always)]
    fn bucket_mask(&self) -> u64 {
        if self.bucket_len == 64 {
            u64::MAX
        } else {
            (1u64 << self.bucket_len) - 1
        }
    }

    /// Match bits of `fp` over `bucket`'s slots (single-word buckets only):
    /// bit `i` set ⇔ slot `i` is an occupied entry with fingerprint `fp`.
    ///
    /// This is the SWAR hot probe. Thanks to [`FP_PAD`] the window
    /// `[start, start + bucket_len.next_multiple_of(4))` is always in
    /// bounds, so the scan is whole packed words — no scalar remainder —
    /// and the bucket mask strips both the padding lanes and any
    /// cross-bucket lanes the rounded window covers. Free slots keep a
    /// zeroed fingerprint (see `remove`/`clear`), so a *nonzero* probe can
    /// never false-match a free slot and the occupancy word is not read at
    /// all on that path; only the rare `fp == 0` probe — where a freed
    /// slot is payload-indistinguishable from a live `⟨0, 0⟩` entry —
    /// pays the occupancy mask.
    #[inline(always)]
    fn match_bits(&self, bucket: usize, fp: u16) -> u64 {
        let start = bucket * self.bucket_len;
        let probe4 = broadcast4(fp);
        let padded = self.bucket_len.next_multiple_of(LANES_PER_WORD);
        let window = &self.fps[start..start + padded];
        let mut match_bits: u64 = 0;
        let mut base = 0u32;
        for chunk in window.chunks_exact(LANES_PER_WORD) {
            let word = pack4([chunk[0], chunk[1], chunk[2], chunk[3]]);
            match_bits |= u64::from(movemask4(eq_lanes4(word, probe4))) << base;
            base += LANES_PER_WORD as u32;
        }
        match_bits &= self.bucket_mask();
        if fp == 0 {
            match_bits &= self.occ[bucket];
        }
        match_bits
    }

    /// [`Self::find_slot`] fast path for nonzero probes: free slots keep a
    /// zeroed fingerprint, so no occupancy masking is needed and the scan
    /// can exit at the first packed word holding a match — one branch per
    /// four slots, and a hot key whose entry sits in the bucket's first
    /// word resolves in a single load-compare. The lane's slot index falls
    /// out of `trailing_zeros` of the per-lane high-bit mask directly
    /// (bit `16i + 15` ⇔ lane `i`), with no movemask compression.
    #[inline(always)]
    fn find_slot_nonzero(&self, bucket: usize, fp: u16) -> Option<usize> {
        debug_assert!(fp != 0 && self.occ_words == 1);
        const LANE_HI: u64 = 0x8000_8000_8000_8000;
        let start = bucket * self.bucket_len;
        let probe4 = broadcast4(fp);
        // Lanes of the final word past bucket_len are padding or the next
        // bucket's slots; strip them before the match test.
        let tail_mask = LANE_HI >> (16 * (self.bucket_len.wrapping_neg() & (LANES_PER_WORD - 1)));
        let padded = self.bucket_len.next_multiple_of(LANES_PER_WORD);
        let window = &self.fps[start..start + padded];
        // Paper-shaped buckets (b in 5..=8, default 6) take this fully
        // unrolled two-word probe: the array pattern pins the window length
        // at compile time, so each packed word is a straight 8-byte load
        // with no loop counter, no per-word bounds logic, and at most two
        // branches — the shape that lets a hot key's first-word hit resolve
        // in a handful of cycles.
        if let Ok(w) = <&[u16; 2 * LANES_PER_WORD]>::try_from(window) {
            let m0 = eq_lanes4(pack4([w[0], w[1], w[2], w[3]]), probe4);
            if m0 != 0 {
                return Some((m0.trailing_zeros() >> 4) as usize);
            }
            let m1 = eq_lanes4(pack4([w[4], w[5], w[6], w[7]]), probe4) & tail_mask;
            if m1 != 0 {
                return Some(LANES_PER_WORD + (m1.trailing_zeros() >> 4) as usize);
            }
            return None;
        }
        let words = padded / LANES_PER_WORD;
        let mut base = 0usize;
        for (w, chunk) in window.chunks_exact(LANES_PER_WORD).enumerate() {
            let word = pack4([chunk[0], chunk[1], chunk[2], chunk[3]]);
            let mut m = eq_lanes4(word, probe4);
            if w + 1 == words {
                m &= tail_mask;
            }
            if m != 0 {
                return Some(base + (m.trailing_zeros() >> 4) as usize);
            }
            base += LANES_PER_WORD;
        }
        None
    }

    /// Slot index of `fp` among `bucket`'s occupied entries, or `None`.
    ///
    /// Single-word buckets (`b ≤ 64`, every paper configuration) run the
    /// SWAR probes ([`Self::find_slot_nonzero`] for the common nonzero
    /// fingerprint, [`Self::match_bits`] with occupancy masking for the
    /// 1-in-2¹⁶ zero fingerprint). The returned index is the *lowest*
    /// matching slot, preserving the slot-order semantics of the scalar walk
    /// (duplicates cannot exist — see `check_invariants` — so this only
    /// matters for defence in depth).
    #[inline]
    fn find_slot(&self, bucket: usize, fp: u16) -> Option<usize> {
        if self.occ_words == 1 {
            if fp != 0 {
                return self.find_slot_nonzero(bucket, fp);
            }
            let bits = self.match_bits(bucket, fp);
            if bits == 0 {
                return None;
            }
            return Some(bits.trailing_zeros() as usize);
        }
        let start = bucket * self.bucket_len;
        (0..self.bucket_len).find(|&i| self.occupied(bucket, i) && self.fps[start + i] == fp)
    }

    #[inline(always)]
    fn clamp_qw(v: i64) -> i32 {
        v.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32
    }

    /// Offer an item with integer weight `delta`. Implements steps 4–8 of
    /// Algorithm 2: match-and-update, or fill-a-hole, or report bucket-full.
    ///
    /// Deliberately a plain scalar walk over every slot: the unit tests use
    /// it as the reference the SWAR [`Self::offer_or_min`] must agree with,
    /// so it must not share that scan.
    #[cfg(test)]
    pub fn offer(&mut self, bucket: usize, fp: u16, delta: i64) -> CandidateOutcome {
        let start = bucket * self.bucket_len;
        let mut free: Option<usize> = None;
        for i in 0..self.bucket_len {
            if self.occupied(bucket, i) {
                if self.fps[start + i] == fp {
                    let widened = i64::from(self.qws[start + i]).saturating_add(delta);
                    self.qws[start + i] = Self::clamp_qw(widened);
                    return CandidateOutcome::Updated {
                        qweight: i64::from(self.qws[start + i]),
                    };
                }
            } else if free.is_none() {
                free = Some(i);
            }
        }
        if let Some(i) = free {
            self.fps[start + i] = fp;
            self.qws[start + i] = Self::clamp_qw(delta);
            self.set_occupied(bucket, i);
            return CandidateOutcome::Inserted;
        }
        CandidateOutcome::BucketFull
    }

    /// Offer an item with integer weight `delta`: steps 4–8 of Algorithm 2
    /// (match-and-update, or fill-a-hole, or report bucket-full), resolved
    /// in one scan. When the bucket is full with no fingerprint match, it
    /// also returns the minimum entry found during that same scan — the
    /// election (Algorithm 2 lines 14–17) then needs no second walk of the
    /// bucket. The tie-break matches [`Self::min_entry`] exactly: the first
    /// minimal entry in slot order.
    ///
    /// On single-word buckets this is the SWAR hot path: one packed compare
    /// per four fingerprints decides match-vs-miss, `trailing_zeros` of the
    /// inverted occupancy word elects the first free slot, and only a full
    /// bucket pays the (branch-light, conditional-move) min scan. Outcomes
    /// and mutations are bit-identical to the scalar walk.
    #[inline]
    pub fn offer_or_min(&mut self, bucket: usize, fp: u16, delta: i64) -> OfferOutcome {
        let start = bucket * self.bucket_len;
        if self.occ_words == 1 {
            if let Some(i) = self.find_slot(bucket, fp) {
                // The dominant outcome on skewed streams: a hot key revisits
                // its own entry. One fps line scanned (usually one packed
                // word), one qws cell updated through a single bounds check,
                // occupancy untouched.
                let cell = &mut self.qws[start + i];
                let updated = Self::clamp_qw(i64::from(*cell).saturating_add(delta));
                *cell = updated;
                return OfferOutcome::Updated {
                    qweight: i64::from(updated),
                };
            }
            let holes = !self.occ[bucket] & self.bucket_mask();
            if holes != 0 {
                let i = holes.trailing_zeros() as usize;
                self.fps[start + i] = fp;
                self.qws[start + i] = Self::clamp_qw(delta);
                self.set_occupied(bucket, i);
                return OfferOutcome::Inserted;
            }
            // Full bucket, no match: first-minimal election in slot order.
            let b = self.bucket_len;
            if b > LANES_PER_WORD && b <= 2 * LANES_PER_WORD {
                // Paper-shaped buckets (4 < b ≤ 8, default 6) elect over a
                // fixed eight-lane window so the reduction is a three-deep
                // min tree instead of a serial compare-and-select chain.
                // Lanes past bucket_len (the next bucket's slots, or the
                // saturated tail padding) are forced to i32::MAX, which a
                // strict minimum over a full bucket can never prefer; the
                // first-minimal index then drops out of an equality bitmask
                // restricted to live lanes — matching min_entry's tie-break
                // with no data-dependent branch. The window is loadable for
                // every bucket because qws carries FP_PAD saturated cells.
                if let Ok(w) = <&[i32; 2 * LANES_PER_WORD]>::try_from(
                    &self.qws[start..start + 2 * LANES_PER_WORD],
                ) {
                    let q5 = if b > 5 { w[5] } else { i32::MAX };
                    let q6 = if b > 6 { w[6] } else { i32::MAX };
                    let q7 = if b > 7 { w[7] } else { i32::MAX };
                    let min_qw = w[0]
                        .min(w[1])
                        .min(w[2].min(w[3]))
                        .min(w[4].min(q5).min(q6.min(q7)));
                    let eqmask = (u32::from(w[0] == min_qw)
                        | u32::from(w[1] == min_qw) << 1
                        | u32::from(w[2] == min_qw) << 2
                        | u32::from(w[3] == min_qw) << 3
                        | u32::from(w[4] == min_qw) << 4
                        | u32::from(q5 == min_qw) << 5
                        | u32::from(q6 == min_qw) << 6
                        | u32::from(q7 == min_qw) << 7)
                        & ((1u32 << b) - 1);
                    let min_i = eqmask.trailing_zeros() as usize;
                    return OfferOutcome::BucketFull {
                        min_fp: self.fps[start + min_i],
                        min_qw: i64::from(min_qw),
                    };
                }
            }
            // Other widths: strict `<` keeps the first minimal entry, like
            // min_entry's min_by_key; the loop body is two compares and two
            // selects, so it lowers to conditional moves rather than a
            // branchy walk.
            let qws = &self.qws[start..start + self.bucket_len];
            let mut min_i = 0usize;
            let mut min_qw = qws[0];
            for (i, &v) in qws.iter().enumerate().skip(1) {
                if v < min_qw {
                    min_qw = v;
                    min_i = i;
                }
            }
            return OfferOutcome::BucketFull {
                min_fp: self.fps[start + min_i],
                min_qw: i64::from(min_qw),
            };
        }
        self.offer_or_min_scalar(bucket, fp, delta)
    }

    /// Scalar fallback of [`Self::offer_or_min`] for multi-word buckets
    /// (`b > 64` — diagnostic sweeps only; every paper configuration fits
    /// one occupancy word).
    fn offer_or_min_scalar(&mut self, bucket: usize, fp: u16, delta: i64) -> OfferOutcome {
        let start = bucket * self.bucket_len;
        let mut free: Option<usize> = None;
        let mut min: Option<(u16, i32)> = None;
        for i in 0..self.bucket_len {
            if self.occupied(bucket, i) {
                if self.fps[start + i] == fp {
                    let widened = i64::from(self.qws[start + i]).saturating_add(delta);
                    self.qws[start + i] = Self::clamp_qw(widened);
                    return OfferOutcome::Updated {
                        qweight: i64::from(self.qws[start + i]),
                    };
                }
                if min.is_none_or(|(_, qw)| self.qws[start + i] < qw) {
                    min = Some((self.fps[start + i], self.qws[start + i]));
                }
            } else if free.is_none() {
                free = Some(i);
            }
        }
        if let Some(i) = free {
            self.fps[start + i] = fp;
            self.qws[start + i] = Self::clamp_qw(delta);
            self.set_occupied(bucket, i);
            return OfferOutcome::Inserted;
        }
        match min {
            Some((min_fp, min_qw)) => OfferOutcome::BucketFull {
                min_fp,
                min_qw: i64::from(min_qw),
            },
            // Unreachable: a full bucket (no free slot, bucket_len ≥ 1) has
            // at least one occupied entry. An i64::MAX minimum makes every
            // election a no-op rather than panicking.
            None => OfferOutcome::BucketFull {
                min_fp: fp,
                min_qw: i64::MAX,
            },
        }
    }

    /// Read a key's Qweight if its fingerprint is present in `bucket`.
    pub fn get(&self, bucket: usize, fp: u16) -> Option<i64> {
        self.find_slot(bucket, fp)
            .map(|i| i64::from(self.qws[bucket * self.bucket_len + i]))
    }

    /// Zero a present entry's Qweight (the post-report reset). Returns the
    /// previous Qweight.
    pub fn reset_entry(&mut self, bucket: usize, fp: u16) -> Option<i64> {
        self.find_slot(bucket, fp).map(|i| {
            let idx = bucket * self.bucket_len + i;
            let old = i64::from(self.qws[idx]);
            self.qws[idx] = 0;
            old
        })
    }

    /// Remove a present entry entirely (the §III-C delete operation).
    /// Returns the removed Qweight.
    pub fn remove(&mut self, bucket: usize, fp: u16) -> Option<i64> {
        self.find_slot(bucket, fp).map(|i| {
            let idx = bucket * self.bucket_len + i;
            let old = i64::from(self.qws[idx]);
            // Free slots stay fully zeroed: the snapshot wire format and the
            // invariant checker both rely on it.
            self.fps[idx] = 0;
            self.qws[idx] = 0;
            self.clear_occupied(bucket, i);
            old
        })
    }

    /// The entry with the smallest Qweight in `bucket` (`⟨fp′, MinQw⟩` of
    /// Algorithm 2 line 14). `None` only if the bucket is somehow empty.
    pub fn min_entry(&self, bucket: usize) -> Option<(u16, i64)> {
        let start = bucket * self.bucket_len;
        (0..self.bucket_len)
            .filter(|&i| self.occupied(bucket, i))
            .min_by_key(|&i| self.qws[start + i])
            .map(|i| (self.fps[start + i], i64::from(self.qws[start + i])))
    }

    /// Replace the entry `old_fp` in `bucket` with `⟨new_fp, new_qw⟩`
    /// (the candidate⇄vague exchange). Returns the evicted Qweight.
    pub fn replace(&mut self, bucket: usize, old_fp: u16, new_fp: u16, new_qw: i64) -> Option<i64> {
        self.find_slot(bucket, old_fp).map(|i| {
            let idx = bucket * self.bucket_len + i;
            crate::telemetry::eviction();
            crate::trace::eviction(self.fps[idx], i64::from(self.qws[idx]));
            let old = i64::from(self.qws[idx]);
            self.fps[idx] = new_fp;
            self.qws[idx] = Self::clamp_qw(new_qw);
            old
        })
    }

    /// Clear every entry (the periodic reset of §III-B). Padding cells are
    /// left untouched: fp padding is already zero and qw padding must stay
    /// saturated (see [`QW_PAD_VALUE`]).
    pub fn clear(&mut self) {
        let slots = self.buckets * self.bucket_len;
        self.fps[..slots].fill(0);
        self.qws[..slots].fill(0);
        self.occ.fill(0);
    }

    /// Iterate over `(bucket, fp, qweight)` of all occupied entries —
    /// used by diagnostics and the eval harness.
    pub fn iter_entries(&self) -> impl Iterator<Item = (usize, u16, i64)> + '_ {
        (0..self.buckets * self.bucket_len).filter_map(move |i| {
            let (bucket, slot) = (i / self.bucket_len, i % self.bucket_len);
            self.occupied(bucket, slot)
                .then_some((bucket, self.fps[i], i64::from(self.qws[i])))
        })
    }

    /// The bucket hash's seed, for snapshotting.
    pub fn bucket_seed(&self) -> u64 {
        self.bucket_hash.seed()
    }

    /// The fingerprint hash seed, for snapshotting.
    pub fn fp_seed(&self) -> u64 {
        self.fp_seed
    }

    /// Upper bound on restored slot counts; a corrupted dimension field
    /// must not trigger a huge allocation.
    pub(crate) const MAX_SNAPSHOT_SLOTS: u64 = 1 << 28;

    /// Bytes [`Self::write_state`] appends: one record per slot.
    pub(crate) fn state_len(&self) -> usize {
        self.buckets * self.bucket_len * SLOT_WIRE_BYTES
    }

    /// Serialize every slot (occupied flag, fingerprint, Qweight) into a
    /// snapshot's state section. The per-slot record order is the AoS wire
    /// format — unchanged by the SoA layout. The records are encoded in
    /// place into one block, walking the three arrays bucket by bucket so
    /// that a slot's occupancy bit needs no division of its index.
    pub(crate) fn write_state(&self, w: &mut ByteWriter) {
        let (len, slots) = (self.bucket_len, self.buckets * self.bucket_len);
        // Fixed-size records, so every store below has a constant offset.
        let (records, _) = w
            .put_block(slots * SLOT_WIRE_BYTES)
            .as_chunks_mut::<SLOT_WIRE_BYTES>();
        let buckets = records
            .chunks_exact_mut(len)
            .zip(self.fps[..slots].chunks_exact(len))
            .zip(self.qws[..slots].chunks_exact(len))
            .zip(self.occ.chunks_exact(self.occ_words));
        for (((records, fps), qws), occ) in buckets {
            let slots = records.iter_mut().zip(fps).zip(qws);
            for (slot, ((record, &fp), &qw)) in slots.enumerate() {
                let occupied = occ.get(slot / 64).map_or(0, |word| word >> (slot % 64) & 1);
                let [f0, f1] = fp.to_le_bytes();
                let [q0, q1, q2, q3] = qw.to_le_bytes();
                *record = [occupied as u8, f0, f1, q0, q1, q2, q3];
            }
        }
    }

    /// Rebuild the part from snapshotted configuration and slot state.
    /// Never panics: malformed input surfaces as a [`WireError`].
    pub(crate) fn from_state(
        buckets: u64,
        bucket_len: u64,
        bucket_seed: u64,
        fp_seed: u64,
        r: &mut ByteReader<'_>,
    ) -> Result<Self, WireError> {
        if buckets == 0 || bucket_len == 0 {
            return Err(WireError::Invalid("candidate dimensions must be positive"));
        }
        let total = buckets
            .checked_mul(bucket_len)
            .ok_or(WireError::Invalid("candidate dimensions overflow"))?;
        if total > Self::MAX_SNAPSHOT_SLOTS {
            return Err(WireError::Invalid("candidate dimensions out of range"));
        }
        let (buckets, bucket_len) = (buckets as usize, bucket_len as usize);
        let bucket_hash = RowHasher::from_parts(buckets, bucket_seed)
            .ok_or(WireError::Invalid("degenerate bucket hash"))?;
        let occ_words = bucket_len.div_ceil(64);
        let mut part = Self {
            fps: Vec::with_capacity(buckets * bucket_len + FP_PAD),
            qws: Vec::with_capacity(buckets * bucket_len + FP_PAD),
            occ: vec![0; buckets * occ_words],
            buckets,
            bucket_len,
            occ_words,
            bucket_hash,
            fp_seed,
        };
        let block = r.get_bytes(buckets * bucket_len * SLOT_WIRE_BYTES)?;
        let (records, _) = block.as_chunks::<SLOT_WIRE_BYTES>();
        for (bucket, records) in records.chunks_exact(bucket_len).enumerate() {
            for (slot, &[flag, f0, f1, q0, q1, q2, q3]) in records.iter().enumerate() {
                let fp = u16::from_le_bytes([f0, f1]);
                let qw = i32::from_le_bytes([q0, q1, q2, q3]);
                match flag {
                    0 if fp != 0 || qw != 0 => {
                        return Err(WireError::Invalid("free slot with residual payload"))
                    }
                    0 => {}
                    1 => part.set_occupied(bucket, slot),
                    _ => return Err(WireError::Invalid("bad slot occupancy flag")),
                }
                part.fps.push(fp);
                part.qws.push(qw);
            }
        }
        part.fps.resize(buckets * bucket_len + FP_PAD, 0);
        part.qws.resize(buckets * bucket_len + FP_PAD, QW_PAD_VALUE);
        Ok(part)
    }
}

impl qf_sketch::invariants::CheckInvariants for CandidatePart {
    fn check_invariants(&self) -> Result<(), qf_sketch::invariants::InvariantViolation> {
        use qf_sketch::invariants::InvariantViolation as V;
        const S: &str = "CandidatePart";
        if self.buckets == 0 || self.bucket_len == 0 {
            return Err(V::new(S, "dimensions must be positive"));
        }
        let slots = self.buckets * self.bucket_len;
        if self.qws.len() != slots + FP_PAD || self.fps.len() != slots + FP_PAD {
            return Err(V::new(
                S,
                format!(
                    "{}/{} payload slots for {}x{} dims (+{FP_PAD} pad)",
                    self.fps.len(),
                    self.qws.len(),
                    self.buckets,
                    self.bucket_len
                ),
            ));
        }
        if self.fps[slots..].iter().any(|&f| f != 0) {
            // The SWAR probe windows read the padding; a nonzero padding
            // cell could false-match the last bucket's probes.
            return Err(V::new(S, "fingerprint padding has residue"));
        }
        if self.qws[slots..].iter().any(|&q| q != QW_PAD_VALUE) {
            // The fixed-window election reads the padding; a non-saturated
            // cell could win the last bucket's minimum.
            return Err(V::new(S, "qweight padding is not saturated"));
        }
        if self.occ_words != self.bucket_len.div_ceil(64)
            || self.occ.len() != self.buckets * self.occ_words
        {
            return Err(V::new(
                S,
                format!(
                    "{} occupancy words for {} buckets of {} slots",
                    self.occ.len(),
                    self.buckets,
                    self.bucket_len
                ),
            ));
        }
        if self.bucket_hash.range() != self.buckets {
            return Err(V::new(
                S,
                format!(
                    "bucket hash maps to {} buckets, array has {}",
                    self.bucket_hash.range(),
                    self.buckets
                ),
            ));
        }
        for b in 0..self.buckets {
            // Bits past bucket_len in the bucket's occupancy group must be
            // zero, or occupancy() overcounts and the SWAR hole election
            // could install entries in slots that don't exist.
            for (w, &word) in self.occ[b * self.occ_words..(b + 1) * self.occ_words]
                .iter()
                .enumerate()
            {
                let bits_before = w * 64;
                let live = self.bucket_len.saturating_sub(bits_before).min(64);
                let live_mask = if live == 64 {
                    u64::MAX
                } else {
                    (1u64 << live) - 1
                };
                if word & !live_mask != 0 {
                    return Err(V::new(
                        S,
                        format!("bucket {b} occupancy word {w} has ghost bits"),
                    ));
                }
            }
            let start = b * self.bucket_len;
            let mut seen = [false; u16::MAX as usize + 1];
            for i in 0..self.bucket_len {
                if self.occupied(b, i) {
                    // offer() never duplicates a fingerprint and replace()
                    // only installs challengers absent from the bucket, so
                    // a duplicate means an update went to the wrong entry.
                    let fp = self.fps[start + i];
                    if seen[usize::from(fp)] {
                        return Err(V::new(
                            S,
                            format!("bucket {b} holds fingerprint {fp:#06x} twice"),
                        ));
                    }
                    seen[usize::from(fp)] = true;
                } else if self.fps[start + i] != 0 || self.qws[start + i] != 0 {
                    // Free slots are always fully zeroed; residue means a
                    // remove/clear path missed a field.
                    return Err(V::new(S, format!("free slot in bucket {b} has residue")));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn part() -> CandidatePart {
        CandidatePart::new(4, 3, 42)
    }

    #[test]
    fn insert_then_update() {
        let mut p = part();
        let b = p.bucket_of(&1u64);
        let fp = p.fingerprint_of(&1u64);
        assert_eq!(p.offer(b, fp, 5), CandidateOutcome::Inserted);
        assert_eq!(p.offer(b, fp, -2), CandidateOutcome::Updated { qweight: 3 });
        assert_eq!(p.get(b, fp), Some(3));
    }

    #[test]
    fn bucket_fills_then_rejects() {
        let mut p = CandidatePart::new(1, 2, 1);
        assert_eq!(p.offer(0, 10, 1), CandidateOutcome::Inserted);
        assert_eq!(p.offer(0, 20, 1), CandidateOutcome::Inserted);
        assert_eq!(p.offer(0, 30, 1), CandidateOutcome::BucketFull);
        // But a matching fp still updates.
        assert_eq!(p.offer(0, 20, 4), CandidateOutcome::Updated { qweight: 5 });
    }

    #[test]
    fn min_entry_finds_smallest() {
        let mut p = CandidatePart::new(1, 3, 2);
        p.offer(0, 1, 10);
        p.offer(0, 2, -5);
        p.offer(0, 3, 7);
        assert_eq!(p.min_entry(0), Some((2, -5)));
    }

    #[test]
    fn offer_or_min_reports_first_minimal_entry() {
        let mut p = CandidatePart::new(1, 4, 2);
        p.offer(0, 1, 7);
        p.offer(0, 2, -5);
        p.offer(0, 3, -5); // Tie with fp 2; fp 2 is first in slot order.
        p.offer(0, 4, 10);
        assert_eq!(
            p.offer_or_min(0, 99, 1),
            OfferOutcome::BucketFull {
                min_fp: 2,
                min_qw: -5
            }
        );
        // The carried minimum must agree with the two-scan answer.
        assert_eq!(p.min_entry(0), Some((2, -5)));
    }

    #[test]
    fn offer_or_min_matches_offer_on_update_and_insert() {
        let mut a = CandidatePart::new(4, 3, 42);
        let mut b = CandidatePart::new(4, 3, 42);
        for k in 0u64..200 {
            let bucket = a.bucket_of(&k);
            let fp = a.fingerprint_of(&k);
            let delta = (k as i64 % 13) - 6;
            let via_offer = a.offer(bucket, fp, delta);
            let via_fused = b.offer_or_min(bucket, fp, delta);
            match (via_offer, via_fused) {
                (
                    CandidateOutcome::Updated { qweight: x },
                    OfferOutcome::Updated { qweight: y },
                ) => {
                    assert_eq!(x, y)
                }
                (CandidateOutcome::Inserted, OfferOutcome::Inserted) => {}
                (CandidateOutcome::BucketFull, OfferOutcome::BucketFull { min_fp, min_qw }) => {
                    assert_eq!(a.min_entry(bucket), Some((min_fp, min_qw)));
                }
                (x, y) => panic!("diverged on key {k}: {x:?} vs {y:?}"),
            }
        }
    }

    #[test]
    fn swar_and_scalar_offer_agree_across_bucket_lengths() {
        // The SWAR single-word path and the scalar multi-word path must make
        // identical decisions for every bucket length around the 4-lane
        // boundaries and across the 64-slot word boundary. The scalar
        // `offer` is the reference; `offer_or_min` takes the SWAR path
        // whenever bucket_len ≤ 64.
        for bucket_len in [1usize, 2, 3, 4, 5, 6, 7, 8, 63, 64, 65, 128] {
            let mut swar = CandidatePart::new(2, bucket_len, 77);
            let mut scalar = CandidatePart::new(2, bucket_len, 77);
            for k in 0u64..600 {
                let bucket = swar.bucket_of(&k);
                let fp = swar.fingerprint_of(&k);
                let delta = (k as i64 % 17) - 8;
                let via_fused = swar.offer_or_min(bucket, fp, delta);
                let via_offer = scalar.offer(bucket, fp, delta);
                match (via_offer, via_fused) {
                    (
                        CandidateOutcome::Updated { qweight: x },
                        OfferOutcome::Updated { qweight: y },
                    ) => assert_eq!(x, y, "len {bucket_len} key {k}"),
                    (CandidateOutcome::Inserted, OfferOutcome::Inserted) => {}
                    (CandidateOutcome::BucketFull, OfferOutcome::BucketFull { min_fp, min_qw }) => {
                        assert_eq!(
                            scalar.min_entry(bucket),
                            Some((min_fp, min_qw)),
                            "len {bucket_len} key {k}"
                        );
                    }
                    (x, y) => panic!("len {bucket_len} key {k}: {x:?} vs {y:?}"),
                }
                assert_eq!(
                    swar.get(bucket, fp),
                    scalar.get(bucket, fp),
                    "len {bucket_len} key {k}"
                );
            }
            assert_eq!(swar.occupancy(), scalar.occupancy(), "len {bucket_len}");
            let a: Vec<_> = swar.iter_entries().collect();
            let b: Vec<_> = scalar.iter_entries().collect();
            assert_eq!(a, b, "len {bucket_len}");
        }
    }

    #[test]
    fn fixed_window_election_ignores_neighbour_bucket() {
        // The eight-lane election window of a 6-slot bucket reaches two
        // lanes into the next bucket. Plant strictly smaller Qweights
        // there: the election must still pick this bucket's own minimum.
        let mut p = CandidatePart::new(3, 6, 9);
        for fp in 1..=6u16 {
            p.offer(0, fp, 100 + i64::from(fp));
        }
        p.offer(1, 50, -1000);
        p.offer(1, 51, -999);
        assert_eq!(
            p.offer_or_min(0, 999, 1),
            OfferOutcome::BucketFull {
                min_fp: 1,
                min_qw: 101
            }
        );
    }

    #[test]
    fn all_saturated_bucket_elects_first_live_slot() {
        // Every live Qweight at i32::MAX ties the saturated padding lanes;
        // the election mask must keep the winner inside the bucket. Use the
        // LAST bucket so the window reads the actual tail padding.
        let mut p = CandidatePart::new(2, 6, 9);
        let last = p.buckets() - 1;
        for fp in 1..=6u16 {
            p.offer(last, fp, i64::from(i32::MAX));
        }
        assert_eq!(
            p.offer_or_min(last, 999, 1),
            OfferOutcome::BucketFull {
                min_fp: 1,
                min_qw: i64::from(i32::MAX)
            }
        );
        // The padding itself must stay pristine through it all.
        use qf_sketch::invariants::CheckInvariants;
        p.check_invariants().expect("padding must stay saturated");
    }

    #[test]
    fn clear_preserves_padding_discipline() {
        let mut p = CandidatePart::new(2, 6, 11);
        for fp in 1..=6u16 {
            p.offer(0, fp, 7);
        }
        p.clear();
        use qf_sketch::invariants::CheckInvariants;
        p.check_invariants()
            .expect("clear must leave fp padding zero and qw padding saturated");
        assert_eq!(p.occupancy(), 0);
        assert_eq!(p.iter_entries().count(), 0);
    }

    #[test]
    fn zero_fingerprint_zero_qweight_is_a_real_entry() {
        // ⟨fp 0, qw 0⟩ is indistinguishable from a freed slot in the payload
        // arrays — only the occupancy mask separates them. The SWAR probe
        // must find the occupied zero entry and must NOT match freed slots.
        let mut p = CandidatePart::new(1, 4, 3);
        assert_eq!(p.get(0, 0), None);
        assert_eq!(p.offer(0, 0, 0), CandidateOutcome::Inserted);
        assert_eq!(p.get(0, 0), Some(0));
        assert_eq!(p.remove(0, 0), Some(0));
        assert_eq!(p.get(0, 0), None);
        assert_eq!(
            p.offer_or_min(0, 0, 0),
            OfferOutcome::Inserted,
            "freed slot must not false-match a zero probe"
        );
        assert_eq!(p.get(0, 0), Some(0));
    }

    #[test]
    fn replace_swaps_entry() {
        let mut p = CandidatePart::new(1, 2, 3);
        p.offer(0, 1, -2);
        p.offer(0, 2, 8);
        let evicted = p.replace(0, 1, 99, 11);
        assert_eq!(evicted, Some(-2));
        assert_eq!(p.get(0, 99), Some(11));
        assert_eq!(p.get(0, 1), None);
    }

    #[test]
    fn reset_zeroes_but_keeps_entry() {
        let mut p = part();
        let b = p.bucket_of(&5u64);
        let fp = p.fingerprint_of(&5u64);
        p.offer(b, fp, 50);
        assert_eq!(p.reset_entry(b, fp), Some(50));
        assert_eq!(p.get(b, fp), Some(0));
    }

    #[test]
    fn remove_frees_slot() {
        let mut p = CandidatePart::new(1, 1, 4);
        p.offer(0, 7, 3);
        assert_eq!(p.remove(0, 7), Some(3));
        assert_eq!(p.get(0, 7), None);
        // Slot is reusable.
        assert_eq!(p.offer(0, 8, 1), CandidateOutcome::Inserted);
    }

    #[test]
    fn memory_accounting_six_bytes_per_entry() {
        let p = CandidatePart::new(10, 6, 5);
        assert_eq!(p.memory_bytes(), 10 * 6 * ENTRY_BYTES);
        let p = CandidatePart::with_memory_budget(6, 3600, 5);
        assert!(p.memory_bytes() <= 3600);
        assert_eq!(p.buckets(), 100);
    }

    #[test]
    fn qweight_saturates_at_i32() {
        let mut p = CandidatePart::new(1, 1, 6);
        p.offer(0, 1, i64::from(i32::MAX) - 1);
        let out = p.offer(0, 1, 100);
        assert_eq!(
            out,
            CandidateOutcome::Updated {
                qweight: i64::from(i32::MAX)
            }
        );
    }

    #[test]
    fn occupancy_and_iter() {
        let mut p = CandidatePart::new(2, 2, 7);
        p.offer(0, 1, 1);
        p.offer(1, 2, 2);
        assert_eq!(p.occupancy(), 2);
        let entries: Vec<_> = p.iter_entries().collect();
        assert_eq!(entries.len(), 2);
        p.clear();
        assert_eq!(p.occupancy(), 0);
    }

    #[test]
    fn buckets_distribute_keys() {
        let p = CandidatePart::new(64, 4, 8);
        let mut counts = vec![0u32; 64];
        for k in 0u64..64_000 {
            counts[p.bucket_of(&k)] += 1;
        }
        for &c in &counts {
            assert!((f64::from(c) - 1000.0).abs() < 250.0);
        }
    }

    #[test]
    fn prefetch_tolerates_out_of_range_bucket() {
        // The batch tail prefetches the "next" item's bucket, which past the
        // last live item can be any index — including one past the bucket
        // array. The guard must turn those into no-ops.
        let p = CandidatePart::new(4, 3, 11);
        p.prefetch(0);
        p.prefetch(3);
        p.prefetch(4);
        p.prefetch(usize::MAX);
    }

    #[test]
    fn coords_of_prehashed_matches_coords_of() {
        let p = CandidatePart::new(64, 6, 0xA11CE);
        for k in 0u64..1000 {
            let pre = qf_hash::StreamKey::prehash(&k).expect("u64 keys expose a prehash");
            assert_eq!(p.coords_of_prehashed(pre), p.coords_of(&k));
            // And coords_of itself equals the split hashes.
            assert_eq!(p.coords_of(&k).bucket, p.bucket_of(&k));
            assert_eq!(p.coords_of(&k).fp, p.fingerprint_of(&k));
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_get_after_offer_roundtrips(fps in proptest::collection::vec(0u16..100, 1..20)) {
            // Within a single bucket of ample size, an offered fp is always
            // retrievable with its cumulative weight.
            let mut p = CandidatePart::new(1, 128, 9);
            let mut truth = std::collections::HashMap::new();
            for (i, &fp) in fps.iter().enumerate() {
                let w = (i as i64 % 11) - 5;
                p.offer(0, fp, w);
                *truth.entry(fp).or_insert(0i64) += w;
            }
            for (&fp, &qw) in &truth {
                proptest::prop_assert_eq!(p.get(0, fp), Some(qw));
            }
        }
    }
}
