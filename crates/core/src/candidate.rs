//! The candidate part (§III-B): `m` buckets of `b` entries, each entry a
//! `⟨fingerprint, Qweight⟩` pair tracking a likely-outstanding key exactly.
//!
//! Entries store a 16-bit fingerprint plus a 32-bit signed Qweight counter.
//! Space accounting per entry is therefore 6 bytes, which is what the
//! paper's memory axis (candidate ≈ 80% of the budget at the default 4:1
//! split) charges. It is also what the part allocates, apart from
//! [`FP_PAD`] cells of tail padding per array.
//!
//! # Layout: structure-of-arrays
//!
//! The part stores two parallel arrays instead of an array of slot
//! structs: a flat `Vec<u16>` of fingerprints and a flat `Vec<i32>` of
//! Qweights. A bucket is the contiguous range `[bucket·b, (bucket+1)·b)` of
//! each array (the cuckoo-filter layout). This is what makes the hot bucket
//! scan data-parallel: the probe fingerprint is broadcast across the four
//! 16-bit lanes of a `u64` and compared against packed fingerprint words
//! with the branch-free SWAR detectors of `qf_sketch::simd`, so a 6-entry
//! bucket resolves in two packed compares instead of six compare-and-branch
//! iterations. The fingerprint array carries [`FP_PAD`] zeroed cells of
//! tail padding so every bucket's probe window is whole packed words with
//! no scalar remainder (the Qweight array carries the same amount of
//! *saturated* padding for the fixed-window election — see
//! [`QW_PAD_VALUE`]).
//!
//! # Fingerprint 0 marks a free slot
//!
//! No entry holds fingerprint 0, as in a cuckoo filter: `fingerprint_of`,
//! `coords_of` and `coords_of_prehashed` map a computed 0 to 1. A key whose
//! `h_fp` is 0 (1 key in 65,536) then shares fingerprint 1 in its bucket,
//! like any other fingerprint collision. A slot is free if and only if its
//! fingerprint is 0, so occupancy needs no array of its own: the packed
//! words that the probe loads give both the lanes matching the probe and
//! the free (zero) lanes, and a miss takes its first free slot from the
//! same words in the same pass. The slot methods take nonzero fingerprints
//! (debug-asserted where an entry is written), and a lookup of 0 finds
//! nothing.
//!
//! The snapshot wire format is unchanged from the AoS layout (per slot:
//! occupancy byte, fingerprint, Qweight, in slot order), with the
//! occupancy byte derived from `fp != 0`. An occupied slot with fingerprint
//! 0, written before 0 marked a free slot, decodes as fingerprint 1: what
//! its key hashes to now.

use qf_hash::wire::{ByteReader, ByteWriter, WireError};
use qf_hash::{
    fingerprint16, fingerprint16_prehashed, stripe_digest, HashedKey, RowHasher, StreamKey,
};
use qf_sketch::simd::{broadcast4, eq_lanes4, pack4, zero_lanes4, LANES_PER_WORD};

/// Bytes charged per entry: 2 (fingerprint) + 4 (Qweight counter).
pub const ENTRY_BYTES: usize = 6;

/// Bytes per slot in a snapshot's state section: the occupancy flag plus
/// the entry (see [`CandidatePart::write_state`]).
const SLOT_WIRE_BYTES: usize = 1 + ENTRY_BYTES;

/// Zeroed fingerprint slots appended past the last bucket so every bucket's
/// probe window `[start, start + bucket_len.next_multiple_of(4))` is in
/// bounds — the SWAR scan then runs whole packed words with no scalar
/// remainder loop. Padding (and any cross-bucket lanes inside the window)
/// is stripped by the tail mask before match or free lanes are consumed,
/// and the padding cells are never written, so they stay zero for the life
/// of the part (enforced by `check_invariants`). Not charged by
/// `memory_bytes`.
pub(crate) const FP_PAD: usize = LANES_PER_WORD - 1;

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

/// High bit of every 16-bit lane: the lane flags of `qf_sketch::simd`.
const LANE_HI: u64 = 0x8000_8000_8000_8000;

/// The fingerprint an entry stores for a key whose `h_fp` is `fp`: 0 marks
/// a free slot, so a computed 0 becomes 1.
#[inline(always)]
fn stored_fp(fp: u16) -> u16 {
    fp.max(1)
}

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

/// What one probe of a bucket found for a fingerprint, as a slot index
/// within the bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Probe {
    /// The entry holding the fingerprint (the lowest, if several did).
    Match(usize),
    /// No entry holds it; this is the bucket's first free slot.
    Free(usize),
    /// No entry holds it and the bucket has no free slot.
    Full,
}

/// The candidate array, in structure-of-arrays layout (see module docs).
#[derive(Debug)]
pub struct CandidatePart {
    /// Fingerprint of every slot; 0 marks a free slot.
    fps: Vec<u16>,
    /// Qweight of every slot; 0 for free slots.
    qws: Vec<i32>,
    buckets: usize,
    bucket_len: usize,
    bucket_hash: RowHasher,
    fp_seed: u64,
}

// By hand so that `clone_from` copies into the existing slot arrays.
impl Clone for CandidatePart {
    fn clone(&self) -> Self {
        Self {
            fps: self.fps.clone(),
            qws: self.qws.clone(),
            bucket_hash: self.bucket_hash.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.fps.clone_from(&source.fps);
        self.qws.clone_from(&source.qws);
        self.bucket_hash.clone_from(&source.bucket_hash);
        self.buckets = source.buckets;
        self.bucket_len = source.bucket_len;
        self.fp_seed = source.fp_seed;
    }
}

/// Primitive integers, the element types of the slot arrays: no padding,
/// every byte initialized.
trait SlotWord: Copy {}
impl SlotWord for u16 {}
impl SlotWord for i32 {}

/// Stripe digest of a slot array's in-memory bytes (native endian),
/// chained from `seed`.
fn digest_words<T: SlotWord>(words: &[T], seed: u64) -> u64 {
    // SAFETY: `SlotWord` types are primitive integers, so every byte of
    // `words` is initialized; `u8` has alignment 1; and the byte slice
    // covers exactly `size_of_val(words)` bytes of the same borrow.
    let bytes = unsafe {
        std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), std::mem::size_of_val(words))
    };
    stripe_digest(bytes, seed)
}

impl CandidatePart {
    /// Create a part with `buckets` buckets of `bucket_len` entries, or
    /// `None` if either dimension is zero.
    pub fn try_new(buckets: usize, bucket_len: usize, seed: u64) -> Option<Self> {
        if bucket_len == 0 {
            return None;
        }
        let bucket_hash = RowHasher::from_parts(buckets, seed ^ 0xB0C4_15E5)?;
        Some(Self {
            fps: vec![0; buckets * bucket_len + FP_PAD],
            qws: {
                let mut qws = vec![0; buckets * bucket_len + FP_PAD];
                qws[buckets * bucket_len..].fill(QW_PAD_VALUE);
                qws
            },
            buckets,
            bucket_len,
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

    /// Charged memory in bytes: the two slot arrays without their padding
    /// cells (see [`FP_PAD`]), which exist for loadability, not capacity.
    pub fn memory_bytes(&self) -> usize {
        self.buckets * self.bucket_len * ENTRY_BYTES
    }

    /// Number of occupied entries.
    pub fn occupancy(&self) -> usize {
        let slots = self.buckets * self.bucket_len;
        self.fps[..slots].iter().filter(|&&fp| fp != 0).count()
    }

    /// The bucket index a key hashes to (`h_b(x)`).
    #[inline(always)]
    pub fn bucket_of<K: StreamKey + ?Sized>(&self, key: &K) -> usize {
        self.bucket_hash.index(key)
    }

    /// The key's candidate fingerprint: `h_fp(x)`, with 0 mapped to 1
    /// because 0 marks a free slot (see module docs).
    #[inline(always)]
    pub fn fingerprint_of<K: StreamKey + ?Sized>(&self, key: &K) -> u16 {
        stored_fp(fingerprint16(key, self.fp_seed))
    }

    /// Both candidate coordinates — `h_b(x)` and the fingerprint of
    /// [`Self::fingerprint_of`] — captured once per insert and carried
    /// through the whole operation, so neither hash is ever recomputed
    /// mid-insert. Fixed-width keys route through their seed-independent
    /// prehash digest, sharing one mix round between the bucket and
    /// fingerprint hashes (bit-identically — see [`StreamKey::prehash`]).
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
            fp: stored_fp(fingerprint16_prehashed(prehash, self.fp_seed)),
        }
    }

    /// Hint-prefetch a bucket's fingerprint and Qweight lines ahead of
    /// [`Self::offer_or_min`] — used by the batch ingest path, whose pass 1
    /// hashes a whole chunk and prefetches each item's own bucket before
    /// pass 2 applies any of them. Out-of-range buckets are ignored rather
    /// than prefetched: that caller only passes live buckets, but a hint
    /// pointing past the allocation, while architecturally harmless, is a
    /// bounds bug waiting for a non-hint rewrite, so the guard stays.
    #[inline(always)]
    pub fn prefetch(&self, bucket: usize) {
        if bucket >= self.buckets {
            return;
        }
        let start = bucket * self.bucket_len;
        qf_sketch::prefetch_read(self.fps.as_ptr().wrapping_add(start));
        qf_sketch::prefetch_read(self.qws.as_ptr().wrapping_add(start));
    }

    /// Find `fp` in `bucket` and, failing that, the bucket's first free
    /// slot — one pass over the fingerprints.
    ///
    /// Every bucket width takes the SWAR probe. Thanks to [`FP_PAD`] the
    /// window `[start, start + bucket_len.next_multiple_of(4))` is always
    /// in bounds, so the scan is whole packed words with no scalar
    /// remainder. Each word gives both its match lanes (`eq_lanes4`) and
    /// its free lanes (`zero_lanes4`: free slots hold 0 and no entry
    /// does), and the last word's lanes past `bucket_len` — padding or the
    /// next bucket's slots — are stripped from both. The lane's slot index
    /// falls out of `trailing_zeros` of the per-lane high-bit mask (bit
    /// `16i + 15` ⇔ lane `i`). A miss takes its free slot from the words
    /// already loaded, so the window is never read twice.
    ///
    /// `fp` must be nonzero: a probe for 0 matches the free slots.
    #[inline(always)]
    fn probe(&self, bucket: usize, fp: u16) -> Probe {
        let start = bucket * self.bucket_len;
        let probe4 = broadcast4(fp);
        let tail_mask = LANE_HI >> (16 * (self.bucket_len.wrapping_neg() & (LANES_PER_WORD - 1)));
        let padded = self.bucket_len.next_multiple_of(LANES_PER_WORD);
        let window = &self.fps[start..start + padded];
        let lane = |mask: u64| (mask.trailing_zeros() >> 4) as usize;
        // Paper-shaped buckets (b in 5..=8, default 6) take this fully
        // unrolled two-word probe: the array pattern pins the window length
        // at compile time, so each packed word is a straight 8-byte load
        // with no loop counter and no per-word bounds logic, and a hot
        // key's first-word hit resolves in a handful of cycles.
        if let Ok(w) = <&[u16; 2 * LANES_PER_WORD]>::try_from(window) {
            let w0 = pack4([w[0], w[1], w[2], w[3]]);
            let m0 = eq_lanes4(w0, probe4);
            if m0 != 0 {
                return Probe::Match(lane(m0));
            }
            let w1 = pack4([w[4], w[5], w[6], w[7]]);
            let m1 = eq_lanes4(w1, probe4) & tail_mask;
            if m1 != 0 {
                return Probe::Match(LANES_PER_WORD + lane(m1));
            }
            let z0 = zero_lanes4(w0);
            if z0 != 0 {
                return Probe::Free(lane(z0));
            }
            let z1 = zero_lanes4(w1) & tail_mask;
            if z1 != 0 {
                return Probe::Free(LANES_PER_WORD + lane(z1));
            }
            return Probe::Full;
        }
        let words = padded / LANES_PER_WORD;
        let mut free = None;
        for (w, chunk) in window.chunks_exact(LANES_PER_WORD).enumerate() {
            let word = pack4([chunk[0], chunk[1], chunk[2], chunk[3]]);
            let live = if w + 1 == words { tail_mask } else { LANE_HI };
            let base = w * LANES_PER_WORD;
            let m = eq_lanes4(word, probe4) & live;
            if m != 0 {
                return Probe::Match(base + lane(m));
            }
            let z = zero_lanes4(word) & live;
            if free.is_none() && z != 0 {
                free = Some(base + lane(z));
            }
        }
        free.map_or(Probe::Full, Probe::Free)
    }

    /// Slot index of `fp` among `bucket`'s entries, or `None` — always
    /// `None` for 0, which no entry holds. The index is the *lowest*
    /// matching slot, preserving the slot-order semantics of the scalar
    /// walk (duplicates cannot exist — see `check_invariants` — so this
    /// only matters for defence in depth).
    #[inline]
    fn find_slot(&self, bucket: usize, fp: u16) -> Option<usize> {
        if fp == 0 {
            return None;
        }
        match self.probe(bucket, fp) {
            Probe::Match(i) => Some(i),
            Probe::Free(_) | Probe::Full => None,
        }
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
        debug_assert!(fp != 0, "fingerprint 0 marks a free slot");
        let start = bucket * self.bucket_len;
        let mut free: Option<usize> = None;
        for i in 0..self.bucket_len {
            if self.fps[start + i] != 0 {
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
            return CandidateOutcome::Inserted;
        }
        CandidateOutcome::BucketFull
    }

    /// Offer an item with integer weight `delta`: steps 4–8 of Algorithm 2
    /// (match-and-update, or fill-a-hole, or report bucket-full), resolved
    /// in one scan. When the bucket is full with no fingerprint match, it
    /// also returns the bucket's minimum entry — the election (Algorithm 2
    /// lines 14–17) then needs no second walk of the fingerprints. The
    /// tie-break matches [`Self::min_entry`] exactly: the first minimal
    /// entry in slot order.
    ///
    /// One probe of the packed fingerprint words decides match, free slot
    /// or full (see [`Self::probe`]), and only a full bucket pays the
    /// (branch-light, conditional-move) min scan of its Qweights. Outcomes
    /// and mutations are bit-identical to the scalar walk. `fp` must be
    /// nonzero (debug-asserted).
    #[inline]
    pub fn offer_or_min(&mut self, bucket: usize, fp: u16, delta: i64) -> OfferOutcome {
        debug_assert!(fp != 0, "fingerprint 0 marks a free slot");
        let start = bucket * self.bucket_len;
        let i = match self.probe(bucket, fp) {
            Probe::Match(i) => {
                // The dominant outcome on skewed streams: a hot key revisits
                // its own entry. One fps line scanned (usually one packed
                // word), one qws cell updated through a single bounds check.
                let cell = &mut self.qws[start + i];
                let updated = Self::clamp_qw(i64::from(*cell).saturating_add(delta));
                *cell = updated;
                return OfferOutcome::Updated {
                    qweight: i64::from(updated),
                };
            }
            Probe::Free(i) => {
                self.fps[start + i] = fp;
                self.qws[start + i] = Self::clamp_qw(delta);
                return OfferOutcome::Inserted;
            }
            Probe::Full => self.min_slot(bucket),
        };
        OfferOutcome::BucketFull {
            min_fp: self.fps[start + i],
            min_qw: i64::from(self.qws[start + i]),
        }
    }

    /// Slot index of a full bucket's first minimal Qweight, in slot order
    /// (Algorithm 2 line 14; the tie-break of [`Self::min_entry`]).
    #[inline(always)]
    fn min_slot(&self, bucket: usize) -> usize {
        let start = bucket * self.bucket_len;
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
            if let Ok(w) =
                <&[i32; 2 * LANES_PER_WORD]>::try_from(&self.qws[start..start + 2 * LANES_PER_WORD])
            {
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
                return eqmask.trailing_zeros() as usize;
            }
        }
        // Other widths: strict `<` keeps the first minimal entry, like
        // min_entry's min_by_key; the loop body is two compares and two
        // selects, so it lowers to conditional moves rather than a
        // branchy walk.
        let qws = &self.qws[start..start + b];
        let mut min_i = 0usize;
        let mut min_qw = qws[0];
        for (i, &v) in qws.iter().enumerate().skip(1) {
            if v < min_qw {
                min_qw = v;
                min_i = i;
            }
        }
        min_i
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
            // Fingerprint 0 frees the slot; free slots keep a zero Qweight,
            // which the invariant checker relies on.
            self.fps[idx] = 0;
            self.qws[idx] = 0;
            old
        })
    }

    /// The entry with the smallest Qweight in `bucket` (`⟨fp′, MinQw⟩` of
    /// Algorithm 2 line 14). `None` only if the bucket is somehow empty.
    pub fn min_entry(&self, bucket: usize) -> Option<(u16, i64)> {
        let start = bucket * self.bucket_len;
        (start..start + self.bucket_len)
            .filter(|&i| self.fps[i] != 0)
            .min_by_key(|&i| self.qws[i])
            .map(|i| (self.fps[i], i64::from(self.qws[i])))
    }

    /// Replace the entry `old_fp` in `bucket` with `⟨new_fp, new_qw⟩`
    /// (the candidate⇄vague exchange). Returns the evicted Qweight.
    /// `new_fp` must be nonzero (debug-asserted).
    pub fn replace(&mut self, bucket: usize, old_fp: u16, new_fp: u16, new_qw: i64) -> Option<i64> {
        debug_assert!(new_fp != 0, "fingerprint 0 marks a free slot");
        self.find_slot(bucket, old_fp).map(|i| {
            let idx = bucket * self.bucket_len + i;
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
    }

    /// Iterate over `(bucket, fp, qweight)` of all occupied entries —
    /// used by diagnostics and the eval harness.
    pub fn iter_entries(&self) -> impl Iterator<Item = (usize, u16, i64)> + '_ {
        (0..self.buckets * self.bucket_len)
            .filter(|&i| self.fps[i] != 0)
            .map(|i| (i / self.bucket_len, self.fps[i], i64::from(self.qws[i])))
    }

    /// The bucket hash's seed, for snapshotting.
    pub fn bucket_seed(&self) -> u64 {
        self.bucket_hash.seed()
    }

    /// The fingerprint hash seed, for snapshotting.
    pub fn fp_seed(&self) -> u64 {
        self.fp_seed
    }

    /// Stripe digest of the fingerprint and Qweight arrays, padding
    /// included, chained from `seed` (the candidate half of
    /// [`crate::QuantileFilter::state_digest`]).
    pub(crate) fn state_digest(&self, seed: u64) -> u64 {
        digest_words(&self.qws, digest_words(&self.fps, seed))
    }

    /// The two slot arrays, for tests that inspect or damage them.
    #[cfg(test)]
    pub(crate) fn slots_mut(&mut self) -> (&mut Vec<u16>, &mut Vec<i32>) {
        (&mut self.fps, &mut self.qws)
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
    /// format — unchanged by the SoA layout — and the occupied flag is
    /// `fp != 0`. The records are encoded in place into one block.
    pub(crate) fn write_state(&self, w: &mut ByteWriter) {
        let slots = self.buckets * self.bucket_len;
        // Fixed-size records, so every store below has a constant offset.
        let (records, _) = w
            .put_block(slots * SLOT_WIRE_BYTES)
            .as_chunks_mut::<SLOT_WIRE_BYTES>();
        let entries = records
            .iter_mut()
            .zip(&self.fps[..slots])
            .zip(&self.qws[..slots]);
        for ((record, &fp), &qw) in entries {
            let [f0, f1] = fp.to_le_bytes();
            let [q0, q1, q2, q3] = qw.to_le_bytes();
            *record = [u8::from(fp != 0), f0, f1, q0, q1, q2, q3];
        }
    }

    /// Rebuild the part from snapshotted configuration and slot state.
    /// Never panics: malformed input surfaces as a [`WireError`]. An
    /// occupied slot with fingerprint 0 decodes as fingerprint 1 (see
    /// module docs); a bucket that then holds fingerprint 1 twice is
    /// rejected.
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
        let mut part = Self {
            fps: Vec::with_capacity(buckets * bucket_len + FP_PAD),
            qws: Vec::with_capacity(buckets * bucket_len + FP_PAD),
            buckets,
            bucket_len,
            bucket_hash,
            fp_seed,
        };
        let block = r.get_bytes(buckets * bucket_len * SLOT_WIRE_BYTES)?;
        let (records, _) = block.as_chunks::<SLOT_WIRE_BYTES>();
        for records in records.chunks_exact(bucket_len) {
            let mut ones = 0;
            for &[flag, f0, f1, q0, q1, q2, q3] in records {
                let fp = u16::from_le_bytes([f0, f1]);
                let qw = i32::from_le_bytes([q0, q1, q2, q3]);
                let fp = match flag {
                    0 if fp != 0 || qw != 0 => {
                        return Err(WireError::Invalid("free slot with residual payload"))
                    }
                    0 => 0,
                    1 => stored_fp(fp),
                    _ => return Err(WireError::Invalid("bad slot occupancy flag")),
                };
                ones += usize::from(fp == 1);
                part.fps.push(fp);
                part.qws.push(qw);
            }
            if ones > 1 {
                return Err(WireError::Invalid("bucket holds fingerprint 1 twice"));
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
            let start = b * self.bucket_len;
            let mut seen = [false; u16::MAX as usize + 1];
            for i in start..start + self.bucket_len {
                let fp = self.fps[i];
                if fp == 0 {
                    if self.qws[i] != 0 {
                        // Free slots always hold a zero Qweight; residue
                        // means a remove/clear path missed a field.
                        return Err(V::new(S, format!("free slot in bucket {b} has residue")));
                    }
                } else if std::mem::replace(&mut seen[usize::from(fp)], true) {
                    // offer() never duplicates a fingerprint and replace()
                    // only installs challengers absent from the bucket, so
                    // a duplicate means an update went to the wrong entry.
                    return Err(V::new(
                        S,
                        format!("bucket {b} holds fingerprint {fp:#06x} twice"),
                    ));
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
        // The SWAR probe and the scalar walk must make identical decisions
        // for every bucket length around the 4-lane boundaries, for the
        // unrolled two-word widths, and for wide buckets scanned over many
        // words, with free slots both at the end of a bucket and, after
        // removals, between its entries. The test-only scalar `offer` is
        // the reference; `offer_or_min` takes the SWAR probe at every
        // width.
        for bucket_len in [1usize, 2, 3, 4, 5, 6, 7, 8, 63, 64, 65, 128] {
            let mut swar = CandidatePart::new(2, bucket_len, 77);
            let mut scalar = CandidatePart::new(2, bucket_len, 77);
            for k in 0u64..600 {
                if k % 5 == 4 {
                    // Free the slot of an earlier key, wherever it sits.
                    let victim = k * 3 / 5;
                    let (bucket, fp) = (swar.bucket_of(&victim), swar.fingerprint_of(&victim));
                    let removed = swar.remove(bucket, fp);
                    assert_eq!(
                        removed,
                        scalar.remove(bucket, fp),
                        "len {bucket_len} key {k}"
                    );
                }
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

    /// A key whose `h_fp` is 0 under seed [`FP0_SEED`], found by a search
    /// over the keys from 0 up and kept here so the test does no search.
    const FP0_KEY: u64 = 32_336;
    const FP0_SEED: u64 = 7;

    #[test]
    fn zero_fingerprint_maps_to_one_and_marks_a_free_slot() {
        let mut p = CandidatePart::new(1, 4, FP0_SEED);
        assert_eq!(fingerprint16(&FP0_KEY, p.fp_seed()), 0, "h_fp of the key");
        let hk = p.coords_of(&FP0_KEY);
        assert_eq!(hk.fp, 1);
        assert_eq!(p.fingerprint_of(&FP0_KEY), 1);

        // No entry holds 0, so a lookup of 0 finds nothing, free slots
        // included.
        assert_eq!(p.get(0, 0), None);
        for fp in [hk.fp, 2, 3, 4] {
            assert_eq!(p.offer_or_min(0, fp, 5), OfferOutcome::Inserted);
        }
        assert_eq!(p.get(0, 0), None);
        assert_eq!(p.get(0, hk.fp), Some(5));

        // A removed slot takes the next insert.
        assert_eq!(p.remove(0, hk.fp), Some(5));
        assert_eq!(p.get(0, 0), None);
        assert_eq!(p.occupancy(), 3);
        assert_eq!(p.offer_or_min(0, 9, -1), OfferOutcome::Inserted);
        assert_eq!(p.slots_mut().0[..4], [9, 2, 3, 4]);
        assert_eq!(p.get(0, 9), Some(-1));
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
        // The guard is the contract: any index, including one past the
        // bucket array, must be a no-op rather than a hint past the
        // allocation.
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
        fn prop_get_after_offer_roundtrips(fps in proptest::collection::vec(1u16..100, 1..20)) {
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
