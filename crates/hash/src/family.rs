//! Seeded hash families: the `h_i`, `S_i` and `h_b` functions of Table I.
//!
//! A [`HashFamily`] owns `d` independent per-row seeds derived from one
//! master seed. For each row `i` it can produce
//!
//! * a column index `h_i(x) ∈ [0, w)` ([`HashFamily::column`]), and
//! * a sign `S_i(x) ∈ {−1, +1}` ([`HashFamily::sign`])
//!
//! from a *single* 64-bit hash evaluation per row: the low bits select the
//! column and bit 63 selects the sign, which keeps the per-item work of the
//! Count sketch at `d` hash calls, matching the paper's constant-time
//! insertion claim.

use crate::key::StreamKey;
use crate::splitmix::{mix64, SplitMix64};

/// Bit 63 of the raw hash carries the sign `S_i(x)`; the column computation
/// masks it out so sign and column are statistically independent.
const SIGN_MASK: u64 = (1 << 63) - 1;

/// A family of `d` seeded hash functions over `[0, w)` with paired signs.
#[derive(Debug)]
pub struct HashFamily {
    seeds: Vec<u64>,
    width: usize,
}

// By hand so that `clone_from` copies into the existing seed table.
impl Clone for HashFamily {
    fn clone(&self) -> Self {
        Self {
            seeds: self.seeds.clone(),
            width: self.width,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.seeds.clone_from(&source.seeds);
        self.width = source.width;
    }
}

impl HashFamily {
    /// Build a family of `rows` functions over columns `[0, width)` from a
    /// master seed.
    ///
    /// # Panics
    /// Panics if `rows == 0` or `width == 0`.
    pub fn new(rows: usize, width: usize, master_seed: u64) -> Self {
        assert!(rows > 0, "hash family needs at least one row");
        assert!(width > 0, "hash family needs a positive width");
        let mut gen = SplitMix64::new(master_seed);
        let seeds = (0..rows).map(|_| gen.next_u64()).collect();
        Self { seeds, width }
    }

    /// Number of rows `d`.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.seeds.len()
    }

    /// Number of columns `w`.
    #[inline(always)]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Raw 64-bit hash of `key` in row `i`.
    #[inline(always)]
    pub fn raw<K: StreamKey + ?Sized>(&self, row: usize, key: &K) -> u64 {
        key.hash_with_seed(self.seeds[row])
    }

    /// Column index `h_i(x)` for row `i`.
    #[inline(always)]
    pub fn column<K: StreamKey + ?Sized>(&self, row: usize, key: &K) -> usize {
        // Multiply-shift range reduction avoids the modulo bias and the
        // division; requires only that the hash's high bits be good, which
        // mix64/xxh64 guarantee. Bit 63 is masked out because it is reserved
        // for the sign — the column must be independent of S_i(x).
        let h = self.raw(row, key) & SIGN_MASK;
        ((u128::from(h) * (self.width as u128)) >> 63) as usize
    }

    /// Sign `S_i(x) ∈ {−1, +1}` for row `i`.
    #[inline(always)]
    pub fn sign<K: StreamKey + ?Sized>(&self, row: usize, key: &K) -> i64 {
        // Bit 63 is independent of the bits consumed by `column` (which uses
        // bits 0..=62 via the multiply-shift above).
        if self.raw(row, key) >> 63 == 0 {
            1
        } else {
            -1
        }
    }

    /// Column and sign together from one hash evaluation — the hot path.
    #[inline(always)]
    pub fn column_and_sign<K: StreamKey + ?Sized>(&self, row: usize, key: &K) -> (usize, i64) {
        let h = self.raw(row, key);
        let col = ((u128::from(h & SIGN_MASK) * (self.width as u128)) >> 63) as usize;
        let sign = if h >> 63 == 0 { 1 } else { -1 };
        (col, sign)
    }

    /// Raw row hash from a key's [`StreamKey::prehash`] digest. Bit-identical
    /// to [`HashFamily::raw`] by the prehash contract, one mix round instead
    /// of two.
    #[inline(always)]
    pub fn raw_prehashed(&self, row: usize, prehash: u64) -> u64 {
        mix64(self.seeds[row] ^ prehash)
    }

    /// Column and sign from a prehash digest — bit-identical to
    /// [`HashFamily::column_and_sign`] for the key that produced it.
    #[inline(always)]
    pub fn column_and_sign_prehashed(&self, row: usize, prehash: u64) -> (usize, i64) {
        let h = self.raw_prehashed(row, prehash);
        let col = ((u128::from(h & SIGN_MASK) * (self.width as u128)) >> 63) as usize;
        let sign = if h >> 63 == 0 { 1 } else { -1 };
        (col, sign)
    }

    /// Heap size of this family in bytes (seed table only).
    pub fn memory_bytes(&self) -> usize {
        self.seeds.len() * core::mem::size_of::<u64>()
    }

    /// The per-row seed table, for snapshotting.
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// Rebuild a family from a snapshotted seed table and width. Returns
    /// `None` (instead of panicking) when the dimensions are degenerate, so
    /// the restore path stays panic-free on corrupted input.
    pub fn from_seeds(seeds: Vec<u64>, width: usize) -> Option<Self> {
        if seeds.is_empty() || width == 0 {
            return None;
        }
        Some(Self { seeds, width })
    }
}

/// A single seeded hash over `[0, buckets)` — the bucket hash `h_b` of the
/// candidate part.
#[derive(Debug, Clone)]
pub struct RowHasher {
    seed: u64,
    range: usize,
}

impl RowHasher {
    /// Build a hasher over `[0, range)`.
    ///
    /// # Panics
    /// Panics if `range == 0`.
    pub fn new(range: usize, seed: u64) -> Self {
        assert!(range > 0, "RowHasher range must be positive");
        Self { seed, range }
    }

    /// The output range.
    #[inline(always)]
    pub fn range(&self) -> usize {
        self.range
    }

    /// The seed, for snapshotting.
    #[inline(always)]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Rebuild a hasher from snapshotted parts; `None` when `range == 0`.
    pub fn from_parts(range: usize, seed: u64) -> Option<Self> {
        if range == 0 {
            return None;
        }
        Some(Self { seed, range })
    }

    /// Map a key to `[0, range)`.
    #[inline(always)]
    pub fn index<K: StreamKey + ?Sized>(&self, key: &K) -> usize {
        let h = key.hash_with_seed(self.seed);
        ((u128::from(h) * (self.range as u128)) >> 64) as usize
    }

    /// Map a key's [`StreamKey::prehash`] digest to `[0, range)` —
    /// bit-identical to [`RowHasher::index`] for the key that produced it.
    #[inline(always)]
    pub fn index_prehashed(&self, prehash: u64) -> usize {
        let h = mix64(self.seed ^ prehash);
        ((u128::from(h) * (self.range as u128)) >> 64) as usize
    }
}

/// A seeded ±1 hash usable on its own (e.g. by the naive dual-sketch
/// solution, which signs each sketch independently).
#[derive(Debug, Clone)]
pub struct SignHasher {
    seed: u64,
}

impl SignHasher {
    /// Build a sign hasher.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Return +1 or −1 with equal probability over keys.
    #[inline(always)]
    pub fn sign<K: StreamKey + ?Sized>(&self, key: &K) -> i64 {
        if key.hash_with_seed(self.seed) & 1 == 0 {
            1
        } else {
            -1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_in_range() {
        let fam = HashFamily::new(4, 97, 42);
        for row in 0..4 {
            for k in 0u64..5000 {
                assert!(fam.column(row, &k) < 97);
            }
        }
    }

    #[test]
    fn columns_roughly_uniform() {
        let fam = HashFamily::new(1, 64, 7);
        let mut counts = vec![0u32; 64];
        for k in 0u64..64_000 {
            counts[fam.column(0, &k)] += 1;
        }
        for &c in &counts {
            let dev = (f64::from(c) - 1000.0).abs() / 1000.0;
            assert!(dev < 0.25, "deviation {dev}");
        }
    }

    #[test]
    fn signs_balanced() {
        let fam = HashFamily::new(3, 16, 9);
        for row in 0..3 {
            let pos: i64 = (0u64..20_000).map(|k| fam.sign(row, &k)).sum();
            assert!(pos.abs() < 600, "row {row} imbalance {pos}");
        }
    }

    #[test]
    fn rows_are_independent() {
        // Same key must land in different columns in most row pairs.
        let fam = HashFamily::new(8, 1024, 1);
        let mut collisions = 0;
        for k in 0u64..1000 {
            for a in 0..8 {
                for b in (a + 1)..8 {
                    if fam.column(a, &k) == fam.column(b, &k) {
                        collisions += 1;
                    }
                }
            }
        }
        // 28 row pairs * 1000 keys, expected collisions ≈ 28000/1024 ≈ 27.
        assert!(collisions < 100, "collisions {collisions}");
    }

    #[test]
    fn column_and_sign_matches_separate_calls() {
        let fam = HashFamily::new(5, 333, 77);
        for row in 0..5 {
            for k in 0u64..200 {
                let (c, s) = fam.column_and_sign(row, &k);
                assert_eq!(c, fam.column(row, &k));
                assert_eq!(s, fam.sign(row, &k));
            }
        }
    }

    #[test]
    fn sign_independent_of_column_collisions() {
        // Regression test: colliding keys must NOT share signs, or the
        // Count sketch estimator becomes positively biased.
        let mut sum = 0i64;
        let mut n = 0i64;
        for seed in 0..500u64 {
            let fam = HashFamily::new(1, 16, seed);
            let c0 = fam.column(0, &0u64);
            let s0 = fam.sign(0, &0u64);
            for k in 1u64..100 {
                if fam.column(0, &k) == c0 {
                    sum += s0 * fam.sign(0, &k);
                    n += 1;
                }
            }
        }
        let mean = sum as f64 / n as f64;
        assert!(
            mean.abs() < 0.05,
            "sign/column correlation {mean} over {n} collisions"
        );
    }

    #[test]
    fn row_hasher_range_and_uniformity() {
        let rh = RowHasher::new(13, 5);
        let mut counts = vec![0u32; 13];
        for k in 0u64..13_000 {
            let i = rh.index(&k);
            assert!(i < 13);
            counts[i] += 1;
        }
        for &c in &counts {
            assert!((f64::from(c) - 1000.0).abs() < 250.0);
        }
    }

    #[test]
    fn sign_hasher_balanced() {
        let sh = SignHasher::new(3);
        let sum: i64 = (0u64..10_000).map(|k| sh.sign(&k)).sum();
        assert!(sum.abs() < 400, "imbalance {sum}");
    }

    #[test]
    #[should_panic(expected = "positive width")]
    fn zero_width_panics() {
        let _ = HashFamily::new(1, 0, 0);
    }

    #[test]
    fn prehashed_paths_match_direct_hashing() {
        let fam = HashFamily::new(5, 333, 77);
        let rh = RowHasher::new(97, 0xFACE);
        for k in 0u64..500 {
            let p = k.prehash().expect("u64 keys expose a prehash");
            for row in 0..5 {
                assert_eq!(fam.raw_prehashed(row, p), fam.raw(row, &k));
                assert_eq!(
                    fam.column_and_sign_prehashed(row, p),
                    fam.column_and_sign(row, &k)
                );
            }
            assert_eq!(rh.index_prehashed(p), rh.index(&k));
        }
    }
}
