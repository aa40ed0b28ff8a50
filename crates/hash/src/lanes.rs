//! Per-insert hash precomputation: [`HashedKey`] and [`RowLanes`].
//!
//! The paper's O(1)-per-item claim is about *hash evaluations*, not just
//! counter touches: Table I's functions `h_b`, `h_fp`, `h_i`, `S_i` are
//! each supposed to run once per item. The original hot path recomputed
//! the per-row `(h_i(x), S_i(x))` pairs inside every sketch operation —
//! `add`, `estimate`, and `remove_estimate` each rehashed the key against
//! all `d` row seeds, so a vague-path insert cost up to `4d` row hashes
//! instead of `d` (Ivkin et al. make the same observation for KLL-family
//! summaries: update cost, not space, binds at line rate).
//!
//! This module is the fix. A [`RowLanes`] value captures every per-row
//! coordinate of one key in a single pass over the hash family; the
//! sketches then accept the lanes instead of the key, so the row hashes
//! are computed exactly once per insert no matter how many sketch
//! operations the control flow performs. [`HashedKey`] is the analogous
//! capture of the candidate-part coordinates: the 128-bit digest formed by
//! the bucket hash word and the fingerprint hash word, reduced to
//! `(h_b(x), h_fp(x))` once and carried through the whole insert.
//!
//! Both types are plain `Copy` data with no heap storage, so caching them
//! per insert costs a few stack bytes and nothing else.

use crate::family::HashFamily;
use crate::key::StreamKey;

/// Maximum number of rows a [`RowLanes`] can carry. Deliberately *smaller*
/// than the sketches' depth ceiling (`qf_sketch::count_sketch::MAX_DEPTH` is
/// 32): a `RowLanes` lives on the per-item hot path, where its fixed column
/// array is zero-initialized and copied on every insert, so its footprint is
/// sized for the depths that path actually runs (the paper's default is
/// `d = 3`; Table II never exceeds 8) rather than the diagnostic sweeps of
/// Fig. 9. Families deeper than this fall back to per-call hashing — slower,
/// never wrong.
pub const MAX_LANES: usize = 8;

/// The candidate-part coordinates of one key: bucket index `h_b(x)` and
/// 16-bit fingerprint `h_fp(x)`, computed once per insert from the two
/// 64-bit halves of the key's candidate digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashedKey {
    /// The candidate bucket `h_b(x)`.
    pub bucket: usize,
    /// The candidate fingerprint `h_fp(x)`.
    pub fp: u16,
}

/// All `d` per-row `(h_i(x), S_i(x))` coordinates of one key under a
/// [`HashFamily`], computed in one pass.
///
/// Columns are stored as a fixed array (no allocation — this type is built
/// on the per-item hot path); signs are packed into one bitmask word. A
/// family deeper than [`MAX_LANES`] yields an *empty* lanes value, which
/// consumers treat as "no precomputation available" and serve from the key
/// instead — so correctness never depends on the depth ceiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowLanes {
    cols: [u32; MAX_LANES],
    /// Bit `i` set ⇔ row `i`'s sign is −1.
    neg: u32,
    len: u8,
}

impl RowLanes {
    /// The "no precomputation" value: zero rows. Sketches receiving this
    /// fall back to hashing the key per call.
    #[inline(always)]
    pub const fn empty() -> Self {
        Self {
            cols: [0; MAX_LANES],
            neg: 0,
            len: 0,
        }
    }

    /// Number of rows captured.
    #[inline(always)]
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// `true` when no rows are captured (the fallback marker).
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Column index `h_i(x)` of row `i`.
    ///
    /// # Panics
    /// Panics if `row >= MAX_LANES` (callers iterate `0..self.len()`).
    #[inline(always)]
    pub fn col(&self, row: usize) -> usize {
        self.cols[row] as usize
    }

    /// Sign `S_i(x) ∈ {−1, +1}` of row `i`.
    #[inline(always)]
    pub fn sign(&self, row: usize) -> i64 {
        if self.neg >> row & 1 == 0 {
            1
        } else {
            -1
        }
    }

    /// Iterate `(column, sign)` over the captured rows.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (usize, i64)> + '_ {
        (0..self.len()).map(move |row| (self.col(row), self.sign(row)))
    }
}

impl HashFamily {
    /// Capture every row's `(column, sign)` for `key` in one pass — the
    /// per-insert precomputation of the one-pass hot path. Returns
    /// [`RowLanes::empty`] when the family is deeper than [`MAX_LANES`] or
    /// wider than `u32` columns can index, in which case callers serve the
    /// key per call exactly as before.
    #[inline]
    pub fn lanes<K: StreamKey + ?Sized>(&self, key: &K) -> RowLanes {
        let rows = self.rows();
        if rows > MAX_LANES || self.width() > u32::MAX as usize {
            return RowLanes::empty();
        }
        // Fixed-width keys factor through a seed-independent prehash digest
        // (see `StreamKey::prehash`): the d row hashes then each cost one
        // mix round instead of two, bit-identically.
        if let Some(p) = key.prehash() {
            return self.lanes_prehashed_unchecked(p, rows);
        }
        let mut lanes = RowLanes {
            cols: [0; MAX_LANES],
            neg: 0,
            len: rows as u8,
        };
        for row in 0..rows {
            let (col, sign) = self.column_and_sign(row, key);
            lanes.cols[row] = col as u32;
            lanes.neg |= u32::from(sign < 0) << row;
        }
        lanes
    }

    #[inline(always)]
    fn lanes_prehashed_unchecked(&self, prehash: u64, rows: usize) -> RowLanes {
        let mut lanes = RowLanes {
            cols: [0; MAX_LANES],
            neg: 0,
            len: rows as u8,
        };
        for row in 0..rows {
            let (col, sign) = self.column_and_sign_prehashed(row, prehash);
            lanes.cols[row] = col as u32;
            lanes.neg |= u32::from(sign < 0) << row;
        }
        lanes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_match_per_call_hashing() {
        let fam = HashFamily::new(7, 513, 0xABCD);
        for k in 0u64..500 {
            let lanes = fam.lanes(&k);
            assert_eq!(lanes.len(), 7);
            assert!(!lanes.is_empty());
            for row in 0..7 {
                let (col, sign) = fam.column_and_sign(row, &k);
                assert_eq!(lanes.col(row), col, "key {k} row {row} column");
                assert_eq!(lanes.sign(row), sign, "key {k} row {row} sign");
            }
        }
    }

    #[test]
    fn iter_yields_all_rows_in_order() {
        let fam = HashFamily::new(4, 64, 9);
        let lanes = fam.lanes(&1234u64);
        let collected: Vec<(usize, i64)> = lanes.iter().collect();
        assert_eq!(collected.len(), 4);
        for (row, &(col, sign)) in collected.iter().enumerate() {
            assert_eq!((col, sign), fam.column_and_sign(row, &1234u64));
        }
    }

    #[test]
    fn empty_lanes_are_the_fallback_marker() {
        let lanes = RowLanes::empty();
        assert!(lanes.is_empty());
        assert_eq!(lanes.len(), 0);
        assert_eq!(lanes.iter().count(), 0);
    }

    #[test]
    fn max_depth_families_still_capture() {
        let fam = HashFamily::new(MAX_LANES, 100, 3);
        let lanes = fam.lanes(&7u64);
        assert_eq!(lanes.len(), MAX_LANES);
        // Row 31's sign must round-trip through the top bit of the mask.
        assert_eq!(lanes.sign(MAX_LANES - 1), fam.sign(MAX_LANES - 1, &7u64));
    }

    #[test]
    fn string_keys_capture_like_integers() {
        let fam = HashFamily::new(3, 4096, 11);
        let lanes = fam.lanes("flow-key-17");
        for row in 0..3 {
            assert_eq!(
                (lanes.col(row), lanes.sign(row)),
                fam.column_and_sign(row, "flow-key-17")
            );
        }
    }
}
