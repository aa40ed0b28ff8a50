//! The [`WeightSketch`] abstraction that the QuantileFilter core builds on.
//!
//! Both vague-part candidates — the Count sketch and the signed Count-Min
//! sketch — expose the same four operations: weighted add, point estimate,
//! estimate-removal (the reset used after a report), and full clear. The
//! core is generic over this trait so Fig. 12's CS-vs-CMS ablation is a
//! type parameter swap rather than a code fork.

use crate::counter::SketchCounter;
use qf_hash::{mix64, stripe_digest, RowLanes, StreamKey};

/// A sketch of signed, weighted per-key sums.
pub trait WeightSketch {
    /// Add `delta` to the key's tracked sum.
    fn add<K: StreamKey + ?Sized>(&mut self, key: &K, delta: i64);

    /// Estimate the key's tracked sum.
    fn estimate<K: StreamKey + ?Sized>(&self, key: &K) -> i64;

    /// Remove the key's current estimate from the structure and return what
    /// was removed. This is the deletion operation of §III-A: "decrementing
    /// the mapped counter `C_i[h_i(x)]` by `S_i(x)·Q̂w(x)` in each row".
    fn remove_estimate<K: StreamKey + ?Sized>(&mut self, key: &K) -> i64;

    /// Precompute the key's per-row `(h_i, S_i)` coordinates so the one-pass
    /// entry points below can skip rehashing. Implementations that cannot
    /// precompute (or whose depth exceeds [`qf_hash::MAX_LANES`]) return
    /// [`RowLanes::empty`], and every lane-taking method falls back to the
    /// per-call key hashing of `add`/`estimate`/`remove_estimate`.
    #[inline]
    fn prepare_lanes<K: StreamKey + ?Sized>(&self, key: &K) -> RowLanes {
        let _ = key;
        RowLanes::empty()
    }

    /// Add `delta` and return the post-add estimate, touching each counter
    /// row exactly once. Equivalent to `add(key, delta)` followed by
    /// `estimate(key)` — the default does exactly that — but lane-aware
    /// implementations fuse the two into one pass with zero extra hashing.
    #[inline]
    fn add_and_estimate<K: StreamKey + ?Sized>(
        &mut self,
        key: &K,
        lanes: &RowLanes,
        delta: i64,
    ) -> i64 {
        let _ = lanes;
        self.add(key, delta);
        self.estimate(key)
    }

    /// Remove a *known* estimate from the structure and return it. The
    /// caller passes the estimate it already holds (from
    /// [`WeightSketch::add_and_estimate`]); lane-aware implementations
    /// subtract it directly instead of re-deriving it with a fresh round of
    /// hashing, guaranteeing the removed value is the very estimate the
    /// caller acted on. The default ignores `estimate` and delegates to
    /// [`WeightSketch::remove_estimate`], which recomputes the same value.
    #[inline]
    fn fetch_remove<K: StreamKey + ?Sized>(
        &mut self,
        key: &K,
        lanes: &RowLanes,
        estimate: i64,
    ) -> i64 {
        let _ = (lanes, estimate);
        self.remove_estimate(key)
    }

    /// Reset every counter to zero (the periodic reset of §III-B).
    fn clear(&mut self);

    /// Bytes of counter storage (excluding seeds and struct overhead); this
    /// is the quantity the paper's memory axis measures.
    fn memory_bytes(&self) -> usize;

    /// Short implementation name for experiment logs ("CS", "CMS").
    fn kind_name(&self) -> &'static str;

    /// A digest of the sketch's state (row seeds and counter cells),
    /// chained from `seed`, made with the in-memory
    /// [`qf_hash::stripe_digest`] kernel, not xxh64: it is never
    /// persisted. Equal sketches have equal digests, so a stored digest
    /// tells a damaged copy from a good one.
    fn state_digest(&self, seed: u64) -> u64;
}

/// The [`WeightSketch::state_digest`] of a sketch made of row seeds and a
/// cell grid: the seeds are folded into the seed of one stripe digest over
/// the grid's bytes.
pub(crate) fn digest_seeds_and_cells<C: SketchCounter>(
    seeds: &[u64],
    cells: &[C],
    seed: u64,
) -> u64 {
    let seed = seeds.iter().fold(seed, |h, &s| mix64(h ^ s));
    stripe_digest(C::as_bytes(cells), seed)
}

/// Best-effort prefetch of the cache line containing `p`. A pure hint: it
/// performs no architectural memory access and never faults, so any address
/// is acceptable. Compiles to nothing off x86_64.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHT0 is a hint instruction with no observable effect on
    // program state; it is defined for arbitrary addresses.
    unsafe {
        core::arch::x86_64::_mm_prefetch(p.cast::<i8>(), core::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Compute the median of a small slice in place (the `Median_{i=1}^d` of
/// Algorithm 1). For even lengths returns the lower-middle-rounded mean of
/// the two central elements, matching common Count-sketch practice.
#[inline]
pub fn median_in_place(values: &mut [i64]) -> i64 {
    assert!(!values.is_empty(), "median of empty slice");
    let mid = values.len() / 2;
    let (_, m, _) = values.select_nth_unstable(mid);
    let hi = *m;
    if values.len() % 2 == 1 {
        hi
    } else {
        // The lower half is nonempty whenever the length is even (mid ≥ 1).
        // Average without overflow; truncates toward the lower value for
        // odd sums, keeping the estimator integral.
        match values[..mid].iter().copied().max() {
            Some(lo) => lo + (hi - lo) / 2,
            None => hi,
        }
    }
}

/// Median of exactly three values — the `d = 3` default depth of the
/// paper's configurations — as straight-line min/max ops, with no buffer
/// or selection machinery. Bit-identical to [`median_in_place`] on a
/// 3-element slice (both return the middle value).
#[inline(always)]
pub fn median3(a: i64, b: i64, c: i64) -> i64 {
    a.max(b).min(a.min(b).max(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd() {
        let mut v = [5, 1, 9];
        assert_eq!(median_in_place(&mut v), 5);
    }

    #[test]
    fn median_even_averages_middles() {
        let mut v = [1, 3, 5, 11];
        assert_eq!(median_in_place(&mut v), 4);
    }

    #[test]
    fn median_single() {
        let mut v = [42];
        assert_eq!(median_in_place(&mut v), 42);
    }

    #[test]
    fn median_negative_values() {
        let mut v = [-10, -2, -30, -4, -6];
        assert_eq!(median_in_place(&mut v), -6);
    }

    #[test]
    fn median_no_overflow_at_extremes() {
        let mut v = [i64::MAX, i64::MAX - 2];
        assert_eq!(median_in_place(&mut v), i64::MAX - 1);
    }

    #[test]
    fn median3_picks_middle() {
        assert_eq!(median3(5, 1, 9), 5);
        assert_eq!(median3(-3, -3, 7), -3);
        assert_eq!(median3(0, 0, 0), 0);
        assert_eq!(median3(i64::MAX, i64::MIN, 0), 0);
    }

    proptest::proptest! {
        #[test]
        fn prop_median3_matches_general(a in -1000i64..1000, b in -1000i64..1000, c in -1000i64..1000) {
            let mut v = [a, b, c];
            proptest::prop_assert_eq!(median3(a, b, c), median_in_place(&mut v));
        }

        #[test]
        fn prop_median_matches_sort(mut v in proptest::collection::vec(-1000i64..1000, 1..25)) {
            let mut sorted = v.clone();
            sorted.sort_unstable();
            let want = if sorted.len() % 2 == 1 {
                sorted[sorted.len() / 2]
            } else {
                let lo = sorted[sorted.len() / 2 - 1];
                let hi = sorted[sorted.len() / 2];
                lo + (hi - lo) / 2
            };
            proptest::prop_assert_eq!(median_in_place(&mut v), want);
        }
    }
}
