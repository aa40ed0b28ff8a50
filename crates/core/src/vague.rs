//! The vague part: a [`WeightSketch`] addressed by *(fingerprint, bucket)*
//! composite keys.
//!
//! Technique 1 of §III-D: the candidate part stores only fingerprints, so
//! when an evicted entry must be pushed back into the vague part, the
//! original key is gone. The fix is to hash the vague part on
//! `fp + h_b(x)` instead of on `x` — i.e. on a composite of the fingerprint
//! and the bucket index, both of which are always available. As long as
//! `m · 2^16` (buckets × fingerprint space) is much larger than the number
//! of sketch counters, no visible accuracy is lost.

use qf_hash::RowLanes;
use qf_sketch::WeightSketch;

/// The composite vague-part key: bucket index in the high bits, 16-bit
/// fingerprint in the low bits. This is the only key type the vague part
/// ever sees, so candidate evictions can re-insert without the raw key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VagueKey(pub u64);

impl VagueKey {
    /// Combine a candidate bucket index and fingerprint.
    #[inline(always)]
    pub fn new(bucket: usize, fp: u16) -> Self {
        Self(((bucket as u64) << 16) | u64::from(fp))
    }

    /// The bucket component.
    #[inline(always)]
    pub fn bucket(self) -> usize {
        (self.0 >> 16) as usize
    }

    /// The fingerprint component.
    #[inline(always)]
    pub fn fingerprint(self) -> u16 {
        (self.0 & 0xFFFF) as u16
    }
}

impl qf_hash::StreamKey for VagueKey {
    #[inline(always)]
    fn hash_with_seed(&self, seed: u64) -> u64 {
        self.0.hash_with_seed(seed)
    }

    #[inline(always)]
    fn prehash(&self) -> Option<u64> {
        // Delegates to the inner u64, so the prehash invariant
        // (`hash_with_seed(s) == mix64(s ^ prehash)`) holds by construction
        // and each sketch row costs one mix round instead of two.
        self.0.prehash()
    }
}

/// Thin wrapper adding the composite-key discipline over any
/// [`WeightSketch`].
#[derive(Debug)]
pub struct VaguePart<S: WeightSketch> {
    sketch: S,
}

// By hand so that `clone_from` reaches the sketch's own.
impl<S: WeightSketch + Clone> Clone for VaguePart<S> {
    fn clone(&self) -> Self {
        Self {
            sketch: self.sketch.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.sketch.clone_from(&source.sketch);
    }
}

impl<S: WeightSketch> VaguePart<S> {
    /// Wrap a sketch.
    pub fn new(sketch: S) -> Self {
        Self { sketch }
    }

    /// Add `delta` under the composite key.
    #[inline(always)]
    pub fn add(&mut self, key: VagueKey, delta: i64) {
        self.sketch.add(&key, delta);
    }

    /// Estimate the composite key's Qweight.
    #[inline(always)]
    pub fn estimate(&self, key: VagueKey) -> i64 {
        self.sketch.estimate(&key)
    }

    /// Remove (and return) the key's estimate — the post-report reset and
    /// the "remove from vague part" half of the candidate exchange.
    #[inline(always)]
    pub fn remove_estimate(&mut self, key: VagueKey) -> i64 {
        self.sketch.remove_estimate(&key)
    }

    /// Precompute the composite key's per-row lanes so the one-pass entry
    /// points below touch each counter row with zero extra hashing.
    #[inline(always)]
    pub fn prepare_lanes(&self, key: VagueKey) -> RowLanes {
        self.sketch.prepare_lanes(&key)
    }

    /// Add `delta` and return the post-add estimate in one pass over the
    /// sketch rows (equivalent to [`Self::add`] then [`Self::estimate`]).
    #[inline(always)]
    pub fn add_and_estimate(&mut self, key: VagueKey, lanes: &RowLanes, delta: i64) -> i64 {
        self.sketch.add_and_estimate(&key, lanes, delta)
    }

    /// Remove the estimate the caller already holds (from
    /// [`Self::add_and_estimate`]) without re-deriving it.
    #[inline(always)]
    pub fn fetch_remove(&mut self, key: VagueKey, lanes: &RowLanes, estimate: i64) -> i64 {
        self.sketch.fetch_remove(&key, lanes, estimate)
    }

    /// Clear all counters.
    pub fn clear(&mut self) {
        self.sketch.clear();
    }

    /// Counter storage bytes.
    pub fn memory_bytes(&self) -> usize {
        self.sketch.memory_bytes()
    }

    /// Underlying sketch kind ("CS" / "CMS").
    pub fn kind_name(&self) -> &'static str {
        self.sketch.kind_name()
    }

    /// Borrow the inner sketch (diagnostics).
    pub fn inner(&self) -> &S {
        &self.sketch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qf_sketch::CountSketch;

    #[test]
    fn composite_key_roundtrip() {
        let k = VagueKey::new(1234, 0xBEEF);
        assert_eq!(k.bucket(), 1234);
        assert_eq!(k.fingerprint(), 0xBEEF);
    }

    #[test]
    fn distinct_components_distinct_keys() {
        assert_ne!(VagueKey::new(1, 2), VagueKey::new(2, 1));
        assert_ne!(VagueKey::new(0, 2), VagueKey::new(2, 0));
    }

    #[test]
    fn vague_key_prehash_upholds_streamkey_identity() {
        use qf_hash::StreamKey;
        let k = VagueKey::new(321, 0xCAFE);
        let p = k.prehash().expect("composite key is fixed-width");
        assert_eq!(p, k.0.prehash().expect("u64 is fixed-width"));
        for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            assert_eq!(k.hash_with_seed(seed), qf_hash::mix64(seed ^ p));
        }
    }

    #[test]
    fn add_estimate_remove_cycle() {
        let mut v = VaguePart::new(CountSketch::<i64>::new(3, 512, 5));
        let k = VagueKey::new(7, 0x1234);
        v.add(k, 25);
        v.add(k, -5);
        assert_eq!(v.estimate(k), 20);
        assert_eq!(v.remove_estimate(k), 20);
        assert_eq!(v.estimate(k), 0);
    }

    #[test]
    fn eviction_reinsert_preserves_mass() {
        // Simulate the exchange: key held in candidate with qw=9 gets
        // evicted into the vague part, then later promoted back out.
        let mut v = VaguePart::new(CountSketch::<i64>::new(3, 1024, 6));
        let k = VagueKey::new(3, 0xAAAA);
        v.add(k, 9); // eviction pushes the stored Qweight in
        assert_eq!(v.estimate(k), 9);
        let back = v.remove_estimate(k); // promotion pulls it back out
        assert_eq!(back, 9);
        assert_eq!(v.estimate(k), 0);
    }

    #[test]
    fn clear_and_memory_delegate() {
        let mut v = VaguePart::new(CountSketch::<i16>::new(2, 128, 7));
        v.add(VagueKey::new(0, 1), 3);
        assert_eq!(v.memory_bytes(), 2 * 128 * 2);
        assert_eq!(v.kind_name(), "CS");
        v.clear();
        assert_eq!(v.estimate(VagueKey::new(0, 1)), 0);
    }
}
