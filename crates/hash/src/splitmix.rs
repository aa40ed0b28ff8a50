//! SplitMix64: a tiny, high-quality 64-bit mixer and sequence generator.
//!
//! SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) is used in two roles:
//!
//! 1. [`mix64`] is the finalizer applied to integer keys — it is a bijection
//!    on `u64` with full avalanche, which makes it an excellent stand-in for
//!    a random oracle on fixed-width keys and is far cheaper than running a
//!    byte-oriented hash over eight bytes.
//! 2. [`SplitMix64`] is the seed-expansion generator used to derive the
//!    per-row seeds of a [`crate::family::HashFamily`] from a single user
//!    seed, guaranteeing the rows are pairwise distinct.

/// Finalization mix of SplitMix64: a full-avalanche bijection on `u64`.
#[inline(always)]
pub const fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mix two words into one; used to combine a seed with a key.
#[inline(always)]
pub fn mix64_pair(seed: u64, x: u64) -> u64 {
    mix64(seed ^ mix64(x))
}

/// A deterministic stream of decorrelated 64-bit values.
///
/// This is *not* a statistical RNG for simulation (the workload generators
/// use the `rand` crate); it exists purely to expand one experiment seed
/// into the many internal seeds a sketch needs.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from an arbitrary seed.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Produce the next 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }

    /// The current internal state, for snapshotting. A generator rebuilt
    /// with [`Self::from_state`] continues the exact same sequence.
    #[inline]
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Resume a generator from a snapshotted [`Self::state`].
    #[inline]
    pub fn from_state(state: u64) -> Self {
        Self { state }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_bijective_on_sample() {
        use std::collections::HashSet;
        let outs: HashSet<u64> = (0u64..10_000).map(mix64).collect();
        assert_eq!(outs.len(), 10_000);
    }

    #[test]
    fn mix64_avalanches_single_bit_flips() {
        // Flipping one input bit should flip roughly half the output bits.
        let mut total = 0u32;
        let trials = 64 * 64;
        for i in 0..64u64 {
            for j in 0..64 {
                let a = mix64(1u64 << i);
                let b = mix64((1u64 << i) ^ (1u64 << j));
                if i != j {
                    total += (a ^ b).count_ones();
                }
            }
        }
        let avg = f64::from(total) / f64::from(trials - 64);
        assert!((24.0..40.0).contains(&avg), "avalanche average {avg}");
    }

    #[test]
    fn splitmix_sequence_is_deterministic() {
        let mut a = SplitMix64::new(123);
        let mut b = SplitMix64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_streams_differ_across_seeds() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }
}
