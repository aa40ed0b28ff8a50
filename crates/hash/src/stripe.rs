//! A stripe-parallel digest of in-memory state.
//!
//! [`stripe_digest`] hashes bytes the way XXH3's long-input loop does.
//! Eight `u64` lanes run over 64-byte stripes. For each word `w[i]` of a
//! stripe, lane `i ^ 1` adds `w[i]`, and lane `i` adds the 32×32→64
//! product of the two halves of `w[i] ^ key`, where the key depends on the
//! lane and on the stripe's place in its block. After every block of 16
//! stripes (1 KiB) each lane is scrambled. The bytes past the last whole
//! stripe are hashed with xxh64 and folded in with one more xxh64 merge
//! round, and xxh64's finaliser ends the digest.
//!
//! xxh64 spends two 64-bit multiplies per 8 bytes. This kernel spends one
//! 32-bit product, and SSE2, part of the x86_64 baseline, computes two of
//! them per `pmuludq`, so it digests a filter's arrays faster (DESIGN.md
//! §13 has the timings). No intrinsics are needed: LLVM vectorizes the
//! stripe loop of `accumulate`, whose eight lanes are a local array in a
//! function kept out of line. That form appears only in optimized builds,
//! so CI also runs this module's tests in release mode.
//!
//! It is not a format. Its values are only meaningful inside one process:
//! it digests checkpoint copies that never leave memory. Every persisted
//! byte and every key hash stays on xxh64.

use crate::splitmix::mix64;
use crate::xxhash::{avalanche, merge_round, xxh64, PRIME64_1};

/// Lanes of the accumulator.
const LANES: usize = 8;

/// Bytes per stripe: one word per lane.
const STRIPE: usize = 8 * LANES;

/// Stripes between two scrambles.
const STRIPES_PER_BLOCK: usize = 16;

/// Bytes per block: the unit of scrambling.
const BLOCK: usize = STRIPE * STRIPES_PER_BLOCK;

/// Odd multiplier of the scramble (xxHash's `PRIME32_1`).
const PRIME32_1: u64 = 0x9E37_79B1;

/// `N` decorrelated words, the `k`-th being `mix64(salt + k)`.
const fn key_words<const N: usize>(salt: u64) -> [u64; N] {
    let mut out = [0; N];
    let mut k = 0;
    while k < N {
        out[k] = mix64(salt.wrapping_add(k as u64));
        k += 1;
    }
    out
}

/// Key words; stripe `s` of a block keys lane `i` with word `s + i`, the
/// way XXH3 reads its secret at an offset of 8 bytes per stripe.
const KEY: [u64; STRIPES_PER_BLOCK + LANES - 1] = key_words(0x57A1_9E00_0000_0000);

/// [`KEY`] laid out per stripe, so the stripe loop loads whole arrays.
const STRIPE_KEYS: [[u64; LANES]; STRIPES_PER_BLOCK] = {
    let mut out = [[0; LANES]; STRIPES_PER_BLOCK];
    let mut s = 0;
    while s < STRIPES_PER_BLOCK {
        let mut i = 0;
        while i < LANES {
            out[s][i] = KEY[s + i];
            i += 1;
        }
        s += 1;
    }
    out
};

/// Keys the scramble xors into each lane.
const SCRAMBLE_KEY: [u64; LANES] = key_words(0x5C4A_3B1E_0000_0000);

/// Starting lanes, xored with the seed.
const INIT: [u64; LANES] = key_words(0x1417_0000_0000_0000);

/// Fold up to one block of stripes into the lanes. Kept out of line: LLVM
/// vectorizes this loop while the lanes are a local array of a function
/// of its own, and inlining it into the code around it can leave it
/// scalar.
#[inline(never)]
fn accumulate(acc: &mut [u64; LANES], stripes: &[[u8; STRIPE]]) {
    let mut a = *acc;
    for (stripe, keys) in stripes.iter().zip(&STRIPE_KEYS) {
        let (words, _) = stripe.as_chunks::<8>();
        for i in 0..LANES {
            let w = u64::from_le_bytes(words[i]);
            let k = w ^ keys[i];
            a[i ^ 1] = a[i ^ 1].wrapping_add(w);
            a[i] = a[i].wrapping_add((k & 0xFFFF_FFFF).wrapping_mul(k >> 32));
        }
    }
    *acc = a;
}

/// A one-to-one mix of each lane, run after every whole block.
fn scramble(acc: &mut [u64; LANES]) {
    for (a, k) in acc.iter_mut().zip(SCRAMBLE_KEY) {
        *a = (*a ^ (*a >> 47) ^ k).wrapping_mul(PRIME32_1);
    }
}

/// Digest `data` under `seed` (see the module docs). Not xxh64 and not a
/// format: compare its values only within one process.
pub fn stripe_digest(data: &[u8], seed: u64) -> u64 {
    let mut acc = INIT.map(|x| x ^ seed);
    for block in data.chunks(BLOCK) {
        let (stripes, _) = block.as_chunks::<STRIPE>();
        accumulate(&mut acc, stripes);
        if stripes.len() == STRIPES_PER_BLOCK {
            scramble(&mut acc);
        }
    }
    // Merge the lanes, the length and the bytes past the last stripe.
    let h = acc
        .iter()
        .fold((data.len() as u64).wrapping_mul(PRIME64_1), |h, &lane| {
            merge_round(h, lane)
        });
    let tail = &data[data.len() / STRIPE * STRIPE..];
    avalanche(merge_round(h, xxh64(tail, seed)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A byte pattern with no period a stripe or block could align to.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect()
    }

    #[test]
    fn stripe_digest_sees_every_bit_of_4_kib() {
        let mut data = pattern(4 * BLOCK);
        let base = stripe_digest(&data, 7);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(stripe_digest(&data, 7), base, "byte {byte} bit {bit}");
                data[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn stripe_digest_sees_the_length_the_seed_and_the_stripe_order() {
        let zeros = [0u8; 2 * BLOCK];
        let mut seen = std::collections::HashSet::new();
        for len in 0..=zeros.len() {
            assert!(seen.insert(stripe_digest(&zeros[..len], 3)), "len {len}");
        }
        let data = pattern(BLOCK);
        assert_ne!(stripe_digest(&data, 1), stripe_digest(&data, 2));
        let mut swapped = data.clone();
        swapped[..2 * STRIPE].rotate_left(STRIPE);
        assert_ne!(stripe_digest(&swapped, 1), stripe_digest(&data, 1));
    }

    /// Recorded from this implementation: every prefix of a 3 KiB pattern,
    /// folded, plus two whole-buffer values, so any change to the lanes,
    /// keys, scramble or tail is caught.
    #[test]
    fn stripe_digest_matches_the_recorded_values() {
        let data = pattern(3 * BLOCK);
        let mut acc = 0u64;
        for l in 0..=data.len() {
            acc = acc.rotate_left(5) ^ stripe_digest(&data[..l], 0x5EED);
        }
        assert_eq!(acc, 0x17b5_c09b_133a_d09e);
        assert_eq!(stripe_digest(&data, 0), 0x5c9e_d5ab_8497_f92a);
        assert_eq!(stripe_digest(b"", 0), 0xbafc_b0a5_9074_864c);
    }
}
