//! xxHash64 implemented from scratch.
//!
//! xxHash64 (Yann Collet) is a fast non-cryptographic hash with excellent
//! avalanche behaviour. It is the byte-string hash used by [`crate::key`]
//! for variable-length keys; fixed-width integer keys take the cheaper
//! [`crate::splitmix::mix64`] path instead.
//!
//! The implementation follows the canonical specification: four parallel
//! accumulation lanes over 32-byte stripes, a merge step, the length mix,
//! a 8/4/1-byte tail, and the final avalanche.

pub(crate) const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

/// Lane `i` (0..4) of a 32-byte stripe. The stripe is a fixed-size array,
/// so the read compiles to one load with no bounds check.
#[inline(always)]
fn lane(stripe: &[u8; 32], i: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&stripe[8 * i..8 * i + 8]);
    u64::from_le_bytes(b)
}

#[inline(always)]
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

#[inline(always)]
pub(crate) fn merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ round(0, val))
        .wrapping_mul(PRIME64_1)
        .wrapping_add(PRIME64_4)
}

#[inline(always)]
pub(crate) fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME64_3);
    h ^ (h >> 32)
}

/// Compute the 64-bit xxHash of `data` under `seed`.
pub fn xxh64(data: &[u8], seed: u64) -> u64 {
    let (stripes, tail) = data.as_chunks::<32>();
    let mut h = if stripes.is_empty() {
        seed.wrapping_add(PRIME64_5)
    } else {
        let mut v1 = seed.wrapping_add(PRIME64_1).wrapping_add(PRIME64_2);
        let mut v2 = seed.wrapping_add(PRIME64_2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME64_1);
        for stripe in stripes {
            v1 = round(v1, lane(stripe, 0));
            v2 = round(v2, lane(stripe, 1));
            v3 = round(v3, lane(stripe, 2));
            v4 = round(v4, lane(stripe, 3));
        }
        let h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        [v1, v2, v3, v4].into_iter().fold(h, merge_round)
    };

    h = h.wrapping_add(data.len() as u64);

    let (words, tail) = tail.as_chunks::<8>();
    for &word in words {
        h ^= round(0, u64::from_le_bytes(word));
        h = h
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
    }
    let tail = match tail.split_first_chunk::<4>() {
        Some((&word, rest)) => {
            h ^= u64::from(u32::from_le_bytes(word)).wrapping_mul(PRIME64_1);
            h = h
                .rotate_left(23)
                .wrapping_mul(PRIME64_2)
                .wrapping_add(PRIME64_3);
            rest
        }
        None => tail,
    };
    for &byte in tail {
        h ^= u64::from(byte).wrapping_mul(PRIME64_5);
        h = h.rotate_left(11).wrapping_mul(PRIME64_1);
    }

    avalanche(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Reference vectors computed with the canonical xxHash implementation.
    #[test]
    fn known_answer_empty() {
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
    }

    #[test]
    fn known_answer_a() {
        assert_eq!(xxh64(b"a", 0), 0xD24E_C4F1_A98C_6E5B);
    }

    #[test]
    fn known_answer_abc() {
        assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
    }

    #[test]
    fn known_answer_long_with_seed() {
        // "xxHash is an extremely fast non-cryptographic hash algorithm"
        let msg = b"xxHash is an extremely fast non-cryptographic hash algorithm";
        // Self-consistency across calls plus seed sensitivity.
        assert_eq!(xxh64(msg, 1), xxh64(msg, 1));
        assert_ne!(xxh64(msg, 1), xxh64(msg, 2));
    }

    #[test]
    fn every_length_matches_the_recorded_values() {
        // Recorded from the byte-indexed implementation this one replaced:
        // every prefix of a 1000-byte pattern, folded, so each stripe count
        // and each 8/4/1-byte tail shape is pinned.
        let data: Vec<u8> = (0..1000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let mut acc = 0u64;
        for l in 0..=data.len() {
            acc = acc.rotate_left(5) ^ xxh64(&data[..l], 0x5EED);
        }
        assert_eq!(acc, 0xd6e7_d5fe_2fc6_c33a);
        assert_eq!(xxh64(&data, 0), 0xb260_5217_30b6_d8d9);
    }

    #[test]
    fn all_tail_lengths_are_exercised() {
        // Lengths 0..=40 cover: empty, 1/4/8-byte tails and a 32-byte stripe.
        let data: Vec<u8> = (0u8..=40).collect();
        let mut seen = std::collections::HashSet::new();
        for l in 0..=40usize {
            assert!(seen.insert(xxh64(&data[..l], 99)), "collision at len {l}");
        }
    }

    #[test]
    fn distribution_low_bits_uniform() {
        // Hash 64k sequential keys and check bucket occupancy over 256
        // buckets stays within a loose chi-square-style band.
        let mut buckets = [0u32; 256];
        for k in 0u64..65536 {
            let h = xxh64(&k.to_le_bytes(), 0);
            buckets[(h & 0xFF) as usize] += 1;
        }
        let expect = 65536.0 / 256.0;
        for (i, &b) in buckets.iter().enumerate() {
            let dev = (f64::from(b) - expect).abs() / expect;
            assert!(dev < 0.30, "bucket {i} deviation {dev}");
        }
    }
}
