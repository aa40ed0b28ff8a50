//! SWAR (SIMD-within-a-register) primitives for the data-parallel hot path.
//!
//! Stable Rust has no portable-SIMD API, but the hot loops here only need
//! 16-bit lane tricks that a plain `u64` can carry four at a time: the
//! candidate part's bucket scan probes a flat `Vec<u16>` fingerprint array
//! (see `qf-core`'s SoA `CandidatePart`), and four fingerprints packed into
//! one register can be compared against a broadcast probe with three ALU
//! ops and zero branches. On x86-64 and aarch64 LLVM lowers the packed
//! 16-bit load to a single 8-byte move, so the scan runs at one word per
//! four slots instead of one compare-and-branch per slot.
//!
//! Correctness note: the well-known "subtract borrow" zero-lane detector
//! `(x - 0x0001…) & !x & 0x8000…` is WRONG for packed lanes — a borrow from
//! a zero lane rips through the neighbouring lane and makes a `0x0001` lane
//! report as zero. The detectors here use the carry-free add form from
//! Hacker's Delight (§6-1, "Find First 0-Byte", adapted to 16-bit lanes),
//! which is exact for every input; the proptest at the bottom pits it
//! against the scalar reference over random lanes including the borrow
//! false-positive patterns.

/// Number of 16-bit lanes in one SWAR word.
pub const LANES_PER_WORD: usize = 4;

/// Per-lane mask of the low 15 bits: the carry fence of the zero-lane
/// detector.
const LOW15: u64 = 0x7FFF_7FFF_7FFF_7FFF;

/// Pack four little-endian-ordered `u16` lanes into one word (lane 0 in the
/// low 16 bits). The shift-or fold compiles to a single 8-byte load when the
/// lanes come from a contiguous `&[u16]` — no `unsafe`, no transmute.
#[inline(always)]
pub fn pack4(lanes: [u16; 4]) -> u64 {
    u64::from(lanes[0])
        | u64::from(lanes[1]) << 16
        | u64::from(lanes[2]) << 32
        | u64::from(lanes[3]) << 48
}

/// Broadcast one `u16` into all four lanes.
#[inline(always)]
pub fn broadcast4(x: u16) -> u64 {
    u64::from(x) * 0x0001_0001_0001_0001
}

/// Per-lane high-bit mask of the lanes of `x` that are zero — exact for all
/// inputs (Hacker's Delight add form; see module docs for why the subtract
/// form is unusable).
#[inline(always)]
pub fn zero_lanes4(x: u64) -> u64 {
    // High bit of `t` is set iff the lane's low 15 bits are nonzero; OR-ing
    // `x` back in folds the lane's own high bit; a lane is zero iff neither
    // fired.
    let t = (x & LOW15) + LOW15;
    !(t | x | LOW15)
}

/// Per-lane high-bit mask of the lanes of `x` equal to `probe4` (a
/// [`broadcast4`] word).
#[inline(always)]
pub fn eq_lanes4(x: u64, probe4: u64) -> u64 {
    zero_lanes4(x ^ probe4)
}

/// Branch-free conditional negate: `if negative { -x } else { x }` as two
/// ALU ops, so the Count sketch's signed bump never forks the pipeline.
#[inline(always)]
pub fn apply_sign(x: i64, negative: bool) -> i64 {
    let m = -i64::from(negative);
    (x ^ m).wrapping_sub(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compress a per-lane high-bit mask (as produced by [`zero_lanes4`] /
    /// [`eq_lanes4`]) into the low 4 bits: bit `i` set ⇔ lane `i` fired.
    fn movemask4(mask: u64) -> u32 {
        // The only set bits are at positions 15/31/47/63; route each to its
        // lane index. Stray cross-terms all land at bit 16 or above.
        ((mask >> 15 | mask >> 30 | mask >> 45 | mask >> 60) & 0xF) as u32
    }

    fn scalar_zero_mask(lanes: [u16; 4]) -> u32 {
        lanes
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l == 0)
            .map(|(i, _)| 1u32 << i)
            .sum()
    }

    #[test]
    fn pack_and_broadcast_roundtrip() {
        let lanes = [0x1234u16, 0, 0xFFFF, 0x8000];
        let w = pack4(lanes);
        for (i, &l) in lanes.iter().enumerate() {
            assert_eq!((w >> (16 * i)) as u16, l);
        }
        assert_eq!(broadcast4(0xABCD), pack4([0xABCD; 4]));
    }

    #[test]
    fn subtract_borrow_false_positives_are_absent() {
        // The classic failure pattern for the subtract-form detector: a
        // 0x0001 lane adjacent to a genuine zero lane. The add form must
        // flag only the true zero.
        for lanes in [
            [0u16, 1, 1, 1],
            [1, 0, 1, 1],
            [0, 1, 0, 1],
            [0x0001, 0, 0x0001, 0],
        ] {
            let got = movemask4(zero_lanes4(pack4(lanes)));
            assert_eq!(got, scalar_zero_mask(lanes), "lanes {lanes:?}");
        }
    }

    #[test]
    fn eq_lanes_find_the_probe() {
        let lanes = [7u16, 0x8000, 7, 0];
        let m = movemask4(eq_lanes4(pack4(lanes), broadcast4(7)));
        assert_eq!(m, 0b0101);
        let m = movemask4(eq_lanes4(pack4(lanes), broadcast4(0x8000)));
        assert_eq!(m, 0b0010);
        let m = movemask4(eq_lanes4(pack4(lanes), broadcast4(3)));
        assert_eq!(m, 0);
    }

    #[test]
    fn apply_sign_matches_branchy_negate() {
        for x in [0i64, 1, -1, i64::MAX, i64::MIN + 1, 42, -37] {
            assert_eq!(apply_sign(x, false), x);
            assert_eq!(apply_sign(x, true), -x);
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_zero_detector_is_exact(a in 0u16..=u16::MAX, b in 0u16..=u16::MAX, c in 0u16..=u16::MAX, d in 0u16..=u16::MAX) {
            let lanes = [a, b, c, d];
            proptest::prop_assert_eq!(
                movemask4(zero_lanes4(pack4(lanes))),
                scalar_zero_mask(lanes)
            );
        }

        #[test]
        fn prop_eq_detector_is_exact(a in 0u16..8, b in 0u16..8, c in 0u16..8, d in 0u16..8, probe in 0u16..8) {
            // Small lane domain so probe collisions actually occur.
            let lanes = [a, b, c, d];
            let want: u32 = lanes
                .iter()
                .enumerate()
                .filter(|&(_, &l)| l == probe)
                .map(|(i, _)| 1u32 << i)
                .sum();
            proptest::prop_assert_eq!(
                movemask4(eq_lanes4(pack4(lanes), broadcast4(probe))),
                want
            );
        }
    }
}
