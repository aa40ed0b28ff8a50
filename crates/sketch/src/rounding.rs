//! Unbiased stochastic rounding of fractional weights.
//!
//! Sketch counters are integers, but the item Qweight `δ/(1−δ)` is usually
//! fractional (δ = 0.95 ⇒ weight 19 exactly, but δ = 0.9 ⇒ 9, δ = 0.8 ⇒ 4,
//! δ = 0.85 ⇒ 5.666…). The paper's §III-A Technical Details prescribe:
//! add `⌊Qw⌋`, then add one more with probability `Qw − ⌊Qw⌋`. The expected
//! increment is exactly `Qw` (unbiased) and the variance is
//! `frac·(1−frac) < 0.25`.
//!
//! [`StochasticRounder`] implements that with a self-contained SplitMix64
//! stream so results are reproducible from the experiment seed without
//! pulling a full RNG dependency into the hot path.
//!
//! A filter rounds one of two weights per item, both fixed by its
//! criteria, so it splits each into `⟨⌊w⌋, w − ⌊w⌋⟩` once
//! ([`StochasticRounder::split`]) and rounds the parts per item
//! ([`StochasticRounder::round_split`]). The baseline x86-64 target has no
//! SSE4.1 `roundsd`, so `floor` is a library call; the split keeps it off
//! the per-item path.

use qf_hash::SplitMix64;

/// A weight split into its floor and its fraction by
/// [`StochasticRounder::split`], ready to be rounded per item without
/// recomputing either.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitWeight {
    base: i64,
    frac: f64,
}

impl SplitWeight {
    /// The weight `−1` of a value at or below `T`: exact, so rounding it
    /// never draws.
    pub const MINUS_ONE: Self = Self {
        base: -1,
        frac: 0.0,
    };
}

/// Stateful unbiased rounder: converts `f64` weights into `i64` increments.
#[derive(Debug, Clone)]
pub struct StochasticRounder {
    rng: SplitMix64,
}

impl StochasticRounder {
    /// Create a rounder with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SplitMix64::new(seed),
        }
    }

    /// Round `w` to an integer with expectation exactly `w`.
    ///
    /// Works for negative weights too: `-2.3` becomes `-3` with probability
    /// 0.3 and `-2` with probability 0.7 (floor-based, so the fractional
    /// part is always in `[0, 1)`).
    #[inline]
    pub fn round(&mut self, w: f64) -> i64 {
        self.round_split(Self::split(w))
    }

    /// Split `w` into `⟨⌊w⌋, w − ⌊w⌋⟩` for [`Self::round_split`]; the
    /// fraction is in `[0, 1)`.
    #[inline]
    pub fn split(w: f64) -> SplitWeight {
        let floor = w.floor();
        SplitWeight {
            base: floor as i64,
            frac: w - floor,
        }
    }

    /// Round a split weight with expectation exactly its value. Draws from
    /// the RNG iff the fraction is non-zero, so `round(w)` and
    /// `round_split(split(w))` give the same result and leave the same
    /// RNG state.
    #[inline]
    pub fn round_split(&mut self, w: SplitWeight) -> i64 {
        if w.frac == 0.0 {
            return w.base;
        }
        // Draw a uniform in [0,1) from 53 random mantissa bits.
        let u = (self.rng.next_u64() >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0);
        let up = u < w.frac;
        // No-op unless the `telemetry` feature is on; never touches the RNG.
        crate::telemetry::rounding_event(up, w.frac);
        if up {
            w.base + 1
        } else {
            w.base
        }
    }

    /// The RNG state, for snapshotting: a rounder rebuilt with
    /// [`Self::from_state`] makes the exact same rounding decisions.
    #[inline]
    pub fn state(&self) -> u64 {
        self.rng.state()
    }

    /// Resume a rounder from a snapshotted [`Self::state`].
    #[inline]
    pub fn from_state(state: u64) -> Self {
        Self {
            rng: SplitMix64::from_state(state),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integral_weights_pass_through() {
        let mut r = StochasticRounder::new(1);
        assert_eq!(r.round(19.0), 19);
        assert_eq!(r.round(-1.0), -1);
        assert_eq!(r.round(0.0), 0);
    }

    /// `round` as it was before weights were split: `floor` per call.
    fn round_unsplit(rng: &mut SplitMix64, w: f64) -> i64 {
        let floor = w.floor();
        let frac = w - floor;
        if frac == 0.0 {
            return floor as i64;
        }
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0);
        floor as i64 + i64::from(u < frac)
    }

    #[test]
    fn split_rounding_matches_unsplit_rounding_draw_for_draw() {
        assert_eq!(StochasticRounder::split(-1.0), SplitWeight::MINUS_ONE);
        let weights = [19.0, -1.0, 0.0, 17.0 / 3.0, 2.3, -2.25, 1e6 + 0.125];
        let mut split = StochasticRounder::new(31);
        let mut unsplit = SplitMix64::new(31);
        for i in 0..10_000 {
            let w = weights[i % weights.len()];
            let got = split.round_split(StochasticRounder::split(w));
            assert_eq!(got, round_unsplit(&mut unsplit, w), "{w}");
            assert_eq!(split.state(), unsplit.state(), "{w}");
        }
    }

    #[test]
    fn fractional_weight_is_unbiased() {
        // δ = 0.85 ⇒ weight = 17/3 ≈ 5.6667. Mean over many draws must be
        // close to the true weight.
        let w = 0.85 / (1.0 - 0.85);
        let mut r = StochasticRounder::new(42);
        let n = 200_000;
        let sum: i64 = (0..n).map(|_| r.round(w)).sum();
        let mean = sum as f64 / f64::from(n);
        assert!((mean - w).abs() < 0.01, "mean {mean} vs {w}");
    }

    #[test]
    fn outputs_are_floor_or_ceil() {
        let mut r = StochasticRounder::new(9);
        for _ in 0..10_000 {
            let v = r.round(2.3);
            assert!(v == 2 || v == 3);
        }
    }

    #[test]
    fn negative_fractional_unbiased() {
        let mut r = StochasticRounder::new(5);
        let n = 200_000;
        let sum: i64 = (0..n).map(|_| r.round(-2.25)).sum();
        let mean = sum as f64 / f64::from(n);
        assert!((mean + 2.25).abs() < 0.01, "mean {mean}");
        // And every draw is −3 or −2.
        let v = r.round(-2.25);
        assert!(v == -3 || v == -2);
    }

    #[test]
    fn variance_below_quarter() {
        // Paper: variance = frac(1−frac) < 0.25; empirically check for the
        // worst case frac = 0.5.
        let mut r = StochasticRounder::new(17);
        let n = 100_000;
        let draws: Vec<i64> = (0..n).map(|_| r.round(3.5)).collect();
        let mean = draws.iter().sum::<i64>() as f64 / n as f64;
        let var = draws
            .iter()
            .map(|&d| (d as f64 - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        assert!(var < 0.26, "variance {var}");
        assert!(var > 0.20, "variance suspiciously low {var}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = StochasticRounder::new(123);
        let mut b = StochasticRounder::new(123);
        for _ in 0..1000 {
            assert_eq!(a.round(1.77), b.round(1.77));
        }
    }
}
