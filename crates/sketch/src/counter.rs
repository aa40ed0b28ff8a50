//! Saturating signed counters for sketch cells.
//!
//! The paper's space savings come partly from narrow counters: "we can adopt
//! 16-bit or even 8-bit counters to conserve space while maintaining close
//! to 100% accuracy. Yet, it is crucial to prevent counters from naturally
//! rolling over due to overflow … Operations must prevent overflow
//! reversals, ignoring any addition or subtraction that would cause it"
//! (§III-B). [`SketchCounter`] encodes exactly that contract: `saturating
//! add` semantics where an increment that would wrap is clamped at the
//! numeric bound instead.

/// A signed counter cell usable inside a sketch array.
///
/// All four built-in signed integer widths implement this. Conversions to
/// and from `i64` are provided because estimation math (medians, weighted
/// sums) is always carried out at 64-bit precision regardless of the cell
/// width.
pub trait SketchCounter:
    Copy + Default + PartialEq + std::fmt::Debug + Send + Sync + 'static
{
    /// Number of bytes one cell occupies.
    const BYTES: usize;
    /// Human-readable width name for experiment logs ("i8", "i16", ...).
    const NAME: &'static str;

    /// Widen to `i64` for estimation math.
    fn to_i64(self) -> i64;

    /// Add `delta` (an `i64`) to this cell, clamping at the cell's numeric
    /// bounds instead of wrapping. This is the paper's overflow-reversal
    /// guard.
    fn saturating_add_i64(self, delta: i64) -> Self;

    /// The zero cell.
    #[inline(always)]
    fn zero() -> Self {
        Self::default()
    }

    /// A cell grid's in-memory bytes (native endian), so a state digest
    /// can hash the grid without encoding it.
    fn as_bytes(cells: &[Self]) -> &[u8];
}

/// The in-memory bytes of a primitive-integer slice.
macro_rules! int_bytes {
    ($cells:expr) => {
        // SAFETY: the cells are primitive integers, so they hold no padding
        // and every byte is initialized; `u8` has alignment 1; and the byte
        // slice covers exactly `size_of_val(cells)` bytes of the same borrow.
        unsafe {
            core::slice::from_raw_parts(
                $cells.as_ptr().cast::<u8>(),
                core::mem::size_of_val($cells),
            )
        }
    };
}

macro_rules! impl_counter {
    ($t:ty, $name:literal) => {
        impl SketchCounter for $t {
            const BYTES: usize = core::mem::size_of::<$t>();
            const NAME: &'static str = $name;

            #[inline(always)]
            fn to_i64(self) -> i64 {
                i64::from(self)
            }

            #[inline(always)]
            fn saturating_add_i64(self, delta: i64) -> Self {
                let wide = i64::from(self).saturating_add(delta);
                if wide > <$t>::MAX as i64 {
                    <$t>::MAX
                } else if wide < <$t>::MIN as i64 {
                    <$t>::MIN
                } else {
                    wide as $t
                }
            }

            #[inline]
            fn as_bytes(cells: &[Self]) -> &[u8] {
                int_bytes!(cells)
            }
        }
    };
}

impl_counter!(i8, "i8");
impl_counter!(i16, "i16");
impl_counter!(i32, "i32");

impl SketchCounter for i64 {
    const BYTES: usize = 8;
    const NAME: &'static str = "i64";

    #[inline(always)]
    fn to_i64(self) -> i64 {
        self
    }

    #[inline(always)]
    fn saturating_add_i64(self, delta: i64) -> Self {
        self.saturating_add(delta)
    }

    #[inline]
    fn as_bytes(cells: &[Self]) -> &[u8] {
        int_bytes!(cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_and_names() {
        assert_eq!(<i8 as SketchCounter>::BYTES, 1);
        assert_eq!(<i16 as SketchCounter>::BYTES, 2);
        assert_eq!(<i32 as SketchCounter>::BYTES, 4);
        assert_eq!(<i64 as SketchCounter>::BYTES, 8);
        assert_eq!(<i16 as SketchCounter>::NAME, "i16");
    }

    #[test]
    fn i8_saturates_at_max_without_reversal() {
        let c: i8 = 126;
        let c = c.saturating_add_i64(1);
        assert_eq!(c, 127);
        // This is the overflow-reversal case the paper forbids: 127 + 1
        // must stay 127, never become −128.
        let c = c.saturating_add_i64(1);
        assert_eq!(c, 127);
        // A subtraction still works after saturation.
        let c = c.saturating_add_i64(-3);
        assert_eq!(c, 124);
    }

    #[test]
    fn i8_saturates_at_min() {
        let c: i8 = -127;
        let c = c.saturating_add_i64(-5);
        assert_eq!(c, -128);
        let c = c.saturating_add_i64(-1);
        assert_eq!(c, -128);
    }

    #[test]
    fn large_delta_clamps() {
        let c: i16 = 10;
        assert_eq!(c.saturating_add_i64(1 << 40), i16::MAX);
        assert_eq!(c.saturating_add_i64(-(1 << 40)), i16::MIN);
    }

    #[test]
    fn i64_saturates_at_extremes() {
        let c: i64 = i64::MAX - 1;
        assert_eq!(c.saturating_add_i64(5), i64::MAX);
        let c: i64 = i64::MIN + 1;
        assert_eq!(c.saturating_add_i64(-5), i64::MIN);
    }

    #[test]
    fn zero_is_default() {
        assert_eq!(<i32 as SketchCounter>::zero(), 0);
    }

    proptest::proptest! {
        #[test]
        fn prop_i16_matches_wide_clamp(start in i16::MIN..=i16::MAX, delta in -100_000i64..100_000) {
            let got = start.saturating_add_i64(delta);
            let want = (i64::from(start) + delta).clamp(i64::from(i16::MIN), i64::from(i16::MAX)) as i16;
            proptest::prop_assert_eq!(got, want);
        }

        #[test]
        fn prop_i8_never_wraps_sign_on_positive_add(start in 0i8..=i8::MAX, delta in 0i64..1_000) {
            let got = start.saturating_add_i64(delta);
            proptest::prop_assert!(got >= start);
        }
    }
}
