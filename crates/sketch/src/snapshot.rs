//! Snapshot support for the sketch structures: a common trait that lets
//! the QuantileFilter core persist and restore any vague-part sketch
//! without knowing its concrete layout.
//!
//! The split between [`SketchShape`] (structural configuration: kind tag,
//! counter width, dimensions) and the cell/seed *state* mirrors the
//! snapshot wire format of qf-core: shapes live in the config section that
//! is covered by the config digest, state lives in the state section. Both
//! are integrity-checked by the whole-file checksum.

use crate::counter::SketchCounter;
use qf_hash::wire::{ByteReader, ByteWriter, WireError};
use qf_hash::HashFamily;

/// Wire tag for [`crate::CountSketch`].
pub const SKETCH_KIND_CS: u8 = 1;
/// Wire tag for [`crate::CountMinSketch`].
pub const SKETCH_KIND_CMS: u8 = 2;

/// Upper bound on restored cell counts (2^28 cells ≈ 256 Mi counters).
/// A corrupted dimension field must not be able to trigger a huge
/// allocation before the checksum would have caught it.
pub const MAX_SNAPSHOT_CELLS: u64 = 1 << 28;

/// Structural configuration of a sketch, as stored in a snapshot's config
/// section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchShape {
    /// Sketch kind tag ([`SKETCH_KIND_CS`] / [`SKETCH_KIND_CMS`]).
    pub kind: u8,
    /// Bytes per counter cell (1, 2, 4 or 8).
    pub counter_bytes: u8,
    /// Number of rows `d`.
    pub rows: u64,
    /// Number of columns `w`.
    pub width: u64,
}

impl SketchShape {
    /// Serialize into a config section.
    pub fn write(&self, w: &mut ByteWriter) {
        w.put_u8(self.kind);
        w.put_u8(self.counter_bytes);
        w.put_u64(self.rows);
        w.put_u64(self.width);
    }

    /// Deserialize from a config section.
    pub fn read(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            kind: r.get_u8()?,
            counter_bytes: r.get_u8()?,
            rows: r.get_u64()?,
            width: r.get_u64()?,
        })
    }

    /// Validate dimensions against the allocation bound, returning
    /// `(rows, width)` as `usize`.
    pub fn checked_dims(&self) -> Result<(usize, usize), WireError> {
        if self.rows == 0 || self.width == 0 {
            return Err(WireError::Invalid("sketch dimensions must be positive"));
        }
        let cells = self
            .rows
            .checked_mul(self.width)
            .ok_or(WireError::Invalid("sketch dimensions overflow"))?;
        if cells > MAX_SNAPSHOT_CELLS {
            return Err(WireError::Invalid("sketch dimensions out of range"));
        }
        Ok((self.rows as usize, self.width as usize))
    }

    /// Bytes [`SketchState::write_state`] appends for a sketch of this
    /// shape: one `u64` seed per row, then `counter_bytes` per cell.
    /// Saturates instead of overflowing on absurd shapes; writers use it
    /// only to size their buffer.
    pub fn state_len(&self) -> usize {
        let cells = self.rows.saturating_mul(self.width);
        let bytes = self
            .rows
            .saturating_mul(8)
            .saturating_add(cells.saturating_mul(u64::from(self.counter_bytes)));
        usize::try_from(bytes).unwrap_or(usize::MAX)
    }
}

/// Append a sketch's state section — its row seeds, then every cell's low
/// `C::BYTES` bytes (two's complement) in row-major order. Both the Count
/// sketch and the Count-Min sketch write exactly this; the cells go down
/// as one block, so an `i8` grid encodes at copy speed.
pub(crate) fn write_seeds_and_cells<C: SketchCounter>(
    seeds: &[u64],
    cells: &[C],
    w: &mut ByteWriter,
) {
    for &seed in seeds {
        w.put_u64(seed);
    }
    let block = w.put_block(cells.len() * C::BYTES);
    for (dst, cell) in block.chunks_exact_mut(C::BYTES).zip(cells) {
        dst.copy_from_slice(&cell.to_i64().to_le_bytes()[..C::BYTES]);
    }
}

/// Inverse of [`write_seeds_and_cells`] for a validated `rows × width`
/// shape: the hash family rebuilt from the row seeds, and the cell grid.
/// Never panics: malformed input surfaces as a [`WireError`].
pub(crate) fn read_seeds_and_cells<C: SketchCounter>(
    rows: usize,
    width: usize,
    r: &mut ByteReader<'_>,
) -> Result<(HashFamily, Vec<C>), WireError> {
    let mut seeds = Vec::with_capacity(rows);
    for _ in 0..rows {
        seeds.push(r.get_u64()?);
    }
    let family =
        HashFamily::from_seeds(seeds, width).ok_or(WireError::Invalid("degenerate hash family"))?;
    let cells = r
        .get_bytes(rows * width * C::BYTES)?
        .chunks_exact(C::BYTES)
        // The narrow read yields values already within C's range, so the
        // saturating conversion is exact.
        .map(|low| {
            let v = ByteReader::new(low).get_int_narrow(C::BYTES)?;
            Ok(C::zero().saturating_add_i64(v))
        })
        .collect::<Result<_, WireError>>()?;
    Ok((family, cells))
}

/// A sketch that can be persisted into and restored from a snapshot.
pub trait SketchState: Sized {
    /// The structural configuration to record in the config section.
    fn shape(&self) -> SketchShape;

    /// Serialize the mutable state (hash seeds + counter cells) into the
    /// state section.
    fn write_state(&self, w: &mut ByteWriter);

    /// Rebuild the sketch from a previously recorded shape and state.
    ///
    /// Must never panic: malformed input surfaces as a [`WireError`].
    fn from_state(shape: SketchShape, r: &mut ByteReader<'_>) -> Result<Self, WireError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CountMinSketch, CountSketch, WeightSketch};

    fn roundtrip<S: SketchState>(sketch: &S) -> S {
        let shape = sketch.shape();
        let mut w = ByteWriter::new();
        sketch.write_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let restored = S::from_state(shape, &mut r).expect("roundtrip");
        assert!(r.is_empty(), "trailing state bytes");
        restored
    }

    #[test]
    fn count_sketch_roundtrips_estimates() {
        let mut cs = CountSketch::<i16>::new(3, 128, 42);
        for k in 0u64..500 {
            cs.add(&k, (k as i64 % 17) - 8);
        }
        let restored = roundtrip(&cs);
        for k in 0u64..500 {
            assert_eq!(restored.estimate(&k), cs.estimate(&k));
        }
        assert_eq!(restored.raw_cells(), cs.raw_cells());
    }

    #[test]
    fn count_min_roundtrips_estimates() {
        let mut cms = CountMinSketch::<i32>::new(4, 64, 7);
        for k in 0u64..200 {
            cms.add(&k, k as i64 % 9);
        }
        let restored = roundtrip(&cms);
        for k in 0u64..200 {
            assert_eq!(restored.estimate(&k), cms.estimate(&k));
        }
    }

    fn written_len<S: SketchState>(sketch: &S) -> usize {
        let mut w = ByteWriter::new();
        sketch.write_state(&mut w);
        w.len()
    }

    #[test]
    fn state_len_is_the_written_length() {
        assert_eq!(
            CountSketch::<i8>::new(3, 100, 1).shape().state_len(),
            written_len(&CountSketch::<i8>::new(3, 100, 1))
        );
        assert_eq!(
            CountSketch::<i16>::new(2, 7, 1).shape().state_len(),
            written_len(&CountSketch::<i16>::new(2, 7, 1))
        );
        assert_eq!(
            CountMinSketch::<i32>::new(4, 9, 1).shape().state_len(),
            written_len(&CountMinSketch::<i32>::new(4, 9, 1))
        );
        assert_eq!(
            CountMinSketch::<i64>::new(1, 5, 1).shape().state_len(),
            written_len(&CountMinSketch::<i64>::new(1, 5, 1))
        );
        let absurd = SketchShape {
            kind: SKETCH_KIND_CS,
            counter_bytes: 8,
            rows: u64::MAX,
            width: u64::MAX,
        };
        assert_eq!(absurd.state_len(), usize::MAX);
    }

    #[test]
    fn kind_mismatch_rejected() {
        let cs = CountSketch::<i8>::new(2, 16, 1);
        let mut shape = cs.shape();
        shape.kind = SKETCH_KIND_CMS;
        let mut w = ByteWriter::new();
        cs.write_state(&mut w);
        let bytes = w.into_bytes();
        let got = CountSketch::<i8>::from_state(shape, &mut ByteReader::new(&bytes));
        assert!(matches!(got, Err(WireError::Invalid(_))));
    }

    #[test]
    fn counter_width_mismatch_rejected() {
        let cs = CountSketch::<i8>::new(2, 16, 1);
        let mut shape = cs.shape();
        shape.counter_bytes = 4;
        let mut w = ByteWriter::new();
        cs.write_state(&mut w);
        let bytes = w.into_bytes();
        let got = CountSketch::<i8>::from_state(shape, &mut ByteReader::new(&bytes));
        assert!(matches!(got, Err(WireError::Invalid(_))));
    }

    #[test]
    fn adversarial_dims_do_not_allocate() {
        let shape = SketchShape {
            kind: SKETCH_KIND_CS,
            counter_bytes: 1,
            rows: u64::MAX,
            width: u64::MAX,
        };
        let got = CountSketch::<i8>::from_state(shape, &mut ByteReader::new(&[]));
        assert!(matches!(got, Err(WireError::Invalid(_))));
    }

    #[test]
    fn truncated_state_rejected() {
        let cs = CountSketch::<i32>::new(3, 32, 9);
        let mut w = ByteWriter::new();
        cs.write_state(&mut w);
        let bytes = w.into_bytes();
        for cut in [0, 1, 8, bytes.len() - 1] {
            let got =
                CountSketch::<i32>::from_state(cs.shape(), &mut ByteReader::new(&bytes[..cut]));
            assert_eq!(got.unwrap_err(), WireError::Truncated, "cut {cut}");
        }
    }
}
