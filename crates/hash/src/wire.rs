//! Little-endian binary serialization primitives for snapshot files.
//!
//! The crash-safety layer (qf-core's `snapshot` module) persists every
//! structure as a flat byte stream. This module provides the two halves of
//! that wire format:
//!
//! * [`ByteWriter`] — an append-only buffer with fixed-width little-endian
//!   integer/float encoders. Writing is infallible.
//! * [`ByteReader`] — a cursor over a byte slice whose every read is
//!   fallible: a truncated or corrupted snapshot surfaces as a
//!   [`WireError`] instead of a panic, which is the foundation of the
//!   panic-free restore path.
//!
//! All multi-byte values are little-endian. Floats are serialized via
//! their IEEE-754 bit patterns ([`f64::to_bits`]) so round-trips are
//! byte-exact, including for non-canonical NaNs.

/// Decoding failure: the snapshot bytes cannot be interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value could be read.
    Truncated,
    /// A field decoded to a structurally invalid value.
    Invalid(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "snapshot truncated"),
            Self::Invalid(reason) => write!(f, "{reason}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only little-endian encoder.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Start an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write into `buf` from its start, keeping its allocation: the buffer
    /// is cleared and at least `capacity` bytes are reserved, so an encoder
    /// that knows its output size allocates at most once (and not at all
    /// when `buf` is a previous output of the same size).
    pub fn reuse(mut buf: Vec<u8>, capacity: usize) -> Self {
        buf.clear();
        buf.reserve(capacity);
        Self { buf }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// View the encoded bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consume the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append raw bytes verbatim.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append `len` zero bytes and return them for in-place encoding. The
    /// bulk path for arrays of fixed-width records: the caller encodes
    /// every record into the block, paying one length update for the whole
    /// array instead of one per field.
    pub fn put_block(&mut self, len: usize) -> &mut [u8] {
        let start = self.buf.len();
        self.buf.resize(start + len, 0);
        &mut self.buf[start..]
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (byte-exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
}

/// Fallible little-endian decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Start reading at the beginning of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether the cursor is at the end.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Take the next `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.get_bytes(1)?[0])
    }

    /// Read a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let b = self.get_bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        let b = self.get_bytes(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Read an `i64`.
    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        let b = self.get_bytes(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(i64::from_le_bytes(a))
    }

    /// Read an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a `width`-byte two's-complement integer, sign-extended to
    /// `i64` — the inverse of writing an integer's low `width`
    /// little-endian bytes, which is how narrow sketch counters (1–8
    /// bytes per cell) are stored.
    pub fn get_int_narrow(&mut self, width: usize) -> Result<i64, WireError> {
        if !(1..=8).contains(&width) {
            return Err(WireError::Invalid("counter width out of range"));
        }
        let b = self.get_bytes(width)?;
        // Sign-extend: place the bytes at the top of a u64 and shift down
        // arithmetically.
        let mut a = [0u8; 8];
        a[8 - width..].copy_from_slice(b);
        Ok(i64::from_le_bytes(a) >> (8 * (8 - width)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAB);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_i64(-987_654_321_000);
        w.put_f64(-2.5e-300);
        w.put_bytes(b"tail");
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.get_i64().unwrap(), -987_654_321_000);
        assert_eq!(r.get_f64().unwrap(), -2.5e-300);
        assert_eq!(r.get_bytes(4).unwrap(), b"tail");
        assert!(r.is_empty());
    }

    #[test]
    fn reuse_and_block_write_in_place() {
        let mut w = ByteWriter::reuse(vec![0xEE; 100], 16);
        assert!(w.is_empty(), "reuse starts from an empty buffer");
        w.put_u8(7);
        w.put_block(6)
            .chunks_exact_mut(3)
            .enumerate()
            .for_each(|(i, rec)| rec.copy_from_slice(&[i as u8; 3]));
        w.put_u8(9);
        assert_eq!(w.as_slice(), &[7, 0, 0, 0, 1, 1, 1, 9]);
        assert!(w.put_block(0).is_empty());
    }

    #[test]
    fn f64_bit_exact_nan() {
        let weird_nan = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut w = ByteWriter::new();
        w.put_f64(weird_nan);
        let bytes = w.into_bytes();
        let got = ByteReader::new(&bytes).get_f64().unwrap();
        assert_eq!(got.to_bits(), weird_nan.to_bits());
    }

    #[test]
    fn truncated_reads_error_not_panic() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.get_u64(), Err(WireError::Truncated));
        // Cursor untouched by the failed read's partial progress guard.
        assert_eq!(r.get_bytes(2).unwrap(), &[1, 2]);
        assert_eq!(r.get_u32(), Err(WireError::Truncated));
        assert_eq!(r.get_u8().unwrap(), 3);
        assert_eq!(r.get_u8(), Err(WireError::Truncated));
    }

    #[test]
    fn narrow_ints_sign_extend() {
        for width in 1..=8usize {
            let lo = i64::MIN >> (8 * (8 - width));
            let hi = i64::MAX >> (8 * (8 - width));
            for v in [lo, -1, 0, 1, hi] {
                let bytes = &v.to_le_bytes()[..width];
                let got = ByteReader::new(bytes).get_int_narrow(width).unwrap();
                assert_eq!(got, v, "width {width} value {v}");
            }
        }
    }

    #[test]
    fn narrow_int_bad_width_rejected() {
        let mut r = ByteReader::new(&[0; 16]);
        assert!(matches!(r.get_int_narrow(0), Err(WireError::Invalid(_))));
        assert!(matches!(r.get_int_narrow(9), Err(WireError::Invalid(_))));
    }
}
