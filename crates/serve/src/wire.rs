//! Length-prefixed binary records (the snapshot wire format primitives).
//!
//! The upstream design would lean on the `bytes` crate's `BufMut`/`Buf`
//! pair; the build environment has no registry access, so this module
//! hand-rolls the same discipline: little-endian fixed-width integers,
//! `f64` stored as raw IEEE-754 bits (so round trips are bit-identical,
//! including NaN payloads and `-0.0`), and `u64` length prefixes for
//! strings and sequences.
//!
//! Every read is bounds-checked: a truncated or corrupted buffer yields
//! [`SnapshotError::Truncated`] / [`SnapshotError::Malformed`], never a
//! panic or an unbounded allocation.

use crate::SnapshotError;

/// Append-only record writer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as `u64` (snapshots are architecture-neutral).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a little-endian `i32`.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its raw bit pattern (bit-identical round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed `u32` sequence.
    pub fn put_u32_seq(&mut self, xs: &[u32]) {
        self.put_usize(xs.len());
        for &x in xs {
            self.put_u32(x);
        }
    }

    /// Appends a length-prefixed `f64` sequence (raw bits).
    pub fn put_f64_seq(&mut self, xs: &[f64]) {
        self.put_usize(xs.len());
        for &x in xs {
            self.put_f64(x);
        }
    }

    /// Appends an `Option` as a presence byte plus the value.
    pub fn put_option<T>(&mut self, v: Option<&T>, put: impl FnOnce(&mut Self, &T)) {
        match v {
            None => self.put_u8(0),
            Some(x) => {
                self.put_u8(1);
                put(self, x);
            }
        }
    }
}

/// Bounds-checked sequential reader over a snapshot byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                offset: self.pos,
                needed: n,
                available: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads exactly `N` bytes into a fixed-size array. `take` already
    /// guarantees the length, so this has no panic path.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take_array::<4>()?))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take_array::<8>()?))
    }

    /// Reads a `u64` length prefix, rejecting values that cannot possibly
    /// fit in the remaining buffer (`min_item_size` bytes per element).
    /// This keeps corrupted length fields from driving huge allocations.
    pub fn get_len(&mut self, min_item_size: usize) -> Result<usize, SnapshotError> {
        let at = self.pos;
        let raw = self.get_u64()?;
        let len = usize::try_from(raw).map_err(|_| SnapshotError::Malformed {
            offset: at,
            what: format!("length {raw} overflows usize"),
        })?;
        let floor = len.saturating_mul(min_item_size.max(1));
        if floor > self.remaining() {
            return Err(SnapshotError::Truncated {
                offset: at,
                needed: floor,
                available: self.remaining(),
            });
        }
        Ok(len)
    }

    /// Reads a little-endian `i32`.
    pub fn get_i32(&mut self) -> Result<i32, SnapshotError> {
        Ok(i32::from_le_bytes(self.take_array::<4>()?))
    }

    /// Reads an `f64` from its raw bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, SnapshotError> {
        let len = self.get_len(1)?;
        let at = self.pos;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::Malformed {
            offset: at,
            what: "string is not valid UTF-8".into(),
        })
    }

    /// Reads a length-prefixed `u32` sequence.
    pub fn get_u32_seq(&mut self) -> Result<Vec<u32>, SnapshotError> {
        let len = self.get_len(4)?;
        (0..len).map(|_| self.get_u32()).collect()
    }

    /// Reads a length-prefixed `f64` sequence.
    pub fn get_f64_seq(&mut self) -> Result<Vec<f64>, SnapshotError> {
        let len = self.get_len(8)?;
        (0..len).map(|_| self.get_f64()).collect()
    }

    /// Reads an `Option` written by [`ByteWriter::put_option`].
    pub fn get_option<T>(
        &mut self,
        get: impl FnOnce(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<Option<T>, SnapshotError> {
        let at = self.pos;
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(get(self)?)),
            tag => Err(SnapshotError::Malformed {
                offset: at,
                what: format!("invalid Option tag {tag}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip_is_bit_identical() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_i32(-42);
        w.put_f64(-0.0);
        w.put_f64(f64::from_bits(0x7FF8_0000_0000_1234)); // NaN with payload
        w.put_str("snapshot ✓");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_i32().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_f64().unwrap().to_bits(), 0x7FF8_0000_0000_1234);
        assert_eq!(r.get_str().unwrap(), "snapshot ✓");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let mut w = ByteWriter::new();
        w.put_u64(5);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..6]);
        assert!(matches!(r.get_u64(), Err(SnapshotError::Truncated { .. })));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX); // claims ~2^64 elements
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.get_u32_seq(),
            Err(SnapshotError::Truncated { .. } | SnapshotError::Malformed { .. })
        ));
    }

    #[test]
    fn option_tags_are_validated() {
        let bytes = vec![2u8];
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.get_option(|r| r.get_u8()),
            Err(SnapshotError::Malformed { .. })
        ));
    }
}
