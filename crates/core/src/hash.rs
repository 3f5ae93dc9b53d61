//! FNV-1a 64, the program's one content hash.
//!
//! One xor and one multiply per byte and no per-hasher random state, so
//! a hash is the same in every process and on every host. It picks
//! response-cache shards and hashes inside them, places front-tier ring
//! points, and stamps query cursors with their program and model. It is
//! not collision resistant. (The v2 artifact checksum is a separate,
//! four-lane word-wise FNV-1a; it defines artifact bytes.)

use std::fmt;
use std::hash::Hasher;

/// An FNV-1a 64 hasher. It is also a [`fmt::Write`] sink, so text can
/// be hashed as it is formatted instead of built into a `String` first.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a 64 of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn formatted_text_hashes_like_its_bytes() {
        let (gid, year) = (7, "-");
        let mut h = Fnv1a::default();
        write!(h, "d {gid} {year}").unwrap();
        h.write(b"\n");
        assert_eq!(h.finish(), fnv1a64(b"d 7 -\n"));
    }
}
