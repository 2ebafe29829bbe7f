//! 64-bit FNV-1a, the simulator's one stable hash.

use std::fmt;

/// 64-bit FNV-1a: stable across runs and platforms, and cheap on the short
/// keys the simulator hashes (fault sites, cache and placement keys,
/// interned trace strings, memo keys, kernel digests).
///
/// [`bytes`](Fnv1a::bytes) folds a byte at a time, [`word`](Fnv1a::word)
/// a whole `u64` in one step, and [`lanes`](Fnv1a::lanes) a slice as
/// little-endian 8-byte words, then its tail bytes. As a `Hasher` it folds
/// bytes; as a `fmt::Write` it folds each formatted piece lane-wise.
///
/// ```
/// use morpheus_simcore::Fnv1a;
///
/// assert_eq!(Fnv1a::hash_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hash at the FNV offset basis.
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// A hash from `basis`, for independent streams over the same data.
    pub const fn with_basis(basis: u64) -> Self {
        Fnv1a(basis)
    }

    /// FNV-1a of `b`, byte by byte.
    pub fn hash_bytes(b: &[u8]) -> u64 {
        let mut h = Self::new();
        h.bytes(b);
        h.0
    }

    /// Folds each byte of `b`.
    pub fn bytes(&mut self, b: &[u8]) {
        b.iter().for_each(|&byte| self.word(u64::from(byte)));
    }

    /// Folds one 64-bit word in a single step.
    #[inline]
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x100_0000_01b3);
    }

    /// Folds `b` as little-endian 8-byte words, then its last `len % 8`
    /// bytes. Lane alignment is part of the value: split a buffer only on
    /// 8-byte boundaries to hash it like one call.
    pub fn lanes(&mut self, b: &[u8]) {
        let mut chunks = b.chunks_exact(8);
        for w in &mut chunks {
            self.word(u64::from_le_bytes(w.try_into().expect("8-byte lane")));
        }
        self.bytes(chunks.remainder());
    }

    /// The hash value.
    pub const fn value(&self) -> u64 {
        self.0
    }
}

/// Builds [`Fnv1a`] hashers for `HashMap`s keyed per page or per request:
/// their keys are a few bytes, where SipHash's setup cost dominates. A map
/// built with it iterates in a fixed order, but the simulator's maps are
/// looked up, never iterated, so no order reaches an output.
///
/// ```
/// use morpheus_simcore::FnvBuild;
/// use std::collections::HashMap;
///
/// let mut pages: HashMap<u64, &str, FnvBuild> = HashMap::default();
/// pages.insert(7, "page");
/// assert_eq!(pages.get(&7), Some(&"page"));
/// ```
pub type FnvBuild = std::hash::BuildHasherDefault<Fnv1a>;

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl std::hash::Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.bytes(bytes);
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.lanes(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(Fnv1a::hash_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::hash_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::hash_bytes(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn lanes_are_words_then_tail_bytes() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7) as u8).collect();
        let mut whole = Fnv1a::with_basis(1);
        whole.lanes(&data);
        let mut split = Fnv1a::with_basis(1);
        split.lanes(&data[..512]);
        split.lanes(&data[512..]);
        assert_eq!(whole, split, "aligned splits hash like one call");
        let mut by_hand = Fnv1a::with_basis(1);
        for w in data.chunks_exact(8) {
            by_hand.word(u64::from_le_bytes(w.try_into().unwrap()));
        }
        assert_eq!(whole, by_hand, "1000 bytes are 125 whole lanes");
        let mut tail = Fnv1a::with_basis(1);
        tail.lanes(b"1 2\n3 4\n5");
        let mut bytes = Fnv1a::with_basis(1);
        bytes.word(u64::from_le_bytes(*b"1 2\n3 4\n"));
        bytes.bytes(b"5");
        assert_eq!(tail, bytes, "the tail folds byte by byte");
    }
}
