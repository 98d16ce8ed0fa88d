//! A fast, deterministic hasher for maps that are only ever looked up by key.
//!
//! This is rustc's multiply-rotate `FxHasher`: one rotate, xor and multiply
//! per word, against SipHash's several rounds. It offers no protection from
//! adversarial keys, which the simulator does not face. Being unseeded, it
//! also makes a map's layout depend only on its inserts; the maps using it
//! are still never iterated in a way a result depends on.
//!
//! A product's low bits depend only on the factors' low bits, and the hash
//! table picks buckets from the low bits. TPC-C row numbers put the district
//! above the order id, so every district's order `o` would share a bucket;
//! `finish` therefore rotates the well-mixed high bits down, as rustc-hash 2
//! does.

use std::hash::{BuildHasherDefault, Hasher};

/// A hash map keyed with [`FxHasher`].
#[allow(clippy::disallowed_types)] // the alias every keyed-only map uses
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// rustc's `FxHasher`: `hash = (hash.rotl(5) ^ word) * K` per word.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, BuildHasherDefault};

    #[test]
    fn hashes_depend_only_on_the_key() {
        let build = BuildHasherDefault::<FxHasher>::default();
        assert_eq!(build.hash_one((3u16, 7u64)), build.hash_one((3u16, 7u64)));
        assert_ne!(build.hash_one((3u16, 7u64)), build.hash_one((7u16, 3u64)));
        let mut map = FxHashMap::default();
        map.insert(5u64, "five");
        assert_eq!(map.get(&5), Some(&"five"));
    }
}
