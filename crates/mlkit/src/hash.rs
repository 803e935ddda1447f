//! A deterministic multiply-rotate hasher for small fixed-width keys.
//!
//! Memo tables keyed by a few integer words pay for every lookup's hash,
//! and std's SipHash costs more than the rest of such a lookup. This fold
//! takes a few multiplies per key and has no per-process seed, so a
//! table's layout is the same in every run.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier of [`KeyHasher`]: odd, so multiplying by it is a bijection.
const KEY_MUL: u64 = 0xf135_7aea_2e62_a9c5;

/// Each word is folded in as `h = (h.rotate_left(5) ^ word) · KEY_MUL`.
/// Every step is a bijection of `h` for a fixed word and of the word for
/// a fixed `h`, so two keys that differ in one word always hash
/// differently. A key whose `Hash` writes five words costs five
/// multiplies.
#[derive(Debug, Clone, Copy, Default)]
pub struct KeyHasher(u64);

/// The [`BuildHasher`](std::hash::BuildHasher) of maps hashed with
/// [`KeyHasher`].
pub type KeyBuildHasher = BuildHasherDefault<KeyHasher>;

impl Hasher for KeyHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(KEY_MUL);
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    /// Also takes the enum discriminant, which `write_isize` forwards.
    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    /// The product's high bits mix every input bit; the rotation moves
    /// them down to the low bits a hash table indexes its buckets with.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}
