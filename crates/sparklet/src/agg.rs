//! A fast deterministic hasher for short keys.

use std::hash::Hasher;

/// Deterministic 64-bit FNV-1a hasher, for maps over short trusted keys
/// (dictionary builds, word counts) where SipHash's per-key cost shows.
/// It has no defence against keys crafted to collide.
#[derive(Default)]
pub struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        const PRIME: u64 = 0x100_0000_01b3;
        let mut h = if self.0 == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.0
        };
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
        self.0 = h;
    }
}
