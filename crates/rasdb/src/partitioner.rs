//! Murmur3-based partitioner: partition key bytes → 64-bit ring token.
//!
//! Matches Cassandra's `Murmur3Partitioner` approach: the token is the
//! first 64 bits of MurmurHash3 x64/128 over the encoded partition key, and
//! a partition key travels with its hash as a [`DecoratedKey`].

use crate::types::Key;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

/// A position on the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Token(pub i64);

/// Hashes a partition key to its ring token.
pub fn token_for(key: &Key) -> Token {
    DecoratedKey::new(key.clone()).token()
}

/// A partition key and its murmur3 hash, Cassandra's decorated key.
///
/// A key is hashed once, where the coordinator first sees it; everything
/// below — ring placement, memtable and SSTable order, bloom filters, batch
/// grouping, data versions — uses the stored hash and never encodes the key
/// again. Both 64-bit halves are kept: the first is the ring token, and the
/// pair is what a bloom filter probes with.
///
/// Ordered by `(token, key)`: ring order, the key breaking token ties. Two
/// decorated keys are equal when their keys are (equal keys have equal
/// hashes), and `Hash` writes the token alone.
#[derive(Debug, Clone)]
pub struct DecoratedKey {
    hash: (u64, u64),
    key: Key,
}

impl DecoratedKey {
    /// Decorates `key`: murmur3 x64/128, seed 0, over its encoding.
    pub fn new(key: Key) -> DecoratedKey {
        DecoratedKey::with_buffer(key, &mut Vec::new())
    }

    /// [`DecoratedKey::new`] encoding into `buf` (cleared first), so a
    /// caller decorating many keys allocates nothing per key.
    pub fn with_buffer(key: Key, buf: &mut Vec<u8>) -> DecoratedKey {
        buf.clear();
        for v in key.0.iter() {
            v.encode_into(buf);
        }
        DecoratedKey {
            hash: murmur3_x64_128(buf, 0),
            key,
        }
    }

    /// The ring token: the first half of the hash.
    pub fn token(&self) -> Token {
        Token(self.hash.0 as i64)
    }

    /// Both halves of the hash, as a bloom filter takes them.
    pub fn hash128(&self) -> (u64, u64) {
        self.hash
    }

    /// The partition key.
    pub fn key(&self) -> &Key {
        &self.key
    }
}

impl PartialEq for DecoratedKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.key == other.key
    }
}

impl Eq for DecoratedKey {}

impl Ord for DecoratedKey {
    fn cmp(&self, other: &Self) -> Ordering {
        let by_token = self.token().cmp(&other.token());
        by_token.then_with(|| self.key.cmp(&other.key))
    }
}

impl PartialOrd for DecoratedKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for DecoratedKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash.0);
    }
}

/// MurmurHash3 x64/128 (public-domain algorithm by Austin Appleby).
/// Returns the two 64-bit halves.
pub fn murmur3_x64_128(data: &[u8], seed: u64) -> (u64, u64) {
    const C1: u64 = 0x87c3_7b91_1142_53d5;
    const C2: u64 = 0x4cf5_ad43_2745_937f;
    let len = data.len();
    let mut h1 = seed;
    let mut h2 = seed;

    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        let k1 = u64::from_le_bytes(chunk[0..8].try_into().expect("8 bytes"));
        let k2 = u64::from_le_bytes(chunk[8..16].try_into().expect("8 bytes"));

        let k1 = k1.wrapping_mul(C1).rotate_left(31).wrapping_mul(C2);
        h1 ^= k1;
        h1 = h1
            .rotate_left(27)
            .wrapping_add(h2)
            .wrapping_mul(5)
            .wrapping_add(0x52dce729);

        let k2 = k2.wrapping_mul(C2).rotate_left(33).wrapping_mul(C1);
        h2 ^= k2;
        h2 = h2
            .rotate_left(31)
            .wrapping_add(h1)
            .wrapping_mul(5)
            .wrapping_add(0x38495ab5);
    }

    let tail = chunks.remainder();
    let mut k1: u64 = 0;
    let mut k2: u64 = 0;
    for (i, &b) in tail.iter().enumerate() {
        if i < 8 {
            k1 |= (b as u64) << (8 * i);
        } else {
            k2 |= (b as u64) << (8 * (i - 8));
        }
    }
    if tail.len() > 8 {
        let k2 = k2.wrapping_mul(C2).rotate_left(33).wrapping_mul(C1);
        h2 ^= k2;
    }
    if !tail.is_empty() {
        let k1 = k1.wrapping_mul(C1).rotate_left(31).wrapping_mul(C2);
        h1 ^= k1;
    }

    h1 ^= len as u64;
    h2 ^= len as u64;
    h1 = h1.wrapping_add(h2);
    h2 = h2.wrapping_add(h1);
    h1 = fmix64(h1);
    h2 = fmix64(h2);
    h1 = h1.wrapping_add(h2);
    h2 = h2.wrapping_add(h1);
    (h1, h2)
}

#[inline]
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^= k >> 33;
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Value;

    #[test]
    fn known_murmur3_vectors() {
        // Vectors cross-checked against the reference C++ implementation.
        assert_eq!(murmur3_x64_128(b"", 0), (0, 0));
        let (h1, _) = murmur3_x64_128(b"hello", 0);
        assert_eq!(h1, 0xcbd8_a7b3_41bd_9b02);
        let (h1, h2) = murmur3_x64_128(b"The quick brown fox jumps over the lazy dog", 0);
        assert_eq!(h1, 0xe34b_bc7b_bc07_1b6c);
        assert_eq!(h2, 0x7a43_3ca9_c49a_9347);
    }

    #[test]
    fn seed_changes_hash() {
        assert_ne!(murmur3_x64_128(b"abc", 0), murmur3_x64_128(b"abc", 1));
    }

    #[test]
    fn token_is_deterministic_and_key_sensitive() {
        let k1 = Key::from(vec![Value::BigInt(417_000), Value::text("MCE")]);
        let k2 = Key::from(vec![Value::BigInt(417_000), Value::text("GPU_DBE")]);
        assert_eq!(token_for(&k1), token_for(&k1));
        assert_ne!(token_for(&k1), token_for(&k2));
    }

    #[test]
    fn tokens_disperse_over_hours() {
        // Consecutive hours must not map to clustered tokens; check rough
        // dispersion by counting distinct leading bytes.
        let mut leading = std::collections::HashSet::new();
        for hour in 0..256i64 {
            let t = token_for(&Key::from(vec![Value::BigInt(hour), Value::text("MCE")]));
            leading.insert((t.0 as u64 >> 56) as u8);
        }
        assert!(leading.len() > 100, "got {}", leading.len());
    }

    #[test]
    fn all_tail_lengths_hash() {
        // Exercise every remainder branch length 0..=15.
        let data: Vec<u8> = (0u8..32).collect();
        let mut seen = std::collections::HashSet::new();
        for n in 0..=31 {
            seen.insert(murmur3_x64_128(&data[..n], 7));
        }
        assert_eq!(seen.len(), 32);
    }
}
