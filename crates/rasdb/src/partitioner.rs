//! Murmur3-based partitioner: partition key bytes → 64-bit ring token.
//!
//! Matches Cassandra's `Murmur3Partitioner` approach: the token is the
//! first 64 bits of MurmurHash3 x64/128 over the encoded partition key, and
//! a partition key travels with its hash as a [`DecoratedKey`].

use crate::types::Key;
use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::OnceLock;

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

/// A map keyed by [`DecoratedKey`] (or `&DecoratedKey`) that hashes the
/// token the key carries instead of running SipHash over it.
pub(crate) type TokenMap<K, V> = HashMap<K, V, TokenHashing>;

/// Builds the [`TokenHasher`]s of a [`TokenMap`]. Every map of the process
/// shares one seed, drawn once from [`RandomState`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TokenHashing;

impl BuildHasher for TokenHashing {
    type Hasher = TokenHasher;

    fn build_hasher(&self) -> TokenHasher {
        static SEED: OnceLock<(u64, u64)> = OnceLock::new();
        let seed = *SEED.get_or_init(|| {
            let random = RandomState::new();
            (random.hash_one(0u64), random.hash_one(1u64) | 1)
        });
        TokenHasher { seed, hash: 0 }
    }
}

/// Mixes the one word a decorated key writes — its murmur3 token — with a
/// single folded multiply by the process seed. Keys that collide here
/// already collide in their token, and the seed keeps tokens crafted to
/// share low bits from sharing a bucket.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TokenHasher {
    seed: (u64, u64),
    hash: u64,
}

impl Hasher for TokenHasher {
    fn write_u64(&mut self, token: u64) {
        let product = u128::from(token ^ self.seed.0) * u128::from(self.seed.1);
        self.hash = product as u64 ^ (product >> 64) as u64;
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a token map is keyed by decorated keys, which write one u64")
    }

    fn finish(&self) -> u64 {
        self.hash
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
    fn token_hashing_spreads_keys_ground_to_share_their_low_token_bits() {
        // 256 keys picked, as an attacker would, for tokens whose low byte is
        // zero: a pass-through hash puts them all in one bucket of a table of
        // 256. Mixed with the seed they spread like random hashes: about 162
        // buckets, and never fewer than 144 in a simulation of 3,000 seeds.
        let keys: Vec<DecoratedKey> = (0..)
            .map(|i| DecoratedKey::new(Key::from(vec![Value::BigInt(i)])))
            .filter(|k| k.token().0 & 0xff == 0)
            .take(256)
            .collect();
        let buckets: std::collections::HashSet<u64> = keys
            .iter()
            .map(|k| TokenHashing.hash_one(k) & 0xff)
            .collect();
        assert!(buckets.len() > 100, "{} of 256 buckets", buckets.len());
        // One seed per process: every map hashes a key alike, as its token.
        let key = &keys[0];
        assert_eq!(
            TokenHashing.hash_one(key),
            TokenHashing.hash_one(key.clone())
        );
        assert_eq!(
            TokenHashing.hash_one(key),
            TokenHashing.hash_one(key.token().0 as u64)
        );
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
