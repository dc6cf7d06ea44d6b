//! Bloom filter guarding SSTable partition lookups.

/// A standard k-hash bloom filter over 128-bit key hashes.
///
/// Double hashing (`h1 + i·h2`) derives the k probe positions from one
/// murmur3 128-bit hash, the same trick Cassandra uses. The filter takes the
/// hash, not the key: an SSTable feeds it the hash its decorated partition
/// keys already carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    nbits: usize,
    k: u32,
}

impl BloomFilter {
    /// Sizes the filter for `expected` keys at roughly `fp_rate` false
    /// positives (clamped to sane bounds).
    pub fn new(expected: usize, fp_rate: f64) -> BloomFilter {
        let expected = expected.max(1);
        let fp = fp_rate.clamp(1e-6, 0.5);
        // m = -n ln p / (ln 2)^2 ; k = m/n ln 2
        let m = (-(expected as f64) * fp.ln() / (2f64.ln().powi(2))).ceil() as usize;
        let nbits = m.max(64);
        let k = ((nbits as f64 / expected as f64) * 2f64.ln())
            .round()
            .max(1.0) as u32;
        BloomFilter {
            bits: vec![0; nbits.div_ceil(64)],
            nbits,
            k: k.min(16),
        }
    }

    /// Inserts a key by its hash.
    pub fn insert(&mut self, (h1, h2): (u64, u64)) {
        for i in 0..self.k {
            let bit = self.probe(h1, h2, i);
            self.bits[bit / 64] |= 1 << (bit % 64);
        }
    }

    /// True if the key with this hash *may* be present; false means
    /// definitely absent.
    pub fn may_contain(&self, (h1, h2): (u64, u64)) -> bool {
        (0..self.k).all(|i| {
            let bit = self.probe(h1, h2, i);
            self.bits[bit / 64] & (1 << (bit % 64)) != 0
        })
    }

    #[inline]
    fn probe(&self, h1: u64, h2: u64, i: u32) -> usize {
        (h1.wrapping_add((i as u64).wrapping_mul(h2)) % self.nbits as u64) as usize
    }

    /// Memory footprint in bits (for stats).
    pub fn nbits(&self) -> usize {
        self.nbits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::murmur3_x64_128;

    fn hash(bytes: &[u8]) -> (u64, u64) {
        murmur3_x64_128(bytes, 0)
    }

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::new(1000, 0.01);
        for i in 0u32..1000 {
            f.insert(hash(&i.to_le_bytes()));
        }
        for i in 0u32..1000 {
            assert!(f.may_contain(hash(&i.to_le_bytes())));
        }
    }

    #[test]
    fn false_positive_rate_is_roughly_bounded() {
        let mut f = BloomFilter::new(1000, 0.01);
        for i in 0u32..1000 {
            f.insert(hash(&i.to_le_bytes()));
        }
        let fps = (10_000u32..20_000)
            .filter(|i| f.may_contain(hash(&i.to_le_bytes())))
            .count();
        // 1% nominal; allow generous slack for variance.
        assert!(fps < 500, "false positives: {fps}/10000");
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let f = BloomFilter::new(10, 0.01);
        assert!(!f.may_contain(hash(b"anything")));
    }

    #[test]
    fn degenerate_params_are_clamped() {
        let mut f = BloomFilter::new(0, -3.0);
        f.insert(hash(b"x"));
        assert!(f.may_contain(hash(b"x")));
        assert!(f.nbits() >= 64);
    }
}
