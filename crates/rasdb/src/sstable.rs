//! Immutable sorted runs flushed from the memtable.
//!
//! An `SsTable` mirrors the on-disk artifact of an LSM engine: partition
//! data in decorated-key (token) order, an index for binary search, and a
//! bloom filter that lets reads skip tables that cannot contain the
//! partition. (Data lives in
//! memory here — the cluster is an in-process simulation — but every
//! structural property reads rely on is preserved.)

use crate::bloom::BloomFilter;
use crate::memtable::{range_of, RowEntry, Rows};
use crate::partitioner::{murmur3_x64_128, DecoratedKey};
use crate::types::Key;
use std::ops::Bound;

/// Seed for stream-chunk checksums (distinct from the ring token seed so
/// the two hash domains can never alias).
const STREAM_CHECKSUM_SEED: u64 = 0x0dd_ba11;

/// Canonical byte encoding of one streamed row: clustering key, row
/// tombstone, then every cell (name, write timestamp, value-or-tombstone)
/// in column order. Range streaming checksums chunks of this encoding;
/// both sides of a transfer must produce identical bytes for identical
/// rows, which the deterministic `Value` encoding guarantees.
pub fn encode_stream_row(out: &mut Vec<u8>, clustering: &Key, entry: &RowEntry) {
    let ck = clustering.encode();
    out.extend_from_slice(&(ck.len() as u32).to_le_bytes());
    out.extend_from_slice(&ck);
    match entry.deleted_at {
        None => out.push(0),
        Some(ts) => {
            out.push(1);
            out.extend_from_slice(&ts.to_le_bytes());
        }
    }
    out.extend_from_slice(&(entry.cells().len() as u32).to_le_bytes());
    for (name, cell) in entry.cells().iter() {
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&cell.write_ts.to_le_bytes());
        match &cell.value {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode_into(out);
            }
        }
    }
}

/// Encodes a whole stream chunk — the partition key plus every row in
/// chunk order — into the wire form that [`stream_chunk_checksum`] covers.
pub fn encode_stream_chunk(partition: &Key, rows: &[(Key, RowEntry)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 * rows.len().max(1));
    let pk = partition.encode();
    out.extend_from_slice(&(pk.len() as u32).to_le_bytes());
    out.extend_from_slice(&pk);
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for (ck, entry) in rows {
        encode_stream_row(&mut out, ck, entry);
    }
    out
}

/// Order-sensitive checksum over an encoded stream chunk. The sender
/// computes it before transmission, the receiver recomputes it over the
/// received bytes; any corruption in flight shows up as a mismatch and the
/// chunk is NAKed for retry.
pub fn stream_chunk_checksum(encoded: &[u8]) -> u64 {
    murmur3_x64_128(encoded, STREAM_CHECKSUM_SEED).0
}

/// One immutable sorted run.
#[derive(Debug, Clone)]
pub struct SsTable {
    /// Monotonic flush sequence number (newer tables have larger values).
    pub sequence: u64,
    /// Partitions in decorated-key (ring) order, each as the memtable (or a
    /// compaction) left it.
    data: Vec<(DecoratedKey, Rows)>,
    bloom: BloomFilter,
    cells: usize,
}

impl SsTable {
    /// Builds a table from flush output in decorated order. The bloom filter
    /// is fed the hash each partition key already carries.
    pub fn build(sequence: u64, data: Vec<(DecoratedKey, Rows)>) -> SsTable {
        debug_assert!(
            data.windows(2).all(|w| w[0].0 < w[1].0),
            "flush output must be in decorated-key order"
        );
        let mut bloom = BloomFilter::new(data.len().max(8), 0.01);
        let mut cells = 0;
        for (pk, rows) in &data {
            bloom.insert(pk.hash128());
            cells += rows.iter().map(|(_, e)| e.weight()).sum::<usize>();
        }
        SsTable {
            sequence,
            data,
            bloom,
            cells,
        }
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.data.len()
    }

    /// Total stored cells (compaction sizing).
    pub fn cell_count(&self) -> usize {
        self.cells
    }

    /// Bloom-filter check by the partition's stored hash; false means the
    /// partition is definitely absent.
    pub fn may_contain(&self, partition: &DecoratedKey) -> bool {
        self.bloom.may_contain(partition.hash128())
    }

    /// The stored row entries of one partition within a clustering range.
    /// `use_bloom` enables the filter short-circuit (ablation hook).
    pub fn read_raw(
        &self,
        partition: &DecoratedKey,
        range: &(Bound<Key>, Bound<Key>),
        use_bloom: bool,
    ) -> &[(Key, RowEntry)] {
        if use_bloom && !self.may_contain(partition) {
            return &[];
        }
        let found = self.data.binary_search_by(|(pk, _)| pk.cmp(partition));
        found.map_or(&[], |i| range_of(&self.data[i].1, range))
    }

    /// Iterates all partitions (compaction and token-range scans).
    pub fn partitions(&self) -> impl Iterator<Item = &(DecoratedKey, Rows)> {
        self.data.iter()
    }

    /// Consumes the table into its partitions.
    pub fn into_partitions(self) -> Vec<(DecoratedKey, Rows)> {
        self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memtable::sorted_cells;
    use crate::types::{Cell, Value};

    fn pk(h: i64) -> DecoratedKey {
        DecoratedKey::new(Key::from(vec![Value::BigInt(h)]))
    }

    fn ck(ts: i64) -> Key {
        Key::from(vec![Value::Timestamp(ts)])
    }

    fn entry(v: i32, ts: u64) -> RowEntry {
        let mut e = RowEntry::default();
        e.upsert(&sorted_cells([("v".into(), Cell::live(Value::Int(v), ts))]));
        e
    }

    fn sample() -> SsTable {
        let mut data = vec![
            (
                pk(1),
                vec![(ck(1), entry(1, 1)), (ck(3), entry(3, 1))].into(),
            ),
            (pk(2), Rows::One((ck(2), entry(2, 1)))),
            (
                pk(5),
                Rows::Run((0..100).map(|t| (ck(t), entry(t as i32, 1))).collect()),
            ),
        ];
        data.sort_by(|a, b| a.0.cmp(&b.0));
        SsTable::build(1, data)
    }

    #[test]
    fn point_lookup_finds_partition() {
        let t = sample();
        assert_eq!(
            t.read_raw(&pk(2), &crate::memtable::full_range(), true)
                .len(),
            1
        );
        assert!(t
            .read_raw(&pk(9), &crate::memtable::full_range(), true)
            .is_empty());
    }

    #[test]
    fn clustering_range_bounds() {
        let t = sample();
        let r = t.read_raw(
            &pk(5),
            &(Bound::Included(ck(10)), Bound::Excluded(ck(20))),
            true,
        );
        assert_eq!(r.len(), 10);
        assert_eq!(r[0].0, ck(10));
        assert_eq!(r[9].0, ck(19));
        let r = t.read_raw(
            &pk(5),
            &(Bound::Excluded(ck(10)), Bound::Included(ck(20))),
            true,
        );
        assert_eq!(r.len(), 10);
        assert_eq!(r[0].0, ck(11));
        assert_eq!(r[9].0, ck(20));
    }

    #[test]
    fn empty_range_is_empty() {
        let t = sample();
        let r = t.read_raw(
            &pk(5),
            &(Bound::Included(ck(50)), Bound::Excluded(ck(50))),
            true,
        );
        assert!(r.is_empty());
        let r = t.read_raw(&pk(5), &(Bound::Included(ck(200)), Bound::Unbounded), true);
        assert!(r.is_empty());
    }

    #[test]
    fn bloom_skips_absent_partitions() {
        let t = sample();
        // Present partitions always pass the filter.
        assert!(t.may_contain(&pk(1)));
        assert!(t.may_contain(&pk(5)));
        // Nearly all absent partitions are rejected.
        let rejected = (1000i64..2000).filter(|h| !t.may_contain(&pk(*h))).count();
        assert!(rejected > 900, "rejected {rejected}/1000");
    }

    #[test]
    fn counts_reported() {
        let t = sample();
        assert_eq!(t.partition_count(), 3);
        assert!(t.cell_count() >= 103);
    }

    #[test]
    fn stream_checksum_is_stable_and_order_sensitive() {
        let rows = vec![(ck(1), entry(1, 1)), (ck(2), entry(2, 1))];
        let a = stream_chunk_checksum(&encode_stream_chunk(pk(1).key(), &rows));
        let b = stream_chunk_checksum(&encode_stream_chunk(pk(1).key(), &rows));
        assert_eq!(a, b, "identical chunks must checksum identically");
        let swapped = vec![rows[1].clone(), rows[0].clone()];
        assert_ne!(
            a,
            stream_chunk_checksum(&encode_stream_chunk(pk(1).key(), &swapped)),
            "row order is part of the chunk identity"
        );
        assert_ne!(
            a,
            stream_chunk_checksum(&encode_stream_chunk(pk(2).key(), &rows)),
            "the partition key is part of the chunk identity"
        );
    }

    #[test]
    fn stream_checksum_detects_any_flipped_byte() {
        let rows = vec![(ck(1), entry(7, 3)), (ck(2), entry(9, 4))];
        let encoded = encode_stream_chunk(pk(5).key(), &rows);
        let sum = stream_chunk_checksum(&encoded);
        for i in 0..encoded.len() {
            let mut corrupted = encoded.clone();
            corrupted[i] ^= 0xff;
            assert_ne!(
                sum,
                stream_chunk_checksum(&corrupted),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn stream_encoding_distinguishes_tombstones() {
        let live = entry(1, 5);
        let mut dead = RowEntry::default();
        dead.delete(5);
        let a = encode_stream_chunk(pk(1).key(), &[(ck(1), live)]);
        let b = encode_stream_chunk(pk(1).key(), &[(ck(1), dead)]);
        assert_ne!(a, b, "a tombstone must encode differently from a live row");
    }
}
