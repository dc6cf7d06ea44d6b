//! Size-tiered compaction: merge similar-sized SSTables into one run.

use crate::memtable::{merge_all, Run};
use crate::partitioner::DecoratedKey;
use crate::sstable::SsTable;
use std::collections::BTreeMap;

/// Minimum number of similar-sized tables before a merge triggers
/// (Cassandra's size-tiered default).
pub const MIN_THRESHOLD: usize = 4;
/// Tables within this size ratio of each other share a bucket.
pub const BUCKET_RATIO: f64 = 2.0;

/// Picks the indices of tables to merge, or `None` when no bucket is ripe.
pub fn pick_bucket(tables: &[SsTable]) -> Option<Vec<usize>> {
    if tables.len() < MIN_THRESHOLD {
        return None;
    }
    // Sort indices by size, then greedily bucket neighbours whose sizes are
    // within the ratio.
    let mut by_size: Vec<usize> = (0..tables.len()).collect();
    by_size.sort_by_key(|&i| tables[i].cell_count());
    let mut bucket: Vec<usize> = Vec::new();
    for &i in &by_size {
        let fits = bucket.last().is_none_or(|&j| {
            let a = tables[j].cell_count().max(1) as f64;
            let b = tables[i].cell_count().max(1) as f64;
            b / a <= BUCKET_RATIO
        });
        if fits {
            bucket.push(i);
        } else if bucket.len() >= MIN_THRESHOLD {
            break;
        } else {
            bucket.clear();
            bucket.push(i);
        }
    }
    if bucket.len() >= MIN_THRESHOLD {
        Some(bucket)
    } else {
        None
    }
}

/// Merges tables into a single run with last-write-wins semantics: each
/// partition's runs, in table order, go through one sorted-run merge, and a
/// partition left with one row holds it inline. Tombstoned cells older than
/// their row tombstone are dropped; the tombstones themselves are retained
/// (no GC grace modelled).
pub fn merge(tables: Vec<SsTable>, sequence: u64) -> SsTable {
    let mut partitions: BTreeMap<DecoratedKey, Vec<Run>> = BTreeMap::new();
    for table in tables {
        for (pk, rows) in table.into_partitions() {
            partitions.entry(pk).or_default().push(rows.into_run());
        }
    }
    let data = partitions
        .into_iter()
        .map(|(pk, runs)| {
            let mut run = merge_all(runs);
            // Drop cells shadowed by their row tombstone to reclaim space.
            for (_, entry) in &mut run {
                entry.purge_shadowed();
            }
            (pk, run.into())
        })
        .collect();
    SsTable::build(sequence, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memtable::{full_range, sorted_cells, RowEntry, Rows};
    use crate::types::{Cell, Key, Value};

    fn pk(h: i64) -> DecoratedKey {
        DecoratedKey::new(Key::from(vec![Value::BigInt(h)]))
    }

    fn ck(ts: i64) -> Key {
        Key::from(vec![Value::Timestamp(ts)])
    }

    fn table_with(seq: u64, h: i64, ts: i64, v: i32, write_ts: u64) -> SsTable {
        let mut e = RowEntry::default();
        e.upsert(&sorted_cells([(
            "v".into(),
            Cell::live(Value::Int(v), write_ts),
        )]));
        SsTable::build(seq, vec![(pk(h), Rows::One((ck(ts), e)))])
    }

    #[test]
    fn merge_applies_lww_across_tables() {
        let old = table_with(1, 1, 5, 10, 100);
        let new = table_with(2, 1, 5, 20, 200);
        let merged = merge(vec![old, new], 3);
        assert_eq!(merged.partition_count(), 1);
        let rows = merged.read_raw(&pk(1), &full_range(), true);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1.cells()[0].1.value, Some(Value::Int(20)));
        // Merge order must not matter.
        let old = table_with(1, 1, 5, 10, 100);
        let new = table_with(2, 1, 5, 20, 200);
        let merged2 = merge(vec![new, old], 3);
        let rows2 = merged2.read_raw(&pk(1), &full_range(), true);
        assert_eq!(rows[0].1, rows2[0].1);
    }

    #[test]
    fn merge_keeps_distinct_rows() {
        let a = table_with(1, 1, 1, 1, 1);
        let b = table_with(2, 1, 2, 2, 1);
        let c = table_with(3, 2, 1, 3, 1);
        let merged = merge(vec![a, b, c], 4);
        assert_eq!(merged.partition_count(), 2);
        assert_eq!(merged.read_raw(&pk(1), &full_range(), true).len(), 2);
    }

    #[test]
    fn tombstone_drops_shadowed_cells_but_survives() {
        let live = table_with(1, 1, 1, 7, 10);
        let mut dead_entry = RowEntry::default();
        dead_entry.delete(20);
        let dead = SsTable::build(2, vec![(pk(1), Rows::One((ck(1), dead_entry)))]);
        let merged = merge(vec![live, dead], 3);
        let rows = merged.read_raw(&pk(1), &full_range(), true);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].1.cells().is_empty(), "shadowed cell reclaimed");
        assert_eq!(rows[0].1.deleted_at, Some(20));
        assert!(rows[0].1.clone().visible(ck(1)).is_none());
    }

    #[test]
    fn bucket_requires_threshold_and_similar_sizes() {
        let n = MIN_THRESHOLD;
        let small: Vec<SsTable> = (0..n as u64)
            .map(|i| table_with(i, i as i64, 1, 1, 1))
            .collect();
        assert!(pick_bucket(&small[..n - 1]).is_none(), "below threshold");
        let got = pick_bucket(&small).unwrap();
        assert_eq!(got.len(), n);

        // One giant table must not bucket with four tiny ones.
        let mut mixed = small;
        let big_rows: Vec<(Key, RowEntry)> = (0..1000)
            .map(|t| {
                let mut e = RowEntry::default();
                e.upsert(&sorted_cells([("v".into(), Cell::live(Value::Int(1), 1))]));
                (ck(t), e)
            })
            .collect();
        let giant = mixed.len();
        mixed.push(SsTable::build(9, vec![(pk(99), Rows::Run(big_rows))]));
        let got = pick_bucket(&mixed).unwrap();
        assert_eq!(got.len(), n, "giant table excluded from the bucket");
        assert!(!got.contains(&giant));
    }
}
