//! The memtable keeps each partition as a sorted run, partitions in
//! decorated-key (ring) order. Whatever order rows arrive in, it must hold,
//! weigh, stop at and flush — partitions in token order — exactly what a
//! map of the storage model's rows per partition holds, weighs, stops at and
//! flushes, a partition of one row held inline, and rows that arrive in
//! front of what is stored must not cost a `Vec::insert` each.

#[path = "support/model.rs"]
mod model;

use model::{ck, pk, to_model, ModelRow, Raw};
use proptest::prelude::*;
use rasdb::memtable::{full_range, sorted_cells, Cells, Memtable, Rows};
use rasdb::types::{Cell, Key, Value};
use rasdb::DecoratedKey;
use std::collections::BTreeMap;
use std::ops::{Bound, RangeBounds};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Range = (Bound<Key>, Bound<Key>);

/// One row change as a group carries it: clustering key, cells, row delete.
type Change = (Key, Cells, Option<u64>);

/// The memtable as a map of the model's rows per partition, filled with the
/// memtable's weight accounting (a row weighs its cells and one), row by
/// row; partitions in decorated order.
#[derive(Default)]
struct Model {
    partitions: BTreeMap<DecoratedKey, BTreeMap<Key, ModelRow>>,
    weight: usize,
}

impl Model {
    /// Applies generated rows, their cells one by one as drawn.
    fn upsert_rows(
        &mut self,
        partition: &DecoratedKey,
        rows: &[RowSpec],
        flush_at: usize,
    ) -> usize {
        let rows_of = self.partitions.entry(partition.clone()).or_default();
        let mut applied = 0;
        for (k, cells, row_delete) in rows {
            applied += 1;
            if row_delete.is_none() && cells.is_empty() {
                continue;
            }
            let row = rows_of.entry(ck(*k)).or_default();
            if let Some(ts) = row_delete {
                row.delete(*ts);
                self.weight += 1;
            }
            if !cells.is_empty() {
                self.weight -= (row.cells.len() + 1).min(self.weight);
                let cells: Vec<(Arc<str>, Cell)> = cells.iter().map(cell).collect();
                row.write(&cells);
                self.weight += row.cells.len() + 1;
            }
            if self.weight >= flush_at {
                break;
            }
        }
        if rows_of.is_empty() {
            self.partitions.remove(partition);
        }
        applied
    }

    fn read_raw(&self, partition: &DecoratedKey, range: &Range) -> Raw {
        let Some(rows) = self.partitions.get(partition) else {
            return Vec::new();
        };
        rows.iter()
            .filter(|(k, _)| range.contains(*k))
            .map(|(k, row)| (k.clone(), row.clone()))
            .collect()
    }

    fn drain_sorted(&mut self) -> Vec<(DecoratedKey, Raw)> {
        self.weight = 0;
        std::mem::take(&mut self.partitions)
            .into_iter()
            .map(|(pk, rows)| (pk, rows.into_iter().collect()))
            .collect()
    }
}

/// One generated cell: name, value (`None`: a cell tombstone), write time.
type CellSpec = (&'static str, Option<i32>, u64);

/// A generated row: clustering key, cells, row delete.
type RowSpec = (i64, Vec<CellSpec>, Option<u64>);

fn cell(&(name, v, write_ts): &CellSpec) -> (Arc<str>, Cell) {
    let value = v.map(Value::Int);
    (name.into(), Cell { value, write_ts })
}

/// One group: a partition and its rows in arrival order.
#[derive(Debug, Clone)]
struct Group {
    partition: i64,
    rows: Vec<RowSpec>,
}

fn arb_group() -> impl Strategy<Value = Group> {
    // Three names and a dozen timestamps: overwrites, cell tombstones, ties
    // and row deletes on a few dozen clustering keys.
    const NAMES: [&str; 3] = ["a", "b", "c"];
    let cell = (
        0..NAMES.len(),
        prop_oneof![Just(None), (0..5i32).prop_map(Some)],
        0..12u64,
    )
        .prop_map(|(n, v, ts)| (NAMES[n], v, ts));
    let delete = prop_oneof![4 => Just(None), 1 => (0..12u64).prop_map(Some)];
    let row = (prop::collection::vec(cell, 0..3), delete);
    let keys = prop::collection::vec(0..60i64, 1..50);
    (0..4i64, keys, 0..4u8, prop::collection::vec(row, 50..51)).prop_map(
        |(partition, mut keys, order, rows)| {
            match order {
                0 => keys.sort_unstable(),
                1 => keys.sort_unstable_by(|a, b| b.cmp(a)),
                // Repeated: a handful of keys, each several times.
                2 => keys.iter_mut().for_each(|k| *k %= 4),
                _ => {} // interleaved as drawn
            }
            let rows = keys.into_iter().zip(rows);
            Group {
                partition,
                rows: rows
                    .map(|(k, (cells, delete))| (k, cells, delete))
                    .collect(),
            }
        },
    )
}

fn changes(group: &Group) -> Vec<Change> {
    group
        .rows
        .iter()
        .map(|(k, cells, delete)| {
            let cells = cells.iter().map(cell);
            (ck(*k), sorted_cells(cells), *delete)
        })
        .collect()
}

/// The memtable's flush output in model space, once it is checked that a
/// partition holds its rows inline exactly when it holds one.
fn drained_runs(memtable: &mut Memtable) -> Vec<(DecoratedKey, Raw)> {
    let drained = memtable.drain_sorted();
    for (partition, rows) in &drained {
        assert_eq!(
            matches!(rows, Rows::One(_)),
            rows.len() == 1,
            "partition {:?} of {} rows",
            partition.key(),
            rows.len()
        );
    }
    let runs = drained
        .iter()
        .map(|(pk, rows)| (pk.clone(), to_model(rows)));
    runs.collect()
}

fn arb_range() -> impl Strategy<Value = Range> {
    let bound = prop_oneof![
        Just(Bound::Unbounded),
        (0..62i64).prop_map(|k| Bound::Included(ck(k))),
        (0..62i64).prop_map(|k| Bound::Excluded(ck(k))),
    ];
    (bound.clone(), bound)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_run_memtable_is_the_map_memtable(
        groups in prop::collection::vec(arb_group(), 1..12),
        ranges in prop::collection::vec(arb_range(), 4..5),
        flush_at in 3..12usize,
    ) {
        let (mut memtable, mut model) = (Memtable::new(), Model::default());
        for group in &groups {
            let (partition, changes) = (pk(group.partition), changes(group));
            let mut done = 0;
            while done < changes.len() {
                let borrowed = changes[done..].iter().map(|(k, cells, delete)| (k, cells, *delete));
                let applied = memtable.upsert_rows(&partition, borrowed, flush_at);
                let modelled = model.upsert_rows(&partition, &group.rows[done..], flush_at);
                prop_assert_eq!(applied, modelled);
                prop_assert_eq!(memtable.weight(), model.weight);
                for p in 0..4 {
                    for range in ranges.iter().chain([&full_range()]) {
                        prop_assert_eq!(
                            to_model(&memtable.read_raw(&pk(p), range.clone())),
                            model.read_raw(&pk(p), range),
                            "partition {}, range {:?}", p, range
                        );
                    }
                }
                done += applied;
                if memtable.weight() >= flush_at {
                    prop_assert_eq!(drained_runs(&mut memtable), model.drain_sorted());
                }
            }
        }
        prop_assert_eq!(drained_runs(&mut memtable), model.drain_sorted());
    }
}

/// 50,000 rows into one partition as 250 groups of 200 ascending rows, each
/// group in front of the one before: every group falls into one gap, so the
/// run takes it in one splice. One `Vec::insert` per row took 1.4 s here in
/// a debug build; a splice per group, some 50 ms.
#[test]
fn groups_that_arrive_in_front_of_the_run_cost_a_splice_each() {
    let cells = sorted_cells([("a".into(), Cell::live(Value::Int(1), 1))]);
    let keys: Vec<Key> = (0..50_000).map(ck).collect();
    let mut memtable = Memtable::new();
    let started = Instant::now();
    for group in keys.chunks(200).rev() {
        let rows = group.iter().map(|k| (k, &cells, None));
        assert_eq!(memtable.upsert_rows(&pk(0), rows, usize::MAX), 200);
    }
    let took = started.elapsed();
    let stored = memtable.read_raw(&pk(0), full_range());
    assert!(stored.iter().map(|(k, _)| k).eq(&keys), "the run is sorted");
    assert!(
        took < Duration::from_millis(300),
        "{took:?} for 250 out-of-order groups"
    );
}
