//! Differential property: the slice-wise run merge against the per-row
//! merge it replaced.
//!
//! `merge_all` merges a partition's sorted runs (a replica's SSTable slices
//! and memtable range, a compaction's tables, the donors of a stream) by
//! moving whole stretches of the leading run at once and folding copies only
//! on equal keys. The per-row k-way merge it replaced lives on in
//! `support/merge_model.rs`; over one to six runs of disjoint, interleaved
//! and repeated keys, with row and cell tombstones and empty runs, the two
//! must agree entry for entry.

#[path = "support/merge_model.rs"]
mod merge_model;

use proptest::prelude::*;
use rasdb::memtable::{merge_all, sorted_cells, RowEntry, Run};
use rasdb::types::{Cell, Key, Value};
use std::sync::Arc;

/// One stored row: up to three cells, each live or a tombstone, and
/// perhaps a row tombstone; write timestamps collide often, so ties are
/// exercised.
fn arb_entry() -> impl Strategy<Value = RowEntry> {
    let cell = prop_oneof![
        2 => Just(None),
        3 => (0..4i32, 1..6u64).prop_map(|(v, ts)| Some(Cell::live(Value::Int(v), ts))),
        1 => (1..6u64).prop_map(|ts| Some(Cell::tombstone(ts))),
    ];
    let row_delete = prop_oneof![4 => Just(None), 1 => (1..6u64).prop_map(Some)];
    (cell.clone(), cell.clone(), cell, row_delete).prop_map(|(a, b, c, row_delete)| {
        let mut entry = RowEntry::default();
        if let Some(ts) = row_delete {
            entry.delete(ts);
        }
        let named = [("a", a), ("b", b), ("c", c)].into_iter();
        let cells = named.filter_map(|(name, cell)| Some((Arc::from(name), cell?)));
        entry.upsert(&sorted_cells(cells));
        entry
    })
}

/// The keys of one run, ascending: a stretch with a stride (runs of one
/// partition flushed as it grew are disjoint stretches; strides interleave
/// them), or a scatter over a few keys that other runs repeat.
fn arb_keys() -> impl Strategy<Value = Vec<i64>> {
    prop_oneof![
        1 => Just(Vec::new()),
        3 => (0..60i64, 0..25i64, 1..4i64)
            .prop_map(|(start, len, stride)| (0..len).map(|i| start + i * stride).collect()),
        3 => prop::collection::btree_set(0..12i64, 0..10).prop_map(|keys| keys.into_iter().collect()),
    ]
}

/// A run: its keys, an entry per key, and whether its keys share the
/// allocations of every other sharing run's keys, as replicas' keys do.
fn arb_run() -> impl Strategy<Value = (Vec<i64>, Vec<RowEntry>, bool)> {
    (
        arb_keys(),
        prop::collection::vec(arb_entry(), 25),
        any::<bool>(),
    )
}

fn runs_of(shapes: &[(Vec<i64>, Vec<RowEntry>, bool)]) -> Vec<Run> {
    let shared: Vec<Key> = (0..200)
        .map(|k| Key::from(vec![Value::Timestamp(k)]))
        .collect();
    shapes
        .iter()
        .map(|(keys, entries, share)| {
            let key = |k: i64| match share {
                true => shared[k as usize].clone(),
                false => Key::from(vec![Value::Timestamp(k)]),
            };
            keys.iter()
                .zip(entries.iter().cycle())
                .map(|(k, entry)| (key(*k), entry.clone()))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn slice_wise_merge_equals_the_per_row_merge(
        shapes in prop::collection::vec(arb_run(), 1..7),
    ) {
        let runs = runs_of(&shapes);
        let keys: Vec<&Vec<i64>> = shapes.iter().map(|(keys, _, _)| keys).collect();
        let got = merge_all(runs.clone());
        let want = merge_model::merge_all(runs);
        prop_assert_eq!(got.len(), want.len(), "runs of keys {:?}", keys);
        for (i, (got, want)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(got, want, "row {} of runs of keys {:?}", i, keys);
        }
    }
}
