//! In-memory write buffer: partitions, hashed by their token →
//! clustering-sorted runs of rows; ring order is restored at flush.

use crate::partitioner::DecoratedKey;
use crate::types::{Cell, Key, Row};
use std::collections::HashMap;
use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

/// A row's cells: sorted by column name, each name once. Immutable and
/// shared: the coordinator builds them once per mutation, and the mutation,
/// its commit-log records and the row of every replica that applied it
/// point at that one allocation.
pub type Cells = Arc<[(Arc<str>, Cell)]>;

/// Builds [`Cells`] from cells in any order, as if each were upserted in
/// turn.
pub fn sorted_cells(cells: impl IntoIterator<Item = (Arc<str>, Cell)>) -> Cells {
    let mut row = RowEntry::default();
    for cell in cells {
        row.upsert(&Arc::from([cell]));
    }
    row.cells
}

/// Stored form of one clustered row: named cells plus an optional row
/// tombstone. A cell is visible only if it is newer than the tombstone.
///
/// Iteration order (stream encoding, [`RowEntry::visible`]) is column-name
/// order. Nothing shared is ever changed: a merge builds a new slice.
#[derive(Debug, Clone, Default, Eq)]
pub struct RowEntry {
    cells: Cells,
    /// Row-level delete timestamp, if any.
    pub deleted_at: Option<u64>,
}

/// Replicas of a row share its cells, so equal pointers settle equality
/// before any cell is read (`Arc` has no such shortcut for a slice).
impl PartialEq for RowEntry {
    fn eq(&self, other: &RowEntry) -> bool {
        self.deleted_at == other.deleted_at
            && (Arc::ptr_eq(&self.cells, &other.cells) || self.cells == other.cells)
    }
}

impl RowEntry {
    /// Applies new cells (last-write-wins per cell). The row points at
    /// `cells` when they are all it holds afterwards, and keeps its own
    /// pointer when nothing changed.
    pub fn upsert(&mut self, cells: &Cells) {
        if self.cells.is_empty() {
            self.cells = Arc::clone(cells);
        } else if !cells.is_empty() && !Arc::ptr_eq(&self.cells, cells) {
            let mut merged = self.cells.to_vec();
            for (name, cell) in cells.iter() {
                match merged.binary_search_by(|(n, _)| n.cmp(name)) {
                    Ok(i) if cell.supersedes(&merged[i].1) => merged[i].1 = cell.clone(),
                    Ok(_) => {}
                    Err(i) => merged.insert(i, (Arc::clone(name), cell.clone())),
                }
            }
            if merged[..] == cells[..] {
                self.cells = Arc::clone(cells);
            } else if merged[..] != self.cells[..] {
                self.cells = merged.into();
            }
        }
    }

    /// The stored cells in column-name order.
    pub fn cells(&self) -> &Cells {
        &self.cells
    }

    /// Drops the cells a row tombstone shadows (compaction).
    pub(crate) fn purge_shadowed(&mut self) {
        let shadowed = |ts: &u64| self.cells.iter().any(|(_, c)| c.write_ts <= *ts);
        if let Some(ts) = self.deleted_at.filter(shadowed) {
            let live = self.cells.iter().filter(|(_, c)| c.write_ts > ts);
            self.cells = live.cloned().collect();
        }
    }

    /// Marks the whole row deleted at `ts`.
    pub fn delete(&mut self, ts: u64) {
        self.deleted_at = Some(self.deleted_at.map_or(ts, |old| old.max(ts)));
    }

    /// Merges two stored versions of the same row.
    pub fn merge(mut a: RowEntry, b: RowEntry) -> RowEntry {
        if let Some(ts) = b.deleted_at {
            a.delete(ts);
        }
        a.upsert(&b.cells);
        a
    }

    /// Materializes the row a read returns, honoring tombstones. When every
    /// stored cell is live and newer than the row tombstone, the row takes
    /// the entry's cells pointer as it is; otherwise it gets a copy of the
    /// live cells alone. Returns `None` when nothing is visible (fully
    /// deleted row).
    pub fn visible(self, clustering: Key) -> Option<Row> {
        let floor = self.deleted_at;
        let live = |c: &Cell| c.value.is_some() && floor.is_none_or(|ts| c.write_ts > ts);
        let cells = if self.cells.iter().all(|(_, c)| live(c)) {
            self.cells
        } else {
            self.cells
                .iter()
                .filter(|(_, c)| live(c))
                .cloned()
                .collect()
        };
        (!cells.is_empty()).then_some(Row { clustering, cells })
    }

    /// Number of stored cells (size accounting).
    pub fn weight(&self) -> usize {
        self.cells.len() + 1
    }
}

/// One source of a partition read — a memtable or SSTable partition, a
/// range of one, a replica's response: rows in ascending clustering order,
/// each key once.
pub type Run = Vec<(Key, RowEntry)>;

/// The rows of a run that fall inside a clustering range: keys and cells
/// are pointer copies.
pub(crate) fn range_of(run: &Run, range: &(Bound<Key>, Bound<Key>)) -> Run {
    let start = run.partition_point(|(k, _)| !(range.0.as_ref(), Bound::Unbounded).contains(k));
    let end = run.partition_point(|(k, _)| (Bound::Unbounded, range.1.as_ref()).contains(k));
    run[start..end.max(start)].to_vec()
}

/// Merges sorted runs in one pass. For every clustering key, in ascending
/// order, `on_row` receives the key and the copies of that row as
/// `(index of the run, entry)` in run order, which is the order
/// [`RowEntry::merge`] folds them in (older sources first). The copies
/// buffer is reused from row to row; `on_row` may drain it.
pub(crate) fn merge_runs(runs: Vec<Run>, mut on_row: impl FnMut(Key, &mut Vec<(usize, RowEntry)>)) {
    /// Takes the head of run `i` and advances the run.
    fn pop(
        heads: &mut [Option<(Key, RowEntry)>],
        rest: &mut [std::vec::IntoIter<(Key, RowEntry)>],
        i: usize,
    ) -> (Key, RowEntry) {
        let head = heads[i].take().expect("head checked by the caller");
        heads[i] = rest[i].next();
        head
    }

    debug_assert!(
        runs.iter().all(|r| r.windows(2).all(|w| w[0].0 < w[1].0)),
        "a run is sorted by clustering key and holds each key once"
    );
    let mut rest: Vec<std::vec::IntoIter<(Key, RowEntry)>> =
        runs.into_iter().map(Vec::into_iter).collect();
    let mut heads: Vec<Option<(Key, RowEntry)>> = rest.iter_mut().map(Iterator::next).collect();
    let mut copies = Vec::with_capacity(heads.len());
    loop {
        // The first run holding the smallest key leads: every other copy of
        // that row sits at the head of a later run.
        let mut lead: Option<(usize, &Key)> = None;
        for (i, head) in heads.iter().enumerate() {
            if let Some((key, _)) = head {
                if lead.is_none_or(|(_, least)| key < least) {
                    lead = Some((i, key));
                }
            }
        }
        let Some((lead, _)) = lead else {
            return;
        };
        let (key, entry) = pop(&mut heads, &mut rest, lead);
        copies.clear();
        copies.push((lead, entry));
        for i in lead + 1..rest.len() {
            if heads[i].as_ref().is_some_and(|(k, _)| *k == key) {
                copies.push((i, pop(&mut heads, &mut rest, i).1));
            }
        }
        on_row(key, &mut copies);
    }
}

/// Merges sorted runs, oldest first, into the one run they describe; a
/// single non-empty run is returned as it is.
pub(crate) fn merge_all(mut runs: Vec<Run>) -> Run {
    runs.retain(|run| !run.is_empty());
    if runs.len() <= 1 {
        return runs.pop().unwrap_or_default();
    }
    let mut merged = Vec::with_capacity(runs.iter().map(Vec::len).max().unwrap_or(0));
    merge_runs(runs, |key, copies| {
        let copies = copies.drain(..).map(|(_, entry)| entry);
        let entry = copies.reduce(RowEntry::merge);
        merged.push((key, entry.expect("merge_runs hands out one copy or more")));
    });
    merged
}

/// One row change borrowed from a mutation: clustering key, cells to upsert
/// (empty for a pure delete), and the row tombstone timestamp, if any.
pub type RowChange<'a> = (&'a Key, &'a Cells, Option<u64>);

/// The memtable for a single table on a single node: each partition the
/// sorted run a flush hands to its SSTable as it is. Partitions are found by
/// hash — a decorated key hashes as its stored token, so a lookup hashes one
/// word and compares keys only on a match — and put in ring order once, at
/// flush.
#[derive(Debug, Default)]
pub struct Memtable {
    partitions: HashMap<DecoratedKey, Run>,
    weight: usize,
}

impl Memtable {
    /// Creates an empty memtable.
    pub fn new() -> Memtable {
        Memtable::default()
    }

    /// Applies a run of row changes that all target `partition`, in order,
    /// with one partition lookup for the whole run. Stops right after the
    /// row that brings the memtable to `flush_at` cells or more, so the
    /// caller can flush at the same point a row-at-a-time writer would;
    /// returns the number of rows consumed.
    ///
    /// A new row that sorts after the run's last key is pushed; new rows
    /// that sort inside the run are put in together at the end. The
    /// partition key is cloned only when the partition is new.
    pub fn upsert_rows<'a>(
        &mut self,
        partition: &DecoratedKey,
        rows: impl IntoIterator<Item = RowChange<'a>>,
        flush_at: usize,
    ) -> usize {
        // A new partition is built apart and put in only if it stores
        // something.
        let mut fresh = Run::new();
        let run = match self.partitions.get_mut(partition) {
            Some(run) => run,
            None => &mut fresh,
        };
        // New rows that sort inside the run, kept sorted.
        let mut inside: Run = Vec::new();
        let mut applied = 0;
        for (clustering, cells, row_delete) in rows {
            applied += 1;
            if row_delete.is_none() && cells.is_empty() {
                // A key-only insert stores nothing.
                continue;
            }
            let find = |rows: &Run| rows.binary_search_by(|(k, _)| k.cmp(clustering));
            let (at, rows) = match run.last() {
                Some((last, _)) if last >= clustering => match find(run) {
                    Ok(i) => (Ok(i), &mut *run),
                    Err(_) => (find(&inside), &mut inside),
                },
                _ => (Err(run.len()), &mut *run),
            };
            // The row's weight before and after; a new row was an empty one.
            let (before, after) = match at {
                Ok(i) => {
                    let row = &mut rows[i].1;
                    let before = row.weight();
                    if let Some(ts) = row_delete {
                        row.delete(ts);
                    }
                    row.upsert(cells);
                    (before, row.weight())
                }
                Err(i) => {
                    let (cells, deleted_at) = (Arc::clone(cells), row_delete);
                    rows.insert(i, (clustering.clone(), RowEntry { cells, deleted_at }));
                    (1, rows[i].1.weight())
                }
            };
            self.weight += usize::from(row_delete.is_some());
            if !cells.is_empty() {
                self.weight = self.weight - before.min(self.weight) + after;
            }
            if self.weight >= flush_at {
                break;
            }
        }
        if !inside.is_empty() {
            merge_into(run, inside);
        }
        if !fresh.is_empty() {
            self.partitions.insert(partition.clone(), fresh);
        }
        applied
    }

    /// Reads raw row entries of one partition within a clustering range.
    pub fn read_raw(&self, partition: &DecoratedKey, range: (Bound<Key>, Bound<Key>)) -> Run {
        let run = self.partitions.get(partition);
        run.map_or_else(Vec::new, |run| range_of(run, &range))
    }

    /// Approximate size in cells; drives flush decisions.
    pub fn weight(&self) -> usize {
        self.weight
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    /// Drains the memtable into `(partition, run)` pairs in decorated
    /// (ring) order for an SSTable flush; the runs move out as they are.
    pub fn drain_sorted(&mut self) -> Vec<(DecoratedKey, Run)> {
        self.weight = 0;
        let mut drained: Vec<_> = std::mem::take(&mut self.partitions).into_iter().collect();
        drained.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        drained
    }

    /// Iterates all partition keys (for token-range scans), in no
    /// particular order.
    pub fn partition_keys(&self) -> impl Iterator<Item = &DecoratedKey> {
        self.partitions.keys()
    }
}

/// Puts `rows` — sorted, keys not in `run`, the first below its last key —
/// into `run` without sorting it: one splice when they all fall into one
/// gap (a batch that precedes what is stored), else a back-to-front merge
/// that moves each stored row at most once.
fn merge_into(run: &mut Run, mut rows: Run) {
    let gap = |key: &Key| run.partition_point(|(k, _)| k < key);
    let first = gap(&rows[0].0);
    if first == gap(&rows[rows.len() - 1].0) {
        run.splice(first..first, rows);
        return;
    }
    // Rows below `read` are unmoved; `read..write` are empty slots.
    let mut read = run.len();
    run.resize_with(read + rows.len(), Default::default);
    let mut write = run.len();
    while let Some(row) = rows.pop() {
        while read > 0 && run[read - 1].0 > row.0 {
            read -= 1;
            write -= 1;
            run.swap(read, write);
        }
        write -= 1;
        run[write] = row;
    }
}

/// Convenience: full unbounded clustering range.
pub fn full_range() -> (Bound<Key>, Bound<Key>) {
    (Bound::Unbounded, Bound::Unbounded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Value;

    fn pk(h: i64) -> DecoratedKey {
        DecoratedKey::new(Key::from(vec![Value::BigInt(h)]))
    }

    fn ck(ts: i64) -> Key {
        Key::from(vec![Value::Timestamp(ts)])
    }

    fn cellv(v: i32, ts: u64) -> Cell {
        Cell::live(Value::Int(v), ts)
    }

    fn upsert(
        m: &mut Memtable,
        partition: DecoratedKey,
        clustering: Key,
        cells: Vec<(Arc<str>, Cell)>,
    ) {
        let cells = sorted_cells(cells);
        m.upsert_rows(&partition, [(&clustering, &cells, None)], usize::MAX);
    }

    fn read(m: &Memtable, partition: &DecoratedKey, range: (Bound<Key>, Bound<Key>)) -> Vec<Row> {
        let raw = m.read_raw(partition, range).into_iter();
        raw.filter_map(|(k, e)| e.visible(k)).collect()
    }

    fn delete_row(m: &mut Memtable, partition: DecoratedKey, clustering: Key, ts: u64) {
        let none = Cells::default();
        m.upsert_rows(&partition, [(&clustering, &none, Some(ts))], usize::MAX);
    }

    #[test]
    fn rows_stay_sorted_by_clustering_key() {
        let mut m = Memtable::new();
        for ts in [5i64, 1, 3, 2, 4] {
            upsert(
                &mut m,
                pk(1),
                ck(ts),
                vec![("amount".into(), cellv(ts as i32, 1))],
            );
        }
        let rows = read(&m, &pk(1), full_range());
        let keys: Vec<i64> = rows
            .iter()
            .map(|r| match r.clustering.0[0] {
                Value::Timestamp(t) => t,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(keys, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn range_reads_are_inclusive_exclusive_aware() {
        let mut m = Memtable::new();
        for ts in 0..10 {
            upsert(&mut m, pk(1), ck(ts), vec![("amount".into(), cellv(1, 1))]);
        }
        let rows = read(&m, &pk(1), (Bound::Included(ck(3)), Bound::Excluded(ck(7))));
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].clustering, ck(3));
        assert_eq!(rows[3].clustering, ck(6));
    }

    #[test]
    fn lww_update_within_memtable() {
        let mut m = Memtable::new();
        upsert(&mut m, pk(1), ck(1), vec![("amount".into(), cellv(1, 10))]);
        upsert(&mut m, pk(1), ck(1), vec![("amount".into(), cellv(2, 20))]);
        // Stale write loses.
        upsert(&mut m, pk(1), ck(1), vec![("amount".into(), cellv(3, 15))]);
        let rows = read(&m, &pk(1), full_range());
        assert_eq!(rows[0].cell("amount"), Some(&Value::Int(2)));
    }

    #[test]
    fn row_tombstone_hides_older_cells_only() {
        let mut m = Memtable::new();
        upsert(&mut m, pk(1), ck(1), vec![("a".into(), cellv(1, 10))]);
        delete_row(&mut m, pk(1), ck(1), 15);
        assert!(read(&m, &pk(1), full_range()).is_empty());
        // A newer write resurrects the row.
        upsert(&mut m, pk(1), ck(1), vec![("a".into(), cellv(2, 20))]);
        let rows = read(&m, &pk(1), full_range());
        assert_eq!(rows[0].cell("a"), Some(&Value::Int(2)));
    }

    #[test]
    fn double_clustering_keys_follow_the_total_order() {
        let mut m = Memtable::new();
        let ck = |d: f64| Key::from(vec![Value::Double(d)]);
        for (d, v) in [(f64::NAN, 1), (f64::NAN, 2), (0.0, 3), (-0.0, 4)] {
            upsert(&mut m, pk(1), ck(d), vec![("a".into(), cellv(v, v as u64))]);
        }
        let rows = read(&m, &pk(1), full_range());
        let stored: Vec<_> = rows.iter().map(|r| r.cell("a").cloned()).collect();
        // -0.0 < 0.0 < NaN, and the second NaN overwrote the first.
        assert_eq!(stored, [4, 3, 2].map(|v| Some(Value::Int(v))));
        assert_eq!(rows[2].clustering, ck(f64::NAN));
    }

    #[test]
    fn key_only_rows_store_nothing() {
        let mut m = Memtable::new();
        upsert(&mut m, pk(1), ck(1), vec![]);
        assert!(m.is_empty(), "no empty partition, no empty row");
        upsert(&mut m, pk(1), ck(2), vec![("a".into(), cellv(1, 1))]);
        upsert(&mut m, pk(1), ck(3), vec![]);
        assert_eq!(m.read_raw(&pk(1), full_range()).len(), 1);
    }

    #[test]
    fn upsert_rows_stops_at_the_flush_mark() {
        let mut m = Memtable::new();
        let cells = sorted_cells([("a".into(), cellv(1, 1))]);
        let keys: Vec<Key> = (0..10).map(ck).collect();
        let rows = || keys.iter().map(|k| (k, &cells, None));
        // Two cells for the first row of an empty memtable, one more per
        // further new row: the fifth row reaches six.
        assert_eq!(m.upsert_rows(&pk(1), rows(), 6), 5);
        assert_eq!(m.weight(), 6);
        assert_eq!(m.upsert_rows(&pk(1), rows().skip(5), usize::MAX), 5);
        assert_eq!(read(&m, &pk(1), full_range()).len(), 10);
    }

    #[test]
    fn missing_partition_reads_empty() {
        let m = Memtable::new();
        assert!(read(&m, &pk(42), full_range()).is_empty());
    }

    #[test]
    fn drain_empties_and_sorts() {
        let mut m = Memtable::new();
        upsert(&mut m, pk(2), ck(1), vec![("a".into(), cellv(1, 1))]);
        upsert(&mut m, pk(1), ck(2), vec![("a".into(), cellv(1, 1))]);
        upsert(&mut m, pk(1), ck(1), vec![("a".into(), cellv(1, 1))]);
        let drained = m.drain_sorted();
        assert!(m.is_empty());
        assert_eq!(m.weight(), 0);
        assert_eq!(drained.len(), 2);
        assert!(drained[0].0 < drained[1].0);
        assert!(drained[0].0.token() < drained[1].0.token(), "ring order");
        let (_, one) = drained.iter().find(|(p, _)| *p == pk(1)).unwrap();
        assert_eq!(one.len(), 2);
        assert!(one[0].0 < one[1].0);
    }

    #[test]
    fn weight_grows_with_cells() {
        let mut m = Memtable::new();
        assert_eq!(m.weight(), 0);
        upsert(&mut m, pk(1), ck(1), vec![("a".into(), cellv(1, 1))]);
        let w1 = m.weight();
        upsert(
            &mut m,
            pk(1),
            ck(2),
            vec![("a".into(), cellv(1, 1)), ("b".into(), cellv(2, 1))],
        );
        assert!(m.weight() > w1);
    }

    #[test]
    fn merge_runs_walks_keys_in_order_and_copies_in_run_order() {
        let entry = |v: i32, ts: u64| {
            let mut e = RowEntry::default();
            e.upsert(&sorted_cells([("a".into(), cellv(v, ts))]));
            e
        };
        let runs = vec![
            vec![(ck(1), entry(10, 1)), (ck(3), entry(30, 1))],
            vec![],
            vec![(ck(2), entry(21, 2)), (ck(3), entry(31, 2))],
            vec![(ck(3), entry(32, 3)), (ck(4), entry(42, 3))],
        ];
        let mut seen = Vec::new();
        let mut merged = Vec::new();
        merge_runs(runs, |key, copies| {
            seen.push((key.clone(), copies.iter().map(|c| c.0).collect::<Vec<_>>()));
            merged.push(copies.drain(..).map(|c| c.1).reduce(RowEntry::merge));
        });
        assert_eq!(
            seen,
            vec![
                (ck(1), vec![0]),
                (ck(2), vec![2]),
                (ck(3), vec![0, 2, 3]),
                (ck(4), vec![3]),
            ]
        );
        assert_eq!(merged[2], Some(entry(32, 3)), "the newest write wins");
    }

    #[test]
    fn a_row_points_at_the_cells_it_was_given_until_a_merge_copies_them() {
        let first = sorted_cells([("a".into(), cellv(1, 1)), ("b".into(), cellv(1, 1))]);
        let mut row = RowEntry::default();
        row.upsert(&first);
        assert!(Arc::ptr_eq(row.cells(), &first), "stored, not copied");
        // Half the row overwritten: a merged copy; what was shared is intact.
        row.upsert(&sorted_cells([("a".into(), cellv(2, 2))]));
        assert!(!Arc::ptr_eq(row.cells(), &first));
        assert_eq!(first[0].1, cellv(1, 1));
        // Stale cells change nothing; newer cells for every name replace all.
        let kept = Arc::clone(row.cells());
        row.upsert(&first);
        assert!(Arc::ptr_eq(row.cells(), &kept));
        let last = sorted_cells([("a".into(), cellv(3, 3)), ("b".into(), cellv(3, 3))]);
        row.upsert(&last);
        assert!(Arc::ptr_eq(row.cells(), &last));
    }

    #[test]
    fn merge_row_entries_combines_tombstones_and_cells() {
        let mut a = RowEntry::default();
        a.upsert(&sorted_cells([("x".into(), cellv(1, 5))]));
        let mut b = RowEntry::default();
        b.delete(3);
        b.upsert(&sorted_cells([("y".into(), cellv(2, 4))]));
        let m = RowEntry::merge(a, b);
        assert_eq!(m.deleted_at, Some(3));
        let vis = m.visible(ck(1)).unwrap();
        assert_eq!(vis.cell("x"), Some(&Value::Int(1)));
        assert_eq!(vis.cell("y"), Some(&Value::Int(2)));
    }

    #[test]
    fn a_read_row_shares_the_stored_cells_unless_something_is_dead() {
        let stored = sorted_cells([("a".into(), cellv(1, 5)), ("b".into(), cellv(2, 5))]);
        let entry = |deleted_at| RowEntry {
            cells: Arc::clone(&stored),
            deleted_at,
        };
        // All live and above the row tombstone: the stored pointer itself.
        for deleted_at in [None, Some(4)] {
            let row = entry(deleted_at).visible(ck(1)).unwrap();
            assert!(Arc::ptr_eq(&row.cells, &stored), "{deleted_at:?}");
        }
        // A row tombstone that shadows one cell, and a cell tombstone: a
        // filtered copy in which neither lookup nor iteration sees the dead.
        let mut shadowed = RowEntry::default();
        shadowed.upsert(&sorted_cells([
            ("a".into(), cellv(1, 5)),
            ("b".into(), cellv(2, 9)),
            ("c".into(), Cell::tombstone(9)),
        ]));
        shadowed.delete(6);
        let row = shadowed.visible(ck(1)).unwrap();
        assert_eq!((row.cell("a"), row.cell("c")), (None, None));
        assert_eq!(row.cell("b"), Some(&Value::Int(2)));
        let names: Vec<&str> = row.cells().map(|(n, _)| &**n).collect();
        assert_eq!(names, ["b"]);
        assert_eq!(row.cells.len(), 1, "only live cells are held");
        // Everything shadowed: no row at all.
        assert!(entry(Some(5)).visible(ck(1)).is_none());
        let mut dead = RowEntry::default();
        dead.upsert(&sorted_cells([("a".into(), Cell::tombstone(3))]));
        assert!(dead.visible(ck(1)).is_none());
    }
}
