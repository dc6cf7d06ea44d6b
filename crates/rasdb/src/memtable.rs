//! In-memory write buffer: partitions, hashed by their token →
//! clustering-sorted rows; ring order is restored at flush.

use crate::partitioner::{DecoratedKey, TokenMap};
use crate::types::{Cell, Key, Row};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
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

/// The rows of one stored partition — a memtable's or an SSTable's — as a
/// [`Run`] holds them. A partition of one row, which is what most
/// `(hour, source)` partitions are, holds it inline: no block of its own,
/// no spare slots. Readers see a slice either way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rows {
    /// Exactly one row.
    One((Key, RowEntry)),
    /// Any other number of rows.
    Run(Run),
}

impl Default for Rows {
    fn default() -> Rows {
        Rows::Run(Run::new())
    }
}

impl Deref for Rows {
    type Target = [(Key, RowEntry)];

    fn deref(&self) -> &[(Key, RowEntry)] {
        match self {
            Rows::One(row) => std::slice::from_ref(row),
            Rows::Run(run) => run,
        }
    }
}

impl DerefMut for Rows {
    fn deref_mut(&mut self) -> &mut [(Key, RowEntry)] {
        match self {
            Rows::One(row) => std::slice::from_mut(row),
            Rows::Run(run) => run,
        }
    }
}

/// A run of one row is held inline.
impl From<Run> for Rows {
    fn from(mut run: Run) -> Rows {
        match run.len() {
            1 => Rows::One(run.pop().expect("one row")),
            _ => Rows::Run(run),
        }
    }
}

impl Rows {
    /// The rows as a run (merge inputs).
    pub fn into_run(self) -> Run {
        match self {
            Rows::One(row) => vec![row],
            Rows::Run(run) => run,
        }
    }

    /// The rows as a run that can grow: an inline row moves into a block
    /// with room for four, the block a run's first push allocates, so a
    /// partition that grows past one row allocates as often as a run that
    /// was never inline.
    fn run_mut(&mut self) -> &mut Run {
        if let Rows::One(_) = self {
            let Rows::One(row) = std::mem::take(self) else {
                unreachable!("matched above")
            };
            let mut run = Vec::with_capacity(4);
            run.push(row);
            *self = Rows::Run(run);
        }
        match self {
            Rows::Run(run) => run,
            Rows::One(_) => unreachable!("made a run above"),
        }
    }

    /// Puts `row` at index `at`; the first row of a partition stays inline.
    fn insert(&mut self, at: usize, row: (Key, RowEntry)) {
        if self.is_empty() {
            *self = Rows::One(row);
        } else {
            self.run_mut().insert(at, row);
        }
    }
}

/// The rows of a run that fall inside a clustering range.
pub(crate) fn range_of<'a>(
    run: &'a [(Key, RowEntry)],
    range: &(Bound<Key>, Bound<Key>),
) -> &'a [(Key, RowEntry)] {
    let start = run.partition_point(|(k, _)| !(range.0.as_ref(), Bound::Unbounded).contains(k));
    let end = run.partition_point(|(k, _)| (Bound::Unbounded, range.1.as_ref()).contains(k));
    &run[start..end.max(start)]
}

/// One step of [`merge_runs`].
pub(crate) enum Merged<'a> {
    /// Rows, in ascending key order, that only run `.0` holds: every other
    /// run's next key sorts after them. They are moved out of the run as
    /// they are taken; rows left untaken come back in a later step.
    Only(
        usize,
        std::iter::Take<&'a mut std::vec::IntoIter<(Key, RowEntry)>>,
    ),
    /// A key several runs hold, with its copies as `(index of the run,
    /// entry)` in run order, which is the order [`RowEntry::merge`] folds
    /// them in (older sources first). The buffer is reused from step to
    /// step; it may be drained.
    Shared(Key, &'a mut Vec<(usize, RowEntry)>),
}

/// Merges sorted runs in one pass, slice by slice, handing `on_step` every
/// clustering key once, in ascending order. The run holding the smallest
/// key leads: the stretch of it that sorts before every other run's next
/// key is handed out in one step, found by binary search; a key that
/// several runs hold is one step with all its copies. Runs that do not
/// interleave (a partition written in time order and flushed as it grew)
/// cost a step each, not a step per row.
pub(crate) fn merge_runs(runs: Vec<Run>, mut on_step: impl FnMut(Merged<'_>)) {
    debug_assert!(
        runs.iter().all(|r| r.windows(2).all(|w| w[0].0 < w[1].0)),
        "a run is sorted by clustering key and holds each key once"
    );
    let mut rest: Vec<std::vec::IntoIter<(Key, RowEntry)>> =
        runs.into_iter().map(Vec::into_iter).collect();
    let mut copies = Vec::with_capacity(rest.len());
    loop {
        let heads = rest.iter().enumerate();
        let heads = heads.filter_map(|(i, run)| Some((i, &run.as_slice().first()?.0)));
        let Some((lead, key, bound)) = lead(heads) else {
            return;
        };
        if bound == Some(key) {
            let key = key.clone();
            copies.clear();
            for (i, run) in rest.iter_mut().enumerate().skip(lead) {
                if run.as_slice().first().is_some_and(|(k, _)| *k == key) {
                    copies.push((i, run.next().expect("the head was checked").1));
                }
            }
            on_step(Merged::Shared(key, &mut copies));
        } else {
            let ahead = rest[lead].as_slice();
            let n = bound.map_or(ahead.len(), |b| ahead.partition_point(|(k, _)| k < b));
            on_step(Merged::Only(lead, rest[lead].by_ref().take(n)));
        }
    }
}

/// The lead of a merge step among the runs' next keys, given as `(index
/// of the run, key)`: the first run holding the smallest key, that key,
/// and the smallest key of the other runs, which equals the lead's when
/// another run holds it too. `None` once every run is spent.
fn lead<'a>(
    heads: impl Iterator<Item = (usize, &'a Key)>,
) -> Option<(usize, &'a Key, Option<&'a Key>)> {
    let (mut lead, mut next): (Option<(usize, &Key)>, Option<&Key>) = (None, None);
    for (i, key) in heads {
        match lead {
            Some((_, least)) if key >= least => next = Some(next.map_or(key, |n| n.min(key))),
            _ => (next, lead) = (lead.map(|(_, k)| k), Some((i, key))),
        }
    }
    lead.map(|(i, key)| (i, key, next))
}

/// Merges sorted runs, oldest first, into the one run they describe; a
/// single non-empty run is returned as it is.
pub fn merge_all(mut runs: Vec<Run>) -> Run {
    runs.retain(|run| !run.is_empty());
    if runs.len() <= 1 {
        return runs.pop().unwrap_or_default();
    }
    let mut merged = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    merge_runs(runs, |step| match step {
        Merged::Only(_, rows) => merged.extend(rows),
        Merged::Shared(key, copies) => {
            let copies = copies.drain(..).map(|(_, entry)| entry);
            let entry = copies.reduce(RowEntry::merge);
            merged.push((key, entry.expect("a shared key has two copies or more")));
        }
    });
    merged
}

/// Whether `runs`, merged, are `data` row for row, decided without
/// merging them: a stretch that one run alone holds is compared in place,
/// keys and entries by pointer before content, so runs that share the
/// stored rows of `data` cost a pointer compare per row. A key that
/// several runs hold (an overwrite of a flushed row) has its copies folded
/// as [`merge_all`] folds them, and the folded entry is compared.
pub(crate) fn merges_to(runs: &[&[(Key, RowEntry)]], mut data: &[(Key, RowEntry)]) -> bool {
    // Runs merge to as many rows as they hold, or fewer.
    if runs.iter().map(|run| run.len()).sum::<usize>() < data.len() {
        return false;
    }
    let mut rest: Vec<&[(Key, RowEntry)]> = runs.to_vec();
    loop {
        let heads = rest.iter().copied().enumerate();
        let heads = heads.filter_map(|(i, run)| Some((i, &run.first()?.0)));
        let Some((lead, key, bound)) = lead(heads) else {
            return data.is_empty();
        };
        if bound == Some(key) {
            let copies = rest[lead..].iter_mut().filter_map(|run| {
                let ((k, entry), tail) = run.split_first()?;
                (k == key).then(|| {
                    *run = tail;
                    entry.clone()
                })
            });
            let merged = copies.reduce(RowEntry::merge);
            match data.split_first() {
                Some(((k, entry), tail)) if k == key && Some(entry) == merged.as_ref() => {
                    data = tail;
                }
                _ => return false,
            }
        } else {
            let run = rest[lead];
            let n = bound.map_or(run.len(), |b| run.partition_point(|(k, _)| k < b));
            if data.get(..n) != Some(&run[..n]) {
                return false;
            }
            rest[lead] = &run[n..];
            data = &data[n..];
        }
    }
}

/// One row change borrowed from a mutation: clustering key, cells to upsert
/// (empty for a pure delete), and the row tombstone timestamp, if any.
pub type RowChange<'a> = (&'a Key, &'a Cells, Option<u64>);

/// The memtable for a single table on a single node: each partition the
/// sorted [`Rows`] a flush hands to its SSTable as they are. Partitions are
/// found by hash — a decorated key hashes as its stored token, so a lookup
/// mixes one word and compares keys only on a match — and put in ring order
/// once, at flush.
#[derive(Debug, Default)]
pub struct Memtable {
    partitions: TokenMap<DecoratedKey, Rows>,
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
    /// A new partition's first row is stored inline, and the partition
    /// becomes a run when a second row arrives. A new row that sorts after
    /// the last key is pushed; new rows that sort inside the run are put in
    /// together at the end. The partition key is cloned only when the
    /// partition is new.
    pub fn upsert_rows<'a>(
        &mut self,
        partition: &DecoratedKey,
        rows: impl IntoIterator<Item = RowChange<'a>>,
        flush_at: usize,
    ) -> usize {
        // A new partition is built apart and put in only if it stores
        // something.
        let mut fresh = Rows::default();
        let run = match self.partitions.get_mut(partition) {
            Some(run) => run,
            None => &mut fresh,
        };
        // New rows that sort inside the run, kept sorted.
        let mut inside = Rows::default();
        let mut applied = 0;
        for (clustering, cells, row_delete) in rows {
            applied += 1;
            if row_delete.is_none() && cells.is_empty() {
                // A key-only insert stores nothing.
                continue;
            }
            let find = |rows: &Rows| rows.binary_search_by(|(k, _)| k.cmp(clustering));
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
            merge_into(run.run_mut(), inside.into_run());
        }
        if !fresh.is_empty() {
            self.partitions.insert(partition.clone(), fresh);
        }
        applied
    }

    /// Reads raw row entries of one partition within a clustering range.
    pub fn read_raw(&self, partition: &DecoratedKey, range: (Bound<Key>, Bound<Key>)) -> Run {
        self.slice(partition, &range).to_vec()
    }

    /// The stored rows of one partition within a clustering range.
    pub(crate) fn slice(
        &self,
        partition: &DecoratedKey,
        range: &(Bound<Key>, Bound<Key>),
    ) -> &[(Key, RowEntry)] {
        let run = self.partitions.get(partition);
        run.map_or(&[], |run| range_of(run, range))
    }

    /// Approximate size in cells; drives flush decisions.
    pub fn weight(&self) -> usize {
        self.weight
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    /// Drains the memtable into `(partition, rows)` pairs in decorated
    /// (ring) order for an SSTable flush; the rows move out as they are.
    pub fn drain_sorted(&mut self) -> Vec<(DecoratedKey, Rows)> {
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

    /// A partition's stored rows, in the form the memtable holds them.
    fn stored<'m>(m: &'m Memtable, partition: &DecoratedKey) -> &'m Rows {
        &m.partitions[partition]
    }

    fn stored_keys(rows: &Rows) -> Vec<Key> {
        rows.iter().map(|(k, _)| k.clone()).collect()
    }

    #[test]
    fn a_partition_of_one_row_holds_it_inline_through_overwrites_and_deletes() {
        let mut m = Memtable::new();
        upsert(&mut m, pk(1), ck(5), vec![("a".into(), cellv(1, 10))]);
        assert!(matches!(stored(&m, &pk(1)), Rows::One(_)));
        // An overwrite, a stale write and a row tombstone change the row in
        // place.
        upsert(&mut m, pk(1), ck(5), vec![("a".into(), cellv(2, 20))]);
        upsert(&mut m, pk(1), ck(5), vec![("b".into(), cellv(3, 5))]);
        assert!(matches!(stored(&m, &pk(1)), Rows::One(_)));
        let rows = read(&m, &pk(1), full_range());
        assert_eq!(rows[0].cell("a"), Some(&Value::Int(2)));
        assert_eq!(rows[0].cell("b"), Some(&Value::Int(3)));
        delete_row(&mut m, pk(1), ck(5), 15);
        let Rows::One((key, entry)) = stored(&m, &pk(1)) else {
            panic!("a row tombstone keeps the row inline");
        };
        assert_eq!((key, entry.deleted_at), (&ck(5), Some(15)));
        let rows = read(&m, &pk(1), full_range());
        assert_eq!(rows[0].cell("a"), Some(&Value::Int(2)));
        assert_eq!(rows[0].cell("b"), None, "shadowed by the tombstone");
        // A tombstone is a row of its own: a delete of a key never written
        // stores one, inline.
        delete_row(&mut m, pk(2), ck(1), 7);
        assert!(matches!(stored(&m, &pk(2)), Rows::One((_, e)) if e.deleted_at == Some(7)));
    }

    #[test]
    fn a_second_row_turns_an_inline_row_into_a_run_on_either_side() {
        for (second, order) in [(1, [1, 5]), (9, [5, 9])] {
            let mut m = Memtable::new();
            upsert(&mut m, pk(1), ck(5), vec![("a".into(), cellv(5, 1))]);
            upsert(&mut m, pk(1), ck(second), vec![("a".into(), cellv(1, 1))]);
            let Rows::Run(run) = stored(&m, &pk(1)) else {
                panic!("two rows are a run");
            };
            assert_eq!(stored_keys(stored(&m, &pk(1))), order.map(ck));
            assert_eq!(run.capacity(), 4, "a run's first block, as if never inline");
        }
    }

    #[test]
    fn rows_that_sort_inside_an_inline_row_merge_into_it() {
        let cells = sorted_cells([("a".into(), cellv(1, 1))]);
        let group = |m: &mut Memtable, keys: &[i64]| {
            let keys: Vec<Key> = keys.iter().copied().map(ck).collect();
            m.upsert_rows(&pk(1), keys.iter().map(|k| (k, &cells, None)), usize::MAX);
        };
        // All in front of the inline row: one splice into the run it
        // becomes.
        let mut m = Memtable::new();
        group(&mut m, &[5]);
        group(&mut m, &[1, 3]);
        assert_eq!(stored_keys(stored(&m, &pk(1))), [1, 3, 5].map(ck));
        // On both sides, and inside the run the pushed key made: the
        // back-to-front merge.
        let mut m = Memtable::new();
        group(&mut m, &[5]);
        group(&mut m, &[1, 9, 7, 3]);
        assert_eq!(stored_keys(stored(&m, &pk(1))), [1, 3, 5, 7, 9].map(ck));
    }

    #[test]
    fn a_restart_replays_partitions_into_the_forms_a_batch_left() {
        use crate::commitlog::Mutation;
        use crate::node::{NodeConfig, StorageNode};
        use crate::ring::NodeId;

        let node = StorageNode::new(NodeId(0), NodeConfig::default());
        node.create_table("t");
        let mutation = |p: i64, k: i64| {
            let cells = vec![("a".into(), Value::Int(k as i32))];
            Arc::new(Mutation::upsert("t", pk(p), ck(k), cells, 1))
        };
        // Partitions of one, one, and three rows (the last in two groups).
        let groups: Vec<Vec<Arc<Mutation>>> = vec![
            vec![mutation(1, 1)],
            vec![mutation(2, 4)],
            vec![mutation(3, 3), mutation(3, 1)],
            vec![mutation(3, 2)],
        ];
        let borrowed: Vec<&[Arc<Mutation>]> = groups.iter().map(Vec::as_slice).collect();
        assert!(node.apply_batch(&borrowed));
        let read_all = || (1..=3).map(|p| node.read_raw("t", &pk(p), &full_range()));
        let before: Vec<_> = read_all().collect();
        node.restart();
        assert!(read_all().eq(before), "replay lost or changed a row");

        // The replay upserts the log's records one at a time; the batch
        // wrote a group at a time: the same partitions, in the same forms.
        let mut batched = Memtable::new();
        for group in &groups {
            let changes = group.iter().map(|m| m.row_change());
            batched.upsert_rows(&group[0].partition, changes, usize::MAX);
        }
        let mut replayed = Memtable::new();
        for m in node.logged_mutations("t") {
            replayed.upsert_rows(&m.partition, [m.row_change()], usize::MAX);
        }
        assert_eq!(replayed.partitions, batched.partitions);
        assert!(matches!(stored(&replayed, &pk(1)), Rows::One(_)));
        assert!(matches!(stored(&replayed, &pk(3)), Rows::Run(r) if r.len() == 3));
    }

    #[test]
    fn a_compaction_that_leaves_one_row_stores_it_inline() {
        use crate::compaction::merge;
        use crate::sstable::SsTable;

        let flushed = |rows: &[(i64, i64, u64)]| {
            let mut m = Memtable::new();
            for &(p, k, ts) in rows {
                upsert(
                    &mut m,
                    pk(p),
                    ck(k),
                    vec![("a".into(), cellv(ts as i32, ts))],
                );
            }
            SsTable::build(rows[0].2, m.drain_sorted())
        };
        // Partition 1: one key in both tables, merged into one row.
        // Partition 2: a key in each, merged into a run of two.
        let merged = merge(
            vec![
                flushed(&[(1, 1, 1), (2, 1, 1)]),
                flushed(&[(1, 1, 2), (2, 2, 2)]),
            ],
            3,
        );
        let forms: Vec<_> = merged
            .partitions()
            .map(|(p, rows)| (p.clone(), rows))
            .collect();
        let of = |p: i64| forms.iter().find(|(k, _)| *k == pk(p)).unwrap().1;
        let Rows::One((_, entry)) = of(1) else {
            panic!("a merge that yields one row holds it inline");
        };
        assert_eq!(entry.cells()[0].1, cellv(2, 2), "the newer write");
        assert!(matches!(of(2), Rows::Run(run) if run.len() == 2));
    }

    #[test]
    fn merge_runs_walks_keys_in_order_and_copies_in_run_order() {
        let entry = |v: i32, ts: u64| {
            let mut e = RowEntry::default();
            e.upsert(&sorted_cells([("a".into(), cellv(v, ts))]));
            e
        };
        // Each step as (run, keys) for a stretch, (None, key, runs) for a
        // shared key.
        let steps = |runs: Vec<Run>| {
            let mut steps = Vec::new();
            let mut merged = Vec::new();
            merge_runs(runs, |step| match step {
                Merged::Only(from, rows) => {
                    let keys: Vec<Key> = rows.map(|(k, _)| k).collect();
                    steps.push((Some(from), keys, vec![]));
                }
                Merged::Shared(key, copies) => {
                    let from = copies.iter().map(|c| c.0).collect();
                    steps.push((None, vec![key], from));
                    merged.push(copies.drain(..).map(|c| c.1).reduce(RowEntry::merge));
                }
            });
            (steps, merged)
        };
        let (seen, merged) = steps(vec![
            vec![(ck(1), entry(10, 1)), (ck(3), entry(30, 1))],
            vec![],
            vec![(ck(2), entry(21, 2)), (ck(3), entry(31, 2))],
            vec![(ck(3), entry(32, 3)), (ck(4), entry(42, 3))],
        ]);
        assert_eq!(
            seen,
            vec![
                (Some(0), vec![ck(1)], vec![]),
                (Some(2), vec![ck(2)], vec![]),
                (None, vec![ck(3)], vec![0, 2, 3]),
                (Some(3), vec![ck(4)], vec![]),
            ]
        );
        assert_eq!(merged, [Some(entry(32, 3))], "the newest write wins");

        // Runs that do not interleave cost a step each.
        let run = |keys: std::ops::Range<i64>| keys.map(|k| (ck(k), entry(1, 1))).collect();
        let (seen, _) = steps(vec![run(5..9), run(0..5), run(9..12)]);
        let stretches: Vec<_> = seen
            .iter()
            .map(|(from, keys, _)| (*from, keys.len()))
            .collect();
        assert_eq!(stretches, [(Some(1), 5), (Some(0), 4), (Some(2), 3)]);
    }

    #[test]
    fn merges_to_compares_runs_with_data_and_folds_a_repeated_key() {
        let entry = |v: i32, ts: u64| {
            let mut e = RowEntry::default();
            e.upsert(&sorted_cells([("a".into(), cellv(v, ts))]));
            e
        };
        let row = |k: i64| (ck(k), entry(k as i32, 1));
        let (a, b) = (vec![row(1), row(4)], vec![row(2), row(3)]);
        let data = merge_all(vec![a.clone(), b.clone()]);
        assert!(merges_to(&[&a, &b], &data));
        assert!(
            merges_to(&[&b, &[], &a], &data),
            "disjoint runs in any order"
        );
        // A cell that differs, a row missing, a row too many.
        let mut changed = data.clone();
        changed[2].1 = entry(9, 1);
        assert!(!merges_to(&[&a, &b], &changed));
        assert!(!merges_to(&[&a, &b], &data[1..]));
        assert!(!merges_to(&[&a], &data));
        // Two runs that hold one key: its copies fold, newest write last,
        // to what a merge makes of them, whether the lengths agree or not.
        let over = vec![(ck(4), entry(40, 2))];
        let folded = merge_all(vec![a.clone(), b.clone(), over.clone()]);
        assert_eq!(folded[3].1, entry(40, 2));
        assert!(merges_to(&[&a, &b, &over], &folded));
        assert!(
            !merges_to(&[&a, &b, &over], &data),
            "data lacks the overwrite"
        );
        assert!(
            !merges_to(&[&a, &b], &folded),
            "the runs lack the overwrite"
        );
        let five = merge_all(vec![data.clone(), vec![row(5)]]);
        assert!(!merges_to(&[&a, &b, &[row(4)]], &five));
        // The copies fold in run order: an older copy first changes nothing.
        let stale = vec![(ck(4), entry(0, 0))];
        assert!(merges_to(&[&stale, &a, &b, &over], &folded));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Runs merge to their own merge, repeated keys included, and to
        /// nothing that lacks a row of it, holds a row differently or holds
        /// a row more.
        #[test]
        fn merges_to_agrees_with_merge_all(
            shapes in proptest::collection::vec(
                proptest::collection::btree_map(0..12i64, (0..3i32, 1..4u64), 0..8),
                1..6,
            ),
            pick in 0..64usize,
        ) {
            let runs: Vec<Run> = shapes
                .iter()
                .map(|keys| {
                    let row = |(k, (v, ts)): (&i64, &(i32, u64))| {
                        let mut entry = RowEntry::default();
                        entry.upsert(&sorted_cells([("a".into(), cellv(*v, *ts))]));
                        (ck(*k), entry)
                    };
                    keys.iter().map(row).collect()
                })
                .collect();
            let sources: Vec<&[(Key, RowEntry)]> = runs.iter().map(Vec::as_slice).collect();
            let data = merge_all(runs.clone());
            proptest::prop_assert!(merges_to(&sources, &data));
            if !data.is_empty() {
                let at = pick % data.len();
                let mut fewer = data.clone();
                fewer.remove(at);
                proptest::prop_assert!(!merges_to(&sources, &fewer));
                let mut changed = data.clone();
                changed[at].1.delete(9);
                proptest::prop_assert!(!merges_to(&sources, &changed));
                let mut more = data.clone();
                more.push((ck(12), data[at].1.clone()));
                proptest::prop_assert!(!merges_to(&sources, &more));
            }
        }
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
