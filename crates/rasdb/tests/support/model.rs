//! The one storage model rasdb's suites assert against, kept apart from the
//! code under test.
//!
//! A table maps (partition, clustering) to a row: named cells, each a value
//! or a cell tombstone (`value: None`) with its write timestamp, and a row
//! tombstone. Copies of a row merge by last write wins, as [`wins`] writes
//! it down: the later `write_ts` wins; on a tie the tombstone wins, then the
//! larger value. A cell is visible when it is live and newer than the row
//! tombstone. Nothing here calls rasdb's own merge (`RowEntry::merge`,
//! `RowEntry::upsert`, `Cell::supersedes`, `sorted_cells`): product rows are
//! read into model space through `From<&RowEntry>` and compared there.
//!
//! On top of the rows sit the table model ([`TableModel`]), the merge of a
//! partition's sorted runs ([`merge_all`]) and the coordinator read with its
//! read repair per consistency level ([`consulted`], [`model_read`]). Suites
//! pull this file in by `#[path]`.

#![allow(dead_code)]

use rasdb::cluster::Cluster;
use rasdb::error::DbError;
use rasdb::memtable::{Cells, RowEntry};
use rasdb::query::{Consistency, ReadPlan};
use rasdb::ring::NodeId;
use rasdb::schema::{ColumnType, TableSchema};
use rasdb::types::{Cell, Key, Row, Value};
use rasdb::DecoratedKey;
use std::collections::BTreeMap;
use std::ops::RangeBounds;
use std::sync::Arc;

/// The `(hour, ts) → v` table most suites write, named `name`.
pub fn schema(name: &str) -> TableSchema {
    TableSchema::builder(name)
        .partition_key("hour", ColumnType::BigInt)
        .clustering_key("ts", ColumnType::Timestamp)
        .column("v", ColumnType::Int)
        .build()
        .unwrap()
}

/// A row of an `(hour, ts) → v` table, as the coordinator takes it.
pub fn row(hour: i64, ts: i64, v: i32) -> Vec<(&'static str, Value)> {
    let (hour, ts) = (Value::BigInt(hour), Value::Timestamp(ts));
    vec![("hour", hour), ("ts", ts), ("v", Value::Int(v))]
}

/// The partition key of `hour` in the `(hour, ts) → v` tables.
pub fn pk(hour: i64) -> DecoratedKey {
    DecoratedKey::new(hour_key(hour))
}

fn hour_key(hour: i64) -> Key {
    Key::from(vec![Value::BigInt(hour)])
}

/// The clustering key of `ts`.
pub fn ck(ts: i64) -> Key {
    Key::from(vec![Value::Timestamp(ts)])
}

/// Last write wins: whether `new` replaces `old`.
fn wins(new: &Cell, old: &Cell) -> bool {
    if new.write_ts != old.write_ts {
        return new.write_ts > old.write_ts;
    }
    // A tie goes to the tombstone, then to the larger value.
    match (&old.value, &new.value) {
        (None, _) => false,
        (_, None) => true,
        (Some(x), Some(y)) => y > x,
    }
}

/// A stored row: its cells sorted by name, each name once, tombstones kept,
/// and a row tombstone. The cells are held as rasdb's `Cells`, so a product
/// row enters model space without a copy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModelRow {
    pub cells: Cells,
    pub deleted_at: Option<u64>,
}

impl ModelRow {
    /// Applies cells in order, each by last write wins.
    pub fn write(&mut self, cells: &[(Arc<str>, Cell)]) {
        let mut row = self.cells.to_vec();
        for (name, new) in cells {
            match row.binary_search_by(|(n, _)| n.cmp(name)) {
                Ok(i) if wins(new, &row[i].1) => row[i].1 = new.clone(),
                Ok(_) => {}
                Err(i) => row.insert(i, (Arc::clone(name), new.clone())),
            }
        }
        self.cells = row.into();
    }

    /// Marks the row deleted at `ts`; the later of two row tombstones stays.
    pub fn delete(&mut self, ts: u64) {
        self.deleted_at = self.deleted_at.max(Some(ts));
    }

    /// Folds another copy of the row into this one.
    pub fn merge(&mut self, other: &ModelRow) {
        if let Some(ts) = other.deleted_at {
            self.delete(ts);
        }
        self.write(&other.cells);
    }

    /// The live cells newer than the row tombstone; `None` when there are
    /// none.
    pub fn visible(&self) -> Option<Vec<(Arc<str>, Value)>> {
        let cells: Vec<(Arc<str>, Value)> = self
            .cells
            .iter()
            .filter(|(_, c)| self.deleted_at.is_none_or(|ts| c.write_ts > ts))
            .filter_map(|(n, c)| Some((Arc::clone(n), c.value.clone()?)))
            .collect();
        (!cells.is_empty()).then_some(cells)
    }
}

impl From<&RowEntry> for ModelRow {
    fn from(entry: &RowEntry) -> ModelRow {
        ModelRow {
            cells: Arc::clone(entry.cells()),
            deleted_at: entry.deleted_at,
        }
    }
}

/// A partition slice in model space: rows in clustering order, each key once.
pub type Raw = Vec<(Key, ModelRow)>;

/// A product run (a replica's partition slice, a merge's output) in model
/// space.
pub fn to_model(run: &[(Key, RowEntry)]) -> Raw {
    run.iter().map(|(k, e)| (k.clone(), e.into())).collect()
}

/// A row as a read returns it: its clustering key and its live cells.
pub type Visible = (Key, Vec<(Arc<str>, Value)>);

/// The rows a read returned, in model space.
pub fn visible(rows: &[Row]) -> Vec<Visible> {
    let cells = |r: &Row| r.cells().map(|(n, v)| (Arc::clone(n), v.clone())).collect();
    rows.iter()
        .map(|r| (r.clustering.clone(), cells(r)))
        .collect()
}

/// What a read answers from stored rows in clustering order: the visible
/// ones, reversed when `descending`, the first `limit` of them.
fn answer<'a>(
    rows: impl Iterator<Item = (&'a Key, &'a ModelRow)>,
    limit: Option<usize>,
    descending: bool,
) -> Vec<Visible> {
    let mut out: Vec<Visible> = rows
        .filter_map(|(k, row)| Some((k.clone(), row.visible()?)))
        .collect();
    if descending {
        out.reverse();
    }
    out.truncate(limit.unwrap_or(usize::MAX));
    out
}

/// One table, written in order: a write is stamped one tick after the one
/// before, as a coordinator stamps the writes it is handed.
#[derive(Debug, Clone, Default)]
pub struct TableModel {
    partitions: BTreeMap<Key, BTreeMap<Key, ModelRow>>,
    clock: u64,
}

impl TableModel {
    /// The row at `(partition, clustering)` and the next write timestamp.
    fn stamp(&mut self, partition: Key, clustering: Key) -> (&mut ModelRow, u64) {
        self.clock += 1;
        let rows = self.partitions.entry(partition).or_default();
        (rows.entry(clustering).or_default(), self.clock)
    }

    pub fn write<'a>(
        &mut self,
        partition: Key,
        clustering: Key,
        cells: impl IntoIterator<Item = (&'a str, Value)>,
    ) {
        let (row, ts) = self.stamp(partition, clustering);
        let cells: Vec<(Arc<str>, Cell)> = cells
            .into_iter()
            .map(|(n, v)| (n.into(), Cell::live(v, ts)))
            .collect();
        row.write(&cells);
    }

    pub fn delete_row(&mut self, partition: Key, clustering: Key) {
        let (row, ts) = self.stamp(partition, clustering);
        row.delete(ts);
    }

    /// A read of `partition` over the clustering `range`.
    pub fn rows(
        &self,
        partition: &Key,
        range: &impl RangeBounds<Key>,
        limit: Option<usize>,
        descending: bool,
    ) -> Vec<Visible> {
        let rows = self.partitions.get(partition).into_iter().flatten();
        answer(rows.filter(|(k, _)| range.contains(*k)), limit, descending)
    }

    /// Writes `v` at `(hour, ts)` of an `(hour, ts) → v` table.
    pub fn put(&mut self, hour: i64, ts: i64, v: i32) {
        self.write(hour_key(hour), ck(ts), [("v", Value::Int(v))]);
    }

    /// Deletes the row at `(hour, ts)`.
    pub fn delete(&mut self, hour: i64, ts: i64) {
        self.delete_row(hour_key(hour), ck(ts));
    }

    /// Every row of partition `hour`.
    pub fn hour(&self, hour: i64) -> Vec<Visible> {
        self.rows(&hour_key(hour), &.., None, false)
    }
}

/// Merges a partition's sorted runs into the one run they describe: every
/// copy of a row folded into one.
pub fn merge_all(runs: impl IntoIterator<Item = Raw>) -> Raw {
    let mut merged: BTreeMap<Key, ModelRow> = BTreeMap::new();
    for (k, row) in runs.into_iter().flatten() {
        merged.entry(k).and_modify(|r| r.merge(&row)).or_insert(row);
    }
    merged.into_iter().collect()
}

/// A replica's partition once the repair rows have been merged into it.
pub fn repaired(before: &Raw, repair: &Raw) -> Raw {
    merge_all([before.clone(), repair.clone()])
}

/// The replicas a read of `partition` consults: the first `required` that
/// are up, in ring order; `Err` is the `Unavailable` the read returns
/// instead.
pub fn consulted(
    c: &Cluster,
    partition: &DecoratedKey,
    consistency: Consistency,
) -> Result<Vec<NodeId>, DbError> {
    let owners = c.owners(partition.key());
    let required = consistency.required(owners.len());
    let up: Vec<NodeId> = owners
        .into_iter()
        .filter(|id| c.node(*id).is_up())
        .take(required)
        .collect();
    if up.len() < required {
        return Err(DbError::Unavailable {
            required,
            received: up.len(),
        });
    }
    Ok(up)
}

/// The down owners a successful read of `partition` passes over before it
/// has consulted its replicas.
pub fn passed_over(c: &Cluster, partition: &DecoratedKey, consulted: &[NodeId]) -> u64 {
    let last = consulted.last().expect("a read consults a replica");
    c.owners(partition.key())
        .into_iter()
        .take_while(|id| id != last)
        .filter(|id| !c.node(*id).is_up())
        .count() as u64
}

/// The coordinator read: the responses merged into one run, which the read
/// answers from. When more than one replica answered, each is sent as repair
/// every merged row it does not hold as it is. Returns the rows and, per
/// response, its repair rows.
pub fn model_read(responses: &[(NodeId, Raw)], plan: &ReadPlan) -> (Vec<Visible>, Vec<Raw>) {
    let merged = merge_all(responses.iter().map(|(_, raw)| raw.clone()));
    let repairs = responses
        .iter()
        .map(|(_, raw)| match responses.len() {
            1 => Vec::new(),
            _ => merged
                .iter()
                .filter(|row| !raw.contains(row))
                .cloned()
                .collect(),
        })
        .collect();
    let rows = answer(
        merged.iter().map(|(k, r)| (k, r)),
        plan.limit,
        plan.descending,
    );
    (rows, repairs)
}

/// The rows a read of `plan` returns, predicted from what its consulted
/// replicas hold now.
pub fn expected_rows(
    c: &Cluster,
    plan: &ReadPlan,
    consistency: Consistency,
) -> Result<Vec<Visible>, DbError> {
    let responses: Vec<(NodeId, Raw)> = consulted(c, &plan.partition, consistency)?
        .into_iter()
        .map(|id| {
            let raw = c
                .node(id)
                .read_raw(&plan.table, &plan.partition, &plan.range);
            (id, to_model(&raw.expect("consulted replicas are up")))
        })
        .collect();
    Ok(model_read(&responses, plan).0)
}
