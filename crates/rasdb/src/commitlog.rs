//! Append-only commit log: every mutation is recorded before it touches
//! the memtable, so a node restart can replay its state.

use crate::memtable::{sorted_cells, Cells, RowChange, RowEntry};
use crate::partitioner::DecoratedKey;
use crate::types::{Cell, Key, Value};
use std::sync::Arc;

/// One durable mutation record.
///
/// Table name, keys and cells are shared pointers, and the record itself
/// travels as `Arc<Mutation>`: what reaches three replicas is one set of
/// bytes, as it would be on a wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mutation {
    /// Target table (the schema's interned name).
    pub table: Arc<str>,
    /// Partition key, decorated once by the coordinator: every replica
    /// places, orders and filters by the hash it carries.
    pub partition: DecoratedKey,
    /// Clustering key.
    pub clustering: Key,
    /// Cells to upsert (empty for pure row deletes).
    pub cells: Cells,
    /// Row tombstone timestamp, if this mutation deletes the row.
    pub row_delete: Option<u64>,
}

impl Mutation {
    /// Builds an upsert mutation with a single write timestamp.
    pub fn upsert(
        table: impl Into<Arc<str>>,
        partition: DecoratedKey,
        clustering: Key,
        values: Vec<(Arc<str>, Value)>,
        write_ts: u64,
    ) -> Mutation {
        let cells = values
            .into_iter()
            .map(|(n, v)| (n, Cell::live(v, write_ts)));
        Mutation {
            table: table.into(),
            partition,
            clustering,
            cells: sorted_cells(cells),
            row_delete: None,
        }
    }

    /// Builds a row-delete mutation.
    pub fn delete(
        table: impl Into<Arc<str>>,
        partition: DecoratedKey,
        clustering: Key,
        write_ts: u64,
    ) -> Mutation {
        Mutation {
            table: table.into(),
            partition,
            clustering,
            cells: Cells::default(),
            row_delete: Some(write_ts),
        }
    }

    /// Builds the mutation that carries a stored row's full state (cells and
    /// tombstone) to another replica: read repair and range streaming.
    pub fn from_entry(
        table: &Arc<str>,
        partition: &DecoratedKey,
        clustering: &Key,
        entry: &RowEntry,
    ) -> Mutation {
        Mutation {
            table: Arc::clone(table),
            partition: partition.clone(),
            clustering: clustering.clone(),
            cells: Arc::clone(entry.cells()),
            row_delete: entry.deleted_at,
        }
    }

    /// The row-level change this mutation makes inside its partition.
    pub fn row_change(&self) -> RowChange<'_> {
        (&self.clustering, &self.cells, self.row_delete)
    }

    /// Approximate record weight in cells (log sizing).
    pub fn weight(&self) -> usize {
        self.cells.len().max(1)
    }
}

/// The per-table commit log of one node.
///
/// Records are shared (`Arc`) with the coordinator's other replicas and its
/// hint queue: appending never deep-copies a mutation. Segments rotate at
/// `segment_limit` records; closed segments that lie wholly at or below the
/// last flush point are discarded (`truncate_flushed`), mirroring how a real
/// commit log reclaims space once the memtable is durable in SSTables.
///
/// The log has no lock of its own: it lives inside a node's table store and
/// is only ever touched under that store's lock.
#[derive(Debug)]
pub struct CommitLog {
    /// Retained segments, oldest first; the last one is open. Their records
    /// are the newest `retained()` of the `appended` sequence numbers.
    segments: Vec<Vec<Arc<Mutation>>>,
    segment_limit: usize,
    appended: u64,
}

impl CommitLog {
    /// Creates a log with the given segment size.
    pub fn new(segment_limit: usize) -> CommitLog {
        CommitLog {
            segments: vec![Vec::new()],
            segment_limit: segment_limit.max(1),
            appended: 0,
        }
    }

    /// Appends a batch of records in order. Record *i* of the batch
    /// (1-based) gets sequence number `appended() + i`, counted from before
    /// the call.
    pub fn append(&mut self, records: impl IntoIterator<Item = Arc<Mutation>>) {
        for m in records {
            if self
                .segments
                .last()
                .is_some_and(|open| open.len() >= self.segment_limit)
            {
                self.segments.push(Vec::new());
            }
            self.segments.last_mut().expect("open segment").push(m);
            self.appended += 1;
        }
    }

    /// Drops the closed segments whose records all have sequence numbers at
    /// or below `flushed`, the newest record known to be in an SSTable. The
    /// open segment is always kept, and so is any closed segment holding a
    /// record above the flush point: a batch is appended whole before its
    /// rows reach the memtable, so a flush in the middle of one leaves
    /// appended records that are in no SSTable yet.
    pub fn truncate_flushed(&mut self, flushed: u64) {
        let closed = self.segments.len() - 1;
        // Sequence number of the newest record of the segment in hand.
        let mut last_seq = self.appended - self.retained() as u64;
        let droppable = self.segments[..closed]
            .iter()
            .take_while(|s| {
                last_seq += s.len() as u64;
                last_seq <= flushed
            })
            .count();
        self.segments.drain(..droppable);
    }

    /// Every retained mutation in append order (restart recovery).
    pub fn replay(&self) -> impl Iterator<Item = &Arc<Mutation>> {
        self.segments.iter().flatten()
    }

    /// Total mutations ever appended.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Currently retained record count.
    pub fn retained(&self) -> usize {
        self.segments.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(i: i64) -> Arc<Mutation> {
        Arc::new(Mutation::upsert(
            "t",
            DecoratedKey::new(Key::from(vec![Value::BigInt(i)])),
            Key::from(vec![Value::Timestamp(i)]),
            vec![("v".into(), Value::Int(i as i32))],
            i as u64,
        ))
    }

    #[test]
    fn append_and_replay_preserve_order() {
        let mut log = CommitLog::new(10);
        log.append((0..20).map(m));
        log.append((20..25).map(m));
        let replayed: Vec<_> = log.replay().collect();
        assert_eq!(replayed.len(), 25);
        assert_eq!(*replayed[7], m(7));
        assert_eq!(log.appended(), 25);
    }

    #[test]
    fn segments_rotate() {
        let mut log = CommitLog::new(4);
        log.append((0..10).map(m));
        assert_eq!(log.retained(), 10);
        log.truncate_flushed(10);
        // Two full segments dropped; the open one (2 records) remains.
        assert_eq!(log.retained(), 2);
        assert_eq!(log.appended(), 10);
    }

    #[test]
    fn truncate_keeps_segments_above_the_flush_point() {
        let mut log = CommitLog::new(4);
        log.append((0..10).map(m));
        // Records 1..=6 are flushed: the first segment (1..=4) goes, the
        // second (5..=8) still holds unflushed records 7 and 8.
        log.truncate_flushed(6);
        assert_eq!(log.retained(), 6);
        assert_eq!(*log.replay().next().unwrap(), m(4));
        log.truncate_flushed(8);
        assert_eq!(log.retained(), 2);
    }

    #[test]
    fn truncate_on_empty_log_is_safe() {
        let mut log = CommitLog::new(4);
        log.truncate_flushed(0);
        assert_eq!(log.retained(), 0);
        log.append([m(1)]);
        assert_eq!(log.retained(), 1);
    }

    #[test]
    fn delete_mutation_shape() {
        let d = Mutation::delete("t", DecoratedKey::new(Key::default()), Key::default(), 9);
        assert!(d.cells.is_empty());
        assert_eq!(d.row_delete, Some(9));
        assert_eq!(d.weight(), 1);
    }
}
