//! A storage node: commit log + memtable + SSTables per table, behind a
//! message-style API used only by coordinators.

use crate::commitlog::{CommitLog, Mutation};
use crate::compaction;
use crate::memtable::{merge_all, merges_to, Memtable, RowEntry, Run};
use crate::partitioner::DecoratedKey;
use crate::ring::NodeId;
use crate::sstable::SsTable;
use crate::stats::{NodeStats, StatsSnapshot};
use crate::types::{Key, Row};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Node tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct NodeConfig {
    /// Memtable cell count that triggers a flush.
    pub flush_threshold: usize,
    /// Commit-log segment size in records.
    pub commitlog_segment: usize,
    /// Bloom-filter usage on reads (ablation hook).
    pub use_bloom: bool,
    /// Simulated per-read service latency (RPC + disk round trip of a
    /// replica read). `0` = serve instantly. The coordinator charges it as
    /// simulated time, queued per node, and decides hedges on it; benches
    /// use it to model a networked cluster.
    pub read_latency_us: u64,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            flush_threshold: 64 * 1024,
            commitlog_segment: 16 * 1024,
            use_bloom: true,
            read_latency_us: 0,
        }
    }
}

/// What a digest read answers (see [`StorageNode::read_digest`]).
#[derive(Debug)]
pub(crate) enum Digest {
    /// The replica's merged view of the range is the data response.
    Matches,
    /// It is not: the replica's merged run.
    Differs(Run),
}

/// Storage for one table on one node.
#[derive(Debug)]
struct TableStore {
    memtable: Memtable,
    sstables: Vec<SsTable>,
    next_sequence: u64,
    commitlog: CommitLog,
}

impl TableStore {
    fn new(cfg: &NodeConfig) -> TableStore {
        TableStore {
            memtable: Memtable::new(),
            sstables: Vec::new(),
            next_sequence: 1,
            commitlog: CommitLog::new(cfg.commitlog_segment),
        }
    }
}

/// One simulated cluster node.
#[derive(Debug)]
pub struct StorageNode {
    /// This node's id.
    pub id: NodeId,
    cfg: NodeConfig,
    tables: RwLock<HashMap<String, Mutex<TableStore>>>,
    up: AtomicBool,
    /// Permanently removed from service (decommissioned, or a joiner whose
    /// join aborted). A retired node never comes back up — its `NodeId` slot
    /// is kept only so ids stay stable.
    retired: AtomicBool,
    read_latency_us: AtomicU64,
    stats: NodeStats,
}

impl StorageNode {
    /// Creates an empty (up) node.
    pub fn new(id: NodeId, cfg: NodeConfig) -> StorageNode {
        StorageNode {
            id,
            cfg,
            tables: RwLock::new(HashMap::new()),
            up: AtomicBool::new(true),
            retired: AtomicBool::new(false),
            read_latency_us: AtomicU64::new(cfg.read_latency_us),
            stats: NodeStats::default(),
        }
    }

    /// Changes the simulated read service latency at runtime (failure and
    /// slow-replica injection in tests/benches).
    pub fn set_read_latency_us(&self, us: u64) {
        self.read_latency_us.store(us, Ordering::SeqCst);
    }

    /// The simulated service latency of one read. The node does not wait
    /// it out: the coordinator charges it as simulated time.
    pub fn read_latency_us(&self) -> u64 {
        self.read_latency_us.load(Ordering::Relaxed)
    }

    /// Registers a table (idempotent).
    pub fn create_table(&self, name: &str) {
        let mut tables = self.tables.write();
        tables
            .entry(name.to_owned())
            .or_insert_with(|| Mutex::new(TableStore::new(&self.cfg)));
    }

    /// Liveness flag checked by coordinators.
    pub fn is_up(&self) -> bool {
        self.up.load(Ordering::SeqCst)
    }

    /// Simulates failure/recovery. Retired nodes stay down forever.
    pub fn set_up(&self, up: bool) {
        if up && self.is_retired() {
            return;
        }
        self.up.store(up, Ordering::SeqCst);
    }

    /// Permanently removes the node from service: marks it down and blocks
    /// every future `set_up(true)` / `restart()` from reviving it.
    pub fn retire(&self) {
        self.retired.store(true, Ordering::SeqCst);
        self.up.store(false, Ordering::SeqCst);
    }

    /// Whether the node has been permanently removed from service.
    pub fn is_retired(&self) -> bool {
        self.retired.load(Ordering::SeqCst)
    }

    /// Applies one mutation: a batch of one (see [`StorageNode::apply_batch`]).
    pub fn apply(&self, mutation: &Arc<Mutation>) -> bool {
        self.apply_batch(&[std::slice::from_ref(mutation)])
    }

    /// Applies mutations that may name any tables and partitions (a stream
    /// chunk, a replayed hint queue) as one all-or-nothing batch.
    pub fn apply_chunk(&self, mutations: &[Arc<Mutation>]) -> bool {
        let groups: Vec<&[Arc<Mutation>]> = mutations.chunks(1).collect();
        self.apply_batch(&groups)
    }

    /// The node's one write entry point. Each group is a non-empty run of
    /// mutations that share one table and one partition. The batch is
    /// all-or-nothing from the sender's point of view: liveness and every
    /// table are checked once, before the first append, so a NAK (`false`)
    /// means nothing reached the commit log or the memtable and the sender
    /// may hint or retry the whole batch. Consecutive groups of one table
    /// are applied under one table lock: one commit-log append for all their
    /// records (log first, so an acked batch survives a crash/restart), then
    /// one partition lookup per group, flushing and compacting wherever a
    /// row crosses the threshold.
    ///
    /// Tables are looked up once per run of same-table groups, not per
    /// group; the runs are told apart by comparing the mutations' interned
    /// table names, which `Arc`'s `==` settles by pointer first.
    pub fn apply_batch(&self, groups: &[&[Arc<Mutation>]]) -> bool {
        if !self.is_up() {
            return false;
        }
        let tables = self.tables.read();
        let runs = || groups.chunk_by(|a, b| a[0].table == b[0].table);
        if !runs().all(|run| tables.contains_key(&*run[0][0].table)) {
            return false;
        }
        for run in runs() {
            self.apply_locked(&mut tables[&*run[0][0].table].lock(), run);
        }
        true
    }

    fn apply_locked(&self, store: &mut TableStore, groups: &[&[Arc<Mutation>]]) {
        // Sequence number of the newest record already in the memtable or
        // an SSTable: a flush inside the batch may truncate the log only up
        // to here, not up to the end of the batch appended below.
        let mut applied = store.commitlog.appended();
        store
            .commitlog
            .append(groups.iter().flat_map(|g| g.iter().cloned()));
        for group in groups {
            debug_assert!(group
                .iter()
                .all(|m| m.table == group[0].table && m.partition == group[0].partition));
            let mut rows = *group;
            while !rows.is_empty() {
                let n = store.memtable.upsert_rows(
                    &group[0].partition,
                    rows.iter().map(|m| m.row_change()),
                    self.cfg.flush_threshold,
                );
                applied += n as u64;
                rows = &rows[n..];
                if store.memtable.weight() >= self.cfg.flush_threshold {
                    self.flush_locked(store, applied);
                    self.maybe_compact_locked(store);
                }
            }
        }
        let writes = groups.iter().map(|g| g.len() as u64).sum();
        self.stats.writes.incr(writes);
    }

    /// Reads merged raw row entries for a partition range.
    ///
    /// Every source is already a sorted run with each clustering key once:
    /// an SSTable's slice of the partition, the memtable's slice of it. The
    /// runs are copied out under the table lock, oldest first (SSTables in
    /// list order, then the memtable), and merged slice by slice after the
    /// lock is released; a partition found in a single source is that run.
    pub fn read_raw(
        &self,
        table: &str,
        partition: &DecoratedKey,
        range: &(Bound<Key>, Bound<Key>),
    ) -> Option<Run> {
        if !self.is_up() {
            return None;
        }
        let runs: Vec<Run> = {
            let tables = self.tables.read();
            let store = tables.get(table)?.lock();
            let sources = self.sources(&store, partition, range);
            sources.into_iter().map(<[_]>::to_vec).collect()
        };
        Some(merge_all(runs))
    }

    /// A digest read: whether this replica's merged view of the range is
    /// `data`, the response of the replica that answered with rows. The
    /// sources are walked under the table lock and compared with `data`
    /// row by row, pointer first, without copying a row; a key several
    /// sources hold is compared as its folded copies ([`merges_to`]). A
    /// mismatch answers with the merged run [`StorageNode::read_raw`]
    /// returns. Counts as the node's one read of the partition.
    pub(crate) fn read_digest(
        &self,
        table: &str,
        partition: &DecoratedKey,
        range: &(Bound<Key>, Bound<Key>),
        data: &[(Key, RowEntry)],
    ) -> Option<Digest> {
        if !self.is_up() {
            return None;
        }
        let runs: Vec<Run> = {
            let tables = self.tables.read();
            let store = tables.get(table)?.lock();
            let sources = self.sources(&store, partition, range);
            if merges_to(&sources, data) {
                return Some(Digest::Matches);
            }
            sources.into_iter().map(<[_]>::to_vec).collect()
        };
        Some(Digest::Differs(merge_all(runs)))
    }

    /// The stored slices of a partition range, oldest first: the SSTables
    /// the bloom filter lets through, then the memtable. Counts the read.
    fn sources<'a>(
        &self,
        store: &'a TableStore,
        partition: &DecoratedKey,
        range: &(Bound<Key>, Bound<Key>),
    ) -> Vec<&'a [(Key, RowEntry)]> {
        self.stats.reads.incr(1);
        let mut sources = Vec::with_capacity(store.sstables.len() + 1);
        for sst in &store.sstables {
            if self.cfg.use_bloom && !sst.may_contain(partition) {
                self.stats.bloom_skips.incr(1);
                continue;
            }
            self.stats.sstable_probes.incr(1);
            sources.push(sst.read_raw(partition, range, self.cfg.use_bloom));
        }
        sources.push(store.memtable.slice(partition, range));
        sources
    }

    /// Materialized read (visible rows only).
    pub fn read(
        &self,
        table: &str,
        partition: &DecoratedKey,
        range: &(Bound<Key>, Bound<Key>),
    ) -> Option<Vec<Row>> {
        let raw = self.read_raw(table, partition, range)?;
        Some(
            raw.into_iter()
                .filter_map(|(ck, e)| e.visible(ck))
                .collect(),
        )
    }

    /// All partition keys stored locally for `table` (memtable + SSTables),
    /// each once, in decorated (ring) order — the memtable lists its own in
    /// no order, and the set puts them in place. Drives token-range scans
    /// and range streaming.
    pub fn local_partition_keys(&self, table: &str) -> Vec<DecoratedKey> {
        let tables = self.tables.read();
        let Some(store) = tables.get(table) else {
            return Vec::new();
        };
        let store = store.lock();
        let mut keys: std::collections::BTreeSet<DecoratedKey> =
            store.memtable.partition_keys().cloned().collect();
        for sst in &store.sstables {
            for (pk, _) in sst.partitions() {
                keys.insert(pk.clone());
            }
        }
        keys.into_iter().collect()
    }

    /// Forces a memtable flush.
    pub fn flush(&self, table: &str) {
        let tables = self.tables.read();
        if let Some(store) = tables.get(table) {
            let mut store = store.lock();
            let appended = store.commitlog.appended();
            self.flush_locked(&mut store, appended);
        }
    }

    /// Flushes the memtable into a new SSTable. `applied` is the commit-log
    /// sequence number of the newest record the memtable holds.
    fn flush_locked(&self, store: &mut TableStore, applied: u64) {
        if store.memtable.is_empty() {
            return;
        }
        let data = store.memtable.drain_sorted();
        let seq = store.next_sequence;
        store.next_sequence += 1;
        store.sstables.push(SsTable::build(seq, data));
        store.commitlog.truncate_flushed(applied);
        self.stats.flushes.incr(1);
    }

    /// Runs compaction if a bucket is ripe.
    pub fn maybe_compact(&self, table: &str) {
        let tables = self.tables.read();
        if let Some(store) = tables.get(table) {
            let mut store = store.lock();
            self.maybe_compact_locked(&mut store);
        }
    }

    fn maybe_compact_locked(&self, store: &mut TableStore) {
        while let Some(bucket) = compaction::pick_bucket(&store.sstables) {
            let mut picked = Vec::with_capacity(bucket.len());
            // Remove in descending index order to keep indices valid.
            let mut idxs = bucket;
            idxs.sort_unstable_by(|a, b| b.cmp(a));
            for i in idxs {
                picked.push(store.sstables.remove(i));
            }
            let seq = store.next_sequence;
            store.next_sequence += 1;
            store.sstables.push(compaction::merge(picked, seq));
            self.stats.compactions.incr(1);
        }
    }

    /// Simulates a crash/restart: memtable contents are rebuilt from the
    /// commit log. A retired node cannot restart.
    pub fn restart(&self) {
        if self.is_retired() {
            return;
        }
        let tables = self.tables.read();
        for store in tables.values() {
            let store = &mut *store.lock();
            // Crash: memtable lost.
            store.memtable = Memtable::new();
            // Recovery: replay retained commit-log records.
            for m in store.commitlog.replay() {
                store
                    .memtable
                    .upsert_rows(&m.partition, [m.row_change()], usize::MAX);
            }
        }
        self.set_up(true);
    }

    /// The records a table's commit log retains, in append order (tests).
    pub fn logged_mutations(&self, table: &str) -> Vec<Arc<Mutation>> {
        let tables = self.tables.read();
        tables.get(table).map_or_else(Vec::new, |store| {
            store.lock().commitlog.replay().cloned().collect()
        })
    }

    /// Current SSTable count for a table (tests/benches).
    pub fn sstable_count(&self, table: &str) -> usize {
        let tables = self.tables.read();
        tables
            .get(table)
            .map(|s| s.lock().sstables.len())
            .unwrap_or(0)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Zeroes this node's counts.
    pub fn reset_stats(&self) {
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memtable::full_range;
    use crate::types::Value;

    fn node(flush_threshold: usize) -> StorageNode {
        let n = StorageNode::new(
            NodeId(0),
            NodeConfig {
                flush_threshold,
                ..Default::default()
            },
        );
        n.create_table("t");
        n
    }

    fn pk(h: i64) -> DecoratedKey {
        DecoratedKey::new(Key::from(vec![Value::BigInt(h)]))
    }

    fn mutation(table: &str, h: i64, ts: i64, v: i32, wts: u64) -> Arc<Mutation> {
        Arc::new(Mutation::upsert(
            table,
            pk(h),
            Key::from(vec![Value::Timestamp(ts)]),
            vec![("v".into(), Value::Int(v))],
            wts,
        ))
    }

    fn upsert(n: &StorageNode, h: i64, ts: i64, v: i32, wts: u64) {
        assert!(n.apply(&mutation("t", h, ts, v, wts)));
    }

    #[test]
    fn write_then_read_roundtrip() {
        let n = node(1000);
        upsert(&n, 1, 10, 7, 1);
        let rows = n.read("t", &pk(1), &full_range()).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].cell("v"), Some(&Value::Int(7)));
    }

    #[test]
    fn reads_merge_memtable_over_sstables() {
        let n = node(1000);
        upsert(&n, 1, 10, 1, 1);
        n.flush("t");
        assert_eq!(n.sstable_count("t"), 1);
        upsert(&n, 1, 10, 2, 2); // newer write in memtable
        let rows = n.read("t", &pk(1), &full_range()).unwrap();
        assert_eq!(rows[0].cell("v"), Some(&Value::Int(2)));
    }

    #[test]
    fn automatic_flush_and_compaction() {
        let n = node(8);
        for i in 0..100 {
            upsert(&n, i % 5, i, i as i32, i as u64);
        }
        // Flushes happened automatically...
        assert!(n.stats().flushes > 0);
        // ...and compaction kept the table count bounded.
        assert!(n.sstable_count("t") < 10, "{}", n.sstable_count("t"));
        // All data still readable.
        let total: usize = (0..5)
            .map(|h| n.read("t", &pk(h), &full_range()).unwrap().len())
            .sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn down_node_rejects_operations() {
        let n = node(1000);
        upsert(&n, 1, 1, 1, 1);
        n.set_up(false);
        assert!(!n.apply(&mutation("t", 1, 2, 1, 2)));
        assert!(n.read("t", &pk(1), &full_range()).is_none());
        n.set_up(true);
        assert!(n.read("t", &pk(1), &full_range()).is_some());
    }

    #[test]
    fn restart_replays_commitlog() {
        let n = node(1000); // nothing flushed -> everything in commit log
        for i in 0..20 {
            upsert(&n, 1, i, i as i32, i as u64);
        }
        n.restart();
        let rows = n.read("t", &pk(1), &full_range()).unwrap();
        assert_eq!(rows.len(), 20);
    }

    #[test]
    fn restart_after_flush_loses_nothing() {
        let n = node(1000);
        for i in 0..10 {
            upsert(&n, 1, i, i as i32, i as u64);
        }
        n.flush("t");
        for i in 10..15 {
            upsert(&n, 1, i, i as i32, i as u64);
        }
        n.restart();
        let rows = n.read("t", &pk(1), &full_range()).unwrap();
        assert_eq!(rows.len(), 15, "flushed + replayed rows");
    }

    #[test]
    fn delete_row_via_mutation() {
        let n = node(1000);
        upsert(&n, 1, 1, 1, 1);
        let d = Mutation::delete("t", pk(1), Key::from(vec![Value::Timestamp(1)]), 5);
        n.apply(&Arc::new(d));
        assert!(n.read("t", &pk(1), &full_range()).unwrap().is_empty());
    }

    #[test]
    fn local_partition_keys_union_memtable_and_sstables() {
        let n = node(1000);
        upsert(&n, 1, 1, 1, 1);
        n.flush("t");
        upsert(&n, 2, 1, 1, 1);
        let keys = n.local_partition_keys("t");
        assert_eq!(keys.len(), 2);
    }

    #[test]
    fn retired_node_never_revives() {
        let n = node(1000);
        upsert(&n, 1, 1, 1, 1);
        n.retire();
        assert!(n.is_retired());
        assert!(!n.is_up());
        n.set_up(true);
        assert!(!n.is_up(), "set_up must not revive a retired node");
        n.restart();
        assert!(!n.is_up(), "restart must not revive a retired node");
    }

    #[test]
    fn apply_chunk_lands_all_or_naks() {
        let n = node(1000);
        let muts: Vec<Arc<Mutation>> = (0..5)
            .map(|i| mutation("t", 1, i, i as i32, i as u64 + 1))
            .collect();
        assert!(n.apply_chunk(&muts));
        assert_eq!(n.read("t", &pk(1), &full_range()).unwrap().len(), 5);
        n.set_up(false);
        assert!(!n.apply_chunk(&muts), "down receiver must NAK the chunk");
    }

    #[test]
    fn unknown_table_apply_fails() {
        let n = node(1000);
        let m = Mutation::upsert("nope", pk(0), Key::default(), vec![], 1);
        assert!(!n.apply(&Arc::new(m)));
    }

    #[test]
    fn chunk_naming_an_unknown_table_lands_nothing() {
        let n = node(1000);
        let chunk = [
            mutation("t", 1, 1, 1, 1),
            mutation("nope", 1, 2, 2, 2),
            mutation("t", 1, 3, 3, 3),
        ];
        assert!(!n.apply_chunk(&chunk), "unknown table must NAK the chunk");
        let stored = |n: &StorageNode| n.read("t", &pk(1), &full_range()).unwrap();
        assert!(stored(&n).is_empty(), "a NAKed chunk left a prefix behind");
        n.restart();
        assert!(
            stored(&n).is_empty(),
            "a NAKed chunk reached the commit log"
        );
        assert_eq!(n.stats().writes, 0);
    }

    #[test]
    fn flush_inside_a_batch_keeps_the_unflushed_tail_replayable() {
        // The whole batch is in the log (segments 1-4, 5-8, 9-10) before its
        // first row is in the memtable. The flush threshold is crossed at
        // row 7: only the first segment may go, or row 8 is in no SSTable,
        // no memtable after a crash, and no log.
        let n = StorageNode::new(
            NodeId(0),
            NodeConfig {
                flush_threshold: 8,
                commitlog_segment: 4,
                ..Default::default()
            },
        );
        n.create_table("t");
        let batch: Vec<Arc<Mutation>> = (0..10)
            .map(|i| mutation("t", 1, i, i as i32, i as u64 + 1))
            .collect();
        assert!(n.apply_batch(&[&batch]));
        assert_eq!(n.stats().flushes, 1);
        assert_eq!(n.stats().writes, 10);
        n.restart();
        let rows = n.read("t", &pk(1), &full_range()).unwrap();
        assert_eq!(rows.len(), 10, "flushed + replayed rows");
    }
}
