//! The cluster: a masterless ring of storage nodes plus coordinator logic
//! (replication, consistency levels, hinted handoff, read repair) and live
//! topology changes (join/decommission with fault-tolerant range streaming).
//!
//! This file holds the [`Cluster`], its catalog, versions, epoch and hints;
//! `write`, `read`, `cql` and `membership` hold one coordinator seam each.

mod cql;
mod membership;
mod read;
mod write;

pub use read::SelectBuilder;

use crate::commitlog::Mutation;
use crate::error::DbError;
use crate::node::{NodeConfig, StorageNode};
use crate::partitioner::{token_for, DecoratedKey, TokenMap};
use crate::ring::{NodeId, Ring};
use crate::schema::TableSchema;
use crate::stats::{CacheStats, CoordinatorStats, StatsSnapshot, TopologyStats};
use crate::topology::{MemberStatus, TopologyStatus, TransitionKind};
use crate::types::{Key, Row};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock};
use std::time::Duration;
use telemetry::Registry;

/// Cluster construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of physical nodes.
    pub nodes: usize,
    /// Replication factor.
    pub replication_factor: usize,
    /// Virtual nodes per physical node.
    pub vnodes: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 4,
            replication_factor: 3,
            vnodes: 16,
        }
    }
}

/// Result of a `SELECT` through CQL: rows or a write acknowledgment.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecResult {
    /// Rows from a select.
    Rows(Vec<Row>),
    /// Statement applied (insert/delete/create).
    Applied,
}

/// Default per-read deadline, in simulated time, before a speculative retry
/// is sent to the next replica (see [`Cluster::read_multi`]).
pub const DEFAULT_SPECULATIVE_TIMEOUT: Duration = Duration::from_millis(5);

/// Default per-node hinted-handoff queue cap (see [`Cluster::set_hint_cap`]).
pub const DEFAULT_HINT_CAP: u64 = 8192;

/// Suggested client back-off returned with [`DbError::TopologyChanging`]
/// when an admin op is rejected because a transition is already in flight.
pub const TOPOLOGY_RETRY_AFTER_MS: u64 = 100;

/// Default rows per range-streaming chunk (see
/// [`Cluster::set_stream_chunk_rows`]).
pub const DEFAULT_STREAM_CHUNK_ROWS: u64 = 128;

/// The ring plus any in-flight membership transition, swapped atomically
/// under one lock so every coordinator snapshot sees a consistent pair.
struct TopologyState {
    ring: Ring,
    transition: Option<Transition>,
}

/// One in-flight join or decommission.
struct Transition {
    kind: TransitionKind,
    node: NodeId,
    /// The ring the cluster converges to when the transition commits.
    target_ring: Ring,
}

/// An in-process distributed database.
pub struct Cluster {
    /// Ring + in-flight transition. Lock ordering: `topology` before
    /// `nodes`; neither is ever held across range streaming.
    topology: RwLock<TopologyState>,
    /// Every node slot ever created, indexed by `NodeId`. Append-only:
    /// decommissioned nodes are retired in place so ids stay stable.
    nodes: RwLock<Vec<Arc<StorageNode>>>,
    node_cfg: NodeConfig,
    schemas: RwLock<HashMap<Arc<str>, Arc<TableSchema>>>,
    clock: AtomicU64,
    hints: Mutex<HashMap<NodeId, VecDeque<Arc<Mutation>>>>,
    hint_cap: AtomicU64,
    coord_stats: CoordinatorStats,
    speculative_timeout_us: AtomicU64,
    /// Monotonic per-partition data versions: bumped after every mutation
    /// (including repairs), so cached reads can be validated exactly. Keyed
    /// by table, then by the decorated partition key, whose token is all a
    /// lookup hashes: a bump of a known partition changes a number in place.
    versions: Mutex<HashMap<Arc<str>, TokenMap<DecoratedKey, u64>>>,
    version_counter: AtomicU64,
    /// Bumped whenever replica visibility changes (node down/up), which can
    /// change what a read at a given consistency level observes.
    epoch: AtomicU64,
    topo_stats: TopologyStats,
    stream_chunk_rows: AtomicU64,
}

impl Cluster {
    /// Builds a cluster with default node tuning.
    pub fn new(cfg: ClusterConfig) -> Cluster {
        Cluster::with_node_config(cfg, NodeConfig::default())
    }

    /// Builds a cluster with explicit node tuning.
    pub fn with_node_config(cfg: ClusterConfig, node_cfg: NodeConfig) -> Cluster {
        Cluster::with_telemetry(cfg, node_cfg, &Registry::default())
    }

    /// Builds a cluster whose `rasdb.coordinator.*` and `rasdb.topology.*`
    /// counters live in `telemetry`.
    pub fn with_telemetry(
        cfg: ClusterConfig,
        node_cfg: NodeConfig,
        telemetry: &Registry,
    ) -> Cluster {
        let ring = Ring::new(cfg.nodes, cfg.vnodes, cfg.replication_factor);
        let nodes = (0..cfg.nodes)
            .map(|i| Arc::new(StorageNode::new(NodeId(i), node_cfg)))
            .collect();
        Cluster {
            topology: RwLock::new(TopologyState {
                ring,
                transition: None,
            }),
            nodes: RwLock::new(nodes),
            node_cfg,
            schemas: RwLock::new(HashMap::new()),
            clock: AtomicU64::new(1),
            hints: Mutex::new(HashMap::new()),
            hint_cap: AtomicU64::new(DEFAULT_HINT_CAP),
            coord_stats: CoordinatorStats::new(telemetry),
            speculative_timeout_us: AtomicU64::new(DEFAULT_SPECULATIVE_TIMEOUT.as_micros() as u64),
            versions: Mutex::new(HashMap::new()),
            version_counter: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            topo_stats: TopologyStats::new(telemetry),
            stream_chunk_rows: AtomicU64::new(DEFAULT_STREAM_CHUNK_ROWS),
        }
    }

    /// The data version of one partition: strictly increases with every
    /// mutation that may have touched it (writes, deletes, read repairs).
    /// `0` means never written. Cache layers snapshot this *before* reading
    /// and re-validate on every lookup, so a matching version proves the
    /// cached rows are still current.
    pub fn data_version(&self, table: &str, partition: &DecoratedKey) -> u64 {
        self.versions
            .lock()
            .get(table)
            .and_then(|of_table| of_table.get(partition))
            .copied()
            .unwrap_or(0)
    }

    /// Topology epoch: bumped whenever a node goes down or comes back up
    /// (hint replay included), and exactly once when a join or decommission
    /// commits. Any cached read is invalidated by an epoch change because
    /// replica visibility or placement may have shifted. Aborted
    /// transitions do NOT bump it — nothing moved, so no cache entry went
    /// stale.
    pub fn topology_epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Gives each of `partitions` a fresh data version. The versions are
    /// drawn in one `fetch_add` for all of them, and drawn *under* the
    /// versions lock: two writers of one partition then install their
    /// versions in the order they drew them, so the partition's version
    /// never goes back. A known partition's entry is updated in place; only
    /// a new one clones its key.
    fn bump_versions<'a>(
        &self,
        table: &Arc<str>,
        partitions: impl IntoIterator<Item = &'a DecoratedKey, IntoIter: ExactSizeIterator>,
    ) {
        let partitions = partitions.into_iter();
        let mut versions = self.versions.lock();
        let first = self
            .version_counter
            .fetch_add(partitions.len() as u64, Ordering::SeqCst)
            + 1;
        let of_table = versions.entry(Arc::clone(table)).or_default();
        for (partition, v) in partitions.zip(first..) {
            match of_table.get_mut(partition) {
                Some(version) => *version = v,
                None => {
                    of_table.insert(partition.clone(), v);
                }
            }
        }
    }

    /// Does nothing: the coordinator keeps no partition-block cache. Kept
    /// only because the pipeline benchmark names it; ROADMAP item 1(a)
    /// deletes it.
    pub fn set_block_cache_budget(&self, _bytes: usize) {}

    /// Counters of a partition-block cache the coordinator no longer has:
    /// unregistered and always zero. Kept only because the pipeline
    /// benchmark names it; ROADMAP item 1(a) deletes it.
    pub fn block_cache_stats(&self) -> &CacheStats {
        static NONE: LazyLock<CacheStats> = LazyLock::new(CacheStats::default);
        &NONE
    }

    /// Coordinator read-path counters (replica skips, speculative retries,
    /// `read_multi` batches).
    pub fn coordinator_stats(&self) -> &CoordinatorStats {
        &self.coord_stats
    }

    /// Overrides the per-read deadline, in simulated time, after which a
    /// coordinator read also sends a speculative retry to the next replica.
    pub fn set_speculative_timeout(&self, d: Duration) {
        self.speculative_timeout_us
            .store(d.as_micros() as u64, Ordering::SeqCst);
    }

    /// A snapshot of the token ring (placement inspection). The clone decouples callers from topology changes: a
    /// join or decommission swaps the live ring out from under them.
    pub fn ring(&self) -> Ring {
        self.topology.read().ring.clone()
    }

    /// Number of node slots ever created (including retired ones), i.e.
    /// `NodeId`s run `0..node_count()`.
    pub fn node_count(&self) -> usize {
        self.nodes.read().len()
    }

    /// Number of current ring members (excludes retired slots).
    pub fn member_count(&self) -> usize {
        self.topology.read().ring.node_count()
    }

    /// Access to a node.
    pub fn node(&self, id: NodeId) -> Arc<StorageNode> {
        Arc::clone(&self.nodes.read()[id.0])
    }

    /// Registers a table on every node.
    pub fn create_table(&self, schema: TableSchema) -> Result<(), DbError> {
        let mut schemas = self.schemas.write();
        if schemas.contains_key(&*schema.name) {
            return Err(DbError::TableExists(schema.name.to_string()));
        }
        for node in self.nodes.read().iter() {
            node.create_table(&schema.name);
        }
        schemas.insert(Arc::clone(&schema.name), Arc::new(schema));
        Ok(())
    }

    /// Looks up a table schema. The catalog's own copy is handed out: a
    /// lookup clones a pointer, not the column list.
    pub fn schema(&self, table: &str) -> Option<Arc<TableSchema>> {
        self.schemas.read().get(table).cloned()
    }

    /// The schema of a table that must exist: [`DbError::NoSuchTable`]
    /// otherwise.
    fn known_schema(&self, table: &str) -> Result<Arc<TableSchema>, DbError> {
        self.schema(table)
            .ok_or_else(|| DbError::NoSuchTable(table.to_owned()))
    }

    /// Every table's interned name, sorted.
    pub fn table_names(&self) -> Vec<Arc<str>> {
        let mut names: Vec<Arc<str>> = self.schemas.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Hinted handoff: remember the mutations for a node that missed them.
    /// The queue is capped; at capacity the *oldest* hint is dropped (LWW
    /// means newer mutations supersede it anyway) and counted, so a long
    /// outage degrades to read repair instead of growing coordinator
    /// memory without bound.
    fn queue_hints<'a>(&self, id: NodeId, missed: impl IntoIterator<Item = &'a Arc<Mutation>>) {
        let cap = self.hint_cap.load(Ordering::Relaxed) as usize;
        let mut hints = self.hints.lock();
        let queue = hints.entry(id).or_default();
        for m in missed {
            while queue.len() >= cap {
                queue.pop_front();
                self.coord_stats.hints_dropped.incr(1);
            }
            queue.push_back(Arc::clone(m));
        }
    }

    /// Marks a node down (failure injection).
    pub fn take_node_down(&self, id: NodeId) {
        self.node(id).set_up(false);
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// Brings a node back up and replays its hints. A retired node cannot
    /// come back: this is a no-op (no epoch bump, hints left untouched).
    pub fn bring_node_up(&self, id: NodeId) {
        let node = self.node(id);
        if node.is_retired() {
            return;
        }
        node.set_up(true);
        let mut hints = self.hints.lock().remove(&id).unwrap_or_default();
        node.apply_chunk(hints.make_contiguous());
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// Pending hint count for a node (tests).
    pub fn pending_hints(&self, id: NodeId) -> usize {
        self.hints.lock().get(&id).map_or(0, VecDeque::len)
    }

    /// Caps the per-node hinted-handoff queue (default
    /// [`DEFAULT_HINT_CAP`]). At capacity the oldest hints are dropped and
    /// counted in [`CoordinatorStats::hints_dropped`].
    pub fn set_hint_cap(&self, cap: usize) {
        self.hint_cap.store(cap.max(1) as u64, Ordering::Relaxed);
    }

    /// The replica set that owns a partition key of `table`.
    pub fn owners(&self, partition: &Key) -> Vec<NodeId> {
        self.topology
            .read()
            .ring
            .replicas(token_for(partition))
            .to_vec()
    }

    /// Partition keys whose *primary* replica is `node`, in ring order.
    pub fn local_partition_keys(&self, table: &str, node: NodeId) -> Vec<Key> {
        let ring = self.ring();
        self.node(node)
            .local_partition_keys(table)
            .into_iter()
            .filter(|k| ring.primary(k.token()) == node)
            .map(|k| k.key().clone())
            .collect()
    }

    /// Flushes every table on every node (benches, deterministic reads).
    pub fn flush_all(&self) {
        let tables = self.table_names();
        let nodes = self.nodes.read().clone();
        for node in &nodes {
            for t in &tables {
                node.flush(t);
                node.maybe_compact(t);
            }
        }
    }

    /// Zeroes every node's counts: [`Cluster::stats`] reads 0 after.
    pub fn reset_stats(&self) {
        self.nodes.read().iter().for_each(|n| n.reset_stats());
    }

    /// Aggregated stats across nodes.
    pub fn stats(&self) -> StatsSnapshot {
        self.nodes
            .read()
            .iter()
            .fold(StatsSnapshot::default(), |acc, n| acc.add(&n.stats()))
    }

    /// Topology-transition counters (streaming, retries, resumes, aborts).
    pub fn topology_stats(&self) -> &TopologyStats {
        &self.topo_stats
    }

    /// Point-in-time topology summary: epoch, transition state, and every
    /// node slot with its liveness and ring membership.
    pub fn topology_status(&self) -> TopologyStatus {
        let topo = self.topology.read();
        let state = match &topo.transition {
            None => "stable".to_owned(),
            Some(t) => format!("{}ing({})", t.kind.as_str(), t.node.0),
        };
        let members = self
            .nodes
            .read()
            .iter()
            .map(|n| MemberStatus {
                id: n.id,
                up: n.is_up(),
                in_ring: topo.ring.contains(n.id),
            })
            .collect();
        TopologyStatus {
            epoch: self.epoch.load(Ordering::SeqCst),
            replication_factor: topo.ring.replication_factor(),
            state,
            members,
        }
    }
}

/// Convenience: an unbounded clustering range.
pub fn full_range() -> (Bound<Key>, Bound<Key>) {
    (Bound::Unbounded, Bound::Unbounded)
}

#[cfg(test)]
mod tests;
