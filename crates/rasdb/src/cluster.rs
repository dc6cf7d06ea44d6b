//! The cluster: a masterless ring of storage nodes plus coordinator logic
//! (replication, consistency levels, hinted handoff, read repair) and live
//! topology changes (join/decommission with fault-tolerant range streaming).

use crate::commitlog::Mutation;
use crate::cql;
use crate::error::DbError;
use crate::memtable::{merge_all, merge_runs, Merged, RowEntry, Run};
use crate::node::{Digest, NodeConfig, StorageNode};
use crate::partitioner::{token_for, DecoratedKey, Token, TokenMap};
use crate::query::{
    clustering_bounds, CmpOp, Consistency, Predicate, ReadPlan, SelectStatement, Statement,
};
use crate::ring::{NodeId, Ring};
use crate::schema::{KeyRole, TableSchema};
use crate::sstable::{encode_stream_chunk, stream_chunk_checksum};
use crate::stats::{CacheStats, CoordinatorStats, StatsSnapshot, TopologyStats};
use crate::topology::{
    MemberStatus, StreamFaults, TopologyFaultPlan, TopologyStatus, TransitionKind, TransitionReport,
};
use crate::types::{Key, Row, Value};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock};
use std::time::Duration;

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

/// A replica's answer to a plan read: `None` when the replica holds the
/// data response (its digest matched, or it sent the data response), else
/// its merged run.
type Answer = (NodeId, Option<Run>);

/// One coordinator call's account (see [`Cluster::read_multi`]): simulated
/// time in microseconds from the call's start, and what its reads did. Real
/// CPU time never enters it, so CPU work never triggers a hedge.
#[derive(Default)]
struct SimTime {
    /// When each node is next free, indexed by `NodeId`; grown only when a
    /// read finishes after time zero.
    node_free: Vec<u64>,
    /// The latest finish the call waits for.
    finish: u64,
    /// Reads re-sent because their replica was down at read time.
    retries: u64,
    /// Reads sent past a speculative timeout.
    hedges: u64,
}

impl SimTime {
    /// Queues one read on `node`, dispatched at `at`: it starts when the
    /// node is free and takes the node's latency. Returns its finish.
    fn queue(&mut self, node: &StorageNode, at: u64) -> u64 {
        let slot = node.id.0;
        let free = self.node_free.get(slot).copied().unwrap_or(0);
        let done = free.max(at) + node.read_latency_us();
        if done > free {
            if self.node_free.len() <= slot {
                self.node_free.resize(slot + 1, 0);
            }
            self.node_free[slot] = done;
        }
        done
    }

    /// Sleeps for the call's simulated time: the one place a coordinator
    /// pays simulated replica latency.
    fn charge(&self) {
        if self.finish > 0 {
            std::thread::sleep(Duration::from_micros(self.finish));
        }
    }
}

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
            coord_stats: CoordinatorStats::default(),
            speculative_timeout_us: AtomicU64::new(DEFAULT_SPECULATIVE_TIMEOUT.as_micros() as u64),
            versions: Mutex::new(HashMap::new()),
            version_counter: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            topo_stats: TopologyStats::default(),
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

    /// Access to a node (tests, stats).
    pub fn node(&self, id: NodeId) -> Arc<StorageNode> {
        self.node_arc(id)
    }

    fn node_arc(&self, id: NodeId) -> Arc<StorageNode> {
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

    /// The interned table names, sorted.
    fn tables(&self) -> Vec<Arc<str>> {
        let mut names: Vec<Arc<str>> = self.schemas.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// All table names.
    pub fn table_names(&self) -> Vec<String> {
        self.tables().iter().map(|t| t.to_string()).collect()
    }

    /// Inserts one row.
    pub fn insert(
        &self,
        table: &str,
        values: Vec<(&str, Value)>,
        consistency: Consistency,
    ) -> Result<(), DbError> {
        self.insert_owned(table, values, consistency)
    }

    /// Inserts one row whose column names are any string type: a batch of
    /// one.
    pub fn insert_owned<N: AsRef<str>>(
        &self,
        table: &str,
        values: Vec<(N, Value)>,
        consistency: Consistency,
    ) -> Result<(), DbError> {
        self.insert_batch(table, vec![values], consistency)
            .map(|_| ())
    }

    /// Inserts a batch of rows, each a list of `(column, value)` pairs, at
    /// one consistency level. Returns the number of rows written.
    ///
    /// The whole batch is validated before anything is written: a
    /// [`DbError::SchemaViolation`] means no replica saw any of its rows.
    /// After that every row is attempted; if some partition gathered fewer
    /// acks than the consistency level requires, the first such
    /// [`DbError::Unavailable`] is returned once the batch is through.
    /// Replicas that missed rows are hinted, and re-sending the batch is
    /// idempotent (last write wins per cell).
    ///
    /// Column names may be any string type; none is stored. Each is resolved
    /// against the schema (once per batch while the rows keep one shape) and
    /// the stored cell points at the schema's interned name.
    pub fn insert_batch<N: AsRef<str>>(
        &self,
        table: &str,
        batch: Vec<Vec<(N, Value)>>,
        consistency: Consistency,
    ) -> Result<usize, DbError> {
        let span = telemetry::span!("rasdb.coordinator.write");
        let schema = self
            .schema(table)
            .ok_or_else(|| DbError::NoSuchTable(table.to_owned()))?;
        let mut binder = schema.binder();
        let mut mutations = batch
            .into_iter()
            .map(|values| {
                let (partition, clustering, cells) = binder.bind(values)?;
                Ok(Mutation {
                    table: Arc::clone(&schema.name),
                    partition,
                    clustering,
                    cells,
                    row_delete: None,
                })
            })
            .collect::<Result<Vec<Mutation>, DbError>>()?;
        // Write timestamps follow arrival order, drawn once the whole batch
        // is known to be valid; only an empty cells slice can be shared yet.
        let rows = mutations.len();
        let first_ts = self.clock.fetch_add(rows as u64, Ordering::Relaxed);
        for (m, ts) in mutations.iter_mut().zip(first_ts..) {
            for (_, cell) in Arc::get_mut(&mut m.cells).into_iter().flatten() {
                cell.write_ts = ts;
            }
        }
        self.write_batch(span, &schema.name, mutations, consistency)?;
        Ok(rows)
    }

    /// Deletes one clustered row.
    pub fn delete(
        &self,
        table: &str,
        partition: Vec<Value>,
        clustering: Vec<Value>,
        consistency: Consistency,
    ) -> Result<(), DbError> {
        let span = telemetry::span!("rasdb.coordinator.write");
        let schema = self
            .schema(table)
            .ok_or_else(|| DbError::NoSuchTable(table.to_owned()))?;
        let ts = self.clock.fetch_add(1, Ordering::Relaxed);
        let m = Mutation::delete(
            Arc::clone(&schema.name),
            DecoratedKey::new(partition.into()),
            clustering.into(),
            ts,
        );
        self.write_batch(span, &schema.name, vec![m], consistency)
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
            while queue.len() >= cap.max(1) {
                queue.pop_front();
                self.coord_stats.record_hint_dropped();
            }
            queue.push_back(Arc::clone(m));
        }
    }

    /// The coordinator write path: every insert and delete, single or
    /// batched, goes through here. `mutations` all target `table` and carry
    /// their write timestamps; `span` is the caller's
    /// `rasdb.coordinator.write` span, opened before validation.
    ///
    /// The batch is grouped by partition and each storage node receives
    /// all of its groups in one [`StorageNode::apply_batch`], inline on the
    /// calling thread. Every group is attempted before any error is
    /// returned.
    fn write_batch(
        &self,
        mut span: telemetry::SpanGuard,
        table: &Arc<str>,
        mutations: Vec<Mutation>,
        consistency: Consistency,
    ) -> Result<(), DbError> {
        // Groups in order of first arrival; rows keep arrival order inside
        // their group. The map hashes each decorated key's token.
        let mut group_of: TokenMap<&DecoratedKey, usize> = TokenMap::default();
        let row_groups: Vec<usize> = mutations
            .iter()
            .map(|m| {
                let next = group_of.len();
                *group_of.entry(&m.partition).or_insert(next)
            })
            .collect();
        let groups = group_of.len();
        drop(group_of);
        // The rows laid out once, group after group, with one counting pass:
        // `ends[g]` is first where group `g` starts, then, once its rows are
        // in place, where it ends.
        let mut ends = vec![0usize; groups];
        for &g in &row_groups {
            ends[g] += 1;
        }
        let mut start = 0;
        for end in &mut ends {
            start += std::mem::replace(end, start);
        }
        let mut slots: Vec<Option<Arc<Mutation>>> = vec![None; row_groups.len()];
        for (m, g) in mutations.into_iter().zip(row_groups) {
            slots[ends[g]] = Some(Arc::new(m));
            ends[g] += 1;
        }
        let rows: Vec<Arc<Mutation>> = slots
            .into_iter()
            .map(|m| m.expect("one row per slot"))
            .collect();
        let group = |g: usize| {
            let start = if g == 0 { 0 } else { ends[g - 1] };
            &rows[start..ends[g]]
        };

        // One topology snapshot yields every group's replicas and gainers,
        // so a transition committing mid-write can never make the
        // coordinator miss both the old and the new owner of a range.
        // Per node: the groups it receives, and whether its ack counts.
        let mut required = Vec::with_capacity(groups);
        let mut per_node: BTreeMap<NodeId, Vec<(usize, bool)>> = BTreeMap::new();
        {
            let topo = self.topology.read();
            for g in 0..groups {
                let token = group(g)[0].partition.token();
                let replicas = topo.ring.replicas(token);
                required.push(consistency.required(replicas.len()));
                // Double-write window: while a transition is in flight,
                // every future owner of the range receives the mutations
                // too, so commit finds nothing missing. These writes never
                // count toward the client's consistency level — the old
                // ring stays authoritative until commit — and a miss
                // (gainer down) is hinted and drained synchronously at
                // commit.
                if let Some(t) = &topo.transition {
                    for id in t.target_ring.replicas(token) {
                        if !replicas.contains(id) {
                            per_node.entry(*id).or_default().push((g, false));
                        }
                    }
                }
                for id in replicas {
                    per_node.entry(*id).or_default().push((g, true));
                }
            }
        }

        let mut acks = vec![0usize; groups];
        for (id, assigned) in &per_node {
            let batch: Vec<&[Arc<Mutation>]> = assigned.iter().map(|&(g, _)| group(g)).collect();
            if self.node_arc(*id).apply_batch(&batch) {
                for &(g, counts) in assigned {
                    acks[g] += usize::from(counts);
                }
            } else {
                self.queue_hints(*id, batch.into_iter().flatten());
            }
        }

        // Bump *after* the replica applies so a concurrent reader that
        // snapshotted the old version cannot cache post-write rows under a
        // still-current tag. Bumped even on the Unavailable path: some
        // replicas may have applied the mutations.
        self.bump_versions(table, (0..groups).map(|g| &group(g)[0].partition));

        self.coord_stats.record_write_rows(rows.len() as u64);
        span.tag("rows", rows.len().to_string());
        span.tag("partitions", groups.to_string());
        span.tag("replica_batches", per_node.len().to_string());

        match acks.iter().zip(&required).find(|(got, need)| got < need) {
            None => Ok(()),
            Some((&received, &required)) => Err(DbError::Unavailable { required, received }),
        }
    }

    /// Marks a node down (failure injection).
    pub fn take_node_down(&self, id: NodeId) {
        self.node_arc(id).set_up(false);
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// Brings a node back up and replays its hints. A retired node cannot
    /// come back: this is a no-op (no epoch bump, hints left untouched).
    pub fn bring_node_up(&self, id: NodeId) {
        let node = self.node_arc(id);
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

    /// Starts a fluent select.
    pub fn select<'c>(&'c self, table: &str) -> SelectBuilder<'c> {
        SelectBuilder {
            cluster: self,
            table: table.to_owned(),
            partition: Vec::new(),
            lower: None,
            upper: None,
            limit: None,
            descending: false,
        }
    }

    /// Validates a plan against the schema and resolves its table's
    /// interned name, its replica set and its quorum size.
    fn plan_replicas(
        &self,
        plan: &ReadPlan,
        consistency: Consistency,
    ) -> Result<(Arc<str>, Vec<NodeId>, usize), DbError> {
        let schema = self
            .schema(&plan.table)
            .ok_or_else(|| DbError::NoSuchTable(plan.table.clone()))?;
        let components = plan.partition.key().0.len();
        if components != schema.partition_key.len() {
            return Err(DbError::BadQuery(format!(
                "partition key for '{}' needs {} components, got {components}",
                plan.table,
                schema.partition_key.len(),
            )));
        }
        // Reads route via the *old* ring for the whole transition window:
        // gainers may still be mid-stream, so only the pre-change replica
        // set is guaranteed complete until commit swaps the ring.
        let replicas = self
            .topology
            .read()
            .ring
            .replicas(plan.partition.token())
            .to_vec();
        let required = consistency.required(replicas.len());
        Ok((Arc::clone(&schema.name), replicas, required))
    }

    /// Advances `cursor` past known-down replicas (counting each skip) and
    /// returns the next replica worth reading.
    fn next_up_replica(&self, replicas: &[NodeId], cursor: &mut usize) -> Option<Arc<StorageNode>> {
        while *cursor < replicas.len() {
            let node = self.node_arc(replicas[*cursor]);
            *cursor += 1;
            if node.is_up() {
                return Some(node);
            }
            self.coord_stats.record_replica_skipped();
        }
        None
    }

    /// Executes a resolved read plan: [`Cluster::read_multi`] of one plan,
    /// without its batch counters and profile spans.
    pub fn read(&self, plan: &ReadPlan, consistency: Consistency) -> Result<Arc<[Row]>, DbError> {
        let _span = telemetry::span!("rasdb.coordinator.read");
        let mut sim = SimTime::default();
        let rows = self.read_plan(plan, consistency, &mut sim, false)?;
        sim.charge();
        self.coord_stats.record_read_rows(rows.len() as u64);
        Ok(rows)
    }

    /// Reads plans one after another on the calling thread and returns
    /// their rows in plan order. Simulated replica latency
    /// ([`NodeConfig::read_latency_us`]) is charged once for the whole call:
    /// every plan is dispatched at its start, each read queues on its node,
    /// so reads bound for different nodes overlap, and the call sleeps once,
    /// for its latest plan's finish.
    ///
    /// Each plan reads its first `required` *up* replicas in ring order. A
    /// replica found down at read time is retried at once on the next one,
    /// and past each speculative timeout without `required` answers (see
    /// [`Cluster::set_speculative_timeout`]) a hedge goes to the next
    /// untried up replica; the plan merges its first `required` answers.
    ///
    /// The first plan that fails validation or falls short of its
    /// consistency level fails the call with its error, as a loop of
    /// [`Cluster::read`] would.
    pub fn read_multi(
        &self,
        plans: &[ReadPlan],
        consistency: Consistency,
    ) -> Result<Vec<Arc<[Row]>>, DbError> {
        let mut span = telemetry::span!("rasdb.coordinator.read_multi");
        if plans.is_empty() {
            return Ok(Vec::new());
        }
        self.coord_stats.record_read_multi(plans.len() as u64);
        // Plan, replica and merge sub-spans are profile-level detail:
        // skipped unless a profile is being collected, so the steady-state
        // read path emits exactly one span per call.
        let detail = telemetry::profiling_active();
        let mut sim = SimTime::default();
        let results = plans
            .iter()
            .map(|plan| self.read_plan(plan, consistency, &mut sim, detail))
            .collect::<Result<Vec<_>, _>>()?;
        sim.charge();
        if detail {
            span.tag("plans", plans.len().to_string());
        }
        // Always tagged when nonzero: a retry or hedge is exactly what a
        // ring reader wants to see; the zero case is noise.
        if detail || sim.retries > 0 {
            span.tag("retries", sim.retries.to_string());
        }
        if detail || sim.hedges > 0 {
            span.tag("hedges", sim.hedges.to_string());
        }
        self.coord_stats
            .record_read_rows(results.iter().map(|rows| rows.len() as u64).sum());
        Ok(results)
    }

    /// One plan's coordinator read, the one read path: the replica gather
    /// on `sim`'s clock and [`Cluster::finish_read`]. `detail` emits the
    /// profile-level spans.
    fn read_plan(
        &self,
        plan: &ReadPlan,
        consistency: Consistency,
        sim: &mut SimTime,
        detail: bool,
    ) -> Result<Arc<[Row]>, DbError> {
        let plan_span = detail.then(|| telemetry::span!("rasdb.coordinator.plan"));
        let (table, replicas, required) = self.plan_replicas(plan, consistency)?;
        drop(plan_span);
        let (data, answers) = self.gather(plan, &replicas, required, sim, detail)?;
        let _merge_span = detail.then(|| telemetry::span!("rasdb.coordinator.merge"));
        Ok(self.finish_read(&table, plan, data, answers))
    }

    /// The replica reads of one plan, on `sim`'s clock. `required` reads go
    /// out at time zero to the first up replicas in ring order; a replica
    /// found down at read time is retried at once on the next. While the
    /// `required`-th earliest answer lands after the next speculative
    /// deadline, one more read goes to the next untried up replica at that
    /// deadline. Makes `sim` wait for the `required`-th answer.
    ///
    /// The first replica read answers with its rows, the data response;
    /// every later one, hedges included, with a digest checked against them
    /// ([`StorageNode::read_digest`]). Returns the data response and the
    /// first `required` answers in finish order (ring order at latency
    /// zero).
    fn gather(
        &self,
        plan: &ReadPlan,
        replicas: &[NodeId],
        required: usize,
        sim: &mut SimTime,
        detail: bool,
    ) -> Result<(Run, Vec<Answer>), DbError> {
        let mut cursor = 0;
        let mut data: Option<Run> = None;
        // Reads the next up replica at `at`; `None` once none is left.
        let mut read_next = |at: u64, mut kind: &'static str, sim: &mut SimTime| {
            while let Some(node) = self.next_up_replica(replicas, &mut cursor) {
                let span = detail.then(|| {
                    let mut span = telemetry::span!("rasdb.coordinator.replica_read");
                    span.tag("node", node.id.0.to_string());
                    span.tag("kind", kind);
                    span.tag("answer", if data.is_some() { "digest" } else { "data" });
                    span
                });
                let (table, partition, range) = (&plan.table, &plan.partition, &plan.range);
                let answer = match &data {
                    None => node.read_raw(table, partition, range).map(|run| {
                        data = Some(run);
                        None
                    }),
                    Some(rows) => node
                        .read_digest(table, partition, range, rows)
                        .map(|digest| {
                            let differs = match digest {
                                Digest::Matches => None,
                                Digest::Differs(run) => Some(run),
                            };
                            self.coord_stats.record_digest_read(differs.is_some());
                            differs
                        }),
                };
                drop(span);
                match answer {
                    Some(run) => return Some((sim.queue(&node, at), node.id, run)),
                    None => {
                        self.coord_stats.record_speculative_retry();
                        sim.retries += 1;
                        kind = "retry";
                    }
                }
            }
            None
        };

        let mut answers: Vec<(u64, NodeId, Option<Run>)> = Vec::with_capacity(required);
        answers.extend((0..required).map_while(|_| read_next(0, "scatter", sim)));
        if answers.len() < required {
            return Err(DbError::Unavailable {
                required,
                received: answers.len(),
            });
        }
        let timeout = self.speculative_timeout_us.load(Ordering::Relaxed);
        let mut deadline = timeout;
        loop {
            // Stable: equal finishes keep dispatch order.
            answers.sort_by_key(|(done, _, _)| *done);
            if answers[required - 1].0 <= deadline {
                break;
            }
            let Some(hedge) = read_next(deadline, "hedge", sim) else {
                break;
            };
            self.coord_stats.record_speculative_retry();
            sim.hedges += 1;
            answers.push(hedge);
            deadline = deadline.saturating_add(timeout);
        }
        sim.finish = sim.finish.max(answers[required - 1].0);
        answers.truncate(required);
        let answers = answers.into_iter().map(|(_, id, run)| (id, run)).collect();
        Ok((data.expect("a read answered with rows"), answers))
    }

    /// Shared tail of every coordinator read: decides the rows and read
    /// repair from what [`Cluster::gather`] returned, filters tombstones and
    /// applies order and limit.
    ///
    /// When every answer is the data response — each digest matched, the
    /// common case — it is the result and nothing is repaired. Otherwise
    /// each answer is a full run (a matching one the data response), and
    /// one slice-wise walk merges each row's copies in answer order; the
    /// merged state is queued for exactly the replicas that were missing it
    /// or held something else, and each replica then receives its repairs
    /// as one batch. A repair changes what lower consistency levels may
    /// observe on the repaired replica, so it bumps the partition version
    /// like any other mutation.
    fn finish_read(
        &self,
        table: &Arc<str>,
        plan: &ReadPlan,
        data: Run,
        answers: Vec<Answer>,
    ) -> Arc<[Row]> {
        let mut rows = Vec::with_capacity(data.len());
        if answers.iter().all(|(_, run)| run.is_none()) {
            rows.extend(data.into_iter().filter_map(|(ck, e)| e.visible(ck)));
        } else {
            let (replicas, runs): (Vec<NodeId>, Vec<Run>) = answers
                .into_iter()
                .map(|(id, run)| (id, run.unwrap_or_else(|| data.clone())))
                .unzip();
            let mut repairs: Vec<Vec<Arc<Mutation>>> = vec![Vec::new(); replicas.len()];
            let mut settle = |ck: Key, copies: &[(usize, RowEntry)]| {
                let merged = copies
                    .iter()
                    .map(|(_, e)| e.clone())
                    .reduce(RowEntry::merge)
                    .expect("merge_runs hands out one copy or more");
                let mut repair = None;
                for (replica, queue) in repairs.iter_mut().enumerate() {
                    let have = copies.iter().find(|(from, _)| *from == replica);
                    if have.is_none_or(|(_, e)| *e != merged) {
                        queue.push(Arc::clone(repair.get_or_insert_with(|| {
                            Arc::new(Mutation::from_entry(table, &plan.partition, &ck, &merged))
                        })));
                    }
                }
                rows.extend(merged.visible(ck));
            };
            merge_runs(runs, |step| match step {
                Merged::Only(from, stretch) => {
                    stretch.for_each(|(ck, entry)| settle(ck, &[(from, entry)]));
                }
                Merged::Shared(ck, copies) => settle(ck, copies),
            });
            let mut repaired = 0;
            for (id, batch) in replicas.iter().zip(&repairs) {
                if !batch.is_empty() && self.node_arc(*id).apply_batch(&[batch]) {
                    repaired += batch.len();
                }
            }
            if repaired > 0 {
                self.bump_versions(table, [&plan.partition]);
            }
        }

        if plan.descending {
            rows.reverse();
        }
        if let Some(limit) = plan.limit {
            rows.truncate(limit);
        }
        rows.into()
    }

    /// Executes a CQL statement.
    pub fn execute(&self, cql_text: &str, consistency: Consistency) -> Result<ExecResult, DbError> {
        let stmt = cql::parse_statement(cql_text)?;
        self.execute_statement(stmt, consistency)
    }

    /// Executes a parsed statement.
    pub fn execute_statement(
        &self,
        stmt: Statement,
        consistency: Consistency,
    ) -> Result<ExecResult, DbError> {
        match stmt {
            Statement::CreateTable(schema) => {
                self.create_table(schema)?;
                Ok(ExecResult::Applied)
            }
            Statement::Insert { table, values } => {
                let schema = self
                    .schema(&table)
                    .ok_or_else(|| DbError::NoSuchTable(table.clone()))?;
                let mut typed = Vec::with_capacity(values.len());
                for (col, lit) in values {
                    let def = schema.column(&col).ok_or_else(|| {
                        DbError::SchemaViolation(format!("unknown column '{col}'"))
                    })?;
                    let v = lit.coerce(def.ctype).ok_or_else(|| {
                        DbError::SchemaViolation(format!(
                            "literal {lit:?} does not fit column '{col}' ({})",
                            def.ctype.cql_name()
                        ))
                    })?;
                    typed.push((col, v));
                }
                self.insert_owned(&table, typed, consistency)?;
                Ok(ExecResult::Applied)
            }
            Statement::Select(sel) => {
                let plan = self.plan_select(&sel)?;
                let mut rows = self.read(&plan, consistency)?.to_vec();
                if let Some(cols) = &sel.columns {
                    let schema = self
                        .schema(&sel.table)
                        .ok_or_else(|| DbError::NoSuchTable(sel.table.clone()))?;
                    for col in cols {
                        if schema.column(col).is_none() {
                            return Err(DbError::BadQuery(format!(
                                "unknown column '{col}' in projection"
                            )));
                        }
                    }
                    for row in &mut rows {
                        row.project(|name| cols.iter().any(|c| **c == *name));
                    }
                }
                Ok(ExecResult::Rows(rows))
            }
            Statement::Delete { table, predicates } => {
                let schema = self
                    .schema(&table)
                    .ok_or_else(|| DbError::NoSuchTable(table.clone()))?;
                let mut pk = Vec::new();
                let mut ck = Vec::new();
                for col in schema.partition_key.iter().chain(&schema.clustering_key) {
                    let p = predicates
                        .iter()
                        .find(|p| *p.column == *col.name && p.op == CmpOp::Eq)
                        .ok_or_else(|| {
                            DbError::BadQuery(format!(
                                "DELETE requires '{}' pinned by equality",
                                col.name
                            ))
                        })?;
                    let v = p.value.coerce(col.ctype).ok_or_else(|| {
                        DbError::SchemaViolation(format!("bad literal for '{}'", col.name))
                    })?;
                    match schema.role_of(&col.name) {
                        Some(KeyRole::Partition) => pk.push(v),
                        _ => ck.push(v),
                    }
                }
                self.delete(&table, pk, ck, consistency)?;
                Ok(ExecResult::Applied)
            }
        }
    }

    /// Turns a parsed `SELECT` into a read plan, enforcing the CQL-style
    /// restrictions: all partition keys pinned by equality; clustering keys
    /// constrained as an equality prefix plus at most one ranged component.
    pub fn plan_select(&self, sel: &SelectStatement) -> Result<ReadPlan, DbError> {
        let schema = self
            .schema(&sel.table)
            .ok_or_else(|| DbError::NoSuchTable(sel.table.clone()))?;

        let mut partition = Vec::with_capacity(schema.partition_key.len());
        for col in &schema.partition_key {
            let p = sel
                .predicates
                .iter()
                .find(|p| *p.column == *col.name)
                .ok_or_else(|| {
                    DbError::BadQuery(format!("partition key '{}' must be constrained", col.name))
                })?;
            if p.op != CmpOp::Eq {
                return Err(DbError::BadQuery(format!(
                    "partition key '{}' only supports '='",
                    col.name
                )));
            }
            partition.push(p.value.coerce(col.ctype).ok_or_else(|| {
                DbError::SchemaViolation(format!("bad literal for '{}'", col.name))
            })?);
        }

        // Clustering: equality prefix, then optionally one ranged column.
        let mut prefix = Vec::new();
        let mut lower = None;
        let mut upper = None;
        let mut ranged = false;
        for col in &schema.clustering_key {
            let preds: Vec<&Predicate> = sel
                .predicates
                .iter()
                .filter(|p| *p.column == *col.name)
                .collect();
            if preds.is_empty() {
                break;
            }
            if ranged {
                return Err(DbError::BadQuery(format!(
                    "clustering column '{}' constrained after a ranged column",
                    col.name
                )));
            }
            if preds.len() == 1 && preds[0].op == CmpOp::Eq {
                prefix.push(preds[0].value.coerce(col.ctype).ok_or_else(|| {
                    DbError::SchemaViolation(format!("bad literal for '{}'", col.name))
                })?);
                continue;
            }
            for p in preds {
                let v = p.value.coerce(col.ctype).ok_or_else(|| {
                    DbError::SchemaViolation(format!("bad literal for '{}'", col.name))
                })?;
                match p.op {
                    CmpOp::Eq => {
                        return Err(DbError::BadQuery(format!(
                            "cannot mix '=' and ranges on '{}'",
                            col.name
                        )))
                    }
                    CmpOp::Gt => lower = Some((v, false)),
                    CmpOp::Ge => lower = Some((v, true)),
                    CmpOp::Lt => upper = Some((v, false)),
                    CmpOp::Le => upper = Some((v, true)),
                }
            }
            ranged = true;
        }

        // Reject predicates on unknown/regular columns (no filtering).
        for p in &sel.predicates {
            match schema.role_of(&p.column) {
                Some(KeyRole::Partition) | Some(KeyRole::Clustering) => {}
                Some(KeyRole::Regular) => {
                    return Err(DbError::BadQuery(format!(
                        "predicate on regular column '{}' unsupported",
                        p.column
                    )))
                }
                None => return Err(DbError::BadQuery(format!("unknown column '{}'", p.column))),
            }
        }

        let range = clustering_bounds(prefix, lower, upper, schema.clustering_key.len());
        Ok(ReadPlan {
            table: sel.table.clone(),
            partition: DecoratedKey::new(partition.into()),
            range,
            limit: sel.limit,
            descending: sel.descending,
        })
    }

    /// The replica set that owns a partition key of `table`.
    pub fn owners(&self, partition: &Key) -> Vec<NodeId> {
        self.topology
            .read()
            .ring
            .replicas(token_for(partition))
            .to_vec()
    }

    /// The token of a partition key.
    pub fn token_of(&self, partition: &Key) -> Token {
        token_for(partition)
    }

    /// Partition keys whose *primary* replica is `node`, in ring order.
    pub fn local_partition_keys(&self, table: &str, node: NodeId) -> Vec<Key> {
        let ring = self.ring();
        self.node_arc(node)
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

    /// Overrides the rows-per-chunk granularity of range streaming
    /// (default [`DEFAULT_STREAM_CHUNK_ROWS`]); smaller chunks mean finer
    /// resume points and more fault-plan trigger opportunities.
    pub fn set_stream_chunk_rows(&self, rows: u64) {
        self.stream_chunk_rows.store(rows.max(1), Ordering::SeqCst);
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

    /// Adds a brand-new node to the ring, streaming its token ranges from
    /// the current owners before it takes ownership. Returns the committed
    /// transition's report. See [`Cluster::join_node_with`] for fault
    /// injection.
    pub fn join_node(&self) -> Result<TransitionReport, DbError> {
        self.join_node_with(TopologyFaultPlan::none())
    }

    /// [`Cluster::join_node`] with a deterministic fault plan injected into
    /// the range stream. On stream exhaustion the join aborts cleanly: the
    /// pre-join ring and epoch are restored exactly, the half-filled joiner
    /// is retired, and its queued hints are dropped (counted in
    /// [`CoordinatorStats::hints_dropped`]).
    pub fn join_node_with(&self, plan: TopologyFaultPlan) -> Result<TransitionReport, DbError> {
        let _span = telemetry::span!("rasdb.topology.join");
        // Install the transition atomically: slot creation, target ring,
        // and the double-write window all become visible together.
        let (joiner, old_ring, target_ring) = {
            let mut topo = self.topology.write();
            if topo.transition.is_some() {
                return Err(DbError::TopologyChanging {
                    retry_after_ms: TOPOLOGY_RETRY_AFTER_MS,
                });
            }
            let joiner = {
                let mut nodes = self.nodes.write();
                let id = NodeId(nodes.len());
                nodes.push(Arc::new(StorageNode::new(id, self.node_cfg)));
                id
            };
            // Register every table on the joiner *after* its slot exists:
            // a concurrent `create_table` either finished earlier (so
            // `table_names` sees it) or iterates the node list after the
            // push (so it covers the joiner itself).
            let node = self.node_arc(joiner);
            for t in self.table_names() {
                node.create_table(&t);
            }
            let target = topo.ring.with_member(joiner);
            topo.transition = Some(Transition {
                kind: TransitionKind::Join,
                node: joiner,
                target_ring: target.clone(),
            });
            (joiner, topo.ring.clone(), target)
        };

        let faults = StreamFaults::new(plan);
        let mut report = TransitionReport {
            kind: TransitionKind::Join,
            node: joiner,
            partitions_streamed: 0,
            rows_streamed: 0,
            chunks_streamed: 0,
            chunk_retries: 0,
            stream_resumes: 0,
            hints_rerouted: 0,
            epoch: 0,
        };
        match self.stream_transition(joiner, &old_ring, &target_ring, &faults, &mut report) {
            Ok(()) => {
                self.commit_join(joiner, target_ring, &mut report);
                Ok(report)
            }
            Err(e) => {
                self.abort_join(joiner);
                Err(e)
            }
        }
    }

    fn commit_join(&self, joiner: NodeId, target_ring: Ring, report: &mut TransitionReport) {
        let node = self.node_arc(joiner);
        let mut topo = self.topology.write();
        // Drain the joiner's hints (double-writes that missed it while it
        // streamed) under the topology lock so the swap is atomic: by the
        // time any coordinator sees the new ring, the new owner is whole.
        let mut hints = self.hints.lock().remove(&joiner).unwrap_or_default();
        node.apply_chunk(hints.make_contiguous());
        topo.ring = target_ring;
        topo.transition = None;
        self.epoch.fetch_add(1, Ordering::SeqCst);
        drop(topo);
        report.epoch = self.topology_epoch();
        self.topo_stats.record_join();
    }

    fn abort_join(&self, joiner: NodeId) {
        {
            let mut topo = self.topology.write();
            topo.transition = None;
        }
        // The half-filled joiner never owned anything: retire it in place
        // (its id is burned) and drop any hints double-writes queued for
        // it. No epoch bump — placement never changed, so no cache entry
        // went stale.
        self.node_arc(joiner).retire();
        let dropped = self.hints.lock().remove(&joiner).map_or(0, |q| q.len());
        for _ in 0..dropped {
            self.coord_stats.record_hint_dropped();
        }
        self.topo_stats.record_abort();
    }

    /// Removes a member from the ring, streaming its ranges to their new
    /// owners first. Works even when the leaver is down (`removenode`
    /// semantics): the remaining replicas donate its data. See
    /// [`Cluster::decommission_node_with`] for fault injection.
    pub fn decommission_node(&self, id: NodeId) -> Result<TransitionReport, DbError> {
        self.decommission_node_with(id, TopologyFaultPlan::none())
    }

    /// [`Cluster::decommission_node`] with a deterministic fault plan
    /// injected into the range stream. On stream exhaustion the
    /// decommission aborts: the leaver stays a full member and no epoch is
    /// bumped (partially streamed rows on gainers are harmless — streaming
    /// is idempotent LWW state transfer).
    pub fn decommission_node_with(
        &self,
        id: NodeId,
        plan: TopologyFaultPlan,
    ) -> Result<TransitionReport, DbError> {
        let _span = telemetry::span!("rasdb.topology.decommission");
        let (old_ring, target_ring) = {
            let mut topo = self.topology.write();
            if topo.transition.is_some() {
                return Err(DbError::TopologyChanging {
                    retry_after_ms: TOPOLOGY_RETRY_AFTER_MS,
                });
            }
            if !topo.ring.contains(id) {
                return Err(DbError::BadQuery(format!(
                    "node {} is not a ring member",
                    id.0
                )));
            }
            if topo.ring.node_count() <= topo.ring.replication_factor() {
                return Err(DbError::BadQuery(format!(
                    "cannot decommission node {}: membership would fall below the replication factor",
                    id.0
                )));
            }
            let target = topo.ring.without_member(id);
            topo.transition = Some(Transition {
                kind: TransitionKind::Decommission,
                node: id,
                target_ring: target.clone(),
            });
            (topo.ring.clone(), target)
        };

        let faults = StreamFaults::new(plan);
        let mut report = TransitionReport {
            kind: TransitionKind::Decommission,
            node: id,
            partitions_streamed: 0,
            rows_streamed: 0,
            chunks_streamed: 0,
            chunk_retries: 0,
            stream_resumes: 0,
            hints_rerouted: 0,
            epoch: 0,
        };
        match self.stream_transition(id, &old_ring, &target_ring, &faults, &mut report) {
            Ok(()) => {
                self.commit_decommission(id, &old_ring, target_ring, &mut report);
                Ok(report)
            }
            Err(e) => {
                {
                    let mut topo = self.topology.write();
                    topo.transition = None;
                }
                self.topo_stats.record_abort();
                Err(e)
            }
        }
    }

    fn commit_decommission(
        &self,
        leaver: NodeId,
        old_ring: &Ring,
        target_ring: Ring,
        report: &mut TransitionReport,
    ) {
        // Re-route the leaver's queued hints to each range's new owner:
        // they would otherwise wait forever on a node that never returns.
        // The hinted data also traveled the stream (it lives on the other
        // old replicas the stream sourced from), so this is convergence
        // acceleration, not the only copy — but it keeps the gainer whole
        // without waiting for read repair.
        let leaver_hints = self.hints.lock().remove(&leaver).unwrap_or_default();
        for m in &leaver_hints {
            let token = m.partition.token();
            let old_reps = old_ring.replicas(token);
            for &g in target_ring.replicas(token) {
                if old_reps.contains(&g) {
                    continue;
                }
                if !self.node_arc(g).apply(m) {
                    self.queue_hints(g, [m]);
                }
            }
            report.hints_rerouted += 1;
            self.coord_stats.record_hint_rerouted();
            self.bump_versions(&m.table, [&m.partition]);
        }
        let mut topo = self.topology.write();
        topo.ring = target_ring;
        topo.transition = None;
        self.epoch.fetch_add(1, Ordering::SeqCst);
        drop(topo);
        // Retire directly (not `take_node_down`): leaving the ring is the
        // epoch-relevant event and it was already counted above.
        self.node_arc(leaver).retire();
        report.epoch = self.topology_epoch();
        self.topo_stats.record_decommission();
    }

    /// Streams every partition that gains an owner under `target_ring`
    /// from its current owners. Holds no cluster locks: coordinators keep
    /// serving reads and (double-)writes throughout.
    fn stream_transition(
        &self,
        tnode: NodeId,
        old_ring: &Ring,
        target_ring: &Ring,
        faults: &StreamFaults,
        report: &mut TransitionReport,
    ) -> Result<(), DbError> {
        let _span = telemetry::span!("rasdb.topology.stream");
        for table in self.tables() {
            // Candidate partitions: the union of what every current member
            // stores. (For a join the transitioning node holds nothing
            // yet; for a decommission it may be down — the union over all
            // members covers every partition either way.)
            let mut candidates: BTreeSet<DecoratedKey> = BTreeSet::new();
            for id in old_ring.members() {
                candidates.extend(self.node_arc(*id).local_partition_keys(&table));
            }
            for pk in candidates {
                let token = pk.token();
                let donors = old_ring.replicas(token);
                let gainers: Vec<NodeId> = target_ring
                    .replicas(token)
                    .iter()
                    .copied()
                    .filter(|n| !donors.contains(n))
                    .collect();
                if gainers.is_empty() {
                    continue;
                }
                let mut streamed_any = false;
                for g in gainers {
                    let rows =
                        self.stream_partition(&table, &pk, donors, g, tnode, faults, report)?;
                    if rows > 0 {
                        streamed_any = true;
                        report.rows_streamed += rows;
                    }
                }
                if streamed_any {
                    report.partitions_streamed += 1;
                }
            }
        }
        Ok(())
    }

    /// Quorum-merged source rows for one partition: reading any quorum of
    /// the old owners is the zero-loss keystone — every row ever acked at
    /// QUORUM lives on at least a quorum of them, and any two quorums
    /// intersect, so the merge can never miss an acked row. A single-donor
    /// stream would NOT have this property.
    fn stream_source_rows(
        &self,
        table: &str,
        pk: &DecoratedKey,
        donors: &[NodeId],
    ) -> Result<Run, DbError> {
        let required = Consistency::Quorum.required(donors.len());
        // The donors are read one after another: each read is dispatched
        // when the one before it finished.
        let mut sim = SimTime::default();
        let runs: Vec<Run> = donors
            .iter()
            .filter_map(|id| {
                let node = self.node_arc(*id);
                let run = node.read_raw(table, pk, &full_range())?;
                sim.finish = sim.queue(&node, sim.finish);
                Some(run)
            })
            .collect();
        sim.charge();
        if runs.len() < required {
            return Err(DbError::Unavailable {
                required,
                received: runs.len(),
            });
        }
        Ok(merge_all(runs))
    }

    /// Streams one partition to one gainer in checksummed chunks, resuming
    /// from the last acked chunk after donor or receiver crashes. Returns
    /// the number of rows delivered.
    #[allow(clippy::too_many_arguments)]
    fn stream_partition(
        &self,
        table: &Arc<str>,
        pk: &DecoratedKey,
        donors: &[NodeId],
        gainer: NodeId,
        tnode: NodeId,
        faults: &StreamFaults,
        report: &mut TransitionReport,
    ) -> Result<u64, DbError> {
        let chunk_rows = self.stream_chunk_rows.load(Ordering::SeqCst).max(1) as usize;
        // Resume cursor: the clustering key of the last acked row. After a
        // crash the source is re-fetched (the surviving quorum may differ)
        // and rows at or below the cursor are skipped — they were acked,
        // and any *new* row landing below the cursor mid-transition is
        // covered by the double-write path, never by the stream.
        let mut last_acked: Option<Key> = None;
        let mut streamed = 0u64;
        'restart: loop {
            let all = self.stream_source_rows(table, pk, donors)?;
            let pending: Vec<(Key, RowEntry)> = match &last_acked {
                None => all,
                Some(b) => all.into_iter().filter(|(ck, _)| ck > b).collect(),
            };
            if pending.is_empty() {
                return Ok(streamed);
            }
            for chunk in pending.chunks(chunk_rows) {
                match self.send_chunk(table, pk, chunk, donors, gainer, tnode, faults, report)? {
                    ChunkOutcome::Acked => {
                        last_acked = Some(chunk.last().expect("non-empty chunk").0.clone());
                        streamed += chunk.len() as u64;
                    }
                    ChunkOutcome::RestartPartition => {
                        report.stream_resumes += 1;
                        self.topo_stats.record_stream_resume();
                        continue 'restart;
                    }
                }
            }
            return Ok(streamed);
        }
    }

    /// One chunk through the fault plan: drop/slow/corrupt injection on
    /// the wire, checksum verification at the receiver, crash triggers on
    /// either side. Retries up to the plan's attempt budget; exhaustion
    /// aborts the whole transition.
    #[allow(clippy::too_many_arguments)]
    fn send_chunk(
        &self,
        table: &Arc<str>,
        pk: &DecoratedKey,
        rows: &[(Key, RowEntry)],
        donors: &[NodeId],
        gainer: NodeId,
        tnode: NodeId,
        faults: &StreamFaults,
        report: &mut TransitionReport,
    ) -> Result<ChunkOutcome, DbError> {
        let max_attempts = faults.plan().effective_attempts();
        let retry = |report: &mut TransitionReport| {
            report.chunk_retries += 1;
            self.topo_stats.record_chunk_retry();
        };
        for _ in 0..max_attempts {
            let attempt = faults.next_attempt();
            if faults.donor_crash_due(attempt) {
                // Crash a donor that is not the transitioning node itself;
                // the stream must re-source from the surviving quorum.
                if let Some(victim) = donors
                    .iter()
                    .find(|d| **d != tnode && self.node_arc(**d).is_up())
                {
                    self.take_node_down(*victim);
                }
                return Ok(ChunkOutcome::RestartPartition);
            }
            if let Some(d) = faults.slow_for(attempt) {
                std::thread::sleep(d);
            }
            if faults.should_drop(attempt) {
                retry(report);
                continue;
            }
            // The chunk travels as canonical bytes with a checksum computed
            // before transmission; the receiver recomputes it over what
            // arrived and NAKs on mismatch.
            let mut encoded = encode_stream_chunk(pk.key(), rows);
            let sent_checksum = stream_chunk_checksum(&encoded);
            if faults.should_corrupt(attempt) {
                let i = encoded.len() / 2;
                encoded[i] ^= 0xff;
            }
            if stream_chunk_checksum(&encoded) != sent_checksum {
                retry(report);
                continue;
            }
            let gnode = self.node_arc(gainer);
            let muts: Vec<Arc<Mutation>> = rows
                .iter()
                .map(|(ck, entry)| Arc::new(Mutation::from_entry(table, pk, ck, entry)))
                .collect();
            if !gnode.apply_batch(&[&muts]) {
                // The receiver is down mid-transfer: bounce it (commit-log
                // recovery preserves every previously acked chunk) and
                // retry this one.
                gnode.restart();
                retry(report);
                continue;
            }
            report.chunks_streamed += 1;
            self.topo_stats.record_chunk(rows.len() as u64);
            if faults.ack_and_check_joiner_crash() {
                // Receiver crash after the ack: restart it and resume the
                // stream from this (acked, commit-logged) chunk boundary.
                gnode.set_up(false);
                gnode.restart();
                return Ok(ChunkOutcome::RestartPartition);
            }
            return Ok(ChunkOutcome::Acked);
        }
        Err(DbError::StreamAborted(format!(
            "chunk for a partition of '{table}' exhausted {max_attempts} attempts"
        )))
    }
}

/// Outcome of one chunk send.
enum ChunkOutcome {
    /// Receiver acked; advance to the next chunk.
    Acked,
    /// A crash interrupted the stream; re-source the partition and resume
    /// past the last acked chunk.
    RestartPartition,
}

/// Fluent `SELECT` builder for programmatic queries.
pub struct SelectBuilder<'c> {
    cluster: &'c Cluster,
    table: String,
    partition: Vec<Value>,
    lower: Option<(Value, bool)>,
    upper: Option<(Value, bool)>,
    limit: Option<usize>,
    descending: bool,
}

impl<'c> SelectBuilder<'c> {
    /// Sets the full partition key.
    pub fn partition(mut self, key: Vec<Value>) -> Self {
        self.partition = key;
        self
    }

    /// Inclusive lower bound on the next clustering component.
    pub fn from_inclusive(mut self, value: Value) -> Self {
        self.lower = Some((value, true));
        self
    }

    /// Exclusive upper bound on the next clustering component.
    pub fn to_exclusive(mut self, value: Value) -> Self {
        self.upper = Some((value, false));
        self
    }

    /// Limits the number of rows returned.
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Returns rows in reverse clustering order.
    pub fn descending(mut self) -> Self {
        self.descending = true;
        self
    }

    /// Runs the read.
    pub fn run(self, consistency: Consistency) -> Result<Arc<[Row]>, DbError> {
        let schema = self
            .cluster
            .schema(&self.table)
            .ok_or_else(|| DbError::NoSuchTable(self.table.clone()))?;
        let range = clustering_bounds(
            Vec::new(),
            self.lower,
            self.upper,
            schema.clustering_key.len(),
        );
        let plan = ReadPlan {
            table: self.table,
            partition: DecoratedKey::new(self.partition.into()),
            range,
            limit: self.limit,
            descending: self.descending,
        };
        self.cluster.read(&plan, consistency)
    }
}

/// Convenience: an unbounded clustering range.
pub fn full_range() -> (Bound<Key>, Bound<Key>) {
    (Bound::Unbounded, Bound::Unbounded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;

    fn events_cluster(nodes: usize, rf: usize) -> Cluster {
        let c = Cluster::new(ClusterConfig {
            nodes,
            replication_factor: rf,
            vnodes: 8,
        });
        c.create_table(
            TableSchema::builder("event_by_time")
                .partition_key("hour", ColumnType::BigInt)
                .partition_key("type", ColumnType::Text)
                .clustering_key("ts", ColumnType::Timestamp)
                .column("source", ColumnType::Text)
                .column("amount", ColumnType::Int)
                .build()
                .unwrap(),
        )
        .unwrap();
        c
    }

    fn put(c: &Cluster, hour: i64, typ: &str, ts: i64, src: &str, cl: Consistency) {
        c.insert(
            "event_by_time",
            vec![
                ("hour", Value::BigInt(hour)),
                ("type", Value::text(typ)),
                ("ts", Value::Timestamp(ts)),
                ("source", Value::text(src)),
                ("amount", Value::Int(1)),
            ],
            cl,
        )
        .unwrap();
    }

    /// A full read of one hour's `MCE` partition.
    fn hour_plan(hour: i64) -> ReadPlan {
        ReadPlan {
            table: "event_by_time".into(),
            partition: DecoratedKey::new(Key::from(vec![Value::BigInt(hour), Value::text("MCE")])),
            range: full_range(),
            limit: None,
            descending: false,
        }
    }

    #[test]
    fn insert_select_roundtrip() {
        let c = events_cluster(4, 3);
        for ts in 0..50 {
            put(&c, 1, "MCE", ts, "c0-0c0s0n0", Consistency::Quorum);
        }
        let rows = c
            .select("event_by_time")
            .partition(vec![Value::BigInt(1), Value::text("MCE")])
            .run(Consistency::Quorum)
            .unwrap();
        assert_eq!(rows.len(), 50);
        // Time-series order.
        assert!(rows.windows(2).all(|w| w[0].clustering < w[1].clustering));
    }

    #[test]
    fn range_limit_descending() {
        let c = events_cluster(4, 3);
        for ts in 0..100 {
            put(&c, 1, "MCE", ts, "n", Consistency::One);
        }
        let rows = c
            .select("event_by_time")
            .partition(vec![Value::BigInt(1), Value::text("MCE")])
            .from_inclusive(Value::Timestamp(10))
            .to_exclusive(Value::Timestamp(20))
            .run(Consistency::One)
            .unwrap();
        assert_eq!(rows.len(), 10);

        let rows = c
            .select("event_by_time")
            .partition(vec![Value::BigInt(1), Value::text("MCE")])
            .descending()
            .limit(3)
            .run(Consistency::One)
            .unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].clustering, Key::from(vec![Value::Timestamp(99)]));
    }

    #[test]
    fn quorum_survives_one_node_down_with_rf3() {
        let c = events_cluster(5, 3);
        put(&c, 7, "MCE", 1, "n", Consistency::All);
        let owners = c.owners(&Key::from(vec![Value::BigInt(7), Value::text("MCE")]));
        c.take_node_down(owners[0]);
        // Quorum still works…
        put(&c, 7, "MCE", 2, "n", Consistency::Quorum);
        let rows = c
            .select("event_by_time")
            .partition(vec![Value::BigInt(7), Value::text("MCE")])
            .run(Consistency::Quorum)
            .unwrap();
        assert_eq!(rows.len(), 2);
        // …but ALL fails.
        let err = c
            .select("event_by_time")
            .partition(vec![Value::BigInt(7), Value::text("MCE")])
            .run(Consistency::All)
            .unwrap_err();
        assert!(matches!(err, DbError::Unavailable { .. }));
    }

    #[test]
    fn write_fails_when_too_many_replicas_down() {
        let c = events_cluster(3, 3);
        let owners = c.owners(&Key::from(vec![Value::BigInt(7), Value::text("MCE")]));
        c.take_node_down(owners[0]);
        c.take_node_down(owners[1]);
        let err = c
            .insert(
                "event_by_time",
                vec![
                    ("hour", Value::BigInt(7)),
                    ("type", Value::text("MCE")),
                    ("ts", Value::Timestamp(1)),
                ],
                Consistency::Quorum,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            DbError::Unavailable {
                required: 2,
                received: 1
            }
        ));
    }

    #[test]
    fn hinted_handoff_catches_up_recovered_node() {
        let c = events_cluster(3, 3);
        let pkey = Key::from(vec![Value::BigInt(7), Value::text("MCE")]);
        let owners = c.owners(&pkey);
        c.take_node_down(owners[2]);
        put(&c, 7, "MCE", 1, "n", Consistency::Quorum);
        put(&c, 7, "MCE", 2, "n", Consistency::Quorum);
        assert_eq!(c.pending_hints(owners[2]), 2);
        c.bring_node_up(owners[2]);
        assert_eq!(c.pending_hints(owners[2]), 0);
        // The recovered node can now serve the data alone.
        for other in &owners[..2] {
            c.take_node_down(*other);
        }
        let rows = c
            .select("event_by_time")
            .partition(vec![Value::BigInt(7), Value::text("MCE")])
            .run(Consistency::One)
            .unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn hint_queue_cap_drops_oldest_and_counts() {
        let c = events_cluster(3, 3);
        c.set_hint_cap(3);
        let pkey = Key::from(vec![Value::BigInt(7), Value::text("MCE")]);
        let owners = c.owners(&pkey);
        c.take_node_down(owners[2]);
        for ts in 1..=5 {
            put(&c, 7, "MCE", ts, "n", Consistency::Quorum);
        }
        assert_eq!(c.pending_hints(owners[2]), 3, "queue capped");
        assert_eq!(c.coordinator_stats().hints_dropped(), 2);
        // Replay delivers the *newest* hints: recovered node alone serves
        // the rows whose hints survived the cap.
        c.bring_node_up(owners[2]);
        for other in &owners[..2] {
            c.take_node_down(*other);
        }
        let rows = c
            .select("event_by_time")
            .partition(vec![Value::BigInt(7), Value::text("MCE")])
            .run(Consistency::One)
            .unwrap();
        assert_eq!(rows.len(), 3, "ts 3..=5 survived, ts 1..=2 dropped");
    }

    #[test]
    fn read_repair_heals_stale_replica() {
        let c = events_cluster(3, 3);
        let pkey = Key::from(vec![Value::BigInt(7), Value::text("MCE")]);
        let owners = c.owners(&pkey);
        // Write while one replica is down (hint stored but not delivered).
        c.take_node_down(owners[2]);
        put(&c, 7, "MCE", 1, "n", Consistency::Quorum);
        // Bring it up WITHOUT hints (simulate hint loss).
        c.node(owners[2]).set_up(true);
        c.hints.lock().clear();
        // A quorum read touches the stale node only if it is among the
        // first `required` responders; read at ALL to force it.
        let rows = c
            .select("event_by_time")
            .partition(vec![Value::BigInt(7), Value::text("MCE")])
            .run(Consistency::All)
            .unwrap();
        assert_eq!(rows.len(), 1);
        // After repair, the once-stale replica can serve alone.
        c.take_node_down(owners[0]);
        c.take_node_down(owners[1]);
        let rows = c
            .select("event_by_time")
            .partition(vec![Value::BigInt(7), Value::text("MCE")])
            .run(Consistency::One)
            .unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn select_requires_full_partition_key() {
        let c = events_cluster(3, 2);
        let err = c
            .select("event_by_time")
            .partition(vec![Value::BigInt(1)])
            .run(Consistency::One)
            .unwrap_err();
        assert!(matches!(err, DbError::BadQuery(_)));
    }

    #[test]
    fn duplicate_create_table_rejected() {
        let c = events_cluster(2, 1);
        let err = c
            .create_table(
                TableSchema::builder("event_by_time")
                    .partition_key("x", ColumnType::Int)
                    .build()
                    .unwrap(),
            )
            .unwrap_err();
        assert!(matches!(err, DbError::TableExists(_)));
    }

    #[test]
    fn lww_across_replicas() {
        let c = events_cluster(4, 3);
        put(&c, 1, "MCE", 5, "first", Consistency::All);
        put(&c, 1, "MCE", 5, "second", Consistency::All);
        let rows = c
            .select("event_by_time")
            .partition(vec![Value::BigInt(1), Value::text("MCE")])
            .run(Consistency::All)
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].cell("source"), Some(&Value::text("second")));
    }

    #[test]
    fn delete_then_read_is_empty() {
        let c = events_cluster(3, 2);
        put(&c, 1, "MCE", 5, "n", Consistency::All);
        c.delete(
            "event_by_time",
            vec![Value::BigInt(1), Value::text("MCE")],
            vec![Value::Timestamp(5)],
            Consistency::All,
        )
        .unwrap();
        let rows = c
            .select("event_by_time")
            .partition(vec![Value::BigInt(1), Value::text("MCE")])
            .run(Consistency::All)
            .unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn cql_projection_filters_cells() {
        let c = events_cluster(3, 2);
        put(&c, 1, "MCE", 5, "nodeA", Consistency::All);
        let out = c
            .execute(
                "SELECT source FROM event_by_time WHERE hour = 1 AND type = 'MCE'",
                Consistency::All,
            )
            .unwrap();
        let ExecResult::Rows(rows) = out else {
            panic!()
        };
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].cells().count(), 1);
        assert_eq!(rows[0].cell("source"), Some(&Value::text("nodeA")));
        assert_eq!(rows[0].cell("amount"), None);
        // Unknown projected column is a clean error.
        let err = c
            .execute(
                "SELECT bogus FROM event_by_time WHERE hour = 1 AND type = 'MCE'",
                Consistency::All,
            )
            .unwrap_err();
        assert!(matches!(err, DbError::BadQuery(_)));
    }

    #[test]
    fn read_multi_matches_sequential_reads() {
        let c = events_cluster(4, 3);
        for hour in 0..24 {
            for ts in 0..20 {
                put(&c, hour, "MCE", ts, "n", Consistency::Quorum);
            }
        }
        let plans: Vec<ReadPlan> = (0..24).map(hour_plan).collect();
        let batched = c.read_multi(&plans, Consistency::Quorum).unwrap();
        assert_eq!(batched.len(), 24);
        for (plan, rows) in plans.iter().zip(&batched) {
            assert_eq!(rows, &c.read(plan, Consistency::Quorum).unwrap());
            assert_eq!(rows.len(), 20);
        }
        assert_eq!(c.coordinator_stats().read_multi_batches(), 1);
        assert_eq!(c.coordinator_stats().read_multi_plans(), 24);
    }

    #[test]
    fn read_multi_empty_batch_is_empty() {
        let c = events_cluster(2, 1);
        assert!(c.read_multi(&[], Consistency::One).unwrap().is_empty());
    }

    #[test]
    fn read_multi_rejects_unknown_table() {
        let c = events_cluster(2, 1);
        let plan = ReadPlan {
            table: "nope".into(),
            partition: DecoratedKey::new(Key::from(vec![Value::BigInt(1)])),
            range: full_range(),
            limit: None,
            descending: false,
        };
        assert!(matches!(
            c.read_multi(&[plan], Consistency::One),
            Err(DbError::NoSuchTable(_))
        ));
    }

    #[test]
    fn read_multi_survives_down_node_and_matches_sequential() {
        let c = events_cluster(5, 3);
        for hour in 0..12 {
            put(&c, hour, "MCE", 1, "n", Consistency::All);
        }
        c.take_node_down(NodeId(0));
        // More writes while the node is down: hints stay pending.
        for hour in 0..12 {
            put(&c, hour, "MCE", 2, "n", Consistency::Quorum);
        }
        let plans: Vec<ReadPlan> = (0..12).map(hour_plan).collect();
        let batched = c.read_multi(&plans, Consistency::Quorum).unwrap();
        for (plan, rows) in plans.iter().zip(&batched) {
            assert_eq!(rows.len(), 2);
            assert_eq!(rows, &c.read(plan, Consistency::Quorum).unwrap());
        }
    }

    #[test]
    fn read_skips_down_replicas_and_counts_them() {
        let c = events_cluster(5, 3);
        let pkey = Key::from(vec![Value::BigInt(7), Value::text("MCE")]);
        put(&c, 7, "MCE", 1, "n", Consistency::All);
        let owners = c.owners(&pkey);
        c.take_node_down(owners[0]);
        let before = c.coordinator_stats().replica_skipped();
        let rows = c
            .select("event_by_time")
            .partition(vec![Value::BigInt(7), Value::text("MCE")])
            .run(Consistency::Quorum)
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(c.coordinator_stats().replica_skipped(), before + 1);
    }

    #[test]
    fn read_multi_hedges_a_slow_replica() {
        let c = events_cluster(4, 3);
        put(&c, 3, "MCE", 1, "n", Consistency::All);
        let plan = hour_plan(3);
        let owners = c.owners(plan.partition.key());
        // The first replica answers at 20 ms, past the 2 ms deadline; at
        // Consistency::One the hedge to the next replica answers at 2 ms.
        c.node(owners[0]).set_read_latency_us(20_000);
        c.set_speculative_timeout(Duration::from_millis(2));
        let started = std::time::Instant::now();
        let rows = c.read_multi(&[plan], Consistency::One).unwrap();
        let took = started.elapsed();
        assert_eq!(rows[0].len(), 1);
        assert_eq!(c.coordinator_stats().speculative_retries(), 1);
        // The call waits for the hedge's finish, not the slow replica's.
        assert!(took >= Duration::from_millis(2), "{took:?}");
        assert!(took < Duration::from_millis(20), "{took:?}");
    }

    #[test]
    fn read_multi_charges_simulated_time_once_per_call() {
        let c = events_cluster(4, 3);
        for hour in 0..8 {
            put(&c, hour, "MCE", 1, "n", Consistency::All);
        }
        for n in 0..c.node_count() {
            c.node(NodeId(n)).set_read_latency_us(2_000);
        }
        // No hedges: each plan reads exactly its quorum.
        c.set_speculative_timeout(Duration::from_secs(60));
        let plans: Vec<ReadPlan> = (0..8).map(hour_plan).collect();
        let started = std::time::Instant::now();
        let batches = c.read_multi(&plans, Consistency::Quorum).unwrap();
        let took = started.elapsed();
        assert!(batches.iter().all(|rows| rows.len() == 1));
        assert_eq!(c.coordinator_stats().speculative_retries(), 0);
        // 16 replica reads of 2 ms each, queued on four nodes: at most
        // eight wait on any one node, so the call takes at least one read
        // and at most 16 ms, never the 32 ms a charge per read would sum to.
        let replica_reads = Duration::from_millis(2) * 16;
        assert!(took >= Duration::from_millis(2), "{took:?}");
        assert!(took < replica_reads, "{took:?}");
    }

    #[test]
    fn local_partition_keys_cover_all_partitions_once() {
        let c = events_cluster(4, 2);
        for hour in 0..24 {
            put(&c, hour, "MCE", 1, "n", Consistency::All);
        }
        let mut seen = std::collections::HashSet::new();
        for n in 0..c.node_count() {
            for k in c.local_partition_keys("event_by_time", NodeId(n)) {
                assert!(seen.insert(k), "primary ownership must be unique");
            }
        }
        assert_eq!(seen.len(), 24);
    }
}
