//! Membership changes: a join or decommission runs one transition
//! lifecycle (install, stream, commit or abort) and moves ranges by
//! checksummed, resumable chunk streaming.

use super::read::SimTime;
use super::{full_range, Cluster, Transition, TOPOLOGY_RETRY_AFTER_MS};
use crate::commitlog::Mutation;
use crate::error::DbError;
use crate::memtable::{merge_all, RowEntry, Run};
use crate::node::StorageNode;
use crate::partitioner::DecoratedKey;
use crate::query::Consistency;
use crate::ring::{NodeId, Ring};
use crate::sstable::{encode_stream_chunk, stream_chunk_checksum};
use crate::topology::{StreamFaults, TopologyFaultPlan, TransitionKind, TransitionReport};
use crate::types::Key;
use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl Cluster {
    /// Overrides the rows-per-chunk granularity of range streaming (default
    /// [`DEFAULT_STREAM_CHUNK_ROWS`](super::DEFAULT_STREAM_CHUNK_ROWS));
    /// smaller chunks mean finer resume points and more fault-plan trigger
    /// opportunities.
    pub fn set_stream_chunk_rows(&self, rows: u64) {
        self.stream_chunk_rows.store(rows.max(1), Ordering::SeqCst);
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
    /// [`hints_dropped`](crate::stats::CoordinatorStats::hints_dropped)).
    pub fn join_node_with(&self, plan: TopologyFaultPlan) -> Result<TransitionReport, DbError> {
        let _span = self.topo_stats.join_span.enter();
        self.transition(TransitionKind::Join, plan, |_| {
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
            let node = self.node(joiner);
            for t in self.table_names() {
                node.create_table(&t);
            }
            Ok(joiner)
        })
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
    /// decommission aborts: the leaver stays a full member with its queued
    /// hints and no epoch is bumped (partially streamed rows on gainers are
    /// harmless — streaming is idempotent LWW state transfer).
    pub fn decommission_node_with(
        &self,
        id: NodeId,
        plan: TopologyFaultPlan,
    ) -> Result<TransitionReport, DbError> {
        let _span = self.topo_stats.decommission_span.enter();
        self.transition(TransitionKind::Decommission, plan, |ring| {
            if !ring.contains(id) {
                return Err(DbError::BadQuery(format!(
                    "node {} is not a ring member",
                    id.0
                )));
            }
            if ring.node_count() <= ring.replication_factor() {
                return Err(DbError::BadQuery(format!(
                    "cannot decommission node {}: membership would fall below the replication factor",
                    id.0
                )));
            }
            Ok(id)
        })
    }

    /// The one lifecycle of a join or decommission. Under the topology
    /// lock, it refuses while another transition is in flight, lets
    /// `admit` check the ring and name the moving node, and installs the
    /// transition: target ring and double-write window become visible
    /// together. It streams holding no lock, then takes the lock again to
    /// commit (hand the moving node's hints on, swap the ring, bump the
    /// epoch once) or to abort (nothing moved, so no epoch bump and no
    /// cache entry goes stale).
    fn transition(
        &self,
        kind: TransitionKind,
        plan: TopologyFaultPlan,
        admit: impl FnOnce(&Ring) -> Result<NodeId, DbError>,
    ) -> Result<TransitionReport, DbError> {
        let (node, old_ring, target_ring) = {
            let mut topo = self.topology.write();
            if topo.transition.is_some() {
                return Err(DbError::TopologyChanging {
                    retry_after_ms: TOPOLOGY_RETRY_AFTER_MS,
                });
            }
            let node = admit(&topo.ring)?;
            let target_ring = match kind {
                TransitionKind::Join => topo.ring.with_member(node),
                TransitionKind::Decommission => topo.ring.without_member(node),
            };
            topo.transition = Some(Transition {
                kind,
                node,
                target_ring: target_ring.clone(),
            });
            (node, topo.ring.clone(), target_ring)
        };

        let faults = StreamFaults::new(plan, self.topo_stats.injected_faults.clone());
        let mut report = TransitionReport {
            kind,
            node,
            partitions_streamed: 0,
            rows_streamed: 0,
            chunks_streamed: 0,
            chunk_retries: 0,
            stream_resumes: 0,
            hints_rerouted: 0,
            epoch: 0,
        };
        let streamed = self.stream_transition(node, &old_ring, &target_ring, &faults, &mut report);
        let mut topo = self.topology.write();
        topo.transition = None;
        if let Err(e) = streamed {
            drop(topo);
            // The half-filled joiner never owned anything: retire it in
            // place (its id is burned) and drop the hints double-writes
            // queued for it. A leaver that stays keeps its hints: they
            // replay when it comes back up.
            if kind == TransitionKind::Join {
                self.node(node).retire();
                let dropped = self.hints.lock().remove(&node).map_or(0, |q| q.len());
                self.coord_stats.hints_dropped.incr(dropped as u64);
            }
            self.topo_stats.aborts.incr(1);
            return Err(e);
        }
        // The moving node's hints are handed on under the lock, so by the
        // time any coordinator sees the new ring the new owners are whole.
        let mut hints = self.hints.lock().remove(&node).unwrap_or_default();
        match kind {
            // Double-writes that missed the joiner while it streamed.
            TransitionKind::Join => {
                self.node(node).apply_chunk(hints.make_contiguous());
            }
            // Re-route the leaver's queued hints to each range's new owner:
            // they would otherwise wait forever on a node that never
            // returns. The hinted data also traveled the stream (it lives
            // on the other old replicas the stream sourced from), so this
            // is convergence acceleration, not the only copy — but it keeps
            // the gainer whole without waiting for read repair.
            TransitionKind::Decommission => {
                for m in &hints {
                    let token = m.partition.token();
                    let old_reps = old_ring.replicas(token);
                    for &g in target_ring.replicas(token) {
                        if !old_reps.contains(&g) && !self.node(g).apply(m) {
                            self.queue_hints(g, [m]);
                        }
                    }
                    self.bump_versions(&m.table, [&m.partition]);
                }
                report.hints_rerouted = hints.len() as u64;
                self.coord_stats.hints_rerouted.incr(report.hints_rerouted);
            }
        }
        topo.ring = target_ring;
        report.epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        drop(topo);
        match kind {
            TransitionKind::Join => self.topo_stats.joins.incr(1),
            // Retire directly (not `take_node_down`): leaving the ring is
            // the epoch-relevant event and it was already counted above.
            TransitionKind::Decommission => {
                self.node(node).retire();
                self.topo_stats.decommissions.incr(1);
            }
        }
        Ok(report)
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
        let _span = self.topo_stats.stream_span.enter();
        for table in self.table_names() {
            // Candidate partitions: the union of what every current member
            // stores. (For a join the transitioning node holds nothing
            // yet; for a decommission it may be down — the union over all
            // members covers every partition either way.)
            let mut candidates: BTreeSet<DecoratedKey> = BTreeSet::new();
            for id in old_ring.members() {
                candidates.extend(self.node(*id).local_partition_keys(&table));
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
                let node = self.node(*id);
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
        let chunk_rows = self.stream_chunk_rows.load(Ordering::SeqCst) as usize;
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
                        self.topo_stats.stream_resumes.incr(1);
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
            self.topo_stats.chunk_retries.incr(1);
        };
        for _ in 0..max_attempts {
            let attempt = faults.next_attempt();
            if faults.donor_crash_due(attempt) {
                // Crash a donor that is not the transitioning node itself;
                // the stream must re-source from the surviving quorum.
                if let Some(victim) = donors
                    .iter()
                    .find(|d| **d != tnode && self.node(**d).is_up())
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
            let gnode = self.node(gainer);
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
            self.topo_stats.chunks_streamed.incr(1);
            self.topo_stats.rows_streamed.incr(rows.len() as u64);
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
