//! The coordinator read path: each plan reads its replicas on a simulated
//! clock (data from one, digests from the rest, hedges past a deadline)
//! and merges and repairs only on a mismatch.

use super::Cluster;
use crate::commitlog::Mutation;
use crate::error::DbError;
use crate::memtable::{merge_runs, Merged, RowEntry, Run};
use crate::node::{Digest, StorageNode};
use crate::partitioner::DecoratedKey;
use crate::query::{clustering_bounds, Consistency, ReadPlan};
use crate::ring::NodeId;
use crate::types::{Key, Row, Value};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// A replica's answer to a plan read: `None` when the replica holds the
/// data response (its digest matched, or it sent the data response), else
/// its merged run.
type Answer = (NodeId, Option<Run>);

/// One coordinator call's account (see [`Cluster::read_multi`]): simulated
/// time in microseconds from the call's start, and what its reads did. Real
/// CPU time never enters it, so CPU work never triggers a hedge.
#[derive(Default)]
pub(super) struct SimTime {
    /// When each node is next free, indexed by `NodeId`; grown only when a
    /// read finishes after time zero.
    node_free: Vec<u64>,
    /// The latest finish the call waits for.
    pub(super) finish: u64,
    /// Reads re-sent because their replica was down at read time.
    retries: u64,
    /// Reads sent past a speculative timeout.
    hedges: u64,
}

impl SimTime {
    /// Queues one read on `node`, dispatched at `at`: it starts when the
    /// node is free and takes the node's latency. Returns its finish.
    pub(super) fn queue(&mut self, node: &StorageNode, at: u64) -> u64 {
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
    pub(super) fn charge(&self) {
        if self.finish > 0 {
            std::thread::sleep(Duration::from_micros(self.finish));
        }
    }
}

impl Cluster {
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
        let schema = self.known_schema(&plan.table)?;
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
            let node = self.node(replicas[*cursor]);
            *cursor += 1;
            if node.is_up() {
                return Some(node);
            }
            self.coord_stats.replica_skipped.incr(1);
        }
        None
    }

    /// Executes a resolved read plan: [`Cluster::read_multi`] of one plan,
    /// without its batch counters and profile spans.
    pub fn read(&self, plan: &ReadPlan, consistency: Consistency) -> Result<Arc<[Row]>, DbError> {
        let _span = self.coord_stats.read_span.enter();
        let mut sim = SimTime::default();
        let rows = self.read_plan(plan, consistency, &mut sim, false)?;
        sim.charge();
        self.coord_stats.read_rows.incr(rows.len() as u64);
        Ok(rows)
    }

    /// Reads plans one after another on the calling thread and returns
    /// their rows in plan order. Simulated replica latency
    /// ([`read_latency_us`](crate::node::NodeConfig::read_latency_us)) is
    /// charged once for the whole call: every plan is dispatched at its
    /// start, each read queues on its node, so reads bound for different
    /// nodes overlap, and the call sleeps once, for its latest plan's finish.
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
        let mut span = self.coord_stats.read_multi_span.enter();
        if plans.is_empty() {
            return Ok(Vec::new());
        }
        self.coord_stats.read_multi_batches.incr(1);
        self.coord_stats.read_multi_plans.incr(plans.len() as u64);
        // Plan, replica and merge sub-spans are profile-level detail:
        // skipped unless a profile is being collected, so the steady-state
        // read path emits exactly one span per call.
        let detail = self.coord_stats.read_multi_span.profiling_active();
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
            .read_rows
            .incr(results.iter().map(|rows| rows.len() as u64).sum());
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
        let plan_span = detail.then(|| self.coord_stats.plan_span.enter());
        let (table, replicas, required) = self.plan_replicas(plan, consistency)?;
        drop(plan_span);
        let (data, answers) = self.gather(plan, &replicas, required, sim, detail)?;
        let _merge_span = detail.then(|| self.coord_stats.merge_span.enter());
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
                    let mut span = self.coord_stats.replica_read_span.enter();
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
                            self.coord_stats.digest_reads.incr(1);
                            match digest {
                                Digest::Matches => None,
                                Digest::Differs(run) => {
                                    self.coord_stats.digest_mismatches.incr(1);
                                    Some(run)
                                }
                            }
                        }),
                };
                drop(span);
                match answer {
                    Some(run) => return Some((sim.queue(&node, at), node.id, run)),
                    None => {
                        self.coord_stats.speculative_retries.incr(1);
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
            self.coord_stats.speculative_retries.incr(1);
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
                if !batch.is_empty() && self.node(*id).apply_batch(&[batch]) {
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
        let schema = self.cluster.known_schema(&self.table)?;
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
