//! Consumers: group-coordinated, offset-tracking topic readers.

use crate::broker::{Broker, BusError, FaultState, GroupState};
use crate::record::Record;
use crate::topic::Topic;
use parking_lot::RwLock;
use std::sync::Arc;
use telemetry::{Counter, Span};

/// A consumer in a consumer group.
///
/// Partitions of the topic are balanced over the group's live members
/// (round-robin by partition index). Each consumer tracks a private
/// position per assigned partition, starting from the group's committed
/// offset; [`Consumer::commit`] publishes positions back to the group.
/// Membership changes trigger a rebalance on the next poll.
///
/// Commits move the topic's *commit floor*: retention eviction never trims
/// past the lowest committed offset of any group, so an uncommitted record
/// can be delayed (backpressure) but never silently lost.
///
/// ```
/// use logbus::{Broker, Consumer, Producer};
///
/// let broker = Broker::new();
/// broker.create_topic("t", 2).unwrap();
/// let producer = Producer::new(&broker);
/// for i in 0..4 {
///     producer.send("t", None, format!("line {i}")).unwrap();
/// }
///
/// let mut consumer = Consumer::new(&broker, "ingesters", "t").unwrap();
/// let records = consumer.poll(100);
/// assert_eq!(records.len(), 4);
/// // Checkpoint: offsets + the event-time watermark travel together.
/// let positions: Vec<(usize, u64)> = consumer.positions().to_vec();
/// consumer.commit_through(&positions, 1_000).unwrap();
/// assert_eq!(consumer.checkpoint_watermark(), 1_000);
/// ```
pub struct Consumer {
    topic: Arc<Topic>,
    group: Arc<RwLock<GroupState>>,
    faults: Arc<FaultState>,
    /// The broker's `logbus.consumer.records` counter and `poll` span.
    records: Arc<Counter>,
    poll_span: Span,
    member_id: u64,
    seen_generation: u64,
    /// (partition, next offset) pairs for the current assignment.
    positions: Vec<(usize, u64)>,
    next_pick: usize,
}

impl Consumer {
    /// Joins `group` for `topic`.
    pub fn new(broker: &Broker, group: &str, topic: &str) -> Result<Consumer, BusError> {
        let topic = broker.topic(topic)?;
        let group = broker.group(group, &topic.name);
        let member_id;
        {
            let mut g = group.write();
            if g.committed.is_empty() {
                g.committed = vec![0; topic.partitions.len()];
            }
            member_id = g.next_member;
            g.next_member += 1;
            g.members.push(member_id);
            g.generation += 1;
        }
        let mut c = Consumer {
            topic,
            group,
            faults: broker.faults(),
            records: Arc::clone(&broker.consumer_records),
            poll_span: broker.poll_span.clone(),
            member_id,
            seen_generation: 0,
            positions: Vec::new(),
            next_pick: 0,
        };
        c.rebalance();
        Ok(c)
    }

    /// The partitions currently assigned to this consumer.
    pub fn assignment(&self) -> Vec<usize> {
        self.positions.iter().map(|(p, _)| *p).collect()
    }

    /// Current (partition, next-offset) positions for the assignment.
    /// These are *poll* positions, ahead of the committed offsets until
    /// [`Consumer::commit`] (or `commit_through`) publishes them.
    pub fn positions(&self) -> &[(usize, u64)] {
        &self.positions
    }

    fn rebalance(&mut self) {
        let g = self.group.read();
        self.seen_generation = g.generation;
        let my_slot = g.members.iter().position(|m| *m == self.member_id);
        self.positions.clear();
        if let Some(slot) = my_slot {
            for p in 0..self.topic.partitions.len() {
                if p % g.members.len() == slot {
                    self.positions.push((p, g.committed[p]));
                }
            }
        }
        self.next_pick = 0;
    }

    /// Polls up to `max` records across assigned partitions (fair
    /// round-robin over partitions). Returns immediately (possibly empty).
    ///
    /// Under an active [`crate::FaultPlan`] a poll may redeliver a record
    /// (same partition and offset, exactly like a crash-restart replay);
    /// downstream consumers must treat `(partition, offset)` as the
    /// identity of a record, not its array position.
    pub fn poll(&mut self, max: usize) -> Vec<Record> {
        let mut span = self.poll_span.enter();
        if self.group.read().generation != self.seen_generation {
            self.rebalance();
        }
        let mut out = Vec::new();
        if self.positions.is_empty() || max == 0 {
            return out;
        }
        let nparts = self.positions.len();
        let mut exhausted = 0;
        while out.len() < max && exhausted < nparts {
            let idx = self.next_pick % nparts;
            self.next_pick += 1;
            let (partition, offset) = self.positions[idx];
            let budget = max - out.len();
            let cap = self.faults.visibility_cap(&self.topic.name, partition);
            let records = self.topic.partitions[partition].read_until(offset, budget.min(64), cap);
            if records.is_empty() {
                exhausted += 1;
                continue;
            }
            exhausted = 0;
            self.positions[idx].1 = records.last().expect("nonempty").offset + 1;
            if self.faults.duplicate_read() {
                let dup = records.last().expect("nonempty").clone();
                out.extend(records);
                out.push(dup);
            } else {
                out.extend(records);
            }
        }
        span.tag("records", out.len().to_string());
        self.records.incr(out.len() as u64);
        out
    }

    /// Commits current poll positions to the group.
    ///
    /// Fails only under an injected commit fault ([`BusError::CommitFailed`]);
    /// positions are untouched on failure, so callers retry by calling
    /// `commit` again later (records polled past the committed offset are
    /// simply redelivered after a crash — at-least-once).
    pub fn commit(&self) -> Result<(), BusError> {
        let positions = self.positions.clone();
        self.commit_through(&positions, i64::MIN)
    }

    /// Commits explicit `(partition, offset)` pairs plus an event-time
    /// watermark, atomically (one group-state write).
    ///
    /// This is the checkpoint primitive for at-least-once ingestion: an
    /// ingester commits the lowest offset it has *not yet durably stored*
    /// per partition, together with its coalescing watermark. A restarted
    /// member resumes from those offsets and seeds its window watermark
    /// from [`Consumer::checkpoint_watermark`], so replayed records whose
    /// windows were already flushed are suppressed as late instead of
    /// re-written as partial windows.
    ///
    /// Offsets never regress (a commit below the group's committed offset
    /// is a no-op for that partition), and the watermark is monotonic.
    pub fn commit_through(
        &self,
        through: &[(usize, u64)],
        watermark_ms: i64,
    ) -> Result<(), BusError> {
        if self.faults.fail_commit() {
            return Err(BusError::CommitFailed);
        }
        {
            let mut g = self.group.write();
            for (p, offset) in through {
                if *p < g.committed.len() && *offset > g.committed[*p] {
                    g.committed[*p] = *offset;
                }
            }
            if watermark_ms > g.checkpoint_watermark {
                g.checkpoint_watermark = watermark_ms;
            }
        }
        // Group lock released above: floors re-read every group state.
        self.topic.refresh_commit_floors();
        Ok(())
    }

    /// The event-time watermark last checkpointed by this consumer group
    /// (`i64::MIN` before the first checkpoint).
    pub fn checkpoint_watermark(&self) -> i64 {
        self.group.read().checkpoint_watermark
    }

    /// Lag: records available but not yet polled, across the assignment.
    pub fn lag(&self) -> u64 {
        self.positions
            .iter()
            .map(|(p, offset)| {
                self.topic.partitions[*p]
                    .end_offset()
                    .saturating_sub(*offset)
            })
            .sum()
    }
}

impl Drop for Consumer {
    fn drop(&mut self) {
        let mut g = self.group.write();
        g.members.retain(|m| *m != self.member_id);
        g.generation += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::FaultPlan;
    use crate::producer::Producer;

    fn setup(partitions: usize) -> Broker {
        let b = Broker::new();
        b.create_topic("t", partitions).unwrap();
        b
    }

    #[test]
    fn single_consumer_gets_everything_in_partition_order() {
        let b = setup(3);
        let p = Producer::new(&b);
        for i in 0..30 {
            p.send("t", Some(&format!("k{}", i % 5)), format!("m{i}"))
                .unwrap();
        }
        let mut c = Consumer::new(&b, "g", "t").unwrap();
        assert_eq!(c.assignment(), vec![0, 1, 2]);
        let records = c.poll(100);
        assert_eq!(records.len(), 30);
        // Per-partition offsets are in order.
        for part in 0..3 {
            let offs: Vec<u64> = records
                .iter()
                .filter(|r| r.partition == part)
                .map(|r| r.offset)
                .collect();
            assert!(offs.windows(2).all(|w| w[0] < w[1]));
        }
        assert_eq!(c.lag(), 0);
    }

    #[test]
    fn poll_respects_max() {
        let b = setup(2);
        let p = Producer::new(&b);
        for i in 0..50 {
            p.send("t", None, format!("m{i}")).unwrap();
        }
        let mut c = Consumer::new(&b, "g", "t").unwrap();
        let first = c.poll(10);
        assert_eq!(first.len(), 10);
        assert_eq!(c.lag(), 40);
        let rest = c.poll(1000);
        assert_eq!(rest.len(), 40);
        // No duplicates.
        let mut seen = std::collections::HashSet::new();
        for r in first.iter().chain(&rest) {
            assert!(seen.insert((r.partition, r.offset)));
        }
    }

    #[test]
    fn two_members_split_partitions() {
        let b = setup(4);
        let mut c1 = Consumer::new(&b, "g", "t").unwrap();
        let mut c2 = Consumer::new(&b, "g", "t").unwrap();
        let p = Producer::new(&b);
        for i in 0..40 {
            p.send("t", None, format!("m{i}")).unwrap();
        }
        let r1 = c1.poll(100);
        let r2 = c2.poll(100);
        assert_eq!(r1.len() + r2.len(), 40);
        let a1: std::collections::HashSet<usize> = r1.iter().map(|r| r.partition).collect();
        let a2: std::collections::HashSet<usize> = r2.iter().map(|r| r.partition).collect();
        assert!(a1.is_disjoint(&a2));
        assert_eq!(c1.assignment().len() + c2.assignment().len(), 4);
    }

    #[test]
    fn committed_offsets_survive_member_replacement() {
        let b = setup(2);
        let p = Producer::new(&b);
        for i in 0..10 {
            p.send("t", None, format!("m{i}")).unwrap();
        }
        {
            let mut c = Consumer::new(&b, "g", "t").unwrap();
            let got = c.poll(6);
            assert_eq!(got.len(), 6);
            c.commit().unwrap();
        } // drop -> leave group
        let mut c = Consumer::new(&b, "g", "t").unwrap();
        let got = c.poll(100);
        assert_eq!(got.len(), 4, "resumes from committed offsets");
    }

    #[test]
    fn uncommitted_progress_is_lost_on_rejoin() {
        let b = setup(1);
        let p = Producer::new(&b);
        for i in 0..10 {
            p.send("t", None, format!("m{i}")).unwrap();
        }
        {
            let mut c = Consumer::new(&b, "g", "t").unwrap();
            assert_eq!(c.poll(7).len(), 7);
            // no commit
        }
        let mut c = Consumer::new(&b, "g", "t").unwrap();
        assert_eq!(c.poll(100).len(), 10, "replay from offset 0");
    }

    #[test]
    fn rebalance_on_member_join_mid_stream() {
        let b = setup(4);
        let p = Producer::new(&b);
        let mut c1 = Consumer::new(&b, "g", "t").unwrap();
        for i in 0..8 {
            p.send("t", None, format!("m{i}")).unwrap();
        }
        assert_eq!(c1.poll(100).len(), 8);
        c1.commit().unwrap();
        // New member joins: c1 must shrink its assignment on next poll.
        let c2 = Consumer::new(&b, "g", "t").unwrap();
        let _ = c1.poll(1);
        assert_eq!(c1.assignment().len(), 2);
        assert_eq!(c2.assignment().len(), 2);
    }

    #[test]
    fn different_groups_consume_independently() {
        let b = setup(1);
        let p = Producer::new(&b);
        for i in 0..5 {
            p.send("t", None, format!("m{i}")).unwrap();
        }
        let mut g1 = Consumer::new(&b, "alpha", "t").unwrap();
        let mut g2 = Consumer::new(&b, "beta", "t").unwrap();
        assert_eq!(g1.poll(100).len(), 5);
        assert_eq!(g2.poll(100).len(), 5, "fan-out to both groups");
    }

    #[test]
    fn commit_through_checkpoints_offsets_and_watermark() {
        let b = setup(2);
        let p = Producer::new(&b);
        for i in 0..10 {
            p.send("t", None, format!("m{i}")).unwrap();
        }
        {
            let mut c = Consumer::new(&b, "g", "t").unwrap();
            assert_eq!(c.poll(100).len(), 10);
            // Pretend offsets below 3 (p0) / 2 (p1) are durably stored.
            c.commit_through(&[(0, 3), (1, 2)], 7_000).unwrap();
            // Watermark is monotonic: a stale commit can't move it back.
            c.commit_through(&[], 5_000).unwrap();
            assert_eq!(c.checkpoint_watermark(), 7_000);
        }
        let mut c = Consumer::new(&b, "g", "t").unwrap();
        assert_eq!(c.checkpoint_watermark(), 7_000);
        assert_eq!(c.poll(100).len(), 5, "replays only unacked records");
    }

    #[test]
    fn commit_never_regresses_offsets() {
        let b = setup(1);
        let p = Producer::new(&b);
        for i in 0..5 {
            p.send("t", None, format!("m{i}")).unwrap();
        }
        let mut c = Consumer::new(&b, "g", "t").unwrap();
        c.poll(100);
        c.commit_through(&[(0, 4)], 0).unwrap();
        c.commit_through(&[(0, 1)], 0).unwrap();
        assert_eq!(c.group.read().committed[0], 4);
    }

    #[test]
    fn injected_commit_fault_fails_then_recovers() {
        let b = setup(1);
        b.inject_faults(FaultPlan::new().fail_commits(2));
        let p = Producer::new(&b);
        for i in 0..5 {
            p.send("t", None, format!("m{i}")).unwrap();
        }
        let mut c = Consumer::new(&b, "g", "t").unwrap();
        c.poll(100);
        assert_eq!(c.commit(), Err(BusError::CommitFailed));
        assert_eq!(c.commit(), Err(BusError::CommitFailed));
        c.commit().unwrap(); // budget exhausted, commit goes through
        assert_eq!(c.group.read().committed[0], 5);
    }

    #[test]
    fn duplicate_fault_redelivers_same_offset() {
        let b = setup(1);
        b.inject_faults(FaultPlan::new().duplicate_every(1));
        let p = Producer::new(&b);
        for i in 0..3 {
            p.send("t", None, format!("m{i}")).unwrap();
        }
        let mut c = Consumer::new(&b, "g", "t").unwrap();
        let records = c.poll(100);
        assert_eq!(records.len(), 4, "one batch, last record delivered twice");
        assert_eq!(records[2].offset, records[3].offset);
        assert_eq!(records[2].value, records[3].value);
        // Position advanced normally: no further replay.
        assert!(c.poll(100).is_empty());
    }
}
