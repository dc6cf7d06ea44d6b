//! Live topology changes: fault plans, transition bookkeeping, and status.
//!
//! A join or decommission moves token ranges between nodes while the
//! cluster keeps serving traffic. The streaming itself lives in
//! `cluster.rs`; this module holds the deterministic fault-injection plan
//! (mirroring logbus's `FaultPlan` builder), the runtime fault state a
//! single transition threads through its chunk loop, and the report/status
//! types surfaced to callers and the query engine.

use crate::ring::NodeId;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;
use telemetry::CounterFamily;

/// Chunk retry budget when the plan does not override it.
pub const DEFAULT_MAX_CHUNK_ATTEMPTS: u32 = 4;

/// Deterministic faults injected into range streaming. All triggers count
/// chunk-send attempts (1-based); `0` disables a trigger. Plans are
/// sequence-based, not random, so every test run exercises the same
/// recovery path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopologyFaultPlan {
    /// Drop every Nth chunk-send attempt in flight (receiver never sees
    /// it; the sender retries). `0` disables.
    pub drop_chunk_every: u64,
    /// Corrupt every Nth chunk-send attempt (one byte flipped in flight;
    /// the receiver's checksum rejects it and the sender retries). `0`
    /// disables.
    pub corrupt_chunk_every: u64,
    /// Stall every Nth chunk-send attempt by [`slow_chunk`](Self::slow_chunk).
    /// `0` disables.
    pub slow_chunk_every: u64,
    /// Stall duration for slow chunks.
    pub slow_chunk: Duration,
    /// Crash one donor (the first up old-owner) when this chunk-send
    /// attempt number comes up; the stream must re-source from the
    /// remaining quorum. One-shot. `0` disables.
    pub donor_crash_at_chunk: u64,
    /// Crash and immediately restart the receiving node after this many
    /// chunks have been acked; already-acked chunks must survive via its
    /// commit log. One-shot. `0` disables.
    pub joiner_crash_at_chunk: u64,
    /// Per-chunk attempt budget before the transition aborts. `0` means
    /// [`DEFAULT_MAX_CHUNK_ATTEMPTS`].
    pub max_chunk_attempts: u32,
}

impl TopologyFaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> TopologyFaultPlan {
        TopologyFaultPlan::default()
    }

    /// Drops every `n`th chunk-send attempt.
    pub fn drop_chunk_every(mut self, n: u64) -> TopologyFaultPlan {
        self.drop_chunk_every = n;
        self
    }

    /// Corrupts every `n`th chunk-send attempt in flight.
    pub fn corrupt_chunk_every(mut self, n: u64) -> TopologyFaultPlan {
        self.corrupt_chunk_every = n;
        self
    }

    /// Stalls every `n`th chunk-send attempt by `d`.
    pub fn slow_chunk_every(mut self, n: u64, d: Duration) -> TopologyFaultPlan {
        self.slow_chunk_every = n;
        self.slow_chunk = d;
        self
    }

    /// Crashes a donor at chunk-send attempt `n` (one-shot).
    pub fn donor_crash_at(mut self, n: u64) -> TopologyFaultPlan {
        self.donor_crash_at_chunk = n;
        self
    }

    /// Crashes and restarts the receiver after `n` acked chunks (one-shot).
    pub fn joiner_crash_at(mut self, n: u64) -> TopologyFaultPlan {
        self.joiner_crash_at_chunk = n;
        self
    }

    /// Overrides the per-chunk attempt budget.
    pub fn max_chunk_attempts(mut self, n: u32) -> TopologyFaultPlan {
        self.max_chunk_attempts = n;
        self
    }

    /// The attempt budget this plan grants each chunk.
    pub fn effective_attempts(&self) -> u32 {
        if self.max_chunk_attempts == 0 {
            DEFAULT_MAX_CHUNK_ATTEMPTS
        } else {
            self.max_chunk_attempts
        }
    }
}

/// Runtime fault state for one transition. Counts chunk-send attempts and
/// acked chunks across the whole stream so `every_n` triggers fire at the
/// same global positions regardless of how partitions are chunked.
#[derive(Debug, Default)]
pub(crate) struct StreamFaults {
    plan: TopologyFaultPlan,
    /// The cluster's `rasdb.topology.injected_faults` family.
    injected: CounterFamily,
    /// Chunk-send attempts so far (1-based after `next_attempt`).
    attempt_seq: AtomicU64,
    /// Chunks acked so far.
    acked: AtomicU64,
    donor_crashed: AtomicBool,
    joiner_crashed: AtomicBool,
}

impl StreamFaults {
    pub(crate) fn new(plan: TopologyFaultPlan, injected: CounterFamily) -> StreamFaults {
        StreamFaults {
            plan,
            injected,
            ..StreamFaults::default()
        }
    }

    pub(crate) fn plan(&self) -> &TopologyFaultPlan {
        &self.plan
    }

    /// Allocates the next chunk-send attempt number (1-based).
    pub(crate) fn next_attempt(&self) -> u64 {
        self.attempt_seq.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Whether this attempt is dropped in flight.
    pub(crate) fn should_drop(&self, attempt: u64) -> bool {
        let n = self.plan.drop_chunk_every;
        let hit = n > 0 && attempt.is_multiple_of(n);
        if hit {
            self.injected.incr("chunk_drop");
        }
        hit
    }

    /// Whether this attempt is corrupted in flight.
    pub(crate) fn should_corrupt(&self, attempt: u64) -> bool {
        let n = self.plan.corrupt_chunk_every;
        let hit = n > 0 && attempt.is_multiple_of(n);
        if hit {
            self.injected.incr("chunk_corrupt");
        }
        hit
    }

    /// Stall duration for this attempt, if any.
    pub(crate) fn slow_for(&self, attempt: u64) -> Option<Duration> {
        let n = self.plan.slow_chunk_every;
        if n > 0 && attempt.is_multiple_of(n) && !self.plan.slow_chunk.is_zero() {
            self.injected.incr("slow_chunk");
            Some(self.plan.slow_chunk)
        } else {
            None
        }
    }

    /// Whether a donor crash fires on this attempt (one-shot).
    pub(crate) fn donor_crash_due(&self, attempt: u64) -> bool {
        let n = self.plan.donor_crash_at_chunk;
        if n > 0
            && attempt >= n
            && self
                .donor_crashed
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            self.injected.incr("donor_crash");
            return true;
        }
        false
    }

    /// Records an acked chunk; returns true when the receiver crash fires
    /// right after this ack (one-shot).
    pub(crate) fn ack_and_check_joiner_crash(&self) -> bool {
        let acked = self.acked.fetch_add(1, Ordering::SeqCst) + 1;
        let n = self.plan.joiner_crash_at_chunk;
        if n > 0
            && acked >= n
            && self
                .joiner_crashed
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            self.injected.incr("joiner_crash");
            return true;
        }
        false
    }
}

/// Which way a transition moves ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionKind {
    /// A new node streams its ranges in.
    Join,
    /// A leaving node hands its ranges off.
    Decommission,
}

impl TransitionKind {
    /// Stable lowercase name for status strings and telemetry.
    pub fn as_str(&self) -> &'static str {
        match self {
            TransitionKind::Join => "join",
            TransitionKind::Decommission => "decommission",
        }
    }
}

/// Summary of one committed transition, returned by
/// `Cluster::join_node` / `Cluster::decommission_node`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitionReport {
    /// Join or decommission.
    pub kind: TransitionKind,
    /// The node that joined or left.
    pub node: NodeId,
    /// Distinct partitions that moved to at least one new owner.
    pub partitions_streamed: u64,
    /// Rows delivered over the stream (acked chunks only).
    pub rows_streamed: u64,
    /// Chunks acked.
    pub chunks_streamed: u64,
    /// Chunk attempts retried after drops/corruption/down receivers.
    pub chunk_retries: u64,
    /// Times the stream resumed from its last acked chunk after a crash.
    pub stream_resumes: u64,
    /// Hints re-applied to new owners at commit.
    pub hints_rerouted: u64,
    /// Topology epoch after the commit.
    pub epoch: u64,
}

/// One member row in [`TopologyStatus`]. Retired nodes stay listed (down,
/// out of the ring) so ids remain interpretable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberStatus {
    /// Node id.
    pub id: NodeId,
    /// Liveness flag.
    pub up: bool,
    /// Whether the node currently owns ring ranges.
    pub in_ring: bool,
}

/// Point-in-time topology summary for the `topology` engine op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyStatus {
    /// Current topology epoch (cache invalidation tag).
    pub epoch: u64,
    /// Configured replication factor.
    pub replication_factor: usize,
    /// `"stable"`, `"joining(<id>)"`, or `"decommissioning(<id>)"`.
    pub state: String,
    /// Every node slot ever created, in id order.
    pub members: Vec<MemberStatus>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes() {
        let p = TopologyFaultPlan::none()
            .drop_chunk_every(3)
            .corrupt_chunk_every(5)
            .slow_chunk_every(2, Duration::from_millis(1))
            .donor_crash_at(7)
            .joiner_crash_at(4)
            .max_chunk_attempts(9);
        assert_eq!(p.drop_chunk_every, 3);
        assert_eq!(p.corrupt_chunk_every, 5);
        assert_eq!(p.slow_chunk_every, 2);
        assert_eq!(p.donor_crash_at_chunk, 7);
        assert_eq!(p.joiner_crash_at_chunk, 4);
        assert_eq!(p.effective_attempts(), 9);
        assert_eq!(
            TopologyFaultPlan::none().effective_attempts(),
            DEFAULT_MAX_CHUNK_ATTEMPTS
        );
    }

    #[test]
    fn zero_disables_every_trigger() {
        let f = StreamFaults::new(TopologyFaultPlan::none(), Default::default());
        for attempt in 1..=20 {
            assert!(!f.should_drop(attempt));
            assert!(!f.should_corrupt(attempt));
            assert!(f.slow_for(attempt).is_none());
            assert!(!f.donor_crash_due(attempt));
        }
        for _ in 0..20 {
            assert!(!f.ack_and_check_joiner_crash());
        }
    }

    #[test]
    fn periodic_triggers_fire_on_schedule() {
        let f = StreamFaults::new(
            TopologyFaultPlan::none().drop_chunk_every(3),
            Default::default(),
        );
        let fired: Vec<u64> = (1..=9).filter(|a| f.should_drop(*a)).collect();
        assert_eq!(fired, vec![3, 6, 9]);
    }

    #[test]
    fn crash_triggers_are_one_shot() {
        let f = StreamFaults::new(
            TopologyFaultPlan::none()
                .donor_crash_at(2)
                .joiner_crash_at(2),
            Default::default(),
        );
        assert!(!f.donor_crash_due(1));
        assert!(f.donor_crash_due(2));
        assert!(!f.donor_crash_due(3), "donor crash must fire exactly once");
        assert!(!f.ack_and_check_joiner_crash());
        assert!(f.ack_and_check_joiner_crash());
        assert!(
            !f.ack_and_check_joiner_crash(),
            "joiner crash must fire exactly once"
        );
    }

    #[test]
    fn attempt_numbers_are_monotonic() {
        let f = StreamFaults::new(TopologyFaultPlan::none(), Default::default());
        assert_eq!(f.next_attempt(), 1);
        assert_eq!(f.next_attempt(), 2);
        assert_eq!(f.next_attempt(), 3);
    }
}
