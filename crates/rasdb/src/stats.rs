//! Counters exposed by nodes, the coordinator, topology changes and cache
//! tiers.
//!
//! Each count is kept once. A [`NodeStats`] keeps its node's counts: the
//! bloom-filter ablation and the replication tests read them per node, and
//! the framework's `metrics` reports their sum over the cluster
//! ([`crate::cluster::Cluster::stats`]) as the `rasdb.storage.*` rows.
//! [`CoordinatorStats`], [`TopologyStats`] and [`CacheStats`] hold
//! instruments of the [`telemetry::Registry`] they were built with,
//! resolved once; their accessors read those same instruments.

use std::sync::Arc;
use telemetry::{Counter, CounterFamily, Gauge, Registry, Span};

/// Per-node operation counters, in no registry: the framework reports
/// their sum over the cluster.
#[derive(Debug, Default)]
pub struct NodeStats {
    /// Mutations applied.
    pub(crate) writes: Counter,
    pub(crate) reads: Counter,
    pub(crate) flushes: Counter,
    pub(crate) compactions: Counter,
    /// SSTables skipped thanks to their bloom filter.
    pub(crate) bloom_skips: Counter,
    /// SSTables actually probed.
    pub(crate) sstable_probes: Counter,
}

impl NodeStats {
    /// Zeroes every count.
    pub fn reset(&self) {
        let all = [&self.writes, &self.reads, &self.flushes, &self.compactions];
        all.into_iter()
            .chain([&self.bloom_skips, &self.sstable_probes])
            .for_each(Counter::reset);
    }

    /// Snapshot of all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            writes: self.writes.get(),
            reads: self.reads.get(),
            flushes: self.flushes.get(),
            compactions: self.compactions.get(),
            bloom_skips: self.bloom_skips.get(),
            sstable_probes: self.sstable_probes.get(),
        }
    }
}

/// Coordinator-side counters: replica skips, retries and hedges, digest
/// reads, `read_multi` batches, rows, hints. Each is a
/// `rasdb.coordinator.*` counter of the cluster's registry, and the
/// coordinator counts into it directly, as it enters its spans.
pub struct CoordinatorStats {
    /// Known-down replicas skipped before dispatch.
    pub(crate) replica_skipped: Arc<Counter>,
    /// Reads sent to the next replica: the deadline passed, or a replica
    /// answered "down" mid-read.
    pub(crate) speculative_retries: Arc<Counter>,
    pub(crate) read_multi_batches: Arc<Counter>,
    pub(crate) read_multi_plans: Arc<Counter>,
    pub(crate) digest_reads: Arc<Counter>,
    /// Digest reads whose replica's merged view was not the data response.
    pub(crate) digest_mismatches: Arc<Counter>,
    /// Hinted-handoff mutations evicted by a full hint queue (the node must
    /// rely on read repair for them).
    pub(crate) hints_dropped: Arc<Counter>,
    /// Hints re-applied to a partition's new owner because their target
    /// was decommissioned (or aborted out of a join).
    pub(crate) hints_rerouted: Arc<Counter>,
    /// Rows through the write path: the `rasdb.coordinator.write`
    /// histogram counts calls, whatever their size.
    pub(crate) write_rows: Arc<Counter>,
    /// Rows one `read` or `read_multi` call returned.
    pub(crate) read_rows: Arc<Counter>,
    pub(crate) read_span: Span,
    pub(crate) read_multi_span: Span,
    pub(crate) write_span: Span,
    /// Profile-level detail of `read_multi`, entered only while profiling.
    pub(crate) plan_span: Span,
    pub(crate) replica_read_span: Span,
    pub(crate) merge_span: Span,
}

impl CoordinatorStats {
    /// Resolves the `rasdb.coordinator.*` counters and spans in `telemetry`.
    pub fn new(telemetry: &Registry) -> CoordinatorStats {
        let c = |event: &str| telemetry.counter(&format!("rasdb.coordinator.{event}"));
        CoordinatorStats {
            replica_skipped: c("replica_skipped"),
            speculative_retries: c("speculative_retries"),
            read_multi_batches: c("read_multi.batches"),
            read_multi_plans: c("read_multi.plans"),
            digest_reads: c("digest_reads"),
            digest_mismatches: c("digest_mismatches"),
            hints_dropped: c("hints_dropped"),
            hints_rerouted: c("hints_rerouted"),
            write_rows: c("write.rows"),
            read_rows: c("read.rows"),
            read_span: telemetry.span("rasdb.coordinator.read"),
            read_multi_span: telemetry.span("rasdb.coordinator.read_multi"),
            write_span: telemetry.span("rasdb.coordinator.write"),
            plan_span: telemetry.span("rasdb.coordinator.plan"),
            replica_read_span: telemetry.span("rasdb.coordinator.replica_read"),
            merge_span: telemetry.span("rasdb.coordinator.merge"),
        }
    }

    /// Down replicas skipped before dispatch.
    pub fn replica_skipped(&self) -> u64 {
        self.replica_skipped.get()
    }

    /// Speculative retries issued.
    pub fn speculative_retries(&self) -> u64 {
        self.speculative_retries.get()
    }

    /// `read_multi` batches executed.
    pub fn read_multi_batches(&self) -> u64 {
        self.read_multi_batches.get()
    }

    /// Total plans fanned out across all batches.
    pub fn read_multi_plans(&self) -> u64 {
        self.read_multi_plans.get()
    }

    /// Replica reads answered with a digest instead of rows.
    pub fn digest_reads(&self) -> u64 {
        self.digest_reads.get()
    }

    /// Digest reads whose replica did not hold the data response: replicas
    /// that really disagree, each a plan sent to the full merge and read
    /// repair.
    pub fn digest_mismatches(&self) -> u64 {
        self.digest_mismatches.get()
    }

    /// Hints evicted by the hint-queue cap.
    pub fn hints_dropped(&self) -> u64 {
        self.hints_dropped.get()
    }

    /// Hints re-applied to new owners during a topology commit.
    pub fn hints_rerouted(&self) -> u64 {
        self.hints_rerouted.get()
    }
}

/// Topology-transition counters and spans: range streaming progress and
/// the fault recovery machinery (retries, resumes, aborts). Each counter is
/// a `rasdb.topology.*` counter of the cluster's registry, so rebalances
/// show up in `metrics` output next to coordinator and storage activity.
pub struct TopologyStats {
    pub(crate) joins: Arc<Counter>,
    pub(crate) decommissions: Arc<Counter>,
    /// Transitions rolled back to the pre-change topology.
    pub(crate) aborts: Arc<Counter>,
    /// Acked stream chunks, and the rows they carried.
    pub(crate) chunks_streamed: Arc<Counter>,
    pub(crate) rows_streamed: Arc<Counter>,
    /// Chunk attempts retried after a drop or checksum mismatch.
    pub(crate) chunk_retries: Arc<Counter>,
    /// Streams resumed from their last acked chunk after a crash.
    pub(crate) stream_resumes: Arc<Counter>,
    /// `rasdb.topology.injected_faults{,.<kind>}`: faults a
    /// [`crate::topology::TopologyFaultPlan`] injected.
    pub(crate) injected_faults: CounterFamily,
    pub(crate) join_span: Span,
    pub(crate) decommission_span: Span,
    pub(crate) stream_span: Span,
}

impl TopologyStats {
    /// Resolves the `rasdb.topology.*` counters and spans in `telemetry`.
    pub fn new(telemetry: &Registry) -> TopologyStats {
        let c = |event: &str| telemetry.counter(&format!("rasdb.topology.{event}"));
        TopologyStats {
            joins: c("joins"),
            decommissions: c("decommissions"),
            aborts: c("aborts"),
            chunks_streamed: c("chunks_streamed"),
            rows_streamed: c("rows_streamed"),
            chunk_retries: c("chunk_retries"),
            stream_resumes: c("stream_resumes"),
            injected_faults: telemetry.family(
                "rasdb.topology.injected_faults",
                &[
                    "chunk_drop",
                    "chunk_corrupt",
                    "slow_chunk",
                    "donor_crash",
                    "joiner_crash",
                ],
            ),
            join_span: telemetry.span("rasdb.topology.join"),
            decommission_span: telemetry.span("rasdb.topology.decommission"),
            stream_span: telemetry.span("rasdb.topology.stream"),
        }
    }

    /// Committed joins.
    pub fn joins(&self) -> u64 {
        self.joins.get()
    }

    /// Committed decommissions.
    pub fn decommissions(&self) -> u64 {
        self.decommissions.get()
    }

    /// Transitions rolled back.
    pub fn aborts(&self) -> u64 {
        self.aborts.get()
    }

    /// Stream chunks acked.
    pub fn chunks_streamed(&self) -> u64 {
        self.chunks_streamed.get()
    }

    /// Rows delivered over range streams.
    pub fn rows_streamed(&self) -> u64 {
        self.rows_streamed.get()
    }

    /// Chunk attempts retried.
    pub fn chunk_retries(&self) -> u64 {
        self.chunk_retries.get()
    }

    /// Streams resumed after crashes.
    pub fn stream_resumes(&self) -> u64 {
        self.stream_resumes.get()
    }
}

/// Hit/miss/evict/invalidate counters for one cache tier: the
/// `cache.<tier>.{hit,miss,evict,invalidate}` counters of a registry, and
/// a `cache.<tier>.hit_ratio_pct` gauge that each hit or miss refreshes so
/// `/metrics` shows cache effectiveness directly. A default `CacheStats`
/// is registered nowhere.
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    /// Entries evicted under byte-budget pressure.
    pub(crate) evictions: Arc<Counter>,
    /// Entries dropped because their stamp (data versions and topology
    /// epoch, see [`crate::cache::Stamp`]) went stale.
    pub(crate) invalidations: Arc<Counter>,
    ratio: Arc<Gauge>,
}

impl CacheStats {
    /// Resolves the counters of a named cache tier (e.g. `"columnar"`,
    /// `"result"`) in `telemetry`.
    pub fn new(tier: &str, telemetry: &Registry) -> CacheStats {
        let c = |event: &str| telemetry.counter(&format!("cache.{tier}.{event}"));
        CacheStats {
            hits: c("hit"),
            misses: c("miss"),
            evictions: c("evict"),
            invalidations: c("invalidate"),
            ratio: telemetry.gauge(&format!("cache.{tier}.hit_ratio_pct")),
        }
    }

    fn refresh_ratio(&self) {
        let hits = self.hits();
        if let Some(pct) = (hits * 100).checked_div(hits + self.misses()) {
            self.ratio.set(pct as i64);
        }
    }

    /// Records a lookup served from cache.
    pub fn record_hit(&self) {
        self.hits.incr(1);
        self.refresh_ratio();
    }

    /// Records a lookup that had to fall through to the backing store.
    pub fn record_miss(&self) {
        self.misses.incr(1);
        self.refresh_ratio();
    }

    /// Lookups served from cache.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Entries evicted by the byte budget.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Entries invalidated by staleness.
    pub fn invalidations(&self) -> u64 {
        self.invalidations.get()
    }
}

/// A point-in-time copy of [`NodeStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Mutations applied.
    pub writes: u64,
    /// Partition reads served.
    pub reads: u64,
    /// Memtable flushes performed.
    pub flushes: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// SSTables skipped by bloom filters.
    pub bloom_skips: u64,
    /// SSTables probed during reads.
    pub sstable_probes: u64,
}

impl StatsSnapshot {
    /// Element-wise sum, for cluster-level aggregation.
    pub fn add(&self, other: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            writes: self.writes + other.writes,
            reads: self.reads + other.reads,
            flushes: self.flushes + other.flushes,
            compactions: self.compactions + other.compactions,
            bloom_skips: self.bloom_skips + other.bloom_skips,
            sstable_probes: self.sstable_probes + other.sstable_probes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = NodeStats::default();
        s.writes.incr(2);
        s.reads.incr(1);
        s.flushes.incr(1);
        let snap = s.snapshot();
        assert_eq!(snap.writes, 2);
        assert_eq!(snap.reads, 1);
        assert_eq!(snap.flushes, 1);
        assert_eq!(snap.compactions, 0);
    }

    #[test]
    fn snapshots_add() {
        let a = StatsSnapshot {
            writes: 1,
            reads: 2,
            ..Default::default()
        };
        let b = StatsSnapshot {
            writes: 10,
            bloom_skips: 5,
            ..Default::default()
        };
        let c = a.add(&b);
        assert_eq!(c.writes, 11);
        assert_eq!(c.reads, 2);
        assert_eq!(c.bloom_skips, 5);
    }
}
