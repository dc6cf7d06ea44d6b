//! Lightweight atomic counters exposed by nodes and the cluster.
//!
//! Each [`NodeStats`] keeps exact per-node counts (used by the bloom-filter
//! ablation and the replication tests), and every increment is mirrored
//! into process-wide `rasdb.storage.*` counters in the global
//! [`telemetry`] registry so storage activity shows up in `metrics` output
//! alongside coordinator latency histograms.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock};
use telemetry::{Counter, Gauge};

/// Registry-backed counters on the read and write hot paths, shared by
/// every node and cluster in the process and resolved once.
struct GlobalCounters {
    coordinator_write_rows: Arc<Counter>,
    coordinator_read_rows: Arc<Counter>,
    digest_reads: Arc<Counter>,
    digest_mismatches: Arc<Counter>,
    writes: Arc<Counter>,
    reads: Arc<Counter>,
    flushes: Arc<Counter>,
    compactions: Arc<Counter>,
    bloom_skips: Arc<Counter>,
    sstable_probes: Arc<Counter>,
}

fn globals() -> &'static GlobalCounters {
    static G: LazyLock<GlobalCounters> = LazyLock::new(|| {
        let r = telemetry::global();
        GlobalCounters {
            coordinator_write_rows: r.counter("rasdb.coordinator.write.rows"),
            coordinator_read_rows: r.counter("rasdb.coordinator.read.rows"),
            digest_reads: r.counter("rasdb.coordinator.digest_reads"),
            digest_mismatches: r.counter("rasdb.coordinator.digest_mismatches"),
            writes: r.counter("rasdb.storage.writes"),
            reads: r.counter("rasdb.storage.reads"),
            flushes: r.counter("rasdb.storage.flushes"),
            compactions: r.counter("rasdb.storage.compactions"),
            bloom_skips: r.counter("rasdb.storage.bloom_skips"),
            sstable_probes: r.counter("rasdb.storage.sstable_probes"),
        }
    });
    &G
}

/// Per-node operation counters. All methods are lock-free; relaxed ordering
/// is fine because the counters are monotonic telemetry, not synchronization.
#[derive(Debug, Default)]
pub struct NodeStats {
    writes: AtomicU64,
    reads: AtomicU64,
    flushes: AtomicU64,
    compactions: AtomicU64,
    bloom_skips: AtomicU64,
    sstable_probes: AtomicU64,
}

impl NodeStats {
    /// Records `n` mutations applied by one write batch.
    pub fn record_writes(&self, n: u64) {
        self.writes.fetch_add(n, Ordering::Relaxed);
        globals().writes.incr(n);
    }

    /// Records a read.
    pub fn record_read(&self) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        globals().reads.incr(1);
    }

    /// Records a memtable flush.
    pub fn record_flush(&self) {
        self.flushes.fetch_add(1, Ordering::Relaxed);
        globals().flushes.incr(1);
    }

    /// Records a compaction.
    pub fn record_compaction(&self) {
        self.compactions.fetch_add(1, Ordering::Relaxed);
        globals().compactions.incr(1);
    }

    /// Records an SSTable skipped thanks to its bloom filter.
    pub fn record_bloom_skip(&self) {
        self.bloom_skips.fetch_add(1, Ordering::Relaxed);
        globals().bloom_skips.incr(1);
    }

    /// Records an SSTable actually probed.
    pub fn record_sstable_probe(&self) {
        self.sstable_probes.fetch_add(1, Ordering::Relaxed);
        globals().sstable_probes.incr(1);
    }

    /// Snapshot of all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            writes: self.writes.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            bloom_skips: self.bloom_skips.load(Ordering::Relaxed),
            sstable_probes: self.sstable_probes.load(Ordering::Relaxed),
        }
    }
}

/// Coordinator-side counters: replica skips, retries and hedges, digest
/// reads, `read_multi` batches, hints. Per-cluster counts are exact; every
/// increment is mirrored into `rasdb.coordinator.*` counters in the global
/// registry.
#[derive(Debug, Default)]
pub struct CoordinatorStats {
    replica_skipped: AtomicU64,
    speculative_retries: AtomicU64,
    read_multi_batches: AtomicU64,
    read_multi_plans: AtomicU64,
    digest_reads: AtomicU64,
    digest_mismatches: AtomicU64,
    hints_dropped: AtomicU64,
    hints_rerouted: AtomicU64,
}

impl CoordinatorStats {
    /// Records a known-down replica skipped before dispatch.
    pub fn record_replica_skipped(&self) {
        self.replica_skipped.fetch_add(1, Ordering::Relaxed);
        telemetry::global()
            .counter("rasdb.coordinator.replica_skipped")
            .incr(1);
    }

    /// Records a speculative retry against the next replica (deadline hit
    /// or a replica answered "down" mid-read).
    pub fn record_speculative_retry(&self) {
        self.speculative_retries.fetch_add(1, Ordering::Relaxed);
        telemetry::global()
            .counter("rasdb.coordinator.speculative_retries")
            .incr(1);
    }

    /// Records a digest read; `differs` when the replica's merged view was
    /// not the data response and the plan took the full merge.
    pub fn record_digest_read(&self, differs: bool) {
        self.digest_reads.fetch_add(1, Ordering::Relaxed);
        globals().digest_reads.incr(1);
        if differs {
            self.digest_mismatches.fetch_add(1, Ordering::Relaxed);
            globals().digest_mismatches.incr(1);
        }
    }

    /// Records one `read_multi` batch of `plans` partition reads.
    pub fn record_read_multi(&self, plans: u64) {
        self.read_multi_batches.fetch_add(1, Ordering::Relaxed);
        self.read_multi_plans.fetch_add(plans, Ordering::Relaxed);
        let r = telemetry::global();
        r.counter("rasdb.coordinator.read_multi.batches").incr(1);
        r.counter("rasdb.coordinator.read_multi.plans").incr(plans);
        r.gauge("rasdb.coordinator.read_multi.fanout")
            .set(plans as i64);
    }

    /// Records the rows of one coordinator write call. The
    /// `rasdb.coordinator.write` histogram counts calls, whatever their
    /// size; with this counter beside it the row rate stays derivable.
    pub fn record_write_rows(&self, rows: u64) {
        globals().coordinator_write_rows.incr(rows);
    }

    /// Records the rows one `read` or `read_multi` call returned: the
    /// read-side twin of [`Self::record_write_rows`].
    pub fn record_read_rows(&self, rows: u64) {
        globals().coordinator_read_rows.incr(rows);
    }

    /// Records a hinted-handoff mutation evicted because the target node's
    /// hint queue hit its cap (the node must rely on read repair for it).
    pub fn record_hint_dropped(&self) {
        self.hints_dropped.fetch_add(1, Ordering::Relaxed);
        telemetry::global()
            .counter("rasdb.coordinator.hints_dropped")
            .incr(1);
    }

    /// Down replicas skipped before dispatch.
    pub fn replica_skipped(&self) -> u64 {
        self.replica_skipped.load(Ordering::Relaxed)
    }

    /// Speculative retries issued.
    pub fn speculative_retries(&self) -> u64 {
        self.speculative_retries.load(Ordering::Relaxed)
    }

    /// `read_multi` batches executed.
    pub fn read_multi_batches(&self) -> u64 {
        self.read_multi_batches.load(Ordering::Relaxed)
    }

    /// Total plans fanned out across all batches.
    pub fn read_multi_plans(&self) -> u64 {
        self.read_multi_plans.load(Ordering::Relaxed)
    }

    /// Replica reads answered with a digest instead of rows.
    pub fn digest_reads(&self) -> u64 {
        self.digest_reads.load(Ordering::Relaxed)
    }

    /// Digest reads whose replica did not hold the data response: replicas
    /// that really disagree, each a plan sent to the full merge and read
    /// repair.
    pub fn digest_mismatches(&self) -> u64 {
        self.digest_mismatches.load(Ordering::Relaxed)
    }

    /// Records a hinted-handoff mutation re-applied to a partition's new
    /// owner because its original target was decommissioned (or aborted
    /// out of a join) — the hint would otherwise wait on a node that will
    /// never come back.
    pub fn record_hint_rerouted(&self) {
        self.hints_rerouted.fetch_add(1, Ordering::Relaxed);
        telemetry::global()
            .counter("rasdb.coordinator.hints_rerouted")
            .incr(1);
    }

    /// Hints evicted by the hint-queue cap.
    pub fn hints_dropped(&self) -> u64 {
        self.hints_dropped.load(Ordering::Relaxed)
    }

    /// Hints re-applied to new owners during a topology commit.
    pub fn hints_rerouted(&self) -> u64 {
        self.hints_rerouted.load(Ordering::Relaxed)
    }
}

/// Topology-transition counters: range streaming progress and the fault
/// recovery machinery (retries, resumes, aborts). Per-cluster counts are
/// exact; every increment is mirrored into `rasdb.topology.*` counters in
/// the global registry so rebalances show up in `metrics` output next to
/// coordinator and storage activity.
#[derive(Debug, Default)]
pub struct TopologyStats {
    joins: AtomicU64,
    decommissions: AtomicU64,
    aborts: AtomicU64,
    chunks_streamed: AtomicU64,
    rows_streamed: AtomicU64,
    chunk_retries: AtomicU64,
    stream_resumes: AtomicU64,
}

impl TopologyStats {
    /// Records a committed join.
    pub fn record_join(&self) {
        self.joins.fetch_add(1, Ordering::Relaxed);
        telemetry::global().counter("rasdb.topology.joins").incr(1);
    }

    /// Records a committed decommission.
    pub fn record_decommission(&self) {
        self.decommissions.fetch_add(1, Ordering::Relaxed);
        telemetry::global()
            .counter("rasdb.topology.decommissions")
            .incr(1);
    }

    /// Records a transition rolled back to the pre-change topology.
    pub fn record_abort(&self) {
        self.aborts.fetch_add(1, Ordering::Relaxed);
        telemetry::global().counter("rasdb.topology.aborts").incr(1);
    }

    /// Records one acked stream chunk carrying `rows` rows.
    pub fn record_chunk(&self, rows: u64) {
        self.chunks_streamed.fetch_add(1, Ordering::Relaxed);
        self.rows_streamed.fetch_add(rows, Ordering::Relaxed);
        let r = telemetry::global();
        r.counter("rasdb.topology.chunks_streamed").incr(1);
        r.counter("rasdb.topology.rows_streamed").incr(rows);
    }

    /// Records a chunk attempt retried after a drop or checksum mismatch.
    pub fn record_chunk_retry(&self) {
        self.chunk_retries.fetch_add(1, Ordering::Relaxed);
        telemetry::global()
            .counter("rasdb.topology.chunk_retries")
            .incr(1);
    }

    /// Records a stream resumed from its last acked chunk after a donor or
    /// receiver crash.
    pub fn record_stream_resume(&self) {
        self.stream_resumes.fetch_add(1, Ordering::Relaxed);
        telemetry::global()
            .counter("rasdb.topology.stream_resumes")
            .incr(1);
    }

    /// Committed joins.
    pub fn joins(&self) -> u64 {
        self.joins.load(Ordering::Relaxed)
    }

    /// Committed decommissions.
    pub fn decommissions(&self) -> u64 {
        self.decommissions.load(Ordering::Relaxed)
    }

    /// Transitions rolled back.
    pub fn aborts(&self) -> u64 {
        self.aborts.load(Ordering::Relaxed)
    }

    /// Stream chunks acked.
    pub fn chunks_streamed(&self) -> u64 {
        self.chunks_streamed.load(Ordering::Relaxed)
    }

    /// Rows delivered over range streams.
    pub fn rows_streamed(&self) -> u64 {
        self.rows_streamed.load(Ordering::Relaxed)
    }

    /// Chunk attempts retried.
    pub fn chunk_retries(&self) -> u64 {
        self.chunk_retries.load(Ordering::Relaxed)
    }

    /// Streams resumed after crashes.
    pub fn stream_resumes(&self) -> u64 {
        self.stream_resumes.load(Ordering::Relaxed)
    }
}

/// Hit/miss/evict/invalidate counters for one cache tier.
///
/// Local counts are exact; every increment is mirrored into
/// `cache.<tier>.{hit,miss,evict,invalidate}` counters in the global
/// registry, and each hit or miss refreshes a `cache.<tier>.hit_ratio_pct`
/// gauge so `/metrics` shows cache effectiveness directly. A default
/// `CacheStats` is registered nowhere.
#[derive(Default)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    hit_counter: Arc<Counter>,
    miss_counter: Arc<Counter>,
    evict_counter: Arc<Counter>,
    invalidate_counter: Arc<Counter>,
    ratio_gauge: Arc<Gauge>,
}

impl CacheStats {
    /// Creates counters for a named cache tier (e.g. `"columnar"`, `"result"`).
    pub fn new(tier: &str) -> CacheStats {
        let r = telemetry::global();
        CacheStats {
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            hit_counter: r.counter(&format!("cache.{tier}.hit")),
            miss_counter: r.counter(&format!("cache.{tier}.miss")),
            evict_counter: r.counter(&format!("cache.{tier}.evict")),
            invalidate_counter: r.counter(&format!("cache.{tier}.invalidate")),
            ratio_gauge: r.gauge(&format!("cache.{tier}.hit_ratio_pct")),
        }
    }

    fn refresh_ratio(&self) {
        let hits = self.hits.load(Ordering::Relaxed);
        let total = hits + self.misses.load(Ordering::Relaxed);
        if let Some(pct) = (hits * 100).checked_div(total) {
            self.ratio_gauge.set(pct as i64);
        }
    }

    /// Records a lookup served from cache.
    pub fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.hit_counter.incr(1);
        self.refresh_ratio();
    }

    /// Records a lookup that had to fall through to the backing store.
    pub fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.miss_counter.incr(1);
        self.refresh_ratio();
    }

    /// Records `n` entries evicted under byte-budget pressure.
    pub fn record_evictions(&self, n: u64) {
        if n == 0 {
            return;
        }
        self.evictions.fetch_add(n, Ordering::Relaxed);
        self.evict_counter.incr(n);
    }

    /// Records `n` entries dropped because their stamp (data versions and
    /// topology epoch, see [`crate::cache::Stamp`]) went stale.
    pub fn record_invalidations(&self, n: u64) {
        if n == 0 {
            return;
        }
        self.invalidations.fetch_add(n, Ordering::Relaxed);
        self.invalidate_counter.incr(n);
    }

    /// Lookups served from cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted by the byte budget.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Entries invalidated by staleness.
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheStats")
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("evictions", &self.evictions())
            .field("invalidations", &self.invalidations())
            .finish()
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
        s.record_writes(2);
        s.record_read();
        s.record_flush();
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
