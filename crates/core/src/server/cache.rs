//! The analytics result cache: complete engine responses memoized behind
//! the typed query layer.
//!
//! Entries store an op's encoded `data` object — the bytes the response
//! that computed it sent, never the envelope — and a hit's envelope
//! splices them in as they are. Any request producing the same canonical
//! form shares one entry. Each entry carries the `(table, partition)` pairs the answer was computed
//! from, the cluster data version of each at snapshot time, and the
//! topology epoch. Validation is lazy: every hit re-checks those tags, so
//! any write path — batch ETL, direct inserts, streaming, CQL — drops
//! stale entries automatically, exactly like the partition-block cache
//! one tier below (see [`rasdb::cache`]).
//!
//! On top of lazy validation, entries whose window overlaps the *open*
//! hour (extends past the streaming ingest watermark) are tagged
//! [`ResultEntry::open`] and dropped eagerly by [`ResultCache::invalidate_open`]
//! whenever a streaming micro-batch commits: closed windows are immutable
//! and cache indefinitely, open windows live only until the next commit.
//!
//! # Concurrency
//!
//! The cache is built for the thread-pool HTTP frontend: many workers
//! probing concurrently. Two decisions keep the lock out of profiles under
//! that load (the single-mutex version was the top contention point the
//! `loadgen` bench exposed):
//!
//! * the key space is split across [`SHARDS`] independently locked LRUs
//!   (shard chosen by a hash of the canonical key), so concurrent probes
//!   for different panels don't serialize, and
//! * entry data is stored behind an [`Arc`], so a hit clones a pointer
//!   inside the lock and copies the bytes into its response outside it.
//!
//! Eviction is LRU *per shard* under a per-shard slice of the byte
//! budget; with a canonical-key hash the shards stay balanced and the
//! aggregate behavior matches a global LRU closely enough for budgeting.

use rasdb::cache::LruCache;
use rasdb::cluster::Cluster;
use rasdb::stats::CacheStats;
use rasdb::DecoratedKey;
use std::sync::{Arc, Mutex};

/// Default byte budget for the analytics result cache.
pub const DEFAULT_RESULT_CACHE_BYTES: usize = 8 << 20;

/// Number of independently locked LRU shards.
pub const SHARDS: usize = 16;

/// One memoized engine response with its validity tags.
#[derive(Debug, Clone)]
pub struct ResultEntry {
    /// The op's encoded `data` object, exactly as the uncached op sent it.
    /// Shared so hits clone a pointer, not the payload.
    pub data: Arc<str>,
    /// `(table, partition)` pairs the answer was computed from, decorated:
    /// a hit checks each version without hashing its key.
    pub deps: Vec<(String, DecoratedKey)>,
    /// [`Cluster::data_version`] of each dep, snapshotted *before* the
    /// compute read any replica.
    pub versions: Vec<u64>,
    /// [`Cluster::topology_epoch`] at snapshot time.
    pub epoch: u64,
    /// Whether the query window extends past the ingest watermark: open
    /// entries are dropped on every streaming commit.
    pub open: bool,
}

/// Approximate footprint of an entry, for byte budgeting: the encoded
/// data's length plus dep tags (each key weighed at its encoded length,
/// computed, not encoded) and a fixed overhead. Exactness does not matter,
/// monotonicity in data size does.
fn footprint(key_len: usize, e: &ResultEntry) -> usize {
    let deps: usize = e
        .deps
        .iter()
        .map(|(t, p)| t.len() + p.key().encoded_len() + 8)
        .sum();
    key_len + e.data.len() + deps + 64
}

/// FNV-1a over the canonical key; cheap, stable, and well-spread for the
/// short `op\x1f...` keys the engine builds.
fn shard_of(key: &[u8]) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % SHARDS as u64) as usize
}

/// Per-shard slice of a byte budget. Rounds up so any nonzero budget keeps
/// every shard enabled; zero disables all of them.
fn shard_budget(budget_bytes: usize) -> usize {
    if budget_bytes == 0 {
        0
    } else {
        budget_bytes.div_ceil(SHARDS)
    }
}

/// A byte-budgeted, sharded LRU over complete analytics responses, keyed
/// by the canonical form of the typed
/// [`QueryRequest`](crate::server::QueryRequest).
#[derive(Debug)]
pub struct ResultCache {
    shards: Vec<Mutex<LruCache<ResultEntry>>>,
    stats: CacheStats,
}

impl ResultCache {
    /// Creates a cache bounded by `budget_bytes` (0 disables it).
    pub fn new(budget_bytes: usize) -> ResultCache {
        let per_shard = shard_budget(budget_bytes);
        ResultCache {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(LruCache::new(per_shard)))
                .collect(),
            stats: CacheStats::new("result"),
        }
    }

    /// Replaces the byte budget; shrinking evicts, zero clears and
    /// disables.
    pub fn set_budget(&self, bytes: usize) {
        let per_shard = shard_budget(bytes);
        for shard in &self.shards {
            let evicted = lock(shard).set_budget(per_shard);
            self.stats.record_evictions(evicted);
        }
    }

    /// Hit/miss/evict/invalidate counters (`cache.result.*` in the global
    /// telemetry registry).
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Live entries across every shard.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| lock(s).is_empty())
    }

    /// Looks up a canonical key, lazily validating the entry against the
    /// cluster's current data versions and topology epoch. A stale entry
    /// is removed and reported as an invalidation + miss. A hit returns a
    /// shared handle to the encoded data.
    pub fn lookup(&self, cluster: &Cluster, key: &[u8]) -> Option<Arc<str>> {
        let mut inner = lock(&self.shards[shard_of(key)]);
        if inner.budget() == 0 {
            return None;
        }
        let Some(entry) = inner.get(key) else {
            self.stats.record_miss();
            return None;
        };
        let valid = entry.epoch == cluster.topology_epoch()
            && entry
                .deps
                .iter()
                .zip(&entry.versions)
                .all(|((t, p), v)| cluster.data_version(t, p) == *v);
        if valid {
            let data = Arc::clone(&entry.data);
            self.stats.record_hit();
            Some(data)
        } else {
            inner.remove(key);
            self.stats.record_invalidations(1);
            self.stats.record_miss();
            None
        }
    }

    /// Stores a computed response under its canonical key.
    pub fn store(&self, key: Vec<u8>, entry: ResultEntry) {
        let mut inner = lock(&self.shards[shard_of(&key)]);
        if inner.budget() == 0 {
            return;
        }
        let bytes = footprint(key.len(), &entry);
        let evicted = inner.insert(key, entry, bytes);
        self.stats.record_evictions(evicted);
    }

    /// Drops every open-window (watermark-tagged) entry. Streaming
    /// ingestion calls this on each micro-batch commit.
    pub fn invalidate_open(&self) {
        let mut removed = 0;
        for shard in &self.shards {
            removed += lock(shard).retain(|_, e| !e.open);
        }
        self.stats.record_invalidations(removed);
    }
}

fn lock(shard: &Mutex<LruCache<ResultEntry>>) -> std::sync::MutexGuard<'_, LruCache<ResultEntry>> {
    shard.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasdb::cluster::ClusterConfig;
    use rasdb::query::Consistency;
    use rasdb::schema::{ColumnType, TableSchema};
    use rasdb::types::{Key, Value};

    fn cluster() -> Cluster {
        let c = Cluster::new(ClusterConfig {
            nodes: 2,
            replication_factor: 1,
            vnodes: 4,
        });
        c.create_table(
            TableSchema::builder("t")
                .partition_key("pk", ColumnType::BigInt)
                .clustering_key("ck", ColumnType::BigInt)
                .column("v", ColumnType::Int)
                .build()
                .unwrap(),
        )
        .unwrap();
        c
    }

    fn entry(cluster: &Cluster, open: bool) -> ResultEntry {
        let dep = (
            "t".to_owned(),
            DecoratedKey::new(Key::from(vec![Value::BigInt(1)])),
        );
        ResultEntry {
            data: Arc::from(r#"{"total":42}"#),
            versions: vec![cluster.data_version(&dep.0, &dep.1)],
            deps: vec![dep],
            epoch: cluster.topology_epoch(),
            open,
        }
    }

    fn write(cluster: &Cluster, pk: i64) {
        cluster
            .insert(
                "t",
                vec![
                    ("pk", Value::BigInt(pk)),
                    ("ck", Value::BigInt(0)),
                    ("v", Value::Int(1)),
                ],
                Consistency::One,
            )
            .unwrap();
    }

    #[test]
    fn hit_then_write_invalidates() {
        let c = cluster();
        let cache = ResultCache::new(1 << 20);
        cache.store(b"k".to_vec(), entry(&c, false));
        assert_eq!(
            cache.lookup(&c, b"k").as_deref(),
            Some(r#"{"total":42}"#),
            "valid entry hits"
        );
        assert_eq!(cache.stats().hits(), 1);
        // A write to the dep partition makes the tag stale.
        write(&c, 1);
        assert!(cache.lookup(&c, b"k").is_none());
        assert_eq!(cache.stats().invalidations(), 1);
        assert_eq!(cache.stats().misses(), 1);
        // A write elsewhere leaves a fresh entry valid.
        cache.store(b"k".to_vec(), entry(&c, false));
        write(&c, 2);
        assert!(cache.lookup(&c, b"k").is_some());
    }

    #[test]
    fn invalidate_open_drops_only_watermark_tagged_entries() {
        let c = cluster();
        let cache = ResultCache::new(1 << 20);
        cache.store(b"closed".to_vec(), entry(&c, false));
        cache.store(b"open".to_vec(), entry(&c, true));
        cache.invalidate_open();
        assert_eq!(cache.stats().invalidations(), 1);
        assert!(cache.lookup(&c, b"open").is_none());
        assert!(cache.lookup(&c, b"closed").is_some());
    }

    #[test]
    fn zero_budget_disables_without_stats_noise() {
        let c = cluster();
        let cache = ResultCache::new(0);
        cache.store(b"k".to_vec(), entry(&c, false));
        assert!(cache.lookup(&c, b"k").is_none());
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits() + cache.stats().misses(), 0);
    }

    #[test]
    fn entries_spread_across_shards_and_len_sums_them() {
        let c = cluster();
        let cache = ResultCache::new(1 << 20);
        let mut shards_seen = std::collections::BTreeSet::new();
        for i in 0..64 {
            let key = format!("heatmap\x1fMCE\x1f{i}").into_bytes();
            shards_seen.insert(shard_of(&key));
            cache.store(key, entry(&c, false));
        }
        assert_eq!(cache.len(), 64);
        assert!(
            shards_seen.len() > SHARDS / 2,
            "canonical keys should spread over most shards, hit {shards_seen:?}"
        );
        // Concurrent probes from many threads agree with the stored data.
        let cache = Arc::new(cache);
        let c = Arc::new(c);
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..64 {
                        let key = format!("heatmap\x1fMCE\x1f{}", (i + t * 7) % 64).into_bytes();
                        let data = cache.lookup(&c, &key).expect("entry present");
                        assert_eq!(&*data, r#"{"total":42}"#);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
