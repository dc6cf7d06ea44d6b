//! The analytics result cache: complete engine responses memoized behind
//! the typed query layer.
//!
//! Entries store an op's encoded `data` object — the bytes the response
//! that computed it sent, never the envelope — and a hit's envelope
//! splices them in as they are. Any request producing the same canonical
//! form shares one entry. Each entry is stamped with the `(table,
//! partition)` pairs the answer was computed from and the topology epoch
//! ([`rasdb::cache::Stamp`]), and every lookup re-checks the stamp, so any
//! write path — batch ETL, direct inserts, streaming, CQL — makes an entry
//! stale the moment it touches a dependency. The open hour needs nothing
//! more: it is a partition whose version keeps moving.
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

use rasdb::cache::{Stamp, Validated};
use rasdb::cluster::Cluster;
use rasdb::stats::CacheStats;
use std::sync::Arc;
use telemetry::Registry;

/// Default byte budget for the analytics result cache.
pub const DEFAULT_RESULT_CACHE_BYTES: usize = 8 << 20;

/// Number of independently locked LRU shards.
pub const SHARDS: usize = 16;

/// A byte-budgeted, sharded LRU over complete analytics responses, keyed
/// by the canonical form of the typed
/// [`QueryRequest`](crate::server::QueryRequest).
pub struct ResultCache(Validated<Arc<str>>);

impl ResultCache {
    /// Creates a cache bounded by `budget_bytes` (0 disables it), its
    /// `cache.result.*` instruments in `telemetry`.
    pub fn new(budget_bytes: usize, telemetry: &Registry) -> ResultCache {
        ResultCache(Validated::new("result", SHARDS, budget_bytes, telemetry))
    }

    /// Replaces the byte budget; shrinking evicts, zero clears and
    /// disables.
    pub fn set_budget(&self, bytes: usize) {
        self.0.set_budget(bytes);
    }

    /// Hit/miss/evict/invalidate counters (`cache.result.*` in the
    /// framework's telemetry registry).
    pub fn stats(&self) -> &CacheStats {
        self.0.stats()
    }

    /// Live entries across every shard.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Looks up a canonical key; a hit returns a shared handle to the
    /// encoded data, a stale entry is dropped (see [`Validated::get`]).
    pub fn lookup(&self, cluster: &Cluster, key: &[u8]) -> Option<Arc<str>> {
        self.0.get(cluster, key)
    }

    /// Stores a computed response under its canonical key and the stamp
    /// taken before computing it. An entry weighs the data's length plus
    /// its key, its dependency tags and a fixed overhead: exactness does not
    /// matter, monotonicity in data size does.
    pub fn store(&self, key: Vec<u8>, data: Arc<str>, stamp: Stamp) {
        let tags = stamp.footprint() + 64;
        self.0
            .insert(key, data, stamp, |key, data| key.len() + data.len() + tags);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasdb::cluster::ClusterConfig;
    use rasdb::query::Consistency;
    use rasdb::schema::{ColumnType, TableSchema};
    use rasdb::types::{Key, Value};
    use rasdb::DecoratedKey;

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

    const DATA: &str = r#"{"total":42}"#;

    fn store(cache: &ResultCache, cluster: &Cluster, key: Vec<u8>) {
        let dep = (
            "t".to_owned(),
            DecoratedKey::new(Key::from(vec![Value::BigInt(1)])),
        );
        cache.store(key, Arc::from(DATA), Stamp::take(cluster, [dep]));
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
        let cache = ResultCache::new(1 << 20, &Registry::default());
        store(&cache, &c, b"k".to_vec());
        assert_eq!(
            cache.lookup(&c, b"k").as_deref(),
            Some(DATA),
            "valid entry hits"
        );
        assert_eq!(cache.stats().hits(), 1);
        // A write to the dep partition makes the tag stale.
        write(&c, 1);
        assert!(cache.lookup(&c, b"k").is_none());
        assert_eq!(cache.stats().invalidations(), 1);
        assert_eq!(cache.stats().misses(), 1);
        // A write elsewhere leaves a fresh entry valid.
        store(&cache, &c, b"k".to_vec());
        write(&c, 2);
        assert!(cache.lookup(&c, b"k").is_some());
    }

    #[test]
    fn zero_budget_disables_without_stats_noise() {
        let c = cluster();
        let cache = ResultCache::new(0, &Registry::default());
        store(&cache, &c, b"k".to_vec());
        assert!(cache.lookup(&c, b"k").is_none());
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits() + cache.stats().misses(), 0);
    }

    #[test]
    fn entries_spread_across_shards_and_len_sums_them() {
        let c = cluster();
        let key = |i: usize| format!("heatmap\x1fMCE\x1f{i}").into_bytes();
        // Each shard's slice of this budget holds one entry (~110 bytes), so
        // what survives is one entry per shard the keys reached.
        let cache = ResultCache::new(150 * SHARDS, &Registry::default());
        for i in 0..64 {
            store(&cache, &c, key(i));
        }
        let shards_seen = cache.len();
        assert!(
            shards_seen > SHARDS / 2,
            "canonical keys should spread over most shards, hit {shards_seen}"
        );
        let cache = ResultCache::new(1 << 20, &Registry::default());
        for i in 0..64 {
            store(&cache, &c, key(i));
        }
        assert_eq!(cache.len(), 64);
        // Concurrent probes from many threads agree with the stored data.
        let cache = Arc::new(cache);
        let c = Arc::new(c);
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..64 {
                        let data = cache.lookup(&c, &key((i + t * 7) % 64));
                        assert_eq!(data.as_deref(), Some(DATA));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
