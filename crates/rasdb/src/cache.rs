//! One cache contract for every memo tier of the read path.
//!
//! Two tiers memoize reads, both in `core`: column blocks and complete
//! analytics answers. The coordinator itself caches nothing: a read goes to
//! the replicas. Both tiers are the same thing, [`Validated`]: a
//! byte-budgeted LRU whose every value carries a [`Stamp`] of what it was
//! computed from.
//!
//! * A [`Stamp`] is the topology epoch plus the data version of each
//!   `(table, partition)` the value read, snapshotted *before* the read.
//!   [`Stamp::is_current`] is the one validity check: a lookup re-checks the
//!   stored stamp against the cluster, so a write, a read repair or a
//!   topology change is seen on the next lookup, whichever path made it.
//!   The coordinator bumps a version only after the write is applied, so a
//!   write racing a compute leaves the stored value stale, never wrongly
//!   current.
//! * A stale entry is dropped and counted once, as an invalidation and a
//!   miss. Nothing drops entries early: eviction serves the budget, not
//!   correctness.
//! * A budget of zero turns a tier off: nothing is stored, and a lookup
//!   counts no hit, miss or invalidation.

use crate::cluster::Cluster;
use crate::partitioner::DecoratedKey;
use crate::stats::CacheStats;
use parking_lot::{Mutex, MutexGuard};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::Arc;
use telemetry::Gauge;

/// What a cached value was computed from: the topology epoch and the data
/// version of each `(table, partition)` it read.
#[derive(Debug)]
pub struct Stamp {
    epoch: u64,
    deps: Vec<(String, DecoratedKey, u64)>,
}

impl Stamp {
    /// Snapshots the topology epoch and the data version of each
    /// dependency. Take it *before* reading what the value is computed
    /// from.
    pub fn take(
        cluster: &Cluster,
        deps: impl IntoIterator<Item = (String, DecoratedKey)>,
    ) -> Stamp {
        let epoch = cluster.topology_epoch();
        let deps = deps
            .into_iter()
            .map(|(table, partition)| {
                let version = cluster.data_version(&table, &partition);
                (table, partition, version)
            })
            .collect();
        Stamp { epoch, deps }
    }

    /// Whether nothing the value was computed from has changed since the
    /// snapshot: the one place a stored epoch or version meets the cluster.
    pub fn is_current(&self, cluster: &Cluster) -> bool {
        self.epoch == cluster.topology_epoch()
            && self.deps.iter().all(|(table, partition, version)| {
                cluster.data_version(table, partition) == *version
            })
    }

    /// Approximate bytes of the dependency tags, each key weighed at its
    /// encoded length (computed, not encoded).
    pub fn footprint(&self) -> usize {
        self.deps
            .iter()
            .map(|(table, partition, _)| table.len() + partition.key().encoded_len() + 8)
            .sum()
    }
}

/// A byte-budgeted LRU of stamped values, split across independently
/// locked shards (chosen by a hash of the key) that share the budget.
///
/// Instruments: `cache.<tier>.{hit,miss,evict,invalidate}`,
/// `cache.<tier>.hit_ratio_pct` ([`CacheStats`]) and
/// `cache.<tier>.bytes_resident`.
pub struct Validated<V> {
    shards: Box<[Mutex<LruCache<Entry<V>>>]>,
    budget: AtomicUsize,
    used: AtomicI64,
    stats: CacheStats,
    resident: Arc<Gauge>,
}

struct Entry<V> {
    value: V,
    stamp: Stamp,
}

impl<V: Clone> Validated<V> {
    /// A tier named `tier` with `shards` LRUs sharing `budget` bytes.
    pub fn new(tier: &str, shards: usize, budget: usize) -> Validated<V> {
        let shards = shards.max(1);
        Validated {
            shards: (0..shards)
                .map(|_| Mutex::new(LruCache::new(per_shard(budget, shards))))
                .collect(),
            budget: AtomicUsize::new(budget),
            used: AtomicI64::new(0),
            stats: CacheStats::new(tier),
            resident: telemetry::global().gauge(&format!("cache.{tier}.bytes_resident")),
        }
    }

    /// The value stored under `key` if its stamp is still current. A stale
    /// entry is dropped and counted as an invalidation and a miss. A hit
    /// clones the value inside the shard lock: store values that are
    /// cheap to clone (`Arc`s).
    pub fn get(&self, cluster: &Cluster, key: &[u8]) -> Option<V> {
        if self.budget() == 0 {
            return None;
        }
        let mut shard = self.shard(key);
        let hit = match shard.get(key) {
            Some(e) if e.stamp.is_current(cluster) => Some(e.value.clone()),
            Some(_) => {
                self.resize(&mut shard, |lru| lru.remove(key));
                self.stats.record_invalidations(1);
                None
            }
            None => None,
        };
        drop(shard);
        match hit {
            Some(_) => self.stats.record_hit(),
            None => self.stats.record_miss(),
        }
        hit
    }

    /// Stores `value` under `key` with the stamp taken before it was
    /// computed. `weigh` prices the entry in budget bytes, outside the
    /// lock and only if the tier is on; an entry heavier than its shard's
    /// budget is not stored and displaces nothing.
    pub fn insert(
        &self,
        key: Vec<u8>,
        value: V,
        stamp: Stamp,
        weigh: impl FnOnce(&[u8], &V) -> usize,
    ) {
        if self.budget() == 0 {
            return;
        }
        let bytes = weigh(&key, &value);
        let mut shard = self.shard(&key);
        let evicted = self.resize(&mut shard, |lru| {
            lru.insert(key, Entry { value, stamp }, bytes)
        });
        self.stats.record_evictions(evicted);
    }

    /// Replaces the byte budget: shrinking evicts least-recently-used
    /// entries, zero clears the tier and turns it off. Returns the number
    /// evicted.
    pub fn set_budget(&self, budget: usize) -> u64 {
        self.budget.store(budget, Ordering::Relaxed);
        let shard_budget = per_shard(budget, self.shards.len());
        let evicted = self
            .shards
            .iter()
            .map(|shard| self.resize(&mut shard.lock(), |lru| lru.set_budget(shard_budget)))
            .sum();
        self.stats.record_evictions(evicted);
        evicted
    }

    /// The configured byte budget (0 = off).
    pub fn budget(&self) -> usize {
        self.budget.load(Ordering::Relaxed)
    }

    /// Budget bytes currently held.
    pub fn used_bytes(&self) -> usize {
        self.used.load(Ordering::Relaxed) as usize
    }

    /// Live entries across every shard.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().map.is_empty())
    }

    /// Hit/miss/evict/invalidate counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The shard holding `key`, locked. The lock tolerates poisoning: a
    /// panic under it (a value's `clone`, say) leaves the LRU consistent,
    /// so later lookups carry on instead of panicking too.
    fn shard(&self, key: &[u8]) -> MutexGuard<'_, LruCache<Entry<V>>> {
        // FNV-1a: cheap and well spread over short keys.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        self.shards[(h % self.shards.len() as u64) as usize].lock()
    }

    /// Runs `change` on a locked shard and keeps the tier's resident bytes
    /// (and their gauge) in step with it.
    fn resize<R>(
        &self,
        lru: &mut LruCache<Entry<V>>,
        change: impl FnOnce(&mut LruCache<Entry<V>>) -> R,
    ) -> R {
        let before = lru.used as i64;
        let out = change(lru);
        let delta = lru.used as i64 - before;
        if delta != 0 {
            let total = self.used.fetch_add(delta, Ordering::Relaxed) + delta;
            self.resident.set(total);
        }
        out
    }
}

/// Each shard's part of a tier's budget, rounded up: any nonzero budget
/// keeps every shard on.
fn per_shard(budget: usize, shards: usize) -> usize {
    budget.div_ceil(shards)
}

/// A byte-budgeted LRU map from byte keys to values, the storage of one
/// [`Validated`] shard. Recency is a monotonic tick per touch, indexed in
/// a tree; each key is one `Arc<[u8]>` shared by the map and that index,
/// so a hit moves a pointer and copies no key.
struct LruCache<V> {
    budget: usize,
    used: usize,
    tick: u64,
    map: HashMap<Arc<[u8]>, Slot<V>>,
    recency: BTreeMap<u64, Arc<[u8]>>,
}

struct Slot<V> {
    value: V,
    bytes: usize,
    tick: u64,
}

impl<V> LruCache<V> {
    fn new(budget: usize) -> LruCache<V> {
        LruCache {
            budget,
            used: 0,
            tick: 0,
            map: HashMap::new(),
            recency: BTreeMap::new(),
        }
    }

    /// Replaces the budget, evicting least-recently-used entries to fit;
    /// returns the number evicted.
    fn set_budget(&mut self, budget: usize) -> u64 {
        self.budget = budget;
        self.evict_to_fit()
    }

    /// Looks up `key`, making it the most recently used on a hit.
    fn get(&mut self, key: &[u8]) -> Option<&V> {
        let slot = self.map.get_mut(key)?;
        let shared = self
            .recency
            .remove(&slot.tick)
            .expect("every entry has a tick");
        self.tick += 1;
        slot.tick = self.tick;
        self.recency.insert(self.tick, shared);
        Some(&slot.value)
    }

    /// Inserts (or replaces) an entry weighing `bytes`, then evicts
    /// least-recently-used entries until the budget fits; returns the
    /// number evicted. An entry heavier than the whole budget is not
    /// stored: it would evict everything and still not fit.
    fn insert(&mut self, key: Vec<u8>, value: V, bytes: usize) -> u64 {
        if bytes > self.budget {
            return 0;
        }
        self.remove(&key);
        let key: Arc<[u8]> = key.into();
        self.tick += 1;
        self.used += bytes;
        self.recency.insert(self.tick, Arc::clone(&key));
        let tick = self.tick;
        self.map.insert(key, Slot { value, bytes, tick });
        self.evict_to_fit()
    }

    fn remove(&mut self, key: &[u8]) -> Option<V> {
        let slot = self.map.remove(key)?;
        self.recency.remove(&slot.tick);
        self.used -= slot.bytes;
        Some(slot.value)
    }

    fn evict_to_fit(&mut self) -> u64 {
        let mut evicted = 0;
        while self.used > self.budget {
            let Some((_, key)) = self.recency.pop_first() else {
                break;
            };
            if let Some(slot) = self.map.remove(&key) {
                self.used -= slot.bytes;
            }
            evicted += 1;
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::query::Consistency;
    use crate::schema::{ColumnType, TableSchema};
    use crate::types::{Key, Value};
    use std::sync::atomic::AtomicBool;

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

    fn dep(pk: i64) -> (String, DecoratedKey) {
        (
            "t".to_owned(),
            DecoratedKey::new(Key::from(vec![Value::BigInt(pk)])),
        )
    }

    fn write(c: &Cluster, pk: i64) {
        c.insert(
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

    /// A one-shard tier of `budget` bytes.
    fn tier(budget: usize) -> Validated<u32> {
        Validated::new("unit", 1, budget)
    }

    /// Stores `v` weighing `bytes`, stamped on partition 1.
    fn put(cache: &Validated<u32>, c: &Cluster, key: &[u8], v: u32, bytes: usize) {
        cache.insert(key.to_vec(), v, Stamp::take(c, [dep(1)]), |_, _| bytes);
    }

    fn counts(cache: &Validated<u32>) -> (u64, u64, u64, u64) {
        let s = cache.stats();
        (s.hits(), s.misses(), s.invalidations(), s.evictions())
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let c = cluster();
        let cache = tier(30);
        put(&cache, &c, b"a", 1, 10);
        put(&cache, &c, b"b", 2, 10);
        put(&cache, &c, b"c", 3, 10);
        assert_eq!(cache.len(), 3);
        // Touch "a" so "b" is now the LRU entry.
        assert_eq!(cache.get(&c, b"a"), Some(1));
        put(&cache, &c, b"d", 4, 10);
        assert_eq!(cache.stats().evictions(), 1);
        assert_eq!(cache.get(&c, b"b"), None, "LRU entry evicted");
        assert_eq!(cache.get(&c, b"a"), Some(1));
        assert_eq!(cache.get(&c, b"d"), Some(4));
        assert_eq!(cache.get(&c, b"c"), Some(3));
        assert_eq!(cache.used_bytes(), 30);
        // Recency is now c, d, a (most recent first): two more entries
        // evict "a" and then "d".
        put(&cache, &c, b"e", 5, 10);
        put(&cache, &c, b"f", 6, 10);
        assert_eq!(cache.get(&c, b"a"), None);
        assert_eq!(cache.get(&c, b"d"), None);
        assert_eq!(cache.get(&c, b"c"), Some(3));
    }

    #[test]
    fn zero_budget_disables_and_oversized_entries_skip() {
        let c = cluster();
        // A tier that is off stores nothing and counts nothing.
        let cache = tier(0);
        put(&cache, &c, b"a", 1, 1);
        assert_eq!(cache.get(&c, b"a"), None);
        assert!(cache.is_empty());
        assert_eq!(counts(&cache), (0, 0, 0, 0));
        // An entry bigger than the whole budget never displaces the
        // working set.
        let cache = tier(10);
        put(&cache, &c, b"a", 1, 8);
        put(&cache, &c, b"huge", 2, 11);
        assert_eq!(cache.get(&c, b"a"), Some(1));
        assert_eq!(cache.get(&c, b"huge"), None);
        assert_eq!((cache.len(), cache.used_bytes()), (1, 8));
        assert_eq!(counts(&cache), (1, 1, 0, 0));
        // The limit is the shard's share of the budget: an entry that
        // weighs it is stored, one byte more is refused.
        for (shards, cap) in [(1, 10), (4, 3)] {
            for (extra, stored) in [(0, 1), (1, 0)] {
                let cache = Validated::new("unit", shards, 10);
                cache.insert(b"k".to_vec(), 1, Stamp::take(&c, [dep(1)]), |_, _| {
                    cap + extra
                });
                assert_eq!(cache.len(), stored, "{shards} shards");
            }
        }
    }

    #[test]
    fn replace_reaccounts_bytes_and_shrink_evicts() {
        let c = cluster();
        let cache = tier(100);
        put(&cache, &c, b"a", 1, 40);
        put(&cache, &c, b"a", 2, 60);
        assert_eq!(cache.used_bytes(), 60);
        assert_eq!(cache.get(&c, b"a"), Some(2));
        put(&cache, &c, b"b", 3, 40);
        assert_eq!(cache.set_budget(40), 1, "shrink evicts the older entry");
        assert_eq!(cache.get(&c, b"b"), Some(3));
        assert_eq!(cache.set_budget(0), 1);
        assert!(cache.is_empty());
        assert_eq!(cache.used_bytes(), 0);
    }

    #[test]
    fn a_stale_entry_counts_once_as_an_invalidation_and_a_miss() {
        let c = cluster();
        let cache = tier(1 << 10);
        let stamp = || Stamp::take(&c, [dep(1), dep(2)]);
        cache.insert(b"k".to_vec(), 7, stamp(), |_, _| 10);
        assert_eq!(cache.get(&c, b"k"), Some(7));
        // A write elsewhere leaves it current.
        write(&c, 3);
        assert_eq!(cache.get(&c, b"k"), Some(7));
        // A write to either dependency makes it stale: dropped once, then
        // an ordinary miss.
        write(&c, 2);
        assert_eq!(cache.get(&c, b"k"), None);
        assert_eq!(cache.get(&c, b"k"), None);
        assert_eq!(counts(&cache), (2, 2, 1, 0));
        assert_eq!((cache.len(), cache.used_bytes()), (0, 0));
        // So does a topology change.
        cache.insert(b"k".to_vec(), 8, stamp(), |_, _| 10);
        c.take_node_down(crate::ring::NodeId(1));
        assert_eq!(cache.get(&c, b"k"), None);
        assert_eq!(counts(&cache), (2, 3, 2, 0));
    }

    #[test]
    fn a_panic_under_a_shard_lock_leaves_the_tier_working() {
        /// A value whose clone (run inside the shard lock on a hit)
        /// panics while `armed`.
        struct Fragile(Arc<AtomicBool>);
        impl Clone for Fragile {
            fn clone(&self) -> Fragile {
                assert!(!self.0.load(Ordering::SeqCst), "clone under the lock");
                Fragile(Arc::clone(&self.0))
            }
        }
        let c = cluster();
        let cache: Validated<Fragile> = Validated::new("unit", 1, 1 << 10);
        let armed = Arc::new(AtomicBool::new(false));
        let stamp = || Stamp::take(&c, [dep(1)]);
        cache.insert(
            b"a".to_vec(),
            Fragile(Arc::clone(&armed)),
            stamp(),
            |_, _| 10,
        );
        armed.store(true, Ordering::SeqCst);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get(&c, b"a");
        }));
        assert!(panicked.is_err());
        armed.store(false, Ordering::SeqCst);
        assert!(cache.get(&c, b"a").is_some(), "get after the panic");
        cache.insert(
            b"b".to_vec(),
            Fragile(Arc::clone(&armed)),
            stamp(),
            |_, _| 10,
        );
        assert!(cache.get(&c, b"b").is_some(), "insert after the panic");
        assert_eq!(cache.len(), 2);
    }
}
