//! Byte-budgeted LRU caching for the coordinator read path.
//!
//! Two things live here:
//!
//! * [`LruCache`] — a generic byte-budgeted LRU keyed by opaque bytes. The
//!   cluster's partition-block cache uses it directly, and the analytics
//!   result cache in `core` reuses it with its own entry type.
//! * [`BlockEntry`] + [`block_key`] — the partition-block cache entry and
//!   canonical key for memoizing merged, read-repaired partition reads.
//!
//! Correctness does not depend on eviction or explicit invalidation: every
//! entry carries the partition's data version and the cluster topology
//! epoch at fill time, and the coordinator re-validates both on every
//! lookup (see [`Cluster::data_version`](crate::Cluster::data_version)). A
//! stale entry is indistinguishable from a miss.

use crate::query::{Consistency, ReadPlan};
use crate::types::{Key, Row, Value};
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::Arc;

/// A byte-budgeted LRU map from opaque byte keys to values.
///
/// Recency is tracked with a monotonic tick per touch; eviction removes the
/// least-recently-used entries until the accounted footprint fits the
/// budget. A budget of zero disables the cache entirely (inserts are
/// dropped, lookups always miss).
pub struct LruCache<V> {
    budget: usize,
    used: usize,
    tick: u64,
    map: HashMap<Vec<u8>, Slot<V>>,
    recency: BTreeMap<u64, Vec<u8>>,
}

struct Slot<V> {
    value: V,
    bytes: usize,
    tick: u64,
}

impl<V> LruCache<V> {
    /// Creates a cache bounded by `budget` accounted bytes.
    pub fn new(budget: usize) -> LruCache<V> {
        LruCache {
            budget,
            used: 0,
            tick: 0,
            map: HashMap::new(),
            recency: BTreeMap::new(),
        }
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Replaces the byte budget; shrinking evicts LRU entries to fit and a
    /// budget of zero clears the cache. Returns the number evicted.
    pub fn set_budget(&mut self, budget: usize) -> u64 {
        self.budget = budget;
        self.evict_to_fit()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Accounted bytes currently held.
    pub fn used_bytes(&self) -> usize {
        self.used
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &[u8]) -> Option<&V> {
        let slot = self.map.get_mut(key)?;
        self.recency.remove(&slot.tick);
        self.tick += 1;
        slot.tick = self.tick;
        self.recency.insert(slot.tick, key.to_vec());
        Some(&self.map[key].value)
    }

    /// Inserts (or replaces) an entry accounted at `bytes`, then evicts
    /// LRU entries until the budget fits. Returns the number evicted.
    /// Entries larger than the whole budget are not stored.
    pub fn insert(&mut self, key: Vec<u8>, value: V, bytes: usize) -> u64 {
        if bytes > self.budget {
            // Would evict everything and still not fit: keep the working set.
            return 0;
        }
        self.remove(&key);
        self.tick += 1;
        self.used += bytes;
        self.recency.insert(self.tick, key.clone());
        self.map.insert(
            key,
            Slot {
                value,
                bytes,
                tick: self.tick,
            },
        );
        self.evict_to_fit()
    }

    /// Removes one entry.
    pub fn remove(&mut self, key: &[u8]) -> Option<V> {
        let slot = self.map.remove(key)?;
        self.recency.remove(&slot.tick);
        self.used -= slot.bytes;
        Some(slot.value)
    }

    /// Keeps only entries for which `keep` returns true; returns the number
    /// dropped.
    pub fn retain(&mut self, mut keep: impl FnMut(&[u8], &V) -> bool) -> u64 {
        let doomed: Vec<Vec<u8>> = self
            .map
            .iter()
            .filter(|(k, slot)| !keep(k, &slot.value))
            .map(|(k, _)| k.clone())
            .collect();
        for k in &doomed {
            self.remove(k);
        }
        doomed.len() as u64
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.recency.clear();
        self.used = 0;
    }

    fn evict_to_fit(&mut self) -> u64 {
        let mut evicted = 0;
        while self.used > self.budget {
            let Some((&tick, _)) = self.recency.iter().next() else {
                break;
            };
            let key = self.recency.remove(&tick).expect("recency entry exists");
            if let Some(slot) = self.map.remove(&key) {
                self.used -= slot.bytes;
            }
            evicted += 1;
        }
        evicted
    }
}

impl<V> std::fmt::Debug for LruCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LruCache")
            .field("budget", &self.budget)
            .field("used", &self.used)
            .field("entries", &self.map.len())
            .finish()
    }
}

/// One memoized partition read: the merged, read-repaired, ordered and
/// limited rows [`Cluster::read`](crate::Cluster::read) produced, tagged
/// with the partition data version and topology epoch observed *before*
/// the replica reads were issued.
#[derive(Debug, Clone)]
pub struct BlockEntry {
    /// Final rows exactly as the uncached read returned them: the very
    /// allocation that read handed its caller and every hit hands out again.
    pub rows: Arc<[Row]>,
    /// [`Cluster::data_version`](crate::Cluster::data_version) at fill time.
    pub version: u64,
    /// [`Cluster::topology_epoch`](crate::Cluster::topology_epoch) at fill
    /// time.
    pub epoch: u64,
}

fn encode_bound(out: &mut Vec<u8>, bound: &Bound<Key>) {
    match bound {
        Bound::Unbounded => out.push(0),
        Bound::Included(k) => {
            out.push(1);
            encode_key(out, k);
        }
        Bound::Excluded(k) => {
            out.push(2);
            encode_key(out, k);
        }
    }
}

fn encode_key(out: &mut Vec<u8>, key: &Key) {
    let bytes = key.encode();
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(&bytes);
}

/// Canonical cache key for a partition block: every field of the plan that
/// can change the result, plus the consistency level (reads at different
/// consistency levels may legitimately observe different replica states).
pub fn block_key(plan: &ReadPlan, consistency: Consistency) -> Vec<u8> {
    let mut out = Vec::with_capacity(plan.table.len() + 64);
    out.extend_from_slice(&(plan.table.len() as u32).to_le_bytes());
    out.extend_from_slice(plan.table.as_bytes());
    encode_key(&mut out, plan.partition.key());
    encode_bound(&mut out, &plan.range.0);
    encode_bound(&mut out, &plan.range.1);
    match plan.limit {
        None => out.push(0),
        Some(n) => {
            out.push(1);
            out.extend_from_slice(&(n as u64).to_le_bytes());
        }
    }
    out.push(plan.descending as u8);
    out.push(match consistency {
        Consistency::One => 0,
        Consistency::Quorum => 1,
        Consistency::All => 2,
    });
    out
}

/// Approximate heap footprint of a result block, used for byte budgeting.
/// Values are costed at the length of their binary encoding (computed, not
/// encoded) plus fixed per-row and per-cell overheads; exactness does not
/// matter, monotonicity in data size does.
pub fn rows_footprint(rows: &[Row]) -> usize {
    let mut n = 64;
    for row in rows {
        n += 48;
        n += row
            .clustering
            .0
            .iter()
            .map(Value::encoded_len)
            .sum::<usize>();
        for (name, v) in row.cells() {
            n += name.len() + 32 + v.encoded_len();
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::full_range;
    use crate::partitioner::DecoratedKey;

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let mut c: LruCache<u32> = LruCache::new(30);
        c.insert(b"a".to_vec(), 1, 10);
        c.insert(b"b".to_vec(), 2, 10);
        c.insert(b"c".to_vec(), 3, 10);
        assert_eq!(c.len(), 3);
        // Touch "a" so "b" is now the LRU entry.
        assert_eq!(c.get(b"a"), Some(&1));
        let evicted = c.insert(b"d".to_vec(), 4, 10);
        assert_eq!(evicted, 1);
        assert!(c.get(b"b").is_none(), "LRU entry evicted");
        assert_eq!(c.get(b"a"), Some(&1));
        assert_eq!(c.get(b"d"), Some(&4));
        assert_eq!(c.used_bytes(), 30);
    }

    #[test]
    fn zero_budget_disables_and_oversized_entries_skip() {
        let mut c: LruCache<u32> = LruCache::new(0);
        assert_eq!(c.insert(b"a".to_vec(), 1, 1), 0);
        assert!(c.is_empty());
        let mut c: LruCache<u32> = LruCache::new(10);
        c.insert(b"a".to_vec(), 1, 8);
        // An entry bigger than the whole budget never displaces the
        // working set.
        c.insert(b"huge".to_vec(), 2, 11);
        assert_eq!(c.get(b"a"), Some(&1));
        assert!(c.get(b"huge").is_none());
    }

    #[test]
    fn replace_reaccounts_bytes_and_shrink_evicts() {
        let mut c: LruCache<u32> = LruCache::new(100);
        c.insert(b"a".to_vec(), 1, 40);
        c.insert(b"a".to_vec(), 2, 60);
        assert_eq!(c.used_bytes(), 60);
        assert_eq!(c.get(b"a"), Some(&2));
        c.insert(b"b".to_vec(), 3, 40);
        assert_eq!(c.set_budget(40), 1, "shrink evicts the older entry");
        assert_eq!(c.get(b"b"), Some(&3));
        assert_eq!(c.set_budget(0), 1);
        assert!(c.is_empty());
    }

    #[test]
    fn retain_drops_matching_entries() {
        let mut c: LruCache<u32> = LruCache::new(100);
        c.insert(b"keep".to_vec(), 1, 10);
        c.insert(b"drop".to_vec(), 2, 10);
        assert_eq!(c.retain(|_, v| *v == 1), 1);
        assert_eq!(c.get(b"keep"), Some(&1));
        assert!(c.get(b"drop").is_none());
        assert_eq!(c.used_bytes(), 10);
    }

    #[test]
    fn footprint_costs_values_at_their_encoded_length() {
        let row = Row::new(
            Key::from(vec![Value::Timestamp(7), Value::text("c0-0c0s0n0")]),
            [
                ("amount".into(), Value::Int(1)),
                ("raw".into(), Value::text("twelve bytes")),
            ],
        );
        let mut encoded = Vec::new();
        for v in row
            .clustering
            .0
            .iter()
            .chain(row.cells().iter().map(|c| &c.1))
        {
            v.encode_into(&mut encoded);
        }
        let one = 48 + ("amount".len() + 32) + ("raw".len() + 32) + encoded.len();
        assert_eq!(rows_footprint(&[]), 64);
        assert_eq!(rows_footprint(std::slice::from_ref(&row)), 64 + one);
        assert_eq!(rows_footprint(&[row.clone(), row]), 64 + 2 * one);
    }

    #[test]
    fn block_keys_distinguish_every_plan_field() {
        let base = ReadPlan {
            table: "event_by_time".into(),
            partition: DecoratedKey::new(Key::from(vec![Value::BigInt(1), Value::text("MCE")])),
            range: full_range(),
            limit: None,
            descending: false,
        };
        let k0 = block_key(&base, Consistency::Quorum);
        let mut other = base.clone();
        other.partition = DecoratedKey::new(Key::from(vec![Value::BigInt(2), Value::text("MCE")]));
        assert_ne!(k0, block_key(&other, Consistency::Quorum));
        let mut other = base.clone();
        other.limit = Some(5);
        assert_ne!(k0, block_key(&other, Consistency::Quorum));
        let mut other = base.clone();
        other.descending = true;
        assert_ne!(k0, block_key(&other, Consistency::Quorum));
        let mut other = base.clone();
        other.range.0 = Bound::Included(Key::from(vec![Value::Timestamp(7)]));
        assert_ne!(k0, block_key(&other, Consistency::Quorum));
        assert_ne!(k0, block_key(&base, Consistency::One));
        assert_eq!(k0, block_key(&base.clone(), Consistency::Quorum));
    }
}
