//! Columnar analytics blocks: the one scan shape of every hour partition.
//!
//! The paper stores "a time series representation of events that is one
//! hour long" per partition; analytics kernels read each
//! `(hour, event_type)` partition of `event_by_time` in a column-oriented
//! layout, whether the hour was batch-imported long ago or is still being
//! filled by the live stream:
//!
//! - `ts`: the timestamp column, contiguous and sorted (rows arrive in
//!   clustering order `(ts, source)`), carrying a min/max **zone map**
//!   so whole blocks are skipped when a query window cannot overlap them
//!   and sub-hour windows binary-search to the exact row range;
//! - `source_ids` + `dict`: **dictionary-encoded** source locations —
//!   one `u32` per row into a per-block string dictionary, whose entries
//!   resolve to topology node indices at most once per block
//!   (`ColumnBlock::nodes`), so kernels group rows by a table lookup
//!   instead of parsing or hashing a cname per row;
//! - `amounts`: the `i32` amount column;
//! - `raw`: every raw message concatenated into one string with an
//!   offset column, for zero-copy text analytics.
//!
//! Blocks are built **lazily** on the first analytics scan from the same
//! merged, read-repaired row path every query uses, and cached in a
//! [`ColumnarStore`] under its own byte budget — a
//! [`rasdb::cache::Validated`] tier, with the contract every tier shares:
//! each block is stamped with its partition's data version and the
//! topology epoch *before* its rows are read, and a lookup whose stamp is
//! no longer current drops the block and rebuilds. A write bumps the
//! version only after it is applied, so a write racing a build can make
//! the stored block stale but never wrongly current — which is all a
//! still-filling hour needs: it is a block whose version moves often.
//! With a zero budget nothing is retained and every scan builds
//! transient blocks; the kernels and their answers are the same
//! (enforced by the `cache_equivalence` proptest).

use crate::model::event::EventRecord;
use loggen::topology::Topology;
use rasdb::cache::{Stamp, Validated};
use rasdb::cluster::Cluster;
use rasdb::types::Row;
use sparklet::agg::Fnv1a;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::mem::size_of;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use telemetry::Counter;

/// Default byte budget of the [`ColumnarStore`].
pub const DEFAULT_COLUMNAR_CACHE_BYTES: usize = 32 << 20;

/// One `(hour, event_type)` partition in columnar form.
///
/// Built by [`ColumnBlock::build`] from the partition's merged rows in
/// clustering order, so `ts` is sorted ascending and row `i` of every
/// column describes the same event.
#[derive(Debug)]
pub struct ColumnBlock {
    /// The hour bucket (`ts / HOUR_MS`) this block covers.
    pub hour: i64,
    /// The event type of every row in the block.
    pub event_type: String,
    /// Timestamp column, sorted ascending (the clustering order).
    pub ts: Vec<i64>,
    /// Dictionary ids into [`ColumnBlock::dict`], one per row.
    pub source_ids: Vec<u32>,
    /// The source-location dictionary, in first-appearance order.
    pub dict: Vec<String>,
    /// Amount column.
    pub amounts: Vec<i32>,
    raw_offsets: Vec<u32>,
    raw_text: String,
    /// The node index of each dictionary entry and the topology it was
    /// resolved against, filled on first use (see `ColumnBlock::nodes`).
    nodes: OnceLock<(Topology, Box<[Option<u32>]>)>,
}

impl ColumnBlock {
    /// Builds a block from a partition's merged rows, mirroring the row
    /// path's [`EventRecord::from_time_row`] semantics exactly: rows with
    /// malformed clustering keys are skipped, a missing `amount` defaults
    /// to 1, and a missing `raw` to the empty string.
    pub fn build(hour: i64, event_type: &str, rows: &[Row]) -> ColumnBlock {
        let mut ts = Vec::with_capacity(rows.len());
        let mut source_ids = Vec::with_capacity(rows.len());
        let mut amounts = Vec::with_capacity(rows.len());
        let mut raw_offsets = Vec::with_capacity(rows.len() + 1);
        let mut raw_text = String::new();
        let mut dict: Vec<String> = Vec::new();
        let mut seen: HashMap<&str, u32, BuildHasherDefault<Fnv1a>> = HashMap::default();
        raw_offsets.push(0);
        for row in rows {
            let (Some(t), Some(source)) = (
                row.clustering.0.first().and_then(|v| v.as_i64()),
                row.clustering.0.get(1).and_then(|v| v.as_text()),
            ) else {
                continue;
            };
            let id = *seen.entry(source).or_insert_with(|| {
                dict.push(source.to_owned());
                (dict.len() - 1) as u32
            });
            // One walk of the row's cells for both columns.
            let (mut amount, mut raw) = (None, None);
            for (name, value) in row.cells() {
                match &**name {
                    "amount" => amount = value.as_i64(),
                    "raw" => raw = value.as_text(),
                    _ => {}
                }
            }
            ts.push(t);
            source_ids.push(id);
            amounts.push(amount.unwrap_or(1) as i32);
            raw_text.push_str(raw.unwrap_or_default());
            raw_offsets.push(raw_text.len() as u32);
        }
        debug_assert!(ts.is_sorted(), "clustering order must be ascending");
        ColumnBlock {
            hour,
            event_type: event_type.to_owned(),
            ts,
            source_ids,
            dict,
            amounts,
            raw_offsets,
            raw_text,
            nodes: OnceLock::new(),
        }
    }

    /// The topology node index of each dictionary entry (`None` for a
    /// source that names no node of `topo`, such as `mds01`), parsed by
    /// the first kernel that asks and kept for the block's life, so a
    /// cached block parses each distinct source once. A block belongs to
    /// one framework, hence to one topology: asking with another panics.
    pub(crate) fn nodes(&self, topo: &Topology) -> &[Option<u32>] {
        let (resolved_for, nodes) = self.nodes.get_or_init(|| {
            let nodes = self.dict.iter().map(|s| {
                let node = topo.parse_cname(s)?;
                Some(u32::try_from(node).expect("a node index fits in u32"))
            });
            (topo.clone(), nodes.collect())
        });
        assert_eq!(resolved_for, topo, "a block's node index has one topology");
        nodes
    }

    /// Rows in the block.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// True when the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Zone-map minimum of the timestamp column (`None` when empty).
    pub fn min_ts(&self) -> Option<i64> {
        self.ts.first().copied()
    }

    /// Zone-map maximum of the timestamp column (`None` when empty).
    pub fn max_ts(&self) -> Option<i64> {
        self.ts.last().copied()
    }

    /// Zone-map overlap test against a half-open window: false means the
    /// whole block can be skipped without touching a row.
    pub fn overlaps(&self, from_ms: i64, to_ms: i64) -> bool {
        match (self.min_ts(), self.max_ts()) {
            (Some(lo), Some(hi)) => lo < to_ms && hi >= from_ms,
            _ => false,
        }
    }

    /// The row-index range whose timestamps fall in `[from_ms, to_ms)`,
    /// by binary search on the sorted timestamp column.
    pub fn range(&self, from_ms: i64, to_ms: i64) -> Range<usize> {
        let lo = self.ts.partition_point(|&t| t < from_ms);
        let hi = self.ts.partition_point(|&t| t < to_ms);
        lo..hi.max(lo)
    }

    /// The raw message of row `i`, as a zero-copy slice of the
    /// concatenated message text.
    pub fn raw(&self, i: usize) -> &str {
        &self.raw_text[self.raw_offsets[i] as usize..self.raw_offsets[i + 1] as usize]
    }

    /// Materializes row `i` back into an [`EventRecord`] (allocates; used
    /// by equivalence tests, not by the kernels).
    pub fn record(&self, i: usize) -> EventRecord {
        EventRecord {
            ts_ms: self.ts[i],
            event_type: self.event_type.as_str().into(),
            source: self.dict[self.source_ids[i] as usize].as_str().into(),
            amount: self.amounts[i],
            raw: self.raw(i).into(),
        }
    }

    /// Bytes the source column would occupy un-encoded (one string per
    /// row) — the numerator of the dictionary compression ratio.
    pub fn source_raw_bytes(&self) -> usize {
        self.source_ids
            .iter()
            .map(|&id| self.dict[id as usize].len())
            .sum()
    }

    /// Bytes the dictionary-encoded source column occupies (ids plus the
    /// dictionary itself).
    pub fn source_encoded_bytes(&self) -> usize {
        self.source_ids.len() * 4 + self.dict.iter().map(String::len).sum::<usize>()
    }

    /// Resident byte footprint charged against the store budget. The node
    /// index is charged from the build on, resolved or not, so a block's
    /// charge never changes while it is resident.
    pub fn footprint(&self) -> usize {
        self.ts.len() * 8
            + self.source_ids.len() * 4
            + self.amounts.len() * 4
            + self.raw_offsets.len() * 4
            + self.raw_text.len()
            + self
                .dict
                .iter()
                .map(|s| s.len() + 24 + size_of::<Option<u32>>())
                .sum::<usize>()
            + self.event_type.len()
            + 64
    }
}

/// The result of [`crate::framework::Framework::scan_window`]: one
/// block per hour partition in hour order, with zone-map-skipped blocks
/// already removed. Each block covers its *whole* hour; kernels narrow to
/// the query window with [`ColumnBlock::range`].
pub struct WindowScan {
    /// Window start (inclusive).
    pub from_ms: i64,
    /// Window end (exclusive).
    pub to_ms: i64,
    /// Surviving per-hour blocks, ascending by hour.
    pub parts: Vec<Arc<ColumnBlock>>,
}

impl WindowScan {
    /// Materializes every in-window event in hour/clustering order —
    /// byte-equivalent to the row path's
    /// [`crate::framework::Framework::events_by_type`]. Allocates one
    /// record per row; used by equivalence tests, not by the kernels.
    pub fn records(&self) -> Vec<EventRecord> {
        self.parts
            .iter()
            .flat_map(|b| b.range(self.from_ms, self.to_ms).map(|i| b.record(i)))
            .collect()
    }
}

/// Amounts folded into dense slots: the grouping shape every block kernel
/// shares. A kernel names each row's slot from the block's columns (its
/// source's node index, its dictionary id, its application run) and never
/// hashes a label per row; labels are rendered once per present slot.
#[derive(Debug)]
pub(crate) struct Slots {
    /// Summed amount per slot.
    pub(crate) sums: Vec<f64>,
    /// Whether any row landed in the slot: a present slot may sum to 0.
    pub(crate) present: Vec<bool>,
    /// Summed amount of the rows that named no slot.
    pub(crate) unattributed: f64,
}

impl Slots {
    /// `size` empty slots.
    pub(crate) fn new(size: usize) -> Slots {
        Slots {
            sums: vec![0.0; size],
            present: vec![false; size],
            unattributed: 0.0,
        }
    }

    /// Adds the amount of each row in `rows` of `b` to the slot `slot`
    /// names for that row index, or to `unattributed` for `None`. Amounts
    /// are integers, so the sums are exact whatever the fold order.
    pub(crate) fn fold(
        &mut self,
        b: &ColumnBlock,
        rows: Range<usize>,
        mut slot: impl FnMut(usize) -> Option<usize>,
    ) {
        for i in rows {
            let amount = b.amounts[i] as f64;
            match slot(i) {
                Some(s) => {
                    self.sums[s] += amount;
                    self.present[s] = true;
                }
                None => self.unattributed += amount,
            }
        }
    }

    /// The slots any row landed in, with their sums, in slot order.
    pub(crate) fn iter_present(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.sums
            .iter()
            .zip(&self.present)
            .enumerate()
            .filter(|(_, (_, &p))| p)
            .map(|(s, (&sum, _))| (s, sum))
    }
}

fn block_key(hour: i64, event_type: &str) -> Vec<u8> {
    let mut key = Vec::with_capacity(24 + event_type.len());
    key.extend_from_slice(b"event_by_time\x1f");
    key.extend_from_slice(&hour.to_be_bytes());
    key.push(0x1f);
    key.extend_from_slice(event_type.as_bytes());
    key
}

/// A point-in-time snapshot of [`ColumnarStore`] activity, served by the
/// `storage` engine op / `GET /v1/storage`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnarStats {
    /// Blocks built from the row path since boot.
    pub blocks_built: u64,
    /// Blocks currently resident in the cache.
    pub blocks_resident: u64,
    /// Blocks evicted by the LRU byte budget (including budget shrinks).
    pub blocks_evicted: u64,
    /// Blocks dropped because their data-version or topology-epoch
    /// snapshot went stale.
    pub invalidations: u64,
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses (including stale drops).
    pub misses: u64,
    /// Whole blocks skipped by the timestamp zone map.
    pub zone_skips: u64,
    /// Bytes currently resident.
    pub bytes_resident: u64,
    /// The configured byte budget (0 = no block is retained).
    pub bytes_budget: u64,
    /// Bytes the source columns of every built block would occupy
    /// un-encoded.
    pub dict_raw_bytes: u64,
    /// Bytes those source columns occupy dictionary-encoded.
    pub dict_encoded_bytes: u64,
}

impl ColumnarStats {
    /// Dictionary compression ratio (`raw / encoded`; 1.0 before any
    /// block is built).
    pub fn dict_compression(&self) -> f64 {
        if self.dict_encoded_bytes == 0 {
            1.0
        } else {
            self.dict_raw_bytes as f64 / self.dict_encoded_bytes as f64
        }
    }
}

/// The lazily-populated cache of [`ColumnBlock`]s: the columnar tier, in
/// one shard, because a storm hour's block can outweigh a sixteenth of the
/// budget (DESIGN §9).
pub struct ColumnarStore {
    cache: Validated<Arc<ColumnBlock>>,
    built: AtomicU64,
    zone_skips: AtomicU64,
    dict_raw: AtomicU64,
    dict_encoded: AtomicU64,
    t_built: Arc<Counter>,
    t_zone_skips: Arc<Counter>,
}

impl ColumnarStore {
    /// Creates a store with the given byte budget. With a budget of 0
    /// nothing is retained: every scan builds transient blocks.
    pub fn new(budget: usize) -> ColumnarStore {
        let t = telemetry::global();
        ColumnarStore {
            cache: Validated::new("columnar", 1, budget),
            built: AtomicU64::new(0),
            zone_skips: AtomicU64::new(0),
            dict_raw: AtomicU64::new(0),
            dict_encoded: AtomicU64::new(0),
            t_built: t.counter("cache.columnar.blocks_built"),
            t_zone_skips: t.counter("cache.columnar.zone_skips"),
        }
    }

    /// The block for `(hour, event_type)`, if its stamp is still current
    /// on `cluster`.
    pub fn get(&self, cluster: &Cluster, hour: i64, event_type: &str) -> Option<Arc<ColumnBlock>> {
        self.cache.get(cluster, &block_key(hour, event_type))
    }

    /// Caches a freshly built block under the stamp taken *before* its
    /// source rows were read. Oversized blocks (bigger than the whole
    /// budget) are simply not retained.
    pub fn insert(&self, block: Arc<ColumnBlock>, stamp: Stamp) {
        self.built.fetch_add(1, Ordering::Relaxed);
        self.t_built.incr(1);
        self.dict_raw
            .fetch_add(block.source_raw_bytes() as u64, Ordering::Relaxed);
        self.dict_encoded
            .fetch_add(block.source_encoded_bytes() as u64, Ordering::Relaxed);
        let key = block_key(block.hour, &block.event_type);
        self.cache.insert(key, block, stamp, |_, b| b.footprint());
    }

    /// Changes the byte budget at runtime, evicting LRU-first down to the
    /// new limit; returns how many blocks were evicted.
    pub fn set_budget(&self, budget: usize) -> u64 {
        self.cache.set_budget(budget)
    }

    /// Records one zone-map block skip.
    pub fn note_zone_skip(&self) {
        self.zone_skips.fetch_add(1, Ordering::Relaxed);
        self.t_zone_skips.incr(1);
    }

    /// Snapshot of the store's counters and residency.
    pub fn stats(&self) -> ColumnarStats {
        let tier = self.cache.stats();
        ColumnarStats {
            blocks_built: self.built.load(Ordering::Relaxed),
            blocks_resident: self.cache.len() as u64,
            blocks_evicted: tier.evictions(),
            invalidations: tier.invalidations(),
            hits: tier.hits(),
            misses: tier.misses(),
            zone_skips: self.zone_skips.load(Ordering::Relaxed),
            bytes_resident: self.cache.used_bytes() as u64,
            bytes_budget: self.cache.budget() as u64,
            dict_raw_bytes: self.dict_raw.load(Ordering::Relaxed),
            dict_encoded_bytes: self.dict_encoded.load(Ordering::Relaxed),
        }
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

    fn row(ts: i64, source: &str, amount: i64, raw: &str) -> Row {
        Row::new(
            Key::from(vec![Value::Timestamp(ts), Value::text(source)]),
            [
                ("amount".into(), Value::BigInt(amount)),
                ("raw".into(), Value::text(raw)),
            ],
        )
    }

    fn block() -> ColumnBlock {
        ColumnBlock::build(
            0,
            "MCE",
            &[
                row(100, "c0-0c0s0n0", 1, "mce bank 1"),
                row(200, "c0-0c0s1n2", 2, "mce bank 2"),
                row(300, "c0-0c0s0n0", 3, "mce bank 3"),
            ],
        )
    }

    #[test]
    fn build_dictionary_encodes_sources_and_keeps_order() {
        let b = block();
        assert_eq!(b.len(), 3);
        assert_eq!(b.ts, vec![100, 200, 300]);
        assert_eq!(b.dict, vec!["c0-0c0s0n0", "c0-0c0s1n2"]);
        assert_eq!(b.source_ids, vec![0, 1, 0]);
        assert_eq!(b.amounts, vec![1, 2, 3]);
        assert_eq!(b.raw(1), "mce bank 2");
        assert_eq!(&*b.record(2).source, "c0-0c0s0n0");
        assert!(b.source_raw_bytes() >= b.dict.iter().map(String::len).sum());
        // Multi-byte messages side by side: an offset off by one byte
        // would split a code point and panic the slice.
        let texts = ["ошибка OST0041", "🔥", "", "日本語 mce", "ascii"];
        let rows: Vec<Row> = (0i64..)
            .zip(texts)
            .map(|(i, t)| row(i, "n0", 1, t))
            .collect();
        let b = ColumnBlock::build(0, "MCE", &rows);
        for (i, t) in texts.iter().enumerate() {
            assert_eq!(b.raw(i), *t);
        }
    }

    #[test]
    fn zone_map_and_range_respect_half_open_windows() {
        let b = block();
        assert_eq!((b.min_ts(), b.max_ts()), (Some(100), Some(300)));
        assert!(b.overlaps(0, 101));
        assert!(!b.overlaps(0, 100), "to is exclusive");
        assert!(b.overlaps(300, 400), "from is inclusive");
        assert!(!b.overlaps(301, 400));
        assert_eq!(b.range(100, 300), 0..2);
        assert_eq!(b.range(150, 1000), 1..3);
        assert_eq!(b.range(400, 500), 3..3);
        let empty = ColumnBlock::build(0, "MCE", &[]);
        assert!(!empty.overlaps(i64::MIN, i64::MAX));
    }

    #[test]
    fn malformed_rows_are_skipped_like_the_row_path() {
        let bad = Row::new(Key::from(vec![Value::text("not a ts")]), []);
        let b = ColumnBlock::build(0, "MCE", &[bad, row(5, "n0", 1, "x")]);
        assert_eq!(b.len(), 1);
        assert_eq!(b.ts, vec![5]);
    }

    #[test]
    fn node_index_is_parsed_once_and_charged_from_the_build() {
        let topo = Topology::scaled(1, 1);
        let rows = [
            row(100, "c0-0c0s0n0", 1, "a"),
            row(200, "mds01", 1, "b"),
            row(300, "c0-0c0s1n2", 1, "c"),
        ];
        let b = ColumnBlock::build(0, "MCE", &rows);
        let charged = b.footprint();
        let nodes = b.nodes(&topo);
        let parsed: Vec<Option<u32>> = b
            .dict
            .iter()
            .map(|s| topo.parse_cname(s).map(|i| i as u32))
            .collect();
        assert_eq!(nodes, parsed);
        assert_eq!(nodes[1], None, "mds01 is no compute node");
        assert!(
            std::ptr::eq(nodes, b.nodes(&topo)),
            "a second call returns the same slice"
        );
        assert_eq!(b.footprint(), charged, "resolving changes no charge");
        // One more distinct source of the same length costs its string,
        // its header and its index slot.
        let other = ColumnBlock::build(
            0,
            "MCE",
            &[
                rows[0].clone(),
                rows[1].clone(),
                row(300, "c0-0c0s1n3", 1, "c"),
            ],
        );
        let same = ColumnBlock::build(
            0,
            "MCE",
            &[
                rows[0].clone(),
                rows[1].clone(),
                row(300, "c0-0c0s0n0", 1, "c"),
            ],
        );
        assert_eq!(
            other.footprint() - same.footprint(),
            "c0-0c0s1n3".len() + 24 + size_of::<Option<u32>>()
        );
    }

    #[test]
    #[should_panic(expected = "one topology")]
    fn node_index_refuses_a_second_topology() {
        let b = block();
        b.nodes(&Topology::scaled(1, 1));
        b.nodes(&Topology::scaled(2, 2));
    }

    #[test]
    fn slots_report_present_slots_and_unattributed_rows() {
        let b = block();
        let mut slots = Slots::new(3);
        // Row 0 → slot 2, row 1 → no slot, row 2 → slot 0.
        slots.fold(&b, 0..3, |i| [Some(2), None, Some(0)][i]);
        assert_eq!(slots.sums, vec![3.0, 0.0, 1.0]);
        assert_eq!(slots.unattributed, 2.0);
        assert_eq!(
            slots.iter_present().collect::<Vec<_>>(),
            [(0, 3.0), (2, 1.0)]
        );
        let zero = ColumnBlock::build(0, "MCE", &[row(1, "n0", 0, "")]);
        let mut slots = Slots::new(2);
        slots.fold(&zero, 0..1, |_| Some(1));
        assert_eq!(
            slots.iter_present().collect::<Vec<_>>(),
            [(1, 0.0)],
            "a slot that only zero amounts reached is still present"
        );
    }

    /// A cluster with one table whose partition 0 stands in for the
    /// block's hour partition.
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

    fn stamp(c: &Cluster) -> Stamp {
        let partition = DecoratedKey::new(Key::from(vec![Value::BigInt(0)]));
        Stamp::take(c, [("t".to_owned(), partition)])
    }

    #[test]
    fn store_validates_version_and_epoch_snapshots() {
        let c = cluster();
        let store = ColumnarStore::new(1 << 20);
        store.insert(Arc::new(block()), stamp(&c));
        assert!(store.get(&c, 0, "MCE").is_some());
        // Data-version bump → stale → dropped and rebuilt by the caller.
        let row = vec![
            ("pk", Value::BigInt(0)),
            ("ck", Value::BigInt(0)),
            ("v", Value::Int(1)),
        ];
        c.insert("t", row, Consistency::One).unwrap();
        assert!(store.get(&c, 0, "MCE").is_none());
        assert!(store.get(&c, 0, "MCE").is_none(), "stale entry dropped");
        store.insert(Arc::new(block()), stamp(&c));
        // Topology-epoch bump behaves identically.
        c.take_node_down(rasdb::ring::NodeId(1));
        assert!(store.get(&c, 0, "MCE").is_none());
        let s = store.stats();
        assert_eq!(s.blocks_built, 2);
        assert_eq!(s.invalidations, 2);
        assert_eq!(s.hits, 1);
        assert!(s.misses >= 3);
    }

    #[test]
    fn store_budget_bounds_residency() {
        let c = cluster();
        let store = ColumnarStore::new(1 << 20);
        for h in 0..8 {
            let mut b = block();
            b.hour = h;
            store.insert(Arc::new(b), stamp(&c));
        }
        assert_eq!(store.stats().blocks_resident, 8);
        let evicted = store.set_budget(1);
        assert_eq!(evicted, 8, "shrinking the budget evicts LRU-first");
        assert_eq!(store.stats().blocks_resident, 0);
        assert_eq!(store.stats().bytes_resident, 0);
    }
}
