//! The framework facade: a co-located storage + compute cluster plus the
//! message bus, schema, and machine description.

use crate::columnar::{ColumnBlock, ColumnarStore, WindowScan};
use crate::model::event::EventRecord;
use crate::model::{apprun::AppRun, keys, nodeinfo, tables};
use crate::server::cache::ResultCache;
use logbus::Broker;
use loggen::events::EVENT_CATALOG;
use loggen::topology::Topology;
use rasdb::cache::Stamp;
use rasdb::cluster::{full_range, Cluster, ClusterConfig};
use rasdb::error::DbError;
use rasdb::query::{Consistency, ReadPlan};
use rasdb::types::Value;
use rasdb::DecoratedKey;
use sparklet::context::current_worker;
use sparklet::{Rdd, SparkletContext};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// Deployment parameters.
#[derive(Debug, Clone)]
pub struct FrameworkConfig {
    /// Storage nodes (the paper's CADES deployment uses 32 VMs).
    pub db_nodes: usize,
    /// Replication factor.
    pub replication_factor: usize,
    /// Vnodes per storage node.
    pub vnodes: usize,
    /// Executors: the most threads one sparklet job runs on, started for
    /// the job and joined before it returns. `None` co-locates one
    /// executor per storage node, mirroring "a pair of a Spark worker node
    /// and a Cassandra node".
    pub workers: Option<usize>,
    /// The machine being monitored.
    pub topology: Topology,
    /// Default consistency level for framework operations.
    pub consistency: Consistency,
    /// Simulated interconnect bandwidth for non-co-located partition
    /// reads, in bytes/second (`None` = infinitely fast network). The
    /// paper's deployment avoids this cost entirely by pairing each Spark
    /// worker with the Cassandra node holding its partitions; benches use
    /// this parameter to reproduce that comparison (1 Gbit/s default,
    /// a typical virtualized-cluster link).
    pub remote_link_bytes_per_sec: Option<u64>,
    /// Byte budget for the column-block store (0 keeps no block
    /// resident).
    pub columnar_cache_bytes: usize,
    /// Byte budget for the analytics result cache (0 disables it).
    pub result_cache_bytes: usize,
}

impl Default for FrameworkConfig {
    fn default() -> Self {
        FrameworkConfig {
            db_nodes: 8,
            replication_factor: 3,
            vnodes: 16,
            workers: None,
            topology: Topology::scaled(5, 4),
            consistency: Consistency::Quorum,
            remote_link_bytes_per_sec: Some(125_000_000), // 1 Gbit/s
            columnar_cache_bytes: crate::columnar::DEFAULT_COLUMNAR_CACHE_BYTES,
            result_cache_bytes: crate::server::cache::DEFAULT_RESULT_CACHE_BYTES,
        }
    }
}

/// The assembled log-analytics framework.
pub struct Framework {
    cluster: Arc<Cluster>,
    engine: SparkletContext,
    bus: Arc<Broker>,
    topology: Topology,
    consistency: Consistency,
    remote_link_bytes_per_sec: Option<u64>,
    result_cache: ResultCache,
    columnar: ColumnarStore,
    /// Highest timestamp streaming ingestion has committed through;
    /// `i64::MIN` until the first commit.
    ingest_watermark: AtomicI64,
}

/// The bus topic raw log lines are published to.
pub const RAW_LOG_TOPIC: &str = "raw-logs";

/// The dead-letter topic: lines that failed parsing and events that
/// exhausted their store retries land here for inspection/requeue.
pub const RAW_LOG_DLQ_TOPIC: &str = "raw-logs.dlq";

impl Framework {
    /// Builds the cluster, creates the schema, loads `nodeinfos` and
    /// `eventtypes`, and provisions the streaming topic.
    pub fn new(cfg: FrameworkConfig) -> Result<Framework, DbError> {
        let cluster = Arc::new(Cluster::new(ClusterConfig {
            nodes: cfg.db_nodes,
            replication_factor: cfg.replication_factor,
            vnodes: cfg.vnodes,
        }));
        tables::create_all(&cluster)?;
        nodeinfo::populate(&cluster, &cfg.topology)?;
        for etype in EVENT_CATALOG {
            cluster.insert(
                "eventtypes",
                vec![
                    ("name", Value::text(etype.name)),
                    ("class", Value::text(format!("{:?}", etype.class))),
                    ("severity", Value::text(format!("{:?}", etype.severity))),
                    ("description", Value::text(etype.description)),
                ],
                cfg.consistency,
            )?;
        }
        let bus = Arc::new(Broker::new());
        bus.create_topic(RAW_LOG_TOPIC, cfg.db_nodes.max(1))
            .expect("fresh broker");
        bus.create_topic(RAW_LOG_DLQ_TOPIC, cfg.db_nodes.max(1))
            .expect("fresh broker");
        let workers = cfg.workers.unwrap_or(cfg.db_nodes).max(1);
        Ok(Framework {
            cluster,
            engine: SparkletContext::new(workers),
            bus,
            topology: cfg.topology,
            consistency: cfg.consistency,
            remote_link_bytes_per_sec: cfg.remote_link_bytes_per_sec,
            result_cache: ResultCache::new(cfg.result_cache_bytes),
            columnar: ColumnarStore::new(cfg.columnar_cache_bytes),
            ingest_watermark: AtomicI64::new(i64::MIN),
        })
    }

    /// The storage cluster.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// The processing engine.
    pub fn engine(&self) -> &SparkletContext {
        &self.engine
    }

    /// The message bus.
    pub fn bus(&self) -> &Arc<Broker> {
        &self.bus
    }

    /// The monitored machine.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The framework's default consistency level.
    pub fn consistency(&self) -> Consistency {
        self.consistency
    }

    /// The analytics result cache (see [`crate::server::cache`]).
    pub fn result_cache(&self) -> &ResultCache {
        &self.result_cache
    }

    /// The columnar block store (see [`crate::columnar`]), sized by
    /// [`FrameworkConfig::columnar_cache_bytes`]; with a zero budget no
    /// block is retained and every scan builds transient ones.
    pub fn columnar(&self) -> &ColumnarStore {
        &self.columnar
    }

    /// The streaming ingest watermark: every event at or below this
    /// timestamp has been committed by streaming ingestion. `i64::MIN`
    /// until the first commit. Neither the caches nor the scans consult
    /// it: a cached answer is current exactly when its stamp is (§9).
    pub fn ingest_watermark(&self) -> i64 {
        self.ingest_watermark.load(Ordering::SeqCst)
    }

    /// Records a streaming commit through `watermark_ms`: advances the
    /// ingest watermark (monotonically). Called by
    /// [`StreamIngester`](crate::etl::stream::StreamIngester) after each
    /// successful offset commit.
    pub fn note_ingest_commit(&self, watermark_ms: i64) {
        self.ingest_watermark
            .fetch_max(watermark_ms, Ordering::SeqCst);
    }

    /// The `(table, partition)` pairs a window read touches — one per
    /// hour bucket, taken from [`Framework::window_plans`] with their
    /// decorated keys. Result-cache entries list these as their
    /// dependencies so a write to any of them invalidates the memoized
    /// answer, and a hit validates them without hashing a key.
    pub fn window_deps(
        table: &str,
        fixed: Option<&str>,
        from_ms: i64,
        to_ms: i64,
    ) -> Vec<(String, DecoratedKey)> {
        Self::window_plans(table, fixed, from_ms, to_ms)
            .into_iter()
            .map(|p| (p.table, p.partition))
            .collect()
    }

    /// Inserts one event into both event tables (the dual views).
    pub fn insert_event(&self, ev: &EventRecord) -> Result<(), DbError> {
        self.insert_events(std::slice::from_ref(ev)).map(drop)
    }

    /// Inserts a batch of events into both views; returns rows written.
    /// Both views are attempted, as [`Cluster::insert_batch`] attempts
    /// every row, before the first shortfall is returned, so an outage
    /// leaves neither view behind the other.
    pub fn insert_events(&self, events: &[EventRecord]) -> Result<usize, DbError> {
        let time_rows = events.iter().map(EventRecord::to_time_row).collect();
        let loc_rows = events.iter().map(EventRecord::to_location_row).collect();
        let by_time = self
            .cluster
            .insert_batch("event_by_time", time_rows, self.consistency);
        let by_location =
            self.cluster
                .insert_batch("event_by_location", loc_rows, self.consistency);
        Ok(by_time? + by_location?)
    }

    /// Inserts an application run into all four denormalized views.
    pub fn insert_app_run(&self, run: &AppRun) -> Result<(), DbError> {
        self.cluster
            .insert_owned("application_by_time", run.to_time_row(), self.consistency)?;
        self.cluster
            .insert_owned("application_by_name", run.to_name_row(), self.consistency)?;
        self.cluster
            .insert_owned("application_by_user", run.to_user_row(), self.consistency)?;
        self.cluster.insert_owned(
            "application_by_location",
            run.to_location_row(),
            self.consistency,
        )
    }

    /// Builds one [`ReadPlan`] per hour bucket of `[from_ms, to_ms)` —
    /// partition key `(hour)` or `(hour, fixed)`, decorated once here —
    /// for a single [`Cluster::read_multi`] scatter instead of an
    /// hour-by-hour loop.
    /// Sparklet scans consume the same batches (see
    /// [`Framework::scan_events_rdd`]), so driver-side reads and
    /// owner-pinned tasks share one planning path.
    pub fn window_plans(
        table: &str,
        fixed: Option<&str>,
        from_ms: i64,
        to_ms: i64,
    ) -> Vec<ReadPlan> {
        keys::hours_in(from_ms, to_ms)
            .map(|hour| {
                let mut pk = vec![Value::BigInt(hour)];
                if let Some(f) = fixed {
                    pk.push(Value::text(f));
                }
                ReadPlan {
                    table: table.to_owned(),
                    partition: DecoratedKey::new(pk.into()),
                    range: full_range(),
                    limit: None,
                    descending: false,
                }
            })
            .collect()
    }

    /// Driver-side read of one event type over `[from_ms, to_ms)`: one
    /// scatter-gather batch across all hour partitions.
    pub fn events_by_type(
        &self,
        event_type: &str,
        from_ms: i64,
        to_ms: i64,
    ) -> Result<Vec<EventRecord>, DbError> {
        let plans = Self::window_plans("event_by_time", Some(event_type), from_ms, to_ms);
        let batches = self.cluster.read_multi(&plans, self.consistency)?;
        let event_type: Arc<str> = event_type.into();
        Ok(batches
            .iter()
            .flat_map(|rows| rows.iter())
            .filter_map(|r| EventRecord::from_time_row(&event_type, r))
            .filter(|e| e.ts_ms >= from_ms && e.ts_ms < to_ms)
            .collect())
    }

    /// Columnar analytics scan of one event type over `[from_ms, to_ms)`.
    ///
    /// Every hour of the window is served the same way, from a
    /// [`ColumnBlock`]: the store is probed, and every hour that misses is
    /// stamped (its data version and the topology epoch, *before* any row
    /// is read, as every cache tier stamps), fetched in one
    /// [`Cluster::read_multi`] scatter, built and stored. A still-filling
    /// hour is simply a block whose version moves often — the next scan
    /// after a write drops and rebuilds it. Blocks whose timestamp zone map
    /// cannot overlap the window are skipped without touching a row.
    /// Results are byte-identical to [`Framework::events_by_type`], and a
    /// read error fails the scan.
    pub fn scan_window(
        &self,
        event_type: &str,
        from_ms: i64,
        to_ms: i64,
    ) -> Result<WindowScan, DbError> {
        // One slot per hour of the window; an hour the store cannot serve
        // stays `None` until the batched read below fills it.
        let mut blocks: Vec<Option<Arc<ColumnBlock>>> = Vec::new();
        let mut missing: Vec<(usize, i64, Stamp)> = Vec::new();
        let mut plans: Vec<ReadPlan> = Vec::new();
        let hourly = Self::window_plans("event_by_time", Some(event_type), from_ms, to_ms);
        for (hour, plan) in keys::hours_in(from_ms, to_ms).zip(hourly) {
            let cached = self.columnar.get(&self.cluster, hour, event_type);
            if cached.is_none() {
                let stamp = Stamp::take(
                    &self.cluster,
                    [(plan.table.clone(), plan.partition.clone())],
                );
                missing.push((blocks.len(), hour, stamp));
                plans.push(plan);
            }
            blocks.push(cached);
        }
        if !plans.is_empty() {
            let batches = self.cluster.read_multi(&plans, self.consistency)?;
            for ((slot, hour, stamp), rows) in missing.into_iter().zip(batches) {
                let block = Arc::new(ColumnBlock::build(hour, event_type, &rows));
                self.columnar.insert(Arc::clone(&block), stamp);
                blocks[slot] = Some(block);
            }
        }
        let mut parts = Vec::with_capacity(blocks.len());
        for block in blocks.into_iter().flatten() {
            if block.overlaps(from_ms, to_ms) {
                parts.push(block);
            } else {
                self.columnar.note_zone_skip();
            }
        }
        Ok(WindowScan {
            from_ms,
            to_ms,
            parts,
        })
    }

    /// Driver-side read of everything one source reported in a window —
    /// served by `event_by_location` without scanning other sources, as
    /// one scatter-gather batch.
    pub fn events_by_source(
        &self,
        source: &str,
        from_ms: i64,
        to_ms: i64,
    ) -> Result<Vec<EventRecord>, DbError> {
        let plans = Self::window_plans("event_by_location", Some(source), from_ms, to_ms);
        let batches = self.cluster.read_multi(&plans, self.consistency)?;
        let source: Arc<str> = source.into();
        Ok(batches
            .iter()
            .flat_map(|rows| rows.iter())
            .filter_map(|r| EventRecord::from_location_row(&source, r))
            .filter(|e| e.ts_ms >= from_ms && e.ts_ms < to_ms)
            .collect())
    }

    /// A locality-aware scan: one RDD partition per `(hour, type)` store
    /// partition — the same plan batch `events_by_type` scatters — each
    /// pinned to the executor co-located with the partition's primary
    /// replica. When a partition is computed on a *different* executor,
    /// the loader pays a marshalling round trip (encode + decode of every
    /// cell) — the cost a co-located deployment avoids.
    ///
    /// This is the co-location experiment's scan (EXPERIMENTS C3,
    /// `benches/locality.rs`); no dashboard op reaches it — analytics read
    /// through [`Framework::scan_window`]. A partition whose read fails
    /// yields no records here.
    pub fn scan_events_rdd(&self, event_type: &str, from_ms: i64, to_ms: i64) -> Rdd<EventRecord> {
        let workers = self.engine.workers();
        let plans: Vec<(ReadPlan, usize)> =
            Self::window_plans("event_by_time", Some(event_type), from_ms, to_ms)
                .into_iter()
                .map(|plan| {
                    let owner = self.cluster.owners(plan.partition.key())[0].0 % workers;
                    (plan, owner)
                })
                .collect();
        let cluster = Arc::clone(&self.cluster);
        let event_type: Arc<str> = event_type.into();
        let consistency = self.consistency;
        let link = self.remote_link_bytes_per_sec;
        self.engine.from_planned(
            plans,
            |p| Some(p.1),
            move |(plan, owner)| {
                let rows = cluster
                    .read_multi(std::slice::from_ref(plan), consistency)
                    .map(|mut b| b.pop().unwrap_or_default())
                    .unwrap_or_default();
                let records: Vec<EventRecord> = rows
                    .iter()
                    .filter_map(|r| EventRecord::from_time_row(&event_type, r))
                    .filter(|e| e.ts_ms >= from_ms && e.ts_ms < to_ms)
                    .collect();
                if current_worker() == Some(*owner) {
                    records
                } else {
                    remote_transfer(records, link)
                }
            },
        )
    }

    /// Application runs of a user.
    pub fn apps_by_user(&self, user: &str) -> Result<Vec<AppRun>, DbError> {
        let rows = self
            .cluster
            .select("application_by_user")
            .partition(vec![Value::text(user)])
            .run(self.consistency)?;
        Ok(rows
            .iter()
            .filter_map(|r| AppRun::from_row(r, Some(user), None))
            .collect())
    }

    /// Application runs of an application name.
    pub fn apps_by_name(&self, app: &str) -> Result<Vec<AppRun>, DbError> {
        let rows = self
            .cluster
            .select("application_by_name")
            .partition(vec![Value::text(app)])
            .run(self.consistency)?;
        Ok(rows
            .iter()
            .filter_map(|r| AppRun::from_row(r, None, Some(app)))
            .collect())
    }

    /// Application runs that *started* in a window, as one scatter-gather
    /// batch across the hour partitions.
    pub fn apps_by_time(&self, from_ms: i64, to_ms: i64) -> Result<Vec<AppRun>, DbError> {
        let plans = Self::window_plans("application_by_time", None, from_ms, to_ms);
        let batches = self.cluster.read_multi(&plans, self.consistency)?;
        Ok(batches
            .iter()
            .flat_map(|rows| rows.iter())
            .filter_map(|r| AppRun::from_row(r, None, None))
            .filter(|a| a.start_ms >= from_ms && a.start_ms < to_ms)
            .collect())
    }

    /// Application runs whose allocation head sits in a cabinet.
    pub fn apps_by_location(&self, cabinet: i64) -> Result<Vec<AppRun>, DbError> {
        let rows = self
            .cluster
            .select("application_by_location")
            .partition(vec![Value::BigInt(cabinet)])
            .run(self.consistency)?;
        Ok(rows
            .iter()
            .filter_map(|r| AppRun::from_row(r, None, None))
            .collect())
    }

    /// Batch ETL entry point (see [`crate::etl::batch`]).
    pub fn batch_import(
        &self,
        lines: &[loggen::trace::RawLine],
    ) -> Result<crate::etl::batch::ImportReport, DbError> {
        crate::etl::batch::import(self, lines)
    }

    /// Chunk-parallel batch ETL over a raw newline-separated corpus —
    /// the zero-copy fast path with optional predicate pushdown and
    /// backend selection (see [`crate::etl::batch::import_bytes`]).
    pub fn batch_import_bytes(
        &self,
        corpus: Vec<u8>,
        opts: &crate::etl::batch::ImportOptions,
    ) -> Result<crate::etl::batch::ImportReport, DbError> {
        crate::etl::batch::import_bytes(self, corpus, opts)
    }

    /// Human-readable table of every instrument in the global telemetry
    /// registry (counters, gauges, and latency histograms with
    /// p50/p95/p99/max). For the machine-readable form use the `metrics`
    /// query op or `GET /v1/metrics`.
    pub fn telemetry_report(&self) -> String {
        telemetry::global().render_table()
    }
}

/// Simulates fetching a record set from a non-co-located storage node:
/// marshals every row (real CPU work) and charges the wire time of the
/// marshalled bytes against the configured link bandwidth.
pub fn remote_transfer(
    records: Vec<EventRecord>,
    link_bytes_per_sec: Option<u64>,
) -> Vec<EventRecord> {
    let bytes: usize = records.iter().map(EventRecord::marshalled_size).sum();
    let records = marshal_roundtrip(records);
    if let Some(bw) = link_bytes_per_sec {
        let nanos = (bytes as u128 * 1_000_000_000) / bw.max(1) as u128;
        std::thread::sleep(std::time::Duration::from_nanos(nanos as u64));
    }
    records
}

/// Simulates network marshalling of a record set: every cell is encoded to
/// bytes and decoded back (what a non-co-located read pays per row).
pub fn marshal_roundtrip(records: Vec<EventRecord>) -> Vec<EventRecord> {
    records
        .into_iter()
        .map(|ev| {
            let values = vec![
                Value::Timestamp(ev.ts_ms),
                Value::text(&ev.event_type),
                Value::text(&ev.source),
                Value::Int(ev.amount),
                Value::text(&ev.raw),
            ];
            let mut buf = Vec::with_capacity(64 + ev.raw.len());
            for v in &values {
                v.encode_into(&mut buf);
            }
            let mut rest: &[u8] = &buf;
            let mut decoded = Vec::with_capacity(values.len());
            while !rest.is_empty() {
                let (v, r) = Value::decode(rest).expect("self-encoded data");
                decoded.push(v);
                rest = r;
            }
            EventRecord {
                ts_ms: decoded[0].as_i64().expect("ts"),
                event_type: decoded[1].as_text().expect("type").into(),
                source: decoded[2].as_text().expect("source").into(),
                amount: decoded[3].as_i64().expect("amount") as i32,
                raw: decoded[4].as_text().expect("raw").into(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::keys::HOUR_MS;

    fn small() -> Framework {
        Framework::new(FrameworkConfig {
            db_nodes: 4,
            replication_factor: 2,
            vnodes: 8,
            workers: None,
            topology: Topology::scaled(2, 2),
            consistency: Consistency::Quorum,
            ..Default::default()
        })
        .unwrap()
    }

    fn ev(ts: i64, t: &str, src: &str) -> EventRecord {
        EventRecord {
            ts_ms: ts,
            event_type: t.into(),
            source: src.into(),
            amount: 1,
            raw: format!("{t} on {src}").into(),
        }
    }

    #[test]
    fn framework_boots_with_schema_and_metadata() {
        let fw = small();
        assert_eq!(fw.cluster().table_names().len(), 9);
        // nodeinfos populated for the whole topology.
        let info = nodeinfo::lookup(fw.cluster(), "c1-1c2s7n3")
            .unwrap()
            .unwrap();
        assert_eq!(info.index, fw.topology().node_count() - 1);
        // eventtypes loaded.
        let rows = fw
            .cluster()
            .select("eventtypes")
            .partition(vec![Value::text("MCE")])
            .run(Consistency::Quorum)
            .unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn dual_views_stay_consistent() {
        let fw = small();
        for i in 0..20 {
            fw.insert_event(&ev(i * 60_000, "MCE", &format!("c0-0c0s{}n0", i % 8)))
                .unwrap();
        }
        let by_type = fw.events_by_type("MCE", 0, HOUR_MS).unwrap();
        assert_eq!(by_type.len(), 20);
        let by_src = fw.events_by_source("c0-0c0s3n0", 0, HOUR_MS).unwrap();
        assert!(!by_src.is_empty());
        // Every by-source record also appears in the by-type view.
        for e in &by_src {
            assert!(by_type.contains(e));
        }
    }

    #[test]
    fn an_outage_still_writes_the_location_view() {
        let fw = Framework::new(FrameworkConfig {
            db_nodes: 4,
            replication_factor: 3,
            vnodes: 8,
            topology: Topology::scaled(2, 2),
            ..Default::default()
        })
        .unwrap();
        for n in [1, 2] {
            fw.cluster().take_node_down(rasdb::ring::NodeId(n));
        }
        let events: Vec<EventRecord> = (0..6)
            .flat_map(|h| ["MCE", "GPU_DBE"].map(|t| (h, t)))
            .enumerate()
            .map(|(i, (h, t))| ev(h * HOUR_MS + i as i64, t, &format!("c0-0c0s{}n0", i % 4)))
            .collect();
        // A partition with both down nodes among its replicas misses quorum.
        assert!(matches!(
            fw.insert_events(&events),
            Err(DbError::Unavailable { .. })
        ));
        for e in &events {
            let plans =
                Framework::window_plans("event_by_location", Some(&e.source), 0, 6 * HOUR_MS);
            let rows = fw.cluster().read_multi(&plans, Consistency::One).unwrap();
            let mut stored = rows.iter().flat_map(|b| b.iter());
            assert!(
                stored.any(|r| EventRecord::from_location_row(&e.source, r).as_ref() == Some(e)),
                "{e:?} stored in event_by_location"
            );
        }
    }

    #[test]
    fn records_read_back_share_the_stored_text() {
        let fw = small();
        let written = ev(5, "MCE", "c0-0c0s0n0");
        fw.insert_event(&written).unwrap();
        let rows = fw
            .cluster()
            .select("event_by_time")
            .partition(vec![Value::BigInt(0), Value::text("MCE")])
            .run(Consistency::Quorum)
            .unwrap();
        let Some(Value::Text(stored)) = rows[0].cell("raw") else {
            panic!("a stored raw message")
        };
        assert!(Arc::ptr_eq(stored, &written.raw), "one copy, written once");
        let by_type = fw.events_by_type("MCE", 0, HOUR_MS).unwrap();
        let by_source = fw.events_by_source("c0-0c0s0n0", 0, HOUR_MS).unwrap();
        for record in [&by_type[0], &by_source[0]] {
            assert_eq!(*record, written);
            assert!(
                Arc::ptr_eq(&record.raw, stored),
                "the record shares the row's raw"
            );
        }
    }

    #[test]
    fn time_window_filters_are_half_open() {
        let fw = small();
        fw.insert_event(&ev(999, "MCE", "c0-0c0s0n0")).unwrap();
        fw.insert_event(&ev(1000, "MCE", "c0-0c0s0n0")).unwrap();
        let got = fw.events_by_type("MCE", 0, 1000).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].ts_ms, 999);
    }

    #[test]
    fn scan_rdd_covers_hours_and_counts_match() {
        let fw = small();
        for h in 0..3i64 {
            for i in 0..10 {
                fw.insert_event(&ev(h * HOUR_MS + i * 1000, "GPU_DBE", "c0-0c0s0n0"))
                    .unwrap();
            }
        }
        let rdd = fw.scan_events_rdd("GPU_DBE", 0, 3 * HOUR_MS);
        assert_eq!(rdd.num_partitions(), 3);
        assert_eq!(rdd.count(), 30);
        // Scans respect the window even mid-hour.
        let rdd = fw.scan_events_rdd("GPU_DBE", 5_000, HOUR_MS + 5_000);
        assert_eq!(rdd.count(), 10);
        // Same rows as the driver-side read under either placement; without
        // locality, non-owner partitions cross `remote_transfer`'s marshal
        // round trip, which must be lossless.
        for (from, to) in [(0, 3 * HOUR_MS), (5_000, HOUR_MS + 5_000)] {
            let want = fw.events_by_type("GPU_DBE", from, to).unwrap();
            for locality in [true, false] {
                fw.engine().set_locality(locality);
                let mut got = fw.scan_events_rdd("GPU_DBE", from, to).collect();
                got.sort_by_key(|e| e.ts_ms);
                assert_eq!(got, want, "locality {locality}, window {from}..{to}");
            }
        }
    }

    #[test]
    fn app_run_views_roundtrip() {
        let fw = small();
        let run = AppRun {
            apid: 42,
            user: "usr0007".into(),
            app: "LAMMPS".into(),
            start_ms: HOUR_MS + 5,
            end_ms: 2 * HOUR_MS,
            node_first: 100,
            node_last: 163,
            exit_code: 0,
            other_info: Default::default(),
        };
        fw.insert_app_run(&run).unwrap();
        assert_eq!(fw.apps_by_user("usr0007").unwrap(), vec![run.clone()]);
        assert_eq!(fw.apps_by_name("LAMMPS").unwrap(), vec![run.clone()]);
        assert_eq!(fw.apps_by_time(0, 3 * HOUR_MS).unwrap(), vec![run.clone()]);
        assert_eq!(fw.apps_by_location(run.head_cabinet()).unwrap(), vec![run]);
        assert!(fw.apps_by_user("nobody").unwrap().is_empty());
    }

    /// The scan contract on a framework that never streamed: identical to
    /// the row path, warm rescans come from the store, a write rebuilds
    /// exactly the hour it touched, and the ingest watermark is not an
    /// input.
    #[test]
    fn scan_window_serves_every_hour_from_blocks() {
        let fw = small();
        for h in 0..3i64 {
            for i in 0..12 {
                fw.insert_event(&ev(
                    h * HOUR_MS + i * 5 * 60_000,
                    "MCE",
                    &format!("c0-0c0s{}n1", i % 4),
                ))
                .unwrap();
            }
        }
        assert_eq!(fw.ingest_watermark(), i64::MIN, "never streamed");
        let (from, to) = (30 * 60_000, 3 * HOUR_MS);
        let scan = fw.scan_window("MCE", from, to).unwrap();
        assert_eq!(scan.parts.len(), 3);
        let rows = fw.events_by_type("MCE", from, to).unwrap();
        assert_eq!(scan.records(), rows);
        let cold = fw.columnar().stats();
        assert_eq!((cold.blocks_built, cold.hits, cold.misses), (3, 0, 3));
        // Identical rescans are served from the store wherever the ingest
        // watermark sits: never moved, below, inside or above the window.
        for (n, watermark) in [(1, i64::MIN), (2, 0), (3, HOUR_MS + 7), (4, 10 * HOUR_MS)] {
            fw.note_ingest_commit(watermark);
            assert_eq!(fw.scan_window("MCE", from, to).unwrap().records(), rows);
            let s = fw.columnar().stats();
            assert_eq!((s.blocks_built, s.hits, s.misses), (3, 3 * n, 3));
        }
        // A write into hour 1 bumps that partition's data version: its
        // block is dropped and rebuilt once, the other two still hit.
        fw.insert_event(&ev(HOUR_MS + 500, "MCE", "c0-0c0s0n0"))
            .unwrap();
        let before = fw.columnar().stats();
        for rescans in 1..=2 {
            let repaired = fw.scan_window("MCE", 0, 3 * HOUR_MS).unwrap();
            assert_eq!(
                repaired.records(),
                fw.events_by_type("MCE", 0, 3 * HOUR_MS).unwrap()
            );
            let s = fw.columnar().stats();
            assert_eq!(s.blocks_built, before.blocks_built + 1);
            assert_eq!(s.invalidations, before.invalidations + 1);
            assert_eq!(s.hits, before.hits + 3 * rescans - 1);
        }
    }

    /// Zone-map edge cases: empty windows produce no parts, and blocks
    /// that cannot overlap the window are skipped without a scan.
    #[test]
    fn scan_window_zone_map_edges() {
        let fw = small();
        // Events only in the first 10 minutes of hour 0.
        for i in 0..10 {
            fw.insert_event(&ev(i * 60_000, "GPU_DBE", "c0-0c0s0n0"))
                .unwrap();
        }
        // Empty window (from == to): no hours, no parts.
        assert!(fw
            .scan_window("GPU_DBE", HOUR_MS, HOUR_MS)
            .unwrap()
            .parts
            .is_empty());
        // Prime the hour-0 block with a full scan.
        let full = fw.scan_window("GPU_DBE", 0, HOUR_MS).unwrap();
        assert_eq!(full.records().len(), 10);
        let skips = fw.columnar().stats().zone_skips;
        // A late sub-window of hour 0 misses the block's [0, 9min] zone
        // map entirely: the block is skipped, nothing is scanned.
        let late = fw.scan_window("GPU_DBE", 30 * 60_000, HOUR_MS).unwrap();
        assert!(late.parts.is_empty());
        assert!(late.records().is_empty());
        assert_eq!(fw.columnar().stats().zone_skips, skips + 1);
        // Window edges inside the block binary-search to exact rows.
        let edge = fw.scan_window("GPU_DBE", 60_000, 4 * 60_000).unwrap();
        assert_eq!(
            edge.records(),
            fw.events_by_type("GPU_DBE", 60_000, 4 * 60_000).unwrap()
        );
        // An hour nothing was written to is an empty block like any
        // other: built, stored, and skipped by its (empty) zone map.
        let built = fw.columnar().stats().blocks_built;
        for _ in 0..2 {
            let empty = fw.scan_window("GPU_DBE", 2 * HOUR_MS, 3 * HOUR_MS).unwrap();
            assert!(empty.parts.is_empty());
        }
        let s = fw.columnar().stats();
        assert_eq!(s.blocks_built, built + 1);
        assert_eq!(s.zone_skips, skips + 3);
    }

    /// A zero budget means "blocks are transient", not a different scan:
    /// the same records come back and nothing is ever resident.
    #[test]
    fn zero_budget_keeps_blocks_transient() {
        let fw = Framework::new(FrameworkConfig {
            db_nodes: 2,
            replication_factor: 1,
            vnodes: 4,
            topology: Topology::scaled(1, 1),
            columnar_cache_bytes: 0,
            ..Default::default()
        })
        .unwrap();
        fw.insert_event(&ev(5, "MCE", "c0-0c0s0n0")).unwrap();
        fw.insert_event(&ev(HOUR_MS + 5, "MCE", "c0-0c0s1n0"))
            .unwrap();
        let rows = fw.events_by_type("MCE", 0, 2 * HOUR_MS).unwrap();
        for scans in 1..=2 {
            let scan = fw.scan_window("MCE", 0, 2 * HOUR_MS).unwrap();
            assert_eq!(scan.records(), rows);
            let s = fw.columnar().stats();
            assert_eq!((s.blocks_built, s.hits), (2 * scans, 0));
            assert_eq!((s.blocks_resident, s.bytes_resident), (0, 0));
        }
    }

    #[test]
    fn marshal_roundtrip_is_identity() {
        let records = vec![
            ev(1, "MCE", "c0-0c0s0n0"),
            ev(2, "LUSTRE_ERR", "c1-0c0s0n0"),
        ];
        assert_eq!(marshal_roundtrip(records.clone()), records);
    }

    #[test]
    fn remote_transfer_charges_wire_time() {
        let records: Vec<EventRecord> = (0..50)
            .map(|i| {
                let mut e = ev(i, "LUSTRE_ERR", "c0-0c0s0n0");
                e.raw = "x".repeat(1000).into();
                e
            })
            .collect();
        // ~52 KB at 1 MB/s ≈ 52 ms; at None it must be fast.
        let t = std::time::Instant::now();
        let out = remote_transfer(records.clone(), Some(1_000_000));
        let slow = t.elapsed();
        assert_eq!(out, records);
        assert!(slow >= std::time::Duration::from_millis(30), "{slow:?}");
        let t = std::time::Instant::now();
        let _ = remote_transfer(records, None);
        assert!(t.elapsed() < slow);
    }
}
