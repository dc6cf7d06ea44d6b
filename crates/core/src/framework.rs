//! The framework facade: a co-located storage + compute cluster plus the
//! message bus, schema, and machine description.

use crate::columnar::{ColumnBlock, ColumnarStore, WindowScan};
use crate::etl::EtlStats;
use crate::model::event::EventRecord;
use crate::model::{apprun::AppRun, keys, nodeinfo, tables};
use crate::server::cache::ResultCache;
use logbus::Broker;
use loggen::events::EVENT_CATALOG;
use loggen::topology::Topology;
use rasdb::cache::Stamp;
use rasdb::cluster::{full_range, Cluster, ClusterConfig};
use rasdb::error::DbError;
use rasdb::node::NodeConfig;
use rasdb::query::{Consistency, ReadPlan};
use rasdb::types::Value;
use rasdb::DecoratedKey;
use sparklet::{Rdd, SparkletContext};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use telemetry::Registry;

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
    /// Does nothing: no read crosses a simulated link, so there is no
    /// wire time to charge. Kept only because the pipeline benchmark sets
    /// it; ROADMAP item 1(a) deletes it.
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
            remote_link_bytes_per_sec: None,
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
    result_cache: ResultCache,
    columnar: ColumnarStore,
    /// This deployment's instruments, spans and trace ring included (§6).
    telemetry: Arc<Registry>,
    etl_stats: EtlStats,
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
    /// `eventtypes`, and provisions the streaming topic. Every part gets
    /// the one registry the framework creates.
    pub fn new(cfg: FrameworkConfig) -> Result<Framework, DbError> {
        let telemetry = Arc::new(Registry::default());
        let cluster_cfg = ClusterConfig {
            nodes: cfg.db_nodes,
            replication_factor: cfg.replication_factor,
            vnodes: cfg.vnodes,
        };
        let cluster = Cluster::with_telemetry(cluster_cfg, NodeConfig::default(), &telemetry);
        let cluster = Arc::new(cluster);
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
        let bus = Arc::new(Broker::with_telemetry(&telemetry));
        bus.create_topic(RAW_LOG_TOPIC, cfg.db_nodes.max(1))
            .expect("fresh broker");
        bus.create_topic(RAW_LOG_DLQ_TOPIC, cfg.db_nodes.max(1))
            .expect("fresh broker");
        let workers = cfg.workers.unwrap_or(cfg.db_nodes).max(1);
        Ok(Framework {
            cluster,
            engine: SparkletContext::with_telemetry(workers, &telemetry),
            bus,
            topology: cfg.topology,
            consistency: cfg.consistency,
            result_cache: ResultCache::new(cfg.result_cache_bytes, &telemetry),
            columnar: ColumnarStore::new(cfg.columnar_cache_bytes, &telemetry),
            etl_stats: EtlStats::new(&telemetry),
            telemetry,
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

    /// This deployment's telemetry registry: every instrument of its
    /// cluster, bus, engine, caches, ETL, query engine and HTTP frontend.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.telemetry
    }

    pub(crate) fn etl_stats(&self) -> &EtlStats {
        &self.etl_stats
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

    /// The `event_by_time` hours of each of `types` over `[from_ms, to_ms)`:
    /// the dependencies of an answer computed from those types' events.
    pub(crate) fn event_deps(
        types: &[&str],
        from_ms: i64,
        to_ms: i64,
    ) -> Vec<(String, DecoratedKey)> {
        let hours = |t: &&str| Self::window_deps("event_by_time", Some(t), from_ms, to_ms);
        types.iter().flat_map(hours).collect()
    }

    /// Inserts one event into both event tables (the dual views).
    pub fn insert_event(&self, ev: &EventRecord) -> Result<(), DbError> {
        self.insert_events(std::slice::from_ref(ev)).map(drop)
    }

    /// Inserts a batch of events into both views; returns rows written.
    /// One [`Cluster::insert_views`] call binds each event once: both views
    /// take their keys from its `event_by_time` row and share its cells and
    /// write timestamp. Both views are attempted before the first shortfall
    /// is returned, so an outage leaves neither view behind the other.
    pub fn insert_events(&self, events: &[EventRecord]) -> Result<usize, DbError> {
        let rows = events.iter().map(EventRecord::to_time_row).collect();
        self.cluster.insert_views(
            &["event_by_time", "event_by_location"],
            rows,
            self.consistency,
        )
    }

    /// Inserts an application run into all four denormalized views. Every
    /// view is attempted before the first failure is returned, so an
    /// outage leaves no view behind the others.
    pub fn insert_app_run(&self, run: &AppRun) -> Result<(), DbError> {
        let views = [
            ("application_by_time", run.to_time_row()),
            ("application_by_name", run.to_name_row()),
            ("application_by_user", run.to_user_row()),
            ("application_by_location", run.to_location_row()),
        ];
        let written = views.map(|(table, row)| self.cluster.insert(table, row, self.consistency));
        written.into_iter().collect()
    }

    /// Builds one [`ReadPlan`] per hour bucket of `[from_ms, to_ms)` —
    /// partition key `(hour)` or `(hour, fixed)`, decorated once here —
    /// for a single [`Cluster::read_multi`] scatter instead of an
    /// hour-by-hour loop.
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

    /// [`Framework::scan_window`]'s records as a dataset, one partition
    /// per hour of the window. No dashboard op reaches it; it stays
    /// because the pipeline benchmark times it. A failed read yields an
    /// empty dataset.
    pub fn scan_events_rdd(&self, event_type: &str, from_ms: i64, to_ms: i64) -> Rdd<EventRecord> {
        let records = self
            .scan_window(event_type, from_ms, to_ms)
            .map(|scan| scan.records())
            .unwrap_or_default();
        let hours = keys::hours_in(from_ms, to_ms).count();
        self.engine.parallelize(records, hours)
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

    /// Human-readable table of what the `metrics` op reports: this
    /// framework's counters, gauges and span histograms (p50/p95/p99/max).
    /// For the machine-readable form use the `metrics` op or `GET /v1/metrics`.
    pub fn telemetry_report(&self) -> String {
        crate::server::telemetry_export::snapshot(self).render_table()
    }
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

    /// The dataset facade against the row read it stands for: a full
    /// window, a mid-hour window, an empty window and one with no data.
    #[test]
    fn scan_rdd_covers_hours_and_counts_match() {
        let fw = small();
        for h in 0..3i64 {
            for i in 0..10 {
                fw.insert_event(&ev(h * HOUR_MS + i * 1000, "GPU_DBE", "c0-0c0s0n0"))
                    .unwrap();
            }
        }
        let windows = [
            (0, 3 * HOUR_MS, 3, 30),
            (5_000, HOUR_MS + 5_000, 2, 10),
            (HOUR_MS, HOUR_MS, 1, 0),
            (5 * HOUR_MS, 7 * HOUR_MS, 2, 0),
        ];
        for (from, to, partitions, count) in windows {
            let rdd = fw.scan_events_rdd("GPU_DBE", from, to);
            assert_eq!(rdd.num_partitions(), partitions, "window {from}..{to}");
            assert_eq!(rdd.count(), count, "window {from}..{to}");
            let want = fw.events_by_type("GPU_DBE", from, to).unwrap();
            assert_eq!(rdd.collect(), want, "window {from}..{to}");
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
}
