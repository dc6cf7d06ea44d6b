//! Batch import: the "traditional ETL procedure" of the paper, with
//! "parsing and uploading using Apache Spark" — here, `sparklet`.
//!
//! The corpus is split into byte chunks on newline boundaries
//! ([`fastpath::split_chunks`]), the chunk ranges are partitioned over
//! the engine's executors, and each task scans its chunks zero-copy with
//! the byte scanner ([`fastpath::FastParser`]), uploading event rows
//! straight to the store (parallel upload). Job
//! start/end fragments come back to the driver, which pairs them into
//! application runs. Window/type predicates push down into the scan:
//! filtered lines never materialize a row.

use crate::etl::fastpath::{self, FastParser, LineOutcome, Lines, ScanPredicate, ScanStats};
use crate::etl::parsers::ParsedLine;
use crate::framework::Framework;
use crate::model::apprun::AppRun;
use loggen::trace::RawLine;
use rasdb::error::DbError;
use std::collections::HashMap;

/// What a batch import did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ImportReport {
    /// Lines successfully parsed (kept events plus job fragments).
    pub parsed: usize,
    /// Lines no pattern matched.
    pub skipped: usize,
    /// Event lines dropped by the import predicate during the scan.
    pub filtered: usize,
    /// Always 0: the byte scanner parses every valid UTF-8 line itself, so
    /// no line falls back to another parser. Kept only because code outside
    /// this crate (the `perfbench` harness) builds this struct by field.
    pub fallbacks: usize,
    /// Event rows written (counting both table views).
    pub event_rows: usize,
    /// Application runs stored (matched start+end pairs).
    pub jobs: usize,
    /// Job fragments without a partner (start without end or vice versa).
    pub unmatched_jobs: usize,
}

/// Knobs for [`import_bytes`].
///
/// # Example
/// ```
/// use hpclog_core::etl::batch::ImportOptions;
/// use hpclog_core::etl::fastpath::ScanPredicate;
/// let opts = ImportOptions {
///     predicate: ScanPredicate::default().with_types(["MCE"]),
///     ..ImportOptions::default()
/// };
/// assert!(opts.predicate.keeps(0, "MCE"));
/// assert_eq!(opts.chunk_target_bytes, None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ImportOptions {
    /// Window/type filters pushed down into the scan.
    pub predicate: ScanPredicate,
    /// Target chunk size in bytes; `None` sizes chunks so every executor
    /// partition gets work.
    pub chunk_target_bytes: Option<usize>,
}

/// Runs the batch import.
pub fn import(fw: &Framework, lines: &[RawLine]) -> Result<ImportReport, DbError> {
    let rendered: Vec<String> = lines.iter().map(RawLine::render).collect();
    import_rendered(fw, rendered)
}

/// Runs the batch import over pre-rendered raw text lines (each string
/// one log line, no embedded newlines).
pub fn import_rendered(fw: &Framework, rendered: Vec<String>) -> Result<ImportReport, DbError> {
    let mut corpus = Vec::with_capacity(rendered.iter().map(|l| l.len() + 1).sum());
    for line in &rendered {
        corpus.extend_from_slice(line.as_bytes());
        corpus.push(b'\n');
    }
    import_bytes(fw, corpus, &ImportOptions::default())
}

/// Runs the chunk-parallel batch import over a raw corpus.
///
/// The corpus is chunked on newline boundaries (no line crosses a
/// chunk), chunk ranges are distributed over the engine's executors, and
/// each task scans its chunks with [`FastParser::scan_line`] under the
/// pushed-down [`ScanPredicate`]. Reports and tables are what the regex
/// pattern set would load line by line — the differential equivalence
/// suite asserts exactly that.
///
/// A failed upload (e.g. [`DbError::Unavailable`] during an outage) does
/// not stop the import: every task writes both table views, the driver
/// pairs the jobs and writes every view of each, the line counters are
/// recorded, and then the first error is returned.
/// Re-importing the same bytes is idempotent.
pub fn import_bytes(
    fw: &Framework,
    corpus: Vec<u8>,
    opts: &ImportOptions,
) -> Result<ImportReport, DbError> {
    let _span = telemetry::span!("etl.batch.import");
    let nparts = (fw.engine().workers() * 2).max(1);
    let target = opts
        .chunk_target_bytes
        .unwrap_or_else(|| (corpus.len() / nparts).max(64 * 1024));
    let chunks = fastpath::split_chunks(&corpus, target);
    let rdd = fw.engine().parallelize(chunks, nparts);

    // Map stage: scan + upload events in place; ship job fragments,
    // counters and the first failed upload back to the driver.
    #[derive(Default)]
    struct PartResult {
        parsed: usize,
        skipped: usize,
        filtered: usize,
        event_rows: usize,
        job_lines: Vec<ParsedLine>,
        error: Option<DbError>,
    }
    let results = fw.engine().run_job(&rdd, |_, ranges: Vec<(usize, usize)>| {
        let fast = FastParser::new();
        let mut stats = ScanStats::default();
        let mut out = PartResult::default();
        let mut events = Vec::new();
        for (start, end) in ranges {
            for line in Lines::new(&corpus[start..end]) {
                match fast.scan_line(line, &opts.predicate, &mut stats) {
                    LineOutcome::Event(ev) => events.push(ev),
                    LineOutcome::Job(job) => out.job_lines.push(job),
                    LineOutcome::Skipped => out.skipped += 1,
                    LineOutcome::Filtered => out.filtered += 1,
                }
            }
        }
        stats.flush_telemetry();
        out.parsed = events.len() + out.job_lines.len();
        match fw.insert_events(&events) {
            Ok(written) => out.event_rows = written,
            Err(e) => out.error = Some(e),
        }
        out
    });

    // Driver: pair job fragments into runs.
    let mut report = ImportReport::default();
    let mut starts: HashMap<i64, (i64, String, String, i64, i64)> = HashMap::new();
    let mut ends: HashMap<i64, (i64, i32)> = HashMap::new();
    let mut first_error = None;
    for part in results {
        if let Some(e) = part.error {
            first_error.get_or_insert(e);
        }
        report.parsed += part.parsed;
        report.skipped += part.skipped;
        report.filtered += part.filtered;
        report.event_rows += part.event_rows;
        for job in part.job_lines {
            match job {
                ParsedLine::JobStart {
                    apid,
                    ts_ms,
                    user,
                    app,
                    node_first,
                    node_last,
                } => {
                    starts.insert(apid, (ts_ms, user, app, node_first, node_last));
                }
                ParsedLine::JobEnd {
                    apid,
                    ts_ms,
                    exit_code,
                } => {
                    ends.insert(apid, (ts_ms, exit_code));
                }
                ParsedLine::Event(_) => unreachable!("events handled in tasks"),
            }
        }
    }
    for (apid, (start_ms, user, app, node_first, node_last)) in starts {
        let Some((end_ms, exit_code)) = ends.remove(&apid) else {
            report.unmatched_jobs += 1;
            continue;
        };
        let stored = fw.insert_app_run(&AppRun {
            apid,
            user,
            app,
            start_ms,
            end_ms,
            node_first,
            node_last,
            exit_code,
            other_info: Default::default(),
        });
        match stored {
            Ok(()) => report.jobs += 1,
            Err(e) => {
                first_error.get_or_insert(e);
            }
        }
    }
    report.unmatched_jobs += ends.len();
    let g = telemetry::global();
    g.counter("etl.batch.lines_parsed")
        .incr(report.parsed as u64);
    g.counter("etl.batch.lines_skipped")
        .incr(report.skipped as u64);
    g.counter("etl.batch.lines_filtered")
        .incr(report.filtered as u64);
    g.counter("etl.batch.event_rows")
        .incr(report.event_rows as u64);
    match first_error {
        Some(e) => Err(e),
        None => Ok(report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::FrameworkConfig;
    use loggen::topology::Topology;
    use loggen::trace::{Scenario, ScenarioConfig};

    fn fw() -> Framework {
        Framework::new(FrameworkConfig {
            db_nodes: 4,
            replication_factor: 2,
            vnodes: 8,
            topology: Topology::scaled(2, 2),
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn full_scenario_import_matches_ground_truth() {
        let fw = fw();
        let cfg = ScenarioConfig {
            rate_scale: 10.0,
            ..ScenarioConfig::quiet_day(4)
        };
        let scenario = Scenario::generate(fw.topology(), &cfg, 21);
        let report = fw.batch_import(&scenario.lines).unwrap();

        assert_eq!(report.parsed, scenario.lines.len());
        assert_eq!(report.skipped, 0);
        assert_eq!(report.filtered, 0);
        assert_eq!(report.event_rows, scenario.truth.len() * 2);
        // Jobs whose end falls inside the scenario window pair up; the rest
        // are unmatched starts.
        let complete = scenario
            .jobs
            .iter()
            .filter(|j| j.end_ms < cfg.start_ms + cfg.duration_ms)
            .count();
        // Job end lines are always emitted in the trace (even past the
        // window), so all jobs pair.
        assert_eq!(report.jobs, scenario.jobs.len());
        assert!(complete <= report.jobs);
        assert_eq!(report.unmatched_jobs, 0);

        // Spot-check a stored event type count against the truth.
        let t0 = cfg.start_ms;
        let t1 = cfg.start_ms + cfg.duration_ms + 48 * 3_600_000;
        let mce_truth = scenario
            .truth
            .iter()
            .filter(|o| o.event_type == "MCE")
            .count();
        let got = fw.events_by_type("MCE", t0, t1).unwrap();
        assert_eq!(got.len(), mce_truth);
    }

    #[test]
    fn unmatched_job_fragments_are_counted() {
        let fw = fw();
        let lines = vec![
            "1500000000000 app alps apid 7 start user=u app=VASP nodes=0-1 width=2".to_owned(),
            "1500000000000 app alps apid 8 end exit=0 runtime_s=10".to_owned(),
        ];
        let report = import_rendered(&fw, lines).unwrap();
        assert_eq!(report.jobs, 0);
        assert_eq!(report.unmatched_jobs, 2);
        assert_eq!(report.parsed, 2);
    }

    #[test]
    fn junk_lines_are_skipped_not_fatal() {
        let fw = fw();
        let lines = vec![
            "not a log line at all".to_owned(),
            "1500000000123 console c0-0c0s0n0 Machine Check Exception: bank 1: b2 addr 3f cpu 0"
                .to_owned(),
            "1500000000124 console c0-0c0s0n0 routine chatter nothing matches".to_owned(),
        ];
        let report = import_rendered(&fw, lines).unwrap();
        assert_eq!(report.parsed, 1);
        assert_eq!(report.skipped, 2);
        assert_eq!(report.event_rows, 2);
    }

    #[test]
    fn empty_import_is_a_noop() {
        let fw = fw();
        let report = import_rendered(&fw, Vec::new()).unwrap();
        assert_eq!(report, ImportReport::default());
    }

    #[test]
    fn pushdown_window_limits_stored_rows() {
        let fw = fw();
        let corpus = b"\
1000 console n0 DVS: early\n\
2000 console n0 DVS: inside\n\
3000 console n0 DVS: late\n\
2500 app alps apid 1 start user=u app=A nodes=0-1\n\
9999 app alps apid 1 end exit=0\n"
            .to_vec();
        let opts = ImportOptions {
            predicate: ScanPredicate::default().with_window(1500, 2500),
            ..Default::default()
        };
        let report = import_bytes(&fw, corpus, &opts).unwrap();
        assert_eq!(report.filtered, 2);
        assert_eq!(report.event_rows, 2, "one event, two table views");
        // Jobs pair regardless of the window.
        assert_eq!(report.jobs, 1);
        assert_eq!(report.parsed, 3);
    }

    /// A job whose views miss quorum does not stop the import: every view
    /// of every paired job is written to the replicas that are up before
    /// the first error is returned.
    #[test]
    fn an_outage_still_stores_every_paired_job() {
        use rasdb::{query::Consistency, types::Value};

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
        // Job `i` starts in hour `i` on cabinet `i`'s first node.
        let (t0, per_cabinet) = (
            1_500_000_000_000,
            loggen::topology::NODES_PER_CABINET as i64,
        );
        let lines = (0..8i64).flat_map(|i| {
            let (start, node) = (t0 + i * crate::model::HOUR_MS, i * per_cabinet);
            [
                format!("{start} app alps apid {i} start user=u{i} app=A{i} nodes={node}-{node}"),
                format!("{} app alps apid {i} end exit=0", start + 60_000),
            ]
        });
        // A view partition with both down nodes among its replicas misses
        // quorum.
        assert!(matches!(
            import_rendered(&fw, lines.collect()),
            Err(DbError::Unavailable { .. })
        ));
        for i in 0..8i64 {
            let hour = crate::model::hour_of(t0 + i * crate::model::HOUR_MS);
            let (user, app) = (format!("u{i}"), format!("A{i}"));
            let views = [
                ("application_by_time", Value::BigInt(hour)),
                ("application_by_name", Value::text(&app)),
                ("application_by_user", Value::text(&user)),
                ("application_by_location", Value::BigInt(i)),
            ];
            for (table, partition) in views {
                let rows = fw.cluster().select(table).partition(vec![partition]);
                let stored = rows.run(Consistency::One).unwrap();
                let runs = stored
                    .iter()
                    .filter_map(|r| AppRun::from_row(r, Some(&user), Some(&app)));
                assert_eq!(runs.map(|r| r.apid).collect::<Vec<_>>(), [i], "{table}");
            }
        }
    }

    /// Both table views of an imported event point at one copy of its
    /// message and of its source, and events of one type at one copy of the
    /// type name.
    #[test]
    fn both_views_of_an_event_share_its_text() {
        use rasdb::query::Consistency;
        use rasdb::ring::NodeId;
        use rasdb::types::{Key, Value};
        use std::sync::Arc;

        let fw = fw();
        let corpus = b"\
1500000000123 console c0-0c0s0n0 Machine Check Exception: bank 1\n\
1500000000456 console c0-0c0s0n1 Machine Check Exception: bank 2\n"
            .to_vec();
        import_bytes(&fw, corpus, &ImportOptions::default()).unwrap();
        let text = |v: &Value| match v {
            Value::Text(s) => Arc::clone(s),
            other => panic!("{other:?} is not text"),
        };
        let hour = Value::BigInt(crate::model::hour_of(1_500_000_000_123));
        let read = |table: &str, partition: &str| {
            let partition = vec![hour.clone(), Value::text(partition)];
            let rows = fw.cluster().select(table).partition(partition);
            rows.run(Consistency::One).unwrap()
        };
        // `event_by_time` rows are `(ts, source)`; `event_by_location`
        // partitions are `(hour, source)` and its rows `(ts, type)`.
        let by_time = read("event_by_time", "MCE");
        assert_eq!(by_time.len(), 2);
        let by_location =
            ["c0-0c0s0n0", "c0-0c0s0n1"].map(|source| read("event_by_location", source)[0].clone());
        let location_keys: Vec<Key> = (0..4)
            .flat_map(|n| {
                let keys = fw
                    .cluster()
                    .local_partition_keys("event_by_location", NodeId(n));
                keys.into_iter()
            })
            .collect();
        for (time_row, location_row) in by_time.iter().zip(&by_location) {
            let raw = text(time_row.cell("raw").unwrap());
            assert!(Arc::ptr_eq(&raw, &text(location_row.cell("raw").unwrap())));
            let source = &time_row.clustering.0[1];
            let key = location_keys.iter().find(|k| k.0[1] == *source).unwrap();
            assert!(Arc::ptr_eq(&text(source), &text(&key.0[1])));
        }
        let types = by_location.map(|row| text(&row.clustering.0[1]));
        assert!(Arc::ptr_eq(&types[0], &types[1]), "the type name is shared");
    }
}
