//! Bus fault-schedule integration tests: the at-least-once contract under
//! injected drops, duplicate deliveries, delayed records, failed commits,
//! and a mid-stream ingester crash. The acceptance bar is *zero loss* and
//! tables byte-identical to a fault-free run.

use hpclog_core::etl::stream::{dlq_depth, dlq_requeue, publish_lines, StreamIngester};
use hpclog_core::framework::{Framework, FrameworkConfig, RAW_LOG_TOPIC};
use hpclog_core::model::event::EventRecord;
use logbus::FaultPlan;
use loggen::topology::Topology;
use loggen::trace::{Facility, RawLine};
use rasdb::ring::NodeId;
use std::collections::BTreeSet;

fn boot() -> Framework {
    Framework::new(FrameworkConfig {
        db_nodes: 3,
        replication_factor: 2,
        vnodes: 8,
        topology: Topology::scaled(2, 2),
        ..Default::default()
    })
    .unwrap()
}

fn mce_line(ts: i64, src: &str) -> RawLine {
    RawLine {
        ts_ms: ts,
        facility: Facility::Console,
        source: src.to_owned(),
        text: "Machine Check Exception: bank 1: b2 addr 3f cpu 0".to_owned(),
    }
}

const T0: i64 = 1_500_000_000_000;

/// One source (one partition, monotonic event time) so the clean and the
/// faulted run see identical watermark behaviour and the comparison is
/// exact, not statistical.
fn storm(n: i64) -> Vec<RawLine> {
    storm_over(n, &["c0-0c0s0n0"])
}

/// `n` lines 200 ms apart, taking turns over `sources`.
fn storm_over(n: i64, sources: &[&str]) -> Vec<RawLine> {
    (0..n)
        .map(|i| mce_line(T0 + i * 200, sources[i as usize % sources.len()]))
        .collect()
}

/// All stored MCE rows in deterministic order.
fn table_rows(fw: &Framework) -> Vec<EventRecord> {
    let mut rows = fw.events_by_type("MCE", T0, T0 + 600_000).unwrap();
    rows.sort_by(|a, b| {
        (a.ts_ms, &a.source, &a.event_type).cmp(&(b.ts_ms, &b.source, &b.event_type))
    });
    rows
}

#[test]
fn fault_schedule_zero_loss_byte_identical_tables() {
    // One source on one partition, and three sources on three partitions,
    // so a commit takes each partition's low across the open windows. The
    // consumer drains one partition up to 32 records (19.2 s of a source's
    // event time) per poll, and the lateness covers that skew.
    let three = ["c0-0c0s0n0", "c0-0c0s1n0", "c0-0c0s2n0"];
    for (lines, lateness, partitions) in
        [(storm(400), 2000, 1), (storm_over(400, &three), 30_000, 3)]
    {
        // Reference: fault-free ingestion.
        let clean = boot();
        let topic = clean.bus().topic(RAW_LOG_TOPIC).unwrap();
        let used: BTreeSet<usize> = lines
            .iter()
            .map(|l| topic.partition_for_key(&l.source))
            .collect();
        assert_eq!(used.len(), partitions, "partitions the storm lands on");
        publish_lines(&clean, &lines).unwrap();
        let clean_report = StreamIngester::new(&clean, "g", lateness)
            .unwrap()
            .run_to_completion(32)
            .unwrap();
        assert_eq!(clean_report.events_in, 400);
        let clean_rows = table_rows(&clean);
        let clean_mass: i32 = clean_rows.iter().map(|e| e.amount).sum();
        assert_eq!(clean_mass, 400, "clean run stored every occurrence");

        for crash_after in [1, 6, 20] {
            let case = format!("{partitions} partition(s), crash after {crash_after} steps");
            // Faulted: drop every 7th send, redeliver every 5th read, delay
            // every 11th send for 3 more sends, fail the first 4 commits —
            // and crash the ingester mid-stream on top.
            let faulted = boot();
            faulted.bus().inject_faults(
                FaultPlan::new()
                    .drop_every(7)
                    .duplicate_every(5)
                    .delay_every(11, 3)
                    .fail_commits(4),
            );
            publish_lines(&faulted, &lines).unwrap();
            // Any delay holds still parked after the last send become
            // visible now.
            faulted.bus().release_delayed();
            let first_duplicates = {
                let mut first = StreamIngester::new(&faulted, "g", lateness).unwrap();
                for _ in 0..crash_after {
                    first.step(32).unwrap();
                }
                // Crash: buffered windows and uncommitted progress die
                // with `first`.
                first.report().duplicates
            };
            let report = StreamIngester::new(&faulted, "g", lateness)
                .unwrap()
                .run_to_completion(32)
                .unwrap();

            // Zero loss: every one of the 400 occurrences is accounted for.
            let faulted_rows = table_rows(&faulted);
            let faulted_mass: i32 = faulted_rows.iter().map(|e| e.amount).sum();
            assert_eq!(faulted_mass, 400, "{case}: faults + crash lost nothing");
            assert_eq!(
                clean_rows, faulted_rows,
                "{case}: faulted tables byte-identical to the fault-free run"
            );
            // The schedule actually exercised the recovery paths: the
            // replaying life's own offset guard skipped redeliveries. After
            // 20 steps the first life has drained the one-partition storm,
            // so the second life replays only its uncommitted tail and may
            // meet no redelivery; there the first life's guard counts.
            if crash_after < 20 {
                assert!(
                    report.duplicates > 0,
                    "{case}: redeliveries hit the offset guard"
                );
            } else {
                assert!(
                    first_duplicates + report.duplicates > 0,
                    "{case}: redeliveries hit the offset guard"
                );
            }
            assert_eq!(
                dlq_depth(&faulted).unwrap(),
                0,
                "{case}: nothing dead-lettered"
            );
        }
    }
}

#[test]
fn commit_faults_alone_cause_replay_not_loss() {
    let lines = storm(100);
    let fw = boot();
    publish_lines(&fw, &lines).unwrap();
    // Every commit in the first life fails; the crash then forces a full
    // replay, absorbed by the duplicate guards and LWW upserts.
    fw.bus()
        .inject_faults(FaultPlan::new().fail_commits(u64::MAX));
    {
        let mut first = StreamIngester::new(&fw, "g", 2000).unwrap();
        let mut r = first.step(32).unwrap();
        while r > 0 {
            r = first.step(32).unwrap();
        }
    }
    fw.bus().clear_faults();
    StreamIngester::new(&fw, "g", 2000)
        .unwrap()
        .run_to_completion(32)
        .unwrap();
    let mass: i32 = table_rows(&fw).iter().map(|e| e.amount).sum();
    assert_eq!(mass, 100, "replayed windows overwrite, never double-count");
}

#[test]
fn replica_outage_retries_then_dead_letters_then_requeues() {
    let fw = boot();
    let lines = storm(50);
    publish_lines(&fw, &lines).unwrap();
    // Take 2 of 3 nodes down: quorum writes fail with Unavailable, the
    // ingester retries with backoff, exhausts its budget, dead-letters.
    fw.cluster().take_node_down(NodeId(1));
    fw.cluster().take_node_down(NodeId(2));
    let report = StreamIngester::new(&fw, "g", 2000)
        .unwrap()
        .run_to_completion(32)
        .unwrap();
    assert!(report.retries > 0, "store retries happened");
    assert!(report.dlq_events > 0, "exhausted windows dead-lettered");
    let parked = dlq_depth(&fw).unwrap();
    assert_eq!(parked as usize, report.dlq_events);

    // Cluster heals; requeue drains the DLQ back into the tables.
    fw.cluster().bring_node_up(NodeId(1));
    fw.cluster().bring_node_up(NodeId(2));
    let rq = dlq_requeue(&fw, 10_000).unwrap();
    assert_eq!(rq.events_reinserted, report.dlq_events);
    assert_eq!(rq.remaining, 0);
    let mass: i32 = table_rows(&fw).iter().map(|e| e.amount).sum();
    assert_eq!(mass, 50, "every occurrence recovered after the outage");
}
