//! Failure injection across the stack: node outages during ingest and
//! query, hinted handoff, commit-log recovery — the paper's claim that the
//! backend stays available "with no single point of failure".

use hpc_log_analytics::core::framework::{Framework, FrameworkConfig};
use hpc_log_analytics::core::model::event::EventRecord;
use hpc_log_analytics::core::model::keys::HOUR_MS;
use loggen::topology::Topology;
use rasdb::query::Consistency;
use rasdb::ring::NodeId;
use rasdb::types::{Key, Value};

fn boot(nodes: usize, rf: usize) -> Framework {
    Framework::new(FrameworkConfig {
        db_nodes: nodes,
        replication_factor: rf,
        vnodes: 8,
        topology: Topology::scaled(2, 2),
        consistency: Consistency::Quorum,
        ..Default::default()
    })
    .expect("boot")
}

fn ev(ts: i64, src: &str) -> EventRecord {
    EventRecord {
        ts_ms: ts,
        event_type: "MCE".into(),
        source: src.into(),
        amount: 1,
        raw: "Machine Check Exception: bank 0".into(),
    }
}

#[test]
fn ingest_continues_with_one_node_down_and_recovers_it() {
    let fw = boot(5, 3);
    // Take a node down mid-ingest.
    for i in 0..50 {
        if i == 25 {
            fw.cluster().take_node_down(NodeId(2));
        }
        fw.insert_event(&ev(i * 1000, "c0-0c0s0n0"))
            .expect("quorum write");
    }
    // Everything is readable at quorum with the node still down.
    let got = fw.events_by_type("MCE", 0, HOUR_MS).expect("read");
    assert_eq!(got.len(), 50);

    // Bring the node back: hints replay, then reads at ALL succeed too.
    fw.cluster().bring_node_up(NodeId(2));
    let key = Key::from(vec![Value::BigInt(0), Value::text("MCE")]);
    let rows = fw
        .cluster()
        .select("event_by_time")
        .partition(key.0.to_vec())
        .run(Consistency::All)
        .expect("read at ALL after recovery");
    assert_eq!(rows.len(), 50);
}

#[test]
fn reads_fail_cleanly_beyond_the_consistency_budget() {
    let fw = boot(3, 3);
    fw.insert_event(&ev(0, "c0-0c0s0n0")).expect("write");
    let key = Key::from(vec![Value::BigInt(0), Value::text("MCE")]);
    let owners = fw.cluster().owners(&key);
    fw.cluster().take_node_down(owners[0]);
    fw.cluster().take_node_down(owners[1]);
    // One replica left: ONE works, QUORUM doesn't.
    let one = fw
        .cluster()
        .select("event_by_time")
        .partition(key.0.to_vec())
        .run(Consistency::One);
    assert!(one.is_ok());
    let quorum = fw
        .cluster()
        .select("event_by_time")
        .partition(key.0.to_vec())
        .run(Consistency::Quorum);
    assert!(matches!(
        quorum,
        Err(rasdb::error::DbError::Unavailable { .. })
    ));
}

#[test]
fn node_crash_restart_replays_commit_log() {
    let fw = boot(4, 3);
    for i in 0..30 {
        fw.insert_event(&ev(i * 1000, "c1-0c0s0n0")).expect("write");
    }
    // Crash-restart every node (memtables wiped, commit logs replayed).
    for n in 0..fw.cluster().node_count() {
        fw.cluster().node(NodeId(n)).restart();
    }
    let got = fw
        .events_by_type("MCE", 0, HOUR_MS)
        .expect("read after restart");
    assert_eq!(got.len(), 30);
}

#[test]
fn flushed_data_survives_restart_via_sstables() {
    let fw = boot(4, 2);
    for i in 0..40 {
        fw.insert_event(&ev(i * 1000, "c1-1c0s0n0")).expect("write");
    }
    fw.cluster().flush_all();
    for n in 0..fw.cluster().node_count() {
        fw.cluster().node(NodeId(n)).restart();
    }
    let got = fw.events_by_type("MCE", 0, HOUR_MS).expect("read");
    assert_eq!(got.len(), 40);
}

#[test]
fn streaming_ingest_tolerates_a_node_outage() {
    use hpc_log_analytics::core::etl::stream::{publish_lines, StreamIngester};
    use loggen::trace::{Facility, RawLine};
    let fw = boot(5, 3);
    let t0 = 1_500_000_000_000i64;
    let lines: Vec<RawLine> = (0..100)
        .map(|i| RawLine {
            ts_ms: t0 + i * 100,
            facility: Facility::Console,
            source: format!("c0-0c0s{}n0", i % 8),
            text: "Machine Check Exception: bank 2: b2 addr 3f cpu 1".into(),
        })
        .collect();
    publish_lines(&fw, &lines).expect("publish");
    fw.cluster().take_node_down(NodeId(1));
    let report = StreamIngester::new(&fw, "g", 60_000)
        .unwrap()
        .run_to_completion(64)
        .expect("stream with node down");
    assert_eq!(report.events_in, 100);
    fw.cluster().bring_node_up(NodeId(1));
    let mass: i32 = fw
        .events_by_type("MCE", t0, t0 + HOUR_MS)
        .expect("read")
        .iter()
        .map(|e| e.amount)
        .sum();
    assert_eq!(mass, 100);
}

/// A batch import that cannot reach QUORUM for some partitions returns the
/// typed error to its caller instead of panicking an executor task and then
/// the driver; once the nodes are back, importing the same bytes again
/// leaves the tables as an import that never failed.
#[test]
fn batch_import_during_an_outage_returns_unavailable_and_a_retry_completes_it() {
    use hpc_log_analytics::core::etl::batch::ImportOptions;
    let t0 = 1_500_000_000_000i64;
    let step = 8 * HOUR_MS / 200;
    let source = |i: i64| format!("c0-0c0s{}n{}", i % 8, i % 4);
    let mut corpus = String::new();
    for i in 0..200 {
        corpus += &format!(
            "{} console {} Machine Check Exception: bank {}: b2 addr 3f cpu 0\n",
            t0 + i * step,
            source(i),
            i % 3
        );
    }
    let opts = ImportOptions::default();
    let (fw, control) = (boot(4, 3), boot(4, 3));
    control
        .batch_import_bytes(corpus.clone().into_bytes(), &opts)
        .expect("import with every node up");

    for id in [NodeId(1), NodeId(2)] {
        fw.cluster().take_node_down(id);
    }
    let err = fw
        .batch_import_bytes(corpus.clone().into_bytes(), &opts)
        .expect_err("partitions held by nodes 1 and 2 cannot reach QUORUM");
    assert_eq!(
        err,
        rasdb::error::DbError::Unavailable {
            required: 2,
            received: 1
        }
    );
    for id in [NodeId(1), NodeId(2)] {
        fw.cluster().bring_node_up(id);
    }
    fw.batch_import_bytes(corpus.into_bytes(), &opts)
        .expect("retry with every node up");

    let window = (t0, t0 + 8 * HOUR_MS);
    assert_eq!(
        fw.events_by_type("MCE", window.0, window.1).unwrap(),
        control.events_by_type("MCE", window.0, window.1).unwrap()
    );
    assert_eq!(
        control
            .events_by_type("MCE", window.0, window.1)
            .unwrap()
            .len(),
        200
    );
    for i in 0..8 {
        assert_eq!(
            fw.events_by_source(&source(i), window.0, window.1).unwrap(),
            control
                .events_by_source(&source(i), window.0, window.1)
                .unwrap(),
            "source {}",
            source(i)
        );
    }
}

/// A dashboard read over a partition nobody can serve must fail with the
/// typed error — not answer zeros and memoise them.
#[test]
fn analytics_over_an_unreachable_partition_fail_instead_of_answering_zero() {
    use hpc_log_analytics::core::server::QueryEngine;
    let fw = std::sync::Arc::new(boot(2, 1));
    for i in 0..20 {
        fw.insert_event(&ev(i * 1000, "c0-0c0s0n0")).expect("write");
    }
    let engine = QueryEngine::new(std::sync::Arc::clone(&fw));
    let key = Key::from(vec![Value::BigInt(0), Value::text("MCE")]);
    let owner = fw.cluster().owners(&key)[0];
    let req = format!(r#"{{"op":"heatmap","type":"MCE","from":0,"to":{HOUR_MS}}}"#);

    fw.cluster().take_node_down(owner);
    let memoised = fw.result_cache().len();
    let resp = engine.handle_http(&req, None);
    assert_eq!(resp.status, 503, "{}", resp.body);
    let body = jsonlite::parse(&resp.body).expect("valid JSON");
    assert_eq!(body["status"].as_str(), Some("error"), "{body}");
    assert_eq!(body["error"]["code"].as_str(), Some("UNAVAILABLE"));
    assert_eq!(fw.result_cache().len(), memoised, "errors are not cached");

    fw.cluster().bring_node_up(owner);
    let body = jsonlite::parse(&engine.handle(&req)).expect("valid JSON");
    assert_eq!(body["status"].as_str(), Some("ok"), "{body}");
    assert_eq!(body["data"]["total"].as_f64(), Some(20.0));
}
