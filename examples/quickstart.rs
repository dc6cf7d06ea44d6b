//! Quickstart: boot the framework, ingest a synthetic day of Titan logs,
//! and run a few queries — the fastest tour of the whole stack.
//!
//! Run with: `cargo run --release --example quickstart`

use hpclog_core::analytics::histogram::event_histogram;
use hpclog_core::framework::{Framework, FrameworkConfig};
use hpclog_core::model::keys::HOUR_MS;
use hpclog_core::server::QueryEngine;
use loggen::topology::Topology;
use loggen::trace::{Scenario, ScenarioConfig};
use rasdb::types::{Key, Value};
use std::sync::Arc;

fn main() {
    // A scaled-down Titan (4×2 cabinets = 768 nodes) on an 8-node
    // co-located storage/compute cluster, mirroring the paper's CADES
    // deployment shape.
    let fw = Framework::new(FrameworkConfig {
        db_nodes: 8,
        replication_factor: 3,
        vnodes: 16,
        topology: Topology::scaled(4, 2),
        ..Default::default()
    })
    .expect("framework boot");
    println!(
        "framework up: {} storage nodes (RF 3), {} executors, {} tables, {} compute nodes",
        fw.cluster().node_count(),
        fw.engine().workers(),
        fw.cluster().table_names().len(),
        fw.topology().node_count(),
    );

    // One synthetic day: background failures + jobs.
    let cfg = ScenarioConfig {
        rate_scale: 6.0,
        ..ScenarioConfig::quiet_day(24)
    };
    let scenario = Scenario::generate(fw.topology(), &cfg, 2017);
    println!(
        "\ngenerated {} raw log lines ({} ground-truth events, {} jobs)",
        scenario.lines.len(),
        scenario.truth.len(),
        scenario.jobs.len()
    );

    // Batch ETL: regex parse + parallel upload (paper §III-D).
    let t = std::time::Instant::now();
    let report = fw.batch_import(&scenario.lines).expect("batch import");
    println!(
        "batch import in {:?}: parsed={} events_rows={} jobs={} skipped={}",
        t.elapsed(),
        report.parsed,
        report.event_rows,
        report.jobs,
        report.skipped
    );

    // Fig 4: where do (hour, type) partitions live on the ring?
    println!("\npartition placement by (hour, type) hash (paper Fig 4):");
    for hour in 0..4i64 {
        let key = Key::from(vec![
            Value::BigInt(cfg.start_ms / HOUR_MS + hour),
            Value::text("MCE"),
        ]);
        let owners: Vec<usize> = fw.cluster().owners(&key).iter().map(|n| n.0).collect();
        println!("  hour+{hour} type=MCE -> replicas {owners:?}");
    }

    // Time-series query through the dual schema (paper Fig 1).
    let t0 = cfg.start_ms;
    let mce = fw
        .events_by_type("MCE", t0, t0 + 24 * HOUR_MS)
        .expect("query");
    println!("\nMCE events stored: {}", mce.len());
    if let Some(first) = mce.first() {
        let by_src = fw
            .events_by_source(&first.source, t0, t0 + 24 * HOUR_MS)
            .expect("query");
        println!(
            "dual view: node {} reported {} events of any type",
            first.source,
            by_src.len()
        );
    }

    // Hourly histogram (temporal map).
    let hist = event_histogram(&fw, "LUSTRE_ERR", t0, t0 + 24 * HOUR_MS, HOUR_MS).expect("hist");
    let labels: Vec<String> = (0..hist.bins.len()).map(|h| format!("{h:02}")).collect();
    println!(
        "\n{}",
        viz::ascii_histogram("LUSTRE_ERR per hour", &labels, &hist.bins, 40)
    );

    // A CQL query, exactly as the analytics server would relay it.
    let cql = format!(
        "SELECT * FROM event_by_time WHERE hour = {} AND type = 'MCE' LIMIT 3",
        t0 / HOUR_MS
    );
    println!("CQL> {cql}");
    match fw.cluster().execute(&cql, fw.consistency()).expect("cql") {
        rasdb::cluster::ExecResult::Rows(rows) => {
            for row in rows {
                println!("  {:?} {:?}", row.clustering.0, row.cell("amount"));
            }
        }
        rasdb::cluster::ExecResult::Applied => {}
    }

    // And the JSON protocol the frontend speaks.
    let engine = QueryEngine::new(Arc::new(fw));
    let request = format!(
        r#"{{"op":"distribution","type":"LUSTRE_ERR","from":{t0},"to":{},"by":"cabinet"}}"#,
        t0 + 24 * HOUR_MS
    );
    println!("\nJSON> {request}");
    println!("JSON< {}", engine.handle(&request));
}
