//! End-to-end integration: raw synthetic logs → batch ETL → dual-view
//! queries → analytics → JSON server (paper Fig 3's full architecture).

use hpc_log_analytics::core::analytics::distribution::{distribution, GroupBy};
use hpc_log_analytics::core::analytics::heatmap::cabinet_heatmap;
use hpc_log_analytics::core::analytics::histogram::event_histogram;
use hpc_log_analytics::core::analytics::synopsis;
use hpc_log_analytics::core::context::Context;
use hpc_log_analytics::core::framework::{Framework, FrameworkConfig};
use hpc_log_analytics::core::model::keys::{hour_of, HOUR_MS};
use hpc_log_analytics::core::server::QueryEngine;
use loggen::topology::Topology;
use loggen::trace::{Scenario, ScenarioConfig};
use std::collections::HashMap;
use std::sync::Arc;

fn boot() -> (Framework, Scenario, ScenarioConfig) {
    let fw = Framework::new(FrameworkConfig {
        db_nodes: 6,
        replication_factor: 3,
        vnodes: 12,
        topology: Topology::scaled(3, 2),
        ..Default::default()
    })
    .expect("boot");
    let cfg = ScenarioConfig {
        rate_scale: 8.0,
        ..ScenarioConfig::quiet_day(6)
    };
    let scenario = Scenario::generate(fw.topology(), &cfg, 1234);
    (fw, scenario, cfg)
}

#[test]
fn ingest_then_every_query_path_agrees_with_ground_truth() {
    let (fw, scenario, cfg) = boot();
    let report = fw.batch_import(&scenario.lines).expect("import");
    assert_eq!(report.parsed, scenario.lines.len());
    assert_eq!(report.skipped, 0);

    let t0 = cfg.start_ms;
    let t1 = t0 + cfg.duration_ms;

    // Per-type counts match the generator's ground truth exactly.
    let mut truth: HashMap<&str, usize> = HashMap::new();
    for o in &scenario.truth {
        *truth.entry(o.event_type).or_default() += 1;
    }
    for (etype, want) in &truth {
        let got = fw.events_by_type(etype, t0, t1).expect("query");
        assert_eq!(got.len(), *want, "type {etype}");
    }

    // The dual location view holds the same events, node by node.
    let sample_node = fw.topology().node(17).cname;
    let want_for_node = scenario.truth.iter().filter(|o| o.node == 17).count();
    let got_for_node = fw
        .events_by_source(&sample_node, t0, t1)
        .expect("query")
        .len();
    assert_eq!(got_for_node, want_for_node);

    // Histogram total == total events of that type.
    let hist = event_histogram(&fw, "LUSTRE_ERR", t0, t1, HOUR_MS).expect("hist");
    assert_eq!(
        hist.total() as usize,
        truth.get("LUSTRE_ERR").copied().unwrap_or(0)
    );

    // Heat map totals match too, and every cabinet is nonnegative.
    let hm = cabinet_heatmap(&fw, "LUSTRE_ERR", t0, t1).expect("heatmap");
    assert_eq!(hm.total as usize, truth["LUSTRE_ERR"]);
    assert_eq!(hm.cabinets.len(), fw.topology().cabinet_count());

    // Application runs are queryable through all four views.
    assert_eq!(report.jobs, scenario.jobs.len());
    let some_job = &scenario.jobs[0];
    let by_user = fw.apps_by_user(&some_job.user).expect("by user");
    assert!(by_user.iter().any(|r| r.apid == some_job.apid as i64));
    let by_name = fw.apps_by_name(&some_job.app).expect("by name");
    assert!(by_name.iter().any(|r| r.apid == some_job.apid as i64));
}

#[test]
fn synopsis_summarizes_what_was_ingested() {
    let (fw, scenario, cfg) = boot();
    fw.batch_import(&scenario.lines).expect("import");
    let t0 = cfg.start_ms;
    let t1 = t0 + cfg.duration_ms;
    let written = synopsis::build_synopsis(&fw, t0, t1).expect("synopsis");
    assert!(written > 0);
    let day = hour_of(t0) * HOUR_MS / (24 * HOUR_MS);
    let rows = synopsis::read_synopsis(&fw, day).expect("read");
    let total: i64 = rows.iter().map(|r| r.events).sum();
    assert_eq!(total as usize, scenario.truth.len());
}

#[test]
fn json_server_serves_the_full_protocol_over_ingested_data() {
    let (fw, scenario, cfg) = boot();
    fw.batch_import(&scenario.lines).expect("import");
    let t0 = cfg.start_ms;
    let t1 = t0 + cfg.duration_ms;
    let engine = QueryEngine::new(Arc::new(fw));

    let ops = [
        format!(r#"{{"op":"events","type":"MCE","from":{t0},"to":{t1}}}"#),
        format!(r#"{{"op":"heatmap","type":"LUSTRE_ERR","from":{t0},"to":{t1}}}"#),
        format!(
            r#"{{"op":"histogram","type":"LUSTRE_ERR","from":{t0},"to":{t1},"bin_ms":3600000}}"#
        ),
        format!(
            r#"{{"op":"distribution","type":"LUSTRE_ERR","from":{t0},"to":{t1},"by":"cabinet"}}"#
        ),
        format!(
            r#"{{"op":"transfer_entropy","x":"NET_LINK","y":"LUSTRE_ERR","from":{t0},"to":{t1},"bin_ms":60000,"max_lag":4}}"#
        ),
        format!(r#"{{"op":"wordcount","type":"LUSTRE_ERR","from":{t0},"to":{t1},"top":10}}"#),
        format!(r#"{{"op":"apps","from":{t0},"to":{t1}}}"#),
        r#"{"op":"nodeinfo","cname":"c0-0c0s0n0"}"#.to_owned(),
    ];
    for op in &ops {
        let resp = jsonlite::parse(&engine.handle(op)).expect("valid JSON");
        assert_eq!(resp["status"].as_str(), Some("ok"), "op {op}");
    }
}

#[test]
fn telemetry_surfaces_ingest_query_and_analytics() {
    let (fw, scenario, cfg) = boot();
    fw.batch_import(&scenario.lines).expect("import");
    let t0 = cfg.start_ms;
    let t1 = t0 + cfg.duration_ms;
    let engine = QueryEngine::new(Arc::new(fw));

    // Drive reads and two analytics ops through the server surface so
    // coordinator and request spans fire. `nodeinfo` is a single-partition
    // select (`Cluster::read`), which feeds `rasdb.coordinator.read`.
    for op in [
        format!(r#"{{"op":"events","type":"MCE","from":{t0},"to":{t1}}}"#),
        r#"{"op":"nodeinfo","cname":"c0-0c0s0n0"}"#.to_owned(),
        format!(r#"{{"op":"heatmap","type":"LUSTRE_ERR","from":{t0},"to":{t1}}}"#),
        format!(r#"{{"op":"wordcount","type":"LUSTRE_ERR","from":{t0},"to":{t1},"top":5}}"#),
    ] {
        let resp = jsonlite::parse(&engine.handle(&op)).expect("valid JSON");
        assert_eq!(resp["status"].as_str(), Some("ok"), "op {op}");
    }

    let metrics = jsonlite::parse(&engine.handle(r#"{"op":"metrics"}"#)).expect("valid JSON");
    assert_eq!(metrics["status"].as_str(), Some("ok"));
    let read_count = metrics["data"]["histograms"]["rasdb.coordinator.read"]["count"]
        .as_i64()
        .expect("read histogram present");
    assert!(read_count > 0, "coordinator reads recorded");
    let write_count = metrics["data"]["histograms"]["rasdb.coordinator.write"]["count"]
        .as_i64()
        .expect("write histogram present");
    assert!(write_count > 0, "coordinator writes recorded");
    // Co-location in this system is a window read that fans out to the
    // nodes owning its hours in one `read_multi`; the import ran as
    // scheduler tasks on executor threads.
    let plans = metrics["data"]["counters"]["rasdb.coordinator.read_multi.plans"]
        .as_i64()
        .expect("read_multi plan counter present");
    assert!(plans > 0, "no read_multi plans recorded");
    let tasks = metrics["data"]["histograms"]["sparklet.scheduler.task"]["count"]
        .as_i64()
        .expect("task histogram present");
    assert!(tasks > 0, "no scheduler tasks recorded");

    // The framework's trace holds at least one span tree rooted at a server
    // request: the ring is its own, so no other test can flood it.
    let trace = jsonlite::parse(&engine.handle(r#"{"op":"trace"}"#)).expect("valid JSON");
    assert_eq!(trace["status"].as_str(), Some("ok"));
    let spans = trace["data"]["spans"].as_array().expect("span array");
    let roots: Vec<i64> = spans
        .iter()
        .filter(|s| {
            s["name"].as_str() == Some("server.engine.request") && s["parent"].as_i64().is_none()
        })
        .filter_map(|s| s["id"].as_i64())
        .collect();
    let rooted_tree = spans
        .iter()
        .any(|s| s["parent"].as_i64().is_some_and(|p| roots.contains(&p)));
    assert!(rooted_tree, "no span tree rooted at a server request");
}

#[test]
fn context_drilldown_matches_manual_filtering() {
    let (fw, scenario, cfg) = boot();
    fw.batch_import(&scenario.lines).expect("import");
    let t0 = cfg.start_ms;
    let mid = t0 + cfg.duration_ms / 2;

    // Narrowing a context halves the window like a temporal-map zoom.
    let full = Context::window(t0, t0 + cfg.duration_ms).with_type("LUSTRE_ERR");
    let narrowed = full.narrow(t0, mid);
    let all = full.fetch_events(&fw).expect("fetch");
    let first_half = narrowed.fetch_events(&fw).expect("fetch");
    let manual = all.iter().filter(|e| e.ts_ms < mid).count();
    assert_eq!(first_half.len(), manual);

    // Cabinet context equals filtering by topology.
    let cab = Context::window(t0, t0 + cfg.duration_ms)
        .with_type("LUSTRE_ERR")
        .with_cabinet(2);
    let got = cab.fetch_events(&fw).expect("fetch");
    let want = scenario
        .truth
        .iter()
        .filter(|o| o.event_type == "LUSTRE_ERR" && o.node / 96 == 2)
        .count();
    assert_eq!(got.len(), want);
}

#[test]
fn distribution_by_application_attributes_to_running_jobs() {
    let (fw, scenario, cfg) = boot();
    fw.batch_import(&scenario.lines).expect("import");
    let t0 = cfg.start_ms;
    let t1 = t0 + cfg.duration_ms;
    let d = distribution(
        &fw,
        &Context::window(t0, t1).with_type("LUSTRE_ERR"),
        GroupBy::Application,
    )
    .expect("dist");
    let attributed: f64 = d.entries.iter().map(|(_, c)| c).sum();
    let total = scenario
        .truth
        .iter()
        .filter(|o| o.event_type == "LUSTRE_ERR")
        .count() as f64;
    assert_eq!(attributed + d.unattributed, total, "mass conserved");
    // App labels come from the generated catalog.
    for (app, _) in &d.entries {
        assert!(
            loggen::jobs::APPLICATIONS.contains(&app.as_str()),
            "unknown app {app}"
        );
    }
}
