//! Golden envelope suite: one good request per op pinned against the v2
//! envelope contract, plus the typed error code each op's characteristic
//! bad input must produce.
//!
//! The contract under test (see `hpclog_core::server::request`):
//! - every response carries `"v": 2` and `"status"`;
//! - ok responses nest all op fields under `data` — nothing flat, no
//!   `deprecated` list (the v1-era mirror flag was removed in the v2
//!   cut);
//! - error responses carry `error.code` / `error.message` and nothing
//!   flat;
//! - the envelope is written around the stored bytes of `data`, and those
//!   bytes are exactly what encoding the whole envelope as one object
//!   would produce.

use hpclog_core::analytics::synopsis;
use hpclog_core::framework::{Framework, FrameworkConfig};
use hpclog_core::model::apprun::AppRun;
use hpclog_core::model::event::EventRecord;
use hpclog_core::model::keys::HOUR_MS;
use hpclog_core::server::QueryEngine;
use jsonlite::Value as Json;
use loggen::topology::Topology;
use std::sync::Arc;

fn engine() -> QueryEngine {
    let fw = Framework::new(FrameworkConfig {
        db_nodes: 3,
        replication_factor: 2,
        vnodes: 8,
        topology: Topology::scaled(2, 2),
        ..Default::default()
    })
    .unwrap();
    for i in 0..10i64 {
        fw.insert_event(&EventRecord {
            ts_ms: i * 60_000,
            event_type: "MCE".into(),
            source: format!("c0-0c0s{}n0", i % 4).into(),
            amount: 1,
            raw: format!("Machine Check Exception: bank {i}").into(),
        })
        .unwrap();
    }
    fw.insert_app_run(&AppRun {
        apid: 1,
        user: "usr0001".into(),
        app: "VASP".into(),
        start_ms: 0,
        end_ms: HOUR_MS,
        node_first: 0,
        node_last: 3,
        exit_code: 0,
        other_info: Default::default(),
    })
    .unwrap();
    synopsis::build_synopsis(&fw, 0, HOUR_MS).unwrap();
    QueryEngine::new(Arc::new(fw))
}

fn call(e: &QueryEngine, req: &str) -> Json {
    jsonlite::parse(&e.handle(req)).expect("valid response JSON")
}

/// One golden good request per op, with the exact `data` field names the
/// op must answer with. Changing a field name (or leaking a new one) is an
/// API break and must show up here.
fn golden_ops() -> Vec<(&'static str, String, Vec<&'static str>)> {
    vec![
        (
            "events",
            r#"{"op":"events","type":"MCE","from":0,"to":3600000}"#.into(),
            vec!["rows"],
        ),
        (
            "heatmap",
            r#"{"op":"heatmap","type":"MCE","from":0,"to":3600000}"#.into(),
            vec!["cabinets", "hottest", "mean", "outliers", "stddev", "total"],
        ),
        (
            "distribution",
            r#"{"op":"distribution","type":"MCE","from":0,"to":3600000,"by":"node"}"#.into(),
            vec!["entries", "unattributed"],
        ),
        (
            "histogram",
            r#"{"op":"histogram","type":"MCE","from":0,"to":3600000,"bin_ms":600000}"#.into(),
            vec!["bin_ms", "bins", "from"],
        ),
        (
            "transfer_entropy",
            r#"{"op":"transfer_entropy","x":"MCE","y":"GPU_DBE","from":0,"to":3600000,"bin_ms":60000,"max_lag":5}"#.into(),
            vec!["lags"],
        ),
        (
            "cross_correlation",
            r#"{"op":"cross_correlation","x":"MCE","y":"GPU_DBE","from":0,"to":3600000,"bin_ms":60000,"max_lag":3}"#.into(),
            vec!["correlations"],
        ),
        (
            "wordcount",
            r#"{"op":"wordcount","type":"MCE","from":0,"to":3600000,"top":5}"#.into(),
            vec!["terms"],
        ),
        (
            "apps",
            r#"{"op":"apps","from":0,"to":3600000}"#.into(),
            vec!["runs"],
        ),
        (
            "nodeinfo",
            r#"{"op":"nodeinfo","cname":"c0-0c0s0n0"}"#.into(),
            vec!["cage", "cname", "col", "gemini", "index", "node", "row", "slot"],
        ),
        (
            "synopsis",
            r#"{"op":"synopsis","day":0}"#.into(),
            vec!["rows"],
        ),
        (
            "rules",
            r#"{"op":"rules","from":0,"to":3600000,"window_ms":10000,"scope":"node","min_support":1}"#.into(),
            vec!["rules"],
        ),
        (
            "profile",
            r#"{"op":"profile","app":"VASP"}"#.into(),
            vec!["app", "node_hours", "rates", "runs"],
        ),
        (
            "predict",
            r#"{"op":"predict","target":"MCE","from":0,"to":3600000,"bin_ms":60000}"#.into(),
            vec!["alarms", "failures", "precision", "recall", "target", "weights"],
        ),
        (
            "render",
            r#"{"op":"render","view":"heatmap","type":"MCE","from":0,"to":3600000}"#.into(),
            vec!["svg", "view"],
        ),
        (
            "cql",
            r#"{"op":"cql","q":"SELECT * FROM event_by_time WHERE hour = 0 AND type = 'MCE' LIMIT 3"}"#.into(),
            vec!["rows"],
        ),
        (
            "topology",
            r#"{"op":"topology"}"#.into(),
            vec!["epoch", "members", "replication_factor", "state"],
        ),
        ("dlq", r#"{"op":"dlq"}"#.into(), vec!["depth", "entries"]),
        (
            "dlq_requeue",
            r#"{"op":"dlq_requeue"}"#.into(),
            vec![
                "events_reinserted",
                "lines_republished",
                "poison_dropped",
                "remaining",
            ],
        ),
        (
            "metrics",
            r#"{"op":"metrics"}"#.into(),
            vec!["counters", "enabled", "gauges", "histograms"],
        ),
        (
            "storage",
            r#"{"op":"storage"}"#.into(),
            vec![
                "blocks_built",
                "blocks_evicted",
                "blocks_resident",
                "bytes_budget",
                "bytes_resident",
                "dict_compression",
                "dict_encoded_bytes",
                "dict_raw_bytes",
                "hits",
                "invalidations",
                "misses",
                "zone_skips",
            ],
        ),
        (
            "slow_queries",
            r#"{"op":"slow_queries"}"#.into(),
            vec!["count", "queries", "threshold_ms"],
        ),
        (
            "health",
            r#"{"op":"health"}"#.into(),
            vec!["ops", "overall", "window_ms"],
        ),
        ("trace", r#"{"op":"trace"}"#.into(), vec!["spans"]),
    ]
}

#[test]
fn every_op_answers_in_the_v2_envelope_with_no_flat_leakage() {
    let e = engine();
    for (op, req, fields) in golden_ops() {
        let resp = call(&e, &req);
        assert_eq!(resp["v"].as_i64(), Some(2), "op {op}: envelope version");
        assert_eq!(resp["status"].as_str(), Some("ok"), "op {op}: {resp}");
        assert_eq!(
            resp["trace_id"].as_str().map(str::len),
            Some(16),
            "op {op}: every envelope carries a 16-hex-digit trace_id"
        );
        let data = resp["data"].as_object().unwrap_or_else(|| {
            panic!("op {op}: 'data' must be an object, got {resp}");
        });
        let keys: Vec<&str> = data.keys().map(String::as_str).collect();
        assert_eq!(keys, fields, "op {op}: golden data field set");
        assert!(
            resp["deprecated"].is_null(),
            "op {op}: the deprecated list was removed in the v2 cut"
        );
        for field in &fields {
            assert!(
                resp[*field].is_null(),
                "op {op}: field '{field}' leaked flat (v2 has no mirrors)"
            );
        }
    }
}

/// While a join is streaming, admin ops are refused with the typed
/// `TOPOLOGY_CHANGING` code and a machine-readable retry hint; once the
/// transition commits, the same request succeeds (or fails for its own
/// reasons, not the transition's).
#[test]
fn concurrent_admin_op_gets_topology_changing_with_retry_hint() {
    let e = engine();
    let cluster = Arc::clone(e.framework().cluster());
    // Tiny chunks plus a stall per chunk keep the join window open long
    // enough for the probe below to land inside it.
    cluster.set_stream_chunk_rows(1);
    let plan =
        rasdb::TopologyFaultPlan::none().slow_chunk_every(1, std::time::Duration::from_millis(20));
    let join = std::thread::spawn(move || cluster.join_node_with(plan).unwrap());
    // Wait until the status op reports the join in flight — probing with a
    // mutating op any earlier could win the race and start its own
    // transition instead.
    let mut joining = false;
    for _ in 0..5000 {
        let resp = call(&e, r#"{"op":"topology"}"#);
        if resp["data"]["state"]
            .as_str()
            .unwrap()
            .starts_with("joining")
        {
            joining = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert!(joining, "status never reported the join in flight");
    let resp = call(&e, r#"{"op":"topology","action":"decommission","node":0}"#);
    assert_eq!(
        resp["error"]["code"].as_str(),
        Some("TOPOLOGY_CHANGING"),
        "{resp}"
    );
    assert!(
        resp["error"]["retry_after_ms"].as_i64().unwrap() > 0,
        "retry hint must be positive: {resp}"
    );
    join.join().unwrap();
    // After commit the cluster is stable again: the same op now runs (and
    // succeeds — four members at rf 2 can lose one).
    let resp = call(&e, r#"{"op":"topology","action":"decommission","node":0}"#);
    assert_eq!(resp["status"].as_str(), Some("ok"), "{resp}");
}

/// Each op's characteristic bad input and the typed code it must produce.
fn error_rows() -> Vec<(&'static str, &'static str)> {
    vec![
        ("not json at all", "BAD_JSON"),
        (r#"{"no_op":1}"#, "BAD_REQUEST"),
        (r#"{"op":"zap"}"#, "UNKNOWN_OP"),
        (r#"{"op":"events","from":100,"to":0}"#, "BAD_WINDOW"),
        (r#"{"op":"events","from":100,"to":100}"#, "EMPTY_WINDOW"),
        (r#"{"op":"events","from":0,"to":1,"limit":0}"#, "BAD_LIMIT"),
        // Wider than 366 days: the hour plans alone would stall the server.
        (
            r#"{"op":"heatmap","type":"MCE","from":0,"to":9007199254740992}"#,
            "BAD_WINDOW",
        ),
        // A day in 1-ms bins is 86.4 million bins.
        (
            r#"{"op":"histogram","type":"MCE","from":0,"to":86400000,"bin_ms":1}"#,
            "BAD_REQUEST",
        ),
        (
            r#"{"op":"events","from":0,"to":1,"cursor":"junk"}"#,
            "BAD_CURSOR",
        ),
        (
            r#"{"op":"events","from":0,"to":1,"cursor":"ap:1:2"}"#,
            "BAD_CURSOR",
        ),
        (r#"{"op":"heatmap","from":0,"to":1}"#, "BAD_REQUEST"),
        (
            r#"{"op":"distribution","type":"MCE","from":0,"to":1,"by":"galaxy"}"#,
            "BAD_REQUEST",
        ),
        (
            r#"{"op":"histogram","type":"MCE","from":0,"to":1,"bin_ms":0}"#,
            "BAD_REQUEST",
        ),
        (
            r#"{"op":"transfer_entropy","y":"MCE","from":0,"to":1}"#,
            "BAD_REQUEST",
        ),
        (
            r#"{"op":"cross_correlation","x":"MCE","y":"MCE","from":0,"to":1,"max_lag":-1}"#,
            "BAD_REQUEST",
        ),
        (
            r#"{"op":"wordcount","type":"MCE","from":0,"to":1,"top":0}"#,
            "BAD_REQUEST",
        ),
        (r#"{"op":"apps"}"#, "BAD_REQUEST"),
        (r#"{"op":"nodeinfo","cname":"c9-9c9s9n9"}"#, "NOT_FOUND"),
        (r#"{"op":"synopsis"}"#, "BAD_REQUEST"),
        (
            r#"{"op":"rules","from":0,"to":1,"scope":"continent"}"#,
            "BAD_REQUEST",
        ),
        (r#"{"op":"profile"}"#, "BAD_REQUEST"),
        (r#"{"op":"predict","from":0,"to":1}"#, "BAD_REQUEST"),
        (
            r#"{"op":"render","view":"nope","from":0,"to":1}"#,
            "NOT_FOUND",
        ),
        (r#"{"op":"cql"}"#, "BAD_REQUEST"),
        (r#"{"op":"cql","q":"DROP TABLE x"}"#, "BAD_REQUEST"),
        (r#"{"op":"topology","action":"warp"}"#, "BAD_REQUEST"),
        (
            r#"{"op":"topology","action":"decommission"}"#,
            "BAD_REQUEST",
        ),
        (
            r#"{"op":"topology","action":"decommission","node":99}"#,
            "BAD_REQUEST",
        ),
        (r#"{"op":"dlq","max":0}"#, "BAD_REQUEST"),
        (r#"{"op":"dlq_requeue","max":-3}"#, "BAD_REQUEST"),
        // A filter field that is present but malformed is refused, not
        // dropped (the unfiltered answer) or wrapped (-1 as `usize::MAX`).
        (
            r#"{"op":"distribution","type":"MCE","from":0,"to":1,"cabinet":-1}"#,
            "BAD_REQUEST",
        ),
        (r#"{"op":"apps","cabinet":-1}"#, "BAD_REQUEST"),
        (
            r#"{"op":"events","type":"MCE","from":0,"to":1,"cabinet":"3"}"#,
            "BAD_REQUEST",
        ),
        (
            r#"{"op":"distribution","type":"MCE","from":0,"to":1,"cabinet":1.5}"#,
            "BAD_REQUEST",
        ),
        (
            r#"{"op":"distribution","type":"MCE","from":0,"to":1,"user":5}"#,
            "BAD_REQUEST",
        ),
        (r#"{"op":"apps","app":["VASP"]}"#, "BAD_REQUEST"),
        (
            r#"{"op":"events","from":0,"to":1,"source":{"cname":"c0-0c0s0n0"}}"#,
            "BAD_REQUEST",
        ),
        (
            r#"{"op":"wordcount","type":7,"from":0,"to":1}"#,
            "BAD_REQUEST",
        ),
        // So is a malformed optional op field: its default would answer a
        // question the client did not ask.
        (
            r#"{"op":"distribution","type":"MCE","from":0,"to":1,"by":3}"#,
            "BAD_REQUEST",
        ),
        (r#"{"op":"topology","action":5}"#, "BAD_REQUEST"),
        (r#"{"op":"rules","from":0,"to":1,"scope":1}"#, "BAD_REQUEST"),
        (r#"{"op":"slow_queries","max":"x"}"#, "BAD_REQUEST"),
        (r#"{"op":"metrics","reset":"yes"}"#, "BAD_REQUEST"),
        // A lag past the window's bin count: a sweep holds one entry per
        // lag, and every lag past the last bin answers 0.
        (
            r#"{"op":"cross_correlation","x":"MCE","y":"MCE","from":0,"to":3600000,"max_lag":1000000000000}"#,
            "BAD_REQUEST",
        ),
        (
            r#"{"op":"transfer_entropy","x":"MCE","y":"MCE","from":0,"to":3600000,"max_lag":1000000000000}"#,
            "BAD_REQUEST",
        ),
        (
            r#"{"op":"render","view":"te","x":"MCE","y":"MCE","from":0,"to":3600000,"max_lag":1000000000000}"#,
            "BAD_REQUEST",
        ),
        // A window bound that is not an integer, or one without the other,
        // even where the op would answer without a window.
        (
            r#"{"op":"events","type":"MCE","from":"0","to":3600000}"#,
            "BAD_REQUEST",
        ),
        (
            r#"{"op":"apps","user":"usr0001","from":0,"to":"3600000"}"#,
            "BAD_REQUEST",
        ),
        (r#"{"op":"apps","user":"usr0001","from":0}"#, "BAD_REQUEST"),
        // The envelope fields are typed too: a wrong type, or a `trace_id`
        // that is not hex, is refused under a fresh trace id.
        (r#"{"op":"zap","profile":"yes"}"#, "BAD_REQUEST"),
        (r#"{"op":"zap","profile":1}"#, "BAD_REQUEST"),
        (r#"{"op":"zap","trace_id":7}"#, "BAD_REQUEST"),
        (r#"{"op":"zap","trace_id":"not-hex"}"#, "BAD_REQUEST"),
    ]
}

/// The lag bound applies to a `max_lag` the client sent: a window shorter
/// than the default 10 lags still answers every lag.
#[test]
fn a_defaulted_max_lag_sweeps_past_a_short_window() {
    let e = engine();
    for (req, field, entries) in [
        (
            r#"{"op":"transfer_entropy","x":"MCE","y":"GPU_DBE","from":0,"to":3600000,"bin_ms":600000}"#,
            "lags",
            10,
        ),
        (
            r#"{"op":"cross_correlation","x":"MCE","y":"GPU_DBE","from":0,"to":3600000,"bin_ms":600000}"#,
            "correlations",
            21,
        ),
    ] {
        let resp = call(&e, req);
        assert_eq!(resp["status"].as_str(), Some("ok"), "{req}: {resp}");
        let got = resp["data"][field].as_array().map(<[Json]>::len);
        assert_eq!(got, Some(entries), "{req}: {resp}");
    }
    let te = r#"{"op":"render","view":"te","x":"MCE","y":"GPU_DBE","from":0,"to":3600000,"bin_ms":600000}"#;
    let resp = call(&e, te);
    assert_eq!(resp["status"].as_str(), Some("ok"), "{te}: {resp}");
}

#[test]
fn each_op_reports_its_characteristic_typed_error_code() {
    let e = engine();
    for (req, code) in error_rows() {
        let resp = call(&e, req);
        assert_eq!(resp["v"].as_i64(), Some(2), "{req}");
        assert_eq!(resp["status"].as_str(), Some("error"), "{req}: {resp}");
        assert_eq!(resp["error"]["code"].as_str(), Some(code), "{req}: {resp}");
        assert!(!resp["error"]["message"].as_str().unwrap().is_empty());
        assert!(resp["message"].is_null(), "{req}: no flat mirror");
        assert!(resp["data"].is_null(), "{req}: errors carry no data");
        assert_eq!(
            resp["trace_id"].as_str().map(str::len),
            Some(16),
            "{req}: errors carry a trace_id too"
        );
    }
}

/// The envelope is written key by key around the stored `data` bytes; the
/// bytes must be exactly those of the envelope encoded as one object — the
/// tree the writer replaced. Cached ops answer twice, so the second answer
/// splices the result cache's bytes.
#[test]
fn spliced_envelopes_are_the_bytes_of_the_encoded_tree() {
    let e = engine();
    let same_bytes = |body: String| {
        let tree = jsonlite::parse(&body).unwrap_or_else(|err| panic!("{err:?}: {body}"));
        assert_eq!(tree.to_string(), body, "re-encoding changed the bytes");
        tree
    };
    let hits = e.framework().result_cache().stats().hits();
    for (_, req, _) in golden_ops() {
        same_bytes(e.handle(&req));
        same_bytes(e.handle(&req));
    }
    assert!(e.framework().result_cache().stats().hits() > hits);
    for (req, _) in error_rows() {
        same_bytes(e.handle(req));
    }

    // A paged `events`: `page` between `data` and `status`.
    let paged = r#"{"op":"events","type":"MCE","from":0,"to":3600000,"limit":3}"#;
    let env = same_bytes(e.handle(paged));
    assert_eq!(env["page"]["has_more"].as_bool(), Some(true), "{env}");
    let cursor = env["page"]["cursor"].as_str().unwrap();
    let last = format!(
        r#"{{"op":"events","type":"MCE","from":0,"to":3600000,"limit":30,"cursor":"{cursor}"}}"#
    );
    let env = same_bytes(e.handle(&last));
    assert!(env["page"]["cursor"].is_null(), "{env}");

    // A profiled request, on a miss and on a hit, paged and not: `profile`
    // sorts between `page` and `status`.
    for req in [
        r#"{"op":"heatmap","type":"MCE","from":0,"to":1800000,"profile":true}"#,
        r#"{"op":"heatmap","type":"MCE","from":0,"to":1800000,"profile":true}"#,
        r#"{"op":"events","type":"MCE","from":0,"to":3600000,"limit":3,"profile":true}"#,
        r#"{"op":"zap","profile":true}"#,
    ] {
        let env = same_bytes(e.handle(req));
        assert!(env["profile"]["phases"].as_object().is_some(), "{env}");
    }

    // An adopted trace id, from the request field and from the transport.
    let env = same_bytes(e.handle(
        r#"{"op":"heatmap","type":"MCE","from":0,"to":3600000,"trace_id":"00000000deadbeef"}"#,
    ));
    assert_eq!(env["trace_id"].as_str(), Some("00000000deadbeef"));
    let env = same_bytes(e.handle_http(r#"{"op":"zap"}"#, Some(0xfeed)).body);
    assert_eq!(env["trace_id"].as_str(), Some("000000000000feed"));
}

/// The flight recorder links slow queries back to the trace ids the
/// envelopes handed out. Re-arming the threshold to 0 captures every
/// request, so the next query must show up with its phases.
#[test]
fn flight_recorder_surfaces_queries_with_their_trace_ids() {
    let e = engine();
    let resp = call(&e, r#"{"op":"slow_queries","threshold_ms":0}"#);
    assert_eq!(resp["data"]["threshold_ms"].as_i64(), Some(0));
    let q = call(&e, r#"{"op":"heatmap","type":"MCE","from":0,"to":3600000}"#);
    let trace = q["trace_id"].as_str().unwrap().to_owned();
    let resp = call(&e, r#"{"op":"slow_queries"}"#);
    let rows = resp["data"]["queries"].as_array().unwrap();
    assert_eq!(
        resp["data"]["count"].as_i64(),
        Some(rows.len() as i64),
        "{resp}"
    );
    let row = rows
        .iter()
        .find(|r| r["trace_id"].as_str() == Some(&trace))
        .unwrap_or_else(|| panic!("query {trace} not in recorder: {resp}"));
    assert_eq!(row["op"].as_str(), Some("heatmap"));
    assert_eq!(row["status"].as_str(), Some("ok"));
    assert!(row["total_us"].as_f64().unwrap() > 0.0);
    for phase in [
        "parse",
        "cache_probe",
        "plan",
        "fan_out",
        "merge",
        "analyze",
        "serialize",
    ] {
        assert!(
            row["phases"][phase].as_f64().is_some(),
            "phase '{phase}' missing: {row}"
        );
    }
}

/// An op whose objective cannot be met (0 ms latency target at a 50%
/// objective) must drive the health surface to `degraded`; untouched ops
/// stay `ok` and the overall status is the worst row.
#[test]
fn health_reports_forced_degradation() {
    use hpclog_core::server::slo::SloPolicy;
    let e = engine();
    e.slo().set_policy(
        "events",
        SloPolicy {
            latency_ms: 0,
            objective: 0.5,
        },
    );
    call(&e, r#"{"op":"events","type":"MCE","from":0,"to":3600000}"#);
    call(&e, r#"{"op":"heatmap","type":"MCE","from":0,"to":3600000}"#);
    let resp = call(&e, r#"{"op":"health"}"#);
    assert_eq!(resp["status"].as_str(), Some("ok"), "envelope itself is ok");
    assert_eq!(resp["data"]["overall"].as_str(), Some("degraded"), "{resp}");
    let ops = resp["data"]["ops"].as_array().unwrap();
    let events = ops
        .iter()
        .find(|r| r["op"].as_str() == Some("events"))
        .unwrap();
    assert_eq!(events["status"].as_str(), Some("degraded"), "{resp}");
    assert!(events["burn_rate"].as_f64().unwrap() >= 1.0);
    assert_eq!(events["latency_ms"].as_i64(), Some(0));
    let heatmap = ops
        .iter()
        .find(|r| r["op"].as_str() == Some("heatmap"))
        .unwrap();
    assert_eq!(heatmap["status"].as_str(), Some("ok"), "{resp}");
}
