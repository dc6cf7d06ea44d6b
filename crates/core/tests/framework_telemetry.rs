//! Each framework owns its instruments (DESIGN §6): a fresh one holds
//! exactly the documented names, two in one process count, trace, profile,
//! reset and switch spans off apart, and counts stay exact with spans off.

use hpclog_core::etl::batch::ImportOptions;
use hpclog_core::etl::stream::StreamIngester;
use hpclog_core::framework::{Framework, FrameworkConfig, RAW_LOG_TOPIC};
use hpclog_core::server::telemetry_export;
use hpclog_core::server::{HttpConfig, HttpServer, QueryEngine};
use loggen::topology::Topology;
use rasdb::query::Consistency;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const HOUR_MS: i64 = 3_600_000;

fn framework() -> Arc<Framework> {
    let fw = Framework::new(FrameworkConfig {
        db_nodes: 3,
        replication_factor: 2,
        vnodes: 4,
        topology: Topology::scaled(1, 1),
        ..Default::default()
    })
    .unwrap();
    Arc::new(fw)
}

/// A framework, its engine and an HTTP frontend over them.
fn served() -> (Arc<Framework>, Arc<QueryEngine>, HttpServer) {
    let fw = framework();
    let engine = Arc::new(QueryEngine::new(Arc::clone(&fw)));
    let cfg = HttpConfig {
        workers: 1,
        ..HttpConfig::default()
    };
    let server = HttpServer::start_with(Arc::clone(&engine), 0, cfg).unwrap();
    (fw, engine, server)
}

fn import_mce(fw: &Framework) {
    let corpus = b"1000 console c0-0c0s0n0 Machine Check Exception: bank 4\n\
                   2000 console c0-0c0s0n1 Machine Check Exception: bank 2\n";
    let report = fw
        .batch_import_bytes(corpus.to_vec(), &ImportOptions::default())
        .unwrap();
    assert_eq!(report.event_rows, 4, "two events, two views each");
}

/// A `GET` over a fresh connection; returns the body.
fn get(server: &HttpServer, path: &str) -> jsonlite::Value {
    let mut c = TcpStream::connect(server.addr()).unwrap();
    write!(
        c,
        "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    c.read_to_string(&mut raw).unwrap();
    let (_, body) = raw.split_once("\r\n\r\n").unwrap();
    jsonlite::parse(body).unwrap()
}

/// Every name of DESIGN §6's rows of `kind` (`"counter"`, `"gauge"` or
/// `"span"`, the `span/histogram` rows), braces expanded. A name ending in
/// `.<kind>` stands for a family.
fn documented(kind: &str) -> BTreeSet<String> {
    let design = include_str!("../../../DESIGN.md");
    let start = design.find("## 6. Observability").unwrap();
    let end = design.find("## 7. Coordinator reads").unwrap();
    let mut names = BTreeSet::new();
    for row in design[start..end].lines().filter(|l| l.starts_with("| `")) {
        let cells: Vec<&str> = row.split(" | ").collect();
        let kinds = cells[1];
        let matched = ["counter", "gauge", "span"]
            .iter()
            .filter(|k| kinds.contains(*k));
        assert_eq!(matched.count(), 1, "one kind per row: {row}");
        if kinds.contains(kind) {
            for quoted in cells[0].split('`').skip(1).step_by(2) {
                names.extend(expand(quoted));
            }
        }
    }
    names
}

/// `a.{b,c}.{d,e}` as its four names; `x{,.y}` as `x` and `x.y`.
fn expand(pattern: &str) -> Vec<String> {
    let Some(open) = pattern.find('{') else {
        return vec![pattern.to_owned()];
    };
    let close = open + pattern[open..].find('}').unwrap();
    pattern[open + 1..close]
        .split(',')
        .flat_map(|alt| {
            expand(&format!(
                "{}{alt}{}",
                &pattern[..open],
                &pattern[close + 1..]
            ))
        })
        .collect()
}

/// Checks `names` against the documented rows of `kind`: every name is a
/// row (or a member of a `.<kind>` family), every plain row is a name, and
/// every family has a member.
fn assert_documented(kind: &str, names: &BTreeSet<String>) {
    let rows = documented(kind);
    let (families, plain): (Vec<&String>, Vec<&String>) =
        rows.iter().partition(|r| r.ends_with(".<kind>"));
    let prefixes: Vec<&str> = families
        .iter()
        .map(|f| f.trim_end_matches("<kind>"))
        .collect();
    for name in names {
        let in_family = prefixes.iter().any(|p| name.starts_with(p));
        assert!(
            in_family || rows.contains(name),
            "{kind} {name} is not in DESIGN §6's table"
        );
    }
    for row in plain {
        assert!(
            names.contains(row),
            "DESIGN §6 lists {kind} {row}, which no framework holds"
        );
    }
    for p in prefixes {
        assert!(
            names.iter().any(|n| n.starts_with(p)),
            "DESIGN §6 lists the {kind} family {p}<kind>, which has no member"
        );
    }
}

#[test]
fn a_fresh_framework_holds_exactly_the_documented_counters_and_gauges() {
    let (fw, _engine, _server) = served();
    let snap = telemetry_export::snapshot(&fw);
    let counters: BTreeSet<String> = snap.counters.into_iter().map(|(k, _)| k).collect();
    let gauges: BTreeSet<String> = snap.gauges.into_iter().map(|(k, _)| k).collect();
    assert_documented("counter", &counters);
    assert_documented("gauge", &gauges);
}

#[test]
fn a_fresh_framework_lists_exactly_the_documented_span_histograms() {
    let (fw, _engine, _server) = served();
    assert_documented("span", &span_state(&fw).0.into_keys().collect());
}

#[test]
fn two_frameworks_in_one_process_count_apart() {
    let (a, a_engine, a_server) = served();
    let (b, b_engine, _b_server) = served();

    // `a` imports, streams a line no parser knows into its dead-letter
    // topic, answers one panel twice (the second from its result cache)
    // and keeps one HTTP connection open. `b` does nothing.
    import_mce(&a);
    logbus::Producer::new(a.bus())
        .send(RAW_LOG_TOPIC, Some("n0"), "not a log line")
        .unwrap();
    let report = StreamIngester::new(&a, "ingest", 0)
        .unwrap()
        .run_to_completion(64)
        .unwrap();
    assert_eq!(report.parse_failures, 1);
    for _ in 0..2 {
        ok(a_engine.handle(&panel(0)));
    }
    let open = TcpStream::connect(a_server.addr()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let connections = a.telemetry().gauge("server.http.connections");
    while connections.get() == 0 && Instant::now() < deadline {
        std::thread::yield_now();
    }

    // Through the engine: a `GET /v1/metrics` would count its own
    // connection.
    let metrics = |e: &QueryEngine| jsonlite::parse(&e.handle(r#"{"op":"metrics"}"#)).unwrap();
    let (a_metrics, b_metrics) = (metrics(&a_engine), metrics(&b_engine));
    for (kind, name) in [
        ("counters", "rasdb.coordinator.read_multi.plans"),
        ("counters", "cache.result.hit"),
        ("counters", "logbus.consumer.records"),
        ("gauges", "ingest.dlq.depth"),
        ("gauges", "server.http.connections"),
    ] {
        let of = |m: &jsonlite::Value| m["data"][kind][name].as_i64();
        assert!(of(&a_metrics) > Some(0), "{name} counted in a: {a_metrics}");
        assert_eq!(of(&b_metrics), Some(0), "{name} leaked into b: {b_metrics}");
    }
    assert_eq!(a.result_cache().stats().hits(), 1);
    assert_eq!(b.result_cache().stats().hits(), 0);
    assert_eq!(b.cluster().coordinator_stats().read_multi_plans(), 0);
    drop(open);
}

/// `fw`'s span histogram counts by name, and the ids in its trace ring.
fn span_state(fw: &Framework) -> (BTreeMap<String, u64>, Vec<u64>) {
    let snap = telemetry_export::snapshot(fw);
    let counts = snap.histograms.into_iter().map(|(k, s)| (k, s.count));
    let ring = fw
        .telemetry()
        .trace_snapshot()
        .iter()
        .map(|s| s.id)
        .collect();
    (counts.collect(), ring)
}

/// A panel over hour `h` (a cold read of that hour on first use).
fn panel(h: i64) -> String {
    let (from, to) = (h * HOUR_MS, (h + 1) * HOUR_MS);
    format!(r#"{{"op":"histogram","type":"MCE","from":{from},"to":{to},"bin_ms":{HOUR_MS}}}"#)
}

fn ok(response: String) -> String {
    assert!(response.contains(r#""status":"ok""#), "{response}");
    response
}

#[test]
fn two_frameworks_trace_profile_reset_and_switch_spans_apart() {
    let (a, a_engine, _a_server) = served();
    let (b, b_engine, b_server) = served();
    let count = |fw: &Framework, name: &str| span_state(fw).0[name];

    // `b` answers one panel; `a` imports and answers a profiled read, none
    // of whose spans reach `b`'s histograms or `/v1/trace`.
    ok(b_engine.handle(&panel(0)));
    import_mce(&a);
    let profiled = r#"{"op":"events","type":"MCE","from":0,"to":3600000,"profile":true}"#;
    let a_trace = jsonlite::parse(&ok(a_engine.handle(profiled))).unwrap()["trace_id"].clone();
    for name in ["etl.batch.import", "rasdb.coordinator.replica_read"] {
        assert!(count(&a, name) > 0 && count(&b, name) == 0, "{name}");
    }
    let b_trace = get(&b_server, "/v1/trace");
    let b_spans = b_trace["data"]["spans"].as_array().unwrap();
    assert!(b_spans
        .iter()
        .any(|s| s["name"].as_str() == Some("server.engine.request")));
    for s in b_spans {
        assert_ne!(s["name"].as_str(), Some("etl.batch.import"), "{s}");
        assert_ne!(s["trace"], a_trace, "{s}");
    }

    // Resetting `a` leaves `b`'s histograms and trace ring as they were;
    // `a` keeps only the `metrics` request's own span, closed after it.
    let b_before = span_state(&b);
    assert!(!b_before.1.is_empty());
    ok(a_engine.handle(r#"{"op":"metrics","reset":true}"#));
    let a_left: Vec<&str> = a
        .telemetry()
        .trace_snapshot()
        .iter()
        .map(|s| s.name)
        .collect();
    assert_eq!(a_left, ["server.engine.request"]);
    assert_eq!(count(&a, "etl.batch.import"), 0);
    assert_eq!(span_state(&b), b_before);

    // While `a` collects a profile, `b`'s cold read emits no detail spans.
    let profile = telemetry::TraceContext::root().trace_id;
    a.telemetry().begin_profile(profile);
    let read_multi = count(&b, "rasdb.coordinator.read_multi");
    ok(b_engine.handle(&panel(1)));
    a.telemetry().take_profile(profile);
    assert!(count(&b, "rasdb.coordinator.read_multi") > read_multi);
    let detail = ["plan", "replica_read", "merge"].map(|d| format!("rasdb.coordinator.{d}"));
    assert!(
        detail.iter().all(|name| count(&b, name) == 0),
        "b emitted {detail:?}"
    );

    // Switching `a`'s spans off leaves `b` recording.
    a.telemetry().set_enabled(false);
    let (a_before, b_requests) = (span_state(&a), count(&b, "server.engine.request"));
    ok(a_engine.handle(&panel(2)));
    ok(b_engine.handle(&panel(2)));
    assert_eq!(span_state(&a), a_before);
    assert_eq!(count(&b, "server.engine.request"), b_requests + 1);
}

#[test]
fn counts_stay_exact_with_spans_and_histograms_off() {
    let (fw, engine, server) = served();
    fw.telemetry().set_enabled(false);
    let writes = fw.cluster().stats().writes;
    import_mce(&fw);
    assert_eq!(fw.cluster().stats().writes, writes + 4 * 2, "RF 2");

    // A replica past the speculative deadline: the read hedges once.
    let plans = Framework::window_plans("event_by_time", Some("MCE"), 0, HOUR_MS);
    let owners = fw.cluster().owners(plans[0].partition.key());
    fw.cluster().node(owners[0]).set_read_latency_us(20_000);
    fw.cluster()
        .set_speculative_timeout(Duration::from_millis(2));
    let rows = fw.cluster().read_multi(&plans, Consistency::One).unwrap();
    assert_eq!(rows[0].len(), 2);
    assert_eq!(fw.cluster().coordinator_stats().speculative_retries(), 1);
    fw.cluster().node(owners[0]).set_read_latency_us(0);

    // Two panels over the same hour: the first builds its column block,
    // the second finds it.
    ok(engine.handle(&panel(0)));
    let heatmap = r#"{"op":"heatmap","type":"MCE","from":0,"to":3600000}"#;
    ok(engine.handle(heatmap));
    let storage = get(&server, "/v1/storage");
    assert_eq!(storage["data"]["misses"].as_i64(), Some(1), "{storage}");
    assert_eq!(storage["data"]["hits"].as_i64(), Some(1), "{storage}");
    assert_eq!(
        storage["data"]["blocks_built"].as_i64(),
        Some(1),
        "{storage}"
    );
}
