//! End-to-end tracing and profiling contracts:
//!
//! - every envelope hands out a trace id, and caller-supplied ids (body
//!   field) are adopted verbatim;
//! - `"profile": true` returns a per-phase breakdown whose phases sum to
//!   the end-to-end latency within 10%;
//! - a profile is a closed span tree: every parent id resolves within the
//!   same profile (the coordinator's plan, replica-read and merge spans
//!   nest under its `read_multi` span on the calling thread), and
//!   concurrent profiled requests never leak spans into each other;
//! - the streaming ingester's per-step trace keeps its store/commit spans
//!   parented (no orphans across `StreamIngester` steps);
//! - a burst of lines larger than the trace ring does not push a streaming
//!   step's spans out of it (producer spans are profile-level detail);
//! - histogram exemplars and the flight recorder agree on trace ids.

use hpclog_core::etl::stream::{publish_lines, StreamIngester};
use hpclog_core::framework::{Framework, FrameworkConfig};
use hpclog_core::model::event::EventRecord;
use hpclog_core::server::QueryEngine;
use jsonlite::Value as Json;
use loggen::topology::Topology;
use loggen::trace::{Facility, RawLine};
use std::collections::HashSet;
use std::sync::Arc;

fn framework() -> Framework {
    Framework::new(FrameworkConfig {
        db_nodes: 3,
        replication_factor: 2,
        vnodes: 8,
        topology: Topology::scaled(2, 2),
        ..Default::default()
    })
    .unwrap()
}

fn engine() -> QueryEngine {
    let fw = framework();
    for i in 0..50i64 {
        fw.insert_event(&EventRecord {
            ts_ms: i * 60_000,
            event_type: "MCE".into(),
            source: format!("c0-0c0s{}n0", i % 4).into(),
            amount: 1,
            raw: format!("Machine Check Exception: bank {i}").into(),
        })
        .unwrap();
    }
    QueryEngine::new(Arc::new(fw))
}

fn call(e: &QueryEngine, req: &str) -> Json {
    jsonlite::parse(&e.handle(req)).expect("valid response JSON")
}

/// Asserts the profile is a closed tree rooted at exactly one
/// `server.engine.request` span: no parent id dangles outside the
/// profile's own span set. Returns the span names seen.
fn assert_closed_span_tree(resp: &Json) -> Vec<String> {
    let spans = resp["profile"]["spans"].as_array().expect("profile spans");
    let ids: HashSet<&str> = spans.iter().filter_map(|s| s["id"].as_str()).collect();
    let mut roots = 0;
    for s in spans {
        match s["parent"].as_str() {
            None => {
                assert_eq!(
                    s["name"].as_str(),
                    Some("server.engine.request"),
                    "only the request span may be parentless: {s}"
                );
                roots += 1;
            }
            Some(p) => assert!(
                ids.contains(p),
                "orphan span: parent {p} of {} not in this profile",
                s["name"]
            ),
        }
    }
    assert_eq!(roots, 1, "exactly one request root per profile");
    spans
        .iter()
        .map(|s| s["name"].as_str().unwrap().to_owned())
        .collect()
}

#[test]
fn body_trace_ids_are_adopted_and_fresh_ones_are_minted() {
    let e = engine();
    let resp = call(
        &e,
        r#"{"op":"events","type":"MCE","from":0,"to":3600000,"trace_id":"cafe1234"}"#,
    );
    assert_eq!(resp["trace_id"].as_str(), Some("00000000cafe1234"));
    // Without a caller id, two requests get distinct fresh ids.
    let a = call(&e, r#"{"op":"events","type":"MCE","from":0,"to":3600000}"#);
    let b = call(&e, r#"{"op":"events","type":"MCE","from":0,"to":3600000}"#);
    assert_ne!(a["trace_id"], b["trace_id"]);
    assert_eq!(a["trace_id"].as_str().map(str::len), Some(16));
}

#[test]
fn profile_phases_sum_to_the_end_to_end_latency() {
    let e = engine();
    // Cold (computes through the cluster) and warm (result-cache hit)
    // profiles must both account for their wall clock.
    for pass in ["cold", "warm"] {
        let resp = call(
            &e,
            r#"{"op":"heatmap","type":"MCE","from":0,"to":3600000,"profile":true}"#,
        );
        assert_eq!(resp["status"].as_str(), Some("ok"), "{pass}: {resp}");
        let profile = &resp["profile"];
        assert_eq!(
            profile["trace_id"], resp["trace_id"],
            "{pass}: profile and envelope agree on the trace"
        );
        let total = profile["total_us"].as_f64().unwrap();
        assert!(total > 0.0);
        let phases = profile["phases"].as_object().unwrap();
        assert_eq!(phases.len(), 7, "{pass}: all seven phases reported");
        let sum: f64 = phases.values().map(|v| v.as_f64().unwrap()).sum();
        let drift = (sum - total).abs() / total;
        assert!(
            drift <= 0.10,
            "{pass}: phases sum to {sum}µs but the request took {total}µs ({:.1}% off)",
            drift * 100.0
        );
        let cache = profile["cache"]["result"].as_str();
        match pass {
            "cold" => assert_eq!(cache, Some("miss"), "{resp}"),
            _ => assert_eq!(cache, Some("hit"), "{resp}"),
        }
    }
}

#[test]
fn cold_profiles_cover_the_scatter_gather_fan_out() {
    // A direct coordinator read and an analytics scan, on a framework
    // that never streamed: both read on the dispatch thread, so both
    // profiles must own their coordinator spans.
    for op in ["events", "heatmap"] {
        let e = engine();
        let resp = call(
            &e,
            &format!(r#"{{"op":"{op}","type":"MCE","from":0,"to":3600000,"profile":true}}"#),
        );
        assert_eq!(resp["status"].as_str(), Some("ok"), "{resp}");
        let names = assert_closed_span_tree(&resp);
        for expected in [
            "server.engine.request",
            "rasdb.coordinator.read_multi",
            "rasdb.coordinator.plan",
            "rasdb.coordinator.replica_read",
            "rasdb.coordinator.merge",
        ] {
            assert!(
                names.iter().any(|n| n == expected),
                "{op}: span '{expected}' missing from profile: {names:?}"
            );
        }
        // Fan-out stats ride on the read_multi span tags, and its time is
        // billed to the fan_out phase rather than to analyze.
        let profile = &resp["profile"];
        assert!(
            profile["fan_out"]["plans"].as_i64().unwrap_or(0) > 0,
            "{resp}"
        );
        assert!(
            profile["phases"]["fan_out"].as_f64().unwrap() > 0.0,
            "{resp}"
        );
    }
}

#[test]
fn interleaved_profiled_requests_do_not_cross_contaminate() {
    let e = Arc::new(engine());
    let mut handles = Vec::new();
    for worker in 0..4 {
        let e = Arc::clone(&e);
        handles.push(std::thread::spawn(move || {
            for round in 0..8 {
                // Distinct windows per worker/round defeat the result
                // cache, keeping the span mix rich on every request.
                let to = 3_600_000 - worker * 60_000 - round * 1_000;
                let req =
                    format!(r#"{{"op":"heatmap","type":"MCE","from":0,"to":{to},"profile":true}}"#);
                let resp = jsonlite::parse(&e.handle(&req)).expect("valid JSON");
                assert_eq!(resp["status"].as_str(), Some("ok"), "{resp}");
                assert_eq!(resp["profile"]["trace_id"], resp["trace_id"]);
                // A leaked span from a concurrent request would surface
                // as a second root or a dangling parent.
                assert_closed_span_tree(&resp);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

/// `n` MCE console lines of node 0, one a second from `from` on.
fn mce_lines(fw: &Framework, from: usize, n: usize) -> Vec<RawLine> {
    (from..from + n)
        .map(|i| RawLine {
            ts_ms: 1_500_000_000_000 + i as i64 * 1_000,
            facility: Facility::Console,
            source: fw.topology().node(0).cname.clone(),
            text: "Machine Check Exception: bank 1: b2 addr 3f cpu 0".to_owned(),
        })
        .collect()
}

/// A framework whose stream ingester ran one step over four lines.
fn stepped() -> Framework {
    let fw = framework();
    let mut ing = StreamIngester::new(&fw, "obs", 0).unwrap();
    publish_lines(&fw, &mce_lines(&fw, 0, 4)).unwrap();
    ing.step(16).unwrap();
    fw
}

#[test]
fn stream_ingester_steps_keep_their_spans_parented() {
    let fw = stepped();
    let spans = fw.telemetry().trace_snapshot();
    let by_id: std::collections::HashMap<u64, &telemetry::SpanRecord> =
        spans.iter().map(|s| (s.id, s)).collect();
    let stream_spans: Vec<_> = spans
        .iter()
        .filter(|s| s.name.starts_with("etl.stream."))
        .collect();
    assert!(
        stream_spans.iter().any(|s| s.name == "etl.stream.step"),
        "no ingest step span recorded"
    );
    for s in &stream_spans {
        assert!(s.trace.is_some(), "{} span lost its trace", s.name);
        if let Some(parent) = s.parent {
            // The framework's ring holds only its own spans, far fewer
            // than its capacity: a parent missing from it is an orphan.
            let p = by_id
                .get(&parent)
                .unwrap_or_else(|| panic!("{} lost its parent span", s.name));
            assert_eq!(
                p.trace, s.trace,
                "{} dangles off a different trace than its parent {}",
                s.name, p.name
            );
        } else {
            assert_eq!(
                s.name, "etl.stream.step",
                "only the step root may be parentless"
            );
        }
    }
}

#[test]
fn exemplars_and_the_flight_recorder_agree_on_trace_ids() {
    let e = engine();
    e.recorder().set_threshold_ms(0);
    let mut issued = HashSet::new();
    for to in [3_600_000, 3_500_000, 3_400_000] {
        let resp = call(
            &e,
            &format!(r#"{{"op":"heatmap","type":"MCE","from":0,"to":{to}}}"#),
        );
        issued.insert(resp["trace_id"].as_str().unwrap().to_owned());
    }
    // Every recorded query carries a well-formed trace id, and our
    // requests are all in the recorder (threshold 0 captures everything).
    let slow_queries = call(&e, r#"{"op":"slow_queries"}"#);
    let recorded: HashSet<String> = slow_queries["data"]["queries"]
        .as_array()
        .unwrap()
        .iter()
        .map(|q| q["trace_id"].as_str().unwrap().to_owned())
        .collect();
    for t in &issued {
        assert!(recorded.contains(t), "trace {t} missing from recorder");
    }
    // The request-latency histogram links its tail to a trace id in the
    // same hex form. The histogram is this framework's own, and the
    // `metrics` request's span is still open when it is read, so the
    // exemplar is a recorded panel or the `slow_queries` request.
    let metrics = call(&e, r#"{"op":"metrics"}"#);
    let hist = &metrics["data"]["histograms"]["server.engine.request"];
    let max_exemplar = hist["max_exemplar"].as_str().expect("max exemplar");
    assert_eq!(max_exemplar.len(), 16);
    assert!(max_exemplar.chars().all(|c| c.is_ascii_hexdigit()));
    let ours = recorded.contains(max_exemplar);
    assert!(ours || slow_queries["trace_id"].as_str() == Some(max_exemplar));
}

#[test]
fn a_busy_producer_leaves_a_steps_spans_in_the_trace_ring() {
    let fw = stepped();
    let recorded = || -> HashSet<&str> {
        let spans = fw.telemetry().trace_snapshot();
        spans.into_iter().map(|s| s.name).collect()
    };
    let step_spans = HashSet::from(["etl.stream.step", "rasdb.coordinator.write"]);
    assert!(recorded().is_superset(&step_spans), "{:?}", recorded());
    let burst = telemetry::TRACE_CAPACITY + 1_000;
    publish_lines(&fw, &mce_lines(&fw, 4, burst)).unwrap();
    let after = recorded();
    assert!(
        after.is_superset(&step_spans),
        "publishing {burst} lines evicted the step's spans: {after:?}"
    );
}
