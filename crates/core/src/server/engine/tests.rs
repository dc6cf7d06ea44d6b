#![cfg(test)]

use super::*;
use crate::analytics::distribution::{distribution_of, GroupBy};
use crate::framework::FrameworkConfig;
use crate::model::apprun::AppRun;
use crate::model::event::EventRecord;
use crate::model::keys::HOUR_MS;
use loggen::topology::Topology;

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
    QueryEngine::new(Arc::new(fw))
}

fn call(e: &QueryEngine, req: &str) -> Json {
    let resp = e.handle(req);
    jsonlite::parse(&resp).expect("valid response JSON")
}

#[test]
fn events_roundtrip_through_json() {
    let e = engine();
    let resp = call(&e, r#"{"op":"events","type":"MCE","from":0,"to":3600000}"#);
    assert_eq!(resp["v"].as_i64(), Some(2), "the envelope-v2 cut");
    assert_eq!(resp["status"].as_str(), Some("ok"));
    assert_eq!(resp["data"]["rows"].as_array().unwrap().len(), 10);
    assert_eq!(resp["data"]["rows"][0]["type"].as_str(), Some("MCE"));
    assert!(resp["data"]["rows"][0]["raw"]
        .as_str()
        .unwrap()
        .contains("bank"));
    assert!(resp["rows"].is_null(), "flat mirrors are gone since v2");
    assert!(resp["deprecated"].is_null(), "so is the deprecated list");
}

#[test]
fn events_paginate_to_exhaustion() {
    let e = engine();
    let mut seen = Vec::new();
    let mut cursor: Option<String> = None;
    let mut pages = 0;
    loop {
        let req = match &cursor {
            None => r#"{"op":"events","type":"MCE","from":0,"to":3600000,"limit":3}"#.to_owned(),
            Some(c) => format!(
                r#"{{"op":"events","type":"MCE","from":0,"to":3600000,"limit":3,"cursor":"{c}"}}"#
            ),
        };
        let resp = call(&e, &req);
        assert_eq!(resp["status"].as_str(), Some("ok"), "{req}");
        let rows = resp["data"]["rows"].as_array().unwrap();
        assert!(rows.len() <= 3);
        seen.extend(rows.iter().map(|r| r["ts"].as_i64().unwrap()));
        pages += 1;
        if resp["page"]["has_more"].as_bool() == Some(true) {
            cursor = Some(resp["page"]["cursor"].as_str().unwrap().to_owned());
        } else {
            break;
        }
    }
    assert_eq!(pages, 4, "10 events at limit 3");
    assert_eq!(seen.len(), 10);
    let mut sorted = seen.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), 10, "no duplicates or gaps across pages");
}

#[test]
fn apps_paginate_with_cursor() {
    let e = engine();
    for apid in 0..7i64 {
        e.framework()
            .insert_app_run(&AppRun {
                apid,
                user: "usr0001".into(),
                app: "VASP".into(),
                start_ms: apid * 1000,
                end_ms: HOUR_MS,
                node_first: 0,
                node_last: 3,
                exit_code: 0,
                other_info: Default::default(),
            })
            .unwrap();
    }
    let resp = call(&e, r#"{"op":"apps","from":0,"to":3600000,"limit":4}"#);
    assert_eq!(resp["data"]["runs"].as_array().unwrap().len(), 4);
    assert_eq!(resp["page"]["has_more"].as_bool(), Some(true));
    let cursor = resp["page"]["cursor"].as_str().unwrap().to_owned();
    let resp = call(
        &e,
        &format!(r#"{{"op":"apps","from":0,"to":3600000,"limit":4,"cursor":"{cursor}"}}"#),
    );
    assert_eq!(resp["data"]["runs"].as_array().unwrap().len(), 3);
    assert_eq!(resp["page"]["has_more"].as_bool(), Some(false));
    assert!(resp["page"]["cursor"].is_null());
}

#[test]
fn typed_error_codes_on_bad_requests() {
    let e = engine();
    for (req, code) in [
        ("not json at all", "BAD_JSON"),
        (r#"{"no_op":1}"#, "BAD_REQUEST"),
        (r#"{"op":"zap"}"#, "UNKNOWN_OP"),
        (r#"{"op":"events","from":100,"to":0}"#, "BAD_WINDOW"),
        (r#"{"op":"events","from":100,"to":100}"#, "EMPTY_WINDOW"),
        (r#"{"op":"events","from":0,"to":1,"limit":0}"#, "BAD_LIMIT"),
        (
            r#"{"op":"events","from":0,"to":1,"cursor":"junk"}"#,
            "BAD_CURSOR",
        ),
        (
            r#"{"op":"events","from":0,"to":1,"cursor":"ap:1:2"}"#,
            "BAD_CURSOR",
        ),
        (r#"{"op":"nodeinfo","cname":"c9-9c9s9n9"}"#, "NOT_FOUND"),
        (r#"{"op":"heatmap","from":0,"to":1}"#, "BAD_REQUEST"),
        (r#"{"op":"cql","q":"DROP TABLE x"}"#, "BAD_REQUEST"),
        (
            r#"{"op":"histogram","type":"MCE","from":0,"to":1,"bin_ms":-5}"#,
            "BAD_REQUEST",
        ),
    ] {
        let resp = call(&e, req);
        assert_eq!(resp["status"].as_str(), Some("error"), "{req}");
        assert_eq!(resp["error"]["code"].as_str(), Some(code), "{req}");
        assert!(!resp["error"]["message"].as_str().unwrap().is_empty());
        assert!(resp["message"].is_null(), "flat error mirror gone in v2");
    }
}

#[test]
fn only_dispatched_ops_feed_slo_accounting() {
    let e = engine();
    for req in ["not json at all", r#"{"no_op":1}"#, r#"{"op":"nope"}"#] {
        call(&e, req);
        assert!(e.slo().health().1.is_empty(), "{req}");
    }
    call(&e, r#"{"op":"metrics"}"#);
    let (_, rows) = e.slo().health();
    assert_eq!(rows.len(), 1);
    assert_eq!((rows[0].op.as_str(), rows[0].total), ("metrics", 1));
}

#[test]
fn heatmap_and_histogram_ops() {
    let e = engine();
    let resp = call(&e, r#"{"op":"heatmap","type":"MCE","from":0,"to":3600000}"#);
    assert_eq!(resp["status"].as_str(), Some("ok"));
    assert_eq!(resp["data"]["cabinets"].as_array().unwrap().len(), 4);
    assert_eq!(resp["data"]["total"].as_f64(), Some(10.0));

    let resp = call(
        &e,
        r#"{"op":"histogram","type":"MCE","from":0,"to":3600000,"bin_ms":600000}"#,
    );
    assert_eq!(resp["data"]["bins"].as_array().unwrap().len(), 6);
}

#[test]
fn distribution_op_groups() {
    let e = engine();
    let resp = call(
        &e,
        r#"{"op":"distribution","type":"MCE","from":0,"to":3600000,"by":"node"}"#,
    );
    assert_eq!(resp["status"].as_str(), Some("ok"));
    assert_eq!(resp["data"]["entries"].as_array().unwrap().len(), 4);
}

/// The two spellings of the application grouping name one answer, so
/// they share one result-cache entry.
#[test]
fn distribution_cache_key_is_the_grouping_not_its_spelling() {
    let e = engine();
    let cache = e.framework().result_cache();
    let req = |by: &str| {
        format!(r#"{{"op":"distribution","type":"MCE","from":0,"to":3600000,"by":"{by}"}}"#)
    };
    let first = call(&e, &req("app"));
    let (entries, hits) = (cache.len(), cache.stats().hits());
    let second = call(&e, &req("application"));
    assert_eq!(cache.stats().hits(), hits + 1, "the other spelling hits");
    assert_eq!(cache.len(), entries, "and stores nothing new");
    assert_eq!(second["data"], first["data"]);
}

/// `distribution` answers from column blocks what the row path answers,
/// the still-filling hour included, and memoises the answer with the
/// hours it read. Filtered contexts are held to their row-side
/// reference in `tests/filtered_distribution.rs`.
#[test]
fn distribution_on_column_blocks_is_the_row_path_byte_for_byte() {
    let fw = Framework::new(FrameworkConfig {
        db_nodes: 3,
        replication_factor: 2,
        vnodes: 8,
        topology: Topology::scaled(2, 2),
        ..Default::default()
    })
    .unwrap();
    let event = |ts_ms: i64, source: String, amount: i32| EventRecord {
        ts_ms,
        event_type: "LUSTRE_ERR".into(),
        source: source.into(),
        amount,
        raw: "LustreError: 11-0: an error".into(),
    };
    // Three hours of events over both cabinets, and in each hour one
    // from a source that is no compute node.
    for h in 0..3i64 {
        for i in 0..12i64 {
            let node = fw.topology().node((i * 17 % 192) as usize).cname;
            fw.insert_event(&event(
                h * HOUR_MS + i * 4 * 60_000,
                node,
                1 + (i % 3) as i32,
            ))
            .unwrap();
        }
        fw.insert_event(&event(h * HOUR_MS + 7, "mds01".into(), 5))
            .unwrap();
    }
    fw.insert_app_run(&AppRun {
        apid: 1,
        user: "usr1".into(),
        app: "VASP".into(),
        start_ms: 0,
        end_ms: 2 * HOUR_MS + 30 * 60_000,
        node_first: 0,
        node_last: 95,
        exit_code: 0,
        other_info: Default::default(),
    })
    .unwrap();
    // The stream has committed through hour 1; hour 2 is still open.
    fw.note_ingest_commit(2 * HOUR_MS);
    let e = QueryEngine::new(Arc::new(fw));
    let fw = &e.fw;
    let (from, to) = (30 * 60_000, 3 * HOUR_MS);

    let data = |resp: String| {
        let resp = jsonlite::parse(&resp).expect("valid response JSON");
        assert_eq!(resp["status"].as_str(), Some("ok"), "{resp}");
        resp["data"].to_string()
    };
    let row_path = |by: GroupBy| {
        let rows = fw.events_by_type("LUSTRE_ERR", from, to).unwrap();
        let d = distribution_of(fw, &rows, by).unwrap();
        let entries = d
            .entries
            .iter()
            .map(|(l, c)| json_array([Json::from(l.as_str()), Json::from(*c)]));
        json_object([
            ("entries".to_owned(), json_array(entries)),
            ("unattributed".to_owned(), Json::from(d.unattributed)),
        ])
        .to_string()
    };

    for (name, by) in [
        ("cabinet", GroupBy::Cabinet),
        ("blade", GroupBy::Blade),
        ("node", GroupBy::Node),
        ("application", GroupBy::Application),
    ] {
        let req = format!(
            r#"{{"op":"distribution","type":"LUSTRE_ERR","from":{from},"to":{to},"by":"{name}"}}"#
        );
        let (entries, hits) = (fw.result_cache().len(), fw.result_cache().stats().hits());
        let uncached = data(e.handle(&req));
        assert_eq!(uncached, row_path(by), "by {name}");
        assert!(!uncached.contains(r#""unattributed":0"#), "{uncached}");
        assert_eq!(fw.result_cache().len(), entries + 1, "by {name}: memoised");
        assert_eq!(data(e.handle(&req)), uncached, "by {name}: cached");
        assert_eq!(fw.result_cache().stats().hits(), hits + 1);
    }
    let blocks = fw.columnar().stats();
    assert_eq!(blocks.blocks_built, 3, "one per hour, the open one too");

    // A write into the open hour makes the memoised answer stale.
    let req = format!(
        r#"{{"op":"distribution","type":"LUSTRE_ERR","from":{from},"to":{to},"by":"cabinet"}}"#
    );
    let before = data(e.handle(&req));
    fw.insert_event(&event(2 * HOUR_MS + 50 * 60_000, "c1-0c0s0n0".into(), 9))
        .unwrap();
    fw.note_ingest_commit(2 * HOUR_MS + 50 * 60_000);
    let after = data(e.handle(&req));
    assert_ne!(after, before);
    assert_eq!(after, row_path(GroupBy::Cabinet));
}

#[test]
fn te_and_correlation_ops_return_curves() {
    let e = engine();
    let resp = call(
        &e,
        r#"{"op":"transfer_entropy","x":"MCE","y":"GPU_DBE","from":0,"to":3600000,"bin_ms":60000,"max_lag":5}"#,
    );
    assert_eq!(resp["data"]["lags"].as_array().unwrap().len(), 5);
    let resp = call(
        &e,
        r#"{"op":"cross_correlation","x":"MCE","y":"GPU_DBE","from":0,"to":3600000,"bin_ms":60000,"max_lag":3}"#,
    );
    assert_eq!(resp["data"]["correlations"].as_array().unwrap().len(), 7);
}

#[test]
fn wordcount_op_counts_terms() {
    let e = engine();
    let resp = call(
        &e,
        r#"{"op":"wordcount","type":"MCE","from":0,"to":3600000,"top":5}"#,
    );
    let terms = resp["data"]["terms"].as_array().unwrap();
    assert!(!terms.is_empty());
    // "Machine" appears in every raw message.
    assert!(terms.iter().any(|t| t[0].as_str() == Some("Machine")));
}

#[test]
fn nodeinfo_and_cql_ops() {
    let e = engine();
    let resp = call(&e, r#"{"op":"nodeinfo","cname":"c1-1c2s7n3"}"#);
    assert_eq!(resp["status"].as_str(), Some("ok"));
    assert_eq!(resp["data"]["row"].as_i64(), Some(1));

    let resp = call(
        &e,
        r#"{"op":"cql","q":"SELECT * FROM event_by_time WHERE hour = 0 AND type = 'MCE' LIMIT 3"}"#,
    );
    assert_eq!(resp["status"].as_str(), Some("ok"));
    assert_eq!(resp["data"]["rows"].as_array().unwrap().len(), 3);
}

#[test]
fn rules_profile_predict_ops() {
    let e = engine();
    // Seed a causal pair so `rules` finds something.
    for i in 0..20i64 {
        for (t, at) in [
            ("NET_LINK", i * 120_000),
            ("LUSTRE_ERR", i * 120_000 + 5_000),
        ] {
            e.framework()
                .insert_event(&EventRecord {
                    ts_ms: at,
                    event_type: t.into(),
                    source: "c0-0c0s0n0".into(),
                    amount: 1,
                    raw: "".into(),
                })
                .unwrap();
        }
    }
    let resp = call(
        &e,
        r#"{"op":"rules","from":0,"to":3600000,"window_ms":10000,"scope":"node","min_support":5}"#,
    );
    assert_eq!(resp["status"].as_str(), Some("ok"));
    let rules = resp["data"]["rules"].as_array().unwrap();
    assert!(rules
        .iter()
        .any(|r| r["antecedent"].as_str() == Some("NET_LINK")
            && r["consequent"].as_str() == Some("LUSTRE_ERR")));

    let resp = call(&e, r#"{"op":"profile","app":"VASP"}"#);
    assert_eq!(resp["status"].as_str(), Some("ok"));
    assert_eq!(resp["data"]["runs"].as_i64(), Some(0));

    let resp = call(
        &e,
        r#"{"op":"predict","target":"LUSTRE_ERR","from":0,"to":3600000,"bin_ms":60000}"#,
    );
    assert_eq!(resp["status"].as_str(), Some("ok"));
    assert!(resp["data"]["weights"].as_object().is_some());
}

#[test]
fn render_op_returns_svg() {
    let e = engine();
    let resp = call(
        &e,
        r#"{"op":"render","view":"heatmap","type":"MCE","from":0,"to":3600000}"#,
    );
    assert_eq!(resp["status"].as_str(), Some("ok"));
    let svg = resp["data"]["svg"].as_str().unwrap();
    assert!(svg.starts_with("<svg"));
    let resp = call(&e, r#"{"op":"render","view":"nope","from":0,"to":1}"#);
    assert_eq!(resp["status"].as_str(), Some("error"));
}

#[test]
fn dlq_ops_inspect_and_requeue() {
    use crate::etl::stream::{publish_lines, StreamIngester};
    use loggen::trace::{Facility, RawLine};
    let e = engine();
    // An empty DLQ reports zero depth.
    let resp = call(&e, r#"{"op":"dlq"}"#);
    assert_eq!(resp["status"].as_str(), Some("ok"));
    assert_eq!(resp["data"]["depth"].as_i64(), Some(0));
    // Ingest a poison line: it dead-letters.
    publish_lines(
        e.framework(),
        &[RawLine {
            ts_ms: 0,
            facility: Facility::Console,
            source: "c0-0c0s0n0".to_owned(),
            text: "~~~ unparseable gibberish ~~~".to_owned(),
        }],
    )
    .unwrap();
    StreamIngester::new(e.framework(), "g", 0)
        .unwrap()
        .run_to_completion(16)
        .unwrap();
    let resp = call(&e, r#"{"op":"dlq","max":5}"#);
    assert_eq!(resp["data"]["depth"].as_i64(), Some(1));
    let entries = resp["data"]["entries"].as_array().unwrap();
    assert_eq!(entries.len(), 1);
    assert!(entries[0]["value"]
        .as_str()
        .unwrap()
        .contains("unparseable gibberish"));
    // Requeue republishes the line and empties the queue.
    let resp = call(&e, r#"{"op":"dlq_requeue"}"#);
    assert_eq!(resp["status"].as_str(), Some("ok"));
    assert_eq!(resp["data"]["lines_republished"].as_i64(), Some(1));
    assert_eq!(resp["data"]["remaining"].as_i64(), Some(0));
    let resp = call(&e, r#"{"op":"dlq"}"#);
    assert_eq!(resp["data"]["depth"].as_i64(), Some(0));
}

#[test]
fn topology_op_status_join_decommission() {
    let e = engine();
    let resp = call(&e, r#"{"op":"topology"}"#);
    assert_eq!(resp["status"].as_str(), Some("ok"));
    assert_eq!(resp["data"]["state"].as_str(), Some("stable"));
    assert_eq!(resp["data"]["members"].as_array().unwrap().len(), 3);
    let epoch0 = resp["data"]["epoch"].as_i64().unwrap();

    // Join a fourth node: ranges stream in, epoch bumps once.
    let resp = call(&e, r#"{"op":"topology","action":"join"}"#);
    assert_eq!(resp["status"].as_str(), Some("ok"), "{resp}");
    assert_eq!(resp["data"]["action"].as_str(), Some("join"));
    assert_eq!(resp["data"]["node"].as_i64(), Some(3));
    assert_eq!(resp["data"]["epoch"].as_i64(), Some(epoch0 + 1));
    let resp = call(&e, r#"{"op":"topology"}"#);
    assert_eq!(resp["data"]["members"].as_array().unwrap().len(), 4);

    // Decommission it again: back to three ring members, retired slot
    // stays listed.
    let resp = call(&e, r#"{"op":"topology","action":"decommission","node":3}"#);
    assert_eq!(resp["status"].as_str(), Some("ok"), "{resp}");
    assert_eq!(resp["data"]["action"].as_str(), Some("decommission"));
    let resp = call(&e, r#"{"op":"topology"}"#);
    let members = resp["data"]["members"].as_array().unwrap();
    assert_eq!(members.len(), 4);
    assert_eq!(members[3]["in_ring"].as_bool(), Some(false));
    assert_eq!(members[3]["up"].as_bool(), Some(false));

    // Bad actions and bad targets are typed errors.
    let resp = call(&e, r#"{"op":"topology","action":"warp"}"#);
    assert_eq!(resp["error"]["code"].as_str(), Some("BAD_REQUEST"));
    let resp = call(&e, r#"{"op":"topology","action":"decommission"}"#);
    assert_eq!(resp["error"]["code"].as_str(), Some("BAD_REQUEST"));
    let resp = call(&e, r#"{"op":"topology","action":"decommission","node":3}"#);
    assert_eq!(resp["error"]["code"].as_str(), Some("BAD_REQUEST"));
}

#[test]
fn repeated_queries_hit_the_result_cache_until_new_data_lands() {
    let e = engine();
    let req = r#"{"op":"heatmap","type":"MCE","from":0,"to":3600000}"#;
    // Each response carries its own trace id; strip it before the
    // byte-identical comparison.
    let strip_trace = |resp: &str| {
        let mut v = jsonlite::parse(resp).unwrap();
        assert!(v["trace_id"].as_str().is_some(), "trace_id on envelope");
        v.remove("trace_id");
        v.to_string()
    };
    let first = strip_trace(&e.handle(req));
    let hits0 = e.framework().result_cache().stats().hits();
    let second = strip_trace(&e.handle(req));
    assert_eq!(first, second, "cached response is byte-identical");
    assert_eq!(e.framework().result_cache().stats().hits(), hits0 + 1);
    // An equivalent request with different field order shares the
    // entry (canonical keys)...
    let reordered = e.handle(r#"{"to":3600000,"from":0,"type":"MCE","op":"heatmap"}"#);
    assert_eq!(e.framework().result_cache().stats().hits(), hits0 + 2);
    let reordered = jsonlite::parse(&reordered).unwrap();
    assert_eq!(reordered["data"]["total"].as_f64(), Some(10.0));
    assert!(reordered["total"].is_null(), "flat mirrors gone in v2");
    // ...and new data in the window invalidates lazily.
    e.framework()
        .insert_event(&EventRecord {
            ts_ms: 30_000,
            event_type: "MCE".into(),
            source: "c0-0c0s1n0".into(),
            amount: 1,
            raw: "one more".into(),
        })
        .unwrap();
    let third = strip_trace(&e.handle(req));
    assert_ne!(second, third);
    let parsed = jsonlite::parse(&third).unwrap();
    assert_eq!(parsed["data"]["total"].as_f64(), Some(11.0));
    assert!(e.framework().result_cache().stats().invalidations() >= 1);
}

/// The open hour is a partition whose version moves, nothing more: a
/// streaming commit that wrote nothing leaves an answer over it a hit,
/// and a write into one of its hours makes it a miss.
#[test]
fn an_open_window_entry_lives_until_a_write_not_a_commit() {
    let e = engine();
    let fw = e.framework();
    let req = r#"{"op":"heatmap","type":"MCE","from":0,"to":7200000}"#;
    let first = call(&e, req);
    let stats = fw.result_cache().stats();
    for watermark in [i64::MIN, 30 * 60_000, HOUR_MS + 1, 2 * HOUR_MS] {
        fw.note_ingest_commit(watermark);
        let hits = stats.hits();
        assert_eq!(call(&e, req)["data"], first["data"], "after {watermark}");
        assert_eq!(stats.hits(), hits + 1, "a commit drops nothing");
    }
    assert_eq!(stats.invalidations(), 0);
    fw.insert_event(&EventRecord {
        ts_ms: HOUR_MS + 5,
        event_type: "MCE".into(),
        source: "c0-0c0s1n0".into(),
        amount: 1,
        raw: "written into the second hour".into(),
    })
    .unwrap();
    let (hits, misses) = (stats.hits(), stats.misses());
    let after = call(&e, req);
    assert_eq!((stats.hits(), stats.misses()), (hits, misses + 1));
    assert_eq!(stats.invalidations(), 1);
    assert_eq!(after["data"]["total"].as_f64(), Some(11.0));
}
