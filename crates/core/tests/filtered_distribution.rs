//! A filtered `distribution` request (a context with a cabinet, user, app or
//! source) answers from column blocks what its row-side reference answers,
//! is memoised like every other answer, and goes stale when the run table
//! its user filter read changes.

#[path = "support/context.rs"]
mod reference_context;

use hpclog_core::analytics::distribution::{distribution_of, GroupBy};
use hpclog_core::context::Context;
use hpclog_core::framework::{Framework, FrameworkConfig};
use hpclog_core::model::apprun::AppRun;
use hpclog_core::model::event::EventRecord;
use hpclog_core::model::keys::HOUR_MS;
use hpclog_core::server::QueryEngine;
use jsonlite::{json_array, json_object, Value as Json};
use loggen::topology::Topology;
use reference_context::fetch_events_reference;
use std::sync::Arc;

fn run(apid: i64, app: &str, end_ms: i64, nodes: (i64, i64)) -> AppRun {
    AppRun {
        apid,
        user: "usr1".into(),
        app: app.into(),
        start_ms: 0,
        end_ms,
        node_first: nodes.0,
        node_last: nodes.1,
        exit_code: 0,
        other_info: Default::default(),
    }
}

#[test]
fn filtered_distributions_are_the_reference_and_memoised() {
    let fw = Arc::new(
        Framework::new(FrameworkConfig {
            db_nodes: 3,
            replication_factor: 2,
            vnodes: 8,
            topology: Topology::scaled(2, 2),
            ..Default::default()
        })
        .unwrap(),
    );
    // Three hours of events over both cabinets, and in each hour one from
    // a source that is no compute node.
    for h in 0..3i64 {
        for i in 0..13i64 {
            let (ts_ms, amount) = (h * HOUR_MS + i * 4 * 60_000, 1 + (i % 3) as i32);
            let source = match i {
                12 => "mds01".to_owned(),
                _ => fw.topology().node((i * 17 % 192) as usize).cname,
            };
            fw.insert_event(&EventRecord {
                ts_ms,
                event_type: "LUSTRE_ERR".into(),
                source: source.into(),
                amount,
                raw: "LustreError: 11-0: an error".into(),
            })
            .unwrap();
        }
    }
    fw.insert_app_run(&run(1, "VASP", 2 * HOUR_MS + 30 * 60_000, (0, 95)))
        .unwrap();
    let e = QueryEngine::new(Arc::clone(&fw));
    let (from, to) = (30 * 60_000, 3 * HOUR_MS);
    let window = || Context::window(from, to).with_type("LUSTRE_ERR");

    let data = |req: &str| {
        let resp = jsonlite::parse(&e.handle(req)).expect("valid response JSON");
        assert_eq!(resp["status"].as_str(), Some("ok"), "{resp}");
        resp["data"].to_string()
    };
    let reference = |ctx: Context| {
        let rows = fetch_events_reference(&ctx, &fw).unwrap();
        let d = distribution_of(&fw, &rows, GroupBy::Node).unwrap();
        let entry = |(l, c): &(String, f64)| json_array([Json::from(l.as_str()), Json::from(*c)]);
        json_object([
            (
                "entries".to_owned(),
                json_array(d.entries.iter().map(entry)),
            ),
            ("unattributed".to_owned(), Json::from(d.unattributed)),
        ])
        .to_string()
    };
    let request = |filter: &str| {
        format!(
            r#"{{"op":"distribution","type":"LUSTRE_ERR","from":{from},"to":{to},"by":"node",{filter}}}"#
        )
    };

    for (filter, ctx) in [
        (r#""cabinet":1"#, window().with_cabinet(1)),
        (r#""user":"usr1""#, window().with_user("usr1")),
        (r#""app":"VASP""#, window().with_app("VASP")),
        (r#""source":"mds01""#, window().with_source("mds01")),
    ] {
        let (req, entries) = (request(filter), fw.result_cache().len());
        let uncached = data(&req);
        assert_eq!(uncached, reference(ctx), "{filter}");
        assert_eq!(fw.result_cache().len(), entries + 1, "{filter}: memoised");
        let hits = fw.result_cache().stats().hits();
        assert_eq!(data(&req), uncached, "{filter}: cached");
        assert_eq!(fw.result_cache().stats().hits(), hits + 1, "{filter}");
    }
    assert_eq!(fw.columnar().stats().blocks_built, 3, "one block per hour");

    // Another run of usr1 changes what the user context selects: the
    // memoised answer goes stale.
    let user = request(r#""user":"usr1""#);
    let before = data(&user);
    fw.insert_app_run(&run(2, "LAMMPS", 3 * HOUR_MS, (96, 191)))
        .unwrap();
    let invalidations = fw.result_cache().stats().invalidations();
    let after = data(&user);
    assert_eq!(fw.result_cache().stats().invalidations(), invalidations + 1);
    assert_ne!(after, before);
    assert_eq!(after, reference(window().with_user("usr1")));
}
