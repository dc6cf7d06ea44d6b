//! What the two dashboard workloads share: the seeded framework, the
//! panel requests and the response checks.

use crate::world::{self, DAY_HOURS, HOUR_MS, T0};
use crate::Ctx;
use hpclog_core::etl::batch::ImportOptions;
use hpclog_core::framework::Framework;
use loggen::trace::Scenario;

/// Builds a framework, imports `titan_day` in one call and closes the day
/// (`note_ingest_commit(T0 + 24 h)`), so every hour is served from column
/// blocks. Records `setup.loggen_s`, `setup.framework_new_s` and
/// `setup.seed_import_s`.
pub fn seeded(ctx: &mut Ctx) -> (Scenario, Framework) {
    let smoke = ctx.opts.smoke;
    let day = ctx.stage("setup.loggen_s", |c| world::titan_day(smoke, c.opts.seed));
    let corpus = ctx.stage("setup.loggen_s", |_| day.render_corpus());
    println!(
        "dataset titan_day: {} lines, {} truth events, {} jobs, {:.1} MiB",
        day.lines.len(),
        day.truth.len(),
        day.jobs.len(),
        corpus.len() as f64 / (1 << 20) as f64
    );
    let fw = ctx.stage("setup.framework_new_s", |_| world::framework(smoke));
    let report = ctx.stage("setup.seed_import_s", |_| {
        fw.batch_import_bytes(corpus, &ImportOptions::default())
    });
    let lines = day.lines.len();
    ctx.checks.op(
        report.as_ref().is_ok_and(|r| {
            r.parsed == lines
                && r.skipped == 0
                && r.event_rows == 2 * day.truth.len()
                && r.jobs == day.jobs.len()
        }),
        || format!("seed import of {lines} lines reported {report:?}"),
    );
    fw.note_ingest_commit(T0 + DAY_HOURS * HOUR_MS);
    (day, fw)
}

/// `{"op":"heatmap",…}` over `[from, to)`.
pub fn heatmap(etype: &str, from: i64, to: i64) -> String {
    format!(r#"{{"op":"heatmap","type":"{etype}","from":{from},"to":{to}}}"#)
}

/// `{"op":"distribution",…,"by":"cabinet"}` over `[from, to)`.
pub fn distribution(etype: &str, from: i64, to: i64) -> String {
    format!(r#"{{"op":"distribution","type":"{etype}","from":{from},"to":{to},"by":"cabinet"}}"#)
}

/// `{"op":"histogram",…,"bin_ms":60000}` over `[from, to)`.
pub fn histogram(etype: &str, from: i64, to: i64) -> String {
    format!(r#"{{"op":"histogram","type":"{etype}","from":{from},"to":{to},"bin_ms":60000}}"#)
}

/// `{"op":"wordcount",…,"top":10}` over `[from, to)`.
pub fn wordcount(etype: &str, from: i64, to: i64) -> String {
    format!(r#"{{"op":"wordcount","type":"{etype}","from":{from},"to":{to},"top":10}}"#)
}

/// `{"op":"transfer_entropy","x":"LUSTRE_ERR","y":"LUSTRE_EVICT","max_lag":5}`.
pub fn transfer_entropy(from: i64, to: i64) -> String {
    format!(
        r#"{{"op":"transfer_entropy","x":"LUSTRE_ERR","y":"LUSTRE_EVICT","from":{from},"to":{to},"max_lag":5}}"#
    )
}

/// `{"op":"events","type":"MCE","limit":50}` over `[from, to)`.
pub fn events_mce(from: i64, to: i64) -> String {
    format!(r#"{{"op":"events","type":"MCE","from":{from},"to":{to},"limit":50}}"#)
}

/// Hits as a share of lookups (`0.0` before any lookup).
pub fn hit_ratio(hits: u64, misses: u64) -> f64 {
    hits as f64 / (hits + misses).max(1) as f64
}

/// Whether a v2 envelope reports success.
pub fn is_ok(body: &str) -> bool {
    body.contains(r#""status":"ok""#)
}

/// The envelope without its per-request `trace_id`, for byte comparison.
pub fn sans_trace_id(body: &str) -> String {
    const KEY: &str = r#""trace_id":""#;
    let Some(at) = body.find(KEY) else {
        return body.to_owned();
    };
    let value = at + KEY.len();
    let end = body[value..].find('"').map_or(body.len(), |e| value + e);
    format!("{}{}", &body[..value], &body[end..])
}

/// `data.total` of a heat-map envelope.
pub fn heatmap_total(body: &str) -> Option<f64> {
    jsonlite::parse(body).ok()?["data"]["total"].as_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_id_is_blanked_and_nothing_else() {
        let a = r#"{"data":{"total":3},"status":"ok","trace_id":"00ab","v":2}"#;
        let b = r#"{"data":{"total":3},"status":"ok","trace_id":"ffff0001","v":2}"#;
        assert_eq!(sans_trace_id(a), sans_trace_id(b));
        assert_eq!(
            sans_trace_id(a),
            r#"{"data":{"total":3},"status":"ok","trace_id":"","v":2}"#
        );
        assert_eq!(sans_trace_id("{}"), "{}");
        assert!(is_ok(a));
        assert!(!is_ok(
            r#"{"error":{"code":"BAD_WINDOW"},"status":"error","v":2}"#
        ));
        assert_eq!(heatmap_total(a), Some(3.0));
    }

    #[test]
    fn panel_requests_are_valid_json() {
        for q in [
            heatmap("MCE", 0, 10),
            distribution("MCE", 0, 10),
            histogram("MCE", 0, 10),
            wordcount("MCE", 0, 10),
            transfer_entropy(0, 10),
            events_mce(0, 10),
        ] {
            let v = jsonlite::parse(&q).unwrap();
            assert_eq!(v["to"].as_i64(), Some(10), "{q}");
        }
    }
}
