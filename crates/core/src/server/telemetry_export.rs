//! What a framework reports about itself, and its JSON rendering: the
//! counters, gauges and span histograms of its registry, and its trace
//! log.
//!
//! The `telemetry` crate stays dependency-free; everything that needs a
//! wire format (the `metrics`/`trace` query ops and the `/metrics` and
//! `/trace` HTTP endpoints) goes through these helpers instead.

use crate::framework::Framework;
use jsonlite::{json_array, json_object, Value as Json};
use telemetry::{HistogramSummary, Snapshot, SpanRecord};

fn summary_json(s: &HistogramSummary) -> Json {
    let mut obj = json_object([
        ("count", Json::from(s.count)),
        ("sum", Json::from(s.sum)),
        ("mean", Json::from(s.mean)),
        ("p50", Json::from(s.p50)),
        ("p95", Json::from(s.p95)),
        ("p99", Json::from(s.p99)),
        ("max", Json::from(s.max)),
    ]);
    // Exemplars link the slow tail back to a concrete request: the trace
    // id (same hex form as the envelope's `trace_id`) of the latest
    // sample at or above each quantile's bucket.
    if s.p99_exemplar != 0 {
        obj.insert(
            "p99_exemplar",
            Json::from(telemetry::trace_hex(s.p99_exemplar)),
        );
    }
    if s.max_exemplar != 0 {
        obj.insert(
            "max_exemplar",
            Json::from(telemetry::trace_hex(s.max_exemplar)),
        );
    }
    obj
}

/// What the `metrics` op reports for `fw`: its registry's counters, gauges
/// and span histograms, and the `rasdb.storage.*` counts summed over its
/// nodes.
pub fn snapshot(fw: &Framework) -> Snapshot {
    let mut snap = fw.telemetry().snapshot();
    let s = fw.cluster().stats();
    let storage = [
        ("writes", s.writes),
        ("reads", s.reads),
        ("flushes", s.flushes),
        ("compactions", s.compactions),
        ("bloom_skips", s.bloom_skips),
        ("sstable_probes", s.sstable_probes),
    ];
    snap.counters
        .extend(storage.map(|(k, v)| (format!("rasdb.storage.{k}"), v)));
    snap.counters.sort();
    snap
}

/// Zeroes every count [`snapshot`] reports for `fw` (its counters, the
/// nodes' counts and the span histograms) and clears its trace ring.
/// Gauges are levels and keep their value.
pub fn reset(fw: &Framework) {
    fw.telemetry().reset();
    fw.cluster().reset_stats();
}

/// [`snapshot`] as a JSON object with `counters`, `gauges`, and
/// `histograms` maps (histogram values in nanoseconds).
pub fn metrics_json(fw: &Framework) -> Json {
    let snap = snapshot(fw);
    let counters = snap.counters.into_iter().map(|(k, v)| (k, Json::from(v)));
    let gauges = snap.gauges.into_iter().map(|(k, v)| (k, Json::from(v)));
    let histograms = snap
        .histograms
        .iter()
        .map(|(k, s)| (k.clone(), summary_json(s)));
    json_object([
        ("counters", json_object(counters)),
        ("gauges", json_object(gauges)),
        ("histograms", json_object(histograms)),
    ])
}

fn span_json(s: &SpanRecord) -> Json {
    let mut obj = json_object([
        ("id", Json::from(s.id)),
        ("name", Json::from(s.name)),
        ("start_us", Json::from(s.start_us)),
        ("duration_ns", Json::from(s.duration_ns)),
        ("thread", Json::from(s.thread)),
        (
            "tags",
            json_object(s.tags.iter().map(|(k, v)| (*k, Json::from(v.as_str())))),
        ),
    ]);
    if let Some(p) = s.parent {
        obj.insert("parent", Json::from(p));
    }
    if let Some(t) = s.trace {
        obj.insert("trace", Json::from(telemetry::trace_hex(t)));
    }
    obj
}

/// `fw`'s trace ring as a JSON array, oldest span first.
pub fn trace_json(fw: &Framework) -> Json {
    json_array(fw.telemetry().trace_snapshot().iter().map(span_json))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Framework {
        Framework::new(crate::framework::FrameworkConfig {
            db_nodes: 2,
            replication_factor: 1,
            vnodes: 4,
            topology: loggen::topology::Topology::scaled(1, 1),
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn snapshot_renders_every_instrument_kind() {
        let fw = small();
        fw.telemetry().counter("test.export.count").incr(3);
        fw.telemetry().gauge("test.export.lag").set(-4);
        fw.telemetry()
            .histogram("test.export.lat")
            .record(1_000, None);
        let json = metrics_json(&fw);
        assert_eq!(json["counters"]["test.export.count"].as_i64(), Some(3));
        assert_eq!(json["gauges"]["test.export.lag"].as_i64(), Some(-4));
        assert_eq!(
            json["histograms"]["test.export.lat"]["count"].as_i64(),
            Some(1)
        );
        // Storage rows are the nodes' counts, summed when the snapshot is
        // taken: `Framework::new` wrote the schema's metadata rows.
        let writes = json["counters"]["rasdb.storage.writes"].as_i64();
        assert_eq!(writes, Some(fw.cluster().stats().writes as i64));
        assert!(writes > Some(0));
    }

    #[test]
    fn reset_zeroes_every_count_the_snapshot_reports_and_keeps_levels() {
        let fw = small();
        fw.telemetry().counter("test.export.count").incr(3);
        fw.telemetry().gauge("test.export.live").set(4);
        assert!(!fw.telemetry().trace_snapshot().is_empty(), "schema writes");
        reset(&fw);
        let snap = snapshot(&fw);
        assert!(snap.counters.iter().all(|(_, v)| *v == 0), "{snap:?}");
        assert!(
            snap.histograms.iter().all(|(_, h)| h.count == 0),
            "{snap:?}"
        );
        assert!(fw.telemetry().trace_snapshot().is_empty());
        assert_eq!(fw.cluster().stats(), Default::default());
        assert_eq!(fw.telemetry().gauge("test.export.live").get(), 4);
    }

    #[test]
    fn trace_spans_carry_parent_and_tags() {
        let fw = small();
        let telemetry = fw.telemetry();
        {
            let root = telemetry.span("test.export.root").enter();
            let mut child = telemetry
                .span("test.export.child")
                .enter_with_parent(root.id());
            child.tag("k", "v");
        }
        let spans = trace_json(&fw);
        let arr = spans.as_array().unwrap();
        let child = arr
            .iter()
            .find(|s| s["name"].as_str() == Some("test.export.child"))
            .unwrap();
        assert!(child["parent"].as_i64().is_some());
        assert_eq!(child["tags"]["k"].as_str(), Some("v"));
    }
}
