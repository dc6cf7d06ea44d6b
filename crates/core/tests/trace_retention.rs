//! The trace ring keeps what an operator reads: publishing a burst of lines
//! larger than the ring does not push a streaming step's spans out of it.
//! Per-record producer spans are profile-level detail, and only a profiled
//! request records them.
//!
//! The ring is process-wide, so this binary holds this one test: no other
//! test can refill the ring while it runs.

use hpclog_core::etl::stream::{publish_lines, StreamIngester};
use hpclog_core::framework::{Framework, FrameworkConfig};
use loggen::topology::Topology;
use loggen::trace::{Facility, RawLine};
use std::collections::HashSet;
use std::sync::Arc;

#[test]
fn a_busy_producer_leaves_a_steps_spans_in_the_trace_ring() {
    let fw = Arc::new(
        Framework::new(FrameworkConfig {
            db_nodes: 2,
            replication_factor: 1,
            vnodes: 4,
            topology: Topology::scaled(1, 1),
            ..Default::default()
        })
        .unwrap(),
    );
    let lines = |from: usize, to: usize| -> Vec<RawLine> {
        (from..to)
            .map(|i| RawLine {
                ts_ms: 1_500_000_000_000 + i as i64 * 1_000,
                facility: Facility::Console,
                source: fw.topology().node(0).cname.clone(),
                text: "Machine Check Exception: bank 1: b2 addr 3f cpu 0".to_owned(),
            })
            .collect()
    };
    let mut ing = StreamIngester::new(&fw, "retention", 0).unwrap();
    publish_lines(&fw, &lines(0, 4)).unwrap();
    ing.step(16).unwrap();
    let step_spans = ["etl.stream.step", "rasdb.coordinator.write"];
    let recorded = || -> HashSet<&'static str> {
        let spans = telemetry::trace_snapshot();
        spans.into_iter().map(|s| s.name).collect()
    };
    for name in step_spans {
        assert!(
            recorded().contains(name),
            "the step recorded no {name} span"
        );
    }

    let burst = telemetry::TRACE_CAPACITY + 1_000;
    publish_lines(&fw, &lines(4, 4 + burst)).unwrap();
    let after = recorded();
    for name in step_spans {
        assert!(
            after.contains(name),
            "publishing {burst} lines evicted the step's {name} span"
        );
    }
}
