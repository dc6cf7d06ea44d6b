//! Cache equivalence: for any interleaving of direct writes, streaming
//! ingestion (with watermark commits), bare commits that write nothing,
//! synopsis rebuilds, columnar-block churn, topology-epoch bumps, node
//! outages, and queries, a framework with every cache tier (the block and
//! result caches and the columnar analytics store) enabled must answer
//! every request **byte-for-byte identically** to a framework with all of
//! them disabled.
//!
//! This is the correctness contract of the whole caching design: hits,
//! misses, stamp validation, columnar block builds/evictions, and
//! epoch-driven drops must never be observable through the API — and no
//! tier may need a commit to notice a write.

use hpclog_core::analytics::synopsis;
use hpclog_core::etl::stream::{publish_lines, StreamIngester};
use hpclog_core::framework::{Framework, FrameworkConfig};
use hpclog_core::model::event::EventRecord;
use hpclog_core::server::QueryEngine;
use loggen::topology::Topology;
use loggen::trace::{Facility, RawLine};
use proptest::prelude::*;
use rasdb::ring::NodeId;
use std::sync::Arc;

const T0: i64 = 1_500_000_000_000;
const SPAN_MS: i64 = 2 * 3_600_000;

/// One step of the interleaved workload, applied to both frameworks.
#[derive(Debug, Clone)]
enum Step {
    /// Direct insert through the batch path (bumps data versions).
    Insert { dt: i64, node: usize },
    /// Publish one raw line to the bus and run a streaming step — flushed
    /// windows commit offsets + watermark.
    Stream { dt: i64, node: usize },
    /// Advance the ingest watermark without writing anything: a commit
    /// alone must not change what any tier serves.
    Commit { watermark: i64 },
    /// Rebuild the synopsis table over the whole span.
    Synopsis,
    /// Evict every resident columnar block (budget to zero and back), so
    /// later scans rebuild from the row path mid-script.
    ColumnarChurn,
    /// Join a node into both clusters: the topology epoch moves, which
    /// must drop columnar blocks and result-cache entries alike.
    EpochBump,
    /// Take one node down, run every query, and bring it back. With one
    /// replica per partition, a read the down node owns fails: a tier that
    /// served a hit across the epoch change would answer instead.
    Outage { node: usize },
    /// Run one query from the fixed list against both engines.
    Query(usize),
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (0..SPAN_MS, 0usize..8).prop_map(|(dt, node)| Step::Insert { dt, node }),
        4 => (0..SPAN_MS, 0usize..8).prop_map(|(dt, node)| Step::Stream { dt, node }),
        2 => (-SPAN_MS..2 * SPAN_MS).prop_map(|dt| Step::Commit { watermark: T0 + dt }),
        2 => Just(Step::Synopsis),
        2 => Just(Step::ColumnarChurn),
        1 => Just(Step::EpochBump),
        1 => (0usize..8).prop_map(|node| Step::Outage { node }),
        6 => (0usize..7).prop_map(Step::Query),
    ]
}

fn queries() -> Vec<String> {
    let (a, b) = (T0, T0 + SPAN_MS);
    vec![
        format!(r#"{{"op":"heatmap","type":"MCE","from":{a},"to":{b}}}"#),
        format!(r#"{{"op":"histogram","type":"MCE","from":{a},"to":{b},"bin_ms":600000}}"#),
        format!(r#"{{"op":"wordcount","type":"MCE","from":{a},"to":{b},"top":10}}"#),
        format!(r#"{{"op":"distribution","type":"MCE","from":{a},"to":{b},"by":"node"}}"#),
        format!(r#"{{"op":"events","type":"MCE","from":{a},"to":{b}}}"#),
        format!(
            r#"{{"op":"cross_correlation","x":"MCE","y":"MCE","from":{a},"to":{b},"bin_ms":600000,"max_lag":3}}"#
        ),
        format!(r#"{{"op":"synopsis","day":{}}}"#, T0 / (24 * 3_600_000)),
    ]
}

fn boot(caches_on: bool) -> Arc<Framework> {
    let (columnar, result) = if caches_on {
        (4 << 20, 4 << 20)
    } else {
        (0, 0)
    };
    Arc::new(
        Framework::new(FrameworkConfig {
            db_nodes: 2,
            replication_factor: 1,
            vnodes: 4,
            topology: Topology::scaled(1, 1),
            columnar_cache_bytes: columnar,
            result_cache_bytes: result,
            ..Default::default()
        })
        .unwrap(),
    )
}

fn mce_line(topo: &Topology, dt: i64, node: usize) -> RawLine {
    RawLine {
        ts_ms: T0 + dt,
        facility: Facility::Console,
        source: topo.node(node % topo.node_count()).cname,
        text: "Machine Check Exception: bank 1: b2 addr 3f cpu 0".to_owned(),
    }
}

/// Blanks the per-request `trace_id` before comparing: every response
/// carries a fresh one by design, so it is the only envelope field allowed
/// to differ between the cached and uncached frameworks. The rest is
/// compared as sent, byte for byte — not parsed and re-encoded, which would
/// hide a difference in the bytes the result cache keeps.
fn sans_trace(resp: String) -> String {
    const KEY: &str = r#""trace_id":""#;
    let value = resp.rfind(KEY).expect("envelope carries trace_id") + KEY.len();
    let end = value + resp[value..].find('"').expect("trace_id is a string");
    format!("{}{}", &resp[..value], &resp[end..])
}

fn mce_event(topo: &Topology, dt: i64, node: usize) -> EventRecord {
    EventRecord {
        ts_ms: T0 + dt,
        event_type: "MCE".into(),
        source: topo.node(node % topo.node_count()).cname.into(),
        amount: 1,
        raw: "Machine Check Exception: bank 1: b2 addr 3f cpu 0".into(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cached_and_uncached_frameworks_answer_byte_identically(
        script in prop::collection::vec(arb_step(), 1..28),
    ) {
        let cached_fw = boot(true);
        let plain_fw = boot(false);
        let cached = QueryEngine::new(Arc::clone(&cached_fw));
        let plain = QueryEngine::new(Arc::clone(&plain_fw));
        let mut cached_ing = StreamIngester::new(&cached_fw, "eq", 0).unwrap();
        let mut plain_ing = StreamIngester::new(&plain_fw, "eq", 0).unwrap();
        let queries = queries();

        for step in &script {
            match step {
                Step::Insert { dt, node } => {
                    cached_fw
                        .insert_event(&mce_event(cached_fw.topology(), *dt, *node))
                        .unwrap();
                    plain_fw
                        .insert_event(&mce_event(plain_fw.topology(), *dt, *node))
                        .unwrap();
                }
                Step::Stream { dt, node } => {
                    publish_lines(&cached_fw, &[mce_line(cached_fw.topology(), *dt, *node)])
                        .unwrap();
                    publish_lines(&plain_fw, &[mce_line(plain_fw.topology(), *dt, *node)])
                        .unwrap();
                    cached_ing.step(16).unwrap();
                    plain_ing.step(16).unwrap();
                }
                Step::Commit { watermark } => {
                    cached_fw.note_ingest_commit(*watermark);
                    plain_fw.note_ingest_commit(*watermark);
                }
                Step::Synopsis => {
                    synopsis::build_synopsis(&cached_fw, T0, T0 + SPAN_MS).unwrap();
                    synopsis::build_synopsis(&plain_fw, T0, T0 + SPAN_MS).unwrap();
                }
                Step::ColumnarChurn => {
                    // Drop to zero (evicting everything resident) and
                    // restore the original budget. On the plain framework
                    // the budget is already zero, so this keeps it a pure
                    // row-path reference.
                    for fw in [&cached_fw, &plain_fw] {
                        let budget = fw.columnar().stats().bytes_budget as usize;
                        fw.columnar().set_budget(0);
                        fw.columnar().set_budget(budget);
                    }
                }
                Step::EpochBump => {
                    cached_fw.cluster().join_node().unwrap();
                    plain_fw.cluster().join_node().unwrap();
                }
                Step::Outage { node } => {
                    let id = NodeId(node % cached_fw.cluster().node_count());
                    cached_fw.cluster().take_node_down(id);
                    plain_fw.cluster().take_node_down(id);
                    for q in &queries {
                        prop_assert_eq!(
                            sans_trace(cached.handle(q)),
                            sans_trace(plain.handle(q)),
                            "node {} down: {}",
                            id.0,
                            q
                        );
                    }
                    cached_fw.cluster().bring_node_up(id);
                    plain_fw.cluster().bring_node_up(id);
                }
                Step::Query(i) => {
                    let q = &queries[*i];
                    prop_assert_eq!(
                        sans_trace(cached.handle(q)),
                        sans_trace(plain.handle(q)),
                        "query {}",
                        q
                    );
                }
            }
        }
        // Final sweep: every query, twice (the second pass reads the
        // cached side's warm entries), must still match the uncached
        // framework exactly.
        for q in &queries {
            prop_assert_eq!(
                sans_trace(cached.handle(q)),
                sans_trace(plain.handle(q)),
                "final {}",
                q
            );
            prop_assert_eq!(
                sans_trace(cached.handle(q)),
                sans_trace(plain.handle(q)),
                "warm {}",
                q
            );
        }
    }
}
