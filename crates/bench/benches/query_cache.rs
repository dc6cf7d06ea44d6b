//! Warm vs cold dashboard refresh through the two cache tiers (result and
//! column blocks): the same four-panel analytics dashboard (heatmap,
//! distribution, histogram, wordcount) over a fixed 24-hour window,
//! repeated the way a frontend polls it. Cold runs against a framework
//! with both cache tiers disabled; warm runs against the default framework
//! after one priming pass, so every request is a validated result-cache
//! hit.
//!
//! Per-read replica service latency is simulated (as in the
//! scatter_gather bench) to stand in for the RPC + disk time a networked
//! ring pays per partition read — the cost the cache exists to avoid.
//!
//! Emits `BENCH_query_cache.json` at the workspace root (skipped in smoke
//! mode: `QUERY_CACHE_SMOKE=1` runs a fast correctness + speedup check
//! without touching the committed artifact or criterion).

use criterion::{criterion_group, criterion_main, Criterion};
use hpclog_core::framework::{Framework, FrameworkConfig};
use hpclog_core::model::event::EventRecord;
use hpclog_core::server::QueryEngine;
use loggen::topology::Topology;
use rasdb::ring::NodeId;
use std::sync::Arc;
use std::time::Instant;

const T0: i64 = 1_500_000_000_000;
const HOURS: i64 = 24;
const HOUR_MS: i64 = 3_600_000;
/// Simulated per-read replica service time (RPC + disk) in microseconds.
const READ_LATENCY_US: u64 = 200;

fn smoke() -> bool {
    std::env::var("QUERY_CACHE_SMOKE").as_deref() == Ok("1")
}

fn seeded(caches_on: bool) -> QueryEngine {
    let (columnar, result) = if caches_on {
        (32 << 20, 8 << 20)
    } else {
        (0, 0)
    };
    let fw = Framework::new(FrameworkConfig {
        db_nodes: 4,
        replication_factor: 3,
        vnodes: 16,
        topology: Topology::scaled(2, 2),
        columnar_cache_bytes: columnar,
        result_cache_bytes: result,
        ..Default::default()
    })
    .unwrap();
    let topo = fw.topology().clone();
    let mut events = Vec::new();
    for hour in 0..HOURS {
        for i in 0..40i64 {
            let (etype, raw) = if i % 3 == 0 {
                ("MCE", "Machine Check Exception: bank 1: b2 addr 3f cpu 0")
            } else {
                (
                    "LUSTRE_ERR",
                    "LustreError: 11-0: atlas1-OST0041-osc: operation failed",
                )
            };
            events.push(EventRecord {
                ts_ms: T0 + hour * HOUR_MS + i * 90_000 % HOUR_MS,
                event_type: etype.into(),
                source: topo
                    .node(((hour * 40 + i) as usize) % topo.node_count())
                    .cname
                    .into(),
                amount: 1,
                raw: raw.into(),
            });
        }
    }
    fw.insert_events(&events).unwrap();
    // Simulated service latency goes on AFTER seeding so the writes above
    // stay fast.
    for n in 0..fw.cluster().node_count() {
        fw.cluster()
            .node(NodeId(n))
            .set_read_latency_us(READ_LATENCY_US);
    }
    QueryEngine::new(Arc::new(fw))
}

fn dashboard() -> Vec<String> {
    let (a, b) = (T0, T0 + HOURS * HOUR_MS);
    vec![
        format!(r#"{{"op":"heatmap","type":"LUSTRE_ERR","from":{a},"to":{b}}}"#),
        format!(
            r#"{{"op":"distribution","type":"LUSTRE_ERR","from":{a},"to":{b},"by":"cabinet"}}"#
        ),
        format!(
            r#"{{"op":"histogram","type":"LUSTRE_ERR","from":{a},"to":{b},"bin_ms":{HOUR_MS}}}"#
        ),
        format!(r#"{{"op":"wordcount","type":"LUSTRE_ERR","from":{a},"to":{b},"top":10}}"#),
    ]
}

fn refresh(engine: &QueryEngine, panels: &[String]) -> usize {
    panels.iter().map(|q| engine.handle(q).len()).sum()
}

fn measure(mut f: impl FnMut() -> usize, iters: u32) -> f64 {
    let t = Instant::now();
    let mut total = 0;
    for _ in 0..iters {
        total += f();
    }
    assert!(total > 0);
    t.elapsed().as_secs_f64() * 1000.0 / f64::from(iters)
}

fn bench_query_cache(c: &mut Criterion) {
    let cold = seeded(false);
    let warm = seeded(true);
    let panels = dashboard();

    // Correctness before timing: every panel must be byte-identical cold
    // vs warm (modulo the per-request trace id), on the priming pass and
    // again on the all-hits pass.
    let sans_trace = |resp: String| {
        let mut v = jsonlite::parse(&resp).expect("valid response JSON");
        v.remove("trace_id");
        v.to_string()
    };
    for pass in ["prime", "hits"] {
        for q in &panels {
            assert_eq!(
                sans_trace(cold.handle(q)),
                sans_trace(warm.handle(q)),
                "{pass}: {q}"
            );
        }
    }
    let stats = warm.framework().result_cache().stats();
    assert_eq!(
        stats.hits(),
        panels.len() as u64,
        "second pass must be all result-cache hits"
    );

    let iters = if smoke() { 3 } else { 10 };
    let cold_ms = measure(|| refresh(&cold, &panels), iters);
    let warm_ms = measure(|| refresh(&warm, &panels), iters);
    let speedup = cold_ms / warm_ms;
    println!(
        "dashboard refresh: cold {cold_ms:.3} ms, warm {warm_ms:.3} ms, speedup {speedup:.1}x"
    );
    assert!(
        speedup >= 5.0,
        "warm dashboard must be at least 5x faster than cold (got {speedup:.1}x)"
    );

    if smoke() {
        return;
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"query_cache\",\n",
            "  \"panels\": [\"heatmap\", \"distribution\", \"histogram\", \"wordcount\"],\n",
            "  \"window_hours\": {},\n",
            "  \"events_seeded\": {},\n",
            "  \"nodes\": 4,\n",
            "  \"replication_factor\": 3,\n",
            "  \"read_latency_us\": {},\n",
            "  \"cold_dashboard_ms\": {:.3},\n",
            "  \"warm_dashboard_ms\": {:.3},\n",
            "  \"speedup\": {:.2},\n",
            "  \"result_cache_hits\": {},\n",
            "  \"result_cache_misses\": {}\n",
            "}}\n"
        ),
        HOURS,
        HOURS * 40,
        READ_LATENCY_US,
        cold_ms,
        warm_ms,
        speedup,
        stats.hits(),
        stats.misses(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_query_cache.json");
    std::fs::write(path, &json).expect("write BENCH_query_cache.json");

    let mut group = c.benchmark_group("query_cache");
    group.sample_size(10);
    group.bench_function("dashboard_cold_24h", |b| b.iter(|| refresh(&cold, &panels)));
    group.bench_function("dashboard_warm_24h", |b| b.iter(|| refresh(&warm, &panels)));
    group.finish();
}

criterion_group!(benches, bench_query_cache);
criterion_main!(benches);
