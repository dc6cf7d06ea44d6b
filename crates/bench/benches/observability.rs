//! Cost of always-on observability: the same warm/cold dashboard mix
//! (four cached panels plus two cache-defeating rotating-window queries)
//! is timed with telemetry enabled (spans, trace propagation, exemplars,
//! flight recorder, SLO accounting) and with telemetry disabled. The two
//! modes run against identically seeded engines, alternating per round to
//! decorrelate machine drift, and the median refresh must stay within 5%.
//!
//! As in the scatter_gather and query_cache benches, per-read replica
//! service latency is simulated to stand in for the RPC + disk time a
//! networked ring pays per partition read — without it the in-process
//! "cluster" answers reads in microseconds, a denominator no deployment
//! of the paper's architecture ever sees.
//!
//! Emits `BENCH_observability.json` at the workspace root (skipped in
//! smoke mode: `OBSERVABILITY_SMOKE=1` runs the same overhead check but
//! touches neither the committed artifact nor criterion).

use criterion::{criterion_group, criterion_main, Criterion};
use hpclog_core::framework::{Framework, FrameworkConfig};
use hpclog_core::model::event::EventRecord;
use hpclog_core::server::QueryEngine;
use loggen::topology::Topology;
use std::sync::Arc;
use std::time::Instant;

const T0: i64 = 1_500_000_000_000;
const HOURS: i64 = 24;
const HOUR_MS: i64 = 3_600_000;
/// Simulated per-read replica service time (RPC + disk) in microseconds.
const READ_LATENCY_US: u64 = 100;

fn smoke() -> bool {
    std::env::var("OBSERVABILITY_SMOKE").as_deref() == Ok("1")
}

fn seeded() -> QueryEngine {
    let fw = Framework::new(FrameworkConfig {
        db_nodes: 4,
        replication_factor: 3,
        vnodes: 16,
        topology: Topology::scaled(2, 2),
        // The rotating cold panels re-read the same hour partitions every
        // round, so the column store would absorb them after round one and
        // the simulated replica latency would never be paid. Disabling it
        // keeps the cold path cold: every refresh pays the scatter-gather
        // fan-out a networked deployment pays.
        columnar_cache_bytes: 0,
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
            .node(rasdb::ring::NodeId(n))
            .set_read_latency_us(READ_LATENCY_US);
    }
    QueryEngine::new(Arc::new(fw))
}

/// The repeated (result-cache-warm after priming) dashboard panels.
fn warm_panels() -> Vec<String> {
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

/// Two cache-defeating queries: the window end rotates every round so the
/// result cache never serves them and the full scatter-gather + analytics
/// path (where span coverage is densest) is always exercised.
fn cold_panels(round: u32) -> Vec<String> {
    let a = T0;
    let b = T0 + HOURS * HOUR_MS - i64::from(round) * 1_000;
    vec![
        format!(r#"{{"op":"heatmap","type":"MCE","from":{a},"to":{b}}}"#),
        format!(r#"{{"op":"events","type":"MCE","from":{a},"to":{b},"limit":50}}"#),
    ]
}

/// One dashboard refresh: warm panels plus the round's cold queries.
/// Returns total response bytes (kept live so nothing is optimized out)
/// and the wall-clock milliseconds.
fn refresh(engine: &QueryEngine, round: u32) -> (usize, f64) {
    let t = Instant::now();
    let mut bytes = 0;
    for q in warm_panels().iter().chain(cold_panels(round).iter()) {
        bytes += engine.handle(q).len();
    }
    (bytes, t.elapsed().as_secs_f64() * 1000.0)
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn bench_observability(c: &mut Criterion) {
    let on = seeded();
    let off = seeded();
    off.framework().telemetry().set_enabled(false);
    // Prime the warm panels on both engines so every later refresh mixes
    // result-cache hits with cold computes.
    for engine in [&on, &off] {
        for q in &warm_panels() {
            assert!(engine.handle(q).contains(r#""status":"ok""#), "{q}");
        }
    }

    // Same round count in smoke mode: a refresh is ~15 ms, so 40 rounds
    // keep the median estimate stable without slowing the smoke run.
    let rounds: u32 = 40;
    let mut on_ms = Vec::new();
    let mut off_ms = Vec::new();
    for round in 0..rounds {
        let (bytes_on, ms) = refresh(&on, round);
        on_ms.push(ms);
        let (bytes_off, ms) = refresh(&off, round);
        off_ms.push(ms);
        assert!(bytes_on > 0 && bytes_off > 0);
    }

    let median_on = median(&mut on_ms);
    let median_off = median(&mut off_ms);
    let overhead_pct = (median_on - median_off) / median_off * 100.0;
    println!(
        "dashboard mix: tracing on {median_on:.3} ms, off {median_off:.3} ms, \
         overhead {overhead_pct:.2}%"
    );
    assert!(
        overhead_pct <= 5.0,
        "tracing must cost at most 5% on the dashboard mix (got {overhead_pct:.2}%)"
    );

    // The always-on surfaces actually saw the traffic: SLO windows have
    // rows for every op in the mix, and the recorder is armed.
    let health = on.handle(r#"{"op":"health"}"#);
    for op in [
        "heatmap",
        "distribution",
        "histogram",
        "wordcount",
        "events",
    ] {
        assert!(health.contains(&format!(r#""op":"{op}""#)), "{health}");
    }
    assert_eq!(on.recorder().threshold_ms(), 100);

    if smoke() {
        return;
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"observability\",\n",
            "  \"mix\": [\"heatmap\", \"distribution\", \"histogram\", \"wordcount\", ",
            "\"heatmap_cold\", \"events_cold\"],\n",
            "  \"window_hours\": {},\n",
            "  \"events_seeded\": {},\n",
            "  \"columnar_cache_bytes\": 0,\n",
            "  \"read_latency_us\": {},\n",
            "  \"rounds\": {},\n",
            "  \"tracing_on_median_ms\": {:.3},\n",
            "  \"tracing_off_median_ms\": {:.3},\n",
            "  \"overhead_pct\": {:.2}\n",
            "}}\n"
        ),
        HOURS,
        HOURS * 40,
        READ_LATENCY_US,
        rounds,
        median_on,
        median_off,
        overhead_pct,
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_observability.json"
    );
    std::fs::write(path, &json).expect("write BENCH_observability.json");

    let mut group = c.benchmark_group("observability");
    group.sample_size(10);
    group.bench_function("dashboard_mix_tracing_on", |b| {
        let mut round = 0;
        b.iter(|| {
            round += 1;
            refresh(&on, rounds + round)
        });
    });
    group.bench_function("dashboard_mix_tracing_off", |b| {
        let mut round = 0;
        b.iter(|| {
            round += 1;
            refresh(&off, rounds + round)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_observability);
criterion_main!(benches);
