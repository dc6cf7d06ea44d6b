//! C2/F3: interactive query latency — point and range reads through the
//! builder, CQL text, and the full JSON server round trip.

use criterion::{criterion_group, criterion_main, Criterion};
use hpclog_core::framework::{Framework, FrameworkConfig};
use hpclog_core::model::event::EventRecord;
use hpclog_core::model::keys::HOUR_MS;
use hpclog_core::server::QueryEngine;
use loggen::topology::Topology;
use rasdb::types::Value;
use std::sync::Arc;

fn seeded() -> Framework {
    let fw = Framework::new(FrameworkConfig {
        db_nodes: 8,
        replication_factor: 3,
        vnodes: 16,
        topology: Topology::scaled(2, 2),
        ..Default::default()
    })
    .expect("boot");
    let evs: Vec<EventRecord> = (0..20_000)
        .map(|i| EventRecord {
            // Spread over all four hours (coprime stride > 4h/20k).
            ts_ms: (i as i64 * 977) % (4 * HOUR_MS),
            event_type: "LUSTRE_ERR".into(),
            source: format!("c{}-{}c0s{}n0", i % 2, i % 2, i % 8).into(),
            amount: 1,
            raw: "LustreError: timeout".into(),
        })
        .collect();
    fw.insert_events(&evs).expect("seed");
    fw.cluster().flush_all();
    fw
}

fn bench_query_latency(c: &mut Criterion) {
    let fw = seeded();
    let engine = QueryEngine::new(Arc::new(seeded()));
    let mut group = c.benchmark_group("query_latency");
    group.sample_size(20);

    group.bench_function("point_partition_read", |b| {
        b.iter(|| {
            let rows = fw
                .cluster()
                .select("event_by_time")
                .partition(vec![Value::BigInt(1), Value::text("LUSTRE_ERR")])
                .limit(100)
                .run(fw.consistency())
                .expect("read");
            assert!(!rows.is_empty());
            rows.len()
        })
    });

    group.bench_function("clustering_range_read", |b| {
        b.iter(|| {
            fw.cluster()
                .select("event_by_time")
                .partition(vec![Value::BigInt(1), Value::text("LUSTRE_ERR")])
                .from_inclusive(Value::Timestamp(HOUR_MS + 600_000))
                .to_exclusive(Value::Timestamp(HOUR_MS + 1_800_000))
                .run(fw.consistency())
                .expect("read")
                .len()
        })
    });

    group.bench_function("cql_text_query", |b| {
        b.iter(|| {
            fw.cluster()
                .execute(
                    "SELECT * FROM event_by_time WHERE hour = 1 AND type = 'LUSTRE_ERR' LIMIT 50",
                    fw.consistency(),
                )
                .expect("cql")
        })
    });

    group.bench_function("json_server_round_trip", |b| {
        let req = format!(
            r#"{{"op":"events","type":"LUSTRE_ERR","from":{},"to":{}}}"#,
            HOUR_MS,
            HOUR_MS + 600_000
        );
        b.iter(|| {
            let resp = engine.handle(&req);
            assert!(resp.contains("\"ok\""));
            resp.len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_query_latency);
criterion_main!(benches);
