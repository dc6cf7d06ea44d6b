//! F1/F2 + schema ablation: write/read costs of the dual event schemas,
//! and what the `event_by_location` view buys over filtering
//! `event_by_time` for a single node's history.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hpclog_core::framework::{Framework, FrameworkConfig};
use hpclog_core::model::event::EventRecord;
use hpclog_core::model::keys::HOUR_MS;
use loggen::topology::Topology;

fn fw() -> Framework {
    Framework::new(FrameworkConfig {
        db_nodes: 4,
        replication_factor: 2,
        vnodes: 8,
        topology: Topology::scaled(2, 2),
        ..Default::default()
    })
    .expect("boot")
}

fn events(n: usize, topo: &Topology) -> Vec<EventRecord> {
    (0..n)
        .map(|i| EventRecord {
            ts_ms: (i as i64) * 997 % HOUR_MS,
            event_type: "MCE".into(),
            source: topo.node(i % topo.node_count()).cname.into(),
            amount: 1,
            raw: "Machine Check Exception: bank 1: b2 addr 3f cpu 0".into(),
        })
        .collect()
}

fn bench_schema_rw(c: &mut Criterion) {
    let mut group = c.benchmark_group("schema_rw");
    group.sample_size(10);

    // Write path: dual-view insert throughput.
    for n in [500usize, 2000] {
        group.bench_with_input(BenchmarkId::new("insert_dual_views", n), &n, |b, &n| {
            b.iter_with_setup(
                || (fw(), events(n, &Topology::scaled(2, 2))),
                |(fw, evs)| fw.insert_events(&evs).expect("insert"),
            );
        });
    }

    // Read path: one node's history via the location view vs filtering the
    // full hour of every type through the time view.
    let fw = fw();
    let evs = events(4000, &Topology::scaled(2, 2));
    fw.insert_events(&evs).expect("seed");
    fw.cluster().flush_all();
    let node = Topology::scaled(2, 2).node(3).cname;

    group.bench_function("node_history_via_event_by_location", |b| {
        b.iter(|| {
            let got = fw.events_by_source(&node, 0, HOUR_MS).expect("read");
            assert!(!got.is_empty());
            got.len()
        })
    });
    group.bench_function("node_history_via_event_by_time_filter", |b| {
        b.iter(|| {
            // The ablation: no location view — fetch the type partition and
            // filter client-side.
            let got: usize = fw
                .events_by_type("MCE", 0, HOUR_MS)
                .expect("read")
                .into_iter()
                .filter(|e| *e.source == *node)
                .count();
            assert!(got > 0);
            got
        })
    });
    group.finish();
}

criterion_group!(benches, bench_schema_rw);
criterion_main!(benches);
