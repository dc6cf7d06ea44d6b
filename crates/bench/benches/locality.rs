//! C3: the co-location claim — a scan+aggregate job with locality-aware
//! task placement vs round-robin placement. Remote placement pays the
//! marshalling round trip per row that co-located execution avoids.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hpclog_core::framework::{Framework, FrameworkConfig};
use hpclog_core::model::event::EventRecord;
use hpclog_core::model::keys::HOUR_MS;
use loggen::topology::Topology;
use std::collections::HashMap;
use std::sync::Arc;

fn seeded() -> Framework {
    let topo = Topology::scaled(2, 2);
    let fw = Framework::new(FrameworkConfig {
        db_nodes: 8,
        replication_factor: 2,
        vnodes: 16,
        topology: topo.clone(),
        ..Default::default()
    })
    .expect("boot");
    // 48 hour-partitions × 2,000 events with fat raw payloads: the data
    // that either stays local or crosses the "network".
    let evs: Vec<EventRecord> = (0..96_000usize)
        .map(|i| EventRecord {
            ts_ms: (i / 2000) as i64 * HOUR_MS + (i % 2000) as i64,
            event_type: "LUSTRE_ERR".into(),
            source: topo.node(i % topo.node_count()).cname.into(),
            amount: 1,
            raw: format!(
                "LustreError: 11-0: atlas1-OST0041-osc-ffff{:012x}: Communicating with \
                 10.36.226.77@o2ib, operation ost_read failed with -110 (attempt {i})",
                i
            )
            .into(),
        })
        .collect();
    fw.insert_events(&evs).expect("seed");
    fw.cluster().flush_all();
    fw
}

fn scan_and_aggregate(fw: &Framework) -> usize {
    // Count events per source across 48 hours (a typical heat-map job):
    // each partition folds its own rows, the driver merges the folds.
    let rdd = fw.scan_events_rdd("LUSTRE_ERR", 0, 48 * HOUR_MS);
    let folds = fw.engine().run_job(&rdd, |_, events: Vec<EventRecord>| {
        let mut counts: HashMap<Arc<str>, u64> = HashMap::new();
        for e in events {
            *counts.entry(e.source).or_default() += e.amount as u64;
        }
        counts
    });
    let mut total: HashMap<Arc<str>, u64> = HashMap::new();
    for (source, n) in folds.into_iter().flatten() {
        *total.entry(source).or_default() += n;
    }
    total.len()
}

fn bench_locality(c: &mut Criterion) {
    let fw = seeded();
    let mut group = c.benchmark_group("locality");
    group.sample_size(10);
    for (label, locality) in [("locality_aware", true), ("round_robin", false)] {
        group.bench_with_input(
            BenchmarkId::new("scan_aggregate_48h", label),
            &locality,
            |b, &loc| {
                fw.engine().set_locality(loc);
                b.iter(|| {
                    let distinct = scan_and_aggregate(&fw);
                    assert!(distinct > 0);
                    distinct
                });
            },
        );
    }
    fw.engine().set_locality(true);
    group.finish();
}

criterion_group!(benches, bench_locality);
criterion_main!(benches);
