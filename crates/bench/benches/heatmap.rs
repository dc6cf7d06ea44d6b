//! F5: heat-map + distribution computation cost as the selected interval
//! grows — the interactivity claim behind the physical-system-map view.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hpclog_core::analytics::distribution::{distribution, GroupBy};
use hpclog_core::analytics::heatmap::cabinet_heatmap;
use hpclog_core::context::Context;
use hpclog_core::framework::{Framework, FrameworkConfig};
use hpclog_core::model::event::EventRecord;
use hpclog_core::model::keys::HOUR_MS;
use loggen::topology::Topology;

fn seeded(hours: i64, per_hour: usize) -> Framework {
    let topo = Topology::scaled(3, 2);
    let fw = Framework::new(FrameworkConfig {
        db_nodes: 6,
        replication_factor: 2,
        vnodes: 8,
        topology: topo.clone(),
        ..Default::default()
    })
    .expect("boot");
    let evs: Vec<EventRecord> = (0..hours as usize * per_hour)
        .map(|i| EventRecord {
            ts_ms: (i / per_hour) as i64 * HOUR_MS + (i % per_hour) as i64,
            event_type: "MCE".into(),
            source: topo.node((i * 31) % topo.node_count()).cname.into(),
            amount: 1,
            raw: "".into(),
        })
        .collect();
    fw.insert_events(&evs).expect("seed");
    fw.cluster().flush_all();
    fw
}

fn bench_heatmap(c: &mut Criterion) {
    let mut group = c.benchmark_group("heatmap");
    group.sample_size(10);
    let fw = seeded(24, 2000);
    for hours in [1i64, 6, 24] {
        group.bench_with_input(
            BenchmarkId::new("cabinet_heatmap", hours),
            &hours,
            |b, &h| {
                b.iter(|| {
                    let hm = cabinet_heatmap(&fw, "MCE", 0, h * HOUR_MS).expect("heatmap");
                    assert_eq!(hm.total as i64, h * 2000);
                    hm.hottest
                })
            },
        );
    }
    group.bench_function("distribution_by_blade_24h", |b| {
        b.iter(|| {
            distribution(
                &fw,
                &Context::window(0, 24 * HOUR_MS).with_type("MCE"),
                GroupBy::Blade,
            )
            .expect("dist")
            .entries
            .len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_heatmap);
criterion_main!(benches);
