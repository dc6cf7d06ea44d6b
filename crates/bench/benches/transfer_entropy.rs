//! F7a: transfer-entropy estimation cost vs series length and lag sweep —
//! what a frontend pays when the user selects a window on the TE view.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hpclog_core::analytics::transfer_entropy::{te_lag_sweep, transfer_entropy_binary};
use hpclog_core::framework::{Framework, FrameworkConfig};
use hpclog_core::model::event::EventRecord;
use hpclog_core::model::keys::HOUR_MS;
use loggen::topology::Topology;

fn coupled_series(n: usize) -> (Vec<bool>, Vec<bool>) {
    let mut state = 0xfeed_beefu64;
    let mut x = Vec::with_capacity(n);
    for _ in 0..n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x.push((state >> 62) & 1 == 1);
    }
    let y: Vec<bool> = (0..n).map(|t| t >= 2 && x[t - 2]).collect();
    (x, y)
}

fn bench_te(c: &mut Criterion) {
    let mut group = c.benchmark_group("transfer_entropy");
    group.sample_size(20);
    for n in [1_000usize, 10_000, 100_000] {
        let (x, y) = coupled_series(n);
        group.bench_with_input(BenchmarkId::new("binary_te", n), &n, |b, _| {
            b.iter(|| transfer_entropy_binary(&x, &y, 2))
        });
    }

    // Full pipeline: events out of the store, binned, swept over lags.
    let fw = Framework::new(FrameworkConfig {
        db_nodes: 4,
        replication_factor: 2,
        vnodes: 8,
        topology: Topology::scaled(2, 2),
        ..Default::default()
    })
    .expect("boot");
    let evs: Vec<EventRecord> = (0..20_000)
        .map(|i| EventRecord {
            ts_ms: (i as i64 * 613) % (6 * HOUR_MS),
            event_type: if i % 3 == 0 { "NET_LINK" } else { "LUSTRE_ERR" }.into(),
            source: "c0-0c0s0n0".into(),
            amount: 1,
            raw: "".into(),
        })
        .collect();
    fw.insert_events(&evs).expect("seed");
    fw.cluster().flush_all();
    group.bench_function("event_te_sweep_6h_10lags", |b| {
        b.iter(|| {
            te_lag_sweep(&fw, "NET_LINK", "LUSTRE_ERR", 0, 6 * HOUR_MS, 60_000, 10)
                .expect("sweep")
                .len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_te);
criterion_main!(benches);
