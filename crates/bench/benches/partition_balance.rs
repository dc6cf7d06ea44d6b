//! F4: partitions mapped to nodes by the (hour, type) hash. Measures the
//! placement computation and reports the load-balance statistics the
//! figure illustrates (printed once as `partition_balance` summary lines).

use criterion::{criterion_group, criterion_main, Criterion};
use loggen::events::EVENT_CATALOG;
use rasdb::cluster::{Cluster, ClusterConfig};
use rasdb::types::{Key, Value};
use std::sync::Once;

fn week_of_partition_keys() -> Vec<Key> {
    let mut keys = Vec::new();
    for hour in 0..(7 * 24) {
        for etype in EVENT_CATALOG {
            keys.push(Key::from(vec![
                Value::BigInt(hour),
                Value::text(etype.name),
            ]));
        }
    }
    keys
}

fn balance_report(cluster: &Cluster, keys: &[Key]) -> (f64, usize, usize) {
    let mut counts = vec![0usize; cluster.node_count()];
    for key in keys {
        counts[cluster.owners(key)[0].0] += 1;
    }
    let mean = keys.len() as f64 / counts.len() as f64;
    let var = counts
        .iter()
        .map(|&c| (c as f64 - mean).powi(2))
        .sum::<f64>()
        / counts.len() as f64;
    let cv = var.sqrt() / mean;
    (
        cv,
        *counts.iter().min().expect("nodes"),
        *counts.iter().max().expect("nodes"),
    )
}

fn bench_partition_balance(c: &mut Criterion) {
    static PRINT: Once = Once::new();
    let keys = week_of_partition_keys();

    // The paper's deployment: 32 nodes. Report the figure's content once.
    PRINT.call_once(|| {
        println!(
            "\npartition_balance: one week of (hour,type) partitions = {} keys",
            keys.len()
        );
        for nodes in [4usize, 8, 16, 32] {
            let cluster = Cluster::new(ClusterConfig {
                nodes,
                replication_factor: 3.min(nodes),
                vnodes: 64,
            });
            let (cv, min, max) = balance_report(&cluster, &keys);
            println!(
                "partition_balance: nodes={nodes:>2} primary-load cv={cv:.3} min={min} max={max}"
            );
        }
    });

    let mut group = c.benchmark_group("partition_balance");
    group.sample_size(10);
    let cluster = Cluster::new(ClusterConfig {
        nodes: 32,
        replication_factor: 3,
        vnodes: 64,
    });
    group.bench_function("placement_week_32_nodes", |b| {
        b.iter(|| {
            let (cv, _, _) = balance_report(&cluster, &keys);
            assert!(cv < 0.6);
            cv
        })
    });
    group.finish();
}

criterion_group!(benches, bench_partition_balance);
criterion_main!(benches);
