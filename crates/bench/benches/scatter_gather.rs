//! One `read_multi` vs a sequential hour-loop of `read`: a 24-hour window
//! on a 4-node cluster, with simulated per-read replica service latency
//! standing in for the RPC + disk time a networked Cassandra ring pays per
//! partition read. The latency is simulated time, charged once per call:
//! each `read` waits for its own quorum, whose two reads overlap, while
//! one `read_multi` queues all 48 reads on their nodes and waits once, for
//! the longest queue. The CPU work (replica reads, merges) is the same on
//! both sides and runs on the calling thread.
//!
//! Emits `BENCH_scatter_gather.json` at the workspace root so the perf
//! trajectory is tracked across PRs.

use criterion::{criterion_group, criterion_main, Criterion};
use rasdb::cluster::{full_range, Cluster, ClusterConfig};
use rasdb::node::NodeConfig;
use rasdb::query::{Consistency, ReadPlan};
use rasdb::ring::NodeId;
use rasdb::schema::{ColumnType, TableSchema};
use rasdb::types::{Key, Value};
use rasdb::DecoratedKey;
use std::time::Instant;

const HOURS: i64 = 24;
/// Simulated per-read replica service time (RPC + disk) in microseconds.
const READ_LATENCY_US: u64 = 500;

fn seeded() -> Cluster {
    let cluster = Cluster::with_node_config(
        ClusterConfig {
            nodes: 4,
            replication_factor: 3,
            vnodes: 16,
        },
        NodeConfig::default(),
    );
    cluster
        .create_table(
            TableSchema::builder("event_by_time")
                .partition_key("hour", ColumnType::BigInt)
                .partition_key("type", ColumnType::Text)
                .clustering_key("ts", ColumnType::Timestamp)
                .column("source", ColumnType::Text)
                .column("amount", ColumnType::Int)
                .build()
                .unwrap(),
        )
        .unwrap();
    for hour in 0..HOURS {
        for i in 0..50 {
            cluster
                .insert(
                    "event_by_time",
                    vec![
                        ("hour", Value::BigInt(hour)),
                        ("type", Value::text("LUSTRE_ERR")),
                        ("ts", Value::Timestamp(hour * 3_600_000 + i * 1000)),
                        ("source", Value::text(format!("c0-0c0s{}n0", i % 8))),
                        ("amount", Value::Int(1)),
                    ],
                    Consistency::Quorum,
                )
                .unwrap();
        }
    }
    cluster.flush_all();
    // This bench measures coordination strategy, not caching: disable the
    // partition-block cache so every iteration pays the simulated replica
    // service time (the cache has its own bench, query_cache).
    cluster.set_block_cache_budget(0);
    set_latency(&cluster, READ_LATENCY_US);
    cluster
}

fn set_latency(cluster: &Cluster, us: u64) {
    for n in 0..cluster.node_count() {
        cluster.node(NodeId(n)).set_read_latency_us(us);
    }
}

fn window_plans() -> Vec<ReadPlan> {
    (0..HOURS)
        .map(|hour| ReadPlan {
            table: "event_by_time".into(),
            partition: DecoratedKey::new(Key::from(vec![
                Value::BigInt(hour),
                Value::text("LUSTRE_ERR"),
            ])),
            range: full_range(),
            limit: None,
            descending: false,
        })
        .collect()
}

fn sequential(cluster: &Cluster, plans: &[ReadPlan]) -> usize {
    plans
        .iter()
        .map(|p| cluster.read(p, Consistency::Quorum).unwrap().len())
        .sum()
}

fn scatter(cluster: &Cluster, plans: &[ReadPlan]) -> usize {
    cluster
        .read_multi(plans, Consistency::Quorum)
        .unwrap()
        .iter()
        .map(|rows| rows.len())
        .sum()
}

fn measure(mut f: impl FnMut() -> usize, iters: u32) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        assert_eq!(f(), (HOURS * 50) as usize);
    }
    t.elapsed().as_secs_f64() * 1000.0 / f64::from(iters)
}

fn bench_scatter_gather(c: &mut Criterion) {
    let cluster = seeded();
    let plans = window_plans();

    // Equivalence before timing: both paths must return identical rows.
    let seq: Vec<_> = plans
        .iter()
        .map(|p| cluster.read(p, Consistency::Quorum).unwrap())
        .collect();
    let par = cluster.read_multi(&plans, Consistency::Quorum).unwrap();
    assert_eq!(seq, par, "read_multi must match the sequential loop");

    // Steady-state timings for the JSON artifact, hand-measured after one
    // warm call: first the CPU work alone, at latency zero, then with the
    // simulated latency the calls wait out on top of it.
    set_latency(&cluster, 0);
    let sequential_cpu_ms = measure(|| sequential(&cluster, &plans), 10);
    let read_multi_cpu_ms = measure(|| scatter(&cluster, &plans), 10);
    set_latency(&cluster, READ_LATENCY_US);
    let sequential_ms = measure(|| sequential(&cluster, &plans), 10);
    let read_multi_ms = measure(|| scatter(&cluster, &plans), 10);
    let speedup = sequential_ms / read_multi_ms;
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"scatter_gather\",\n",
            "  \"hours\": {},\n",
            "  \"nodes\": 4,\n",
            "  \"replication_factor\": 3,\n",
            "  \"consistency\": \"quorum\",\n",
            "  \"read_latency_us\": {},\n",
            "  \"sequential_cpu_ms\": {:.3},\n",
            "  \"read_multi_cpu_ms\": {:.3},\n",
            "  \"sequential_ms\": {:.3},\n",
            "  \"read_multi_ms\": {:.3},\n",
            "  \"speedup\": {:.2}\n",
            "}}\n"
        ),
        HOURS,
        READ_LATENCY_US,
        sequential_cpu_ms,
        read_multi_cpu_ms,
        sequential_ms,
        read_multi_ms,
        speedup
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_scatter_gather.json"
    );
    std::fs::write(path, &json).expect("write BENCH_scatter_gather.json");
    println!(
        "sequential {sequential_ms:.3} ms ({sequential_cpu_ms:.3} ms CPU), \
         read_multi {read_multi_ms:.3} ms ({read_multi_cpu_ms:.3} ms CPU), speedup {speedup:.2}x"
    );

    let mut group = c.benchmark_group("scatter_gather");
    group.sample_size(10);
    group.bench_function("sequential_hour_loop_24h", |b| {
        b.iter(|| sequential(&cluster, &plans))
    });
    group.bench_function("read_multi_24h", |b| b.iter(|| scatter(&cluster, &plans)));
    group.finish();
}

criterion_group!(benches, bench_scatter_gather);
criterion_main!(benches);
