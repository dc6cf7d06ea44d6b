//! Query latency while the ring rebalances: a four-node cluster serves
//! QUORUM partition reads as a fifth node joins and streams its ranges in.
//! Three phases: a stable baseline, a join under load (the stream is
//! throttled so the query workload genuinely overlaps it), and a faulted
//! join whose stream must retry dropped chunks and resume after a receiver
//! crash. The gate is sub-linear degradation: p95 during streaming must
//! stay under 4x the stable p95, and the faulted phase must show real
//! recovery work (resumes and retries above zero).
//!
//! Per-read replica service latency is simulated (as in scatter_gather)
//! to stand in for the RPC + disk time a networked ring pays per read.
//!
//! Emits `BENCH_rebalance.json` at the workspace root (skipped in smoke
//! mode: `REBALANCE_SMOKE=1` runs a fast assertion pass without touching
//! the committed artifact or criterion).

use criterion::{criterion_group, criterion_main, Criterion};
use rasdb::cluster::{Cluster, ClusterConfig};
use rasdb::query::Consistency;
use rasdb::ring::NodeId;
use rasdb::schema::{ColumnType, TableSchema};
use rasdb::topology::TopologyFaultPlan;
use rasdb::types::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Simulated per-read replica service time (RPC + disk) in microseconds.
const READ_LATENCY_US: u64 = 150;

fn smoke() -> bool {
    std::env::var("REBALANCE_SMOKE").as_deref() == Ok("1")
}

/// Partitions seeded, in both modes: the join streams the new node's share
/// of them, and the reads made while it streams are the sample whose p95
/// the gate tests, so the smoke join needs enough rows to last several
/// hundred reads.
fn partitions() -> i64 {
    64
}

fn rows_per_partition() -> i64 {
    if smoke() {
        8
    } else {
        32
    }
}

fn seeded() -> Arc<Cluster> {
    let c = Cluster::new(ClusterConfig {
        nodes: 4,
        replication_factor: 3,
        vnodes: 16,
    });
    c.create_table(
        TableSchema::builder("t")
            .partition_key("hour", ColumnType::BigInt)
            .clustering_key("ts", ColumnType::Timestamp)
            .column("v", ColumnType::Int)
            .build()
            .unwrap(),
    )
    .unwrap();
    for h in 0..partitions() {
        for ts in 0..rows_per_partition() {
            c.insert(
                "t",
                vec![
                    ("hour", Value::BigInt(h)),
                    ("ts", Value::Timestamp(ts)),
                    ("v", Value::Int((h * 1000 + ts) as i32)),
                ],
                Consistency::Quorum,
            )
            .unwrap();
        }
    }
    c.flush_all();
    for n in 0..c.node_count() {
        c.node(NodeId(n)).set_read_latency_us(READ_LATENCY_US);
    }
    Arc::new(c)
}

/// One QUORUM partition read; returns its latency in microseconds.
fn query_once(c: &Cluster, h: i64) -> f64 {
    let t = Instant::now();
    let rows = c
        .select("t")
        .partition(vec![Value::BigInt(h % partitions())])
        .run(Consistency::Quorum)
        .unwrap();
    assert_eq!(rows.len(), rows_per_partition() as usize);
    t.elapsed().as_secs_f64() * 1e6
}

fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty());
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((samples.len() - 1) as f64 * p).round() as usize;
    samples[idx]
}

fn bench_rebalance(c: &mut Criterion) {
    let cluster = seeded();

    // Phase 1: stable baseline.
    let baseline_n = if smoke() { 40 } else { 400 };
    let mut baseline: Vec<f64> = (0..baseline_n)
        .map(|i| query_once(&cluster, i as i64))
        .collect();
    let base_p50 = percentile(&mut baseline, 0.50);
    let base_p95 = percentile(&mut baseline, 0.95);

    // Phase 2: join under load. The stream is chunked small and throttled
    // so queries genuinely overlap it.
    cluster.set_stream_chunk_rows(if smoke() { 4 } else { 8 });
    let stall = Duration::from_millis(if smoke() { 1 } else { 2 });
    let join = {
        let c = Arc::clone(&cluster);
        let plan = TopologyFaultPlan::none().slow_chunk_every(1, stall);
        std::thread::spawn(move || c.join_node_with(plan).unwrap())
    };
    let mut during: Vec<f64> = Vec::new();
    let mut i = 0i64;
    while !join.is_finished() {
        during.push(query_once(&cluster, i));
        i += 1;
    }
    let clean_report = join.join().unwrap();
    assert!(clean_report.rows_streamed > 0, "the join must move data");
    assert!(
        during.len() >= 4,
        "need overlap samples, got {}",
        during.len()
    );
    let during_p50 = percentile(&mut during, 0.50);
    let during_p95 = percentile(&mut during, 0.95);
    let degradation = during_p95 / base_p95;
    println!(
        "rebalance: baseline p50 {base_p50:.0}us p95 {base_p95:.0}us | during-join p50 \
         {during_p50:.0}us p95 {during_p95:.0}us ({degradation:.2}x) | {} rows streamed",
        clean_report.rows_streamed
    );
    assert!(
        degradation < 4.0,
        "p95 under streaming must stay sub-linear vs baseline (got {degradation:.2}x)"
    );

    // Phase 3: faulted join — every 7th chunk attempt drops (retry) and
    // the receiver crashes after 3 acked chunks (resume from last ack).
    let faulted_report = cluster
        .join_node_with(
            TopologyFaultPlan::none()
                .drop_chunk_every(7)
                .joiner_crash_at(3),
        )
        .unwrap();
    assert!(
        faulted_report.chunk_retries > 0,
        "dropped chunks must be retried"
    );
    assert!(
        faulted_report.stream_resumes > 0,
        "the receiver crash must force a resume"
    );
    println!(
        "faulted join: {} rows streamed, {} retries, {} resumes",
        faulted_report.rows_streamed, faulted_report.chunk_retries, faulted_report.stream_resumes
    );

    if smoke() {
        return;
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"rebalance\",\n",
            "  \"nodes_initial\": 4,\n",
            "  \"replication_factor\": 3,\n",
            "  \"partitions\": {},\n",
            "  \"rows_per_partition\": {},\n",
            "  \"read_latency_us\": {},\n",
            "  \"baseline_query_p50_us\": {:.1},\n",
            "  \"baseline_query_p95_us\": {:.1},\n",
            "  \"during_join_query_p50_us\": {:.1},\n",
            "  \"during_join_query_p95_us\": {:.1},\n",
            "  \"during_join_samples\": {},\n",
            "  \"p95_degradation\": {:.2},\n",
            "  \"clean_join_rows_streamed\": {},\n",
            "  \"clean_join_chunks_streamed\": {},\n",
            "  \"faulted_join_rows_streamed\": {},\n",
            "  \"faulted_join_chunk_retries\": {},\n",
            "  \"faulted_join_stream_resumes\": {}\n",
            "}}\n"
        ),
        partitions(),
        rows_per_partition(),
        READ_LATENCY_US,
        base_p50,
        base_p95,
        during_p50,
        during_p95,
        during.len(),
        degradation,
        clean_report.rows_streamed,
        clean_report.chunks_streamed,
        faulted_report.rows_streamed,
        faulted_report.chunk_retries,
        faulted_report.stream_resumes,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_rebalance.json");
    std::fs::write(path, &json).expect("write BENCH_rebalance.json");

    let mut group = c.benchmark_group("rebalance");
    group.sample_size(10);
    group.bench_function("quorum_read_stable", |b| {
        let mut i = 0;
        b.iter(|| {
            i += 1;
            query_once(&cluster, i)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_rebalance);
criterion_main!(benches);
