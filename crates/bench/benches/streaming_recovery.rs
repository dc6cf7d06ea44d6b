//! Streaming recovery under failure: a replica outage mid-storm (store
//! retries → dead-letter → heal → requeue) and an ingester crash mid-storm
//! (checkpoint replay). The contract being measured: **zero events lost**,
//! with the cost of absorbing replayed duplicates reported as overhead
//! against a fault-free ingest of the same storm.
//!
//! Emits `BENCH_streaming_recovery.json` at the workspace root so the
//! recovery-path trajectory is tracked across PRs.

use criterion::{criterion_group, criterion_main, Criterion};
use hpclog_core::etl::stream::{dlq_requeue, publish_lines, StreamConfig, StreamIngester};
use hpclog_core::framework::{Framework, FrameworkConfig};
use loggen::topology::Topology;
use loggen::trace::{Facility, RawLine};
use rasdb::ring::NodeId;
use std::time::Instant;

const EVENTS: i64 = 4000;
const T0: i64 = 1_500_000_000_000;

fn boot() -> Framework {
    Framework::new(FrameworkConfig {
        db_nodes: 3,
        replication_factor: 2,
        vnodes: 8,
        topology: Topology::scaled(2, 2),
        ..Default::default()
    })
    .unwrap()
}

fn storm() -> Vec<RawLine> {
    (0..EVENTS)
        .map(|i| RawLine {
            ts_ms: T0 + i * 50,
            facility: Facility::Console,
            source: format!("c0-0c0s{}n0", i % 8),
            text: "Machine Check Exception: bank 1: b2 addr 3f cpu 0".to_owned(),
        })
        .collect()
}

fn cfg() -> StreamConfig {
    StreamConfig {
        lateness_ms: 300_000,
        max_store_attempts: 3,
        backoff_base_ms: 1,
        backoff_cap_ms: 4,
    }
}

fn stored_mass(fw: &Framework) -> i64 {
    fw.events_by_type("MCE", T0, T0 + 600_000)
        .unwrap()
        .iter()
        .map(|e| i64::from(e.amount))
        .sum()
}

/// Fault-free ingest: the baseline the recovery paths are charged against.
fn clean_ingest(lines: &[RawLine]) -> (Framework, f64) {
    let fw = boot();
    publish_lines(&fw, lines).unwrap();
    let t = Instant::now();
    StreamIngester::with_config(&fw, "g", cfg())
        .unwrap()
        .run_to_completion(256)
        .unwrap();
    (fw, t.elapsed().as_secs_f64() * 1000.0)
}

/// Replica outage mid-storm: 2 of 3 nodes die under the ingester, quorum
/// writes fail, windows retry then dead-letter; the cluster heals and a
/// requeue pass restores every event. Returns (elapsed ms, retries,
/// dlq_events, events_lost).
fn outage_recovery(lines: &[RawLine]) -> (f64, u64, usize, i64) {
    let fw = boot();
    publish_lines(&fw, lines).unwrap();
    let t = Instant::now();
    let mut ingester = StreamIngester::with_config(&fw, "g", cfg()).unwrap();
    // Half the storm lands cleanly...
    for _ in 0..(EVENTS as usize / 2 / 256) {
        ingester.step(256).unwrap();
    }
    // ...then the outage: quorum (2) becomes unreachable.
    fw.cluster().take_node_down(NodeId(1));
    fw.cluster().take_node_down(NodeId(2));
    let report = ingester.run_to_completion(256).unwrap();
    // Heal and drain the dead-letter queue back into the tables.
    fw.cluster().bring_node_up(NodeId(1));
    fw.cluster().bring_node_up(NodeId(2));
    let rq = dlq_requeue(&fw, usize::MAX).unwrap();
    assert_eq!(rq.remaining, 0, "requeue drained the DLQ");
    let elapsed = t.elapsed().as_secs_f64() * 1000.0;
    let lost = EVENTS - stored_mass(&fw);
    (elapsed, report.retries, report.dlq_events, lost)
}

/// Ingester crash mid-storm: first life dies cold after half the storm,
/// second life replays from the checkpointed offsets + watermark. Returns
/// (elapsed ms, records replayed, events_lost).
fn crash_replay(lines: &[RawLine]) -> (f64, usize, i64) {
    let fw = boot();
    publish_lines(&fw, lines).unwrap();
    let t = Instant::now();
    let first_polled;
    {
        let mut first = StreamIngester::with_config(&fw, "g", cfg()).unwrap();
        for _ in 0..(EVENTS as usize / 2 / 256) {
            first.step(256).unwrap();
        }
        first_polled = first.report().polled;
    }
    let second = StreamIngester::with_config(&fw, "g", cfg())
        .unwrap()
        .run_to_completion(256)
        .unwrap();
    let elapsed = t.elapsed().as_secs_f64() * 1000.0;
    let replayed = (first_polled + second.polled).saturating_sub(EVENTS as usize);
    let lost = EVENTS - stored_mass(&fw);
    (elapsed, replayed, lost)
}

fn bench_streaming_recovery(c: &mut Criterion) {
    let lines = storm();

    let (clean_fw, clean_ms) = clean_ingest(&lines);
    assert_eq!(stored_mass(&clean_fw), EVENTS, "baseline stores everything");
    let (outage_ms, retries, dlq_events, outage_lost) = outage_recovery(&lines);
    assert_eq!(outage_lost, 0, "outage + requeue must lose nothing");
    let (replay_ms, replayed, replay_lost) = crash_replay(&lines);
    assert_eq!(replay_lost, 0, "crash + replay must lose nothing");

    let overhead_pct = (replay_ms - clean_ms) / clean_ms * 100.0;
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"streaming_recovery\",\n",
            "  \"events\": {},\n",
            "  \"nodes\": 3,\n",
            "  \"replication_factor\": 2,\n",
            "  \"clean_ingest_ms\": {:.3},\n",
            "  \"outage_recovery_ms\": {:.3},\n",
            "  \"outage_store_retries\": {},\n",
            "  \"outage_dlq_events\": {},\n",
            "  \"outage_events_lost\": {},\n",
            "  \"crash_replay_ms\": {:.3},\n",
            "  \"crash_records_replayed\": {},\n",
            "  \"crash_events_lost\": {},\n",
            "  \"duplicate_absorption_overhead_pct\": {:.1}\n",
            "}}\n"
        ),
        EVENTS,
        clean_ms,
        outage_ms,
        retries,
        dlq_events,
        outage_lost,
        replay_ms,
        replayed,
        replay_lost,
        overhead_pct
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_streaming_recovery.json"
    );
    std::fs::write(path, &json).expect("write BENCH_streaming_recovery.json");
    println!(
        "clean {clean_ms:.1} ms, outage+requeue {outage_ms:.1} ms \
         ({retries} retries, {dlq_events} dead-lettered), crash+replay \
         {replay_ms:.1} ms ({replayed} replayed, {overhead_pct:.1}% overhead)"
    );

    let mut group = c.benchmark_group("streaming_recovery");
    group.sample_size(10);
    group.bench_function("clean_ingest", |b| b.iter(|| clean_ingest(&lines)));
    group.bench_function("crash_replay", |b| b.iter(|| crash_replay(&lines)));
    group.finish();
}

criterion_group!(benches, bench_streaming_recovery);
criterion_main!(benches);
