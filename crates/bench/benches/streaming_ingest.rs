//! C5: streaming ingestion — bus → 1 s windows → coalesce → store, and the
//! coalescing ablation (how many store writes the window rule saves when
//! a storm repeats events within the same second).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hpclog_core::etl::stream::{publish_lines, StreamIngester};
use hpclog_core::framework::{Framework, FrameworkConfig};
use hpclog_core::model::event::EventRecord;
use loggen::topology::Topology;
use loggen::trace::{Facility, RawLine};

fn fw() -> Framework {
    Framework::new(FrameworkConfig {
        db_nodes: 6,
        replication_factor: 2,
        vnodes: 8,
        topology: Topology::scaled(2, 2),
        ..Default::default()
    })
    .expect("boot")
}

/// A bursty stream: every node repeats the same error a few times per
/// second (exactly what the 1 s coalescing window is for).
fn bursty_lines(n: usize) -> Vec<RawLine> {
    let t0 = 1_500_000_000_000i64;
    (0..n)
        .map(|i| RawLine {
            ts_ms: t0 + (i as i64 / 40) * 250, // 4 repeats per node-second
            facility: Facility::Console,
            source: format!("c0-0c0s{}n{}", (i % 32) / 4, i % 4),
            text: "Machine Check Exception: bank 2: b2 addr 3f cpu 1".into(),
        })
        .collect()
}

fn bench_streaming(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming_ingest");
    group.sample_size(10);
    for n in [5_000usize, 20_000] {
        let lines = bursty_lines(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(
            BenchmarkId::new("bus_window_coalesce_store", n),
            &n,
            |b, _| {
                b.iter_with_setup(
                    || {
                        let fw = fw();
                        publish_lines(&fw, &lines).expect("publish");
                        fw
                    },
                    |fw| {
                        let report = StreamIngester::new(&fw, "bench", 60_000)
                            .expect("join")
                            .run_to_completion(1024)
                            .expect("drain");
                        assert_eq!(report.events_in, lines.len());
                        assert!(report.events_out < report.events_in);
                        report.events_out
                    },
                );
            },
        );

        // Ablation: no coalescing — every raw event becomes a store write.
        group.bench_with_input(
            BenchmarkId::new("no_coalescing_direct_store", n),
            &n,
            |b, _| {
                b.iter_with_setup(fw, |fw| {
                    let evs: Vec<EventRecord> = lines
                        .iter()
                        .map(|l| EventRecord {
                            ts_ms: l.ts_ms,
                            event_type: "MCE".into(),
                            source: l.source.as_str().into(),
                            amount: 1,
                            raw: l.text.as_str().into(),
                        })
                        .collect();
                    fw.insert_events(&evs).expect("insert")
                });
            },
        );
    }
    group.finish();

    // Telemetry overhead: the identical drain with spans and histograms on
    // vs off. Span guards stay at every call site; "off" reduces each to a
    // relaxed atomic load and branch. Counters and gauges count either way.
    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10);
    let n = 20_000usize;
    let lines = bursty_lines(n);
    group.throughput(Throughput::Elements(n as u64));
    for (label, enabled) in [("enabled", true), ("disabled", false)] {
        group.bench_with_input(BenchmarkId::new("streaming_ingest", label), &n, |b, _| {
            b.iter_with_setup(
                || {
                    let fw = fw();
                    fw.telemetry().set_enabled(enabled);
                    publish_lines(&fw, &lines).expect("publish");
                    fw
                },
                |fw| {
                    let report = StreamIngester::new(&fw, "bench", 60_000)
                        .expect("join")
                        .run_to_completion(1024)
                        .expect("drain");
                    assert_eq!(report.events_in, lines.len());
                    report.events_out
                },
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_streaming);
criterion_main!(benches);
