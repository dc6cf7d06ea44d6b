//! Real-time ingestion (paper §III-D): raw lines flow through the message
//! bus into two cooperating stream ingesters that window them at one
//! second, coalesce duplicates, and upload to the store — while a monitor
//! watches the freshly ingested stream for an anomaly.
//!
//! Run with: `cargo run --release --example streaming_monitor`

use hpclog_core::analytics::histogram::event_histogram;
use hpclog_core::etl::stream::{publish_lines, StreamIngester};
use hpclog_core::framework::{Framework, FrameworkConfig};
use loggen::topology::Topology;
use loggen::trace::{Scenario, ScenarioConfig};

fn main() {
    let fw = Framework::new(FrameworkConfig {
        db_nodes: 6,
        replication_factor: 3,
        vnodes: 16,
        topology: Topology::scaled(3, 2),
        ..Default::default()
    })
    .expect("framework boot");

    // Two hours with a Lustre storm in the middle — arriving as a stream.
    let cfg = ScenarioConfig::storm_day(2, 0x2a);
    let scenario = Scenario::generate(fw.topology(), &cfg, 31);
    let published = publish_lines(&fw, &scenario.lines).expect("publish");
    println!("published {published} raw lines to the bus (keyed by source)");

    // Two consumer-group members share the partitions.
    let mut a = StreamIngester::new(&fw, "ingesters", 60_000).expect("join");
    let mut b = StreamIngester::new(&fw, "ingesters", 60_000).expect("join");
    let t = std::time::Instant::now();
    let mut rounds = 0u32;
    let registry = fw.telemetry();
    loop {
        let n = a.step(512).expect("step") + b.step(512).expect("step");
        rounds += 1;
        // Live telemetry: last coalescing window + how far we lag the bus.
        if rounds.is_multiple_of(8) {
            println!(
                "  [{rounds:>4} polls] window {} -> {} events, ingest lag {} records, {} stored so far",
                registry.gauge("etl.stream.window_events_in").get(),
                registry.gauge("etl.stream.window_events_out").get(),
                registry.gauge("etl.stream.ingest_lag").get(),
                registry.counter("etl.stream.events_out").get(),
            );
        }
        if n == 0 {
            break;
        }
    }
    let ra = a.finish().expect("finish");
    let rb = b.finish().expect("finish");
    println!(
        "drained in {:?} over {rounds} polls: member A polled {} / member B polled {}",
        t.elapsed(),
        ra.polled,
        rb.polled
    );
    println!(
        "events in: {}   events stored after 1s-window coalescing: {}   ({}x reduction)",
        ra.events_in + rb.events_in,
        ra.events_out + rb.events_out,
        (ra.events_in + rb.events_in).max(1) / (ra.events_out + rb.events_out).max(1)
    );

    // Online-style anomaly check over what just landed in the store.
    let t0 = cfg.start_ms;
    let hist = event_histogram(&fw, "LUSTRE_ERR", t0, t0 + 2 * 3_600_000, 60_000).expect("hist");
    let mean = hist.total() / hist.bins.len() as f64;
    let (peak_bin, peak) = hist.peak().expect("bins");
    println!(
        "\nmonitor: LUSTRE_ERR rate mean {:.1}/min, peak {:.0}/min at minute {}",
        mean,
        peak,
        (hist.bin_start(peak_bin) - t0) / 60_000
    );
    if peak > 10.0 * mean.max(1.0) {
        println!("ALERT: system-wide Lustre event storm detected in the live stream");
    } else {
        println!("no anomaly detected");
    }

    println!("\ntelemetry after the run:\n{}", fw.telemetry_report());
}
