//! The Fig 7 (bottom) scenario: a system-wide Lustre storm floods the logs
//! with tens of thousands of error messages; word-count / TF-IDF text
//! analytics over the raw lines identify the unresponsive OST.
//!
//! Run with: `cargo run --release --example lustre_storm`
//! Writes `artifacts/lustre_storm_bubbles.svg`,
//! `artifacts/lustre_storm_timeline.svg`, and
//! `artifacts/telemetry_snapshot.json` (the full metrics registry after
//! the run).

use hpclog_core::analytics::histogram::event_histogram;
use hpclog_core::analytics::text::{self, top_k};
use hpclog_core::framework::{Framework, FrameworkConfig};
use hpclog_core::model::keys::HOUR_MS;
use loggen::lustre::ost_label;
use loggen::topology::Topology;
use loggen::trace::{Scenario, ScenarioConfig};
use viz::{render_timeseries, render_word_bubbles, Series};

fn main() {
    let dead_ost: u16 = 0x41;
    let fw = Framework::new(FrameworkConfig {
        db_nodes: 8,
        replication_factor: 3,
        vnodes: 16,
        topology: Topology::scaled(4, 2),
        ..Default::default()
    })
    .expect("framework boot");

    // A day whose middle hour hides the storm.
    let cfg = ScenarioConfig::storm_day(6, dead_ost);
    let scenario = Scenario::generate(fw.topology(), &cfg, 7777);
    let report = fw.batch_import(&scenario.lines).expect("import");
    println!(
        "imported {} lines ({} Lustre storm messages hidden inside)",
        report.parsed,
        scenario
            .lines
            .iter()
            .filter(|l| l.text.contains(&ost_label(dead_ost)))
            .count()
    );

    // Step 1 — the temporal map shows a system-wide spike.
    let t0 = cfg.start_ms;
    let t1 = t0 + 6 * HOUR_MS;
    let hist = event_histogram(&fw, "LUSTRE_ERR", t0, t1, 10 * 60_000).expect("hist");
    let (peak_bin, peak) = hist.peak().expect("bins");
    let storm_start = hist.bin_start(peak_bin);
    println!(
        "temporal map: LUSTRE_ERR peaks at {} events in the 10-minute bin starting {}ms",
        peak, storm_start
    );

    let series = Series {
        name: "LUSTRE_ERR / 10min".to_owned(),
        points: hist
            .bins
            .iter()
            .enumerate()
            .map(|(i, c)| (((hist.bin_start(i) - t0) / 60_000) as f64, *c))
            .collect(),
    };
    save(
        "artifacts/lustre_storm_timeline.svg",
        &render_timeseries("Lustre storm timeline (minutes into day)", &[series]),
    );

    // Step 2 — zoom into the storm window and run word count on raw text
    // ("a simple word counts ... can locate the source of the problem").
    let win0 = storm_start - 10 * 60_000;
    let win1 = storm_start + 30 * 60_000;
    let counts = text::word_count_events(&fw, "LUSTRE_ERR", win0, win1).expect("wordcount");
    let top = top_k(&counts, 15);
    println!("\ntop terms in the storm window:");
    for (term, count) in &top {
        println!("  {count:>6}  {term}");
    }

    // Step 3 — word bubbles (the Fig 7 visualization).
    let bubbles: Vec<(String, f64)> = top.iter().map(|(w, c)| (w.clone(), *c as f64)).collect();
    save(
        "artifacts/lustre_storm_bubbles.svg",
        &render_word_bubbles("Word bubbles over raw Lustre messages", &bubbles),
    );

    // Step 4 — the verdict: the dead OST must dominate the OST-shaped terms.
    let ost_terms: Vec<&(String, u64)> = top.iter().filter(|(w, _)| w.starts_with("OST")).collect();
    match ost_terms.first() {
        Some((label, count)) if *label == ost_label(dead_ost) => println!(
            "\nDIAGNOSIS: {} is not responding ({} mentions — next OST has {})",
            label,
            count,
            ost_terms.get(1).map(|(_, c)| *c).unwrap_or(0)
        ),
        Some((label, _)) => println!("\nunexpected dominant OST {label}"),
        None => println!("\nno OST term surfaced — storm too small?"),
    }

    // Step 5 — dump the telemetry registry accumulated by the whole
    // pipeline (ETL spans, coordinator latencies, scheduler tasks).
    save(
        "artifacts/telemetry_snapshot.json",
        &hpclog_core::server::telemetry_export::metrics_json().to_string(),
    );
}

fn save(path: &str, svg: &str) {
    std::fs::create_dir_all("artifacts").expect("mkdir artifacts");
    std::fs::write(path, svg).expect("write svg");
    println!("wrote {path}");
}
