//! Future-work demo (paper §V): composite-event mining and failure
//! prediction on top of the stored event streams — "models for failure
//! prediction ... leverage trends of non-fatal events preceding failures".
//!
//! Run with: `cargo run --release --example failure_forecast`

use hpclog_core::analytics::composite::{mine_from_store, Scope};
use hpclog_core::analytics::prediction::{train_and_evaluate, PredictorConfig};
use hpclog_core::analytics::profiles::{anomalous_runs, application_profile};
use hpclog_core::framework::{Framework, FrameworkConfig};
use hpclog_core::model::event::EventRecord;
use hpclog_core::model::keys::HOUR_MS;
use loggen::topology::Topology;
use loggen::trace::{Scenario, ScenarioConfig};
use rand::Rng;

fn main() {
    let topo = Topology::scaled(2, 2);
    let fw = Framework::new(FrameworkConfig {
        db_nodes: 6,
        replication_factor: 3,
        vnodes: 16,
        topology: topo.clone(),
        ..Default::default()
    })
    .expect("framework boot");

    // Background day plus an injected failure chain: GPU_DBE storms precede
    // GPU_OFF_BUS failures by ~2 minutes on the same node.
    let cfg = ScenarioConfig {
        rate_scale: 4.0,
        ..ScenarioConfig::quiet_day(24)
    };
    let scenario = Scenario::generate(&topo, &cfg, 2026);
    fw.batch_import(&scenario.lines).expect("import");
    let t0 = cfg.start_ms;
    let t1 = t0 + 24 * HOUR_MS;

    let mut r = loggen::failure::rng(8);
    let mut injected = 0;
    for _ in 0..120 {
        let ts = t0 + r.gen_range(0..23 * HOUR_MS);
        let node = r.gen_range(0..topo.node_count());
        for k in 0..3i64 {
            fw.insert_event(&EventRecord {
                ts_ms: ts + k * 20_000,
                event_type: "GPU_DBE".into(),
                source: topo.node(node).cname.as_str().into(),
                amount: 1,
                raw: "NVRM: Xid (0000:02:00): 48, Double Bit ECC Error".into(),
            })
            .expect("insert");
        }
        fw.insert_event(&EventRecord {
            ts_ms: ts + 120_000,
            event_type: "GPU_OFF_BUS".into(),
            source: topo.node(node).cname.as_str().into(),
            amount: 1,
            raw: "NVRM: Xid (0000:02:00): 79, GPU has fallen off the bus.".into(),
        })
        .expect("insert");
        injected += 1;
    }
    println!("injected {injected} GPU failure chains into a 24h background day");

    // 1. Composite-event mining surfaces the chain as a high-lift rule.
    println!("\ntop mined rules (same-node, 5-minute window):");
    let rules = mine_from_store(&fw, t0, t1, 5 * 60_000, Scope::Node, 10).expect("mine");
    for rule in rules.iter().take(5) {
        println!(
            "  {} => {}  support={} confidence={:.2} lift={:.1}",
            rule.antecedent, rule.consequent, rule.support, rule.confidence, rule.lift
        );
    }
    assert!(
        rules
            .iter()
            .take(3)
            .any(|r| r.antecedent == "GPU_DBE" && r.consequent == "GPU_OFF_BUS"),
        "the injected chain must be a top rule"
    );

    // 2. Failure prediction: train on 70% of the day, evaluate on the rest.
    let cfg_pred = PredictorConfig {
        bin_ms: 60_000,
        lead_bins: 4,
        horizon_bins: 4,
    };
    let (predictor, metrics) =
        train_and_evaluate(&fw, "GPU_OFF_BUS", t0, t1, cfg_pred, 0.7).expect("train");
    println!("\nGPU_OFF_BUS predictor (1-min bins, 4-min lead/horizon):");
    let mut weights: Vec<_> = predictor.weights.iter().collect();
    weights.sort_by(|a, b| b.1.total_cmp(a.1));
    for (t, w) in weights.iter().take(4) {
        println!("  weight {w:+.2}  {t}");
    }
    println!(
        "  held-out: {} alarms, precision {:.2}, recall {:.2} over {} failures",
        metrics.alarms, metrics.precision, metrics.recall, metrics.failures
    );

    // 3. Application profiles: who suffers the most Lustre noise per
    // node-hour, and which runs were anomalous?
    println!("\napplication profiles (LUSTRE_ERR per node-hour):");
    let mut rows = Vec::new();
    for app in loggen::jobs::APPLICATIONS.iter().take(6) {
        let p = application_profile(&fw, app).expect("profile");
        if p.runs > 0 {
            rows.push((
                app.to_string(),
                p.runs,
                p.rates.get("LUSTRE_ERR").copied().unwrap_or(0.0),
            ));
        }
    }
    rows.sort_by(|a, b| b.2.total_cmp(&a.2));
    for (app, runs, rate) in &rows {
        println!("  {rate:>8.3}  {app} ({runs} runs)");
    }
    if let Some((app, _, _)) = rows.first() {
        let anomalies = anomalous_runs(&fw, app, 2.0).expect("anomalies");
        println!(
            "  anomalous {app} runs (>2σ total event rate): {:?}",
            anomalies.iter().map(|(apid, _)| apid).collect::<Vec<_>>()
        );
    }
}
