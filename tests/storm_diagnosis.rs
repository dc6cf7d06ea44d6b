//! Scenario-level regression: the two headline analyses of the paper must
//! reach the right diagnosis on generated data, end to end.

use hpc_log_analytics::core::analytics::heatmap::cabinet_heatmap;
use hpc_log_analytics::core::analytics::histogram::event_histogram;
use hpc_log_analytics::core::analytics::text::{top_k, word_count_events};
use hpc_log_analytics::core::analytics::transfer_entropy::te_lag_sweep;
use hpc_log_analytics::core::framework::{Framework, FrameworkConfig};
use hpc_log_analytics::core::model::event::EventRecord;
use hpc_log_analytics::core::model::keys::HOUR_MS;
use loggen::lustre::ost_label;
use loggen::topology::Topology;
use loggen::trace::{Scenario, ScenarioConfig};

#[test]
fn lustre_storm_word_count_identifies_the_dead_ost() {
    let dead_ost = 0x7b;
    let fw = Framework::new(FrameworkConfig {
        db_nodes: 4,
        replication_factor: 2,
        vnodes: 8,
        topology: Topology::scaled(2, 2),
        ..Default::default()
    })
    .expect("boot");
    let cfg = ScenarioConfig::storm_day(4, dead_ost);
    let scenario = Scenario::generate(fw.topology(), &cfg, 99);
    fw.batch_import(&scenario.lines).expect("import");

    // Find the storm on the temporal map.
    let t0 = cfg.start_ms;
    let t1 = t0 + cfg.duration_ms;
    let hist = event_histogram(&fw, "LUSTRE_ERR", t0, t1, 10 * 60_000).expect("hist");
    let (peak_bin, peak) = hist.peak().expect("bins");
    let mean = hist.total() / hist.bins.len() as f64;
    assert!(
        peak > 5.0 * mean,
        "storm must stand out: peak={peak} mean={mean}"
    );

    // Word count in the storm window pins the OST.
    let w0 = hist.bin_start(peak_bin) - 10 * 60_000;
    let w1 = hist.bin_start(peak_bin) + 30 * 60_000;
    let counts = word_count_events(&fw, "LUSTRE_ERR", w0, w1).expect("wordcount");
    let top = top_k(&counts, 10);
    let top_ost = top
        .iter()
        .find(|(w, _)| w.starts_with("OST"))
        .expect("an OST term in the top 10");
    assert_eq!(top_ost.0, ost_label(dead_ost));
}

#[test]
fn hotspot_heatmap_flags_the_injected_cabinet() {
    let hot = 3;
    let fw = Framework::new(FrameworkConfig {
        db_nodes: 4,
        replication_factor: 2,
        vnodes: 8,
        topology: Topology::scaled(2, 3),
        ..Default::default()
    })
    .expect("boot");
    let cfg = ScenarioConfig::mce_hotspot(6, hot);
    let scenario = Scenario::generate(fw.topology(), &cfg, 5);
    fw.batch_import(&scenario.lines).expect("import");
    let hm =
        cabinet_heatmap(&fw, "MCE", cfg.start_ms, cfg.start_ms + cfg.duration_ms).expect("heatmap");
    assert_eq!(hm.hottest, hot);
    assert!(hm.outliers(2.0).contains(&hot));
}

#[test]
fn causal_injection_shows_directed_transfer_entropy() {
    let topo = Topology::scaled(2, 2);
    let fw = Framework::new(FrameworkConfig {
        db_nodes: 4,
        replication_factor: 2,
        vnodes: 8,
        topology: topo.clone(),
        ..Default::default()
    })
    .expect("boot");
    // NET_LINK at random times; LUSTRE_ERR exactly one minute later.
    let mut r = loggen::failure::rng(17);
    let t0 = 1_500_000_000_000i64;
    use rand::Rng;
    for _ in 0..300 {
        let ts = t0 + r.gen_range(0..6 * HOUR_MS);
        let node = r.gen_range(0..topo.node_count());
        for (etype, at) in [("NET_LINK", ts), ("LUSTRE_ERR", ts + 60_000)] {
            fw.insert_event(&EventRecord {
                ts_ms: at,
                event_type: etype.into(),
                source: topo.node(node).cname.as_str().into(),
                amount: 1,
                raw: "".into(),
            })
            .expect("insert");
        }
    }
    let sweep = te_lag_sweep(
        &fw,
        "NET_LINK",
        "LUSTRE_ERR",
        t0,
        t0 + 7 * HOUR_MS,
        60_000,
        3,
    )
    .expect("te");
    let at_lag_1 = sweep.iter().find(|(l, _)| *l == 1).expect("lag 1").1;
    assert!(
        at_lag_1.x_to_y > 2.0 * at_lag_1.y_to_x,
        "forward {} must dominate backward {}",
        at_lag_1.x_to_y,
        at_lag_1.y_to_x
    );
}
