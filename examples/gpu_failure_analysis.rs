//! The Fig 5 scenario: a spatially concentrated MCE/GPU hotspot shows up
//! as an anomaly on the physical-system-map heat map, then gets localized
//! by cabinet/blade/node distributions.
//!
//! Run with: `cargo run --release --example gpu_failure_analysis`
//! Writes `artifacts/heatmap_cabinets.svg` and `artifacts/heatmap_nodes.svg`.

use hpclog_core::analytics::distribution::{distribution, GroupBy};
use hpclog_core::analytics::heatmap::{cabinet_heatmap, node_heatmap};
use hpclog_core::context::Context;
use hpclog_core::framework::{Framework, FrameworkConfig};
use hpclog_core::model::keys::HOUR_MS;
use loggen::topology::{Topology, NODES_PER_CABINET};
use loggen::trace::{Scenario, ScenarioConfig};
use viz::{ascii_cabinet_heatmap, render_cabinet_heatmap, render_node_heatmap, SystemMapSpec};

fn main() {
    let topo = Topology::scaled(5, 4); // 20 cabinets, 1920 nodes
    let hot_cabinet = 13;
    let fw = Framework::new(FrameworkConfig {
        db_nodes: 8,
        replication_factor: 3,
        vnodes: 16,
        topology: topo.clone(),
        ..Default::default()
    })
    .expect("framework boot");

    let cfg = ScenarioConfig::mce_hotspot(12, hot_cabinet);
    let scenario = Scenario::generate(&topo, &cfg, 55);
    fw.batch_import(&scenario.lines).expect("import");
    println!("imported a 12-hour day with an injected MCE burst in cabinet {hot_cabinet}");

    let t0 = cfg.start_ms;
    let t1 = t0 + 12 * HOUR_MS;
    let hm = cabinet_heatmap(&fw, "MCE", t0, t1).expect("heatmap");
    println!(
        "\nheat map: total={} mean={:.1} stddev={:.1} hottest=cab{}",
        hm.total, hm.mean, hm.stddev, hm.hottest
    );
    let spec = SystemMapSpec {
        rows: topo.rows,
        cols: topo.cols,
        title: "MCE occurrences per cabinet".to_owned(),
    };
    println!("\n{}", ascii_cabinet_heatmap(&spec, &hm.cabinets));
    let outliers = hm.outliers(2.0);
    println!("cabinets above mean + 2σ: {outliers:?}");
    assert!(
        outliers.contains(&hot_cabinet),
        "the injected hotspot must be flagged"
    );

    save(
        "artifacts/heatmap_cabinets.svg",
        &render_cabinet_heatmap(&spec, &hm.cabinets),
    );
    let nodes = node_heatmap(&fw, "MCE", t0, t1).expect("node heatmap");
    save(
        "artifacts/heatmap_nodes.svg",
        &render_node_heatmap(&spec, &nodes, NODES_PER_CABINET),
    );

    // Complementary distributions (paper: "heat map and distributions offer
    // complementary insights"), over the MCE context of the window.
    let mce = Context::window(t0, t1).with_type("MCE");
    for by in [GroupBy::Cabinet, GroupBy::Blade, GroupBy::Node] {
        let d = distribution(&fw, &mce, by).expect("distribution");
        let top: Vec<String> = d
            .top(3)
            .iter()
            .map(|(l, c)| format!("{l}={c:.0}"))
            .collect();
        println!("top by {by:?}: {}", top.join("  "));
    }

    // Which applications were hit? (Fig 6's question.)
    let d = distribution(&fw, &mce, GroupBy::Application).expect("distribution");
    println!("\napplications overlapping the MCE events:");
    for (app, count) in d.top(5) {
        println!("  {count:>6.0}  {app}");
    }
    println!("  (unattributed: {:.0})", d.unattributed);
}

fn save(path: &str, svg: &str) {
    std::fs::create_dir_all("artifacts").expect("mkdir artifacts");
    std::fs::write(path, svg).expect("write svg");
    println!("wrote {path}");
}
