//! The Fig 6 / end-user scenario: overlay application placements with
//! system events so a user can "visually inspect trends among the system
//! events and contention on shared resources that occur during the run of
//! their applications".
//!
//! Run with: `cargo run --release --example app_impact`
//! Writes `artifacts/app_placement.svg`.

use hpclog_core::context::Context;
use hpclog_core::framework::{Framework, FrameworkConfig};
use hpclog_core::model::keys::HOUR_MS;
use loggen::topology::{Topology, NODES_PER_CABINET};
use loggen::trace::{Scenario, ScenarioConfig};
use viz::{render_cabinet_heatmap, SystemMapSpec};

fn main() {
    let topo = Topology::scaled(4, 2);
    let fw = Framework::new(FrameworkConfig {
        db_nodes: 6,
        replication_factor: 3,
        vnodes: 16,
        topology: topo.clone(),
        ..Default::default()
    })
    .expect("framework boot");

    let cfg = ScenarioConfig {
        rate_scale: 8.0,
        ..ScenarioConfig::quiet_day(12)
    };
    let scenario = Scenario::generate(&topo, &cfg, 424_242);
    let report = fw.batch_import(&scenario.lines).expect("import");
    println!(
        "imported {} lines, {} application runs",
        report.parsed, report.jobs
    );

    // Pick the heaviest user of the day.
    let mut by_user: std::collections::HashMap<&str, usize> = Default::default();
    for j in &scenario.jobs {
        *by_user.entry(&j.user).or_default() += 1;
    }
    let (user, runs) = by_user
        .iter()
        .max_by_key(|(u, n)| (**n, std::cmp::Reverse(*u)))
        .expect("jobs exist");
    println!("\nbusiest user: {user} with {runs} runs");

    // Their runs, via the application_by_user view.
    let mine = fw.apps_by_user(user).expect("apps_by_user");
    for run in mine.iter().take(5) {
        println!(
            "  apid {} app={} nodes {}..{} exit={} ({} min)",
            run.apid,
            run.app,
            run.node_first,
            run.node_last,
            run.exit_code,
            (run.end_ms - run.start_ms) / 60_000
        );
    }

    // Events that overlapped this user's allocations, via a user context.
    let ctx = Context::window(cfg.start_ms, cfg.start_ms + 12 * HOUR_MS).with_user(*user);
    let events = ctx.fetch_events(&fw).expect("context fetch");
    println!(
        "\n{} system events overlapped {user}'s allocations during their runs",
        events.len()
    );
    let mut by_type: std::collections::HashMap<&str, usize> = Default::default();
    for e in &events {
        *by_type.entry(&*e.event_type).or_default() += 1;
    }
    let mut pairs: Vec<_> = by_type.into_iter().collect();
    pairs.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    for (t, n) in &pairs {
        println!("  {n:>5}  {t}");
    }

    // Application placement snapshot at mid-day (Fig 6 bottom): nodes per
    // cabinet occupied by any running application.
    let snapshot_ts = cfg.start_ms + 6 * HOUR_MS;
    let running = fw
        .apps_by_time(cfg.start_ms - 24 * HOUR_MS, snapshot_ts + 1)
        .expect("apps")
        .into_iter()
        .filter(|r| r.running_at(snapshot_ts))
        .collect::<Vec<_>>();
    let mut occupancy = vec![0.0f64; topo.cabinet_count()];
    for run in &running {
        for node in run.node_first..=run.node_last {
            occupancy[(node as usize) / NODES_PER_CABINET] += 1.0;
        }
    }
    println!(
        "\n{} applications running at the snapshot; occupancy per cabinet: {:?}",
        running.len(),
        occupancy.iter().map(|c| *c as i64).collect::<Vec<_>>()
    );
    let spec = SystemMapSpec {
        rows: topo.rows,
        cols: topo.cols,
        title: "Application placement (occupied nodes per cabinet)".to_owned(),
    };
    std::fs::create_dir_all("artifacts").expect("mkdir");
    std::fs::write(
        "artifacts/app_placement.svg",
        render_cabinet_heatmap(&spec, &occupancy),
    )
    .expect("write svg");
    println!("wrote artifacts/app_placement.svg");
}
