//! Application profiles (paper §V future work: "develop application
//! profiles in terms of event occurred during its runs ... to understand
//! correlations between application runtime characteristics and variations
//! observed in the system").
//!
//! A profile is the per-type event rate (events per node-hour) an
//! application experiences across its runs. Profiles support comparison
//! between applications and flagging of anomalous individual runs.

use crate::framework::Framework;
use crate::model::apprun::AppRun;
use rasdb::error::DbError;
use std::collections::BTreeMap;

/// Aggregate event profile of one application.
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    /// Application name.
    pub app: String,
    /// Runs aggregated.
    pub runs: usize,
    /// Total node-hours across runs.
    pub node_hours: f64,
    /// Events per node-hour, by event type.
    pub rates: BTreeMap<String, f64>,
}

/// Event exposure of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunExposure {
    /// The run.
    pub apid: i64,
    /// Node-hours of the run.
    pub node_hours: f64,
    /// Event counts by type overlapping the run.
    pub counts: BTreeMap<String, u64>,
}

impl RunExposure {
    /// This run's per-type rates.
    pub fn rates(&self) -> BTreeMap<String, f64> {
        self.counts
            .iter()
            .map(|(t, c)| (t.clone(), *c as f64 / self.node_hours.max(1e-9)))
            .collect()
    }
}

fn node_hours(run: &AppRun) -> f64 {
    run.width() as f64 * (run.end_ms - run.start_ms).max(0) as f64 / 3_600_000.0
}

/// Computes the per-run event exposures of an application.
pub fn run_exposures(fw: &Framework, app: &str) -> Result<Vec<RunExposure>, DbError> {
    let runs = fw.apps_by_name(app)?;
    let topo = fw.topology();
    let mut out = Vec::with_capacity(runs.len());
    for run in &runs {
        let mut counts: BTreeMap<String, u64> = BTreeMap::new();
        // All events any of the run's nodes reported during the run, each
        // row's node read off its block's node index.
        let (first, last) = (run.node_first as usize, run.node_last as usize);
        for etype in loggen::events::EVENT_CATALOG {
            let mut n = 0u64;
            for b in fw.scan_window(etype.name, run.start_ms, run.end_ms)?.parts {
                let nodes = b.nodes(topo);
                let node = |i: usize| nodes[b.source_ids[i] as usize].map(|n| n as usize);
                let on_run = |&i: &usize| node(i).is_some_and(|n| first <= n && n <= last);
                for i in b.range(run.start_ms, run.end_ms).filter(on_run) {
                    n += b.amounts[i] as u64;
                }
            }
            if n > 0 {
                counts.insert(etype.name.to_owned(), n);
            }
        }
        out.push(RunExposure {
            apid: run.apid,
            node_hours: node_hours(run),
            counts,
        });
    }
    Ok(out)
}

/// Builds the aggregate profile of an application.
pub fn application_profile(fw: &Framework, app: &str) -> Result<AppProfile, DbError> {
    let exposures = run_exposures(fw, app)?;
    let node_hours: f64 = exposures.iter().map(|e| e.node_hours).sum();
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    for e in &exposures {
        for (t, c) in &e.counts {
            *totals.entry(t.clone()).or_default() += c;
        }
    }
    let rates = totals
        .into_iter()
        .map(|(t, c)| (t, c as f64 / node_hours.max(1e-9)))
        .collect();
    Ok(AppProfile {
        app: app.to_owned(),
        runs: exposures.len(),
        node_hours,
        rates,
    })
}

/// L1 distance between two profiles' rate vectors (union of types).
pub fn profile_distance(a: &AppProfile, b: &AppProfile) -> f64 {
    let mut types: std::collections::BTreeSet<&String> = a.rates.keys().collect();
    types.extend(b.rates.keys());
    types
        .into_iter()
        .map(|t| {
            (a.rates.get(t).copied().unwrap_or(0.0) - b.rates.get(t).copied().unwrap_or(0.0)).abs()
        })
        .sum()
}

/// Flags runs whose total event rate deviates from the application's mean
/// by more than `k_sigma` standard deviations. Returns `(apid, z-score)`
/// sorted by descending score.
pub fn anomalous_runs(fw: &Framework, app: &str, k_sigma: f64) -> Result<Vec<(i64, f64)>, DbError> {
    let exposures = run_exposures(fw, app)?;
    if exposures.len() < 2 {
        return Ok(Vec::new());
    }
    let rates: Vec<f64> = exposures
        .iter()
        .map(|e| e.counts.values().sum::<u64>() as f64 / e.node_hours.max(1e-9))
        .collect();
    let mean = rates.iter().sum::<f64>() / rates.len() as f64;
    let var = rates.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / rates.len() as f64;
    let sd = var.sqrt();
    if sd <= 0.0 {
        return Ok(Vec::new());
    }
    let mut flagged: Vec<(i64, f64)> = exposures
        .iter()
        .zip(&rates)
        .filter_map(|(e, r)| {
            let z = (r - mean) / sd;
            (z > k_sigma).then_some((e.apid, z))
        })
        .collect();
    flagged.sort_by(|a, b| b.1.total_cmp(&a.1));
    Ok(flagged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::FrameworkConfig;
    use crate::model::event::EventRecord;
    use crate::model::keys::HOUR_MS;
    use loggen::topology::Topology;

    fn fw() -> Framework {
        Framework::new(FrameworkConfig {
            db_nodes: 3,
            replication_factor: 2,
            vnodes: 8,
            topology: Topology::scaled(2, 2),
            ..Default::default()
        })
        .unwrap()
    }

    fn run(fw: &Framework, apid: i64, app: &str, start: i64, end: i64, n0: i64, n1: i64) {
        fw.insert_app_run(&AppRun {
            apid,
            user: "u".into(),
            app: app.into(),
            start_ms: start,
            end_ms: end,
            node_first: n0,
            node_last: n1,
            exit_code: 0,
            other_info: Default::default(),
        })
        .unwrap();
    }

    fn ev(fw: &Framework, ts: i64, t: &str, node: usize, amount: i32) {
        fw.insert_event(&EventRecord {
            ts_ms: ts,
            event_type: t.into(),
            source: fw.topology().node(node).cname.into(),
            amount,
            raw: "".into(),
        })
        .unwrap();
    }

    #[test]
    fn profile_rates_are_per_node_hour() {
        let fw = fw();
        // 4 nodes × 1 hour = 4 node-hours; 8 MCE events inside.
        run(&fw, 1, "VASP", 0, HOUR_MS, 0, 3);
        for i in 0..8 {
            ev(&fw, 1000 + i, "MCE", (i % 4) as usize, 1);
        }
        // Events outside the allocation don't count.
        ev(&fw, 1000, "MCE", 50, 1);
        let p = application_profile(&fw, "VASP").unwrap();
        assert_eq!(p.runs, 1);
        assert!((p.node_hours - 4.0).abs() < 1e-9);
        assert!((p.rates["MCE"] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn profile_distance_is_symmetric_zero_on_self() {
        let a = AppProfile {
            app: "A".into(),
            runs: 1,
            node_hours: 1.0,
            rates: [("MCE".to_owned(), 2.0)].into_iter().collect(),
        };
        let b = AppProfile {
            app: "B".into(),
            runs: 1,
            node_hours: 1.0,
            rates: [("LUSTRE_ERR".to_owned(), 1.0)].into_iter().collect(),
        };
        assert_eq!(profile_distance(&a, &a), 0.0);
        assert_eq!(profile_distance(&a, &b), profile_distance(&b, &a));
        assert_eq!(profile_distance(&a, &b), 3.0);
    }

    #[test]
    fn anomalous_run_is_flagged() {
        let fw = fw();
        // Five quiet runs plus one that ate a burst.
        for apid in 0..6i64 {
            run(&fw, apid, "XGC", apid * HOUR_MS, (apid + 1) * HOUR_MS, 0, 3);
            ev(&fw, apid * HOUR_MS + 500, "MEM_ECC", 0, 1);
        }
        for i in 0..40 {
            ev(
                &fw,
                5 * HOUR_MS + 1000 + i,
                "LUSTRE_ERR",
                (i % 4) as usize,
                1,
            );
        }
        let flagged = anomalous_runs(&fw, "XGC", 1.5).unwrap();
        assert_eq!(flagged.len(), 1);
        assert_eq!(flagged[0].0, 5);
        assert!(flagged[0].1 > 1.5);
    }

    #[test]
    fn no_runs_no_anomalies() {
        let fw = fw();
        assert!(anomalous_runs(&fw, "GHOST", 1.0).unwrap().is_empty());
        let p = application_profile(&fw, "GHOST").unwrap();
        assert_eq!(p.runs, 0);
        assert!(p.rates.is_empty());
    }

    #[test]
    fn exposures_split_by_run() {
        let fw = fw();
        run(&fw, 1, "S3D", 0, HOUR_MS, 0, 1);
        run(&fw, 2, "S3D", 2 * HOUR_MS, 3 * HOUR_MS, 0, 1);
        ev(&fw, 100, "MCE", 0, 3); // run 1 only
        let exposures = run_exposures(&fw, "S3D").unwrap();
        assert_eq!(exposures.len(), 2);
        let e1 = exposures.iter().find(|e| e.apid == 1).unwrap();
        let e2 = exposures.iter().find(|e| e.apid == 2).unwrap();
        assert_eq!(e1.counts.get("MCE"), Some(&3));
        assert!(e2.counts.is_empty());
        assert_eq!(e1.rates()["MCE"], 1.5);
    }
}
