//! The two-set repeatability check (`--repeat-check <k>`).
//!
//! Runs the chosen workload 2 × k times as child processes of this same
//! binary, alternately into sets A and B, and compares the medians of the
//! two sets per end-to-end metric against the metric's bound. Children are
//! used, not in-process repeats, because set-up time and peak memory are
//! properties of a process.

use crate::report::END_TO_END;
use crate::stats::median;
use crate::Options;
use std::process::Command;

/// By how much of the first set's median a metric may be worse in the
/// second set, per metric of [`END_TO_END`] (the `bound` values of
/// `BENCHMARK.json`).
pub const BOUNDS: [(&str, f64); 5] = [
    ("throughput_per_s", 0.25),
    ("latency_p50_ms", 0.25),
    ("latency_tail_ms", 0.25),
    ("setup_s", 0.25),
    ("peak_rss_mib", 0.10),
];

/// Relative gap by which `b` is worse than `a` for a metric whose better
/// direction is `better`; negative when `b` is better.
pub fn worse_by(a: f64, b: f64, better: &str) -> f64 {
    match better {
        "higher" => (a - b) / a,
        _ => (b - a) / a,
    }
}

/// One child run: the end-to-end metric values of its result line.
fn child(opts: &Options, seed: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &opts.workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let json = jsonlite::parse(last).map_err(|e| format!("child printed no result: {e}"))?;
    if !out.status.success() || json["correct"].as_bool() != Some(true) {
        return Err(format!("child run failed: {last}"));
    }
    END_TO_END
        .iter()
        .map(|def| {
            json["metrics"][def.name]["value"]
                .as_f64()
                .ok_or_else(|| format!("child result lacks {}", def.name))
        })
        .collect()
}

/// Runs the check; `Ok(true)` when every gap is within its bound.
pub fn run(opts: &Options, k: usize) -> Result<bool, String> {
    let mut sets: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
    for i in 0..2 * k {
        // ABAB…: both sets see the same seeds and the same drift of the machine.
        let values = child(opts, opts.seed + (i / 2) as u64)?;
        println!("run {} (set {}): {values:?}", i + 1, ["A", "B"][i % 2]);
        sets[i % 2].push(values);
    }
    println!(
        "\n{:<18} {:>14} {:>14} {:>9} {:>7}",
        "metric", "median A", "median B", "B worse", "bound"
    );
    let mut within = true;
    for (m, def) in END_TO_END.iter().enumerate() {
        let column = |set: &[Vec<f64>]| median(&set.iter().map(|run| run[m]).collect::<Vec<_>>());
        let (a, b) = (
            column(&sets[0]).ok_or("empty set")?,
            column(&sets[1]).ok_or("empty set")?,
        );
        let bound = BOUNDS[m].1;
        debug_assert_eq!(BOUNDS[m].0, def.name);
        // Either set may be the worse one: the check is symmetric.
        let gap = worse_by(a, b, def.better).max(worse_by(b, a, def.better));
        let verdict = if gap <= bound { "" } else { "  EXCEEDS" };
        within &= gap <= bound;
        println!(
            "{:<18} {a:>14.4} {b:>14.4} {:>8.2}% {:>6.0}%{verdict}",
            def.name,
            gap * 100.0,
            bound * 100.0
        );
    }
    Ok(within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaps_follow_the_better_direction() {
        assert_eq!(worse_by(100.0, 90.0, "higher"), 0.1);
        assert_eq!(worse_by(100.0, 110.0, "higher"), -0.1);
        assert_eq!(worse_by(10.0, 12.0, "lower"), 0.2);
        assert_eq!(worse_by(10.0, 8.0, "lower"), -0.2);
    }

    #[test]
    fn bounds_cover_the_end_to_end_catalogue_in_order() {
        let names: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        let bounded: Vec<&str> = BOUNDS.iter().map(|b| b.0).collect();
        assert_eq!(names, bounded);
        assert!(BOUNDS.iter().all(|b| b.1 > 0.0 && b.1 <= 0.25));
    }
}
