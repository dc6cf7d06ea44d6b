//! The fixed configuration and the seeded datasets every workload shares.
//!
//! Everything runs at "latency zero": `NodeConfig::read_latency_us` keeps
//! its default of 0 and `remote_link_bytes_per_sec` is `None`, so the
//! numbers are CPU work, not the program's simulated waits.

use hpclog_core::framework::{Framework, FrameworkConfig};
use loggen::topology::Topology;
use loggen::trace::{RawLine, Scenario, ScenarioConfig};
use rasdb::query::Consistency;
use std::collections::HashSet;

/// Start of every scenario (`ScenarioConfig::quiet_day`'s epoch).
pub const T0: i64 = 1_500_000_000_000;
/// One hour in milliseconds.
pub const HOUR_MS: i64 = 3_600_000;
/// Hours of the `titan_day` dataset.
pub const DAY_HOURS: i64 = 24;
/// The OST the storm blames (paper Fig. 7).
pub const STORM_OST: u16 = 41;

/// The monitored machine: Titan, or a 4×4-cabinet floor for `--smoke`.
pub fn topology(smoke: bool) -> Topology {
    if smoke {
        Topology::scaled(4, 4)
    } else {
        Topology::titan()
    }
}

/// A fresh framework in the benchmark's one configuration.
pub fn framework(smoke: bool) -> Framework {
    framework_with_workers(smoke, 2)
}

/// The same with `workers` executors (the traced `import_day` compares one
/// executor with two).
pub fn framework_with_workers(smoke: bool, workers: usize) -> Framework {
    Framework::new(FrameworkConfig {
        db_nodes: 4,
        replication_factor: 3,
        vnodes: 16,
        workers: Some(workers),
        topology: topology(smoke),
        consistency: Consistency::Quorum,
        remote_link_bytes_per_sec: None,
        ..FrameworkConfig::default()
    })
    .expect("schema creation on a fresh cluster")
}

/// `titan_day`: a 24-hour day at three times the catalogue's background
/// rates with the six-minute Lustre storm at noon (128,067 lines at seed
/// 1977, about half of them the storm in one `(hour, LUSTRE_ERR)`
/// partition).
pub fn titan_day(smoke: bool, seed: u64) -> Scenario {
    let cfg = ScenarioConfig {
        rate_scale: 3.0,
        ..ScenarioConfig::storm_day(DAY_HOURS, STORM_OST)
    };
    Scenario::generate(&topology(smoke), &cfg, seed)
}

/// `storm_hour`: one hour at twelve times the background rates with the
/// storm at its half-hour mark (75,399 lines at seed 1977).
pub fn storm_hour(smoke: bool, seed: u64) -> Scenario {
    let cfg = ScenarioConfig {
        rate_scale: 12.0,
        ..ScenarioConfig::storm_day(1, STORM_OST)
    };
    Scenario::generate(&topology(smoke), &cfg, seed)
}

/// The live feed of `dash_live`: `hours` quiet hours following the day.
pub fn live_feed(smoke: bool, seed: u64, hours: i64) -> Scenario {
    let cfg = ScenarioConfig {
        start_ms: T0 + DAY_HOURS * HOUR_MS,
        rate_scale: 3.0,
        ..ScenarioConfig::quiet_day(hours)
    };
    Scenario::generate(&topology(smoke), &cfg, seed.wrapping_add(1))
}

/// Renders lines as the newline-terminated corpus the batch ETL reads.
pub fn render(lines: &[RawLine]) -> Vec<u8> {
    let mut corpus = Vec::new();
    for line in lines {
        corpus.extend_from_slice(line.render().as_bytes());
        corpus.push(b'\n');
    }
    corpus
}

/// Splits time-sorted lines into runs sharing `ts_ms / tick_ms`, skipping
/// nothing and reordering nothing.
pub fn ticks(lines: &[RawLine], tick_ms: i64) -> Vec<&[RawLine]> {
    lines
        .chunk_by(|a, b| a.ts_ms.div_euclid(tick_ms) == b.ts_ms.div_euclid(tick_ms))
        .collect()
}

/// Sum of ground-truth occurrence counts of `event_type` in `[from, to)`.
pub fn truth_count(scenario: &Scenario, event_type: &str, from_ms: i64, to_ms: i64) -> u64 {
    scenario
        .truth
        .iter()
        .filter(|o| o.event_type == event_type && o.ts_ms >= from_ms && o.ts_ms < to_ms)
        .map(|o| u64::from(o.count))
        .sum()
}

/// Rows of `event_type` a batch import of the scenario leaves in
/// `[from, to)`. The event tables key a row by `(ts_ms, source)` within
/// its `(hour, type)` partition, so two occurrences of one type on one
/// node in the same millisecond are one row (the later write wins); every
/// generated occurrence has a count of 1. Streaming ingestion does not
/// lose them: it sums same-second occurrences before it writes.
pub fn truth_rows(scenario: &Scenario, event_type: &str, from_ms: i64, to_ms: i64) -> u64 {
    let keys: HashSet<(i64, usize)> = scenario
        .truth
        .iter()
        .filter(|o| o.event_type == event_type && o.ts_ms >= from_ms && o.ts_ms < to_ms)
        .map(|o| (o.ts_ms, o.node))
        .collect();
    keys.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_repeat_for_a_seed_and_differ_across_seeds() {
        let a = storm_hour(true, 7);
        let b = storm_hour(true, 7);
        assert_eq!(a.lines, b.lines);
        assert_ne!(a.lines, storm_hour(true, 8).lines);
        assert!(live_feed(true, 7, 2).lines[0].ts_ms >= T0 + DAY_HOURS * HOUR_MS);
    }

    #[test]
    fn ticks_partition_the_lines_in_order() {
        let s = storm_hour(true, 3);
        let t = ticks(&s.lines, 1000);
        assert_eq!(t.iter().map(|c| c.len()).sum::<usize>(), s.lines.len());
        assert!(t.iter().all(|c| !c.is_empty()
            && c.iter()
                .all(|l| l.ts_ms.div_euclid(1000) == c[0].ts_ms.div_euclid(1000))));
        assert!(t.windows(2).all(|w| w[0][0].ts_ms < w[1][0].ts_ms));
    }

    #[test]
    fn truth_count_is_half_open() {
        let s = titan_day(true, 5);
        let all = truth_count(&s, "MEM_ECC", i64::MIN, i64::MAX);
        let first = truth_count(&s, "MEM_ECC", T0, T0 + 12 * HOUR_MS);
        let second = truth_count(&s, "MEM_ECC", T0 + 12 * HOUR_MS, T0 + 24 * HOUR_MS);
        assert!(all > 0);
        assert_eq!(first + second, all);
        // Distinct keys never outnumber occurrences.
        assert!(truth_rows(&s, "MEM_ECC", i64::MIN, i64::MAX) <= all);
        assert!(s.truth.iter().all(|o| o.count == 1));
    }
}
