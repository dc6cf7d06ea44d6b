//! Metric catalogue, operation accounting and the result line.
//!
//! The catalogue here is the single list of metric names and units;
//! `BENCHMARK.json` at the repository root repeats it for the driver and a
//! unit test keeps the two equal.

use std::collections::BTreeMap;

/// Name and unit of one reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// The metrics a user of the system sees; every workload reports all five
/// from the untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m("throughput_per_s", "1/s", "higher"),
    m("latency_p50_ms", "ms", "lower"),
    m("latency_tail_ms", "ms", "lower"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mib", "MiB", "lower"),
];

/// The metrics of single layers, from the traced run. A layer a workload
/// does not exercise reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    m("etl.fastpath.scan_us_per_kline", "us", "lower"),
    m("etl.rows.build_us_per_kline", "us", "lower"),
    m("rasdb.write.insert_batch_us_per_krow", "us", "lower"),
    m("rasdb.write.replica_applies", "count", "lower"),
    m("rasdb.write.flushes", "count", "lower"),
    m("rasdb.write.compactions", "count", "lower"),
    m("etl.batch.apps_us_per_job", "us", "lower"),
    m("sparklet.import.parallel_gain", "ratio", "higher"),
    m("etl.batch.unexplained_share", "ratio", "lower"),
    m("logbus.produce_us_per_kline", "us", "lower"),
    m("logbus.poll_us_per_kline", "us", "lower"),
    m("sparklet.streaming.batch_us_per_kline", "us", "lower"),
    m("etl.stream.step_us_per_kline", "us", "lower"),
    m("etl.stream.store_us_per_kevent", "us", "lower"),
    m("etl.stream.coalesce_ratio", "ratio", "lower"),
    m("etl.stream.quiet_step_us", "us", "lower"),
    m("etl.stream.late_drops", "count", "lower"),
    m("etl.stream.retries", "count", "lower"),
    m("etl.stream.dlq_events", "count", "lower"),
    m("rasdb.read.read_multi_us_per_plan", "us", "lower"),
    m("rasdb.read.rows_per_plan", "count", "lower"),
    m("rasdb.read.sstable_probes_per_read", "ratio", "lower"),
    m("rasdb.read.bloom_skips", "count", "higher"),
    m("rasdb.cache.block.hit_ratio", "ratio", "higher"),
    m("columnar.build_us_per_krow", "us", "lower"),
    m("columnar.store.hit_ratio", "ratio", "higher"),
    m("columnar.store.evictions", "count", "lower"),
    m("columnar.bytes_resident", "bytes", "lower"),
    m("columnar.scan_window_us", "us", "lower"),
    m("analytics.heatmap_us", "us", "lower"),
    m("analytics.distribution_us", "us", "lower"),
    m("analytics.histogram_us", "us", "lower"),
    m("analytics.wordcount_us", "us", "lower"),
    m("analytics.transfer_entropy_us", "us", "lower"),
    m("server.engine.miss_us_p50", "us", "lower"),
    m("server.engine.hit_us_p50", "us", "lower"),
    m("server.engine.overhead_us", "us", "lower"),
    m("server.cache.result.hit_ratio", "ratio", "higher"),
    m("server.cache.result.invalidations", "count", "lower"),
    m("server.http.roundtrip_overhead_us_p50", "us", "lower"),
    m("jsonlite.parse_us_per_request", "us", "lower"),
    m("jsonlite.encode_us_per_kib", "us", "lower"),
    m("sparklet.rdd.open_hour_scan_us", "us", "lower"),
    m("setup.loggen_s", "s", "lower"),
    m("setup.framework_new_s", "s", "lower"),
    m("setup.seed_import_s", "s", "lower"),
    m("setup.prime_s", "s", "lower"),
    m("setup.warmup_round_s", "s", "lower"),
    m("trace.overhead_share", "ratio", "lower"),
];

/// Counts operations attempted and failed. Every timed call and every
/// ground-truth check is one operation; a failed check or a response that
/// is not `ok` is a failed operation.
#[derive(Debug, Default)]
pub struct Checker {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checker {
    /// Most failure descriptions kept for printing.
    const MAX_NOTES: usize = 12;

    /// Records one operation; `what` is evaluated only on failure.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < Self::MAX_NOTES {
                self.notes.push(what());
            }
        }
    }

    /// Records `n` operations that succeeded.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Operations recorded so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Descriptions of the first failures.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// Metric values of one run, keyed by catalogue name.
pub type Values = BTreeMap<&'static str, f64>;

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`, the metrics being every entry of `catalogue`
/// in order. A value missing from `values` reads 0 (a layer the workload
/// does not exercise); `None` when a value is not a finite number.
pub fn result_line(catalogue: &[MetricDef], values: &Values, checks: &Checker) -> Option<String> {
    let mut metrics = Vec::with_capacity(catalogue.len());
    for def in catalogue {
        let v = values.get(def.name).copied().unwrap_or(0.0);
        if !v.is_finite() {
            return None;
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            def.name, def.unit
        ));
    }
    Some(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed() == 0,
        checks.attempted().max(1),
        checks.failed(),
        metrics.join(", ")
    ))
}

/// Prints every metric of `catalogue` by name with its unit.
pub fn print_metrics(catalogue: &[MetricDef], values: &Values) {
    for def in catalogue {
        match values.get(def.name) {
            Some(v) => println!("  {:<42} {:>16.4} {}", def.name, v, def.unit),
            None => println!("  {:<42} {:>16} {}", def.name, "-", def.unit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys_in_catalogue_order() {
        let mut values = Values::new();
        values.insert("latency_p50_ms", 1.2034);
        values.insert("throughput_per_s", 27000.5);
        let mut checks = Checker::default();
        checks.passed(10);
        let line = result_line(&END_TO_END[..2], &values, &checks).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"throughput_per_s\": {\"value\": 27000.5, \"unit\": \"1/s\"}, \
             \"latency_p50_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}}}"
        );
        let parsed = jsonlite::parse(&line).unwrap();
        assert_eq!(
            parsed["metrics"]["latency_p50_ms"]["value"].as_f64(),
            Some(1.2034)
        );
    }

    #[test]
    fn failed_checks_make_the_run_incorrect_and_nan_is_refused() {
        let mut checks = Checker::default();
        checks.op(true, || unreachable!());
        checks.op(false, || "heatmap total 3 != truth 4".to_owned());
        assert_eq!((checks.attempted(), checks.failed()), (2, 1));
        assert_eq!(checks.notes(), ["heatmap total 3 != truth 4"]);
        let line = result_line(&[], &Values::new(), &checks).unwrap();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
        let mut values = Values::new();
        values.insert("setup_s", f64::NAN);
        assert!(result_line(END_TO_END, &values, &checks).is_none());
    }

    /// `BENCHMARK.json` must list exactly this catalogue.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = jsonlite::parse(&text).expect("valid JSON");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = json[key].as_array().expect("metric list");
            let listed: Vec<(&str, &str, &str)> = listed
                .iter()
                .map(|e| {
                    (
                        e["name"].as_str().unwrap(),
                        e["unit"].as_str().unwrap(),
                        e["better"].as_str().unwrap(),
                    )
                })
                .collect();
            let ours: Vec<(&str, &str, &str)> = catalogue
                .iter()
                .map(|d| (d.name, d.unit, d.better))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let workloads: Vec<&str> = json["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
        // The repeat check gates on the bounds the driver gates on.
        let bounds: Vec<(&str, f64)> = json["end_to_end"]
            .as_array()
            .unwrap()
            .iter()
            .map(|e| (e["name"].as_str().unwrap(), e["bound"].as_f64().unwrap()))
            .collect();
        assert_eq!(bounds, crate::repeat::BOUNDS);
    }
}
