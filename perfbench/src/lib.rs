//! The repository's benchmark: four closed-loop workloads over a synthetic
//! Titan day, driven by one caller through the program's public functions.
//!
//! * [`stats`] — round statistics and the round runner;
//! * [`reference`] — the machine-speed reference the times are scaled by;
//! * [`trace`] — the harness-side span recorder of the traced run;
//! * [`report`] — metric catalogue, operation accounting, result line;
//! * [`world`] — the fixed configuration and the seeded datasets;
//! * [`workloads`] — `import_day`, `stream_storm`, `dash_cold`, `dash_live`;
//! * [`repeat`] — the two-set repeatability check.
//!
//! `README.md` beside this crate's manifest defines the workloads and
//! metrics and records the baseline.

pub mod reference;
pub mod repeat;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
pub mod world;

use reference::SpeedMeter;
use report::{Checker, Values};
use stats::{median, run_rounds, summarize, Round, MIN_ROUNDS};
use std::time::Instant;
use trace::SpanRecorder;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["import_day", "stream_storm", "dash_cold", "dash_live"];

/// Command-line options of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed every dataset is generated from.
    pub seed: u64,
    /// Measured time the rounds are fitted into.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Small topology, two rounds, numbers not for comparison.
    pub smoke: bool,
    /// `Some(k)`: run the workload 2 × k times and compare the two sets.
    pub repeat_check: Option<usize>,
}

impl Options {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>
    /// [--smoke] [--repeat-check <k>]`.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut opts = Options {
            workload: String::new(),
            seed: 1977,
            seconds: 12.0,
            trace: false,
            smoke: false,
            repeat_check: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| format!("{flag} needs a value"))
                    .map(String::as_str)
            };
            let bad = |v: &str| format!("bad value '{v}' for {flag}");
            match flag.as_str() {
                "--workload" => opts.workload = value()?.to_owned(),
                "--seed" => opts.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
                "--seconds" => {
                    opts.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
                        return Err("--seconds must be positive".to_owned());
                    }
                }
                "--trace" => {
                    opts.trace = match value()? {
                        "0" => false,
                        "1" => true,
                        v => return Err(bad(v)),
                    }
                }
                "--smoke" => opts.smoke = true,
                "--repeat-check" => {
                    let k: usize = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                    if k == 0 {
                        return Err("--repeat-check needs k >= 1".to_owned());
                    }
                    opts.repeat_check = Some(k);
                }
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        if !WORKLOADS.contains(&opts.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                WORKLOADS.join(", ")
            ));
        }
        Ok(opts)
    }
}

/// How a workload's rounds are run and reduced.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Most measured rounds of one kind (traced or not).
    pub max_rounds: usize,
    /// Pool the calls of all rounds before taking percentiles, for a
    /// workload with too few calls per round for a tail.
    pub pool_calls: bool,
    /// Whether the median call is work. When it is a timer wait (the HTTP
    /// frontend's poller sleeping between scans) it does not get faster
    /// on a faster machine, and `latency_p50_ms` is reported as measured.
    pub median_call_is_work: bool,
}

/// The measured rounds of one run (the warm-up is discarded): those with
/// the recorder off, which the end-to-end metrics come from, and (traced
/// run only) those with it on.
#[derive(Debug, Default)]
pub struct Measured {
    /// Measured rounds with the recorder off.
    pub untraced: Vec<Round>,
    /// Measured rounds with the recorder on (empty unless `--trace 1`).
    pub traced: Vec<Round>,
}

/// State of one run: options, clocks, checks, spans and metric values.
pub struct Ctx {
    /// The parsed command line.
    pub opts: Options,
    /// Operations attempted and failed.
    pub checks: Checker,
    /// Span log of the traced run.
    pub rec: SpanRecorder,
    /// Metric values gathered so far.
    pub values: Values,
    started: Instant,
    /// Reference chunks run around the set-up stages.
    setup_meter: SpeedMeter,
    /// Reference chunks run while the per-layer times were taken: inside
    /// the traced rounds and between the probes that follow them.
    pub layer_meter: SpeedMeter,
}

impl Ctx {
    /// Starts the run's clock: `setup_s` counts from here.
    pub fn new(opts: Options) -> Ctx {
        Ctx {
            opts,
            checks: Checker::default(),
            rec: SpanRecorder::new(false),
            values: Values::new(),
            started: Instant::now(),
            setup_meter: SpeedMeter::default(),
            layer_meter: SpeedMeter::default(),
        }
    }

    /// Runs a set-up stage and adds its wall time to the `setup.*` metric
    /// `key`.
    pub fn stage<R>(&mut self, key: &'static str, f: impl FnOnce(&mut Ctx) -> R) -> R {
        self.setup_meter.tick();
        let t = Instant::now();
        let out = f(self);
        *self.values.entry(key).or_insert(0.0) += t.elapsed().as_secs_f64();
        self.setup_meter.tick();
        out
    }

    /// Runs the workload's rounds and derives the timing metrics.
    ///
    /// Round 0 is the warm-up and ends set-up: `setup_s` is the wall time
    /// from process start to the first measured call. An untraced run then
    /// measures at least [`MIN_ROUNDS`] rounds within `--seconds`; a traced
    /// run splits the time between rounds with the recorder off and on,
    /// and the ratio of their medians is `trace.overhead_share`. With
    /// `--smoke` one round of each kind runs. Every time is scaled to the
    /// nominal machine (see [`reference`]); the times as measured are
    /// printed beside them.
    pub fn measure(
        &mut self,
        plan: Plan,
        mut round: impl FnMut(&mut Ctx, usize) -> Round,
    ) -> Measured {
        let (min, max, seconds) = match (self.opts.smoke, self.opts.trace) {
            (true, _) => (1, 1, self.opts.seconds),
            (false, false) => (MIN_ROUNDS, plan.max_rounds, self.opts.seconds),
            (false, true) => (1, plan.max_rounds, self.opts.seconds / 2.0),
        };
        let warm_t = Instant::now();
        let warmup = round(self, 0);
        let warm_s = warm_t.elapsed().as_secs_f64() - warmup.meter.secs();
        self.values.insert("setup.warmup_round_s", warm_s);
        // Set-up ends here. Its speed is what the chunks around its stages
        // and inside the warm-up round measured.
        self.setup_meter.merge(warmup.meter);
        let setup_raw = self.started.elapsed().as_secs_f64() - self.setup_meter.secs();
        self.values
            .insert("setup_s", setup_raw * self.setup_meter.scale());
        println!(
            "set-up: {setup_raw:.3} s as measured, machine speed {:.3}",
            self.setup_meter.speed()
        );

        let untraced = run_rounds(seconds, min, max, 1, |i| round(self, i));
        let mut traced = Vec::new();
        if self.opts.trace {
            self.rec.set_enabled(true);
            traced = run_rounds(seconds, min, max, 1 + untraced.len(), |i| round(self, i));
            self.rec.set_enabled(false);
            for r in &traced {
                self.layer_meter.merge(r.meter);
            }
            let wall = |rs: &[Round]| {
                median(
                    &rs.iter()
                        .map(|r| r.wall_s * r.meter.scale())
                        .collect::<Vec<_>>(),
                )
            };
            if let (Some(on), Some(off)) = (wall(&traced), wall(&untraced)) {
                self.values.insert("trace.overhead_share", on / off - 1.0);
            }
        }
        for (kind, rounds) in [("measured", &untraced), ("traced", &traced)] {
            for r in rounds.iter() {
                println!(
                    "{kind} round: {:.3} s as measured, machine speed {:.3}",
                    r.wall_s,
                    r.meter.speed()
                );
            }
        }
        if let (Some(s), Some(raw)) = (
            summarize(&untraced, plan.pool_calls, true),
            summarize(&untraced, plan.pool_calls, false),
        ) {
            self.values.insert("throughput_per_s", s.throughput_per_s);
            let p50 = if plan.median_call_is_work { &s } else { &raw };
            self.values.insert("latency_p50_ms", p50.latency_p50_ms);
            self.values
                .extend(s.latency_tail_ms.map(|t| ("latency_tail_ms", t)));
            println!(
                "rounds: 1 warm-up + {} measured + {} traced; percentiles over {} calls",
                s.rounds,
                traced.len(),
                s.calls_per_percentile
            );
            println!(
                "as measured: throughput {:.4} 1/s, p50 {:.4} ms, p95 {} ms",
                raw.throughput_per_s,
                raw.latency_p50_ms,
                raw.latency_tail_ms
                    .map_or("-".to_owned(), |t| format!("{t:.4}"))
            );
        }
        Measured { untraced, traced }
    }

    /// Scales the per-layer times gathered so far to the nominal machine:
    /// the `setup.*` stages by the speed measured during set-up, every
    /// other time by the speed measured while the layers were timed.
    /// Counts and ratios stay, and so does the HTTP round-trip overhead,
    /// which is a timer wait.
    pub fn scale_layer_times(&mut self) {
        let (setup, layers) = (self.setup_meter.scale(), self.layer_meter.scale());
        println!("per-layer times: scaled by {layers:.3} (set-up stages by {setup:.3})");
        for def in report::PER_LAYER {
            let factor = match def.unit {
                "s" if def.name.starts_with("setup.") => setup,
                "us" if def.name != "server.http.roundtrip_overhead_us_p50" => layers,
                _ => continue,
            };
            if let Some(v) = self.values.get_mut(def.name) {
                *v *= factor;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let o = Options::parse(&args(
            "--workload dash_cold --seed 42 --seconds 15 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload, "dash_cold");
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.smoke),
            (42, 15.0, true, false)
        );
        let o = Options::parse(&args("--workload import_day --smoke --repeat-check 3")).unwrap();
        assert_eq!((o.smoke, o.repeat_check, o.trace), (true, Some(3), false));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload dash_cold --trace yes",
            "--workload dash_cold --seconds 0",
            "--workload dash_cold --seed",
            "--workload dash_cold --repeat-check 0",
            "--workload dash_cold --frobnicate",
        ] {
            assert!(Options::parse(&args(bad)).is_err(), "{bad}");
        }
    }

    const PLAN: Plan = Plan {
        max_rounds: 6,
        pool_calls: false,
        median_call_is_work: true,
    };

    fn fake_round(_: &mut Ctx, i: usize) -> Round {
        Round {
            wall_s: 1.0 + i as f64,
            call_ms: vec![1.0; 200],
            ..Round::of(10)
        }
    }

    #[test]
    fn untraced_measure_reports_medians_over_at_least_three_rounds() {
        let opts = Options::parse(&args("--workload dash_cold --seconds 0.000000000001")).unwrap();
        let mut ctx = Ctx::new(opts);
        let m = ctx.measure(PLAN, fake_round);
        assert_eq!((m.untraced.len(), m.traced.len()), (3, 0));
        // Rounds 1..=3 have walls 2, 3, 4: the median throughput is 10/3.
        assert_eq!(ctx.values["throughput_per_s"], 10.0 / 3.0);
        assert_eq!(ctx.values["latency_tail_ms"], 1.0);
        assert!(ctx.values["setup_s"] >= ctx.values["setup.warmup_round_s"]);
        assert!(!ctx.values.contains_key("trace.overhead_share"));
    }

    #[test]
    fn traced_measure_compares_recorder_on_with_off() {
        let opts = Options::parse(&args(
            "--workload dash_cold --seconds 0.000000000001 --trace 1",
        ))
        .unwrap();
        let mut ctx = Ctx::new(opts);
        let mut recording = Vec::new();
        let m = ctx.measure(PLAN, |ctx, i| {
            recording.push(ctx.rec.enabled());
            fake_round(ctx, i)
        });
        assert_eq!((m.untraced.len(), m.traced.len()), (1, 1));
        assert_eq!(recording, [false, false, true]);
        // Walls: untraced round 1 → 2 s, traced round 2 → 3 s.
        assert_eq!(ctx.values["trace.overhead_share"], 0.5);
        assert!(!ctx.rec.enabled());
    }
}
