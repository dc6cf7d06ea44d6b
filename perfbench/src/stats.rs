//! Round statistics: percentiles of the timed calls of one round, medians
//! across rounds, and the runner that fits rounds into the measuring time.
//!
//! Same-binary runs on a shared two-core machine swing by up to 20% in
//! wall time for tens of seconds at a stretch, so no metric here is a
//! single reading: a workload is a sequence of identical rounds, the first
//! is warm-up, and every reported number is a median over the measured
//! rounds (or, for workloads with few calls per round, a percentile over
//! the calls of all measured rounds pooled). Slower drift, over minutes,
//! is taken out by scaling every round's times with the machine speed its
//! reference chunks measured (see [`crate::reference`]).

use crate::reference::SpeedMeter;
use std::time::Instant;

/// Fewest timed calls a p95 is read from: it leaves ten samples beyond it.
pub const MIN_TAIL_SAMPLES: usize = 200;

/// Fewest measured rounds a run reports from.
pub const MIN_ROUNDS: usize = 3;

/// Nearest-rank percentile (`0 < p <= 1`) of an ascending slice; `None`
/// when the slice is empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The p95, refused (`None`) when fewer than [`MIN_TAIL_SAMPLES`] calls
/// back it: with 199 calls fewer than ten lie beyond the 95th percentile
/// and the "tail" is a handful of outliers.
pub fn tail_p95(sorted: &[f64]) -> Option<f64> {
    if sorted.len() < MIN_TAIL_SAMPLES {
        return None;
    }
    percentile(sorted, 0.95)
}

/// Median of unordered values (mean of the two middle ones for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// What one round measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Wall time of the round, first timed call to last, without the
    /// reference chunks, in seconds.
    pub wall_s: f64,
    /// Work items the round completed.
    pub items: u64,
    /// Duration of every timed call, in milliseconds, in call order.
    pub call_ms: Vec<f64>,
    /// The reference chunks run between the round's calls.
    pub meter: SpeedMeter,
}

impl Round {
    /// A round of `items` work items that has measured nothing yet.
    pub fn of(items: u64) -> Round {
        Round {
            items,
            ..Round::default()
        }
    }

    /// Runs one reference chunk; call it between timed calls.
    pub fn reference(&mut self) {
        self.meter.tick();
    }

    /// Ends the round that began at `started`.
    pub fn finish(&mut self, started: Instant) {
        self.wall_s = started.elapsed().as_secs_f64() - self.meter.secs();
    }

    /// Factor that turns this round's measured times into times on the
    /// nominal machine (`1.0` when not `scaled`).
    fn factor(&self, scaled: bool) -> f64 {
        if scaled {
            self.meter.scale()
        } else {
            1.0
        }
    }
}

/// The three timing metrics every workload reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Median over rounds of items ÷ round wall time.
    pub throughput_per_s: f64,
    /// Median call time.
    pub latency_p50_ms: f64,
    /// p95 call time; `None` when refused (see [`tail_p95`]).
    pub latency_tail_ms: Option<f64>,
    /// Measured rounds behind the numbers.
    pub rounds: usize,
    /// Timed calls each percentile was read from.
    pub calls_per_percentile: usize,
}

/// Reduces measured rounds to the reported metrics. With `pool_calls` the
/// calls of all rounds are pooled before the percentiles are taken (for
/// workloads with too few calls per round for a tail); otherwise each
/// round yields its own p50/p95 and the medians across rounds are
/// reported. With `scaled` every round's times are first scaled by the
/// machine speed its reference chunks measured.
pub fn summarize(rounds: &[Round], pool_calls: bool, scaled: bool) -> Option<Summary> {
    let throughput: Vec<f64> = rounds
        .iter()
        .map(|r| r.items as f64 / (r.wall_s * r.factor(scaled)))
        .collect();
    let sorted_calls = |r: &Round| {
        let f = r.factor(scaled);
        let mut calls: Vec<f64> = r.call_ms.iter().map(|ms| ms * f).collect();
        calls.sort_by(f64::total_cmp);
        calls
    };
    let (p50, tail, calls) = if pool_calls {
        let mut all: Vec<f64> = rounds.iter().flat_map(sorted_calls).collect();
        all.sort_by(f64::total_cmp);
        (percentile(&all, 0.5)?, tail_p95(&all), all.len())
    } else {
        let mut p50s = Vec::new();
        let mut tails = Vec::new();
        let mut calls = usize::MAX;
        for r in rounds {
            let c = sorted_calls(r);
            p50s.push(percentile(&c, 0.5)?);
            tails.extend(tail_p95(&c));
            calls = calls.min(c.len());
        }
        // A tail is reported only when every round could back one.
        let tail = (tails.len() == rounds.len())
            .then(|| median(&tails))
            .flatten();
        (median(&p50s)?, tail, calls)
    };
    Some(Summary {
        throughput_per_s: median(&throughput)?,
        latency_p50_ms: p50,
        latency_tail_ms: tail,
        rounds: rounds.len(),
        calls_per_percentile: calls,
    })
}

/// Runs measured rounds while the next one is expected to end within
/// `seconds` (judging by the mean of those run so far), but at least
/// `min_rounds` and at most `max_rounds`. Rounds are numbered from
/// `first_index`.
pub fn run_rounds(
    seconds: f64,
    min_rounds: usize,
    max_rounds: usize,
    first_index: usize,
    mut round: impl FnMut(usize) -> Round,
) -> Vec<Round> {
    let mut measured: Vec<Round> = Vec::new();
    let started = Instant::now();
    loop {
        let n = measured.len();
        let elapsed = started.elapsed().as_secs_f64();
        let fits = n == 0 || elapsed + elapsed / n as f64 <= seconds;
        if n >= max_rounds || (n >= min_rounds && !fits) {
            return measured;
        }
        measured.push(round(first_index + n));
    }
}

/// Peak resident set size of this process in MiB (`VmHWM` of
/// `/proc/self/status`); `None` off Linux.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_on_known_vectors() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.95), Some(95.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 0.5), Some(7.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), Some(2.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_even_and_odd_round_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[5.0]), Some(5.0));
        assert_eq!(median(&[]), None);
    }

    fn round_of(calls: usize) -> Round {
        Round {
            wall_s: 2.0,
            call_ms: (1..=calls).map(|i| i as f64).collect(),
            ..Round::of(calls as u64)
        }
    }

    #[test]
    fn a_199_call_round_refuses_to_report_p95() {
        let short = summarize(&[round_of(199)], false, false).unwrap();
        assert_eq!(short.latency_tail_ms, None);
        assert_eq!(short.latency_p50_ms, 100.0);
        let enough = summarize(&[round_of(200)], false, false).unwrap();
        assert_eq!(enough.latency_tail_ms, Some(190.0));
        // One short round among long ones still refuses.
        assert_eq!(
            summarize(&[round_of(200), round_of(199)], false, false)
                .unwrap()
                .latency_tail_ms,
            None
        );
    }

    #[test]
    fn pooling_backs_a_tail_that_single_rounds_cannot() {
        let rounds = [round_of(64), round_of(64), round_of(64), round_of(64)];
        assert_eq!(
            summarize(&rounds, false, false).unwrap().latency_tail_ms,
            None
        );
        let pooled = summarize(&rounds, true, false).unwrap();
        assert_eq!(pooled.calls_per_percentile, 256);
        assert_eq!(pooled.latency_tail_ms, Some(61.0));
        assert_eq!(pooled.throughput_per_s, 32.0);
    }

    #[test]
    fn scaling_turns_measured_times_into_nominal_machine_times() {
        use crate::reference::NOMINAL_CHUNK_S;
        // A slow machine: chunks take twice their nominal time.
        let mut slow = round_of(200);
        slow.meter.add(10, 20.0 * NOMINAL_CHUNK_S);
        let f = slow.meter.scale();
        assert!(f < 0.5, "the program slows down more than the chunks");
        let raw = summarize(std::slice::from_ref(&slow), false, false).unwrap();
        let scaled = summarize(std::slice::from_ref(&slow), false, true).unwrap();
        assert_eq!(raw.throughput_per_s, 100.0);
        assert_eq!(scaled.throughput_per_s, 200.0 / (2.0 * f));
        assert_eq!(scaled.latency_p50_ms, raw.latency_p50_ms * f);
        assert_eq!(scaled.latency_tail_ms, Some(190.0 * f));
        // Pooled calls are scaled round by round before they are pooled:
        // the slow round's 200 scaled calls all lie below 190 * f < 95.
        let pooled = summarize(&[slow, round_of(200)], true, true).unwrap();
        assert_eq!(pooled.latency_tail_ms, Some(180.0));
    }

    #[test]
    fn round_runner_honours_its_bounds() {
        let mut seen = Vec::new();
        let measured = run_rounds(0.0, 3, 8, 1, |i| {
            seen.push(i);
            round_of(i)
        });
        assert_eq!(seen, vec![1, 2, 3]);
        assert_eq!(measured.len(), 3);
        // A long budget stops at the cap; a zero minimum still runs one.
        assert_eq!(run_rounds(1e9, 3, 5, 0, round_of).len(), 5);
        assert_eq!(run_rounds(0.0, 0, 5, 0, round_of).len(), 1);
    }

    #[test]
    fn vm_hwm_line_parses() {
        let status = "Name:\tx\nVmPeak:\t  10 kB\nVmHWM:\t  2048 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(2048));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }
}
