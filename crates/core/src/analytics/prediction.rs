//! Failure prediction (paper §V future work + §IV: "models for failure
//! prediction ... leverage the spatial and temporal correlation between
//! historical failures, or trends of non-fatal events preceding failures").
//!
//! A naive-Bayes-style predictor over binned event streams: for a target
//! failure type, it learns per-precursor-type log-likelihood ratios of
//! "precursor active in the lead window" between windows that did and did
//! not precede a failure, then raises an alarm when the combined score
//! crosses a threshold. Evaluation reports precision/recall on a held-out
//! suffix of the data.

use crate::analytics::bin_scan;
use crate::framework::Framework;
use rasdb::error::DbError;
use std::collections::BTreeMap;

/// Predictor hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct PredictorConfig {
    /// Bin width for the event series.
    pub bin_ms: i64,
    /// How many bins of history feed one prediction.
    pub lead_bins: usize,
    /// How many bins ahead the prediction covers.
    pub horizon_bins: usize,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig {
            bin_ms: 60_000,
            lead_bins: 5,
            horizon_bins: 5,
        }
    }
}

/// A trained predictor for one target event type.
#[derive(Debug, Clone)]
pub struct FailurePredictor {
    /// Target event type.
    pub target: String,
    /// Per-precursor log-likelihood ratios for "active in lead window".
    pub weights: BTreeMap<String, f64>,
    /// Log prior odds of a failure horizon.
    pub prior: f64,
    /// Alarm threshold on the combined score (log-odds).
    pub threshold: f64,
    /// Hyper-parameters used at training time.
    pub config: PredictorConfig,
}

/// Precision/recall of a prediction run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// Alarms raised.
    pub alarms: usize,
    /// Alarms followed by the target within the horizon.
    pub hits: usize,
    /// Target occurrences covered by at least one alarm.
    pub caught: usize,
    /// Total target occurrences in the evaluation span.
    pub failures: usize,
    /// `hits / alarms`.
    pub precision: f64,
    /// `caught / failures`.
    pub recall: f64,
}

/// Binned per-type series over a common window.
pub type BinnedSeries = BTreeMap<String, Vec<f64>>;

/// Scans and bins every catalog type's column blocks over `[from, to)`.
pub fn binned_series(
    fw: &Framework,
    from_ms: i64,
    to_ms: i64,
    bin_ms: i64,
) -> Result<BinnedSeries, DbError> {
    let mut out = BTreeMap::new();
    for etype in loggen::events::EVENT_CATALOG {
        let scan = fw.scan_window(etype.name, from_ms, to_ms)?;
        out.insert(etype.name.to_owned(), bin_scan(&scan, bin_ms));
    }
    Ok(out)
}

/// Whether any bin of `series[t-lead..t]` is active.
fn lead_active(series: &[f64], t: usize, lead: usize) -> bool {
    let start = t.saturating_sub(lead);
    series[start..t].iter().any(|c| *c > 0.0)
}

/// Whether the target fires in `series[t..t+horizon]`.
fn horizon_hit(series: &[f64], t: usize, horizon: usize) -> bool {
    let end = (t + horizon).min(series.len());
    series[t..end].iter().any(|c| *c > 0.0)
}

impl FailurePredictor {
    /// Trains on binned series. Laplace smoothing keeps unseen
    /// combinations finite; precursor types equal to the target are
    /// excluded (no self-prediction).
    pub fn train(series: &BinnedSeries, target: &str, config: PredictorConfig) -> FailurePredictor {
        let target_series = series.get(target).cloned().unwrap_or_default();
        let n = target_series.len();
        let mut pos = 1.0f64; // smoothed window counts
        let mut neg = 1.0f64;
        let mut active_pos: BTreeMap<&str, f64> = BTreeMap::new();
        let mut active_neg: BTreeMap<&str, f64> = BTreeMap::new();
        for t in config.lead_bins..n.saturating_sub(config.horizon_bins) {
            let label = horizon_hit(&target_series, t, config.horizon_bins);
            if label {
                pos += 1.0;
            } else {
                neg += 1.0;
            }
            for (etype, s) in series {
                if etype == target {
                    continue;
                }
                if lead_active(s, t, config.lead_bins) {
                    if label {
                        *active_pos.entry(etype.as_str()).or_default() += 1.0;
                    } else {
                        *active_neg.entry(etype.as_str()).or_default() += 1.0;
                    }
                }
            }
        }
        let mut weights = BTreeMap::new();
        for etype in series.keys().filter(|t| *t != target) {
            let ap = active_pos.get(etype.as_str()).copied().unwrap_or(0.0);
            let an = active_neg.get(etype.as_str()).copied().unwrap_or(0.0);
            if ap + an == 0.0 {
                // Never active in training: no evidence either way, and it
                // can never fire at prediction time — weight 0, not the
                // smoothing artifact ln((neg+2)/(pos+2)).
                weights.insert(etype.clone(), 0.0);
                continue;
            }
            let p_active_pos = (ap + 1.0) / (pos + 2.0);
            let p_active_neg = (an + 1.0) / (neg + 2.0);
            weights.insert(etype.clone(), (p_active_pos / p_active_neg).ln());
        }
        let prior = (pos / neg).ln();
        FailurePredictor {
            target: target.to_owned(),
            weights,
            prior,
            // Alarm when evidence says "more likely than not".
            threshold: 0.0,
            config,
        }
    }

    /// Log-odds score for bin `t` of the given series.
    pub fn score(&self, series: &BinnedSeries, t: usize) -> f64 {
        let mut score = self.prior;
        for (etype, w) in &self.weights {
            if let Some(s) = series.get(etype) {
                if t <= s.len() && lead_active(s, t, self.config.lead_bins) {
                    score += w;
                }
            }
        }
        score
    }

    /// Runs the predictor over `[start_bin, end_bin)` and evaluates against
    /// the target's actual occurrences.
    pub fn evaluate(&self, series: &BinnedSeries, start_bin: usize, end_bin: usize) -> Metrics {
        let target = series.get(&self.target).cloned().unwrap_or_default();
        let end_bin = end_bin.min(target.len());
        let mut alarms = 0usize;
        let mut hits = 0usize;
        let mut covered = vec![false; target.len()];
        for t in start_bin.max(self.config.lead_bins)..end_bin {
            if self.score(series, t) > self.threshold {
                alarms += 1;
                if horizon_hit(&target, t, self.config.horizon_bins) {
                    hits += 1;
                    let hend = (t + self.config.horizon_bins).min(target.len());
                    for (i, cov) in covered.iter_mut().enumerate().take(hend).skip(t) {
                        if target[i] > 0.0 {
                            *cov = true;
                        }
                    }
                }
            }
        }
        let failure_bins: Vec<usize> = (start_bin..end_bin).filter(|t| target[*t] > 0.0).collect();
        let caught = failure_bins.iter().filter(|t| covered[**t]).count();
        let failures = failure_bins.len();
        Metrics {
            alarms,
            hits,
            caught,
            failures,
            precision: if alarms > 0 {
                hits as f64 / alarms as f64
            } else {
                0.0
            },
            recall: if failures > 0 {
                caught as f64 / failures as f64
            } else {
                0.0
            },
        }
    }
}

/// Convenience: train on the first `train_fraction` of `[from, to)` and
/// evaluate on the rest, straight from the store.
pub fn train_and_evaluate(
    fw: &Framework,
    target: &str,
    from_ms: i64,
    to_ms: i64,
    config: PredictorConfig,
    train_fraction: f64,
) -> Result<(FailurePredictor, Metrics), DbError> {
    let series = binned_series(fw, from_ms, to_ms, config.bin_ms)?;
    let nbins = series.values().next().map(|s| s.len()).unwrap_or(0);
    let split = ((nbins as f64) * train_fraction.clamp(0.1, 0.9)) as usize;
    let train_series: BinnedSeries = series
        .iter()
        .map(|(k, v)| (k.clone(), v[..split].to_vec()))
        .collect();
    let predictor = FailurePredictor::train(&train_series, target, config);
    let metrics = predictor.evaluate(&series, split, nbins);
    Ok((predictor, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic world: GPU_DBE fires randomly; GPU_OFF_BUS follows two
    /// bins after GPU_DBE with high probability; MEM_ECC is pure noise.
    fn world(n: usize) -> BinnedSeries {
        let mut state = 0xabcdefu64;
        let mut rand = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / u32::MAX as f64
        };
        let mut dbe = vec![0.0; n];
        let mut off_bus = vec![0.0; n];
        let mut noise = vec![0.0; n];
        for t in 0..n {
            if rand() < 0.08 {
                dbe[t] = 1.0;
                if t + 2 < n && rand() < 0.9 {
                    off_bus[t + 2] = 1.0;
                }
            }
            if rand() < 0.3 {
                noise[t] = 1.0;
            }
        }
        [
            ("GPU_DBE".to_owned(), dbe),
            ("GPU_OFF_BUS".to_owned(), off_bus),
            ("MEM_ECC".to_owned(), noise),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn precursor_gets_positive_weight_noise_near_zero() {
        let series = world(4000);
        let p = FailurePredictor::train(
            &series,
            "GPU_OFF_BUS",
            PredictorConfig {
                bin_ms: 60_000,
                lead_bins: 3,
                horizon_bins: 3,
            },
        );
        let w_dbe = p.weights["GPU_DBE"];
        let w_noise = p.weights["MEM_ECC"];
        assert!(w_dbe > 0.5, "precursor weight {w_dbe}");
        assert!(w_noise.abs() < 0.3, "noise weight {w_noise}");
    }

    #[test]
    fn predictor_beats_the_base_rate() {
        let series = world(6000);
        let cfg = PredictorConfig {
            bin_ms: 60_000,
            lead_bins: 3,
            horizon_bins: 3,
        };
        let train: BinnedSeries = series
            .iter()
            .map(|(k, v)| (k.clone(), v[..4000].to_vec()))
            .collect();
        let p = FailurePredictor::train(&train, "GPU_OFF_BUS", cfg);
        let m = p.evaluate(&series, 4000, 6000);
        assert!(m.failures > 20, "enough failures to judge: {}", m.failures);
        // Base rate of a horizon hit.
        let target = &series["GPU_OFF_BUS"];
        let base = (4000..6000)
            .filter(|t| horizon_hit(target, *t, cfg.horizon_bins))
            .count() as f64
            / 2000.0;
        assert!(
            m.precision > base * 1.5,
            "precision {} must beat base {base}",
            m.precision
        );
        assert!(m.recall > 0.5, "recall {}", m.recall);
    }

    #[test]
    fn empty_series_yield_empty_metrics() {
        let series: BinnedSeries = Default::default();
        let p = FailurePredictor::train(&series, "KERNEL_PANIC", PredictorConfig::default());
        let m = p.evaluate(&series, 0, 100);
        assert_eq!(m.failures, 0);
        assert_eq!(m.alarms, 0);
        assert_eq!(m.recall, 0.0);
    }

    #[test]
    fn lead_and_horizon_windows_are_exact() {
        let s = vec![0.0, 1.0, 0.0, 0.0];
        assert!(lead_active(&s, 2, 1)); // bin 1 active
        assert!(!lead_active(&s, 1, 1)); // bin 0 inactive
        assert!(lead_active(&s, 3, 2)); // bins 1..3 include bin 1
        assert!(!lead_active(&s, 0, 3)); // empty lead
        assert!(horizon_hit(&s, 1, 1));
        assert!(!horizon_hit(&s, 2, 2));
    }
}
