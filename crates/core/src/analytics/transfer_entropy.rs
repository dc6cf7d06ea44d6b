//! Transfer entropy between event-type time series (paper Fig 7, top):
//! "the investigation of correlation between two event occurrences within
//! a selected time interval, which can provide a causal relationship
//! between the two".
//!
//! `TE(X→Y) = Σ p(y′, y, x) · log2[ p(y′ | y, x) / p(y′ | y) ]`, estimated
//! over binarized, binned series with a configurable lag.

use crate::analytics::bin_scan;
use crate::framework::Framework;
use rasdb::error::DbError;

/// Transfer entropy in both directions at a fixed lag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TePair {
    /// TE(X→Y) in bits.
    pub x_to_y: f64,
    /// TE(Y→X) in bits.
    pub y_to_x: f64,
}

/// Estimates TE(X→Y) in bits over binary series; `lag` is how many bins
/// back the source is read. Series shorter than `lag + 2` yield 0.
pub fn transfer_entropy_binary(x: &[bool], y: &[bool], lag: usize) -> f64 {
    let lag = lag.max(1);
    let n = x.len().min(y.len());
    if n < lag + 1 {
        return 0.0;
    }
    // Joint counts over (y_next, y_prev, x_lagged).
    let mut joint = [[[0.0f64; 2]; 2]; 2];
    let mut total = 0.0;
    for t in lag..n {
        let yn = y[t] as usize;
        let yp = y[t - 1] as usize;
        let xl = x[t - lag] as usize;
        joint[yn][yp][xl] += 1.0;
        total += 1.0;
    }
    if total == 0.0 {
        return 0.0;
    }
    let mut te = 0.0;
    #[allow(clippy::needless_range_loop)] // 3-D joint indexing reads clearer
    for yn in 0..2 {
        for yp in 0..2 {
            for xl in 0..2 {
                let p_joint = joint[yn][yp][xl] / total;
                if p_joint <= 0.0 {
                    continue;
                }
                // Marginals.
                let p_yp_xl = (joint[0][yp][xl] + joint[1][yp][xl]) / total;
                let p_yp = (0..2)
                    .flat_map(|a| (0..2).map(move |b| (a, b)))
                    .map(|(a, b)| joint[a][yp][b])
                    .sum::<f64>()
                    / total;
                let p_yn_yp = (joint[yn][yp][0] + joint[yn][yp][1]) / total;
                let cond_full = p_joint / p_yp_xl;
                let cond_hist = p_yn_yp / p_yp;
                if cond_full > 0.0 && cond_hist > 0.0 {
                    te += p_joint * (cond_full / cond_hist).log2();
                }
            }
        }
    }
    te.max(0.0)
}

/// Binarizes a binned count series (any activity in the bin → true).
pub fn binarize(bins: &[f64]) -> Vec<bool> {
    bins.iter().map(|c| *c > 0.0).collect()
}

/// TE(X→Y) and TE(Y→X) as functions of lag (the Fig 7 curve).
pub fn te_lag_sweep(
    fw: &Framework,
    type_x: &str,
    type_y: &str,
    from_ms: i64,
    to_ms: i64,
    bin_ms: i64,
    max_lag: usize,
) -> Result<Vec<(usize, TePair)>, DbError> {
    let sx = fw.scan_window(type_x, from_ms, to_ms)?;
    let sy = fw.scan_window(type_y, from_ms, to_ms)?;
    let x = binarize(&bin_scan(&sx, bin_ms));
    let y = binarize(&bin_scan(&sy, bin_ms));
    Ok((1..=max_lag.max(1))
        .map(|lag| {
            (
                lag,
                TePair {
                    x_to_y: transfer_entropy_binary(&x, &y, lag),
                    y_to_x: transfer_entropy_binary(&y, &x, lag),
                },
            )
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// y copies x with a delay of `lag` bins.
    fn coupled(n: usize, lag: usize) -> (Vec<bool>, Vec<bool>) {
        // Deterministic pseudo-random driver series.
        let mut state = 0x12345678u64;
        let mut x = Vec::with_capacity(n);
        for _ in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x.push((state >> 62) & 1 == 1);
        }
        let y: Vec<bool> = (0..n)
            .map(|t| if t >= lag { x[t - lag] } else { false })
            .collect();
        (x, y)
    }

    #[test]
    fn directed_coupling_is_detected() {
        let (x, y) = coupled(4000, 1);
        let forward = transfer_entropy_binary(&x, &y, 1);
        let backward = transfer_entropy_binary(&y, &x, 1);
        assert!(forward > 0.5, "forward TE {forward}");
        assert!(forward > backward * 5.0, "fw={forward} bw={backward}");
    }

    #[test]
    fn te_peaks_at_the_true_lag() {
        let (x, y) = coupled(4000, 3);
        let te1 = transfer_entropy_binary(&x, &y, 1);
        let te3 = transfer_entropy_binary(&x, &y, 3);
        let te5 = transfer_entropy_binary(&x, &y, 5);
        assert!(te3 > te1 * 2.0, "te3={te3} te1={te1}");
        assert!(te3 > te5 * 2.0, "te3={te3} te5={te5}");
    }

    #[test]
    fn independent_series_have_near_zero_te() {
        let (x, _) = coupled(4000, 1);
        let mut state = 0x9abcdefu64;
        let z: Vec<bool> = (0..4000)
            .map(|_| {
                state = state
                    .wrapping_mul(2862933555777941757)
                    .wrapping_add(3037000493);
                (state >> 61) & 1 == 1
            })
            .collect();
        let te = transfer_entropy_binary(&x, &z, 1);
        assert!(te < 0.01, "te={te}");
    }

    #[test]
    fn degenerate_inputs_are_zero() {
        assert_eq!(transfer_entropy_binary(&[], &[], 1), 0.0);
        assert_eq!(transfer_entropy_binary(&[true], &[false], 1), 0.0);
        let constant = vec![true; 100];
        assert_eq!(transfer_entropy_binary(&constant, &constant, 1), 0.0);
    }

    #[test]
    fn binarize_thresholds_at_zero() {
        assert_eq!(
            binarize(&[0.0, 1.0, 0.5, 0.0]),
            vec![false, true, true, false]
        );
    }

    #[test]
    fn te_is_nonnegative_on_noise() {
        let (x, y) = coupled(500, 2);
        for lag in 1..6 {
            assert!(transfer_entropy_binary(&x, &y, lag) >= 0.0);
            assert!(transfer_entropy_binary(&y, &x, lag) >= 0.0);
        }
    }
}
