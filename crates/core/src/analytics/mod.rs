//! The analytics layer: everything the paper's big-data processing unit
//! computes for the frontend — heat maps, distributions, histograms,
//! correlation measures, transfer entropy, text analytics, and synopses.

pub mod composite;
pub mod correlation;
pub mod distribution;
pub mod heatmap;
pub mod histogram;
pub mod prediction;
pub mod profiles;
pub mod synopsis;
pub mod text;
pub mod transfer_entropy;

use crate::columnar::WindowScan;

/// Bins a window scan into fixed windows over `[scan.from_ms,
/// scan.to_ms)`, summing amounts: the shared preprocessing step for the
/// series analytics. Integer amounts summed into `f64` bins are exact
/// below 2^53, so cold and cached series agree byte-for-byte.
///
/// Each hour's block narrows to the in-window row range by binary search
/// on its sorted timestamp column.
pub fn bin_scan(scan: &WindowScan, bin_ms: i64) -> Vec<f64> {
    assert!(bin_ms > 0, "bin width must be positive");
    let (from_ms, to_ms) = (scan.from_ms, scan.to_ms);
    let nbins = ((to_ms - from_ms).max(0) as usize).div_ceil(bin_ms as usize);
    let mut bins = vec![0.0f64; nbins];
    for b in &scan.parts {
        for i in b.range(from_ms, to_ms) {
            bins[((b.ts[i] - from_ms) / bin_ms) as usize] += b.amounts[i] as f64;
        }
    }
    bins
}
