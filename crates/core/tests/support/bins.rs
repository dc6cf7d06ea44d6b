//! The row-side reference binner for `hpclog_core::analytics::bin_scan`.
//!
//! The library bins column blocks; this bins the decoded rows a window read
//! returns, one event at a time, so the two can be compared bit for bit.

use hpclog_core::model::event::EventRecord;

/// Bins events into fixed windows over `[from_ms, to_ms)`, summing
/// amounts; events outside the window are ignored and a partial last bin
/// is kept.
pub fn bin_counts(events: &[EventRecord], from_ms: i64, to_ms: i64, bin_ms: i64) -> Vec<f64> {
    assert!(bin_ms > 0, "bin width must be positive");
    let nbins = ((to_ms - from_ms).max(0) as usize).div_ceil(bin_ms as usize);
    let mut bins = vec![0.0f64; nbins];
    for e in events {
        if e.ts_ms < from_ms || e.ts_ms >= to_ms {
            continue;
        }
        let idx = ((e.ts_ms - from_ms) / bin_ms) as usize;
        bins[idx] += e.amount as f64;
    }
    bins
}

mod tests {
    use super::*;

    fn ev(ts: i64, amount: i32) -> EventRecord {
        EventRecord {
            ts_ms: ts,
            event_type: "MCE".into(),
            source: "n".into(),
            amount,
            raw: "".into(),
        }
    }

    #[test]
    fn binning_sums_amounts_per_window() {
        let events = vec![ev(0, 1), ev(500, 2), ev(1000, 1), ev(2999, 1)];
        let bins = bin_counts(&events, 0, 3000, 1000);
        assert_eq!(bins, vec![3.0, 1.0, 1.0]);
    }

    #[test]
    fn out_of_window_events_ignored() {
        let events = vec![ev(-5, 1), ev(3000, 1), ev(1500, 1)];
        let bins = bin_counts(&events, 0, 3000, 1000);
        assert_eq!(bins, vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn partial_last_bin_included() {
        let bins = bin_counts(&[ev(2400, 1)], 0, 2500, 1000);
        assert_eq!(bins.len(), 3);
        assert_eq!(bins[2], 1.0);
    }

    #[test]
    fn empty_window_yields_no_bins() {
        assert!(bin_counts(&[], 100, 100, 1000).is_empty());
    }
}
