//! Event histograms over time: the temporal map's bar view.

use crate::analytics::bin_scan;
use crate::framework::Framework;
use rasdb::error::DbError;

/// A binned event histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Window start (ms).
    pub from_ms: i64,
    /// Bin width (ms).
    pub bin_ms: i64,
    /// Counts per bin.
    pub bins: Vec<f64>,
}

impl Histogram {
    /// Start timestamp of bin `i`.
    pub fn bin_start(&self, i: usize) -> i64 {
        self.from_ms + i as i64 * self.bin_ms
    }

    /// The busiest bin `(index, count)`.
    pub fn peak(&self) -> Option<(usize, f64)> {
        self.bins
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, c)| (i, *c))
    }

    /// Total event mass.
    pub fn total(&self) -> f64 {
        self.bins.iter().sum()
    }
}

/// Histogram of one event type over `[from, to)` with `bin_ms` bins,
/// computed by a columnar window scan (each hour bins straight off its
/// block's timestamp/amount columns).
pub fn event_histogram(
    fw: &Framework,
    event_type: &str,
    from_ms: i64,
    to_ms: i64,
    bin_ms: i64,
) -> Result<Histogram, DbError> {
    let scan = fw.scan_window(event_type, from_ms, to_ms)?;
    Ok(Histogram {
        from_ms,
        bin_ms,
        bins: bin_scan(&scan, bin_ms),
    })
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

    #[test]
    fn histogram_bins_and_peak() {
        let fw = fw();
        for (ts, n) in [(0i64, 2), (HOUR_MS, 5), (2 * HOUR_MS, 1)] {
            for i in 0..n {
                fw.insert_event(&EventRecord {
                    ts_ms: ts + i * 60_000,
                    event_type: "MCE".into(),
                    source: "c0-0c0s0n0".into(),
                    amount: 1,
                    raw: "".into(),
                })
                .unwrap();
            }
        }
        let h = event_histogram(&fw, "MCE", 0, 3 * HOUR_MS, HOUR_MS).unwrap();
        assert_eq!(h.bins, vec![2.0, 5.0, 1.0]);
        assert_eq!(h.peak(), Some((1, 5.0)));
        assert_eq!(h.total(), 8.0);
        assert_eq!(h.bin_start(1), HOUR_MS);
    }

    #[test]
    fn empty_histogram() {
        let fw = fw();
        let h = event_histogram(&fw, "MCE", 0, HOUR_MS, 60_000).unwrap();
        assert_eq!(h.bins.len(), 60);
        assert_eq!(h.total(), 0.0);
        assert_eq!(h.peak().unwrap().1, 0.0);
    }
}
