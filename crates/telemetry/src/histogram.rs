//! Lock-free log2-bucketed histogram.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: bucket `i` holds values whose floor(log2) + 1 == `i`
/// (bucket 0 is exactly the value 0), saturating at the last bucket.
pub const BUCKETS: usize = 64;

/// Concurrent histogram: every `record` is a handful of relaxed atomic RMW
/// operations, so writer threads never contend on a lock.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    /// Latest trace id observed per bucket (0 = none): the exemplar linking
    /// a latency bucket back to a concrete recorded request trace.
    exemplars: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// Point-in-time summary of a [`Histogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistogramSummary {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// `sum / count` (0.0 when empty).
    pub mean: f64,
    /// Estimated median (bucket upper bound).
    pub p50: u64,
    /// Estimated 95th percentile.
    pub p95: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
    /// Largest value recorded (exact).
    pub max: u64,
    /// Latest trace id seen in the p99 bucket (0 when none recorded).
    pub p99_exemplar: u64,
    /// Latest trace id seen in the bucket holding the max (0 when none).
    pub max_exemplar: u64,
}

/// Index of the bucket a value lands in: 0 for 0, else floor(log2(v)) + 1,
/// clamped to the last bucket (so `u64::MAX` is representable).
#[inline]
pub(crate) fn bucket_index(value: u64) -> usize {
    ((64 - value.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Upper bound of values in bucket `i` (inclusive), used as the reported
/// quantile estimate.
fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        i if i >= BUCKETS - 1 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// Records one observation (e.g. a latency in nanoseconds) and, when
    /// `trace` is set, stamps it as the latest exemplar of its bucket.
    pub fn record(&self, value: u64, trace: Option<u64>) {
        let bucket = bucket_index(value);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        if let Some(t) = trace {
            self.exemplars[bucket].store(t, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Estimate of the `q`-quantile (0.0..=1.0): the upper bound of the
    /// bucket where the cumulative count crosses `q * count`.
    pub fn quantile(&self, q: f64) -> u64 {
        match self.quantile_bucket(q) {
            Some(i) => bucket_upper_bound(i).min(self.max.load(Ordering::Relaxed)),
            None => self.max.load(Ordering::Relaxed),
        }
    }

    /// Index of the bucket where the cumulative count crosses `q * count`,
    /// or `None` when the histogram is empty.
    fn quantile_bucket(&self, q: f64) -> Option<usize> {
        let total = self.count();
        if total == 0 {
            return Some(0);
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(i);
            }
        }
        None
    }

    /// Latest exemplar trace id at or above `bucket` (0 when none): walks
    /// upward so a quantile bucket whose own exemplar was never stamped
    /// still links to the nearest slower recorded trace.
    fn exemplar_at_or_above(&self, bucket: usize) -> u64 {
        for e in &self.exemplars[bucket.min(BUCKETS - 1)..] {
            let t = e.load(Ordering::Relaxed);
            if t != 0 {
                return t;
            }
        }
        0
    }

    /// Point-in-time summary: count, sum, mean, and quantile estimates.
    pub fn summary(&self) -> HistogramSummary {
        let count = self.count();
        let sum = self.sum.load(Ordering::Relaxed);
        HistogramSummary {
            count,
            sum,
            mean: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            max: self.max.load(Ordering::Relaxed),
            p99_exemplar: self
                .quantile_bucket(0.99)
                .map_or(0, |b| self.exemplar_at_or_above(b)),
            max_exemplar: self.exemplar_at_or_above(bucket_index(self.max.load(Ordering::Relaxed))),
        }
    }

    /// Zeroes every bucket, exemplar, and counter.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        for e in &self.exemplars {
            e.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

impl Default for Histogram {
    /// An empty histogram.
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            exemplars: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Non-empty per-bucket exemplars as `(bucket_index, trace_id)` pairs.
    fn exemplars(h: &Histogram) -> Vec<(usize, u64)> {
        let stamped = h.exemplars.iter().map(|e| e.load(Ordering::Relaxed));
        stamped.enumerate().filter(|&(_, t)| t != 0).collect()
    }

    #[test]
    fn zero_lands_in_bucket_zero() {
        assert_eq!(bucket_index(0), 0);
        let h = Histogram::default();
        h.record(0, None);
        assert_eq!(h.count(), 1);
        let s = h.summary();
        assert_eq!((s.p50, s.max, s.sum), (0, 0, 0));
    }

    #[test]
    fn u64_max_saturates_into_last_bucket() {
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        let h = Histogram::default();
        h.record(u64::MAX, None);
        let s = h.summary();
        assert_eq!(s.count, 1);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.p99, u64::MAX);
    }

    #[test]
    fn bucket_boundaries_split_at_powers_of_two() {
        // 2^k is the first value of bucket k+1; 2^k - 1 the last of bucket k.
        for k in 1..63u32 {
            let v = 1u64 << k;
            assert_eq!(bucket_index(v), (k + 1) as usize, "2^{k}");
            assert_eq!(bucket_index(v - 1), k as usize, "2^{k}-1");
        }
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let h = Histogram::default();
        for _ in 0..99 {
            h.record(100, None); // bucket 7, upper bound 127
        }
        h.record(1_000_000, None); // lone outlier
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, 127);
        assert_eq!(s.p95, 127);
        assert_eq!(s.max, 1_000_000);
        // p99 rank is 99, still inside the 100-value bucket.
        assert_eq!(s.p99, 127);
        assert!((s.mean - 10_099.0).abs() < 1.0);
    }

    #[test]
    fn quantile_never_exceeds_observed_max() {
        let h = Histogram::default();
        h.record(5, None);
        assert_eq!(h.quantile(1.0), 5);
        assert_eq!(h.quantile(0.5), 5);
    }

    #[test]
    fn empty_histogram_summarizes_to_zeroes() {
        let s = Histogram::default().summary();
        assert_eq!(s, HistogramSummary::default());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Arc::new(Histogram::default());
        let threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        h.record(t * per_thread + i, None);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let s = h.summary();
        assert_eq!(s.count, threads * per_thread);
        assert_eq!(s.max, threads * per_thread - 1);
        let bucket_total: u64 = (0..BUCKETS)
            .map(|i| h.buckets[i].load(Ordering::Relaxed))
            .sum();
        assert_eq!(bucket_total, s.count);
    }

    #[test]
    fn exemplars_link_buckets_to_the_latest_trace() {
        let h = Histogram::default();
        for _ in 0..99 {
            h.record(100, Some(0xAAAA)); // bucket 7
        }
        h.record(1_000_000, Some(0xBBBB)); // slow outlier, bucket 20
        let s = h.summary();
        // p99 rank (99 of 100) still lands in the fast bucket.
        assert_eq!(s.p99_exemplar, 0xAAAA);
        assert_eq!(s.max_exemplar, 0xBBBB);
        h.record(1_000_000, None); // untraced: must not clobber the exemplar
        assert_eq!(h.summary().max_exemplar, 0xBBBB);
        assert_eq!(exemplars(&h), vec![(7, 0xAAAA), (20, 0xBBBB)]);
        // A newer trace in the same bucket replaces the exemplar.
        h.record(1_000_000, Some(0xCCCC));
        assert_eq!(h.summary().max_exemplar, 0xCCCC);
        h.reset();
        assert!(exemplars(&h).is_empty());
        assert_eq!(h.summary().p99_exemplar, 0);
    }
}
