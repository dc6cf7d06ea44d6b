//! Micro-batch streaming with event-time windows and coalescing.
//!
//! The paper's real-time ingestion path sets "the time window of the Spark
//! streaming ... to one second" and coalesces "event occurrences of the
//! same type and same location ... into a single event if they are
//! timestamped the same". [`MicroBatcher`] implements the windowing;
//! [`coalesce`] implements the merge rule.

use std::collections::BTreeMap;
use std::hash::Hash;

/// Groups timestamped items into fixed event-time windows.
///
/// Items may arrive out of order; a window is emitted once the watermark
/// (largest timestamp seen, minus the allowed lateness) passes its end.
/// Every window is `window_ms` wide however many items are buffered; after
/// [`MicroBatcher::drain_ready`] the buffer holds at most the last
/// `allowed_lateness_ms + window_ms` of event time.
#[derive(Debug)]
pub struct MicroBatcher<T> {
    window_ms: i64,
    allowed_lateness_ms: i64,
    buckets: BTreeMap<i64, Vec<T>>,
    watermark: i64,
    late_drops: u64,
}

impl<T> MicroBatcher<T> {
    /// Creates a batcher with `window_ms` windows (the paper's streaming
    /// mode uses 1000 ms) and no allowed lateness.
    pub fn new(window_ms: i64) -> MicroBatcher<T> {
        MicroBatcher::with_lateness(window_ms, 0)
    }

    /// Creates a batcher that tolerates out-of-order arrivals up to
    /// `allowed_lateness_ms` behind the watermark.
    pub fn with_lateness(window_ms: i64, allowed_lateness_ms: i64) -> MicroBatcher<T> {
        MicroBatcher {
            window_ms: window_ms.max(1),
            allowed_lateness_ms: allowed_lateness_ms.max(0),
            buckets: BTreeMap::new(),
            watermark: i64::MIN,
            late_drops: 0,
        }
    }

    /// Advances the watermark without feeding an item. Used to seed a fresh
    /// batcher from a checkpointed watermark so that replayed records whose
    /// windows were already flushed are dropped as late rather than
    /// re-emitted as partial windows.
    pub fn advance_watermark(&mut self, ts_ms: i64) {
        self.watermark = self.watermark.max(ts_ms);
    }

    /// The event-time watermark: the largest timestamp accepted or passed
    /// to [`MicroBatcher::advance_watermark`], `i64::MIN` before either.
    pub fn watermark(&self) -> i64 {
        self.watermark
    }

    /// Window start for a timestamp.
    pub fn window_of(&self, ts_ms: i64) -> i64 {
        ts_ms.div_euclid(self.window_ms) * self.window_ms
    }

    /// Feeds one item; returns `false` when it was dropped as too late.
    pub fn feed(&mut self, ts_ms: i64, item: T) -> bool {
        let window = self.window_of(ts_ms);
        if self.watermark != i64::MIN
            && window + self.window_ms + self.allowed_lateness_ms <= self.watermark
        {
            self.late_drops += 1;
            return false;
        }
        self.watermark = self.watermark.max(ts_ms);
        self.buckets.entry(window).or_default().push(item);
        true
    }

    /// Emits every window whose end (plus lateness) is at or before the
    /// current watermark, in window order.
    pub fn drain_ready(&mut self) -> Vec<(i64, Vec<T>)> {
        if self.watermark == i64::MIN {
            return Vec::new();
        }
        // Window `w` is ready when `w + window_ms <= watermark - lateness`.
        let first_open = self.watermark - self.allowed_lateness_ms - self.window_ms + 1;
        let open = self.buckets.split_off(&first_open);
        std::mem::replace(&mut self.buckets, open)
            .into_iter()
            .collect()
    }

    /// Emits everything regardless of watermark (end of stream).
    pub fn drain_all(&mut self) -> Vec<(i64, Vec<T>)> {
        std::mem::take(&mut self.buckets).into_iter().collect()
    }

    /// Items dropped for arriving behind the watermark.
    pub fn late_drops(&self) -> u64 {
        self.late_drops
    }

    /// Items currently buffered.
    pub fn buffered(&self) -> usize {
        self.buckets.values().map(Vec::len).sum()
    }
}

/// Coalesces a batch: items with equal keys merge into one via `merge`
/// (e.g. summing occurrence counts). Output is ordered by key.
pub fn coalesce<T, K: Eq + Hash + Ord>(
    batch: Vec<T>,
    key_of: impl Fn(&T) -> K,
    merge: impl Fn(&mut T, T),
) -> Vec<T> {
    let mut groups: BTreeMap<K, T> = BTreeMap::new();
    for item in batch {
        let key = key_of(&item);
        match groups.get_mut(&key) {
            None => {
                groups.insert(key, item);
            }
            Some(existing) => merge(existing, item),
        }
    }
    groups.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Ev {
        ts: i64,
        node: &'static str,
        count: u32,
    }

    #[test]
    fn windows_assign_by_event_time() {
        let b: MicroBatcher<()> = MicroBatcher::new(1000);
        assert_eq!(b.window_of(0), 0);
        assert_eq!(b.window_of(999), 0);
        assert_eq!(b.window_of(1000), 1000);
        assert_eq!(b.window_of(-1), -1000);
    }

    #[test]
    fn drain_ready_respects_watermark() {
        let mut b = MicroBatcher::new(1000);
        b.feed(100, "a");
        b.feed(900, "b");
        assert!(b.drain_ready().is_empty(), "window 0 still open");
        b.feed(1000, "c");
        let ready = b.drain_ready();
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0], (0, vec!["a", "b"]));
        assert_eq!(b.buffered(), 1);
    }

    #[test]
    fn out_of_order_within_open_window_is_kept() {
        let mut b = MicroBatcher::new(1000);
        b.feed(950, "late-but-ok");
        b.feed(100, "earlier");
        let mut all = b.drain_all();
        assert_eq!(all.len(), 1);
        all[0].1.sort();
        assert_eq!(all[0].1, vec!["earlier", "late-but-ok"]);
    }

    #[test]
    fn too_late_items_are_dropped_and_counted() {
        let mut b = MicroBatcher::new(1000);
        b.feed(2500, "advances watermark");
        assert!(!b.feed(100, "ancient"));
        assert_eq!(b.late_drops(), 1);
        // With lateness allowance the same item survives.
        let mut b = MicroBatcher::with_lateness(1000, 2000);
        b.feed(2500, "x");
        assert!(b.feed(100, "still ok"));
        assert_eq!(b.late_drops(), 0);
    }

    #[test]
    fn drain_all_flushes_everything_in_order() {
        let mut b = MicroBatcher::with_lateness(1000, 10_000);
        for ts in [5000, 1000, 3000] {
            b.feed(ts, ts);
        }
        let windows: Vec<i64> = b.drain_all().into_iter().map(|(w, _)| w).collect();
        assert_eq!(windows, vec![1000, 3000, 5000]);
        assert_eq!(b.buffered(), 0);
    }

    #[test]
    fn coalesce_merges_same_second_same_node() {
        // The paper's rule: same type+location+second becomes one event.
        let batch = vec![
            Ev {
                ts: 1000,
                node: "c0-0c0s0n0",
                count: 1,
            },
            Ev {
                ts: 1000,
                node: "c0-0c0s0n0",
                count: 1,
            },
            Ev {
                ts: 1000,
                node: "c1-0c0s0n1",
                count: 1,
            },
            Ev {
                ts: 1001,
                node: "c0-0c0s0n0",
                count: 1,
            },
        ];
        let merged = coalesce(batch, |e| (e.ts, e.node), |a, b| a.count += b.count);
        assert_eq!(merged.len(), 3);
        let big = merged
            .iter()
            .find(|e| e.ts == 1000 && e.node == "c0-0c0s0n0")
            .unwrap();
        assert_eq!(big.count, 2);
    }

    #[test]
    fn coalesce_preserves_total_count() {
        let batch: Vec<Ev> = (0..100)
            .map(|i| Ev {
                ts: i % 7,
                node: "n",
                count: 1,
            })
            .collect();
        let merged = coalesce(batch, |e| e.ts, |a, b| a.count += b.count);
        assert_eq!(merged.iter().map(|e| e.count).sum::<u32>(), 100);
        assert_eq!(merged.len(), 7);
    }

    #[test]
    fn seeded_watermark_suppresses_replayed_windows() {
        let mut b = MicroBatcher::new(1000);
        b.advance_watermark(5000);
        // A record from an already-flushed window is late, not re-buffered.
        assert!(!b.feed(1500, "replayed"));
        assert_eq!(b.late_drops(), 1);
        // Fresh data at/after the watermark flows normally.
        assert!(b.feed(5200, "live"));
    }

    #[test]
    fn empty_batcher_behaves() {
        let mut b: MicroBatcher<()> = MicroBatcher::new(1000);
        assert!(b.drain_ready().is_empty());
        assert!(b.drain_all().is_empty());
        assert_eq!(b.buffered(), 0);
    }
}
