//! Always-on slow-query flight recorder.
//!
//! Every completed request's coarse profile (total latency + per-phase
//! breakdown, see [`crate::server::engine`]) is offered to the recorder;
//! those at or above the configured latency threshold are kept in a
//! bounded ring. Unlike opt-in `"profile": true` requests, nothing has to
//! be decided *before* the slow request happens — the recorder is how a
//! p99 spike seen on `/metrics` (via its exemplar trace id) resolves to a
//! concrete profile after the fact.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use telemetry::{Counter, Registry};

/// Completed profiles retained; older ones fall off.
pub const FLIGHT_RECORDER_CAPACITY: usize = 128;

/// Default capture threshold in milliseconds.
pub const DEFAULT_SLOW_THRESHOLD_MS: u64 = 100;

/// One recorded request profile.
#[derive(Clone, Debug)]
pub struct RecordedQuery {
    /// The request's trace id (raw form; render with [`telemetry::trace_hex`]).
    pub trace_id: u64,
    /// The op, or `""` when the request failed before parsing one.
    pub op: String,
    /// `"ok"` or `"error"`.
    pub status: &'static str,
    /// End-to-end latency in microseconds.
    pub total_us: f64,
    /// Per-phase breakdown in microseconds, in pipeline order.
    pub phases: Vec<(&'static str, f64)>,
    /// Whether the request also asked for a detailed `"profile": true`.
    pub profiled: bool,
}

/// Bounded ring of slow-request profiles.
pub struct FlightRecorder {
    ring: Mutex<VecDeque<RecordedQuery>>,
    threshold_us: AtomicU64,
    captured: Arc<Counter>,
}

impl FlightRecorder {
    /// An empty recorder at the default threshold, counting its captures
    /// in `telemetry`'s `server.recorder.captured`.
    pub fn new(telemetry: &Registry) -> Self {
        FlightRecorder {
            ring: Mutex::new(VecDeque::with_capacity(FLIGHT_RECORDER_CAPACITY)),
            threshold_us: AtomicU64::new(DEFAULT_SLOW_THRESHOLD_MS * 1_000),
            captured: telemetry.counter("server.recorder.captured"),
        }
    }

    /// The capture threshold in milliseconds.
    pub fn threshold_ms(&self) -> u64 {
        self.threshold_us.load(Ordering::Relaxed) / 1_000
    }

    /// Replaces the capture threshold (0 records every request).
    pub fn set_threshold_ms(&self, ms: u64) {
        self.threshold_us
            .store(ms.saturating_mul(1_000), Ordering::Relaxed);
    }

    /// Offers one completed request; kept only when it is at or above the
    /// threshold. The fast path (below threshold) is one atomic load.
    pub fn observe(&self, rec: RecordedQuery) {
        if rec.total_us < self.threshold_us.load(Ordering::Relaxed) as f64 {
            return;
        }
        self.captured.incr(1);
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() >= FLIGHT_RECORDER_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(rec);
    }

    /// Recorded profiles, newest first.
    pub fn snapshot(&self) -> Vec<RecordedQuery> {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .rev()
            .cloned()
            .collect()
    }

    /// Recorded profiles currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(trace_id: u64, total_us: f64) -> RecordedQuery {
        RecordedQuery {
            trace_id,
            op: "events".to_owned(),
            status: "ok",
            total_us,
            phases: vec![("parse", 1.0), ("analyze", total_us - 1.0)],
            profiled: false,
        }
    }

    #[test]
    fn only_slow_requests_are_kept() {
        let r = FlightRecorder::new(&Registry::default());
        r.observe(rec(1, 50_000.0)); // 50 ms: under the 100 ms default
        assert!(r.is_empty());
        r.observe(rec(2, 250_000.0));
        assert_eq!(r.len(), 1);
        assert_eq!(r.snapshot()[0].trace_id, 2);
    }

    #[test]
    fn threshold_zero_records_everything_and_ring_is_bounded() {
        let r = FlightRecorder::new(&Registry::default());
        r.set_threshold_ms(0);
        assert_eq!(r.threshold_ms(), 0);
        for i in 0..(FLIGHT_RECORDER_CAPACITY as u64 + 10) {
            r.observe(rec(i, 1.0));
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), FLIGHT_RECORDER_CAPACITY);
        // Newest first; the oldest ten fell off.
        assert_eq!(snap[0].trace_id, FLIGHT_RECORDER_CAPACITY as u64 + 9);
        assert_eq!(snap.last().unwrap().trace_id, 10);
    }
}
