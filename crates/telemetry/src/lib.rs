//! `telemetry` — zero-dependency observability for the whole workspace.
//!
//! Three pieces:
//!
//! * **Metrics** — named [`Counter`]s and [`Gauge`]s in a [`Registry`] that
//!   one deployment owns (the framework creates it and hands it to each
//!   part, which resolves its handles once, where it is built), and
//!   log2-bucketed [`Histogram`]s (lock-free `AtomicU64` buckets with
//!   p50/p95/p99/max summaries and per-bucket trace-id exemplars).
//! * **Spans** — the [`span!`] macro returns a guard that measures a
//!   region, feeds its duration into the histogram of the same name in the
//!   process-wide [`global`] registry, and appends a [`SpanRecord`] (with parent/child causality) to a bounded
//!   ring-buffer trace log. A [`TraceContext`] threads a request-scoped
//!   trace id through nested spans and across worker threads
//!   ([`SpanGuard::enter_in`] / [`SpanGuard::context`]), and
//!   [`begin_profile`]/[`take_profile`] collect every completed span of one
//!   trace for per-request profiles.
//! * **Export** — [`Snapshot`] (machine-readable) and
//!   [`Snapshot::render_table`] (human-readable) views; the JSON and HTTP
//!   surfaces live in `hpclog-core`, keeping this crate dependency-free.
//!
//! # Instrument naming
//!
//! Every instrument (counter, gauge, histogram, span) is named
//! **`<subsystem>.<component>.<event>`**, all lowercase, exactly three
//! dot-separated segments:
//!
//! * **subsystem** — the crate or domain: `rasdb`, `ingest`, `bus`,
//!   `cache`, `server`, `etl`, `sparklet`, `logbus`.
//! * **component** — the actor inside it: `coordinator`, `producer`,
//!   `store`, `result`, `block`, `engine`, `stream`, `topology`.
//! * **event** — what happened: `read`, `hit`, `miss`, `retries`,
//!   `backpressure`, `duplicates`.
//!
//! Examples: `rasdb.coordinator.read_multi`, `cache.result.hit`,
//! `bus.producer.backpressure`, `ingest.store.retries`,
//! `server.engine.request`. A [`CounterFamily`] appends one segment per
//! kind (e.g. `bus.faults.injected.drop`). New instruments must follow this shape;
//! renames of existing ones are listed in CHANGES.md.
//!
//! [`set_enabled`]`(false)` turns spans and histograms off, each record a
//! single relaxed atomic load and branch. Counters and gauges always
//! record: they are the only copy of the counts the system reports.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod histogram;
mod registry;
mod span;

pub use histogram::{Histogram, HistogramSummary, BUCKETS};
pub use registry::{global, Counter, CounterFamily, Gauge, Registry, Snapshot};
pub use span::{
    active_span, begin_profile, current_thread, current_trace, profiling_active, reset_spans,
    take_profile, trace_hex, trace_snapshot, SpanGuard, SpanRecord, TraceContext, TRACE_CAPACITY,
};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns spans and histograms on or off process-wide. Disabled recording
/// costs one relaxed atomic load per call site; counters and gauges are not
/// gated.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether spans and histograms are currently recording.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Serializes unit tests that record into, reset, or toggle the global
/// state, so parallel test threads don't observe each other's effects.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Enters a named span: `let _s = span!("rasdb.coordinator.read");`
///
/// A second argument supplies an explicit parent span id (for causality
/// across threads): `span!("sparklet.scheduler.task", parent)`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
    ($name:expr, $parent:expr) => {
        $crate::SpanGuard::enter_with_parent($name, $parent)
    };
}
