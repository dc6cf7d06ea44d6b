//! `telemetry` — zero-dependency observability for the whole workspace.
//!
//! Three pieces:
//!
//! * **Metrics** — named [`Counter`]s and [`Gauge`]s in a [`Registry`] that
//!   one deployment owns (the framework creates it and hands it to each
//!   part, which resolves its handles once, where it is built), and
//!   log2-bucketed [`Histogram`]s (lock-free `AtomicU64` buckets with
//!   p50/p95/p99/max summaries and per-bucket trace-id exemplars).
//! * **Spans** — a [`Span`] is a name resolved once in a registry
//!   ([`Registry::span`]). Entering it returns a guard that times a region
//!   into the registry's same-named histogram and appends a [`SpanRecord`]
//!   (with parent/child causality) to the registry's bounded trace ring. A
//!   [`TraceContext`] carries a request's trace id through nested spans and
//!   across threads ([`Span::enter_in`] / [`SpanGuard::context`]), and
//!   [`Registry::begin_profile`] collects one trace's spans for a profile.
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
//! [`Registry::set_enabled`]`(false)` turns a registry's spans and
//! histograms off (one relaxed load and branch per span entered); counters
//! and gauges always record, as the only copy of the counts the system
//! reports. The only process-wide state is id minting (span, trace and
//! thread ids) and, per thread, the open-span stack, the current trace and
//! the thread's sequence number.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod histogram;
mod registry;
mod span;

pub use histogram::{Histogram, HistogramSummary, BUCKETS};
pub use registry::{Counter, CounterFamily, Gauge, Registry, Snapshot};
pub use span::{
    current_thread, trace_hex, Span, SpanGuard, SpanRecord, TraceContext, TRACE_CAPACITY,
};
