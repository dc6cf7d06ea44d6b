//! Extract–transform–load: batch import and real-time streaming.
//!
//! One parser feeds the event/job tables:
//!
//! - [`parsers`] — what a raw line means: the regex pattern set (the
//!   specification) and the [`parsers::ParsedLine`] it yields;
//! - [`fastpath`] — the zero-copy byte scanner over `&[u8]` that
//!   implements those patterns, total over valid UTF-8 (see `DESIGN.md`
//!   §13). The compiled regexes are the test-side oracle it is checked
//!   against.
//!
//! [`batch`] drives the scanner chunk-parallel over a rendered corpus;
//! [`stream`] consumes the log bus with at-least-once semantics.
#![deny(missing_docs)]

pub mod batch;
pub mod fastpath;
pub mod parsers;
pub mod stream;

use std::sync::Arc;
use telemetry::{Counter, Gauge, Registry, Span};

/// The ETL paths' instruments in the framework's registry, resolved once
/// by `Framework::new`: the batch import's `etl.batch.*` and
/// `etl.fastpath.*` counters, the stream's `etl.stream.*` and `ingest.*`
/// counters and gauges, and both paths' spans.
pub(crate) struct EtlStats {
    pub(crate) lines_parsed: Arc<Counter>,
    pub(crate) lines_skipped: Arc<Counter>,
    pub(crate) lines_filtered: Arc<Counter>,
    pub(crate) event_rows: Arc<Counter>,
    pub(crate) scan_lines: Arc<Counter>,
    pub(crate) pushdown_skips: Arc<Counter>,
    pub(crate) ingest_lag: Arc<Gauge>,
    pub(crate) window_events_in: Arc<Gauge>,
    pub(crate) window_events_out: Arc<Gauge>,
    pub(crate) events_out: Arc<Counter>,
    pub(crate) duplicates: Arc<Counter>,
    pub(crate) store_retries: Arc<Counter>,
    pub(crate) store_backoff_ms: Arc<Counter>,
    pub(crate) commit_failures: Arc<Counter>,
    pub(crate) dlq_depth: Arc<Gauge>,
    pub(crate) dlq_publish_failures: Arc<Counter>,
    pub(crate) import_span: Span,
    pub(crate) step_span: Span,
    pub(crate) window_span: Span,
    pub(crate) store_span: Span,
    pub(crate) commit_span: Span,
    pub(crate) dlq_requeue_span: Span,
}

impl EtlStats {
    pub(crate) fn new(r: &Registry) -> EtlStats {
        EtlStats {
            lines_parsed: r.counter("etl.batch.lines_parsed"),
            lines_skipped: r.counter("etl.batch.lines_skipped"),
            lines_filtered: r.counter("etl.batch.lines_filtered"),
            event_rows: r.counter("etl.batch.event_rows"),
            scan_lines: r.counter("etl.fastpath.lines"),
            pushdown_skips: r.counter("etl.fastpath.pushdown_skips"),
            ingest_lag: r.gauge("etl.stream.ingest_lag"),
            window_events_in: r.gauge("etl.stream.window_events_in"),
            window_events_out: r.gauge("etl.stream.window_events_out"),
            events_out: r.counter("etl.stream.events_out"),
            duplicates: r.counter("ingest.consume.duplicates"),
            store_retries: r.counter("ingest.store.retries"),
            store_backoff_ms: r.counter("ingest.store.backoff_ms"),
            commit_failures: r.counter("ingest.commit.failures"),
            dlq_depth: r.gauge("ingest.dlq.depth"),
            dlq_publish_failures: r.counter("ingest.dlq.publish_failures"),
            import_span: r.span("etl.batch.import"),
            step_span: r.span("etl.stream.step"),
            window_span: r.span("etl.stream.window"),
            store_span: r.span("etl.stream.store"),
            commit_span: r.span("etl.stream.commit"),
            dlq_requeue_span: r.span("etl.stream.dlq_requeue"),
        }
    }
}
