//! Spans: scoped timers with parent/child causality, logged to their
//! [`Registry`]'s bounded ring buffer and mirrored into same-named latency
//! histograms. A component resolves its [`Span`]s once, where it is built,
//! so entering or dropping one takes no registry lock and no name lookup.
//!
//! Request-scoped causality is carried by a [`TraceContext`]: a trace id
//! minted at the edge (HTTP handler, ingester step) plus the id of the span
//! to parent under. A span entered via [`Span::enter_in`] installs its
//! trace id in a thread-local, so same-thread descendants inherit it
//! implicitly; handing [`SpanGuard::context`] to a worker closure carries
//! both the trace id and the parent link across thread boundaries. Ids and
//! the per-thread span stack are process-wide, so parentage holds across
//! registries; everything a span records goes to its own registry.

use crate::histogram::Histogram;
use crate::Registry;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Maximum spans retained in a registry's trace ring; older spans fall off.
pub const TRACE_CAPACITY: usize = 4096;

/// Lock shards the trace ring is split across. Records land on shard
/// `seq % TRACE_SHARDS` — round-robin by the registry's completion order,
/// independent of which thread finished the span — so concurrent span
/// drops rarely contend on the same mutex. The single-mutex version of
/// this ring was the top lock in the `loadgen` frontend bench.
const TRACE_SHARDS: usize = 16;
const SHARD_CAPACITY: usize = TRACE_CAPACITY / TRACE_SHARDS;

/// One completed span in the trace log.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Completion sequence within its registry, stamped when the span
    /// drops. Snapshots sort by it, so the merged view stays in completion
    /// order.
    pub seq: u64,
    /// Unique id within the process.
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Trace this span belongs to, when entered under a [`TraceContext`].
    pub trace: Option<u64>,
    /// Span name (the `subsystem.component.event` string it was resolved
    /// with).
    pub name: &'static str,
    /// Start time in microseconds since its registry was created.
    pub start_us: u64,
    /// Wall-clock duration of the region.
    pub duration_ns: u64,
    /// Sequence number of the thread that ran the span (process-unique).
    pub thread: u64,
    /// Key/value annotations attached via [`SpanGuard::tag`].
    pub tags: Vec<(&'static str, String)>,
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static CURRENT_TRACE: Cell<Option<u64>> = const { Cell::new(None) };
    static THREAD_SEQ: Cell<u64> = const { Cell::new(0) };
}

/// Id of the innermost span open on this thread, if any.
fn active_span() -> Option<u64> {
    SPAN_STACK.with(|s| s.borrow().last().copied())
}

/// Trace id installed by this thread's innermost open [`Span::enter_in`].
fn current_trace() -> Option<u64> {
    CURRENT_TRACE.with(|t| t.get())
}

/// Process-unique sequence number for the calling thread (minted lazily).
pub fn current_thread() -> u64 {
    THREAD_SEQ.with(|t| {
        let v = t.get();
        if v != 0 {
            return v;
        }
        let v = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
        t.set(v);
        v
    })
}

/// Request-scoped trace identity: the trace id plus the span id new work
/// should parent under. `Copy`, so it moves freely into worker closures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace id shared by every span of the request.
    pub trace_id: u64,
    /// Span id that spans entered under this context parent to.
    pub parent: Option<u64>,
}

impl TraceContext {
    /// Mints a fresh root context (new trace id, no parent). Works even when
    /// spans are off so callers can always stamp responses.
    pub fn root() -> Self {
        Self {
            trace_id: NEXT_TRACE.fetch_add(1, Ordering::Relaxed),
            parent: None,
        }
    }

    /// Adopts a caller-supplied trace id (e.g. from an `X-Trace-Id` header
    /// or a `"trace_id"` request field) as a new root in this process.
    pub fn adopt(trace_id: u64) -> Self {
        Self {
            trace_id,
            parent: None,
        }
    }

    /// Renders the trace id as the canonical 16-digit lowercase hex form
    /// used in envelopes, headers, and exemplars.
    pub fn hex(&self) -> String {
        trace_hex(self.trace_id)
    }

    /// Parses a canonical hex trace id back to its numeric form. Rejects
    /// empty strings, zero, and anything that is not 1–16 hex digits.
    pub fn parse_hex(s: &str) -> Option<u64> {
        if s.is_empty() || s.len() > 16 {
            return None;
        }
        match u64::from_str_radix(s, 16) {
            Ok(0) | Err(_) => None,
            Ok(v) => Some(v),
        }
    }
}

/// Canonical hex rendering of a raw trace id.
pub fn trace_hex(trace_id: u64) -> String {
    format!("{trace_id:016x}")
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A registry's span state: the on/off switch, the trace ring and the
/// per-trace profile sinks.
pub(crate) struct Trace {
    enabled: AtomicBool,
    /// Origin of [`SpanRecord::start_us`].
    epoch: Instant,
    /// The next [`SpanRecord::seq`].
    next_seq: AtomicU64,
    shards: Vec<Mutex<VecDeque<SpanRecord>>>,
    // A profiled request's trace id maps to the spans of that trace, copied
    // here as they complete. `profiling` counts the sinks, so with none
    // open the drop path pays one relaxed load.
    profiling: AtomicUsize,
    sinks: Mutex<HashMap<u64, Vec<SpanRecord>>>,
}

impl Default for Trace {
    fn default() -> Trace {
        Trace {
            enabled: AtomicBool::new(true),
            epoch: Instant::now(),
            next_seq: AtomicU64::new(0),
            shards: (0..TRACE_SHARDS).map(|_| Mutex::default()).collect(),
            profiling: AtomicUsize::new(0),
            sinks: Mutex::default(),
        }
    }
}

impl Trace {
    #[inline]
    fn profiling_active(&self) -> bool {
        self.profiling.load(Ordering::Relaxed) > 0
    }

    pub(crate) fn clear(&self) {
        self.shards.iter().for_each(|shard| lock(shard).clear());
    }

    /// Stamps `record`'s completion sequence, copies it into its trace's
    /// profile sink, if one is open, and appends it to the ring.
    fn push(&self, mut record: SpanRecord) {
        record.seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        if let Some(trace) = record.trace.filter(|_| self.profiling_active()) {
            if let Some(spans) = lock(&self.sinks).get_mut(&trace) {
                spans.push(record.clone());
            }
        }
        let mut log = lock(&self.shards[(record.seq % TRACE_SHARDS as u64) as usize]);
        if log.len() >= SHARD_CAPACITY {
            log.pop_front();
        }
        log.push_back(record);
    }
}

/// The span half of a registry.
impl Registry {
    /// The span named `name`: its histogram, listed from now on at count 0,
    /// and this registry's trace ring and profile sinks.
    pub fn span(&self, name: &'static str) -> Span {
        let (histogram, trace) = (self.histogram(name), Arc::clone(&self.trace));
        Span(Arc::new(Site {
            name,
            histogram,
            trace,
        }))
    }

    /// Turns this registry's spans and histograms on or off. Off, entering
    /// a span costs one relaxed atomic load; counters and gauges are not
    /// gated.
    pub fn set_enabled(&self, enabled: bool) {
        self.trace.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether this registry's spans and histograms are recording.
    pub fn enabled(&self) -> bool {
        self.trace.enabled.load(Ordering::Relaxed)
    }

    /// A copy of the trace ring, oldest completion first. Shards are merged
    /// and sorted by [`SpanRecord::seq`], so the view is identical to what
    /// a single ring would hold.
    pub fn trace_snapshot(&self) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = Vec::with_capacity(TRACE_CAPACITY);
        for shard in &self.trace.shards {
            out.extend(lock(shard).iter().cloned());
        }
        out.sort_by_key(|r| r.seq);
        out
    }

    /// Starts collecting this registry's completed spans of `trace_id`.
    /// Must be balanced by a later [`Registry::take_profile`] call, which
    /// also stops collection.
    pub fn begin_profile(&self, trace_id: u64) {
        let fresh = lock(&self.trace.sinks).insert(trace_id, Vec::new());
        if fresh.is_none() {
            self.trace.profiling.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// True while at least one profile is being collected (see
    /// [`Span::profiling_active`]).
    pub fn profiling_active(&self) -> bool {
        self.trace.profiling_active()
    }

    /// Stops collecting for `trace_id` and returns every span recorded since
    /// [`Registry::begin_profile`], in completion order. Spans from other
    /// traces are never included, so interleaved profiled requests cannot
    /// cross-contaminate.
    pub fn take_profile(&self, trace_id: u64) -> Vec<SpanRecord> {
        let spans = lock(&self.trace.sinks).remove(&trace_id);
        if spans.is_some() {
            self.trace.profiling.fetch_sub(1, Ordering::Relaxed);
        }
        spans.unwrap_or_default()
    }
}

/// One span name resolved in a [`Registry`] (see [`Registry::span`]):
/// entering it times a region into that registry's histogram and trace
/// ring. Cheap to clone.
#[derive(Clone)]
pub struct Span(Arc<Site>);

struct Site {
    name: &'static str,
    histogram: Arc<Histogram>,
    trace: Arc<Trace>,
}

impl Span {
    /// Enters the span parented to this thread's innermost open span and
    /// tagged with this thread's current trace id, if one is installed.
    pub fn enter(&self) -> SpanGuard {
        self.start(active_span(), current_trace())
    }

    /// Enters the span with an explicit parent id (cross-thread causality).
    pub fn enter_with_parent(&self, parent: Option<u64>) -> SpanGuard {
        self.start(parent, current_trace())
    }

    /// Enters the span under a [`TraceContext`]: parented to `ctx.parent`,
    /// tagged with `ctx.trace_id`, and installing that trace id as this
    /// thread's current trace for the guard's lifetime so descendants
    /// entered with plain [`Span::enter`] inherit it.
    pub fn enter_in(&self, ctx: &TraceContext) -> SpanGuard {
        let mut guard = self.start(ctx.parent, Some(ctx.trace_id));
        if let Some(a) = guard.active.as_mut() {
            a.restore_trace = Some(CURRENT_TRACE.with(|t| t.replace(Some(ctx.trace_id))));
        }
        guard
    }

    /// True while the span's registry collects at least one profile. A
    /// single relaxed load — hot paths use it to gate spans that are
    /// profile-level detail (e.g. one span per replica read) without paying
    /// for them otherwise.
    #[inline]
    pub fn profiling_active(&self) -> bool {
        self.0.trace.profiling_active()
    }

    fn start(&self, parent: Option<u64>, trace: Option<u64>) -> SpanGuard {
        if !self.0.trace.enabled.load(Ordering::Relaxed) {
            return SpanGuard { active: None };
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        SPAN_STACK.with(|s| s.borrow_mut().push(id));
        SpanGuard {
            active: Some(ActiveSpan {
                site: Arc::clone(&self.0),
                id,
                parent,
                trace,
                restore_trace: None,
                start: Instant::now(),
                tags: Vec::new(),
            }),
        }
    }
}

/// Live span; created by a [`Span`], finished (and recorded) on drop. When
/// the span's registry has spans off the guard is inert.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    site: Arc<Site>,
    id: u64,
    parent: Option<u64>,
    trace: Option<u64>,
    /// `Some(prev)` when this guard installed a thread-local trace id that
    /// must be restored to `prev` on drop.
    restore_trace: Option<Option<u64>>,
    start: Instant,
    tags: Vec<(&'static str, String)>,
}

impl SpanGuard {
    /// This span's id, for parenting work dispatched to other threads.
    pub fn id(&self) -> Option<u64> {
        self.active.as_ref().map(|a| a.id)
    }

    /// A [`TraceContext`] for handing to worker threads: same trace id,
    /// parented to this span. `None` when the span carries no trace or the
    /// guard is inert.
    pub fn context(&self) -> Option<TraceContext> {
        let a = self.active.as_ref()?;
        Some(TraceContext {
            trace_id: a.trace?,
            parent: Some(a.id),
        })
    }

    /// Attaches a key/value tag (e.g. `plans => "24"`).
    pub fn tag(&mut self, key: &'static str, value: impl Into<String>) {
        if let Some(a) = self.active.as_mut() {
            a.tags.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else {
            return;
        };
        let duration_ns = a.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&id| id == a.id) {
                stack.remove(pos);
            }
        });
        if let Some(prev) = a.restore_trace {
            CURRENT_TRACE.with(|t| t.set(prev));
        }
        a.site.histogram.record(duration_ns, a.trace);
        a.site.trace.push(SpanRecord {
            seq: 0, // stamped by `push`
            id: a.id,
            parent: a.parent,
            trace: a.trace,
            name: a.site.name,
            start_us: a.start.duration_since(a.site.trace.epoch).as_micros() as u64,
            duration_ns,
            thread: current_thread(),
            tags: a.tags,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_causality() {
        let r = Registry::default();
        let (outer_span, inner_span) = (r.span("test.outer.op"), r.span("test.inner.op"));
        {
            let outer = outer_span.enter();
            let outer_id = outer.id().unwrap();
            {
                let inner = inner_span.enter();
                assert_eq!(active_span(), inner.id());
            }
            assert_eq!(active_span(), Some(outer_id));
        }
        assert_eq!(active_span(), None);
        let spans = r.trace_snapshot();
        assert_eq!(spans.len(), 2);
        // Inner finished first; its parent is the outer span.
        assert_eq!(spans[0].name, "test.inner.op");
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert_eq!(spans[1].parent, None);
        assert_eq!(r.histogram("test.outer.op").count(), 1);
    }

    #[test]
    fn explicit_parent_crosses_threads() {
        let r = Registry::default();
        let child_span = r.span("test.child.op");
        let root = r.span("test.root.op").enter();
        let root_id = root.id();
        std::thread::spawn(move || {
            let _child = child_span.enter_with_parent(root_id);
        })
        .join()
        .unwrap();
        drop(root);
        let spans = r.trace_snapshot();
        let child = spans.iter().find(|s| s.name == "test.child.op").unwrap();
        let root = spans.iter().find(|s| s.name == "test.root.op").unwrap();
        assert_eq!(child.parent, Some(root.id));
    }

    #[test]
    fn ring_buffer_is_bounded() {
        let r = Registry::default();
        let flood = r.span("test.flood.op");
        for _ in 0..TRACE_CAPACITY + 100 {
            let _s = flood.enter();
        }
        assert_eq!(r.trace_snapshot().len(), TRACE_CAPACITY);
    }

    #[test]
    fn concurrent_drops_keep_a_bounded_completion_ordered_snapshot() {
        let r = Registry::default();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let span = r.span("test.concurrent.op");
                std::thread::spawn(move || {
                    for _ in 0..TRACE_CAPACITY / 4 {
                        let _s = span.enter();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let spans = r.trace_snapshot();
        assert_eq!(spans.len(), TRACE_CAPACITY, "shards cap to the total");
        assert!(
            spans.windows(2).all(|w| w[0].seq < w[1].seq),
            "snapshot is completion-ordered"
        );
    }

    #[test]
    fn disabled_spans_are_inert() {
        let r = Registry::default();
        let off = r.span("test.off.op");
        r.set_enabled(false);
        assert!(!r.enabled());
        {
            let s = off.enter();
            assert_eq!(s.id(), None);
            assert_eq!(active_span(), None);
        }
        let ctx = TraceContext::root();
        {
            let s = off.enter_in(&ctx);
            assert_eq!(s.context(), None);
            assert_eq!(current_trace(), None);
        }
        r.set_enabled(true);
        assert_eq!(r.histogram("test.off.op").count(), 0);
        assert!(r.trace_snapshot().is_empty());
    }

    #[test]
    fn tags_survive_into_the_record() {
        let r = Registry::default();
        {
            let mut s = r.span("test.tagged.op").enter();
            s.tag("locality", "hit");
        }
        let spans = r.trace_snapshot();
        assert_eq!(spans[0].tags, vec![("locality", "hit".to_owned())]);
    }

    #[test]
    fn trace_context_propagates_same_thread_and_cross_thread() {
        let r = Registry::default();
        let worker_span = r.span("test.trace.worker");
        let ctx = TraceContext::root();
        let worker_ctx;
        {
            let root = r.span("test.trace.root").enter_in(&ctx);
            assert_eq!(current_trace(), Some(ctx.trace_id));
            {
                // A plain enter inherits the installed trace id.
                let _child = r.span("test.trace.child").enter();
            }
            worker_ctx = root.context().unwrap();
            assert_eq!(worker_ctx.trace_id, ctx.trace_id);
            assert_eq!(worker_ctx.parent, root.id());
        }
        assert_eq!(current_trace(), None);
        std::thread::spawn(move || {
            let _w = worker_span.enter_in(&worker_ctx);
        })
        .join()
        .unwrap();
        let spans = r.trace_snapshot();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        let root = by_name("test.trace.root");
        let child = by_name("test.trace.child");
        let worker = by_name("test.trace.worker");
        assert_eq!(root.trace, Some(ctx.trace_id));
        assert_eq!(child.trace, Some(ctx.trace_id));
        assert_eq!(child.parent, Some(root.id));
        assert_eq!(worker.trace, Some(ctx.trace_id));
        assert_eq!(worker.parent, Some(root.id));
        assert_ne!(root.thread, worker.thread);
    }

    #[test]
    fn nested_enter_in_restores_the_outer_trace() {
        let r = Registry::default();
        let outer = TraceContext::root();
        let inner = TraceContext::root();
        {
            let _a = r.span("test.restore.outer").enter_in(&outer);
            {
                let _b = r.span("test.restore.inner").enter_in(&inner);
                assert_eq!(current_trace(), Some(inner.trace_id));
            }
            assert_eq!(current_trace(), Some(outer.trace_id));
        }
        assert_eq!(current_trace(), None);
    }

    #[test]
    fn profile_sink_collects_only_its_trace() {
        let r = Registry::default();
        let (span_a, span_b) = (r.span("test.profile.a"), r.span("test.profile.b"));
        let a = TraceContext::root();
        let b = TraceContext::root();
        r.begin_profile(a.trace_id);
        r.begin_profile(b.trace_id);
        assert!(span_a.profiling_active());
        drop(span_a.enter_in(&a));
        drop(span_b.enter_in(&b));
        drop(r.span("test.profile.untraced").enter());
        let got_a = r.take_profile(a.trace_id);
        let got_b = r.take_profile(b.trace_id);
        assert!(!r.profiling_active());
        assert_eq!(got_a.len(), 1);
        assert_eq!(got_a[0].name, "test.profile.a");
        assert_eq!(got_b.len(), 1);
        assert_eq!(got_b[0].name, "test.profile.b");
        // Sink is drained; further spans for the trace are not collected.
        drop(span_a.enter_in(&a));
        assert!(r.take_profile(a.trace_id).is_empty());
    }

    #[test]
    fn trace_hex_round_trips() {
        let ctx = TraceContext::adopt(0xdead_beef_0042);
        assert_eq!(ctx.hex(), "0000deadbeef0042");
        assert_eq!(TraceContext::parse_hex(&ctx.hex()), Some(0xdead_beef_0042));
        assert_eq!(TraceContext::parse_hex(""), None);
        assert_eq!(TraceContext::parse_hex("0"), None);
        assert_eq!(TraceContext::parse_hex("xyz"), None);
        assert_eq!(TraceContext::parse_hex("11112222333344445"), None);
    }
}
