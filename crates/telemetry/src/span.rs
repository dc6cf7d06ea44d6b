//! Spans: scoped timers with parent/child causality, logged to a bounded
//! ring buffer and mirrored into same-named latency histograms.
//!
//! Request-scoped causality is carried by a [`TraceContext`]: a trace id
//! minted at the edge (HTTP handler, ingester step) plus the id of the span
//! to parent under. A span entered via [`SpanGuard::enter_in`] installs its
//! trace id in a thread-local, so same-thread descendants inherit it
//! implicitly; handing [`SpanGuard::context`] to a worker closure carries
//! both the trace id and the parent link across thread boundaries.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Maximum spans retained in the trace ring buffer; older spans fall off.
pub const TRACE_CAPACITY: usize = 4096;

/// Lock shards the trace ring is split across. Records land on shard
/// `seq % TRACE_SHARDS` — round-robin by completion order, independent of
/// which thread finished the span — so concurrent span drops rarely
/// contend on the same mutex. The single-global-mutex version of this
/// ring was the top lock in the `loadgen` frontend bench.
const TRACE_SHARDS: usize = 16;
const SHARD_CAPACITY: usize = TRACE_CAPACITY / TRACE_SHARDS;

/// One completed span in the trace log.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Global completion sequence, stamped when the span drops. Snapshots
    /// sort by it, so the merged view stays in completion order.
    pub seq: u64,
    /// Unique id within the process.
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Trace this span belongs to, when entered under a [`TraceContext`].
    pub trace: Option<u64>,
    /// Span name (the `subsystem.component.event` string given to `span!`).
    pub name: &'static str,
    /// Start time in microseconds since the first span of the process.
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
static NEXT_SEQ: AtomicU64 = AtomicU64::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn trace_shards() -> &'static [Mutex<VecDeque<SpanRecord>>] {
    static TRACE: OnceLock<Vec<Mutex<VecDeque<SpanRecord>>>> = OnceLock::new();
    TRACE.get_or_init(|| {
        (0..TRACE_SHARDS)
            .map(|_| Mutex::new(VecDeque::with_capacity(SHARD_CAPACITY)))
            .collect()
    })
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static CURRENT_TRACE: Cell<Option<u64>> = const { Cell::new(None) };
    static THREAD_SEQ: Cell<u64> = const { Cell::new(0) };
}

/// Id of the innermost span open on this thread, if any. Pass it to
/// `span!(name, parent)` in a worker closure to keep causality across
/// thread boundaries.
pub fn active_span() -> Option<u64> {
    SPAN_STACK.with(|s| s.borrow().last().copied())
}

/// Trace id installed on this thread by the innermost [`SpanGuard::enter_in`]
/// still open, if any.
pub fn current_trace() -> Option<u64> {
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
    /// telemetry is disabled so callers can always stamp responses.
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

/// Drains a copy of the trace ring buffer, oldest completion first.
/// Shards are merged and sorted by [`SpanRecord::seq`], so the view is
/// identical to what a single global ring would hold.
pub fn trace_snapshot() -> Vec<SpanRecord> {
    let mut out: Vec<SpanRecord> = Vec::with_capacity(TRACE_CAPACITY);
    for shard in trace_shards() {
        out.extend(
            shard
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .cloned(),
        );
    }
    out.sort_by_key(|r| r.seq);
    out
}

/// Zeroes every span histogram and clears the trace ring.
pub fn reset_spans() {
    crate::global().reset();
    clear_trace();
}

pub(crate) fn clear_trace() {
    for shard in trace_shards() {
        shard.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

// --- per-trace profile collection -----------------------------------------
//
// A request that asks for a profile registers its trace id here; every span
// that completes with a matching trace id is copied into the sink in
// addition to the ring. The `PROFILING` counter keeps the common case (no
// profile in flight) to a single relaxed load in the span drop path.

static PROFILING: AtomicUsize = AtomicUsize::new(0);

fn profile_sinks() -> &'static Mutex<HashMap<u64, Vec<SpanRecord>>> {
    static SINKS: OnceLock<Mutex<HashMap<u64, Vec<SpanRecord>>>> = OnceLock::new();
    SINKS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Starts collecting completed spans for `trace_id`. Must be balanced by a
/// later [`take_profile`] call, which also stops collection.
pub fn begin_profile(trace_id: u64) {
    let mut sinks = profile_sinks().lock().unwrap_or_else(|e| e.into_inner());
    if sinks.insert(trace_id, Vec::new()).is_none() {
        PROFILING.fetch_add(1, Ordering::Relaxed);
    }
}

/// True while at least one profile is being collected. A single relaxed
/// load — hot paths use it to gate spans that are profile-level detail
/// (e.g. one span per replica read) without paying for them otherwise.
pub fn profiling_active() -> bool {
    PROFILING.load(Ordering::Relaxed) > 0
}

/// Stops collecting for `trace_id` and returns every span recorded since
/// [`begin_profile`], in completion order. Spans from other traces are never
/// included, so interleaved profiled requests cannot cross-contaminate.
pub fn take_profile(trace_id: u64) -> Vec<SpanRecord> {
    let mut sinks = profile_sinks().lock().unwrap_or_else(|e| e.into_inner());
    match sinks.remove(&trace_id) {
        Some(spans) => {
            PROFILING.fetch_sub(1, Ordering::Relaxed);
            spans
        }
        None => Vec::new(),
    }
}

/// The histogram backing a span name, memoized per thread so the drop
/// path skips the registry's lock + name lookup after a thread's first
/// span of each name. Safe across [`crate::Registry::reset`], which
/// zeroes instruments in place and keeps handles valid.
fn histogram_for(name: &'static str) -> std::sync::Arc<crate::Histogram> {
    thread_local! {
        static HANDLES: RefCell<HashMap<usize, std::sync::Arc<crate::Histogram>>> =
            RefCell::new(HashMap::new());
    }
    HANDLES.with(|h| {
        std::sync::Arc::clone(
            h.borrow_mut()
                .entry(name.as_ptr() as usize)
                .or_insert_with(|| crate::global().histogram(name)),
        )
    })
}

fn sink_record(record: &SpanRecord) {
    let Some(trace) = record.trace else { return };
    if PROFILING.load(Ordering::Relaxed) == 0 {
        return;
    }
    let mut sinks = profile_sinks().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(spans) = sinks.get_mut(&trace) {
        spans.push(record.clone());
    }
}

/// Live span; created by the [`span!`](crate::span!) macro, finished (and
/// recorded) on drop. When telemetry is disabled the guard is inert.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    id: u64,
    parent: Option<u64>,
    trace: Option<u64>,
    /// `Some(prev)` when this guard installed a thread-local trace id that
    /// must be restored to `prev` on drop.
    restore_trace: Option<Option<u64>>,
    name: &'static str,
    start: Instant,
    start_us: u64,
    tags: Vec<(&'static str, String)>,
}

impl SpanGuard {
    /// Enters a span parented to this thread's innermost open span and
    /// tagged with this thread's current trace id, if one is installed.
    pub fn enter(name: &'static str) -> Self {
        Self::start(name, active_span(), current_trace())
    }

    /// Enters a span with an explicit parent id (cross-thread causality).
    pub fn enter_with_parent(name: &'static str, parent: Option<u64>) -> Self {
        Self::start(name, parent, current_trace())
    }

    /// Enters a span under a [`TraceContext`]: parented to `ctx.parent`,
    /// tagged with `ctx.trace_id`, and installing that trace id as this
    /// thread's current trace for the guard's lifetime so descendants
    /// entered with plain [`span!`](crate::span!) inherit it.
    pub fn enter_in(name: &'static str, ctx: &TraceContext) -> Self {
        let mut guard = Self::start(name, ctx.parent, Some(ctx.trace_id));
        if guard.active.is_none() {
            return guard;
        }
        let prev = CURRENT_TRACE.with(|t| t.replace(Some(ctx.trace_id)));
        if let Some(a) = guard.active.as_mut() {
            a.restore_trace = Some(prev);
        }
        guard
    }

    fn start(name: &'static str, parent: Option<u64>, trace: Option<u64>) -> Self {
        if !crate::enabled() {
            return Self { active: None };
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let start_us = epoch().elapsed().as_micros() as u64;
        SPAN_STACK.with(|s| s.borrow_mut().push(id));
        Self {
            active: Some(ActiveSpan {
                id,
                parent,
                trace,
                restore_trace: None,
                name,
                start: Instant::now(),
                start_us,
                tags: Vec::new(),
            }),
        }
    }

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
        let duration = a.start.elapsed();
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&id| id == a.id) {
                stack.remove(pos);
            }
        });
        if let Some(prev) = a.restore_trace {
            CURRENT_TRACE.with(|t| t.set(prev));
        }
        let duration_ns = duration.as_nanos().min(u64::MAX as u128) as u64;
        histogram_for(a.name).record_traced(duration_ns, a.trace);
        let seq = NEXT_SEQ.fetch_add(1, Ordering::Relaxed);
        let record = SpanRecord {
            seq,
            id: a.id,
            parent: a.parent,
            trace: a.trace,
            name: a.name,
            start_us: a.start_us,
            duration_ns,
            thread: current_thread(),
            tags: a.tags,
        };
        sink_record(&record);
        let shard = &trace_shards()[(seq % TRACE_SHARDS as u64) as usize];
        let mut log = shard.lock().unwrap_or_else(|e| e.into_inner());
        if log.len() >= SHARD_CAPACITY {
            log.pop_front();
        }
        log.push_back(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_causality() {
        let _g = crate::test_lock();
        clear_trace();
        {
            let outer = crate::span!("test.outer.op");
            let outer_id = outer.id().unwrap();
            {
                let inner = crate::span!("test.inner.op");
                assert_eq!(active_span(), inner.id());
            }
            assert_eq!(active_span(), Some(outer_id));
        }
        assert_eq!(active_span(), None);
        let spans = trace_snapshot();
        assert_eq!(spans.len(), 2);
        // Inner finished first; its parent is the outer span.
        assert_eq!(spans[0].name, "test.inner.op");
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert_eq!(spans[1].parent, None);
        assert!(crate::global().histogram("test.outer.op").count() >= 1);
    }

    #[test]
    fn explicit_parent_crosses_threads() {
        let _g = crate::test_lock();
        clear_trace();
        let root = crate::span!("test.root.op");
        let root_id = root.id();
        std::thread::spawn(move || {
            let _child = crate::span!("test.child.op", root_id);
        })
        .join()
        .unwrap();
        drop(root);
        let spans = trace_snapshot();
        let child = spans.iter().find(|s| s.name == "test.child.op").unwrap();
        let root = spans.iter().find(|s| s.name == "test.root.op").unwrap();
        assert_eq!(child.parent, Some(root.id));
    }

    #[test]
    fn ring_buffer_is_bounded() {
        let _g = crate::test_lock();
        clear_trace();
        for _ in 0..TRACE_CAPACITY + 100 {
            let _s = crate::span!("test.flood.op");
        }
        assert_eq!(trace_snapshot().len(), TRACE_CAPACITY);
    }

    #[test]
    fn concurrent_drops_keep_a_bounded_completion_ordered_snapshot() {
        let _g = crate::test_lock();
        clear_trace();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..TRACE_CAPACITY / 4 {
                        let _s = crate::span!("test.concurrent.op");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let spans = trace_snapshot();
        assert_eq!(spans.len(), TRACE_CAPACITY, "shards cap to the total");
        assert!(
            spans.windows(2).all(|w| w[0].seq < w[1].seq),
            "snapshot is completion-ordered"
        );
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _g = crate::test_lock();
        clear_trace();
        crate::set_enabled(false);
        let before = crate::global().histogram("test.off.op").count();
        {
            let s = crate::span!("test.off.op");
            assert_eq!(s.id(), None);
            assert_eq!(active_span(), None);
        }
        let ctx = TraceContext::root();
        {
            let s = SpanGuard::enter_in("test.off.op", &ctx);
            assert_eq!(s.context(), None);
            assert_eq!(current_trace(), None);
        }
        crate::set_enabled(true);
        assert_eq!(crate::global().histogram("test.off.op").count(), before);
        assert!(trace_snapshot().is_empty());
    }

    #[test]
    fn tags_survive_into_the_record() {
        let _g = crate::test_lock();
        clear_trace();
        {
            let mut s = crate::span!("test.tagged.op");
            s.tag("locality", "hit");
        }
        let spans = trace_snapshot();
        assert_eq!(spans[0].tags, vec![("locality", "hit".to_owned())]);
    }

    #[test]
    fn trace_context_propagates_same_thread_and_cross_thread() {
        let _g = crate::test_lock();
        clear_trace();
        let ctx = TraceContext::root();
        let worker_ctx;
        {
            let root = SpanGuard::enter_in("test.trace.root", &ctx);
            assert_eq!(current_trace(), Some(ctx.trace_id));
            {
                // Plain span! inherits the installed trace id.
                let _child = crate::span!("test.trace.child");
            }
            worker_ctx = root.context().unwrap();
            assert_eq!(worker_ctx.trace_id, ctx.trace_id);
            assert_eq!(worker_ctx.parent, root.id());
        }
        assert_eq!(current_trace(), None);
        std::thread::spawn(move || {
            let _w = SpanGuard::enter_in("test.trace.worker", &worker_ctx);
        })
        .join()
        .unwrap();
        let spans = trace_snapshot();
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
        let _g = crate::test_lock();
        clear_trace();
        let outer = TraceContext::root();
        let inner = TraceContext::root();
        {
            let _a = SpanGuard::enter_in("test.restore.outer", &outer);
            {
                let _b = SpanGuard::enter_in("test.restore.inner", &inner);
                assert_eq!(current_trace(), Some(inner.trace_id));
            }
            assert_eq!(current_trace(), Some(outer.trace_id));
        }
        assert_eq!(current_trace(), None);
    }

    #[test]
    fn profile_sink_collects_only_its_trace() {
        let _g = crate::test_lock();
        clear_trace();
        let a = TraceContext::root();
        let b = TraceContext::root();
        begin_profile(a.trace_id);
        begin_profile(b.trace_id);
        {
            let _s = SpanGuard::enter_in("test.profile.a", &a);
        }
        {
            let _s = SpanGuard::enter_in("test.profile.b", &b);
        }
        {
            let _s = crate::span!("test.profile.untraced");
        }
        let got_a = take_profile(a.trace_id);
        let got_b = take_profile(b.trace_id);
        assert_eq!(got_a.len(), 1);
        assert_eq!(got_a[0].name, "test.profile.a");
        assert_eq!(got_b.len(), 1);
        assert_eq!(got_b[0].name, "test.profile.b");
        // Sink is drained; further spans for the trace are not collected.
        {
            let _s = SpanGuard::enter_in("test.profile.a", &a);
        }
        assert!(take_profile(a.trace_id).is_empty());
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
