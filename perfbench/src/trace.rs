//! Harness-side span recorder for the traced run.
//!
//! Spans are recorded only by the benchmark, around its calls into the
//! program's public functions; spans inside the program are a later change.
//! They stay in memory and are written out once, after the last round.
//! The recorder is used from the one harness thread, so it is a plain
//! stack: a span's parent is whatever span was open when it started.

use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `rasdb.write.insert_batch`.
    pub name: &'static str,
    /// Identifier shared by all spans of one timed call.
    pub op_id: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// End minus start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`SpanRecorder::enter`]; pass it back to
/// [`SpanRecorder::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Totals of every span sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times (duration minus direct children).
    pub self_ns: u64,
}

/// In-memory span log; a disabled recorder costs one branch per call.
#[derive(Debug)]
pub struct SpanRecorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op_id: u64,
}

impl SpanRecorder {
    /// A recorder that records (`enabled`) or ignores every call.
    pub fn new(enabled: bool) -> SpanRecorder {
        SpanRecorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
        }
    }

    /// Switches recording on or off between rounds.
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty(), "toggle only between spans");
        self.enabled = enabled;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new timed call: spans entered from now share a fresh id.
    pub fn begin_op(&mut self) {
        self.op_id += 1;
    }

    /// Opens a span under the current operation.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let idx = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            op_id: self.op_id,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Closes a span; spans close in reverse order of opening.
    pub fn exit(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let now = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans must nest");
        self.spans[idx].end_ns = now;
    }

    /// Adds a span that was timed elsewhere (on a thread of the program's)
    /// as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let since_epoch = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op_id: self.op_id,
            parent: self.open.last().copied(),
            start_ns: since_epoch(start),
            end_ns: since_epoch(end),
        });
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of each span: its duration minus the durations of its
    /// direct children (which, nesting on one thread, lie inside it).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Count, total and self time of the spans named `name`.
    pub fn layer(&self, name: &str) -> LayerTotals {
        let own = self.self_times_ns();
        let mut t = LayerTotals::default();
        for (s, self_ns) in self.spans.iter().zip(own) {
            if s.name == name {
                t.count += 1;
                t.total_ns += s.duration_ns();
                t.self_ns += self_ns;
            }
        }
        t
    }

    /// Durations, in microseconds, of the spans named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Writes one JSON object per span, with its self time.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op_id\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.op_id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, op_id: u64, parent: Option<usize>, a: u64, b: u64) -> Span {
        Span {
            name,
            op_id,
            parent,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn span_self_time_is_duration_minus_direct_children() {
        let mut rec = SpanRecorder::new(true);
        // op [0,100) with children a [10,40) and b [50,90); b has child c [60,70).
        rec.spans = vec![
            span("op", 1, None, 0, 100),
            span("a", 1, Some(0), 10, 40),
            span("b", 1, Some(0), 50, 90),
            span("c", 1, Some(2), 60, 70),
        ];
        assert_eq!(rec.self_times_ns(), vec![30, 30, 30, 10]);
        assert_eq!(
            rec.layer("op"),
            LayerTotals {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(rec.layer("b").self_ns, 30);
        assert_eq!(rec.layer("absent"), LayerTotals::default());
    }

    #[test]
    fn enter_exit_nest_and_share_the_op_id() {
        let mut rec = SpanRecorder::new(true);
        rec.begin_op();
        let outer = rec.enter("outer");
        let inner = rec.enter("inner");
        rec.exit(inner);
        rec.exit(outer);
        rec.begin_op();
        let next = rec.enter("outer");
        rec.exit(next);
        let s = rec.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert_eq!((s[0].op_id, s[1].op_id, s[2].op_id), (1, 1, 2));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(rec.layer("outer").count, 2);
    }

    #[test]
    fn spans_timed_elsewhere_become_children_of_the_open_span() {
        let mut rec = SpanRecorder::new(true);
        rec.begin_op();
        let op = rec.enter("op");
        let start = Instant::now();
        let end = start + std::time::Duration::from_nanos(500);
        rec.record("task", start, end);
        rec.exit(op);
        let s = rec.spans();
        assert_eq!((s[1].name, s[1].parent, s[1].op_id), ("task", Some(0), 1));
        assert_eq!(s[1].duration_ns(), 500);
        assert!(s[0].start_ns <= s[1].start_ns);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = SpanRecorder::new(false);
        rec.begin_op();
        let id = rec.enter("x");
        rec.exit(id);
        assert!(rec.spans().is_empty());
        rec.set_enabled(true);
        let id = rec.enter("y");
        rec.exit(id);
        assert_eq!(rec.spans().len(), 1);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut rec = SpanRecorder::new(true);
        rec.spans = vec![span("op", 1, None, 0, 9), span("a", 1, Some(0), 2, 5)];
        let mut out = Vec::new();
        rec.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[1],
            "{\"id\":1,\"name\":\"a\",\"op_id\":1,\"parent\":0,\"start_ns\":2,\"end_ns\":5,\"self_ns\":3}"
        );
        assert!(lines[0].contains("\"parent\":null") && lines[0].contains("\"self_ns\":6"));
    }
}
