//! Zero-copy byte-slice parser for ETL — the one parser in the product.
//!
//! The paper's batch import parses lines "in search for known patterns …
//! typically defined as regular expressions". Those patterns (listed in
//! [`crate::etl::parsers`]) are the specification; this module implements
//! them as byte-level scanning over `&[u8]`:
//!
//! - **chunk splitting** ([`split_chunks`]): the corpus is cut into
//!   near-equal byte chunks, each extended to the last newline it
//!   contains, so **no line ever crosses a chunk** and chunks parse in
//!   parallel with zero coordination;
//! - **field-boundary detection** ([`Lines`], the envelope scanner):
//!   `memchr`-style searches find the three envelope spaces and the
//!   newline terminators — no per-line allocation, no UTF-8 decode;
//! - **lazy field extraction**: fields stay borrowed `&[u8]` slices until
//!   a line is known to produce a row; only the fields the table writer
//!   consumes (`source`, `raw`, job `user`/`app`) are materialized;
//! - **predicate pushdown** ([`ScanPredicate`]): window and event-type
//!   filters run *during* the scan — a line outside the window is dropped
//!   after parsing nothing but its timestamp, and a type-filtered line is
//!   dropped before any `String` is built;
//! - **total over UTF-8**: a line that is not valid UTF-8 is rejected, and
//!   every other line is scanned byte by byte. Bytes suffice because every
//!   pattern anchors on ASCII literals and every class in it is defined
//!   over ASCII (`\d`, `\w`, `\s`, `[0-9a-f:]`, the `app=` name class, and
//!   `\S`, the complement of `\s`): a multi-byte character is outside each
//!   of them but inside `\S`, and so is each of its bytes, and an ASCII
//!   literal can only match at a character boundary.
//!
//! The compiled regexes survive as the test-side **reference oracle**: for
//! every line the scanner must produce exactly the [`ParsedLine`] the
//! regexes produce (or exactly the same rejection), and the differential
//! suite (`tests/etl_equivalence.rs`) checks it line by line and table by
//! table.
//!
//! Telemetry: [`ScanStats`] counts lines and pushdown skips; the batch
//! import adds them into the `etl.fastpath.lines` and
//! `etl.fastpath.pushdown_skips` counters once per task.

use crate::etl::parsers::ParsedLine;
use crate::model::event::EventRecord;
use loggen::events::EVENT_CATALOG;
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

/// What became of one scanned line.
///
/// # Example
/// ```
/// use hpclog_core::etl::fastpath::{FastParser, LineOutcome, ScanPredicate, ScanStats};
/// let p = FastParser::new();
/// let (pred, mut stats) = (ScanPredicate::default(), ScanStats::default());
/// let line = b"1500000000123 console c0-0c0s0n0 Machine Check Exception: bank 4";
/// match p.scan_line(line, &pred, &mut stats) {
///     LineOutcome::Event(ev) => assert_eq!(&*ev.event_type, "MCE"),
///     other => panic!("{other:?}"),
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineOutcome {
    /// The line is a system event that survived the predicate.
    Event(EventRecord),
    /// The line is a job fragment ([`ParsedLine::JobStart`] or
    /// [`ParsedLine::JobEnd`]) — never filtered by predicates.
    Job(ParsedLine),
    /// No pattern matched (or a matched number overflowed its type).
    Skipped,
    /// An event line the [`ScanPredicate`] dropped during the scan.
    Filtered,
}

/// Filters applied *during* the byte scan (predicate pushdown), instead
/// of after rows have been materialized.
///
/// Predicates apply to **event** lines only; job start/end fragments are
/// always imported (they must pair across the whole log). For non-`app`
/// facilities the window check runs right after the timestamp is parsed —
/// before the message body is even classified; the type check runs after
/// classification but before any field is materialized.
///
/// # Example
/// ```
/// use hpclog_core::etl::fastpath::ScanPredicate;
/// let pred = ScanPredicate::default().with_window(0, 1000).with_types(["MCE"]);
/// assert!(pred.keeps(500, "MCE"));
/// assert!(!pred.keeps(1000, "MCE"));   // window is half-open
/// assert!(!pred.keeps(500, "GPU_DBE"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ScanPredicate {
    /// Half-open event-time window `[from_ms, to_ms)`; `None` keeps all.
    pub window_ms: Option<(i64, i64)>,
    /// Event-type allowlist; `None` keeps all types.
    pub types: Option<HashSet<String>>,
}

impl ScanPredicate {
    /// Restricts the import to events with `from_ms <= ts < to_ms`.
    pub fn with_window(mut self, from_ms: i64, to_ms: i64) -> ScanPredicate {
        self.window_ms = Some((from_ms, to_ms));
        self
    }

    /// Restricts the import to the named event types.
    pub fn with_types<I, S>(mut self, types: I) -> ScanPredicate
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.types = Some(types.into_iter().map(Into::into).collect());
        self
    }

    /// True when no filter is configured.
    pub fn is_empty(&self) -> bool {
        self.window_ms.is_none() && self.types.is_none()
    }

    /// Would an event at `ts_ms` of `event_type` survive?
    pub fn keeps(&self, ts_ms: i64, event_type: &str) -> bool {
        self.window_in(ts_ms) && self.type_in(event_type)
    }

    fn window_in(&self, ts_ms: i64) -> bool {
        match self.window_ms {
            Some((from, to)) => ts_ms >= from && ts_ms < to,
            None => true,
        }
    }

    fn type_in(&self, event_type: &str) -> bool {
        match &self.types {
            Some(set) => set.contains(event_type),
            None => true,
        }
    }
}

/// Per-chunk scan counters. The batch import adds each task's into the
/// framework's `etl.fastpath.*` counters.
///
/// # Example
/// ```
/// use hpclog_core::etl::fastpath::{FastParser, ScanPredicate, ScanStats};
/// let (p, mut stats) = (FastParser::new(), ScanStats::default());
/// let pred = ScanPredicate::default().with_window(0, 10);
/// p.scan_line(b"50 console n0 DVS: x", &pred, &mut stats);
/// assert_eq!((stats.lines, stats.pushdown_skips), (1, 1));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Lines scanned.
    pub lines: u64,
    /// Event lines dropped by the [`ScanPredicate`] during the scan.
    pub pushdown_skips: u64,
}

// ---------------------------------------------------------------------------
// Chunk splitting and line iteration
// ---------------------------------------------------------------------------

/// Splits a corpus into parse chunks of roughly `target_bytes` each, every
/// chunk boundary placed immediately **after** a newline, so no line ever
/// crosses a chunk (the chunk-split invariant).
///
/// A chunk whose tentative cut lands mid-line is shortened to the last
/// newline it contains; a single line longer than `target_bytes` extends
/// its chunk to the line's own newline (or end of input). An empty corpus
/// yields no chunks; chunk ranges are contiguous, non-empty, and cover
/// the corpus exactly.
///
/// # Example
/// ```
/// use hpclog_core::etl::fastpath::split_chunks;
/// let corpus = b"aa\nbbbb\ncc\n";
/// let chunks = split_chunks(corpus, 4);
/// // Every chunk ends right after a newline.
/// assert_eq!(chunks, vec![(0, 3), (3, 8), (8, 11)]);
/// assert!(split_chunks(b"", 4).is_empty());
/// ```
pub fn split_chunks(corpus: &[u8], target_bytes: usize) -> Vec<(usize, usize)> {
    let target = target_bytes.max(1);
    let mut chunks = Vec::new();
    let mut start = 0usize;
    while start < corpus.len() {
        let tentative = start.saturating_add(target).min(corpus.len());
        let end = if tentative == corpus.len() {
            corpus.len()
        } else {
            match rmemchr(b'\n', &corpus[start..tentative]) {
                // Cut just after the last newline the tentative chunk holds.
                Some(i) => start + i + 1,
                // A single line larger than the chunk: extend to its end.
                None => match memchr(b'\n', &corpus[tentative..]) {
                    Some(i) => tentative + i + 1,
                    None => corpus.len(),
                },
            }
        };
        chunks.push((start, end));
        start = end;
    }
    chunks
}

/// Iterates the lines of a chunk: `\n` is a **terminator** (a trailing
/// newline does not produce a final empty line), and one trailing `\r`
/// per line is stripped (CRLF input parses like LF input). Interior empty
/// lines are yielded (and rejected by the parsers, like any other
/// unparseable line).
///
/// # Example
/// ```
/// use hpclog_core::etl::fastpath::Lines;
/// let got: Vec<&[u8]> = Lines::new(b"a\r\n\nbb").collect();
/// assert_eq!(got, vec![b"a" as &[u8], b"", b"bb"]);
/// ```
#[derive(Debug, Clone)]
pub struct Lines<'a> {
    rest: &'a [u8],
}

impl<'a> Lines<'a> {
    /// Starts iterating `chunk`.
    pub fn new(chunk: &'a [u8]) -> Lines<'a> {
        Lines { rest: chunk }
    }
}

impl<'a> Iterator for Lines<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.rest.is_empty() {
            return None;
        }
        let mut line = match memchr(b'\n', self.rest) {
            Some(i) => {
                let line = &self.rest[..i];
                self.rest = &self.rest[i + 1..];
                line
            }
            None => {
                let line = self.rest;
                self.rest = &[];
                line
            }
        };
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        Some(line)
    }
}

// ---------------------------------------------------------------------------
// Byte-level scanning primitives
// ---------------------------------------------------------------------------

/// First position of `b` in `s` (forward memchr).
#[inline]
fn memchr(b: u8, s: &[u8]) -> Option<usize> {
    s.iter().position(|&x| x == b)
}

/// Last position of `b` in `s` (reverse memchr).
#[inline]
fn rmemchr(b: u8, s: &[u8]) -> Option<usize> {
    s.iter().rposition(|&x| x == b)
}

/// First occurrence of `needle` in `haystack` (first-byte-gated scan).
#[inline]
fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    let first = *needle.first()?;
    if needle.len() > haystack.len() {
        return None;
    }
    let mut at = 0;
    while let Some(i) = memchr(first, &haystack[at..haystack.len() - needle.len() + 1]) {
        let pos = at + i;
        if haystack[pos..pos + needle.len()] == *needle {
            return Some(pos);
        }
        at = pos + 1;
    }
    None
}

/// `rex`'s `\s` class, byte-level: `[ \t\n\r\x0B\x0C]`.
#[inline]
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\r' | 0x0B | 0x0C)
}

/// `rex`'s `\w` class, byte-level: `[A-Za-z0-9_]`.
#[inline]
fn is_word(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The `app=` name class from the job-start pattern: `[A-Za-z0-9+._\-]`.
#[inline]
fn is_app_name(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'+' | b'.' | b'_' | b'-')
}

/// End of the ASCII-digit run starting at `i` (exclusive).
#[inline]
fn digits_end(s: &[u8], i: usize) -> usize {
    let mut j = i;
    while j < s.len() && s[j].is_ascii_digit() {
        j += 1;
    }
    j
}

/// Exact byte-level mirror of `str::parse::<i64>()`: optional `+`/`-`
/// sign, one or more ASCII digits, nothing else; overflow fails.
/// Accumulates on the negative side so `i64::MIN` parses.
fn parse_i64(s: &[u8]) -> Option<i64> {
    let (neg, digits) = match s.first()? {
        b'+' => (false, &s[1..]),
        b'-' => (true, &s[1..]),
        _ => (false, s),
    };
    if digits.is_empty() {
        return None;
    }
    let mut v: i64 = 0;
    for &b in digits {
        if !b.is_ascii_digit() {
            return None;
        }
        v = v.checked_mul(10)?.checked_sub(i64::from(b - b'0'))?;
    }
    if neg {
        Some(v)
    } else {
        v.checked_neg()
    }
}

/// Byte-level mirror of `str::parse::<i32>()` (same shape as
/// [`parse_i64`], 32-bit range).
fn parse_i32(s: &[u8]) -> Option<i32> {
    let v = parse_i64(s)?;
    i32::try_from(v).ok()
}

/// Byte-level mirror of `str::parse::<u32>()` for all-digit input (the
/// only shape a `(\d+)` capture can take).
fn parse_u32_digits(s: &[u8]) -> Option<u32> {
    if s.is_empty() {
        return None;
    }
    let mut v: u32 = 0;
    for &b in s {
        if !b.is_ascii_digit() {
            return None;
        }
        v = v.checked_mul(10)?.checked_add(u32::from(b - b'0'))?;
    }
    Some(v)
}

// ---------------------------------------------------------------------------
// The fast parser
// ---------------------------------------------------------------------------

/// The borrowed envelope `<ts_ms> <facility> <source> <text>` — every
/// field a slice into the input line; nothing materialized.
struct Envelope<'a> {
    ts_ms: i64,
    facility: &'a [u8],
    source: &'a [u8],
    text: &'a [u8],
}

/// Splits the envelope exactly like `str::splitn(4, ' ')` + `parse::<i64>`.
fn envelope(line: &[u8]) -> Option<Envelope<'_>> {
    let s0 = memchr(b' ', line)?;
    let ts_ms = parse_i64(&line[..s0])?;
    let rest = &line[s0 + 1..];
    let s1 = memchr(b' ', rest)?;
    let facility = &rest[..s1];
    let rest = &rest[s1 + 1..];
    let s2 = memchr(b' ', rest)?;
    Some(Envelope {
        ts_ms,
        facility,
        source: &rest[..s2],
        text: &rest[s2 + 1..],
    })
}

/// Outcome of a structural job-line match: distinguishes "pattern did not
/// match" (fall through to classification) from "pattern matched but a
/// number overflowed" (the pattern set rejects the whole line).
enum JobMatch {
    No,
    BadNumber,
    Ok(ParsedLine),
}

/// The byte scanner for the pattern set of [`crate::etl::parsers`].
///
/// Every decision — pattern order, greedy-run semantics, numeric overflow
/// rejection — follows the compiled patterns exactly, on any valid UTF-8
/// line; `tests/etl_equivalence.rs` checks it differentially against the
/// regex oracle on the loggen corpus, on adversarial and multi-byte
/// inputs, and on raw byte garbage.
///
/// # Example
/// ```
/// use hpclog_core::etl::fastpath::FastParser;
/// use hpclog_core::etl::parsers::ParsedLine;
/// let fast = FastParser::new();
/// let line = "1500000000000 app alps apid 7 start user=u0 app=VASP nodes=0-63 width=64";
/// match fast.parse_line(line.as_bytes()) {
///     Some(ParsedLine::JobStart { apid, app, .. }) => assert_eq!((apid, app.as_str()), (7, "VASP")),
///     other => panic!("{other:?}"),
/// }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FastParser;

impl FastParser {
    /// Builds the parser.
    pub fn new() -> FastParser {
        FastParser
    }

    /// Parses one full raw line: [`FastParser::scan_line`] under the empty
    /// predicate. Invalid UTF-8 is rejected (`None`).
    ///
    /// # Example
    /// ```
    /// use hpclog_core::etl::fastpath::FastParser;
    /// let p = FastParser::new();
    /// assert!(p.parse_line(b"garbage").is_none());
    /// assert!(p.parse_line(b"1500 console n0 DVS: file_node_down").is_some());
    /// assert!(p.parse_line("1500 console nö0 DVS: file_node_down".as_bytes()).is_some());
    /// assert!(p.parse_line(b"1500 console n0 DVS: \xff").is_none());
    /// ```
    pub fn parse_line(&self, line: &[u8]) -> Option<ParsedLine> {
        match self.scan_line(line, &ScanPredicate::default(), &mut ScanStats::default()) {
            LineOutcome::Event(ev) => Some(ParsedLine::Event(ev)),
            LineOutcome::Job(job) => Some(job),
            LineOutcome::Skipped | LineOutcome::Filtered => None,
        }
    }

    /// Scans one line with predicate pushdown, updating `stats`. This is
    /// the batch path's per-line entry point: filtered lines cost at most
    /// a timestamp parse plus classification — no materialization.
    ///
    /// Order of decisions (the disposition contract):
    /// 1. invalid UTF-8 or an unparseable envelope → [`LineOutcome::Skipped`];
    /// 2. non-`app` facility with the timestamp outside the window →
    ///    [`LineOutcome::Filtered`] *without parsing the body*, so the
    ///    disposition never depends on whether the body would have matched;
    /// 3. full parse: job fragments always kept; events checked against the
    ///    predicate; everything else skipped.
    pub fn scan_line(
        &self,
        line: &[u8],
        pred: &ScanPredicate,
        stats: &mut ScanStats,
    ) -> LineOutcome {
        stats.lines += 1;
        if !line.is_ascii() && std::str::from_utf8(line).is_err() {
            return LineOutcome::Skipped;
        }
        let Some(env) = envelope(line) else {
            return LineOutcome::Skipped;
        };
        if env.facility != b"app" {
            // Window pushdown: nothing past the timestamp is touched.
            if !pred.window_in(env.ts_ms) {
                stats.pushdown_skips += 1;
                return LineOutcome::Filtered;
            }
            return match classify(env.text) {
                Some(event_type) => {
                    if !pred.type_in(EVENT_CATALOG[event_type].name) {
                        stats.pushdown_skips += 1;
                        LineOutcome::Filtered
                    } else {
                        LineOutcome::Event(materialize(&env, event_type))
                    }
                }
                None => LineOutcome::Skipped,
            };
        }
        // app facility: job fragments first (always kept), then events
        // (predicate applies after classification — app-facility event
        // lines exist, e.g. scheduler-class occurrences).
        match job_start(env.text, env.ts_ms) {
            JobMatch::Ok(job) => return LineOutcome::Job(job),
            JobMatch::BadNumber => return LineOutcome::Skipped,
            JobMatch::No => {}
        }
        match job_end(env.text, env.ts_ms) {
            JobMatch::Ok(job) => return LineOutcome::Job(job),
            JobMatch::BadNumber => return LineOutcome::Skipped,
            JobMatch::No => {}
        }
        match classify(env.text) {
            Some(event_type) => {
                if !pred.keeps(env.ts_ms, EVENT_CATALOG[event_type].name) {
                    stats.pushdown_skips += 1;
                    LineOutcome::Filtered
                } else {
                    LineOutcome::Event(materialize(&env, event_type))
                }
            }
            None => LineOutcome::Skipped,
        }
    }
}

/// Materializes an event record — the only place the fast path allocates
/// for an event line: one allocation each for `source` and `raw`, which
/// both table views then share, while the type name is the catalog's
/// shared copy.
fn materialize(env: &Envelope<'_>, event_type: usize) -> EventRecord {
    EventRecord {
        ts_ms: env.ts_ms,
        event_type: Arc::clone(&type_names()[event_type]),
        // Valid UTF-8 cut at ASCII bytes: the conversion replaces nothing.
        source: String::from_utf8_lossy(env.source).into(),
        amount: 1,
        raw: String::from_utf8_lossy(env.text).into(),
    }
}

/// The event-type names, one shared copy each, in catalog order: a record
/// takes its type from here by the classifier's index.
fn type_names() -> &'static [Arc<str>] {
    static NAMES: OnceLock<Vec<Arc<str>>> = OnceLock::new();
    NAMES.get_or_init(|| EVENT_CATALOG.iter().map(|t| Arc::from(t.name)).collect())
}

/// The catalog index of the event type `name`, found at compile time: a
/// name the catalog lacks fails the build.
const fn catalog_index(name: &str) -> usize {
    let mut i = 0;
    while i < EVENT_CATALOG.len() {
        let (a, b) = (EVENT_CATALOG[i].name.as_bytes(), name.as_bytes());
        let mut same = a.len() == b.len();
        let mut j = 0;
        while same && j < a.len() {
            same = a[j] == b[j];
            j += 1;
        }
        if same {
            return i;
        }
        i += 1;
    }
    panic!("event type missing from the catalog")
}

const MCE: usize = catalog_index("MCE");
const MEM_ECC: usize = catalog_index("MEM_ECC");
const MEM_UE: usize = catalog_index("MEM_UE");
const GPU_DBE: usize = catalog_index("GPU_DBE");
const GPU_OFF_BUS: usize = catalog_index("GPU_OFF_BUS");
const GPU_SXM_PWR: usize = catalog_index("GPU_SXM_PWR");
const LUSTRE_ERR: usize = catalog_index("LUSTRE_ERR");
const LUSTRE_EVICT: usize = catalog_index("LUSTRE_EVICT");
const DVS_ERR: usize = catalog_index("DVS_ERR");
const NET_LINK: usize = catalog_index("NET_LINK");
const NET_THROTTLE: usize = catalog_index("NET_THROTTLE");
const KERNEL_PANIC: usize = catalog_index("KERNEL_PANIC");

/// Classifies the message text into an event type, returned as its index in
/// [`EVENT_CATALOG`]: the event patterns checked in their order, with their
/// quirks (an `NVRM: Xid` line whose error code overflows `u32` rejects the
/// line outright, as the pattern set's `parse::<u32>().ok()?` does).
fn classify(text: &[u8]) -> Option<usize> {
    // ^Machine Check Exception: bank (\d+)
    const MCE_TEXT: &[u8] = b"Machine Check Exception: bank ";
    if text.len() > MCE_TEXT.len()
        && text.starts_with(MCE_TEXT)
        && text[MCE_TEXT.len()].is_ascii_digit()
    {
        return Some(MCE);
    }
    // ^EDAC MC\d+: (CE|UE) "
    const EDAC: &[u8] = b"EDAC MC";
    if text.starts_with(EDAC) {
        let d = digits_end(text, EDAC.len());
        if d > EDAC.len() && text[d..].starts_with(b": ") {
            let rest = &text[d + 2..];
            if rest.starts_with(b"CE ") {
                return Some(MEM_ECC);
            }
            if rest.starts_with(b"UE ") {
                return Some(MEM_UE);
            }
        }
    }
    // ^NVRM: Xid \([0-9a-f:]+\): (\d+),
    const XID: &[u8] = b"NVRM: Xid (";
    if text.starts_with(XID) {
        let mut i = XID.len();
        let bus_start = i;
        while i < text.len() && matches!(text[i], b'0'..=b'9' | b'a'..=b'f' | b':') {
            i += 1;
        }
        if i > bus_start && text[i..].starts_with(b"): ") {
            let code_start = i + 3;
            let code_end = digits_end(text, code_start);
            if code_end > code_start && text.get(code_end) == Some(&b',') {
                // A u32 overflow rejects the whole line.
                return match parse_u32_digits(&text[code_start..code_end])? {
                    48 => Some(GPU_DBE),
                    79 => Some(GPU_OFF_BUS),
                    62 => Some(GPU_SXM_PWR),
                    _ => Some(GPU_DBE), // unknown Xids still count as GPU errors
                };
            }
        }
    }
    // ^Lustre(Error)?: " with the evict/restore sub-pattern anywhere.
    if text.starts_with(b"Lustre: ") || text.starts_with(b"LustreError: ") {
        return Some(
            if find(text, b"evicted").is_some() || find(text, b"Connection restored").is_some() {
                LUSTRE_EVICT
            } else {
                LUSTRE_ERR
            },
        );
    }
    // ^DVS: "
    if text.starts_with(b"DVS: ") {
        return Some(DVS_ERR);
    }
    // Gemini LCB lcb=\S+ failed   (unanchored)
    const LCB: &[u8] = b"Gemini LCB lcb=";
    let mut at = 0;
    while let Some(i) = find(&text[at..], LCB) {
        let run_start = at + i + LCB.len();
        let mut j = run_start;
        while j < text.len() && !is_space(text[j]) {
            j += 1;
        }
        if j > run_start && text[j..].starts_with(b" failed") {
            return Some(NET_LINK);
        }
        at = at + i + 1;
    }
    // congestion protection engaged   (unanchored)
    if find(text, b"congestion protection engaged").is_some() {
        return Some(NET_THROTTLE);
    }
    // ^Kernel panic
    if text.starts_with(b"Kernel panic") {
        return Some(KERNEL_PANIC);
    }
    None
}

/// `^apid (\d+) start user=(\w+) app=([A-Za-z0-9+._\-]+) nodes=(\d+)-(\d+)`
fn job_start(text: &[u8], ts_ms: i64) -> JobMatch {
    let Some(rest) = text.strip_prefix(b"apid ") else {
        return JobMatch::No;
    };
    let apid_end = digits_end(rest, 0);
    if apid_end == 0 || !rest[apid_end..].starts_with(b" start user=") {
        return JobMatch::No;
    }
    let user_start = apid_end + b" start user=".len();
    let mut user_end = user_start;
    while user_end < rest.len() && is_word(rest[user_end]) {
        user_end += 1;
    }
    if user_end == user_start || !rest[user_end..].starts_with(b" app=") {
        return JobMatch::No;
    }
    let app_start = user_end + b" app=".len();
    let mut app_end = app_start;
    while app_end < rest.len() && is_app_name(rest[app_end]) {
        app_end += 1;
    }
    if app_end == app_start || !rest[app_end..].starts_with(b" nodes=") {
        return JobMatch::No;
    }
    let first_start = app_end + b" nodes=".len();
    let first_end = digits_end(rest, first_start);
    if first_end == first_start || rest.get(first_end) != Some(&b'-') {
        return JobMatch::No;
    }
    let last_start = first_end + 1;
    let last_end = digits_end(rest, last_start);
    if last_end == last_start {
        return JobMatch::No;
    }
    // Structure matched: numeric overflow now rejects the whole line
    // (the pattern set's `parse().ok()?`).
    let (Some(apid), Some(node_first), Some(node_last)) = (
        parse_i64(&rest[..apid_end]),
        parse_i64(&rest[first_start..first_end]),
        parse_i64(&rest[last_start..last_end]),
    ) else {
        return JobMatch::BadNumber;
    };
    JobMatch::Ok(ParsedLine::JobStart {
        apid,
        ts_ms,
        user: String::from_utf8_lossy(&rest[user_start..user_end]).into_owned(),
        app: String::from_utf8_lossy(&rest[app_start..app_end]).into_owned(),
        node_first,
        node_last,
    })
}

/// `^apid (\d+) end exit=(-?\d+)`
fn job_end(text: &[u8], ts_ms: i64) -> JobMatch {
    let Some(rest) = text.strip_prefix(b"apid ") else {
        return JobMatch::No;
    };
    let apid_end = digits_end(rest, 0);
    if apid_end == 0 || !rest[apid_end..].starts_with(b" end exit=") {
        return JobMatch::No;
    }
    let exit_start = apid_end + b" end exit=".len();
    let digit_start = if rest.get(exit_start) == Some(&b'-') {
        exit_start + 1
    } else {
        exit_start
    };
    let exit_end = digits_end(rest, digit_start);
    if exit_end == digit_start {
        return JobMatch::No;
    }
    let (Some(apid), Some(exit_code)) = (
        parse_i64(&rest[..apid_end]),
        parse_i32(&rest[exit_start..exit_end]),
    ) else {
        return JobMatch::BadNumber;
    };
    JobMatch::Ok(ParsedLine::JobEnd {
        apid,
        ts_ms,
        exit_code,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // -- chunk splitter --------------------------------------------------

    /// Chunks must be contiguous, cover the corpus, and end on newlines.
    fn assert_invariants(corpus: &[u8], chunks: &[(usize, usize)]) {
        let mut pos = 0;
        for &(s, e) in chunks {
            assert_eq!(s, pos, "chunks are contiguous");
            assert!(e > s, "chunks are non-empty");
            if e < corpus.len() {
                assert_eq!(corpus[e - 1], b'\n', "chunk ends after a newline");
            }
            pos = e;
        }
        assert_eq!(pos, corpus.len(), "chunks cover the corpus");
    }

    #[test]
    fn empty_corpus_yields_no_chunks() {
        assert!(split_chunks(b"", 16).is_empty());
    }

    #[test]
    fn chunk_ending_exactly_on_newline_keeps_the_boundary() {
        // target 3 lands exactly on the first newline's successor.
        let corpus = b"ab\ncd\n";
        let chunks = split_chunks(corpus, 3);
        assert_eq!(chunks, vec![(0, 3), (3, 6)]);
        assert_invariants(corpus, &chunks);
    }

    #[test]
    fn single_line_larger_than_a_chunk_extends_to_its_newline() {
        let corpus = b"0123456789012345\nx\n";
        let chunks = split_chunks(corpus, 4);
        assert_eq!(chunks[0], (0, 17), "oversized line stays whole");
        assert_invariants(corpus, &chunks);
    }

    #[test]
    fn oversized_final_line_without_newline_is_one_chunk_tail() {
        let corpus = b"a\n0123456789";
        let chunks = split_chunks(corpus, 3);
        assert_invariants(corpus, &chunks);
        assert_eq!(*chunks.last().unwrap(), (2, corpus.len()));
    }

    #[test]
    fn chunked_lines_equal_unchunked_lines_for_any_target() {
        let corpus: Vec<u8> = b"one\ntwo two\n\nthree\r\nfour has spaces\nlast-no-newline".to_vec();
        let whole: Vec<&[u8]> = Lines::new(&corpus).collect();
        for target in 1..corpus.len() + 2 {
            let chunks = split_chunks(&corpus, target);
            assert_invariants(&corpus, &chunks);
            let rejoined: Vec<&[u8]> = chunks
                .iter()
                .flat_map(|&(s, e)| Lines::new(&corpus[s..e]))
                .collect();
            assert_eq!(rejoined, whole, "target {target}");
        }
    }

    // -- line iterator ---------------------------------------------------

    #[test]
    fn trailing_newline_is_a_terminator_not_an_empty_line() {
        let got: Vec<&[u8]> = Lines::new(b"a\nb\n").collect();
        assert_eq!(got, vec![b"a" as &[u8], b"b"]);
    }

    #[test]
    fn crlf_strips_one_cr_and_keeps_interior_crs() {
        let got: Vec<&[u8]> = Lines::new(b"a\r\r\nb\rc\n").collect();
        assert_eq!(got, vec![b"a\r" as &[u8], b"b\rc"]);
    }

    // -- numeric parsing mirrors str::parse ------------------------------

    #[test]
    fn parse_i64_matches_str_parse() {
        let cases: &[&str] = &[
            "0",
            "+7",
            "-7",
            "9223372036854775807",
            "-9223372036854775808",
            "9223372036854775808",  // overflow
            "-9223372036854775809", // underflow
            "",
            "+",
            "-",
            "12x",
            " 12",
            "1_2",
        ];
        for c in cases {
            assert_eq!(parse_i64(c.as_bytes()), c.parse::<i64>().ok(), "case {c:?}");
        }
    }

    #[test]
    fn parse_u32_digits_matches_str_parse_on_digit_runs() {
        for c in ["0", "48", "4294967295", "4294967296", "99999999999"] {
            assert_eq!(
                parse_u32_digits(c.as_bytes()),
                c.parse::<u32>().ok(),
                "case {c:?}"
            );
        }
    }

    // -- multi-byte and odd bytes -----------------------------------------

    fn event(line: &[u8]) -> EventRecord {
        match FastParser::new().parse_line(line) {
            Some(ParsedLine::Event(ev)) => ev,
            other => panic!("{:?} parsed as {other:?}", String::from_utf8_lossy(line)),
        }
    }

    #[test]
    fn non_ascii_lines_parse_bytewise_and_invalid_utf8_is_rejected() {
        // Multi-byte characters in the text, the source and the facility.
        let ev = event("1 console n0 Lustre: évicted client".as_bytes());
        assert_eq!(
            (&*ev.event_type, &*ev.raw),
            ("LUSTRE_ERR", "Lustre: évicted client")
        );
        let ev = event("1 console nö0 DVS: x".as_bytes());
        assert_eq!((&*ev.event_type, &*ev.source), ("DVS_ERR", "nö0"));
        assert_eq!(
            &*event("1 cönsole n0 DVS: x".as_bytes()).event_type,
            "DVS_ERR"
        );
        // No-break space is `\S` to the pattern set: it extends the run.
        let ev = event("1 netwatch n0 Gemini LCB lcb=g21\u{a0}l07 failed".as_bytes());
        assert_eq!(&*ev.event_type, "NET_LINK");
        // Non-ASCII letters and digits are not `\w` or `\d`.
        let p = FastParser::new();
        assert!(p
            .parse_line("1 app alps apid 1 start user=ü app=A nodes=0-1".as_bytes())
            .is_none());
        assert!(p
            .parse_line("1 console n0 Machine Check Exception: bank ٣".as_bytes())
            .is_none());
        // Invalid UTF-8 rejects, whatever the predicate.
        let bad = b"1 console n0 DVS: \xff\xfe";
        assert_eq!(p.parse_line(bad), None);
        let mut stats = ScanStats::default();
        let pred = ScanPredicate::default().with_window(5, 6);
        assert_eq!(p.scan_line(bad, &pred, &mut stats), LineOutcome::Skipped);
        assert_eq!(stats.pushdown_skips, 0);
    }

    #[test]
    fn embedded_nul_is_handled_like_any_ascii_byte() {
        // NUL is ASCII and non-space: it extends the \S+ run.
        let ev = event(b"1 netwatch n0 Gemini LCB lcb=a\0b failed");
        assert_eq!(&*ev.event_type, "NET_LINK");
        assert_eq!(&*event(b"1 console n0 DVS: x\0y").raw, "DVS: x\0y");
    }

    // -- pushdown --------------------------------------------------------

    #[test]
    fn window_pushdown_filters_without_classification() {
        let fast = FastParser::new();
        let pred = ScanPredicate::default().with_window(1000, 2000);
        let mut stats = ScanStats::default();
        // In-window event passes; out-of-window chatter AND out-of-window
        // events are both filtered (disposition is body-independent).
        assert!(matches!(
            fast.scan_line(b"1500 console n0 DVS: x", &pred, &mut stats),
            LineOutcome::Event(_)
        ));
        assert_eq!(
            fast.scan_line(b"2000 console n0 DVS: x", &pred, &mut stats),
            LineOutcome::Filtered,
            "window is half-open"
        );
        assert_eq!(
            fast.scan_line(b"500 console n0 chatter here", &pred, &mut stats),
            LineOutcome::Filtered
        );
        assert_eq!(stats.pushdown_skips, 2);
        // Job fragments are never filtered.
        assert!(matches!(
            fast.scan_line(b"5000 app alps apid 1 end exit=0", &pred, &mut stats),
            LineOutcome::Job(_)
        ));
    }

    #[test]
    fn type_pushdown_filters_after_classification() {
        let fast = FastParser::new();
        let pred = ScanPredicate::default().with_types(["MCE"]);
        let mut stats = ScanStats::default();
        assert!(matches!(
            fast.scan_line(
                b"1 console n0 Machine Check Exception: bank 2",
                &pred,
                &mut stats
            ),
            LineOutcome::Event(_)
        ));
        assert_eq!(
            fast.scan_line(b"1 console n0 DVS: x", &pred, &mut stats),
            LineOutcome::Filtered
        );
        assert_eq!(
            fast.scan_line(b"1 console n0 chatter", &pred, &mut stats),
            LineOutcome::Skipped,
            "unparseable stays skipped, not filtered"
        );
        assert_eq!(stats.pushdown_skips, 1);
    }

    /// The disposition contract of [`FastParser::scan_line`], restated over
    /// the unfiltered parse.
    fn disposition(line: &str, pred: &ScanPredicate) -> LineOutcome {
        let fields: Vec<&str> = line.splitn(4, ' ').collect();
        let ts = fields.first().and_then(|t| t.parse::<i64>().ok());
        let Some(ts) = ts.filter(|_| fields.len() == 4) else {
            return LineOutcome::Skipped;
        };
        if fields[1] != "app" && !pred.window_in(ts) {
            return LineOutcome::Filtered;
        }
        match FastParser::new().parse_line(line.as_bytes()) {
            Some(ParsedLine::Event(ev)) if pred.keeps(ev.ts_ms, &ev.event_type) => {
                LineOutcome::Event(ev)
            }
            Some(ParsedLine::Event(_)) => LineOutcome::Filtered,
            Some(job) => LineOutcome::Job(job),
            None => LineOutcome::Skipped,
        }
    }

    #[test]
    fn scan_matches_reference_disposition_under_predicates() {
        let fast = FastParser::new();
        let preds = [
            ScanPredicate::default(),
            ScanPredicate::default().with_window(1000, 3000),
            ScanPredicate::default().with_types(["MCE", "DVS_ERR"]),
            ScanPredicate::default()
                .with_window(0, 2000)
                .with_types(["LUSTRE_ERR"]),
        ];
        let lines = [
            "500 console n0 Machine Check Exception: bank 1",
            "1500 console n0 Machine Check Exception: bank 1",
            "1500 console n0 LustreError: 11-0: broken",
            "2500 console n0 DVS: x",
            "1500 console n0 chatter",
            "500 app alps apid 3 start user=u app=A nodes=0-1",
            "9000 app alps apid 3 end exit=0",
            "1500 app alps Machine Check Exception: bank 1: app-stream event",
            "bogus line",
        ];
        for pred in &preds {
            for line in lines {
                let mut stats = ScanStats::default();
                assert_eq!(
                    fast.scan_line(line.as_bytes(), pred, &mut stats),
                    disposition(line, pred),
                    "line {line:?} pred {pred:?}"
                );
            }
        }
    }

    // -- byte garbage ----------------------------------------------------

    /// Rendered Titan lines from every facility loggen emits.
    fn titan_lines() -> &'static [String] {
        static LINES: OnceLock<Vec<String>> = OnceLock::new();
        LINES.get_or_init(|| {
            let cfg = loggen::trace::ScenarioConfig {
                rate_scale: 20.0,
                ..loggen::trace::ScenarioConfig::quiet_day(2)
            };
            let topo = loggen::topology::Topology::scaled(2, 2);
            let scenario = loggen::trace::Scenario::generate(&topo, &cfg, 7);
            scenario.lines.iter().map(|l| l.render()).collect()
        })
    }

    /// A valid line with lossy edits: cut short, a byte dropped, a byte
    /// overwritten, a byte inserted.
    fn mutated_line() -> BoxedStrategy<Vec<u8>> {
        let edit = (0usize..4, any::<usize>(), any::<u8>());
        (any::<usize>(), prop::collection::vec(edit, 1..4))
            .prop_map(|(pick, edits)| {
                let lines = titan_lines();
                let mut line = lines[pick % lines.len()].clone().into_bytes();
                for (op, at, byte) in edits {
                    let at = at % (line.len() + 1);
                    match op {
                        0 => line.truncate(at),
                        1 if at < line.len() => drop(line.remove(at)),
                        2 if at < line.len() => line[at] = byte,
                        _ => line.insert(at, byte),
                    }
                }
                line
            })
            .boxed()
    }

    /// Arbitrary bytes, or mutated lines joined by `\n` or `\r\n`.
    fn byte_garbage() -> BoxedStrategy<Vec<u8>> {
        prop_oneof![
            prop::collection::vec(any::<u8>(), 0..600),
            (prop::collection::vec(mutated_line(), 1..12), any::<bool>())
                .prop_map(|(lines, crlf)| lines.join(if crlf { &b"\r\n"[..] } else { &b"\n"[..] })),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// ROADMAP 5(c), the parser's quarter: no byte sequence panics the
        /// chunker, the line iterator or the scanner, whatever the
        /// predicate, and every line of the corpus gets an outcome.
        #[test]
        fn byte_garbage_gets_one_outcome_per_line_and_never_panics(
            corpus in byte_garbage(),
            target in 1usize..300,
            window in any::<bool>(),
        ) {
            let fast = FastParser::new();
            let pred = if window {
                ScanPredicate::default().with_window(0, i64::MAX / 2).with_types(["MCE"])
            } else {
                ScanPredicate::default()
            };
            let mut stats = ScanStats::default();
            let mut outcomes = 0;
            for (start, end) in split_chunks(&corpus, target) {
                for line in Lines::new(&corpus[start..end]) {
                    let _: LineOutcome = fast.scan_line(line, &pred, &mut stats);
                    let _ = fast.parse_line(line);
                    outcomes += 1;
                }
            }
            let newlines = corpus.iter().filter(|&&b| b == b'\n').count();
            let lines = newlines + usize::from(corpus.last().is_some_and(|&b| b != b'\n'));
            prop_assert_eq!(outcomes, lines);
            prop_assert_eq!(stats.lines as usize, lines);
        }
    }
}
