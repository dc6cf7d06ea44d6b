//! The regex reference oracle for the ETL byte scanner.
//!
//! The event patterns of `hpclog_core::etl::parsers`, compiled with the
//! in-repo `rex` engine, are the executable statement of what a raw line
//! means. The library parses with `etl::fastpath::FastParser`; these
//! tests check that it never disagrees with the patterns:
//!
//! - [`EventParser`] parses one line with the compiled pattern set;
//! - [`reference_scan_line`] is the disposition the scanner must give a
//!   line under a `ScanPredicate`;
//! - [`oracle_import`] loads a corpus into a framework from those
//!   dispositions, one line at a time, as `import_bytes` must.

use hpclog_core::etl::batch::ImportReport;
use hpclog_core::etl::fastpath::{LineOutcome, Lines, ScanPredicate};
use hpclog_core::etl::parsers::ParsedLine;
use hpclog_core::framework::Framework;
use hpclog_core::model::apprun::AppRun;
use hpclog_core::model::event::EventRecord;
use rex::Regex;
use std::collections::HashMap;

/// Compiled pattern set. Build once per test; matching is allocation-light
/// and linear in the line length.
pub struct EventParser {
    mce: Regex,
    edac: Regex,
    xid: Regex,
    lustre: Regex,
    lustre_evict: Regex,
    dvs: Regex,
    net_link: Regex,
    net_throttle: Regex,
    panic: Regex,
    job_start: Regex,
    job_end: Regex,
}

impl Default for EventParser {
    fn default() -> Self {
        EventParser::new()
    }
}

impl EventParser {
    /// Compiles the pattern set.
    pub fn new() -> EventParser {
        let re = |p: &str| Regex::new(p).expect("static pattern");
        EventParser {
            mce: re(r"^Machine Check Exception: bank (\d+)"),
            edac: re(r"^EDAC MC\d+: (CE|UE) "),
            xid: re(r"^NVRM: Xid \([0-9a-f:]+\): (\d+),"),
            lustre: re(r"^Lustre(Error)?: "),
            lustre_evict: re(r"(evicted|Connection restored)"),
            dvs: re(r"^DVS: "),
            net_link: re(r"Gemini LCB lcb=\S+ failed"),
            net_throttle: re(r"congestion protection engaged"),
            panic: re(r"^Kernel panic"),
            job_start: re(
                r"^apid (\d+) start user=(\w+) app=([A-Za-z0-9+._\-]+) nodes=(\d+)-(\d+)",
            ),
            job_end: re(r"^apid (\d+) end exit=(-?\d+)"),
        }
    }

    /// Splits the envelope `<ts_ms> <facility> <source> <text>`.
    pub fn parse_envelope<'l>(&self, line: &'l str) -> Option<(i64, &'l str, &'l str, &'l str)> {
        let mut parts = line.splitn(4, ' ');
        let ts: i64 = parts.next()?.parse().ok()?;
        let facility = parts.next()?;
        let source = parts.next()?;
        let text = parts.next()?;
        Some((ts, facility, source, text))
    }

    /// Classifies the message text into an event type name.
    pub fn classify(&self, text: &str) -> Option<&'static str> {
        if self.mce.is_match(text) {
            return Some("MCE");
        }
        if let Some(caps) = self.edac.captures(text) {
            return Some(match caps.get(1) {
                Some("CE") => "MEM_ECC",
                _ => "MEM_UE",
            });
        }
        if let Some(caps) = self.xid.captures(text) {
            return match caps.get(1)?.parse::<u32>().ok()? {
                48 => Some("GPU_DBE"),
                79 => Some("GPU_OFF_BUS"),
                62 => Some("GPU_SXM_PWR"),
                _ => Some("GPU_DBE"), // unknown Xids still count as GPU errors
            };
        }
        if self.lustre.is_match(text) {
            return Some(if self.lustre_evict.is_match(text) {
                "LUSTRE_EVICT"
            } else {
                "LUSTRE_ERR"
            });
        }
        if self.dvs.is_match(text) {
            return Some("DVS_ERR");
        }
        if self.net_link.is_match(text) {
            return Some("NET_LINK");
        }
        if self.net_throttle.is_match(text) {
            return Some("NET_THROTTLE");
        }
        if self.panic.is_match(text) {
            return Some("KERNEL_PANIC");
        }
        None
    }

    /// Parses one full raw line.
    pub fn parse(&self, line: &str) -> Option<ParsedLine> {
        let (ts_ms, facility, source, text) = self.parse_envelope(line)?;
        if facility == "app" {
            if let Some(caps) = self.job_start.captures(text) {
                return Some(ParsedLine::JobStart {
                    apid: caps.get(1)?.parse().ok()?,
                    ts_ms,
                    user: caps.get(2)?.to_owned(),
                    app: caps.get(3)?.to_owned(),
                    node_first: caps.get(4)?.parse().ok()?,
                    node_last: caps.get(5)?.parse().ok()?,
                });
            }
            if let Some(caps) = self.job_end.captures(text) {
                return Some(ParsedLine::JobEnd {
                    apid: caps.get(1)?.parse().ok()?,
                    ts_ms,
                    exit_code: caps.get(2)?.parse().ok()?,
                });
            }
        }
        let event_type = self.classify(text)?;
        Some(ParsedLine::Event(EventRecord {
            ts_ms,
            event_type: event_type.into(),
            source: source.into(),
            amount: 1,
            raw: text.into(),
        }))
    }
}

/// The **reference disposition** of one raw line under `pred`:
/// 1. invalid UTF-8 (it cannot reach the pattern set) or an unparseable
///    envelope → [`LineOutcome::Skipped`];
/// 2. non-`app` facility with the timestamp outside the window →
///    [`LineOutcome::Filtered`] *without parsing the body*;
/// 3. full parse: job fragments always kept; events checked against the
///    predicate; everything else skipped.
pub fn reference_scan_line(parser: &EventParser, line: &[u8], pred: &ScanPredicate) -> LineOutcome {
    let Ok(line) = std::str::from_utf8(line) else {
        return LineOutcome::Skipped;
    };
    let Some((ts_ms, facility, _, _)) = parser.parse_envelope(line) else {
        return LineOutcome::Skipped;
    };
    let outside = |(from, to): (i64, i64)| !(from..to).contains(&ts_ms);
    if facility != "app" && pred.window_ms.is_some_and(outside) {
        return LineOutcome::Filtered;
    }
    match parser.parse(line) {
        Some(ParsedLine::Event(ev)) => {
            if pred.keeps(ev.ts_ms, &ev.event_type) {
                LineOutcome::Event(ev)
            } else {
                LineOutcome::Filtered
            }
        }
        Some(job) => LineOutcome::Job(job),
        None => LineOutcome::Skipped,
    }
}

/// The reference disposition of every line of `corpus`, in line order.
/// The regex engine is the slow part, so consecutive runs of lines are
/// matched on one thread per core.
fn reference_dispositions(corpus: &[u8], pred: &ScanPredicate) -> Vec<LineOutcome> {
    let lines: Vec<&[u8]> = Lines::new(corpus).collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let per_thread = lines.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let runs: Vec<_> = lines
            .chunks(per_thread)
            .map(|run| {
                scope.spawn(move || {
                    let parser = EventParser::new();
                    run.iter()
                        .map(|line| reference_scan_line(&parser, line, pred))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        runs.into_iter()
            .flat_map(|run| run.join().expect("oracle thread"))
            .collect()
    })
}

/// What `import_bytes` must load and report for `corpus`, computed from
/// the reference dispositions line by line: kept events go through
/// `insert_batch` as both table views, and job fragments pair by apid (the
/// last start and the last end of an apid in the corpus win) into
/// application runs.
pub fn oracle_import(fw: &Framework, corpus: &[u8], pred: &ScanPredicate) -> ImportReport {
    let mut report = ImportReport::default();
    let mut events: Vec<EventRecord> = Vec::new();
    let mut starts: HashMap<i64, (i64, String, String, i64, i64)> = HashMap::new();
    let mut ends: HashMap<i64, (i64, i32)> = HashMap::new();
    for outcome in reference_dispositions(corpus, pred) {
        match outcome {
            LineOutcome::Event(ev) => events.push(ev),
            LineOutcome::Job(job) => {
                report.parsed += 1;
                match job {
                    ParsedLine::JobStart {
                        apid,
                        ts_ms,
                        user,
                        app,
                        node_first,
                        node_last,
                    } => {
                        starts.insert(apid, (ts_ms, user, app, node_first, node_last));
                    }
                    ParsedLine::JobEnd {
                        apid,
                        ts_ms,
                        exit_code,
                    } => {
                        ends.insert(apid, (ts_ms, exit_code));
                    }
                    ParsedLine::Event(_) => unreachable!("events are LineOutcome::Event"),
                }
            }
            LineOutcome::Skipped => report.skipped += 1,
            LineOutcome::Filtered => report.filtered += 1,
        }
    }
    report.parsed += events.len();
    let time_rows = events.iter().map(EventRecord::to_time_row).collect();
    let loc_rows = events.iter().map(EventRecord::to_location_row).collect();
    for (table, rows) in [
        ("event_by_time", time_rows),
        ("event_by_location", loc_rows),
    ] {
        report.event_rows += fw
            .cluster()
            .insert_batch(table, rows, fw.consistency())
            .expect("oracle upload");
    }
    for (apid, (start_ms, user, app, node_first, node_last)) in starts {
        let Some((end_ms, exit_code)) = ends.remove(&apid) else {
            report.unmatched_jobs += 1;
            continue;
        };
        fw.insert_app_run(&AppRun {
            apid,
            user,
            app,
            start_ms,
            end_ms,
            node_first,
            node_last,
            exit_code,
            other_info: Default::default(),
        })
        .expect("oracle job upload");
        report.jobs += 1;
    }
    report.unmatched_jobs += ends.len();
    report
}
