//! What a raw line means: the pattern set and the parsed form.
//!
//! The paper's batch import parses "the data in search for known patterns
//! for each event type (typically defined as regular expressions)". A line
//! is the envelope `<ts_ms> <facility> <source> <text>` (split on the
//! first three spaces, `ts_ms` an `i64`), and its text is matched against
//! these patterns, in this order:
//!
//! | pattern | result |
//! |---|---|
//! | `^apid (\d+) start user=(\w+) app=([A-Za-z0-9+._\-]+) nodes=(\d+)-(\d+)` (`app` facility only) | [`ParsedLine::JobStart`] |
//! | `^apid (\d+) end exit=(-?\d+)` (`app` facility only) | [`ParsedLine::JobEnd`] |
//! | `^Machine Check Exception: bank (\d+)` | `MCE` |
//! | `^EDAC MC\d+: (CE\|UE) ` | `MEM_ECC` / `MEM_UE` |
//! | `^NVRM: Xid \([0-9a-f:]+\): (\d+),` | `GPU_DBE` (48 and unknown), `GPU_OFF_BUS` (79), `GPU_SXM_PWR` (62) |
//! | `^Lustre(Error)?: ` | `LUSTRE_EVICT` if `(evicted\|Connection restored)` occurs, else `LUSTRE_ERR` |
//! | `^DVS: ` | `DVS_ERR` |
//! | `Gemini LCB lcb=\S+ failed` | `NET_LINK` |
//! | `congestion protection engaged` | `NET_THROTTLE` |
//! | `^Kernel panic` | `KERNEL_PANIC` |
//!
//! A capture that overflows its integer type rejects the whole line. The
//! classes are ASCII (`\d` = `[0-9]`, `\w` = `[0-9A-Z_a-z]`, `\s` =
//! `[ \t\n\r\x0B\x0C]`), and a line that is not valid UTF-8 matches
//! nothing.
//!
//! Batch and streaming ingest parse with the byte scanner
//! ([`crate::etl::fastpath::FastParser`]). The patterns themselves, compiled
//! with the in-repo `rex` engine, are the test-side oracle the scanner is
//! checked against (`tests/support/`, `tests/etl_equivalence.rs`).

use crate::model::event::EventRecord;

/// A successfully parsed line.
///
/// # Example
/// ```
/// use hpclog_core::etl::fastpath::FastParser;
/// use hpclog_core::etl::parsers::ParsedLine;
/// let p = FastParser::new();
/// match p.parse_line(b"1500000360000 app alps apid 7 end exit=-9 runtime_s=360") {
///     Some(ParsedLine::JobEnd { apid, exit_code, .. }) => {
///         assert_eq!((apid, exit_code), (7, -9));
///     }
///     other => panic!("{other:?}"),
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParsedLine {
    /// A system event.
    Event(EventRecord),
    /// An application launch (from the app log).
    JobStart {
        /// ALPS application id.
        apid: i64,
        /// Launch time (ms).
        ts_ms: i64,
        /// Owning user.
        user: String,
        /// Application name.
        app: String,
        /// First allocated node.
        node_first: i64,
        /// Last allocated node.
        node_last: i64,
    },
    /// An application exit.
    JobEnd {
        /// ALPS application id.
        apid: i64,
        /// Exit time (ms).
        ts_ms: i64,
        /// Exit code.
        exit_code: i32,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etl::fastpath::FastParser;

    fn parse(line: &str) -> Option<ParsedLine> {
        FastParser::new().parse_line(line.as_bytes())
    }

    /// The event type a console line with this message text parses to.
    fn classify(text: &str) -> Option<String> {
        match parse(&format!("1 console n0 {text}")) {
            Some(ParsedLine::Event(ev)) => Some(ev.event_type.to_string()),
            _ => None,
        }
    }

    #[test]
    fn envelope_splits_and_keeps_text_spaces() {
        match parse("1500000000123 console c0-0c0s0n0 Machine Check Exception: bank 4") {
            Some(ParsedLine::Event(ev)) => {
                assert_eq!(ev.ts_ms, 1_500_000_000_123);
                assert_eq!(&*ev.source, "c0-0c0s0n0");
                assert_eq!(&*ev.raw, "Machine Check Exception: bank 4");
            }
            other => panic!("{other:?}"),
        }
        assert!(parse("notanumber console x DVS: y").is_none());
        assert!(parse("12 console").is_none());
    }

    #[test]
    fn classification_per_type() {
        let cases = [
            ("Machine Check Exception: bank 4: b200 addr 3f cpu 1", "MCE"),
            ("EDAC MC0: CE page 0x3aa2f, offset 0x630", "MEM_ECC"),
            ("EDAC MC2: UE page 0x1f00a, offset 0x0", "MEM_UE"),
            ("NVRM: Xid (0000:02:00): 48, Double Bit ECC Error at 0xdead", "GPU_DBE"),
            ("NVRM: Xid (0000:03:00): 79, GPU has fallen off the bus.", "GPU_OFF_BUS"),
            ("NVRM: Xid (0000:02:00): 62, GPU power excursion detected", "GPU_SXM_PWR"),
            (
                "LustreError: 11-0: atlas1-OST0041-osc-ffff00: Communicating with 10.36.1.1@o2ib, operation ost_read failed with -110",
                "LUSTRE_ERR",
            ),
            (
                "Lustre: atlas1-OST0041-osc-ffff00: Connection restored to atlas1-OST0041 (at 10.36.1.1@o2ib)",
                "LUSTRE_EVICT",
            ),
            (
                "LustreError: 167-0: atlas1-MDT0000-mdc-ffff00: This client was evicted by atlas1-MDT0000; in progress operations using this service will fail.",
                "LUSTRE_EVICT",
            ),
            ("DVS: file_node_down: removing c0-1c0s2n1 from list", "DVS_ERR"),
            ("HSN detected critical error: Gemini LCB lcb=g21l07 failed; initiating link recovery", "NET_LINK"),
            ("Gemini HSN congestion protection engaged: throttle=on watermark=0x7f", "NET_THROTTLE"),
            ("Kernel panic - not syncing: Fatal exception in interrupt", "KERNEL_PANIC"),
        ];
        for (text, want) in cases {
            assert_eq!(classify(text).as_deref(), Some(want), "{text}");
        }
        assert_eq!(classify("some harmless chatter"), None);
    }

    #[test]
    fn job_lines_parse_with_odd_app_names() {
        let line = "1500000000000 app alps apid 1000001 start user=usr0042 app=DCA++ nodes=128-255 width=128";
        match parse(line).unwrap() {
            ParsedLine::JobStart {
                apid,
                user,
                app,
                node_first,
                node_last,
                ts_ms,
            } => {
                assert_eq!(apid, 1_000_001);
                assert_eq!(user, "usr0042");
                assert_eq!(app, "DCA++");
                assert_eq!((node_first, node_last), (128, 255));
                assert_eq!(ts_ms, 1_500_000_000_000);
            }
            other => panic!("{other:?}"),
        }
        let line = "1500000360000 app alps apid 1000001 end exit=-9 runtime_s=360";
        match parse(line).unwrap() {
            ParsedLine::JobEnd {
                apid, exit_code, ..
            } => {
                assert_eq!(apid, 1_000_001);
                assert_eq!(exit_code, -9);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn event_lines_become_event_records_with_raw() {
        let line =
            "1500000000123 console c3-2c1s4n2 Machine Check Exception: bank 4: b2 addr 3f cpu 12";
        match parse(line).unwrap() {
            ParsedLine::Event(ev) => {
                assert_eq!(&*ev.event_type, "MCE");
                assert_eq!(&*ev.source, "c3-2c1s4n2");
                assert_eq!(ev.amount, 1);
                assert!(ev.raw.starts_with("Machine Check Exception"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unparseable_lines_yield_none() {
        assert!(parse("").is_none());
        assert!(parse("1500 console c0-0c0s0n0 just some chatter").is_none());
        assert!(parse("garbage").is_none());
    }

    #[test]
    fn generated_lines_all_parse() {
        // The ETL must understand everything loggen can emit.
        let topo = loggen::topology::Topology::scaled(2, 2);
        let scenario = loggen::trace::Scenario::generate(
            &topo,
            &loggen::trace::ScenarioConfig {
                rate_scale: 20.0,
                ..loggen::trace::ScenarioConfig::quiet_day(4)
            },
            11,
        );
        for line in &scenario.lines {
            assert!(
                parse(&line.render()).is_some(),
                "unparsed: {}",
                line.render()
            );
        }
    }

    #[test]
    fn parsed_event_types_match_ground_truth_counts() {
        let topo = loggen::topology::Topology::scaled(2, 2);
        let scenario = loggen::trace::Scenario::generate(
            &topo,
            &loggen::trace::ScenarioConfig {
                rate_scale: 10.0,
                ..loggen::trace::ScenarioConfig::quiet_day(6)
            },
            13,
        );
        let mut truth: std::collections::HashMap<&str, usize> = Default::default();
        for o in &scenario.truth {
            *truth.entry(o.event_type).or_default() += 1;
        }
        let mut parsed: std::collections::HashMap<String, usize> = Default::default();
        for line in &scenario.lines {
            if let Some(ParsedLine::Event(ev)) = parse(&line.render()) {
                *parsed.entry(ev.event_type.to_string()).or_default() += 1;
            }
        }
        for (t, n) in truth {
            assert_eq!(parsed.get(t).copied().unwrap_or(0), n, "type {t}");
        }
    }
}
