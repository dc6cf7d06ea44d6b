//! Differential equivalence: the byte scanner against the regex reference
//! oracle.
//!
//! The contract (DESIGN.md §13): for every input line — well-formed,
//! malformed, truncated, CRLF, embedded-NUL, multi-byte UTF-8, or raw byte
//! garbage — `FastParser` must produce exactly the `ParsedLine` the
//! compiled regex patterns produce (or exactly the same rejection), and a
//! chunk-parallel `import_bytes` must load the event and job tables, and
//! report the counts, that the oracle's line-by-line import does
//! (`support::oracle_import`).

mod support;

use hpclog_core::etl::batch::ImportOptions;
use hpclog_core::etl::fastpath::{split_chunks, FastParser, Lines, ScanPredicate, ScanStats};
use hpclog_core::framework::{Framework, FrameworkConfig};
use hpclog_core::model::event::EventRecord;
use loggen::topology::Topology;
use loggen::trace::{Scenario, ScenarioConfig};
use proptest::prelude::*;
use support::{oracle_import, reference_scan_line, EventParser};

/// Every event type the catalog can emit.
const EVENT_TYPES: [&str; 12] = [
    "MCE",
    "MEM_ECC",
    "MEM_UE",
    "GPU_DBE",
    "GPU_OFF_BUS",
    "GPU_SXM_PWR",
    "LUSTRE_ERR",
    "LUSTRE_EVICT",
    "DVS_ERR",
    "NET_LINK",
    "NET_THROTTLE",
    "KERNEL_PANIC",
];

/// Multi-byte characters spliced into lines: Latin, CJK, emoji, Unicode-only
/// whitespace (no-break space, em space, next line), a titlecase digraph and
/// an Arabic-Indic digit — none of them is `\s`, `\w` or `\d` to the
/// pattern set.
const MULTIBYTE: [&str; 8] = [
    "é",
    "日本語",
    "🔥",
    "\u{a0}",
    "\u{2003}",
    "\u{85}",
    "ǅ",
    "٣",
];

fn fw(topo: Topology) -> Framework {
    Framework::new(FrameworkConfig {
        db_nodes: 4,
        replication_factor: 2,
        vnodes: 8,
        topology: topo,
        ..Default::default()
    })
    .unwrap()
}

/// Imports `corpus` through the product and, at the same time, through the
/// oracle, each into a fresh framework, and asserts the two reports are
/// equal.
fn import_both(
    topo: &Topology,
    corpus: &[u8],
    pred: &ScanPredicate,
    chunk_target_bytes: usize,
) -> (Framework, Framework) {
    let (product, oracle) = (fw(topo.clone()), fw(topo.clone()));
    let opts = ImportOptions {
        predicate: pred.clone(),
        chunk_target_bytes: Some(chunk_target_bytes),
    };
    let (got, want) = std::thread::scope(|scope| {
        let want = scope.spawn(|| oracle_import(&oracle, corpus, pred));
        let got = product.batch_import_bytes(corpus.to_vec(), &opts).unwrap();
        (got, want.join().expect("oracle import"))
    });
    assert_eq!(got, want, "import reports diverge, pred {pred:?}");
    (product, oracle)
}

/// Adversarial lines appended to every corpus: malformed envelopes,
/// truncations, CRLF, NULs, multi-byte text, and overflow quirks.
fn adversarial_lines() -> Vec<&'static str> {
    vec![
        "",
        "garbage",
        "1500000000123 console",
        "1500000000123 console c0-0c0s0n0",
        "1500000000123 console c0-0c0s0n0 ",
        "1500000000123 console c0-0c0s0n0 Machine Check Exception: bank",
        "1500000000123 console c0-0c0s0n0 Machine Check Exception: bank 4\r",
        "1500000000124 console c0-0c0s0n0 DVS: with\0embedded nul",
        "1500000000125 console c0-0c0s0n0 Lustre: évicted client",
        "1500000000126 console c0-0c0s0n0 NVRM: Xid (0000:02:00): 99999999999,",
        "1500000000127 app alps apid 99999999999999999999 start user=u app=A nodes=0-1",
        "1500000000128 app alps apid 12 end exit=99999999999",
        "1500000000129 app alps apid 13 start user=u app=A nodes=0-1", // unmatched start
        "9223372036854775808 console n0 DVS: ts overflow",
        "-5 console n0 DVS: negative ts is legal",
    ]
}

fn with_adversarial_tail(mut corpus: Vec<u8>) -> Vec<u8> {
    for line in adversarial_lines() {
        corpus.extend_from_slice(line.as_bytes());
        corpus.push(b'\n');
    }
    corpus
}

/// Query windows that cover everything a test corpus can contain: the
/// scenario era (plus the 48h job-end spillover) and the hour around
/// zero where the negative-timestamp adversarial line lands.
fn query_windows(cfg: &ScenarioConfig) -> [(i64, i64); 2] {
    [
        (
            cfg.start_ms - 3_600_000,
            cfg.start_ms + cfg.duration_ms + 72 * 3_600_000,
        ),
        (-3_600_000, 3_600_000),
    ]
}

fn sorted(mut rows: Vec<EventRecord>) -> Vec<EventRecord> {
    rows.sort_by(|a, b| {
        (a.ts_ms, &a.event_type, &a.source, &a.raw).cmp(&(
            b.ts_ms,
            &b.event_type,
            &b.source,
            &b.raw,
        ))
    });
    rows
}

/// Byte range of the line that ends just before offset `at` (`at` follows
/// a newline) or, with `after`, of the line that starts at `at`.
fn line_at(corpus: &[u8], at: usize, after: bool) -> (usize, usize) {
    if after {
        let end = corpus[at..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(corpus.len(), |i| at + i);
        (at, end)
    } else {
        let end = at - 1;
        let start = corpus[..end]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        (start, end)
    }
}

/// Makes the `k`-th spliced line non-ASCII without changing its length, so
/// no newline moves and `split_chunks` cuts the corpus where it did before:
/// a two-byte character replaces the start of the `user=` or `app=` value
/// of a job start (which then no longer matches, as under the oracle), and
/// the start of the source or the end of the free text of any other line.
fn splice_in_place(line: &mut [u8], k: usize) {
    let even = k.is_multiple_of(2);
    let wide = ["é", "\u{a0}", "ǅ", "ü"][k / 2 % 4].as_bytes();
    let after = |needle: &[u8]| {
        line.windows(needle.len())
            .position(|w| w == needle)
            .map(|i| i + needle.len())
    };
    let at = if after(b" start user=").is_some() {
        after(if even { b" user=" } else { b" app=" })
    } else if even {
        // The source starts after the envelope's second space.
        let mut spaces = line.iter().enumerate().filter(|&(_, &b)| b == b' ');
        spaces.nth(1).map(|(i, _)| i + 1)
    } else {
        Some(line.len().saturating_sub(wide.len()))
    };
    if let Some(at) = at.filter(|&at| at + wide.len() <= line.len()) {
        line[at..at + wide.len()].copy_from_slice(wide);
    }
}

/// The main proof: a Titan-scale loggen corpus, with an adversarial
/// tail and a multi-byte line on both sides of every chunk cut, loads the
/// same event and job tables through the chunk-parallel product import as
/// through the oracle's line-by-line import.
#[test]
fn titan_corpus_tables_are_byte_identical_across_backends() {
    const CHUNK: usize = 16 * 1024;
    let topo = Topology::titan();
    let cfg = ScenarioConfig {
        rate_scale: 2.0,
        ..ScenarioConfig::storm_day(2, 41)
    };
    let scenario = Scenario::generate(&topo, &cfg, 4242);
    let mut corpus = with_adversarial_tail(scenario.render_corpus());
    assert!(
        scenario.lines.len() > 10_000,
        "Titan-scale corpus expected, got {} lines",
        scenario.lines.len()
    );
    let cuts: Vec<usize> = split_chunks(&corpus, CHUNK)
        .into_iter()
        .map(|(_, end)| end)
        .filter(|&end| end < corpus.len())
        .collect();
    let mut k = 0;
    for &cut in &cuts {
        for after in [false, true] {
            let (s, e) = line_at(&corpus, cut, after);
            if corpus[s..e].is_ascii() {
                splice_in_place(&mut corpus[s..e], k);
                k += 1;
            }
        }
    }
    // The splices moved no cut, and every cut has a multi-byte line on
    // each side.
    assert!(cuts.len() > 50, "only {} cuts", cuts.len());
    assert!(split_chunks(&corpus, CHUNK)
        .iter()
        .all(|&(_, end)| end == corpus.len() || cuts.contains(&end)));
    for &cut in &cuts {
        for after in [false, true] {
            let (s, e) = line_at(&corpus, cut, after);
            assert!(!corpus[s..e].is_ascii(), "ASCII line at cut {cut}");
        }
    }

    let (product, oracle) = import_both(&topo, &corpus, &ScanPredicate::default(), CHUNK);
    let mut multibyte_rows = 0;
    for (t0, t1) in query_windows(&cfg) {
        for etype in EVENT_TYPES {
            let a = sorted(product.events_by_type(etype, t0, t1).unwrap());
            let b = sorted(oracle.events_by_type(etype, t0, t1).unwrap());
            assert_eq!(a, b, "event_by_time rows diverge for {etype}");
            multibyte_rows += a
                .iter()
                .filter(|e| !e.source.is_ascii() || !e.raw.is_ascii())
                .count();
        }
    }
    assert!(
        multibyte_rows > cuts.len() / 2,
        "{multibyte_rows} multi-byte rows"
    );
    let (t0, t1) = query_windows(&cfg)[0];
    let mut jobs_a = product.apps_by_time(t0, t1).unwrap();
    let mut jobs_b = oracle.apps_by_time(t0, t1).unwrap();
    jobs_a.sort_by_key(|j| j.apid);
    jobs_b.sort_by_key(|j| j.apid);
    assert_eq!(jobs_a, jobs_b, "job tables diverge");
    assert!(jobs_a.iter().all(|j| j.user.is_ascii() && j.app.is_ascii()));
}

/// The event_by_location view is also byte-identical, checked per
/// source on a smaller topology where enumerating sources is cheap.
#[test]
fn location_table_is_byte_identical_across_backends() {
    let topo = Topology::scaled(3, 3);
    let cfg = ScenarioConfig {
        rate_scale: 12.0,
        ..ScenarioConfig::mce_hotspot(3, 2)
    };
    let scenario = Scenario::generate(&topo, &cfg, 99);
    let corpus = with_adversarial_tail(scenario.render_corpus());
    let (product, oracle) = import_both(&topo, &corpus, &ScanPredicate::default(), 8 * 1024);
    for (t0, t1) in query_windows(&cfg) {
        for i in 0..topo.node_count() {
            let source = topo.node(i).cname;
            let a = sorted(product.events_by_source(&source, t0, t1).unwrap());
            let b = sorted(oracle.events_by_source(&source, t0, t1).unwrap());
            assert_eq!(a, b, "event_by_location rows diverge for {source}");
        }
    }
}

/// Predicate pushdown keeps the product in lockstep with the oracle: same
/// kept tables AND the same report counters under window + type filters.
#[test]
fn pushdown_equivalence_across_backends() {
    let topo = Topology::scaled(2, 2);
    let cfg = ScenarioConfig {
        rate_scale: 15.0,
        ..ScenarioConfig::quiet_day(4)
    };
    let scenario = Scenario::generate(&topo, &cfg, 7);
    let corpus = scenario.render_corpus();
    let preds = [
        ScanPredicate::default().with_window(cfg.start_ms + 3_600_000, cfg.start_ms + 7_200_000),
        ScanPredicate::default().with_types(["MCE", "LUSTRE_ERR", "NET_THROTTLE"]),
        ScanPredicate::default()
            .with_window(cfg.start_ms, cfg.start_ms + 2 * 3_600_000)
            .with_types(["DVS_ERR", "MEM_ECC"]),
    ];
    for pred in preds {
        let (product, oracle) = import_both(&topo, &corpus, &pred, 4 * 1024);
        let (t0, t1) = query_windows(&cfg)[0];
        for etype in EVENT_TYPES {
            let a = sorted(product.events_by_type(etype, t0, t1).unwrap());
            let b = sorted(oracle.events_by_type(etype, t0, t1).unwrap());
            assert_eq!(a, b, "type {etype} pred {pred:?}");
        }
    }
}

// ---------------------------------------------------------------------------
// Line-level equivalence
// ---------------------------------------------------------------------------

/// Fast path and oracle must agree on a single line, both bare parse and
/// predicated scan.
fn assert_line_equiv(fast: &FastParser, oracle: &EventParser, line: &[u8], pred: &ScanPredicate) {
    let via_oracle = std::str::from_utf8(line).ok().and_then(|s| oracle.parse(s));
    assert_eq!(
        fast.parse_line(line),
        via_oracle,
        "parse diverges on {:?}",
        String::from_utf8_lossy(line)
    );
    let mut stats = ScanStats::default();
    assert_eq!(
        fast.scan_line(line, pred, &mut stats),
        reference_scan_line(oracle, line, pred),
        "scan diverges on {:?} pred {pred:?}",
        String::from_utf8_lossy(line)
    );
}

#[test]
fn tricky_lines_agree_with_the_oracle() {
    let lines = [
        // plain hits, one per type
        "1500000000123 console c0-0c0s0n0 Machine Check Exception: bank 4: b2 addr 3f cpu 1",
        "1 console n0 EDAC MC0: CE page 0x3aa2f, offset 0x630",
        "1 console n0 EDAC MC2: UE page 0x1f00a, offset 0x0",
        "1 console n0 NVRM: Xid (0000:02:00): 48, Double Bit ECC Error",
        "1 console n0 NVRM: Xid (0000:03:00): 79, GPU has fallen off the bus.",
        "1 console n0 NVRM: Xid (0000:02:00): 62, power excursion",
        "1 console n0 NVRM: Xid (0000:02:00): 13, Graphics Exception",
        "1 console n0 LustreError: 11-0: atlas1-OST0041-osc: op failed with -110",
        "1 console n0 Lustre: Connection restored to atlas1-OST0041",
        "1 console n0 LustreError: 167-0: client was evicted by atlas1-MDT0000",
        "1 console n0 DVS: file_node_down: removing c0-1c0s2n1",
        "1 netwatch n0 HSN error: Gemini LCB lcb=g21l07 failed; recovering",
        "1 netwatch n0 Gemini HSN congestion protection engaged: throttle=on",
        "1 console n0 Kernel panic - not syncing: Fatal exception",
        "1500000000000 app alps apid 1000001 start user=usr0042 app=DCA++ nodes=128-255 width=128",
        "1500000360000 app alps apid 1000001 end exit=-9 runtime_s=360",
        // structural near-misses that must fall through or reject
        "1 console n0 Machine Check Exception: bank x",
        "1 console n0 EDAC MC: CE page",
        "1 console n0 EDAC MC7: XE page",
        "1 console n0 NVRM: Xid (): 48,",
        "1 console n0 NVRM: Xid (0000:02:00): 48 no comma",
        "1 console n0 NVRM: Xid (0000:02:00): 99999999999,", // u32 overflow -> line rejected
        "1 console n0 Lustre:no space",
        "1 console n0 DVS:no space",
        "1 netwatch n0 Gemini LCB lcb= failed", // empty \S+ run
        "1 netwatch n0 Gemini LCB lcb=xfailed", // no space before failed
        "1 netwatch n0 Gemini LCB lcb=a b Gemini LCB lcb=c failed", // second occurrence wins
        "1 netwatch n0 Gemini LCB lcb=a\tfailed", // tab is not the literal space
        "1 console n0 a Kernel panic mentioned mid-line",
        "1 console n0 Kernel panic plus congestion protection engaged", // order: net_throttle first
        // multi-byte characters inside and around the classes
        "1 netwatch n0 Gemini LCB lcb=g21\u{a0}l07 failed", // no-break space is \S
        "1 netwatch n0 Gemini LCB lcb=g21\u{2003}failed",   // em space is not the literal
        "1 console n0 EDAC MC٣: CE page",                   // Arabic-Indic digit is not \d
        "1 console n0 NVRM: Xid (0000:０2:00): 48,",        // fullwidth digit is not [0-9a-f:]
        "1 console n0 LustreError: client was évicted",     // literal broken by a multi-byte char
        "1 console n0 Lustre: 🔥 Connection restored",
        // app facility quirks
        "1 app alps apid 99999999999999999999 start user=u app=A nodes=0-1", // i64 overflow -> rejected
        "1 app alps apid 12 start user=u app=A nodes=0-99999999999999999999", // node overflow
        "1 app alps apid 12 end exit=99999999999", // i32 overflow -> rejected
        "1 app alps apid 12 end exit=--3",
        "1 app alps apid 12 start user= app=A nodes=0-1", // empty user
        "1 app alps apid 12 start user=u- app=A nodes=0-1", // '-' not in \w, then " app=" missing
        "1 app alps apid 12 start user=ǅ app=A nodes=0-1", // titlecase letter is not \w
        "1 app alps apid 12 start user=u app=日本語 nodes=0-1",
        "1 app alps apid 12 end exit=0 runtime_s=日本語",
        "1 app alps Machine Check Exception: bank 2: on the app stream",
        // envelope quirks
        "",
        "   ",
        "12 console",
        "12 console n0",
        "12 console n0 ",
        "+12 console n0 DVS: x",
        "-12 console n0 DVS: x",
        "12  console n0 DVS: x",     // empty facility field
        "12\u{a0}console n0 DVS: x", // no-break space is not the separator
        "notanumber console n0 DVS: x",
        "9223372036854775808 console n0 DVS: x", // ts overflow
    ];
    let (fast, oracle) = (FastParser::new(), EventParser::new());
    for line in lines {
        assert_line_equiv(&fast, &oracle, line.as_bytes(), &ScanPredicate::default());
    }
}

#[test]
fn generated_corpus_parses_identically() {
    let topo = Topology::scaled(2, 2);
    let scenario = Scenario::generate(
        &topo,
        &ScenarioConfig {
            rate_scale: 15.0,
            ..ScenarioConfig::quiet_day(3)
        },
        23,
    );
    let (fast, oracle) = (FastParser::new(), EventParser::new());
    for line in &scenario.lines {
        let rendered = line.render();
        let parsed = fast.parse_line(rendered.as_bytes());
        assert!(parsed.is_some(), "unparsed: {rendered}");
        assert_eq!(parsed, oracle.parse(&rendered), "line {rendered:?}");
    }
}

/// Well-formed-ish fragments the mutators start from — every pattern
/// family plus near-misses.
fn template_lines() -> Vec<&'static str> {
    vec![
        "1500000000123 console c0-0c0s0n0 Machine Check Exception: bank 4: b2 addr 3f cpu 1",
        "1500000000124 console c1-2c0s3n1 EDAC MC0: CE page 0x3aa2f, offset 0x630",
        "1500000000125 console c1-2c0s3n1 EDAC MC2: UE page 0x1f00a, offset 0x0",
        "1500000000126 console c0-0c1s2n3 NVRM: Xid (0000:02:00): 48, Double Bit ECC Error",
        "1500000000127 console c0-0c1s2n3 NVRM: Xid (0000:03:00): 79, GPU has fallen off the bus.",
        "1500000000128 console c0-0c0s0n0 LustreError: 11-0: atlas1-OST0041-osc: op failed",
        "1500000000129 console c0-0c0s0n0 Lustre: Connection restored to atlas1-OST0041",
        "1500000000130 console c0-0c0s0n0 DVS: file_node_down: removing c0-1c0s2n1",
        "1500000000131 netwatch c0-0c0s0n0 HSN: Gemini LCB lcb=g21l07 failed; recovering",
        "1500000000132 netwatch c0-0c0s0n0 Gemini HSN congestion protection engaged: throttle=on",
        "1500000000133 console c0-0c0s0n0 Kernel panic - not syncing: Fatal exception",
        "1500000000000 app alps apid 1000001 start user=usr0042 app=DCA++ nodes=128-255 width=128",
        "1500000360000 app alps apid 1000001 end exit=-9 runtime_s=360",
        "1500000000134 console c0-0c0s0n0 routine chatter nothing matches",
    ]
}

fn preds() -> [ScanPredicate; 4] {
    [
        ScanPredicate::default(),
        ScanPredicate::default().with_window(1_500_000_000_000, 1_500_000_000_200),
        ScanPredicate::default().with_types(["MCE", "DVS_ERR", "GPU_DBE"]),
        ScanPredicate::default()
            .with_window(0, 1_500_000_000_130)
            .with_types(["LUSTRE_ERR", "LUSTRE_EVICT"]),
    ]
}

fn arb_pred() -> impl Strategy<Value = ScanPredicate> {
    (0usize..4).prop_map(|i| preds()[i].clone())
}

/// Every multi-byte character at every offset of every template line,
/// under each predicate in turn.
#[test]
fn every_multibyte_char_at_every_offset_agrees() {
    let (fast, oracle) = (FastParser::new(), EventParser::new());
    let preds = preds();
    for template in template_lines() {
        for (i, ch) in MULTIBYTE.iter().enumerate() {
            for at in 0..=template.len() {
                let line = format!("{}{ch}{}", &template[..at], &template[at..]);
                let pred = &preds[(i + at) % preds.len()];
                assert_line_equiv(&fast, &oracle, line.as_bytes(), pred);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Raw byte garbage: identical ParsedLine streams (or identical
    /// rejections) on both paths, line by line, for any chunking.
    #[test]
    fn byte_garbage_streams_are_identical(
        corpus in proptest::collection::vec(any::<u8>(), 0..600),
        target in 1usize..128,
        pred in arb_pred(),
    ) {
        let fast = FastParser::new();
        let oracle = EventParser::new();
        for line in Lines::new(&corpus) {
            assert_line_equiv(&fast, &oracle, line, &pred);
        }
        // Chunking never changes the line stream.
        let rejoined: Vec<&[u8]> = split_chunks(&corpus, target)
            .into_iter()
            .flat_map(|(s, e)| Lines::new(&corpus[s..e]))
            .collect();
        let whole: Vec<&[u8]> = Lines::new(&corpus).collect();
        prop_assert_eq!(rejoined, whole);
    }

    /// Mutated realistic lines: truncation, byte substitution (incl. \r,
    /// \0, space, and bytes that break UTF-8), and random predicates.
    #[test]
    fn mutated_template_lines_agree(
        idx in 0usize..14,
        cut in 0usize..100,
        mutate_at in 0usize..100,
        mutate_to in prop_oneof![
            Just(b'\r'), Just(b'\0'), Just(b' '), Just(b'\t'),
            Just(0xC3u8), Just(0xA9u8), Just(0xFFu8),
            Just(b'9'), Just(b'-'), Just(b'x'),
        ],
        pred in arb_pred(),
    ) {
        let templates = template_lines();
        let mut line = templates[idx % templates.len()].as_bytes().to_vec();
        // Truncate the tail (models a torn final line in a chunk).
        let keep = line.len().saturating_sub(cut % (line.len() + 1));
        line.truncate(keep);
        if !line.is_empty() {
            let at = mutate_at % line.len();
            line[at] = mutate_to;
        }
        let fast = FastParser::new();
        let oracle = EventParser::new();
        assert_line_equiv(&fast, &oracle, &line, &pred);
    }

    /// Multi-byte characters spliced at random offsets into realistic
    /// lines, several at once, under random predicates.
    #[test]
    fn multibyte_splices_agree(
        idx in 0usize..14,
        splices in proptest::collection::vec((0usize..200, 0usize..MULTIBYTE.len()), 1..4),
        pred in arb_pred(),
    ) {
        let mut line = template_lines()[idx].to_owned();
        for (at, ch) in splices {
            // Templates are ASCII and splices whole characters, so the
            // nearest boundary at or before `at` is a few bytes back.
            let mut at = at % (line.len() + 1);
            while !line.is_char_boundary(at) {
                at -= 1;
            }
            line.insert_str(at, MULTIBYTE[ch]);
        }
        let fast = FastParser::new();
        let oracle = EventParser::new();
        assert_line_equiv(&fast, &oracle, line.as_bytes(), &pred);
    }

    /// A corpus truncated at an arbitrary byte (torn download / partial
    /// flush) still parses identically on both paths.
    #[test]
    fn truncated_corpus_streams_are_identical(
        cut in 0usize..4096,
        pred in arb_pred(),
    ) {
        let templates = template_lines();
        let mut corpus = Vec::new();
        for (i, t) in templates.iter().cycle().take(40).enumerate() {
            corpus.extend_from_slice(t.as_bytes());
            // Alternate LF and CRLF terminators.
            if i % 3 == 1 {
                corpus.push(b'\r');
            }
            corpus.push(b'\n');
        }
        corpus.truncate(cut.min(corpus.len()));
        let fast = FastParser::new();
        let oracle = EventParser::new();
        for line in Lines::new(&corpus) {
            assert_line_equiv(&fast, &oracle, line, &pred);
        }
    }

    /// Chunk-splitter invariants hold for arbitrary corpora and targets.
    #[test]
    fn chunk_invariants_hold(
        corpus in proptest::collection::vec(any::<u8>(), 0..500),
        target in 1usize..64,
    ) {
        let chunks = split_chunks(&corpus, target);
        let mut pos = 0usize;
        for (s, e) in chunks {
            prop_assert_eq!(s, pos, "contiguous");
            prop_assert!(e > s, "non-empty");
            if e < corpus.len() {
                prop_assert_eq!(corpus[e - 1], b'\n', "ends after newline");
            }
            pos = e;
        }
        prop_assert_eq!(pos, corpus.len(), "covers corpus");
    }
}
