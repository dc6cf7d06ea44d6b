//! Property tests across the framework's pipelines.

#[path = "support/bins.rs"]
mod reference_bins;
#[path = "support/context.rs"]
mod reference_context;
#[path = "support/tokens.rs"]
mod reference_tokens;

use hpclog_core::analytics::composite::{mine_rules, Scope};
use hpclog_core::analytics::text::{tokenize, tokens};
use hpclog_core::analytics::transfer_entropy::transfer_entropy_binary;
use hpclog_core::context::Context;
use hpclog_core::etl::fastpath::FastParser;
use hpclog_core::etl::parsers::ParsedLine;
use hpclog_core::framework::{Framework, FrameworkConfig};
use hpclog_core::model::event::EventRecord;
use hpclog_core::model::keys::HOUR_MS;
use loggen::topology::Topology;
use loggen::trace::{Facility, RawLine};
use proptest::prelude::*;
use reference_bins::bin_counts;
use reference_context::fetch_events_reference;
use reference_tokens::{tokenize_owned, word_count_reference, STOPWORDS};

fn arb_event_type() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("MCE"),
        Just("MEM_ECC"),
        Just("MEM_UE"),
        Just("GPU_DBE"),
        Just("GPU_OFF_BUS"),
        Just("LUSTRE_ERR"),
        Just("DVS_ERR"),
        Just("NET_THROTTLE"),
        Just("KERNEL_PANIC"),
    ]
}

/// A two-node, unreplicated framework monitoring `topology`.
fn boot(topology: Topology) -> Framework {
    Framework::new(FrameworkConfig {
        db_nodes: 2,
        replication_factor: 1,
        vnodes: 4,
        topology,
        ..Default::default()
    })
    .unwrap()
}

/// A raw line whose text matches the given type's ETL pattern.
fn line_for(etype: &str, ts: i64, node: usize) -> RawLine {
    let topo = Topology::scaled(2, 2);
    let text = match etype {
        "MCE" => "Machine Check Exception: bank 2: b200 addr 3f cpu 7".to_owned(),
        "MEM_ECC" => "EDAC MC1: CE page 0x3aa2f, offset 0x630".to_owned(),
        "MEM_UE" => "EDAC MC1: UE page 0x3aa2f, offset 0x0".to_owned(),
        "GPU_DBE" => "NVRM: Xid (0000:02:00): 48, Double Bit ECC Error".to_owned(),
        "GPU_OFF_BUS" => "NVRM: Xid (0000:02:00): 79, GPU has fallen off the bus.".to_owned(),
        "LUSTRE_ERR" => "LustreError: 11-0: atlas1-OST0041-osc-ffff00: operation failed".to_owned(),
        "DVS_ERR" => "DVS: file_node_down: removing server".to_owned(),
        "NET_THROTTLE" => "Gemini HSN congestion protection engaged: throttle=on".to_owned(),
        "KERNEL_PANIC" => "Kernel panic - not syncing: test".to_owned(),
        other => panic!("unknown type {other}"),
    };
    RawLine {
        ts_ms: ts,
        facility: Facility::Console,
        source: topo.node(node % topo.node_count()).cname,
        text,
    }
}

/// A stop word of the reference list, each letter in random case.
fn arb_stopword() -> impl Strategy<Value = String> {
    (0..STOPWORDS.len(), any::<u16>()).prop_map(|(i, case)| {
        let letter = |(at, c): (usize, char)| match (case >> at) & 1 {
            1 => c.to_ascii_uppercase(),
            _ => c,
        };
        STOPWORDS[i].chars().enumerate().map(letter).collect()
    })
}

/// Messages of hex runs, words, alphanumeric runs of exactly 2, 3, 10, 16
/// and 17 bytes (the shortest kept token, the longest stop word, the
/// longest token counted by its packed key and the shortest one counted as
/// a string — 16 bytes of hex digits too), every stop
/// word in random case — set apart, and glued to its neighbours — and
/// multi-byte characters — alone, and glued directly to alphanumeric runs
/// on both sides — joined by separators and by nothing.
fn arb_message() -> impl Strategy<Value = String> {
    // Latin, CJK, emoji, Unicode-only whitespace, a titlecase digraph and
    // an Arabic-Indic digit: alphanumeric or not, none is ASCII.
    let multibyte = || {
        let chars = ["é", "ß", "Ω", "日本", "🔥", "\u{a0}", "ǅ", "٣"];
        (0..chars.len()).prop_map(move |i| chars[i].to_owned())
    };
    let glued = ("[A-Za-z0-9]{1,4}", multibyte(), "[A-Za-z0-9]{1,4}");
    let piece = prop_oneof![
        3 => "[a-fA-F0-9]{1,5}",
        3 => "[A-Za-z]{1,6}",
        2 => "[A-Za-z0-9]{2}",
        2 => "[A-Za-z0-9]{3}",
        2 => "[A-Za-z0-9]{10}",
        2 => "[A-Za-z0-9]{16}",
        2 => "[A-Za-z0-9]{17}",
        1 => "[a-fA-F0-9]{16}",
        2 => arb_stopword(),
        3 => arb_stopword().prop_map(|w| format!(" {w}:")),
        2 => multibyte(),
        2 => glued.prop_map(|(a, m, b)| format!("{a}{m}{b}")),
        2 => "\\PC{1,3}",
        3 => "[ :_.-]{0,2}",
    ];
    prop::collection::vec(piece, 0..24).prop_map(|pieces| pieces.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The byte-class tokenizer says what the char-split reference says:
    /// the same tokens, in the same order, borrowed or owned.
    #[test]
    fn borrowed_tokens_are_the_owned_tokens(message in arb_message()) {
        let borrowed: Vec<&str> = tokens(&message).collect();
        prop_assert_eq!(&borrowed, &tokenize_owned(&message));
        prop_assert_eq!(tokenize(&message), borrowed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn etl_parse_recovers_type_source_and_time(
        etype in arb_event_type(),
        ts in 0i64..10_000_000_000_000,
        node in 0usize..384,
    ) {
        let line = line_for(etype, ts, node);
        match FastParser::new().parse_line(line.render().as_bytes()) {
            Some(ParsedLine::Event(ev)) => {
                prop_assert_eq!(&*ev.event_type, etype);
                prop_assert_eq!(ev.ts_ms, ts);
                prop_assert_eq!(&*ev.source, line.source);
                prop_assert_eq!(&*ev.raw, line.text);
            }
            other => prop_assert!(false, "parsed {:?}", other),
        }
    }

    #[test]
    fn bin_counts_conserve_in_window_mass(
        events in prop::collection::vec((0i64..100_000, 1i32..5), 0..200),
        bin_ms in 1i64..10_000,
    ) {
        let records: Vec<EventRecord> = events
            .iter()
            .map(|(ts, amount)| EventRecord {
                ts_ms: *ts,
                event_type: "MCE".into(),
                source: "n".into(),
                amount: *amount,
                raw: "".into(),
            })
            .collect();
        let bins = bin_counts(&records, 0, 100_000, bin_ms);
        let total: f64 = bins.iter().sum();
        let want: i32 = events.iter().map(|(_, a)| *a).sum();
        prop_assert_eq!(total as i32, want);
    }

    #[test]
    fn te_is_nonnegative_and_finite_on_arbitrary_series(
        x in prop::collection::vec(any::<bool>(), 0..300),
        y in prop::collection::vec(any::<bool>(), 0..300),
        lag in 1usize..6,
    ) {
        let te = transfer_entropy_binary(&x, &y, lag);
        prop_assert!(te >= 0.0, "te = {}", te);
        prop_assert!(te.is_finite());
        // TE is bounded by 1 bit for binary targets.
        prop_assert!(te <= 1.0 + 1e-9, "te = {}", te);
    }

    #[test]
    fn mined_rule_support_never_exceeds_antecedent_count(
        raw in prop::collection::vec((0i64..60_000, 0usize..8, arb_event_type()), 0..80),
        window in 1i64..30_000,
    ) {
        let topo = Topology::scaled(2, 2);
        let events: Vec<EventRecord> = raw
            .iter()
            .map(|(ts, node, t)| EventRecord {
                ts_ms: *ts,
                event_type: (*t).into(),
                source: topo.node(*node).cname.into(),
                amount: 1,
                raw: "".into(),
            })
            .collect();
        let rules = mine_rules(&events, &topo, window, Scope::Node, 1);
        for rule in &rules {
            let count_a = events.iter().filter(|e| *e.event_type == *rule.antecedent).count() as u64;
            prop_assert!(rule.support <= count_a);
            prop_assert!(rule.confidence <= 1.0 + 1e-9);
            prop_assert!(rule.lift >= 0.0);
        }
        // Node scope can never out-support system scope.
        let sys_rules = mine_rules(&events, &topo, window, Scope::System, 1);
        for rule in &rules {
            let sys = sys_rules
                .iter()
                .find(|r| r.antecedent == rule.antecedent && r.consequent == rule.consequent);
            if let Some(sys) = sys {
                prop_assert!(rule.support <= sys.support);
            }
        }
    }

    #[test]
    fn streaming_coalesce_preserves_mass_for_any_burst(
        bursts in prop::collection::vec((0i64..5_000, 0usize..8), 1..60),
    ) {
        use hpclog_core::etl::stream::{publish_lines, StreamIngester};
        let fw = boot(Topology::scaled(1, 1));
        let t0 = 1_500_000_000_000i64;
        let lines: Vec<RawLine> = bursts
            .iter()
            .map(|(dt, node)| {
                let mut l = line_for("MCE", t0 + dt, *node);
                l.ts_ms = t0 + dt;
                l
            })
            .collect();
        publish_lines(&fw, &lines).unwrap();
        let report = StreamIngester::new(&fw, "p", 60_000)
            .unwrap()
            .run_to_completion(64)
            .unwrap();
        prop_assert_eq!(report.events_in, lines.len());
        let mass: i32 = fw
            .events_by_type("MCE", t0, t0 + 10_000)
            .unwrap()
            .iter()
            .map(|e| e.amount)
            .sum();
        prop_assert_eq!(mass as usize, lines.len());
    }

    /// Replay idempotence: for any burst and any crash point, a restarted
    /// ingester that replays from the checkpoint converges to exactly the
    /// tables a crash-free run produces — duplicates are fully absorbed by
    /// the offset guard, the checkpointed watermark, and LWW upserts.
    #[test]
    fn streaming_replay_after_crash_is_idempotent(
        bursts in prop::collection::vec((0i64..90_000, 0usize..8), 1..80),
        crash_after_steps in 0usize..6,
        chunk in 1usize..24,
    ) {
        use hpclog_core::etl::stream::{publish_lines, StreamIngester};
        let t0 = 1_500_000_000_000i64;
        let lines: Vec<RawLine> = bursts
            .iter()
            .map(|(dt, node)| {
                let mut l = line_for("MCE", t0 + dt, *node);
                l.ts_ms = t0 + dt;
                l
            })
            .collect();
        let rows_of = |fw: &Framework| -> Vec<EventRecord> {
            let mut rows = fw.events_by_type("MCE", t0, t0 + 120_000).unwrap();
            rows.sort_by(|a, b| (a.ts_ms, &a.source).cmp(&(b.ts_ms, &b.source)));
            rows
        };

        // Reference: no crash.
        let clean = boot(Topology::scaled(1, 1));
        publish_lines(&clean, &lines).unwrap();
        StreamIngester::new(&clean, "p", 120_000)
            .unwrap()
            .run_to_completion(chunk)
            .unwrap();

        // Crashing run: ingest some steps, drop the ingester cold, resume.
        let fw = boot(Topology::scaled(1, 1));
        publish_lines(&fw, &lines).unwrap();
        {
            let mut first = StreamIngester::new(&fw, "p", 120_000).unwrap();
            for _ in 0..crash_after_steps {
                first.step(chunk).unwrap();
            }
        }
        StreamIngester::new(&fw, "p", 120_000)
            .unwrap()
            .run_to_completion(chunk)
            .unwrap();

        let mass: i32 = rows_of(&fw).iter().map(|e| e.amount).sum();
        prop_assert_eq!(mass as usize, lines.len(), "no loss, no double count");
        prop_assert_eq!(rows_of(&fw), rows_of(&clean), "tables identical to crash-free run");
    }

    /// The block kernels against their row-side references. Every hour of
    /// a scan is a column block, so this is the only place the two sides
    /// meet: for any events over three hours and any window — one aligned
    /// to ten minutes, one to nothing — what the kernels read off the
    /// blocks is what the reference functions compute from the rows, and
    /// what a fold over the events written here says it should be. Each
    /// event's message is drawn from `arb_message`, so the word count is
    /// held to the reference on the same adversarial text as `tokens`.
    #[test]
    fn block_kernels_agree_with_the_row_side_reference(
        raw in prop::collection::vec(
            (0..3 * HOUR_MS, 0usize..7, 1i32..4, any::<bool>(), arb_message()),
            0..60,
        ),
        aligned in (0i64..18, 1i64..18),
        unaligned in (0..3 * HOUR_MS, 0..3 * HOUR_MS),
        bin_ms in 60_000..HOUR_MS,
    ) {
        use hpclog_core::analytics::distribution::{distribution, distribution_of, GroupBy};
        use hpclog_core::analytics::heatmap::node_heatmap;
        use hpclog_core::analytics::synopsis::{build_synopsis, read_synopsis};
        use hpclog_core::analytics::bin_scan;
        use hpclog_core::analytics::text::word_count_events;
        use hpclog_core::model::apprun::AppRun;
        use std::collections::{BTreeMap, BTreeSet};

        let fw = boot(Topology::scaled(1, 2));
        let topo = fw.topology();
        // Two blades of cabinet 0, one node of cabinet 1, a source that
        // is no compute node at all, a second spelling of node 1 (the
        // parser takes leading zeros; per-node answers keep the two
        // strings apart) and a well-formed cname of a cabinet outside the
        // topology (unattributed, like `mds01`).
        let sources = [
            topo.node(0).cname,
            topo.node(1).cname,
            topo.node(5).cname,
            topo.node(100).cname,
            "mds01".to_owned(),
            "c0-0c0s0n01".to_owned(),
            "c9-0c0s0n0".to_owned(),
        ];
        prop_assert_eq!(topo.parse_cname(&sources[5]), Some(1));
        prop_assert_eq!(topo.parse_cname(&sources[6]), None);
        // Rows are keyed (type, ts, source): keep the last of each key so
        // what is written is exactly what must be read back.
        let mut written: BTreeMap<(&str, i64, &str), EventRecord> = BTreeMap::new();
        for (ts, src, amount, lustre, message) in &raw {
            let etype = if *lustre { "LUSTRE_ERR" } else { "MCE" };
            let source = sources[*src].as_str();
            written.insert((etype, *ts, source), EventRecord {
                ts_ms: *ts,
                event_type: etype.into(),
                source: source.into(),
                amount: *amount,
                raw: message.as_str().into(),
            });
        }
        let written: Vec<EventRecord> = written.into_values().collect();
        fw.insert_events(&written).unwrap();
        fw.insert_app_run(&AppRun {
            apid: 1,
            user: "usr1".into(),
            app: "VASP".into(),
            start_ms: 20 * 60_000,
            end_ms: 2 * HOUR_MS + 30 * 60_000,
            node_first: 0,
            node_last: 3,
            exit_code: 0,
            other_info: Default::default(),
        })
        .unwrap();

        let windows = [
            (aligned.0 * 600_000, (aligned.0 + aligned.1) * 600_000),
            (unaligned.0.min(unaligned.1), unaligned.0.max(unaligned.1) + 1),
        ];
        for (from, to) in windows {
            for etype in ["MCE", "LUSTRE_ERR"] {
                let truth: Vec<&EventRecord> = written
                    .iter()
                    .filter(|e| &*e.event_type == etype && (from..to).contains(&e.ts_ms))
                    .collect();
                let scan = fw.scan_window(etype, from, to).unwrap();
                let rows = fw.events_by_type(etype, from, to).unwrap();
                prop_assert_eq!(rows.iter().collect::<Vec<_>>(), truth);
                prop_assert_eq!(scan.records(), rows);
                prop_assert_eq!(bin_scan(&scan, bin_ms), bin_counts(&rows, from, to, bin_ms));
                for by in [GroupBy::Cabinet, GroupBy::Blade, GroupBy::Node, GroupBy::Application] {
                    let ctx = Context::window(from, to).with_type(etype);
                    prop_assert_eq!(
                        distribution(&fw, &ctx, by).unwrap(),
                        distribution_of(&fw, &rows, by).unwrap(),
                        "{:?}", by
                    );
                }
                prop_assert_eq!(
                    word_count_events(&fw, etype, from, to).unwrap(),
                    word_count_reference(rows.iter().map(|e| &*e.raw))
                );
                let mut slots = vec![0.0; topo.node_count()];
                for e in &truth {
                    if let Some(idx) = topo.parse_cname(&e.source) {
                        slots[idx] += e.amount as f64;
                    }
                }
                prop_assert_eq!(node_heatmap(&fw, etype, from, to).unwrap(), slots);
            }
            // Synopsis cells: per (type, hour) with in-window events, the
            // amount sum and the distinct sources.
            let mut cells: BTreeMap<(&str, i64), (i64, BTreeSet<&str>)> = BTreeMap::new();
            for e in written.iter().filter(|e| (from..to).contains(&e.ts_ms)) {
                let cell = cells.entry((&e.event_type, e.ts_ms / HOUR_MS)).or_default();
                cell.0 += e.amount as i64;
                cell.1.insert(&e.source);
            }
            prop_assert_eq!(build_synopsis(&fw, from, to).unwrap(), cells.len());
            let stored = read_synopsis(&fw, 0).unwrap();
            for ((etype, hour), (events, nodes)) in cells {
                let row = stored
                    .iter()
                    .find(|r| r.event_type == etype && r.hour == hour)
                    .expect("synopsis row written");
                prop_assert_eq!((row.events, row.nodes), (events, nodes.len() as i64));
            }
        }
    }

    /// Contexts on column blocks against the row side: for any events,
    /// runs and context (typed or untyped, with or without a source, a
    /// cabinet, a user and an app), `Context::fetch_events` returns what
    /// the reference reads as rows and filters, and `distribution` groups
    /// those rows as `distribution_of` does under all four groupings.
    /// Sources are those of `block_kernels_agree_with_the_row_side_reference`
    /// plus one that wrote nothing. Events lie in hours 24–27, and each run
    /// starts near one: at it, or a day before it and lasting over a day.
    /// Such a run attributes a row only if it started at most a day before
    /// the first *selected* row; the window's first row would reach back
    /// further.
    #[test]
    fn contexts_on_blocks_agree_with_the_row_side_reference(
        raw in prop::collection::vec((0..3 * HOUR_MS, 0usize..7, 1i32..4, 0usize..3), 0..120),
        runs in prop::collection::vec(
            (
                (0usize..2, 0usize..2),
                (0usize..1000, any::<bool>(), -600_000i64..600_000, 0..3 * HOUR_MS),
                (0i64..8, 0i64..120),
            ),
            0..6,
        ),
        contexts in prop::collection::vec(
            (0usize..4, 0usize..16, 0usize..6, 0usize..4, 0usize..4),
            1..6,
        ),
        window in (0..HOUR_MS, 2 * HOUR_MS..3 * HOUR_MS),
    ) {
        use hpclog_core::analytics::distribution::{distribution, distribution_of, GroupBy};
        use hpclog_core::model::apprun::AppRun;
        use std::collections::BTreeMap;

        const T0: i64 = 24 * HOUR_MS;
        let fw = boot(Topology::scaled(1, 2));
        let topo = fw.topology();
        let sources = [
            topo.node(0).cname,
            topo.node(1).cname,
            topo.node(5).cname,
            topo.node(100).cname,
            "mds01".to_owned(),
            "c0-0c0s0n01".to_owned(),
            "c9-0c0s0n0".to_owned(),
            topo.node(50).cname,
        ];
        let types = ["MCE", "LUSTRE_ERR", "GPU_DBE"];
        let (users, apps) = (["usr1", "usr2"], ["VASP", "LAMMPS"]);
        let mut written: BTreeMap<(&str, i64, &str), EventRecord> = BTreeMap::new();
        for (dt, src, amount, t) in &raw {
            let source = sources[*src].as_str();
            written.insert((types[*t], T0 + dt, source), EventRecord {
                ts_ms: T0 + dt,
                event_type: types[*t].into(),
                source: source.into(),
                amount: *amount,
                raw: "".into(),
            });
        }
        let written: Vec<EventRecord> = written.into_values().collect();
        fw.insert_events(&written).unwrap();
        // Each run starts near an event: at it, or a day before it and then
        // lasting a day more.
        for (apid, ((user, app), (at, early, offset, length), (first, width))) in
            runs.iter().enumerate()
        {
            let Some(event) = written.get(at % written.len().max(1)) else {
                break;
            };
            let day = if *early { 24 * HOUR_MS } else { 0 };
            let start_ms = event.ts_ms + offset - day;
            fw.insert_app_run(&AppRun {
                apid: apid as i64,
                user: users[*user].into(),
                app: apps[*app].into(),
                start_ms,
                end_ms: start_ms + day + length,
                node_first: *first,
                node_last: first + width,
                exit_code: 0,
                other_info: Default::default(),
            })
            .unwrap();
        }

        let (from, to) = (T0 + window.0, T0 + window.1);
        for (t, source, cabinet, user, app) in contexts {
            let ctx = Context {
                // Each filter is absent about half the time.
                event_type: [None, None, Some("MCE"), Some("LUSTRE_ERR")][t].map(str::to_owned),
                source: sources.get(source).cloned(),
                cabinet: [None, None, None, Some(0), Some(1), Some(5)][cabinet],
                user: user.checked_sub(2).map(|u| users[u].to_owned()),
                app: app.checked_sub(2).map(|a| apps[a].to_owned()),
                from_ms: from,
                to_ms: to,
            };
            let order = |a: &EventRecord, b: &EventRecord| {
                (a.ts_ms, &a.source, &a.event_type).cmp(&(b.ts_ms, &b.source, &b.event_type))
            };
            let mut want = fetch_events_reference(&ctx, &fw).unwrap();
            let mut got = ctx.fetch_events(&fw).unwrap();
            want.sort_by(order);
            got.sort_by(order);
            prop_assert_eq!(&got, &want, "{:?}", ctx);
            for by in [GroupBy::Cabinet, GroupBy::Blade, GroupBy::Node, GroupBy::Application] {
                prop_assert_eq!(
                    distribution(&fw, &ctx, by).unwrap(),
                    distribution_of(&fw, &want, by).unwrap(),
                    "{:?} by {:?}", ctx, by
                );
            }
        }
    }
}

/// `predict` bins every catalog type's column blocks; the row-side binner
/// over what `events_by_type` reads back must give the same series, bit for
/// bit, on aligned and hour-cutting windows.
#[test]
fn binned_series_equals_the_row_side_binner() {
    use hpclog_core::analytics::prediction::binned_series;
    use loggen::events::EVENT_CATALOG;
    use loggen::trace::{Scenario, ScenarioConfig};

    let topo = Topology::scaled(2, 2);
    let cfg = ScenarioConfig {
        rate_scale: 10.0,
        ..ScenarioConfig::mce_hotspot(3, 1)
    };
    let scenario = Scenario::generate(&topo, &cfg, 1977);
    let fw = boot(topo);
    fw.batch_import(&scenario.lines).unwrap();
    let start = cfg.start_ms;
    let windows = [
        (start, start + cfg.duration_ms),
        (start + 17 * 60_000, start + 2 * HOUR_MS + 5 * 60_000),
    ];
    let mut events = 0;
    for (from, to) in windows {
        for bin_ms in [60_000, 7 * 60_000] {
            let series = binned_series(&fw, from, to, bin_ms).unwrap();
            assert_eq!(series.len(), EVENT_CATALOG.len());
            for etype in EVENT_CATALOG {
                let rows = fw.events_by_type(etype.name, from, to).unwrap();
                events += rows.len();
                assert_eq!(
                    series[etype.name],
                    bin_counts(&rows, from, to, bin_ms),
                    "{} over [{from}, {to}) in {bin_ms} ms bins",
                    etype.name
                );
            }
        }
    }
    assert!(events > 0, "the scenario stored events");
}
