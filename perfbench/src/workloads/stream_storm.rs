//! `stream_storm` — the write path used differently: one-second
//! micro-batches on one thread.
//!
//! Each round builds a fresh framework and a `StreamIngester` with two
//! seconds of allowed lateness, then replays `storm_hour` second by
//! second: publish that event-time second's lines, `step(4096)` until a
//! step returns fewer than 4,096 records; `finish()` ends the round. Work
//! item = line, timed call = one tick. The median tick is a quiet second
//! (poll + commit + cache-invalidation overhead), the p95 tick a storm
//! second (about a tenth of the ticks lie inside the storm). Chosen for
//! logbus, `MicroBatcher`/`coalesce`, small `insert_events` batches and
//! the commit hook, which `import_day` never touches.
//!
//! The hour is replayed tick by tick rather than drained from a backlog:
//! the consumer polls partitions one after another, so on a backlog the
//! watermark runs ahead of the other partitions and most events are
//! dropped as late — that would measure the drop path, not ingestion.

use super::{step_to_idle, STEP_RECORDS};
use crate::stats::{median, Round};
use crate::world;
use crate::{Ctx, Plan};
use hpclog_core::etl::fastpath::FastParser;
use hpclog_core::etl::parsers::ParsedLine;
use hpclog_core::etl::stream::{
    publish_lines, StreamConfig, StreamIngester, StreamReport, WINDOW_MS,
};
use hpclog_core::framework::{Framework, RAW_LOG_TOPIC};
use hpclog_core::model::EventRecord;
use logbus::Consumer;
use loggen::events::EVENT_CATALOG;
use loggen::trace::{RawLine, Scenario};
use sparklet::streaming::{coalesce, MicroBatcher};
use std::time::Instant;

/// Allowed lateness of the ingester's windows.
const LATENESS_MS: i64 = 2000;
/// How the rounds are run and reduced.
const PLAN: Plan = Plan {
    max_rounds: 5,
    pool_calls: false,
    median_call_is_work: true,
};
/// Ticks between two reference chunks (about a hundred chunks a round).
const REFERENCE_EVERY: usize = 32;
/// A tick of at most this many lines is "quiet".
const QUIET_LINES: usize = 5;

/// Checks one replayed hour against the generator's ground truth.
fn check_round(ctx: &mut Ctx, hour: &Scenario, fw: &Framework, report: StreamReport) {
    ctx.checks.op(
        report.late_drops == 0
            && report.parse_failures == 0
            && report.retries == 0
            && report.dlq_events == 0,
        || format!("stream lost or retried work: {report:?}"),
    );
    ctx.checks.op(report.polled == hour.lines.len(), || {
        format!("polled {} of {} lines", report.polled, hour.lines.len())
    });
    let (from, to) = (world::T0, world::T0 + 2 * world::HOUR_MS);
    for etype in EVENT_CATALOG {
        let stored: i64 = fw
            .events_by_type(etype.name, from, to)
            .map(|evs| evs.iter().map(|e| i64::from(e.amount)).sum())
            .unwrap_or(-1);
        let truth = world::truth_count(hour, etype.name, from, to) as i64;
        ctx.checks.op(stored == truth, || {
            format!("{} stored {stored} != truth {truth}", etype.name)
        });
    }
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) {
    let smoke = ctx.opts.smoke;
    let hour = ctx.stage("setup.loggen_s", |c| world::storm_hour(smoke, c.opts.seed));
    let ticks = world::ticks(&hour.lines, WINDOW_MS);
    println!(
        "dataset storm_hour: {} lines, {} truth events, {} one-second ticks ({} quiet)",
        hour.lines.len(),
        hour.truth.len(),
        ticks.len(),
        ticks.iter().filter(|t| t.len() <= QUIET_LINES).count()
    );

    let cfg = StreamConfig {
        lateness_ms: LATENESS_MS,
        ..StreamConfig::default()
    };
    let mut previous: Option<Framework> = None;
    let mut reports: Vec<StreamReport> = Vec::new();
    let mut stats = Vec::new();
    let mut framework_new_s = Vec::new();
    ctx.measure(PLAN, |ctx, _| {
        drop(previous.take());
        let t = Instant::now();
        let fw = world::framework(smoke);
        framework_new_s.push(t.elapsed().as_secs_f64());
        let mut round = Round::of(hour.lines.len() as u64);
        let mut ingester =
            StreamIngester::with_config(&fw, "perfbench", cfg).expect("topic provisioned");
        let mut failed = 0u64;
        let wall = Instant::now();
        for (i, tick) in ticks.iter().enumerate() {
            if i % REFERENCE_EVERY == 0 {
                round.reference();
            }
            ctx.rec.begin_op();
            let op = ctx.rec.enter(if tick.len() <= QUIET_LINES {
                "stream_storm.quiet_tick"
            } else {
                "stream_storm.tick"
            });
            let t = Instant::now();
            let span = ctx.rec.enter("logbus.produce");
            let published = publish_lines(&fw, tick);
            ctx.rec.exit(span);
            let ok = published.is_ok() & step_to_idle(ctx, &mut ingester);
            round.call_ms.push(t.elapsed().as_secs_f64() * 1e3);
            ctx.rec.exit(op);
            failed += u64::from(!ok);
        }
        let report = ingester.finish();
        round.finish(wall);
        ctx.checks.passed(ticks.len() as u64 - failed);
        for _ in 0..failed {
            ctx.checks.op(false, || "publish or step failed".to_owned());
        }
        match report {
            Ok(report) => {
                check_round(ctx, &hour, &fw, report);
                reports.push(report);
            }
            Err(e) => ctx.checks.op(false, || format!("finish failed: {e}")),
        }
        stats.push(fw.cluster().stats());
        previous = Some(fw);
        round
    });
    ctx.values
        .extend(median(&framework_new_s).map(|s| ("setup.framework_new_s", s)));
    ctx.checks.op(reports.windows(2).all(|w| w[0] == w[1]), || {
        format!("StreamReport differs between rounds: {reports:?}")
    });
    println!("per round: {:?}", reports.first());

    if ctx.opts.trace {
        drop(previous.take());
        let lines = hour.lines.len() as f64;
        let us = |ctx: &Ctx, name: &str| ctx.rec.layer(name).total_ns as f64 / 1e3;
        let traced_rounds = ctx.rec.layer("logbus.produce").count as f64 / ticks.len() as f64;
        let produce = us(ctx, "logbus.produce") / traced_rounds;
        let step = us(ctx, "etl.stream.step") / traced_rounds;
        // Steps of quiet ticks: children of the quiet tick spans.
        let spans = ctx.rec.spans();
        let quiet: Vec<f64> = spans
            .iter()
            .filter(|s| {
                s.name == "etl.stream.step"
                    && s.parent
                        .is_some_and(|p| spans[p].name == "stream_storm.quiet_tick")
            })
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect();
        let v = &mut ctx.values;
        v.insert("logbus.produce_us_per_kline", produce / lines * 1e3);
        v.insert("etl.stream.step_us_per_kline", step / lines * 1e3);
        v.extend(median(&quiet).map(|q| ("etl.stream.quiet_step_us", q)));
        if let (Some(r), Some(s)) = (reports.first(), stats.first()) {
            v.insert(
                "etl.stream.coalesce_ratio",
                r.events_out as f64 / r.events_in.max(1) as f64,
            );
            v.insert("etl.stream.late_drops", r.late_drops as f64);
            v.insert("etl.stream.retries", r.retries as f64);
            v.insert("etl.stream.dlq_events", r.dlq_events as f64);
            v.insert("rasdb.write.replica_applies", s.writes as f64);
            v.insert("rasdb.write.flushes", s.flushes as f64);
            v.insert("rasdb.write.compactions", s.compactions as f64);
        }
        layers(ctx, &ticks, hour.lines.len());
    } else {
        std::mem::forget(previous);
    }
}

/// The traced decomposition of a tick: poll from a probe group, the
/// micro-batcher with its coalescing, and the store call, each run by the
/// harness on the same ticks under its own span. Parsing sits between
/// poll and batch and is `etl.fastpath` again, so it is not repeated.
fn layers(ctx: &mut Ctx, ticks: &[&[RawLine]], lines: usize) {
    let fw = world::framework(ctx.opts.smoke);
    let mut probe =
        Consumer::new(fw.bus(), "perfbench-probe", RAW_LOG_TOPIC).expect("topic provisioned");
    let parser = FastParser::new();
    let mut batcher: MicroBatcher<EventRecord> =
        MicroBatcher::with_lateness(WINDOW_MS, LATENESS_MS);
    let (mut polled, mut stored, mut events_out) = (0usize, 0usize, 0usize);
    ctx.rec.set_enabled(true);
    let mut store = |ctx: &mut Ctx, ready: Vec<(i64, Vec<EventRecord>)>| {
        for (window_start, batch) in ready {
            let span = ctx.rec.enter("sparklet.streaming.batch");
            let mut merged = coalesce(
                batch,
                |e| (e.event_type.clone(), e.source.clone()),
                |a, b| a.amount += b.amount,
            );
            for e in &mut merged {
                e.ts_ms = window_start;
            }
            ctx.rec.exit(span);
            events_out += merged.len();
            let span = ctx.rec.enter("etl.stream.store");
            stored += fw.insert_events(&merged).unwrap_or(0);
            ctx.rec.exit(span);
        }
    };
    for (i, tick) in ticks.iter().enumerate() {
        if i % REFERENCE_EVERY == 0 {
            ctx.layer_meter.tick();
        }
        ctx.rec.begin_op();
        let op = ctx.rec.enter("stream_storm.staged_tick");
        if publish_lines(&fw, tick).is_err() {
            ctx.checks.op(false, || "probe publish failed".to_owned());
        }
        let span = ctx.rec.enter("logbus.poll");
        let records = probe.poll(STEP_RECORDS);
        ctx.rec.exit(span);
        // Committing keeps the bounded topic from filling up.
        let _ = probe.commit();
        polled += records.len();
        let events: Vec<EventRecord> = records
            .iter()
            .filter_map(|r| match parser.parse_line(r.value.as_bytes()) {
                Some(ParsedLine::Event(ev)) => Some(ev),
                _ => None,
            })
            .collect();
        let span = ctx.rec.enter("sparklet.streaming.batch");
        for ev in events {
            batcher.feed(ev.ts_ms, ev);
        }
        let ready = batcher.drain_ready();
        ctx.rec.exit(span);
        store(ctx, ready);
        ctx.rec.exit(op);
    }
    let rest = batcher.drain_all();
    store(ctx, rest);
    ctx.rec.set_enabled(false);
    ctx.checks.op(polled == lines, || {
        format!("probe polled {polled} of {lines} lines")
    });
    ctx.checks.op(stored == 2 * events_out, || {
        format!("probe stored {stored} rows for {events_out} events")
    });
    std::mem::forget(fw);

    let us = |name: &str| ctx.rec.layer(name).total_ns as f64 / 1e3;
    let (poll, batch, store_us) = (
        us("logbus.poll"),
        us("sparklet.streaming.batch"),
        us("etl.stream.store"),
    );
    let v = &mut ctx.values;
    v.insert("logbus.poll_us_per_kline", poll / lines as f64 * 1e3);
    v.insert(
        "sparklet.streaming.batch_us_per_kline",
        batch / lines as f64 * 1e3,
    );
    v.insert(
        "etl.stream.store_us_per_kevent",
        store_us / events_out.max(1) as f64 * 1e3,
    );
    v.insert(
        "rasdb.write.insert_batch_us_per_krow",
        store_us / stored.max(1) as f64 * 1e3,
    );
}
