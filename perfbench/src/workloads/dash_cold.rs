//! `dash_cold` — the first view of a window: every cache tier misses.
//!
//! Set-up imports `titan_day`, closes it, then sizes the three tiers below
//! the sweep's working set (block cache 1 MiB, result cache 64 KiB) while
//! the columnar store keeps 16 MiB so the storm hour's block fits and its
//! four panels share one build. A round is one in-process sweep of 216
//! `QueryEngine::handle` calls: for each of 12 two-hour windows, for each
//! of four event types, `heatmap`, `distribution by cabinet`, `histogram
//! bin_ms 60000` and `wordcount top 10`; then `transfer_entropy` and
//! `events MCE limit 50`. Work item = timed call = one request. Chosen
//! because `read_multi`, the replica merge, `ColumnBlock::build`, the
//! kernels and jsonlite do all the work and the write path none: a quarter
//! of the requests build a block on first touch, three quarters scan a
//! block just built, and the wide storm partition sits in the tail.
//!
//! Every round starts from the state the previous sweep left, which is the
//! same each time, so the per-round counter deltas of the three tiers are
//! exact and a drift fails the run.

use super::dash;
use crate::stats::{median, Round};
use crate::world::{self, DAY_HOURS, HOUR_MS, T0};
use crate::{Ctx, Plan};
use hpclog_core::analytics::distribution::{distribution_of, GroupBy};
use hpclog_core::analytics::{heatmap, histogram, text, transfer_entropy};
use hpclog_core::columnar::ColumnBlock;
use hpclog_core::context::Context;
use hpclog_core::framework::Framework;
use hpclog_core::model::keys;
use hpclog_core::server::QueryEngine;
use std::sync::Arc;
use std::time::Instant;

/// Event types each window's four panels are drawn for.
const TYPES: [&str; 4] = ["LUSTRE_ERR", "MEM_ECC", "LUSTRE_EVICT", "DVS_ERR"];
/// Window length in hours.
const WINDOW_HOURS: i64 = 2;
/// How the rounds are run and reduced.
const PLAN: Plan = Plan {
    max_rounds: 5,
    pool_calls: false,
    median_call_is_work: true,
};

/// What a request asks for; selects the kernel the traced run calls
/// directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Panel {
    Heatmap,
    Distribution,
    Histogram,
    Wordcount,
    TransferEntropy,
    Events,
}

impl Panel {
    /// Span name of the kernel behind the panel.
    fn layer(self) -> &'static str {
        match self {
            Panel::Heatmap => "analytics.heatmap",
            Panel::Distribution => "analytics.distribution",
            Panel::Histogram => "analytics.histogram",
            Panel::Wordcount => "analytics.wordcount",
            Panel::TransferEntropy => "analytics.transfer_entropy",
            Panel::Events => "server.engine.events_fetch",
        }
    }
}

/// One request of the sweep.
struct Request {
    panel: Panel,
    etype: &'static str,
    from: i64,
    to: i64,
    body: String,
}

/// The 216 requests of one sweep, in order.
fn sweep() -> Vec<Request> {
    let mut out = Vec::new();
    for w in 0..DAY_HOURS / WINDOW_HOURS {
        let from = T0 + w * WINDOW_HOURS * HOUR_MS;
        let to = from + WINDOW_HOURS * HOUR_MS;
        let mut push = |panel, etype, body| {
            out.push(Request {
                panel,
                etype,
                from,
                to,
                body,
            })
        };
        for t in TYPES {
            push(Panel::Heatmap, t, dash::heatmap(t, from, to));
            push(Panel::Distribution, t, dash::distribution(t, from, to));
            push(Panel::Histogram, t, dash::histogram(t, from, to));
            push(Panel::Wordcount, t, dash::wordcount(t, from, to));
        }
        push(
            Panel::TransferEntropy,
            "LUSTRE_ERR",
            dash::transfer_entropy(from, to),
        );
        push(Panel::Events, "MCE", dash::events_mce(from, to));
    }
    out
}

/// Hit and miss counts of the three cache tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Tiers {
    result: (u64, u64),
    columnar: (u64, u64),
    block: (u64, u64),
    columnar_evictions: u64,
}

impl Tiers {
    fn of(fw: &Framework) -> Tiers {
        let (r, c, b) = (
            fw.result_cache().stats(),
            fw.columnar().stats(),
            fw.cluster().block_cache_stats(),
        );
        Tiers {
            result: (r.hits(), r.misses()),
            columnar: (c.hits, c.misses),
            block: (b.hits(), b.misses()),
            columnar_evictions: c.blocks_evicted,
        }
    }

    fn since(self, earlier: Tiers) -> Tiers {
        let d = |a: (u64, u64), b: (u64, u64)| (a.0 - b.0, a.1 - b.1);
        Tiers {
            result: d(self.result, earlier.result),
            columnar: d(self.columnar, earlier.columnar),
            block: d(self.block, earlier.block),
            columnar_evictions: self.columnar_evictions - earlier.columnar_evictions,
        }
    }
}

fn ratio((hits, misses): (u64, u64)) -> f64 {
    dash::hit_ratio(hits, misses)
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) {
    let (day, fw) = dash::seeded(ctx);
    ctx.stage("setup.prime_s", |_| {
        fw.cluster().set_block_cache_budget(1 << 20);
        fw.columnar().set_budget(16 << 20);
        fw.result_cache().set_budget(64 << 10);
    });
    let fw = Arc::new(fw);
    let engine = QueryEngine::new(Arc::clone(&fw));
    let requests = sweep();

    let mut reference: Vec<String> = Vec::new();
    let mut deltas: Vec<Tiers> = Vec::new();
    let mut first_traced_us: Vec<f64> = Vec::new();
    ctx.measure(PLAN, |ctx, index| {
        let before = Tiers::of(&fw);
        let mut round = Round::of(requests.len() as u64);
        let mut bodies = Vec::with_capacity(requests.len());
        let wall = Instant::now();
        for (i, req) in requests.iter().enumerate() {
            if i % 2 == 0 {
                round.reference();
            }
            ctx.rec.begin_op();
            let span = ctx.rec.enter("server.engine.handle");
            let t = Instant::now();
            let body = engine.handle(&req.body);
            round.call_ms.push(t.elapsed().as_secs_f64() * 1e3);
            ctx.rec.exit(span);
            bodies.push(body);
        }
        round.finish(wall);
        if index > 0 {
            deltas.push(Tiers::of(&fw).since(before));
        }
        if ctx.rec.enabled() && first_traced_us.is_empty() {
            first_traced_us = round.call_ms.iter().map(|ms| ms * 1e3).collect();
        }

        let bodies: Vec<String> = bodies.iter().map(|b| dash::sans_trace_id(b)).collect();
        for (i, (req, body)) in requests.iter().zip(&bodies).enumerate() {
            let mut ok = dash::is_ok(body);
            if ok && req.panel == Panel::Heatmap {
                let truth = world::truth_rows(&day, req.etype, req.from, req.to) as f64;
                ok = dash::heatmap_total(body) == Some(truth);
            }
            // Measured rounds must answer byte for byte as the warm-up did.
            ok &= index == 0 || reference.get(i) == Some(body);
            ctx.checks
                .op(ok, || format!("round {index}: {} -> {body:.200}", req.body));
        }
        if index == 0 {
            reference = bodies;
        }
        round
    });
    ctx.checks.op(deltas.windows(2).all(|w| w[0] == w[1]), || {
        format!("cache counters drift between rounds: {deltas:?}")
    });
    let per_round = deltas.first().copied().unwrap_or_default();
    println!(
        "per round (hits, misses): result cache {:?}, columnar {:?}, rasdb block {:?}; {} columnar evictions",
        per_round.result, per_round.columnar, per_round.block, per_round.columnar_evictions
    );

    if ctx.opts.trace {
        let v = &mut ctx.values;
        v.insert("server.cache.result.hit_ratio", ratio(per_round.result));
        v.insert("columnar.store.hit_ratio", ratio(per_round.columnar));
        v.insert("rasdb.cache.block.hit_ratio", ratio(per_round.block));
        v.insert(
            "columnar.store.evictions",
            per_round.columnar_evictions as f64,
        );
        v.insert(
            "columnar.bytes_resident",
            fw.columnar().stats().bytes_resident as f64,
        );
        v.insert(
            "server.cache.result.invalidations",
            fw.result_cache().stats().invalidations() as f64,
        );
        let stats = fw.cluster().stats();
        v.insert("rasdb.write.replica_applies", stats.writes as f64);
        v.insert("rasdb.write.flushes", stats.flushes as f64);
        v.insert("rasdb.write.compactions", stats.compactions as f64);
        v.extend(
            median(&ctx.rec.durations_us("server.engine.handle"))
                .map(|us| ("server.engine.miss_us_p50", us)),
        );
        layers(ctx, &fw, &requests, &reference, &first_traced_us);
    }
    // Freeing a day of rows takes seconds; the process is about to end.
    std::mem::forget((engine, fw));
}

/// The traced decomposition of the read path, on the sweep's own windows.
fn layers(
    ctx: &mut Ctx,
    fw: &Framework,
    requests: &[Request],
    responses: &[String],
    handle_us: &[f64],
) {
    ctx.rec.set_enabled(true);

    // The kernels behind the panels, called directly in sweep order: the
    // tiers go through the same states as in a round, so request i here
    // does the same reads and builds as request i there, and the
    // difference is what the engine adds (request parsing, cache probe,
    // envelope encoding, recorder, SLO accounting).
    let mut kernel_us = Vec::with_capacity(requests.len());
    for (i, req) in requests.iter().enumerate() {
        if i % 2 == 0 {
            ctx.layer_meter.tick();
        }
        ctx.rec.begin_op();
        let span = ctx.rec.enter(req.panel.layer());
        let t = Instant::now();
        let (t_, from, to) = (req.etype, req.from, req.to);
        let ok = match req.panel {
            Panel::Heatmap => heatmap::cabinet_heatmap(fw, t_, from, to).is_ok(),
            // The engine's distribution op fetches rows and groups them;
            // it does not use the columnar `distribution` kernel.
            Panel::Distribution | Panel::Events => Context::window(from, to)
                .with_type(t_)
                .fetch_events(fw)
                .and_then(|evs| match req.panel {
                    Panel::Distribution => distribution_of(fw, &evs, GroupBy::Cabinet).map(|_| ()),
                    _ => Ok(()),
                })
                .is_ok(),
            Panel::Histogram => histogram::event_histogram(fw, t_, from, to, 60_000).is_ok(),
            Panel::Wordcount => text::word_count_events(fw, t_, from, to)
                .map(|counts| text::top_k(&counts, 10))
                .is_ok(),
            Panel::TransferEntropy => transfer_entropy::te_lag_sweep(
                fw,
                "LUSTRE_ERR",
                "LUSTRE_EVICT",
                from,
                to,
                60_000,
                5,
            )
            .is_ok(),
        };
        kernel_us.push(t.elapsed().as_secs_f64() * 1e6);
        ctx.rec.exit(span);
        ctx.checks
            .op(ok, || format!("direct kernel call failed: {}", req.body));
    }
    let overhead: Vec<f64> = handle_us
        .iter()
        .zip(&kernel_us)
        .map(|(h, k)| h - k)
        .collect();

    // The storage read under every first touch, and the block build on
    // top of it.
    let before = fw.cluster().stats();
    let (mut plans_read, mut rows_read) = (0usize, 0usize);
    for req in requests.iter().filter(|r| r.panel == Panel::Heatmap) {
        ctx.layer_meter.tick();
        ctx.rec.begin_op();
        let plans = Framework::window_plans("event_by_time", Some(req.etype), req.from, req.to);
        let span = ctx.rec.enter("rasdb.read.read_multi");
        let batches = fw.cluster().read_multi(&plans, fw.consistency());
        ctx.rec.exit(span);
        let Ok(batches) = batches else {
            ctx.checks
                .op(false, || format!("read_multi failed: {}", req.body));
            continue;
        };
        plans_read += plans.len();
        for (hour, rows) in keys::hours_in(req.from, req.to).zip(&batches) {
            rows_read += rows.len();
            let span = ctx.rec.enter("columnar.build");
            let block = ColumnBlock::build(hour, req.etype, rows);
            ctx.rec.exit(span);
            ctx.checks
                .op(block.len() == rows.len(), || "block lost rows".to_owned());
        }
    }
    let after = fw.cluster().stats();

    // A window scan over blocks that are resident: the second of two.
    for req in requests.iter().filter(|r| r.panel == Panel::Heatmap) {
        let _ = fw.scan_window(req.etype, req.from, req.to);
        ctx.rec.begin_op();
        let span = ctx.rec.enter("columnar.scan_window");
        let scan = fw.scan_window(req.etype, req.from, req.to);
        ctx.rec.exit(span);
        ctx.checks
            .op(scan.is_ok(), || "scan_window failed".to_owned());
    }

    // JSON in and out: the request bodies parsed, the response values
    // encoded again.
    let mut encoded_bytes = 0usize;
    for (req, body) in requests.iter().zip(responses) {
        ctx.rec.begin_op();
        let span = ctx.rec.enter("jsonlite.parse");
        let parsed = jsonlite::parse(&req.body);
        ctx.rec.exit(span);
        ctx.checks
            .op(parsed.is_ok(), || "request is not JSON".to_owned());
        if let Ok(value) = jsonlite::parse(body) {
            let span = ctx.rec.enter("jsonlite.encode");
            encoded_bytes += jsonlite::to_string(&value).len();
            ctx.rec.exit(span);
        }
    }
    ctx.rec.set_enabled(false);

    let total_us = |name: &str| ctx.rec.layer(name).total_ns as f64 / 1e3;
    let p50 = |name: &str| median(&ctx.rec.durations_us(name));
    let reads = (after.reads - before.reads).max(1) as f64;
    let mut out: Vec<(&'static str, Option<f64>)> = vec![
        ("analytics.heatmap_us", p50("analytics.heatmap")),
        ("analytics.distribution_us", p50("analytics.distribution")),
        ("analytics.histogram_us", p50("analytics.histogram")),
        ("analytics.wordcount_us", p50("analytics.wordcount")),
        (
            "analytics.transfer_entropy_us",
            p50("analytics.transfer_entropy"),
        ),
        ("server.engine.overhead_us", median(&overhead)),
        ("columnar.scan_window_us", p50("columnar.scan_window")),
    ];
    out.extend([
        (
            "rasdb.read.read_multi_us_per_plan",
            Some(total_us("rasdb.read.read_multi") / plans_read.max(1) as f64),
        ),
        (
            "rasdb.read.rows_per_plan",
            Some(rows_read as f64 / plans_read.max(1) as f64),
        ),
        (
            "rasdb.read.sstable_probes_per_read",
            Some((after.sstable_probes - before.sstable_probes) as f64 / reads),
        ),
        (
            "rasdb.read.bloom_skips",
            Some((after.bloom_skips - before.bloom_skips) as f64),
        ),
        (
            "columnar.build_us_per_krow",
            Some(total_us("columnar.build") / rows_read.max(1) as f64 * 1e3),
        ),
        (
            "jsonlite.parse_us_per_request",
            Some(total_us("jsonlite.parse") / requests.len() as f64),
        ),
        (
            "jsonlite.encode_us_per_kib",
            Some(total_us("jsonlite.encode") / (encoded_bytes.max(1) as f64 / 1024.0)),
        ),
    ]);
    ctx.values
        .extend(out.into_iter().filter_map(|(k, v)| Some((k, v?))));
}
