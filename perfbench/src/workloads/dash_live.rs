//! `dash_live` — reads beside writes: cached panels over HTTP while the
//! stream keeps invalidating the open hour.
//!
//! Set-up seeds `titan_day` as `dash_cold` does but keeps the default
//! budgets, primes eight closed-window panels (storm forensics 11:00–14:00
//! and whole-day `MEM_ECC`), starts the HTTP frontend and opens one
//! keep-alive connection. The live feed is a quiet day continuing after
//! the seeded one. A round is one live hour = 120 ticks of 30 s of event
//! time; each tick publishes its lines, steps the ingester until idle,
//! then POSTs to `/v1/query` the eight closed panels (result-cache hits)
//! and four panels over the last two hours (`heatmap MEM_ECC`,
//! `histogram MEM_ECC`, `distribution MEM_ECC`, `events MCE limit 50`),
//! which every commit invalidates. Work item = timed call = one HTTP round
//! trip; ingest time is inside the round's wall time. A third of the calls
//! are recomputes, so the median is a hit and the p95 an open-hour
//! recompute, both far from the 67% boundary between them. Chosen because
//! the result cache and `server::http` do the work at the median and
//! invalidation plus `scan_events_rdd` at the tail, while `dash_cold`
//! bypasses both.
//!
//! The open window is two hours so that every measured round sees the same
//! shape: one hour the stream has closed and the hour it is writing (the
//! warm-up's closed hour is the last of the seeded day). The open panels
//! are all on the quiet types: a `distribution LUSTRE_ERR` row read over
//! the open hours took 9 to 17 ms from one run to the next on a machine
//! whose reference chunks moved by a tenth, and it alone decided the p95.

use super::{dash, step_to_idle};
use crate::stats::{median, Round};
use crate::world::{self, DAY_HOURS, HOUR_MS, T0};
use crate::{Ctx, Plan};
use hpclog_core::etl::stream::{publish_lines, StreamConfig, StreamIngester};
use hpclog_core::framework::Framework;
use hpclog_core::server::{HttpConfig, HttpServer, QueryEngine};
use loggen::trace::RawLine;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Event time of one tick.
const TICK_MS: i64 = 30_000;
/// Ticks of one live hour.
const TICKS_PER_ROUND: usize = (HOUR_MS / TICK_MS) as usize;
/// Allowed lateness of the live ingester's windows.
const LATENESS_MS: i64 = 60_000;
/// Hours the open panels look back from the end of the live hour.
const OPEN_WINDOW_HOURS: i64 = 2;
/// How the rounds are run and reduced.
const PLAN: Plan = Plan {
    max_rounds: 5,
    pool_calls: false,
    median_call_is_work: false,
};

/// Live hours generated: the warm-up plus the most measured rounds a run
/// can make (a traced run measures with the recorder off, then on).
fn live_hours(trace: bool) -> i64 {
    1 + PLAN.max_rounds as i64 * if trace { 2 } else { 1 }
}

/// One keep-alive HTTP/1.1 client connection.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    /// One `POST /v1/query` round trip: status and body.
    fn post(&mut self, body: &str) -> std::io::Result<(u16, String)> {
        let request = format!(
            "POST /v1/query HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(request.as_bytes())?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_owned());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("status line"))?;
        let mut length = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let mut payload = vec![0u8; length.ok_or_else(|| bad("no Content-Length"))?];
        self.reader.read_exact(&mut payload)?;
        String::from_utf8(payload)
            .map(|text| (status, text))
            .map_err(|_| bad("body is not UTF-8"))
    }
}

/// The eight closed-window panels primed during set-up.
fn closed_panels() -> Vec<String> {
    let storm = (T0 + 11 * HOUR_MS, T0 + 14 * HOUR_MS);
    let day = (T0, T0 + DAY_HOURS * HOUR_MS);
    [("LUSTRE_ERR", storm), ("MEM_ECC", day)]
        .into_iter()
        .flat_map(|(t, (from, to))| {
            [
                dash::heatmap(t, from, to),
                dash::distribution(t, from, to),
                dash::histogram(t, from, to),
                dash::wordcount(t, from, to),
            ]
        })
        .collect()
}

/// The four panels over the two hours ending with the live hour.
fn open_panels(hour_end: i64) -> Vec<String> {
    let from = hour_end - OPEN_WINDOW_HOURS * HOUR_MS;
    vec![
        dash::heatmap("MEM_ECC", from, hour_end),
        dash::histogram("MEM_ECC", from, hour_end),
        dash::distribution("MEM_ECC", from, hour_end),
        dash::events_mce(from, hour_end),
    ]
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) {
    let smoke = ctx.opts.smoke;
    let (_day, fw) = dash::seeded(ctx);
    let fw = Arc::new(fw);
    let engine = Arc::new(QueryEngine::new(Arc::clone(&fw)));
    let live_start = T0 + DAY_HOURS * HOUR_MS;
    let hours = live_hours(ctx.opts.trace);
    let live = ctx.stage("setup.loggen_s", |c| {
        world::live_feed(smoke, c.opts.seed, hours)
    });
    // Lines past the generated hours (job ends) are never published.
    let live_end = live_start + hours * HOUR_MS;
    let fed = live.lines.partition_point(|l| l.ts_ms < live_end);
    let ticks = world::ticks(&live.lines[..fed], TICK_MS);
    println!(
        "live feed: {} lines over {hours} hours, {:.1} lines per {}-s tick",
        fed,
        fed as f64 / (hours as usize * TICKS_PER_ROUND) as f64,
        TICK_MS / 1000
    );

    let closed = closed_panels();
    let primed: Vec<String> = ctx.stage("setup.prime_s", |_| {
        closed
            .iter()
            .map(|q| dash::sans_trace_id(&engine.handle(q)))
            .collect()
    });
    for (q, body) in closed.iter().zip(&primed) {
        ctx.checks.op(dash::is_ok(body), || {
            format!("priming failed: {q} -> {body:.200}")
        });
    }
    let server = ctx.stage("setup.prime_s", |_| {
        HttpServer::start_with(
            Arc::clone(&engine),
            0,
            HttpConfig {
                workers: 2,
                rate_per_sec: 1e6,
                rate_burst: 1e6,
                ..HttpConfig::default()
            },
        )
    });
    let server = match server {
        Ok(s) => s,
        Err(e) => {
            ctx.checks
                .op(false, || format!("HTTP server did not start: {e}"));
            return;
        }
    };
    let mut ingester = StreamIngester::with_config(
        &fw,
        "perfbench-live",
        StreamConfig {
            lateness_ms: LATENESS_MS,
            ..StreamConfig::default()
        },
    )
    .expect("topic provisioned");
    // Connect right before the first request: the frontend drops a
    // connection that stays silent for its header-read timeout.
    let mut client = match Client::connect(server.addr()) {
        Ok(c) => c,
        Err(e) => {
            ctx.checks.op(false, || format!("connect failed: {e}"));
            return;
        }
    };

    let mut after_warmup = (0, 0, 0);
    let mut rounds_run = 0i64;
    let mut traced_lines = 0usize;
    let mut tick_of_hour = ticks.iter().peekable();
    ctx.measure(PLAN, |ctx, index| {
        let hour_start = live_start + index as i64 * HOUR_MS;
        let hour_end = hour_start + HOUR_MS;
        let open = open_panels(hour_end);
        let mut round = Round::default();
        let wall = Instant::now();
        for tick in 0..TICKS_PER_ROUND as i64 {
            let tick_end = hour_start + (tick + 1) * TICK_MS;
            round.reference();
            ctx.rec.begin_op();
            let feed = ctx.rec.enter("dash_live.feed");
            let mut fed_ok = true;
            while let Some(lines) = tick_of_hour.next_if(|l: &&&[RawLine]| l[0].ts_ms < tick_end) {
                let span = ctx.rec.enter("logbus.produce");
                fed_ok &= publish_lines(&fw, lines).is_ok();
                ctx.rec.exit(span);
                if ctx.rec.enabled() {
                    traced_lines += lines.len();
                }
            }
            fed_ok &= step_to_idle(ctx, &mut ingester);
            ctx.rec.exit(feed);
            ctx.checks
                .op(fed_ok, || "publish or step failed".to_owned());

            for (i, q) in closed.iter().chain(&open).enumerate() {
                ctx.rec.begin_op();
                let span = ctx.rec.enter(if i < closed.len() {
                    "server.http.roundtrip.hit"
                } else {
                    "server.http.roundtrip.open"
                });
                let t = Instant::now();
                let reply = client.post(q);
                round.call_ms.push(t.elapsed().as_secs_f64() * 1e3);
                ctx.rec.exit(span);
                let ok = reply.as_ref().is_ok_and(|(status, body)| {
                    *status == 200
                        && dash::is_ok(body)
                        // Closed panels answer byte for byte as when primed.
                        && primed.get(i).is_none_or(|p| *p == dash::sans_trace_id(body))
                });
                ctx.checks.op(ok, || format!("{q} -> {reply:.300?}"));
            }
        }
        round.finish(wall);
        round.items = round.call_ms.len() as u64;
        rounds_run += 1;
        if index == 0 {
            let s = fw.result_cache().stats();
            after_warmup = (s.hits(), s.misses(), s.invalidations());
        }
        round
    });

    if ctx.opts.trace {
        let klines = traced_lines.max(1) as f64 / 1e3;
        for (key, span) in [
            ("etl.stream.step_us_per_kline", "etl.stream.step"),
            ("logbus.produce_us_per_kline", "logbus.produce"),
        ] {
            let us = ctx.rec.layer(span).total_ns as f64 / 1e3;
            ctx.values.insert(key, us / klines);
        }
        layers(
            ctx,
            &fw,
            &engine,
            &closed,
            live_start + rounds_run * HOUR_MS,
        );
        let s = fw.result_cache().stats();
        let (hits, misses) = (s.hits() - after_warmup.0, s.misses() - after_warmup.1);
        let v = &mut ctx.values;
        v.insert(
            "server.cache.result.hit_ratio",
            dash::hit_ratio(hits, misses),
        );
        v.insert(
            "server.cache.result.invalidations",
            (s.invalidations() - after_warmup.2) as f64,
        );
        let block = fw.cluster().block_cache_stats();
        v.insert(
            "rasdb.cache.block.hit_ratio",
            dash::hit_ratio(block.hits(), block.misses()),
        );
        let col = fw.columnar().stats();
        v.insert(
            "columnar.store.hit_ratio",
            dash::hit_ratio(col.hits, col.misses),
        );
        v.insert("columnar.store.evictions", col.blocks_evicted as f64);
        v.insert("columnar.bytes_resident", col.bytes_resident as f64);
    }

    // End of stream: flush what the lateness allowance still buffers, then
    // every live hour must hold exactly what the generator emitted.
    drop(client);
    drop(server);
    match ingester.finish() {
        Ok(report) => {
            ctx.checks.op(
                report.late_drops == 0 && report.parse_failures == 0 && report.dlq_events == 0,
                || format!("live stream lost work: {report:?}"),
            );
            if ctx.opts.trace {
                let v = &mut ctx.values;
                v.insert("etl.stream.late_drops", report.late_drops as f64);
                v.insert("etl.stream.retries", report.retries as f64);
                v.insert("etl.stream.dlq_events", report.dlq_events as f64);
                v.insert(
                    "etl.stream.coalesce_ratio",
                    report.events_out as f64 / report.events_in.max(1) as f64,
                );
                let stats = fw.cluster().stats();
                v.insert("rasdb.write.replica_applies", stats.writes as f64);
                v.insert("rasdb.write.flushes", stats.flushes as f64);
                v.insert("rasdb.write.compactions", stats.compactions as f64);
            }
        }
        Err(e) => ctx.checks.op(false, || format!("finish failed: {e}")),
    }
    for h in 0..rounds_run {
        let (from, to) = (live_start + h * HOUR_MS, live_start + (h + 1) * HOUR_MS);
        let truth = world::truth_count(&live, "MEM_ECC", from, to) as f64;
        let got = dash::heatmap_total(&engine.handle(&dash::heatmap("MEM_ECC", from, to)));
        ctx.checks.op(got == Some(truth), || {
            format!("live hour {h}: heatmap total {got:?} != truth {truth}")
        });
    }
    // Freeing a day of rows takes seconds; the process is about to end.
    std::mem::forget((engine, fw));
}

/// The traced decomposition: the same panels answered in process, so the
/// HTTP frontend's share of a round trip is known, and the open hour's
/// row-path scan on its own.
fn layers(ctx: &mut Ctx, fw: &Framework, engine: &QueryEngine, closed: &[String], hour_end: i64) {
    /// In-process repetitions of each panel.
    const REPS: usize = 40;
    let hit_roundtrip = median(&ctx.rec.durations_us("server.http.roundtrip.hit"));
    ctx.rec.set_enabled(true);
    for _ in 0..REPS {
        ctx.layer_meter.tick();
        for q in closed {
            ctx.rec.begin_op();
            let span = ctx.rec.enter("server.engine.handle.hit");
            let body = engine.handle(q);
            ctx.rec.exit(span);
            ctx.checks
                .op(dash::is_ok(&body), || format!("in-process hit: {q}"));
        }
        // A commit at the current watermark moves nothing but drops the
        // open-window entries, as every ingest step does.
        fw.note_ingest_commit(fw.ingest_watermark());
        for q in &open_panels(hour_end)[..3] {
            ctx.rec.begin_op();
            let span = ctx.rec.enter("server.engine.handle.miss");
            let body = engine.handle(q);
            ctx.rec.exit(span);
            ctx.checks
                .op(dash::is_ok(&body), || format!("in-process miss: {q}"));
        }
        ctx.rec.begin_op();
        let span = ctx.rec.enter("sparklet.rdd.open_hour_scan");
        let events = fw
            .scan_events_rdd("MEM_ECC", hour_end - HOUR_MS, hour_end)
            .collect();
        ctx.rec.exit(span);
        std::hint::black_box(events);
    }
    for q in closed.iter().chain(&open_panels(hour_end)) {
        let span = ctx.rec.enter("jsonlite.parse");
        let parsed = jsonlite::parse(q);
        ctx.rec.exit(span);
        ctx.checks
            .op(parsed.is_ok(), || "request is not JSON".to_owned());
    }
    ctx.rec.set_enabled(false);

    let p50 = |name: &str| median(&ctx.rec.durations_us(name));
    let hit = p50("server.engine.handle.hit");
    let parse = ctx.rec.layer("jsonlite.parse");
    let out = [
        ("server.engine.hit_us_p50", hit),
        (
            "server.engine.miss_us_p50",
            p50("server.engine.handle.miss"),
        ),
        (
            "server.http.roundtrip_overhead_us_p50",
            hit_roundtrip.zip(hit).map(|(rt, h)| rt - h),
        ),
        (
            "sparklet.rdd.open_hour_scan_us",
            p50("sparklet.rdd.open_hour_scan"),
        ),
        (
            "jsonlite.parse_us_per_request",
            Some(parse.total_ns as f64 / 1e3 / parse.count.max(1) as f64),
        ),
    ];
    ctx.values
        .extend(out.into_iter().filter_map(|(k, v)| Some((k, v?))));
}
