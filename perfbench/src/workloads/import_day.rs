//! `import_day` — the bulk write path.
//!
//! Each round builds a fresh framework and imports `titan_day` as 100
//! consecutive slices (about 1,280 lines each) through
//! `Framework::batch_import_bytes`, the way log files arrive in batches.
//! Work item = line, timed call = one slice. Chosen because the fast-path
//! scan, sparklet's `run_job` and `Cluster::insert_batch` do all the work
//! here and the caches, analytics and HTTP none: a write-path change must
//! show on this workload and nowhere on `dash_cold` latency. The calls of
//! all measured rounds are pooled before p50/p95 are taken, 100 calls
//! being too few for a tail (three rounds give 300).
//!
//! `import_bytes` pairs job start/end lines only within one call, so a
//! job whose two lines fall into different slices is counted as two
//! unmatched fragments and its run is not stored; the check below
//! therefore accounts for fragments, not runs.

use crate::reference::SpeedMeter;
use crate::stats::{median, Round};
use crate::world;
use crate::{Ctx, Plan};
use hpclog_core::etl::batch::{ImportOptions, ImportReport};
use hpclog_core::etl::fastpath::{
    split_chunks, FastParser, LineOutcome, Lines, ScanPredicate, ScanStats,
};
use hpclog_core::etl::parsers::ParsedLine;
use hpclog_core::framework::Framework;
use hpclog_core::model::{AppRun, EventRecord};
use loggen::trace::Scenario;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Slices a day is imported as.
const SLICES: usize = 100;
/// How the rounds are run and reduced.
const PLAN: Plan = Plan {
    max_rounds: 4,
    pool_calls: true,
    median_call_is_work: true,
};

/// Field-wise sum of the reports of one round's slices.
fn add(a: ImportReport, b: ImportReport) -> ImportReport {
    ImportReport {
        parsed: a.parsed + b.parsed,
        skipped: a.skipped + b.skipped,
        filtered: a.filtered + b.filtered,
        fallbacks: a.fallbacks + b.fallbacks,
        event_rows: a.event_rows + b.event_rows,
        jobs: a.jobs + b.jobs,
        unmatched_jobs: a.unmatched_jobs + b.unmatched_jobs,
    }
}

/// Checks one round's summed report against the generator's ground truth.
fn check_report(ctx: &mut Ctx, day: &Scenario, total: ImportReport) {
    let lines = day.lines.len();
    ctx.checks.op(total.parsed == lines, || {
        format!("parsed {} of {lines} lines", total.parsed)
    });
    ctx.checks
        .op(total.skipped == 0 && total.fallbacks == 0, || {
            format!("skipped {} fallbacks {}", total.skipped, total.fallbacks)
        });
    ctx.checks.op(total.event_rows == 2 * day.truth.len(), || {
        format!("event_rows {} != 2 x {}", total.event_rows, day.truth.len())
    });
    ctx.checks.op(
        2 * total.jobs + total.unmatched_jobs == 2 * day.jobs.len(),
        || {
            format!(
                "job fragments: 2 x {} + {} != 2 x {}",
                total.jobs,
                total.unmatched_jobs,
                day.jobs.len()
            )
        },
    );
}

/// Checks what a round left in the store: the storm's type, read back.
fn check_stored(ctx: &mut Ctx, day: &Scenario, fw: &Framework) {
    let (from, to) = (world::T0, world::T0 + world::DAY_HOURS * world::HOUR_MS);
    let stored: i64 = fw
        .events_by_type("LUSTRE_ERR", from, to)
        .map(|evs| evs.iter().map(|e| i64::from(e.amount)).sum())
        .unwrap_or(-1);
    let truth = world::truth_rows(day, "LUSTRE_ERR", from, to) as i64;
    ctx.checks.op(stored == truth, || {
        format!("LUSTRE_ERR stored {stored} != truth {truth}")
    });
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) {
    let smoke = ctx.opts.smoke;
    let day = ctx.stage("setup.loggen_s", |c| world::titan_day(smoke, c.opts.seed));
    let slices: Vec<Vec<u8>> = ctx.stage("setup.loggen_s", |_| {
        let n = day.lines.len();
        (0..SLICES)
            .map(|i| world::render(&day.lines[i * n / SLICES..(i + 1) * n / SLICES]))
            .collect()
    });
    let bytes: usize = slices.iter().map(Vec::len).sum();
    println!(
        "dataset titan_day: {} lines, {} truth events, {} jobs, {:.1} MiB in {SLICES} slices",
        day.lines.len(),
        day.truth.len(),
        day.jobs.len(),
        bytes as f64 / (1 << 20) as f64
    );

    let opts = ImportOptions::default();
    let mut previous: Option<Framework> = None;
    let mut reports: Vec<ImportReport> = Vec::new();
    let mut applies: Vec<(u64, u64, u64)> = Vec::new();
    let mut framework_new_s = Vec::new();
    let measured = ctx.measure(PLAN, |ctx, _| {
        // Tearing down the previous round's cluster is not part of any round.
        drop(previous.take());
        let inputs = slices.clone();
        let t = Instant::now();
        let fw = world::framework(smoke);
        framework_new_s.push(t.elapsed().as_secs_f64());
        let mut round = Round::of(day.lines.len() as u64);
        let mut total = ImportReport::default();
        let wall = Instant::now();
        for slice in inputs {
            ctx.rec.begin_op();
            let span = ctx.rec.enter("etl.batch.import_bytes");
            let t = Instant::now();
            let report = fw.batch_import_bytes(slice, &opts);
            round.call_ms.push(t.elapsed().as_secs_f64() * 1e3);
            ctx.rec.exit(span);
            match report {
                Ok(r) => total = add(total, r),
                Err(e) => ctx.checks.op(false, || format!("import failed: {e}")),
            }
            round.reference();
        }
        round.finish(wall);
        ctx.checks.passed(SLICES as u64);
        check_report(ctx, &day, total);
        reports.push(total);
        // Reads are left out: read repair makes their count vary.
        let stats = fw.cluster().stats();
        applies.push((stats.writes, stats.flushes, stats.compactions));
        previous = Some(fw);
        round
    });
    ctx.values
        .extend(median(&framework_new_s).map(|s| ("setup.framework_new_s", s)));
    ctx.checks.op(reports.windows(2).all(|w| w[0] == w[1]), || {
        format!("ImportReport differs between rounds: {reports:?}")
    });
    ctx.checks.op(applies.windows(2).all(|w| w[0] == w[1]), || {
        format!("writes, flushes, compactions differ between rounds: {applies:?}")
    });
    println!("per round: {:?}", reports[0]);
    // Reading a day back takes a second: once, on the last round's store
    // (the rounds' reports and write counts were just shown to be equal).
    if let Some(fw) = &previous {
        check_stored(ctx, &day, fw);
    }

    if ctx.opts.trace {
        let (writes, flushes, compactions) = applies[0];
        ctx.values
            .insert("rasdb.write.replica_applies", writes as f64);
        ctx.values.insert("rasdb.write.flushes", flushes as f64);
        ctx.values
            .insert("rasdb.write.compactions", compactions as f64);
        // On the nominal machine, like the stage times it is compared with.
        let composed = &measured.untraced[0];
        let composed_wall_s = composed.wall_s * composed.meter.scale();
        drop(previous.take());
        layers(ctx, &day, &slices, composed_wall_s);
    } else {
        // Freeing a day of rows takes seconds; the process is about to end.
        std::mem::forget(previous);
    }
}

/// One application run from a paired start and end fragment.
fn pair(start: &ParsedLine, end: &ParsedLine) -> Option<AppRun> {
    let ParsedLine::JobStart {
        apid,
        ts_ms,
        user,
        app,
        node_first,
        node_last,
    } = start
    else {
        return None;
    };
    let ParsedLine::JobEnd {
        ts_ms: end_ms,
        exit_code,
        ..
    } = end
    else {
        return None;
    };
    Some(AppRun {
        apid: *apid,
        user: user.clone(),
        app: app.clone(),
        start_ms: *ts_ms,
        end_ms: *end_ms,
        node_first: *node_first,
        node_last: *node_last,
        exit_code: *exit_code,
        other_info: Default::default(),
    })
}

/// What one staged task measured on its executor thread.
struct StagedTask {
    /// Start of the scan, of the row build, of the upload, and its end.
    at: [Instant; 4],
    rows_written: usize,
    fragments: Vec<ParsedLine>,
}

/// Imports every slice through the composed call; the round's wall time
/// and the jobs it paired.
fn composed_import(fw: &Framework, slices: &[Vec<u8>]) -> (Round, usize) {
    let inputs = slices.to_vec();
    let opts = ImportOptions::default();
    let mut round = Round::default();
    let mut jobs = 0;
    let wall = Instant::now();
    for slice in inputs {
        jobs += fw.batch_import_bytes(slice, &opts).map_or(0, |r| r.jobs);
        round.reference();
    }
    round.finish(wall);
    (round, jobs)
}

/// The traced decomposition: the stages of `import_bytes`, each timed on
/// its own, where the program runs them — in executor tasks over the same
/// chunks of the same slices, on a one-executor engine so that they run
/// one after another — and the pairing of job fragments on the harness
/// thread; then the composed call on a one-executor engine, so that the
/// share of its time the stages do not explain is known.
///
/// How long an import takes depends on what the heap went through before
/// (the same one-executor import read 4.2 s after an equal store had been
/// built and freed, and 6.2 s otherwise), so a throw-away import goes first
/// and both measured passes start from the heap an equal store left.
fn layers(ctx: &mut Ctx, day: &Scenario, slices: &[Vec<u8>], composed_wall_s: f64) {
    let smoke = ctx.opts.smoke;
    let lines = day.lines.len() as f64;
    let conditioning = world::framework_with_workers(smoke, 1);
    composed_import(&conditioning, slices);
    drop(conditioning);

    ctx.rec.set_enabled(true);
    let fw = world::framework_with_workers(smoke, 1);
    let consistency = fw.consistency();
    let (mut rows_written, mut jobs_stored) = (0usize, 0usize);
    let mut staged_meter = SpeedMeter::default();
    for slice in slices {
        staged_meter.tick();
        ctx.rec.begin_op();
        let op = ctx.rec.enter("import_day.staged_slice");

        // Chunks and partitions exactly as `import_bytes` cuts them.
        let nparts = (fw.engine().workers() * 2).max(1);
        let chunks = split_chunks(slice, (slice.len() / nparts).max(64 * 1024));
        let rdd = fw.engine().parallelize(chunks, nparts);
        let corpus = Arc::new(slice.clone());
        let cluster = Arc::clone(fw.cluster());
        let tasks = fw
            .engine()
            .run_job(&rdd, move |_, ranges: Vec<(usize, usize)>| {
                let parser = FastParser::new();
                let pred = ScanPredicate::default();
                let mut stats = ScanStats::default();
                let mut events: Vec<EventRecord> = Vec::new();
                let mut fragments: Vec<ParsedLine> = Vec::new();
                let scan = Instant::now();
                for (start, end) in ranges {
                    for line in Lines::new(&corpus[start..end]) {
                        match parser.scan_line(line, &pred, &mut stats) {
                            LineOutcome::Event(ev) => events.push(ev),
                            LineOutcome::Job(job) => fragments.push(job),
                            LineOutcome::Skipped | LineOutcome::Filtered => {}
                        }
                    }
                }
                let build = Instant::now();
                let time_rows = events.iter().map(EventRecord::to_time_row).collect();
                let loc_rows = events.iter().map(EventRecord::to_location_row).collect();
                let upload = Instant::now();
                let a = cluster.insert_batch("event_by_time", time_rows, consistency);
                let b = cluster.insert_batch("event_by_location", loc_rows, consistency);
                StagedTask {
                    at: [scan, build, upload, Instant::now()],
                    rows_written: a.unwrap_or(0) + b.unwrap_or(0),
                    fragments,
                }
            });
        let mut fragments: Vec<ParsedLine> = Vec::new();
        for task in tasks {
            let [scan, build, upload, end] = task.at;
            ctx.rec.record("etl.fastpath.scan", scan, build);
            ctx.rec.record("etl.rows.build", build, upload);
            ctx.rec.record("rasdb.write.insert_batch", upload, end);
            rows_written += task.rows_written;
            fragments.extend(task.fragments);
        }

        let span = ctx.rec.enter("etl.batch.apps");
        let mut starts: HashMap<i64, &ParsedLine> = HashMap::new();
        let mut ends: HashMap<i64, &ParsedLine> = HashMap::new();
        for f in &fragments {
            match f {
                ParsedLine::JobStart { apid, .. } => starts.insert(*apid, f),
                ParsedLine::JobEnd { apid, .. } => ends.insert(*apid, f),
                ParsedLine::Event(_) => None,
            };
        }
        for (apid, start) in starts {
            if let Some(run) = ends.get(&apid).and_then(|end| pair(start, end)) {
                if fw.insert_app_run(&run).is_ok() {
                    jobs_stored += 1;
                }
            }
        }
        ctx.rec.exit(span);
        ctx.rec.exit(op);
    }
    ctx.rec.set_enabled(false);
    ctx.checks.op(rows_written == 2 * day.truth.len(), || {
        format!(
            "staged import wrote {rows_written} rows, truth has {}",
            day.truth.len()
        )
    });
    drop(fw);

    // The composed call on one executor: what the stages should add up to.
    let single = world::framework_with_workers(smoke, 1);
    let (single_round, single_jobs) = composed_import(&single, slices);
    let single_wall_s = single_round.wall_s * single_round.meter.scale();
    ctx.checks.op(single_jobs == jobs_stored, || {
        format!("staged import paired {jobs_stored} jobs, composed {single_jobs}")
    });
    std::mem::forget(single);

    let us = |name: &str| ctx.rec.layer(name).total_ns as f64 / 1e3;
    let (scan, rows, insert, apps) = (
        us("etl.fastpath.scan"),
        us("etl.rows.build"),
        us("rasdb.write.insert_batch"),
        us("etl.batch.apps"),
    );
    // The three durations compared below ran minutes apart: each is put
    // on the nominal machine by the speed measured alongside it.
    let stages_s = (scan + rows + insert + apps) / 1e6 * staged_meter.scale();
    ctx.layer_meter.merge(staged_meter);
    let v = &mut ctx.values;
    v.insert("etl.fastpath.scan_us_per_kline", scan / lines * 1e3);
    v.insert("etl.rows.build_us_per_kline", rows / lines * 1e3);
    v.insert(
        "rasdb.write.insert_batch_us_per_krow",
        insert / rows_written.max(1) as f64 * 1e3,
    );
    v.insert(
        "etl.batch.apps_us_per_job",
        apps / jobs_stored.max(1) as f64,
    );
    // Base of both ratios: the summed single-thread stage times.
    v.insert("sparklet.import.parallel_gain", stages_s / composed_wall_s);
    v.insert(
        "etl.batch.unexplained_share",
        1.0 - stages_s / single_wall_s,
    );
    println!(
        "import stages as measured (1 thread): scan {:.3} s, rows {:.3} s, insert {:.3} s, apps {:.3} s; \
         on the nominal machine: stages {stages_s:.3} s, composed {single_wall_s:.3} s with 1 worker, \
         {composed_wall_s:.3} s with 2",
        scan / 1e6,
        rows / 1e6,
        insert / 1e6,
        apps / 1e6,
    );
}
