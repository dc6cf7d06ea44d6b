//! `pipeline` — runs one workload of the benchmark.
//!
//! ```text
//! pipeline --workload <import_day|stream_storm|dash_cold|dash_live>
//!          [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]
//!          [--repeat-check <k>]
//! ```
//!
//! Prints every metric by name with its unit, then, as the last line of
//! standard output, the result object the driver reads. The exit code is 0
//! only when every operation and every ground-truth check succeeded.

use hpclog_perfbench::report::{print_metrics, result_line, END_TO_END, PER_LAYER};
use hpclog_perfbench::{repeat, stats, workloads, Ctx, Options};
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Options::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pipeline: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(k) = opts.repeat_check {
        return match repeat::run(&opts, k) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("pipeline: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let mut ctx = Ctx::new(opts);
    println!(
        "workload {} seed {} ({} hardware threads){}",
        ctx.opts.workload,
        ctx.opts.seed,
        std::thread::available_parallelism().map_or(0, usize::from),
        if ctx.opts.smoke {
            " -- SMOKE: small topology, numbers not for comparison"
        } else {
            ""
        }
    );
    workloads::run(&mut ctx);
    ctx.values
        .extend(stats::peak_rss_mib().map(|mib| ("peak_rss_mib", mib)));

    println!("end to end:");
    print_metrics(END_TO_END, &ctx.values);
    let catalogue = if ctx.opts.trace {
        ctx.scale_layer_times();
        println!("per layer:");
        print_metrics(PER_LAYER, &ctx.values);
        match write_trace(&ctx) {
            Ok(path) => println!("trace: {} spans in {path}", ctx.rec.spans().len()),
            Err(e) => ctx.checks.op(false, || format!("trace file: {e}")),
        }
        PER_LAYER
    } else {
        END_TO_END
    };
    for note in ctx.checks.notes() {
        println!("FAILED: {note}");
    }
    // Smoke rounds are too short for a tail; the driver never runs them.
    let complete = ctx.opts.trace
        || ctx.opts.smoke
        || END_TO_END.iter().all(|d| ctx.values.contains_key(d.name));
    match result_line(catalogue, &ctx.values, &ctx.checks) {
        Some(line) if complete => {
            println!("{line}");
            let _ = std::io::stdout().flush();
            if ctx.checks.failed() == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!("pipeline: a metric is missing or not a number");
            ExitCode::FAILURE
        }
    }
}

/// Writes the span log to `trace-<workload>.jsonl` in the working directory.
fn write_trace(ctx: &Ctx) -> std::io::Result<String> {
    let path = format!("trace-{}.jsonl", ctx.opts.workload);
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    ctx.rec.write_jsonl(&mut out)?;
    Ok(path)
}
