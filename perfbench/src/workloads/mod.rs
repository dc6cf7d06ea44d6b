//! The four workloads. Names are fixed: later changes cite them.
//!
//! | workload | stresses | bypasses |
//! |---|---|---|
//! | `import_day` | fast-path scan, sparklet `run_job`, `insert_batch` | caches, analytics, HTTP |
//! | `stream_storm` | logbus, micro-batching, small store batches, commit hook | executors, caches, analytics, HTTP |
//! | `dash_cold` | `read_multi`, block build, kernels, JSON encoding | write path, result cache, HTTP |
//! | `dash_live` | result cache, HTTP frontend, invalidation, open-hour row scan | block builds of closed hours |

pub mod dash;
pub mod dash_cold;
pub mod dash_live;
pub mod import_day;
pub mod stream_storm;

use crate::Ctx;
use hpclog_core::etl::stream::StreamIngester;

/// Most records one `StreamIngester::step` polls.
const STEP_RECORDS: usize = 4096;

/// Steps the ingester, each step under an `etl.stream.step` span, until a
/// step polls less than a full batch; `false` when a step failed.
fn step_to_idle(ctx: &mut Ctx, ingester: &mut StreamIngester<'_>) -> bool {
    loop {
        let span = ctx.rec.enter("etl.stream.step");
        let polled = ingester.step(STEP_RECORDS);
        ctx.rec.exit(span);
        match polled {
            Ok(n) if n >= STEP_RECORDS => continue,
            Ok(_) => return true,
            Err(_) => return false,
        }
    }
}

/// Runs the workload `ctx.opts.workload` names.
pub fn run(ctx: &mut Ctx) {
    match ctx.opts.workload.as_str() {
        "import_day" => import_day::run(ctx),
        "stream_storm" => stream_storm::run(ctx),
        "dash_cold" => dash_cold::run(ctx),
        "dash_live" => dash_live::run(ctx),
        other => unreachable!("Options::parse admitted workload '{other}'"),
    }
}
