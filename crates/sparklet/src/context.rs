//! The driver-side context: the executor count, the locality switch, and
//! the job runner.

use crate::rdd::{PartitionSource, Rdd};
use crate::Data;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

thread_local! {
    static WORKER_ID: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The executor index of the current thread inside a job's task; `None`
/// on any other thread. Data sources use this to detect whether they were
/// scheduled locally.
pub fn current_worker() -> Option<usize> {
    WORKER_ID.with(Cell::get)
}

/// The engine handle. Cheap to clone; all clones share the locality
/// switch.
#[derive(Clone)]
pub struct SparkletContext {
    workers: usize,
    locality: Arc<AtomicBool>,
}

impl SparkletContext {
    /// A context whose jobs run on up to `workers` executor threads each.
    /// No thread starts until a job runs.
    pub fn new(workers: usize) -> SparkletContext {
        SparkletContext {
            workers: workers.max(1),
            locality: Arc::new(AtomicBool::new(true)),
        }
    }

    /// Number of executors.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Enables/disables locality-aware task placement (ablation hook).
    /// When disabled, partition `p` runs on executor `p % workers`
    /// regardless of preferred executors.
    pub fn set_locality(&self, enabled: bool) {
        self.locality.store(enabled, Ordering::SeqCst);
    }

    /// Whether locality-aware placement is on.
    pub fn locality(&self) -> bool {
        self.locality.load(Ordering::SeqCst)
    }

    /// Distributes a vector over `num_partitions` partitions.
    pub fn parallelize<T: Data>(&self, data: Vec<T>, num_partitions: usize) -> Rdd<T> {
        let n = num_partitions.max(1);
        // Balanced split: the first `len % n` partitions get one extra item.
        let (base, extra) = (data.len() / n, data.len() % n);
        let mut iter = data.into_iter();
        let parts: Vec<Vec<T>> = (0..n)
            .map(|i| iter.by_ref().take(base + usize::from(i < extra)).collect())
            .collect();
        self.from_planned(parts, |_| None, Vec::clone)
    }

    /// Builds a dataset from a batch of storage read plans: one partition
    /// per plan, pinned to `preferred(&plan)`'s executor and materialized
    /// by `load(&plan)`. This is how rasdb scatter-gather plan batches
    /// enter the engine — driver-side `read_multi` callers and
    /// owner-pinned tasks share the same plan objects.
    pub fn from_planned<P, T>(
        &self,
        plans: Vec<P>,
        preferred: impl Fn(&P) -> Option<usize>,
        load: impl Fn(&P) -> Vec<T> + Send + Sync + 'static,
    ) -> Rdd<T>
    where
        P: Send + Sync + 'static,
        T: Data,
    {
        let load = Arc::new(load);
        let parts = plans
            .into_iter()
            .map(|plan| {
                let pinned = preferred(&plan);
                let load = Arc::clone(&load);
                PartitionSource {
                    preferred: pinned,
                    load: Arc::new(move || load(&plan)),
                }
            })
            .collect();
        Rdd {
            ctx: self.clone(),
            parts,
        }
    }

    /// Runs one job: loads every partition of `rdd` and applies `f` to it,
    /// on one scoped executor thread per executor index that has work (at
    /// most [`workers`](Self::workers)). Executor `w` first runs the
    /// partitions pinned to it — those preferring `w` with locality on,
    /// `p % workers` with locality off — then takes unpinned ones from a
    /// shared cursor. Results come back in partition order. A panicking
    /// task is re-raised on the driver once every other task has run.
    ///
    /// The calling thread runs no task, so what a task allocates and keeps
    /// (the rows an import stores) does not share an allocator arena with
    /// the caller's later work: a seed import run partly on the caller
    /// slowed the dashboard queries after it by ~11% (EXPERIMENTS C4).
    pub fn run_job<T: Data, R: Send>(
        &self,
        rdd: &Rdd<T>,
        f: impl Fn(usize, Vec<T>) -> R + Sync,
    ) -> Vec<R> {
        let parts: &[PartitionSource<T>] = &rdd.parts;
        if parts.is_empty() {
            return Vec::new();
        }
        let workers = self.workers;
        let locality = self.locality();
        let mut pinned = vec![Vec::new(); workers];
        let mut unpinned = Vec::new();
        for (p, part) in parts.iter().enumerate() {
            let home = if locality {
                part.preferred.filter(|&w| w < workers)
            } else {
                Some(p % workers)
            };
            match home {
                Some(w) => pinned[w].push(p),
                None => unpinned.push(p),
            }
        }
        let active = (0..workers).filter(|&w| !pinned[w].is_empty() || w < unpinned.len());

        let stage_span = telemetry::span!("sparklet.scheduler.stage");
        let stage_id = stage_span.id();
        // Tasks parent under the stage span *and* inherit the request's
        // trace id (the stage picked it up from the caller's thread-local),
        // so work on executor threads stays attributable to the request.
        let stage_ctx = stage_span.context();
        let hits = telemetry::global().counter("sparklet.scheduler.task.locality_hit");
        let misses = telemetry::global().counter("sparklet.scheduler.task.locality_miss");
        let run = |p: usize| {
            let part = &parts[p];
            let mut task_span = match &stage_ctx {
                Some(c) => telemetry::SpanGuard::enter_in("sparklet.scheduler.task", c),
                None => telemetry::span!("sparklet.scheduler.task", stage_id),
            };
            // Judged where the task landed, not where it was aimed.
            let hit = part.preferred.is_some() && current_worker() == part.preferred;
            task_span.tag("locality", if hit { "hit" } else { "miss" });
            if hit { &hits } else { &misses }.incr(1);
            (p, catch_unwind(AssertUnwindSafe(|| f(p, (part.load)()))))
        };
        // Hands out indices into `unpinned`, which no one writes during the
        // job: `Relaxed` publishes nothing else.
        let cursor = AtomicUsize::new(0);
        let executor = |w: usize| {
            WORKER_ID.with(|id| id.set(Some(w)));
            let mut done: Vec<_> = pinned[w].iter().map(|&p| run(p)).collect();
            while let Some(&p) = unpinned.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                done.push(run(p));
            }
            done
        };
        let mut done: Vec<_> = std::thread::scope(|s| {
            let spawned: Vec<_> = active.map(|w| s.spawn(move || executor(w))).collect();
            let joined = spawned
                .into_iter()
                .map(|e| e.join().unwrap_or_else(|p| resume_unwind(p)));
            joined.flatten().collect()
        });
        done.sort_unstable_by_key(|&(p, _)| p);
        done.into_iter()
            .map(|(p, result)| {
                result.unwrap_or_else(|panic| {
                    let msg = panic
                        .downcast_ref::<&str>()
                        .copied()
                        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                        .unwrap_or("opaque panic");
                    panic!("task for partition {p} panicked: {msg}")
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelize_balances_partitions() {
        let ctx = SparkletContext::new(2);
        let rdd = ctx.parallelize((0..10).collect::<Vec<i32>>(), 3);
        assert_eq!(rdd.num_partitions(), 3);
        let sizes = ctx.run_job(&rdd, |_, d| d.len());
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 3 || s == 4));
    }

    #[test]
    fn parallelize_more_partitions_than_items() {
        let ctx = SparkletContext::new(2);
        let rdd = ctx.parallelize(vec![1, 2], 8);
        assert_eq!(rdd.num_partitions(), 8);
        assert_eq!(rdd.collect(), vec![1, 2]);
    }

    #[test]
    fn empty_rdd_jobs_return_empty() {
        let ctx = SparkletContext::new(2);
        let rdd = ctx.parallelize(Vec::<i32>::new(), 4);
        assert_eq!(rdd.collect(), Vec::<i32>::new());
    }

    /// Plans `(owner, value)` whose loader reports the executor it ran on.
    fn placed(ctx: &SparkletContext, plans: Vec<(usize, i32)>) -> Rdd<(i32, Option<usize>)> {
        ctx.from_planned(plans, |p| Some(p.0), |p| vec![(p.1, current_worker())])
    }

    #[test]
    fn from_planned_pins_and_loads_per_plan() {
        let ctx = SparkletContext::new(2);
        let rdd = placed(&ctx, (0..6).map(|i| (i % 2, i as i32)).collect());
        assert_eq!(rdd.num_partitions(), 6);
        let loaded = rdd.collect();
        let on_owners: Vec<_> = (0..6).map(|i| (i as i32, Some(i % 2))).collect();
        assert_eq!(loaded, on_owners, "each plan loaded once, on its owner");
    }

    #[test]
    fn run_job_results_in_partition_order() {
        let ctx = SparkletContext::new(4);
        let rdd = ctx.parallelize((0..64).collect::<Vec<i32>>(), 16);
        let idx = ctx.run_job(&rdd, |p, _| p);
        assert_eq!(idx, (0..16).collect::<Vec<usize>>());
    }

    #[test]
    #[should_panic(expected = "task for partition 2 panicked: boom")]
    fn task_panic_propagates() {
        let ctx = SparkletContext::new(2);
        let rdd = ctx.parallelize(vec![1i32, 2, 3, 4], 4);
        let ran: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        let job = catch_unwind(AssertUnwindSafe(|| {
            ctx.run_job(&rdd, |p, _| {
                ran[p].fetch_add(1, Ordering::SeqCst);
                if p == 2 {
                    panic!("boom");
                }
                p
            })
        }));
        for (p, count) in ran.iter().enumerate() {
            assert_eq!(count.load(Ordering::SeqCst), 1, "partition {p} ran once");
        }
        assert_eq!(current_worker(), None);
        resume_unwind(job.expect_err("the job re-raises the task's panic"));
    }

    #[test]
    fn locality_toggle_changes_dispatch_counters() {
        let ctx = SparkletContext::new(2);
        // Every plan prefers executor 1.
        let rdd = placed(&ctx, (0..8).map(|i| (1, i)).collect());
        assert!(rdd.collect().iter().all(|l| l.1 == Some(1)), "all pinned");
        ctx.set_locality(false);
        let spread: Vec<_> = rdd.collect().iter().map(|l| l.1).collect();
        let round_robin: Vec<_> = (0..8).map(|p| Some(p % 2)).collect();
        assert_eq!(spread, round_robin, "placement ignores the preference");
    }

    #[test]
    fn current_worker_is_none_outside_a_job() {
        assert_eq!(current_worker(), None);
        let ctx = SparkletContext::new(3);
        let rdd = ctx.parallelize((0..9).collect::<Vec<i64>>(), 3);
        let offset = 10i64; // borrowed: no task needs to be `'static`
        let sums = ctx.run_job(&rdd, |_, part| part.iter().map(|v| v + offset).sum::<i64>());
        assert_eq!(sums, vec![33, 42, 51]);
        assert_eq!(current_worker(), None, "restored on the driver");
    }

    #[test]
    fn pinned_partitions_run_before_unpinned_ones() {
        let ctx = SparkletContext::new(1);
        // Odd plans are pinned to the only executor, even plans to none.
        let order = std::sync::Mutex::new(Vec::new());
        let rdd = ctx.from_planned(
            (0..6).collect(),
            |&p| (p % 2 == 1).then_some(0),
            |&p| vec![p],
        );
        ctx.run_job(&rdd, |_, loaded| order.lock().unwrap().extend(loaded));
        assert_eq!(order.into_inner().unwrap(), vec![1, 3, 5, 0, 2, 4]);
    }

    #[test]
    fn unpinned_work_goes_to_the_idle_executor() {
        let ctx = SparkletContext::new(2);
        // Partition 0 holds executor 0 until the eight unpinned partitions
        // are done, so executor 1 must run them all.
        let unpinned_done = AtomicUsize::new(0);
        let rdd = ctx.from_planned((0..9).collect(), |&p| (p == 0).then_some(0), |&p| vec![p]);
        let placed = ctx.run_job(&rdd, |p, _| {
            if p == 0 {
                let stalled = std::time::Instant::now() + std::time::Duration::from_secs(5);
                while unpinned_done.load(Ordering::SeqCst) < 8 {
                    assert!(std::time::Instant::now() < stalled, "executor 1 stalled");
                    std::thread::yield_now();
                }
            } else {
                unpinned_done.fetch_add(1, Ordering::SeqCst);
            }
            current_worker()
        });
        assert_eq!(placed[0], Some(0));
        assert!(placed[1..].iter().all(|&w| w == Some(1)), "{placed:?}");
    }

    #[test]
    fn out_of_range_preference_counts_as_unpinned() {
        let loaded = placed(&SparkletContext::new(2), vec![(99, 7)]).collect();
        assert!(matches!(loaded[..], [(7, Some(_))]), "{loaded:?}");
    }
}
