//! The driver-side context: the executor count and the job runner.

use crate::rdd::Rdd;
use crate::Data;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The engine handle. Cheap to clone.
#[derive(Clone)]
pub struct SparkletContext {
    workers: usize,
}

impl SparkletContext {
    /// A context whose jobs run on up to `workers` executor threads each.
    /// No thread starts until a job runs.
    pub fn new(workers: usize) -> SparkletContext {
        SparkletContext {
            workers: workers.max(1),
        }
    }

    /// Number of executors.
    pub fn workers(&self) -> usize {
        self.workers
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
        Rdd {
            ctx: self.clone(),
            parts: parts.into(),
        }
    }

    /// Runs one job: applies `f` to a copy of every partition of `rdd`, on
    /// one scoped executor thread per partition up to
    /// [`workers`](Self::workers). Each executor takes the next partition
    /// from a shared cursor until none is left, so an idle executor picks
    /// up the work a slow one has not reached. Results come back in
    /// partition order. A panicking task is re-raised on the driver once
    /// every other task has run.
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
        let parts: &[Vec<T>] = &rdd.parts;
        let stage_span = telemetry::span!("sparklet.scheduler.stage");
        let stage_id = stage_span.id();
        // Tasks parent under the stage span *and* inherit the request's
        // trace id (the stage picked it up from the caller's thread-local),
        // so work on executor threads stays attributable to the request.
        let stage_ctx = stage_span.context();
        let run = |p: usize| {
            let _task_span = match &stage_ctx {
                Some(c) => telemetry::SpanGuard::enter_in("sparklet.scheduler.task", c),
                None => telemetry::span!("sparklet.scheduler.task", stage_id),
            };
            (p, catch_unwind(AssertUnwindSafe(|| f(p, parts[p].clone()))))
        };
        // Hands out partition indices, which no one writes during the job:
        // `Relaxed` publishes nothing else.
        let cursor = AtomicUsize::new(0);
        let executor = || {
            let mut done = Vec::new();
            loop {
                let p = cursor.fetch_add(1, Ordering::Relaxed);
                if p >= parts.len() {
                    return done;
                }
                done.push(run(p));
            }
        };
        let mut done: Vec<_> = std::thread::scope(|s| {
            let executors = self.workers.min(parts.len());
            let spawned: Vec<_> = (0..executors).map(|_| s.spawn(executor)).collect();
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
        resume_unwind(job.expect_err("the job re-raises the task's panic"));
    }

    #[test]
    fn unpinned_work_goes_to_the_idle_executor() {
        let ctx = SparkletContext::new(2);
        // Whichever executor takes partition 0 holds it until the other
        // eight partitions are done, so the other executor must run them
        // all from the cursor.
        let rest_done = AtomicUsize::new(0);
        let rdd = ctx.parallelize((0..9).collect::<Vec<i32>>(), 9);
        let ran_on = ctx.run_job(&rdd, |p, _| {
            if p == 0 {
                let stalled = std::time::Instant::now() + std::time::Duration::from_secs(5);
                while rest_done.load(Ordering::SeqCst) < 8 {
                    assert!(
                        std::time::Instant::now() < stalled,
                        "the idle executor stalled"
                    );
                    std::thread::yield_now();
                }
            } else {
                rest_done.fetch_add(1, Ordering::SeqCst);
            }
            std::thread::current().id()
        });
        assert!(ran_on[1..].iter().all(|&t| t == ran_on[1]), "{ran_on:?}");
        assert_ne!(ran_on[0], ran_on[1], "one executor ran everything");
        assert_ne!(
            ran_on[0],
            std::thread::current().id(),
            "the driver ran a task"
        );
    }
}
