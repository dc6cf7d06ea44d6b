//! The driver-side context: owns the executor pool and runs jobs.

use crate::pool::ExecutorPool;
use crate::rdd::{PartitionSource, Rdd};
use crate::Data;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

struct CtxInner {
    pool: ExecutorPool,
    locality: AtomicBool,
}

/// The engine handle. Cheap to clone; all clones share the same executors.
#[derive(Clone)]
pub struct SparkletContext {
    inner: Arc<CtxInner>,
}

impl SparkletContext {
    /// Starts a context with `workers` executor threads.
    pub fn new(workers: usize) -> SparkletContext {
        SparkletContext {
            inner: Arc::new(CtxInner {
                pool: ExecutorPool::new(workers),
                locality: AtomicBool::new(true),
            }),
        }
    }

    /// Number of executors.
    pub fn workers(&self) -> usize {
        self.inner.pool.workers()
    }

    /// Enables/disables locality-aware task placement (ablation hook).
    /// When disabled, tasks are spread round-robin regardless of
    /// preferred executors.
    pub fn set_locality(&self, enabled: bool) {
        self.inner.locality.store(enabled, Ordering::SeqCst);
    }

    /// Whether locality-aware placement is on.
    pub fn locality(&self) -> bool {
        self.inner.locality.load(Ordering::SeqCst)
    }

    /// Dispatch statistics (locality experiments).
    pub fn pool_stats(&self) -> (u64, u64) {
        let s = self.inner.pool.stats();
        (s.local_dispatches(), s.other_dispatches())
    }

    /// Distributes a vector over `num_partitions` partitions.
    pub fn parallelize<T: Data>(&self, data: Vec<T>, num_partitions: usize) -> Rdd<T> {
        let n = num_partitions.max(1);
        let len = data.len();
        // Balanced split: the first `len % n` partitions get one extra item.
        let base = len / n;
        let extra = len % n;
        let mut iter = data.into_iter();
        let parts = (0..n)
            .map(|i| {
                let part: Arc<Vec<T>> =
                    Arc::new(iter.by_ref().take(base + usize::from(i < extra)).collect());
                PartitionSource {
                    preferred: None,
                    load: Arc::new(move || part.as_ref().clone()),
                }
            })
            .collect();
        Rdd {
            ctx: self.clone(),
            parts,
        }
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

    /// Runs one job: loads every partition of `rdd` on the pool and
    /// applies `f` to each loaded partition. Results come back in
    /// partition order. Panics in tasks propagate to the driver.
    pub fn run_job<T: Data, R: Send + 'static>(
        &self,
        rdd: &Rdd<T>,
        f: impl Fn(usize, Vec<T>) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        let n = rdd.num_partitions();
        if n == 0 {
            return Vec::new();
        }
        let f = Arc::new(f);
        let (tx, rx) = std::sync::mpsc::channel();
        let locality = self.locality();
        let stage_span = telemetry::span!("sparklet.scheduler.stage");
        let stage_id = stage_span.id();
        // Trace context for executor threads: tasks parent under the stage
        // span *and* inherit the request's trace id (the stage picked it up
        // from the engine's thread-local), so cross-thread analytics work
        // stays attributable to the originating request.
        let stage_ctx = stage_span.context();
        for (p, part) in rdd.parts.iter().enumerate() {
            let load = Arc::clone(&part.load);
            let f = Arc::clone(&f);
            let tx = tx.clone();
            let preferred = part.preferred;
            let task = Box::new(move || {
                // Child of the stage span even though it runs on an
                // executor thread; locality is judged where the task
                // actually landed, not where it was aimed.
                let mut task_span = match stage_ctx {
                    Some(c) => telemetry::SpanGuard::enter_in("sparklet.scheduler.task", &c),
                    None => telemetry::span!("sparklet.scheduler.task", stage_id),
                };
                let hit = preferred.is_some() && crate::pool::current_worker() == preferred;
                task_span.tag("locality", if hit { "hit" } else { "miss" });
                telemetry::global()
                    .counter(if hit {
                        "sparklet.scheduler.task.locality_hit"
                    } else {
                        "sparklet.scheduler.task.locality_miss"
                    })
                    .incr(1);
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let data = load();
                    f(p, data)
                }));
                drop(task_span);
                // Receiver hang-ups only happen when the driver already
                // panicked; nothing useful to do with the error then.
                let _ = tx.send((p, result));
            });
            if locality {
                self.inner.pool.submit(preferred, task);
            } else {
                self.inner.pool.submit_round_robin(task);
            }
        }
        drop(tx);
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (p, result) = rx.recv().expect("executor alive");
            match result {
                Ok(r) => results[p] = Some(r),
                Err(panic) => {
                    let msg = panic
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "opaque panic".to_owned());
                    panic!("task for partition {p} panicked: {msg}");
                }
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("all received"))
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
    fn from_planned_pins_and_loads_per_plan() {
        let ctx = SparkletContext::new(2);
        let plans: Vec<(usize, i32)> = (0..6).map(|i| (i % 2, i as i32)).collect();
        let rdd = ctx.from_planned(plans, |p| Some(p.0), |p| vec![p.1, p.1 + 100]);
        assert_eq!(rdd.num_partitions(), 6);
        assert_eq!(
            rdd.collect(),
            vec![0, 100, 1, 101, 2, 102, 3, 103, 4, 104, 5, 105]
        );
        let (local, _) = ctx.pool_stats();
        assert_eq!(local, 6, "every plan partition pinned to its owner");
    }

    #[test]
    fn run_job_results_in_partition_order() {
        let ctx = SparkletContext::new(4);
        let rdd = ctx.parallelize((0..64).collect::<Vec<i32>>(), 16);
        let idx = ctx.run_job(&rdd, |p, _| p);
        assert_eq!(idx, (0..16).collect::<Vec<usize>>());
    }

    #[test]
    #[should_panic(expected = "task for partition")]
    fn task_panic_propagates() {
        let ctx = SparkletContext::new(2);
        let rdd = ctx.parallelize(vec![1i32, 2, 3, 4], 4);
        let _ = ctx.run_job(&rdd, |p, _| {
            if p == 2 {
                panic!("boom");
            }
            p
        });
    }

    #[test]
    fn locality_toggle_changes_dispatch_counters() {
        let ctx = SparkletContext::new(2);
        let rdd = ctx.from_planned((0..8).collect(), |i| Some(i % 2), |&i| vec![i as i32]);
        rdd.count();
        let (local_after_first, _) = ctx.pool_stats();
        assert_eq!(local_after_first, 8, "all tasks pinned");
        ctx.set_locality(false);
        rdd.count();
        let (local_after_second, other) = ctx.pool_stats();
        assert_eq!(local_after_second, 8, "no new pinned dispatches");
        assert_eq!(other, 8, "round-robin dispatches recorded");
    }
}
