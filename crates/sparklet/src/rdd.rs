//! A partitioned dataset: a shared list of partition loaders.

use crate::context::SparkletContext;
use crate::Data;
use std::sync::Arc;

/// A partition backed by a loader closure plus an optional preferred
/// executor — how storage scans (e.g. rasdb read plans) enter the engine.
pub(crate) struct PartitionSource<T> {
    /// Executor that holds this partition's data locally.
    pub preferred: Option<usize>,
    /// Loads the partition contents; called once per job that runs it.
    pub load: Arc<dyn Fn() -> Vec<T> + Send + Sync>,
}

/// A partitioned dataset. Nothing is loaded until a job runs:
/// [`Rdd::collect`], [`Rdd::count`] or [`SparkletContext::run_job`] call
/// every partition's loader on the context's executors, each time.
///
/// Cloning an `Rdd` is cheap: the partition list is shared.
#[derive(Clone)]
pub struct Rdd<T: Data> {
    pub(crate) ctx: SparkletContext,
    pub(crate) parts: Arc<[PartitionSource<T>]>,
}

impl<T: Data> Rdd<T> {
    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.parts.len()
    }

    /// Action: materializes every partition, in partition order.
    pub fn collect(&self) -> Vec<T> {
        let parts = self.ctx.run_job(self, |_, data| data);
        parts.into_iter().flatten().collect()
    }

    /// Action: counts elements.
    pub fn count(&self) -> usize {
        self.ctx
            .run_job(self, |_, data: Vec<T>| data.len())
            .into_iter()
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use crate::context::SparkletContext;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn ctx() -> SparkletContext {
        SparkletContext::new(4)
    }

    #[test]
    fn collect_preserves_partition_order() {
        let ctx = ctx();
        let data: Vec<i32> = (0..100).collect();
        let out = ctx.parallelize(data.clone(), 7).collect();
        assert_eq!(out, data);
    }

    #[test]
    fn uncached_sources_recompute_per_action() {
        let ctx = ctx();
        let computed = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&computed);
        let rdd = ctx.from_planned(
            vec![()],
            |_| None,
            move |_| {
                c2.fetch_add(1, Ordering::SeqCst);
                vec![1]
            },
        );
        rdd.count();
        rdd.count();
        assert_eq!(computed.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn lineage_is_shared_on_clone() {
        let ctx = ctx();
        let a = ctx.parallelize(vec![1, 2, 3], 2);
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.parts, &b.parts));
        assert_eq!(a.collect(), b.collect());
    }
}
