//! A partitioned dataset: a shared list of partitions.

use crate::context::SparkletContext;
use crate::Data;
use std::sync::Arc;

/// A partitioned dataset held in memory. [`Rdd::collect`], [`Rdd::count`]
/// and [`SparkletContext::run_job`] run one job over its partitions on the
/// context's executors.
///
/// Cloning an `Rdd` is cheap: the partition list is shared.
#[derive(Clone)]
pub struct Rdd<T: Data> {
    pub(crate) ctx: SparkletContext,
    pub(crate) parts: Arc<[Vec<T>]>,
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
    fn lineage_is_shared_on_clone() {
        let ctx = ctx();
        let a = ctx.parallelize(vec![1, 2, 3], 2);
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.parts, &b.parts));
        assert_eq!(a.collect(), b.collect());
    }
}
