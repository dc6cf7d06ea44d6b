//! Property tests: parallel execution must agree with the obvious
//! sequential evaluation, for any data and partitioning.

use proptest::prelude::*;
use sparklet::context::SparkletContext;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn partitions_load_the_data_in_order(
        data in prop::collection::vec(any::<i32>(), 0..200),
        parts in 1usize..12,
    ) {
        let ctx = SparkletContext::new(4);
        let rdd = ctx.parallelize(data.clone(), parts);
        prop_assert_eq!(rdd.num_partitions(), parts);
        let sizes = ctx.run_job(&rdd, |_, part| part.len());
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(max - min <= 1, "unbalanced: {:?}", sizes);
        prop_assert_eq!(rdd.collect(), data.clone());
        prop_assert_eq!(rdd.count(), data.len());
        prop_assert_eq!(ctx.run_job(&rdd, |p, _| p), (0..parts).collect::<Vec<_>>());

        // One plan per partition, pinned round the executors or spread
        // round-robin: placement never changes what is loaded.
        let plans: Vec<(usize, Vec<i32>)> = data
            .chunks(data.len().div_ceil(parts).max(1))
            .map(|c| c.to_vec())
            .enumerate()
            .collect();
        for locality in [true, false] {
            ctx.set_locality(locality);
            let planned = ctx.from_planned(plans.clone(), |p| Some(p.0 % 4), |p| p.1.clone());
            prop_assert_eq!(planned.num_partitions(), plans.len());
            prop_assert_eq!(planned.collect(), data.clone());
        }
    }

    #[test]
    fn coalesce_conserves_counts(
        events in prop::collection::vec((0i64..5, 0i64..5, 1u32..4), 0..100),
    ) {
        let merged = sparklet::streaming::coalesce(
            events.clone(),
            |(ts, node, _)| (*ts, *node),
            |a, b| a.2 += b.2,
        );
        let total_in: u32 = events.iter().map(|e| e.2).sum();
        let total_out: u32 = merged.iter().map(|e| e.2).sum();
        prop_assert_eq!(total_in, total_out);
        // Keys unique after coalescing.
        let keys: std::collections::HashSet<_> = merged.iter().map(|(t, n, _)| (t, n)).collect();
        prop_assert_eq!(keys.len(), merged.len());
    }
}
