//! `read_multi` against a model of the coordinator read that is not the
//! code under test.
//!
//! `read` and `read_multi` run the same per-plan read, so N sequential
//! `read` calls are no oracle for a batch. Every result is checked against
//! the reference read in `support/model.rs` instead: the rows a plan
//! returns, exactly which replicas it reads (its first `required` up owners,
//! once each), the down owners it counts as skipped on the way, and no
//! retry or hedge at latency zero. The checks cover a healthy cluster, a
//! down node with hinted handoff pending, and too few replicas up.

#[path = "support/model.rs"]
mod model;

use model::{ck, consulted, expected_rows, passed_over, pk, row, schema, visible};
use proptest::prelude::*;
use rasdb::cluster::{full_range, Cluster, ClusterConfig};
use rasdb::error::DbError;
use rasdb::query::{Consistency, ReadPlan};
use rasdb::ring::NodeId;
use std::ops::Bound;

const HOURS: i64 = 6;

#[derive(Debug, Clone)]
struct Write {
    hour: i64,
    ts: i64,
    v: i32,
}

#[derive(Debug, Clone)]
struct PlanSpec {
    hour: i64,
    /// Optional `[from, from+span)` clustering range on `ts`.
    range: Option<(i64, i64)>,
    limit: Option<usize>,
    descending: bool,
}

fn arb_write() -> impl Strategy<Value = Write> {
    (0..HOURS, 0..40i64, any::<i32>()).prop_map(|(hour, ts, v)| Write { hour, ts, v })
}

fn arb_plan() -> impl Strategy<Value = PlanSpec> {
    (
        0..HOURS,
        prop_oneof![
            3 => Just(None),
            2 => (0..40i64, 1..20i64).prop_map(Some),
        ],
        prop_oneof![
            3 => Just(None),
            1 => (1..10usize).prop_map(Some),
        ],
        any::<bool>(),
    )
        .prop_map(|(hour, range, limit, descending)| PlanSpec {
            hour,
            range: range.map(|(from, span)| (from, from + span)),
            limit,
            descending,
        })
}

fn to_plan(spec: &PlanSpec) -> ReadPlan {
    let range = match spec.range {
        None => full_range(),
        Some((from, to)) => (Bound::Included(ck(from)), Bound::Excluded(ck(to))),
    };
    ReadPlan {
        table: "t".into(),
        partition: pk(spec.hour),
        range,
        limit: spec.limit,
        descending: spec.descending,
    }
}

fn apply_writes(cluster: &Cluster, writes: &[Write]) {
    for w in writes {
        let row = row(w.hour, w.ts, w.v);
        cluster.insert("t", row, Consistency::Quorum).unwrap();
    }
}

fn node_reads(cluster: &Cluster) -> Vec<u64> {
    (0..cluster.node_count())
        .map(|n| cluster.node(NodeId(n)).stats().reads)
        .collect()
}

/// Checks one `read_multi` of `plans` against the model: each plan's rows,
/// each node read exactly once per plan that consults it, the down owners
/// passed over counted as skips, and no retry or hedge. Then checks `read`
/// of each plan against the same rows.
fn assert_read_multi_matches_model(
    cluster: &Cluster,
    plans: &[ReadPlan],
    consistency: Consistency,
) {
    let mut want = Vec::new();
    let mut reads = vec![0u64; cluster.node_count()];
    let mut skips = 0;
    for plan in plans {
        let replicas = consulted(cluster, &plan.partition, consistency).expect("available");
        for id in &replicas {
            reads[id.0] += 1;
        }
        skips += passed_over(cluster, &plan.partition, &replicas);
        want.push(expected_rows(cluster, plan, consistency).unwrap());
    }
    let stats = cluster.coordinator_stats();
    let (reads_before, skipped_before, retries_before) = (
        node_reads(cluster),
        stats.replica_skipped(),
        stats.speculative_retries(),
    );

    let batched = cluster.read_multi(plans, consistency).unwrap();
    prop_assert_eq!(batched.len(), plans.len());
    for ((plan, rows), want) in plans.iter().zip(&batched).zip(&want) {
        prop_assert_eq!(&visible(rows), want, "{:?}", plan);
    }
    let read: Vec<u64> = node_reads(cluster)
        .iter()
        .zip(&reads_before)
        .map(|(after, before)| after - before)
        .collect();
    prop_assert_eq!(read, reads, "replica reads per node");
    prop_assert_eq!(
        stats.replica_skipped() - skipped_before,
        skips,
        "skipped replicas"
    );
    prop_assert_eq!(
        stats.speculative_retries(),
        retries_before,
        "retries and hedges"
    );

    for (plan, want) in plans.iter().zip(&want) {
        prop_assert_eq!(&visible(&cluster.read(plan, consistency).unwrap()), want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Healthy cluster: every plan reads its quorum and returns the
    /// model's rows, batched or sequential.
    #[test]
    fn read_multi_equals_sequential_reads(
        writes in prop::collection::vec(arb_write(), 1..80),
        specs in prop::collection::vec(arb_plan(), 1..12),
    ) {
        let cluster = Cluster::new(ClusterConfig { nodes: 4, replication_factor: 3, vnodes: 8 });
        cluster.create_table(schema("t")).unwrap();
        apply_writes(&cluster, &writes);

        let plans: Vec<ReadPlan> = specs.iter().map(to_plan).collect();
        assert_read_multi_matches_model(&cluster, &plans, Consistency::Quorum);
    }

    /// One node down with hinted handoff pending: the surviving quorum
    /// answers, the down node is skipped and never read, and batched and
    /// sequential reads return the model's rows.
    #[test]
    fn read_multi_equals_sequential_with_node_down(
        before in prop::collection::vec(arb_write(), 1..40),
        after in prop::collection::vec(arb_write(), 1..40),
        down in 0..5usize,
        specs in prop::collection::vec(arb_plan(), 1..12),
    ) {
        let cluster = Cluster::new(ClusterConfig { nodes: 5, replication_factor: 3, vnodes: 8 });
        cluster.create_table(schema("t")).unwrap();
        apply_writes(&cluster, &before);
        cluster.take_node_down(NodeId(down));
        // Writes land on the surviving replicas; hints queue for the down
        // node and stay pending for the whole read phase.
        apply_writes(&cluster, &after);

        let plans: Vec<ReadPlan> = specs.iter().map(to_plan).collect();
        assert_read_multi_matches_model(&cluster, &plans, Consistency::Quorum);
    }

    /// Too many replicas down: both paths fail with the model's
    /// `Unavailable` rather than return partial data, and a level the one
    /// live replica can serve returns the model's rows.
    #[test]
    fn read_multi_fails_like_sequential_when_unavailable(
        writes in prop::collection::vec(arb_write(), 1..20),
        specs in prop::collection::vec(arb_plan(), 1..6),
    ) {
        let cluster = Cluster::new(ClusterConfig { nodes: 3, replication_factor: 3, vnodes: 8 });
        cluster.create_table(schema("t")).unwrap();
        apply_writes(&cluster, &writes);
        cluster.take_node_down(NodeId(0));
        cluster.take_node_down(NodeId(1));

        let plans: Vec<ReadPlan> = specs.iter().map(to_plan).collect();
        // Quorum of rf=3 needs 2; only one replica is up.
        let want = consulted(&cluster, &plans[0].partition, Consistency::Quorum).unwrap_err();
        prop_assert_eq!(&want, &DbError::Unavailable { required: 2, received: 1 });
        prop_assert_eq!(cluster.read_multi(&plans, Consistency::Quorum).unwrap_err(), want.clone());
        prop_assert_eq!(cluster.read(&plans[0], Consistency::Quorum).unwrap_err(), want);
        // Consistency::One still works on both paths.
        assert_read_multi_matches_model(&cluster, &plans, Consistency::One);
    }
}
