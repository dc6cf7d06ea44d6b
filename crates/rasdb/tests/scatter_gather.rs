//! Equivalence property: `read_multi` over N plans must return exactly
//! what N sequential `read` calls return — row for row, error for error —
//! including under a down node with hinted handoff still pending.
//!
//! The path-comparison properties disable the partition-block cache so
//! they keep comparing two *independent* read paths (with the cache on,
//! the sequential read would simply replay the batch's cached blocks); a
//! dedicated property then pits a caching cluster against a cache-free
//! twin across write/read interleavings.

use proptest::prelude::*;
use rasdb::cluster::{full_range, Cluster, ClusterConfig};
use rasdb::query::{Consistency, ReadPlan};
use rasdb::ring::NodeId;
use rasdb::schema::{ColumnType, TableSchema};
use rasdb::types::{Key, Value};
use rasdb::DecoratedKey;
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

fn schema() -> TableSchema {
    TableSchema::builder("t")
        .partition_key("hour", ColumnType::BigInt)
        .clustering_key("ts", ColumnType::Timestamp)
        .column("v", ColumnType::Int)
        .build()
        .unwrap()
}

fn to_plan(spec: &PlanSpec) -> ReadPlan {
    let range = match spec.range {
        None => full_range(),
        Some((from, to)) => (
            Bound::Included(Key::from(vec![Value::Timestamp(from)])),
            Bound::Excluded(Key::from(vec![Value::Timestamp(to)])),
        ),
    };
    ReadPlan {
        table: "t".into(),
        partition: DecoratedKey::new(Key::from(vec![Value::BigInt(spec.hour)])),
        range,
        limit: spec.limit,
        descending: spec.descending,
    }
}

fn apply_writes(cluster: &Cluster, writes: &[Write]) {
    for w in writes {
        cluster
            .insert(
                "t",
                vec![
                    ("hour", Value::BigInt(w.hour)),
                    ("ts", Value::Timestamp(w.ts)),
                    ("v", Value::Int(w.v)),
                ],
                Consistency::Quorum,
            )
            .unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Healthy cluster: batched results equal sequential results.
    #[test]
    fn read_multi_equals_sequential_reads(
        writes in prop::collection::vec(arb_write(), 1..80),
        specs in prop::collection::vec(arb_plan(), 1..12),
    ) {
        let cluster = Cluster::new(ClusterConfig { nodes: 4, replication_factor: 3, vnodes: 8 });
        cluster.set_block_cache_budget(0);
        cluster.create_table(schema()).unwrap();
        apply_writes(&cluster, &writes);

        let plans: Vec<ReadPlan> = specs.iter().map(to_plan).collect();
        let batched = cluster.read_multi(&plans, Consistency::Quorum).unwrap();
        prop_assert_eq!(batched.len(), plans.len());
        for (plan, rows) in plans.iter().zip(&batched) {
            let sequential = cluster.read(plan, Consistency::Quorum).unwrap();
            prop_assert_eq!(rows, &sequential);
        }
    }

    /// One node down with hinted handoff pending: the surviving quorum
    /// must still answer, and batched == sequential throughout.
    #[test]
    fn read_multi_equals_sequential_with_node_down(
        before in prop::collection::vec(arb_write(), 1..40),
        after in prop::collection::vec(arb_write(), 1..40),
        down in 0..5usize,
        specs in prop::collection::vec(arb_plan(), 1..12),
    ) {
        let cluster = Cluster::new(ClusterConfig { nodes: 5, replication_factor: 3, vnodes: 8 });
        cluster.set_block_cache_budget(0);
        cluster.create_table(schema()).unwrap();
        apply_writes(&cluster, &before);
        cluster.take_node_down(NodeId(down));
        // Writes land on the surviving replicas; hints queue for the down
        // node and stay pending for the whole read phase.
        apply_writes(&cluster, &after);

        let plans: Vec<ReadPlan> = specs.iter().map(to_plan).collect();
        let batched = cluster.read_multi(&plans, Consistency::Quorum).unwrap();
        for (plan, rows) in plans.iter().zip(&batched) {
            let sequential = cluster.read(plan, Consistency::Quorum).unwrap();
            prop_assert_eq!(rows, &sequential);
        }
    }

    /// Error equivalence: with too many replicas down, both paths fail
    /// Unavailable rather than silently returning partial data.
    #[test]
    fn read_multi_fails_like_sequential_when_unavailable(
        writes in prop::collection::vec(arb_write(), 1..20),
        specs in prop::collection::vec(arb_plan(), 1..6),
    ) {
        let cluster = Cluster::new(ClusterConfig { nodes: 3, replication_factor: 3, vnodes: 8 });
        cluster.set_block_cache_budget(0);
        cluster.create_table(schema()).unwrap();
        apply_writes(&cluster, &writes);
        cluster.take_node_down(NodeId(0));
        cluster.take_node_down(NodeId(1));

        let plans: Vec<ReadPlan> = specs.iter().map(to_plan).collect();
        // Quorum of rf=3 needs 2; only one replica is up.
        prop_assert!(cluster.read_multi(&plans, Consistency::Quorum).is_err());
        prop_assert!(cluster.read(&plans[0], Consistency::Quorum).is_err());
        // Consistency::One still works on both paths and agrees.
        let batched = cluster.read_multi(&plans, Consistency::One).unwrap();
        for (plan, rows) in plans.iter().zip(&batched) {
            prop_assert_eq!(rows, &cluster.read(plan, Consistency::One).unwrap());
        }
    }

    /// Block-cache transparency: a cluster with the cache enabled must be
    /// indistinguishable from a cache-free twin across arbitrary
    /// interleavings of writes and reads (repeat reads of a partition hit
    /// the cache; writes invalidate by version).
    #[test]
    fn cached_reads_equal_uncached_across_interleavings(
        steps in prop::collection::vec(
            prop_oneof![
                2 => arb_write().prop_map(Step::Write),
                3 => arb_plan().prop_map(Step::Read),
            ],
            1..60,
        ),
    ) {
        let cached = Cluster::new(ClusterConfig { nodes: 4, replication_factor: 3, vnodes: 8 });
        let plain = Cluster::new(ClusterConfig { nodes: 4, replication_factor: 3, vnodes: 8 });
        plain.set_block_cache_budget(0);
        cached.create_table(schema()).unwrap();
        plain.create_table(schema()).unwrap();

        for step in &steps {
            match step {
                Step::Write(w) => {
                    apply_writes(&cached, std::slice::from_ref(w));
                    apply_writes(&plain, std::slice::from_ref(w));
                }
                Step::Read(spec) => {
                    let plan = to_plan(spec);
                    // Exercise both coordinator read paths on both sides.
                    let a = cached.read(&plan, Consistency::Quorum).unwrap();
                    let b = plain.read(&plan, Consistency::Quorum).unwrap();
                    prop_assert_eq!(&a, &b);
                    let a = cached.read_multi(std::slice::from_ref(&plan), Consistency::Quorum).unwrap();
                    let b = plain.read_multi(std::slice::from_ref(&plan), Consistency::Quorum).unwrap();
                    prop_assert_eq!(a, b);
                }
            }
        }
    }
}

/// One interleaving step for the cache-transparency property.
#[derive(Debug, Clone)]
enum Step {
    Write(Write),
    Read(PlanSpec),
}
