//! Differential property: the one-pass read path against the storage model.
//!
//! A replica read and the coordinator gather are sorted-run merges. The
//! coordinator read is checked against `support/model.rs` ([`model_read`]):
//! fed what the consulted replicas hold before a read, it predicts the rows
//! the read returns, the repair each replica receives and whether the
//! partition version moves. The replica read is checked against a twin
//! cluster that takes the same writes and never flushes, so each of its
//! partitions is one run and nothing is merged.

#[path = "support/model.rs"]
mod model;

use model::{ck, consulted, model_read, pk, repaired, to_model, visible, Raw, Visible};
use proptest::prelude::*;
use rasdb::cluster::{full_range, Cluster, ClusterConfig};
use rasdb::commitlog::Mutation;
use rasdb::error::DbError;
use rasdb::query::{Consistency, ReadPlan};
use rasdb::ring::NodeId;
use rasdb::schema::{ColumnType, TableSchema};
use rasdb::types::{Cell, Key, Row, Value};
use std::ops::Bound;
use std::sync::Arc;
use std::time::Duration;

const NODES: usize = 3;
const HOURS: i64 = 2;
type Range = (Bound<Key>, Bound<Key>);

#[derive(Debug, Clone)]
enum Op {
    /// A coordinator insert of one row; `None` leaves the column out.
    Upsert {
        hour: i64,
        ts: i64,
        a: Option<i32>,
        b: Option<String>,
    },
    /// A coordinator row delete.
    DeleteRow { hour: i64, ts: i64 },
    /// A cell tombstone, which no coordinator call writes: applied to every
    /// replica that is up, stamped with the timestamp the coordinator hands
    /// out next, so it ties with the following write.
    DeleteCell { hour: i64, ts: i64, b: bool },
    /// One node flushes its memtable into a new SSTable (no compaction).
    Flush(usize),
    /// Takes a node down if all are up.
    Down(usize),
    /// Brings the down node back; its hint queue kept one mutation.
    Up,
}

fn arb_op() -> impl Strategy<Value = Op> {
    let slot = || (0..HOURS, 0..12i64);
    let a = prop_oneof![1 => Just(None), 3 => (0..4i32).prop_map(Some)];
    let b = prop_oneof![1 => Just(None), 3 => "[a-c]{0,2}".prop_map(Some)];
    prop_oneof![
        8 => (slot(), a, b).prop_map(|((hour, ts), a, b)| Op::Upsert { hour, ts, a, b }),
        2 => slot().prop_map(|(hour, ts)| Op::DeleteRow { hour, ts }),
        2 => (slot(), any::<bool>()).prop_map(|((hour, ts), b)| Op::DeleteCell { hour, ts, b }),
        3 => (0..NODES).prop_map(Op::Flush),
        1 => (0..NODES).prop_map(Op::Down),
        1 => Just(Op::Up),
    ]
}

#[derive(Debug, Clone)]
struct ReadSpec {
    consistency: Consistency,
    /// `[from, from + span)` on `ts`.
    range: Option<(i64, i64)>,
    limit: Option<usize>,
    descending: bool,
    /// One `read_multi` over both partitions, or a `read` of each.
    multi: bool,
}

fn arb_read() -> impl Strategy<Value = ReadSpec> {
    (
        prop_oneof![
            Just(Consistency::One),
            Just(Consistency::Quorum),
            Just(Consistency::All)
        ],
        prop_oneof![3 => Just(None), 2 => (0..12i64, 1..8i64).prop_map(Some)],
        prop_oneof![3 => Just(None), 1 => (1..6usize).prop_map(Some)],
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(consistency, range, limit, descending, multi)| ReadSpec {
            consistency,
            range,
            limit,
            descending,
            multi,
        })
}

fn cluster() -> Cluster {
    let c = Cluster::new(ClusterConfig {
        nodes: NODES,
        replication_factor: NODES,
        vnodes: 8,
    });
    c.create_table(
        TableSchema::builder("t")
            .partition_key("hour", ColumnType::BigInt)
            .clustering_key("ts", ColumnType::Timestamp)
            .column("a", ColumnType::Int)
            .column("b", ColumnType::Text)
            .build()
            .unwrap(),
    )
    .unwrap();
    // Hints beyond the newest are dropped, so a returning replica stays
    // stale; and no hedge may add a response the model does not expect.
    c.set_hint_cap(1);
    c.set_speculative_timeout(Duration::from_secs(60));
    c
}

/// Applies the operations to `c`; `flush` is off for the twin.
fn apply(c: &Cluster, ops: &[Op], flush: bool) {
    // The coordinator's write clock: starts at one, one tick per write.
    let mut clock = 1u64;
    let mut down: Option<NodeId> = None;
    for op in ops {
        match op {
            Op::Upsert { hour, ts, a, b } => {
                let mut values = vec![
                    ("hour", Value::BigInt(*hour)),
                    ("ts", Value::Timestamp(*ts)),
                ];
                values.extend(a.map(|a| ("a", Value::Int(a))));
                values.extend(b.as_ref().map(|b| ("b", Value::text(b))));
                c.insert("t", values, Consistency::One).unwrap();
                clock += 1;
            }
            Op::DeleteRow { hour, ts } => {
                let (partition, clustering) =
                    (vec![Value::BigInt(*hour)], vec![Value::Timestamp(*ts)]);
                c.delete("t", partition, clustering, Consistency::One)
                    .unwrap();
                clock += 1;
            }
            Op::DeleteCell { hour, ts, b } => {
                let name: Arc<str> = if *b { "b" } else { "a" }.into();
                let m = Arc::new(Mutation {
                    table: "t".into(),
                    partition: pk(*hour),
                    clustering: ck(*ts),
                    cells: vec![(name, Cell::tombstone(clock))].into(),
                    row_delete: None,
                });
                for n in 0..NODES {
                    c.node(NodeId(n)).apply(&m);
                }
            }
            Op::Flush(n) => {
                if flush {
                    c.node(NodeId(*n)).flush("t");
                }
            }
            Op::Down(n) => {
                if down.is_none() {
                    c.take_node_down(NodeId(*n));
                    down = Some(NodeId(*n));
                }
            }
            Op::Up => {
                if let Some(id) = down.take() {
                    c.bring_node_up(id);
                }
            }
        }
    }
}

fn plan(hour: i64, spec: &ReadSpec) -> ReadPlan {
    let range = match spec.range {
        None => full_range(),
        Some((from, span)) => (Bound::Included(ck(from)), Bound::Excluded(ck(from + span))),
    };
    ReadPlan {
        table: "t".into(),
        partition: pk(hour),
        range,
        limit: spec.limit,
        descending: spec.descending,
    }
}

/// What every node holds of one partition (`None`: the node is down).
fn replica_states(c: &Cluster, hour: i64, range: &Range) -> Vec<Option<Raw>> {
    let raw = |n| c.node(NodeId(n)).read_raw("t", &pk(hour), range);
    (0..NODES)
        .map(|n| raw(n).as_deref().map(to_model))
        .collect()
}

/// What the model expects of one plan: the read's outcome, every node's
/// partition afterwards, and whether the partition version moves.
struct Expected {
    rows: Result<Vec<Visible>, DbError>,
    states: Vec<Option<Raw>>,
    repairs: bool,
}

fn expect(c: &Cluster, hour: i64, spec: &ReadSpec) -> Expected {
    let plan = plan(hour, spec);
    let mut states = replica_states(c, hour, &full_range());
    let replicas = match consulted(c, &pk(hour), spec.consistency) {
        Ok(replicas) => replicas,
        Err(e) => {
            return Expected {
                rows: Err(e),
                states,
                repairs: false,
            }
        }
    };
    let in_range = replica_states(c, hour, &plan.range);
    let responses: Vec<(NodeId, Raw)> = replicas
        .iter()
        .map(|id| {
            (
                *id,
                in_range[id.0].clone().expect("consulted replicas are up"),
            )
        })
        .collect();
    let (rows, repairs) = model_read(&responses, &plan);
    for ((id, _), repair) in responses.iter().zip(&repairs) {
        let before = states[id.0].take().expect("consulted replicas are up");
        states[id.0] = Some(repaired(&before, repair));
    }
    Expected {
        rows: Ok(rows),
        states,
        repairs: repairs.iter().any(|r| !r.is_empty()),
    }
}

/// Runs the reads of `spec` and returns each partition's outcome.
fn run(c: &Cluster, spec: &ReadSpec) -> Vec<Result<Arc<[Row]>, DbError>> {
    let plans: Vec<ReadPlan> = (0..HOURS).map(|h| plan(h, spec)).collect();
    if !spec.multi {
        return plans.iter().map(|p| c.read(p, spec.consistency)).collect();
    }
    match c.read_multi(&plans, spec.consistency) {
        Ok(batches) => batches.into_iter().map(Ok).collect(),
        Err(e) => plans.iter().map(|_| Err(e.clone())).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn one_pass_reads_match_the_map_merges_they_replaced(
        ops in prop::collection::vec(arb_op(), 1..60),
        reads in prop::collection::vec(arb_read(), 1..4),
    ) {
        let (c, twin) = (cluster(), cluster());
        apply(&c, &ops, true);
        apply(&twin, &ops, false);

        // The replica read: several SSTables and a memtable merge into what
        // one memtable holds.
        for hour in 0..HOURS {
            for range in [full_range(), plan(hour, &reads[0]).range] {
                prop_assert_eq!(
                    replica_states(&c, hour, &range),
                    replica_states(&twin, hour, &range),
                    "partition {} over {:?}", hour, range
                );
            }
        }

        // The coordinator read.
        for spec in &reads {
            // With one partition per plan the plans of a batch do not touch
            // each other's replicas, so the expectations hold for a batch
            // and for one read after another alike; and every node owns
            // every partition, so a batch fails only when each plan would.
            let expected: Vec<Expected> = (0..HOURS).map(|h| expect(&c, h, spec)).collect();
            let versions: Vec<u64> = (0..HOURS).map(|h| c.data_version("t", &pk(h))).collect();
            let got = run(&c, spec);
            for (hour, (want, got)) in (0..HOURS).zip(expected.iter().zip(&got)) {
                match (&want.rows, got) {
                    (Ok(want), Ok(got)) => prop_assert_eq!(want, &visible(got), "{:?}", spec),
                    (Err(_), Err(DbError::Unavailable { .. })) => {}
                    (want, got) => prop_assert!(false, "{:?}: {:?} for {:?}", spec, got, want),
                }
                prop_assert_eq!(
                    &replica_states(&c, hour, &full_range()),
                    &want.states,
                    "replicas of partition {} after {:?}", hour, spec
                );
                prop_assert_eq!(
                    c.data_version("t", &pk(hour)) != versions[hour as usize],
                    want.repairs,
                    "version of partition {} after {:?}", hour, spec
                );
            }

            // The same reads again find nothing left to repair.
            let versions: Vec<u64> = (0..HOURS).map(|h| c.data_version("t", &pk(h))).collect();
            let again = run(&c, spec);
            for (hour, (first, second)) in (0..HOURS).zip(got.iter().zip(&again)) {
                prop_assert_eq!(first.as_deref().ok(), second.as_deref().ok());
                prop_assert_eq!(c.data_version("t", &pk(hour)), versions[hour as usize]);
                prop_assert_eq!(
                    &replica_states(&c, hour, &full_range()),
                    &expected[hour as usize].states
                );
            }
        }
    }
}
