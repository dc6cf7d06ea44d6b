//! Model-based property tests: the full stack (commit log, memtable,
//! SSTables, compaction, replication, failures) must agree with a plain
//! `BTreeMap` model under arbitrary operation sequences.

use proptest::prelude::*;
use rasdb::cluster::{Cluster, ClusterConfig};
use rasdb::query::Consistency;
use rasdb::ring::NodeId;
use rasdb::schema::{ColumnType, TableSchema};
use rasdb::types::{Key, Value};
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    /// Insert (hour, ts) -> value.
    Insert { hour: i64, ts: i64, v: i32 },
    /// Delete a row.
    Delete { hour: i64, ts: i64 },
    /// Force flush + compaction everywhere.
    Flush,
    /// Crash/restart one node (commit-log replay).
    Restart(usize),
    /// Take a node down, write something, bring it back (hints replay).
    Blip {
        node: usize,
        hour: i64,
        ts: i64,
        v: i32,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0..6i64, 0..50i64, any::<i32>()).prop_map(|(hour, ts, v)| Op::Insert { hour, ts, v }),
        2 => (0..6i64, 0..50i64).prop_map(|(hour, ts)| Op::Delete { hour, ts }),
        1 => Just(Op::Flush),
        1 => (0..4usize).prop_map(Op::Restart),
        1 => (0..4usize, 0..6i64, 0..50i64, any::<i32>())
            .prop_map(|(node, hour, ts, v)| Op::Blip { node, hour, ts, v }),
    ]
}

fn schema() -> TableSchema {
    TableSchema::builder("t")
        .partition_key("hour", ColumnType::BigInt)
        .clustering_key("ts", ColumnType::Timestamp)
        .column("v", ColumnType::Int)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cluster_matches_btreemap_model(ops in prop::collection::vec(arb_op(), 1..60)) {
        let cluster = Cluster::new(ClusterConfig { nodes: 4, replication_factor: 3, vnodes: 8 });
        cluster.create_table(schema()).unwrap();
        let mut model: BTreeMap<(i64, i64), i32> = BTreeMap::new();

        for op in &ops {
            match op {
                Op::Insert { hour, ts, v } => {
                    cluster.insert(
                        "t",
                        vec![
                            ("hour", Value::BigInt(*hour)),
                            ("ts", Value::Timestamp(*ts)),
                            ("v", Value::Int(*v)),
                        ],
                        Consistency::Quorum,
                    ).unwrap();
                    model.insert((*hour, *ts), *v);
                }
                Op::Delete { hour, ts } => {
                    cluster.delete(
                        "t",
                        vec![Value::BigInt(*hour)],
                        vec![Value::Timestamp(*ts)],
                        Consistency::Quorum,
                    ).unwrap();
                    model.remove(&(*hour, *ts));
                }
                Op::Flush => cluster.flush_all(),
                Op::Restart(n) => cluster.node(NodeId(*n)).restart(),
                Op::Blip { node, hour, ts, v } => {
                    cluster.take_node_down(NodeId(*node));
                    // RF 3 on 4 nodes: quorum still reachable with 1 down.
                    cluster.insert(
                        "t",
                        vec![
                            ("hour", Value::BigInt(*hour)),
                            ("ts", Value::Timestamp(*ts)),
                            ("v", Value::Int(*v)),
                        ],
                        Consistency::Quorum,
                    ).unwrap();
                    model.insert((*hour, *ts), *v);
                    cluster.bring_node_up(NodeId(*node));
                }
            }
        }

        // Every partition read at QUORUM must equal the model exactly.
        for hour in 0..6i64 {
            let rows = cluster
                .select("t")
                .partition(vec![Value::BigInt(hour)])
                .run(Consistency::Quorum)
                .unwrap();
            let got: Vec<(i64, i32)> = rows
                .iter()
                .map(|r| {
                    let ts = r.clustering.0[0].as_i64().unwrap();
                    let v = match r.cell("v") {
                        Some(Value::Int(v)) => *v,
                        other => panic!("bad cell {other:?}"),
                    };
                    (ts, v)
                })
                .collect();
            let want: Vec<(i64, i32)> = model
                .range((hour, i64::MIN)..=(hour, i64::MAX))
                .map(|((_, ts), v)| (*ts, *v))
                .collect();
            prop_assert_eq!(got, want, "partition hour={}", hour);
        }
    }

    #[test]
    fn range_queries_match_model(
        inserts in prop::collection::vec((0..100i64, any::<i32>()), 1..80),
        lo in 0..100i64,
        width in 1..60i64,
    ) {
        let cluster = Cluster::new(ClusterConfig { nodes: 3, replication_factor: 2, vnodes: 8 });
        cluster.create_table(schema()).unwrap();
        let mut model: BTreeMap<i64, i32> = BTreeMap::new();
        for (ts, v) in &inserts {
            cluster.insert(
                "t",
                vec![
                    ("hour", Value::BigInt(0)),
                    ("ts", Value::Timestamp(*ts)),
                    ("v", Value::Int(*v)),
                ],
                Consistency::All,
            ).unwrap();
            model.insert(*ts, *v);
        }
        cluster.flush_all();
        let hi = lo + width;
        let rows = cluster
            .select("t")
            .partition(vec![Value::BigInt(0)])
            .from_inclusive(Value::Timestamp(lo))
            .to_exclusive(Value::Timestamp(hi))
            .run(Consistency::All)
            .unwrap();
        let got: Vec<i64> = rows.iter().map(|r| r.clustering.0[0].as_i64().unwrap()).collect();
        let want: Vec<i64> = model.range(lo..hi).map(|(ts, _)| *ts).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn bloom_filters_skip_foreign_sstables(hours in prop::collection::vec(0..32i64, 8..24)) {
        let cluster = Cluster::new(ClusterConfig { nodes: 1, replication_factor: 1, vnodes: 8 });
        cluster.create_table(schema()).unwrap();
        // One SSTable per distinct partition: insert, then flush each round.
        let distinct: std::collections::BTreeSet<i64> = hours.iter().copied().collect();
        for hour in &distinct {
            cluster.insert(
                "t",
                vec![
                    ("hour", Value::BigInt(*hour)),
                    ("ts", Value::Timestamp(0)),
                    ("v", Value::Int(1)),
                ],
                Consistency::One,
            ).unwrap();
            cluster.flush_all();
        }
        // Compaction may have merged some tables; whatever count is left is
        // stable during the reads below (reads never compact).
        let sstables = cluster.node(NodeId(0)).sstable_count("t") as u64;
        prop_assert!(sstables >= 1);
        let before = cluster.stats();
        for hour in &distinct {
            let rows = cluster
                .select("t")
                .partition(vec![Value::BigInt(*hour)])
                .run(Consistency::One)
                .unwrap();
            prop_assert_eq!(rows.len(), 1);
        }
        let after = cluster.stats();
        let probes = after.sstable_probes - before.sstable_probes;
        let skips = after.bloom_skips - before.bloom_skips;
        // Conservation: every (read, sstable) pair is either probed or
        // bloom-skipped.
        let reads = distinct.len() as u64;
        prop_assert_eq!(probes + skips, reads * sstables);
        // Every partition lives in exactly one sstable, so each read must
        // probe at least that one...
        prop_assert!(probes >= reads, "probes={} reads={}", probes, reads);
        // ...and with several sstables the blooms must skip foreign ones
        // (false positives would have to fire on every single pair to make
        // this 0, which a working filter never does at this scale).
        if sstables > 1 {
            prop_assert!(skips > 0, "no bloom skips across {} sstables", sstables);
        }
    }

    #[test]
    fn replica_sets_are_stable_and_distinct(keys in prop::collection::vec(any::<i64>(), 1..50)) {
        let cluster = Cluster::new(ClusterConfig { nodes: 8, replication_factor: 3, vnodes: 16 });
        for k in keys {
            let key = Key::from(vec![Value::BigInt(k)]);
            let a = cluster.owners(&key);
            let b = cluster.owners(&key);
            prop_assert_eq!(&a, &b);
            let distinct: std::collections::HashSet<_> = a.iter().collect();
            prop_assert_eq!(distinct.len(), 3);
        }
    }
}
