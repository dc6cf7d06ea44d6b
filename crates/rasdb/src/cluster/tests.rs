#![cfg(test)]

use super::*;
use crate::query::{Consistency, ReadPlan};
use crate::schema::ColumnType;
use crate::types::Value;

fn events_cluster(nodes: usize, rf: usize) -> Cluster {
    let c = Cluster::new(ClusterConfig {
        nodes,
        replication_factor: rf,
        vnodes: 8,
    });
    c.create_table(
        TableSchema::builder("event_by_time")
            .partition_key("hour", ColumnType::BigInt)
            .partition_key("type", ColumnType::Text)
            .clustering_key("ts", ColumnType::Timestamp)
            .column("source", ColumnType::Text)
            .column("amount", ColumnType::Int)
            .build()
            .unwrap(),
    )
    .unwrap();
    c
}

fn put(c: &Cluster, hour: i64, typ: &str, ts: i64, src: &str, cl: Consistency) {
    c.insert(
        "event_by_time",
        vec![
            ("hour", Value::BigInt(hour)),
            ("type", Value::text(typ)),
            ("ts", Value::Timestamp(ts)),
            ("source", Value::text(src)),
            ("amount", Value::Int(1)),
        ],
        cl,
    )
    .unwrap();
}

/// A full read of one hour's `MCE` partition.
fn hour_plan(hour: i64) -> ReadPlan {
    ReadPlan {
        table: "event_by_time".into(),
        partition: DecoratedKey::new(Key::from(vec![Value::BigInt(hour), Value::text("MCE")])),
        range: full_range(),
        limit: None,
        descending: false,
    }
}

#[test]
fn insert_select_roundtrip() {
    let c = events_cluster(4, 3);
    for ts in 0..50 {
        put(&c, 1, "MCE", ts, "c0-0c0s0n0", Consistency::Quorum);
    }
    let rows = c
        .select("event_by_time")
        .partition(vec![Value::BigInt(1), Value::text("MCE")])
        .run(Consistency::Quorum)
        .unwrap();
    assert_eq!(rows.len(), 50);
    // Time-series order.
    assert!(rows.windows(2).all(|w| w[0].clustering < w[1].clustering));
}

#[test]
fn range_limit_descending() {
    let c = events_cluster(4, 3);
    for ts in 0..100 {
        put(&c, 1, "MCE", ts, "n", Consistency::One);
    }
    let rows = c
        .select("event_by_time")
        .partition(vec![Value::BigInt(1), Value::text("MCE")])
        .from_inclusive(Value::Timestamp(10))
        .to_exclusive(Value::Timestamp(20))
        .run(Consistency::One)
        .unwrap();
    assert_eq!(rows.len(), 10);

    let rows = c
        .select("event_by_time")
        .partition(vec![Value::BigInt(1), Value::text("MCE")])
        .descending()
        .limit(3)
        .run(Consistency::One)
        .unwrap();
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[0].clustering, Key::from(vec![Value::Timestamp(99)]));
}

#[test]
fn quorum_survives_one_node_down_with_rf3() {
    let c = events_cluster(5, 3);
    put(&c, 7, "MCE", 1, "n", Consistency::All);
    let owners = c.owners(&Key::from(vec![Value::BigInt(7), Value::text("MCE")]));
    c.take_node_down(owners[0]);
    // Quorum still works…
    put(&c, 7, "MCE", 2, "n", Consistency::Quorum);
    let rows = c
        .select("event_by_time")
        .partition(vec![Value::BigInt(7), Value::text("MCE")])
        .run(Consistency::Quorum)
        .unwrap();
    assert_eq!(rows.len(), 2);
    // …but ALL fails.
    let err = c
        .select("event_by_time")
        .partition(vec![Value::BigInt(7), Value::text("MCE")])
        .run(Consistency::All)
        .unwrap_err();
    assert!(matches!(err, DbError::Unavailable { .. }));
}

#[test]
fn write_fails_when_too_many_replicas_down() {
    let c = events_cluster(3, 3);
    let owners = c.owners(&Key::from(vec![Value::BigInt(7), Value::text("MCE")]));
    c.take_node_down(owners[0]);
    c.take_node_down(owners[1]);
    let err = c
        .insert(
            "event_by_time",
            vec![
                ("hour", Value::BigInt(7)),
                ("type", Value::text("MCE")),
                ("ts", Value::Timestamp(1)),
            ],
            Consistency::Quorum,
        )
        .unwrap_err();
    assert!(matches!(
        err,
        DbError::Unavailable {
            required: 2,
            received: 1
        }
    ));
}

#[test]
fn hinted_handoff_catches_up_recovered_node() {
    let c = events_cluster(3, 3);
    let pkey = Key::from(vec![Value::BigInt(7), Value::text("MCE")]);
    let owners = c.owners(&pkey);
    c.take_node_down(owners[2]);
    put(&c, 7, "MCE", 1, "n", Consistency::Quorum);
    put(&c, 7, "MCE", 2, "n", Consistency::Quorum);
    assert_eq!(c.pending_hints(owners[2]), 2);
    c.bring_node_up(owners[2]);
    assert_eq!(c.pending_hints(owners[2]), 0);
    // The recovered node can now serve the data alone.
    for other in &owners[..2] {
        c.take_node_down(*other);
    }
    let rows = c
        .select("event_by_time")
        .partition(vec![Value::BigInt(7), Value::text("MCE")])
        .run(Consistency::One)
        .unwrap();
    assert_eq!(rows.len(), 2);
}

#[test]
fn hint_queue_cap_drops_oldest_and_counts() {
    let c = events_cluster(3, 3);
    c.set_hint_cap(3);
    let pkey = Key::from(vec![Value::BigInt(7), Value::text("MCE")]);
    let owners = c.owners(&pkey);
    c.take_node_down(owners[2]);
    for ts in 1..=5 {
        put(&c, 7, "MCE", ts, "n", Consistency::Quorum);
    }
    assert_eq!(c.pending_hints(owners[2]), 3, "queue capped");
    assert_eq!(c.coordinator_stats().hints_dropped(), 2);
    // Replay delivers the *newest* hints: recovered node alone serves
    // the rows whose hints survived the cap.
    c.bring_node_up(owners[2]);
    for other in &owners[..2] {
        c.take_node_down(*other);
    }
    let rows = c
        .select("event_by_time")
        .partition(vec![Value::BigInt(7), Value::text("MCE")])
        .run(Consistency::One)
        .unwrap();
    assert_eq!(rows.len(), 3, "ts 3..=5 survived, ts 1..=2 dropped");
}

#[test]
fn read_repair_heals_stale_replica() {
    let c = events_cluster(3, 3);
    let pkey = Key::from(vec![Value::BigInt(7), Value::text("MCE")]);
    let owners = c.owners(&pkey);
    // Write while one replica is down (hint stored but not delivered).
    c.take_node_down(owners[2]);
    put(&c, 7, "MCE", 1, "n", Consistency::Quorum);
    // Bring it up WITHOUT hints (simulate hint loss).
    c.node(owners[2]).set_up(true);
    c.hints.lock().clear();
    // A quorum read touches the stale node only if it is among the
    // first `required` responders; read at ALL to force it.
    let rows = c
        .select("event_by_time")
        .partition(vec![Value::BigInt(7), Value::text("MCE")])
        .run(Consistency::All)
        .unwrap();
    assert_eq!(rows.len(), 1);
    // After repair, the once-stale replica can serve alone.
    c.take_node_down(owners[0]);
    c.take_node_down(owners[1]);
    let rows = c
        .select("event_by_time")
        .partition(vec![Value::BigInt(7), Value::text("MCE")])
        .run(Consistency::One)
        .unwrap();
    assert_eq!(rows.len(), 1);
}

#[test]
fn select_requires_full_partition_key() {
    let c = events_cluster(3, 2);
    let err = c
        .select("event_by_time")
        .partition(vec![Value::BigInt(1)])
        .run(Consistency::One)
        .unwrap_err();
    assert!(matches!(err, DbError::BadQuery(_)));
}

#[test]
fn duplicate_create_table_rejected() {
    let c = events_cluster(2, 1);
    let err = c
        .create_table(
            TableSchema::builder("event_by_time")
                .partition_key("x", ColumnType::Int)
                .build()
                .unwrap(),
        )
        .unwrap_err();
    assert!(matches!(err, DbError::TableExists(_)));
}

#[test]
fn lww_across_replicas() {
    let c = events_cluster(4, 3);
    put(&c, 1, "MCE", 5, "first", Consistency::All);
    put(&c, 1, "MCE", 5, "second", Consistency::All);
    let rows = c
        .select("event_by_time")
        .partition(vec![Value::BigInt(1), Value::text("MCE")])
        .run(Consistency::All)
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].cell("source"), Some(&Value::text("second")));
}

#[test]
fn delete_then_read_is_empty() {
    let c = events_cluster(3, 2);
    put(&c, 1, "MCE", 5, "n", Consistency::All);
    c.delete(
        "event_by_time",
        vec![Value::BigInt(1), Value::text("MCE")],
        vec![Value::Timestamp(5)],
        Consistency::All,
    )
    .unwrap();
    let rows = c
        .select("event_by_time")
        .partition(vec![Value::BigInt(1), Value::text("MCE")])
        .run(Consistency::All)
        .unwrap();
    assert!(rows.is_empty());
}

#[test]
fn cql_projection_filters_cells() {
    let c = events_cluster(3, 2);
    put(&c, 1, "MCE", 5, "nodeA", Consistency::All);
    let out = c
        .execute(
            "SELECT source FROM event_by_time WHERE hour = 1 AND type = 'MCE'",
            Consistency::All,
        )
        .unwrap();
    let ExecResult::Rows(rows) = out else {
        panic!()
    };
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].cells().count(), 1);
    assert_eq!(rows[0].cell("source"), Some(&Value::text("nodeA")));
    assert_eq!(rows[0].cell("amount"), None);
    // Unknown projected column is a clean error.
    let err = c
        .execute(
            "SELECT bogus FROM event_by_time WHERE hour = 1 AND type = 'MCE'",
            Consistency::All,
        )
        .unwrap_err();
    assert!(matches!(err, DbError::BadQuery(_)));
    // It is refused before any replica is read: with every owner down the
    // read could only answer Unavailable, and no read counter moves.
    for id in c.owners(&Key::from(vec![Value::BigInt(1), Value::text("MCE")])) {
        c.take_node_down(id);
    }
    let counters = |c: &Cluster| {
        let coord = c.coordinator_stats();
        (
            c.stats().reads,
            coord.replica_skipped(),
            coord.digest_reads(),
        )
    };
    let before = counters(&c);
    let err = c
        .execute(
            "SELECT nosuch FROM event_by_time WHERE hour = 1 AND type = 'MCE'",
            Consistency::Quorum,
        )
        .unwrap_err();
    assert!(matches!(err, DbError::BadQuery(_)), "{err:?}");
    assert_eq!(counters(&c), before);
}

#[test]
fn read_multi_matches_sequential_reads() {
    let c = events_cluster(4, 3);
    for hour in 0..24 {
        for ts in 0..20 {
            put(&c, hour, "MCE", ts, "n", Consistency::Quorum);
        }
    }
    let plans: Vec<ReadPlan> = (0..24).map(hour_plan).collect();
    let batched = c.read_multi(&plans, Consistency::Quorum).unwrap();
    assert_eq!(batched.len(), 24);
    for (plan, rows) in plans.iter().zip(&batched) {
        assert_eq!(rows, &c.read(plan, Consistency::Quorum).unwrap());
        assert_eq!(rows.len(), 20);
    }
    assert_eq!(c.coordinator_stats().read_multi_batches(), 1);
    assert_eq!(c.coordinator_stats().read_multi_plans(), 24);
}

#[test]
fn read_multi_empty_batch_is_empty() {
    let c = events_cluster(2, 1);
    assert!(c.read_multi(&[], Consistency::One).unwrap().is_empty());
}

#[test]
fn read_multi_rejects_unknown_table() {
    let c = events_cluster(2, 1);
    let plan = ReadPlan {
        table: "nope".into(),
        partition: DecoratedKey::new(Key::from(vec![Value::BigInt(1)])),
        range: full_range(),
        limit: None,
        descending: false,
    };
    assert!(matches!(
        c.read_multi(&[plan], Consistency::One),
        Err(DbError::NoSuchTable(_))
    ));
}

#[test]
fn read_multi_survives_down_node_and_matches_sequential() {
    let c = events_cluster(5, 3);
    for hour in 0..12 {
        put(&c, hour, "MCE", 1, "n", Consistency::All);
    }
    c.take_node_down(NodeId(0));
    // More writes while the node is down: hints stay pending.
    for hour in 0..12 {
        put(&c, hour, "MCE", 2, "n", Consistency::Quorum);
    }
    let plans: Vec<ReadPlan> = (0..12).map(hour_plan).collect();
    let batched = c.read_multi(&plans, Consistency::Quorum).unwrap();
    for (plan, rows) in plans.iter().zip(&batched) {
        assert_eq!(rows.len(), 2);
        assert_eq!(rows, &c.read(plan, Consistency::Quorum).unwrap());
    }
}

#[test]
fn read_skips_down_replicas_and_counts_them() {
    let c = events_cluster(5, 3);
    let pkey = Key::from(vec![Value::BigInt(7), Value::text("MCE")]);
    put(&c, 7, "MCE", 1, "n", Consistency::All);
    let owners = c.owners(&pkey);
    c.take_node_down(owners[0]);
    let before = c.coordinator_stats().replica_skipped();
    let rows = c
        .select("event_by_time")
        .partition(vec![Value::BigInt(7), Value::text("MCE")])
        .run(Consistency::Quorum)
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(c.coordinator_stats().replica_skipped(), before + 1);
}

#[test]
fn read_multi_hedges_a_slow_replica() {
    let c = events_cluster(4, 3);
    put(&c, 3, "MCE", 1, "n", Consistency::All);
    let plan = hour_plan(3);
    let owners = c.owners(plan.partition.key());
    // The first replica answers at 20 ms, past the 2 ms deadline; at
    // Consistency::One the hedge to the next replica answers at 2 ms.
    c.node(owners[0]).set_read_latency_us(20_000);
    c.set_speculative_timeout(Duration::from_millis(2));
    let started = std::time::Instant::now();
    let rows = c.read_multi(&[plan], Consistency::One).unwrap();
    let took = started.elapsed();
    assert_eq!(rows[0].len(), 1);
    assert_eq!(c.coordinator_stats().speculative_retries(), 1);
    // The call waits for the hedge's finish, not the slow replica's.
    assert!(took >= Duration::from_millis(2), "{took:?}");
    assert!(took < Duration::from_millis(20), "{took:?}");
}

#[test]
fn read_multi_charges_simulated_time_once_per_call() {
    let c = events_cluster(4, 3);
    for hour in 0..8 {
        put(&c, hour, "MCE", 1, "n", Consistency::All);
    }
    for n in 0..c.node_count() {
        c.node(NodeId(n)).set_read_latency_us(2_000);
    }
    // No hedges: each plan reads exactly its quorum.
    c.set_speculative_timeout(Duration::from_secs(60));
    let plans: Vec<ReadPlan> = (0..8).map(hour_plan).collect();
    let started = std::time::Instant::now();
    let batches = c.read_multi(&plans, Consistency::Quorum).unwrap();
    let took = started.elapsed();
    assert!(batches.iter().all(|rows| rows.len() == 1));
    assert_eq!(c.coordinator_stats().speculative_retries(), 0);
    // 16 replica reads of 2 ms each, queued on four nodes: at most
    // eight wait on any one node, so the call takes at least one read
    // and at most 16 ms, never the 32 ms a charge per read would sum to.
    let replica_reads = Duration::from_millis(2) * 16;
    assert!(took >= Duration::from_millis(2), "{took:?}");
    assert!(took < replica_reads, "{took:?}");
}

#[test]
fn local_partition_keys_cover_all_partitions_once() {
    let c = events_cluster(4, 2);
    for hour in 0..24 {
        put(&c, hour, "MCE", 1, "n", Consistency::All);
    }
    let mut seen = std::collections::HashSet::new();
    for n in 0..c.node_count() {
        for k in c.local_partition_keys("event_by_time", NodeId(n)) {
            assert!(seen.insert(k), "primary ownership must be unique");
        }
    }
    assert_eq!(seen.len(), 24);
}
