//! Digest reads: the first replica a coordinator read consults answers with
//! its rows, every other one — hedges included — only says whether it holds
//! the same. A replica that differs sends the plan down the full merge and
//! read repair, whose outcome must be what the reference read in
//! `support/model.rs` predicts from what the consulted replicas held.

#[path = "support/model.rs"]
mod model;

use model::{ck, consulted, model_read, pk, repaired, to_model, visible, Raw, TableModel};
use rasdb::cluster::{full_range, Cluster, ClusterConfig};
use rasdb::query::{Consistency, ReadPlan};
use rasdb::ring::NodeId;
use rasdb::schema::{ColumnType, TableSchema};
use rasdb::types::Value;
use std::time::Duration;

/// Three nodes, RF 3.
fn cluster() -> Cluster {
    let c = Cluster::new(ClusterConfig {
        nodes: 3,
        replication_factor: 3,
        vnodes: 8,
    });
    c.create_table(
        TableSchema::builder("t")
            .partition_key("hour", ColumnType::BigInt)
            .clustering_key("ts", ColumnType::Timestamp)
            .column("a", ColumnType::Int)
            .build()
            .unwrap(),
    )
    .unwrap();
    c
}

fn put(c: &Cluster, ts: i64, a: i32) {
    let row = vec![
        ("hour", Value::BigInt(1)),
        ("ts", Value::Timestamp(ts)),
        ("a", Value::Int(a)),
    ];
    c.insert("t", row, Consistency::Quorum).unwrap();
}

fn plan() -> ReadPlan {
    ReadPlan {
        table: "t".into(),
        partition: pk(1),
        range: full_range(),
        limit: None,
        descending: false,
    }
}

/// Ten rows on every replica, flushed in two halves, and two more in the
/// memtables: each replica's partition is three runs.
fn healthy() -> Cluster {
    let c = cluster();
    for ts in 0..12 {
        put(&c, ts, ts as i32);
        if ts == 4 || ts == 9 {
            c.flush_all();
        }
    }
    c
}

/// (digest reads, digest mismatches) so far.
fn digests(c: &Cluster) -> (u64, u64) {
    let stats = c.coordinator_stats();
    (stats.digest_reads(), stats.digest_mismatches())
}

fn raw(c: &Cluster, id: NodeId) -> Raw {
    let run = c.node(id).read_raw("t", &plan().partition, &full_range());
    to_model(&run.unwrap())
}

#[test]
fn a_healthy_read_takes_rows_from_one_replica_and_digests_from_the_rest() {
    let c = healthy();
    let mut model = TableModel::default();
    for ts in 0..12 {
        model.write(pk(1).key().clone(), ck(ts), [("a", Value::Int(ts as i32))]);
    }
    let want = model.rows(pk(1).key(), &.., None, false);
    for (consistency, digest_reads) in [
        (Consistency::One, 0),
        (Consistency::Quorum, 1),
        (Consistency::All, 2),
    ] {
        let before = digests(&c);
        let reads: u64 = (0..3).map(|n| c.node(NodeId(n)).stats().reads).sum();
        let rows = c.read(&plan(), consistency).unwrap();
        assert_eq!(visible(&rows), want, "{consistency:?}");
        assert_eq!(
            digests(&c),
            (before.0 + digest_reads, before.1),
            "{consistency:?}"
        );
        // A digest read is its replica's one read of the plan.
        let after: u64 = (0..3).map(|n| c.node(NodeId(n)).stats().reads).sum();
        assert_eq!(after - reads, 1 + digest_reads, "{consistency:?}");
    }
}

#[test]
fn a_replica_that_missed_a_write_is_one_mismatch_and_the_model_read_repair() {
    // The stale replica answers with rows (first consulted) or a digest,
    // and misses two new rows, or an overwrite of a row still in the
    // memtables, which leaves it as many rows as the others, or an
    // overwrite of a flushed row, which leaves the others a key twice.
    let missed: [&[(i64, i32)]; 3] = [&[(15, 150), (20, 200)], &[(11, 110)], &[(3, 30)]];
    for (stale, writes) in [0, 1].into_iter().flat_map(|s| missed.map(|w| (s, w))) {
        let c = healthy();
        let owners = c.owners(plan().partition.key());
        c.take_node_down(owners[stale]);
        for (ts, a) in writes {
            put(&c, *ts, *a);
        }
        // Up again with its hints still queued: it stays behind.
        c.node(owners[stale]).set_up(true);

        let replicas = consulted(&c, &plan().partition, Consistency::Quorum).unwrap();
        assert_eq!(replicas, owners[..2], "the stale replica is consulted");
        let before: Vec<(NodeId, Raw)> = replicas.iter().map(|id| (*id, raw(&c, *id))).collect();
        let (want, repairs) = model_read(&before, &plan());
        let applied: Vec<u64> = replicas
            .iter()
            .map(|id| c.node(*id).stats().writes)
            .collect();
        let digests_before = digests(&c);

        let rows = c.read(&plan(), Consistency::Quorum).unwrap();
        assert_eq!(visible(&rows), want, "stale replica {stale}, {writes:?}");
        assert_eq!(digests(&c), (digests_before.0 + 1, digests_before.1 + 1));
        for (i, ((id, held), repair)) in before.iter().zip(&repairs).enumerate() {
            assert_eq!(raw(&c, *id), repaired(held, repair), "replica {id:?}");
            let sent = c.node(*id).stats().writes - applied[i];
            assert_eq!(sent, repair.len() as u64, "repair rows sent to {id:?}");
        }
        assert_eq!(repairs[stale].len(), writes.len(), "the missed rows");

        // Repaired, the replicas agree again.
        let digests_before = digests(&c);
        assert_eq!(
            visible(&c.read(&plan(), Consistency::Quorum).unwrap()),
            want
        );
        assert_eq!(digests(&c), (digests_before.0 + 1, digests_before.1));
    }
}

#[test]
fn hedges_answer_with_digests_and_a_stale_data_replica_left_behind_is_not_the_answer() {
    let c = healthy();
    let owners = c.owners(plan().partition.key());
    // The first replica is slow: the quorum is its digest partner and a
    // hedge to the third, both digests.
    c.node(owners[0]).set_read_latency_us(20_000);
    c.set_speculative_timeout(Duration::from_millis(2));
    let want = c.read(&plan(), Consistency::One).unwrap();
    let before = digests(&c);
    let rows = c.read(&plan(), Consistency::Quorum).unwrap();
    assert_eq!(rows, want);
    assert_eq!(digests(&c), (before.0 + 2, before.1));

    // The slow replica missed writes: both digests differ from its rows,
    // and the two answers that count are merged without it.
    c.take_node_down(owners[0]);
    put(&c, 30, 300);
    c.node(owners[0]).set_up(true);
    let counted: Vec<(NodeId, Raw)> = owners[1..].iter().map(|id| (*id, raw(&c, *id))).collect();
    let (want, repairs) = model_read(&counted, &plan());
    assert!(
        repairs.iter().all(Vec::is_empty),
        "the counted replicas agree"
    );
    let stale = raw(&c, owners[0]);
    let before = digests(&c);
    let rows = c.read(&plan(), Consistency::Quorum).unwrap();
    assert_eq!(visible(&rows), want);
    assert_eq!(digests(&c), (before.0 + 2, before.1 + 2));
    assert_eq!(
        raw(&c, owners[0]),
        stale,
        "an answer past the quorum repairs nothing"
    );
}

#[test]
fn runs_that_repeat_a_key_fold_it_in_the_digest_and_repair_nothing() {
    let c = healthy();
    // Overwrites of flushed rows: every replica holds ts 3 and ts 7 three
    // times, written first into one SSTable, overwritten into the newest
    // and again in the memtables.
    put(&c, 3, 30);
    put(&c, 7, 70);
    c.flush_all();
    put(&c, 3, 31);
    put(&c, 7, 71);
    for n in 0..3 {
        assert_eq!(c.node(NodeId(n)).sstable_count("t"), 3, "not compacted");
    }
    let writes: Vec<u64> = (0..3).map(|n| c.node(NodeId(n)).stats().writes).collect();
    let version = c.data_version("t", &plan().partition);
    let before = digests(&c);
    let rows = c.read(&plan(), Consistency::Quorum).unwrap();
    assert_eq!(rows.len(), 12);
    assert_eq!(rows[3].cell("a"), Some(&Value::Int(31)));
    assert_eq!(rows[7].cell("a"), Some(&Value::Int(71)));
    assert_eq!(
        digests(&c),
        (before.0 + 1, before.1),
        "a match, not a mismatch"
    );
    let after: Vec<u64> = (0..3).map(|n| c.node(NodeId(n)).stats().writes).collect();
    assert_eq!(after, writes, "nothing to repair");
    assert_eq!(c.data_version("t", &plan().partition), version);
}
