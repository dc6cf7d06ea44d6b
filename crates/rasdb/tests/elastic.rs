//! Elastic membership: live join/decommission under fault-injected range
//! streaming must never lose an acked row, must bump the topology epoch
//! exactly once per committed transition (and never on abort), so that a
//! cached value's [`Stamp`] goes stale across a commit and only then.

#[path = "support/model.rs"]
mod model;

use model::{pk, row, schema, visible, TableModel};
use proptest::prelude::*;
use rasdb::cache::Stamp;
use rasdb::cluster::{Cluster, ClusterConfig};
use rasdb::error::DbError;
use rasdb::query::Consistency;
use rasdb::ring::NodeId;
use rasdb::topology::TopologyFaultPlan;
use rasdb::types::{Row, Value};
use std::sync::Arc;
use std::time::Duration;

fn cluster(nodes: usize, rf: usize) -> Cluster {
    let c = Cluster::new(ClusterConfig {
        nodes,
        replication_factor: rf,
        vnodes: 8,
    });
    c.create_table(schema("t")).unwrap();
    c
}

fn put(c: &Cluster, hour: i64, ts: i64, v: i32) {
    c.insert("t", row(hour, ts, v), Consistency::Quorum)
        .unwrap();
}

/// Full-table scan at ALL: every partition's rows, strongest read the
/// cluster offers. Used to compare churned clusters against controls.
fn scan(c: &Cluster, hours: i64) -> Vec<Arc<[Row]>> {
    (0..hours)
        .map(|h| {
            c.select("t")
                .partition(vec![Value::BigInt(h)])
                .run(Consistency::All)
                .unwrap()
        })
        .collect()
}

#[test]
fn join_streams_ranges_and_bumps_epoch_exactly_once() {
    let c = cluster(3, 2);
    for h in 0..16i64 {
        for ts in 0..8i64 {
            put(&c, h, ts, (h * 100 + ts) as i32);
        }
    }
    c.flush_all();
    let epoch0 = c.topology_epoch();

    let report = c.join_node().unwrap();
    assert_eq!(report.node, NodeId(3));
    assert!(report.rows_streamed > 0, "joiner must receive data");
    assert!(report.chunks_streamed > 0);
    assert_eq!(report.epoch, epoch0 + 1, "exactly one epoch bump");
    assert_eq!(c.topology_epoch(), epoch0 + 1);
    assert_eq!(c.member_count(), 4);
    assert_eq!(c.topology_status().state, "stable");
    assert!(
        !c.local_partition_keys("t", NodeId(3)).is_empty(),
        "joiner must own streamed partitions"
    );
    assert_eq!(c.topology_stats().joins(), 1);

    // Nothing went missing: every row still reads back at ALL on the new
    // topology (ALL spans the joiner wherever it is now a replica).
    for h in 0..16i64 {
        let rows = c
            .select("t")
            .partition(vec![Value::BigInt(h)])
            .run(Consistency::All)
            .unwrap();
        assert_eq!(rows.len(), 8, "hour {h}");
    }
}

/// A stamp on partition `hour` of `t`, as a cache tier takes it before a
/// read.
fn stamp(c: &Cluster, hour: i64) -> Stamp {
    Stamp::take(c, [("t".to_owned(), pk(hour))])
}

#[test]
fn a_stamp_taken_before_a_committed_join_is_stale_after_it() {
    let c = cluster(3, 2);
    for ts in 0..32i64 {
        put(&c, 7, ts, ts as i32);
    }
    let read = || {
        c.select("t")
            .partition(vec![Value::BigInt(7)])
            .run(Consistency::Quorum)
            .unwrap()
    };
    let before = read();
    let taken = stamp(&c, 7);
    assert!(taken.is_current(&c), "nothing changed yet");

    // The commit bumps the epoch: replica sets changed underneath whatever
    // was computed under the old one, so no tier may serve it.
    c.join_node().unwrap();
    assert!(!taken.is_current(&c), "a committed join stales the stamp");
    assert!(stamp(&c, 7).is_current(&c));
    assert_eq!(read(), before, "data unchanged by the move");
}

#[test]
fn aborted_join_restores_pre_join_topology_without_epoch_or_cache_churn() {
    let c = cluster(3, 2);
    for h in 0..64i64 {
        put(&c, h, 0, h as i32);
        put(&c, h, 1, (h + 1000) as i32);
    }
    let epoch0 = c.topology_epoch();
    let members0 = c.ring().members().to_vec();

    // Read a partition and stamp it under the pre-join epoch, as a cache
    // tier does.
    let read = || {
        c.select("t")
            .partition(vec![Value::BigInt(3)])
            .run(Consistency::Quorum)
            .unwrap()
    };
    let stamp = stamp(&c, 3);
    let warm = read();

    // Every chunk-send attempt drops; the retry budget exhausts and the
    // join must abort cleanly.
    let plan = TopologyFaultPlan::none()
        .drop_chunk_every(1)
        .max_chunk_attempts(2);
    match c.join_node_with(plan) {
        Err(DbError::StreamAborted(_)) => {}
        other => panic!("expected StreamAborted, got {other:?}"),
    }

    assert_eq!(c.topology_epoch(), epoch0, "aborts never bump the epoch");
    assert_eq!(c.ring().members(), &members0[..], "ring unchanged");
    assert_eq!(c.member_count(), 3);
    assert_eq!(c.topology_status().state, "stable");
    assert_eq!(c.topology_stats().aborts(), 1);
    // The failed joiner's slot is retired, never revived.
    let status = c.topology_status();
    let slot = &status.members[3];
    assert!(!slot.in_ring && !slot.up);
    c.bring_node_up(NodeId(3));
    assert!(!c.node(NodeId(3)).is_up(), "retired slots stay down");

    // No spurious invalidation: the pre-join stamp is still current.
    assert!(stamp.is_current(&c), "an aborted join stales nothing");
    assert_eq!(read(), warm);

    // The cluster is not wedged: a clean retry joins fine and bumps once.
    let report = c.join_node().unwrap();
    assert_eq!(report.epoch, epoch0 + 1);
    assert_eq!(c.member_count(), 4);
}

#[test]
fn aborted_decommission_keeps_the_leaver_and_its_hints() {
    let c = cluster(5, 3);
    for h in 0..16i64 {
        put(&c, h, 0, h as i32);
    }
    // Writes while the leaver is down queue hints for it.
    let leaver = NodeId(4);
    c.take_node_down(leaver);
    for h in 0..16i64 {
        put(&c, h, 1, (h + 500) as i32);
    }
    let hints = c.pending_hints(leaver);
    assert!(hints > 0, "test needs queued hints");
    let epoch0 = c.topology_epoch();
    let members0 = c.ring().members().to_vec();
    let stamp = stamp(&c, 3);

    let plan = TopologyFaultPlan::none()
        .drop_chunk_every(1)
        .max_chunk_attempts(2);
    match c.decommission_node_with(leaver, plan) {
        Err(DbError::StreamAborted(_)) => {}
        other => panic!("expected StreamAborted, got {other:?}"),
    }

    assert_eq!(c.topology_epoch(), epoch0, "aborts never bump the epoch");
    assert!(
        stamp.is_current(&c),
        "an aborted decommission stales nothing"
    );
    assert_eq!(
        c.ring().members(),
        &members0[..],
        "the leaver stays a member"
    );
    assert_eq!(c.topology_status().state, "stable");
    assert_eq!(c.topology_stats().aborts(), 1);
    assert_eq!(c.topology_stats().decommissions(), 0);
    // Its hints wait for it: neither dropped nor re-routed.
    assert_eq!(c.pending_hints(leaver), hints);
    assert_eq!(c.coordinator_stats().hints_dropped(), 0);
    assert_eq!(c.coordinator_stats().hints_rerouted(), 0);

    // Not retired: it comes back up and replays its hints.
    assert!(!c.node(leaver).is_retired());
    let writes = c.node(leaver).stats().writes;
    c.bring_node_up(leaver);
    assert!(c.node(leaver).is_up());
    assert_eq!(c.pending_hints(leaver), 0);
    assert_eq!(c.node(leaver).stats().writes, writes + hints as u64);

    // A clean retry commits with exactly one epoch bump.
    let epoch1 = c.topology_epoch();
    let report = c.decommission_node(leaver).unwrap();
    assert_eq!(report.epoch, epoch1 + 1);
    assert_eq!(c.topology_epoch(), epoch1 + 1);
    assert_eq!(c.member_count(), 4);
    assert_eq!(
        scan(&c, 16).iter().map(|rows| rows.len()).sum::<usize>(),
        32
    );
}

#[test]
fn decommission_reroutes_pending_hints_to_new_owners() {
    let c = cluster(5, 3);
    for h in 0..8i64 {
        put(&c, h, 0, h as i32);
    }
    // Writes while the future leaver is down queue hints for it.
    let leaver = NodeId(4);
    c.take_node_down(leaver);
    for h in 0..8i64 {
        put(&c, h, 1, (h + 500) as i32);
    }
    assert!(c.pending_hints(leaver) > 0, "test needs queued hints");

    let report = c.decommission_node(leaver).unwrap();
    assert!(
        report.hints_rerouted > 0,
        "hints for the leaver must move to new owners"
    );
    assert_eq!(
        c.coordinator_stats().hints_rerouted(),
        report.hints_rerouted
    );
    assert_eq!(c.pending_hints(leaver), 0, "leaver's queue drains");
    assert_eq!(c.member_count(), 4);
    assert_eq!(c.topology_stats().decommissions(), 1);

    // Zero loss at the strongest consistency: both rounds of writes —
    // including the hinted ones — are readable on the shrunk ring.
    for h in 0..8i64 {
        let rows = c
            .select("t")
            .partition(vec![Value::BigInt(h)])
            .run(Consistency::All)
            .unwrap();
        assert_eq!(rows.len(), 2, "hour {h}");
    }
}

#[test]
fn admin_guards_reject_bad_decommissions() {
    let c = cluster(3, 2);
    match c.decommission_node(NodeId(9)) {
        Err(DbError::BadQuery(m)) => assert!(m.contains("not a ring member"), "{m}"),
        other => panic!("{other:?}"),
    }
    // 3 members at rf 2: one decommission is fine, the next would leave
    // rf > members and must refuse.
    c.decommission_node(NodeId(2)).unwrap();
    match c.decommission_node(NodeId(1)) {
        Err(DbError::BadQuery(m)) => assert!(m.contains("replication factor"), "{m}"),
        other => panic!("{other:?}"),
    }
}

/// Writes racing the stream land in the double-write window: the
/// coordinator writes both old and new owners while the transition is in
/// flight, so nothing depends on the stream catching them.
#[test]
fn writes_during_join_are_never_lost() {
    let c = Arc::new(cluster(3, 2));
    // Data across many partitions so the joiner is certain to gain ranges
    // worth streaming; the racing writes below all target hour 0, which
    // may or may not be among them — zero loss must hold either way.
    for h in 0..16i64 {
        for ts in 0..16i64 {
            put(&c, h, ts, ts as i32);
        }
    }
    for ts in 16..64i64 {
        put(&c, 0, ts, ts as i32);
    }
    c.set_stream_chunk_rows(4);
    let plan = TopologyFaultPlan::none().slow_chunk_every(1, Duration::from_millis(5));
    let join = {
        let c = Arc::clone(&c);
        std::thread::spawn(move || c.join_node_with(plan).unwrap())
    };
    // Keep writing while the join streams; some of these land mid-window.
    for ts in 64..256i64 {
        put(&c, 0, ts, ts as i32);
    }
    let report = join.join().unwrap();
    assert!(report.chunks_streamed > 0);

    let rows = c
        .select("t")
        .partition(vec![Value::BigInt(0)])
        .run(Consistency::All)
        .unwrap();
    assert_eq!(rows.len(), 256, "every write must survive the join");
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row.cell("v"), Some(&Value::Int(i as i32)), "row {i}");
    }
}

#[derive(Debug, Clone)]
enum ChurnOp {
    Write {
        hour: i64,
        ts: i64,
        v: i32,
    },
    Join {
        drop_every: u64,
        corrupt_every: u64,
        joiner_crash: u64,
    },
    Leave {
        pick: usize,
        drop_every: u64,
    },
}

fn arb_churn() -> impl Strategy<Value = ChurnOp> {
    prop_oneof![
        10 => (0..6i64, 0..64i64, any::<i32>())
            .prop_map(|(hour, ts, v)| ChurnOp::Write { hour, ts, v }),
        1 => (0..4u64, 0..4u64, 0..3u64).prop_map(|(drop_every, corrupt_every, joiner_crash)| {
            ChurnOp::Join { drop_every, corrupt_every, joiner_crash }
        }),
        1 => (0..8usize, 0..4u64).prop_map(|(pick, drop_every)| {
            ChurnOp::Leave { pick, drop_every }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random join/leave schedules interleaved with QUORUM writes and
    /// injected stream faults lose nothing: the churned cluster's
    /// full-table scan is identical to a churn-free control cluster fed
    /// the same writes (same logical clock order, so identical LWW state).
    #[test]
    fn churn_schedule_loses_nothing_vs_control(ops in prop::collection::vec(arb_churn(), 1..40)) {
        let churn = cluster(4, 3);
        churn.set_stream_chunk_rows(4);
        let control = cluster(4, 3);
        let mut model = TableModel::default();

        for op in &ops {
            match op {
                ChurnOp::Write { hour, ts, v } => {
                    put(&churn, *hour, *ts, *v);
                    put(&control, *hour, *ts, *v);
                    model.put(*hour, *ts, *v);
                }
                ChurnOp::Join { drop_every, corrupt_every, joiner_crash } => {
                    let plan = TopologyFaultPlan::none()
                        .drop_chunk_every(*drop_every)
                        .corrupt_chunk_every(*corrupt_every)
                        .joiner_crash_at(*joiner_crash);
                    match churn.join_node_with(plan) {
                        Ok(_) | Err(DbError::StreamAborted(_)) => {}
                        Err(e) => panic!("join: {e}"),
                    }
                }
                ChurnOp::Leave { pick, drop_every } => {
                    let members = churn.ring().members().to_vec();
                    if members.len() <= churn.ring().replication_factor() {
                        continue;
                    }
                    let id = members[pick % members.len()];
                    let plan = TopologyFaultPlan::none().drop_chunk_every(*drop_every);
                    match churn.decommission_node_with(id, plan) {
                        Ok(_) | Err(DbError::StreamAborted(_)) => {}
                        Err(e) => panic!("leave: {e}"),
                    }
                }
            }
        }

        // Identical logical clocks on both sides: the scans must agree
        // row-for-row, cell-for-cell.
        let got = scan(&churn, 6);
        let want = scan(&control, 6);
        prop_assert_eq!(got, want);

        // And both agree with the storage model.
        for (h, rows) in (0..6).zip(&got) {
            prop_assert_eq!(visible(rows), model.hour(h), "hour {}", h);
        }
    }
}
