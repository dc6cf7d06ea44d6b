//! Group commit: `insert_batch` groups a batch by partition and hands each
//! replica one batch. Whatever it is given, it must leave the cluster in the
//! state that the same rows written one at a time leave a twin cluster in —
//! on every replica, in every hint queue and in every counter — and every
//! acked row must survive a crash of every replica.

#[path = "support/model.rs"]
mod model;

use model::{pk, row, schema, visible, ModelRow, TableModel};
use proptest::prelude::*;
use rasdb::cluster::{full_range, Cluster, ClusterConfig};
use rasdb::error::DbError;
use rasdb::memtable::{sorted_cells, RowEntry};
use rasdb::node::NodeConfig;
use rasdb::query::Consistency;
use rasdb::ring::NodeId;
use rasdb::sstable::{encode_stream_chunk, stream_chunk_checksum};
use rasdb::topology::TopologyFaultPlan;
use rasdb::types::{Cell, Key, Row, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

const TABLES: [&str; 2] = ["a", "b"];
const NODES: usize = 4;
const HOURS: i64 = 5;

/// Four nodes, RF 3, and a storage engine small enough that flushes,
/// compactions and commit-log segment rotations land inside a batch.
fn cluster() -> Cluster {
    let c = Cluster::with_node_config(
        ClusterConfig {
            nodes: NODES,
            replication_factor: 3,
            vnodes: 8,
        },
        NodeConfig {
            flush_threshold: 6,
            commitlog_segment: 3,
            ..Default::default()
        },
    );
    for t in TABLES {
        c.create_table(schema(t)).unwrap();
    }
    c
}

/// One coordinator call on the batched cluster.
#[derive(Debug, Clone)]
enum Step {
    /// `insert_batch` of `(hour, ts, v)` rows; row at a time on the twin.
    Batch {
        table: usize,
        rows: Vec<(i64, i64, i32)>,
    },
    /// A single `delete` between batches, on both clusters.
    Delete { table: usize, hour: i64, ts: i64 },
}

fn arb_step() -> impl Strategy<Value = Step> {
    // Eight timestamps for up to 24 rows: duplicate clustering keys inside
    // one batch are the rule, not the exception.
    prop_oneof![
        4 => (0..2usize, prop::collection::vec((0..HOURS, 0..8i64, any::<i32>()), 1..24))
            .prop_map(|(table, rows)| Step::Batch { table, rows }),
        1 => (0..2usize, 0..HOURS, 0..8i64)
            .prop_map(|(table, hour, ts)| Step::Delete { table, hour, ts }),
    ]
}

/// Applies the steps: batched on `batched`, one row per call on `twin`.
/// Both clusters draw the same write timestamp for the same row, because
/// each draws them in arrival order. Returns the partitions touched and
/// the first error of each cluster's calls.
fn apply(
    steps: &[Step],
    batched: &Cluster,
    twin: &Cluster,
    cl: Consistency,
) -> (BTreeSet<(usize, i64)>, Option<DbError>, Option<DbError>) {
    let mut touched = BTreeSet::new();
    let (mut batched_err, mut twin_err) = (None, None);
    for step in steps {
        match step {
            Step::Batch { table, rows } => {
                let batch = rows.iter().map(|&(h, ts, v)| row(h, ts, v)).collect();
                if let Err(e) = batched.insert_batch(TABLES[*table], batch, cl) {
                    batched_err.get_or_insert(e);
                }
                for &(h, ts, v) in rows {
                    touched.insert((*table, h));
                    if let Err(e) = twin.insert(TABLES[*table], row(h, ts, v), cl) {
                        twin_err.get_or_insert(e);
                    }
                }
            }
            Step::Delete { table, hour, ts } => {
                touched.insert((*table, *hour));
                let (p, c) = (vec![Value::BigInt(*hour)], vec![Value::Timestamp(*ts)]);
                if let Err(e) = batched.delete(TABLES[*table], p.clone(), c.clone(), cl) {
                    batched_err.get_or_insert(e);
                }
                if let Err(e) = twin.delete(TABLES[*table], p, c, cl) {
                    twin_err.get_or_insert(e);
                }
            }
        }
    }
    (touched, batched_err, twin_err)
}

/// What every node answers, on its own, for every partition of every table
/// (`None` while it is down). Reading the nodes directly repairs nothing.
type ReplicaViews = BTreeMap<(usize, &'static str, i64), Option<Vec<Row>>>;

fn replica_views(c: &Cluster) -> ReplicaViews {
    let mut views = BTreeMap::new();
    for n in 0..c.node_count() {
        for t in TABLES {
            for h in 0..HOURS {
                let rows = c.node(NodeId(n)).read(t, &pk(h), &full_range());
                views.insert((n, t, h), rows);
            }
        }
    }
    views
}

/// Fails on the first `(node, table, hour)` whose rows differ, printing
/// only that partition.
fn assert_same_views(left: &ReplicaViews, right: &ReplicaViews, what: &str) {
    for (at, rows) in left {
        assert_eq!(
            Some(rows),
            right.get(at),
            "{what}: (node, table, hour) = {at:?}"
        );
    }
    assert_eq!(left.len(), right.len(), "{what}: node counts differ");
}

/// Full scan of every table through the coordinator.
fn scan(c: &Cluster, cl: Consistency) -> Vec<Vec<Row>> {
    let mut out = Vec::new();
    for t in TABLES {
        for h in 0..HOURS {
            let rows = c.select(t).partition(vec![Value::BigInt(h)]).run(cl);
            let rows = rows.unwrap_or_else(|e| panic!("scan {t}/{h} at {cl:?}: {e}"));
            out.push(rows.to_vec());
        }
    }
    out
}

fn pending_hints(c: &Cluster) -> Vec<usize> {
    (0..c.node_count())
        .map(|n| c.pending_hints(NodeId(n)))
        .collect()
}

/// The comparisons every scenario ends with, once all nodes are up: the
/// replicas agree one by one, every replica answers after a crash what it
/// answered before it, and the coordinator scans agree at every level.
fn assert_same_state_and_durable(batched: &Cluster, twin: &Cluster) {
    let before = replica_views(batched);
    assert_same_views(&before, &replica_views(twin), "batched vs twin");
    for c in [batched, twin] {
        for n in 0..c.node_count() {
            c.node(NodeId(n)).restart();
        }
    }
    // Every acked row is in the commit log or in an SSTable.
    assert_same_views(
        &before,
        &replica_views(batched),
        "batched, before vs after restart",
    );
    assert_same_views(
        &before,
        &replica_views(twin),
        "twin, before vs after restart",
    );
    for cl in [Consistency::One, Consistency::Quorum, Consistency::All] {
        assert_eq!(scan(batched, cl), scan(twin, cl), "scan at {cl:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batches over several partitions with duplicate clustering keys,
    /// deletes between them, flushes landing inside them and (most of the
    /// time) one replica down and collecting hints.
    #[test]
    fn batched_writes_equal_row_at_a_time_writes(
        steps in prop::collection::vec(arb_step(), 1..10),
        down in 0..NODES + 1,
    ) {
        let (batched, twin) = (cluster(), cluster());
        let down = (down < NODES).then_some(NodeId(down));
        for c in [&batched, &twin] {
            if let Some(id) = down {
                c.take_node_down(id);
            }
        }

        let (touched, batched_err, twin_err) =
            apply(&steps, &batched, &twin, Consistency::Quorum);
        prop_assert_eq!(batched_err, None);
        prop_assert_eq!(twin_err, None);

        // Before any read (a read may repair, and a repair is a write).
        prop_assert_eq!(batched.stats().writes, twin.stats().writes);
        prop_assert_eq!(pending_hints(&batched), pending_hints(&twin));
        assert_same_views(&replica_views(&batched), &replica_views(&twin), "batched vs twin");
        for c in [&batched, &twin] {
            for &(t, h) in &touched {
                prop_assert!(c.data_version(TABLES[t], &pk(h)) > 0, "{}/{h} not bumped", TABLES[t]);
            }
        }

        if let Some(id) = down {
            for cl in [Consistency::One, Consistency::Quorum] {
                prop_assert_eq!(scan(&batched, cl), scan(&twin, cl));
            }
            batched.bring_node_up(id);
            twin.bring_node_up(id);
        }
        prop_assert_eq!(pending_hints(&batched), vec![0; NODES]);
        assert_same_state_and_durable(&batched, &twin);

        // And both are right: the scan is what the storage model holds.
        let mut models = [TableModel::default(), TableModel::default()];
        for step in &steps {
            match step {
                Step::Batch { table, rows } => {
                    for &(h, ts, v) in rows {
                        models[*table].put(h, ts, v);
                    }
                }
                Step::Delete { table, hour, ts } => models[*table].delete(*hour, *ts),
            }
        }
        let stored: Vec<_> = scan(&batched, Consistency::All).iter().map(|rows| visible(rows)).collect();
        let expected: Vec<_> = models.iter().flat_map(|m| (0..HOURS).map(|h| m.hour(h))).collect();
        prop_assert_eq!(stored, expected);
    }
}

/// With two of four nodes down some partitions cannot reach QUORUM. The
/// batch reports that — after it has attempted every partition, so the
/// rows of the partitions that could be written, and the hints for the
/// rest, are where row-at-a-time writes would have put them.
#[test]
fn every_group_is_attempted_before_unavailable_is_returned() {
    let (batched, twin) = (cluster(), cluster());
    for c in [&batched, &twin] {
        c.take_node_down(NodeId(1));
        c.take_node_down(NodeId(2));
    }
    let rows = (0..40).map(|i| (i % HOURS, i / HOURS, i as i32)).collect();
    let steps = [Step::Batch { table: 0, rows }];
    let (touched, batched_err, twin_err) = apply(&steps, &batched, &twin, Consistency::Quorum);
    assert_eq!(touched.len(), HOURS as usize);

    // Which partitions fail depends on the ring; that some do, and some do
    // not, is what makes this a test.
    let starved: Vec<i64> = (0..HOURS)
        .filter(|h| {
            let owners = batched.owners(pk(*h).key());
            owners.contains(&NodeId(1)) && owners.contains(&NodeId(2))
        })
        .collect();
    assert!(!starved.is_empty() && starved.len() < HOURS as usize);
    let unavailable = Some(DbError::Unavailable {
        required: 2,
        received: 1,
    });
    assert_eq!(batched_err, unavailable);
    assert_eq!(twin_err, unavailable);

    assert_eq!(batched.stats().writes, twin.stats().writes);
    assert_eq!(pending_hints(&batched), pending_hints(&twin));
    assert_same_views(
        &replica_views(&batched),
        &replica_views(&twin),
        "batched vs twin",
    );
    for c in [&batched, &twin] {
        for id in [NodeId(1), NodeId(2)] {
            c.bring_node_up(id);
        }
    }
    assert_same_state_and_durable(&batched, &twin);
    let stored: usize = scan(&batched, Consistency::All).iter().map(Vec::len).sum();
    assert_eq!(stored, 40, "rows after the first starved partition");
}

/// A schema violation anywhere in a batch rejects the whole batch before
/// the first row is written.
#[test]
fn a_bad_row_rejects_the_batch_before_anything_is_written() {
    let c = cluster();
    let writes = c.stats().writes;
    let mut batch: Vec<_> = (0..12).map(|i| row(i % HOURS, i, i as i32)).collect();
    batch[7][2].1 = Value::text("not an int");
    let err = c.insert_batch("a", batch, Consistency::Quorum).unwrap_err();
    assert!(matches!(err, DbError::SchemaViolation(_)), "{err}");

    assert_eq!(c.stats().writes, writes);
    for h in 0..HOURS {
        assert_eq!(c.data_version("a", &pk(h)), 0, "partition {h} was bumped");
    }
    assert!(replica_views(&c).values().flatten().all(Vec::is_empty));
    assert!(scan(&c, Consistency::All).iter().all(Vec::is_empty));
}

/// A column named twice used to pass: only the first `hour` was type-checked
/// and the second was stored as a regular cell called `hour`.
#[test]
fn a_column_named_twice_rejects_the_batch_before_anything_is_written() {
    for (name, value) in [
        ("hour", Value::BigInt(1)),
        ("hour", Value::text("stored as a cell, once")),
        ("ts", Value::Timestamp(1)),
        ("v", Value::Int(7)),
    ] {
        let c = cluster();
        let mut batch: Vec<_> = (0..4).map(|i| row(1, i, i as i32)).collect();
        batch[2].push((name, value));
        let err = c.insert_batch("a", batch, Consistency::Quorum).unwrap_err();
        assert!(matches!(err, DbError::SchemaViolation(_)), "{name}: {err}");

        assert_eq!(c.stats().writes, 0, "second `{name}`");
        assert_eq!(c.data_version("a", &pk(1)), 0, "second `{name}`");
        assert!(scan(&c, Consistency::All).iter().all(Vec::is_empty));
        // No timestamp was drawn for the rejected batch: the next write is
        // stamped as a twin's first write is.
        let twin = cluster();
        for c in [&c, &twin] {
            c.insert("a", row(1, 0, 0), Consistency::All).unwrap();
        }
        assert_eq!(raw_views(&c, "a", 1), raw_views(&twin, "a", 1));
    }
}

/// What each of the four nodes holds of one partition, write timestamps and
/// tombstones included (`None` while a node is down).
fn raw_views(c: &Cluster, table: &str, hour: i64) -> Vec<Option<Vec<(Key, RowEntry)>>> {
    (0..c.node_count())
        .map(|n| c.node(NodeId(n)).read_raw(table, &pk(hour), &full_range()))
        .collect()
}

/// The replicas of a row hold the same `Arc`'d keys, names and values, and
/// must still be three rows: an overwrite and a delete that one replica
/// misses (it is down, and a hint queue of one keeps only the last hint)
/// change the other two and not the one that missed them, exactly as on a
/// twin written row by row; a read at ALL then repairs it.
#[test]
fn a_replica_that_misses_an_overwrite_keeps_its_own_row() {
    let (batched, twin) = (cluster(), cluster());
    let write = |rows: Vec<(i64, i64, i32)>| [Step::Batch { table: 0, rows }];
    let first = write((0..5).map(|ts| (0, ts, 1)).collect());
    assert_eq!(
        apply(&first, &batched, &twin, Consistency::All),
        ([(0, 0)].into(), None, None)
    );
    let owners = batched.owners(pk(0).key());
    let stale = owners[2];
    let before = raw_views(&batched, "a", 0);
    // The cells pointer a replica holds for the row at `at` of the
    // partition: after one RF 3 write, all three hold the same one.
    let cells = |views: &[Option<Vec<(Key, RowEntry)>>], id: NodeId, at: usize| {
        Arc::clone(views[id.0].as_ref().expect("replica up")[at].1.cells())
    };
    for at in 0..5 {
        for id in &owners[1..] {
            let shared = Arc::ptr_eq(&cells(&before, owners[0], at), &cells(&before, *id, at));
            assert!(shared, "row {at}: replica {id:?} holds its own copy");
        }
    }

    for c in [&batched, &twin] {
        c.set_hint_cap(1);
        c.take_node_down(stale);
    }
    let missed = [
        Step::Batch {
            table: 0,
            rows: vec![(0, 1, 2), (0, 3, 2)],
        },
        Step::Delete {
            table: 0,
            hour: 0,
            ts: 2,
        },
    ];
    let (_, batched_err, twin_err) = apply(&missed, &batched, &twin, Consistency::Quorum);
    assert_eq!((batched_err, twin_err), (None, None));
    for c in [&batched, &twin] {
        assert_eq!(c.pending_hints(stale), 1);
        // Revive the replica without its last hint either.
        c.node(stale).set_up(true);
    }

    let views = raw_views(&batched, "a", 0);
    assert_eq!(views, raw_views(&twin, "a", 0), "batched vs twin");
    assert_eq!(views[stale.0], before[stale.0], "the stale replica changed");
    assert_ne!(views[owners[0].0], views[stale.0]);
    assert_eq!(views[owners[0].0], views[owners[1].0]);
    // Rows 1 and 3 were overwritten: the replicas that saw it share the new
    // cells, and the one that missed it still points at the old ones.
    for at in [1, 3] {
        let (new, old) = (cells(&views, owners[0], at), cells(&views, stale, at));
        assert!(Arc::ptr_eq(&new, &cells(&views, owners[1], at)), "row {at}");
        assert!(Arc::ptr_eq(&old, &cells(&before, stale, at)), "row {at}");
        assert!(!Arc::ptr_eq(&new, &old), "row {at}");
    }

    for c in [&batched, &twin] {
        let rows = c.select("a").partition(vec![Value::BigInt(0)]);
        let rows = rows.run(Consistency::All).unwrap();
        let stored: Vec<_> = rows.iter().map(|r| r.cell("v").cloned()).collect();
        assert_eq!(stored, [1, 2, 2, 1].map(|v| Some(Value::Int(v))));
    }
    let repaired = raw_views(&batched, "a", 0);
    assert_eq!(repaired, raw_views(&twin, "a", 0), "batched vs twin");
    for id in &owners {
        assert_eq!(repaired[id.0], repaired[owners[0].0], "replica {id:?}");
    }
}

/// The stream encoding of a fixed partition, checksummed on the commit
/// before rows became sorted vectors of shared names: the bytes on the wire
/// did not change.
#[test]
fn stream_chunk_bytes_are_what_they_were() {
    let partition = Key::from(vec![Value::BigInt(417_000), Value::text("MCE")]);
    let ck = |ts: i64, source: &str| Key::from(vec![Value::Timestamp(ts), Value::text(source)]);
    let mut live = RowEntry::default();
    live.upsert(&sorted_cells([
        (
            "raw".into(),
            Cell::live(Value::text("Machine Check Exception: bank 1"), 5),
        ),
        ("amount".into(), Cell::live(Value::Int(2), 5)),
    ]));
    let mut dead_cell = RowEntry::default();
    dead_cell.upsert(&sorted_cells([
        ("amount".into(), Cell::live(Value::Int(1), 6)),
        ("raw".into(), Cell::tombstone(7)),
    ]));
    let mut dead_row = RowEntry::default();
    dead_row.upsert(&sorted_cells([(
        "amount".into(),
        Cell::live(Value::Int(4), 8),
    )]));
    dead_row.delete(9);
    let rows = [
        (ck(1_501_200_000_123, "c0-0c0s0n0"), live),
        (ck(1_501_200_000_456, "c0-0c0s0n1"), dead_cell),
        (ck(1_501_200_000_789, "c0-0c0s0n2"), dead_row),
    ];
    let encoded = encode_stream_chunk(&partition, &rows);
    assert_eq!(encoded.len(), 272);
    assert_eq!(stream_chunk_checksum(&encoded), 0x6ead_47dd_abfe_4db5);
}

/// The stream encoding of a one-row chunk, written out from the format.
fn encoded(row: &ModelRow, partition: &Key, clustering: &Key) -> Vec<u8> {
    let mut out = Vec::new();
    let sized = |out: &mut Vec<u8>, bytes: &[u8]| {
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(bytes);
    };
    sized(&mut out, &partition.encode());
    out.extend_from_slice(&1u32.to_le_bytes());
    sized(&mut out, &clustering.encode());
    match row.deleted_at {
        None => out.push(0),
        Some(ts) => {
            out.push(1);
            out.extend_from_slice(&ts.to_le_bytes());
        }
    }
    out.extend_from_slice(&(row.cells.len() as u32).to_le_bytes());
    for (name, cell) in row.cells.iter() {
        sized(&mut out, name.as_bytes());
        out.extend_from_slice(&cell.write_ts.to_le_bytes());
        match &cell.value {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode_into(&mut out);
            }
        }
    }
    out
}

/// One change to a stored row.
#[derive(Debug, Clone)]
enum RowOp {
    Upsert(Vec<(Arc<str>, Cell)>),
    Delete(u64),
}

fn arb_row_ops() -> impl Strategy<Value = Vec<RowOp>> {
    // Five names and six timestamps: collisions and ties are the rule.
    const NAMES: [&str; 5] = ["amount", "raw", "a", "zeta", "m"];
    let name = (0..NAMES.len()).prop_map(|i| NAMES[i]);
    let value = prop_oneof![
        Just(None),
        (0..4i32).prop_map(|v| Some(Value::Int(v))),
        "[a-c]{0,2}".prop_map(|s| Some(Value::text(s))),
    ];
    let cell = (name, value, 0..6u64)
        .prop_map(|(name, value, write_ts)| (name.into(), Cell { value, write_ts }));
    let op = prop_oneof![
        3 => prop::collection::vec(cell, 0..4).prop_map(RowOp::Upsert),
        1 => (0..6u64).prop_map(RowOp::Delete),
    ];
    prop::collection::vec(op, 0..8)
}

fn build(ops: &[RowOp]) -> (RowEntry, ModelRow) {
    let (mut row, mut model) = (RowEntry::default(), ModelRow::default());
    for op in ops {
        match op {
            RowOp::Upsert(cells) => {
                row.upsert(&sorted_cells(cells.iter().cloned()));
                model.write(cells);
            }
            RowOp::Delete(ts) => {
                row.delete(*ts);
                model.delete(*ts);
            }
        }
    }
    (row, model)
}

proptest! {
    /// Upserts, deletes and merges leave the vector-backed row holding,
    /// showing and encoding what the model's row holds, shows and encodes.
    #[test]
    fn a_vec_backed_row_is_the_map_backed_row(left in arb_row_ops(), right in arb_row_ops()) {
        let (row, mut model) = build(&left);
        let (other, other_model) = build(&right);
        let merged = RowEntry::merge(row, other);
        model.merge(&other_model);

        prop_assert!(merged.cells().windows(2).all(|w| w[0].0 < w[1].0), "sorted, no duplicates");
        prop_assert_eq!(ModelRow::from(&merged), model);
        prop_assert_eq!(merged.weight(), model.cells.len() + 1);
        let visible = merged.clone().visible(Key::default()).map(|row| {
            let cells = row.cells().map(|(n, v)| (Arc::clone(n), v.clone()));
            cells.collect::<Vec<_>>()
        });
        prop_assert_eq!(visible, model.visible());
        let partition = pk(3).key().clone();
        let clustering = Key::from(vec![Value::Timestamp(9)]);
        prop_assert_eq!(
            encode_stream_chunk(&partition, &[(clustering.clone(), merged)]),
            encoded(&model, &partition, &clustering)
        );
    }
}

/// A batch written while a join is streaming reaches the old owners and
/// the joiner (the double-write window) exactly as single writes do.
#[test]
fn batch_inside_a_join_window_is_double_written_like_single_writes() {
    let (batched, twin) = (Arc::new(cluster()), Arc::new(cluster()));
    let preload = [Step::Batch {
        table: 1,
        rows: (0..60).map(|i| (i % HOURS, i / HOURS, 0)).collect(),
    }];
    apply(&preload, &batched, &twin, Consistency::Quorum);

    // Two-row chunks of 60 preloaded rows, 25 ms each: the window stays
    // open for most of a second, a thousand times what the writes need.
    let joins: Vec<_> = [&batched, &twin]
        .into_iter()
        .map(|c| {
            c.set_stream_chunk_rows(2);
            let plan = TopologyFaultPlan::none().slow_chunk_every(1, Duration::from_millis(25));
            let c = Arc::clone(c);
            std::thread::spawn(move || c.join_node_with(plan).unwrap())
        })
        .collect();
    for c in [&batched, &twin] {
        while c.topology_status().state == "stable" {
            std::thread::yield_now();
        }
    }

    let steps = [
        Step::Batch {
            table: 0,
            rows: (0..50).map(|i| (i % HOURS, i % 7, i as i32)).collect(),
        },
        Step::Delete {
            table: 0,
            hour: 2,
            ts: 2,
        },
    ];
    let (touched, batched_err, twin_err) = apply(&steps, &batched, &twin, Consistency::Quorum);
    assert_eq!((batched_err, twin_err), (None, None));
    for c in [&batched, &twin] {
        assert_eq!(
            c.topology_status().state,
            format!("joining({NODES})"),
            "the writes missed the window"
        );
        for &(t, h) in &touched {
            assert!(c.data_version(TABLES[t], &pk(h)) > 0);
        }
    }
    for join in joins {
        assert!(join.join().unwrap().chunks_streamed > 0);
    }

    // `stats().writes` is left out here: the stream's own applies, which
    // race the writes above, are counted in it. The joiner's rows are not:
    // it holds every partition it now owns, whole, from double-writes alone
    // (table `a` was empty when the stream listed its partitions) or from
    // both.
    let joiner = NodeId(NODES);
    let gained: Vec<i64> = (0..HOURS)
        .filter(|h| batched.owners(pk(*h).key()).contains(&joiner))
        .collect();
    assert!(!gained.is_empty(), "the joiner gained no partition");
    for h in gained {
        let on_joiner = batched.node(joiner).read("a", &pk(h), &full_range());
        let merged = batched
            .select("a")
            .partition(vec![Value::BigInt(h)])
            .run(Consistency::All)
            .unwrap();
        assert_eq!(
            on_joiner.as_deref(),
            Some(&*merged),
            "partition {h} on the joiner"
        );
    }
    assert_eq!(pending_hints(&batched), pending_hints(&twin));
    assert_same_state_and_durable(&batched, &twin);
}

/// Four nodes, RF 3, table `a`, and a storage engine that neither flushes
/// nor truncates its commit log during a test.
fn roomy_cluster() -> Cluster {
    let c = Cluster::new(ClusterConfig {
        nodes: NODES,
        replication_factor: 3,
        vnodes: 8,
    });
    c.create_table(schema("a")).unwrap();
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Each replica's commit log receives a mixed batch in the order the
    /// grouping that laid out one vector per group gave it: the replica's
    /// groups in order of first arrival, each group's rows in arrival order.
    #[test]
    fn commit_logs_receive_the_groups_in_first_arrival_order(
        rows in prop::collection::vec((0..HOURS, 0..8i64), 1..40),
    ) {
        let c = roomy_cluster();
        // `v` is the row's place in the batch.
        let batch = rows.iter().enumerate().map(|(i, &(h, ts))| row(h, ts, i as i32)).collect();
        c.insert_batch("a", batch, Consistency::All).unwrap();

        let mut groups: Vec<(i64, Vec<i32>)> = Vec::new();
        for (i, &(h, _)) in rows.iter().enumerate() {
            match groups.iter_mut().find(|(hour, _)| *hour == h) {
                Some((_, members)) => members.push(i as i32),
                None => groups.push((h, vec![i as i32])),
            }
        }
        for n in 0..NODES {
            let id = NodeId(n);
            let expected: Vec<i32> = groups
                .iter()
                .filter(|(h, _)| c.owners(pk(*h).key()).contains(&id))
                .flat_map(|(_, members)| members.iter().copied())
                .collect();
            let logged: Vec<i32> = c
                .node(id)
                .logged_mutations("a")
                .iter()
                .map(|m| match m.cells[0].1.value {
                    Some(Value::Int(v)) => v,
                    ref other => panic!("cell {other:?}"),
                })
                .collect();
            prop_assert_eq!(logged, expected, "node {}", n);
        }
    }
}

/// Two writers keep writing one partition while a reader samples its data
/// version: what the reader sees never goes back. A batch draws all of its
/// versions at once; drawn before the versions lock is taken, the writer
/// that drew first could install last, and the partition's version would
/// step back to an older one (a race: that draw fails this test on most
/// runs, not all).
#[test]
fn a_partition_version_never_goes_back_under_concurrent_writers() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let c = Arc::new(roomy_cluster());
    let done = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..2)
        .map(|w| {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                for i in 0..10_000 {
                    // The shared partition and a few of this writer's own.
                    let batch = (0..4).map(|p| row(p * (w + 1), i, i as i32)).collect();
                    c.insert_batch("a", batch, Consistency::One).unwrap();
                }
            })
        })
        .collect();
    let sampler = {
        let (c, done) = (Arc::clone(&c), Arc::clone(&done));
        std::thread::spawn(move || {
            let (mut last, mut samples) = (0, 0u64);
            while !done.load(Ordering::Relaxed) {
                let v = c.data_version("a", &pk(0));
                assert!(v >= last, "version went back from {last} to {v}");
                last = v;
                samples += 1;
            }
            samples
        })
    };
    for w in writers {
        w.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    assert!(sampler.join().unwrap() > 0);
}
