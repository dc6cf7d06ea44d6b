//! `insert_views`: one batch of rows written to several views of them, each
//! of which keys the rows its own way. Whatever it is given, it must leave
//! every replica holding what one `insert_batch` per view leaves a twin
//! cluster holding (the same rows and cell values; write timestamps aside),
//! the views whose regular columns are the first view's must point at one
//! cells allocation per row, and a row that one view rejects must leave
//! every view untouched.

use proptest::prelude::*;
use rasdb::cluster::{full_range, Cluster, ClusterConfig};
use rasdb::error::DbError;
use rasdb::memtable::Cells;
use rasdb::node::NodeConfig;
use rasdb::query::Consistency;
use rasdb::ring::NodeId;
use rasdb::schema::{ColumnType, TableSchema};
use rasdb::types::{Key, Row, Value};
use rasdb::DecoratedKey;
use std::collections::BTreeMap;
use std::sync::Arc;

const NODES: usize = 4;
/// The views of an event: by time and by location share their regular
/// columns, `amount` and `raw`; by source keeps hour and type as regular
/// columns too, so its cells are its own.
const VIEWS: [&str; 3] = ["by_time", "by_location", "by_source"];
/// A fourth table whose `amount` is a `bigint`: an event row names it with
/// an `int`, so every row is valid for the views above and not for it.
const MISTYPED: &str = "by_total";
const TYPES: [&str; 3] = ["MCE", "LUSTRE_ERR", "GPU_XID"];
const SOURCES: [&str; 4] = ["c0-0c0s0n0", "c0-0c0s0n1", "c0-0c0s1n0", "c1-0c0s0n0"];

/// Four nodes, RF 3, and a storage engine small enough that flushes and
/// commit-log segment rotations land inside a batch.
fn cluster(node: NodeConfig) -> Cluster {
    let c = Cluster::with_node_config(
        ClusterConfig {
            nodes: NODES,
            replication_factor: 3,
            vnodes: 8,
        },
        node,
    );
    let by = |name: &str, partition: &str, clustering: &str| {
        TableSchema::builder(name)
            .partition_key("hour", ColumnType::BigInt)
            .partition_key(partition, ColumnType::Text)
            .clustering_key("ts", ColumnType::Timestamp)
            .clustering_key(clustering, ColumnType::Text)
            .column("amount", ColumnType::Int)
            .column("raw", ColumnType::Text)
    };
    let by_source = TableSchema::builder("by_source")
        .partition_key("source", ColumnType::Text)
        .clustering_key("ts", ColumnType::Timestamp)
        .column("hour", ColumnType::BigInt)
        .column("type", ColumnType::Text)
        .column("amount", ColumnType::Int)
        .column("raw", ColumnType::Text);
    let by_total = TableSchema::builder(MISTYPED)
        .partition_key("hour", ColumnType::BigInt)
        .clustering_key("ts", ColumnType::Timestamp)
        .clustering_key("source", ColumnType::Text)
        .column("type", ColumnType::Text)
        .column("amount", ColumnType::BigInt)
        .column("raw", ColumnType::Text);
    for schema in [
        by("by_time", "type", "source"),
        by("by_location", "source", "type"),
        by_source,
        by_total,
    ] {
        c.create_table(schema.build().unwrap()).unwrap();
    }
    c
}

fn small_nodes() -> NodeConfig {
    NodeConfig {
        flush_threshold: 12,
        commitlog_segment: 3,
        ..Default::default()
    }
}

/// An event: hour, type, timestamp, source, amount, message.
type Event = (i64, usize, i64, usize, i32, u8);

fn row(&(hour, ty, ts, source, amount, raw): &Event) -> Vec<(&'static str, Value)> {
    vec![
        ("hour", Value::BigInt(hour)),
        ("type", Value::text(TYPES[ty])),
        ("ts", Value::Timestamp(ts)),
        ("source", Value::text(SOURCES[source])),
        ("amount", Value::Int(amount)),
        ("raw", Value::text(format!("message {raw}"))),
    ]
}

/// Events that collide often: three hours, eight timestamps and a handful
/// of types, sources and messages, so a batch overwrites its own rows.
fn arb_event() -> impl Strategy<Value = Event> {
    (0..3i64, 0..3usize, 0..8i64, 0..4usize, 0..4i32, 0..3u8)
}

/// One call of a case: its events, and the node that is down while it is
/// written (brought back, with its hints, afterwards).
fn arb_call() -> impl Strategy<Value = (Vec<Event>, Option<usize>)> {
    (
        prop::collection::vec(arb_event(), 1..24),
        prop_oneof![3 => Just(None), 1 => (0..NODES).prop_map(Some)],
    )
}

/// What every replica holds of `view`, partition by partition, as visible
/// rows: equal rows carry equal keys and cell values, whatever their write
/// timestamps.
fn replica_rows(c: &Cluster, view: &str) -> Vec<BTreeMap<DecoratedKey, Vec<Row>>> {
    (0..c.node_count())
        .map(|n| {
            let node = c.node(NodeId(n));
            let keys = node.local_partition_keys(view);
            keys.into_iter()
                .map(|pk| {
                    let rows = node.read(view, &pk, &full_range()).expect("node is up");
                    (pk, rows)
                })
                .collect()
        })
        .collect()
}

/// The cells every replica holds for each row of `view`, by partition and
/// clustering key.
fn stored_cells(c: &Cluster, view: &str) -> BTreeMap<(Key, Key), Vec<Cells>> {
    let mut cells: BTreeMap<(Key, Key), Vec<Cells>> = BTreeMap::new();
    for n in 0..c.node_count() {
        let node = c.node(NodeId(n));
        for pk in node.local_partition_keys(view) {
            let run = node.read_raw(view, &pk, &full_range()).expect("node is up");
            for (ck, entry) in run {
                let at = (pk.key().clone(), ck);
                cells.entry(at).or_default().push(Arc::clone(entry.cells()));
            }
        }
    }
    cells
}

fn key(parts: Vec<Value>) -> Key {
    Key::from(parts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Each call goes to `insert_views` on one cluster and to one
    /// `insert_batch` per view on a twin; every replica of every view must
    /// then answer the same, and so must the counters and hint queues.
    #[test]
    fn insert_views_stores_what_one_insert_batch_per_view_stores(
        calls in prop::collection::vec(arb_call(), 1..5),
    ) {
        let (viewed, twin) = (cluster(small_nodes()), cluster(small_nodes()));
        for (events, down) in &calls {
            let rows: Vec<_> = events.iter().map(row).collect();
            if let Some(n) = down {
                viewed.take_node_down(NodeId(*n));
                twin.take_node_down(NodeId(*n));
            }
            let written = viewed.insert_views(&VIEWS, rows.clone(), Consistency::Quorum);
            prop_assert_eq!(written, Ok(VIEWS.len() * rows.len()));
            for view in VIEWS {
                let written = twin.insert_batch(view, rows.clone(), Consistency::Quorum);
                prop_assert_eq!(written, Ok(rows.len()));
            }
            for n in 0..NODES {
                prop_assert_eq!(
                    viewed.pending_hints(NodeId(n)),
                    twin.pending_hints(NodeId(n))
                );
            }
            if let Some(n) = down {
                viewed.bring_node_up(NodeId(*n));
                twin.bring_node_up(NodeId(*n));
            }
        }
        for view in VIEWS {
            prop_assert_eq!(replica_rows(&viewed, view), replica_rows(&twin, view), "{}", view);
        }
        prop_assert_eq!(viewed.stats().writes, twin.stats().writes);
        prop_assert_eq!(viewed.stats().flushes, twin.stats().flushes);
    }
}

/// A row's cells are built once: every replica of the two views with the
/// same regular columns points at one allocation, and the view with other
/// regular columns holds cells of its own, stamped with the same write
/// timestamp.
#[test]
fn views_with_the_first_views_regular_columns_share_its_cells() {
    let c = cluster(NodeConfig::default());
    // Twelve timestamps: no row overwrites another.
    let events: Vec<Event> = (0..12)
        .map(|i| {
            (
                i % 2,
                i as usize % 3,
                i,
                i as usize % 4,
                i as i32,
                i as u8 % 3,
            )
        })
        .collect();
    let rows = events.iter().map(row).collect();
    assert_eq!(c.insert_views(&VIEWS, rows, Consistency::All), Ok(36));
    c.flush_all();

    let [by_time, by_location, by_source] = VIEWS.map(|view| stored_cells(&c, view));
    for &(hour, ty, ts, source, ..) in &events {
        let (hour, ty, ts, source) = (
            Value::BigInt(hour),
            Value::text(TYPES[ty]),
            Value::Timestamp(ts),
            Value::text(SOURCES[source]),
        );
        let time = &by_time[&(
            key(vec![hour.clone(), ty.clone()]),
            key(vec![ts.clone(), source.clone()]),
        )];
        let location = &by_location[&(key(vec![hour, source.clone()]), key(vec![ts.clone(), ty]))];
        let own = &by_source[&(key(vec![source]), key(vec![ts]))];
        assert_eq!((time.len(), location.len(), own.len()), (3, 3, 3));
        for cells in time.iter().chain(location) {
            assert!(Arc::ptr_eq(cells, &time[0]), "one cells slice per row");
        }
        for cells in own {
            assert!(Arc::ptr_eq(cells, &own[0]), "one slice for its replicas");
            assert!(!Arc::ptr_eq(cells, &time[0]), "other columns, other cells");
        }
        let names: Vec<&str> = own[0].iter().map(|(n, _)| &**n).collect();
        assert_eq!(names, ["amount", "hour", "raw", "type"]);
        let write_ts = |cells: &Cells| cells.iter().map(|(_, c)| c.write_ts).max();
        assert_eq!(write_ts(&own[0]), write_ts(&time[0]), "one timestamp a row");
    }
}

/// A row that only a later view rejects rejects the batch before any view
/// is written: no row, no version, no timestamp drawn.
#[test]
fn a_row_the_second_view_rejects_leaves_the_first_untouched() {
    let c = cluster(NodeConfig::default());
    let rows: Vec<_> = (0..6).map(|i| row(&(1, 0, i, 0, 1, 0))).collect();
    for tables in [["by_time", MISTYPED], ["by_time", "no_such_table"]] {
        let err = c
            .insert_views(&tables, rows.clone(), Consistency::Quorum)
            .unwrap_err();
        assert!(
            matches!(err, DbError::SchemaViolation(_) | DbError::NoSuchTable(_)),
            "{err}"
        );
    }
    assert_eq!(c.stats().writes, 0);
    let partition = DecoratedKey::new(key(vec![Value::BigInt(1), Value::text(TYPES[0])]));
    assert_eq!(c.data_version("by_time", &partition), 0);
    assert!(replica_rows(&c, "by_time").iter().all(BTreeMap::is_empty));
    // The next write is stamped as a fresh cluster's first write is.
    let fresh = cluster(NodeConfig::default());
    for c in [&c, &fresh] {
        c.insert_views(&VIEWS, rows.clone(), Consistency::All)
            .unwrap();
    }
    assert_eq!(stored_cells(&c, "by_time"), stored_cells(&fresh, "by_time"));
}

/// An outage reported by the first view still lets every later view write:
/// every row of every view is on each live replica of its partition.
#[test]
fn an_outage_in_one_view_still_writes_the_others() {
    let c = cluster(NodeConfig::default());
    for n in [1, 2] {
        c.take_node_down(NodeId(n));
    }
    let events: Vec<Event> = (0..16)
        .map(|i| (0, (i % 3) as usize, i, (i % 4) as usize, 1, 0))
        .collect();
    let rows = events.iter().map(row).collect();
    let err = c
        .insert_views(&VIEWS, rows, Consistency::Quorum)
        .unwrap_err();
    assert!(matches!(err, DbError::Unavailable { .. }), "{err}");
    for view in VIEWS {
        let stored = replica_rows(&c, view);
        let live = [NodeId(0), NodeId(3)];
        let rows_on = |id: NodeId| stored[id.0].values().map(Vec::len).sum::<usize>();
        for &(hour, ty, ts, source, ..) in &events {
            let pk = match view {
                "by_time" => vec![Value::BigInt(hour), Value::text(TYPES[ty])],
                "by_location" => vec![Value::BigInt(hour), Value::text(SOURCES[source])],
                _ => vec![Value::text(SOURCES[source])],
            };
            let pk = DecoratedKey::new(key(pk));
            for id in c
                .owners(pk.key())
                .into_iter()
                .filter(|id| live.contains(id))
            {
                let rows = stored[id.0].get(&pk).map_or(&[][..], Vec::as_slice);
                let at = rows
                    .iter()
                    .any(|r| r.clustering.0[0] == Value::Timestamp(ts));
                assert!(at, "event at {ts} missing from {view} on {id:?}");
            }
        }
        assert!(
            live.iter().any(|&id| rows_on(id) > 0),
            "{view} wrote nothing"
        );
    }
}
