//! Allocation budget of the write path and of the read path, counted, not
//! timed.
//!
//! A stored row is shared pointers — its keys, and one name-sorted cells
//! slice that the mutation, its commit-log records and all three replicas
//! point at — plus a slot in each replica's sorted run, so an insert at RF 3
//! may allocate only a handful of times per row and leave well under a
//! kilobyte behind. A row that is a partition of its own, as most
//! `event_by_location` rows of an import or a storm are, adds its
//! partition's key and map entries on every replica, and is held inline
//! there rather than in a run. A cold read copies pointers out of the
//! replica that answers with rows (the others answer with a digest,
//! compared in place) and returns rows that point at the stored cells. This
//! binary has its own counting allocator; the counters are process-wide, so
//! its tests take [`SERIAL`] and run one at a time, and the numbers repeat
//! on any machine.

use rasdb::cluster::{full_range, Cluster, ClusterConfig};
use rasdb::query::{Consistency, ReadPlan};
use rasdb::schema::{ColumnType, TableSchema};
use rasdb::types::{Key, Value};
use rasdb::DecoratedKey;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::Mutex;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

/// The system allocator with two counters in front of it.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Held by each test while it runs: the counters see every thread.
static SERIAL: Mutex<()> = Mutex::new(());

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn live_bytes() -> isize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

const ROWS: usize = 1_000;
/// One event as `insert_batch` takes it.
type Event = Vec<(&'static str, Value)>;
/// The batches of a round — table, how the batch is made and its name, and
/// what one inserted row may cost, all three replicas included: allocations,
/// and bytes left live.
///
/// The first three: 4.4 / 5.3 / 3.4 allocations as measured. A vector per
/// partition group and a replica vector per group cost 4.5 / 6.0 / 3.5 —
/// most `event_by_location` groups are one row; hashing each partition key
/// through an encoding of its own, 4.5 / 6.2 / 4.5 (an allocation per group,
/// and a key of its own for every row of a storm); a private cell vector per
/// replica and a B-tree per memtable partition, 7.7 / 8.6. Bytes: 754 / 878
/// / 657 as measured (a decorated key carries its 16-byte hash), 1,188 /
/// 1,304 with per-replica cells and B-trees.
///
/// The fourth, a partition per row: 4.09 allocations and 1,063 bytes as
/// measured. A run per partition, with room for four rows, cost 7.09 and
/// 1,513.
type Shape = (&'static str, fn() -> Vec<Event>, &'static str, f64, f64);
const SHAPES: [Shape; 4] = [
    ("event_by_time", events, "", 4.8, 1000.0),
    ("event_by_location", events, "", 5.6, 1000.0),
    ("event_by_time", storm, ", storm order", 3.8, 1000.0),
    (
        "event_by_location",
        one_per_source,
        ", a partition per row",
        4.25,
        1100.0,
    ),
];
/// What one round may leave behind once its cluster, and with it the
/// cluster's registry and trace ring, is dropped.
const ROUND_RESIDUE_BYTES: isize = 8 * 1024;

/// Four nodes, RF 3, the two event tables of the framework.
fn cluster() -> Cluster {
    let c = Cluster::new(ClusterConfig {
        nodes: 4,
        replication_factor: 3,
        vnodes: 8,
    });
    for (table, partition_col, clustering_col) in [
        ("event_by_time", "type", "source"),
        ("event_by_location", "source", "type"),
    ] {
        let schema = TableSchema::builder(table)
            .partition_key("hour", ColumnType::BigInt)
            .partition_key(partition_col, ColumnType::Text)
            .clustering_key("ts", ColumnType::Timestamp)
            .clustering_key(clustering_col, ColumnType::Text)
            .column("amount", ColumnType::Int)
            .column("raw", ColumnType::Text)
            .build()
            .unwrap();
        c.create_table(schema).unwrap();
    }
    c
}

/// A thousand events over four hours, five types and fifty sources: twenty
/// `event_by_time` partitions of fifty rows, two hundred `event_by_location`
/// partitions of five.
fn events() -> Vec<Event> {
    const TYPES: [&str; 5] = ["MCE", "LUSTRE_ERR", "MEM_ECC", "GPU_XID", "KERNEL_PANIC"];
    (0..ROWS as i64)
        .map(|i| {
            vec![
                ("hour", Value::BigInt(417_000 + i / 250)),
                ("type", Value::text(TYPES[(i % 5) as usize])),
                ("ts", Value::Timestamp(1_501_200_000_000 + i * 14_400)),
                (
                    "source",
                    Value::text(format!("c{}-{}c0s{}n1", i % 2, i % 5, i % 50 / 10)),
                ),
                ("amount", Value::Int(1)),
                (
                    "raw",
                    Value::text(format!(
                        "event {i}: a log line of the usual seventy bytes or so"
                    )),
                ),
            ]
        })
        .collect()
}

/// `events()` a day later, the rows of each `(hour, type)` one after
/// another.
fn storm() -> Vec<Event> {
    let mut rows = events();
    for row in &mut rows {
        row[0].1 = Value::BigInt(row[0].1.as_i64().unwrap() + 24);
    }
    rows.sort_by(|a, b| (&a[0].1, &a[1].1).cmp(&(&b[0].1, &b[1].1)));
    rows
}

/// `events()` two days later, each from a source of its own: a thousand
/// `event_by_location` partitions of one row.
fn one_per_source() -> Vec<Event> {
    let mut rows = events();
    for (i, row) in rows.iter_mut().enumerate() {
        row[0].1 = Value::BigInt(row[0].1.as_i64().unwrap() + 48);
        let source = format!("c{}-{}c{}s0n{}", i / 40, i / 8 % 5, i / 4 % 2, i % 4);
        row[3].1 = Value::text(source);
    }
    rows
}

/// One round: a fresh cluster, one batch of each shape. Returns, per shape,
/// the allocations `insert_batch` made and the bytes it left live (the batch
/// it was handed included), both per row.
fn round() -> [(f64, f64); 4] {
    let c = cluster();
    let measured = SHAPES.map(|(table, make, ..)| {
        let live_before = LIVE_BYTES.load(Ordering::Relaxed);
        let batch = make();
        let allocations_before = ALLOCATIONS.load(Ordering::Relaxed);
        let written = c.insert_batch(table, batch, Consistency::Quorum).unwrap();
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations_before;
        let live = LIVE_BYTES.load(Ordering::Relaxed) - live_before;
        assert_eq!(written, ROWS);
        (allocations as f64 / ROWS as f64, live as f64 / ROWS as f64)
    });
    assert_eq!(c.stats().writes, 4 * 3 * ROWS as u64, "three replicas each");
    measured
}

#[test]
fn an_inserted_row_costs_a_few_allocations_and_a_kilobyte_and_leaks_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Once for whatever the process sets up on first use (the test
    // harness's own buffers).
    round();

    let live_before = LIVE_BYTES.load(Ordering::Relaxed);
    let measured = round();
    let residue = LIVE_BYTES.load(Ordering::Relaxed) - live_before;

    for ((table, _, shape, max, max_live), (allocations, live)) in SHAPES.into_iter().zip(measured)
    {
        let table = format!("{table}{shape}");
        println!("{table}: {allocations:.2} allocations, {live:.0} live bytes per row");
        assert!(
            allocations <= max,
            "{table}: {allocations:.2} allocations per inserted row"
        );
        assert!(
            live <= max_live,
            "{table}: {live:.0} bytes live per inserted row"
        );
    }
    // Every shared pointer went with the cluster.
    assert!(
        residue <= ROUND_RESIDUE_BYTES,
        "{residue} bytes outlived a dropped cluster"
    );
}

/// Allocations a cold quorum read may cost per row it returns: none grow
/// with the rows — 0.0 as measured (30 for the thousand rows); the replicas
/// hand out pointers to their stored cells, and the returned row keeps the
/// pointer. (A returned row that cloned its live cells into a vector of its
/// own cost 1.0; copying each stored row's vector on both replicas, 3.0;
/// the parent of the one-pass read path measured 11.6 here, 8.5 of them
/// with the block cache off, and a hit on these thousand rows cost it 3,007
/// allocations and a block over the cache's budget as many on top of the
/// read.)
const MAX_READ_ALLOCATIONS_PER_ROW: f64 = 0.1;
/// What a read may leave behind once its rows are dropped: its span.
const READ_RESIDUE_BYTES: isize = 4 * 1024;

/// `events()` as one `event_by_time` partition of `rows` rows.
fn one_partition(c: &Cluster, hour: i64, rows: usize) -> ReadPlan {
    in_runs(c, hour, rows, 1)
}

/// `events()` as one `event_by_time` partition of `rows` rows, written in
/// `runs` stretches of time with a flush after each but the last: every
/// replica holds the partition as `runs - 1` SSTables and its memtable.
fn in_runs(c: &Cluster, hour: i64, rows: usize, runs: usize) -> ReadPlan {
    let batch: Vec<_> = events()
        .into_iter()
        .take(rows)
        .map(|mut row| {
            row[0].1 = Value::BigInt(hour);
            row[1].1 = Value::text("MCE");
            row
        })
        .collect();
    let mut stretches = batch.chunks(rows.div_ceil(runs)).peekable();
    while let Some(stretch) = stretches.next() {
        c.insert_batch("event_by_time", stretch.to_vec(), Consistency::Quorum)
            .unwrap();
        if stretches.peek().is_some() {
            c.flush_all();
        }
    }
    ReadPlan {
        table: "event_by_time".into(),
        partition: DecoratedKey::new(Key::from(vec![Value::BigInt(hour), Value::text("MCE")])),
        range: full_range(),
        limit: None,
        descending: false,
    }
}

/// Allocations and live-byte growth of one `read_multi` of `plan`, the
/// result dropped before the bytes are read.
fn read(c: &Cluster, plan: &ReadPlan, rows: usize) -> (usize, isize) {
    let (allocations_before, live_before) = (allocations(), live_bytes());
    let batches = c
        .read_multi(std::slice::from_ref(plan), Consistency::Quorum)
        .unwrap();
    let allocated = allocations() - allocations_before;
    assert_eq!(batches[0].len(), rows);
    drop(batches);
    (allocated, live_bytes() - live_before)
}

#[test]
fn a_cold_read_costs_a_few_allocations_per_row_and_leaves_nothing_live() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let c = cluster();
    let plan = one_partition(&c, 1, ROWS);
    c.flush_all();
    // Once for the ring's first span and the registry's counters.
    read(&c, &one_partition(&c, 3, 1), 1);

    // The coordinator caches nothing: a repeat read is as cold as the
    // first, and neither holds a byte once its rows are dropped.
    for _ in 0..2 {
        let (cold, live) = read(&c, &plan, ROWS);
        println!(
            "cold read: {:.1} allocations per row",
            cold as f64 / ROWS as f64
        );
        assert!(
            cold as f64 <= MAX_READ_ALLOCATIONS_PER_ROW * ROWS as f64,
            "{cold} allocations for a cold read of {ROWS} rows"
        );
        assert!(
            live <= READ_RESIDUE_BYTES,
            "a cold read left {live} bytes live"
        );
    }
}

#[test]
fn a_cold_read_of_a_partition_in_several_runs_costs_no_allocations_per_row() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let c = cluster();
    // Three SSTables and the memtable on every replica, as a storm hour
    // that was flushed while it grew.
    let plan = in_runs(&c, 1, ROWS, 4);
    let flushes: Vec<u64> = c
        .owners(plan.partition.key())
        .into_iter()
        .map(|id| c.node(id).stats().flushes)
        .collect();
    assert_eq!(flushes, [3, 3, 3]);
    read(&c, &one_partition(&c, 3, 1), 1);

    let (cold, _) = read(&c, &plan, ROWS);
    println!(
        "cold read of four runs: {:.2} allocations per row",
        cold as f64 / ROWS as f64
    );
    assert!(
        cold as f64 <= MAX_READ_ALLOCATIONS_PER_ROW * ROWS as f64,
        "{cold} allocations for a cold read of {ROWS} rows in four runs"
    );
}
