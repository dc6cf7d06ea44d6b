//! Allocations of the message column and of word count, counted, not timed.
//!
//! A column block shares each row's stored message instead of copying it
//! into a column of its own, so building one costs the same allocations
//! whatever its messages' lengths (the copied column grew a `String` with
//! the text). Word count packs each short token into an integer key and
//! copies a term once, at the end, so over a cached window it costs the
//! same allocations whatever the number of messages, as long as their
//! vocabulary is the same.
//!
//! The allocator's counter is process-wide, so this binary has exactly
//! **one** test function: nothing else runs in the process while it counts.

use hpclog_core::analytics::text::word_count_events;
use hpclog_core::columnar::ColumnBlock;
use hpclog_core::framework::{Framework, FrameworkConfig};
use hpclog_core::model::event::EventRecord;
use hpclog_core::model::keys::HOUR_MS;
use loggen::topology::Topology;
use rasdb::types::{Key, Row, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// The system allocator with a counter in front of it.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// How far apart two word counts' allocations may be: a telemetry ring or
/// window bucket growing during one of the measured calls.
const SPREAD: usize = 4;

/// The messages every event draws from: words, object ids, stop words in
/// any case, hex and numbers, a token of exactly 16 bytes and tokens
/// longer than 16.
const VOCABULARY: [&str; 6] = [
    "LustreError: 11-0: atlas1-OST0041-osc-ffff8803a9c6a000: Communicating with 10.36.226.77@o2ib",
    "operation ost_read failed with -110 THE service was not Progress",
    "Lustre: atlas1-MDT0000: Client 7c1c3f2e reconnecting from abcdefghijklmnop",
    "communicationfailure with OST0041 ReconnectingToServerNow",
    "Machine Check Exception: bank 4: b200000000070005 on cpu 7",
    "",
];

/// Allocations `f` makes.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn messages_are_shared_and_words_counted_per_term() {
    // A block over 1,000 rows whose messages are 10 bytes long, or grow
    // from 10 to 1,009 bytes. (A copied column grows its `String` by
    // doubling from the first message, so only lengths that vary change
    // its number of growths.)
    let build = |len: fn(usize) -> usize| {
        let rows: Vec<Row> = (0..1_000usize)
            .map(|i| {
                let source = format!("c0-0c0s{}n{}", i % 8, i % 4);
                Row::new(
                    Key::from(vec![Value::Timestamp(i as i64), Value::text(source)]),
                    [
                        ("amount".into(), Value::BigInt(1)),
                        ("raw".into(), Value::text("x".repeat(len(i)))),
                    ],
                )
            })
            .collect();
        let (n, block) = allocations(|| ColumnBlock::build(0, "MCE", &rows));
        assert_eq!(block.len(), rows.len());
        assert_eq!(block.raw(999).len(), len(999));
        n
    };
    let (short, long) = (build(|_| 10), build(|i| 10 + i));
    println!("ColumnBlock::build over 1,000 rows: {short} allocations (10 B), {long} (10–1,009 B)");
    assert_eq!(short, long, "a block copies its messages");

    // One hour of 120 messages and one of 12,000, from the same vocabulary.
    let fw = Framework::new(FrameworkConfig {
        db_nodes: 2,
        replication_factor: 1,
        vnodes: 4,
        topology: Topology::scaled(1, 1),
        ..Default::default()
    })
    .unwrap();
    let mut counts = Vec::new();
    for (hour, events) in [(0i64, 120usize), (1, 12_000)] {
        let from = hour * HOUR_MS;
        let nodes = fw.topology().node_count();
        let written: Vec<EventRecord> = (0..events)
            .map(|i| EventRecord {
                ts_ms: from + i as i64,
                event_type: "LUSTRE_ERR".into(),
                source: fw.topology().node(i % nodes).cname.into(),
                amount: 1,
                raw: VOCABULARY[i % VOCABULARY.len()].into(),
            })
            .collect();
        fw.insert_events(&written).unwrap();
        // The first count builds and caches the hour's block; the second
        // counts its messages only.
        let built = word_count_events(&fw, "LUSTRE_ERR", from, from + HOUR_MS).unwrap();
        let (n, counted) =
            allocations(|| word_count_events(&fw, "LUSTRE_ERR", from, from + HOUR_MS).unwrap());
        assert_eq!(counted, built);
        assert_eq!(counted["OST0041"] as usize, 2 * events / VOCABULARY.len());
        assert!(counted.contains_key("abcdefghijklmnop"));
        assert!(counted.contains_key("ReconnectingToServerNow"));
        assert!(!counted.contains_key("THE") && !counted.contains_key("Progress"));
        println!(
            "word count over {events} messages: {n} allocations, {} terms",
            counted.len()
        );
        counts.push(n);
    }
    assert!(
        counts[1] <= counts[0] + SPREAD && counts[0] <= counts[1] + SPREAD,
        "word count allocates per token: {counts:?}"
    );
}
