//! Allocations of one result-cache hit, counted, not timed.
//!
//! A hit is the stored bytes of its answer spliced into the envelope: it
//! parses the request, validates the entry and writes the envelope, and
//! none of that grows with the answer. (The tree it replaced cost a deep
//! clone and a re-encode per hit — 65 allocations for one node's
//! distribution, 581 for 256; this change's hit makes 40 for either.)
//! Nor does it grow with the entry's dependencies: a whole day's heatmap
//! validates 24 hour partitions by their decorated keys, hashing none, and
//! costs no more than a one-hour panel (34 allocations; a version lookup
//! that decorated its key again made it 106).
//!
//! The allocator's counter is process-wide, so this binary has exactly
//! **one** test function: nothing else runs in the process while it counts.

use hpclog_core::framework::{Framework, FrameworkConfig};
use hpclog_core::model::event::EventRecord;
use hpclog_core::model::keys::HOUR_MS;
use hpclog_core::server::QueryEngine;
use loggen::topology::Topology;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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

/// Allocations one hit may cost, whatever its answer's size.
const MAX_HIT_ALLOCATIONS: usize = 64;
/// How far apart the counts of different answer sizes may be: a ring or a
/// window bucket growing during one of the measured calls.
const SPREAD: usize = 2;

#[test]
fn a_cached_panel_costs_the_same_few_allocations_whatever_its_size() {
    let fw = Arc::new(
        Framework::new(FrameworkConfig {
            db_nodes: 2,
            replication_factor: 1,
            vnodes: 4,
            topology: Topology::scaled(1, 3),
            ..Default::default()
        })
        .unwrap(),
    );
    let engine = QueryEngine::new(Arc::clone(&fw));

    let mut counts = Vec::new();
    // One hour per size, so every panel is its own entry.
    for (hour, nodes) in [1usize, 16, 64, 256].into_iter().enumerate() {
        let from = hour as i64 * HOUR_MS;
        for i in 0..nodes {
            fw.insert_event(&EventRecord {
                ts_ms: from + i as i64 * 1_000,
                event_type: "MCE".into(),
                source: fw.topology().node(i).cname.into(),
                amount: 1,
                raw: format!("Machine Check Exception: bank {i}").into(),
            })
            .unwrap();
        }
        let req = format!(
            r#"{{"op":"distribution","type":"MCE","from":{from},"to":{},"by":"node"}}"#,
            from + HOUR_MS
        );
        // The miss that primes the entry, then a hit for whatever a first
        // hit sets up.
        let primed = engine.handle(&req);
        let entries = jsonlite::parse(&primed).unwrap()["data"]["entries"]
            .as_array()
            .map(<[_]>::len);
        assert_eq!(entries, Some(nodes), "{primed}");
        engine.handle(&req);

        let hits = fw.result_cache().stats().hits();
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let body = engine.handle(&req);
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(fw.result_cache().stats().hits(), hits + 1, "a hit");
        assert_eq!(body.len(), primed.len(), "the primed answer");
        println!("distribution by node over {nodes} nodes: a hit makes {allocations} allocations");
        counts.push(allocations);
    }
    let (least, most) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
    assert!(
        most - least <= SPREAD,
        "a hit's allocations grow with its answer: {counts:?}"
    );

    // A whole day: one dependency per hour.
    let day = format!(
        r#"{{"op":"heatmap","type":"MCE","from":0,"to":{}}}"#,
        24 * HOUR_MS
    );
    engine.handle(&day);
    engine.handle(&day);
    let hits = fw.result_cache().stats().hits();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    engine.handle(&day);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(fw.result_cache().stats().hits(), hits + 1, "a hit");
    println!("heatmap over a day (24 dependencies): a hit makes {allocations} allocations");
    assert!(
        allocations <= most + SPREAD,
        "{allocations} allocations for a day's hit, {counts:?} for one hour's"
    );
    assert!(
        most <= MAX_HIT_ALLOCATIONS,
        "{most} allocations for one hit: {counts:?}"
    );
}
