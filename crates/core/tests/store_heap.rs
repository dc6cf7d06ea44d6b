//! What a stored day costs: the live bytes and live allocations a framework
//! holds per imported line, counted, not timed.
//!
//! The corpus is a 24-hour storm day on a 4×4-cabinet floor (12,258 lines,
//! about 1.8 MiB of text), imported as 100 slices through
//! `Framework::batch_import_bytes` with one executor, so the numbers repeat
//! on any machine. Everything the framework holds counts: commit logs,
//! memtables, SSTables, the application tables and its telemetry
//! registry with its trace ring. The ceilings are what the store
//! measured with a little headroom; they only ever move down.
//!
//! The allocator's counters are process-wide, so this binary has exactly
//! **one** test function: nothing else runs in the process while it counts.

use hpclog_core::etl::batch::ImportOptions;
use hpclog_core::framework::{Framework, FrameworkConfig};
use loggen::topology::Topology;
use loggen::trace::{Scenario, ScenarioConfig};
use rasdb::query::Consistency;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static LIVE_ALLOCATIONS: AtomicIsize = AtomicIsize::new(0);

/// The system allocator with two counters in front of it.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_ALLOCATIONS.fetch_sub(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
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

const SLICES: usize = 100;
/// Live bytes and live allocations per line once the day is imported, and
/// once every memtable is flushed: 1,246 B and 8.68 after the import, 1,145 B
/// and 8.68 after the flush as measured (8.18 and 7.51 times the text). With
/// each view of an event holding cells of its own, the store held 1,356 B
/// and 9.55, and 1,255 B and 9.55; with every partition a run with room for
/// four rows as well, 1,562 B and 11.02, and 1,491 B and 11.02.
const MAX_IMPORTED: (f64, f64) = (1_280.0, 8.90);
const MAX_FLUSHED: (f64, f64) = (1_175.0, 8.90);

/// Live bytes and allocations held since `since`, per line.
fn per_line(since: (isize, isize), lines: usize) -> (f64, f64) {
    let bytes = LIVE_BYTES.load(Ordering::Relaxed) - since.0;
    let allocations = LIVE_ALLOCATIONS.load(Ordering::Relaxed) - since.1;
    (
        bytes as f64 / lines as f64,
        allocations as f64 / lines as f64,
    )
}

#[test]
fn a_stored_day_stays_under_its_bytes_and_allocations_per_line() {
    let cfg = ScenarioConfig {
        rate_scale: 3.0,
        ..ScenarioConfig::storm_day(24, 41)
    };
    let topology = Topology::scaled(4, 4);
    let day = Scenario::generate(&topology, &cfg, 1977);
    let lines = day.lines.len();
    let slices: Vec<Vec<u8>> = (0..SLICES)
        .map(|i| {
            let mut slice = Vec::new();
            for line in &day.lines[i * lines / SLICES..(i + 1) * lines / SLICES] {
                slice.extend_from_slice(line.render().as_bytes());
                slice.push(b'\n');
            }
            slice
        })
        .collect();
    let text: usize = slices.iter().map(Vec::len).sum();
    drop(day);

    let since = (
        LIVE_BYTES.load(Ordering::Relaxed),
        LIVE_ALLOCATIONS.load(Ordering::Relaxed),
    );
    let fw = Framework::new(FrameworkConfig {
        db_nodes: 4,
        replication_factor: 3,
        vnodes: 16,
        workers: Some(1),
        topology,
        consistency: Consistency::Quorum,
        ..FrameworkConfig::default()
    })
    .unwrap();
    for slice in slices {
        fw.batch_import_bytes(slice, &ImportOptions::default())
            .unwrap();
    }
    let imported = per_line(since, lines);
    fw.cluster().flush_all();
    let flushed = per_line(since, lines);

    println!(
        "{lines} lines, {:.0} B of text per line",
        text as f64 / lines as f64
    );
    for ((bytes, allocations), (max_bytes, max_allocations), when) in [
        (imported, MAX_IMPORTED, "imported"),
        (flushed, MAX_FLUSHED, "flushed"),
    ] {
        println!(
            "{when}: {bytes:.0} B and {allocations:.2} allocations live per line, {:.2}x the text",
            bytes * lines as f64 / text as f64
        );
        assert!(
            bytes <= max_bytes,
            "{when}: {bytes:.0} B live per line, over {max_bytes}"
        );
        assert!(
            allocations <= max_allocations,
            "{when}: {allocations:.2} allocations live per line, over {max_allocations}"
        );
    }
}
