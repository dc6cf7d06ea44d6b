//! Property tests: parallel execution must agree with the obvious
//! sequential evaluation, for any data and partitioning, and the streaming
//! batcher with a model of what it holds.

use proptest::prelude::*;
use sparklet::context::{current_worker, SparkletContext};
use sparklet::streaming::MicroBatcher;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// What partition `p` loads in the runner property.
fn contents(p: usize) -> Vec<u64> {
    (0..p as u64 % 5).map(|i| i * 7 + p as u64).collect()
}

/// The job the runner property runs: a function of the partition index
/// and what it loaded.
fn fold(p: usize, loaded: Vec<u64>) -> (usize, u64) {
    (p, loaded.iter().map(|v| v * (p as u64 + 1)).sum())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn partitions_load_the_data_in_order(
        data in prop::collection::vec(any::<i32>(), 0..200),
        parts in 1usize..12,
    ) {
        let ctx = SparkletContext::new(4);
        let rdd = ctx.parallelize(data.clone(), parts);
        prop_assert_eq!(rdd.num_partitions(), parts);
        let sizes = ctx.run_job(&rdd, |_, part| part.len());
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(max - min <= 1, "unbalanced: {:?}", sizes);
        prop_assert_eq!(rdd.collect(), data.clone());
        prop_assert_eq!(rdd.count(), data.len());
        prop_assert_eq!(ctx.run_job(&rdd, |p, _| p), (0..parts).collect::<Vec<_>>());
    }

    /// `run_job` against the sequential reference — each loader, then the
    /// job, on the driver, in partition order — with every loader run
    /// exactly once, on the executor its partition is pinned to.
    #[test]
    fn run_job_matches_a_sequential_reference(
        workers in 1usize..=6,
        // 8 stands for no preference.
        drawn in prop::collection::vec(0usize..9, 0..=24),
        locality in any::<bool>(),
    ) {
        let ctx = SparkletContext::new(workers);
        ctx.set_locality(locality);
        let plans: Vec<(usize, Option<usize>)> =
            drawn.iter().map(|&w| (w < 8).then_some(w)).enumerate().collect();
        let n = plans.len();
        // Per partition: its loads, and the executor it ran on plus one.
        let counters = || Arc::new((0..n).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>());
        let (loads, ran_on) = (counters(), counters());
        let (l, r) = (Arc::clone(&loads), Arc::clone(&ran_on));
        let rdd = ctx.from_planned(plans.clone(), |plan| plan.1, move |&(p, _)| {
            l[p].fetch_add(1, Ordering::SeqCst);
            r[p].store(current_worker().map_or(0, |w| w + 1), Ordering::SeqCst);
            contents(p)
        });
        let driver = current_worker();
        let reference: Vec<_> = (0..n).map(|p| fold(p, contents(p))).collect();
        prop_assert_eq!(ctx.run_job(&rdd, fold), reference);
        prop_assert_eq!(current_worker(), driver);
        for (p, pref) in plans {
            prop_assert_eq!(loads[p].load(Ordering::SeqCst), 1, "partition {} loads", p);
            let ran = ran_on[p].load(Ordering::SeqCst);
            let home = if locality { pref.filter(|&w| w < workers) } else { Some(p % workers) };
            prop_assert!(
                (1..=workers).contains(&ran) && home.is_none_or(|w| ran == w + 1),
                "partition {} pinned to {:?} ran on {}", p, home, ran - 1
            );
        }
    }

    #[test]
    fn coalesce_conserves_counts(
        events in prop::collection::vec((0i64..5, 0i64..5, 1u32..4), 0..100),
    ) {
        let merged = sparklet::streaming::coalesce(
            events.clone(),
            |(ts, node, _)| (*ts, *node),
            |a, b| a.2 += b.2,
        );
        let total_in: u32 = events.iter().map(|e| e.2).sum();
        let total_out: u32 = merged.iter().map(|e| e.2).sum();
        prop_assert_eq!(total_in, total_out);
        // Keys unique after coalescing.
        let keys: std::collections::HashSet<_> = merged.iter().map(|(t, n, _)| (t, n)).collect();
        prop_assert_eq!(keys.len(), merged.len());
    }

    /// `MicroBatcher` against a model of what it holds: nothing is lost,
    /// the buffer keeps only windows the watermark has not passed, and no
    /// window is emitted twice, widened or out of order. Call `i` feeds
    /// (kinds 0–5), advances the watermark to (6) or drains ready windows
    /// at (7–8) `50 ms × i + jitter`: event time drifts forward while
    /// arrivals stay out of order. A final call (9) drains everything.
    #[test]
    fn micro_batcher_keeps_its_invariants(
        window in 1i64..2_000,
        lateness in 0i64..5_000,
        calls in prop::collection::vec((0u8..9, -4_000i64..1_000), 0..200),
    ) {
        let mut b = MicroBatcher::with_lateness(window, lateness);
        // Accepted `(ts, id)` items not yet emitted, and the model's watermark.
        let (mut held, mut watermark) = (Vec::new(), i64::MIN);
        let (mut fed, mut emitted, mut last_window) = (0, 0, None);
        for (i, &(kind, jitter)) in calls.iter().chain([(9, 0)].iter()).enumerate() {
            let ts = 50 * i as i64 + jitter;
            match kind {
                0..=5 => {
                    fed += 1;
                    if b.feed(ts, (ts, i)) {
                        held.push((ts, i));
                        watermark = watermark.max(ts);
                    }
                }
                6 => {
                    b.advance_watermark(ts);
                    watermark = watermark.max(ts);
                }
                _ => {
                    let out = if kind == 9 { b.drain_all() } else { b.drain_ready() };
                    for (w, items) in out {
                        // (iii) Windows on the base-width grid, strictly
                        // increasing over the run, each item inside its own.
                        prop_assert_eq!(w.rem_euclid(window), 0, "window {} off the grid", w);
                        prop_assert!(last_window < Some(w), "{} after {:?}", w, last_window);
                        last_window = Some(w);
                        for item in items {
                            prop_assert!((w..w + window).contains(&item.0), "{:?} not in {}", item, w);
                            let at = held.iter().position(|h| *h == item);
                            held.swap_remove(at.expect("emitted an item never accepted"));
                            emitted += 1;
                        }
                    }
                    // (ii) What stays buffered ends after the watermark
                    // minus the lateness.
                    for (ts, _) in &held {
                        let end = ts.div_euclid(window) * window + window;
                        prop_assert!(end > watermark - lateness, "{} kept past {}", ts, watermark);
                    }
                }
            }
            // (i) Every fed item is late, emitted or buffered.
            prop_assert_eq!(fed, b.late_drops() as usize + emitted + b.buffered());
            prop_assert_eq!(b.buffered(), held.len());
            // (iv) The watermark is the largest accepted or advanced-to
            // timestamp.
            prop_assert_eq!(b.watermark(), watermark);
        }
        prop_assert!(held.is_empty(), "drain_all left {:?}", held);
    }
}
