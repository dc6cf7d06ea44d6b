//! Registries of named instruments.
//!
//! A deployment owns its [`Registry`] — counters, gauges, span histograms,
//! the trace ring and the profile sinks — and resolves each handle once,
//! where it is built.

use crate::histogram::{Histogram, HistogramSummary};
use crate::span::Trace;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Monotonically increasing count. Always records:
/// [`Registry::set_enabled`] gates spans and histograms, never a count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    pub fn incr(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Zeroes the count.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Instantaneous signed value. Always records, like [`Counter`].
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Overwrites the gauge.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Shifts the gauge by `delta`.
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A counter `name` of every event plus one counter `name.<kind>` per
/// kind, all resolved when the family is built.
#[derive(Clone, Debug, Default)]
pub struct CounterFamily {
    total: Arc<Counter>,
    kinds: Vec<(&'static str, Arc<Counter>)>,
}

impl CounterFamily {
    /// Counts one event of `kind` (a kind the family was not built with
    /// counts in the total only).
    pub fn incr(&self, kind: &str) {
        self.total.incr(1);
        if let Some((_, c)) = self.kinds.iter().find(|(k, _)| *k == kind) {
            c.incr(1);
        }
    }
}

/// Named instruments, interned on first use, and the span state they
/// share: the trace ring, the per-trace profile sinks and the spans on/off
/// switch. Handles are `Arc`s; hot paths should look an instrument up once
/// and keep the handle.
#[derive(Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    /// Spans, with the methods that read them, are in `span.rs`.
    pub(crate) trace: Arc<Trace>,
}

/// Machine-readable view of every instrument at one moment.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Every counter's name and current count, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Every gauge's name and current value, name-sorted.
    pub gauges: Vec<(String, i64)>,
    /// Every histogram's name and summary, name-sorted.
    pub histograms: Vec<(String, HistogramSummary)>,
}

fn intern<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(v) = map.read().unwrap_or_else(|e| e.into_inner()).get(name) {
        return Arc::clone(v);
    }
    let mut w = map.write().unwrap_or_else(|e| e.into_inner());
    Arc::clone(w.entry(name.to_owned()).or_default())
}

impl Registry {
    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        intern(&self.counters, name)
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        intern(&self.gauges, name)
    }

    /// The family `name` with one child counter per kind in `kinds`.
    pub fn family(&self, name: &str, kinds: &[&'static str]) -> CounterFamily {
        CounterFamily {
            total: self.counter(name),
            kinds: kinds
                .iter()
                .map(|k| (*k, self.counter(&format!("{name}.{k}"))))
                .collect(),
        }
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        intern(&self.histograms, name)
    }

    /// A point-in-time copy of every instrument.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: each(&self.counters, |k, c| (k.clone(), c.get())),
            gauges: each(&self.gauges, |k, g| (k.clone(), g.get())),
            histograms: each(&self.histograms, |k, h| (k.clone(), h.summary())),
        }
    }

    /// Zeroes every counter and histogram in place (handles stay valid)
    /// and clears the trace ring. Gauges keep their value: a gauge is a
    /// level, such as live workers or open connections, not a count since
    /// some moment, and zeroing it would make it read wrong until the level
    /// next moves.
    pub fn reset(&self) {
        each(&self.counters, |_, c| c.reset());
        each(&self.histograms, |_, h| h.reset());
        self.trace.clear();
    }
}

/// `f` over every instrument of one kind, in name order.
fn each<T, R>(map: &RwLock<BTreeMap<String, Arc<T>>>, f: impl Fn(&String, &T) -> R) -> Vec<R> {
    let map = map.read().unwrap_or_else(|e| e.into_inner());
    map.iter().map(|(k, v)| f(k, v)).collect()
}

impl Snapshot {
    /// Human-readable table of every instrument (durations shown in µs).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<44} {v:>12}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges\n");
            for (name, v) in &self.gauges {
                out.push_str(&format!("  {name:<44} {v:>12}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str(&format!(
                "histograms (latencies in µs)\n  {:<44} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
                "name", "count", "p50", "p95", "p99", "max"
            ));
            for (name, s) in &self.histograms {
                out.push_str(&format!(
                    "  {:<44} {:>8} {:>10.1} {:>10.1} {:>10.1} {:>10.1}\n",
                    name,
                    s.count,
                    s.p50 as f64 / 1_000.0,
                    s.p95 as f64 / 1_000.0,
                    s.p99 as f64 / 1_000.0,
                    s.max as f64 / 1_000.0,
                ));
            }
        }
        if out.is_empty() {
            out.push_str("no instruments registered\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_returns_the_same_instrument() {
        let r = Registry::default();
        let a = r.counter("x.y.z");
        let b = r.counter("x.y.z");
        a.incr(2);
        b.incr(3);
        assert_eq!(r.counter("x.y.z").get(), 5);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn snapshot_sees_all_kinds() {
        let r = Registry::default();
        r.counter("a.b.c").incr(1);
        r.gauge("a.b.lag").set(-7);
        r.histogram("a.b.lat").record(1000, None);
        r.span("a.b.idle");
        let snap = r.snapshot();
        assert_eq!(snap.counters, vec![("a.b.c".to_owned(), 1)]);
        assert_eq!(snap.gauges, vec![("a.b.lag".to_owned(), -7)]);
        // A resolved span's histogram is listed before it first records.
        let counts = snap.histograms.iter().map(|(k, s)| (k.as_str(), s.count));
        assert!(counts.eq([("a.b.idle", 0), ("a.b.lat", 1)]), "{snap:?}");
        let table = r.snapshot().render_table();
        assert!(table.contains("a.b.c"));
        assert!(table.contains("a.b.lat"));
    }

    #[test]
    fn a_family_counts_the_total_and_each_kind() {
        let r = Registry::default();
        let f = r.family("x.faults.injected", &["drop", "delay"]);
        f.incr("drop");
        f.incr("drop");
        f.incr("delay");
        f.incr("unknown");
        let snap = r.snapshot();
        assert_eq!(
            snap.counters,
            vec![
                ("x.faults.injected".to_owned(), 4),
                ("x.faults.injected.delay".to_owned(), 1),
                ("x.faults.injected.drop".to_owned(), 2),
            ]
        );
    }

    #[test]
    fn counts_record_while_spans_are_off() {
        let r = Registry::default();
        r.set_enabled(false);
        r.counter("a.b.c").incr(2);
        r.gauge("a.b.g").add(-3);
        drop(r.span("a.b.lat").enter());
        r.set_enabled(true);
        assert_eq!(r.counter("a.b.c").get(), 2);
        assert_eq!(r.gauge("a.b.g").get(), -3);
        assert_eq!(r.histogram("a.b.lat").count(), 0);
    }

    #[test]
    fn reset_zeroes_in_place() {
        let r = Registry::default();
        let c = r.counter("m.n.o");
        c.incr(9);
        let h = r.histogram("m.n.lat");
        h.record(5, None);
        drop(r.span("m.n.lat").enter());
        r.gauge("m.n.live").set(4);
        r.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        assert!(r.trace_snapshot().is_empty());
        assert_eq!(r.gauge("m.n.live").get(), 4, "a level is not reset");
    }
}
