//! Real-time streaming ingestion: bus → 1-second windows → coalesce →
//! store (paper §III-D), with an at-least-once delivery contract.
//!
//! Producers publish raw lines to the [`crate::framework::RAW_LOG_TOPIC`]
//! topic keyed by source, an ingester consumes them, windows them by event
//! time with "the time window of the Spark streaming ... set to one
//! second", coalesces occurrences "of the same type and same location ...
//! timestamped the same", and uploads the survivors to both event tables.
//!
//! # Delivery contract
//!
//! The ingester commits bus offsets **only after** the rasdb write batch
//! covering them is durably acked (or dead-lettered): per partition it
//! commits the lowest offset still buffered in an open window, so a crash
//! replays unacked records rather than losing them. An open window keeps
//! only the first offset it was fed from each partition, which is its
//! lowest: the offset guard below feeds a partition's offsets in increasing
//! order. Duplicates from replay are absorbed two ways: records the
//! ingester has already seen in this life are skipped by offset, and
//! records whose window was already flushed are suppressed as late by
//! seeding the restarted batcher from the checkpointed watermark (offsets
//! and watermark commit atomically).
//! Store failures (`DbError::Unavailable`) are retried with exponential
//! backoff + jitter; retry-exhausted windows and unparseable lines go to
//! the [`crate::framework::RAW_LOG_DLQ_TOPIC`] dead-letter topic, which
//! [`dlq_peek`] / [`dlq_requeue`] inspect and replay.

use crate::etl::fastpath::FastParser;
use crate::etl::parsers::ParsedLine;
use crate::framework::{Framework, RAW_LOG_DLQ_TOPIC, RAW_LOG_TOPIC};
use crate::model::event::EventRecord;
use logbus::{BusError, Consumer, Producer, Record};
use loggen::trace::RawLine;
use rand::{Rng, SeedableRng, StdRng};
use rasdb::error::DbError;
use sparklet::streaming::{coalesce, MicroBatcher};
use std::collections::{BTreeMap, HashMap};

/// The streaming window (paper: one second).
pub const WINDOW_MS: i64 = 1000;

/// The consumer group used by the DLQ drain/requeue helpers.
pub const DLQ_GROUP: &str = "dlq-drain";

/// Prefix marking a dead-lettered *event* (vs a raw line) in the DLQ.
const DLQ_EVENT_PREFIX: &str = "EVT|";

/// Attempts a producer makes per line before giving up on a send that
/// keeps failing (backpressure or injected drops).
const PUBLISH_ATTEMPTS: u32 = 64;

/// Tuning for the at-least-once ingestion loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Out-of-order tolerance across sources (window lateness). It also
    /// bounds what the batcher buffers: after each step it holds only the
    /// events of the last `lateness_ms` + one window of event time.
    pub lateness_ms: i64,
    /// Store attempts per window before the batch is dead-lettered.
    pub max_store_attempts: u32,
    /// First retry backoff; doubles per attempt.
    pub backoff_base_ms: u64,
    /// Backoff ceiling (pre-jitter).
    pub backoff_cap_ms: u64,
}

impl Default for StreamConfig {
    fn default() -> StreamConfig {
        StreamConfig {
            lateness_ms: 0,
            max_store_attempts: 5,
            backoff_base_ms: 2,
            backoff_cap_ms: 64,
        }
    }
}

/// Publishes raw lines to the bus, keyed by source so per-node order is
/// preserved. Retries sends that hit backpressure ([`BusError::Full`]) or
/// an injected drop; a record is either appended exactly once or the
/// publish fails loudly — never silently lost.
pub fn publish_lines(fw: &Framework, lines: &[RawLine]) -> Result<usize, BusError> {
    let producer = Producer::new(fw.bus());
    for line in lines {
        send_with_retry(
            &producer,
            RAW_LOG_TOPIC,
            Some(&line.source),
            &line.render(),
            line.ts_ms,
        )?;
    }
    Ok(lines.len())
}

/// Bounded-retry send: immediate retry on injected drops, short sleep on
/// backpressure (giving a concurrent consumer a chance to commit).
fn send_with_retry(
    producer: &Producer<'_>,
    topic: &str,
    key: Option<&str>,
    value: &str,
    ts_ms: i64,
) -> Result<(usize, u64), BusError> {
    let mut attempts = 0;
    loop {
        match producer.send_at(topic, key, value, ts_ms) {
            Ok(at) => return Ok(at),
            Err(e @ (BusError::Full { .. } | BusError::Injected(_))) => {
                attempts += 1;
                if attempts >= PUBLISH_ATTEMPTS {
                    return Err(e);
                }
                if let BusError::Full { retry_after_ms, .. } = e {
                    std::thread::sleep(std::time::Duration::from_millis(retry_after_ms.min(2)));
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// What a streaming drain did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamReport {
    /// Records polled off the bus.
    pub polled: usize,
    /// Lines parsed into events.
    pub events_in: usize,
    /// Events written after coalescing.
    pub events_out: usize,
    /// Job lines: the stream stores no job (a batch import does). Junk is
    /// dead-lettered and counted in `parse_failures`, not here.
    pub non_events: usize,
    /// Items dropped for arriving behind the watermark (includes replayed
    /// records suppressed because their window was already flushed).
    pub late_drops: u64,
    /// Redelivered records skipped by the offset guard.
    pub duplicates: u64,
    /// Unparseable lines routed to the dead-letter topic.
    pub parse_failures: u64,
    /// Store retries performed (after `DbError::Unavailable`).
    pub retries: u64,
    /// Events dead-lettered after exhausting store retries.
    pub dlq_events: usize,
    /// Offset commits that failed (retried on the next step).
    pub commit_failures: u64,
}

/// Per open window, the first offset fed from each partition: its lowest,
/// as the offset guard feeds a partition's offsets in increasing order.
struct OpenWindows(BTreeMap<i64, HashMap<usize, u64>>);

impl OpenWindows {
    /// Notes offset `off` of partition `p`, accepted into window `w`.
    fn fed(&mut self, w: i64, p: usize, off: u64) {
        self.0.entry(w).or_default().entry(p).or_insert(off);
    }

    /// Forgets window `w` once it is durable (stored or dead-lettered).
    fn close(&mut self, w: i64) {
        self.0.remove(&w);
    }

    /// Partition `p`'s lowest offset not yet durable, if a window holds one.
    fn low(&self, p: usize) -> Option<u64> {
        self.0.values().filter_map(|w| w.get(&p)).min().copied()
    }
}

/// A long-lived streaming ingester (one consumer-group member).
pub struct StreamIngester<'f> {
    fw: &'f Framework,
    consumer: Consumer,
    batcher: MicroBatcher<EventRecord>,
    /// The zero-copy byte scanner — the batch path's parser, see
    /// `fastpath`.
    parser: FastParser,
    cfg: StreamConfig,
    rng: StdRng,
    /// What the open windows hold of each partition (not yet durable).
    open: OpenWindows,
    /// Per-partition highest offset processed in this ingester's lifetime;
    /// redeliveries at or below it are skipped.
    max_seen: HashMap<usize, u64>,
    report: StreamReport,
}

impl<'f> StreamIngester<'f> {
    /// Joins the ingester group. `lateness_ms` tolerates out-of-order
    /// arrival across sources.
    pub fn new(fw: &'f Framework, group: &str, lateness_ms: i64) -> Result<Self, BusError> {
        StreamIngester::with_config(
            fw,
            group,
            StreamConfig {
                lateness_ms,
                ..StreamConfig::default()
            },
        )
    }

    /// Joins the ingester group with explicit tuning.
    pub fn with_config(
        fw: &'f Framework,
        group: &str,
        cfg: StreamConfig,
    ) -> Result<Self, BusError> {
        let consumer = Consumer::new(fw.bus(), group, RAW_LOG_TOPIC)?;
        let mut batcher = MicroBatcher::with_lateness(WINDOW_MS, cfg.lateness_ms);
        // Resume from the checkpoint: records replayed from committed
        // offsets whose windows were already flushed must be dropped as
        // late, not re-written as partial windows.
        batcher.advance_watermark(consumer.checkpoint_watermark());
        Ok(StreamIngester {
            fw,
            consumer,
            batcher,
            parser: FastParser::new(),
            rng: StdRng::seed_from_u64(42),
            cfg,
            open: OpenWindows(BTreeMap::new()),
            max_seen: HashMap::new(),
            report: StreamReport::default(),
        })
    }

    /// Polls once and processes every ready window; commits offsets made
    /// durable by the flushes. Returns the number of bus records consumed
    /// (0 = idle).
    pub fn step(&mut self, max_records: usize) -> Result<usize, DbError> {
        // Each step is a root trace: window flushes, store retries, and the
        // commit hook below all record spans under one trace id, so a slow
        // ingest step can be reconstructed exactly like a slow query.
        let ctx = telemetry::TraceContext::root();
        let _span = self.fw.etl_stats().step_span.enter_in(&ctx);
        let records = self.consumer.poll(max_records);
        let polled = records.len();
        self.report.polled += polled;
        for record in records {
            self.ingest_record(record);
        }
        for (window_start, batch) in self.batcher.drain_ready() {
            self.flush_window(window_start, batch)?;
        }
        self.commit_safe();
        self.fw
            .etl_stats()
            .ingest_lag
            .set(self.consumer.lag() as i64);
        Ok(polled)
    }

    fn ingest_record(&mut self, record: Record) {
        let (p, off) = (record.partition, record.offset);
        if self.max_seen.get(&p).is_some_and(|m| off <= *m) {
            self.report.duplicates += 1;
            self.fw.etl_stats().duplicates.incr(1);
            return;
        }
        self.max_seen.insert(p, off);
        match self.parser.parse_line(record.value.as_bytes()) {
            Some(ParsedLine::Event(ev)) => {
                self.report.events_in += 1;
                let window = self.batcher.window_of(ev.ts_ms);
                if self.batcher.feed(ev.ts_ms, ev) {
                    self.open.fed(window, p, off);
                }
                // Late drops are final (counted by the batcher): nothing
                // buffered, so the offset is immediately committable.
            }
            Some(_) => self.report.non_events += 1,
            None => {
                // Unparseable: dead-letter the raw line as-is.
                self.report.parse_failures += 1;
                self.dead_letter(record.key.as_deref(), &record.value);
            }
        }
    }

    /// Flushes everything still buffered (end of stream).
    pub fn finish(mut self) -> Result<StreamReport, DbError> {
        for (window_start, batch) in self.batcher.drain_all() {
            self.flush_window(window_start, batch)?;
        }
        self.commit_safe();
        self.report.late_drops = self.batcher.late_drops();
        Ok(self.report)
    }

    /// Drains the topic until it is idle, then flushes.
    pub fn run_to_completion(mut self, max_records: usize) -> Result<StreamReport, DbError> {
        while self.step(max_records)? > 0 {}
        self.finish()
    }

    /// The live report (also returned by [`StreamIngester::finish`], which
    /// additionally folds in the final late-drop count).
    pub fn report(&self) -> StreamReport {
        let mut r = self.report;
        r.late_drops = self.batcher.late_drops();
        r
    }

    fn flush_window(&mut self, window: i64, mut events: Vec<EventRecord>) -> Result<(), DbError> {
        let mut span = self.fw.etl_stats().window_span.enter();
        span.tag("window_start_ms", window.to_string());
        let events_in = events.len();
        // Coalesce same (type, source) within the window into one event
        // stamped at the window start, amounts summed.
        for e in &mut events {
            e.ts_ms = window;
        }
        let merged = coalesce(
            events,
            |e| (e.event_type.clone(), e.source.clone()),
            |a, b| a.amount += b.amount,
        );
        self.report.events_out += merged.len();
        let etl = self.fw.etl_stats();
        etl.window_events_in.set(events_in as i64);
        etl.window_events_out.set(merged.len() as i64);
        etl.events_out.incr(merged.len() as u64);
        match self.store_with_retry(&merged) {
            Ok(()) => {}
            Err(DbError::Unavailable { .. }) => {
                // Retries exhausted: dead-letter the whole window so the
                // records are recoverable once the cluster heals.
                self.report.dlq_events += merged.len();
                for ev in &merged {
                    self.dead_letter(Some(&ev.source), &serialize_event(ev));
                }
            }
            // Anything else is a programming error (schema drift): leave
            // the window open so nothing is committed past its offsets.
            Err(e) => return Err(e),
        }
        self.open.close(window);
        Ok(())
    }

    /// Writes the batch, retrying `DbError::Unavailable` with exponential
    /// backoff + jitter up to the configured attempt budget.
    fn store_with_retry(&mut self, merged: &[EventRecord]) -> Result<(), DbError> {
        let mut span = self.fw.etl_stats().store_span.enter();
        let mut attempt: u32 = 0;
        loop {
            span.tag("attempt", (attempt + 1).to_string());
            match self.fw.insert_events(merged) {
                Ok(_) => return Ok(()),
                Err(e @ DbError::Unavailable { .. }) => {
                    attempt += 1;
                    if attempt >= self.cfg.max_store_attempts {
                        return Err(e);
                    }
                    let exp = self
                        .cfg
                        .backoff_base_ms
                        .saturating_mul(1 << (attempt - 1).min(16))
                        .min(self.cfg.backoff_cap_ms)
                        .max(1);
                    let delay = exp + self.rng.gen_range(0..=exp / 2);
                    self.report.retries += 1;
                    self.fw.etl_stats().store_retries.incr(1);
                    self.fw.etl_stats().store_backoff_ms.incr(delay);
                    std::thread::sleep(std::time::Duration::from_millis(delay));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Publishes one payload to the dead-letter topic. DLQ overflow (the
    /// DLQ itself full past retries) is the one boundary where data is
    /// dropped — counted, never silent.
    fn dead_letter(&mut self, key: Option<&str>, value: &str) {
        let producer = Producer::new(self.fw.bus());
        match send_with_retry(&producer, RAW_LOG_DLQ_TOPIC, key, value, 0) {
            Ok(_) => self.fw.etl_stats().dlq_depth.add(1),
            Err(_) => self.fw.etl_stats().dlq_publish_failures.incr(1),
        }
    }

    /// Commits, per partition, the lowest offset still buffered in an open
    /// window (everything below it is durable) — or the poll position when
    /// nothing is buffered — together with the batcher's event-time
    /// watermark.
    fn commit_safe(&mut self) {
        let _span = self.fw.etl_stats().commit_span.enter();
        let safe: Vec<(usize, u64)> = self
            .consumer
            .positions()
            .iter()
            .map(|(p, pos)| (*p, self.open.low(*p).unwrap_or(*pos)))
            .collect();
        let watermark = self.batcher.watermark();
        if self.consumer.commit_through(&safe, watermark).is_ok() {
            // Advance the framework's ingest watermark and drop memoized
            // answers over the (previously) open hour: a window closes only
            // once its data is durably committed.
            if watermark != i64::MIN {
                self.fw.note_ingest_commit(watermark);
            }
        } else {
            // Injected commit fault: positions are untouched, the next
            // step's commit covers this one (at-least-once, maybe replay).
            self.report.commit_failures += 1;
            self.fw.etl_stats().commit_failures.incr(1);
        }
    }
}

/// Serializes an event for the dead-letter topic (`raw` last — it may
/// contain the separator).
fn serialize_event(ev: &EventRecord) -> String {
    format!(
        "{}{}|{}|{}|{}|{}",
        DLQ_EVENT_PREFIX, ev.ts_ms, ev.event_type, ev.source, ev.amount, ev.raw
    )
}

/// Parses a dead-lettered event serialized by [`serialize_event`].
fn parse_dlq_event(value: &str) -> Option<EventRecord> {
    let rest = value.strip_prefix(DLQ_EVENT_PREFIX)?;
    let mut parts = rest.splitn(5, '|');
    Some(EventRecord {
        ts_ms: parts.next()?.parse().ok()?,
        event_type: parts.next()?.into(),
        source: parts.next()?.into(),
        amount: parts.next()?.parse().ok()?,
        raw: parts.next().unwrap_or_default().into(),
    })
}

/// Dead-letter entries not yet consumed by the drain group.
pub fn dlq_depth(fw: &Framework) -> Result<u64, BusError> {
    let consumer = Consumer::new(fw.bus(), DLQ_GROUP, RAW_LOG_DLQ_TOPIC)?;
    Ok(consumer.lag())
}

/// Inspects up to `max` dead-letter entries without consuming them (the
/// next peek or requeue sees them again).
pub fn dlq_peek(fw: &Framework, max: usize) -> Result<Vec<Record>, BusError> {
    let mut consumer = Consumer::new(fw.bus(), DLQ_GROUP, RAW_LOG_DLQ_TOPIC)?;
    Ok(consumer.poll(max)) // positions die with the consumer: no commit
}

/// What a DLQ requeue pass accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DlqRequeueReport {
    /// Dead-lettered events re-inserted into the event tables.
    pub events_reinserted: usize,
    /// Raw lines republished to the ingest topic.
    pub lines_republished: usize,
    /// Poison entries (unparseable as either form) dropped.
    pub poison_dropped: usize,
    /// Entries left in the DLQ (hit an error mid-pass; retry later).
    pub remaining: u64,
}

/// Replays up to `max` dead-letter entries: serialized events are
/// re-inserted into the event tables, raw lines are republished to the
/// ingest topic (to be re-parsed by the stream). Entries are committed
/// (removed from the DLQ) only once their replay succeeded; on a store or
/// publish failure the pass stops early and the remainder stays queued.
pub fn dlq_requeue(fw: &Framework, max: usize) -> Result<DlqRequeueReport, DbError> {
    let _span = fw.etl_stats().dlq_requeue_span.enter();
    let mut consumer = Consumer::new(fw.bus(), DLQ_GROUP, RAW_LOG_DLQ_TOPIC)
        .expect("dlq topic is provisioned by Framework::new");
    let producer = Producer::new(fw.bus());
    let mut report = DlqRequeueReport::default();
    let mut done: HashMap<usize, u64> = HashMap::new();
    let mut processed: i64 = 0;
    'records: for record in consumer.poll(max) {
        if record.value.starts_with(DLQ_EVENT_PREFIX) {
            match parse_dlq_event(&record.value) {
                Some(ev) => match fw.insert_events(&[ev]) {
                    Ok(_) => report.events_reinserted += 1,
                    Err(DbError::Unavailable { .. }) => break 'records,
                    Err(e) => return Err(e),
                },
                None => report.poison_dropped += 1,
            }
        } else {
            match send_with_retry(
                &producer,
                RAW_LOG_TOPIC,
                record.key.as_deref(),
                &record.value,
                0,
            ) {
                Ok(_) => report.lines_republished += 1,
                Err(_) => break 'records,
            }
        }
        processed += 1;
        done.insert(record.partition, record.offset + 1);
    }
    let commits: Vec<(usize, u64)> = done.into_iter().collect();
    // A failed commit leaves entries queued for the next pass — requeue is
    // idempotent for events (LWW upsert) and lines (stream re-coalesces).
    let _ = consumer.commit_through(&commits, i64::MIN);
    fw.etl_stats().dlq_depth.add(-processed);
    report.remaining = consumer.lag();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::FrameworkConfig;
    use loggen::topology::Topology;
    use loggen::trace::Facility;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    const T0: i64 = 1_500_000_000_000;

    fn fw() -> Framework {
        Framework::new(FrameworkConfig {
            db_nodes: 3,
            replication_factor: 2,
            vnodes: 8,
            topology: Topology::scaled(2, 2),
            ..Default::default()
        })
        .unwrap()
    }

    fn mce_line(ts: i64, src: &str) -> RawLine {
        RawLine {
            ts_ms: ts,
            facility: Facility::Console,
            source: src.to_owned(),
            text: "Machine Check Exception: bank 1: b2 addr 3f cpu 0".to_owned(),
        }
    }

    #[test]
    fn stream_ingests_and_coalesces_same_second_same_source() {
        let fw = fw();
        let t0 = 1_500_000_000_000i64;
        // Three MCEs on one node within one second + one on another node.
        let lines = vec![
            mce_line(t0 + 100, "c0-0c0s0n0"),
            mce_line(t0 + 400, "c0-0c0s0n0"),
            mce_line(t0 + 900, "c0-0c0s0n0"),
            mce_line(t0 + 500, "c0-0c0s1n0"),
            mce_line(t0 + 2500, "c0-0c0s0n0"), // later window
        ];
        publish_lines(&fw, &lines).unwrap();
        let ingester = StreamIngester::new(&fw, "test", 10_000).unwrap();
        let report = ingester.run_to_completion(64).unwrap();
        assert_eq!(report.polled, 5);
        assert_eq!(report.events_in, 5);
        assert_eq!(report.events_out, 3, "3+1 coalesce to 1+1, plus 1 later");
        assert_eq!(report.late_drops, 0);

        let stored = fw.events_by_type("MCE", t0, t0 + 10_000).unwrap();
        assert_eq!(stored.len(), 3);
        let big = stored
            .iter()
            .find(|e| &*e.source == "c0-0c0s0n0" && e.ts_ms == t0)
            .unwrap();
        assert_eq!(big.amount, 3, "coalesced amount sums occurrences");
    }

    #[test]
    fn total_occurrence_mass_is_conserved() {
        let fw = fw();
        let t0 = 1_500_000_000_000i64;
        let lines: Vec<RawLine> = (0..100)
            .map(|i| mce_line(t0 + (i % 10) * 300, &format!("c0-0c0s{}n0", i % 4)))
            .collect();
        publish_lines(&fw, &lines).unwrap();
        let report = StreamIngester::new(&fw, "g", 60_000)
            .unwrap()
            .run_to_completion(32)
            .unwrap();
        assert_eq!(report.events_in, 100);
        let stored = fw.events_by_type("MCE", t0, t0 + 60_000).unwrap();
        let mass: i32 = stored.iter().map(|e| e.amount).sum();
        assert_eq!(mass, 100, "coalescing preserves counts");
        assert_eq!(stored.len(), report.events_out);
        assert!(report.events_out < 100);
    }

    #[test]
    fn non_event_lines_are_counted_not_stored() {
        let fw = fw();
        let lines = vec![RawLine {
            ts_ms: 1_500_000_000_000,
            facility: Facility::App,
            source: "alps".to_owned(),
            text: "apid 1 start user=u app=VASP nodes=0-1 width=2".to_owned(),
        }];
        publish_lines(&fw, &lines).unwrap();
        let report = StreamIngester::new(&fw, "g", 0)
            .unwrap()
            .run_to_completion(16)
            .unwrap();
        assert_eq!(report.non_events, 1);
        assert_eq!(report.events_out, 0);
    }

    #[test]
    fn two_group_members_share_the_work() {
        let fw = fw();
        let t0 = 1_500_000_000_000i64;
        let lines: Vec<RawLine> = (0..60)
            .map(|i| mce_line(t0 + i * 10, &format!("c{}-0c0s0n0", i % 2)))
            .collect();
        publish_lines(&fw, &lines).unwrap();
        let mut a = StreamIngester::new(&fw, "shared", 60_000).unwrap();
        let mut b = StreamIngester::new(&fw, "shared", 60_000).unwrap();
        while a.step(8).unwrap() + b.step(8).unwrap() > 0 {}
        let ra = a.finish().unwrap();
        let rb = b.finish().unwrap();
        assert_eq!(ra.polled + rb.polled, 60);
        assert!(ra.polled > 0 && rb.polled > 0, "both members consumed");
        let mass: i32 = fw
            .events_by_type("MCE", t0, t0 + 60_000)
            .unwrap()
            .iter()
            .map(|e| e.amount)
            .sum();
        assert_eq!(mass, 60);
    }

    #[test]
    fn unparseable_lines_go_to_the_dlq_and_requeue_republishes() {
        let fw = fw();
        let garbage = RawLine {
            ts_ms: 1_500_000_000_000,
            facility: Facility::Console,
            source: "c0-0c0s0n0".to_owned(),
            text: "%%% not a recognizable event %%%".to_owned(),
        };
        publish_lines(&fw, &[garbage]).unwrap();
        let report = StreamIngester::new(&fw, "g", 0)
            .unwrap()
            .run_to_completion(16)
            .unwrap();
        assert_eq!(report.parse_failures, 1);
        assert_eq!(dlq_depth(&fw).unwrap(), 1);
        let peeked = dlq_peek(&fw, 10).unwrap();
        assert_eq!(peeked.len(), 1);
        assert!(peeked[0].value.contains("not a recognizable event"));
        // Peek is non-destructive.
        assert_eq!(dlq_depth(&fw).unwrap(), 1);
        // Requeue republishes the line to the ingest topic.
        let rq = dlq_requeue(&fw, 10).unwrap();
        assert_eq!(rq.lines_republished, 1);
        assert_eq!(rq.remaining, 0);
        assert_eq!(dlq_depth(&fw).unwrap(), 0);
    }

    #[test]
    fn dlq_event_serialization_round_trips() {
        let ev = EventRecord {
            ts_ms: 1_500_000_000_000,
            event_type: "MCE".into(),
            source: "c0-0c0s0n0".into(),
            amount: 3,
            raw: "Machine Check | with pipes | inside".into(),
        };
        let parsed = parse_dlq_event(&serialize_event(&ev)).unwrap();
        assert_eq!(parsed, ev);
    }

    #[test]
    fn crash_and_restart_replays_without_loss_or_double_count() {
        let fw = fw();
        let t0 = 1_500_000_000_000i64;
        // One source (one partition, monotonic ts) so the test isolates
        // crash/replay from cross-partition watermark skew.
        let lines: Vec<RawLine> = (0..40)
            .map(|i| mce_line(t0 + i * 200, "c0-0c0s0n0"))
            .collect();
        publish_lines(&fw, &lines).unwrap();
        // First ingester life: a few steps flush the early windows and
        // commit their offsets, then it "crashes" (dropped without finish —
        // buffered windows die with it).
        {
            let mut first = StreamIngester::new(&fw, "g", 1000).unwrap();
            for _ in 0..3 {
                first.step(8).unwrap();
            }
            let r = first.report();
            assert!(r.events_out > 0, "first life flushed some windows");
        }
        // Second life resumes from the checkpointed offsets + watermark.
        let report = StreamIngester::new(&fw, "g", 1000)
            .unwrap()
            .run_to_completion(8)
            .unwrap();
        assert!(report.polled > 0, "replayed the unacked suffix");
        assert!(report.polled < 40, "committed prefix was not replayed");
        let stored = fw.events_by_type("MCE", t0, t0 + 60_000).unwrap();
        let mass: i32 = stored.iter().map(|e| e.amount).sum();
        assert_eq!(mass, 40, "no loss, no double count after replay");
    }

    #[test]
    fn backlog_replay_stores_what_tick_by_tick_stores() {
        // 100 sources, one MCE per source per second, for 100 seconds.
        let topo = Topology::scaled(2, 2);
        let sources: Vec<String> = (0..100).map(|i| topo.node(i).cname).collect();
        let second = |s: i64| -> Vec<RawLine> {
            (0..100)
                .map(|i| mce_line(T0 + s * 1000 + i as i64, &sources[i]))
                .collect()
        };
        // Run 1: all of it published, then drained as one backlog. A
        // lateness ≥ the backlog's span keeps the test on window width; the
        // lateness-0 loss across partitions (ROADMAP 2(c)) is not covered.
        let backlog = fw();
        for s in 0..100 {
            publish_lines(&backlog, &second(s)).unwrap();
        }
        let ingester = StreamIngester::new(&backlog, "g", 120_000).unwrap();
        assert_eq!(ingester.run_to_completion(4096).unwrap().late_drops, 0);
        // Run 2: one second published per tick, each drained to idle.
        let ticked = fw();
        let mut ingester = StreamIngester::new(&ticked, "g", 2_000).unwrap();
        for s in 0..100 {
            publish_lines(&ticked, &second(s)).unwrap();
            while ingester.step(4096).unwrap() > 0 {}
        }
        assert_eq!(ingester.finish().unwrap().late_drops, 0);
        let rows = |fw: &Framework| fw.events_by_type("MCE", T0, T0 + 200_000).unwrap();
        let (backlog_rows, ticked_rows) = (rows(&backlog), rows(&ticked));
        assert_eq!(backlog_rows.len(), ticked_rows.len(), "rows stored");
        assert_eq!(ticked_rows.len(), 10_000, "one row per source-second");
        assert!(ticked_rows
            .iter()
            .all(|e| e.ts_ms % 1000 == 0 && e.amount == 1));
        assert_eq!(backlog_rows, ticked_rows);
        for src in &sources {
            let rows = |fw: &Framework| fw.events_by_source(src, T0, T0 + 200_000).unwrap();
            assert_eq!(rows(&backlog), rows(&ticked), "{src}");
        }
    }

    /// One bus record: a valid MCE line, ASCII noise, multi-byte UTF-8, or
    /// an app-log envelope around a job start, a job end or UTF-8.
    fn bus_record() -> BoxedStrategy<String> {
        let body = prop_oneof![
            "apid [0-9]{1,2} start user=u app=VASP nodes=0-1 width=2",
            "apid [0-9]{1,2} end exit=-?[0-2]",
            "\\PC{0,30}",
        ];
        prop_oneof![
            (0i64..5_000, "c0-0c0s[0-3]n0").prop_map(|(dt, src)| mce_line(T0 + dt, &src).render()),
            (0i64..5_000, body).prop_map(|(dt, body)| format!("{} app alps {body}", T0 + dt)),
            "[ -~]{0,60}",
            "\\PC{0,30}",
        ]
    }

    /// One step of an ingester's bookkeeping: a record of `partition`,
    /// `gap - 1` offsets past its last one (skipped as duplicates or not
    /// events), fed to `window` or dropped as late; or a window made
    /// durable.
    #[derive(Debug, Clone)]
    enum Step {
        Feed {
            partition: usize,
            gap: u64,
            window: i64,
            late: bool,
        },
        Close(i64),
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            3 => (0usize..4, 1u64..4, 0i64..6, 0u8..5).prop_map(
                |(partition, gap, window, late)| Step::Feed {
                    partition,
                    gap,
                    window: window * WINDOW_MS,
                    late: late == 0,
                }
            ),
            1 => (0i64..6).prop_map(|w| Step::Close(w * WINDOW_MS)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The open-window table commits what the per-offset rule it
        /// replaced commits: every buffered offset in a set per partition,
        /// each window's `(partition, offset)`s removed from the sets when
        /// it closes, the commit position the set's least or else the poll
        /// position. Checked for every partition after every step.
        #[test]
        fn open_window_lows_commit_what_every_offset_committed(
            steps in prop::collection::vec(step(), 0..200),
        ) {
            let mut open = OpenWindows(BTreeMap::new());
            let mut pending: HashMap<usize, BTreeSet<u64>> = HashMap::new();
            let mut fed: BTreeMap<i64, Vec<(usize, u64)>> = BTreeMap::new();
            let mut position = [0u64; 4];
            for (i, step) in steps.into_iter().enumerate() {
                match step {
                    Step::Feed { partition, gap, window, late } => {
                        let offset = position[partition] + gap - 1;
                        position[partition] = offset + 1;
                        if !late {
                            open.fed(window, partition, offset);
                            pending.entry(partition).or_default().insert(offset);
                            fed.entry(window).or_default().push((partition, offset));
                        }
                    }
                    Step::Close(window) => {
                        open.close(window);
                        for (p, off) in fed.remove(&window).unwrap_or_default() {
                            pending.get_mut(&p).unwrap().remove(&off);
                        }
                    }
                }
                for (p, pos) in position.iter().enumerate() {
                    let old = pending.get(&p).and_then(|s| s.first()).copied();
                    prop_assert_eq!(
                        open.low(p).unwrap_or(*pos),
                        old.unwrap_or(*pos),
                        "partition {} after step {}", p, i
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// No record on the bus panics the ingester, and each polled record
        /// is counted exactly once: an event, a non-event or a parse
        /// failure, the last dead-lettered.
        #[test]
        fn bus_garbage_is_counted_and_dead_lettered_never_fatal(
            records in prop::collection::vec(bus_record(), 0..40),
        ) {
            let fw = fw();
            let producer = Producer::new(fw.bus());
            for value in &records {
                send_with_retry(&producer, RAW_LOG_TOPIC, Some(value), value, T0).unwrap();
            }
            let r = StreamIngester::new(&fw, "g", 1_000).unwrap().run_to_completion(16).unwrap();
            prop_assert_eq!((r.polled, r.duplicates), (records.len(), 0));
            prop_assert_eq!(r.polled, r.events_in + r.non_events + r.parse_failures as usize);
            prop_assert_eq!(dlq_depth(&fw).unwrap(), r.parse_failures);
        }
    }
}
