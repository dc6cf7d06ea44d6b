//! Producers: publish records to topics.

use crate::broker::{Broker, BusError};
use crate::record::Record;
use std::sync::atomic::{AtomicU64, Ordering};

/// Suggested backoff carried in [`BusError::Full`]; roughly one consumer
/// poll cycle, so a backing-off producer re-checks after the lagging group
/// has had a chance to commit.
pub const RETRY_AFTER_MS: u64 = 10;

/// A handle for publishing records. Cheap to create; clone-free (borrows
/// the broker) so multiple producer threads just make their own.
///
/// Sends are subject to backpressure: when the target partition is at
/// capacity and a registered consumer group pins its head, `send` returns
/// [`BusError::Full`] and the caller decides whether to wait or shed.
///
/// ```
/// use logbus::{Broker, BusError, Producer};
///
/// let broker = Broker::new();
/// // Capacity 2 per partition...
/// broker.create_topic_with_retention("t", 1, 2).unwrap();
/// // ...pinned by a consumer group sitting at offset 0.
/// let consumer = logbus::Consumer::new(&broker, "g", "t").unwrap();
///
/// let producer = Producer::new(&broker);
/// producer.send("t", Some("node-a"), "line 1").unwrap();
/// producer.send("t", Some("node-a"), "line 2").unwrap();
/// match producer.send("t", Some("node-a"), "line 3") {
///     Err(BusError::Full { retry_after_ms, .. }) => assert!(retry_after_ms > 0),
///     other => panic!("expected backpressure, got {other:?}"),
/// }
/// ```
pub struct Producer<'b> {
    broker: &'b Broker,
    round_robin: AtomicU64,
}

impl<'b> Producer<'b> {
    /// Creates a producer.
    pub fn new(broker: &'b Broker) -> Producer<'b> {
        Producer {
            broker,
            round_robin: AtomicU64::new(0),
        }
    }

    /// Publishes a record. Keyed records go to the key's partition (stable
    /// per-source ordering); keyless records round-robin.
    pub fn send(
        &self,
        topic: &str,
        key: Option<&str>,
        value: impl Into<String>,
    ) -> Result<(usize, u64), BusError> {
        self.send_at(topic, key, value, 0)
    }

    /// Publishes a record with an event timestamp. Returns the partition
    /// and offset assigned, or [`BusError::Full`] under backpressure (the
    /// record was not appended and the send can be retried).
    pub fn send_at(
        &self,
        topic: &str,
        key: Option<&str>,
        value: impl Into<String>,
        timestamp_ms: i64,
    ) -> Result<(usize, u64), BusError> {
        // Profile-level detail: a span per record would fill the trace ring
        // and push out the step, window and write spans of a busy stream.
        let send = &self.broker.send_span;
        let _span = send.profiling_active().then(|| send.enter());
        let topic_ref = self.broker.topic(topic)?;
        let partition = match key {
            Some(k) => topic_ref.partition_for_key(k),
            None => {
                (self.round_robin.fetch_add(1, Ordering::Relaxed) as usize)
                    % topic_ref.partitions.len()
            }
        };
        let faults = self.broker.faults();
        let fault = faults.on_send();
        if fault == Some(true) {
            return Err(BusError::Injected("drop"));
        }
        let record = Record::new(key, value, timestamp_ms);
        let Some(offset) = topic_ref.partitions[partition].try_append(record, partition) else {
            self.broker.backpressure.incr(1);
            return Err(BusError::Full {
                topic: topic.to_owned(),
                retry_after_ms: RETRY_AFTER_MS,
            });
        };
        if fault == Some(false) {
            faults.park(topic, partition, offset);
        }
        Ok((partition, offset))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::FaultPlan;
    use crate::consumer::Consumer;

    #[test]
    fn keyed_records_preserve_order_per_key() {
        let b = Broker::new();
        b.create_topic("t", 4).unwrap();
        let p = Producer::new(&b);
        let mut partitions = std::collections::HashSet::new();
        for i in 0..10 {
            let (part, off) = p.send("t", Some("node-A"), format!("m{i}")).unwrap();
            partitions.insert(part);
            assert_eq!(off, i);
        }
        assert_eq!(partitions.len(), 1, "one key, one partition");
    }

    #[test]
    fn keyless_records_round_robin() {
        let b = Broker::new();
        b.create_topic("t", 4).unwrap();
        let p = Producer::new(&b);
        let parts: Vec<usize> = (0..8).map(|_| p.send("t", None, "x").unwrap().0).collect();
        assert_eq!(parts, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn send_to_missing_topic_errors() {
        let b = Broker::new();
        let p = Producer::new(&b);
        assert!(p.send("missing", None, "x").is_err());
    }

    #[test]
    fn timestamps_carried_through() {
        let b = Broker::new();
        b.create_topic("t", 1).unwrap();
        let p = Producer::new(&b);
        p.send_at("t", None, "x", 12345).unwrap();
        let rec = &b.topic("t").unwrap().partitions[0].read(0, 1)[0];
        assert_eq!(rec.timestamp_ms, 12345);
    }

    #[test]
    fn full_partition_backpressures_then_recovers_after_commit() {
        let b = Broker::new();
        b.create_topic_with_retention("t", 1, 3).unwrap();
        let mut c = Consumer::new(&b, "g", "t").unwrap();
        let p = Producer::new(&b);
        for i in 0..3 {
            p.send("t", None, format!("m{i}")).unwrap();
        }
        assert!(matches!(
            p.send("t", None, "overflow"),
            Err(BusError::Full { .. })
        ));
        // Consumer drains and commits: the floor moves, appends resume.
        assert_eq!(c.poll(10).len(), 3);
        c.commit().unwrap();
        assert!(p.send("t", None, "resumed").is_ok());
    }

    #[test]
    fn without_groups_retention_still_evicts() {
        let b = Broker::new();
        b.create_topic_with_retention("t", 1, 3).unwrap();
        let p = Producer::new(&b);
        for i in 0..10 {
            p.send("t", None, format!("m{i}")).unwrap();
        }
        assert_eq!(b.topic("t").unwrap().partitions[0].begin_offset(), 7);
    }

    #[test]
    fn drop_fault_fails_every_nth_send() {
        let b = Broker::new();
        b.create_topic("t", 1).unwrap();
        b.inject_faults(FaultPlan::new().drop_every(3));
        let p = Producer::new(&b);
        let results: Vec<bool> = (0..6)
            .map(|i| p.send("t", None, format!("m{i}")).is_ok())
            .collect();
        assert_eq!(results, vec![true, true, false, true, true, false]);
        assert_eq!(
            b.topic("t").unwrap().total_len(),
            4,
            "dropped sends never append"
        );
    }

    #[test]
    fn delay_fault_hides_then_releases() {
        let b = Broker::new();
        b.create_topic("t", 1).unwrap();
        b.inject_faults(FaultPlan::new().delay_every(2, 100));
        let p = Producer::new(&b);
        let mut c = Consumer::new(&b, "g", "t").unwrap();
        p.send("t", None, "a").unwrap();
        p.send("t", None, "b").unwrap(); // delayed (2nd send)
        p.send("t", None, "c").unwrap();
        // Offset 1 is held, which also blocks offset 2 (in-order delivery).
        assert_eq!(c.poll(10).len(), 1);
        assert_eq!(b.release_delayed(), 1);
        assert_eq!(c.poll(10).len(), 2);
    }
}
