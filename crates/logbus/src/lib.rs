//! `logbus` — a partitioned, replayable publish/subscribe message bus:
//! the Apache Kafka substitute for real-time log ingestion.
//!
//! The paper's streaming path has OLCF "event producers" publishing "each
//! event occurrence ... to an Apache Kafka message bus that is available to
//! consumers subscribing to the corresponding topic". `logbus` rebuilds the
//! semantics that path relies on:
//!
//! * **Topics with partitions** — append-only logs; records with the same
//!   key always land in the same partition, preserving per-source order.
//! * **Offsets and replay** — consumers poll from an explicit offset;
//!   records are retained (up to a cap) rather than consumed destructively.
//! * **Consumer groups** — partitions are balanced over group members, and
//!   committed offsets survive rebalances.
//! * **Delivery contract** — retention never evicts past the lowest
//!   committed group offset; a full partition backpressures producers
//!   ([`BusError::Full`]) instead of dropping unread records. Combined
//!   with commit-after-ack consumers this yields at-least-once delivery.
//! * **Fault injection** — a broker-wide [`FaultPlan`] can drop, duplicate
//!   or delay records and fail commits on a deterministic schedule, so the
//!   delivery contract is falsifiable in tests.
//!
//! # Example
//! ```
//! use logbus::{Broker, Producer, Consumer};
//!
//! let broker = Broker::new();
//! broker.create_topic("lustre-events", 4).unwrap();
//!
//! let producer = Producer::new(&broker);
//! producer.send("lustre-events", Some("c0-0c0s0n0"), "OST0041 not responding").unwrap();
//!
//! let mut consumer = Consumer::new(&broker, "ingesters", "lustre-events").unwrap();
//! let records = consumer.poll(10);
//! assert_eq!(records.len(), 1);
//! assert_eq!(records[0].value, "OST0041 not responding");
//! consumer.commit().unwrap();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod broker;
pub mod consumer;
pub mod producer;
pub mod record;
pub mod topic;

pub use broker::{Broker, BusError, FaultPlan};
pub use consumer::Consumer;
pub use producer::Producer;
pub use record::Record;
