//! `rasdb` — a column-oriented, masterless, distributed NoSQL store.
//!
//! This crate is the Cassandra substitute for the HPC log-analytics
//! framework: the paper stores Titan's logs in Apache Cassandra because of
//! its "masterless ring design", wide partitions "sorted and written
//! sequentially", and retrieval "by row key and range within a row".
//! `rasdb` rebuilds exactly those mechanics from scratch:
//!
//! * **Data model** — tables with composite partition keys and clustering
//!   keys; a partition is a wide row whose entries stay sorted by the
//!   clustering key ([`schema`], [`types`]). Keys, text values and column
//!   names are immutable and reference-counted: the replicas of a row,
//!   their commit logs and every read of it share one copy.
//! * **Placement** — a murmur3 token ring with virtual nodes and
//!   replication ([`partitioner`], [`ring`]). A partition key is hashed
//!   once, at the coordinator, into a [`DecoratedKey`] that every replica
//!   orders, filters and versions by.
//! * **Storage engine** — commit log → memtable → immutable SSTables with
//!   bloom filters, merged by size-tiered compaction ([`memtable`],
//!   [`sstable`], [`compaction`], [`node`]).
//! * **Coordination** — any node coordinates reads/writes at a tunable
//!   consistency level (`ONE`/`QUORUM`/`ALL`), with hinted handoff for
//!   down replicas, digest reads with read repair and last-write-wins
//!   cell merging ([`cluster`], one file per coordinator seam).
//! * **Query layer** — a CQL-subset text language and a typed query AST
//!   ([`cql`], [`query`]).
//! * **Elasticity** — live node join/decommission: checksummed, resumable
//!   range streaming with deterministic fault injection, a double-write
//!   window so no quorum read misses a row, and a single epoch bump on
//!   commit for atomic cache invalidation; join and decommission share one
//!   transition lifecycle ([`topology`], [`cluster`]).
//!
//! The cluster is an in-process, shared-nothing simulation: every node owns
//! its storage exclusively and is reached only through coordinator calls,
//! which preserves the distributed semantics (placement, quorums, failures)
//! while staying deterministic and testable on one machine.
//!
//! # Example
//! ```
//! use rasdb::cluster::{Cluster, ClusterConfig};
//! use rasdb::query::Consistency;
//! use rasdb::schema::{ColumnType, TableSchema};
//! use rasdb::types::{Key, Value};
//! use rasdb::DecoratedKey;
//!
//! let cluster = Cluster::new(ClusterConfig { nodes: 4, replication_factor: 3, vnodes: 8 });
//! cluster
//!     .create_table(
//!         TableSchema::builder("event_by_time")
//!             .partition_key("hour", ColumnType::BigInt)
//!             .partition_key("type", ColumnType::Text)
//!             .clustering_key("ts", ColumnType::Timestamp)
//!             .column("source", ColumnType::Text)
//!             .column("amount", ColumnType::Int)
//!             .build()
//!             .unwrap(),
//!     )
//!     .unwrap();
//!
//! cluster
//!     .insert(
//!         "event_by_time",
//!         vec![
//!             ("hour", Value::BigInt(417_000)),
//!             ("type", Value::text("MCE")),
//!             ("ts", Value::Timestamp(1_501_200_000_123)),
//!             ("source", Value::text("c3-2c1s4n2")),
//!             ("amount", Value::Int(1)),
//!         ],
//!         Consistency::Quorum,
//!     )
//!     .unwrap();
//!
//! let rows = cluster
//!     .select("event_by_time")
//!     .partition(vec![Value::BigInt(417_000), Value::text("MCE")])
//!     .run(Consistency::Quorum)
//!     .unwrap();
//! assert_eq!(rows.len(), 1);
//! assert_eq!(rows[0].cell("source"), Some(&Value::text("c3-2c1s4n2")));
//!
//! // A key is built once and cloned by reference count from then on; it is
//! // decorated with its murmur3 hash once, and placement and versions use it.
//! let partition = Key::from(vec![Value::BigInt(417_000), Value::text("MCE")]);
//! assert_eq!(cluster.owners(&partition).len(), 3);
//! let decorated = DecoratedKey::new(partition);
//! assert_eq!(cluster.ring().replicas(decorated.token()), cluster.owners(decorated.key()));
//! assert!(cluster.data_version("event_by_time", &decorated) > 0);
//! assert_eq!(rows[0].clustering.0[0], Value::Timestamp(1_501_200_000_123));
//! ```

#![forbid(unsafe_code)]

pub mod bloom;
pub mod cache;
pub mod cluster;
pub mod commitlog;
pub mod compaction;
pub mod cql;
pub mod error;
pub mod memtable;
pub mod node;
pub mod partitioner;
pub mod query;
pub mod ring;
pub mod schema;
pub mod sstable;
pub mod stats;
pub mod topology;
pub mod types;

pub use cluster::{Cluster, ClusterConfig};
pub use error::DbError;
pub use partitioner::DecoratedKey;
pub use query::Consistency;
pub use schema::{ColumnType, TableSchema};
pub use topology::{TopologyFaultPlan, TransitionReport};
pub use types::{Row, Value};
