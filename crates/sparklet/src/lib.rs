//! `sparklet` — an in-memory, partitioned, DAG-scheduled data-processing
//! engine: the Apache Spark substitute for the log-analytics framework.
//!
//! The paper co-locates "a pair of a Spark worker node and a Cassandra node
//! ... in each of the 32 VMs" and runs "MapReduce operations over time
//! ordered data spread across the cluster". `sparklet` rebuilds the pieces
//! that matter for those claims:
//!
//! * **RDDs** ([`rdd`]) — lazily evaluated, partitioned collections with
//!   narrow transformations (`map`, `filter`, `flat_map`,
//!   `map_partitions`, `union`) and caching.
//! * **Shuffles** ([`agg`]) — `reduce_by_key`, `group_by_key`,
//!   `aggregate_by_key`, `sort_by_key`, and `join`, executed as a map-side
//!   combine stage followed by a hash-partitioned reduce stage.
//! * **A scheduler** ([`context`], [`pool`]) — a fixed pool of executor
//!   threads over one run queue, with a pinned deque per executor; tasks
//!   carry *preferred executors* so partition computation can run where
//!   the data lives (the paper's data-locality argument).
//! * **Micro-batch streaming** ([`streaming`]) — event-time windows with
//!   the 1-second coalescing rule used by the real-time ingestion path.
//!
//! # Example
//! ```
//! use sparklet::context::SparkletContext;
//!
//! let ctx = SparkletContext::new(4);
//! let counts = ctx
//!     .parallelize((0..1000).collect::<Vec<i64>>(), 8)
//!     .map(|n| (n % 10, 1u64))
//!     .reduce_by_key(8, |a, b| a + b)
//!     .collect();
//! assert_eq!(counts.len(), 10);
//! assert!(counts.iter().all(|(_, c)| *c == 100));
//! ```

#![forbid(unsafe_code)]

pub mod agg;
pub mod context;
pub mod pool;
pub mod rdd;
pub mod streaming;

pub use context::SparkletContext;
pub use rdd::Rdd;

/// Marker bound for anything that flows through an RDD.
pub trait Data: Send + Sync + Clone + 'static {}
impl<T: Send + Sync + Clone + 'static> Data for T {}
