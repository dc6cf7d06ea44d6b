//! `sparklet` — an in-memory, partitioned job runner: the Apache Spark
//! substitute for the log-analytics framework's parallel ETL.
//!
//! The paper co-locates "a pair of a Spark worker node and a Cassandra node
//! ... in each of the 32 VMs" and runs its ETL as parallel jobs over data
//! spread across the cluster. `sparklet` keeps the pieces that run:
//!
//! * **Datasets** ([`rdd`]) — a shared list of partitions, each a loader
//!   plus an optional preferred executor; `parallelize` splits a vector,
//!   `from_planned` turns storage read plans into owner-pinned partitions.
//! * **A job runner** ([`context`]) — `run_job` calls every partition's
//!   loader on scoped executor threads started for that job, each
//!   executor taking the partitions pinned to it first, so a partition can
//!   be loaded where its data lives (the paper's data-locality argument).
//! * **Micro-batch streaming** ([`streaming`]) — event-time windows with
//!   the 1-second coalescing rule used by the real-time ingestion path.
//! * **Hashing** ([`agg`]) — the FNV-1a hasher of the columnar and text
//!   kernels.
//!
//! # Example
//! ```
//! use sparklet::context::SparkletContext;
//!
//! let ctx = SparkletContext::new(4);
//! let data = ctx.parallelize((0..1000).collect::<Vec<i64>>(), 8);
//! // A task may borrow from the caller: the job ends before `run_job` returns.
//! let offset = 1i64;
//! let sums = ctx.run_job(&data, |_, part| part.iter().map(|v| v + offset).sum::<i64>());
//! assert_eq!(sums.len(), 8);
//! assert_eq!(sums.iter().sum::<i64>(), 500_500);
//! ```

#![forbid(unsafe_code)]

pub mod agg;
pub mod context;
pub mod rdd;
pub mod streaming;

pub use context::SparkletContext;
pub use rdd::Rdd;

/// Marker bound for anything that flows through an RDD.
pub trait Data: Send + Sync + Clone + 'static {}
impl<T: Send + Sync + Clone + 'static> Data for T {}
