//! `sparklet` — an in-memory, partitioned job runner: the Apache Spark
//! substitute for the log-analytics framework's parallel ETL.
//!
//! The paper co-locates "a pair of a Spark worker node and a Cassandra node
//! ... in each of the 32 VMs" and runs its ETL as parallel jobs over data
//! spread across the cluster. Here Spark's role is played by the batch
//! import's chunk-parallel scan and upload, and by the streaming path's
//! micro-batcher; `sparklet` keeps the pieces they run on:
//!
//! * **Datasets** ([`rdd`]) — a shared list of partitions, each a vector;
//!   `parallelize` splits a vector into balanced partitions.
//! * **A job runner** ([`context`]) — `run_job` applies a task to every
//!   partition on scoped executor threads started for that job, each
//!   taking the next partition from a shared cursor.
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
