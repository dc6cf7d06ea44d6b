//! `hpclog-core` — the HPC log-data analytics framework itself.
//!
//! This crate is the paper's primary contribution, assembled on the
//! substrates in this workspace: a time-series-oriented **data model**
//! (eight-plus Cassandra-style tables with dual time/location views of
//! events and time/user/app/location views of application runs), a
//! **batch ETL** path (raw console/app/network logs parsed against the
//! event patterns by a byte scanner, parallelized on the `sparklet`
//! engine), a **streaming ingestion** path
//! (`logbus` consumer → 1-second coalescing windows → the store), a set of
//! **analytics** (heat maps on the physical system map, distributions,
//! event histograms, cross-correlation, transfer entropy, and word counts
//! over raw Lustre messages), and an **analytics server** speaking the
//! frontend's JSON protocol.
//!
//! The entry point is [`framework::Framework`]: it wires a `rasdb` cluster
//! with `sparklet` executors (by default one per storage node, as the
//! paper pairs "a Spark worker node and a Cassandra node ... in each of the
//! 32 VMs") plus a `logbus` broker, creates the schema, and loads the
//! machine description.
//!
//! # Example
//! ```
//! use hpclog_core::framework::{Framework, FrameworkConfig};
//! use loggen::topology::Topology;
//! use loggen::trace::{Scenario, ScenarioConfig};
//!
//! // A small co-located cluster over a small machine.
//! let fw = Framework::new(FrameworkConfig {
//!     db_nodes: 4,
//!     replication_factor: 3,
//!     topology: Topology::scaled(2, 2),
//!     ..Default::default()
//! }).unwrap();
//!
//! // Generate a synthetic day of Titan logs and batch-import it.
//! let scenario = Scenario::generate(fw.topology(), &ScenarioConfig::quiet_day(2), 7);
//! let report = fw.batch_import(&scenario.lines).unwrap();
//! assert_eq!(report.parsed, scenario.lines.len());
//!
//! // Ask for the hourly MCE histogram through the analytics layer.
//! let t0 = 1_500_000_000_000;
//! let hist = hpclog_core::analytics::histogram::event_histogram(
//!     &fw, "MCE", t0, t0 + 2 * 3_600_000, 3_600_000).unwrap();
//! assert_eq!(hist.bins.len(), 2);
//! ```

// `unsafe` lives in one module, `server::epoll` (the readiness-set FFI),
// which carries the only `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod analytics;
pub mod columnar;
pub mod context;
pub mod etl;
pub mod framework;
pub mod model;
pub mod server;

pub use framework::{Framework, FrameworkConfig};
