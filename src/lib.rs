//! `hpc-log-analytics` — umbrella crate re-exporting the whole framework.
//!
//! A Rust reproduction of *"Big Data Meets HPC Log Analytics: Scalable
//! Approach to Understanding Systems at Extreme Scale"* (Park, Hukerikar,
//! Adamson, Engelmann — IEEE CLUSTER 2017), including from-scratch
//! substitutes for every substrate the paper relies on:
//!
//! * [`rasdb`] — the Cassandra-style distributed NoSQL store
//! * [`sparklet`] — the Spark-style in-memory processing engine
//! * [`logbus`] — the Kafka-style message bus
//! * [`loggen`] — the synthetic Titan (topology, failures, raw logs, jobs)
//! * [`rex`] — the regex engine that runs the ETL patterns as the oracle
//!   the byte scanner is tested against
//! * [`jsonlite`] — the JSON codec behind the server protocol
//! * [`viz`] — SVG/ASCII renderers for the frontend's figures
//! * [`core`] — the framework itself (data model, ETL, analytics, server)
//!
//! See `examples/quickstart.rs` for an end-to-end tour, and DESIGN.md /
//! EXPERIMENTS.md for the reproduction index.

#![forbid(unsafe_code)]

pub use hpclog_core as core;
pub use jsonlite;
pub use logbus;
pub use loggen;
pub use rasdb;
pub use rex;
pub use sparklet;
pub use viz;
