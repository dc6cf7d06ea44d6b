//! `loggen` — a synthetic Titan: topology, failure models, raw log text,
//! and application traces.
//!
//! The paper analyses console/application/network logs of ORNL's Titan
//! (18,688 compute nodes, 200 cabinets in a 25×8 floor grid, Cray XK7).
//! Those logs are not publicly available, so this crate generates
//! statistically structured substitutes that exercise the same pipeline:
//!
//! * [`topology`] — the full cabinet/cage/blade/node hierarchy with Cray
//!   `cX-Y cC sS nN` naming and Gemini router pairs.
//! * [`events`] — the catalog of event types the paper's data model
//!   monitors (MCE, DRAM ECC, GPU DBE/off-the-bus, Lustre, DVS, network,
//!   kernel panics, application aborts, ...).
//! * [`failure`] — Poisson background rates, spatially correlated cabinet
//!   bursts, and cascades, all deterministic under a seed.
//! * [`console`] / [`lustre`] — realistic raw log lines per event type
//!   (the regex-ETL input), including the hex codes and cryptic fragments
//!   the paper complains about.
//! * [`jobs`] — user application runs with node allocations and exit
//!   statuses.
//! * [`storm`] — the system-wide Lustre storm of Fig 7 (an unresponsive
//!   OST flooding every client node with errors).
//! * [`trace`] — scenario assembly: merge everything into one time-sorted
//!   raw log with ground truth attached.
//!
//! # Example
//! ```
//! use loggen::topology::Topology;
//! use loggen::trace::{Scenario, ScenarioConfig};
//!
//! let topo = Topology::scaled(4, 2); // small 4×2-cabinet system for tests
//! let scenario = Scenario::generate(&topo, &ScenarioConfig::quiet_day(7), 42);
//! assert!(!scenario.lines.is_empty());
//! // Every raw line is attributable to a ground-truth event or job.
//! ```

#![forbid(unsafe_code)]

pub mod console;
pub mod events;
pub mod failure;
pub mod jobs;
pub mod lustre;
pub mod storm;
pub mod topology;
pub mod trace;

pub use events::{EventClass, EventType, EVENT_CATALOG};
pub use topology::{NodeInfo, Topology};
