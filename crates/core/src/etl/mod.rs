//! Extract–transform–load: batch import and real-time streaming.
//!
//! One parser feeds the event/job tables:
//!
//! - [`parsers`] — what a raw line means: the regex pattern set (the
//!   specification) and the [`parsers::ParsedLine`] it yields;
//! - [`fastpath`] — the zero-copy byte scanner over `&[u8]` that
//!   implements those patterns, total over valid UTF-8 (see `DESIGN.md`
//!   §13). The compiled regexes are the test-side oracle it is checked
//!   against.
//!
//! [`batch`] drives the scanner chunk-parallel over a rendered corpus;
//! [`stream`] consumes the log bus with at-least-once semantics.
#![deny(missing_docs)]

pub mod batch;
pub mod fastpath;
pub mod parsers;
pub mod stream;
