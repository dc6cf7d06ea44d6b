//! The analytics server: JSON query protocol + a minimal HTTP endpoint.
//!
//! "Every interaction with the frontend is translated into a query in
//! JavaScript Object Notation (JSON) format and delivered to the analytic
//! server"; "query results are sent in JSON object format to avoid data
//! format conversion at the frontend."

pub mod cache;
pub mod engine;
// The hand-declared `epoll` FFI: the one module allowed `unsafe`.
#[allow(unsafe_code)]
mod epoll;
pub mod http;
pub mod recorder;
pub mod request;
pub mod slo;
pub mod telemetry_export;
pub mod views;

pub use engine::{EngineResponse, QueryEngine};
pub use http::{HttpConfig, HttpServer};
pub use request::{ApiError, Cursor, ErrorCode, Page, QueryRequest};
