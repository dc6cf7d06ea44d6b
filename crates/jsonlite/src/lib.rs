//! `jsonlite` — a small, dependency-free JSON value model, parser, and writer.
//!
//! The analytics server of the log-analytics framework speaks JSON between
//! the frontend and the query engine (the paper returns "query results ...
//! in JSON object format to avoid data format conversion at the frontend").
//! This crate provides the `Value` type plus strict RFC 8259 parsing and
//! serialization used throughout the framework.
//!
//! Objects preserve deterministic (sorted) key order by using a `BTreeMap`,
//! which keeps serialized payloads stable for tests and golden files.
//!
//! # Example
//! ```
//! use jsonlite::{Value, json_object};
//!
//! let v = Value::parse(r#"{"query":"heatmap","hours":[0,1,2]}"#).unwrap();
//! assert_eq!(v["query"].as_str(), Some("heatmap"));
//! assert_eq!(v["hours"][2].as_f64(), Some(2.0));
//!
//! let built = json_object([
//!     ("status", Value::from("ok")),
//!     ("count", Value::from(3)),
//! ]);
//! assert_eq!(built.to_string(), r#"{"count":3,"status":"ok"}"#);
//! ```

#![forbid(unsafe_code)]

pub mod parse;
pub mod value;
pub mod write;

pub use parse::{parse, ParseError};
pub use value::Value;
pub use write::{to_string, to_string_pretty, write_into};

/// Builds a JSON object `Value` from an iterator of `(key, value)` pairs.
pub fn json_object<K, I>(pairs: I) -> Value
where
    K: Into<String>,
    I: IntoIterator<Item = (K, Value)>,
{
    Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Builds a JSON array `Value` from an iterator of values.
pub fn json_array<V, I>(items: I) -> Value
where
    V: Into<Value>,
    I: IntoIterator<Item = V>,
{
    Value::Array(items.into_iter().map(Into::into).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_builder_sorts_keys() {
        let v = json_object([("b", Value::from(1)), ("a", Value::from(2))]);
        assert_eq!(v.to_string(), r#"{"a":2,"b":1}"#);
    }

    #[test]
    fn array_builder_accepts_values() {
        let v = json_array([Value::from(1), Value::from("x")]);
        assert_eq!(v.to_string(), r#"[1,"x"]"#);
    }
}
