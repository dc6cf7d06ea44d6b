//! JSON serialization (compact and pretty).

use crate::Value;
use std::fmt::Write as _;

/// Serializes a value in compact form (no extra whitespace).
pub fn to_string(value: &Value) -> String {
    let mut out = String::new();
    write_into(&mut out, value);
    out
}

/// Appends the compact form of `value` to `out`: the seam for callers that
/// splice already-encoded bytes between encoded values.
pub fn write_into(out: &mut String, value: &Value) {
    write_value(out, value, None, 0);
}

/// Serializes a value with 2-space indentation.
pub fn to_string_pretty(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, Some(2), 0);
    out
}

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, level: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, v, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; null is the interoperable fallback.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{json_array, json_object, parse};

    #[test]
    fn compact_roundtrip() {
        let src = r#"{"a":[1,2.5,null,true],"b":"x\ny"}"#;
        let v = parse(src).unwrap();
        assert_eq!(to_string(&v), src);
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(to_string(&Value::Number(42.0)), "42");
        assert_eq!(to_string(&Value::Number(-3.0)), "-3");
        assert_eq!(to_string(&Value::Number(2.5)), "2.5");
    }

    #[test]
    fn nonfinite_numbers_become_null() {
        assert_eq!(to_string(&Value::Number(f64::NAN)), "null");
        assert_eq!(to_string(&Value::Number(f64::INFINITY)), "null");
    }

    #[test]
    fn control_chars_are_escaped() {
        let v = Value::from("a\u{1}b");
        assert_eq!(to_string(&v), r#""a\u0001b""#);
        assert_eq!(parse(&to_string(&v)).unwrap(), v);
    }

    #[test]
    fn pretty_output_shape() {
        let v = json_object([("k", json_array([1i64, 2]))]);
        assert_eq!(to_string_pretty(&v), "{\n  \"k\": [\n    1,\n    2\n  ]\n}");
    }

    #[test]
    fn empty_containers_stay_compact_in_pretty_mode() {
        let v = json_object([
            ("a", Value::Array(vec![])),
            ("b", Value::Object(Default::default())),
        ]);
        assert_eq!(to_string_pretty(&v), "{\n  \"a\": [],\n  \"b\": {}\n}");
    }
}
