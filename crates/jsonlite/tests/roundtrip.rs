//! Property tests: serialize → parse is the identity over generated values.

use jsonlite::{parse, to_string, to_string_pretty, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        // Finite numbers only: JSON cannot carry NaN/Inf.
        (-1e12f64..1e12f64).prop_map(Value::Number),
        "[ -~]{0,20}".prop_map(Value::from),
        // Exercise escapes and non-ASCII.
        prop_oneof![Just("\"quoted\"\n"), Just("日本\t"), Just("\\back\\")].prop_map(Value::from),
    ];
    leaf.prop_recursive(4, 64, 8, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Value::Array),
            prop::collection::btree_map("[a-z]{1,6}", inner, 0..6)
                .prop_map(|m: BTreeMap<String, Value>| Value::Object(m)),
        ]
    })
}

/// Text a parser must survive: printable noise, a serialised document
/// broken at the byte level (truncated, or a byte dropped, overwritten or
/// inserted, read back as lossy UTF-8), or random bytes read back lossily.
fn arb_garbage() -> impl Strategy<Value = String> {
    let edit = (0..4u8, any::<usize>(), any::<u8>());
    let broken = (
        arb_value(),
        any::<bool>(),
        prop::collection::vec(edit, 1..4),
    );
    prop_oneof![
        1 => "\\PC{0,60}",
        3 => broken.prop_map(|(v, pretty, edits)| {
            let text = if pretty { to_string_pretty(&v) } else { to_string(&v) };
            let mut bytes = text.into_bytes();
            for (op, at, byte) in edits {
                let at = at % (bytes.len() + 1);
                match op {
                    0 => bytes.truncate(at),
                    1 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    2 if at < bytes.len() => bytes[at] = byte,
                    _ => bytes.insert(at, byte),
                }
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }),
        1 => prop::collection::vec(any::<u8>(), 0..64)
            .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned()),
    ]
}

proptest! {
    #[test]
    fn compact_roundtrip(v in arb_value()) {
        let text = to_string(&v);
        let back = parse(&text).unwrap();
        prop_assert_eq!(&back, &v);
    }

    #[test]
    fn pretty_roundtrip(v in arb_value()) {
        let text = to_string_pretty(&v);
        let back = parse(&text).unwrap();
        prop_assert_eq!(&back, &v);
    }

    /// Whatever text arrives, `parse` answers `Ok` or `Err`, never a panic.
    #[test]
    fn parse_never_panics(s in arb_garbage()) {
        let _ = parse(&s);
    }

    #[test]
    fn reparse_is_stable(v in arb_value()) {
        // parse(print(v)) printed again must be byte-identical: printing is
        // a canonical form.
        let once = to_string(&v);
        let twice = to_string(&parse(&once).unwrap());
        prop_assert_eq!(once, twice);
    }
}
