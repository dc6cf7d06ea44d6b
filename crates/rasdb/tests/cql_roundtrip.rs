//! Property tests for the CQL text path: inserts, range selects and deletes
//! issued as text must leave and read back what the storage model of
//! `support/model.rs` holds, and no statement, however malformed, may panic.

#[path = "support/model.rs"]
mod model;

use model::{ck, visible, TableModel, Visible};
use proptest::prelude::*;
use rasdb::cluster::{Cluster, ClusterConfig, ExecResult};
use rasdb::query::Consistency;
use rasdb::types::{Key, Value};
use std::ops::Bound;
use std::sync::OnceLock;

fn cluster() -> Cluster {
    let c = Cluster::new(ClusterConfig {
        nodes: 3,
        replication_factor: 2,
        vnodes: 8,
    });
    let create = "CREATE TABLE ev (hour bigint, type text, ts timestamp, source text, \
                  amount int, PRIMARY KEY ((hour, type), ts))";
    match c.execute(create, Consistency::Quorum).unwrap() {
        ExecResult::Applied => c,
        other => panic!("{other:?}"),
    }
}

/// The partition `(hour, 'MCE')` of `ev`.
fn partition(hour: i64) -> Key {
    Key::from(vec![Value::BigInt(hour), Value::text("MCE")])
}

/// Inserts a row as text, and the same row into the model.
fn insert(c: &Cluster, model: &mut TableModel, hour: i64, ts: i64, source: &str, amount: i32) {
    let stmt = format!(
        "INSERT INTO ev (hour, type, ts, source, amount) \
         VALUES ({hour}, 'MCE', {ts}, '{source}', {amount})"
    );
    c.execute(&stmt, Consistency::Quorum).unwrap();
    let cells = [
        ("source", Value::text(source)),
        ("amount", Value::Int(amount)),
    ];
    model.write(partition(hour), ck(ts), cells);
}

/// The rows a text `SELECT` returns, in model space.
fn select(c: &Cluster, query: &str) -> Vec<Visible> {
    match c.execute(query, Consistency::Quorum).unwrap() {
        ExecResult::Rows(rows) => visible(&rows),
        other => panic!("{other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn text_inserts_equal_model_range_scans(
        rows in prop::collection::vec((0i64..3, 0i64..500, 0i32..100), 0..60),
        lo in 0i64..500,
        width in 1i64..300,
    ) {
        let (c, mut model) = (cluster(), TableModel::default());
        for &(hour, ts, amount) in &rows {
            insert(&c, &mut model, hour, ts, "c0-0c0s0n0", amount);
        }
        let hi = lo + width;
        let range = (Bound::Included(ck(lo)), Bound::Excluded(ck(hi)));
        for hour in 0..3i64 {
            let q = format!(
                "SELECT * FROM ev WHERE hour = {hour} AND type = 'MCE' \
                 AND ts >= {lo} AND ts < {hi}"
            );
            let want = model.rows(&partition(hour), &range, None, false);
            prop_assert_eq!(select(&c, &q), want, "hour {}", hour);
        }
    }

    #[test]
    fn limit_and_order_by_desc_agree_with_model(
        ts_values in prop::collection::btree_set(0i64..1000, 1..40),
        limit in 1usize..20,
    ) {
        let (c, mut model) = (cluster(), TableModel::default());
        for &ts in &ts_values {
            insert(&c, &mut model, 0, ts, "n", ts as i32);
        }
        let q = format!(
            "SELECT * FROM ev WHERE hour = 0 AND type = 'MCE' ORDER BY ts DESC LIMIT {limit}"
        );
        prop_assert_eq!(select(&c, &q), model.rows(&partition(0), &.., Some(limit), true));
    }

    #[test]
    fn delete_via_text_removes_exactly_one_row(
        ts_values in prop::collection::btree_set(0i64..100, 2..20),
    ) {
        let (c, mut model) = (cluster(), TableModel::default());
        for &ts in &ts_values {
            insert(&c, &mut model, 0, ts, "n", ts as i32);
        }
        let victim = *ts_values.iter().next().unwrap();
        c.execute(
            &format!("DELETE FROM ev WHERE hour = 0 AND type = 'MCE' AND ts = {victim}"),
            Consistency::Quorum,
        )
        .unwrap();
        model.delete_row(partition(0), ck(victim));
        let got = select(&c, "SELECT * FROM ev WHERE hour = 0 AND type = 'MCE'");
        prop_assert_eq!(got.len(), ts_values.len() - 1);
        prop_assert_eq!(got, model.rows(&partition(0), &.., None, false));
    }
}

/// Statements the parser accepts, one token per space: the fuzzer edits
/// them, so most of what it sends gets past the first token.
const SEEDS: [&str; 5] = [
    "CREATE TABLE t2 ( a int , b text , c double , PRIMARY KEY ( ( a ) , b ) )",
    "INSERT INTO ev ( hour , type , ts , source , amount ) VALUES ( 0 , 'MCE' , 5 , 'n' , 1 )",
    "SELECT * FROM ev WHERE hour = 0 AND type = 'MCE' AND ts >= 1 AND ts < 9 ORDER BY ts DESC LIMIT 3",
    "SELECT amount , ts FROM ev WHERE hour = 0 AND type = 'MCE'",
    "DELETE FROM ev WHERE hour = 0 AND type = 'MCE' AND ts = 5",
];

/// A token: one of the seeds' tokens or a keyword, symbol, type or name
/// they lack, or a literal the lexer may choke on.
fn arb_token() -> BoxedStrategy<String> {
    let extra = "ASC true false ; <= > - . ' nope bigint timestamp map";
    let words: Vec<&str> = SEEDS
        .iter()
        .chain([&extra])
        .flat_map(|s| s.split(' '))
        .collect();
    prop_oneof![
        12 => (0..words.len()).prop_map(move |i| words[i].to_owned()),
        4 => any::<i64>().prop_map(|n| n.to_string()),
        1 => "-?[0-9]{0,22}[.]?[0-9]{0,3}[.]?",
        1 => "'[a-c]{0,3}'?",
        1 => "\\PC{1,2}",
    ]
    .boxed()
}

/// A seed statement with a stretch or two of its tokens replaced by others,
/// a sequence of tokens, or bytes read as lossy UTF-8.
fn arb_statement() -> impl Strategy<Value = String> {
    let edit = (
        any::<usize>(),
        0..2usize,
        prop::collection::vec(arb_token(), 0..2),
    );
    let edited = (0..SEEDS.len(), prop::collection::vec(edit, 1..3));
    prop_oneof![
        4 => edited.prop_map(|(seed, edits)| {
            let mut tokens: Vec<String> = SEEDS[seed].split(' ').map(str::to_owned).collect();
            for (at, len, new) in edits {
                let at = at % (tokens.len() + 1);
                tokens.splice(at..(at + len).min(tokens.len()), new);
            }
            tokens.join(" ")
        }),
        1 => prop::collection::vec(arb_token(), 0..12).prop_map(|tokens| tokens.join(" ")),
        1 => prop::collection::vec(any::<u8>(), 0..48)
            .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned()),
    ]
}

/// One cluster for every case: what earlier statements created and wrote
/// is there for later ones to read, overwrite and delete.
static FUZZED: OnceLock<Cluster> = OnceLock::new();

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever text arrives, `execute` answers `Ok` or a `DbError`.
    #[test]
    fn any_statement_is_answered_or_refused_never_a_panic(
        statements in prop::collection::vec(arb_statement(), 1..8),
    ) {
        let c = FUZZED.get_or_init(cluster);
        for statement in &statements {
            let _ = c.execute(statement, Consistency::Quorum);
        }
    }
}
