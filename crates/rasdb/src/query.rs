//! Typed query AST executed by the coordinator, plus consistency levels.

use crate::partitioner::DecoratedKey;
use crate::schema::TableSchema;
use crate::types::{Key, Value};
use std::ops::Bound;

/// Tunable consistency for reads and writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Consistency {
    /// One replica ack.
    One,
    /// Majority of replicas.
    Quorum,
    /// Every replica.
    All,
}

impl Consistency {
    /// Number of replica acks required at replication factor `rf`.
    pub fn required(&self, rf: usize) -> usize {
        match self {
            Consistency::One => 1,
            Consistency::Quorum => rf / 2 + 1,
            Consistency::All => rf,
        }
    }
}

/// A parsed literal, coerced against the schema at execution time.
#[derive(Debug, Clone, PartialEq)]
pub enum Lit {
    /// Integer literal.
    Num(i64),
    /// Float literal.
    Float(f64),
    /// Quoted string.
    Str(String),
    /// `true` / `false`.
    Bool(bool),
}

impl Lit {
    /// Coerces the literal to a concrete column type.
    pub fn coerce(&self, ctype: crate::schema::ColumnType) -> Option<Value> {
        use crate::schema::ColumnType as T;
        Some(match (self, ctype) {
            (Lit::Num(n), T::Int) => Value::Int(i32::try_from(*n).ok()?),
            (Lit::Num(n), T::BigInt) => Value::BigInt(*n),
            (Lit::Num(n), T::Timestamp) => Value::Timestamp(*n),
            (Lit::Num(n), T::Double) => Value::Double(*n as f64),
            (Lit::Float(f), T::Double) => Value::Double(*f),
            (Lit::Str(s), T::Text) => Value::text(s),
            (Lit::Bool(b), T::Bool) => Value::Bool(*b),
            _ => return None,
        })
    }
}

/// Comparison operators allowed in `WHERE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// One `column op literal` predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Column name.
    pub column: String,
    /// Operator.
    pub op: CmpOp,
    /// Right-hand literal.
    pub value: Lit,
}

/// A CQL-subset statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE ...`
    CreateTable(TableSchema),
    /// `INSERT INTO t (cols) VALUES (lits)`
    Insert {
        /// Target table.
        table: String,
        /// `(column, literal)` pairs.
        values: Vec<(String, Lit)>,
    },
    /// `SELECT * FROM t WHERE ...`
    Select(SelectStatement),
    /// `DELETE FROM t WHERE ...` (full primary key required)
    Delete {
        /// Target table.
        table: String,
        /// Equality predicates pinning the full primary key.
        predicates: Vec<Predicate>,
    },
}

/// A parsed `SELECT`.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStatement {
    /// Source table.
    pub table: String,
    /// Projected columns; `None` = `*`.
    pub columns: Option<Vec<String>>,
    /// `WHERE` conjunction.
    pub predicates: Vec<Predicate>,
    /// `LIMIT n`.
    pub limit: Option<usize>,
    /// `ORDER BY <first clustering col> DESC`.
    pub descending: bool,
}

/// A fully-resolved read plan: partition key plus clustering range.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadPlan {
    /// Target table.
    pub table: String,
    /// Complete partition key, decorated once when the plan is built.
    pub partition: DecoratedKey,
    /// Clustering-range bounds.
    pub range: (Bound<Key>, Bound<Key>),
    /// Max rows to return.
    pub limit: Option<usize>,
    /// Reverse clustering order.
    pub descending: bool,
}

/// Builds clustering-key range bounds from an equality prefix plus an
/// optional range on the next component.
///
/// Composite clustering keys compare lexicographically, so `prefix = [a]`
/// with `next ∈ [lo, hi)` becomes `[a,lo] ..= [a,hi)` — except that an
/// equality-only prefix needs "all keys starting with prefix", which for a
/// bounded component count is expressed with sentinel bounds below.
pub fn clustering_bounds(
    prefix: Vec<Value>,
    lower: Option<(Value, bool)>, // (value, inclusive)
    upper: Option<(Value, bool)>,
    total_components: usize,
) -> (Bound<Key>, Bound<Key>) {
    let lo = match lower {
        Some((v, inclusive)) => {
            let mut k = prefix.clone();
            k.push(v);
            if inclusive {
                Bound::Included(k.into())
            } else {
                // Exclusive lower bound on a prefix must skip every key that
                // extends the excluded value, so bound at its successor via
                // the remaining components' minimum: exclusive on the full
                // prefix key works because longer keys compare greater.
                exclusive_prefix_lower(k, total_components)
            }
        }
        None if prefix.is_empty() => Bound::Unbounded,
        None => Bound::Included(prefix.clone().into()),
    };
    let hi = match upper {
        Some((v, inclusive)) => {
            let mut k = prefix;
            k.push(v);
            if inclusive {
                inclusive_prefix_upper(k, total_components)
            } else {
                Bound::Excluded(k.into())
            }
        }
        None if prefix.is_empty() => Bound::Unbounded,
        None => inclusive_prefix_upper(prefix, total_components),
    };
    (lo, hi)
}

/// For an exclusive lower bound on a key prefix: every extension of the
/// prefix must also be excluded. Vec ordering makes extensions sort
/// *greater* than the prefix, so plain `Excluded(prefix)` would wrongly
/// admit them; pad with `Value::Map(max)`? Instead we exploit that rows
/// always carry exactly `total_components` components: pad the prefix with
/// maximal values so everything extending it is still ≤ the padded key.
fn exclusive_prefix_lower(prefix: Vec<Value>, total_components: usize) -> Bound<Key> {
    Bound::Excluded(pad_max(prefix, total_components))
}

/// Inclusive upper bound on a key prefix: pad with maximal components so
/// all extensions are included.
fn inclusive_prefix_upper(prefix: Vec<Value>, total_components: usize) -> Bound<Key> {
    Bound::Included(pad_max(prefix, total_components))
}

fn pad_max(mut key: Vec<Value>, total_components: usize) -> Key {
    while key.len() < total_components {
        // Map is the greatest tag; an empty map with the max tag outranks
        // every concrete value of lower tags in the cross-type order, and
        // a map value itself never appears inside clustering keys.
        key.push(Value::Map(std::collections::BTreeMap::new()));
    }
    key.into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;

    #[test]
    fn consistency_required_acks() {
        assert_eq!(Consistency::One.required(3), 1);
        assert_eq!(Consistency::Quorum.required(3), 2);
        assert_eq!(Consistency::Quorum.required(4), 3);
        assert_eq!(Consistency::Quorum.required(1), 1);
        assert_eq!(Consistency::All.required(3), 3);
    }

    #[test]
    fn literal_coercion() {
        assert_eq!(Lit::Num(5).coerce(ColumnType::Int), Some(Value::Int(5)));
        assert_eq!(
            Lit::Num(5).coerce(ColumnType::BigInt),
            Some(Value::BigInt(5))
        );
        assert_eq!(
            Lit::Num(5).coerce(ColumnType::Timestamp),
            Some(Value::Timestamp(5))
        );
        assert_eq!(
            Lit::Float(2.5).coerce(ColumnType::Double),
            Some(Value::Double(2.5))
        );
        assert_eq!(Lit::Str("x".into()).coerce(ColumnType::Int), None);
        assert_eq!(Lit::Num(i64::MAX).coerce(ColumnType::Int), None);
    }

    #[test]
    fn bounds_single_component_range() {
        let (lo, hi) = clustering_bounds(
            vec![],
            Some((Value::Timestamp(5), true)),
            Some((Value::Timestamp(9), false)),
            1,
        );
        assert_eq!(lo, Bound::Included(Key::from(vec![Value::Timestamp(5)])));
        assert_eq!(hi, Bound::Excluded(Key::from(vec![Value::Timestamp(9)])));
    }

    #[test]
    fn bounds_prefix_only_covers_extensions() {
        // Clustering key = (day, seq); pin day = 3.
        let (lo, hi) = clustering_bounds(vec![Value::BigInt(3)], None, None, 2);
        let probe = |seq: i64| Key::from(vec![Value::BigInt(3), Value::BigInt(seq)]);
        let contains = |k: &Key| -> bool {
            (match &lo {
                Bound::Included(b) => k >= b,
                Bound::Excluded(b) => k > b,
                Bound::Unbounded => true,
            }) && (match &hi {
                Bound::Included(b) => k <= b,
                Bound::Excluded(b) => k < b,
                Bound::Unbounded => true,
            })
        };
        assert!(contains(&probe(i64::MIN)));
        assert!(contains(&probe(0)));
        assert!(contains(&probe(i64::MAX)));
        assert!(!contains(&Key::from(vec![
            Value::BigInt(2),
            Value::BigInt(5)
        ])));
        assert!(!contains(&Key::from(vec![
            Value::BigInt(4),
            Value::BigInt(i64::MIN)
        ])));
    }

    #[test]
    fn bounds_unbounded_when_no_constraints() {
        let (lo, hi) = clustering_bounds(vec![], None, None, 2);
        assert_eq!(lo, Bound::Unbounded);
        assert_eq!(hi, Bound::Unbounded);
    }
}
