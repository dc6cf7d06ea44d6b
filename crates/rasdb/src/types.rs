//! Cell values, keys, and rows.

use crate::memtable::Cells;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A typed cell value.
///
/// `Value` has a *total* order (doubles compare with `total_cmp`) so that it
/// can serve directly as a clustering-key component inside sorted and hashed
/// structures: equality is `cmp == Equal` and the hash agrees with it, so
/// `NaN` equals itself and `0.0` differs from `-0.0` everywhere.
#[derive(Debug, Clone)]
pub enum Value {
    /// UTF-8 text. Immutable and shared: a clone bumps a reference count,
    /// so the replicas of a row, their commit-log records and every read of
    /// it hold the one copy the writer made.
    Text(Arc<str>),
    /// 32-bit integer.
    Int(i32),
    /// 64-bit integer.
    BigInt(i64),
    /// 64-bit float (totally ordered via `total_cmp`).
    Double(f64),
    /// Boolean.
    Bool(bool),
    /// Milliseconds since the Unix epoch.
    Timestamp(i64),
    /// Raw bytes.
    Blob(Arc<[u8]>),
    /// An ordered list of values.
    List(Vec<Value>),
    /// A string-keyed map of values.
    Map(BTreeMap<String, Value>),
}

impl Value {
    /// Convenience constructor for text values: copies `s` once into the
    /// shared allocation every later clone points at.
    pub fn text(s: impl AsRef<str>) -> Value {
        Value::Text(Arc::from(s.as_ref()))
    }

    /// Returns the text if this is a `Text` value.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer widened to `i64` for `Int`, `BigInt`, and
    /// `Timestamp` values.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v as i64),
            Value::BigInt(v) | Value::Timestamp(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the float for `Double` (or widened integers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Double(v) => Some(*v),
            _ => self.as_i64().map(|v| v as f64),
        }
    }

    /// A discriminant used for cross-type ordering and encoding.
    fn tag(&self) -> u8 {
        match self {
            Value::Text(_) => 0,
            Value::Int(_) => 1,
            Value::BigInt(_) => 2,
            Value::Double(_) => 3,
            Value::Bool(_) => 4,
            Value::Timestamp(_) => 5,
            Value::Blob(_) => 6,
            Value::List(_) => 7,
            Value::Map(_) => 8,
        }
    }

    /// The number of bytes [`Value::encode_into`] appends, without encoding:
    /// what a cache stamp weighs a key by.
    pub fn encoded_len(&self) -> usize {
        1 + match self {
            Value::Text(s) => 4 + s.len(),
            Value::Int(_) => 4,
            Value::BigInt(_) | Value::Timestamp(_) | Value::Double(_) => 8,
            Value::Bool(_) => 1,
            Value::Blob(b) => 4 + b.len(),
            Value::List(items) => 4 + items.iter().map(Value::encoded_len).sum::<usize>(),
            Value::Map(map) => {
                4 + map
                    .iter()
                    .map(|(k, v)| 4 + k.len() + v.encoded_len())
                    .sum::<usize>()
            }
        }
    }

    /// Appends a self-delimiting binary encoding of this value; used for
    /// partition-key hashing and commit-log serialization.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.tag());
        match self {
            Value::Text(s) => {
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Int(v) => out.extend_from_slice(&v.to_le_bytes()),
            Value::BigInt(v) | Value::Timestamp(v) => out.extend_from_slice(&v.to_le_bytes()),
            Value::Double(v) => out.extend_from_slice(&v.to_bits().to_le_bytes()),
            Value::Bool(v) => out.push(*v as u8),
            Value::Blob(b) => {
                out.extend_from_slice(&(b.len() as u32).to_le_bytes());
                out.extend_from_slice(b);
            }
            Value::List(items) => {
                out.extend_from_slice(&(items.len() as u32).to_le_bytes());
                for item in items {
                    item.encode_into(out);
                }
            }
            Value::Map(map) => {
                out.extend_from_slice(&(map.len() as u32).to_le_bytes());
                for (k, v) in map {
                    out.extend_from_slice(&(k.len() as u32).to_le_bytes());
                    out.extend_from_slice(k.as_bytes());
                    v.encode_into(out);
                }
            }
        }
    }
}

impl Value {
    /// Decodes one value from the front of `bytes`, returning it and the
    /// remaining slice. Inverse of [`Value::encode_into`].
    pub fn decode(bytes: &[u8]) -> Option<(Value, &[u8])> {
        let (&tag, rest) = bytes.split_first()?;
        fn take<const N: usize>(b: &[u8]) -> Option<([u8; N], &[u8])> {
            if b.len() < N {
                return None;
            }
            Some((b[..N].try_into().ok()?, &b[N..]))
        }
        fn take_len(b: &[u8]) -> Option<(usize, &[u8])> {
            let (raw, rest) = take::<4>(b)?;
            Some((u32::from_le_bytes(raw) as usize, rest))
        }
        Some(match tag {
            0 => {
                let (len, rest) = take_len(rest)?;
                if rest.len() < len {
                    return None;
                }
                let s = std::str::from_utf8(&rest[..len]).ok()?;
                (Value::text(s), &rest[len..])
            }
            1 => {
                let (raw, rest) = take::<4>(rest)?;
                (Value::Int(i32::from_le_bytes(raw)), rest)
            }
            2 => {
                let (raw, rest) = take::<8>(rest)?;
                (Value::BigInt(i64::from_le_bytes(raw)), rest)
            }
            3 => {
                let (raw, rest) = take::<8>(rest)?;
                (Value::Double(f64::from_bits(u64::from_le_bytes(raw))), rest)
            }
            4 => {
                let (&b, rest) = rest.split_first()?;
                (Value::Bool(b != 0), rest)
            }
            5 => {
                let (raw, rest) = take::<8>(rest)?;
                (Value::Timestamp(i64::from_le_bytes(raw)), rest)
            }
            6 => {
                let (len, rest) = take_len(rest)?;
                if rest.len() < len {
                    return None;
                }
                (Value::Blob(rest[..len].into()), &rest[len..])
            }
            7 => {
                let (len, mut rest) = take_len(rest)?;
                let mut items = Vec::with_capacity(len.min(1024));
                for _ in 0..len {
                    let (v, r) = Value::decode(rest)?;
                    items.push(v);
                    rest = r;
                }
                (Value::List(items), rest)
            }
            8 => {
                let (len, mut rest) = take_len(rest)?;
                let mut map = BTreeMap::new();
                for _ in 0..len {
                    let (klen, r) = take_len(rest)?;
                    if r.len() < klen {
                        return None;
                    }
                    let key = std::str::from_utf8(&r[..klen]).ok()?.to_owned();
                    let (v, r2) = Value::decode(&r[klen..])?;
                    map.insert(key, v);
                    rest = r2;
                }
                (Value::Map(map), rest)
            }
            _ => return None,
        })
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Text(a), Text(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (BigInt(a), BigInt(b)) => a.cmp(b),
            (Double(a), Double(b)) => a.total_cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Timestamp(a), Timestamp(b)) => a.cmp(b),
            (Blob(a), Blob(b)) => a.cmp(b),
            (List(a), List(b)) => a.cmp(b),
            (Map(a), Map(b)) => a.cmp(b),
            (a, b) => a.tag().cmp(&b.tag()),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Hashes in place what `cmp` compares: the variant, then the payload
/// (doubles by bit pattern, which is what `total_cmp` tells apart).
impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u8(self.tag());
        match self {
            Value::Text(s) => s.hash(state),
            Value::Int(v) => v.hash(state),
            Value::BigInt(v) | Value::Timestamp(v) => v.hash(state),
            Value::Double(v) => v.to_bits().hash(state),
            Value::Bool(v) => v.hash(state),
            Value::Blob(b) => b.hash(state),
            Value::List(items) => items.hash(state),
            Value::Map(map) => map.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Text(s) => write!(f, "'{s}'"),
            Value::Int(v) => write!(f, "{v}"),
            Value::BigInt(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Timestamp(v) => write!(f, "ts:{v}"),
            Value::Blob(b) => write!(f, "0x{}", hex(b)),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Map(map) => {
                write!(f, "{{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "'{k}': {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A composite key: the ordered components of a partition or clustering key.
///
/// Immutable and shared, like [`Value::Text`]: the memtables of every
/// replica, their commit logs, hint queues, SSTables and read results all
/// point at the components the coordinator built once. Build one with
/// `Key::from(vec![..])`; read the components through `key.0`.
///
/// Two copies of one key are one pointer, so equality and order check the
/// pointer before the components: a replica merge compares the copies of
/// a row's key without reading them (`Arc` has no such shortcut for a
/// slice).
#[derive(Debug, Clone, Eq, Default)]
pub struct Key(pub Arc<[Value]>);

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Key) -> Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            return Ordering::Equal;
        }
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Key) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl Key {
    /// Binary encoding: what a partition key's token hashes, and what
    /// stream chunks and cache keys carry.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.0.len() * 12);
        for v in self.0.iter() {
            v.encode_into(&mut out);
        }
        out
    }

    /// The length of [`Key::encode`], without encoding.
    pub fn encoded_len(&self) -> usize {
        self.0.iter().map(Value::encoded_len).sum()
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Key {
    fn from(v: Vec<Value>) -> Key {
        Key(v.into())
    }
}

impl FromIterator<Value> for Key {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Key {
        Key(iter.into_iter().collect())
    }
}

/// One cell: a value plus its write timestamp for last-write-wins merging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// `None` encodes a tombstone (deleted cell).
    pub value: Option<Value>,
    /// Logical write timestamp assigned by the coordinator.
    pub write_ts: u64,
}

impl Cell {
    /// A live cell.
    pub fn live(value: Value, write_ts: u64) -> Cell {
        Cell {
            value: Some(value),
            write_ts,
        }
    }

    /// A tombstone.
    pub fn tombstone(write_ts: u64) -> Cell {
        Cell {
            value: None,
            write_ts,
        }
    }

    /// Last-write-wins merge; ties resolve toward the tombstone, then the
    /// larger value, so merging is commutative.
    pub fn merge(a: &Cell, b: &Cell) -> Cell {
        if b.supersedes(a) {
            b.clone()
        } else {
            a.clone()
        }
    }

    /// Whether merging `self` into a row that holds `old` replaces `old`.
    pub(crate) fn supersedes(&self, old: &Cell) -> bool {
        match self.write_ts.cmp(&old.write_ts) {
            Ordering::Greater => true,
            Ordering::Less => false,
            Ordering::Equal => match (&old.value, &self.value) {
                (None, _) => false,
                (_, None) => true,
                (Some(x), Some(y)) => y > x,
            },
        }
    }
}

/// A materialized row returned by reads: clustering key plus named cells.
///
/// The read-side view of a stored row: its cells are the replica's stored
/// [`Cells`] slice itself whenever every stored cell is live, so a read
/// hands out a pointer, not a copy, and a row carries the schema's
/// interned names. A row holds only live cells; equality compares the
/// clustering key and the `(name, value)` pairs, never write timestamps.
#[derive(Debug, Clone)]
pub struct Row {
    /// Clustering-key components.
    pub clustering: Key,
    /// Live cells, sorted by column name, one per name.
    pub(crate) cells: Cells,
}

impl Row {
    /// Builds a row from cells in any order; the names must be distinct.
    pub fn new(clustering: Key, cells: impl IntoIterator<Item = (Arc<str>, Value)>) -> Row {
        let mut cells: Vec<(Arc<str>, Cell)> = cells
            .into_iter()
            .map(|(name, v)| (name, Cell::live(v, 0)))
            .collect();
        cells.sort_by(|a, b| a.0.cmp(&b.0));
        debug_assert!(
            cells.windows(2).all(|w| w[0].0 < w[1].0),
            "a row holds one cell per column name"
        );
        Row {
            clustering,
            cells: cells.into(),
        }
    }

    /// The live cells in column-name order.
    pub fn cells(&self) -> impl Iterator<Item = (&Arc<str>, &Value)> {
        self.cells
            .iter()
            .filter_map(|(name, c)| Some((name, c.value.as_ref()?)))
    }

    /// Looks up a cell by column name.
    pub fn cell(&self, column: &str) -> Option<&Value> {
        let i = self.cells.binary_search_by(|(n, _)| (**n).cmp(column));
        self.cells[i.ok()?].1.value.as_ref()
    }

    /// Keeps only the cells whose column `keep` accepts (CQL projection).
    pub(crate) fn project(&mut self, keep: impl Fn(&str) -> bool) {
        self.cells = self
            .cells
            .iter()
            .filter(|(n, _)| keep(n))
            .cloned()
            .collect();
    }
}

impl PartialEq for Row {
    fn eq(&self, other: &Row) -> bool {
        self.clustering == other.clustering && self.cells().eq(other.cells())
    }
}

impl Eq for Row {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_accessors() {
        let v = Value::text("hi");
        assert_eq!(v.as_text(), Some("hi"));
        assert_eq!(v.as_i64(), None);
        assert_eq!(Value::Int(5).as_i64(), Some(5));
        assert_eq!(Value::Timestamp(9).as_i64(), Some(9));
        assert_eq!(Value::Double(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Int(2).as_f64(), Some(2.0));
    }

    #[test]
    fn ordering_is_total_even_for_nan() {
        let a = Value::Double(f64::NAN);
        let b = Value::Double(1.0);
        // total_cmp puts NaN above all numbers; the point is it doesn't panic
        // and is consistent.
        assert_eq!(a.cmp(&b), Ordering::Greater);
        assert_eq!(b.cmp(&a), Ordering::Less);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn equality_and_hash_follow_the_total_order() {
        use std::collections::{BTreeSet, HashSet};
        let (nan, zero, minus_zero) = (
            Value::Double(f64::NAN),
            Value::Double(0.0),
            Value::Double(-0.0),
        );
        assert_eq!(nan, nan.clone(), "cmp says Equal, so must eq");
        assert_ne!(zero, minus_zero, "cmp says Less, so eq must not hold");
        // A hashed and a sorted collection fed the same keys agree on which
        // of them are the same key.
        let keys = [
            Key::from(vec![nan.clone()]),
            Key::from(vec![Value::Double(f64::NAN)]),
            Key::from(vec![zero]),
            Key::from(vec![minus_zero]),
            Key::from(vec![Value::BigInt(7), Value::text("MCE")]),
            Key::from(vec![Value::BigInt(7), Value::text("MCE")]),
            Key::from(vec![Value::Timestamp(7), Value::text("MCE")]),
            Key::from(vec![Value::List(vec![nan])]),
        ];
        let hashed: HashSet<Key> = keys.iter().cloned().collect();
        let sorted: BTreeSet<Key> = keys.iter().cloned().collect();
        assert_eq!(sorted.len(), 6);
        assert_eq!(hashed.into_iter().collect::<BTreeSet<Key>>(), sorted);
    }

    #[test]
    fn cross_type_ordering_by_tag() {
        assert!(Value::text("z") < Value::Int(0));
        assert!(Value::Int(0) < Value::BigInt(0));
    }

    #[test]
    fn encoding_is_injective_for_adjacent_strings() {
        // ("ab","c") must not collide with ("a","bc").
        let k1 = Key::from(vec![Value::text("ab"), Value::text("c")]);
        let k2 = Key::from(vec![Value::text("a"), Value::text("bc")]);
        assert_ne!(k1.encode(), k2.encode());
        assert_eq!(k1.encoded_len(), k1.encode().len());
    }

    #[test]
    fn cell_merge_lww() {
        let old = Cell::live(Value::Int(1), 1);
        let new = Cell::live(Value::Int(2), 2);
        assert_eq!(Cell::merge(&old, &new).value, Some(Value::Int(2)));
        assert_eq!(Cell::merge(&new, &old).value, Some(Value::Int(2)));
    }

    #[test]
    fn cell_merge_tie_prefers_tombstone_and_is_commutative() {
        let live = Cell::live(Value::Int(1), 5);
        let dead = Cell::tombstone(5);
        assert_eq!(Cell::merge(&live, &dead).value, None);
        assert_eq!(Cell::merge(&dead, &live).value, None);
        let a = Cell::live(Value::Int(1), 5);
        let b = Cell::live(Value::Int(2), 5);
        assert_eq!(Cell::merge(&a, &b), Cell::merge(&b, &a));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::text("x").to_string(), "'x'");
        assert_eq!(
            Value::List(vec![Value::Int(1), Value::Int(2)]).to_string(),
            "[1, 2]"
        );
        let k = Key::from(vec![Value::BigInt(7), Value::text("MCE")]);
        assert_eq!(k.to_string(), "(7, 'MCE')");
    }

    #[test]
    fn encode_decode_roundtrip_all_variants() {
        let mut m = BTreeMap::new();
        m.insert("k".to_owned(), Value::Bool(false));
        let values = vec![
            Value::text("hello"),
            Value::Int(-5),
            Value::BigInt(i64::MAX),
            Value::Double(2.5),
            Value::Bool(true),
            Value::Timestamp(1_500_000_000_000),
            Value::Blob(b"\x00\x01\x02"[..].into()),
            Value::List(vec![Value::Int(1), Value::text("x")]),
            Value::Map(m),
        ];
        for v in values {
            let mut buf = Vec::new();
            v.encode_into(&mut buf);
            assert_eq!(v.encoded_len(), buf.len(), "{v}");
            buf.extend_from_slice(b"trailer");
            let (back, rest) = Value::decode(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(rest, b"trailer");
        }
    }

    #[test]
    fn row_cells_are_name_sorted_whatever_order_they_came_in() {
        let row = Row::new(
            Key::from(vec![Value::Timestamp(1)]),
            [
                ("raw".into(), Value::text("x")),
                ("amount".into(), Value::Int(2)),
            ],
        );
        let names: Vec<&str> = row.cells().map(|(n, _)| &**n).collect();
        assert_eq!(names, ["amount", "raw"]);
        assert_eq!(row.cell("amount"), Some(&Value::Int(2)));
        assert_eq!(row.cell("raw"), Some(&Value::text("x")));
        assert_eq!(row.cell("nope"), None);
    }

    #[test]
    fn row_equality_ignores_write_timestamps() {
        let clustering = Key::from(vec![Value::Timestamp(1)]);
        let built = Row::new(clustering.clone(), [("a".into(), Value::Int(1))]);
        let stored = |ts| Row {
            clustering: clustering.clone(),
            cells: crate::memtable::sorted_cells([("a".into(), Cell::live(Value::Int(1), ts))]),
        };
        assert_eq!(built, stored(7), "a built row equals the row read back");
        assert_eq!(stored(7), stored(9));
        let other = Row::new(clustering, [("a".into(), Value::Int(2))]);
        assert_ne!(built, other, "values still count");
    }

    #[test]
    fn decode_rejects_truncated_and_garbage() {
        let mut buf = Vec::new();
        Value::text("hello").encode_into(&mut buf);
        assert!(Value::decode(&buf[..3]).is_none());
        assert!(Value::decode(&[]).is_none());
        assert!(Value::decode(&[99, 1, 2]).is_none());
    }

    #[test]
    fn map_and_blob_roundtrip_in_encoding() {
        let mut m = BTreeMap::new();
        m.insert("k".to_owned(), Value::Bool(true));
        let v = Value::Map(m);
        let mut b1 = Vec::new();
        v.encode_into(&mut b1);
        let mut b2 = Vec::new();
        v.clone().encode_into(&mut b2);
        assert_eq!(b1, b2);
        assert!(!b1.is_empty());
    }
}
