//! Table schemas: partition keys, clustering keys, and typed columns.

use crate::commitlog::Mutation;
use crate::error::DbError;
use crate::memtable::Cells;
use crate::partitioner::DecoratedKey;
use crate::types::{Cell, Key, Value};
use std::sync::Arc;

/// Column data types (the CQL subset the framework needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// UTF-8 text.
    Text,
    /// 32-bit integer.
    Int,
    /// 64-bit integer.
    BigInt,
    /// 64-bit float.
    Double,
    /// Boolean.
    Bool,
    /// Milliseconds since epoch.
    Timestamp,
    /// Raw bytes.
    Blob,
    /// List of values.
    List,
    /// String-keyed map; the paper's "Other Info" columns with
    /// per-application sub-columns map onto this.
    Map,
}

impl ColumnType {
    /// Whether `value` inhabits this type.
    pub fn accepts(&self, value: &Value) -> bool {
        matches!(
            (self, value),
            (ColumnType::Text, Value::Text(_))
                | (ColumnType::Int, Value::Int(_))
                | (ColumnType::BigInt, Value::BigInt(_))
                | (ColumnType::Double, Value::Double(_))
                | (ColumnType::Bool, Value::Bool(_))
                | (ColumnType::Timestamp, Value::Timestamp(_))
                | (ColumnType::Blob, Value::Blob(_))
                | (ColumnType::List, Value::List(_))
                | (ColumnType::Map, Value::Map(_))
        )
    }

    /// CQL spelling.
    pub fn cql_name(&self) -> &'static str {
        match self {
            ColumnType::Text => "text",
            ColumnType::Int => "int",
            ColumnType::BigInt => "bigint",
            ColumnType::Double => "double",
            ColumnType::Bool => "boolean",
            ColumnType::Timestamp => "timestamp",
            ColumnType::Blob => "blob",
            ColumnType::List => "list",
            ColumnType::Map => "map",
        }
    }

    /// Parses a CQL type name.
    pub fn from_cql_name(name: &str) -> Option<ColumnType> {
        Some(match name.to_ascii_lowercase().as_str() {
            "text" | "varchar" | "ascii" => ColumnType::Text,
            "int" => ColumnType::Int,
            "bigint" | "counter" => ColumnType::BigInt,
            "double" | "float" => ColumnType::Double,
            "boolean" => ColumnType::Bool,
            "timestamp" => ColumnType::Timestamp,
            "blob" => ColumnType::Blob,
            "list" => ColumnType::List,
            "map" => ColumnType::Map,
            _ => return None,
        })
    }
}

/// One column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name. Interned: every stored cell of the column points at
    /// this one allocation.
    pub name: Arc<str>,
    /// Column type.
    pub ctype: ColumnType,
}

/// Which role a column plays in the primary key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyRole {
    /// Hash-distributed partition key component.
    Partition,
    /// Sort-order clustering key component.
    Clustering,
    /// Regular (non-key) column.
    Regular,
}

/// A table schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name, shared with every mutation that targets the table.
    pub name: Arc<str>,
    /// Partition-key columns, in key order.
    pub partition_key: Vec<ColumnDef>,
    /// Clustering-key columns, in sort order.
    pub clustering_key: Vec<ColumnDef>,
    /// Regular columns.
    pub columns: Vec<ColumnDef>,
}

impl TableSchema {
    /// Starts a schema builder.
    pub fn builder(name: impl AsRef<str>) -> TableSchemaBuilder {
        TableSchemaBuilder {
            name: name.as_ref().into(),
            partition_key: Vec::new(),
            clustering_key: Vec::new(),
            columns: Vec::new(),
        }
    }

    /// The role of `column` in this table, or `None` if unknown.
    pub fn role_of(&self, column: &str) -> Option<KeyRole> {
        if self.partition_key.iter().any(|c| &*c.name == column) {
            Some(KeyRole::Partition)
        } else if self.clustering_key.iter().any(|c| &*c.name == column) {
            Some(KeyRole::Clustering)
        } else if self.columns.iter().any(|c| &*c.name == column) {
            Some(KeyRole::Regular)
        } else {
            None
        }
    }

    /// Every column in slot order: partition key, clustering key, regular.
    fn defs(&self) -> impl Iterator<Item = &ColumnDef> {
        self.partition_key
            .iter()
            .chain(&self.clustering_key)
            .chain(&self.columns)
    }

    /// The column at `slot` of [`Self::defs`].
    fn def(&self, slot: usize) -> &ColumnDef {
        let (pk, ck) = (self.partition_key.len(), self.clustering_key.len());
        if slot < pk {
            &self.partition_key[slot]
        } else if slot < pk + ck {
            &self.clustering_key[slot - pk]
        } else {
            &self.columns[slot - pk - ck]
        }
    }

    fn key_len(&self) -> usize {
        self.partition_key.len() + self.clustering_key.len()
    }

    /// Looks up any column definition by name.
    pub fn column(&self, name: &str) -> Option<&ColumnDef> {
        self.defs().find(|c| &*c.name == name)
    }

    /// The regular columns in name order, as `(name, type)`.
    fn regular_by_name(&self) -> Vec<(&str, ColumnType)> {
        let mut columns: Vec<_> = self.columns.iter().map(|c| (&*c.name, c.ctype)).collect();
        columns.sort_unstable_by_key(|&(name, _)| name);
        columns
    }

    /// Maps each supplied column name to its slot: every name known and
    /// given once, every key column present.
    fn resolve<N: AsRef<str>>(&self, values: &[(N, Value)]) -> Result<Vec<usize>, DbError> {
        let mut slots = Vec::with_capacity(values.len());
        for (name, _) in values {
            let name = name.as_ref();
            let slot = self.defs().position(|c| &*c.name == name).ok_or_else(|| {
                DbError::SchemaViolation(format!(
                    "unknown column '{}' in table '{}'",
                    name, self.name
                ))
            })?;
            if slots.contains(&slot) {
                return Err(DbError::SchemaViolation(format!(
                    "column '{}' named twice in insert into '{}'",
                    name, self.name
                )));
            }
            slots.push(slot);
        }
        if let Some(missing) = (0..self.key_len()).find(|slot| !slots.contains(slot)) {
            return Err(DbError::SchemaViolation(format!(
                "missing key column '{}' in insert into '{}'",
                self.def(missing).name,
                self.name
            )));
        }
        Ok(slots)
    }
}

/// Validates the rows of one batch and binds each to every view it is
/// written to (one table, or several tables that store the same rows under
/// other keys) in a single pass per row.
///
/// Column names are resolved to each view's schema slots once, and the
/// resolution is reused for every following row that names the same
/// columns in the same order, so a batch pays for name lookups once and
/// never allocates a name: stored cells carry the schema's interned one.
/// Partition keys are decorated here, through one reused encoding buffer,
/// and a row whose partition key in a view equals that view's previous one
/// shares its decorated key: one reference count, no allocation, no hash.
///
/// A row's regular cells are built once. Every view whose regular columns
/// are the first view's, by name and type, shares the first view's cells;
/// which views do is settled from the schemas when the binder is made, not
/// per row. A value is moved into the last key or cells that need it and
/// cloned for any before, so a row bound to one view moves every value.
pub(crate) struct InsertBinder<'s> {
    views: Vec<ViewBinder<'s>>,
    /// Scratch for key components on their way into schema order.
    keys: Vec<Option<Value>>,
    /// Scratch for a partition key's encoding, hashed to decorate it.
    encoded: Vec<u8>,
    /// What a sharing view's rows hold until [`InsertBinder::finish`]
    /// points them at the first view's cells.
    unset: Cells,
}

/// One view of an [`InsertBinder`]: its resolution of the current row
/// shape, and the rows bound to it so far.
struct ViewBinder<'s> {
    schema: &'s TableSchema,
    /// Whether the view points at the first view's cells.
    shares_cells: bool,
    /// Slot of each supplied column of the row shape resolved last.
    slots: Vec<usize>,
    /// Positions of that shape's regular columns, in column-name order;
    /// none when the view shares the first view's cells.
    by_name: Vec<usize>,
    /// Per supplied column: whether this view moves the value out of the
    /// row, because no later view uses it, rather than cloning it.
    takes: Vec<bool>,
    /// The partition key of the row bound last.
    last: Option<DecoratedKey>,
    /// The rows bound so far, live at write timestamp 0 until
    /// [`InsertBinder::finish`] stamps them.
    mutations: Vec<Mutation>,
}

impl<'s> InsertBinder<'s> {
    /// A binder for a batch of about `rows` rows into `views`, of which
    /// there is at least one.
    pub(crate) fn new(views: &[&'s TableSchema], rows: usize) -> InsertBinder<'s> {
        let first = views[0].regular_by_name();
        let views = views.iter().enumerate().map(|(v, &schema)| ViewBinder {
            schema,
            shares_cells: v > 0 && schema.regular_by_name() == first,
            slots: Vec::new(),
            by_name: Vec::new(),
            takes: Vec::new(),
            last: None,
            mutations: Vec::with_capacity(rows),
        });
        InsertBinder {
            views: views.collect(),
            keys: Vec::new(),
            encoded: Vec::new(),
            unset: Cells::default(),
        }
    }

    /// Rows bound so far.
    pub(crate) fn rows(&self) -> usize {
        self.views[0].mutations.len()
    }

    /// Resolves a new row shape in every view: every name known and given
    /// once, every key column present. A shape that one view rejects
    /// changes none.
    fn resolve<N: AsRef<str>>(&mut self, values: &[(N, Value)]) -> Result<(), DbError> {
        let slots: Vec<Vec<usize>> = self
            .views
            .iter()
            .map(|view| view.schema.resolve(values))
            .collect::<Result<_, _>>()?;
        // Views bind in order; walking them backwards finds, for each
        // view, the values that no later view reads.
        let mut used_later = vec![false; values.len()];
        for (view, slots) in self.views.iter_mut().zip(slots).rev() {
            let schema = view.schema;
            let key_len = schema.key_len();
            view.by_name.clear();
            if !view.shares_cells {
                view.by_name
                    .extend((0..values.len()).filter(|&i| slots[i] >= key_len));
                view.by_name.sort_by_key(|&i| &schema.def(slots[i]).name);
            }
            view.takes.clear();
            view.takes.resize(values.len(), false);
            let keys = (0..values.len()).filter(|&i| slots[i] < key_len);
            for i in keys.chain(view.by_name.iter().copied()) {
                view.takes[i] = !std::mem::replace(&mut used_later[i], true);
            }
            view.slots = slots;
        }
        Ok(())
    }

    /// Binds one row's `(column, value)` list to every view: in each, every
    /// partition and clustering key present, no column named twice and
    /// every value of its column's type. A rejected row is bound to no view.
    pub(crate) fn bind<N: AsRef<str>>(
        &mut self,
        mut values: Vec<(N, Value)>,
    ) -> Result<(), DbError> {
        let first = &self.views[0];
        // No resolved shape is empty: a table has a partition key.
        let same_shape = !first.slots.is_empty()
            && values.len() == first.slots.len()
            && values
                .iter()
                .zip(&first.slots)
                .all(|((name, _), &slot)| &*first.schema.def(slot).name == name.as_ref());
        if !same_shape {
            self.resolve(&values)?;
        }
        for view in &self.views {
            for ((_, value), &slot) in values.iter().zip(&view.slots) {
                let def = view.schema.def(slot);
                if !def.ctype.accepts(value) {
                    return Err(DbError::SchemaViolation(format!(
                        "column '{}' of '{}' expects {}, got {}",
                        def.name,
                        view.schema.name,
                        def.ctype.cql_name(),
                        value
                    )));
                }
            }
        }
        // Valid in every view: nothing below fails.
        for view in &mut self.views {
            let schema = view.schema;
            let key_len = schema.key_len();
            let mut value = |i: usize| {
                let value = &mut values[i].1;
                if view.takes[i] {
                    std::mem::replace(value, Value::Bool(false))
                } else {
                    value.clone()
                }
            };
            self.keys.clear();
            self.keys.resize(key_len, None);
            for (i, &slot) in view.slots.iter().enumerate() {
                if slot < key_len {
                    self.keys[slot] = Some(value(i));
                }
            }
            // Straight into the shared slice: one allocation, no sort per row.
            let cells: Cells = if view.shares_cells {
                Arc::clone(&self.unset)
            } else {
                view.by_name
                    .iter()
                    .map(|&i| {
                        let name = &schema.def(view.slots[i]).name;
                        (Arc::clone(name), Cell::live(value(i), 0))
                    })
                    .collect()
            };
            let (partition_parts, clustering_parts) =
                self.keys.split_at_mut(schema.partition_key.len());
            let take = |parts: &mut [Option<Value>]| -> Key {
                let parts = parts.iter_mut().map(Option::take);
                parts
                    .map(|v| v.expect("resolve saw every key column"))
                    .collect()
            };
            let repeated = view.last.as_ref().filter(|last| {
                let parts = partition_parts.iter().map(Option::as_ref);
                last.key().0.iter().map(Some).eq(parts)
            });
            let partition = match repeated.cloned() {
                Some(partition) => partition,
                None => {
                    let partition =
                        DecoratedKey::with_buffer(take(partition_parts), &mut self.encoded);
                    view.last = Some(partition.clone());
                    partition
                }
            };
            view.mutations.push(Mutation {
                table: Arc::clone(&schema.name),
                partition,
                clustering: take(clustering_parts),
                cells,
                row_delete: None,
            });
        }
        Ok(())
    }

    /// The bound rows as mutations, view by view. Row `i` carries write
    /// timestamp `first_ts + i` in every view, and a view that shares cells
    /// points at the first view's.
    pub(crate) fn finish(self, first_ts: u64) -> Vec<Vec<Mutation>> {
        let stamp = |cells: &mut Cells, ts: u64| {
            // Unshared until now, unless it is an empty slice.
            for (_, cell) in Arc::get_mut(cells).into_iter().flatten() {
                cell.write_ts = ts;
            }
        };
        let mut views = self.views.into_iter();
        let mut first = views.next().expect("a binder has a view").mutations;
        for (m, ts) in first.iter_mut().zip(first_ts..) {
            stamp(&mut m.cells, ts);
        }
        let rest: Vec<Vec<Mutation>> = views
            .map(|view| {
                let mut mutations = view.mutations;
                for ((m, ts), shared) in mutations.iter_mut().zip(first_ts..).zip(&first) {
                    if view.shares_cells {
                        m.cells = Arc::clone(&shared.cells);
                    } else {
                        stamp(&mut m.cells, ts);
                    }
                }
                mutations
            })
            .collect();
        std::iter::once(first).chain(rest).collect()
    }
}

/// Fluent builder for [`TableSchema`].
pub struct TableSchemaBuilder {
    name: Arc<str>,
    partition_key: Vec<ColumnDef>,
    clustering_key: Vec<ColumnDef>,
    columns: Vec<ColumnDef>,
}

impl TableSchemaBuilder {
    /// Adds a partition-key column.
    pub fn partition_key(mut self, name: impl AsRef<str>, ctype: ColumnType) -> Self {
        self.partition_key.push(ColumnDef {
            name: name.as_ref().into(),
            ctype,
        });
        self
    }

    /// Adds a clustering-key column.
    pub fn clustering_key(mut self, name: impl AsRef<str>, ctype: ColumnType) -> Self {
        self.clustering_key.push(ColumnDef {
            name: name.as_ref().into(),
            ctype,
        });
        self
    }

    /// Adds a regular column.
    pub fn column(mut self, name: impl AsRef<str>, ctype: ColumnType) -> Self {
        self.columns.push(ColumnDef {
            name: name.as_ref().into(),
            ctype,
        });
        self
    }

    /// Finishes, checking structural invariants.
    pub fn build(self) -> Result<TableSchema, DbError> {
        if self.name.is_empty() {
            return Err(DbError::SchemaViolation("empty table name".into()));
        }
        if self.partition_key.is_empty() {
            return Err(DbError::SchemaViolation(format!(
                "table '{}' needs at least one partition key column",
                self.name
            )));
        }
        let mut seen = std::collections::HashSet::new();
        for c in self
            .partition_key
            .iter()
            .chain(&self.clustering_key)
            .chain(&self.columns)
        {
            if !seen.insert(&*c.name) {
                return Err(DbError::SchemaViolation(format!(
                    "duplicate column '{}' in table '{}'",
                    c.name, self.name
                )));
            }
        }
        Ok(TableSchema {
            name: self.name,
            partition_key: self.partition_key,
            clustering_key: self.clustering_key,
            columns: self.columns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-view binder, as `insert_batch` makes.
    fn one_view(s: &TableSchema) -> InsertBinder<'_> {
        InsertBinder::new(&[s], 0)
    }

    /// Binds one row and returns it as its view holds it.
    fn bind<N: AsRef<str>>(
        binder: &mut InsertBinder<'_>,
        values: Vec<(N, Value)>,
    ) -> Result<(DecoratedKey, Key, Cells), DbError> {
        binder.bind(values)?;
        let m = binder.views[0].mutations.last().expect("a bound row");
        Ok((
            m.partition.clone(),
            m.clustering.clone(),
            Arc::clone(&m.cells),
        ))
    }

    fn sample() -> TableSchema {
        TableSchema::builder("event_by_time")
            .partition_key("hour", ColumnType::BigInt)
            .partition_key("type", ColumnType::Text)
            .clustering_key("ts", ColumnType::Timestamp)
            .column("source", ColumnType::Text)
            .column("amount", ColumnType::Int)
            .build()
            .unwrap()
    }

    #[test]
    fn roles_are_reported() {
        let s = sample();
        assert_eq!(s.role_of("hour"), Some(KeyRole::Partition));
        assert_eq!(s.role_of("ts"), Some(KeyRole::Clustering));
        assert_eq!(s.role_of("amount"), Some(KeyRole::Regular));
        assert_eq!(s.role_of("nope"), None);
    }

    #[test]
    fn builder_rejects_duplicates_and_keyless_tables() {
        assert!(TableSchema::builder("t")
            .partition_key("a", ColumnType::Int)
            .column("a", ColumnType::Int)
            .build()
            .is_err());
        assert!(TableSchema::builder("t")
            .column("a", ColumnType::Int)
            .build()
            .is_err());
        assert!(TableSchema::builder("")
            .partition_key("a", ColumnType::Int)
            .build()
            .is_err());
    }

    #[test]
    fn validate_insert_checks_presence_and_types() {
        let s = sample();
        let ok = vec![
            ("hour", Value::BigInt(1)),
            ("type", Value::text("MCE")),
            ("ts", Value::Timestamp(5)),
            ("amount", Value::Int(2)),
        ];
        assert!(bind(&mut one_view(&s), ok).is_ok());

        let missing_key = vec![("hour", Value::BigInt(1)), ("ts", Value::Timestamp(5))];
        assert!(matches!(
            bind(&mut one_view(&s), missing_key),
            Err(DbError::SchemaViolation(_))
        ));
        let nothing: Vec<(&str, Value)> = Vec::new();
        assert!(bind(&mut one_view(&s), nothing).is_err());

        let wrong_type = vec![
            ("hour", Value::text("not a number")),
            ("type", Value::text("MCE")),
            ("ts", Value::Timestamp(5)),
        ];
        assert!(bind(&mut one_view(&s), wrong_type).is_err());

        let unknown = vec![
            ("hour", Value::BigInt(1)),
            ("type", Value::text("MCE")),
            ("ts", Value::Timestamp(5)),
            ("bogus", Value::Int(1)),
        ];
        assert!(bind(&mut one_view(&s), unknown).is_err());
    }

    #[test]
    fn a_column_named_twice_is_rejected_whatever_its_role() {
        let s = sample();
        let row = |extra: (&'static str, Value)| {
            vec![
                ("hour", Value::BigInt(1)),
                ("type", Value::text("MCE")),
                ("ts", Value::Timestamp(5)),
                ("amount", Value::Int(2)),
                extra,
            ]
        };
        for extra in [
            ("hour", Value::BigInt(1)),
            ("hour", Value::text("a second, mistyped hour")),
            ("ts", Value::Timestamp(6)),
            ("amount", Value::Int(3)),
        ] {
            let err = bind(&mut one_view(&s), row(extra)).unwrap_err();
            assert!(matches!(err, DbError::SchemaViolation(_)), "{err}");
        }
    }

    #[test]
    fn split_insert_orders_by_schema() {
        let s = sample();
        let values = vec![
            ("amount".to_owned(), Value::Int(2)),
            ("ts".to_owned(), Value::Timestamp(5)),
            ("type".to_owned(), Value::text("MCE")),
            ("hour".to_owned(), Value::BigInt(1)),
        ];
        let (pk, ck, rest) = bind(&mut one_view(&s), values).unwrap();
        let key = Key::from(vec![Value::BigInt(1), Value::text("MCE")]);
        assert_eq!(pk, DecoratedKey::new(key));
        assert_eq!(ck, Key::from(vec![Value::Timestamp(5)]));
        assert_eq!(
            rest.to_vec(),
            vec![("amount".into(), Cell::live(Value::Int(2), 0))]
        );
        assert!(
            Arc::ptr_eq(&rest[0].0, &s.columns[1].name),
            "a stored cell carries the schema's own name"
        );
    }

    #[test]
    fn a_binder_follows_rows_that_change_shape() {
        let s = sample();
        let mut binder = one_view(&s);
        let full = || {
            vec![
                ("hour", Value::BigInt(1)),
                ("type", Value::text("MCE")),
                ("ts", Value::Timestamp(5)),
                ("amount", Value::Int(2)),
            ]
        };
        let mut reordered = full();
        reordered.swap(0, 3);
        let mut renamed = full();
        renamed[3] = ("source", Value::text("c0-0c0s0n0"));
        let first = bind(&mut binder, full()).unwrap();
        assert_eq!(bind(&mut binder, full()).unwrap(), first);
        assert_eq!(bind(&mut binder, reordered).unwrap(), first);
        let (.., cells) = bind(&mut binder, renamed).unwrap();
        assert_eq!(&*cells[0].0, "source");
        // A rejected row leaves the binder usable.
        assert!(bind(&mut binder, vec![("hour", Value::BigInt(1))]).is_err());
        assert_eq!(bind(&mut binder, full()).unwrap(), first);
    }

    #[test]
    fn consecutive_rows_of_one_partition_share_its_decorated_key() {
        let s = sample();
        let mut binder = one_view(&s);
        let row = |hour: i64, ts: i64| {
            vec![
                ("hour", Value::BigInt(hour)),
                ("type", Value::text("MCE")),
                ("ts", Value::Timestamp(ts)),
            ]
        };
        let (first, ..) = bind(&mut binder, row(1, 1)).unwrap();
        let (second, ..) = bind(&mut binder, row(1, 2)).unwrap();
        let (other, ..) = bind(&mut binder, row(2, 3)).unwrap();
        let (back, ..) = bind(&mut binder, row(1, 4)).unwrap();
        assert!(Arc::ptr_eq(&first.key().0, &second.key().0), "shared");
        assert_ne!(first, other);
        assert_eq!(back, first, "the same key, decorated again");
        assert!(!Arc::ptr_eq(&first.key().0, &back.key().0));
    }

    #[test]
    fn cells_come_out_in_name_order_whatever_the_row_order() {
        let s = sample();
        let mut binder = one_view(&s);
        let row = |first: (&'static str, Value), second: (&'static str, Value)| {
            vec![
                first,
                ("hour", Value::BigInt(1)),
                ("type", Value::text("MCE")),
                second,
                ("ts", Value::Timestamp(5)),
            ]
        };
        let (source, amount) = (("source", Value::text("c0")), ("amount", Value::Int(2)));
        let (.., cells) = bind(&mut binder, row(source.clone(), amount.clone())).unwrap();
        let names: Vec<&str> = cells.iter().map(|(n, _)| &**n).collect();
        assert_eq!(names, ["amount", "source"]);
        let (.., again) = bind(&mut binder, row(amount, source)).unwrap();
        assert_eq!(again, cells);
    }

    #[test]
    fn type_names_roundtrip() {
        for t in [
            ColumnType::Text,
            ColumnType::Int,
            ColumnType::BigInt,
            ColumnType::Double,
            ColumnType::Bool,
            ColumnType::Timestamp,
            ColumnType::Blob,
            ColumnType::List,
            ColumnType::Map,
        ] {
            assert_eq!(ColumnType::from_cql_name(t.cql_name()), Some(t));
        }
        assert_eq!(ColumnType::from_cql_name("uuid"), None);
    }
}
