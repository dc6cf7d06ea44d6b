//! CQL statements on the coordinator: parse, validate against the schema,
//! then one write or one plan read.

use super::{Cluster, ExecResult};
use crate::cql;
use crate::error::DbError;
use crate::partitioner::DecoratedKey;
use crate::query::{
    clustering_bounds, CmpOp, Consistency, Lit, Predicate, ReadPlan, SelectStatement, Statement,
};
use crate::schema::{ColumnDef, KeyRole};
use crate::types::Value;

impl Cluster {
    /// Executes a CQL statement.
    pub fn execute(&self, cql_text: &str, consistency: Consistency) -> Result<ExecResult, DbError> {
        let stmt = cql::parse_statement(cql_text)?;
        self.execute_statement(stmt, consistency)
    }

    /// Executes a parsed statement.
    pub fn execute_statement(
        &self,
        stmt: Statement,
        consistency: Consistency,
    ) -> Result<ExecResult, DbError> {
        match stmt {
            Statement::CreateTable(schema) => {
                self.create_table(schema)?;
                Ok(ExecResult::Applied)
            }
            Statement::Insert { table, values } => {
                let schema = self.known_schema(&table)?;
                let mut typed = Vec::with_capacity(values.len());
                for (col, lit) in values {
                    let def = schema.column(&col).ok_or_else(|| {
                        DbError::SchemaViolation(format!("unknown column '{col}'"))
                    })?;
                    let v = lit.coerce(def.ctype).ok_or_else(|| {
                        DbError::SchemaViolation(format!(
                            "literal {lit:?} does not fit column '{col}' ({})",
                            def.ctype.cql_name()
                        ))
                    })?;
                    typed.push((col, v));
                }
                self.insert(&table, typed, consistency)?;
                Ok(ExecResult::Applied)
            }
            Statement::Select(sel) => {
                let plan = self.plan_select(&sel)?;
                let mut rows = self.read(&plan, consistency)?.to_vec();
                if let Some(cols) = &sel.columns {
                    for row in &mut rows {
                        row.project(|name| cols.iter().any(|c| **c == *name));
                    }
                }
                Ok(ExecResult::Rows(rows))
            }
            Statement::Delete { table, predicates } => {
                let schema = self.known_schema(&table)?;
                let mut pk = Vec::new();
                let mut ck = Vec::new();
                for col in schema.partition_key.iter().chain(&schema.clustering_key) {
                    let p = predicates
                        .iter()
                        .find(|p| *p.column == *col.name && p.op == CmpOp::Eq)
                        .ok_or_else(|| {
                            DbError::BadQuery(format!(
                                "DELETE requires '{}' pinned by equality",
                                col.name
                            ))
                        })?;
                    let v = coerce(&p.value, col)?;
                    match schema.role_of(&col.name) {
                        Some(KeyRole::Partition) => pk.push(v),
                        _ => ck.push(v),
                    }
                }
                self.delete(&table, pk, ck, consistency)?;
                Ok(ExecResult::Applied)
            }
        }
    }

    /// Turns a parsed `SELECT` into a read plan, enforcing the CQL-style
    /// restrictions: all partition keys pinned by equality; clustering keys
    /// constrained as an equality prefix plus at most one ranged component;
    /// a projection names only the table's columns. Nothing is read, so a
    /// bad statement is refused before any replica is asked.
    pub fn plan_select(&self, sel: &SelectStatement) -> Result<ReadPlan, DbError> {
        let schema = self.known_schema(&sel.table)?;

        let mut partition = Vec::with_capacity(schema.partition_key.len());
        for col in &schema.partition_key {
            let p = sel
                .predicates
                .iter()
                .find(|p| *p.column == *col.name)
                .ok_or_else(|| {
                    DbError::BadQuery(format!("partition key '{}' must be constrained", col.name))
                })?;
            if p.op != CmpOp::Eq {
                return Err(DbError::BadQuery(format!(
                    "partition key '{}' only supports '='",
                    col.name
                )));
            }
            partition.push(coerce(&p.value, col)?);
        }

        // Clustering: equality prefix, then optionally one ranged column.
        let mut prefix = Vec::new();
        let mut lower = None;
        let mut upper = None;
        let mut ranged = false;
        for col in &schema.clustering_key {
            let preds: Vec<&Predicate> = sel
                .predicates
                .iter()
                .filter(|p| *p.column == *col.name)
                .collect();
            if preds.is_empty() {
                break;
            }
            if ranged {
                return Err(DbError::BadQuery(format!(
                    "clustering column '{}' constrained after a ranged column",
                    col.name
                )));
            }
            if preds.len() == 1 && preds[0].op == CmpOp::Eq {
                prefix.push(coerce(&preds[0].value, col)?);
                continue;
            }
            for p in preds {
                let v = coerce(&p.value, col)?;
                match p.op {
                    CmpOp::Eq => {
                        return Err(DbError::BadQuery(format!(
                            "cannot mix '=' and ranges on '{}'",
                            col.name
                        )))
                    }
                    CmpOp::Gt => lower = Some((v, false)),
                    CmpOp::Ge => lower = Some((v, true)),
                    CmpOp::Lt => upper = Some((v, false)),
                    CmpOp::Le => upper = Some((v, true)),
                }
            }
            ranged = true;
        }

        // Reject predicates on unknown/regular columns (no filtering).
        for p in &sel.predicates {
            match schema.role_of(&p.column) {
                Some(KeyRole::Partition) | Some(KeyRole::Clustering) => {}
                Some(KeyRole::Regular) => {
                    return Err(DbError::BadQuery(format!(
                        "predicate on regular column '{}' unsupported",
                        p.column
                    )))
                }
                None => return Err(DbError::BadQuery(format!("unknown column '{}'", p.column))),
            }
        }
        if let Some(col) = sel
            .columns
            .iter()
            .flatten()
            .find(|c| schema.column(c).is_none())
        {
            return Err(DbError::BadQuery(format!(
                "unknown column '{col}' in projection"
            )));
        }

        let range = clustering_bounds(prefix, lower, upper, schema.clustering_key.len());
        Ok(ReadPlan {
            table: sel.table.clone(),
            partition: DecoratedKey::new(partition.into()),
            range,
            limit: sel.limit,
            descending: sel.descending,
        })
    }
}

/// A literal as a value of `col`'s type.
fn coerce(lit: &Lit, col: &ColumnDef) -> Result<Value, DbError> {
    lit.coerce(col.ctype)
        .ok_or_else(|| DbError::SchemaViolation(format!("bad literal for '{}'", col.name)))
}
