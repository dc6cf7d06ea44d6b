//! A CQL-subset text parser: `CREATE TABLE`, `INSERT`, `SELECT`, `DELETE`.
//!
//! The analytics server's query engine translates frontend requests into
//! these statements, mirroring the paper's "relays them to the backend
//! database server in the form of Cassandra Query Language (CQL) queries".

use crate::error::DbError;
use crate::query::{CmpOp, Lit, Predicate, SelectStatement, Statement};
use crate::schema::{ColumnType, TableSchema};

/// Parses one statement (an optional trailing `;` is allowed).
pub fn parse_statement(text: &str) -> Result<Statement, DbError> {
    let tokens = tokenize(text)?;
    let mut p = Cursor { tokens, pos: 0 };
    let stmt = match p.peek_keyword().as_deref() {
        Some("create") => p.create_table()?,
        Some("insert") => p.insert()?,
        Some("select") => p.select()?,
        Some("delete") => p.delete()?,
        _ => {
            return Err(DbError::Parse(
                "expected CREATE, INSERT, SELECT, or DELETE".to_owned(),
            ))
        }
    };
    p.eat_symbol(";");
    if !p.at_end() {
        return Err(DbError::Parse(format!(
            "unexpected trailing token {:?}",
            p.peek().cloned()
        )));
    }
    Ok(stmt)
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Num(i64),
    Float(f64),
    Str(String),
    Symbol(String),
}

fn tokenize(text: &str) -> Result<Vec<Token>, DbError> {
    let mut out = Vec::new();
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            c if c.is_whitespace() => i += 1,
            '(' | ')' | ',' | ';' | '*' | '=' => {
                out.push(Token::Symbol(c.to_string()));
                i += 1;
            }
            '<' | '>' => {
                if chars.get(i + 1) == Some(&'=') {
                    out.push(Token::Symbol(format!("{c}=")));
                    i += 2;
                } else {
                    out.push(Token::Symbol(c.to_string()));
                    i += 1;
                }
            }
            '\'' => {
                i += 1;
                let mut s = String::new();
                loop {
                    match chars.get(i) {
                        None => return Err(DbError::Parse("unterminated string".to_owned())),
                        Some('\'') if chars.get(i + 1) == Some(&'\'') => {
                            s.push('\'');
                            i += 2;
                        }
                        Some('\'') => {
                            i += 1;
                            break;
                        }
                        Some(&c) => {
                            s.push(c);
                            i += 1;
                        }
                    }
                }
                out.push(Token::Str(s));
            }
            '-' | '0'..='9' => {
                let start = i;
                if c == '-' {
                    i += 1;
                }
                let mut is_float = false;
                while let Some(&d) = chars.get(i) {
                    if d.is_ascii_digit() {
                        i += 1;
                    } else if d == '.' && !is_float {
                        is_float = true;
                        i += 1;
                    } else {
                        break;
                    }
                }
                let text: String = chars[start..i].iter().collect();
                if is_float {
                    out.push(Token::Float(text.parse().map_err(|_| {
                        DbError::Parse(format!("bad float literal '{text}'"))
                    })?));
                } else {
                    out.push(Token::Num(text.parse().map_err(|_| {
                        DbError::Parse(format!("bad integer literal '{text}'"))
                    })?));
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while chars
                    .get(i)
                    .is_some_and(|c| c.is_alphanumeric() || *c == '_')
                {
                    i += 1;
                }
                out.push(Token::Ident(chars[start..i].iter().collect()));
            }
            other => return Err(DbError::Parse(format!("unexpected character '{other}'"))),
        }
    }
    Ok(out)
}

struct Cursor {
    tokens: Vec<Token>,
    pos: usize,
}

impl Cursor {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek_keyword(&self) -> Option<String> {
        match self.peek() {
            Some(Token::Ident(s)) => Some(s.to_ascii_lowercase()),
            _ => None,
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if let Some(Token::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), DbError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(DbError::Parse(format!(
                "expected '{kw}', found {:?}",
                self.peek()
            )))
        }
    }

    fn eat_symbol(&mut self, sym: &str) -> bool {
        if let Some(Token::Symbol(s)) = self.peek() {
            if s == sym {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_symbol(&mut self, sym: &str) -> Result<(), DbError> {
        if self.eat_symbol(sym) {
            Ok(())
        } else {
            Err(DbError::Parse(format!(
                "expected '{sym}', found {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String, DbError> {
        match self.peek() {
            Some(Token::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            other => Err(DbError::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn literal(&mut self) -> Result<Lit, DbError> {
        let lit = match self.peek() {
            Some(Token::Num(n)) => Lit::Num(*n),
            Some(Token::Float(f)) => Lit::Float(*f),
            Some(Token::Str(s)) => Lit::Str(s.clone()),
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("true") => Lit::Bool(true),
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("false") => Lit::Bool(false),
            other => return Err(DbError::Parse(format!("expected literal, found {other:?}"))),
        };
        self.pos += 1;
        Ok(lit)
    }

    fn create_table(&mut self) -> Result<Statement, DbError> {
        self.expect_keyword("create")?;
        self.expect_keyword("table")?;
        let name = self.ident()?;
        self.expect_symbol("(")?;
        let mut columns: Vec<(String, ColumnType)> = Vec::new();
        let mut pk_cols: Vec<String> = Vec::new();
        let mut ck_cols: Vec<String> = Vec::new();
        loop {
            if self.eat_keyword("primary") {
                self.expect_keyword("key")?;
                self.expect_symbol("(")?;
                if self.eat_symbol("(") {
                    // Composite partition key: ((a, b), c, d)
                    loop {
                        pk_cols.push(self.ident()?);
                        if !self.eat_symbol(",") {
                            break;
                        }
                    }
                    self.expect_symbol(")")?;
                } else {
                    pk_cols.push(self.ident()?);
                }
                while self.eat_symbol(",") {
                    ck_cols.push(self.ident()?);
                }
                self.expect_symbol(")")?;
            } else {
                let col = self.ident()?;
                let tname = self.ident()?;
                let ctype = ColumnType::from_cql_name(&tname)
                    .ok_or_else(|| DbError::Parse(format!("unknown type '{tname}'")))?;
                columns.push((col, ctype));
            }
            if !self.eat_symbol(",") {
                break;
            }
        }
        self.expect_symbol(")")?;
        if pk_cols.is_empty() {
            return Err(DbError::Parse("PRIMARY KEY clause required".to_owned()));
        }

        let mut builder = TableSchema::builder(&name);
        let type_of = |col: &str| -> Result<ColumnType, DbError> {
            columns
                .iter()
                .find(|(n, _)| n == col)
                .map(|(_, t)| *t)
                .ok_or_else(|| DbError::Parse(format!("key column '{col}' not declared")))
        };
        for c in &pk_cols {
            builder = builder.partition_key(c, type_of(c)?);
        }
        for c in &ck_cols {
            builder = builder.clustering_key(c, type_of(c)?);
        }
        for (c, t) in &columns {
            if !pk_cols.contains(c) && !ck_cols.contains(c) {
                builder = builder.column(c, *t);
            }
        }
        Ok(Statement::CreateTable(
            builder.build().map_err(|e| DbError::Parse(e.to_string()))?,
        ))
    }

    fn insert(&mut self) -> Result<Statement, DbError> {
        self.expect_keyword("insert")?;
        self.expect_keyword("into")?;
        let table = self.ident()?;
        self.expect_symbol("(")?;
        let mut cols = Vec::new();
        loop {
            cols.push(self.ident()?);
            if !self.eat_symbol(",") {
                break;
            }
        }
        self.expect_symbol(")")?;
        self.expect_keyword("values")?;
        self.expect_symbol("(")?;
        let mut lits = Vec::new();
        loop {
            lits.push(self.literal()?);
            if !self.eat_symbol(",") {
                break;
            }
        }
        self.expect_symbol(")")?;
        if cols.len() != lits.len() {
            return Err(DbError::Parse(format!(
                "{} columns but {} values",
                cols.len(),
                lits.len()
            )));
        }
        Ok(Statement::Insert {
            table,
            values: cols.into_iter().zip(lits).collect(),
        })
    }

    fn predicates(&mut self) -> Result<Vec<Predicate>, DbError> {
        let mut preds = Vec::new();
        loop {
            let column = self.ident()?;
            let op = match self.peek() {
                Some(Token::Symbol(s)) => match s.as_str() {
                    "=" => CmpOp::Eq,
                    "<" => CmpOp::Lt,
                    "<=" => CmpOp::Le,
                    ">" => CmpOp::Gt,
                    ">=" => CmpOp::Ge,
                    other => return Err(DbError::Parse(format!("unsupported operator '{other}'"))),
                },
                other => {
                    return Err(DbError::Parse(format!(
                        "expected operator, found {other:?}"
                    )))
                }
            };
            self.pos += 1;
            let value = self.literal()?;
            preds.push(Predicate { column, op, value });
            if !self.eat_keyword("and") {
                break;
            }
        }
        Ok(preds)
    }

    fn select(&mut self) -> Result<Statement, DbError> {
        self.expect_keyword("select")?;
        let columns = if self.eat_symbol("*") {
            None
        } else {
            let mut cols = vec![self.ident()?];
            while self.eat_symbol(",") {
                cols.push(self.ident()?);
            }
            Some(cols)
        };
        self.expect_keyword("from")?;
        let table = self.ident()?;
        let predicates = if self.eat_keyword("where") {
            self.predicates()?
        } else {
            Vec::new()
        };
        let mut descending = false;
        if self.eat_keyword("order") {
            self.expect_keyword("by")?;
            let _col = self.ident()?; // the first clustering column
            if self.eat_keyword("desc") {
                descending = true;
            } else {
                self.eat_keyword("asc");
            }
        }
        let limit = if self.eat_keyword("limit") {
            match self.peek() {
                Some(Token::Num(n)) if *n > 0 => {
                    let n = *n as usize;
                    self.pos += 1;
                    Some(n)
                }
                other => {
                    return Err(DbError::Parse(format!(
                        "LIMIT needs a positive integer, found {other:?}"
                    )))
                }
            }
        } else {
            None
        };
        Ok(Statement::Select(SelectStatement {
            table,
            columns,
            predicates,
            limit,
            descending,
        }))
    }

    fn delete(&mut self) -> Result<Statement, DbError> {
        self.expect_keyword("delete")?;
        self.expect_keyword("from")?;
        let table = self.ident()?;
        self.expect_keyword("where")?;
        let predicates = self.predicates()?;
        Ok(Statement::Delete { table, predicates })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_create_table_with_composite_pk() {
        let stmt = parse_statement(
            "CREATE TABLE event_by_time (hour bigint, type text, ts timestamp, \
             source text, amount int, PRIMARY KEY ((hour, type), ts));",
        )
        .unwrap();
        let Statement::CreateTable(schema) = stmt else {
            panic!("not a create");
        };
        assert_eq!(&*schema.name, "event_by_time");
        assert_eq!(schema.partition_key.len(), 2);
        assert_eq!(schema.clustering_key.len(), 1);
        assert_eq!(schema.columns.len(), 2);
    }

    #[test]
    fn parses_create_table_simple_pk() {
        let stmt = parse_statement("create table t (a int, b text, primary key (a, b))").unwrap();
        let Statement::CreateTable(schema) = stmt else {
            panic!();
        };
        assert_eq!(schema.partition_key.len(), 1);
        assert_eq!(schema.clustering_key.len(), 1);
        assert!(schema.columns.is_empty());
    }

    #[test]
    fn parses_insert() {
        let stmt = parse_statement(
            "INSERT INTO t (hour, type, ts, note) VALUES (417000, 'MCE', 1501200000123, 'it''s')",
        )
        .unwrap();
        let Statement::Insert { table, values } = stmt else {
            panic!();
        };
        assert_eq!(table, "t");
        assert_eq!(values[0], ("hour".to_owned(), Lit::Num(417_000)));
        assert_eq!(values[1], ("type".to_owned(), Lit::Str("MCE".to_owned())));
        assert_eq!(values[3], ("note".to_owned(), Lit::Str("it's".to_owned())));
    }

    #[test]
    fn parses_select_with_range_order_limit() {
        let stmt = parse_statement(
            "SELECT * FROM event_by_time WHERE hour = 417000 AND type = 'MCE' \
             AND ts >= 100 AND ts < 200 ORDER BY ts DESC LIMIT 50",
        )
        .unwrap();
        let Statement::Select(sel) = stmt else {
            panic!()
        };
        assert_eq!(sel.predicates.len(), 4);
        assert_eq!(sel.predicates[2].op, CmpOp::Ge);
        assert_eq!(sel.predicates[3].op, CmpOp::Lt);
        assert!(sel.descending);
        assert_eq!(sel.limit, Some(50));
    }

    #[test]
    fn parses_select_without_where() {
        let stmt = parse_statement("select * from t").unwrap();
        let Statement::Select(sel) = stmt else {
            panic!()
        };
        assert!(sel.predicates.is_empty());
        assert!(!sel.descending);
        assert_eq!(sel.limit, None);
        assert_eq!(sel.columns, None);
    }

    #[test]
    fn parses_column_projection() {
        let stmt = parse_statement("SELECT source, amount FROM t WHERE a = 1").unwrap();
        let Statement::Select(sel) = stmt else {
            panic!()
        };
        assert_eq!(
            sel.columns,
            Some(vec!["source".to_owned(), "amount".to_owned()])
        );
    }

    #[test]
    fn parses_delete() {
        let stmt = parse_statement("DELETE FROM t WHERE a = 1 AND b = 'x' AND ts = 5").unwrap();
        let Statement::Delete { predicates, .. } = stmt else {
            panic!()
        };
        assert_eq!(predicates.len(), 3);
    }

    #[test]
    fn negative_and_float_literals() {
        let stmt = parse_statement("INSERT INTO t (a, b) VALUES (-5, 2.75)").unwrap();
        let Statement::Insert { values, .. } = stmt else {
            panic!()
        };
        assert_eq!(values[0].1, Lit::Num(-5));
        assert_eq!(values[1].1, Lit::Float(2.75));
    }

    #[test]
    fn boolean_literals() {
        let stmt = parse_statement("INSERT INTO t (a) VALUES (true)").unwrap();
        let Statement::Insert { values, .. } = stmt else {
            panic!()
        };
        assert_eq!(values[0].1, Lit::Bool(true));
    }

    #[test]
    fn rejects_malformed_statements() {
        for bad in [
            "",
            "DROP TABLE t",
            "SELECT FROM t",
            "INSERT INTO t (a) VALUES (1, 2)",
            "CREATE TABLE t (a int)",
            "CREATE TABLE t (a int, PRIMARY KEY (b))",
            "SELECT * FROM t WHERE a ! 1",
            "SELECT * FROM t LIMIT 0",
            "SELECT * FROM t LIMIT -3",
            "INSERT INTO t (a) VALUES ('unterminated)",
            "SELECT * FROM t extra garbage",
        ] {
            assert!(parse_statement(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert!(parse_statement("select * from t where A = 1 and B = 2 limit 5").is_ok());
        assert!(parse_statement("SeLeCt * FrOm t").is_ok());
    }
}
