//! A convenience session: catalog + database + SQL entry points.
//!
//! `Session` executes DDL (`CREATE TABLE`, `CREATE SUMMARY TABLE`,
//! `ALTER TABLE ... ADD FOREIGN KEY`), `INSERT ... VALUES`, and queries. It
//! does **not** perform AST rewriting — that is the matcher's job; the
//! `sumtab` facade crate combines both.

use crate::db::{Database, Row};
use crate::error::SumtabError;
use crate::exec::{execute_with, ExecOptions};
use crate::materialize::materialize_with;
use sumtab_catalog::{Catalog, Column, SummaryTableDef, Table, Value};
use sumtab_parser::{
    parse_statements, render::render_query, CreateTable, Expr, Query, SelectItem, Statement,
    TableRef,
};
use sumtab_qgm::build_query;

/// Result of running one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum StatementResult {
    /// Query output: header names and rows.
    Rows(Vec<String>, Vec<Row>),
    /// Rows affected (INSERT).
    Count(usize),
    /// DDL success.
    Done,
}

fn err(e: impl Into<SumtabError>) -> SumtabError {
    e.into()
}

/// Catalog + data + SQL front end.
#[derive(Debug, Clone, Default)]
pub struct Session {
    /// Schema and constraints.
    pub catalog: Catalog,
    /// Table data.
    pub db: Database,
    /// Executor pool/morsel configuration used for queries and
    /// summary-table materialization.
    pub exec: ExecOptions,
}

impl Session {
    /// An empty session.
    pub fn new() -> Session {
        Session::default()
    }

    /// A session over an existing catalog.
    pub fn with_catalog(catalog: Catalog) -> Session {
        Session {
            catalog,
            db: Database::new(),
            exec: ExecOptions::default(),
        }
    }

    /// Run a semicolon-separated SQL script; returns one result per
    /// statement.
    pub fn run_script(&mut self, sql: &str) -> Result<Vec<StatementResult>, SumtabError> {
        let stmts = parse_statements(sql).map_err(err)?;
        stmts.iter().map(|s| self.run_statement(s)).collect()
    }

    /// Run a single parsed statement.
    pub fn run_statement(&mut self, stmt: &Statement) -> Result<StatementResult, SumtabError> {
        match stmt {
            Statement::Query(q) => self.run_query(q),
            Statement::CreateTable(ct) => {
                self.catalog.add_table(table_from_ddl(ct)?).map_err(err)?;
                Ok(StatementResult::Done)
            }
            Statement::CreateSummaryTable { name, query } => {
                let g = build_query(query, &self.catalog).map_err(err)?;
                let backing = materialize_with(name, &g, &self.catalog, &mut self.db, &self.exec)
                    .map_err(err)?;
                self.catalog
                    .add_summary_table(
                        SummaryTableDef {
                            name: name.clone(),
                            query_sql: render_query(query),
                        },
                        backing,
                    )
                    .map_err(err)?;
                Ok(StatementResult::Done)
            }
            Statement::AddForeignKey {
                child_table,
                columns,
                parent_table,
            } => {
                let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
                self.catalog
                    .add_foreign_key(child_table, &cols, parent_table)
                    .map_err(err)?;
                Ok(StatementResult::Done)
            }
            Statement::Insert { table, rows } => {
                let values = literal_rows(rows)?;
                let n = self.db.insert(&self.catalog, table, values).map_err(err)?;
                Ok(StatementResult::Count(n))
            }
            Statement::Delete {
                table,
                where_clause,
            } => {
                let victims = matched_rows(
                    &self.catalog,
                    &self.db,
                    &self.exec,
                    table,
                    where_clause.as_ref(),
                )?;
                if victims.is_empty() {
                    return Ok(StatementResult::Count(0));
                }
                let n = self.db.remove_rows(table, &victims);
                Ok(StatementResult::Count(n))
            }
            Statement::Update {
                table,
                sets,
                where_clause,
            } => {
                let (old, new) = update_deltas(
                    &self.catalog,
                    &self.db,
                    &self.exec,
                    table,
                    sets,
                    where_clause.as_ref(),
                )?;
                if old.is_empty() {
                    return Ok(StatementResult::Count(0));
                }
                let n = self
                    .db
                    .replace_rows(&self.catalog, table, &old, new)
                    .map_err(err)?;
                Ok(StatementResult::Count(n))
            }
        }
    }

    /// Execute a parsed SELECT. Read-only, so front ends that resolve a
    /// statement before applying it can run queries through `&self`.
    pub fn run_query(&self, q: &Query) -> Result<StatementResult, SumtabError> {
        let g = build_query(q, &self.catalog).map_err(err)?;
        let header = g
            .boxed(g.root)
            .outputs
            .iter()
            .map(|c| c.name.clone())
            .collect();
        let rows = execute_with(&g, &self.db, &self.exec).map_err(err)?;
        Ok(StatementResult::Rows(header, rows))
    }

    /// Run a single SELECT and return `(header, rows)`.
    pub fn query(&mut self, sql: &str) -> Result<(Vec<String>, Vec<Row>), SumtabError> {
        let q = sumtab_parser::parse_query(sql).map_err(|e| SumtabError::parse(sql, e))?;
        match self.run_statement(&Statement::Query(Box::new(q)))? {
            StatementResult::Rows(h, r) => Ok((h, r)),
            other => Err(SumtabError::Unsupported {
                detail: format!("query statement produced a non-row result: {other:?}"),
            }),
        }
    }
}

/// The schema a `CREATE TABLE` statement declares. Public so front ends that
/// log DDL as a [`Table`] build it exactly as [`Session::run_statement`] does.
pub fn table_from_ddl(ct: &CreateTable) -> Result<Table, SumtabError> {
    let cols = ct
        .columns
        .iter()
        .map(|c| {
            if c.nullable {
                Column::nullable(&c.name, c.ty)
            } else {
                Column::new(&c.name, c.ty)
            }
        })
        .collect();
    let table = Table::new(&ct.name, cols);
    if ct.primary_key.is_empty() {
        return Ok(table);
    }
    let keys: Vec<&str> = ct.primary_key.iter().map(String::as_str).collect();
    table.with_primary_key(&keys).map_err(err)
}

/// The multiset of rows in `table` matched by `where_clause`, computed by
/// executing `SELECT * FROM table [WHERE ..]` through the query pipeline so
/// the predicate gets full three-valued-logic semantics (partitioning the
/// table with `NOT p` would misclassify NULL verdicts). Public so front ends
/// that route DELETEs through summary maintenance evaluate the predicate
/// exactly once against a consistent snapshot.
pub fn matched_rows(
    catalog: &Catalog,
    db: &Database,
    exec: &ExecOptions,
    table: &str,
    where_clause: Option<&Expr>,
) -> Result<Vec<Row>, SumtabError> {
    let q = Query {
        distinct: false,
        select: vec![SelectItem::Wildcard],
        from: vec![TableRef::Named {
            name: table.to_string(),
            alias: None,
        }],
        where_clause: where_clause.cloned(),
        group_by: Vec::new(),
        having: None,
        order_by: Vec::new(),
        limit: None,
    };
    let g = build_query(&q, catalog).map_err(err)?;
    execute_with(&g, db, exec).map_err(err)
}

/// The `(old rows, new rows)` delta of an UPDATE, computed in one pass:
/// `SELECT *, set-expr.. FROM table [WHERE ..]` yields each matched row
/// alongside its replacement values (SET expressions read the old row), so
/// the mapping is well-defined even for duplicate rows. Replacement rows are
/// validated against the schema by the caller's apply step.
pub fn update_deltas(
    catalog: &Catalog,
    db: &Database,
    exec: &ExecOptions,
    table: &str,
    sets: &[(String, Expr)],
    where_clause: Option<&Expr>,
) -> Result<(Vec<Row>, Vec<Row>), SumtabError> {
    let t = catalog
        .table(table)
        .ok_or_else(|| SumtabError::Unsupported {
            detail: format!("UPDATE target `{table}` is not a known table"),
        })?;
    let ncols = t.columns.len();
    let mut ords = Vec::with_capacity(sets.len());
    for (name, _) in sets {
        let i = t
            .column_index(name)
            .ok_or_else(|| SumtabError::Unsupported {
                detail: format!("UPDATE {table}: unknown column `{name}`"),
            })?;
        if ords.contains(&i) {
            return Err(SumtabError::Unsupported {
                detail: format!("UPDATE {table}: column `{name}` assigned twice"),
            });
        }
        ords.push(i);
    }
    let mut select = vec![SelectItem::Wildcard];
    for (i, (_, e)) in sets.iter().enumerate() {
        select.push(SelectItem::Expr {
            expr: e.clone(),
            alias: Some(format!("__set{i}")),
        });
    }
    let q = Query {
        distinct: false,
        select,
        from: vec![TableRef::Named {
            name: table.to_string(),
            alias: None,
        }],
        where_clause: where_clause.cloned(),
        group_by: Vec::new(),
        having: None,
        order_by: Vec::new(),
        limit: None,
    };
    let g = build_query(&q, catalog).map_err(err)?;
    let rows = execute_with(&g, db, exec).map_err(err)?;
    let mut old = Vec::with_capacity(rows.len());
    let mut new = Vec::with_capacity(rows.len());
    for mut r in rows {
        let extras = r.split_off(ncols);
        let mut n = r.clone();
        for (slot, v) in ords.iter().zip(extras) {
            n[*slot] = v;
        }
        old.push(r);
        new.push(n);
    }
    Ok((old, new))
}

/// Convert parsed `INSERT ... VALUES` rows into concrete values. Public so
/// front ends that route inserts through summary-table maintenance share
/// the same literal handling as [`Session::run_statement`].
pub fn literal_rows(rows: &[Vec<sumtab_parser::Expr>]) -> Result<Vec<Row>, SumtabError> {
    rows.iter()
        .map(|row| row.iter().map(literal_value).collect())
        .collect()
}

/// Evaluate a literal (possibly negated) INSERT value.
fn literal_value(e: &sumtab_parser::Expr) -> Result<Value, SumtabError> {
    match e {
        sumtab_parser::Expr::Lit(v) => Ok(v.clone()),
        other => Err(SumtabError::Unsupported {
            detail: format!("INSERT values must be literals, got {other:?}"),
        }),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests assert on fixed inputs
mod tests {
    use super::*;

    #[test]
    fn end_to_end_script() {
        let mut s = Session::new();
        let results = s
            .run_script(
                "create table t (a int not null, b varchar, primary key (a));\
                 insert into t values (1, 'x'), (2, 'y'), (3, 'x');\
                 select b, count(*) as n from t group by b;",
            )
            .unwrap();
        assert_eq!(results[0], StatementResult::Done);
        assert_eq!(results[1], StatementResult::Count(3));
        match &results[2] {
            StatementResult::Rows(header, rows) => {
                assert_eq!(header, &["b", "n"]);
                let mut rows = rows.clone();
                rows.sort();
                assert_eq!(
                    rows,
                    vec![
                        vec![Value::from("x"), Value::Int(2)],
                        vec![Value::from("y"), Value::Int(1)],
                    ]
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn summary_table_ddl_materializes() {
        let mut s = Session::new();
        s.run_script(
            "create table t (a int not null, v int not null);\
             insert into t values (1, 10), (1, 20), (2, 5);\
             create summary table st as (select a, sum(v) as sv from t group by a);",
        )
        .unwrap();
        assert!(s.catalog.is_summary_table("st"));
        assert_eq!(s.db.row_count("st"), 2);
        // The backing table is queryable like any base table.
        let (_, rows) = s.query("select sv from st where a = 1").unwrap();
        assert_eq!(rows, vec![vec![Value::Int(30)]]);
    }

    #[test]
    fn fk_ddl() {
        let mut s = Session::new();
        s.run_script(
            "create table p (id int not null, primary key (id));\
             create table c (fid int not null);\
             alter table c add foreign key (fid) references p;",
        )
        .unwrap();
        assert_eq!(s.catalog.foreign_keys().len(), 1);
    }

    #[test]
    fn errors_are_reported() {
        let mut s = Session::new();
        assert!(s.run_script("select a from nope").is_err());
        assert!(s
            .run_script("create table t (a int); insert into t values (1, 2)")
            .is_err());
    }
}
