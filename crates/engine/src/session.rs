//! A session's state — catalog + database + executor options — and the
//! read-only SQL helpers over it.
//!
//! `Session` runs queries; [`table_from_ddl`], [`literal_rows`],
//! [`matched_rows`] and [`update_deltas`] resolve the parts of a DDL or DML
//! statement that need the catalog or the data. It neither applies a
//! statement nor rewrites a query: the `sumtab` facade resolves each
//! statement to one change record and applies it (`SummarySession::apply`,
//! the only mutator), and the matcher does the rewriting.

use crate::db::{Database, Row};
use crate::error::SumtabError;
use crate::exec::{execute_with, ExecOptions};
use sumtab_catalog::{Catalog, Column, Table, Value};
use sumtab_parser::{CreateTable, Expr, Query, SelectItem, TableRef};
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

/// Catalog + data + executor options: the state a front end holds.
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
        match self.run_query(&q)? {
            StatementResult::Rows(h, r) => Ok((h, r)),
            other => Err(SumtabError::Unsupported {
                detail: format!("query statement produced a non-row result: {other:?}"),
            }),
        }
    }
}

/// The schema a `CREATE TABLE` statement declares. Public so the front end
/// that resolves DDL to a logged [`Table`] builds it in one place.
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
/// the front end that routes inserts through summary-table maintenance
/// resolves literals in one place.
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
    fn errors_are_reported() {
        let mut s = Session::new();
        assert!(s.query("select a from nope").is_err());
    }
}
