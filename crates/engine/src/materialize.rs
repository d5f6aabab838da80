//! Summary-table materialization.
//!
//! Executes an AST's defining query and stores the result as a backing base
//! table whose schema is derived by type inference over the definition
//! graph. The matcher later rewrites queries to scan this backing table.

use crate::db::Database;
use crate::exec::{execute, ExecError};
use sumtab_catalog::{Catalog, Column, SqlType, Table};
use sumtab_qgm::{backing_column_names, infer_output_types, QgmGraph};

/// Errors raised while materializing a summary table.
#[derive(Debug, Clone, PartialEq)]
pub enum MaterializeError {
    /// A definition output column's type could not be inferred.
    UnknownColumnType(String),
    /// Execution of the definition failed.
    Exec(ExecError),
}

impl std::fmt::Display for MaterializeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MaterializeError::UnknownColumnType(c) => {
                write!(f, "cannot infer type of output column `{c}`")
            }
            MaterializeError::Exec(e) => write!(f, "materialization failed: {e}"),
        }
    }
}

impl std::error::Error for MaterializeError {}

impl From<ExecError> for MaterializeError {
    fn from(e: ExecError) -> Self {
        MaterializeError::Exec(e)
    }
}

/// Derive the backing-table schema for a summary-table definition: one
/// column per root output, names uniquified, types from inference.
pub fn backing_table_schema(
    name: &str,
    g: &QgmGraph,
    catalog: &Catalog,
) -> Result<Table, MaterializeError> {
    let metas = infer_output_types(g, catalog);
    let root_metas = &metas[&g.root];
    let columns = backing_column_names(g)
        .iter()
        .zip(root_metas)
        .map(|(cname, m)| {
            let ty = m.ty.unwrap_or(SqlType::Varchar);
            if m.nullable {
                Column::nullable(cname, ty)
            } else {
                Column::new(cname, ty)
            }
        })
        .collect();
    Ok(Table::new(name, columns))
}

/// Execute the definition and store the result in `db` under `name`;
/// returns the backing-table schema (not yet registered in the catalog —
/// the caller owns catalog registration).
pub fn materialize(
    name: &str,
    g: &QgmGraph,
    catalog: &Catalog,
    db: &mut Database,
) -> Result<Table, MaterializeError> {
    let schema = backing_table_schema(name, g, catalog)?;
    let rows = execute(g, db)?;
    db.put_table(name, rows);
    Ok(schema)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests assert on fixed inputs
mod tests {
    use super::*;
    use sumtab_catalog::Value;
    use sumtab_parser::parse_query;
    use sumtab_qgm::build_query;

    #[test]
    fn schema_derivation_and_materialization() {
        let cat = Catalog::credit_card_sample();
        let mut db = Database::new();
        let d = |s: &str| Value::Date(sumtab_catalog::Date::parse(s).unwrap());
        db.insert(
            &cat,
            "trans",
            vec![
                vec![
                    1.into(),
                    100.into(),
                    1.into(),
                    10.into(),
                    d("1990-01-03"),
                    2.into(),
                    Value::Double(50.0),
                    Value::Double(0.0),
                ],
                vec![
                    2.into(),
                    100.into(),
                    1.into(),
                    10.into(),
                    d("1991-02-01"),
                    1.into(),
                    Value::Double(30.0),
                    Value::Double(0.1),
                ],
            ],
        )
        .unwrap();
        let q = parse_query(
            "select faid, flid, year(date) as year, count(*) as cnt from trans group by faid, flid, year(date)",
        )
        .unwrap();
        let g = build_query(&q, &cat).unwrap();
        let schema = materialize("ast1", &g, &cat, &mut db).unwrap();
        assert_eq!(schema.columns.len(), 4);
        assert_eq!(schema.columns[2].name, "year");
        assert_eq!(schema.columns[3].ty, SqlType::Int);
        assert!(!schema.columns[3].nullable, "COUNT(*) is non-nullable");
        assert_eq!(db.row_count("ast1"), 2);
    }

    #[test]
    fn duplicate_output_names_are_uniquified() {
        let cat = Catalog::credit_card_sample();
        let q = parse_query("select qty, qty from trans").unwrap();
        let g = build_query(&q, &cat).unwrap();
        let schema = backing_table_schema("x", &g, &cat).unwrap();
        assert_eq!(schema.columns[0].name, "qty");
        assert_eq!(schema.columns[1].name, "qty_2");
    }
}
