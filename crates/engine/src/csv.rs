//! Minimal CSV import/export for loading external datasets into a session.
//!
//! Values are parsed according to the catalog schema of the target table:
//! empty fields become NULL (when the column is nullable), integers/doubles/
//! dates parse by type, everything else is taken as a string. Quoting
//! follows RFC 4180 (double quotes, `""` escapes).

use crate::db::{Database, Row};
use sumtab_catalog::{Catalog, Date, SqlType, Value};

/// CSV loading errors.
#[derive(Debug, Clone, PartialEq)]
pub struct CsvError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable message.
    pub message: String,
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CSV error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CsvError {}

/// Split one CSV record into fields (RFC 4180 quoting).
fn split_record(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' if cur.is_empty() => in_quotes = true,
            ',' if !in_quotes => fields.push(std::mem::take(&mut cur)),
            c => cur.push(c),
        }
    }
    fields.push(cur);
    fields
}

/// Parse CSV text (optionally with a header row naming a column permutation)
/// into rows conforming to `table`'s schema, and insert them.
/// Returns the number of rows loaded.
pub fn load_csv(
    catalog: &Catalog,
    db: &mut Database,
    table: &str,
    csv: &str,
    has_header: bool,
) -> Result<usize, CsvError> {
    let schema = catalog.table(table).ok_or_else(|| CsvError {
        line: 0,
        message: format!("unknown table `{table}`"),
    })?;
    let mut lines = csv
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    // Column permutation from the header, or identity.
    let perm: Vec<usize> = if has_header {
        let (lno, header) = lines.next().ok_or(CsvError {
            line: 1,
            message: "missing header".into(),
        })?;
        split_record(header)
            .iter()
            .map(|name| {
                schema.column_index(name.trim()).ok_or(CsvError {
                    line: lno + 1,
                    message: format!("unknown column `{}` in header", name.trim()),
                })
            })
            .collect::<Result<_, _>>()?
    } else {
        (0..schema.columns.len()).collect()
    };

    let mut rows: Vec<Row> = Vec::new();
    for (lno, line) in lines {
        let fields = split_record(line);
        if fields.len() != perm.len() {
            return Err(CsvError {
                line: lno + 1,
                message: format!("expected {} fields, got {}", perm.len(), fields.len()),
            });
        }
        let mut row = vec![Value::Null; schema.columns.len()];
        for (f, &col_idx) in fields.iter().zip(&perm) {
            let col = &schema.columns[col_idx];
            row[col_idx] = parse_field(f, col.ty).map_err(|m| CsvError {
                line: lno + 1,
                message: format!("column `{}`: {m}", col.name),
            })?;
        }
        rows.push(row);
    }
    let n = rows.len();
    db.insert(catalog, table, rows).map_err(|e| CsvError {
        line: 0,
        message: e.to_string(),
    })?;
    Ok(n)
}

fn parse_field(raw: &str, ty: SqlType) -> Result<Value, String> {
    let s = raw.trim();
    if s.is_empty() {
        return Ok(Value::Null);
    }
    match ty {
        SqlType::Int => s
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| format!("`{s}` is not an integer")),
        SqlType::Double => s
            .parse::<f64>()
            .map(Value::Double)
            .map_err(|_| format!("`{s}` is not a number")),
        SqlType::Date => Date::parse(s)
            .map(Value::Date)
            .ok_or(format!("`{s}` is not a date (yyyy-mm-dd)")),
        SqlType::Bool => match s.to_ascii_lowercase().as_str() {
            "true" | "t" | "1" => Ok(Value::Bool(true)),
            "false" | "f" | "0" => Ok(Value::Bool(false)),
            _ => Err(format!("`{s}` is not a boolean")),
        },
        SqlType::Varchar => Ok(Value::Str(s.to_string())),
    }
}

/// Render rows as CSV with a header.
pub fn to_csv(header: &[String], rows: &[Row]) -> String {
    let quote = |s: &str| {
        if s.contains(',') || s.contains('"') || s.contains('\n') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    };
    let mut out = header
        .iter()
        .map(|h| quote(h))
        .collect::<Vec<_>>()
        .join(",");
    out.push('\n');
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .map(|v| match v {
                Value::Null => String::new(),
                Value::Str(s) => quote(s),
                Value::Date(d) => d.to_string(),
                other => other.to_string(),
            })
            .collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests assert on fixed inputs
mod tests {
    use super::*;
    use sumtab_catalog::{Column, Table};

    fn cat() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(Table::new(
            "m",
            vec![
                Column::new("id", SqlType::Int),
                Column::nullable("note", SqlType::Varchar),
                Column::new("amount", SqlType::Double),
                Column::new("day", SqlType::Date),
            ],
        ))
        .unwrap();
        c
    }

    #[test]
    fn load_without_header() {
        let c = cat();
        let mut db = Database::new();
        let n = load_csv(
            &c,
            &mut db,
            "m",
            "1,hello,2.5,1999-01-02\n2,,3.0,1999-02-03\n",
            false,
        )
        .unwrap();
        assert_eq!(n, 2);
        assert_eq!(db.rows("m")[1][1], Value::Null, "empty nullable → NULL");
        assert_eq!(
            db.rows("m")[0][3],
            Value::Date(Date::parse("1999-01-02").unwrap())
        );
    }

    #[test]
    fn header_permutes_columns() {
        let c = cat();
        let mut db = Database::new();
        load_csv(
            &c,
            &mut db,
            "m",
            "amount,id,day,note\n9.5,7,2000-12-31,xyz\n",
            true,
        )
        .unwrap();
        let row = &db.rows("m")[0];
        assert_eq!(row[0], Value::Int(7));
        assert_eq!(row[2], Value::Double(9.5));
        assert_eq!(row[1], Value::from("xyz"));
    }

    #[test]
    fn quoting_rules() {
        assert_eq!(
            split_record(r#"a,"b,c","d""e",f"#),
            vec!["a", "b,c", "d\"e", "f"]
        );
        assert_eq!(split_record(""), vec![""]);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let c = cat();
        let mut db = Database::new();
        let err = load_csv(
            &c,
            &mut db,
            "m",
            "1,x,2.5,1999-01-02\nbad,y,1,2000-01-01\n",
            false,
        )
        .unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("not an integer"), "{err}");
        let err = load_csv(&c, &mut db, "m", "1,x\n", false).unwrap_err();
        assert!(err.message.contains("expected 4 fields"), "{err}");
        let err = load_csv(&c, &mut db, "nope", "", false).unwrap_err();
        assert!(err.message.contains("unknown table"), "{err}");
    }

    #[test]
    fn round_trip_through_to_csv() {
        let c = cat();
        let mut db = Database::new();
        load_csv(
            &c,
            &mut db,
            "m",
            "1,\"a,b\",2.5,1999-01-02\n2,,3.0,1999-02-03\n",
            false,
        )
        .unwrap();
        let header: Vec<String> = ["id", "note", "amount", "day"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let text = to_csv(&header, db.rows("m"));
        let mut db2 = Database::new();
        let n = load_csv(&c, &mut db2, "m", &text, true).unwrap();
        assert_eq!(n, 2);
        assert_eq!(db.rows("m"), db2.rows("m"));
    }
}
