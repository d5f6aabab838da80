//! SQL scalar types supported by the engine.

/// The scalar type system. Deliberately small: the paper's examples and the
/// TPC-D-style workloads need integers, floating point, strings, dates, and
/// booleans only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SqlType {
    /// 64-bit signed integer (`INT`, `INTEGER`, `BIGINT`).
    Int,
    /// 64-bit IEEE float (`DOUBLE`, `FLOAT`, `REAL`, `DECIMAL` are all mapped here).
    Double,
    /// UTF-8 string (`VARCHAR`, `CHAR`, `TEXT`).
    Varchar,
    /// Calendar date (`DATE`).
    Date,
    /// Boolean (`BOOLEAN`). Produced by predicates; storable for completeness.
    Bool,
}

impl SqlType {
    /// True for types on which `+ - * /` are defined.
    fn is_numeric(self) -> bool {
        matches!(self, SqlType::Int | SqlType::Double)
    }

    /// The result type of a binary arithmetic operation between two numeric
    /// types: integer op integer stays integer, anything with a double widens.
    pub fn arith_result(self, other: SqlType) -> Option<SqlType> {
        match (self, other) {
            (SqlType::Int, SqlType::Int) => Some(SqlType::Int),
            (a, b) if a.is_numeric() && b.is_numeric() => Some(SqlType::Double),
            _ => None,
        }
    }

    /// Canonical SQL spelling, used when rendering DDL.
    fn sql_name(self) -> &'static str {
        match self {
            SqlType::Int => "INT",
            SqlType::Double => "DOUBLE",
            SqlType::Varchar => "VARCHAR",
            SqlType::Date => "DATE",
            SqlType::Bool => "BOOLEAN",
        }
    }

    /// Parse a SQL type name (case-insensitive), accepting common synonyms.
    pub fn from_sql_name(name: &str) -> Option<SqlType> {
        match name.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" | "BIGINT" | "SMALLINT" => Some(SqlType::Int),
            "DOUBLE" | "FLOAT" | "REAL" | "DECIMAL" | "NUMERIC" => Some(SqlType::Double),
            "VARCHAR" | "CHAR" | "TEXT" | "STRING" => Some(SqlType::Varchar),
            "DATE" => Some(SqlType::Date),
            "BOOLEAN" | "BOOL" => Some(SqlType::Bool),
            _ => None,
        }
    }
}

impl std::fmt::Display for SqlType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.sql_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_classification() {
        assert!(SqlType::Int.is_numeric());
        assert!(SqlType::Double.is_numeric());
        assert!(!SqlType::Varchar.is_numeric());
        assert!(!SqlType::Date.is_numeric());
        assert!(!SqlType::Bool.is_numeric());
    }

    #[test]
    fn arithmetic_widening() {
        assert_eq!(SqlType::Int.arith_result(SqlType::Int), Some(SqlType::Int));
        assert_eq!(
            SqlType::Int.arith_result(SqlType::Double),
            Some(SqlType::Double)
        );
        assert_eq!(
            SqlType::Double.arith_result(SqlType::Int),
            Some(SqlType::Double)
        );
        assert_eq!(SqlType::Varchar.arith_result(SqlType::Int), None);
    }

    #[test]
    fn name_round_trip() {
        for t in [
            SqlType::Int,
            SqlType::Double,
            SqlType::Varchar,
            SqlType::Date,
            SqlType::Bool,
        ] {
            assert_eq!(SqlType::from_sql_name(t.sql_name()), Some(t));
        }
        assert_eq!(SqlType::from_sql_name("integer"), Some(SqlType::Int));
        assert_eq!(SqlType::from_sql_name("bogus"), None);
    }
}
