//! # sumtab-engine
//!
//! An in-memory SQL execution engine that evaluates QGM graphs directly.
//!
//! The paper's measurements ran inside DB2; this engine is the substitute
//! substrate that lets the reproduction (a) check that a rewritten query is
//! semantically equivalent to the original (multiset-identical results), and
//! (b) measure the relative cost of original vs rewritten queries, which is
//! what drives the paper's "orders of magnitude" claim.
//!
//! Design: one executor and one reference over one plan shape. Each box
//! produces a `Vec<Row>`. SELECT boxes plan a left-deep join order and use
//! hash joins for equi-join conjuncts (nested loops otherwise); GROUP BY
//! boxes use hash aggregation, evaluating multidimensional grouping sets
//! one cuboid at a time over the same input (Section 5 semantics, Figure
//! 12). The executor ([`execute`]) is morsel-parallel and columnar: base
//! tables are scanned through cached [`ColumnarTable`] snapshots, scalar
//! expressions are compiled once per box into flat [`Program`] op slices,
//! every SELECT box runs one fused pipeline (driver morsels stream through
//! the join levels straight into output rows; a single scan is the
//! one-level case), and work fans across a scoped thread pool with
//! deterministic slot-merge. The row-at-a-time interpreter survives as
//! [`execute_serial`], the differential-testing oracle.

#![forbid(unsafe_code)]

mod agg;
pub mod csv;
pub mod db;
pub mod error;
pub mod eval;
pub mod exec;
pub mod materialize;
pub mod plancache;
pub mod program;
pub mod session;

pub use csv::{load_csv, to_csv};
pub use db::{ColumnVec, ColumnarTable, Database, DbError, Row};
pub use error::SumtabError;
pub use eval::{eval_expr, like_match, Env, EvalError};
pub use exec::{
    default_pool_size, execute, execute_serial, execute_with, ExecError, ExecOptions,
    DEFAULT_MORSEL_SIZE,
};
pub use materialize::{backing_table_schema, materialize};
pub use plancache::{CacheStats, PlanCache};
pub use program::{Cell, Program, Resolved, Scratch};
pub use session::{matched_rows, update_deltas, Session};

use sumtab_catalog::Value;

/// Sort rows with the deterministic `Value` total order; useful for
/// order-insensitive result comparison in tests and tools.
pub fn sort_rows(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

/// Cell equality across plans: doubles within a relative `1e-9` (plans sum
/// in different orders), everything else exactly.
pub fn cell_approx_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Double(x), Value::Double(y)) => {
            (x - y).abs() <= x.abs().max(y.abs()).max(1.0) * 1e-9
        }
        _ => a == b,
    }
}

/// Row-list equality under [`cell_approx_eq`], arity included; sort both
/// sides first ([`sort_rows`]) to compare multisets.
pub fn rows_approx_eq(a: &[Row], b: &[Row]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.len() == rb.len() && ra.iter().zip(rb).all(|(x, y)| cell_approx_eq(x, y))
        })
}

/// Render rows as an ASCII table with the given header. Used by the examples
/// and the paper-experiments harness.
pub fn format_table(header: &[String], rows: &[Row]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(|v| v.to_string()).collect())
        .collect();
    for r in &rendered {
        for (i, cell) in r.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let sep = |out: &mut String| {
        out.push('+');
        for w in &widths {
            out.push_str(&"-".repeat(w + 2));
            out.push('+');
        }
        out.push('\n');
    };
    sep(&mut out);
    out.push('|');
    for (h, w) in header.iter().zip(&widths) {
        out.push_str(&format!(" {h:<w$} |"));
    }
    out.push('\n');
    sep(&mut out);
    for r in &rendered {
        out.push('|');
        for (c, w) in r.iter().zip(&widths) {
            out.push_str(&format!(" {c:<w$} |"));
        }
        out.push('\n');
    }
    sep(&mut out);
    out
}
