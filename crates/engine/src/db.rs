//! In-memory table storage: a row store and a columnar view of it.
//!
//! `rows()` is a zero-cost slice borrow of the row store; scans in the
//! columnar executor read a [`ColumnarTable`]: typed per-column vectors
//! with a null bitmap and dictionary-encoded strings. A view is built on
//! first use ([`ColumnarTable::from_rows`], the only from-scratch builder)
//! and from then on a row-level mutation (`mutate`, and `insert`,
//! `remove_rows`, `replace_rows`, which validate and call it) changes both
//! representations with the same positional operations, so row *i* of
//! `rows()` is row *i* of `columnar()` and the view survives DML — on a
//! base table and on a summary's backing table alike. Replacing a table
//! wholesale (`put_table`, `drop_table`, `restore_state`) drops its view.

use crate::program::Cell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use sumtab_catalog::{Catalog, CatalogError, Date, SqlType, Value};

/// A row of values.
pub type Row = Vec<Value>;

/// Typed storage of one column.
#[derive(Debug, Clone)]
enum ColData {
    Int(Vec<i64>),
    Double(Vec<f64>),
    Bool(Vec<bool>),
    Date(Vec<Date>),
    /// Dictionary-encoded strings: `codes[i]` indexes into `dict`, and
    /// `index` maps each dictionary string back to its code so an appended
    /// string finds (or extends) the dictionary without scanning it.
    /// Entries no row refers to any more are left in place.
    Str {
        codes: Vec<u32>,
        dict: Vec<String>,
        index: HashMap<String, u32>,
    },
    /// Fallback for mixed-type or all-NULL columns.
    Mixed(Vec<Value>),
}

/// One column: typed data plus an optional null bitmap (absent when the
/// column has no NULLs; NULL positions hold an arbitrary placeholder in
/// the typed vector).
#[derive(Debug, Clone)]
pub struct ColumnVec {
    data: ColData,
    nulls: Option<Vec<u64>>,
}

/// A borrowed, typed view of a column's storage — the raw material for
/// vectorized scan kernels. NULL positions (see
/// [`ColumnVec::null_words`]) hold placeholder values in the typed
/// variants.
#[derive(Clone, Copy)]
pub enum ColSlice<'a> {
    /// 64-bit integers.
    Int(&'a [i64]),
    /// 64-bit floats.
    Double(&'a [f64]),
    /// Booleans.
    Bool(&'a [bool]),
    /// Calendar dates.
    Date(&'a [Date]),
    /// Dictionary-encoded strings: `codes[i]` indexes into `dict`.
    Str {
        /// Per-row dictionary codes.
        codes: &'a [u32],
        /// The deduplicated string dictionary.
        dict: &'a [String],
    },
    /// Mixed-type or all-NULL fallback.
    Mixed(&'a [Value]),
}

/// Test bit `i` of an optional null bitmap (64 rows per word, bit set =
/// NULL) — the shared probe for vectorized predicate kernels and group-key
/// encoders working off [`ColumnVec::null_words`] slices.
#[inline]
pub(crate) fn null_bit(nulls: Option<&[u64]>, i: usize) -> bool {
    match nulls {
        Some(words) => words[i / 64] & (1 << (i % 64)) != 0,
        None => false,
    }
}

impl ColumnVec {
    /// Is row `i` NULL?
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        null_bit(self.nulls.as_deref(), i)
    }

    /// Borrowing view of row `i`.
    #[inline]
    pub fn cell(&self, i: usize) -> Cell<'_> {
        if self.is_null(i) {
            return Cell::Null;
        }
        match &self.data {
            ColData::Int(v) => Cell::Int(v[i]),
            ColData::Double(v) => Cell::Double(v[i]),
            ColData::Bool(v) => Cell::Bool(v[i]),
            ColData::Date(v) => Cell::Date(v[i]),
            ColData::Str { codes, dict, .. } => Cell::Str(dict[codes[i] as usize].as_str()),
            ColData::Mixed(v) => Cell::of(&v[i]),
        }
    }

    /// Owned value of row `i`.
    pub fn value(&self, i: usize) -> Value {
        self.cell(i).into_value()
    }

    /// The typed storage view, for vectorized kernels.
    pub fn slice(&self) -> ColSlice<'_> {
        match &self.data {
            ColData::Int(v) => ColSlice::Int(v),
            ColData::Double(v) => ColSlice::Double(v),
            ColData::Bool(v) => ColSlice::Bool(v),
            ColData::Date(v) => ColSlice::Date(v),
            ColData::Str { codes, dict, .. } => ColSlice::Str { codes, dict },
            ColData::Mixed(v) => ColSlice::Mixed(v),
        }
    }

    /// The null bitmap (64 rows per word, bit set = NULL), or `None` when
    /// the column has no NULLs.
    pub fn null_words(&self) -> Option<&[u64]> {
        self.nulls.as_deref()
    }

    /// The positions whose cell equals `want`, in ascending order, from one
    /// pass over the typed vector. `None` when this representation cannot
    /// answer without building a `Value` per row (a `Mixed` column, or a
    /// `want` of another type than the column's).
    fn positions_of(&self, want: &Value) -> Option<Vec<usize>> {
        fn scan<T: Copy>(v: &[T], nulls: Option<&[u64]>, hit: impl Fn(T) -> bool) -> Vec<usize> {
            (0..v.len())
                .filter(|&i| hit(v[i]) && !null_bit(nulls, i))
                .collect()
        }
        let nulls = self.nulls.as_deref();
        Some(match (&self.data, want) {
            (ColData::Int(v), Value::Int(x)) => scan(v, nulls, |y| y == *x),
            // `Value` equality on doubles is `total_cmp`: equal bits.
            (ColData::Double(v), Value::Double(x)) => {
                scan(v, nulls, |y| y.to_bits() == x.to_bits())
            }
            (ColData::Bool(v), Value::Bool(x)) => scan(v, nulls, |y| y == *x),
            (ColData::Date(v), Value::Date(x)) => scan(v, nulls, |y| y == *x),
            (ColData::Str { codes, index, .. }, Value::Str(s)) => match index.get(s) {
                Some(&k) => scan(codes, nulls, |y| y == k),
                None => Vec::new(),
            },
            _ => return None,
        })
    }

    /// Remove row `i` of a column holding `last + 1` rows by moving row
    /// `last` into its place — `Vec::swap_remove`, bitmap bit included.
    fn swap_remove(&mut self, i: usize, last: usize) {
        fn fill<T>(v: &mut Vec<T>, i: usize) {
            v.swap_remove(i);
        }
        match &mut self.data {
            ColData::Int(v) => fill(v, i),
            ColData::Double(v) => fill(v, i),
            ColData::Bool(v) => fill(v, i),
            ColData::Date(v) => fill(v, i),
            ColData::Str { codes, .. } => fill(codes, i),
            ColData::Mixed(v) => fill(v, i),
        }
        if let Some(words) = &mut self.nulls {
            let moved = words[last / 64] & (1 << (last % 64)) != 0;
            words[last / 64] &= !(1 << (last % 64));
            if i != last {
                words[i / 64] &= !(1 << (i % 64));
                words[i / 64] |= u64::from(moved) << (i % 64);
            }
            words.truncate(last.div_ceil(64));
        }
    }

    /// Append `v` as row `i` (the column's current length). Returns false,
    /// leaving the column unusable, when `v` does not fit this
    /// representation: a second type in a typed column, or a NULL where the
    /// type has no placeholder (`Date`, `Bool`). The caller then rebuilds
    /// the column from the rows.
    fn push(&mut self, v: &Value, i: usize) -> bool {
        match (&mut self.data, v) {
            (ColData::Mixed(col), v) => col.push(v.clone()),
            (ColData::Int(col), Value::Int(x)) => col.push(*x),
            (ColData::Int(col), Value::Null) => col.push(0),
            (ColData::Double(col), Value::Double(x)) => col.push(*x),
            (ColData::Double(col), Value::Null) => col.push(0.0),
            (ColData::Bool(col), Value::Bool(x)) => col.push(*x),
            (ColData::Date(col), Value::Date(x)) => col.push(*x),
            (ColData::Str { codes, dict, index }, Value::Str(s)) => {
                codes.push(intern(dict, index, s))
            }
            (ColData::Str { codes, .. }, Value::Null) => codes.push(0),
            _ => return false,
        }
        // Only typed columns carry a bitmap; a `Mixed` column stores its
        // NULLs as values.
        let null = v.is_null() && !matches!(self.data, ColData::Mixed(_));
        if null || self.nulls.is_some() {
            let words = self.nulls.get_or_insert_with(Vec::new);
            words.resize((i + 1).div_ceil(64), 0);
            words[i / 64] |= u64::from(null) << (i % 64);
        }
        true
    }
}

/// A columnar view of one table: built from the row store once, then kept
/// in step with it by [`Database`]'s row-level mutations.
#[derive(Debug, Clone)]
pub struct ColumnarTable {
    cols: Vec<ColumnVec>,
    len: usize,
}

impl ColumnarTable {
    /// Transpose a row slice into typed columns.
    pub fn from_rows(rows: &[Row]) -> ColumnarTable {
        let width = rows.first().map(Vec::len).unwrap_or(0);
        let cols = (0..width).map(|c| build_column(rows, c)).collect();
        ColumnarTable {
            cols,
            len: rows.len(),
        }
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Column count.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// The columns.
    pub fn columns(&self) -> &[ColumnVec] {
        &self.cols
    }

    /// Borrowing view of cell `(row, col)`.
    #[inline]
    pub fn cell(&self, row: usize, col: usize) -> Cell<'_> {
        self.cols[col].cell(row)
    }

    /// Append all of row `row`'s values to `out` (reconstructs the exact
    /// `Value` variants of the source rows).
    pub fn append_row(&self, row: usize, out: &mut Row) {
        out.reserve(self.cols.len());
        for c in &self.cols {
            out.push(c.value(row));
        }
    }

    /// Remove row `i`, filling the hole with the last row: what
    /// `Vec::swap_remove` does to the row store. An emptied view forgets
    /// its columns, as [`ColumnarTable::from_rows`] of no rows has none.
    fn swap_remove(&mut self, i: usize) {
        self.len -= 1;
        for c in &mut self.cols {
            c.swap_remove(i, self.len);
        }
        if self.len == 0 {
            self.cols.clear();
        }
    }

    /// Append `rows[self.len()..]`, the tail the row store just grew by. A
    /// column the new values do not fit is rebuilt from `rows`; the others
    /// are extended in place.
    fn extend_to(&mut self, rows: &[Row]) {
        if self.len == 0 {
            *self = ColumnarTable::from_rows(rows);
            return;
        }
        for (c, col) in self.cols.iter_mut().enumerate() {
            let mut tail = rows.iter().enumerate().skip(self.len);
            if !tail.all(|(i, row)| col.push(&row[c], i)) {
                *col = build_column(rows, c);
            }
        }
        self.len = rows.len();
    }
}

/// Pick the typed representation of column `c` and fill it.
fn build_column(rows: &[Row], c: usize) -> ColumnVec {
    let mut nulls: Option<Vec<u64>> = None;
    let mut ty: Option<SqlType> = None;
    let mut mixed = false;
    for row in rows {
        match row[c].sql_type() {
            None => {}
            Some(t) => match ty {
                None => ty = Some(t),
                Some(prev) if prev == t => {}
                Some(_) => {
                    mixed = true;
                    break;
                }
            },
        }
    }
    let set_null = |nulls: &mut Option<Vec<u64>>, i: usize| {
        let words = nulls.get_or_insert_with(|| vec![0u64; rows.len().div_ceil(64)]);
        words[i / 64] |= 1 << (i % 64);
    };
    // Date and Bool have no cheap NULL placeholder; all-NULL and mixed
    // columns have no single type — all fall back to Mixed.
    let data = match ty {
        _ if mixed => ColData::Mixed(rows.iter().map(|r| r[c].clone()).collect()),
        None => ColData::Mixed(rows.iter().map(|r| r[c].clone()).collect()),
        Some(SqlType::Int) => {
            let mut v = Vec::with_capacity(rows.len());
            for (i, row) in rows.iter().enumerate() {
                match row[c] {
                    Value::Int(x) => v.push(x),
                    _ => {
                        set_null(&mut nulls, i);
                        v.push(0);
                    }
                }
            }
            ColData::Int(v)
        }
        Some(SqlType::Double) => {
            let mut v = Vec::with_capacity(rows.len());
            for (i, row) in rows.iter().enumerate() {
                match row[c] {
                    Value::Double(x) => v.push(x),
                    _ => {
                        set_null(&mut nulls, i);
                        v.push(0.0);
                    }
                }
            }
            ColData::Double(v)
        }
        Some(SqlType::Varchar) => {
            let mut codes = Vec::with_capacity(rows.len());
            let mut dict: Vec<String> = Vec::new();
            let mut index: HashMap<String, u32> = HashMap::new();
            for (i, row) in rows.iter().enumerate() {
                match &row[c] {
                    Value::Str(s) => codes.push(intern(&mut dict, &mut index, s)),
                    _ => {
                        set_null(&mut nulls, i);
                        codes.push(0);
                    }
                }
            }
            ColData::Str { codes, dict, index }
        }
        Some(SqlType::Date) | Some(SqlType::Bool) if nulls_present(rows, c) => {
            ColData::Mixed(rows.iter().map(|r| r[c].clone()).collect())
        }
        Some(SqlType::Date) => {
            let mut v = Vec::with_capacity(rows.len());
            for row in rows {
                if let Value::Date(d) = row[c] {
                    v.push(d);
                }
            }
            ColData::Date(v)
        }
        Some(SqlType::Bool) => {
            let mut v = Vec::with_capacity(rows.len());
            for row in rows {
                if let Value::Bool(b) = row[c] {
                    v.push(b);
                }
            }
            ColData::Bool(v)
        }
    };
    ColumnVec { data, nulls }
}

/// The dictionary code of `s`, extending the dictionary when `s` is new.
fn intern(dict: &mut Vec<String>, index: &mut HashMap<String, u32>, s: &str) -> u32 {
    if let Some(&k) = index.get(s) {
        return k;
    }
    let k = dict.len() as u32;
    dict.push(s.to_owned());
    index.insert(s.to_owned(), k);
    k
}

/// Does column `c` contain any NULL?
fn nulls_present(rows: &[Row], c: usize) -> bool {
    rows.iter().any(|r| r[c].is_null())
}

/// The positions (ascending) of the stored rows that `victims` cancel as a
/// multiset — one per victim, the earliest copies first — or `Err(n)` when
/// `n` victims have no stored copy left to cancel.
///
/// Only the first column is walked in full: over the cached view's typed
/// vector when all victims share one first value, over `row[0]` otherwise.
/// Whole rows are hashed and compared only at the positions that pass, so
/// a point removal from a table with a selective first column costs one
/// typed pass; a constant first column degrades to hashing every row.
fn locate(
    rows: &[Row],
    view: Option<&ColumnarTable>,
    victims: &[Row],
) -> Result<Vec<usize>, usize> {
    let mut missing = victims.len();
    let mut positions = Vec::with_capacity(missing);
    if missing == 0 {
        return Ok(positions);
    }
    let mut wanted: Vec<Option<&Value>> = victims.iter().map(|v| v.first()).collect();
    wanted.sort_unstable();
    wanted.dedup();
    let typed = match (&wanted[..], view.and_then(|t| t.cols.first())) {
        ([Some(want)], Some(col)) => col.positions_of(want),
        _ => None,
    };
    let candidates = typed.unwrap_or_else(|| {
        (0..rows.len())
            .filter(|&i| wanted.binary_search(&rows[i].first()).is_ok())
            .collect()
    });
    let mut budget: HashMap<&Row, usize> = HashMap::new();
    for v in victims {
        *budget.entry(v).or_insert(0) += 1;
    }
    for i in candidates {
        if let Some(n) = budget.get_mut(&rows[i]).filter(|n| **n > 0) {
            *n -= 1;
            positions.push(i);
            missing -= 1;
            if missing == 0 {
                return Ok(positions);
            }
        }
    }
    Err(missing)
}

/// In-memory storage: table name → rows. Schemas live in the
/// [`Catalog`]; the database holds only data.
///
/// Every change to a table's rows bumps its *modification epoch*, a
/// per-table counter starting at 0. Consumers snapshot epochs to detect
/// staleness: a summary table materialized at epoch `e` of its base table
/// is stale once [`Database::epoch`] for that table returns anything other
/// than `e`.
#[derive(Default)]
pub struct Database {
    tables: HashMap<String, Vec<Row>>,
    epochs: HashMap<String, u64>,
    /// Columnar views keyed by table, each stamped with the epoch it is in
    /// step with; a view counts only while that is the table's epoch.
    columnar: Mutex<Views>,
}

type Views = HashMap<String, (u64, Arc<ColumnarTable>)>;

/// The view cache behind `&mut`, where there is no lock to take. A poisoned
/// mutex is recovered: a panic under the lock cannot corrupt the cache,
/// whose entries are validated by epoch on every use.
fn views(cache: &mut Mutex<Views>) -> &mut Views {
    cache
        .get_mut()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The cached entry of `key` if its view is the one in step with `epoch`.
fn view_at<'a>(
    cache: &'a mut Mutex<Views>,
    key: &str,
    epoch: u64,
) -> Option<&'a mut (u64, Arc<ColumnarTable>)> {
    views(cache)
        .get_mut(key)
        .filter(|(stamp, _)| *stamp == epoch)
}

impl Clone for Database {
    fn clone(&self) -> Database {
        Database {
            tables: self.tables.clone(),
            epochs: self.epochs.clone(),
            // Columnar views are rebuilt on demand in the clone.
            columnar: Mutex::new(HashMap::new()),
        }
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.tables)
            .field("epochs", &self.epochs)
            .finish_non_exhaustive()
    }
}

/// Errors raised while loading data.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    /// The table is not declared in the catalog.
    UnknownTable(String),
    /// A row's arity or a value's type does not match the schema.
    SchemaMismatch(String),
    /// Underlying catalog error.
    Catalog(CatalogError),
    /// Rows to be removed or replaced are not (or no longer) in the table:
    /// `missing` of them have no stored copy. Nothing was changed.
    RowsNotFound {
        /// The table.
        table: String,
        /// How many of the given rows found no stored copy to cancel.
        missing: usize,
    },
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            DbError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            DbError::Catalog(e) => write!(f, "catalog error: {e}"),
            DbError::RowsNotFound { table, missing } => {
                write!(f, "{missing} row(s) to remove are not in table `{table}`")
            }
        }
    }
}

impl std::error::Error for DbError {}

/// Exported table contents: `(table name, rows)`, sorted by name.
pub type TableData = Vec<(String, Vec<Row>)>;

/// Exported modification epochs: `(table name, epoch)`, sorted by name.
pub type TableEpochs = Vec<(String, u64)>;

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Validate rows against a table's catalog schema: arity, NULLability,
    /// and types, widening integer values to doubles where the schema
    /// requires it. Shared by [`Database::insert`] and
    /// [`Database::replace_rows`].
    pub fn validate_rows(
        catalog: &Catalog,
        table: &str,
        rows: Vec<Row>,
    ) -> Result<Vec<Row>, DbError> {
        let t = catalog
            .table(table)
            .ok_or_else(|| DbError::UnknownTable(table.into()))?;
        let mut validated = Vec::with_capacity(rows.len());
        for (ri, mut row) in rows.into_iter().enumerate() {
            if row.len() != t.columns.len() {
                return Err(DbError::SchemaMismatch(format!(
                    "row {ri}: expected {} values, got {}",
                    t.columns.len(),
                    row.len()
                )));
            }
            for (ci, v) in row.iter_mut().enumerate() {
                let col = &t.columns[ci];
                match (v.sql_type(), col.ty) {
                    (None, _) => {
                        if !col.nullable {
                            return Err(DbError::SchemaMismatch(format!(
                                "row {ri}: NULL in non-nullable column `{}`",
                                col.name
                            )));
                        }
                    }
                    (Some(SqlType::Int), SqlType::Double) => {
                        if let Value::Int(i) = *v {
                            *v = Value::Double(i as f64);
                        }
                    }
                    (Some(actual), expected) if actual == expected => {}
                    (Some(actual), expected) => {
                        return Err(DbError::SchemaMismatch(format!(
                            "row {ri}, column `{}`: expected {expected}, got {actual}",
                            col.name
                        )));
                    }
                }
            }
            validated.push(row);
        }
        Ok(validated)
    }

    /// Insert rows after validating them against the catalog schema.
    /// Integer values are widened to doubles where the schema requires it.
    pub fn insert(
        &mut self,
        catalog: &Catalog,
        table: &str,
        rows: Vec<Row>,
    ) -> Result<usize, DbError> {
        let validated = Database::validate_rows(catalog, table, rows)?;
        let n = validated.len();
        self.mutate(table, &[], validated)?;
        Ok(n)
    }

    /// Remove `victims` from a table as a multiset — each victim row
    /// cancels exactly one stored copy. All or nothing: returns the number
    /// of rows removed, which is `victims.len()`, or 0 with the table
    /// untouched when some victim has no stored copy.
    pub fn remove_rows(&mut self, table: &str, victims: &[Row]) -> usize {
        self.mutate(table, victims, Vec::new()).unwrap_or(0)
    }

    /// Replace `old` rows (a multiset) with `new` rows in one mutation:
    /// validates the replacements, removes the victims, appends the
    /// validated rows. Returns the number of rows removed. Nothing is
    /// mutated when validation fails or when some `old` row has no stored
    /// copy ([`DbError::RowsNotFound`]).
    pub fn replace_rows(
        &mut self,
        catalog: &Catalog,
        table: &str,
        old: &[Row],
        new: Vec<Row>,
    ) -> Result<usize, DbError> {
        let validated = Database::validate_rows(catalog, table, new)?;
        self.mutate(table, old, validated)
    }

    /// The one row-level mutation: remove `removed` (a multiset) from
    /// `table` and append `inserted`, in the row store and, when a current
    /// view of the table is cached, in the view — the same positions, the
    /// same order, so the two stay row-for-row in step. Returns the number
    /// of rows removed.
    ///
    /// Nothing is validated, as with [`Database::put_table`]: the caller
    /// guarantees `inserted` is as wide as the stored rows. It is how a
    /// summary's backing rows change — with a hidden counter they are wider
    /// than their catalog schema, so [`Database::replace_rows`] would refuse
    /// them.
    ///
    /// Every victim is located before anything moves; one that is missing
    /// fails the whole mutation. A removed row's place is taken by the
    /// table's last row, highest position first, so store order is a
    /// function of the mutation sequence (replay reproduces it) but not
    /// stable under removal. The epoch moves iff the row multiset changed,
    /// and the view is re-stamped with it: the next [`Database::columnar`]
    /// is a lookup, not a build.
    pub fn mutate(
        &mut self,
        table: &str,
        removed: &[Row],
        inserted: Vec<Row>,
    ) -> Result<usize, DbError> {
        let key = &table.to_ascii_lowercase();
        let before = self.epoch(key);
        let view = view_at(&mut self.columnar, key, before).map(|(_, view)| &**view);
        let stored = self.tables.get(key).map_or(&[][..], Vec::as_slice);
        let positions = locate(stored, view, removed).map_err(|missing| DbError::RowsNotFound {
            table: key.clone(),
            missing,
        })?;
        if positions.is_empty() && inserted.is_empty() {
            return Ok(0);
        }
        let epoch = self.bump(key);
        let rows = self.tables.entry(key.clone()).or_default();
        for &p in positions.iter().rev() {
            rows.swap_remove(p);
        }
        rows.extend(inserted);
        if let Some((stamp, view)) = view_at(&mut self.columnar, key, before) {
            // Unique in practice; copy-on-write if an executor still holds it.
            let view = Arc::make_mut(view);
            for &p in positions.iter().rev() {
                view.swap_remove(p);
            }
            view.extend_to(rows);
            *stamp = epoch;
        }
        Ok(positions.len())
    }

    /// Replace a table's rows wholesale (no validation; caller guarantees
    /// schema conformance), dropping its columnar view — what
    /// (re)materializing a summary and the data generators do. A delta goes
    /// through [`Database::mutate`].
    pub fn put_table(&mut self, table: &str, rows: Vec<Row>) {
        let key = table.to_ascii_lowercase();
        views(&mut self.columnar).remove(&key);
        self.tables.insert(key.clone(), rows);
        self.bump(&key);
    }

    /// The rows of a table; empty slice when absent.
    pub fn rows(&self, table: &str) -> &[Row] {
        self.tables
            .get(&table.to_ascii_lowercase())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Row count of a table.
    pub fn row_count(&self, table: &str) -> usize {
        self.rows(table).len()
    }

    /// Drop a table's data.
    pub fn drop_table(&mut self, table: &str) {
        let key = table.to_ascii_lowercase();
        views(&mut self.columnar).remove(&key);
        self.tables.remove(&key);
        self.bump(&key);
    }

    /// The table's modification epoch: 0 for a never-touched table, bumped
    /// once by every [`Database::mutate`] (so every [`Database::insert`],
    /// [`Database::remove_rows`] and [`Database::replace_rows`]) that
    /// changes the row multiset (one that removes nothing and inserts
    /// nothing leaves it alone), and by every
    /// [`Database::put_table`], [`Database::drop_table`] and
    /// [`Database::bump_epoch`].
    pub fn epoch(&self, table: &str) -> u64 {
        self.epochs
            .get(&table.to_ascii_lowercase())
            .copied()
            .unwrap_or(0)
    }

    /// The columnar view of a table: built on first use, then kept in step
    /// by row-level mutations, so this is a lookup until the table is
    /// replaced wholesale. The `Arc` is a snapshot: a mutation while it is
    /// held copies the view rather than changing it under the holder.
    pub fn columnar(&self, table: &str) -> Arc<ColumnarTable> {
        let key = table.to_ascii_lowercase();
        let epoch = self.epoch(&key);
        let mut cache = match self.columnar.lock() {
            Ok(g) => g,
            // A panic while holding the lock cannot corrupt the cache (it
            // is validated by epoch on every lookup) — recover.
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some((e, t)) = cache.get(&key) {
            if *e == epoch {
                return Arc::clone(t);
            }
        }
        let t = Arc::new(ColumnarTable::from_rows(self.rows(&key)));
        cache.insert(key, (epoch, Arc::clone(&t)));
        t
    }

    fn bump(&mut self, key: &str) -> u64 {
        let epoch = self.epochs.entry(key.to_string()).or_insert(0);
        *epoch += 1;
        *epoch
    }

    /// Bump a table's modification epoch without touching its data — the
    /// durable-invalidation hook: consumers that snapshotted the old epoch
    /// (summary staleness, cached plans) see the table as modified.
    pub fn bump_epoch(&mut self, table: &str) {
        let key = table.to_ascii_lowercase();
        let before = self.epoch(&key);
        let epoch = self.bump(&key);
        // The rows did not change: a view in step with them still is.
        if let Some((stamp, _)) = view_at(&mut self.columnar, &key, before) {
            *stamp = epoch;
        }
    }

    /// Export the full storage state — every table's rows plus every
    /// modification epoch — sorted by table name for deterministic
    /// serialization. Feed the result to [`Database::restore_state`] to
    /// rebuild an identical database (same data, same epochs).
    pub fn export_state(&self) -> (TableData, TableEpochs) {
        let mut data: TableData = self
            .tables
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        data.sort_by(|a, b| a.0.cmp(&b.0));
        let mut epochs: TableEpochs = self.epochs.iter().map(|(k, &e)| (k.clone(), e)).collect();
        epochs.sort_by(|a, b| a.0.cmp(&b.0));
        (data, epochs)
    }

    /// Replace the whole storage state with a previously exported one.
    /// Unlike [`Database::put_table`], epochs are restored *exactly* — not
    /// bumped — so staleness bookkeeping snapshotted against the exported
    /// state remains valid after recovery.
    pub fn restore_state(&mut self, data: TableData, epochs: TableEpochs) {
        self.tables = data
            .into_iter()
            .map(|(k, v)| (k.to_ascii_lowercase(), v))
            .collect();
        self.epochs = epochs
            .into_iter()
            .map(|(k, e)| (k.to_ascii_lowercase(), e))
            .collect();
        views(&mut self.columnar).clear();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests assert on fixed inputs
mod tests {
    use super::*;
    use sumtab_catalog::Date;

    fn cat() -> Catalog {
        Catalog::credit_card_sample()
    }

    #[test]
    fn insert_validates_arity_and_types() {
        let mut db = Database::new();
        let c = cat();
        let row = vec![
            Value::Int(1),
            Value::Int(10),
            Value::Int(20),
            Value::Int(30),
            Value::Date(Date::parse("1995-06-01").unwrap()),
            Value::Int(2),
            Value::Int(100), // Int widened to Double for `price`
            Value::Double(0.1),
        ];
        assert_eq!(db.insert(&c, "trans", vec![row]).unwrap(), 1);
        assert_eq!(db.row_count("trans"), 1);
        assert_eq!(db.rows("TRANS")[0][6], Value::Double(100.0));

        // Arity error.
        assert!(matches!(
            db.insert(&c, "trans", vec![vec![Value::Int(1)]]),
            Err(DbError::SchemaMismatch(_))
        ));
        // Type error.
        let mut bad = db.rows("trans")[0].clone();
        bad[0] = Value::Str("oops".into());
        assert!(matches!(
            db.insert(&c, "trans", vec![bad]),
            Err(DbError::SchemaMismatch(_))
        ));
        // NULL in non-nullable column.
        let mut nullrow = db.rows("trans")[0].clone();
        nullrow[0] = Value::Null;
        assert!(matches!(
            db.insert(&c, "trans", vec![nullrow]),
            Err(DbError::SchemaMismatch(_))
        ));
        // Unknown table.
        assert!(matches!(
            db.insert(&c, "nope", vec![]),
            Err(DbError::UnknownTable(_))
        ));
    }

    #[test]
    fn put_and_drop() {
        let mut db = Database::new();
        db.put_table("X", vec![vec![Value::Int(1)]]);
        assert_eq!(db.row_count("x"), 1);
        db.drop_table("x");
        assert_eq!(db.row_count("x"), 0);
    }

    #[test]
    fn columnar_round_trips_values_exactly() {
        let mut db = Database::new();
        let rows = vec![
            vec![
                Value::Int(1),
                Value::Double(1.5),
                Value::from("tv"),
                Value::Date(Date::parse("1990-01-03").unwrap()),
                Value::Bool(true),
                Value::Null,
            ],
            vec![
                Value::Int(2),
                Value::Null,
                Value::from("tv"),
                Value::Date(Date::parse("1991-02-04").unwrap()),
                Value::Bool(false),
                Value::from("mixed"),
            ],
            vec![
                Value::Null,
                Value::Double(-0.0),
                Value::Null,
                Value::Date(Date::parse("1992-03-05").unwrap()),
                Value::Bool(true),
                Value::Int(7),
            ],
        ];
        db.put_table("t", rows.clone());
        let col = db.columnar("t");
        assert_eq!(col.len(), 3);
        assert_eq!(col.width(), 6);
        for (i, row) in rows.iter().enumerate() {
            for (c, want) in row.iter().enumerate() {
                assert_eq!(&col.columns()[c].value(i), want, "cell ({i},{c})");
                // Variant identity, not just grouping equality.
                assert_eq!(col.columns()[c].value(i).sql_type(), want.sql_type());
            }
            let mut rebuilt = Vec::new();
            col.append_row(i, &mut rebuilt);
            assert_eq!(&rebuilt, row);
        }
        // The dictionary deduplicates: two "tv" cells, one entry.
        match &col.columns()[2].data {
            ColData::Str { dict, .. } => assert_eq!(dict.len(), 1),
            other => panic!("expected Str column, got {other:?}"),
        }
    }

    #[test]
    fn columnar_cache_invalidates_on_epoch_bump() {
        let mut db = Database::new();
        db.put_table("t", vec![vec![Value::Int(1)]]);
        let c1 = db.columnar("t");
        let c2 = db.columnar("T");
        assert!(Arc::ptr_eq(&c1, &c2), "cache hit at unchanged epoch");
        db.put_table("t", vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        let c3 = db.columnar("t");
        assert_eq!(c3.len(), 2, "mutation rebuilds the columnar view");
        assert!(!Arc::ptr_eq(&c1, &c3));
        // Clones start with a cold columnar cache but identical data.
        let db2 = db.clone();
        assert_eq!(db2.columnar("t").len(), 2);
    }

    #[test]
    fn export_restore_preserves_data_and_epochs_exactly() {
        let mut db = Database::new();
        db.put_table("b", vec![vec![Value::Int(2)]]);
        db.put_table("a", vec![vec![Value::Int(1)]]);
        db.put_table("a", vec![vec![Value::Int(1)], vec![Value::Int(3)]]);
        db.drop_table("gone");
        let (data, epochs) = db.export_state();
        assert_eq!(
            epochs,
            vec![("a".into(), 2), ("b".into(), 1), ("gone".into(), 1)]
        );
        let mut db2 = Database::new();
        db2.put_table("junk", vec![vec![Value::Null]]);
        db2.restore_state(data, epochs);
        assert_eq!(db2.rows("a"), db.rows("a"));
        assert_eq!(db2.rows("b"), db.rows("b"));
        assert_eq!(db2.row_count("junk"), 0, "restore replaces, not merges");
        assert_eq!(db2.epoch("a"), 2, "epochs restored exactly, not bumped");
        assert_eq!(db2.epoch("gone"), 1, "dropped-table epochs survive");
        // bump_epoch invalidates without data changes.
        db2.bump_epoch("A");
        assert_eq!(db2.epoch("a"), 3);
        assert_eq!(db2.rows("a").len(), 2);
    }

    #[test]
    fn epochs_track_every_mutation() {
        let mut db = Database::new();
        assert_eq!(db.epoch("trans"), 0, "untouched tables sit at epoch 0");
        db.put_table("X", vec![vec![Value::Int(1)]]);
        assert_eq!(db.epoch("x"), 1);
        db.drop_table("x");
        assert_eq!(db.epoch("X"), 2, "epoch lookups are case-insensitive");

        let c = cat();
        let row = vec![
            Value::Int(1),
            Value::Int(10),
            Value::Int(20),
            Value::Int(30),
            Value::Date(Date::parse("1995-06-01").unwrap()),
            Value::Int(2),
            Value::Int(100),
            Value::Double(0.1),
        ];
        db.insert(&c, "trans", vec![row]).unwrap();
        assert_eq!(db.epoch("trans"), 1);
        // A failed insert does not bump the epoch.
        assert!(db.insert(&c, "trans", vec![vec![Value::Int(1)]]).is_err());
        assert_eq!(db.epoch("trans"), 1);
    }

    /// A table with one column of every typed representation: `k` INT,
    /// `d` DOUBLE NULL, `s` VARCHAR NULL, `dt` DATE NULL, `b` BOOL.
    fn typed_cat() -> Catalog {
        use sumtab_catalog::{Column, Table};
        let mut c = Catalog::new();
        c.add_table(Table::new(
            "t",
            vec![
                Column::new("k", SqlType::Int),
                Column::nullable("d", SqlType::Double),
                Column::nullable("s", SqlType::Varchar),
                Column::nullable("dt", SqlType::Date),
                Column::new("b", SqlType::Bool),
            ],
        ))
        .unwrap();
        c
    }

    fn typed_row(k: i64, d: Option<f64>, s: Option<&str>, day: Option<i64>, b: bool) -> Row {
        vec![
            Value::Int(k),
            d.map_or(Value::Null, Value::Double),
            s.map_or(Value::Null, Value::from),
            day.map_or(Value::Null, |n| {
                Value::Date(Date::from_day_number(730_000 + n).unwrap())
            }),
            Value::Bool(b),
        ]
    }

    /// The oracle: the maintained view equals a from-scratch build of the
    /// current rows, cell for cell, `Value` variant included.
    fn assert_view_is_from_rows(db: &Database, ctx: &str) {
        let view = db.columnar("t");
        let rows = db.rows("t");
        let oracle = ColumnarTable::from_rows(rows);
        assert_eq!(view.len(), oracle.len(), "{ctx}: len");
        assert_eq!(view.width(), oracle.width(), "{ctx}: width");
        for (i, row) in rows.iter().enumerate() {
            for (c, stored) in row.iter().enumerate() {
                let got = view.columns()[c].value(i);
                let want = oracle.columns()[c].value(i);
                assert_eq!(got, want, "{ctx}: cell ({i},{c})");
                assert_eq!(got.sql_type(), want.sql_type(), "{ctx}: type ({i},{c})");
                assert_eq!(&got, stored, "{ctx}: row store ({i},{c})");
            }
        }
    }

    #[test]
    fn view_follows_random_mutation_sequences() {
        use sumtab_datagen::SplitMix64;
        let c = typed_cat();
        const POOL: [&str; 4] = ["tv", "radio", "tv set", ""];
        for seed in 0..240u64 {
            let mut r = SplitMix64::new(0xD31 + seed);
            let mut db = Database::new();
            let mut model: Vec<Row> = Vec::new();
            let steps = 12 + r.gen_index(24);
            // A NULL reaches the typed `dt` column only from here on.
            let null_dates_from = steps / 2;
            let mut fresh = 0;
            for step in 0..steps {
                let ctx = format!("seed {seed} step {step}");
                let mut random_row = |r: &mut SplitMix64| {
                    let s = match r.gen_index(6) {
                        0 => None,
                        1 => {
                            fresh += 1;
                            Some(format!("new{fresh}"))
                        }
                        _ => Some(r.choose(&POOL).to_string()),
                    };
                    typed_row(
                        r.gen_i64(0, 5),
                        (!r.gen_bool(0.25)).then(|| r.gen_i64(-2, 2) as f64 * 0.5),
                        s.as_deref(),
                        (step < null_dates_from || !r.gen_bool(0.2)).then(|| r.gen_i64(0, 3)),
                        r.gen_bool(0.5),
                    )
                };
                let fresh_rows = |r: &mut SplitMix64, f: &mut dyn FnMut(&mut SplitMix64) -> Row| {
                    (0..r.gen_index(4)).map(|_| f(r)).collect::<Vec<Row>>()
                };
                // Stored rows to remove: distinct positions, so a value
                // picked twice has two copies to cancel.
                let pick = |r: &mut SplitMix64, model: &[Row]| {
                    let n = model.len().min(1 + r.gen_index(3));
                    let mut at: Vec<usize> = (0..model.len()).collect();
                    (0..n)
                        .map(|_| model[at.swap_remove(r.gen_index(at.len()))].clone())
                        .collect::<Vec<Row>>()
                };
                let forget = |model: &mut Vec<Row>, victims: &[Row]| {
                    for v in victims {
                        let p = model.iter().position(|m| m == v).unwrap();
                        model.swap_remove(p);
                    }
                };
                let epoch = db.epoch("t");
                match r.gen_index(10) {
                    0..=2 => {
                        let mut rows = fresh_rows(&mut r, &mut random_row);
                        if !model.is_empty() && r.gen_bool(0.3) {
                            rows.push(r.choose(&model).clone()); // a duplicate
                        }
                        assert_eq!(db.insert(&c, "t", rows.clone()).unwrap(), rows.len());
                        assert_eq!(db.epoch("t"), epoch + u64::from(!rows.is_empty()), "{ctx}");
                        model.extend(rows);
                    }
                    3..=4 => {
                        let victims = pick(&mut r, &model);
                        assert_eq!(db.remove_rows("t", &victims), victims.len(), "{ctx}");
                        forget(&mut model, &victims);
                    }
                    5..=6 => {
                        let old = pick(&mut r, &model);
                        let new = fresh_rows(&mut r, &mut random_row);
                        let n = db.replace_rows(&c, "t", &old, new.clone()).unwrap();
                        assert_eq!(n, old.len(), "{ctx}");
                        let changed = !(old.is_empty() && new.is_empty());
                        assert_eq!(db.epoch("t"), epoch + u64::from(changed), "{ctx}");
                        forget(&mut model, &old);
                        model.extend(new);
                    }
                    7 => {
                        // One victim too many: all or nothing.
                        let mut victims = pick(&mut r, &model);
                        victims.push(typed_row(99, None, None, Some(0), true));
                        assert_eq!(db.remove_rows("t", &victims), 0, "{ctx}");
                        let new = vec![random_row(&mut r)];
                        assert_eq!(
                            db.replace_rows(&c, "t", &victims, new),
                            Err(DbError::RowsNotFound {
                                table: "t".into(),
                                missing: 1
                            }),
                            "{ctx}"
                        );
                        assert_eq!(db.epoch("t"), epoch, "{ctx}: nothing changed");
                    }
                    8 => {
                        let all = model.clone();
                        assert_eq!(db.remove_rows("t", &all), all.len(), "{ctx}");
                        model.clear();
                    }
                    _ => {
                        model = fresh_rows(&mut r, &mut random_row);
                        db.put_table("t", model.clone());
                    }
                }
                assert_eq!(
                    crate::sort_rows(db.rows("t").to_vec()),
                    crate::sort_rows(model.clone()),
                    "{ctx}"
                );
                // Not after every step, so mutations also run with no view
                // cached (after `put_table`) and build one later.
                if r.gen_bool(0.75) {
                    assert_view_is_from_rows(&db, &ctx);
                }
            }
            assert_view_is_from_rows(&db, &format!("seed {seed} end"));
        }
    }

    #[test]
    fn view_survives_edge_mutations() {
        let c = typed_cat();
        let mut db = Database::new();
        let a = typed_row(1, Some(0.5), Some("tv"), Some(1), true);
        let b = typed_row(2, None, Some("radio"), Some(2), false);
        db.insert(&c, "t", vec![a.clone(), a.clone(), b.clone()])
            .unwrap();
        assert_view_is_from_rows(&db, "loaded");
        // Multiset budget: one victim cancels one of two equal rows.
        assert_eq!(db.remove_rows("t", std::slice::from_ref(&a)), 1);
        assert_eq!(
            crate::sort_rows(db.rows("t").to_vec()),
            vec![a.clone(), b.clone()]
        );
        assert_view_is_from_rows(&db, "one of two");
        // Two victims, one copy left: nothing moves.
        assert_eq!(db.remove_rows("t", &[a.clone(), a.clone()]), 0);
        assert_eq!(db.row_count("t"), 2);
        // The last row, then every row.
        let last = db.rows("t")[1].clone();
        assert_eq!(db.remove_rows("t", &[last]), 1);
        assert_view_is_from_rows(&db, "last row gone");
        let rest = db.rows("t").to_vec();
        assert_eq!(db.remove_rows("t", &rest), 1);
        assert_eq!(
            db.columnar("t").width(),
            0,
            "an emptied view has no columns"
        );
        assert_view_is_from_rows(&db, "emptied");
        // Into the empty table, a NULL first: `dt` starts out untyped, and
        // the typed `d` column gets its first NULL later.
        db.insert(&c, "t", vec![typed_row(3, Some(1.0), None, None, true)])
            .unwrap();
        assert_view_is_from_rows(&db, "refilled");
        db.insert(
            &c,
            "t",
            vec![b.clone(), typed_row(4, None, Some("x"), Some(3), false)],
        )
        .unwrap();
        assert_view_is_from_rows(&db, "null into typed double, string into all-null");
        // A NULL into a typed Date column rebuilds that column alone.
        db.put_table("t", vec![a.clone(), b.clone()]);
        assert!(matches!(
            db.columnar("t").columns()[3].data,
            ColData::Date(_)
        ));
        db.insert(
            &c,
            "t",
            vec![typed_row(5, Some(2.0), Some("tv"), None, true)],
        )
        .unwrap();
        assert!(matches!(
            db.columnar("t").columns()[3].data,
            ColData::Mixed(_)
        ));
        assert!(matches!(
            db.columnar("t").columns()[0].data,
            ColData::Int(_)
        ));
        assert_view_is_from_rows(&db, "null date");
        // A removal the 64-row bitmap word boundary moves across.
        let many: Vec<Row> = (0..130)
            .map(|i| typed_row(i, (i % 3 != 0).then_some(i as f64), None, Some(0), true))
            .collect();
        db.put_table("t", many.clone());
        db.columnar("t");
        assert_eq!(db.remove_rows("t", &[many[3].clone(), many[64].clone()]), 2);
        assert_view_is_from_rows(&db, "across bitmap words");
        assert_eq!(db.remove_rows("t", &many[100..]), 30);
        assert_view_is_from_rows(&db, "tail truncated");
    }

    #[test]
    fn point_mutations_do_not_rebuild_the_view() {
        let c = typed_cat();
        let mut db = Database::new();
        let row = |i: i64| typed_row(i, Some(i as f64), Some("tv"), Some(i % 4), i % 2 == 0);
        db.insert(&c, "t", (0..500).map(row).collect()).unwrap();
        let built = Arc::as_ptr(&db.columnar("t"));
        for i in 0..100 {
            assert_eq!(db.remove_rows("t", &[row(i * 3)]), 1);
            db.insert(&c, "t", vec![row(1000 + i)]).unwrap();
            assert_eq!(
                db.replace_rows(&c, "t", &[row(i * 3 + 1)], vec![row(2000 + i)]),
                Ok(1)
            );
        }
        assert_eq!(built, Arc::as_ptr(&db.columnar("t")), "same allocation");
        assert_view_is_from_rows(&db, "after 300 point mutations");
        // `bump_epoch` changes no row, so the view stays as well.
        db.bump_epoch("t");
        assert_eq!(built, Arc::as_ptr(&db.columnar("t")));

        // Copy-on-write: a view held across a mutation is a snapshot.
        let held = db.columnar("t");
        let before = db.rows("t").to_vec();
        assert_eq!(db.remove_rows("t", &[row(299)]), 1);
        assert_eq!(held.len(), before.len());
        for (i, want) in before.iter().enumerate() {
            let mut got = Vec::new();
            held.append_row(i, &mut got);
            assert_eq!(&got, want, "held snapshot row {i}");
        }
        assert!(!Arc::ptr_eq(&held, &db.columnar("t")));
        assert_view_is_from_rows(&db, "after copy-on-write");
    }

    #[test]
    fn noop_mutations_leave_the_epoch_alone() {
        let c = typed_cat();
        let mut db = Database::new();
        db.insert(&c, "t", vec![typed_row(1, None, None, Some(0), true)])
            .unwrap();
        let epoch = db.epoch("t");
        assert_eq!(db.replace_rows(&c, "t", &[], vec![]), Ok(0));
        assert_eq!(db.insert(&c, "t", vec![]), Ok(0));
        assert_eq!(db.remove_rows("t", &[]), 0);
        assert_eq!(
            db.remove_rows("t", &[typed_row(2, None, None, Some(0), true)]),
            0
        );
        assert_eq!(db.remove_rows("nope", &[vec![]]), 0);
        assert_eq!(db.epoch("t"), epoch);
        assert_eq!(db.epoch("nope"), 0);
    }
}
