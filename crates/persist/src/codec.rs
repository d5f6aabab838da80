//! Deterministic binary encoding for the on-disk record and snapshot
//! payloads, plus the FNV-1a 64-bit checksum both file formats use.
//!
//! Everything is fixed-width little-endian; strings are length-prefixed
//! UTF-8. The encoding is hand-rolled (the workspace builds with zero
//! external dependencies) and intentionally dumb: no varints, no schema
//! evolution — format changes bump the file magic instead.
//!
//! Decoding never panics. Every read is bounds-checked and every tag is
//! validated, returning a typed [`CodecError`]; the recovery path treats
//! any decode failure on a checksummed payload as corruption.

use sumtab_catalog::{Column, Date, ForeignKey, SqlType, SummaryTableDef, Table, Value};

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The FNV-1a 64-bit hash of `bytes` — the checksum used by both the WAL
/// record frames and the snapshot file trailer.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A decode failure: where and why the payload stopped making sense.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before a field was complete.
    UnexpectedEof {
        /// Byte offset of the incomplete read.
        at: usize,
        /// How many bytes the field needed.
        wanted: usize,
    },
    /// A tag or embedded value was out of range.
    Invalid {
        /// The field being decoded.
        what: &'static str,
        /// The offending raw value.
        detail: String,
    },
    /// The payload decoded cleanly but bytes remained.
    TrailingBytes {
        /// How many bytes were left over.
        remaining: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof { at, wanted } => {
                write!(
                    f,
                    "unexpected end of payload at byte {at} (wanted {wanted} more)"
                )
            }
            CodecError::Invalid { what, detail } => write!(f, "invalid {what}: {detail}"),
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after payload")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// An append-only byte sink.
#[derive(Debug, Default)]
pub struct Enc {
    /// The encoded bytes.
    pub buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian i64.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an f64 as its IEEE bit pattern (NaN-exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a length (usize as u64).
    pub fn len_of(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.len_of(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
}

/// A bounds-checked cursor over an encoded payload.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless the payload was fully consumed.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::TrailingBytes {
                remaining: self.remaining(),
            });
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                at: self.pos,
                wanted: n,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Read a little-endian i64.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(self.u64()? as i64)
    }

    /// Read an f64 from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length, sanity-bounded by the bytes actually remaining so a
    /// corrupt length cannot trigger a huge allocation.
    pub fn len_of(&mut self) -> Result<usize, CodecError> {
        let v = self.u64()?;
        if v > self.remaining() as u64 {
            return Err(CodecError::Invalid {
                what: "length prefix",
                detail: format!("{v} exceeds the {} bytes remaining", self.remaining()),
            });
        }
        Ok(v as usize)
    }

    /// Read a *count* of fixed-or-variable records. Bounded only loosely
    /// (each record needs at least one byte), which still blocks
    /// pathological preallocation from corrupt counts.
    pub fn count(&mut self) -> Result<usize, CodecError> {
        self.len_of()
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let n = self.len_of()?;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|e| CodecError::Invalid {
            what: "utf-8 string",
            detail: e.to_string(),
        })
    }

    /// Read a bool byte (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::Invalid {
                what: "bool",
                detail: other.to_string(),
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Catalog-type encodings
// ---------------------------------------------------------------------------

fn sql_type_tag(t: SqlType) -> u8 {
    match t {
        SqlType::Int => 0,
        SqlType::Double => 1,
        SqlType::Varchar => 2,
        SqlType::Date => 3,
        SqlType::Bool => 4,
    }
}

fn sql_type_from(tag: u8) -> Result<SqlType, CodecError> {
    Ok(match tag {
        0 => SqlType::Int,
        1 => SqlType::Double,
        2 => SqlType::Varchar,
        3 => SqlType::Date,
        4 => SqlType::Bool,
        other => {
            return Err(CodecError::Invalid {
                what: "sql type tag",
                detail: other.to_string(),
            })
        }
    })
}

/// Encode one [`Value`]. Dates travel as their day number, so any date the
/// calendar module accepts round-trips exactly.
fn encode_value(e: &mut Enc, v: &Value) {
    match v {
        Value::Null => e.u8(0),
        Value::Int(i) => {
            e.u8(1);
            e.i64(*i);
        }
        Value::Double(d) => {
            e.u8(2);
            e.f64(*d);
        }
        Value::Str(s) => {
            e.u8(3);
            e.str(s);
        }
        Value::Date(d) => {
            e.u8(4);
            e.i64(d.to_day_number());
        }
        Value::Bool(b) => {
            e.u8(5);
            e.bool(*b);
        }
    }
}

/// Decode one [`Value`].
fn decode_value(d: &mut Dec<'_>) -> Result<Value, CodecError> {
    Ok(match d.u8()? {
        0 => Value::Null,
        1 => Value::Int(d.i64()?),
        2 => Value::Double(d.f64()?),
        3 => Value::Str(d.str()?),
        4 => {
            let n = d.i64()?;
            let date = Date::from_day_number(n).ok_or_else(|| CodecError::Invalid {
                what: "date day number",
                detail: n.to_string(),
            })?;
            Value::Date(date)
        }
        5 => Value::Bool(d.bool()?),
        other => {
            return Err(CodecError::Invalid {
                what: "value tag",
                detail: other.to_string(),
            })
        }
    })
}

/// Encode a batch of rows (count, then per-row arity + values).
pub fn encode_rows(e: &mut Enc, rows: &[Vec<Value>]) {
    e.len_of(rows.len());
    for row in rows {
        e.len_of(row.len());
        for v in row {
            encode_value(e, v);
        }
    }
}

/// Decode a batch of rows.
pub fn decode_rows(d: &mut Dec<'_>) -> Result<Vec<Vec<Value>>, CodecError> {
    let n = d.count()?;
    let mut rows = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let w = d.count()?;
        let mut row = Vec::with_capacity(w.min(1 << 10));
        for _ in 0..w {
            row.push(decode_value(d)?);
        }
        rows.push(row);
    }
    Ok(rows)
}

/// Encode a table schema (name, columns, primary-key ordinals).
pub fn encode_table(e: &mut Enc, t: &Table) {
    e.str(&t.name);
    e.len_of(t.columns.len());
    for c in &t.columns {
        e.str(&c.name);
        e.u8(sql_type_tag(c.ty));
        e.bool(c.nullable);
    }
    e.len_of(t.primary_key.len());
    for &i in &t.primary_key {
        e.u32(i as u32);
    }
}

/// Decode a table schema. Primary-key ordinals are validated against the
/// column count so a corrupt snapshot cannot build an out-of-range key.
pub fn decode_table(d: &mut Dec<'_>) -> Result<Table, CodecError> {
    let name = d.str()?;
    let ncols = d.count()?;
    let mut columns = Vec::with_capacity(ncols.min(1 << 10));
    for _ in 0..ncols {
        let cname = d.str()?;
        let ty = sql_type_from(d.u8()?)?;
        let nullable = d.bool()?;
        columns.push(if nullable {
            Column::nullable(&cname, ty)
        } else {
            Column::new(&cname, ty)
        });
    }
    let npk = d.count()?;
    let mut primary_key = Vec::with_capacity(npk.min(1 << 10));
    for _ in 0..npk {
        let i = d.u32()? as usize;
        if i >= columns.len() {
            return Err(CodecError::Invalid {
                what: "primary-key ordinal",
                detail: format!("{i} out of range for {} columns", columns.len()),
            });
        }
        primary_key.push(i);
    }
    let mut t = Table::new(&name, columns);
    t.primary_key = primary_key;
    Ok(t)
}

/// Encode an RI constraint by table names and column ordinals.
pub fn encode_fk(e: &mut Enc, fk: &ForeignKey) {
    e.str(&fk.child_table);
    e.len_of(fk.child_columns.len());
    for &i in &fk.child_columns {
        e.u32(i as u32);
    }
    e.str(&fk.parent_table);
    e.len_of(fk.parent_columns.len());
    for &i in &fk.parent_columns {
        e.u32(i as u32);
    }
}

/// Decode an RI constraint (ordinal validity is checked by the catalog when
/// the facade re-registers it against the decoded tables).
pub fn decode_fk(d: &mut Dec<'_>) -> Result<ForeignKey, CodecError> {
    let child_table = d.str()?;
    let n = d.count()?;
    let mut child_columns = Vec::with_capacity(n.min(1 << 10));
    for _ in 0..n {
        child_columns.push(d.u32()? as usize);
    }
    let parent_table = d.str()?;
    let m = d.count()?;
    let mut parent_columns = Vec::with_capacity(m.min(1 << 10));
    for _ in 0..m {
        parent_columns.push(d.u32()? as usize);
    }
    Ok(ForeignKey {
        child_table,
        child_columns,
        parent_table,
        parent_columns,
    })
}

/// Encode a summary-table definition (name + defining SQL).
pub fn encode_summary(e: &mut Enc, s: &SummaryTableDef) {
    e.str(&s.name);
    e.str(&s.query_sql);
}

/// Decode a summary-table definition.
pub fn decode_summary(d: &mut Dec<'_>) -> Result<SummaryTableDef, CodecError> {
    Ok(SummaryTableDef {
        name: d.str()?,
        query_sql: d.str()?,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests assert on fixed inputs
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn values_round_trip_exactly() {
        let vals = vec![
            Value::Null,
            Value::Int(i64::MIN),
            Value::Int(0),
            Value::Double(f64::NAN),
            Value::Double(-0.0),
            Value::Str("héllo 'quoted'".into()),
            Value::Str(String::new()),
            Value::Date(Date::parse("1995-06-01").unwrap()),
            Value::Bool(true),
        ];
        let mut e = Enc::new();
        encode_rows(&mut e, std::slice::from_ref(&vals));
        let mut d = Dec::new(&e.buf);
        let back = decode_rows(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(back.len(), 1);
        for (a, b) in vals.iter().zip(&back[0]) {
            // Bit-exact, not just grouping-equal: NaN and -0.0 must survive.
            match (a, b) {
                (Value::Double(x), Value::Double(y)) => {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
                _ => assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn tables_and_fks_round_trip() {
        let t = Table::new(
            "trans",
            vec![
                Column::new("tid", SqlType::Int),
                Column::nullable("note", SqlType::Varchar),
                Column::new("price", SqlType::Double),
            ],
        )
        .with_primary_key(&["tid"])
        .unwrap();
        let fk = ForeignKey {
            child_table: "trans".into(),
            child_columns: vec![0],
            parent_table: "acct".into(),
            parent_columns: vec![0],
        };
        let mut e = Enc::new();
        encode_table(&mut e, &t);
        encode_fk(&mut e, &fk);
        let mut d = Dec::new(&e.buf);
        assert_eq!(decode_table(&mut d).unwrap(), t);
        assert_eq!(decode_fk(&mut d).unwrap(), fk);
        d.finish().unwrap();
    }

    #[test]
    fn decode_rejects_garbage_without_panicking() {
        // Every prefix of a valid payload fails typed, never panics.
        let mut e = Enc::new();
        encode_value(&mut e, &Value::Str("hello".into()));
        for cut in 0..e.buf.len() {
            let mut d = Dec::new(&e.buf[..cut]);
            assert!(decode_value(&mut d).is_err(), "prefix {cut} must fail");
        }
        // Bad tags fail typed.
        let mut d = Dec::new(&[99]);
        assert!(matches!(
            decode_value(&mut d),
            Err(CodecError::Invalid {
                what: "value tag",
                ..
            })
        ));
        // A length prefix larger than the remaining bytes is rejected
        // before any allocation.
        let mut e2 = Enc::new();
        e2.u64(u64::MAX);
        let mut d2 = Dec::new(&e2.buf);
        assert!(d2.len_of().is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut e = Enc::new();
        encode_value(&mut e, &Value::Int(1));
        e.u8(0xff);
        let mut d = Dec::new(&e.buf);
        decode_value(&mut d).unwrap();
        assert_eq!(d.finish(), Err(CodecError::TrailingBytes { remaining: 1 }));
    }
}
