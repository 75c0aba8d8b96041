//! SQL types, scalar values and typed columns.

use std::fmt;

use crate::error::DbError;
use crate::segments::Segments;

/// SQL column types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SqlType {
    Integer,
    Double,
    String,
    Boolean,
    Blob,
}

impl SqlType {
    /// Parse a type name as written in DDL (several aliases per type, like
    /// real SQL dialects).
    pub fn parse(name: &str) -> Option<SqlType> {
        Some(match name.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" | "BIGINT" | "SMALLINT" | "TINYINT" => SqlType::Integer,
            "DOUBLE" | "FLOAT" | "REAL" | "DECIMAL" | "NUMERIC" => SqlType::Double,
            "STRING" | "TEXT" | "VARCHAR" | "CHAR" | "CLOB" => SqlType::String,
            "BOOLEAN" | "BOOL" => SqlType::Boolean,
            "BLOB" | "BYTEA" | "BINARY" => SqlType::Blob,
            _ => return None,
        })
    }

    /// Canonical SQL name.
    pub fn name(&self) -> &'static str {
        match self {
            SqlType::Integer => "INTEGER",
            SqlType::Double => "DOUBLE",
            SqlType::String => "STRING",
            SqlType::Boolean => "BOOLEAN",
            SqlType::Blob => "BLOB",
        }
    }
}

impl fmt::Display for SqlType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A scalar SQL value (nullable).
#[derive(Debug, Clone, PartialEq)]
pub enum SqlValue {
    Null,
    Int(i64),
    Double(f64),
    Str(String),
    Bool(bool),
    Blob(Vec<u8>),
}

impl SqlValue {
    pub fn is_null(&self) -> bool {
        matches!(self, SqlValue::Null)
    }

    /// The most natural type of this value (`None` for NULL).
    pub fn sql_type(&self) -> Option<SqlType> {
        Some(match self {
            SqlValue::Null => return None,
            SqlValue::Int(_) => SqlType::Integer,
            SqlValue::Double(_) => SqlType::Double,
            SqlValue::Str(_) => SqlType::String,
            SqlValue::Bool(_) => SqlType::Boolean,
            SqlValue::Blob(_) => SqlType::Blob,
        })
    }

    /// Coerce to `target`, following permissive SQL casting rules
    /// (int↔double, bool→int, anything→string).
    pub fn coerce(&self, target: SqlType) -> Result<SqlValue, DbError> {
        if self.is_null() {
            return Ok(SqlValue::Null);
        }
        Ok(match (self, target) {
            (SqlValue::Int(i), SqlType::Integer) => SqlValue::Int(*i),
            (SqlValue::Int(i), SqlType::Double) => SqlValue::Double(*i as f64),
            (SqlValue::Int(i), SqlType::Boolean) => SqlValue::Bool(*i != 0),
            (SqlValue::Double(d), SqlType::Double) => SqlValue::Double(*d),
            (SqlValue::Double(d), SqlType::Integer) => SqlValue::Int(d.trunc() as i64),
            (SqlValue::Bool(b), SqlType::Boolean) => SqlValue::Bool(*b),
            (SqlValue::Bool(b), SqlType::Integer) => SqlValue::Int(*b as i64),
            (SqlValue::Bool(b), SqlType::Double) => SqlValue::Double(*b as i64 as f64),
            (SqlValue::Str(s), SqlType::String) => SqlValue::Str(s.clone()),
            (SqlValue::Str(s), SqlType::Integer) => SqlValue::Int(
                s.trim()
                    .parse()
                    .map_err(|_| DbError::type_err(format!("cannot cast '{s}' to INTEGER")))?,
            ),
            (SqlValue::Str(s), SqlType::Double) => SqlValue::Double(
                s.trim()
                    .parse()
                    .map_err(|_| DbError::type_err(format!("cannot cast '{s}' to DOUBLE")))?,
            ),
            (SqlValue::Blob(b), SqlType::Blob) => SqlValue::Blob(b.clone()),
            (v, SqlType::String) => SqlValue::Str(v.render()),
            (v, t) => {
                return Err(DbError::type_err(format!(
                    "cannot cast {} to {t}",
                    v.sql_type().map(|t| t.name()).unwrap_or("NULL")
                )))
            }
        })
    }

    /// Human-readable rendering (used by the CLI table printer).
    pub fn render(&self) -> String {
        match self {
            SqlValue::Null => "NULL".to_string(),
            SqlValue::Int(i) => i.to_string(),
            SqlValue::Double(d) => {
                if d.fract() == 0.0 && d.is_finite() && d.abs() < 1e15 {
                    format!("{d:.1}")
                } else {
                    format!("{d}")
                }
            }
            SqlValue::Str(s) => s.clone(),
            SqlValue::Bool(b) => if *b { "true" } else { "false" }.to_string(),
            SqlValue::Blob(b) => format!("<blob {} bytes>", b.len()),
        }
    }
}

/// Physical column storage: one typed vector in shared segments
/// ([`crate::segments`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    Int(Segments<i64>),
    Double(Segments<f64>),
    Str(Segments<String>),
    Bool(Segments<bool>),
    Blob(Segments<Vec<u8>>),
}

/// `$body` over whichever typed segments `$data` holds, bound to `$v`, as
/// the same variant.
macro_rules! same_variant {
    ($data:expr, |$v:ident| $body:expr) => {
        match $data {
            ColumnData::Int($v) => ColumnData::Int($body),
            ColumnData::Double($v) => ColumnData::Double($body),
            ColumnData::Str($v) => ColumnData::Str($body),
            ColumnData::Bool($v) => ColumnData::Bool($body),
            ColumnData::Blob($v) => ColumnData::Blob($body),
        }
    };
}

impl ColumnData {
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Double(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Blob(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn sql_type(&self) -> SqlType {
        match self {
            ColumnData::Int(_) => SqlType::Integer,
            ColumnData::Double(_) => SqlType::Double,
            ColumnData::Str(_) => SqlType::String,
            ColumnData::Bool(_) => SqlType::Boolean,
            ColumnData::Blob(_) => SqlType::Blob,
        }
    }

    /// Empty storage of the given type.
    pub fn empty(t: SqlType) -> ColumnData {
        match t {
            SqlType::Integer => ColumnData::Int(Segments::new()),
            SqlType::Double => ColumnData::Double(Segments::new()),
            SqlType::String => ColumnData::Str(Segments::new()),
            SqlType::Boolean => ColumnData::Bool(Segments::new()),
            SqlType::Blob => ColumnData::Blob(Segments::new()),
        }
    }
}

/// A named, nullable column.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    pub name: String,
    pub data: ColumnData,
    /// `nulls[i]` is true when row `i` is NULL. Empty = no nulls;
    /// otherwise as long as `data`, so it splits at the same rows.
    pub nulls: Segments<bool>,
}

impl Column {
    /// Column with no nulls.
    pub fn new(name: impl Into<String>, data: ColumnData) -> Self {
        Column {
            name: name.into(),
            data,
            nulls: Segments::new(),
        }
    }

    /// Empty column of a declared type.
    pub fn empty(name: impl Into<String>, t: SqlType) -> Self {
        Column::new(name, ColumnData::empty(t))
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn sql_type(&self) -> SqlType {
        self.data.sql_type()
    }

    pub fn is_null(&self, row: usize) -> bool {
        self.nulls.get(row).copied().unwrap_or(false)
    }

    pub fn has_nulls(&self) -> bool {
        self.nulls.slices().any(|s| s.contains(&true))
    }

    /// Fetch a scalar value (NULL-aware). Caller bounds-checks.
    pub fn get(&self, row: usize) -> SqlValue {
        if self.is_null(row) {
            return SqlValue::Null;
        }
        match &self.data {
            ColumnData::Int(v) => SqlValue::Int(v[row]),
            ColumnData::Double(v) => SqlValue::Double(v[row]),
            ColumnData::Str(v) => SqlValue::Str(v[row].clone()),
            ColumnData::Bool(v) => SqlValue::Bool(v[row]),
            ColumnData::Blob(v) => SqlValue::Blob(v[row].clone()),
        }
    }

    /// Append a value, coercing to the column's type; NULL extends the mask.
    pub fn push(&mut self, value: &SqlValue) -> Result<(), DbError> {
        let coerced = value.coerce(self.sql_type())?;
        self.extend_coerced(std::iter::once(&coerced));
        Ok(())
    }

    /// Append values already coerced to the column's type
    /// ([`SqlValue::coerce`]), a segment at a time. A NULL zeroes its slot
    /// and sets its bit in the mask, which is made only once a NULL comes.
    pub fn extend_coerced<'v>(&mut self, values: impl Iterator<Item = &'v SqlValue> + Clone) {
        if !self.nulls.is_empty() || values.clone().any(SqlValue::is_null) {
            self.nulls.resize(self.len(), false);
            self.nulls.extend(values.clone().map(SqlValue::is_null));
        }
        fn wrong<T>() -> T {
            unreachable!("extend_coerced() takes values coerced to the column's type")
        }
        match &mut self.data {
            ColumnData::Int(v) => v.extend(values.map(|x| match x {
                SqlValue::Int(i) => *i,
                SqlValue::Null => 0,
                _ => wrong(),
            })),
            ColumnData::Double(v) => v.extend(values.map(|x| match x {
                SqlValue::Double(d) => *d,
                SqlValue::Null => 0.0,
                _ => wrong(),
            })),
            ColumnData::Str(v) => v.extend(values.map(|x| match x {
                SqlValue::Str(s) => s.clone(),
                SqlValue::Null => String::new(),
                _ => wrong(),
            })),
            ColumnData::Bool(v) => v.extend(values.map(|x| match x {
                SqlValue::Bool(b) => *b,
                SqlValue::Null => false,
                _ => wrong(),
            })),
            ColumnData::Blob(v) => v.extend(values.map(|x| match x {
                SqlValue::Blob(b) => b.clone(),
                SqlValue::Null => Vec::new(),
                _ => wrong(),
            })),
        }
    }

    /// Overwrite row `row` with a value already coerced to the column's
    /// type ([`SqlValue::coerce`]). NULL sets the mask and zeroes the slot,
    /// as [`Column::push`] does. Only the segments written are copied if a
    /// snapshot shares them.
    pub fn set(&mut self, row: usize, value: SqlValue) {
        let null = value.is_null();
        if null {
            self.nulls.resize(self.len(), false);
        }
        if self.nulls.get(row).is_some_and(|&flag| flag != null) {
            self.nulls.set(row, null);
        }
        match (&mut self.data, value) {
            (ColumnData::Int(v), SqlValue::Int(x)) => v.set(row, x),
            (ColumnData::Double(v), SqlValue::Double(x)) => v.set(row, x),
            (ColumnData::Str(v), SqlValue::Str(x)) => v.set(row, x),
            (ColumnData::Bool(v), SqlValue::Bool(x)) => v.set(row, x),
            (ColumnData::Blob(v), SqlValue::Blob(x)) => v.set(row, x),
            (ColumnData::Int(v), SqlValue::Null) => v.set(row, 0),
            (ColumnData::Double(v), SqlValue::Null) => v.set(row, 0.0),
            (ColumnData::Str(v), SqlValue::Null) => v.set(row, String::new()),
            (ColumnData::Bool(v), SqlValue::Null) => v.set(row, false),
            (ColumnData::Blob(v), SqlValue::Null) => v.set(row, Vec::new()),
            _ => unreachable!("set() takes a value coerced to the column's type"),
        }
    }

    /// Build a column from scalar values, inferring the type from the first
    /// non-null value (NULL-only columns default to INTEGER).
    pub fn from_values(name: impl Into<String>, values: &[SqlValue]) -> Result<Column, DbError> {
        let inferred = values
            .iter()
            .find_map(|v| v.sql_type())
            .unwrap_or(SqlType::Integer);
        // Promote to DOUBLE if any value is a double among ints.
        let target = if inferred == SqlType::Integer
            && values.iter().any(|v| matches!(v, SqlValue::Double(_)))
        {
            SqlType::Double
        } else {
            inferred
        };
        let mut col = Column::empty(name, target);
        for v in values {
            col.push(v)?;
        }
        Ok(col)
    }

    /// This column's name over `data`, with the mask that `mask` derives
    /// from this column's (none if it has none).
    fn with_data(
        &self,
        data: ColumnData,
        mask: impl Fn(&Segments<bool>) -> Segments<bool>,
    ) -> Column {
        Column {
            name: self.name.clone(),
            data,
            nulls: if self.nulls.is_empty() {
                Segments::new()
            } else {
                mask(&self.nulls)
            },
        }
    }

    /// Keep only rows where `mask[i]` is true.
    pub fn filter(&self, mask: &[bool]) -> Column {
        let data = same_variant!(&self.data, |v| v.filter(mask));
        self.with_data(data, |n| n.filter(mask))
    }

    /// [`Column::filter`] in place.
    pub fn retain(&mut self, mask: &[bool]) {
        match &mut self.data {
            ColumnData::Int(v) => v.retain(mask),
            ColumnData::Double(v) => v.retain(mask),
            ColumnData::Str(v) => v.retain(mask),
            ColumnData::Bool(v) => v.retain(mask),
            ColumnData::Blob(v) => v.retain(mask),
        }
        self.nulls.retain(mask);
    }

    /// Reorder rows by `perm` (row `i` of the result is old row `perm[i]`).
    pub fn permute(&self, perm: &[usize]) -> Column {
        let data = same_variant!(&self.data, |v| v.permute(perm));
        self.with_data(data, |n| n.permute(perm))
    }

    /// First `n` rows, sharing the whole segments among them.
    pub fn take(&self, n: usize) -> Column {
        let data = same_variant!(&self.data, |v| v.take(n));
        self.with_data(data, |m| m.take(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_parsing_aliases() {
        assert_eq!(SqlType::parse("int"), Some(SqlType::Integer));
        assert_eq!(SqlType::parse("VARCHAR"), Some(SqlType::String));
        assert_eq!(SqlType::parse("real"), Some(SqlType::Double));
        assert_eq!(SqlType::parse("bool"), Some(SqlType::Boolean));
        assert_eq!(SqlType::parse("bytea"), Some(SqlType::Blob));
        assert_eq!(SqlType::parse("gibberish"), None);
    }

    #[test]
    fn coercions() {
        assert_eq!(
            SqlValue::Int(3).coerce(SqlType::Double).unwrap(),
            SqlValue::Double(3.0)
        );
        assert_eq!(
            SqlValue::Str("42".into()).coerce(SqlType::Integer).unwrap(),
            SqlValue::Int(42)
        );
        assert_eq!(
            SqlValue::Bool(true).coerce(SqlType::Integer).unwrap(),
            SqlValue::Int(1)
        );
        assert_eq!(
            SqlValue::Int(7).coerce(SqlType::String).unwrap(),
            SqlValue::Str("7".into())
        );
        assert!(SqlValue::Str("abc".into())
            .coerce(SqlType::Integer)
            .is_err());
        assert!(SqlValue::Blob(vec![1]).coerce(SqlType::Integer).is_err());
        assert_eq!(
            SqlValue::Null.coerce(SqlType::Integer).unwrap(),
            SqlValue::Null
        );
    }

    #[test]
    fn column_push_and_get() {
        let mut c = Column::empty("x", SqlType::Integer);
        c.push(&SqlValue::Int(1)).unwrap();
        c.push(&SqlValue::Null).unwrap();
        c.push(&SqlValue::Int(3)).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), SqlValue::Int(1));
        assert_eq!(c.get(1), SqlValue::Null);
        assert_eq!(c.get(2), SqlValue::Int(3));
        assert!(c.has_nulls());
    }

    #[test]
    fn push_coerces() {
        let mut c = Column::empty("d", SqlType::Double);
        c.push(&SqlValue::Int(2)).unwrap();
        assert_eq!(c.get(0), SqlValue::Double(2.0));
        let mut c = Column::empty("i", SqlType::Integer);
        assert!(c.push(&SqlValue::Str("nope".into())).is_err());
    }

    #[test]
    fn from_values_promotes_int_to_double() {
        let c = Column::from_values("v", &[SqlValue::Int(1), SqlValue::Double(2.5)]).unwrap();
        assert_eq!(c.sql_type(), SqlType::Double);
        assert_eq!(c.get(0), SqlValue::Double(1.0));
    }

    #[test]
    fn from_values_null_handling() {
        let c = Column::from_values("v", &[SqlValue::Null, SqlValue::Int(2)]).unwrap();
        assert!(c.is_null(0));
        assert_eq!(c.get(1), SqlValue::Int(2));
        let all_null = Column::from_values("v", &[SqlValue::Null]).unwrap();
        assert_eq!(all_null.sql_type(), SqlType::Integer);
        assert!(all_null.is_null(0));
    }

    #[test]
    fn filter_and_permute_preserve_nulls() {
        let c = Column::from_values(
            "v",
            &[
                SqlValue::Int(0),
                SqlValue::Null,
                SqlValue::Int(2),
                SqlValue::Int(3),
            ],
        )
        .unwrap();
        let f = c.filter(&[false, true, true, false]);
        assert_eq!(f.len(), 2);
        assert!(f.is_null(0));
        assert_eq!(f.get(1), SqlValue::Int(2));
        let mut r = c.clone();
        r.retain(&[false, true, true, false]);
        assert_eq!(r, f);
        let p = c.permute(&[3, 0]);
        assert_eq!(p.get(0), SqlValue::Int(3));
        assert_eq!(p.get(1), SqlValue::Int(0));
    }

    #[test]
    fn render_values() {
        assert_eq!(SqlValue::Double(2.0).render(), "2.0");
        assert_eq!(SqlValue::Double(2.5).render(), "2.5");
        assert_eq!(SqlValue::Null.render(), "NULL");
        assert_eq!(SqlValue::Bool(true).render(), "true");
        assert_eq!(SqlValue::Blob(vec![1, 2]).render(), "<blob 2 bytes>");
    }
}
