//! SQL types, scalar values and typed columns.

use std::fmt;

use crate::error::DbError;

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

/// Physical column storage: one typed vector.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    Int(Vec<i64>),
    Double(Vec<f64>),
    Str(Vec<String>),
    Bool(Vec<bool>),
    Blob(Vec<Vec<u8>>),
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
            SqlType::Integer => ColumnData::Int(Vec::new()),
            SqlType::Double => ColumnData::Double(Vec::new()),
            SqlType::String => ColumnData::Str(Vec::new()),
            SqlType::Boolean => ColumnData::Bool(Vec::new()),
            SqlType::Blob => ColumnData::Blob(Vec::new()),
        }
    }
}

/// A named, nullable column.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    pub name: String,
    pub data: ColumnData,
    /// `nulls[i]` is true when row `i` is NULL. Empty vec = no nulls.
    pub nulls: Vec<bool>,
}

impl Column {
    /// Column with no nulls.
    pub fn new(name: impl Into<String>, data: ColumnData) -> Self {
        Column {
            name: name.into(),
            data,
            nulls: Vec::new(),
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
        self.nulls.iter().any(|n| *n)
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
        let len_before = self.len();
        if value.is_null() {
            // Materialize the mask lazily.
            if self.nulls.len() < len_before {
                self.nulls.resize(len_before, false);
            }
            self.nulls.push(true);
            match &mut self.data {
                ColumnData::Int(v) => v.push(0),
                ColumnData::Double(v) => v.push(0.0),
                ColumnData::Str(v) => v.push(String::new()),
                ColumnData::Bool(v) => v.push(false),
                ColumnData::Blob(v) => v.push(Vec::new()),
            }
            return Ok(());
        }
        let coerced = value.coerce(self.sql_type())?;
        if !self.nulls.is_empty() {
            if self.nulls.len() < len_before {
                self.nulls.resize(len_before, false);
            }
            self.nulls.push(false);
        }
        match (&mut self.data, coerced) {
            (ColumnData::Int(v), SqlValue::Int(x)) => v.push(x),
            (ColumnData::Double(v), SqlValue::Double(x)) => v.push(x),
            (ColumnData::Str(v), SqlValue::Str(x)) => v.push(x),
            (ColumnData::Bool(v), SqlValue::Bool(x)) => v.push(x),
            (ColumnData::Blob(v), SqlValue::Blob(x)) => v.push(x),
            _ => unreachable!("coerce() returned a matching variant"),
        }
        Ok(())
    }

    /// Overwrite row `row` with a value already coerced to the column's
    /// type ([`SqlValue::coerce`]). NULL sets the mask and zeroes the slot,
    /// as [`Column::push`] does.
    pub fn set(&mut self, row: usize, value: SqlValue) {
        let null = value.is_null();
        if null && self.nulls.len() < self.len() {
            self.nulls.resize(self.len(), false);
        }
        if let Some(flag) = self.nulls.get_mut(row) {
            *flag = null;
        }
        match (&mut self.data, value) {
            (ColumnData::Int(v), SqlValue::Int(x)) => v[row] = x,
            (ColumnData::Double(v), SqlValue::Double(x)) => v[row] = x,
            (ColumnData::Str(v), SqlValue::Str(x)) => v[row] = x,
            (ColumnData::Bool(v), SqlValue::Bool(x)) => v[row] = x,
            (ColumnData::Blob(v), SqlValue::Blob(x)) => v[row] = x,
            (ColumnData::Int(v), SqlValue::Null) => v[row] = 0,
            (ColumnData::Double(v), SqlValue::Null) => v[row] = 0.0,
            (ColumnData::Str(v), SqlValue::Null) => v[row] = String::new(),
            (ColumnData::Bool(v), SqlValue::Null) => v[row] = false,
            (ColumnData::Blob(v), SqlValue::Null) => v[row] = Vec::new(),
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

    /// Keep only rows where `mask[i]` is true.
    pub fn filter(&self, mask: &[bool]) -> Column {
        fn pick<T: Clone>(v: &[T], mask: &[bool]) -> Vec<T> {
            v.iter()
                .zip(mask)
                .filter(|(_, m)| **m)
                .map(|(x, _)| x.clone())
                .collect()
        }
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(pick(v, mask)),
            ColumnData::Double(v) => ColumnData::Double(pick(v, mask)),
            ColumnData::Str(v) => ColumnData::Str(pick(v, mask)),
            ColumnData::Bool(v) => ColumnData::Bool(pick(v, mask)),
            ColumnData::Blob(v) => ColumnData::Blob(pick(v, mask)),
        };
        let nulls = if self.nulls.is_empty() {
            Vec::new()
        } else {
            pick(&self.nulls, mask)
        };
        Column {
            name: self.name.clone(),
            data,
            nulls,
        }
    }

    /// [`Column::filter`] in place.
    pub fn retain(&mut self, mask: &[bool]) {
        fn keep<T>(v: &mut Vec<T>, mask: &[bool]) {
            let mut mask = mask.iter();
            v.retain(|_| mask.next().copied().unwrap_or(false));
        }
        match &mut self.data {
            ColumnData::Int(v) => keep(v, mask),
            ColumnData::Double(v) => keep(v, mask),
            ColumnData::Str(v) => keep(v, mask),
            ColumnData::Bool(v) => keep(v, mask),
            ColumnData::Blob(v) => keep(v, mask),
        }
        keep(&mut self.nulls, mask);
    }

    /// Reorder rows by `perm` (row `i` of the result is old row `perm[i]`).
    pub fn permute(&self, perm: &[usize]) -> Column {
        fn pick<T: Clone>(v: &[T], perm: &[usize]) -> Vec<T> {
            perm.iter().map(|&i| v[i].clone()).collect()
        }
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(pick(v, perm)),
            ColumnData::Double(v) => ColumnData::Double(pick(v, perm)),
            ColumnData::Str(v) => ColumnData::Str(pick(v, perm)),
            ColumnData::Bool(v) => ColumnData::Bool(pick(v, perm)),
            ColumnData::Blob(v) => ColumnData::Blob(pick(v, perm)),
        };
        let nulls = if self.nulls.is_empty() {
            Vec::new()
        } else {
            pick(&self.nulls, perm)
        };
        Column {
            name: self.name.clone(),
            data,
            nulls,
        }
    }

    /// First `n` rows.
    pub fn take(&self, n: usize) -> Column {
        let n = n.min(self.len());
        let perm: Vec<usize> = (0..n).collect();
        self.permute(&perm)
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
