//! Tables: named collections of equal-length columns.
//!
//! Every column keeps its values and NULL mask in `Arc`-shared segments of
//! [`SEGMENT_ROWS`](crate::segments::SEGMENT_ROWS) rows
//! ([`crate::segments`], which records the measurement behind the size),
//! so cloning a table copies no rows, and a write copies only the segments
//! it touches that a clone still shares — MVCC at segment granularity. An
//! append copies at most the tail segment of each column and an UPDATE the
//! segments holding its rows; a DELETE under a held snapshot still
//! rewrites every segment from its first removed row on, which no
//! benchmark workload does.

use crate::error::DbError;
use crate::types::{Column, SqlType, SqlValue};

/// A materialized table (also used for query results).
///
/// Cloning a table — and therefore snapshotting a whole catalog — clones
/// one `Arc` per column segment and copies no rows. A write copies a
/// segment only when a published snapshot still holds it (copy-on-write).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    pub name: String,
    pub columns: Vec<Column>,
}

impl Table {
    /// Empty table with a declared schema.
    pub fn new(name: impl Into<String>, schema: &[(String, SqlType)]) -> Table {
        Table {
            name: name.into(),
            columns: schema
                .iter()
                .map(|(n, t)| Column::empty(n.clone(), *t))
                .collect(),
        }
    }

    /// Build a result table directly from columns, validating lengths.
    pub fn from_columns(name: impl Into<String>, columns: Vec<Column>) -> Result<Table, DbError> {
        if let Some(first) = columns.first() {
            let n = first.len();
            if let Some(bad) = columns.iter().find(|c| c.len() != n) {
                return Err(DbError::exec(format!(
                    "column '{}' has {} rows, expected {}",
                    bad.name,
                    bad.len(),
                    n
                )));
            }
        }
        Ok(Table {
            name: name.into(),
            columns,
        })
    }

    /// Number of rows (0 for a table with no columns).
    pub fn row_count(&self) -> usize {
        self.columns.first().map(|c| c.len()).unwrap_or(0)
    }

    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// Column by index.
    pub fn column(&self, idx: usize) -> Option<&Column> {
        self.columns.get(idx)
    }

    /// Column by (case-insensitive) name.
    pub fn column_by_name(&self, name: &str) -> Option<&Column> {
        self.columns
            .iter()
            .find(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Append one row of values (positionally).
    pub fn push_row(&mut self, row: &[SqlValue]) -> Result<(), DbError> {
        if row.len() != self.columns.len() {
            return Err(DbError::exec(format!(
                "row has {} values, table '{}' has {} columns",
                row.len(),
                self.name,
                self.columns.len()
            )));
        }
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.push(v)?;
        }
        Ok(())
    }

    /// Fetch one row as scalar values.
    pub fn row(&self, idx: usize) -> Vec<SqlValue> {
        self.columns.iter().map(|c| c.get(idx)).collect()
    }

    /// All rows (for tests and small results).
    pub fn rows(&self) -> Vec<Vec<SqlValue>> {
        (0..self.row_count()).map(|i| self.row(i)).collect()
    }

    /// Keep rows where mask is true.
    pub fn filter(&self, mask: &[bool]) -> Table {
        Table {
            name: self.name.clone(),
            columns: self.columns.iter().map(|c| c.filter(mask)).collect(),
        }
    }

    /// [`Table::filter`] in place (DELETE): the kept rows move down inside
    /// the existing segments from the first removed row on, each copied
    /// first if a snapshot shares it.
    pub fn retain_rows(&mut self, mask: &[bool]) {
        for column in &mut self.columns {
            column.retain(mask);
        }
    }

    /// Reorder rows.
    pub fn permute(&self, perm: &[usize]) -> Table {
        Table {
            name: self.name.clone(),
            columns: self.columns.iter().map(|c| c.permute(perm)).collect(),
        }
    }

    /// First `n` rows.
    pub fn take(&self, n: usize) -> Table {
        Table {
            name: self.name.clone(),
            columns: self.columns.iter().map(|c| c.take(n)).collect(),
        }
    }

    /// Schema as (name, type) pairs.
    pub fn schema(&self) -> Vec<(String, SqlType)> {
        self.columns
            .iter()
            .map(|c| (c.name.clone(), c.sql_type()))
            .collect()
    }

    /// Render as an ASCII grid (MonetDB-client style), used by the CLI and
    /// the figure regeneration binaries.
    pub fn render_ascii(&self) -> String {
        let headers: Vec<String> = self.columns.iter().map(|c| c.name.clone()).collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let rows: Vec<Vec<String>> = (0..self.row_count())
            .map(|i| {
                self.row(i)
                    .iter()
                    .enumerate()
                    .map(|(c, v)| {
                        let s = v.render();
                        widths[c] = widths[c].max(s.len());
                        s
                    })
                    .collect()
            })
            .collect();
        let sep = |widths: &[usize]| {
            let mut s = String::from("+");
            for w in widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            s.push('\n');
            s
        };
        let mut out = sep(&widths);
        out.push('|');
        for (h, w) in headers.iter().zip(&widths) {
            out.push_str(&format!(" {h:w$} |", w = w));
        }
        out.push('\n');
        out.push_str(&sep(&widths).replace('-', "="));
        for row in &rows {
            out.push('|');
            for (v, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {v:w$} |", w = w));
            }
            out.push('\n');
        }
        out.push_str(&sep(&widths));
        format!("{out}{} row(s)\n", self.row_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ColumnData;

    fn sample() -> Table {
        let mut t = Table::new(
            "t",
            &[
                ("i".to_string(), SqlType::Integer),
                ("s".to_string(), SqlType::String),
            ],
        );
        t.push_row(&[SqlValue::Int(1), SqlValue::Str("one".into())])
            .unwrap();
        t.push_row(&[SqlValue::Int(2), SqlValue::Str("two".into())])
            .unwrap();
        t.push_row(&[SqlValue::Int(3), SqlValue::Str("three".into())])
            .unwrap();
        t
    }

    #[test]
    fn push_and_fetch_rows() {
        let t = sample();
        assert_eq!(t.row_count(), 3);
        assert_eq!(
            t.row(1),
            vec![SqlValue::Int(2), SqlValue::Str("two".into())]
        );
    }

    #[test]
    fn row_arity_mismatch_errors() {
        let mut t = sample();
        assert!(t.push_row(&[SqlValue::Int(4)]).is_err());
    }

    #[test]
    fn column_lookup_is_case_insensitive() {
        let t = sample();
        assert!(t.column_by_name("I").is_some());
        assert_eq!(t.column_index("S"), Some(1));
        assert!(t.column_by_name("missing").is_none());
    }

    #[test]
    fn from_columns_validates_lengths() {
        let ok = Table::from_columns(
            "r",
            vec![
                Column::new("a", ColumnData::Int(vec![1, 2].into())),
                Column::new("b", ColumnData::Int(vec![3, 4].into())),
            ],
        );
        assert!(ok.is_ok());
        let bad = Table::from_columns(
            "r",
            vec![
                Column::new("a", ColumnData::Int(vec![1, 2].into())),
                Column::new("b", ColumnData::Int(vec![3].into())),
            ],
        );
        assert!(bad.is_err());
    }

    #[test]
    fn filter_take_permute() {
        let t = sample();
        let f = t.filter(&[true, false, true]);
        assert_eq!(f.row_count(), 2);
        assert_eq!(f.row(1)[0], SqlValue::Int(3));
        let p = t.permute(&[2, 1, 0]);
        assert_eq!(p.row(0)[0], SqlValue::Int(3));
        assert_eq!(t.take(2).row_count(), 2);
        assert_eq!(t.take(99).row_count(), 3);
    }

    #[test]
    fn ascii_rendering_matches_listing1_style() {
        let t = sample();
        let s = t.render_ascii();
        assert!(s.contains("| i | s"), "{s}");
        assert!(s.contains("| 2 | two"), "{s}");
        assert!(s.contains("3 row(s)"), "{s}");
        assert!(s.starts_with("+---"), "{s}");
    }
}
