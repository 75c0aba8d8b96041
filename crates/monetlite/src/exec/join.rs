//! Join execution: hash equi-join fast path, nested-loop fallback.

use crate::engine::Engine;
use crate::error::DbError;
use crate::exec::eval;
use crate::sql::ast::{BinaryOp, JoinKind, SqlExpr};
use crate::table::Table;
use crate::types::{Column, SqlValue};

/// Qualify every column of `table` as `<alias>.<name>` unless it is already
/// qualified (joined intermediates keep their qualifiers).
pub fn qualify(mut table: Table, alias: &str) -> Table {
    for c in &mut table.columns {
        if !c.name.contains('.') {
            c.name = format!("{alias}.{}", c.name);
        }
    }
    table
}

/// Execute a join between two materialized sides.
pub fn run_join(
    engine: &Engine,
    left: Table,
    right: Table,
    on: &SqlExpr,
    kind: JoinKind,
) -> Result<Table, DbError> {
    // Equi-join fast path: ON <colref> = <colref> with one side each.
    if let SqlExpr::Binary {
        left: l,
        op: BinaryOp::Eq,
        right: r,
    } = on
    {
        if let (SqlExpr::Column(a), SqlExpr::Column(b)) = (l.as_ref(), r.as_ref()) {
            let la = eval::resolve_column(&left, a).ok();
            let ra = eval::resolve_column(&right, b).ok();
            let lb = eval::resolve_column(&left, b).ok();
            let rb = eval::resolve_column(&right, a).ok();
            let pair = match (la, ra, lb, rb) {
                (Some(lc), Some(rc), _, _) | (_, _, Some(lc), Some(rc)) => Some((lc, rc)),
                _ => None,
            };
            if let Some((lkey, rkey)) = pair {
                return hash_join(&left, &right, lkey, rkey, kind);
            }
        }
    }
    nested_loop_join(engine, &left, &right, on, kind)
}

/// A hashable rendering of a join key (NULL never matches anything).
fn key_of(v: &SqlValue) -> Option<String> {
    match v {
        SqlValue::Null => None,
        SqlValue::Int(i) => Some(format!("i{i}")),
        SqlValue::Double(d) => {
            // Normalize integral doubles so 1 == 1.0 joins.
            if d.fract() == 0.0 && d.is_finite() {
                Some(format!("i{}", *d as i64))
            } else {
                Some(format!("d{d}"))
            }
        }
        SqlValue::Str(s) => Some(format!("s{s}")),
        SqlValue::Bool(b) => Some(format!("b{b}")),
        SqlValue::Blob(b) => Some(format!("x{}", codecs_hex(b))),
    }
}

fn codecs_hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

fn hash_join(
    left: &Table,
    right: &Table,
    lkey: &Column,
    rkey: &Column,
    kind: JoinKind,
) -> Result<Table, DbError> {
    // Build side: right.
    let mut index: std::collections::HashMap<String, Vec<usize>> = std::collections::HashMap::new();
    for row in 0..right.row_count() {
        if let Some(k) = key_of(&rkey.get(row)) {
            index.entry(k).or_default().push(row);
        }
    }
    let mut left_rows = Vec::new();
    let mut right_rows: Vec<Option<usize>> = Vec::new();
    for lrow in 0..left.row_count() {
        match key_of(&lkey.get(lrow)).and_then(|k| index.get(&k)) {
            Some(matches) => {
                for &rrow in matches {
                    left_rows.push(lrow);
                    right_rows.push(Some(rrow));
                }
            }
            None => {
                if kind == JoinKind::Left {
                    left_rows.push(lrow);
                    right_rows.push(None);
                }
            }
        }
    }
    assemble(left, right, &left_rows, &right_rows)
}

fn nested_loop_join(
    engine: &Engine,
    left: &Table,
    right: &Table,
    on: &SqlExpr,
    kind: JoinKind,
) -> Result<Table, DbError> {
    // Evaluate the predicate once over the full cross product, columnar.
    let (n, m) = (left.row_count(), right.row_count());
    let mut cross_cols: Vec<Column> = Vec::with_capacity(left.columns.len() + right.columns.len());
    for c in left.columns.iter() {
        let perm: Vec<usize> = (0..n).flat_map(|i| std::iter::repeat_n(i, m)).collect();
        cross_cols.push(c.permute(&perm));
    }
    for c in right.columns.iter() {
        let perm: Vec<usize> = (0..n).flat_map(|_| 0..m).collect();
        cross_cols.push(c.permute(&perm));
    }
    let cross = Table::from_columns("join", cross_cols)?;
    let mask = eval::predicate_mask(engine, &cross, on)?;

    let mut left_rows = Vec::new();
    let mut right_rows: Vec<Option<usize>> = Vec::new();
    for i in 0..n {
        let mut matched = false;
        for j in 0..m {
            if mask[i * m + j] {
                left_rows.push(i);
                right_rows.push(Some(j));
                matched = true;
            }
        }
        if !matched && kind == JoinKind::Left {
            left_rows.push(i);
            right_rows.push(None);
        }
    }
    assemble(left, right, &left_rows, &right_rows)
}

/// Build the output table from matched row pairs.
fn assemble(
    left: &Table,
    right: &Table,
    left_rows: &[usize],
    right_rows: &[Option<usize>],
) -> Result<Table, DbError> {
    let mut columns = Vec::with_capacity(left.columns.len() + right.columns.len());
    for c in left.columns.iter() {
        columns.push(c.permute(left_rows));
    }
    for c in right.columns.iter() {
        let mut out = Column::empty(c.name.clone(), c.sql_type());
        for r in right_rows {
            match r {
                Some(row) => out.push(&c.get(*row))?,
                None => out.push(&SqlValue::Null)?,
            }
        }
        columns.push(out);
    }
    Table::from_columns("join", columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    fn orders_db() -> Engine {
        let db = Engine::new();
        db.execute("CREATE TABLE customers (id INTEGER, name STRING)")
            .unwrap();
        db.execute("INSERT INTO customers VALUES (1, 'ada'), (2, 'bob'), (3, 'eve')")
            .unwrap();
        db.execute("CREATE TABLE orders (id INTEGER, cust INTEGER, total INTEGER)")
            .unwrap();
        db.execute("INSERT INTO orders VALUES (10, 1, 100), (11, 1, 50), (12, 2, 75), (13, 9, 1)")
            .unwrap();
        db
    }

    #[test]
    fn inner_equi_join() {
        let db = orders_db();
        let t = db
            .execute(
                "SELECT customers.name, orders.total FROM orders JOIN customers ON orders.cust = customers.id ORDER BY orders.total",
            )
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.row(0)[0], SqlValue::Str("ada".into()));
        assert_eq!(t.row(0)[1], SqlValue::Int(50));
        assert_eq!(t.row(2)[1], SqlValue::Int(100));
    }

    #[test]
    fn left_join_pads_nulls() {
        let db = orders_db();
        let t = db
            .execute(
                "SELECT o.id, c.name FROM orders o LEFT JOIN customers c ON o.cust = c.id ORDER BY o.id",
            )
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.row_count(), 4);
        // Order 13 has no customer: name is NULL.
        assert_eq!(t.row(3)[0], SqlValue::Int(13));
        assert_eq!(t.row(3)[1], SqlValue::Null);
    }

    #[test]
    fn aliases_qualify_ambiguous_columns() {
        let db = orders_db();
        // Both tables have `id`; qualification disambiguates.
        let t = db
            .execute(
                "SELECT o.id, c.id FROM orders o JOIN customers c ON o.cust = c.id ORDER BY o.id",
            )
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.row(0)[0], SqlValue::Int(10));
        assert_eq!(t.row(0)[1], SqlValue::Int(1));
        // A bare ambiguous `id` is an error.
        let err = db
            .execute("SELECT id FROM orders o JOIN customers c ON o.cust = c.id")
            .unwrap_err();
        assert!(err.message.contains("ambiguous"), "{err}");
    }

    #[test]
    fn join_with_aggregation() {
        let db = orders_db();
        let t = db
            .execute(
                "SELECT c.name, sum(o.total) AS spent FROM orders o JOIN customers c ON o.cust = c.id GROUP BY c.name ORDER BY spent DESC",
            )
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(
            t.row(0),
            vec![SqlValue::Str("ada".into()), SqlValue::Int(150)]
        );
        assert_eq!(
            t.row(1),
            vec![SqlValue::Str("bob".into()), SqlValue::Int(75)]
        );
    }

    #[test]
    fn non_equi_join_falls_back_to_nested_loop() {
        let db = orders_db();
        let t = db
            .execute("SELECT count(*) FROM orders o JOIN customers c ON o.cust < c.id")
            .unwrap()
            .into_table()
            .unwrap();
        // cust=1 matches ids 2,3 (×2 orders) ; cust=2 matches id 3.
        assert_eq!(t.row(0)[0], SqlValue::Int(5));
    }

    #[test]
    fn chained_three_way_join() {
        let db = orders_db();
        db.execute("CREATE TABLE regions (cust INTEGER, region STRING)")
            .unwrap();
        db.execute("INSERT INTO regions VALUES (1, 'eu'), (2, 'us')")
            .unwrap();
        let t = db
            .execute(
                "SELECT c.name, r.region FROM orders o JOIN customers c ON o.cust = c.id JOIN regions r ON r.cust = c.id ORDER BY c.name",
            )
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.row(0)[1], SqlValue::Str("eu".into()));
        assert_eq!(t.row(2)[1], SqlValue::Str("us".into()));
    }

    #[test]
    fn join_against_subquery() {
        let db = orders_db();
        let t = db
            .execute(
                "SELECT c.name FROM (SELECT cust FROM orders WHERE total > 60) big JOIN customers c ON big.cust = c.id ORDER BY c.name",
            )
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.row(0)[0], SqlValue::Str("ada".into()));
        assert_eq!(t.row(1)[0], SqlValue::Str("bob".into()));
    }
}
