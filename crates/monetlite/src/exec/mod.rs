//! Columnar query executor (operator-at-a-time).

pub mod eval;
pub mod join;

pub use eval::{cmp_sql, Evaluated};

use std::borrow::Cow;

use crate::engine::Engine;
use crate::error::DbError;
use crate::sql::ast::{FromClause, SelectItem, SelectStmt, SqlExpr, TableFuncArg};
use crate::table::Table;
use crate::types::{Column, SqlValue};
use crate::udf::{self, UdfInput};

/// Close an operator's `monet.op.*` span (inert unless someone is
/// listening — see [`obs::trace::span_active`]) with the fields that
/// `EXPLAIN ANALYZE` renders as the operator's row. `detail` is only built
/// when the span is live, so an untraced query pays one relaxed atomic
/// load per stage.
pub(crate) fn finish_op(
    mut span: obs::trace::SpanGuard,
    detail: impl FnOnce() -> String,
    rows_in: u64,
    rows_out: u64,
) {
    if span.id() != 0 {
        span.field("detail", detail());
        span.field("rows_in", rows_in);
        span.field("rows_out", rows_out);
    }
}

/// Short description of a FROM clause for scan plan rows.
fn from_detail(clause: &FromClause) -> String {
    match clause {
        FromClause::Table(name) => name.clone(),
        FromClause::Subquery(_) => "(subquery)".to_string(),
        FromClause::TableFunction { name, .. } => format!("{name}(...)"),
        FromClause::Join { .. } => "join".to_string(),
    }
}

/// Run a SELECT statement to a materialized table.
pub fn run_select(engine: &Engine, stmt: &SelectStmt) -> Result<Table, DbError> {
    // 1. Materialize the source.
    let mut source = match &stmt.from {
        None => None,
        Some(clause) => {
            let span = obs::trace::span_active("monet.op.scan");
            let table = materialize_from(engine, clause)?;
            let rows = table.row_count() as u64;
            finish_op(span, || from_detail(clause), rows, rows);
            Some(table)
        }
    };
    if let Some(table) = &source {
        obs::counter!("monet.rows.scanned").add(table.row_count() as u64);
    }

    // 2. WHERE.
    if let (Some(table), Some(pred)) = (&source, &stmt.predicate) {
        let span = obs::trace::span_active("monet.op.filter");
        let mask = eval::predicate_mask(engine, table, pred)?;
        let filtered = table.filter(&mask);
        finish_op(
            span,
            || "where".to_string(),
            table.row_count() as u64,
            filtered.row_count() as u64,
        );
        source = Some(filtered);
    }

    // 3. Projection (with grouping / aggregation and HAVING).
    let source_rows = source.as_ref().map(|t| t.row_count() as u64).unwrap_or(0);
    let mut result = if stmt.group_by.is_empty() {
        let span = obs::trace::span_active("monet.op.project");
        let result = project(engine, source.as_ref(), &stmt.items)?;
        finish_op(
            span,
            || format!("{} columns", stmt.items.len()),
            source_rows,
            result.row_count() as u64,
        );
        result
    } else {
        let table = source
            .as_ref()
            .ok_or_else(|| DbError::exec("GROUP BY requires a FROM clause"))?;
        let span = obs::trace::span_active("monet.op.group");
        let result = group_project(engine, table, stmt)?;
        finish_op(
            span,
            || format!("{} keys", stmt.group_by.len()),
            source_rows,
            result.row_count() as u64,
        );
        result
    };

    // 3b. DISTINCT: drop duplicate result rows (first occurrence wins).
    if stmt.distinct {
        let span = obs::trace::span_active("monet.op.distinct");
        let rows_in = result.row_count() as u64;
        let mut seen = std::collections::HashSet::new();
        let mask: Vec<bool> = (0..result.row_count())
            .map(|i| {
                let key = format!("{:?}", result.row(i));
                seen.insert(key)
            })
            .collect();
        result = result.filter(&mask);
        finish_op(
            span,
            || "distinct".to_string(),
            rows_in,
            result.row_count() as u64,
        );
    }

    // 4. ORDER BY.
    if !stmt.order_by.is_empty() {
        let span = obs::trace::span_active("monet.op.order");
        let rows = result.row_count() as u64;
        result = order_rows(engine, &result, source.as_ref(), &stmt.order_by)?;
        finish_op(span, || format!("{} keys", stmt.order_by.len()), rows, rows);
    }

    // 5. LIMIT.
    if let Some(n) = stmt.limit {
        let span = obs::trace::span_active("monet.op.limit");
        let rows_in = result.row_count() as u64;
        result = result.take(n);
        finish_op(
            span,
            || format!("limit {n}"),
            rows_in,
            result.row_count() as u64,
        );
    }
    obs::counter!("monet.rows.returned").add(result.row_count() as u64);
    Ok(result)
}

/// Materialize any FROM clause into a table (joins qualify their sides'
/// column names with the table alias).
fn materialize_from(engine: &Engine, clause: &FromClause) -> Result<Table, DbError> {
    match clause {
        FromClause::Table(name) => engine.get_table(name),
        FromClause::Subquery(sub) => run_select(engine, sub),
        FromClause::TableFunction { name, args } => run_table_function(engine, name, args),
        FromClause::Join {
            left,
            right,
            on,
            kind,
            aliases,
        } => {
            let l = join::qualify(materialize_from(engine, left)?, &aliases.0);
            let r = join::qualify(materialize_from(engine, right)?, &aliases.1);
            join::run_join(engine, l, r, on, *kind)
        }
    }
}

/// Derive an output column name for an expression.
fn output_name(item: &SelectItem, index: usize) -> String {
    match item {
        SelectItem::Star => "*".to_string(),
        SelectItem::Expr { alias: Some(a), .. } => a.clone(),
        SelectItem::Expr { expr, .. } => match expr {
            SqlExpr::Column(c) => c.rsplit('.').next().unwrap_or(c).to_string(),
            SqlExpr::Call { name, .. } => name.clone(),
            _ => format!("col{index}"),
        },
    }
}

/// Plain projection (no GROUP BY): evaluate each item columnar, broadcast
/// scalars, and assemble a rectangular result.
fn project(
    engine: &Engine,
    source: Option<&Table>,
    items: &[SelectItem],
) -> Result<Table, DbError> {
    let mut pieces: Vec<(String, Evaluated)> = Vec::new();
    for (i, item) in items.iter().enumerate() {
        match item {
            SelectItem::Star => {
                let table =
                    source.ok_or_else(|| DbError::exec("SELECT * requires a FROM clause"))?;
                for c in table.columns.iter() {
                    pieces.push((c.name.clone(), Evaluated::Column(Cow::Borrowed(c))));
                }
            }
            SelectItem::Expr { expr, .. } => {
                let v = eval::eval_expr(engine, source, expr)?;
                pieces.push((output_name(item, i), v));
            }
        }
    }
    // Determine row count: the longest column; all-scalar results get 1 row.
    let mut target: Option<usize> = None;
    for (_, v) in &pieces {
        if let Evaluated::Column(c) = v {
            match target {
                None => target = Some(c.len()),
                Some(t) if t == c.len() => {}
                Some(t) => {
                    return Err(DbError::exec(format!(
                        "select-list columns have different lengths ({t} vs {})",
                        c.len()
                    )))
                }
            }
        }
    }
    let rows = target.unwrap_or(1);
    let mut columns = Vec::with_capacity(pieces.len());
    for (name, v) in pieces {
        columns.push(match v {
            Evaluated::Column(c) => {
                let mut c = c.into_owned();
                c.name = name;
                c
            }
            Evaluated::Scalar(s) => {
                let mut col = Column::from_values(name, &vec![s; rows.max(1)])?;
                if rows == 0 {
                    col = col.take(0);
                }
                col
            }
        });
    }
    Table::from_columns("result", columns)
}

/// GROUP BY projection: evaluate key expressions, partition, then evaluate
/// the select items per group (aggregates reduce within the group).
fn group_project(engine: &Engine, table: &Table, stmt: &SelectStmt) -> Result<Table, DbError> {
    // Evaluate group keys as columns.
    let mut key_cols = Vec::with_capacity(stmt.group_by.len());
    for expr in &stmt.group_by {
        key_cols.push(eval::eval_expr(engine, Some(table), expr)?.into_cow(table.row_count())?);
    }
    // Partition rows by key tuple, preserving first-seen order.
    let mut order: Vec<Vec<usize>> = Vec::new();
    let mut index: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    for row in 0..table.row_count() {
        let key: String = key_cols
            .iter()
            .map(|c| format!("{:?}|", c.get(row)))
            .collect();
        match index.get(&key) {
            Some(&g) => order[g].push(row),
            None => {
                index.insert(key, order.len());
                order.push(vec![row]);
            }
        }
    }

    // Evaluate items per group.
    let names: Vec<String> = stmt
        .items
        .iter()
        .enumerate()
        .map(|(i, item)| output_name(item, i))
        .collect();
    let mut rows_out: Vec<Vec<SqlValue>> = Vec::with_capacity(order.len());
    for group_rows in &order {
        let mask: Vec<bool> = (0..table.row_count())
            .map(|r| group_rows.contains(&r))
            .collect();
        let sub = table.filter(&mask);
        let mut row = Vec::with_capacity(stmt.items.len());
        for item in &stmt.items {
            match item {
                SelectItem::Star => {
                    return Err(DbError::exec("SELECT * cannot be combined with GROUP BY"))
                }
                SelectItem::Expr { expr, .. } => {
                    let v = eval::eval_expr(engine, Some(&sub), expr)?;
                    row.push(match v {
                        Evaluated::Scalar(s) => s,
                        Evaluated::Column(c) => {
                            if c.is_empty() {
                                SqlValue::Null
                            } else {
                                c.get(0)
                            }
                        }
                    });
                }
            }
        }
        rows_out.push(row);
    }

    // HAVING: evaluate the predicate per group (against each group's
    // sub-table, so aggregates reduce within the group).
    if let Some(having) = &stmt.having {
        let mut keep = Vec::with_capacity(order.len());
        for group_rows in &order {
            let mask: Vec<bool> = (0..table.row_count())
                .map(|r| group_rows.contains(&r))
                .collect();
            let sub = table.filter(&mask);
            let v = eval::eval_expr(engine, Some(&sub), having)?;
            let truthy = match v {
                Evaluated::Scalar(SqlValue::Bool(b)) => b,
                Evaluated::Scalar(SqlValue::Null) => false,
                Evaluated::Scalar(other) => {
                    return Err(DbError::type_err(format!(
                        "HAVING must be boolean, got {}",
                        other.render()
                    )))
                }
                Evaluated::Column(c) => !c.is_empty() && matches!(c.get(0), SqlValue::Bool(true)),
            };
            keep.push(truthy);
        }
        rows_out = rows_out
            .into_iter()
            .zip(&keep)
            .filter(|(_, k)| **k)
            .map(|(r, _)| r)
            .collect();
    }

    let mut columns = Vec::with_capacity(names.len());
    for (i, name) in names.iter().enumerate() {
        let values: Vec<SqlValue> = rows_out.iter().map(|r| r[i].clone()).collect();
        columns.push(Column::from_values(name.clone(), &values)?);
    }
    Table::from_columns("result", columns)
}

/// Apply ORDER BY. Sort keys are resolved against the result columns first
/// (aliases), then against the source table when lengths line up.
fn order_rows(
    engine: &Engine,
    result: &Table,
    source: Option<&Table>,
    order_by: &[(SqlExpr, bool)],
) -> Result<Table, DbError> {
    let mut keys: Vec<(Cow<Column>, bool)> = Vec::with_capacity(order_by.len());
    for (expr, desc) in order_by {
        let evaluated =
            eval::eval_expr(engine, Some(result), expr).or_else(|first_err| match source {
                Some(s) if s.row_count() == result.row_count() => {
                    eval::eval_expr(engine, Some(s), expr)
                }
                _ => Err(first_err),
            })?;
        let col = evaluated.into_cow(result.row_count())?;
        if col.len() != result.row_count() {
            return Err(DbError::exec("ORDER BY key length mismatch"));
        }
        keys.push((col, *desc));
    }
    let mut perm: Vec<usize> = (0..result.row_count()).collect();
    perm.sort_by(|&a, &b| {
        for (col, desc) in &keys {
            let ord = cmp_sql(&col.get(a), &col.get(b));
            if ord != std::cmp::Ordering::Equal {
                return if *desc { ord.reverse() } else { ord };
            }
        }
        a.cmp(&b) // stable tiebreak
    });
    Ok(result.permute(&perm))
}

/// Execute a table-returning function in FROM (paper Listing 3 pattern):
/// subqueries contribute their output columns in order, scalar expressions
/// single values, and the call's rows are those of its longest input.
pub fn run_table_function(
    engine: &Engine,
    name: &str,
    args: &[TableFuncArg],
) -> Result<Table, DbError> {
    let mut inputs: Vec<UdfInput> = Vec::new();
    for arg in args {
        match arg {
            TableFuncArg::Query(sub) => {
                let t = run_select(engine, sub)?;
                inputs.extend(t.columns.into_iter().map(UdfInput::Column));
            }
            TableFuncArg::Expr(e) => inputs.push(match eval::eval_expr(engine, None, e)? {
                Evaluated::Scalar(s) => UdfInput::Scalar(s),
                Evaluated::Column(c) => UdfInput::Column(c.into_owned()),
            }),
        }
    }
    let rows = inputs.iter().map(UdfInput::rows).max().unwrap_or(1);
    udf::call(engine, name, inputs, rows)
}

#[cfg(test)]
mod tests {
    // The executor is exercised end-to-end through Engine::execute in
    // engine.rs tests and the crate-level integration tests.
}
