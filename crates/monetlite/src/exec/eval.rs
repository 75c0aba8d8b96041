//! Columnar expression evaluation.

use std::borrow::Cow;
use std::cmp::Ordering;

use crate::engine::Engine;
use crate::error::DbError;
use crate::segments::Segments;
use crate::sql::ast::{BinaryOp, SqlExpr, UnaryOp};
use crate::table::Table;
use crate::types::{Column, ColumnData, SqlValue};
use crate::udf::{self, UdfInput};

/// Result of evaluating an expression against a table `'t`: a whole column
/// or a single scalar (literals, aggregates, scalar-returning UDFs). A bare
/// column reference borrows the source table's column; computed columns
/// are owned. Only callers that keep the data copy a borrowed column.
#[derive(Debug, Clone)]
pub enum Evaluated<'t> {
    Column(Cow<'t, Column>),
    Scalar(SqlValue),
}

impl<'t> Evaluated<'t> {
    /// A computed column.
    pub fn owned(column: Column) -> Self {
        Evaluated::Column(Cow::Owned(column))
    }

    /// Value at row `i` (scalars broadcast).
    pub fn get(&self, i: usize) -> SqlValue {
        match self {
            Evaluated::Column(c) => c.get(i),
            Evaluated::Scalar(s) => s.clone(),
        }
    }

    /// Length if columnar.
    pub fn column_len(&self) -> Option<usize> {
        match self {
            Evaluated::Column(c) => Some(c.len()),
            Evaluated::Scalar(_) => None,
        }
    }

    /// Materialize as a column of `rows` values, still borrowing a source
    /// column (scalars broadcast into a new column named `key`).
    pub fn into_cow(self, rows: usize) -> Result<Cow<'t, Column>, DbError> {
        match self {
            Evaluated::Column(c) => Ok(c),
            Evaluated::Scalar(s) => Ok(Cow::Owned(Column::from_values("key", &vec![s; rows])?)),
        }
    }

    /// Detach from the source table (copies a borrowed column).
    pub fn into_owned(self) -> Evaluated<'static> {
        match self {
            Evaluated::Column(c) => Evaluated::owned(c.into_owned()),
            Evaluated::Scalar(s) => Evaluated::Scalar(s),
        }
    }
}

/// Names of aggregate functions handled by the evaluator.
fn is_aggregate(name: &str) -> bool {
    matches!(
        name.to_ascii_lowercase().as_str(),
        "count" | "sum" | "avg" | "min" | "max" | "median"
    )
}

/// Names of the scalar functions the evaluator answers itself.
const SCALAR_BUILTINS: &[&str] = &[
    "__seq", "abs", "length", "upper", "lower", "sqrt", "floor", "ceil", "ceiling", "round",
];

/// Whether the evaluator answers a call to `name` itself. Every other call
/// name is a stored function, which runs through `udf::call`.
pub(crate) fn is_builtin(name: &str) -> bool {
    is_aggregate(name) || SCALAR_BUILTINS.contains(&name.to_ascii_lowercase().as_str())
}

/// Evaluate `expr` against `source` (None = no FROM clause).
pub fn eval_expr<'t>(
    engine: &Engine,
    source: Option<&'t Table>,
    expr: &SqlExpr,
) -> Result<Evaluated<'t>, DbError> {
    match expr {
        SqlExpr::Literal(v) => Ok(Evaluated::Scalar(v.clone())),
        SqlExpr::Star => Err(DbError::exec("'*' is only valid inside count(*)")),
        SqlExpr::Column(name) => {
            let table = source.ok_or_else(|| {
                DbError::catalog(format!("column '{name}' referenced without a FROM clause"))
            })?;
            resolve_column(table, name).map(|c| Evaluated::Column(Cow::Borrowed(c)))
        }
        SqlExpr::Unary { op, expr } => {
            let v = eval_expr(engine, source, expr)?;
            apply_unary(*op, v)
        }
        SqlExpr::Binary { left, op, right } => {
            let l = eval_expr(engine, source, left)?;
            let r = eval_expr(engine, source, right)?;
            apply_binary(*op, l, r)
        }
        SqlExpr::IsNull { expr, negated } => {
            let v = eval_expr(engine, source, expr)?;
            Ok(match v {
                Evaluated::Scalar(s) => Evaluated::Scalar(SqlValue::Bool(s.is_null() != *negated)),
                Evaluated::Column(c) => {
                    let out: Vec<SqlValue> = (0..c.len())
                        .map(|i| SqlValue::Bool(c.is_null(i) != *negated))
                        .collect();
                    Evaluated::owned(Column::from_values("is_null", &out)?)
                }
            })
        }
        SqlExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval_expr(engine, source, expr)?;
            let p = eval_expr(engine, source, pattern)?;
            let Evaluated::Scalar(SqlValue::Str(pat)) = p else {
                return Err(DbError::type_err("LIKE pattern must be a string literal"));
            };
            let apply = |s: &SqlValue| -> Result<SqlValue, DbError> {
                match s {
                    SqlValue::Null => Ok(SqlValue::Null),
                    SqlValue::Str(text) => Ok(SqlValue::Bool(like_match(text, &pat) != *negated)),
                    other => Err(DbError::type_err(format!(
                        "LIKE requires a string operand, got {}",
                        other.sql_type().map(|t| t.name()).unwrap_or("NULL")
                    ))),
                }
            };
            map_evaluated(v, "like", apply)
        }
        SqlExpr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval_expr(engine, source, expr)?;
            let mut options = Vec::with_capacity(list.len());
            for item in list {
                match eval_expr(engine, source, item)? {
                    Evaluated::Scalar(s) => options.push(s),
                    Evaluated::Column(_) => {
                        return Err(DbError::type_err("IN list items must be scalars"))
                    }
                }
            }
            if let Evaluated::Column(c) = &v {
                if let Some(hits) = in_list_typed(c, &options, *negated) {
                    return Ok(Evaluated::owned(Column::new("in", ColumnData::Bool(hits))));
                }
            }
            map_evaluated(v, "in", |s| Ok(in_list_row(s, &options, *negated)))
        }
        SqlExpr::Call { name, args } => eval_call(engine, source, name, args),
        SqlExpr::Cast { expr, target } => {
            let v = eval_expr(engine, source, expr)?;
            let target = *target;
            // Typed fast paths for the numeric casts the UDF inliner emits
            // (float()/int() lower to CAST); identical to `coerce` per value.
            if let Evaluated::Column(c) = &v {
                if !c.has_nulls() {
                    use crate::types::SqlType;
                    match (&c.data, target) {
                        (ColumnData::Int(_), SqlType::Integer)
                        | (ColumnData::Double(_), SqlType::Double) => return Ok(v),
                        (ColumnData::Int(ints), SqlType::Double) => {
                            return Ok(Evaluated::owned(Column::new(
                                "cast",
                                ColumnData::Double(
                                    ints.map_slices(|s| s.iter().map(|&x| x as f64).collect()),
                                ),
                            )))
                        }
                        (ColumnData::Double(ds), SqlType::Integer) => {
                            return Ok(Evaluated::owned(Column::new(
                                "cast",
                                ColumnData::Int(
                                    ds.map_slices(|s| s.iter().map(|d| d.trunc() as i64).collect()),
                                ),
                            )))
                        }
                        _ => {}
                    }
                }
            }
            map_evaluated(v, "cast", move |s| s.coerce(target))
        }
        SqlExpr::Case { branches, else_ } => eval_case(engine, source, branches, else_),
    }
}

/// Evaluate each distinct aggregate subexpression of an inlined UDF plan
/// once and substitute its scalar result as a literal, innermost first.
///
/// Sound because the inlined subset is pure and every non-CASE position is
/// evaluated eagerly: a hoisted aggregate's value — and any error — is
/// exactly what the plain evaluation would produce, just computed once
/// instead of per occurrence (the lowering substitutes bound variables, so
/// `mean = sum(c)/len(c)` repeats its aggregates at every use site).
/// CASE subtrees are left untouched on both the collect and replace side:
/// branch values run lazily, possibly against filtered sub-tables.
pub(crate) fn hoist_aggregates(
    engine: &Engine,
    table: &Table,
    expr: &SqlExpr,
) -> Result<SqlExpr, DbError> {
    let mut expr = expr.clone();
    loop {
        let mut found: Vec<SqlExpr> = Vec::new();
        collect_innermost_aggregates(&expr, &mut found);
        if found.is_empty() {
            return Ok(expr);
        }
        for agg in found {
            let value = match eval_expr(engine, Some(table), &agg)? {
                Evaluated::Scalar(s) => s,
                Evaluated::Column(_) => return Err(DbError::exec("aggregate produced a column")),
            };
            let lit = SqlExpr::Literal(value);
            replace_subexpr(&mut expr, &agg, &lit);
        }
    }
}

/// Collect aggregate calls whose arguments contain no further aggregates
/// (outside CASE), deduplicated. Returns whether `expr` contains any
/// aggregate at a non-CASE-nested position.
fn collect_innermost_aggregates(expr: &SqlExpr, out: &mut Vec<SqlExpr>) -> bool {
    match expr {
        SqlExpr::Literal(_) | SqlExpr::Column(_) | SqlExpr::Star => false,
        SqlExpr::Unary { expr, .. } | SqlExpr::Cast { expr, .. } | SqlExpr::IsNull { expr, .. } => {
            collect_innermost_aggregates(expr, out)
        }
        SqlExpr::Like { expr, pattern, .. } => {
            let a = collect_innermost_aggregates(expr, out);
            let b = collect_innermost_aggregates(pattern, out);
            a | b
        }
        SqlExpr::Binary { left, right, .. } => {
            let a = collect_innermost_aggregates(left, out);
            let b = collect_innermost_aggregates(right, out);
            a | b
        }
        SqlExpr::InList { expr, list, .. } => {
            let mut any = collect_innermost_aggregates(expr, out);
            for item in list {
                any |= collect_innermost_aggregates(item, out);
            }
            any
        }
        // Opaque: lazy branches may see filtered sub-tables.
        SqlExpr::Case { .. } => false,
        SqlExpr::Call { name, args } => {
            let mut inner = false;
            for a in args {
                inner |= collect_innermost_aggregates(a, out);
            }
            if is_aggregate(name) {
                if !inner && !out.contains(expr) {
                    out.push(expr.clone());
                }
                return true;
            }
            inner
        }
    }
}

fn replace_subexpr(expr: &mut SqlExpr, target: &SqlExpr, replacement: &SqlExpr) {
    if expr == target {
        *expr = replacement.clone();
        return;
    }
    match expr {
        SqlExpr::Literal(_) | SqlExpr::Column(_) | SqlExpr::Star => {}
        SqlExpr::Unary { expr, .. } | SqlExpr::Cast { expr, .. } | SqlExpr::IsNull { expr, .. } => {
            replace_subexpr(expr, target, replacement)
        }
        SqlExpr::Like { expr, pattern, .. } => {
            replace_subexpr(expr, target, replacement);
            replace_subexpr(pattern, target, replacement);
        }
        SqlExpr::Binary { left, right, .. } => {
            replace_subexpr(left, target, replacement);
            replace_subexpr(right, target, replacement);
        }
        SqlExpr::InList { expr, list, .. } => {
            replace_subexpr(expr, target, replacement);
            for item in list {
                replace_subexpr(item, target, replacement);
            }
        }
        SqlExpr::Call { args, .. } => {
            for a in args {
                replace_subexpr(a, target, replacement);
            }
        }
        // Opaque, mirroring collect_innermost_aggregates: an aggregate under
        // a CASE may evaluate against a filtered sub-table, where the
        // hoisted full-table value would be wrong.
        SqlExpr::Case { .. } => {}
    }
}

/// CASE truthiness: TRUE or non-zero integer selects the branch; NULL and
/// FALSE do not; anything else is a type error.
fn case_truth(v: &SqlValue) -> Result<bool, DbError> {
    match v {
        SqlValue::Null => Ok(false),
        SqlValue::Bool(b) => Ok(*b),
        SqlValue::Int(i) => Ok(*i != 0),
        other => Err(DbError::type_err(format!(
            "CASE condition must be a boolean, got {}",
            other.render()
        ))),
    }
}

/// Lazy CASE evaluation. Conditions are checked in order; a branch value is
/// only ever evaluated for the rows that branch selects (so
/// `CASE WHEN b <> 0 THEN a / b ELSE 0 END` never divides by zero).
///
/// Scalar conditions pick one branch for the whole batch. Columnar
/// conditions evaluate each branch against the filtered sub-table and
/// scatter the per-branch results back into row order.
fn eval_case<'t>(
    engine: &Engine,
    source: Option<&'t Table>,
    branches: &[(SqlExpr, SqlExpr)],
    else_: &SqlExpr,
) -> Result<Evaluated<'t>, DbError> {
    // First pass: evaluate conditions until one is columnar or one scalar
    // condition is true.
    let mut cond_cols: Vec<(usize, Cow<'t, Column>)> = Vec::new();
    let mut columnar = false;
    for (idx, (cond, value)) in branches.iter().enumerate() {
        match eval_expr(engine, source, cond)? {
            Evaluated::Scalar(s) => {
                if !columnar && case_truth(&s)? {
                    return eval_expr(engine, source, value);
                }
                // A scalar false under columnar mode: contributes no rows.
                if columnar && case_truth(&s)? {
                    // Scalar true: all remaining rows take this branch.
                    let table = source
                        .ok_or_else(|| DbError::exec("columnar CASE requires a FROM clause"))?;
                    let trues = Column::new(
                        "case",
                        ColumnData::Bool(vec![true; table.row_count()].into()),
                    );
                    cond_cols.push((idx, Cow::Owned(trues)));
                    break;
                }
            }
            Evaluated::Column(c) => {
                columnar = true;
                cond_cols.push((idx, c));
            }
        }
    }
    if !columnar {
        // Every condition was a scalar false: the ELSE arm wins.
        return eval_expr(engine, source, else_);
    }
    let table = source.ok_or_else(|| DbError::exec("columnar CASE requires a FROM clause"))?;
    let rows = table.row_count();
    let mut out: Vec<Option<SqlValue>> = vec![None; rows];
    let mut remaining = vec![true; rows];
    for (idx, cond) in &cond_cols {
        if cond.len() != rows {
            return Err(DbError::exec("CASE condition length mismatch"));
        }
        let mut mask = vec![false; rows];
        let mut any = false;
        for i in 0..rows {
            if remaining[i] && case_truth(&cond.get(i))? {
                mask[i] = true;
                remaining[i] = false;
                any = true;
            }
        }
        if !any {
            continue;
        }
        let sub = table.filter(&mask);
        let value = eval_expr(engine, Some(&sub), &branches[*idx].1)?;
        let mut j = 0;
        for i in 0..rows {
            if mask[i] {
                out[i] = Some(value.get(j));
                j += 1;
            }
        }
    }
    if remaining.iter().any(|r| *r) {
        let sub = table.filter(&remaining);
        let value = eval_expr(engine, Some(&sub), else_)?;
        let mut j = 0;
        for i in 0..rows {
            if remaining[i] {
                out[i] = Some(value.get(j));
                j += 1;
            }
        }
    }
    let values: Vec<SqlValue> = out
        .into_iter()
        .map(|v| v.expect("every row assigned"))
        .collect();
    Ok(Evaluated::owned(Column::from_values("case", &values)?))
}

/// Resolve a (possibly qualified) column reference against a table whose
/// columns may themselves be alias-qualified (join outputs).
///
/// Resolution order: exact name match; then, for a bare name, a unique
/// `*.name` suffix match (ambiguity is an error); for a qualified name, a
/// bare-leaf match (single-table queries referenced as `t.col`).
pub fn resolve_column<'t>(table: &'t Table, name: &str) -> Result<&'t Column, DbError> {
    if let Some(c) = table
        .columns
        .iter()
        .find(|c| c.name.eq_ignore_ascii_case(name))
    {
        return Ok(c);
    }
    if !name.contains('.') {
        let suffix = format!(".{}", name.to_ascii_lowercase());
        let mut matches = table
            .columns
            .iter()
            .filter(|c| c.name.to_ascii_lowercase().ends_with(&suffix));
        match (matches.next(), matches.next()) {
            (Some(c), None) => return Ok(c),
            (Some(a), Some(b)) => {
                return Err(DbError::catalog(format!(
                    "column reference '{name}' is ambiguous ('{}' vs '{}')",
                    a.name, b.name
                )))
            }
            _ => {}
        }
    } else if let Some(leaf) = name.rsplit('.').next() {
        if let Some(c) = table
            .columns
            .iter()
            .find(|c| c.name.eq_ignore_ascii_case(leaf))
        {
            return Ok(c);
        }
    }
    Err(DbError::catalog(format!("no such column '{name}'")))
}

/// Map a scalar function over an evaluated value.
fn map_evaluated(
    v: Evaluated,
    name: &str,
    f: impl Fn(&SqlValue) -> Result<SqlValue, DbError>,
) -> Result<Evaluated<'static>, DbError> {
    Ok(match v {
        Evaluated::Scalar(s) => Evaluated::Scalar(f(&s)?),
        Evaluated::Column(c) => {
            let mut out = Vec::with_capacity(c.len());
            for i in 0..c.len() {
                out.push(f(&c.get(i))?);
            }
            Evaluated::owned(Column::from_values(name, &out)?)
        }
    })
}

fn apply_unary(op: UnaryOp, v: Evaluated) -> Result<Evaluated<'static>, DbError> {
    let f = move |s: &SqlValue| -> Result<SqlValue, DbError> {
        Ok(match (op, s) {
            (_, SqlValue::Null) => SqlValue::Null,
            // checked: -i64::MIN does not fit.
            (UnaryOp::Neg, SqlValue::Int(i)) => {
                SqlValue::Int(i.checked_neg().ok_or_else(overflow)?)
            }
            (UnaryOp::Neg, SqlValue::Double(d)) => SqlValue::Double(-d),
            (UnaryOp::Neg, SqlValue::Bool(b)) => SqlValue::Int(-(*b as i64)),
            (UnaryOp::Not, SqlValue::Bool(b)) => SqlValue::Bool(!b),
            (op, other) => {
                return Err(DbError::type_err(format!(
                    "cannot apply {op:?} to {}",
                    other.sql_type().map(|t| t.name()).unwrap_or("NULL")
                )))
            }
        })
    };
    map_evaluated(v, "unary", f)
}

fn apply_binary<'t>(
    op: BinaryOp,
    l: Evaluated<'t>,
    r: Evaluated<'t>,
) -> Result<Evaluated<'t>, DbError> {
    match (&l, &r) {
        (Evaluated::Scalar(a), Evaluated::Scalar(b)) => {
            Ok(Evaluated::Scalar(binary_values(op, a, b)?))
        }
        _ => {
            let len = match (l.column_len(), r.column_len()) {
                (Some(a), Some(b)) if a != b => {
                    return Err(DbError::exec(format!(
                        "operand column lengths differ ({a} vs {b})"
                    )))
                }
                (Some(a), _) => a,
                (_, Some(b)) => b,
                _ => unreachable!("scalar/scalar handled above"),
            };
            if let Some(done) = binary_fast(op, &l, &r, len) {
                return done;
            }
            let mut out = Vec::with_capacity(len);
            for i in 0..len {
                out.push(binary_values(op, &l.get(i), &r.get(i))?);
            }
            Ok(Evaluated::owned(Column::from_values(op.symbol(), &out)?))
        }
    }
}

/// One side of a typed kernel: a NULL-free column's values, or a scalar
/// broadcast to every row.
#[derive(Clone, Copy)]
enum Side<'a, T> {
    Col(&'a Segments<T>),
    Scalar(T),
}

/// Typed view of a NULL-free numeric operand for the columnar fast path.
#[derive(Clone, Copy)]
enum NumOperand<'a> {
    Int(Side<'a, i64>),
    Float(Side<'a, f64>),
}

fn num_operand<'a>(v: &'a Evaluated) -> Option<NumOperand<'a>> {
    use NumOperand::{Float, Int};
    match v {
        Evaluated::Scalar(SqlValue::Int(i)) => Some(Int(Side::Scalar(*i))),
        // Booleans count as 0/1 integers, matching `as_int`.
        Evaluated::Scalar(SqlValue::Bool(b)) => Some(Int(Side::Scalar(*b as i64))),
        Evaluated::Scalar(SqlValue::Double(d)) => Some(Float(Side::Scalar(*d))),
        Evaluated::Column(c) if !c.has_nulls() => match &c.data {
            ColumnData::Int(v) => Some(Int(Side::Col(v))),
            ColumnData::Double(v) => Some(Float(Side::Col(v))),
            _ => None,
        },
        _ => None,
    }
}

/// `f` over every row of two sides, segment by segment, one loop per
/// operand shape. Two columns of one length split at the same rows, so
/// their segments pair up.
fn zip_rows<X: Copy, Y: Copy, O: Clone>(
    a: Side<X>,
    b: Side<Y>,
    len: usize,
    f: impl Fn(X, Y) -> O,
) -> Segments<O> {
    match (a, b) {
        (Side::Col(x), Side::Col(y)) => Segments::from_chunks(
            x.slices()
                .zip(y.slices())
                .map(|(x, y)| x.iter().zip(y).map(|(&x, &y)| f(x, y)).collect()),
        ),
        (Side::Col(x), Side::Scalar(k)) => x.map_slices(|x| x.iter().map(|&x| f(x, k)).collect()),
        (Side::Scalar(k), Side::Col(y)) => y.map_slices(|y| y.iter().map(|&y| f(k, y)).collect()),
        (Side::Scalar(j), Side::Scalar(k)) => vec![f(j, k); len].into(),
    }
}

/// [`zip_rows`] for a kernel that can fail: the first error in row order
/// is the result.
fn try_zip_rows<X: Copy, Y: Copy, O: Clone>(
    a: Side<X>,
    b: Side<Y>,
    len: usize,
    f: impl Fn(X, Y) -> Result<O, DbError>,
) -> Result<Segments<O>, DbError> {
    fn chunk<O>(
        rows: usize,
        values: impl Iterator<Item = Result<O, DbError>>,
    ) -> Result<Vec<O>, DbError> {
        let mut out = Vec::with_capacity(rows);
        for v in values {
            out.push(v?);
        }
        Ok(out)
    }
    let chunks = match (a, b) {
        (Side::Col(x), Side::Col(y)) => x
            .slices()
            .zip(y.slices())
            .map(|(x, y)| chunk(x.len(), x.iter().zip(y).map(|(&x, &y)| f(x, y))))
            .collect::<Result<Vec<_>, _>>()?,
        (Side::Col(x), Side::Scalar(k)) => x
            .slices()
            .map(|x| chunk(x.len(), x.iter().map(|&x| f(x, k))))
            .collect::<Result<Vec<_>, _>>()?,
        (Side::Scalar(k), Side::Col(y)) => y
            .slices()
            .map(|y| chunk(y.len(), y.iter().map(|&y| f(k, y))))
            .collect::<Result<Vec<_>, _>>()?,
        (Side::Scalar(j), Side::Scalar(k)) if len > 0 => return Ok(vec![f(j, k)?; len].into()),
        (Side::Scalar(_), Side::Scalar(_)) => Vec::new(),
    };
    Ok(Segments::from_chunks(chunks))
}

/// Comparison kernel: `op` over two sides whose elements are ordered as
/// `K` once mapped through `kx` / `ky`. The op is matched once, outside the
/// row loop, and each test uses `<` and `>` alone, so an unordered pair
/// (NaN) compares `Equal`, as [`cmp_sql`] orders it.
fn compare<X: Copy, Y: Copy, K: PartialOrd>(
    op: BinaryOp,
    a: Side<X>,
    b: Side<Y>,
    len: usize,
    kx: impl Fn(X) -> K,
    ky: impl Fn(Y) -> K,
) -> Segments<bool> {
    use BinaryOp::*;
    let (lt, gt) = (|x, y| kx(x) < ky(y), |x, y| kx(x) > ky(y));
    match op {
        Eq => zip_rows(a, b, len, |x, y| !lt(x, y) && !gt(x, y)),
        NotEq => zip_rows(a, b, len, |x, y| lt(x, y) || gt(x, y)),
        Lt => zip_rows(a, b, len, lt),
        Le => zip_rows(a, b, len, |x, y| !gt(x, y)),
        Gt => zip_rows(a, b, len, gt),
        Ge => zip_rows(a, b, len, |x, y| !lt(x, y)),
        _ => unreachable!("comparison operators only"),
    }
}

/// Columnar fast path over NULL-free numeric operands: same semantics and
/// error strings as [`binary_values`], without boxing each element into
/// `SqlValue`. Returns `None` to fall back to the generic rowwise loop.
fn binary_fast(
    op: BinaryOp,
    l: &Evaluated,
    r: &Evaluated,
    len: usize,
) -> Option<Result<Evaluated<'static>, DbError>> {
    use BinaryOp::*;
    use NumOperand::{Float, Int};
    if matches!(op, And | Or) {
        return None;
    }
    let a = num_operand(l)?;
    let b = num_operand(r)?;
    let name = op.symbol();

    // Comparisons mirror cmp_sql: Int×Int exactly, every other numeric
    // pair through f64.
    if matches!(op, Eq | NotEq | Lt | Le | Gt | Ge) {
        let out = match (a, b) {
            (Int(x), Int(y)) => compare(op, x, y, len, |v| v, |v| v),
            (Int(x), Float(y)) => compare(op, x, y, len, |v| v as f64, |v| v),
            (Float(x), Int(y)) => compare(op, x, y, len, |v| v, |v| v as f64),
            (Float(x), Float(y)) => compare(op, x, y, len, |v| v, |v| v),
        };
        return Some(Ok(Evaluated::owned(Column::new(
            name,
            ColumnData::Bool(out),
        ))));
    }

    if let (Int(x), Int(y)) = (a, b) {
        // Pow with a columnar or negative exponent can go float per row;
        // leave those shapes to the generic path.
        if op == Pow && !matches!(y, Side::Scalar(e) if e >= 0) {
            return None;
        }
        let kernel: fn(i64, i64) -> Result<i64, DbError> = match op {
            Add => |x, y| x.checked_add(y).ok_or_else(overflow),
            Sub => |x, y| x.checked_sub(y).ok_or_else(overflow),
            Mul => |x, y| x.checked_mul(y).ok_or_else(overflow),
            Div => |x, y| {
                if y == 0 {
                    return Err(DbError::exec("division by zero"));
                }
                x.checked_div(y).ok_or_else(overflow)
            },
            Mod => |x, y| {
                if y == 0 {
                    return Err(DbError::exec("modulo by zero"));
                }
                x.checked_rem(y).ok_or_else(overflow)
            },
            FloorDiv => |x, y| {
                if y == 0 {
                    return Err(DbError::exec("integer division by zero"));
                }
                x.checked_div_euclid(y).ok_or_else(overflow)
            },
            FloorMod => |x, y| {
                if y == 0 {
                    return Err(DbError::exec("modulo by zero"));
                }
                x.checked_rem_euclid(y).ok_or_else(overflow)
            },
            Pow => |x, y| {
                let exp = u32::try_from(y).map_err(|_| DbError::exec("exponent too large"))?;
                x.checked_pow(exp).ok_or_else(overflow)
            },
            _ => return None,
        };
        let out = try_zip_rows(x, y, len, kernel);
        return Some(out.map(|out| Evaluated::owned(Column::new(name, ColumnData::Int(out)))));
    }

    let kernel: fn(f64, f64) -> Result<f64, DbError> = match op {
        Add => |x, y| Ok(x + y),
        Sub => |x, y| Ok(x - y),
        Mul => |x, y| Ok(x * y),
        Div => |x, y| {
            if y == 0.0 {
                return Err(DbError::exec("division by zero"));
            }
            Ok(x / y)
        },
        Mod => |x, y| {
            if y == 0.0 {
                return Err(DbError::exec("modulo by zero"));
            }
            Ok(x % y)
        },
        FloorDiv => |x, y| {
            if y == 0.0 {
                return Err(DbError::exec("float floor division by zero"));
            }
            Ok((x / y).floor())
        },
        FloorMod => |x, y| {
            if y == 0.0 {
                return Err(DbError::exec("float modulo by zero"));
            }
            Ok(x - y * (x / y).floor())
        },
        Pow => |x, y| Ok(x.powf(y)),
        _ => return None,
    };
    let out = match (a, b) {
        (Int(_), Int(_)) => unreachable!("Int × Int returned above"),
        (Int(x), Float(y)) => try_zip_rows(x, y, len, |x, y| kernel(x as f64, y)),
        (Float(x), Int(y)) => try_zip_rows(x, y, len, |x, y| kernel(x, y as f64)),
        (Float(x), Float(y)) => try_zip_rows(x, y, len, kernel),
    };
    Some(out.map(|out| Evaluated::owned(Column::new(name, ColumnData::Double(out)))))
}

/// `s IN (options)` for one row: NULL for a NULL row, and a NULL item
/// never matches.
fn in_list_row(s: &SqlValue, options: &[SqlValue], negated: bool) -> SqlValue {
    if s.is_null() {
        return SqlValue::Null;
    }
    let found = options
        .iter()
        .any(|o| cmp_sql(s, o) == Ordering::Equal && !o.is_null());
    SqlValue::Bool(found != negated)
}

/// [`in_list_row`] over every row of a non-empty, NULL-free Int or Double
/// column, segment by segment; `None` for any other column. It compares as
/// [`cmp_sql`] does: an Int item matches an Int row exactly, every other
/// numeric pair compares through f64, where NaN equals everything, and a
/// NULL, string or blob item matches no number.
fn in_list_typed(c: &Column, options: &[SqlValue], negated: bool) -> Option<Segments<bool>> {
    let int_rows = matches!(c.data, ColumnData::Int(_));
    if c.is_empty() || c.has_nulls() || !(int_rows || matches!(c.data, ColumnData::Double(_))) {
        return None;
    }
    let (mut exact, mut floats) = (Vec::new(), Vec::new());
    for o in options {
        match o {
            SqlValue::Int(k) if int_rows => exact.push(*k),
            SqlValue::Int(_) | SqlValue::Double(_) | SqlValue::Bool(_) => {
                floats.extend(to_f64(o));
            }
            SqlValue::Null | SqlValue::Str(_) | SqlValue::Blob(_) => {}
        }
    }
    exact.sort_unstable();
    exact.dedup();
    let exact_hit = |x: i64| match exact.len() {
        0..=8 => exact.contains(&x),
        _ => exact.binary_search(&x).is_ok(),
    };
    let any_nan = floats.iter().any(|k| k.is_nan());
    let float_hit = |x: f64| any_nan || (x.is_nan() && !floats.is_empty()) || floats.contains(&x);
    Some(match &c.data {
        ColumnData::Int(v) => v.map_slices(|s| {
            s.iter()
                .map(|&x| (exact_hit(x) || float_hit(x as f64)) != negated)
                .collect()
        }),
        ColumnData::Double(v) => {
            v.map_slices(|s| s.iter().map(|&x| float_hit(x) != negated).collect())
        }
        _ => unreachable!("Int or Double checked above"),
    })
}

/// Scalar binary operation with SQL NULL propagation.
pub fn binary_values(op: BinaryOp, a: &SqlValue, b: &SqlValue) -> Result<SqlValue, DbError> {
    use BinaryOp::*;
    // Three-valued logic for AND/OR.
    if matches!(op, And | Or) {
        let truth = |v: &SqlValue| -> Result<Option<bool>, DbError> {
            Ok(match v {
                SqlValue::Null => None,
                SqlValue::Bool(b) => Some(*b),
                SqlValue::Int(i) => Some(*i != 0),
                other => {
                    return Err(DbError::type_err(format!(
                        "{} is not a boolean",
                        other.render()
                    )))
                }
            })
        };
        let (x, y) = (truth(a)?, truth(b)?);
        return Ok(match (op, x, y) {
            (And, Some(false), _) | (And, _, Some(false)) => SqlValue::Bool(false),
            (And, Some(true), Some(true)) => SqlValue::Bool(true),
            (Or, Some(true), _) | (Or, _, Some(true)) => SqlValue::Bool(true),
            (Or, Some(false), Some(false)) => SqlValue::Bool(false),
            _ => SqlValue::Null,
        });
    }
    if a.is_null() || b.is_null() {
        return Ok(SqlValue::Null);
    }
    // Comparisons.
    if matches!(op, Eq | NotEq | Lt | Le | Gt | Ge) {
        let ord = cmp_sql(a, b);
        return Ok(SqlValue::Bool(match op {
            Eq => ord == Ordering::Equal,
            NotEq => ord != Ordering::Equal,
            Lt => ord == Ordering::Less,
            Le => ord != Ordering::Greater,
            Gt => ord == Ordering::Greater,
            Ge => ord != Ordering::Less,
            _ => unreachable!(),
        }));
    }
    // String concatenation via `+`.
    if let (Add, SqlValue::Str(x), SqlValue::Str(y)) = (op, a, b) {
        return Ok(SqlValue::Str(format!("{x}{y}")));
    }
    // Arithmetic with int/double promotion. Booleans count as integers
    // (0/1), matching the interpreter's numeric coercion, so an inlined
    // `(a > b) + 1` agrees with pylite instead of silently going double.
    match (as_int(a), as_int(b)) {
        (Some(x), Some(y)) => {
            Ok(match op {
                Add => SqlValue::Int(x.checked_add(y).ok_or_else(overflow)?),
                Sub => SqlValue::Int(x.checked_sub(y).ok_or_else(overflow)?),
                Mul => SqlValue::Int(x.checked_mul(y).ok_or_else(overflow)?),
                Div => {
                    if y == 0 {
                        return Err(DbError::exec("division by zero"));
                    }
                    // Integer division truncates, SQL-style. checked:
                    // i64::MIN / -1 must error, not panic.
                    SqlValue::Int(x.checked_div(y).ok_or_else(overflow)?)
                }
                Mod => {
                    if y == 0 {
                        return Err(DbError::exec("modulo by zero"));
                    }
                    SqlValue::Int(x.checked_rem(y).ok_or_else(overflow)?)
                }
                FloorDiv => {
                    if y == 0 {
                        return Err(DbError::exec("integer division by zero"));
                    }
                    SqlValue::Int(x.checked_div_euclid(y).ok_or_else(overflow)?)
                }
                FloorMod => {
                    if y == 0 {
                        return Err(DbError::exec("modulo by zero"));
                    }
                    SqlValue::Int(x.checked_rem_euclid(y).ok_or_else(overflow)?)
                }
                Pow => {
                    if y >= 0 {
                        let exp =
                            u32::try_from(y).map_err(|_| DbError::exec("exponent too large"))?;
                        SqlValue::Int(x.checked_pow(exp).ok_or_else(overflow)?)
                    } else {
                        // Negative exponent goes float, Python-style.
                        SqlValue::Double((x as f64).powf(y as f64))
                    }
                }
                _ => return Err(bad_operands(op, a, b)),
            })
        }
        _ => {
            let x = to_f64(a).ok_or_else(|| bad_operands(op, a, b))?;
            let y = to_f64(b).ok_or_else(|| bad_operands(op, a, b))?;
            Ok(match op {
                Add => SqlValue::Double(x + y),
                Sub => SqlValue::Double(x - y),
                Mul => SqlValue::Double(x * y),
                Div => {
                    if y == 0.0 {
                        return Err(DbError::exec("division by zero"));
                    }
                    SqlValue::Double(x / y)
                }
                Mod => {
                    if y == 0.0 {
                        return Err(DbError::exec("modulo by zero"));
                    }
                    SqlValue::Double(x % y)
                }
                FloorDiv => {
                    if y == 0.0 {
                        return Err(DbError::exec("float floor division by zero"));
                    }
                    SqlValue::Double((x / y).floor())
                }
                FloorMod => {
                    if y == 0.0 {
                        return Err(DbError::exec("float modulo by zero"));
                    }
                    // Floor modulo: result carries the divisor's sign.
                    SqlValue::Double(x - y * (x / y).floor())
                }
                Pow => SqlValue::Double(x.powf(y)),
                _ => return Err(bad_operands(op, a, b)),
            })
        }
    }
}

/// Integer view of a value for arithmetic: Int as-is, Bool as 0/1.
fn as_int(v: &SqlValue) -> Option<i64> {
    match v {
        SqlValue::Int(i) => Some(*i),
        SqlValue::Bool(b) => Some(*b as i64),
        _ => None,
    }
}

fn overflow() -> DbError {
    DbError::exec("integer overflow")
}

fn bad_operands(op: BinaryOp, a: &SqlValue, b: &SqlValue) -> DbError {
    DbError::type_err(format!(
        "cannot apply {} to {} and {}",
        op.symbol(),
        a.sql_type().map(|t| t.name()).unwrap_or("NULL"),
        b.sql_type().map(|t| t.name()).unwrap_or("NULL"),
    ))
}

fn to_f64(v: &SqlValue) -> Option<f64> {
    match v {
        SqlValue::Int(i) => Some(*i as f64),
        SqlValue::Double(d) => Some(*d),
        SqlValue::Bool(b) => Some(*b as i64 as f64),
        _ => None,
    }
}

/// Total order over SQL values: NULL first, then numerics, strings, bools,
/// blobs. Two integers compare exactly as `i64` (through `f64`, 2^53 and
/// 2^53 + 1 would tie); every other numeric pair, booleans counting as 0/1,
/// is ordered through `f64`, where an unordered pair (NaN) is `Equal`.
pub fn cmp_sql(a: &SqlValue, b: &SqlValue) -> Ordering {
    match (a, b) {
        (SqlValue::Null, SqlValue::Null) => Ordering::Equal,
        (SqlValue::Null, _) => Ordering::Less,
        (_, SqlValue::Null) => Ordering::Greater,
        (SqlValue::Int(x), SqlValue::Int(y)) => x.cmp(y),
        (SqlValue::Str(x), SqlValue::Str(y)) => x.cmp(y),
        (SqlValue::Bool(x), SqlValue::Bool(y)) => x.cmp(y),
        (SqlValue::Blob(x), SqlValue::Blob(y)) => x.cmp(y),
        _ => {
            let (x, y) = (to_f64(a), to_f64(b));
            match (x, y) {
                (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(Ordering::Equal),
                _ => format!("{a:?}").cmp(&format!("{b:?}")),
            }
        }
    }
}

/// Evaluate a WHERE predicate into a row mask. Only TRUE selects a row:
/// NULL counts as false, and a non-boolean column selects nothing. A
/// boolean column's vector becomes the mask, with its NULL rows cleared.
pub fn predicate_mask(
    engine: &Engine,
    table: &Table,
    pred: &SqlExpr,
) -> Result<Vec<bool>, DbError> {
    match eval_expr(engine, Some(table), pred)? {
        Evaluated::Scalar(s) => {
            let keep = matches!(s, SqlValue::Bool(true) | SqlValue::Int(1));
            Ok(vec![keep; table.row_count()])
        }
        Evaluated::Column(c) => {
            if c.len() != table.row_count() {
                return Err(DbError::exec("predicate length mismatch"));
            }
            if !matches!(c.data, ColumnData::Bool(_)) {
                return Ok(vec![false; c.len()]);
            }
            let Column { data, nulls, .. } = c.into_owned();
            let ColumnData::Bool(mask) = data else {
                unreachable!("checked to be boolean above")
            };
            let mut mask = mask.into_vec();
            for (keep, null) in mask.iter_mut().zip(nulls.iter()) {
                *keep &= !null;
            }
            Ok(mask)
        }
    }
}

// ----------------------------------------------------------------------
// Function calls: aggregates, scalar builtins, stored UDFs
// ----------------------------------------------------------------------

fn eval_call<'t>(
    engine: &Engine,
    source: Option<&'t Table>,
    name: &str,
    args: &[SqlExpr],
) -> Result<Evaluated<'t>, DbError> {
    let lname = name.to_ascii_lowercase();
    if is_aggregate(&lname) {
        return eval_aggregate(engine, source, &lname, args);
    }
    if SCALAR_BUILTINS.contains(&lname.as_str()) {
        return eval_scalar_builtin(engine, source, &lname, args);
    }
    let mut inputs = Vec::with_capacity(args.len());
    for arg in args {
        inputs.push(match eval_expr(engine, source, arg)? {
            Evaluated::Column(c) => UdfInput::Column(c.into_owned()),
            Evaluated::Scalar(s) => UdfInput::Scalar(s),
        });
    }
    let rows = source.map_or(1, Table::row_count);
    let mut columns = udf::call(engine, name, inputs, rows)?.columns;
    let (Some(column), true) = (columns.pop(), columns.is_empty()) else {
        return Err(DbError::exec(format!(
            "function '{name}' returns a table, not one value per row"
        )));
    };
    // A one-row result is one value, which the SELECT list broadcasts (a
    // UDF that reduces its column, like paper Listing 4's).
    Ok(if column.len() == 1 {
        Evaluated::Scalar(column.get(0))
    } else {
        Evaluated::owned(column)
    })
}

/// Aggregates reduce their argument column to a scalar.
fn eval_aggregate(
    engine: &Engine,
    source: Option<&Table>,
    name: &str,
    args: &[SqlExpr],
) -> Result<Evaluated<'static>, DbError> {
    let table = source
        .ok_or_else(|| DbError::exec(format!("aggregate {name}() requires a FROM clause")))?;
    // count(*) counts rows.
    if name == "count" && args.first() == Some(&SqlExpr::Star) {
        return Ok(Evaluated::Scalar(SqlValue::Int(table.row_count() as i64)));
    }
    if args.len() != 1 {
        return Err(DbError::exec(format!(
            "{name}() takes exactly one argument"
        )));
    }
    let col = eval_expr(engine, Some(table), &args[0])?.into_cow(table.row_count())?;
    // Typed fast path: NULL-free numeric columns fold without boxing each
    // element into SqlValue. Semantics are bit-identical to the generic
    // loops below (same fold order, same overflow check). min/max stay
    // generic — their ordering goes through cmp_sql.
    if !col.has_nulls() && !col.is_empty() {
        match (&col.data, name) {
            (ColumnData::Int(_) | ColumnData::Double(_), "count") => {
                return Ok(Evaluated::Scalar(SqlValue::Int(col.len() as i64)))
            }
            (ColumnData::Int(v), "sum") => {
                let mut acc = 0i64;
                for s in v.slices() {
                    for &x in s {
                        acc = acc.checked_add(x).ok_or_else(overflow)?;
                    }
                }
                return Ok(Evaluated::Scalar(SqlValue::Int(acc)));
            }
            (ColumnData::Double(v), "sum") => {
                let mut acc = 0f64;
                for s in v.slices() {
                    for &x in s {
                        acc += x;
                    }
                }
                return Ok(Evaluated::Scalar(SqlValue::Double(acc)));
            }
            (ColumnData::Int(v), "avg") => {
                let mut acc = 0f64;
                for s in v.slices() {
                    for &x in s {
                        acc += x as f64;
                    }
                }
                return Ok(Evaluated::Scalar(SqlValue::Double(acc / v.len() as f64)));
            }
            (ColumnData::Double(v), "avg") => {
                let mut acc = 0f64;
                for s in v.slices() {
                    for &x in s {
                        acc += x;
                    }
                }
                return Ok(Evaluated::Scalar(SqlValue::Double(acc / v.len() as f64)));
            }
            _ => {}
        }
    }
    let non_null: Vec<SqlValue> = (0..col.len())
        .map(|i| col.get(i))
        .filter(|v| !v.is_null())
        .collect();
    if name == "count" {
        return Ok(Evaluated::Scalar(SqlValue::Int(non_null.len() as i64)));
    }
    if non_null.is_empty() {
        return Ok(Evaluated::Scalar(SqlValue::Null));
    }
    Ok(Evaluated::Scalar(match name {
        "sum" => {
            if non_null.iter().all(|v| matches!(v, SqlValue::Int(_))) {
                let mut acc = 0i64;
                for v in &non_null {
                    if let SqlValue::Int(i) = v {
                        acc = acc.checked_add(*i).ok_or_else(overflow)?;
                    }
                }
                SqlValue::Int(acc)
            } else {
                let mut acc = 0f64;
                for v in &non_null {
                    acc += to_f64(v)
                        .ok_or_else(|| DbError::type_err("sum() requires numeric values"))?;
                }
                SqlValue::Double(acc)
            }
        }
        "avg" => {
            let mut acc = 0f64;
            for v in &non_null {
                acc +=
                    to_f64(v).ok_or_else(|| DbError::type_err("avg() requires numeric values"))?;
            }
            SqlValue::Double(acc / non_null.len() as f64)
        }
        "min" => non_null
            .iter()
            .min_by(|a, b| cmp_sql(a, b))
            .cloned()
            .expect("non-empty"),
        "max" => non_null
            .iter()
            .max_by(|a, b| cmp_sql(a, b))
            .cloned()
            .expect("non-empty"),
        "median" => {
            let mut nums: Vec<f64> = non_null
                .iter()
                .map(|v| to_f64(v).ok_or_else(|| DbError::type_err("median() requires numbers")))
                .collect::<Result<_, _>>()?;
            nums.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
            let mid = nums.len() / 2;
            if nums.len() % 2 == 1 {
                SqlValue::Double(nums[mid])
            } else {
                SqlValue::Double((nums[mid - 1] + nums[mid]) / 2.0)
            }
        }
        _ => unreachable!("is_aggregate() gate"),
    }))
}

/// Scalar builtins (one of [`SCALAR_BUILTINS`]) evaluated rowwise.
fn eval_scalar_builtin<'t>(
    engine: &Engine,
    source: Option<&'t Table>,
    name: &str,
    args: &[SqlExpr],
) -> Result<Evaluated<'t>, DbError> {
    let unary = |f: fn(&SqlValue) -> Result<SqlValue, DbError>| -> Result<Evaluated<'t>, DbError> {
        if args.len() != 1 {
            return Err(DbError::exec(format!(
                "{name}() takes exactly one argument"
            )));
        }
        let v = eval_expr(engine, source, &args[0])?;
        map_evaluated(v, name, f)
    };
    match name {
        // Internal sequencing primitive used by UDF inlining: evaluate the
        // first argument only for its errors (division by zero, overflow),
        // then yield the second. Never produced by the SQL parser.
        "__seq" => {
            if args.len() != 2 {
                return Err(DbError::exec("__seq() takes exactly two arguments"));
            }
            eval_expr(engine, source, &args[0])?;
            eval_expr(engine, source, &args[1])
        }
        "abs" => {
            if args.len() != 1 {
                return Err(DbError::exec(format!(
                    "{name}() takes exactly one argument"
                )));
            }
            let v = eval_expr(engine, source, &args[0])?;
            // Typed fast path over NULL-free numeric columns.
            if let Evaluated::Column(c) = &v {
                if !c.has_nulls() {
                    match &c.data {
                        ColumnData::Int(ints) => {
                            let out =
                                try_zip_rows(Side::Col(ints), Side::Scalar(()), 0, |x, ()| {
                                    x.checked_abs()
                                        .ok_or_else(|| DbError::exec("integer overflow in abs()"))
                                })?;
                            return Ok(Evaluated::owned(Column::new("abs", ColumnData::Int(out))));
                        }
                        ColumnData::Double(ds) => {
                            return Ok(Evaluated::owned(Column::new(
                                "abs",
                                ColumnData::Double(
                                    ds.map_slices(|s| s.iter().map(|d| d.abs()).collect()),
                                ),
                            )));
                        }
                        _ => {}
                    }
                }
            }
            map_evaluated(v, name, |v| {
                Ok(match v {
                    SqlValue::Null => SqlValue::Null,
                    SqlValue::Int(i) => SqlValue::Int(
                        i.checked_abs()
                            .ok_or_else(|| DbError::exec("integer overflow in abs()"))?,
                    ),
                    SqlValue::Double(d) => SqlValue::Double(d.abs()),
                    other => {
                        return Err(DbError::type_err(format!(
                            "abs({}) is invalid",
                            other.render()
                        )))
                    }
                })
            })
        }
        "length" => unary(|v| {
            Ok(match v {
                SqlValue::Null => SqlValue::Null,
                SqlValue::Str(s) => SqlValue::Int(s.chars().count() as i64),
                SqlValue::Blob(b) => SqlValue::Int(b.len() as i64),
                other => {
                    return Err(DbError::type_err(format!(
                        "length({}) is invalid",
                        other.render()
                    )))
                }
            })
        }),
        "upper" => unary(|v| {
            Ok(match v {
                SqlValue::Null => SqlValue::Null,
                SqlValue::Str(s) => SqlValue::Str(s.to_uppercase()),
                other => {
                    return Err(DbError::type_err(format!(
                        "upper({}) is invalid",
                        other.render()
                    )))
                }
            })
        }),
        "lower" => unary(|v| {
            Ok(match v {
                SqlValue::Null => SqlValue::Null,
                SqlValue::Str(s) => SqlValue::Str(s.to_lowercase()),
                other => {
                    return Err(DbError::type_err(format!(
                        "lower({}) is invalid",
                        other.render()
                    )))
                }
            })
        }),
        "sqrt" => unary(|v| {
            Ok(match v {
                SqlValue::Null => SqlValue::Null,
                other => {
                    let x = to_f64(other)
                        .ok_or_else(|| DbError::type_err("sqrt() requires a number"))?;
                    if x < 0.0 {
                        return Err(DbError::exec("sqrt() of a negative number"));
                    }
                    SqlValue::Double(x.sqrt())
                }
            })
        }),
        "floor" => unary(|v| {
            Ok(match v {
                SqlValue::Null => SqlValue::Null,
                other => SqlValue::Int(
                    to_f64(other)
                        .ok_or_else(|| DbError::type_err("floor() requires a number"))?
                        .floor() as i64,
                ),
            })
        }),
        "ceil" | "ceiling" => unary(|v| {
            Ok(match v {
                SqlValue::Null => SqlValue::Null,
                other => SqlValue::Int(
                    to_f64(other)
                        .ok_or_else(|| DbError::type_err("ceil() requires a number"))?
                        .ceil() as i64,
                ),
            })
        }),
        "round" => unary(|v| {
            Ok(match v {
                SqlValue::Null => SqlValue::Null,
                other => SqlValue::Double(
                    to_f64(other)
                        .ok_or_else(|| DbError::type_err("round() requires a number"))?
                        .round(),
                ),
            })
        }),
        _ => unreachable!("SCALAR_BUILTINS gate"),
    }
}

/// SQL LIKE matching with `%` (any run) and `_` (single char).
pub fn like_match(text: &str, pattern: &str) -> bool {
    fn matches(t: &[char], p: &[char]) -> bool {
        match (t.first(), p.first()) {
            (_, None) => t.is_empty(),
            (_, Some('%')) => {
                // Try consuming zero or more characters.
                (0..=t.len()).any(|skip| matches(&t[skip..], &p[1..]))
            }
            (None, _) => false,
            (Some(tc), Some('_')) => {
                let _ = tc;
                matches(&t[1..], &p[1..])
            }
            (Some(tc), Some(pc)) => tc.eq_ignore_ascii_case(pc) && matches(&t[1..], &p[1..]),
        }
    }
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    matches(&t, &p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_patterns() {
        assert!(like_match("mean_deviation", "mean%"));
        assert!(like_match("mean_deviation", "%deviation"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abc", "a_d"));
        assert!(like_match("anything", "%"));
        assert!(!like_match("short", "longer%pattern"));
        assert!(like_match("MiXeD", "mixed"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
    }

    #[test]
    fn binary_value_semantics() {
        use BinaryOp::*;
        assert_eq!(
            binary_values(Add, &SqlValue::Int(2), &SqlValue::Int(3)).unwrap(),
            SqlValue::Int(5)
        );
        assert_eq!(
            binary_values(Div, &SqlValue::Int(7), &SqlValue::Int(2)).unwrap(),
            SqlValue::Int(3)
        );
        assert_eq!(
            binary_values(Add, &SqlValue::Int(1), &SqlValue::Double(0.5)).unwrap(),
            SqlValue::Double(1.5)
        );
        assert_eq!(
            binary_values(Add, &SqlValue::Null, &SqlValue::Int(1)).unwrap(),
            SqlValue::Null
        );
        assert_eq!(
            binary_values(Eq, &SqlValue::Int(1), &SqlValue::Double(1.0)).unwrap(),
            SqlValue::Bool(true)
        );
        assert_eq!(
            binary_values(Add, &SqlValue::Str("a".into()), &SqlValue::Str("b".into())).unwrap(),
            SqlValue::Str("ab".into())
        );
        assert!(binary_values(Div, &SqlValue::Int(1), &SqlValue::Int(0)).is_err());
    }

    #[test]
    fn three_valued_logic() {
        use BinaryOp::*;
        let t = SqlValue::Bool(true);
        let f = SqlValue::Bool(false);
        let n = SqlValue::Null;
        assert_eq!(binary_values(And, &f, &n).unwrap(), SqlValue::Bool(false));
        assert_eq!(binary_values(And, &t, &n).unwrap(), SqlValue::Null);
        assert_eq!(binary_values(Or, &t, &n).unwrap(), SqlValue::Bool(true));
        assert_eq!(binary_values(Or, &f, &n).unwrap(), SqlValue::Null);
    }

    /// The typed `IN` loop against the rowwise one over random columns
    /// (Int, Double, Bool; with and without NULLs; one value or more than
    /// a segment) and random lists (every scalar type, NULL, NaN, −0.0,
    /// duplicates, integers past 2^53; `IN` and `NOT IN`).
    #[test]
    fn typed_in_lists_match_the_rowwise_path() {
        use crate::segments::SEGMENT_ROWS;
        use devharness::prop::{self, Config};
        use devharness::{prop_assert, prop_assert_eq, Rng};
        const BIG: i64 = 1 << 53;
        fn number(rng: &mut Rng) -> SqlValue {
            match rng.usize_below(6) {
                0 => SqlValue::Int([BIG, BIG + 1, -3][rng.usize_below(3)]),
                1 => SqlValue::Double([f64::NAN, -0.0, 0.5, BIG as f64][rng.usize_below(4)]),
                2 | 3 => SqlValue::Int(rng.i64_in(-4, 5)),
                _ => SqlValue::Double(rng.i64_in(-4, 5) as f64),
            }
        }
        let cases = prop::from_fn(|rng: &mut Rng| {
            let rows = [1, 7, SEGMENT_ROWS + 3][rng.usize_below(3)];
            let (kind, nulls) = (rng.usize_below(3), rng.ratio(0.3));
            let column: Vec<SqlValue> = (0..rows)
                .map(|_| match number(rng) {
                    _ if nulls && rng.ratio(0.2) => SqlValue::Null,
                    _ if kind == 2 => SqlValue::Bool(rng.bool()),
                    SqlValue::Int(i) if kind == 1 => SqlValue::Double(i as f64),
                    SqlValue::Double(d) if kind == 0 => SqlValue::Int(d as i64),
                    v => v,
                })
                .collect();
            let list: Vec<SqlValue> = (0..rng.usize_below(16))
                .map(|_| match rng.usize_below(8) {
                    0 => SqlValue::Null,
                    1 => SqlValue::Bool(rng.bool()),
                    2 => SqlValue::Str("1".into()),
                    3 => SqlValue::Blob(vec![1]),
                    _ => number(rng),
                })
                .collect();
            (column, list, rng.bool())
        });
        prop::check(Config::cases(300), cases, |(values, list, negated)| {
            let column = Column::from_values("c", values).map_err(|e| e.message)?;
            let rowwise: Vec<SqlValue> = (0..column.len())
                .map(|i| in_list_row(&column.get(i), list, *negated))
                .collect();
            match in_list_typed(&column, list, *negated) {
                Some(hits) => {
                    let typed: Vec<SqlValue> = hits.iter().map(|&b| SqlValue::Bool(b)).collect();
                    prop_assert_eq!(typed, rowwise);
                }
                None => prop_assert!(
                    column.has_nulls() || matches!(column.data, ColumnData::Bool(_)),
                    "a NULL-free numeric column took the rowwise path"
                ),
            }
            Ok(())
        });
    }

    #[test]
    fn cmp_orders_nulls_first() {
        assert_eq!(
            cmp_sql(&SqlValue::Null, &SqlValue::Int(-999)),
            Ordering::Less
        );
        assert_eq!(
            cmp_sql(&SqlValue::Int(2), &SqlValue::Double(1.5)),
            Ordering::Greater
        );
        assert_eq!(
            cmp_sql(&SqlValue::Str("a".into()), &SqlValue::Str("b".into())),
            Ordering::Less
        );
    }
}
