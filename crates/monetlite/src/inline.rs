//! Froid-style inlining of straight-line Python UDFs into relational
//! expressions (paper cross-ref: "Optimization of Imperative Programs in a
//! Relational Database").
//!
//! [`plan_udf`] takes a stored function definition, parses its body with
//! `pylite::parse_module` (the same AST `pylite::compile` consumes) and
//! attempts to lower it into one [`SqlExpr`] over the function's parameters
//! via symbolic substitution:
//!
//! - parameter and local-variable reads become column references / their
//!   bound expressions,
//! - arithmetic, comparisons and boolean ops map onto [`BinaryOp`]
//!   (Python `/`, `//`, `%` and `**` get dedicated Python-semantics
//!   operators so floor division and sign rules agree with the
//!   interpreter),
//! - `if`/`elif`/`else` and conditional expressions become lazy
//!   [`SqlExpr::Case`] chains (each `if` is lowered with its continuation,
//!   so guard-style early returns work),
//! - straight-line local bindings update a symbolic environment,
//! - a small builtin whitelist maps onto engine aggregates and casts
//!   (`sum`→`sum`, `len`→`count`, `abs`, `min`, `max`, `float`/`int`→CAST).
//!
//! Anything else — loops, `_conn` loopback calls, list/dict values and
//! mutation, nested `def`s, `print`, subscripts, unknown calls — makes the
//! pass bail with a typed [`Bail`] reason and the engine falls back to the
//! PR-6 bytecode VM. A plan that lowers successfully can still bail *per
//! invocation* (NULL-bearing or empty input columns, array-truthiness
//! conditions, aggregates over scalar bindings) and, as a last resort, any
//! runtime evaluation error re-runs the interpreter so error text and line
//! attribution always come from pylite. The inlined subset is pure — no
//! I/O, no loopback, no mutation — so the re-run is observationally
//! equivalent.

use std::collections::BTreeSet;

use pylite::ast as py;

use crate::catalog::FunctionDef;
use crate::sql::ast::{BinaryOp, SqlExpr, UnaryOp};
use crate::table::Table;
use crate::types::{SqlType, SqlValue};
use crate::udf::UdfInput;

/// Why a UDF body (or one invocation of an inlined plan) was not inlined.
///
/// Plan-time reasons are cached with the plan; invocation-time reasons
/// ([`Bail::NullInput`] onwards) depend on the bound arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bail {
    /// `for`/`while` — iteration has no relational counterpart here.
    Loop,
    /// `_conn` loopback query — side effects / engine re-entry.
    Loopback,
    /// List/dict construction or mutating method call (`append`, …).
    Mutation,
    /// `def` inside the body.
    NestedDef,
    /// `print` — stdout must be observable, so interpret.
    Print,
    /// Body failed to parse (CREATE FUNCTION validates, so this is rare).
    ParseError,
    /// Statement kind outside the straight-line subset (named).
    UnsupportedStmt(&'static str),
    /// Expression kind outside the subset (named).
    UnsupportedExpr(&'static str),
    /// Call to something outside the builtin whitelist.
    UnsupportedCall(String),
    /// A name that is neither a parameter nor a prior local binding.
    UnknownName(String),
    /// Operand types the relational engine would evaluate differently
    /// (e.g. ordering a string against a number).
    MixedTypes,
    /// BLOB parameters cross the boundary with interpreter-specific shape.
    BlobParam,
    /// Lowered expression exceeded the size budget.
    TooLarge,
    /// Runtime: an input column contains NULLs (pylite rejects those with
    /// its own error, so the interpreter must produce it).
    NullInput,
    /// Runtime: an input column is empty (Python `sum([])` is `0`, SQL SUM
    /// of nothing is NULL — interpret instead of guessing).
    EmptyInput,
    /// Runtime: a condition depends on a column-bound parameter in
    /// operator-at-a-time mode, where Python `if` sees the whole array
    /// (truthiness = non-empty), not one row.
    ColumnCondition,
    /// Runtime: an `int()`/`float()` cast argument depends on a
    /// column-bound parameter in operator-at-a-time mode — pylite's casts
    /// are not vectorized (TypeError on arrays), so the interpreter must
    /// raise it.
    ColumnCast,
    /// Runtime: an aggregate whose argument is bound to a scalar (Python
    /// `sum(3)` is a TypeError the interpreter must raise).
    ScalarAggregate,
    /// Runtime: columnar evaluation errored; the interpreter re-ran to
    /// produce the authoritative error (or value).
    RuntimeError,
    /// Inlining disabled by the `interp` setting.
    Disabled,
}

impl Bail {
    /// Short stable label used by EXPLAIN and telemetry.
    pub fn label(&self) -> String {
        match self {
            Bail::Loop => "loop".into(),
            Bail::Loopback => "loopback".into(),
            Bail::Mutation => "mutation".into(),
            Bail::NestedDef => "nested-def".into(),
            Bail::Print => "print".into(),
            Bail::ParseError => "parse-error".into(),
            Bail::UnsupportedStmt(s) => format!("stmt:{s}"),
            Bail::UnsupportedExpr(s) => format!("expr:{s}"),
            Bail::UnsupportedCall(s) => format!("call:{s}"),
            Bail::UnknownName(s) => format!("name:{s}"),
            Bail::MixedTypes => "mixed-types".into(),
            Bail::BlobParam => "blob-param".into(),
            Bail::TooLarge => "too-large".into(),
            Bail::NullInput => "null-input".into(),
            Bail::EmptyInput => "empty-input".into(),
            Bail::ColumnCondition => "column-condition".into(),
            Bail::ColumnCast => "column-cast".into(),
            Bail::ScalarAggregate => "scalar-aggregate".into(),
            Bail::RuntimeError => "runtime-error".into(),
            Bail::Disabled => "disabled".into(),
        }
    }
}

/// The cached per-function decision: lowered plan or bail reason.
#[derive(Debug, Clone)]
pub enum UdfPlan {
    Inlined(InlinePlan),
    Interpreted(Bail),
}

impl UdfPlan {
    /// One-line description for EXPLAIN output.
    pub fn describe(&self) -> String {
        match self {
            UdfPlan::Inlined(p) => format!("inlined as {}", render_expr(&p.expr)),
            UdfPlan::Interpreted(b) => format!("interpreted (bail: {})", b.label()),
        }
    }
}

/// A successfully lowered UDF body.
#[derive(Debug, Clone)]
pub struct InlinePlan {
    /// The whole body as one expression over `SqlExpr::Column(param)` refs.
    pub expr: SqlExpr,
    /// Parameters read by CASE conditions *outside* aggregate calls. If one
    /// of these is bound to a column in operator-at-a-time mode, the Python
    /// `if` would test the array's truthiness, not a per-row value — bail.
    pub cond_params: BTreeSet<String>,
    /// Parameters reaching an `int()`/`float()` cast outside aggregate
    /// calls. pylite's casts reject arrays, so a column binding in
    /// operator-at-a-time mode means the interpreter raises — bail.
    pub cast_params: BTreeSet<String>,
    /// True when the plan contains aggregate calls (`sum`/`len`/`min`/`max`
    /// over parameters). Those require column bindings.
    pub uses_aggregates: bool,
    /// Parameters referenced inside aggregate-call arguments, precomputed so
    /// `run_inlined` does not re-walk the expression on every call.
    pub agg_params: BTreeSet<String>,
}

/// Inferred value class, used to keep the lowering honest about the few
/// places SQL and Python semantics would silently part ways.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    Int,
    Float,
    Bool,
    Str,
    /// Numeric, int-or-float (e.g. merged CASE arms, `**`).
    Num,
    /// The `None` produced by falling off the end of the body.
    None,
}

impl Ty {
    fn numeric(self) -> bool {
        matches!(self, Ty::Int | Ty::Float | Ty::Bool | Ty::Num)
    }
}

/// Merge the types of CASE arms.
fn merge_ty(a: Ty, b: Ty) -> Result<Ty, Bail> {
    if a == b {
        return Ok(a);
    }
    if a.numeric() && b.numeric() {
        return Ok(Ty::Num);
    }
    // Ty::None only ever reaches a merge via an implicit `return None` arm;
    // the interpreter would produce a NULL there, and mixing NULL into a
    // typed column is fine.
    if a == Ty::None {
        return Ok(b);
    }
    if b == Ty::None {
        return Ok(a);
    }
    Err(Bail::MixedTypes)
}

/// A lowered expression with its inferred type.
#[derive(Debug, Clone)]
struct Lowered {
    expr: SqlExpr,
    ty: Ty,
}

type Env = std::collections::HashMap<String, Lowered>;

/// Node budget: `if` chains lower their continuation once per branch, so a
/// pathological body could blow up exponentially. UDF bodies are tiny; any
/// plan bigger than this is not worth inlining anyway.
const NODE_BUDGET: usize = 4096;

struct LowerCtx {
    params: Vec<(String, Ty)>,
    cond_params: BTreeSet<String>,
    cast_params: BTreeSet<String>,
    uses_aggregates: bool,
    nodes: usize,
}

impl LowerCtx {
    fn spend(&mut self, n: usize) -> Result<(), Bail> {
        self.nodes += n;
        if self.nodes > NODE_BUDGET {
            return Err(Bail::TooLarge);
        }
        Ok(())
    }

    fn param_ty(&self, name: &str) -> Option<Ty> {
        self.params.iter().find(|(p, _)| p == name).map(|(_, t)| *t)
    }
}

/// Decide the plan for one stored function.
pub fn plan_udf(def: &FunctionDef) -> UdfPlan {
    match lower_def(def) {
        Ok(plan) => UdfPlan::Inlined(plan),
        Err(bail) => UdfPlan::Interpreted(bail),
    }
}

fn lower_def(def: &FunctionDef) -> Result<InlinePlan, Bail> {
    let module = pylite::parse_module(&def.body).map_err(|_| Bail::ParseError)?;
    let mut params = Vec::with_capacity(def.params.len());
    for (name, ty) in &def.params {
        let ty = match ty {
            SqlType::Integer => Ty::Int,
            SqlType::Double => Ty::Float,
            SqlType::String => Ty::Str,
            SqlType::Boolean => Ty::Bool,
            SqlType::Blob => return Err(Bail::BlobParam),
        };
        params.push((name.clone(), ty));
    }
    let mut ctx = LowerCtx {
        params,
        cond_params: BTreeSet::new(),
        cast_params: BTreeSet::new(),
        uses_aggregates: false,
        nodes: 0,
    };
    let lowered = lower_stmts(&mut ctx, &module.body, &Env::new())?;
    let mut agg_params = BTreeSet::new();
    collect_agg_params(&lowered.expr, false, &mut agg_params);
    Ok(InlinePlan {
        expr: lowered.expr,
        cond_params: ctx.cond_params,
        cast_params: ctx.cast_params,
        uses_aggregates: ctx.uses_aggregates,
        agg_params,
    })
}

/// Lower a statement list to the expression it returns (falling off the end
/// returns None/NULL, like the interpreter's `eval_module`).
fn lower_stmts(ctx: &mut LowerCtx, stmts: &[py::Stmt], env: &Env) -> Result<Lowered, Bail> {
    let Some((first, rest)) = stmts.split_first() else {
        return Ok(Lowered {
            expr: SqlExpr::Literal(SqlValue::Null),
            ty: Ty::None,
        });
    };
    ctx.spend(1)?;
    match &first.kind {
        py::StmtKind::Return(value) => {
            // Statements after a `return` never execute; Python would not
            // run them either, so they cannot affect the result.
            match value {
                None => Ok(Lowered {
                    expr: SqlExpr::Literal(SqlValue::Null),
                    ty: Ty::None,
                }),
                Some(e) if matches!(e.kind, py::ExprKind::NoneLit) => Ok(Lowered {
                    expr: SqlExpr::Literal(SqlValue::Null),
                    ty: Ty::None,
                }),
                Some(e) => lower_expr(ctx, e, env),
            }
        }
        py::StmtKind::Assign { targets, value } => {
            let lowered = lower_expr(ctx, value, env)?;
            let mut env = env.clone();
            for target in targets {
                let py::ExprKind::Name(name) = &target.kind else {
                    return Err(Bail::UnsupportedStmt("unpacking-assign"));
                };
                env.insert(name.clone(), lowered.clone());
            }
            let effect = lowered.expr;
            let rest = lower_stmts(ctx, rest, &env)?;
            seq_effect(ctx, effect, rest)
        }
        py::StmtKind::AugAssign { target, op, value } => {
            let py::ExprKind::Name(name) = &target.kind else {
                return Err(Bail::UnsupportedStmt("aug-assign-target"));
            };
            let current = read_name(ctx, name, env)?;
            let rhs = lower_expr(ctx, value, env)?;
            let combined = lower_binop(ctx, *op, current, rhs)?;
            let effect = combined.expr.clone();
            let mut env = env.clone();
            env.insert(name.clone(), combined);
            let rest = lower_stmts(ctx, rest, &env)?;
            seq_effect(ctx, effect, rest)
        }
        py::StmtKind::If { branches, orelse } => {
            let mut case_branches = Vec::with_capacity(branches.len());
            let mut result_ty: Option<Ty> = None;
            for (test, body) in branches {
                let cond = lower_condition(ctx, test, env)?;
                // Each branch continues with the statements *after* the
                // whole `if`, so early returns and branch-local bindings
                // both work.
                let mut branch_stmts: Vec<py::Stmt> = body.clone();
                branch_stmts.extend_from_slice(rest);
                let arm = lower_stmts(ctx, &branch_stmts, env)?;
                result_ty = Some(match result_ty {
                    None => arm.ty,
                    Some(t) => merge_ty(t, arm.ty)?,
                });
                case_branches.push((cond, arm.expr));
            }
            let mut else_stmts: Vec<py::Stmt> = orelse.clone();
            else_stmts.extend_from_slice(rest);
            let else_arm = lower_stmts(ctx, &else_stmts, env)?;
            let ty = merge_ty(result_ty.expect("if has >=1 branch"), else_arm.ty)?;
            Ok(Lowered {
                expr: SqlExpr::Case {
                    branches: case_branches,
                    else_: Box::new(else_arm.expr),
                },
                ty,
            })
        }
        py::StmtKind::Expr(e) => {
            // Docstrings / bare literals are inert; anything else could
            // have effects or errors the engine would not reproduce.
            match &e.kind {
                py::ExprKind::Str(_)
                | py::ExprKind::Int(_)
                | py::ExprKind::Float(_)
                | py::ExprKind::Bool(_)
                | py::ExprKind::NoneLit => lower_stmts(ctx, rest, env),
                py::ExprKind::Call { func, .. } => match call_target(func) {
                    CallTarget::Print => Err(Bail::Print),
                    CallTarget::Loopback => Err(Bail::Loopback),
                    CallTarget::Method(m) if is_mutator(&m) => Err(Bail::Mutation),
                    _ => Err(Bail::UnsupportedStmt("expr")),
                },
                _ => Err(Bail::UnsupportedStmt("expr")),
            }
        }
        py::StmtKind::Pass => lower_stmts(ctx, rest, env),
        py::StmtKind::While { .. } | py::StmtKind::For { .. } => Err(Bail::Loop),
        py::StmtKind::FunctionDef(_) => Err(Bail::NestedDef),
        py::StmtKind::Import { .. } | py::StmtKind::FromImport { .. } => {
            Err(Bail::UnsupportedStmt("import"))
        }
        py::StmtKind::Break | py::StmtKind::Continue => Err(Bail::UnsupportedStmt("loop-control")),
        py::StmtKind::Global(_) => Err(Bail::UnsupportedStmt("global")),
        py::StmtKind::Del(_) => Err(Bail::UnsupportedStmt("del")),
        py::StmtKind::Try { .. } => Err(Bail::UnsupportedStmt("try")),
        py::StmtKind::Raise(_) => Err(Bail::UnsupportedStmt("raise")),
        py::StmtKind::Assert { .. } => Err(Bail::UnsupportedStmt("assert")),
    }
}

/// Lower an `if`/`elif` condition and record which parameters it reads
/// outside aggregate calls (those force a runtime bail when column-bound in
/// operator-at-a-time mode).
fn lower_condition(ctx: &mut LowerCtx, test: &py::Expr, env: &Env) -> Result<SqlExpr, Bail> {
    let cond = lower_expr(ctx, test, env)?;
    // Python truthiness: booleans directly, integers as `!= 0` (CASE
    // treats non-zero ints as true). Floats/strings have truthiness too,
    // but the engine's CASE does not — keep those interpreted.
    if !matches!(cond.ty, Ty::Bool | Ty::Int) {
        return Err(Bail::UnsupportedExpr("condition-truthiness"));
    }
    collect_cond_params(&cond.expr, false, &mut ctx.cond_params);
    Ok(cond.expr)
}

/// Sequence a binding's *effects* before the continuation. pylite evaluates
/// every assignment eagerly — a division by zero in a local the returned
/// expression never reads still raises — so the plan must evaluate the bound
/// expression too. `__seq(a, b)` is an engine-internal builtin that
/// evaluates both arguments and yields the second; error-free expressions
/// (bare literals/columns) skip the wrapper.
fn seq_effect(ctx: &mut LowerCtx, effect: SqlExpr, rest: Lowered) -> Result<Lowered, Bail> {
    if matches!(effect, SqlExpr::Literal(_) | SqlExpr::Column(_)) {
        return Ok(rest);
    }
    ctx.spend(1)?;
    Ok(Lowered {
        expr: SqlExpr::Call {
            name: "__seq".into(),
            args: vec![effect, rest.expr],
        },
        ty: rest.ty,
    })
}

/// Collect `Column` references outside aggregate calls.
fn collect_cond_params(expr: &SqlExpr, inside_agg: bool, out: &mut BTreeSet<String>) {
    match expr {
        SqlExpr::Column(name) => {
            if !inside_agg {
                out.insert(name.clone());
            }
        }
        SqlExpr::Literal(_) | SqlExpr::Star => {}
        SqlExpr::Unary { expr, .. } => collect_cond_params(expr, inside_agg, out),
        SqlExpr::Binary { left, right, .. } => {
            collect_cond_params(left, inside_agg, out);
            collect_cond_params(right, inside_agg, out);
        }
        SqlExpr::Call { name, args } => {
            let agg = matches!(name.as_str(), "sum" | "count" | "min" | "max");
            for a in args {
                collect_cond_params(a, inside_agg || agg, out);
            }
        }
        SqlExpr::Cast { expr, .. } => collect_cond_params(expr, inside_agg, out),
        SqlExpr::IsNull { expr, .. } => collect_cond_params(expr, inside_agg, out),
        SqlExpr::Like { expr, pattern, .. } => {
            collect_cond_params(expr, inside_agg, out);
            collect_cond_params(pattern, inside_agg, out);
        }
        SqlExpr::InList { expr, list, .. } => {
            collect_cond_params(expr, inside_agg, out);
            for e in list {
                collect_cond_params(e, inside_agg, out);
            }
        }
        SqlExpr::Case { branches, else_ } => {
            for (c, v) in branches {
                collect_cond_params(c, inside_agg, out);
                collect_cond_params(v, inside_agg, out);
            }
            collect_cond_params(else_, inside_agg, out);
        }
    }
}

fn read_name(ctx: &mut LowerCtx, name: &str, env: &Env) -> Result<Lowered, Bail> {
    if name == "_conn" {
        return Err(Bail::Loopback);
    }
    if let Some(bound) = env.get(name) {
        return Ok(bound.clone());
    }
    if let Some(ty) = ctx.param_ty(name) {
        return Ok(Lowered {
            expr: SqlExpr::Column(name.to_string()),
            ty,
        });
    }
    Err(Bail::UnknownName(name.to_string()))
}

/// What a call expression is aimed at.
enum CallTarget {
    Print,
    Loopback,
    Builtin(String),
    Method(String),
    Other,
}

fn call_target(func: &py::Expr) -> CallTarget {
    match &func.kind {
        py::ExprKind::Name(n) if n == "print" => CallTarget::Print,
        py::ExprKind::Name(n) if n == "_conn" => CallTarget::Loopback,
        py::ExprKind::Name(n) => CallTarget::Builtin(n.clone()),
        py::ExprKind::Attribute { value, attr } => {
            if matches!(&value.kind, py::ExprKind::Name(n) if n == "_conn") {
                CallTarget::Loopback
            } else {
                CallTarget::Method(attr.clone())
            }
        }
        _ => CallTarget::Other,
    }
}

fn is_mutator(name: &str) -> bool {
    matches!(
        name,
        "append" | "extend" | "insert" | "pop" | "remove" | "clear" | "sort" | "reverse"
    )
}

fn lower_expr(ctx: &mut LowerCtx, expr: &py::Expr, env: &Env) -> Result<Lowered, Bail> {
    ctx.spend(1)?;
    match &expr.kind {
        py::ExprKind::Int(v) => Ok(Lowered {
            expr: SqlExpr::Literal(SqlValue::Int(*v)),
            ty: Ty::Int,
        }),
        py::ExprKind::Float(v) => Ok(Lowered {
            expr: SqlExpr::Literal(SqlValue::Double(*v)),
            ty: Ty::Float,
        }),
        py::ExprKind::Str(s) => Ok(Lowered {
            expr: SqlExpr::Literal(SqlValue::Str(s.to_string())),
            ty: Ty::Str,
        }),
        py::ExprKind::Bool(b) => Ok(Lowered {
            expr: SqlExpr::Literal(SqlValue::Bool(*b)),
            ty: Ty::Bool,
        }),
        // `None` in the middle of an expression would need Python's None
        // equality rules, not SQL's NULL propagation.
        py::ExprKind::NoneLit => Err(Bail::UnsupportedExpr("none")),
        py::ExprKind::Name(name) => read_name(ctx, name, env),
        py::ExprKind::BinOp { left, op, right } => {
            let l = lower_expr(ctx, left, env)?;
            let r = lower_expr(ctx, right, env)?;
            lower_binop(ctx, *op, l, r)
        }
        py::ExprKind::UnaryOp { op, operand } => {
            let v = lower_expr(ctx, operand, env)?;
            match op {
                py::UnaryOp::Pos => {
                    if v.ty.numeric() {
                        Ok(v)
                    } else {
                        Err(Bail::MixedTypes)
                    }
                }
                py::UnaryOp::Neg => {
                    if !v.ty.numeric() {
                        return Err(Bail::MixedTypes);
                    }
                    let ty = if v.ty == Ty::Bool { Ty::Int } else { v.ty };
                    Ok(Lowered {
                        expr: SqlExpr::Unary {
                            op: UnaryOp::Neg,
                            expr: Box::new(v.expr),
                        },
                        ty,
                    })
                }
                py::UnaryOp::Not => {
                    if v.ty != Ty::Bool {
                        return Err(Bail::UnsupportedExpr("not-truthiness"));
                    }
                    Ok(Lowered {
                        expr: SqlExpr::Unary {
                            op: UnaryOp::Not,
                            expr: Box::new(v.expr),
                        },
                        ty: Ty::Bool,
                    })
                }
            }
        }
        py::ExprKind::BoolOp { op, values } => {
            let sql_op = match op {
                py::BoolOpKind::And => BinaryOp::And,
                py::BoolOpKind::Or => BinaryOp::Or,
            };
            let mut lowered = Vec::with_capacity(values.len());
            for v in values {
                let l = lower_expr(ctx, v, env)?;
                // Python `and`/`or` return an *operand*; only when both
                // sides are booleans does that coincide with SQL AND/OR.
                if l.ty != Ty::Bool {
                    return Err(Bail::UnsupportedExpr("boolop-operand"));
                }
                lowered.push(l.expr);
            }
            let mut iter = lowered.into_iter();
            let first = iter.next().ok_or(Bail::UnsupportedExpr("boolop-empty"))?;
            let expr = iter.fold(first, |acc, next| SqlExpr::Binary {
                left: Box::new(acc),
                op: sql_op,
                right: Box::new(next),
            });
            Ok(Lowered { expr, ty: Ty::Bool })
        }
        py::ExprKind::Compare {
            left,
            ops,
            comparators,
        } => {
            let mut operands = Vec::with_capacity(1 + comparators.len());
            operands.push(lower_expr(ctx, left, env)?);
            for c in comparators {
                operands.push(lower_expr(ctx, c, env)?);
            }
            let mut parts: Vec<SqlExpr> = Vec::with_capacity(ops.len());
            for (i, op) in ops.iter().enumerate() {
                let (a, b) = (&operands[i], &operands[i + 1]);
                let sql_op = match op {
                    py::CmpOp::Eq => BinaryOp::Eq,
                    py::CmpOp::NotEq => BinaryOp::NotEq,
                    py::CmpOp::Lt => BinaryOp::Lt,
                    py::CmpOp::Le => BinaryOp::Le,
                    py::CmpOp::Gt => BinaryOp::Gt,
                    py::CmpOp::Ge => BinaryOp::Ge,
                    py::CmpOp::In | py::CmpOp::NotIn | py::CmpOp::Is | py::CmpOp::IsNot => {
                        return Err(Bail::UnsupportedExpr("compare-op"))
                    }
                };
                // Ordering a string against a number raises in Python but
                // would "succeed" through the engine's total order.
                let classes_agree =
                    (a.ty.numeric() && b.ty.numeric()) || (a.ty == Ty::Str && b.ty == Ty::Str);
                if matches!(
                    op,
                    py::CmpOp::Lt | py::CmpOp::Le | py::CmpOp::Gt | py::CmpOp::Ge
                ) && !classes_agree
                {
                    return Err(Bail::MixedTypes);
                }
                // Python `1 == 'x'` is False without error; the engine's
                // Eq over mismatched classes also yields false. But equality
                // between Str and numeric classes falls into the engine's
                // debug-format comparison — keep only agreeing classes.
                if !classes_agree {
                    return Err(Bail::MixedTypes);
                }
                parts.push(SqlExpr::Binary {
                    left: Box::new(a.expr.clone()),
                    op: sql_op,
                    right: Box::new(b.expr.clone()),
                });
            }
            let mut iter = parts.into_iter();
            let first = iter.next().ok_or(Bail::UnsupportedExpr("compare-empty"))?;
            let expr = iter.fold(first, |acc, next| SqlExpr::Binary {
                left: Box::new(acc),
                op: BinaryOp::And,
                right: Box::new(next),
            });
            Ok(Lowered { expr, ty: Ty::Bool })
        }
        py::ExprKind::IfExp { test, body, orelse } => {
            let cond = lower_condition(ctx, test, env)?;
            let then = lower_expr(ctx, body, env)?;
            let other = lower_expr(ctx, orelse, env)?;
            let ty = merge_ty(then.ty, other.ty)?;
            Ok(Lowered {
                expr: SqlExpr::Case {
                    branches: vec![(cond, then.expr)],
                    else_: Box::new(other.expr),
                },
                ty,
            })
        }
        py::ExprKind::Call { func, args, kwargs } => match call_target(func) {
            CallTarget::Print => Err(Bail::Print),
            CallTarget::Loopback => Err(Bail::Loopback),
            CallTarget::Method(m) if is_mutator(&m) => Err(Bail::Mutation),
            CallTarget::Method(m) => Err(Bail::UnsupportedCall(m)),
            CallTarget::Other => Err(Bail::UnsupportedExpr("call")),
            CallTarget::Builtin(name) => {
                if !kwargs.is_empty() {
                    return Err(Bail::UnsupportedCall(name));
                }
                lower_builtin(ctx, &name, args, env)
            }
        },
        py::ExprKind::List(_) | py::ExprKind::Dict(_) => Err(Bail::Mutation),
        py::ExprKind::Tuple(_) => Err(Bail::UnsupportedExpr("tuple")),
        py::ExprKind::Subscript { .. } => Err(Bail::UnsupportedExpr("subscript")),
        py::ExprKind::Attribute { value, .. } => {
            if matches!(&value.kind, py::ExprKind::Name(n) if n == "_conn") {
                Err(Bail::Loopback)
            } else {
                Err(Bail::UnsupportedExpr("attribute"))
            }
        }
        py::ExprKind::Lambda(_) => Err(Bail::NestedDef),
        py::ExprKind::ListComp { .. } => Err(Bail::Loop),
    }
}

fn lower_binop(ctx: &mut LowerCtx, op: py::BinOp, l: Lowered, r: Lowered) -> Result<Lowered, Bail> {
    ctx.spend(1)?;
    // String concatenation is the one non-numeric arithmetic the engine
    // matches (`'a' + 'b'`).
    if op == py::BinOp::Add && l.ty == Ty::Str && r.ty == Ty::Str {
        return Ok(Lowered {
            expr: SqlExpr::Binary {
                left: Box::new(l.expr),
                op: BinaryOp::Add,
                right: Box::new(r.expr),
            },
            ty: Ty::Str,
        });
    }
    if !l.ty.numeric() || !r.ty.numeric() {
        return Err(Bail::MixedTypes);
    }
    let both_int = matches!(l.ty, Ty::Int | Ty::Bool) && matches!(r.ty, Ty::Int | Ty::Bool);
    let any_float = l.ty == Ty::Float || r.ty == Ty::Float;
    let (sql_op, ty) = match op {
        py::BinOp::Add => (
            BinaryOp::Add,
            if both_int {
                Ty::Int
            } else if any_float {
                Ty::Float
            } else {
                Ty::Num
            },
        ),
        py::BinOp::Sub => (
            BinaryOp::Sub,
            if both_int {
                Ty::Int
            } else if any_float {
                Ty::Float
            } else {
                Ty::Num
            },
        ),
        py::BinOp::Mul => (
            BinaryOp::Mul,
            if both_int {
                Ty::Int
            } else if any_float {
                Ty::Float
            } else {
                Ty::Num
            },
        ),
        // Python `/` is true division: always float. Cast both sides so
        // the engine's integer-truncating `/` never fires.
        py::BinOp::Div => {
            let cast = |e: SqlExpr| SqlExpr::Cast {
                expr: Box::new(e),
                target: SqlType::Double,
            };
            return Ok(Lowered {
                expr: SqlExpr::Binary {
                    left: Box::new(cast(l.expr)),
                    op: BinaryOp::Div,
                    right: Box::new(cast(r.expr)),
                },
                ty: Ty::Float,
            });
        }
        py::BinOp::FloorDiv => (
            BinaryOp::FloorDiv,
            if both_int {
                Ty::Int
            } else if any_float {
                Ty::Float
            } else {
                Ty::Num
            },
        ),
        py::BinOp::Mod => (
            BinaryOp::FloorMod,
            if both_int {
                Ty::Int
            } else if any_float {
                Ty::Float
            } else {
                Ty::Num
            },
        ),
        // `**` may go float on negative exponents even for int operands.
        py::BinOp::Pow => (BinaryOp::Pow, if any_float { Ty::Float } else { Ty::Num }),
        py::BinOp::BitAnd | py::BinOp::BitOr | py::BinOp::BitXor => {
            return Err(Bail::UnsupportedExpr("bitwise"))
        }
    };
    Ok(Lowered {
        expr: SqlExpr::Binary {
            left: Box::new(l.expr),
            op: sql_op,
            right: Box::new(r.expr),
        },
        ty,
    })
}

/// The builtin whitelist. Aggregates require their argument to reference at
/// least one parameter (a column at runtime); `float`/`int`/`abs` are
/// elementwise.
fn lower_builtin(
    ctx: &mut LowerCtx,
    name: &str,
    args: &[py::Expr],
    env: &Env,
) -> Result<Lowered, Bail> {
    if args.len() != 1 {
        return Err(Bail::UnsupportedCall(name.to_string()));
    }
    let arg = lower_expr(ctx, &args[0], env)?;
    match name {
        "sum" | "len" | "min" | "max" => {
            let mut deps = BTreeSet::new();
            collect_cond_params(&arg.expr, false, &mut deps);
            if deps.is_empty() {
                // Python `sum(3)` / `len(3)` is a TypeError; only
                // parameter-backed (column) arguments iterate.
                return Err(Bail::UnsupportedCall(name.to_string()));
            }
            ctx.uses_aggregates = true;
            match name {
                "sum" => {
                    if !arg.ty.numeric() {
                        return Err(Bail::MixedTypes);
                    }
                    // `sum` over booleans yields an int in Python; cast so
                    // the engine's SUM sees integers too.
                    let (expr, ty) = if arg.ty == Ty::Bool {
                        (
                            SqlExpr::Cast {
                                expr: Box::new(arg.expr),
                                target: SqlType::Integer,
                            },
                            Ty::Int,
                        )
                    } else {
                        (arg.expr, arg.ty)
                    };
                    Ok(Lowered {
                        expr: SqlExpr::Call {
                            name: "sum".into(),
                            args: vec![expr],
                        },
                        ty,
                    })
                }
                "len" => Ok(Lowered {
                    expr: SqlExpr::Call {
                        name: "count".into(),
                        args: vec![arg.expr],
                    },
                    ty: Ty::Int,
                }),
                "min" | "max" => Ok(Lowered {
                    expr: SqlExpr::Call {
                        name: name.to_string(),
                        args: vec![arg.expr],
                    },
                    ty: arg.ty,
                }),
                _ => unreachable!(),
            }
        }
        "abs" => {
            if !arg.ty.numeric() {
                return Err(Bail::MixedTypes);
            }
            let (expr, ty) = if arg.ty == Ty::Bool {
                (
                    SqlExpr::Cast {
                        expr: Box::new(arg.expr),
                        target: SqlType::Integer,
                    },
                    Ty::Int,
                )
            } else {
                (arg.expr, arg.ty)
            };
            Ok(Lowered {
                expr: SqlExpr::Call {
                    name: "abs".into(),
                    args: vec![expr],
                },
                ty,
            })
        }
        "float" => {
            // pylite's float() is NOT vectorized: it raises TypeError on an
            // array argument. Record the params this cast can see so the
            // runtime bails when one is column-bound in operator-at-a-time
            // mode (the interpreter must raise).
            collect_cond_params(&arg.expr, false, &mut ctx.cast_params);
            Ok(Lowered {
                expr: SqlExpr::Cast {
                    expr: Box::new(arg.expr),
                    target: SqlType::Double,
                },
                ty: Ty::Float,
            })
        }
        "int" => {
            // Python `int()` truncates toward zero — exactly the engine's
            // DOUBLE→INTEGER cast. `int(str)` parse errors fall back.
            // Like float(), pylite's int() rejects arrays — track deps.
            collect_cond_params(&arg.expr, false, &mut ctx.cast_params);
            Ok(Lowered {
                expr: SqlExpr::Cast {
                    expr: Box::new(arg.expr),
                    target: SqlType::Integer,
                },
                ty: Ty::Int,
            })
        }
        other => Err(Bail::UnsupportedCall(other.to_string())),
    }
}

// ----------------------------------------------------------------------
// Invocation
// ----------------------------------------------------------------------

/// Execute an inlined plan against the bound inputs: the column, or the
/// one value, the interpreter's value would convert to, or why this
/// invocation falls back to the interpreter.
///
/// `per_row` is true in tuple-at-a-time mode: conditions see one row at a
/// time there (so column-dependent conditions are fine) but aggregates
/// would iterate a scalar (so they are not).
pub fn run_inlined(
    engine: &crate::engine::Engine,
    plan: &InlinePlan,
    inputs: &[(String, UdfInput)],
    per_row: bool,
) -> Result<crate::exec::eval::Evaluated<'static>, Bail> {
    // Runtime bail checks, cheapest first.
    if per_row && plan.uses_aggregates {
        return Err(Bail::ScalarAggregate);
    }
    let mut columns = Vec::new();
    for (name, input) in inputs {
        match input {
            UdfInput::Column(c) => {
                if c.has_nulls() {
                    return Err(Bail::NullInput);
                }
                if c.is_empty() {
                    return Err(Bail::EmptyInput);
                }
                if !per_row && plan.cond_params.contains(name.as_str()) {
                    return Err(Bail::ColumnCondition);
                }
                if !per_row && plan.cast_params.contains(name.as_str()) {
                    return Err(Bail::ColumnCast);
                }
                let mut col = c.clone();
                col.name = name.clone();
                columns.push(col);
            }
            UdfInput::Scalar(_) => {}
        }
    }
    if !per_row && plan.uses_aggregates {
        // Aggregates need every aggregated parameter column-bound; a scalar
        // binding means Python would raise "not iterable".
        let column_names: BTreeSet<&str> = columns.iter().map(|c| c.name.as_str()).collect();
        if plan
            .agg_params
            .iter()
            .any(|p| !column_names.contains(p.as_str()))
        {
            return Err(Bail::ScalarAggregate);
        }
    }
    // Substitute scalar-bound parameters as literals. All-column calls (the
    // common case) evaluate the cached plan expression without cloning it.
    let substituted;
    let expr: &SqlExpr = if inputs.iter().any(|(_, i)| matches!(i, UdfInput::Scalar(_))) {
        let mut e = plan.expr.clone();
        for (name, input) in inputs {
            if let UdfInput::Scalar(s) = input {
                substitute(&mut e, name, s);
            }
        }
        substituted = e;
        &substituted
    } else {
        &plan.expr
    };
    let table = if columns.is_empty() {
        None
    } else {
        match Table::from_columns("inline_args", columns) {
            Ok(t) => Some(t),
            Err(_) => return Err(Bail::RuntimeError),
        }
    };
    // Hoist aggregates: evaluate each distinct one once and bind its scalar
    // result, instead of recomputing per use site (variable substitution
    // duplicates them). Errors bail exactly like plain evaluation would.
    let hoisted;
    let expr: &SqlExpr = match (&table, plan.uses_aggregates) {
        (Some(t), true) => match crate::exec::eval::hoist_aggregates(engine, t, expr) {
            Ok(e) => {
                hoisted = e;
                &hoisted
            }
            Err(_) => return Err(Bail::RuntimeError),
        },
        _ => expr,
    };
    // Any evaluation error (overflow, div-by-zero, cast failure, …) defers
    // to the interpreter: pylite owns error text and traceback lines, and
    // the subset is pure so re-running is safe.
    crate::exec::eval::eval_expr(engine, table.as_ref(), expr)
        .map(|v| v.into_owned())
        .map_err(|_| Bail::RuntimeError)
}

/// Collect parameters referenced *inside* aggregate-call arguments.
fn collect_agg_params(expr: &SqlExpr, inside_agg: bool, out: &mut BTreeSet<String>) {
    match expr {
        SqlExpr::Column(name) => {
            if inside_agg {
                out.insert(name.clone());
            }
        }
        SqlExpr::Literal(_) | SqlExpr::Star => {}
        SqlExpr::Unary { expr, .. } => collect_agg_params(expr, inside_agg, out),
        SqlExpr::Binary { left, right, .. } => {
            collect_agg_params(left, inside_agg, out);
            collect_agg_params(right, inside_agg, out);
        }
        SqlExpr::Call { name, args } => {
            let agg = matches!(name.as_str(), "sum" | "count" | "min" | "max");
            for a in args {
                collect_agg_params(a, inside_agg || agg, out);
            }
        }
        SqlExpr::Cast { expr, .. } => collect_agg_params(expr, inside_agg, out),
        SqlExpr::IsNull { expr, .. } => collect_agg_params(expr, inside_agg, out),
        SqlExpr::Like { expr, pattern, .. } => {
            collect_agg_params(expr, inside_agg, out);
            collect_agg_params(pattern, inside_agg, out);
        }
        SqlExpr::InList { expr, list, .. } => {
            collect_agg_params(expr, inside_agg, out);
            for e in list {
                collect_agg_params(e, inside_agg, out);
            }
        }
        SqlExpr::Case { branches, else_ } => {
            for (c, v) in branches {
                collect_agg_params(c, inside_agg, out);
                collect_agg_params(v, inside_agg, out);
            }
            collect_agg_params(else_, inside_agg, out);
        }
    }
}

/// Replace `Column(param)` references with a literal (scalar bindings).
fn substitute(expr: &mut SqlExpr, param: &str, value: &SqlValue) {
    match expr {
        SqlExpr::Column(name) => {
            if name.eq_ignore_ascii_case(param) {
                *expr = SqlExpr::Literal(value.clone());
            }
        }
        SqlExpr::Literal(_) | SqlExpr::Star => {}
        SqlExpr::Unary { expr, .. } => substitute(expr, param, value),
        SqlExpr::Binary { left, right, .. } => {
            substitute(left, param, value);
            substitute(right, param, value);
        }
        SqlExpr::Call { args, .. } => {
            for a in args {
                substitute(a, param, value);
            }
        }
        SqlExpr::Cast { expr, .. } => substitute(expr, param, value),
        SqlExpr::IsNull { expr, .. } => substitute(expr, param, value),
        SqlExpr::Like { expr, pattern, .. } => {
            substitute(expr, param, value);
            substitute(pattern, param, value);
        }
        SqlExpr::InList { expr, list, .. } => {
            substitute(expr, param, value);
            for e in list {
                substitute(e, param, value);
            }
        }
        SqlExpr::Case { branches, else_ } => {
            for (c, v) in branches {
                substitute(c, param, value);
                substitute(v, param, value);
            }
            substitute(else_, param, value);
        }
    }
}

/// Render a lowered expression for EXPLAIN output.
pub fn render_expr(expr: &SqlExpr) -> String {
    match expr {
        SqlExpr::Literal(v) => v.render(),
        SqlExpr::Column(name) => name.clone(),
        SqlExpr::Star => "*".into(),
        SqlExpr::Unary { op, expr } => match op {
            UnaryOp::Neg => format!("-{}", render_expr(expr)),
            UnaryOp::Not => format!("NOT {}", render_expr(expr)),
        },
        SqlExpr::Binary { left, op, right } => format!(
            "({} {} {})",
            render_expr(left),
            op.symbol(),
            render_expr(right)
        ),
        SqlExpr::Call { name, args } => format!(
            "{name}({})",
            args.iter().map(render_expr).collect::<Vec<_>>().join(", ")
        ),
        SqlExpr::Cast { expr, target } => {
            format!("CAST({} AS {})", render_expr(expr), target.name())
        }
        SqlExpr::IsNull { expr, negated } => format!(
            "{} IS {}NULL",
            render_expr(expr),
            if *negated { "NOT " } else { "" }
        ),
        SqlExpr::Like {
            expr,
            pattern,
            negated,
        } => format!(
            "{} {}LIKE {}",
            render_expr(expr),
            if *negated { "NOT " } else { "" },
            render_expr(pattern)
        ),
        SqlExpr::InList {
            expr,
            list,
            negated,
        } => format!(
            "{} {}IN ({})",
            render_expr(expr),
            if *negated { "NOT " } else { "" },
            list.iter().map(render_expr).collect::<Vec<_>>().join(", ")
        ),
        SqlExpr::Case { branches, else_ } => {
            let mut s = String::from("CASE");
            for (c, v) in branches {
                s.push_str(&format!(" WHEN {} THEN {}", render_expr(c), render_expr(v)));
            }
            s.push_str(&format!(" ELSE {} END", render_expr(else_)));
            s
        }
    }
}
