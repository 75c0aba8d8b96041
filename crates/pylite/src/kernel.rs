//! Typed loop kernels: accumulator loops run as one tight Rust loop.
//!
//! The loops of a columnar UDF are mostly cursor-style accumulations —
//! paper Listing 4 is two of them:
//!
//! ```text
//! for i in range(0, len(column)):
//!     mean += column[i]
//! ```
//!
//! Aggify ("Lifting the Curse of Cursor Loops using Custom Aggregates",
//! SIGMOD 2020) lifts such loops into aggregates. pylite does the same in
//! its compiler: for a `for` loop whose body is only augmented
//! assignments to plain names, [`crate::compile`] emits one
//! [`Instr::Kernel`](crate::compile::Instr::Kernel) in front of the
//! unchanged loop code, which stays as the fallback. The VM runs the kernel
//! over typed `i64`/`f64` operands and binds the results once, at the end.
//!
//! # Candidates (decided at compile time)
//!
//! The loop target is a plain name, and the body is one or more
//! `name op= e` statements with `op` one of `+ - * /`, each with an
//! accumulator of its own that differs from the loop variable and from
//! every indexed array. `e` uses only constants, the loop variable, names
//! the loop does not assign, `arr[loopvar]`, unary minus, `+ - * /` and
//! `abs(…)`; it reads no accumulator. Anything else is no candidate and
//! gets a static [`Bail`] reason, the label `EXPLAIN` shows.
//!
//! # Entry checks (once per loop entry)
//!
//! The kernel runs only when no profiler is armed, the attached debugger
//! cannot stop on any body line, the iterable is a `range` or an
//! `Int`/`Float` array, the loop runs at least [`MIN_TRIPS`] iterations,
//! every indexed array is an `Int`/`Float` array that the range's indices
//! stay inside, every scalar is an `Int` or a `Float` (never a `Bool`),
//! `abs` is the builtin, and the statement budget covers the whole loop. A
//! failed check is a runtime [`Bail`]: nothing changes and the fallback
//! loop runs.
//!
//! # Why values and statement counts are identical
//!
//! The kernel computes each statement's value for every iteration with
//! the VM's operator order, then folds the values into the statement's
//! accumulator in iteration order, with no reassociation. No expression
//! reads an accumulator, so these are the values the loop computes one
//! iteration at a time. Its arithmetic is `binop_fast`'s: checked `i64`,
//! int→float promotion, `f64` operators. Any failure mid-loop — overflow,
//! a zero divisor — discards the kernel's work, and the fallback runs the
//! loop from the start and raises the same error at the same statement.
//! On success the kernel charges the statement budget exactly the
//! statements the loop would have run, leaves the frame line where the VM
//! would, and binds the accumulators and the loop variable's last value
//! through the VM's slot cache. The AST walker has no kernels: it stays
//! the oracle the kernels are checked against.
//!
//! ```
//! use pylite::{ExecMode, Interp, Value};
//!
//! let mut interp = Interp::new();
//! interp.set_exec_mode(ExecMode::Bytecode);
//! interp
//!     .eval_module("total = 0\nfor i in range(10):\n    total += i * i\n")
//!     .unwrap();
//! assert_eq!(interp.get_global("total"), Some(Value::Int(285)));
//! assert_eq!(interp.get_global("i"), Some(Value::Int(9)));
//! assert_eq!(interp.loop_counts().lifted, 1);
//! ```

use std::rc::Rc;
use std::sync::OnceLock;

use crate::ast::{BinOp, Expr, ExprKind, Index, Stmt, StmtKind, UnaryOp};
use crate::compile::CodeObject;
use crate::interp::Interp;
use crate::value::{Array, Value};
use crate::vm::Slots;

/// Why a loop does not run as a kernel: a static reason decided when the
/// loop compiles, or a runtime reason one loop entry met.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bail {
    /// The loop target is not a plain name.
    Target,
    Break,
    Continue,
    If,
    /// A loop inside the body.
    NestedLoop,
    /// A `while` loop: never a candidate.
    While,
    /// A body statement other than `name op= e`.
    Statement,
    /// An operator other than `+ - * /`, or unary `+`/`not`.
    Operator,
    /// An accumulator that is the loop variable or an indexed array, that
    /// an expression reads, or that two statements assign.
    Accumulator,
    /// A call other than `abs(x)`.
    Call,
    Attribute,
    /// A subscript other than `name[loopvar]`.
    Subscript,
    /// Any other expression, or one too deep for the kernel's stack.
    Expression,
    /// The line profiler is armed.
    Profiler,
    /// The attached debugger can stop on a body line.
    Debugger,
    /// The iterable is neither a `range` nor an `Int`/`Float` array.
    Iterable,
    /// The loop runs fewer than [`MIN_TRIPS`] iterations.
    Short,
    /// An indexed operand is not an `Int`/`Float` array.
    Operand,
    /// An index falls outside `0..len`, or an array iterable is indexed.
    Index,
    /// A scalar operand is not an `Int` or a `Float`.
    Scalar,
    /// An operand is not bound.
    Unbound,
    /// `abs` is not the builtin.
    Abs,
    /// The statement budget runs out inside the loop.
    Budget,
    /// Integer overflow mid-loop.
    Overflow,
    /// A zero divisor mid-loop. The last reason: it sizes the table of
    /// bail counters.
    ZeroDivision,
}

impl Bail {
    /// The reason's label: `EXPLAIN`'s plan text and the suffix of the
    /// `pylite.loop.bail.<label>` counter.
    pub fn label(self) -> &'static str {
        match self {
            Bail::Target => "target",
            Bail::Break => "break",
            Bail::Continue => "continue",
            Bail::If => "if",
            Bail::NestedLoop => "nested-loop",
            Bail::While => "while",
            Bail::Statement => "statement",
            Bail::Operator => "operator",
            Bail::Accumulator => "accumulator",
            Bail::Call => "call",
            Bail::Attribute => "attribute",
            Bail::Subscript => "subscript",
            Bail::Expression => "expression",
            Bail::Profiler => "profiler",
            Bail::Debugger => "debugger",
            Bail::Iterable => "iterable",
            Bail::Short => "short",
            Bail::Operand => "operand",
            Bail::Index => "index",
            Bail::Scalar => "scalar",
            Bail::Unbound => "unbound",
            Bail::Abs => "abs",
            Bail::Budget => "budget",
            Bail::Overflow => "overflow",
            Bail::ZeroDivision => "zero-division",
        }
    }

    /// The `pylite.loop.bail.<label>` counter, resolved once per reason.
    fn counter(self) -> &'static obs::metrics::Counter {
        static COUNTERS: [OnceLock<obs::metrics::Counter>; Bail::ZeroDivision as usize + 1] =
            [const { OnceLock::new() }; Bail::ZeroDivision as usize + 1];
        COUNTERS[self as usize].get_or_init(|| {
            obs::metrics::registry().counter(&format!("pylite.loop.bail.{}", self.label()))
        })
    }
}

/// Loop entries over an interpreter's lifetime that ran as a kernel
/// (`lifted`) or took the fallback loop (`bailed`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopCounts {
    pub lifted: u64,
    pub bailed: u64,
}

/// One loop of a module body, in source order, and whether it compiles
/// to a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopPlan {
    /// Line of the `for` / `while` header.
    pub line: u32,
    /// `Ok` for a kernel candidate, else the static reason.
    pub kernel: Result<(), Bail>,
}

/// Every loop of `body`, nested ones and those of function bodies
/// included, with its kernel decision.
pub fn loops(body: &[Stmt]) -> Vec<LoopPlan> {
    let mut out = Vec::new();
    collect_loops(body, &mut out);
    out
}

fn collect_loops(body: &[Stmt], out: &mut Vec<LoopPlan>) {
    for stmt in body {
        match &stmt.kind {
            StmtKind::For { target, body, .. } => {
                out.push(LoopPlan {
                    line: stmt.line,
                    kernel: plan(target, body, |_| 0).map(|_| ()),
                });
                collect_loops(body, out);
            }
            StmtKind::While { body, .. } => {
                out.push(LoopPlan {
                    line: stmt.line,
                    kernel: Err(Bail::While),
                });
                collect_loops(body, out);
            }
            StmtKind::If { branches, orelse } => {
                for (_, branch) in branches {
                    collect_loops(branch, out);
                }
                collect_loops(orelse, out);
            }
            StmtKind::Try {
                body,
                handlers,
                finally,
            } => {
                collect_loops(body, out);
                for (_, _, handler) in handlers {
                    collect_loops(handler, out);
                }
                collect_loops(finally, out);
            }
            StmtKind::FunctionDef(def) => collect_loops(&def.body, out),
            _ => {}
        }
    }
}

/// Depth of the kernel's operand stack; a deeper expression is no
/// candidate.
const STACK: usize = 8;

/// Fewest iterations a kernel runs. A kernel entry binds the loop's
/// operands and allocates a block's vectors, which costs about as much as
/// the VM running 5 or 6 iterations of `s += a[k]`, so a shorter loop runs
/// on the VM.
pub const MIN_TRIPS: u64 = 8;

/// A typed kernel operand.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Num {
    I(i64),
    F(f64),
}

impl Num {
    fn of(v: &Value) -> Option<Num> {
        match v {
            Value::Int(i) => Some(Num::I(*i)),
            Value::Float(f) => Some(Num::F(*f)),
            _ => None,
        }
    }

    fn value(self) -> Value {
        match self {
            Num::I(i) => Value::Int(i),
            Num::F(f) => Value::Float(f),
        }
    }

    fn float(self) -> f64 {
        match self {
            Num::I(i) => i as f64,
            Num::F(f) => f,
        }
    }
}

/// One step of a statement's expression, in postfix order.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Const(Num),
    /// The loop variable.
    Var,
    /// The n-th name the loop does not assign, read once per loop entry.
    Free(u8),
    /// Element `loopvar` of the n-th indexed array.
    Elem(u8),
    Neg,
    Abs,
    Bin(BinOp),
}

/// One body statement, `acc op= expr`, whose accumulator no other
/// statement assigns and no expression reads.
#[derive(Debug)]
struct Statement {
    acc: u16,
    op: BinOp,
    expr: Vec<Op>,
}

/// A compiled kernel: the loop's names as slots of the code object's name
/// table, and its body statements.
#[derive(Debug)]
pub struct Kernel {
    var: u16,
    stmts: Vec<Statement>,
    free: Vec<u16>,
    arrays: Vec<u16>,
    /// The `abs` slot, when the body calls it.
    abs: Option<u16>,
    /// Source line of each body statement.
    lines: Vec<u32>,
}

/// Decide whether `for target in …: body` is a kernel candidate and lower
/// it, naming slots through `slot` only once the loop qualifies.
pub(crate) fn plan(
    target: &Expr,
    body: &[Stmt],
    mut slot: impl FnMut(&str) -> u16,
) -> Result<Kernel, Bail> {
    let ExprKind::Name(var) = &target.kind else {
        return Err(Bail::Target);
    };
    let mut accs: Vec<&str> = Vec::new();
    let mut shapes = Vec::with_capacity(body.len());
    for stmt in body {
        let (target, op, value) = match &stmt.kind {
            StmtKind::AugAssign { target, op, value } => (target, *op, value),
            StmtKind::Break => return Err(Bail::Break),
            StmtKind::Continue => return Err(Bail::Continue),
            StmtKind::If { .. } => return Err(Bail::If),
            StmtKind::For { .. } | StmtKind::While { .. } => return Err(Bail::NestedLoop),
            _ => return Err(Bail::Statement),
        };
        let acc = match &target.kind {
            ExprKind::Name(acc) => acc.as_str(),
            ExprKind::Subscript { .. } => return Err(Bail::Subscript),
            ExprKind::Attribute { .. } => return Err(Bail::Attribute),
            _ => return Err(Bail::Statement),
        };
        if !arithmetic(op) {
            return Err(Bail::Operator);
        }
        if acc == var || accs.contains(&acc) {
            return Err(Bail::Accumulator);
        }
        accs.push(acc);
        shapes.push((op, value));
    }
    let mut lower = Lower {
        var,
        accs: &accs,
        free: Vec::new(),
        arrays: Vec::new(),
        abs: false,
    };
    let mut exprs = Vec::with_capacity(shapes.len());
    for (_, value) in &shapes {
        let mut ops = Vec::new();
        lower.expr(value, &mut ops)?;
        if depth(&ops) > STACK {
            return Err(Bail::Expression);
        }
        exprs.push(ops);
    }
    if lower.arrays.iter().any(|a| accs.contains(a)) {
        return Err(Bail::Accumulator);
    }
    let var = slot(var);
    let stmts = accs
        .iter()
        .zip(shapes)
        .zip(exprs)
        .map(|((acc, (op, _)), expr)| Statement {
            acc: slot(acc),
            op,
            expr,
        })
        .collect();
    let mut slots = |names: &[&str]| names.iter().map(|n| slot(n)).collect();
    Ok(Kernel {
        var,
        stmts,
        free: slots(&lower.free),
        arrays: slots(&lower.arrays),
        abs: lower.abs.then(|| slot("abs")),
        lines: body.iter().map(|s| s.line).collect(),
    })
}

fn arithmetic(op: BinOp) -> bool {
    matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div)
}

/// Operand-stack depth a postfix expression reaches.
fn depth(ops: &[Op]) -> usize {
    let (mut sp, mut max) = (0usize, 0usize);
    for op in ops {
        match op {
            Op::Neg | Op::Abs => {}
            Op::Bin(_) => sp -= 1,
            _ => sp += 1,
        }
        max = max.max(sp);
    }
    max
}

/// Lowers one loop's expressions, collecting the names they read.
struct Lower<'a> {
    var: &'a str,
    accs: &'a [&'a str],
    free: Vec<&'a str>,
    arrays: Vec<&'a str>,
    abs: bool,
}

impl<'a> Lower<'a> {
    fn expr(&mut self, e: &'a Expr, ops: &mut Vec<Op>) -> Result<(), Bail> {
        match &e.kind {
            ExprKind::Int(i) => ops.push(Op::Const(Num::I(*i))),
            ExprKind::Float(f) => ops.push(Op::Const(Num::F(*f))),
            ExprKind::Name(name) if name == self.var => ops.push(Op::Var),
            ExprKind::Name(name) if self.accs.contains(&name.as_str()) => {
                return Err(Bail::Accumulator)
            }
            ExprKind::Name(name) => ops.push(Op::Free(listed(&mut self.free, name)?)),
            ExprKind::Subscript { value, index } => {
                let (ExprKind::Name(array), Index::Item(idx)) = (&value.kind, index.as_ref())
                else {
                    return Err(Bail::Subscript);
                };
                if !matches!(&idx.kind, ExprKind::Name(i) if i == self.var) || array == self.var {
                    return Err(Bail::Subscript);
                }
                ops.push(Op::Elem(listed(&mut self.arrays, array)?));
            }
            ExprKind::UnaryOp {
                op: UnaryOp::Neg,
                operand,
            } => {
                self.expr(operand, ops)?;
                ops.push(Op::Neg);
            }
            ExprKind::UnaryOp { .. } => return Err(Bail::Operator),
            ExprKind::BinOp { left, op, right } => {
                if !arithmetic(*op) {
                    return Err(Bail::Operator);
                }
                self.expr(left, ops)?;
                self.expr(right, ops)?;
                ops.push(Op::Bin(*op));
            }
            ExprKind::Call { func, args, kwargs } => {
                let is_abs = matches!(&func.kind, ExprKind::Name(f) if f == "abs");
                if !is_abs
                    || args.len() != 1
                    || !kwargs.is_empty()
                    || self.var == "abs"
                    || self.accs.contains(&"abs")
                {
                    return Err(Bail::Call);
                }
                self.abs = true;
                self.expr(&args[0], ops)?;
                ops.push(Op::Abs);
            }
            ExprKind::Attribute { .. } => return Err(Bail::Attribute),
            _ => return Err(Bail::Expression),
        }
        Ok(())
    }
}

/// Index of `name` in `names`, appended when new.
fn listed<'a>(names: &mut Vec<&'a str>, name: &'a str) -> Result<u8, Bail> {
    if !names.contains(&name) {
        names.push(name);
    }
    let i = names.iter().position(|n| *n == name).expect("name listed");
    u8::try_from(i).map_err(|_| Bail::Expression)
}

/// The values a loop iterates over: a range, or an `Int`/`Float` array.
enum Source {
    Range { start: i64, step: i64, n: u64 },
    Array(Rc<Array>),
}

impl Source {
    /// The loop variable's value in iteration `j`.
    fn var(&self, j: u64) -> Num {
        match self {
            Source::Range { start, step, .. } => {
                Num::I(start.wrapping_add((j as i64).wrapping_mul(*step)))
            }
            Source::Array(a) => Num::of(&a.get(j as usize)).expect("typed iterable"),
        }
    }

    /// The loop variable over iterations `base..base + len`.
    fn vars(&self, base: u64, len: usize) -> Vals {
        match self {
            Source::Range { .. } => Vals::I(
                (base..base + len as u64)
                    .map(|j| match self.var(j) {
                        Num::I(i) => i,
                        Num::F(_) => unreachable!("a range yields ints"),
                    })
                    .collect(),
            ),
            Source::Array(a) => {
                let at = base as usize..base as usize + len;
                match a.as_ref() {
                    Array::Int(v) => Vals::I(v[at].to_vec()),
                    Array::Float(v) => Vals::F(v[at].to_vec()),
                    _ => unreachable!("typed iterable"),
                }
            }
        }
    }
}

/// Run kernel `k` on the loop whose iterable is `iterable`, counting the
/// entry as lifted or bailed. `true`: the loop ran and its results are
/// bound. `false`: nothing changed, and the fallback loop must run.
pub(crate) fn enter(
    interp: &mut Interp,
    code: &CodeObject,
    k: &Kernel,
    slots: &mut Slots,
    iterable: &Value,
) -> bool {
    let outcome = run(interp, code, k, slots, iterable);
    match outcome {
        Ok(stmts) => {
            interp.loops.lifted += 1;
            obs::counter!("pylite.loop.lifted").inc();
            obs::counter!("pylite.loop.statements").add(stmts);
        }
        Err(bail) => {
            interp.loops.bailed += 1;
            obs::counter!("pylite.loop.bailed").inc();
            bail.counter().inc();
        }
    }
    outcome.is_ok()
}

/// The entry checks, the loop and the binds; the statements charged.
fn run(
    interp: &mut Interp,
    code: &CodeObject,
    k: &Kernel,
    slots: &mut Slots,
    iterable: &Value,
) -> Result<u64, Bail> {
    interp.kernel_may_run(&k.lines)?;
    let source = match iterable {
        Value::Range { start, stop, step } if *step != 0 => Source::Range {
            start: *start,
            step: *step,
            n: crate::interp::range_len(*start, *stop, *step) as u64,
        },
        Value::Array(a) if matches!(a.as_ref(), Array::Int(_) | Array::Float(_)) => {
            Source::Array(a.clone())
        }
        _ => return Err(Bail::Iterable),
    };
    let n = match &source {
        Source::Range { n, .. } => *n,
        Source::Array(a) => a.len() as u64,
    };
    if n < MIN_TRIPS {
        return Err(Bail::Short);
    }
    let line = k.lines[0];
    let mut fill = |slot: u16| {
        slots
            .fill(interp, code, slot, line)
            .map(|()| slots.get(slot).clone())
            .map_err(|_| Bail::Unbound)
    };
    let mut arrays = Vec::with_capacity(k.arrays.len());
    for &slot in &k.arrays {
        match fill(slot)? {
            Value::Array(a) if matches!(a.as_ref(), Array::Int(_) | Array::Float(_)) => {
                arrays.push(a)
            }
            _ => return Err(Bail::Operand),
        }
    }
    if !arrays.is_empty() {
        let Source::Range { start, step, n } = source else {
            return Err(Bail::Index);
        };
        let last = start.wrapping_add(((n - 1) as i64).wrapping_mul(step));
        let (lo, hi) = (start.min(last), start.max(last));
        if lo < 0 || arrays.iter().any(|a| hi as u64 >= a.len() as u64) {
            return Err(Bail::Index);
        }
    }
    let mut accs = Vec::with_capacity(k.stmts.len());
    for s in &k.stmts {
        accs.push(Num::of(&fill(s.acc)?).ok_or(Bail::Scalar)?);
    }
    let mut free = Vec::with_capacity(k.free.len());
    for &slot in &k.free {
        free.push(Num::of(&fill(slot)?).ok_or(Bail::Scalar)?);
    }
    if let Some(slot) = k.abs {
        if !matches!(fill(slot)?, Value::Builtin(b) if b.name == "abs") {
            return Err(Bail::Abs);
        }
    }
    let stmts = n
        .checked_mul(k.lines.len() as u64)
        .filter(|&s| s <= interp.budget_left())
        .ok_or(Bail::Budget)?;
    execute(k, &source, n, &free, &arrays, &mut accs)?;
    let last = source.var(n - 1);
    interp.charge_kernel(stmts, k.lines[k.lines.len() - 1]);
    for (s, acc) in k.stmts.iter().zip(accs) {
        slots.store(s.acc, acc.value());
    }
    slots.store(k.var, last.value());
    Ok(stmts)
}

/// Iterations one pass of [`execute`] covers.
const BLOCK: usize = 1024;

/// One operand over a block of iterations.
#[derive(Clone)]
enum Vals {
    I(Vec<i64>),
    F(Vec<f64>),
}

impl Vals {
    fn num(&self, j: usize) -> Num {
        match self {
            Vals::I(v) => Num::I(v[j]),
            Vals::F(v) => Num::F(v[j]),
        }
    }

    fn floats(self) -> Vec<f64> {
        match self {
            Vals::I(v) => v.into_iter().map(|x| x as f64).collect(),
            Vals::F(v) => v,
        }
    }
}

/// The loop, a block of iterations at a time. Each statement's values for
/// the block are computed one operator at a time over whole vectors, as a
/// column engine evaluates an expression, then folded into its
/// accumulator in iteration order. No expression reads an accumulator, so
/// these are the values and folds of the loop run one iteration at a
/// time, only computed in an interleaving no statement can observe:
/// bit-identical results. Any failure discards the whole run, so it does
/// not matter which iteration's failure is met first.
fn execute(
    k: &Kernel,
    source: &Source,
    n: u64,
    free: &[Num],
    arrays: &[Rc<Array>],
    accs: &mut [Num],
) -> Result<(), Bail> {
    let mut stack = Vec::with_capacity(STACK);
    let mut base = 0;
    while base < n {
        let len = (n - base).min(BLOCK as u64) as usize;
        let vars = source.vars(base, len);
        for (s, acc) in k.stmts.iter().zip(accs.iter_mut()) {
            let values = eval_block(&s.expr, &vars, len, free, arrays, &mut stack)?;
            *acc = fold(*acc, s.op, &values)?;
        }
        base += len as u64;
    }
    Ok(())
}

/// One statement's expression over a block: `vars` holds the loop
/// variable's values, which index the arrays of a range loop. `stack` is
/// the caller's operand stack, empty between calls.
fn eval_block(
    ops: &[Op],
    vars: &Vals,
    len: usize,
    free: &[Num],
    arrays: &[Rc<Array>],
    stack: &mut Vec<Vals>,
) -> Result<Vals, Bail> {
    fn gather<T: Copy>(col: &[T], vars: &Vals) -> Vec<T> {
        match vars {
            Vals::I(idx) => idx.iter().map(|&i| col[i as usize]).collect(),
            Vals::F(_) => unreachable!("only a range loop indexes"),
        }
    }
    let splat = |c: Num| match c {
        Num::I(c) => Vals::I(vec![c; len]),
        Num::F(c) => Vals::F(vec![c; len]),
    };
    stack.clear();
    for op in ops {
        match *op {
            Op::Const(c) => stack.push(splat(c)),
            Op::Free(f) => stack.push(splat(free[f as usize])),
            Op::Var => stack.push(vars.clone()),
            Op::Elem(c) => stack.push(match arrays[c as usize].as_ref() {
                Array::Int(col) => Vals::I(gather(col, vars)),
                Array::Float(col) => Vals::F(gather(col, vars)),
                _ => unreachable!("checked at loop entry"),
            }),
            Op::Neg | Op::Abs => {
                let negate = matches!(op, Op::Neg);
                match stack.last_mut().expect("an operand") {
                    Vals::I(v) => {
                        for x in v.iter_mut() {
                            let y = if negate {
                                x.checked_neg()
                            } else {
                                x.checked_abs()
                            };
                            *x = y.ok_or(Bail::Overflow)?;
                        }
                    }
                    Vals::F(v) => {
                        for x in v.iter_mut() {
                            *x = if negate { -*x } else { x.abs() };
                        }
                    }
                }
            }
            Op::Bin(b) => {
                let r = stack.pop().expect("two operands");
                let l = stack.pop().expect("two operands");
                stack.push(binop_block(b, l, r)?);
            }
        }
    }
    Ok(stack.pop().expect("one value"))
}

/// [`binop`] element by element over two blocks.
fn binop_block(op: BinOp, l: Vals, r: Vals) -> Result<Vals, Bail> {
    fn ints(mut a: Vec<i64>, b: &[i64], f: impl Fn(i64, i64) -> Option<i64>) -> Result<Vals, Bail> {
        for (x, &y) in a.iter_mut().zip(b) {
            *x = f(*x, y).ok_or(Bail::Overflow)?;
        }
        Ok(Vals::I(a))
    }
    fn floats(mut a: Vec<f64>, b: &[f64], f: impl Fn(f64, f64) -> f64) -> Vals {
        for (x, &y) in a.iter_mut().zip(b) {
            *x = f(*x, y);
        }
        Vals::F(a)
    }
    let (l, r) = match (l, r) {
        (Vals::I(a), Vals::I(b)) => match op {
            BinOp::Add => return ints(a, &b, i64::checked_add),
            BinOp::Sub => return ints(a, &b, i64::checked_sub),
            BinOp::Mul => return ints(a, &b, i64::checked_mul),
            _ if b.contains(&0) => return Err(Bail::ZeroDivision),
            _ => (Vals::I(a), Vals::I(b)),
        },
        other => other,
    };
    let (a, b) = (l.floats(), r.floats());
    Ok(match op {
        BinOp::Add => floats(a, &b, |x, y| x + y),
        BinOp::Sub => floats(a, &b, |x, y| x - y),
        BinOp::Mul => floats(a, &b, |x, y| x * y),
        _ if b.contains(&0.0) => return Err(Bail::ZeroDivision),
        _ => floats(a, &b, |x, y| x / y),
    })
}

/// Fold a block of values into an accumulator in iteration order:
/// `acc = acc op v` for each value, as [`binop`] computes it.
fn fold(acc: Num, op: BinOp, vals: &Vals) -> Result<Num, Bail> {
    if let (Num::I(mut a), Vals::I(v)) = (acc, vals) {
        let f = match op {
            BinOp::Add => i64::checked_add,
            BinOp::Sub => i64::checked_sub,
            BinOp::Mul => i64::checked_mul,
            _ => return fold_float(acc, op, vals),
        };
        for &x in v {
            a = f(a, x).ok_or(Bail::Overflow)?;
        }
        return Ok(Num::I(a));
    }
    fold_float(acc, op, vals)
}

/// [`fold`] once a float is involved: the first step makes the
/// accumulator a float, and every later step is an `f64` operation.
fn fold_float(acc: Num, op: BinOp, vals: &Vals) -> Result<Num, Bail> {
    let len = match vals {
        Vals::I(v) => v.len(),
        Vals::F(v) => v.len(),
    };
    if len == 0 {
        return Ok(acc);
    }
    let Num::F(mut a) = binop(op, acc, vals.num(0))? else {
        unreachable!("a float or a division makes a float")
    };
    let mut step = |x: f64| -> Result<(), Bail> {
        a = match op {
            BinOp::Add => a + x,
            BinOp::Sub => a - x,
            BinOp::Mul => a * x,
            _ if x == 0.0 => return Err(Bail::ZeroDivision),
            _ => a / x,
        };
        Ok(())
    };
    match vals {
        Vals::I(v) => v[1..].iter().try_for_each(|&x| step(x as f64))?,
        Vals::F(v) => v[1..].iter().try_for_each(|&x| step(x))?,
    }
    Ok(Num::F(a))
}

/// `binop_fast`'s `+ - * /` rows: checked `i64`, `/` always to float,
/// any float operand promotes the other.
fn binop(op: BinOp, l: Num, r: Num) -> Result<Num, Bail> {
    if let (Num::I(a), Num::I(b)) = (l, r) {
        return match op {
            BinOp::Add => a.checked_add(b).map(Num::I).ok_or(Bail::Overflow),
            BinOp::Sub => a.checked_sub(b).map(Num::I).ok_or(Bail::Overflow),
            BinOp::Mul => a.checked_mul(b).map(Num::I).ok_or(Bail::Overflow),
            _ if b == 0 => Err(Bail::ZeroDivision),
            _ => Ok(Num::F(a as f64 / b as f64)),
        };
    }
    let (a, b) = (l.float(), r.float());
    Ok(Num::F(match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        _ if b == 0.0 => return Err(Bail::ZeroDivision),
        _ => a / b,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    fn verdicts(src: &str) -> Vec<(u32, Result<(), Bail>)> {
        let module = parse_module(src).unwrap();
        loops(&module.body)
            .into_iter()
            .map(|l| (l.line, l.kernel))
            .collect()
    }

    #[test]
    fn listing4_loops_are_candidates() {
        let src = "mean = 0\nfor i in range(0, len(column)):\n    mean += column[i]\nmean = mean / len(column)\ndistance = 0\nfor i in range(0, len(column)):\n    distance += abs(column[i] - mean)\n";
        assert_eq!(verdicts(src), [(2, Ok(())), (6, Ok(()))]);
    }

    #[test]
    fn static_reasons_name_the_first_offending_piece() {
        let cases = [
            ("for i in x:\n    break\n", Bail::Break),
            ("for i in x:\n    continue\n", Bail::Continue),
            ("for i in x:\n    if i:\n        s += 1\n", Bail::If),
            ("for i in x:\n    s = s + i\n", Bail::Statement),
            ("for i, j in x:\n    s += i\n", Bail::Target),
            ("for i in x:\n    s //= i\n", Bail::Operator),
            ("for i in x:\n    s += i ** 2\n", Bail::Operator),
            ("for i in x:\n    i += 1\n", Bail::Accumulator),
            ("for i in x:\n    a += a[i]\n", Bail::Accumulator),
            ("for i in x:\n    s += s * i\n", Bail::Accumulator),
            ("for i in x:\n    s += i\n    t += s\n", Bail::Accumulator),
            ("for i in x:\n    s += i\n    s -= 1\n", Bail::Accumulator),
            ("for i in x:\n    s += len(a)\n", Bail::Call),
            ("for i in x:\n    s += abs(i, 2)\n", Bail::Call),
            ("for i in x:\n    s += a.size\n", Bail::Attribute),
            ("for i in x:\n    s += a[i + 1]\n", Bail::Subscript),
            ("for i in x:\n    s += i < 2\n", Bail::Expression),
            ("for i in x:\n    s += 'a'\n", Bail::Expression),
            ("for i in x:\n    a[i] += 1\n", Bail::Subscript),
        ];
        for (src, reason) in cases {
            assert_eq!(verdicts(src), [(1, Err(reason))], "{src}");
        }
    }

    #[test]
    fn nested_and_while_loops_are_listed_in_source_order() {
        let src = "def f(a):\n    for i in range(3):\n        for j in range(2):\n            s += a[j]\n    while s:\n        s -= 1\n";
        assert_eq!(
            verdicts(src),
            [
                (2, Err(Bail::NestedLoop)),
                (3, Ok(())),
                (5, Err(Bail::While))
            ]
        );
    }

    #[test]
    fn binop_matches_the_vm_fast_path() {
        use BinOp::*;
        assert_eq!(binop(Add, Num::I(2), Num::I(3)), Ok(Num::I(5)));
        assert_eq!(binop(Div, Num::I(3), Num::I(2)), Ok(Num::F(1.5)));
        assert_eq!(binop(Div, Num::I(3), Num::I(0)), Err(Bail::ZeroDivision));
        assert_eq!(binop(Div, Num::F(3.0), Num::I(0)), Err(Bail::ZeroDivision));
        assert_eq!(binop(Mul, Num::I(i64::MAX), Num::I(2)), Err(Bail::Overflow));
        assert_eq!(binop(Sub, Num::I(1), Num::F(0.5)), Ok(Num::F(0.5)));
    }
}
