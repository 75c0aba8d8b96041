//! Bytecode dispatch loop (the execute half of the bytecode VM).
//!
//! `run` executes a [`CodeObject`] produced by [`crate::compile`]
//! against the current interpreter frame. The VM owns only *control*
//! state — a value stack, an iterator stack, and the `try`/pending
//! stacks — while all *value* semantics (operators, calls, indexing,
//! name resolution, error formatting) delegate to the same
//! [`crate::Interp`] helpers the AST walker uses, which is how
//! the two execution modes stay observably identical.
//!
//! # The slot cache
//!
//! The walker's dominant cost is name traffic: every load hashes into
//! the frame's `HashMap` scope and every store allocates a fresh key
//! `String`. The VM instead keeps a per-run *slot cache* parallel to the
//! code object's name table. A slot is `Stale` (must consult the real
//! scope), `Clean` (cached copy of the scope value), or `Dirty` (written
//! here but not yet visible in the scope). The real scope `HashMap`s
//! remain the source of truth; the cache is synchronized at *barriers*:
//!
//! * **flush** — write `Dirty` slots back through
//!   `Interp::bind_name` (which routes `global`-declared names to the
//!   module scope exactly like the walker);
//! * **invalidate** — mark every slot `Stale` after foreign code may
//!   have rebound names (a Python-function call, a native method on a
//!   [`Value::Native`] receiver, a debugger stop that rebound a name,
//!   an import).
//!
//! Calls to builtins with only inert arguments (no functions, natives
//! or modules) skip the barrier — that keeps `append`/`int`/`len` hot
//! loops allocation-free, and is sound because no builtin reaches the
//! interpreter's scopes except by calling a function-valued argument.
//!
//! The cache also flushes whenever control leaves the frame (return,
//! early module exit, or error propagation), so partially executed
//! statements leave exactly the bindings behind that the walker would.
//!
//! # Debugger parity
//!
//! [`Instr::Trace`] runs the statement gate the walker runs before every
//! statement: it counts the statement, records the line in the frame (so
//! `Interp::stack` and tracebacks agree), charges the statement budget,
//! feeds the line profiler and asks whether the attached debugger can
//! stop on this line — a breakpoint line while running, every line while
//! stepping. Only then does the VM flush its slot cache and hand the
//! statement to the debugger, whose conditions and watches read the real
//! scopes, never the cache. They may rebind names through the functions
//! they call, so the VM invalidates the cache afterwards if any name was
//! bound or deleted during the call (`Interp::binds` moved), even when
//! the stop ends in a Quit that a `try` catches. Lines the debugger
//! cannot stop on, and stops that rebind nothing, keep the cache warm.
//! Breakpoints and stepping therefore behave identically in both
//! [`crate::ExecMode`]s.
//!
//! # Loop kernels
//!
//! [`Instr::Kernel`] runs an accumulator loop as one typed Rust loop
//! ([`crate::kernel`]) when its entry checks pass — among them that the
//! debugger cannot stop on any of the loop's lines — and otherwise falls
//! through into the loop's ordinary code, so a debug session steps through
//! a loop exactly as before.
//!
//! # Example: a breakpoint pauses the VM on a line-table line
//!
//! ```
//! use pylite::{compile_module, DebugCommand, Debugger, ExecMode, Interp, Value};
//!
//! let module = pylite::parse_module("x = 1\ny = x + 1\nz = y * 2\n").unwrap();
//! let code = compile_module(&module);
//! // The line table advertises which lines can take a breakpoint.
//! assert_eq!(code.statement_lines(), vec![1, 2, 3]);
//!
//! let dbg = Debugger::scripted(vec![DebugCommand::Continue]);
//! dbg.borrow_mut().add_breakpoint(2);
//! let mut interp = Interp::new();
//! interp.set_exec_mode(ExecMode::Bytecode);
//! interp.set_hook(dbg.clone());
//! interp.run_code(&code).unwrap();
//!
//! // Paused once, on line 2, before `y` was bound; then ran to the end.
//! assert_eq!(dbg.borrow().pauses().len(), 1);
//! assert_eq!(dbg.borrow().pauses()[0].line, 2);
//! assert!(!dbg.borrow().pauses()[0].locals.iter().any(|(n, _)| n == "y"));
//! assert_eq!(interp.get_global("z"), Some(Value::Int(4)));
//! ```

use std::cmp::Ordering;
use std::collections::HashMap;
use std::rc::Rc;

use crate::ast::{BinOp, CmpOp};
use crate::compile::{CodeObject, Instr, PendingKind};
use crate::error::{ErrorKind, PyError};
use crate::interp::{Flow, Interp};
use crate::value::{Dict, Value};

/// Control transfer produced by one instruction.
enum Ctl {
    Next,
    Jump(u32),
    /// Leave the frame with walker-compatible flow (`Return`, or
    /// `Break` for stray `break`/`continue` escaping the frame).
    Leave(Flow),
}

enum Iter {
    /// Lazy `range` iteration, walker parity for `for i in range(...)`.
    Range {
        i: i64,
        stop: i64,
        step: i64,
    },
    Seq {
        items: Vec<Value>,
        idx: usize,
    },
}

enum Pending {
    Normal,
    Return(Value),
    Break,
    Continue,
    Err(PyError),
}

struct TryEntry {
    handler: u32,
    vstack: usize,
    iters: usize,
    pendings: usize,
    errs: usize,
}

#[derive(Clone, Copy, PartialEq)]
enum SlotState {
    Stale,
    Clean,
    Dirty,
}

pub(crate) struct Slots {
    vals: Vec<Value>,
    state: Vec<SlotState>,
}

impl Slots {
    fn new(n: usize) -> Self {
        Slots {
            vals: vec![Value::None; n],
            state: vec![SlotState::Stale; n],
        }
    }

    /// Make slot `i` non-stale (resolving through the walker's name
    /// lookup on a miss) without cloning the value out.
    #[inline(always)]
    pub(crate) fn fill(
        &mut self,
        interp: &mut Interp,
        code: &CodeObject,
        i: u16,
        line: u32,
    ) -> Result<(), PyError> {
        let i = i as usize;
        if self.state[i] == SlotState::Stale {
            self.vals[i] = interp.lookup_name(&code.names[i], line)?;
            self.state[i] = SlotState::Clean;
        }
        Ok(())
    }

    /// Borrow a slot value previously made non-stale by [`Self::fill`].
    /// Fused instructions read operands through this to avoid a
    /// clone/drop pair per operand.
    #[inline(always)]
    pub(crate) fn get(&self, i: u16) -> &Value {
        &self.vals[i as usize]
    }

    #[inline(always)]
    fn load(
        &mut self,
        interp: &mut Interp,
        code: &CodeObject,
        i: u16,
        line: u32,
    ) -> Result<Value, PyError> {
        self.fill(interp, code, i, line)?;
        Ok(self.vals[i as usize].clone())
    }

    #[inline(always)]
    pub(crate) fn store(&mut self, i: u16, v: Value) {
        let i = i as usize;
        self.vals[i] = v;
        self.state[i] = SlotState::Dirty;
    }

    /// Write dirty slots back to the real scopes.
    fn flush(&mut self, interp: &mut Interp, code: &CodeObject) -> Result<(), PyError> {
        for i in 0..self.state.len() {
            if self.state[i] == SlotState::Dirty {
                interp.bind_name(&code.names[i], self.vals[i].clone())?;
                self.state[i] = SlotState::Clean;
            }
        }
        Ok(())
    }

    /// Foreign code may have rebound anything: forget all cached values.
    fn invalidate(&mut self) {
        for s in &mut self.state {
            *s = SlotState::Stale;
        }
    }

    fn barrier(&mut self, interp: &mut Interp, code: &CodeObject) -> Result<(), PyError> {
        self.flush(interp, code)?;
        self.invalidate();
        Ok(())
    }
}

/// `true` when passing `v` to a builtin cannot reach interpreter scopes
/// (builtins only touch names by *calling* function-valued arguments).
fn inert(v: &Value) -> bool {
    !matches!(v, Value::Function(_) | Value::Native(_) | Value::Module(_))
}

struct State {
    stack: Vec<Value>,
    iters: Vec<Iter>,
    trys: Vec<TryEntry>,
    pendings: Vec<Pending>,
    errs: Vec<PyError>,
    slots: Slots,
}

impl State {
    fn pop(&mut self) -> Value {
        self.stack.pop().expect("vm: value stack underflow")
    }

    fn popn(&mut self, n: usize) -> Vec<Value> {
        self.stack.split_off(self.stack.len() - n)
    }
}

/// Execute `code` in the interpreter's current frame, returning the
/// same [`Flow`] the walker's `exec_block` would produce.
pub(crate) fn run(interp: &mut Interp, code: &CodeObject) -> Result<Flow, PyError> {
    let mut st = State {
        stack: Vec::with_capacity(16),
        iters: Vec::new(),
        trys: Vec::new(),
        pendings: Vec::new(),
        errs: Vec::new(),
        slots: Slots::new(code.names.len()),
    };
    let mut pc = 0usize;
    loop {
        match exec(interp, code, &mut st, pc) {
            Ok(Ctl::Next) => pc += 1,
            Ok(Ctl::Jump(t)) => pc = t as usize,
            Ok(Ctl::Leave(flow)) => {
                st.slots.flush(interp, code)?;
                return Ok(flow);
            }
            Err(e) => match st.trys.pop() {
                Some(t) => {
                    st.stack.truncate(t.vstack);
                    st.iters.truncate(t.iters);
                    st.pendings.truncate(t.pendings);
                    st.errs.truncate(t.errs);
                    st.errs.push(e);
                    pc = t.handler as usize;
                }
                None => {
                    // Bindings made before the error stay visible,
                    // exactly as the walker's eager binds would.
                    st.slots.flush(interp, code).ok();
                    return Err(e);
                }
            },
        }
    }
}

#[inline(always)]
fn exec(interp: &mut Interp, code: &CodeObject, st: &mut State, pc: usize) -> Result<Ctl, PyError> {
    let line = code.lines[pc];
    match &code.instrs[pc] {
        Instr::Trace => {
            if interp.statement_gate(line)? {
                // The debugger reads the real scopes. The conditions and
                // watches it evaluates may rebind names through the
                // functions they call: drop the cache if a name was bound
                // or deleted, also when the stop ends in an error (a Quit)
                // that a `try` may catch.
                st.slots.flush(interp, code)?;
                let binds = interp.binds;
                let stop = interp.debug_statement(line);
                if interp.binds != binds {
                    st.slots.invalidate();
                }
                stop?;
            }
        }
        Instr::LoadConst(i) => st.stack.push(code.consts[*i as usize].clone()),
        Instr::Load(i) => {
            let v = st.slots.load(interp, code, *i, line)?;
            st.stack.push(v);
        }
        Instr::Store(i) => {
            let v = st.pop();
            st.slots.store(*i, v);
        }
        Instr::Delete(i) => {
            // `del` must see a pending store before removing it.
            let idx = *i as usize;
            if st.slots.state[idx] == SlotState::Dirty {
                interp.bind_name(&code.names[idx], st.slots.vals[idx].clone())?;
            }
            st.slots.state[idx] = SlotState::Stale;
            interp.delete_name(&code.names[idx], line)?;
        }
        Instr::Pop => {
            st.pop();
        }
        Instr::Dup => {
            let v = st.stack.last().expect("vm: dup on empty stack").clone();
            st.stack.push(v);
        }
        Instr::BuildTuple(n) => {
            let vs = st.popn(*n as usize);
            st.stack.push(Value::tuple(vs));
        }
        Instr::BuildList(n) => {
            let vs = st.popn(*n as usize);
            st.stack.push(Value::list(vs));
        }
        Instr::BuildDict(n) => {
            let kvs = st.popn(*n as usize * 2);
            let mut d = Dict::new();
            let mut it = kvs.into_iter();
            while let (Some(k), Some(v)) = (it.next(), it.next()) {
                d.insert(k, v)?;
            }
            st.stack.push(Value::dict(d));
        }
        Instr::BinOp(op) => {
            let r = st.pop();
            let l = st.pop();
            let v = match binop_fast(*op, &l, &r) {
                Some(v) => v,
                None => interp.binop(*op, &l, &r, line)?,
            };
            st.stack.push(v);
        }
        Instr::BinOpName { op, rhs } => {
            st.slots.fill(interp, code, *rhs, line)?;
            let l = st.pop();
            let v = match binop_fast(*op, &l, st.slots.get(*rhs)) {
                Some(v) => v,
                None => {
                    let r = st.slots.get(*rhs).clone();
                    interp.binop(*op, &l, &r, line)?
                }
            };
            st.stack.push(v);
        }
        Instr::IndexBinOpName { obj, idx, op, rhs } => {
            st.slots.fill(interp, code, *obj, line)?;
            st.slots.fill(interp, code, *idx, line)?;
            let item = match get_item_fast(st.slots.get(*obj), st.slots.get(*idx)) {
                Some(v) => v,
                None => get_item_cold(interp, code, st, *obj, *idx, line)?,
            };
            // Walker order: the right name resolves after the read.
            st.slots.fill(interp, code, *rhs, line)?;
            let v = match binop_fast(*op, &item, st.slots.get(*rhs)) {
                Some(v) => v,
                None => {
                    let r = st.slots.get(*rhs).clone();
                    interp.binop(*op, &item, &r, line)?
                }
            };
            st.stack.push(v);
        }
        Instr::BinOpStore { op, slot } => {
            let r = st.pop();
            let l = st.pop();
            let v = match binop_fast(*op, &l, &r) {
                Some(v) => v,
                None => interp.binop(*op, &l, &r, line)?,
            };
            st.slots.store(*slot, v);
        }
        Instr::AugIndex {
            target,
            op,
            obj,
            idx,
        } => {
            // Walker order: read target, index, combine, rebind.
            st.slots.fill(interp, code, *target, line)?;
            st.slots.fill(interp, code, *obj, line)?;
            st.slots.fill(interp, code, *idx, line)?;
            let item = match get_item_fast(st.slots.get(*obj), st.slots.get(*idx)) {
                Some(v) => v,
                None => get_item_cold(interp, code, st, *obj, *idx, line)?,
            };
            let v = match binop_fast(*op, st.slots.get(*target), &item) {
                Some(v) => v,
                None => {
                    let cur = st.slots.get(*target).clone();
                    interp.binop(*op, &cur, &item, line)?
                }
            };
            st.slots.store(*target, v);
        }
        Instr::UnaryOp(op) => {
            let v = st.pop();
            let v = interp.unaryop(*op, &v, line)?;
            st.stack.push(v);
        }
        Instr::Compare(op) => {
            let r = st.pop();
            let l = st.pop();
            let v = if let Some(b) = cmp_fast(*op, &l, &r) {
                Value::Bool(b)
            } else if matches!(l, Value::Array(_)) || matches!(r, Value::Array(_)) {
                interp.array_compare(*op, &l, &r, line)?
            } else {
                Value::Bool(interp.compare_once(*op, &l, &r, line)?)
            };
            st.stack.push(v);
        }
        Instr::CmpChain(op, target) => {
            let r = st.pop();
            let l = st.pop();
            if interp.compare_once(*op, &l, &r, line)? {
                st.stack.push(r);
            } else {
                st.stack.push(Value::Bool(false));
                return Ok(Ctl::Jump(*target));
            }
        }
        Instr::CmpLast(op) => {
            let r = st.pop();
            let l = st.pop();
            let b = interp.compare_once(*op, &l, &r, line)?;
            st.stack.push(Value::Bool(b));
        }
        Instr::Jump(t) => return Ok(Ctl::Jump(*t)),
        Instr::PopJumpIfFalse(t) => {
            if !st.pop().truthy() {
                return Ok(Ctl::Jump(*t));
            }
        }
        Instr::PopJumpIfTrue(t) => {
            if st.pop().truthy() {
                return Ok(Ctl::Jump(*t));
            }
        }
        Instr::JumpIfFalseKeep(t) => {
            if !st.stack.last().expect("vm: empty stack").truthy() {
                return Ok(Ctl::Jump(*t));
            }
        }
        Instr::JumpIfTrueKeep(t) => {
            if st.stack.last().expect("vm: empty stack").truthy() {
                return Ok(Ctl::Jump(*t));
            }
        }
        Instr::GetItem => {
            let idx = st.pop();
            let obj = st.pop();
            let v = match get_item_fast(&obj, &idx) {
                Some(v) => v,
                None => {
                    if matches!(obj, Value::Native(_)) {
                        // `__getitem__` on a native object runs arbitrary code.
                        st.slots.barrier(interp, code)?;
                    }
                    interp.get_item(&obj, &idx, line)?
                }
            };
            st.stack.push(v);
        }
        Instr::LoadIndex(o, i) => {
            st.slots.fill(interp, code, *o, line)?;
            st.slots.fill(interp, code, *i, line)?;
            let v = match get_item_fast(st.slots.get(*o), st.slots.get(*i)) {
                Some(v) => v,
                None => get_item_cold(interp, code, st, *o, *i, line)?,
            };
            st.stack.push(v);
        }
        Instr::SetItem => {
            let idx = st.pop();
            let obj = st.pop();
            let value = st.pop();
            interp.set_item(&obj, &idx, value, line)?;
        }
        Instr::DelItem => {
            let idx = st.pop();
            let obj = st.pop();
            interp.del_item(&obj, &idx, line)?;
        }
        Instr::SliceLen => {
            let len = {
                let obj = st.stack.last().expect("vm: empty stack");
                interp.value_len(obj, line)?
            };
            st.stack.push(Value::Int(len as i64));
        }
        Instr::SliceGet {
            has_step,
            has_lo,
            has_hi,
        } => {
            let hi = has_hi.then(|| st.pop());
            let lo = has_lo.then(|| st.pop());
            let step_v = has_step.then(|| st.pop());
            let len = match st.pop() {
                Value::Int(n) => n as usize,
                _ => unreachable!("vm: SliceLen pushes Int"),
            };
            let obj = st.pop();
            // Walker conversion order: step, then lower, then upper.
            let step = match step_v {
                Some(Value::Int(0)) => {
                    return Err(interp.err_at(ErrorKind::Value, "slice step cannot be zero", line))
                }
                Some(Value::Int(i)) => i,
                Some(other) => {
                    return Err(interp.err_at(
                        ErrorKind::Type,
                        format!("slice step must be int, not {}", other.type_name()),
                        line,
                    ))
                }
                None => 1,
            };
            let lo = slice_bound_value(interp, lo, line)?;
            let hi = slice_bound_value(interp, hi, line)?;
            let v = interp.slice_select(&obj, lo, hi, step, len, line)?;
            st.stack.push(v);
        }
        Instr::LoadAttr(i) => {
            let obj = st.pop();
            let v = interp.get_attribute(&obj, &code.names[*i as usize], line)?;
            st.stack.push(v);
        }
        Instr::SetAttr(i) => {
            let obj = st.pop();
            let value = st.pop();
            match obj {
                Value::Module(m) => {
                    m.attrs
                        .borrow_mut()
                        .insert(code.names[*i as usize].clone(), value);
                }
                other => {
                    return Err(interp.err_at(
                        ErrorKind::Attribute,
                        format!(
                            "cannot set attribute '{}' on '{}'",
                            code.names[*i as usize],
                            other.type_name()
                        ),
                        line,
                    ))
                }
            }
        }
        Instr::Call { argc, kwlist } => {
            let callee = st.pop();
            // Small keyword-less calls keep their arguments in a stack
            // buffer — the hot `abs`/`len`/`int` shape never heap-allocates.
            let v = if *kwlist == 0 && *argc <= 4 {
                let n = *argc as usize;
                let mut buf = [Value::None, Value::None, Value::None, Value::None];
                for a in buf[..n].iter_mut().rev() {
                    *a = st.pop();
                }
                call_small(interp, code, st, &callee, &buf[..n], line)?
            } else {
                let kwargs = pop_kwargs(st, code, *kwlist);
                let args = st.popn(*argc as usize);
                let pure = matches!(callee, Value::Builtin(_))
                    && args.iter().all(inert)
                    && kwargs.iter().all(|(_, v)| inert(v));
                if !pure {
                    st.slots.barrier(interp, code)?;
                }
                call_wrapped(interp, &callee, &args, &kwargs, line)?
            };
            st.stack.push(v);
        }
        Instr::CallName { func, argc } => {
            let n = *argc as usize;
            let mut buf = [Value::None, Value::None, Value::None, Value::None];
            for a in buf[..n].iter_mut().rev() {
                *a = st.pop();
            }
            st.slots.fill(interp, code, *func, line)?;
            let args = &buf[..n];
            // Borrowing the callee out of the slot is sound: `st` and
            // `interp` are disjoint, and builtins never touch slots.
            let v = match st.slots.get(*func) {
                Value::Builtin(b) if args.iter().all(inert) => match builtin_fast(b.name, args) {
                    Some(v) => v,
                    None => interp.call_builtin(b, args, &[], line)?,
                },
                callee => {
                    let callee = callee.clone();
                    st.slots.barrier(interp, code)?;
                    call_wrapped(interp, &callee, args, &[], line)?
                }
            };
            st.stack.push(v);
        }
        Instr::CallMethod { name, argc, kwlist } => {
            let obj = st.pop();
            let kwargs = pop_kwargs(st, code, *kwlist);
            let args = st.popn(*argc as usize);
            let pure =
                inert(&obj) && args.iter().all(inert) && kwargs.iter().all(|(_, v)| inert(v));
            if !pure {
                st.slots.barrier(interp, code)?;
            }
            let v = interp
                .call_method(&obj, &code.names[*name as usize], &args, &kwargs, line)
                .map_err(|mut e| {
                    if e.traceback.is_empty() {
                        e.push_frame(interp.current_function_name(), line);
                    }
                    e
                })?;
            st.stack.push(v);
        }
        Instr::MakeFunction(i) => {
            // The closure captures the live scope maps: make pending
            // stores visible before they are snapshotted into reads.
            st.slots.flush(interp, code)?;
            let def = code.funcs[*i as usize].clone();
            let closure = interp.current_closure();
            st.stack
                .push(Value::Function(Rc::new(crate::value::PyFunction {
                    def,
                    closure,
                })));
        }
        Instr::GetIter => {
            let v = st.pop();
            match v {
                Value::Range { start, stop, step } => {
                    if step == 0 {
                        return Err(interp.err_at(
                            ErrorKind::Value,
                            "range() step must not be zero",
                            line,
                        ));
                    }
                    st.iters.push(Iter::Range {
                        i: start,
                        stop,
                        step,
                    });
                }
                other => {
                    let items = interp.iter_values(&other, line)?;
                    st.iters.push(Iter::Seq { items, idx: 0 });
                }
            }
        }
        Instr::ForIter(t) => match iter_next(&mut st.iters) {
            Some(v) => st.stack.push(v),
            None => {
                st.iters.pop();
                return Ok(Ctl::Jump(*t));
            }
        },
        Instr::ForIterStore { slot, exit } => match iter_next(&mut st.iters) {
            Some(v) => st.slots.store(*slot, v),
            None => {
                st.iters.pop();
                return Ok(Ctl::Jump(*exit));
            }
        },
        Instr::PopIter => {
            st.iters.pop();
        }
        Instr::Kernel { id, exit } => {
            let iterable = st.stack.last().expect("vm: kernel without iterable");
            let kernel = &code.kernels[*id as usize];
            if crate::kernel::enter(interp, code, kernel, &mut st.slots, iterable) {
                st.pop();
                return Ok(Ctl::Jump(*exit));
            }
        }
        Instr::UnpackSeq(n) => {
            let v = st.pop();
            let values = interp.iter_values(&v, line)?;
            if values.len() != *n as usize {
                return Err(interp.err_at(
                    ErrorKind::Value,
                    format!("cannot unpack {} values into {} targets", values.len(), n),
                    line,
                ));
            }
            for v in values.into_iter().rev() {
                st.stack.push(v);
            }
        }
        Instr::ListAppend => {
            let item = st.pop();
            match st.stack.last().expect("vm: ListAppend without list") {
                Value::List(l) => l.borrow_mut().push(item),
                _ => unreachable!("vm: ListAppend on non-list"),
            }
        }
        Instr::LoadModule(i) => {
            st.slots.barrier(interp, code)?;
            let v = interp.load_module(&code.names[*i as usize], line)?;
            st.stack.push(v);
        }
        Instr::FromAttr { module, name } => {
            let mname = &code.names[*module as usize];
            let attr_name = &code.names[*name as usize];
            let Some(Value::Module(m)) = st.stack.last() else {
                return Err(interp.err_at(
                    ErrorKind::Import,
                    format!("'{mname}' is not a module"),
                    line,
                ));
            };
            let attr = m.attrs.borrow().get(attr_name).cloned().ok_or_else(|| {
                interp.err_at(
                    ErrorKind::Import,
                    format!("cannot import name '{attr_name}' from '{mname}'"),
                    line,
                )
            })?;
            st.stack.push(attr);
        }
        Instr::SetupTry(handler) => st.trys.push(TryEntry {
            handler: *handler,
            vstack: st.stack.len(),
            iters: st.iters.len(),
            pendings: st.pendings.len(),
            errs: st.errs.len(),
        }),
        Instr::PopTry => {
            st.trys.pop();
        }
        Instr::ErrMatch(class) => {
            let err = st.errs.last().expect("vm: ErrMatch without error");
            let matched = match class {
                None => true,
                Some(i) => {
                    let c = &code.names[*i as usize];
                    c == err.class_name() || c == "Exception"
                }
            };
            st.stack.push(Value::Bool(matched));
        }
        Instr::PushErrMsg => {
            let err = st.errs.last().expect("vm: PushErrMsg without error");
            st.stack.push(Value::str(err.message.clone()));
        }
        Instr::PopErr => {
            st.errs.pop();
        }
        Instr::Reraise => {
            let e = st.errs.pop().expect("vm: Reraise without error");
            return Err(e);
        }
        Instr::PushPending(kind) => {
            let p = match kind {
                PendingKind::Normal => Pending::Normal,
                PendingKind::Return => Pending::Return(st.pop()),
                PendingKind::Break => Pending::Break,
                PendingKind::Continue => Pending::Continue,
                PendingKind::Err => Pending::Err(st.errs.pop().expect("vm: pending without error")),
            };
            st.pendings.push(p);
        }
        Instr::PopPending => {
            st.pendings.pop();
        }
        Instr::PendingJump {
            on_return,
            on_break,
            on_continue,
        } => match st.pendings.pop().expect("vm: PendingJump without pending") {
            Pending::Normal => {}
            Pending::Return(v) => {
                st.stack.push(v);
                return Ok(Ctl::Jump(*on_return));
            }
            Pending::Break => return Ok(Ctl::Jump(*on_break)),
            Pending::Continue => return Ok(Ctl::Jump(*on_continue)),
            // The suspended error resumes propagation (an enclosing
            // `try` in this frame may still catch it).
            Pending::Err(e) => return Err(e),
        },
        Instr::Return => {
            let v = st.pop();
            return Ok(Ctl::Leave(Flow::Return(v)));
        }
        Instr::FlowBreak => return Ok(Ctl::Leave(Flow::Break)),
        Instr::RaiseClass { class, has_msg } => {
            let msg = if *has_msg {
                st.pop().py_str()
            } else {
                String::new()
            };
            let mut err = PyError::user(code.names[*class as usize].clone(), msg);
            err.push_frame(interp.current_function_name(), line);
            return Err(err);
        }
        Instr::RaiseValue => {
            let v = st.pop();
            return Err(PyError::user("Exception", v.py_str()));
        }
        Instr::RaiseBare => {
            return Err(PyError::user(
                "RuntimeError",
                "re-raise outside except is not supported",
            ));
        }
        Instr::AssertFail { has_msg } => {
            let msg = if *has_msg {
                st.pop().py_str()
            } else {
                "assertion failed".to_string()
            };
            return Err(interp.err_at(ErrorKind::Assertion, msg, line));
        }
        Instr::StaticErr { kind, msg } => {
            let msg = match &code.consts[*msg as usize] {
                Value::Str(s) => s.to_string(),
                _ => unreachable!("vm: StaticErr message is a string const"),
            };
            return Err(interp.err_at(*kind, msg, line));
        }
    }
    Ok(Ctl::Next)
}

/// Keyword-less small-call path shared by `Call` and `CallName`:
/// inert-argument builtin calls go straight to the builtin (no
/// barrier, no heap args); everything else synchronizes the slot
/// cache and takes the generic call path.
#[inline(always)]
fn call_small(
    interp: &mut Interp,
    code: &CodeObject,
    st: &mut State,
    callee: &Value,
    args: &[Value],
    line: u32,
) -> Result<Value, PyError> {
    if let Value::Builtin(b) = callee {
        if args.iter().all(inert) {
            if let Some(v) = builtin_fast(b.name, args) {
                return Ok(v);
            }
            return interp.call_builtin(b, args, &[], line);
        }
    }
    st.slots.barrier(interp, code)?;
    call_wrapped(interp, callee, args, &[], line)
}

/// Intrinsic tier for the hottest builtin shape: `abs` on a scalar
/// number, mirroring `builtins.rs` exactly (`i64::abs`, `f64::abs`).
/// `None` routes through the boxed builtin — the single source of
/// truth for every other argument shape and for all error text.
#[inline(always)]
fn builtin_fast(name: &str, args: &[Value]) -> Option<Value> {
    if name != "abs" || args.len() != 1 {
        return None;
    }
    match &args[0] {
        // checked_abs: i64::MIN overflows; route it through the boxed
        // builtin so the overflow error text has one home.
        Value::Int(i) => i.checked_abs().map(Value::Int),
        Value::Float(f) => Some(Value::Float(f.abs())),
        _ => None,
    }
}

/// `call_function` plus the walker-compatible traceback frame.
fn call_wrapped(
    interp: &mut Interp,
    callee: &Value,
    args: &[Value],
    kwargs: &[(String, Value)],
    line: u32,
) -> Result<Value, PyError> {
    interp
        .call_function(callee, args, kwargs, line)
        .map_err(|mut e| {
            if e.innermost_line().is_none() {
                e.push_frame(interp.current_function_name(), line);
            }
            e
        })
}

/// Advance the innermost loop iterator; `None` means exhausted.
#[inline(always)]
fn iter_next(iters: &mut [Iter]) -> Option<Value> {
    match iters.last_mut().expect("vm: ForIter without iterator") {
        Iter::Range { i, stop, step } => {
            if (*step > 0 && *i < *stop) || (*step < 0 && *i > *stop) {
                let v = *i;
                // A step past the i64 range ends the range.
                *i = i.checked_add(*step).unwrap_or(*stop);
                Some(Value::Int(v))
            } else {
                None
            }
        }
        Iter::Seq { items, idx } => {
            if *idx < items.len() {
                let v = items[*idx].clone();
                *idx += 1;
                Some(v)
            } else {
                None
            }
        }
    }
}

/// Inline scalar arithmetic exactly mirroring the walker's
/// `numeric_binop` Int/Float rows; `None` falls back to
/// [`Interp::binop`] so every error and edge case (overflow, zero
/// division, `str`/`list` operands, arrays, `%`-formatting, `bool`
/// coercion, integer `**`) keeps the reference semantics.
#[inline(always)]
fn binop_fast(op: BinOp, l: &Value, r: &Value) -> Option<Value> {
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => {
            let (a, b) = (*a, *b);
            match op {
                BinOp::Add => a.checked_add(b).map(Value::Int),
                BinOp::Sub => a.checked_sub(b).map(Value::Int),
                BinOp::Mul => a.checked_mul(b).map(Value::Int),
                BinOp::Div if b != 0 => Some(Value::Float(a as f64 / b as f64)),
                // checked_*: i64::MIN // -1 overflows; None defers to the
                // walker, which raises the overflow error.
                BinOp::FloorDiv if b != 0 => a.checked_div_euclid(b).map(Value::Int),
                BinOp::Mod if b != 0 => a.checked_rem_euclid(b).map(Value::Int),
                _ => None,
            }
        }
        (Value::Float(a), Value::Float(b)) => float_binop_fast(op, *a, *b),
        (Value::Int(a), Value::Float(b)) => float_binop_fast(op, *a as f64, *b),
        (Value::Float(a), Value::Int(b)) => float_binop_fast(op, *a, *b as f64),
        _ => None,
    }
}

#[inline(always)]
fn float_binop_fast(op: BinOp, a: f64, b: f64) -> Option<Value> {
    match op {
        BinOp::Add => Some(Value::Float(a + b)),
        BinOp::Sub => Some(Value::Float(a - b)),
        BinOp::Mul => Some(Value::Float(a * b)),
        BinOp::Div if b != 0.0 => Some(Value::Float(a / b)),
        BinOp::FloorDiv if b != 0.0 => Some(Value::Float((a / b).floor())),
        BinOp::Mod if b != 0.0 => Some(Value::Float(a - b * (a / b).floor())),
        BinOp::Pow => Some(Value::Float(a.powf(b))),
        _ => None,
    }
}

/// Inline numeric ordering mirroring the walker's `order_values`: two
/// ints compare exactly, as Python does, and every other int/float pair
/// through `f64`, where incomparable NaN resolves `Equal`; `None` falls
/// back to `compare_once` for equality, identity, membership, sequences,
/// `bool` operands and every error case.
#[inline(always)]
fn cmp_fast(op: CmpOp, l: &Value, r: &Value) -> Option<bool> {
    let float = |v: &Value| match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    };
    let ord = match (l, r) {
        (Value::Int(a), Value::Int(b)) => a.cmp(b),
        _ => float(l)?.partial_cmp(&float(r)?).unwrap_or(Ordering::Equal),
    };
    Some(match op {
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
        _ => return None,
    })
}

/// Inline in-range element reads mirroring the walker's `get_item`
/// `Array`/`List` rows for non-negative `Int` indices; `None` falls
/// back to [`Interp::get_item`] for negative indices, out-of-range
/// errors, masks, dicts, strings and native `__getitem__`.
#[inline(always)]
fn get_item_fast(obj: &Value, idx: &Value) -> Option<Value> {
    let Value::Int(i) = idx else { return None };
    if *i < 0 {
        return None;
    }
    let i = *i as usize;
    match obj {
        Value::Array(a) if i < a.len() => Some(a.get(i)),
        Value::List(l) => {
            let l = l.borrow();
            if i < l.len() {
                Some(l[i].clone())
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Slow tail of the fused slot-index reads (`LoadIndex`, `AugIndex`):
/// clones the operands out of their slots and routes through the
/// walker's `get_item`, with a slot barrier around native receivers.
#[cold]
fn get_item_cold(
    interp: &mut Interp,
    code: &CodeObject,
    st: &mut State,
    o: u16,
    i: u16,
    line: u32,
) -> Result<Value, PyError> {
    let obj = st.slots.get(o).clone();
    let idx = st.slots.get(i).clone();
    if matches!(obj, Value::Native(_)) {
        // `__getitem__` on a native object runs arbitrary code.
        st.slots.barrier(interp, code)?;
    }
    interp.get_item(&obj, &idx, line)
}

fn pop_kwargs(st: &mut State, code: &CodeObject, kwlist: u16) -> Vec<(String, Value)> {
    let names = &code.kwlists[kwlist as usize];
    if names.is_empty() {
        return Vec::new();
    }
    let values = st.popn(names.len());
    names
        .iter()
        .zip(values)
        .map(|(i, v)| (code.names[*i as usize].clone(), v))
        .collect()
}

fn slice_bound_value(interp: &Interp, v: Option<Value>, line: u32) -> Result<Option<i64>, PyError> {
    match v {
        None => Ok(None),
        Some(Value::Int(i)) => Ok(Some(i)),
        Some(other) => Err(interp.err_at(
            ErrorKind::Type,
            format!("slice index must be int, not {}", other.type_name()),
            line,
        )),
    }
}

/// Function code cache: compiled bodies keyed by definition identity.
///
/// Keys are the `Rc<FunctionDef>` allocation address; the paired `Weak`
/// keeps the allocation alive (so the address cannot be reused by a
/// different definition) and detects a dropped definition on lookup.
#[derive(Default)]
pub(crate) struct CodeCache {
    map: HashMap<usize, (std::rc::Weak<crate::ast::FunctionDef>, Rc<CodeObject>)>,
}

impl CodeCache {
    pub(crate) fn get_or_compile(&mut self, def: &Rc<crate::ast::FunctionDef>) -> Rc<CodeObject> {
        let key = Rc::as_ptr(def) as usize;
        if let Some((weak, code)) = self.map.get(&key) {
            if let Some(live) = weak.upgrade() {
                if Rc::ptr_eq(&live, def) {
                    return code.clone();
                }
            }
        }
        let code = crate::compile::compile_function(def);
        self.map.insert(key, (Rc::downgrade(def), code.clone()));
        code
    }
}
