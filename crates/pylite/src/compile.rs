//! AST → bytecode lowering (the compile half of the bytecode VM).
//!
//! The tree-walking interpreter in [`crate::interp`] is the *reference
//! semantics* for pylite; this module lowers the same AST into a flat
//! instruction stream that [`crate::vm`] executes several times faster.
//! The two engines are selected by [`crate::ExecMode`] and are kept
//! observably identical — values, errors, tracebacks, captured stdout,
//! statement counts and debugger pauses — which is what lets the AST
//! walker serve as a differential-testing oracle (see DESIGN.md §13).
//!
//! A [`CodeObject`] carries:
//!
//! * `instrs` — the flat [`Instr`] stream with absolute jump targets,
//!   patched in a single pass as control flow is lowered;
//! * `consts` — the constant pool (deduplicated literals);
//! * `names` — the interned name table; [`Instr::Load`]/[`Instr::Store`]
//!   index it, and the VM keeps a per-frame slot cache parallel to it so
//!   hot loops avoid repeated hash-map lookups;
//! * `funcs` — nested [`FunctionDef`]s referenced by
//!   [`Instr::MakeFunction`] (function bodies compile lazily, on first
//!   call, and are cached per definition);
//! * `kernels` — the typed loop kernels of [`Instr::Kernel`] (see
//!   [`crate::kernel`]);
//! * `lines` — the line-number table, one source line per instruction.
//!   [`Instr::Trace`] marks statement boundaries: the VM runs the
//!   walker's statement gate there, which is how breakpoints and
//!   stepping keep working identically in both execution modes
//!   ([`CodeObject::statement_lines`] exposes the breakpoint-able set).
//!
//! Statement-level control flow (`if`/`while`/`for`/`break`/`continue`)
//! lowers to conditional jumps; `try`/`except`/`finally` lowers to a
//! runtime handler stack ([`Instr::SetupTry`]) plus a *pending-action*
//! stack that routes `return`/`break`/`continue` through `finally`
//! blocks the same way the walker's `Flow` enum does.
//!
//! # Example: compile and run a snippet
//!
//! ```
//! use pylite::{compile, Interp, Value};
//!
//! let module = pylite::parse_module("total = 0\nfor i in range(5):\n    total += i\n").unwrap();
//! let code = compile::compile_module(&module);
//! let mut interp = Interp::new();
//! interp.run_code(&code).unwrap();
//! assert_eq!(interp.get_global("total"), Some(Value::Int(10)));
//! ```

use std::rc::Rc;
use std::time::Instant;

use crate::ast::*;
use crate::error::ErrorKind;
use crate::kernel::{self, Kernel};
use crate::value::Value;

/// A compiled block of statements: flat instructions plus the constant
/// pool, name table and line-number table they index.
pub struct CodeObject {
    /// `<module>` for module bodies, the function name otherwise.
    pub name: String,
    /// Module bodies allow top-level `return` and treat stray
    /// `break`/`continue` as an early exit (walker parity).
    pub is_module: bool,
    pub instrs: Vec<Instr>,
    /// Source line per instruction, parallel to `instrs`.
    pub lines: Vec<u32>,
    pub consts: Vec<Value>,
    /// Interned names: variables, attributes, modules, exception classes.
    pub names: Vec<String>,
    /// Nested function definitions for [`Instr::MakeFunction`].
    pub funcs: Vec<Rc<FunctionDef>>,
    /// Keyword-name lists for calls (indices into `names`); entry 0 is
    /// always the shared empty list.
    pub kwlists: Vec<Vec<u16>>,
    /// Loop kernels for [`Instr::Kernel`].
    pub kernels: Vec<Kernel>,
}

impl CodeObject {
    /// The line-number table as the debugger sees it: source lines that
    /// start a statement, in first-execution order, deduplicated. A
    /// breakpoint on any of these lines will pause the VM.
    pub fn statement_lines(&self) -> Vec<u32> {
        let mut out = Vec::new();
        for (pc, instr) in self.instrs.iter().enumerate() {
            if matches!(instr, Instr::Trace) {
                let line = self.lines[pc];
                if !out.contains(&line) {
                    out.push(line);
                }
            }
        }
        out
    }
}

/// What a pending-action slot records while a `finally` block runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PendingKind {
    /// Normal fall-through into the `finally`.
    Normal,
    /// A `return` is suspended; its value rides the pending stack.
    Return,
    Break,
    Continue,
    /// An exception is suspended and re-raised after the `finally`.
    Err,
}

/// One bytecode instruction. Jump targets are absolute instruction
/// indices, patched during compilation.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Statement boundary: run the statement gate both engines share —
    /// bump the statement counter, update the frame line, charge the
    /// statement budget, feed the line profiler — and, only on a line the
    /// attached debugger can stop at (a breakpoint line while running,
    /// every line while stepping), flush the slot cache and hand the
    /// statement to the debugger, invalidating the cache afterwards if
    /// the debugger's evaluations bound or deleted a name.
    Trace,
    LoadConst(u16),
    /// Read a name through the frame's slot cache (falling back to the
    /// walker's locals → closure → globals → builtins lookup).
    Load(u16),
    /// Bind a name in the frame's slot cache (written back to the real
    /// scope at the next barrier).
    Store(u16),
    /// `del name`.
    Delete(u16),
    Pop,
    Dup,
    BuildTuple(u16),
    BuildList(u16),
    BuildDict(u16),
    BinOp(BinOp),
    /// Fused `Load(rhs); BinOp` for `<expr> op name` shapes — skips a
    /// stack round-trip for the loop-carried operand (`x - mean`).
    BinOpName {
        op: BinOp,
        rhs: u16,
    },
    /// Fused `BinOp; Store(slot)` — the combine-and-rebind tail of an
    /// augmented assignment to a plain name (`total += …`).
    BinOpStore {
        op: BinOp,
        slot: u16,
    },
    /// Fused `LoadIndex(obj, idx); BinOpName` for `name[name] op name`
    /// (`column[i] - mean`): the subscript read and the combine share
    /// one dispatch. `rhs` resolves after the read, like the walker.
    IndexBinOpName {
        obj: u16,
        idx: u16,
        op: BinOp,
        rhs: u16,
    },
    /// The fully fused columnar reduction statement
    /// `name op= name[name]` (`total += column[i]`): one dispatch for
    /// read-target, index, combine, rebind.
    AugIndex {
        target: u16,
        op: BinOp,
        obj: u16,
        idx: u16,
    },
    UnaryOp(UnaryOp),
    /// Single comparison, array-aware (vectorizes like the walker).
    Compare(CmpOp),
    /// Non-final link of a chained comparison: on false, push `False`
    /// and jump; on true, leave the right operand as the next left.
    CmpChain(CmpOp, u32),
    /// Final link of a chained comparison: push the boolean result.
    CmpLast(CmpOp),
    Jump(u32),
    PopJumpIfFalse(u32),
    PopJumpIfTrue(u32),
    /// Short-circuit `and`: jump keeping the value if falsy.
    JumpIfFalseKeep(u32),
    /// Short-circuit `or`: jump keeping the value if truthy.
    JumpIfTrueKeep(u32),
    /// `[obj, idx] → [obj[idx]]`.
    GetItem,
    /// Fused `Load(a); Load(b); GetItem` for `name[name]` subscripts —
    /// the hot shape of columnar UDF loops (`column[i]`). Slot loads
    /// happen in source order so `NameError`s report like the walker.
    LoadIndex(u16, u16),
    /// `[value, obj, idx] → []` (walker evaluation order).
    SetItem,
    /// `[obj, idx] → []`, `del obj[idx]`.
    DelItem,
    /// Peek the sliceable object and push its length (type-checked
    /// before the bound expressions evaluate, like the walker).
    SliceLen,
    /// `[obj, len, step?, lo?, hi?] → [slice]`.
    SliceGet {
        has_step: bool,
        has_lo: bool,
        has_hi: bool,
    },
    LoadAttr(u16),
    /// `[value, obj] → []`, `obj.attr = value`.
    SetAttr(u16),
    /// `[args…, kwvalues…, callee] → [result]`.
    Call {
        argc: u16,
        kwlist: u16,
    },
    /// Fused `Load(func); Call` for keyword-less calls of a plain-name
    /// callee with ≤ 4 arguments (`abs(…)`, `len(…)`, `range(…)`) —
    /// arguments stay in a fixed buffer, never a heap `Vec`.
    CallName {
        func: u16,
        argc: u16,
    },
    /// `[args…, kwvalues…, obj] → [result]`, `obj.name(…)`.
    CallMethod {
        name: u16,
        argc: u16,
        kwlist: u16,
    },
    /// Instantiate `funcs[i]` capturing the current closure scopes.
    MakeFunction(u16),
    /// Pop an iterable and push an iterator (lazy for `range`).
    GetIter,
    /// Advance the top iterator; push the next item, or pop the
    /// iterator and jump when exhausted.
    ForIter(u32),
    /// Fused `ForIter; Store` for `for <name> in …` loops: the next
    /// item goes straight into the slot instead of across the stack.
    ForIterStore {
        slot: u16,
        exit: u32,
    },
    /// Discard the top iterator (`break` out of a `for`).
    PopIter,
    /// Run `kernels[id]` on the iterable on top of the stack, in front of
    /// the loop code that stays its fallback (see [`crate::kernel`]): when
    /// the entry checks pass, pop the iterable, bind the results and jump
    /// to `exit`; otherwise fall through into the loop.
    Kernel {
        id: u16,
        exit: u32,
    },
    /// Pop a sequence, length-check, push its items in reverse.
    UnpackSeq(u16),
    /// `[list, item] → [list]` (list-comprehension accumulator).
    ListAppend,
    /// Import by dotted name and push the module value.
    LoadModule(u16),
    /// Peek a module value and push attribute `name` (from-import).
    FromAttr {
        module: u16,
        name: u16,
    },
    /// Push an exception handler at the given target.
    SetupTry(u32),
    PopTry,
    /// Peek the caught error; push whether the handler class matches
    /// (`None` = bare `except`).
    ErrMatch(Option<u16>),
    /// Peek the caught error; push its message as a string.
    PushErrMsg,
    /// Drop the caught error (a handler matched).
    PopErr,
    /// Re-raise the caught error (no handler matched).
    Reraise,
    /// Push a pending action before entering a `finally` block.
    /// `Return` pops the return value; `Err` pops the caught error.
    PushPending(PendingKind),
    /// Cancel the innermost pending action (the `finally` body replaced
    /// it with its own control flow — walker: "finally wins").
    PopPending,
    /// Dispatch the pending action after a `finally` block.
    PendingJump {
        on_return: u32,
        on_break: u32,
        on_continue: u32,
    },
    /// Pop the return value and leave the frame.
    Return,
    /// `break`/`continue` escaping the frame: leave with the walker's
    /// `Flow::Break` (the caller decides — early exit for a module,
    /// `SyntaxError` for a function, exactly like `exec_block`).
    FlowBreak,
    /// `raise Class(message?)` — message popped when `has_msg`.
    RaiseClass {
        class: u16,
        has_msg: bool,
    },
    /// `raise <expr>` for non-class expressions: pop and stringify.
    RaiseValue,
    /// Bare `raise` outside an except block.
    RaiseBare,
    /// `assert` failed — message popped when `has_msg`.
    AssertFail {
        has_msg: bool,
    },
    /// Raise a statically known error (e.g. unsupported slice delete).
    StaticErr {
        kind: ErrorKind,
        msg: u16,
    },
}

/// Compile a parsed module body. Records `pylite.compile_ns`.
pub fn compile_module(module: &Module) -> Rc<CodeObject> {
    let start = Instant::now();
    let code = Compiler::compile("<module>", true, &module.body);
    obs::histogram!("pylite.compile_ns").record(start.elapsed().as_nanos() as u64);
    Rc::new(code)
}

/// Compile a function body (called lazily on first bytecode-mode call;
/// the result is cached per definition by the interpreter).
pub fn compile_function(def: &FunctionDef) -> Rc<CodeObject> {
    let start = Instant::now();
    let code = Compiler::compile(&def.name, false, &def.body);
    obs::histogram!("pylite.compile_ns").record(start.elapsed().as_nanos() as u64);
    Rc::new(code)
}

/// Lexical context stack entries used to lower `break`/`continue`/
/// `return` across loops and `try` blocks.
enum Ctx {
    Loop {
        /// Jump sites to patch to the loop exit.
        breaks: Vec<usize>,
        /// Absolute target of `continue` (the `ForIter`/test).
        cont: u32,
        /// Whether `break` must pop a runtime iterator.
        has_iter: bool,
    },
    /// An active `SetupTry` for handlers: jumping out pops it.
    Guard,
    /// An active `finally` guard: control flow out of the region is
    /// diverted through the `finally` body via the pending stack.
    Finally { jumps: Vec<usize> },
    /// Currently compiling a `finally` body: flow out cancels pending.
    InFinally,
}

struct Compiler {
    code: CodeObject,
    ctx: Vec<Ctx>,
    cur_line: u32,
}

impl Compiler {
    fn compile(name: &str, is_module: bool, body: &[Stmt]) -> CodeObject {
        let mut c = Compiler {
            code: CodeObject {
                name: name.to_string(),
                is_module,
                instrs: Vec::new(),
                lines: Vec::new(),
                consts: Vec::new(),
                names: Vec::new(),
                funcs: Vec::new(),
                kwlists: vec![Vec::new()],
                kernels: Vec::new(),
            },
            ctx: Vec::new(),
            cur_line: body.first().map(|s| s.line).unwrap_or(0),
        };
        c.block(body);
        // Fall off the end: return None (walker: Flow::Normal).
        let none = c.const_idx(Value::None);
        c.emit(Instr::LoadConst(none));
        c.emit(Instr::Return);
        c.code
    }

    // -- emission helpers ------------------------------------------------

    fn emit(&mut self, instr: Instr) -> usize {
        self.code.instrs.push(instr);
        self.code.lines.push(self.cur_line);
        self.code.instrs.len() - 1
    }

    fn here(&self) -> u32 {
        self.code.instrs.len() as u32
    }

    /// Patch the jump target of the instruction at `at` to `target`.
    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.code.instrs[at] {
            Instr::Jump(t)
            | Instr::PopJumpIfFalse(t)
            | Instr::PopJumpIfTrue(t)
            | Instr::JumpIfFalseKeep(t)
            | Instr::JumpIfTrueKeep(t)
            | Instr::CmpChain(_, t)
            | Instr::ForIter(t)
            | Instr::ForIterStore { exit: t, .. }
            | Instr::Kernel { exit: t, .. }
            | Instr::SetupTry(t) => *t = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    fn patch_here(&mut self, at: usize) {
        let target = self.here();
        self.patch(at, target);
    }

    fn name_idx(&mut self, name: &str) -> u16 {
        if let Some(i) = self.code.names.iter().position(|n| n == name) {
            return i as u16;
        }
        self.code.names.push(name.to_string());
        (self.code.names.len() - 1) as u16
    }

    fn const_idx(&mut self, v: Value) -> u16 {
        let found = self.code.consts.iter().position(|c| match (c, &v) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::None, Value::None) => true,
            _ => false,
        });
        if let Some(i) = found {
            return i as u16;
        }
        self.code.consts.push(v);
        (self.code.consts.len() - 1) as u16
    }

    fn str_const(&mut self, s: &str) -> u16 {
        self.const_idx(Value::str(s))
    }

    // -- statements ------------------------------------------------------

    fn block(&mut self, body: &[Stmt]) {
        for stmt in body {
            self.stmt(stmt);
        }
    }

    fn stmt(&mut self, stmt: &Stmt) {
        self.cur_line = stmt.line;
        self.emit(Instr::Trace);
        match &stmt.kind {
            StmtKind::Expr(e) => {
                self.expr(e);
                self.emit(Instr::Pop);
            }
            StmtKind::Assign { targets, value } => {
                self.expr(value);
                for (i, target) in targets.iter().enumerate() {
                    if i < targets.len() - 1 {
                        self.emit(Instr::Dup);
                    }
                    self.store_target(target);
                }
            }
            StmtKind::AugAssign { target, op, value } => {
                if self.try_fuse_aug_index(stmt.line, target, *op, value) {
                    return;
                }
                // Walker order: read target, eval value, combine at the
                // statement line, then re-evaluate the target for the
                // store (subscript bases/indices evaluate twice).
                self.expr(target);
                self.expr(value);
                self.cur_line = stmt.line;
                if let ExprKind::Name(name) = &target.kind {
                    let slot = self.name_idx(name);
                    self.emit(Instr::BinOpStore { op: *op, slot });
                } else {
                    self.emit(Instr::BinOp(*op));
                    self.store_target(target);
                }
            }
            StmtKind::Return(expr) => {
                match expr {
                    Some(e) => self.expr(e),
                    None => {
                        let none = self.const_idx(Value::None);
                        self.emit(Instr::LoadConst(none));
                    }
                }
                self.cur_line = stmt.line;
                self.emit_return();
            }
            StmtKind::If { branches, orelse } => {
                let mut end_jumps = Vec::new();
                for (test, body) in branches {
                    self.expr(test);
                    let skip = self.emit(Instr::PopJumpIfFalse(0));
                    self.block(body);
                    end_jumps.push(self.emit(Instr::Jump(0)));
                    self.patch_here(skip);
                }
                self.block(orelse);
                for j in end_jumps {
                    self.patch_here(j);
                }
            }
            StmtKind::While { test, body } => {
                let test_at = self.here();
                self.expr(test);
                let exit = self.emit(Instr::PopJumpIfFalse(0));
                self.ctx.push(Ctx::Loop {
                    breaks: Vec::new(),
                    cont: test_at,
                    has_iter: false,
                });
                self.block(body);
                self.cur_line = stmt.line;
                self.emit(Instr::Jump(test_at));
                self.patch_here(exit);
                let Some(Ctx::Loop { breaks, .. }) = self.ctx.pop() else {
                    unreachable!("loop ctx mismatch");
                };
                for b in breaks {
                    self.patch_here(b);
                }
            }
            StmtKind::For { target, iter, body } => {
                self.expr(iter);
                self.cur_line = stmt.line;
                let kernel = kernel::plan(target, body, |name| self.name_idx(name));
                let kernel_at = kernel.ok().map(|k| {
                    self.code.kernels.push(k);
                    let id = (self.code.kernels.len() - 1) as u16;
                    self.emit(Instr::Kernel { id, exit: 0 })
                });
                self.emit(Instr::GetIter);
                let loop_at = self.here();
                let for_at = self.emit_for_head(target);
                self.ctx.push(Ctx::Loop {
                    breaks: Vec::new(),
                    cont: loop_at,
                    has_iter: true,
                });
                self.block(body);
                self.cur_line = stmt.line;
                self.emit(Instr::Jump(loop_at));
                self.patch_here(for_at);
                let Some(Ctx::Loop { breaks, .. }) = self.ctx.pop() else {
                    unreachable!("loop ctx mismatch");
                };
                for b in breaks.into_iter().chain(kernel_at) {
                    self.patch_here(b);
                }
            }
            StmtKind::Break => self.emit_break(),
            StmtKind::Continue => self.emit_continue(),
            StmtKind::Pass | StmtKind::Global(_) => {}
            StmtKind::FunctionDef(def) => {
                self.code.funcs.push(def.clone());
                let idx = (self.code.funcs.len() - 1) as u16;
                self.emit(Instr::MakeFunction(idx));
                let slot = self.name_idx(&def.name);
                self.emit(Instr::Store(slot));
            }
            StmtKind::Import { module, alias } => {
                let full = self.name_idx(module);
                match alias {
                    Some(a) => {
                        self.emit(Instr::LoadModule(full));
                        let slot = self.name_idx(a);
                        self.emit(Instr::Store(slot));
                    }
                    None => {
                        let top = module.split('.').next().unwrap().to_string();
                        if top != *module {
                            // `import a.b` loads both but binds `a`.
                            self.emit(Instr::LoadModule(full));
                            self.emit(Instr::Pop);
                            let top_idx = self.name_idx(&top);
                            self.emit(Instr::LoadModule(top_idx));
                            self.emit(Instr::Store(top_idx));
                        } else {
                            self.emit(Instr::LoadModule(full));
                            self.emit(Instr::Store(full));
                        }
                    }
                }
            }
            StmtKind::FromImport { module, names } => {
                let midx = self.name_idx(module);
                self.emit(Instr::LoadModule(midx));
                for (name, alias) in names {
                    let nidx = self.name_idx(name);
                    self.emit(Instr::FromAttr {
                        module: midx,
                        name: nidx,
                    });
                    let slot = self.name_idx(alias.as_ref().unwrap_or(name));
                    self.emit(Instr::Store(slot));
                }
                self.emit(Instr::Pop);
            }
            StmtKind::Del(targets) => {
                for target in targets {
                    self.cur_line = target.line;
                    match &target.kind {
                        ExprKind::Name(name) => {
                            let slot = self.name_idx(name);
                            self.emit(Instr::Delete(slot));
                        }
                        ExprKind::Subscript { value, index } => match index.as_ref() {
                            Index::Item(idx_expr) => {
                                self.expr(value);
                                self.expr(idx_expr);
                                self.cur_line = target.line;
                                self.emit(Instr::DelItem);
                            }
                            Index::Slice { .. } => {
                                let msg = self.str_const("slice deletion is not supported");
                                self.emit(Instr::StaticErr {
                                    kind: ErrorKind::Type,
                                    msg,
                                });
                            }
                        },
                        _ => {
                            let msg = self.str_const("invalid del target");
                            self.emit(Instr::StaticErr {
                                kind: ErrorKind::Syntax,
                                msg,
                            });
                        }
                    }
                }
            }
            StmtKind::Try {
                body,
                handlers,
                finally,
            } => self.try_stmt(body, handlers, finally, stmt.line),
            StmtKind::Raise(expr) => match expr {
                None => {
                    self.emit(Instr::RaiseBare);
                }
                Some(e) => match &e.kind {
                    ExprKind::Call { func, args, .. } => {
                        if let ExprKind::Name(class) = &func.kind {
                            let has_msg = !args.is_empty();
                            if let Some(first) = args.first() {
                                self.expr(first);
                            }
                            let cidx = self.name_idx(class);
                            self.cur_line = e.line;
                            self.emit(Instr::RaiseClass {
                                class: cidx,
                                has_msg,
                            });
                        } else {
                            self.expr(e);
                            self.emit(Instr::RaiseValue);
                        }
                    }
                    ExprKind::Name(class) => {
                        let cidx = self.name_idx(class);
                        self.cur_line = e.line;
                        self.emit(Instr::RaiseClass {
                            class: cidx,
                            has_msg: false,
                        });
                    }
                    _ => {
                        self.expr(e);
                        self.emit(Instr::RaiseValue);
                    }
                },
            },
            StmtKind::Assert { test, message } => {
                self.expr(test);
                let ok = self.emit(Instr::PopJumpIfTrue(0));
                let has_msg = message.is_some();
                if let Some(m) = message {
                    self.expr(m);
                }
                self.cur_line = stmt.line;
                self.emit(Instr::AssertFail { has_msg });
                self.patch_here(ok);
            }
        }
    }

    fn try_stmt(
        &mut self,
        body: &[Stmt],
        handlers: &[(Option<String>, Option<String>, Vec<Stmt>)],
        finally: &[Stmt],
        line: u32,
    ) {
        let has_f = !finally.is_empty();
        let has_h = !handlers.is_empty();
        self.cur_line = line;
        let guard_at = has_f.then(|| self.emit(Instr::SetupTry(0)));
        if has_f {
            self.ctx.push(Ctx::Finally { jumps: Vec::new() });
        }
        let inner_at = has_h.then(|| self.emit(Instr::SetupTry(0)));
        if has_h {
            self.ctx.push(Ctx::Guard);
        }
        self.block(body);
        self.cur_line = line;
        let mut end_jumps = Vec::new();
        let mut fin_jumps = Vec::new();
        if has_h {
            self.emit(Instr::PopTry);
            self.ctx.pop(); // Guard
        }
        if has_f {
            self.emit(Instr::PopTry);
            self.emit(Instr::PushPending(PendingKind::Normal));
            fin_jumps.push(self.emit(Instr::Jump(0)));
        } else {
            end_jumps.push(self.emit(Instr::Jump(0)));
        }
        if has_h {
            self.patch_here(inner_at.expect("handlers present"));
            for (class, alias, hbody) in handlers {
                self.cur_line = line;
                let cidx = class.as_ref().map(|c| self.name_idx(c));
                self.emit(Instr::ErrMatch(cidx));
                let next = self.emit(Instr::PopJumpIfFalse(0));
                if let Some(a) = alias {
                    self.emit(Instr::PushErrMsg);
                    let slot = self.name_idx(a);
                    self.emit(Instr::Store(slot));
                }
                self.emit(Instr::PopErr);
                self.block(hbody);
                self.cur_line = line;
                if has_f {
                    self.emit(Instr::PopTry);
                    self.emit(Instr::PushPending(PendingKind::Normal));
                    fin_jumps.push(self.emit(Instr::Jump(0)));
                } else {
                    end_jumps.push(self.emit(Instr::Jump(0)));
                }
                self.patch_here(next);
            }
            self.emit(Instr::Reraise);
        }
        if has_f {
            let Some(Ctx::Finally { jumps }) = self.ctx.pop() else {
                unreachable!("finally ctx mismatch");
            };
            fin_jumps.extend(jumps);
            // Any error from the body (post-handler) or handlers lands
            // here with the finally guard popped by the unwinder.
            self.patch_here(guard_at.expect("finally present"));
            self.emit(Instr::PushPending(PendingKind::Err));
            for j in fin_jumps {
                self.patch_here(j);
            }
            self.ctx.push(Ctx::InFinally);
            self.block(finally);
            self.ctx.pop(); // InFinally
            self.cur_line = line;
            let pj = self.emit(Instr::PendingJump {
                on_return: 0,
                on_break: 0,
                on_continue: 0,
            });
            end_jumps.push(self.emit(Instr::Jump(0)));
            // Suspended-flow stubs, compiled against the surrounding
            // context (the walker's "finally ran; deliver the flow").
            let ret_at = self.here();
            self.emit_return();
            let brk_at = self.here();
            self.emit_break();
            let cont_at = self.here();
            self.emit_continue();
            if let Instr::PendingJump {
                on_return,
                on_break,
                on_continue,
            } = &mut self.code.instrs[pj]
            {
                *on_return = ret_at;
                *on_break = brk_at;
                *on_continue = cont_at;
            }
        }
        for j in end_jumps {
            self.patch_here(j);
        }
    }

    /// Lower `return` (value already on the stack), routing through any
    /// enclosing `finally` blocks.
    fn emit_return(&mut self) {
        for i in (0..self.ctx.len()).rev() {
            match &self.ctx[i] {
                Ctx::Guard => {
                    self.emit(Instr::PopTry);
                }
                Ctx::InFinally => {
                    self.emit(Instr::PopPending);
                }
                Ctx::Finally { .. } => {
                    self.emit(Instr::PopTry);
                    self.emit(Instr::PushPending(PendingKind::Return));
                    let j = self.emit(Instr::Jump(0));
                    if let Ctx::Finally { jumps } = &mut self.ctx[i] {
                        jumps.push(j);
                    }
                    return;
                }
                Ctx::Loop { .. } => {}
            }
        }
        self.emit(Instr::Return);
    }

    fn emit_break(&mut self) {
        for i in (0..self.ctx.len()).rev() {
            match &self.ctx[i] {
                Ctx::Guard => {
                    self.emit(Instr::PopTry);
                }
                Ctx::InFinally => {
                    self.emit(Instr::PopPending);
                }
                Ctx::Finally { .. } => {
                    self.emit(Instr::PopTry);
                    self.emit(Instr::PushPending(PendingKind::Break));
                    let j = self.emit(Instr::Jump(0));
                    if let Ctx::Finally { jumps } = &mut self.ctx[i] {
                        jumps.push(j);
                    }
                    return;
                }
                Ctx::Loop { has_iter, .. } => {
                    if *has_iter {
                        self.emit(Instr::PopIter);
                    }
                    let j = self.emit(Instr::Jump(0));
                    if let Ctx::Loop { breaks, .. } = &mut self.ctx[i] {
                        breaks.push(j);
                    }
                    return;
                }
            }
        }
        self.emit(Instr::FlowBreak);
    }

    fn emit_continue(&mut self) {
        for i in (0..self.ctx.len()).rev() {
            match &self.ctx[i] {
                Ctx::Guard => {
                    self.emit(Instr::PopTry);
                }
                Ctx::InFinally => {
                    self.emit(Instr::PopPending);
                }
                Ctx::Finally { .. } => {
                    self.emit(Instr::PopTry);
                    self.emit(Instr::PushPending(PendingKind::Continue));
                    let j = self.emit(Instr::Jump(0));
                    if let Ctx::Finally { jumps } = &mut self.ctx[i] {
                        jumps.push(j);
                    }
                    return;
                }
                Ctx::Loop { cont, .. } => {
                    let target = *cont;
                    self.emit(Instr::Jump(target));
                    return;
                }
            }
        }
        self.emit(Instr::FlowBreak);
    }

    /// Emit the loop-head advance for a `for` target: the fused
    /// [`Instr::ForIterStore`] for plain-name targets, otherwise
    /// `ForIter` followed by a full target store. Returns the
    /// instruction index whose exit target must be patched.
    fn emit_for_head(&mut self, target: &Expr) -> usize {
        if let ExprKind::Name(name) = &target.kind {
            let slot = self.name_idx(name);
            return self.emit(Instr::ForIterStore { slot, exit: 0 });
        }
        let at = self.emit(Instr::ForIter(0));
        self.store_target(target);
        at
    }

    /// Emit [`Instr::AugIndex`] when an augmented assignment has the
    /// `name op= name[name]` shape on a single source line (the line
    /// guard keeps NameError locations identical to the unfused form).
    fn try_fuse_aug_index(&mut self, line: u32, target: &Expr, op: BinOp, value: &Expr) -> bool {
        let ExprKind::Name(tname) = &target.kind else {
            return false;
        };
        let ExprKind::Subscript {
            value: obj_e,
            index,
        } = &value.kind
        else {
            return false;
        };
        let Index::Item(idx_e) = index.as_ref() else {
            return false;
        };
        let (ExprKind::Name(oname), ExprKind::Name(iname)) = (&obj_e.kind, &idx_e.kind) else {
            return false;
        };
        if [target.line, value.line, obj_e.line, idx_e.line] != [line; 4] {
            return false;
        }
        let target = self.name_idx(tname);
        let obj = self.name_idx(oname);
        let idx = self.name_idx(iname);
        self.cur_line = line;
        self.emit(Instr::AugIndex {
            target,
            op,
            obj,
            idx,
        });
        true
    }

    /// Lower an assignment target; the value to store is on the stack.
    fn store_target(&mut self, target: &Expr) {
        self.cur_line = target.line;
        match &target.kind {
            ExprKind::Name(name) => {
                let slot = self.name_idx(name);
                self.emit(Instr::Store(slot));
            }
            ExprKind::Tuple(items) | ExprKind::List(items) => {
                self.emit(Instr::UnpackSeq(items.len() as u16));
                for item in items {
                    self.store_target(item);
                }
            }
            ExprKind::Subscript { value, index } => match index.as_ref() {
                Index::Item(idx_expr) => {
                    self.expr(value);
                    self.expr(idx_expr);
                    self.cur_line = target.line;
                    self.emit(Instr::SetItem);
                }
                Index::Slice { .. } => {
                    let msg = self.str_const("slice assignment is not supported");
                    self.emit(Instr::StaticErr {
                        kind: ErrorKind::Type,
                        msg,
                    });
                }
            },
            ExprKind::Attribute { value, attr } => {
                self.expr(value);
                let aidx = self.name_idx(attr);
                self.cur_line = target.line;
                self.emit(Instr::SetAttr(aidx));
            }
            _ => {
                let msg = self.str_const("invalid assignment target");
                self.emit(Instr::StaticErr {
                    kind: ErrorKind::Syntax,
                    msg,
                });
            }
        }
    }

    // -- expressions -----------------------------------------------------

    fn expr(&mut self, e: &Expr) {
        self.cur_line = e.line;
        match &e.kind {
            ExprKind::Int(v) => {
                let c = self.const_idx(Value::Int(*v));
                self.emit(Instr::LoadConst(c));
            }
            ExprKind::Float(v) => {
                let c = self.const_idx(Value::Float(*v));
                self.emit(Instr::LoadConst(c));
            }
            ExprKind::Str(s) => {
                let c = self.const_idx(Value::Str(s.clone()));
                self.emit(Instr::LoadConst(c));
            }
            ExprKind::Bool(b) => {
                let c = self.const_idx(Value::Bool(*b));
                self.emit(Instr::LoadConst(c));
            }
            ExprKind::NoneLit => {
                let c = self.const_idx(Value::None);
                self.emit(Instr::LoadConst(c));
            }
            ExprKind::Name(name) => {
                let slot = self.name_idx(name);
                self.emit(Instr::Load(slot));
            }
            ExprKind::Tuple(items) => {
                for item in items {
                    self.expr(item);
                }
                self.cur_line = e.line;
                self.emit(Instr::BuildTuple(items.len() as u16));
            }
            ExprKind::List(items) => {
                for item in items {
                    self.expr(item);
                }
                self.cur_line = e.line;
                self.emit(Instr::BuildList(items.len() as u16));
            }
            ExprKind::Dict(pairs) => {
                for (k, v) in pairs {
                    self.expr(k);
                    self.expr(v);
                }
                self.cur_line = e.line;
                self.emit(Instr::BuildDict(pairs.len() as u16));
            }
            ExprKind::BinOp { left, op, right } => {
                // `name[name] op name` fuses the subscript read into the
                // operator (line guards keep NameError parity with the
                // unfused `LoadIndex; BinOpName` pair).
                if let (ExprKind::Subscript { value, index }, ExprKind::Name(rhs)) =
                    (&left.kind, &right.kind)
                {
                    if let Index::Item(idx_expr) = index.as_ref() {
                        if let (ExprKind::Name(obj), ExprKind::Name(idx)) =
                            (&value.kind, &idx_expr.kind)
                        {
                            if [left.line, right.line, value.line, idx_expr.line] == [e.line; 4] {
                                let o = self.name_idx(obj);
                                let i = self.name_idx(idx);
                                let r = self.name_idx(rhs);
                                self.cur_line = e.line;
                                self.emit(Instr::IndexBinOpName {
                                    obj: o,
                                    idx: i,
                                    op: *op,
                                    rhs: r,
                                });
                                return;
                            }
                        }
                    }
                }
                self.expr(left);
                // A plain-name right operand loads straight from its
                // slot inside the operator (line guard: NameError parity).
                if let ExprKind::Name(name) = &right.kind {
                    if right.line == e.line {
                        let rhs = self.name_idx(name);
                        self.cur_line = e.line;
                        self.emit(Instr::BinOpName { op: *op, rhs });
                        return;
                    }
                }
                self.expr(right);
                self.cur_line = e.line;
                self.emit(Instr::BinOp(*op));
            }
            ExprKind::UnaryOp { op, operand } => {
                self.expr(operand);
                self.cur_line = e.line;
                self.emit(Instr::UnaryOp(*op));
            }
            ExprKind::BoolOp { op, values } => {
                let mut jumps = Vec::new();
                for (i, v) in values.iter().enumerate() {
                    self.expr(v);
                    if i < values.len() - 1 {
                        self.cur_line = e.line;
                        let j = match op {
                            BoolOpKind::And => self.emit(Instr::JumpIfFalseKeep(0)),
                            BoolOpKind::Or => self.emit(Instr::JumpIfTrueKeep(0)),
                        };
                        jumps.push(j);
                        self.emit(Instr::Pop);
                    }
                }
                for j in jumps {
                    self.patch_here(j);
                }
            }
            ExprKind::Compare {
                left,
                ops,
                comparators,
            } => {
                self.expr(left);
                if ops.len() == 1 {
                    self.expr(&comparators[0]);
                    self.cur_line = e.line;
                    self.emit(Instr::Compare(ops[0]));
                } else {
                    let mut false_jumps = Vec::new();
                    for (i, (op, comp)) in ops.iter().zip(comparators.iter()).enumerate() {
                        self.expr(comp);
                        self.cur_line = e.line;
                        if i < ops.len() - 1 {
                            false_jumps.push(self.emit(Instr::CmpChain(*op, 0)));
                        } else {
                            self.emit(Instr::CmpLast(*op));
                        }
                    }
                    for j in false_jumps {
                        self.patch_here(j);
                    }
                }
            }
            ExprKind::Call { func, args, kwargs } => {
                // Walker order: arguments first, then keyword values,
                // then the callee / method receiver.
                for a in args {
                    self.expr(a);
                }
                // Small keyword-less calls of a plain-name callee fuse
                // the callee load into the call itself.
                if kwargs.is_empty() && args.len() <= 4 {
                    if let ExprKind::Name(name) = &func.kind {
                        if func.line == e.line {
                            let f = self.name_idx(name);
                            self.cur_line = e.line;
                            self.emit(Instr::CallName {
                                func: f,
                                argc: args.len() as u16,
                            });
                            return;
                        }
                    }
                }
                let kwlist = if kwargs.is_empty() {
                    0
                } else {
                    let idxs: Vec<u16> = kwargs.iter().map(|(n, _)| self.name_idx(n)).collect();
                    self.code.kwlists.push(idxs);
                    (self.code.kwlists.len() - 1) as u16
                };
                for (_, v) in kwargs {
                    self.expr(v);
                }
                if let ExprKind::Attribute { value, attr } = &func.kind {
                    self.expr(value);
                    let nidx = self.name_idx(attr);
                    self.cur_line = e.line;
                    self.emit(Instr::CallMethod {
                        name: nidx,
                        argc: args.len() as u16,
                        kwlist,
                    });
                } else {
                    self.expr(func);
                    self.cur_line = e.line;
                    self.emit(Instr::Call {
                        argc: args.len() as u16,
                        kwlist,
                    });
                }
            }
            ExprKind::Attribute { value, attr } => {
                self.expr(value);
                let aidx = self.name_idx(attr);
                self.cur_line = e.line;
                self.emit(Instr::LoadAttr(aidx));
            }
            ExprKind::Subscript { value, index } => {
                // `name[name]` fuses into a single LoadIndex (the hot
                // columnar shape); guard on matching lines so NameError
                // locations stay identical to the unfused form.
                if let Index::Item(idx_expr) = index.as_ref() {
                    if let (ExprKind::Name(obj), ExprKind::Name(idx)) =
                        (&value.kind, &idx_expr.kind)
                    {
                        if value.line == e.line && idx_expr.line == e.line {
                            let o = self.name_idx(obj);
                            let i = self.name_idx(idx);
                            self.cur_line = e.line;
                            self.emit(Instr::LoadIndex(o, i));
                            return;
                        }
                    }
                }
                self.expr(value);
                match index.as_ref() {
                    Index::Item(idx_expr) => {
                        self.expr(idx_expr);
                        self.cur_line = e.line;
                        self.emit(Instr::GetItem);
                    }
                    Index::Slice { lower, upper, step } => {
                        self.cur_line = e.line;
                        self.emit(Instr::SliceLen);
                        // Walker evaluation order: step, lower, upper.
                        if let Some(s) = step {
                            self.expr(s);
                        }
                        if let Some(l) = lower {
                            self.expr(l);
                        }
                        if let Some(u) = upper {
                            self.expr(u);
                        }
                        self.cur_line = e.line;
                        self.emit(Instr::SliceGet {
                            has_step: step.is_some(),
                            has_lo: lower.is_some(),
                            has_hi: upper.is_some(),
                        });
                    }
                }
            }
            ExprKind::Lambda(def) => {
                self.code.funcs.push(def.clone());
                let idx = (self.code.funcs.len() - 1) as u16;
                self.emit(Instr::MakeFunction(idx));
            }
            ExprKind::IfExp { test, body, orelse } => {
                self.expr(test);
                let to_else = self.emit(Instr::PopJumpIfFalse(0));
                self.expr(body);
                let to_end = self.emit(Instr::Jump(0));
                self.patch_here(to_else);
                self.expr(orelse);
                self.patch_here(to_end);
            }
            ExprKind::ListComp {
                elt,
                target,
                iter,
                conds,
            } => {
                self.emit(Instr::BuildList(0));
                self.expr(iter);
                self.cur_line = e.line;
                self.emit(Instr::GetIter);
                let loop_at = self.here();
                let for_at = self.emit_for_head(target);
                for cond in conds {
                    self.expr(cond);
                    self.cur_line = e.line;
                    self.emit(Instr::PopJumpIfFalse(loop_at));
                }
                self.expr(elt);
                self.cur_line = e.line;
                self.emit(Instr::ListAppend);
                self.emit(Instr::Jump(loop_at));
                self.patch_here(for_at);
            }
        }
    }
}
