//! Statement execution: the tree-walking reference interpreter and the
//! shared machinery (frames, scopes, operators, calls) that both it and
//! the bytecode VM delegate to.
//!
//! [`Interp`] executes code in one of two [`ExecMode`]s:
//!
//! * [`ExecMode::Bytecode`] (the default) — lower the AST through
//!   [`crate::compile`] and run it on the [`crate::vm`] dispatch loop.
//!   Function bodies compile lazily on first call and are cached per
//!   definition.
//! * [`ExecMode::Ast`] — walk the tree directly. This is the reference
//!   oracle: slower, but definitionally correct, and kept observably
//!   identical to the VM (values, errors, tracebacks, stdout, statement
//!   counts, debugger pauses). Differential tests run both.
//!
//! Everything below statement dispatch — name binding and lookup,
//! operators, calls, subscripts, imports — is a single implementation
//! used by both modes, so semantic fixes land in one place.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use crate::ast::*;
use crate::builtins;
use crate::compile;
use crate::debugger::Debugger;
use crate::error::{ErrorKind, PyError};
use crate::fs::{FsProvider, MemFs};
use crate::kernel::{self, LoopCounts};
use crate::methods;
use crate::native;
use crate::parser::parse_module;
use crate::value::{Array, Dict, PyFunction, Value};
use crate::vm;

/// Which execution engine runs statements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Walk the AST directly (the reference oracle, `--interp=ast`).
    Ast,
    /// Compile to bytecode and run the VM dispatch loop (default).
    #[default]
    Bytecode,
}

impl ExecMode {
    /// Parse the setting/CLI spelling (`"ast"` / `"bytecode"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "ast" => Some(ExecMode::Ast),
            "bytecode" => Some(ExecMode::Bytecode),
            _ => None,
        }
    }

    pub fn as_str(&self) -> &'static str {
        match self {
            ExecMode::Ast => "ast",
            ExecMode::Bytecode => "bytecode",
        }
    }
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Maximum interpreter call depth.
/// Chosen so the interpreter's own Rust recursion stays comfortably inside a
/// 2 MiB thread stack even in unoptimized builds.
const MAX_DEPTH: usize = 48;

type Scope = Rc<RefCell<HashMap<String, Value>>>;

/// One call frame.
pub struct Frame {
    /// Function name (`<module>` for top-level code).
    pub name: String,
    /// Local variable bindings.
    pub locals: Scope,
    /// Captured enclosing scopes for closures, innermost last.
    closure: Vec<Scope>,
    /// Names declared `global` in this function.
    globals_decl: Vec<String>,
    /// Current line being executed (for tracebacks and the debugger).
    pub line: u32,
    /// True for the synthetic module-level frame.
    is_module: bool,
}

/// Control-flow signal threaded through statement execution.
pub(crate) enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// Line-profiler buffer: per-(function, line) hit and nanosecond
/// accumulation, local to one interpreter run so the dispatch loop never
/// touches the global registry. Elapsed time is attributed to the
/// *previous* statement — its execution spans the gap between two
/// statement events — while the current statement takes the hit count.
#[derive(Default)]
pub(crate) struct ProfBuf {
    rows: HashMap<(String, u32), (u64, u64)>,
    last: Option<((String, u32), Instant)>,
}

impl ProfBuf {
    /// Statement event: close the previous statement's time slice and
    /// open the next one.
    fn on_statement(&mut self, func: &str, line: u32) {
        let now = Instant::now();
        if let Some((key, started)) = self.last.take() {
            self.rows.entry(key).or_insert((0, 0)).1 += (now - started).as_nanos() as u64;
        }
        let key = (func.to_string(), line);
        self.rows.entry(key.clone()).or_insert((0, 0)).0 += 1;
        self.last = Some((key, now));
    }

    /// End of run: close the trailing slice and merge everything into
    /// the global profile store in one batch.
    fn flush(mut self) {
        if let Some((key, started)) = self.last.take() {
            self.rows.entry(key).or_insert((0, 0)).1 += started.elapsed().as_nanos() as u64;
        }
        let batch: Vec<_> = self.rows.into_iter().collect();
        obs::profile::record(&batch);
    }
}

/// The interpreter. One instance executes one module/UDF at a time but may
/// be reused across runs; globals persist until [`Interp::reset`].
pub struct Interp {
    globals: Scope,
    pub(crate) frames: Vec<Frame>,
    /// Captured `print` output.
    stdout: String,
    /// Also forward `print` to the process stdout.
    pub echo_stdout: bool,
    /// Virtual filesystem used by `open` / `os.listdir`.
    pub fs: Rc<dyn FsProvider>,
    /// Debugger the statement gate hands the statements it can stop at.
    debugger: Option<Rc<RefCell<Debugger>>>,
    /// The statement budget: the `stmts_executed` count past which
    /// statements fail.
    stmt_limit: u64,
    /// Line-profiler buffer, armed per run while [`obs::profile::active`]
    /// (boxed so the steady-state `Interp` stays small).
    prof: Option<Box<ProfBuf>>,
    /// Deterministic seed consumed by the `random` module and sklearn.
    pub rng_seed: u64,
    /// Statements executed over this interpreter's lifetime (flushed to
    /// the `pylite.statements` metric once per module run, keeping the
    /// per-statement hot path free of atomics).
    stmts_executed: u64,
    /// Name bindings and deletions over this interpreter's lifetime.
    /// Every write to a scope a running frame can see goes through
    /// `bind_name` or `delete_name`, which count it here, so the VM keeps
    /// its slot cache across a debugger call that leaves this unchanged.
    pub(crate) binds: u64,
    /// Loop-kernel entries over this interpreter's lifetime.
    pub(crate) loops: LoopCounts,
    /// Extra modules injected by the embedder (e.g. a loopback `_conn`).
    pub extra_modules: HashMap<String, Value>,
    /// Which engine executes statements (bytecode VM by default).
    exec_mode: ExecMode,
    /// Compiled function bodies, keyed by definition identity.
    code_cache: vm::CodeCache,
    /// Source line of the builtin call currently executing, so errors
    /// raised inside builtins blame the call site instead of line 0.
    call_line: u32,
}

impl Default for Interp {
    fn default() -> Self {
        Self::new()
    }
}

impl Interp {
    /// Create an interpreter with an empty in-memory filesystem.
    pub fn new() -> Self {
        Interp {
            globals: Rc::new(RefCell::new(HashMap::new())),
            frames: Vec::new(),
            stdout: String::new(),
            echo_stdout: false,
            fs: Rc::new(MemFs::new()),
            debugger: None,
            stmt_limit: u64::MAX,
            prof: None,
            rng_seed: 0x5eed_cafe,
            stmts_executed: 0,
            binds: 0,
            loops: LoopCounts::default(),
            extra_modules: HashMap::new(),
            exec_mode: ExecMode::default(),
            code_cache: vm::CodeCache::default(),
            call_line: 0,
        }
    }

    /// Create an interpreter with a caller-provided filesystem.
    pub fn with_fs(fs: Rc<dyn FsProvider>) -> Self {
        let mut interp = Self::new();
        interp.fs = fs;
        interp
    }

    /// Attach a debugger: the statement gate hands it every statement on
    /// a line where it can stop.
    pub fn set_hook(&mut self, debugger: Rc<RefCell<Debugger>>) {
        self.debugger = Some(debugger);
    }

    /// Limit the number of statements executed from now on (guards
    /// runaway loops).
    pub fn set_step_budget(&mut self, steps: u64) {
        self.stmt_limit = self.stmts_executed.saturating_add(steps);
    }

    /// Select the execution engine (bytecode VM vs. AST walker).
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.exec_mode = mode;
    }

    /// The currently selected execution engine.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// Loop entries so far that ran as a typed kernel or took the
    /// fallback loop (see [`crate::kernel`]).
    pub fn loop_counts(&self) -> LoopCounts {
        self.loops
    }

    /// Statements executed over this interpreter's lifetime, those a loop
    /// kernel charged included.
    pub fn statements_executed(&self) -> u64 {
        self.stmts_executed
    }

    /// Source line of the builtin call currently executing. Builtins pass
    /// this to interpreter helpers (`binop`, `iter_values`, …) so errors
    /// they raise point at the call site rather than line 0.
    pub fn call_line(&self) -> u32 {
        self.call_line
    }

    /// Clear globals and captured output.
    pub fn reset(&mut self) {
        self.globals.borrow_mut().clear();
        self.stdout.clear();
        self.frames.clear();
    }

    /// Bind a global variable before (or after) running code.
    pub fn set_global(&mut self, name: &str, value: Value) {
        self.globals.borrow_mut().insert(name.to_string(), value);
    }

    /// Read a global variable.
    pub fn get_global(&self, name: &str) -> Option<Value> {
        self.globals.borrow().get(name).cloned()
    }

    /// All global names currently bound (sorted), for debugger display.
    pub fn global_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.globals.borrow().keys().cloned().collect();
        names.sort();
        names
    }

    /// Captured `print` output so far.
    pub fn stdout(&self) -> &str {
        &self.stdout
    }

    /// Clear captured output.
    pub fn take_stdout(&mut self) -> String {
        std::mem::take(&mut self.stdout)
    }

    /// Append `text` to the captured output (and echo it when
    /// [`Interp::echo_stdout`] is set), as `print` does.
    pub fn write_stdout(&mut self, text: &str) {
        if self.echo_stdout {
            print!("{text}");
        }
        self.stdout.push_str(text);
    }

    /// Current call stack, outermost first, as (function, line) pairs.
    pub fn stack(&self) -> Vec<(String, u32)> {
        self.frames
            .iter()
            .map(|f| (f.name.clone(), f.line))
            .collect()
    }

    /// Snapshot the innermost frame's locals as (name, repr) pairs, sorted.
    pub fn locals_snapshot(&self) -> Vec<(String, String)> {
        let Some(frame) = self.frames.last() else {
            return Vec::new();
        };
        let mut out: Vec<(String, String)> = frame
            .locals
            .borrow()
            .iter()
            .map(|(k, v)| (k.clone(), v.repr()))
            .collect();
        out.sort();
        out
    }

    /// Evaluate a parsed expression in the context of the current frame
    /// (the debugger's conditions and watches).
    pub(crate) fn eval_in_frame(&mut self, expr: &Expr) -> Result<Value, PyError> {
        if self.frames.is_empty() {
            self.push_module_frame();
            let r = self.eval_expr(expr);
            self.frames.pop();
            r
        } else {
            self.eval_expr(expr)
        }
    }

    fn push_module_frame(&mut self) {
        self.frames.push(Frame {
            name: "<module>".to_string(),
            locals: self.globals.clone(),
            closure: Vec::new(),
            globals_decl: Vec::new(),
            line: 0,
            is_module: true,
        });
    }

    /// Parse and execute `source` as a module. Returns the value of a
    /// top-level `return` if one executes (MonetDB UDF bodies end in
    /// `return`), otherwise `Value::None`.
    pub fn eval_module(&mut self, source: &str) -> Result<Value, PyError> {
        let module = parse_module(source)?;
        self.run_module(&module)
    }

    /// Execute an already-parsed module. In [`ExecMode::Bytecode`] the
    /// module is compiled first (callers that re-run the same module
    /// should compile once with [`compile::compile_module`] and use
    /// [`Interp::run_code`] directly).
    pub fn run_module(&mut self, module: &Module) -> Result<Value, PyError> {
        match self.exec_mode {
            ExecMode::Bytecode => {
                let code = compile::compile_module(module);
                self.run_code(&code)
            }
            ExecMode::Ast => self
                .run_in_module_frame(obs::histogram!("pylite.exec_ast_ns"), |me| {
                    me.exec_block(&module.body)
                }),
        }
    }

    /// Execute a pre-compiled module body on the bytecode VM,
    /// regardless of the configured [`ExecMode`].
    pub fn run_code(&mut self, code: &compile::CodeObject) -> Result<Value, PyError> {
        self.run_in_module_frame(obs::histogram!("pylite.exec_bytecode_ns"), |me| {
            vm::run(me, code)
        })
    }

    /// Run a module body, on either engine, in a fresh `<module>` frame:
    /// arms and flushes the line profiler, counts the statements, records
    /// the run's wall time into `exec_ns`, and adds the `<module>` frame
    /// to an error's empty traceback.
    fn run_in_module_frame(
        &mut self,
        exec_ns: &obs::metrics::Histogram,
        body: impl FnOnce(&mut Self) -> Result<Flow, PyError>,
    ) -> Result<Value, PyError> {
        let start = Instant::now();
        let stmts_before = self.stmts_executed;
        let profiling = self.arm_profiler();
        self.push_module_frame();
        let result = body(self);
        let frame_line = self.frames.last().map(|f| f.line).unwrap_or(0);
        self.frames.pop();
        if profiling {
            self.flush_profiler();
        }
        obs::counter!("pylite.statements").add(self.stmts_executed - stmts_before);
        exec_ns.record(start.elapsed().as_nanos() as u64);
        match result {
            Ok(Flow::Return(v)) => Ok(v),
            Ok(_) => Ok(Value::None),
            Err(mut e) => {
                if e.traceback.is_empty() {
                    e.push_frame("<module>", frame_line);
                }
                Err(e)
            }
        }
    }

    /// Arm the line profiler for this run when the global profiler is
    /// switched on. Returns whether this call armed it (and therefore
    /// owns the flush) — a nested run under an already-armed profiler
    /// keeps feeding the outer buffer.
    fn arm_profiler(&mut self) -> bool {
        if self.prof.is_none() && obs::profile::active() {
            self.prof = Some(Box::default());
            return true;
        }
        false
    }

    /// Close the trailing statement slice and publish the buffered rows.
    fn flush_profiler(&mut self) {
        if let Some(buf) = self.prof.take() {
            buf.flush();
        }
    }

    /// The statement gate both engines run before every statement: count
    /// it, record its line in the frame (so [`Self::stack`] and tracebacks
    /// agree), charge the statement budget, feed the line profiler, and
    /// report whether the debugger can stop on `line`. On `true` the
    /// engine calls [`Self::debug_statement`], the VM after flushing its
    /// slot cache. A debugger busy evaluating its own conditions and
    /// watches cannot stop, so the statements those run neither pause nor
    /// re-enter it. Inlined, with the budget error, the profiler and the
    /// debugger query out of line: a run with no debugger or profiler,
    /// budgeted or not, makes no call here.
    #[inline]
    pub(crate) fn statement_gate(&mut self, line: u32) -> Result<bool, PyError> {
        self.stmts_executed += 1;
        if let Some(frame) = self.frames.last_mut() {
            frame.line = line;
        }
        if self.stmts_executed > self.stmt_limit {
            return Err(budget_exhausted());
        }
        if self.prof.is_some() {
            self.prof_statement(line);
        }
        Ok(self.debugger.is_some() && self.debugger_can_stop(line))
    }

    /// Whether the attached debugger can stop on `line`; `false` while it
    /// is busy evaluating its own expressions.
    #[inline(never)]
    fn debugger_can_stop(&self, line: u32) -> bool {
        self.debugger
            .as_ref()
            .is_some_and(|d| d.try_borrow().is_ok_and(|d| d.can_stop(line)))
    }

    /// Hand the statement on `line`, which the gate found the debugger can
    /// stop at, to the debugger (counted in `pylite.debug.calls`).
    #[cold]
    pub(crate) fn debug_statement(&mut self, line: u32) -> Result<(), PyError> {
        obs::counter!("pylite.debug.calls").inc();
        let debugger = self.debugger.clone().expect("the gate saw a debugger");
        let mut debugger = debugger.borrow_mut();
        debugger.on_statement(self, line)
    }

    /// Whether a loop kernel whose body statements sit on `lines` may run:
    /// not while the profiler is armed (it times every statement), nor
    /// while the debugger can stop on one of those lines.
    pub(crate) fn kernel_may_run(&self, lines: &[u32]) -> Result<(), kernel::Bail> {
        if self.prof.is_some() {
            return Err(kernel::Bail::Profiler);
        }
        if self.debugger.is_some() && lines.iter().any(|&l| self.debugger_can_stop(l)) {
            return Err(kernel::Bail::Debugger);
        }
        Ok(())
    }

    /// Statements the budget still allows.
    pub(crate) fn budget_left(&self) -> u64 {
        self.stmt_limit.saturating_sub(self.stmts_executed)
    }

    /// Charge the `stmts` statements a kernel ran, as the statement gate
    /// would have, the last of them on `line`.
    pub(crate) fn charge_kernel(&mut self, stmts: u64, line: u32) {
        self.stmts_executed += stmts;
        if let Some(frame) = self.frames.last_mut() {
            frame.line = line;
        }
    }

    /// Tell a debugger that is not busy evaluating its own expressions
    /// that a Python frame was pushed or popped.
    fn debugger_frame(&self, event: fn(&mut Debugger)) {
        if let Some(Ok(mut debugger)) = self.debugger.as_ref().map(|d| d.try_borrow_mut()) {
            event(&mut debugger);
        }
    }

    /// One profiled statement event; out-of-line so the unprofiled
    /// dispatch paths pay only the `prof.is_some()` check.
    #[cold]
    fn prof_statement(&mut self, line: u32) {
        let fname = self
            .frames
            .last()
            .map(|f| f.name.clone())
            .unwrap_or_else(|| "<module>".to_string());
        if let Some(buf) = self.prof.as_mut() {
            buf.on_statement(&fname, line);
        }
    }

    /// Call a callable value with positional and keyword arguments.
    pub fn call_function(
        &mut self,
        func: &Value,
        args: &[Value],
        kwargs: &[(String, Value)],
        call_line: u32,
    ) -> Result<Value, PyError> {
        match func {
            Value::Function(f) => self.call_py_function(f, args, kwargs),
            Value::Builtin(b) => self.call_builtin(b, args, kwargs, call_line),
            Value::Native(n) => {
                // Calling a native object directly: constructor-style natives
                // implement `call_method("__call__", ...)`.
                n.clone().call_method("__call__", self, args, kwargs)
            }
            other => Err(PyError::new(
                ErrorKind::Type,
                format!("'{}' object is not callable", other.type_name()),
            )),
        }
    }

    /// The builtin arm of [`Self::call_function`], inlinable from the
    /// VM's fused call path. Records the call site so errors raised
    /// inside the builtin (via [`Self::call_line`]) blame this line,
    /// not line 0. Save/restore: a builtin that calls back into user
    /// code may trigger nested builtin calls at other lines.
    #[inline]
    pub(crate) fn call_builtin(
        &mut self,
        b: &crate::value::Builtin,
        args: &[Value],
        kwargs: &[(String, Value)],
        call_line: u32,
    ) -> Result<Value, PyError> {
        let saved = self.call_line;
        self.call_line = call_line;
        let result = (b.func)(self, args, kwargs).map_err(|mut e| {
            if e.traceback.is_empty() {
                e.push_frame(b.name, call_line);
            }
            e
        });
        self.call_line = saved;
        result
    }

    fn call_py_function(
        &mut self,
        f: &Rc<PyFunction>,
        args: &[Value],
        kwargs: &[(String, Value)],
    ) -> Result<Value, PyError> {
        if self.frames.len() >= MAX_DEPTH {
            return Err(PyError::new(
                ErrorKind::Resource,
                format!("maximum recursion depth exceeded ({MAX_DEPTH})"),
            ));
        }
        let def = &f.def;
        let locals: Scope = Rc::new(RefCell::new(HashMap::new()));

        // Bind positional arguments.
        if args.len() > def.params.len() {
            return Err(PyError::new(
                ErrorKind::Type,
                format!(
                    "{}() takes {} arguments but {} were given",
                    def.name,
                    def.params.len(),
                    args.len()
                ),
            ));
        }
        for (param, arg) in def.params.iter().zip(args.iter()) {
            locals.borrow_mut().insert(param.name.clone(), arg.clone());
        }
        // Bind keyword arguments.
        for (name, value) in kwargs {
            if !def.params.iter().any(|p| &p.name == name) {
                return Err(PyError::new(
                    ErrorKind::Type,
                    format!("{}() got an unexpected keyword argument '{name}'", def.name),
                ));
            }
            if locals.borrow().contains_key(name) {
                return Err(PyError::new(
                    ErrorKind::Type,
                    format!("{}() got multiple values for argument '{name}'", def.name),
                ));
            }
            locals.borrow_mut().insert(name.clone(), value.clone());
        }
        // Defaults for unbound parameters.
        for param in &def.params {
            if locals.borrow().contains_key(&param.name) {
                continue;
            }
            match &param.default {
                Some(default_expr) => {
                    let v = self.eval_expr(default_expr)?;
                    locals.borrow_mut().insert(param.name.clone(), v);
                }
                None => {
                    return Err(PyError::new(
                        ErrorKind::Type,
                        format!("{}() missing required argument: '{}'", def.name, param.name),
                    ))
                }
            }
        }

        self.frames.push(Frame {
            name: def.name.clone(),
            locals,
            closure: f.closure.clone(),
            globals_decl: def.global_names.clone(),
            line: def.line,
            is_module: false,
        });
        self.debugger_frame(Debugger::on_call);
        let result = match self.exec_mode {
            ExecMode::Ast => self.exec_block(&def.body),
            ExecMode::Bytecode => {
                let code = self.code_cache.get_or_compile(def);
                vm::run(self, &code)
            }
        };
        let frame_line = self.frames.last().map(|f| f.line).unwrap_or(def.line);
        self.frames.pop();
        self.debugger_frame(Debugger::on_return);
        match result {
            Ok(Flow::Return(v)) => Ok(v),
            Ok(Flow::Normal) => Ok(Value::None),
            Ok(Flow::Break) | Ok(Flow::Continue) => Err(PyError::new(
                ErrorKind::Syntax,
                "'break' or 'continue' outside loop",
            )),
            Err(mut e) => {
                e.push_frame(def.name.clone(), frame_line);
                Err(e)
            }
        }
    }

    // ------------------------------------------------------------------
    // Statement execution
    // ------------------------------------------------------------------

    fn exec_block(&mut self, body: &[Stmt]) -> Result<Flow, PyError> {
        for stmt in body {
            match self.exec_stmt(stmt)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt) -> Result<Flow, PyError> {
        if self.statement_gate(stmt.line)? {
            self.debug_statement(stmt.line)?;
        }

        match &stmt.kind {
            StmtKind::Expr(e) => {
                self.eval_expr(e)?;
                Ok(Flow::Normal)
            }
            StmtKind::Assign { targets, value } => {
                let v = self.eval_expr(value)?;
                for target in targets {
                    self.assign(target, v.clone())?;
                }
                Ok(Flow::Normal)
            }
            StmtKind::AugAssign { target, op, value } => {
                let current = self.eval_expr(target)?;
                let rhs = self.eval_expr(value)?;
                let combined = self.binop(*op, &current, &rhs, stmt.line)?;
                self.assign(target, combined)?;
                Ok(Flow::Normal)
            }
            StmtKind::Return(expr) => {
                let v = match expr {
                    Some(e) => self.eval_expr(e)?,
                    None => Value::None,
                };
                Ok(Flow::Return(v))
            }
            StmtKind::If { branches, orelse } => {
                for (test, body) in branches {
                    if self.eval_expr(test)?.truthy() {
                        return self.exec_block(body);
                    }
                }
                self.exec_block(orelse)
            }
            StmtKind::While { test, body } => {
                while self.eval_expr(test)?.truthy() {
                    match self.exec_block(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::For { target, iter, body } => {
                let iterable = self.eval_expr(iter)?;
                // Ranges iterate lazily; everything else materializes.
                if let Value::Range { start, stop, step } = iterable {
                    if step == 0 {
                        return Err(self.err_at(
                            ErrorKind::Value,
                            "range() step must not be zero",
                            stmt.line,
                        ));
                    }
                    let mut i = start;
                    while (step > 0 && i < stop) || (step < 0 && i > stop) {
                        self.assign(target, Value::Int(i))?;
                        match self.exec_block(body)? {
                            Flow::Break => return Ok(Flow::Normal),
                            Flow::Return(v) => return Ok(Flow::Return(v)),
                            Flow::Normal | Flow::Continue => {}
                        }
                        // A step past the i64 range ends the range.
                        let Some(next) = i.checked_add(step) else {
                            break;
                        };
                        i = next;
                    }
                    return Ok(Flow::Normal);
                }
                let items = self.iter_values(&iterable, stmt.line)?;
                for item in items {
                    self.assign(target, item)?;
                    match self.exec_block(body)? {
                        Flow::Break => return Ok(Flow::Normal),
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Pass => Ok(Flow::Normal),
            StmtKind::FunctionDef(def) => {
                let closure = self.current_closure();
                let func = Value::Function(Rc::new(PyFunction {
                    def: def.clone(),
                    closure,
                }));
                self.bind_name(&def.name, func)?;
                Ok(Flow::Normal)
            }
            StmtKind::Import { module, alias } => {
                let value = self.load_module(module, stmt.line)?;
                let bind_as = match alias {
                    Some(a) => a.clone(),
                    None => {
                        // `import a.b` binds `a`.
                        let top = module.split('.').next().unwrap().to_string();
                        if top != *module {
                            let top_mod = self.load_module(&top, stmt.line)?;
                            self.bind_name(&top, top_mod)?;
                            return Ok(Flow::Normal);
                        }
                        top
                    }
                };
                self.bind_name(&bind_as, value)?;
                Ok(Flow::Normal)
            }
            StmtKind::FromImport { module, names } => {
                let value = self.load_module(module, stmt.line)?;
                let Value::Module(m) = &value else {
                    return Err(self.err_at(
                        ErrorKind::Import,
                        format!("'{module}' is not a module"),
                        stmt.line,
                    ));
                };
                for (name, alias) in names {
                    let attr = m.attrs.borrow().get(name).cloned().ok_or_else(|| {
                        self.err_at(
                            ErrorKind::Import,
                            format!("cannot import name '{name}' from '{module}'"),
                            stmt.line,
                        )
                    })?;
                    self.bind_name(alias.as_ref().unwrap_or(name), attr)?;
                }
                Ok(Flow::Normal)
            }
            StmtKind::Global(_) => Ok(Flow::Normal), // handled at scope-scan time
            StmtKind::Del(targets) => {
                for target in targets {
                    self.delete(target)?;
                }
                Ok(Flow::Normal)
            }
            StmtKind::Try {
                body,
                handlers,
                finally,
            } => {
                let result = self.exec_block(body);
                let outcome = match result {
                    Err(err) => {
                        let mut handled = None;
                        for (class, alias, hbody) in handlers {
                            let matches = match class {
                                None => true,
                                Some(c) => c == err.class_name() || c == "Exception",
                            };
                            if matches {
                                if let Some(a) = alias {
                                    self.bind_name(a, Value::str(err.message.clone()))?;
                                }
                                handled = Some(self.exec_block(hbody));
                                break;
                            }
                        }
                        handled.unwrap_or(Err(err))
                    }
                    ok => ok,
                };
                // `finally` always runs; its error wins.
                match self.exec_block(finally)? {
                    Flow::Normal => outcome,
                    other => Ok(other),
                }
            }
            StmtKind::Raise(expr) => {
                let err = match expr {
                    None => {
                        PyError::user("RuntimeError", "re-raise outside except is not supported")
                    }
                    Some(e) => self.eval_raise_expr(e)?,
                };
                Err(err)
            }
            StmtKind::Assert { test, message } => {
                if !self.eval_expr(test)?.truthy() {
                    let msg = match message {
                        Some(m) => self.eval_expr(m)?.py_str(),
                        None => "assertion failed".to_string(),
                    };
                    return Err(self.err_at(ErrorKind::Assertion, msg, stmt.line));
                }
                Ok(Flow::Normal)
            }
        }
    }

    /// Turn `raise Name("msg")` / `raise Name` / `raise "msg"` into a PyError.
    fn eval_raise_expr(&mut self, e: &Expr) -> Result<PyError, PyError> {
        match &e.kind {
            ExprKind::Call { func, args, .. } => {
                if let ExprKind::Name(class) = &func.kind {
                    let msg = match args.first() {
                        Some(a) => self.eval_expr(a)?.py_str(),
                        None => String::new(),
                    };
                    let mut err = PyError::user(class.clone(), msg);
                    err.push_frame(self.current_function_name(), e.line);
                    return Ok(err);
                }
                let v = self.eval_expr(e)?;
                Ok(PyError::user("Exception", v.py_str()))
            }
            ExprKind::Name(class) => {
                let mut err = PyError::user(class.clone(), String::new());
                err.push_frame(self.current_function_name(), e.line);
                Ok(err)
            }
            _ => {
                let v = self.eval_expr(e)?;
                Ok(PyError::user("Exception", v.py_str()))
            }
        }
    }

    pub(crate) fn current_function_name(&self) -> String {
        self.frames
            .last()
            .map(|f| f.name.clone())
            .unwrap_or_else(|| "<module>".to_string())
    }

    pub(crate) fn current_closure(&self) -> Vec<Scope> {
        match self.frames.last() {
            Some(f) if !f.is_module => {
                let mut c = f.closure.clone();
                c.push(f.locals.clone());
                c
            }
            _ => Vec::new(),
        }
    }

    pub(crate) fn err_at(&self, kind: ErrorKind, msg: impl Into<String>, line: u32) -> PyError {
        let mut e = PyError::new(kind, msg);
        e.push_frame(self.current_function_name(), line);
        e
    }

    // ------------------------------------------------------------------
    // Names, assignment, deletion
    // ------------------------------------------------------------------

    /// Bind `name` in the frame's scope, or in the module scope for a
    /// name the function declares `global`. An existing binding is written
    /// in place; only a new one allocates its key.
    pub(crate) fn bind_name(&mut self, name: &str, value: Value) -> Result<(), PyError> {
        self.binds += 1;
        let frame = self.frames.last().expect("bind outside any frame");
        let scope = if !frame.is_module && frame.globals_decl.iter().any(|g| g == name) {
            &self.globals
        } else {
            &frame.locals
        };
        let mut scope = scope.borrow_mut();
        match scope.get_mut(name) {
            Some(slot) => *slot = value,
            None => {
                scope.insert(name.to_string(), value);
            }
        }
        Ok(())
    }

    pub(crate) fn lookup_name(&self, name: &str, line: u32) -> Result<Value, PyError> {
        if let Some(frame) = self.frames.last() {
            if let Some(v) = frame.locals.borrow().get(name) {
                return Ok(v.clone());
            }
            for scope in frame.closure.iter().rev() {
                if let Some(v) = scope.borrow().get(name) {
                    return Ok(v.clone());
                }
            }
        }
        if let Some(v) = self.globals.borrow().get(name) {
            return Ok(v.clone());
        }
        if let Some(v) = builtins::lookup(name) {
            return Ok(v);
        }
        Err(self.err_at(
            ErrorKind::Name,
            format!("name '{name}' is not defined"),
            line,
        ))
    }

    fn assign(&mut self, target: &Expr, value: Value) -> Result<(), PyError> {
        match &target.kind {
            ExprKind::Name(name) => self.bind_name(name, value),
            ExprKind::Tuple(items) | ExprKind::List(items) => {
                let values = self.iter_values(&value, target.line)?;
                if values.len() != items.len() {
                    return Err(self.err_at(
                        ErrorKind::Value,
                        format!(
                            "cannot unpack {} values into {} targets",
                            values.len(),
                            items.len()
                        ),
                        target.line,
                    ));
                }
                for (item, v) in items.iter().zip(values) {
                    self.assign(item, v)?;
                }
                Ok(())
            }
            ExprKind::Subscript { value: obj, index } => {
                let container = self.eval_expr(obj)?;
                match index.as_ref() {
                    Index::Item(idx_expr) => {
                        let idx = self.eval_expr(idx_expr)?;
                        self.set_item(&container, &idx, value, target.line)
                    }
                    Index::Slice { .. } => Err(self.err_at(
                        ErrorKind::Type,
                        "slice assignment is not supported",
                        target.line,
                    )),
                }
            }
            ExprKind::Attribute { value: obj, attr } => {
                let container = self.eval_expr(obj)?;
                match container {
                    Value::Module(m) => {
                        m.attrs.borrow_mut().insert(attr.clone(), value);
                        Ok(())
                    }
                    other => Err(self.err_at(
                        ErrorKind::Attribute,
                        format!("cannot set attribute '{attr}' on '{}'", other.type_name()),
                        target.line,
                    )),
                }
            }
            _ => Err(self.err_at(ErrorKind::Syntax, "invalid assignment target", target.line)),
        }
    }

    pub(crate) fn set_item(
        &mut self,
        container: &Value,
        index: &Value,
        value: Value,
        line: u32,
    ) -> Result<(), PyError> {
        match container {
            Value::List(l) => {
                let mut l = l.borrow_mut();
                let len = l.len();
                let i = normalize_index(index, len, line, self)?;
                l[i] = value;
                Ok(())
            }
            Value::Dict(d) => {
                d.borrow_mut().insert(index.clone(), value)?;
                Ok(())
            }
            other => Err(self.err_at(
                ErrorKind::Type,
                format!(
                    "'{}' object does not support item assignment",
                    other.type_name()
                ),
                line,
            )),
        }
    }

    fn delete(&mut self, target: &Expr) -> Result<(), PyError> {
        match &target.kind {
            ExprKind::Name(name) => self.delete_name(name, target.line),
            ExprKind::Subscript { value: obj, index } => {
                let container = self.eval_expr(obj)?;
                let Index::Item(idx_expr) = index.as_ref() else {
                    return Err(self.err_at(
                        ErrorKind::Type,
                        "slice deletion is not supported",
                        target.line,
                    ));
                };
                let idx = self.eval_expr(idx_expr)?;
                self.del_item(&container, &idx, target.line)
            }
            _ => Err(self.err_at(ErrorKind::Syntax, "invalid del target", target.line)),
        }
    }

    /// `del name`: remove a binding from locals (or globals).
    pub(crate) fn delete_name(&mut self, name: &str, line: u32) -> Result<(), PyError> {
        self.binds += 1;
        let frame = self.frames.last().expect("delete outside frame");
        let removed = frame.locals.borrow_mut().remove(name).is_some()
            || self.globals.borrow_mut().remove(name).is_some();
        if !removed {
            return Err(self.err_at(
                ErrorKind::Name,
                format!("name '{name}' is not defined"),
                line,
            ));
        }
        Ok(())
    }

    /// `del obj[idx]`.
    pub(crate) fn del_item(
        &mut self,
        container: &Value,
        idx: &Value,
        line: u32,
    ) -> Result<(), PyError> {
        match container {
            Value::List(l) => {
                let mut l = l.borrow_mut();
                let len = l.len();
                let i = normalize_index(idx, len, line, self)?;
                l.remove(i);
                Ok(())
            }
            Value::Dict(d) => {
                let removed = d.borrow_mut().remove(idx)?;
                if removed.is_none() {
                    return Err(self.err_at(ErrorKind::Key, idx.repr(), line));
                }
                Ok(())
            }
            other => Err(self.err_at(
                ErrorKind::Type,
                format!("cannot delete items of '{}'", other.type_name()),
                line,
            )),
        }
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    pub(crate) fn eval_expr(&mut self, e: &Expr) -> Result<Value, PyError> {
        match &e.kind {
            ExprKind::Int(v) => Ok(Value::Int(*v)),
            ExprKind::Float(v) => Ok(Value::Float(*v)),
            ExprKind::Str(s) => Ok(Value::Str(s.clone())),
            ExprKind::Bool(b) => Ok(Value::Bool(*b)),
            ExprKind::NoneLit => Ok(Value::None),
            ExprKind::Name(name) => self.lookup_name(name, e.line),
            ExprKind::Tuple(items) => {
                let mut vs = Vec::with_capacity(items.len());
                for item in items {
                    vs.push(self.eval_expr(item)?);
                }
                Ok(Value::tuple(vs))
            }
            ExprKind::List(items) => {
                let mut vs = Vec::with_capacity(items.len());
                for item in items {
                    vs.push(self.eval_expr(item)?);
                }
                Ok(Value::list(vs))
            }
            ExprKind::Dict(pairs) => {
                let mut d = Dict::new();
                for (k, v) in pairs {
                    let key = self.eval_expr(k)?;
                    let value = self.eval_expr(v)?;
                    d.insert(key, value)?;
                }
                Ok(Value::dict(d))
            }
            ExprKind::BinOp { left, op, right } => {
                let l = self.eval_expr(left)?;
                let r = self.eval_expr(right)?;
                self.binop(*op, &l, &r, e.line)
            }
            ExprKind::UnaryOp { op, operand } => {
                let v = self.eval_expr(operand)?;
                self.unaryop(*op, &v, e.line)
            }
            ExprKind::BoolOp { op, values } => {
                let mut last = Value::None;
                for (i, v) in values.iter().enumerate() {
                    last = self.eval_expr(v)?;
                    let t = last.truthy();
                    let is_last = i == values.len() - 1;
                    match op {
                        BoolOpKind::And if !t && !is_last => return Ok(last),
                        BoolOpKind::Or if t && !is_last => return Ok(last),
                        _ => {}
                    }
                    // Short-circuit check must consider non-last values only;
                    // the final value is returned as-is (Python semantics).
                    if !is_last {
                        match op {
                            BoolOpKind::And if !t => return Ok(last),
                            BoolOpKind::Or if t => return Ok(last),
                            _ => {}
                        }
                    }
                }
                Ok(last)
            }
            ExprKind::Compare {
                left,
                ops,
                comparators,
            } => {
                let mut lhs = self.eval_expr(left)?;
                // Vectorized single comparison over arrays.
                if ops.len() == 1 {
                    let rhs = self.eval_expr(&comparators[0])?;
                    if matches!(lhs, Value::Array(_)) || matches!(rhs, Value::Array(_)) {
                        return self.array_compare(ops[0], &lhs, &rhs, e.line);
                    }
                    return Ok(Value::Bool(self.compare_once(ops[0], &lhs, &rhs, e.line)?));
                }
                for (op, comp) in ops.iter().zip(comparators.iter()) {
                    let rhs = self.eval_expr(comp)?;
                    if !self.compare_once(*op, &lhs, &rhs, e.line)? {
                        return Ok(Value::Bool(false));
                    }
                    lhs = rhs;
                }
                Ok(Value::Bool(true))
            }
            ExprKind::Call { func, args, kwargs } => self.eval_call(func, args, kwargs, e.line),
            ExprKind::Attribute { value, attr } => {
                let obj = self.eval_expr(value)?;
                self.get_attribute(&obj, attr, e.line)
            }
            ExprKind::Subscript { value, index } => {
                let obj = self.eval_expr(value)?;
                self.eval_subscript(&obj, index, e.line)
            }
            ExprKind::Lambda(def) => {
                let closure = self.current_closure();
                Ok(Value::Function(Rc::new(PyFunction {
                    def: def.clone(),
                    closure,
                })))
            }
            ExprKind::IfExp { test, body, orelse } => {
                if self.eval_expr(test)?.truthy() {
                    self.eval_expr(body)
                } else {
                    self.eval_expr(orelse)
                }
            }
            ExprKind::ListComp {
                elt,
                target,
                iter,
                conds,
            } => {
                let iterable = self.eval_expr(iter)?;
                let items = self.iter_values(&iterable, e.line)?;
                let mut out = Vec::with_capacity(items.len());
                'outer: for item in items {
                    self.assign(target, item)?;
                    for cond in conds {
                        if !self.eval_expr(cond)?.truthy() {
                            continue 'outer;
                        }
                    }
                    out.push(self.eval_expr(elt)?);
                }
                Ok(Value::list(out))
            }
        }
    }

    fn eval_call(
        &mut self,
        func: &Expr,
        args: &[Expr],
        kwargs: &[(String, Expr)],
        line: u32,
    ) -> Result<Value, PyError> {
        let mut arg_values = Vec::with_capacity(args.len());
        for a in args {
            arg_values.push(self.eval_expr(a)?);
        }
        let mut kwarg_values = Vec::with_capacity(kwargs.len());
        for (name, v) in kwargs {
            kwarg_values.push((name.clone(), self.eval_expr(v)?));
        }

        // Method call: obj.method(...)
        if let ExprKind::Attribute { value, attr } = &func.kind {
            let obj = self.eval_expr(value)?;
            return self
                .call_method(&obj, attr, &arg_values, &kwarg_values, line)
                .map_err(|mut e| {
                    if e.traceback.is_empty() {
                        e.push_frame(self.current_function_name(), line);
                    }
                    e
                });
        }

        let callee = self.eval_expr(func)?;
        self.call_function(&callee, &arg_values, &kwarg_values, line)
            .map_err(|mut e| {
                if e.innermost_line().is_none() {
                    e.push_frame(self.current_function_name(), line);
                }
                e
            })
    }

    /// Dispatch a method call on any receiver type.
    pub fn call_method(
        &mut self,
        obj: &Value,
        name: &str,
        args: &[Value],
        kwargs: &[(String, Value)],
        line: u32,
    ) -> Result<Value, PyError> {
        match obj {
            Value::Native(n) => n.clone().call_method(name, self, args, kwargs),
            Value::Module(m) => {
                let attr = m.attrs.borrow().get(name).cloned().ok_or_else(|| {
                    self.err_at(
                        ErrorKind::Attribute,
                        format!("module '{}' has no attribute '{name}'", m.name),
                        line,
                    )
                })?;
                self.call_function(&attr, args, kwargs, line)
            }
            other => methods::call_builtin_method(self, other, name, args, kwargs, line),
        }
    }

    pub(crate) fn get_attribute(
        &mut self,
        obj: &Value,
        attr: &str,
        line: u32,
    ) -> Result<Value, PyError> {
        match obj {
            Value::Module(m) => m.attrs.borrow().get(attr).cloned().ok_or_else(|| {
                self.err_at(
                    ErrorKind::Attribute,
                    format!("module '{}' has no attribute '{attr}'", m.name),
                    line,
                )
            }),
            Value::Native(n) => n.get_attr(attr).ok_or_else(|| {
                self.err_at(
                    ErrorKind::Attribute,
                    format!("'{}' object has no attribute '{attr}'", n.type_name()),
                    line,
                )
            }),
            other => Err(self.err_at(
                ErrorKind::Attribute,
                format!(
                    "'{}' object has no attribute '{attr}' (methods must be called directly)",
                    other.type_name()
                ),
                line,
            )),
        }
    }

    fn eval_subscript(&mut self, obj: &Value, index: &Index, line: u32) -> Result<Value, PyError> {
        match index {
            Index::Item(idx_expr) => {
                let idx = self.eval_expr(idx_expr)?;
                self.get_item(obj, &idx, line)
            }
            Index::Slice { lower, upper, step } => {
                let len = self.value_len(obj, line)?;
                let step_v = match step {
                    Some(s) => match self.eval_expr(s)? {
                        Value::Int(0) => {
                            return Err(self.err_at(
                                ErrorKind::Value,
                                "slice step cannot be zero",
                                line,
                            ))
                        }
                        Value::Int(i) => i,
                        other => {
                            return Err(self.err_at(
                                ErrorKind::Type,
                                format!("slice step must be int, not {}", other.type_name()),
                                line,
                            ))
                        }
                    },
                    None => 1,
                };
                let lo = match lower {
                    Some(l) => Some(self.slice_bound(l, line)?),
                    None => None,
                };
                let hi = match upper {
                    Some(u) => Some(self.slice_bound(u, line)?),
                    None => None,
                };
                self.slice_select(obj, lo, hi, step_v, len, line)
            }
        }
    }

    /// Apply a resolved slice (`lo:hi:step` over a known `len`) to a
    /// sliceable value.
    pub(crate) fn slice_select(
        &self,
        obj: &Value,
        lo: Option<i64>,
        hi: Option<i64>,
        step: i64,
        len: usize,
        line: u32,
    ) -> Result<Value, PyError> {
        let indices = slice_indices(lo, hi, step, len);
        match obj {
            Value::List(l) => {
                let l = l.borrow();
                Ok(Value::list(indices.iter().map(|&i| l[i].clone()).collect()))
            }
            Value::Tuple(t) => Ok(Value::tuple(
                indices.iter().map(|&i| t[i].clone()).collect(),
            )),
            Value::Str(s) => {
                let chars: Vec<char> = s.chars().collect();
                Ok(Value::str(
                    indices.iter().map(|&i| chars[i]).collect::<String>(),
                ))
            }
            Value::Array(a) => {
                let picked: Vec<Value> = indices.iter().map(|&i| a.get(i)).collect();
                Ok(Value::array(Array::from_values(&picked)?))
            }
            Value::Bytes(b) => Ok(Value::bytes(indices.iter().map(|&i| b[i]).collect())),
            other => Err(self.err_at(
                ErrorKind::Type,
                format!("'{}' object is not sliceable", other.type_name()),
                line,
            )),
        }
    }

    fn slice_bound(&mut self, e: &Expr, line: u32) -> Result<i64, PyError> {
        match self.eval_expr(e)? {
            Value::Int(i) => Ok(i),
            other => Err(self.err_at(
                ErrorKind::Type,
                format!("slice index must be int, not {}", other.type_name()),
                line,
            )),
        }
    }

    /// Item access: `obj[idx]`.
    pub fn get_item(&mut self, obj: &Value, idx: &Value, line: u32) -> Result<Value, PyError> {
        match obj {
            Value::List(l) => {
                let l = l.borrow();
                let i = normalize_index(idx, l.len(), line, self)?;
                Ok(l[i].clone())
            }
            Value::Tuple(t) => {
                let i = normalize_index(idx, t.len(), line, self)?;
                Ok(t[i].clone())
            }
            Value::Str(s) => {
                let chars: Vec<char> = s.chars().collect();
                let i = normalize_index(idx, chars.len(), line, self)?;
                Ok(Value::str(chars[i].to_string()))
            }
            Value::Bytes(b) => {
                let i = normalize_index(idx, b.len(), line, self)?;
                Ok(Value::Int(b[i] as i64))
            }
            Value::Array(a) => {
                // Boolean-mask indexing: arr[mask].
                if let Value::Array(mask) = idx {
                    if let Array::Bool(m) = mask.as_ref() {
                        if m.len() != a.len() {
                            return Err(self.err_at(
                                ErrorKind::Value,
                                format!("mask length {} != array length {}", m.len(), a.len()),
                                line,
                            ));
                        }
                        let picked: Vec<Value> = m
                            .iter()
                            .enumerate()
                            .filter(|(_, keep)| **keep)
                            .map(|(i, _)| a.get(i))
                            .collect();
                        return Ok(Value::array(Array::from_values(&picked)?));
                    }
                }
                let i = normalize_index(idx, a.len(), line, self)?;
                Ok(a.get(i))
            }
            Value::Dict(d) => {
                let v = d.borrow().get(idx)?;
                v.ok_or_else(|| self.err_at(ErrorKind::Key, idx.repr(), line))
            }
            Value::Range { start, stop, step } => {
                let len = range_len(*start, *stop, *step);
                let i = normalize_index(idx, len, line, self)?;
                Ok(Value::Int(start + step * (i as i64)))
            }
            Value::Native(n) => {
                n.clone()
                    .call_method("__getitem__", self, std::slice::from_ref(idx), &[])
            }
            other => Err(self.err_at(
                ErrorKind::Type,
                format!("'{}' object is not subscriptable", other.type_name()),
                line,
            )),
        }
    }

    /// Length of a value, raising `TypeError` when it has none.
    pub fn value_len(&self, v: &Value, line: u32) -> Result<usize, PyError> {
        match v {
            Value::Str(s) => Ok(s.chars().count()),
            Value::Bytes(b) => Ok(b.len()),
            Value::List(l) => Ok(l.borrow().len()),
            Value::Tuple(t) => Ok(t.len()),
            Value::Dict(d) => Ok(d.borrow().len()),
            Value::Array(a) => Ok(a.len()),
            Value::Range { start, stop, step } => Ok(range_len(*start, *stop, *step)),
            other => Err(self.err_at(
                ErrorKind::Type,
                format!("object of type '{}' has no len()", other.type_name()),
                line,
            )),
        }
    }

    /// Materialize an iterable into values.
    pub fn iter_values(&mut self, v: &Value, line: u32) -> Result<Vec<Value>, PyError> {
        match v {
            Value::List(l) => Ok(l.borrow().clone()),
            Value::Tuple(t) => Ok(t.to_vec()),
            Value::Str(s) => Ok(s.chars().map(|c| Value::str(c.to_string())).collect()),
            Value::Dict(d) => Ok(d.borrow().keys()),
            Value::Array(a) => Ok((0..a.len()).map(|i| a.get(i)).collect()),
            Value::Range { start, stop, step } => {
                if *step == 0 {
                    return Err(self.err_at(
                        ErrorKind::Value,
                        "range() step must not be zero",
                        line,
                    ));
                }
                let mut out = Vec::new();
                let mut i = *start;
                while (*step > 0 && i < *stop) || (*step < 0 && i > *stop) {
                    out.push(Value::Int(i));
                    let Some(next) = i.checked_add(*step) else {
                        break;
                    };
                    i = next;
                }
                Ok(out)
            }
            Value::Bytes(b) => Ok(b.iter().map(|&x| Value::Int(x as i64)).collect()),
            Value::Native(n) => n.iterate().ok_or_else(|| {
                self.err_at(
                    ErrorKind::Type,
                    format!("'{}' object is not iterable", n.type_name()),
                    line,
                )
            }),
            other => Err(self.err_at(
                ErrorKind::Type,
                format!("'{}' object is not iterable", other.type_name()),
                line,
            )),
        }
    }

    // ------------------------------------------------------------------
    // Operators
    // ------------------------------------------------------------------

    /// Apply a binary operator with numpy-style broadcasting over arrays.
    pub fn binop(&mut self, op: BinOp, l: &Value, r: &Value, line: u32) -> Result<Value, PyError> {
        // Vectorized paths first.
        if matches!(l, Value::Array(_)) || matches!(r, Value::Array(_)) {
            return self.array_binop(op, l, r, line);
        }
        match op {
            BinOp::Add => self.add_values(l, r, line),
            BinOp::Sub => self.numeric_binop(op, l, r, line),
            BinOp::Mul => self.mul_values(l, r, line),
            BinOp::Div | BinOp::FloorDiv | BinOp::Pow => self.numeric_binop(op, l, r, line),
            BinOp::Mod => match l {
                Value::Str(fmt) => methods::percent_format(self, fmt, r, line),
                _ => self.numeric_binop(op, l, r, line),
            },
            BinOp::BitAnd | BinOp::BitOr | BinOp::BitXor => {
                let (a, b) = match (l, r) {
                    (Value::Bool(a), Value::Bool(b)) => {
                        return Ok(Value::Bool(match op {
                            BinOp::BitAnd => *a && *b,
                            BinOp::BitOr => *a || *b,
                            _ => *a != *b,
                        }))
                    }
                    (Value::Int(a), Value::Int(b)) => (*a, *b),
                    (Value::Bool(a), Value::Int(b)) => (*a as i64, *b),
                    (Value::Int(a), Value::Bool(b)) => (*a, *b as i64),
                    _ => {
                        return Err(self.type_mismatch(op, l, r, line));
                    }
                };
                Ok(Value::Int(match op {
                    BinOp::BitAnd => a & b,
                    BinOp::BitOr => a | b,
                    _ => a ^ b,
                }))
            }
        }
    }

    fn add_values(&mut self, l: &Value, r: &Value, line: u32) -> Result<Value, PyError> {
        match (l, r) {
            (Value::Str(a), Value::Str(b)) => {
                let mut s = String::with_capacity(a.len() + b.len());
                s.push_str(a);
                s.push_str(b);
                Ok(Value::str(s))
            }
            (Value::List(a), Value::List(b)) => {
                let mut out = a.borrow().clone();
                out.extend(b.borrow().iter().cloned());
                Ok(Value::list(out))
            }
            (Value::Tuple(a), Value::Tuple(b)) => {
                let mut out = a.to_vec();
                out.extend(b.iter().cloned());
                Ok(Value::tuple(out))
            }
            _ => self.numeric_binop(BinOp::Add, l, r, line),
        }
    }

    fn mul_values(&mut self, l: &Value, r: &Value, line: u32) -> Result<Value, PyError> {
        match (l, r) {
            (Value::Str(s), Value::Int(n)) | (Value::Int(n), Value::Str(s)) => {
                Ok(Value::str(s.repeat((*n).max(0) as usize)))
            }
            (Value::List(list), Value::Int(n)) | (Value::Int(n), Value::List(list)) => {
                let items = list.borrow();
                let mut out = Vec::with_capacity(items.len() * (*n).max(0) as usize);
                for _ in 0..(*n).max(0) {
                    out.extend(items.iter().cloned());
                }
                Ok(Value::list(out))
            }
            _ => self.numeric_binop(BinOp::Mul, l, r, line),
        }
    }

    fn numeric_binop(&self, op: BinOp, l: &Value, r: &Value, line: u32) -> Result<Value, PyError> {
        let both_int = matches!(
            (l, r),
            (
                Value::Int(_) | Value::Bool(_),
                Value::Int(_) | Value::Bool(_)
            )
        );
        if both_int {
            let a = as_i64(l);
            let b = as_i64(r);
            return match op {
                BinOp::Add => a
                    .checked_add(b)
                    .map(Value::Int)
                    .ok_or_else(|| self.err_at(ErrorKind::Value, "integer overflow in +", line)),
                BinOp::Sub => a
                    .checked_sub(b)
                    .map(Value::Int)
                    .ok_or_else(|| self.err_at(ErrorKind::Value, "integer overflow in -", line)),
                BinOp::Mul => a
                    .checked_mul(b)
                    .map(Value::Int)
                    .ok_or_else(|| self.err_at(ErrorKind::Value, "integer overflow in *", line)),
                BinOp::Div => {
                    if b == 0 {
                        Err(self.err_at(ErrorKind::ZeroDivision, "division by zero", line))
                    } else {
                        Ok(Value::Float(a as f64 / b as f64))
                    }
                }
                BinOp::FloorDiv => {
                    if b == 0 {
                        Err(self.err_at(ErrorKind::ZeroDivision, "integer division by zero", line))
                    } else {
                        // i64::MIN // -1 overflows; div_euclid would panic.
                        a.checked_div_euclid(b).map(Value::Int).ok_or_else(|| {
                            self.err_at(ErrorKind::Value, "integer overflow in //", line)
                        })
                    }
                }
                BinOp::Mod => {
                    if b == 0 {
                        Err(self.err_at(ErrorKind::ZeroDivision, "modulo by zero", line))
                    } else {
                        a.checked_rem_euclid(b).map(Value::Int).ok_or_else(|| {
                            self.err_at(ErrorKind::Value, "integer overflow in %", line)
                        })
                    }
                }
                BinOp::Pow => {
                    if b >= 0 {
                        let exp = u32::try_from(b).map_err(|_| {
                            self.err_at(ErrorKind::Value, "exponent too large", line)
                        })?;
                        a.checked_pow(exp).map(Value::Int).ok_or_else(|| {
                            self.err_at(ErrorKind::Value, "integer overflow in **", line)
                        })
                    } else {
                        Ok(Value::Float((a as f64).powf(b as f64)))
                    }
                }
                _ => Err(self.type_mismatch(op, l, r, line)),
            };
        }
        let (Some(a), Some(b)) = (as_f64_opt(l), as_f64_opt(r)) else {
            return Err(self.type_mismatch(op, l, r, line));
        };
        match op {
            BinOp::Add => Ok(Value::Float(a + b)),
            BinOp::Sub => Ok(Value::Float(a - b)),
            BinOp::Mul => Ok(Value::Float(a * b)),
            BinOp::Div => {
                if b == 0.0 {
                    Err(self.err_at(ErrorKind::ZeroDivision, "float division by zero", line))
                } else {
                    Ok(Value::Float(a / b))
                }
            }
            BinOp::FloorDiv => {
                if b == 0.0 {
                    Err(self.err_at(
                        ErrorKind::ZeroDivision,
                        "float floor division by zero",
                        line,
                    ))
                } else {
                    Ok(Value::Float((a / b).floor()))
                }
            }
            BinOp::Mod => {
                if b == 0.0 {
                    Err(self.err_at(ErrorKind::ZeroDivision, "float modulo by zero", line))
                } else {
                    Ok(Value::Float(a - b * (a / b).floor()))
                }
            }
            BinOp::Pow => Ok(Value::Float(a.powf(b))),
            _ => Err(self.type_mismatch(op, l, r, line)),
        }
    }

    fn type_mismatch(&self, op: BinOp, l: &Value, r: &Value, line: u32) -> PyError {
        self.err_at(
            ErrorKind::Type,
            format!(
                "unsupported operand type(s) for {}: '{}' and '{}'",
                op.symbol(),
                l.type_name(),
                r.type_name()
            ),
            line,
        )
    }

    /// Vectorized binary operation when at least one side is an array.
    fn array_binop(
        &mut self,
        op: BinOp,
        l: &Value,
        r: &Value,
        line: u32,
    ) -> Result<Value, PyError> {
        let len = match (l, r) {
            (Value::Array(a), Value::Array(b)) => {
                if a.len() != b.len() {
                    return Err(self.err_at(
                        ErrorKind::Value,
                        format!("array length mismatch: {} vs {}", a.len(), b.len()),
                        line,
                    ));
                }
                a.len()
            }
            (Value::Array(a), _) => a.len(),
            (_, Value::Array(b)) => b.len(),
            _ => unreachable!("array_binop requires an array operand"),
        };
        // Fast numeric paths for the common cases. These must keep the same
        // checked-overflow semantics as the scalar path: a wrapping shortcut
        // here would silently disagree with `numeric_binop` (and with the
        // inlined relational plan, which the differential harness compares
        // against).
        if let (Value::Array(a), Value::Array(b)) = (l, r) {
            if let (Array::Int(x), Array::Int(y)) = (a.as_ref(), b.as_ref()) {
                let checked: Option<fn(i64, i64) -> Option<i64>> = match op {
                    BinOp::Add => Some(i64::checked_add),
                    BinOp::Sub => Some(i64::checked_sub),
                    BinOp::Mul => Some(i64::checked_mul),
                    _ => None,
                };
                if let Some(f) = checked {
                    let mut out = Vec::with_capacity(x.len());
                    for (p, q) in x.iter().zip(y) {
                        out.push(f(*p, *q).ok_or_else(|| {
                            self.err_at(
                                ErrorKind::Value,
                                format!("integer overflow in {}", op.symbol()),
                                line,
                            )
                        })?);
                    }
                    return Ok(Value::array(Array::Int(out)));
                }
            }
        }
        let mut out = Vec::with_capacity(len);
        for i in 0..len {
            let a = element_at(l, i);
            let b = element_at(r, i);
            out.push(self.binop_scalar_for_array(op, &a, &b, line)?);
        }
        Ok(Value::array(Array::from_values(&out)?))
    }

    /// Scalar op used inside array broadcasting (no nested array recursion).
    fn binop_scalar_for_array(
        &mut self,
        op: BinOp,
        l: &Value,
        r: &Value,
        line: u32,
    ) -> Result<Value, PyError> {
        match op {
            BinOp::BitAnd | BinOp::BitOr | BinOp::BitXor => match (l, r) {
                (Value::Bool(a), Value::Bool(b)) => Ok(Value::Bool(match op {
                    BinOp::BitAnd => *a && *b,
                    BinOp::BitOr => *a || *b,
                    _ => a != b,
                })),
                _ => self.binop(op, l, r, line),
            },
            _ => self.binop(op, l, r, line),
        }
    }

    pub(crate) fn array_compare(
        &mut self,
        op: CmpOp,
        l: &Value,
        r: &Value,
        line: u32,
    ) -> Result<Value, PyError> {
        let len = match (l, r) {
            (Value::Array(a), Value::Array(b)) => {
                if a.len() != b.len() {
                    return Err(self.err_at(
                        ErrorKind::Value,
                        format!("array length mismatch: {} vs {}", a.len(), b.len()),
                        line,
                    ));
                }
                a.len()
            }
            (Value::Array(a), _) => a.len(),
            (_, Value::Array(b)) => b.len(),
            _ => unreachable!(),
        };
        let mut out = Vec::with_capacity(len);
        for i in 0..len {
            let a = element_at(l, i);
            let b = element_at(r, i);
            out.push(self.compare_once(op, &a, &b, line)?);
        }
        Ok(Value::array(Array::Bool(out)))
    }

    pub(crate) fn unaryop(&mut self, op: UnaryOp, v: &Value, line: u32) -> Result<Value, PyError> {
        match op {
            UnaryOp::Not => Ok(Value::Bool(!v.truthy())),
            UnaryOp::Pos => match v {
                Value::Int(_) | Value::Float(_) | Value::Bool(_) => Ok(v.clone()),
                Value::Array(_) => Ok(v.clone()),
                other => Err(self.err_at(
                    ErrorKind::Type,
                    format!("bad operand type for unary +: '{}'", other.type_name()),
                    line,
                )),
            },
            UnaryOp::Neg => match v {
                // -i64::MIN does not fit; match the binary-op overflow errors.
                Value::Int(i) => i.checked_neg().map(Value::Int).ok_or_else(|| {
                    self.err_at(ErrorKind::Value, "integer overflow in unary -", line)
                }),
                Value::Float(f) => Ok(Value::Float(-f)),
                Value::Bool(b) => Ok(Value::Int(-(*b as i64))),
                Value::Array(a) => {
                    let out: Result<Vec<Value>, PyError> = (0..a.len())
                        .map(|i| self.unaryop(UnaryOp::Neg, &a.get(i), line))
                        .collect();
                    Ok(Value::array(Array::from_values(&out?)?))
                }
                other => Err(self.err_at(
                    ErrorKind::Type,
                    format!("bad operand type for unary -: '{}'", other.type_name()),
                    line,
                )),
            },
        }
    }

    /// Evaluate one comparison operator between two scalars.
    pub fn compare_once(
        &mut self,
        op: CmpOp,
        l: &Value,
        r: &Value,
        line: u32,
    ) -> Result<bool, PyError> {
        match op {
            CmpOp::Eq => Ok(l.py_eq(r)),
            CmpOp::NotEq => Ok(!l.py_eq(r)),
            CmpOp::Is => Ok(l.py_is(r)),
            CmpOp::IsNot => Ok(!l.py_is(r)),
            CmpOp::In => self.contains(r, l, line),
            CmpOp::NotIn => Ok(!self.contains(r, l, line)?),
            CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                let ord = self.order_values(l, r, line)?;
                Ok(match op {
                    CmpOp::Lt => ord == Ordering::Less,
                    CmpOp::Le => ord != Ordering::Greater,
                    CmpOp::Gt => ord == Ordering::Greater,
                    CmpOp::Ge => ord != Ordering::Less,
                    _ => unreachable!(),
                })
            }
        }
    }

    /// Total-order comparison used by `<`-style operators and `sorted`.
    pub fn order_values(&mut self, l: &Value, r: &Value, line: u32) -> Result<Ordering, PyError> {
        match (l, r) {
            // Exact, as in Python: through f64, 2**53 and 2**53 + 1 would tie.
            (Value::Int(a), Value::Int(b)) => Ok(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Ok(a.cmp(b)),
            (Value::List(a), Value::List(b)) => {
                let (a, b) = (a.borrow().clone(), b.borrow().clone());
                self.order_seq(&a, &b, line)
            }
            (Value::Tuple(a), Value::Tuple(b)) => {
                let (a, b) = (a.to_vec(), b.to_vec());
                self.order_seq(&a, &b, line)
            }
            _ => {
                let (Some(a), Some(b)) = (as_f64_opt(l), as_f64_opt(r)) else {
                    return Err(self.err_at(
                        ErrorKind::Type,
                        format!(
                            "'<' not supported between instances of '{}' and '{}'",
                            l.type_name(),
                            r.type_name()
                        ),
                        line,
                    ));
                };
                Ok(a.partial_cmp(&b).unwrap_or(Ordering::Equal))
            }
        }
    }

    fn order_seq(&mut self, a: &[Value], b: &[Value], line: u32) -> Result<Ordering, PyError> {
        for (x, y) in a.iter().zip(b.iter()) {
            if !x.py_eq(y) {
                return self.order_values(x, y, line);
            }
        }
        Ok(a.len().cmp(&b.len()))
    }

    fn contains(&mut self, container: &Value, item: &Value, line: u32) -> Result<bool, PyError> {
        match container {
            Value::Str(s) => match item {
                Value::Str(sub) => Ok(s.contains(sub.as_ref())),
                other => Err(self.err_at(
                    ErrorKind::Type,
                    format!("'in <string>' requires string, not '{}'", other.type_name()),
                    line,
                )),
            },
            Value::Dict(d) => d.borrow().contains(item),
            Value::List(l) => Ok(l.borrow().iter().any(|v| v.py_eq(item))),
            Value::Tuple(t) => Ok(t.iter().any(|v| v.py_eq(item))),
            Value::Range { start, stop, step } => match item {
                Value::Int(i) => {
                    if *step > 0 {
                        Ok(*i >= *start && *i < *stop && (i - start) % step == 0)
                    } else if *step < 0 {
                        Ok(*i <= *start && *i > *stop && (start - i) % (-step) == 0)
                    } else {
                        Ok(false)
                    }
                }
                _ => Ok(false),
            },
            Value::Array(a) => Ok((0..a.len()).any(|i| a.get(i).py_eq(item))),
            other => Err(self.err_at(
                ErrorKind::Type,
                format!("argument of type '{}' is not iterable", other.type_name()),
                line,
            )),
        }
    }

    /// Load a module by dotted name, consulting embedder-injected modules
    /// first and the native registry second.
    pub(crate) fn load_module(&mut self, name: &str, line: u32) -> Result<Value, PyError> {
        if let Some(v) = self.extra_modules.get(name) {
            return Ok(v.clone());
        }
        native::load_module(self, name).ok_or_else(|| {
            self.err_at(ErrorKind::Import, format!("no module named '{name}'"), line)
        })
    }
}

/// The error a statement past the budget raises.
#[cold]
fn budget_exhausted() -> PyError {
    PyError::new(
        ErrorKind::Resource,
        "statement budget exhausted (possible infinite loop)",
    )
}

/// Broadcast helper: element i of an array, or the scalar itself.
fn element_at(v: &Value, i: usize) -> Value {
    match v {
        Value::Array(a) => a.get(i),
        other => other.clone(),
    }
}

fn as_i64(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        Value::Bool(b) => *b as i64,
        _ => unreachable!("caller checked integer-ness"),
    }
}

fn as_f64_opt(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        Value::Bool(b) => Some(*b as i64 as f64),
        _ => None,
    }
}

/// Elements of `range(start, stop, step)`, computed wide so no range
/// overflows.
pub(crate) fn range_len(start: i64, stop: i64, step: i64) -> usize {
    let (start, stop, step) = (start as i128, stop as i128, step as i128);
    let n = if step > 0 {
        (stop - start + step - 1) / step
    } else if step < 0 {
        (start - stop - step - 1) / -step
    } else {
        0
    };
    n.max(0) as usize
}

/// Compute the element indices selected by a Python slice, following
/// CPython's `slice.indices()` semantics (negative bounds and steps, out of
/// range bounds clamped, never an error).
fn slice_indices(lower: Option<i64>, upper: Option<i64>, step: i64, len: usize) -> Vec<usize> {
    debug_assert_ne!(step, 0);
    let n = len as i64;
    let adjust = |v: i64| if v < 0 { v + n } else { v };
    let mut out = Vec::new();
    if step > 0 {
        let start = lower.map(adjust).unwrap_or(0).clamp(0, n);
        let stop = upper.map(adjust).unwrap_or(n).clamp(0, n);
        let mut i = start;
        while i < stop {
            out.push(i as usize);
            // A step past the i64 range ends the slice.
            let Some(next) = i.checked_add(step) else {
                break;
            };
            i = next;
        }
    } else {
        let start = lower.map(adjust).unwrap_or(n - 1).clamp(-1, n - 1);
        let stop = upper.map(adjust).unwrap_or(-1).clamp(-1, n - 1);
        let mut i = start;
        while i > stop {
            out.push(i as usize);
            let Some(next) = i.checked_add(step) else {
                break;
            };
            i = next;
        }
    }
    out
}

/// Normalize a (possibly negative) index against `len`, raising IndexError.
fn normalize_index(idx: &Value, len: usize, line: u32, interp: &Interp) -> Result<usize, PyError> {
    let i = match idx {
        Value::Int(i) => *i,
        Value::Bool(b) => *b as i64,
        other => {
            return Err(interp.err_at(
                ErrorKind::Type,
                format!("indices must be integers, not '{}'", other.type_name()),
                line,
            ))
        }
    };
    let adjusted = if i < 0 { i + len as i64 } else { i };
    if adjusted < 0 || adjusted as usize >= len {
        return Err(interp.err_at(
            ErrorKind::Index,
            format!("index {i} out of range (len {len})"),
            line,
        ));
    }
    Ok(adjusted as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Interp {
        let mut interp = Interp::new();
        interp.eval_module(src).unwrap();
        interp
    }

    fn global(interp: &Interp, name: &str) -> Value {
        interp
            .get_global(name)
            .unwrap_or_else(|| panic!("no global {name}"))
    }

    #[test]
    fn arithmetic_basics() {
        let i =
            run("a = 2 + 3 * 4\nb = (2 + 3) * 4\nc = 7 / 2\nd = 7 // 2\ne = 7 % 3\nf = 2 ** 10\n");
        assert_eq!(global(&i, "a"), Value::Int(14));
        assert_eq!(global(&i, "b"), Value::Int(20));
        assert_eq!(global(&i, "c"), Value::Float(3.5));
        assert_eq!(global(&i, "d"), Value::Int(3));
        assert_eq!(global(&i, "e"), Value::Int(1));
        assert_eq!(global(&i, "f"), Value::Int(1024));
    }

    #[test]
    fn python_mod_and_floordiv_semantics() {
        let i = run("a = -7 % 3\nb = -7 // 2\n");
        assert_eq!(global(&i, "a"), Value::Int(2));
        assert_eq!(global(&i, "b"), Value::Int(-4));
    }

    #[test]
    fn division_by_zero() {
        let mut i = Interp::new();
        let e = i.eval_module("x = 1 / 0\n").unwrap_err();
        assert_eq!(e.kind, ErrorKind::ZeroDivision);
        assert_eq!(e.innermost_line(), Some(1));
    }

    #[test]
    fn regression_floordiv_min_by_minus_one_errors_not_panics() {
        // i64::MIN // -1 used to panic inside div_euclid; it must raise the
        // same overflow error family as +/-/*.
        // The literal -9223372036854775808 cannot be lexed directly (the
        // magnitude overflows before unary minus applies), same as CPython's
        // tokenizer distinction; build MIN arithmetically.
        let mut i = Interp::new();
        let e = i
            .eval_module("m = -9223372036854775807 - 1\nx = m // -1\n")
            .unwrap_err();
        assert_eq!(e.kind, ErrorKind::Value);
        assert_eq!(e.message, "integer overflow in //");
        assert_eq!(e.innermost_line(), Some(2));
        let e = i
            .eval_module("m = -9223372036854775807 - 1\nx = m % -1\n")
            .unwrap_err();
        assert_eq!(e.kind, ErrorKind::Value);
        assert_eq!(e.message, "integer overflow in %");
    }

    #[test]
    fn regression_unary_neg_min_errors_not_panics() {
        let mut i = Interp::new();
        i.set_global("m", Value::Int(i64::MIN));
        let e = i.eval_module("x = -m\n").unwrap_err();
        assert_eq!(e.kind, ErrorKind::Value);
        assert_eq!(e.message, "integer overflow in unary -");
    }

    #[test]
    fn regression_array_fast_path_checks_overflow_like_scalar_path() {
        // The Int x Int array fast path used wrapping_add/sub/mul while the
        // scalar path raised "integer overflow in +": a silent divergence.
        for op in ["+", "-", "*"] {
            let mut i = Interp::new();
            let big = if op == "-" { i64::MIN } else { i64::MAX };
            i.set_global("a", Value::array(Array::Int(vec![big, 1])));
            let other = if op == "*" { 2 } else { 1 };
            i.set_global("b", Value::array(Array::Int(vec![other, 1])));
            let e = i.eval_module(&format!("c = a {op} b\n")).unwrap_err();
            assert_eq!(e.kind, ErrorKind::Value, "op {op}");
            assert_eq!(e.message, format!("integer overflow in {op}"));
            assert_eq!(e.innermost_line(), Some(1));
        }
        // Non-overflowing arrays still take the fast path and agree.
        let mut i = Interp::new();
        i.set_global("a", Value::array(Array::Int(vec![1, 2])));
        i.set_global("b", Value::array(Array::Int(vec![3, 4])));
        i.eval_module("c = a + b\n").unwrap();
        let Value::Array(arr) = global(&i, "c") else {
            panic!("expected array")
        };
        assert_eq!(arr.as_ref(), &Array::Int(vec![4, 6]));
    }

    #[test]
    fn string_ops() {
        let i = run("a = 'foo' + 'bar'\nb = 'ab' * 3\nc = 'x' in 'xyz'\n");
        assert_eq!(global(&i, "a"), Value::str("foobar"));
        assert_eq!(global(&i, "b"), Value::str("ababab"));
        assert_eq!(global(&i, "c"), Value::Bool(true));
    }

    #[test]
    fn functions_and_returns() {
        let i = run(
            "def add(a, b=10):\n    return a + b\nx = add(1, 2)\ny = add(5)\nz = add(b=1, a=2)\n",
        );
        assert_eq!(global(&i, "x"), Value::Int(3));
        assert_eq!(global(&i, "y"), Value::Int(15));
        assert_eq!(global(&i, "z"), Value::Int(3));
    }

    #[test]
    fn recursion() {
        let i = run("def fib(n):\n    if n < 2:\n        return n\n    return fib(n-1) + fib(n-2)\nx = fib(15)\n");
        assert_eq!(global(&i, "x"), Value::Int(610));
    }

    #[test]
    fn recursion_limit() {
        let mut i = Interp::new();
        let e = i
            .eval_module("def f():\n    return f()\nf()\n")
            .unwrap_err();
        assert_eq!(e.kind, ErrorKind::Resource);
    }

    #[test]
    fn while_loop_with_break_continue() {
        let i = run("total = 0\ni = 0\nwhile True:\n    i += 1\n    if i > 10:\n        break\n    if i % 2 == 0:\n        continue\n    total += i\n");
        assert_eq!(global(&i, "total"), Value::Int(25));
    }

    #[test]
    fn for_over_range_and_list() {
        let i = run(
            "s = 0\nfor i in range(5):\n    s += i\nt = 0\nfor x in [10, 20, 30]:\n    t += x\n",
        );
        assert_eq!(global(&i, "s"), Value::Int(10));
        assert_eq!(global(&i, "t"), Value::Int(60));
    }

    #[test]
    fn range_three_arg_and_negative_step() {
        let i = run("a = []\nfor i in range(10, 0, -3):\n    a.append(i)\n");
        assert_eq!(
            global(&i, "a"),
            Value::list(vec![
                Value::Int(10),
                Value::Int(7),
                Value::Int(4),
                Value::Int(1)
            ])
        );
    }

    /// A range or slice whose next step would pass the i64 limit ends
    /// there instead of wrapping around, on both engines and in the VM's
    /// loop kernel, and a range wider than the i64 span has its exact
    /// length.
    #[test]
    fn ranges_at_the_i64_limit_end_instead_of_wrapping() {
        let src = "n = 0\nfor i in range(9223372036854775800, 9223372036854775807, 3):\n    n += 1\nm = []\nfor i in range(-9223372036854775803, -9223372036854775807 - 1, -2):\n    m.append(i)\nk = len(range(-9223372036854775807, 9223372036854775807, 4))\nv = list(range(9223372036854775806, 9223372036854775807, 5))\ns = [1, 2, 3][1::9223372036854775807]\nt = [1, 2, 3][::-9223372036854775807]\n";
        for mode in [ExecMode::Ast, ExecMode::Bytecode] {
            let mut i = Interp::new();
            i.set_exec_mode(mode);
            i.set_step_budget(1_000);
            i.eval_module(src).unwrap();
            assert_eq!(global(&i, "n"), Value::Int(3), "{mode}");
            assert_eq!(global(&i, "i"), Value::Int(-9223372036854775807), "{mode}");
            assert_eq!(
                global(&i, "m").repr(),
                "[-9223372036854775803, -9223372036854775805, -9223372036854775807]",
                "{mode}"
            );
            assert_eq!(global(&i, "k"), Value::Int(4611686018427387904), "{mode}");
            assert_eq!(global(&i, "v").repr(), "[9223372036854775806]", "{mode}");
            assert_eq!(global(&i, "s").repr(), "[2]", "{mode}");
            assert_eq!(global(&i, "t").repr(), "[3]", "{mode}");
        }
    }

    #[test]
    fn tuple_unpacking() {
        let i =
            run("a, b = 1, 2\n(c, d) = (b, a)\nfor k, v in [(1, 'x'), (2, 'y')]:\n    last = v\n");
        assert_eq!(global(&i, "c"), Value::Int(2));
        assert_eq!(global(&i, "d"), Value::Int(1));
        assert_eq!(global(&i, "last"), Value::str("y"));
    }

    #[test]
    fn list_and_dict_operations() {
        let i = run("l = [1, 2]\nl.append(3)\nl[0] = 99\nd = {'a': 1}\nd['b'] = 2\nx = d['a'] + d['b'] + l[0]\n");
        assert_eq!(global(&i, "x"), Value::Int(102));
    }

    #[test]
    fn scoping_locals_do_not_leak() {
        let mut i = Interp::new();
        i.eval_module("def f():\n    inner = 42\n    return inner\nx = f()\n")
            .unwrap();
        assert_eq!(i.get_global("x"), Some(Value::Int(42)));
        assert_eq!(i.get_global("inner"), None);
    }

    #[test]
    fn global_statement() {
        let i = run("g = 1\ndef bump():\n    global g\n    g = g + 1\nbump()\nbump()\n");
        assert_eq!(global(&i, "g"), Value::Int(3));
    }

    #[test]
    fn closures_capture_enclosing_scope() {
        let i = run("def outer():\n    x = 10\n    def inner():\n        return x + 1\n    return inner()\nr = outer()\n");
        assert_eq!(global(&i, "r"), Value::Int(11));
    }

    #[test]
    fn lambda_and_sorted_with_key() {
        let i = run("pairs = [(2, 'b'), (1, 'a'), (3, 'c')]\ns = sorted(pairs, key=lambda p: p[0])\nfirst = s[0][1]\n");
        assert_eq!(global(&i, "first"), Value::str("a"));
    }

    #[test]
    fn name_error_with_line() {
        let mut i = Interp::new();
        let e = i.eval_module("x = 1\ny = missing\n").unwrap_err();
        assert_eq!(e.kind, ErrorKind::Name);
        assert_eq!(e.innermost_line(), Some(2));
    }

    #[test]
    fn traceback_spans_call_chain() {
        let mut i = Interp::new();
        let e = i
            .eval_module(
                "def inner():\n    return 1 / 0\ndef outer():\n    return inner()\nouter()\n",
            )
            .unwrap_err();
        let names: Vec<&str> = e.traceback.iter().map(|t| t.function.as_str()).collect();
        assert!(names.contains(&"inner"));
        assert!(names.contains(&"outer"));
    }

    #[test]
    fn try_except_catches_matching_class() {
        let i = run("try:\n    x = 1 / 0\nexcept ZeroDivisionError:\n    x = -1\n");
        assert_eq!(global(&i, "x"), Value::Int(-1));
    }

    #[test]
    fn try_except_skips_non_matching() {
        let mut i = Interp::new();
        let e = i
            .eval_module("try:\n    x = 1 / 0\nexcept ValueError:\n    x = -1\n")
            .unwrap_err();
        assert_eq!(e.kind, ErrorKind::ZeroDivision);
    }

    #[test]
    fn finally_always_runs() {
        let i = run("log = []\ntry:\n    log.append(1)\nexcept:\n    log.append(2)\nfinally:\n    log.append(3)\n");
        assert_eq!(
            global(&i, "log"),
            Value::list(vec![Value::Int(1), Value::Int(3)])
        );
    }

    #[test]
    fn raise_and_catch_user_exception() {
        let i = run("try:\n    raise ValueError('bad input')\nexcept ValueError as msg:\n    caught = msg\n");
        assert_eq!(global(&i, "caught"), Value::str("bad input"));
    }

    #[test]
    fn assert_statement() {
        let mut i = Interp::new();
        let e = i
            .eval_module("assert 1 == 2, 'math is broken'\n")
            .unwrap_err();
        assert_eq!(e.kind, ErrorKind::Assertion);
        assert_eq!(e.message, "math is broken");
        assert!(i.eval_module("assert 1 == 1\n").is_ok());
    }

    #[test]
    fn list_comprehension() {
        let i = run(
            "squares = [x * x for x in range(5)]\nevens = [x for x in range(10) if x % 2 == 0]\n",
        );
        assert_eq!(
            global(&i, "squares"),
            Value::list(vec![
                Value::Int(0),
                Value::Int(1),
                Value::Int(4),
                Value::Int(9),
                Value::Int(16)
            ])
        );
        assert_eq!(i.value_len(&global(&i, "evens"), 0).unwrap(), 5);
    }

    #[test]
    fn ternary_expression() {
        let i = run("x = 'big' if 10 > 5 else 'small'\n");
        assert_eq!(global(&i, "x"), Value::str("big"));
    }

    #[test]
    fn chained_comparison_evaluates() {
        let i = run("a = 1 < 2 < 3\nb = 1 < 2 > 5\n");
        assert_eq!(global(&i, "a"), Value::Bool(true));
        assert_eq!(global(&i, "b"), Value::Bool(false));
    }

    #[test]
    fn boolop_short_circuit_returns_operand() {
        let i = run("a = 0 or 'fallback'\nb = 1 and 'taken'\nc = None and crash_if_evaluated\n");
        assert_eq!(global(&i, "a"), Value::str("fallback"));
        assert_eq!(global(&i, "b"), Value::str("taken"));
        assert_eq!(global(&i, "c"), Value::None);
    }

    #[test]
    fn slicing() {
        let i = run("l = [0, 1, 2, 3, 4, 5]\na = l[1:3]\nb = l[:2]\nc = l[3:]\nd = l[::2]\ns = 'hello'[1:4]\nn = l[-2]\n");
        assert_eq!(
            global(&i, "a"),
            Value::list(vec![Value::Int(1), Value::Int(2)])
        );
        assert_eq!(i.value_len(&global(&i, "b"), 0).unwrap(), 2);
        assert_eq!(i.value_len(&global(&i, "c"), 0).unwrap(), 3);
        assert_eq!(i.value_len(&global(&i, "d"), 0).unwrap(), 3);
        assert_eq!(global(&i, "s"), Value::str("ell"));
        assert_eq!(global(&i, "n"), Value::Int(4));
    }

    #[test]
    fn negative_step_slicing() {
        let i = run("l = [0, 1, 2, 3, 4]\nr = l[::-1]\ns = 'hello'[::-1]\nt = l[3:0:-1]\nu = l[::-2]\ne = l[1:3:-1]\n");
        assert_eq!(
            global(&i, "r"),
            Value::list(vec![
                Value::Int(4),
                Value::Int(3),
                Value::Int(2),
                Value::Int(1),
                Value::Int(0)
            ])
        );
        assert_eq!(global(&i, "s"), Value::str("olleh"));
        assert_eq!(
            global(&i, "t"),
            Value::list(vec![Value::Int(3), Value::Int(2), Value::Int(1)])
        );
        assert_eq!(
            global(&i, "u"),
            Value::list(vec![Value::Int(4), Value::Int(2), Value::Int(0)])
        );
        assert_eq!(global(&i, "e"), Value::list(vec![]));
    }

    #[test]
    fn slice_bounds_clamp_like_python() {
        let i =
            run("l = [0, 1, 2]\na = l[-100:100]\nb = l[5:9]\nc = l[-100::-1]\nd = l[2:-100:-1]\n");
        assert_eq!(i.value_len(&global(&i, "a"), 0).unwrap(), 3);
        assert_eq!(i.value_len(&global(&i, "b"), 0).unwrap(), 0);
        assert_eq!(i.value_len(&global(&i, "c"), 0).unwrap(), 0);
        assert_eq!(
            global(&i, "d"),
            Value::list(vec![Value::Int(2), Value::Int(1), Value::Int(0)])
        );
    }

    #[test]
    fn zero_slice_step_errors() {
        let mut i = Interp::new();
        let e = i.eval_module("x = [1, 2][::0]\n").unwrap_err();
        assert_eq!(e.kind, ErrorKind::Value);
    }

    #[test]
    fn array_vectorized_arithmetic() {
        let mut i = Interp::new();
        i.set_global("col", Value::array(Array::Int(vec![1, 2, 3, 4])));
        i.eval_module(
            "doubled = col * 2\nshifted = col + 10\nmask = col > 2\nfiltered = col[mask]\n",
        )
        .unwrap();
        assert_eq!(
            global(&i, "doubled"),
            Value::array(Array::Int(vec![2, 4, 6, 8]))
        );
        assert_eq!(
            global(&i, "mask"),
            Value::array(Array::Bool(vec![false, false, true, true]))
        );
        assert_eq!(global(&i, "filtered"), Value::array(Array::Int(vec![3, 4])));
    }

    #[test]
    fn array_equality_comparison_is_elementwise() {
        let mut i = Interp::new();
        i.set_global("a", Value::array(Array::Int(vec![1, 2, 3])));
        i.set_global("b", Value::array(Array::Int(vec![1, 9, 3])));
        i.eval_module("eq = a == b\n").unwrap();
        assert_eq!(
            global(&i, "eq"),
            Value::array(Array::Bool(vec![true, false, true]))
        );
    }

    #[test]
    fn step_budget_stops_infinite_loop() {
        let mut i = Interp::new();
        i.set_step_budget(1000);
        let e = i.eval_module("while True:\n    pass\n").unwrap_err();
        assert_eq!(e.kind, ErrorKind::Resource);
    }

    /// The budget fails the (N+1)-th statement the same way in both
    /// engines, with and without a debugger attached: the same error at
    /// the same line after the same bindings, and the same statement
    /// count for `pylite.statements`.
    #[test]
    fn step_budget_exhausts_at_the_same_statement_everywhere() {
        let src = "def f(n):\n    t = 0\n    for k in range(n):\n        t += k\n    return t\nx = 0\nwhile True:\n    x += f(3)\n";
        for budget in [0, 1, 4, 9, 10, 11, 12, 13, 14, 50] {
            let mut runs = Vec::new();
            for mode in [ExecMode::Ast, ExecMode::Bytecode] {
                for debugger in [false, true] {
                    let mut i = Interp::new();
                    i.set_exec_mode(mode);
                    if debugger {
                        let dbg = Debugger::scripted(vec![]);
                        dbg.borrow_mut().add_breakpoint(4);
                        i.set_hook(dbg);
                    }
                    i.set_step_budget(budget);
                    let e = i.eval_module(src).unwrap_err();
                    assert_eq!(e.kind, ErrorKind::Resource);
                    assert_eq!(i.stmts_executed, budget + 1);
                    runs.push((e.to_string(), e.traceback, i.get_global("x")));
                }
            }
            assert!(
                runs.iter().all(|r| *r == runs[0]),
                "budget {budget}: {runs:?}"
            );
        }
    }

    #[test]
    fn module_return_value_surfaces() {
        let mut i = Interp::new();
        let v = i.eval_module("x = 21\nreturn x * 2\n").unwrap();
        assert_eq!(v, Value::Int(42));
    }

    #[test]
    fn semicolons_and_single_line_ifs() {
        let i = run("a = 1; b = 2\nif a < b: winner = 'b'\n");
        assert_eq!(global(&i, "winner"), Value::str("b"));
    }

    #[test]
    fn del_statement() {
        let mut i = Interp::new();
        i.eval_module("x = 1\ndel x\nl = [1, 2, 3]\ndel l[1]\nd = {'k': 1}\ndel d['k']\n")
            .unwrap();
        assert_eq!(i.get_global("x"), None);
        assert_eq!(i.value_len(&i.get_global("l").unwrap(), 0).unwrap(), 2);
        assert_eq!(i.value_len(&i.get_global("d").unwrap(), 0).unwrap(), 0);
    }

    #[test]
    fn negative_index_and_index_errors() {
        let mut i = Interp::new();
        let e = i.eval_module("l = [1]\nx = l[5]\n").unwrap_err();
        assert_eq!(e.kind, ErrorKind::Index);
        let e = i.eval_module("d = {}\nx = d['missing']\n").unwrap_err();
        assert_eq!(e.kind, ErrorKind::Key);
    }

    #[test]
    fn aug_assign_on_subscript() {
        let i = run("l = [1, 2]\nl[0] += 10\nd = {'k': 5}\nd['k'] *= 2\n");
        if let Value::List(l) = global(&i, "l") {
            assert_eq!(l.borrow()[0], Value::Int(11));
        } else {
            panic!("not a list");
        }
    }

    #[test]
    fn print_captures_output() {
        let mut i = Interp::new();
        i.eval_module("print('hello', 42)\nprint('next')\n")
            .unwrap();
        assert_eq!(i.stdout(), "hello 42\nnext\n");
    }

    #[test]
    fn listing4_buggy_mean_deviation_runs_and_is_wrong() {
        // Scenario A: the paper's buggy UDF (missing abs) returns ~0 on
        // symmetric data, while the correct answer is positive.
        let src = "\
def mean_deviation(column):
    mean = 0
    for i in range(0, len(column)):
        mean += column[i]
    mean = mean / len(column)
    distance = 0
    for i in range(0, len(column)):
        distance += column[i] - mean
    deviation = distance / len(column)
    return deviation
result = mean_deviation([1, 2, 3, 4, 5])
";
        let mut i = Interp::new();
        i.eval_module(src).unwrap();
        match global(&i, "result") {
            Value::Float(f) => assert!(f.abs() < 1e-9, "buggy version sums to ~0, got {f}"),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn eval_in_frame_sees_globals() {
        let mut i = Interp::new();
        i.eval_module("x = 41\n").unwrap();
        let expr = crate::parser::parse_expression("x + 1").unwrap();
        let v = i.eval_in_frame(&expr).unwrap();
        assert_eq!(v, Value::Int(42));
    }

    /// The line profiler's hit counts are the VM's executed-line ground
    /// truth: running the same branching body (EXPERIMENTS Scenario B)
    /// under the bytecode VM and the AST walker must report identical
    /// per-line hits, and the branch lines must match the inputs.
    #[test]
    fn line_profiler_vm_and_walker_agree_on_hits() {
        let _serial = obs::metrics::test_lock();
        obs::set_enabled(true);
        // The profile store is process-global and the profiler switch
        // arms every concurrently running interpreter, so assert only on
        // a function name no other test defines.
        let src = "def clamp_profile_probe(column):\n    score = column * 3 + 7\n    if score > 500:\n        return 500.0\n    elif score < 50:\n        return score / 2\n    return score * 1.0\nx = clamp_profile_probe(column)\n";
        let mut per_mode = Vec::new();
        let mut ns_totals = Vec::new();
        for mode in [ExecMode::Bytecode, ExecMode::Ast] {
            obs::profile::reset();
            obs::profile::set_active(true);
            let mut interp = Interp::new();
            interp.set_exec_mode(mode);
            // One clamp-high input, one clamp-low, one fall-through.
            for column in [200i64, 10, 50] {
                interp.reset();
                interp.set_global("column", Value::Int(column));
                interp.eval_module(src).unwrap();
            }
            obs::profile::set_active(false);
            let rows: Vec<_> = obs::profile::rows()
                .into_iter()
                .filter(|r| r.func == "clamp_profile_probe")
                .collect();
            ns_totals.push(rows.iter().map(|r| r.ns).sum::<u64>());
            per_mode.push(
                rows.into_iter()
                    .map(|r| (r.func, r.line, r.hits))
                    .collect::<Vec<_>>(),
            );
        }
        obs::profile::reset();
        assert_eq!(
            per_mode[0], per_mode[1],
            "VM and walker line hits must agree"
        );
        let hits = |line: u32| {
            per_mode[0]
                .iter()
                .find(|(_, l, _)| *l == line)
                .map(|(_, _, h)| *h)
                .unwrap_or(0)
        };
        assert_eq!(hits(2), 3, "first body line runs every invocation");
        assert_eq!(hits(4), 1, "clamp-high branch taken once");
        assert_eq!(hits(6), 1, "clamp-low branch taken once");
        assert_eq!(hits(7), 1, "fall-through return taken once");
        assert!(ns_totals.iter().all(|&ns| ns > 0), "{ns_totals:?}");
    }

    #[test]
    fn profiler_attributes_module_lines_to_module_scope() {
        let _serial = obs::metrics::test_lock();
        obs::set_enabled(true);
        obs::profile::reset();
        obs::profile::set_active(true);
        let mut interp = Interp::new();
        interp
            .eval_module("def f():\n    return 1\nx = f()\n")
            .unwrap();
        obs::profile::set_active(false);
        let rows = obs::profile::rows();
        obs::profile::reset();
        assert!(
            rows.iter().any(|r| r.func == "<module>" && r.line == 3),
            "{rows:?}"
        );
        assert!(
            rows.iter().any(|r| r.func == "f" && r.line == 2),
            "{rows:?}"
        );
    }
}
