//! Interactive debugger: breakpoints, stepping, pausing and inspection.
//!
//! This is the reproduction of the paper's headline feature — "sophisticated
//! interactive debugging techniques, such as stepping through the code line
//! by line and pausing code execution" (§1) applied to UDFs running locally
//! on the developer's machine (§2.1).
//!
//! # Architecture
//!
//! The interpreter consults a [`DebugHook`] before executing every statement.
//! [`Debugger`] is the standard hook: it decides *when* to pause (breakpoint
//! hit, step completed, or explicit pause request) and then hands control to
//! a *controller* — a callback that receives a [`PauseInfo`] snapshot (stack,
//! locals, line) and answers with a [`DebugCommand`]. A CLI controller reads
//! commands from the user; test controllers replay a scripted command list.
//!
//! ```
//! use pylite::{Debugger, DebugCommand, Interp};
//! use std::cell::RefCell;
//! use std::rc::Rc;
//!
//! let mut interp = Interp::new();
//! let dbg = Debugger::with_controller(|pause| {
//!     // Pause once at line 2, look at `x`, then continue.
//!     assert_eq!(pause.line, 2);
//!     assert!(pause.locals.iter().any(|(n, v)| n == "x" && v == "1"));
//!     DebugCommand::Continue
//! });
//! dbg.borrow_mut().add_breakpoint(2);
//! interp.set_hook(dbg.clone());
//! interp.eval_module("x = 1\ny = x + 1\n").unwrap();
//! assert_eq!(dbg.borrow().pause_count(), 1);
//! ```

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use crate::error::PyError;
use crate::interp::Interp;

/// What the interpreter should do after a hook ran.
pub enum HookOutcome {
    /// Keep executing.
    Continue,
    /// Abort execution (debugger "quit").
    Terminate,
}

/// Hook consulted by the interpreter around statement execution.
pub trait DebugHook {
    /// Called before each statement. `function` is the enclosing function
    /// name, `line` the 1-based source line.
    fn on_statement(
        &mut self,
        interp: &mut Interp,
        function: &str,
        line: u32,
    ) -> Result<HookOutcome, PyError>;

    /// Called when a function frame is pushed.
    fn on_call(&mut self, function: &str, line: u32) {
        let _ = (function, line);
    }

    /// Called when a function frame is popped.
    fn on_return(&mut self, function: &str) {
        let _ = function;
    }
}

/// Command returned by a debugger controller at a pause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DebugCommand {
    /// Run until the next breakpoint.
    Continue,
    /// Execute one statement, stepping *into* calls.
    StepInto,
    /// Execute one statement, stepping *over* calls.
    StepOver,
    /// Run until the current function returns.
    StepOut,
    /// Abort execution.
    Quit,
}

/// Snapshot handed to the controller at each pause.
#[derive(Debug, Clone)]
pub struct PauseInfo {
    /// Why the debugger paused.
    pub reason: PauseReason,
    /// Function containing the next statement.
    pub function: String,
    /// 1-based line of the next statement.
    pub line: u32,
    /// Call stack, outermost first, as (function, line).
    pub stack: Vec<(String, u32)>,
    /// Innermost frame locals as (name, repr), sorted by name.
    pub locals: Vec<(String, String)>,
    /// Values of registered watch expressions as (expr, result-or-error).
    pub watches: Vec<(String, String)>,
}

/// Why a pause happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PauseReason {
    Breakpoint,
    Step,
    /// First statement when `break_on_entry` is set.
    Entry,
    /// An explicit [`Debugger::request_pause`] (the IDE pause button).
    Requested,
}

enum StepMode {
    /// Only stop at breakpoints.
    Run,
    /// Stop at the next statement regardless of depth.
    Into,
    /// Stop at the next statement at depth <= the recorded depth.
    Over(usize),
    /// Stop at the next statement at depth < the recorded depth.
    Out(usize),
}

type Controller = Box<dyn FnMut(&PauseInfo) -> DebugCommand>;

/// The standard interactive debugger hook.
pub struct Debugger {
    breakpoints: BTreeSet<u32>,
    /// line → condition expression; pauses only when it evaluates truthy.
    conditional: Vec<(u32, String)>,
    watches: Vec<String>,
    mode: StepMode,
    depth: usize,
    /// Pause before the very first statement (like an IDE "Debug" button).
    pub break_on_entry: bool,
    /// One-shot pause request (the IDE pause button, §1 "pausing code
    /// execution"); consumed at the next statement boundary.
    pause_requested: bool,
    controller: Controller,
    pauses: Vec<PauseInfo>,
    /// Statements executed while this hook was installed.
    statements: u64,
}

impl Debugger {
    /// Create a debugger wrapped for installation via [`Interp::set_hook`].
    pub fn with_controller(
        controller: impl FnMut(&PauseInfo) -> DebugCommand + 'static,
    ) -> Rc<RefCell<Debugger>> {
        Rc::new(RefCell::new(Debugger {
            breakpoints: BTreeSet::new(),
            conditional: Vec::new(),
            watches: Vec::new(),
            mode: StepMode::Run,
            depth: 0,
            break_on_entry: false,
            pause_requested: false,
            controller: Box::new(controller),
            pauses: Vec::new(),
            statements: 0,
        }))
    }

    /// Create a debugger that replays a fixed command script; once the
    /// script is exhausted it continues.
    pub fn scripted(commands: Vec<DebugCommand>) -> Rc<RefCell<Debugger>> {
        let queue = RefCell::new(commands.into_iter());
        Self::with_controller(move |_pause| {
            queue.borrow_mut().next().unwrap_or(DebugCommand::Continue)
        })
    }

    /// Set a breakpoint on a 1-based source line.
    pub fn add_breakpoint(&mut self, line: u32) {
        self.breakpoints.insert(line);
    }

    /// Remove a breakpoint.
    pub fn remove_breakpoint(&mut self, line: u32) {
        self.breakpoints.remove(&line);
        self.conditional.retain(|(l, _)| *l != line);
    }

    /// Set a conditional breakpoint: pause at `line` only when `condition`
    /// (a Python expression over the paused frame) is truthy. Evaluation
    /// errors never pause (a condition referencing a not-yet-bound name is
    /// simply not met yet).
    pub fn add_conditional_breakpoint(&mut self, line: u32, condition: impl Into<String>) {
        self.conditional.push((line, condition.into()));
    }

    /// Current breakpoints, sorted.
    pub fn breakpoints(&self) -> Vec<u32> {
        self.breakpoints.iter().copied().collect()
    }

    /// Request a pause at the next statement boundary (the paper's
    /// "pausing code execution"). Safe to call from a controller callback
    /// or between runs; consumed once.
    pub fn request_pause(&mut self) {
        self.pause_requested = true;
    }

    /// Register a watch expression evaluated at every pause.
    pub fn add_watch(&mut self, expr: impl Into<String>) {
        self.watches.push(expr.into());
    }

    /// All pauses recorded so far.
    pub fn pauses(&self) -> &[PauseInfo] {
        &self.pauses
    }

    /// Number of pauses so far.
    pub fn pause_count(&self) -> usize {
        self.pauses.len()
    }

    fn should_pause(&mut self, line: u32) -> Option<PauseReason> {
        if self.pause_requested {
            self.pause_requested = false;
            return Some(PauseReason::Requested);
        }
        if self.break_on_entry && self.statements == 0 {
            return Some(PauseReason::Entry);
        }
        match self.mode {
            StepMode::Into => return Some(PauseReason::Step),
            StepMode::Over(depth) if self.depth <= depth => return Some(PauseReason::Step),
            StepMode::Out(depth) if self.depth < depth => return Some(PauseReason::Step),
            _ => {}
        }
        if self.breakpoints.contains(&line) {
            return Some(PauseReason::Breakpoint);
        }
        None
    }

    /// Evaluate conditional breakpoints for `line` against the live frame.
    fn conditional_hit(&self, interp: &mut Interp, line: u32) -> bool {
        self.conditional
            .iter()
            .filter(|(l, _)| *l == line)
            .any(|(_, cond)| {
                interp
                    .eval_in_frame(cond)
                    .map(|v| v.truthy())
                    .unwrap_or(false)
            })
    }
}

impl DebugHook for Debugger {
    fn on_statement(
        &mut self,
        interp: &mut Interp,
        function: &str,
        line: u32,
    ) -> Result<HookOutcome, PyError> {
        let mut reason = self.should_pause(line);
        if reason.is_none() && self.conditional_hit(interp, line) {
            reason = Some(PauseReason::Breakpoint);
        }
        self.statements += 1;
        let Some(reason) = reason else {
            return Ok(HookOutcome::Continue);
        };
        obs::counter!("pylite.debug.pauses").inc();
        match reason {
            PauseReason::Breakpoint => obs::counter!("pylite.debug.breakpoints").inc(),
            PauseReason::Step => obs::counter!("pylite.debug.steps").inc(),
            _ => {}
        }

        let mut watches = Vec::with_capacity(self.watches.len());
        for expr in &self.watches {
            let rendered = match interp.eval_in_frame(expr) {
                Ok(v) => v.repr(),
                Err(e) => format!("<error: {e}>"),
            };
            watches.push((expr.clone(), rendered));
        }
        let info = PauseInfo {
            reason,
            function: function.to_string(),
            line,
            stack: interp.stack(),
            locals: interp.locals_snapshot(),
            watches,
        };
        let command = (self.controller)(&info);
        self.pauses.push(info);
        match command {
            DebugCommand::Continue => {
                self.mode = StepMode::Run;
                Ok(HookOutcome::Continue)
            }
            DebugCommand::StepInto => {
                self.mode = StepMode::Into;
                Ok(HookOutcome::Continue)
            }
            DebugCommand::StepOver => {
                self.mode = StepMode::Over(self.depth);
                Ok(HookOutcome::Continue)
            }
            DebugCommand::StepOut => {
                self.mode = StepMode::Out(self.depth);
                Ok(HookOutcome::Continue)
            }
            DebugCommand::Quit => Ok(HookOutcome::Terminate),
        }
    }

    fn on_call(&mut self, _function: &str, _line: u32) {
        self.depth += 1;
    }

    fn on_return(&mut self, _function: &str) {
        self.depth = self.depth.saturating_sub(1);
    }
}

/// A lightweight hook that records every (function, line) executed.
///
/// Useful for coverage-style assertions in tests and for measuring hook
/// overhead in benchmarks.
#[derive(Default)]
pub struct LineTracer {
    /// Executed (function, line) pairs in order.
    pub trace: Vec<(String, u32)>,
}

impl LineTracer {
    pub fn new() -> Rc<RefCell<LineTracer>> {
        Rc::new(RefCell::new(LineTracer::default()))
    }
}

impl DebugHook for LineTracer {
    fn on_statement(
        &mut self,
        _interp: &mut Interp,
        function: &str,
        line: u32,
    ) -> Result<HookOutcome, PyError> {
        self.trace.push((function.to_string(), line));
        Ok(HookOutcome::Continue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROGRAM: &str = "\
def helper(v):
    doubled = v * 2
    return doubled
total = 0
for i in range(3):
    total = total + helper(i)
final = total
";

    #[test]
    fn breakpoint_pauses_with_locals() {
        let mut interp = Interp::new();
        let dbg = Debugger::scripted(vec![
            DebugCommand::Continue,
            DebugCommand::Continue,
            DebugCommand::Continue,
        ]);
        dbg.borrow_mut().add_breakpoint(2); // inside helper
        interp.set_hook(dbg.clone());
        interp.eval_module(PROGRAM).unwrap();
        let d = dbg.borrow();
        assert_eq!(d.pause_count(), 3, "helper is called three times");
        let first = &d.pauses()[0];
        assert_eq!(first.function, "helper");
        assert_eq!(first.line, 2);
        assert!(first.locals.iter().any(|(n, v)| n == "v" && v == "0"));
        assert_eq!(first.reason, PauseReason::Breakpoint);
    }

    #[test]
    fn step_into_descends_into_calls() {
        let mut interp = Interp::new();
        // Break at the call line, then step into the helper.
        let dbg = Debugger::scripted(vec![DebugCommand::StepInto, DebugCommand::Continue]);
        dbg.borrow_mut().add_breakpoint(6);
        interp.set_hook(dbg.clone());
        interp.eval_module(PROGRAM).unwrap();
        let d = dbg.borrow();
        assert!(d.pause_count() >= 2);
        assert_eq!(d.pauses()[0].line, 6);
        assert_eq!(d.pauses()[1].function, "helper");
        assert_eq!(d.pauses()[1].line, 2);
    }

    #[test]
    fn step_over_stays_in_caller() {
        let mut interp = Interp::new();
        let dbg = Debugger::scripted(vec![DebugCommand::StepOver, DebugCommand::Continue]);
        dbg.borrow_mut().add_breakpoint(6);
        interp.set_hook(dbg.clone());
        interp.eval_module(PROGRAM).unwrap();
        let d = dbg.borrow();
        // Second pause must not be inside helper.
        assert!(d.pause_count() >= 2);
        assert_ne!(d.pauses()[1].function, "helper");
    }

    #[test]
    fn step_out_returns_to_caller() {
        let mut interp = Interp::new();
        let dbg = Debugger::scripted(vec![DebugCommand::StepOut, DebugCommand::Continue]);
        dbg.borrow_mut().add_breakpoint(2);
        interp.set_hook(dbg.clone());
        interp.eval_module(PROGRAM).unwrap();
        let d = dbg.borrow();
        assert!(d.pause_count() >= 2);
        assert_eq!(d.pauses()[0].function, "helper");
        assert_ne!(d.pauses()[1].function, "helper");
    }

    #[test]
    fn quit_terminates_execution() {
        let mut interp = Interp::new();
        let dbg = Debugger::scripted(vec![DebugCommand::Quit]);
        dbg.borrow_mut().add_breakpoint(4);
        interp.set_hook(dbg.clone());
        let err = interp.eval_module(PROGRAM).unwrap_err();
        assert!(err.message.contains("terminated"));
        // `final` never executed.
        assert_eq!(interp.get_global("final"), None);
    }

    #[test]
    fn break_on_entry_pauses_immediately() {
        let mut interp = Interp::new();
        let dbg = Debugger::scripted(vec![DebugCommand::Continue]);
        dbg.borrow_mut().break_on_entry = true;
        interp.set_hook(dbg.clone());
        interp.eval_module("x = 1\ny = 2\n").unwrap();
        let d = dbg.borrow();
        assert_eq!(d.pause_count(), 1);
        assert_eq!(d.pauses()[0].reason, PauseReason::Entry);
        assert_eq!(d.pauses()[0].line, 1);
    }

    #[test]
    fn watches_evaluate_at_pause() {
        let mut interp = Interp::new();
        let dbg = Debugger::scripted(vec![DebugCommand::Continue]);
        {
            let mut d = dbg.borrow_mut();
            d.add_breakpoint(3);
            d.add_watch("x * 10");
            d.add_watch("undefined_name");
        }
        interp.set_hook(dbg.clone());
        interp.eval_module("x = 4\ny = 5\nz = x + y\n").unwrap();
        let d = dbg.borrow();
        let watches = &d.pauses()[0].watches;
        assert_eq!(watches[0], ("x * 10".to_string(), "40".to_string()));
        assert!(watches[1].1.starts_with("<error:"));
    }

    #[test]
    fn stack_reflects_call_chain() {
        let mut interp = Interp::new();
        let dbg = Debugger::scripted(vec![DebugCommand::Continue]);
        dbg.borrow_mut().add_breakpoint(2);
        interp.set_hook(dbg.clone());
        interp
            .eval_module(
                "def inner():\n    return 1\ndef outer():\n    return inner()\nr = outer()\n",
            )
            .unwrap();
        let d = dbg.borrow();
        let stack = &d.pauses()[0].stack;
        let names: Vec<&str> = stack.iter().map(|(f, _)| f.as_str()).collect();
        assert_eq!(names, vec!["<module>", "outer", "inner"]);
    }

    #[test]
    fn line_tracer_records_execution_order() {
        let mut interp = Interp::new();
        let tracer = LineTracer::new();
        interp.set_hook(tracer.clone());
        interp
            .eval_module("a = 1\nif a:\n    b = 2\nc = 3\n")
            .unwrap();
        let lines: Vec<u32> = tracer.borrow().trace.iter().map(|(_, l)| *l).collect();
        assert_eq!(lines, vec![1, 2, 3, 4]);
    }

    #[test]
    fn removing_breakpoint_stops_pausing() {
        let mut interp = Interp::new();
        let dbg = Debugger::scripted(vec![]);
        dbg.borrow_mut().add_breakpoint(1);
        dbg.borrow_mut().remove_breakpoint(1);
        interp.set_hook(dbg.clone());
        interp.eval_module("x = 1\n").unwrap();
        assert_eq!(dbg.borrow().pause_count(), 0);
    }

    #[test]
    fn requested_pause_fires_once_at_next_statement() {
        let mut interp = Interp::new();
        let dbg = Debugger::scripted(vec![DebugCommand::Continue; 4]);
        dbg.borrow_mut().request_pause();
        interp.set_hook(dbg.clone());
        interp
            .eval_module(
                "a = 1
b = 2
c = 3
",
            )
            .unwrap();
        let d = dbg.borrow();
        assert_eq!(d.pause_count(), 1);
        assert_eq!(d.pauses()[0].reason, PauseReason::Requested);
        assert_eq!(d.pauses()[0].line, 1);
    }

    #[test]
    fn conditional_breakpoint_pauses_only_when_true() {
        let mut interp = Interp::new();
        let dbg = Debugger::scripted(vec![DebugCommand::Continue; 8]);
        // Pause in helper only when v == 2 (the third call).
        dbg.borrow_mut().add_conditional_breakpoint(2, "v == 2");
        interp.set_hook(dbg.clone());
        interp.eval_module(PROGRAM).unwrap();
        let d = dbg.borrow();
        assert_eq!(d.pause_count(), 1);
        assert!(d.pauses()[0]
            .locals
            .iter()
            .any(|(n, v)| n == "v" && v == "2"));
    }

    #[test]
    fn conditional_breakpoint_with_bad_expression_never_pauses() {
        let mut interp = Interp::new();
        let dbg = Debugger::scripted(vec![DebugCommand::Continue; 8]);
        dbg.borrow_mut()
            .add_conditional_breakpoint(2, "no_such_name > 1");
        interp.set_hook(dbg.clone());
        interp.eval_module(PROGRAM).unwrap();
        assert_eq!(dbg.borrow().pause_count(), 0);
    }

    #[test]
    fn remove_breakpoint_clears_conditionals_too() {
        let mut interp = Interp::new();
        let dbg = Debugger::scripted(vec![DebugCommand::Continue; 8]);
        dbg.borrow_mut().add_conditional_breakpoint(2, "True");
        dbg.borrow_mut().remove_breakpoint(2);
        interp.set_hook(dbg.clone());
        interp.eval_module(PROGRAM).unwrap();
        assert_eq!(dbg.borrow().pause_count(), 0);
    }

    #[test]
    fn scenario_a_debugging_reveals_sign_bug() {
        // Paper Scenario A: step through the buggy mean_deviation and watch
        // `distance` go negative — impossible for a true absolute deviation.
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
        let mut interp = Interp::new();
        let seen_negative = Rc::new(RefCell::new(false));
        let flag = seen_negative.clone();
        let dbg = Debugger::with_controller(move |pause| {
            for (name, value) in &pause.locals {
                if name == "distance" && value.starts_with('-') {
                    *flag.borrow_mut() = true;
                }
            }
            DebugCommand::Continue
        });
        dbg.borrow_mut().add_breakpoint(8); // the buggy accumulation line
        interp.set_hook(dbg.clone());
        interp.eval_module(src).unwrap();
        assert!(
            *seen_negative.borrow(),
            "stepping should reveal a negative running distance (the missing abs)"
        );
    }
}
