//! Interactive debugger: breakpoints, stepping, pausing and inspection.
//!
//! This is the reproduction of the paper's headline feature — "sophisticated
//! interactive debugging techniques, such as stepping through the code line
//! by line and pausing code execution" (§1) applied to UDFs running locally
//! on the developer's machine (§2.1).
//!
//! # Architecture
//!
//! Both engines run one statement gate before every statement (DESIGN
//! §13). With a [`Debugger`] attached, the gate hands it a statement only
//! when the debugger reports that the statement's line can stop — the
//! model of PEP 669, which instruments only the locations a tool
//! subscribed to. While running, that is a line with a plain or
//! conditional breakpoint; while stepping, before the first statement
//! under `break_on_entry`, or with a pause requested, it is every line.
//! The debugger then decides whether to pause (breakpoint hit, condition
//! true, step completed, or explicit pause request) and hands control to
//! a *controller* — a callback that receives a [`PauseInfo`] snapshot
//! (stack, locals, line) and answers with a [`DebugCommand`]. A CLI
//! controller reads commands from the user; test controllers replay a
//! scripted command list.
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

use crate::ast::Expr;
use crate::error::{ErrorKind, PyError};
use crate::interp::Interp;
use crate::parser::parse_expression;

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

/// The interactive debugger an [`Interp`] consults through its statement
/// gate.
pub struct Debugger {
    breakpoints: BTreeSet<u32>,
    /// line → condition, parsed when added; pauses only when it
    /// evaluates truthy.
    conditional: Vec<(u32, Expr)>,
    /// Watch expressions as written, each with its parse.
    watches: Vec<(String, Result<Expr, PyError>)>,
    mode: StepMode,
    depth: usize,
    /// Pause before the very first statement (like an IDE "Debug" button).
    pub break_on_entry: bool,
    /// One-shot pause request (the IDE pause button, §1 "pausing code
    /// execution"); consumed at the next statement boundary.
    pause_requested: bool,
    /// Whether the gate has handed this debugger a statement yet; the
    /// first one is the `break_on_entry` stop.
    entered: bool,
    controller: Controller,
    pauses: Vec<PauseInfo>,
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
            entered: false,
            controller: Box::new(controller),
            pauses: Vec::new(),
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

    /// Set a conditional breakpoint: pause at `line` only when `condition`
    /// (a Python expression over the paused frame) is truthy. Evaluation
    /// errors never pause (a condition referencing a not-yet-bound name is
    /// simply not met yet). A condition that does not parse is dropped:
    /// it never pauses and does not make its line stop.
    pub fn add_conditional_breakpoint(&mut self, line: u32, condition: impl Into<String>) {
        if let Ok(condition) = parse_expression(&condition.into()) {
            self.conditional.push((line, condition));
        }
    }

    /// Request a pause at the next statement boundary (the paper's
    /// "pausing code execution"). Safe to call from a controller callback
    /// or between runs; consumed once.
    pub fn request_pause(&mut self) {
        self.pause_requested = true;
    }

    /// Register a watch expression evaluated at every pause. One that
    /// does not parse renders its parse error at every pause.
    pub fn add_watch(&mut self, expr: impl Into<String>) {
        let source = expr.into();
        let parsed = parse_expression(&source);
        self.watches.push((source, parsed));
    }

    /// All pauses recorded so far.
    pub fn pauses(&self) -> &[PauseInfo] {
        &self.pauses
    }

    /// Number of pauses so far.
    pub fn pause_count(&self) -> usize {
        self.pauses.len()
    }

    /// The stop rule: whether the statement on `line` can pause. The
    /// statement gate hands the debugger only these statements.
    #[inline]
    pub(crate) fn can_stop(&self, line: u32) -> bool {
        self.pause_requested
            || !matches!(self.mode, StepMode::Run)
            || (self.break_on_entry && !self.entered)
            || self.breakpoints.contains(&line)
            || self.conditional.iter().any(|(l, _)| *l == line)
    }

    fn should_pause(&mut self, line: u32) -> Option<PauseReason> {
        if self.pause_requested {
            self.pause_requested = false;
            return Some(PauseReason::Requested);
        }
        if self.break_on_entry && !self.entered {
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

    /// A statement on a line that [can stop](Self::can_stop): pause if a
    /// stop condition holds, snapshot the frame and the watches for the
    /// controller, and take its command. Quit ends the run with the
    /// `terminated by debugger` error.
    pub(crate) fn on_statement(&mut self, interp: &mut Interp, line: u32) -> Result<(), PyError> {
        let mut reason = self.should_pause(line);
        if reason.is_none() && self.conditional_hit(interp, line) {
            reason = Some(PauseReason::Breakpoint);
        }
        self.entered = true;
        let Some(reason) = reason else {
            return Ok(());
        };
        obs::counter!("pylite.debug.pauses").inc();
        match reason {
            PauseReason::Breakpoint => obs::counter!("pylite.debug.breakpoints").inc(),
            PauseReason::Step => obs::counter!("pylite.debug.steps").inc(),
            _ => {}
        }

        let mut watches = Vec::with_capacity(self.watches.len());
        for (source, expr) in &self.watches {
            let value = expr
                .as_ref()
                .map_err(PyError::clone)
                .and_then(|e| interp.eval_in_frame(e));
            let rendered = match value {
                Ok(v) => v.repr(),
                Err(e) => format!("<error: {e}>"),
            };
            watches.push((source.clone(), rendered));
        }
        let info = PauseInfo {
            reason,
            function: interp.current_function_name(),
            line,
            stack: interp.stack(),
            locals: interp.locals_snapshot(),
            watches,
        };
        let command = (self.controller)(&info);
        self.pauses.push(info);
        self.mode = match command {
            DebugCommand::Continue => StepMode::Run,
            DebugCommand::StepInto => StepMode::Into,
            DebugCommand::StepOver => StepMode::Over(self.depth),
            DebugCommand::StepOut => StepMode::Out(self.depth),
            DebugCommand::Quit => {
                return Err(PyError::new(ErrorKind::Resource, "terminated by debugger"))
            }
        };
        Ok(())
    }

    /// A Python function frame was pushed.
    pub(crate) fn on_call(&mut self) {
        self.depth += 1;
    }

    /// A Python function frame was popped.
    pub(crate) fn on_return(&mut self) {
        self.depth = self.depth.saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecMode, Value};

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

    /// A condition that does not parse is dropped and never pauses; a
    /// watch that does not parse renders its parse error at every pause.
    #[test]
    fn unparsable_condition_and_watch() {
        let mut interp = Interp::new();
        let dbg = Debugger::scripted(vec![]);
        {
            let mut d = dbg.borrow_mut();
            d.add_conditional_breakpoint(2, "v >");
            d.add_breakpoint(3);
            d.add_watch("v +");
        }
        interp.set_hook(dbg.clone());
        interp.eval_module(PROGRAM).unwrap();
        let d = dbg.borrow();
        assert_eq!(d.pause_count(), 3, "only the plain breakpoint pauses");
        assert!(!d.can_stop(2), "a dropped condition arms no line");
        for pause in d.pauses() {
            assert_eq!(pause.line, 3);
            assert!(pause.watches[0].1.starts_with("<error: "), "{pause:?}");
        }
    }

    /// A condition or watch that calls a Python function runs statements
    /// of its own. In both engines those neither pause (even on a
    /// breakpoint line) nor re-enter the debugger evaluating them.
    #[test]
    fn conditions_and_watches_may_call_functions() {
        for mode in [ExecMode::Ast, ExecMode::Bytecode] {
            let mut interp = Interp::new();
            interp.set_exec_mode(mode);
            let dbg = Debugger::scripted(vec![]);
            {
                let mut d = dbg.borrow_mut();
                d.add_breakpoint(2); // inside helper
                d.add_conditional_breakpoint(6, "helper(i) > 2");
                d.add_watch("helper(total)");
            }
            interp.set_hook(dbg.clone());
            interp.eval_module(PROGRAM).unwrap();
            let d = dbg.borrow();
            let trail: Vec<_> = d
                .pauses()
                .iter()
                .map(|p| (p.line, p.function.as_str(), p.watches[0].1.as_str()))
                .collect();
            assert_eq!(
                trail,
                vec![
                    (2, "helper", "0"),
                    (2, "helper", "0"),
                    (6, "<module>", "4"),
                    (2, "helper", "4"),
                ],
                "{mode}"
            );
            assert_eq!(interp.get_global("final"), Some(Value::Int(6)));

            // A watch rebinds a global, then Quit raises inside a `try`
            // that catches it: the code after the handler reads the value
            // the watch wrote, not one the VM cached before the stop.
            let mut interp = Interp::new();
            interp.set_exec_mode(mode);
            let dbg = Debugger::scripted(vec![DebugCommand::Quit]);
            dbg.borrow_mut().add_breakpoint(7);
            dbg.borrow_mut().add_watch("bump()");
            interp.set_hook(dbg.clone());
            let src = "\
def bump():
    global g
    g = g + 10
    return g
g = 0
try:
    h = g + 1
except Exception:
    pass
after = g
";
            interp.eval_module(src).unwrap();
            assert_eq!(dbg.borrow().pauses()[0].watches[0].1, "10", "{mode}");
            assert_eq!(interp.get_global("h"), None, "{mode}");
            assert_eq!(interp.get_global("after"), Some(Value::Int(10)), "{mode}");

            // Conditions that never hold but bind and delete globals on
            // the lines they guard: the code after each reads the scopes
            // as the condition left them.
            let mut interp = Interp::new();
            interp.set_exec_mode(mode);
            let dbg = Debugger::scripted(vec![]);
            dbg.borrow_mut().add_conditional_breakpoint(11, "bump()");
            dbg.borrow_mut().add_conditional_breakpoint(13, "forget()");
            interp.set_hook(dbg.clone());
            let src = "\
def bump():
    global g
    g = g + 1
    return False
def forget():
    global h
    del h
    return False
g = 0
for k in range(3):
    g = g + 10
h = 1
x = g
y = h
";
            let err = interp.eval_module(src).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Name, "{mode}: {err}");
            assert_eq!(interp.get_global("x"), Some(Value::Int(33)), "{mode}");
            assert_eq!(dbg.borrow().pause_count(), 0, "{mode}");
        }
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
