//! Work twins of the two `bench_guard` timing rows the loop kernels blind
//! (DESIGN §13, EXPERIMENTS C6/C14).
//!
//! Scenario A's accumulator loops run as typed kernels on the VM, so the
//! `vm` row (walker against VM) can no longer see a kernel that silently
//! never fires, and the `debugger` row (no debugger against a never-hit
//! breakpoint) times two kernel runs and can no longer see a statement
//! gate that calls the debugger on every statement again. These tests pin
//! the work instead of the time: loop entries lifted and bailed, bail
//! reasons, debugger calls, pauses, and a statement count equal to the
//! walker's, per debugger configuration of the row.
//!
//! Every test here holds `obs::metrics::test_lock` and reads exact
//! counter deltas, so no test of this binary may run pylite unlocked.

use devudf_bench::{
    run_under_debugger, scenario_a_interp, SetBreakpoints, DEBUGGER_CASES,
    MEAN_DEVIATION_FIXED_BODY,
};
use pylite::compile::{compile_function, Instr};
use pylite::{Debugger, ExecMode, Interp};

const ROWS: usize = 1_000;

/// The counters one run moves.
const COUNTERS: [&str; 8] = [
    "pylite.loop.lifted",
    "pylite.loop.bailed",
    "pylite.loop.bail.debugger",
    "pylite.loop.bail.profiler",
    "pylite.debug.calls",
    "pylite.debug.pauses",
    "pylite.statements",
    "pylite.loop.statements",
];

/// The work of one run: each of [`COUNTERS`]' deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Work {
    lifted: u64,
    bailed: u64,
    bail_debugger: u64,
    bail_profiler: u64,
    debug_calls: u64,
    pauses: u64,
    statements: u64,
    kernel_statements: u64,
}

fn counters() -> [u64; 8] {
    COUNTERS.map(|name| obs::metrics::registry().counter(name).get())
}

/// The counter deltas of `run`.
fn work(run: impl FnOnce()) -> Work {
    let before = counters();
    run();
    let after = counters();
    let d: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    Work {
        lifted: d[0],
        bailed: d[1],
        bail_debugger: d[2],
        bail_profiler: d[3],
        debug_calls: d[4],
        pauses: d[5],
        statements: d[6],
        kernel_statements: d[7],
    }
}

/// One Scenario A call on `mode` under the debugger `arm` sets up, as the
/// `debugger` row runs it.
fn scenario_a(mode: ExecMode, arm: Option<SetBreakpoints>) -> Work {
    let (mut interp, call) = scenario_a_interp(mode, ROWS);
    work(|| {
        run_under_debugger(&mut interp, &call, arm);
    })
}

/// The VM's work on Scenario A under `arm`, checked against the walker's
/// statement count and pauses.
fn vm_against_walker(arm: Option<SetBreakpoints>) -> Work {
    let vm = scenario_a(ExecMode::Bytecode, arm);
    let walker = scenario_a(ExecMode::Ast, arm);
    assert_eq!(vm.statements, walker.statements, "statement counts");
    assert_eq!(vm.pauses, walker.pauses, "pauses");
    assert_eq!(
        (walker.lifted, walker.bailed),
        (0, 0),
        "the walker has no kernels"
    );
    vm
}

fn case(name: &str) -> Option<SetBreakpoints> {
    DEBUGGER_CASES
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no debugger case {name}"))
        .1
}

#[test]
fn scenario_a_loops_run_as_kernels_without_a_debugger_stop() {
    let _serial = obs::metrics::test_lock();
    obs::set_enabled(true);
    for name in ["hooks_off", "unhit_breakpoint"] {
        let vm = vm_against_walker(case(name));
        assert_eq!((vm.lifted, vm.bailed), (2, 0), "{name}: {vm:?}");
        assert_eq!(vm.debug_calls, 0, "{name}: {vm:?}");
        assert_eq!(vm.pauses, 0, "{name}: {vm:?}");
        // Both loops' bodies: one statement per row each.
        assert_eq!(vm.kernel_statements, 2 * ROWS as u64, "{name}: {vm:?}");
    }
}

#[test]
fn a_condition_on_the_hot_line_turns_only_that_loop_off() {
    let _serial = obs::metrics::test_lock();
    obs::set_enabled(true);
    let vm = vm_against_walker(case("hot_conditional"));
    assert_eq!((vm.lifted, vm.bailed), (1, 1), "{vm:?}");
    assert_eq!(vm.bail_debugger, 1, "{vm:?}");
    // The condition's line runs once per row, and only there is the
    // debugger called.
    assert_eq!(vm.debug_calls, ROWS as u64, "{vm:?}");
    assert_eq!(vm.pauses, 0, "{vm:?}");
}

#[test]
fn a_breakpoint_between_the_loops_pauses_once_and_keeps_both_kernels() {
    let _serial = obs::metrics::test_lock();
    obs::set_enabled(true);
    let vm = vm_against_walker(case("hit_breakpoint_once"));
    assert_eq!((vm.lifted, vm.bailed), (2, 0), "{vm:?}");
    assert_eq!(vm.pauses, 1, "{vm:?}");
    assert_eq!(vm.debug_calls, 1, "{vm:?}");
}

#[test]
fn an_armed_profiler_turns_every_kernel_off() {
    let _serial = obs::metrics::test_lock();
    obs::set_enabled(true);
    obs::profile::reset();
    obs::profile::set_active(true);
    let vm = scenario_a(ExecMode::Bytecode, None);
    obs::profile::set_active(false);
    obs::profile::reset();
    assert_eq!((vm.lifted, vm.bailed), (0, 2), "{vm:?}");
    assert_eq!(vm.bail_profiler, 2, "{vm:?}");
    assert_eq!(vm.kernel_statements, 0, "{vm:?}");
}

/// A loop that is no candidate runs statement by statement through the
/// gate, which must still not call the debugger on a line it cannot
/// stop at.
#[test]
fn the_gate_skips_the_debugger_on_a_loop_that_is_no_kernel() {
    let _serial = obs::metrics::test_lock();
    obs::set_enabled(true);
    let mut interp = Interp::new();
    interp.set_exec_mode(ExecMode::Bytecode);
    let src = "total = 0\nfor i in range(1000):\n    if i % 3 == 0:\n        total += i\n";
    let vm = work(|| {
        run_under_debugger(
            &mut interp,
            &pylite::parse_module(src).unwrap(),
            case("unhit_breakpoint"),
        );
    });
    assert_eq!((vm.lifted, vm.bailed), (0, 0), "{vm:?}");
    assert_eq!(vm.debug_calls, 0, "{vm:?}");
    assert_eq!(vm.statements, 2 + 1000 + 334, "{vm:?}");
}

/// The loops' fallback code keeps the fused shapes the `vm` row timed
/// before the kernels, behind one kernel instruction per loop.
#[test]
fn scenario_a_fallback_loops_keep_their_fused_instructions() {
    let def = format!(
        "def mean_deviation(column):\n{}",
        MEAN_DEVIATION_FIXED_BODY
            .lines()
            .map(|l| format!("    {l}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    let module = pylite::parse_module(&def).unwrap();
    let pylite::ast::StmtKind::FunctionDef(f) = &module.body[0].kind else {
        panic!("a def");
    };
    let code = compile_function(f);
    let count = |pred: fn(&Instr) -> bool| code.instrs.iter().filter(|i| pred(i)).count();
    assert_eq!(count(|i| matches!(i, Instr::Kernel { .. })), 2);
    assert_eq!(count(|i| matches!(i, Instr::ForIterStore { .. })), 2);
    assert_eq!(count(|i| matches!(i, Instr::AugIndex { .. })), 1);
    assert_eq!(count(|i| matches!(i, Instr::IndexBinOpName { .. })), 1);
    // Each kernel sits right in front of its loop's GetIter.
    for (pc, instr) in code.instrs.iter().enumerate() {
        if matches!(instr, Instr::Kernel { .. }) {
            assert_eq!(code.instrs[pc + 1], Instr::GetIter);
        }
    }
}

/// A step command at a pause on the loop header turns that entry's kernel
/// off, so every body statement stops, as on the walker.
#[test]
fn stepping_into_a_kernel_loop_stops_on_every_body_statement() {
    let _serial = obs::metrics::test_lock();
    obs::set_enabled(true);
    let src = "s = 0\nfor i in range(3):\n    s += i\nt = s\n";
    let trail = |mode| {
        let dbg = Debugger::scripted(vec![pylite::DebugCommand::StepInto; 8]);
        dbg.borrow_mut().add_breakpoint(2);
        let mut interp = Interp::new();
        interp.set_exec_mode(mode);
        interp.set_hook(dbg.clone());
        interp.eval_module(src).unwrap();
        let lines: Vec<u32> = dbg.borrow().pauses().iter().map(|p| p.line).collect();
        (lines, interp.loop_counts())
    };
    let (vm, counts) = trail(ExecMode::Bytecode);
    let (walker, _) = trail(ExecMode::Ast);
    assert_eq!(vm, [2, 3, 3, 3, 4]);
    assert_eq!(vm, walker);
    assert_eq!((counts.lifted, counts.bailed), (0, 1));
}
