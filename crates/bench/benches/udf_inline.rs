//! C15: Froid-style UDF inlining vs. the two pylite interpreters, measured
//! end-to-end through the SQL engine (`SELECT f(i) FROM numbers`).
//!
//! Three engine configurations per scenario:
//!   - `walker`   — inlining off, AST-walking interpreter
//!   - `bytecode` — inlining off, register-bytecode VM (PR 6)
//!   - `inlined`  — inlining on (the plan compiles to relational
//!     operators; the interpreter never runs)
//!
//! Scenario A is the vectorized straight-line `mean_deviation` under
//! operator-at-a-time execution: aggregates lower to SUM/COUNT. Scenario B
//! is a branching per-row scoring UDF under tuple-at-a-time execution: the
//! branches lower to a CASE evaluated columnar, while the interpreters pay
//! one call per row.

use devharness::bench::{BenchmarkId, Harness, Throughput};
use devudf_bench::{udf_engine, CLAMP_SCORE_BODY, MEAN_DEVIATION_STRAIGHT_BODY};
use monetlite::ExecutionModel;
use pylite::ExecMode;

const CONFIGS: [(&str, ExecMode, bool); 3] = [
    ("walker", ExecMode::Ast, false),
    ("bytecode", ExecMode::Bytecode, false),
    ("inlined", ExecMode::Bytecode, true),
];

/// Scenario A: vectorized straight-line mean deviation, operator-at-a-time.
fn bench_scenario_a(h: &mut Harness) {
    let mut group = h.benchmark_group("scenario_a");
    group.sample_size(40);
    for rows in [1_000usize, 10_000] {
        group.throughput(Throughput::Elements(rows as u64));
        for (label, mode, inline) in CONFIGS {
            let db = udf_engine(
                ExecutionModel::OperatorAtATime,
                mode,
                inline,
                rows,
                MEAN_DEVIATION_STRAIGHT_BODY,
            );
            group.bench_with_input(BenchmarkId::new(label, rows), &rows, |b, _| {
                b.iter(|| db.execute("SELECT f(i) FROM numbers").unwrap())
            });
        }
    }
    group.finish();
}

/// Scenario B: branching per-row scoring, tuple-at-a-time.
fn bench_scenario_b(h: &mut Harness) {
    let mut group = h.benchmark_group("scenario_b");
    group.sample_size(40);
    for rows in [1_000usize, 10_000] {
        group.throughput(Throughput::Elements(rows as u64));
        for (label, mode, inline) in CONFIGS {
            let db = udf_engine(
                ExecutionModel::TupleAtATime,
                mode,
                inline,
                rows,
                CLAMP_SCORE_BODY,
            );
            group.bench_with_input(BenchmarkId::new(label, rows), &rows, |b, _| {
                b.iter(|| db.execute("SELECT f(i) FROM numbers").unwrap())
            });
        }
    }
    group.finish();
}

fn main() {
    let mut h = Harness::new("udf_inline");
    bench_scenario_a(&mut h);
    bench_scenario_b(&mut h);
    h.finish();
}
