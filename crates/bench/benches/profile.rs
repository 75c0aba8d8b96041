//! C16: the cost of observability on Scenario A (vectorized straight-line
//! `mean_deviation`, operator-at-a-time, 10 000 rows), measured end-to-end
//! through the SQL engine in five configurations:
//!
//!   - `baseline` — telemetry hard-disabled (`obs::set_enabled(false)`)
//!   - `off`      — telemetry enabled but nothing listening: the steady
//!     state every query pays. Budget: ≤ 1% over `baseline`.
//!   - `traced`   — a per-query trace capture is live, so every
//!     `span_active` in the engine records. Budget: ≤ 5% over `off`.
//!   - `analyze`  — the query runs under `EXPLAIN ANALYZE` (operator
//!     timers + plan-row collection); informational.
//!   - `profile`  — the line profiler is armed and the UDF runs on the
//!     bytecode VM (inlining off — a profiled line must actually
//!     execute); informational, not comparable to the inlined rows.
//!
//! `bench_guard` holds the committed baseline to the two budgets and
//! re-measures with looser, noise-tolerant floors (EXPERIMENTS C16).

use devharness::bench::{BenchmarkId, Harness, Throughput};
use devudf_bench::{udf_engine, MEAN_DEVIATION_STRAIGHT_BODY};
use monetlite::{Engine, ExecutionModel};
use pylite::ExecMode;

const ROWS: usize = 10_000;
const QUERY: &str = "SELECT f(i) FROM numbers";

fn engine(inline: bool) -> Engine {
    udf_engine(
        ExecutionModel::OperatorAtATime,
        ExecMode::Bytecode,
        inline,
        ROWS,
        MEAN_DEVIATION_STRAIGHT_BODY,
    )
}

fn main() {
    let mut h = Harness::new("profile");
    let mut group = h.benchmark_group("scenario_a");
    group.sample_size(40);
    group.throughput(Throughput::Elements(ROWS as u64));

    let db = engine(true);

    obs::set_enabled(false);
    group.bench_with_input(BenchmarkId::new("baseline", ROWS), &ROWS, |b, _| {
        b.iter(|| db.execute(QUERY).unwrap())
    });
    obs::set_enabled(true);

    group.bench_with_input(BenchmarkId::new("off", ROWS), &ROWS, |b, _| {
        b.iter(|| db.execute(QUERY).unwrap())
    });

    group.bench_with_input(BenchmarkId::new("traced", ROWS), &ROWS, |b, _| {
        b.iter(|| {
            let trace = obs::trace::new_trace_id();
            obs::trace::start_capture(trace);
            let result = {
                let _ctx = obs::trace::enter_context(obs::trace::SpanContext { trace, parent: 0 });
                db.execute(QUERY).unwrap()
            };
            let spans = obs::trace::take_capture(trace);
            (result, spans)
        })
    });

    group.bench_with_input(BenchmarkId::new("analyze", ROWS), &ROWS, |b, _| {
        b.iter(|| {
            db.execute("EXPLAIN ANALYZE SELECT f(i) FROM numbers")
                .unwrap()
        })
    });

    // The line profiler only sees lines the interpreter executes: run the
    // same body un-inlined on the bytecode VM with the profiler armed.
    let interpreted = engine(false);
    obs::profile::set_active(true);
    group.bench_with_input(BenchmarkId::new("profile", ROWS), &ROWS, |b, _| {
        b.iter(|| interpreted.execute(QUERY).unwrap())
    });
    obs::profile::set_active(false);
    obs::profile::reset();

    group.finish();
    h.finish();
}
