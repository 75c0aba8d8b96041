//! C6: interpreter and debugger-overhead microbenchmarks.
//!
//! Quantifies the cost of the interactive-debugging machinery: Scenario A
//! runs on each engine under the statement budget `run_local` sets, with
//! no debugger, a never-hit breakpoint, a never-true conditional on the
//! hot line, and a breakpoint hit once (`DEBUGGER_CASES`).

use devharness::bench::{BenchmarkId, Harness, Throughput};
use devudf_bench::{run_under_debugger, scenario_a_interp, DEBUGGER_CASES};
use pylite::ExecMode;

fn bench_interp(h: &mut Harness) {
    for (group_name, mode) in [
        ("debugger_overhead", ExecMode::Bytecode),
        ("debugger_overhead_ast", ExecMode::Ast),
    ] {
        let mut group = h.benchmark_group(group_name);
        group.sample_size(10);
        for rows in [1_000usize, 10_000] {
            group.throughput(Throughput::Elements(rows as u64));
            for (name, arm) in DEBUGGER_CASES {
                let (mut interp, call) = scenario_a_interp(mode, rows);
                group.bench_with_input(BenchmarkId::new(name, rows), &rows, |b, _| {
                    b.iter(|| run_under_debugger(&mut interp, &call, arm))
                });
            }
        }
        group.finish();
    }
}

fn bench_parse(h: &mut Harness) {
    let mut group = h.benchmark_group("pylite_parse");
    group.sample_size(20);
    let src = format!(
        "def mean_deviation(column):\n{}\nresult = mean_deviation(col)\n",
        devudf_bench::MEAN_DEVIATION_FIXED_BODY
            .lines()
            .map(|l| format!("    {l}"))
            .collect::<Vec<_>>()
            .join("\n")
    )
    .repeat(20);
    group.throughput(Throughput::Bytes(src.len() as u64));
    group.bench_function("parse_module", |b| {
        b.iter(|| pylite::parse_module(&src).unwrap())
    });
    group.finish();
}

fn main() {
    let mut h = Harness::new("interp");
    bench_interp(&mut h);
    bench_parse(&mut h);
    h.finish();
}
