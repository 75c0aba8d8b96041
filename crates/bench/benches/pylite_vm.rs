//! C14: bytecode VM vs. AST walker on the paper's two scenario UDFs.
//!
//! Measures the cost of one local UDF call under each pylite execution
//! engine (DESIGN §13). The module invoking the UDF is parsed once; the
//! function body is compiled once through the interpreter's code cache,
//! so steady-state iterations measure pure execution — exactly the cost
//! a developer pays per F5 in the edit→run→debug loop.

use std::rc::Rc;

use devharness::bench::{BenchmarkId, Harness, Throughput};
use devudf_bench::scenario_a_interp;
use pylite::{ExecMode, FsProvider, Interp, MemFs};

const MODES: [ExecMode; 2] = [ExecMode::Ast, ExecMode::Bytecode];

/// Scenario A: `mean_deviation` over an integer column (paper Listing 4,
/// fixed body) — arithmetic-heavy loops, the classic VM-friendly shape.
fn bench_scenario_a(h: &mut Harness) {
    let mut group = h.benchmark_group("scenario_a");
    group.sample_size(40);
    for rows in [1_000usize, 10_000] {
        group.throughput(Throughput::Elements(rows as u64));
        for mode in MODES {
            let (mut interp, call) = scenario_a_interp(mode, rows);
            group.bench_with_input(BenchmarkId::new(mode.as_str(), rows), &rows, |b, _| {
                b.iter(|| interp.run_module(&call).unwrap())
            });
        }
    }
    group.finish();
}

/// Scenario B: `loadnumbers` — CSV parsing over a virtual directory
/// (paper Listing 5, fixed loop bound) — string- and IO-shaped work.
fn bench_scenario_b(h: &mut Harness) {
    let mut group = h.benchmark_group("scenario_b");
    group.sample_size(40);
    let fs = Rc::new(MemFs::new());
    let files = 8usize;
    let lines_per_file = 200usize;
    for f in 0..files {
        let content: String = (0..lines_per_file)
            .map(|i| format!("{}\n", (f * lines_per_file + i) % 1000))
            .collect();
        fs.write(&format!("data/part{f}.csv"), content.as_bytes())
            .unwrap();
    }
    let def = concat!(
        "import os\n",
        "def loadnumbers(path):\n",
        "    files = os.listdir(path)\n",
        "    result = []\n",
        "    for i in range(0, len(files)):\n",
        "        file = open(path + '/' + files[i], 'r')\n",
        "        for line in file:\n",
        "            result.append(int(line))\n",
        "    return result\n",
    );
    let call = pylite::parse_module("result = loadnumbers('data')\n").unwrap();
    group.throughput(Throughput::Elements((files * lines_per_file) as u64));
    for mode in MODES {
        let mut interp = Interp::with_fs(fs.clone());
        interp.set_exec_mode(mode);
        interp.eval_module(def).unwrap();
        group.bench_function(mode.as_str(), |b| {
            b.iter(|| interp.run_module(&call).unwrap())
        });
    }
    group.finish();
}

fn main() {
    let mut h = Harness::new("pylite_vm");
    bench_scenario_a(&mut h);
    bench_scenario_b(&mut h);
    h.finish();
}
