//! Shared harness code for the devUDF reproduction benchmarks.
//!
//! Every table, figure and efficiency claim of the paper maps to a target
//! in this crate (see DESIGN.md §5):
//!
//! * `table1` (bin) — Table 1, the IDE market-share survey,
//! * `figures` (bin) — Figures 1–3 as text renderings,
//! * `report` (bin) — a deterministic paper-vs-measured summary feeding
//!   EXPERIMENTS.md,
//! * `devharness::bench` benches: `transfer` (C1–C3),
//!   `exec_models` (C5), `interp` (C6), `import_export` (C7),
//!   `codecs_bench` (C8), `vcs` (C9). Each writes a `BENCH_<suite>.json`
//!   artifact at the workspace root (see EXPERIMENTS.md for the schema).

use monetlite::{Engine, ExecutionModel};
use pylite::{Array, Debugger, ExecMode, Interp, Value};
use wireproto::{Client, Server, ServerConfig};

/// Table 1 of the paper: "Most Popular Development Environments" — PYPL
/// Top-IDE-index survey data as cited (reference \[2\], Pierre Carbonnelle,
/// 2018). This
/// is external survey data that cannot be re-measured; it is embedded
/// verbatim so the table regenerates byte-for-byte.
pub const TABLE1: &[(&str, f64, &str)] = &[
    ("Eclipse", 25.2, "IDE"),
    ("Visual Studio", 19.5, "IDE"),
    ("Android Studio", 9.5, "IDE"),
    ("Vim", 7.9, "Text Editor"),
    ("XCode", 5.2, "IDE"),
    ("IntelliJ", 4.8, "IDE"),
    ("NetBeans", 4.0, "IDE"),
    ("Xamarin", 3.8, "IDE"),
    ("Komodo", 3.4, "IDE"),
    ("Sublime Text", 3.3, "Text Editor"),
    ("Visual Studio Code", 3.3, "Text Editor"),
    ("PyCharm", 2.3, "IDE"),
];

/// Render Table 1 in the paper's layout.
pub fn render_table1() -> String {
    let mut out = String::new();
    out.push_str("Table 1: Most Popular Development Environments.\n");
    out.push_str("+--------------------+--------------+-------------+\n");
    out.push_str("| Name               | Market Share | Type        |\n");
    out.push_str("+====================+==============+=============+\n");
    for (name, share, kind) in TABLE1 {
        out.push_str(&format!("| {name:<18} | {share:>11.1}% | {kind:<11} |\n"));
    }
    out.push_str("+--------------------+--------------+-------------+\n");
    let ide_share: f64 = TABLE1
        .iter()
        .filter(|(_, _, k)| *k == "IDE")
        .map(|(_, s, _)| s)
        .sum();
    let editor_share: f64 = TABLE1
        .iter()
        .filter(|(_, _, k)| *k == "Text Editor")
        .map(|(_, s, _)| s)
        .sum();
    out.push_str(&format!(
        "IDEs: {ide_share:.1}% vs text editors: {editor_share:.1}% — \
the paper's argument that IDEs dominate development.\n"
    ));
    out
}

/// The buggy `mean_deviation` body of paper Listing 4.
pub const LISTING4_BODY: &str = "\
mean = 0
for i in range(0, len(column)):
    mean += column[i]
mean = mean / len(column)
distance = 0
for i in range(0, len(column)):
    distance += column[i] - mean
deviation = distance / len(column)
return deviation
";

/// The corrected `mean_deviation` (the Scenario A fix).
pub const MEAN_DEVIATION_FIXED_BODY: &str = "\
mean = 0
for i in range(0, len(column)):
    mean += column[i]
mean = mean / len(column)
distance = 0
for i in range(0, len(column)):
    distance += abs(column[i] - mean)
deviation = distance / len(column)
return deviation
";

/// The loop-free `mean_deviation`: same math as
/// [`MEAN_DEVIATION_FIXED_BODY`] but written against vectorized
/// aggregates, which is the shape the engine's Froid-style inliner
/// (DESIGN §14) compiles straight into relational operators.
pub const MEAN_DEVIATION_STRAIGHT_BODY: &str = "\
mean = sum(column) / len(column)
return sum(abs(column - mean)) / len(column)
";

/// A per-row scoring UDF with branches — straight-line, so it inlines to
/// a CASE — used as the tuple-at-a-time inlining scenario (Scenario B of
/// EXPERIMENTS C15).
pub const CLAMP_SCORE_BODY: &str = "\
score = column * 3 + 7
if score > 500:
    return 500.0
elif score < 50:
    return score / 2
return score * 1.0
";

/// `CREATE FUNCTION` wrapping a body as the paper's Listing 4 declares it.
pub fn create_mean_deviation(body: &str) -> String {
    format!(
        "CREATE OR REPLACE FUNCTION mean_deviation(column INTEGER) RETURNS DOUBLE LANGUAGE PYTHON {{\n{body}}}"
    )
}

/// Populate `numbers(i INTEGER)` with `rows` realistic sensor-style values:
/// a slowly drifting level plus small noise. Real columns are locally
/// correlated, which is exactly why the paper's compression option pays off.
pub fn seed_numbers(db: &Engine, rows: usize) {
    db.execute("CREATE TABLE numbers (i INTEGER)").unwrap();
    let mut rng = devharness::Rng::new(0x1234_5678);
    let mut values = Vec::with_capacity(rows);
    for idx in 0..rows {
        let level = (idx / 64) % 500; // slow drift with long runs
        let noise = rng.u64_below(4); // small jitter
        values.push(format!("({})", level as u64 + noise));
    }
    // Insert in chunks to keep statements manageable.
    for chunk in values.chunks(2000) {
        db.execute(&format!("INSERT INTO numbers VALUES {}", chunk.join(", ")))
            .unwrap();
    }
}

/// An engine over `rows` of [`seed_numbers`] with the UDF `f(column)`
/// defined by `body`, configured as the C15/C16 suites (and their
/// `bench_guard` rows) run `SELECT f(i) FROM numbers`.
pub fn udf_engine(
    model: ExecutionModel,
    mode: ExecMode,
    inline: bool,
    rows: usize,
    body: &str,
) -> Engine {
    let db = Engine::new();
    db.set_model(model);
    db.set_exec_mode(mode);
    db.set_inline(inline);
    seed_numbers(&db, rows);
    db.execute(&format!(
        "CREATE FUNCTION f(column INTEGER) RETURNS DOUBLE LANGUAGE PYTHON {{\n{body}}}"
    ))
    .unwrap();
    db
}

/// Scenario A of C14: an interpreter under `mode` holding the fixed
/// `mean_deviation` and a `col` of `rows` integers, plus the parsed call
/// module that runs it once.
pub fn scenario_a_interp(mode: ExecMode, rows: usize) -> (Interp, pylite::ast::Module) {
    let def = format!(
        "def mean_deviation(column):\n{}",
        MEAN_DEVIATION_FIXED_BODY
            .lines()
            .map(|l| format!("    {l}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    let mut interp = Interp::new();
    interp.set_exec_mode(mode);
    interp.eval_module(&def).unwrap();
    let col: Vec<i64> = (0..rows as i64).map(|i| i % 97).collect();
    interp.set_global("col", Value::array(Array::Int(col)));
    let call = pylite::parse_module("result = mean_deviation(col)\n").unwrap();
    (interp, call)
}

/// Sets up the breakpoints of one [`DEBUGGER_CASES`] entry.
pub type SetBreakpoints = fn(&mut Debugger);

/// The debugger configurations C6 measures on [`scenario_a_interp`], by
/// case name: none, a breakpoint on a line never reached, a never-true
/// condition on the hot accumulation line (line 8), and a breakpoint hit
/// once per run (line 5, `mean = mean / len(column)`).
pub const DEBUGGER_CASES: [(&str, Option<SetBreakpoints>); 4] = [
    ("hooks_off", None),
    ("unhit_breakpoint", Some(|d| d.add_breakpoint(9_999))),
    (
        "hot_conditional",
        Some(|d| d.add_conditional_breakpoint(8, "distance < 0")),
    ),
    ("hit_breakpoint_once", Some(|d| d.add_breakpoint(5))),
];

/// Run Scenario A's `call` once on `interp` the way `run_local` runs a
/// UDF: under its statement budget, with a fresh debugger set up by `arm`
/// attached (none for `hooks_off`).
pub fn run_under_debugger(
    interp: &mut Interp,
    call: &pylite::ast::Module,
    arm: Option<SetBreakpoints>,
) -> Value {
    interp.set_step_budget(monetlite::udf::STEP_BUDGET);
    if let Some(arm) = arm {
        let dbg = Debugger::scripted(vec![]);
        arm(&mut dbg.borrow_mut());
        interp.set_hook(dbg);
    }
    interp.run_module(call).unwrap()
}

/// A demo server with `numbers` (given row count) plus the buggy Listing-4
/// UDF, ready for transfer/workflow benchmarks.
pub fn bench_server(rows: usize) -> Server {
    Server::start(ServerConfig::new("demo", "monetdb", "monetdb"), move |db| {
        seed_numbers(db, rows);
        db.execute(&create_mean_deviation(LISTING4_BODY)).unwrap();
    })
}

/// A fresh devUDF session bound to a temp project (caller cleans up).
pub fn bench_session(server: &Server, tag: &str) -> devudf::DevUdf {
    let dir = std::env::temp_dir().join(format!(
        "devudf-bench-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let mut settings = devudf::Settings::default();
    settings.debug_query = "SELECT mean_deviation(i) FROM numbers".to_string();
    // The codec suites (and bench_guard's baseline ratio) measure the
    // full extract path; with the default-on delta cache every warm
    // iteration would be a NotModified round trip instead. The cache has
    // its own suite, benches/transfer_cache.rs.
    settings.transfer.cache.enabled = false;
    devudf::DevUdf::connect_in_proc(server, settings, &dir).unwrap()
}

/// A fleet of persistent TCP sessions, each on its own thread, fired in
/// bursts: [`SessionFleet::burst`] releases every session for one round
/// of queries and returns when all have finished. Connections persist
/// across bursts so measurements capture steady-state scheduling, not
/// handshakes. Shared by the C17 concurrency sweep
/// (`benches/server_concurrency.rs`) and its `bench_guard` gate.
pub struct SessionFleet {
    go: Vec<std::sync::mpsc::Sender<()>>,
    done: std::sync::mpsc::Receiver<Result<(), String>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl SessionFleet {
    /// Connect `sessions` TCP clients to `addr`, each running `queries`
    /// repetitions of `query` per burst.
    pub fn connect(
        addr: std::net::SocketAddr,
        sessions: usize,
        queries: usize,
        query: &'static str,
        options: wireproto::ClientOptions,
    ) -> SessionFleet {
        let (done_tx, done) = std::sync::mpsc::channel();
        let mut go = Vec::with_capacity(sessions);
        let handles = (0..sessions)
            .map(|_| {
                let (tx, rx) = std::sync::mpsc::channel::<()>();
                go.push(tx);
                let done_tx = done_tx.clone();
                std::thread::spawn(move || {
                    let mut client =
                        match Client::connect_tcp_with(addr, "monetdb", "monetdb", "demo", options)
                        {
                            Ok(c) => c,
                            Err(e) => {
                                let _ = done_tx.send(Err(format!("connect: {e}")));
                                return;
                            }
                        };
                    while rx.recv().is_ok() {
                        let mut outcome = Ok(());
                        for _ in 0..queries {
                            if let Err(e) = client.query(query) {
                                outcome = Err(e.to_string());
                                break;
                            }
                        }
                        let _ = done_tx.send(outcome);
                    }
                })
            })
            .collect();
        SessionFleet { go, done, handles }
    }

    /// Release every session for one round of queries; returns when all
    /// have completed. Panics on any session error.
    pub fn burst(&self) {
        for tx in &self.go {
            tx.send(()).unwrap();
        }
        for _ in 0..self.go.len() {
            self.done.recv().unwrap().unwrap();
        }
    }

    /// Disconnect the fleet and join its threads.
    pub fn join(self) {
        drop(self.go);
        for h in self.handles {
            h.join().unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_rows() {
        let rendered = render_table1();
        assert!(rendered.contains("| Eclipse            |        25.2% | IDE"));
        assert!(rendered.contains("| PyCharm            |         2.3% | IDE"));
        assert!(rendered.contains("| Vim                |         7.9% | Text Editor"));
        assert_eq!(TABLE1.len(), 12);
    }

    #[test]
    fn table1_market_shares_sum_plausibly() {
        let total: f64 = TABLE1.iter().map(|(_, s, _)| s).sum();
        assert!((total - 92.2).abs() < 0.01, "paper rows sum to {total}");
    }

    #[test]
    fn listing4_body_is_buggy_and_fix_is_correct() {
        let db = Engine::new();
        seed_numbers(&db, 50);
        db.execute(&create_mean_deviation(LISTING4_BODY)).unwrap();
        let buggy = db
            .execute("SELECT mean_deviation(i) FROM numbers")
            .unwrap()
            .into_table()
            .unwrap();
        match buggy.row(0)[0] {
            monetlite::SqlValue::Double(d) => assert!(d.abs() < 1e-9),
            ref other => panic!("{other:?}"),
        }
        db.execute(&create_mean_deviation(MEAN_DEVIATION_FIXED_BODY))
            .unwrap();
        let fixed = db
            .execute("SELECT mean_deviation(i) FROM numbers")
            .unwrap()
            .into_table()
            .unwrap();
        match fixed.row(0)[0] {
            monetlite::SqlValue::Double(d) => assert!(d > 0.0),
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bench_server_and_session_wire_up() {
        let server = bench_server(100);
        let mut dev = bench_session(&server, "selftest");
        dev.import_all().unwrap();
        let outcome = dev.run_udf("mean_deviation").unwrap();
        assert!(matches!(outcome.result, Value::Float(_)));
        std::fs::remove_dir_all(dev.project.root()).ok();
        server.shutdown();
    }
}
