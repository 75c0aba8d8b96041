//! Local execution and interactive debugging of UDFs (paper §2.1–§2.3).
//!
//! "Running the UDF in the interactive debugger will execute the function
//! locally on the developers' machine instead of remotely inside the
//! database server." The input data is fetched through the server-side
//! extract function, stored as `input.bin` in the project, and the
//! transformed script runs in a pylite interpreter whose `_conn` is the
//! engine's own [`LoopbackConn`], answered by [`LocalConn`] — which
//! forwards plain loopback queries to the live connection and runs *nested
//! UDFs locally* (§2.3).

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use monetlite::engine::{collect_call_names, function_def};
use monetlite::sql::{parse_statement, Statement};
use monetlite::udf::{self, loopback_error, Loopback, LoopbackConn};
use monetlite::{DbError, FunctionDef, QueryResult};
use pylite::{Debugger, Interp, PyError, Value};
use wireproto::message::WireResult;
use wireproto::{EngineTransport, TransferOptions, TransferStats};

use crate::session::DevUdf;
use crate::transform;
use crate::{DevUdfError, Result};

/// Outcome of a local (non-interactive) run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Repr of the `result` global after the harness ran.
    pub result_repr: String,
    /// The raw result value.
    pub result: Value,
    /// Captured `print` output.
    pub stdout: String,
}

/// Outcome of a debug session (the pause trail lives in the `Debugger` the
/// caller installed).
#[derive(Debug, Clone)]
pub struct DebugOutcome {
    /// `Some` if execution ran to completion; `None` if the user quit.
    pub run: Option<RunOutcome>,
    /// Number of pauses that occurred.
    pub pauses: usize,
}

/// Fetch the input data for `udf` via the extract function and store it as
/// `input.bin` (paper §2.2): a wire extract's pickle goes in as it arrived,
/// an embedded extract's value is pickled here.
pub fn fetch_inputs(dev: &mut DevUdf, udf: &str) -> Result<TransferStats> {
    let mut span = obs::trace::span("core.extract");
    span.field("udf", udf);
    if dev.settings.debug_query.trim().is_empty() {
        return Err(DevUdfError::Config(
            "no debug SQL query configured (Settings → SQL Query)".to_string(),
        ));
    }
    let options = dev.settings.transfer_options();
    let query = dev.settings.debug_query.clone();
    let (inputs, stats) = dev
        .client()
        .borrow_mut()
        .extract_inputs(&query, udf, options)?;
    dev.project.write_input_bin(&inputs.into_pickle()?)?;
    dev.transfers.borrow_mut().push(stats);
    Ok(stats)
}

/// Run an imported UDF locally, under `debugger` when given. Fetches
/// inputs automatically when `input.bin` is missing.
pub fn run_local(
    dev: &mut DevUdf,
    name: &str,
    debugger: Option<Rc<RefCell<Debugger>>>,
) -> Result<RunOutcome> {
    let mut span = obs::trace::span("core.run");
    span.field("udf", name);
    if !dev.project.has_udf(name) {
        return Err(DevUdfError::Transform(format!(
            "UDF '{name}' is not imported (Import UDFs first)"
        )));
    }
    if !dev.project.fs_provider().exists(transform::INPUT_BIN) {
        fetch_inputs(dev, name)?;
    }
    let script = dev.project.read_udf(name)?;

    let mut interp = Interp::with_fs(dev.project.fs_provider());
    interp.set_step_budget(udf::STEP_BUDGET);
    interp.set_exec_mode(dev.settings.interp.pylite_mode());
    let conn = LocalConn::new(dev, debugger.clone());
    interp.set_global("_conn", LoopbackConn::value(Rc::new(conn)));
    if let Some(d) = debugger {
        interp.set_hook(d);
    }
    let eval = interp.eval_module(&script);
    let stdout = interp.take_stdout();
    match eval {
        Ok(_) => {
            let result = interp.get_global("result").unwrap_or(Value::None);
            Ok(RunOutcome {
                result_repr: result.repr(),
                result,
                stdout,
            })
        }
        Err(e) => Err(DevUdfError::Python(e)),
    }
}

/// Per-line profile of one local UDF run (paper §2.1's "IDE amenities"
/// applied to performance: the hot lines of the very script the
/// developer is editing).
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// The run whose execution was profiled.
    pub outcome: RunOutcome,
    /// Per-(function, line) hit/time rows, sorted by (function, line).
    pub rows: Vec<obs::profile::ProfileRow>,
    /// The script source annotated with hits and time per line.
    pub annotated: String,
    /// Lines of the script's loops that compile to typed loop kernels.
    /// The armed profiler turns kernels off, so the profiled run executed
    /// them statement by statement; unprofiled, they run as kernels.
    pub kernel_loops: Vec<u32>,
}

/// Run an imported UDF locally with the line profiler armed: activates
/// `obs::profile` around the run, then joins the per-line counters back
/// onto the script's source text. Requires telemetry to be enabled
/// (`obs::set_enabled(true)`, the default); switched off, the report's
/// rows are empty.
pub fn profile_local(dev: &mut DevUdf, name: &str) -> Result<ProfileReport> {
    let mut span = obs::trace::span("core.profile");
    span.field("udf", name);
    obs::profile::reset();
    obs::profile::set_active(true);
    let run = run_local(dev, name, None);
    obs::profile::set_active(false);
    let rows = obs::profile::rows();
    obs::profile::reset();
    let outcome = run?;
    let script = dev.project.read_udf(name)?;
    let body = pylite::parse_module(&script).map(|m| m.body);
    let kernel_loops = pylite::kernel::loops(body.as_deref().unwrap_or_default())
        .into_iter()
        .filter(|l| l.kernel.is_ok())
        .map(|l| l.line)
        .collect();
    Ok(ProfileReport {
        outcome,
        annotated: annotate_profile(&script, &rows),
        rows,
        kernel_loops,
    })
}

/// Join profile rows onto source text: every line gets a `hits` and
/// `time` gutter, filled for the lines that executed. Rows are matched
/// by line number across all frames, so a `def`'d helper's body lines
/// annotate too.
fn annotate_profile(source: &str, rows: &[obs::profile::ProfileRow]) -> String {
    use std::fmt::Write;
    let mut by_line: std::collections::HashMap<u32, (u64, u64)> = std::collections::HashMap::new();
    for r in rows {
        let entry = by_line.entry(r.line).or_insert((0, 0));
        entry.0 += r.hits;
        entry.1 += r.ns;
    }
    let mut out = String::new();
    let _ = writeln!(out, "{:>8} {:>12}  │ source", "hits", "time");
    for (idx, text) in source.lines().enumerate() {
        let line = idx as u32 + 1;
        match by_line.get(&line) {
            Some((hits, ns)) => {
                let _ = writeln!(out, "{hits:>8} {:>12}  │ {text}", obs::trace::fmt_ns(*ns));
            }
            None => {
                let _ = writeln!(out, "{:>8} {:>12}  │ {text}", "", "");
            }
        }
    }
    out
}

/// Run an imported UDF under the interactive debugger. A `Quit` command
/// terminates execution without error (like stopping a debug session in the
/// IDE).
pub fn debug_local(
    dev: &mut DevUdf,
    name: &str,
    debugger: Rc<RefCell<Debugger>>,
) -> Result<DebugOutcome> {
    let _span = obs::trace::span("core.debug");
    match run_local(dev, name, Some(debugger.clone())) {
        Ok(run) => Ok(DebugOutcome {
            run: Some(run),
            pauses: debugger.borrow().pause_count(),
        }),
        Err(DevUdfError::Python(e)) if e.message.contains("terminated by debugger") => {
            Ok(DebugOutcome {
                run: None,
                pauses: debugger.borrow().pause_count(),
            })
        }
        Err(e) => Err(e),
    }
}

/// The local loopback router (paper §2.3) behind a local run's `_conn`: a
/// statement that invokes a stored UDF runs that UDF *locally*, on inputs
/// extracted from the server, so nested UDFs are debuggable too; every
/// other statement goes to the live connection. It answers with the
/// engine's own result type, and [`LoopbackConn`] turns that into what the
/// UDF sees, exactly as inside the server.
#[derive(Clone)]
pub struct LocalConn {
    client: Rc<RefCell<dyn EngineTransport>>,
    /// The server's functions, learned on the first statement that calls
    /// any function.
    functions: Rc<RefCell<ServerFunctions>>,
    options: TransferOptions,
    transfers: Rc<RefCell<Vec<TransferStats>>>,
    /// Debugger propagated into nested UDF runs.
    debugger: Option<Rc<RefCell<Debugger>>>,
    fs: Rc<dyn pylite::FsProvider>,
    /// Engine selection propagated into nested UDF interpreters.
    exec_mode: pylite::ExecMode,
    /// UDF runs active in the whole local run, the top-level one included,
    /// held to the engine's limit ([`udf::check_depth`]).
    depth: Rc<Cell<usize>>,
    /// What nested runs printed since `_conn` last took it.
    stdout: Rc<RefCell<String>>,
}

/// What a local run knows of the server's functions.
#[derive(Default)]
struct ServerFunctions {
    /// Every function's name, fetched once.
    names: Option<Vec<String>>,
    /// The definitions of the functions a statement invoked, by lower-cased
    /// name.
    defs: HashMap<String, FunctionDef>,
}

impl LocalConn {
    fn new(dev: &DevUdf, debugger: Option<Rc<RefCell<Debugger>>>) -> LocalConn {
        LocalConn {
            client: dev.client(),
            functions: Rc::default(),
            options: dev.settings.transfer_options(),
            transfers: dev.transfers.clone(),
            debugger,
            fs: dev.project.fs_provider(),
            exec_mode: dev.settings.interp.pylite_mode(),
            depth: Rc::new(Cell::new(1)),
            stdout: Rc::default(),
        }
    }

    /// The stored UDF `stmt` invokes, if any, found as the server's
    /// classifier and `EXPLAIN` find calls.
    fn invoked_udf(&self, stmt: &Statement) -> std::result::Result<Option<FunctionDef>, PyError> {
        let calls = collect_call_names(stmt);
        if calls.is_empty() {
            return Ok(None);
        }
        let mut functions = self.functions.borrow_mut();
        if functions.names.is_none() {
            let names = self.client.borrow_mut().list_functions();
            functions.names = Some(names.map_err(loopback_error)?);
        }
        let names = functions.names.as_deref().unwrap_or_default();
        let Some(name) = calls
            .iter()
            .find_map(|c| names.iter().find(|n| n.eq_ignore_ascii_case(c)))
            .cloned()
        else {
            return Ok(None);
        };
        let key = name.to_ascii_lowercase();
        if let Some(def) = functions.defs.get(&key) {
            return Ok(Some(def.clone()));
        }
        let info = self
            .client
            .borrow_mut()
            .get_function(&name)
            .map_err(loopback_error)?;
        let create = transform::to_create_statement(&info, &info.body);
        let def = parse_statement(&create)
            .and_then(|stmt| function_def(&stmt))
            .map_err(loopback_error)?;
        functions.defs.insert(key, def.clone());
        Ok(Some(def))
    }

    /// Run `def` in a fresh interpreter on the inputs `sql` hands it on the
    /// server, and shape its value by its declared return type.
    fn run_nested(
        &self,
        sql: &str,
        def: &FunctionDef,
    ) -> std::result::Result<QueryResult, PyError> {
        udf::check_depth(self.depth.get()).map_err(loopback_error)?;
        let (inputs, stats) = self
            .client
            .borrow_mut()
            .extract_inputs(sql, &def.name, self.options)
            .map_err(loopback_error)?;
        self.transfers.borrow_mut().push(stats);
        let Value::Dict(d) = &inputs.into_value()? else {
            return Err(loopback_error("extracted inputs were not a dict"));
        };

        // Same _conn (deeper nesting keeps working) and same debugger
        // (stepping descends into nested UDFs).
        let mut interp = Interp::with_fs(self.fs.clone());
        interp.set_step_budget(udf::STEP_BUDGET);
        interp.set_exec_mode(self.exec_mode);
        for (k, v) in d.borrow().entries() {
            interp.set_global(&k.py_str(), v.clone());
        }
        interp.set_global("_conn", LoopbackConn::value(Rc::new(self.clone())));
        if let Some(d) = &self.debugger {
            interp.set_hook(d.clone());
        }
        let mut span = obs::trace::span("core.run.nested");
        span.field("udf", &def.name);
        span.field("depth", self.depth.get());
        self.depth.set(self.depth.get() + 1);
        let value = interp.eval_module(&def.body);
        self.depth.set(self.depth.get() - 1);
        drop(span);
        self.stdout.borrow_mut().push_str(&interp.take_stdout());
        let value = value.map_err(|e| loopback_error(DbError::udf(&e)))?;
        udf::output_to_table(def, &value)
            .map(QueryResult::Table)
            .map_err(loopback_error)
    }
}

impl Loopback for LocalConn {
    /// A statement that does not parse invokes no UDF: it goes to the
    /// server, whose error then reaches the UDF.
    fn execute(&self, sql: &str) -> std::result::Result<QueryResult, PyError> {
        if let Ok(stmt) = parse_statement(sql) {
            if let Some(def) = self.invoked_udf(&stmt)? {
                return self.run_nested(sql, &def);
            }
        }
        self.client
            .borrow_mut()
            .query(sql)
            .and_then(WireResult::into_query_result)
            .map_err(loopback_error)
    }

    fn take_stdout(&self) -> String {
        std::mem::take(&mut self.stdout.borrow_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::settings::Settings;
    use pylite::DebugCommand;
    use wireproto::{Server, ServerConfig};

    const MEAN_DEVIATION_BUGGY: &str = "CREATE FUNCTION mean_deviation(column INTEGER) RETURNS DOUBLE LANGUAGE PYTHON {\nmean = 0\nfor i in range(0, len(column)):\n    mean += column[i]\nmean = mean / len(column)\ndistance = 0\nfor i in range(0, len(column)):\n    distance += column[i] - mean\ndeviation = distance / len(column)\nreturn deviation\n}";

    fn demo_server() -> Server {
        Server::start(ServerConfig::new("demo", "monetdb", "monetdb"), |db| {
            db.execute("CREATE TABLE numbers (i INTEGER)").unwrap();
            db.execute("INSERT INTO numbers VALUES (1), (2), (3), (4), (5), (6)")
                .unwrap();
            db.execute(MEAN_DEVIATION_BUGGY).unwrap();
        })
    }

    fn temp_dev(server: &Server, tag: &str) -> DevUdf {
        let dir = std::env::temp_dir().join(format!(
            "devudf-debug-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let mut settings = Settings::default();
        settings.debug_query = "SELECT mean_deviation(i) FROM numbers".to_string();
        DevUdf::connect_in_proc(server, settings, &dir).unwrap()
    }

    #[test]
    fn traced_fetch_inputs_is_one_tree_down_to_the_server_command() {
        // Captures and the enable flag are process-global: serialize with
        // every other telemetry-recording test.
        let _serial = obs::metrics::test_lock();
        obs::set_enabled(true);
        let server = demo_server();
        let mut dev = temp_dev(&server, "traced-fetch");
        dev.import_all().unwrap();
        let (stats, spans) = obs::trace::capture(|| dev.fetch_inputs("mean_deviation"));
        assert!(stats.unwrap().raw_len > 0);
        let roots = obs::trace::assemble(&spans);
        assert_eq!(roots.len(), 1, "{spans:?}");
        assert_eq!(roots[0].record.name, "core.extract");
        assert_eq!(roots[0].len(), spans.len());
        let span = |name: &str| spans.iter().find(|r| r.name == name).unwrap();
        let call = span("client.extract_delta");
        let wire = span("client.wire");
        let cmd = span("server.command");
        assert_eq!(call.parent, roots[0].record.id);
        assert_eq!(wire.parent, call.id);
        assert_eq!(cmd.parent, wire.id);
        assert!(
            cmd.fields
                .contains(&("command".to_string(), "extract_delta".to_string())),
            "{:?}",
            cmd.fields
        );
        server.shutdown();
    }

    #[test]
    fn fetch_inputs_writes_input_bin() {
        let server = demo_server();
        let mut dev = temp_dev(&server, "fetch");
        dev.import_all().unwrap();
        let stats = dev.fetch_inputs("mean_deviation").unwrap();
        assert!(stats.raw_len > 0);
        let blob = std::fs::read(dev.project.root().join("input.bin")).unwrap();
        let inputs = pylite::pickle::loads(&blob).unwrap();
        let Value::Dict(d) = inputs else { panic!() };
        let col = d.borrow().get(&Value::str("column")).unwrap().unwrap();
        match col {
            Value::Array(a) => assert_eq!(a.len(), 6),
            other => panic!("{other:?}"),
        }
        std::fs::remove_dir_all(dev.project.root()).ok();
        server.shutdown();
    }

    #[test]
    fn run_local_executes_buggy_udf() {
        let server = demo_server();
        let mut dev = temp_dev(&server, "run");
        dev.import_all().unwrap();
        let outcome = dev.run_udf("mean_deviation").unwrap();
        // The buggy version returns ~0 on symmetric data.
        match outcome.result {
            Value::Float(f) => assert!(f.abs() < 1e-9, "got {f}"),
            other => panic!("{other:?}"),
        }
        std::fs::remove_dir_all(dev.project.root()).ok();
        server.shutdown();
    }

    #[test]
    fn debug_local_hits_breakpoint_in_body() {
        let server = demo_server();
        let mut dev = temp_dev(&server, "bp");
        dev.import_all().unwrap();
        // Breakpoint on the buggy accumulation line: body line 7 ⇒ file
        // line 7 + BODY_LINE_OFFSET.
        let file_line = 7 + transform::BODY_LINE_OFFSET;
        let dbg = Debugger::scripted(vec![DebugCommand::Continue; 12]);
        dbg.borrow_mut().add_breakpoint(file_line);
        let outcome = dev.debug_udf("mean_deviation", dbg.clone()).unwrap();
        assert!(outcome.run.is_some());
        assert_eq!(outcome.pauses, 6, "loop body runs once per row");
        let d = dbg.borrow();
        assert_eq!(d.pauses()[0].function, "mean_deviation");
        // Locals at the pause expose the running `distance`.
        assert!(d.pauses()[2]
            .locals
            .iter()
            .any(|(n, v)| n == "distance" && v.starts_with('-')));
        std::fs::remove_dir_all(dev.project.root()).ok();
        server.shutdown();
    }

    #[test]
    fn debug_quit_terminates_cleanly() {
        let server = demo_server();
        let mut dev = temp_dev(&server, "quit");
        dev.import_all().unwrap();
        let dbg = Debugger::scripted(vec![DebugCommand::Quit]);
        dbg.borrow_mut().break_on_entry = true;
        let outcome = dev.debug_udf("mean_deviation", dbg).unwrap();
        assert!(outcome.run.is_none());
        assert_eq!(outcome.pauses, 1);
        std::fs::remove_dir_all(dev.project.root()).ok();
        server.shutdown();
    }

    #[test]
    fn run_udf_without_import_errors() {
        let server = demo_server();
        let mut dev = temp_dev(&server, "unimported");
        let err = dev.run_udf("mean_deviation").unwrap_err();
        assert!(matches!(err, DevUdfError::Transform(_)));
        std::fs::remove_dir_all(dev.project.root()).ok();
        server.shutdown();
    }

    #[test]
    fn missing_debug_query_is_config_error() {
        let server = demo_server();
        let dir = std::env::temp_dir().join(format!("devudf-debug-noq-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let settings = Settings::default(); // empty debug_query
        let mut dev = DevUdf::connect_in_proc(&server, settings, &dir).unwrap();
        dev.import_all().unwrap();
        assert!(matches!(
            dev.run_udf("mean_deviation").unwrap_err(),
            DevUdfError::Config(_)
        ));
        std::fs::remove_dir_all(&dir).ok();
        server.shutdown();
    }

    #[test]
    fn local_conn_forwards_plain_loopback_queries() {
        let server = Server::start(ServerConfig::new("demo", "monetdb", "monetdb"), |db| {
            db.execute("CREATE TABLE numbers (i INTEGER)").unwrap();
            db.execute("INSERT INTO numbers VALUES (10), (20)").unwrap();
            db.execute(
                "CREATE FUNCTION uses_loopback(column INTEGER) RETURNS INTEGER LANGUAGE PYTHON {\nres = _conn.execute('SELECT i FROM numbers')\nreturn sum(res['i'])\n}",
            )
            .unwrap();
        });
        let dir = std::env::temp_dir().join(format!("devudf-debug-loop-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let mut settings = Settings::default();
        settings.debug_query = "SELECT uses_loopback(i) FROM numbers".to_string();
        let mut dev = DevUdf::connect_in_proc(&server, settings, &dir).unwrap();
        dev.import_all().unwrap();
        let outcome = dev.run_udf("uses_loopback").unwrap();
        assert_eq!(outcome.result, Value::Int(30));
        std::fs::remove_dir_all(&dir).ok();
        server.shutdown();
    }

    #[test]
    fn local_run_emits_nested_phase_spans() {
        // Subscribers and the enable flag are process-global: serialize
        // with every other telemetry-recording test.
        let _serial = obs::metrics::test_lock();
        obs::set_enabled(true);
        let server = Server::start(ServerConfig::new("demo", "monetdb", "monetdb"), |db| {
            db.execute("CREATE TABLE numbers (i INTEGER)").unwrap();
            db.execute("INSERT INTO numbers VALUES (10), (20)").unwrap();
            db.execute(
                "CREATE FUNCTION inner_fn(column INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return sum(column) }",
            )
            .unwrap();
            db.execute(
                "CREATE FUNCTION outer_fn(column INTEGER) RETURNS INTEGER LANGUAGE PYTHON {\nres = _conn.execute('SELECT inner_fn(i) FROM numbers')\ntotal = 0\nfor v in res:\n    total += v\nreturn total\n}",
            )
            .unwrap();
        });
        let dir = std::env::temp_dir().join(format!("devudf-debug-spans-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let mut settings = Settings::default();
        settings.debug_query = "SELECT outer_fn(i) FROM numbers".to_string();
        let mut dev = DevUdf::connect_in_proc(&server, settings, &dir).unwrap();
        dev.import_all().unwrap();

        let shared = std::sync::Arc::new(obs::trace::RingBufferRecorder::new(256));
        obs::trace::add_subscriber(shared.clone());
        let outcome = dev.run_udf("outer_fn").unwrap();
        obs::trace::clear_subscribers();
        assert_eq!(outcome.result, Value::Int(30));

        type SpanRow = (String, usize, Vec<(String, String)>);
        let spans: Vec<SpanRow> = shared
            .events()
            .iter()
            .filter_map(|e| match e {
                obs::trace::Event::Span {
                    name,
                    depth,
                    fields,
                    ..
                } => Some((name.to_string(), *depth, fields.clone())),
                _ => None,
            })
            .collect();
        // Other tests may run concurrently while telemetry is enabled and
        // emit their own spans into the shared subscriber: select ours by
        // the udf field, not by arrival order.
        let has_udf = |fields: &[(String, String)], udf: &str| {
            fields.iter().any(|(k, v)| k == "udf" && v == udf)
        };
        let run = spans
            .iter()
            .find(|(n, _, f)| n == "core.run" && has_udf(f, "outer_fn"))
            .unwrap();
        let nested = spans
            .iter()
            .find(|(n, _, f)| n == "core.run.nested" && has_udf(f, "inner_fn"))
            .unwrap();
        // The nested span opened while core.run was live: depth > core.run's.
        assert!(nested.1 > run.1, "nested {} vs run {}", nested.1, run.1);
        assert!(nested.2.iter().any(|(k, v)| k == "depth" && v == "1"));
        // Extract happened under the hood too (input.bin was missing).
        assert!(spans.iter().any(|(n, _, _)| n == "core.extract"));
        std::fs::remove_dir_all(&dir).ok();
        server.shutdown();
    }

    /// A watch whose `_conn.execute` runs a nested UDF runs it in a second
    /// interpreter that shares the debugger. Its statements neither pause
    /// nor re-enter the debugger evaluating the watch, in either engine,
    /// while the real nested run still stops at its breakpoint.
    #[test]
    fn watch_running_a_nested_udf_does_not_reenter_the_debugger() {
        for mode in [crate::InterpMode::Ast, crate::InterpMode::Bytecode] {
            let server = Server::start(ServerConfig::new("demo", "monetdb", "monetdb"), |db| {
                db.execute("CREATE TABLE numbers (i INTEGER)").unwrap();
                db.execute("INSERT INTO numbers VALUES (10), (20)").unwrap();
                db.execute(
                    "CREATE FUNCTION inner_fn(column INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return sum(column) }",
                )
                .unwrap();
                db.execute(
                    "CREATE FUNCTION outer_fn(column INTEGER) RETURNS INTEGER LANGUAGE PYTHON {\nres = _conn.execute('SELECT inner_fn(i) FROM numbers')\ntotal = 0\nfor v in res:\n    total += v\nreturn total\n}",
                )
                .unwrap();
            });
            let mut dev = temp_dev(&server, &format!("nested-watch-{}", mode.as_str()));
            dev.settings.debug_query = "SELECT outer_fn(i) FROM numbers".to_string();
            dev.settings.interp = mode;
            dev.import_all().unwrap();
            let dbg = Debugger::scripted(vec![]);
            {
                let mut d = dbg.borrow_mut();
                // Line 1: the script's `import pickle`, and inner_fn's
                // body in the nested interpreter.
                d.add_breakpoint(1);
                d.add_breakpoint(5 + transform::BODY_LINE_OFFSET); // `return total`
                d.add_watch("_conn.execute('SELECT inner_fn(i) FROM numbers')");
            }
            let outcome = dev.debug_udf("outer_fn", dbg.clone()).unwrap();
            assert_eq!(outcome.run.unwrap().result, Value::Int(30));
            let d = dbg.borrow();
            let trail: Vec<_> = d
                .pauses()
                .iter()
                .map(|p| (p.line, p.function.as_str(), p.watches[0].1.as_str()))
                .collect();
            let watch = "<result_set 1 column(s) x 1 row(s)>";
            assert_eq!(
                trail,
                vec![
                    (1, "<module>", watch),
                    (1, "<module>", watch),
                    (8, "outer_fn", watch)
                ],
                "{}",
                mode.as_str()
            );
            std::fs::remove_dir_all(dev.project.root()).ok();
            server.shutdown();
        }
    }

    #[test]
    fn profile_local_counts_loop_line_hits() {
        let _serial = obs::metrics::test_lock();
        obs::set_enabled(true);
        let server = demo_server();
        let mut dev = temp_dev(&server, "prof");
        dev.import_all().unwrap();
        let report = dev.profile_udf("mean_deviation").unwrap();
        // The accumulation line runs once per row: body line 7 ⇒ file
        // line 7 + BODY_LINE_OFFSET (same arithmetic as breakpoints).
        let loop_line = 7 + transform::BODY_LINE_OFFSET;
        let row = report
            .rows
            .iter()
            .find(|r| r.line == loop_line)
            .unwrap_or_else(|| panic!("no row for line {loop_line}: {:?}", report.rows));
        // Exactly 6 from our run; the profiler switch is process-global,
        // so a concurrent test's mean_deviation run may add whole extra
        // multiples of 6 — never a partial count.
        assert!(
            row.hits >= 6 && row.hits % 6 == 0,
            "loop body runs once per row: {row:?}"
        );
        // The annotated listing carries the hit count next to the source.
        let annotated_line = report
            .annotated
            .lines()
            .find(|l| l.contains("distance += column[i] - mean"))
            .unwrap();
        assert!(
            annotated_line
                .trim_start()
                .starts_with(|c: char| c.is_ascii_digit()),
            "{annotated_line}"
        );
        // Both Listing-4 loops (body lines 2 and 6) run as kernels when
        // unprofiled; the armed profiler turned them off for this run.
        let offset = transform::BODY_LINE_OFFSET;
        assert_eq!(report.kernel_loops, [2 + offset, 6 + offset]);
        std::fs::remove_dir_all(dev.project.root()).ok();
        server.shutdown();
    }

    #[test]
    fn transfer_options_respected_on_fetch() {
        let server = demo_server();
        let mut dev = temp_dev(&server, "opts");
        dev.settings.transfer.compress = true;
        dev.settings.transfer.encrypt = true;
        dev.import_all().unwrap();
        let stats = dev.fetch_inputs("mean_deviation").unwrap();
        assert!(stats.raw_len > 0);
        // Running still works on the (transparently decoded) data.
        let outcome = dev.run_udf("mean_deviation").unwrap();
        assert!(matches!(outcome.result, Value::Float(_)));
        assert_eq!(dev.transfer_log().len(), 1);
        std::fs::remove_dir_all(dev.project.root()).ok();
        server.shutdown();
    }
}
