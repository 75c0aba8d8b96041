//! Local execution and interactive debugging of UDFs (paper §2.1–§2.3).
//!
//! "Running the UDF in the interactive debugger will execute the function
//! locally on the developers' machine instead of remotely inside the
//! database server." The input data is fetched through the server-side
//! extract function, stored as `input.bin` in the project, and the
//! transformed script runs in a pylite interpreter whose `_conn` is rewired
//! to [`LocalConn`] — which forwards plain loopback queries to the live
//! connection and runs *nested UDFs locally* (§2.3).

use std::cell::RefCell;
use std::rc::Rc;

use pylite::value::{Dict, NativeObject};
use pylite::{pickle, Array, Debugger, Interp, PyError, Value};
use wireproto::client::FunctionInfo;
use wireproto::message::{WireResult, WireTable, WireValue};
use wireproto::{EngineTransport, TransferOptions, TransferStats};

use crate::nested;
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

/// The statement budget of every local run, nested UDFs included: a
/// runaway loop fails instead of hanging the IDE.
pub const STEP_BUDGET: u64 = 200_000_000;

/// Fetch the input data for `udf` via the extract function and store it as
/// `input.bin` (paper §2.2).
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
    let blob = pickle::dumps(&inputs).map_err(DevUdfError::Python)?;
    dev.project.write_input_bin(&blob)?;
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
    interp.set_step_budget(STEP_BUDGET);
    interp.set_exec_mode(dev.settings.interp.pylite_mode());
    let conn = LocalConn::new(dev, debugger.clone());
    interp.set_global("_conn", Value::Native(Rc::new(conn)));
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
}

/// Run an imported UDF locally with the line profiler armed: activates
/// `obs::profile` around the run, then joins the per-line counters back
/// onto the script's source text. Requires telemetry to be enabled
/// (`obs::set_enabled(true)`, the default); with the `telemetry` feature
/// off the report's rows are empty.
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
    Ok(ProfileReport {
        outcome,
        annotated: annotate_profile(&script, &rows),
        rows,
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

/// The local `_conn` replacement (paper §2.3): plain loopback queries go to
/// the live server connection (transferring their results); queries that
/// invoke a known UDF run that UDF *locally*, on inputs extracted from the
/// server — so nested UDFs are debuggable too.
pub struct LocalConn {
    client: Rc<RefCell<dyn EngineTransport>>,
    /// Known server functions (name → metadata), for nested-call detection.
    functions: Vec<FunctionInfo>,
    options: TransferOptions,
    transfers: Rc<RefCell<Vec<TransferStats>>>,
    /// Debugger propagated into nested UDF runs.
    debugger: Option<Rc<RefCell<Debugger>>>,
    fs: Rc<dyn pylite::FsProvider>,
    /// Engine selection propagated into nested UDF interpreters.
    exec_mode: pylite::ExecMode,
    /// Shared nesting depth across the whole local run (each nested UDF
    /// spawns a fresh interpreter, so interpreter-level recursion guards
    /// cannot see loopback cycles).
    depth: Rc<RefCell<usize>>,
}

/// Maximum local nested-UDF depth (mirrors the engine-side guard).
const MAX_LOCAL_UDF_DEPTH: usize = 12;

impl LocalConn {
    fn new(dev: &DevUdf, debugger: Option<Rc<RefCell<Debugger>>>) -> LocalConn {
        let names = dev
            .client()
            .borrow_mut()
            .list_functions()
            .unwrap_or_default();
        let mut functions = Vec::with_capacity(names.len());
        for n in &names {
            if let Ok(info) = dev.client().borrow_mut().get_function(n) {
                functions.push(info);
            }
        }
        LocalConn {
            client: dev.client(),
            functions,
            options: dev.settings.transfer_options(),
            transfers: dev.transfers.clone(),
            debugger,
            fs: dev.project.fs_provider(),
            exec_mode: dev.settings.interp.pylite_mode(),
            depth: Rc::new(RefCell::new(0)),
        }
    }

    fn function_names(&self) -> Vec<String> {
        self.functions.iter().map(|f| f.name.clone()).collect()
    }

    fn execute_sql(&self, sql: &str) -> std::result::Result<Value, PyError> {
        let py_err = |m: String| PyError::new(pylite::ErrorKind::Value, m);

        // Nested UDF? Run it locally on extracted inputs.
        let known = self.function_names();
        let invoked = nested::udfs_in_sql(sql, &known);
        if let Some(udf_name) = invoked.first() {
            if *self.depth.borrow() >= MAX_LOCAL_UDF_DEPTH {
                return Err(py_err(format!(
                    "maximum nested-UDF depth exceeded ({MAX_LOCAL_UDF_DEPTH}) — loopback recursion?"
                )));
            }
            let info = self
                .functions
                .iter()
                .find(|f| f.name.eq_ignore_ascii_case(udf_name))
                .expect("invoked name came from this list")
                .clone();
            let (inputs, stats) = self
                .client
                .borrow_mut()
                .extract_inputs(sql, &info.name, self.options)
                .map_err(|e| py_err(format!("nested extract failed: {e}")))?;
            self.transfers.borrow_mut().push(stats);
            let Value::Dict(d) = &inputs else {
                return Err(py_err("extracted inputs were not a dict".to_string()));
            };

            // Fresh interpreter, same _conn (deeper nesting keeps working)
            // and same debugger (stepping descends into nested UDFs).
            let mut interp = Interp::with_fs(self.fs.clone());
            interp.set_step_budget(STEP_BUDGET);
            interp.set_exec_mode(self.exec_mode);
            for (k, v) in d.borrow().entries() {
                interp.set_global(&k.py_str(), v.clone());
            }
            interp.set_global(
                "_conn",
                Value::Native(Rc::new(LocalConn {
                    client: self.client.clone(),
                    functions: self.functions.clone(),
                    options: self.options,
                    transfers: self.transfers.clone(),
                    debugger: self.debugger.clone(),
                    fs: self.fs.clone(),
                    exec_mode: self.exec_mode,
                    depth: self.depth.clone(),
                })),
            );
            if let Some(d) = &self.debugger {
                interp.set_hook(d.clone());
            }
            let mut span = obs::trace::span("core.run.nested");
            span.field("udf", &info.name);
            span.field("depth", *self.depth.borrow() + 1);
            *self.depth.borrow_mut() += 1;
            let value = interp.eval_module(&info.body);
            *self.depth.borrow_mut() -= 1;
            drop(span);
            return Ok(local_result_set(value?));
        }

        // Plain data query: forward to the server.
        let result = self
            .client
            .borrow_mut()
            .query(sql)
            .map_err(|e| py_err(format!("loopback query failed: {e}")))?;
        match result {
            WireResult::Table(t) => Ok(table_result_set(&t)),
            WireResult::Affected { message, .. } => Err(py_err(format!(
                "loopback statement produced no result set ({message})"
            ))),
        }
    }
}

impl NativeObject for LocalConn {
    fn type_name(&self) -> &'static str {
        "monetdb_connection"
    }

    fn repr(&self) -> String {
        "<devudf local connection>".to_string()
    }

    fn call_method(
        &self,
        name: &str,
        _interp: &mut Interp,
        args: &[Value],
        _kwargs: &[(String, Value)],
    ) -> std::result::Result<Value, PyError> {
        match name {
            "execute" => {
                let Some(Value::Str(sql)) = args.first() else {
                    return Err(PyError::new(
                        pylite::ErrorKind::Type,
                        "_conn.execute() takes a SQL string",
                    ));
                };
                self.execute_sql(sql)
            }
            other => Err(PyError::new(
                pylite::ErrorKind::Attribute,
                format!("'monetdb_connection' object has no method '{other}'"),
            )),
        }
    }
}

/// Wrap a local UDF's return value the way server loopback results are
/// wrapped: dicts become name-addressable result sets; everything else is
/// a single-column result.
pub fn local_result_set(value: Value) -> Value {
    Value::Native(Rc::new(LocalResultSet { value }))
}

/// Convert a wire table into a result-set value (columns as arrays; 1-row
/// columns collapse to scalars, mirroring `monetlite`'s loopback behaviour).
pub fn table_result_set(t: &WireTable) -> Value {
    let mut d = Dict::new();
    for (idx, (name, _)) in t.columns.iter().enumerate() {
        let values: Vec<Value> = t.rows.iter().map(|r| wire_to_py(&r[idx])).collect();
        let v = column_value(values);
        d.insert(Value::str(name.clone()), v)
            .expect("string keys are hashable");
    }
    local_result_set(Value::dict(d))
}

fn wire_to_py(v: &WireValue) -> Value {
    match v {
        WireValue::Null => Value::None,
        WireValue::Int(i) => Value::Int(*i),
        WireValue::Double(d) => Value::Float(*d),
        WireValue::Str(s) => Value::str(s.clone()),
        WireValue::Bool(b) => Value::Bool(*b),
        WireValue::Blob(b) => Value::bytes(b.clone()),
    }
}

/// Build the friendliest value for a column: scalar when single-row, a
/// typed array when possible, else a plain list.
fn column_value(values: Vec<Value>) -> Value {
    if values.len() == 1 {
        return values.into_iter().next().expect("len checked");
    }
    match Array::from_values(&values) {
        Ok(a) => Value::array(a),
        Err(_) => Value::list(values),
    }
}

/// Result-set wrapper for local values.
struct LocalResultSet {
    value: Value,
}

impl NativeObject for LocalResultSet {
    fn type_name(&self) -> &'static str {
        "result_set"
    }

    fn repr(&self) -> String {
        format!("<local result_set {}>", self.value.repr())
    }

    fn iterate(&self) -> Option<Vec<Value>> {
        match &self.value {
            Value::Dict(d) => Some(d.borrow().values()),
            other => Some(vec![other.clone()]),
        }
    }

    fn call_method(
        &self,
        name: &str,
        _interp: &mut Interp,
        args: &[Value],
        _kwargs: &[(String, Value)],
    ) -> std::result::Result<Value, PyError> {
        match name {
            "__getitem__" => {
                let key = args.first().cloned().unwrap_or(Value::None);
                match &self.value {
                    Value::Dict(d) => d
                        .borrow()
                        .get(&key)?
                        .ok_or_else(|| PyError::new(pylite::ErrorKind::Key, key.repr())),
                    other => Err(PyError::new(
                        pylite::ErrorKind::Type,
                        format!("result of type '{}' is not keyed", other.type_name()),
                    )),
                }
            }
            "keys" => match &self.value {
                Value::Dict(d) => Ok(Value::list(d.borrow().keys())),
                _ => Ok(Value::list(vec![])),
            },
            other => Err(PyError::new(
                pylite::ErrorKind::Attribute,
                format!("'result_set' object has no method '{other}'"),
            )),
        }
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
        let inputs = pickle::loads(&blob).unwrap();
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
            let watch = "<local result_set 30>";
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
