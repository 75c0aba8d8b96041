//! The database engine facade.

use std::cell::RefCell;
use std::rc::Rc;

use pylite::fs::{FsProvider, MemFs};
use pylite::value::Dict;
use pylite::Value;

use crate::catalog::{Catalog, FunctionDef, FunctionReturn};
use crate::error::{DbError, ErrorCode};
use crate::exec;
use crate::inline::{self, UdfPlan};
use crate::sql::ast::{FunctionReturnAst, Statement};
use crate::sql::parse_statement;
use crate::table::Table;
use crate::types::SqlValue;
use crate::udf::UdfInput;

/// UDF invocation model (paper §2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionModel {
    /// MonetDB style: the UDF runs once with whole columns.
    #[default]
    OperatorAtATime,
    /// Postgres/MySQL style: the UDF runs once per input row.
    TupleAtATime,
}

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// A SELECT result.
    Table(Table),
    /// DDL/DML acknowledgement.
    Affected { rows: usize, message: String },
}

impl QueryResult {
    /// The result table, if this was a query.
    pub fn table(&self) -> Option<&Table> {
        match self {
            QueryResult::Table(t) => Some(t),
            QueryResult::Affected { .. } => None,
        }
    }

    /// Consume into a table, erroring for non-queries.
    pub fn into_table(self) -> Result<Table, DbError> {
        match self {
            QueryResult::Table(t) => Ok(t),
            QueryResult::Affected { message, .. } => Err(DbError::exec(format!(
                "statement produced no result set ({message})"
            ))),
        }
    }
}

/// Marker error message used to abort execution once extraction captured
/// the UDF inputs (never surfaces to callers).
const EXTRACT_SIGNAL: &str = "__devudf_extract_complete__";

struct Inner {
    catalog: Catalog,
    model: ExecutionModel,
    exec_mode: pylite::ExecMode,
    fs: Rc<dyn FsProvider>,
    udf_step_budget: u64,
    /// Lower-cased UDF name whose inputs should be captured instead of
    /// executing it.
    extract_request: Option<String>,
    extracted: Option<Vec<(String, UdfInput)>>,
    /// `print` output of UDFs during the last top-level statement.
    udf_stdout: String,
    /// UDF runs active now (see [`crate::udf::MAX_DEPTH`]).
    udf_depth: usize,
    /// Froid-style UDF inlining toggle (`--interp=inline`, the default).
    /// When off, every UDF goes through the interpreter.
    inline: bool,
    /// Cached per-function inlining decisions, keyed by lower-cased name
    /// and validated against `Catalog::functions_epoch` so CREATE OR
    /// REPLACE / DROP invalidate them.
    plan_cache: std::collections::HashMap<String, (u64, Rc<UdfPlan>)>,
    /// Whether an `EXPLAIN ANALYZE` is executing (nesting is an error).
    analyzing: bool,
}

/// Operator rows kept per ANALYZE run — a loopback-recursive statement
/// must not render unbounded plan rows.
const ANALYZE_ROW_CAP: usize = 4096;

/// The engine. Cheap to clone (shared state); single-threaded by design —
/// the wire server owns one engine on a dedicated thread.
#[derive(Clone)]
pub struct Engine {
    inner: Rc<RefCell<Inner>>,
    /// When active, every `get_table` records the (lower-cased) table name —
    /// the dependency set behind `extract_inputs_with_deps`. Kept outside
    /// `Inner` so logging a read never contends with an engine borrow.
    read_log: Rc<RefCell<Option<std::collections::BTreeSet<String>>>>,
    /// The WAL/snapshot pair of a persistent engine ([`Engine::open`]);
    /// `None` for the usual in-memory engine. Kept outside `Inner` so a
    /// WAL append after a statement never contends with an engine borrow.
    storage: Rc<RefCell<Option<crate::storage::Storage>>>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// New empty engine with an in-memory filesystem for COPY INTO / UDF IO.
    pub fn new() -> Self {
        Self::with_fs(Rc::new(MemFs::new()))
    }

    /// New engine over a caller-provided filesystem.
    pub fn with_fs(fs: Rc<dyn FsProvider>) -> Self {
        Engine {
            inner: Rc::new(RefCell::new(Inner {
                catalog: Catalog::new(),
                model: ExecutionModel::OperatorAtATime,
                exec_mode: pylite::ExecMode::default(),
                fs,
                udf_step_budget: crate::udf::STEP_BUDGET,
                extract_request: None,
                extracted: None,
                udf_stdout: String::new(),
                udf_depth: 0,
                inline: true,
                plan_cache: std::collections::HashMap::new(),
                analyzing: false,
            })),
            read_log: Rc::new(RefCell::new(None)),
            storage: Rc::new(RefCell::new(None)),
        }
    }

    /// Open (creating if needed) a **persistent** engine on a directory
    /// with default [`StorageOptions`](crate::storage::StorageOptions): load the snapshot if one exists,
    /// replay the WAL tail, then start logging new mutations. See
    /// [`crate::storage`] for file formats and recovery rules.
    pub fn open(dir: impl AsRef<std::path::Path>) -> Result<Engine, DbError> {
        Self::open_with(dir, crate::storage::StorageOptions::default())
    }

    /// [`Engine::open`] with explicit fsync policy and snapshot cadence.
    pub fn open_with(
        dir: impl AsRef<std::path::Path>,
        options: crate::storage::StorageOptions,
    ) -> Result<Engine, DbError> {
        let (storage, recovery) = crate::storage::Storage::open(dir.as_ref(), options)?;
        let engine = Engine::new();
        if let Some(catalog) = recovery.catalog {
            engine.inner.borrow_mut().catalog = catalog;
        }
        // Replay runs *before* the storage handle is attached, so replayed
        // statements are never re-logged.
        for sql in &recovery.wal {
            engine
                .execute(sql)
                .map_err(|e| DbError::storage(format!("WAL replay failed for {sql:?}: {e}")))?;
        }
        *engine.storage.borrow_mut() = Some(storage);
        Ok(engine)
    }

    /// Persistence counters of a persistent engine (`None` otherwise).
    pub fn storage_stats(&self) -> Option<crate::storage::StorageStats> {
        self.storage.borrow().as_ref().map(|s| s.stats())
    }

    /// Fold the catalog into a snapshot and truncate the WAL. Errors on an
    /// in-memory engine — checkpointing nothing is a caller bug.
    pub fn checkpoint(&self) -> Result<crate::storage::StorageStats, DbError> {
        let mut slot = self.storage.borrow_mut();
        let storage = slot.as_mut().ok_or_else(|| {
            DbError::storage("engine has no storage directory (use Engine::open)")
        })?;
        let inner = self.inner.borrow();
        storage.checkpoint(&inner.catalog)?;
        Ok(storage.stats())
    }

    /// WAL hook: called after a successful top-level statement that moved
    /// the catalog version. No-op for in-memory engines.
    fn persist(&self, sql: &str) -> Result<(), DbError> {
        let mut slot = self.storage.borrow_mut();
        let Some(storage) = slot.as_mut() else {
            return Ok(());
        };
        storage.append(sql)?;
        if storage.should_checkpoint() {
            let inner = self.inner.borrow();
            storage.checkpoint(&inner.catalog)?;
        }
        Ok(())
    }

    /// Capture an epoch-stamped, `Send + Sync` snapshot of the catalog and
    /// engine settings for concurrent readers (see [`crate::snapshot`]).
    pub fn snapshot(&self) -> crate::snapshot::EngineSnapshot {
        let inner = self.inner.borrow();
        crate::snapshot::EngineSnapshot {
            epoch: inner.catalog.version(),
            catalog: inner.catalog.clone(),
            model: inner.model,
            exec_mode: inner.exec_mode,
            udf_step_budget: inner.udf_step_budget,
            inline: inner.inline,
        }
    }

    /// Build a private engine over a snapshot's state (reader hydration).
    pub fn from_snapshot(snap: &crate::snapshot::EngineSnapshot) -> Engine {
        let engine = Engine::new();
        {
            let mut inner = engine.inner.borrow_mut();
            inner.catalog = snap.catalog.clone();
            inner.model = snap.model;
            inner.exec_mode = snap.exec_mode;
            inner.udf_step_budget = snap.udf_step_budget;
            inner.inline = snap.inline;
        }
        engine
    }

    /// The catalog's global mutation counter (the snapshot epoch).
    pub fn catalog_version(&self) -> u64 {
        self.inner.borrow().catalog.version()
    }

    /// Run `f` with a shared borrow of the live catalog (command
    /// classification, the wire server's scheduler).
    pub fn with_catalog<R>(&self, f: impl FnOnce(&Catalog) -> R) -> R {
        f(&self.inner.borrow().catalog)
    }

    /// Install the live-session source backing `sys.sessions`.
    pub fn set_session_source(&self, source: crate::catalog::SessionSource) {
        self.inner.borrow_mut().catalog.set_session_source(source);
    }

    /// Switch the UDF invocation model.
    pub fn set_model(&self, model: ExecutionModel) {
        self.inner.borrow_mut().model = model;
    }

    pub fn model(&self) -> ExecutionModel {
        self.inner.borrow().model
    }

    /// Switch the pylite engine UDF bodies run on (bytecode VM vs. AST
    /// walker). The walker is kept as a differential-testing oracle.
    pub fn set_exec_mode(&self, mode: pylite::ExecMode) {
        self.inner.borrow_mut().exec_mode = mode;
    }

    pub fn exec_mode(&self) -> pylite::ExecMode {
        self.inner.borrow().exec_mode
    }

    /// Toggle Froid-style UDF inlining (on by default). Off means every
    /// call runs through the pylite interpreter configured by
    /// [`Engine::set_exec_mode`].
    pub fn set_inline(&self, enabled: bool) {
        self.inner.borrow_mut().inline = enabled;
    }

    pub fn inline_enabled(&self) -> bool {
        self.inner.borrow().inline
    }

    /// The inlining decision for a stored function: with inlining off,
    /// interpreted for that reason; otherwise the cached plan, recomputed
    /// whenever the function catalog's epoch moves (CREATE OR REPLACE,
    /// DROP).
    pub fn udf_plan(&self, def: &FunctionDef) -> Rc<UdfPlan> {
        if !self.inline_enabled() {
            return Rc::new(UdfPlan::Interpreted(inline::Bail::Disabled));
        }
        let key = def.name.to_ascii_lowercase();
        let epoch = self.inner.borrow().catalog.functions_epoch();
        if let Some((cached_epoch, plan)) = self.inner.borrow().plan_cache.get(&key) {
            if *cached_epoch == epoch {
                return plan.clone();
            }
        }
        let plan = Rc::new(inline::plan_udf(def));
        self.inner
            .borrow_mut()
            .plan_cache
            .insert(key, (epoch, plan.clone()));
        plan
    }

    /// Seed consumed by UDFs' `random` module and the mini-sklearn forest
    /// (one constant, so every engine draws the same sequences).
    pub fn rng_seed(&self) -> u64 {
        0x5eed_cafe
    }

    /// Statement budget applied to each UDF run (infinite-loop guard).
    pub fn udf_step_budget(&self) -> u64 {
        self.inner.borrow().udf_step_budget
    }

    pub fn set_udf_step_budget(&self, budget: u64) {
        self.inner.borrow_mut().udf_step_budget = budget;
    }

    /// The filesystem visible to UDFs and COPY INTO.
    pub fn fs(&self) -> Rc<dyn FsProvider> {
        self.inner.borrow().fs.clone()
    }

    /// `print` output produced by UDFs during the last top-level `execute`
    /// call, in the order they printed — the paper's "print debugging"
    /// channel (§2.5 step 3).
    pub fn take_udf_stdout(&self) -> String {
        std::mem::take(&mut self.inner.borrow_mut().udf_stdout)
    }

    pub(crate) fn append_udf_stdout(&self, text: &str) {
        self.inner.borrow_mut().udf_stdout.push_str(text);
    }

    /// Enter a UDF execution; errors when loopback nesting runs away.
    pub(crate) fn enter_udf(&self) -> Result<UdfDepthGuard, DbError> {
        let mut inner = self.inner.borrow_mut();
        crate::udf::check_depth(inner.udf_depth)?;
        inner.udf_depth += 1;
        Ok(UdfDepthGuard {
            engine: self.clone(),
        })
    }

    // ------------------------------------------------------------------
    // Catalog access (scoped borrows so UDF execution can re-enter)
    // ------------------------------------------------------------------

    pub fn get_table(&self, name: &str) -> Result<Table, DbError> {
        if let Some(log) = self.read_log.borrow_mut().as_mut() {
            log.insert(name.to_ascii_lowercase());
        }
        self.inner.borrow().catalog.table(name)
    }

    /// The invalidation epoch for `name` (see [`Catalog::table_epoch`]).
    pub fn table_epoch(&self, name: &str) -> Option<u64> {
        self.inner.borrow().catalog.table_epoch(name)
    }

    pub fn get_function(&self, name: &str) -> Result<Option<FunctionDef>, DbError> {
        Ok(self.inner.borrow().catalog.function(name).cloned())
    }

    pub fn function_names(&self) -> Vec<String> {
        self.inner.borrow().catalog.function_names()
    }

    /// Hand a call's `inputs` to a pending extract of `fn_name` (§2.2),
    /// which stops the call with the extract signal; any other call gets
    /// its inputs back.
    pub(crate) fn intercept(
        &self,
        fn_name: &str,
        inputs: Vec<(String, UdfInput)>,
    ) -> Result<Vec<(String, UdfInput)>, DbError> {
        let mut inner = self.inner.borrow_mut();
        let requested = inner.extract_request.as_deref();
        if !requested.is_some_and(|r| r.eq_ignore_ascii_case(fn_name)) {
            return Ok(inputs);
        }
        inner.extracted = Some(inputs);
        Err(DbError::exec(EXTRACT_SIGNAL))
    }

    // ------------------------------------------------------------------
    // Statement execution
    // ------------------------------------------------------------------

    /// Parse and execute one SQL statement.
    pub fn execute(&self, sql: &str) -> Result<QueryResult, DbError> {
        let stmt = parse_statement(sql)?;
        obs::counter!("monet.queries.parsed").inc();
        // Logical WAL logging: record the SQL text of every successful
        // *top-level* statement that moved the catalog version. Loopback
        // statements (depth ≥ 1) are excluded — replaying the outer
        // statement re-runs the UDF and reproduces them; logging both
        // would double-apply. A top-level statement also starts the UDF
        // output afresh; a loopback statement's reaches its caller's.
        let (version_before, depth) = {
            let mut inner = self.inner.borrow_mut();
            if inner.udf_depth == 0 {
                inner.udf_stdout.clear();
            }
            (inner.catalog.version(), inner.udf_depth)
        };
        let result = self.run(&stmt);
        if result.is_ok() {
            obs::counter!("monet.queries.executed").inc();
            if depth == 0 && self.catalog_version() != version_before {
                self.persist(sql)?;
            }
        }
        result
    }

    fn run(&self, stmt: &Statement) -> Result<QueryResult, DbError> {
        match stmt {
            Statement::CreateTable { name, columns } => {
                let table = Table::new(name.clone(), columns);
                self.inner.borrow_mut().catalog.create_table(table)?;
                Ok(QueryResult::Affected {
                    rows: 0,
                    message: format!("table '{name}' created"),
                })
            }
            Statement::DropTable { name, if_exists } => {
                self.inner
                    .borrow_mut()
                    .catalog
                    .drop_table(name, *if_exists)?;
                Ok(QueryResult::Affected {
                    rows: 0,
                    message: format!("table '{name}' dropped"),
                })
            }
            Statement::CreateFunction {
                or_replace, name, ..
            } => {
                let def = function_def(stmt)?;
                self.inner
                    .borrow_mut()
                    .catalog
                    .create_function(def, *or_replace)?;
                Ok(QueryResult::Affected {
                    rows: 0,
                    message: format!("function '{name}' created"),
                })
            }
            Statement::DropFunction { name, if_exists } => {
                self.inner
                    .borrow_mut()
                    .catalog
                    .drop_function(name, *if_exists)?;
                Ok(QueryResult::Affected {
                    rows: 0,
                    message: format!("function '{name}' dropped"),
                })
            }
            Statement::Insert {
                table,
                columns,
                rows,
            } => self.run_insert(table, columns.as_deref(), rows),
            Statement::Delete { table, predicate } => self.run_delete(table, predicate.as_ref()),
            Statement::Update {
                table,
                assignments,
                predicate,
            } => self.run_update(table, assignments, predicate.as_ref()),
            Statement::CopyInto {
                table,
                path,
                delimiter,
            } => self.run_copy_into(table, path, *delimiter),
            Statement::Select(sel) => Ok(QueryResult::Table(exec::run_select(self, sel)?)),
            Statement::Explain(inner_stmt) => self.run_explain(inner_stmt),
            Statement::ExplainAnalyze(inner_stmt) => self.run_explain_analyze(inner_stmt),
        }
    }

    /// `EXPLAIN ANALYZE <stmt>`: execute the statement for real inside an
    /// [`obs::trace::capture`] and render its `monet.op.*` spans — one row
    /// per executed operator with wall time and row counts, plus a `udf`
    /// row per stored-UDF call carrying its inlined/bailed/interpreted
    /// disposition and, when its body entered a kernel-candidate loop, the
    /// loop entries lifted and bailed — as the result table. The leading
    /// `query` row carries the end-to-end total, so every operator time is
    /// ≤ it. The spans are passed on to any enclosing capture; with
    /// telemetry off there are none and the `query` row stands alone.
    fn run_explain_analyze(&self, stmt: &Statement) -> Result<QueryResult, DbError> {
        if matches!(stmt, Statement::Explain(_) | Statement::ExplainAnalyze(_)) {
            return Err(DbError::parse("EXPLAIN ANALYZE cannot wrap EXPLAIN"));
        }
        if std::mem::replace(&mut self.inner.borrow_mut().analyzing, true) {
            return Err(DbError::exec("EXPLAIN ANALYZE cannot nest"));
        }
        let started = std::time::Instant::now();
        let (run, spans) = obs::trace::capture(|| self.run(stmt));
        let total_ns = started.elapsed().as_nanos() as u64;
        self.inner.borrow_mut().analyzing = false;
        let table = run.and_then(|result| analyze_table(stmt, &result, total_ns, &spans));
        obs::trace::extend_capture(spans);
        Ok(QueryResult::Table(table?))
    }

    /// `EXPLAIN <stmt>`: one row per stored UDF the statement references,
    /// annotated with the Inlined/Interpreted plan decision, each followed
    /// by one `loop <udf>:<line>` row per loop of its body: `kernel` when
    /// the VM runs it as a typed loop kernel, else the static reason.
    fn run_explain(&self, stmt: &Statement) -> Result<QueryResult, DbError> {
        let mut table = Table::new(
            "explain".to_string(),
            &[
                ("object".to_string(), crate::types::SqlType::String),
                ("plan".to_string(), crate::types::SqlType::String),
            ],
        );
        table.push_row(&[
            SqlValue::Str("statement".to_string()),
            SqlValue::Str(statement_kind(stmt).to_string()),
        ])?;
        let mut seen = std::collections::BTreeSet::new();
        for name in collect_call_names(stmt) {
            let Some(def) = self.get_function(&name)? else {
                continue;
            };
            if !seen.insert(def.name.to_ascii_lowercase()) {
                continue;
            }
            table.push_row(&[
                SqlValue::Str(format!("udf {}", def.name)),
                SqlValue::Str(self.udf_plan(&def).describe()),
            ])?;
            let body = pylite::parse_module(&def.body).map(|m| m.body);
            for lp in pylite::kernel::loops(body.as_deref().unwrap_or_default()) {
                let plan = match lp.kernel {
                    Ok(()) => "kernel".to_string(),
                    Err(bail) => format!("interpreted (bail: {})", bail.label()),
                };
                table.push_row(&[
                    SqlValue::Str(format!("loop {}:{}", def.name, lp.line)),
                    SqlValue::Str(plan),
                ])?;
            }
        }
        Ok(QueryResult::Table(table))
    }

    fn run_insert(
        &self,
        table_name: &str,
        columns: Option<&[String]>,
        rows: &[Vec<crate::sql::ast::SqlExpr>],
    ) -> Result<QueryResult, DbError> {
        // Evaluate row expressions first (no source table).
        let mut evaluated: Vec<Vec<SqlValue>> = Vec::with_capacity(rows.len());
        for row in rows {
            let mut out = Vec::with_capacity(row.len());
            for e in row {
                match exec::eval::eval_expr(self, None, e)? {
                    exec::Evaluated::Scalar(s) => out.push(s),
                    exec::Evaluated::Column(_) => {
                        return Err(DbError::exec("INSERT values must be scalars"))
                    }
                }
            }
            evaluated.push(out);
        }
        let mut inner = self.inner.borrow_mut();
        let schema = inner.catalog.table(table_name)?.schema();
        if let Some(cols) = columns {
            // Reorder values to the table's column order; unnamed columns
            // get NULL.
            let idx: Vec<usize> = cols
                .iter()
                .map(|c| {
                    schema
                        .iter()
                        .position(|(name, _)| name.eq_ignore_ascii_case(c))
                        .ok_or_else(|| {
                            DbError::catalog(format!("no such column '{c}' in '{table_name}'"))
                        })
                })
                .collect::<Result<_, _>>()?;
            for row in &mut evaluated {
                if row.len() != idx.len() {
                    return Err(DbError::exec("INSERT value count mismatch"));
                }
                let mut full = vec![SqlValue::Null; schema.len()];
                for (value, &slot) in row.drain(..).zip(&idx) {
                    full[slot] = value;
                }
                *row = full;
            }
        }
        let count = append_staged(&mut inner.catalog, table_name, &schema, &mut evaluated)?;
        Ok(QueryResult::Affected {
            rows: count,
            message: format!("{count} row(s) inserted"),
        })
    }

    fn run_delete(
        &self,
        table_name: &str,
        predicate: Option<&crate::sql::ast::SqlExpr>,
    ) -> Result<QueryResult, DbError> {
        let epoch = self.table_epoch(table_name);
        let table = self.get_table(table_name)?;
        let (keep, removed) = match predicate {
            None => (vec![false; table.row_count()], table.row_count()),
            Some(p) => {
                let span = obs::trace::span_active("monet.op.filter");
                let mut keep = exec::eval::predicate_mask(self, &table, p)?;
                keep.iter_mut().for_each(|k| *k = !*k);
                let removed = keep.iter().filter(|k| !**k).count();
                exec::finish_op(
                    span,
                    || "where".to_string(),
                    keep.len() as u64,
                    removed as u64,
                );
                (keep, removed)
            }
        };
        // Dropping the read leaves the segments unshared, so the write
        // copies nothing unless a snapshot holds them.
        drop(table);
        let mut inner = self.inner.borrow_mut();
        unchanged_since(&mut inner.catalog, table_name, epoch)?.retain_rows(&keep);
        Ok(QueryResult::Affected {
            rows: removed,
            message: format!("{removed} row(s) deleted"),
        })
    }

    fn run_update(
        &self,
        table_name: &str,
        assignments: &[(String, crate::sql::ast::SqlExpr)],
        predicate: Option<&crate::sql::ast::SqlExpr>,
    ) -> Result<QueryResult, DbError> {
        let epoch = self.table_epoch(table_name);
        let table = self.get_table(table_name)?;
        let rows: Vec<usize> = match predicate {
            None => (0..table.row_count()).collect(),
            Some(p) => {
                let span = obs::trace::span_active("monet.op.filter");
                let mask = exec::eval::predicate_mask(self, &table, p)?;
                let rows: Vec<usize> = mask
                    .iter()
                    .enumerate()
                    .filter_map(|(row, &hit)| hit.then_some(row))
                    .collect();
                exec::finish_op(
                    span,
                    || "where".to_string(),
                    mask.len() as u64,
                    rows.len() as u64,
                );
                rows
            }
        };
        // Evaluate each assignment columnar against the pre-update table and
        // coerce the new values, so a failed cast changes nothing.
        let mut writes = Vec::with_capacity(assignments.len());
        for (col_name, expr) in assignments {
            let idx = table
                .column_index(col_name)
                .ok_or_else(|| DbError::catalog(format!("no such column '{col_name}'")))?;
            let evaluated = exec::eval::eval_expr(self, Some(&table), expr)?;
            let target_type = table.columns[idx].sql_type();
            let values = rows
                .iter()
                .map(|&row| evaluated.get(row).coerce(target_type))
                .collect::<Result<Vec<_>, _>>()?;
            writes.push((idx, values));
        }
        let updated = rows.len();
        drop(table);
        let mut inner = self.inner.borrow_mut();
        let live = unchanged_since(&mut inner.catalog, table_name, epoch)?;
        for (idx, values) in writes {
            for (&row, value) in rows.iter().zip(values) {
                live.columns[idx].set(row, value);
            }
        }
        Ok(QueryResult::Affected {
            rows: updated,
            message: format!("{updated} row(s) updated"),
        })
    }

    /// CSV ingestion (`COPY INTO t FROM 'path'`), reading from the engine fs.
    fn run_copy_into(
        &self,
        table_name: &str,
        path: &str,
        delimiter: char,
    ) -> Result<QueryResult, DbError> {
        let data = self
            .fs()
            .read(path)
            .map_err(|e| DbError::load(format!("COPY INTO: {e}")))?;
        let text = String::from_utf8(data)
            .map_err(|_| DbError::load("COPY INTO: file is not valid UTF-8"))?;
        let mut inner = self.inner.borrow_mut();
        let schema = inner.catalog.table(table_name)?.schema();
        let mut rows = Vec::new();
        for (line_no, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(delimiter).collect();
            if fields.len() != schema.len() {
                return Err(DbError::load(format!(
                    "COPY INTO: line {} has {} fields, table '{}' has {} columns",
                    line_no + 1,
                    fields.len(),
                    table_name,
                    schema.len()
                )));
            }
            let row: Vec<SqlValue> = fields
                .iter()
                .map(|f| {
                    let t = f.trim();
                    if t.is_empty() || t.eq_ignore_ascii_case("null") {
                        SqlValue::Null
                    } else {
                        SqlValue::Str(t.to_string())
                    }
                })
                .collect();
            rows.push(row);
        }
        let count = append_staged(&mut inner.catalog, table_name, &schema, &mut rows)?;
        Ok(QueryResult::Affected {
            rows: count,
            message: format!("{count} row(s) loaded from '{path}'"),
        })
    }

    // ------------------------------------------------------------------
    // Input extraction (the paper's predefined extract function, §2.2)
    // ------------------------------------------------------------------

    /// Evaluate `query` but *intercept* the call to `udf_name`: instead of
    /// executing the UDF, capture its input columns/scalars and return them
    /// as a dict value `{param_name: column-or-scalar}` ready for pickling
    /// into `input.bin`.
    pub fn extract_inputs(&self, query: &str, udf_name: &str) -> Result<Value, DbError> {
        {
            let mut inner = self.inner.borrow_mut();
            inner.extract_request = Some(udf_name.to_string());
            inner.extracted = None;
        }
        let run = self.execute(query);
        let captured = {
            let mut inner = self.inner.borrow_mut();
            inner.extract_request = None;
            inner.extracted.take()
        };
        match run {
            Err(e) if e.message == EXTRACT_SIGNAL => {
                let inputs = captured
                    .ok_or_else(|| DbError::exec("extraction signal without captured inputs"))?;
                let mut dict = Dict::new();
                for (name, input) in inputs {
                    dict.insert(Value::str(name), input.into_py()?)
                        .map_err(|e| DbError::udf(&e))?;
                }
                Ok(Value::dict(dict))
            }
            Err(e) => Err(e),
            Ok(_) => Err(DbError::exec(format!(
                "query does not invoke UDF '{udf_name}'"
            ))),
        }
    }

    /// [`Engine::extract_inputs`] plus the extraction's dependency set: the
    /// `(table name, epoch)` pairs the delta cache must match for the result
    /// to still be valid. The UDF's own definition is always a dependency
    /// (reported as `sys.functions` at the function-catalog epoch).
    ///
    /// If the query read anything without a stable epoch (a volatile view
    /// such as `sys.metrics`, or a table dropped mid-query), the dependency
    /// set comes back **empty**, which callers must treat as "never provably
    /// unchanged" — the conservative answer, never the stale one.
    pub fn extract_inputs_with_deps(
        &self,
        query: &str,
        udf_name: &str,
    ) -> Result<(Value, Vec<(String, u64)>), DbError> {
        *self.read_log.borrow_mut() = Some(std::collections::BTreeSet::new());
        let result = self.extract_inputs(query, udf_name);
        let reads = self.read_log.borrow_mut().take().unwrap_or_default();
        let value = result?;
        let inner = self.inner.borrow();
        let mut deps = std::collections::BTreeMap::new();
        deps.insert("sys.functions".to_string(), inner.catalog.functions_epoch());
        for name in reads {
            match inner.catalog.table_epoch(&name) {
                Some(epoch) => {
                    deps.insert(name, epoch);
                }
                None => return Ok((value, Vec::new())),
            }
        }
        Ok((value, deps.into_iter().collect()))
    }
}

/// RAII guard decrementing the engine's UDF nesting depth.
pub(crate) struct UdfDepthGuard {
    engine: Engine,
}

impl Drop for UdfDepthGuard {
    fn drop(&mut self) {
        let mut inner = self.engine.inner.borrow_mut();
        inner.udf_depth = inner.udf_depth.saturating_sub(1);
    }
}

/// INSERT's and COPY INTO's one write step: cast every value of every row
/// to its column's type first, then append the rows, so a row that does not
/// cast leaves the table, and the catalog's version, as they were.
///
/// The rows are cast in place, not into staged columns: appending staged
/// columns moved glibc's heap layout enough to raise the embedded_durable
/// benchmark's peak RSS from about 17.7 to 22.2 MiB (measured on a 2-core
/// x86-64 Linux host, in 4 of 5 working directories).
fn append_staged(
    catalog: &mut Catalog,
    table_name: &str,
    schema: &[(String, crate::types::SqlType)],
    rows: &mut [Vec<SqlValue>],
) -> Result<usize, DbError> {
    for row in rows.iter_mut() {
        if row.len() != schema.len() {
            return Err(DbError::exec(format!(
                "row has {} values, table '{table_name}' has {} columns",
                row.len(),
                schema.len()
            )));
        }
        for (value, (_, t)) in row.iter_mut().zip(schema) {
            *value = value.coerce(*t)?;
        }
    }
    let table = catalog.table_mut(table_name)?;
    for (c, column) in table.columns.iter_mut().enumerate() {
        column.extend_coerced(rows.iter().map(|row| &row[c]));
    }
    Ok(rows.len())
}

/// The live table an UPDATE or DELETE writes in place, provided nothing
/// wrote it since its row positions were computed, when its catalog epoch
/// was `epoch`: a UDF's loopback write during evaluation bumps the epoch,
/// as every write does.
fn unchanged_since<'c>(
    catalog: &'c mut Catalog,
    table_name: &str,
    epoch: Option<u64>,
) -> Result<&'c mut Table, DbError> {
    if catalog.table_epoch(table_name) != epoch {
        return Err(DbError::exec(format!(
            "table '{table_name}' changed while the statement was evaluated"
        )));
    }
    catalog.table_mut(table_name)
}

/// The `EXPLAIN ANALYZE` result: the `query` total row, then one row per
/// captured `monet.op.<op>` span, in close order, from its `detail`,
/// `rows_in` and `rows_out` fields. A span an error abandoned before its
/// fields were set renders nothing.
fn analyze_table(
    stmt: &Statement,
    result: &QueryResult,
    total_ns: u64,
    spans: &[obs::trace::SpanRecord],
) -> Result<Table, DbError> {
    let mut table = Table::new(
        "explain analyze".to_string(),
        &[
            ("op".to_string(), crate::types::SqlType::String),
            ("detail".to_string(), crate::types::SqlType::String),
            ("time_ns".to_string(), crate::types::SqlType::Integer),
            ("rows_in".to_string(), crate::types::SqlType::Integer),
            ("rows_out".to_string(), crate::types::SqlType::Integer),
        ],
    );
    let result_rows = match result {
        QueryResult::Table(t) => t.row_count(),
        QueryResult::Affected { rows, .. } => *rows,
    };
    table.push_row(&[
        SqlValue::Str("query".to_string()),
        SqlValue::Str(statement_kind(stmt).to_string()),
        SqlValue::Int(total_ns as i64),
        SqlValue::Int(0),
        SqlValue::Int(result_rows as i64),
    ])?;
    let ops = spans.iter().filter_map(|span| {
        let op = span.name.strip_prefix("monet.op.")?;
        let count = |key| SqlValue::Int(span.field(key).and_then(|v| v.parse().ok()).unwrap_or(0));
        Some([
            SqlValue::Str(op.to_string()),
            SqlValue::Str(span.field("detail")?.to_string()),
            SqlValue::Int(span.duration_ns as i64),
            count("rows_in"),
            count("rows_out"),
        ])
    });
    for row in ops.take(ANALYZE_ROW_CAP) {
        table.push_row(&row)?;
    }
    Ok(table)
}

/// Human-readable statement kind (shared by EXPLAIN and EXPLAIN ANALYZE).
fn statement_kind(stmt: &Statement) -> &'static str {
    match stmt {
        Statement::Select(_) => "SELECT",
        Statement::Insert { .. } => "INSERT",
        Statement::Update { .. } => "UPDATE",
        Statement::Delete { .. } => "DELETE",
        Statement::Explain(_) | Statement::ExplainAnalyze(_) => "EXPLAIN",
        Statement::CreateTable { .. } | Statement::DropTable { .. } => "DDL",
        Statement::CreateFunction { .. } | Statement::DropFunction { .. } => "DDL",
        Statement::CopyInto { .. } => "COPY",
    }
}

/// The function a `CREATE FUNCTION` statement defines, as the engine stores
/// it: PYTHON only, the body normalized and checked to parse, so syntax
/// errors surface at CREATE time like MonetDB does.
pub fn function_def(stmt: &Statement) -> Result<FunctionDef, DbError> {
    let Statement::CreateFunction {
        name,
        params,
        returns,
        language,
        body,
        ..
    } = stmt
    else {
        return Err(DbError::parse("not a CREATE FUNCTION statement"));
    };
    if language != "PYTHON" {
        return Err(DbError::catalog(format!(
            "unsupported UDF language '{language}' (only PYTHON)"
        )));
    }
    let body = normalize_body(body);
    pylite::parse_module(&body).map_err(|e| DbError {
        code: ErrorCode::Parse,
        message: format!("function body: {e}"),
        traceback: Some(e.render()),
    })?;
    Ok(FunctionDef {
        name: name.clone(),
        params: params.clone(),
        returns: match returns {
            FunctionReturnAst::Scalar(t) => FunctionReturn::Scalar(*t),
            FunctionReturnAst::Table(cols) => FunctionReturn::Table(cols.clone()),
        },
        language: language.clone(),
        body,
    })
}

/// Collect every function-call name appearing in a statement (EXPLAIN, the
/// read/write classifier and devUDF's local loopback router use this to
/// find stored UDFs; builtin/aggregate names are filtered out by the
/// catalog lookup).
pub fn collect_call_names(stmt: &Statement) -> Vec<String> {
    use crate::sql::ast::{FromClause, SelectItem, SelectStmt, SqlExpr, TableFuncArg};

    fn from_expr(e: &SqlExpr, out: &mut Vec<String>) {
        match e {
            SqlExpr::Literal(_) | SqlExpr::Column(_) | SqlExpr::Star => {}
            SqlExpr::Unary { expr, .. } => from_expr(expr, out),
            SqlExpr::Binary { left, right, .. } => {
                from_expr(left, out);
                from_expr(right, out);
            }
            SqlExpr::Call { name, args } => {
                out.push(name.clone());
                for a in args {
                    from_expr(a, out);
                }
            }
            SqlExpr::Cast { expr, .. } => from_expr(expr, out),
            SqlExpr::IsNull { expr, .. } => from_expr(expr, out),
            SqlExpr::Like { expr, pattern, .. } => {
                from_expr(expr, out);
                from_expr(pattern, out);
            }
            SqlExpr::InList { expr, list, .. } => {
                from_expr(expr, out);
                for e in list {
                    from_expr(e, out);
                }
            }
            SqlExpr::Case { branches, else_ } => {
                for (c, v) in branches {
                    from_expr(c, out);
                    from_expr(v, out);
                }
                from_expr(else_, out);
            }
        }
    }

    fn from_from(f: &FromClause, out: &mut Vec<String>) {
        match f {
            FromClause::Table(_) => {}
            FromClause::TableFunction { name, args } => {
                out.push(name.clone());
                for a in args {
                    match a {
                        TableFuncArg::Query(q) => from_select(q, out),
                        TableFuncArg::Expr(e) => from_expr(e, out),
                    }
                }
            }
            FromClause::Subquery(q) => from_select(q, out),
            FromClause::Join {
                left, right, on, ..
            } => {
                from_from(left, out);
                from_from(right, out);
                from_expr(on, out);
            }
        }
    }

    fn from_select(sel: &SelectStmt, out: &mut Vec<String>) {
        for item in &sel.items {
            if let SelectItem::Expr { expr, .. } = item {
                from_expr(expr, out);
            }
        }
        if let Some(f) = &sel.from {
            from_from(f, out);
        }
        if let Some(p) = &sel.predicate {
            from_expr(p, out);
        }
        for g in &sel.group_by {
            from_expr(g, out);
        }
        if let Some(h) = &sel.having {
            from_expr(h, out);
        }
        for (o, _) in &sel.order_by {
            from_expr(o, out);
        }
    }

    let mut out = Vec::new();
    match stmt {
        Statement::Select(sel) => from_select(sel, &mut out),
        Statement::Insert { rows, .. } => {
            for row in rows {
                for e in row {
                    from_expr(e, &mut out);
                }
            }
        }
        Statement::Update {
            assignments,
            predicate,
            ..
        } => {
            for (_, e) in assignments {
                from_expr(e, &mut out);
            }
            if let Some(p) = predicate {
                from_expr(p, &mut out);
            }
        }
        Statement::Delete {
            predicate: Some(p), ..
        } => from_expr(p, &mut out),
        Statement::Explain(inner) | Statement::ExplainAnalyze(inner) => {
            out.extend(collect_call_names(inner))
        }
        _ => {}
    }
    out
}

/// Normalize a stored function body: strip a uniform leading indent and
/// surrounding blank lines so line numbers are stable and the body parses
/// regardless of how the CREATE FUNCTION statement was indented.
pub fn normalize_body(body: &str) -> String {
    let lines: Vec<&str> = body.lines().collect();
    // Trim leading/trailing blank lines.
    let first = lines.iter().position(|l| !l.trim().is_empty());
    let last = lines.iter().rposition(|l| !l.trim().is_empty());
    let (Some(first), Some(last)) = (first, last) else {
        return String::new();
    };
    let content = &lines[first..=last];
    let indent = content
        .iter()
        .filter(|l| !l.trim().is_empty())
        .map(|l| l.len() - l.trim_start().len())
        .min()
        .unwrap_or(0);
    let mut out = String::new();
    for line in content {
        if line.len() >= indent {
            out.push_str(&line[indent..]);
        } else {
            out.push_str(line.trim_start());
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine_with_numbers() -> Engine {
        let db = Engine::new();
        db.execute("CREATE TABLE t (i INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2), (3), (4), (5)")
            .unwrap();
        db
    }

    #[test]
    fn create_insert_select() {
        let db = engine_with_numbers();
        let r = db.execute("SELECT i FROM t WHERE i > 2").unwrap();
        let t = r.into_table().unwrap();
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.column(0).unwrap().get(0), SqlValue::Int(3));
    }

    #[test]
    fn expressions_and_aliases() {
        let db = engine_with_numbers();
        let t = db
            .execute("SELECT i * 2 AS doubled, i + 0.5 FROM t WHERE i <= 2")
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.columns[0].name, "doubled");
        assert_eq!(t.column(0).unwrap().get(1), SqlValue::Int(4));
        assert_eq!(t.column(1).unwrap().get(0), SqlValue::Double(1.5));
    }

    #[test]
    fn aggregates() {
        let db = engine_with_numbers();
        let t = db
            .execute("SELECT count(*), sum(i), avg(i), min(i), max(i), median(i) FROM t")
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.row(0)[0], SqlValue::Int(5));
        assert_eq!(t.row(0)[1], SqlValue::Int(15));
        assert_eq!(t.row(0)[2], SqlValue::Double(3.0));
        assert_eq!(t.row(0)[3], SqlValue::Int(1));
        assert_eq!(t.row(0)[4], SqlValue::Int(5));
        assert_eq!(t.row(0)[5], SqlValue::Double(3.0));
    }

    #[test]
    fn group_by() {
        let db = Engine::new();
        db.execute("CREATE TABLE s (g STRING, v INTEGER)").unwrap();
        db.execute("INSERT INTO s VALUES ('a', 1), ('b', 10), ('a', 2), ('b', 20)")
            .unwrap();
        let t = db
            .execute("SELECT g, sum(v) AS total FROM s GROUP BY g ORDER BY g")
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.row(0), vec![SqlValue::Str("a".into()), SqlValue::Int(3)]);
        assert_eq!(t.row(1), vec![SqlValue::Str("b".into()), SqlValue::Int(30)]);
    }

    #[test]
    fn order_by_and_limit() {
        let db = engine_with_numbers();
        let t = db
            .execute("SELECT i FROM t ORDER BY i DESC LIMIT 2")
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(
            t.rows(),
            vec![vec![SqlValue::Int(5)], vec![SqlValue::Int(4)]]
        );
    }

    #[test]
    fn select_without_from() {
        let db = Engine::new();
        let t = db
            .execute("SELECT 1 + 1, 'hi'")
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.row(0)[0], SqlValue::Int(2));
    }

    #[test]
    fn delete_and_update() {
        let db = engine_with_numbers();
        db.execute("DELETE FROM t WHERE i > 3").unwrap();
        let t = db
            .execute("SELECT count(*) FROM t")
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.row(0)[0], SqlValue::Int(3));
        db.execute("UPDATE t SET i = i * 10 WHERE i >= 2").unwrap();
        let t = db
            .execute("SELECT sum(i) FROM t")
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.row(0)[0], SqlValue::Int(51)); // 1 + 20 + 30
    }

    #[test]
    fn update_and_delete_write_in_place_unless_a_snapshot_shares_storage() {
        let db = engine_with_numbers();
        let storage = |db: &Engine| {
            db.with_catalog(|c| match &c.table("t").unwrap().columns[0].data {
                crate::types::ColumnData::Int(v) => v
                    .segments()
                    .iter()
                    .map(std::sync::Arc::as_ptr)
                    .collect::<Vec<_>>(),
                other => panic!("{other:?}"),
            })
        };
        let sum = |db: &Engine| {
            db.execute("SELECT sum(i), count(i) FROM t")
                .unwrap()
                .into_table()
                .unwrap()
                .row(0)
        };
        // A snapshot holds the storage: the write copies, the snapshot
        // keeps its rows.
        let snap = db.snapshot();
        let shared = storage(&db);
        db.execute("UPDATE t SET i = 10 WHERE i = 1").unwrap();
        assert_ne!(storage(&db), shared);
        assert_eq!(
            sum(&Engine::from_snapshot(&snap)),
            vec![SqlValue::Int(15), SqlValue::Int(5)]
        );
        drop(snap);
        // Unshared: UPDATE and DELETE reuse the storage; a failed cast
        // changes no row.
        let own = storage(&db);
        db.execute("UPDATE t SET i = NULL WHERE i = 2").unwrap();
        db.execute("DELETE FROM t WHERE i = 5").unwrap();
        assert!(db.execute("UPDATE t SET i = 'x' WHERE i = 3").is_err());
        assert_eq!(storage(&db), own);
        assert_eq!(sum(&db), vec![SqlValue::Int(17), SqlValue::Int(3)]);
        // A UDF that rewrites the table mid-UPDATE fails the statement
        // instead of writing to stale row positions.
        db.execute(
            "CREATE FUNCTION shrink(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {\ntry:\n    _conn.execute('DELETE FROM t WHERE i = 4')\nexcept:\n    pass\nreturn x\n}",
        )
        .unwrap();
        let err = db
            .execute("UPDATE t SET i = shrink(1) WHERE i = 3")
            .unwrap_err();
        assert!(err.message.contains("changed while"), "{}", err.message);
    }

    #[test]
    fn regression_integers_past_2_pow_53_compare_exactly() {
        // 2^53 and 2^53 + 1 round to the same f64, so ordered through f64
        // they tie: WHERE, IN, ORDER BY, UPDATE and DELETE must not.
        const P: i64 = 1 << 53;
        let db = Engine::new();
        db.execute("CREATE TABLE t (id INTEGER, w INTEGER, v INTEGER)")
            .unwrap();
        db.execute(&format!(
            "INSERT INTO t VALUES ({P}, {P}, 1), ({}, {P}, 2)",
            P + 1
        ))
        .unwrap();
        let vs = |sql: &str| -> Vec<SqlValue> {
            let t = db.execute(sql).unwrap().into_table().unwrap();
            t.rows().into_iter().map(|r| r[0].clone()).collect()
        };
        let two = [SqlValue::Int(2)];
        assert_eq!(vs(&format!("SELECT v FROM t WHERE id = {}", P + 1)), two);
        assert_eq!(vs(&format!("SELECT v FROM t WHERE id > {P}")), two);
        assert_eq!(vs(&format!("SELECT v FROM t WHERE {P} < id")), two);
        assert_eq!(vs(&format!("SELECT v FROM t WHERE id <> {P}")), two);
        assert_eq!(vs("SELECT v FROM t WHERE id > w"), two);
        assert_eq!(vs(&format!("SELECT v FROM t WHERE id IN ({})", P + 1)), two);
        assert_eq!(
            vs("SELECT v FROM t ORDER BY id DESC"),
            [SqlValue::Int(2), SqlValue::Int(1)]
        );
        let affected = |sql: &str| match db.execute(sql).unwrap() {
            QueryResult::Affected { rows, .. } => rows,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            affected(&format!("UPDATE t SET v = 99 WHERE id = {}", P + 1)),
            1
        );
        assert_eq!(
            vs("SELECT v FROM t ORDER BY v"),
            [SqlValue::Int(1), SqlValue::Int(99)]
        );
        assert_eq!(affected(&format!("DELETE FROM t WHERE id = {P}")), 1);
        assert_eq!(vs("SELECT v FROM t"), [SqlValue::Int(99)]);
    }

    #[test]
    fn scalar_python_udf_operator_at_a_time() {
        let db = engine_with_numbers();
        db.execute(
            "CREATE FUNCTION triple(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return i * 3 }",
        )
        .unwrap();
        let t = db
            .execute("SELECT triple(i) FROM t")
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.row_count(), 5);
        assert_eq!(t.column(0).unwrap().get(4), SqlValue::Int(15));
    }

    #[test]
    fn scalar_udf_reducing_column_yields_one_row() {
        let db = engine_with_numbers();
        db.execute(
            "CREATE FUNCTION colsum(i INTEGER) RETURNS DOUBLE LANGUAGE PYTHON { return sum(i) / 1.0 }",
        )
        .unwrap();
        let t = db
            .execute("SELECT colsum(i) FROM t")
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.row(0)[0], SqlValue::Double(15.0));
    }

    #[test]
    fn tuple_at_a_time_model() {
        let db = engine_with_numbers();
        db.set_model(ExecutionModel::TupleAtATime);
        db.execute(
            "CREATE FUNCTION inc(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return i + 1 }",
        )
        .unwrap();
        let t = db
            .execute("SELECT inc(i) FROM t")
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.row_count(), 5);
        assert_eq!(t.column(0).unwrap().get(0), SqlValue::Int(2));
    }

    #[test]
    fn udf_error_carries_traceback_line() {
        let db = engine_with_numbers();
        db.execute(
            "CREATE FUNCTION bad(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON {\nx = 1\nreturn x / 0\n}",
        )
        .unwrap();
        let err = db.execute("SELECT bad(i) FROM t").unwrap_err();
        assert_eq!(err.code, ErrorCode::Udf);
        assert!(err.traceback.unwrap().contains("line 2"));
    }

    #[test]
    fn udf_syntax_error_rejected_at_create_time() {
        let db = Engine::new();
        let err = db
            .execute(
                "CREATE FUNCTION oops(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return ((( }",
            )
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::Parse);
    }

    #[test]
    fn meta_tables_queryable() {
        let db = Engine::new();
        db.execute("CREATE FUNCTION f1(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return i }")
            .unwrap();
        let t = db
            .execute("SELECT name, func FROM sys.functions WHERE language = 'PYTHON'")
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.row_count(), 1);
        let t = db
            .execute("SELECT name FROM sys.args WHERE function = 'f1' ORDER BY position")
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.row(0)[0], SqlValue::Str("i".into()));
    }

    #[test]
    fn table_function_with_subquery_args() {
        let db = Engine::new();
        db.execute("CREATE TABLE pairs (a INTEGER, b INTEGER)")
            .unwrap();
        db.execute("INSERT INTO pairs VALUES (1, 10), (2, 20)")
            .unwrap();
        db.execute(
            "CREATE FUNCTION addtab(a INTEGER, b INTEGER, k INTEGER) RETURNS TABLE(s INTEGER) LANGUAGE PYTHON { return {'s': a + b + k} }",
        )
        .unwrap();
        let t = db
            .execute("SELECT * FROM addtab((SELECT a, b FROM pairs), 100)")
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.column(0).unwrap().get(1), SqlValue::Int(122));
    }

    #[test]
    fn loopback_query_from_udf() {
        let db = engine_with_numbers();
        db.execute(
            "CREATE FUNCTION via_loopback() RETURNS INTEGER LANGUAGE PYTHON {\nres = _conn.execute('SELECT sum(i) FROM t')\nreturn res['sum']\n}",
        )
        .unwrap();
        let t = db
            .execute("SELECT via_loopback()")
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.row(0)[0], SqlValue::Int(15));
    }

    #[test]
    fn copy_into_loads_csv() {
        let fs = Rc::new(MemFs::with_files(&[("data.csv", "1,x\n2,y\n3,z\n")]));
        let db = Engine::with_fs(fs);
        db.execute("CREATE TABLE c (i INTEGER, s STRING)").unwrap();
        let r = db.execute("COPY INTO c FROM 'data.csv'").unwrap();
        assert!(matches!(r, QueryResult::Affected { rows: 3, .. }));
        let t = db
            .execute("SELECT sum(i) FROM c")
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.row(0)[0], SqlValue::Int(6));
    }

    #[test]
    fn copy_into_field_count_mismatch() {
        let fs = Rc::new(MemFs::with_files(&[("bad.csv", "1,2\n")]));
        let db = Engine::with_fs(fs);
        db.execute("CREATE TABLE c (i INTEGER)").unwrap();
        let err = db.execute("COPY INTO c FROM 'bad.csv'").unwrap_err();
        assert_eq!(err.code, ErrorCode::Load);
    }

    #[test]
    fn extract_inputs_captures_udf_arguments() {
        let db = engine_with_numbers();
        db.execute(
            "CREATE FUNCTION mean_deviation(column INTEGER) RETURNS DOUBLE LANGUAGE PYTHON { return 0.0 }",
        )
        .unwrap();
        let v = db
            .extract_inputs("SELECT mean_deviation(i) FROM t", "mean_deviation")
            .unwrap();
        let Value::Dict(d) = v else {
            panic!("expected dict")
        };
        let col = d.borrow().get(&Value::str("column")).unwrap().unwrap();
        match col {
            Value::Array(a) => assert_eq!(a.len(), 5),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn extract_inputs_without_udf_call_errors() {
        let db = engine_with_numbers();
        db.execute("CREATE FUNCTION f(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return i }")
            .unwrap();
        let err = db.extract_inputs("SELECT i FROM t", "f").unwrap_err();
        assert!(err.message.contains("does not invoke"));
        // Engine still works afterwards.
        assert!(db.execute("SELECT f(i) FROM t").is_ok());
    }

    #[test]
    fn extract_inputs_for_table_function() {
        let db = Engine::new();
        db.execute("CREATE TABLE train (data INTEGER, labels INTEGER)")
            .unwrap();
        db.execute("INSERT INTO train VALUES (1, 0), (2, 1)")
            .unwrap();
        db.execute(
            "CREATE FUNCTION train_rf(data INTEGER, labels INTEGER, n INTEGER) RETURNS TABLE(m BLOB) LANGUAGE PYTHON { return {'m': pickle.dumps(1)} }",
        )
        .unwrap();
        let v = db
            .extract_inputs(
                "SELECT * FROM train_rf((SELECT data, labels FROM train), 10)",
                "train_rf",
            )
            .unwrap();
        let Value::Dict(d) = v else { panic!() };
        let d = d.borrow();
        assert!(matches!(
            d.get(&Value::str("n")).unwrap().unwrap(),
            Value::Int(10)
        ));
        assert!(matches!(
            d.get(&Value::str("data")).unwrap().unwrap(),
            Value::Array(_)
        ));
    }

    #[test]
    fn extract_with_deps_reports_read_tables_and_function_epoch() {
        let db = engine_with_numbers();
        db.execute(
            "CREATE FUNCTION md(column INTEGER) RETURNS DOUBLE LANGUAGE PYTHON { return 0.0 }",
        )
        .unwrap();
        let (_, deps) = db
            .extract_inputs_with_deps("SELECT md(i) FROM t", "md")
            .unwrap();
        let names: Vec<&str> = deps.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"t"), "deps {names:?} must include 't'");
        assert!(names.contains(&"sys.functions"));
        // The reported epochs match the live catalog, so an unchanged
        // database re-validates exactly.
        for (name, epoch) in &deps {
            assert_eq!(db.table_epoch(name), Some(*epoch));
        }
        // A mutation invalidates: the epoch moves past the recorded one.
        db.execute("INSERT INTO t VALUES (6)").unwrap();
        let recorded = deps.iter().find(|(n, _)| n == "t").unwrap().1;
        assert!(db.table_epoch("t").unwrap() > recorded);
    }

    #[test]
    fn extract_with_deps_over_volatile_view_reports_no_deps() {
        let db = Engine::new();
        db.execute(
            "CREATE FUNCTION probe(value INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return 0 }",
        )
        .unwrap();
        let (_, deps) = db
            .extract_inputs_with_deps("SELECT probe(value) FROM sys.metrics", "probe")
            .unwrap();
        assert!(
            deps.is_empty(),
            "volatile reads must yield an empty (never-valid) dep set, got {deps:?}"
        );
    }

    #[test]
    fn udf_print_output_captured() {
        let db = engine_with_numbers();
        db.execute(
            "CREATE FUNCTION noisy(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON {\nprint('seen', len(i))\nreturn i\n}",
        )
        .unwrap();
        db.execute("SELECT noisy(i) FROM t").unwrap();
        assert_eq!(db.take_udf_stdout(), "seen 5\n");
    }

    #[test]
    fn normalize_body_strips_uniform_indent() {
        let body = "\n    x = 1\n    if x:\n        y = 2\n";
        assert_eq!(normalize_body(body), "x = 1\nif x:\n    y = 2\n");
        assert_eq!(normalize_body("  \n \n"), "");
    }

    #[test]
    fn between_and_cast_evaluate() {
        let db = engine_with_numbers();
        let t = db
            .execute("SELECT count(*) FROM t WHERE i BETWEEN 2 AND 4")
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.row(0)[0], SqlValue::Int(3));
        let t = db
            .execute("SELECT CAST(i AS DOUBLE), CAST(i AS STRING) FROM t WHERE i = 2")
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.row(0)[0], SqlValue::Double(2.0));
        assert_eq!(t.row(0)[1], SqlValue::Str("2".into()));
        let t = db
            .execute("SELECT count(*) FROM t WHERE i NOT BETWEEN 2 AND 4")
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.row(0)[0], SqlValue::Int(2));
    }

    #[test]
    fn like_filter_on_meta_tables() {
        let db = Engine::new();
        for name in ["mean_deviation", "load_numbers", "mean_abs"] {
            db.execute(&format!(
                "CREATE FUNCTION {name}(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON {{ return i }}"
            ))
            .unwrap();
        }
        let t = db
            .execute("SELECT name FROM sys.functions WHERE name LIKE 'mean%' ORDER BY name")
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.row(0)[0], SqlValue::Str("mean_abs".into()));
    }

    /// Extract a named Int column from an EXPLAIN ANALYZE result.
    fn analyze_ints(t: &Table, col: &str) -> Vec<i64> {
        (0..t.row_count())
            .map(|i| match t.column_by_name(col).unwrap().get(i) {
                SqlValue::Int(v) => v,
                other => panic!("{col}: {other:?}"),
            })
            .collect()
    }

    fn analyze_strs(t: &Table, col: &str) -> Vec<String> {
        (0..t.row_count())
            .map(|i| match t.column_by_name(col).unwrap().get(i) {
                SqlValue::Str(v) => v,
                other => panic!("{col}: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn explain_analyze_reports_operators_within_the_total() {
        let _serial = obs::metrics::test_lock();
        let db = engine_with_numbers();
        let t = db
            .execute("EXPLAIN ANALYZE SELECT DISTINCT i FROM t WHERE i > 1 ORDER BY i LIMIT 3")
            .unwrap()
            .into_table()
            .unwrap();
        let ops = analyze_strs(&t, "op");
        assert_eq!(ops[0], "query");
        for expected in ["scan", "filter", "project", "distinct", "order", "limit"] {
            assert!(
                ops.contains(&expected.to_string()),
                "missing {expected} in {ops:?}"
            );
        }
        let times = analyze_ints(&t, "time_ns");
        let total = times[0];
        assert!(total > 0, "total time must be non-zero");
        for (op, ns) in ops.iter().zip(&times).skip(1) {
            assert!(*ns <= total, "{op} time {ns} exceeds total {total}");
        }
        // The query row reports the real result's row count: 2,3,4.
        assert_eq!(analyze_ints(&t, "rows_out")[0], 3);
        // The filter row saw 5 rows and kept 4.
        let fi = ops.iter().position(|o| o == "filter").unwrap();
        assert_eq!(analyze_ints(&t, "rows_in")[fi], 5);
        assert_eq!(analyze_ints(&t, "rows_out")[fi], 4);
    }

    /// Every stored-UDF call renders one `udf` row, in a SELECT list and in
    /// FROM, with inlining on and off, and the rows agree with the
    /// `monetlite.udf.{inlined,bailed}` counters.
    #[test]
    fn explain_analyze_udf_rows_agree_with_the_inline_counters() {
        let _serial = obs::metrics::test_lock();
        obs::set_enabled(true);
        let db = engine_with_numbers();
        db.execute(
            "CREATE FUNCTION straight(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return i * 2 }",
        )
        .unwrap();
        db.execute(
            "CREATE FUNCTION loopy(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON {\ns = 0\nfor v in i:\n    s = s + v\nreturn s\n}",
        )
        .unwrap();
        db.execute(
            "CREATE FUNCTION tf(i INTEGER) RETURNS TABLE(d DOUBLE) LANGUAGE PYTHON { return {'d': i} }",
        )
        .unwrap();
        let udf_rows = |sql: &str| -> Vec<String> {
            let inlined_before = obs::counter!("monetlite.udf.inlined").get();
            let bailed_before = obs::counter!("monetlite.udf.bailed").get();
            let t = db.execute(sql).unwrap().into_table().unwrap();
            let inlined_delta = obs::counter!("monetlite.udf.inlined").get() - inlined_before;
            let bailed_delta = obs::counter!("monetlite.udf.bailed").get() - bailed_before;
            let rows: Vec<String> = analyze_strs(&t, "op")
                .into_iter()
                .zip(analyze_strs(&t, "detail"))
                .filter(|(op, _)| op == "udf")
                .map(|(_, detail)| detail)
                .collect();
            let inlined_rows = rows.iter().filter(|d| d.ends_with(" inlined")).count() as u64;
            let fallback_rows = rows
                .iter()
                .filter(|d| d.ends_with(" bailed") || d.ends_with(" interpreted"))
                .count() as u64;
            assert_eq!(inlined_rows, inlined_delta, "{sql}");
            assert_eq!(fallback_rows, bailed_delta, "{sql}");
            rows
        };
        assert_eq!(
            udf_rows("EXPLAIN ANALYZE SELECT straight(i), loopy(i) FROM t"),
            ["straight inlined", "loopy interpreted"]
        );
        assert_eq!(
            udf_rows("EXPLAIN ANALYZE SELECT * FROM tf((SELECT i FROM t))"),
            ["tf interpreted"]
        );
        db.set_inline(false);
        assert_eq!(
            udf_rows("EXPLAIN ANALYZE SELECT straight(i) FROM t"),
            ["straight interpreted"]
        );
    }

    #[test]
    fn explain_analyze_rows_are_the_op_spans_an_outer_capture_keeps() {
        let _serial = obs::metrics::test_lock();
        obs::set_enabled(true);
        let db = engine_with_numbers();
        db.execute(
            "CREATE FUNCTION straight(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return i * 2 }",
        )
        .unwrap();
        let (t, spans) = obs::trace::capture(|| {
            db.execute("EXPLAIN ANALYZE SELECT straight(i) FROM t WHERE i > 1 LIMIT 2")
                .unwrap()
                .into_table()
                .unwrap()
        });
        let from_spans: Vec<(String, String, String, String)> = spans
            .iter()
            .filter_map(|s| {
                let field = |key| s.field(key).unwrap().to_string();
                let op = s.name.strip_prefix("monet.op.")?;
                Some((
                    op.to_string(),
                    field("detail"),
                    field("rows_in"),
                    field("rows_out"),
                ))
            })
            .collect();
        let from_rows: Vec<(String, String, String, String)> = (1..t.row_count())
            .map(|i| {
                let row: Vec<String> = t.row(i).iter().map(SqlValue::render).collect();
                (
                    row[0].clone(),
                    row[1].clone(),
                    row[3].clone(),
                    row[4].clone(),
                )
            })
            .collect();
        assert_eq!(from_rows, from_spans);
        let ops: Vec<&str> = from_rows.iter().map(|r| r.0.as_str()).collect();
        assert_eq!(ops, ["scan", "filter", "udf", "project", "limit"]);
        assert_eq!(from_rows[2].1, "straight inlined");
    }

    #[test]
    fn explain_analyze_update_and_delete_render_their_filter_row() {
        let _serial = obs::metrics::test_lock();
        obs::set_enabled(true);
        let db = engine_with_numbers();
        for (sql, selected) in [
            ("EXPLAIN ANALYZE UPDATE t SET i = 10 WHERE i = 3", 1),
            ("EXPLAIN ANALYZE DELETE FROM t WHERE i < 3", 2),
        ] {
            let t = db.execute(sql).unwrap().into_table().unwrap();
            assert_eq!(analyze_strs(&t, "op"), ["query", "filter"], "{sql}");
            assert_eq!(analyze_strs(&t, "detail")[1], "where");
            assert_eq!(analyze_ints(&t, "rows_in")[1], 5, "{sql}");
            assert_eq!(analyze_ints(&t, "rows_out")[1], selected, "{sql}");
        }
    }

    #[test]
    fn durable_writes_trace_their_wal_append() {
        let _serial = obs::metrics::test_lock();
        obs::set_enabled(true);
        let dir = std::env::temp_dir().join(format!(
            "monetlite-append-span-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Engine::open(&dir).unwrap();
        db.execute("CREATE TABLE t (i INTEGER)").unwrap();
        let ((), spans) = obs::trace::capture(|| {
            db.execute("INSERT INTO t VALUES (1)").unwrap();
            db.checkpoint().unwrap();
        });
        for name in ["monet.storage.append", "monet.storage.checkpoint"] {
            let span = spans.iter().find(|s| s.name == name);
            let bytes = span.and_then(|s| s.field("bytes")).map(str::parse::<u64>);
            assert!(matches!(bytes, Some(Ok(n)) if n > 0), "{name}: {spans:?}");
        }
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explain_analyze_with_telemetry_off_is_the_query_row_alone() {
        let _serial = obs::metrics::test_lock();
        let db = engine_with_numbers();
        obs::set_enabled(false);
        let t = db.execute("EXPLAIN ANALYZE SELECT i FROM t LIMIT 2");
        obs::set_enabled(true);
        let t = t.unwrap().into_table().unwrap();
        assert_eq!(t.row_count(), 1);
        assert_eq!(analyze_strs(&t, "op"), ["query"]);
        assert_eq!(analyze_ints(&t, "rows_out"), [2]);
    }

    #[test]
    fn explain_analyze_rejects_wrapping_explain() {
        let db = engine_with_numbers();
        let err = db
            .execute("EXPLAIN ANALYZE EXPLAIN SELECT i FROM t")
            .unwrap_err();
        assert!(err.to_string().contains("cannot wrap EXPLAIN"), "{err}");
    }
}
