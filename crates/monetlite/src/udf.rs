//! Bridge between the SQL engine and the pylite interpreter.
//!
//! Mirrors MonetDB/Python's execution contract (paper §2.2/§2.4):
//!
//! * **operator-at-a-time** — the stored body is executed *once*, with each
//!   parameter bound to a whole column (a [`pylite::Array`]) in the global
//!   namespace, plus the loopback `_conn` object;
//! * **tuple-at-a-time** — the Postgres-style model: the body runs once per
//!   row with scalar parameters (provided for §2.4's extension discussion
//!   and benchmark C5).
//!
//! The body is interpreted exactly as stored — no `def` wrapping — so error
//! line numbers map 1:1 onto the source in `sys.functions`, which is what
//! lets devUDF place breakpoints meaningfully.
//!
//! `call` is the one path of every stored-UDF invocation, and
//! [`output_to_table`] the one conversion of its value; devUDF's local runs
//! use that conversion, [`STEP_BUDGET`] and [`check_depth`] too.

use std::rc::Rc;

#[cfg(test)]
use pylite::value::Dict;
use pylite::value::NativeObject;
use pylite::{Array, Interp, PyError, Value};

use crate::catalog::{FunctionDef, FunctionReturn};
use crate::engine::{Engine, ExecutionModel, QueryResult};
use crate::error::DbError;
use crate::exec::Evaluated;
use crate::inline::{self, UdfPlan};
use crate::table::Table;
use crate::types::{Column, ColumnData, SqlType, SqlValue};

/// A UDF input: a whole column or a scalar.
#[derive(Debug, Clone)]
pub enum UdfInput {
    Column(Column),
    Scalar(SqlValue),
}

impl UdfInput {
    /// Convert to the interpreter value handed to the UDF
    /// (operator-at-a-time shape), moving a column's data into it.
    pub fn into_py(self) -> Result<Value, DbError> {
        match self {
            UdfInput::Scalar(v) => Ok(scalar_to_py(&v)),
            UdfInput::Column(c) => column_to_py(c),
        }
    }

    /// Scalar value for row `i` (tuple-at-a-time shape).
    pub fn row_py(&self, i: usize) -> Value {
        match self {
            UdfInput::Scalar(v) => scalar_to_py(v),
            UdfInput::Column(c) => scalar_to_py(&c.get(i)),
        }
    }

    /// Rows the input holds (a scalar is one).
    pub(crate) fn rows(&self) -> usize {
        match self {
            UdfInput::Scalar(_) => 1,
            UdfInput::Column(c) => c.len(),
        }
    }
}

/// Convert a SQL scalar to an interpreter value.
pub fn scalar_to_py(v: &SqlValue) -> Value {
    match v {
        SqlValue::Null => Value::None,
        SqlValue::Int(i) => Value::Int(*i),
        SqlValue::Double(d) => Value::Float(*d),
        SqlValue::Str(s) => Value::str(s.clone()),
        SqlValue::Bool(b) => Value::Bool(*b),
        SqlValue::Blob(b) => Value::bytes(b.clone()),
    }
}

/// Convert a column to the interpreter value a UDF receives.
///
/// Numeric/string/bool columns become vectorized [`Array`]s, whose one
/// flat vector is the column's only copy here: its segments are
/// concatenated, or moved when there is one that nothing shares. Blob
/// columns become a single `bytes` when they hold one row (the common
/// pickled-classifier case) or a list of `bytes` otherwise.
pub fn column_to_py(c: Column) -> Result<Value, DbError> {
    if c.has_nulls() {
        return Err(DbError::type_err(format!(
            "column '{}' contains NULLs; Python UDFs require non-NULL input",
            c.name
        )));
    }
    Ok(match c.data {
        ColumnData::Int(v) => Value::array(Array::Int(v.into_vec())),
        ColumnData::Double(v) => Value::array(Array::Float(v.into_vec())),
        ColumnData::Bool(v) => Value::array(Array::Bool(v.into_vec())),
        ColumnData::Str(v) => Value::array(Array::Str(v.into_vec())),
        ColumnData::Blob(v) => {
            let mut v = v.into_vec();
            if v.len() == 1 {
                Value::bytes(v.remove(0))
            } else {
                Value::list(v.into_iter().map(Value::bytes).collect())
            }
        }
    })
}

/// Convert an interpreter value back into a SQL scalar.
pub fn py_to_scalar(v: &Value) -> Result<SqlValue, DbError> {
    Ok(match v {
        Value::None => SqlValue::Null,
        Value::Bool(b) => SqlValue::Bool(*b),
        Value::Int(i) => SqlValue::Int(*i),
        Value::Float(f) => SqlValue::Double(*f),
        Value::Str(s) => SqlValue::Str(s.to_string()),
        Value::Bytes(b) => SqlValue::Blob(b.to_vec()),
        other => {
            return Err(DbError::type_err(format!(
                "UDF returned a '{}' where a scalar was expected",
                other.type_name()
            )))
        }
    })
}

/// Convert an interpreter value into a result column.
pub fn py_to_column(name: &str, v: &Value) -> Result<Column, DbError> {
    match v {
        Value::Array(a) => {
            let data = match a.as_ref() {
                Array::Int(v) => ColumnData::Int(v.as_slice().into()),
                Array::Float(v) => ColumnData::Double(v.as_slice().into()),
                Array::Bool(v) => ColumnData::Bool(v.as_slice().into()),
                Array::Str(v) => ColumnData::Str(v.as_slice().into()),
            };
            Ok(Column::new(name, data))
        }
        Value::List(items) => {
            let values: Result<Vec<SqlValue>, DbError> =
                items.borrow().iter().map(py_to_scalar).collect();
            Column::from_values(name, &values?)
        }
        Value::Tuple(items) => {
            let values: Result<Vec<SqlValue>, DbError> = items.iter().map(py_to_scalar).collect();
            Column::from_values(name, &values?)
        }
        scalar => Column::from_values(name, &[py_to_scalar(scalar)?]),
    }
}

/// What answers a UDF's `_conn.execute(sql)` (§2.3): the engine itself on
/// the server and in embedded mode, or, during a devUDF local run, the
/// router in `devudf::debug` that forwards plain queries to the server and
/// runs nested UDFs in the IDE. Either way [`LoopbackConn`] turns the
/// answer into what the UDF sees, so the two cannot drift apart.
pub trait Loopback {
    /// Run one statement; the error is the exception `_conn.execute` raises.
    fn execute(&self, sql: &str) -> Result<QueryResult, PyError>;

    /// What the UDFs that the statements since the last call ran printed.
    /// `_conn` moves it into the calling UDF's output, so a nested UDF's
    /// prints appear where it ran.
    fn take_stdout(&self) -> String;
}

impl Loopback for Engine {
    fn execute(&self, sql: &str) -> Result<QueryResult, PyError> {
        Engine::execute(self, sql).map_err(loopback_error)
    }

    fn take_stdout(&self) -> String {
        self.take_udf_stdout()
    }
}

/// The exception `_conn.execute` raises for a statement that failed: a
/// ValueError carrying the error's text.
pub fn loopback_error(e: impl std::fmt::Display) -> PyError {
    PyError::new(pylite::ErrorKind::Value, e.to_string())
}

/// The loopback connection object (`_conn`) passed to every UDF (§2.3).
pub struct LoopbackConn {
    source: Rc<dyn Loopback>,
}

impl LoopbackConn {
    /// The `_conn` value answering through `source`.
    pub fn value(source: Rc<dyn Loopback>) -> Value {
        Value::Native(Rc::new(LoopbackConn { source }))
    }
}

impl NativeObject for LoopbackConn {
    fn type_name(&self) -> &'static str {
        "monetdb_connection"
    }

    fn repr(&self) -> String {
        "<loopback connection>".to_string()
    }

    fn call_method(
        &self,
        name: &str,
        interp: &mut Interp,
        args: &[Value],
        _kwargs: &[(String, Value)],
    ) -> Result<Value, PyError> {
        match name {
            "execute" => {
                let Some(Value::Str(sql)) = args.first() else {
                    return Err(PyError::new(
                        pylite::ErrorKind::Type,
                        "_conn.execute() takes a SQL string",
                    ));
                };
                let result = self.source.execute(sql);
                interp.write_stdout(&self.source.take_stdout());
                Ok(loopback_value(result?))
            }
            other => Err(PyError::new(
                pylite::ErrorKind::Attribute,
                format!("'monetdb_connection' object has no method '{other}'"),
            )),
        }
    }
}

/// What `_conn.execute` returns: a table becomes a [`ResultSet`]; a
/// statement without a result set returns its affected-row count.
///
/// MonetDB/Python returns a dict of column name → numpy array. The paper's
/// Listing 3 both tuple-unpacks the result *and* subscripts it by column
/// name, so a [`ResultSet`] supports both: iteration yields column values
/// in order; subscripting accepts a column name. Single-row columns
/// collapse to scalars, matching how Listing 3 consumes `res['clf']`
/// directly.
fn loopback_value(result: QueryResult) -> Value {
    match result {
        QueryResult::Table(table) => Value::Native(Rc::new(ResultSet { table })),
        QueryResult::Affected { rows, .. } => Value::Int(rows as i64),
    }
}

/// Query-result wrapper exposed to UDFs.
pub struct ResultSet {
    table: Table,
}

impl ResultSet {
    /// A 1-row column is its scalar; a column with NULLs is a list with
    /// `None` in its NULL rows; any other column is what a UDF parameter
    /// of that column would be.
    fn column_value(c: &Column) -> Value {
        if c.len() == 1 {
            scalar_to_py(&c.get(0))
        } else if c.has_nulls() {
            Value::list((0..c.len()).map(|i| scalar_to_py(&c.get(i))).collect())
        } else {
            column_to_py(c.clone()).expect("a column without NULLs converts")
        }
    }
}

impl NativeObject for ResultSet {
    fn type_name(&self) -> &'static str {
        "result_set"
    }

    fn repr(&self) -> String {
        format!(
            "<result_set {} column(s) x {} row(s)>",
            self.table.column_count(),
            self.table.row_count()
        )
    }

    fn iterate(&self) -> Option<Vec<Value>> {
        Some(self.table.columns.iter().map(Self::column_value).collect())
    }

    fn call_method(
        &self,
        name: &str,
        _interp: &mut Interp,
        args: &[Value],
        _kwargs: &[(String, Value)],
    ) -> Result<Value, PyError> {
        match name {
            "__getitem__" => {
                let Some(Value::Str(col)) = args.first() else {
                    return Err(PyError::new(
                        pylite::ErrorKind::Type,
                        "result_set indices must be column-name strings",
                    ));
                };
                let c = self.table.column_by_name(col).ok_or_else(|| {
                    PyError::new(
                        pylite::ErrorKind::Key,
                        format!("no column '{col}' in result set"),
                    )
                })?;
                Ok(Self::column_value(c))
            }
            "keys" => Ok(Value::list(
                self.table
                    .columns
                    .iter()
                    .map(|c| Value::str(c.name.clone()))
                    .collect(),
            )),
            other => Err(PyError::new(
                pylite::ErrorKind::Attribute,
                format!("'result_set' object has no method '{other}'"),
            )),
        }
    }
}

/// Times one successful UDF run into the aggregate `monet.udf.latency`
/// histogram plus a per-UDF `monet.udf.latency.<name>` histogram (the
/// dynamic registry lookup is negligible next to an interpreter run).
struct UdfTimer<'a> {
    name: &'a str,
    started: Option<std::time::Instant>,
}

impl<'a> UdfTimer<'a> {
    fn start(name: &'a str) -> UdfTimer<'a> {
        obs::counter!("monet.udf.invocations").inc();
        UdfTimer {
            name,
            started: obs::enabled().then(std::time::Instant::now),
        }
    }

    fn finish(self) {
        if let Some(started) = self.started {
            let elapsed = started.elapsed();
            obs::histogram!("monet.udf.latency").record_duration(elapsed);
            obs::metrics::registry()
                .histogram(&format!(
                    "monet.udf.latency.{}",
                    self.name.to_ascii_lowercase()
                ))
                .record_duration(elapsed);
        }
    }
}

/// Statements one UDF run may execute before it fails (the infinite-loop
/// guard): the engine's default budget, and every devUDF local run's.
pub const STEP_BUDGET: u64 = 50_000_000;

/// UDF runs that may be active at once through `_conn`, in the engine and
/// in a devUDF local run. Each nested run starts a fresh interpreter, so
/// the interpreter's own recursion guard cannot see a loopback cycle.
pub const MAX_DEPTH: usize = 12;

/// Admit one more UDF run while `depth` runs are active.
pub fn check_depth(depth: usize) -> Result<(), DbError> {
    if depth >= MAX_DEPTH {
        return Err(DbError::exec(format!(
            "maximum UDF nesting depth exceeded ({MAX_DEPTH}) — loopback recursion?"
        )));
    }
    Ok(())
}

/// Call the stored UDF `name` on `inputs`, one per parameter in order.
///
/// Every stored-UDF invocation takes this path, in a SELECT list and in
/// FROM alike. It checks the arity and hands the inputs to a pending
/// extract (§2.2) instead of running the body. Otherwise it runs the
/// inlined plan if there is one, else the body, and converts the value to
/// the declared return type as [`output_to_table`] does. Tuple-at-a-time
/// runs a scalar UDF's body once for each of the call's `rows` (the source
/// rows in an expression, the longest input's in FROM); a table function
/// runs once, on whole columns.
///
/// The call is one `monet.op.udf` span, which `EXPLAIN ANALYZE` renders as
/// a `udf` row: its detail is the name and the disposition, counted in
/// `monetlite.udf.inlined` (`inlined`) or `monetlite.udf.bailed` (`bailed`:
/// the plan failed on these inputs; `interpreted`: no plan, or inlining
/// off). A run that entered kernel-candidate loops appends how many of
/// those entries ran as typed kernels and how many took the fallback loop:
/// `mean_deviation interpreted (loops: 2 lifted, 0 bailed)`.
pub(crate) fn call(
    engine: &Engine,
    name: &str,
    inputs: Vec<UdfInput>,
    rows: usize,
) -> Result<Table, DbError> {
    let def = engine
        .get_function(name)?
        .ok_or_else(|| DbError::catalog(format!("no such function '{name}'")))?;
    if inputs.len() != def.params.len() {
        return Err(DbError::exec(format!(
            "function '{}' takes {} arguments, got {}",
            def.name,
            def.params.len(),
            inputs.len()
        )));
    }
    let inputs: Vec<(String, UdfInput)> = def
        .params
        .iter()
        .map(|(param, _)| param.clone())
        .zip(inputs)
        .collect();
    let inputs = engine.intercept(&def.name, inputs)?;

    let span = obs::trace::span_active("monet.op.udf");
    let rows_in = inputs.iter().map(|(_, i)| i.rows()).max().unwrap_or(1);
    let per_row = (engine.model() == ExecutionModel::TupleAtATime
        && matches!(def.returns, FunctionReturn::Scalar(_)))
    .then_some(rows);
    let plan = engine.udf_plan(&def);
    let inlined = match &*plan {
        UdfPlan::Inlined(p) => inline::run_inlined(engine, p, &inputs, per_row.is_some()).ok(),
        UdfPlan::Interpreted(_) => None,
    };
    let mut loops = pylite::kernel::LoopCounts::default();
    let (disposition, table) = match inlined {
        Some(v) => {
            obs::counter!("monetlite.udf.inlined").inc();
            // A row-independent body yields one value; tuple-at-a-time
            // calls the UDF once per row, so that value fills every row.
            let column = match v {
                Evaluated::Column(c) => c.into_owned(),
                Evaluated::Scalar(s) => {
                    Column::from_values(&def.name, &vec![s; per_row.unwrap_or(1)])?
                }
            };
            ("inlined", typed_table(&def, column))
        }
        None => {
            obs::counter!("monetlite.udf.bailed").inc();
            let disposition = match &*plan {
                UdfPlan::Inlined(_) => "bailed",
                UdfPlan::Interpreted(_) => "interpreted",
            };
            let value = interpret(engine, &def, inputs, per_row, &mut loops);
            (disposition, value.and_then(|v| output_to_table(&def, &v)))
        }
    };
    let table = table?;
    crate::exec::finish_op(
        span,
        || match (loops.lifted, loops.bailed) {
            (0, 0) => format!("{} {disposition}", def.name),
            (lifted, bailed) => format!(
                "{} {disposition} (loops: {lifted} lifted, {bailed} bailed)",
                def.name
            ),
        },
        rows_in as u64,
        table.row_count() as u64,
    );
    Ok(table)
}

/// Run `def`'s body in a fresh interpreter whose `_conn` answers through
/// the engine: once with each parameter bound to its whole input or, with
/// `per_row`, once per row with scalar parameters and the values collected
/// in a list. `loops` gets the run's loop-kernel entries.
///
/// What the body prints joins the engine's UDF output after what the
/// statement's earlier UDFs printed. While it runs, the engine's buffer
/// holds only what the UDFs of its own loopback statements print, which
/// `_conn` moves into the body's output as each statement returns.
fn interpret(
    engine: &Engine,
    def: &FunctionDef,
    inputs: Vec<(String, UdfInput)>,
    per_row: Option<usize>,
    loops: &mut pylite::kernel::LoopCounts,
) -> Result<Value, DbError> {
    let _depth = engine.enter_udf()?;
    let timer = UdfTimer::start(&def.name);
    let mut interp = Interp::with_fs(engine.fs());
    interp.rng_seed = engine.rng_seed();
    interp.set_step_budget(engine.udf_step_budget());
    interp.set_exec_mode(engine.exec_mode());
    let conn = LoopbackConn::value(Rc::new(engine.clone()));
    let mut printed = engine.take_udf_stdout();
    let value = run_body(&mut interp, def, inputs, per_row, conn, &mut printed);
    printed.push_str(&interp.take_stdout());
    engine.append_udf_stdout(&printed);
    *loops = interp.loop_counts();
    let value = value?;
    timer.finish();
    Ok(value)
}

/// [`interpret`]'s run of the body; `printed` collects the output of every
/// row but the last, which stays in `interp`, after what it held.
fn run_body(
    interp: &mut Interp,
    def: &FunctionDef,
    inputs: Vec<(String, UdfInput)>,
    per_row: Option<usize>,
    conn: Value,
    printed: &mut String,
) -> Result<Value, DbError> {
    let Some(rows) = per_row else {
        for (name, input) in inputs {
            interp.set_global(&name, input.into_py()?);
        }
        interp.set_global("_conn", conn);
        return interp.eval_module(&def.body).map_err(|e| DbError::udf(&e));
    };
    let module = pylite::parse_module(&def.body).map_err(|e| DbError::udf(&e))?;
    // The same body reruns once per row: compile it once up front so the
    // per-row cost is pure bytecode execution.
    let code = match interp.exec_mode() {
        pylite::ExecMode::Bytecode => Some(pylite::compile_module(&module)),
        pylite::ExecMode::Ast => None,
    };
    let mut values = Vec::with_capacity(rows);
    for row in 0..rows {
        printed.push_str(&interp.take_stdout());
        interp.reset();
        for (name, input) in &inputs {
            interp.set_global(name, input.row_py(row));
        }
        interp.set_global("_conn", conn.clone());
        let value = match &code {
            Some(code) => interp.run_code(code),
            None => interp.run_module(&module),
        };
        values.push(value.map_err(|e| DbError::udf(&e))?);
    }
    Ok(Value::list(values))
}

/// Convert a UDF's value into a result table of its declared return type:
/// the one conversion of a stored-UDF call's value, on the server and in a
/// devUDF local run. A table function's dict gives one column per declared
/// column; any other value is the UDF's single column.
pub fn output_to_table(def: &FunctionDef, value: &Value) -> Result<Table, DbError> {
    let (FunctionReturn::Table(cols), Value::Dict(d)) = (&def.returns, value) else {
        return typed_table(def, py_to_column(&def.name, value)?);
    };
    let d = d.borrow();
    let mut columns = Vec::with_capacity(cols.len());
    for (cname, ctype) in cols {
        let v = d
            .get(&Value::str(cname.clone()))
            .map_err(|e| DbError::udf(&e))?
            .ok_or_else(|| {
                DbError::type_err(format!(
                    "UDF '{}' result dict is missing column '{cname}'",
                    def.name
                ))
            })?;
        columns.push(coerce_column(py_to_column(cname, &v)?, *ctype)?);
    }
    broadcast_columns(&def.name, columns)
}

/// A UDF's single result column as a table of its declared type: a scalar
/// UDF's column, named after it, or the only column of a table function
/// that declares one.
fn typed_table(def: &FunctionDef, column: Column) -> Result<Table, DbError> {
    let (name, target) = match &def.returns {
        FunctionReturn::Scalar(t) => (def.name.clone(), *t),
        FunctionReturn::Table(cols) if cols.len() == 1 => cols[0].clone(),
        FunctionReturn::Table(cols) => {
            return Err(DbError::type_err(format!(
                "UDF '{}' must return a dict with columns {:?}",
                def.name,
                cols.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>()
            )))
        }
    };
    let mut column = coerce_column(column, target)?;
    column.name = name;
    Table::from_columns(def.name.clone(), vec![column])
}

/// Broadcast 1-row columns to the longest column's length so dicts mixing
/// scalars and arrays (paper Listing 1 returns `{'clf': blob,
/// 'estimators': n}`) form a rectangular table.
fn broadcast_columns(name: &str, columns: Vec<Column>) -> Result<Table, DbError> {
    let target = columns.iter().map(|c| c.len()).max().unwrap_or(0);
    let mut out = Vec::with_capacity(columns.len());
    for c in columns {
        if c.len() == target {
            out.push(c);
        } else if c.len() == 1 {
            let v = c.get(0);
            let mut grown = Column::empty(c.name.clone(), c.sql_type());
            for _ in 0..target {
                grown.push(&v)?;
            }
            out.push(grown);
        } else {
            return Err(DbError::exec(format!(
                "UDF '{name}' returned columns of incompatible lengths ({} vs {target})",
                c.len()
            )));
        }
    }
    Table::from_columns(name.to_string(), out)
}

/// Coerce a produced column to its declared SQL type.
fn coerce_column(col: Column, target: SqlType) -> Result<Column, DbError> {
    if col.sql_type() == target {
        return Ok(col);
    }
    let mut out = Column::empty(col.name.clone(), target);
    for i in 0..col.len() {
        out.push(&col.get(i))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_conversions_round_trip() {
        for v in [
            SqlValue::Null,
            SqlValue::Int(42),
            SqlValue::Double(2.5),
            SqlValue::Str("hi".into()),
            SqlValue::Bool(true),
            SqlValue::Blob(vec![1, 2]),
        ] {
            let py = scalar_to_py(&v);
            assert_eq!(py_to_scalar(&py).unwrap(), v);
        }
    }

    #[test]
    fn column_to_py_is_vectorized() {
        let c = Column::new("i", ColumnData::Int(vec![1, 2, 3].into()));
        match column_to_py(c).unwrap() {
            Value::Array(a) => assert_eq!(a.len(), 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn null_column_rejected_for_udf() {
        let c = Column::from_values("i", &[SqlValue::Int(1), SqlValue::Null]).unwrap();
        assert!(column_to_py(c).is_err());
    }

    #[test]
    fn py_to_column_shapes() {
        let col = py_to_column("r", &Value::array(Array::Float(vec![1.0, 2.0]))).unwrap();
        assert_eq!(col.sql_type(), SqlType::Double);
        assert_eq!(col.len(), 2);
        let col = py_to_column("r", &Value::Int(7)).unwrap();
        assert_eq!(col.len(), 1);
        let col = py_to_column("r", &Value::list(vec![Value::Int(1), Value::Float(2.5)])).unwrap();
        assert_eq!(col.sql_type(), SqlType::Double);
    }

    #[test]
    fn single_blob_column_collapses_to_bytes() {
        let c = Column::new("clf", ColumnData::Blob(vec![vec![9, 9]].into()));
        match column_to_py(c).unwrap() {
            Value::Bytes(b) => assert_eq!(b.to_vec(), vec![9, 9]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn result_set_supports_both_listing3_access_patterns() {
        let table = Table::from_columns(
            "r",
            vec![
                Column::new("data", ColumnData::Int(vec![1, 2, 3].into())),
                Column::new("labels", ColumnData::Int(vec![0, 1, 0].into())),
            ],
        )
        .unwrap();
        let rs = loopback_value(QueryResult::Table(table));
        let mut interp = Interp::new();
        interp.set_global("res", rs);
        interp
            .eval_module(
                "(tdata, tlabels) = res\nby_name = res['labels']\nn = len(tdata)\nsame = sum(by_name == tlabels) == 3\n",
            )
            .unwrap();
        assert_eq!(interp.get_global("n").unwrap(), Value::Int(3));
        assert_eq!(interp.get_global("same").unwrap(), Value::Bool(true));
    }

    #[test]
    fn output_to_table_broadcasts_listing1_dict() {
        let def = FunctionDef {
            name: "train".into(),
            params: vec![],
            returns: FunctionReturn::Table(vec![
                ("clf".into(), SqlType::Blob),
                ("estimators".into(), SqlType::Integer),
            ]),
            language: "PYTHON".into(),
            body: String::new(),
        };
        let mut d = Dict::new();
        d.insert(Value::str("clf"), Value::bytes(vec![1, 2, 3]))
            .unwrap();
        d.insert(Value::str("estimators"), Value::Int(10)).unwrap();
        let t = output_to_table(&def, &Value::dict(d)).unwrap();
        assert_eq!(t.row_count(), 1);
        assert_eq!(
            t.column_by_name("estimators").unwrap().get(0),
            SqlValue::Int(10)
        );
    }

    #[test]
    fn output_to_table_missing_column_errors() {
        let def = FunctionDef {
            name: "f".into(),
            params: vec![],
            returns: FunctionReturn::Table(vec![("a".into(), SqlType::Integer)]),
            language: "PYTHON".into(),
            body: String::new(),
        };
        let d = Dict::new();
        assert!(output_to_table(&def, &Value::dict(d)).is_err());
    }
}
