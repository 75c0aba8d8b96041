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

use std::rc::Rc;

#[cfg(test)]
use pylite::value::Dict;
use pylite::value::NativeObject;
use pylite::{Array, Interp, PyError, Value};

use crate::catalog::{FunctionDef, FunctionReturn};
use crate::engine::Engine;
use crate::error::DbError;
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
            UdfInput::Scalar(v) => scalar_to_py(&v),
            UdfInput::Column(c) => column_to_py(c),
        }
    }

    /// Scalar value for row `i` (tuple-at-a-time shape).
    pub fn row_py(&self, i: usize) -> Result<Value, DbError> {
        match self {
            UdfInput::Scalar(v) => scalar_to_py(v),
            UdfInput::Column(c) => scalar_to_py(&c.get(i)),
        }
    }
}

/// Convert a SQL scalar to an interpreter value.
pub fn scalar_to_py(v: &SqlValue) -> Result<Value, DbError> {
    Ok(match v {
        SqlValue::Null => Value::None,
        SqlValue::Int(i) => Value::Int(*i),
        SqlValue::Double(d) => Value::Float(*d),
        SqlValue::Str(s) => Value::str(s.clone()),
        SqlValue::Bool(b) => Value::Bool(*b),
        SqlValue::Blob(b) => Value::bytes(b.clone()),
    })
}

/// Convert a column to the interpreter value a UDF receives.
///
/// Numeric/string/bool columns become vectorized [`Array`]s; blob columns
/// become a single `bytes` when they hold one row (the common
/// pickled-classifier case) or a list of `bytes` otherwise.
pub fn column_to_py(c: Column) -> Result<Value, DbError> {
    if c.has_nulls() {
        return Err(DbError::type_err(format!(
            "column '{}' contains NULLs; Python UDFs require non-NULL input",
            c.name
        )));
    }
    Ok(match c.data {
        ColumnData::Int(v) => Value::array(Array::Int(v)),
        ColumnData::Double(v) => Value::array(Array::Float(v)),
        ColumnData::Bool(v) => Value::array(Array::Bool(v)),
        ColumnData::Str(v) => Value::array(Array::Str(v)),
        ColumnData::Blob(mut v) => {
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
                Array::Int(v) => ColumnData::Int(v.clone()),
                Array::Float(v) => ColumnData::Double(v.clone()),
                Array::Bool(v) => ColumnData::Bool(v.clone()),
                Array::Str(v) => ColumnData::Str(v.clone()),
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

/// The result of running a UDF body once.
pub struct UdfOutput {
    pub value: Value,
    /// Captured `print` output (surfaced to the client for the paper's
    /// "print debugging" comparison scenario).
    pub stdout: String,
}

/// The loopback connection object (`_conn`) passed to every UDF (§2.3).
pub struct LoopbackConn {
    engine: Engine,
}

impl LoopbackConn {
    pub fn new(engine: Engine) -> Self {
        LoopbackConn { engine }
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
        _interp: &mut Interp,
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
                let result = self
                    .engine
                    .execute(sql)
                    .map_err(|e| PyError::new(pylite::ErrorKind::Value, e.to_string()))?;
                let table = result
                    .into_table()
                    .map_err(|e| PyError::new(pylite::ErrorKind::Value, e.to_string()))?;
                Ok(result_set_value(&table))
            }
            other => Err(PyError::new(
                pylite::ErrorKind::Attribute,
                format!("'monetdb_connection' object has no method '{other}'"),
            )),
        }
    }
}

/// Wrap a query result table for UDF consumption.
///
/// MonetDB/Python returns a dict of column name → numpy array. The paper's
/// Listing 3 both tuple-unpacks the result *and* subscripts it by column
/// name, so we return a [`ResultSet`] native that supports both: iteration
/// yields column values in order; subscripting accepts a column name.
/// Single-row columns collapse to scalars, matching how Listing 3 consumes
/// `res['clf']` directly.
pub fn result_set_value(table: &Table) -> Value {
    Value::Native(Rc::new(ResultSet {
        table: table.clone(),
    }))
}

/// Query-result wrapper exposed to UDFs.
pub struct ResultSet {
    table: Table,
}

impl ResultSet {
    fn column_value(&self, c: &Column) -> Value {
        if c.len() == 1 {
            scalar_to_py(&c.get(0)).unwrap_or(Value::None)
        } else {
            column_to_py(c.clone()).unwrap_or(Value::None)
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
        Some(
            self.table
                .columns
                .iter()
                .map(|c| self.column_value(c))
                .collect(),
        )
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
                Ok(self.column_value(c))
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

/// Build the interpreter for one UDF invocation.
fn build_interp(engine: &Engine) -> Interp {
    let mut interp = Interp::with_fs(engine.fs());
    interp.rng_seed = engine.rng_seed();
    interp.set_step_budget(engine.udf_step_budget());
    interp.set_exec_mode(engine.exec_mode());
    interp
}

/// Run a UDF operator-at-a-time: one execution, columns bound as globals.
pub fn run_operator_at_a_time(
    engine: &Engine,
    def: &FunctionDef,
    inputs: &[(String, UdfInput)],
) -> Result<UdfOutput, DbError> {
    let _depth = engine.enter_udf()?;
    let mut span = obs::trace::span_active("monet.udf.run");
    span.field("udf", &def.name);
    let timer = UdfTimer::start(&def.name);
    let mut interp = build_interp(engine);
    for (name, input) in inputs {
        interp.set_global(name, input.clone().into_py()?);
    }
    interp.set_global(
        "_conn",
        Value::Native(Rc::new(LoopbackConn::new(engine.clone()))),
    );
    let value = interp
        .eval_module(&def.body)
        .map_err(|e| DbError::udf(&e))?;
    timer.finish();
    Ok(UdfOutput {
        value,
        stdout: interp.take_stdout(),
    })
}

/// Run a UDF tuple-at-a-time: once per row with scalar globals.
///
/// Returns one output value per row.
pub fn run_tuple_at_a_time(
    engine: &Engine,
    def: &FunctionDef,
    inputs: &[(String, UdfInput)],
    rows: usize,
) -> Result<(Vec<Value>, String), DbError> {
    let _depth = engine.enter_udf()?;
    let mut span = obs::trace::span_active("monet.udf.run");
    span.field("udf", &def.name);
    let timer = UdfTimer::start(&def.name);
    let module = pylite::parse_module(&def.body).map_err(|e| DbError::udf(&e))?;
    let mut interp = build_interp(engine);
    // Tuple-at-a-time reruns the same body once per row: compile it once up
    // front so the per-row cost is pure bytecode execution.
    let code = match interp.exec_mode() {
        pylite::ExecMode::Bytecode => Some(pylite::compile_module(&module)),
        pylite::ExecMode::Ast => None,
    };
    let conn = Value::Native(Rc::new(LoopbackConn::new(engine.clone())));
    let mut outputs = Vec::with_capacity(rows);
    let mut stdout = String::new();
    for row in 0..rows {
        interp.reset();
        for (name, input) in inputs {
            interp.set_global(name, input.row_py(row)?);
        }
        interp.set_global("_conn", conn.clone());
        let v = match &code {
            Some(code) => interp.run_code(code),
            None => interp.run_module(&module),
        }
        .map_err(|e| DbError::udf(&e))?;
        stdout.push_str(&interp.take_stdout());
        outputs.push(v);
    }
    timer.finish();
    Ok((outputs, stdout))
}

/// Convert a UDF's output value into a result table according to its
/// declared return shape.
pub fn output_to_table(def: &FunctionDef, value: &Value) -> Result<Table, DbError> {
    match &def.returns {
        FunctionReturn::Table(cols) => match value {
            Value::Dict(d) => {
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
            other => {
                // A table function may return a bare list/array when it
                // declares a single column.
                if cols.len() == 1 {
                    let col = py_to_column(&cols[0].0, other)?;
                    let col = coerce_column(col, cols[0].1)?;
                    Table::from_columns(def.name.clone(), vec![col])
                } else {
                    Err(DbError::type_err(format!(
                        "UDF '{}' must return a dict with columns {:?}",
                        def.name,
                        cols.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>()
                    )))
                }
            }
        },
        FunctionReturn::Scalar(t) => {
            let col = py_to_column(&def.name, value)?;
            let col = coerce_column(col, *t)?;
            Table::from_columns(def.name.clone(), vec![col])
        }
    }
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
            let py = scalar_to_py(&v).unwrap();
            assert_eq!(py_to_scalar(&py).unwrap(), v);
        }
    }

    #[test]
    fn column_to_py_is_vectorized() {
        let c = Column::new("i", ColumnData::Int(vec![1, 2, 3]));
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
        let c = Column::new("clf", ColumnData::Blob(vec![vec![9, 9]]));
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
                Column::new("data", ColumnData::Int(vec![1, 2, 3])),
                Column::new("labels", ColumnData::Int(vec![0, 1, 0])),
            ],
        )
        .unwrap();
        let rs = result_set_value(&table);
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
