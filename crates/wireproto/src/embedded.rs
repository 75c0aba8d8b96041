//! The transport trait and the in-process **embedded** implementation —
//! "MonetDBLite mode" (DESIGN §17).
//!
//! Everything the devUDF plugin needs from its database is six calls:
//! query, traced query, list/get function, input extraction, and the UDF
//! stdout of the last statement. [`EngineTransport`] names exactly that
//! surface; [`Client`] implements it over the TCP/in-proc wire, and
//! [`Embedded`] implements it by calling [`monetlite::Engine`] directly
//! in the same process — no frames, no pickling, no socket.
//!
//! An embedded engine has exactly one owner, reached through `&mut self`,
//! so there is no concurrent writer to isolate reads from: every call runs
//! on the live engine, which answers exactly as the server's snapshot
//! readers would. The embedded-vs-TCP differential test holds the two
//! paths to the same results.
//!
//! What embedding deliberately skips: the three transfer options.
//! Compression and encryption protect bytes **on the wire**, and
//! sampling exists "to alleviate the data transfer overhead" (paper
//! §2.1) — with no wire there is nothing to protect or alleviate, so
//! extraction returns the engine's values as-is and reports a
//! [`TransferStats`] of zero bytes (ratio 1.0).
//!
//! # Embedded extract
//!
//! ```
//! use wireproto::embedded::{Embedded, EngineTransport};
//! use wireproto::TransferOptions;
//!
//! let mut db = Embedded::in_memory();
//! db.query("CREATE TABLE t (i INTEGER)").unwrap();
//! db.query("INSERT INTO t VALUES (1), (2), (3)").unwrap();
//! db.query(
//!     "CREATE FUNCTION double(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return i * 2 }",
//! )
//! .unwrap();
//! let (inputs, stats) = db
//!     .extract_inputs("SELECT double(i) FROM t", "double", TransferOptions::plain())
//!     .unwrap();
//! // The UDF's input column came back as a live pylite value …
//! assert!(matches!(inputs, pylite::Value::Dict(_)));
//! // … and no bytes crossed any wire.
//! assert_eq!(stats.wire_len, 0);
//! ```

use monetlite::Engine;
use pylite::Value;

use crate::client::{Client, FunctionInfo};
use crate::message::{WireError, WireResult};
use crate::transfer::{TransferOptions, TransferStats};

/// The calls the devUDF core makes against its database, abstracted over
/// *where* the engine runs. `DevUdf` holds a `Rc<RefCell<dyn
/// EngineTransport>>`; the two implementations are [`Client`] (TCP or
/// in-proc wire) and [`Embedded`] (same-process engine).
pub trait EngineTransport {
    /// Execute one SQL statement.
    fn query(&mut self, sql: &str) -> Result<WireResult, WireError>;

    /// Execute one SQL statement inside a trace; returns the closed spans
    /// alongside the result (empty when telemetry is off).
    fn query_traced(
        &mut self,
        sql: &str,
    ) -> Result<(WireResult, Vec<obs::trace::SpanRecord>), WireError>;

    /// Names of every stored function.
    fn list_functions(&mut self) -> Result<Vec<String>, WireError>;

    /// Full metadata of one stored function.
    fn get_function(&mut self, name: &str) -> Result<FunctionInfo, WireError>;

    /// Run `query` with the call to `udf` intercepted and its inputs
    /// captured (the paper's predefined extract function, §2.2).
    fn extract_inputs(
        &mut self,
        query: &str,
        udf: &str,
        options: TransferOptions,
    ) -> Result<(Value, TransferStats), WireError>;

    /// `print` output of server-side UDFs during the last query.
    fn last_udf_stdout(&self) -> &str;

    /// Short name for diagnostics: `"wire"` or `"embedded"`.
    fn transport_name(&self) -> &'static str;
}

impl EngineTransport for Client {
    fn query(&mut self, sql: &str) -> Result<WireResult, WireError> {
        Client::query(self, sql)
    }

    fn query_traced(
        &mut self,
        sql: &str,
    ) -> Result<(WireResult, Vec<obs::trace::SpanRecord>), WireError> {
        Client::query_traced(self, sql)
    }

    fn list_functions(&mut self) -> Result<Vec<String>, WireError> {
        Client::list_functions(self)
    }

    fn get_function(&mut self, name: &str) -> Result<FunctionInfo, WireError> {
        Client::get_function(self, name)
    }

    fn extract_inputs(
        &mut self,
        query: &str,
        udf: &str,
        options: TransferOptions,
    ) -> Result<(Value, TransferStats), WireError> {
        Client::extract_inputs(self, query, udf, options)
    }

    fn last_udf_stdout(&self) -> &str {
        Client::last_udf_stdout(self)
    }

    fn transport_name(&self) -> &'static str {
        "wire"
    }
}

/// The in-process transport: a [`monetlite::Engine`] called directly
/// (see the module docs).
pub struct Embedded {
    engine: Engine,
    last_udf_stdout: String,
}

impl Embedded {
    /// Embed a fresh in-memory engine (tests, throwaway sessions).
    pub fn in_memory() -> Embedded {
        Self::from_engine(Engine::new())
    }

    /// Embed an engine the caller already configured or opened.
    pub fn from_engine(engine: Engine) -> Embedded {
        Embedded {
            engine,
            last_udf_stdout: String::new(),
        }
    }

    /// Open a **persistent** engine on `dir` (WAL + snapshots, see
    /// [`monetlite::storage`]) and embed it.
    pub fn open(
        dir: impl AsRef<std::path::Path>,
        options: monetlite::StorageOptions,
    ) -> Result<Embedded, WireError> {
        Ok(Self::from_engine(
            Engine::open_with(dir, options).map_err(|e| WireError::from_db(&e))?,
        ))
    }

    /// The embedded engine (for host-side configuration: interp mode,
    /// seeds, checkpoints).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

impl EngineTransport for Embedded {
    fn query(&mut self, sql: &str) -> Result<WireResult, WireError> {
        obs::counter!("wire.embedded.queries").inc();
        match self.engine.execute(sql) {
            Ok(result) => {
                // Mirrors the wire: stdout rides only a successful reply.
                self.last_udf_stdout = self.engine.take_udf_stdout();
                Ok(WireResult::from_query_result(&result))
            }
            Err(e) => Err(WireError::from_db(&e)),
        }
    }

    fn query_traced(
        &mut self,
        sql: &str,
    ) -> Result<(WireResult, Vec<obs::trace::SpanRecord>), WireError> {
        let trace = obs::trace::new_trace_id();
        if trace == 0 {
            return Ok((self.query(sql)?, Vec::new()));
        }
        obs::trace::start_capture(trace);
        let result = {
            let _ctx = obs::trace::enter_context(obs::trace::SpanContext { trace, parent: 0 });
            let mut span = obs::trace::span_active("embedded.query");
            span.field("sql", sql);
            self.query(sql)
        };
        // One process, one span namespace: no wire hop, no id stitching.
        let records = obs::trace::take_capture(trace);
        Ok((result?, records))
    }

    fn list_functions(&mut self) -> Result<Vec<String>, WireError> {
        Ok(self.engine.function_names())
    }

    fn get_function(&mut self, name: &str) -> Result<FunctionInfo, WireError> {
        match self.engine.get_function(name) {
            Ok(Some(def)) => Ok(FunctionInfo {
                name: def.name.clone(),
                params: def
                    .params
                    .iter()
                    .map(|(n, t)| (n.clone(), t.name().to_string()))
                    .collect(),
                return_type: match &def.returns {
                    monetlite::FunctionReturn::Scalar(t) => t.name().to_string(),
                    monetlite::FunctionReturn::Table(cols) => {
                        let inner: Vec<String> =
                            cols.iter().map(|(n, t)| format!("{n} {t}")).collect();
                        format!("TABLE({})", inner.join(", "))
                    }
                },
                language: def.language,
                body: def.body,
            }),
            Ok(None) => Err(WireError::Server {
                code: "CatalogError".to_string(),
                message: format!("no such function '{name}'"),
                traceback: None,
            }),
            Err(e) => Err(WireError::from_db(&e)),
        }
    }

    fn extract_inputs(
        &mut self,
        query: &str,
        udf: &str,
        _options: TransferOptions,
    ) -> Result<(Value, TransferStats), WireError> {
        obs::counter!("wire.embedded.extracts").inc();
        let value = self
            .engine
            .extract_inputs(query, udf)
            .map_err(|e| WireError::from_db(&e))?;
        // Zero-serialization: the value never left the process, so both
        // byte counters are honestly zero (ratio 1.0). Transfer options
        // are wire concerns and do not apply (module docs).
        Ok((
            value,
            TransferStats {
                raw_len: 0,
                wire_len: 0,
            },
        ))
    }

    fn last_udf_stdout(&self) -> &str {
        &self.last_udf_stdout
    }

    fn transport_name(&self) -> &'static str {
        "embedded"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::WireValue;

    fn seeded() -> Embedded {
        let mut db = Embedded::in_memory();
        db.query("CREATE TABLE t (i INTEGER)").unwrap();
        db.query("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        db.query(
            "CREATE FUNCTION double(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return i * 2 }",
        )
        .unwrap();
        db
    }

    #[test]
    fn query_round_trips_and_reports_affected() {
        let mut db = seeded();
        let t = db
            .query("SELECT sum(i) FROM t")
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.rows[0][0], WireValue::Int(6));
        match db.query("INSERT INTO t VALUES (4)").unwrap() {
            WireResult::Affected { rows, .. } => assert_eq!(rows, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn function_metadata_matches_the_wire_encoding() {
        let mut db = seeded();
        assert_eq!(db.list_functions().unwrap(), vec!["double".to_string()]);
        let info = db.get_function("double").unwrap();
        assert_eq!(info.params, vec![("i".to_string(), "INTEGER".to_string())]);
        assert_eq!(info.return_type, "INTEGER");
        assert_eq!(info.language, "PYTHON");
        assert!(info.body.contains("return i * 2"));
        match db.get_function("nope") {
            Err(WireError::Server { code, .. }) => assert_eq!(code, "CatalogError"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_carry_the_engine_code_and_traceback() {
        let mut db = seeded();
        db.query(
            "CREATE FUNCTION boom(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return i / 0 }",
        )
        .unwrap();
        match db.query("SELECT boom(i) FROM t") {
            Err(WireError::Server {
                code, traceback, ..
            }) => {
                assert_eq!(code, "UdfError");
                assert!(traceback.is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn udf_stdout_is_captured_per_statement() {
        let mut db = seeded();
        db.query(
            "CREATE FUNCTION noisy(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON { print('hi'); return i }",
        )
        .unwrap();
        db.query("SELECT noisy(i) FROM t").unwrap();
        assert!(db.last_udf_stdout().contains("hi"));
        db.query("SELECT i FROM t").unwrap();
        assert_eq!(db.last_udf_stdout(), "");
    }

    #[test]
    fn extract_returns_live_values_with_zero_wire_bytes() {
        let mut db = seeded();
        let (inputs, stats) = db
            .extract_inputs(
                "SELECT double(i) FROM t",
                "double",
                TransferOptions::plain(),
            )
            .unwrap();
        let Value::Dict(d) = &inputs else {
            panic!("{inputs:?}")
        };
        assert_eq!(d.borrow().entries().len(), 1);
        assert_eq!(stats.raw_len, 0);
        assert_eq!(stats.wire_len, 0);
        assert_eq!(stats.ratio(), 1.0);
    }

    #[test]
    fn transport_names_distinguish_the_implementations() {
        assert_eq!(Embedded::in_memory().transport_name(), "embedded");
    }
}
