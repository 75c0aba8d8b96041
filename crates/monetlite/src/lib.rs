//! `monetlite` — an in-memory columnar SQL engine with Python UDFs.
//!
//! This crate is the MonetDB stand-in of the devUDF reproduction. The paper's
//! plugin needs four things from its database, and `monetlite` implements all
//! of them for real:
//!
//! 1. **UDF storage in meta tables** — `CREATE FUNCTION … LANGUAGE PYTHON
//!    { body }` stores the *body source* in the catalog, queryable through
//!    `sys.functions` / `sys.args` exactly as paper Listing 1 shows.
//! 2. **Operator-at-a-time execution** — UDFs are invoked once with whole
//!    columns (pylite [`pylite::Array`] values), MonetDB's processing model
//!    (§2.4). A tuple-at-a-time mode (the Postgres model) is also provided
//!    for the paper's extension discussion and the C5 benchmark.
//! 3. **Loopback queries** — the `_conn` object passed to every UDF executes
//!    SQL against the hosting engine from inside the UDF (§2.3).
//! 4. **Input extraction** — [`engine::Engine::extract_inputs`] evaluates a
//!    query but intercepts the named UDF call and returns its input columns
//!    instead of executing it: the server half of the paper's "predefined
//!    extract function" (§2.2).
//!
//! # Quick example
//!
//! ```
//! use monetlite::Engine;
//!
//! let mut db = Engine::new();
//! db.execute("CREATE TABLE t (i INTEGER)").unwrap();
//! db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
//! db.execute(
//!     "CREATE FUNCTION triple(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return i * 3 }",
//! )
//! .unwrap();
//! let result = db.execute("SELECT triple(i) FROM t").unwrap();
//! let table = result.table().unwrap();
//! assert_eq!(table.column(0).unwrap().len(), 3);
//! ```

pub mod catalog;
pub mod classify;
pub mod engine;
pub mod error;
pub mod exec;
pub mod inline;
pub mod segments;
pub mod snapshot;
pub mod sql;
pub mod storage;
pub mod table;
pub mod types;
pub mod udf;

pub use catalog::{
    Catalog, FunctionDef, FunctionReturn, SessionProvider, SessionRow, SessionSource,
};
pub use classify::{classify_extract, classify_sql, classify_statement, CommandClass};
pub use engine::{Engine, ExecutionModel, QueryResult};
pub use error::{DbError, ErrorCode};
pub use segments::{Segments, SEGMENT_ROWS};
pub use snapshot::EngineSnapshot;
pub use storage::{FsyncPolicy, StorageOptions, StorageStats};
pub use table::Table;
pub use types::{Column, ColumnData, SqlType, SqlValue};
