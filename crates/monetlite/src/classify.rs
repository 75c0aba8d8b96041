//! Read/write classification of SQL commands.
//!
//! The wire server splits execution: read-only commands run concurrently
//! against an epoch-stamped catalog snapshot, mutating commands serialize on
//! the writer thread. The split is only sound if classification never calls
//! a mutating statement "read-only", so every rule here errs toward the
//! writer:
//!
//! * `SELECT` / `VALUES` / `EXPLAIN` are read-only **unless** they invoke a
//!   stored UDF whose body could observe or produce side effects (loopback
//!   `_conn` queries can execute DML; `os`/`pickle`/file IO touches the
//!   hosting engine's virtual filesystem, which snapshots do not carry).
//! * `EXPLAIN ANALYZE` executes its inner statement for real, so it is
//!   classified by the inner statement.
//! * Statements that fail to parse are read-only: they produce the same
//!   deterministic error on any engine and never reach the catalog.
//! * Everything else (INSERT/UPDATE/DELETE/DDL/COPY) is a write.
//!
//! A false "write" answer costs only latency (the command serializes); a
//! false "read-only" answer would corrupt the split, so the UDF purity scan
//! is a coarse substring check over the stored body rather than a precise
//! dataflow analysis.

use crate::catalog::Catalog;
use crate::engine::collect_call_names;
use crate::exec::eval::is_builtin;
use crate::sql::{parse_statement, Statement};

/// Where the scheduler must run a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandClass {
    /// Safe to execute concurrently against a catalog snapshot.
    Read,
    /// Must serialize on the writer thread.
    Write,
}

/// Substrings whose presence in a UDF body forces writer classification.
/// `_conn` is the loopback connection (can execute arbitrary DML); the rest
/// reach the engine's virtual filesystem, which snapshots do not share.
const IMPURE_TOKENS: &[&str] = &["_conn", "os.", "open(", "pickle.dump", "pickle.load"];

/// Classify a SQL string against the given catalog (used for stored-UDF
/// purity lookups).
pub fn classify_sql(sql: &str, catalog: &Catalog) -> CommandClass {
    match parse_statement(sql) {
        // Parse errors are deterministic and touch nothing: any engine —
        // including a snapshot reader — produces the identical error.
        Err(_) => CommandClass::Read,
        Ok(stmt) => classify_statement(&stmt, catalog),
    }
}

/// Classify a parsed statement.
pub fn classify_statement(stmt: &Statement, catalog: &Catalog) -> CommandClass {
    classify_excluding(stmt, catalog, None)
}

/// Classify the query of an extraction request. Extraction *intercepts*
/// the target UDF — its body never executes — so only the purity of
/// *other* stored UDFs reachable from the query matters. Without this
/// carve-out, extracting an impure UDF (the common devUDF debugging case:
/// the UDF misbehaves precisely because it does IO) would needlessly
/// serialize on the writer.
pub fn classify_extract(query: &str, target_udf: &str, catalog: &Catalog) -> CommandClass {
    match parse_statement(query) {
        Err(_) => CommandClass::Read,
        Ok(stmt) => classify_excluding(&stmt, catalog, Some(target_udf)),
    }
}

fn classify_excluding(stmt: &Statement, catalog: &Catalog, exclude: Option<&str>) -> CommandClass {
    if !kind_is_read_only(stmt) {
        return CommandClass::Write;
    }
    // A read-only statement shape can still mutate through a stored UDF
    // (loopback `_conn`) or depend on engine-local filesystem state.
    let impure = collect_call_names(stmt).iter().any(|name| {
        if exclude.is_some_and(|x| name.eq_ignore_ascii_case(x)) {
            return false;
        }
        catalog
            .function(name)
            .is_some_and(|def| udf_body_is_impure(&def.body))
    });
    if impure {
        CommandClass::Write
    } else {
        CommandClass::Read
    }
}

/// Whether a client may resend `sql` after its reply was lost: the
/// statement does not parse (it fails the same way every time), or its
/// shape is read-only and it calls no stored function except `intercepted`
/// (the UDF an extract intercepts, whose body does not run). The client
/// cannot see UDF bodies, so any other stored function may write through
/// `_conn`; a stored function is any call the evaluator does not answer
/// itself (`exec::eval::is_builtin`).
pub fn replay_is_safe(sql: &str, intercepted: Option<&str>) -> bool {
    parse_statement(sql).map_or(true, |stmt| {
        kind_is_read_only(&stmt)
            && collect_call_names(&stmt).iter().all(|name| {
                is_builtin(name) || intercepted.is_some_and(|udf| name.eq_ignore_ascii_case(udf))
            })
    })
}

/// Statement-shape check (ignoring UDF bodies). `EXPLAIN` only plans, so it
/// is read-only whatever it wraps; `EXPLAIN ANALYZE` executes for real and
/// inherits its inner statement's class.
fn kind_is_read_only(stmt: &Statement) -> bool {
    match stmt {
        Statement::Select(_) => true,
        Statement::Explain(_) => true,
        Statement::ExplainAnalyze(inner) => kind_is_read_only(inner),
        _ => false,
    }
}

/// Coarse purity scan of a stored UDF body.
fn udf_body_is_impure(body: &str) -> bool {
    IMPURE_TOKENS.iter().any(|t| body.contains(t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    fn catalog_with(udf_body: &str) -> Engine {
        let db = Engine::new();
        db.execute("CREATE TABLE t (i INTEGER)").unwrap();
        db.execute(&format!(
            "CREATE FUNCTION f(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON {{\n{udf_body}\n}}"
        ))
        .unwrap();
        db
    }

    fn classify_on(db: &Engine, sql: &str) -> CommandClass {
        db.with_catalog(|c| classify_sql(sql, c))
    }

    #[test]
    fn plain_reads_are_reads() {
        let db = catalog_with("return i");
        for sql in [
            "SELECT i FROM t",
            "SELECT f(i) FROM t",
            "SELECT * FROM sys.functions",
            "SELECT * FROM sys.sessions",
            "EXPLAIN SELECT i FROM t",
            "EXPLAIN ANALYZE SELECT i FROM t",
        ] {
            assert_eq!(classify_on(&db, sql), CommandClass::Read, "{sql}");
        }
    }

    #[test]
    fn mutations_are_writes() {
        let db = catalog_with("return i");
        for sql in [
            "INSERT INTO t VALUES (1)",
            "UPDATE t SET i = 2",
            "DELETE FROM t",
            "CREATE TABLE u (i INTEGER)",
            "DROP TABLE t",
            "DROP FUNCTION f",
            "COPY INTO t FROM 'x.csv'",
            "EXPLAIN ANALYZE INSERT INTO t VALUES (1)",
        ] {
            assert_eq!(classify_on(&db, sql), CommandClass::Write, "{sql}");
        }
    }

    #[test]
    fn explain_of_a_write_only_plans() {
        let db = catalog_with("return i");
        assert_eq!(
            classify_on(&db, "EXPLAIN INSERT INTO t VALUES (1)"),
            CommandClass::Read
        );
    }

    #[test]
    fn loopback_udfs_route_to_the_writer() {
        let db = catalog_with("res = _conn.execute('SELECT 1')\nreturn i");
        assert_eq!(classify_on(&db, "SELECT f(i) FROM t"), CommandClass::Write);
        // Same SELECT shape without the impure UDF stays a read.
        assert_eq!(classify_on(&db, "SELECT i FROM t"), CommandClass::Read);
    }

    #[test]
    fn file_io_udfs_route_to_the_writer() {
        let db = catalog_with("import pickle\npickle.dump(i, 'out.bin')\nreturn i");
        assert_eq!(classify_on(&db, "SELECT f(i) FROM t"), CommandClass::Write);
    }

    #[test]
    fn parse_errors_are_reads() {
        let db = catalog_with("return i");
        assert_eq!(classify_on(&db, "SELEC nonsense"), CommandClass::Read);
    }

    #[test]
    fn extraction_targets_are_exempt_from_the_purity_scan() {
        // The extracted UDF is intercepted, never executed: its impure body
        // must not force the writer...
        let db = catalog_with("res = _conn.execute('SELECT 1')\nreturn i");
        let class = db.with_catalog(|c| classify_extract("SELECT f(i) FROM t", "f", c));
        assert_eq!(class, CommandClass::Read);
        // ...but another impure UDF in the same query still does.
        let class = db.with_catalog(|c| classify_extract("SELECT f(i) FROM t", "g", c));
        assert_eq!(class, CommandClass::Write);
    }

    #[test]
    fn unknown_call_names_do_not_force_writes() {
        // Builtins/aggregates are not in the catalog; they must not trip the
        // purity scan.
        let db = catalog_with("return i");
        assert_eq!(classify_on(&db, "SELECT sum(i) FROM t"), CommandClass::Read);
    }

    #[test]
    fn only_reads_that_call_no_stored_function_replay() {
        for sql in [
            "SELECT sum(i), abs(i) FROM t WHERE i > 1",
            "EXPLAIN UPDATE t SET i = 1",
            "SELEC nonsense",
        ] {
            assert!(replay_is_safe(sql, None), "{sql}");
        }
        for sql in [
            "SELECT f(i) FROM t",
            "SELECT * FROM tf((SELECT i FROM t))",
            "EXPLAIN ANALYZE SELECT f(i) FROM t",
            "EXPLAIN ANALYZE UPDATE t SET i = 1",
            "INSERT INTO t VALUES (1)",
        ] {
            assert!(!replay_is_safe(sql, None), "{sql}");
        }
        // An extract intercepts its UDF, whose body never runs.
        assert!(replay_is_safe("SELECT F(i) FROM t", Some("f")));
        assert!(!replay_is_safe("SELECT f(g(i)) FROM t", Some("f")));
    }
}
