//! Crash-recovery property tests for the embedded persistence layer
//! (DESIGN §17): a persistent engine must reopen to *exactly* the state
//! the WAL + snapshot describe, and a torn WAL tail must recover to a
//! **statement-prefix** of the committed history — never a partial
//! transaction, never a failure to open.

use devharness::prop::{self, Config};

use monetlite::{Engine, FsyncPolicy, StorageOptions};

fn no_sync(snapshot_every: u64) -> StorageOptions {
    StorageOptions {
        fsync: FsyncPolicy::Never,
        snapshot_every,
    }
}

fn temp_dir(tag: &str, case: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "devudf-persist-{tag}-{}-{case}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Decode one generated op into a SQL statement. The pool deliberately
/// mixes DDL (tables, stored UDFs) with row DML (insert/update/delete)
/// so replay exercises every WAL-logged statement shape; values are
/// derived from the op index, keeping runs deterministic.
fn op_sql(op: u8, i: usize) -> String {
    let t = i % 3; // three table names, so ops collide and sometimes fail
    match op % 6 {
        0 => format!("CREATE TABLE t{t} (a INTEGER, b DOUBLE)"),
        1 => format!(
            "INSERT INTO t{t} VALUES ({}, {}.5), ({}, {}.25)",
            i,
            i,
            i + 1,
            i + 1
        ),
        2 => format!("UPDATE t{t} SET a = a + {} WHERE a > {}", i % 7, i % 11),
        3 => format!("DELETE FROM t{t} WHERE a = {}", i % 13),
        4 => format!(
            "CREATE FUNCTION f{} (x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {{ return x + {i} }}",
            i % 4
        ),
        _ => format!("SELECT count(a) FROM t{t}"), // reads must never be logged
    }
}

/// A full, order-sensitive fingerprint of the catalog: every table's
/// contents plus every stored function's metadata.
fn digest(db: &Engine) -> String {
    let mut out = String::new();
    for t in 0..3 {
        match db.execute(&format!("SELECT * FROM t{t}")) {
            Ok(r) => out.push_str(&format!("t{t}: {:?}\n", r.table())),
            Err(_) => out.push_str(&format!("t{t}: absent\n")),
        }
    }
    for name in db.function_names() {
        let def = db.get_function(&name).unwrap().unwrap();
        out.push_str(&format!(
            "{name}: {:?} -> {:?} {{{}}}\n",
            def.params, def.returns, def.body
        ));
    }
    out.push_str(&format!("version {}", db.catalog_version()));
    out
}

/// Random DML against a persistent engine, then a clean close + reopen:
/// the reopened engine must be indistinguishable from an in-memory
/// engine that executed the same statements — tables, rows, stored
/// UDFs, even the catalog version counter. Runs with and without
/// automatic checkpoints, so both the pure-WAL and the
/// snapshot-plus-WAL recovery paths are exercised.
#[test]
fn restart_survives_random_dml() {
    let strategy = (
        prop::vec_of(prop::u64_in(0..6), 1..24),
        prop::u64_in(0..3), // snapshot cadence: 0 (never), 1, or 2
        prop::any_u64(),
    );
    let case = std::cell::Cell::new(0u64);
    prop::check(Config::cases(32), strategy, |(ops, cadence, _seed)| {
        case.set(case.get() + 1);
        let dir = temp_dir("restart", case.get());
        let reference = Engine::new();
        {
            let db = Engine::open_with(&dir, no_sync(*cadence)).unwrap();
            for (i, op) in ops.iter().enumerate() {
                let sql = op_sql(*op as u8, i);
                let persisted = db.execute(&sql);
                let in_memory = reference.execute(&sql);
                // Same statement, same verdict — else the runs diverged.
                if persisted.is_ok() != in_memory.is_ok() {
                    return Err(format!("verdicts diverged on {sql:?}"));
                }
            }
        } // drop = close
        let reopened = Engine::open_with(&dir, no_sync(*cadence)).unwrap();
        let got = digest(&reopened);
        let want = digest(&reference);
        std::fs::remove_dir_all(&dir).ok();
        if got != want {
            return Err(format!(
                "reopened state diverged:\n{got}\n--- want ---\n{want}"
            ));
        }
        Ok(())
    });
}

/// Kill-point fault injection: truncate the WAL at an arbitrary byte
/// offset (a crash mid-append) and demand that the reopened catalog
/// equals the state after some *whole-statement prefix* of the history.
/// A partial statement surviving, or the open failing, is a bug.
#[test]
fn torn_wal_tail_recovers_to_a_statement_prefix() {
    let strategy = (
        prop::vec_of(prop::u64_in(0..5), 2..16), // no SELECTs: every op may log
        prop::any_u64(),                         // picks the kill point
    );
    let case = std::cell::Cell::new(0u64);
    prop::check(Config::cases(32), strategy, |(ops, kill)| {
        case.set(case.get() + 1);
        let dir = temp_dir("kill", case.get());
        // snapshot_every = 0: everything stays in the WAL, so the kill
        // point can land inside any statement of the whole history.
        let mut executed: Vec<String> = Vec::new();
        {
            let db = Engine::open_with(&dir, no_sync(0)).unwrap();
            for (i, op) in ops.iter().enumerate() {
                let sql = op_sql(*op as u8, i);
                if db.execute(&sql).is_ok() {
                    executed.push(sql);
                }
            }
        }
        // Crash: chop the WAL mid-byte, anywhere from "just the header"
        // to "one byte short of complete".
        let wal = dir.join("wal.log");
        let len = std::fs::metadata(&wal).unwrap().len();
        let cut = 8 + kill % len.max(9).saturating_sub(8);
        let file = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
        file.set_len(cut).unwrap();
        drop(file);

        let reopened = Engine::open_with(&dir, no_sync(0)).unwrap();
        let got = digest(&reopened);
        std::fs::remove_dir_all(&dir).ok();
        // Prefix-consistency: the recovered state must match replaying
        // the first j successful statements, for some j.
        let replay = Engine::new();
        let mut prefixes = vec![digest(&replay)];
        for sql in &executed {
            replay.execute(sql).unwrap();
            prefixes.push(digest(&replay));
        }
        if !prefixes.contains(&got) {
            return Err(format!(
                "recovered state (cut at byte {cut}) matches no statement prefix:\n{got}"
            ));
        }
        Ok(())
    });
}

/// A crash *during checkpoint* leaves a partial `snapshot.tmp` behind.
/// The tmp file is garbage by definition (the rename never happened) —
/// recovery must discard it and replay the intact WAL, whatever bytes
/// the torn tmp holds.
#[test]
fn truncated_snapshot_tmp_is_discarded_on_reopen() {
    let strategy = (prop::vec_of(prop::any_u8(), 0..200), prop::any_u64());
    let case = std::cell::Cell::new(0u64);
    prop::check(Config::cases(24), strategy, |(junk, _seed)| {
        case.set(case.get() + 1);
        let dir = temp_dir("tmp", case.get());
        let want;
        {
            let db = Engine::open_with(&dir, no_sync(0)).unwrap();
            db.execute("CREATE TABLE t0 (a INTEGER, b DOUBLE)").unwrap();
            db.execute("INSERT INTO t0 VALUES (1, 1.5)").unwrap();
            want = digest(&db);
        }
        std::fs::write(dir.join("snapshot.tmp"), junk).unwrap();
        let reopened = Engine::open_with(&dir, no_sync(0)).unwrap();
        let got = digest(&reopened);
        std::fs::remove_dir_all(&dir).ok();
        if got != want {
            return Err(format!(
                "state diverged after torn tmp:\n{got}\n--- want ---\n{want}"
            ));
        }
        Ok(())
    });
}

/// The explicit restart-survives acceptance check, end to end through
/// `devudf`'s own session layer: open a project in embedded mode on a
/// data directory, create a UDF through the transport, reconnect, and
/// find catalog + stored UDF + rows identical.
#[test]
fn embedded_session_state_survives_reconnect() {
    let data = temp_dir("session", 0);
    let project = temp_dir("session-proj", 0);
    std::fs::create_dir_all(&project).unwrap();
    let mut settings = devudf::Settings::default();
    settings.storage.data_dir = data.display().to_string();
    settings.storage.fsync = monetlite::FsyncPolicy::Never;
    settings.debug_query = "SELECT double_it(i) FROM t".to_string();

    let mut dev = devudf::DevUdf::connect_embedded(settings.clone(), &project, |_| {}).unwrap();
    dev.server_query("CREATE TABLE t (i INTEGER)").unwrap();
    dev.server_query("INSERT INTO t VALUES (1), (2), (3)")
        .unwrap();
    dev.server_query(
        "CREATE FUNCTION double_it(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return i * 2 }",
    )
    .unwrap();
    let before = dev
        .server_query("SELECT double_it(i) FROM t")
        .unwrap()
        .into_table()
        .unwrap();
    drop(dev);

    let mut dev = devudf::DevUdf::connect_embedded(settings, &project, |_| {}).unwrap();
    assert_eq!(
        dev.server_functions().unwrap(),
        vec!["double_it".to_string()]
    );
    let after = dev
        .server_query("SELECT double_it(i) FROM t")
        .unwrap()
        .into_table()
        .unwrap();
    assert_eq!(before, after);
    // The imported-and-run loop works against the replayed catalog too.
    dev.import_all().unwrap();
    let run = dev.run_udf("double_it").unwrap();
    assert_eq!(run.result_repr, "array([2, 4, 6], dtype=int64)");
    std::fs::remove_dir_all(&data).ok();
    std::fs::remove_dir_all(&project).ok();
}

/// The rows of `sql` on `db`.
fn rows(db: &Engine, sql: &str) -> Vec<Vec<monetlite::SqlValue>> {
    db.execute(sql).unwrap().table().unwrap().rows()
}

/// A `SELECT` whose UDF writes through `_conn` succeeds: the loopback
/// `INSERT` answers its affected-row count. The write moved the catalog,
/// so the `SELECT` is logged, and a reopen replays it to the live state.
#[test]
fn loopback_write_inside_a_select_survives_reopen() {
    let dir = temp_dir("loopback-write", 0);
    let live = Engine::open_with(&dir, no_sync(1024)).unwrap();
    live.execute("CREATE TABLE t (i INTEGER)").unwrap();
    live.execute("INSERT INTO t VALUES (1)").unwrap();
    live.execute("CREATE TABLE log (v INTEGER)").unwrap();
    live.execute(concat!(
        "CREATE FUNCTION logs(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON {\n",
        "return _conn.execute('INSERT INTO log VALUES (7)')\n",
        "}"
    ))
    .unwrap();
    let answer = live.execute("SELECT logs(i) FROM t").unwrap();
    assert_eq!(
        answer.table().unwrap().rows(),
        [[monetlite::SqlValue::Int(1)]]
    );
    let logged = rows(&live, "SELECT v FROM log");
    assert_eq!(logged, [[monetlite::SqlValue::Int(7)]]);
    drop(live);
    let reopened = Engine::open_with(&dir, no_sync(1024)).unwrap();
    assert_eq!(rows(&reopened, "SELECT v FROM log"), logged);
    std::fs::remove_dir_all(&dir).ok();
}

/// Run `failing` against a persistent table holding one row: it must
/// fail with `error`, leave the live table and catalog version as they
/// were, and a reopen must equal live.
fn assert_statement_is_all_or_nothing(tag: &str, failing: &str, error: &str) {
    let dir = temp_dir(tag, 0);
    let live = Engine::open_with(&dir, no_sync(1024)).unwrap();
    live.execute("CREATE TABLE numbers (i INTEGER)").unwrap();
    live.execute("INSERT INTO numbers VALUES (1)").unwrap();
    live.fs().write("rows.csv", b"20\n21\nx\n22\n").unwrap();
    let before = digest_of_numbers(&live);
    let err = live.execute(failing).unwrap_err();
    assert!(err.message.contains(error), "{err}");
    assert_eq!(digest_of_numbers(&live), before, "{failing}");
    drop(live);
    let reopened = Engine::open_with(&dir, no_sync(1024)).unwrap();
    assert_eq!(digest_of_numbers(&reopened), before, "{failing}");
    std::fs::remove_dir_all(&dir).ok();
}

fn digest_of_numbers(db: &Engine) -> (Vec<Vec<monetlite::SqlValue>>, u64) {
    (rows(db, "SELECT i FROM numbers"), db.catalog_version())
}

#[test]
fn failing_multi_row_insert_leaves_nothing_behind() {
    assert_statement_is_all_or_nothing(
        "atomic-insert",
        "INSERT INTO numbers VALUES (10), (11), ('x'), (12)",
        "cannot cast 'x' to INTEGER",
    );
}

#[test]
fn failing_copy_into_leaves_nothing_behind() {
    assert_statement_is_all_or_nothing(
        "atomic-copy",
        "COPY INTO numbers FROM 'rows.csv'",
        "cannot cast 'x' to INTEGER",
    );
}
