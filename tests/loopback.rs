//! Differential test of the loopback connection (paper §2.3): a UDF's
//! `_conn.execute` must answer the same whether the UDF runs inside the
//! server, in a devUDF local run over the wire, or in a local run over the
//! embedded engine — the same value, or the same Python exception kind and
//! message.

use devudf::{DevUdf, Settings};
use pylite::Value;
use wireproto::{Server, ServerConfig, WireValue};

fn seed(db: &monetlite::Engine) {
    db.execute("CREATE TABLE numbers (i INTEGER)").unwrap();
    db.execute("INSERT INTO numbers VALUES (1), (2), (3)")
        .unwrap();
    db.execute("CREATE TABLE gaps (v INTEGER)").unwrap();
    db.execute("INSERT INTO gaps VALUES (1), (NULL), (3)")
        .unwrap();
    db.execute("CREATE TABLE log (v INTEGER)").unwrap();
    db.execute(
        "CREATE FUNCTION tf(column INTEGER) RETURNS TABLE(d DOUBLE) LANGUAGE PYTHON { return 3 }",
    )
    .unwrap();
    for (name, expr) in CASES {
        db.execute(&probe(name, expr)).unwrap();
    }
}

/// One case per `_conn` behaviour: (probe UDF name, Python expression).
const CASES: &[(&str, &str)] = &[
    (
        "multi_row",
        "repr(_conn.execute('SELECT i FROM numbers')['i'])",
    ),
    (
        "one_row",
        "repr(_conn.execute('SELECT i FROM numbers WHERE i = 2')['i'])",
    ),
    ("nulls", "repr(_conn.execute('SELECT v FROM gaps')['v'])"),
    ("dml", "repr(_conn.execute('INSERT INTO log VALUES (7)'))"),
    ("unpack", "unpack()"),
    (
        "int_subscript",
        "repr(_conn.execute('SELECT i FROM numbers')[0])",
    ),
    (
        "nested_coercion",
        "repr(_conn.execute('SELECT * FROM tf((SELECT i FROM numbers))')['d'])",
    ),
    (
        "name_in_literal",
        "repr(_conn.execute(\"SELECT 'tf' AS label\")['label'])",
    ),
    (
        "str_of_result",
        "str(_conn.execute('SELECT i FROM numbers'))",
    ),
];

/// A UDF that evaluates `expr` and returns its value, or the exception it
/// raised, as a string.
fn probe(name: &str, expr: &str) -> String {
    format!(
        "CREATE FUNCTION {name}(i INTEGER) RETURNS STRING LANGUAGE PYTHON {{\n\
         def unpack():\n    (a, b) = _conn.execute('SELECT i, i * 2 AS j FROM numbers')\n    return repr(a) + ' ' + repr(b)\n\
         try:\n    out = {expr}\n\
         except TypeError as e:\n    out = 'TypeError: ' + e\n\
         except KeyError as e:\n    out = 'KeyError: ' + e\n\
         except ValueError as e:\n    out = 'ValueError: ' + e\n\
         return out\n}}"
    )
}

fn debug_query(name: &str) -> String {
    format!("SELECT {name}(i) FROM numbers")
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("devudf-loopback-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Each case's answer from a local run of its probe.
fn local_answers(dev: &mut DevUdf) -> Vec<String> {
    dev.import_all().unwrap();
    CASES
        .iter()
        .map(|(name, _)| {
            dev.settings.debug_query = debug_query(name);
            match dev.run_udf(name).unwrap().result {
                Value::Str(s) => s.to_string(),
                other => panic!("{name}: {other:?}"),
            }
        })
        .collect()
}

#[test]
fn conn_answers_alike_on_the_server_and_in_both_local_runs() {
    // Serialized with the round-trip count below, which reads the
    // process-global client latency histograms.
    let _serial = obs::metrics::test_lock();
    let server = Server::start(ServerConfig::new("demo", "monetdb", "monetdb"), seed);
    let mut client =
        wireproto::Client::connect_in_proc(&server, "monetdb", "monetdb", "demo").unwrap();
    let on_server: Vec<String> = CASES
        .iter()
        .map(|(name, _)| {
            let t = client
                .query(&debug_query(name))
                .unwrap()
                .into_table()
                .unwrap();
            match &t.rows[0][0] {
                WireValue::Str(s) => s.clone(),
                other => panic!("{name}: {other:?}"),
            }
        })
        .collect();

    let dir = temp_dir("wire");
    let mut dev = DevUdf::connect_in_proc(&server, Settings::default(), &dir).unwrap();
    let over_wire = local_answers(&mut dev);
    std::fs::remove_dir_all(&dir).ok();
    server.shutdown();

    let dir = temp_dir("embedded");
    let mut dev = DevUdf::connect_embedded(Settings::default(), &dir, seed).unwrap();
    let over_embedded = local_answers(&mut dev);
    std::fs::remove_dir_all(&dir).ok();

    for (k, (name, _)) in CASES.iter().enumerate() {
        assert_eq!(
            on_server[k], over_wire[k],
            "{name}: server vs local over the wire"
        );
        assert_eq!(
            on_server[k], over_embedded[k],
            "{name}: server vs local over the embedded engine"
        );
    }
    // What the server answers, for the record.
    let expected = [
        "array([1, 2, 3], dtype=int64)",
        "2",
        "[1, None, 3]",
        "1",
        "array([1, 2, 3], dtype=int64) array([2, 4, 6], dtype=int64)",
        "TypeError: result_set indices must be column-name strings",
        "3.0",
        "'tf'",
        "<result_set 1 column(s) x 3 row(s)>",
    ];
    assert_eq!(on_server, expected);
}

/// Calls the wire client has made so far: each records one
/// `wire.client.latency.<op>` observation.
fn client_calls() -> i64 {
    obs::metrics::rows()
        .iter()
        .filter(|r| r.name.starts_with("wire.client.latency."))
        .map(|r| r.value)
        .sum()
}

/// A local run of a UDF that never touches `_conn` asks the server
/// nothing: its inputs are already in `input.bin`, and the function list
/// is fetched only by a loopback query that calls a function.
#[test]
fn local_run_without_conn_makes_no_round_trip() {
    let _serial = obs::metrics::test_lock();
    obs::set_enabled(true);
    let server = Server::start(ServerConfig::new("demo", "monetdb", "monetdb"), |db| {
        seed(db);
        db.execute(
            "CREATE FUNCTION mean_of(i INTEGER) RETURNS DOUBLE LANGUAGE PYTHON { return sum(i) / len(i) }",
        )
        .unwrap();
    });
    let dir = temp_dir("no-round-trip");
    let mut settings = Settings::default();
    settings.debug_query = debug_query("mean_of");
    let mut dev = DevUdf::connect_in_proc(&server, settings, &dir).unwrap();
    dev.import(&["mean_of"]).unwrap();
    dev.fetch_inputs("mean_of").unwrap();
    let before = client_calls();
    assert!(before > 0, "import and fetch went over the wire");
    let outcome = dev.run_udf("mean_of").unwrap();
    assert_eq!(outcome.result, Value::Float(2.0));
    assert_eq!(client_calls(), before);
    std::fs::remove_dir_all(&dir).ok();
    server.shutdown();
}
