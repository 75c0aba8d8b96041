//! Cross-crate end-to-end tests: TCP transport, VCS integration, workflow
//! comparison, execution models, and failure injection across the stack.

use devudf::{workflow, DevUdf, Settings};
use wireproto::{Server, ServerConfig, TransferOptions, WireError, WireValue};

fn temp_project(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "devudf-e2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn demo_server(rows: usize) -> Server {
    Server::start(ServerConfig::new("demo", "monetdb", "monetdb"), move |db| {
        db.execute("CREATE TABLE numbers (i INTEGER)").unwrap();
        // Locally repetitive values: realistic and compressible.
        let values: Vec<String> = (1..=rows).map(|i| format!("({})", i % 50)).collect();
        for chunk in values.chunks(1000) {
            db.execute(&format!("INSERT INTO numbers VALUES {}", chunk.join(", ")))
                .unwrap();
        }
        db.execute(concat!(
            "CREATE FUNCTION mean_deviation(column INTEGER) RETURNS DOUBLE LANGUAGE PYTHON {\n",
            "mean = 0\n",
            "for i in range(0, len(column)):\n",
            "    mean += column[i]\n",
            "mean = mean / len(column)\n",
            "distance = 0\n",
            "for i in range(0, len(column)):\n",
            "    distance += abs(column[i] - mean)\n",
            "return distance / len(column)\n",
            "}"
        ))
        .unwrap();
    })
}

#[test]
fn full_cycle_over_tcp() {
    let server = demo_server(50);
    let addr = server.listen_tcp().unwrap();
    let dir = temp_project("tcp");
    let mut settings = Settings::default();
    settings.host = addr.ip().to_string();
    settings.port = addr.port();
    settings.debug_query = "SELECT mean_deviation(i) FROM numbers".to_string();
    let mut dev = DevUdf::connect_tcp(settings, &dir).unwrap();
    dev.import_all().unwrap();
    let outcome = dev.run_udf("mean_deviation").unwrap();
    assert!(matches!(outcome.result, pylite::Value::Float(f) if f > 0.0));
    dev.export(&["mean_deviation"]).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    server.shutdown();
}

#[test]
fn vcs_tracks_the_fix_history() {
    let server = demo_server(20);
    let dir = temp_project("vcs");
    let mut settings = Settings::default();
    settings.debug_query = "SELECT mean_deviation(i) FROM numbers".to_string();
    let mut dev = DevUdf::connect_in_proc(&server, settings, &dir).unwrap();
    dev.project.init_vcs().unwrap();

    dev.import_all().unwrap();
    let c1 = dev
        .project
        .commit_all("import UDFs from server", "dev")
        .unwrap();

    let script = dev.project.read_udf("mean_deviation").unwrap();
    dev.project
        .write_udf("mean_deviation", &script.replace("abs(", "abs( "))
        .unwrap();
    let c2 = dev.project.commit_all("cosmetic tweak", "dev").unwrap();
    assert_ne!(c1, c2);

    let repo = dev.project.vcs().unwrap();
    let log = repo.log().unwrap();
    assert_eq!(log.len(), 2);
    assert_eq!(log[0].message, "cosmetic tweak");
    let diff = repo
        .diff_file(
            "mean_deviation.py",
            &minivcs::ObjectId(c1.clone()),
            Some(&minivcs::ObjectId(c2.clone())),
        )
        .unwrap();
    assert!(diff.contains("-"), "diff shows the change:\n{diff}");

    std::fs::remove_dir_all(&dir).ok();
    server.shutdown();
}

#[test]
fn workflow_comparison_round_trips() {
    let server = demo_server(500);
    let dir = temp_project("workflow");
    let mut settings = Settings::default();
    settings.debug_query = "SELECT mean_deviation(i) FROM numbers".to_string();
    let mut dev = DevUdf::connect_in_proc(&server, settings, &dir).unwrap();

    let trad = workflow::traditional_workflow(
        &mut dev,
        "CREATE OR REPLACE FUNCTION mean_deviation(column INTEGER) RETURNS DOUBLE LANGUAGE PYTHON",
        "SELECT mean_deviation(i) FROM numbers",
        6,
        |i| format!("return {i}.0 + sum(column) * 0\n"),
    )
    .unwrap();
    let devw = workflow::devudf_workflow(&mut dev, "mean_deviation", 6, |i, original| {
        original.replace("return", &format!("ignored = {i}\n    return"))
    })
    .unwrap();
    assert_eq!(trad.server_round_trips, 12);
    assert!(devw.server_round_trips < trad.server_round_trips);

    std::fs::remove_dir_all(&dir).ok();
    server.shutdown();
}

#[test]
fn sampling_transfers_fewer_bytes_end_to_end() {
    let server = demo_server(5_000);
    let dir = temp_project("sampling");
    let mut settings = Settings::default();
    settings.debug_query = "SELECT mean_deviation(i) FROM numbers".to_string();
    settings.transfer.sample = Some(100);
    let mut dev = DevUdf::connect_in_proc(&server, settings, &dir).unwrap();
    dev.import_all().unwrap();
    let stats = dev.fetch_inputs("mean_deviation").unwrap();
    // Running locally on the sample still works and is plausible.
    let outcome = dev.run_udf("mean_deviation").unwrap();
    assert!(matches!(outcome.result, pylite::Value::Float(f) if f > 0.0));
    // 100 of 5000 rows → a small payload.
    let full_estimate = 5_000 * 2; // ≥2 bytes per varint-encoded value
    assert!(stats.wire_len < full_estimate / 5, "{}", stats.wire_len);

    std::fs::remove_dir_all(&dir).ok();
    server.shutdown();
}

#[test]
fn server_rejects_bad_password_and_client_reports_auth_error() {
    let server = demo_server(5);
    let err = wireproto::Client::connect_in_proc(&server, "monetdb", "oops", "demo").unwrap_err();
    assert!(matches!(err, WireError::Auth(_)));
    server.shutdown();
}

#[test]
fn udf_runtime_error_travels_with_traceback_through_every_layer() {
    let server = Server::start(ServerConfig::new("demo", "monetdb", "monetdb"), |db| {
        db.execute("CREATE TABLE t (i INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        db.execute(concat!(
            "CREATE FUNCTION crashy(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON {\n",
            "x = 10\n",
            "return x / (len(i) - len(i))\n",
            "}"
        ))
        .unwrap();
    });
    let mut client =
        wireproto::Client::connect_in_proc(&server, "monetdb", "monetdb", "demo").unwrap();
    let err = client.query("SELECT crashy(i) FROM t").unwrap_err();
    match err {
        WireError::Server {
            code, traceback, ..
        } => {
            assert_eq!(code, "UdfError");
            let tb = traceback.unwrap();
            assert!(tb.contains("line 2"), "{tb}");
            assert!(tb.contains("ZeroDivisionError"), "{tb}");
        }
        other => panic!("{other:?}"),
    }
    server.shutdown();
}

#[test]
fn tuple_at_a_time_server_matches_operator_at_a_time_for_rowwise_udfs() {
    // §2.4: for per-row UDFs the two models must agree on results.
    let run = |model: monetlite::ExecutionModel| -> Vec<WireValue> {
        let server = Server::start(ServerConfig::new("demo", "monetdb", "monetdb"), move |db| {
            db.execute("CREATE TABLE t (i INTEGER)").unwrap();
            db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
            db.execute(
                "CREATE FUNCTION sq(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return i * i }",
            )
            .unwrap();
            db.set_model(model);
        });
        let mut client =
            wireproto::Client::connect_in_proc(&server, "monetdb", "monetdb", "demo").unwrap();
        let t = client
            .query("SELECT sq(i) FROM t")
            .unwrap()
            .into_table()
            .unwrap();
        let vals: Vec<WireValue> = t.rows.into_iter().map(|mut r| r.remove(0)).collect();
        server.shutdown();
        vals
    };
    assert_eq!(
        run(monetlite::ExecutionModel::OperatorAtATime),
        run(monetlite::ExecutionModel::TupleAtATime)
    );
}

#[test]
fn transfer_options_matrix_end_to_end() {
    let server = demo_server(300);
    for (compress, encrypt, sample) in [
        (false, false, None),
        (true, false, None),
        (false, true, None),
        (true, true, Some(50usize)),
    ] {
        let dir = temp_project(&format!("matrix-{compress}-{encrypt}-{sample:?}"));
        let mut settings = Settings::default();
        settings.debug_query = "SELECT mean_deviation(i) FROM numbers".to_string();
        settings.transfer.compress = compress;
        settings.transfer.encrypt = encrypt;
        settings.transfer.sample = sample;
        let mut dev = DevUdf::connect_in_proc(&server, settings, &dir).unwrap();
        dev.import_all().unwrap();
        let outcome = dev.run_udf("mean_deviation").unwrap();
        assert!(
            matches!(outcome.result, pylite::Value::Float(f) if f > 0.0),
            "options ({compress},{encrypt},{sample:?})"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    server.shutdown();
}

#[test]
fn extract_options_also_work_directly_on_the_client() {
    let server = demo_server(1_000);
    let mut client =
        wireproto::Client::connect_in_proc(&server, "monetdb", "monetdb", "demo").unwrap();
    let (plain, plain_stats) = client
        .extract_inputs(
            "SELECT mean_deviation(i) FROM numbers",
            "mean_deviation",
            TransferOptions::plain(),
        )
        .unwrap();
    let (compressed, compressed_stats) = client
        .extract_inputs(
            "SELECT mean_deviation(i) FROM numbers",
            "mean_deviation",
            TransferOptions::compressed(),
        )
        .unwrap();
    assert_eq!(plain, compressed, "payload content identical");
    assert!(compressed_stats.wire_len < plain_stats.wire_len);
    server.shutdown();
}

// Acceptance criterion of the telemetry layer: a live `sys.metrics` query
// over TCP surfaces counters from both sides of the wire — client retry
// activity and engine-side UDF invocations — in one result set.
#[test]
fn sys_metrics_over_tcp_shows_wire_and_udf_counters() {
    let _serial = obs::metrics::test_lock();
    obs::set_enabled(true);
    let server = demo_server(50);
    let addr = server.listen_tcp().unwrap();
    let retries_before = obs::counter!("wire.client.retries").get();
    let udfs_before = obs::counter!("monet.udf.invocations").get();

    // A lossy link plus a retry budget: the client both exercises the UDF
    // path and is forced into retries by the seeded fault schedule. Only
    // the query that calls no stored function is replayed; a lost UDF
    // reply surfaces after one attempt, since the UDF may have written.
    let mut client = wireproto::Client::connect_tcp_with(
        addr,
        "monetdb",
        "monetdb",
        "demo",
        wireproto::ClientOptions {
            retry: wireproto::RetryPolicy {
                max_attempts: 8,
                initial_backoff: std::time::Duration::from_millis(1),
                max_backoff: std::time::Duration::from_millis(4),
                deadline: Some(std::time::Duration::from_secs(10)),
            },
            fault: Some(wireproto::FaultPolicy::lossy(0x5e7ec5, 0.20)),
            ..wireproto::ClientOptions::default()
        },
    )
    .unwrap();
    let mut udf_answers = 0;
    for _ in 0..20 {
        client.query("SELECT sum(i) FROM numbers").unwrap();
        match client.query("SELECT mean_deviation(i) FROM numbers") {
            Ok(_) => udf_answers += 1,
            Err(wireproto::WireError::RetriesExhausted { attempts, .. }) => assert_eq!(attempts, 1),
            Err(other) => panic!("{other:?}"),
        }
    }
    assert!(udf_answers > 0);
    assert!(
        obs::counter!("wire.client.retries").get() > retries_before,
        "the 20% schedule must have forced at least one retry"
    );

    let table = client
        .query("SELECT * FROM sys.metrics")
        .unwrap()
        .into_table()
        .unwrap();
    let name_idx = table.columns.iter().position(|(n, _)| n == "name").unwrap();
    let value_idx = table
        .columns
        .iter()
        .position(|(n, _)| n == "value")
        .unwrap();
    let value_of = |metric: &str| -> i64 {
        let row = table
            .rows
            .iter()
            .find(|r| r[name_idx] == WireValue::Str(metric.to_string()))
            .unwrap_or_else(|| panic!("sys.metrics has no row '{metric}'"));
        match &row[value_idx] {
            WireValue::Int(v) => *v,
            other => panic!("{other:?}"),
        }
    };
    assert!(value_of("wire.client.retries") as u64 > retries_before);
    assert!(value_of("monet.udf.invocations") as u64 > udfs_before);
    assert!(value_of("wire.server.frames") > 0);
    assert!(value_of("monet.queries.executed") > 0);
    server.shutdown();
}
