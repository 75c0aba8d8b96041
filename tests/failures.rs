//! Failure injection across the stack: every layer must fail loudly and
//! cleanly, never hang or corrupt state. Every blocking wait in this
//! suite is bounded — by socket deadlines, retry budgets or the server's
//! mid-frame deadline — and `scripts/ci.sh` runs it under a hard
//! `timeout` so a reintroduced hang fails CI instead of wedging it.

use std::io::{Read, Write};
use std::time::{Duration, Instant};

use devudf::{DevUdf, DevUdfError, Settings};
use wireproto::transport::{read_frame, write_frame};
use wireproto::{
    transfer, Client, ClientOptions, FaultPolicy, Message, RetryPolicy, Server, ServerConfig,
    WireError,
};

fn temp_project(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "devudf-fail-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn demo_server() -> Server {
    Server::start(ServerConfig::new("demo", "monetdb", "monetdb"), |db| {
        db.execute("CREATE TABLE numbers (i INTEGER)").unwrap();
        db.execute("INSERT INTO numbers VALUES (1), (2), (3)")
            .unwrap();
        db.execute(
            "CREATE FUNCTION f(column INTEGER) RETURNS DOUBLE LANGUAGE PYTHON { return sum(column) / len(column) }",
        )
        .unwrap();
    })
}

#[test]
fn client_errors_cleanly_after_server_shutdown() {
    let server = demo_server();
    let mut client =
        wireproto::Client::connect_in_proc(&server, "monetdb", "monetdb", "demo").unwrap();
    client.ping().unwrap();
    server.shutdown();
    let err = client.query("SELECT 1").unwrap_err();
    assert!(matches!(err, WireError::Io(_)), "{err:?}");
}

#[test]
fn corrupted_input_bin_fails_with_pickle_error() {
    let server = demo_server();
    let dir = temp_project("corrupt-input");
    let mut settings = Settings::default();
    settings.debug_query = "SELECT f(i) FROM numbers".to_string();
    let mut dev = DevUdf::connect_in_proc(&server, settings, &dir).unwrap();
    dev.import_all().unwrap();
    dev.fetch_inputs("f").unwrap();
    // Corrupt the transferred data on disk.
    std::fs::write(dir.join("input.bin"), b"definitely not a pickle").unwrap();
    let err = dev.run_udf("f").unwrap_err();
    match err {
        DevUdfError::Python(e) => assert!(e.message.contains("pickle"), "{e}"),
        other => panic!("{other:?}"),
    }
    // Refetching repairs the project.
    dev.fetch_inputs("f").unwrap();
    assert!(dev.run_udf("f").is_ok());
    std::fs::remove_dir_all(&dir).ok();
    server.shutdown();
}

#[test]
fn export_after_server_side_drop_fails_cleanly() {
    let server = demo_server();
    let dir = temp_project("dropped");
    let mut settings = Settings::default();
    settings.debug_query = "SELECT f(i) FROM numbers".to_string();
    let mut dev = DevUdf::connect_in_proc(&server, settings, &dir).unwrap();
    dev.import_all().unwrap();
    dev.server_query("DROP FUNCTION f").unwrap();
    let err = dev.export(&["f"]).unwrap_err();
    match err {
        DevUdfError::Wire(WireError::Server { code, .. }) => assert_eq!(code, "CatalogError"),
        other => panic!("{other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
    server.shutdown();
}

#[test]
fn debug_query_not_invoking_the_udf_is_a_clean_error() {
    let server = demo_server();
    let dir = temp_project("noinvoke");
    let mut settings = Settings::default();
    settings.debug_query = "SELECT i FROM numbers".to_string(); // no UDF call
    let mut dev = DevUdf::connect_in_proc(&server, settings, &dir).unwrap();
    dev.import_all().unwrap();
    let err = dev.fetch_inputs("f").unwrap_err();
    match err {
        DevUdfError::Wire(WireError::Server { message, .. }) => {
            assert!(message.contains("does not invoke"), "{message}")
        }
        other => panic!("{other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
    server.shutdown();
}

#[test]
fn runaway_udf_is_stopped_by_the_step_budget() {
    let db = monetlite::Engine::new();
    db.set_udf_step_budget(10_000);
    db.execute("CREATE TABLE t (i INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.execute(
        "CREATE FUNCTION forever(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON {\nwhile True:\n    pass\nreturn 1\n}",
    )
    .unwrap();
    let err = db.execute("SELECT forever(i) FROM t").unwrap_err();
    assert!(err.message.contains("budget"), "{err}");
    // The engine is still usable afterwards.
    assert!(db.execute("SELECT count(*) FROM t").is_ok());
}

#[test]
fn deep_udf_recursion_is_capped_not_a_stack_overflow() {
    let db = monetlite::Engine::new();
    db.execute("CREATE TABLE t (i INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.execute(
        "CREATE FUNCTION deep(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON {\ndef rec(n):\n    return rec(n + 1)\nreturn rec(0)\n}",
    )
    .unwrap();
    let err = db.execute("SELECT deep(i) FROM t").unwrap_err();
    assert!(err.message.contains("recursion"), "{err}");
}

#[test]
fn loopback_recursion_through_the_engine_is_bounded() {
    // A UDF that invokes itself through a loopback query must not hang or
    // blow the stack: the interpreter recursion/step guards fire first.
    let db = monetlite::Engine::new();
    db.set_udf_step_budget(100_000);
    db.execute("CREATE TABLE t (i INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.execute(
        "CREATE FUNCTION ouro(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON {\nres = _conn.execute('SELECT ouro(i) FROM t')\nreturn 1\n}",
    )
    .unwrap();
    let err = db.execute("SELECT ouro(i) FROM t").unwrap_err();
    // Whatever guard fires (budget or stack depth), it must be an error,
    // not a crash.
    assert_eq!(err.code, monetlite::ErrorCode::Udf);
}

#[test]
fn malformed_frames_do_not_kill_the_server() {
    let server = demo_server();
    let (core, session) = server.in_proc_connection();
    // Send raw garbage as a frame body.
    let reply = core.handle_frame(session, &[0xde, 0xad, 0xbe, 0xef]);
    match wireproto::Message::decode(&reply).unwrap() {
        wireproto::Message::Error { code, .. } => assert_eq!(code, "ProtocolError"),
        other => panic!("{other:?}"),
    }
    // The server still answers healthy clients.
    let mut client =
        wireproto::Client::connect_in_proc(&server, "monetdb", "monetdb", "demo").unwrap();
    client.ping().unwrap();
    server.shutdown();
}

/// A fast retry policy for tests: real backoff shape, millisecond scale,
/// so no test ever sleeps for more than the 8 ms cap per retry.
fn test_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 5,
        initial_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(8),
        deadline: Some(Duration::from_secs(5)),
    }
}

fn faulty_options(fault: FaultPolicy, retry: RetryPolicy) -> ClientOptions {
    ClientOptions {
        retry,
        fault: Some(fault),
        ..ClientOptions::default()
    }
}

// Acceptance criterion of the robustness layer: under a seeded 10 %
// drop/corrupt schedule, a retrying client completes 100 consecutive
// query round trips while a bare client on the same schedule fails.
#[test]
fn retrying_client_survives_10pct_faults_where_bare_client_fails() {
    // Counter deltas below demand exact equality: serialize against every
    // other test that records into the process-global registry.
    let _serial = obs::metrics::test_lock();
    obs::set_enabled(true);
    let fault_counters = [
        ("dropped", obs::counter!("wire.fault.injected.dropped")),
        ("truncated", obs::counter!("wire.fault.injected.truncated")),
        ("corrupted", obs::counter!("wire.fault.injected.corrupted")),
        (
            "disconnected",
            obs::counter!("wire.fault.injected.disconnected"),
        ),
    ];
    let before: Vec<u64> = fault_counters.iter().map(|(_, c)| c.get()).collect();
    let retries_before = obs::counter!("wire.client.retries").get();
    let reconnects_before = obs::counter!("wire.client.reconnects").get();

    let server = demo_server();
    let fault = FaultPolicy::lossy(0xFA17, 0.10);

    let mut robust = Client::connect_in_proc_with(
        &server,
        "monetdb",
        "monetdb",
        "demo",
        faulty_options(fault, test_retry()),
    )
    .unwrap();
    let started = Instant::now();
    for i in 0..100 {
        let t = robust
            .query("SELECT sum(i) FROM numbers")
            .unwrap_or_else(|e| panic!("retrying client failed round trip {i}: {e}"))
            .into_table()
            .unwrap();
        assert_eq!(t.rows[0][0], wireproto::WireValue::Int(6));
    }
    // Every wait is bounded by the backoff cap; the whole loop must be
    // far under the 5 s retry deadline even on a loaded machine.
    assert!(started.elapsed() < Duration::from_secs(5), "not bounded");

    // The registry's injected-fault counters must equal the injector's own
    // per-schedule tally, fault by fault — the metrics are the schedule.
    let stats = robust.fault_stats().expect("client wraps a fault injector");
    for (i, (kind, counter)) in fault_counters.iter().enumerate() {
        let delta = counter.get() - before[i];
        let expected = match *kind {
            "dropped" => stats.dropped,
            "truncated" => stats.truncated,
            "corrupted" => stats.corrupted,
            "disconnected" => stats.disconnected,
            _ => unreachable!(),
        };
        assert_eq!(delta, expected, "counter wire.fault.injected.{kind}");
    }
    // Each injected fault on an idempotent call triggered exactly one
    // retry, and every retry reconnects before re-sending.
    let retries = obs::counter!("wire.client.retries").get() - retries_before;
    let reconnects = obs::counter!("wire.client.reconnects").get() - reconnects_before;
    assert_eq!(retries, reconnects, "every retry reconnects first");
    assert_eq!(
        reconnects, stats.reconnects,
        "transport saw every reconnect"
    );
    // Every retry was provoked by an injected fault; faults drawn during
    // the post-reconnect re-login (whose failures are swallowed and
    // surface on the next attempt) account for the difference.
    assert!(retries > 0, "the 10% schedule must have fired");
    assert!(
        retries <= stats.injected(),
        "retries {retries} vs injected {}",
        stats.injected()
    );

    // Same fault schedule, retries disabled: the connection-level faults
    // surface raw. (Login itself may be the call that dies.)
    let bare_failures = match Client::connect_in_proc_with(
        &server,
        "monetdb",
        "monetdb",
        "demo",
        faulty_options(fault, RetryPolicy::none()),
    ) {
        Err(_) => 1,
        Ok(mut bare) => (0..100)
            .filter(|_| bare.query("SELECT sum(i) FROM numbers").is_err())
            .count(),
    };
    assert!(bare_failures > 0, "bare client should have seen faults");
    server.shutdown();
}

// The delta protocol rides the same retry machinery as every idempotent
// call: a dropped `ExtractDelta` frame (or its reply) must surface as a
// retried, correct payload — never a stale or partial reconstruction.
#[test]
fn dropped_delta_frames_retry_to_a_correct_payload() {
    let _serial = obs::metrics::test_lock();
    let server = Server::start(ServerConfig::new("demo", "monetdb", "monetdb"), |db| {
        db.execute("CREATE TABLE sensor (i INTEGER)").unwrap();
        let values: Vec<String> = (0..500).map(|i| format!("({})", 1000 + i)).collect();
        db.execute(&format!("INSERT INTO sensor VALUES {}", values.join(", ")))
            .unwrap();
        db.execute(
            "CREATE FUNCTION f(column INTEGER) RETURNS DOUBLE LANGUAGE PYTHON { return sum(column) / len(column) }",
        )
        .unwrap();
    });
    let fault = FaultPolicy::lossy(0xDE17A, 0.20);
    let mut flaky = Client::connect_in_proc_with(
        &server,
        "monetdb",
        "monetdb",
        "demo",
        ClientOptions {
            cache: Some(4),
            ..faulty_options(fault, test_retry())
        },
    )
    .unwrap();
    let mut truth = Client::connect_in_proc(&server, "monetdb", "monetdb", "demo").unwrap();
    let options = wireproto::TransferOptions::plain().with_block_size(512);
    let query = "SELECT f(i) FROM sensor";
    // Repeated extracts interleaved with DML: cold, warm-unchanged
    // (NotModified) and warm-dirty (sparse delta) rounds all run under
    // the 20 % drop/corrupt schedule.
    for round in 0..10 {
        let (flaky_value, _) = flaky
            .extract_inputs(query, "f", options)
            .unwrap_or_else(|e| panic!("delta extract failed in round {round}: {e}"));
        let (truth_value, _) = truth.extract_inputs(query, "f", options).unwrap();
        assert_eq!(
            flaky_value, truth_value,
            "retried delta extract diverged in round {round}"
        );
        if round % 2 == 0 {
            truth
                .query(&format!(
                    "UPDATE sensor SET i = {} WHERE i = {}",
                    1000 + round,
                    1250 + round
                ))
                .unwrap();
        }
    }
    let stats = flaky.fault_stats().expect("fault injector configured");
    assert!(stats.injected() > 0, "the 20% schedule must have fired");
    server.shutdown();
}

#[test]
fn non_idempotent_statement_is_never_replayed() {
    // Bumps the shared wire.fault.* counters: keep the exact-equality test
    // above honest by serializing with it.
    let _serial = obs::metrics::test_lock();
    let server = demo_server();
    let fault = FaultPolicy {
        drop_rate: 0.5,
        ..FaultPolicy::none(21)
    };
    let mut client = Client::connect_in_proc_with(
        &server,
        "monetdb",
        "monetdb",
        "demo",
        faulty_options(fault, test_retry()),
    )
    .unwrap();
    // INSERTs must not retry: the first transient failure surfaces as
    // RetriesExhausted with attempts == 1 (the write may have executed).
    let mut first_err = None;
    for _ in 0..50 {
        if let Err(e) = client.query("INSERT INTO numbers VALUES (9)") {
            first_err = Some(e);
            break;
        }
    }
    match first_err.expect("a 50% drop rate must hit within 50 inserts") {
        WireError::RetriesExhausted { attempts, last, .. } => {
            assert_eq!(attempts, 1);
            assert!(matches!(*last, WireError::Io(_)), "{last:?}");
        }
        other => panic!("{other:?}"),
    }
    server.shutdown();
}

#[test]
fn explain_analyze_of_a_write_is_never_replayed() {
    let _serial = obs::metrics::test_lock();
    let server = demo_server();
    let mut clean = Client::connect_in_proc(&server, "monetdb", "monetdb", "demo").unwrap();
    clean.query("CREATE TABLE t (i INTEGER)").unwrap();
    clean.query("INSERT INTO t VALUES (0)").unwrap();
    // Corruption hits the reply: the server has run the statement.
    let fault = FaultPolicy {
        corrupt_rate: 0.5,
        ..FaultPolicy::none(3)
    };
    let mut flaky = Client::connect_in_proc_with(
        &server,
        "monetdb",
        "monetdb",
        "demo",
        faulty_options(fault, RetryPolicy::standard()),
    )
    .unwrap();
    // EXPLAIN ANALYZE executes its statement, so an UPDATE under it is a
    // write: the first corrupted reply surfaces with attempts == 1.
    let mut answered = 0;
    let err = loop {
        match flaky.query("EXPLAIN ANALYZE UPDATE t SET i = i + 1") {
            Ok(_) => answered += 1,
            Err(e) => break e,
        }
        assert!(
            answered < 50,
            "a 50% corrupt rate must hit within 50 updates"
        );
    };
    match err {
        WireError::RetriesExhausted { attempts, .. } => assert_eq!(attempts, 1),
        other => panic!("{other:?}"),
    }
    // Every statement ran exactly once, the unanswered one included.
    let t = clean
        .query("SELECT i FROM t")
        .unwrap()
        .into_table()
        .unwrap();
    assert_eq!(t.rows[0][0], wireproto::WireValue::Int(answered + 1));
    server.shutdown();
}

/// A read-only SELECT that calls a stored UDF may write through `_conn`,
/// and the client cannot see the body: a lost reply is not replayed, so
/// every call logs its row once.
#[test]
fn a_udf_call_that_writes_is_never_replayed() {
    let _serial = obs::metrics::test_lock();
    let server = demo_server();
    let mut clean = Client::connect_in_proc(&server, "monetdb", "monetdb", "demo").unwrap();
    clean.query("CREATE TABLE log (v INTEGER)").unwrap();
    clean
        .query(
            "CREATE FUNCTION logs(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON {\n_conn.execute('INSERT INTO log VALUES (1)')\nreturn 1\n}",
        )
        .unwrap();
    // Corruption hits the reply: the server has run the statement.
    let fault = FaultPolicy {
        corrupt_rate: 0.5,
        ..FaultPolicy::none(3)
    };
    let mut flaky = Client::connect_in_proc_with(
        &server,
        "monetdb",
        "monetdb",
        "demo",
        faulty_options(fault, RetryPolicy::standard()),
    )
    .unwrap();
    let mut lost = 0;
    for _ in 0..10 {
        match flaky.query("SELECT logs(i) FROM numbers WHERE i = 1") {
            Ok(_) => {}
            Err(WireError::RetriesExhausted { attempts, .. }) => {
                assert_eq!(attempts, 1);
                lost += 1;
            }
            Err(other) => panic!("{other:?}"),
        }
    }
    assert!(lost > 0, "a 50% corrupt rate must lose a reply in 10 calls");
    let t = clean
        .query("SELECT count(*) FROM log")
        .unwrap()
        .into_table()
        .unwrap();
    assert_eq!(t.rows[0][0], wireproto::WireValue::Int(10));
    server.shutdown();
}

#[test]
fn exhausted_retries_surface_as_typed_error() {
    let _serial = obs::metrics::test_lock();
    let server = demo_server();
    // Connect cleanly first, then every frame vanishes.
    let mut client = Client::connect_in_proc_with(
        &server,
        "monetdb",
        "monetdb",
        "demo",
        ClientOptions::default(),
    )
    .unwrap();
    client.ping().unwrap();
    drop(client);

    let err = Client::connect_in_proc_with(
        &server,
        "monetdb",
        "monetdb",
        "demo",
        faulty_options(FaultPolicy::black_hole(4), test_retry()),
    )
    .unwrap_err();
    match err {
        WireError::RetriesExhausted {
            attempts,
            last,
            elapsed,
        } => {
            assert_eq!(attempts, 5);
            assert!(matches!(*last, WireError::Io(_)));
            // 4 backoff sleeps of >= 1 ms each separated the attempts.
            assert!(elapsed >= Duration::from_millis(4), "{elapsed:?}");
        }
        other => panic!("{other:?}"),
    }
    server.shutdown();
}

#[test]
fn stalled_tcp_server_cannot_hang_the_client() {
    // A "server" that accepts and then never replies: the client's read
    // deadline must turn the stall into a clean IO error.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stall = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let mut buf = [0u8; 1024];
        let _ = conn.read(&mut buf); // swallow the login frame, say nothing
        std::thread::sleep(Duration::from_millis(500));
    });
    let started = Instant::now();
    let err = Client::connect_tcp_with(
        addr,
        "monetdb",
        "monetdb",
        "demo",
        ClientOptions {
            read_timeout: Some(Duration::from_millis(150)),
            ..ClientOptions::default()
        },
    )
    .unwrap_err();
    assert!(matches!(err, WireError::Io(_)), "{err:?}");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "hung on a stall"
    );
    stall.join().unwrap();
}

#[test]
fn mid_frame_disconnect_is_a_clean_io_error() {
    // The peer dies after sending a length prefix and half a body.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let half = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        read_frame(&mut conn).unwrap(); // the login frame
        conn.write_all(&100u32.to_le_bytes()).unwrap();
        conn.write_all(&[0u8; 10]).unwrap();
        // Drop: connection closes mid-frame.
    });
    let err = Client::connect_tcp(addr, "monetdb", "monetdb", "demo").unwrap_err();
    assert!(matches!(err, WireError::Io(_)), "{err:?}");
    half.join().unwrap();
}

#[test]
fn corrupted_reply_frame_is_a_checksum_protocol_error() {
    // The reply arrives complete but bit-flipped: the frame checksum must
    // reject it as a protocol error naming the checksum.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let corrupt = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        read_frame(&mut conn).unwrap();
        let mut frame = Vec::new();
        write_frame(&mut frame, b"some well-formed reply body").unwrap();
        frame[7] ^= 0x01; // flip one body bit; length + checksum intact
        conn.write_all(&frame).unwrap();
    });
    let err = Client::connect_tcp(addr, "monetdb", "monetdb", "demo").unwrap_err();
    match err {
        WireError::Protocol(msg) => assert!(msg.contains("checksum"), "{msg}"),
        other => panic!("{other:?}"),
    }
    corrupt.join().unwrap();
}

/// How [`stub_extract_peer`] damages its extract reply.
#[derive(Clone, Copy, Debug)]
enum Damage {
    /// One payload byte flips in flight: the frame checksum no longer
    /// matches.
    InFlight,
    /// One byte of a shipped delta block flips before framing: the frame
    /// is intact, the block is not.
    InBlock,
}

/// A one-connection stub server: it accepts the login, answers the extract
/// request with the real encoding of a 5 000-row inputs dict damaged as
/// `damage` says, and hangs up.
fn stub_extract_peer(damage: Damage) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        read_frame(&mut conn).unwrap();
        write_frame(&mut conn, &Message::LoginOk { session: 1 }.encode()).unwrap();
        let request = Message::decode(&read_frame(&mut conn).unwrap()).unwrap();
        let mut column = pylite::value::Dict::new();
        column
            .insert(
                pylite::Value::str("column"),
                pylite::Value::array(pylite::Array::Int((0..5_000).collect())),
            )
            .unwrap();
        let inputs = pylite::Value::dict(column);
        let reply = match (damage, request) {
            (
                Damage::InFlight,
                Message::ExtractInputs {
                    options,
                    transfer_id,
                    ..
                },
            ) => {
                let (payload, raw_len) =
                    transfer::encode_payload(&inputs, &options, "monetdb", transfer_id, 0).unwrap();
                Message::Extracted {
                    payload,
                    raw_len: raw_len as u64,
                    options,
                    transfer_id,
                }
            }
            (
                Damage::InBlock,
                Message::ExtractDelta {
                    options,
                    transfer_id,
                    ..
                },
            ) => {
                let pool = devharness::pool::global();
                let raw = transfer::pickle_inputs(&inputs).unwrap();
                let digests = codecs::sha256::block_digests(&raw, options.effective_block_size());
                let mut blocks = transfer::encode_delta_blocks(
                    pool,
                    &raw,
                    &options,
                    "monetdb",
                    transfer_id,
                    &[],
                );
                blocks[0].body[0] ^= 0x01;
                Message::DeltaBlocks {
                    options,
                    transfer_id,
                    raw_len: raw.len() as u64,
                    epochs: Vec::new(),
                    digests,
                    blocks,
                }
            }
            (damage, other) => panic!("{damage:?}: unexpected request {other:?}"),
        };
        let mut frame = Vec::new();
        write_frame(&mut frame, &reply.encode()).unwrap();
        if let Damage::InFlight = damage {
            let middle = frame.len() / 2;
            frame[middle] ^= 0x01;
        }
        conn.write_all(&frame).unwrap();
    });
    (addr, peer)
}

// A plain payload carries no integrity tag of its own and the client no
// longer parses it before writing `input.bin`: the frame checksum, and for
// delta blocks the block tag and digest, must still stop a damaged reply
// at fetch time with a typed error, before anything reaches the project.
#[test]
fn damaged_extract_replies_fail_at_fetch_and_leave_input_bin_untouched() {
    for (damage, cache, want) in [
        (Damage::InFlight, false, "checksum"),
        (Damage::InBlock, true, "block 0 integrity check failed"),
    ] {
        let (addr, peer) = stub_extract_peer(damage);
        let dir = temp_project(&format!("damaged-{damage:?}"));
        let mut settings = Settings::default();
        settings.host = addr.ip().to_string();
        settings.port = addr.port();
        settings.debug_query = "SELECT f(i) FROM numbers".to_string();
        settings.transfer.cache.enabled = cache;
        settings.retry.max_attempts = 1;
        let mut dev = DevUdf::connect_tcp(settings, &dir).unwrap();
        std::fs::write(dir.join("input.bin"), b"the previous inputs").unwrap();
        match dev.fetch_inputs("f") {
            Err(DevUdfError::Wire(WireError::Protocol(msg))) => {
                assert!(msg.contains(want), "{damage:?}: {msg}")
            }
            other => panic!("{damage:?}: {other:?}"),
        }
        assert_eq!(
            std::fs::read(dir.join("input.bin")).unwrap(),
            b"the previous inputs",
            "{damage:?}: a failed fetch must not touch input.bin"
        );
        drop(dev);
        peer.join().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn server_shutdown_with_live_listener_is_immediate() {
    let server = demo_server();
    let addr = server.listen_tcp().unwrap();
    let mut client = Client::connect_tcp(addr, "monetdb", "monetdb", "demo").unwrap();
    client.ping().unwrap();
    // Blocking accept must be woken by the shutdown self-connection, not
    // discovered by a poll loop.
    let started = Instant::now();
    server.shutdown();
    assert!(started.elapsed() < Duration::from_secs(2), "slow shutdown");
}

#[test]
fn stalled_peer_is_dropped_and_does_not_wedge_other_sessions() {
    let server = Server::start(
        ServerConfig::new("demo", "monetdb", "monetdb")
            .with_frame_deadline(Duration::from_millis(200)),
        |db| {
            db.execute("CREATE TABLE t (i INTEGER)").unwrap();
            db.execute("INSERT INTO t VALUES (1)").unwrap();
        },
    );
    let addr = server.listen_tcp().unwrap();
    // A peer that sends a length prefix and then stalls mid-frame.
    let mut stalled = std::net::TcpStream::connect(addr).unwrap();
    stalled.write_all(&64u32.to_le_bytes()).unwrap();
    // Healthy clients are unaffected (each session has its own thread).
    let mut client = Client::connect_tcp(addr, "monetdb", "monetdb", "demo").unwrap();
    client.ping().unwrap();
    // The stalled session is cut once the mid-frame deadline expires:
    // our next read observes the server-side close, never a 5 s wait.
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 8];
    match stalled.read(&mut buf) {
        Ok(0) => {}                                                     // clean EOF
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {} // RST
        other => panic!("stalled session was not dropped: {other:?}"),
    }
    server.shutdown();
}

#[test]
fn metrics_registry_is_exact_under_concurrency() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    let _serial = obs::metrics::test_lock();
    obs::set_enabled(true);
    let counter = obs::counter!("test.failures.smoke.counter");
    let hist = obs::histogram!("test.failures.smoke.hist");
    let c0 = counter.get();
    let h0 = hist.count();
    let s0 = hist.sum();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(move || {
                // Fresh handles per thread: same registry entry either way.
                let counter = obs::counter!("test.failures.smoke.counter");
                let hist = obs::histogram!("test.failures.smoke.hist");
                for i in 0..PER_THREAD {
                    counter.inc();
                    hist.record((t as u64) * PER_THREAD + i);
                }
            });
        }
    });
    let n = THREADS as u64 * PER_THREAD;
    assert_eq!(counter.get() - c0, n);
    assert_eq!(hist.count() - h0, n);
    // Sum of 0..n recorded exactly once each.
    assert_eq!(hist.sum() - s0, n * (n - 1) / 2);
}

#[test]
fn vcs_checkout_of_bogus_commit_errors() {
    let dir = temp_project("vcs-bogus");
    let repo = minivcs::Repository::init(&dir).unwrap();
    let err = repo.checkout(&minivcs::ObjectId("0123456789abcdef".to_string()));
    assert!(err.is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn local_loopback_recursion_is_bounded_too() {
    // A self-recursive UDF debugged *locally* must hit the devUDF-side
    // nesting guard, not the native stack.
    let server = Server::start(ServerConfig::new("demo", "monetdb", "monetdb"), |db| {
        db.execute("CREATE TABLE t (i INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        db.execute(
            "CREATE FUNCTION ouro(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON {\nres = _conn.execute('SELECT ouro(i) FROM t')\nreturn 1\n}",
        )
        .unwrap();
    });
    let dir = temp_project("local-ouro");
    let mut settings = Settings::default();
    settings.debug_query = "SELECT ouro(i) FROM t".to_string();
    let mut dev = DevUdf::connect_in_proc(&server, settings, &dir).unwrap();
    dev.import_all().unwrap();
    let err = dev.run_udf("ouro").unwrap_err();
    match err {
        DevUdfError::Python(e) => {
            assert!(
                e.message.contains("depth") || e.message.contains("recursion"),
                "{e}"
            );
        }
        other => panic!("{other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
    server.shutdown();
}
