//! Concurrency suite for the read/write-split server (DESIGN §16).
//!
//! The invariants under test:
//!
//! * **Snapshot consistency** — a concurrent read never observes a torn
//!   mix of epochs: every row it sees comes from one catalog snapshot,
//!   even while the writer commits between its statements.
//! * **Read-your-writes** — a session's read after its own DML sees the
//!   mutation (the writer publishes the new snapshot before replying).
//! * **Backpressure** — a saturated bounded queue answers with the typed,
//!   retryable `ServerBusy` instead of queueing without limit.
//! * **Fairness** — pings answer inline; a pool full of slow reads cannot
//!   starve them.
//! * **Slot reclamation** — a client that disconnects mid-extract frees
//!   its scheduler slot; the server keeps serving.
//! * **Writer equivalence** — the scheduled server computes exactly what
//!   a single serialized engine computes.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wireproto::transport::{read_frame, write_frame};
use wireproto::{
    Client, ClientOptions, Message, RetryPolicy, Server, ServerConfig, TransferOptions, WireError,
    WireValue,
};

fn config() -> ServerConfig {
    ServerConfig::new("demo", "monetdb", "monetdb")
}

fn connect(server: &Server) -> Client {
    Client::connect_in_proc(server, "monetdb", "monetdb", "demo").unwrap()
}

/// A stored UDF that burns enough interpreter steps to hold a reader
/// worker for tens of milliseconds — long enough for every competing
/// session to reach the queue, far below the engine's step budget.
const SLOW_UDF: &str = "CREATE FUNCTION slow(column INTEGER) RETURNS INTEGER LANGUAGE PYTHON {\nx = 0\nfor i in range(0, 150000):\n    x = x + 1\nreturn x\n}";

fn int_cell(row: &[WireValue]) -> i64 {
    match row[0] {
        WireValue::Int(v) => v,
        WireValue::Null => 0,
        ref other => panic!("unexpected cell {other:?}"),
    }
}

// ---------------------------------------------------------------- snapshots

/// The torn-read property test: the writer runs a seeded random stream of
/// DML — every statement preserving the invariant "the column holds
/// balanced `(k, -k)` pairs" — while readers continuously sum the column.
/// Any snapshot between statements holds complete pairs, so `sum == 0`
/// and `count` even *always*; a single torn observation means a reader
/// saw half-applied state (a mix of epochs).
#[test]
fn concurrent_reads_never_observe_torn_snapshots() {
    let server = Server::start(config(), |db| {
        db.execute("CREATE TABLE pairs (v INTEGER)").unwrap();
    });
    let server = Arc::new(server);
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..4)
        .map(|_| {
            let server = server.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut client = connect(&server);
                let mut observations = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let t = client
                        .query("SELECT sum(v), count(v) FROM pairs")
                        .unwrap()
                        .into_table()
                        .unwrap();
                    let sum = int_cell(&t.rows[0]);
                    let count = match t.rows[0][1] {
                        WireValue::Int(v) => v,
                        ref other => panic!("unexpected count {other:?}"),
                    };
                    assert_eq!(sum, 0, "torn snapshot: sum {sum} over {count} rows");
                    assert_eq!(count % 2, 0, "torn snapshot: odd row count {count}");
                    observations += 1;
                }
                observations
            })
        })
        .collect();

    // Seeded random DML stream; each op is one statement = one atomic
    // writer command. Inserts dominate so the table keeps growing.
    let mut rng = devharness::Rng::new(0xc0ffee);
    let mut writer = connect(&server);
    let mut live: Vec<i64> = Vec::new();
    let mut next_k = 1i64;
    for _ in 0..90 {
        match rng.next_u64() % 4 {
            // Insert a fresh balanced pair.
            0 | 1 => {
                let k = next_k;
                next_k += 1;
                writer
                    .query(&format!("INSERT INTO pairs VALUES ({k}), ({})", -k))
                    .unwrap();
                live.push(k);
            }
            // Delete one whole pair (both halves in one statement).
            2 if !live.is_empty() => {
                let idx = (rng.next_u64() as usize) % live.len();
                let k = live.swap_remove(idx);
                writer
                    .query(&format!("DELETE FROM pairs WHERE v = {k} OR v = {}", -k))
                    .unwrap();
            }
            // Flip every sign: rewrites all rows, preserves the invariant.
            _ => {
                writer.query("UPDATE pairs SET v = 0 - v").unwrap();
            }
        }
    }
    stop.store(true, Ordering::Relaxed);
    let total: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(total > 0, "readers never ran");

    // Quiescent end state: exactly the surviving pairs.
    let t = writer
        .query("SELECT sum(v), count(v) FROM pairs")
        .unwrap()
        .into_table()
        .unwrap();
    assert_eq!(int_cell(&t.rows[0]), 0);
    assert_eq!(
        match t.rows[0][1] {
            WireValue::Int(v) => v,
            ref other => panic!("{other:?}"),
        },
        2 * live.len() as i64
    );
    Arc::try_unwrap(server).ok().unwrap().shutdown();
}

#[test]
fn sessions_read_their_own_writes() {
    let server = Server::start(config(), |db| {
        db.execute("CREATE TABLE t (i INTEGER)").unwrap();
    });
    let mut client = connect(&server);
    for i in 0..20i64 {
        client
            .query(&format!("INSERT INTO t VALUES ({i})"))
            .unwrap();
        // The very next read — scheduled concurrently on a snapshot — must
        // already include the row the server just acknowledged.
        let t = client
            .query("SELECT count(i) FROM t")
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(int_cell(&t.rows[0]), i + 1);
    }
    server.shutdown();
}

// ------------------------------------------------------------- backpressure

/// With one reader worker and a one-slot queue, a burst of slow reads must
/// produce `ServerBusy` refusals — typed, transient, and harmless: the
/// refused commands never executed and the server stays healthy.
#[test]
fn saturated_read_queue_returns_typed_busy() {
    let server = Server::start(
        config().with_read_workers(1).with_queue_capacity(1, 1),
        |db| {
            db.execute("CREATE TABLE t (i INTEGER)").unwrap();
            db.execute("INSERT INTO t VALUES (1)").unwrap();
            db.execute(SLOW_UDF).unwrap();
        },
    );
    let server = Arc::new(server);
    let busy = Arc::new(AtomicU32::new(0));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let server = server.clone();
            let busy = busy.clone();
            std::thread::spawn(move || {
                let mut client = connect(&server);
                match client.query("SELECT slow(i) FROM t") {
                    Ok(_) => {}
                    Err(err) => {
                        assert!(matches!(err, WireError::Busy(_)), "{err:?}");
                        assert!(err.is_transient(), "busy must be retryable");
                        busy.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // 8 near-simultaneous slow reads into 1 worker + 1 queue slot: most
    // must have been refused (≥1 even under the most generous scheduling).
    assert!(busy.load(Ordering::Relaxed) >= 1, "no busy refusals seen");
    // The server is unharmed and accepts the same query afterwards.
    let mut client = connect(&server);
    client.query("SELECT slow(i) FROM t").unwrap();
    Arc::try_unwrap(server).ok().unwrap().shutdown();
}

/// The write queue refuses the same way. With one slot in front of the
/// writer, a burst of slow INSERTs from several sessions gets typed
/// `ServerBusy` refusals, and a refused write never executed: the table
/// holds exactly the accepted ones.
#[test]
fn saturated_write_queue_refuses_before_executing() {
    let server = Server::start(config().with_queue_capacity(128, 1), |db| {
        db.execute("CREATE TABLE t (i INTEGER)").unwrap();
        db.execute("CREATE FUNCTION slow_id(k INTEGER) RETURNS INTEGER LANGUAGE PYTHON {\nx = 0\nfor i in range(0, 150000):\n    x = x + 1\nreturn k\n}")
            .unwrap();
    });
    let server = Arc::new(server);
    let start = Arc::new(std::sync::Barrier::new(8));
    let handles: Vec<_> = (0..8i64)
        .map(|k| {
            let server = server.clone();
            let start = start.clone();
            std::thread::spawn(move || {
                let mut client = connect(&server);
                start.wait();
                match client.query(&format!("INSERT INTO t VALUES (slow_id({k}))")) {
                    Ok(_) => Some(k),
                    Err(err) => {
                        assert!(matches!(err, WireError::Busy(_)), "{err:?}");
                        assert!(err.is_transient(), "busy must be retryable");
                        None
                    }
                }
            })
        })
        .collect();
    let mut accepted: Vec<i64> = handles
        .into_iter()
        .filter_map(|h| h.join().unwrap())
        .collect();
    accepted.sort_unstable();
    // 8 simultaneous slow writes into 1 writer + 1 queue slot.
    assert!(accepted.len() < 8, "no busy refusals seen");
    let t = connect(&server)
        .query("SELECT i FROM t ORDER BY i")
        .unwrap()
        .into_table()
        .unwrap();
    let stored: Vec<i64> = t.rows.iter().map(|r| int_cell(r)).collect();
    assert_eq!(stored, accepted);
    Arc::try_unwrap(server).ok().unwrap().shutdown();
}

/// Busy refusals combined with a retry policy: the client transparently
/// backs off and lands the command once a slot frees up.
#[test]
fn retrying_clients_ride_out_saturation() {
    let server = Server::start(
        config().with_read_workers(1).with_queue_capacity(1, 1),
        |db| {
            db.execute("CREATE TABLE t (i INTEGER)").unwrap();
            db.execute("INSERT INTO t VALUES (1)").unwrap();
            db.execute(SLOW_UDF).unwrap();
        },
    );
    let server = Arc::new(server);
    let retry = RetryPolicy {
        max_attempts: 50,
        initial_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(20),
        deadline: Some(Duration::from_secs(30)),
    };
    let handles: Vec<_> = (0..6)
        .map(|_| {
            let server = server.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect_in_proc_with(
                    &server,
                    "monetdb",
                    "monetdb",
                    "demo",
                    ClientOptions::with_retry(retry),
                )
                .unwrap();
                client.query("SELECT slow(i) FROM t").unwrap();
            })
        })
        .collect();
    // Every session completes despite the 1-worker/1-slot scheduler.
    for h in handles {
        h.join().unwrap();
    }
    Arc::try_unwrap(server).ok().unwrap().shutdown();
}

// ----------------------------------------------------------------- fairness

/// Pings answer inline on the session's own thread: a reader pool wedged
/// full of slow extracts cannot delay them.
#[test]
fn slow_reads_do_not_starve_pings() {
    let server = Server::start(
        config().with_read_workers(1).with_queue_capacity(1, 1),
        |db| {
            db.execute("CREATE TABLE t (i INTEGER)").unwrap();
            db.execute("INSERT INTO t VALUES (1)").unwrap();
            db.execute(SLOW_UDF).unwrap();
        },
    );
    let server = Arc::new(server);
    let bg: Vec<_> = (0..2)
        .map(|_| {
            let server = server.clone();
            std::thread::spawn(move || {
                let mut client = connect(&server);
                // Occupy the worker and the queue slot (a refusal is fine
                // too — the pool stays busy either way).
                let _ = client.query("SELECT slow(i) FROM t");
            })
        })
        .collect();
    let mut client = connect(&server);
    std::thread::sleep(Duration::from_millis(5)); // let the slow reads land
    let started = Instant::now();
    client.ping().unwrap();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(250),
        "ping starved behind slow reads: {elapsed:?}"
    );
    for h in bg {
        h.join().unwrap();
    }
    Arc::try_unwrap(server).ok().unwrap().shutdown();
}

// --------------------------------------------------------- slot reclamation

/// A client that vanishes mid-extract (lossy link, killed IDE) must not
/// leak its scheduler slot: with a single reader worker, the next healthy
/// session's extract still completes.
#[test]
fn mid_extract_disconnect_frees_the_scheduler_slot() {
    let server = Server::start(
        config().with_read_workers(1).with_queue_capacity(4, 4),
        |db| {
            db.execute("CREATE TABLE t (i INTEGER)").unwrap();
            db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
            db.execute(SLOW_UDF).unwrap();
        },
    );
    let addr = server.listen_tcp().unwrap();

    // Raw TCP session: authenticate, fire an extract, vanish without
    // reading the reply.
    {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        let login = Message::Login {
            user: "monetdb".into(),
            password: "monetdb".into(),
            database: "demo".into(),
        };
        write_frame(&mut stream, &login.encode()).unwrap();
        let reply = read_frame(&mut stream).unwrap();
        assert!(matches!(
            Message::decode(&reply).unwrap(),
            Message::LoginOk { .. }
        ));
        let extract = Message::ExtractInputs {
            query: "SELECT slow(i) FROM t".into(),
            udf: "slow".into(),
            options: TransferOptions::plain(),
            transfer_id: 1,
        };
        write_frame(&mut stream, &extract.encode()).unwrap();
        drop(stream); // gone mid-extract
    }

    // The lone worker finishes the orphaned extract, notices the dead
    // peer, and serves the next session.
    let mut client = connect(&server);
    let (inputs, _) = client
        .extract_inputs("SELECT slow(i) FROM t", "slow", TransferOptions::plain())
        .unwrap();
    let (again, _) = client
        .extract_inputs("SELECT slow(i) FROM t", "slow", TransferOptions::plain())
        .unwrap();
    assert_eq!(inputs, again, "healthy extracts stay deterministic");

    // The dead session eventually deregisters from the registry.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        // One live in-proc session (ours) is expected; the TCP ghost must
        // disappear once its connection thread observes the hangup.
        if server.session_count() <= 1 || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        server.session_count() <= 1,
        "disconnected session never deregistered"
    );
    server.shutdown();
}

// --------------------------------------------------------------- equivalence

/// Differential test: the scheduled, classified, snapshot-reading server
/// must compute exactly what one serialized engine computes for a mixed
/// read/write script.
#[test]
fn scheduled_server_matches_a_serialized_engine() {
    let script: Vec<String> = {
        let mut s = vec![
            "CREATE TABLE t (i INTEGER)".to_string(),
            "CREATE FUNCTION double_it(column INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return column * 2 }".to_string(),
        ];
        for k in 0..15i64 {
            s.push(format!("INSERT INTO t VALUES ({k}), ({})", k * 10));
            s.push("SELECT sum(i), count(i) FROM t".to_string());
            s.push("SELECT double_it(i) FROM t".to_string());
            s.push(format!("UPDATE t SET i = i + 1 WHERE i = {k}"));
            s.push("SELECT min(i), max(i) FROM t".to_string());
            if k % 5 == 4 {
                s.push(format!("DELETE FROM t WHERE i > {}", k * 9));
            }
        }
        s
    };

    // Reference: one bare engine, strictly serial.
    let reference: Vec<String> = {
        let db = monetlite::Engine::new();
        script
            .iter()
            .map(|sql| match db.execute(sql) {
                Ok(r) => format!(
                    "{:?}",
                    wireproto::message::WireResult::from_query_result(&r)
                ),
                Err(e) => format!("error {}", e.code.name()),
            })
            .collect()
    };

    // Candidate: the same script through the scheduling server.
    let server = Server::start(config(), |_| {});
    let mut client = connect(&server);
    let candidate: Vec<String> = script
        .iter()
        .map(|sql| match client.query(sql) {
            Ok(r) => format!("{r:?}"),
            Err(WireError::Server { code, .. }) => format!("error {code}"),
            Err(other) => panic!("unexpected transport error: {other:?}"),
        })
        .collect();
    server.shutdown();

    assert_eq!(reference, candidate);
}

// ------------------------------------------------------------- sys.sessions

#[test]
fn sys_sessions_lists_live_sessions() {
    let server = Server::start(config(), |db| {
        db.execute("CREATE TABLE t (i INTEGER)").unwrap();
    });
    let mut a = connect(&server);
    let mut b = connect(&server);
    b.query("SELECT i FROM t").unwrap();
    let t = a
        .query("SELECT id, peer, state, commands FROM sys.sessions")
        .unwrap()
        .into_table()
        .unwrap();
    assert!(t.rows.len() >= 2, "expected both sessions: {:?}", t.rows);
    for row in &t.rows {
        assert!(matches!(row[1], WireValue::Str(ref p) if p == "in-proc"));
        assert!(
            matches!(row[2], WireValue::Str(ref s) if ["idle", "queued", "running"].contains(&s.as_str()))
        );
    }
    // The querying session is mid-command, so its counter is visible to
    // itself only after the fact; session b's completed work must show.
    let commands: Vec<i64> = t.rows.iter().map(|r| int_cell(&r[3..4])).collect();
    assert!(commands.iter().any(|&c| c >= 1), "{commands:?}");
    server.shutdown();
}

// ------------------------------------------------------------ pool metrics

/// Reads run on the server's own bounded pool: a read (here a UDF query
/// and a plain extract, neither of which codes blocks) never counts as a
/// codec job, so `pool.jobs` keeps meaning "codec pool work".
#[test]
fn server_reads_do_not_count_as_codec_pool_jobs() {
    let _serial = obs::metrics::test_lock();
    obs::set_enabled(true);
    let server = Server::start(config(), |db| {
        db.execute("CREATE TABLE t (i INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        db.execute(SLOW_UDF).unwrap();
    });
    let mut client = connect(&server);
    let jobs = obs::counter!("pool.jobs");
    let waits = obs::histogram!("wire.server.queue_wait_ns");
    let (jobs_before, waits_before) = (jobs.get(), waits.count());
    let t = client
        .query("SELECT sum(i) FROM t")
        .unwrap()
        .into_table()
        .unwrap();
    assert_eq!(int_cell(&t.rows[0]), 6);
    client
        .extract_inputs("SELECT slow(i) FROM t", "slow", TransferOptions::plain())
        .unwrap();
    assert!(waits.count() >= waits_before + 2, "both reads were queued");
    assert_eq!(jobs.get(), jobs_before, "a server read is not a codec job");
    server.shutdown();
}
