//! C17 — server concurrency sweep (DESIGN §16).
//!
//! Drives the read/write-split server over **real TCP** with 1→256
//! concurrent sessions, each running small read queries against the
//! `numbers` table. One iteration = every session completes
//! [`QUERIES_PER_BURST`] round trips, so per-query cost is
//! `ns_per_iter / (sessions × QUERIES_PER_BURST)` and the
//! `throughput.per_sec` field reads directly as queries/second at that
//! concurrency level.
//!
//! A second sweep repeats the 1/16-session points through the
//! fault-injecting transport (1 % seeded drop/corrupt rate + retry
//! policy), pinning down what the robustness layer costs under
//! concurrency.
//!
//! A third group, `server_write`, times the write path on a two-column
//! table `t (i INTEGER, j INTEGER)` at 20 000 and 200 000 rows: a 5-row
//! INSERT and a 1-row UPDATE on the engine alone, on the engine while a
//! snapshot of it is held (re-taken before every write, as the server
//! publishes one after every write), and through an in-proc server,
//! plus an in-proc `SELECT 1` round trip (EXPERIMENTS C17).
//!
//! After the sweep the suite drains the server-side obs histograms and
//! appends their p50/p99 to the artifact under a `"histograms"` key —
//! per-command dispatch latency (`wire.server.latency.query`) and queue
//! wait (`wire.server.queue_wait_ns`) as observed by the scheduler
//! itself, complementing the client-side wall-clock numbers.
//!
//! Writes `BENCH_server_concurrency.json` (schema in EXPERIMENTS.md C17).

use std::net::SocketAddr;

use devharness::bench::{BenchmarkId, Harness, Throughput};
use devudf_bench::SessionFleet;
use monetlite::Engine;
use wireproto::{Client, ClientOptions, FaultPolicy, RetryPolicy, Server, ServerConfig};

/// Round trips each session completes per measured burst.
const QUERIES_PER_BURST: usize = 4;

/// The read every session hammers: touches real column data, small
/// enough that scheduling (not aggregation) dominates.
const QUERY: &str = "SELECT sum(i) FROM numbers";

fn concurrency_server() -> (Server, SocketAddr) {
    let server = Server::start(
        // Queues sized above the largest sweep point so the clean sweep
        // measures scheduling, never `ServerBusy` refusals.
        ServerConfig::new("demo", "monetdb", "monetdb").with_queue_capacity(1024, 1024),
        |db| {
            db.execute("CREATE TABLE numbers (i INTEGER)").unwrap();
            for chunk in 0..10 {
                let rows: Vec<String> =
                    (0..100).map(|i| format!("({})", chunk * 100 + i)).collect();
                db.execute(&format!("INSERT INTO numbers VALUES {}", rows.join(", ")))
                    .unwrap();
            }
        },
    );
    let addr = server.listen_tcp().unwrap();
    (server, addr)
}

fn fleet(addr: SocketAddr, sessions: usize, options: ClientOptions) -> SessionFleet {
    SessionFleet::connect(addr, sessions, QUERIES_PER_BURST, QUERY, options)
}

fn sweep(h: &mut Harness, addr: SocketAddr) {
    let mut group = h.benchmark_group("tcp_select");
    for sessions in [1usize, 4, 16, 64, 256] {
        group.throughput(Throughput::Elements((sessions * QUERIES_PER_BURST) as u64));
        let fleet = fleet(addr, sessions, ClientOptions::default());
        fleet.burst(); // warm every connection and the snapshot cache
        group.bench_with_input(
            BenchmarkId::new("sessions", sessions.to_string()),
            &sessions,
            |b, _| b.iter(|| fleet.burst()),
        );
        fleet.join();
    }
    group.finish();
}

fn sweep_lossy(h: &mut Harness, addr: SocketAddr) {
    let mut group = h.benchmark_group("tcp_select_lossy1pct");
    for sessions in [1usize, 16] {
        group.throughput(Throughput::Elements((sessions * QUERIES_PER_BURST) as u64));
        let options = ClientOptions {
            retry: RetryPolicy {
                max_attempts: 8,
                initial_backoff: std::time::Duration::ZERO,
                max_backoff: std::time::Duration::ZERO,
                deadline: None,
            },
            fault: Some(FaultPolicy::lossy(0xc17 + sessions as u64, 0.01)),
            ..ClientOptions::default()
        };
        let fleet = fleet(addr, sessions, options);
        fleet.burst();
        group.bench_with_input(
            BenchmarkId::new("sessions", sessions.to_string()),
            &sessions,
            |b, _| b.iter(|| fleet.burst()),
        );
        fleet.join();
    }
    group.finish();
}

/// Load `t (i INTEGER, j INTEGER)` with `rows` rows, `i` the row number.
fn load_write_table(db: &Engine, rows: usize) {
    db.execute("CREATE TABLE t (i INTEGER, j INTEGER)").unwrap();
    let csv: String = (0..rows).map(|r| format!("{r},{}\n", r % 97)).collect();
    db.fs().write("/t.csv", csv.as_bytes()).unwrap();
    db.execute("COPY INTO t FROM '/t.csv'").unwrap();
}

/// The measured writes on a `rows`-row table, one statement per call.
/// Appends add 5 rows each; every `rows / 100` appends a DELETE of the
/// appended rows (which touches only the tail segments) runs first, so
/// the table stays within 5 % of its size. UPDATEs set one row, each
/// time another.
struct Writes {
    rows: usize,
    calls: usize,
}

impl Writes {
    fn insert5(&mut self, mut run: impl FnMut(&str)) {
        let appended = self.calls % (self.rows / 100);
        if appended == 0 && self.calls > 0 {
            run(&format!("DELETE FROM t WHERE i >= {}", self.rows));
        }
        let first = self.rows + 5 * appended;
        let values: Vec<String> = (first..first + 5).map(|i| format!("({i}, 1)")).collect();
        run(&format!("INSERT INTO t VALUES {}", values.join(", ")));
        self.calls += 1;
    }

    fn update1(&mut self, mut run: impl FnMut(&str)) {
        let row = self.calls * 7_919 % self.rows;
        run(&format!("UPDATE t SET j = j + 1 WHERE i = {row}"));
        self.calls += 1;
    }
}

fn write_sweep(h: &mut Harness) {
    let mut group = h.benchmark_group("server_write");
    for rows in [20_000usize, 200_000] {
        type Write = fn(&mut Writes, &mut dyn FnMut(&str));
        let writes: [(&str, Write); 2] = [
            ("insert5", |w, run| w.insert5(run)),
            ("update1", |w, run| w.update1(run)),
        ];
        for (kind, write) in writes {
            let db = Engine::new();
            load_write_table(&db, rows);
            let mut w = Writes { rows, calls: 0 };
            group.bench_function(format!("{kind}_engine/{rows}"), |b| {
                b.iter(|| write(&mut w, &mut |sql| drop(db.execute(sql).unwrap())))
            });

            let db = Engine::new();
            load_write_table(&db, rows);
            let (mut w, mut held) = (Writes { rows, calls: 0 }, None);
            group.bench_function(format!("{kind}_snapshot/{rows}"), |b| {
                b.iter(|| {
                    write(&mut w, &mut |sql| {
                        held = Some(db.snapshot());
                        db.execute(sql).unwrap();
                    })
                })
            });
            drop(held);

            let server =
                Server::start(ServerConfig::new("demo", "monetdb", "monetdb"), move |db| {
                    load_write_table(db, rows)
                });
            let mut client =
                Client::connect_in_proc(&server, "monetdb", "monetdb", "demo").unwrap();
            let mut w = Writes { rows, calls: 0 };
            group.bench_function(format!("{kind}_server/{rows}"), |b| {
                b.iter(|| write(&mut w, &mut |sql| drop(client.query(sql).unwrap())))
            });
            if rows == 200_000 && kind == "insert5" {
                group.bench_function("select1_server", |b| {
                    b.iter(|| client.query("SELECT 1").unwrap())
                });
            }
            drop(client);
            server.shutdown();
        }
    }
    group.finish();
}

/// Append server-side histogram quantiles to the artifact: what the
/// scheduler itself observed while the sweep ran.
fn append_histograms(path: &std::path::Path) {
    use codecs::json::Value;
    let quantiles = |name: &str| {
        let hist = obs::metrics::registry().histogram(name);
        Value::Object(vec![
            ("count".to_string(), Value::from(hist.count())),
            ("p50_ns".to_string(), Value::from(hist.quantile(0.50))),
            ("p99_ns".to_string(), Value::from(hist.quantile(0.99))),
        ])
    };
    let histograms = Value::Object(vec![
        (
            "wire.server.latency.query".to_string(),
            quantiles("wire.server.latency.query"),
        ),
        (
            "wire.server.queue_wait_ns".to_string(),
            quantiles("wire.server.queue_wait_ns"),
        ),
    ]);
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(_) => return,
    };
    let Ok(Value::Object(mut pairs)) = codecs::json::parse(&text) else {
        return;
    };
    pairs.push(("histograms".to_string(), histograms));
    let doc = Value::Object(pairs);
    if std::fs::write(path, doc.to_string_pretty()).is_ok() {
        println!(
            "appended server-side histogram quantiles to {}",
            path.display()
        );
    }
}

fn main() {
    let (server, addr) = concurrency_server();
    let mut h = Harness::new("server_concurrency");
    sweep(&mut h, addr);
    sweep_lossy(&mut h, addr);
    write_sweep(&mut h);
    let path = h.finish();
    append_histograms(&path);
    server.shutdown();
}
