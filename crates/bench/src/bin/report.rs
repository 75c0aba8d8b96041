//! Deterministic paper-vs-measured report feeding EXPERIMENTS.md.
//!
//! Runs every quantified claim (C1–C7 in DESIGN.md §5) once with fixed
//! seeds and prints the measured numbers next to the paper's qualitative
//! claims. For statistically rigorous timings use `cargo bench`; this
//! binary is about *shape* (who wins, by what factor).

use std::time::Instant;

use devudf::workflow;
use devudf_bench::*;
use monetlite::{Engine, ExecutionModel};
use pylite::ExecMode;
use wireproto::TransferOptions;

fn main() {
    println!("devUDF reproduction — measured report");
    println!("=====================================\n");
    transfer_report();
    extract_ablation_report();
    workflow_report();
    exec_models_report();
    debugger_overhead_report();
    import_export_report();
    codec_report();
}

/// C1–C3: transfer options (compression / sampling / encryption).
fn transfer_report() {
    println!("C1–C3  Transfer options (paper §2.1)");
    println!("  rows     plain      compressed  ratio   encrypted  sample-1%");
    for rows in [10_000usize, 100_000] {
        let server = bench_server(rows);
        let mut dev = bench_session(&server, &format!("report-transfer-{rows}"));
        dev.import_all().unwrap();

        let measure = |opts: TransferOptions| -> usize {
            let (_, stats) = dev
                .client()
                .borrow_mut()
                .extract_inputs(
                    "SELECT mean_deviation(i) FROM numbers",
                    "mean_deviation",
                    opts,
                )
                .unwrap();
            stats.wire_len
        };
        let plain = measure(TransferOptions::plain());
        let compressed = measure(TransferOptions::compressed());
        let encrypted = measure(TransferOptions::encrypted());
        let sampled = measure(TransferOptions::sampled(rows / 100));
        println!(
            "  {rows:>6}  {plain:>8} B  {compressed:>8} B  {:>5.2}  {encrypted:>8} B  {sampled:>8} B",
            compressed as f64 / plain as f64
        );
        std::fs::remove_dir_all(dev.project.root()).ok();
        server.shutdown();
    }
    println!(
        "  claim: compression and sampling shrink the transfer; encryption is size-neutral.\n"
    );
}

/// Ablation: the paper's query-rewriting extract function vs the naive
/// alternative of shipping every referenced table in full. The extract
/// function transfers only the columns the UDF actually consumes.
fn extract_ablation_report() {
    println!("C1b  Extraction ablation: extract function vs naive full-table transfer");
    println!("  rows    extract (1 of 6 cols)   naive SELECT * payload   savings");
    for rows in [10_000usize, 50_000] {
        let server = wireproto::Server::start(
            wireproto::ServerConfig::new("demo", "monetdb", "monetdb"),
            move |db| {
                // A wide table: the UDF only reads one of six columns.
                db.execute(
                    "CREATE TABLE wide (a INTEGER, b INTEGER, c INTEGER, d DOUBLE, e STRING, f INTEGER)",
                )
                .unwrap();
                let mut values = Vec::with_capacity(rows);
                for i in 0..rows {
                    values.push(format!(
                        "({}, {}, {}, {}.5, 'row-{}', {})",
                        i % 100,
                        i % 7,
                        i,
                        i % 3,
                        i % 13,
                        i % 997
                    ));
                }
                for chunk in values.chunks(2000) {
                    db.execute(&format!("INSERT INTO wide VALUES {}", chunk.join(", ")))
                        .unwrap();
                }
                db.execute(
                    "CREATE FUNCTION analyze(a INTEGER) RETURNS DOUBLE LANGUAGE PYTHON { return sum(a) / len(a) }",
                )
                .unwrap();
            },
        );
        let mut client =
            wireproto::Client::connect_in_proc(&server, "monetdb", "monetdb", "demo").unwrap();
        let (_, stats) = client
            .extract_inputs(
                "SELECT analyze(a) FROM wide",
                "analyze",
                TransferOptions::plain(),
            )
            .unwrap();
        // Naive alternative: ship the whole table to the client and slice
        // there; its cost is the encoded result-set frame.
        let table = client
            .query("SELECT * FROM wide")
            .unwrap()
            .into_table()
            .unwrap();
        let naive_bytes = wireproto::Message::ResultSet {
            result: wireproto::message::WireResult::Table(table),
            udf_stdout: String::new(),
        }
        .encode()
        .len();
        println!(
            "  {rows:>5}   {:>18} B   {:>20} B   {:>6.1}x",
            stats.wire_len,
            naive_bytes,
            naive_bytes as f64 / stats.wire_len as f64
        );
        server.shutdown();
    }
    println!(
        "  the rewrite ships only the UDF's inputs — the wider the table, the bigger the win.\n"
    );
}

/// C4: traditional re-CREATE+rerun loop vs devUDF local loop.
fn workflow_report() {
    println!("C4  Development-cycle comparison (paper §1/§2.5)");
    let rows = 50_000;
    let iterations = 10;

    let server = bench_server(rows);
    let mut dev = bench_session(&server, "report-workflow-trad");
    let start = Instant::now();
    let trad = workflow::traditional_workflow(
        &mut dev,
        "CREATE OR REPLACE FUNCTION mean_deviation(column INTEGER) RETURNS DOUBLE LANGUAGE PYTHON",
        "SELECT mean_deviation(i) FROM numbers",
        iterations,
        |i| {
            LISTING4_BODY.replace(
                "deviation = distance",
                &format!("attempt = {i}\ndeviation = distance"),
            )
        },
    )
    .unwrap();
    let trad_wall = start.elapsed();
    std::fs::remove_dir_all(dev.project.root()).ok();
    server.shutdown();

    let server = bench_server(rows);
    let mut dev = bench_session(&server, "report-workflow-dev");
    let start = Instant::now();
    let devw = workflow::devudf_workflow(&mut dev, "mean_deviation", iterations, |i, original| {
        original.replace(
            "deviation = distance",
            &format!("attempt = {i}\n    deviation = distance"),
        )
    })
    .unwrap();
    let dev_wall = start.elapsed();
    std::fs::remove_dir_all(dev.project.root()).ok();
    server.shutdown();

    println!(
        "  traditional: {iterations} iterations, {} server round trips, {trad_wall:?}",
        trad.server_round_trips
    );
    println!(
        "  devUDF:      {iterations} iterations, {} server round trips, {dev_wall:?}",
        devw.server_round_trips
    );
    println!(
        "  round-trip reduction: {:.1}x (and local runs debug with breakpoints)\n",
        trad.server_round_trips as f64 / devw.server_round_trips as f64
    );
}

/// C5: operator-at-a-time vs tuple-at-a-time UDF invocation (paper §2.4).
fn exec_models_report() {
    println!("C5  UDF invocation models (paper §2.4)");
    println!("  rows    operator-at-a-time  tuple-at-a-time  slowdown");
    for rows in [100usize, 1000, 5000] {
        let db = Engine::new();
        seed_numbers(&db, rows);
        db.execute(
            "CREATE FUNCTION inc(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return i + 1 }",
        )
        .unwrap();

        db.set_model(ExecutionModel::OperatorAtATime);
        let start = Instant::now();
        db.execute("SELECT inc(i) FROM numbers").unwrap();
        let oaat = start.elapsed();

        db.set_model(ExecutionModel::TupleAtATime);
        let start = Instant::now();
        db.execute("SELECT inc(i) FROM numbers").unwrap();
        let taat = start.elapsed();

        println!(
            "  {rows:>5}   {oaat:>16.1?}  {taat:>15.1?}  {:>7.1}x",
            taat.as_secs_f64() / oaat.as_secs_f64().max(1e-9)
        );
    }
    println!("  claim: MonetDB's operator-at-a-time amortizes interpreter entry; tuple-at-a-time pays it per row.\n");
}

/// C6: cost of attaching the debugger, on each engine.
fn debugger_overhead_report() {
    const ROWS: usize = 100_000;
    println!(
        "C6  Debugger overhead on mean_deviation ({ROWS} rows, run_local budget, median of 5)"
    );
    println!("  engine    hooks off   unhit bp        hot-line cond   bp hit once");
    for mode in [ExecMode::Bytecode, ExecMode::Ast] {
        let median = |arm| {
            let (mut interp, call) = scenario_a_interp(mode, ROWS);
            let mut runs: Vec<_> = (0..5)
                .map(|_| {
                    let start = Instant::now();
                    run_under_debugger(&mut interp, &call, arm);
                    start.elapsed()
                })
                .collect();
            runs.sort();
            runs[2]
        };
        let times: Vec<_> = DEBUGGER_CASES.iter().map(|(_, arm)| median(*arm)).collect();
        let ratio = |t: std::time::Duration| t.as_secs_f64() / times[0].as_secs_f64();
        println!(
            "  {:<8} {:>9.1?}  {:>8.1?} {:>4.2}x  {:>8.1?} {:>4.2}x  {:>8.1?} {:>4.2}x",
            mode.as_str(),
            times[0],
            times[1],
            ratio(times[1]),
            times[2],
            ratio(times[2]),
            times[3],
            ratio(times[3])
        );
    }
    println!("  claim: interactive debugging is affordable because it runs locally, not in the server.\n");
}

/// C7: import/export scaling with the number of stored UDFs.
fn import_export_report() {
    println!("C7  Import/export scaling");
    println!("  #udfs   import      export");
    for n in [4usize, 16, 64] {
        let server = wireproto::Server::start(
            wireproto::ServerConfig::new("demo", "monetdb", "monetdb"),
            move |db| {
                db.execute("CREATE TABLE numbers (i INTEGER)").unwrap();
                db.execute("INSERT INTO numbers VALUES (1), (2)").unwrap();
                for i in 0..n {
                    db.execute(&format!(
                        "CREATE FUNCTION udf_{i}(column INTEGER) RETURNS DOUBLE LANGUAGE PYTHON {{\nmean = 0\nfor j in range(0, len(column)):\n    mean += column[j]\nreturn mean / len(column) + {i}\n}}"
                    ))
                    .unwrap();
                }
            },
        );
        let mut dev = bench_session(&server, &format!("report-impexp-{n}"));
        let start = Instant::now();
        let report = dev.import_all().unwrap();
        let import_t = start.elapsed();
        assert_eq!(report.imported.len(), n);
        let names: Vec<String> = report.imported.iter().map(|(m, _)| m.clone()).collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let start = Instant::now();
        dev.export(&refs).unwrap();
        let export_t = start.elapsed();
        println!("  {n:>5}   {import_t:>9.1?}  {export_t:>9.1?}");
        std::fs::remove_dir_all(dev.project.root()).ok();
        server.shutdown();
    }
    println!();
}

/// C8 (summary): codec throughput on a CSV-like 1 MiB payload.
fn codec_report() {
    println!("C8  Codec micro-summary (1 MiB CSV-like payload)");
    let mut payload = Vec::new();
    let mut i = 0u64;
    while payload.len() < 1 << 20 {
        payload.extend_from_slice(format!("{},{},row-{}\n", i, i * 2, i % 7).as_bytes());
        i += 1;
    }
    let start = Instant::now();
    let compressed = codecs::lz::compress(&payload);
    let ct = start.elapsed();
    let start = Instant::now();
    let back = codecs::lz::decompress(&compressed).unwrap();
    let dt = start.elapsed();
    assert_eq!(back, payload);
    println!(
        "  lz compress:   {:.1} MiB/s, ratio {:.3}",
        payload.len() as f64 / (1 << 20) as f64 / ct.as_secs_f64(),
        compressed.len() as f64 / payload.len() as f64
    );
    println!(
        "  lz decompress: {:.1} MiB/s",
        payload.len() as f64 / (1 << 20) as f64 / dt.as_secs_f64()
    );
    let key = [7u8; 32];
    let nonce = [1u8; 12];
    let start = Instant::now();
    let _ct = codecs::chacha20::xor_stream(&key, &nonce, 1, &payload);
    let et = start.elapsed();
    println!(
        "  chacha20:      {:.1} MiB/s",
        payload.len() as f64 / (1 << 20) as f64 / et.as_secs_f64()
    );
    let start = Instant::now();
    let _h = codecs::sha256(&payload);
    let ht = start.elapsed();
    println!(
        "  sha256:        {:.1} MiB/s",
        payload.len() as f64 / (1 << 20) as f64 / ht.as_secs_f64()
    );
}
