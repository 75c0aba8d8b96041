//! The `devudf` command-line front-end.
//!
//! ```text
//! devudf demo                      scripted end-to-end demo (paper §2.5)
//! devudf serve                     start a demo database server over TCP
//! devudf menu                      print the IDE main menu (Figure 1)
//! devudf settings [DIR]            print the settings dialog (Figure 2)
//! devudf import  DIR NAME…         import UDFs into a project (Figure 3a)
//! devudf export  DIR NAME…         export edited UDFs (Figure 3b)
//! devudf run     DIR NAME          run a UDF locally
//! devudf debug   DIR NAME BP…      debug a UDF locally (interactive);
//!                                  each BP is LINE or LINE:CONDITION
//! devudf log     DIR               show the project's VCS history
//! devudf metrics DIR [PREFIX] [--json]
//!                                  show the server's live sys.metrics
//!                                  table, optionally filtered to names
//!                                  starting with PREFIX, as a table or
//!                                  JSON rows
//! devudf sessions DIR [--json]     show the server's live sys.sessions
//!                                  table (one row per wire session:
//!                                  state, commands served, queue wait)
//! devudf trace   DIR [SQL]         run SQL (default: the settings' debug
//!                                  query) with end-to-end tracing and
//!                                  print the stitched client→wire→engine
//!                                  span tree
//! devudf profile DIR NAME          run a UDF locally under the line
//!                                  profiler and print source-annotated
//!                                  hot lines
//! devudf cache   DIR NAME          demo the extract cache: fetch NAME's
//!                                  inputs twice, print bytes-on-wire
//! devudf open    DATADIR [--demo]  open (or create) a persistent embedded
//!                                  database directory, replay its WAL and
//!                                  print the storage stats; `--demo`
//!                                  seeds the demo table + UDF on first
//!                                  open
//! devudf checkpoint DATADIR        fold DATADIR's WAL into a fresh
//!                                  columnar snapshot and truncate it
//! ```
//!
//! Commands taking a project DIR read connection settings from
//! `DIR/.devudf/settings.json` (create it with `devudf settings`).
//!
//! A global `--interp=ast|bytecode|inline` flag overrides the configured
//! UDF execution mode for this invocation (`ast` selects the tree-walking
//! reference interpreter; `bytecode` the compiled VM; `inline`, the
//! default, the VM plus Froid-style engine inlining for straight-line
//! UDFs).
//!
//! A global `--embedded[=DATADIR]` flag runs any project command against
//! an **in-process** engine instead of a TCP server ("MonetDBLite mode",
//! DESIGN §17). With a DATADIR (or a `storage.data_dir` in the settings
//! file) the engine is persistent — WAL + snapshots, replayed on open;
//! without one each invocation gets a fresh in-memory engine seeded with
//! the demo data.

use std::io::{BufReader, ErrorKind, Write};
use std::path::Path;

use codecs::json::Value as Json;
use devudf::{DevUdf, InterpMode, Settings};
use devudf_ide::{HeadlessIde, ReplController};
use pylite::DebugCommand;
use wireproto::message::{WireResult, WireTable, WireValue};
use wireproto::{Server, ServerConfig};

/// Write to stdout. A closed pipe means the reader has all it wanted
/// (`devudf menu | head -1`), so the process ends there with exit 0; any
/// other write failure exits 1.
fn write_stdout(args: std::fmt::Arguments) {
    let Err(e) = std::io::stdout().lock().write_fmt(args) else {
        return;
    };
    if e.kind() != ErrorKind::BrokenPipe {
        eprintln!("cannot write to stdout: {e}");
        std::process::exit(1);
    }
    std::process::exit(0);
}

// This binary's `print!` and `println!` shadow std's and go through
// `write_stdout`, which std's would panic in on a closed pipe.
macro_rules! print {
    ($($arg:tt)*) => { write_stdout(format_args!($($arg)*)) };
}

macro_rules! println {
    ($($arg:tt)*) => { write_stdout(format_args!("{}\n", format_args!($($arg)*))) };
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut interp: Option<InterpMode> = None;
    args.retain(|a| match a.strip_prefix("--interp=") {
        Some(m) => {
            match InterpMode::parse(m) {
                Some(mode) => interp = Some(mode),
                None => {
                    eprintln!(
                        "bad --interp value '{m}' (expected one of {})",
                        InterpMode::ALLOWED
                    );
                    std::process::exit(2);
                }
            }
            false
        }
        None => true,
    });
    // --embedded / --embedded=DATADIR: run project commands in-process.
    let mut embedded: Option<Option<String>> = None;
    args.retain(|a| {
        if a == "--embedded" {
            embedded = Some(None);
            return false;
        }
        match a.strip_prefix("--embedded=") {
            Some("") => {
                eprintln!("bad --embedded value: the data directory must not be empty");
                std::process::exit(2);
            }
            Some(dir) => {
                embedded = Some(Some(dir.to_string()));
                false
            }
            None => true,
        }
    });
    let code = match args.first().map(|s| s.as_str()) {
        Some("demo") => cmd_demo(),
        Some("serve") => cmd_serve(interp),
        Some("menu") => {
            println!("{}", devudf_ide::main_menu().render());
            0
        }
        Some("settings") => cmd_settings(args.get(1).map(|s| s.as_str())),
        Some("import") => cmd_project(&args, interp, embedded.clone(), |dev, names| {
            let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            let report = if refs.is_empty() {
                dev.import_all()
            } else {
                dev.import(&refs)
            }
            .map_err(|e| e.to_string())?;
            for (name, path) in &report.imported {
                println!("imported {name} -> {path}");
            }
            for missing in &report.missing {
                obs::warn!("no such function on the server", "name" => missing);
            }
            Ok(())
        }),
        Some("export") => cmd_project(&args, interp, embedded.clone(), |dev, names| {
            let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            let exported = dev.export(&refs).map_err(|e| e.to_string())?;
            for name in exported {
                println!("exported {name}");
            }
            Ok(())
        }),
        Some("run") => cmd_project(&args, interp, embedded.clone(), |dev, names| {
            let Some(name) = names.first() else {
                return Err("usage: devudf run DIR NAME".to_string());
            };
            let outcome = dev.run_udf(name).map_err(|e| e.to_string())?;
            if !outcome.stdout.is_empty() {
                print!("{}", outcome.stdout);
            }
            println!("result = {}", outcome.result_repr);
            Ok(())
        }),
        Some("debug") => cmd_project(&args, interp, embedded.clone(), |dev, rest| {
            let Some(name) = rest.first() else {
                return Err("usage: devudf debug DIR NAME [LINE…]".to_string());
            };
            let controller =
                ReplController::new(BufReader::new(std::io::stdin()), std::io::stdout());
            let dbg = controller.into_debugger();
            for bp in &rest[1..] {
                match bp.split_once(':') {
                    Some((line, cond)) => match line.parse::<u32>() {
                        Ok(line) => dbg.borrow_mut().add_conditional_breakpoint(line, cond),
                        Err(_) => return Err(format!("bad breakpoint '{bp}'")),
                    },
                    None => match bp.parse::<u32>() {
                        Ok(line) => dbg.borrow_mut().add_breakpoint(line),
                        Err(_) => return Err(format!("bad breakpoint line '{bp}'")),
                    },
                }
            }
            if rest.len() == 1 {
                dbg.borrow_mut().break_on_entry = true;
            }
            let outcome = dev.debug_udf(name, dbg).map_err(|e| e.to_string())?;
            match outcome.run {
                Some(run) => println!("result = {}", run.result_repr),
                None => println!("debug session terminated"),
            }
            Ok(())
        }),
        Some("metrics") => cmd_project(&args, interp, embedded.clone(), |dev, rest| {
            let json = rest.iter().any(|a| a == "--json");
            let prefix = rest.iter().find(|a| !a.starts_with("--"));
            let sql = match prefix {
                Some(p) => format!(
                    "SELECT * FROM sys.metrics WHERE name LIKE '{}%'",
                    p.replace('\'', "''")
                ),
                None => "SELECT * FROM sys.metrics".to_string(),
            };
            let table = dev
                .server_query(&sql)
                .map_err(|e| e.to_string())?
                .into_table()
                .map_err(|e| e.to_string())?;
            if json {
                print!("{}", render_json(&table));
            } else {
                println!("{}", table.render_ascii());
            }
            Ok(())
        }),
        Some("sessions") => cmd_project(&args, interp, embedded.clone(), |dev, rest| {
            let json = rest.iter().any(|a| a == "--json");
            let table = dev
                .server_query("SELECT * FROM sys.sessions")
                .map_err(|e| e.to_string())?
                .into_table()
                .map_err(|e| e.to_string())?;
            if json {
                print!("{}", render_json(&table));
            } else {
                println!("{}", table.render_ascii());
            }
            Ok(())
        }),
        Some("trace") => cmd_project(&args, interp, embedded.clone(), |dev, rest| {
            let sql = match rest.first() {
                Some(s) => s.clone(),
                None if !dev.settings.debug_query.trim().is_empty() => {
                    dev.settings.debug_query.clone()
                }
                None => {
                    return Err(
                        "usage: devudf trace DIR [SQL] (or configure Settings → SQL Query)"
                            .to_string(),
                    )
                }
            };
            let (result, tree) = dev.server_query_traced(&sql).map_err(|e| e.to_string())?;
            if tree.is_empty() {
                println!("(no trace captured — telemetry off)");
            } else {
                print!("{tree}");
            }
            match result {
                WireResult::Table(t) => println!("{}", t.render_ascii()),
                WireResult::Affected { rows, message } => println!("{message} ({rows} rows)"),
            }
            Ok(())
        }),
        Some("profile") => cmd_project(&args, interp, embedded.clone(), |dev, names| {
            let Some(name) = names.first() else {
                return Err("usage: devudf profile DIR NAME".to_string());
            };
            let report = dev.profile_udf(name).map_err(|e| e.to_string())?;
            if !report.outcome.stdout.is_empty() {
                print!("{}", report.outcome.stdout);
            }
            print!("{}", report.annotated);
            if !report.kernel_loops.is_empty() {
                let lines: Vec<String> = report.kernel_loops.iter().map(u32::to_string).collect();
                println!(
                    "note: the profiler ran every loop statement by statement; unprofiled, \
the loops on lines {} run as typed kernels",
                    lines.join(", ")
                );
            }
            println!("result = {}", report.outcome.result_repr);
            Ok(())
        }),
        Some("cache") => cmd_project(&args, interp, embedded.clone(), |dev, names| {
            let Some(name) = names.first() else {
                return Err("usage: devudf cache DIR NAME".to_string());
            };
            let cache = dev.settings.transfer.cache;
            if cache.enabled {
                println!(
                    "extract cache: delta transfer, {} extracts kept",
                    devudf::settings::CACHE_ENTRIES
                );
            } else {
                println!("extract cache: disabled (classic full extract)");
            }
            // Two identical fetches back to back: the second rides the
            // delta protocol and — unchanged data — costs zero payload
            // bytes (or the full amount again when disabled).
            let cold = dev.fetch_inputs(name).map_err(|e| e.to_string())?;
            let warm = dev.fetch_inputs(name).map_err(|e| e.to_string())?;
            println!(
                "cold fetch: {} raw bytes, {} on the wire",
                cold.raw_len, cold.wire_len
            );
            println!(
                "warm fetch: {} raw bytes, {} on the wire",
                warm.raw_len, warm.wire_len
            );
            if cache.enabled && warm.wire_len == 0 {
                println!("unchanged data: the server answered NotModified");
            }
            Ok(())
        }),
        Some("log") => cmd_log(&args),
        Some("diff") => cmd_diff(&args),
        Some("open") => cmd_open(&args),
        Some("checkpoint") => cmd_checkpoint(&args),
        _ => {
            eprintln!(
                "usage: devudf <demo|serve|menu|settings|import|export|run|debug|log|diff|metrics|sessions|trace|profile|cache|open|checkpoint> …\n(see the module docs for details)"
            );
            2
        }
    };
    std::process::exit(code);
}

/// Demo data used by `demo` and `serve`: the paper's CSV-of-integers setup.
fn seed_demo(db: &monetlite::Engine) {
    db.execute("CREATE TABLE numbers (i INTEGER)").unwrap();
    let values: Vec<String> = (1..=100).map(|i| format!("({i})")).collect();
    db.execute(&format!("INSERT INTO numbers VALUES {}", values.join(", ")))
        .unwrap();
    // Scenario A: the buggy mean_deviation of paper Listing 4.
    db.execute(concat!(
        "CREATE FUNCTION mean_deviation(column INTEGER) RETURNS DOUBLE LANGUAGE PYTHON {\n",
        "mean = 0\n",
        "for i in range(0, len(column)):\n",
        "    mean += column[i]\n",
        "mean = mean / len(column)\n",
        "distance = 0\n",
        "for i in range(0, len(column)):\n",
        "    distance += column[i] - mean\n",
        "deviation = distance / len(column)\n",
        "return deviation\n",
        "}"
    ))
    .unwrap();
}

fn cmd_serve(interp: Option<InterpMode>) -> i32 {
    let mode = interp.unwrap_or_default();
    let server = Server::start(
        ServerConfig::new("demo", "monetdb", "monetdb"),
        move |db: &monetlite::Engine| {
            db.set_exec_mode(mode.pylite_mode());
            db.set_inline(mode.inline());
            seed_demo(db);
        },
    );
    let addr = match server.listen_tcp() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cannot listen: {e}");
            return 1;
        }
    };
    println!("devudf demo server listening on {addr}");
    println!("database=demo user=monetdb password=monetdb");
    println!("press Ctrl-C to stop");
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// Render a wire table as a JSON array of row objects (the `--json`
/// output of `devudf metrics` and `devudf sessions`). Blobs render as hex
/// strings; non-finite doubles as `null`.
fn render_json(table: &WireTable) -> String {
    let rows = table
        .rows
        .iter()
        .map(|row| {
            let fields = table.columns.iter().zip(row).map(|((name, _), v)| {
                let v = match v {
                    WireValue::Null => Json::Null,
                    WireValue::Int(i) => Json::Int(*i),
                    WireValue::Double(d) => Json::Float(*d),
                    WireValue::Bool(b) => Json::Bool(*b),
                    WireValue::Str(s) => Json::Str(s.clone()),
                    WireValue::Blob(b) => Json::Str(codecs::to_hex(b)),
                };
                (name.clone(), v)
            });
            Json::Object(fields.collect())
        })
        .collect();
    Json::Array(rows).to_string_pretty()
}

fn cmd_settings(dir: Option<&str>) -> i32 {
    let root = Path::new(dir.unwrap_or("."));
    let settings = Settings::load(root).unwrap_or_default();
    println!("{}", settings.render_dialog());
    if let Err(e) = settings.save(root) {
        obs::warn!("cannot save settings", "path" => root.display(), "error" => e);
    }
    0
}

fn cmd_project(
    args: &[String],
    interp: Option<InterpMode>,
    embedded: Option<Option<String>>,
    f: impl FnOnce(&mut DevUdf, &[String]) -> Result<(), String>,
) -> i32 {
    let Some(dir) = args.get(1) else {
        eprintln!("usage: devudf {} DIR …", args[0]);
        return 2;
    };
    let root = Path::new(dir);
    let mut settings = match Settings::load(root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot load settings from {dir}: {e}");
            return 1;
        }
    };
    if let Some(mode) = interp {
        settings.interp = mode;
    }
    let connected = match embedded {
        Some(dir_override) => {
            if let Some(d) = dir_override {
                settings.storage.data_dir = d;
            }
            // A fresh in-memory engine has nothing to develop against, so
            // it gets the demo seed; a persistent directory is opened
            // exactly as the WAL left it.
            let seed = settings.storage.data_dir.is_empty();
            DevUdf::connect_embedded(settings, root, |db| {
                if seed {
                    seed_demo(db);
                }
            })
        }
        None => DevUdf::connect_tcp(settings, root),
    };
    let mut dev = match connected {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot connect: {e}");
            return 1;
        }
    };
    match f(&mut dev, &args[2..]) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// Open a persistent embedded database directory and report its state
/// (`devudf open DATADIR [--demo]`).
fn cmd_open(args: &[String]) -> i32 {
    let Some(dir) = args.get(1) else {
        eprintln!("usage: devudf open DATADIR [--demo]");
        return 2;
    };
    let demo = args.iter().skip(2).any(|a| a == "--demo");
    let db = match monetlite::Engine::open(Path::new(dir)) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("cannot open {dir}: {e}");
            return 1;
        }
    };
    if demo && db.function_names().is_empty() {
        seed_demo(&db);
        println!("seeded demo data (table numbers + mean_deviation)");
    }
    let stats = db.storage_stats().expect("opened engines are persistent");
    println!("opened {}", stats.dir.display());
    if stats.wal_records == 0 {
        println!(
            "  wal: empty ({} bytes), next seq {}",
            stats.wal_bytes,
            stats.base_seq + 1
        );
    } else {
        println!(
            "  wal: {} records ({} bytes), seq {}..{}",
            stats.wal_records,
            stats.wal_bytes,
            stats.base_seq + 1,
            stats.last_seq
        );
    }
    println!("  functions: {}", db.function_names().join(", "));
    0
}

/// Fold the WAL into a fresh snapshot (`devudf checkpoint DATADIR`).
fn cmd_checkpoint(args: &[String]) -> i32 {
    let Some(dir) = args.get(1) else {
        eprintln!("usage: devudf checkpoint DATADIR");
        return 2;
    };
    let db = match monetlite::Engine::open(Path::new(dir)) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("cannot open {dir}: {e}");
            return 1;
        }
    };
    match db.checkpoint() {
        Ok(stats) => {
            println!(
                "checkpointed {} at seq {} (wal truncated to {} bytes)",
                stats.dir.display(),
                stats.base_seq,
                stats.wal_bytes
            );
            0
        }
        Err(e) => {
            eprintln!("checkpoint failed: {e}");
            1
        }
    }
}

fn cmd_log(args: &[String]) -> i32 {
    let Some(dir) = args.get(1) else {
        eprintln!("usage: devudf log DIR");
        return 2;
    };
    let repo = match minivcs::Repository::init(Path::new(dir)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot open repository: {e}");
            return 1;
        }
    };
    match repo.log() {
        Ok(log) => {
            for commit in log {
                println!(
                    "{}  #{}  {}  ({})",
                    &commit.id[..10.min(commit.id.len())],
                    commit.seq,
                    commit.message,
                    commit.author
                );
            }
            0
        }
        Err(e) => {
            eprintln!("cannot read log: {e}");
            1
        }
    }
}

fn cmd_diff(args: &[String]) -> i32 {
    let (Some(dir), Some(file)) = (args.get(1), args.get(2)) else {
        eprintln!("usage: devudf diff DIR FILE");
        return 2;
    };
    let repo = match minivcs::Repository::init(Path::new(dir)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot open repository: {e}");
            return 1;
        }
    };
    let head = match repo.head() {
        Ok(Some(h)) => h,
        Ok(None) => {
            eprintln!("no commits yet");
            return 1;
        }
        Err(e) => {
            eprintln!("cannot read HEAD: {e}");
            return 1;
        }
    };
    match repo.diff_file(file, &head, None) {
        Ok(diff) if diff.trim().is_empty() => {
            println!("no changes in {file}");
            0
        }
        Ok(diff) => {
            print!("{diff}");
            0
        }
        Err(e) => {
            eprintln!("cannot diff: {e}");
            1
        }
    }
}

/// The scripted end-to-end demo following the paper's §2.5 outline.
fn cmd_demo() -> i32 {
    println!("═══ devUDF demo (paper §2.5) ═══\n");
    let server = Server::start(ServerConfig::new("demo", "monetdb", "monetdb"), seed_demo);

    let dir = std::env::temp_dir().join(format!("devudf-demo-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let mut settings = Settings::default();
    settings.debug_query = "SELECT mean_deviation(i) FROM numbers".to_string();
    let mut ide = HeadlessIde::open_in_proc(&server, settings, &dir).unwrap();

    println!("Step 1 — the traditional workflow runs the buggy UDF in the server:");
    let before = ide
        .dev
        .server_query("SELECT mean_deviation(i) FROM numbers")
        .unwrap()
        .into_table()
        .unwrap();
    println!("{}", before.render_ascii());
    println!("(a mean absolute deviation of 0.0 is clearly wrong — but why?)\n");

    println!("Step 2+4 — devUDF: import the UDF and debug it locally.");
    let mut import = ide.open_import_dialog().unwrap();
    import.import_all = true;
    ide.confirm_import(&import).unwrap();
    println!("{}\n", import.render());

    // Watch the distance accumulate signed values under the debugger.
    let dbg = pylite::Debugger::scripted(vec![DebugCommand::Continue; 200]);
    let bp = 7 + devudf::transform::BODY_LINE_OFFSET;
    dbg.borrow_mut().add_breakpoint(bp);
    let outcome = ide.dev.debug_udf("mean_deviation", dbg.clone()).unwrap();
    println!(
        "debugger paused {} times at the accumulation line; locals at pause 3:",
        outcome.pauses
    );
    for (name, value) in &dbg.borrow().pauses()[2].locals {
        println!("   {name} = {value}");
    }
    println!("→ `distance` goes NEGATIVE: the abs() is missing (Listing 4, line 9).\n");

    println!("Step 4b — fix locally, re-run locally, export:");
    let script = ide.dev.project.read_udf("mean_deviation").unwrap();
    let fixed = script.replace(
        "distance += column[i] - mean",
        "distance += abs(column[i] - mean)",
    );
    ide.dev.project.write_udf("mean_deviation", &fixed).unwrap();
    let local = ide.dev.run_udf("mean_deviation").unwrap();
    println!("local run result = {}", local.result_repr);
    ide.dev.export(&["mean_deviation"]).unwrap();
    let after = ide
        .dev
        .server_query("SELECT mean_deviation(i) FROM numbers")
        .unwrap()
        .into_table()
        .unwrap();
    println!("server-side after export:\n{}", after.render_ascii());

    std::fs::remove_dir_all(&dir).ok();
    server.shutdown();
    println!("═══ demo complete ═══");
    0
}
