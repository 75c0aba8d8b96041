//! Bench regression guards: re-measure the perf claims CI depends on and
//! fail (exit 1) on regression against the committed baselines.
//!
//! Six guards run, all ratio-normalized, one row each in [`SUITES`]:
//!
//!  1. **Transfer codec** — the `compressed/1000` extract from the
//!     `transfer` suite must stay within 10% of the committed
//!     `BENCH_transfer.json` baseline, normalized by `plain/1000`.
//!  2. **Bytecode VM** — the pylite bytecode engine must keep a healthy
//!     speedup over the AST walker on the Scenario-A UDF
//!     (`BENCH_pylite_vm.json`, DESIGN §13 / EXPERIMENTS C14).
//!  3. **UDF inlining** — the Froid-style inlined plan must keep its
//!     speedup over the bytecode interpreter on Scenario A, end-to-end
//!     through the SQL engine (`BENCH_udf_inline.json`, DESIGN §14 /
//!     EXPERIMENTS C15).
//!  4. **Observability overhead** — with telemetry compiled in but idle,
//!     Scenario A must cost within 1% of a hard-disabled build, and a
//!     live per-query trace capture within 5% of idle
//!     (`BENCH_profile.json`, DESIGN §15 / EXPERIMENTS C16). Two rows
//!     over one measurement.
//!  5. **Server concurrency** — 16 concurrent TCP sessions must not cost
//!     more per query than one session (the scheduler must not convoy),
//!     and on hosts with ≥8 cores must deliver a real speedup
//!     (`BENCH_server_concurrency.json`, DESIGN §16 / EXPERIMENTS C17).
//!  6. **Embedded transport** — the in-process extract must keep beating
//!     the TCP wire (`BENCH_embedded.json`, DESIGN §17 / EXPERIMENTS C18).
//!
//! Shared CI hosts drift by tens of percent run-to-run, so the guards
//! compare *normalized* cost rather than absolute nanoseconds: both
//! sides of each ratio are measured in one process with the same harness
//! that produced the baseline. Host-speed fluctuation cancels out of the
//! ratio; a regression in the guarded subsystem (the only thing
//! separating the two paths) does not. Two more noise dampers: ratios
//! are built from per-sample *minimum* ns (the lowest-variance location
//! statistic — scheduler interruptions only ever add time) and each
//! measurement repeats up to three times, passing on the best ratio. A
//! real regression shifts the minimum of every repeat; transient load
//! does not.

use codecs::json::Value as Json;
use devharness::bench::Harness;
use devudf_bench::{
    bench_server, bench_session, scenario_a_interp, seed_numbers, udf_engine, SessionFleet,
    MEAN_DEVIATION_STRAIGHT_BODY,
};
use monetlite::{Engine, ExecutionModel};
use pylite::ExecMode;
use wireproto::{ClientOptions, Server, ServerConfig, TransferOptions};

/// Which way a guarded ratio points.
#[derive(Clone, Copy)]
enum Ratio {
    /// `reference / guarded`; must stay at or above its bounds.
    Speedup,
    /// `guarded / reference`; must stay at or below its bounds.
    Overhead,
}

impl Ratio {
    fn of(self, reference: f64, guarded: f64) -> f64 {
        match self {
            Ratio::Speedup => reference / guarded,
            Ratio::Overhead => guarded / reference,
        }
    }

    fn holds(self, ratio: f64, bound: f64) -> bool {
        match self {
            Ratio::Speedup => ratio >= bound,
            Ratio::Overhead => ratio <= bound,
        }
    }

    fn better(self, a: f64, b: f64) -> f64 {
        match self {
            Ratio::Speedup => a.max(b),
            Ratio::Overhead => a.min(b),
        }
    }

    fn worst(self) -> f64 {
        match self {
            Ratio::Speedup => 0.0,
            Ratio::Overhead => f64::INFINITY,
        }
    }
}

/// The bound a live re-measurement must meet.
#[derive(Clone, Copy)]
enum Live {
    /// A fixed ratio.
    Floor(f64),
    /// The committed baseline's own ratio times this tolerance.
    Tolerance(f64),
}

/// One guarded ratio: two entries of a committed baseline, the same two
/// entries of a live re-measurement, and the bounds each must meet.
struct Guard {
    name: &'static str,
    file: &'static str,
    /// Benchmark group, shared by the baseline and the live artifact.
    group: &'static str,
    /// `(reference, guarded)` entry names in the committed baseline.
    baseline: (&'static str, &'static str),
    /// `(reference, guarded)` entry names in the live artifact.
    live: (&'static str, &'static str),
    ratio: Ratio,
    /// Bound the committed ratio must meet: the claim the docs make.
    claim: Option<f64>,
    live_bound: Live,
    /// `(reference, guarded)` divisors turning ns per iteration into ns
    /// per query.
    per_query: (f64, f64),
    /// On hosts with at least this many cores, the live floor becomes
    /// this ratio instead.
    many_cores: Option<(usize, f64)>,
    /// What a live failure most likely means.
    hint: &'static str,
}

/// One live measurement and the guards that read it.
struct Suite {
    /// The `cargo bench` target that records the committed baseline.
    bench: &'static str,
    measure: fn() -> Json,
    guards: &'static [Guard],
}

/// Field defaults the rows of [`SUITES`] override.
const DEFAULTS: Guard = Guard {
    name: "",
    file: "",
    group: "",
    baseline: ("", ""),
    live: ("", ""),
    ratio: Ratio::Speedup,
    claim: None,
    live_bound: Live::Floor(0.0),
    per_query: (1.0, 1.0),
    many_cores: None,
    hint: "",
};

/// Matches `QUERIES_PER_BURST` in `benches/server_concurrency.rs`: one
/// measured iteration = every session completing this many round trips.
const CONC_QUERIES_PER_BURST: usize = 4;
const CONC_SESSIONS: usize = 16;

const SUITES: &[Suite] = &[
    Suite {
        bench: "transfer",
        measure: measure_transfer,
        guards: &[Guard {
            name: "transfer",
            file: "BENCH_transfer.json",
            group: "transfer_extract",
            baseline: ("plain/1000", "compressed/1000"),
            live: ("plain/1000", "compressed/1000"),
            ratio: Ratio::Overhead,
            live_bound: Live::Tolerance(1.10),
            hint: "the compressed extract path regressed",
            ..DEFAULTS
        }],
    },
    Suite {
        bench: "pylite_vm",
        measure: measure_vm,
        guards: &[Guard {
            name: "vm",
            file: "BENCH_pylite_vm.json",
            group: "scenario_a",
            baseline: ("ast/1000", "bytecode/1000"),
            live: ("ast", "bytecode"),
            // The committed speedup backs the README/EXPERIMENTS "≥5× per
            // F5" claim; the live floor sits far above the ~1× a broken
            // fast path or de-fused compiler would produce.
            claim: Some(5.0),
            live_bound: Live::Floor(3.0),
            hint: "a fast path or compiler fusion likely regressed",
            ..DEFAULTS
        }],
    },
    Suite {
        bench: "udf_inline",
        measure: measure_inline,
        guards: &[Guard {
            name: "inline",
            file: "BENCH_udf_inline.json",
            group: "scenario_a",
            baseline: ("bytecode/10000", "inlined/10000"),
            live: ("bytecode", "inlined"),
            // EXPERIMENTS C15: "≥3× over the bytecode VM on Scenario A".
            // A broken inliner (silent bail, de-vectorized eval) lands ~1×.
            claim: Some(3.0),
            live_bound: Live::Floor(2.0),
            hint: "the inliner is likely bailing or the typed eval fast paths regressed",
            ..DEFAULTS
        }],
    },
    Suite {
        bench: "profile",
        measure: measure_profile,
        // Claims: profiling off costs ≤1%, tracing on ≤5% (DESIGN §15).
        // Live minima still jitter by tens of percent on shared hosts, so
        // the live floors only catch an idle-path hook doing real work
        // (formatting, allocation, locking), which shows up as 2×+.
        guards: &[
            Guard {
                name: "profile (idle)",
                file: "BENCH_profile.json",
                group: "scenario_a",
                baseline: ("baseline/10000", "off/10000"),
                live: ("baseline", "off"),
                ratio: Ratio::Overhead,
                claim: Some(1.01),
                live_bound: Live::Floor(1.25),
                hint: "an idle-path telemetry hook is likely doing real work",
                ..DEFAULTS
            },
            Guard {
                name: "profile (traced)",
                file: "BENCH_profile.json",
                group: "scenario_a",
                baseline: ("off/10000", "traced/10000"),
                live: ("off", "traced"),
                ratio: Ratio::Overhead,
                claim: Some(1.05),
                live_bound: Live::Floor(1.50),
                hint: "live trace capture got more expensive per query",
                ..DEFAULTS
            },
        ],
    },
    Suite {
        bench: "server_concurrency",
        measure: measure_concurrency,
        guards: &[Guard {
            name: "concurrency",
            file: "BENCH_server_concurrency.json",
            group: "tcp_select",
            baseline: ("sessions/1", "sessions/16"),
            live: ("sessions/1", "sessions/16"),
            // Below 8 cores real parallel speedup is not demonstrable (the
            // recording host has 2 cores and measures ~1.8×), so the floor
            // only catches a convoying scheduler, where 16 sessions on one
            // lock make each query slower than a lone session. TCP minima
            // jitter several-fold on shared hosts, hence 0.5 rather than
            // 1.0. On ≥8 cores the EXPERIMENTS C17 claim is ≥3× and the
            // guard demands 2×.
            claim: Some(0.5),
            live_bound: Live::Floor(0.5),
            per_query: (
                CONC_QUERIES_PER_BURST as f64,
                (CONC_SESSIONS * CONC_QUERIES_PER_BURST) as f64,
            ),
            many_cores: Some((8, 2.0)),
            hint: "the read scheduler is likely serializing (convoy on the writer channel \
or a poisoned snapshot cache)",
            ..DEFAULTS
        }],
    },
    Suite {
        bench: "embedded",
        measure: measure_embedded,
        guards: &[Guard {
            name: "embedded",
            file: "BENCH_embedded.json",
            group: "extract",
            baseline: ("tcp/200000", "embedded/200000"),
            live: ("tcp", "embedded"),
            // EXPERIMENTS C18: "embedded extract ≥5× faster than TCP on
            // 200k rows" (the recording host measures ~13×). An embedded
            // path that started serializing again lands near 1×.
            claim: Some(5.0),
            live_bound: Live::Floor(2.0),
            hint: "the embedded path is likely serializing again",
            ..DEFAULTS
        }],
    },
];

/// Per-sample minimum ns of `group`/`name` in a harness artifact.
fn min_ns(doc: &Json, file: &str, group: &str, name: &str) -> f64 {
    doc.get("benchmarks")
        .and_then(|b| b.as_array())
        .and_then(|benchmarks| {
            benchmarks.iter().find(|b| {
                b.get("group").and_then(|g| g.as_str()) == Some(group)
                    && b.get("name").and_then(|n| n.as_str()) == Some(name)
            })
        })
        .and_then(|b| b.get("ns_per_iter")?.get("min")?.as_f64())
        .unwrap_or_else(|| panic!("entry {group}/{name} not found in {file}"))
}

impl Guard {
    /// `(ratio, reference ns, guarded ns)` of `entries` in `doc`.
    fn measure(&self, doc: &Json, file: &str, entries: (&str, &str)) -> (f64, f64, f64) {
        let reference = min_ns(doc, file, self.group, entries.0) / self.per_query.0;
        let guarded = min_ns(doc, file, self.group, entries.1) / self.per_query.1;
        (self.ratio.of(reference, guarded), reference, guarded)
    }
}

/// Run every guard of `suite`: check each committed ratio against its
/// claim, then re-measure up to three times and pass each guard on its
/// best live ratio.
fn check(suite: &Suite) -> bool {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut ok = true;
    // (guard, committed ratio, live bound, best live ratio so far) of the
    // guards not yet passed.
    let mut open = Vec::new();
    for guard in suite.guards {
        let text = std::fs::read_to_string(guard.file)
            .unwrap_or_else(|e| panic!("read {}: {e}", guard.file));
        let doc =
            codecs::json::parse(&text).unwrap_or_else(|e| panic!("parse {}: {e}", guard.file));
        let (committed, _, _) = guard.measure(&doc, guard.file, guard.baseline);
        if let Some(claim) = guard.claim.filter(|c| !guard.ratio.holds(committed, *c)) {
            eprintln!(
                "FAIL: committed {} documents a {} ratio of {committed:.3}x against a claimed \
{claim:.2}x — re-run `cargo bench -p devudf-bench --bench {}` on a quiet host or fix the code",
                guard.file, guard.name, suite.bench
            );
            ok = false;
            continue;
        }
        let bound = match (guard.live_bound, guard.many_cores) {
            (_, Some((min_cores, floor))) if cores >= min_cores => floor,
            (Live::Floor(floor), _) => floor,
            (Live::Tolerance(t), _) => committed * t,
        };
        open.push((guard, committed, bound, guard.ratio.worst()));
    }
    for attempt in 1..=3 {
        if open.is_empty() {
            break;
        }
        let doc = (suite.measure)();
        open.retain_mut(|(guard, committed, bound, best)| {
            let (ratio, reference, guarded) = guard.measure(&doc, "live run", guard.live);
            *best = guard.ratio.better(*best, ratio);
            let relation = match guard.ratio {
                Ratio::Speedup => "speedup over",
                Ratio::Overhead => "cost relative to",
            };
            println!(
                "{} guard[{attempt}]: {} {relation} {}: {ratio:.3}x (measured {guarded:.0} vs \
{reference:.0} ns); committed {committed:.3}x, bound {bound:.3}x on {cores} cores",
                guard.name, guard.live.1, guard.live.0
            );
            let passed = guard.ratio.holds(*best, *bound);
            if passed {
                println!("{} guard OK", guard.name);
            }
            !passed
        });
    }
    for (guard, _, bound, best) in &open {
        eprintln!(
            "FAIL: {} ratio held at {best:.3}x against a {bound:.3}x bound in all 3 \
attempts — {}",
            guard.name, guard.hint
        );
    }
    ok && open.is_empty()
}

/// Run `measure` under a scratch `DEVHARNESS_BENCH_OUT` so guard runs
/// never touch the committed baselines, then parse the artifact it wrote.
fn scratch_harness(suite: &str, measure: impl FnOnce(&mut Harness)) -> Json {
    let scratch =
        std::env::temp_dir().join(format!("devudf-bench-guard-{suite}-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).unwrap();
    std::env::set_var("DEVHARNESS_BENCH_OUT", &scratch);
    let mut h = Harness::new(suite);
    measure(&mut h);
    h.finish();
    std::env::remove_var("DEVHARNESS_BENCH_OUT");
    let text = std::fs::read_to_string(scratch.join(format!("BENCH_{suite}.json"))).unwrap();
    std::fs::remove_dir_all(&scratch).ok();
    codecs::json::parse(&text).unwrap()
}

/// Both transfer paths with the same harness that produced the baseline
/// (same calibration, warmup and batch statistics).
fn measure_transfer() -> Json {
    let server = bench_server(1_000);
    let mut dev = bench_session(&server, "bench-guard");
    dev.import_all().unwrap();
    let doc = scratch_harness("guard", |h| {
        let mut group = h.benchmark_group("transfer_extract");
        group.sample_size(10);
        for (name, options) in [
            ("plain/1000", TransferOptions::plain()),
            ("compressed/1000", TransferOptions::compressed()),
        ] {
            group.bench_function(name, |b| {
                b.iter(|| {
                    dev.client()
                        .borrow_mut()
                        .extract_inputs(
                            "SELECT mean_deviation(i) FROM numbers",
                            "mean_deviation",
                            options,
                        )
                        .unwrap()
                })
            });
        }
        group.finish();
    });
    std::fs::remove_dir_all(dev.project.root()).ok();
    server.shutdown();
    doc
}

/// Scenario A (1 000 rows) under both pylite engines exactly as
/// `benches/pylite_vm.rs` does.
fn measure_vm() -> Json {
    scratch_harness("vmguard", |h| {
        let mut group = h.benchmark_group("scenario_a");
        group.sample_size(20);
        for mode in [ExecMode::Ast, ExecMode::Bytecode] {
            let (mut interp, call) = scenario_a_interp(mode, 1_000);
            group.bench_function(mode.as_str(), |b| {
                b.iter(|| interp.run_module(&call).unwrap())
            });
        }
        group.finish();
    })
}

/// The 10 000-row Scenario A engine of the C15/C16 suites.
fn scenario_a_engine(inline: bool) -> Engine {
    udf_engine(
        ExecutionModel::OperatorAtATime,
        ExecMode::Bytecode,
        inline,
        10_000,
        MEAN_DEVIATION_STRAIGHT_BODY,
    )
}

/// Scenario A (10 000 rows) end-to-end through the SQL engine with
/// inlining off (bytecode VM) and on, exactly as `benches/udf_inline.rs`
/// does.
fn measure_inline() -> Json {
    scratch_harness("inlineguard", |h| {
        let mut group = h.benchmark_group("scenario_a");
        group.sample_size(12);
        for (name, inline) in [("bytecode", false), ("inlined", true)] {
            let db = scenario_a_engine(inline);
            group.bench_function(name, |b| {
                b.iter(|| db.execute("SELECT f(i) FROM numbers").unwrap())
            });
        }
        group.finish();
    })
}

/// Scenario A (10 000 rows, inlined) end-to-end through the SQL engine
/// with telemetry hard-disabled, idle, and under a live per-query trace
/// capture, exactly as `benches/profile.rs` does.
fn measure_profile() -> Json {
    let db = scenario_a_engine(true);
    scratch_harness("profileguard", |h| {
        let mut group = h.benchmark_group("scenario_a");
        group.sample_size(20);
        obs::set_enabled(false);
        group.bench_function("baseline", |b| {
            b.iter(|| db.execute("SELECT f(i) FROM numbers").unwrap())
        });
        obs::set_enabled(true);
        group.bench_function("off", |b| {
            b.iter(|| db.execute("SELECT f(i) FROM numbers").unwrap())
        });
        group.bench_function("traced", |b| {
            b.iter(|| {
                let trace = obs::trace::new_trace_id();
                obs::trace::start_capture(trace);
                let result = {
                    let _ctx =
                        obs::trace::enter_context(obs::trace::SpanContext { trace, parent: 0 });
                    db.execute("SELECT f(i) FROM numbers").unwrap()
                };
                let spans = obs::trace::take_capture(trace);
                (result, spans)
            })
        });
        group.finish();
    })
}

/// Burst cost over real TCP at 1 and [`CONC_SESSIONS`] concurrent
/// sessions, exactly as `benches/server_concurrency.rs` does (persistent
/// fleet, burst iterations).
fn measure_concurrency() -> Json {
    let server = Server::start(
        ServerConfig::new("demo", "monetdb", "monetdb").with_queue_capacity(1024, 1024),
        |db| seed_numbers(db, 1_000),
    );
    let addr = server.listen_tcp().unwrap();
    let doc = scratch_harness("concguard", |h| {
        let mut group = h.benchmark_group("tcp_select");
        group.sample_size(12);
        for sessions in [1usize, CONC_SESSIONS] {
            let fleet = SessionFleet::connect(
                addr,
                sessions,
                CONC_QUERIES_PER_BURST,
                "SELECT sum(i) FROM numbers",
                ClientOptions::default(),
            );
            fleet.burst(); // warm connections and the reader snapshot cache
            group.bench_function(format!("sessions/{sessions}"), |b| b.iter(|| fleet.burst()));
            fleet.join();
        }
        group.finish();
    });
    server.shutdown();
    doc
}

/// One 20 000-row extract through both transports exactly as
/// `benches/embedded.rs` does (just smaller, to keep guard runs quick —
/// the ratio, not the absolute cost, is what's guarded).
fn measure_embedded() -> Json {
    const ROWS: usize = 20_000;
    const QUERY: &str = "SELECT mean_deviation(i) FROM numbers";
    let server = bench_server(ROWS);
    let addr = server.listen_tcp().unwrap();
    let mut tcp = wireproto::Client::connect_tcp_with(
        addr,
        "monetdb",
        "monetdb",
        "demo",
        ClientOptions::default(),
    )
    .unwrap();
    let db = Engine::new();
    seed_numbers(&db, ROWS);
    db.execute(&devudf_bench::create_mean_deviation(
        devudf_bench::LISTING4_BODY,
    ))
    .unwrap();
    let mut embedded = wireproto::Embedded::from_engine(db);
    let doc = scratch_harness("embguard", |h| {
        use wireproto::EngineTransport;
        let mut group = h.benchmark_group("extract");
        group.sample_size(10);
        group.bench_function("tcp", |b| {
            b.iter(|| {
                tcp.extract_inputs(QUERY, "mean_deviation", TransferOptions::plain())
                    .unwrap()
            })
        });
        group.bench_function("embedded", |b| {
            b.iter(|| {
                embedded
                    .extract_inputs(QUERY, "mean_deviation", TransferOptions::plain())
                    .unwrap()
            })
        });
        group.finish();
    });
    server.shutdown();
    doc
}

fn main() {
    // Operate on the workspace root regardless of invocation directory.
    if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
        let root = std::path::Path::new(&manifest).join("../..");
        std::env::set_current_dir(root).expect("chdir to workspace root");
    }
    // Every suite runs, so one failure does not hide another.
    let failed = SUITES.iter().filter(|suite| !check(suite)).count();
    if failed > 0 {
        std::process::exit(1);
    }
}
