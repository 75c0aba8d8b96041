//! `devbench` — the devUDF debug loop, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path devbench/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//! ```
//!
//! With `--workload`, this process runs that one workload: it sets the
//! world up [`SETUPS`] times (the median is `setup_s`), runs the ops for
//! `--seconds` of measured op time, checks every answer against a shadow
//! model, and prints the end-to-end metrics, every time scaled to the
//! reference host speed ([`harness::reference_us`]). With `--trace`, it
//! runs the workload untraced for half the time, then traced for the same
//! ops, and prints the per-layer metrics instead. Without `--workload`, it
//! runs every workload, each in a child process of its own.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The same result, with
//! the run record, is written to `target/devbench/<workload>[.trace].json`
//! under the working directory. The exit code is 0 only when every op
//! succeeded and every check passed.

mod harness;
mod layers;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use harness::{json_num, json_obj, json_str, Budget, Kind, Lane, Registry, Sample, SpanTotals};
use workloads::{Shape, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => true,
                };
                if matches!(it.peek().map(String::as_str), Some("0" | "1")) {
                    it.next();
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &args.workload {
        if !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?} (expected one of {})",
                workloads::NAMES.join(", ")
            ));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("devbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("devbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// The outcome of one process's run, before printing.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<(String, String)> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    format!(
                        "{{\"value\": {}, \"unit\": {}}}",
                        json_num(*value),
                        json_str(unit)
                    ),
                )
            })
            .collect();
        json_obj(&[
            ("correct".to_string(), self.correct.to_string()),
            ("attempted".to_string(), self.attempted.to_string()),
            ("failed".to_string(), self.failed.to_string()),
            ("metrics".to_string(), json_obj(&metrics)),
        ])
    }
}

fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let out_dir = cwd.join("target").join("devbench");
    let work = out_dir.join(format!("work-{name}-{}", std::process::id()));
    remove_dir(&work);
    let spec = workloads::workload(name, args.seed).expect("name validated by parse_args");
    let shape = spec.shape();
    let result = if args.trace {
        traced(spec.as_ref(), &shape, args, &work)
    } else {
        untraced(spec.as_ref(), &shape, args, &work)
    };
    remove_dir(&work);
    let (outcome, lanes) = result?;

    for (metric, value, unit) in &outcome.metrics {
        println!("{name:<17} {metric:<36} {value:>14.6} {unit}");
    }
    let record = run_record(name, args, &shape, &lanes, &cwd);
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let file = out_dir.join(format!(
        "{name}{}.json",
        if args.trace { ".trace" } else { "" }
    ));
    let body = json_obj(&[
        ("record".to_string(), record),
        ("result".to_string(), outcome.json()),
    ]);
    std::fs::write(&file, body + "\n").map_err(|e| format!("{}: {e}", file.display()))?;
    println!("{}", outcome.json());
    Ok(outcome.correct)
}

/// Untraced run: `SETUPS` set-ups (median = `setup_s`), then the timed
/// ops on the last world, then the end-to-end metrics. Every time is
/// scaled to the reference host speed (see [`harness::reference_us`]).
fn untraced(
    spec: &dyn Workload,
    shape: &Shape,
    args: &Args,
    work: &Path,
) -> Result<(Outcome, Vec<Lane>), String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut world: Option<(Box<dyn workloads::World>, PathBuf)> = None;
    for slot in 0..SETUPS {
        // Tear the previous world down before building the next one.
        if let Some((w, dir)) = world.take() {
            drop(w);
            remove_dir(&dir);
        }
        let dir = work.join(format!("setup-{slot}"));
        let before = harness::reference_median_us(3);
        let start = Instant::now();
        let w = spec.setup(&dir)?;
        let took = start.elapsed().as_secs_f64();
        let speed = (before + harness::reference_median_us(3)) / 2.0;
        setup_s.push(took * harness::REFERENCE_US / speed);
        world = Some((w, dir));
    }
    let (mut w, _dir) = world.expect("SETUPS > 0");
    let budgets = vec![Budget::Time(Duration::from_secs_f64(args.seconds)); shape.threads];
    let lanes = w.run(&budgets);
    drop(w);

    let scaled: Vec<Sample> = lanes.iter().flat_map(Lane::scaled).collect();
    let latency = |kind: Kind, q: f64| {
        let ms: Vec<f64> = scaled
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.ms)
            .collect();
        harness::percentile(&ms, q)
    };
    let ops_per_s = lanes.iter().map(|l| l.ops as f64 / scaled_seconds(l)).sum();
    let metrics = vec![
        ("setup_s", harness::percentile(&setup_s, 0.5), "s"),
        ("ops_per_s", ops_per_s, "ops/s"),
        ("op_ms.p50", latency(Kind::Main, 0.5), "ms"),
        ("op_ms.p95", latency(Kind::Main, 0.95), "ms"),
        ("aux_ms.p50", latency(Kind::Aux, 0.5), "ms"),
        ("peak_rss_mb", harness::peak_rss_mib()?, "MiB"),
    ];
    Ok((outcome(shape, &lanes, metrics), lanes))
}

/// A lane's op time scaled to the reference host speed, in seconds.
fn scaled_seconds(lane: &Lane) -> f64 {
    lane.scaled().iter().map(|s| s.ms).sum::<f64>() / 1e3
}

/// Traced run: the ops untraced for half the time, then the same ops on a
/// fresh world with a span subscriber installed, then the per-layer
/// metrics of the traced half.
fn traced(
    spec: &dyn Workload,
    shape: &Shape,
    args: &Args,
    work: &Path,
) -> Result<(Outcome, Vec<Lane>), String> {
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let dir = work.join("untraced");
    let mut w = spec.setup(&dir)?;
    let plain = w.run(&vec![Budget::Time(half); shape.threads]);
    drop(w);
    remove_dir(&dir);

    let mut w = spec.setup(&work.join("traced"))?;
    let totals = Arc::new(SpanTotals::default());
    harness::start_tracing(totals.clone());
    let before = Registry::capture();
    let budgets: Vec<Budget> = plain.iter().map(|l| Budget::Ops(l.ops)).collect();
    let traced = w.run(&budgets);
    let reg = Registry::capture().since(&before);
    harness::stop_tracing();
    let probes = w.probes();
    drop(w);

    let lane = merged(&traced);
    let total = |lanes: &[Lane]| lanes.iter().map(scaled_seconds).sum::<f64>();
    let overhead = total(&traced) / total(&plain) - 1.0;
    let metrics = layers::metrics(&layers::TracedRun {
        lane: &lane,
        spans: &totals,
        reg: &reg,
        probes: &probes,
        udf_side: shape.udf_side,
        overhead,
    });
    let mut lanes = plain;
    lanes.extend(traced);
    Ok((outcome(shape, &lanes, metrics), lanes))
}

fn merged(lanes: &[Lane]) -> Lane {
    let mut all = Lane::default();
    for l in lanes {
        all.merge(l);
    }
    all
}

fn outcome(
    shape: &Shape,
    lanes: &[Lane],
    metrics: Vec<(&'static str, f64, &'static str)>,
) -> Outcome {
    let lane = merged(lanes);
    let mut failed = lane.failed;
    if shape.controls && lane.controls == 0 {
        eprintln!("devbench: the negative control never fired");
        failed += 1;
    }
    Outcome {
        correct: failed == 0,
        attempted: lane.ops.max(1),
        failed,
        metrics,
    }
}

/// Everything needed to interpret a result: host, build, inputs, shape.
fn run_record(name: &str, args: &Args, shape: &Shape, lanes: &[Lane], cwd: &Path) -> String {
    let lane = merged(lanes);
    let speed: Vec<f64> = lanes
        .iter()
        .flat_map(|l| l.speed.iter().map(|s| s.1))
        .collect();
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pool = std::env::var("DEVUDF_POOL_THREADS").unwrap_or_default();
    let ops: Vec<(String, String)> = lane
        .kinds
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    json_obj(&[
        ("workload".to_string(), json_str(name)),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), json_num(args.seconds)),
        ("trace".to_string(), args.trace.to_string()),
        ("available_parallelism".to_string(), parallelism.to_string()),
        ("devudf_pool_threads".to_string(), json_str(&pool)),
        (
            "profile".to_string(),
            json_str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("commit".to_string(), json_str(&git_commit(cwd))),
        ("rows".to_string(), shape.rows.to_string()),
        ("threads".to_string(), shape.threads.to_string()),
        ("connections".to_string(), shape.connections.to_string()),
        ("transfer".to_string(), json_str(shape.transfer)),
        ("storage".to_string(), json_str(shape.storage)),
        ("ops".to_string(), json_obj(&ops)),
        (
            "op_samples".to_string(),
            lane.latencies(Kind::Main).len().to_string(),
        ),
        (
            "aux_samples".to_string(),
            lane.latencies(Kind::Aux).len().to_string(),
        ),
        ("negative_controls".to_string(), lane.controls.to_string()),
        (
            "unscaled_op_ms_p50".to_string(),
            json_num(harness::percentile(&lane.latencies(Kind::Main), 0.5)),
        ),
        (
            "reference_us_median".to_string(),
            json_num(harness::percentile(&speed, 0.5)),
        ),
    ])
}

/// The commit checked out in `dir`, read from `.git` without running git
/// (which could look outside the directory), or `unknown`.
fn git_commit(dir: &Path) -> String {
    let git = dir.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn remove_dir(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// Every workload, each in a child process of its own (so each one's
/// peak RSS is its own), printing as it goes; true if all succeeded.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for name in workloads::NAMES {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("{name}: {e}"))?;
        ok &= status.success();
    }
    Ok(ok)
}
