//! A criterion-style micro-benchmark runner.
//!
//! The API deliberately mirrors the shape of the criterion code it
//! replaced so the bench files read the same way: a [`Harness`] hands out
//! [`Group`]s, groups run named benchmarks through a [`Bencher`] whose
//! [`Bencher::iter`] closure is the measured body, and [`black_box`]
//! defeats constant folding.
//!
//! ```no_run
//! use devharness::bench::{black_box, Harness, Throughput};
//!
//! let mut h = Harness::new("example");
//! let mut group = h.benchmark_group("sums");
//! group.throughput(Throughput::Elements(1000));
//! group.bench_function("iter_sum", |b| {
//!     b.iter(|| (0..1000u64).map(black_box).sum::<u64>())
//! });
//! group.finish();
//! h.finish(); // prints a table, writes BENCH_example.json
//! ```
//!
//! # Measurement model
//!
//! Each benchmark gets a wall-clock budget (default 300 ms, overridable
//! via `DEVHARNESS_BENCH_BUDGET_MS`). A calibration phase doubles the
//! batch size until one batch is long enough to time reliably, which also
//! serves as warmup; the remaining budget is split into up to
//! `sample_size` timed batches (default 20, `DEVHARNESS_BENCH_SAMPLES`
//! overrides, [`Group::sample_size`] sets it per group). Reported
//! statistics are per-iteration nanoseconds: min, mean, median and p95
//! across samples — median/p95 rather than criterion's curve fit, which
//! is plenty for regression tracking.
//!
//! # Artifacts
//!
//! [`Harness::finish`] writes `BENCH_<suite>.json` (schema documented in
//! EXPERIMENTS.md) into the workspace root — located via
//! `CARGO_MANIFEST_DIR`'s grandparent, since cargo runs bench binaries
//! from `crates/bench` — or into `DEVHARNESS_BENCH_OUT` if set.

use std::hint;
use std::time::{Duration, Instant};

use codecs::json::Value;

/// Opaque value barrier, re-exported so bench files need only one import.
pub fn black_box<T>(v: T) -> T {
    hint::black_box(v)
}

/// How much work one iteration of a benchmark represents; turns
/// per-iteration time into a rate in the report.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Logical items processed per iteration.
    Elements(u64),
}

/// A benchmark name with a parameter suffix, e.g. `compress/4096`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    full: String,
}

impl BenchmarkId {
    /// `name/parameter`.
    pub fn new(name: impl std::fmt::Display, parameter: impl std::fmt::Display) -> BenchmarkId {
        BenchmarkId {
            full: format!("{name}/{parameter}"),
        }
    }
}

/// One finished measurement.
#[derive(Debug, Clone)]
struct Record {
    group: String,
    name: String,
    samples: usize,
    batch: u64,
    min_ns: f64,
    mean_ns: f64,
    median_ns: f64,
    p95_ns: f64,
    throughput: Option<Throughput>,
}

impl Record {
    fn rate(&self) -> Option<(f64, &'static str)> {
        self.throughput.map(|t| match t {
            Throughput::Bytes(n) => (n as f64 / self.median_ns * 1e9, "B/s"),
            Throughput::Elements(n) => (n as f64 / self.median_ns * 1e9, "elem/s"),
        })
    }
}

/// A suite of benchmark groups; prints a table and writes
/// `BENCH_<suite>.json` on [`Harness::finish`].
pub struct Harness {
    suite: String,
    records: Vec<Record>,
    default_samples: usize,
    budget: Duration,
}

impl Harness {
    /// Create a suite. `suite` names the output artifact
    /// (`BENCH_<suite>.json`).
    pub fn new(suite: impl Into<String>) -> Harness {
        let default_samples = std::env::var("DEVHARNESS_BENCH_SAMPLES")
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|&n: &usize| n >= 2)
            .unwrap_or(20);
        let budget_ms = std::env::var("DEVHARNESS_BENCH_BUDGET_MS")
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|&ms: &u64| ms > 0)
            .unwrap_or(300);
        Harness {
            suite: suite.into(),
            records: Vec::new(),
            default_samples,
            budget: Duration::from_millis(budget_ms),
        }
    }

    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> Group<'_> {
        Group {
            harness: self,
            name: name.into(),
            sample_size: None,
            throughput: None,
        }
    }

    /// Print the results table and write the JSON artifact. Returns the
    /// path written.
    pub fn finish(self) -> std::path::PathBuf {
        let mut width = "benchmark".len();
        for r in &self.records {
            width = width.max(r.group.len() + 1 + r.name.len());
        }
        println!(
            "\nsuite {} — {} benchmarks (budget {:?}/bench)",
            self.suite,
            self.records.len(),
            self.budget
        );
        println!(
            "{:<width$}  {:>12}  {:>12}  {:>12}  {:>14}",
            "benchmark", "median", "p95", "min", "throughput"
        );
        for r in &self.records {
            let rate = match r.rate() {
                Some((v, unit)) => format!("{} {unit}", human_rate(v)),
                None => "-".to_string(),
            };
            println!(
                "{:<width$}  {:>12}  {:>12}  {:>12}  {:>14}",
                format!("{}/{}", r.group, r.name),
                human_ns(r.median_ns),
                human_ns(r.p95_ns),
                human_ns(r.min_ns),
                rate,
            );
        }

        let benchmarks: Vec<Value> = self
            .records
            .iter()
            .map(|r| {
                let mut pairs = vec![
                    ("group".to_string(), Value::from(r.group.as_str())),
                    ("name".to_string(), Value::from(r.name.as_str())),
                    ("samples".to_string(), Value::from(r.samples)),
                    ("iters_per_sample".to_string(), Value::from(r.batch)),
                    (
                        "ns_per_iter".to_string(),
                        Value::Object(vec![
                            ("min".to_string(), Value::Float(r.min_ns)),
                            ("mean".to_string(), Value::Float(r.mean_ns)),
                            ("median".to_string(), Value::Float(r.median_ns)),
                            ("p95".to_string(), Value::Float(r.p95_ns)),
                        ]),
                    ),
                ];
                if let Some(t) = r.throughput {
                    let (unit, per_iter) = match t {
                        Throughput::Bytes(n) => ("bytes", n),
                        Throughput::Elements(n) => ("elements", n),
                    };
                    let (per_sec, _) = r.rate().unwrap();
                    pairs.push((
                        "throughput".to_string(),
                        Value::Object(vec![
                            ("unit".to_string(), Value::from(unit)),
                            ("per_iter".to_string(), Value::from(per_iter)),
                            ("per_sec".to_string(), Value::Float(per_sec)),
                        ]),
                    ));
                }
                Value::Object(pairs)
            })
            .collect();
        let doc = Value::Object(vec![
            ("suite".to_string(), Value::from(self.suite.as_str())),
            ("schema".to_string(), Value::Int(2)),
            ("host".to_string(), host()),
            ("benchmarks".to_string(), Value::Array(benchmarks)),
        ]);

        let path = out_dir().join(format!("BENCH_{}.json", self.suite));
        if let Err(e) = std::fs::write(&path, doc.to_string_pretty()) {
            obs::warn!(
                "could not write benchmark results",
                "path" => path.display(),
                "error" => e,
            );
        } else {
            println!("\nwrote {}", path.display());
        }
        path
    }

    fn record(&mut self, rec: Record) {
        println!(
            "  {}/{:<40} median {:>10}  p95 {:>10}",
            rec.group,
            rec.name,
            human_ns(rec.median_ns),
            human_ns(rec.p95_ns)
        );
        self.records.push(rec);
    }
}

/// What the numbers of an artifact were measured on: the host's
/// `available_parallelism`, the build profile, and `base_commit`, the
/// commit the measured tree sat on. The tree may hold changes beyond that
/// commit: HEAD is read as is, and a dirty tree is not detected.
fn host() -> Value {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Value::Object(vec![
        (
            "available_parallelism".to_string(),
            Value::from(parallelism),
        ),
        ("profile".to_string(), Value::from(profile)),
        (
            "base_commit".to_string(),
            Value::from(git_commit(&workspace_root()).as_str()),
        ),
    ])
}

/// The commit checked out in `dir`, read from `.git` without running git,
/// or `unknown`.
fn git_commit(dir: &std::path::Path) -> String {
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

/// The workspace root (the nearest ancestor of the running package's
/// manifest dir holding `Cargo.toml` and `crates/`), else the current
/// directory.
fn workspace_root() -> std::path::PathBuf {
    if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = std::path::Path::new(&manifest);
        if let Some(root) = p
            .ancestors()
            .find(|a| a.join("Cargo.toml").exists() && a.join("crates").is_dir())
        {
            return root.to_path_buf();
        }
    }
    ".".into()
}

/// Where `BENCH_*.json` lands: `DEVHARNESS_BENCH_OUT` if set, else the
/// workspace root.
fn out_dir() -> std::path::PathBuf {
    match std::env::var("DEVHARNESS_BENCH_OUT") {
        Ok(dir) => dir.into(),
        Err(_) => workspace_root(),
    }
}

/// A named group of benchmarks sharing sample-size and throughput
/// settings.
pub struct Group<'a> {
    harness: &'a mut Harness,
    name: String,
    sample_size: Option<usize>,
    throughput: Option<Throughput>,
}

impl Group<'_> {
    /// Number of timed samples per benchmark in this group (min 2;
    /// `DEVHARNESS_BENCH_SAMPLES` overrides globally).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(2));
        self
    }

    /// Work per iteration for subsequent benchmarks in this group.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Run a benchmark under a plain name.
    pub fn bench_function(&mut self, name: impl Into<String>, f: impl FnMut(&mut Bencher)) {
        self.run(name.into(), f);
    }

    /// Run a benchmark with an explicit input value (mirrors criterion's
    /// signature; the input is passed straight through to the closure).
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) {
        self.run(id.full, |b| f(b, input));
    }

    /// No-op kept for call-site symmetry with criterion.
    pub fn finish(self) {}

    fn run(&mut self, name: String, mut f: impl FnMut(&mut Bencher)) {
        let samples = if std::env::var("DEVHARNESS_BENCH_SAMPLES").is_ok() {
            self.harness.default_samples
        } else {
            self.sample_size.unwrap_or(self.harness.default_samples)
        };
        let mut bencher = Bencher {
            budget: self.harness.budget,
            target_samples: samples,
            samples_ns: Vec::new(),
            batch: 0,
        };
        f(&mut bencher);
        assert!(
            !bencher.samples_ns.is_empty(),
            "benchmark '{name}' never called Bencher::iter"
        );
        let mut sorted = bencher.samples_ns.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let n = sorted.len();
        let min_ns = sorted[0];
        let mean_ns = sorted.iter().sum::<f64>() / n as f64;
        let median_ns = if n.is_multiple_of(2) {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        } else {
            sorted[n / 2]
        };
        let p95_ns = sorted[(((n - 1) as f64) * 0.95).round() as usize];
        self.harness.record(Record {
            group: self.name.clone(),
            name,
            samples: n,
            batch: bencher.batch,
            min_ns,
            mean_ns,
            median_ns,
            p95_ns,
            throughput: self.throughput,
        });
    }
}

/// Drives the measured closure; obtained inside
/// [`Group::bench_function`] / [`Group::bench_with_input`].
pub struct Bencher {
    budget: Duration,
    target_samples: usize,
    samples_ns: Vec<f64>,
    batch: u64,
}

impl Bencher {
    /// Measure `f`. Runs a calibration/warmup phase, then up to the
    /// configured number of timed batches within the time budget (always
    /// at least 2). The closure's return value is passed through
    /// [`black_box`] so results aren't optimized away.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        let started = Instant::now();
        // Calibration doubling: find a batch size whose duration is long
        // enough to time reliably (>= 200 µs), warming caches on the way.
        let mut batch: u64 = 1;
        let mut batch_time;
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            batch_time = t.elapsed();
            if batch_time >= Duration::from_micros(200)
                || started.elapsed() > self.budget / 4
                || batch >= 1 << 24
            {
                break;
            }
            batch = batch.saturating_mul(2);
        }
        // Size the batch so the planned samples roughly fill the rest of
        // the budget (capped so slow bodies don't explode the runtime).
        let per_iter_ns = (batch_time.as_nanos() as f64 / batch as f64).max(0.1);
        let remaining = self.budget.saturating_sub(started.elapsed());
        let per_sample_ns = remaining.as_nanos() as f64 / self.target_samples as f64;
        batch = ((per_sample_ns / per_iter_ns) as u64).clamp(1, 1 << 24);
        self.batch = batch;

        for i in 0..self.target_samples {
            // Honour the budget once the 2-sample floor is met.
            if i >= 2 && started.elapsed() > self.budget {
                break;
            }
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let elapsed = t.elapsed();
            self.samples_ns
                .push(elapsed.as_nanos() as f64 / batch as f64);
        }
    }
}

fn human_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

fn human_rate(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2} G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2} M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2} k", v / 1e3)
    } else {
        format!("{v:.1} ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_env() -> (String, String) {
        // Tests must be fast: shrink the budget via explicit Harness
        // fields rather than env (env is process-global).
        ("".into(), "".into())
    }

    #[test]
    fn records_statistics_and_writes_json() {
        let _ = tiny_env();
        let dir = std::env::temp_dir().join("devharness_bench_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut h = Harness::new("selftest");
        h.budget = Duration::from_millis(20);
        {
            let mut g = h.benchmark_group("math");
            g.sample_size(5);
            g.throughput(Throughput::Elements(100));
            g.bench_function("sum", |b| {
                b.iter(|| (0..100u64).map(black_box).sum::<u64>())
            });
            g.bench_with_input(BenchmarkId::new("sum_n", 50), &50u64, |b, &n| {
                b.iter(|| (0..n).sum::<u64>())
            });
            g.finish();
        }
        assert_eq!(h.records.len(), 2);
        let r = &h.records[0];
        assert_eq!(r.group, "math");
        assert_eq!(r.name, "sum");
        assert!(r.samples >= 2);
        assert!(r.min_ns > 0.0);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.p95_ns);
        assert_eq!(h.records[1].name, "sum_n/50");

        std::env::set_var("DEVHARNESS_BENCH_OUT", &dir);
        let path = h.finish();
        std::env::remove_var("DEVHARNESS_BENCH_OUT");
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = codecs::json::parse(&text).unwrap();
        assert_eq!(doc.get("suite").and_then(Value::as_str), Some("selftest"));
        assert_eq!(doc.get("schema").and_then(Value::as_i64), Some(2));
        let host = doc.get("host").unwrap();
        assert!(host.get("available_parallelism").and_then(Value::as_i64) >= Some(1));
        assert_eq!(
            host.get("profile").and_then(Value::as_str),
            Some(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            })
        );
        assert!(host.get("base_commit").and_then(Value::as_str).is_some());
        let benches = doc.get("benchmarks").unwrap().as_array().unwrap();
        assert_eq!(benches.len(), 2);
        let stats = benches[0].get("ns_per_iter").unwrap();
        assert!(stats.get("median").unwrap().as_f64().unwrap() > 0.0);
        let tp = benches[0].get("throughput").unwrap();
        assert_eq!(tp.get("unit").and_then(Value::as_str), Some("elements"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("lz", 4096).full, "lz/4096");
    }

    #[test]
    fn human_units() {
        assert_eq!(human_ns(12.3), "12.3 ns");
        assert_eq!(human_ns(12_300.0), "12.30 µs");
        assert_eq!(human_ns(12_300_000.0), "12.30 ms");
        assert_eq!(human_rate(2.5e9), "2.50 G");
    }
}
