//! Machinery shared by the four workloads: seeded inputs, the oracle's
//! arithmetic, the closed-loop op recorder and its host-speed scaling,
//! bench-side spans, registry snapshots and the small JSON writer for
//! results.
//!
//! Nothing here calls into `crates/bench`: the inputs are generated by this
//! file alone, so a later change to the repository's own bench helpers
//! cannot change what this benchmark measures.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pylite::{pickle, Array, Value};

// ---------------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------------

/// SplitMix64: a tiny, fast PRNG whose whole state is one `u64`, so the
/// same seed always yields the same inputs and op mix.
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one `purpose` under one `seed`.
    pub fn stream(seed: u64, purpose: u64) -> Rng {
        let mut rng = Rng(seed ^ purpose.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Upper bound (exclusive) of every generated reading.
pub const READING_MAX: u64 = 504;

/// `rows` sensor-style readings: a slowly drifting level held for runs of
/// 64 rows plus a little noise. Real columns are locally correlated like
/// this, which is what makes the compress option and block reuse pay off.
pub fn readings(rng: &mut Rng, rows: usize) -> Vec<i64> {
    let phase = rng.below(500);
    (0..rows as u64)
        .map(|idx| ((idx / 64 + phase) % 500 + rng.below(4)) as i64)
        .collect()
}

/// One fresh reading for an inserted or updated row.
pub fn reading(rng: &mut Rng) -> i64 {
    rng.below(READING_MAX) as i64
}

/// Every workload's data table: a row id and one reading per row.
pub const CREATE_NUMBERS: &str = "CREATE TABLE numbers (id INTEGER, i INTEGER)";

/// `(id, i), …` for consecutive ids starting at `first_id`.
pub fn values_clause(first_id: i64, values: &[i64]) -> String {
    let rows: Vec<String> = values
        .iter()
        .enumerate()
        .map(|(k, v)| format!("({}, {v})", first_id + k as i64))
        .collect();
    rows.join(", ")
}

/// INSERT statements loading `values` into `numbers` with ids `0..`,
/// chunked so no statement gets unwieldy.
pub fn load_statements(values: &[i64]) -> Vec<String> {
    values
        .chunks(2000)
        .enumerate()
        .map(|(c, chunk)| {
            format!(
                "INSERT INTO numbers VALUES {}",
                values_clause((c * 2000) as i64, chunk)
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The UDF under development and the oracle's arithmetic
// ---------------------------------------------------------------------------

/// The UDF every workload develops (paper Listing 4).
pub const UDF: &str = "mean_deviation";

/// Debug query invoking [`UDF`] on the whole table.
pub const DEBUG_QUERY: &str = "SELECT mean_deviation(i) FROM numbers";

/// The buggy body of paper Listing 4: signed distances cancel to ~0.
pub const BUGGY_BODY: &str = "\
mean = 0
for i in range(0, len(column)):
    mean += column[i]
mean = mean / len(column)
distance = 0
for i in range(0, len(column)):
    distance += column[i] - mean
deviation = distance / len(column)
return deviation
";

/// The buggy line and its Scenario A fix.
pub const BUGGY_LINE: &str = "distance += column[i] - mean";
pub const FIXED_LINE: &str = "distance += abs(column[i] - mean)";

/// The fixed loop body (interpreted: it has loops, so it cannot inline).
pub fn fixed_body() -> String {
    BUGGY_BODY.replace(BUGGY_LINE, FIXED_LINE)
}

/// The same math on whole columns: straight-line, so the engine inlines it.
pub const VECTOR_BODY: &str = "\
mean = sum(column) / len(column)
return sum(abs(column - mean)) / len(column)
";

/// `CREATE OR REPLACE FUNCTION name(column INTEGER) … { body }`.
pub fn create_udf(name: &str, body: &str) -> String {
    format!(
        "CREATE OR REPLACE FUNCTION {name}(column INTEGER) RETURNS DOUBLE LANGUAGE PYTHON {{\n{body}}}"
    )
}

/// The mean deviation of `column` as the loop bodies compute it — integer
/// sum, float mean, then float accumulation in row order — so the fixed
/// body's result matches to the last bits. `fixed = false` gives the
/// buggy (signed) variant.
pub fn mean_deviation(column: &[i64], fixed: bool) -> f64 {
    let n = column.len() as f64;
    let mean = column.iter().sum::<i64>() as f64 / n;
    let mut distance = 0.0;
    for &x in column {
        let d = x as f64 - mean;
        distance += if fixed { d.abs() } else { d };
    }
    distance / n
}

/// Whether two UDF results agree (relative 1e-9, absolute near zero).
pub fn agrees(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Length and sum of the `column` input stored in a project's
/// `input.bin` — what every extract check compares with the shadow.
pub fn input_column_stats(project: &Path) -> Result<(usize, i64), String> {
    let bytes = std::fs::read(project.join("input.bin")).map_err(|e| e.to_string())?;
    let value = pickle::loads(&bytes).map_err(|e| e.to_string())?;
    let Value::Dict(dict) = value else {
        return Err("input.bin does not hold a dict".to_string());
    };
    let column = dict
        .borrow()
        .get(&Value::str("column"))
        .map_err(|e| e.to_string())?
        .ok_or("input.bin has no 'column'")?;
    match column {
        Value::Array(a) => match &*a {
            Array::Int(v) => Ok((v.len(), v.iter().sum())),
            other => Err(format!("column is a {} array", other.dtype())),
        },
        other => Err(format!("column is a {}", other.type_name())),
    }
}

/// Indent a UDF body as the imported script's `def` block holds it.
pub fn indent(body: &str) -> String {
    body.lines()
        .map(|l| {
            if l.trim().is_empty() {
                "\n".to_string()
            } else {
                format!("    {l}\n")
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The closed-loop recorder
// ---------------------------------------------------------------------------

/// When a lane stops: after `Time` of measured op time (a run), or after
/// exactly `Ops` ops (the traced replay of an untraced run's op count).
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Time(Duration),
    Ops(u64),
}

impl Budget {
    pub fn more(&self, lane: &Lane) -> bool {
        match *self {
            Budget::Time(t) => lane.spent < t,
            Budget::Ops(n) => lane.ops < n,
        }
    }
}

/// Which latency series an op feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The workload's defining op (`op_ms`).
    Main,
    /// Its second op type (`aux_ms`).
    Aux,
    /// Counted in `ops_per_s` only.
    Other,
}

/// One timed op.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The lane's measured op time when the op ended, in seconds.
    pub at: f64,
    pub ms: f64,
    pub kind: Kind,
}

/// Everything one closed-loop client records. Checks run between ops, so
/// `spent` (the sum of op durations) excludes them.
#[derive(Debug, Default)]
pub struct Lane {
    pub samples: Vec<Sample>,
    pub ops: u64,
    pub spent: Duration,
    pub failed: u64,
    /// Negative controls that fired (a buggy result failed the fixed check).
    pub controls: u64,
    /// Op counts by name, for the run record.
    pub kinds: BTreeMap<&'static str, u64>,
    /// Workload-specific tallies the per-layer metrics read.
    pub tally: BTreeMap<&'static str, f64>,
    /// Reference-kernel times `(lane op time in s, µs)`, one per
    /// [`PROBE_EVERY`] of wall time (see [`reference_us`]).
    pub speed: Vec<(f64, f64)>,
    last_probe: Option<Instant>,
}

// ---------------------------------------------------------------------------
// Host speed
// ---------------------------------------------------------------------------

/// The reference kernel's time on the reference host, in microseconds.
/// Every reported time is scaled to a host that runs the kernel this fast.
pub const REFERENCE_US: f64 = 200.0;

/// How often (wall time) a lane times the reference kernel between ops.
const PROBE_EVERY: Duration = Duration::from_millis(20);

/// Kernel times, nearest an op in lane op time, whose median scales it.
const NEAREST: usize = 5;

/// Time a fixed CPU workload of the benchmark's own (sort, binary search,
/// an ordered map, string formatting: about 0.2 ms), in microseconds.
///
/// A shared host runs the same code up to 1.7 times slower for tenths of
/// a second to seconds at a time, as other tenants come and go. This
/// kernel slows with it but never with the program, so latency times
/// [`REFERENCE_US`] over the kernel's time nearby is the op's cost with
/// the host's speed factored out. That removes most of the run-to-run
/// spread of a plain wall-clock reading, and the drift between runs
/// minutes apart.
pub fn reference_us() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut keys: Vec<u64> = (0..4096)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    keys.sort_unstable();
    let hits = (0..4096u64)
        .filter(|k| keys.binary_search(&k.wrapping_mul(x)).is_ok())
        .count();
    let map: BTreeMap<u64, usize> = keys.iter().take(1024).map(|k| (k % 997, hits)).collect();
    let text: String = map
        .iter()
        .take(64)
        .map(|(k, v)| format!("{k}:{v},"))
        .collect();
    std::hint::black_box(text);
    start.elapsed().as_secs_f64() * 1e6
}

/// Median of `n` reference-kernel times, in microseconds.
pub fn reference_median_us(n: usize) -> f64 {
    percentile(&(0..n).map(|_| reference_us()).collect::<Vec<_>>(), 0.5)
}

impl Lane {
    /// Time one op. Only `f` is inside the measurement.
    pub fn op<R>(&mut self, name: &'static str, kind: Kind, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let took = start.elapsed();
        self.spent += took;
        self.ops += 1;
        *self.kinds.entry(name).or_default() += 1;
        self.samples.push(Sample {
            at: self.spent.as_secs_f64(),
            ms: took.as_secs_f64() * 1e3,
            kind,
        });
        if self.last_probe.is_none_or(|t| t.elapsed() >= PROBE_EVERY) {
            self.speed.push((self.spent.as_secs_f64(), reference_us()));
            self.last_probe = Some(Instant::now());
        }
        out
    }

    /// Run an op that the latency series, the throughput and the time
    /// budget all leave out (a session restart, whose few long samples
    /// would swing them from run to run). It still counts as attempted;
    /// its wall time in ms is returned beside its result.
    pub fn aside<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let out = f();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.ops += 1;
        *self.kinds.entry(name).or_default() += 1;
        (out, ms)
    }

    /// The samples with each latency scaled to the reference host: times
    /// [`REFERENCE_US`] over the median of the [`NEAREST`] kernel times
    /// around the op (kernels run between ops, every [`PROBE_EVERY`]).
    pub fn scaled(&self) -> Vec<Sample> {
        self.samples
            .iter()
            .map(|s| {
                let at = self.speed.partition_point(|p| p.0 < s.at);
                let hi = (at.saturating_sub(NEAREST / 2) + NEAREST).min(self.speed.len());
                let near: Vec<f64> = self.speed[hi.saturating_sub(NEAREST)..hi]
                    .iter()
                    .map(|p| p.1)
                    .collect();
                let factor = if near.is_empty() {
                    1.0
                } else {
                    REFERENCE_US / percentile(&near, 0.5)
                };
                Sample {
                    ms: s.ms * factor,
                    ..*s
                }
            })
            .collect()
    }

    /// Latencies (ms) of the ops of one kind.
    pub fn latencies(&self, kind: Kind) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.ms)
            .collect()
    }

    /// Latency (ms) of the op timed last.
    pub fn last_ms(&self) -> f64 {
        self.samples.last().map_or(0.0, |s| s.ms)
    }

    /// Add `v` to the tally `key`.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.tally.entry(key).or_default() += v;
    }

    pub fn get(&self, key: &str) -> f64 {
        self.tally.get(key).copied().unwrap_or(0.0)
    }

    /// Count a failed op and say which one.
    pub fn fail(&mut self, what: &str, detail: impl Display) {
        self.failed += 1;
        eprintln!("devbench: op {} ({what}) failed: {detail}", self.ops);
    }

    /// Count a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: &str, detail: impl FnOnce() -> String) {
        if !ok {
            self.fail(what, detail());
        }
    }

    /// Check a UDF result against the oracle. A buggy body's result must
    /// match the buggy oracle *and* fail the fixed check (the negative
    /// control); a fixed body's result must match the fixed oracle.
    pub fn check_udf(&mut self, what: &str, got: f64, fixed: bool, oracle: &Oracle) {
        if fixed {
            self.check(agrees(got, oracle.fixed), what, || {
                format!("got {got}, oracle {}", oracle.fixed)
            });
        } else {
            self.check(agrees(got, oracle.buggy), what, || {
                format!("got {got}, buggy oracle {}", oracle.buggy)
            });
            if agrees(got, oracle.fixed) {
                self.fail(
                    what,
                    "negative control: the buggy result passed the fixed check",
                );
            } else {
                self.controls += 1;
            }
        }
    }

    pub fn merge(&mut self, other: &Lane) {
        self.samples.extend_from_slice(&other.samples);
        self.ops += other.ops;
        self.spent += other.spent;
        self.failed += other.failed;
        self.controls += other.controls;
        for (k, v) in &other.kinds {
            *self.kinds.entry(k).or_default() += v;
        }
        for (k, v) in &other.tally {
            *self.tally.entry(k).or_default() += v;
        }
    }
}

/// The two answers a `mean_deviation` run may legitimately give.
#[derive(Debug, Clone, Copy)]
pub struct Oracle {
    pub fixed: f64,
    pub buggy: f64,
}

impl Oracle {
    pub fn of(column: &[i64]) -> Oracle {
        Oracle {
            fixed: mean_deviation(column, true),
            buggy: mean_deviation(column, false),
        }
    }
}

/// The UDF result in a `SELECT mean_deviation(…)` reply.
pub fn scalar_result(result: &wireproto::message::WireResult) -> Result<f64, String> {
    match result {
        wireproto::message::WireResult::Table(t) => match t.rows.first().and_then(|r| r.first()) {
            Some(wireproto::WireValue::Double(d)) => Ok(*d),
            other => Err(format!("expected one DOUBLE, got {other:?}")),
        },
        other => Err(format!("expected a table, got {other:?}")),
    }
}

/// Rows a DML reply reports.
pub fn affected(result: &wireproto::message::WireResult) -> Result<u64, String> {
    match result {
        wireproto::message::WireResult::Affected { rows, .. } => Ok(*rows),
        other => Err(format!("expected an affected-rows reply, got {other:?}")),
    }
}

/// Linear-interpolated percentile (`q` in `[0, 1]`) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

// ---------------------------------------------------------------------------
// Bench-side spans, registry snapshots, quiet checks
// ---------------------------------------------------------------------------

static TRACING: AtomicBool = AtomicBool::new(false);

/// Run `f` inside a bench-side span named `name` while a traced phase
/// runs; untraced phases open nothing, so they pay nothing.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if TRACING.load(Ordering::Relaxed) {
        let _span = obs::trace::span(name);
        f()
    } else {
        f()
    }
}

/// Subscriber that keeps the total duration of every bench-side span
/// (`bench.*`) by name. Program spans also reach it — installing any
/// subscriber switches on the program's own hot-path spans, which is the
/// tracing overhead `obs.trace_overhead_frac` reports — but are not kept.
#[derive(Default)]
pub struct SpanTotals(Mutex<BTreeMap<&'static str, u64>>);

impl obs::trace::Subscriber for SpanTotals {
    fn on_event(&self, event: &obs::trace::Event) {
        if let obs::trace::Event::Span { name, duration, .. } = event {
            if name.starts_with("bench.") {
                let ns = u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX);
                *self
                    .0
                    .lock()
                    .expect("span totals lock")
                    .entry(name)
                    .or_default() += ns;
            }
        }
    }
}

impl SpanTotals {
    pub fn ns(&self, name: &str) -> f64 {
        self.0
            .lock()
            .expect("span totals lock")
            .get(name)
            .copied()
            .unwrap_or(0) as f64
    }
}

/// Start recording bench spans into `totals`.
pub fn start_tracing(totals: std::sync::Arc<SpanTotals>) {
    obs::trace::add_subscriber(totals);
    TRACING.store(true, Ordering::Relaxed);
}

pub fn stop_tracing() {
    TRACING.store(false, Ordering::Relaxed);
    obs::trace::clear_subscribers();
}

/// Run a check's own calls into the program with telemetry off, so the
/// registry deltas and spans of a phase hold only the ops' work.
/// Only single-client workloads call this: the switch is process-wide.
pub fn quiet<R>(f: impl FnOnce() -> R) -> R {
    let was = obs::enabled();
    obs::set_enabled(false);
    let out = f();
    obs::set_enabled(was);
    out
}

/// Counter values and histogram (count, sum) pairs of the `obs` registry.
#[derive(Debug, Clone, Default)]
pub struct Registry(BTreeMap<String, (f64, f64)>);

impl Registry {
    pub fn capture() -> Registry {
        Registry(
            obs::metrics::rows()
                .into_iter()
                .filter(|r| r.kind != "gauge")
                .map(|r| (r.name, (r.value as f64, r.sum as f64)))
                .collect(),
        )
    }

    /// `self − before`, name by name.
    pub fn since(&self, before: &Registry) -> Registry {
        Registry(
            self.0
                .iter()
                .map(|(k, (v, s))| {
                    let (v0, s0) = before.0.get(k).copied().unwrap_or_default();
                    (k.clone(), (v - v0, s - s0))
                })
                .collect(),
        )
    }

    /// Counter value, or histogram observation count.
    pub fn count(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |e| e.0)
    }

    /// Histogram sum (nanoseconds for the latency histograms).
    pub fn sum(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |e| e.1)
    }

    /// Sum over every histogram whose name starts with `prefix`.
    pub fn sum_prefix(&self, prefix: &str) -> f64 {
        self.fold_prefix(prefix, |e| e.1)
    }

    pub fn count_prefix(&self, prefix: &str) -> f64 {
        self.fold_prefix(prefix, |e| e.0)
    }

    // A fold from +0.0: `Iterator::sum` of no floats is -0.0.
    fn fold_prefix(&self, prefix: &str, pick: impl Fn(&(f64, f64)) -> f64) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .fold(0.0, |acc, (_, e)| acc + pick(e))
    }
}

/// Median wall time of `reps` calls of `f`, in nanoseconds (the P probes).
pub fn probe_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    percentile(&samples, 0.5)
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number in full precision (Rust prints the shortest string
/// that round-trips); non-finite values cannot occur in a valid result.
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value must be finite, got {v}");
    format!("{v}")
}

/// `{"k": v, …}` from already-encoded values.
pub fn json_obj(pairs: &[(String, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}
