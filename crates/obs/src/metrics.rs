//! The process-wide metrics registry: counters, gauges and histograms.
//!
//! All handles are cheap clones of `Arc`-shared atomics; registration
//! (the only locking path) happens once per name, after which updates are
//! lock-free relaxed atomics. Entries are never removed, so handles
//! cached in `static`s by the [`counter!`](crate::counter) family of
//! macros never dangle.
//!
//! Histograms use 64 fixed log2 buckets (bucket *i* holds values whose
//! highest set bit is *i*), which makes recording one `fetch_add` and
//! keeps quantile estimates within a factor of two — plenty for latency
//! telemetry that feeds dashboards, not billing.

#[cfg(feature = "telemetry")]
use std::collections::HashMap;
#[cfg(feature = "telemetry")]
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
#[cfg(feature = "telemetry")]
use std::sync::{Arc, RwLock};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// A monotonically increasing counter.
#[derive(Clone)]
pub struct Counter {
    #[cfg(feature = "telemetry")]
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[cfg(feature = "telemetry")]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increment by `n` (no-op build).
    #[cfg(not(feature = "telemetry"))]
    pub fn add(&self, _n: u64) {}

    /// Current value.
    #[cfg(feature = "telemetry")]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Current value (no-op build: always zero).
    #[cfg(not(feature = "telemetry"))]
    pub fn get(&self) -> u64 {
        0
    }
}

/// A gauge: a signed value that can move both ways (e.g. open sessions,
/// current UDF nesting depth).
#[derive(Clone)]
pub struct Gauge {
    #[cfg(feature = "telemetry")]
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// Set the gauge to `v`.
    #[cfg(feature = "telemetry")]
    pub fn set(&self, v: i64) {
        if crate::enabled() {
            self.cell.store(v, Ordering::Relaxed);
        }
    }

    /// Set the gauge to `v` (no-op build).
    #[cfg(not(feature = "telemetry"))]
    pub fn set(&self, _v: i64) {}

    /// Add `delta` (may be negative).
    #[cfg(feature = "telemetry")]
    pub fn add(&self, delta: i64) {
        if crate::enabled() {
            self.cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Add `delta` (no-op build).
    #[cfg(not(feature = "telemetry"))]
    pub fn add(&self, _delta: i64) {}

    /// Current value.
    #[cfg(feature = "telemetry")]
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Current value (no-op build: always zero).
    #[cfg(not(feature = "telemetry"))]
    pub fn get(&self) -> i64 {
        0
    }
}

/// Number of log2 buckets; covers the full `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 64;

#[cfg(feature = "telemetry")]
struct HistogramCells {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

#[cfg(feature = "telemetry")]
impl HistogramCells {
    fn new() -> HistogramCells {
        HistogramCells {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [(); HISTOGRAM_BUCKETS].map(|_| AtomicU64::new(0)),
        }
    }
}

/// A fixed-bucket latency histogram (values in nanoseconds by convention).
#[derive(Clone)]
pub struct Histogram {
    #[cfg(feature = "telemetry")]
    cells: Arc<HistogramCells>,
}

/// Bucket index for a value: position of its highest set bit (0 for 0).
#[cfg(feature = "telemetry")]
fn bucket_of(v: u64) -> usize {
    (63 - v.max(1).leading_zeros()) as usize
}

impl Histogram {
    /// Record one observation.
    #[cfg(feature = "telemetry")]
    pub fn record(&self, v: u64) {
        if crate::enabled() {
            self.cells.count.fetch_add(1, Ordering::Relaxed);
            self.cells.sum.fetch_add(v, Ordering::Relaxed);
            self.cells.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record one observation (no-op build).
    #[cfg(not(feature = "telemetry"))]
    pub fn record(&self, _v: u64) {}

    /// Record a duration in nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded observations.
    #[cfg(feature = "telemetry")]
    pub fn count(&self) -> u64 {
        self.cells.count.load(Ordering::Relaxed)
    }

    /// Number of recorded observations (no-op build: zero).
    #[cfg(not(feature = "telemetry"))]
    pub fn count(&self) -> u64 {
        0
    }

    /// Sum of all recorded observations.
    #[cfg(feature = "telemetry")]
    pub fn sum(&self) -> u64 {
        self.cells.sum.load(Ordering::Relaxed)
    }

    /// Sum of all recorded observations (no-op build: zero).
    #[cfg(not(feature = "telemetry"))]
    pub fn sum(&self) -> u64 {
        0
    }

    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Estimated quantile (`q` in `[0, 1]`): the upper bound of the log2
    /// bucket at which the cumulative count reaches `q * total`. Accurate
    /// to within a factor of two by construction.
    #[cfg(feature = "telemetry")]
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.cells.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return if i >= 63 { u64::MAX } else { (2u64 << i) - 1 };
            }
        }
        u64::MAX
    }

    /// Estimated quantile (no-op build: zero).
    #[cfg(not(feature = "telemetry"))]
    pub fn quantile(&self, _q: f64) -> u64 {
        0
    }
}

/// One metric as registered.
#[cfg(feature = "telemetry")]
#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A flattened, point-in-time view of one metric — the row shape of the
/// `sys.metrics` virtual table.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRow {
    /// Dotted metric name, e.g. `wire.client.retries`.
    pub name: String,
    /// `"counter"`, `"gauge"` or `"histogram"`.
    pub kind: &'static str,
    /// Counter/gauge value; for histograms, the observation count.
    pub value: i64,
    /// Sum of observations (histograms only; zero otherwise).
    pub sum: u64,
    /// Mean observation (histograms only; zero otherwise).
    pub mean: f64,
    /// Estimated median (histograms only; zero otherwise).
    pub p50: u64,
    /// Estimated p90 (histograms only; zero otherwise).
    pub p90: u64,
    /// Estimated p99 (histograms only; zero otherwise).
    pub p99: u64,
}

/// The process-wide registry. Usually accessed through [`registry`] and
/// the `counter!`/`gauge!`/`histogram!` macros; constructible separately
/// for tests that want isolation.
#[derive(Default)]
pub struct MetricsRegistry {
    #[cfg(feature = "telemetry")]
    metrics: RwLock<HashMap<String, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    #[cfg(feature = "telemetry")]
    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        if let Some(m) = self.metrics.read().expect("metrics lock").get(name) {
            return m.clone();
        }
        let mut map = self.metrics.write().expect("metrics lock");
        map.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// Get or create the counter `name`. Panics if `name` is already
    /// registered as a different kind.
    #[cfg(feature = "telemetry")]
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || {
            Metric::Counter(Counter {
                cell: Arc::new(AtomicU64::new(0)),
            })
        }) {
            Metric::Counter(c) => c,
            _ => panic!("metric '{name}' is not a counter"),
        }
    }

    /// Get or create the counter `name` (no-op build).
    #[cfg(not(feature = "telemetry"))]
    pub fn counter(&self, _name: &str) -> Counter {
        Counter {}
    }

    /// Get or create the gauge `name`. Panics if `name` is already
    /// registered as a different kind.
    #[cfg(feature = "telemetry")]
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_insert(name, || {
            Metric::Gauge(Gauge {
                cell: Arc::new(AtomicI64::new(0)),
            })
        }) {
            Metric::Gauge(g) => g,
            _ => panic!("metric '{name}' is not a gauge"),
        }
    }

    /// Get or create the gauge `name` (no-op build).
    #[cfg(not(feature = "telemetry"))]
    pub fn gauge(&self, _name: &str) -> Gauge {
        Gauge {}
    }

    /// Get or create the histogram `name`. Panics if `name` is already
    /// registered as a different kind.
    #[cfg(feature = "telemetry")]
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.get_or_insert(name, || {
            Metric::Histogram(Histogram {
                cells: Arc::new(HistogramCells::new()),
            })
        }) {
            Metric::Histogram(h) => h,
            _ => panic!("metric '{name}' is not a histogram"),
        }
    }

    /// Get or create the histogram `name` (no-op build).
    #[cfg(not(feature = "telemetry"))]
    pub fn histogram(&self, _name: &str) -> Histogram {
        Histogram {}
    }

    /// Flattened rows for every registered metric, sorted by name — the
    /// backing data of monetlite's `sys.metrics` table.
    #[cfg(feature = "telemetry")]
    pub fn rows(&self) -> Vec<MetricRow> {
        let map = self.metrics.read().expect("metrics lock");
        let mut rows: Vec<MetricRow> = map
            .iter()
            .map(|(name, m)| match m {
                Metric::Counter(c) => MetricRow {
                    name: name.clone(),
                    kind: "counter",
                    value: i64::try_from(c.get()).unwrap_or(i64::MAX),
                    sum: 0,
                    mean: 0.0,
                    p50: 0,
                    p90: 0,
                    p99: 0,
                },
                Metric::Gauge(g) => MetricRow {
                    name: name.clone(),
                    kind: "gauge",
                    value: g.get(),
                    sum: 0,
                    mean: 0.0,
                    p50: 0,
                    p90: 0,
                    p99: 0,
                },
                Metric::Histogram(h) => MetricRow {
                    name: name.clone(),
                    kind: "histogram",
                    value: i64::try_from(h.count()).unwrap_or(i64::MAX),
                    sum: h.sum(),
                    mean: h.mean(),
                    p50: h.quantile(0.50),
                    p90: h.quantile(0.90),
                    p99: h.quantile(0.99),
                },
            })
            .collect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        rows
    }

    /// Flattened rows (no-op build: empty).
    #[cfg(not(feature = "telemetry"))]
    pub fn rows(&self) -> Vec<MetricRow> {
        Vec::new()
    }
}

/// The process-wide registry the macros record into.
pub fn registry() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(MetricsRegistry::new)
}

/// Flattened rows of the global registry (see [`MetricsRegistry::rows`]).
pub fn rows() -> Vec<MetricRow> {
    registry().rows()
}

/// Serialize cross-test access to the global registry. Tests that assert
/// *exact* counter values hold this for their whole body so a concurrently
/// running test in the same binary cannot bleed increments into the
/// window between their before and after reads.
pub fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let _serial = test_lock();
        let reg = MetricsRegistry::new();
        let c = reg.counter("t.counter");
        c.inc();
        c.add(4);
        let g = reg.gauge("t.gauge");
        g.set(10);
        g.add(-3);
        if cfg!(feature = "telemetry") {
            assert_eq!(c.get(), 5);
            assert_eq!(g.get(), 7);
            // Handles for the same name share the cell.
            assert_eq!(reg.counter("t.counter").get(), 5);
        } else {
            assert_eq!(c.get(), 0);
            assert_eq!(g.get(), 0);
        }
    }

    #[test]
    fn histogram_stats() {
        let _serial = test_lock();
        let reg = MetricsRegistry::new();
        let h = reg.histogram("t.hist");
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        if cfg!(feature = "telemetry") {
            assert_eq!(h.count(), 5);
            assert_eq!(h.sum(), 1106);
            assert!((h.mean() - 221.2).abs() < 1e-9);
            // p99 lands in the bucket containing 1000: [512, 1024).
            assert_eq!(h.quantile(0.99), 1023);
            assert_eq!(h.quantile(0.0), 1);
        } else {
            assert_eq!(h.count(), 0);
        }
    }

    #[test]
    fn rows_carry_percentile_columns() {
        let _serial = test_lock();
        let reg = MetricsRegistry::new();
        let h = reg.histogram("q.lat");
        // 9 fast observations and one slow outlier: p50/p90 sit in the
        // [4, 8) bucket, p99 in the outlier's [1024, 2048) bucket.
        for _ in 0..9 {
            h.record(5);
        }
        h.record(2000);
        reg.counter("q.count").inc();
        let rows = reg.rows();
        if cfg!(feature = "telemetry") {
            let lat = rows.iter().find(|r| r.name == "q.lat").unwrap();
            assert_eq!(lat.p50, 7);
            assert_eq!(lat.p90, 7);
            assert_eq!(lat.p99, 2047);
            let count = rows.iter().find(|r| r.name == "q.count").unwrap();
            assert_eq!((count.p50, count.p90, count.p99), (0, 0, 0));
        } else {
            assert!(rows.is_empty());
        }
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(u64::MAX), 63);
    }

    #[test]
    fn rows_list_every_metric_by_name() {
        let _serial = test_lock();
        let reg = MetricsRegistry::new();
        reg.counter("a.count").add(7);
        reg.histogram("b.lat").record(500);
        let rows = reg.rows();
        if cfg!(feature = "telemetry") {
            assert_eq!(rows.len(), 2);
            assert_eq!(rows[0].name, "a.count");
            assert_eq!(rows[0].value, 7);
            assert_eq!(rows[1].kind, "histogram");
        } else {
            assert!(rows.is_empty());
        }
    }

    #[cfg(feature = "telemetry")]
    #[test]
    #[should_panic(expected = "is not a counter")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.gauge("mix.up");
        reg.counter("mix.up");
    }

    #[test]
    fn runtime_disable_drops_updates() {
        let _serial = test_lock();
        let reg = MetricsRegistry::new();
        let c = reg.counter("d.count");
        crate::set_enabled(false);
        c.inc();
        crate::set_enabled(true);
        assert_eq!(c.get(), 0);
        c.inc();
        if cfg!(feature = "telemetry") {
            assert_eq!(c.get(), 1);
        }
    }

    #[test]
    fn macros_cache_handles() {
        let _serial = test_lock();
        crate::counter!("m.macro.count").inc();
        crate::gauge!("m.macro.gauge").set(2);
        crate::histogram!("m.macro.hist").record(9);
        if cfg!(feature = "telemetry") {
            assert!(registry().counter("m.macro.count").get() >= 1);
        }
    }
}
