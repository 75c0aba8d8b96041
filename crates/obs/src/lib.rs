//! Zero-dependency observability for the devUDF reproduction.
//!
//! The paper's pitch is making UDF development *inspectable*; this crate
//! makes the reproduction itself inspectable. It provides, with nothing
//! beyond `std` and the in-repo [`codecs::json`] codec (DESIGN §4a):
//!
//! * a process-wide [`metrics::MetricsRegistry`] of atomic counters,
//!   gauges and fixed-bucket latency histograms, with cheap per-call-site
//!   handles via the [`counter!`], [`gauge!`] and [`histogram!`] macros;
//! * structured tracing — RAII [`trace::SpanGuard`]s carrying ids,
//!   parents, wall-clock duration and key/value fields, fanned out to
//!   pluggable [`trace::Subscriber`]s (a ring buffer for tests), with log
//!   events falling back to JSONL on stderr when none is installed;
//! * [`metrics::rows`], the one registry view: monetlite materializes it
//!   as the `sys.metrics` virtual table, which `devudf metrics` renders
//!   over the wire as a table or JSON.
//!
//! # Overhead budget
//!
//! Handles are `Arc`-shared atomics resolved once per call site (the
//! macros cache them in a `static OnceLock`), so the steady-state cost of
//! a counter bump is one relaxed load of the global enable flag plus one
//! relaxed `fetch_add` — a few nanoseconds against the ~3.5 µs in-process
//! ping it instruments (see `BENCH_obs.json`). The one off switch is
//! [`set_enabled`]`(false)`: it short-circuits every handle and span
//! behind one relaxed atomic load, letting a single binary measure
//! instrumented-vs-uninstrumented (the obs benchmark does exactly this).
//!
//! # Example
//!
//! ```
//! obs::counter!("demo.requests").inc();
//! let _span = obs::trace::span("demo.handle");
//! obs::histogram!("demo.latency_ns").record(1_250);
//! // One row per registered metric, sorted by name.
//! let rows = obs::metrics::rows();
//! assert_eq!(rows.iter().any(|r| r.name == "demo.requests"), obs::enabled());
//! ```

pub mod metrics;
pub mod profile;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Runtime kill-switch: with telemetry disabled every counter bump,
/// histogram record and span close becomes a single relaxed load.
/// Defaults to enabled.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether telemetry is currently recording (see [`set_enabled`]).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A counter handle for a metric name, resolved once per call site.
///
/// ```
/// obs::counter!("example.hits").inc();
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::metrics::Counter> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::metrics::registry().counter($name))
    }};
}

/// A gauge handle for a metric name, resolved once per call site.
///
/// ```
/// obs::gauge!("example.depth").set(3);
/// ```
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::metrics::Gauge> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::metrics::registry().gauge($name))
    }};
}

/// A histogram handle for a metric name, resolved once per call site.
///
/// ```
/// obs::histogram!("example.latency_ns").record(42);
/// ```
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::metrics::Histogram> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::metrics::registry().histogram($name))
    }};
}

/// Emit a structured warning event (see [`trace::warn`]): renders as one
/// JSONL line on stderr unless a subscriber (e.g. a test ring buffer) is
/// installed.
///
/// ```
/// obs::warn!("settings not saved", "path" => "/tmp/x", "error" => "denied");
/// ```
#[macro_export]
macro_rules! warn {
    ($msg:expr $(, $k:expr => $v:expr)* $(,)?) => {
        $crate::trace::warn($msg, &[$(($k, &$v.to_string())),*])
    };
}
