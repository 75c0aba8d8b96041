//! Structured tracing: RAII span guards, log events and subscribers.
//!
//! A [`span`] guard carries a process-unique id, its parent's id (spans
//! nest per thread), a static name, wall-clock duration and free-form
//! key/value fields; dropping the guard closes the span and fans an
//! [`Event::Span`] out to every installed [`Subscriber`]. [`warn`] emits
//! point-in-time [`Event::Log`]s the same way.
//!
//! When **no** subscriber is installed, log events fall back to one JSONL
//! line on stderr — so CLI warnings stay visible by default — while span
//! closes are dropped (they are high-volume and only interesting when
//! someone is listening). Tests install a [`RingBufferRecorder`] to
//! capture everything.

use std::fmt::Write as _;
#[cfg(feature = "telemetry")]
use std::io::Write as _;
use std::sync::Mutex;
#[cfg(feature = "telemetry")]
use std::sync::{
    atomic::{AtomicU64, AtomicUsize, Ordering},
    RwLock,
};
use std::time::Duration;
#[cfg(feature = "telemetry")]
use std::time::Instant;

/// Severity of a log event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Informational.
    Info,
    /// Something went wrong but the process carries on.
    Warn,
}

impl Level {
    fn as_str(self) -> &'static str {
        match self {
            Level::Info => "info",
            Level::Warn => "warn",
        }
    }
}

/// A closed span or an emitted log line, as delivered to subscribers.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A span guard was dropped.
    Span {
        /// Process-unique span id (never zero).
        id: u64,
        /// Id of the enclosing span on the same thread, if any.
        parent: Option<u64>,
        /// Static span name, e.g. `core.import`.
        name: &'static str,
        /// Nesting depth at open time (root span = 0).
        depth: usize,
        /// Wall-clock time between open and drop.
        duration: Duration,
        /// Key/value fields attached via [`SpanGuard::field`].
        fields: Vec<(String, String)>,
    },
    /// A point-in-time log line.
    Log {
        /// Severity.
        level: Level,
        /// Human-readable message.
        message: String,
        /// Structured context.
        fields: Vec<(String, String)>,
    },
}

impl Event {
    /// Render the event as one compact JSON line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        match self {
            Event::Span {
                id,
                parent,
                name,
                depth,
                duration,
                fields,
            } => {
                let _ = write!(
                    s,
                    "{{\"type\":\"span\",\"name\":{},\"id\":{id},\"parent\":{},\"depth\":{depth},\"duration_ns\":{}",
                    json_str(name),
                    parent.map_or("null".to_string(), |p| p.to_string()),
                    duration.as_nanos()
                );
                write_fields(&mut s, fields);
                s.push('}');
            }
            Event::Log {
                level,
                message,
                fields,
            } => {
                let _ = write!(
                    s,
                    "{{\"type\":\"log\",\"level\":\"{}\",\"message\":{}",
                    level.as_str(),
                    json_str(message)
                );
                write_fields(&mut s, fields);
                s.push('}');
            }
        }
        s
    }
}

/// JSON-escape a string (delegates to the codec via a `Value`).
fn json_str(s: &str) -> String {
    codecs::json::Value::Str(s.to_string()).to_string_compact()
}

fn write_fields(out: &mut String, fields: &[(String, String)]) {
    if fields.is_empty() {
        return;
    }
    out.push_str(",\"fields\":{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", json_str(k), json_str(v));
    }
    out.push('}');
}

/// Receives every closed span and log event. Implementations must be
/// cheap and non-blocking-ish: they run inline at the instrumentation
/// point.
pub trait Subscriber: Send + Sync {
    /// Deliver one event.
    fn on_event(&self, event: &Event);
}

#[cfg(feature = "telemetry")]
static SUBSCRIBERS: RwLock<Vec<std::sync::Arc<dyn Subscriber>>> = RwLock::new(Vec::new());

/// Cached `SUBSCRIBERS.len()`, so hot paths ([`span_active`]) can ask
/// "is anyone listening?" with one relaxed load instead of a lock.
#[cfg(feature = "telemetry")]
static SUBSCRIBER_COUNT: AtomicUsize = AtomicUsize::new(0);

/// Install a subscriber; events fan out to all installed subscribers in
/// installation order.
#[cfg(feature = "telemetry")]
pub fn add_subscriber(sub: std::sync::Arc<dyn Subscriber>) {
    let mut subs = SUBSCRIBERS.write().unwrap_or_else(|e| e.into_inner());
    subs.push(sub);
    SUBSCRIBER_COUNT.store(subs.len(), Ordering::Relaxed);
}

/// Install a subscriber (no-op build: dropped).
#[cfg(not(feature = "telemetry"))]
pub fn add_subscriber(_sub: std::sync::Arc<dyn Subscriber>) {}

/// Remove every installed subscriber (used by tests to restore the
/// stderr-fallback default).
pub fn clear_subscribers() {
    #[cfg(feature = "telemetry")]
    {
        let mut subs = SUBSCRIBERS.write().unwrap_or_else(|e| e.into_inner());
        subs.clear();
        SUBSCRIBER_COUNT.store(0, Ordering::Relaxed);
    }
}

/// Dispatch an event: to all subscribers, or — for log events only — as a
/// JSONL line on stderr when none is installed.
#[cfg(feature = "telemetry")]
fn dispatch(event: Event) {
    let subs = SUBSCRIBERS.read().unwrap_or_else(|e| e.into_inner());
    if subs.is_empty() {
        if let Event::Log { .. } = event {
            let mut err = std::io::stderr().lock();
            let _ = writeln!(err, "{}", event.to_jsonl());
        }
        return;
    }
    for sub in subs.iter() {
        sub.on_event(&event);
    }
}

/// Emit a log event at `level`.
#[cfg(feature = "telemetry")]
pub fn log(level: Level, message: &str, fields: &[(&str, &str)]) {
    if !crate::enabled() {
        return;
    }
    dispatch(Event::Log {
        level,
        message: message.to_string(),
        fields: fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    });
}

/// Emit a log event (no-op build).
#[cfg(not(feature = "telemetry"))]
pub fn log(_level: Level, _message: &str, _fields: &[(&str, &str)]) {}

/// Emit a warning (see [`log`]); the [`warn!`](crate::warn) macro is the
/// ergonomic front end.
pub fn warn(message: &str, fields: &[(&str, &str)]) {
    log(Level::Warn, message, fields);
}

#[cfg(feature = "telemetry")]
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

#[cfg(feature = "telemetry")]
std::thread_local! {
    /// Stack of open span ids on this thread (innermost last).
    static SPAN_STACK: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// An open span; closing (dropping) it reports the duration to all
/// subscribers. Create via [`span`].
pub struct SpanGuard {
    #[cfg(feature = "telemetry")]
    inner: Option<SpanInner>,
}

#[cfg(feature = "telemetry")]
struct SpanInner {
    id: u64,
    parent: Option<u64>,
    /// The trace this span joined at open time (0 = none).
    trace: u64,
    name: &'static str,
    depth: usize,
    start: Instant,
    fields: Vec<(String, String)>,
}

impl SpanGuard {
    /// Attach a key/value field, reported when the span closes.
    #[cfg(feature = "telemetry")]
    pub fn field(&mut self, key: &str, value: impl ToString) {
        if let Some(inner) = self.inner.as_mut() {
            inner.fields.push((key.to_string(), value.to_string()));
        }
    }

    /// Attach a key/value field (no-op build).
    #[cfg(not(feature = "telemetry"))]
    pub fn field(&mut self, _key: &str, _value: impl ToString) {}

    /// This span's id (0 in a no-op build or when disabled at runtime).
    #[cfg(feature = "telemetry")]
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.id)
    }

    /// This span's id (no-op build: zero).
    #[cfg(not(feature = "telemetry"))]
    pub fn id(&self) -> u64 {
        0
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        #[cfg(feature = "telemetry")]
        if let Some(inner) = self.inner.take() {
            SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                if stack.last() == Some(&inner.id) {
                    stack.pop();
                } else {
                    // Out-of-order drop (guard moved across an early
                    // return); remove wherever it sits.
                    stack.retain(|id| *id != inner.id);
                }
            });
            let duration = inner.start.elapsed();
            if inner.trace != 0 && CAPTURE_COUNT.load(Ordering::Relaxed) > 0 {
                capture_span(&inner, duration);
            }
            dispatch(Event::Span {
                id: inner.id,
                parent: inner.parent,
                name: inner.name,
                depth: inner.depth,
                duration,
                fields: inner.fields,
            });
        }
    }
}

/// Open a span. The guard closes it on drop; nesting is tracked per
/// thread, so a span opened while another is live records it as parent.
#[cfg(feature = "telemetry")]
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { inner: None };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, depth) = SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let parent = stack.last().copied();
        let depth = stack.len();
        stack.push(id);
        (parent, depth)
    });
    SpanGuard {
        inner: Some(SpanInner {
            id,
            parent,
            trace: CURRENT_TRACE.with(|t| t.get()),
            name,
            depth,
            start: Instant::now(),
            fields: Vec::new(),
        }),
    }
}

/// Open a span (no-op build: an inert guard).
#[cfg(not(feature = "telemetry"))]
pub fn span(_name: &'static str) -> SpanGuard {
    SpanGuard {}
}

/// Open a span only when someone is listening — a per-trace capture or a
/// subscriber is installed. Hot paths (per-operator, per-command, per-UDF
/// call) use this so the profiling-off cost stays at one relaxed load.
pub fn span_active(name: &'static str) -> SpanGuard {
    if trace_active() {
        span(name)
    } else {
        inert_span()
    }
}

#[cfg(feature = "telemetry")]
fn inert_span() -> SpanGuard {
    SpanGuard { inner: None }
}

#[cfg(not(feature = "telemetry"))]
fn inert_span() -> SpanGuard {
    SpanGuard {}
}

/// Whether any span sink is currently live: telemetry enabled and at
/// least one per-trace capture or subscriber installed. One relaxed load
/// per check; [`span_active`] is the ergonomic front end.
#[cfg(feature = "telemetry")]
pub fn trace_active() -> bool {
    crate::enabled()
        && (CAPTURE_COUNT.load(Ordering::Relaxed) > 0
            || SUBSCRIBER_COUNT.load(Ordering::Relaxed) > 0)
}

/// Whether any span sink is live (no-op build: never).
#[cfg(not(feature = "telemetry"))]
pub fn trace_active() -> bool {
    false
}

// ---------------------------------------------------------------------------
// Trace ids and cross-thread / cross-wire context propagation (DESIGN §15).
// ---------------------------------------------------------------------------

#[cfg(feature = "telemetry")]
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

#[cfg(feature = "telemetry")]
std::thread_local! {
    /// The trace id new spans on this thread join (0 = untraced).
    static CURRENT_TRACE: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Mint a process-unique trace id (never zero). Returns 0 when telemetry
/// is disabled at runtime — [`capture`] treats 0 as "do not trace".
#[cfg(feature = "telemetry")]
fn new_trace_id() -> u64 {
    if !crate::enabled() {
        return 0;
    }
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

/// A thread's ambient trace context: which trace new spans join and which
/// open span they parent under (`0` = none). `Copy` and `Send`, so it can
/// be captured at a submission site and re-entered inside a pool job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanContext {
    /// Trace id (0 = untraced).
    pub trace: u64,
    /// Innermost open span id at capture time (0 = none).
    pub parent: u64,
}

/// Capture the calling thread's current context.
#[cfg(feature = "telemetry")]
pub fn current_context() -> SpanContext {
    SpanContext {
        trace: CURRENT_TRACE.with(|t| t.get()),
        parent: SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0)),
    }
}

/// Capture the current context (no-op build: the empty context).
#[cfg(not(feature = "telemetry"))]
pub fn current_context() -> SpanContext {
    SpanContext::default()
}

/// Re-enter a captured context on this thread: until the returned guard
/// drops, new spans join `ctx.trace` and parent under `ctx.parent`. Used
/// by pool jobs (the thread-local parent stack does not cross threads)
/// and by [`capture`].
#[cfg(feature = "telemetry")]
pub fn enter_context(ctx: SpanContext) -> ContextGuard {
    let prev_trace = CURRENT_TRACE.with(|t| t.replace(ctx.trace));
    let pushed = if ctx.parent != 0 {
        SPAN_STACK.with(|s| s.borrow_mut().push(ctx.parent));
        Some(ctx.parent)
    } else {
        None
    };
    ContextGuard { prev_trace, pushed }
}

/// Re-enter a captured context (no-op build: an inert guard).
#[cfg(not(feature = "telemetry"))]
pub fn enter_context(_ctx: SpanContext) -> ContextGuard {
    ContextGuard {}
}

/// Restores the previous trace context on drop. Create via
/// [`enter_context`].
pub struct ContextGuard {
    #[cfg(feature = "telemetry")]
    prev_trace: u64,
    #[cfg(feature = "telemetry")]
    pushed: Option<u64>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        #[cfg(feature = "telemetry")]
        {
            if let Some(id) = self.pushed.take() {
                SPAN_STACK.with(|s| {
                    let mut stack = s.borrow_mut();
                    if stack.last() == Some(&id) {
                        stack.pop();
                    } else {
                        stack.retain(|x| *x != id);
                    }
                });
            }
            CURRENT_TRACE.with(|t| t.set(self.prev_trace));
        }
    }
}

// ---------------------------------------------------------------------------
// Per-trace span capture: bounded buffers keyed by trace id, drained by
// the request that started them (`devudf trace`, the traced server path).
// ---------------------------------------------------------------------------

/// A closed span captured for one trace. Unlike [`Event::Span`] the name
/// is an owned `String`, so spans decoded off the wire fit too.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span id (process-unique on the side that minted it).
    pub id: u64,
    /// Parent span id (0 = root of its side).
    pub parent: u64,
    /// Span name.
    pub name: String,
    /// Wall-clock duration in nanoseconds.
    pub duration_ns: u64,
    /// Key/value fields attached while the span was open.
    pub fields: Vec<(String, String)>,
}

impl SpanRecord {
    /// The value of field `key`, if the span carries it.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Spans kept per capture before the rest are dropped — a runaway query
/// must not buffer unbounded telemetry.
pub const CAPTURE_CAP: usize = 8192;

#[cfg(feature = "telemetry")]
static CAPTURE_COUNT: AtomicUsize = AtomicUsize::new(0);

#[cfg(feature = "telemetry")]
static CAPTURES: Mutex<Vec<(u64, Vec<SpanRecord>)>> = Mutex::new(Vec::new());

/// Run `f` inside a fresh per-trace capture and return its result with
/// every span that closed in it, in close order (children before their
/// parents): spans opened on this thread, in pool jobs it submits, and
/// spans a peer recorded for it ([`extend_capture`]). The capture is empty
/// when telemetry is disabled at runtime or compiled out; `f` runs either
/// way.
#[cfg(feature = "telemetry")]
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<SpanRecord>) {
    let trace = new_trace_id();
    if trace == 0 {
        return (f(), Vec::new());
    }
    {
        let mut caps = CAPTURES.lock().unwrap_or_else(|e| e.into_inner());
        caps.push((trace, Vec::new()));
        CAPTURE_COUNT.store(caps.len(), Ordering::Relaxed);
    }
    let result = {
        let _ctx = enter_context(SpanContext { trace, parent: 0 });
        f()
    };
    let mut caps = CAPTURES.lock().unwrap_or_else(|e| e.into_inner());
    let i = caps
        .iter()
        .position(|(t, _)| *t == trace)
        .expect("a capture is removed only by the call that started it");
    let (_, records) = caps.remove(i);
    CAPTURE_COUNT.store(caps.len(), Ordering::Relaxed);
    (result, records)
}

/// Run `f` inside a capture (no-op build: nothing is captured).
#[cfg(not(feature = "telemetry"))]
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<SpanRecord>) {
    (f(), Vec::new())
}

/// Append spans recorded elsewhere (a server's half of a traced call) to
/// the capture this thread is inside, up to [`CAPTURE_CAP`]. Does nothing
/// outside a capture.
#[cfg(feature = "telemetry")]
pub fn extend_capture(spans: impl IntoIterator<Item = SpanRecord>) {
    let trace = CURRENT_TRACE.with(|t| t.get());
    let mut caps = CAPTURES.lock().unwrap_or_else(|e| e.into_inner());
    if let Some((_, records)) = caps.iter_mut().find(|(t, _)| *t == trace) {
        let room = CAPTURE_CAP.saturating_sub(records.len());
        records.extend(spans.into_iter().take(room));
    }
}

/// Append spans to the current capture (no-op build).
#[cfg(not(feature = "telemetry"))]
pub fn extend_capture(_spans: impl IntoIterator<Item = SpanRecord>) {}

#[cfg(feature = "telemetry")]
fn capture_span(inner: &SpanInner, duration: Duration) {
    let mut caps = CAPTURES.lock().unwrap_or_else(|e| e.into_inner());
    if let Some((_, records)) = caps.iter_mut().find(|(t, _)| *t == inner.trace) {
        if records.len() < CAPTURE_CAP {
            records.push(SpanRecord {
                id: inner.id,
                parent: inner.parent.unwrap_or(0),
                name: inner.name.to_string(),
                duration_ns: duration.as_nanos() as u64,
                fields: inner.fields.clone(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Tree assembly and rendering (pure data — works in no-op builds too, so
// the CLI can render spans a telemetry-enabled server sent over the wire).
// ---------------------------------------------------------------------------

/// One node of an assembled span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// The span itself.
    pub record: SpanRecord,
    /// Child spans, in the order they closed.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Total number of spans in this subtree (including self).
    pub fn len(&self) -> usize {
        1 + self.children.iter().map(SpanNode::len).sum::<usize>()
    }

    /// Always false — a node contains at least itself.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Assemble flat records into parent→child trees. A record whose parent
/// is absent from the set becomes a root; records forming a parent cycle
/// (possible only with hostile wire data) are unreachable from any root
/// and are dropped rather than looping.
pub fn assemble(records: &[SpanRecord]) -> Vec<SpanNode> {
    let ids: std::collections::HashSet<u64> = records.iter().map(|r| r.id).collect();
    fn build(records: &[SpanRecord], taken: &mut [bool], id: u64) -> Vec<SpanNode> {
        let mut nodes = Vec::new();
        for (i, r) in records.iter().enumerate() {
            if !taken[i] && r.parent == id {
                taken[i] = true;
                nodes.push(SpanNode {
                    record: r.clone(),
                    children: build(records, taken, r.id),
                });
            }
        }
        nodes
    }
    let mut taken = vec![false; records.len()];
    let mut roots = Vec::new();
    for (i, r) in records.iter().enumerate() {
        if !taken[i] && (r.parent == 0 || !ids.contains(&r.parent)) {
            taken[i] = true;
            roots.push(SpanNode {
                record: r.clone(),
                children: build(records, &mut taken, r.id),
            });
        }
    }
    roots
}

/// Humanize a nanosecond duration (ms / µs / ns, two decimals). Shared by
/// the span-tree renderer and the profiler's line annotations.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Render assembled trees as an indented text block (box-drawing
/// connectors, humanized durations, `k=v` fields) — the body of
/// `devudf trace` output.
pub fn render_tree(roots: &[SpanNode]) -> String {
    fn render(out: &mut String, node: &SpanNode, prefix: &str, connector: &str, child_pad: &str) {
        let _ = write!(
            out,
            "{prefix}{connector}{:<32} {:>10}",
            node.record.name,
            fmt_ns(node.record.duration_ns)
        );
        for (k, v) in &node.record.fields {
            let _ = write!(out, "  {k}={v}");
        }
        out.push('\n');
        let deeper = format!("{prefix}{child_pad}");
        for (i, child) in node.children.iter().enumerate() {
            let last = i + 1 == node.children.len();
            let (c, pad) = if last {
                ("└─ ", "   ")
            } else {
                ("├─ ", "│  ")
            };
            render(out, child, &deeper, c, pad);
        }
    }
    let mut out = String::new();
    for root in roots {
        render(&mut out, root, "", "", "");
    }
    out
}

/// A bounded in-memory recorder for tests: keeps the most recent
/// `capacity` events.
pub struct RingBufferRecorder {
    events: Mutex<std::collections::VecDeque<Event>>,
    capacity: usize,
}

impl RingBufferRecorder {
    /// A recorder holding at most `capacity` events.
    pub fn new(capacity: usize) -> RingBufferRecorder {
        RingBufferRecorder {
            events: Mutex::new(std::collections::VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// All currently buffered events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }
}

impl Subscriber for RingBufferRecorder {
    fn on_event(&self, event: &Event) {
        let mut buf = self.events.lock().unwrap_or_else(|e| e.into_inner());
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// The subscriber list is process-global, so tests that install one
    /// serialize on the metrics test lock and clear it on exit.
    fn with_recorder(f: impl FnOnce(&RingBufferRecorder)) {
        let _serial = crate::metrics::test_lock();
        clear_subscribers();
        let rec = Arc::new(RingBufferRecorder::new(64));
        add_subscriber(rec.clone());
        f(&rec);
        clear_subscribers();
    }

    #[test]
    fn spans_nest_and_report_parents() {
        with_recorder(|rec| {
            {
                let mut outer = span("outer");
                outer.field("udf", "mean_deviation");
                let inner = span("inner");
                if cfg!(feature = "telemetry") {
                    assert_ne!(inner.id(), outer.id());
                }
                drop(inner);
                drop(outer);
            }
            let events = rec.events();
            if cfg!(feature = "telemetry") {
                // Inner closes first.
                match &events[0] {
                    Event::Span {
                        name,
                        parent,
                        depth,
                        ..
                    } => {
                        assert_eq!(*name, "inner");
                        assert!(parent.is_some());
                        assert_eq!(*depth, 1);
                    }
                    other => panic!("{other:?}"),
                }
                match &events[1] {
                    Event::Span {
                        name,
                        parent,
                        depth,
                        fields,
                        ..
                    } => {
                        assert_eq!(*name, "outer");
                        assert_eq!(*parent, None);
                        assert_eq!(*depth, 0);
                        assert_eq!(fields[0], ("udf".to_string(), "mean_deviation".to_string()));
                    }
                    other => panic!("{other:?}"),
                }
            } else {
                assert!(events.is_empty());
            }
        });
    }

    #[test]
    fn warn_reaches_recorder_with_fields() {
        with_recorder(|rec| {
            crate::warn!("disk full", "path" => "/tmp/x", "free" => 0);
            let events = rec.events();
            if cfg!(feature = "telemetry") {
                match &events[0] {
                    Event::Log {
                        level,
                        message,
                        fields,
                    } => {
                        assert_eq!(*level, Level::Warn);
                        assert_eq!(message, "disk full");
                        assert_eq!(fields.len(), 2);
                        assert_eq!(fields[1], ("free".to_string(), "0".to_string()));
                    }
                    other => panic!("{other:?}"),
                }
            } else {
                assert!(events.is_empty());
            }
        });
    }

    #[test]
    fn jsonl_rendering_is_parseable() {
        let event = Event::Log {
            level: Level::Warn,
            message: "odd \"quote\"".to_string(),
            fields: vec![("k".to_string(), "v1".to_string())],
        };
        let line = event.to_jsonl();
        let parsed = codecs::json::parse(&line).unwrap();
        assert_eq!(
            parsed.get("message").and_then(|v| v.as_str()),
            Some("odd \"quote\"")
        );
        assert_eq!(
            parsed
                .get("fields")
                .and_then(|f| f.get("k"))
                .and_then(|v| v.as_str()),
            Some("v1")
        );

        let event = Event::Span {
            id: 7,
            parent: Some(3),
            name: "core.import",
            depth: 1,
            duration: Duration::from_nanos(1500),
            fields: Vec::new(),
        };
        let parsed = codecs::json::parse(&event.to_jsonl()).unwrap();
        assert_eq!(
            parsed.get("duration_ns").and_then(|v| v.as_i64()),
            Some(1500)
        );
        assert_eq!(parsed.get("parent").and_then(|v| v.as_i64()), Some(3));
    }

    #[test]
    fn ring_buffer_caps_at_capacity() {
        let rec = RingBufferRecorder::new(2);
        for i in 0..5 {
            rec.on_event(&Event::Log {
                level: Level::Info,
                message: format!("m{i}"),
                fields: Vec::new(),
            });
        }
        let events = rec.events();
        assert_eq!(events.len(), 2);
        match &events[0] {
            Event::Log { message, .. } => assert_eq!(message, "m3"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn disabled_runtime_emits_nothing() {
        with_recorder(|rec| {
            crate::set_enabled(false);
            let s = span("quiet");
            drop(s);
            warn("quiet", &[]);
            crate::set_enabled(true);
            assert!(rec.events().is_empty());
            assert_eq!(current_context(), SpanContext::default());
        });
    }

    #[test]
    fn captures_are_empty_when_disabled() {
        let _serial = crate::metrics::test_lock();
        crate::set_enabled(false);
        let (value, records) = capture(|| {
            drop(span("quiet"));
            7
        });
        crate::set_enabled(true);
        assert_eq!(value, 7);
        assert!(records.is_empty());
        assert_eq!(current_context(), SpanContext::default());
    }

    #[test]
    fn context_reenters_parent_across_threads() {
        with_recorder(|rec| {
            let outer = span("ctx.outer");
            let outer_id = outer.id();
            let ctx = current_context();
            if cfg!(feature = "telemetry") {
                assert_eq!(ctx.parent, outer_id);
            }
            std::thread::spawn(move || {
                let _guard = enter_context(ctx);
                let _child = span("ctx.child");
            })
            .join()
            .unwrap();
            drop(outer);
            if cfg!(feature = "telemetry") {
                let child = rec.events().into_iter().find_map(|e| match e {
                    Event::Span {
                        name: "ctx.child",
                        parent,
                        ..
                    } => Some(parent),
                    _ => None,
                });
                assert_eq!(child, Some(Some(outer_id)));
            } else {
                assert!(rec.events().is_empty());
            }
        });
    }

    #[test]
    fn capture_collects_only_its_trace() {
        let _serial = crate::metrics::test_lock();
        crate::set_enabled(true);
        clear_subscribers();
        let ((), records) = capture(|| {
            let mut s = span("cap.inner");
            s.field("rows", 6);
            drop(s);
            // A nested capture keeps its spans to itself.
            let ((), nested) = capture(|| drop(span("cap.nested")));
            if cfg!(feature = "telemetry") {
                assert_eq!(nested.len(), 1);
            }
            extend_capture([rec(99, 0, "cap.remote")]);
        });
        // A span outside the capture does not join it.
        drop(span("cap.unrelated"));
        extend_capture([rec(98, 0, "cap.orphan")]);
        if cfg!(feature = "telemetry") {
            let names: Vec<&str> = records.iter().map(|r| r.name.as_str()).collect();
            assert_eq!(names, ["cap.inner", "cap.remote"]);
            assert_eq!(records[0].parent, 0);
            assert_eq!(records[0].fields, vec![("rows".into(), "6".into())]);
            assert!(!trace_active(), "the capture ended");
        } else {
            assert!(records.is_empty());
        }
    }

    #[test]
    fn span_active_is_inert_without_listeners() {
        let _serial = crate::metrics::test_lock();
        crate::set_enabled(true);
        clear_subscribers();
        assert!(!trace_active());
        let s = span_active("quiet.op");
        assert_eq!(s.id(), 0);
        drop(s);
        if cfg!(feature = "telemetry") {
            let rec = Arc::new(RingBufferRecorder::new(8));
            add_subscriber(rec.clone());
            assert!(trace_active());
            drop(span_active("loud.op"));
            clear_subscribers();
            assert!(rec
                .events()
                .iter()
                .any(|e| matches!(e, Event::Span { name, .. } if *name == "loud.op")));
        }
    }

    fn rec(id: u64, parent: u64, name: &str) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_string(),
            duration_ns: 1_500_000,
            fields: Vec::new(),
        }
    }

    #[test]
    fn assemble_builds_trees_and_orphans_become_roots() {
        // Close order: children first, like a real capture.
        let records = vec![
            rec(3, 2, "grandchild"),
            rec(2, 1, "child"),
            rec(1, 0, "root"),
            rec(9, 42, "orphan"), // parent 42 never captured
        ];
        let roots = assemble(&records);
        assert_eq!(roots.len(), 2);
        let root = roots.iter().find(|n| n.record.name == "root").unwrap();
        assert_eq!(root.len(), 3);
        assert_eq!(root.children[0].record.name, "child");
        assert_eq!(root.children[0].children[0].record.name, "grandchild");
        assert!(roots.iter().any(|n| n.record.name == "orphan"));
    }

    #[test]
    fn assemble_drops_hostile_parent_cycles() {
        let records = vec![rec(1, 2, "a"), rec(2, 1, "b"), rec(3, 0, "ok")];
        let roots = assemble(&records);
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].record.name, "ok");
    }

    #[test]
    fn render_tree_shows_names_durations_and_fields() {
        let mut child = rec(2, 1, "wire.send");
        child.duration_ns = 950;
        child.fields.push(("bytes".into(), "123".into()));
        let records = vec![child, rec(1, 0, "client.query")];
        let text = render_tree(&assemble(&records));
        assert!(text.contains("client.query"), "{text}");
        assert!(text.contains("1.50 ms"), "{text}");
        assert!(text.contains("└─ wire.send"), "{text}");
        assert!(text.contains("950 ns"), "{text}");
        assert!(text.contains("bytes=123"), "{text}");
    }
}
