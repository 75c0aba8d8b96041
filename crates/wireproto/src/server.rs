//! The database server: a read/write-split scheduler over one logical engine.
//!
//! The engine itself is single-threaded by design (`Rc`/`RefCell`
//! internals), but the server no longer serializes every command through
//! it. Each decoded frame is classified ([`monetlite::classify`]):
//!
//! * **Writes** (DML, DDL, COPY, impure-UDF queries) go to a one-worker
//!   bounded [`Pool`] whose worker owns the live engine — the only thread
//!   that ever mutates it. After a mutating command it publishes a fresh
//!   [`EngineSnapshot`] *before* replying, so a session always sees its
//!   own writes on its next command.
//! * **Reads** (SELECT / EXPLAIN / catalog and `sys.*` lookups /
//!   extracts) run concurrently on a bounded [`Pool`] of reader
//!   workers. A read executes against the exact snapshot it was
//!   classified on (one consistent epoch — never a torn mix), hydrated
//!   into a worker-private engine that is cached per epoch.
//! * **Pings and logins** are answered inline on the session's own
//!   thread — they never queue, so a slow extract cannot starve them.
//!
//! Both queues are bounded: when one is full the server answers with a
//! typed `ServerBusy` error (the client maps it to the retryable
//! [`crate::WireError::Busy`]) instead of growing memory. Queue pressure
//! is observable via the `wire.server.queue_full` counter and the
//! `wire.server.queue_wait_ns` histogram; live sessions via the
//! `sys.sessions` virtual table, backed by the sharded session registry
//! here.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use devharness::pool::Pool;
use monetlite::snapshot::EngineSnapshot;
use monetlite::{
    classify_extract, classify_sql, CommandClass, DbError, Engine, SessionProvider, SessionRow,
    SessionSource,
};

use crate::message::{FunctionInfo, Message, WireError, WireResult};
use crate::transfer;
use crate::transport::{read_frame_with_mid_deadline, write_frame};

/// Server configuration: database name and the single user's credentials
/// (the paper's settings dialog collects exactly these, Figure 2), plus
/// the per-session frame deadline and scheduler bounds.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    pub database: String,
    pub user: String,
    pub password: String,
    /// Once a TCP session has sent a frame's length prefix, the rest of
    /// the frame must arrive within this window or the session is
    /// dropped — a stalled peer can hold a connection, never a thread
    /// forever. Waiting *between* frames is unbounded (idle is legal).
    pub frame_deadline: Duration,
    /// Reader worker threads (0 = auto:
    /// [`devharness::pool::default_threads`]).
    pub read_workers: usize,
    /// Read commands that may wait for a reader before `ServerBusy`.
    pub read_queue: usize,
    /// Write commands that may wait for the writer before `ServerBusy`.
    pub write_queue: usize,
}

/// Default mid-frame deadline for TCP sessions.
pub const DEFAULT_FRAME_DEADLINE: Duration = Duration::from_secs(10);

/// Default bound for each command queue.
pub const DEFAULT_QUEUE_CAPACITY: usize = 128;

impl ServerConfig {
    pub fn new(database: &str, user: &str, password: &str) -> Self {
        ServerConfig {
            database: database.to_string(),
            user: user.to_string(),
            password: password.to_string(),
            frame_deadline: DEFAULT_FRAME_DEADLINE,
            read_workers: 0,
            read_queue: DEFAULT_QUEUE_CAPACITY,
            write_queue: DEFAULT_QUEUE_CAPACITY,
        }
    }

    /// Override the mid-frame deadline (tests use short ones).
    pub fn with_frame_deadline(mut self, deadline: Duration) -> Self {
        self.frame_deadline = deadline;
        self
    }

    /// Override the reader worker count (0 = auto).
    pub fn with_read_workers(mut self, workers: usize) -> Self {
        self.read_workers = workers;
        self
    }

    /// Override both queue bounds (saturation tests use tiny ones).
    pub fn with_queue_capacity(mut self, read: usize, write: usize) -> Self {
        self.read_queue = read.max(1);
        self.write_queue = write.max(1);
        self
    }
}

// ---------------- session registry ----------------

/// Session states surfaced in `sys.sessions`.
const STATE_IDLE: u8 = 0;
const STATE_QUEUED: u8 = 1;
const STATE_RUNNING: u8 = 2;

fn state_name(state: u8) -> &'static str {
    match state {
        STATE_QUEUED => "queued",
        STATE_RUNNING => "running",
        _ => "idle",
    }
}

/// One live session's shared, lock-free mutable state.
pub(crate) struct SessionEntry {
    id: u64,
    peer: String,
    authed: AtomicBool,
    state: AtomicU8,
    /// Commands completed (all routes: inline, read, write).
    commands: AtomicU64,
    /// Cumulative nanoseconds this session's commands waited in a queue.
    queue_wait_ns: AtomicU64,
}

impl SessionEntry {
    fn record_dequeue(&self, enqueued: Instant) {
        let waited = enqueued.elapsed();
        let ns = u64::try_from(waited.as_nanos()).unwrap_or(u64::MAX);
        self.queue_wait_ns.fetch_add(ns, Ordering::Relaxed);
        self.state.store(STATE_RUNNING, Ordering::Relaxed);
        obs::histogram!("wire.server.queue_wait_ns").record(ns);
    }

    fn finish_command(&self) {
        self.commands.fetch_add(1, Ordering::Relaxed);
        self.state.store(STATE_IDLE, Ordering::Relaxed);
    }
}

/// Sessions sharded over independently locked maps, so registration and
/// lookup from many connection threads never funnel through one lock.
const SESSION_SHARDS: usize = 8;

pub(crate) struct SessionRegistry {
    shards: [Mutex<HashMap<u64, Arc<SessionEntry>>>; SESSION_SHARDS],
}

impl SessionRegistry {
    fn new() -> SessionRegistry {
        SessionRegistry {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }

    fn shard(&self, id: u64) -> &Mutex<HashMap<u64, Arc<SessionEntry>>> {
        &self.shards[(id as usize) % SESSION_SHARDS]
    }

    fn register(&self, id: u64, peer: String) -> Arc<SessionEntry> {
        let entry = Arc::new(SessionEntry {
            id,
            peer,
            authed: AtomicBool::new(false),
            state: AtomicU8::new(STATE_IDLE),
            commands: AtomicU64::new(0),
            queue_wait_ns: AtomicU64::new(0),
        });
        self.shard(id)
            .lock()
            .expect("session shard poisoned")
            .insert(id, entry.clone());
        obs::counter!("wire.server.sessions").inc();
        entry
    }

    fn remove(&self, id: u64) {
        self.shard(id)
            .lock()
            .expect("session shard poisoned")
            .remove(&id);
    }

    fn get(&self, id: u64) -> Option<Arc<SessionEntry>> {
        self.shard(id)
            .lock()
            .expect("session shard poisoned")
            .get(&id)
            .cloned()
    }

    fn live_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("session shard poisoned").len())
            .sum()
    }
}

impl SessionProvider for SessionRegistry {
    fn sessions(&self) -> Vec<SessionRow> {
        let mut rows = Vec::new();
        for shard in &self.shards {
            for entry in shard.lock().expect("session shard poisoned").values() {
                rows.push(SessionRow {
                    id: entry.id,
                    peer: entry.peer.clone(),
                    state: state_name(entry.state.load(Ordering::Relaxed)).to_string(),
                    commands: entry.commands.load(Ordering::Relaxed),
                    queue_wait_ns: entry.queue_wait_ns.load(Ordering::Relaxed),
                });
            }
        }
        rows
    }
}

// ---------------- the scheduler core ----------------

/// Where a frame executes.
enum Route {
    /// Answered on the calling thread, never queued (pings, logins,
    /// protocol errors).
    Inline(Message),
    /// Concurrent execution against the snapshot it was classified on.
    Read,
    /// Serialized on the writer's one worker.
    Write,
}

/// Shared state of a running server: everything a connection (TCP thread
/// or in-process transport) needs to submit commands.
pub struct ServerCore {
    config: ServerConfig,
    /// Bounded reader pool; `None` once the server began shutdown.
    readers: RwLock<Option<Pool>>,
    /// The writer: a one-worker bounded pool whose worker holds the live
    /// engine; `None` once the server began shutdown.
    writer: RwLock<Option<Pool>>,
    snapshot: RwLock<Arc<EngineSnapshot>>,
    registry: Arc<SessionRegistry>,
    next_session: AtomicU64,
    stopping: AtomicBool,
}

thread_local! {
    /// Reader workers cache their hydrated engine keyed by snapshot epoch,
    /// so consecutive reads at one epoch pay hydration once per worker.
    static READER_ENGINE: std::cell::RefCell<Option<(u64, Engine)>> =
        const { std::cell::RefCell::new(None) };
    /// The writer worker's live engine, installed by the pool's first job.
    /// Each write takes it out for its run, so one that panics leaves none.
    static LIVE_ENGINE: std::cell::RefCell<Option<Engine>> =
        const { std::cell::RefCell::new(None) };
}

impl ServerCore {
    /// The latest published snapshot.
    fn current_snapshot(&self) -> Arc<EngineSnapshot> {
        self.snapshot
            .read()
            .expect("snapshot lock poisoned")
            .clone()
    }

    fn publish(&self, snap: EngineSnapshot) {
        obs::gauge!("wire.server.snapshot_epoch").set(snap.epoch as i64);
        *self.snapshot.write().expect("snapshot lock poisoned") = Arc::new(snap);
    }

    /// Whether the server has begun shutdown (transports fail fast).
    pub(crate) fn is_stopping(&self) -> bool {
        self.stopping.load(Ordering::Relaxed)
    }

    pub(crate) fn remove_session(&self, session: u64) {
        self.registry.remove(session);
    }

    /// Classify a decoded frame (pings and logins were already answered
    /// inline and never reach this). Unknown or server-to-client messages
    /// fall through to the read path, whose dispatcher produces the proper
    /// auth/protocol error with full session semantics.
    fn route(&self, msg: &Message, snap: &EngineSnapshot) -> Route {
        match msg {
            Message::Query { sql } => match classify_sql(sql, &snap.catalog) {
                CommandClass::Read => Route::Read,
                CommandClass::Write => Route::Write,
            },
            Message::ListFunctions | Message::GetFunction { .. } => Route::Read,
            // Extraction intercepts the target UDF instead of executing it,
            // so only *other* impure UDFs in the query force the writer.
            Message::ExtractInputs { query, udf, .. }
            | Message::ExtractDelta { query, udf, .. } => {
                match classify_extract(query, udf, &snap.catalog) {
                    CommandClass::Read => Route::Read,
                    CommandClass::Write => Route::Write,
                }
            }
            Message::Traced { inner, .. } => match Message::decode(inner) {
                Err(e) => Route::Inline(err_msg("ProtocolError", e.to_string())),
                Ok(Message::Traced { .. }) => {
                    Route::Inline(err_msg("ProtocolError", "nested traced envelope"))
                }
                // Traced pings/logins ride the read path: the capture has
                // an engine-equipped thread and stays off the writer.
                Ok(Message::Ping) | Ok(Message::Login { .. }) => Route::Read,
                Ok(inner_msg) => self.route(&inner_msg, snap),
            },
            _ => Route::Read,
        }
    }

    /// Handle one raw frame for `session`, blocking until the reply is
    /// ready. Safe to call from any thread; this is the single entry point
    /// shared by TCP connection threads and the in-process transport.
    pub fn handle_frame(self: &Arc<Self>, session: u64, body: &[u8]) -> Vec<u8> {
        obs::counter!("wire.server.frames").inc();
        let msg = match Message::decode(body) {
            Ok(m) => m,
            Err(e) => return err_msg("ProtocolError", e.to_string()).encode(),
        };
        let Some(entry) = self.registry.get(session) else {
            return err_msg("AuthError", "unknown session").encode();
        };

        // Inline fast paths: answered on this thread, never queued, so
        // queue pressure cannot starve liveness probes or logins.
        match &msg {
            Message::Ping => {
                if !entry.authed.load(Ordering::Relaxed) {
                    return err_msg("AuthError", "not logged in").encode();
                }
                entry.finish_command();
                return Message::Pong.encode();
            }
            Message::Login { .. } => {
                let reply = login_reply(&self.config, &entry, session, &msg);
                entry.finish_command();
                return reply.encode();
            }
            _ => {}
        }

        let snap = self.current_snapshot();
        match self.route(&msg, &snap) {
            Route::Inline(reply) => {
                entry.finish_command();
                reply.encode()
            }
            Route::Read => self.submit(&self.readers, "read", entry, move |core, entry| {
                READER_ENGINE.with(|cache| {
                    let mut cache = cache.borrow_mut();
                    let engine = match cache.take() {
                        Some((epoch, engine)) if epoch == snap.epoch => engine,
                        _ => snap.hydrate(),
                    };
                    let reply = timed_dispatch(&engine, &core.config, entry, session, msg);
                    *cache = Some((snap.epoch, engine));
                    reply
                })
            }),
            Route::Write => self.submit(&self.writer, "write", entry, move |core, entry| {
                let Some(engine) = LIVE_ENGINE.with(|slot| slot.borrow_mut().take()) else {
                    return err_msg("ServerError", "the engine was lost to a panicked write");
                };
                let reply = timed_dispatch(&engine, &core.config, entry, session, msg);
                // Publish *before* replying: when the client sees this
                // command's result, the snapshot its next read classifies
                // against already carries the mutation (read-your-writes
                // per session).
                if engine.catalog_version() != core.current_snapshot().epoch {
                    core.publish(engine.snapshot());
                }
                LIVE_ENGINE.with(|slot| *slot.borrow_mut() = Some(engine));
                reply
            }),
        }
    }

    /// Queue `job` on `pool` (the `which` queue) and block until its reply
    /// is ready, or refuse at once with `ServerBusy` when the queue is
    /// full — before anything executes.
    fn submit(
        self: &Arc<Self>,
        pool: &RwLock<Option<Pool>>,
        which: &'static str,
        entry: Arc<SessionEntry>,
        job: impl FnOnce(&ServerCore, &SessionEntry) -> Message + Send + 'static,
    ) -> Vec<u8> {
        let shutting_down = || err_msg("ServerError", "server is shutting down").encode();
        let guard = pool.read().expect("pool lock poisoned");
        let Some(pool) = guard.as_ref() else {
            return shutting_down();
        };
        let (reply_tx, reply_rx) = channel();
        let core = self.clone();
        let job_entry = entry.clone();
        let enqueued = Instant::now();
        entry.state.store(STATE_QUEUED, Ordering::Relaxed);
        let submitted = pool.try_submit(move || {
            job_entry.record_dequeue(enqueued);
            let reply = job(&core, &job_entry);
            job_entry.finish_command();
            // A dead client is not a server error.
            let _ = reply_tx.send(reply.encode());
        });
        drop(guard);
        if submitted.is_err() {
            entry.state.store(STATE_IDLE, Ordering::Relaxed);
            return busy_reply(which).encode();
        }
        reply_rx.recv().unwrap_or_else(|_| shutting_down())
    }
}

/// Handle to a running server.
pub struct Server {
    core: Arc<ServerCore>,
    stop_tcp: Arc<AtomicBool>,
    /// Bound TCP listeners + their accept threads, so shutdown can wake
    /// each blocking `accept` with a self-connection and join it.
    listeners: Mutex<Vec<(SocketAddr, JoinHandle<()>)>>,
}

impl Server {
    /// Start the writer and reader pools; `init` seeds the database
    /// before any client connects (create tables, load data, register
    /// UDFs). It runs as the writer's first job, on the thread that keeps
    /// the live engine. Returns once the seeded snapshot is published, so
    /// the first concurrent read already sees the initialized catalog.
    pub fn start(config: ServerConfig, init: impl FnOnce(&Engine) + Send + 'static) -> Server {
        let read_workers = if config.read_workers == 0 {
            devharness::pool::default_threads()
        } else {
            config.read_workers
        };
        let core = Arc::new(ServerCore {
            readers: RwLock::new(Some(Pool::bounded(
                "wire-server-read",
                read_workers,
                config.read_queue,
            ))),
            writer: RwLock::new(Some(Pool::bounded(
                "wire-server-write",
                1,
                config.write_queue,
            ))),
            // Placeholder until the writer publishes the seeded snapshot
            // below; `start` does not return before that happens.
            snapshot: RwLock::new(Arc::new(Engine::new().snapshot())),
            registry: Arc::new(SessionRegistry::new()),
            next_session: AtomicU64::new(1),
            stopping: AtomicBool::new(false),
            config,
        });
        let (ready_tx, ready_rx) = channel();
        let init_core = core.clone();
        let seed = move || {
            let engine = Engine::new();
            engine.set_session_source(SessionSource::new(init_core.registry.clone()));
            init(&engine);
            init_core.publish(engine.snapshot());
            LIVE_ENGINE.with(|slot| *slot.borrow_mut() = Some(engine));
            let _ = ready_tx.send(());
        };
        core.writer
            .read()
            .expect("pool lock poisoned")
            .as_ref()
            .expect("a new server has a writer")
            .try_submit(seed)
            .expect("a new writer queue has room");
        ready_rx.recv().expect("engine init completed");
        Server {
            core,
            stop_tcp: Arc::new(AtomicBool::new(false)),
            listeners: Mutex::new(Vec::new()),
        }
    }

    /// Configured database name (used by clients and tests).
    pub fn config(&self) -> &ServerConfig {
        &self.core.config
    }

    /// Number of live registered sessions (tests and diagnostics).
    pub fn session_count(&self) -> usize {
        self.core.registry.live_count()
    }

    /// Allocate an in-process connection (scheduler handle + session id).
    pub fn in_proc_connection(&self) -> (Arc<ServerCore>, u64) {
        let session = self.core.next_session.fetch_add(1, Ordering::Relaxed);
        self.core.registry.register(session, "in-proc".to_string());
        (self.core.clone(), session)
    }

    /// Start accepting TCP connections on 127.0.0.1 (ephemeral port).
    /// Returns the bound address.
    ///
    /// The accept loop blocks in `accept` (no polling, zero idle CPU);
    /// [`Server::shutdown`] wakes it with a self-connection, so stopping
    /// is immediate. Transient accept errors back off exponentially
    /// (capped); a listener that only ever errors is declared dead and
    /// the loop exits cleanly instead of spinning forever.
    pub fn listen_tcp(&self) -> std::io::Result<SocketAddr> {
        /// First backoff after a transient accept error.
        const ACCEPT_BACKOFF_FLOOR: Duration = Duration::from_millis(1);
        /// Backoff cap: the loop never sleeps longer than this.
        const ACCEPT_BACKOFF_CEIL: Duration = Duration::from_millis(250);
        /// Consecutive accept errors after which the listener is
        /// considered dead (the socket is gone, not momentarily starved).
        const ACCEPT_MAX_CONSECUTIVE_ERRORS: u32 = 32;

        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let core = self.core.clone();
        let stop = self.stop_tcp.clone();
        let frame_deadline = self.core.config.frame_deadline;
        let handle = std::thread::Builder::new()
            .name("wireproto-accept".to_string())
            .spawn(move || {
                let mut backoff = ACCEPT_BACKOFF_FLOOR;
                let mut consecutive_errors: u32 = 0;
                loop {
                    match listener.accept() {
                        Ok((stream, peer)) => {
                            // Either a real client or the shutdown wake-up
                            // connection — check after accept returns.
                            if stop.load(Ordering::Relaxed) {
                                return;
                            }
                            backoff = ACCEPT_BACKOFF_FLOOR;
                            consecutive_errors = 0;
                            // Request/response framing: never let Nagle
                            // hold a half-written reply for a delayed ACK.
                            stream.set_nodelay(true).ok();
                            let session = core.next_session.fetch_add(1, Ordering::Relaxed);
                            core.registry.register(session, peer.to_string());
                            let core = core.clone();
                            std::thread::spawn(move || {
                                serve_tcp_connection(stream, core, session, frame_deadline)
                            });
                        }
                        Err(_) => {
                            if stop.load(Ordering::Relaxed) {
                                return;
                            }
                            obs::counter!("wire.server.accept_errors").inc();
                            consecutive_errors += 1;
                            if consecutive_errors >= ACCEPT_MAX_CONSECUTIVE_ERRORS {
                                // Nothing but errors across every backoff
                                // tier: the listener is dead. Exit instead
                                // of burning a core on a doomed loop.
                                return;
                            }
                            std::thread::sleep(backoff);
                            backoff = (backoff * 2).min(ACCEPT_BACKOFF_CEIL);
                        }
                    }
                }
            })
            .expect("spawn accept thread");
        self.listeners
            .lock()
            .expect("listeners lock")
            .push((addr, handle));
        Ok(addr)
    }

    fn stop(&mut self) {
        self.core.stopping.store(true, Ordering::Relaxed);
        self.stop_tcp.store(true, Ordering::Relaxed);
        // Wake each blocking accept with a throwaway self-connection and
        // join the accept thread; a failed connect means the listener is
        // already dead, in which case the thread exits on its own error.
        for (addr, handle) in self.listeners.lock().expect("listeners lock").drain(..) {
            let _ = TcpStream::connect(addr);
            let _ = handle.join();
        }
        // Dropping each pool drains its queue (those replies still go
        // out) and joins its workers; the writer's takes the engine along.
        for pool in [&self.core.readers, &self.core.writer] {
            drop(pool.write().expect("pool lock poisoned").take());
        }
    }

    /// Stop the server and join the reader, writer and accept threads.
    pub fn shutdown(mut self) {
        self.stop();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve_tcp_connection(
    mut stream: std::net::TcpStream,
    core: Arc<ServerCore>,
    session: u64,
    frame_deadline: Duration,
) {
    let deadline = (!frame_deadline.is_zero()).then_some(frame_deadline);
    // Loop until the client hangs up or stalls mid-frame.
    while let Ok(body) = read_frame_with_mid_deadline(&mut stream, deadline) {
        if core.is_stopping() {
            break;
        }
        let response = core.handle_frame(session, &body);
        if write_frame(&mut stream, &response).is_err() {
            break;
        }
    }
    core.remove_session(session);
}

fn err_msg(code: &str, message: impl Into<String>) -> Message {
    Message::Error {
        code: code.to_string(),
        message: message.into(),
        traceback: None,
    }
}

/// The reply for an engine error: [`WireError::from_db`] — the mapping the
/// embedded transport returns — as a frame, so both transports report the
/// same code, message and traceback.
fn db_error(e: &DbError) -> Message {
    match WireError::from_db(e) {
        WireError::Server {
            code,
            message,
            traceback,
        } => Message::Error {
            code,
            message,
            traceback,
        },
        other => err_msg("ServerError", other.to_string()),
    }
}

/// The typed backpressure reply: a bounded queue refused the command
/// before execution, so the client may safely retry it after backoff —
/// even a write.
fn busy_reply(which: &'static str) -> Message {
    obs::counter!("wire.server.queue_full").inc();
    err_msg(
        "ServerBusy",
        format!("{which} queue is full; retry after backoff"),
    )
}

/// Validate a login frame against the configured credentials.
fn login_reply(
    config: &ServerConfig,
    entry: &SessionEntry,
    session: u64,
    msg: &Message,
) -> Message {
    let Message::Login {
        user,
        password,
        database,
    } = msg
    else {
        return err_msg("ProtocolError", "not a login frame");
    };
    if user != &config.user || password != &config.password {
        return err_msg("AuthError", "invalid credentials");
    }
    if database != &config.database {
        return err_msg("AuthError", format!("no such database '{database}'"));
    }
    entry.authed.store(true, Ordering::Relaxed);
    Message::LoginOk { session }
}

/// Per-command latency histogram and name for the `server.command` span's
/// `command` field (a closed set, so each histogram arm is one cached
/// handle).
fn cmd_telemetry(msg: &Message) -> (&'static obs::metrics::Histogram, &'static str) {
    match msg {
        Message::Login { .. } => (obs::histogram!("wire.server.latency.login"), "login"),
        Message::Ping => (obs::histogram!("wire.server.latency.ping"), "ping"),
        Message::Query { .. } => (obs::histogram!("wire.server.latency.query"), "query"),
        Message::ListFunctions => (
            obs::histogram!("wire.server.latency.list_functions"),
            "list_functions",
        ),
        Message::GetFunction { .. } => (
            obs::histogram!("wire.server.latency.get_function"),
            "get_function",
        ),
        Message::ExtractInputs { .. } => (
            obs::histogram!("wire.server.latency.extract_inputs"),
            "extract_inputs",
        ),
        Message::ExtractDelta { .. } => (
            obs::histogram!("wire.server.latency.extract_delta"),
            "extract_delta",
        ),
        Message::Traced { .. } => (obs::histogram!("wire.server.latency.traced"), "traced"),
        _ => (obs::histogram!("wire.server.latency.other"), "other"),
    }
}

/// Handle a [`Message::Traced`] envelope (DESIGN §15): decode the inner
/// request, capture every span the engine closes while dispatching it
/// under a `server.command` root, and ship the encoded inner reply plus
/// the captured spans back in a [`Message::TracedReply`]. On a server
/// built without telemetry the span list is simply empty — the inner
/// dispatch is unaffected either way. The client's trace id only marks
/// the envelope: the server captures under an id of its own, so an
/// in-process client and server never share one capture.
fn traced_reply(
    engine: &Engine,
    config: &ServerConfig,
    entry: &SessionEntry,
    session: u64,
    inner: &[u8],
) -> Message {
    let msg = match Message::decode(inner) {
        Ok(Message::Traced { .. }) => return err_msg("ProtocolError", "nested traced envelope"),
        Ok(m) => m,
        Err(e) => return err_msg("ProtocolError", e.to_string()),
    };
    let (reply, spans) = obs::trace::capture(|| {
        let mut span = obs::trace::span_active("server.command");
        span.field("command", cmd_telemetry(&msg).1);
        dispatch_frame(engine, config, entry, session, msg)
    });
    Message::TracedReply {
        spans,
        inner: reply.encode(),
    }
}

/// Build a [`Message::DeltaBlocks`] reply: pickle the fresh inputs,
/// digest the plaintext block grid, and run the block codec on the global
/// pool only over the blocks whose digest the client did not declare.
/// The shipped bodies are bit-identical to what the full container would
/// carry, so the cold path's wire-determinism guarantees extend here.
fn delta_reply(
    config: &ServerConfig,
    options: crate::transfer::TransferOptions,
    transfer_id: u64,
    inputs: &pylite::Value,
    deps: Vec<(String, u64)>,
    client_digests: &[[u8; 32]],
) -> Message {
    let raw = match transfer::pickle_inputs(inputs) {
        Ok(r) => r,
        Err(e) => return err_msg("TransferError", e.to_string()),
    };
    let pool = devharness::pool::global();
    let digests = codecs::sha256::block_digests(&raw, options.effective_block_size());
    let known: std::collections::HashSet<&[u8; 32]> = client_digests.iter().collect();
    let ship: Vec<bool> = digests.iter().map(|d| !known.contains(d)).collect();
    let blocks =
        transfer::encode_delta_blocks(pool, &raw, &options, &config.password, transfer_id, &ship);
    obs::histogram!("transfer.delta.blocks_reused").record((digests.len() - blocks.len()) as u64);
    obs::counter!("transfer.delta.server.blocks_shipped").add(blocks.len() as u64);
    Message::DeltaBlocks {
        options,
        transfer_id,
        raw_len: raw.len() as u64,
        epochs: deps,
        digests,
        blocks,
    }
}

/// Dispatch with per-command latency telemetry (queue wait excluded — it
/// has its own histogram).
fn timed_dispatch(
    engine: &Engine,
    config: &ServerConfig,
    entry: &SessionEntry,
    session: u64,
    msg: Message,
) -> Message {
    if !obs::enabled() {
        return dispatch_frame(engine, config, entry, session, msg);
    }
    let (hist, _) = cmd_telemetry(&msg);
    let started = Instant::now();
    let reply = dispatch_frame(engine, config, entry, session, msg);
    hist.record_duration(started.elapsed());
    reply
}

/// The actual dispatch, free of telemetry. Runs on the writer thread (live
/// engine) or a reader worker (snapshot-hydrated engine) — the engine
/// handed in decides what this command can see.
fn dispatch_frame(
    engine: &Engine,
    config: &ServerConfig,
    entry: &SessionEntry,
    session: u64,
    msg: Message,
) -> Message {
    if let Message::Traced { inner, .. } = msg {
        return traced_reply(engine, config, entry, session, &inner);
    }
    if let Message::Login { .. } = &msg {
        return login_reply(config, entry, session, &msg);
    }
    if !entry.authed.load(Ordering::Relaxed) {
        return err_msg("AuthError", "not logged in");
    }

    match msg {
        Message::Ping => Message::Pong,
        Message::Query { sql } => match engine.execute(&sql) {
            Ok(result) => Message::ResultSet {
                result: WireResult::from_query_result(&result),
                udf_stdout: engine.take_udf_stdout(),
            },
            Err(e) => db_error(&e),
        },
        Message::ListFunctions => Message::FunctionList {
            names: engine.function_names(),
        },
        Message::GetFunction { name } => match FunctionInfo::lookup(engine, &name) {
            Ok(info) => Message::FunctionInfo(info),
            Err(e) => db_error(&e),
        },
        Message::ExtractInputs {
            query,
            udf,
            options,
            transfer_id,
        } => match engine.extract_inputs(&query, &udf) {
            Ok(inputs) => {
                // Mix the wire session into the sampling seed: repeated
                // extracts within a session already differ by transfer id,
                // and two sessions against the same engine must not draw
                // identical sample schedules either. Fully reproducible
                // given (engine seed, session, transfer id).
                match transfer::encode_payload(
                    &inputs,
                    &options,
                    &config.password,
                    transfer_id,
                    transfer::derive_sample_seed(engine.rng_seed(), session),
                ) {
                    Ok((payload, raw_len)) => Message::Extracted {
                        payload,
                        raw_len: raw_len as u64,
                        options,
                        transfer_id,
                    },
                    Err(e) => err_msg("TransferError", e.to_string()),
                }
            }
            Err(e) => db_error(&e),
        },
        Message::ExtractDelta {
            query,
            udf,
            options,
            transfer_id,
            epochs,
            digests,
        } => {
            if options.sample.is_some() {
                // Samples are drawn fresh per transfer id, so two sampled
                // payloads are never comparable; the client bypasses the
                // cache for them, and a request that didn't is an error.
                return err_msg(
                    "TransferError",
                    "sampled extracts bypass the delta cache (samples are per-transfer)",
                );
            }
            // Epoch check FIRST: when every dependency epoch the client's
            // cache entry was built from still matches, the extract —
            // query re-execution, pickling, KDF, digesting, block codec —
            // is skipped entirely. This is the whole point of the cache:
            // the NotModified answer does zero codec work.
            if !epochs.is_empty()
                && epochs
                    .iter()
                    .all(|(name, epoch)| engine.table_epoch(name) == Some(*epoch))
            {
                obs::counter!("transfer.delta.server.not_modified").inc();
                return Message::DeltaNotModified { transfer_id };
            }
            match engine.extract_inputs_with_deps(&query, &udf) {
                Ok((inputs, deps)) => {
                    delta_reply(config, options, transfer_id, &inputs, deps, &digests)
                }
                Err(e) => db_error(&e),
            }
        }
        // Server-only messages arriving at the server are protocol errors.
        other => err_msg(
            "ProtocolError",
            format!("unexpected message from client: {other:?}"),
        ),
    }
}
