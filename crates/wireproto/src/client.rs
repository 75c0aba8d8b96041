//! Client API: connect, query, manage UDFs, extract input data.
//!
//! # Robustness
//!
//! A [`Client`] carries a [`RetryPolicy`]. With retries enabled,
//! **idempotent** operations — [`Client::ping`], read-only
//! [`Client::query`] (`SELECT …`, `EXPLAIN …`, by the server
//! classifier's statement-shape rule), [`Client::list_functions`],
//! [`Client::get_function`], [`Client::extract_inputs`] — transparently
//! reconnect, re-authenticate and retry on transient errors (IO failures,
//! frame-checksum mismatches). Non-idempotent statements are never
//! replayed: a transient failure surfaces immediately as
//! [`WireError::RetriesExhausted`] with `attempts == 1`, telling the
//! caller the statement may or may not have executed server-side.

use std::time::{Duration, Instant};

use devharness::Rng;
use pylite::Value;

use crate::delta::{self, BlockCache, CacheEntry};
use crate::fault::{FaultInjectingTransport, FaultPolicy, FaultStats, FaultStatsHandle};
pub use crate::message::FunctionInfo;
use crate::message::{Message, WireError, WireResult};
use crate::retry::RetryPolicy;
use crate::server::Server;
use crate::transfer::{self, TransferOptions, TransferStats};
use crate::transport::{ClientTransport, InProcTransport, TcpTransport};

/// Default per-syscall read/write deadline on TCP connections: generous
/// enough for any legitimate reply, finite so a dead peer cannot hang the
/// client forever.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Connection-time knobs: retry policy, socket deadlines and (for tests
/// and benchmarks) deterministic fault injection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientOptions {
    /// Retry policy for idempotent operations (default: disabled).
    pub retry: RetryPolicy,
    /// Seed of the backoff-jitter stream (retries are deterministic given
    /// the seed).
    pub retry_seed: u64,
    /// Per-read socket deadline (TCP only; `None` blocks forever).
    pub read_timeout: Option<Duration>,
    /// Per-write socket deadline (TCP only; `None` blocks forever).
    pub write_timeout: Option<Duration>,
    /// Wrap the transport in a [`FaultInjectingTransport`] with this
    /// policy (tests/benchmarks).
    pub fault: Option<FaultPolicy>,
    /// Content-addressed delta cache for repeated extracts: `Some(n)`
    /// keeps up to `n` extract payloads ([`crate::delta::BlockCache`])
    /// and upgrades [`Client::extract_inputs`] to the `ExtractDelta`
    /// protocol; `None` disables caching and always runs the classic
    /// full extract.
    pub cache: Option<usize>,
}

impl Default for ClientOptions {
    fn default() -> ClientOptions {
        ClientOptions {
            retry: RetryPolicy::none(),
            retry_seed: 0,
            read_timeout: Some(DEFAULT_IO_TIMEOUT),
            write_timeout: Some(DEFAULT_IO_TIMEOUT),
            fault: None,
            cache: None,
        }
    }
}

impl ClientOptions {
    /// Default options with the given retry policy.
    pub fn with_retry(retry: RetryPolicy) -> ClientOptions {
        ClientOptions {
            retry,
            ..ClientOptions::default()
        }
    }
}

/// A connected, authenticated client.
pub struct Client {
    // Fields below; Debug is implemented manually (the transport is opaque
    // and the password must not leak into logs).
    transport: Box<dyn ClientTransport>,
    user: String,
    password: String,
    database: String,
    retry: RetryPolicy,
    rng: Rng,
    next_transfer_id: u64,
    last_udf_stdout: String,
    fault_stats: Option<FaultStatsHandle>,
    /// Delta block cache when `ClientOptions::cache` was set.
    cache: Option<BlockCache>,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("next_transfer_id", &self.next_transfer_id)
            .finish_non_exhaustive()
    }
}

/// Per-operation latency histogram and span name (a closed set, so each
/// histogram arm is one cached handle).
fn op_telemetry(op: &'static str) -> (&'static obs::metrics::Histogram, &'static str) {
    match op {
        "ping" => (obs::histogram!("wire.client.latency.ping"), "client.ping"),
        "query" => (obs::histogram!("wire.client.latency.query"), "client.query"),
        "list_functions" => (
            obs::histogram!("wire.client.latency.list_functions"),
            "client.list_functions",
        ),
        "get_function" => (
            obs::histogram!("wire.client.latency.get_function"),
            "client.get_function",
        ),
        "extract_inputs" => (
            obs::histogram!("wire.client.latency.extract_inputs"),
            "client.extract_inputs",
        ),
        "extract_delta" => (
            obs::histogram!("wire.client.latency.extract_delta"),
            "client.extract_delta",
        ),
        _ => (obs::histogram!("wire.client.latency.other"), "client.other"),
    }
}

/// Top bit of a span id: the client shifts the server's span ids into the
/// top half of the id space, which its own ids (minted from 1) never reach.
const SERVER_SPAN_BIT: u64 = 1 << 63;

/// A statement is safe to replay after a transient failure when the
/// server's classifier calls its shape read-only, or when it does not parse
/// (it fails the same way every time). Anything else, `EXPLAIN ANALYZE` of
/// a write included, may have executed before the reply was lost.
fn sql_is_idempotent(sql: &str) -> bool {
    monetlite::sql::parse_statement(sql)
        .map_or(true, |stmt| monetlite::classify::kind_is_read_only(&stmt))
}

impl Client {
    /// Connect over the in-process transport (tests / benchmarks / embedded).
    pub fn connect_in_proc(
        server: &Server,
        user: &str,
        password: &str,
        database: &str,
    ) -> Result<Client, WireError> {
        Self::connect_in_proc_with(server, user, password, database, ClientOptions::default())
    }

    /// Connect in-process with explicit retry/fault options.
    pub fn connect_in_proc_with(
        server: &Server,
        user: &str,
        password: &str,
        database: &str,
        options: ClientOptions,
    ) -> Result<Client, WireError> {
        let (core, session) = server.in_proc_connection();
        let transport = InProcTransport { core, session };
        Self::login(Box::new(transport), user, password, database, options)
    }

    /// Connect over TCP with the default [`ClientOptions`] (30 s socket
    /// deadlines, retries disabled).
    pub fn connect_tcp(
        addr: std::net::SocketAddr,
        user: &str,
        password: &str,
        database: &str,
    ) -> Result<Client, WireError> {
        Self::connect_tcp_with(addr, user, password, database, ClientOptions::default())
    }

    /// Connect over TCP with explicit retry/deadline/fault options.
    pub fn connect_tcp_with(
        addr: std::net::SocketAddr,
        user: &str,
        password: &str,
        database: &str,
        options: ClientOptions,
    ) -> Result<Client, WireError> {
        let transport = TcpTransport::connect(addr, options.read_timeout, options.write_timeout)?;
        Self::login(Box::new(transport), user, password, database, options)
    }

    fn login(
        transport: Box<dyn ClientTransport>,
        user: &str,
        password: &str,
        database: &str,
        options: ClientOptions,
    ) -> Result<Client, WireError> {
        let mut fault_stats = None;
        let transport: Box<dyn ClientTransport> = match options.fault {
            Some(policy) => {
                let injector = FaultInjectingTransport::wrap(transport, policy);
                fault_stats = Some(injector.stats_handle());
                Box::new(injector)
            }
            None => transport,
        };
        let mut client = Client {
            transport,
            user: user.to_string(),
            password: password.to_string(),
            database: database.to_string(),
            retry: options.retry,
            rng: Rng::new(options.retry_seed),
            next_transfer_id: 1,
            last_udf_stdout: String::new(),
            fault_stats,
            cache: options.cache.map(BlockCache::new),
        };
        // Login is idempotent: under fault injection / flaky networks the
        // initial handshake retries like any read.
        let started = Instant::now();
        let result = client.with_retry(|| true, false, |c| c.authenticate());
        obs::histogram!("wire.client.latency.login").record_duration(started.elapsed());
        result?;
        Ok(client)
    }

    /// One login round trip over the current transport (no retry).
    fn authenticate(&mut self) -> Result<(), WireError> {
        let login = Message::Login {
            user: self.user.clone(),
            password: self.password.clone(),
            database: self.database.clone(),
        };
        match self.exchange(&login.encode())? {
            Message::LoginOk { .. } => Ok(()),
            Message::Error { code, message, .. } if code == "AuthError" => {
                Err(WireError::Auth(message))
            }
            other => Err(WireError::Protocol(format!(
                "unexpected login reply: {other:?}"
            ))),
        }
    }

    /// Exact counts of what the fault injector did to this connection, if
    /// one was configured ([`ClientOptions::fault`]).
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.fault_stats.as_ref().map(FaultStatsHandle::get)
    }

    /// Send one encoded frame and decode the reply.
    fn exchange(&mut self, frame: &[u8]) -> Result<Message, WireError> {
        obs::counter!("wire.client.bytes_out").add(frame.len() as u64);
        let reply = self.transport.round_trip(frame)?;
        obs::counter!("wire.client.bytes_in").add(reply.len() as u64);
        Message::decode(&reply)
    }

    /// One request/reply round trip over the current transport (no retry).
    ///
    /// Inside an [`obs::trace::capture`] the request travels in a
    /// [`Message::Traced`] envelope under a `client.wire` span (DESIGN
    /// §15): the server captures every span it closes while handling it
    /// and ships them back, and they join the caller's capture, remapped
    /// into one id space and hung under the wire span. Outside a capture
    /// the frame is exactly `msg.encode()`.
    fn round_trip(&mut self, msg: &Message) -> Result<Message, WireError> {
        let trace = obs::trace::current_context().trace;
        let decoded = if trace == 0 {
            self.exchange(&msg.encode())?
        } else {
            let envelope = Message::Traced {
                trace,
                inner: msg.encode(),
            }
            .encode();
            let mut wire = obs::trace::span("client.wire");
            wire.field("bytes_out", envelope.len());
            match self.exchange(&envelope)? {
                Message::TracedReply { spans, inner } => {
                    wire.field("bytes_in", inner.len());
                    let wire_id = wire.id();
                    obs::trace::extend_capture(spans.into_iter().map(|mut s| {
                        s.id |= SERVER_SPAN_BIT;
                        s.parent = match s.parent {
                            0 => wire_id,
                            parent => parent | SERVER_SPAN_BIT,
                        };
                        s
                    }));
                    Message::decode(&inner)?
                }
                // Refused before dispatch (busy, unknown tag): a plain reply.
                other => other,
            }
        };
        if let Message::Error {
            code,
            message,
            traceback,
        } = decoded
        {
            // Backpressure gets its own typed error: it is retryable even
            // for writes (the server refused before executing anything).
            if code == "ServerBusy" {
                return Err(WireError::Busy(message));
            }
            return Err(WireError::Server {
                code,
                message,
                traceback,
            });
        }
        Ok(decoded)
    }

    /// Run `op` under the client's [`RetryPolicy`].
    ///
    /// Transient errors on an idempotent `op` trigger reconnect (+ reauth
    /// unless `op` *is* the login) and a backoff-then-retry, until the
    /// policy's attempt budget or overall deadline is spent — then the
    /// last error surfaces wrapped in [`WireError::RetriesExhausted`].
    /// Non-idempotent ops are never replayed. With retries disabled the
    /// first error surfaces raw, preserving fail-fast semantics.
    /// `idempotent` is asked only once a retry is possible.
    fn with_retry<T>(
        &mut self,
        idempotent: impl Fn() -> bool,
        reauth: bool,
        op: impl Fn(&mut Client) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let started = Instant::now();
        let mut attempts: u32 = 0;
        loop {
            attempts += 1;
            let err = match op(self) {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            if !self.retry.enabled() || !err.is_transient() {
                return Err(err);
            }
            // `Busy` means the server's bounded queue refused the command
            // before execution started, so replaying can never double-run
            // it — the no-replay rule for non-idempotent ops exempts it.
            if !matches!(err, WireError::Busy(_)) && !idempotent() {
                return Err(WireError::RetriesExhausted {
                    attempts: 1,
                    last: Box::new(err),
                    elapsed: started.elapsed(),
                });
            }
            let deadline_spent = self.retry.deadline.is_some_and(|d| started.elapsed() >= d);
            if attempts >= self.retry.max_attempts || deadline_spent {
                return Err(WireError::RetriesExhausted {
                    attempts,
                    last: Box::new(err),
                    elapsed: started.elapsed(),
                });
            }
            obs::counter!("wire.client.retries").inc();
            let mut backoff = self.retry.backoff(attempts, &mut self.rng);
            if let Some(d) = self.retry.deadline {
                // Never sleep past the overall deadline.
                backoff = backoff.min(d.saturating_sub(started.elapsed()));
            }
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
            // A busy server refused a well-formed request on a healthy
            // connection: back off and resend, no reconnect ceremony.
            if matches!(err, WireError::Busy(_)) {
                continue;
            }
            // Reconnect + reauth; failures here surface on the next
            // attempt (the op fails again and consumes the budget).
            obs::counter!("wire.client.reconnects").inc();
            if self.transport.reconnect().is_ok() && reauth {
                match self.authenticate() {
                    Ok(()) | Err(WireError::Io(_)) | Err(WireError::Protocol(_)) => {}
                    // Deterministic auth/server failures will not improve
                    // with more attempts — surface them now.
                    Err(e) => return Err(e),
                }
            }
        }
    }

    /// One retried request/reply exchange (helper for the public calls)
    /// under a `client.<op>` span, recording a `wire.client.latency.<op>`
    /// observation covering all attempts.
    fn call(
        &mut self,
        op: &'static str,
        msg: &Message,
        idempotent: impl Fn() -> bool,
    ) -> Result<Message, WireError> {
        if !obs::enabled() {
            return self.with_retry(idempotent, true, |c| c.round_trip(msg));
        }
        let (latency, span_name) = op_telemetry(op);
        let _span = obs::trace::span_active(span_name);
        let started = Instant::now();
        let result = self.with_retry(idempotent, true, |c| c.round_trip(msg));
        latency.record_duration(started.elapsed());
        result
    }

    /// Execute one SQL statement. Read-only statements retry under the
    /// client's [`RetryPolicy`]; writes are never replayed.
    pub fn query(&mut self, sql: &str) -> Result<WireResult, WireError> {
        let msg = Message::Query {
            sql: sql.to_string(),
        };
        match self.call("query", &msg, || sql_is_idempotent(sql))? {
            Message::ResultSet { result, udf_stdout } => {
                self.last_udf_stdout = udf_stdout;
                Ok(result)
            }
            other => Err(WireError::Protocol(format!(
                "unexpected query reply: {other:?}"
            ))),
        }
    }

    /// `print` output emitted by server-side UDFs during the last query —
    /// the "print debugging" channel the paper's demo contrasts against.
    pub fn last_udf_stdout(&self) -> &str {
        &self.last_udf_stdout
    }

    /// Names of every stored function.
    pub fn list_functions(&mut self) -> Result<Vec<String>, WireError> {
        match self.call("list_functions", &Message::ListFunctions, || true)? {
            Message::FunctionList { names } => Ok(names),
            other => Err(WireError::Protocol(format!(
                "unexpected list reply: {other:?}"
            ))),
        }
    }

    /// Full metadata + stored body of one function.
    pub fn get_function(&mut self, name: &str) -> Result<FunctionInfo, WireError> {
        let msg = Message::GetFunction {
            name: name.to_string(),
        };
        match self.call("get_function", &msg, || true)? {
            Message::FunctionInfo(info) => Ok(info),
            other => Err(WireError::Protocol(format!(
                "unexpected function reply: {other:?}"
            ))),
        }
    }

    /// Run the paper's extract function: evaluate `query` server-side with
    /// the call to `udf` intercepted, and transfer its input data using
    /// `options`. Returns the inputs dict and the transfer statistics.
    ///
    /// With a delta cache configured ([`ClientOptions::cache`]) and no
    /// sampling requested, the call goes through the `ExtractDelta`
    /// protocol: unchanged payloads cost zero payload bytes, partially
    /// changed ones ship only the changed blocks.
    pub fn extract_inputs(
        &mut self,
        query: &str,
        udf: &str,
        options: TransferOptions,
    ) -> Result<(Value, TransferStats), WireError> {
        if self.cache.is_some() && options.sample.is_none() {
            return self.extract_delta(query, udf, options);
        }
        let transfer_id = self.next_transfer_id;
        self.next_transfer_id += 1;
        let msg = Message::ExtractInputs {
            query: query.to_string(),
            udf: udf.to_string(),
            options,
            transfer_id,
        };
        match self.call("extract_inputs", &msg, || true)? {
            Message::Extracted {
                payload,
                raw_len,
                options,
                transfer_id,
            } => {
                let stats = TransferStats {
                    raw_len: raw_len as usize,
                    wire_len: payload.len(),
                };
                let value =
                    transfer::decode_payload(&payload, &options, &self.password, transfer_id)
                        .map_err(|e| WireError::Protocol(e.to_string()))?;
                Ok((value, stats))
            }
            other => Err(WireError::Protocol(format!(
                "unexpected extract reply: {other:?}"
            ))),
        }
    }

    /// One `ExtractDelta` round trip: claim what the cache holds, then
    /// rebuild the payload from the reply (`NotModified` → pure cache,
    /// `DeltaBlocks` → shipped blocks + cached blocks by digest).
    fn extract_delta(
        &mut self,
        query: &str,
        udf: &str,
        options: TransferOptions,
    ) -> Result<(Value, TransferStats), WireError> {
        let transfer_id = self.next_transfer_id;
        self.next_transfer_id += 1;
        let fp = delta::fingerprint(query, udf, &options);
        let (epochs, digests) = match self.cache.as_mut().and_then(|c| c.get(fp)) {
            Some(entry) => (entry.epochs.clone(), entry.digests.clone()),
            None => (Vec::new(), Vec::new()),
        };
        let msg = Message::ExtractDelta {
            query: query.to_string(),
            udf: udf.to_string(),
            options,
            transfer_id,
            epochs,
            digests,
        };
        match self.call("extract_delta", &msg, || true)? {
            Message::DeltaNotModified { .. } => {
                let cache = self.cache.as_mut().expect("delta path requires a cache");
                let entry = cache.get(fp).ok_or_else(|| {
                    WireError::Protocol(
                        "server answered NotModified for an extract not in the cache".into(),
                    )
                })?;
                obs::counter!("transfer.delta.not_modified").inc();
                obs::counter!("transfer.delta.bytes_saved").add(entry.raw_len as u64);
                let raw = entry.reassemble();
                let stats = TransferStats {
                    raw_len: entry.raw_len,
                    wire_len: 0,
                };
                let value = transfer::unpickle_inputs(&raw)
                    .map_err(|e| WireError::Protocol(e.to_string()))?;
                Ok((value, stats))
            }
            Message::DeltaBlocks {
                options: reply_options,
                transfer_id: reply_id,
                raw_len,
                epochs,
                digests,
                blocks,
            } => {
                // The block grid is client-chosen: a reply under different
                // options (or the wrong transfer id) is not ours.
                if reply_options != options || reply_id != transfer_id {
                    return Err(WireError::Protocol(
                        "delta reply does not match the request".into(),
                    ));
                }
                let raw_len = usize::try_from(raw_len)
                    .map_err(|_| WireError::Protocol("delta raw length out of range".into()))?;
                let block_size = options.effective_block_size();
                let nblocks = digests.len();
                let wire_len =
                    blocks.iter().map(|b| b.body.len()).sum::<usize>() + 32 * digests.len();
                let raw = {
                    let cached_map = match self.cache.as_mut().and_then(|c| c.get(fp)) {
                        Some(entry) => entry.digest_map(),
                        None => std::collections::HashMap::new(),
                    };
                    transfer::reconstruct_delta(
                        devharness::pool::global(),
                        raw_len,
                        &options,
                        &self.password,
                        transfer_id,
                        &digests,
                        &blocks,
                        &cached_map,
                    )
                    .map_err(|e| WireError::Protocol(e.to_string()))?
                };
                // Raw bytes that did NOT cross the wire thanks to block
                // reuse (grid arithmetic is safe: reconstruct validated
                // the digest table against raw_len and every index).
                let shipped_raw: usize = blocks
                    .iter()
                    .map(|b| transfer::block_raw_len(raw_len, block_size, b.index as usize))
                    .sum();
                if blocks.len() < nblocks {
                    obs::counter!("transfer.delta.hits").inc();
                } else {
                    obs::counter!("transfer.delta.misses").inc();
                }
                obs::counter!("transfer.delta.bytes_saved")
                    .add(raw_len.saturating_sub(shipped_raw) as u64);
                let entry = CacheEntry::from_raw(&raw, block_size, epochs);
                self.cache
                    .as_mut()
                    .expect("delta path requires a cache")
                    .insert(fp, entry);
                let stats = TransferStats { raw_len, wire_len };
                let value = transfer::unpickle_inputs(&raw)
                    .map_err(|e| WireError::Protocol(e.to_string()))?;
                Ok((value, stats))
            }
            other => Err(WireError::Protocol(format!(
                "unexpected delta reply: {other:?}"
            ))),
        }
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), WireError> {
        match self.call("ping", &Message::Ping, || true)? {
            Message::Pong => Ok(()),
            other => Err(WireError::Protocol(format!(
                "unexpected ping reply: {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::WireValue;
    use crate::server::ServerConfig;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::{Arc, Mutex};

    fn demo_server() -> Server {
        Server::start(ServerConfig::new("demo", "monetdb", "monetdb"), |db| {
            db.execute("CREATE TABLE numbers (i INTEGER)").unwrap();
            db.execute("INSERT INTO numbers VALUES (1), (2), (3), (4), (5), (6)")
                .unwrap();
            db.execute(
                "CREATE FUNCTION mean_deviation(column INTEGER) RETURNS DOUBLE LANGUAGE PYTHON {\nmean = 0\nfor i in range(0, len(column)):\n    mean += column[i]\nmean = mean / len(column)\ndistance = 0\nfor i in range(0, len(column)):\n    distance += abs(column[i] - mean)\nreturn distance / len(column)\n}",
            )
            .unwrap();
        })
    }

    fn connect(server: &Server) -> Client {
        Client::connect_in_proc(server, "monetdb", "monetdb", "demo").unwrap()
    }

    #[test]
    fn login_and_query() {
        let server = demo_server();
        let mut client = connect(&server);
        let t = client
            .query("SELECT sum(i) FROM numbers")
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.rows[0][0], WireValue::Int(21));
        client.ping().unwrap();
        server.shutdown();
    }

    #[test]
    fn bad_credentials_rejected() {
        let server = demo_server();
        let err = Client::connect_in_proc(&server, "monetdb", "wrongpw", "demo").unwrap_err();
        assert!(matches!(err, WireError::Auth(_)));
        let err = Client::connect_in_proc(&server, "monetdb", "monetdb", "nodb").unwrap_err();
        assert!(matches!(err, WireError::Auth(_)));
        server.shutdown();
    }

    #[test]
    fn unauthenticated_session_rejected() {
        let server = demo_server();
        let (core, session) = server.in_proc_connection();
        let mut transport = InProcTransport { core, session };
        let reply = transport
            .round_trip(
                &Message::Query {
                    sql: "SELECT 1".into(),
                }
                .encode(),
            )
            .unwrap();
        match Message::decode(&reply).unwrap() {
            Message::Error { code, .. } => assert_eq!(code, "AuthError"),
            other => panic!("{other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn udf_execution_over_the_wire() {
        let server = demo_server();
        let mut client = connect(&server);
        let t = client
            .query("SELECT mean_deviation(i) FROM numbers")
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.rows[0][0], WireValue::Double(1.5));
        server.shutdown();
    }

    #[test]
    fn server_side_error_propagates_with_traceback() {
        let server = demo_server();
        let mut client = connect(&server);
        client
            .query("CREATE FUNCTION boom(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON {\nreturn i / 0\n}")
            .unwrap();
        let err = client.query("SELECT boom(i) FROM numbers").unwrap_err();
        match err {
            WireError::Server {
                code, traceback, ..
            } => {
                assert_eq!(code, "UdfError");
                assert!(traceback.unwrap().contains("line 1"));
            }
            other => panic!("{other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn list_and_get_functions() {
        let server = demo_server();
        let mut client = connect(&server);
        let names = client.list_functions().unwrap();
        assert_eq!(names, vec!["mean_deviation"]);
        let info = client.get_function("mean_deviation").unwrap();
        assert_eq!(
            info.params,
            vec![("column".to_string(), "INTEGER".to_string())]
        );
        assert_eq!(info.return_type, "DOUBLE");
        assert!(info.body.contains("distance"));
        assert!(client.get_function("ghost").is_err());
        server.shutdown();
    }

    #[test]
    fn extract_inputs_round_trip_all_option_combinations() {
        let server = demo_server();
        let mut client = connect(&server);
        for (compress, encrypt) in [(false, false), (true, false), (false, true), (true, true)] {
            let options = TransferOptions {
                compress,
                encrypt,
                ..Default::default()
            };
            let (value, stats) = client
                .extract_inputs(
                    "SELECT mean_deviation(i) FROM numbers",
                    "mean_deviation",
                    options,
                )
                .unwrap();
            let Value::Dict(d) = &value else { panic!() };
            let col = d.borrow().get(&Value::str("column")).unwrap().unwrap();
            match col {
                Value::Array(a) => assert_eq!(a.len(), 6),
                other => panic!("{other:?}"),
            }
            assert!(stats.raw_len > 0);
        }
        server.shutdown();
    }

    #[test]
    fn extract_with_sampling_reduces_rows_and_bytes() {
        let server = Server::start(ServerConfig::new("demo", "monetdb", "monetdb"), |db| {
            db.execute("CREATE TABLE big (i INTEGER)").unwrap();
            let values: Vec<String> = (0..2000).map(|i| format!("({i})")).collect();
            db.execute(&format!("INSERT INTO big VALUES {}", values.join(", ")))
                .unwrap();
            db.execute(
                "CREATE FUNCTION f(column INTEGER) RETURNS DOUBLE LANGUAGE PYTHON { return 0.0 }",
            )
            .unwrap();
        });
        let mut client = connect(&server);
        let (full, full_stats) = client
            .extract_inputs("SELECT f(i) FROM big", "f", TransferOptions::plain())
            .unwrap();
        let (sampled, sampled_stats) = client
            .extract_inputs("SELECT f(i) FROM big", "f", TransferOptions::sampled(50))
            .unwrap();
        let arr_len = |v: &Value| {
            let Value::Dict(d) = v else { panic!() };
            let col = d.borrow().get(&Value::str("column")).unwrap().unwrap();
            let Value::Array(a) = col else { panic!() };
            a.len()
        };
        assert_eq!(arr_len(&full), 2000);
        assert_eq!(arr_len(&sampled), 50);
        assert!(sampled_stats.wire_len < full_stats.wire_len / 10);
        server.shutdown();
    }

    #[test]
    fn tcp_transport_end_to_end() {
        let server = demo_server();
        let addr = server.listen_tcp().unwrap();
        let mut client = Client::connect_tcp(addr, "monetdb", "monetdb", "demo").unwrap();
        let t = client
            .query("SELECT count(*) FROM numbers")
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.rows[0][0], WireValue::Int(6));
        // Second client concurrently.
        let mut client2 = Client::connect_tcp(addr, "monetdb", "monetdb", "demo").unwrap();
        client2.ping().unwrap();
        server.shutdown();
    }

    #[test]
    fn retries_exhausted_preserves_cause_and_elapsed() {
        let server = demo_server();
        let options = ClientOptions {
            retry: RetryPolicy {
                max_attempts: 3,
                initial_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
                deadline: None,
            },
            // Every frame is dropped, so login itself exhausts the budget.
            fault: Some(crate::fault::FaultPolicy::black_hole(11)),
            ..ClientOptions::default()
        };
        let err = Client::connect_in_proc_with(&server, "monetdb", "monetdb", "demo", options)
            .unwrap_err();
        match err {
            WireError::RetriesExhausted {
                attempts,
                last,
                elapsed,
            } => {
                assert_eq!(attempts, 3);
                // The underlying cause survives the wrapping…
                match *last {
                    WireError::Io(ref m) => assert!(m.contains("frame dropped"), "{m}"),
                    other => panic!("expected the injected Io cause, got {other:?}"),
                }
                // …and the total wall-clock time (two 1–2 ms backoffs).
                assert!(elapsed >= Duration::from_millis(2), "{elapsed:?}");
            }
            other => panic!("{other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn fault_stats_reachable_through_the_client() {
        let server = demo_server();
        let options = ClientOptions {
            fault: Some(crate::fault::FaultPolicy::none(3)),
            ..ClientOptions::default()
        };
        let mut client =
            Client::connect_in_proc_with(&server, "monetdb", "monetdb", "demo", options).unwrap();
        client.ping().unwrap();
        let stats = client.fault_stats().expect("injector configured");
        assert_eq!(stats.clean, 2, "login + ping, nothing injected: {stats:?}");
        assert_eq!(stats.injected(), 0);
        // Without a fault policy there is nothing to report.
        let bare = connect(&server);
        assert!(bare.fault_stats().is_none());
        server.shutdown();
    }

    /// Passes frames through to the real server, logging each one. While
    /// `refusals` is positive a frame is refused with `ServerBusy`
    /// (deterministic backpressure without racing real queues); a frame
    /// tagged `unknown_tag` gets the exact error of a decoder that lacks
    /// the tag.
    struct StubTransport {
        inner: InProcTransport,
        unknown_tag: Option<u8>,
        refusals: Arc<AtomicU32>,
        frames: Arc<Mutex<Vec<Vec<u8>>>>,
    }

    impl crate::transport::ClientTransport for StubTransport {
        fn round_trip(&mut self, frame: &[u8]) -> Result<Vec<u8>, WireError> {
            self.frames
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(frame.to_vec());
            let refuse = |code: &str, message: String| {
                Ok(Message::Error {
                    code: code.to_string(),
                    message,
                    traceback: None,
                }
                .encode())
            };
            if self.refusals.load(Ordering::Relaxed) > 0 {
                self.refusals.fetch_sub(1, Ordering::Relaxed);
                return refuse(
                    "ServerBusy",
                    "write queue is full; retry after backoff".into(),
                );
            }
            if frame.first() == self.unknown_tag.as_ref() {
                return refuse("ProtocolError", format!("unknown message tag {}", frame[0]));
            }
            self.inner.round_trip(frame)
        }
    }

    type FrameLog = Arc<Mutex<Vec<Vec<u8>>>>;

    /// A client logged in to `server` over a [`StubTransport`], with the
    /// stub's refusal counter and frame log.
    fn stub_client(
        server: &Server,
        unknown_tag: Option<u8>,
        options: ClientOptions,
    ) -> (Client, Arc<AtomicU32>, FrameLog) {
        let (core, session) = server.in_proc_connection();
        let refusals = Arc::new(AtomicU32::new(0));
        let frames = FrameLog::default();
        let transport = StubTransport {
            inner: InProcTransport { core, session },
            unknown_tag,
            refusals: refusals.clone(),
            frames: frames.clone(),
        };
        let client =
            Client::login(Box::new(transport), "monetdb", "monetdb", "demo", options).unwrap();
        (client, refusals, frames)
    }

    #[test]
    fn unknown_tag_is_a_typed_protocol_error_not_a_downgrade() {
        let _serial = obs::metrics::test_lock();
        obs::set_enabled(true);
        obs::trace::clear_subscribers();
        let server = demo_server();
        // Tag 7 is `ExtractDelta` (sent when the cache is on), tag 8 the
        // `Traced` envelope.
        for unknown_tag in [7u8, 8] {
            let options = ClientOptions {
                cache: Some(4),
                ..ClientOptions::default()
            };
            let (mut client, _, frames) = stub_client(&server, Some(unknown_tag), options);
            let err = if unknown_tag == 7 {
                client
                    .extract_inputs(
                        "SELECT mean_deviation(i) FROM numbers",
                        "mean_deviation",
                        TransferOptions::plain(),
                    )
                    .map(|_| ())
                    .unwrap_err()
            } else {
                obs::trace::capture(|| client.query("SELECT sum(i) FROM numbers"))
                    .0
                    .map(|_| ())
                    .unwrap_err()
            };
            match err {
                WireError::Server { code, .. } => assert_eq!(code, "ProtocolError"),
                other => panic!("tag {unknown_tag}: {other:?}"),
            }
            assert_eq!(
                frames.lock().unwrap().len(),
                2,
                "tag {unknown_tag}: login and the one rejected frame, no retry another way"
            );
        }
        server.shutdown();
    }

    #[test]
    fn busy_replies_retry_even_non_idempotent_commands() {
        let server = demo_server();
        let options = ClientOptions::with_retry(RetryPolicy {
            max_attempts: 5,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            deadline: Some(Duration::from_secs(5)),
        });
        let (mut client, refusals, _) = stub_client(&server, None, options);
        // An INSERT is not idempotent, but `ServerBusy` means the server
        // refused the command before executing anything — the retry layer
        // replays it instead of giving up after one attempt.
        refusals.store(2, Ordering::Relaxed);
        client.query("INSERT INTO numbers VALUES (99)").unwrap();
        assert_eq!(refusals.load(Ordering::Relaxed), 0);
        let t = client
            .query("SELECT i FROM numbers WHERE i = 99")
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.rows.len(), 1, "the write executed exactly once");
        server.shutdown();
    }

    #[test]
    fn busy_surfaces_raw_when_retries_are_disabled() {
        let server = demo_server();
        let (mut client, refusals, _) = stub_client(&server, None, ClientOptions::default());
        refusals.store(1, Ordering::Relaxed);
        let err = client.query("INSERT INTO numbers VALUES (99)").unwrap_err();
        assert!(matches!(err, WireError::Busy(_)), "{err:?}");
        assert!(err.is_transient());
        server.shutdown();
    }

    #[test]
    fn traced_query_returns_a_stitched_span_tree() {
        // Captures and the enable flag are process-global: serialize with
        // every other telemetry-recording test.
        let _serial = obs::metrics::test_lock();
        obs::set_enabled(true);
        obs::trace::clear_subscribers();
        let server = demo_server();
        let mut client = connect(&server);
        let (result, spans) =
            obs::trace::capture(|| client.query("SELECT mean_deviation(i) FROM numbers"));
        let t = result.unwrap().into_table().unwrap();
        assert_eq!(t.rows[0][0], WireValue::Double(1.5));
        let query = spans.iter().find(|r| r.name == "client.query").unwrap();
        assert_eq!(query.parent, 0);
        let wire = spans.iter().find(|r| r.name == "client.wire").unwrap();
        assert_eq!(wire.parent, query.id);
        let cmd = spans.iter().find(|r| r.name == "server.command").unwrap();
        assert_eq!(cmd.parent, wire.id, "server roots hang off the wire span");
        assert_ne!(cmd.id & (1 << 63), 0, "server ids are remapped");
        assert!(
            cmd.fields
                .contains(&("command".to_string(), "query".to_string())),
            "{:?}",
            cmd.fields
        );
        assert!(spans.iter().all(|r| r.duration_ns > 0), "{spans:?}");
        // The whole exchange assembles into one tree rooted at the client.
        let roots = obs::trace::assemble(&spans);
        assert_eq!(roots.len(), 1, "{spans:?}");
        assert_eq!(roots[0].record.name, "client.query");
        assert_eq!(roots[0].len(), spans.len());
        server.shutdown();
    }

    #[test]
    fn every_command_outside_a_capture_is_byte_identical_to_its_encoding() {
        let _serial = obs::metrics::test_lock();
        obs::set_enabled(true);
        let server = demo_server();
        let options = ClientOptions {
            cache: Some(4),
            ..ClientOptions::default()
        };
        let (mut client, _, frames) = stub_client(&server, None, options);
        let sql = "SELECT mean_deviation(i) FROM numbers";
        let udf = "mean_deviation";
        client.query(sql).unwrap();
        client.list_functions().unwrap();
        client.get_function(udf).unwrap();
        // The cache upgrades a full extract to `ExtractDelta`; a sampled
        // one bypasses it.
        client
            .extract_inputs(sql, udf, TransferOptions::compressed())
            .unwrap();
        client
            .extract_inputs(sql, udf, TransferOptions::sampled(3))
            .unwrap();
        client.ping().unwrap();
        // With telemetry off no capture starts, so nothing is wrapped.
        obs::set_enabled(false);
        let (result, spans) = obs::trace::capture(|| client.query(sql));
        obs::set_enabled(true);
        result.unwrap();
        assert!(spans.is_empty());
        let expected: Vec<Vec<u8>> = [
            Message::Login {
                user: "monetdb".into(),
                password: "monetdb".into(),
                database: "demo".into(),
            },
            Message::Query { sql: sql.into() },
            Message::ListFunctions,
            Message::GetFunction { name: udf.into() },
            Message::ExtractDelta {
                query: sql.into(),
                udf: udf.into(),
                options: TransferOptions::compressed(),
                transfer_id: 1,
                epochs: Vec::new(),
                digests: Vec::new(),
            },
            Message::ExtractInputs {
                query: sql.into(),
                udf: udf.into(),
                options: TransferOptions::sampled(3),
                transfer_id: 2,
            },
            Message::Ping,
            Message::Query { sql: sql.into() },
        ]
        .iter()
        .map(Message::encode)
        .collect();
        assert_eq!(*frames.lock().unwrap(), expected);
        server.shutdown();
    }

    #[test]
    fn udf_print_output_travels_to_client() {
        let server = demo_server();
        let mut client = connect(&server);
        client
            .query("CREATE FUNCTION noisy(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON {\nprint('debugging', len(i))\nreturn i\n}")
            .unwrap();
        client.query("SELECT noisy(i) FROM numbers").unwrap();
        assert_eq!(client.last_udf_stdout(), "debugging 6\n");
        server.shutdown();
    }
}
