//! Wire messages and their binary codec.
//!
//! Hand-rolled tagged binary encoding (varint-framed), so the protocol has
//! zero reflection overhead and the transfer benchmarks measure real bytes.

use codecs::varint::{write_bytes, write_u64, write_zigzag, ReadError, Reader};
use monetlite::{DbError, Engine, FunctionReturn, QueryResult, Table};
use obs::trace::SpanRecord;

use crate::transfer;
use crate::transfer::{DeltaBlock, TransferOptions};

/// Protocol-level error.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// Transport failure (connection closed, IO error).
    Io(String),
    /// Malformed frame or unknown message tag.
    Protocol(String),
    /// Authentication rejected.
    Auth(String),
    /// The server's bounded command queue refused the request before any
    /// execution happened (`ServerBusy` backpressure). Always safe to
    /// retry after backoff — even for non-idempotent commands, because the
    /// server never started the work.
    Busy(String),
    /// The server reported a database error.
    Server {
        code: String,
        message: String,
        traceback: Option<String>,
    },
    /// The retry layer gave up: an idempotent operation failed on every
    /// configured attempt, or a non-idempotent one hit a transient
    /// transport error it must not replay (`attempts` is 1 in that case).
    /// `last` is the error of the final attempt and `elapsed` the total
    /// wall-clock time spent across all attempts (including backoff).
    RetriesExhausted {
        attempts: u32,
        last: Box<WireError>,
        elapsed: std::time::Duration,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(m) => write!(f, "io error: {m}"),
            WireError::Protocol(m) => write!(f, "protocol error: {m}"),
            WireError::Auth(m) => write!(f, "authentication failed: {m}"),
            WireError::Busy(m) => write!(f, "server busy: {m}"),
            WireError::Server { code, message, .. } => write!(f, "{code}: {message}"),
            WireError::RetriesExhausted {
                attempts,
                last,
                elapsed,
            } => {
                write!(
                    f,
                    "retries exhausted after {attempts} attempt(s) in {elapsed:?}: {last}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

impl WireError {
    /// Whether a retry (after reconnecting) could plausibly succeed:
    /// transport IO failures and frame-level checksum mismatches, i.e.
    /// errors where the stream state is suspect but the request itself is
    /// fine. Auth, server-side and codec errors are deterministic and
    /// retrying them would only repeat the failure.
    pub fn is_transient(&self) -> bool {
        match self {
            WireError::Io(_) => true,
            WireError::Protocol(m) => m.contains("checksum mismatch"),
            // Backpressure: the server refused before executing, so a
            // delayed retry is always safe and plausibly succeeds.
            WireError::Busy(_) => true,
            _ => false,
        }
    }

    pub fn from_db(e: &DbError) -> WireError {
        WireError::Server {
            code: e.code.name().to_string(),
            message: e.message.clone(),
            traceback: e.traceback.clone(),
        }
    }
}

impl From<ReadError> for WireError {
    fn from(e: ReadError) -> WireError {
        match e {
            ReadError::Varint(e) => proto(format!("bad varint: {e}")),
            ReadError::Truncated => proto("truncated frame"),
            ReadError::Utf8 => proto("invalid UTF-8"),
        }
    }
}

fn proto(msg: impl Into<String>) -> WireError {
    WireError::Protocol(msg.into())
}

/// Metadata of a stored function, as returned by
/// [`crate::Client::get_function`] and carried by
/// [`Message::FunctionInfo`].
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionInfo {
    pub name: String,
    /// (param name, SQL type name).
    pub params: Vec<(String, String)>,
    pub return_type: String,
    pub language: String,
    /// Function body as stored in the server's meta tables.
    pub body: String,
}

impl FunctionInfo {
    /// The metadata of `name` in `engine`'s catalog — what both the server
    /// and the embedded transport answer; a missing function is a
    /// `CatalogError`.
    pub(crate) fn lookup(engine: &Engine, name: &str) -> Result<FunctionInfo, DbError> {
        let def = engine
            .get_function(name)?
            .ok_or_else(|| DbError::catalog(format!("no such function '{name}'")))?;
        Ok(FunctionInfo {
            // Cloned, not moved: moving it shifts glibc's heap layout enough
            // to raise the embedded_durable benchmark's peak RSS by about
            // 2 MiB (measured on a 2-core x86-64 Linux host).
            name: def.name.clone(),
            params: def
                .params
                .iter()
                .map(|(n, t)| (n.clone(), t.name().to_string()))
                .collect(),
            return_type: match &def.returns {
                FunctionReturn::Scalar(t) => t.name().to_string(),
                FunctionReturn::Table(cols) => {
                    let inner: Vec<String> = cols.iter().map(|(n, t)| format!("{n} {t}")).collect();
                    format!("TABLE({})", inner.join(", "))
                }
            },
            language: def.language,
            body: def.body,
        })
    }
}

/// A scalar value on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum WireValue {
    Null,
    Int(i64),
    Double(f64),
    Str(String),
    Bool(bool),
    Blob(Vec<u8>),
}

impl WireValue {
    pub fn render(&self) -> String {
        match self {
            WireValue::Null => "NULL".into(),
            WireValue::Int(i) => i.to_string(),
            WireValue::Double(d) => {
                if d.fract() == 0.0 && d.is_finite() && d.abs() < 1e15 {
                    format!("{d:.1}")
                } else {
                    format!("{d}")
                }
            }
            WireValue::Str(s) => s.clone(),
            WireValue::Bool(b) => if *b { "true" } else { "false" }.into(),
            WireValue::Blob(b) => format!("<blob {} bytes>", b.len()),
        }
    }
}

/// A result table on the wire (row-major).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireTable {
    pub name: String,
    /// (column name, type name) pairs.
    pub columns: Vec<(String, String)>,
    pub rows: Vec<Vec<WireValue>>,
}

impl WireTable {
    /// Convert from an engine table.
    pub fn from_table(t: &Table) -> WireTable {
        let columns = t
            .columns
            .iter()
            .map(|c| (c.name.clone(), c.sql_type().name().to_string()))
            .collect();
        let mut rows = Vec::with_capacity(t.row_count());
        for i in 0..t.row_count() {
            rows.push(
                t.row(i)
                    .into_iter()
                    .map(|v| match v {
                        monetlite::SqlValue::Null => WireValue::Null,
                        monetlite::SqlValue::Int(x) => WireValue::Int(x),
                        monetlite::SqlValue::Double(x) => WireValue::Double(x),
                        monetlite::SqlValue::Str(x) => WireValue::Str(x),
                        monetlite::SqlValue::Bool(x) => WireValue::Bool(x),
                        monetlite::SqlValue::Blob(x) => WireValue::Blob(x),
                    })
                    .collect(),
            );
        }
        WireTable {
            name: t.name.clone(),
            columns,
            rows,
        }
    }

    /// Render as an ASCII grid (client-side pretty printer).
    pub fn render_ascii(&self) -> String {
        let headers: Vec<String> = self.columns.iter().map(|(n, _)| n.clone()).collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                r.iter()
                    .enumerate()
                    .map(|(c, v)| {
                        let s = v.render();
                        widths[c] = widths[c].max(s.len());
                        s
                    })
                    .collect()
            })
            .collect();
        let sep = {
            let mut s = String::from("+");
            for w in &widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            s.push('\n');
            s
        };
        let mut out = sep.clone();
        out.push('|');
        for (h, w) in headers.iter().zip(&widths) {
            out.push_str(&format!(" {h:w$} |", w = w));
        }
        out.push('\n');
        out.push_str(&sep.replace('-', "="));
        for row in &rendered {
            out.push('|');
            for (v, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {v:w$} |", w = w));
            }
            out.push('\n');
        }
        out.push_str(&sep);
        format!("{out}{} row(s)\n", self.rows.len())
    }
}

/// Result of a query as seen by the client.
#[derive(Debug, Clone, PartialEq)]
pub enum WireResult {
    Table(WireTable),
    Affected { rows: u64, message: String },
}

impl WireResult {
    pub fn from_query_result(r: &QueryResult) -> WireResult {
        match r {
            QueryResult::Table(t) => WireResult::Table(WireTable::from_table(t)),
            QueryResult::Affected { rows, message } => WireResult::Affected {
                rows: *rows as u64,
                message: message.clone(),
            },
        }
    }

    pub fn into_table(self) -> Result<WireTable, WireError> {
        match self {
            WireResult::Table(t) => Ok(t),
            WireResult::Affected { message, .. } => Err(WireError::Protocol(format!(
                "statement produced no result set ({message})"
            ))),
        }
    }
}

/// Protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    // Client → server.
    Login {
        user: String,
        password: String,
        database: String,
    },
    Query {
        sql: String,
    },
    /// The paper's extract function: capture `udf`'s inputs from `query`
    /// and ship them with the requested transfer options.
    ExtractInputs {
        query: String,
        udf: String,
        options: TransferOptions,
        transfer_id: u64,
    },
    ListFunctions,
    GetFunction {
        name: String,
    },
    Ping,
    /// Delta-aware extract (DESIGN §12): like [`Message::ExtractInputs`],
    /// but the client also declares what it already holds — the
    /// dependency epochs its cache entry was built against and the
    /// SHA-256 digests of its cached plaintext blocks — so the server can
    /// answer [`Message::DeltaNotModified`] or ship only changed blocks.
    /// Both lists are empty on a cold cache.
    ExtractDelta {
        query: String,
        udf: String,
        options: TransferOptions,
        transfer_id: u64,
        /// `(table name, epoch)` pairs the cached payload was built from.
        epochs: Vec<(String, u64)>,
        /// Content addresses of the client's cached raw blocks.
        digests: Vec<[u8; 32]>,
    },
    /// Trace envelope (PR 8 version gate, DESIGN §15): `inner` is a fully
    /// encoded client message, `trace` the client-minted trace id. A
    /// traced server answers with [`Message::TracedReply`]. Untraced
    /// clients never send this, so their wire bytes are untouched by the
    /// feature.
    Traced {
        /// Client-minted trace id (never 0 on the wire).
        trace: u64,
        /// The encoded inner request frame body.
        inner: Vec<u8>,
    },

    // Server → client.
    LoginOk {
        session: u64,
    },
    ResultSet {
        result: WireResult,
        /// `print` output emitted by UDFs during the statement.
        udf_stdout: String,
    },
    /// Extracted input payload: pickle bytes, possibly compressed and/or
    /// encrypted (flags echoed in `options`).
    Extracted {
        payload: Vec<u8>,
        raw_len: u64,
        options: TransferOptions,
        transfer_id: u64,
    },
    FunctionList {
        names: Vec<String>,
    },
    FunctionInfo(FunctionInfo),
    Error {
        code: String,
        message: String,
        traceback: Option<String>,
    },
    Pong,
    /// Every dependency epoch in the [`Message::ExtractDelta`] request
    /// still matches: the client's cached payload is provably current and
    /// no payload bytes follow.
    DeltaNotModified {
        transfer_id: u64,
    },
    /// Delta reply: the fresh payload's full digest table plus only the
    /// blocks whose digest the client did not declare.
    DeltaBlocks {
        options: TransferOptions,
        transfer_id: u64,
        /// Total plaintext length of the fresh payload.
        raw_len: u64,
        /// Dependency epochs the fresh payload was built from (empty when
        /// a dependency is volatile and can never be provably unchanged).
        epochs: Vec<(String, u64)>,
        /// SHA-256 digest of every block of the fresh payload, in order.
        digests: Vec<[u8; 32]>,
        /// The shipped (changed) blocks, strictly increasing by index.
        blocks: Vec<DeltaBlock>,
    },
    /// Reply to a [`Message::Traced`] envelope: the encoded inner reply
    /// plus every span the server recorded while handling it (empty when
    /// the server was built without telemetry).
    TracedReply {
        /// Server-side spans, in close order. Ids are only unique per
        /// side; the client remaps them before merging into its own tree.
        spans: Vec<SpanRecord>,
        /// The encoded inner reply frame body.
        inner: Vec<u8>,
    },
}

// ----------------------------------------------------------------------
// Codec helpers
// ----------------------------------------------------------------------

fn put_value(out: &mut Vec<u8>, v: &WireValue) {
    match v {
        WireValue::Null => out.push(0),
        WireValue::Int(i) => {
            out.push(1);
            write_zigzag(out, *i);
        }
        WireValue::Double(d) => {
            out.push(2);
            out.extend_from_slice(&d.to_le_bytes());
        }
        WireValue::Str(s) => {
            out.push(3);
            write_bytes(out, s);
        }
        WireValue::Bool(b) => out.push(if *b { 5 } else { 4 }),
        WireValue::Blob(b) => {
            out.push(6);
            write_bytes(out, b);
        }
    }
}

fn read_value(r: &mut Reader<'_>) -> Result<WireValue, WireError> {
    Ok(match r.byte()? {
        0 => WireValue::Null,
        1 => WireValue::Int(r.zigzag()?),
        2 => WireValue::Double(f64::from_le_bytes(r.take(8)?.try_into().expect("8 bytes"))),
        3 => WireValue::Str(r.str()?.to_string()),
        4 => WireValue::Bool(false),
        5 => WireValue::Bool(true),
        6 => WireValue::Blob(r.bytes()?.to_vec()),
        t => return Err(proto(format!("unknown value tag {t}"))),
    })
}

fn put_table(out: &mut Vec<u8>, t: &WireTable) {
    write_bytes(out, &t.name);
    write_u64(out, t.columns.len() as u64);
    for (n, ty) in &t.columns {
        write_bytes(out, n);
        write_bytes(out, ty);
    }
    write_u64(out, t.rows.len() as u64);
    for row in &t.rows {
        for v in row {
            put_value(out, v);
        }
    }
}

fn read_table(r: &mut Reader<'_>) -> Result<WireTable, WireError> {
    let name = r.str()?.to_string();
    let ncols = r.varint()? as usize;
    if ncols > 10_000 {
        return Err(proto("implausible column count"));
    }
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        columns.push((r.str()?.to_string(), r.str()?.to_string()));
    }
    let nrows = r.varint()? as usize;
    // Every value takes at least one byte, so a row count the rest of the
    // frame cannot hold is rejected before anything is reserved. A
    // zero-column row takes none, and no engine table has one.
    if nrows > 0 && (ncols == 0 || nrows > r.remaining() / ncols) {
        return Err(proto("implausible row count"));
    }
    let mut rows = Vec::with_capacity(nrows);
    for _ in 0..nrows {
        let mut row = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            row.push(read_value(r)?);
        }
        rows.push(row);
    }
    Ok(WireTable {
        name,
        columns,
        rows,
    })
}

fn put_options(out: &mut Vec<u8>, o: &TransferOptions) {
    put_options_impl(out, o, false)
}

/// [`put_options`] with the delta framing-check bit set. Only the delta
/// messages carry it: a peer that lacks the `ExtractDelta` tag answers
/// with a typed `ProtocolError`, and the bit keeps a delta frame from
/// ever being misparsed as a plain one.
fn put_options_delta(out: &mut Vec<u8>, o: &TransferOptions) {
    put_options_impl(out, o, true)
}

fn put_options_impl(out: &mut Vec<u8>, o: &TransferOptions, delta: bool) {
    let mut flags = 0u8;
    if o.compress {
        flags |= 1;
    }
    if o.encrypt {
        flags |= 2;
    }
    if o.sample.is_some() {
        flags |= 4;
    }
    // Bit 8 marks a non-default container block size; the default is
    // elided so frames from older peers (and the common case) stay
    // byte-identical to the pre-chunking encoding.
    let block_size = o.effective_block_size();
    if block_size != transfer::DEFAULT_BLOCK_SIZE {
        flags |= 8;
    }
    if delta {
        flags |= DELTA_OPTION_FLAG;
    }
    out.push(flags);
    if let Some(k) = o.sample {
        write_u64(out, k as u64);
    }
    if block_size != transfer::DEFAULT_BLOCK_SIZE {
        write_u64(out, block_size as u64);
    }
}

/// Every transfer-option flag bit this version understands. Bits 0–2
/// (compress/encrypt/sample) shipped in v0; bit 3 (block size) implies a
/// trailing varint. Bit 4 ([`DELTA_OPTION_FLAG`]) is deliberately **not**
/// in this set: it only ever appears inside the delta messages, which use
/// [`read_options_delta`] — a plain message carrying it is still rejected
/// with the same strictness as any unknown bit.
const KNOWN_OPTION_FLAGS: u8 = 1 | 2 | 4 | 8;

/// Option flag bit marking a delta-protocol message (PR 5 version gate).
const DELTA_OPTION_FLAG: u8 = 16;

fn read_options(r: &mut Reader<'_>) -> Result<TransferOptions, WireError> {
    read_options_impl(r, false)
}

/// [`read_options`] for the delta messages: bit 4 is both accepted and
/// **required**, so a delta frame from a peer that does not actually
/// speak the delta protocol fails loudly instead of desyncing.
fn read_options_delta(r: &mut Reader<'_>) -> Result<TransferOptions, WireError> {
    read_options_impl(r, true)
}

fn read_options_impl(r: &mut Reader<'_>, delta: bool) -> Result<TransferOptions, WireError> {
    let flags = r.byte()?;
    // Reject unknown bits loudly. Flag bits here imply trailing fields
    // (bit 2 a sample count, bit 3 a block size), so skipping an unknown
    // bit would leave its field unconsumed and silently desync every
    // later read in the frame — a clean error beats misparsed garbage
    // when a newer peer sends an extension we don't know.
    let known = if delta {
        KNOWN_OPTION_FLAGS | DELTA_OPTION_FLAG
    } else {
        KNOWN_OPTION_FLAGS
    };
    if flags & !known != 0 {
        return Err(proto(format!(
            "unknown transfer option flag bits {:#04x}",
            flags & !known
        )));
    }
    if delta && flags & DELTA_OPTION_FLAG == 0 {
        return Err(proto("delta message without the delta option flag"));
    }
    let sample = if flags & 4 != 0 {
        Some(r.varint()? as usize)
    } else {
        None
    };
    let block_size = if flags & 8 != 0 {
        let bs = r.varint()? as usize;
        if bs == 0 {
            return Err(proto("zero transfer block size"));
        }
        bs
    } else {
        transfer::DEFAULT_BLOCK_SIZE
    };
    Ok(TransferOptions {
        compress: flags & 1 != 0,
        encrypt: flags & 2 != 0,
        sample,
        block_size,
    })
}

fn put_epochs(out: &mut Vec<u8>, epochs: &[(String, u64)]) {
    write_u64(out, epochs.len() as u64);
    for (name, epoch) in epochs {
        write_bytes(out, name);
        write_u64(out, *epoch);
    }
}

fn read_epochs(r: &mut Reader<'_>) -> Result<Vec<(String, u64)>, WireError> {
    let n = r.varint()? as usize;
    // Each entry occupies at least two bytes (length-prefixed name plus
    // an epoch varint), so a count the frame cannot hold is rejected
    // before the vector is reserved.
    if n > r.remaining() / 2 {
        return Err(proto("implausible epoch count"));
    }
    let mut epochs = Vec::with_capacity(n);
    for _ in 0..n {
        epochs.push((r.str()?.to_string(), r.varint()?));
    }
    Ok(epochs)
}

fn put_digests(out: &mut Vec<u8>, digests: &[[u8; 32]]) {
    write_u64(out, digests.len() as u64);
    for d in digests {
        out.extend_from_slice(d);
    }
}

fn read_digests(r: &mut Reader<'_>) -> Result<Vec<[u8; 32]>, WireError> {
    let n = r.varint()? as usize;
    // 32 bytes per digest must physically fit in the remaining frame.
    if n > r.remaining() / 32 {
        return Err(proto("implausible digest count"));
    }
    let mut digests = Vec::with_capacity(n);
    for _ in 0..n {
        digests.push(r.take(32)?.try_into().expect("32 bytes"));
    }
    Ok(digests)
}

fn put_spans(out: &mut Vec<u8>, spans: &[SpanRecord]) {
    write_u64(out, spans.len() as u64);
    for s in spans {
        write_u64(out, s.id);
        write_u64(out, s.parent);
        write_bytes(out, &s.name);
        write_u64(out, s.duration_ns);
        write_u64(out, s.fields.len() as u64);
        for (k, v) in &s.fields {
            write_bytes(out, k);
            write_bytes(out, v);
        }
    }
}

fn read_spans(r: &mut Reader<'_>) -> Result<Vec<SpanRecord>, WireError> {
    let n = r.varint()? as usize;
    // A span occupies at least five bytes (id, parent, name length,
    // duration, field count varints), so a count the frame cannot hold is
    // rejected before the vector is reserved.
    if n > r.remaining() / 5 {
        return Err(proto("implausible span count"));
    }
    let mut spans = Vec::with_capacity(n);
    for _ in 0..n {
        let id = r.varint()?;
        let parent = r.varint()?;
        let name = r.str()?.to_string();
        let duration_ns = r.varint()?;
        let nfields = r.varint()? as usize;
        // Two length-prefixed strings per field: at least two bytes each.
        if nfields > r.remaining() / 2 {
            return Err(proto("implausible span field count"));
        }
        let mut fields = Vec::with_capacity(nfields);
        for _ in 0..nfields {
            fields.push((r.str()?.to_string(), r.str()?.to_string()));
        }
        spans.push(SpanRecord {
            id,
            parent,
            name,
            duration_ns,
            fields,
        });
    }
    Ok(spans)
}

impl Message {
    /// Encode into a frame body (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            Message::Login {
                user,
                password,
                database,
            } => {
                out.push(1);
                write_bytes(&mut out, user);
                write_bytes(&mut out, password);
                write_bytes(&mut out, database);
            }
            Message::Query { sql } => {
                out.push(2);
                write_bytes(&mut out, sql);
            }
            Message::ExtractInputs {
                query,
                udf,
                options,
                transfer_id,
            } => {
                out.push(3);
                write_bytes(&mut out, query);
                write_bytes(&mut out, udf);
                put_options(&mut out, options);
                write_u64(&mut out, *transfer_id);
            }
            Message::ListFunctions => out.push(4),
            Message::GetFunction { name } => {
                out.push(5);
                write_bytes(&mut out, name);
            }
            Message::Ping => out.push(6),
            Message::ExtractDelta {
                query,
                udf,
                options,
                transfer_id,
                epochs,
                digests,
            } => {
                out.push(7);
                write_bytes(&mut out, query);
                write_bytes(&mut out, udf);
                put_options_delta(&mut out, options);
                write_u64(&mut out, *transfer_id);
                put_epochs(&mut out, epochs);
                put_digests(&mut out, digests);
            }
            Message::Traced { trace, inner } => {
                out.push(8);
                write_u64(&mut out, *trace);
                write_bytes(&mut out, inner);
            }
            Message::LoginOk { session } => {
                out.push(64);
                write_u64(&mut out, *session);
            }
            Message::ResultSet { result, udf_stdout } => {
                out.push(65);
                match result {
                    WireResult::Table(t) => {
                        out.push(0);
                        put_table(&mut out, t);
                    }
                    WireResult::Affected { rows, message } => {
                        out.push(1);
                        write_u64(&mut out, *rows);
                        write_bytes(&mut out, message);
                    }
                }
                write_bytes(&mut out, udf_stdout);
            }
            Message::Extracted {
                payload,
                raw_len,
                options,
                transfer_id,
            } => {
                out.push(66);
                write_bytes(&mut out, payload);
                write_u64(&mut out, *raw_len);
                put_options(&mut out, options);
                write_u64(&mut out, *transfer_id);
            }
            Message::FunctionList { names } => {
                out.push(67);
                write_u64(&mut out, names.len() as u64);
                for n in names {
                    write_bytes(&mut out, n);
                }
            }
            Message::FunctionInfo(FunctionInfo {
                name,
                params,
                return_type,
                language,
                body,
            }) => {
                out.push(68);
                write_bytes(&mut out, name);
                write_u64(&mut out, params.len() as u64);
                for (n, t) in params {
                    write_bytes(&mut out, n);
                    write_bytes(&mut out, t);
                }
                write_bytes(&mut out, return_type);
                write_bytes(&mut out, language);
                write_bytes(&mut out, body);
            }
            Message::Error {
                code,
                message,
                traceback,
            } => {
                out.push(69);
                write_bytes(&mut out, code);
                write_bytes(&mut out, message);
                match traceback {
                    None => out.push(0),
                    Some(t) => {
                        out.push(1);
                        write_bytes(&mut out, t);
                    }
                }
            }
            Message::Pong => out.push(70),
            Message::DeltaNotModified { transfer_id } => {
                out.push(71);
                write_u64(&mut out, *transfer_id);
            }
            Message::DeltaBlocks {
                options,
                transfer_id,
                raw_len,
                epochs,
                digests,
                blocks,
            } => {
                out.push(72);
                put_options_delta(&mut out, options);
                write_u64(&mut out, *transfer_id);
                write_u64(&mut out, *raw_len);
                put_epochs(&mut out, epochs);
                put_digests(&mut out, digests);
                write_u64(&mut out, blocks.len() as u64);
                for b in blocks {
                    write_u64(&mut out, b.index);
                    out.push(b.enc);
                    write_bytes(&mut out, &b.body);
                }
            }
            Message::TracedReply { spans, inner } => {
                out.push(73);
                put_spans(&mut out, spans);
                write_bytes(&mut out, inner);
            }
        }
        out
    }

    /// Decode a frame body.
    pub fn decode(data: &[u8]) -> Result<Message, WireError> {
        let mut r = Reader::new(data);
        let tag = r.byte()?;
        let msg = match tag {
            1 => Message::Login {
                user: r.str()?.to_string(),
                password: r.str()?.to_string(),
                database: r.str()?.to_string(),
            },
            2 => Message::Query {
                sql: r.str()?.to_string(),
            },
            3 => Message::ExtractInputs {
                query: r.str()?.to_string(),
                udf: r.str()?.to_string(),
                options: read_options(&mut r)?,
                transfer_id: r.varint()?,
            },
            4 => Message::ListFunctions,
            5 => Message::GetFunction {
                name: r.str()?.to_string(),
            },
            6 => Message::Ping,
            7 => Message::ExtractDelta {
                query: r.str()?.to_string(),
                udf: r.str()?.to_string(),
                options: read_options_delta(&mut r)?,
                transfer_id: r.varint()?,
                epochs: read_epochs(&mut r)?,
                digests: read_digests(&mut r)?,
            },
            8 => {
                let trace = r.varint()?;
                if trace == 0 {
                    return Err(proto("traced envelope without a trace id"));
                }
                Message::Traced {
                    trace,
                    inner: r.bytes()?.to_vec(),
                }
            }
            64 => Message::LoginOk {
                session: r.varint()?,
            },
            65 => {
                let kind = r.byte()?;
                let result = match kind {
                    0 => WireResult::Table(read_table(&mut r)?),
                    1 => WireResult::Affected {
                        rows: r.varint()?,
                        message: r.str()?.to_string(),
                    },
                    k => return Err(proto(format!("unknown result kind {k}"))),
                };
                Message::ResultSet {
                    result,
                    udf_stdout: r.str()?.to_string(),
                }
            }
            66 => Message::Extracted {
                payload: r.bytes()?.to_vec(),
                raw_len: r.varint()?,
                options: read_options(&mut r)?,
                transfer_id: r.varint()?,
            },
            67 => {
                let n = r.varint()? as usize;
                // Each name takes at least its length byte.
                if n > r.remaining() {
                    return Err(proto("implausible function count"));
                }
                let mut names = Vec::with_capacity(n);
                for _ in 0..n {
                    names.push(r.str()?.to_string());
                }
                Message::FunctionList { names }
            }
            68 => {
                let name = r.str()?.to_string();
                let nparams = r.varint()? as usize;
                let mut params = Vec::with_capacity(nparams.min(256));
                for _ in 0..nparams {
                    params.push((r.str()?.to_string(), r.str()?.to_string()));
                }
                Message::FunctionInfo(FunctionInfo {
                    name,
                    params,
                    return_type: r.str()?.to_string(),
                    language: r.str()?.to_string(),
                    body: r.str()?.to_string(),
                })
            }
            69 => {
                let code = r.str()?.to_string();
                let message = r.str()?.to_string();
                let traceback = match r.byte()? {
                    0 => None,
                    _ => Some(r.str()?.to_string()),
                };
                Message::Error {
                    code,
                    message,
                    traceback,
                }
            }
            70 => Message::Pong,
            71 => Message::DeltaNotModified {
                transfer_id: r.varint()?,
            },
            72 => {
                let options = read_options_delta(&mut r)?;
                let transfer_id = r.varint()?;
                let raw_len = r.varint()?;
                let epochs = read_epochs(&mut r)?;
                let digests = read_digests(&mut r)?;
                let nblocks = r.varint()? as usize;
                // A delta never ships more blocks than the digest table
                // describes; the bound also caps the allocation.
                if nblocks > digests.len() {
                    return Err(proto("more shipped blocks than digest entries"));
                }
                let mut blocks = Vec::with_capacity(nblocks);
                for _ in 0..nblocks {
                    blocks.push(DeltaBlock {
                        index: r.varint()?,
                        enc: r.byte()?,
                        body: r.bytes()?.to_vec(),
                    });
                }
                Message::DeltaBlocks {
                    options,
                    transfer_id,
                    raw_len,
                    epochs,
                    digests,
                    blocks,
                }
            }
            73 => Message::TracedReply {
                spans: read_spans(&mut r)?,
                inner: r.bytes()?.to_vec(),
            },
            t => return Err(proto(format!("unknown message tag {t}"))),
        };
        if !r.is_done() {
            return Err(proto("trailing bytes in frame"));
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(m: Message) {
        let encoded = m.encode();
        let decoded = Message::decode(&encoded).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn all_messages_round_trip() {
        round_trip(Message::Login {
            user: "monetdb".into(),
            password: "secret".into(),
            database: "demo".into(),
        });
        round_trip(Message::Query {
            sql: "SELECT * FROM t".into(),
        });
        round_trip(Message::ExtractInputs {
            query: "SELECT f(i) FROM t".into(),
            udf: "f".into(),
            options: TransferOptions {
                compress: true,
                encrypt: true,
                sample: Some(100),
                ..Default::default()
            },
            transfer_id: 42,
        });
        round_trip(Message::ExtractInputs {
            query: "SELECT f(i) FROM t".into(),
            udf: "f".into(),
            options: TransferOptions::compressed().with_block_size(64 * 1024),
            transfer_id: 43,
        });
        round_trip(Message::ListFunctions);
        round_trip(Message::GetFunction { name: "f".into() });
        round_trip(Message::Ping);
        round_trip(Message::LoginOk { session: 7 });
        round_trip(Message::ResultSet {
            result: WireResult::Affected {
                rows: 3,
                message: "3 row(s) inserted".into(),
            },
            udf_stdout: String::new(),
        });
        round_trip(Message::Extracted {
            payload: vec![1, 2, 3],
            raw_len: 100,
            options: TransferOptions::default(),
            transfer_id: 1,
        });
        round_trip(Message::FunctionList {
            names: vec!["a".into(), "b".into()],
        });
        round_trip(Message::FunctionInfo(FunctionInfo {
            name: "f".into(),
            params: vec![("i".into(), "INTEGER".into())],
            return_type: "DOUBLE".into(),
            language: "PYTHON".into(),
            body: "return i\n".into(),
        }));
        round_trip(Message::Error {
            code: "UdfError".into(),
            message: "boom".into(),
            traceback: Some("Traceback...".into()),
        });
        round_trip(Message::Pong);
    }

    #[test]
    fn delta_messages_round_trip() {
        round_trip(Message::ExtractDelta {
            query: "SELECT f(i) FROM t".into(),
            udf: "f".into(),
            options: TransferOptions {
                compress: true,
                encrypt: true,
                ..Default::default()
            }
            .with_block_size(64 * 1024),
            transfer_id: 9,
            epochs: vec![("t".into(), 3), ("sys.functions".into(), 1)],
            digests: vec![[7u8; 32], [9u8; 32]],
        });
        // Cold request: nothing cached yet.
        round_trip(Message::ExtractDelta {
            query: "SELECT f(i) FROM t".into(),
            udf: "f".into(),
            options: TransferOptions::plain(),
            transfer_id: 10,
            epochs: vec![],
            digests: vec![],
        });
        round_trip(Message::DeltaNotModified { transfer_id: 9 });
        round_trip(Message::DeltaBlocks {
            options: TransferOptions::compressed(),
            transfer_id: 11,
            raw_len: 300_000,
            epochs: vec![("numbers".into(), 12)],
            digests: vec![[1u8; 32], [2u8; 32]],
            blocks: vec![DeltaBlock {
                index: 1,
                enc: 0,
                body: vec![1, 2, 3, 4, 5],
            }],
        });
    }

    #[test]
    fn delta_frames_carry_the_version_gate_bit() {
        // The options byte of a delta message must set bit 4 — that's what
        // keeps an old-format peer from misparsing it — and a delta frame
        // *without* the bit must be rejected.
        let msg = Message::ExtractDelta {
            query: "q".into(),
            udf: "f".into(),
            options: TransferOptions::plain(),
            transfer_id: 1,
            epochs: vec![],
            digests: vec![],
        };
        let encoded = msg.encode();
        let mut out = Vec::new();
        put_options_delta(&mut out, &TransferOptions::plain());
        assert_eq!(out[0] & 16, 16);
        // Strip the bit in the frame: decode must fail loudly. The options
        // byte sits at a fixed offset: tag + "q" (2 bytes) + "f" (2 bytes).
        let at = 5;
        assert_eq!(encoded[at] & 16, 16);
        let mut stripped = encoded.clone();
        stripped[at] &= !16;
        let err = Message::decode(&stripped).unwrap_err();
        assert!(
            err.to_string().contains("without the delta option flag"),
            "{err}"
        );
        assert_eq!(Message::decode(&encoded).unwrap(), msg);
    }

    #[test]
    fn hostile_delta_counts_are_rejected_before_allocation() {
        // A tiny frame declaring 2^40 digests (or epochs, or more shipped
        // blocks than digests) must fail on the count, not allocate.
        let mut base = Vec::new();
        base.push(7u8);
        write_bytes(&mut base, "q");
        write_bytes(&mut base, "f");
        put_options_delta(&mut base, &TransferOptions::plain());
        write_u64(&mut base, 1); // transfer_id

        let mut huge_epochs = base.clone();
        write_u64(&mut huge_epochs, 1 << 40);
        let err = Message::decode(&huge_epochs).unwrap_err();
        assert!(err.to_string().contains("implausible epoch count"), "{err}");

        let mut huge_digests = base.clone();
        write_u64(&mut huge_digests, 0); // no epochs
        write_u64(&mut huge_digests, 1 << 40);
        let err = Message::decode(&huge_digests).unwrap_err();
        assert!(
            err.to_string().contains("implausible digest count"),
            "{err}"
        );

        let mut overfull = Vec::new();
        overfull.push(72u8);
        put_options_delta(&mut overfull, &TransferOptions::plain());
        write_u64(&mut overfull, 1); // transfer_id
        write_u64(&mut overfull, 100); // raw_len
        write_u64(&mut overfull, 0); // no epochs
        put_digests(&mut overfull, &[[0u8; 32]]);
        write_u64(&mut overfull, 2); // 2 shipped blocks > 1 digest
        let err = Message::decode(&overfull).unwrap_err();
        assert!(err.to_string().contains("more shipped blocks"), "{err}");
    }

    #[test]
    fn traced_envelopes_round_trip() {
        let inner = Message::Query {
            sql: "SELECT f(i) FROM numbers".into(),
        }
        .encode();
        round_trip(Message::Traced {
            trace: 42,
            inner: inner.clone(),
        });
        round_trip(Message::TracedReply {
            spans: vec![
                SpanRecord {
                    id: 2,
                    parent: 1,
                    name: "engine.op.scan".into(),
                    duration_ns: 1_500,
                    fields: vec![("rows".into(), "6".into())],
                },
                SpanRecord {
                    id: 1,
                    parent: 0,
                    name: "server.command".into(),
                    duration_ns: 9_000,
                    fields: vec![],
                },
            ],
            inner,
        });
        round_trip(Message::TracedReply {
            spans: vec![],
            inner: Message::Pong.encode(),
        });
    }

    #[test]
    fn traced_envelope_rejects_zero_trace_and_hostile_span_counts() {
        // Trace id 0 means "untraced" client-side and must never appear
        // on the wire.
        let mut zero = Vec::new();
        zero.push(8u8);
        write_u64(&mut zero, 0);
        write_bytes(&mut zero, Message::Ping.encode());
        let err = Message::decode(&zero).unwrap_err();
        assert!(err.to_string().contains("without a trace id"), "{err}");

        // A tiny reply declaring 2^40 spans must fail on the count.
        let mut huge = Vec::new();
        huge.push(73u8);
        write_u64(&mut huge, 1 << 40);
        let err = Message::decode(&huge).unwrap_err();
        assert!(err.to_string().contains("implausible span count"), "{err}");

        // Same for a span declaring an implausible field count.
        let mut fields = Vec::new();
        fields.push(73u8);
        write_u64(&mut fields, 1);
        write_u64(&mut fields, 1); // id
        write_u64(&mut fields, 0); // parent
        write_bytes(&mut fields, "s");
        write_u64(&mut fields, 5); // duration
        write_u64(&mut fields, 1 << 40); // field count
        let err = Message::decode(&fields).unwrap_err();
        assert!(
            err.to_string().contains("implausible span field count"),
            "{err}"
        );
    }

    #[test]
    fn unknown_option_flag_bits_are_rejected() {
        // A future flag bit may imply a trailing field (as bits 2 and 3
        // already do); ignoring it would desync the rest of the frame,
        // so this version must fail loudly instead.
        let mut out = Vec::new();
        put_options(&mut out, &TransferOptions::compressed());
        out[0] |= 16;
        let err = read_options(&mut Reader::new(&out)).unwrap_err();
        assert!(
            err.to_string().contains("unknown transfer option flag"),
            "{err}"
        );
    }

    #[test]
    fn table_round_trip_with_all_types() {
        let t = WireTable {
            name: "r".into(),
            columns: vec![
                ("i".into(), "INTEGER".into()),
                ("d".into(), "DOUBLE".into()),
                ("s".into(), "STRING".into()),
                ("b".into(), "BOOLEAN".into()),
                ("x".into(), "BLOB".into()),
            ],
            rows: vec![
                vec![
                    WireValue::Int(-5),
                    WireValue::Double(2.5),
                    WireValue::Str("héllo".into()),
                    WireValue::Bool(true),
                    WireValue::Blob(vec![0, 255]),
                ],
                vec![
                    WireValue::Null,
                    WireValue::Null,
                    WireValue::Null,
                    WireValue::Null,
                    WireValue::Null,
                ],
            ],
        };
        round_trip(Message::ResultSet {
            result: WireResult::Table(t),
            udf_stdout: "printed\n".into(),
        });
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Message::decode(&[]).is_err());
        assert!(Message::decode(&[200]).is_err());
        let mut good = Message::Ping.encode();
        good.push(0); // trailing byte
        assert!(Message::decode(&good).is_err());
        let mut truncated = Message::Query {
            sql: "SELECT 1".into(),
        }
        .encode();
        truncated.truncate(truncated.len() - 2);
        assert!(Message::decode(&truncated).is_err());
        // A declared length near `u64::MAX` must not wrap the cursor
        // arithmetic into an in-bounds slice (or a panic).
        let mut huge = vec![2u8];
        write_u64(&mut huge, u64::MAX);
        huge.extend_from_slice(b"SELECT 1");
        assert_eq!(Message::decode(&huge), Err(proto("truncated frame")));
        // Row and name counts the frame cannot hold are refused before
        // anything is reserved: zero columns by 2^40 rows (a zero-column
        // row reads no bytes), one column by 2^20 rows in 20 bytes, and
        // 2^40 function names.
        let result_set = |ncols: &[&str], nrows: u64| {
            let mut frame = vec![65u8, 0];
            write_bytes(&mut frame, "t");
            write_u64(&mut frame, ncols.len() as u64);
            for name in ncols {
                write_bytes(&mut frame, name);
                write_bytes(&mut frame, "INTEGER");
            }
            write_u64(&mut frame, nrows);
            frame.resize(20, 1);
            frame
        };
        for frame in [result_set(&[], 1 << 40), result_set(&["i"], 1 << 20)] {
            assert_eq!(frame.len(), 20);
            assert_eq!(Message::decode(&frame), Err(proto("implausible row count")));
        }
        let mut names = vec![67u8];
        write_u64(&mut names, 1 << 40);
        assert_eq!(
            Message::decode(&names),
            Err(proto("implausible function count"))
        );
    }

    #[test]
    fn wire_table_from_engine_table() {
        let db = monetlite::Engine::new();
        db.execute("CREATE TABLE t (i INTEGER, s STRING)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
            .unwrap();
        let table = db.execute("SELECT * FROM t").unwrap().into_table().unwrap();
        let wt = WireTable::from_table(&table);
        assert_eq!(wt.columns.len(), 2);
        assert_eq!(wt.rows.len(), 2);
        assert_eq!(wt.rows[1][1], WireValue::Str("b".into()));
    }

    #[test]
    fn ascii_render() {
        let t = WireTable {
            name: "r".into(),
            columns: vec![("name".into(), "STRING".into())],
            rows: vec![vec![WireValue::Str("train_rnforest".into())]],
        };
        let s = t.render_ascii();
        assert!(s.contains("| train_rnforest |"));
        assert!(s.contains("1 row(s)"));
    }
}
