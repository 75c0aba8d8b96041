//! Durable storage for [`Engine`](crate::engine::Engine): a write-ahead log plus columnar
//! snapshots, the MonetDBLite half of the embedded mode (DESIGN §17).
//!
//! An engine opened on a directory ([`Engine::open`](crate::engine::Engine::open)) records every
//! catalog-mutating top-level statement into an append-only WAL and
//! periodically folds the log into a columnar snapshot of the whole
//! catalog. Reopening the directory loads the snapshot and replays the
//! WAL tail, so tables, rows, and stored UDFs survive a process restart —
//! including a crash mid-append, which torn-tail recovery truncates back
//! to the last complete record.
//!
//! # File formats
//!
//! Both files live directly in the storage directory and share an 8-byte
//! header: a 4-byte magic (`DUWL` for `wal.log`, `DUSN` for
//! `snapshot.db`), a format-version byte (currently 1), and three
//! reserved zero bytes.
//!
//! **WAL records** (`wal.log`) are length-prefixed frames:
//!
//! ```text
//! u32 LE  compressed length N
//! N bytes LZ-compressed payload          (codecs::lz)
//! u32 LE  FNV-1a-32 of the compressed bytes
//! payload = varint seq | varint sql_len | sql bytes (UTF-8)
//! ```
//!
//! Sequence numbers start at 1 and never reset — a checkpoint truncates
//! the log but the next record continues the old numbering, which is what
//! makes recovery idempotent (see below).
//!
//! **Snapshots** (`snapshot.db`) are a single frame of the same shape
//! whose payload serializes the catalog: the sequence number it covers,
//! the two epoch counters, the per-table epochs, then every table
//! column-by-column (typed vectors, zigzag varints for integers, bit
//! patterns for doubles, a null mask when present) and every stored
//! function definition.
//!
//! # Replay rules
//!
//! 1. A leftover `snapshot.tmp` is deleted: it is a checkpoint that never
//!    reached its atomic rename, so `snapshot.db` (or an empty catalog)
//!    is still the authoritative base.
//! 2. `snapshot.db`, when present, must decode cleanly — it was fsynced
//!    and renamed into place atomically, so corruption here is a real
//!    fault and fails loudly with a `StorageError` rather than guessing.
//! 3. The WAL is scanned front to back. The first malformed record —
//!    short length prefix, short body, checksum mismatch, undecodable
//!    payload — is treated as a torn tail: the file is truncated back to
//!    the last good record and the scan stops. A torn tail can only ever
//!    drop whole trailing statements, never apply half of one.
//! 4. Records with `seq <=` the snapshot's covered sequence are skipped
//!    (they are already folded into the snapshot; this happens when a
//!    crash lands between the checkpoint's rename and its log
//!    truncation). The rest are re-executed in order.
//!
//! # Fsync policy
//!
//! [`FsyncPolicy::Always`] (the default) syncs the WAL after every append
//! and the snapshot before its rename — a crash loses at most the
//! statement that was being written. [`FsyncPolicy::Never`] leaves
//! flushing to the OS: much faster, still torn-tail safe on process
//! crash, but a power failure may lose recent statements.
//!
//! # Open-write-reopen round-trip
//!
//! ```
//! use monetlite::{Engine, FsyncPolicy, StorageOptions};
//!
//! let dir = std::env::temp_dir().join(format!("monetlite-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let opts = StorageOptions { fsync: FsyncPolicy::Never, ..StorageOptions::default() };
//! {
//!     let db = Engine::open_with(&dir, opts).unwrap();
//!     db.execute("CREATE TABLE t (i INTEGER)").unwrap();
//!     db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
//!     db.execute(
//!         "CREATE FUNCTION double(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return i * 2 }",
//!     )
//!     .unwrap();
//! } // process "restarts" here
//! let db = Engine::open_with(&dir, opts).unwrap();
//! let t = db.execute("SELECT double(i) FROM t").unwrap().into_table().unwrap();
//! assert_eq!(t.row_count(), 3);
//! assert_eq!(db.function_names(), vec!["double".to_string()]);
//! std::fs::remove_dir_all(&dir).ok();
//! ```

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use codecs::varint::{write_bytes, write_u64, write_zigzag, ReadError, Reader};

use crate::catalog::{Catalog, FunctionDef, FunctionReturn};
use crate::error::DbError;
use crate::segments::Segments;
use crate::table::Table;
use crate::types::{Column, ColumnData, SqlType};

/// When the WAL is flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fsync` after every WAL append and before every snapshot rename
    /// (default): a crash loses at most the record being written.
    #[default]
    Always,
    /// Leave flushing to the OS page cache: faster, torn-tail safe
    /// against process crashes, but a power failure may lose recent
    /// statements.
    Never,
}

impl FsyncPolicy {
    /// The allowed spellings, for error messages.
    pub const ALLOWED: &'static str = "'always' or 'never'";

    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "never" => Some(FsyncPolicy::Never),
            _ => None,
        }
    }

    pub fn as_str(&self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Never => "never",
        }
    }
}

/// Tuning knobs of the persistence layer (`Settings.storage` mirrors
/// these in the IDE's settings file).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageOptions {
    /// WAL durability (see [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
    /// Fold the WAL into a snapshot after this many appended records;
    /// `0` disables automatic checkpoints (explicit
    /// [`Engine::checkpoint`](crate::engine::Engine::checkpoint) still works).
    pub snapshot_every: u64,
}

impl Default for StorageOptions {
    fn default() -> Self {
        StorageOptions {
            fsync: FsyncPolicy::Always,
            snapshot_every: 1024,
        }
    }
}

/// A cheap, copyable view of the persistence state — what `devudf open`
/// prints and what tests assert on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageStats {
    /// The storage directory.
    pub dir: PathBuf,
    /// Sequence number of the last appended WAL record (0 = none ever).
    pub last_seq: u64,
    /// Sequence number covered by `snapshot.db` (0 = no snapshot).
    pub base_seq: u64,
    /// WAL records appended since the last checkpoint.
    pub wal_records: u64,
    /// Current size of `wal.log` in bytes (header included).
    pub wal_bytes: u64,
}

/// What [`Storage::open`] recovered from disk, for the engine to apply
/// before it attaches the storage handle.
pub(crate) struct Recovery {
    /// The snapshot's catalog, if a snapshot existed.
    pub catalog: Option<Catalog>,
    /// WAL statements past the snapshot, in append order.
    pub wal: Vec<String>,
}

const WAL_MAGIC: &[u8; 4] = b"DUWL";
const SNAPSHOT_MAGIC: &[u8; 4] = b"DUSN";
const FORMAT_VERSION: u8 = 1;
const HEADER_LEN: usize = 8;
/// Upper bound on a single compressed frame; anything larger in a length
/// prefix is corruption, not data.
const MAX_FRAME_LEN: u32 = 1 << 30;

const WAL_FILE: &str = "wal.log";
const SNAPSHOT_FILE: &str = "snapshot.db";
const SNAPSHOT_TMP: &str = "snapshot.tmp";

/// The open WAL + snapshot pair behind a persistent [`Engine`](crate::engine::Engine).
#[derive(Debug)]
pub(crate) struct Storage {
    dir: PathBuf,
    wal: File,
    options: StorageOptions,
    next_seq: u64,
    base_seq: u64,
    records_since_checkpoint: u64,
    wal_bytes: u64,
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> DbError {
    DbError::storage(format!("{what} {}: {e}", path.display()))
}

fn header(magic: &[u8; 4]) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..4].copy_from_slice(magic);
    h[4] = FORMAT_VERSION;
    h
}

/// Frame `payload` as `u32 clen | lz(payload) | u32 fnv1a_32(compressed)`.
fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let compressed = codecs::lz::compress(payload);
    let mut frame = Vec::with_capacity(compressed.len() + 8);
    frame.extend_from_slice(&(compressed.len() as u32).to_le_bytes());
    frame.extend_from_slice(&compressed);
    frame.extend_from_slice(&codecs::fnv1a_32(&compressed).to_le_bytes());
    frame
}

/// Decode one frame starting at `buf[pos..]`. Returns the decompressed
/// payload and the frame's total length, or `None` for anything
/// malformed — which for the WAL means "torn tail from here on".
fn decode_frame(buf: &[u8], pos: usize) -> Option<(Vec<u8>, usize)> {
    let len_bytes = buf.get(pos..pos + 4)?;
    let clen = u32::from_le_bytes(len_bytes.try_into().ok()?);
    if clen > MAX_FRAME_LEN {
        return None;
    }
    let clen = clen as usize;
    let body = buf.get(pos + 4..pos + 4 + clen)?;
    let sum_bytes = buf.get(pos + 4 + clen..pos + 8 + clen)?;
    let sum = u32::from_le_bytes(sum_bytes.try_into().ok()?);
    if codecs::fnv1a_32(body) != sum {
        return None;
    }
    let payload = codecs::lz::decompress(body).ok()?;
    Some((payload, 8 + clen))
}

// ---------------------------------------------------------------------
// Payload reader/writer helpers
// ---------------------------------------------------------------------

/// Snapshot reads fail as typed storage errors.
impl From<ReadError> for DbError {
    fn from(e: ReadError) -> DbError {
        match e {
            ReadError::Varint(e) => DbError::storage(format!("bad varint in snapshot: {e:?}")),
            ReadError::Truncated => DbError::storage("snapshot payload truncated"),
            ReadError::Utf8 => DbError::storage("snapshot string is not UTF-8"),
        }
    }
}

fn type_tag(t: SqlType) -> u8 {
    match t {
        SqlType::Integer => 0,
        SqlType::Double => 1,
        SqlType::String => 2,
        SqlType::Boolean => 3,
        SqlType::Blob => 4,
    }
}

fn tag_type(tag: u8) -> Result<SqlType, DbError> {
    Ok(match tag {
        0 => SqlType::Integer,
        1 => SqlType::Double,
        2 => SqlType::String,
        3 => SqlType::Boolean,
        4 => SqlType::Blob,
        other => return Err(DbError::storage(format!("unknown column type tag {other}"))),
    })
}

// ---------------------------------------------------------------------
// Catalog snapshot codec
// ---------------------------------------------------------------------

fn encode_column(out: &mut Vec<u8>, col: &Column) {
    write_bytes(out, &col.name);
    out.push(type_tag(col.sql_type()));
    write_u64(out, col.len() as u64);
    match &col.data {
        ColumnData::Int(v) => {
            for &x in v.iter() {
                write_zigzag(out, x);
            }
        }
        ColumnData::Double(v) => {
            for &x in v.iter() {
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
        ColumnData::Str(v) => {
            for s in v.iter() {
                write_bytes(out, s);
            }
        }
        ColumnData::Bool(v) => {
            for &b in v.iter() {
                out.push(b as u8);
            }
        }
        ColumnData::Blob(v) => {
            for b in v.iter() {
                write_bytes(out, b);
            }
        }
    }
    if col.has_nulls() {
        out.push(1);
        for i in 0..col.len() {
            out.push(col.is_null(i) as u8);
        }
    } else {
        out.push(0);
    }
}

fn decode_column(r: &mut Reader) -> Result<Column, DbError> {
    let name = r.str()?.to_string();
    let t = tag_type(r.byte()?)?;
    let rows = r.varint()? as usize;
    let data = match t {
        SqlType::Integer => {
            let mut v = Vec::with_capacity(rows);
            for _ in 0..rows {
                v.push(r.zigzag()?);
            }
            ColumnData::Int(v.into())
        }
        SqlType::Double => {
            let mut v = Vec::with_capacity(rows);
            for _ in 0..rows {
                let bits = u64::from_le_bytes(r.take(8)?.try_into().expect("8-byte slice"));
                v.push(f64::from_bits(bits));
            }
            ColumnData::Double(v.into())
        }
        SqlType::String => {
            let mut v = Vec::with_capacity(rows);
            for _ in 0..rows {
                v.push(r.str()?.to_string());
            }
            ColumnData::Str(v.into())
        }
        SqlType::Boolean => {
            let mut v = Vec::with_capacity(rows);
            for _ in 0..rows {
                v.push(r.byte()? != 0);
            }
            ColumnData::Bool(v.into())
        }
        SqlType::Blob => {
            let mut v = Vec::with_capacity(rows);
            for _ in 0..rows {
                v.push(r.bytes()?.to_vec());
            }
            ColumnData::Blob(v.into())
        }
    };
    let nulls = if r.byte()? == 1 {
        let mut mask = Vec::with_capacity(rows);
        for _ in 0..rows {
            mask.push(r.byte()? != 0);
        }
        mask.into()
    } else {
        Segments::new()
    };
    Ok(Column { name, data, nulls })
}

fn encode_function(out: &mut Vec<u8>, f: &FunctionDef) {
    write_bytes(out, &f.name);
    write_u64(out, f.params.len() as u64);
    for (n, t) in &f.params {
        write_bytes(out, n);
        out.push(type_tag(*t));
    }
    match &f.returns {
        FunctionReturn::Scalar(t) => {
            out.push(0);
            out.push(type_tag(*t));
        }
        FunctionReturn::Table(cols) => {
            out.push(1);
            write_u64(out, cols.len() as u64);
            for (n, t) in cols {
                write_bytes(out, n);
                out.push(type_tag(*t));
            }
        }
    }
    write_bytes(out, &f.language);
    write_bytes(out, &f.body);
}

fn decode_function(r: &mut Reader) -> Result<FunctionDef, DbError> {
    let name = r.str()?.to_string();
    let n_params = r.varint()? as usize;
    let mut params = Vec::with_capacity(n_params);
    for _ in 0..n_params {
        let pname = r.str()?.to_string();
        params.push((pname, tag_type(r.byte()?)?));
    }
    let returns = match r.byte()? {
        0 => FunctionReturn::Scalar(tag_type(r.byte()?)?),
        1 => {
            let n = r.varint()? as usize;
            let mut cols = Vec::with_capacity(n);
            for _ in 0..n {
                let cname = r.str()?.to_string();
                cols.push((cname, tag_type(r.byte()?)?));
            }
            FunctionReturn::Table(cols)
        }
        other => {
            return Err(DbError::storage(format!(
                "unknown function return tag {other}"
            )))
        }
    };
    let language = r.str()?.to_string();
    let body = r.str()?.to_string();
    Ok(FunctionDef {
        name,
        params,
        returns,
        language,
        body,
    })
}

/// Serialize the whole catalog plus the WAL sequence it covers.
fn encode_snapshot(catalog: &Catalog, covered_seq: u64) -> Vec<u8> {
    let (tables, functions, epochs, functions_epoch, mutations) = catalog.storage_state();
    let mut out = Vec::new();
    write_u64(&mut out, covered_seq);
    write_u64(&mut out, mutations);
    write_u64(&mut out, functions_epoch);
    write_u64(&mut out, epochs.len() as u64);
    for (key, epoch) in epochs {
        write_bytes(&mut out, key);
        write_u64(&mut out, *epoch);
    }
    write_u64(&mut out, tables.len() as u64);
    for table in tables.values() {
        write_bytes(&mut out, &table.name);
        write_u64(&mut out, table.columns.len() as u64);
        for col in table.columns.iter() {
            encode_column(&mut out, col);
        }
    }
    write_u64(&mut out, functions.len() as u64);
    for f in functions.values() {
        encode_function(&mut out, f);
    }
    out
}

/// Inverse of [`encode_snapshot`]: the catalog and the covered sequence.
fn decode_snapshot(payload: &[u8]) -> Result<(Catalog, u64), DbError> {
    let mut r = Reader::new(payload);
    let covered_seq = r.varint()?;
    let mutations = r.varint()?;
    let functions_epoch = r.varint()?;
    let n_epochs = r.varint()? as usize;
    let mut epochs = BTreeMap::new();
    for _ in 0..n_epochs {
        let key = r.str()?.to_string();
        let epoch = r.varint()?;
        epochs.insert(key, epoch);
    }
    let n_tables = r.varint()? as usize;
    let mut tables = BTreeMap::new();
    for _ in 0..n_tables {
        let name = r.str()?.to_string();
        let n_cols = r.varint()? as usize;
        let mut cols = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            cols.push(decode_column(&mut r)?);
        }
        let table = Table::from_columns(name.clone(), cols)
            .map_err(|e| DbError::storage(format!("snapshot table '{name}': {}", e.message)))?;
        tables.insert(name.to_ascii_lowercase(), table);
    }
    let n_functions = r.varint()? as usize;
    let mut functions = BTreeMap::new();
    for _ in 0..n_functions {
        let f = decode_function(&mut r)?;
        functions.insert(f.name.to_ascii_lowercase(), f);
    }
    if !r.is_done() {
        return Err(DbError::storage("trailing bytes after snapshot payload"));
    }
    Ok((
        Catalog::from_storage_state(tables, functions, epochs, functions_epoch, mutations),
        covered_seq,
    ))
}

// ---------------------------------------------------------------------
// Storage proper
// ---------------------------------------------------------------------

impl Storage {
    /// Open (creating if needed) the storage directory, running recovery:
    /// stale `snapshot.tmp` removal, snapshot decode, WAL scan with
    /// torn-tail truncation.
    pub fn open(dir: &Path, options: StorageOptions) -> Result<(Storage, Recovery), DbError> {
        fs::create_dir_all(dir).map_err(|e| io_err("cannot create storage dir", dir, e))?;
        let tmp = dir.join(SNAPSHOT_TMP);
        if tmp.exists() {
            // An unfinished checkpoint: never renamed, never authoritative.
            fs::remove_file(&tmp).map_err(|e| io_err("cannot remove stale", &tmp, e))?;
        }

        let snap_path = dir.join(SNAPSHOT_FILE);
        let (catalog, base_seq) = if snap_path.exists() {
            let data =
                fs::read(&snap_path).map_err(|e| io_err("cannot read snapshot", &snap_path, e))?;
            let (catalog, seq) = Self::decode_snapshot_file(&data)
                .map_err(|e| DbError::storage(format!("{}: {}", snap_path.display(), e.message)))?;
            (Some(catalog), seq)
        } else {
            (None, 0)
        };

        let wal_path = dir.join(WAL_FILE);
        let mut truncated_tail = false;
        let mut records: Vec<(u64, String)> = Vec::new();
        let mut wal_bytes = HEADER_LEN as u64;
        if wal_path.exists() {
            let data = fs::read(&wal_path).map_err(|e| io_err("cannot read WAL", &wal_path, e))?;
            if data.is_empty() {
                // A crash can leave a created-but-unwritten file; rewrite
                // the header below.
                fs::write(&wal_path, header(WAL_MAGIC))
                    .map_err(|e| io_err("cannot init WAL", &wal_path, e))?;
            } else {
                if data.len() < HEADER_LEN || &data[..4] != WAL_MAGIC || data[4] != FORMAT_VERSION {
                    return Err(DbError::storage(format!(
                        "{}: bad WAL header (not a devUDF WAL, or unsupported version)",
                        wal_path.display()
                    )));
                }
                let mut pos = HEADER_LEN;
                while pos < data.len() {
                    match decode_frame(&data, pos).and_then(|(payload, frame_len)| {
                        decode_wal_payload(&payload).map(|rec| (rec, frame_len))
                    }) {
                        Some(((seq, sql), frame_len)) => {
                            records.push((seq, sql));
                            pos += frame_len;
                        }
                        None => {
                            // Torn tail: keep the prefix, drop the rest.
                            truncated_tail = true;
                            break;
                        }
                    }
                }
                if truncated_tail {
                    let f = OpenOptions::new()
                        .write(true)
                        .open(&wal_path)
                        .map_err(|e| io_err("cannot open WAL", &wal_path, e))?;
                    f.set_len(pos as u64)
                        .map_err(|e| io_err("cannot truncate torn WAL", &wal_path, e))?;
                    obs::counter!("monet.storage.torn_tails").inc();
                }
                wal_bytes = pos as u64;
            }
        } else {
            fs::write(&wal_path, header(WAL_MAGIC))
                .map_err(|e| io_err("cannot init WAL", &wal_path, e))?;
        }

        let last_seq = records.last().map(|(seq, _)| *seq).unwrap_or(0);
        let next_seq = last_seq.max(base_seq) + 1;
        // Records already folded into the snapshot are skipped: a crash
        // between a checkpoint's rename and its WAL truncation leaves
        // them behind, and replaying them would double-apply.
        let replay: Vec<String> = records
            .into_iter()
            .filter(|(seq, _)| *seq > base_seq)
            .map(|(_, sql)| sql)
            .collect();
        let records_since_checkpoint = replay.len() as u64;

        let wal = OpenOptions::new()
            .append(true)
            .open(&wal_path)
            .map_err(|e| io_err("cannot open WAL for append", &wal_path, e))?;

        obs::counter!("monet.storage.opens").inc();
        Ok((
            Storage {
                dir: dir.to_path_buf(),
                wal,
                options,
                next_seq,
                base_seq,
                records_since_checkpoint,
                wal_bytes,
            },
            Recovery {
                catalog,
                wal: replay,
            },
        ))
    }

    fn decode_snapshot_file(data: &[u8]) -> Result<(Catalog, u64), DbError> {
        if data.len() < HEADER_LEN || &data[..4] != SNAPSHOT_MAGIC || data[4] != FORMAT_VERSION {
            return Err(DbError::storage(
                "bad snapshot header (not a devUDF snapshot, or unsupported version)",
            ));
        }
        let (payload, frame_len) = decode_frame(data, HEADER_LEN)
            .ok_or_else(|| DbError::storage("snapshot frame corrupt (length or checksum)"))?;
        if HEADER_LEN + frame_len != data.len() {
            return Err(DbError::storage("trailing bytes after snapshot frame"));
        }
        decode_snapshot(&payload)
    }

    /// Append one statement to the WAL (and fsync, per policy), under a
    /// `monet.storage.append` span whose `bytes` field is the frame size.
    pub fn append(&mut self, sql: &str) -> Result<(), DbError> {
        let mut span = obs::trace::span_active("monet.storage.append");
        let mut payload = Vec::with_capacity(sql.len() + 12);
        write_u64(&mut payload, self.next_seq);
        write_bytes(&mut payload, sql);
        let frame = encode_frame(&payload);
        span.field("bytes", frame.len());
        let wal_path = self.dir.join(WAL_FILE);
        self.wal
            .write_all(&frame)
            .map_err(|e| io_err("WAL append failed", &wal_path, e))?;
        if self.options.fsync == FsyncPolicy::Always {
            self.wal
                .sync_all()
                .map_err(|e| io_err("WAL fsync failed", &wal_path, e))?;
        }
        self.next_seq += 1;
        self.records_since_checkpoint += 1;
        self.wal_bytes += frame.len() as u64;
        obs::counter!("monet.storage.wal_appends").inc();
        Ok(())
    }

    /// Whether the automatic checkpoint cadence is due.
    pub fn should_checkpoint(&self) -> bool {
        self.options.snapshot_every > 0
            && self.records_since_checkpoint >= self.options.snapshot_every
    }

    /// Fold the catalog into `snapshot.db` (write-tmp, fsync, atomic
    /// rename) and truncate the WAL back to its header, under a
    /// `monet.storage.checkpoint` span whose `bytes` field is the snapshot
    /// file size.
    pub fn checkpoint(&mut self, catalog: &Catalog) -> Result<(), DbError> {
        let mut span = obs::trace::span_active("monet.storage.checkpoint");
        let covered_seq = self.next_seq - 1;
        let mut file_bytes = header(SNAPSHOT_MAGIC).to_vec();
        file_bytes.extend_from_slice(&encode_frame(&encode_snapshot(catalog, covered_seq)));
        span.field("bytes", file_bytes.len());

        let tmp = self.dir.join(SNAPSHOT_TMP);
        let snap = self.dir.join(SNAPSHOT_FILE);
        {
            let mut f = File::create(&tmp).map_err(|e| io_err("cannot create", &tmp, e))?;
            f.write_all(&file_bytes)
                .map_err(|e| io_err("cannot write", &tmp, e))?;
            // The rename only publishes durable bytes: always sync the
            // tmp file, whatever the WAL policy — a snapshot that decodes
            // half-written would fail loudly on reopen (rule 2).
            f.sync_all().map_err(|e| io_err("cannot fsync", &tmp, e))?;
        }
        fs::rename(&tmp, &snap).map_err(|e| io_err("cannot rename snapshot into", &snap, e))?;

        let wal_path = self.dir.join(WAL_FILE);
        self.wal
            .set_len(HEADER_LEN as u64)
            .map_err(|e| io_err("cannot truncate WAL after checkpoint", &wal_path, e))?;
        if self.options.fsync == FsyncPolicy::Always {
            self.wal
                .sync_all()
                .map_err(|e| io_err("WAL fsync failed", &wal_path, e))?;
        }
        self.base_seq = covered_seq;
        self.records_since_checkpoint = 0;
        self.wal_bytes = HEADER_LEN as u64;
        obs::counter!("monet.storage.checkpoints").inc();
        Ok(())
    }

    pub fn stats(&self) -> StorageStats {
        StorageStats {
            dir: self.dir.clone(),
            last_seq: self.next_seq - 1,
            base_seq: self.base_seq,
            wal_records: self.records_since_checkpoint,
            wal_bytes: self.wal_bytes,
        }
    }
}

/// Decode a WAL record payload: `varint seq | varint len | sql`.
fn decode_wal_payload(payload: &[u8]) -> Option<(u64, String)> {
    let mut r = Reader::new(payload);
    let seq = r.varint().ok()?;
    let sql = r.str().ok()?;
    r.is_done().then(|| (seq, sql.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::types::SqlValue;

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "monetlite-storage-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    /// The user tables `sys.tables` lists.
    fn table_names(db: &Engine) -> Vec<SqlValue> {
        let t = db
            .execute("SELECT name FROM sys.tables")
            .unwrap()
            .into_table()
            .unwrap();
        (0..t.row_count()).map(|i| t.row(i)[0].clone()).collect()
    }

    fn no_sync() -> StorageOptions {
        StorageOptions {
            fsync: FsyncPolicy::Never,
            ..StorageOptions::default()
        }
    }

    #[test]
    fn fsync_policy_parses_and_rejects() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("Always"), None);
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
        assert_eq!(FsyncPolicy::Always.as_str(), "always");
    }

    #[test]
    fn wal_survives_reopen_without_checkpoint() {
        let dir = temp_dir("wal-reopen");
        {
            let db = Engine::open_with(&dir, no_sync()).unwrap();
            db.execute("CREATE TABLE t (i INTEGER, s STRING)").unwrap();
            db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
                .unwrap();
        }
        let db = Engine::open_with(&dir, no_sync()).unwrap();
        let t = db
            .execute("SELECT i, s FROM t")
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.row(1), vec![SqlValue::Int(2), SqlValue::Str("b".into())]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_then_reopen_restores_exact_catalog_state() {
        let dir = temp_dir("checkpoint");
        let (version, fn_epoch) = {
            let db = Engine::open_with(&dir, no_sync()).unwrap();
            db.execute("CREATE TABLE t (i INTEGER, d DOUBLE, b BOOLEAN, bl BLOB)")
                .unwrap();
            db.execute("INSERT INTO t VALUES (1, 1.5, true, NULL), (NULL, 2.5, false, NULL)")
                .unwrap();
            db.execute(
                "CREATE FUNCTION f(x INTEGER) RETURNS TABLE(a INTEGER, b STRING) LANGUAGE PYTHON { return {'a': x, 'b': 'hi'} }",
            )
            .unwrap();
            let stats = db.checkpoint().unwrap();
            assert_eq!(stats.wal_records, 0);
            assert_eq!(stats.base_seq, stats.last_seq);
            (
                db.catalog_version(),
                db.with_catalog(|c| c.functions_epoch()),
            )
        };
        let db = Engine::open_with(&dir, no_sync()).unwrap();
        // Counters restore exactly, not just table contents.
        assert_eq!(db.catalog_version(), version);
        assert_eq!(db.with_catalog(|c| c.functions_epoch()), fn_epoch);
        let t = db.execute("SELECT * FROM t").unwrap().into_table().unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.row(0)[1], SqlValue::Double(1.5));
        assert_eq!(t.row(1)[0], SqlValue::Null, "null mask survives");
        let f = db.get_function("f").unwrap().unwrap();
        assert_eq!(f.params, vec![("x".to_string(), SqlType::Integer)]);
        assert!(matches!(&f.returns, FunctionReturn::Table(cols) if cols.len() == 2));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_wal_tail_is_truncated_to_last_good_record() {
        let dir = temp_dir("torn");
        {
            let db = Engine::open_with(&dir, no_sync()).unwrap();
            db.execute("CREATE TABLE t (i INTEGER)").unwrap();
            db.execute("INSERT INTO t VALUES (1)").unwrap();
            db.execute("INSERT INTO t VALUES (2)").unwrap();
        }
        // Tear mid-record: drop the last few bytes of the final frame.
        let wal = dir.join(WAL_FILE);
        let len = fs::metadata(&wal).unwrap().len();
        let f = OpenOptions::new().write(true).open(&wal).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let db = Engine::open_with(&dir, no_sync()).unwrap();
        let t = db.execute("SELECT i FROM t").unwrap().into_table().unwrap();
        assert_eq!(
            t.row_count(),
            1,
            "torn statement dropped whole, prefix kept"
        );
        // The truncated file must reopen cleanly again (no repeated tear).
        drop(db);
        let db = Engine::open_with(&dir, no_sync()).unwrap();
        assert_eq!(
            db.execute("SELECT i FROM t")
                .unwrap()
                .into_table()
                .unwrap()
                .row_count(),
            1
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_wal_checksum_drops_the_tail() {
        let dir = temp_dir("badsum");
        {
            let db = Engine::open_with(&dir, no_sync()).unwrap();
            db.execute("CREATE TABLE t (i INTEGER)").unwrap();
            db.execute("INSERT INTO t VALUES (1)").unwrap();
        }
        let wal = dir.join(WAL_FILE);
        let mut data = fs::read(&wal).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0xff; // flip a checksum byte of the final record
        fs::write(&wal, &data).unwrap();
        let db = Engine::open_with(&dir, no_sync()).unwrap();
        assert_eq!(table_names(&db), vec![SqlValue::Str("t".into())]);
        assert_eq!(
            db.execute("SELECT i FROM t")
                .unwrap()
                .into_table()
                .unwrap()
                .row_count(),
            0,
            "the INSERT was the corrupted record"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_snapshot_tmp_is_discarded() {
        let dir = temp_dir("tmp");
        {
            let db = Engine::open_with(&dir, no_sync()).unwrap();
            db.execute("CREATE TABLE t (i INTEGER)").unwrap();
        }
        // Simulate a crash mid-checkpoint: a half-written tmp file.
        fs::write(dir.join(SNAPSHOT_TMP), b"DUSNgarbage").unwrap();
        let db = Engine::open_with(&dir, no_sync()).unwrap();
        assert_eq!(table_names(&db), vec![SqlValue::Str("t".into())]);
        assert!(!dir.join(SNAPSHOT_TMP).exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_between_rename_and_truncate_does_not_double_apply() {
        let dir = temp_dir("rename-crash");
        {
            let db = Engine::open_with(&dir, no_sync()).unwrap();
            db.execute("CREATE TABLE t (i INTEGER)").unwrap();
            db.execute("INSERT INTO t VALUES (1)").unwrap();
            // Checkpoint, then put the pre-checkpoint WAL back — exactly
            // the state a crash between rename and truncation leaves.
            let wal_before = fs::read(dir.join(WAL_FILE)).unwrap();
            db.checkpoint().unwrap();
            fs::write(dir.join(WAL_FILE), &wal_before).unwrap();
        }
        let db = Engine::open_with(&dir, no_sync()).unwrap();
        let t = db.execute("SELECT i FROM t").unwrap().into_table().unwrap();
        assert_eq!(t.row_count(), 1, "snapshot-covered records are skipped");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_snapshot_fails_loudly() {
        let dir = temp_dir("badsnap");
        {
            let db = Engine::open_with(&dir, no_sync()).unwrap();
            db.execute("CREATE TABLE t (i INTEGER)").unwrap();
            db.checkpoint().unwrap();
        }
        let snap = dir.join(SNAPSHOT_FILE);
        let mut data = fs::read(&snap).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xff;
        fs::write(&snap, &data).unwrap();
        let err = match Engine::open_with(&dir, no_sync()) {
            Err(e) => e,
            Ok(_) => panic!("corrupt snapshot must not open"),
        };
        assert_eq!(err.code, crate::error::ErrorCode::Storage);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn automatic_checkpoint_honours_cadence() {
        let dir = temp_dir("cadence");
        let opts = StorageOptions {
            fsync: FsyncPolicy::Never,
            snapshot_every: 3,
        };
        let db = Engine::open_with(&dir, opts).unwrap();
        db.execute("CREATE TABLE t (i INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        assert!(!dir.join(SNAPSHOT_FILE).exists());
        db.execute("INSERT INTO t VALUES (2)").unwrap(); // third record
        assert!(dir.join(SNAPSHOT_FILE).exists(), "cadence hit at 3 records");
        let stats = db.storage_stats().unwrap();
        assert_eq!(stats.wal_records, 0);
        assert_eq!(stats.base_seq, 3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reads_and_failed_statements_are_not_logged() {
        let dir = temp_dir("readonly");
        let db = Engine::open_with(&dir, no_sync()).unwrap();
        db.execute("CREATE TABLE t (i INTEGER)").unwrap();
        let after_ddl = db.storage_stats().unwrap().last_seq;
        db.execute("SELECT i FROM t").unwrap();
        assert!(db.execute("INSERT INTO nope VALUES (1)").is_err());
        assert!(db.execute("gibberish").is_err());
        assert_eq!(db.storage_stats().unwrap().last_seq, after_ddl);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_without_storage_errors() {
        let db = Engine::new();
        assert!(db.storage_stats().is_none());
        let err = db.checkpoint().unwrap_err();
        assert_eq!(err.code, crate::error::ErrorCode::Storage);
    }

    #[test]
    fn snapshot_codec_round_trips_every_column_type() {
        let mut catalog = Catalog::new();
        let table = Table::from_columns(
            "Mixed",
            vec![
                Column {
                    name: "i".into(),
                    data: ColumnData::Int(vec![i64::MIN, -1, 0, 1, i64::MAX].into()),
                    nulls: vec![false, true, false, false, false].into(),
                },
                Column {
                    name: "d".into(),
                    data: ColumnData::Double(vec![0.0, -2.5, f64::INFINITY, 1e-300, 4.0].into()),
                    nulls: Segments::new(),
                },
                Column {
                    name: "s".into(),
                    data: ColumnData::Str(
                        vec![
                            "".into(),
                            "héllo".into(),
                            "a\nb".into(),
                            "x".into(),
                            "y".into(),
                        ]
                        .into(),
                    ),
                    nulls: Segments::new(),
                },
                Column {
                    name: "b".into(),
                    data: ColumnData::Bool(vec![true, false, true, false, true].into()),
                    nulls: Segments::new(),
                },
                Column {
                    name: "bl".into(),
                    data: ColumnData::Blob(
                        vec![vec![], vec![0, 255], vec![1], vec![2], vec![3]].into(),
                    ),
                    nulls: Segments::new(),
                },
            ],
        )
        .unwrap();
        catalog.create_table(table).unwrap();
        let payload = encode_snapshot(&catalog, 7);
        let (decoded, seq) = decode_snapshot(&payload).unwrap();
        assert_eq!(seq, 7);
        assert_eq!(decoded.version(), catalog.version());
        let t = decoded.table("mixed").unwrap();
        assert_eq!(t, catalog.table("mixed").unwrap());
        assert!(t.columns[0].is_null(1));
    }
    /// A catalog whose main table spans several segments (at either
    /// segment size that was measured, 16 Ki and 64 Ki rows), with NULLs
    /// in two columns. The digest is the one the flat-column encoder of
    /// the previous storage layout produced for it: segmented columns
    /// write the same bytes.
    #[test]
    fn a_multi_segment_catalog_encodes_to_the_flat_layouts_bytes() {
        let rows = 2 * 65_536 + 1_234;
        let mut t = Table::new(
            "Gen",
            &[
                ("i".to_string(), SqlType::Integer),
                ("d".to_string(), SqlType::Double),
                ("s".to_string(), SqlType::String),
                ("b".to_string(), SqlType::Boolean),
                ("bl".to_string(), SqlType::Blob),
            ],
        );
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for r in 0..rows {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let v = (x >> 33) as i64 - (1 << 30);
            let null = |k: u64| (x >> k).is_multiple_of(53);
            let row = [
                if null(3) {
                    SqlValue::Null
                } else {
                    SqlValue::Int(v)
                },
                if null(9) {
                    SqlValue::Null
                } else {
                    SqlValue::Double(v as f64 / 7.0)
                },
                SqlValue::Str(format!("s{}", v % 1000)),
                SqlValue::Bool(x & 1 == 1),
                SqlValue::Blob(vec![(x >> 8) as u8; r % 3]),
            ];
            t.push_row(&row).unwrap();
        }
        let mut small = Table::new("small", &[("k".to_string(), SqlType::Integer)]);
        small.push_row(&[SqlValue::Int(7)]).unwrap();
        let mut catalog = Catalog::new();
        catalog.create_table(t).unwrap();
        catalog.create_table(small).unwrap();
        catalog
            .table_mut("small")
            .unwrap()
            .push_row(&[SqlValue::Null])
            .unwrap();
        let payload = encode_snapshot(&catalog, 42);
        assert_eq!(payload.len(), 3_068_213);
        assert_eq!(
            codecs::hex::to_hex(&codecs::sha256::sha256(&payload)),
            "fd3cb7012f96e09351b4a83a4e67d3fb4d961dc3cea6cb48ac67e678d288b93a"
        );
        let (decoded, seq) = decode_snapshot(&payload).unwrap();
        assert_eq!(seq, 42);
        assert_eq!(decoded.table("gen").unwrap(), catalog.table("gen").unwrap());
    }
}
