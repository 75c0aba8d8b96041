//! Plugin settings — the contents of the paper's settings dialog (Figure 2):
//! the usual client connection parameters (host, port, database, user,
//! password), the SQL query that invokes the to-be-debugged UDF, and the
//! data-transfer options (§2.1).

use std::path::Path;
use std::time::Duration;

use codecs::json::{self, Value};
use monetlite::{FsyncPolicy, StorageOptions};
use pylite::ExecMode;
use wireproto::{ClientOptions, RetryPolicy, TransferOptions};

/// Serializable mirror of [`wireproto::TransferOptions`] plus the
/// client-side extract cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransferSettings {
    /// Compress the extracted data during transfer.
    pub compress: bool,
    /// Encrypt the extracted data with the user's password.
    pub encrypt: bool,
    /// Transfer only a uniform random sample of this many rows.
    pub sample: Option<usize>,
    /// Container block size in bytes (`None` = the wire default,
    /// [`wireproto::DEFAULT_BLOCK_SIZE`]).
    pub block_size: Option<usize>,
    /// Content-addressed delta cache for repeated extracts (DESIGN §12).
    pub cache: CacheSettings,
}

/// Settings of the client-side extract cache: on by default — the
/// iterative edit→extract→debug loop is the paper's whole premise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSettings {
    /// Use the `ExtractDelta` protocol with a local block cache.
    pub enabled: bool,
    /// Extract payloads kept client-side (MRU eviction).
    pub entries: usize,
}

impl Default for CacheSettings {
    fn default() -> CacheSettings {
        CacheSettings {
            enabled: true,
            entries: 8,
        }
    }
}

impl CacheSettings {
    fn to_json(self) -> Value {
        Value::Object(vec![
            ("enabled".to_string(), Value::Bool(self.enabled)),
            ("entries".to_string(), Value::from(self.entries as u64)),
        ])
    }

    fn from_json(v: &Value) -> std::io::Result<CacheSettings> {
        Ok(CacheSettings {
            enabled: v
                .get("enabled")
                .and_then(Value::as_bool)
                .ok_or_else(|| invalid("transfer.cache.enabled missing"))?,
            entries: optional(
                v,
                "transfer.cache.entries",
                "a positive count",
                CacheSettings::default().entries,
                positive_count,
            )?,
        })
    }
}

impl From<TransferSettings> for TransferOptions {
    fn from(s: TransferSettings) -> TransferOptions {
        TransferOptions {
            compress: s.compress,
            encrypt: s.encrypt,
            sample: s.sample,
            block_size: s.block_size.unwrap_or(wireproto::DEFAULT_BLOCK_SIZE),
        }
    }
}

/// Serializable mirror of [`wireproto::RetryPolicy`] plus the TCP socket
/// deadlines — the robustness half of the connection settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetrySettings {
    /// Total attempts for idempotent calls (1 disables retries).
    pub max_attempts: u32,
    /// First backoff in milliseconds; doubles per retry.
    pub initial_backoff_ms: u64,
    /// Cap on a single backoff sleep, in milliseconds.
    pub max_backoff_ms: u64,
    /// Overall retry budget in milliseconds (`None` = attempts only).
    pub deadline_ms: Option<u64>,
    /// Per-read/write socket deadline in milliseconds (`None` = block).
    pub io_timeout_ms: Option<u64>,
}

impl Default for RetrySettings {
    /// Mirrors [`RetryPolicy::standard`] with 30 s socket deadlines: the
    /// IDE's calls are dominated by idempotent reads, so transparent
    /// retries are the right out-of-the-box behaviour.
    fn default() -> RetrySettings {
        RetrySettings {
            max_attempts: 3,
            initial_backoff_ms: 10,
            max_backoff_ms: 200,
            deadline_ms: Some(2_000),
            io_timeout_ms: Some(30_000),
        }
    }
}

impl RetrySettings {
    /// The wire-layer policy these settings describe.
    pub fn policy(&self) -> RetryPolicy {
        RetryPolicy {
            max_attempts: self.max_attempts.max(1),
            initial_backoff: Duration::from_millis(self.initial_backoff_ms),
            max_backoff: Duration::from_millis(self.max_backoff_ms),
            deadline: self.deadline_ms.map(Duration::from_millis),
        }
    }

    fn to_json(self) -> Value {
        Value::Object(vec![
            (
                "max_attempts".to_string(),
                Value::Int(i64::from(self.max_attempts)),
            ),
            (
                "initial_backoff_ms".to_string(),
                Value::from(self.initial_backoff_ms),
            ),
            (
                "max_backoff_ms".to_string(),
                Value::from(self.max_backoff_ms),
            ),
            ("deadline_ms".to_string(), Value::from(self.deadline_ms)),
            ("io_timeout_ms".to_string(), Value::from(self.io_timeout_ms)),
        ])
    }

    fn from_json(v: &Value) -> std::io::Result<RetrySettings> {
        let ms = |name: &str| {
            v.get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| invalid(format!("retry.{name} missing")))
        };
        let opt_ms = |path| optional(v, path, "milliseconds", None, |k| k.as_u64().map(Some));
        Ok(RetrySettings {
            max_attempts: ms("max_attempts").and_then(|n| {
                u32::try_from(n).map_err(|_| invalid("retry.max_attempts out of range"))
            })?,
            initial_backoff_ms: ms("initial_backoff_ms")?,
            max_backoff_ms: ms("max_backoff_ms")?,
            deadline_ms: opt_ms("retry.deadline_ms")?,
            io_timeout_ms: opt_ms("retry.io_timeout_ms")?,
        })
    }
}

/// All devUDF settings.
#[derive(Debug, Clone, PartialEq)]
pub struct Settings {
    pub host: String,
    pub port: u16,
    pub database: String,
    pub user: String,
    pub password: String,
    /// "the user must provide a SQL query which executes the to-be-debugged
    /// UDF. This SQL query must be specified in the Settings menu" (§2.1).
    pub debug_query: String,
    pub transfer: TransferSettings,
    /// Retry/timeout behaviour of the underlying connection.
    pub retry: RetrySettings,
    /// How UDFs execute: the pylite engine for local runs, plus whether
    /// the server-side engine may inline straight-line bodies (Froid).
    pub interp: InterpMode,
    /// Embedded-mode persistence (DESIGN §17). Only consulted when the
    /// session embeds the engine in-process; wire connections ignore it.
    pub storage: StorageSettings,
}

/// The `storage` settings section: where (and how durably) an embedded
/// engine persists. Serializable mirror of [`monetlite::StorageOptions`]
/// plus the data directory itself.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageSettings {
    /// Directory the embedded engine opens (WAL + snapshots). Empty means
    /// the embedded engine is purely in-memory.
    pub data_dir: String,
    /// When WAL appends reach disk: `always` (fsync per commit, default)
    /// or `never` (OS page cache only).
    pub fsync: FsyncPolicy,
    /// Checkpoint after this many WAL records; `0` disables automatic
    /// checkpoints (explicit `devudf checkpoint` only).
    pub snapshot_every: u64,
}

impl Default for StorageSettings {
    fn default() -> Self {
        let defaults = StorageOptions::default();
        StorageSettings {
            data_dir: String::new(),
            fsync: defaults.fsync,
            snapshot_every: defaults.snapshot_every,
        }
    }
}

impl StorageSettings {
    /// The engine-facing options (everything except the directory).
    pub fn options(&self) -> StorageOptions {
        StorageOptions {
            fsync: self.fsync,
            snapshot_every: self.snapshot_every,
        }
    }

    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("data_dir".to_string(), Value::from(self.data_dir.as_str())),
            ("fsync".to_string(), Value::from(self.fsync.as_str())),
            (
                "snapshot_every".to_string(),
                Value::from(self.snapshot_every),
            ),
        ])
    }

    fn from_json(v: &Value) -> std::io::Result<StorageSettings> {
        Ok(StorageSettings {
            data_dir: v
                .get("data_dir")
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| invalid("storage.data_dir missing"))?,
            fsync: optional(
                v,
                "storage.fsync",
                &format!("one of {}", FsyncPolicy::ALLOWED),
                FsyncPolicy::default(),
                |m| m.as_str().and_then(FsyncPolicy::parse),
            )?,
            snapshot_every: optional(
                v,
                "storage.snapshot_every",
                "a record count",
                StorageOptions::default().snapshot_every,
                Value::as_u64,
            )?,
        })
    }
}

/// The `interp` settings knob. `ast` and `bytecode` pick a pylite engine
/// with server-side inlining off; `inline` (the default) runs the bytecode
/// VM locally *and* lets the engine compile straight-line UDFs into
/// relational expressions, falling back to the VM on bail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InterpMode {
    /// Tree-walking reference interpreter; no engine inlining.
    Ast,
    /// Bytecode VM; no engine inlining.
    Bytecode,
    /// Bytecode VM with Froid-style engine inlining (default).
    #[default]
    Inline,
}

impl InterpMode {
    /// The allowed spellings, for error messages.
    pub const ALLOWED: &'static str = "'ast', 'bytecode' or 'inline'";

    pub fn parse(s: &str) -> Option<InterpMode> {
        match s {
            "ast" => Some(InterpMode::Ast),
            "bytecode" => Some(InterpMode::Bytecode),
            "inline" => Some(InterpMode::Inline),
            _ => None,
        }
    }

    pub fn as_str(&self) -> &'static str {
        match self {
            InterpMode::Ast => "ast",
            InterpMode::Bytecode => "bytecode",
            InterpMode::Inline => "inline",
        }
    }

    /// The pylite engine behind this mode. Local debug runs have no
    /// relational engine to inline into, so `inline` uses the VM.
    pub fn pylite_mode(&self) -> ExecMode {
        match self {
            InterpMode::Ast => ExecMode::Ast,
            InterpMode::Bytecode | InterpMode::Inline => ExecMode::Bytecode,
        }
    }

    /// Whether server-side UDF inlining is enabled.
    pub fn inline(&self) -> bool {
        matches!(self, InterpMode::Inline)
    }
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            host: "localhost".to_string(),
            port: 50_000,
            database: "demo".to_string(),
            user: "monetdb".to_string(),
            password: "monetdb".to_string(),
            debug_query: String::new(),
            transfer: TransferSettings::default(),
            retry: RetrySettings::default(),
            interp: InterpMode::default(),
            storage: StorageSettings::default(),
        }
    }
}

fn invalid(message: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message.into())
}

/// The rule every optional key follows. Keys added after the first
/// settings format may be absent from older files, so an absent or `null`
/// key yields `default`. Any other value must parse, or loading fails
/// with an error naming the key (`path`, dotted from the file root; its
/// last segment is looked up in `section`), what it accepts and what it
/// got — a typo never silently becomes a default.
fn optional<T>(
    section: &Value,
    path: &str,
    expected: &str,
    default: T,
    parse: impl FnOnce(&Value) -> Option<T>,
) -> std::io::Result<T> {
    let key = path.rsplit('.').next().unwrap_or(path);
    match section.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(value) => parse(value).ok_or_else(|| {
            invalid(format!(
                "{path} must be {expected} (got {})",
                value.to_string_compact()
            ))
        }),
    }
}

/// A count that must not be zero (sizes, capacities).
fn positive_count(v: &Value) -> Option<usize> {
    v.as_u64().filter(|n| *n > 0).map(|n| n as usize)
}

/// An [`optional`] section: an object parsed by its own `from_json`.
fn optional_section<T: Default>(
    v: &Value,
    path: &str,
    from_json: impl FnOnce(&Value) -> std::io::Result<T>,
) -> std::io::Result<T> {
    optional(v, path, "an object", Ok(T::default()), |s| {
        s.as_object().map(|_| from_json(s))
    })?
}

impl TransferSettings {
    fn to_json(self) -> Value {
        Value::Object(vec![
            ("compress".to_string(), Value::Bool(self.compress)),
            ("encrypt".to_string(), Value::Bool(self.encrypt)),
            (
                "sample".to_string(),
                Value::from(self.sample.map(|k| k as u64)),
            ),
            (
                "block_size".to_string(),
                Value::from(self.block_size.map(|n| n as u64)),
            ),
            ("cache".to_string(), self.cache.to_json()),
        ])
    }

    fn from_json(v: &Value) -> std::io::Result<TransferSettings> {
        Ok(TransferSettings {
            compress: v
                .get("compress")
                .and_then(Value::as_bool)
                .ok_or_else(|| invalid("transfer.compress missing"))?,
            encrypt: v
                .get("encrypt")
                .and_then(Value::as_bool)
                .ok_or_else(|| invalid("transfer.encrypt missing"))?,
            sample: optional(v, "transfer.sample", "a row count", None, |k| {
                k.as_u64().map(|n| Some(n as usize))
            })?,
            block_size: optional(v, "transfer.block_size", "a positive count", None, |k| {
                positive_count(k).map(Some)
            })?,
            cache: optional_section(v, "transfer.cache", CacheSettings::from_json)?,
        })
    }
}

impl Settings {
    /// Path of the settings file inside a project directory.
    pub fn path_in(project_root: &Path) -> std::path::PathBuf {
        project_root.join(".devudf").join("settings.json")
    }

    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("host".to_string(), Value::from(self.host.as_str())),
            ("port".to_string(), Value::Int(i64::from(self.port))),
            ("database".to_string(), Value::from(self.database.as_str())),
            ("user".to_string(), Value::from(self.user.as_str())),
            ("password".to_string(), Value::from(self.password.as_str())),
            (
                "debug_query".to_string(),
                Value::from(self.debug_query.as_str()),
            ),
            ("transfer".to_string(), self.transfer.to_json()),
            ("retry".to_string(), self.retry.to_json()),
            ("interp".to_string(), Value::from(self.interp.as_str())),
            ("storage".to_string(), self.storage.to_json()),
        ])
    }

    fn from_json(v: &Value) -> std::io::Result<Settings> {
        let field = |name: &str| {
            v.get(name)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| invalid(format!("settings field '{name}' missing")))
        };
        Ok(Settings {
            host: field("host")?,
            port: v
                .get("port")
                .and_then(Value::as_u64)
                .and_then(|p| u16::try_from(p).ok())
                .ok_or_else(|| invalid("settings field 'port' missing or out of range"))?,
            database: field("database")?,
            user: field("user")?,
            password: field("password")?,
            debug_query: field("debug_query")?,
            transfer: TransferSettings::from_json(
                v.get("transfer")
                    .ok_or_else(|| invalid("settings field 'transfer' missing"))?,
            )?,
            retry: optional_section(v, "retry", RetrySettings::from_json)?,
            interp: optional(
                v,
                "interp",
                &format!("one of {}", InterpMode::ALLOWED),
                InterpMode::default(),
                |m| m.as_str().and_then(InterpMode::parse),
            )?,
            storage: optional_section(v, "storage", StorageSettings::from_json)?,
        })
    }

    /// Load settings from a project directory; missing file yields defaults.
    pub fn load(project_root: &Path) -> std::io::Result<Settings> {
        let path = Self::path_in(project_root);
        if !path.exists() {
            return Ok(Settings::default());
        }
        let data = std::fs::read(path)?;
        let text = std::str::from_utf8(&data).map_err(invalid_utf8)?;
        let doc = json::parse(text).map_err(|e| invalid(e.to_string()))?;
        Self::from_json(&doc)
    }

    /// Persist settings into a project directory.
    pub fn save(&self, project_root: &Path) -> std::io::Result<()> {
        let path = Self::path_in(project_root);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json().to_string_pretty())
    }

    /// Transfer options in wire form.
    pub fn transfer_options(&self) -> TransferOptions {
        self.transfer.into()
    }

    /// Connection options (retry policy + socket deadlines) in wire form.
    pub fn client_options(&self) -> ClientOptions {
        let io_timeout = self.retry.io_timeout_ms.map(Duration::from_millis);
        ClientOptions {
            retry: self.retry.policy(),
            read_timeout: io_timeout,
            write_timeout: io_timeout,
            cache: self
                .transfer
                .cache
                .enabled
                .then_some(self.transfer.cache.entries),
            ..ClientOptions::default()
        }
    }

    /// Render the settings dialog content (Figure 2) as text, masking the
    /// password like the GUI does.
    pub fn render_dialog(&self) -> String {
        let mask = "*".repeat(self.password.len().max(4));
        format!(
            "┌─ devUDF Settings ──────────────────────────────┐\n\
             │ Host:       {:<35}│\n\
             │ Port:       {:<35}│\n\
             │ Database:   {:<35}│\n\
             │ User:       {:<35}│\n\
             │ Password:   {:<35}│\n\
             │ SQL Query:  {:<35}│\n\
             │ Transfer:   {:<35}│\n\
             │ Cache:      {:<35}│\n\
             │ Retry:      {:<35}│\n\
             │ Interp:     {:<35}│\n\
             │ Storage:    {:<35}│\n\
             └────────────────────────────────────────────────┘",
            self.host,
            self.port,
            self.database,
            self.user,
            mask,
            truncate(&self.debug_query, 35),
            truncate(&self.describe_transfer(), 35),
            truncate(&self.describe_cache(), 35),
            truncate(&self.describe_retry(), 35),
            truncate(&self.describe_interp(), 35),
            truncate(&self.describe_storage(), 35),
        )
    }

    fn describe_storage(&self) -> String {
        if self.storage.data_dir.is_empty() {
            "in-memory (no data dir)".to_string()
        } else {
            format!(
                "{} (fsync {}, snapshot/{})",
                self.storage.data_dir,
                self.storage.fsync.as_str(),
                self.storage.snapshot_every
            )
        }
    }

    fn describe_interp(&self) -> String {
        match self.interp {
            InterpMode::Inline => "bytecode VM + engine inlining".to_string(),
            InterpMode::Bytecode => "bytecode VM".to_string(),
            InterpMode::Ast => "AST walker (reference)".to_string(),
        }
    }

    fn describe_transfer(&self) -> String {
        let mut parts = Vec::new();
        if self.transfer.compress {
            parts.push("compress".to_string());
        }
        if self.transfer.encrypt {
            parts.push("encrypt".to_string());
        }
        if let Some(k) = self.transfer.sample {
            parts.push(format!("sample {k} rows"));
        }
        if let Some(b) = self.transfer.block_size {
            parts.push(format!("{} KiB blocks", b / 1024));
        }
        if parts.is_empty() {
            "full data, plaintext".to_string()
        } else {
            parts.join(" + ")
        }
    }

    fn describe_cache(&self) -> String {
        if self.transfer.cache.enabled {
            format!("delta, {} extracts kept", self.transfer.cache.entries)
        } else {
            "disabled (full extract)".to_string()
        }
    }

    fn describe_retry(&self) -> String {
        if self.retry.max_attempts <= 1 {
            return "disabled".to_string();
        }
        let mut s = format!(
            "{} attempts, {}-{} ms backoff",
            self.retry.max_attempts, self.retry.initial_backoff_ms, self.retry.max_backoff_ms
        );
        if let Some(d) = self.retry.deadline_ms {
            s.push_str(&format!(", {d} ms budget"));
        }
        s
    }
}

fn invalid_utf8(e: std::str::Utf8Error) -> std::io::Error {
    invalid(format!("settings file is not UTF-8: {e}"))
}

fn truncate(s: &str, width: usize) -> String {
    if s.chars().count() <= width {
        s.to_string()
    } else {
        let cut: String = s.chars().take(width.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "devudf-settings-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    const PLAIN: &str = r#"{"compress": false, "encrypt": false, "sample": null}"#;

    /// Parse a settings document holding the connection fields, the
    /// `transfer` object `transfer` and the top-level members `extra`.
    fn parse(transfer: &str, extra: &str) -> std::io::Result<Settings> {
        let text = format!(
            r#"{{"host": "localhost", "port": 50000, "database": "demo",
                "user": "monetdb", "password": "monetdb", "debug_query": "",
                "transfer": {transfer}{extra}}}"#
        );
        Settings::from_json(&json::parse(&text).map_err(|e| invalid(e.to_string()))?)
    }

    /// The load error of a document, as text.
    fn error(transfer: &str, extra: &str) -> String {
        parse(transfer, extra).unwrap_err().to_string()
    }

    #[test]
    fn save_load_round_trip() {
        let dir = temp_dir("roundtrip");
        let mut s = Settings::default();
        s.debug_query = "SELECT mean_deviation(i) FROM numbers".to_string();
        s.transfer.compress = true;
        s.transfer.sample = Some(500);
        s.transfer.block_size = Some(64 * 1024);
        s.retry.max_attempts = 5;
        s.retry.deadline_ms = None;
        s.save(&dir).unwrap();
        let loaded = Settings::load(&dir).unwrap();
        assert_eq!(loaded, s);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn settings_file_without_optional_keys_loads_defaults() {
        // Files written before the chunked pipeline, the retry layer, the
        // delta cache, the bytecode VM or embedded mode lack their keys;
        // files written while the client-local codec pool existed carry
        // `transfer.parallelism`, which is ignored.
        for transfer in [
            PLAIN,
            r#"{"compress": false, "encrypt": false, "parallelism": 4}"#,
        ] {
            let s = parse(transfer, "").unwrap();
            assert_eq!(s.transfer, TransferSettings::default());
            assert_eq!(s.retry, RetrySettings::default());
            assert_eq!(s.interp, InterpMode::Inline);
            assert_eq!(s.storage, StorageSettings::default());
        }
    }

    #[test]
    fn invalid_values_fail_loudly_naming_the_key_and_allowed_set() {
        // A typo must never silently become a default.
        for (transfer, extra, want) in [
            (
                r#"{"compress": true, "encrypt": false, "block_size": 0}"#,
                "",
                "transfer.block_size must be a positive count",
            ),
            (
                r#"{"compress": false, "encrypt": false, "cache": {"enabled": true, "entries": 0}}"#,
                "",
                "transfer.cache.entries must be a positive count",
            ),
            (PLAIN, r#", "retry": 5"#, "retry must be an object"),
            (
                PLAIN,
                r#", "storage": {"data_dir": "d", "snapshot_every": "lots"}"#,
                "storage.snapshot_every",
            ),
        ] {
            let err = error(transfer, extra);
            assert!(err.contains(want), "{err}");
        }
        for bad in ["jit", "bytcode", "Inline"] {
            let err = error(PLAIN, &format!(r#", "interp": "{bad}""#));
            assert!(err.contains("'ast', 'bytecode' or 'inline'"), "{err}");
            assert!(err.contains(bad), "{err}");
        }
        for bad in ["alway", "Always", "on", "fdatasync"] {
            let err = error(
                PLAIN,
                &format!(r#", "storage": {{"data_dir": "d", "fsync": "{bad}"}}"#),
            );
            assert!(err.contains("'always' or 'never'"), "{err}");
            assert!(err.contains(bad), "{err}");
        }
    }

    #[test]
    fn retry_settings_convert_to_wire_policy() {
        let s = Settings::default();
        let opts = s.client_options();
        assert!(opts.retry.enabled());
        assert_eq!(opts.retry.max_attempts, 3);
        assert_eq!(opts.retry.initial_backoff, Duration::from_millis(10));
        assert_eq!(opts.retry.max_backoff, Duration::from_millis(200));
        assert_eq!(opts.retry.deadline, Some(Duration::from_secs(2)));
        assert_eq!(opts.read_timeout, Some(Duration::from_secs(30)));
        assert_eq!(opts.write_timeout, Some(Duration::from_secs(30)));
    }

    #[test]
    fn missing_file_yields_defaults() {
        let dir = temp_dir("defaults");
        let s = Settings::load(&dir).unwrap();
        assert_eq!(s, Settings::default());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn transfer_options_conversion() {
        let s = TransferSettings {
            compress: true,
            encrypt: false,
            sample: Some(10),
            ..Default::default()
        };
        let o: TransferOptions = s.into();
        assert!(o.compress);
        assert!(!o.encrypt);
        assert_eq!(o.sample, Some(10));
        assert_eq!(o.block_size, wireproto::DEFAULT_BLOCK_SIZE);
        let sized = TransferSettings {
            block_size: Some(64 * 1024),
            ..Default::default()
        };
        assert_eq!(TransferOptions::from(sized).block_size, 64 * 1024);
    }

    #[test]
    fn cache_is_on_by_default_and_plumbs_into_client_options() {
        let mut s = Settings::default();
        assert_eq!(s.transfer.cache, CacheSettings::default());
        assert_eq!(s.client_options().cache, Some(8));
        s.transfer.cache.entries = 2;
        assert_eq!(s.client_options().cache, Some(2));
        s.transfer.cache.enabled = false;
        assert_eq!(s.client_options().cache, None);
    }

    #[test]
    fn cache_settings_round_trip() {
        let dir = temp_dir("cache-rt");
        let mut s = Settings::default();
        s.transfer.cache = CacheSettings {
            enabled: false,
            entries: 3,
        };
        s.save(&dir).unwrap();
        assert_eq!(Settings::load(&dir).unwrap(), s);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn exec_mode_round_trips_and_defaults() {
        let dir = temp_dir("interp");
        let mut s = Settings::default();
        assert_eq!(s.interp, InterpMode::Inline);
        assert_eq!(s.interp.pylite_mode(), ExecMode::Bytecode);
        assert!(s.interp.inline());
        s.interp = InterpMode::Ast;
        s.save(&dir).unwrap();
        assert_eq!(Settings::load(&dir).unwrap().interp, InterpMode::Ast);
        s.interp = InterpMode::Bytecode;
        s.save(&dir).unwrap();
        let loaded = Settings::load(&dir).unwrap().interp;
        assert_eq!(loaded, InterpMode::Bytecode);
        assert!(!loaded.inline());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn dialog_describes_the_interpreter() {
        let mut s = Settings::default();
        assert!(s.render_dialog().contains("bytecode VM + engine inlining"));
        s.interp = InterpMode::Bytecode;
        assert!(s.render_dialog().contains("bytecode VM"));
        s.interp = InterpMode::Ast;
        assert!(s.render_dialog().contains("AST walker (reference)"));
    }

    #[test]
    fn dialog_describes_the_cache() {
        let mut s = Settings::default();
        assert!(s.render_dialog().contains("delta, 8 extracts kept"));
        s.transfer.cache.enabled = false;
        assert!(s.render_dialog().contains("disabled (full extract)"));
    }

    #[test]
    fn dialog_masks_password() {
        let mut s = Settings::default();
        s.password = "hunter2".to_string();
        let dialog = s.render_dialog();
        assert!(!dialog.contains("hunter2"));
        assert!(dialog.contains("*******"));
        assert!(dialog.contains("devUDF Settings"));
    }

    #[test]
    fn dialog_describes_transfer_options() {
        let mut s = Settings::default();
        assert!(s.render_dialog().contains("full data, plaintext"));
        s.transfer = TransferSettings {
            compress: true,
            encrypt: true,
            sample: Some(100),
            ..Default::default()
        };
        let d = s.render_dialog();
        // The dialog truncates long values; the prefix must be visible.
        assert!(d.contains("compress + encrypt + sample"), "{d}");
    }

    #[test]
    fn dialog_describes_retry_policy() {
        let mut s = Settings::default();
        assert!(s.render_dialog().contains("3 attempts, 10-200 ms"));
        s.retry.max_attempts = 1;
        assert!(s.render_dialog().contains("disabled"));
    }

    #[test]
    fn storage_section_round_trips() {
        let dir = temp_dir("storage");
        let mut s = Settings::default();
        assert_eq!(s.storage, StorageSettings::default());
        assert_eq!(s.storage.options(), StorageOptions::default());
        s.storage = StorageSettings {
            data_dir: "/tmp/devudf-data".to_string(),
            fsync: FsyncPolicy::Never,
            snapshot_every: 0,
        };
        s.save(&dir).unwrap();
        let loaded = Settings::load(&dir).unwrap().storage;
        assert_eq!(loaded.data_dir, "/tmp/devudf-data");
        assert_eq!(loaded.fsync, FsyncPolicy::Never);
        assert_eq!(loaded.snapshot_every, 0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn dialog_describes_storage() {
        let mut s = Settings::default();
        assert!(s.render_dialog().contains("in-memory (no data dir)"));
        s.storage.data_dir = "/data/db".to_string();
        s.storage.snapshot_every = 512;
        // The dialog truncates long values; the prefix must be visible.
        let d = s.render_dialog();
        assert!(d.contains("/data/db (fsync always"), "{d}");
    }

    #[test]
    fn corrupt_settings_file_is_io_error() {
        let dir = temp_dir("corrupt");
        let path = Settings::path_in(&dir);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, b"{not json").unwrap();
        assert!(Settings::load(&dir).is_err());
        std::fs::remove_dir_all(dir).ok();
    }
}
