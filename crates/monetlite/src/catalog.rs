//! Catalog: tables, stored functions, and the `sys.*` meta tables.
//!
//! The devUDF plugin works "by querying the databases' meta tables" (paper
//! §2.2); `sys.functions` and `sys.args` are materialized on demand from
//! this catalog so that plain SQL retrieves UDF sources, exactly as the
//! paper's Listing 1 shows.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::error::DbError;
use crate::table::Table;
#[cfg(test)]
use crate::types::SqlValue;
use crate::types::{Column, ColumnData, SqlType};

/// One live wire session, as reported by the hosting server.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRow {
    pub id: u64,
    pub peer: String,
    pub state: String,
    pub commands: u64,
    pub queue_wait_ns: u64,
}

/// Source of live rows for the `sys.sessions` view. Implemented by the wire
/// server's session registry; direct `Engine` embedders have none and see an
/// empty view.
pub trait SessionProvider: Send + Sync {
    fn sessions(&self) -> Vec<SessionRow>;
}

/// Cloneable handle around a shared [`SessionProvider`]. The catalog derives
/// `Debug` and `Clone`, which a bare trait object cannot, hence the newtype.
#[derive(Clone, Default)]
pub struct SessionSource(Option<Arc<dyn SessionProvider>>);

impl SessionSource {
    pub fn new(provider: Arc<dyn SessionProvider>) -> Self {
        SessionSource(Some(provider))
    }

    fn rows(&self) -> Vec<SessionRow> {
        self.0.as_ref().map(|p| p.sessions()).unwrap_or_default()
    }
}

impl fmt::Debug for SessionSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() {
            "SessionSource(server)"
        } else {
            "SessionSource(none)"
        })
    }
}

/// What a stored function returns.
#[derive(Debug, Clone, PartialEq)]
pub enum FunctionReturn {
    Scalar(SqlType),
    Table(Vec<(String, SqlType)>),
}

/// A stored (Python) function.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDef {
    pub name: String,
    /// Parameters in declaration order.
    pub params: Vec<(String, SqlType)>,
    pub returns: FunctionReturn,
    /// Implementation language (always "PYTHON" in this reproduction).
    pub language: String,
    /// The function *body* as stored — no `def` header, exactly like
    /// MonetDB's `sys.functions.func` column (paper Listing 1).
    pub body: String,
}

/// The database catalog.
///
/// `Clone` is cheap by construction: tables share their column segments
/// via `Arc` (see [`Table`]), so cloning the whole catalog — the basis of
/// engine snapshots — copies only the maps, the counters and one pointer
/// per segment, never the data.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: BTreeMap<String, Table>,
    functions: BTreeMap<String, FunctionDef>,
    /// Per-table epoch: the value of `mutations` at the table's most recent
    /// mutation. Epochs are drawn from one monotone counter so a dropped and
    /// recreated table can never reuse an epoch an old cache entry recorded.
    epochs: BTreeMap<String, u64>,
    /// Epoch of the function catalog (covers `sys.functions` / `sys.args`).
    functions_epoch: u64,
    /// Global mutation counter; every DML or DDL statement bumps it.
    mutations: u64,
    /// Live-session source backing `sys.sessions` (set by the wire server).
    sessions: SessionSource,
}

/// Borrowed view of the catalog pieces the snapshot codec serializes:
/// `(tables, functions, per-table epochs, functions_epoch, mutations)`.
pub(crate) type StorageState<'a> = (
    &'a BTreeMap<String, Table>,
    &'a BTreeMap<String, FunctionDef>,
    &'a BTreeMap<String, u64>,
    u64,
    u64,
);

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    fn key(name: &str) -> String {
        name.to_ascii_lowercase()
    }

    /// The global mutation counter: strictly increases on every DML or DDL
    /// statement, so equal versions imply an identical catalog. This is the
    /// epoch stamped onto engine snapshots.
    pub fn version(&self) -> u64 {
        self.mutations
    }

    /// Install the live-session source backing `sys.sessions`.
    pub fn set_session_source(&mut self, source: SessionSource) {
        self.sessions = source;
    }

    /// Advance the global mutation counter and stamp `key` with it.
    fn bump(&mut self, key: &str) -> u64 {
        self.mutations += 1;
        self.epochs.insert(key.to_string(), self.mutations);
        obs::gauge!("monet.catalog.epoch").set(self.mutations as i64);
        self.mutations
    }

    // ---------------- tables ----------------

    pub fn create_table(&mut self, table: Table) -> Result<(), DbError> {
        let key = Self::key(&table.name);
        if key.starts_with("sys.") {
            return Err(DbError::catalog("the sys schema is read-only"));
        }
        if self.tables.contains_key(&key) {
            return Err(DbError::catalog(format!(
                "table '{}' already exists",
                table.name
            )));
        }
        self.tables.insert(key.clone(), table);
        self.bump(&key);
        Ok(())
    }

    pub fn drop_table(&mut self, name: &str, if_exists: bool) -> Result<(), DbError> {
        let key = Self::key(name);
        if self.tables.remove(&key).is_none() {
            if !if_exists {
                return Err(DbError::catalog(format!("no such table '{name}'")));
            }
            return Ok(());
        }
        // A dropped table has no epoch; any cache entry that recorded one
        // can no longer match and must re-extract.
        self.epochs.remove(&key);
        self.mutations += 1;
        obs::gauge!("monet.catalog.epoch").set(self.mutations as i64);
        Ok(())
    }

    /// Look up a table; `sys.functions` / `sys.args` / `sys.tables` are
    /// materialized views over the catalog, `sys.metrics` over the
    /// telemetry registry, `sys.profile` over the line-level UDF
    /// profiler.
    pub fn table(&self, name: &str) -> Result<Table, DbError> {
        match Self::key(name).as_str() {
            "sys.functions" | "functions" if !self.tables.contains_key("functions") => {
                Ok(self.sys_functions())
            }
            "sys.args" | "args" if !self.tables.contains_key("args") => Ok(self.sys_args()),
            "sys.metrics" | "metrics" if !self.tables.contains_key("metrics") => {
                Ok(self.sys_metrics())
            }
            "sys.tables" | "tables" if !self.tables.contains_key("tables") => Ok(self.sys_tables()),
            "sys.profile" | "profile" if !self.tables.contains_key("profile") => {
                Ok(Self::sys_profile())
            }
            "sys.sessions" | "sessions" if !self.tables.contains_key("sessions") => {
                Ok(self.sys_sessions())
            }
            key => self
                .tables
                .get(key)
                .cloned()
                .ok_or_else(|| DbError::catalog(format!("no such table '{name}'"))),
        }
    }

    /// The epoch a cache entry must match for `name` to be unchanged.
    ///
    /// User tables report the epoch of their most recent mutation; the
    /// function-catalog views (`sys.functions` / `sys.args`) report the
    /// function epoch. Volatile views (`sys.metrics`, `sys.tables`,
    /// `sys.profile`) and unknown names return `None`, which delta
    /// callers must treat as "cannot prove unchanged".
    pub fn table_epoch(&self, name: &str) -> Option<u64> {
        match Self::key(name).as_str() {
            "sys.functions" | "functions" if !self.tables.contains_key("functions") => {
                Some(self.functions_epoch)
            }
            "sys.args" | "args" if !self.tables.contains_key("args") => Some(self.functions_epoch),
            "sys.metrics" | "metrics" if !self.tables.contains_key("metrics") => None,
            "sys.tables" | "tables" if !self.tables.contains_key("tables") => None,
            "sys.profile" | "profile" if !self.tables.contains_key("profile") => None,
            "sys.sessions" | "sessions" if !self.tables.contains_key("sessions") => None,
            key => self.epochs.get(key).copied(),
        }
    }

    /// Epoch of the function catalog (bumped by CREATE/DROP FUNCTION).
    pub fn functions_epoch(&self) -> u64 {
        self.functions_epoch
    }

    /// Everything the snapshot codec must serialize to reproduce this
    /// catalog byte-for-byte: the table and function maps, the per-table
    /// epochs, and the two counters. `sessions` is deliberately absent —
    /// it is a live handle re-installed by whichever server (if any) hosts
    /// the reopened engine.
    ///
    /// See [`StorageState`] for the tuple shape.
    pub(crate) fn storage_state(&self) -> StorageState<'_> {
        (
            &self.tables,
            &self.functions,
            &self.epochs,
            self.functions_epoch,
            self.mutations,
        )
    }

    /// Rebuild a catalog from decoded snapshot state (inverse of
    /// [`Catalog::storage_state`]).
    pub(crate) fn from_storage_state(
        tables: BTreeMap<String, Table>,
        functions: BTreeMap<String, FunctionDef>,
        epochs: BTreeMap<String, u64>,
        functions_epoch: u64,
        mutations: u64,
    ) -> Catalog {
        Catalog {
            tables,
            functions,
            epochs,
            functions_epoch,
            mutations,
            sessions: SessionSource::default(),
        }
    }

    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, DbError> {
        let key = Self::key(name);
        if !self.tables.contains_key(&key) {
            return Err(DbError::catalog(format!("no such table '{name}'")));
        }
        // Every DML mutation flows through here, so the epoch bump cannot
        // be forgotten by a new statement kind.
        self.bump(&key);
        Ok(self.tables.get_mut(&key).expect("presence checked above"))
    }

    // ---------------- functions ----------------

    pub fn create_function(&mut self, def: FunctionDef, or_replace: bool) -> Result<(), DbError> {
        let key = Self::key(&def.name);
        if self.functions.contains_key(&key) && !or_replace {
            return Err(DbError::catalog(format!(
                "function '{}' already exists (use CREATE OR REPLACE)",
                def.name
            )));
        }
        self.functions.insert(key, def);
        self.mutations += 1;
        self.functions_epoch = self.mutations;
        obs::gauge!("monet.catalog.epoch").set(self.mutations as i64);
        Ok(())
    }

    pub fn drop_function(&mut self, name: &str, if_exists: bool) -> Result<(), DbError> {
        if self.functions.remove(&Self::key(name)).is_none() {
            if !if_exists {
                return Err(DbError::catalog(format!("no such function '{name}'")));
            }
            return Ok(());
        }
        self.mutations += 1;
        self.functions_epoch = self.mutations;
        obs::gauge!("monet.catalog.epoch").set(self.mutations as i64);
        Ok(())
    }

    pub fn function(&self, name: &str) -> Option<&FunctionDef> {
        self.functions.get(&Self::key(name))
    }

    pub fn function_names(&self) -> Vec<String> {
        self.functions.values().map(|f| f.name.clone()).collect()
    }

    pub fn functions(&self) -> impl Iterator<Item = &FunctionDef> {
        self.functions.values()
    }

    /// The `sys.functions` meta table: (id, name, func, language, return_type).
    pub fn sys_functions(&self) -> Table {
        let mut ids = Vec::new();
        let mut names = Vec::new();
        let mut bodies = Vec::new();
        let mut langs = Vec::new();
        let mut rets = Vec::new();
        for (i, f) in self.functions.values().enumerate() {
            ids.push(i as i64);
            names.push(f.name.clone());
            bodies.push(f.body.clone());
            langs.push(f.language.clone());
            rets.push(match &f.returns {
                FunctionReturn::Scalar(t) => t.name().to_string(),
                FunctionReturn::Table(cols) => {
                    let inner: Vec<String> = cols.iter().map(|(n, t)| format!("{n} {t}")).collect();
                    format!("TABLE({})", inner.join(", "))
                }
            });
        }
        Table::from_columns(
            "sys.functions",
            vec![
                Column::new("id", ColumnData::Int(ids.into())),
                Column::new("name", ColumnData::Str(names.into())),
                Column::new("func", ColumnData::Str(bodies.into())),
                Column::new("language", ColumnData::Str(langs.into())),
                Column::new("return_type", ColumnData::Str(rets.into())),
            ],
        )
        .expect("sys.functions columns are same length")
    }

    /// The `sys.args` meta table: (function, name, type, position).
    pub fn sys_args(&self) -> Table {
        let mut funcs = Vec::new();
        let mut names = Vec::new();
        let mut types = Vec::new();
        let mut positions = Vec::new();
        for f in self.functions.values() {
            for (i, (pname, ptype)) in f.params.iter().enumerate() {
                funcs.push(f.name.clone());
                names.push(pname.clone());
                types.push(ptype.name().to_string());
                positions.push(i as i64);
            }
        }
        Table::from_columns(
            "sys.args",
            vec![
                Column::new("function", ColumnData::Str(funcs.into())),
                Column::new("name", ColumnData::Str(names.into())),
                Column::new("type", ColumnData::Str(types.into())),
                Column::new("position", ColumnData::Int(positions.into())),
            ],
        )
        .expect("sys.args columns are same length")
    }

    /// The `sys.metrics` meta table: a live snapshot of the process-wide
    /// telemetry registry, (name, kind, value, sum, mean, p50, p90, p99).
    /// Counters and gauges fill `value`; histograms fill `value` with
    /// their count plus the sum/mean/percentile columns. Empty when
    /// telemetry is disabled.
    pub fn sys_metrics(&self) -> Table {
        let mut names = Vec::new();
        let mut kinds = Vec::new();
        let mut values = Vec::new();
        let mut sums = Vec::new();
        let mut means = Vec::new();
        let mut p50s = Vec::new();
        let mut p90s = Vec::new();
        let mut p99s = Vec::new();
        for row in obs::metrics::rows() {
            names.push(row.name);
            kinds.push(row.kind.to_string());
            values.push(row.value);
            sums.push(i64::try_from(row.sum).unwrap_or(i64::MAX));
            means.push(row.mean);
            p50s.push(i64::try_from(row.p50).unwrap_or(i64::MAX));
            p90s.push(i64::try_from(row.p90).unwrap_or(i64::MAX));
            p99s.push(i64::try_from(row.p99).unwrap_or(i64::MAX));
        }
        Table::from_columns(
            "sys.metrics",
            vec![
                Column::new("name", ColumnData::Str(names.into())),
                Column::new("kind", ColumnData::Str(kinds.into())),
                Column::new("value", ColumnData::Int(values.into())),
                Column::new("sum", ColumnData::Int(sums.into())),
                Column::new("mean", ColumnData::Double(means.into())),
                Column::new("p50", ColumnData::Int(p50s.into())),
                Column::new("p90", ColumnData::Int(p90s.into())),
                Column::new("p99", ColumnData::Int(p99s.into())),
            ],
        )
        .expect("sys.metrics columns are same length")
    }

    /// The `sys.profile` meta table: the line-level UDF profiler's
    /// accumulated rows, (func, line, hits, ns), sorted by (func, line).
    /// Empty unless `obs::profile` has been activated and a UDF has run
    /// since the last reset. Volatile: no epoch, never delta-cached.
    pub fn sys_profile() -> Table {
        let mut funcs = Vec::new();
        let mut lines = Vec::new();
        let mut hits = Vec::new();
        let mut nss = Vec::new();
        for row in obs::profile::rows() {
            funcs.push(row.func);
            lines.push(row.line as i64);
            hits.push(i64::try_from(row.hits).unwrap_or(i64::MAX));
            nss.push(i64::try_from(row.ns).unwrap_or(i64::MAX));
        }
        Table::from_columns(
            "sys.profile",
            vec![
                Column::new("func", ColumnData::Str(funcs.into())),
                Column::new("line", ColumnData::Int(lines.into())),
                Column::new("hits", ColumnData::Int(hits.into())),
                Column::new("ns", ColumnData::Int(nss.into())),
            ],
        )
        .expect("sys.profile columns are same length")
    }

    /// The `sys.tables` meta table: (name, epoch, rows, columns). One row
    /// per user table, sorted by name; `epoch` is the mutation counter at
    /// the table's most recent change (the delta cache's invalidation key).
    pub fn sys_tables(&self) -> Table {
        let mut names = Vec::new();
        let mut epochs = Vec::new();
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        for (key, table) in &self.tables {
            names.push(table.name.clone());
            epochs.push(self.epochs.get(key).copied().unwrap_or(0) as i64);
            rows.push(table.row_count() as i64);
            cols.push(table.columns.len() as i64);
        }
        Table::from_columns(
            "sys.tables",
            vec![
                Column::new("name", ColumnData::Str(names.into())),
                Column::new("epoch", ColumnData::Int(epochs.into())),
                Column::new("rows", ColumnData::Int(rows.into())),
                Column::new("columns", ColumnData::Int(cols.into())),
            ],
        )
        .expect("sys.tables columns are same length")
    }

    /// The `sys.sessions` meta table: one row per live wire session,
    /// (id, peer, state, commands, queue_wait_ns), sorted by id. Empty when
    /// no server is hosting this catalog. Volatile: no epoch, never
    /// delta-cached.
    pub fn sys_sessions(&self) -> Table {
        let mut rows = self.sessions.rows();
        rows.sort_by_key(|r| r.id);
        let mut ids = Vec::new();
        let mut peers = Vec::new();
        let mut states = Vec::new();
        let mut commands = Vec::new();
        let mut waits = Vec::new();
        for r in rows {
            ids.push(i64::try_from(r.id).unwrap_or(i64::MAX));
            peers.push(r.peer);
            states.push(r.state);
            commands.push(i64::try_from(r.commands).unwrap_or(i64::MAX));
            waits.push(i64::try_from(r.queue_wait_ns).unwrap_or(i64::MAX));
        }
        Table::from_columns(
            "sys.sessions",
            vec![
                Column::new("id", ColumnData::Int(ids.into())),
                Column::new("peer", ColumnData::Str(peers.into())),
                Column::new("state", ColumnData::Str(states.into())),
                Column::new("commands", ColumnData::Int(commands.into())),
                Column::new("queue_wait_ns", ColumnData::Int(waits.into())),
            ],
        )
        .expect("sys.sessions columns are same length")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_fn() -> FunctionDef {
        FunctionDef {
            name: "train_rnforest".to_string(),
            params: vec![
                ("data".to_string(), SqlType::Integer),
                ("classes".to_string(), SqlType::Integer),
                ("n_estimators".to_string(), SqlType::Integer),
            ],
            returns: FunctionReturn::Table(vec![
                ("clf".to_string(), SqlType::Blob),
                ("estimators".to_string(), SqlType::Integer),
            ]),
            language: "PYTHON".to_string(),
            body: "import pickle\nreturn {'clf': pickle.dumps(1), 'estimators': n_estimators}"
                .to_string(),
        }
    }

    #[test]
    fn create_and_fetch_function() {
        let mut c = Catalog::new();
        c.create_function(sample_fn(), false).unwrap();
        let f = c.function("TRAIN_RNFOREST").unwrap();
        assert_eq!(f.params.len(), 3);
        assert!(c.create_function(sample_fn(), false).is_err());
        c.create_function(sample_fn(), true).unwrap();
    }

    #[test]
    fn drop_function() {
        let mut c = Catalog::new();
        c.create_function(sample_fn(), false).unwrap();
        c.drop_function("train_rnforest", false).unwrap();
        assert!(c.function("train_rnforest").is_none());
        assert!(c.drop_function("train_rnforest", false).is_err());
        c.drop_function("train_rnforest", true).unwrap();
    }

    #[test]
    fn sys_functions_exposes_source_like_listing1() {
        let mut c = Catalog::new();
        c.create_function(sample_fn(), false).unwrap();
        let t = c.table("sys.functions").unwrap();
        assert_eq!(t.row_count(), 1);
        let name_col = t.column_by_name("name").unwrap();
        let func_col = t.column_by_name("func").unwrap();
        assert_eq!(name_col.get(0), SqlValue::Str("train_rnforest".into()));
        match func_col.get(0) {
            SqlValue::Str(body) => assert!(body.contains("import pickle")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sys_args_lists_parameters_in_order() {
        let mut c = Catalog::new();
        c.create_function(sample_fn(), false).unwrap();
        let t = c.table("sys.args").unwrap();
        assert_eq!(t.row_count(), 3);
        assert_eq!(
            t.column_by_name("name").unwrap().get(2),
            SqlValue::Str("n_estimators".into())
        );
        assert_eq!(
            t.column_by_name("position").unwrap().get(2),
            SqlValue::Int(2)
        );
    }

    #[test]
    fn tables_are_case_insensitive_and_unique() {
        let mut c = Catalog::new();
        c.create_table(Table::new(
            "People",
            &[("id".to_string(), SqlType::Integer)],
        ))
        .unwrap();
        assert!(c.table("people").is_ok());
        assert!(c
            .create_table(Table::new(
                "PEOPLE",
                &[("id".to_string(), SqlType::Integer)]
            ))
            .is_err());
        c.drop_table("People", false).unwrap();
        assert!(c.table("people").is_err());
        assert!(c.drop_table("people", false).is_err());
        c.drop_table("people", true).unwrap();
    }

    #[test]
    fn sys_schema_is_read_only() {
        let mut c = Catalog::new();
        let t = Table::new("sys.fake", &[("x".to_string(), SqlType::Integer)]);
        assert!(c.create_table(t).is_err());
    }

    #[test]
    fn epochs_advance_on_every_mutation_and_never_repeat() {
        let mut c = Catalog::new();
        assert_eq!(c.table_epoch("people"), None);
        c.create_table(Table::new(
            "People",
            &[("id".to_string(), SqlType::Integer)],
        ))
        .unwrap();
        let e1 = c.table_epoch("PEOPLE").expect("created table has epoch");
        c.table_mut("people").unwrap();
        let e2 = c.table_epoch("people").unwrap();
        assert!(e2 > e1, "DML bumps the epoch ({e1} -> {e2})");
        // Dropping removes the epoch; recreating assigns a strictly newer one.
        c.drop_table("people", false).unwrap();
        assert_eq!(c.table_epoch("people"), None);
        c.create_table(Table::new(
            "People",
            &[("id".to_string(), SqlType::Integer)],
        ))
        .unwrap();
        let e3 = c.table_epoch("people").unwrap();
        assert!(e3 > e2, "recreated table cannot reuse an old epoch");
    }

    #[test]
    fn function_ddl_bumps_the_functions_epoch() {
        let mut c = Catalog::new();
        let before = c.functions_epoch();
        c.create_function(sample_fn(), false).unwrap();
        let created = c.functions_epoch();
        assert!(created > before);
        assert_eq!(c.table_epoch("sys.functions"), Some(created));
        assert_eq!(c.table_epoch("sys.args"), Some(created));
        c.drop_function("train_rnforest", false).unwrap();
        assert!(c.functions_epoch() > created);
    }

    #[test]
    fn volatile_views_report_no_epoch() {
        let c = Catalog::new();
        assert_eq!(c.table_epoch("sys.metrics"), None);
        assert_eq!(c.table_epoch("sys.tables"), None);
        assert_eq!(c.table_epoch("sys.profile"), None);
        assert_eq!(c.table_epoch("sys.sessions"), None);
    }

    #[test]
    fn sys_sessions_reflects_the_installed_provider() {
        struct Fake;
        impl SessionProvider for Fake {
            fn sessions(&self) -> Vec<SessionRow> {
                vec![
                    SessionRow {
                        id: 2,
                        peer: "10.0.0.2:9".into(),
                        state: "idle".into(),
                        commands: 7,
                        queue_wait_ns: 120,
                    },
                    SessionRow {
                        id: 1,
                        peer: "in-proc".into(),
                        state: "running".into(),
                        commands: 3,
                        queue_wait_ns: 0,
                    },
                ]
            }
        }
        let mut c = Catalog::new();
        // Without a provider the view exists but is empty.
        assert_eq!(c.table("sys.sessions").unwrap().row_count(), 0);
        c.set_session_source(SessionSource::new(Arc::new(Fake)));
        let t = c.table("sys.sessions").unwrap();
        assert_eq!(
            t.columns
                .iter()
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>(),
            vec!["id", "peer", "state", "commands", "queue_wait_ns"]
        );
        assert_eq!(t.row_count(), 2);
        // Rows come out sorted by session id.
        assert_eq!(t.column_by_name("id").unwrap().get(0), SqlValue::Int(1));
        assert_eq!(
            t.column_by_name("peer").unwrap().get(1),
            SqlValue::Str("10.0.0.2:9".into())
        );
        assert_eq!(
            t.column_by_name("commands").unwrap().get(1),
            SqlValue::Int(7)
        );
    }

    #[test]
    fn clone_shares_table_storage_and_version() {
        let mut c = Catalog::new();
        c.create_table(Table::new(
            "numbers",
            &[("i".to_string(), SqlType::Integer)],
        ))
        .unwrap();
        c.table_mut("numbers")
            .unwrap()
            .push_row(&[SqlValue::Int(0)])
            .unwrap();
        let snap = c.clone();
        assert_eq!(snap.version(), c.version());
        // The clone shares column storage (every segment's Arc), not a
        // deep copy.
        let segments = |c: &Catalog| match c.table("numbers").unwrap().columns[0].data.clone() {
            ColumnData::Int(v) => v.segments().to_vec(),
            other => panic!("{other:?}"),
        };
        let (live, shared) = (segments(&c), segments(&snap));
        assert_eq!(live.len(), 1);
        assert!(Arc::ptr_eq(&live[0], &shared[0]));
        // Mutating the original copies-on-write; the snapshot is unaffected.
        c.table_mut("numbers")
            .unwrap()
            .push_row(&[SqlValue::Int(1)])
            .unwrap();
        assert!(c.version() > snap.version());
        assert!(!Arc::ptr_eq(&segments(&c)[0], &shared[0]));
        assert_eq!(c.table("numbers").unwrap().row_count(), 2);
        assert_eq!(snap.table("numbers").unwrap().row_count(), 1);
    }

    #[test]
    fn sys_profile_surfaces_profiler_rows() {
        let _serial = obs::metrics::test_lock();
        obs::set_enabled(true);
        obs::profile::reset();
        obs::profile::set_active(true);
        obs::profile::record(&[(("f".to_string(), 2), (5, 1_000))]);
        obs::profile::set_active(false);
        let c = Catalog::new();
        let t = c.table("sys.profile").unwrap();
        assert_eq!(
            t.columns
                .iter()
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>(),
            vec!["func", "line", "hits", "ns"]
        );
        assert_eq!(t.row_count(), 1);
        assert_eq!(
            t.column_by_name("func").unwrap().get(0),
            SqlValue::Str("f".into())
        );
        assert_eq!(t.column_by_name("line").unwrap().get(0), SqlValue::Int(2));
        assert_eq!(t.column_by_name("hits").unwrap().get(0), SqlValue::Int(5));
        assert_eq!(t.column_by_name("ns").unwrap().get(0), SqlValue::Int(1_000));
        obs::profile::reset();
    }

    #[test]
    fn sys_tables_lists_names_epochs_and_shapes() {
        let mut c = Catalog::new();
        c.create_table(Table::new(
            "numbers",
            &[("i".to_string(), SqlType::Integer)],
        ))
        .unwrap();
        let t = c.table("sys.tables").unwrap();
        assert_eq!(
            t.columns
                .iter()
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>(),
            vec!["name", "epoch", "rows", "columns"]
        );
        assert_eq!(t.row_count(), 1);
        assert_eq!(
            t.column_by_name("name").unwrap().get(0),
            SqlValue::Str("numbers".into())
        );
        assert_eq!(
            t.column_by_name("epoch").unwrap().get(0),
            SqlValue::Int(c.table_epoch("numbers").unwrap() as i64)
        );
    }

    #[test]
    fn sys_metrics_reflects_the_live_registry() {
        let _serial = obs::metrics::test_lock();
        obs::set_enabled(true);
        obs::counter!("test.catalog.visits").add(3);
        let c = Catalog::new();
        let t = c.table("sys.metrics").unwrap();
        assert_eq!(
            t.columns
                .iter()
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>(),
            vec!["name", "kind", "value", "sum", "mean", "p50", "p90", "p99"]
        );
        let names = match &t.columns[0].data {
            ColumnData::Str(v) => v.clone().into_vec(),
            other => panic!("{other:?}"),
        };
        let idx = names
            .iter()
            .position(|n| n == "test.catalog.visits")
            .expect("registered counter appears in sys.metrics");
        match &t.columns[2].data {
            ColumnData::Int(v) => assert!(v[idx] >= 3, "value {} < 3", v[idx]),
            other => panic!("{other:?}"),
        }
        // Rows come out sorted so the view is stable across snapshots.
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }
}
