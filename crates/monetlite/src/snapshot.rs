//! Epoch-stamped engine snapshots for concurrent reads.
//!
//! [`Engine`] is deliberately single-threaded (`Rc`/`RefCell` internals,
//! pylite values are `Rc`-based), so concurrency cannot come from sharing an
//! engine across threads. Instead, the writer thread publishes an
//! [`EngineSnapshot`] — a clone of the catalog plus the engine settings —
//! and reader threads *hydrate* a private engine from it.
//!
//! The snapshot is cheap by construction: every column keeps its values
//! and NULL mask in `Arc`-shared segments of
//! [`SEGMENT_ROWS`](crate::segments::SEGMENT_ROWS) rows (see
//! [`crate::segments`]), so cloning the catalog copies maps, counters and
//! one pointer per segment, never data. A later write on the live engine
//! copies only the segments it touches that a snapshot still holds: an
//! append the tail segment of each column, an UPDATE the segments holding
//! its rows. A DELETE under a held snapshot still rewrites (and so copies)
//! every segment from its first removed row on, because the rows after a
//! gap move down; no benchmark workload deletes while a snapshot is held.
//! Every published snapshot stays intact — MVCC at segment granularity,
//! versioned by the catalog's epoch counters.
//!
//! What a snapshot does **not** carry: the engine's virtual filesystem and
//! in-flight extraction state. Command classification
//! ([`crate::classify`]) routes anything that could touch those to the
//! writer, so hydrated readers never miss them.

use crate::catalog::Catalog;
use crate::engine::{Engine, ExecutionModel};

/// An immutable, `Send + Sync` copy of everything a reader needs to execute
/// read-only SQL: the catalog at one epoch plus the engine settings.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    pub catalog: Catalog,
    /// The catalog's global mutation counter at capture time. Equal epochs
    /// imply identical catalogs, so readers key their hydrated-engine cache
    /// on this.
    pub epoch: u64,
    pub model: ExecutionModel,
    pub exec_mode: pylite::ExecMode,
    pub udf_step_budget: u64,
    pub inline: bool,
}

impl EngineSnapshot {
    /// Build a private, single-threaded engine over this snapshot's state.
    /// The hydrated engine gets a fresh in-memory filesystem; classification
    /// keeps fs-dependent commands on the writer.
    pub fn hydrate(&self) -> Engine {
        Engine::from_snapshot(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::SqlValue;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn snapshot_is_send_and_sync() {
        assert_send_sync::<EngineSnapshot>();
    }

    #[test]
    fn hydrated_engine_answers_from_the_captured_epoch() {
        let db = Engine::new();
        db.execute("CREATE TABLE t (i INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        let snap = db.snapshot();
        assert_eq!(snap.epoch, db.catalog_version());

        // Mutate the live engine after the snapshot.
        db.execute("INSERT INTO t VALUES (3)").unwrap();

        let reader = snap.hydrate();
        let t = reader
            .execute("SELECT i FROM t")
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.row_count(), 2, "snapshot must not see the later INSERT");
        assert_eq!(reader.catalog_version(), snap.epoch);
        let live = db.execute("SELECT i FROM t").unwrap().into_table().unwrap();
        assert_eq!(live.row_count(), 3);
    }

    #[test]
    fn snapshot_carries_engine_settings() {
        let db = Engine::new();
        db.set_model(ExecutionModel::TupleAtATime);
        db.set_inline(false);
        db.set_udf_step_budget(1234);
        let reader = db.snapshot().hydrate();
        assert_eq!(reader.model(), ExecutionModel::TupleAtATime);
        assert!(!reader.inline_enabled());
        assert_eq!(reader.udf_step_budget(), 1234);
    }

    #[test]
    fn hydrated_engine_runs_udfs() {
        let db = Engine::new();
        db.execute("CREATE TABLE t (i INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (10), (20)").unwrap();
        db.execute(
            "CREATE FUNCTION double(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return i * 2 }",
        )
        .unwrap();
        let reader = db.snapshot().hydrate();
        let t = reader
            .execute("SELECT double(i) FROM t")
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.row(0)[0], SqlValue::Int(20));
        assert_eq!(t.row(1)[0], SqlValue::Int(40));
    }

    #[test]
    fn snapshots_share_column_storage_across_threads() {
        let db = Engine::new();
        db.execute("CREATE TABLE t (i INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        let snap = db.snapshot();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = snap.clone();
                std::thread::spawn(move || {
                    let reader = s.hydrate();
                    let t = reader
                        .execute("SELECT i FROM t")
                        .unwrap()
                        .into_table()
                        .unwrap();
                    t.row_count()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 1);
        }
    }
}
