//! `embedded_durable`: MonetDBLite mode with durability — the engine runs
//! in-process (`DevUdf::connect_embedded`) on a data directory with the
//! shipped storage defaults (`fsync=always`, `snapshot_every=1024`).
//!
//! One thread draws ops from a shuffled deck of 20: 8 writes (`main`),
//! 7 `fetch_inputs` (`aux`), 3 `SELECT COUNT(*), SUM(i)` and 2 exports.
//! The writes are 1 INSERT of 10 rows, 6 single-row UPDATEs and 1 DELETE
//! of the 10 oldest rows, so live rows are the same after every deck.
//! Updates dominate so that the median write is an update: with inserts,
//! updates and deletes in similar shares the median sits where two of
//! their latency modes meet, and moves 10 % between runs.
//!
//! Every 2000 ops the session closes and reopens the directory, which
//! replays the WAL tail past the last snapshot (0 to 1023 records, about
//! 2 ms each). Reopens are set aside from the latency series, the
//! throughput and the time budget ([`Lane::aside`]): a run holds only a
//! few, and each one's cost depends on where in the checkpoint cycle it
//! falls. Their time is a per-layer metric. No `COPY INTO`: the WAL logs
//! SQL text, and replaying a file load is a known open bug, not a
//! workload.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};

use devudf::{DevUdf, Settings};
use monetlite::Engine;

use super::{Shape, UdfSide, World};
use crate::harness::{self, quiet, span, Budget, Kind, Lane, Rng, BUGGY_BODY, DEBUG_QUERY, UDF};

const ROWS: usize = 200_000;
const REOPEN_EVERY: u64 = 2000;
const BATCH: usize = 10;
const COUNT_QUERY: &str = "SELECT COUNT(*), SUM(i) FROM numbers";

pub struct Spec {
    seed: u64,
    values: Vec<i64>,
}

impl Spec {
    pub fn new(seed: u64) -> Spec {
        Spec {
            seed,
            values: harness::readings(&mut Rng::stream(seed, 4), ROWS),
        }
    }
}

impl super::Workload for Spec {
    fn shape(&self) -> Shape {
        Shape {
            rows: ROWS,
            threads: 1,
            connections: 0,
            transfer: "none (embedded: values handed over in-process)",
            storage: "fsync=always, snapshot_every=1024 (shipped defaults)",
            udf_side: UdfSide::Nowhere,
            controls: false,
        }
    }

    fn setup(&self, dir: &Path) -> Result<Box<dyn World>, String> {
        let data = dir.join("data");
        let mut settings = Settings {
            debug_query: DEBUG_QUERY.to_string(),
            ..Default::default()
        };
        settings.storage.data_dir = data.to_string_lossy().into_owned();
        let project = dir.join("project");
        let load = harness::load_statements(&self.values);
        let mut engine = None;
        let mut dev = DevUdf::connect_embedded(settings.clone(), &project, |db| {
            for sql in
                std::iter::once(harness::CREATE_NUMBERS).chain(load.iter().map(String::as_str))
            {
                db.execute(sql)
                    .unwrap_or_else(|e| panic!("load failed on {sql:.60}: {e}"));
            }
            db.execute(&harness::create_udf(UDF, BUGGY_BODY))
                .unwrap_or_else(|e| panic!("create udf failed: {e}"));
            // Start from a snapshot, as a long-lived data directory would.
            db.checkpoint()
                .unwrap_or_else(|e| panic!("checkpoint failed: {e}"));
            engine = Some(db.clone());
        })
        .map_err(|e| e.to_string())?;
        // Warm-up: import, then two extracts.
        dev.import_all().map_err(|e| e.to_string())?;
        dev.fetch_inputs(UDF).map_err(|e| e.to_string())?;
        dev.fetch_inputs(UDF).map_err(|e| e.to_string())?;
        let sum = self.values.iter().sum();
        Ok(Box::new(EmbeddedDurable {
            engine,
            dev: Some(dev),
            settings,
            project,
            data,
            rng: Rng::stream(self.seed, 40),
            shadow: self.values.iter().copied().collect(),
            front_id: 0,
            sum,
            body: BUGGY_BODY.to_string(),
            exports: 0,
            deck: Vec::new(),
            last_read_version: None,
        }))
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Fetch,
    Count,
    Insert,
    Update,
    Delete,
    Export,
}

const DECK: [(Op, usize); 6] = [
    (Op::Fetch, 7),
    (Op::Count, 3),
    (Op::Insert, 1),
    (Op::Update, 6),
    (Op::Delete, 1),
    (Op::Export, 2),
];

struct EmbeddedDurable {
    /// A handle on the embedded engine (for storage counters and probes);
    /// dropped with the session before every reopen.
    engine: Option<Engine>,
    dev: Option<DevUdf>,
    settings: Settings,
    project: PathBuf,
    data: PathBuf,
    rng: Rng,
    /// `numbers.i` of the live rows; their ids run from `front_id` up.
    shadow: VecDeque<i64>,
    front_id: i64,
    sum: i64,
    /// The UDF body stored in the catalog.
    body: String,
    exports: u64,
    deck: Vec<Op>,
    last_read_version: Option<u64>,
}

impl EmbeddedDurable {
    fn dev(&mut self) -> &mut DevUdf {
        self.dev.as_mut().expect("session open between reopens")
    }

    fn engine(&self) -> &Engine {
        self.engine.as_ref().expect("engine open between reopens")
    }

    /// Note whether this read sees a catalog that moved since the last
    /// read (the embedded reader then re-hydrates its snapshot engine).
    fn note_read(&mut self, lane: &mut Lane, fetch: bool) {
        let version = self.engine().catalog_version();
        lane.add("reads", 1.0);
        if self.last_read_version != Some(version) {
            lane.add("reads_after_write", 1.0);
            if fetch {
                lane.add("fetches_after_write", 1.0);
            }
        }
        self.last_read_version = Some(version);
    }

    fn fetch(&mut self, lane: &mut Lane) {
        self.note_read(lane, true);
        let dev = self.dev();
        let fetched = lane.op("fetch", Kind::Aux, || {
            span("bench.fetch", || dev.fetch_inputs(UDF))
        });
        if let Err(e) = fetched {
            return lane.fail("fetch", e);
        }
        lane.add("extracts", 1.0);
        let want = (self.shadow.len(), self.sum);
        match harness::input_column_stats(&self.project) {
            Ok(got) => lane.check(got == want, "fetch", || {
                format!("input.bin holds (len, sum) {got:?}, shadow {want:?}")
            }),
            Err(e) => lane.fail("fetch", e),
        }
    }

    fn count(&mut self, lane: &mut Lane, quietly: bool) {
        let client = self.dev().client();
        let result = if quietly {
            quiet(|| client.borrow_mut().query(COUNT_QUERY))
        } else {
            self.note_read(lane, false);
            lane.op("count", Kind::Other, || {
                span("bench.embedded_query", || {
                    client.borrow_mut().query(COUNT_QUERY)
                })
            })
        };
        let row = result
            .map_err(|e| e.to_string())
            .and_then(|r| r.into_table().map_err(|e| e.to_string()))
            .map(|t| t.rows.first().cloned().unwrap_or_default());
        let want = vec![
            wireproto::WireValue::Int(self.shadow.len() as i64),
            wireproto::WireValue::Int(self.sum),
        ];
        match row {
            Ok(got) => lane.check(got == want, "count", || {
                format!("count/sum {got:?}, shadow {want:?}")
            }),
            Err(e) => lane.fail("count", e),
        }
    }

    /// Run one statement as a `main` write, tallying what storage did.
    fn write(&mut self, lane: &mut Lane, sql: &str, expect: u64) {
        let before = self.engine().storage_stats();
        let client = self.dev().client();
        let result = lane.op("write", Kind::Main, || {
            span("bench.embedded_query", || client.borrow_mut().query(sql))
        });
        self.tally_storage(lane, before, sql.len());
        match result
            .map_err(|e| e.to_string())
            .and_then(|r| harness::affected(&r))
        {
            Ok(rows) => lane.check(rows == expect, "write", || {
                format!("{sql:.60}… affected {rows} rows, expected {expect}")
            }),
            Err(e) => lane.fail("write", e),
        }
    }

    /// WAL bytes appended, snapshot bytes written and statement bytes of
    /// the write just timed (its latency is the lane's last sample).
    fn tally_storage(
        &self,
        lane: &mut Lane,
        before: Option<monetlite::StorageStats>,
        user_bytes: usize,
    ) {
        let (Some(before), Some(after)) = (before, self.engine().storage_stats()) else {
            return;
        };
        let ms = lane.last_ms();
        lane.add("writes", 1.0);
        lane.add("write_ms", ms);
        lane.add("user_bytes", user_bytes as f64);
        if after.base_seq == before.base_seq {
            lane.add("wal_appends", 1.0);
            lane.add(
                "wal_bytes",
                after.wal_bytes.saturating_sub(before.wal_bytes) as f64,
            );
        } else {
            let snapshot = std::fs::metadata(self.data.join("snapshot.db")).map_or(0, |m| m.len());
            lane.add("checkpoint_writes", 1.0);
            lane.add("checkpoint_write_ms", ms);
            lane.add("snapshot_bytes", snapshot as f64);
        }
    }

    fn export(&mut self, lane: &mut Lane) {
        // The local edit happens outside the timed export: alternate the
        // fix and the bug, with a revision line so every export differs.
        self.exports += 1;
        let base = if self.exports % 2 == 1 {
            harness::fixed_body()
        } else {
            BUGGY_BODY.to_string()
        };
        let body = format!("# rev {}\n{base}", self.exports);
        let old = harness::indent(&self.body);
        let edited = self
            .dev()
            .project
            .read_udf(UDF)
            .map(|script| script.replace(&old, &harness::indent(&body)));
        match edited {
            Ok(script) if script.contains(&harness::indent(&body)) => {
                if let Err(e) = self.dev().project.write_udf(UDF, &script) {
                    return lane.fail("edit", e);
                }
            }
            Ok(_) => return lane.fail("edit", "the stored body is not in the local script"),
            Err(e) => return lane.fail("edit", e),
        }
        let before = self.engine().storage_stats();
        let dev = self.dev();
        let exported = lane.op("export", Kind::Other, || {
            span("bench.export", || dev.export(&[UDF]))
        });
        self.tally_storage(lane, before, harness::create_udf(UDF, &body).len());
        match exported {
            Ok(_) => {
                self.body = body;
                self.check_body(lane, "export");
            }
            Err(e) => lane.fail("export", e),
        }
    }

    fn check_body(&mut self, lane: &mut Lane, what: &str) {
        let stored = quiet(|| self.dev().function_info(UDF));
        match stored {
            Ok(info) => lane.check(info.body.trim_end() == self.body.trim_end(), what, || {
                format!("stored body {:?}, expected {:?}", info.body, self.body)
            }),
            Err(e) => lane.fail(what, e),
        }
    }

    fn reopen(&mut self, lane: &mut Lane) {
        if let Some(stats) = self.engine().storage_stats() {
            lane.add("replayed_records", stats.wal_records as f64);
        }
        // Close: every handle on the engine goes, so the directory is free.
        self.dev = None;
        self.engine = None;
        let (settings, project) = (self.settings.clone(), &self.project);
        let mut engine = None;
        let (reopened, ms) = lane.aside("reopen", || {
            DevUdf::connect_embedded(settings, project, |db| engine = Some(db.clone()))
        });
        lane.add("reopens", 1.0);
        lane.add("reopen_ms", ms);
        match reopened {
            Ok(dev) => {
                self.dev = Some(dev);
                self.engine = engine;
                self.last_read_version = None;
                // Row count, sum and stored body must survive the restart.
                self.count(lane, true);
                self.check_body(lane, "reopen");
            }
            Err(e) => {
                // Without a session nothing further can run.
                lane.fail("reopen", e);
                panic!("devbench: cannot reopen {}", self.data.display());
            }
        }
    }

    fn step(&mut self, lane: &mut Lane) {
        if lane.ops > 0 && lane.ops.is_multiple_of(REOPEN_EVERY) {
            return self.reopen(lane);
        }
        if self.deck.is_empty() {
            self.deck = DECK
                .iter()
                .flat_map(|&(op, n)| std::iter::repeat_n(op, n))
                .collect();
            self.rng.shuffle(&mut self.deck);
        }
        match self.deck.pop().expect("deck refilled above") {
            Op::Fetch => self.fetch(lane),
            Op::Count => self.count(lane, false),
            Op::Insert => {
                let values: Vec<i64> = (0..BATCH)
                    .map(|_| harness::reading(&mut self.rng))
                    .collect();
                let next_id = self.front_id + self.shadow.len() as i64;
                let sql = format!(
                    "INSERT INTO numbers VALUES {}",
                    harness::values_clause(next_id, &values)
                );
                self.shadow.extend(values.iter().copied());
                self.sum += values.iter().sum::<i64>();
                self.write(lane, &sql, BATCH as u64);
            }
            Op::Update => {
                let k = self.rng.below(self.shadow.len() as u64) as usize;
                let v = harness::reading(&mut self.rng);
                self.sum += v - self.shadow[k];
                self.shadow[k] = v;
                let sql = format!(
                    "UPDATE numbers SET i = {v} WHERE id = {}",
                    self.front_id + k as i64
                );
                self.write(lane, &sql, 1);
            }
            Op::Delete => {
                let removed: i64 = self.shadow.drain(..BATCH).sum();
                self.sum -= removed;
                self.front_id += BATCH as i64;
                let sql = format!("DELETE FROM numbers WHERE id < {}", self.front_id);
                self.write(lane, &sql, BATCH as u64);
            }
            Op::Export => self.export(lane),
        }
    }
}

impl World for EmbeddedDurable {
    fn run(&mut self, budgets: &[Budget]) -> Vec<Lane> {
        let mut lane = Lane::default();
        while budgets[0].more(&lane) {
            self.step(&mut lane);
        }
        // Space used per byte of live data, at the end of the run.
        let disk: u64 = ["snapshot.db", "wal.log"]
            .iter()
            .filter_map(|f| std::fs::metadata(self.data.join(f)).ok())
            .map(|m| m.len())
            .sum();
        lane.add("disk_bytes", disk as f64);
        lane.add("live_bytes", (self.shadow.len() * 16) as f64);
        vec![lane]
    }

    fn probes(&mut self) -> BTreeMap<&'static str, f64> {
        // No wire: nothing is unpickled or cached on the client side.
        let mut out = super::pickle_probes(&self.project, wireproto::DEFAULT_BLOCK_SIZE);
        out.remove("unpickle");
        out.remove("cache_insert");
        let engine = self.engine().clone();
        out.insert(
            "hydrate",
            harness::probe_ns(5, || {
                std::hint::black_box(engine.snapshot().hydrate());
            }),
        );
        let reader = engine.snapshot().hydrate();
        out.insert(
            "extract",
            harness::probe_ns(5, || {
                std::hint::black_box(reader.extract_inputs_with_deps(DEBUG_QUERY, UDF).ok());
            }),
        );
        out
    }
}
