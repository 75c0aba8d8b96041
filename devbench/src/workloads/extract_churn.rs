//! `extract_churn`: repeated input extraction while the data changes.
//!
//! One thread alternates two TCP connections. Even ops are `fetch_inputs`
//! (`main`) with compress + encrypt and 64 KiB blocks: 80 % use the hot
//! debug query, 20 % one of 11 `WHERE i >= k` variants — a 12-query
//! working set against the 8-entry delta cache — and 10 % are sampled to
//! 10 000 rows, which takes the classic, uncached path. Odd ops are writes
//! (`aux`) from the second connection: 40 % append 5 rows, 20 % update 4
//! scattered rows, 40 % go to an unrelated `log` table, which leaves every
//! cached extract valid.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use devudf::DevUdf;

use super::{Shape, UdfSide, World};
use crate::harness::{self, span, Budget, Kind, Lane, Rng, BUGGY_BODY, DEBUG_QUERY, UDF};

const ROWS: usize = 200_000;
const BLOCK_SIZE: usize = 64 * 1024;
const SAMPLE: usize = 10_000;
/// Thresholds of the 11 `WHERE i >= k` variants. Each keeps 91-99 % of
/// the rows, so every cache entry is about the same size: which 8 of the
/// 12 the cache holds then barely moves the process's peak memory.
const VARIANTS: [i64; 11] = [4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44];

pub struct Spec {
    seed: u64,
    values: Vec<i64>,
}

impl Spec {
    pub fn new(seed: u64) -> Spec {
        Spec {
            seed,
            values: harness::readings(&mut Rng::stream(seed, 2), ROWS),
        }
    }
}

impl super::Workload for Spec {
    fn shape(&self) -> Shape {
        Shape {
            rows: ROWS,
            threads: 1,
            connections: 2,
            transfer: "compress + encrypt, 64 KiB blocks, delta cache on (8 entries), 10% sampled to 10000 rows",
            storage: "in-memory server",
            udf_side: UdfSide::Nowhere,
            controls: false,
        }
    }

    fn setup(&self, dir: &Path) -> Result<Box<dyn World>, String> {
        let init = vec![
            "CREATE TABLE log (k INTEGER, v INTEGER)".to_string(),
            harness::create_udf(UDF, BUGGY_BODY),
        ];
        let (server, addr) = super::start_server(harness::load_statements(&self.values), init)?;
        let mut settings = super::tcp_settings(addr);
        let writer = DevUdf::connect_tcp(settings.clone(), &dir.join("writer"))
            .map_err(|e| e.to_string())?;
        settings.transfer.compress = true;
        settings.transfer.encrypt = true;
        settings.transfer.block_size = Some(BLOCK_SIZE);
        let project = dir.join("project");
        let mut fetcher = DevUdf::connect_tcp(settings, &project).map_err(|e| e.to_string())?;
        // Warm-up: import, then a cold and a cached extract.
        fetcher.import_all().map_err(|e| e.to_string())?;
        fetcher.fetch_inputs(UDF).map_err(|e| e.to_string())?;
        fetcher.fetch_inputs(UDF).map_err(|e| e.to_string())?;
        let mut queries = vec![DEBUG_QUERY.to_string()];
        queries.extend(
            VARIANTS
                .iter()
                .map(|k| format!("{DEBUG_QUERY} WHERE i >= {k}")),
        );
        Ok(Box::new(ExtractChurn {
            _server: server,
            fetcher,
            writer,
            project,
            queries,
            rng: Rng::stream(self.seed, 20),
            shadow: self.values.clone(),
            deck: Vec::new(),
            log_rows: 0,
        }))
    }
}

#[derive(Debug, Clone, Copy)]
enum Write {
    Append,
    Update,
    Log,
}

struct ExtractChurn {
    _server: wireproto::Server,
    fetcher: DevUdf,
    writer: DevUdf,
    project: PathBuf,
    /// The hot debug query, then the variants.
    queries: Vec<String>,
    rng: Rng,
    /// `numbers.i` by row id.
    shadow: Vec<i64>,
    deck: Vec<Write>,
    log_rows: i64,
}

impl ExtractChurn {
    fn fetch(&mut self, lane: &mut Lane) {
        let q = if self.rng.below(5) == 0 {
            1 + self.rng.below(VARIANTS.len() as u64) as usize
        } else {
            0
        };
        let sampled = self.rng.below(10) == 0;
        self.fetcher.settings.debug_query = self.queries[q].clone();
        self.fetcher.settings.transfer.sample = sampled.then_some(SAMPLE);
        let fetcher = &mut self.fetcher;
        let fetched = lane.op("fetch", Kind::Main, || {
            span("bench.fetch", || fetcher.fetch_inputs(UDF))
        });
        let stats = match fetched {
            Ok(s) => s,
            Err(e) => return lane.fail("fetch", e),
        };
        lane.add("extracts", 1.0);
        lane.add("wire_extracts", 1.0);
        lane.add("wire_bytes", stats.wire_len as f64);
        lane.add("raw_bytes", stats.raw_len as f64);
        let threshold = if q == 0 { i64::MIN } else { VARIANTS[q - 1] };
        let (n, sum) = self
            .shadow
            .iter()
            .filter(|&&v| v >= threshold)
            .fold((0usize, 0i64), |(n, s), &v| (n + 1, s + v));
        match harness::input_column_stats(&self.project) {
            Ok((len, _)) if sampled => lane.check(len == n.min(SAMPLE), "sampled fetch", || {
                format!(
                    "sampled extract holds {len} rows, expected {}",
                    n.min(SAMPLE)
                )
            }),
            Ok(got) => lane.check(got == (n, sum), "fetch", || {
                format!(
                    "{}: input.bin holds (len, sum) {got:?}, shadow ({n}, {sum})",
                    self.queries[q]
                )
            }),
            Err(e) => lane.fail("fetch", e),
        }
    }

    fn write(&mut self, lane: &mut Lane) {
        if self.deck.is_empty() {
            self.deck = vec![
                Write::Append,
                Write::Append,
                Write::Update,
                Write::Log,
                Write::Log,
            ];
            self.rng.shuffle(&mut self.deck);
        }
        let kind = self.deck.pop().expect("deck refilled above");
        let (sql, expect) = match kind {
            Write::Append => {
                let values: Vec<i64> = (0..5).map(|_| harness::reading(&mut self.rng)).collect();
                let sql = format!(
                    "INSERT INTO numbers VALUES {}",
                    harness::values_clause(self.shadow.len() as i64, &values)
                );
                self.shadow.extend_from_slice(&values);
                (sql, 5)
            }
            Write::Update => {
                // Four distinct rows spread over the table: a few dirty
                // blocks per update, not one contiguous run.
                let quarter = self.shadow.len() as u64 / 4;
                let v = harness::reading(&mut self.rng);
                let ids: Vec<String> = (0..4)
                    .map(|k| {
                        let id = (k * quarter + self.rng.below(quarter)) as usize;
                        self.shadow[id] = v;
                        id.to_string()
                    })
                    .collect();
                let sql = format!(
                    "UPDATE numbers SET i = {v} WHERE id IN ({})",
                    ids.join(", ")
                );
                (sql, 4)
            }
            Write::Log => {
                self.log_rows += 1;
                let v = harness::reading(&mut self.rng);
                (
                    format!("INSERT INTO log VALUES ({}, {v})", self.log_rows),
                    1,
                )
            }
        };
        let writer = &mut self.writer;
        let result = lane.op("write", Kind::Aux, || {
            span("bench.query", || writer.server_query(&sql))
        });
        lane.add("writes", 1.0);
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
}

impl World for ExtractChurn {
    fn run(&mut self, budgets: &[Budget]) -> Vec<Lane> {
        let mut lane = Lane::default();
        while budgets[0].more(&lane) {
            if lane.ops % 2 == 0 {
                self.fetch(&mut lane);
            } else {
                self.write(&mut lane);
            }
        }
        vec![lane]
    }

    fn probes(&mut self) -> BTreeMap<&'static str, f64> {
        // Probe a full, unsampled extract of the hot query.
        self.fetcher.settings.debug_query = DEBUG_QUERY.to_string();
        self.fetcher.settings.transfer.sample = None;
        if harness::quiet(|| self.fetcher.fetch_inputs(UDF)).is_err() {
            return BTreeMap::new();
        }
        super::pickle_probes(&self.project, BLOCK_SIZE)
    }
}
