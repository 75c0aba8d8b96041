//! `debug_loop`: the paper's devUDF loop (§2.5 Scenario A) over TCP.
//!
//! Sessions of: connect → `import_all` → `fetch_inputs` → first `run_udf`
//! (one `aux` op, the time to a first local result), then 40 edit →
//! `run_udf` iterations (`main` ops) alternating the Listing-4 bug and its
//! `abs()` fix, then `export` of the fix. Default transfer settings
//! (plain, delta cache on); one thread, one connection at a time.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use devudf::{DevUdf, Settings};
use pylite::Value;

use super::{Shape, UdfSide, World};
use crate::harness::{
    self, agrees, quiet, span, Budget, Kind, Lane, Oracle, BUGGY_BODY, BUGGY_LINE, DEBUG_QUERY,
    FIXED_LINE, UDF,
};

const ROWS: usize = 100_000;
const ITERATIONS: usize = 40;

pub struct Spec {
    load: Vec<String>,
    oracle: Oracle,
    sum: i64,
}

impl Spec {
    pub fn new(seed: u64) -> Spec {
        let values = harness::readings(&mut harness::Rng::stream(seed, 1), ROWS);
        Spec {
            load: harness::load_statements(&values),
            oracle: Oracle::of(&values),
            sum: values.iter().sum(),
        }
    }
}

impl super::Workload for Spec {
    fn shape(&self) -> Shape {
        Shape {
            rows: ROWS,
            threads: 1,
            connections: 1,
            transfer: "plain, delta cache on (defaults)",
            storage: "in-memory server",
            udf_side: UdfSide::Client,
            controls: true,
        }
    }

    fn setup(&self, dir: &Path) -> Result<Box<dyn World>, String> {
        let (server, addr) = super::start_server(
            self.load.clone(),
            vec![harness::create_udf(UDF, BUGGY_BODY)],
        )?;
        let settings = super::tcp_settings(addr);
        let project = dir.join("project");
        // Warm-up: one session start and a second local run.
        let mut dev = DevUdf::connect_tcp(settings.clone(), &project).map_err(|e| e.to_string())?;
        dev.import_all().map_err(|e| e.to_string())?;
        dev.fetch_inputs(UDF).map_err(|e| e.to_string())?;
        dev.run_udf(UDF).map_err(|e| e.to_string())?;
        dev.run_udf(UDF).map_err(|e| e.to_string())?;
        Ok(Box::new(DebugLoop {
            _server: server,
            settings,
            project,
            oracle: self.oracle,
            sum: self.sum,
            server_fixed: false,
        }))
    }
}

struct DebugLoop {
    _server: wireproto::Server,
    settings: Settings,
    project: PathBuf,
    oracle: Oracle,
    sum: i64,
    /// Whether the body stored on the server is the fixed one.
    server_fixed: bool,
}

fn float_result(run: &devudf::RunOutcome) -> Result<f64, String> {
    match run.result {
        Value::Float(f) => Ok(f),
        ref other => Err(format!("result is {}", other.repr())),
    }
}

impl DebugLoop {
    /// One session; returns `false` when the budget ran out inside it.
    fn session(&mut self, budget: Budget, lane: &mut Lane) -> bool {
        let settings = self.settings.clone();
        let project = self.project.clone();
        let start = lane.op("session_start", Kind::Aux, || -> devudf::Result<_> {
            let mut dev = span("bench.connect", || DevUdf::connect_tcp(settings, &project))?;
            span("bench.import", || dev.import_all())?;
            let stats = span("bench.fetch", || dev.fetch_inputs(UDF))?;
            let first = span("bench.run", || dev.run_udf(UDF))?;
            Ok((dev, stats, first))
        });
        let (mut dev, stats, first) = match start {
            Ok(s) => s,
            Err(e) => {
                lane.fail("session start", e);
                return true;
            }
        };
        lane.add("extracts", 1.0);
        lane.add("wire_extracts", 1.0);
        lane.add("wire_bytes", stats.wire_len as f64);
        lane.add("raw_bytes", stats.raw_len as f64);
        match harness::input_column_stats(&self.project) {
            Ok(got) => lane.check(got == (ROWS, self.sum), "extract", || {
                format!(
                    "input.bin holds (len, sum) {got:?}, shadow ({ROWS}, {})",
                    self.sum
                )
            }),
            Err(e) => lane.fail("extract", e),
        }
        match float_result(&first) {
            Ok(f) => lane.check_udf("first run", f, self.server_fixed, &self.oracle),
            Err(e) => lane.fail("first run", e),
        }

        // Both edits are prepared outside the timed iterations.
        let script = match dev.project.read_udf(UDF) {
            Ok(s) => s,
            Err(e) => {
                lane.fail("read script", e);
                return true;
            }
        };
        let buggy = script.replace(FIXED_LINE, BUGGY_LINE);
        let fixed = buggy.replace(BUGGY_LINE, FIXED_LINE);
        if buggy == fixed {
            lane.fail("edit", "the imported script lacks the Listing-4 line");
            return true;
        }
        let mut last = None;
        for j in 0..ITERATIONS {
            if !budget.more(lane) {
                return false;
            }
            // Odd iterations apply the fix, so the last one is fixed.
            let is_fixed = j % 2 == 1;
            let text = if is_fixed { &fixed } else { &buggy };
            let run = lane.op("iteration", Kind::Main, || {
                span("bench.edit", || dev.project.write_udf(UDF, text))?;
                span("bench.run", || dev.run_udf(UDF))
            });
            match run
                .map_err(|e| e.to_string())
                .and_then(|r| float_result(&r))
            {
                Ok(f) => {
                    lane.check_udf("iteration", f, is_fixed, &self.oracle);
                    last = Some(f);
                }
                Err(e) => lane.fail("iteration", e),
            }
        }
        if !budget.more(lane) {
            return false;
        }
        let exported = lane.op("export", Kind::Other, || {
            span("bench.export", || dev.export(&[UDF]))
        });
        if let Err(e) = exported {
            lane.fail("export", e);
            return true;
        }
        self.server_fixed = true;
        // The server must now compute what the last local run computed.
        let server = quiet(|| dev.server_query(DEBUG_QUERY))
            .map_err(|e| e.to_string())
            .and_then(|r| harness::scalar_result(&r));
        match (server, last) {
            (Ok(s), Some(local)) => lane.check(agrees(s, local), "export", || {
                format!("server computes {s} after export, the local run gave {local}")
            }),
            (Err(e), _) => lane.fail("export check", e),
            (Ok(_), None) => {}
        }
        true
    }
}

impl World for DebugLoop {
    fn run(&mut self, budgets: &[Budget]) -> Vec<Lane> {
        let mut lane = Lane::default();
        while budgets[0].more(&lane) && self.session(budgets[0], &mut lane) {}
        vec![lane]
    }

    fn probes(&mut self) -> BTreeMap<&'static str, f64> {
        super::pickle_probes(&self.project, wireproto::DEFAULT_BLOCK_SIZE)
    }
}
