//! `traditional_loop`: the paper's baseline workflow (§1) — every fix is
//! re-created on the server and rerun there.
//!
//! Two client threads over TCP, each owning one UDF over the shared table.
//! Each iteration (`main`) is `CREATE OR REPLACE` + `SELECT udf(i) FROM
//! numbers`, cycling the buggy loop, the fixed loop (both interpreted by
//! the server's VM) and the vectorised body (inlined by the engine). A
//! session reconnects every 40 iterations; its connect → CREATE → first
//! SELECT is the `aux` op, the time to a first server-side result.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use devudf::{DevUdf, Settings};

use super::{Shape, UdfSide, World};
use crate::harness::{self, span, Budget, Kind, Lane, Oracle, BUGGY_BODY, VECTOR_BODY};

const ROWS: usize = 100_000;
const ITERATIONS: usize = 40;
const SESSIONS: usize = 2;

pub struct Spec {
    load: Vec<String>,
    oracle: Oracle,
}

impl Spec {
    pub fn new(seed: u64) -> Spec {
        let values = harness::readings(&mut harness::Rng::stream(seed, 3), ROWS);
        Spec {
            load: harness::load_statements(&values),
            oracle: Oracle::of(&values),
        }
    }
}

fn udf_name(session: usize) -> String {
    format!("mean_deviation_{session}")
}

/// The three bodies a session cycles through, and whether each is fixed.
fn bodies() -> [(String, bool); 3] {
    [
        (BUGGY_BODY.to_string(), false),
        (harness::fixed_body(), true),
        (VECTOR_BODY.to_string(), true),
    ]
}

impl super::Workload for Spec {
    fn shape(&self) -> Shape {
        Shape {
            rows: ROWS,
            threads: SESSIONS,
            connections: SESSIONS,
            transfer: "none (results only)",
            storage: "in-memory server",
            udf_side: UdfSide::Server,
            controls: true,
        }
    }

    fn setup(&self, dir: &Path) -> Result<Box<dyn World>, String> {
        let udfs = (0..SESSIONS)
            .map(|s| harness::create_udf(&udf_name(s), BUGGY_BODY))
            .collect();
        let (server, addr) = super::start_server(self.load.clone(), udfs)?;
        let settings = super::tcp_settings(addr);
        // Warm-up: every session runs each body once.
        for s in 0..SESSIONS {
            let mut dev = DevUdf::connect_tcp(settings.clone(), &dir.join(format!("project-{s}")))
                .map_err(|e| e.to_string())?;
            for (body, _) in bodies() {
                dev.server_query(&harness::create_udf(&udf_name(s), &body))
                    .map_err(|e| e.to_string())?;
                dev.server_query(&select(s)).map_err(|e| e.to_string())?;
            }
        }
        Ok(Box::new(TraditionalLoop {
            _server: server,
            settings,
            dir: dir.to_path_buf(),
            oracle: self.oracle,
        }))
    }
}

fn select(session: usize) -> String {
    format!("SELECT {}(i) FROM numbers", udf_name(session))
}

struct TraditionalLoop {
    _server: wireproto::Server,
    settings: Settings,
    dir: PathBuf,
    oracle: Oracle,
}

/// One client thread: sessions of [`ITERATIONS`] iterations until `budget`.
fn client(
    session: usize,
    settings: &Settings,
    project: &Path,
    oracle: &Oracle,
    budget: Budget,
) -> Lane {
    let creates: Vec<(String, bool)> = bodies()
        .into_iter()
        .map(|(body, fixed)| (harness::create_udf(&udf_name(session), &body), fixed))
        .collect();
    let select = select(session);
    let mut lane = Lane::default();
    // The two sessions start on different bodies.
    let mut k = session;
    while budget.more(&lane) {
        let (create, fixed) = &creates[k % 3];
        k += 1;
        let start = lane.op("session_start", Kind::Aux, || -> devudf::Result<_> {
            let mut dev = span("bench.connect", || {
                DevUdf::connect_tcp(settings.clone(), project)
            })?;
            span("bench.query", || dev.server_query(create))?;
            let first = span("bench.query", || dev.server_query(&select))?;
            Ok((dev, first))
        });
        let mut dev = match start {
            Ok((dev, first)) => {
                check(&mut lane, &first, *fixed, oracle);
                dev
            }
            Err(e) => {
                lane.fail("session start", e);
                continue;
            }
        };
        for _ in 1..ITERATIONS {
            if !budget.more(&lane) {
                break;
            }
            let (create, fixed) = &creates[k % 3];
            k += 1;
            let result = lane.op("iteration", Kind::Main, || {
                span("bench.query", || dev.server_query(create))?;
                span("bench.query", || dev.server_query(&select))
            });
            match result {
                Ok(r) => check(&mut lane, &r, *fixed, oracle),
                Err(e) => lane.fail("iteration", e),
            }
        }
    }
    lane
}

fn check(lane: &mut Lane, result: &wireproto::message::WireResult, fixed: bool, oracle: &Oracle) {
    match harness::scalar_result(result) {
        Ok(f) => lane.check_udf("select", f, fixed, oracle),
        Err(e) => lane.fail("select", e),
    }
}

impl World for TraditionalLoop {
    fn run(&mut self, budgets: &[Budget]) -> Vec<Lane> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = budgets
                .iter()
                .enumerate()
                .map(|(s, &budget)| {
                    let project = self.dir.join(format!("project-{s}"));
                    let (settings, oracle) = (&self.settings, &self.oracle);
                    scope.spawn(move || client(s, settings, &project, oracle, budget))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    }

    fn probes(&mut self) -> BTreeMap<&'static str, f64> {
        BTreeMap::new()
    }
}
