//! The four workloads. Each is a seeded, closed-loop client of the real
//! stack; see README.md for why each exists and which layers it loads.

use std::collections::BTreeMap;
use std::path::Path;

use crate::harness::Lane;

pub mod debug_loop;
pub mod embedded_durable;
pub mod extract_churn;
pub mod traditional_loop;

pub const NAMES: [&str; 4] = [
    "debug_loop",
    "extract_churn",
    "traditional_loop",
    "embedded_durable",
];

/// Where the UDF under development executes during the ops, which decides
/// whose child the interpreter's time is in the per-layer attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UdfSide {
    /// Locally, in the devUDF client (`run_udf`).
    Client,
    /// Inside the server's engine (`SELECT udf(…)`).
    Server,
    /// Nowhere: the workload only extracts inputs and writes data.
    Nowhere,
}

/// What the run record states about a workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub rows: usize,
    /// Closed-loop client threads (one [`Lane`] each).
    pub threads: usize,
    /// Client connections open at once (0 = embedded, no wire).
    pub connections: usize,
    pub transfer: &'static str,
    pub storage: &'static str,
    pub udf_side: UdfSide,
    /// Whether buggy bodies run, so the negative control must fire.
    pub controls: bool,
}

/// A workload's seeded inputs, ready to build worlds from.
pub trait Workload {
    fn shape(&self) -> Shape;

    /// Build a fresh world under `dir`: start the program, load the data,
    /// warm it up. This is what `setup_s` times.
    fn setup(&self, dir: &Path) -> Result<Box<dyn World>, String>;
}

/// A running instance of the program under one workload.
pub trait World {
    /// Run the ops, one [`Lane`] per client thread, each until its budget.
    fn run(&mut self, budgets: &[crate::harness::Budget]) -> Vec<Lane>;

    /// Time public functions on this world's own inputs, after a traced
    /// run: per-call nanoseconds by probe name (see `layers.rs`).
    fn probes(&mut self) -> BTreeMap<&'static str, f64>;
}

/// Generate the inputs of workload `name` from `seed`.
pub fn workload(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "debug_loop" => Box::new(debug_loop::Spec::new(seed)),
        "extract_churn" => Box::new(extract_churn::Spec::new(seed)),
        "traditional_loop" => Box::new(traditional_loop::Spec::new(seed)),
        "embedded_durable" => Box::new(embedded_durable::Spec::new(seed)),
        _ => return None,
    })
}

/// Settings of a devUDF session against a TCP server at `addr`.
pub fn tcp_settings(addr: std::net::SocketAddr) -> devudf::Settings {
    devudf::Settings {
        host: addr.ip().to_string(),
        port: addr.port(),
        debug_query: crate::harness::DEBUG_QUERY.to_string(),
        ..Default::default()
    }
}

/// A server holding `numbers` (loaded by `load`), running `init` after.
pub fn start_server(
    load: Vec<String>,
    init: Vec<String>,
) -> Result<(wireproto::Server, std::net::SocketAddr), String> {
    let server = wireproto::Server::start(
        wireproto::ServerConfig::new("demo", "monetdb", "monetdb"),
        move |db| {
            for sql in std::iter::once(crate::harness::CREATE_NUMBERS)
                .chain(load.iter().map(String::as_str))
                .chain(init.iter().map(String::as_str))
            {
                // The statements are the benchmark's own; a failure here
                // is a broken program, and the run must stop.
                db.execute(sql)
                    .unwrap_or_else(|e| panic!("server init failed on {sql:.60}: {e}"));
            }
        },
    );
    let addr = server.listen_tcp().map_err(|e| e.to_string())?;
    Ok((server, addr))
}

/// P probes shared by the extract workloads: `pickle::loads` of the
/// project's `input.bin` ("unpickle"), `pickle::dumps` plus
/// `write_input_bin` of the same value ("repickle"), and the client's
/// delta-cache insert of its pickle at `block_size` ("cache_insert").
pub fn pickle_probes(project: &Path, block_size: usize) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let Ok(bytes) = std::fs::read(project.join("input.bin")) else {
        return out;
    };
    let Ok(value) = pylite::pickle::loads(&bytes) else {
        return out;
    };
    out.insert(
        "unpickle",
        crate::harness::probe_ns(5, || {
            std::hint::black_box(pylite::pickle::loads(&bytes).ok());
        }),
    );
    if let Ok(raw) = wireproto::transfer::pickle_inputs(&value) {
        out.insert(
            "cache_insert",
            crate::harness::probe_ns(5, || {
                std::hint::black_box(wireproto::delta::CacheEntry::from_raw(
                    &raw,
                    block_size,
                    Vec::new(),
                ));
            }),
        );
    }
    if let Ok(proj) = devudf::Project::open(project) {
        out.insert(
            "repickle",
            crate::harness::probe_ns(5, || {
                if let Ok(blob) = pylite::pickle::dumps(&value) {
                    proj.write_input_bin(&blob).ok();
                }
            }),
        );
    }
    out
}
