//! Per-layer metrics of a traced run.
//!
//! Three sources, all read from outside the program:
//! - **S**: bench-side spans around public calls (`bench.*`, see
//!   [`crate::harness::span`]);
//! - **R**: deltas of the `obs` registry over the timed phase;
//! - **P**: public functions timed on the workload's own inputs after the
//!   phase ([`crate::workloads::World::probes`]), scaled by call counts.
//!
//! Times are reported as shares of the op wall time (`*_frac`). They form
//! one attribution tree whose leaves do not overlap: each measured interval
//! is charged to its parent's budget ([`take`]), and a parent keeps what
//! its children do not explain as its self time. `unattributed_frac` is
//! the op wall time outside every bench span. A layer a workload never
//! reaches reads 0.

use std::collections::BTreeMap;

use crate::harness::{Lane, Registry, SpanTotals};
use crate::workloads::UdfSide;

/// Spans around `devudf` calls: the parents of everything on the wire.
const CORE_SPANS: [&str; 6] = [
    "bench.connect",
    "bench.import",
    "bench.fetch",
    "bench.run",
    "bench.export",
    "bench.query",
];

/// Charge `want` to `pool`: a child can never exceed what its parent has
/// left (parallel pool work can sum past the wall time it overlaps).
fn take(pool: &mut f64, want: f64) -> f64 {
    let got = want.clamp(0.0, *pool);
    *pool -= got;
    got
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub struct TracedRun<'a> {
    pub lane: &'a Lane,
    pub spans: &'a SpanTotals,
    pub reg: &'a Registry,
    pub probes: &'a BTreeMap<&'static str, f64>,
    pub udf_side: UdfSide,
    /// Traced op time over untraced op time, minus one (both scaled to
    /// the reference host speed).
    pub overhead: f64,
}

/// `(name, value, unit)` of every per-layer metric, in `BENCHMARK.json`
/// order.
pub fn metrics(run: &TracedRun) -> Vec<(&'static str, f64, &'static str)> {
    let (lane, reg) = (run.lane, run.reg);
    let probe = |name: &str| run.probes.get(name).copied().unwrap_or(0.0);
    let wall = lane.spent.as_nanos() as f64;
    let ops = lane.ops as f64;
    let extracts = lane.get("extracts");
    let wire_extracts = lane.get("wire_extracts");

    // Top-level spans: every op is made of these.
    let core_spans: f64 = CORE_SPANS.iter().map(|s| run.spans.ns(s)).sum();
    let edit = run.spans.ns("bench.edit");
    let embedded_query = run.spans.ns("bench.embedded_query");
    let unattributed = (wall - core_spans - edit - embedded_query).max(0.0);

    // Inside the core calls: the wire round trips …
    let mut core = core_spans;
    let mut rtt = take(&mut core, reg.sum_prefix("wire.client.latency."));
    let queue_wait = take(&mut rtt, reg.sum("wire.server.queue_wait_ns"));
    let mut dispatch = take(&mut rtt, reg.sum_prefix("wire.server.latency."));
    let client_wire = rtt;
    let encode = take(&mut dispatch, reg.sum("transfer.block.encode_ns"));
    // … the interpreter, on whichever side runs the UDF …
    let (py_exec, py_compile, udf) = {
        let exec = reg.sum("pylite.exec_bytecode_ns") + reg.sum("pylite.exec_ast_ns");
        let compile = reg.sum("pylite.compile_ns");
        if run.udf_side == UdfSide::Server {
            let mut udf = take(&mut dispatch, reg.sum("monet.udf.latency"));
            let e = take(&mut udf, exec);
            let c = take(&mut udf, compile);
            (e, c, udf)
        } else {
            let udf = take(&mut dispatch, reg.sum("monet.udf.latency"));
            (take(&mut core, exec), take(&mut core, compile), udf)
        }
    };
    // … and the client-side codec, pickling and embedded engine work.
    let decode = take(&mut core, reg.sum("transfer.block.decode_ns"));
    let pickle = take(
        &mut core,
        probe("unpickle") * wire_extracts + probe("repickle") * extracts,
    );
    let delta_replies = reg.count("transfer.delta.hits") + reg.count("transfer.delta.misses");
    let cache_insert = take(&mut core, probe("cache_insert") * delta_replies);
    let hydrate = take(
        &mut core,
        probe("hydrate") * lane.get("fetches_after_write"),
    );
    let engine_extract = take(&mut core, probe("extract") * (extracts - wire_extracts));

    let frac = |ns: f64| ratio(ns, wall);
    let kib = 1.0 / 1024.0;
    let blocks_reused = reg.sum("transfer.delta.blocks_reused");
    let blocks_shipped = reg.count("transfer.delta.server.blocks_shipped");
    let inlined = reg.count("monetlite.udf.inlined");
    let bailed = reg.count("monetlite.udf.bailed");
    let kdf_hits = reg.count("transfer.kdf.cache_hits");
    let kdf_misses = reg.count("transfer.kdf.cache_misses");
    let writes = lane.get("writes");
    let wal_appends = lane.get("wal_appends");
    let wal_per_append = ratio(lane.get("wal_bytes"), wal_appends);
    // A write that checkpointed also appended one WAL record first; its
    // size is estimated by the mean of the others.
    let wal_total = lane.get("wal_bytes") + wal_per_append * lane.get("checkpoint_writes");
    let checkpoint_writes = lane.get("checkpoint_writes");

    vec![
        ("core.edit_frac", frac(edit), "frac"),
        ("core.self_frac", frac(core), "frac"),
        ("pylite.pickle_frac", frac(pickle), "frac"),
        ("pylite.compile_frac", frac(py_compile), "frac"),
        ("pylite.exec_frac", frac(py_exec), "frac"),
        ("client.wire_frac", frac(client_wire), "frac"),
        ("server.queue_wait_frac", frac(queue_wait), "frac"),
        ("server.dispatch_frac", frac(dispatch), "frac"),
        ("monet.udf_frac", frac(udf), "frac"),
        ("transfer.encode_frac", frac(encode), "frac"),
        ("transfer.decode_frac", frac(decode), "frac"),
        ("delta.cache_frac", frac(cache_insert), "frac"),
        ("embedded.query_frac", frac(embedded_query), "frac"),
        ("embedded.hydrate_frac", frac(hydrate), "frac"),
        ("monet.extract_frac", frac(engine_extract), "frac"),
        ("unattributed_frac", frac(unattributed), "frac"),
        ("obs.trace_overhead_frac", run.overhead, "frac"),
        ("trace.op_wall_ms", ratio(wall, ops) / 1e6, "ms"),
        (
            "pylite.statements_per_op",
            ratio(reg.count("pylite.statements"), ops),
            "count",
        ),
        (
            "client.round_trips_per_op",
            ratio(reg.count_prefix("wire.client.latency."), ops),
            "count",
        ),
        (
            "client.kb_in_per_op",
            ratio(reg.count("wire.client.bytes_in"), ops) * kib,
            "KiB",
        ),
        (
            "client.kb_out_per_op",
            ratio(reg.count("wire.client.bytes_out"), ops) * kib,
            "KiB",
        ),
        (
            "client.kb_per_extract",
            ratio(lane.get("wire_bytes"), wire_extracts) * kib,
            "KiB",
        ),
        (
            "client.retries_per_op",
            ratio(
                reg.count("wire.client.retries") + reg.count("wire.client.reconnects"),
                ops,
            ),
            "count",
        ),
        (
            "server.queue_full_per_op",
            ratio(reg.count("wire.server.queue_full"), ops),
            "count",
        ),
        (
            "transfer.raw_kb_per_extract",
            ratio(lane.get("raw_bytes"), extracts) * kib,
            "KiB",
        ),
        (
            "transfer.blocks_per_extract",
            ratio(
                reg.sum("transfer.blocks_per_payload") + blocks_shipped + blocks_reused,
                wire_extracts,
            ),
            "count",
        ),
        (
            "transfer.kdf_hit_ratio",
            ratio(kdf_hits, kdf_hits + kdf_misses),
            "frac",
        ),
        (
            "delta.not_modified_frac",
            ratio(reg.count("transfer.delta.not_modified"), wire_extracts),
            "frac",
        ),
        (
            "delta.block_reuse_frac",
            ratio(blocks_reused, blocks_reused + blocks_shipped),
            "frac",
        ),
        (
            "delta.kb_saved_per_extract",
            ratio(reg.count("transfer.delta.bytes_saved"), wire_extracts) * kib,
            "KiB",
        ),
        (
            "pool.jobs_per_extract",
            ratio(reg.count("pool.jobs"), extracts),
            "count",
        ),
        (
            "monet.inlined_frac",
            ratio(inlined, inlined + bailed),
            "frac",
        ),
        (
            "monet.rows_scanned_per_op",
            ratio(reg.count("monet.rows.scanned"), ops),
            "count",
        ),
        (
            "monet.udf_calls_per_op",
            ratio(reg.count("monet.udf.invocations"), ops),
            "count",
        ),
        (
            "embedded.read_after_write_frac",
            ratio(lane.get("reads_after_write"), lane.get("reads")),
            "frac",
        ),
        (
            "storage.wal_kb_per_write",
            ratio(wal_total, writes) * kib,
            "KiB",
        ),
        (
            "storage.write_amplification",
            ratio(
                wal_total + lane.get("snapshot_bytes"),
                lane.get("user_bytes"),
            ),
            "x",
        ),
        (
            "storage.space_amplification",
            ratio(lane.get("disk_bytes"), lane.get("live_bytes")),
            "x",
        ),
        (
            "storage.checkpoints",
            reg.count("monet.storage.checkpoints"),
            "count",
        ),
        (
            "storage.checkpoint_stall_x",
            ratio(
                ratio(lane.get("checkpoint_write_ms"), checkpoint_writes),
                ratio(lane.get("write_ms"), writes),
            ),
            "x",
        ),
        (
            "storage.reopen_ms",
            ratio(lane.get("reopen_ms"), lane.get("reopens")),
            "ms",
        ),
        (
            "storage.replayed_records_per_reopen",
            ratio(lane.get("replayed_records"), lane.get("reopens")),
            "count",
        ),
    ]
}
