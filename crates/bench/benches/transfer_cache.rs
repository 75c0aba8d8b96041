//! C13: content-addressed extract cache — bytes on the wire and latency
//! for the three iteration-loop cases of DESIGN §12:
//!
//! * `cold` — first fetch ever: the full payload crosses the wire (plus
//!   the digest table the delta reply carries),
//! * `warm-unchanged` — nothing changed since the last fetch: the server
//!   answers `NotModified` from the epoch check alone, zero payload bytes,
//! * `warm-1-block-dirty` — one row changed: only the block(s) covering
//!   its bytes are reshipped, the rest comes from the client cache.
//!
//! Each benchmark's `throughput.per_iter` records the measured payload
//! bytes-on-wire for its scenario, so the committed
//! `BENCH_transfer_cache.json` doubles as the bytes table in README's
//! "cost of the iteration loop" section.

use devharness::bench::{Harness, Throughput};
use devudf_bench::bench_server;
use wireproto::{Client, ClientOptions, Server, TransferOptions};

const QUERY: &str = "SELECT mean_deviation(i) FROM numbers";
const UDF: &str = "mean_deviation";
const ROWS: usize = 200_000;

fn cached_client(server: &Server) -> Client {
    let options = ClientOptions {
        cache: Some(4),
        ..ClientOptions::default()
    };
    Client::connect_in_proc_with(server, "monetdb", "monetdb", "demo", options).unwrap()
}

/// Toggle the sentinel row between two same-width values: exactly one
/// localized byte range of the pickled column changes per call.
fn dirty_one_row(client: &mut Client, flip: &mut bool) {
    let (from, to) = if *flip { (9002, 9001) } else { (9001, 9002) };
    *flip = !*flip;
    client
        .query(&format!("UPDATE numbers SET i = {to} WHERE i = {from}"))
        .unwrap();
}

fn bench_transfer_cache(h: &mut Harness, server: &Server) {
    let options = TransferOptions::plain().with_block_size(64 * 1024);
    let mut group = h.benchmark_group("transfer_cache");
    group.sample_size(10);

    // Measure each scenario's bytes-on-wire once, up front, so the
    // recorded throughput is the real wire cost (not a nominal size).
    let cold_wire = {
        let mut c = cached_client(server);
        c.extract_inputs(QUERY, UDF, options).unwrap().1.wire_len
    };
    let (warm_wire, dirty_wire) = {
        let mut c = cached_client(server);
        c.extract_inputs(QUERY, UDF, options).unwrap();
        let warm = c.extract_inputs(QUERY, UDF, options).unwrap().1.wire_len;
        let mut flip = false;
        dirty_one_row(&mut c, &mut flip);
        let dirty = c.extract_inputs(QUERY, UDF, options).unwrap().1.wire_len;
        (warm, dirty)
    };
    println!("bytes on the wire: cold={cold_wire} warm-unchanged={warm_wire} warm-1-block-dirty={dirty_wire}");

    // Cold: a fresh cache every iteration (the in-proc login round trip
    // is noise next to the multi-megabyte payload).
    group.throughput(Throughput::Bytes(cold_wire as u64));
    group.bench_function(format!("cold/{ROWS}"), |b| {
        b.iter(|| {
            let mut c = cached_client(server);
            c.extract_inputs(QUERY, UDF, options).unwrap()
        })
    });

    // Warm, unchanged: every iteration is a NotModified round trip.
    group.throughput(Throughput::Bytes(warm_wire as u64));
    let mut warm = cached_client(server);
    warm.extract_inputs(QUERY, UDF, options).unwrap();
    group.bench_function(format!("warm-unchanged/{ROWS}"), |b| {
        b.iter(|| warm.extract_inputs(QUERY, UDF, options).unwrap())
    });

    // Warm, one row dirtied per iteration: epoch check fails, the delta
    // reply reships only the block(s) covering the changed bytes.
    group.throughput(Throughput::Bytes(dirty_wire as u64));
    let mut dirty = cached_client(server);
    dirty.extract_inputs(QUERY, UDF, options).unwrap();
    let mut flip = false;
    group.bench_function(format!("warm-1-block-dirty/{ROWS}"), |b| {
        b.iter(|| {
            dirty_one_row(&mut dirty, &mut flip);
            dirty.extract_inputs(QUERY, UDF, options).unwrap()
        })
    });
    group.finish();
}

fn main() {
    let server = bench_server(ROWS);
    // A unique sentinel value the dirty scenario toggles; appended last so
    // its bytes land in the final pickle block.
    let mut seed = Client::connect_in_proc(&server, "monetdb", "monetdb", "demo").unwrap();
    seed.query("INSERT INTO numbers VALUES (9001)").unwrap();
    let mut h = Harness::new("transfer_cache");
    bench_transfer_cache(&mut h, &server);
    h.finish();
    server.shutdown();
}
