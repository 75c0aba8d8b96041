//! End-to-end coverage of the content-addressed extract cache (DESIGN
//! §12): warm unchanged extracts answer `NotModified` with zero payload
//! bytes and zero server-side codec work, DML invalidates via per-table
//! epochs and reships only the dirty blocks, sampled extracts bypass
//! the cache entirely, and on every path `input.bin` is the server's
//! pickle byte for byte.
//!
//! Counter assertions compare before/after deltas under
//! `obs::metrics::test_lock()` — the registry is process-global and this
//! file is the only binary whose tests touch the `transfer.delta.*`
//! family.

use devudf::{DevUdf, Settings};
use monetlite::Engine;
use pylite::Value;
use wireproto::{Client, ClientOptions, Server, ServerConfig, TransferOptions};

/// A table big enough that a 1 KiB block grid has plenty of blocks, plus
/// the paper's intercepted UDF. Values are four digits wide so a
/// same-width UPDATE dirties one localized byte range of the pickle.
fn seed_sensor(db: &Engine) {
    db.execute("CREATE TABLE sensor (i INTEGER)").unwrap();
    let values: Vec<String> = (0..2000).map(|i| format!("({})", 1000 + i)).collect();
    db.execute(&format!("INSERT INTO sensor VALUES {}", values.join(", ")))
        .unwrap();
    db.execute(
        "CREATE FUNCTION f(column INTEGER) RETURNS DOUBLE LANGUAGE PYTHON { return sum(column) / len(column) }",
    )
    .unwrap();
}

fn sensor_server() -> Server {
    Server::start(ServerConfig::new("demo", "monetdb", "monetdb"), seed_sensor)
}

fn cached_client(server: &Server) -> Client {
    let options = ClientOptions {
        cache: Some(4),
        ..ClientOptions::default()
    };
    Client::connect_in_proc_with(server, "monetdb", "monetdb", "demo", options).unwrap()
}

const QUERY: &str = "SELECT f(i) FROM sensor";

#[test]
fn warm_unchanged_extract_is_not_modified_with_zero_codec_work() {
    let _serial = obs::metrics::test_lock();
    obs::set_enabled(true);
    let not_modified = obs::counter!("transfer.delta.server.not_modified");
    let shipped = obs::counter!("transfer.delta.server.blocks_shipped");
    let encode_ns = obs::histogram!("transfer.block.encode_ns");
    let bytes_saved = obs::counter!("transfer.delta.bytes_saved");

    let server = sensor_server();
    let mut client = cached_client(&server);
    // Encryption makes codec work (KDF + ChaCha20) observable: the warm
    // path must do none of it.
    let options = TransferOptions {
        compress: true,
        encrypt: true,
        ..Default::default()
    }
    .with_block_size(1024);

    let (cold, cold_stats) = client.extract_inputs(QUERY, "f", options).unwrap();
    assert!(cold_stats.wire_len > 0);

    let nm0 = not_modified.get();
    let sh0 = shipped.get();
    let enc0 = encode_ns.count();
    let bs0 = bytes_saved.get();

    let (warm, warm_stats) = client.extract_inputs(QUERY, "f", options).unwrap();
    assert_eq!(warm, cold);
    assert_eq!(warm_stats.raw_len, cold_stats.raw_len);
    assert_eq!(warm_stats.wire_len, 0, "NotModified carries no payload");
    assert_eq!(not_modified.get() - nm0, 1);
    assert_eq!(
        shipped.get() - sh0,
        0,
        "no block crossed the wire on the warm extract"
    );
    assert_eq!(
        encode_ns.count() - enc0,
        0,
        "the server ran the block codec despite answering NotModified"
    );
    assert_eq!(bytes_saved.get() - bs0, cold_stats.raw_len as u64);
    server.shutdown();
}

#[test]
fn dml_invalidates_the_epoch_and_reships_only_dirty_blocks() {
    let _serial = obs::metrics::test_lock();
    obs::set_enabled(true);
    let shipped = obs::counter!("transfer.delta.server.blocks_shipped");
    let reused = obs::histogram!("transfer.delta.blocks_reused");
    let hits = obs::counter!("transfer.delta.hits");

    let server = sensor_server();
    let mut client = cached_client(&server);
    let options = TransferOptions::plain().with_block_size(1024);

    let sh0 = shipped.get();
    let (_, cold_stats) = client.extract_inputs(QUERY, "f", options).unwrap();
    let cold_shipped = shipped.get() - sh0;
    assert!(
        cold_shipped >= 4,
        "payload should span several 1 KiB blocks, got {cold_shipped}"
    );

    // One same-width value changes: the epoch moves, but only the blocks
    // covering that row's bytes differ.
    client
        .query("UPDATE sensor SET i = 1001 WHERE i = 1500")
        .unwrap();

    let sh1 = shipped.get();
    let ru1 = (reused.count(), reused.sum());
    let h1 = hits.get();
    let (warm, warm_stats) = client.extract_inputs(QUERY, "f", options).unwrap();
    let warm_shipped = shipped.get() - sh1;
    assert!(warm_stats.wire_len > 0, "a change must ship something");
    assert!(
        warm_shipped < cold_shipped,
        "dirty-block reship ({warm_shipped}) should be sparser than cold ({cold_shipped})"
    );
    assert_eq!(reused.count() - ru1.0, 1);
    assert_eq!(
        reused.sum() - ru1.1,
        cold_shipped - warm_shipped,
        "every block not shipped was reused from the client cache"
    );
    assert_eq!(hits.get() - h1, 1);
    assert!(
        warm_stats.wire_len < cold_stats.wire_len,
        "sparse delta ({}) must undercut the cold transfer ({})",
        warm_stats.wire_len,
        cold_stats.wire_len
    );

    // The reconstructed payload matches what a cache-less client fetches
    // fresh over the classic protocol.
    let mut plain = Client::connect_in_proc(&server, "monetdb", "monetdb", "demo").unwrap();
    let (fresh, _) = plain.extract_inputs(QUERY, "f", options).unwrap();
    assert_eq!(warm, fresh);
    server.shutdown();
}

#[test]
fn delta_and_classic_clients_agree_across_option_combinations() {
    // No metric assertions here, but the extracts below bump the same
    // process-global counters the sibling tests measure: serialize so
    // this test does not pollute their deltas mid-flight.
    let _serial = obs::metrics::test_lock();
    let server = sensor_server();
    let mut cached = cached_client(&server);
    let mut plain = Client::connect_in_proc(&server, "monetdb", "monetdb", "demo").unwrap();
    for (compress, encrypt) in [(false, false), (true, false), (false, true), (true, true)] {
        let options = TransferOptions {
            compress,
            encrypt,
            ..Default::default()
        }
        .with_block_size(2048);
        let (cold, _) = cached.extract_inputs(QUERY, "f", options).unwrap();
        let (warm, warm_stats) = cached.extract_inputs(QUERY, "f", options).unwrap();
        let (classic, _) = plain.extract_inputs(QUERY, "f", options).unwrap();
        assert_eq!(cold, classic, "compress={compress} encrypt={encrypt}");
        assert_eq!(warm, classic, "compress={compress} encrypt={encrypt}");
        assert_eq!(
            warm_stats.wire_len, 0,
            "compress={compress} encrypt={encrypt}"
        );
    }
    server.shutdown();
}

#[test]
fn sampled_extracts_bypass_the_cache() {
    let _serial = obs::metrics::test_lock();
    obs::set_enabled(true);
    let not_modified = obs::counter!("transfer.delta.server.not_modified");
    let shipped = obs::counter!("transfer.delta.server.blocks_shipped");
    let nm0 = not_modified.get();
    let sh0 = shipped.get();

    let server = sensor_server();
    let mut client = cached_client(&server);
    for _ in 0..2 {
        let (raw, _) = client
            .extract_inputs(QUERY, "f", TransferOptions::sampled(50))
            .unwrap();
        let Value::Dict(d) = pylite::pickle::loads(&raw).unwrap() else {
            panic!()
        };
        let col = d.borrow().get(&Value::str("column")).unwrap().unwrap();
        let Value::Array(a) = col else { panic!() };
        assert_eq!(a.len(), 50);
    }
    // Both sampled extracts took the classic path: the delta protocol
    // never engaged.
    assert_eq!(not_modified.get() - nm0, 0);
    assert_eq!(shipped.get() - sh0, 0);
    server.shutdown();
}

/// `input.bin` holds the server's pickle byte for byte, however the
/// payload travelled: a classic plain or compressed + encrypted extract, a
/// cold delta, a `NotModified` answer served from the cache, a delta that
/// ships one dirty block — and an embedded extract, pickled on the client.
#[test]
fn input_bin_is_the_servers_pickle_byte_for_byte() {
    let _serial = obs::metrics::test_lock();
    obs::set_enabled(true);
    let shipped = obs::counter!("transfer.delta.server.blocks_shipped");
    let server = sensor_server();
    let engine = Engine::new();
    seed_sensor(&engine);
    let pickle = |engine: &Engine| {
        wireproto::transfer::pickle_inputs(&engine.extract_inputs(QUERY, "f").unwrap()).unwrap()
    };
    let settings = |coded: bool, cache: bool| {
        let mut settings = Settings::default();
        settings.debug_query = QUERY.to_string();
        settings.transfer.compress = coded;
        settings.transfer.encrypt = coded;
        settings.transfer.block_size = Some(1024);
        settings.transfer.cache.enabled = cache;
        settings
    };
    let dir = std::env::temp_dir().join(format!("devudf-delta-input-bin-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let input_bin = || std::fs::read(dir.join("input.bin")).unwrap();

    for coded in [false, true] {
        let mut dev = DevUdf::connect_in_proc(&server, settings(coded, false), &dir).unwrap();
        dev.fetch_inputs("f").unwrap();
        assert_eq!(input_bin(), pickle(&engine), "classic, coded={coded}");
    }

    let mut dev = DevUdf::connect_in_proc(&server, settings(true, true), &dir).unwrap();
    let cold = dev.fetch_inputs("f").unwrap();
    assert!(cold.wire_len > 0);
    assert_eq!(input_bin(), pickle(&engine), "cold delta");
    let warm = dev.fetch_inputs("f").unwrap();
    assert_eq!(warm.wire_len, 0, "the server answered NotModified");
    assert_eq!(input_bin(), pickle(&engine), "NotModified");
    let update = "UPDATE sensor SET i = 1001 WHERE i = 1500";
    dev.server_query(update).unwrap();
    engine.execute(update).unwrap();
    let before = shipped.get();
    dev.fetch_inputs("f").unwrap();
    assert_eq!(
        shipped.get() - before,
        1,
        "one dirty block crossed the wire"
    );
    assert_eq!(input_bin(), pickle(&engine), "one dirty block");

    let mut embedded = DevUdf::connect_embedded(settings(true, true), &dir, seed_sensor).unwrap();
    embedded.server_query(update).unwrap();
    embedded.fetch_inputs("f").unwrap();
    assert_eq!(input_bin(), pickle(&engine), "embedded");
    std::fs::remove_dir_all(&dir).ok();
    server.shutdown();
}
