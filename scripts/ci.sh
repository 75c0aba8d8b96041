#!/usr/bin/env bash
# Hermetic CI gate: every step runs with --offline and must pass with the
# network unplugged (the workspace has zero crates.io dependencies — see
# DESIGN.md §4a). Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --offline --release --workspace

echo "==> cargo test"
cargo test --offline --workspace -q 2>&1 | tee /tmp/devudf-ci-test.txt

echo "==> doctests (every module example must run)"
cargo test --offline --workspace --doc -q

# The failure-injection suite asserts "never hang" semantics (socket
# deadlines, retry budgets, the server's mid-frame deadline). Re-run it
# under a hard wall-clock cap so a regression that reintroduces an
# unbounded wait fails CI instead of wedging it.
echo "==> fault-injection suite under hard timeout"
timeout --kill-after=10 120 cargo test --offline -q --test failures

# The chunked transfer container must put identical bytes on the wire no
# matter how wide the codec pool is (DESIGN.md §11): run the digest
# printer single-threaded and with the default pool and diff the output.
echo "==> transfer wire-determinism digests (1 thread vs default pool)"
DEVUDF_POOL_THREADS=1 cargo run --offline --release -q -p devudf-bench --bin transfer_digest \
  > /tmp/devudf-digest-t1.txt
cargo run --offline --release -q -p devudf-bench --bin transfer_digest \
  > /tmp/devudf-digest-default.txt
diff /tmp/devudf-digest-t1.txt /tmp/devudf-digest-default.txt
echo "digests identical"

# Throughput guards, all ratio-normalized so host drift cancels out:
#  - the compressed/1000 extract must stay within 10% of the committed
#    BENCH_transfer.json baseline, normalized by plain/1000;
#  - the pylite bytecode VM must keep its Scenario-A speedup over the
#    AST walker (committed BENCH_pylite_vm.json documents >=5x; the
#    live re-measurement passes at a noise-tolerant 3x floor);
#  - the Froid-style inlined UDF plan must keep its Scenario-A speedup
#    over the bytecode VM, end-to-end through the SQL engine (committed
#    BENCH_udf_inline.json documents >=3x; live floor 2x);
#  - observability must stay effectively free when idle: the committed
#    BENCH_profile.json documents Scenario A within 1% of a
#    telemetry-disabled build with nothing listening and within 5% under
#    a live trace capture (live floors 1.25x / 1.50x — the guard catches
#    an idle-path hook doing real work, which shows up as 2x+);
#  - 16 concurrent TCP sessions must not run queries slower than one
#    session (committed BENCH_server_concurrency.json; the floor is
#    core-count-aware — a real speedup is only demanded on >=8 cores,
#    elsewhere the guard catches a convoying scheduler at ~0.5x);
#  - the embedded transport must keep beating the TCP wire on input
#    extraction (committed BENCH_embedded.json documents >=5x on 200k
#    rows; live floor 2x — an embedded path that starts serializing
#    again lands near 1x);
#  - attaching the debugger must stay cheap on the bytecode VM: a
#    breakpoint on a line never reached costs within 1.3x of no debugger
#    under the run_local statement budget (committed BENCH_interp.json;
#    live floor 1.6x — a statement gate that calls the debugger on every
#    statement again lands near 5x).
echo "==> bench guards (transfer codec + bytecode VM + UDF inlining + observability + concurrency + embedded + debugger)"
cargo run --offline --release -q -p devudf-bench --bin bench_guard

# devbench (the repo's end-to-end benchmark, devbench/README.md) lives
# outside the workspace, so the steps above never compile it. Build it and
# run a short correctness smoke of all four workloads: every answer is
# checked against a shadow model and the exit code is 0 only when all pass,
# so a workspace API the benchmark uses cannot break unnoticed.
echo "==> devbench build + 2-second smoke of every workload"
cargo build --offline --release --manifest-path devbench/Cargo.toml
cargo run --offline --release -q --manifest-path devbench/Cargo.toml -- --seconds 2

# Paper §2.3 end to end: Listing 3's nested pipeline must choose the same
# n_estimators when devUDF runs it locally as inside the server; the
# example exits non-zero when they differ.
echo "==> nested UDFs example (local run agrees with the server)"
cargo run --offline --release -q --example nested_udfs > /dev/null

# Embedded-mode smoke, no server anywhere: create a persistent data
# directory, then drive the import -> run loop over the in-process
# transport in a *separate* invocation (so the catalog demonstrably
# survives the WAL replay), trace the debug query down to the engine's
# operators and a write down to its WAL append, stop twice at a
# conditional breakpoint on the Listing-4 accumulation line and quit the
# debug session, checkpoint it, and verify the WAL folded.
echo "==> embedded mode smoke (WAL replay + checkpoint, no server)"
EMB_DIR=$(mktemp -d /tmp/devudf-ci-embedded.XXXXXX)
cargo run --offline --release -q -p devudf-ide --bin devudf open "$EMB_DIR/data" --demo \
  | grep -q "seeded demo data"
mkdir -p "$EMB_DIR/proj/.devudf"
cat > "$EMB_DIR/proj/.devudf/settings.json" <<EOF
{"host": "localhost", "port": 50000, "database": "demo",
 "user": "monetdb", "password": "monetdb",
 "debug_query": "SELECT mean_deviation(i) FROM numbers",
 "transfer": {"compress": false, "encrypt": false, "sample": null},
 "storage": {"data_dir": "$EMB_DIR/data", "fsync": "never"}}
EOF
cargo run --offline --release -q -p devudf-ide --bin devudf import "$EMB_DIR/proj" --embedded \
  | grep -q "imported mean_deviation"
cargo run --offline --release -q -p devudf-ide --bin devudf run "$EMB_DIR/proj" mean_deviation --embedded \
  | grep -q "result ="
cargo run --offline --release -q -p devudf-ide --bin devudf trace "$EMB_DIR/proj" --embedded \
  > "$EMB_DIR/trace.txt"
grep -q "embedded.query" "$EMB_DIR/trace.txt"
grep -q "monet.op.scan" "$EMB_DIR/trace.txt"
# A durable write traces its WHERE and its WAL append (the checkpoint below
# still has to fold it: `wal: empty` at the end proves that).
cargo run --offline --release -q -p devudf-ide --bin devudf trace "$EMB_DIR/proj" --embedded \
  "EXPLAIN ANALYZE UPDATE numbers SET i = i WHERE i = 3" > "$EMB_DIR/analyze.txt"
grep -q "monet.op.filter" "$EMB_DIR/analyze.txt"
grep -q "monet.storage.append" "$EMB_DIR/analyze.txt"
# Line 10 is `distance += column[i] - mean` (body line 7 + the 3-line
# header): continue past the first stop, quit at the second.
printf 'c\nq\n' | cargo run --offline --release -q -p devudf-ide --bin devudf debug "$EMB_DIR/proj" \
  mean_deviation "10:distance < 0" --embedded > "$EMB_DIR/debug.txt"
grep -q "paused at line 10" "$EMB_DIR/debug.txt"
grep -q "debug session terminated" "$EMB_DIR/debug.txt"
cargo run --offline --release -q -p devudf-ide --bin devudf checkpoint "$EMB_DIR/data" \
  | grep -q "checkpointed"
cargo run --offline --release -q -p devudf-ide --bin devudf open "$EMB_DIR/data" \
  | grep -q "wal: empty"
rm -rf "$EMB_DIR"
echo "embedded smoke OK"

# End-to-end observability smoke over a real TCP socket: start the demo
# server, point a project at it, and check that `devudf trace` prints one
# stitched client->wire->server->engine span tree (also around an EXPLAIN
# ANALYZE) and `devudf profile` prints a per-line annotated source listing.
echo "==> devudf trace + profile smoke (real TCP)"
SMOKE_DIR=$(mktemp -d /tmp/devudf-ci-smoke.XXXXXX)
cargo run --offline --release -q -p devudf-ide --bin devudf serve \
  > /tmp/devudf-ci-serve.txt 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
  grep -q "listening on" /tmp/devudf-ci-serve.txt && break
  sleep 0.2
done
ADDR=$(sed -n 's/.*listening on //p' /tmp/devudf-ci-serve.txt | head -n1)
test -n "$ADDR" || { echo "demo server did not come up"; exit 1; }
mkdir -p "$SMOKE_DIR/.devudf"
cat > "$SMOKE_DIR/.devudf/settings.json" <<EOF
{"host": "${ADDR%:*}", "port": ${ADDR##*:}, "database": "demo",
 "user": "monetdb", "password": "monetdb",
 "debug_query": "SELECT mean_deviation(i) FROM numbers",
 "transfer": {"compress": false, "encrypt": false, "sample": null}}
EOF
cargo run --offline --release -q -p devudf-ide --bin devudf import "$SMOKE_DIR" mean_deviation
cargo run --offline --release -q -p devudf-ide --bin devudf trace "$SMOKE_DIR" \
  > /tmp/devudf-ci-trace.txt
grep -q "client.query" /tmp/devudf-ci-trace.txt
grep -q "server.command" /tmp/devudf-ci-trace.txt
grep -q "monet.op.scan" /tmp/devudf-ci-trace.txt
# EXPLAIN ANALYZE renders the same capture the span tree shows: the UDF's
# monet.op.udf span above, and its time_ns row in the result table below.
cargo run --offline --release -q -p devudf-ide --bin devudf trace "$SMOKE_DIR" \
  "EXPLAIN ANALYZE SELECT mean_deviation(i) FROM numbers" > /tmp/devudf-ci-analyze.txt
grep -q "monet.op.udf" /tmp/devudf-ci-analyze.txt
grep -q "time_ns" /tmp/devudf-ci-analyze.txt
cargo run --offline --release -q -p devudf-ide --bin devudf profile "$SMOKE_DIR" mean_deviation \
  > /tmp/devudf-ci-profile.txt
grep -q "hits" /tmp/devudf-ci-profile.txt
grep -q "distance += column\[i\] - mean" /tmp/devudf-ci-profile.txt

# Concurrency smoke against the same live server: 8 clients trace the
# debug query simultaneously, each under a hard wall-clock cap so a
# scheduler deadlock or leaked queue slot fails CI instead of wedging it.
# Each client gets its own project dir (separate TCP session + cache).
echo "==> concurrent-session smoke (8 TCP clients under timeout)"
CONC_PIDS=()
for i in $(seq 1 8); do
  mkdir -p "$SMOKE_DIR/conc$i/.devudf"
  cp "$SMOKE_DIR/.devudf/settings.json" "$SMOKE_DIR/conc$i/.devudf/settings.json"
  timeout --kill-after=10 60 \
    cargo run --offline --release -q -p devudf-ide --bin devudf trace "$SMOKE_DIR/conc$i" \
    > "/tmp/devudf-ci-conc-$i.txt" 2>&1 &
  CONC_PIDS+=("$!")
done
for i in $(seq 1 8); do
  wait "${CONC_PIDS[$((i - 1))]}"
  grep -q "server.command" "/tmp/devudf-ci-conc-$i.txt"
done
cargo run --offline --release -q -p devudf-ide --bin devudf sessions "$SMOKE_DIR" \
  > /tmp/devudf-ci-sessions.txt
grep -q "peer" /tmp/devudf-ci-sessions.txt
echo "concurrent-session smoke OK (8 clients, sys.sessions answered)"

kill "$SERVE_PID" 2>/dev/null || true
trap - EXIT
rm -rf "$SMOKE_DIR"
echo "trace + profile smoke OK"

echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps -q

# Documentation gate: intra-repo markdown links must resolve, README's
# headline test count must match the run above, DESIGN § references must
# hit real headings, and BENCH_*.json mentions must match the committed
# baselines in both directions.
echo "==> doclint (markdown links + stale counts + stale baselines)"
DEVUDF_TEST_LOG=/tmp/devudf-ci-test.txt scripts/doclint.sh

echo "CI OK"
