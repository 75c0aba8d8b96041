//! Cross-crate property tests: invariants that must hold for arbitrary
//! data across the whole stack (devharness::prop).

use devharness::prop::{self, Config};
use devharness::{prop_assert, prop_assert_eq};

use devudf::transform;
use wireproto::client::FunctionInfo;
use wireproto::transfer::{
    decode_blocks, decode_payload, encode_blocks, encode_payload, sample_inputs, TransferError,
};
use wireproto::TransferOptions;

use pylite::value::Dict;
use pylite::{Array, Value};

fn cfg() -> Config {
    Config::cases(64)
}

fn int_inputs(v: Vec<i64>) -> Value {
    let mut d = Dict::new();
    d.insert(Value::str("column"), Value::array(Array::Int(v)))
        .unwrap();
    Value::dict(d)
}

/// encode ∘ decode is identity for every option combination — all 8
/// compress × encrypt × sample combos, with both the default and a tiny
/// (multi-block-forcing) container block size.
#[test]
fn transfer_pipeline_round_trips() {
    let strategy = (
        prop::vec_of(prop::any_i64(), 0..300),
        prop::any_bool(),
        prop::any_bool(),
        prop::option_of(prop::usize_in(1..400)),
        prop::any_u64(),
    );
    prop::check(
        cfg(),
        strategy,
        |(data, compress, encrypt, sample, transfer_id)| {
            let inputs = int_inputs(data.clone());
            for block_size in [wireproto::DEFAULT_BLOCK_SIZE, 1024] {
                let options = TransferOptions {
                    compress: *compress,
                    encrypt: *encrypt,
                    sample: *sample,
                    block_size,
                };
                let (payload, _) =
                    encode_payload(&inputs, &options, "pw", *transfer_id, 7).unwrap();
                let back = decode_payload(payload, &options, "pw", *transfer_id).unwrap();
                let back = pylite::pickle::loads(&back).unwrap();
                match *sample {
                    // Sampling draws min(k, n) of the original rows; the
                    // codecs must deliver exactly that dict.
                    Some(k) => {
                        let Value::Dict(d) = &back else {
                            return Err("decoded inputs not a dict".into());
                        };
                        let col = d.borrow().get(&Value::str("column")).unwrap().unwrap();
                        let Value::Array(a) = col else {
                            return Err("decoded column not an array".into());
                        };
                        prop_assert_eq!(a.len(), k.min(data.len()));
                    }
                    None => prop_assert!(back.py_eq(&inputs)),
                }
            }
            Ok(())
        },
    );
}

/// The chunked container round-trips raw bytes for every codec combo at
/// every payload-size edge: empty, one byte, exactly one block, and one
/// byte either side of each block boundary.
#[test]
fn chunked_container_round_trips_edge_sizes() {
    const BS: usize = 1024;
    let pool = devharness::Pool::new(3);
    let strategy = (
        prop::usize_in(0..6), // which boundary region
        prop::usize_in(0..3), // offset within {-1, 0, +1} around it
        prop::any_u64(),      // content seed
        prop::any_bool(),     // compressible or noise
    );
    prop::check(
        Config::cases(48),
        strategy,
        |&(blocks, offset, seed, compressible)| {
            // Sizes 0, 1 and every block boundary ± 1 up to 5 blocks.
            let len = (blocks * BS + offset).saturating_sub(1);
            let data: Vec<u8> = if compressible {
                (0..len).map(|i| (i / 17) as u8).collect()
            } else {
                let mut rng = devharness::Rng::new(seed);
                let mut v = vec![0u8; len];
                rng.fill_bytes(&mut v);
                v
            };
            for compress in [false, true] {
                for encrypt in [false, true] {
                    let options = TransferOptions {
                        compress,
                        encrypt,
                        ..Default::default()
                    }
                    .with_block_size(BS);
                    let payload = encode_blocks(&pool, &data, &options, "pw", seed);
                    let back = decode_blocks(&pool, &payload, &options, "pw", seed).unwrap();
                    prop_assert_eq!(&back, &data);
                }
            }
            Ok(())
        },
    );
}

/// Flipping any single byte in a container's block bodies produces a
/// loud, typed error — never silently-garbage rows.
#[test]
fn chunked_container_corruption_is_loud() {
    const BS: usize = 512;
    let pool = devharness::Pool::new(2);
    let strategy = (
        prop::usize_in(1..4000),
        prop::any_u64(),
        prop::any_bool(),
        prop::any_bool(),
    );
    prop::check(
        Config::cases(48),
        strategy,
        |&(len, seed, compress, encrypt)| {
            let data: Vec<u8> = (0..len).map(|i| (i / 13) as u8).collect();
            let options = TransferOptions {
                compress,
                encrypt,
                ..Default::default()
            }
            .with_block_size(BS);
            let payload = encode_blocks(&pool, &data, &options, "pw", 1);
            // Flip one bit anywhere: block bodies are covered by the
            // per-block integrity tag, header bytes by the decoder's
            // structural validation.
            let mut rng = devharness::Rng::new(seed);
            let at = rng.usize_in(0, payload.len());
            let mut bad = payload.clone();
            bad[at] ^= 1 << rng.usize_in(0, 8);
            match decode_blocks(&pool, &bad, &options, "pw", 1) {
                // Ok is only acceptable if the flip was semantically
                // inert and the exact original bytes came back.
                Ok(out) => prop_assert_eq!(&out, &data),
                Err(
                    TransferError::BlockIntegrity { .. }
                    | TransferError::BlockCodec { .. }
                    | TransferError::Container(_),
                ) => {}
                Err(other) => return Err(format!("unexpected error kind: {other:?}")),
            }
            Ok(())
        },
    );
}

/// Sampling returns exactly min(k, n) rows and every value came from
/// the original column.
#[test]
fn sampling_bounds_and_membership() {
    let strategy = (
        prop::vec_of(prop::i64_in(-1000..1000), 1..200),
        prop::usize_in(0..300),
        prop::any_u64(),
    );
    prop::check(cfg(), strategy, |(data, k, seed)| {
        let n = data.len();
        let inputs = int_inputs(data.clone());
        let sampled = sample_inputs(&inputs, *k, *seed).unwrap();
        let Value::Dict(d) = &sampled else {
            return Err("sampled inputs not a dict".into());
        };
        let col = d.borrow().get(&Value::str("column")).unwrap().unwrap();
        let Value::Array(a) = col else {
            return Err("sampled column not an array".into());
        };
        prop_assert_eq!(a.len(), (*k).min(n));
        for i in 0..a.len() {
            let Value::Int(x) = a.get(i) else {
                return Err("sampled cell not an int".into());
            };
            prop_assert!(data.contains(&x));
        }
        Ok(())
    });
}

/// Import → export body transformation is the identity on arbitrary
/// well-formed bodies.
#[test]
fn transform_round_trip_identity() {
    let strategy = (prop::usize_in(1..12), prop::any_u64());
    prop::check(cfg(), strategy, |&(n_lines, seed)| {
        // Generate a structured body: assignments, a loop, a return.
        let mut body = String::new();
        let mut rng = devharness::Rng::new(seed);
        for i in 0..n_lines {
            let s = rng.next_u64();
            match s % 4 {
                0 => body.push_str(&format!("v{i} = {}\n", s % 100)),
                1 => body.push_str(&format!("v{i} = len(column) + {}\n", s % 10)),
                2 => body.push_str(&format!(
                    "for j{i} in range(0, 3):\n    acc{i} = j{i} * {}\n",
                    s % 7
                )),
                _ => body.push_str(&format!("s{i} = 'text {}'\n", s % 50)),
            }
        }
        body.push_str("return len(column)\n");
        let info = FunctionInfo {
            name: "generated".to_string(),
            params: vec![("column".to_string(), "INTEGER".to_string())],
            return_type: "INTEGER".to_string(),
            language: "PYTHON".to_string(),
            body: body.clone(),
        };
        let script = transform::to_local_script(&info);
        prop_assert!(
            pylite::parse_module(&script).is_ok(),
            "script must parse:\n{script}"
        );
        let recovered = transform::extract_body(&script, "generated").unwrap();
        prop_assert_eq!(recovered, body);
        Ok(())
    });
}

/// The SQL engine's sum() agrees with Rust over arbitrary int columns.
#[test]
fn sql_aggregates_match_rust() {
    prop::check(
        cfg(),
        prop::vec_of(prop::i64_in(-10_000..10_000), 1..80),
        |data| {
            let db = monetlite::Engine::new();
            db.execute("CREATE TABLE t (i INTEGER)").unwrap();
            let values: Vec<String> = data.iter().map(|v| format!("({v})")).collect();
            db.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
                .unwrap();
            let t = db
                .execute("SELECT sum(i), count(*), min(i), max(i) FROM t")
                .unwrap()
                .into_table()
                .unwrap();
            prop_assert_eq!(
                t.row(0)[0].clone(),
                monetlite::SqlValue::Int(data.iter().sum())
            );
            prop_assert_eq!(
                t.row(0)[1].clone(),
                monetlite::SqlValue::Int(data.len() as i64)
            );
            prop_assert_eq!(
                t.row(0)[2].clone(),
                monetlite::SqlValue::Int(*data.iter().min().unwrap())
            );
            prop_assert_eq!(
                t.row(0)[3].clone(),
                monetlite::SqlValue::Int(*data.iter().max().unwrap())
            );
            Ok(())
        },
    );
}

/// A Python UDF computing a sum agrees with SQL sum() for any column —
/// the operator-at-a-time bridge preserves data exactly.
#[test]
fn udf_bridge_preserves_columns() {
    prop::check(
        cfg(),
        prop::vec_of(prop::i64_in(-1000..1000), 1..60),
        |data| {
            let db = monetlite::Engine::new();
            db.execute("CREATE TABLE t (i INTEGER)").unwrap();
            let values: Vec<String> = data.iter().map(|v| format!("({v})")).collect();
            db.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
                .unwrap();
            db.execute(
                "CREATE FUNCTION pysum(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return sum(i) }",
            )
            .unwrap();
            let sql = db
                .execute("SELECT sum(i) FROM t")
                .unwrap()
                .into_table()
                .unwrap();
            let udf = db
                .execute("SELECT pysum(i) FROM t")
                .unwrap()
                .into_table()
                .unwrap();
            prop_assert_eq!(sql.row(0)[0].clone(), udf.row(0)[0].clone());
            Ok(())
        },
    );
}

/// Cache coherence of the content-addressed delta layer (DESIGN §12):
/// under an arbitrary interleaving of DML and extracts, a delta-caching
/// client must always observe exactly what a cache-less client fetches
/// fresh — a stale block served from the cache would diverge the two.
/// Exercised over all 8 option combos: compress × encrypt via full
/// extracts, and sampling via its cache-bypass path.
#[test]
fn delta_cache_never_serves_stale_data() {
    use wireproto::{Client, ClientOptions, Server, ServerConfig};
    let strategy = (prop::vec_of(prop::usize_in(0..5), 1..10), prop::any_u64());
    prop::check(Config::cases(24), strategy, |(ops, seed)| {
        let server = Server::start(ServerConfig::new("demo", "monetdb", "monetdb"), |db| {
            db.execute("CREATE TABLE sensor (i INTEGER)").unwrap();
            let values: Vec<String> = (0..300).map(|i| format!("({})", 1000 + i)).collect();
            db.execute(&format!("INSERT INTO sensor VALUES {}", values.join(", ")))
                .unwrap();
            db.execute(
                "CREATE FUNCTION f(column INTEGER) RETURNS DOUBLE LANGUAGE PYTHON { return sum(column) / len(column) }",
            )
            .unwrap();
        });
        let mut cached = Client::connect_in_proc_with(
            &server,
            "monetdb",
            "monetdb",
            "demo",
            ClientOptions {
                cache: Some(2),
                ..ClientOptions::default()
            },
        )
        .unwrap();
        let mut fresh = Client::connect_in_proc(&server, "monetdb", "monetdb", "demo").unwrap();
        let mut rng = devharness::Rng::new(*seed);
        let combos = [(false, false), (true, false), (false, true), (true, true)];
        // Small blocks so every payload spans many of them and a stale
        // block would corrupt a visible slice of the column.
        let options = |(compress, encrypt): (bool, bool)| {
            TransferOptions {
                compress,
                encrypt,
                ..Default::default()
            }
            .with_block_size(256)
        };
        let query = "SELECT f(i) FROM sensor";
        for op in ops.iter().chain([&4]) {
            match *op {
                0 => {
                    let v = 1000 + rng.usize_in(0, 400);
                    cached
                        .query(&format!("INSERT INTO sensor VALUES ({v})"))
                        .unwrap();
                }
                1 => {
                    let (a, b) = (1000 + rng.usize_in(0, 400), 1000 + rng.usize_in(0, 400));
                    cached
                        .query(&format!("UPDATE sensor SET i = {a} WHERE i = {b}"))
                        .unwrap();
                }
                2 => {
                    let v = 1000 + rng.usize_in(0, 400);
                    cached
                        .query(&format!("DELETE FROM sensor WHERE i = {v}"))
                        .unwrap();
                }
                3 => {
                    // Sampled extract: bypasses the cache, must still
                    // honour the requested row count.
                    let opts = options(combos[rng.usize_in(0, 4)]);
                    let (raw, _) = cached
                        .extract_inputs(
                            query,
                            "f",
                            TransferOptions {
                                sample: Some(20),
                                ..opts
                            },
                        )
                        .unwrap();
                    let Value::Dict(d) = pylite::pickle::loads(&raw).unwrap() else {
                        return Err("sampled inputs not a dict".into());
                    };
                    let col = d.borrow().get(&Value::str("column")).unwrap().unwrap();
                    let Value::Array(a) = col else {
                        return Err("sampled column not an array".into());
                    };
                    prop_assert_eq!(a.len(), 20);
                }
                _ => {
                    // Full extract under every combo: the delta-served
                    // value must match a cache-less fetch byte for byte.
                    for combo in combos {
                        let opts = options(combo);
                        let (warm, _) = cached.extract_inputs(query, "f", opts).unwrap();
                        let (truth, _) = fresh.extract_inputs(query, "f", opts).unwrap();
                        prop_assert!(warm == truth, "delta client diverged under {combo:?}");
                    }
                }
            }
        }
        server.shutdown();
        Ok(())
    });
}

/// A random UDF body of `n_stmts` generated statements over `acc` and
/// `items`: loops with `break`/`continue`, `while`, `try`/`finally`,
/// nested `def`s and calls, prints, comprehensions, slices, dicts,
/// branches and the occasional uncaught error.
fn random_udf_body(rng: &mut devharness::Rng, n_stmts: usize) -> String {
    let mut body = String::from("acc = 0\nitems = [3, 1, 4, 1, 5, 9, 2, 6]\n");
    for i in 0..n_stmts {
        let s = rng.next_u64();
        let k = (s % 7) as i64;
        match s % 12 {
            0 => body.push_str(&format!("x{i} = ({} - {k}) * 3 % 5\n", s % 40)),
            1 => body.push_str(&format!(
                "for j{i} in items:\n    if j{i} % 2 == 0:\n        continue\n    if j{i} > {}:\n        break\n    acc += j{i}\n",
                s % 10
            )),
            2 => body.push_str(&format!(
                "w{i} = {k}\nwhile w{i} > 0:\n    w{i} -= 1\n    acc += w{i}\n"
            )),
            3 => body.push_str(&format!(
                "try:\n    acc += items[{}]\nexcept Exception as e{i}:\n    m{i} = str(e{i})\nfinally:\n    acc += 1\n",
                s % 12
            )),
            4 => body.push_str(&format!(
                "def f{i}(x, y={k}):\n    return x * y + len(items)\nacc += f{i}({})\n",
                s % 5
            )),
            5 => body.push_str("print('acc is', acc)\n"),
            6 => body.push_str(&format!(
                "sq{i} = [v * v for v in items if v > {k}]\nacc += len(sq{i})\n"
            )),
            7 => body.push_str(&format!("s{i} = 'ab' * {k}\nacc += len(s{i})\n")),
            8 => body.push_str(&format!(
                "part{i} = items[1:{}]\nacc += sum(part{i})\n",
                s % 9
            )),
            9 => body.push_str(&format!(
                "d{i} = {{'a': {k}, 'b': acc}}\nacc += d{i}['a']\n"
            )),
            10 => body.push_str(&format!(
                "if acc % 3 == 0:\n    acc += {k}\nelif acc % 3 == 1:\n    acc -= 1\nelse:\n    acc = acc * 2\n"
            )),
            // Rarely: an uncaught failure, so error parity is
            // exercised too (index error or a type error mid-binop).
            _ => body.push_str(if s.is_multiple_of(5) {
                "acc += items[99]\n"
            } else {
                "acc = acc + sorted(items)[0] * 2\n"
            }),
        }
    }
    body
}

/// The bytecode VM and the AST walker are observationally identical on
/// arbitrary generated UDF bodies: same result value, same globals, same
/// captured stdout, and — when the program fails — the same error kind,
/// message and blamed line. The walker is the reference oracle (DESIGN
/// §13); any divergence here is a VM bug by definition.
#[test]
fn bytecode_vm_matches_ast_walker_on_random_udf_bodies() {
    use pylite::{ExecMode, Interp};

    // Run one source under one engine and collapse everything observable
    // into comparable form.
    #[allow(clippy::type_complexity)]
    fn observe(src: &str, mode: ExecMode) -> (Result<(String, Vec<String>), String>, String) {
        let mut interp = Interp::new();
        interp.set_exec_mode(mode);
        interp.set_step_budget(200_000);
        let outcome = match interp.eval_module(src) {
            Ok(v) => {
                let globals = interp
                    .global_names()
                    .iter()
                    .map(|n| format!("{n}={}", interp.get_global(n).unwrap().repr()))
                    .collect();
                Ok((v.repr(), globals))
            }
            Err(e) => Err(format!(
                "{:?}: {} @ {:?}",
                e.kind,
                e.message,
                e.innermost_line()
            )),
        };
        (outcome, interp.stdout().to_string())
    }

    let strategy = (prop::usize_in(2..10), prop::any_u64());
    prop::check(Config::cases(96), strategy, |&(n_stmts, seed)| {
        let body = random_udf_body(&mut devharness::Rng::new(seed), n_stmts);
        let (ast_out, ast_stdout) = observe(&body, ExecMode::Ast);
        let (vm_out, vm_stdout) = observe(&body, ExecMode::Bytecode);
        prop_assert!(
            vm_out == ast_out,
            "engines diverged ({vm_out:?} vs {ast_out:?}) on:\n{body}"
        );
        prop_assert!(vm_stdout == ast_stdout, "stdout diverged on:\n{body}");
        Ok(())
    });
}

/// Walker and VM stop identically in generated debug sessions: programs
/// from [`random_udf_body`] with random breakpoint lines, conditions and
/// watches under random Continue/StepInto/StepOver/StepOut scripts give
/// the same outcome, the same pause trail (reason, function, line, stack,
/// locals, watches) and the same `pylite.debug.*` deltas. Both engines
/// share one statement gate, so with plain breakpoints both trails must
/// also equal the trail predicted from the every-statement trace (a
/// StepInto-only run from entry) by the breakpoint lines and the step
/// commands' depth rules: only that oracle catches a line the gate fails
/// to arm.
#[test]
fn debug_sessions_match_across_engines_and_the_statement_trace() {
    use pylite::debugger::PauseReason;
    use pylite::{DebugCommand, Debugger, ExecMode, Interp, PauseInfo};
    use std::cell::RefCell;
    use std::rc::Rc;

    const WATCHES: [&str; 4] = ["acc", "items[acc % 8] + len(items)", "missing", "acc +"];
    const CONDITIONS: [&str; 4] = ["acc % 2 == 0", "acc > 5", "missing > 1", "acc >"];

    // The outcome, the pauses and the `pylite.debug.{pauses,breakpoints,
    // steps}` deltas of one run of `src` under `dbg`.
    fn session(
        src: &str,
        mode: ExecMode,
        dbg: Rc<RefCell<Debugger>>,
    ) -> (String, Vec<PauseInfo>, [u64; 3]) {
        let counts = || {
            [
                obs::counter!("pylite.debug.pauses").get(),
                obs::counter!("pylite.debug.breakpoints").get(),
                obs::counter!("pylite.debug.steps").get(),
            ]
        };
        let before = counts();
        let mut interp = Interp::new();
        interp.set_exec_mode(mode);
        interp.set_step_budget(200_000);
        interp.set_hook(dbg.clone());
        let outcome = match interp.eval_module(src) {
            Ok(v) => v.repr(),
            Err(e) => e.to_string(),
        };
        let after = counts();
        let pauses = dbg.borrow().pauses().to_vec();
        (outcome, pauses, [0, 1, 2].map(|i| after[i] - before[i]))
    }

    // The pauses a session with `breakpoints` and `commands` makes, read
    // off the every-statement trace.
    fn predict(
        trace: &[PauseInfo],
        breakpoints: &[u32],
        commands: &[DebugCommand],
    ) -> Vec<PauseInfo> {
        enum Mode {
            Run,
            Into,
            Over(usize),
            Out(usize),
        }
        let mut mode = Mode::Run;
        let mut commands = commands.iter();
        let mut pauses = Vec::new();
        for event in trace {
            let depth = event.stack.len() - 1;
            let reason = match mode {
                Mode::Into => PauseReason::Step,
                Mode::Over(d) if depth <= d => PauseReason::Step,
                Mode::Out(d) if depth < d => PauseReason::Step,
                _ if breakpoints.contains(&event.line) => PauseReason::Breakpoint,
                _ => continue,
            };
            pauses.push(PauseInfo {
                reason,
                ..event.clone()
            });
            mode = match commands.next().unwrap_or(&DebugCommand::Continue) {
                DebugCommand::Continue => Mode::Run,
                DebugCommand::StepInto => Mode::Into,
                DebugCommand::StepOver => Mode::Over(depth),
                DebugCommand::StepOut => Mode::Out(depth),
                DebugCommand::Quit => unreachable!("scripts never quit"),
            };
        }
        pauses
    }

    let render = |pauses: &[PauseInfo]| pauses.iter().map(|p| format!("{p:?}")).collect::<Vec<_>>();
    let strategy = (prop::usize_in(2..8), prop::any_u64());
    prop::check(Config::cases(64), strategy, |&(n_stmts, seed)| {
        let mut rng = devharness::Rng::new(seed);
        let src = random_udf_body(&mut rng, n_stmts);
        let lines = src.lines().count() as u64;
        let breakpoints: Vec<u32> = (0..rng.u64_below(4))
            .map(|_| 1 + rng.u64_below(lines) as u32)
            .collect();
        let condition = match rng.u64_below(3) {
            0 => Some((
                1 + rng.u64_below(lines) as u32,
                CONDITIONS[rng.u64_below(4) as usize],
            )),
            _ => None,
        };
        let watches: Vec<&str> = (0..rng.u64_below(3))
            .map(|_| WATCHES[rng.u64_below(4) as usize])
            .collect();
        let commands: Vec<DebugCommand> = (0..rng.u64_below(12))
            .map(|_| match rng.u64_below(4) {
                0 => DebugCommand::Continue,
                1 => DebugCommand::StepInto,
                2 => DebugCommand::StepOver,
                _ => DebugCommand::StepOut,
            })
            .collect();
        let debugger = |controller: Rc<RefCell<Debugger>>, breakpoints: &[u32]| {
            {
                let mut d = controller.borrow_mut();
                breakpoints.iter().for_each(|&l| d.add_breakpoint(l));
                watches.iter().for_each(|w| d.add_watch(*w));
            }
            controller
        };

        let run = |mode| {
            let dbg = debugger(Debugger::scripted(commands.clone()), &breakpoints);
            if let Some((line, cond)) = condition {
                dbg.borrow_mut().add_conditional_breakpoint(line, cond);
            }
            session(&src, mode, dbg)
        };
        let (ast, vm) = (run(ExecMode::Ast), run(ExecMode::Bytecode));
        prop_assert!(
            ast.0 == vm.0 && render(&ast.1) == render(&vm.1) && ast.2 == vm.2,
            "debug sessions diverged (breakpoints {breakpoints:?}, condition {condition:?}, \
watches {watches:?}, commands {commands:?}):\n  ast {ast:?}\n  vm  {vm:?}\non:\n{src}"
        );
        prop_assert_eq!(ast.2[0], ast.1.len() as u64);

        let trace = |mode| {
            let dbg = debugger(Debugger::with_controller(|_| DebugCommand::StepInto), &[]);
            dbg.borrow_mut().break_on_entry = true;
            session(&src, mode, dbg).1
        };
        let (ast_trace, vm_trace) = (trace(ExecMode::Ast), trace(ExecMode::Bytecode));
        prop_assert!(
            render(&ast_trace) == render(&vm_trace),
            "statement traces diverged on:\n{src}"
        );
        if condition.is_none() {
            let predicted = render(&predict(&ast_trace, &breakpoints, &commands));
            prop_assert!(
                render(&ast.1) == predicted,
                "trail {:?} is not the predicted {predicted:?} (breakpoints {breakpoints:?}, \
commands {commands:?}) on:\n{src}",
                render(&ast.1)
            );
        }
        Ok(())
    });
}

/// One generated accumulator loop of [`loop_kernels_match_the_walker`]:
/// the source, the globals it reads, its statement budget, and whether
/// the VM must run it as a kernel when the walker runs it without error.
struct LoopCase {
    src: String,
    globals: Vec<(&'static str, Value)>,
    budget: Option<u64>,
    /// Statically a candidate: no `break` / `continue`, no accumulator
    /// read, no accumulator assigned twice.
    candidate: bool,
    /// Every entry check passes: at least `MIN_TRIPS` iterations, typed
    /// operands and scalars, in-range indices, the builtin `abs`, no
    /// budget.
    checks_pass: bool,
}

/// A random kernel expression over the loop variable `i`, the scalar `k`
/// and, with `index`, `a[i]` and `b[i]`; rarely, with `accs > 0`, over an
/// accumulator too, which makes the loop no candidate.
fn loop_expr(rng: &mut devharness::Rng, depth: u32, accs: usize, index: bool) -> String {
    if depth == 0 || rng.u64_below(3) == 0 {
        if accs > 0 && rng.u64_below(8) == 0 {
            return format!("acc{}", rng.u64_below(accs as u64));
        }
        return match rng.u64_below(if index { 6 } else { 4 }) {
            0 => format!("{}", rng.u64_below(9) as i64 - 4),
            1 => format!("{:.2}", (rng.u64_below(40) as f64 - 20.0) / 8.0),
            2 => "i".to_string(),
            3 => "k".to_string(),
            4 => "a[i]".to_string(),
            _ => "b[i]".to_string(),
        };
    }
    let sub = |rng: &mut devharness::Rng| loop_expr(rng, depth - 1, accs, index);
    match rng.u64_below(6) {
        0 => format!("-({})", sub(rng)),
        1 => format!("abs({})", sub(rng)),
        op => {
            let l = sub(rng);
            let r = sub(rng);
            format!("({l} {} {r})", ["+", "-", "*", "/"][op as usize - 2])
        }
    }
}

/// A random column of `n` rows for a loop operand: an `Int` or `Float`
/// array (maybe holding a NaN), or, rarely, a list or a `Bool` array,
/// which no kernel takes. Returns the value and whether it is typed.
fn loop_column(rng: &mut devharness::Rng, n: usize) -> (Value, bool) {
    let ints: Vec<i64> = (0..n).map(|_| rng.u64_below(19) as i64 - 9).collect();
    match rng.u64_below(12) {
        0..=5 => (Value::array(Array::Int(ints)), true),
        6..=9 => {
            let mut floats: Vec<f64> = ints.iter().map(|&x| x as f64 / 4.0).collect();
            if n > 0 && rng.u64_below(4) == 0 {
                floats[rng.u64_below(n as u64) as usize] = f64::NAN;
            }
            (Value::array(Array::Float(floats)), true)
        }
        10 => (
            Value::list(ints.into_iter().map(Value::Int).collect()),
            false,
        ),
        _ => (
            Value::array(Array::Bool(ints.iter().map(|&x| x > 0).collect())),
            false,
        ),
    }
}

fn loop_case(rng: &mut devharness::Rng) -> LoopCase {
    use pylite::kernel::MIN_TRIPS;
    // Mostly a few more rows than a kernel's shortest loop, sometimes
    // fewer (empty included), sometimes past its 1 024-iteration block.
    let n = match rng.u64_below(12) {
        0 => 1_000 + rng.u64_below(1_200) as usize,
        1 | 2 => rng.u64_below(MIN_TRIPS) as usize,
        _ => (MIN_TRIPS + rng.u64_below(12)) as usize,
    };
    let (a, a_typed) = loop_column(rng, n);
    let b_len = if rng.u64_below(6) == 0 {
        n.saturating_sub(1)
    } else {
        n
    };
    let (b, b_typed) = loop_column(rng, b_len);
    // Overflow at a chosen row of an `Int` column.
    let overflow = n > 0 && rng.u64_below(5) == 0;
    let a = match (&a, overflow) {
        (Value::Array(arr), true) => match arr.as_ref() {
            Array::Int(v) => {
                let mut v = v.clone();
                v[rng.u64_below(n as u64) as usize] = i64::MAX / 3 + 1;
                Value::array(Array::Int(v))
            }
            _ => a,
        },
        _ => a,
    };
    let (k, k_typed) = match rng.u64_below(10) {
        0 => (Value::Bool(true), false),
        1..=4 => (Value::Float(2.5), true),
        _ => (Value::Int(rng.u64_below(7) as i64 - 3), true),
    };
    let mut checks_pass = a_typed && b_typed && k_typed;

    // The iterable and the indices it produces, for a range.
    let (iterable, indices): (String, Option<Vec<i64>>) = match rng.u64_below(3) {
        0 => ("range(len(a))".to_string(), Some((0..n as i64).collect())),
        1 => {
            let lo = rng.u64_below(n as u64 + 4) as i64 - 2;
            let hi = rng.u64_below(n as u64 + 5) as i64 - 2;
            let step = [-2i64, -1, 1, 2, 3][rng.u64_below(5) as usize];
            let mut idx = Vec::new();
            let mut i = lo;
            while (step > 0 && i < hi) || (step < 0 && i > hi) {
                idx.push(i);
                i += step;
            }
            (format!("range({lo}, {hi}, {step})"), Some(idx))
        }
        _ => ("a".to_string(), None),
    };
    let index = indices.is_some();
    let len = n.min(b_len) as i64;
    let trips = indices.as_ref().map_or(n, Vec::len);
    checks_pass &= trips as u64 >= MIN_TRIPS;
    if let Some(idx) = &indices {
        checks_pass &= idx.iter().all(|&i| (0..len).contains(&i));
    }

    // One statement per accumulator, the first adding `a[i] * 3` when
    // the case overflows; rarely, the last assigns the first's again.
    let overflows = overflow && index;
    let accs = usize::from(overflows) + 1 + rng.u64_below(3) as usize;
    let shared = accs > 1 && rng.u64_below(10) == 0;
    let mut setup = String::new();
    let shadow_abs = rng.u64_below(10) == 0;
    if shadow_abs {
        setup.push_str("def abs(x):\n    return x + 1\n");
        checks_pass = false;
    }
    let mut inits = Vec::new();
    for j in 0..accs {
        match rng.u64_below(12) {
            0 => checks_pass = false, // unbound accumulator
            1 => {
                inits.push(format!("acc{j} = True"));
                checks_pass = false;
            }
            2..=5 => inits.push(format!("acc{j} = 0.0")),
            _ => inits.push(format!("acc{j} = {}", rng.u64_below(5))),
        }
    }
    let mut body = Vec::new();
    let mut reads_acc = false;
    for j in 0..accs {
        let target = if shared && j == accs - 1 { 0 } else { j };
        if overflows && j == 0 {
            body.push("acc0 += a[i] * 3".to_string());
            continue;
        }
        let op = ["+=", "-=", "*=", "/="][rng.u64_below(4) as usize];
        let value = loop_expr(rng, 2, accs, index);
        reads_acc |= value.contains("acc");
        body.push(format!("acc{target} {op} {value}"));
    }
    let flow = rng.u64_below(8) == 0;
    let candidate = !flow && !shared && !reads_acc;
    if flow {
        let flow = if rng.bool() { "break" } else { "continue" };
        body.push(format!("if i > 1:\n    {flow}"));
    }
    let mut tail = Vec::new();
    if rng.bool() {
        tail.push("after = i".to_string());
    }
    if rng.u64_below(3) == 0 {
        tail.push("print(acc0)".to_string());
    }

    let indent =
        |text: &str, by: &str| -> String { text.lines().map(|l| format!("{by}{l}\n")).collect() };
    let mut block = String::new();
    for line in &inits {
        block.push_str(&format!("{line}\n"));
    }
    block.push_str(&format!("for i in {iterable}:\n"));
    for stmt in &body {
        block.push_str(&indent(stmt, "    "));
    }
    for line in &tail {
        block.push_str(&format!("{line}\n"));
    }
    let src = if rng.bool() {
        format!(
            "{setup}def f(a, b, k):\n{}    return acc0\nr = f(a, b, k)\n",
            indent(&block, "    ")
        )
    } else {
        format!("{setup}{block}")
    };
    let budget =
        (rng.u64_below(5) == 0).then(|| rng.u64_below(4 + 4 * n as u64 * body.len() as u64));
    checks_pass &= budget.is_none();
    LoopCase {
        src,
        globals: vec![("a", a), ("b", b), ("k", k)],
        budget,
        candidate,
        checks_pass,
    }
}

/// Walker and VM agree on generated accumulator loops, which the VM runs
/// as typed loop kernels (DESIGN §13): same value and globals, same
/// stdout, the same error kind, message and line, and the same statement
/// count. The loops cover `Int` and `Float` columns with NaN, empty
/// columns, overflow at a chosen row, `range(a, b, step)` with negative
/// steps and out-of-range or negative indices, the loop variable read
/// after the loop, `break` / `continue` and accumulator reads or shared
/// accumulators (no candidate), loops shorter than `MIN_TRIPS`, list and
/// `Bool` operands, a shadowed `abs`, an unbound accumulator, a budget
/// that runs out mid-loop, and loops longer than the kernel's block.
/// Every candidate loop entry is counted lifted or bailed, and a loop
/// whose entry checks pass and that the walker runs without error must
/// run as a kernel.
#[test]
fn loop_kernels_match_the_walker() {
    use pylite::{ExecMode, Interp};
    use std::cell::Cell;

    let _serial = obs::metrics::test_lock();
    obs::set_enabled(true);

    fn observe(
        case: &LoopCase,
        mode: ExecMode,
    ) -> (String, String, u64, pylite::kernel::LoopCounts) {
        let mut interp = Interp::new();
        interp.set_exec_mode(mode);
        for (name, value) in &case.globals {
            interp.set_global(name, value.clone());
        }
        if let Some(budget) = case.budget {
            interp.set_step_budget(budget);
        }
        let result = interp.eval_module(&case.src);
        let globals: Vec<String> = interp
            .global_names()
            .iter()
            .map(|n| format!("{n}={}", interp.get_global(n).unwrap().repr()))
            .collect();
        let outcome = match result {
            Ok(v) => format!("ok {} | {}", v.repr(), globals.join(" ")),
            Err(e) => format!(
                "{:?}: {} @ {:?} | {}",
                e.kind,
                e.message,
                e.innermost_line(),
                globals.join(" ")
            ),
        };
        (
            outcome,
            interp.stdout().to_string(),
            interp.statements_executed(),
            interp.loop_counts(),
        )
    }

    let lifted_before = obs::counter!("pylite.loop.lifted").get();
    let lifted = Cell::new(0u64);
    prop::check(Config::cases(512), prop::any_u64(), |&seed| {
        let case = loop_case(&mut devharness::Rng::new(seed));
        let walker = observe(&case, ExecMode::Ast);
        let vm = observe(&case, ExecMode::Bytecode);
        prop_assert!(
            (&walker.0, &walker.1, walker.2) == (&vm.0, &vm.1, vm.2),
            "engines diverged (budget {:?}):\n  ast {walker:?}\n  vm  {vm:?}\non:\n{}",
            case.budget,
            case.src
        );
        let entries = vm.3.lifted + vm.3.bailed;
        if case.candidate {
            prop_assert!(
                entries <= 1,
                "one loop entry at most: {:?}\n{}",
                vm.3,
                case.src
            );
        } else {
            prop_assert_eq!(entries, 0);
        }
        if case.candidate && case.checks_pass && walker.0.starts_with("ok ") {
            prop_assert!(
                vm.3.lifted == 1,
                "the kernel must run: {:?} on:\n{}",
                vm.3,
                case.src
            );
        }
        lifted.set(lifted.get() + vm.3.lifted);
        Ok(())
    });
    let counted = obs::counter!("pylite.loop.lifted").get() - lifted_before;
    assert!(
        lifted.get() >= 64,
        "the kernel ran in only {} generated loops",
        lifted.get()
    );
    assert!(
        counted >= lifted.get(),
        "pylite.loop.lifted {counted} < {}",
        lifted.get()
    );
}

/// Three-way differential oracle over random *straight-line* UDFs: the AST
/// walker, the bytecode VM, and the Froid-style inlined plan must agree on
/// every observable — result values, or the full error when a body fails.
/// Bodies mix int/float arithmetic, `/` `//` `%` (div-by-zero included),
/// CASE-shaped `if/elif/else` with early returns, chained comparisons,
/// whitelisted builtins, and occasionally NULL-bearing or empty input
/// columns (which force the inlined plan's runtime-bail path). Both
/// invocation models run: operator-at-a-time and tuple-at-a-time.
#[test]
fn inlined_udfs_match_ast_and_bytecode_interpreters() {
    use monetlite::{Engine, ExecutionModel};
    use pylite::ExecMode;

    // (pylite engine, engine-side inlining) — the three `interp` modes.
    const CONFIGS: [(ExecMode, bool, &str); 3] = [
        (ExecMode::Ast, false, "ast"),
        (ExecMode::Bytecode, false, "bytecode"),
        (ExecMode::Bytecode, true, "inlined"),
    ];

    fn build_db(
        rows: &[(Option<i64>, Option<f64>)],
        body: &str,
        mode: ExecMode,
        inline: bool,
        model: ExecutionModel,
    ) -> Engine {
        let db = Engine::new();
        db.set_exec_mode(mode);
        db.set_inline(inline);
        db.set_model(model);
        db.execute("CREATE TABLE t (i INTEGER, d DOUBLE)").unwrap();
        for (i, d) in rows {
            let iv = i.map(|v| v.to_string()).unwrap_or("NULL".to_string());
            let dv = d.map(|v| format!("{v:?}")).unwrap_or("NULL".to_string());
            db.execute(&format!("INSERT INTO t VALUES ({iv}, {dv})"))
                .unwrap();
        }
        db.execute(&format!(
            "CREATE FUNCTION f(i INTEGER, d DOUBLE) RETURNS DOUBLE LANGUAGE PYTHON {{\n{body}}}"
        ))
        .unwrap();
        db
    }

    // Collapse a query outcome into comparable form. Float rendering goes
    // through SqlValue::render on both paths, so equal values compare
    // equal textually.
    fn observe(db: &Engine) -> Result<Vec<String>, String> {
        match db.execute("SELECT f(i, d) FROM t") {
            Ok(r) => {
                let t = r.into_table().map_err(|e| e.to_string())?;
                let col = t.column(0).expect("one output column");
                Ok((0..col.len()).map(|j| col.get(j).render()).collect())
            }
            Err(e) => Err(e.to_string()),
        }
    }

    // A small random arithmetic expression over the parameters, prior
    // locals and literals. `funcs` enables the builtin whitelist.
    fn gen_expr(rng: &mut devharness::Rng, locals: &[String], depth: u32) -> String {
        let roll = rng.next_u64();
        if depth == 0 || roll.is_multiple_of(4) {
            return match roll % 5 {
                0 => "i".to_string(),
                1 => "d".to_string(),
                2 => format!("{}", (roll % 13) as i64 - 4),
                3 if !locals.is_empty() => locals[(roll % locals.len() as u64) as usize].clone(),
                _ => format!("{}.5", roll % 7),
            };
        }
        let a = gen_expr(rng, locals, depth - 1);
        let b = gen_expr(rng, locals, depth - 1);
        match roll % 11 {
            0 => format!("({a} + {b})"),
            1 => format!("({a} - {b})"),
            2 => format!("({a} * {b})"),
            3 => format!("({a} / {b})"),
            4 => format!("({a} // {b})"),
            5 => format!("({a} % {b})"),
            6 => format!("(-{a})"),
            7 => format!("abs({a})"),
            8 => format!("float({a})"),
            9 => format!("({a} ** 2)"),
            _ => format!("int({a})"),
        }
    }

    fn gen_cond(rng: &mut devharness::Rng, locals: &[String]) -> String {
        let a = gen_expr(rng, locals, 1);
        let b = gen_expr(rng, locals, 1);
        match rng.next_u64() % 6 {
            0 => format!("{a} < {b}"),
            1 => format!("{a} <= {b}"),
            2 => format!("{a} > {b}"),
            3 => format!("{a} == {b}"),
            4 => format!("{a} != {b}"),
            // Chained comparison, lowered as an AND of pairs.
            _ => format!("0 <= {a} < 100"),
        }
    }

    let strategy = (prop::usize_in(1..6), prop::usize_in(0..7), prop::any_u64());
    let inlined_plans = std::cell::Cell::new(0usize);
    let total = std::cell::Cell::new(0usize);
    prop::check(Config::cases(96), strategy, |&(n_stmts, n_rows, seed)| {
        let mut rng = devharness::Rng::new(seed);
        let mut rows: Vec<(Option<i64>, Option<f64>)> = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            let r = rng.next_u64();
            // Small ints (zero and negatives included) so `//`, `%` and
            // `/` hit zero divisors; NULLs roughly one row in eight.
            let i = (!r.is_multiple_of(8)).then_some((r % 11) as i64 - 3);
            let d = (r % 16 != 7).then_some(((r / 7) % 9) as f64 / 2.0 - 1.0);
            rows.push((i, d));
        }

        let mut body = String::new();
        let mut locals: Vec<String> = Vec::new();
        for k in 0..n_stmts {
            let roll = rng.next_u64();
            match roll % 4 {
                // Straight-line local binding.
                0 | 1 => {
                    let e = gen_expr(&mut rng, &locals, 2);
                    body.push_str(&format!("v{k} = {e}\n"));
                    locals.push(format!("v{k}"));
                }
                // Guard-style early return.
                2 => {
                    let c = gen_cond(&mut rng, &locals);
                    let e = gen_expr(&mut rng, &locals, 1);
                    body.push_str(&format!("if {c}:\n    return {e}\n"));
                }
                // if/elif/else rebinding a local (CASE-shaped).
                _ => {
                    let c1 = gen_cond(&mut rng, &locals);
                    let c2 = gen_cond(&mut rng, &locals);
                    let (e1, e2, e3) = (
                        gen_expr(&mut rng, &locals, 1),
                        gen_expr(&mut rng, &locals, 1),
                        gen_expr(&mut rng, &locals, 1),
                    );
                    body.push_str(&format!(
                        "if {c1}:\n    w{k} = {e1}\nelif {c2}:\n    w{k} = {e2}\nelse:\n    w{k} = {e3}\n"
                    ));
                    locals.push(format!("w{k}"));
                }
            }
        }
        body.push_str(&format!("return {}\n", gen_expr(&mut rng, &locals, 2)));

        for model in [
            ExecutionModel::OperatorAtATime,
            ExecutionModel::TupleAtATime,
        ] {
            let mut outcomes = Vec::new();
            for (mode, inline, label) in CONFIGS {
                let db = build_db(&rows, &body, mode, inline, model);
                outcomes.push((label, observe(&db)));
                if inline && model == ExecutionModel::OperatorAtATime {
                    // Tally how often the plan actually inlines, via the
                    // EXPLAIN annotation — the oracle is vacuous if every
                    // body bails.
                    let explain = db
                        .execute("EXPLAIN SELECT f(i, d) FROM t")
                        .unwrap()
                        .into_table()
                        .unwrap();
                    let rendered = explain.render_ascii();
                    prop_assert!(
                        rendered.contains("udf f"),
                        "EXPLAIN must annotate the UDF call:\n{rendered}"
                    );
                    total.set(total.get() + 1);
                    if rendered.contains("inlined as") {
                        inlined_plans.set(inlined_plans.get() + 1);
                    }
                }
            }
            let (ref_label, ref_out) = &outcomes[0];
            for (label, out) in &outcomes[1..] {
                prop_assert!(
                    out == ref_out,
                    "{label} diverged from {ref_label} under {model:?}\n  {ref_label}: {ref_out:?}\n  {label}: {out:?}\non body:\n{body}"
                );
            }
        }
        Ok(())
    });
    assert!(
        inlined_plans.get() * 2 >= total.get(),
        "straight-line generator should inline most plans ({}/{})",
        inlined_plans.get(),
        total.get()
    );
}

/// Wire message round trip for query results with arbitrary content.
#[test]
fn wire_result_round_trips() {
    let strings = prop::vec_of(
        prop::string_of(
            "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ",
            0..16,
        ),
        0..20,
    );
    prop::check(cfg(), strings, |strings| {
        use wireproto::message::{Message, WireResult, WireTable, WireValue};
        let table = WireTable {
            name: "r".to_string(),
            columns: vec![("s".to_string(), "STRING".to_string())],
            rows: strings
                .iter()
                .map(|s| vec![WireValue::Str(s.clone())])
                .collect(),
        };
        let msg = Message::ResultSet {
            result: WireResult::Table(table),
            udf_stdout: String::new(),
        };
        let decoded = Message::decode(&msg.encode()).unwrap();
        prop_assert_eq!(decoded, msg);
        Ok(())
    });
}
