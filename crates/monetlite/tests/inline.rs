//! Froid-style UDF inlining: plan decisions, the bail matrix, runtime
//! fallback, and regression pins for every divergence the three-way
//! differential harness (tests/proptests.rs in the root package) found.

use monetlite::{Engine, ExecutionModel};

fn db(model: ExecutionModel, inline: bool) -> Engine {
    let e = Engine::new();
    e.set_model(model);
    e.set_inline(inline);
    e
}

/// Run a query, flattening the first column to rendered strings (or the
/// error message). The shape every parity assertion compares.
fn run(e: &Engine, query: &str) -> Result<Vec<String>, String> {
    match e.execute(query).and_then(|r| r.into_table()) {
        Ok(t) => Ok(t.rows().iter().map(|r| r[0].render()).collect()),
        Err(err) => Err(err.to_string()),
    }
}

/// The EXPLAIN decision line for one stored UDF.
fn explain_udf(e: &Engine, query: &str, name: &str) -> String {
    let t = e
        .execute(&format!("EXPLAIN {query}"))
        .unwrap()
        .into_table()
        .unwrap();
    let tag = format!("udf {name}");
    t.rows()
        .iter()
        .find(|r| r[0].render() == tag)
        .map(|r| r[1].render())
        .unwrap_or_else(|| panic!("no '{tag}' row in EXPLAIN output: {t:?}"))
}

/// Execute the same setup + query with inlining on and off under `model`;
/// assert bit-identical outcomes (the interpreter is the spec) and return
/// the shared result.
fn assert_parity(
    model: ExecutionModel,
    setup: &[&str],
    query: &str,
) -> Result<Vec<String>, String> {
    let on = db(model, true);
    let off = db(model, false);
    for stmt in setup {
        on.execute(stmt).unwrap();
        off.execute(stmt).unwrap();
    }
    let got_on = run(&on, query);
    let got_off = run(&off, query);
    assert_eq!(
        got_on, got_off,
        "inlined result diverged from interpreter under {model:?}"
    );
    got_on
}

const BOTH_MODELS: [ExecutionModel; 2] = [
    ExecutionModel::OperatorAtATime,
    ExecutionModel::TupleAtATime,
];

fn numbers_table() -> Vec<String> {
    vec![
        "CREATE TABLE t (i INTEGER, d DOUBLE)".to_string(),
        "INSERT INTO t VALUES (1, 0.5), (2, 1.5), (3, 2.5)".to_string(),
    ]
}

fn udf(body: &str) -> String {
    format!("CREATE FUNCTION f(i INTEGER, d DOUBLE) RETURNS DOUBLE LANGUAGE PYTHON {{\n{body}\n}}")
}

// ---------------------------------------------------------------------------
// Happy path: straight-line bodies inline and match the interpreter.
// ---------------------------------------------------------------------------

#[test]
fn straight_line_bodies_inline_and_match() {
    // Serialize with the counter-delta tests: every UDF run bumps the
    // global inlined/bailed counters they measure.
    let _serial = obs::metrics::test_lock();
    let bodies = [
        "return i * 2 + d",
        "v = i + 1\nw = v * d\nreturn w - v",
        "if i > 2:\n    return d\nelif i > 1:\n    return d + 1\nelse:\n    return d + 2",
        "v = d\nv += i\nreturn v / 2",
        "return abs(i - 2) + d",
    ];
    for body in bodies {
        let mut setup = numbers_table();
        setup.push(udf(body));
        let setup: Vec<&str> = setup.iter().map(|s| s.as_str()).collect();
        for model in BOTH_MODELS {
            let got = assert_parity(model, &setup, "SELECT f(i, d) FROM t");
            let got = got.unwrap_or_else(|e| panic!("body {body:?} failed: {e}"));
            assert_eq!(got.len(), 3, "one value per row for {body:?}");
        }
    }
}

#[test]
fn inlined_counter_increments_and_explain_annotates() {
    let _serial = obs::metrics::test_lock();
    obs::set_enabled(true);
    let inlined_c = obs::counter!("monetlite.udf.inlined");
    let bailed_c = obs::counter!("monetlite.udf.bailed");

    let e = db(ExecutionModel::OperatorAtATime, true);
    for stmt in numbers_table() {
        e.execute(&stmt).unwrap();
    }
    e.execute(&udf("return i * 2 + d")).unwrap();

    let plan = explain_udf(&e, "SELECT f(i, d) FROM t", "f");
    assert!(
        plan.starts_with("inlined as "),
        "EXPLAIN should show the inlined expression, got: {plan}"
    );

    let (i0, b0) = (inlined_c.get(), bailed_c.get());
    run(&e, "SELECT f(i, d) FROM t").unwrap();
    assert_eq!(inlined_c.get() - i0, 1, "one inlined execution");
    assert_eq!(bailed_c.get() - b0, 0, "no bail on the happy path");
}

// ---------------------------------------------------------------------------
// Bail matrix: one unsupported construct per row. Each must (a) plan as
// interpreted with the right reason, (b) still return the interpreter's
// answer, (c) bump the bailed counter, not the inlined one.
// ---------------------------------------------------------------------------

#[test]
fn bail_matrix_unsupported_constructs_fall_back() {
    let _serial = obs::metrics::test_lock();
    obs::set_enabled(true);
    let inlined_c = obs::counter!("monetlite.udf.inlined");
    let bailed_c = obs::counter!("monetlite.udf.bailed");

    // (body, expected bail label, expected first-row value in OaaT).
    // Every call converts its value to the declared type, so the
    // interpreter's ints come back as DOUBLEs.
    let matrix: [(&str, &str, &str); 5] = [
        (
            "s = 0\nfor x in range(0, 3):\n    s = s + i\nreturn s",
            "loop",
            "3.0",
        ),
        (
            "r = _conn.execute('SELECT sum(i) FROM t')\nreturn r['sum'] + 41",
            "loopback",
            "42.0",
        ),
        ("l = [1, 2]\nl.append(3)\nreturn len(l)", "mutation", "3.0"),
        (
            "def g(x):\n    return x + 1\nreturn g(i)",
            "nested-def",
            "2.0",
        ),
        ("print('probe')\nreturn 7", "print", "7.0"),
    ];

    for (body, label, first) in matrix {
        let e = db(ExecutionModel::OperatorAtATime, true);
        e.execute("CREATE TABLE t (i INTEGER)").unwrap();
        e.execute("INSERT INTO t VALUES (1)").unwrap();
        e.execute(&format!(
            "CREATE FUNCTION f(i INTEGER) RETURNS DOUBLE LANGUAGE PYTHON {{\n{body}\n}}"
        ))
        .unwrap();

        let plan = explain_udf(&e, "SELECT f(i) FROM t", "f");
        assert_eq!(
            plan,
            format!("interpreted (bail: {label})"),
            "plan decision for body:\n{body}"
        );

        let (i0, b0) = (inlined_c.get(), bailed_c.get());
        let got = run(&e, "SELECT f(i) FROM t").unwrap();
        assert_eq!(
            got,
            vec![first.to_string()],
            "interpreter result for {label}"
        );
        assert_eq!(bailed_c.get() - b0, 1, "{label} bumps the bailed counter");
        assert_eq!(inlined_c.get() - i0, 0, "{label} never counts as inlined");
    }
}

#[test]
fn disabling_inlining_via_knob_is_visible_in_explain() {
    // Serialize with the counter-delta tests: every UDF run bumps the
    // global inlined/bailed counters they measure.
    let _serial = obs::metrics::test_lock();
    let e = db(ExecutionModel::OperatorAtATime, false);
    for stmt in numbers_table() {
        e.execute(&stmt).unwrap();
    }
    e.execute(&udf("return i * 2 + d")).unwrap();
    assert_eq!(
        explain_udf(&e, "SELECT f(i, d) FROM t", "f"),
        "interpreted (bail: disabled)"
    );
    // Still runs (through the interpreter).
    assert_eq!(run(&e, "SELECT f(i, d) FROM t").unwrap().len(), 3);
}

#[test]
fn plan_cache_invalidates_on_create_or_replace() {
    // Serialize with the counter-delta tests: every UDF run bumps the
    // global inlined/bailed counters they measure.
    let _serial = obs::metrics::test_lock();
    let e = db(ExecutionModel::OperatorAtATime, true);
    for stmt in numbers_table() {
        e.execute(&stmt).unwrap();
    }
    e.execute(&udf("return i + d")).unwrap();
    assert!(explain_udf(&e, "SELECT f(i, d) FROM t", "f").starts_with("inlined as "));

    // Replace with a loopy body: the cached plan must not survive.
    e.execute(
        "CREATE OR REPLACE FUNCTION f(i INTEGER, d DOUBLE) RETURNS DOUBLE LANGUAGE PYTHON {\ns = 0\nfor x in range(0, 2):\n    s = s + i\nreturn s + d\n}",
    )
    .unwrap();
    assert_eq!(
        explain_udf(&e, "SELECT f(i, d) FROM t", "f"),
        "interpreted (bail: loop)"
    );
    assert_eq!(
        run(&e, "SELECT f(i, d) FROM t").unwrap(),
        vec!["2.5", "5.5", "8.5"]
    );
}

// ---------------------------------------------------------------------------
// Runtime bails: the plan inlines, but a binding-time fact forces fallback.
// ---------------------------------------------------------------------------

#[test]
fn null_inputs_bail_to_interpreter() {
    let _serial = obs::metrics::test_lock();
    obs::set_enabled(true);
    let bailed_c = obs::counter!("monetlite.udf.bailed");
    for model in BOTH_MODELS {
        let setup = [
            "CREATE TABLE t (i INTEGER, d DOUBLE)",
            "INSERT INTO t VALUES (1, 0.5), (NULL, 1.5)",
            "CREATE FUNCTION f(i INTEGER, d DOUBLE) RETURNS DOUBLE LANGUAGE PYTHON {\nreturn d * 2\n}",
        ];
        let e = db(model, true);
        for stmt in setup {
            e.execute(stmt).unwrap();
        }
        let b0 = bailed_c.get();
        let got = run(&e, "SELECT f(i, d) FROM t");
        assert!(bailed_c.get() > b0, "NULL input must bail under {model:?}");
        assert_eq!(got, assert_parity(model, &setup, "SELECT f(i, d) FROM t"));
    }
}

#[test]
fn empty_input_bails_to_interpreter() {
    // Serialize with the counter-delta tests: every UDF run bumps the
    // global inlined/bailed counters they measure.
    let _serial = obs::metrics::test_lock();
    for model in BOTH_MODELS {
        let setup = [
            "CREATE TABLE t (i INTEGER, d DOUBLE)",
            "CREATE FUNCTION f(i INTEGER, d DOUBLE) RETURNS DOUBLE LANGUAGE PYTHON {\nreturn d * 2\n}",
        ];
        let _ = assert_parity(model, &setup, "SELECT f(i, d) FROM t");
    }
}

#[test]
fn column_bound_condition_bails_in_operator_at_a_time() {
    // Serialize with the counter-delta tests: every UDF run bumps the
    // global inlined/bailed counters they measure.
    let _serial = obs::metrics::test_lock();
    // `if d > 1` over a whole column: pylite sees an array in the condition.
    // Parity (including the interpreter's error, if any) is the contract.
    let mut setup = numbers_table();
    setup.push(udf("if d > 1:\n    return d\nreturn 0 - d"));
    let setup: Vec<&str> = setup.iter().map(|s| s.as_str()).collect();
    for model in BOTH_MODELS {
        let _ = assert_parity(model, &setup, "SELECT f(i, d) FROM t");
    }
    // Tuple-at-a-time sees one row per call, so there the plan runs inlined
    // and produces the per-row branch values.
    let got = assert_parity(
        ExecutionModel::TupleAtATime,
        &setup,
        "SELECT f(i, d) FROM t",
    );
    assert_eq!(got.unwrap(), vec!["-0.5", "1.5", "2.5"]);
}

#[test]
fn scalar_bound_aggregate_bails() {
    // Serialize with the counter-delta tests: every UDF run bumps the
    // global inlined/bailed counters they measure.
    let _serial = obs::metrics::test_lock();
    // sum() over a scalar binding is a Python TypeError the interpreter
    // must raise; sum() over a column binding inlines to SUM().
    let mut setup = numbers_table();
    setup.push(udf("return sum(d)"));
    let setup: Vec<&str> = setup.iter().map(|s| s.as_str()).collect();
    let got = assert_parity(
        ExecutionModel::OperatorAtATime,
        &setup,
        "SELECT f(1, 2.5) FROM t",
    );
    assert!(got.is_err(), "sum over a scalar must raise: {got:?}");
    let got = assert_parity(
        ExecutionModel::OperatorAtATime,
        &setup,
        "SELECT f(i, d) FROM t",
    );
    assert_eq!(got.unwrap(), vec!["4.5"]);
}

// ---------------------------------------------------------------------------
// Regression pins — one named test per divergence the differential harness
// found, fixed in whichever engine was wrong.
// ---------------------------------------------------------------------------

/// Found by the three-way proptest: pylite's `float()`/`int()` are NOT
/// vectorized (TypeError on arrays) while the lowered `CAST` is elementwise.
/// The plan must bail at runtime when a cast argument is column-bound in
/// operator-at-a-time mode so the interpreter raises its error.
#[test]
fn regression_cast_of_column_is_a_type_error_in_operator_at_a_time() {
    // Serialize with the counter-delta tests: every UDF run bumps the
    // global inlined/bailed counters they measure.
    let _serial = obs::metrics::test_lock();
    let mut setup = numbers_table();
    setup.push(udf("v0 = i / 7\nreturn 2.5 - float(d)"));
    let setup: Vec<&str> = setup.iter().map(|s| s.as_str()).collect();

    let got = assert_parity(
        ExecutionModel::OperatorAtATime,
        &setup,
        "SELECT f(i, d) FROM t",
    );
    let err = got.expect_err("float(column) must raise in operator-at-a-time mode");
    assert!(
        err.contains("float() argument must be a number or string"),
        "interpreter's TypeError survives: {err}"
    );

    // Per-row mode sees scalars, so the same body inlines and succeeds.
    let got = assert_parity(
        ExecutionModel::TupleAtATime,
        &setup,
        "SELECT f(i, d) FROM t",
    );
    assert_eq!(got.unwrap(), vec!["2.0", "1.0", "0.0"]);
}

/// Found by the three-way proptest: pylite evaluates every assignment
/// eagerly, so a division by zero in a local the return never reads still
/// raises. The plan sequences binding effects via `__seq`.
#[test]
fn regression_dead_local_still_raises_division_by_zero() {
    // Serialize with the counter-delta tests: every UDF run bumps the
    // global inlined/bailed counters they measure.
    let _serial = obs::metrics::test_lock();
    let mut setup = numbers_table();
    setup.push(udf("v0 = (0 - d) / (3.5 - 3.5)\nreturn d + 1"));
    let setup: Vec<&str> = setup.iter().map(|s| s.as_str()).collect();
    for model in BOTH_MODELS {
        let got = assert_parity(model, &setup, "SELECT f(i, d) FROM t");
        let err = got.expect_err("dead local's division by zero must raise");
        assert!(
            err.contains("float division by zero"),
            "under {model:?}: {err}"
        );
    }
}

/// Found by the three-way proptest: tuple-at-a-time calls the UDF once per
/// source row, so a row-independent body still yields one value per row —
/// the inlined scalar result must broadcast.
#[test]
fn regression_row_independent_body_broadcasts_per_row() {
    // Serialize with the counter-delta tests: every UDF run bumps the
    // global inlined/bailed counters they measure.
    let _serial = obs::metrics::test_lock();
    let mut setup = numbers_table();
    setup.push(udf("v0 = 0.5 + 3 / 6.5\nreturn 0.5 // (0.5 % v0)"));
    let setup: Vec<&str> = setup.iter().map(|s| s.as_str()).collect();
    for model in BOTH_MODELS {
        let got = assert_parity(model, &setup, "SELECT f(i, d) FROM t").unwrap();
        assert_eq!(
            got.len(),
            if model == ExecutionModel::TupleAtATime {
                3
            } else {
                1
            },
            "row-independent body under {model:?}"
        );
    }
}

/// `abs(i64::MIN)` used to panic in both pylite and the engine's abs()
/// builtin. Both now raise a catchable overflow error.
#[test]
fn regression_abs_of_i64_min_errors_instead_of_panicking() {
    // Serialize with the counter-delta tests: every UDF run bumps the
    // global inlined/bailed counters they measure.
    let _serial = obs::metrics::test_lock();
    // i64::MIN is unrepresentable as a literal; build it with arithmetic.
    let setup = [
        "CREATE TABLE t (i INTEGER)",
        "INSERT INTO t VALUES (1)",
        "CREATE FUNCTION f(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON {\nv = -9223372036854775807 - i\nreturn abs(v)\n}",
    ];
    for model in BOTH_MODELS {
        let got = assert_parity(model, &setup, "SELECT f(i) FROM t");
        let err = got.expect_err("abs(i64::MIN) must error, not panic");
        assert!(err.contains("integer overflow in abs()"), "{err}");
    }
    // The plain SQL builtin too.
    let e = db(ExecutionModel::OperatorAtATime, true);
    e.execute(setup[0]).unwrap();
    e.execute(setup[1]).unwrap();
    let err = run(&e, "SELECT abs(0 - 9223372036854775807 - 1) FROM t")
        .expect_err("SQL abs overflows loudly");
    assert!(err.contains("integer overflow in abs()"), "{err}");
}

// ---------------------------------------------------------------------------
// Division / overflow boundaries (satellite: parity at the edges).
// ---------------------------------------------------------------------------

#[test]
fn division_boundaries_match_interpreter() {
    // Serialize with the counter-delta tests: every UDF run bumps the
    // global inlined/bailed counters they measure.
    let _serial = obs::metrics::test_lock();
    let setup = [
        "CREATE TABLE t (i INTEGER)",
        "INSERT INTO t VALUES (1)",
        "CREATE FUNCTION f(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON {\nv = -9223372036854775807 - i\nreturn v // -1\n}",
    ];
    for model in BOTH_MODELS {
        let got = assert_parity(model, &setup, "SELECT f(i) FROM t");
        let err = got.expect_err("i64::MIN // -1 overflows");
        assert!(err.contains("integer overflow"), "under {model:?}: {err}");
    }
}

#[test]
fn per_row_zero_divisor_matches_interpreter() {
    // Serialize with the counter-delta tests: every UDF run bumps the
    // global inlined/bailed counters they measure.
    let _serial = obs::metrics::test_lock();
    // One row has a zero divisor; both modes must surface the interpreter's
    // ZeroDivisionError rather than a partial result.
    let setup = [
        "CREATE TABLE t (i INTEGER)",
        "INSERT INTO t VALUES (2), (0), (4)",
        "CREATE FUNCTION f(i INTEGER) RETURNS DOUBLE LANGUAGE PYTHON {\nreturn 10 / i\n}",
    ];
    for model in BOTH_MODELS {
        let got = assert_parity(model, &setup, "SELECT f(i) FROM t");
        let err = got.expect_err("zero divisor in one row must raise");
        assert!(err.contains("division by zero"), "under {model:?}: {err}");
    }
}

#[test]
fn bool_int_promotion_matches_interpreter() {
    // Serialize with the counter-delta tests: every UDF run bumps the
    // global inlined/bailed counters they measure.
    let _serial = obs::metrics::test_lock();
    // `(i > 1) + i` promotes the comparison's bool to int, like Python.
    let setup = [
        "CREATE TABLE t (i INTEGER)",
        "INSERT INTO t VALUES (1), (2), (3)",
        "CREATE FUNCTION f(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON {\nb = i > 1\nreturn b + i\n}",
    ];
    for model in BOTH_MODELS {
        let _ = assert_parity(model, &setup, "SELECT f(i) FROM t");
    }
    let got = assert_parity(ExecutionModel::TupleAtATime, &setup, "SELECT f(i) FROM t");
    assert_eq!(got.unwrap(), vec!["1", "3", "4"]);
}

#[test]
fn mixed_type_promotion_matches_interpreter() {
    // Serialize with the counter-delta tests: every UDF run bumps the
    // global inlined/bailed counters they measure.
    let _serial = obs::metrics::test_lock();
    let setup = [
        "CREATE TABLE t (i INTEGER, d DOUBLE)",
        "INSERT INTO t VALUES (7, 0.5), (-3, 2.0)",
        "CREATE FUNCTION f(i INTEGER, d DOUBLE) RETURNS DOUBLE LANGUAGE PYTHON {\nreturn i / 2 + i % 3 + d * i\n}",
    ];
    for model in BOTH_MODELS {
        let got = assert_parity(model, &setup, "SELECT f(i, d) FROM t");
        // i=7: 3.5 + 1 + 3.5; i=-3: -1.5 + 0 (euclidean %) + -6.
        assert_eq!(got.unwrap(), vec!["8.0", "-7.5"]);
    }
}

#[test]
fn regression_integers_past_2_pow_53_compare_exactly_in_every_engine() {
    // Serialize with the counter-delta tests: every UDF run bumps the
    // global inlined/bailed counters they measure.
    let _serial = obs::metrics::test_lock();
    use pylite::ExecMode;
    // 2^53 and 2^53 + 1 round to the same f64, so ordered through f64
    // they tie. Python orders two ints exactly; so must all three engines.
    let setup = [
        "CREATE TABLE t (a INTEGER, b INTEGER)",
        "INSERT INTO t VALUES (9007199254740993, 9007199254740992)",
    ];
    for (body, expected) in [("return a == b", "false"), ("return b < a", "true")] {
        let create = format!(
            "CREATE FUNCTION f(a INTEGER, b INTEGER) RETURNS BOOLEAN LANGUAGE PYTHON {{\n{body}\n}}"
        );
        for model in BOTH_MODELS {
            for (mode, inline) in [
                (ExecMode::Ast, false),
                (ExecMode::Bytecode, false),
                (ExecMode::Bytecode, true),
            ] {
                let e = db(model, inline);
                e.set_exec_mode(mode);
                for stmt in setup.iter().copied().chain([create.as_str()]) {
                    e.execute(stmt).unwrap();
                }
                if inline {
                    let plan = explain_udf(&e, "SELECT f(a, b) FROM t", "f");
                    assert!(plan.starts_with("inlined as "), "{body}: {plan}");
                }
                assert_eq!(
                    run(&e, "SELECT f(a, b) FROM t"),
                    Ok(vec![expected.to_string()]),
                    "{body} under {model:?} / {mode:?} / inline={inline}"
                );
            }
        }
    }
}
