//! Paper §2.3 / Listing 3 end-to-end: nested UDFs inside loopback queries,
//! executed server-side and then locally (with the debugger stepping into
//! the nested UDF).

use devudf::{DevUdf, Settings};
use pylite::debugger::PauseReason;
use pylite::{DebugCommand, Debugger, Value};
use wireproto::{Server, ServerConfig, WireValue};

const TRAIN_RNFOREST: &str = concat!(
    "CREATE FUNCTION train_rnforest(data INTEGER, classes INTEGER, n_estimators INTEGER) ",
    "RETURNS TABLE(clf BLOB, estimators INTEGER) LANGUAGE PYTHON {\n",
    "import pickle\n",
    "from sklearn.ensemble import RandomForestClassifier\n",
    "clf = RandomForestClassifier(n_estimators)\n",
    "clf.fit(data, classes)\n",
    "return {'clf': pickle.dumps(clf), 'estimators': n_estimators}\n",
    "}"
);

const FIND_BEST: &str = concat!(
    "CREATE FUNCTION find_best_classifier(esttest INTEGER) ",
    "RETURNS TABLE(clf BLOB, n_estimators INTEGER) LANGUAGE PYTHON {\n",
    "import pickle\n",
    "import numpy\n",
    "(tdata, tlabels) = _conn.execute(\"\"\"SELECT data,\n",
    "    labels FROM testingset\"\"\")\n",
    "best_classifier = None\n",
    "best_classifier_answers = -1\n",
    "best_estimator = -1\n",
    "for estimator in esttest:\n",
    "    res = _conn.execute(\n",
    "        \"\"\"\n",
    "        SELECT *\n",
    "        FROM train_rnforest(\n",
    "            (SELECT data, labels\n",
    "            FROM trainingset), %d);\n",
    "        \"\"\" % estimator)\n",
    "    classifier = pickle.loads(res['clf'])\n",
    "    predictions = classifier.predict(tdata)\n",
    "    correct_predictions = predictions == tlabels\n",
    "    correct_ans = numpy.sum(correct_predictions)\n",
    "    if correct_ans > best_classifier_answers:\n",
    "        best_classifier = classifier\n",
    "        best_classifier_answers = correct_ans\n",
    "        best_estimator = estimator\n",
    "return {'clf': pickle.dumps(best_classifier), 'n_estimators': best_estimator}\n",
    "}"
);

fn listing3_server() -> Server {
    Server::start(ServerConfig::new("demo", "monetdb", "monetdb"), |db| {
        db.execute("CREATE TABLE trainingset (data INTEGER, labels INTEGER)")
            .unwrap();
        db.execute("CREATE TABLE testingset (data INTEGER, labels INTEGER)")
            .unwrap();
        let mut train = Vec::new();
        let mut test = Vec::new();
        for i in 0..150 {
            let x = i % 11;
            let y = (x > 5) as i64;
            if i % 3 == 0 {
                test.push(format!("({x}, {y})"));
            } else {
                train.push(format!("({x}, {y})"));
            }
        }
        db.execute(&format!(
            "INSERT INTO trainingset VALUES {}",
            train.join(", ")
        ))
        .unwrap();
        db.execute(&format!(
            "INSERT INTO testingset VALUES {}",
            test.join(", ")
        ))
        .unwrap();
        db.execute("CREATE TABLE candidates (est INTEGER)").unwrap();
        db.execute("INSERT INTO candidates VALUES (2), (8)")
            .unwrap();
        db.execute(TRAIN_RNFOREST).unwrap();
        db.execute(FIND_BEST).unwrap();
    })
}

fn temp_project(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "devudf-nested-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn settings() -> Settings {
    let mut s = Settings::default();
    s.debug_query = "SELECT * FROM find_best_classifier((SELECT est FROM candidates))".to_string();
    s
}

#[test]
fn listing3_runs_server_side() {
    let server = listing3_server();
    let mut client =
        wireproto::Client::connect_in_proc(&server, "monetdb", "monetdb", "demo").unwrap();
    let t = client
        .query("SELECT n_estimators FROM find_best_classifier((SELECT est FROM candidates))")
        .unwrap()
        .into_table()
        .unwrap();
    match t.rows[0][0] {
        WireValue::Int(n) => assert!(n == 2 || n == 8, "best estimator from candidates, got {n}"),
        ref other => panic!("{other:?}"),
    }
    server.shutdown();
}

#[test]
fn listing3_runs_locally_with_nested_extraction() {
    let server = listing3_server();
    let dir = temp_project("local");
    let mut dev = DevUdf::connect_in_proc(&server, settings(), &dir).unwrap();
    dev.import_all().unwrap();

    let outcome = dev.run_udf("find_best_classifier").unwrap();
    let Value::Dict(d) = &outcome.result else {
        panic!("{:?}", outcome.result)
    };
    let best = d
        .borrow()
        .get(&Value::str("n_estimators"))
        .unwrap()
        .unwrap();
    assert!(matches!(best, Value::Int(2) | Value::Int(8)));
    // Transfers: 1 outer inputs + 2 nested (one per candidate).
    assert_eq!(dev.transfer_log().len(), 3);

    std::fs::remove_dir_all(&dir).ok();
    server.shutdown();
}

#[test]
fn local_and_server_results_agree() {
    // Determinism: the forest seed is fixed on both sides, so the chosen
    // n_estimators must match between server-side and local execution.
    let server = listing3_server();
    let mut client =
        wireproto::Client::connect_in_proc(&server, "monetdb", "monetdb", "demo").unwrap();
    let t = client
        .query("SELECT n_estimators FROM find_best_classifier((SELECT est FROM candidates))")
        .unwrap()
        .into_table()
        .unwrap();
    let WireValue::Int(server_best) = t.rows[0][0] else {
        panic!()
    };

    let dir = temp_project("agree");
    let mut dev = DevUdf::connect_in_proc(&server, settings(), &dir).unwrap();
    dev.import_all().unwrap();
    let outcome = dev.run_udf("find_best_classifier").unwrap();
    let Value::Dict(d) = &outcome.result else {
        panic!()
    };
    let local_best = d
        .borrow()
        .get(&Value::str("n_estimators"))
        .unwrap()
        .unwrap();
    assert_eq!(local_best, Value::Int(server_best));

    std::fs::remove_dir_all(&dir).ok();
    server.shutdown();
}

#[test]
fn debugger_steps_into_nested_udf() {
    let server = listing3_server();
    let dir = temp_project("stepin");
    let mut dev = DevUdf::connect_in_proc(&server, settings(), &dir).unwrap();
    dev.import_all().unwrap();

    // Break on `clf.fit(...)` — line 4 of the *nested* train_rnforest body,
    // which only executes inside the loopback call.
    let dbg = Debugger::scripted(vec![DebugCommand::Continue; 8]);
    dbg.borrow_mut().add_breakpoint(4);
    let outcome = dev.debug_udf("find_best_classifier", dbg.clone()).unwrap();
    assert!(outcome.run.is_some());
    let d = dbg.borrow();
    let nested_pauses: Vec<_> = d
        .pauses()
        .iter()
        .filter(|p| p.locals.iter().any(|(n, _)| n == "n_estimators"))
        .collect();
    assert!(
        !nested_pauses.is_empty(),
        "the debugger must pause inside the nested UDF's body"
    );

    std::fs::remove_dir_all(&dir).ok();
    server.shutdown();
}

/// One pause of a recorded trail: reason, function, line and stack.
type Pause = (PauseReason, String, u32, Vec<(String, u32)>);

/// Debug `find_best_classifier` under `mode` with a breakpoint on line 4,
/// answering each hit inside the nested `train_rnforest` body (the
/// nested interpreter runs it as `<module>`) with `step` and every other
/// pause with Continue. Returns the pause trail.
fn nested_step_trail(mode: devudf::InterpMode, step: DebugCommand) -> Vec<Pause> {
    let server = listing3_server();
    let dir = temp_project(&format!("trail-{}-{step:?}", mode.as_str()));
    let mut settings = settings();
    settings.interp = mode;
    let mut dev = DevUdf::connect_in_proc(&server, settings, &dir).unwrap();
    dev.import_all().unwrap();
    let dbg = Debugger::with_controller(move |p| {
        if p.reason == PauseReason::Breakpoint && p.function == "<module>" {
            step.clone()
        } else {
            DebugCommand::Continue
        }
    });
    dbg.borrow_mut().add_breakpoint(4);
    let outcome = dev.debug_udf("find_best_classifier", dbg.clone()).unwrap();
    assert!(outcome.run.is_some());
    let trail = dbg
        .borrow()
        .pauses()
        .iter()
        .map(|p| (p.reason, p.function.clone(), p.line, p.stack.clone()))
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    server.shutdown();
    trail
}

/// A trail's first pause: the outer script's line 4 (`import pickle`, the
/// first body line of `find_best_classifier`, called from harness line
/// 32).
fn nested_trail_prefix() -> Vec<Pause> {
    let outer = vec![
        ("<module>".to_string(), 32),
        ("find_best_classifier".to_string(), 4),
    ];
    vec![(
        PauseReason::Breakpoint,
        "find_best_classifier".to_string(),
        4,
        outer,
    )]
}

/// A pause on `line` of the nested `train_rnforest` body.
fn nested_pause(reason: PauseReason, line: u32) -> Pause {
    (
        reason,
        "<module>".to_string(),
        line,
        vec![("<module>".to_string(), line)],
    )
}

#[test]
fn step_over_inside_nested_udf_stays_in_its_body() {
    let mut expected = nested_trail_prefix();
    for _ in 0..2 {
        expected.push(nested_pause(PauseReason::Breakpoint, 4));
        expected.push(nested_pause(PauseReason::Step, 5));
    }
    for mode in [devudf::InterpMode::Ast, devudf::InterpMode::Bytecode] {
        let trail = nested_step_trail(mode, DebugCommand::StepOver);
        assert_eq!(trail, expected, "{}", mode.as_str());
    }
}

#[test]
fn step_out_of_nested_udf_runs_to_its_next_breakpoint() {
    // A nested UDF is a module run in a second interpreter, not a call:
    // its body runs at the caller's depth. Stepping out of it stops only
    // when `find_best_classifier` returns, after which no statement
    // runs, or at the next breakpoint: the second candidate's `clf.fit`.
    let mut expected = nested_trail_prefix();
    for _ in 0..2 {
        expected.push(nested_pause(PauseReason::Breakpoint, 4));
    }
    for mode in [devudf::InterpMode::Ast, devudf::InterpMode::Bytecode] {
        let trail = nested_step_trail(mode, DebugCommand::StepOut);
        assert_eq!(trail, expected, "{}", mode.as_str());
    }
}

#[test]
fn pickled_classifier_round_trips_between_engines() {
    // The classifier pickled by the nested UDF (server) must be loadable by
    // the outer UDF (locally) — the exact dance Listing 3 performs.
    let server = listing3_server();
    let mut client =
        wireproto::Client::connect_in_proc(&server, "monetdb", "monetdb", "demo").unwrap();
    let t = client
        .query("SELECT clf FROM train_rnforest((SELECT data, labels FROM trainingset), 4)")
        .unwrap()
        .into_table()
        .unwrap();
    let WireValue::Blob(blob) = &t.rows[0][0] else {
        panic!()
    };
    let mut interp = pylite::Interp::new();
    interp.set_global("blob", Value::bytes(blob.clone()));
    interp
        .eval_module(
            "import pickle\nclf = pickle.loads(blob)\npreds = clf.predict([1, 2, 9, 10])\nn = len(preds)\n",
        )
        .unwrap();
    assert_eq!(interp.get_global("n").unwrap(), Value::Int(4));
    server.shutdown();
}
