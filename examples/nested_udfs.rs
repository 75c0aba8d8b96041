//! Nested UDFs and loopback queries (paper §2.3, Listings 1 + 3).
//!
//! `find_best_classifier` issues loopback queries through `_conn`: one
//! plain data query (the testing set) and one *nested UDF call* — it trains
//! a random forest via `train_rnforest` for several `n_estimators`
//! candidates and keeps the best. devUDF runs the whole pipeline locally:
//! the outer UDF in the IDE, nested `train_rnforest` calls on inputs
//! extracted per loopback query.
//!
//! ```sh
//! cargo run --example nested_udfs
//! ```

use devudf::{DevUdf, Settings};
use wireproto::{Server, ServerConfig};

/// Paper Listing 1: the stored body of `train_rnforest`.
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

/// Paper Listing 3 (adapted: `import numpy` added — the paper's listing
/// uses numpy without importing it — and the result is returned as a table).
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

fn seed(db: &monetlite::Engine) {
    // A learnable dataset: label = 1 iff feature > 6 (mod 13).
    db.execute("CREATE TABLE trainingset (data INTEGER, labels INTEGER)")
        .unwrap();
    db.execute("CREATE TABLE testingset (data INTEGER, labels INTEGER)")
        .unwrap();
    let mut train = Vec::new();
    let mut test = Vec::new();
    let mut state = 0xdead_beef_u64;
    for i in 0..240 {
        let x = i % 13;
        let mut y = (x > 6) as i64;
        if i % 3 == 0 {
            test.push(format!("({x}, {y})"));
        } else {
            // ~20% label noise in the training set: single trees overfit
            // the noise, so more estimators genuinely help.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state.is_multiple_of(5) {
                y = 1 - y;
            }
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
    // Candidate n_estimators values probed by the outer UDF.
    db.execute("CREATE TABLE candidates (est INTEGER)").unwrap();
    db.execute("INSERT INTO candidates VALUES (1), (4), (16)")
        .unwrap();
    db.execute(TRAIN_RNFOREST).unwrap();
    db.execute(FIND_BEST).unwrap();
}

fn main() {
    let server = Server::start(ServerConfig::new("demo", "monetdb", "monetdb"), seed);

    let project = std::env::temp_dir().join(format!("devudf-nested-{}", std::process::id()));
    std::fs::remove_dir_all(&project).ok();
    std::fs::create_dir_all(&project).unwrap();
    let mut settings = Settings::default();
    settings.debug_query =
        "SELECT * FROM find_best_classifier((SELECT est FROM candidates))".to_string();
    let mut dev = DevUdf::connect_in_proc(&server, settings, &project).unwrap();

    println!("── the stored UDF, as the meta tables show it (paper Listing 1):");
    let t = dev
        .server_query("SELECT name, func FROM sys.functions WHERE name = 'train_rnforest'")
        .unwrap()
        .into_table()
        .unwrap();
    print!("{}", t.render_ascii());

    println!("\n── run the nested pipeline inside the server:");
    let t = dev
        .server_query("SELECT n_estimators FROM find_best_classifier((SELECT est FROM candidates))")
        .unwrap()
        .into_table()
        .unwrap();
    print!("{}", t.render_ascii());
    let server_best = t.rows[0][0].clone();

    println!("\n── devUDF: the same pipeline, locally");
    let report = dev.import_all().unwrap();
    println!(
        "imported {:?}",
        report.imported.iter().map(|(n, _)| n).collect::<Vec<_>>()
    );
    // Nested-call discovery (§2.3): the outer body references train_rnforest.
    let info = dev.function_info("find_best_classifier").unwrap();
    let known = dev.server_functions().unwrap();
    let loopbacks = devudf::nested::find_loopback_queries(&info.body, &known);
    for q in &loopbacks {
        println!(
            "  loopback at body line {}: nested UDFs {:?}",
            q.line, q.udfs
        );
    }

    let outcome = dev.run_udf("find_best_classifier").unwrap();
    let local_best = match &outcome.result {
        pylite::Value::Dict(d) => d.borrow().get(&pylite::Value::str("n_estimators")).unwrap(),
        _ => None,
    };
    match &local_best {
        Some(best) => println!("\nlocal best n_estimators = {}", best.repr()),
        None => println!("\nlocal result = {}", outcome.result_repr),
    }
    println!(
        "transfers performed: {} (1 outer input extraction + 1 per nested train_rnforest call)",
        dev.transfer_log().len()
    );

    std::fs::remove_dir_all(&project).ok();
    server.shutdown();

    // The local run must pick what the server picked: same seeds, same
    // data, the same `_conn` answers.
    let local_best = local_best.map(|v| monetlite::udf::py_to_scalar(&v));
    if local_best != Some(Ok(server_best.clone())) {
        eprintln!(
            "local best n_estimators {local_best:?} differs from the server's {server_best:?}"
        );
        std::process::exit(1);
    }
    println!("the server chose {} too", server_best.render());
}
