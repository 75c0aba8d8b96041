//! Importing and exporting UDFs (paper Figure 3 and §2.2).
//!
//! Import: read name + parameters + body from the server's meta tables,
//! apply the Listing-2 transformation, and write one `.py` file per UDF
//! into the project. Export: reverse the transformation on the edited file
//! and commit only the body back via `CREATE OR REPLACE FUNCTION`.

use crate::nested;
use crate::session::DevUdf;
use crate::transform;
use crate::{DevUdfError, Result};

/// Which UDFs to import (the checkbox list of Figure 3a).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UdfSelection {
    All,
    Named(Vec<String>),
}

/// Outcome of an import.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ImportReport {
    /// UDFs written into the project, with their file paths.
    pub imported: Vec<(String, String)>,
    /// Requested names that do not exist on the server.
    pub missing: Vec<String>,
    /// UDFs imported automatically because a requested UDF invokes them in
    /// a loopback query (paper §2.3).
    pub nested: Vec<String>,
}

/// Import UDFs from the server into the project.
pub fn import_udfs(dev: &mut DevUdf, selection: UdfSelection) -> Result<ImportReport> {
    let mut span = obs::trace::span("core.import");
    let available = dev.server_functions()?;
    let wanted: Vec<String> = match selection {
        UdfSelection::All => available.clone(),
        UdfSelection::Named(names) => names,
    };
    let mut report = ImportReport::default();
    let mut imported_names: Vec<String> = Vec::new();
    // Bodies still to scan for nested calls, each fetched once.
    let mut pending: Vec<String> = Vec::new();
    for name in wanted {
        if !available.iter().any(|a| a.eq_ignore_ascii_case(&name)) {
            report.missing.push(name);
            continue;
        }
        let info = dev.function_info(&name)?;
        let script = transform::to_local_script(&info);
        let path = dev.project.write_udf(&info.name, &script)?;
        imported_names.push(info.name.clone());
        pending.push(info.body);
        report
            .imported
            .push((info.name, path.to_string_lossy().to_string()));
    }

    // §2.3: also import the transitive closure of nested UDFs invoked via
    // loopback queries, so local debugging can step into them.
    while let Some(body) = pending.pop() {
        for q in nested::find_loopback_queries(&body, &available) {
            for nested_name in q.udfs {
                if imported_names
                    .iter()
                    .any(|n| n.eq_ignore_ascii_case(&nested_name))
                {
                    continue;
                }
                let ninfo = dev.function_info(&nested_name)?;
                let nscript = transform::to_local_script(&ninfo);
                dev.project.write_udf(&ninfo.name, &nscript)?;
                imported_names.push(ninfo.name.clone());
                report.nested.push(ninfo.name);
                pending.push(ninfo.body);
            }
        }
    }
    span.field("imported", report.imported.len());
    span.field("nested", report.nested.len());
    Ok(report)
}

/// Export edited UDFs back to the server. Returns the exported names.
pub fn export_udfs(dev: &mut DevUdf, names: &[&str]) -> Result<Vec<String>> {
    let mut span = obs::trace::span("core.export");
    span.field("requested", names.len());
    let mut exported = Vec::new();
    for name in names {
        if !dev.project.has_udf(name) {
            return Err(DevUdfError::Transform(format!(
                "no local file for UDF '{name}' (import it first)"
            )));
        }
        let script = dev.project.read_udf(name)?;
        let body = transform::extract_body(&script, name)?;
        // Signature comes from the server's current metadata; only the body
        // is replaced (paper §2.2: "only the function body is committed").
        let info = dev.function_info(name)?;
        let stmt = transform::to_create_statement(&info, &body);
        dev.server_query(&stmt)?;
        exported.push(name.to_string());
    }
    Ok(exported)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::settings::Settings;
    use wireproto::{Server, ServerConfig};

    fn demo_server() -> Server {
        Server::start(ServerConfig::new("demo", "monetdb", "monetdb"), |db| {
            db.execute("CREATE TABLE numbers (i INTEGER)").unwrap();
            db.execute("INSERT INTO numbers VALUES (1), (2), (3), (4)")
                .unwrap();
            db.execute(
                "CREATE FUNCTION mean_deviation(column INTEGER) RETURNS DOUBLE LANGUAGE PYTHON {\nmean = 0\nfor i in range(0, len(column)):\n    mean += column[i]\nmean = mean / len(column)\ndistance = 0\nfor i in range(0, len(column)):\n    distance += column[i] - mean\ndeviation = distance / len(column)\nreturn deviation\n}",
            )
            .unwrap();
            db.execute(
                "CREATE FUNCTION double_it(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return i * 2 }",
            )
            .unwrap();
        })
    }

    fn temp_dev(server: &Server, tag: &str) -> DevUdf {
        let dir = std::env::temp_dir().join(format!(
            "devudf-impexp-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let mut settings = Settings::default();
        settings.debug_query = "SELECT mean_deviation(i) FROM numbers".to_string();
        DevUdf::connect_in_proc(server, settings, &dir).unwrap()
    }

    #[test]
    fn import_all_writes_transformed_files() {
        let server = demo_server();
        let mut dev = temp_dev(&server, "all");
        let report = dev.import_all().unwrap();
        assert_eq!(report.imported.len(), 2);
        assert!(report.missing.is_empty());
        let script = dev.project.read_udf("mean_deviation").unwrap();
        assert!(script.contains("def mean_deviation(column):"));
        assert!(script.contains("pickle.load(open('./input.bin', 'rb'))"));
        std::fs::remove_dir_all(dev.project.root()).ok();
        server.shutdown();
    }

    #[test]
    fn import_selection_reports_missing() {
        let server = demo_server();
        let mut dev = temp_dev(&server, "sel");
        let report = dev.import(&["double_it", "ghost_fn"]).unwrap();
        assert_eq!(report.imported.len(), 1);
        assert_eq!(report.missing, vec!["ghost_fn"]);
        assert!(dev.project.has_udf("double_it"));
        assert!(!dev.project.has_udf("mean_deviation"));
        std::fs::remove_dir_all(dev.project.root()).ok();
        server.shutdown();
    }

    #[test]
    fn edit_and_export_round_trip_fixes_scenario_a() {
        let server = demo_server();
        let mut dev = temp_dev(&server, "roundtrip");
        dev.import(&["mean_deviation"]).unwrap();

        // The buggy UDF returns ~0 on the server (missing abs).
        let before = dev
            .server_query("SELECT mean_deviation(i) FROM numbers")
            .unwrap()
            .into_table()
            .unwrap();
        match &before.rows[0][0] {
            wireproto::WireValue::Double(d) => assert!(d.abs() < 1e-9, "buggy sums to 0, got {d}"),
            other => panic!("{other:?}"),
        }

        // Fix the bug locally (the Scenario A fix: wrap in abs()).
        let script = dev.project.read_udf("mean_deviation").unwrap();
        let fixed = script.replace(
            "distance += column[i] - mean",
            "distance += abs(column[i] - mean)",
        );
        assert_ne!(script, fixed, "the buggy line must be present");
        dev.project.write_udf("mean_deviation", &fixed).unwrap();

        // Export and re-run server-side: now correct (mean dev of 1..4 = 1.0).
        dev.export(&["mean_deviation"]).unwrap();
        let after = dev
            .server_query("SELECT mean_deviation(i) FROM numbers")
            .unwrap()
            .into_table()
            .unwrap();
        match &after.rows[0][0] {
            wireproto::WireValue::Double(d) => assert!((d - 1.0).abs() < 1e-9, "got {d}"),
            other => panic!("{other:?}"),
        }
        std::fs::remove_dir_all(dev.project.root()).ok();
        server.shutdown();
    }

    #[test]
    fn importing_a_udf_pulls_its_nested_udfs() {
        let server = Server::start(ServerConfig::new("demo", "monetdb", "monetdb"), |db| {
            db.execute(
                "CREATE FUNCTION inner_fn(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return i }",
            )
            .unwrap();
            db.execute(
                "CREATE FUNCTION outer_fn(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON {\nres = _conn.execute('SELECT inner_fn(x) FROM t')\nreturn res['inner_fn']\n}",
            )
            .unwrap();
            db.execute(
                "CREATE FUNCTION unrelated(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return i }",
            )
            .unwrap();
        });
        let mut dev = temp_dev(&server, "nestedimport");
        let report = dev.import(&["outer_fn"]).unwrap();
        assert_eq!(report.imported.len(), 1);
        assert_eq!(report.nested, vec!["inner_fn"]);
        assert!(dev.project.has_udf("inner_fn"));
        assert!(!dev.project.has_udf("unrelated"));
        std::fs::remove_dir_all(dev.project.root()).ok();
        server.shutdown();
    }

    /// Server with the given `(name, body)` UDFs, each `(i INTEGER)
    /// RETURNS INTEGER`.
    fn server_with(udfs: &'static [(&'static str, &'static str)]) -> Server {
        Server::start(ServerConfig::new("demo", "monetdb", "monetdb"), move |db| {
            for (name, body) in udfs {
                db.execute(&format!(
                    "CREATE FUNCTION {name}(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON {{\n{body}\n}}"
                ))
                .unwrap();
            }
        })
    }

    #[test]
    fn nested_import_is_transitive() {
        let server = server_with(&[
            ("a", "res = _conn.execute('SELECT b(i) FROM t')\nreturn 1"),
            ("b", "res = _conn.execute('SELECT c(i) FROM t')\nreturn 1"),
            ("c", "return 1"),
            ("d", "return 1"),
        ]);
        let mut dev = temp_dev(&server, "transitive");
        let report = dev.import(&["a"]).unwrap();
        assert_eq!(report.nested, vec!["b", "c"]);
        assert!(!dev.project.has_udf("d"));
        std::fs::remove_dir_all(dev.project.root()).ok();
        server.shutdown();
    }

    #[test]
    fn nested_import_tolerates_cycles() {
        let server = server_with(&[
            ("x", "res = _conn.execute('SELECT y(i) FROM t')\nreturn 1"),
            ("y", "res = _conn.execute('SELECT x(i) FROM t')\nreturn 1"),
        ]);
        let mut dev = temp_dev(&server, "cycle");
        let report = dev.import(&["x"]).unwrap();
        assert_eq!(report.imported.len(), 1);
        assert_eq!(report.nested, vec!["y"]);
        std::fs::remove_dir_all(dev.project.root()).ok();
        server.shutdown();
    }

    #[test]
    fn export_without_import_errors() {
        let server = demo_server();
        let mut dev = temp_dev(&server, "noimport");
        assert!(dev.export(&["mean_deviation"]).is_err());
        std::fs::remove_dir_all(dev.project.root()).ok();
        server.shutdown();
    }

    #[test]
    fn exported_body_matches_stored_body_when_unedited() {
        let server = demo_server();
        let mut dev = temp_dev(&server, "identity");
        dev.import(&["double_it"]).unwrap();
        let before = dev.function_info("double_it").unwrap().body;
        dev.export(&["double_it"]).unwrap();
        let after = dev.function_info("double_it").unwrap().body;
        assert_eq!(before.trim_end(), after.trim_end());
        std::fs::remove_dir_all(dev.project.root()).ok();
        server.shutdown();
    }
}
