//! Nested-UDF discovery (paper §2.3).
//!
//! Loopback queries (`_conn.execute("SELECT …")`) inside a UDF body may
//! themselves invoke stored UDFs. To debug the whole pipeline locally,
//! devUDF must find those nested calls, import the nested UDFs too, and
//! rewire `_conn` so nested invocations also run in the IDE. This module
//! does the *discovery*: scanning a body for loopback SQL strings and
//! matching the UDF names they invoke.

/// A loopback query found in a UDF body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopbackQuery {
    /// The raw SQL string literal (with `%d`-style placeholders intact).
    pub sql: String,
    /// 1-based body line where the `_conn.execute` call starts.
    pub line: u32,
    /// Names of known UDFs invoked inside this query.
    pub udfs: Vec<String>,
}

/// Scan a UDF body for `_conn.execute(...)` string literals.
///
/// `known_functions` is the server's function list; matching is by
/// word-boundary name search inside the SQL text (enough for the paper's
/// `SELECT * FROM train_rnforest(…)` shape and robust to formatting).
pub fn find_loopback_queries(body: &str, known_functions: &[String]) -> Vec<LoopbackQuery> {
    let mut out = Vec::new();
    let mut line_no = 0u32;
    let mut search_from = 0usize;
    // Precompute line start offsets for line attribution.
    let line_starts: Vec<usize> = std::iter::once(0)
        .chain(
            body.char_indices()
                .filter(|(_, c)| *c == '\n')
                .map(|(i, _)| i + 1),
        )
        .collect();
    let _ = line_no;

    while let Some(rel) = body[search_from..].find("_conn.execute") {
        let call_pos = search_from + rel;
        line_no = line_starts.iter().take_while(|&&s| s <= call_pos).count() as u32;
        // Find the string literal argument after the opening paren.
        let after = &body[call_pos..];
        let Some(paren) = after.find('(') else {
            search_from = call_pos + 13;
            continue;
        };
        let literal_region = &after[paren + 1..];
        if let Some(sql) = extract_string_literal(literal_region) {
            let udfs = udfs_in_sql(&sql, known_functions);
            out.push(LoopbackQuery {
                sql,
                line: line_no,
                udfs,
            });
        }
        search_from = call_pos + 13;
    }
    out
}

/// Extract the first Python string literal from `text` (handles `'`, `"`,
/// and triple-quoted forms; skips leading whitespace/newlines).
fn extract_string_literal(text: &str) -> Option<String> {
    let trimmed = text.trim_start();
    let bytes = trimmed.as_bytes();
    let quote = *bytes.first()?;
    if quote != b'\'' && quote != b'"' {
        return None;
    }
    let q = quote as char;
    let triple =
        trimmed.len() >= 3 && trimmed.as_bytes()[1] == quote && trimmed.as_bytes()[2] == quote;
    if triple {
        let inner = &trimmed[3..];
        let end = inner.find(&format!("{q}{q}{q}"))?;
        Some(inner[..end].to_string())
    } else {
        let inner = &trimmed[1..];
        let mut out = String::new();
        let mut chars = inner.chars();
        while let Some(c) = chars.next() {
            if c == q {
                return Some(out);
            }
            if c == '\\' {
                if let Some(esc) = chars.next() {
                    out.push(esc);
                }
                continue;
            }
            out.push(c);
        }
        None
    }
}

/// Which of `known` appear as word-bounded names in `sql`. Import-time
/// discovery only: the SQL it scans is a body's literal, whose `%d`
/// placeholders do not parse. A local run finds the UDF a loopback query
/// invokes by parsing it, as the server does (`devudf::debug::LocalConn`).
pub fn udfs_in_sql(sql: &str, known: &[String]) -> Vec<String> {
    let lower = sql.to_ascii_lowercase();
    let mut out = Vec::new();
    for name in known {
        let needle = name.to_ascii_lowercase();
        let mut from = 0usize;
        while let Some(rel) = lower[from..].find(&needle) {
            let start = from + rel;
            let end = start + needle.len();
            let before_ok = start == 0
                || !lower.as_bytes()[start - 1].is_ascii_alphanumeric()
                    && lower.as_bytes()[start - 1] != b'_';
            let after_ok = end >= lower.len()
                || !lower.as_bytes()[end].is_ascii_alphanumeric() && lower.as_bytes()[end] != b'_';
            if before_ok && after_ok {
                if !out.contains(name) {
                    out.push(name.clone());
                }
                break;
            }
            from = end;
        }
    }
    out
}

/// The full transitive closure of nested UDFs reachable from `root_body`.
///
/// `lookup` resolves a UDF name to its body (e.g. via the client); cycles
/// are tolerated (each function is visited once).
pub fn nested_closure(
    root_body: &str,
    known_functions: &[String],
    mut lookup: impl FnMut(&str) -> Option<String>,
) -> Vec<String> {
    let mut discovered: Vec<String> = Vec::new();
    let mut queue: Vec<String> = find_loopback_queries(root_body, known_functions)
        .into_iter()
        .flat_map(|q| q.udfs)
        .collect();
    while let Some(name) = queue.pop() {
        if discovered.contains(&name) {
            continue;
        }
        if let Some(body) = lookup(&name) {
            for q in find_loopback_queries(&body, known_functions) {
                queue.extend(q.udfs);
            }
        }
        discovered.push(name);
    }
    discovered.sort();
    discovered
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The body of paper Listing 3.
    const LISTING3_BODY: &str = r#"import pickle
(tdata, tlabels) = _conn.execute("""SELECT data,
    labels FROM testingset""")
best_classifier = None
best_classifier_answers = -1
best_estimator = -1
for estimator in esttest:
    res = _conn.execute("""
        SELECT *
        FROM train_rnforest(
            (SELECT data, labels
            FROM trainingset), %d);
        """ % estimator)
    classifier = pickle.loads(res['clf'])
return best_classifier
"#;

    fn known() -> Vec<String> {
        vec![
            "train_rnforest".to_string(),
            "mean_deviation".to_string(),
            "find_best_classifier".to_string(),
        ]
    }

    #[test]
    fn finds_both_listing3_loopbacks() {
        let queries = find_loopback_queries(LISTING3_BODY, &known());
        assert_eq!(queries.len(), 2);
        assert!(queries[0].sql.contains("FROM testingset"));
        assert!(queries[0].udfs.is_empty(), "plain data query has no UDFs");
        assert!(queries[1].sql.contains("train_rnforest"));
        assert_eq!(queries[1].udfs, vec!["train_rnforest"]);
    }

    #[test]
    fn line_attribution() {
        let queries = find_loopback_queries(LISTING3_BODY, &known());
        assert_eq!(queries[0].line, 2);
        assert!(queries[1].line >= 8, "second loopback is inside the loop");
    }

    #[test]
    fn word_boundary_matching() {
        let known = vec!["f".to_string(), "train".to_string()];
        assert!(udfs_in_sql("SELECT * FROM training", &known).is_empty());
        assert_eq!(udfs_in_sql("SELECT * FROM train(x)", &known), vec!["train"]);
        assert_eq!(udfs_in_sql("SELECT f(i) FROM t", &known), vec!["f"]);
        assert!(udfs_in_sql("SELECT fff(i) FROM t", &known).is_empty());
    }

    #[test]
    fn single_and_double_quoted_literals() {
        let body = "a = _conn.execute('SELECT 1')\nb = _conn.execute(\"SELECT mean_deviation(i) FROM t\")\n";
        let queries = find_loopback_queries(body, &known());
        assert_eq!(queries.len(), 2);
        assert_eq!(queries[0].sql, "SELECT 1");
        assert_eq!(queries[1].udfs, vec!["mean_deviation"]);
    }

    #[test]
    fn non_literal_arguments_are_skipped() {
        // Dynamic SQL built in a variable cannot be statically analyzed;
        // the scanner must not panic or invent results.
        let body = "q = 'SELECT 1'\nres = _conn.execute(q)\n";
        let queries = find_loopback_queries(body, &known());
        assert!(queries.is_empty());
    }

    #[test]
    fn nested_closure_is_transitive() {
        let known = vec!["a".to_string(), "b".to_string(), "c".to_string()];
        let bodies = |name: &str| -> Option<String> {
            match name {
                "a" => Some("res = _conn.execute('SELECT b(i) FROM t')\n".to_string()),
                "b" => Some("res = _conn.execute('SELECT c(i) FROM t')\n".to_string()),
                "c" => Some("return 1\n".to_string()),
                _ => None,
            }
        };
        let root = "res = _conn.execute('SELECT a(i) FROM t')\n";
        let closure = nested_closure(root, &known, bodies);
        assert_eq!(closure, vec!["a", "b", "c"]);
    }

    #[test]
    fn nested_closure_tolerates_cycles() {
        let known = vec!["x".to_string(), "y".to_string()];
        let bodies = |name: &str| -> Option<String> {
            match name {
                "x" => Some("res = _conn.execute('SELECT y(i) FROM t')\n".to_string()),
                "y" => Some("res = _conn.execute('SELECT x(i) FROM t')\n".to_string()),
                _ => None,
            }
        };
        let closure = nested_closure(
            "res = _conn.execute('SELECT x(i) FROM t')\n",
            &known,
            bodies,
        );
        assert_eq!(closure, vec!["x", "y"]);
    }
}
