//! CLI-level tests for the `devudf` binary.

use std::process::{Command, Stdio};

/// An unknown `--interp` value must fail loudly at parse time, naming the
/// allowed set — not silently fall back to a default engine.
#[test]
fn bogus_interp_flag_fails_loudly() {
    for bad in ["bogus", "bytcode", "Inline"] {
        let out = Command::new(env!("CARGO_BIN_EXE_devudf"))
            .arg(format!("--interp={bad}"))
            .arg("menu")
            .output()
            .expect("devudf binary runs");
        assert_eq!(out.status.code(), Some(2), "--interp={bad} should exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(bad), "stderr names the bad value: {stderr}");
        assert!(
            stderr.contains("'ast', 'bytecode' or 'inline'"),
            "stderr lists the allowed set: {stderr}"
        );
    }
}

/// The accepted spellings all parse (the command itself is inert).
#[test]
fn valid_interp_flags_are_accepted() {
    for good in ["ast", "bytecode", "inline"] {
        let out = Command::new(env!("CARGO_BIN_EXE_devudf"))
            .arg(format!("--interp={good}"))
            .arg("menu")
            .output()
            .expect("devudf binary runs");
        assert_eq!(out.status.code(), Some(0), "--interp={good} should exit 0");
    }
}

/// `metrics --json` and `sessions --json` print one JSON array of row
/// objects keyed by column name, parseable by the workspace's own codec.
#[test]
fn json_listings_parse_as_arrays_of_row_objects() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-json");
    std::fs::create_dir_all(&dir).expect("create project dir");
    for (command, column) in [("metrics", "name"), ("sessions", "peer")] {
        let out = Command::new(env!("CARGO_BIN_EXE_devudf"))
            .args([command, dir.to_str().expect("utf-8 path"), "--json"])
            .arg("--embedded")
            .output()
            .expect("devudf binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{command}: {stdout}");
        let doc = codecs::json::parse(&stdout)
            .unwrap_or_else(|e| panic!("{command} --json is not JSON ({e}): {stdout}"));
        let rows = doc.as_array().expect("a JSON array");
        for row in rows {
            assert!(
                row.get(column).is_some(),
                "{command} row lacks {column}: {row:?}"
            );
        }
        if command == "metrics" {
            assert!(!rows.is_empty(), "the embedded demo records metrics");
        }
    }
}

/// A reader that goes away early (`devudf menu | true`) ends the command
/// quietly with exit 0, not with a panic on the closed pipe.
#[test]
fn closed_stdout_pipe_exits_zero() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_devudf"))
        .arg("menu")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("devudf binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("devudf exits");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
