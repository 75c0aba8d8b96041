//! Line-level UDF profiling: a process-global accumulator of
//! per-(function, line) hit counts and nanoseconds.
//!
//! The pylite interpreters are the producers: when [`active`] they keep a
//! run-local table keyed by the line table they already maintain for the
//! debugger, and flush it here in one [`record`] batch when the run ends
//! — so the steady-state cost per executed statement is a map bump, and
//! the global mutex is touched once per UDF run. The consumers are the
//! `sys.profile` virtual table and the `devudf profile` CLI, which joins
//! the rows back onto the source text to print annotated hot lines.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Accumulated cost of one source line of one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRow {
    /// Function name as the interpreter knows it (`<module>` for
    /// top-level statements).
    pub func: String,
    /// 1-based source line.
    pub line: u32,
    /// Times a statement starting on this line began executing.
    pub hits: u64,
    /// Wall-clock nanoseconds attributed to this line.
    pub ns: u64,
}

/// One run-local profile entry: `(function, line) → (hits, nanoseconds)`,
/// the batch format the interpreters flush through [`record`].
pub type ProfileEntry = ((String, u32), (u64, u64));

static ACTIVE: AtomicBool = AtomicBool::new(false);

static DATA: Mutex<Vec<ProfileEntry>> = Mutex::new(Vec::new());

/// Distinct (function, line) keys kept before further keys are dropped —
/// a hostile UDF must not grow the profile without bound.
pub const PROFILE_CAP: usize = 65_536;

/// Switch the line profiler on or off. Data already collected is kept
/// until [`reset`].
pub fn set_active(on: bool) {
    ACTIVE.store(on, Ordering::Relaxed);
}

/// Whether interpreters should profile: the profiler switch is on and
/// telemetry is enabled. One relaxed load — checked once per UDF run.
pub fn active() -> bool {
    crate::enabled() && ACTIVE.load(Ordering::Relaxed)
}

/// Merge one run's (function, line) → (hits, nanoseconds) table into the
/// global profile. Entries beyond [`PROFILE_CAP`] distinct keys are
/// dropped.
pub fn record(entries: &[ProfileEntry]) {
    if entries.is_empty() {
        return;
    }
    let mut data = DATA.lock().unwrap_or_else(|e| e.into_inner());
    for (key, (hits, ns)) in entries {
        if let Some((_, cell)) = data.iter_mut().find(|(k, _)| k == key) {
            cell.0 += hits;
            cell.1 += ns;
        } else if data.len() < PROFILE_CAP {
            data.push((key.clone(), (*hits, *ns)));
        }
    }
}

/// The accumulated profile, sorted by (function, line).
pub fn rows() -> Vec<ProfileRow> {
    let data = DATA.lock().unwrap_or_else(|e| e.into_inner());
    let mut rows: Vec<ProfileRow> = data
        .iter()
        .map(|((func, line), (hits, ns))| ProfileRow {
            func: func.clone(),
            line: *line,
            hits: *hits,
            ns: *ns,
        })
        .collect();
    rows.sort_by(|a, b| (&a.func, a.line).cmp(&(&b.func, b.line)));
    rows
}

/// Discard all accumulated profile data.
pub fn reset() {
    DATA.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_merges_and_rows_sort() {
        // The profile table is process-global: serialize with every other
        // telemetry-recording test.
        let _serial = crate::metrics::test_lock();
        crate::set_enabled(true);
        reset();
        record(&[
            (("f".to_string(), 3), (2, 200)),
            (("f".to_string(), 1), (1, 100)),
        ]);
        record(&[(("f".to_string(), 3), (1, 50))]);
        let rows = rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].line, 1);
        assert_eq!(rows[1].line, 3);
        assert_eq!(rows[1].hits, 3);
        assert_eq!(rows[1].ns, 250);
        reset();
        assert!(super::rows().is_empty());
    }

    #[test]
    fn active_requires_both_switches() {
        let _serial = crate::metrics::test_lock();
        crate::set_enabled(true);
        assert!(!active(), "profiler must be off by default");
        set_active(true);
        assert!(active());
        crate::set_enabled(false);
        assert!(!active());
        crate::set_enabled(true);
        set_active(false);
        assert!(!active());
    }
}
