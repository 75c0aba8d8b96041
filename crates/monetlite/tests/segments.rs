//! Segmented column storage under snapshots: what a write copies, and
//! what every kept snapshot still reads.
//!
//! Both tests hold `obs::metrics::test_lock()`: the first reads the
//! process-wide `monet.table.cow_rows` counter, which the second's writes
//! under snapshots would otherwise bump concurrently.

use std::sync::Arc;

use devharness::prop::{self, Config};
use devharness::prop_assert_eq;
use devharness::rng::Rng;
use monetlite::{ColumnData, Engine, EngineSnapshot, Segments, Table, SEGMENT_ROWS};

const SEG: usize = SEGMENT_ROWS;

fn cow_rows() -> u64 {
    obs::metrics::registry()
        .counter("monet.table.cow_rows")
        .get()
}

/// `numbers (id INTEGER, i INTEGER)` with `rows` rows, `id` = row number.
fn numbers(rows: usize) -> Engine {
    let db = Engine::new();
    db.execute("CREATE TABLE numbers (id INTEGER, i INTEGER)")
        .unwrap();
    let csv: String = (0..rows).map(|r| format!("{r},{}\n", r % 1000)).collect();
    db.fs().write("/numbers.csv", csv.as_bytes()).unwrap();
    db.execute("COPY INTO numbers FROM '/numbers.csv'").unwrap();
    db
}

fn int_segments(t: &Table, col: usize) -> Segments<i64> {
    match &t.columns[col].data {
        ColumnData::Int(v) => v.clone(),
        other => panic!("{other:?}"),
    }
}

/// How many of column `col`'s segments the live table no longer shares
/// with `snap`.
fn unshared_segments(db: &Engine, snap: &EngineSnapshot, col: usize) -> usize {
    let live = int_segments(&db.get_table("numbers").unwrap(), col);
    let held = int_segments(&snap.catalog.table("numbers").unwrap(), col);
    live.segments()
        .iter()
        .zip(held.segments())
        .filter(|(a, b)| !Arc::ptr_eq(a, b))
        .count()
}

#[test]
fn a_write_copies_only_the_segments_a_snapshot_shares_and_it_touches() {
    let _serial = obs::metrics::test_lock();
    obs::set_enabled(true);
    const ROWS: usize = 200_000;
    let db = numbers(ROWS);
    let append = |first: usize| {
        let rows: Vec<String> = (first..first + 5).map(|r| format!("({r}, 1)")).collect();
        db.execute(&format!("INSERT INTO numbers VALUES {}", rows.join(", ")))
            .unwrap();
    };
    let update = "UPDATE numbers SET i = 7 WHERE id IN (3, 60000, 120000, 190000)";

    // A 5-row append under a snapshot copies the tail segment of each of
    // the two columns, not the 400 000 rows of the whole table.
    let snap = db.snapshot();
    let before = cow_rows();
    append(ROWS);
    let copied = cow_rows() - before;
    assert_eq!(copied, 2 * (ROWS % SEG) as u64);
    assert!(copied <= 2 * SEG as u64);
    assert_eq!(unshared_segments(&db, &snap, 0), 1);
    assert_eq!(unshared_segments(&db, &snap, 1), 1);

    // A 4-row scattered UPDATE copies the 4 segments of `i` that hold
    // its rows, and no segment of `id`.
    let snap = db.snapshot();
    let before = cow_rows();
    db.execute(update).unwrap();
    let copied = cow_rows() - before;
    assert_eq!(copied, 4 * SEG as u64);
    assert_eq!(unshared_segments(&db, &snap, 0), 0);
    assert_eq!(unshared_segments(&db, &snap, 1), 4);
    let held = Engine::from_snapshot(&snap);
    let sum = |db: &Engine| {
        db.execute("SELECT sum(i) FROM numbers")
            .unwrap()
            .into_table()
            .unwrap()
            .row(0)
    };
    assert_ne!(sum(&held), sum(&db), "the snapshot keeps the old values");

    // Unshared, the same writes copy nothing.
    drop((snap, held));
    let before = cow_rows();
    append(ROWS + 5);
    db.execute(update).unwrap();
    assert_eq!(cow_rows() - before, 0);
}

/// One step of the isolation property.
#[derive(Debug, Clone)]
enum Step {
    /// Append this many rows through INSERT.
    Insert(usize),
    /// Append this many rows through `COPY INTO`.
    Copy(usize),
    /// `UPDATE t SET v = …` on the rows with `k % m == r`; `None` sets NULL.
    Update {
        m: i64,
        r: i64,
        v: Option<i64>,
    },
    /// `DELETE FROM t` the rows with `lo <= k < hi`, or with `k % m == r`.
    DeleteRange {
        lo: i64,
        hi: i64,
    },
    DeleteEvery {
        m: i64,
        r: i64,
    },
    /// Take a snapshot and keep it to the end of the case.
    Snapshot,
}

/// Row counts at and around segment multiples, plus small appends.
fn row_count(rng: &mut Rng) -> usize {
    [1, 3, SEG - 1, SEG, SEG + 1, 2 * SEG][rng.usize_below(6)]
}

fn step(rng: &mut Rng, next_k: i64) -> Step {
    let key = |rng: &mut Rng| rng.i64_in(0, next_k.max(1) + 1);
    match rng.usize_below(7) {
        0 => Step::Insert(row_count(rng)),
        1 => Step::Copy(row_count(rng)),
        2 => {
            let m = rng.i64_in(1, 9000);
            Step::Update {
                m,
                r: rng.i64_in(0, m),
                v: rng.ratio(0.8).then(|| rng.i64_in(-50, 50)),
            }
        }
        3 => {
            let lo = key(rng);
            Step::DeleteRange {
                lo,
                hi: lo + [1, SEG as i64 - 1, SEG as i64 + 1][rng.usize_below(3)],
            }
        }
        4 => {
            let m = rng.i64_in(2, 20);
            Step::DeleteEvery {
                m,
                r: rng.i64_in(0, m),
            }
        }
        _ => Step::Snapshot,
    }
}

/// The flat oracle: `t (k INTEGER, v INTEGER)` row by row.
type Rows = Vec<(i64, Option<i64>)>;

fn flat(t: &Table) -> Rows {
    let k = int_segments(t, 0).into_vec();
    let v = int_segments(t, 1).into_vec();
    let nulls = t.columns[1].nulls.clone().into_vec();
    (0..k.len())
        .map(|i| {
            (
                k[i],
                (!nulls.get(i).copied().unwrap_or(false)).then_some(v[i]),
            )
        })
        .collect()
}

fn new_rows(next_k: &mut i64, n: usize) -> Vec<(i64, Option<i64>)> {
    (0..n)
        .map(|_| {
            *next_k += 1;
            let k = *next_k;
            (k, (k % 11 != 0).then_some(k % 97))
        })
        .collect()
}

fn render(v: Option<i64>) -> String {
    v.map_or("NULL".to_string(), |v| v.to_string())
}

fn apply(db: &Engine, oracle: &mut Rows, next_k: &mut i64, step: &Step) {
    match *step {
        Step::Insert(n) => {
            let rows = new_rows(next_k, n);
            let values: Vec<String> = rows
                .iter()
                .map(|(k, v)| format!("({k}, {})", render(*v)))
                .collect();
            db.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
                .unwrap();
            oracle.extend(rows);
        }
        Step::Copy(n) => {
            let rows = new_rows(next_k, n);
            let csv: String = rows
                .iter()
                .map(|(k, v)| format!("{k},{}\n", render(*v)))
                .collect();
            db.fs().write("/rows.csv", csv.as_bytes()).unwrap();
            db.execute("COPY INTO t FROM '/rows.csv'").unwrap();
            oracle.extend(rows);
        }
        Step::Update { m, r, v } => {
            db.execute(&format!(
                "UPDATE t SET v = {} WHERE k % {m} = {r}",
                render(v)
            ))
            .unwrap();
            for row in oracle.iter_mut().filter(|(k, _)| k % m == r) {
                row.1 = v;
            }
        }
        Step::DeleteRange { lo, hi } => {
            db.execute(&format!("DELETE FROM t WHERE k >= {lo} AND k < {hi}"))
                .unwrap();
            oracle.retain(|(k, _)| !(lo..hi).contains(k));
        }
        Step::DeleteEvery { m, r } => {
            db.execute(&format!("DELETE FROM t WHERE k % {m} = {r}"))
                .unwrap();
            oracle.retain(|(k, _)| k % m != r);
        }
        Step::Snapshot => {}
    }
}

#[test]
fn kept_snapshots_read_their_rows_across_segment_boundaries() {
    let _serial = obs::metrics::test_lock();
    let steps = prop::from_fn(|rng: &mut Rng| {
        let mut next_k = 0;
        let mut out = Vec::new();
        for _ in 0..rng.usize_in(3, 9) {
            let s = step(rng, next_k);
            if let Step::Insert(n) | Step::Copy(n) = s {
                next_k += n as i64;
            }
            out.push(s);
        }
        out
    });
    prop::check(Config::cases(12), steps, |steps| {
        let db = Engine::new();
        db.execute("CREATE TABLE t (k INTEGER, v INTEGER)").unwrap();
        let (mut oracle, mut next_k) = (Rows::new(), 0);
        let mut kept: Vec<(EngineSnapshot, Rows)> = Vec::new();
        for step in steps {
            if let Step::Snapshot = step {
                kept.push((db.snapshot(), oracle.clone()));
            }
            apply(&db, &mut oracle, &mut next_k, step);
            let live = flat(&db.get_table("t").unwrap());
            prop_assert_eq!(&live, &oracle);
            for (snap, rows) in &kept {
                let read = flat(&snap.hydrate().get_table("t").unwrap());
                prop_assert_eq!(&read, rows);
            }
        }
        Ok(())
    });
}
