//! Property tests for the SQL engine (devharness::prop).

use devharness::prop::{self, Config, Strategy};
use devharness::prop_assert_eq;
use monetlite::{Engine, QueryResult, SqlValue};

fn cfg() -> Config {
    Config::cases(48)
}

fn engine_with(data: &[i64]) -> Engine {
    let db = Engine::new();
    db.execute("CREATE TABLE t (i INTEGER)").unwrap();
    if !data.is_empty() {
        let values: Vec<String> = data.iter().map(|v| format!("({v})")).collect();
        db.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
            .unwrap();
    }
    db
}

fn ints(t: &monetlite::Table, col: usize) -> Vec<i64> {
    (0..t.row_count())
        .map(|i| match t.row(i)[col] {
            SqlValue::Int(v) => v,
            ref other => panic!("{other:?}"),
        })
        .collect()
}

#[test]
fn order_by_sorts() {
    prop::check(
        cfg(),
        prop::vec_of(prop::i64_in(-1000..1000), 0..60),
        |data| {
            let db = engine_with(data);
            let t = db
                .execute("SELECT i FROM t ORDER BY i")
                .unwrap()
                .into_table()
                .unwrap();
            let got = ints(&t, 0);
            let mut expected = data.clone();
            expected.sort();
            prop_assert_eq!(got, expected);
            Ok(())
        },
    );
}

/// The six SQL comparisons, each with the orderings it accepts, indexed
/// Less, Equal, Greater.
const COMPARISONS: [(&str, [bool; 3]); 6] = [
    ("=", [false, true, false]),
    ("<>", [true, false, true]),
    ("<", [true, false, false]),
    ("<=", [true, true, false]),
    (">", [false, false, true]),
    (">=", [false, true, true]),
];

fn affected(db: &Engine, sql: &str) -> usize {
    match db.execute(sql).unwrap() {
        QueryResult::Affected { rows, .. } => rows,
        other => panic!("{sql}: {other:?}"),
    }
}

fn column(db: &Engine, sql: &str) -> Vec<SqlValue> {
    let t = db.execute(sql).unwrap().into_table().unwrap();
    t.rows().into_iter().map(|r| r[0].clone()).collect()
}

/// A comparison WHERE selects the same rows in SELECT, UPDATE and DELETE
/// as Rust does: two integers compare exactly, an integer and a double
/// through f64, and a NULL row is never selected. Values sit near 0 and
/// ±2^53, where neighbouring integers round to one f64; dropping the NULLs
/// from half the cases runs the typed kernel as well as the rowwise path.
#[test]
fn where_filter_matches_rust() {
    fn value() -> impl Strategy<Value = i64> {
        (prop::usize_in(0..3), prop::i64_in(-2..3))
            .map(|(base, d)| [0, 1 << 53, -(1 << 53)][*base] + d)
    }
    let strategy = (
        prop::vec_of(prop::option_of(value()), 0..40),
        (value(), prop::usize_in(0..COMPARISONS.len())),
        prop::any_bool(), // DOUBLE column
        prop::any_bool(), // constant on the left: `k op i`
        prop::any_bool(), // keep the NULLs
    );
    prop::check(
        cfg(),
        strategy,
        |(rows, (cut, op), double, flipped, nulls)| {
            let rows: Vec<Option<i64>> = rows
                .iter()
                .copied()
                .filter(|v| *nulls || v.is_some())
                .collect();
            let db = Engine::new();
            let ty = if *double { "DOUBLE" } else { "INTEGER" };
            db.execute(&format!("CREATE TABLE t (i {ty})")).unwrap();
            if !rows.is_empty() {
                let values: Vec<String> = rows
                    .iter()
                    .map(|v| v.map_or("(NULL)".to_string(), |v| format!("({v})")))
                    .collect();
                db.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
                    .unwrap();
            }
            let (sym, accepts) = COMPARISONS[*op];
            let pred = if *flipped {
                format!("{cut} {sym} i")
            } else {
                format!("i {sym} {cut}")
            };
            let selected = |x: i64| {
                let ord = if *double {
                    (x as f64).partial_cmp(&(*cut as f64)).unwrap()
                } else {
                    x.cmp(cut)
                };
                let ord = if *flipped { ord.reverse() } else { ord };
                accepts[(ord as i8 + 1) as usize]
            };
            let cell = |v: &Option<i64>| match v {
                None => SqlValue::Null,
                Some(x) if *double => SqlValue::Double(*x as f64),
                Some(x) => SqlValue::Int(*x),
            };
            let (hit, kept): (Vec<Option<i64>>, Vec<Option<i64>>) =
                rows.iter().partition(|v| v.is_some_and(selected));
            let hit: Vec<SqlValue> = hit.iter().map(cell).collect();
            let kept: Vec<SqlValue> = kept.iter().map(cell).collect();
            prop_assert_eq!(column(&db, &format!("SELECT i FROM t WHERE {pred}")), hit);
            prop_assert_eq!(
                affected(&db, &format!("UPDATE t SET i = i WHERE {pred}")),
                hit.len()
            );
            prop_assert_eq!(
                affected(&db, &format!("DELETE FROM t WHERE {pred}")),
                hit.len()
            );
            prop_assert_eq!(column(&db, "SELECT i FROM t"), kept);
            Ok(())
        },
    );

    // A BOOLEAN column is a predicate of its own: only TRUE rows pass,
    // its NULL rows stay out of SELECT, UPDATE and DELETE alike.
    let db = Engine::new();
    db.execute("CREATE TABLE flags (k INTEGER, b BOOLEAN)")
        .unwrap();
    db.execute("INSERT INTO flags VALUES (1, true), (2, NULL), (3, false), (4, true), (5, NULL)")
        .unwrap();
    let ks = |vs: &[i64]| -> Vec<SqlValue> { vs.iter().map(|&k| SqlValue::Int(k)).collect() };
    assert_eq!(column(&db, "SELECT k FROM flags WHERE b"), ks(&[1, 4]));
    assert_eq!(affected(&db, "UPDATE flags SET k = k * 10 WHERE b"), 2);
    assert_eq!(affected(&db, "DELETE FROM flags WHERE b"), 2);
    assert_eq!(column(&db, "SELECT k FROM flags"), ks(&[2, 3, 5]));
}

#[test]
fn distinct_removes_duplicates() {
    prop::check(cfg(), prop::vec_of(prop::i64_in(0..10), 0..60), |data| {
        let db = engine_with(data);
        let t = db
            .execute("SELECT DISTINCT i FROM t ORDER BY i")
            .unwrap()
            .into_table()
            .unwrap();
        let mut expected: Vec<i64> = data.clone();
        expected.sort();
        expected.dedup();
        prop_assert_eq!(ints(&t, 0), expected);
        Ok(())
    });
}

#[test]
fn group_by_partitions_correctly() {
    prop::check(cfg(), prop::vec_of(prop::i64_in(0..5), 1..60), |data| {
        let db = engine_with(data);
        let t = db
            .execute("SELECT i, count(*) FROM t GROUP BY i ORDER BY i")
            .unwrap()
            .into_table()
            .unwrap();
        let mut counts = std::collections::BTreeMap::new();
        for v in data {
            *counts.entry(*v).or_insert(0i64) += 1;
        }
        let keys = ints(&t, 0);
        let cnts = ints(&t, 1);
        prop_assert_eq!(keys.len(), counts.len());
        for (k, c) in keys.iter().zip(&cnts) {
            prop_assert_eq!(counts[k], *c);
        }
        Ok(())
    });
}

#[test]
fn limit_truncates() {
    let strategy = (
        prop::vec_of(prop::i64_in(0..100), 0..50),
        prop::usize_in(0..60),
    );
    prop::check(cfg(), strategy, |(data, n)| {
        let db = engine_with(data);
        let t = db
            .execute(&format!("SELECT i FROM t LIMIT {n}"))
            .unwrap()
            .into_table()
            .unwrap();
        prop_assert_eq!(t.row_count(), (*n).min(data.len()));
        Ok(())
    });
}

#[test]
fn join_matches_manual_computation() {
    let strategy = (
        prop::vec_of(prop::i64_in(0..8), 0..25),
        prop::vec_of(prop::i64_in(0..8), 0..25),
    );
    prop::check(cfg(), strategy, |(left, right)| {
        let db = Engine::new();
        db.execute("CREATE TABLE l (k INTEGER)").unwrap();
        db.execute("CREATE TABLE r (k INTEGER)").unwrap();
        for (tbl, data) in [("l", left), ("r", right)] {
            if !data.is_empty() {
                let values: Vec<String> = data.iter().map(|v| format!("({v})")).collect();
                db.execute(&format!("INSERT INTO {tbl} VALUES {}", values.join(", ")))
                    .unwrap();
            }
        }
        let t = db
            .execute("SELECT count(*) FROM l JOIN r ON l.k = r.k")
            .unwrap()
            .into_table()
            .unwrap();
        let expected: i64 = left
            .iter()
            .map(|lv| right.iter().filter(|rv| *rv == lv).count() as i64)
            .sum();
        prop_assert_eq!(t.row(0)[0].clone(), SqlValue::Int(expected));
        Ok(())
    });
}

#[test]
fn parser_never_panics() {
    prop::check(
        cfg(),
        prop::string_of(
            "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 '(),*.=<>+-",
            0..120,
        ),
        |sql| {
            let _ = monetlite::sql::parse_statement(sql);
            Ok(())
        },
    );
}

#[test]
fn delete_then_count_is_consistent() {
    let strategy = (
        prop::vec_of(prop::i64_in(-50..50), 0..40),
        prop::i64_in(-50..50),
    );
    prop::check(cfg(), strategy, |(data, cut)| {
        let db = engine_with(data);
        db.execute(&format!("DELETE FROM t WHERE i < {cut}"))
            .unwrap();
        let t = db
            .execute("SELECT count(*) FROM t")
            .unwrap()
            .into_table()
            .unwrap();
        let expected = data.iter().filter(|v| *v >= cut).count() as i64;
        prop_assert_eq!(t.row(0)[0].clone(), SqlValue::Int(expected));
        Ok(())
    });
}
