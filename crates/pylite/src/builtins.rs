//! Built-in functions (`len`, `range`, `print`, …).

use std::rc::Rc;

use crate::error::{ErrorKind, PyError};
use crate::interp::Interp;
use crate::native::fileobj::FileObj;
use crate::value::{Array, Builtin, Dict, Value};

macro_rules! builtin {
    ($name:literal, $f:expr) => {
        Value::Builtin(Rc::new(Builtin {
            name: $name,
            func: Box::new($f),
        }))
    };
}

fn err(kind: ErrorKind, msg: impl Into<String>) -> PyError {
    PyError::new(kind, msg)
}

fn arity(name: &str, args: &[Value], min: usize, max: usize) -> Result<(), PyError> {
    if args.len() < min || args.len() > max {
        return Err(err(
            ErrorKind::Type,
            format!(
                "{name}() takes {min}..{max} arguments but {} were given",
                args.len()
            ),
        ));
    }
    Ok(())
}

/// Look up a built-in function by name.
pub fn lookup(name: &str) -> Option<Value> {
    Some(match name {
        "len" => builtin!("len", |interp, args, _kw| {
            arity("len", args, 1, 1)?;
            let len = interp.value_len(&args[0], interp.call_line())?;
            // Only a range can hold more than i64::MAX elements.
            let len = i64::try_from(len)
                .map_err(|_| err(ErrorKind::Value, "integer overflow in len()"))?;
            Ok(Value::Int(len))
        }),
        "range" => builtin!("range", |_interp, args, _kw| {
            arity("range", args, 1, 3)?;
            let get = |v: &Value| -> Result<i64, PyError> {
                match v {
                    Value::Int(i) => Ok(*i),
                    Value::Bool(b) => Ok(*b as i64),
                    other => Err(err(
                        ErrorKind::Type,
                        format!("range() argument must be int, not '{}'", other.type_name()),
                    )),
                }
            };
            let (start, stop, step) = match args.len() {
                1 => (0, get(&args[0])?, 1),
                2 => (get(&args[0])?, get(&args[1])?, 1),
                _ => (get(&args[0])?, get(&args[1])?, get(&args[2])?),
            };
            if step == 0 {
                return Err(err(ErrorKind::Value, "range() arg 3 must not be zero"));
            }
            Ok(Value::Range { start, stop, step })
        }),
        "print" => builtin!("print", |interp, args, _kw| {
            let parts: Vec<String> = args.iter().map(|v| v.py_str()).collect();
            interp.write_stdout(&parts.join(" "));
            interp.write_stdout("\n");
            Ok(Value::None)
        }),
        "abs" => builtin!("abs", |_interp, args, _kw| {
            arity("abs", args, 1, 1)?;
            let abs_i = |i: i64| {
                i.checked_abs()
                    .ok_or_else(|| err(ErrorKind::Value, "integer overflow in abs()"))
            };
            match &args[0] {
                Value::Int(i) => Ok(Value::Int(abs_i(*i)?)),
                Value::Float(f) => Ok(Value::Float(f.abs())),
                Value::Bool(b) => Ok(Value::Int(*b as i64)),
                Value::Array(a) => Ok(Value::array(match a.as_ref() {
                    Array::Int(v) => {
                        Array::Int(v.iter().map(|x| abs_i(*x)).collect::<Result<_, _>>()?)
                    }
                    Array::Float(v) => Array::Float(v.iter().map(|x| x.abs()).collect()),
                    other => other.clone(),
                })),
                other => Err(err(
                    ErrorKind::Type,
                    format!("bad operand type for abs(): '{}'", other.type_name()),
                )),
            }
        }),
        "min" => builtin!("min", |interp, args, _kw| fold_extreme(interp, args, true)),
        "max" => builtin!("max", |interp, args, _kw| fold_extreme(interp, args, false)),
        "sum" => builtin!("sum", |interp, args, _kw| {
            arity("sum", args, 1, 2)?;
            // Fast path for numeric arrays.
            if let Value::Array(a) = &args[0] {
                return Ok(match a.as_ref() {
                    Array::Int(v) => Value::Int(v.iter().sum()),
                    Array::Float(v) => Value::Float(v.iter().sum()),
                    Array::Bool(v) => Value::Int(v.iter().filter(|b| **b).count() as i64),
                    Array::Str(_) => return Err(err(ErrorKind::Type, "cannot sum a string array")),
                });
            }
            let items = interp.iter_values(&args[0], interp.call_line())?;
            let mut acc = args.get(1).cloned().unwrap_or(Value::Int(0));
            for item in items {
                acc = interp.binop(crate::ast::BinOp::Add, &acc, &item, interp.call_line())?;
            }
            Ok(acc)
        }),
        "sorted" => builtin!("sorted", |interp, args, kw| {
            arity("sorted", args, 1, 1)?;
            let mut items = interp.iter_values(&args[0], interp.call_line())?;
            let key_fn = kw.iter().find(|(n, _)| n == "key").map(|(_, v)| v.clone());
            let reverse = kw
                .iter()
                .find(|(n, _)| n == "reverse")
                .map(|(_, v)| v.truthy())
                .unwrap_or(false);
            // Decorate with keys so the comparator cannot fail mid-sort.
            let mut decorated: Vec<(Value, Value)> = Vec::with_capacity(items.len());
            for item in items.drain(..) {
                let k = match &key_fn {
                    Some(f) => interp.call_function(
                        f,
                        std::slice::from_ref(&item),
                        &[],
                        interp.call_line(),
                    )?,
                    None => item.clone(),
                };
                decorated.push((k, item));
            }
            // Validate orderability by comparing adjacent pairs first.
            let mut sort_err = None;
            decorated.sort_by(|a, b| {
                if sort_err.is_some() {
                    return std::cmp::Ordering::Equal;
                }
                match interp.order_values(&a.0, &b.0, interp.call_line()) {
                    Ok(o) => o,
                    Err(e) => {
                        sort_err = Some(e);
                        std::cmp::Ordering::Equal
                    }
                }
            });
            if let Some(e) = sort_err {
                return Err(e);
            }
            if reverse {
                decorated.reverse();
            }
            Ok(Value::list(decorated.into_iter().map(|(_, v)| v).collect()))
        }),
        "reversed" => builtin!("reversed", |interp, args, _kw| {
            arity("reversed", args, 1, 1)?;
            let mut items = interp.iter_values(&args[0], interp.call_line())?;
            items.reverse();
            Ok(Value::list(items))
        }),
        "enumerate" => builtin!("enumerate", |interp, args, _kw| {
            arity("enumerate", args, 1, 2)?;
            let start = match args.get(1) {
                Some(Value::Int(i)) => *i,
                None => 0,
                Some(other) => {
                    return Err(err(
                        ErrorKind::Type,
                        format!("enumerate() start must be int, not '{}'", other.type_name()),
                    ))
                }
            };
            let items = interp.iter_values(&args[0], interp.call_line())?;
            Ok(Value::list(
                items
                    .into_iter()
                    .enumerate()
                    .map(|(i, v)| Value::tuple(vec![Value::Int(start + i as i64), v]))
                    .collect(),
            ))
        }),
        "zip" => builtin!("zip", |interp, args, _kw| {
            let mut columns = Vec::with_capacity(args.len());
            for a in args {
                columns.push(interp.iter_values(a, interp.call_line())?);
            }
            let n = columns.iter().map(|c| c.len()).min().unwrap_or(0);
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                out.push(Value::tuple(columns.iter().map(|c| c[i].clone()).collect()));
            }
            Ok(Value::list(out))
        }),
        "map" => builtin!("map", |interp, args, _kw| {
            arity("map", args, 2, 2)?;
            let items = interp.iter_values(&args[1], interp.call_line())?;
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                out.push(interp.call_function(&args[0], &[item], &[], interp.call_line())?);
            }
            Ok(Value::list(out))
        }),
        "filter" => builtin!("filter", |interp, args, _kw| {
            arity("filter", args, 2, 2)?;
            let items = interp.iter_values(&args[1], interp.call_line())?;
            let mut out = Vec::new();
            for item in items {
                let keep = if args[0].is_none_value() {
                    item.truthy()
                } else {
                    interp
                        .call_function(
                            &args[0],
                            std::slice::from_ref(&item),
                            &[],
                            interp.call_line(),
                        )?
                        .truthy()
                };
                if keep {
                    out.push(item);
                }
            }
            Ok(Value::list(out))
        }),
        "any" => builtin!("any", |interp, args, _kw| {
            arity("any", args, 1, 1)?;
            let items = interp.iter_values(&args[0], interp.call_line())?;
            Ok(Value::Bool(items.iter().any(|v| v.truthy())))
        }),
        "all" => builtin!("all", |interp, args, _kw| {
            arity("all", args, 1, 1)?;
            let items = interp.iter_values(&args[0], interp.call_line())?;
            Ok(Value::Bool(items.iter().all(|v| v.truthy())))
        }),
        "int" => builtin!("int", |_interp, args, _kw| {
            arity("int", args, 1, 1)?;
            match &args[0] {
                Value::Int(i) => Ok(Value::Int(*i)),
                Value::Bool(b) => Ok(Value::Int(*b as i64)),
                Value::Float(f) => Ok(Value::Int(f.trunc() as i64)),
                Value::Str(s) => s.trim().parse::<i64>().map(Value::Int).map_err(|_| {
                    err(
                        ErrorKind::Value,
                        format!("invalid literal for int(): '{}'", s),
                    )
                }),
                other => Err(err(
                    ErrorKind::Type,
                    format!(
                        "int() argument must be a number or string, not '{}'",
                        other.type_name()
                    ),
                )),
            }
        }),
        "float" => builtin!("float", |_interp, args, _kw| {
            arity("float", args, 1, 1)?;
            match &args[0] {
                Value::Int(i) => Ok(Value::Float(*i as f64)),
                Value::Bool(b) => Ok(Value::Float(*b as i64 as f64)),
                Value::Float(f) => Ok(Value::Float(*f)),
                Value::Str(s) => s.trim().parse::<f64>().map(Value::Float).map_err(|_| {
                    err(
                        ErrorKind::Value,
                        format!("could not convert string to float: '{}'", s),
                    )
                }),
                other => Err(err(
                    ErrorKind::Type,
                    format!(
                        "float() argument must be a number or string, not '{}'",
                        other.type_name()
                    ),
                )),
            }
        }),
        "str" => builtin!("str", |_interp, args, _kw| {
            arity("str", args, 0, 1)?;
            Ok(Value::str(
                args.first().map(|v| v.py_str()).unwrap_or_default(),
            ))
        }),
        "bool" => builtin!("bool", |_interp, args, _kw| {
            arity("bool", args, 0, 1)?;
            Ok(Value::Bool(
                args.first().map(|v| v.truthy()).unwrap_or(false),
            ))
        }),
        "list" => builtin!("list", |interp, args, _kw| {
            arity("list", args, 0, 1)?;
            match args.first() {
                None => Ok(Value::list(Vec::new())),
                Some(v) => Ok(Value::list(interp.iter_values(v, interp.call_line())?)),
            }
        }),
        "tuple" => builtin!("tuple", |interp, args, _kw| {
            arity("tuple", args, 0, 1)?;
            match args.first() {
                None => Ok(Value::tuple(Vec::new())),
                Some(v) => Ok(Value::tuple(interp.iter_values(v, interp.call_line())?)),
            }
        }),
        "dict" => builtin!("dict", |interp, args, kw| {
            arity("dict", args, 0, 1)?;
            let mut d = Dict::new();
            if let Some(v) = args.first() {
                for pair in interp.iter_values(v, interp.call_line())? {
                    let kv = interp.iter_values(&pair, interp.call_line())?;
                    if kv.len() != 2 {
                        return Err(err(
                            ErrorKind::Value,
                            "dict() update sequence elements must be pairs",
                        ));
                    }
                    d.insert(kv[0].clone(), kv[1].clone())?;
                }
            }
            for (name, v) in kw {
                d.insert(Value::str(name.clone()), v.clone())?;
            }
            Ok(Value::dict(d))
        }),
        "type" => builtin!("type", |_interp, args, _kw| {
            arity("type", args, 1, 1)?;
            Ok(Value::str(args[0].type_name()))
        }),
        "repr" => builtin!("repr", |_interp, args, _kw| {
            arity("repr", args, 1, 1)?;
            Ok(Value::str(args[0].repr()))
        }),
        "round" => builtin!("round", |_interp, args, _kw| {
            arity("round", args, 1, 2)?;
            let digits = match args.get(1) {
                Some(Value::Int(d)) => *d,
                None => 0,
                Some(other) => {
                    return Err(err(
                        ErrorKind::Type,
                        format!("round() digits must be int, not '{}'", other.type_name()),
                    ))
                }
            };
            match &args[0] {
                Value::Int(i) => Ok(Value::Int(*i)),
                Value::Float(f) => {
                    let factor = 10f64.powi(digits as i32);
                    let r = (f * factor).round() / factor;
                    if digits <= 0 && args.len() == 1 {
                        Ok(Value::Int(r as i64))
                    } else {
                        Ok(Value::Float(r))
                    }
                }
                other => Err(err(
                    ErrorKind::Type,
                    format!(
                        "round() argument must be a number, not '{}'",
                        other.type_name()
                    ),
                )),
            }
        }),
        "open" => builtin!("open", |interp, args, _kw| {
            arity("open", args, 1, 2)?;
            let Value::Str(path) = &args[0] else {
                return Err(err(ErrorKind::Type, "open() path must be a string"));
            };
            let mode = match args.get(1) {
                Some(Value::Str(m)) => m.to_string(),
                None => "r".to_string(),
                Some(other) => {
                    return Err(err(
                        ErrorKind::Type,
                        format!("open() mode must be str, not '{}'", other.type_name()),
                    ))
                }
            };
            FileObj::open(interp, path, &mode)
        }),
        _ => return None,
    })
}

fn fold_extreme(interp: &mut Interp, args: &[Value], want_min: bool) -> Result<Value, PyError> {
    let items = if args.len() == 1 {
        interp.iter_values(&args[0], interp.call_line())?
    } else {
        args.to_vec()
    };
    let mut best: Option<Value> = None;
    for item in items {
        best = Some(match best {
            None => item,
            Some(current) => {
                let ord = interp.order_values(&item, &current, interp.call_line())?;
                let take = if want_min {
                    ord == std::cmp::Ordering::Less
                } else {
                    ord == std::cmp::Ordering::Greater
                };
                if take {
                    item
                } else {
                    current
                }
            }
        });
    }
    best.ok_or_else(|| {
        err(
            ErrorKind::Value,
            if want_min {
                "min() arg is an empty sequence"
            } else {
                "max() arg is an empty sequence"
            },
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Interp {
        let mut interp = Interp::new();
        interp.eval_module(src).unwrap();
        interp
    }

    fn g(i: &Interp, name: &str) -> Value {
        i.get_global(name).unwrap()
    }

    #[test]
    fn len_and_range() {
        let i = run("a = len([1, 2, 3])\nb = len('hello')\nc = len(range(10))\n");
        assert_eq!(g(&i, "a"), Value::Int(3));
        assert_eq!(g(&i, "b"), Value::Int(5));
        assert_eq!(g(&i, "c"), Value::Int(10));
    }

    #[test]
    fn min_max_sum() {
        let i =
            run("a = min([3, 1, 2])\nb = max(4, 7, 5)\nc = sum([1, 2, 3])\nd = sum([1.5, 2.5])\n");
        assert_eq!(g(&i, "a"), Value::Int(1));
        assert_eq!(g(&i, "b"), Value::Int(7));
        assert_eq!(g(&i, "c"), Value::Int(6));
        assert_eq!(g(&i, "d"), Value::Float(4.0));
    }

    /// Errors raised *inside* a builtin (here: `sum` folding a str into an
    /// int, and `len` of an int) must blame the call-site line, not line 0
    /// — under both execution engines.
    #[test]
    fn builtin_errors_report_the_call_site_line() {
        for mode in [crate::ExecMode::Ast, crate::ExecMode::Bytecode] {
            let mut i = Interp::new();
            i.set_exec_mode(mode);
            let e = i
                .eval_module("x = [1, 'nope']\ny = 2\ntotal = sum(x)\n")
                .unwrap_err();
            assert_eq!(e.kind, ErrorKind::Type);
            assert_eq!(e.innermost_line(), Some(3), "{mode}: {e}");

            let mut i = Interp::new();
            i.set_exec_mode(mode);
            let e = i.eval_module("z = 1\nn = len(5)\n").unwrap_err();
            assert_eq!(e.kind, ErrorKind::Type);
            assert_eq!(e.innermost_line(), Some(2), "{mode}: {e}");
        }
    }

    #[test]
    fn min_empty_errors() {
        let mut i = Interp::new();
        let e = i.eval_module("min([])\n").unwrap_err();
        assert_eq!(e.kind, ErrorKind::Value);
    }

    #[test]
    fn conversions() {
        let i = run("a = int('42')\nb = float('2.5')\nc = str(99)\nd = int(3.9)\ne = bool([])\nf = int(' 7 ')\n");
        assert_eq!(g(&i, "a"), Value::Int(42));
        assert_eq!(g(&i, "b"), Value::Float(2.5));
        assert_eq!(g(&i, "c"), Value::str("99"));
        assert_eq!(g(&i, "d"), Value::Int(3));
        assert_eq!(g(&i, "e"), Value::Bool(false));
        assert_eq!(g(&i, "f"), Value::Int(7));
    }

    #[test]
    fn int_of_garbage_is_value_error() {
        let mut i = Interp::new();
        let e = i.eval_module("int('abc')\n").unwrap_err();
        assert_eq!(e.kind, ErrorKind::Value);
    }

    #[test]
    fn enumerate_zip_map_filter() {
        let i = run("e = enumerate(['a', 'b'])\nz = zip([1, 2], ['x', 'y'])\nm = map(lambda v: v * 2, [1, 2])\nf = filter(lambda v: v > 1, [0, 1, 2, 3])\n");
        assert_eq!(
            g(&i, "e"),
            Value::list(vec![
                Value::tuple(vec![Value::Int(0), Value::str("a")]),
                Value::tuple(vec![Value::Int(1), Value::str("b")]),
            ])
        );
        assert_eq!(g(&i, "m"), Value::list(vec![Value::Int(2), Value::Int(4)]));
        let i2 = Interp::new();
        let _ = i2;
        assert_eq!(g(&i, "f"), Value::list(vec![Value::Int(2), Value::Int(3)]));
        assert_eq!(
            g(&i, "z"),
            Value::list(vec![
                Value::tuple(vec![Value::Int(1), Value::str("x")]),
                Value::tuple(vec![Value::Int(2), Value::str("y")]),
            ])
        );
    }

    #[test]
    fn sorted_with_reverse() {
        let i = run("s = sorted([3, 1, 2], reverse=True)\n");
        assert_eq!(
            g(&i, "s"),
            Value::list(vec![Value::Int(3), Value::Int(2), Value::Int(1)])
        );
    }

    #[test]
    fn sorted_incomparable_errors() {
        let mut i = Interp::new();
        let e = i.eval_module("sorted([1, 'a'])\n").unwrap_err();
        assert_eq!(e.kind, ErrorKind::Type);
    }

    #[test]
    fn any_all() {
        let i = run("a = any([0, 0, 1])\nb = all([1, 2, 0])\n");
        assert_eq!(g(&i, "a"), Value::Bool(true));
        assert_eq!(g(&i, "b"), Value::Bool(false));
    }

    #[test]
    fn round_behaviour() {
        let i = run("a = round(2.5)\nb = round(2.4)\nc = round(2.71828, 2)\n");
        assert_eq!(g(&i, "a"), Value::Int(3));
        assert_eq!(g(&i, "b"), Value::Int(2));
        assert_eq!(g(&i, "c"), Value::Float(2.72));
    }

    #[test]
    fn abs_on_array() {
        let mut i = Interp::new();
        i.set_global("a", Value::array(Array::Int(vec![-1, 2, -3])));
        i.eval_module("b = abs(a)\n").unwrap();
        assert_eq!(g(&i, "b"), Value::array(Array::Int(vec![1, 2, 3])));
    }

    #[test]
    fn abs_of_i64_min_errors_instead_of_panicking() {
        let mut i = Interp::new();
        let e = i
            .eval_module("b = abs(-9223372036854775807 - 1)\n")
            .unwrap_err();
        assert_eq!(e.kind, ErrorKind::Value);
        assert_eq!(e.message, "integer overflow in abs()");
        // The vectorized path overflows identically.
        i.set_global("a", Value::array(Array::Int(vec![1, i64::MIN])));
        let e = i.eval_module("b = abs(a)\n").unwrap_err();
        assert_eq!(e.message, "integer overflow in abs()");
    }

    #[test]
    fn len_beyond_i64_errors_on_both_engines() {
        for mode in [crate::ExecMode::Ast, crate::ExecMode::Bytecode] {
            let mut i = Interp::new();
            i.set_exec_mode(mode);
            let e = i
                .eval_module("n = len(range(-9223372036854775807, 9223372036854775807))\n")
                .unwrap_err();
            assert_eq!(e.kind, ErrorKind::Value, "{mode}: {e}");
            assert_eq!(e.message, "integer overflow in len()", "{mode}");
            // The longest range that fits still has its exact length.
            i.eval_module("m = len(range(-1, 9223372036854775806))\n")
                .unwrap();
            assert_eq!(g(&i, "m"), Value::Int(i64::MAX), "{mode}");
        }
    }

    #[test]
    fn sum_over_bool_array_counts_true() {
        let mut i = Interp::new();
        i.set_global("m", Value::array(Array::Bool(vec![true, false, true])));
        i.eval_module("c = sum(m)\n").unwrap();
        assert_eq!(g(&i, "c"), Value::Int(2));
    }

    #[test]
    fn type_and_repr() {
        let i = run("a = type(1)\nb = type('x')\nc = repr('hi')\n");
        assert_eq!(g(&i, "a"), Value::str("int"));
        assert_eq!(g(&i, "b"), Value::str("str"));
        assert_eq!(g(&i, "c"), Value::str("'hi'"));
    }
}
