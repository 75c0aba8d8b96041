//! Binary serialization of interpreter values — the `pickle` stand-in.
//!
//! The devUDF plugin ships UDF input data to the developer's machine as a
//! binary blob and the transformed code loads it with
//! `pickle.load(open('./input.bin','rb'))` (paper Listing 2). This module is
//! that format: a tagged, varint-framed encoding of every picklable
//! [`Value`], including native objects that opt in via
//! [`crate::value::NativeObject::pickle`].

use codecs::varint::{read_u64, write_u64};

use crate::error::{ErrorKind, PyError};
use crate::native;
use crate::value::{Array, Dict, Value};

const TAG_NONE: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_BYTES: u8 = 6;
const TAG_LIST: u8 = 7;
const TAG_TUPLE: u8 = 8;
const TAG_DICT: u8 = 9;
const TAG_ARRAY_INT: u8 = 10;
const TAG_ARRAY_FLOAT: u8 = 11;
const TAG_ARRAY_BOOL: u8 = 12;
const TAG_ARRAY_STR: u8 = 13;
const TAG_NATIVE: u8 = 14;

/// Magic prefix identifying a pickle stream (and its version).
const MAGIC: &[u8; 4] = b"PKL1";

fn perr(msg: impl Into<String>) -> PyError {
    PyError::new(ErrorKind::Value, msg)
}

/// Serialize a value to bytes. Errors on unpicklable values (functions,
/// modules, open files…).
pub fn dumps(value: &Value) -> Result<Vec<u8>, PyError> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(MAGIC);
    write_value(&mut out, value)?;
    Ok(out)
}

/// Deserialize bytes produced by [`dumps`].
pub fn loads(data: &[u8]) -> Result<Value, PyError> {
    if data.len() < 4 || &data[..4] != MAGIC {
        return Err(perr("not a pickle stream (bad magic)"));
    }
    let mut cursor = 4usize;
    let v = read_value(data, &mut cursor)?;
    if cursor != data.len() {
        return Err(perr(format!(
            "trailing garbage after pickle payload ({} bytes)",
            data.len() - cursor
        )));
    }
    Ok(v)
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn write_value(out: &mut Vec<u8>, value: &Value) -> Result<(), PyError> {
    match value {
        Value::None => out.push(TAG_NONE),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::Int(i) => {
            out.push(TAG_INT);
            write_u64(out, zigzag(*i));
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            write_u64(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            out.push(TAG_BYTES);
            write_u64(out, b.len() as u64);
            out.extend_from_slice(b);
        }
        Value::List(l) => {
            out.push(TAG_LIST);
            let items = l.borrow();
            write_u64(out, items.len() as u64);
            for item in items.iter() {
                write_value(out, item)?;
            }
        }
        Value::Tuple(t) => {
            out.push(TAG_TUPLE);
            write_u64(out, t.len() as u64);
            for item in t.iter() {
                write_value(out, item)?;
            }
        }
        Value::Dict(d) => {
            out.push(TAG_DICT);
            let d = d.borrow();
            write_u64(out, d.len() as u64);
            for (k, v) in d.entries() {
                write_value(out, k)?;
                write_value(out, v)?;
            }
        }
        Value::Array(a) => match a.as_ref() {
            Array::Int(v) => {
                out.push(TAG_ARRAY_INT);
                write_u64(out, v.len() as u64);
                for x in v {
                    write_u64(out, zigzag(*x));
                }
            }
            Array::Float(v) => {
                out.push(TAG_ARRAY_FLOAT);
                write_u64(out, v.len() as u64);
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            Array::Bool(v) => {
                out.push(TAG_ARRAY_BOOL);
                write_u64(out, v.len() as u64);
                // Bit-packed.
                let mut byte = 0u8;
                for (i, b) in v.iter().enumerate() {
                    if *b {
                        byte |= 1 << (i % 8);
                    }
                    if i % 8 == 7 {
                        out.push(byte);
                        byte = 0;
                    }
                }
                if v.len() % 8 != 0 {
                    out.push(byte);
                }
            }
            Array::Str(v) => {
                out.push(TAG_ARRAY_STR);
                write_u64(out, v.len() as u64);
                for s in v {
                    write_u64(out, s.len() as u64);
                    out.extend_from_slice(s.as_bytes());
                }
            }
        },
        Value::Native(n) => {
            let Some((type_name, payload)) = n.pickle() else {
                return Err(perr(format!("cannot pickle '{}' object", n.type_name())));
            };
            out.push(TAG_NATIVE);
            write_u64(out, type_name.len() as u64);
            out.extend_from_slice(type_name.as_bytes());
            write_u64(out, payload.len() as u64);
            out.extend_from_slice(&payload);
        }
        Value::Range { .. } | Value::Function(_) | Value::Builtin(_) | Value::Module(_) => {
            return Err(perr(format!(
                "cannot pickle '{}' object",
                value.type_name()
            )))
        }
    }
    Ok(())
}

fn take<'a>(data: &'a [u8], cursor: &mut usize, n: usize) -> Result<&'a [u8], PyError> {
    if *cursor + n > data.len() {
        return Err(perr("truncated pickle stream"));
    }
    let s = &data[*cursor..*cursor + n];
    *cursor += n;
    Ok(s)
}

fn read_varint(data: &[u8], cursor: &mut usize) -> Result<u64, PyError> {
    let (v, used) =
        read_u64(&data[*cursor..]).map_err(|e| perr(format!("bad varint in pickle: {e}")))?;
    *cursor += used;
    Ok(v)
}

fn read_len(data: &[u8], cursor: &mut usize) -> Result<usize, PyError> {
    let v = read_varint(data, cursor)?;
    usize::try_from(v).map_err(|_| perr("pickle length overflows usize"))
}

fn read_value(data: &[u8], cursor: &mut usize) -> Result<Value, PyError> {
    let tag = *take(data, cursor, 1)?.first().expect("take(1)");
    Ok(match tag {
        TAG_NONE => Value::None,
        TAG_FALSE => Value::Bool(false),
        TAG_TRUE => Value::Bool(true),
        TAG_INT => Value::Int(unzigzag(read_varint(data, cursor)?)),
        TAG_FLOAT => {
            let bytes = take(data, cursor, 8)?;
            Value::Float(f64::from_le_bytes(bytes.try_into().expect("8 bytes")))
        }
        TAG_STR => {
            let n = read_len(data, cursor)?;
            let bytes = take(data, cursor, n)?;
            Value::str(
                std::str::from_utf8(bytes).map_err(|_| perr("invalid UTF-8 in pickled string"))?,
            )
        }
        TAG_BYTES => {
            let n = read_len(data, cursor)?;
            Value::bytes(take(data, cursor, n)?.to_vec())
        }
        TAG_LIST => {
            let n = read_len(data, cursor)?;
            let mut items = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                items.push(read_value(data, cursor)?);
            }
            Value::list(items)
        }
        TAG_TUPLE => {
            let n = read_len(data, cursor)?;
            let mut items = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                items.push(read_value(data, cursor)?);
            }
            Value::tuple(items)
        }
        TAG_DICT => {
            let n = read_len(data, cursor)?;
            let mut d = Dict::new();
            for _ in 0..n {
                let k = read_value(data, cursor)?;
                let v = read_value(data, cursor)?;
                d.insert(k, v)?;
            }
            Value::dict(d)
        }
        TAG_ARRAY_INT => {
            let n = read_len(data, cursor)?;
            let mut v = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                v.push(unzigzag(read_varint(data, cursor)?));
            }
            Value::array(Array::Int(v))
        }
        TAG_ARRAY_FLOAT => {
            let n = read_len(data, cursor)?;
            let mut v = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                let bytes = take(data, cursor, 8)?;
                v.push(f64::from_le_bytes(bytes.try_into().expect("8 bytes")));
            }
            Value::array(Array::Float(v))
        }
        TAG_ARRAY_BOOL => {
            let n = read_len(data, cursor)?;
            let nbytes = n.div_ceil(8);
            let bytes = take(data, cursor, nbytes)?;
            let mut v = Vec::with_capacity(n);
            for i in 0..n {
                v.push(bytes[i / 8] & (1 << (i % 8)) != 0);
            }
            Value::array(Array::Bool(v))
        }
        TAG_ARRAY_STR => {
            let n = read_len(data, cursor)?;
            let mut v = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let len = read_len(data, cursor)?;
                let bytes = take(data, cursor, len)?;
                v.push(
                    std::str::from_utf8(bytes)
                        .map_err(|_| perr("invalid UTF-8 in pickled string array"))?
                        .to_string(),
                );
            }
            Value::array(Array::Str(v))
        }
        TAG_NATIVE => {
            let name_len = read_len(data, cursor)?;
            let name_bytes = take(data, cursor, name_len)?;
            let type_name = std::str::from_utf8(name_bytes)
                .map_err(|_| perr("invalid UTF-8 in native type name"))?
                .to_string();
            let payload_len = read_len(data, cursor)?;
            let payload = take(data, cursor, payload_len)?.to_vec();
            native::unpickle_native(&type_name, &payload)?
        }
        other => return Err(perr(format!("unknown pickle tag {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) -> Value {
        loads(&dumps(v).unwrap()).unwrap()
    }

    #[test]
    fn scalars() {
        for v in [
            Value::None,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(-1),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::Float(3.25),
            Value::Float(-0.0),
            Value::Float(f64::INFINITY),
            Value::str(""),
            Value::str("héllo"),
            Value::bytes(vec![0, 255, 3]),
        ] {
            assert!(round_trip(&v).py_eq(&v), "{v:?}");
        }
    }

    #[test]
    fn nan_round_trips() {
        let v = round_trip(&Value::Float(f64::NAN));
        match v {
            Value::Float(f) => assert!(f.is_nan()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn containers() {
        let mut d = Dict::new();
        d.insert(Value::str("clf"), Value::bytes(vec![1, 2, 3]))
            .unwrap();
        d.insert(Value::str("estimators"), Value::Int(10)).unwrap();
        let v = Value::list(vec![
            Value::Int(1),
            Value::tuple(vec![Value::str("a"), Value::Float(2.5)]),
            Value::dict(d),
            Value::list(vec![]),
        ]);
        assert!(round_trip(&v).py_eq(&v));
    }

    #[test]
    fn arrays() {
        for a in [
            Array::Int(vec![1, -2, 3]),
            Array::Float(vec![0.5, -1.5]),
            Array::Bool(vec![
                true, false, true, true, false, false, true, true, true,
            ]),
            Array::Str(vec!["x".into(), "".into(), "yz".into()]),
            Array::Int(vec![]),
        ] {
            let v = Value::array(a);
            assert!(round_trip(&v).py_eq(&v), "{v:?}");
        }
    }

    #[test]
    fn dict_preserves_insertion_order() {
        let mut d = Dict::new();
        for key in ["z", "a", "m"] {
            d.insert(Value::str(key), Value::Int(1)).unwrap();
        }
        let v = round_trip(&Value::dict(d));
        let Value::Dict(d2) = v else { panic!() };
        let keys: Vec<String> = d2.borrow().keys().iter().map(|k| k.py_str()).collect();
        assert_eq!(keys, vec!["z", "a", "m"]);
    }

    #[test]
    fn unpicklable_values_error() {
        let mut interp = crate::interp::Interp::new();
        interp.eval_module("def f():\n    pass\n").unwrap();
        let f = interp.get_global("f").unwrap();
        assert!(dumps(&f).is_err());
        assert!(dumps(&Value::Range {
            start: 0,
            stop: 3,
            step: 1
        })
        .is_err());
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        assert!(loads(b"").is_err());
        assert!(loads(b"NOPE").is_err());
        let mut good = dumps(&Value::str("hello")).unwrap();
        good.truncate(good.len() - 2);
        assert!(loads(&good).is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut good = dumps(&Value::Int(1)).unwrap();
        good.push(0);
        assert!(loads(&good).is_err());
    }

    #[test]
    fn interpreted_code_can_pickle_and_unpickle() {
        let mut interp = crate::interp::Interp::new();
        interp
            .eval_module(
                "import pickle\nblob = pickle.dumps({'a': [1, 2], 'b': 'text'})\nback = pickle.loads(blob)\nok = back['a'][1] == 2 and back['b'] == 'text'\n",
            )
            .unwrap();
        assert_eq!(interp.get_global("ok"), Some(Value::Bool(true)));
    }
}
