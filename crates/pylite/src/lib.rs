//! `pylite` — a Python-subset interpreter with an interactive debugger.
//!
//! This crate stands in for CPython (plus `pdb`) in the devUDF reproduction.
//! MonetDB/Python UDFs are written in Python; the devUDF plugin's headline
//! feature is *interactive, line-level debugging* of those UDFs on the
//! developer's machine. `pylite` therefore implements:
//!
//! * an indentation-sensitive lexer, a recursive-descent parser and *two*
//!   execution engines for a practical Python subset — a bytecode VM
//!   ([`compile`] + [`vm`], the default) and a tree-walking reference
//!   interpreter kept as a differential-testing oracle, selected by
//!   [`ExecMode`] — every listing in the paper (Listings 1–5) runs
//!   unmodified on both,
//! * numpy-style **vectorized arrays** ([`value::Array`]) so UDFs receive
//!   whole columns, matching MonetDB's operator-at-a-time model,
//! * a **debugger** ([`debugger`]) with breakpoints, step-into/over/out,
//!   call-stack and variable inspection, driven through a trace-hook so an
//!   embedder (the IDE facade) can pause/resume execution interactively,
//! * **pickle** ([`pickle`]) — the binary value serialization used for the
//!   `input.bin` transfer file of paper Listing 2,
//! * a **virtual filesystem** ([`fs`]) so the paper's CSV-loading demo
//!   (Listing 5) is reproducible and sandboxed,
//! * native modules ([`native`]): `os`, `numpy`, `pickle`, `math`, `random`
//!   and `sklearn.ensemble` with a real miniature random-forest classifier
//!   (paper Listings 1 and 3).
//!
//! # Quick example
//!
//! ```
//! use pylite::{Interp, Value};
//!
//! let mut interp = Interp::new();
//! interp
//!     .eval_module("def double(x):\n    return x * 2\nresult = double(21)\n")
//!     .unwrap();
//! assert_eq!(interp.get_global("result").unwrap(), Value::Int(42));
//! ```

pub mod ast;
pub mod builtins;
pub mod compile;
pub mod debugger;
pub mod error;
pub mod fs;
pub mod interp;
pub mod kernel;
pub mod lexer;
pub mod methods;
pub mod native;
pub mod parser;
pub mod pickle;
pub mod value;
pub mod vm;

pub use compile::{compile_module, CodeObject};
pub use debugger::{DebugCommand, Debugger, PauseInfo};
pub use error::{ErrorKind, PyError, TraceEntry};
pub use fs::{FsProvider, MemFs};
pub use interp::{ExecMode, Interp};
pub use parser::parse_module;
pub use value::{Array, Value};
