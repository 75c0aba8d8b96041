//! `wireproto` — the client/server protocol of the devUDF reproduction.
//!
//! Stands in for the JDBC/MAPI connection the paper's plugin uses (§2.2):
//! a length-framed binary protocol carrying queries, result tables, UDF
//! management calls and — the interesting part — **input-data extraction**
//! with the paper's three transfer options (§2.1):
//!
//! * **compression** ([`codecs::lz`]) — "leading to faster transfer times",
//! * **encryption** ([`codecs::chacha20`]) keyed on the database user's
//!   password, so sensitive data can leave the server safely,
//! * **uniform random sampling** — debug on a subset "to alleviate the data
//!   transfer overhead".
//!
//! Repeated extracts — the paper's iterative debug loop — skip unchanged
//! data entirely: a content-addressed block cache ([`delta`]) plus
//! per-table epochs power an `ExtractDelta` round-trip that answers
//! `NotModified` or ships only changed blocks (DESIGN §12).
//!
//! # Architecture
//!
//! The engine ([`monetlite::Engine`]) is deliberately single-threaded; the
//! [`server::Server`] owns it on a dedicated thread and serializes all
//! sessions through a request channel. Clients talk over an in-process
//! channel transport (tests, benchmarks) or TCP ([`transport`]).
//!
//! # Robustness
//!
//! Every blocking wait on the wire is bounded: TCP transports carry
//! read/write deadlines, the server enforces a per-session mid-frame
//! deadline, and frames are checksummed end-to-end. On top of that the
//! client applies a [`RetryPolicy`] ([`retry`]) — reconnect, reauth,
//! exponential backoff with deterministic jitter — to idempotent calls,
//! and the whole failure surface is testable without a real flaky
//! network via the seeded [`FaultInjectingTransport`] ([`fault`]).
//!
//! ```
//! use wireproto::{server::Server, client::Client, ServerConfig};
//!
//! let server = Server::start(ServerConfig::new("demo", "monetdb", "monetdb"), |db| {
//!     db.execute("CREATE TABLE t (i INTEGER)").unwrap();
//!     db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
//! });
//! let mut client = Client::connect_in_proc(&server, "monetdb", "monetdb", "demo").unwrap();
//! let table = client.query("SELECT sum(i) FROM t").unwrap().into_table().unwrap();
//! assert_eq!(table.rows[0][0], wireproto::message::WireValue::Int(6));
//! server.shutdown();
//! ```

pub mod client;
pub mod delta;
pub mod embedded;
pub mod fault;
pub mod message;
pub mod retry;
pub mod server;
pub mod transfer;
pub mod transport;

pub use client::{Client, ClientOptions};
pub use embedded::{Embedded, EngineTransport};
pub use fault::{FaultInjectingTransport, FaultPolicy, FaultStats};
pub use message::{Message, WireError, WireTable, WireValue};
pub use retry::RetryPolicy;
pub use server::{Server, ServerConfig};
pub use transfer::{TransferOptions, TransferStats, DEFAULT_BLOCK_SIZE};
