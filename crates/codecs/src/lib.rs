//! From-scratch byte-level primitives used across the devUDF reproduction.
//!
//! The devUDF paper (EDBT 2019, §2.1) offers three transfer options for the
//! UDF input data that is shipped from the database server to the developer's
//! machine: *compression*, *encryption* keyed on the database user's password,
//! and *uniform random sampling*. The paper does not name concrete algorithms,
//! so this crate provides real, tested implementations of the closest
//! well-known equivalents:
//!
//! * [`lz`] — an LZ77-family compressor with a hash-chain matcher and a
//!   varint-coded token stream,
//! * [`chacha20`] — the RFC 8439 ChaCha20 stream cipher,
//! * [`sha256`](mod@sha256) — FIPS 180-4 SHA-256, used for password→key derivation
//!   ([`kdf`]) and as the content address of `minivcs` objects,
//! * [`varint`] — LEB128-style variable-length integers and the bounded
//!   byte reader shared by the wire protocol, the storage snapshot format
//!   and the compressor,
//! * [`fnv`] — FNV-1a hashing for cheap non-cryptographic fingerprints,
//! * [`hex`] — hexadecimal encoding for object ids and test vectors,
//! * [`json`] — a hand-rolled JSON codec used for IDE settings, `minivcs`
//!   metadata and the bench runner's `BENCH_*.json` artifacts.
//!
//! None of the implementations depend on external crates; each module carries
//! its published test vectors.

pub mod chacha20;
pub mod fnv;
pub mod hex;
pub mod json;
pub mod kdf;
pub mod lz;
pub mod sha256;
pub mod varint;

pub use chacha20::ChaCha20;
pub use fnv::{fnv1a_32, fnv1a_64};
pub use hex::{from_hex, to_hex};
pub use kdf::derive_key;
pub use lz::{compress, decompress, CompressError};
pub use sha256::{sha256, Sha256};
pub use varint::{read_u64, write_u64, VarintError};
