//! Transfer options and the extract-payload pipeline (paper §2.1).
//!
//! Order of operations on the server: **sample → pickle → compress →
//! encrypt**; the client reverses encryption and compression and keeps the
//! pickle as it arrived — it is loaded only where it is used (the local
//! script's `pickle.load` of `input.bin`, or a nested local run).
//! Sampling happens *before* serialization (fewer bytes ever exist);
//! compression runs before encryption (ciphertext does not compress).
//!
//! # Chunked container (v1)
//!
//! When compression and/or encryption is on, the post-sampling pickle is
//! split into fixed-size blocks (default [`DEFAULT_BLOCK_SIZE`], set via
//! [`TransferOptions::block_size`]) and each block runs through the codec
//! **independently**, so both ends can spread the work across a
//! [`devharness::Pool`]. The frame layout (full diagram in DESIGN §11):
//!
//! ```text
//! container := magic "DUC1" | version u8 (=1) | flags u8
//!              varint(block_size) varint(raw_total) varint(nblocks)
//!              nblocks × ( enc u8 | varint(raw_len) | varint(wire_len) )
//!              nblocks × body
//! body      := encrypt( codec_bytes | fnv1a_32(codec_bytes) )
//! ```
//!
//! Per block: LZ-compress (with a **stored** fallback when the block is
//! incompressible), append a 4-byte FNV-1a integrity tag, then ChaCha20
//! with a per-block nonce derived from (transfer id, block index) so no
//! keystream is ever reused across blocks. The header stays plaintext —
//! the client needs the framing *before* decrypting to fan blocks out
//! across its own pool. The tag detects **accidental corruption and
//! wrong passwords only**: ChaCha20 is malleable and FNV is not keyed,
//! so this is a checksum, not a MAC, and the plaintext header is not
//! authenticated at all — consistent with the paper's threat model
//! (protect data in transit with the user's password), not with an
//! active in-path adversary. Crucially the bytes on the wire depend only on
//! the input and the options, never on the pool width: [`Pool::map`]
//! preserves item order and the LZ scratch reuse is output-invisible, so
//! one thread and eight threads produce identical payloads (CI asserts
//! this with pinned `DEVUDF_POOL_THREADS`).
//!
//! Plain transfers (no compress, no encrypt) carry the raw pickle with
//! zero framing overhead. Every compressed or encrypted payload is a v1
//! container; [`decode_payload`] rejects anything else as a malformed
//! container.
//!
//! # Content-addressed delta layer
//!
//! On top of the container, the extract path supports **block-level delta
//! transfer** (DESIGN §12): both ends address the *plaintext* pickle
//! blocks by their SHA-256 digest ([`codecs::sha256::block_digests`]), the client
//! caches raw blocks under those digests ([`crate::delta`]), and the
//! server ships only the blocks whose digest the client does not already
//! hold ([`encode_delta_blocks`] / [`reconstruct_delta`]) — or, when
//! every dependency epoch still matches, no payload at all. Digests are
//! computed over the pickle *before* compression and encryption:
//! ciphertext changes with every transfer id (fresh per-block nonces),
//! while the plaintext only changes when the data does. A delta-shipped
//! block's coded body is bit-identical to the body the full container
//! would carry for that block, because both run through the same
//! per-block codec with the same (transfer id, block index) nonce.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

use codecs::varint::{write_u64, Reader};
use codecs::{chacha20, derive_key, kdf, lz};
use devharness::pool::{self, Pool};
use pylite::value::Dict;
use pylite::{pickle, Array, Value};

/// Default chunk size of the v1 container: 256 KiB. Large enough that the
/// per-block header + tag overhead is negligible (< 0.01 %) and the LZ
/// window mostly stays useful, small enough that a 1 MiB payload already
/// spreads across 4 cores.
pub const DEFAULT_BLOCK_SIZE: usize = 256 * 1024;

/// Options selected in the devUDF settings dialog (paper Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferOptions {
    /// Compress the payload with the LZ codec.
    pub compress: bool,
    /// Encrypt the payload with ChaCha20 keyed on the user's password.
    pub encrypt: bool,
    /// Transfer only a uniform random sample of this many rows.
    pub sample: Option<usize>,
    /// Chunk size of the v1 container (bytes). `0` means the default;
    /// only meaningful when compression or encryption is on.
    pub block_size: usize,
}

impl Default for TransferOptions {
    fn default() -> Self {
        TransferOptions {
            compress: false,
            encrypt: false,
            sample: None,
            block_size: DEFAULT_BLOCK_SIZE,
        }
    }
}

impl TransferOptions {
    pub fn plain() -> Self {
        TransferOptions::default()
    }

    pub fn compressed() -> Self {
        TransferOptions {
            compress: true,
            ..Default::default()
        }
    }

    pub fn encrypted() -> Self {
        TransferOptions {
            encrypt: true,
            ..Default::default()
        }
    }

    pub fn sampled(rows: usize) -> Self {
        TransferOptions {
            sample: Some(rows),
            ..Default::default()
        }
    }

    /// Builder-style block-size override.
    pub fn with_block_size(mut self, block_size: usize) -> Self {
        self.block_size = block_size;
        self
    }

    /// The block size actually used: `0` falls back to the default.
    pub fn effective_block_size(&self) -> usize {
        if self.block_size == 0 {
            DEFAULT_BLOCK_SIZE
        } else {
            self.block_size
        }
    }
}

/// Measured outcome of one transfer (reported by benchmarks and the CLI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferStats {
    /// Pickle size before compression/encryption (after sampling).
    pub raw_len: usize,
    /// Bytes that actually crossed the wire.
    pub wire_len: usize,
}

impl TransferStats {
    /// Compression ratio (wire/raw); 1.0 when no compression. Zero-row
    /// extracts produce an empty pickle, so `raw_len == 0` must not
    /// divide — an empty transfer is reported as ratio 1.0.
    pub fn ratio(&self) -> f64 {
        if self.raw_len == 0 {
            1.0
        } else {
            self.wire_len as f64 / self.raw_len as f64
        }
    }
}

/// Error from the transfer pipeline.
///
/// Block-level variants carry the failing block index so a corrupted or
/// wrong-password payload fails **loudly and precisely** instead of
/// surfacing as garbage rows three layers later.
#[derive(Debug, Clone, PartialEq)]
pub enum TransferError {
    /// The inputs value was not usable (not a dict, misaligned arrays…).
    Input(String),
    /// Pickle serialization failed.
    Pickle(String),
    /// The chunked container's framing was malformed or inconsistent.
    Container(String),
    /// A block's integrity tag did not match after (optional) decryption.
    BlockIntegrity { block: usize, encrypted: bool },
    /// A block failed to decompress / had the wrong stored size.
    BlockCodec { block: usize, detail: String },
}

impl std::fmt::Display for TransferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransferError::Input(msg) => write!(f, "transfer error: {msg}"),
            TransferError::Pickle(msg) => write!(f, "transfer error: {msg}"),
            TransferError::Container(msg) => {
                write!(f, "transfer error: malformed container: {msg}")
            }
            TransferError::BlockIntegrity { block, encrypted } => {
                if *encrypted {
                    write!(
                        f,
                        "transfer error: block {block} integrity check failed after \
                         decryption (wrong password?)"
                    )
                } else {
                    write!(
                        f,
                        "transfer error: block {block} integrity check failed \
                         (corrupted payload)"
                    )
                }
            }
            TransferError::BlockCodec { block, detail } => {
                write!(
                    f,
                    "transfer error: block {block} failed to decode: {detail}"
                )
            }
        }
    }
}

impl std::error::Error for TransferError {}

/// Salt domain-separating transfer-encryption keys from other password uses.
const TRANSFER_SALT: &[u8] = b"devudf-transfer-v1";

/// Bytes of plaintext checksum carried inside each (possibly encrypted)
/// body. A corruption/wrong-password detector, **not** a MAC: under the
/// malleable stream cipher a deliberate forgery sticks with probability
/// 2⁻³², which deters nobody — see the module docs.
const INTEGRITY_TAG_LEN: usize = 4;

/// v1 container magic.
const CONTAINER_MAGIC: [u8; 4] = *b"DUC1";
/// v1 container version byte.
const CONTAINER_VERSION: u8 = 1;

/// Container flag: blocks went through the LZ codec (stored fallback aside).
const FLAG_COMPRESS: u8 = 1;
/// Container flag: bodies are ChaCha20-encrypted.
const FLAG_ENCRYPT: u8 = 2;

/// Per-block encoding byte: raw bytes (incompressible fallback / no codec).
const BLOCK_STORED: u8 = 0;
/// Per-block encoding byte: LZ token stream.
const BLOCK_LZ: u8 = 1;

/// Most-recently-used KDF cache entries kept per process.
const KDF_CACHE_CAP: usize = 8;

/// Derive (or fetch) the ChaCha20 transfer key for `password`.
///
/// The KDF runs 1024 SHA-256 iterations by design — deliberately slow —
/// but a debug session re-extracts with the same password dozens of
/// times, so the stretched key is cached process-wide (small MRU list,
/// capped at [`KDF_CACHE_CAP`] entries). The key depends only on
/// (password, constant salt); transfer ids enter through nonces instead.
fn transfer_key(password: &str) -> [u8; 32] {
    static CACHE: Mutex<Vec<(String, [u8; 32])>> = Mutex::new(Vec::new());
    {
        let mut cache = CACHE.lock().expect("kdf cache poisoned");
        if let Some(i) = cache.iter().position(|(p, _)| p == password) {
            let hit = cache.remove(i);
            let key = hit.1;
            cache.insert(0, hit);
            obs::counter!("transfer.kdf.cache_hits").inc();
            return key;
        }
    }
    // Derive outside the lock: 1024 SHA-256 rounds must not serialize
    // unrelated transfers behind the cache mutex.
    let key = derive_key(password, TRANSFER_SALT);
    let mut cache = CACHE.lock().expect("kdf cache poisoned");
    if !cache.iter().any(|(p, _)| p == password) {
        cache.insert(0, (password.to_string(), key));
        cache.truncate(KDF_CACHE_CAP);
    }
    obs::counter!("transfer.kdf.cache_misses").inc();
    key
}

/// Mix the session-level sampling seed with the per-transfer id so every
/// extract in a session draws a fresh (but reproducible) sample. A full
/// splitmix64 step gives avalanche; a plain XOR would only flip low bits
/// for small consecutive transfer ids.
fn mix_seed(seed: u64, transfer_id: u64) -> u64 {
    let mut state = seed ^ transfer_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    devharness::rng::splitmix64(&mut state)
}

/// Derive the per-session sampling seed the server threads into
/// [`encode_payload`]: mixes the engine's base seed with the wire session
/// id, so two debug sessions against the same server sample different
/// rows while any single (engine seed, session, transfer) triple stays
/// fully reproducible.
pub fn derive_sample_seed(engine_seed: u64, session: u64) -> u64 {
    let mut state = engine_seed.wrapping_add(session.wrapping_mul(0xA24B_AED4_963E_E407));
    devharness::rng::splitmix64(&mut state)
}

/// Apply uniform random sampling to an extracted inputs dict: every array
/// value is sampled at the *same* row indices (rows stay aligned across
/// parameters); scalars pass through. `seed` makes the sample reproducible.
pub fn sample_inputs(inputs: &Value, k: usize, seed: u64) -> Result<Value, TransferError> {
    let Value::Dict(d) = inputs else {
        return Err(TransferError::Input("inputs must be a dict".into()));
    };
    let d = d.borrow();
    // Find the common array length.
    let mut n: Option<usize> = None;
    for (_, v) in d.entries() {
        if let Value::Array(a) = v {
            match n {
                None => n = Some(a.len()),
                Some(existing) if existing != a.len() => {
                    return Err(TransferError::Input(format!(
                        "input arrays have differing lengths ({existing} vs {})",
                        a.len()
                    )))
                }
                _ => {}
            }
        }
    }
    let Some(n) = n else {
        // No arrays at all: sampling is a no-op.
        return Ok(inputs.clone());
    };
    if k >= n {
        return Ok(inputs.clone());
    }
    // Partial Fisher–Yates over row indices, sorted to preserve order
    // (devharness::Rng::sample_indices does exactly this).
    let picked = devharness::Rng::new(seed).sample_indices(n, k);

    let mut out = Dict::new();
    for (key, v) in d.entries() {
        let sampled = match v {
            Value::Array(a) => {
                let vals: Vec<Value> = picked.iter().map(|&i| a.get(i)).collect();
                Value::array(
                    Array::from_values(&vals)
                        .map_err(|e| TransferError::Input(format!("sampling failed: {e}")))?,
                )
            }
            other => other.clone(),
        };
        out.insert(key.clone(), sampled)
            .map_err(|e| TransferError::Input(e.to_string()))?;
    }
    Ok(Value::dict(out))
}

/// Code one plaintext block exactly as the v1 container does: optional LZ
/// (with the stored fallback), a 4-byte FNV-1a tag, then optional ChaCha20
/// under the per-block nonce for (`transfer_id`, `index`). Shared by the
/// full container writer and the delta path, so a delta-shipped block is
/// bit-identical to its container counterpart.
fn encode_block_body(
    raw: &[u8],
    compress: bool,
    key: Option<&[u8; 32]>,
    transfer_id: u64,
    index: usize,
) -> (u8, Vec<u8>) {
    let start = Instant::now();
    let (enc, mut body) = if compress {
        let packed = lz::compress(raw);
        if packed.len() < raw.len() {
            (BLOCK_LZ, packed)
        } else {
            // Incompressible block: store raw rather than expand.
            (BLOCK_STORED, raw.to_vec())
        }
    } else {
        (BLOCK_STORED, raw.to_vec())
    };
    let tag = codecs::fnv1a_32(&body);
    body.extend_from_slice(&tag.to_le_bytes());
    if let Some(key) = key {
        let nonce = kdf::derive_block_nonce(transfer_id, index as u64);
        chacha20::ChaCha20::new(key, &nonce, 1).apply(&mut body);
    }
    obs::histogram!("transfer.block.encode_ns").record_duration(start.elapsed());
    (enc, body)
}

/// Raw length of block `index` in the grid that splits `raw_total` bytes
/// into `block_size` blocks (every block is full but the last).
pub fn block_raw_len(raw_total: usize, block_size: usize, index: usize) -> usize {
    (raw_total - index * block_size).min(block_size)
}

/// Check one coded block against the grid before anything is allocated
/// for it: a known encoding (LZ only when `compressed`), a body longer
/// than the integrity tag, and a length that can hold `raw_len` bytes —
/// exactly raw + tag for a stored block, at least the LZ codec's minimum
/// stream for an LZ one. `body_len` is untrusted wire data.
fn check_block(
    index: usize,
    enc: u8,
    body_len: usize,
    raw_len: usize,
    compressed: bool,
) -> Result<(), TransferError> {
    if enc > BLOCK_LZ {
        return Err(container_err(format!(
            "block {index}: unknown encoding {enc}"
        )));
    }
    if enc == BLOCK_LZ && !compressed {
        return Err(container_err(format!(
            "block {index}: LZ encoding without compression"
        )));
    }
    if body_len <= INTEGRITY_TAG_LEN {
        return Err(container_err(format!(
            "block {index}: wire length {body_len} too short for integrity tag"
        )));
    }
    let codec_len = body_len - INTEGRITY_TAG_LEN;
    if enc == BLOCK_STORED && codec_len != raw_len {
        return Err(container_err(format!(
            "block {index}: stored wire length {body_len} does not match \
             raw length {raw_len} plus tag"
        )));
    }
    if enc == BLOCK_LZ && codec_len < lz::min_stream_len(raw_len) {
        return Err(container_err(format!(
            "block {index}: raw length {raw_len} impossible for a \
             {codec_len}-byte LZ stream"
        )));
    }
    Ok(())
}

/// Reverse [`encode_block_body`] into `target`, whose length is the
/// block's raw length. The block passed [`check_block`]; the body is
/// borrowed and copied only to decrypt it.
fn decode_block_body(
    block: usize,
    enc: u8,
    body: &[u8],
    key: Option<&[u8; 32]>,
    transfer_id: u64,
    target: &mut [u8],
) -> Result<(), TransferError> {
    let start = Instant::now();
    let decrypted;
    let plain = match key {
        Some(key) => {
            let nonce = kdf::derive_block_nonce(transfer_id, block as u64);
            decrypted = chacha20::ChaCha20::new(key, &nonce, 1).process(body);
            &decrypted[..]
        }
        None => body,
    };
    let (codec_bytes, tag) = plain.split_at(plain.len() - INTEGRITY_TAG_LEN);
    if codecs::fnv1a_32(codec_bytes).to_le_bytes() != tag {
        return Err(TransferError::BlockIntegrity {
            block,
            encrypted: key.is_some(),
        });
    }
    let res = match enc {
        BLOCK_STORED => {
            target.copy_from_slice(codec_bytes);
            Ok(())
        }
        _ => lz::decompress_into(codec_bytes, target).map_err(|e| TransferError::BlockCodec {
            block,
            detail: e.to_string(),
        }),
    };
    obs::histogram!("transfer.block.decode_ns").record_duration(start.elapsed());
    res
}

/// Where one block of a grid being rebuilt comes from.
enum BlockSource<'a> {
    /// A coded body off the wire (checked by [`check_block`]).
    Coded { enc: u8, body: &'a [u8] },
    /// Raw bytes already held (the delta cache), of the grid's length.
    Raw(&'a [u8]),
}

/// Rebuild a `raw_total`-byte payload from one [`BlockSource`] per grid
/// block, decoding the coded ones across `pool` into disjoint slices of
/// one output allocation. With a digest table every decoded block must
/// hash to its entry. The first failing block in grid order (not
/// completion order) is the error, so it is deterministic.
fn decode_grid(
    pool: &Pool,
    raw_total: usize,
    block_size: usize,
    sources: Vec<BlockSource<'_>>,
    key: Option<[u8; 32]>,
    transfer_id: u64,
    digests: Option<&[[u8; 32]]>,
) -> Result<Vec<u8>, TransferError> {
    let mut out = vec![0u8; raw_total];
    let mut jobs = Vec::with_capacity(sources.len());
    for ((index, target), source) in out.chunks_mut(block_size).enumerate().zip(sources) {
        match source {
            BlockSource::Coded { enc, body } => jobs.push((index, enc, body, target)),
            BlockSource::Raw(raw) => target.copy_from_slice(raw),
        }
    }
    let results: Vec<Result<(), TransferError>> =
        pool.map(jobs, |_, (index, enc, body, target)| {
            decode_block_body(index, enc, body, key.as_ref(), transfer_id, target)?;
            if digests.is_some_and(|d| codecs::sha256::sha256(target) != d[index]) {
                return Err(TransferError::BlockCodec {
                    block: index,
                    detail: "content digest mismatch after decode".into(),
                });
            }
            Ok(())
        });
    for result in results {
        result?;
    }
    Ok(out)
}

/// Pack raw bytes into the v1 chunked container, running the per-block
/// codec across `pool` (through [`encode_delta_blocks`], so a container
/// body and a delta body for the same block are one computation). Output
/// bytes are independent of the pool width.
pub fn encode_blocks(
    pool: &Pool,
    data: &[u8],
    options: &TransferOptions,
    password: &str,
    transfer_id: u64,
) -> Vec<u8> {
    let block_size = options.effective_block_size();
    let blocks = encode_delta_blocks(pool, data, options, password, transfer_id, &[]);
    obs::histogram!("transfer.blocks_per_payload").record(blocks.len() as u64);

    let wire_total: usize = blocks.iter().map(|b| b.body.len()).sum();
    let mut out = Vec::with_capacity(wire_total + 16 + blocks.len() * 8);
    out.extend_from_slice(&CONTAINER_MAGIC);
    out.push(CONTAINER_VERSION);
    let mut flags = 0u8;
    if options.compress {
        flags |= FLAG_COMPRESS;
    }
    if options.encrypt {
        flags |= FLAG_ENCRYPT;
    }
    out.push(flags);
    write_u64(&mut out, block_size as u64);
    write_u64(&mut out, data.len() as u64);
    write_u64(&mut out, blocks.len() as u64);
    for (i, b) in blocks.iter().enumerate() {
        out.push(b.enc);
        write_u64(&mut out, block_raw_len(data.len(), block_size, i) as u64);
        write_u64(&mut out, b.body.len() as u64);
    }
    for b in &blocks {
        out.extend_from_slice(&b.body);
    }
    out
}

fn container_err(msg: impl Into<String>) -> TransferError {
    TransferError::Container(msg.into())
}

fn read_usize(r: &mut Reader<'_>, what: &str) -> Result<usize, TransferError> {
    let v = r
        .varint()
        .map_err(|e| container_err(format!("bad {what} varint: {e:?}")))?;
    usize::try_from(v).map_err(|_| container_err(format!("{what} out of range")))
}

/// Unpack a v1 chunked container produced by [`encode_blocks`], decoding
/// blocks across `pool` into disjoint slices of one output allocation.
pub fn decode_blocks(
    pool: &Pool,
    payload: &[u8],
    options: &TransferOptions,
    password: &str,
    transfer_id: u64,
) -> Result<Vec<u8>, TransferError> {
    if payload.len() < 6 {
        return Err(container_err("payload shorter than fixed header"));
    }
    if payload[..4] != CONTAINER_MAGIC {
        return Err(container_err("bad magic"));
    }
    if payload[4] != CONTAINER_VERSION {
        return Err(container_err(format!(
            "unsupported container version {}",
            payload[4]
        )));
    }
    let flags = payload[5];
    if flags & !(FLAG_COMPRESS | FLAG_ENCRYPT) != 0 {
        return Err(container_err(format!("unknown flag bits {flags:#04x}")));
    }
    let compressed = flags & FLAG_COMPRESS != 0;
    let encrypted = flags & FLAG_ENCRYPT != 0;
    // The container is self-describing, but it must agree with the
    // negotiated options — a mismatch means the frame was corrupted or
    // the peers disagree about the session.
    if compressed != options.compress || encrypted != options.encrypt {
        return Err(container_err(format!(
            "container flags (compress={compressed}, encrypt={encrypted}) disagree \
             with negotiated options (compress={}, encrypt={})",
            options.compress, options.encrypt
        )));
    }

    let mut r = Reader::new(&payload[6..]);
    let block_size = read_usize(&mut r, "block size")?;
    let raw_total = read_usize(&mut r, "raw length")?;
    let nblocks = read_usize(&mut r, "block count")?;
    if block_size == 0 {
        return Err(container_err("zero block size"));
    }
    if nblocks != raw_total.div_ceil(block_size) {
        return Err(container_err(format!(
            "block count {nblocks} inconsistent with raw length {raw_total} \
             and block size {block_size}"
        )));
    }
    // Never size an allocation from a declared count alone: each block
    // table entry occupies at least 3 bytes (encoding byte + two
    // varints), so a count the remaining payload cannot possibly hold is
    // rejected before the table is reserved.
    if nblocks > r.remaining() / 3 {
        return Err(container_err(format!(
            "block count {nblocks} exceeds what {} remaining bytes can hold",
            r.remaining()
        )));
    }

    // Every declared length is hostile: each block must fit the grid and
    // its body must be physically plausible for its raw length, and the
    // bodies must fill the rest of the payload exactly, before the output
    // buffer is sized from `raw_total`.
    let mut table = Vec::with_capacity(nblocks);
    for i in 0..nblocks {
        let enc = r
            .byte()
            .map_err(|_| container_err("truncated block table"))?;
        let raw_len = read_usize(&mut r, "block raw length")?;
        let wire_len = read_usize(&mut r, "block wire length")?;
        let expected_raw = block_raw_len(raw_total, block_size, i);
        if raw_len != expected_raw {
            return Err(container_err(format!(
                "block {i}: raw length {raw_len}, expected {expected_raw}"
            )));
        }
        check_block(i, enc, wire_len, raw_len, compressed)?;
        table.push((enc, wire_len));
    }
    let sources = table
        .into_iter()
        .map(|(enc, wire_len)| {
            let body = r
                .take(wire_len)
                .map_err(|_| container_err("block bodies truncated"))?;
            Ok(BlockSource::Coded { enc, body })
        })
        .collect::<Result<Vec<_>, TransferError>>()?;
    if !r.is_done() {
        return Err(container_err(format!(
            "{} bytes after the last block body",
            r.remaining()
        )));
    }
    let key = encrypted.then(|| transfer_key(password));
    decode_grid(pool, raw_total, block_size, sources, key, transfer_id, None)
}

/// One shipped block of a delta reply: the block's position in the fresh
/// payload's block grid, its per-block encoding byte (0 = stored, 1 = LZ
/// — the container's alphabet), and a coded body bit-identical to what
/// the v1 container would carry for that block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaBlock {
    /// Index of the block in the fresh payload's block grid.
    pub index: u64,
    /// Per-block encoding byte (0 = stored, 1 = LZ).
    pub enc: u8,
    /// Coded body: optional-ChaCha20(codec bytes ‖ FNV-1a tag).
    pub body: Vec<u8>,
}

/// Server side of a delta reply: run the per-block codec only over the
/// blocks flagged in `ship` (indexes past `ship`'s end are shipped). Each
/// block keeps its **original** grid index in the nonce derivation, so a
/// shipped body is bit-identical to the same block in a full container.
pub fn encode_delta_blocks(
    pool: &Pool,
    data: &[u8],
    options: &TransferOptions,
    password: &str,
    transfer_id: u64,
    ship: &[bool],
) -> Vec<DeltaBlock> {
    let block_size = options.effective_block_size();
    let key = options.encrypt.then(|| transfer_key(password));
    let compress = options.compress;
    let jobs: Vec<(usize, &[u8])> = data
        .chunks(block_size)
        .enumerate()
        .filter(|(i, _)| ship.get(*i).copied().unwrap_or(true))
        .collect();
    pool.map(jobs, |_, (index, raw)| {
        let (enc, body) = encode_block_body(raw, compress, key.as_ref(), transfer_id, index);
        DeltaBlock {
            index: index as u64,
            enc,
            body,
        }
    })
}

/// Client side of a delta reply: rebuild the fresh raw payload of
/// `raw_total` bytes from the shipped blocks plus cached raw blocks
/// looked up by digest.
///
/// Every input except `cached` is untrusted wire data and is validated
/// before it can size an allocation: the digest table must match the
/// declared grid, shipped indices must be strictly increasing and in
/// range, and each shipped block passes the container's per-block check.
/// Decoded shipped blocks are re-hashed and checked against the digest
/// table, so a block that decodes to the wrong content fails loudly.
/// Cached blocks are trusted to match their digest — a
/// [`crate::delta::CacheEntry`] holds only payloads whose every block was
/// hashed ([`crate::delta::CacheEntry::from_raw`]) or checked here.
#[allow(clippy::too_many_arguments)]
pub fn reconstruct_delta(
    pool: &Pool,
    raw_total: usize,
    options: &TransferOptions,
    password: &str,
    transfer_id: u64,
    digests: &[[u8; 32]],
    shipped: &[DeltaBlock],
    cached: &HashMap<[u8; 32], &[u8]>,
) -> Result<Vec<u8>, TransferError> {
    let block_size = options.effective_block_size();
    let nblocks = raw_total.div_ceil(block_size);
    if digests.len() != nblocks {
        return Err(container_err(format!(
            "digest table holds {} entries, raw length {raw_total} at block \
             size {block_size} needs {nblocks}",
            digests.len()
        )));
    }
    // Plan every block's source before the output is allocated, so a
    // hostile digest table cannot buy a huge allocation with bytes it
    // never sent.
    let mut sources: Vec<Option<BlockSource<'_>>> = (0..nblocks).map(|_| None).collect();
    let mut prev: Option<u64> = None;
    for b in shipped {
        if prev.is_some_and(|p| b.index <= p) {
            return Err(container_err(format!(
                "shipped block indices not strictly increasing at {}",
                b.index
            )));
        }
        prev = Some(b.index);
        let index = usize::try_from(b.index)
            .ok()
            .filter(|i| *i < nblocks)
            .ok_or_else(|| {
                container_err(format!("shipped block index {} out of range", b.index))
            })?;
        let raw_len = block_raw_len(raw_total, block_size, index);
        check_block(index, b.enc, b.body.len(), raw_len, options.compress)?;
        sources[index] = Some(BlockSource::Coded {
            enc: b.enc,
            body: &b.body,
        });
    }
    let sources = sources
        .into_iter()
        .enumerate()
        .map(|(i, source)| {
            if let Some(source) = source {
                return Ok(source);
            }
            let raw = cached.get(&digests[i]).copied().ok_or_else(|| {
                container_err(format!(
                    "server omitted block {i} but its digest is not in the cache"
                ))
            })?;
            let raw_len = block_raw_len(raw_total, block_size, i);
            if raw.len() != raw_len {
                return Err(container_err(format!(
                    "cached block {i} holds {} bytes, grid expects {raw_len}",
                    raw.len()
                )));
            }
            Ok(BlockSource::Raw(raw))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let key = options.encrypt.then(|| transfer_key(password));
    decode_grid(
        pool,
        raw_total,
        block_size,
        sources,
        key,
        transfer_id,
        Some(digests),
    )
}

/// Pickle an inputs value with no codec work — the delta path digests and
/// codes blocks separately, and the `NotModified` answer skips this call
/// entirely.
pub fn pickle_inputs(inputs: &Value) -> Result<Vec<u8>, TransferError> {
    pickle::dumps(inputs).map_err(|e| TransferError::Pickle(format!("pickle: {e}")))
}

/// Server side: pickle the (possibly sampled) inputs and apply the selected
/// codecs on the process-global pool. Returns (wire payload, raw pickle
/// length).
pub fn encode_payload(
    inputs: &Value,
    options: &TransferOptions,
    password: &str,
    transfer_id: u64,
    seed: u64,
) -> Result<(Vec<u8>, usize), TransferError> {
    let effective = match options.sample {
        Some(k) => sample_inputs(inputs, k, mix_seed(seed, transfer_id))?,
        None => inputs.clone(),
    };
    let payload = pickle_inputs(&effective)?;
    let raw_len = payload.len();
    if !options.compress && !options.encrypt {
        // Plain transfers carry the raw pickle, zero framing overhead.
        return Ok((payload, raw_len));
    }
    Ok((
        encode_blocks(pool::global(), &payload, options, password, transfer_id),
        raw_len,
    ))
}

/// Client side: reverse the codecs on the process-global pool and return
/// the pickle. The client derives the same key from the password it
/// already holds — the key never crosses the wire. A compressed or
/// encrypted payload must be a v1 container whose every block passes its
/// integrity tag; a plain payload is the pickle and comes back as it
/// arrived (the frame checksum covered it in flight). The pickle is not
/// parsed here: one that is malformed yet intact fails where it is loaded.
pub fn decode_payload(
    payload: Vec<u8>,
    options: &TransferOptions,
    password: &str,
    transfer_id: u64,
) -> Result<Vec<u8>, TransferError> {
    if options.compress || options.encrypt {
        decode_blocks(pool::global(), &payload, options, password, transfer_id)
    } else {
        Ok(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codecs::sha256::block_digests;
    use codecs::varint::read_u64;

    fn sample_dict(rows: usize) -> Value {
        let mut d = Dict::new();
        d.insert(
            Value::str("data"),
            Value::array(Array::Int((0..rows as i64).collect())),
        )
        .unwrap();
        d.insert(
            Value::str("labels"),
            Value::array(Array::Int((0..rows as i64).map(|i| i % 2).collect())),
        )
        .unwrap();
        d.insert(Value::str("n_estimators"), Value::Int(10))
            .unwrap();
        Value::dict(d)
    }

    fn get_arr(v: &Value, key: &str) -> Vec<i64> {
        let Value::Dict(d) = v else { panic!() };
        let got = d.borrow().get(&Value::str(key)).unwrap().unwrap();
        let Value::Array(a) = got else {
            panic!("{key} not an array")
        };
        match a.as_ref() {
            Array::Int(v) => v.clone(),
            other => panic!("{other:?}"),
        }
    }

    fn is_container(payload: &[u8]) -> bool {
        payload.starts_with(&CONTAINER_MAGIC)
    }

    /// `(encoding byte, body byte range)` of every block of a container,
    /// read from its header.
    fn bodies(container: &[u8]) -> Vec<(u8, std::ops::Range<usize>)> {
        fn take(buf: &[u8], cur: &mut usize) -> usize {
            let (v, used) = read_u64(&buf[*cur..]).unwrap();
            *cur += used;
            v as usize
        }
        let mut cur = 6usize;
        let _block_size = take(container, &mut cur);
        let _raw_total = take(container, &mut cur);
        let nblocks = take(container, &mut cur);
        let mut table = Vec::with_capacity(nblocks);
        for _ in 0..nblocks {
            let enc = container[cur];
            cur += 1;
            let _raw_len = take(container, &mut cur);
            table.push((enc, take(container, &mut cur)));
        }
        table
            .into_iter()
            .map(|(enc, wire_len)| {
                cur += wire_len;
                (enc, cur - wire_len..cur)
            })
            .collect()
    }

    #[test]
    fn plain_round_trip() {
        let inputs = sample_dict(100);
        let (payload, raw) =
            encode_payload(&inputs, &TransferOptions::plain(), "pw", 1, 7).unwrap();
        // Plain is the raw pickle, zero framing overhead.
        assert_eq!(payload.len(), raw);
        assert!(!is_container(&payload));
        let back = decode_payload(payload.clone(), &TransferOptions::plain(), "pw", 1).unwrap();
        assert_eq!(back, payload, "a plain payload comes back as it arrived");
    }

    #[test]
    fn compression_shrinks_repetitive_inputs() {
        let mut d = Dict::new();
        d.insert(
            Value::str("col"),
            Value::array(Array::Int(vec![7; 100_000])),
        )
        .unwrap();
        let inputs = Value::dict(d);
        let opts = TransferOptions::compressed();
        let (payload, raw) = encode_payload(&inputs, &opts, "pw", 2, 7).unwrap();
        assert!(is_container(&payload));
        assert!(payload.len() < raw / 10, "{} vs {raw}", payload.len());
        let back = decode_payload(payload, &opts, "pw", 2).unwrap();
        assert_eq!(back, pickle_inputs(&inputs).unwrap());
    }

    #[test]
    fn readings_extract_keeps_its_compression_ratio() {
        // 200k sensor-style readings (a level held for runs of 64 rows plus
        // a little noise), the shape of a debug session's extract, in the
        // 64 KiB blocks a churning session uses. The 32-link hash-chain
        // parse reached 2.242; the cheaper parse may give up at most 2 %.
        let mut rng = devharness::Rng::new(1);
        let phase = rng.u64_below(500);
        let readings: Vec<i64> = (0..200_000u64)
            .map(|idx| ((idx / 64 + phase) % 500 + rng.u64_below(4)) as i64)
            .collect();
        let mut d = Dict::new();
        d.insert(Value::str("i"), Value::array(Array::Int(readings)))
            .unwrap();
        let raw = pickle_inputs(&Value::dict(d)).unwrap();
        let opts = TransferOptions::compressed().with_block_size(64 * 1024);
        let container = encode_blocks(&Pool::new(1), &raw, &opts, "pw", 1);
        let ratio = raw.len() as f64 / container.len() as f64;
        assert!(
            ratio >= 2.197,
            "ratio {ratio:.4} ({} of {} bytes)",
            container.len(),
            raw.len()
        );
        assert_eq!(decode_payload(container, &opts, "pw", 1).unwrap(), raw);
    }

    #[test]
    fn encryption_round_trips_and_scrambles() {
        let inputs = sample_dict(50);
        let opts = TransferOptions::encrypted();
        let (payload, raw) = encode_payload(&inputs, &opts, "secret", 3, 7).unwrap();
        // Container framing + per-block integrity tags add overhead.
        assert!(is_container(&payload));
        assert!(payload.len() > raw);
        // The (plaintext) header aside, the body must not leak the pickle
        // magic anywhere.
        assert!(
            !payload.windows(4).any(|w| w == b"PKL1"),
            "ciphertext leaked pickle magic"
        );
        let back = decode_payload(payload, &opts, "secret", 3).unwrap();
        assert_eq!(back, pickle_inputs(&inputs).unwrap());
    }

    #[test]
    fn multi_block_payload_round_trips_every_combo() {
        // Big enough for several blocks at a small block size, with a
        // compressible and an incompressible column.
        let mut noisy = devharness::Rng::new(42);
        let mut d = Dict::new();
        d.insert(
            Value::str("smooth"),
            Value::array(Array::Int((0..20_000).map(|i| i / 3).collect())),
        )
        .unwrap();
        d.insert(
            Value::str("noise"),
            Value::array(Array::Int(
                (0..20_000).map(|_| noisy.next_u64() as i64).collect(),
            )),
        )
        .unwrap();
        let inputs = Value::dict(d);
        for compress in [false, true] {
            for encrypt in [false, true] {
                if !compress && !encrypt {
                    continue; // plain is the raw pickle, covered above
                }
                let opts = TransferOptions {
                    compress,
                    encrypt,
                    ..Default::default()
                }
                .with_block_size(16 * 1024);
                let (payload, raw) = encode_payload(&inputs, &opts, "pw", 5, 7).unwrap();
                assert!(is_container(&payload));
                assert!(raw > 64 * 1024, "test payload too small: {raw}");
                let back = decode_payload(payload, &opts, "pw", 5).unwrap();
                assert_eq!(
                    back,
                    pickle_inputs(&inputs).unwrap(),
                    "combo c={compress} e={encrypt}"
                );
            }
        }
    }

    #[test]
    fn wire_bytes_do_not_depend_on_pool_width() {
        let inputs = sample_dict(50_000);
        let opts = TransferOptions {
            compress: true,
            encrypt: true,
            ..Default::default()
        }
        .with_block_size(8 * 1024);
        let raw = pickle_inputs(&inputs).unwrap();
        let expect = encode_blocks(&Pool::new(1), &raw, &opts, "pw", 9);
        for threads in [2, 4, 8] {
            let pool = Pool::new(threads);
            let payload = encode_blocks(&pool, &raw, &opts, "pw", 9);
            assert_eq!(payload, expect, "{threads}-thread pool changed wire bytes");
            assert_eq!(decode_blocks(&pool, &payload, &opts, "pw", 9).unwrap(), raw);
        }
    }

    #[test]
    fn incompressible_blocks_fall_back_to_stored() {
        let mut rng = devharness::Rng::new(1);
        let mut noise = vec![0u8; 64 * 1024];
        rng.fill_bytes(&mut noise);
        let opts = TransferOptions::compressed().with_block_size(16 * 1024);
        let pool = Pool::new(2);
        let payload = encode_blocks(&pool, &noise, &opts, "pw", 1);
        // Stored fallback bounds expansion to framing + tags.
        assert!(payload.len() < noise.len() + 128, "{}", payload.len());
        assert_eq!(
            decode_blocks(&pool, &payload, &opts, "pw", 1).unwrap(),
            noise
        );
    }

    #[test]
    fn corrupting_any_single_block_fails_loudly_with_its_index() {
        let data = b"the quick brown fox jumps over the lazy dog ".repeat(2000);
        let opts = TransferOptions {
            compress: true,
            encrypt: true,
            ..Default::default()
        }
        .with_block_size(8 * 1024);
        let pool = Pool::new(4);
        let clean = encode_blocks(&pool, &data, &opts, "pw", 3);
        let bodies = bodies(&clean);
        assert!(bodies.len() >= 4, "want a multi-block payload");
        // Flip one byte inside each block body in turn; decode must blame
        // exactly that block (every body is ≥ 5 bytes, so +2 stays inside).
        for (block, (_, body)) in bodies.into_iter().enumerate() {
            let mut bad = clean.clone();
            bad[body.start + 2] ^= 0x10;
            match decode_blocks(&pool, &bad, &opts, "pw", 3) {
                Err(TransferError::BlockIntegrity { block: got, .. }) => {
                    assert_eq!(got, block, "wrong block blamed");
                }
                other => panic!("block {block}: expected BlockIntegrity, got {other:?}"),
            }
        }
    }

    #[test]
    fn coded_payload_that_is_not_a_container_is_rejected() {
        // A compressed or encrypted payload is always a v1 container:
        // a raw pickle, a whole-payload LZ blob or a stub shorter than
        // the fixed header is a malformed container, never a panic.
        let pickle = pickle_inputs(&sample_dict(200)).unwrap();
        let lz_blob = lz::compress(&pickle);
        for (compress, encrypt) in [(true, false), (false, true), (true, true)] {
            let opts = TransferOptions {
                compress,
                encrypt,
                ..Default::default()
            };
            for payload in [&pickle[..], &lz_blob[..], &b"DUC"[..]] {
                match decode_payload(payload.to_vec(), &opts, "pw", 6) {
                    Err(TransferError::Container(_)) => {}
                    other => panic!("c={compress} e={encrypt} len={}: {other:?}", payload.len()),
                }
            }
        }
    }

    #[test]
    fn wrong_password_fails_to_decode() {
        let inputs = sample_dict(50);
        let opts = TransferOptions {
            compress: true,
            encrypt: true,
            ..Default::default()
        };
        let (payload, _) = encode_payload(&inputs, &opts, "right", 4, 7).unwrap();
        assert!(decode_payload(payload, &opts, "wrong", 4).is_err());
    }

    #[test]
    fn wrong_password_on_uncompressed_payload_is_a_clear_error() {
        // Every wrong key is caught by the per-block checksum before the
        // payload is accepted, and the error says so.
        let inputs = sample_dict(50);
        let opts = TransferOptions::encrypted();
        let (payload, _) = encode_payload(&inputs, &opts, "right", 9, 7).unwrap();
        for wrong in ["wrong", "Right", "right ", ""] {
            match decode_payload(payload.clone(), &opts, wrong, 9) {
                Err(
                    e @ TransferError::BlockIntegrity {
                        encrypted: true, ..
                    },
                ) => {
                    assert!(e.to_string().contains("wrong password"), "{e}")
                }
                other => panic!("wrong password '{wrong}': {other:?}"),
            }
        }
    }

    #[test]
    fn corrupted_ciphertext_is_rejected() {
        let inputs = sample_dict(20);
        let opts = TransferOptions::encrypted();
        let (mut payload, _) = encode_payload(&inputs, &opts, "pw", 11, 7).unwrap();
        // Flip a byte in the (single) block body at the tail.
        let at = payload.len() - 5;
        payload[at] ^= 0x40;
        assert!(decode_payload(payload, &opts, "pw", 11).is_err());
    }

    #[test]
    fn hostile_raw_total_is_rejected_before_allocation() {
        // A ~40-byte container declaring a terabyte raw length must be
        // rejected from the framing alone — no honest 5-byte LZ stream
        // can expand to 2^40 bytes, and the declared length must never
        // size an allocation. (A valid tag proves rejection happens at
        // the header, not at the post-allocation integrity check.)
        let opts = TransferOptions::compressed();
        let mut body = vec![0u8; 5];
        let tag = codecs::fnv1a_32(&body);
        body.extend_from_slice(&tag.to_le_bytes());
        let mut p = Vec::new();
        p.extend_from_slice(&CONTAINER_MAGIC);
        p.push(CONTAINER_VERSION);
        p.push(FLAG_COMPRESS);
        write_u64(&mut p, 1 << 40); // block_size
        write_u64(&mut p, 1 << 40); // raw_total
        write_u64(&mut p, 1); // nblocks
        p.push(BLOCK_LZ);
        write_u64(&mut p, 1 << 40); // raw_len
        write_u64(&mut p, body.len() as u64); // wire_len
        p.extend_from_slice(&body);
        let pool = Pool::new(1);
        match decode_blocks(&pool, &p, &opts, "", 0) {
            Err(TransferError::Container(msg)) => {
                assert!(msg.contains("impossible"), "{msg}")
            }
            other => panic!("hostile raw_total: {other:?}"),
        }
    }

    #[test]
    fn hostile_block_count_is_rejected_before_allocation() {
        // block_size=1 makes nblocks equal the declared raw length; the
        // block table for 2^40 entries cannot fit in a short payload, so
        // the count is rejected before the table vector is reserved.
        let opts = TransferOptions::compressed();
        let mut p = Vec::new();
        p.extend_from_slice(&CONTAINER_MAGIC);
        p.push(CONTAINER_VERSION);
        p.push(FLAG_COMPRESS);
        write_u64(&mut p, 1); // block_size
        write_u64(&mut p, 1 << 40); // raw_total
        write_u64(&mut p, 1 << 40); // nblocks
        let pool = Pool::new(1);
        match decode_blocks(&pool, &p, &opts, "", 0) {
            Err(TransferError::Container(msg)) => {
                assert!(msg.contains("exceeds what"), "{msg}")
            }
            other => panic!("hostile nblocks: {other:?}"),
        }
    }

    #[test]
    fn hostile_stored_block_length_mismatch_is_rejected() {
        // Stored blocks are exact: wire length must equal raw + tag.
        let opts = TransferOptions::compressed();
        let mut body = vec![7u8; 10];
        let tag = codecs::fnv1a_32(&body);
        body.extend_from_slice(&tag.to_le_bytes());
        let mut p = Vec::new();
        p.extend_from_slice(&CONTAINER_MAGIC);
        p.push(CONTAINER_VERSION);
        p.push(FLAG_COMPRESS);
        write_u64(&mut p, 4096); // block_size
        write_u64(&mut p, 100); // raw_total (≠ 10 stored bytes)
        write_u64(&mut p, 1); // nblocks
        p.push(BLOCK_STORED);
        write_u64(&mut p, 100); // raw_len
        write_u64(&mut p, body.len() as u64); // wire_len = 14
        p.extend_from_slice(&body);
        let pool = Pool::new(1);
        match decode_blocks(&pool, &p, &opts, "", 0) {
            Err(TransferError::Container(msg)) => {
                assert!(msg.contains("does not match"), "{msg}")
            }
            other => panic!("stored mismatch: {other:?}"),
        }
    }

    #[test]
    fn truncated_encrypted_payload_is_rejected() {
        let inputs = sample_dict(20);
        let opts = TransferOptions::encrypted();
        let (payload, _) = encode_payload(&inputs, &opts, "pw", 12, 7).unwrap();
        for cut in [2, 6, payload.len() - 3] {
            assert!(
                decode_payload(payload[..cut].to_vec(), &opts, "pw", 12).is_err(),
                "accepted payload truncated to {cut} bytes"
            );
        }
    }

    #[test]
    fn different_transfer_ids_produce_different_ciphertexts() {
        let inputs = sample_dict(20);
        let opts = TransferOptions::encrypted();
        let (p1, _) = encode_payload(&inputs, &opts, "pw", 1, 7).unwrap();
        let (p2, _) = encode_payload(&inputs, &opts, "pw", 2, 7).unwrap();
        assert_ne!(p1, p2);
    }

    #[test]
    fn empty_and_tiny_payload_containers() {
        let pool = Pool::new(2);
        for opts in [
            TransferOptions::compressed(),
            TransferOptions::encrypted(),
            TransferOptions {
                compress: true,
                encrypt: true,
                ..Default::default()
            },
        ] {
            for data in [&b""[..], &b"x"[..], &[0u8; DEFAULT_BLOCK_SIZE][..]] {
                let payload = encode_blocks(&pool, data, &opts, "pw", 1);
                assert!(is_container(&payload));
                assert_eq!(
                    decode_blocks(&pool, &payload, &opts, "pw", 1).unwrap(),
                    data,
                    "{opts:?} len={}",
                    data.len()
                );
            }
        }
    }

    #[test]
    fn container_flag_mismatch_is_rejected() {
        let pool = Pool::new(1);
        let data = b"hello world".repeat(100);
        let payload = encode_blocks(&pool, &data, &TransferOptions::compressed(), "pw", 1);
        let wrong = TransferOptions::encrypted();
        assert!(matches!(
            decode_blocks(&pool, &payload, &wrong, "pw", 1),
            Err(TransferError::Container(_))
        ));
    }

    #[test]
    fn sampling_keeps_rows_aligned() {
        let inputs = sample_dict(1000);
        let sampled = sample_inputs(&inputs, 100, 42).unwrap();
        let data = get_arr(&sampled, "data");
        let labels = get_arr(&sampled, "labels");
        assert_eq!(data.len(), 100);
        assert_eq!(labels.len(), 100);
        // Alignment: labels[i] must equal data[i] % 2 (their original link).
        for (d, l) in data.iter().zip(&labels) {
            assert_eq!(*l, d % 2);
        }
        // Scalars survive.
        let Value::Dict(dd) = &sampled else { panic!() };
        assert_eq!(
            dd.borrow()
                .get(&Value::str("n_estimators"))
                .unwrap()
                .unwrap(),
            Value::Int(10)
        );
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let inputs = sample_dict(500);
        let a = sample_inputs(&inputs, 50, 9).unwrap();
        let b = sample_inputs(&inputs, 50, 9).unwrap();
        let c = sample_inputs(&inputs, 50, 10).unwrap();
        assert_eq!(get_arr(&a, "data"), get_arr(&b, "data"));
        assert_ne!(get_arr(&a, "data"), get_arr(&c, "data"));
    }

    #[test]
    fn repeated_extracts_sample_different_rows_per_transfer() {
        // Same session seed, consecutive transfer ids: each extract must
        // draw a fresh sample (the old `seed ^ transfer_id` mixing plus a
        // shared call-site seed always picked near-identical rows).
        let inputs = sample_dict(5000);
        let opts = TransferOptions::sampled(50);
        let seed = derive_sample_seed(0x5eed_cafe, 1);
        let (p1, _) = encode_payload(&inputs, &opts, "pw", 1, seed).unwrap();
        let (p2, _) = encode_payload(&inputs, &opts, "pw", 2, seed).unwrap();
        assert_ne!(p1, p2, "consecutive extracts picked identical samples");
        // Determinism per (seed, transfer) is preserved.
        let (p1b, _) = encode_payload(&inputs, &opts, "pw", 1, seed).unwrap();
        assert_eq!(p1, p1b);
    }

    #[test]
    fn different_sessions_sample_different_rows() {
        let engine_seed = 0x5eed_cafe;
        let s1 = derive_sample_seed(engine_seed, 1);
        let s2 = derive_sample_seed(engine_seed, 2);
        assert_ne!(s1, s2);
        let inputs = sample_dict(5000);
        let a = sample_inputs(&inputs, 50, s1).unwrap();
        let b = sample_inputs(&inputs, 50, s2).unwrap();
        assert_ne!(get_arr(&a, "data"), get_arr(&b, "data"));
        // Reproducible per session.
        assert_eq!(derive_sample_seed(engine_seed, 1), s1);
    }

    #[test]
    fn oversized_sample_is_identity() {
        let inputs = sample_dict(10);
        let sampled = sample_inputs(&inputs, 100, 1).unwrap();
        assert_eq!(get_arr(&sampled, "data").len(), 10);
    }

    #[test]
    fn sample_through_encode_reduces_payload() {
        let inputs = sample_dict(10_000);
        let full = encode_payload(&inputs, &TransferOptions::plain(), "pw", 1, 7).unwrap();
        let sampled = encode_payload(&inputs, &TransferOptions::sampled(100), "pw", 1, 7).unwrap();
        assert!(sampled.0.len() < full.0.len() / 10);
    }

    #[test]
    fn kdf_cache_returns_the_real_key() {
        // First call derives, second call must hit the cache with the
        // identical key; a different password gets a different key.
        let k1 = transfer_key("cache-test-pw");
        let k2 = transfer_key("cache-test-pw");
        assert_eq!(k1, k2);
        assert_eq!(k1, derive_key("cache-test-pw", TRANSFER_SALT));
        assert_ne!(k1, transfer_key("cache-test-other"));
    }

    #[test]
    fn delta_bodies_are_bit_identical_to_container_bodies() {
        // A shipped delta block must carry exactly the bytes the full
        // container would carry for that block — same codec, same nonce.
        let data = b"abcdefgh".repeat(5000);
        for (compress, encrypt) in [(true, false), (false, true), (true, true)] {
            let opts = TransferOptions {
                compress,
                encrypt,
                ..Default::default()
            }
            .with_block_size(8 * 1024);
            let pool = Pool::new(3);
            let container = encode_blocks(&pool, &data, &opts, "pw", 17);
            let ship = vec![true; data.len().div_ceil(8 * 1024)];
            let delta = encode_delta_blocks(&pool, &data, &opts, "pw", 17, &ship);
            let bodies = bodies(&container);
            assert_eq!(bodies.len(), delta.len());
            for (i, (enc, body)) in bodies.into_iter().enumerate() {
                assert_eq!(delta[i].index, i as u64);
                assert_eq!(delta[i].enc, enc, "c={compress} e={encrypt} block {i}");
                assert_eq!(
                    delta[i].body, &container[body],
                    "c={compress} e={encrypt} block {i}"
                );
            }
        }
    }

    #[test]
    fn delta_round_trips_cold_and_reuses_cached_blocks_warm() {
        let opts = TransferOptions {
            compress: true,
            encrypt: true,
            ..Default::default()
        }
        .with_block_size(4 * 1024);
        let pool = Pool::new(2);
        let old: Vec<u8> = (0..40_000u32).map(|i| (i / 7) as u8).collect();

        // Cold: nothing cached, everything shipped.
        let digests = block_digests(&old, 4 * 1024);
        let nblocks = digests.len();
        let shipped = encode_delta_blocks(&pool, &old, &opts, "pw", 1, &vec![true; nblocks]);
        let back = reconstruct_delta(
            &pool,
            old.len(),
            &opts,
            "pw",
            1,
            &digests,
            &shipped,
            &HashMap::new(),
        )
        .unwrap();
        assert_eq!(back, old);

        // Warm: mutate one block in place; only it should need shipping.
        let mut new = old.clone();
        new[9000] ^= 0xFF; // inside block 2
        let new_digests = block_digests(&new, 4 * 1024);
        let known: std::collections::HashSet<[u8; 32]> = digests.iter().copied().collect();
        let ship: Vec<bool> = new_digests.iter().map(|d| !known.contains(d)).collect();
        assert_eq!(ship.iter().filter(|s| **s).count(), 1);
        let shipped = encode_delta_blocks(&pool, &new, &opts, "pw", 2, &ship);
        assert_eq!(shipped.len(), 1);
        assert_eq!(shipped[0].index, 2);
        let cache: HashMap<[u8; 32], &[u8]> =
            digests.iter().copied().zip(old.chunks(4 * 1024)).collect();
        let back = reconstruct_delta(
            &pool,
            new.len(),
            &opts,
            "pw",
            2,
            &new_digests,
            &shipped,
            &cache,
        )
        .unwrap();
        assert_eq!(back, new);
    }

    #[test]
    fn hostile_delta_replies_are_rejected() {
        let pool = Pool::new(1);
        let opts = TransferOptions::compressed().with_block_size(1024);
        let data = vec![3u8; 4096];
        let digests = block_digests(&data, 1024);
        let full = encode_delta_blocks(&pool, &data, &opts, "pw", 5, &[true; 4]);
        let empty: HashMap<[u8; 32], &[u8]> = HashMap::new();

        // Digest table not matching the grid.
        assert!(
            reconstruct_delta(&pool, 4096, &opts, "pw", 5, &digests[..3], &full, &empty).is_err()
        );
        // Out-of-range shipped index.
        let mut bad = full.clone();
        bad[3].index = 9;
        assert!(reconstruct_delta(&pool, 4096, &opts, "pw", 5, &digests, &bad, &empty).is_err());
        // Non-increasing indices.
        let mut bad = full.clone();
        bad[1].index = 0;
        assert!(reconstruct_delta(&pool, 4096, &opts, "pw", 5, &digests, &bad, &empty).is_err());
        // A block neither shipped nor cached.
        assert!(
            reconstruct_delta(&pool, 4096, &opts, "pw", 5, &digests, &full[..3], &empty).is_err()
        );
        // A shipped body whose content hashes to the wrong digest.
        let mut wrong = digests.clone();
        wrong[0] = [0u8; 32];
        match reconstruct_delta(&pool, 4096, &opts, "pw", 5, &wrong, &full, &empty) {
            Err(TransferError::BlockCodec { block: 0, detail }) => {
                assert!(detail.contains("digest mismatch"), "{detail}")
            }
            other => panic!("digest mismatch: {other:?}"),
        }
    }

    #[test]
    fn stats_ratio() {
        let s = TransferStats {
            raw_len: 1000,
            wire_len: 250,
        };
        assert!((s.ratio() - 0.25).abs() < 1e-12);
        // Zero-row extract: empty pickle must not divide by zero — the
        // regression this guards is `raw_len == 0` panicking/NaN-ing.
        let empty = TransferStats {
            raw_len: 0,
            wire_len: 0,
        };
        assert_eq!(empty.ratio(), 1.0);
        assert!(empty.ratio().is_finite());
        // Even with nonzero wire bytes (container overhead on an empty
        // pickle), the ratio stays defined and finite.
        let framed = TransferStats {
            raw_len: 0,
            wire_len: 48,
        };
        assert_eq!(framed.ratio(), 1.0);
    }
}
