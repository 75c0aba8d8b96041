//! LZ77-family byte compressor.
//!
//! Implements the paper's "method of compressing the data during the
//! transfer" (§2.1). The format is a simple token stream:
//!
//! ```text
//! header  := varint(uncompressed_len)
//! token   := literal | match
//! literal := varint(len << 1)     followed by `len` raw bytes
//! match   := varint(len << 1 | 1) varint(distance)
//! ```
//!
//! Matches are found with a short hash chain over 4-byte prefixes inside a
//! 64 KiB sliding window, the LZ77/DEFLATE arrangement made cheap the way
//! LZ4 is: each position walks at most 4 links and stops at a 32-byte
//! match, a candidate that already differs at the current best length is
//! skipped unexamined, matches extend 8 bytes at a time, and the parse
//! steps further ahead the longer it goes without a match, so
//! incompressible input costs little. The decoder does not depend on how
//! matches were chosen: streams from the earlier 32-link parse decode
//! unchanged.
//!
//! # Reused tables
//!
//! The chunked transfer pipeline (`wireproto::transfer`) and the WAL frame
//! codec call [`compress`] once per block or frame, so allocating the two
//! match-finder tables (384 KiB) per call would dominate small inputs.
//! Each thread keeps one scratch and invalidates it in O(1) with an
//! epoch stamp instead of a memset: each stored position is offset by the
//! scratch's current epoch, and lookups treat any entry at or below the
//! epoch as empty. The compressed bytes are therefore **identical** to what
//! a fresh scratch produces — reuse is invisible on the wire, which is what
//! lets the transfer format stay deterministic across thread counts.
//! [`decompress_into`] is the mirrored entry point: it writes into a
//! caller-provided exact-size buffer so parallel block decode can target
//! disjoint sub-slices of one output allocation.

use std::cell::RefCell;

use crate::varint::{encoded_len, read_u64, write_u64, VarintError};

/// Minimum match length worth encoding (a match token costs ≥ 2 bytes).
const MIN_MATCH: usize = 4;
/// Maximum match length (keeps varints short; longer repeats split).
const MAX_MATCH: usize = 1 << 16;
/// Sliding-window size: matches may reach at most this far back.
const WINDOW: usize = 1 << 16;
/// Number of hash buckets (power of two).
const HASH_BITS: u32 = 15;
/// Max chain links to follow per position (compression effort knob).
const MAX_CHAIN: usize = 4;
/// A match at least this long is "good enough": stop walking the chain.
/// Lifts throughput on highly repetitive data where every chain link
/// would otherwise be compared against an already-long match.
const NICE_MATCH: usize = 32;
/// After `1 << SKIP_TRIGGER` positions in a row without a match, the parse
/// advances two bytes per probe, then three, and so on (LZ4's skip
/// acceleration); a match resets it to one.
const SKIP_TRIGGER: u32 = 6;

/// Errors returned while decompressing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressError {
    /// A varint inside the stream was malformed.
    Varint(VarintError),
    /// The stream ended before the declared length was produced.
    Truncated,
    /// A match token referenced data before the start of the output.
    BadMatchDistance { distance: usize, produced: usize },
    /// The stream produced more data than the header declared.
    LengthMismatch { declared: usize, produced: usize },
    /// The declared length does not fit the caller-provided output buffer
    /// (only from [`decompress_into`], whose buffer is exact-size).
    OutputSizeMismatch { declared: usize, expected: usize },
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressError::Varint(e) => write!(f, "lz: {e}"),
            CompressError::Truncated => write!(f, "lz: truncated stream"),
            CompressError::BadMatchDistance { distance, produced } => write!(
                f,
                "lz: match distance {distance} exceeds produced output {produced}"
            ),
            CompressError::LengthMismatch { declared, produced } => {
                write!(f, "lz: declared length {declared} but produced {produced}")
            }
            CompressError::OutputSizeMismatch { declared, expected } => write!(
                f,
                "lz: stream declares {declared} bytes but output buffer holds {expected}"
            ),
        }
    }
}

impl std::error::Error for CompressError {}

impl From<VarintError> for CompressError {
    fn from(e: VarintError) -> Self {
        CompressError::Varint(e)
    }
}

/// Fibonacci-style multiplicative hash of a 4-byte prefix. One multiply
/// and a shift — measurably cheaper than the byte-at-a-time FNV loop it
/// replaced, with comparable bucket spread on real payloads.
#[inline]
fn hash4(data: &[u8]) -> usize {
    let v = u32::from_le_bytes([data[0], data[1], data[2], data[3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Reusable match-finder state; [`compress`] keeps one per thread.
///
/// Holds the hash-chain tables (`head`/`prev`) across calls. Entries are
/// stamped with an epoch: a stored value encodes `epoch + position + 1`,
/// and any value at or below the *current* epoch reads as "empty". Bumping
/// the epoch between inputs therefore invalidates the whole table without
/// touching memory; the tables are only zeroed when the u32 stamp space
/// would overflow (every ~4 GiB of input through one scratch).
struct Scratch {
    /// `head[h]`: stamp of the most recent position hashing to `h`.
    head: Vec<u32>,
    /// `prev[i % WINDOW]`: stamp of the previous position in `i`'s chain.
    prev: Vec<u32>,
    /// Stamps ≤ `epoch` are stale (from earlier inputs) and read as empty.
    epoch: u32,
}

impl Scratch {
    /// Create a scratch with zeroed tables.
    fn new() -> Scratch {
        Scratch {
            head: vec![0u32; 1 << HASH_BITS],
            prev: vec![0u32; WINDOW],
            epoch: 0,
        }
    }

    /// Prepare for an input of `len` bytes: advance the epoch past every
    /// stamp the previous input could have written, falling back to a full
    /// zeroing reset when the stamp space would overflow.
    fn begin(&mut self, len: usize) {
        // Stamps written for this input lie in (epoch, epoch + len].
        let ceiling = u64::from(self.epoch) + len as u64 + 1;
        if ceiling > u64::from(u32::MAX) {
            self.head.iter_mut().for_each(|v| *v = 0);
            self.prev.iter_mut().for_each(|v| *v = 0);
            self.epoch = 0;
        }
    }

    fn finish(&mut self, len: usize) {
        self.epoch += len as u32;
    }
}

thread_local! {
    /// This thread's match-finder tables: allocated on the thread's first
    /// [`compress`], reused by every later one.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// Compress `input` into a fresh buffer.
pub fn compress(input: &[u8]) -> Vec<u8> {
    SCRATCH.with(|scratch| compress_with(&mut scratch.borrow_mut(), input))
}

/// Length of the common prefix of `input[older..]` and `input[pos..]`,
/// capped at `limit`, compared 8 bytes at a time. Needs
/// `older < pos` and `pos + limit <= input.len()`.
#[inline]
fn match_len(input: &[u8], older: usize, pos: usize, limit: usize) -> usize {
    let (a, b) = (&input[older..older + limit], &input[pos..pos + limit]);
    let mut len = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let x = u64::from_le_bytes(x.try_into().expect("8-byte chunk"));
        let y = u64::from_le_bytes(y.try_into().expect("8-byte chunk"));
        let diff = x ^ y;
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < limit && a[len] == b[len] {
        len += 1;
    }
    len
}

/// Compress `input` reusing the match-finder tables in `scratch`.
///
/// Output is byte-identical whatever the scratch was previously used for
/// (see [`Scratch`] for why).
fn compress_with(scratch: &mut Scratch, input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    write_u64(&mut out, input.len() as u64);
    if input.is_empty() {
        return out;
    }

    scratch.begin(input.len());
    let epoch = scratch.epoch;
    let head = &mut scratch.head[..];
    let prev = &mut scratch.prev[..];

    let mut literal_start = 0usize;
    let mut pos = 0usize;
    let mut misses = 0usize;

    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize| {
        let mut start = from;
        while start < to {
            let len = (to - start).min(MAX_MATCH);
            write_u64(out, (len as u64) << 1);
            out.extend_from_slice(&input[start..start + len]);
            start += len;
        }
    };

    while pos + MIN_MATCH <= input.len() {
        let h = hash4(&input[pos..]);
        let limit = (input.len() - pos).min(MAX_MATCH);
        // Walk the chain looking for the longest match. Stamps at or
        // below `epoch` belong to earlier inputs and terminate the walk,
        // exactly as a zeroed table would.
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        let mut stamp = head[h];
        let mut chain = 0usize;
        while stamp > epoch && chain < MAX_CHAIN {
            let cand_pos = (stamp - epoch - 1) as usize;
            if pos - cand_pos > WINDOW {
                break;
            }
            // Only a candidate that also matches at `best_len` can be
            // longer (`best_len < limit` holds: reaching `limit` stops the
            // walk).
            if input[cand_pos + best_len] == input[pos + best_len] {
                let len = match_len(input, cand_pos, pos, limit);
                if len > best_len {
                    best_len = len;
                    best_dist = pos - cand_pos;
                    if len == limit || len >= NICE_MATCH {
                        break;
                    }
                }
            }
            stamp = prev[cand_pos % WINDOW];
            chain += 1;
        }

        // Insert current position into the chain.
        prev[pos % WINDOW] = head[h];
        head[h] = epoch + (pos + 1) as u32;

        if best_len >= MIN_MATCH {
            flush_literals(&mut out, literal_start, pos);
            write_u64(&mut out, ((best_len as u64) << 1) | 1);
            write_u64(&mut out, best_dist as u64);
            // Index the skipped positions so future matches can refer to them.
            let end = pos + best_len;
            pos += 1;
            while pos < end && pos + MIN_MATCH <= input.len() {
                let h = hash4(&input[pos..]);
                prev[pos % WINDOW] = head[h];
                head[h] = epoch + (pos + 1) as u32;
                pos += 1;
            }
            pos = end;
            literal_start = pos;
            misses = 0;
        } else {
            misses += 1;
            pos += 1 + (misses >> SKIP_TRIGGER);
        }
    }

    flush_literals(&mut out, literal_start, input.len());
    scratch.finish(input.len());
    out
}

/// Lower bound on the length of any stream [`compress`] can emit for
/// `raw_len` bytes of input: the length-header varint plus at least two
/// bytes per token, where one token covers at most `MAX_MATCH` raw
/// bytes. Framing layers that carry a declared raw length next to a
/// compressed body use this to reject declared lengths no honest stream
/// could reach *before* sizing any allocation from them — the same
/// don't-trust-the-header rule [`decompress`] applies internally.
pub fn min_stream_len(raw_len: usize) -> usize {
    encoded_len(raw_len as u64) + raw_len.div_ceil(MAX_MATCH) * 2
}

/// Decompress a buffer produced by [`compress`].
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, CompressError> {
    let (declared, cursor) = read_u64(input)?;
    let declared = usize::try_from(declared).map_err(|_| CompressError::Truncated)?;
    // Do not trust the header for the allocation: a hostile or corrupted
    // stream could declare a huge length. Grow as tokens actually produce
    // data; the cap only seeds the fast path for honest streams.
    let mut out = Vec::with_capacity(declared.min(1 << 20));
    decompress_tokens(input, cursor, declared, &mut Sink::Grow(&mut out))?;
    Ok(out)
}

/// Decompress a buffer produced by [`compress`] into an exact-size output
/// slice — `out.len()` must equal the stream's declared length. Lets the
/// parallel block decoder write blocks straight into disjoint sub-slices
/// of the final payload buffer with no per-block allocation.
pub fn decompress_into(input: &[u8], out: &mut [u8]) -> Result<(), CompressError> {
    let (declared, cursor) = read_u64(input)?;
    let declared = usize::try_from(declared).map_err(|_| CompressError::Truncated)?;
    if declared != out.len() {
        return Err(CompressError::OutputSizeMismatch {
            declared,
            expected: out.len(),
        });
    }
    decompress_tokens(input, cursor, declared, &mut Sink::Slice { out, filled: 0 })
}

/// Output target for the shared token-decoding loop: either a growable
/// vector or a pre-sized slice tracked by fill level.
enum Sink<'a> {
    Grow(&'a mut Vec<u8>),
    Slice { out: &'a mut [u8], filled: usize },
}

impl Sink<'_> {
    #[inline]
    fn len(&self) -> usize {
        match self {
            Sink::Grow(v) => v.len(),
            Sink::Slice { filled, .. } => *filled,
        }
    }

    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        match self {
            Sink::Grow(v) => v.extend_from_slice(bytes),
            Sink::Slice { out, filled } => {
                out[*filled..*filled + bytes.len()].copy_from_slice(bytes);
                *filled += bytes.len();
            }
        }
    }

    /// Copy `len` already-produced bytes starting `distance` back; copies
    /// may overlap (RLE via distance 1), so go byte-at-a-time.
    #[inline]
    fn copy_back(&mut self, distance: usize, len: usize) {
        match self {
            Sink::Grow(v) => {
                let start = v.len() - distance;
                for i in 0..len {
                    let b = v[start + i];
                    v.push(b);
                }
            }
            Sink::Slice { out, filled } => {
                let start = *filled - distance;
                for i in 0..len {
                    out[*filled + i] = out[start + i];
                }
                *filled += len;
            }
        }
    }
}

fn decompress_tokens(
    input: &[u8],
    mut cursor: usize,
    declared: usize,
    sink: &mut Sink<'_>,
) -> Result<(), CompressError> {
    while sink.len() < declared {
        if cursor >= input.len() {
            return Err(CompressError::Truncated);
        }
        let (token, used) = read_u64(&input[cursor..])?;
        cursor += used;
        let len = usize::try_from(token >> 1).map_err(|_| CompressError::Truncated)?;
        if sink.len() + len > declared {
            return Err(CompressError::LengthMismatch {
                declared,
                produced: sink.len() + len,
            });
        }
        if token & 1 == 0 {
            // Literal run.
            if len > input.len() - cursor {
                return Err(CompressError::Truncated);
            }
            sink.put(&input[cursor..cursor + len]);
            cursor += len;
        } else {
            let (distance, used) = read_u64(&input[cursor..])?;
            cursor += used;
            let distance = distance as usize;
            if distance == 0 || distance > sink.len() {
                return Err(CompressError::BadMatchDistance {
                    distance,
                    produced: sink.len(),
                });
            }
            sink.copy_back(distance, len);
        }
    }

    if sink.len() != declared {
        return Err(CompressError::LengthMismatch {
            declared,
            produced: sink.len(),
        });
    }
    Ok(())
}

/// Compression ratio achieved on `input` (compressed / original, lower is
/// better). Returns 1.0 for empty input.
pub fn ratio(input: &[u8]) -> f64 {
    if input.is_empty() {
        return 1.0;
    }
    compress(input).len() as f64 / input.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).unwrap();
        assert_eq!(d, data);
        // The exact-size entry point must agree byte for byte.
        let mut buf = vec![0u8; data.len()];
        decompress_into(&c, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn empty_input() {
        round_trip(b"");
        assert_eq!(compress(b"").len(), 1);
    }

    #[test]
    fn short_inputs() {
        for len in 0..20 {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            round_trip(&data);
        }
    }

    #[test]
    fn repetitive_data_compresses() {
        let data = b"abcdabcdabcdabcdabcdabcdabcdabcd".repeat(100);
        let c = compress(&data);
        assert!(
            c.len() < data.len() / 10,
            "got {} of {}",
            c.len(),
            data.len()
        );
        round_trip(&data);
    }

    #[test]
    fn min_stream_len_is_a_true_lower_bound() {
        // The most compressible inputs the encoder can meet must still
        // respect the bound, including match-boundary sizes.
        for len in [
            0usize,
            1,
            3,
            MIN_MATCH,
            1000,
            MAX_MATCH - 1,
            MAX_MATCH,
            MAX_MATCH + 1,
            4 * MAX_MATCH + 17,
        ] {
            let data = vec![0u8; len];
            assert!(
                compress(&data).len() >= min_stream_len(len),
                "len {len}: compressed {} < bound {}",
                compress(&data).len(),
                min_stream_len(len)
            );
        }
    }

    #[test]
    fn rle_style_overlap() {
        let data = vec![42u8; 100_000];
        let c = compress(&data);
        assert!(c.len() < 200, "rle should collapse, got {}", c.len());
        round_trip(&data);
    }

    #[test]
    fn csv_like_payload() {
        let mut data = Vec::new();
        for i in 0..5000 {
            data.extend_from_slice(format!("{},{},row-{}\n", i, i * 2, i % 7).as_bytes());
        }
        let c = compress(&data);
        assert!(c.len() < data.len());
        round_trip(&data);
    }

    #[test]
    fn incompressible_random_data_round_trips() {
        // Deterministic xorshift so the test is stable.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x & 0xff) as u8
            })
            .collect();
        round_trip(&data);
        // Expansion is bounded: literal token overhead only.
        let c = compress(&data);
        assert!(c.len() < data.len() + data.len() / 1000 + 64);
    }

    #[test]
    fn long_range_matches_beyond_window_still_correct() {
        // Repeat a block farther apart than the window; must still round-trip
        // (just without cross-window matches).
        let block: Vec<u8> = (0..=255u16).map(|i| (i % 256) as u8).collect();
        let mut data = block.repeat(10);
        data.extend(vec![0u8; WINDOW + 100]);
        data.extend(block.repeat(10));
        round_trip(&data);
    }

    /// What a never-used scratch emits for `input`.
    fn compress_fresh(input: &[u8]) -> Vec<u8> {
        compress_with(&mut Scratch::new(), input)
    }

    #[test]
    fn scratch_reuse_is_byte_identical_to_fresh() {
        // The wire format must not depend on what a scratch compressed
        // before (determinism across pooled workers depends on this).
        let inputs: Vec<Vec<u8>> = vec![
            b"abcdabcdabcdabcd".repeat(500),
            vec![7u8; 100_000],
            (0..60_000u32).flat_map(|i| i.to_le_bytes()).collect(),
            Vec::new(),
            b"x".to_vec(),
            b"the quick brown fox jumps over the lazy dog".repeat(123),
        ];
        let mut scratch = Scratch::new();
        for input in &inputs {
            let reused = compress_with(&mut scratch, input);
            let fresh = compress_fresh(input);
            assert_eq!(reused, fresh, "scratch reuse changed output bytes");
            assert_eq!(decompress(&reused).unwrap(), *input);
            // The thread's own scratch, whatever it compressed before.
            assert_eq!(compress(input), fresh);
        }
        // A second pass over the same inputs with the dirty scratch too.
        for input in &inputs {
            assert_eq!(compress_with(&mut scratch, input), compress_fresh(input));
        }
    }

    #[test]
    fn scratch_epoch_overflow_resets_cleanly() {
        let mut scratch = Scratch::new();
        // Force the epoch near the u32 ceiling, then compress: begin()
        // must zero-reset instead of wrapping stamps around.
        scratch.epoch = u32::MAX - 10;
        let data = b"wrap wrap wrap wrap wrap".repeat(100);
        assert_eq!(compress_with(&mut scratch, &data), compress_fresh(&data));
        assert!(scratch.epoch < u32::MAX - 10, "epoch should have reset");
    }

    #[test]
    fn streams_of_the_32_link_parse_still_decode() {
        // A 300-row readings pickle and the stream the 32-link hash-chain
        // parse emitted for it (35 matches, 4 of them overlapping). WAL
        // files, snapshots and peers' containers written before the
        // 4-link parse hold such streams.
        let fixture = include_str!("../testdata/lz_readings_300.hex");
        let mut lines = fixture.lines().filter(|line| !line.starts_with('#'));
        let mut next_hex = || crate::hex::from_hex(lines.next().expect("fixture line"));
        let (raw, stream) = (next_hex().unwrap(), next_hex().unwrap());
        assert_eq!(decompress(&stream).unwrap(), raw);
        let mut buf = vec![0u8; raw.len()];
        decompress_into(&stream, &mut buf).unwrap();
        assert_eq!(buf, raw);
        round_trip(&raw);
    }

    #[test]
    fn decompress_into_checks_buffer_size() {
        let c = compress(b"hello world hello world");
        let mut small = vec![0u8; 5];
        assert!(matches!(
            decompress_into(&c, &mut small),
            Err(CompressError::OutputSizeMismatch { .. })
        ));
        let mut big = vec![0u8; 1000];
        assert!(matches!(
            decompress_into(&c, &mut big),
            Err(CompressError::OutputSizeMismatch { .. })
        ));
    }

    #[test]
    fn rejects_truncated_stream() {
        let data = b"hello hello hello hello hello".repeat(10);
        let mut c = compress(&data);
        c.truncate(c.len() - 3);
        assert!(decompress(&c).is_err());
        let mut buf = vec![0u8; data.len()];
        assert!(decompress_into(&c, &mut buf).is_err());
    }

    #[test]
    fn rejects_bad_distance() {
        let mut stream = Vec::new();
        write_u64(&mut stream, 10); // declared length
        write_u64(&mut stream, (4 << 1) | 1); // match len 4
        write_u64(&mut stream, 5); // distance 5 with nothing produced
        assert!(matches!(
            decompress(&stream),
            Err(CompressError::BadMatchDistance { .. })
        ));
        let mut buf = vec![0u8; 10];
        assert!(matches!(
            decompress_into(&stream, &mut buf),
            Err(CompressError::BadMatchDistance { .. })
        ));
    }

    #[test]
    fn rejects_garbage_header() {
        assert!(decompress(&[0xff; 11]).is_err());
    }

    #[test]
    fn ratio_reports_sensible_values() {
        assert!(ratio(&vec![0u8; 10_000]) < 0.01);
        assert!((ratio(b"") - 1.0).abs() < f64::EPSILON);
    }
}
