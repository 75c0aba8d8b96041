//! SHA-256 (FIPS 180-4).
//!
//! Serves three roles in the reproduction: the content address of `minivcs`
//! objects (standing in for Git's SHA-1), the content address of the
//! transfer delta cache's plaintext blocks ([`block_digests`]), and the
//! password→key derivation for the paper's "encrypt with the database
//! user's password" transfer option.
//!
//! Whole 64-byte blocks run on the x86 SHA extensions when the CPU reports
//! them at run time (`is_x86_feature_detected!`); the scalar rounds are the
//! fallback on every other CPU and target, and the tests' oracle. Both
//! paths produce the same digests, so no content address depends on the
//! machine that computed it.

/// Round constants (first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorb `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress_blocks);
    }

    /// Finish hashing and return the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        self.finalize_with(compress_blocks)
    }

    /// [`Sha256::update`] on the block function `blocks`, which folds a
    /// whole number of 64-byte blocks into the state.
    #[inline]
    fn update_with(&mut self, data: &[u8], blocks: impl Fn(&mut [u32; 8], &[u8])) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len < 64 {
                return;
            }
            blocks(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let whole = input.len() - input.len() % 64;
        if whole > 0 {
            blocks(&mut self.state, &input[..whole]);
        }
        let rest = &input[whole..];
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// [`Sha256::finalize`] on the block function `blocks`.
    #[inline]
    fn finalize_with(mut self, blocks: impl Fn(&mut [u32; 8], &[u8])) -> [u8; 32] {
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length —
        // written in place, spilling into a second block when fewer than
        // the 9 bytes it needs are free.
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= 56 {
            blocks(&mut self.state, &self.buf);
            self.buf = [0u8; 64];
        }
        self.buf[56..].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        blocks(&mut self.state, &self.buf);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Fold the whole 64-byte blocks of `blocks` into `state`: on the SHA
/// extensions when this CPU has them, else with the scalar rounds.
#[inline]
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if shani::detected() {
        // SAFETY: `shani::detected` just checked at run time that this CPU
        // supports every feature `shani::compress_blocks` is compiled for.
        unsafe { shani::compress_blocks(state, blocks) };
        return;
    }
    compress_blocks_scalar(state, blocks);
}

/// The FIPS 180-4 rounds in portable code, one 64-byte block at a time.
fn compress_blocks_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The block function on the x86 SHA extensions (`sha256rnds2` runs two
/// rounds, `sha256msg1`/`sha256msg2` extend the message schedule four
/// words at a time). The state lives in two registers ordered ABEF and
/// CDGH, as `sha256rnds2` expects.
#[cfg(target_arch = "x86_64")]
mod shani {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    use super::K;

    /// Whether this CPU supports every feature [`compress_blocks`] is
    /// compiled for. `std` caches the answer after the first call.
    #[inline]
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Fold the whole 64-byte blocks of `blocks` into `state`; a trailing
    /// partial block is ignored, as in the scalar path.
    ///
    /// # Safety
    ///
    /// Callers (in an `unsafe` block, because of the target features) must
    /// have seen [`detected`] return true on this CPU.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        // Reverses the bytes of each 32-bit lane: message words are
        // big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // SAFETY: the loads need SSE2, within this function's target
        // features, which its caller checked with `detected`. `state` is 8
        // `u32`s (32 bytes); the two unaligned 16-byte loads read bytes
        // 0..16 and 16..32 of it.
        let (dcba, hgfe) = unsafe {
            let p = state.as_ptr().cast::<__m128i>();
            (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
        };
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // SAFETY: features as for the state loads above (checked by
            // the caller with `detected`). `chunks_exact(64)` yields exactly
            // 64 bytes; the four unaligned 16-byte loads read bytes 0..16,
            // 16..32, 32..48 and 48..64 of it.
            let w = unsafe {
                let p = block.as_ptr().cast::<__m128i>();
                [
                    _mm_shuffle_epi8(_mm_loadu_si128(p), bswap),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), bswap),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), bswap),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), bswap),
                ]
            };
            // Four rounds on message words `w` (already big-endian lanes)
            // with round constants K[4·i..4·i + 4].
            macro_rules! rounds4 {
                ($w:expr, $i:expr) => {{
                    // SAFETY: features as for the state loads above
                    // (checked by the caller with `detected`). `K` holds 64
                    // `u32`s (256 bytes) and `$i < 16`, so the unaligned
                    // 16-byte load reads bytes 16·$i..16·$i + 16 of it.
                    let k = unsafe { _mm_loadu_si128(K.as_ptr().cast::<__m128i>().add($i)) };
                    let wk = _mm_add_epi32($w, k);
                    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
                }};
            }
            // The next four message words from the 16 before them, held
            // oldest first in `w0..w3`; the result replaces `w0`.
            macro_rules! schedule_rounds4 {
                ($w0:ident, $w1:ident, $w2:ident, $w3:ident, $i:expr) => {{
                    let t =
                        _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4));
                    $w0 = _mm_sha256msg2_epu32(t, $w3);
                    rounds4!($w0, $i);
                }};
            }
            let [mut w0, mut w1, mut w2, mut w3] = w;
            rounds4!(w0, 0);
            rounds4!(w1, 1);
            rounds4!(w2, 2);
            rounds4!(w3, 3);
            schedule_rounds4!(w0, w1, w2, w3, 4);
            schedule_rounds4!(w1, w2, w3, w0, 5);
            schedule_rounds4!(w2, w3, w0, w1, 6);
            schedule_rounds4!(w3, w0, w1, w2, 7);
            schedule_rounds4!(w0, w1, w2, w3, 8);
            schedule_rounds4!(w1, w2, w3, w0, 9);
            schedule_rounds4!(w2, w3, w0, w1, 10);
            schedule_rounds4!(w3, w0, w1, w2, 11);
            schedule_rounds4!(w0, w1, w2, w3, 12);
            schedule_rounds4!(w1, w2, w3, w0, 13);
            schedule_rounds4!(w2, w3, w0, w1, 14);
            schedule_rounds4!(w3, w0, w1, w2, 15);
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
        let hgef = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: features as for the state loads above (checked by the
        // caller with `detected`); the stores write the same 32 bytes of
        // `state` those loads read, through the unique borrow.
        unsafe {
            let p = state.as_mut_ptr().cast::<__m128i>();
            _mm_storeu_si128(p, dcba);
            _mm_storeu_si128(p.add(1), hgef);
        }
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Content addresses for `data` chunked at `block_size`: one digest per
/// block, in block order. The final block may be short; empty input has no
/// blocks. This is the addressing scheme of the wire-transfer delta cache —
/// two payloads share a block exactly when the digests at hand match. The
/// server digests a fresh extract with it and the client its cache entries,
/// both on the calling thread.
///
/// # Panics
///
/// Panics if `block_size` is zero.
///
/// # Examples
///
/// ```
/// let data = vec![7u8; 10];
/// let digests = codecs::sha256::block_digests(&data, 4); // blocks of 4,4,2
/// assert_eq!(digests.len(), 3);
/// assert_eq!(digests[0], codecs::sha256(&data[..4]));
/// assert_eq!(digests[0], digests[1]);
/// assert_ne!(digests[1], digests[2]);
/// assert!(codecs::sha256::block_digests(&[], 4).is_empty());
/// ```
pub fn block_digests(data: &[u8], block_size: usize) -> Vec<[u8; 32]> {
    assert!(block_size > 0, "block_size must be non-zero");
    data.chunks(block_size).map(sha256).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex::to_hex;
    use devharness::prop::{self, Config};
    use devharness::prop_assert_eq;

    /// `data` hashed through `update` in the pieces `splits` cuts it into,
    /// on the block function `blocks`.
    fn digest_with(
        data: &[u8],
        splits: &[usize],
        blocks: impl Fn(&mut [u32; 8], &[u8]) + Copy,
    ) -> [u8; 32] {
        let mut h = Sha256::new();
        let mut from = 0;
        for &at in splits {
            let at = at.clamp(from, data.len());
            h.update_with(&data[from..at], blocks);
            from = at;
        }
        h.update_with(&data[from..], blocks);
        h.finalize_with(blocks)
    }

    /// The SHA-extension digest of `data`, or `None` on a CPU without
    /// the extensions.
    fn hardware_digest(data: &[u8], splits: &[usize]) -> Option<[u8; 32]> {
        #[cfg(target_arch = "x86_64")]
        if shani::detected() {
            return Some(digest_with(data, splits, |state, blocks| {
                // SAFETY: `shani::detected` checked at run time that this
                // CPU supports every feature `compress_blocks` is compiled
                // for.
                unsafe { shani::compress_blocks(state, blocks) }
            }));
        }
        None
    }

    /// Hex digest of `data` after checking that the scalar rounds, the
    /// SHA extensions (where this CPU has them) and [`sha256`] agree.
    fn checked_hex(data: &[u8]) -> String {
        let scalar = digest_with(data, &[], compress_blocks_scalar);
        if let Some(hardware) = hardware_digest(data, &[]) {
            assert_eq!(
                hardware, scalar,
                "SHA extensions disagree with the scalar rounds"
            );
        }
        assert_eq!(sha256(data), scalar);
        to_hex(&scalar)
    }

    // NIST / FIPS 180-4 test vectors.
    #[test]
    fn empty_string() {
        assert_eq!(
            checked_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            checked_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            checked_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            checked_hex(&data),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn hardware_rounds_match_the_scalar_rounds() {
        // Lengths up to 65 blocks cover every padding case (0..=63 bytes
        // left over) and long multi-block runs; split points exercise the
        // buffered path of `update`.
        let strategy = (
            prop::usize_in(0..4161),
            prop::any_u64(),
            prop::vec_of(prop::usize_in(0..4161), 0..6),
        );
        prop::check(Config::cases(256), strategy, |(len, seed, splits)| {
            let mut data = vec![0u8; *len];
            devharness::Rng::new(*seed).fill_bytes(&mut data);
            let mut splits = splits.clone();
            splits.sort_unstable();
            let scalar = digest_with(&data, &[], compress_blocks_scalar);
            prop_assert_eq!(digest_with(&data, &splits, compress_blocks_scalar), scalar);
            if let Some(hardware) = hardware_digest(&data, &splits) {
                prop_assert_eq!(hardware, scalar);
            }
            prop_assert_eq!(sha256(&data), scalar);
            Ok(())
        });
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0usize, 1, 13, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn byte_at_a_time_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog, twice over";
        let mut h = Sha256::new();
        for &b in data.iter() {
            h.update(&[b]);
        }
        assert_eq!(h.finalize(), sha256(data));
    }
}
