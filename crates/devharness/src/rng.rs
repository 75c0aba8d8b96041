//! A small deterministic PRNG: SplitMix64 seeding a xoshiro256++ core.
//!
//! Not cryptographic — [`codecs::chacha20`] covers that — but fast,
//! statistically solid for sampling/benching/property generation, and
//! fully reproducible from a single `u64` seed. The algorithms are the
//! public-domain constructions of Vigna et al. (xoshiro256++ 1.0,
//! SplitMix64).

/// Deterministic pseudo-random number generator.
///
/// ```
/// use devharness::Rng;
/// let mut rng = Rng::new(42);
/// let a = rng.next_u64();
/// assert_eq!(Rng::new(42).next_u64(), a); // same seed, same stream
/// let d = rng.u64_below(6) + 1;           // a die roll
/// assert!((1..=6).contains(&d));
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

/// SplitMix64 step — also used standalone to derive independent sub-seeds.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// Create a generator from a seed. Any seed (including 0) is fine:
    /// SplitMix64 expands it into a full non-zero xoshiro state.
    pub fn new(seed: u64) -> Rng {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit value (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`. `bound` must be non-zero.
    /// Uses Lemire-style rejection to avoid modulo bias.
    pub fn u64_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "u64_below(0)");
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = self.next_u64();
            let (hi, lo) = {
                let wide = (r as u128) * (bound as u128);
                ((wide >> 64) as u64, wide as u64)
            };
            if lo >= threshold {
                return hi;
            }
        }
    }

    /// Uniform `usize` in `[0, bound)`.
    pub fn usize_below(&mut self, bound: usize) -> usize {
        self.u64_below(bound as u64) as usize
    }

    /// Uniform value in the half-open range `[low, high)`.
    pub fn i64_in(&mut self, low: i64, high: i64) -> i64 {
        assert!(low < high, "i64_in: empty range {low}..{high}");
        let span = (high as i128 - low as i128) as u128;
        let off = if span > u64::MAX as u128 {
            // Range wider than u64 (only possible for the full i64 span):
            // a raw draw is already uniform over it.
            self.next_u64() as u128
        } else {
            self.u64_below(span as u64) as u128
        };
        (low as i128 + off as i128) as i64
    }

    /// Uniform `usize` in `[low, high)`.
    pub fn usize_in(&mut self, low: usize, high: usize) -> usize {
        assert!(low < high, "usize_in: empty range {low}..{high}");
        low + self.usize_below(high - low)
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform boolean.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn ratio(&mut self, p: f64) -> bool {
        self.f64_unit() < p
    }

    /// One random byte.
    pub fn u8(&mut self) -> u8 {
        (self.next_u64() & 0xff) as u8
    }

    /// Fill a slice with random bytes (8 at a time).
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let r = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&r[..chunk.len()]);
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.usize_below(i + 1);
            items.swap(i, j);
        }
    }

    /// Uniformly chosen element, or `None` for an empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.usize_below(items.len())])
        }
    }

    /// `k` distinct indices sampled uniformly from `0..n` (partial
    /// Fisher–Yates), returned **sorted ascending** so callers preserve
    /// original row order. When `k >= n` returns all indices.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        if k >= n {
            return (0..n).collect();
        }
        let mut pool: Vec<usize> = (0..n).collect();
        let mut picked = Vec::with_capacity(k);
        for _ in 0..k {
            let i = self.usize_below(pool.len());
            picked.push(pool.swap_remove(i));
        }
        picked.sort_unstable();
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        let mut c = Rng::new(8);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn splitmix64_known_answer() {
        // Reference sequence for seed 0 from the public-domain C source.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(&mut s), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(splitmix64(&mut s), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn bounded_draws_stay_in_range() {
        let mut rng = Rng::new(1);
        for _ in 0..10_000 {
            assert!(rng.u64_below(7) < 7);
            let v = rng.i64_in(-5, 5);
            assert!((-5..5).contains(&v));
            let f = rng.f64_unit();
            assert!((0.0..1.0).contains(&f));
        }
        // Full-span draw must not panic.
        let _ = rng.i64_in(i64::MIN, i64::MAX);
    }

    #[test]
    fn bounded_draws_hit_every_value() {
        let mut rng = Rng::new(2);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            seen[rng.usize_below(6)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn fill_bytes_fills_odd_lengths() {
        let mut rng = Rng::new(3);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::new(4);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "100 elements staying put is ~impossible");
    }

    #[test]
    fn sample_indices_bounds_and_order() {
        let mut rng = Rng::new(5);
        let idx = rng.sample_indices(1000, 50);
        assert_eq!(idx.len(), 50);
        assert!(idx.windows(2).all(|w| w[0] < w[1]));
        assert!(idx.iter().all(|&i| i < 1000));
        assert_eq!(rng.sample_indices(10, 100), (0..10).collect::<Vec<_>>());
        let a = Rng::new(9).sample_indices(500, 50);
        let b = Rng::new(9).sample_indices(500, 50);
        assert_eq!(a, b);
    }

    #[test]
    fn ratio_is_roughly_calibrated() {
        let mut rng = Rng::new(6);
        let hits = (0..10_000).filter(|_| rng.ratio(0.25)).count();
        assert!((2000..3000).contains(&hits), "{hits}");
    }
}
