//! A small, dependency-free pseudo-random number generator.
//!
//! The workspace is built offline/hermetically, so the generator cannot pull
//! in `rand`. This is Steele/Lea/Flood's SplitMix64 — a 64-bit mixing
//! function with a simple additive state update. It is statistically strong
//! enough for workload generation and deterministic test-case mutation, and
//! its output is fully determined by the seed, which keeps generated
//! databases reproducible across platforms and Rust versions (unlike
//! `rand::StdRng`, whose stream is only stable per rand major version).
//!
//! Not cryptographically secure; do not use for anything security-relevant.

/// SplitMix64 PRNG. Equal seeds produce equal streams, forever.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next raw 64-bit output.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n`. `n` must be nonzero.
    ///
    /// Uses Lemire's multiply-shift reduction with a rejection loop, so the
    /// distribution is exactly uniform (no modulo bias).
    pub fn gen_index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0, "gen_index bound must be nonzero");
        let n = n as u64;
        // Rejection threshold: the smallest k with k * n >= 2^64 - ... —
        // equivalently reject x when x * n's low half < 2^64 % n.
        let zone = n.wrapping_neg() % n;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            if (m as u64) >= zone {
                return (m >> 64) as usize;
            }
        }
    }

    /// A uniform integer in the inclusive range `[lo, hi]`.
    pub fn gen_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi, "gen_i64 range must be non-empty");
        let span = (hi as i128 - lo as i128 + 1) as u64;
        if span == 0 {
            // Full i64 range: every u64 maps to a distinct i64.
            return self.next_u64() as i64;
        }
        lo.wrapping_add(self.gen_index(span as usize) as i64)
    }

    /// A uniform double in `[0, 1)` with 53 bits of precision.
    fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// A reference to a uniformly chosen element of `items`.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.gen_index(items.len())]
    }

    /// A random subsequence of `0..n` with between `min` and `max` elements
    /// (order-preserving, without replacement).
    pub fn subsequence(&mut self, n: usize, min: usize, max: usize) -> Vec<usize> {
        let max = max.min(n);
        let min = min.min(max);
        let take = self.gen_i64(min as i64, max as i64) as usize;
        let mut pool: Vec<usize> = (0..n).collect();
        // Partial Fisher–Yates: draw `take` distinct indices, then restore
        // ascending order.
        for i in 0..take {
            let j = i + self.gen_index(n - i);
            pool.swap(i, j);
        }
        let mut picked = pool[..take].to_vec();
        picked.sort_unstable();
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a: Vec<u64> = (0..8).map(|_| SplitMix64::new(1).next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|_| SplitMix64::new(1).next_u64()).collect();
        assert_eq!(a, b);
        let mut r1 = SplitMix64::new(1);
        let mut r2 = SplitMix64::new(2);
        assert_ne!(r1.next_u64(), r2.next_u64());
    }

    #[test]
    fn known_answer_vector() {
        // Reference outputs for seed 0 (cross-checked against the published
        // SplitMix64 algorithm); guards against accidental stream changes,
        // which would silently alter every generated database.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(r.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SplitMix64::new(42);
        for _ in 0..10_000 {
            let i = r.gen_index(7);
            assert!(i < 7);
            let v = r.gen_i64(-3, 3);
            assert!((-3..=3).contains(&v));
            let f = r.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_index_is_roughly_uniform() {
        let mut r = SplitMix64::new(7);
        let mut counts = [0usize; 5];
        for _ in 0..50_000 {
            counts[r.gen_index(5)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "skewed bucket: {counts:?}");
        }
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut r = SplitMix64::new(9);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.9)).count();
        assert!((8_800..9_200).contains(&hits), "got {hits}");
    }

    #[test]
    fn subsequence_is_sorted_distinct_and_bounded() {
        let mut r = SplitMix64::new(5);
        for _ in 0..1_000 {
            let s = r.subsequence(10, 1, 3);
            assert!(!s.is_empty() && s.len() <= 3);
            assert!(s.windows(2).all(|w| w[0] < w[1]), "{s:?}");
            assert!(s.iter().all(|&i| i < 10));
        }
    }
}
