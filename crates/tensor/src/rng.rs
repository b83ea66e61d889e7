//! Deterministic pseudo-random number generation.
//!
//! The whole reproduction is seeded: model weights, workloads, and K-Means
//! initialisation all draw from [`Rng64`], a xoshiro256** generator seeded via
//! SplitMix64. This keeps every experiment bit-reproducible across runs and
//! platforms, which the test suite relies on.

/// A small, fast, deterministic PRNG (xoshiro256**).
///
/// Not cryptographically secure; statistically solid for simulation use.
#[derive(Debug, Clone)]
pub struct Rng64 {
    state: [u64; 4],
    /// Cached second output of the Box-Muller transform.
    gauss_spare: Option<f64>,
}

#[inline]
fn splitmix64(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng64 {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        let state = [
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
        ];
        Self { state, gauss_spare: None }
    }

    /// Derive an independent child generator; used to give each layer/head
    /// its own stream without coupling draw order across components.
    pub fn fork(&mut self, salt: u64) -> Self {
        let a = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Self::new(a)
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        // Use the top 53 bits for a uniform double.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[lo, hi)`.
    #[inline]
    pub fn uniform_f32(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.uniform() as f32
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "Rng64::below called with n = 0");
        // Multiply-shift bounded sampling (Lemire); bias is negligible for
        // the n used here (≪ 2^32) but we use 128-bit math to be exact-ish.
        let x = self.next_u64();
        ((x as u128 * n as u128) >> 64) as usize
    }

    /// Standard normal via Box-Muller with spare caching.
    pub fn normal(&mut self) -> f64 {
        if let Some(s) = self.gauss_spare.take() {
            return s;
        }
        loop {
            let u = 2.0 * self.uniform() - 1.0;
            let v = 2.0 * self.uniform() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let m = (-2.0 * s.ln() / s).sqrt();
                self.gauss_spare = Some(v * m);
                return u * m;
            }
        }
    }

    /// Normal `f32` with the given mean and standard deviation.
    #[inline]
    pub fn normal_f32(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.normal() as f32
    }

    /// Fill a slice with i.i.d. normal samples scaled by `std`.
    pub fn fill_normal(&mut self, out: &mut [f32], std: f32) {
        for v in out.iter_mut() {
            *v = self.normal_f32(0.0, std);
        }
    }

    /// In-place Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Sample an index from an (unnormalised, non-negative) weight vector.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weighted sample needs positive total weight");
        let mut r = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            r -= w;
            if r <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = Rng64::new(7);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_close_to_half() {
        let mut r = Rng64::new(9);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| r.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_bounds() {
        let mut r = Rng64::new(3);
        for _ in 0..10_000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn below_covers_all_values() {
        let mut r = Rng64::new(4);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[r.below(8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng64::new(11);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng64::new(5);
        let mut p: Vec<usize> = (0..100).collect();
        r.shuffle(&mut p);
        p.sort_unstable();
        assert_eq!(p, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn weighted_prefers_heavy_index() {
        let mut r = Rng64::new(8);
        let w = [0.01, 0.01, 10.0, 0.01];
        let hits = (0..1000).filter(|_| r.weighted(&w) == 2).count();
        assert!(hits > 900, "hits {hits}");
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = Rng64::new(100);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 2);
    }
}
