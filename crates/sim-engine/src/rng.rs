//! Deterministic pseudo-random number generation.
//!
//! Every random draw in the workspace flows from a single `u64` seed through
//! this module, so an experiment is exactly reproducible from its seed on any
//! platform and any compiler version. We implement the generator ourselves
//! (xoshiro256** seeded via SplitMix64) instead of relying on an external
//! crate's stream, because external streams may change between crate
//! versions, which would silently change every figure.
//!
//! xoshiro256** is the general-purpose recommendation of Blackman & Vigna:
//! 256 bits of state, period 2^256−1, passes BigCrush, and is a handful of
//! shift/rotate instructions per draw.

use crate::time::Duration;

/// SplitMix64 step; used to expand a 64-bit seed into generator state and to
/// derive independent child streams.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256** generator.
///
/// ```
/// use sim_engine::rng::Rng;
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second output of the last Box–Muller transform.
    gauss_spare: Option<f64>,
}

impl Rng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng {
            s,
            gauss_spare: None,
        }
    }

    /// Derive an independent child generator.
    ///
    /// The child stream is a deterministic function of the parent seed state
    /// and `stream`; different `stream` values give statistically independent
    /// generators. Used to give each simulated component (PHY loss, DHCP
    /// delays, workload arrivals, …) its own stream so that adding draws in
    /// one component does not perturb another.
    pub fn fork(&mut self, stream: u64) -> Rng {
        let mut sm = self.next_u64() ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng {
            s,
            gauss_spare: None,
        }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// Uses Lemire's multiply-shift rejection method: unbiased and cheap.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "Rng::below: n must be positive");
        // Lemire 2019: unbiased bounded generation.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "Rng::range_u64: empty range [{lo}, {hi})");
        lo + self.below(hi - lo)
    }

    /// Uniform integer in `[0, n)` as `usize` (for indexing).
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Uniform float in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if the range is empty or not finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo < hi && lo.is_finite() && hi.is_finite(),
            "Rng::range_f64: bad range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.f64()
    }

    /// Bernoulli draw: `true` with probability `p`.
    ///
    /// `p` outside `[0, 1]` is clamped (a loss rate of 1.2 means "always").
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Exponentially distributed float with the given mean.
    ///
    /// # Panics
    /// Panics if `mean` is not positive and finite.
    pub fn exp(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0 && mean.is_finite(), "Rng::exp: bad mean {mean}");
        // Inverse CDF; 1 - f64() is in (0, 1] so ln() is finite.
        -mean * (1.0 - self.f64()).ln()
    }

    /// Standard-normal draw via the Box–Muller transform (cached pair).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // Box–Muller on (0,1] × [0,1) uniforms.
        let u1 = 1.0 - self.f64();
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = core::f64::consts::TAU * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal draw with mean `mu` and standard deviation `sigma`.
    ///
    /// # Panics
    /// Panics if `sigma` is negative or not finite.
    pub fn normal(&mut self, mu: f64, sigma: f64) -> f64 {
        assert!(
            sigma >= 0.0 && sigma.is_finite(),
            "Rng::normal: bad sigma {sigma}"
        );
        mu + sigma * self.standard_normal()
    }

    /// Log-normal draw where the *underlying* normal has mean `mu` and
    /// standard deviation `sigma`.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Pareto draw with scale `xm > 0` and shape `alpha > 0`.
    pub fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        assert!(
            xm > 0.0 && alpha > 0.0,
            "Rng::pareto: bad parameters xm={xm} alpha={alpha}"
        );
        xm / (1.0 - self.f64()).powf(1.0 / alpha)
    }

    /// Uniform [`Duration`] in `[lo, hi)`, at nanosecond granularity.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn duration_between(&mut self, lo: Duration, hi: Duration) -> Duration {
        assert!(lo < hi, "Rng::duration_between: empty range [{lo}, {hi})");
        Duration::from_nanos(self.range_u64(lo.as_nanos(), hi.as_nanos()))
    }

    /// Pick a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "Rng::choose: empty slice");
        &items[self.index(items.len())]
    }

    /// Fisher–Yates shuffle, in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Sample an index according to the given non-negative weights.
    ///
    /// # Panics
    /// Panics if weights are empty, contain a negative entry, or sum to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "Rng::weighted_index: empty weights");
        let total: f64 = weights
            .iter()
            .map(|&w| {
                assert!(
                    w >= 0.0 && w.is_finite(),
                    "Rng::weighted_index: bad weight {w}"
                );
                w
            })
            .sum();
        assert!(total > 0.0, "Rng::weighted_index: weights sum to zero");
        let mut x = self.f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1 // float round-off fallback
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn forked_streams_are_independent_and_deterministic() {
        let mut parent1 = Rng::new(99);
        let mut parent2 = Rng::new(99);
        let mut c1 = parent1.fork(5);
        let mut c2 = parent2.fork(5);
        for _ in 0..32 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
        let mut other = Rng::new(99).fork(6);
        assert_ne!(c1.next_u64(), other.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::new(3);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x), "f64 out of range: {x}");
        }
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut rng = Rng::new(4);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[rng.below(10) as usize] += 1;
        }
        for &c in &counts {
            // Expect 10_000 each; allow ±5 %.
            assert!((9_500..10_500).contains(&c), "bucket count {c} not uniform");
        }
    }

    #[test]
    fn range_endpoints_respected() {
        let mut rng = Rng::new(5);
        for _ in 0..1_000 {
            let v = rng.range_u64(10, 20);
            assert!((10..20).contains(&v));
            let f = rng.range_f64(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&f));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::new(6);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    #[test]
    fn chance_probability_close() {
        let mut rng = Rng::new(8);
        let hits = (0..100_000).filter(|_| rng.chance(0.3)).count();
        let p = hits as f64 / 100_000.0;
        assert!((p - 0.3).abs() < 0.01, "empirical p = {p}");
    }

    #[test]
    fn exp_mean_close() {
        let mut rng = Rng::new(9);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| rng.exp(2.5)).sum();
        let mean = sum / n as f64;
        assert!((mean - 2.5).abs() < 0.05, "empirical mean = {mean}");
    }

    #[test]
    fn normal_moments_close() {
        let mut rng = Rng::new(10);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(1.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn pareto_is_at_least_scale() {
        let mut rng = Rng::new(11);
        for _ in 0..10_000 {
            assert!(rng.pareto(1.5, 2.0) >= 1.5);
        }
    }

    #[test]
    fn duration_between_in_range() {
        let mut rng = Rng::new(12);
        let lo = Duration::from_millis(500);
        let hi = Duration::from_secs(10);
        for _ in 0..1_000 {
            let d = rng.duration_between(lo, hi);
            assert!(d >= lo && d < hi);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::new(13);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn weighted_index_prefers_heavier() {
        let mut rng = Rng::new(14);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.25, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Rng::new(0).range_u64(5, 5);
    }
}
