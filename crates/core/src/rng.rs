//! Deterministic pseudo-random number generation.
//!
//! Every stochastic component of the workspace (tire noise, sensor noise,
//! particle sampling, resampling) draws from [`Rng64`], a xoshiro256\*\*
//! generator seeded via SplitMix64. Identical seeds yield bit-identical
//! experiment runs on every platform, which is what makes the paper
//! reproduction harness deterministic.

use crate::stream_keys::StreamKey;

/// A deterministic xoshiro256\*\* pseudo-random generator.
///
/// # Examples
///
/// ```
/// use raceloc_core::Rng64;
///
/// let mut a = Rng64::new(42);
/// let mut b = Rng64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed (expanded via SplitMix64).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        // SplitMix64 cannot produce an all-zero expansion for any seed, but
        // guard anyway: xoshiro must never be seeded with all zeros.
        let s = if s == [0; 4] { [1, 2, 3, 4] } else { s };
        Self { s }
    }

    /// Creates the counter-derived generator of stream `key` for a seed.
    ///
    /// Unlike [`Rng64::fork`], which advances the parent generator, this is
    /// a pure function of `(seed, key)` — the basis for deterministic
    /// parallel sampling: each chunk of a batch draws from
    /// `Rng64::stream(seed, stream_keys::pf_motion(epoch, chunk))`, so the
    /// noise applied to any item depends only on the chunk layout, never on
    /// which worker thread runs the chunk or in what order. Keys come only
    /// from the [`stream_keys`](crate::stream_keys) registry, whose regions
    /// are proven disjoint at compile time.
    ///
    /// The stream index is diffused with an odd 64-bit constant (the
    /// golden-ratio multiplier already used by SplitMix64) before being
    /// XOR-folded into the seed, so adjacent stream indices land in
    /// well-separated regions of the seed space.
    ///
    /// # Examples
    ///
    /// ```
    /// use raceloc_core::{stream_keys, Rng64};
    /// let mut a = Rng64::stream(7, stream_keys::bench_driver(0));
    /// let mut b = Rng64::stream(7, stream_keys::bench_driver(1));
    /// assert_ne!(a.next_u64(), b.next_u64());
    /// // Pure: reconstructing the stream replays it exactly.
    /// let key = stream_keys::bench_driver(0);
    /// assert_eq!(Rng64::stream(7, key).next_u64(), Rng64::stream(7, key).next_u64());
    /// ```
    pub fn stream(seed: u64, key: StreamKey) -> Self {
        // `stream + 1` so stream 0 still perturbs the seed, keeping
        // `stream(seed, 0)` distinct from `new(seed)` callers elsewhere.
        let stream = key.get();
        Self::new(seed ^ (stream.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Derives an independent child generator (for per-subsystem streams).
    ///
    /// # Examples
    ///
    /// ```
    /// use raceloc_core::Rng64;
    /// let mut root = Rng64::new(7);
    /// let mut lidar = root.fork();
    /// let mut tires = root.fork();
    /// assert_ne!(lidar.next_u64(), tires.next_u64());
    /// ```
    pub fn fork(&mut self) -> Rng64 {
        Rng64::new(self.next_u64())
    }

    /// Returns the next raw 64-bit output.
    #[inline]
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

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `lo > hi`.
    #[inline]
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi, "uniform_range: lo {lo} > hi {hi}");
        lo + (hi - lo) * self.uniform()
    }

    /// A uniform integer in `[0, n)` using Lemire's unbiased method.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    #[inline]
    pub fn uniform_usize(&mut self, n: usize) -> usize {
        assert!(n > 0, "uniform_usize: n must be positive");
        let n = n as u64;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            let l = m as u64;
            if l >= n {
                return (m >> 64) as usize;
            }
            // Rejection zone for exact uniformity.
            let t = n.wrapping_neg() % n;
            if l >= t {
                return (m >> 64) as usize;
            }
        }
    }

    /// A standard normal sample (256-layer ziggurat).
    ///
    /// The common case consumes one raw 64-bit output and costs two table
    /// loads and a compare; wedge and tail cases (≈ 2 % of draws) fall back
    /// to rejection sampling with `exp`/`ln`. The layer tables are built
    /// once per process (see `zig_tables`) and shared by every generator,
    /// so the stream remains a pure function of the seed.
    #[inline]
    pub fn gaussian(&mut self) -> f64 {
        let t = zig_tables();
        loop {
            let bits = self.next_u64();
            let i = (bits & 0xFF) as usize;
            let u = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            let x = u * t.x[i];
            if x < t.x[i + 1] {
                // Strictly inside the layer's rectangle: accept directly.
                return if bits & 0x100 != 0 { -x } else { x };
            }
            if i == 0 {
                // Base layer overflow: sample the tail beyond r (Marsaglia,
                // 1964). `uniform()` may return 0; `ln(0) = -∞` makes the
                // acceptance test fail and simply retries.
                let r = t.x[1];
                loop {
                    let tx = -self.uniform().ln() / r;
                    let ty = -self.uniform().ln();
                    if ty + ty > tx * tx {
                        let v = r + tx;
                        return if bits & 0x100 != 0 { -v } else { v };
                    }
                }
            }
            // Wedge between the rectangle and the density curve: uniform
            // height in the layer's y-band, accept under the curve.
            let y = t.f[i + 1] + (t.f[i] - t.f[i + 1]) * self.uniform();
            if y < (-0.5 * x * x).exp() {
                return if bits & 0x100 != 0 { -x } else { x };
            }
        }
    }

    /// A normal sample with the given mean and standard deviation.
    ///
    /// A non-positive `sigma` returns `mean` exactly, which lets callers
    /// disable a noise source by zeroing its parameter.
    #[inline]
    pub fn gaussian_with(&mut self, mean: f64, sigma: f64) -> f64 {
        if sigma <= 0.0 {
            mean
        } else {
            mean + sigma * self.gaussian()
        }
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Samples an index from an unnormalized weight slice.
    ///
    /// Returns `None` when the slice is empty or the total weight is not
    /// positive/finite.
    pub fn weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().sum();
        if weights.is_empty() || total <= 0.0 || total.is_nan() || !total.is_finite() {
            return None;
        }
        let mut target = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            target -= w;
            if target < 0.0 {
                return Some(i);
            }
        }
        Some(weights.len() - 1)
    }
}

impl Default for Rng64 {
    fn default() -> Self {
        Self::new(0)
    }
}

/// Layer tables for the ziggurat gaussian sampler.
///
/// `x[i]` is the right edge of layer `i`'s rectangle (decreasing from the
/// widened base `x[0] = v / f(r)` through the tail cut `x[1] = r` down to
/// `x[256] = 0`); `f[i] = exp(-x[i]²/2)` is the density at that edge.
struct ZigTables {
    x: [f64; 257],
    f: [f64; 257],
}

/// Builds the 256-layer ziggurat tables on first use.
///
/// Rather than hard-coding the published tail-cut and layer-area decimals,
/// the cut `r` is found by bisection: each candidate computes the layer
/// area `v = r·f(r) + ∫ᵣ^∞ f` (Simpson) and stacks the layers; the correct
/// `r` is the one whose 256th layer closes exactly at the density's peak.
/// The construction is deterministic, so every process derives bit-equal
/// tables and sampled streams stay a pure function of the seed.
fn zig_tables() -> &'static ZigTables {
    use std::sync::OnceLock;
    static TABLES: OnceLock<ZigTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let pdf = |t: f64| (-0.5 * t * t).exp();
        // Upper-tail mass of the unnormalized density over [r, r + 14]
        // (the remainder beyond +14 is below 1e-40), Simpson's rule.
        let tail = |r: f64| {
            let n = 2000;
            let h = 14.0 / n as f64;
            let mut s = pdf(r) + pdf(r + 14.0);
            for j in 1..n {
                s += pdf(r + j as f64 * h) * if j % 2 == 1 { 4.0 } else { 2.0 };
            }
            s * h / 3.0
        };
        // Stacks the layers for a candidate cut and reports how far the
        // topmost layer lands from the peak f(0) = 1 (signed closure
        // error; early overshoot short-circuits with the positive error).
        let closure_err = |r: f64, x: &mut [f64; 257]| -> f64 {
            let v = r * pdf(r) + tail(r);
            x[0] = v / pdf(r);
            x[1] = r;
            for i in 2..=256 {
                let t = v / x[i - 1] + pdf(x[i - 1]);
                if t >= 1.0 {
                    return t - 1.0;
                }
                x[i] = (-2.0 * t.ln()).sqrt();
            }
            let t = v / x[255] + pdf(x[255]);
            x[256] = 0.0;
            t - 1.0
        };
        let mut x = [0.0; 257];
        let (mut lo, mut hi) = (3.0f64, 4.0f64);
        debug_assert!(closure_err(lo, &mut x) > 0.0 && closure_err(hi, &mut x) < 0.0);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if closure_err(mid, &mut x) > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let err = closure_err(hi, &mut x);
        assert!(
            err.abs() < 1e-9,
            "ziggurat table construction failed to close: {err}"
        );
        let mut f = [0.0; 257];
        for i in 0..257 {
            f[i] = pdf(x[i]);
        }
        ZigTables { x, f }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream_keys;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng64::new(123);
        let mut b = Rng64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = Rng64::new(5);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut r = Rng64::new(9);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "{mean}");
    }

    #[test]
    fn uniform_usize_covers_all_buckets() {
        let mut r = Rng64::new(11);
        let mut counts = [0usize; 7];
        for _ in 0..7_000 {
            counts[r.uniform_usize(7)] += 1;
        }
        for &c in &counts {
            assert!(c > 700, "bucket too small: {counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn uniform_usize_zero_panics() {
        Rng64::new(0).uniform_usize(0);
    }

    #[test]
    fn gaussian_moments() {
        let mut r = Rng64::new(21);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| r.gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean={mean}");
        assert!((var - 1.0).abs() < 0.02, "var={var}");
    }

    #[test]
    fn gaussian_with_zero_sigma_is_mean() {
        let mut r = Rng64::new(3);
        assert_eq!(r.gaussian_with(4.2, 0.0), 4.2);
        assert_eq!(r.gaussian_with(4.2, -1.0), 4.2);
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = Rng64::new(17);
        assert!(!(0..100).any(|_| r.bernoulli(0.0)));
        assert!((0..100).all(|_| r.bernoulli(1.0)));
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = Rng64::new(31);
        let w = [0.0, 10.0, 0.0];
        for _ in 0..100 {
            assert_eq!(r.weighted_index(&w), Some(1));
        }
    }

    #[test]
    fn weighted_index_degenerate() {
        let mut r = Rng64::new(31);
        assert_eq!(r.weighted_index(&[]), None);
        assert_eq!(r.weighted_index(&[0.0, 0.0]), None);
        assert_eq!(r.weighted_index(&[f64::INFINITY]), None);
    }

    #[test]
    fn stream_is_a_pure_function_of_seed_and_index() {
        for stream in [
            stream_keys::bench_driver(0),
            stream_keys::bench_driver(1),
            stream_keys::bench_driver(17),
            stream_keys::eval_world_cell(0xFFFF, 0xFF, 0xFF, u32::MAX),
        ] {
            let mut a = Rng64::stream(42, stream);
            let mut b = Rng64::stream(42, stream);
            for _ in 0..32 {
                assert_eq!(a.next_u64(), b.next_u64());
            }
        }
    }

    #[test]
    fn stream_indices_are_decorrelated() {
        let mut a = Rng64::stream(42, stream_keys::bench_driver(0));
        let mut b = Rng64::stream(42, stream_keys::bench_driver(1));
        let matches = (0..1000)
            .filter(|_| (a.uniform() - b.uniform()).abs() < 1e-3)
            .count();
        assert!(matches < 50);
    }

    #[test]
    fn stream_zero_differs_from_plain_seeding() {
        assert_ne!(
            Rng64::stream(42, stream_keys::bench_driver(0)),
            Rng64::new(42)
        );
    }

    #[test]
    fn fork_streams_are_decorrelated() {
        let mut root = Rng64::new(99);
        let mut a = root.fork();
        let mut b = root.fork();
        let matches = (0..1000)
            .filter(|_| (a.uniform() - b.uniform()).abs() < 1e-3)
            .count();
        assert!(matches < 50);
    }
}
