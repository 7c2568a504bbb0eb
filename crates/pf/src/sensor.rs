//! The beam sensor model with a precomputed probability table.
//!
//! The classic four-component beam model (Thrun et al.): a measured range
//! given an expected range mixes a Gaussian hit, an exponential short-return
//! (unmapped obstacles), a max-range miss, and uniform clutter. Following
//! the MIT racecar particle filter (and `rangelibc`), the model is
//! discretized once into a `(expected, measured)` table so a per-beam
//! evaluation is a single lookup — this is what makes the 1.25 ms sensor
//! update of the paper possible on a CPU.

/// Mixture weights and shape parameters of the beam model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeamModelConfig {
    /// Weight of the Gaussian "hit" component.
    pub z_hit: f64,
    /// Weight of the exponential "short" component (unmapped obstacles).
    pub z_short: f64,
    /// Weight of the max-range component.
    pub z_max: f64,
    /// Weight of the uniform clutter component.
    pub z_rand: f64,
    /// Standard deviation of the hit Gaussian \[m\].
    pub sigma_hit: f64,
    /// Decay rate of the short-return exponential \[1/m\].
    pub lambda_short: f64,
    /// Table resolution \[m\] (typically the map resolution).
    pub resolution: f64,
}

impl Default for BeamModelConfig {
    fn default() -> Self {
        Self {
            z_hit: 0.80,
            z_short: 0.06,
            z_max: 0.05,
            z_rand: 0.09,
            sigma_hit: 0.12,
            lambda_short: 1.2,
            resolution: 0.05,
        }
    }
}

/// The discretized beam sensor model.
///
/// The mixture densities are discretized once into a u16 table
/// (measured-major): each entry stores `round(log p / qscale)` with
/// `qscale = ln(1e-12) / 65535`, so a particle's beam log-likelihoods can
/// be *summed as integers* and converted to a float once per particle.
/// Integer addition is exact and order-free, which is what makes the fused
/// kernel bitwise identical across thread counts without prescribing a
/// float summation order.
///
/// The measured-major layout matches the access pattern of one correction
/// step: the measured bin is fixed per beam across all particles, so each
/// beam reads from a single 402-byte row of the 81 KB table — fully
/// L1/L2-resident.
///
/// # Examples
///
/// ```
/// use raceloc_pf::{BeamModelConfig, BeamSensorModel};
///
/// let model = BeamSensorModel::new(BeamModelConfig::default(), 10.0);
/// // A measurement matching the expectation is more likely than a far-off one.
/// assert!(model.log_prob(5.0, 5.0) > model.log_prob(5.0, 2.0));
/// ```
#[derive(Debug, Clone)]
pub struct BeamSensorModel {
    config: BeamModelConfig,
    max_range: f64,
    bins: usize,
    /// Reciprocal of the table resolution; binning multiplies by this.
    inv_res: f64,
    /// `qtable[measured_bin * bins + expected_bin]` = `round(log p / qscale)`.
    qtable: Vec<u16>,
    /// Log-likelihood per quantization code: `ln(1e-12) / 65535` (negative).
    qscale: f64,
}

/// Calls `sink(expected_bin, measured_bin, log p)` for every table cell,
/// with `log p ∈ [ln 1e-12, 0]` evaluated in f64 from the mixture
/// densities.
fn for_each_log_density(
    config: &BeamModelConfig,
    max_range: f64,
    bins: usize,
    mut sink: impl FnMut(usize, usize, f64),
) {
    let res = config.resolution;
    let norm = 1.0 / ((2.0 * std::f64::consts::PI).sqrt() * config.sigma_hit);
    // Row scratch hoisted out of the expected-bin loop; every element
    // is overwritten each iteration.
    let mut row = vec![0.0f64; bins];
    let mut probs = vec![0.0f64; bins];
    for e in 0..bins {
        let expected = e as f64 * res;
        // Normalize the hit component over the truncated support so each
        // row is a proper distribution.
        let mut hit_mass = 0.0;
        for (m, slot) in row.iter_mut().enumerate() {
            let measured = m as f64 * res;
            let d = measured - expected;
            let hit = norm * (-0.5 * d * d / (config.sigma_hit * config.sigma_hit)).exp();
            hit_mass += hit * res;
            *slot = hit;
        }
        let hit_scale = if hit_mass > 1e-12 {
            1.0 / hit_mass
        } else {
            0.0
        };
        // Short component normalization over [0, expected].
        let short_cdf = 1.0 - (-config.lambda_short * expected).exp();
        let mut mass = 0.0;
        for (m, slot) in probs.iter_mut().enumerate() {
            let measured = m as f64 * res;
            let hit = row[m] * hit_scale * res;
            let short = if measured <= expected && short_cdf > 1e-9 {
                config.lambda_short * (-config.lambda_short * measured).exp() / short_cdf * res
            } else {
                0.0
            };
            let maxr = if m + 1 == bins { 1.0 } else { 0.0 };
            let rand = res / max_range;
            let p = config.z_hit * hit
                + config.z_short * short
                + config.z_max * maxr
                + config.z_rand * rand;
            mass += p;
            *slot = p;
        }
        // Renormalize the row: when expected ≈ 0 the short component has
        // no support and would otherwise leak its mixture weight.
        let scale = if mass > 1e-12 { 1.0 / mass } else { 1.0 };
        for (m, &p) in probs.iter().enumerate() {
            sink(e, m, ((p * scale).max(1e-12)).ln());
        }
    }
}

impl BeamSensorModel {
    /// Precomputes the table for ranges in `[0, max_range]`.
    ///
    /// # Panics
    ///
    /// Panics when `max_range` or the config resolution is not positive, or
    /// when the mixture weights do not sum to ~1.
    pub fn new(config: BeamModelConfig, max_range: f64) -> Self {
        assert!(max_range > 0.0, "max_range must be positive");
        assert!(config.resolution > 0.0, "table resolution must be positive");
        let wsum = config.z_hit + config.z_short + config.z_max + config.z_rand;
        assert!(
            (wsum - 1.0).abs() < 1e-6,
            "mixture weights must sum to 1 (got {wsum})"
        );
        let bins = (max_range / config.resolution).ceil() as usize + 1;
        let mut qtable = vec![0u16; bins * bins];
        let qscale = Self::LOG_FLOOR / f64::from(u16::MAX);
        for_each_log_density(&config, max_range, bins, |e, m, logp| {
            // Transposed (measured-major); `logp ∈ [ln 1e-12, 0]` so the
            // code fits.
            qtable[m * bins + e] = (logp / qscale).round() as u16;
        });
        Self {
            config,
            max_range,
            bins,
            inv_res: 1.0 / config.resolution,
            qtable,
            qscale,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &BeamModelConfig {
        &self.config
    }

    /// Number of range bins per axis.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Heap bytes used by the quantized table.
    pub fn memory_bytes(&self) -> usize {
        self.qtable.len() * std::mem::size_of::<u16>()
    }

    /// The log-probability floor `ln(1e-12)`, the clamp the table rows are
    /// built with: code 65535 decodes to exactly this value.
    const LOG_FLOOR: f64 = -27.631_021_115_928_547;

    #[inline]
    fn bin(&self, r: f64) -> usize {
        ((r.clamp(0.0, self.max_range) * self.inv_res) as usize).min(self.bins - 1)
    }

    /// Log-probability of measuring `measured` when the map predicts
    /// `expected` (both in meters; values are clamped to the table domain),
    /// decoded from the u16 code the correction kernel sums.
    #[inline]
    pub fn log_prob(&self, expected: f64, measured: f64) -> f64 {
        let idx = self.row_offset(measured) + self.expected_bin(expected);
        f64::from(self.code_at(idx)) * self.qscale
    }

    /// Reciprocal of the table resolution, for quantizing expected ranges
    /// to bins outside the model (the `beam_bins_into` fan).
    #[inline]
    pub fn inv_resolution(&self) -> f64 {
        self.inv_res
    }

    /// Largest valid bin index on either table axis.
    #[inline]
    pub fn max_bin(&self) -> u32 {
        (self.bins - 1) as u32
    }

    /// Start offset of a measured range's row in the quantized table.
    /// One lookup per *beam* (not per particle×beam): the row then serves
    /// every particle's expected-bin column reads.
    #[inline]
    pub fn row_offset(&self, measured: f64) -> u32 {
        (self.bin(measured) * self.bins) as u32
    }

    /// Bin index of an expected range — the model's own binning, exposed
    /// for reference implementations.
    #[inline]
    pub fn expected_bin(&self, r: f64) -> u32 {
        self.bin(r) as u32
    }

    /// Quantized-table read by flat index (`row_offset + expected_bin`).
    /// The index is clamped arithmetically, keeping the fused kernel's
    /// inner loop free of panic branches (analysis rule R1-idx); in-contract
    /// callers can never be out of range because both factors are clamped
    /// at construction.
    #[inline]
    pub fn code_at(&self, idx: u32) -> u16 {
        self.qtable[(idx as usize).min(self.qtable.len() - 1)]
    }

    /// Log-likelihood units per quantization code: `ln(1e-12) / 65535`
    /// (negative). A particle's log-weight is
    /// `(Σ beam codes) · quantization_scale() / squash`.
    #[inline]
    pub fn quantization_scale(&self) -> f64 {
        self.qscale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> BeamSensorModel {
        BeamSensorModel::new(BeamModelConfig::default(), 10.0)
    }

    /// The unquantized f32 evaluator, built from the same f64 density loop
    /// as the u16 table: the reference the quantization is checked against.
    struct Oracle {
        /// `table[expected_bin * bins + measured_bin]` = log p(measured | expected).
        table: Vec<f32>,
    }

    impl Oracle {
        fn new(m: &BeamSensorModel) -> Self {
            let bins = m.bins;
            let mut table = vec![0.0f32; bins * bins];
            for_each_log_density(&m.config, m.max_range, bins, |e, me, logp| {
                table[e * bins + me] = logp as f32;
            });
            Self { table }
        }

        fn log_prob(&self, m: &BeamSensorModel, expected: f64, measured: f64) -> f64 {
            f64::from(self.table[m.bin(expected) * m.bins + m.bin(measured)])
        }
    }

    #[test]
    fn peak_at_expected_range() {
        let m = model();
        for expected in [1.0, 3.0, 7.5] {
            let at_peak = m.log_prob(expected, expected);
            for off in [0.5, 1.0, 2.0] {
                assert!(at_peak > m.log_prob(expected, expected + off));
                assert!(at_peak > m.log_prob(expected, (expected - off).max(0.0)));
            }
        }
    }

    #[test]
    fn short_returns_more_likely_than_long() {
        // Unmapped obstacles produce early returns; the model must prefer a
        // 2 m measurement over a 8 m one when 5 m is expected... short side
        // carries the z_short mass.
        let m = model();
        assert!(m.log_prob(5.0, 2.0) > m.log_prob(5.0, 8.0));
    }

    #[test]
    fn max_range_bin_has_extra_mass() {
        let m = model();
        // Expecting 5 m, a max-range miss is far more likely than a random
        // 9.9 m return.
        assert!(m.log_prob(5.0, 10.0) > m.log_prob(5.0, 9.7) + 1.0);
    }

    #[test]
    fn rows_are_normalized() {
        let m = model();
        let oracle = Oracle::new(&m);
        for e in [0usize, 40, 100, 199] {
            let sum: f64 = (0..m.bins())
                .map(|b| f64::from(oracle.table[e * m.bins + b]).exp())
                .sum();
            assert!((sum - 1.0).abs() < 0.05, "row {e} sums to {sum}");
        }
    }

    #[test]
    fn out_of_domain_values_clamp() {
        let m = model();
        assert_eq!(m.log_prob(5.0, 50.0), m.log_prob(5.0, 10.0));
        assert_eq!(m.log_prob(-3.0, 1.0), m.log_prob(0.0, 1.0));
    }

    #[test]
    fn log_probs_are_finite() {
        let m = model();
        for e in 0..20 {
            for me in 0..20 {
                let lp = m.log_prob(e as f64 * 0.5, me as f64 * 0.5);
                assert!(lp.is_finite());
                assert!(lp <= 0.5, "log prob {lp} suspiciously high");
            }
        }
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_weights_panic() {
        BeamSensorModel::new(
            BeamModelConfig {
                z_hit: 0.9,
                z_short: 0.9,
                ..BeamModelConfig::default()
            },
            10.0,
        );
    }

    #[test]
    #[should_panic(expected = "max_range")]
    fn bad_range_panics() {
        BeamSensorModel::new(BeamModelConfig::default(), -1.0);
    }

    #[test]
    fn memory_accounting() {
        let m = model();
        // 2 B/entry u16 quantized table.
        assert_eq!(m.memory_bytes(), m.bins() * m.bins() * 2);
    }

    #[test]
    fn quantized_matches_oracle_within_half_step() {
        let m = model();
        let oracle = Oracle::new(&m);
        let half_step = m.quantization_scale().abs() / 2.0;
        assert!((half_step - 27.631_021 / 65535.0 / 2.0).abs() < 1e-9);
        let mut worst = 0.0f64;
        for e in 0..=40 {
            for me in 0..=40 {
                let (exp, meas) = (e as f64 * 0.25, me as f64 * 0.25);
                let err = (m.log_prob(exp, meas) - oracle.log_prob(&m, exp, meas)).abs();
                worst = worst.max(err);
            }
        }
        // Half a u16 step plus the oracle's own f32 rounding of the f64
        // source density.
        assert!(worst <= half_step + 1e-5, "worst error {worst}");
    }

    #[test]
    fn quantized_accessors_compose_to_the_quantized_evaluator() {
        let m = model();
        for (exp, meas) in [
            (0.0, 0.0),
            (3.2, 3.1),
            (9.9, 10.0),
            (5.0, 0.7),
            (12.0, -1.0),
        ] {
            let idx = m.row_offset(meas) + m.expected_bin(exp);
            let via_codes = f64::from(m.code_at(idx)) * m.quantization_scale();
            assert_eq!(via_codes, m.log_prob(exp, meas));
        }
    }

    #[test]
    fn quantized_preserves_oracle_ordering() {
        // The rankings the filter cares about must survive quantization.
        let m = model();
        let oracle = Oracle::new(&m);
        for ((e1, m1), (e2, m2), margin) in [
            ((5.0, 5.0), (5.0, 2.0), 0.0),
            ((5.0, 2.0), (5.0, 8.0), 0.0),
            ((5.0, 10.0), (5.0, 9.7), 1.0),
        ] {
            assert!(oracle.log_prob(&m, e1, m1) > oracle.log_prob(&m, e2, m2) + margin);
            assert!(m.log_prob(e1, m1) > m.log_prob(e2, m2) + margin);
        }
    }

    #[test]
    fn code_index_clamp_is_total() {
        let m = model();
        let last = (m.bins() * m.bins() - 1) as u32;
        assert_eq!(m.code_at(u32::MAX), m.code_at(last));
    }

    #[test]
    fn integer_beam_sum_equals_per_beam_decode_sum_scaled() {
        // The kernel's weight formula: summing codes then scaling once is
        // exactly Σ (code·qscale) when done in this order.
        let m = model();
        let beams = [(1.0, 1.2), (3.0, 2.9), (7.7, 10.0), (4.4, 0.3)];
        let mut acc: u64 = 0;
        for &(e, me) in &beams {
            acc += u64::from(m.code_at(m.row_offset(me) + m.expected_bin(e)));
        }
        let lw = acc as f64 * m.quantization_scale();
        let per_code: f64 = beams
            .iter()
            .map(|&(e, me)| f64::from(m.code_at(m.row_offset(me) + m.expected_bin(e))))
            .sum::<f64>()
            * m.quantization_scale();
        assert!((lw - per_code).abs() < 1e-12);
        assert!(lw < 0.0);
    }
}
