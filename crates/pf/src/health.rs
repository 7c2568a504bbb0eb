//! Divergence-detector policy for the SynPF health state machine
//! (DESIGN.md §12).
//!
//! When [`SynPfConfig::health`](crate::SynPfConfig::health) is set, every
//! correction is reduced to a [`raceloc_core::HealthSignal`] by three
//! detectors —
//!
//! - **likelihood z-score**: the per-step mean squashed log-likelihood is
//!   tracked with EMA mean/variance; a score far below its running mean
//!   means the scan no longer explains the cloud (kidnap, aliasing);
//! - **ESS collapse**: the pre-resample effective sample size dropping to
//!   a tiny fraction of the particle count means the weights have
//!   degenerated onto a handful of hypotheses;
//! - **covariance blow-up**: a large position-covariance trace means the
//!   cloud has dispersed and the point estimate should not be trusted
//!   (a Suspect vote only — a wide cloud with healthy likelihood is
//!   injection recovery in progress, not divergence); the augmented-MCL
//!   `w_fast/w_slow` ratio corroborates likelihood collapse —
//!
//! and debounced through a [`raceloc_core::HealthMonitor`]. On `Lost`, the
//! filter re-initializes globally over free space (when
//! [`SynPf::enable_recovery`](crate::SynPf::enable_recovery) supplied a
//! map) and reports `Recovering` until the detectors settle.

use raceloc_core::HealthConfig;

use crate::config::ConfigError;

/// Detector thresholds and degraded-mode behavior of the SynPF health
/// machine. `Default` is tuned for the paper's 40 Hz F1TENTH loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthPolicy {
    /// Streak thresholds of the underlying state machine.
    pub monitor: HealthConfig,
    /// Z-score below `-z_suspect` votes Suspect.
    pub z_suspect: f64,
    /// Z-score below `-z_lost` votes Diverged.
    pub z_lost: f64,
    /// Floor on the EMA likelihood σ used for the z-score, in squashed
    /// log-likelihood units: keeps noiseless scans from producing infinite
    /// z-scores out of numerically tiny variance.
    pub z_sigma_floor: f64,
    /// Pre-resample `ESS / particles` below this votes Suspect.
    pub ess_suspect_frac: f64,
    /// Position-covariance trace \[m²\] above this votes Suspect. The
    /// covariance detector never votes Diverged on its own: a dispersed
    /// cloud whose likelihood is healthy is augmented-MCL injection
    /// mid-recovery, and forcing Lost there would re-scatter a filter
    /// that is about to converge.
    pub cov_suspect_m2: f64,
    /// Detector-internal `fast / slow` likelihood ratio below this votes
    /// Diverged. The detector keeps its own EMA pair (rates below) so the
    /// vote works even when augmented-MCL injection is disabled or tuned
    /// aggressively enough to mask the collapse.
    pub ratio_lost: f64,
    /// Slow EMA rate of the detector's likelihood-ratio tracker.
    pub ratio_alpha_slow: f64,
    /// Fast EMA rate of the detector's likelihood-ratio tracker; must be
    /// strictly greater than [`ratio_alpha_slow`](Self::ratio_alpha_slow).
    pub ratio_alpha_fast: f64,
    /// EMA rate for the likelihood mean/variance tracker.
    pub ema_alpha: f64,
    /// Corrections before the detectors may vote (the EMAs must learn the
    /// nominal likelihood level first).
    pub warmup_steps: u32,
    /// Scans older than this relative to the latest odometry \[s\] are
    /// rejected (stale-input rejection): the step returns the last scored
    /// estimate while `predict` keeps moving the particles (ROADMAP item 2).
    pub max_scan_age: f64,
    /// Re-initialize globally over free space when Lost is entered
    /// (requires the recovery map from
    /// [`SynPf::enable_recovery`](crate::SynPf::enable_recovery)).
    pub auto_reinit: bool,
    /// Corrections after a re-init during which the detectors are muted:
    /// a freshly scattered cloud legitimately has a huge covariance.
    pub reinit_holdoff: u32,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        Self {
            monitor: HealthConfig::default(),
            z_suspect: 2.5,
            z_lost: 6.0,
            z_sigma_floor: 0.15,
            ess_suspect_frac: 0.02,
            cov_suspect_m2: 0.5,
            ratio_lost: 0.15,
            ratio_alpha_slow: 0.01,
            ratio_alpha_fast: 0.3,
            ema_alpha: 0.05,
            warmup_steps: 20,
            max_scan_age: 0.15,
            auto_reinit: true,
            reinit_holdoff: 30,
        }
    }
}

impl HealthPolicy {
    /// Validates the thresholds: z/covariance bounds must be finite,
    /// positive, and correctly ordered; `ema_alpha` in `(0, 1]`.
    pub fn validated(self) -> Result<Self, ConfigError> {
        let err = |field: &'static str, reason: &'static str| ConfigError { field, reason };
        let pos = |field: &'static str, v: f64| -> Result<(), ConfigError> {
            if !v.is_finite() {
                Err(err(field, "must be finite"))
            } else if v <= 0.0 {
                Err(err(field, "must be positive"))
            } else {
                Ok(())
            }
        };
        pos("health.z_suspect", self.z_suspect)?;
        pos("health.z_lost", self.z_lost)?;
        pos("health.z_sigma_floor", self.z_sigma_floor)?;
        pos("health.cov_suspect_m2", self.cov_suspect_m2)?;
        pos("health.ratio_lost", self.ratio_lost)?;
        pos("health.ratio_alpha_slow", self.ratio_alpha_slow)?;
        pos("health.ratio_alpha_fast", self.ratio_alpha_fast)?;
        pos("health.ema_alpha", self.ema_alpha)?;
        pos("health.max_scan_age", self.max_scan_age)?;
        if self.z_lost < self.z_suspect {
            return Err(err("health.z_lost", "must be at least z_suspect"));
        }
        if self.ema_alpha > 1.0 {
            return Err(err("health.ema_alpha", "must be at most 1"));
        }
        if self.ratio_alpha_fast > 1.0 {
            return Err(err("health.ratio_alpha_fast", "must be at most 1"));
        }
        if self.ratio_alpha_slow >= self.ratio_alpha_fast {
            return Err(err(
                "health.ratio_alpha_slow",
                "must be smaller than ratio_alpha_fast",
            ));
        }
        if !(0.0..=1.0).contains(&self.ess_suspect_frac) {
            return Err(err("health.ess_suspect_frac", "must be within [0, 1]"));
        }
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_validates() {
        assert!(HealthPolicy::default().validated().is_ok());
    }

    #[test]
    fn inverted_thresholds_rejected() {
        let p = HealthPolicy {
            z_lost: 1.0,
            z_suspect: 2.0,
            ..HealthPolicy::default()
        };
        assert_eq!(p.validated().unwrap_err().field, "health.z_lost");
    }

    #[test]
    fn bad_scalars_rejected() {
        let p = HealthPolicy {
            ema_alpha: 0.0,
            ..HealthPolicy::default()
        };
        assert!(p.validated().is_err());
        let p = HealthPolicy {
            max_scan_age: f64::NAN,
            ..HealthPolicy::default()
        };
        assert!(p.validated().is_err());
        let p = HealthPolicy {
            ess_suspect_frac: 1.5,
            ..HealthPolicy::default()
        };
        assert!(p.validated().is_err());
        let p = HealthPolicy {
            ratio_alpha_slow: 0.3,
            ratio_alpha_fast: 0.3,
            ..HealthPolicy::default()
        };
        assert_eq!(p.validated().unwrap_err().field, "health.ratio_alpha_slow");
    }
}
