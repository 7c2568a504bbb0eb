//! Validating builders for the filter configurations.
//!
//! `SynPfConfig { particles: 0, .. }` compiles and only explodes when the
//! filter is constructed (or worse, silently misbehaves: a NaN noise term
//! poisons every particle weight without panicking). The builders move
//! those checks to configuration time:
//!
//! ```
//! use raceloc_pf::SynPfConfig;
//!
//! let config = SynPfConfig::builder()
//!     .particles(500)
//!     .threads(2)
//!     .build()
//!     .expect("valid configuration");
//! assert_eq!(config.particles, 500);
//! assert!(SynPfConfig::builder().particles(0).build().is_err());
//! ```
//!
//! The plain structs stay public with `Default` impls, so struct-literal
//! construction keeps working; [`SynPfConfig::validated`] applies the same
//! checks to a hand-built value.

use std::fmt;

use crate::filter::{MotionConfig, RecoveryConfig, SynPfConfig};

/// A rejected configuration value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending field, dotted-path style (e.g. `"kld.min_particles"`).
    pub field: &'static str,
    /// Why the value was rejected.
    pub reason: &'static str,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid config: {} {}", self.field, self.reason)
    }
}

impl std::error::Error for ConfigError {}

fn err(field: &'static str, reason: &'static str) -> ConfigError {
    ConfigError { field, reason }
}

/// `v` must be a finite, strictly positive number.
fn check_positive(field: &'static str, v: f64) -> Result<(), ConfigError> {
    if !v.is_finite() {
        Err(err(field, "must be finite"))
    } else if v <= 0.0 {
        Err(err(field, "must be positive"))
    } else {
        Ok(())
    }
}

/// `v` must be finite and non-negative (σ-style noise term; NaN rejected).
fn check_noise(field: &'static str, v: f64) -> Result<(), ConfigError> {
    if !v.is_finite() {
        Err(err(field, "must be a finite noise term"))
    } else if v < 0.0 {
        Err(err(field, "must be non-negative"))
    } else {
        Ok(())
    }
}

impl RecoveryConfig {
    /// Starts a validating builder seeded with the defaults.
    pub fn builder() -> RecoveryConfigBuilder {
        RecoveryConfigBuilder(Self::default())
    }

    /// Validates a hand-built value (what [`RecoveryConfigBuilder::build`]
    /// calls): both EMA rates must be finite, in `(0, 1]`, and satisfy
    /// `alpha_slow < alpha_fast` — the augmented-MCL premise is that the
    /// short-term average reacts faster than the long-term one.
    pub fn validated(self) -> Result<Self, ConfigError> {
        check_positive("recovery.alpha_slow", self.alpha_slow)?;
        check_positive("recovery.alpha_fast", self.alpha_fast)?;
        if self.alpha_slow > 1.0 {
            return Err(err("recovery.alpha_slow", "must be at most 1"));
        }
        if self.alpha_fast > 1.0 {
            return Err(err("recovery.alpha_fast", "must be at most 1"));
        }
        if self.alpha_slow >= self.alpha_fast {
            return Err(err(
                "recovery.alpha_slow",
                "must be smaller than alpha_fast",
            ));
        }
        Ok(self)
    }
}

/// Builder for [`RecoveryConfig`]; see [`RecoveryConfig::builder`].
#[derive(Debug, Clone)]
pub struct RecoveryConfigBuilder(RecoveryConfig);

impl RecoveryConfigBuilder {
    /// Long-term likelihood EMA rate. Must be *strictly* smaller than
    /// [`alpha_fast`](Self::alpha_fast): equal rates make the injection
    /// probability `1 - w_fast/w_slow` identically zero, silently disabling
    /// recovery, so [`build`](Self::build) rejects `alpha_slow ==
    /// alpha_fast` as well as the inverted ordering.
    pub fn alpha_slow(mut self, v: f64) -> Self {
        self.0.alpha_slow = v;
        self
    }

    /// Short-term likelihood EMA rate. Must be *strictly* greater than
    /// [`alpha_slow`](Self::alpha_slow); see there for why the boundary
    /// `alpha_slow == alpha_fast` is rejected too.
    pub fn alpha_fast(mut self, v: f64) -> Self {
        self.0.alpha_fast = v;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<RecoveryConfig, ConfigError> {
        self.0.validated()
    }
}

impl crate::kld::KldConfig {
    /// Validates a hand-built value: positive, non-inverted particle
    /// bounds; strictly positive `epsilon` and bin sizes; finite
    /// `z_quantile`. An inconsistent KLD config otherwise silently
    /// misbehaves (e.g. `min_particles > max_particles` makes the clamp
    /// in `required_particles` collapse every adaptation to the minimum).
    pub fn validated(self) -> Result<Self, ConfigError> {
        if self.min_particles == 0 {
            return Err(err("kld.min_particles", "must be positive"));
        }
        if self.min_particles > self.max_particles {
            return Err(err(
                "kld.min_particles",
                "must not exceed kld.max_particles",
            ));
        }
        check_positive("kld.epsilon", self.epsilon)?;
        check_positive("kld.bin_xy", self.bin_xy)?;
        check_positive("kld.bin_theta", self.bin_theta)?;
        if !self.z_quantile.is_finite() {
            return Err(err("kld.z_quantile", "must be finite"));
        }
        Ok(self)
    }
}

impl SynPfConfig {
    /// Starts a validating builder seeded with the defaults.
    pub fn builder() -> SynPfConfigBuilder {
        SynPfConfigBuilder(Self::default())
    }

    /// Validates a hand-built value (what [`SynPfConfigBuilder::build`]
    /// calls). Rejects non-positive particle counts, NaN noise terms,
    /// inverted KLD bounds, zero threads, and out-of-range fractions.
    pub fn validated(self) -> Result<Self, ConfigError> {
        if self.particles == 0 {
            return Err(err("particles", "must be positive"));
        }
        check_positive("squash", self.squash)?;
        if !self.resample_ess_frac.is_finite() || !(0.0..=1.0).contains(&self.resample_ess_frac) {
            return Err(err("resample_ess_frac", "must be within [0, 1]"));
        }
        check_noise("init_sigma_xy", self.init_sigma_xy)?;
        check_noise("init_sigma_theta", self.init_sigma_theta)?;
        if !(self.lidar_mount.x.is_finite()
            && self.lidar_mount.y.is_finite()
            && self.lidar_mount.theta.is_finite())
        {
            return Err(err("lidar_mount", "must be finite"));
        }
        if self.threads == 0 {
            return Err(err("threads", "must be at least 1"));
        }
        match self.motion {
            MotionConfig::DiffDrive(m) => {
                check_noise("motion.alpha1", m.alpha1)?;
                check_noise("motion.alpha2", m.alpha2)?;
                check_noise("motion.alpha3", m.alpha3)?;
                check_noise("motion.alpha4", m.alpha4)?;
            }
            MotionConfig::Tum(m) => {
                check_noise("motion.sigma_v_rel", m.sigma_v_rel)?;
                check_noise("motion.sigma_v_abs", m.sigma_v_abs)?;
                check_noise("motion.sigma_omega_0", m.sigma_omega_0)?;
                check_noise("motion.sigma_pos", m.sigma_pos)?;
                check_positive("motion.v_char", m.v_char)?;
                check_positive("motion.a_lat_max", m.a_lat_max)?;
            }
        }
        if let Some(kld) = self.kld {
            kld.validated()?;
        }
        if let Some(rec) = self.recovery {
            rec.validated()?;
        }
        if let Some(health) = self.health {
            health.validated()?;
        }
        if let Some(deadline) = self.deadline {
            deadline.validated().map_err(|e| {
                err(
                    // The error paths below are config field names, not
                    // telemetry counters — they only share the prefix.
                    match e.field {
                        "upgrade_streak" => "deadline.upgrade_streak",
                        "headroom_pct" => "deadline.headroom_pct",
                        _ => "deadline.cost.per_particle_units",
                    },
                    e.reason,
                )
            })?;
        }
        Ok(self)
    }
}

/// Builder for [`SynPfConfig`]; see [`SynPfConfig::builder`].
#[derive(Debug, Clone)]
pub struct SynPfConfigBuilder(SynPfConfig);

impl SynPfConfigBuilder {
    /// Number of particles (initial count under KLD adaptation).
    pub fn particles(mut self, v: usize) -> Self {
        self.0.particles = v;
        self
    }

    /// Beam subsampling layout.
    pub fn layout(mut self, v: crate::layout::ScanLayout) -> Self {
        self.0.layout = v;
        self
    }

    /// Beam sensor-model parameters.
    pub fn beam_model(mut self, v: crate::sensor::BeamModelConfig) -> Self {
        self.0.beam_model = v;
        self
    }

    /// Log-likelihood squash divisor.
    pub fn squash(mut self, v: f64) -> Self {
        self.0.squash = v;
        self
    }

    /// Resampling threshold as an ESS fraction of the particle count.
    pub fn resample_ess_frac(mut self, v: f64) -> Self {
        self.0.resample_ess_frac = v;
        self
    }

    /// σ of the initial position spread around a reset pose \[m\].
    pub fn init_sigma_xy(mut self, v: f64) -> Self {
        self.0.init_sigma_xy = v;
        self
    }

    /// σ of the initial heading spread around a reset pose \[rad\].
    pub fn init_sigma_theta(mut self, v: f64) -> Self {
        self.0.init_sigma_theta = v;
        self
    }

    /// LiDAR pose in the vehicle body frame.
    pub fn lidar_mount(mut self, v: raceloc_core::Pose2) -> Self {
        self.0.lidar_mount = v;
        self
    }

    /// The motion model.
    pub fn motion(mut self, v: MotionConfig) -> Self {
        self.0.motion = v;
        self
    }

    /// Worker threads for the particle pipeline.
    pub fn threads(mut self, v: usize) -> Self {
        self.0.threads = v;
        self
    }

    /// Enables KLD-adaptive particle counts.
    pub fn kld(mut self, v: crate::kld::KldConfig) -> Self {
        self.0.kld = Some(v);
        self
    }

    /// Enables augmented-MCL recovery.
    pub fn recovery(mut self, v: RecoveryConfig) -> Self {
        self.0.recovery = Some(v);
        self
    }

    /// Enables health monitoring (divergence detectors + degraded-mode
    /// state machine, DESIGN.md §12).
    pub fn health(mut self, v: crate::health::HealthPolicy) -> Self {
        self.0.health = Some(v);
        self
    }

    /// Enables deadline-aware adaptive compute (degradation ladder,
    /// DESIGN.md §14).
    pub fn deadline(mut self, v: raceloc_core::DeadlineConfig) -> Self {
        self.0.deadline = Some(v);
        self
    }

    /// PRNG seed.
    pub fn seed(mut self, v: u64) -> Self {
        self.0.seed = v;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<SynPfConfig, ConfigError> {
        self.0.validated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kld::KldConfig;
    use crate::motion::{DiffDriveModel, TumMotionModel};

    #[test]
    fn default_config_validates() {
        assert!(SynPfConfig::builder().build().is_ok());
        assert!(SynPfConfig::default().validated().is_ok());
        assert!(RecoveryConfig::builder().build().is_ok());
    }

    #[test]
    fn builder_sets_fields() {
        let c = SynPfConfig::builder()
            .particles(321)
            .threads(3)
            .squash(8.0)
            .seed(99)
            .build()
            .unwrap();
        assert_eq!(c.particles, 321);
        assert_eq!(c.threads, 3);
        assert_eq!(c.squash, 8.0);
        assert_eq!(c.seed, 99);
    }

    #[test]
    fn zero_particles_rejected() {
        let e = SynPfConfig::builder().particles(0).build().unwrap_err();
        assert_eq!(e.field, "particles");
    }

    #[test]
    fn nan_noise_rejected() {
        let e = SynPfConfig::builder()
            .init_sigma_xy(f64::NAN)
            .build()
            .unwrap_err();
        assert_eq!(e.field, "init_sigma_xy");

        let e = SynPfConfig::builder()
            .motion(MotionConfig::Tum(TumMotionModel {
                sigma_v_rel: f64::NAN,
                ..TumMotionModel::default()
            }))
            .build()
            .unwrap_err();
        assert_eq!(e.field, "motion.sigma_v_rel");

        let e = SynPfConfig::builder()
            .motion(MotionConfig::DiffDrive(DiffDriveModel {
                alpha3: f64::NAN,
                ..DiffDriveModel::default()
            }))
            .build()
            .unwrap_err();
        assert_eq!(e.field, "motion.alpha3");
    }

    #[test]
    fn inverted_kld_bounds_rejected() {
        let e = SynPfConfig::builder()
            .kld(KldConfig {
                min_particles: 5000,
                max_particles: 100,
                ..KldConfig::default()
            })
            .build()
            .unwrap_err();
        assert_eq!(e.field, "kld.min_particles");
    }

    #[test]
    fn degenerate_kld_values_rejected() {
        // Standalone validation (usable without a SynPfConfig)…
        assert!(KldConfig::default().validated().is_ok());
        let zero_min = KldConfig {
            min_particles: 0,
            ..KldConfig::default()
        };
        assert_eq!(zero_min.validated().unwrap_err().field, "kld.min_particles");
        // …and the same checks through the builder, per offending field.
        for (kld, field) in [
            (
                KldConfig {
                    epsilon: 0.0,
                    ..KldConfig::default()
                },
                "kld.epsilon",
            ),
            (
                KldConfig {
                    epsilon: f64::NAN,
                    ..KldConfig::default()
                },
                "kld.epsilon",
            ),
            (
                KldConfig {
                    bin_xy: -0.25,
                    ..KldConfig::default()
                },
                "kld.bin_xy",
            ),
            (
                KldConfig {
                    bin_theta: 0.0,
                    ..KldConfig::default()
                },
                "kld.bin_theta",
            ),
            (
                KldConfig {
                    z_quantile: f64::INFINITY,
                    ..KldConfig::default()
                },
                "kld.z_quantile",
            ),
        ] {
            let e = SynPfConfig::builder().kld(kld).build().unwrap_err();
            assert_eq!(e.field, field);
        }
    }

    #[test]
    fn deadline_config_validated_when_nested() {
        let bad = raceloc_core::DeadlineConfig {
            upgrade_streak: 0,
            ..raceloc_core::DeadlineConfig::default()
        };
        let e = SynPfConfig::builder().deadline(bad).build().unwrap_err();
        assert_eq!(e.field, "deadline.upgrade_streak");
        let bad = raceloc_core::DeadlineConfig {
            headroom_pct: 200,
            ..raceloc_core::DeadlineConfig::default()
        };
        let e = SynPfConfig::builder().deadline(bad).build().unwrap_err();
        assert_eq!(e.field, "deadline.headroom_pct");
        assert!(SynPfConfig::builder()
            .deadline(raceloc_core::DeadlineConfig::default())
            .build()
            .is_ok());
    }

    #[test]
    fn nonpositive_squash_and_threads_rejected() {
        assert_eq!(
            SynPfConfig::builder()
                .squash(0.0)
                .build()
                .unwrap_err()
                .field,
            "squash"
        );
        assert_eq!(
            SynPfConfig::builder().threads(0).build().unwrap_err().field,
            "threads"
        );
        assert!(SynPfConfig::builder().threads(4).build().is_ok());
    }

    #[test]
    fn ess_fraction_range_enforced() {
        assert!(SynPfConfig::builder()
            .resample_ess_frac(1.5)
            .build()
            .is_err());
        assert!(SynPfConfig::builder()
            .resample_ess_frac(f64::NAN)
            .build()
            .is_err());
        assert!(SynPfConfig::builder()
            .resample_ess_frac(0.0)
            .build()
            .is_ok());
    }

    #[test]
    fn recovery_rates_must_be_ordered() {
        let e = RecoveryConfig::builder()
            .alpha_slow(0.5)
            .alpha_fast(0.1)
            .build()
            .unwrap_err();
        assert_eq!(e.field, "recovery.alpha_slow");
        assert!(RecoveryConfig::builder()
            .alpha_fast(f64::NAN)
            .build()
            .is_err());
        assert!(RecoveryConfig::builder().alpha_fast(1.5).build().is_err());
        // Also enforced when nested in a SynPfConfig.
        let nested = SynPfConfig::builder()
            .recovery(RecoveryConfig {
                alpha_slow: 0.9,
                alpha_fast: 0.1,
            })
            .build();
        assert!(nested.is_err());
    }

    #[test]
    fn equal_recovery_rates_rejected() {
        // Regression for the alpha_slow == alpha_fast boundary: equal rates
        // make the injection probability identically zero (recovery
        // silently disabled), so the strict ordering documented on the
        // builder is enforced at the boundary too.
        let e = RecoveryConfig::builder()
            .alpha_slow(0.2)
            .alpha_fast(0.2)
            .build()
            .unwrap_err();
        assert_eq!(e.field, "recovery.alpha_slow");
        assert_eq!(e.reason, "must be smaller than alpha_fast");
        let nested = SynPfConfig::builder()
            .recovery(RecoveryConfig {
                alpha_slow: 0.2,
                alpha_fast: 0.2,
            })
            .build();
        assert!(nested.is_err());
    }

    #[test]
    fn health_policy_validated_when_nested() {
        let bad = crate::health::HealthPolicy {
            ema_alpha: 0.0,
            ..crate::health::HealthPolicy::default()
        };
        let e = SynPfConfig::builder().health(bad).build().unwrap_err();
        assert_eq!(e.field, "health.ema_alpha");
        assert!(SynPfConfig::builder()
            .health(crate::health::HealthPolicy::default())
            .build()
            .is_ok());
    }

    #[test]
    fn error_display_names_field() {
        let e = SynPfConfig::builder().particles(0).build().unwrap_err();
        let text = e.to_string();
        assert!(text.contains("particles"), "{text}");
    }
}
