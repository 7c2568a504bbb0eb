#![deny(missing_docs)]
#![forbid(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

//! Deterministic fault injection for the raceloc closed loop.
//!
//! The paper evaluates localization robustness along a single degradation
//! axis (grip → wheel-odometry quality). A real race car sees many more
//! failure modes: LiDAR blackouts from sun glare or dust, burst beam
//! dropout, range miscalibration after a sensor swap, wheel-encoder slip
//! spikes and stuck encoders, transport latency, perceptual aliasing after
//! a kidnap-grade collision, and on-track obstacles that are not in the
//! map. This crate turns each of those into a *scripted, reproducible*
//! fault:
//!
//! - a [`FaultSchedule`] declares *what* goes wrong and *when*, keyed on
//!   the sim's LiDAR correction-step counter;
//! - every stochastic choice (which beams drop) is drawn from a
//!   counter-derived [`Rng64`] stream that is a pure function of
//!   `(schedule seed, step)` — no wall clock, no global state — so a
//!   schedule replays bit-identically for any thread count (rule R3);
//! - [`ScanEffects`] / [`OdomEffects`] are the per-step evaluation of the
//!   schedule, applied by `raceloc-sim::World` between the ground-truth
//!   step and sensor emission;
//! - every activation is booked into [`raceloc_obs::Telemetry`] counters
//!   by a [`FaultTracker`] (`faults.<kind>.activations` /
//!   `faults.<kind>.steps`).
//!
//! Schedules round-trip through the dependency-free
//! [`raceloc_obs::Json`] value (the offline build has no serde/TOML), so
//! fault matrices can be checked in and replayed.
//!
//! # Examples
//!
//! ```
//! use raceloc_faults::FaultSchedule;
//!
//! let schedule = FaultSchedule::builder()
//!     .seed(9)
//!     .lidar_blackout(100, 160)
//!     .beam_dropout(200, 260, 0.7)
//!     .build()
//!     .expect("valid schedule");
//! assert!(schedule.scan_effects(120).blackout);
//! assert!(!schedule.scan_effects(160).blackout);
//! // Pure in (seed, step): replaying a step re-drops the same beams.
//! let mut a = vec![2.0; 64];
//! let mut b = vec![2.0; 64];
//! schedule.scan_effects(210).apply(&mut a, 10.0, schedule.seed(), 210);
//! schedule.scan_effects(210).apply(&mut b, 10.0, schedule.seed(), 210);
//! assert_eq!(a, b);
//! ```

mod inject;
mod schedule;

pub use inject::{FaultTracker, OdomEffects, ScanEffects};
pub use schedule::{
    FaultKind, FaultScheduleBuilder, FaultSpec, MapRegion, ScheduleError, StepWindow,
};

use raceloc_core::{stream_keys, Rng64};
use raceloc_obs::Json;

/// A deterministic script of faults over a simulation run.
///
/// Windows are expressed in LiDAR correction steps (the sim's scan
/// counter, reset at the start of each run), the one clock every consumer
/// of the schedule shares. The schedule owns a seed for its stochastic
/// faults; evaluation is a pure function of `(seed, step)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    seed: u64,
    faults: Vec<FaultSpec>,
}

impl FaultSchedule {
    /// Starts a builder for a schedule.
    pub fn builder() -> FaultScheduleBuilder {
        FaultScheduleBuilder::new()
    }

    /// Creates a schedule from parts, validating every fault.
    pub fn new(seed: u64, faults: Vec<FaultSpec>) -> Result<Self, ScheduleError> {
        for f in &faults {
            f.validate()?;
        }
        Ok(Self { seed, faults })
    }

    /// The seed of the schedule's stochastic faults.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The declared faults, in declaration order.
    pub fn faults(&self) -> &[FaultSpec] {
        &self.faults
    }

    /// Whether the schedule declares no faults at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The combined scan-side effects active at a correction step.
    ///
    /// Multiple overlapping faults compose: dropout probabilities add
    /// (clamped to 1), biases add, scales multiply, and the longest active
    /// latency wins.
    pub fn scan_effects(&self, step: u64) -> ScanEffects {
        let mut fx = ScanEffects::none();
        for f in &self.faults {
            if !f.window.contains(step) {
                continue;
            }
            match f.kind {
                FaultKind::LidarBlackout => fx.blackout = true,
                FaultKind::BeamDropout { extra_dropout } => {
                    fx.extra_dropout = (fx.extra_dropout + extra_dropout).min(1.0);
                }
                FaultKind::RangeBias { bias_m } => fx.bias_m += bias_m,
                FaultKind::RangeScale { scale } => fx.scale *= scale,
                FaultKind::Latency { delay_steps } => {
                    fx.delay_steps = fx.delay_steps.max(delay_steps);
                }
                FaultKind::MapCorruption { .. } => fx.corrupt_map = true,
                FaultKind::OdomSlip { .. }
                | FaultKind::StuckEncoder
                | FaultKind::PoseKidnap { .. }
                | FaultKind::ComputePressure { .. } => {}
            }
        }
        fx
    }

    /// The combined odometry-side effects active at a correction step.
    pub fn odom_effects(&self, step: u64) -> OdomEffects {
        let mut fx = OdomEffects::none();
        for f in &self.faults {
            if !f.window.contains(step) {
                continue;
            }
            match f.kind {
                FaultKind::OdomSlip { factor } => fx.slip_factor *= factor,
                FaultKind::StuckEncoder => fx.stuck = true,
                _ => {}
            }
        }
        fx
    }

    /// The combined compute-budget scale factor active at a correction
    /// step. Overlapping [`FaultKind::ComputePressure`] windows compose by
    /// multiplication; with none active the factor is `1.0`. The sim
    /// delivers this through
    /// [`Localizer::set_compute_pressure`](raceloc_core::Localizer::set_compute_pressure)
    /// before each correction.
    pub fn budget_factor_at(&self, step: u64) -> f64 {
        let mut factor = 1.0;
        for f in &self.faults {
            if let FaultKind::ComputePressure { factor: scale } = f.kind {
                if f.window.contains(step) {
                    factor *= scale;
                }
            }
        }
        factor
    }

    /// The total ground-truth teleport distance \[m\] along the raceline
    /// fired at exactly this step (`None` when no kidnap starts here).
    /// Kidnaps are one-shot: they trigger at their window's start step.
    pub fn kidnap_advance_at(&self, step: u64) -> Option<f64> {
        let mut total = 0.0;
        let mut any = false;
        for f in &self.faults {
            if let FaultKind::PoseKidnap { advance_m } = f.kind {
                if f.window.start == step {
                    total += advance_m;
                    any = true;
                }
            }
        }
        any.then_some(total)
    }

    /// Every map-corruption region in the schedule, irrespective of
    /// windows. The sim burns these into one corrupted map up front and
    /// swaps it in whenever [`ScanEffects::corrupt_map`] is active.
    pub fn corruption_regions(&self) -> Vec<MapRegion> {
        self.faults
            .iter()
            .filter_map(|f| match f.kind {
                FaultKind::MapCorruption { region } => Some(region),
                _ => None,
            })
            .collect()
    }

    /// The RNG stream for a stochastic per-scan draw at `step` — a pure
    /// function of `(seed, step)`, independent of thread count and of any
    /// other RNG in the process.
    pub fn scan_rng(seed: u64, step: u64) -> Rng64 {
        // The key comes from the central namespace registry: the 0xFA tag
        // statically proves this stream can never collide with the pf
        // motion streams or the eval filter-seed draw, even when the
        // schedule shares a seed with them (rule R7).
        Rng64::stream(seed, stream_keys::fault_scan(step))
    }

    /// Serializes the schedule to a [`Json`] value.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("seed".into(), Json::num(self.seed as f64)),
            (
                "faults".into(),
                Json::Arr(self.faults.iter().map(FaultSpec::to_json).collect()),
            ),
        ])
    }

    /// Parses a schedule from a [`Json`] value produced by
    /// [`FaultSchedule::to_json`] (or written by hand).
    pub fn from_json(doc: &Json) -> Result<Self, ScheduleError> {
        let seed = doc
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or_else(|| ScheduleError::new("schedule is missing a numeric \"seed\""))?;
        let list = doc
            .get("faults")
            .and_then(Json::as_array)
            .ok_or_else(|| ScheduleError::new("schedule is missing a \"faults\" array"))?;
        let faults = list
            .iter()
            .map(FaultSpec::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Self::new(seed, faults)
    }

    /// Parses a schedule from JSON text.
    pub fn from_json_str(text: &str) -> Result<Self, ScheduleError> {
        let doc = Json::parse(text)
            .map_err(|e| ScheduleError::new(format!("schedule is not valid JSON: {e}")))?;
        Self::from_json(&doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FaultSchedule {
        FaultSchedule::builder()
            .seed(17)
            .lidar_blackout(10, 20)
            .beam_dropout(15, 40, 0.5)
            .range_bias(30, 50, 0.25)
            .range_scale(30, 50, 1.05)
            .odom_slip(5, 12, 1.8)
            .stuck_encoder(60, 70)
            .latency(80, 90, 6)
            .pose_kidnap(100, 4.0)
            .map_corruption(
                110,
                140,
                MapRegion {
                    x0: 1.0,
                    y0: -1.0,
                    x1: 2.0,
                    y1: 0.5,
                },
            )
            .compute_pressure(150, 180, 0.5)
            .build()
            .expect("valid schedule")
    }

    #[test]
    fn windows_gate_effects() {
        let s = sample();
        assert!(s.scan_effects(10).blackout);
        assert!(!s.scan_effects(9).blackout);
        assert!(!s.scan_effects(20).blackout, "end is exclusive");
        assert_eq!(s.scan_effects(35).bias_m, 0.25);
        assert_eq!(s.scan_effects(35).scale, 1.05);
        assert_eq!(s.scan_effects(85).delay_steps, 6);
        assert!(s.scan_effects(120).corrupt_map);
        let odom = s.odom_effects(8);
        assert_eq!(odom.slip_factor, 1.8);
        assert!(!odom.stuck);
        assert!(s.odom_effects(65).stuck);
        assert_eq!(s.kidnap_advance_at(100), Some(4.0));
        assert_eq!(s.kidnap_advance_at(101), None);
        assert_eq!(s.budget_factor_at(149), 1.0);
        assert_eq!(s.budget_factor_at(150), 0.5);
        assert_eq!(s.budget_factor_at(180), 1.0, "end is exclusive");
        assert!(
            !s.scan_effects(160).any(),
            "compute pressure leaves the sensors untouched"
        );
    }

    #[test]
    fn overlapping_pressure_windows_multiply() {
        let s = FaultSchedule::builder()
            .compute_pressure(0, 10, 0.5)
            .compute_pressure(5, 15, 0.4)
            .build()
            .expect("valid schedule");
        assert_eq!(s.budget_factor_at(2), 0.5);
        assert!(
            (s.budget_factor_at(7) - 0.2).abs() < 1e-12,
            "factors multiply"
        );
        assert_eq!(s.budget_factor_at(12), 0.4);
        assert_eq!(s.budget_factor_at(20), 1.0);
    }

    #[test]
    fn overlapping_faults_compose() {
        let s = FaultSchedule::builder()
            .beam_dropout(0, 10, 0.6)
            .beam_dropout(0, 10, 0.7)
            .range_bias(0, 10, 0.1)
            .range_bias(0, 10, -0.3)
            .range_scale(0, 10, 2.0)
            .range_scale(0, 10, 0.5)
            .build()
            .expect("valid schedule");
        let fx = s.scan_effects(3);
        assert_eq!(fx.extra_dropout, 1.0, "dropouts add, clamped");
        assert!((fx.bias_m - (-0.2)).abs() < 1e-12, "biases add");
        assert_eq!(fx.scale, 1.0, "scales multiply");
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let s = sample();
        let text = format!("{}", s.to_json());
        let back = FaultSchedule::from_json_str(&text).expect("parse back");
        assert_eq!(back, s);
    }

    #[test]
    fn invalid_schedules_are_rejected() {
        assert!(
            FaultSchedule::builder()
                .lidar_blackout(20, 10)
                .build()
                .is_err(),
            "inverted window"
        );
        assert!(
            FaultSchedule::builder()
                .beam_dropout(0, 5, 1.5)
                .build()
                .is_err(),
            "dropout > 1"
        );
        assert!(
            FaultSchedule::builder()
                .range_scale(0, 5, 0.0)
                .build()
                .is_err(),
            "zero scale"
        );
        assert!(
            FaultSchedule::builder().latency(0, 5, 0).build().is_err(),
            "zero delay"
        );
        assert!(
            FaultSchedule::builder()
                .pose_kidnap(5, f64::NAN)
                .build()
                .is_err(),
            "NaN kidnap"
        );
        assert!(
            FaultSchedule::builder()
                .compute_pressure(0, 5, 0.0)
                .build()
                .is_err(),
            "zero pressure factor"
        );
        assert!(
            FaultSchedule::builder()
                .compute_pressure(0, 5, 1.5)
                .build()
                .is_err(),
            "pressure factor > 1"
        );
        assert!(
            FaultSchedule::builder()
                .compute_pressure(0, 5, f64::NAN)
                .build()
                .is_err(),
            "NaN pressure factor"
        );
        assert!(FaultSchedule::from_json_str("{}").is_err());
        assert!(FaultSchedule::from_json_str("not json").is_err());
    }

    #[test]
    fn empty_schedule_is_inert() {
        let s = FaultSchedule::builder().build().expect("empty is valid");
        assert!(s.is_empty());
        let fx = s.scan_effects(0);
        assert!(!fx.any());
        let mut ranges = vec![1.0, 2.0, 3.0];
        fx.apply(&mut ranges, 10.0, s.seed(), 0);
        assert_eq!(ranges, vec![1.0, 2.0, 3.0]);
    }
}
