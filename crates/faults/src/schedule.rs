//! Fault declarations: kinds, windows, validation, builder, and the
//! dependency-free JSON mapping.

use std::fmt;

use raceloc_obs::{names, CounterName, Json};

use crate::FaultSchedule;

/// A rejected fault declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleError {
    /// Human-readable description of what was rejected.
    pub message: String,
}

impl ScheduleError {
    /// Creates an error with the given description.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault schedule: {}", self.message)
    }
}

impl std::error::Error for ScheduleError {}

/// A half-open window `[start, end)` of LiDAR correction steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StepWindow {
    /// First step (inclusive) at which the fault is active.
    pub start: u64,
    /// First step (exclusive) at which the fault is over.
    pub end: u64,
}

impl StepWindow {
    /// Creates the window `[start, end)`.
    pub fn new(start: u64, end: u64) -> Self {
        Self { start, end }
    }

    /// Whether `step` falls inside the window.
    pub fn contains(&self, step: u64) -> bool {
        step >= self.start && step < self.end
    }

    /// The window length in steps.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Whether the window covers no step at all.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// An axis-aligned world-frame rectangle, for map-corruption faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapRegion {
    /// Lower x bound \[m\].
    pub x0: f64,
    /// Lower y bound \[m\].
    pub y0: f64,
    /// Upper x bound \[m\].
    pub x1: f64,
    /// Upper y bound \[m\].
    pub y1: f64,
}

/// What goes wrong. Each variant maps to a physical failure mode of the
/// F1TENTH sensing stack (DESIGN.md §12).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Every beam in the window is invalid: sun glare, dust cloud, or a
    /// LiDAR driver stall. Dropped beams report `f64::INFINITY`.
    LidarBlackout,
    /// Extra per-beam Bernoulli dropout on top of the sensor's own rate:
    /// burst packet loss or partial occlusion.
    BeamDropout {
        /// Additional dropout probability, in `[0, 1]`.
        extra_dropout: f64,
    },
    /// Additive range miscalibration: a bumped or re-mounted sensor.
    RangeBias {
        /// Offset added to every valid return \[m\].
        bias_m: f64,
    },
    /// Multiplicative range miscalibration: wrong intensity/temperature
    /// compensation.
    RangeScale {
        /// Factor multiplied into every valid return (must be positive).
        scale: f64,
    },
    /// Wheel-speed over-report while the tires spin: a slip spike on
    /// cold rubber or a wet patch.
    OdomSlip {
        /// Factor multiplied into the reported wheel speed.
        factor: f64,
    },
    /// The wheel encoder (and steering feedback) freeze at their values
    /// from the fault's first step: a broken encoder line.
    StuckEncoder,
    /// Scans arrive `delay_steps` corrections late (transport latency /
    /// driver buffering); their stamps reveal the staleness.
    Latency {
        /// Delay in correction steps (≥ 1).
        delay_steps: u64,
    },
    /// One-shot ground-truth teleport along the raceline at the window's
    /// start step: the kidnapped-robot problem after a collision or a
    /// marshal reposition.
    PoseKidnap {
        /// Signed arc-length displacement along the raceline \[m\].
        advance_m: f64,
    },
    /// An unmapped obstacle: the region reads as occupied to the LiDAR
    /// while the localizer's map still says free.
    MapCorruption {
        /// The world-frame rectangle that becomes occupied.
        region: MapRegion,
    },
    /// Compute pressure: a co-scheduled workload steals cycles, scaling
    /// the localizer's per-step compute budget by `factor` while active
    /// (DESIGN.md §14). Purely a budget signal — sensors are untouched —
    /// delivered through `Localizer::set_compute_pressure`.
    ComputePressure {
        /// Budget scale factor, in `(0, 1]`.
        factor: f64,
    },
}

impl FaultKind {
    /// The stable kind name used in JSON and telemetry.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::LidarBlackout => "lidar_blackout",
            FaultKind::BeamDropout { .. } => "beam_dropout",
            FaultKind::RangeBias { .. } => "range_bias",
            FaultKind::RangeScale { .. } => "range_scale",
            FaultKind::OdomSlip { .. } => "odom_slip",
            FaultKind::StuckEncoder => "stuck_encoder",
            FaultKind::Latency { .. } => "latency",
            FaultKind::PoseKidnap { .. } => "pose_kidnap",
            FaultKind::MapCorruption { .. } => "map_corruption",
            FaultKind::ComputePressure { .. } => "compute_pressure",
        }
    }

    /// Telemetry counter bumped once per rising edge of the fault.
    pub fn activation_counter(&self) -> CounterName {
        match self {
            FaultKind::LidarBlackout => names::FAULTS_LIDAR_BLACKOUT_ACTIVATIONS,
            FaultKind::BeamDropout { .. } => names::FAULTS_BEAM_DROPOUT_ACTIVATIONS,
            FaultKind::RangeBias { .. } => names::FAULTS_RANGE_BIAS_ACTIVATIONS,
            FaultKind::RangeScale { .. } => names::FAULTS_RANGE_SCALE_ACTIVATIONS,
            FaultKind::OdomSlip { .. } => names::FAULTS_ODOM_SLIP_ACTIVATIONS,
            FaultKind::StuckEncoder => names::FAULTS_STUCK_ENCODER_ACTIVATIONS,
            FaultKind::Latency { .. } => names::FAULTS_LATENCY_ACTIVATIONS,
            FaultKind::PoseKidnap { .. } => names::FAULTS_POSE_KIDNAP_ACTIVATIONS,
            FaultKind::MapCorruption { .. } => names::FAULTS_MAP_CORRUPTION_ACTIVATIONS,
            FaultKind::ComputePressure { .. } => names::FAULTS_COMPUTE_PRESSURE_ACTIVATIONS,
        }
    }

    /// Telemetry counter bumped on every step the fault is active.
    pub fn step_counter(&self) -> CounterName {
        match self {
            FaultKind::LidarBlackout => names::FAULTS_LIDAR_BLACKOUT_STEPS,
            FaultKind::BeamDropout { .. } => names::FAULTS_BEAM_DROPOUT_STEPS,
            FaultKind::RangeBias { .. } => names::FAULTS_RANGE_BIAS_STEPS,
            FaultKind::RangeScale { .. } => names::FAULTS_RANGE_SCALE_STEPS,
            FaultKind::OdomSlip { .. } => names::FAULTS_ODOM_SLIP_STEPS,
            FaultKind::StuckEncoder => names::FAULTS_STUCK_ENCODER_STEPS,
            FaultKind::Latency { .. } => names::FAULTS_LATENCY_STEPS,
            FaultKind::PoseKidnap { .. } => names::FAULTS_POSE_KIDNAP_STEPS,
            FaultKind::MapCorruption { .. } => names::FAULTS_MAP_CORRUPTION_STEPS,
            FaultKind::ComputePressure { .. } => names::FAULTS_COMPUTE_PRESSURE_STEPS,
        }
    }
}

/// One fault plus the window it is active in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// The failure mode.
    pub kind: FaultKind,
    /// When it is active, in LiDAR correction steps.
    pub window: StepWindow,
}

impl FaultSpec {
    /// Checks that the window and the kind's parameters are sane.
    pub fn validate(&self) -> Result<(), ScheduleError> {
        if self.window.is_empty() {
            return Err(ScheduleError::new(format!(
                "{}: window [{}, {}) is empty",
                self.kind.name(),
                self.window.start,
                self.window.end
            )));
        }
        let finite = |name: &str, v: f64| -> Result<(), ScheduleError> {
            if v.is_finite() {
                Ok(())
            } else {
                Err(ScheduleError::new(format!(
                    "{}: {name} must be finite",
                    self.kind.name()
                )))
            }
        };
        match self.kind {
            FaultKind::LidarBlackout | FaultKind::StuckEncoder => Ok(()),
            FaultKind::BeamDropout { extra_dropout } => {
                finite("extra_dropout", extra_dropout)?;
                if !(0.0..=1.0).contains(&extra_dropout) {
                    return Err(ScheduleError::new(
                        "beam_dropout: extra_dropout must be within [0, 1]",
                    ));
                }
                Ok(())
            }
            FaultKind::RangeBias { bias_m } => finite("bias_m", bias_m),
            FaultKind::RangeScale { scale } => {
                finite("scale", scale)?;
                if scale <= 0.0 {
                    return Err(ScheduleError::new("range_scale: scale must be positive"));
                }
                Ok(())
            }
            FaultKind::OdomSlip { factor } => {
                finite("factor", factor)?;
                if factor <= 0.0 {
                    return Err(ScheduleError::new("odom_slip: factor must be positive"));
                }
                Ok(())
            }
            FaultKind::Latency { delay_steps } => {
                if delay_steps == 0 {
                    return Err(ScheduleError::new(
                        "latency: delay_steps must be at least 1",
                    ));
                }
                Ok(())
            }
            FaultKind::PoseKidnap { advance_m } => {
                finite("advance_m", advance_m)?;
                if advance_m == 0.0 {
                    return Err(ScheduleError::new(
                        "pose_kidnap: advance_m must be non-zero",
                    ));
                }
                Ok(())
            }
            FaultKind::MapCorruption { region } => {
                finite("x0", region.x0)?;
                finite("y0", region.y0)?;
                finite("x1", region.x1)?;
                finite("y1", region.y1)?;
                if region.x1 <= region.x0 || region.y1 <= region.y0 {
                    return Err(ScheduleError::new(
                        "map_corruption: region must have positive extent",
                    ));
                }
                Ok(())
            }
            FaultKind::ComputePressure { factor } => {
                finite("factor", factor)?;
                if !(factor > 0.0 && factor <= 1.0) {
                    return Err(ScheduleError::new(
                        "compute_pressure: factor must lie in (0, 1]",
                    ));
                }
                Ok(())
            }
        }
    }

    /// Serializes the spec into a flat JSON object.
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            ("kind".to_string(), Json::Str(self.kind.name().to_string())),
            ("start".to_string(), Json::num(self.window.start as f64)),
            ("end".to_string(), Json::num(self.window.end as f64)),
        ];
        match self.kind {
            FaultKind::LidarBlackout | FaultKind::StuckEncoder => {}
            FaultKind::BeamDropout { extra_dropout } => {
                obj.push(("extra_dropout".to_string(), Json::num(extra_dropout)));
            }
            FaultKind::RangeBias { bias_m } => {
                obj.push(("bias_m".to_string(), Json::num(bias_m)));
            }
            FaultKind::RangeScale { scale } => {
                obj.push(("scale".to_string(), Json::num(scale)));
            }
            FaultKind::OdomSlip { factor } => {
                obj.push(("factor".to_string(), Json::num(factor)));
            }
            FaultKind::Latency { delay_steps } => {
                obj.push(("delay_steps".to_string(), Json::num(delay_steps as f64)));
            }
            FaultKind::PoseKidnap { advance_m } => {
                obj.push(("advance_m".to_string(), Json::num(advance_m)));
            }
            FaultKind::MapCorruption { region } => {
                obj.push(("x0".to_string(), Json::num(region.x0)));
                obj.push(("y0".to_string(), Json::num(region.y0)));
                obj.push(("x1".to_string(), Json::num(region.x1)));
                obj.push(("y1".to_string(), Json::num(region.y1)));
            }
            FaultKind::ComputePressure { factor } => {
                obj.push(("factor".to_string(), Json::num(factor)));
            }
        }
        Json::Obj(obj)
    }

    /// Parses a spec from the object shape written by
    /// [`FaultSpec::to_json`].
    pub fn from_json(doc: &Json) -> Result<Self, ScheduleError> {
        let kind_name = doc
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| ScheduleError::new("fault is missing a \"kind\" string"))?;
        let step = |key: &str| -> Result<u64, ScheduleError> {
            doc.get(key).and_then(Json::as_u64).ok_or_else(|| {
                ScheduleError::new(format!("{kind_name}: missing numeric \"{key}\""))
            })
        };
        let num = |key: &str| -> Result<f64, ScheduleError> {
            doc.get(key).and_then(Json::as_f64).ok_or_else(|| {
                ScheduleError::new(format!("{kind_name}: missing numeric \"{key}\""))
            })
        };
        let window = StepWindow::new(step("start")?, step("end")?);
        let kind = match kind_name {
            "lidar_blackout" => FaultKind::LidarBlackout,
            "beam_dropout" => FaultKind::BeamDropout {
                extra_dropout: num("extra_dropout")?,
            },
            "range_bias" => FaultKind::RangeBias {
                bias_m: num("bias_m")?,
            },
            "range_scale" => FaultKind::RangeScale {
                scale: num("scale")?,
            },
            "odom_slip" => FaultKind::OdomSlip {
                factor: num("factor")?,
            },
            "stuck_encoder" => FaultKind::StuckEncoder,
            "latency" => FaultKind::Latency {
                delay_steps: step("delay_steps")?,
            },
            "pose_kidnap" => FaultKind::PoseKidnap {
                advance_m: num("advance_m")?,
            },
            "map_corruption" => FaultKind::MapCorruption {
                region: MapRegion {
                    x0: num("x0")?,
                    y0: num("y0")?,
                    x1: num("x1")?,
                    y1: num("y1")?,
                },
            },
            "compute_pressure" => FaultKind::ComputePressure {
                factor: num("factor")?,
            },
            other => {
                return Err(ScheduleError::new(format!(
                    "unknown fault kind \"{other}\""
                )));
            }
        };
        let spec = FaultSpec { kind, window };
        spec.validate()?;
        Ok(spec)
    }
}

/// Builder for [`FaultSchedule`]; see [`FaultSchedule::builder`].
#[derive(Debug, Clone, Default)]
pub struct FaultScheduleBuilder {
    seed: u64,
    faults: Vec<FaultSpec>,
}

impl FaultScheduleBuilder {
    /// An empty builder (seed 0, no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the seed for stochastic faults.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds an arbitrary fault spec.
    pub fn fault(mut self, kind: FaultKind, start: u64, end: u64) -> Self {
        self.faults.push(FaultSpec {
            kind,
            window: StepWindow::new(start, end),
        });
        self
    }

    /// Full LiDAR blackout over `[start, end)`.
    pub fn lidar_blackout(self, start: u64, end: u64) -> Self {
        self.fault(FaultKind::LidarBlackout, start, end)
    }

    /// Extra Bernoulli beam dropout over `[start, end)`.
    pub fn beam_dropout(self, start: u64, end: u64, extra_dropout: f64) -> Self {
        self.fault(FaultKind::BeamDropout { extra_dropout }, start, end)
    }

    /// Additive range bias \[m\] over `[start, end)`.
    pub fn range_bias(self, start: u64, end: u64, bias_m: f64) -> Self {
        self.fault(FaultKind::RangeBias { bias_m }, start, end)
    }

    /// Multiplicative range scale over `[start, end)`.
    pub fn range_scale(self, start: u64, end: u64, scale: f64) -> Self {
        self.fault(FaultKind::RangeScale { scale }, start, end)
    }

    /// Wheel-speed slip spike over `[start, end)`.
    pub fn odom_slip(self, start: u64, end: u64, factor: f64) -> Self {
        self.fault(FaultKind::OdomSlip { factor }, start, end)
    }

    /// Frozen encoder/steering feedback over `[start, end)`.
    pub fn stuck_encoder(self, start: u64, end: u64) -> Self {
        self.fault(FaultKind::StuckEncoder, start, end)
    }

    /// Stale scans delayed by `delay_steps` over `[start, end)`.
    pub fn latency(self, start: u64, end: u64, delay_steps: u64) -> Self {
        self.fault(FaultKind::Latency { delay_steps }, start, end)
    }

    /// One-shot raceline teleport of `advance_m` meters at `step`.
    pub fn pose_kidnap(self, step: u64, advance_m: f64) -> Self {
        self.fault(FaultKind::PoseKidnap { advance_m }, step, step + 1)
    }

    /// Unmapped-obstacle region active over `[start, end)`.
    pub fn map_corruption(self, start: u64, end: u64, region: MapRegion) -> Self {
        self.fault(FaultKind::MapCorruption { region }, start, end)
    }

    /// Compute-budget pressure of the given factor over `[start, end)`.
    pub fn compute_pressure(self, start: u64, end: u64, factor: f64) -> Self {
        self.fault(FaultKind::ComputePressure { factor }, start, end)
    }

    /// Validates every fault and returns the schedule.
    pub fn build(self) -> Result<FaultSchedule, ScheduleError> {
        FaultSchedule::new(self.seed, self.faults)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_semantics() {
        let w = StepWindow::new(5, 8);
        assert!(!w.contains(4));
        assert!(w.contains(5));
        assert!(w.contains(7));
        assert!(!w.contains(8));
        assert_eq!(w.len(), 3);
        assert!(StepWindow::new(5, 5).is_empty());
    }

    #[test]
    fn kind_names_are_stable() {
        let kinds = [
            FaultKind::LidarBlackout,
            FaultKind::BeamDropout { extra_dropout: 0.5 },
            FaultKind::RangeBias { bias_m: 0.1 },
            FaultKind::RangeScale { scale: 1.1 },
            FaultKind::OdomSlip { factor: 1.5 },
            FaultKind::StuckEncoder,
            FaultKind::Latency { delay_steps: 3 },
            FaultKind::PoseKidnap { advance_m: 2.0 },
            FaultKind::MapCorruption {
                region: MapRegion {
                    x0: 0.0,
                    y0: 0.0,
                    x1: 1.0,
                    y1: 1.0,
                },
            },
            FaultKind::ComputePressure { factor: 0.5 },
        ];
        for k in kinds {
            assert!(k.activation_counter().as_str().contains(k.name()));
            assert!(k.step_counter().as_str().contains(k.name()));
        }
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let doc = Json::parse(r#"{"kind": "gremlins", "start": 0, "end": 5}"#).expect("json");
        assert!(FaultSpec::from_json(&doc).is_err());
    }
}
