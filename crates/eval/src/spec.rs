//! The declarative fleet specification and its cell expansion.
//!
//! A [`FleetSpec`] names every axis of a Monte-Carlo robustness study —
//! maps × grip levels × fault scenarios × localizers × seed replicates —
//! as plain data that round-trips through JSON. Expansion into concrete
//! run descriptors is a pure function of the spec: the runs come out in
//! one canonical order, and every run's world seed is derived with
//! [`Rng64::stream`] from `(master_seed, map, grip, scenario, replicate)`
//! — deliberately *excluding* the localizer, so all localizers of a cell
//! face bit-identical world noise (paired comparison, exactly like the
//! paper evaluating both algorithms on the same recorded drives).

use raceloc_core::{stream_keys, Rng64};
use raceloc_faults::FaultSchedule;
use raceloc_map::{Track, TrackShape, TrackSpec};
use raceloc_obs::Json;
use raceloc_sim::WorldConfig;

/// A fleet-spec validation or parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    message: String,
}

impl SpecError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fleet spec error: {}", self.message)
    }
}

impl std::error::Error for SpecError {}

/// One evaluation map: a deterministic procedurally generated track.
#[derive(Debug, Clone, PartialEq)]
pub struct MapSpec {
    /// Stable map label (used in report rows).
    pub name: String,
    /// Seed of the random-Fourier centerline (deterministic geometry).
    pub fourier_seed: u64,
    /// Corridor half-width \[m\].
    pub half_width: f64,
    /// Mean centerline radius \[m\].
    pub mean_radius: f64,
}

impl MapSpec {
    /// Builds the track this spec describes (pure in the spec fields).
    pub fn build_track(&self) -> Track {
        TrackSpec::new(TrackShape::RandomFourier {
            seed: self.fourier_seed,
            mean_radius: self.mean_radius,
            amplitude: 0.26,
            harmonics: 4,
        })
        .half_width(self.half_width)
        .resolution(0.05)
        .build()
    }

    pub(crate) fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("fourier_seed".into(), Json::num(self.fourier_seed as f64)),
            ("half_width".into(), Json::num(self.half_width)),
            ("mean_radius".into(), Json::num(self.mean_radius)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, SpecError> {
        Ok(Self {
            name: req_str(doc, "name")?,
            fourier_seed: req_u64(doc, "fourier_seed")?,
            half_width: req_f64(doc, "half_width")?,
            mean_radius: req_f64(doc, "mean_radius")?,
        })
    }
}

/// One grip level (the paper's odometry-quality axis).
#[derive(Debug, Clone, PartialEq)]
pub struct GripSpec {
    /// Stable grip label (`"HQ"` / `"LQ"` in the paper's terms).
    pub name: String,
    /// Tire–road friction coefficient.
    pub mu: f64,
}

impl GripSpec {
    pub(crate) fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("mu".into(), Json::num(self.mu)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, SpecError> {
        Ok(Self {
            name: req_str(doc, "name")?,
            mu: req_f64(doc, "mu")?,
        })
    }
}

/// One fault scenario: a schedule plus how recovery is scored.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Stable scenario label.
    pub name: String,
    /// The deterministic fault script (empty for the nominal control).
    pub schedule: FaultSchedule,
    /// Correction step from which recovery latency is measured.
    pub measure_from: u64,
    /// Budget (in corrections) within which every SynPF replicate must
    /// return to Nominal ([`crate::recovery_violations`]); `None` reports
    /// recovery without gating it.
    pub recovery_budget: Option<u64>,
}

impl ScenarioSpec {
    pub(crate) fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("measure_from".into(), Json::num(self.measure_from as f64)),
            (
                "recovery_budget".into(),
                self.recovery_budget
                    .map_or(Json::Null, |b| Json::num(b as f64)),
            ),
            ("schedule".into(), self.schedule.to_json()),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, SpecError> {
        let schedule = doc
            .get("schedule")
            .ok_or_else(|| SpecError::new("scenario is missing \"schedule\""))?;
        let schedule = FaultSchedule::from_json(schedule)
            .map_err(|e| SpecError::new(format!("scenario schedule: {e}")))?;
        let recovery_budget = match doc.get("recovery_budget") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_u64().ok_or_else(|| {
                SpecError::new("scenario \"recovery_budget\" must be a non-negative integer")
            })?),
        };
        Ok(Self {
            name: req_str(doc, "name")?,
            schedule,
            measure_from: req_u64(doc, "measure_from")?,
            recovery_budget,
        })
    }
}

/// The localizers a fleet can evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalMethod {
    /// Health-monitored SynPF with augmented-MCL recovery + auto re-init.
    SynPf,
    /// Cartographer pure localization with match-score health monitoring.
    Cartographer,
    /// Dead reckoning — the no-correction baseline.
    DeadReckoning,
}

impl EvalMethod {
    /// All methods, in canonical report order.
    pub fn all() -> [EvalMethod; 3] {
        [
            EvalMethod::SynPf,
            EvalMethod::Cartographer,
            EvalMethod::DeadReckoning,
        ]
    }

    /// The stable row label of report cells.
    pub fn name(&self) -> &'static str {
        match self {
            EvalMethod::SynPf => "SynPF",
            EvalMethod::Cartographer => "Cartographer",
            EvalMethod::DeadReckoning => "DeadReckoning",
        }
    }

    /// Parses a label produced by [`EvalMethod::name`].
    pub fn parse(name: &str) -> Option<EvalMethod> {
        EvalMethod::all().into_iter().find(|m| m.name() == name)
    }
}

/// Indices of one aggregated report cell along the five non-replicate axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellKey {
    /// Index into [`FleetSpec::maps`].
    pub map: usize,
    /// Index into [`FleetSpec::grips`].
    pub grip: usize,
    /// Index into [`FleetSpec::scenarios`].
    pub scenario: usize,
    /// Index into [`FleetSpec::budgets`].
    pub budget: usize,
    /// Index into [`FleetSpec::methods`].
    pub method: usize,
}

/// One concrete simulation run: a cell plus a seed replicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunDesc {
    /// Linear index into [`FleetSpec::runs`] order (the scatter-back slot).
    pub index: usize,
    /// Linear index into [`FleetSpec::cells`] order.
    pub cell: usize,
    /// The cell's axis indices.
    pub key: CellKey,
    /// Replicate number within the cell, `0..replicates`.
    pub replicate: u32,
    /// The derived world seed (identical for every budget and method of
    /// the trajectory: see [`crate::execute_group`]).
    pub world_seed: u64,
}

/// The declarative description of a full Monte-Carlo evaluation fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Fleet label (lands in the report header).
    pub name: String,
    /// Master seed every world seed is derived from.
    pub master_seed: u64,
    /// Seed replicates per cell.
    pub replicates: u32,
    /// Simulated duration of each run \[s\].
    pub duration_s: f64,
    /// SynPF particle count.
    pub particles: usize,
    /// LiDAR beams per sweep (271 is the paper's sensor).
    pub beams: usize,
    /// A run succeeds when it stays finite, crash-free, and its mean
    /// lateral estimation error (w.r.t. the raceline — the paper's primary
    /// error axis) stays below this threshold \[cm\].
    pub success_lat_cm: f64,
    /// The evaluation maps.
    pub maps: Vec<MapSpec>,
    /// The grip levels.
    pub grips: Vec<GripSpec>,
    /// The fault scenarios.
    pub scenarios: Vec<ScenarioSpec>,
    /// The per-step compute budgets \[work units\] of the deadline
    /// scheduler (DESIGN.md §14). `0` means uncapped (no deadline
    /// controller — the historical behavior); positive values cap SynPF's
    /// per-correction cost so the fleet can sweep budget × scenario. The
    /// budget is excluded from world-seed derivation, so every budget of a
    /// cell faces bit-identical world noise (paired, like methods).
    pub budgets: Vec<u64>,
    /// The localizers.
    pub methods: Vec<EvalMethod>,
}

impl FleetSpec {
    /// Checks every axis for emptiness, duplicate labels, and physically
    /// meaningless parameters. Expansion and execution require a valid
    /// spec.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.maps.is_empty()
            || self.grips.is_empty()
            || self.scenarios.is_empty()
            || self.methods.is_empty()
        {
            return Err(SpecError::new("every axis needs at least one entry"));
        }
        if self.replicates == 0 {
            return Err(SpecError::new("replicates must be at least 1"));
        }
        if self.maps.len() > 0xFFFF || self.grips.len() > 0xFF || self.scenarios.len() > 0xFF {
            return Err(SpecError::new("axis too large for seed derivation"));
        }
        if self.budgets.is_empty() {
            return Err(SpecError::new(
                "budgets must list at least one entry (0 = uncapped)",
            ));
        }
        if self.budgets.len() > 0xFF {
            return Err(SpecError::new("budgets axis too large"));
        }
        for (i, b) in self.budgets.iter().enumerate() {
            if self.budgets[..i].contains(b) {
                return Err(SpecError::new(format!("duplicate budget {b}")));
            }
        }
        if !(self.duration_s.is_finite() && self.duration_s > 0.0) {
            return Err(SpecError::new("duration_s must be positive"));
        }
        if self.particles < 10 {
            return Err(SpecError::new("particles must be at least 10"));
        }
        if self.beams < 3 {
            return Err(SpecError::new("beams must be at least 3"));
        }
        if !(self.success_lat_cm.is_finite() && self.success_lat_cm > 0.0) {
            return Err(SpecError::new("success_lat_cm must be positive"));
        }
        // A window or measurement point past the run end would silently
        // turn its scenario into a nominal one that recovers in 0 steps.
        let corrections = self.corrections();
        for s in &self.scenarios {
            if s.measure_from >= corrections {
                return Err(SpecError::new(format!(
                    "scenario {:?}: measure_from {} is not before the run's end                      ({corrections} corrections)",
                    s.name, s.measure_from
                )));
            }
            if let Some(f) = s
                .schedule
                .faults()
                .iter()
                .find(|f| f.window.start >= corrections)
            {
                return Err(SpecError::new(format!(
                    "scenario {:?}: fault window starts at {}, not before the run's end \
                     ({corrections} corrections)",
                    s.name, f.window.start
                )));
            }
        }
        for m in &self.maps {
            if !(m.half_width.is_finite() && m.half_width > 0.5) {
                return Err(SpecError::new(format!(
                    "map {:?}: half_width must exceed 0.5 m",
                    m.name
                )));
            }
            if !(m.mean_radius.is_finite() && (2.0..=20.0).contains(&m.mean_radius)) {
                return Err(SpecError::new(format!(
                    "map {:?}: mean_radius must lie in [2, 20] m",
                    m.name
                )));
            }
        }
        for g in &self.grips {
            if !(g.mu.is_finite() && g.mu > 0.0) {
                return Err(SpecError::new(format!(
                    "grip {:?}: mu must be positive",
                    g.name
                )));
            }
        }
        check_unique("map", self.maps.iter().map(|m| m.name.as_str()))?;
        check_unique("grip", self.grips.iter().map(|g| g.name.as_str()))?;
        check_unique("scenario", self.scenarios.iter().map(|s| s.name.as_str()))?;
        check_unique("method", self.methods.iter().map(EvalMethod::name))?;
        Ok(())
    }

    /// Scan corrections one run executes: `duration_s` at the simulator's
    /// LiDAR rate. Scenario step indices live on this clock.
    pub fn corrections(&self) -> u64 {
        (self.duration_s * WorldConfig::default().lidar_hz).round() as u64
    }

    /// Every aggregated cell in canonical order: maps (outer) × grips ×
    /// scenarios × budgets × methods (inner).
    pub fn cells(&self) -> Vec<CellKey> {
        let mut out = Vec::with_capacity(
            self.maps.len() * self.grips.len() * self.scenarios.len() * self.budgets.len(),
        );
        for map in 0..self.maps.len() {
            for grip in 0..self.grips.len() {
                for scenario in 0..self.scenarios.len() {
                    for budget in 0..self.budgets.len() {
                        for method in 0..self.methods.len() {
                            out.push(CellKey {
                                map,
                                grip,
                                scenario,
                                budget,
                                method,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// Every concrete run in canonical order (cells × replicates). The
    /// expansion is pure: the same spec always yields the same run list,
    /// seeds included.
    pub fn runs(&self) -> Vec<RunDesc> {
        let cells = self.cells();
        let mut out = Vec::with_capacity(cells.len() * self.replicates as usize);
        for (cell, key) in cells.iter().enumerate() {
            for replicate in 0..self.replicates {
                out.push(RunDesc {
                    index: out.len(),
                    cell,
                    key: *key,
                    replicate,
                    world_seed: self.world_seed(key.map, key.grip, key.scenario, replicate),
                });
            }
        }
        out
    }

    /// Total number of simulation runs the spec expands to.
    pub fn total_runs(&self) -> usize {
        self.cells().len() * self.replicates as usize
    }

    /// The world seed of one `(map, grip, scenario, replicate)` cell —
    /// a pure function of the spec's master seed and the axis indices,
    /// independent of the localizer *and the compute budget* (paired
    /// comparison) and of everything about execution (thread count, run
    /// order).
    pub fn world_seed(&self, map: usize, grip: usize, scenario: usize, replicate: u32) -> u64 {
        Rng64::stream(
            self.master_seed,
            stream_keys::eval_world_cell(map as u64, grip as u64, scenario as u64, replicate),
        )
        .next_u64()
    }

    /// Serializes the spec (stable key order).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("master_seed".into(), Json::num(self.master_seed as f64)),
            ("replicates".into(), Json::num(self.replicates as f64)),
            ("duration_s".into(), Json::num(self.duration_s)),
            ("particles".into(), Json::num(self.particles as f64)),
            ("beams".into(), Json::num(self.beams as f64)),
            ("success_lat_cm".into(), Json::num(self.success_lat_cm)),
            (
                "maps".into(),
                Json::Arr(self.maps.iter().map(MapSpec::to_json).collect()),
            ),
            (
                "grips".into(),
                Json::Arr(self.grips.iter().map(GripSpec::to_json).collect()),
            ),
            (
                "scenarios".into(),
                Json::Arr(self.scenarios.iter().map(ScenarioSpec::to_json).collect()),
            ),
            (
                "budgets".into(),
                Json::Arr(self.budgets.iter().map(|&b| Json::num(b as f64)).collect()),
            ),
            (
                "methods".into(),
                Json::Arr(
                    self.methods
                        .iter()
                        .map(|m| Json::Str(m.name().to_string()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a spec from a [`Json`] value produced by
    /// [`FleetSpec::to_json`] (or written by hand), then validates it.
    pub fn from_json(doc: &Json) -> Result<Self, SpecError> {
        let maps = req_arr(doc, "maps")?
            .iter()
            .map(MapSpec::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let grips = req_arr(doc, "grips")?
            .iter()
            .map(GripSpec::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let scenarios = req_arr(doc, "scenarios")?
            .iter()
            .map(ScenarioSpec::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let methods = req_arr(doc, "methods")?
            .iter()
            .map(|v| {
                v.as_str()
                    .and_then(EvalMethod::parse)
                    .ok_or_else(|| SpecError::new("unknown method label"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        // Budgets are optional for spec-file compatibility: absent means
        // the single uncapped budget (the pre-deadline behavior).
        let budgets = match doc.get("budgets") {
            None => vec![0],
            Some(v) => v
                .as_array()
                .ok_or_else(|| SpecError::new("\"budgets\" must be an array"))?
                .iter()
                .map(|b| {
                    b.as_u64().ok_or_else(|| {
                        SpecError::new("budgets must be non-negative integers (work units)")
                    })
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        let spec = Self {
            name: req_str(doc, "name")?,
            master_seed: req_u64(doc, "master_seed")?,
            replicates: req_u64(doc, "replicates")? as u32,
            duration_s: req_f64(doc, "duration_s")?,
            particles: req_u64(doc, "particles")? as usize,
            beams: req_u64(doc, "beams")? as usize,
            success_lat_cm: req_f64(doc, "success_lat_cm")?,
            maps,
            grips,
            scenarios,
            budgets,
            methods,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Parses a spec from JSON text.
    pub fn from_json_str(text: &str) -> Result<Self, SpecError> {
        let doc = Json::parse(text)
            .map_err(|e| SpecError::new(format!("spec is not valid JSON: {e}")))?;
        Self::from_json(&doc)
    }
}

fn check_unique<'a>(axis: &str, names: impl Iterator<Item = &'a str>) -> Result<(), SpecError> {
    let mut seen: Vec<&str> = Vec::new();
    for name in names {
        if seen.contains(&name) {
            return Err(SpecError::new(format!("duplicate {axis} name {name:?}")));
        }
        seen.push(name);
    }
    Ok(())
}

fn req_str(doc: &Json, key: &str) -> Result<String, SpecError> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| SpecError::new(format!("missing string field {key:?}")))
}

fn req_u64(doc: &Json, key: &str) -> Result<u64, SpecError> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| SpecError::new(format!("missing integer field {key:?}")))
}

fn req_f64(doc: &Json, key: &str) -> Result<f64, SpecError> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| SpecError::new(format!("missing numeric field {key:?}")))
}

fn req_arr<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], SpecError> {
    doc.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| SpecError::new(format!("missing array field {key:?}")))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn tiny_spec() -> FleetSpec {
        FleetSpec {
            name: "tiny".into(),
            master_seed: 11,
            replicates: 3,
            duration_s: 2.0,
            particles: 100,
            beams: 91,
            success_lat_cm: 50.0,
            maps: vec![MapSpec {
                name: "fourier-33".into(),
                fourier_seed: 33,
                half_width: 1.25,
                mean_radius: 6.0,
            }],
            grips: vec![
                GripSpec {
                    name: "HQ".into(),
                    mu: 1.0,
                },
                GripSpec {
                    name: "LQ".into(),
                    mu: 19.0 / 26.0,
                },
            ],
            scenarios: vec![
                ScenarioSpec {
                    name: "nominal".into(),
                    schedule: FaultSchedule::builder().seed(1).build().expect("valid"),
                    measure_from: 0,
                    recovery_budget: None,
                },
                ScenarioSpec {
                    name: "odom_slip".into(),
                    schedule: FaultSchedule::builder()
                        .seed(1)
                        .odom_slip(20, 40, 1.8)
                        .build()
                        .expect("valid"),
                    measure_from: 40,
                    recovery_budget: None,
                },
            ],
            budgets: vec![0],
            methods: vec![EvalMethod::SynPf, EvalMethod::DeadReckoning],
        }
    }

    #[test]
    fn expansion_is_canonical_and_sized() {
        let spec = tiny_spec();
        spec.validate().expect("valid spec");
        let cells = spec.cells();
        // 1 map × 2 grips × 2 scenarios × 2 methods.
        assert_eq!(cells.len(), 8);
        let runs = spec.runs();
        assert_eq!(runs.len(), cells.len() * 3);
        assert_eq!(spec.total_runs(), runs.len());
        // Linear indices are the identity over the canonical order.
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.cell, i / 3);
            assert_eq!(r.replicate as usize, i % 3);
        }
    }

    #[test]
    fn world_seeds_pair_methods_and_separate_replicates() {
        let spec = tiny_spec();
        let runs = spec.runs();
        // Same (map, grip, scenario, replicate), different method → same
        // world seed (the paired-comparison property).
        let synpf: Vec<u64> = runs
            .iter()
            .filter(|r| r.key.method == 0)
            .map(|r| r.world_seed)
            .collect();
        let dr: Vec<u64> = runs
            .iter()
            .filter(|r| r.key.method == 1)
            .map(|r| r.world_seed)
            .collect();
        assert_eq!(synpf, dr);
        // Replicates differ, and all seeds across cells are distinct.
        let mut all: Vec<u64> = synpf.clone();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), synpf.len(), "world seeds must not collide");
    }

    #[test]
    fn seeds_are_pure_in_the_spec() {
        let spec = tiny_spec();
        assert_eq!(spec.world_seed(0, 1, 1, 2), spec.world_seed(0, 1, 1, 2));
        assert_ne!(spec.world_seed(0, 0, 0, 0), spec.world_seed(0, 0, 0, 1));
        let mut other = spec.clone();
        other.master_seed = 12;
        assert_ne!(spec.world_seed(0, 0, 0, 0), other.world_seed(0, 0, 0, 0));
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let spec = tiny_spec();
        let text = format!("{}", spec.to_json());
        let back = FleetSpec::from_json_str(&text).expect("parse back");
        assert_eq!(back, spec);
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut s = tiny_spec();
        s.replicates = 0;
        assert!(s.validate().is_err(), "zero replicates");
        let mut s = tiny_spec();
        s.methods.clear();
        assert!(s.validate().is_err(), "empty axis");
        let mut s = tiny_spec();
        s.grips.push(GripSpec {
            name: "HQ".into(),
            mu: 0.5,
        });
        assert!(s.validate().is_err(), "duplicate grip name");
        let mut s = tiny_spec();
        s.duration_s = f64::NAN;
        assert!(s.validate().is_err(), "NaN duration");
        let mut s = tiny_spec();
        s.maps.push(MapSpec {
            name: "bad".into(),
            fourier_seed: 1,
            half_width: 0.1,
            mean_radius: 6.0,
        });
        assert!(s.validate().is_err(), "implausible half width");
        let mut s = tiny_spec();
        s.budgets.clear();
        assert!(s.validate().is_err(), "empty budget axis");
        let mut s = tiny_spec();
        s.budgets = vec![50_000, 50_000];
        assert!(s.validate().is_err(), "duplicate budget");
        let mut s = tiny_spec();
        s.scenarios[1].measure_from = s.corrections();
        assert!(s.validate().is_err(), "recovery measured from the run end");
        let mut s = tiny_spec();
        s.scenarios[1].schedule = FaultSchedule::builder()
            .seed(1)
            .odom_slip(80, 90, 1.8)
            .build()
            .expect("valid");
        assert!(s.validate().is_err(), "fault window after the run end");
        assert!(FleetSpec::from_json_str("{}").is_err());
        assert!(FleetSpec::from_json_str("not json").is_err());
    }

    #[test]
    fn budget_axis_expands_between_scenario_and_method() {
        let mut spec = tiny_spec();
        spec.budgets = vec![0, 50_000];
        spec.validate().expect("valid spec");
        let cells = spec.cells();
        // 1 map × 2 grips × 2 scenarios × 2 budgets × 2 methods.
        assert_eq!(cells.len(), 16);
        // Budget varies faster than scenario, slower than method.
        assert_eq!((cells[0].budget, cells[0].method), (0, 0));
        assert_eq!((cells[1].budget, cells[1].method), (0, 1));
        assert_eq!((cells[2].budget, cells[2].method), (1, 0));
        assert_eq!(cells[3].scenario, cells[0].scenario);
        // World seeds ignore the budget axis: paired worlds per budget.
        let runs = spec.runs();
        let at = |budget: usize| -> Vec<u64> {
            runs.iter()
                .filter(|r| r.key.budget == budget && r.key.method == 0)
                .map(|r| r.world_seed)
                .collect()
        };
        assert_eq!(at(0), at(1));
    }

    #[test]
    fn budgets_default_to_uncapped_in_json() {
        let spec = tiny_spec();
        let mut text = format!("{}", spec.to_json());
        // Strip the budgets key to simulate a pre-deadline spec file.
        text = text.replace("\"budgets\":[0],", "");
        let back = FleetSpec::from_json_str(&text).expect("parse back");
        assert_eq!(back.budgets, vec![0]);
        assert_eq!(back, spec);
    }

    #[test]
    fn method_labels_round_trip() {
        for m in EvalMethod::all() {
            assert_eq!(EvalMethod::parse(m.name()), Some(m));
        }
        assert_eq!(EvalMethod::parse("AMCL"), None);
    }

    #[test]
    fn map_spec_builds_a_paper_scale_track() {
        let spec = tiny_spec();
        let track = spec.maps[0].build_track();
        let len = track.raceline.total_length();
        assert!((25.0..60.0).contains(&len), "raceline {len} m");
        assert!(track.is_free(track.start_pose().translation()));
    }
}
