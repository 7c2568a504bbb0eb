//! Fleet execution: one closed-loop simulation per trajectory group,
//! fanned over the persistent worker pool, reduced to deterministic
//! per-run outcomes.
//!
//! Runs execute under **oracle control** (the car drives ground truth) so
//! every localizer of a cell sees the identical trajectory and fault
//! exposure — which is what lets [`execute_group`] simulate that
//! trajectory once for every budget × method sharing it. Each job pins
//! its inner simulator and particle pipelines to one thread; the pool's
//! thread count only fans *groups* out, and because every outcome is a
//! pure function of its [`RunDesc`], the assembled outcome vector is
//! bit-identical for any thread count and any job-completion order (rule
//! R3 — `tests/fleet_determinism.rs` enforces this end to end).

use std::path::PathBuf;
use std::sync::Arc;

use raceloc_core::localizer::{DeadReckoning, Localizer};
use raceloc_core::{stats, stream_keys, DeadlineConfig, Health, Rng64};
use raceloc_map::Track;
use raceloc_obs::{Json, Telemetry};
use raceloc_par::{FnJob, WorkerPool};
use raceloc_pf::{HealthPolicy, KldConfig, RecoveryConfig, SynPf, SynPfConfig};
use raceloc_range::{ArtifactParams, ArtifactStore, MapArtifacts};
use raceloc_sim::{SimLog, World, WorldConfig};
use raceloc_slam::{CartoLocalizer, CartoLocalizerConfig, SlamHealthPolicy};

use crate::aggregate::{FleetReport, ReportBuilder};
use crate::cache::{cell_hash, intern_counter, CellCache};
use crate::spec::{EvalMethod, FleetSpec, RunDesc, SpecError};

/// Shared immutable resources of one evaluation map: built once per
/// fleet, shared by every job on the map through `Arc` (the range LUT in
/// particular is far too expensive to rebuild per run).
#[derive(Debug, Clone)]
pub struct MapResources {
    /// The generated track (grid + reference lines).
    pub track: Arc<Track>,
    /// The shared artifact bundle (grid + EDT + lazy range LUT) over the
    /// track's grid, deduplicated by content key across identical maps.
    pub artifacts: Arc<MapArtifacts>,
}

/// The read-only pool context every fleet job executes against, indexed
/// by [`crate::spec::CellKey::map`].
#[derive(Debug, Clone)]
pub struct FleetCtx {
    /// Per-map shared resources, in [`FleetSpec::maps`] order.
    pub maps: Vec<MapResources>,
}

impl FleetCtx {
    /// Builds every map of the spec and its artifact bundle (the
    /// expensive, run-once part of a fleet). Bundles come out of one
    /// [`ArtifactStore`], so specs listing the same map twice share a
    /// single EDT + LUT build.
    pub fn build(spec: &FleetSpec) -> Self {
        let store = ArtifactStore::new();
        Self {
            maps: spec
                .maps
                .iter()
                .map(|m| {
                    let track = m.build_track();
                    let artifacts = store.get_or_build(&track.grid, ArtifactParams::default());
                    MapResources {
                        track: Arc::new(track),
                        artifacts,
                    }
                })
                .collect(),
        }
    }
}

/// The deterministic outcome of one simulation run. Carries no wall-clock
/// fields; every field is a pure function of the run's [`RunDesc`] and
/// the spec.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The run's linear index (its scatter-back slot).
    pub index: usize,
    /// Scan corrections actually executed.
    pub steps: usize,
    /// Translation RMSE of the estimate vs ground truth \[cm\].
    pub rmse_cm: f64,
    /// 95th percentile of the per-step translation error \[cm\].
    pub p95_err_cm: f64,
    /// Worst translation error \[cm\].
    pub max_err_cm: f64,
    /// Mean |signed-lateral(est) − signed-lateral(truth)| w.r.t. the
    /// raceline \[cm\] — the localization-induced lateral error, the
    /// quantity that steers the car off line when the estimate is wrong.
    pub mean_lat_err_cm: f64,
    /// Corrections from the scenario's `measure_from` until health settles
    /// at Nominal for the rest of the run: one past the *last* non-Nominal
    /// correction at or after `measure_from`, minus `measure_from` — so a
    /// detector that fires a few corrections late cannot report a spurious
    /// instant recovery. `Some(0)` when health never leaves Nominal from
    /// `measure_from` on; `None` when the run ends still non-Nominal.
    pub recovery_steps: Option<u64>,
    /// Fraction of corrections spent in [`Health::Nominal`].
    pub pct_nominal: f64,
    /// Whether the ground-truth run aborted in a crash.
    pub crashed: bool,
    /// Whether every pose estimate was finite.
    pub finite: bool,
    /// Finite, crash-free, and mean lateral error within
    /// [`FleetSpec::success_lat_cm`].
    pub success: bool,
    /// Telemetry counters recorded during the run (event counts only —
    /// never spans or wall-clock), sorted by name.
    pub counters: Vec<(&'static str, u64)>,
}

/// Serializes a float for the cache layer, where non-finite
/// values must survive the trip (the report layer's `Json::num` maps them
/// to `null`, which is fine for rendering but lossy for replay).
fn float_json(v: f64) -> Json {
    if v.is_finite() {
        Json::num(v)
    } else if v.is_nan() {
        Json::Str("NaN".into())
    } else if v > 0.0 {
        Json::Str("Infinity".into())
    } else {
        Json::Str("-Infinity".into())
    }
}

/// Parses a float written by [`float_json`].
fn float_from(doc: &Json, key: &str) -> Option<f64> {
    match doc.get(key)? {
        Json::Str(s) => match s.as_str() {
            "NaN" => Some(f64::NAN),
            "Infinity" => Some(f64::INFINITY),
            "-Infinity" => Some(f64::NEG_INFINITY),
            _ => None,
        },
        v => v.as_f64(),
    }
}

impl RunOutcome {
    /// Serializes the outcome for the cell cache (stable key
    /// order). The run `index` is deliberately omitted: it names a slot in
    /// *this* spec's run numbering, which shifts when axes are edited —
    /// cached outcomes are positional (replicate order) and get re-indexed
    /// on load. Finite floats round-trip bit-exactly (shortest-round-trip
    /// serialization); non-finite ones ride as strings.
    pub(crate) fn to_cache_json(&self) -> Json {
        Json::Obj(vec![
            ("steps".into(), Json::num(self.steps as f64)),
            ("rmse_cm".into(), float_json(self.rmse_cm)),
            ("p95_err_cm".into(), float_json(self.p95_err_cm)),
            ("max_err_cm".into(), float_json(self.max_err_cm)),
            ("mean_lat_err_cm".into(), float_json(self.mean_lat_err_cm)),
            (
                "recovery_steps".into(),
                self.recovery_steps
                    .map_or(Json::Null, |s| Json::num(s as f64)),
            ),
            ("pct_nominal".into(), float_json(self.pct_nominal)),
            ("crashed".into(), Json::Bool(self.crashed)),
            ("finite".into(), Json::Bool(self.finite)),
            ("success".into(), Json::Bool(self.success)),
            (
                "counters".into(),
                Json::Arr(
                    self.counters
                        .iter()
                        .map(|&(name, v)| {
                            Json::Arr(vec![Json::Str(name.to_string()), Json::num(v as f64)])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses an outcome written by [`RunOutcome::to_cache_json`],
    /// rebasing it onto run slot `index`. Returns `None` on any malformed
    /// field (the caller treats the whole entry as a cache miss).
    pub(crate) fn from_cache_json(doc: &Json, index: usize) -> Option<Self> {
        let bool_field = |key: &str| match doc.get(key)? {
            Json::Bool(b) => Some(*b),
            _ => None,
        };
        let recovery_steps = match doc.get("recovery_steps") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_u64()?),
        };
        let mut counters = Vec::new();
        for pair in doc.get("counters").and_then(Json::as_array)? {
            let pair = pair.as_array()?;
            let [name, value] = pair else {
                return None;
            };
            counters.push((intern_counter(name.as_str()?), value.as_u64()?));
        }
        Some(Self {
            index,
            steps: doc.get("steps").and_then(Json::as_u64)? as usize,
            rmse_cm: float_from(doc, "rmse_cm")?,
            p95_err_cm: float_from(doc, "p95_err_cm")?,
            max_err_cm: float_from(doc, "max_err_cm")?,
            mean_lat_err_cm: float_from(doc, "mean_lat_err_cm")?,
            recovery_steps,
            pct_nominal: float_from(doc, "pct_nominal")?,
            crashed: bool_field("crashed")?,
            finite: bool_field("finite")?,
            success: bool_field("success")?,
            counters,
        })
    }

    /// The outcome of a run whose axes could not be resolved against the
    /// context — unreachable after [`FleetSpec::validate`], but kept as a
    /// non-panicking fallback (rule R1).
    fn unresolved(index: usize) -> Self {
        Self {
            index,
            steps: 0,
            rmse_cm: f64::INFINITY,
            p95_err_cm: f64::INFINITY,
            max_err_cm: f64::INFINITY,
            mean_lat_err_cm: f64::INFINITY,
            recovery_steps: None,
            pct_nominal: 0.0,
            crashed: false,
            finite: false,
            success: false,
            counters: Vec::new(),
        }
    }
}

/// One run's localizer, built for its seat in a trajectory group.
enum Member {
    SynPf(Box<SynPf<Arc<MapArtifacts>>>),
    Cartographer(Box<CartoLocalizer>),
    DeadReckoning(DeadReckoning),
}

impl Member {
    /// Builds `method` under compute budget `budget` (0 = uncapped) on the
    /// map's shared artifacts, recording into `tel`. `None` when the
    /// configuration is invalid.
    fn build(
        spec: &FleetSpec,
        method: EvalMethod,
        budget: u64,
        res: &MapResources,
        filter_seed: u64,
        tel: &Telemetry,
    ) -> Option<Self> {
        Some(match method {
            EvalMethod::SynPf => {
                let mut builder = SynPfConfig::builder()
                    .particles(spec.particles)
                    .threads(1)
                    .seed(filter_seed)
                    .recovery(RecoveryConfig::default())
                    .health(HealthPolicy::default());
                // A positive budget arms the deadline controller; KLD gives
                // it the particle-count knob the ladder's rungs scale
                // (DESIGN.md §14). Budget 0 keeps the historical uncapped
                // pipeline.
                if budget > 0 {
                    builder = builder
                        .kld(KldConfig {
                            min_particles: (spec.particles / 4).max(50),
                            max_particles: spec.particles,
                            ..KldConfig::default()
                        })
                        .deadline(DeadlineConfig {
                            budget_units: budget,
                            ..DeadlineConfig::default()
                        });
                }
                let config = builder.build().ok()?;
                let mut pf = SynPf::from_artifacts(Arc::clone(&res.artifacts), config);
                pf.enable_recovery(&res.track.grid);
                pf.set_telemetry(tel.clone());
                Self::SynPf(Box::new(pf))
            }
            EvalMethod::Cartographer => {
                let config = CartoLocalizerConfig {
                    health: Some(SlamHealthPolicy::default()),
                    ..CartoLocalizerConfig::default()
                };
                let mut carto = CartoLocalizer::from_artifacts(&res.artifacts, config);
                carto.set_telemetry(tel.clone());
                Self::Cartographer(Box::new(carto))
            }
            EvalMethod::DeadReckoning => Self::DeadReckoning(DeadReckoning::new()),
        })
    }

    fn localizer(&mut self) -> &mut dyn Localizer {
        match self {
            Self::SynPf(pf) => pf.as_mut(),
            Self::Cartographer(carto) => carto.as_mut(),
            Self::DeadReckoning(dr) => dr,
        }
    }

    /// Books what the localizer's state says once the run is over.
    fn finish(&self, tel: &Telemetry) {
        if let Self::SynPf(pf) = self {
            if let Some(ctl) = pf.deadline() {
                // Where the ladder settled when the run ended — lets the
                // report distinguish "degraded and recovered" from "pinned
                // at the bottom rung".
                tel.add("deadline.final_rung", ctl.rung() as u64);
            }
        }
    }
}

/// Executes one run of the fleet: a [trajectory group](execute_group) of
/// one. Pure in `(spec, desc)`; the context only caches what the spec
/// already determines.
pub fn execute_run(spec: &FleetSpec, desc: RunDesc, ctx: &FleetCtx) -> RunOutcome {
    execute_group(spec, &[desc], ctx)
        .into_iter()
        .next()
        .unwrap_or_else(|| RunOutcome::unresolved(desc.index))
}

/// Executes a **trajectory group**: runs that share one `(map, grip,
/// scenario, replicate)` and so one world seed, differing only in compute
/// budget and method. Builds that world once, steps every run's localizer
/// on it in lockstep under oracle control
/// ([`World::run_with_oracle_control_all`]), and reduces each log.
/// Returns one outcome per descriptor, in order.
///
/// Sharing is exact: oracle control never reads a localizer and the
/// world seed ignores budget and method, so each localizer sees the
/// trajectory, sensor stream and call sequence of a solo run. The world
/// records into its own telemetry, whose counters (`faults.*`, …) are
/// then added into every run's — counters are additive — so each
/// outcome is bit-identical to running its descriptor alone (DESIGN.md
/// §15). A descriptor whose axes do not resolve, or whose trajectory
/// differs from the first descriptor's, gets an unresolved outcome.
pub fn execute_group(spec: &FleetSpec, descs: &[RunDesc], ctx: &FleetCtx) -> Vec<RunOutcome> {
    let mut outcomes: Vec<RunOutcome> = descs
        .iter()
        .map(|d| RunOutcome::unresolved(d.index))
        .collect();
    let Some(first) = descs.first() else {
        return outcomes;
    };
    let trajectory = |d: &RunDesc| (d.key.map, d.key.grip, d.key.scenario, d.world_seed);
    let (Some(res), Some(grip), Some(scenario)) = (
        ctx.maps.get(first.key.map),
        spec.grips.get(first.key.grip),
        spec.scenarios.get(first.key.scenario),
    ) else {
        return outcomes;
    };

    // The filter seed is derived from the world seed (not equal to it) so
    // filter noise and world noise are independent streams.
    let filter_seed = Rng64::stream(first.world_seed, stream_keys::eval_filter()).next_u64();
    let mut members: Vec<(usize, Telemetry, Member)> = Vec::with_capacity(descs.len());
    for (slot, desc) in descs.iter().enumerate() {
        if trajectory(desc) != trajectory(first) {
            continue;
        }
        let (Some(&budget), Some(&method)) = (
            spec.budgets.get(desc.key.budget),
            spec.methods.get(desc.key.method),
        ) else {
            continue;
        };
        let tel = Telemetry::enabled();
        if let Some(member) = Member::build(spec, method, budget, res, filter_seed, &tel) {
            members.push((slot, tel, member));
        }
    }
    if members.is_empty() {
        return outcomes;
    }

    let mut wcfg = WorldConfig::default();
    wcfg.vehicle.mu = grip.mu;
    wcfg.seed = first.world_seed;
    wcfg.lidar.beams = spec.beams;
    // Inner parallelism stays off: the fleet's unit of fan-out is the
    // trajectory group.
    wcfg.threads = 1;
    let world_tel = Telemetry::enabled();
    let mut world = World::new((*res.track).clone(), wcfg);
    world.set_telemetry(world_tel.clone());
    if !scenario.schedule.is_empty() {
        world.set_fault_schedule(scenario.schedule.clone());
    }
    let logs = {
        let mut localizers: Vec<&mut dyn Localizer> =
            members.iter_mut().map(|(_, _, m)| m.localizer()).collect();
        world.run_with_oracle_control_all(&mut localizers, spec.duration_s)
    };

    let world_snap = world_tel.snapshot();
    for ((slot, tel, member), log) in members.iter().zip(&logs) {
        member.finish(tel);
        for (name, value) in world_snap.counters() {
            tel.add(name, value);
        }
        if let (Some(out), Some(&desc)) = (outcomes.get_mut(*slot), descs.get(*slot)) {
            *out = reduce(spec, desc, res, scenario.measure_from, tel, log);
        }
    }
    outcomes
}

/// Reduces one run log to its deterministic outcome.
fn reduce(
    spec: &FleetSpec,
    desc: RunDesc,
    res: &MapResources,
    measure_from: u64,
    tel: &Telemetry,
    log: &SimLog,
) -> RunOutcome {
    let n = log.samples.len();
    let denom = n.max(1) as f64;
    let mut sq = 0.0;
    let mut max_err = 0.0f64;
    let mut lat_sum = 0.0;
    let mut finite = true;
    let mut nominal = 0usize;
    let mut errors_cm = Vec::with_capacity(n);
    let raceline = &res.track.raceline;
    for s in &log.samples {
        if !(s.est_pose.x.is_finite() && s.est_pose.y.is_finite() && s.est_pose.theta.is_finite()) {
            finite = false;
        }
        let e = s.true_pose.dist(s.est_pose);
        sq += e * e;
        max_err = max_err.max(e);
        errors_cm.push(100.0 * e);
        let lat_true = raceline.project(s.true_pose.translation()).1;
        let lat_est = raceline.project(s.est_pose.translation()).1;
        if lat_est.is_finite() {
            lat_sum += (lat_est - lat_true).abs();
        }
        if s.health == Health::Nominal {
            nominal += 1;
        }
    }
    let last_bad = log
        .samples
        .iter()
        .enumerate()
        .skip(measure_from as usize)
        .filter(|(_, s)| s.health != Health::Nominal)
        .map(|(i, _)| i)
        .next_back();
    let recovery_steps = match last_bad {
        None => Some(0),
        Some(i) if i + 1 < n => Some((i + 1) as u64 - measure_from),
        Some(_) => None,
    };
    let rmse_cm = 100.0 * (sq / denom).sqrt();
    let mean_lat_err_cm = 100.0 * lat_sum / denom;
    // Success is judged on the paper's primary error axis: did the
    // estimate keep the car laterally on line, on average, for the whole
    // run? (Whole-run translation RMSE punishes the corridor's
    // longitudinal ambiguity after a global re-init, which the paper
    // treats separately via recovery latency.)
    let success = finite && !log.crashed && mean_lat_err_cm <= spec.success_lat_cm;
    // Fleet-level event counters (deterministic — no wall clock): these
    // roll up next to whatever the localizer and fault tracker recorded.
    tel.add("eval.runs", 1);
    tel.add("eval.steps", n as u64);
    if log.crashed {
        tel.add("eval.crashes", 1);
    }
    if !finite {
        tel.add("eval.nonfinite", 1);
    }
    if success {
        tel.add("eval.successes", 1);
    }
    let snap = tel.snapshot();
    let mut counters: Vec<(&'static str, u64)> = snap.counters().collect();
    counters.sort_unstable_by_key(|&(name, _)| name);
    RunOutcome {
        index: desc.index,
        steps: n,
        rmse_cm,
        p95_err_cm: stats::quantile(&errors_cm, 0.95).unwrap_or(0.0),
        max_err_cm: 100.0 * max_err,
        mean_lat_err_cm,
        recovery_steps,
        pct_nominal: nominal as f64 / denom,
        crashed: log.crashed,
        finite,
        success,
        counters,
    }
}

/// How one fleet invocation executes: pool width plus the optional
/// persistence layers of the scale-out engine (DESIGN.md §15).
#[derive(Debug, Clone, Default)]
pub struct FleetRunOptions {
    /// Worker-pool width (clamped to at least 1).
    pub threads: usize,
    /// Content-addressed cell cache directory; `None` disables caching.
    /// Rerunning an interrupted fleet against the same directory resumes
    /// it: every cell stored before the interrupt is a cache hit.
    pub cache_dir: Option<PathBuf>,
    /// Stop after this many cells are complete (cached or executed — any
    /// provenance counts); the rest of the report is `missing` rows.
    /// `None` runs to completion. This is the interruption primitive the
    /// resume tests drive.
    pub stop_after_cells: Option<usize>,
}

impl FleetRunOptions {
    /// Plain in-memory execution on `threads` workers.
    pub fn new(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }
}

/// How a fleet invocation's cells were satisfied. Kept **outside** the
/// [`FleetReport`] on purpose: the report is a pure function of the spec,
/// while these numbers describe one invocation's provenance (a fully
/// cached re-run and a cold run must still produce byte-identical
/// reports).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetRunStats {
    /// Cells in the spec.
    pub cells_total: u64,
    /// Cells satisfied from the content-addressed cache.
    pub cache_hits: u64,
    /// Cells written to the cache this invocation.
    pub cache_stores: u64,
    /// Cells actually executed.
    pub executed_cells: u64,
    /// Runs actually executed.
    pub executed_runs: u64,
    /// Whether `stop_after_cells` cut the invocation short.
    pub stopped_early: bool,
}

impl FleetRunStats {
    /// Books the invocation's provenance counters into a telemetry handle
    /// under the cataloged `eval.cache.*` names.
    pub fn publish(&self, tel: &Telemetry) {
        tel.add("eval.cache.hits", self.cache_hits);
        tel.add("eval.cache.misses", self.executed_cells);
        tel.add("eval.cache.stores", self.cache_stores);
    }

    /// Serializes the stats (stable key order).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("cells_total".into(), Json::num(self.cells_total as f64)),
            ("cache_hits".into(), Json::num(self.cache_hits as f64)),
            ("cache_stores".into(), Json::num(self.cache_stores as f64)),
            (
                "executed_cells".into(),
                Json::num(self.executed_cells as f64),
            ),
            ("executed_runs".into(), Json::num(self.executed_runs as f64)),
            ("stopped_early".into(), Json::Bool(self.stopped_early)),
        ])
    }
}

/// A fleet invocation failure: either the spec is invalid, or a
/// persistence layer could not be opened/written. Execution itself never
/// errors (failed runs become `missing` rows).
#[derive(Debug)]
pub enum FleetError {
    /// The spec failed validation.
    Spec(SpecError),
    /// A cache I/O failure.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error message.
        message: String,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Spec(e) => write!(f, "{e}"),
            FleetError::Io { path, message } => {
                write!(f, "fleet i/o error at {}: {message}", path.display())
            }
        }
    }
}

impl std::error::Error for FleetError {}

impl From<SpecError> for FleetError {
    fn from(e: SpecError) -> Self {
        FleetError::Spec(e)
    }
}

fn io_err(path: &std::path::Path, e: std::io::Error) -> FleetError {
    FleetError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}

/// Runs a fleet through the scale-out engine: resolves every cell it can
/// from the cache and executes only what is left, in canonical-order
/// waves over a [`WorkerPool`]. Completed cells are stored in the cache
/// as each wave lands, so an interrupt loses at most one wave and a rerun
/// over the same cache directory resumes the fleet. Returns the report
/// plus this invocation's provenance stats.
///
/// The report is byte-identical for any pool width, any wave boundary,
/// and any mix of cached/executed cells — the engine only changes
/// *where* outcomes come from, never what they are.
pub fn run_fleet_with(
    spec: &FleetSpec,
    opts: &FleetRunOptions,
) -> Result<(FleetReport, FleetRunStats), FleetError> {
    spec.validate()?;
    let cells = spec.cells();
    let replicates = spec.replicates as usize;
    let mut stats = FleetRunStats {
        cells_total: cells.len() as u64,
        ..FleetRunStats::default()
    };

    let hashes: Vec<u64> = cells.iter().map(|&key| cell_hash(spec, key)).collect();
    let cache = match &opts.cache_dir {
        Some(dir) => Some(CellCache::open(dir).map_err(|e| io_err(dir, e))?),
        None => None,
    };

    // Resolve what the cache already has.
    let mut builder = ReportBuilder::new(spec);
    let mut pending: Vec<usize> = Vec::new();
    for (cell, &hash) in hashes.iter().enumerate() {
        match cache.as_ref().and_then(|c| c.load(hash, replicates)) {
            Some(outcomes) => {
                stats.cache_hits += 1;
                let slots: Vec<Option<RunOutcome>> = outcomes.into_iter().map(Some).collect();
                builder.fold_cell(cell, &slots);
            }
            None => pending.push(cell),
        }
    }

    // Apply the interruption budget: cells beyond it stay missing.
    let budget = opts
        .stop_after_cells
        .map(|limit| limit.saturating_sub(stats.cache_hits as usize))
        .unwrap_or(pending.len());
    if budget < pending.len() {
        stats.stopped_early = true;
    }
    let skipped: Vec<usize> = pending.split_off(budget.min(pending.len()));
    for cell in skipped {
        builder.fold_missing_cell(cell);
    }

    // Execute the remainder in canonical-order waves of trajectory
    // families, storing each completed wave before starting the next. A
    // family is the cells sharing one (map, grip, scenario) — contiguous
    // in canonical order — and one job runs one replicate of a family's
    // pending cells on a single simulated trajectory (`execute_group`).
    // The pool (and the expensive per-map artifact builds) only exist
    // when something actually runs — a fully cached invocation never
    // touches them.
    if !pending.is_empty() {
        let threads = opts.threads.max(1);
        let shared = Arc::new(spec.clone());
        let pool: WorkerPool<FleetCtx, FnJob<FleetCtx, Vec<RunOutcome>>> =
            WorkerPool::new(FleetCtx::build(spec), threads);
        let runs = spec.runs();
        let family_len = (spec.budgets.len() * spec.methods.len()).max(1);
        let families: Vec<&[usize]> = pending
            .chunk_by(|a, b| a / family_len == b / family_len)
            .collect();
        // Enough families per wave to keep every worker busy (at least 2
        // jobs per worker) without deferring checkpoints longer than
        // needed.
        let families_per_wave = (threads * 2).div_ceil(replicates).max(1);
        for wave in families.chunks(families_per_wave) {
            let mut jobs: Vec<FnJob<FleetCtx, Vec<RunOutcome>>> = Vec::new();
            for (slot, family) in wave.iter().enumerate() {
                for replicate in 0..replicates {
                    let descs: Vec<RunDesc> = family
                        .iter()
                        .filter_map(|&cell| runs.get(cell * replicates + replicate).copied())
                        .collect();
                    let spec = Arc::clone(&shared);
                    jobs.push(FnJob::new(
                        slot * replicates + replicate,
                        move |ctx: &FleetCtx| execute_group(&spec, &descs, ctx),
                    ));
                }
            }
            pool.run_batch(&mut jobs);
            // Scatter by tag: run_batch hands jobs back in pool order.
            let mut groups: Vec<Option<Vec<RunOutcome>>> =
                (0..wave.len() * replicates).map(|_| None).collect();
            for job in &mut jobs {
                let tag = job.tag();
                if let Some(slot) = groups.get_mut(tag) {
                    *slot = job.take();
                }
            }
            for (slot, family) in wave.iter().enumerate() {
                for (seat, &cell) in family.iter().enumerate() {
                    // The cell's replicates sit at the same seat of each of
                    // the family's per-replicate groups.
                    let outcomes: Vec<Option<RunOutcome>> = (0..replicates)
                        .map(|replicate| {
                            let group = groups.get(slot * replicates + replicate)?.as_ref()?;
                            group.get(seat).cloned()
                        })
                        .collect();
                    stats.executed_cells += 1;
                    stats.executed_runs += outcomes.iter().flatten().count() as u64;
                    // Only complete cells are durable: a cell with a
                    // missing outcome must re-run next time, not replay a
                    // hole.
                    if let Some(cache) = &cache {
                        if outcomes.iter().all(Option::is_some) {
                            let complete: Vec<RunOutcome> =
                                outcomes.iter().flatten().cloned().collect();
                            let hash = hashes.get(cell).copied().unwrap_or(0);
                            cache
                                .store(hash, &complete)
                                .map_err(|e| io_err(cache.dir(), e))?;
                            stats.cache_stores += 1;
                        }
                    }
                    builder.fold_cell(cell, &outcomes);
                }
            }
        }
    }

    Ok((builder.finish(), stats))
}

/// Runs the whole fleet in memory: validates the spec, builds the shared
/// context, fans every run over a [`WorkerPool`] of `threads` workers,
/// and folds outcomes in canonical order into a [`FleetReport`]. The
/// report is bit-identical for every `threads` value. (The persistence
/// layers live behind [`run_fleet_with`].)
pub fn run_fleet(spec: &FleetSpec, threads: usize) -> Result<FleetReport, SpecError> {
    match run_fleet_with(spec, &FleetRunOptions::new(threads)) {
        Ok((report, _)) => Ok(report),
        Err(FleetError::Spec(e)) => Err(e),
        // Unreachable without a cache directory, but mapped anyway.
        Err(e @ FleetError::Io { .. }) => Err(SpecError::new(e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CellKey, GripSpec, MapSpec, ScenarioSpec};
    use raceloc_faults::FaultSchedule;

    fn micro_spec() -> FleetSpec {
        FleetSpec {
            name: "micro".into(),
            master_seed: 9,
            replicates: 1,
            duration_s: 1.5,
            particles: 80,
            beams: 61,
            success_lat_cm: 100.0,
            maps: vec![MapSpec {
                name: "m0".into(),
                fourier_seed: 33,
                half_width: 1.25,
                mean_radius: 6.0,
            }],
            grips: vec![GripSpec {
                name: "HQ".into(),
                mu: 1.0,
            }],
            scenarios: vec![ScenarioSpec {
                name: "nominal".into(),
                schedule: FaultSchedule::builder().seed(1).build().expect("valid"),
                measure_from: 0,
                recovery_budget: None,
            }],
            budgets: vec![0],
            methods: vec![EvalMethod::DeadReckoning],
        }
    }

    #[test]
    fn execute_run_is_pure_in_the_descriptor() {
        let spec = micro_spec();
        let ctx = FleetCtx::build(&spec);
        let desc = spec.runs()[0];
        let a = execute_run(&spec, desc, &ctx);
        let b = execute_run(&spec, desc, &ctx);
        assert_eq!(a, b, "same descriptor must give a bit-identical outcome");
        assert!(a.steps > 30, "1.5 s at 40 Hz");
        assert!(a.finite);
        assert_eq!(a.pct_nominal, 1.0, "dead reckoning has no detectors");
        assert!(a.p95_err_cm <= a.max_err_cm + 1e-12);
        assert!(!a.counters.is_empty(), "world counters recorded");
    }

    #[test]
    fn a_trajectory_group_equals_its_runs_executed_alone() {
        let mut spec = micro_spec();
        spec.budgets = vec![0, 10_000];
        spec.methods = EvalMethod::all().to_vec();
        // Faults on the shared world, so its own counters must reach
        // every outcome of the group.
        spec.scenarios[0].schedule = FaultSchedule::builder()
            .seed(1)
            .lidar_blackout(10, 14)
            .compute_pressure(20, 40, 0.3)
            .build()
            .expect("valid");
        let ctx = FleetCtx::build(&spec);
        let runs = spec.runs();
        assert_eq!(runs.len(), 6, "one trajectory: 2 budgets x 3 methods");
        let alone: Vec<RunOutcome> = runs
            .iter()
            .map(|&desc| execute_run(&spec, desc, &ctx))
            .collect();
        assert!(alone.iter().all(|o| o
            .counters
            .iter()
            .any(|&(name, v)| name == "faults.lidar_blackout.steps" && v == 4)));
        assert_eq!(execute_group(&spec, &runs, &ctx), alone);

        // A descriptor on another trajectory cannot join the group; the
        // rest are unaffected.
        let mut stray = runs.clone();
        stray[4].world_seed ^= 1;
        let grouped = execute_group(&spec, &stray, &ctx);
        assert_eq!(grouped[4], RunOutcome::unresolved(stray[4].index));
        for i in [0, 1, 2, 3, 5] {
            assert_eq!(grouped[i], alone[i], "run {i}");
        }
    }

    #[test]
    fn unresolved_axes_do_not_panic() {
        let spec = micro_spec();
        let ctx = FleetCtx::build(&spec);
        let mut desc = spec.runs()[0];
        desc.key = CellKey {
            map: 7,
            grip: 0,
            scenario: 0,
            budget: 0,
            method: 0,
        };
        let out = execute_run(&spec, desc, &ctx);
        assert!(!out.success);
        assert!(!out.finite);
    }

    #[test]
    fn fleet_outcomes_are_identical_across_thread_counts() {
        let spec = micro_spec();
        let one = run_fleet(&spec, 1).expect("valid spec");
        let two = run_fleet(&spec, 2).expect("valid spec");
        assert_eq!(
            format!("{}", one.to_json()),
            format!("{}", two.to_json()),
            "report must not depend on pool width"
        );
    }

    #[test]
    fn only_capped_synpf_cells_carry_a_ladder() {
        let mut spec = micro_spec();
        spec.methods = vec![EvalMethod::SynPf, EvalMethod::DeadReckoning];
        spec.budgets = vec![0, 10_000];
        let report = run_fleet(&spec, 1).expect("valid spec");
        assert_eq!(report.cells.len(), 4);
        for cell in &report.cells {
            let controlled = cell.budget > 0 && cell.method == "SynPF";
            assert_eq!(
                cell.ladder.is_some(),
                controlled,
                "b{} {}",
                cell.budget,
                cell.method
            );
            if let Some(ladder) = &cell.ladder {
                // One planned rung per correction, one final rung per run.
                assert_eq!(ladder.rung_occupancy.iter().sum::<u64>(), cell.steps);
                assert_eq!(ladder.final_rungs.iter().sum::<u64>(), cell.runs);
            }
        }
    }
}
