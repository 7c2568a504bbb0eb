//! SynPF: the Monte-Carlo localization filter itself.

use raceloc_obs::{names, CounterName, Stopwatch};
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

use crate::kld::KldConfig;
use crate::layout::ScanLayout;
use crate::motion::{DiffDriveModel, TumMotionModel};
use crate::parstep::{cast_weight_kernel, motion_kernel, JobKind, PfShared, StepJob};
use crate::recovery::{FreeSpace, Recovery, RecoveryConfig};
use crate::resample::{effective_sample_size, normalize, systematic_indices_into};
use crate::sensor::{BeamModelConfig, BeamSensorModel};
use crate::store::ParticleStore;
use raceloc_core::localizer::Localizer;
use raceloc_core::sensor_data::{LaserScan, Odometry};
use raceloc_core::{stream_keys, DeadlineController, Diagnostics, Health, Pose2, Rng64, StepPlan};
use raceloc_map::OccupancyGrid;
use raceloc_obs::Telemetry;
use raceloc_par::{chunk_count, chunk_spans, PoolJob, WorkerPool, DEFAULT_CHUNK_MIN};
use raceloc_range::{MapArtifacts, RangeMethod};

/// Which motion model drives the prediction step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MotionConfig {
    /// The textbook odometry model (the paper's baseline in Fig. 1).
    DiffDrive(DiffDriveModel),
    /// The TUM high-speed model (what SynPF uses).
    Tum(TumMotionModel),
}

/// Configuration of a [`SynPf`] filter.
#[derive(Debug, Clone, PartialEq)]
pub struct SynPfConfig {
    /// Number of particles.
    pub particles: usize,
    /// Beam subsampling layout (SynPF default: boxed, 60 beams).
    pub layout: ScanLayout,
    /// Beam sensor-model parameters.
    pub beam_model: BeamModelConfig,
    /// Log-likelihood squash divisor: per-scan weight is
    /// `exp(Σ log p / squash)`. Values around the beam count temper the
    /// overconfident independence assumption between beams.
    pub squash: f64,
    /// Resample when `ESS < resample_ess_frac · particles`.
    pub resample_ess_frac: f64,
    /// σ of the initial position spread around a reset pose \[m\].
    pub init_sigma_xy: f64,
    /// σ of the initial heading spread around a reset pose \[rad\].
    pub init_sigma_theta: f64,
    /// LiDAR pose in the vehicle body frame.
    pub lidar_mount: Pose2,
    /// The motion model.
    pub motion: MotionConfig,
    /// Worker threads for the particle pipeline: 1 = every chunk runs
    /// inline (the paper's GPU-less LUT configuration); >1 dispatches the
    /// chunks to a persistent [`raceloc_par::WorkerPool`], emulating
    /// `rangelibc`'s parallel mode (DESIGN.md §1, §11). The chunk layout
    /// and RNG streams never depend on this value, so results are
    /// bit-identical for any thread count.
    pub threads: usize,
    /// Optional KLD-adaptive particle counts (Fox 2003): when set, each
    /// resampling step resizes the particle set to the KLD bound for the
    /// cloud's current histogram occupancy, between the configured bounds.
    /// `particles` is then only the initial count.
    pub kld: Option<KldConfig>,
    /// Optional augmented-MCL recovery (Thrun et al. §8.3): when the
    /// short-term measurement likelihood collapses relative to its long-term
    /// average, random particles are injected during resampling so the
    /// filter can recover from kidnapping / total mismatch. Requires
    /// [`SynPf::enable_recovery`] to supply the map to draw random poses
    /// from.
    pub recovery: Option<RecoveryConfig>,
    /// Optional health monitoring (DESIGN.md §12): divergence detectors
    /// feed a Nominal → Degraded → Lost → Recovering state machine, with
    /// stale-input rejection, a hold of the last scored estimate on
    /// uninformative scans (ROADMAP item 2), and automatic global
    /// re-initialization on Lost. `None` (the default)
    /// disables every detector at zero cost in the steady-state step.
    pub health: Option<crate::health::HealthPolicy>,
    /// Optional deadline-aware adaptive compute (DESIGN.md §14): each
    /// correction is planned against a per-step work-unit budget and the
    /// filter degrades down the [`raceloc_core::deadline::LADDER`]
    /// (particle ceiling, beam stride, range tier, bounded coast) instead
    /// of overrunning the scan period. The particle-ceiling rungs need
    /// [`SynPfConfig::kld`] to actually shrink the cloud; without it they
    /// only change the billed cost. `None` (the default) plans nothing.
    pub deadline: Option<raceloc_core::DeadlineConfig>,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for SynPfConfig {
    fn default() -> Self {
        Self {
            particles: 1200,
            layout: ScanLayout::Boxed {
                count: 60,
                aspect: 3.0,
            },
            beam_model: BeamModelConfig::default(),
            squash: 12.0,
            resample_ess_frac: 0.5,
            init_sigma_xy: 0.12,
            init_sigma_theta: 0.07,
            lidar_mount: Pose2::new(0.1, 0.0, 0.0),
            motion: MotionConfig::Tum(TumMotionModel::default()),
            threads: 1,
            kld: None,
            recovery: None,
            health: None,
            deadline: None,
            seed: 7,
        }
    }
}

/// The SynPF Monte-Carlo localizer (the paper's contribution).
///
/// Synthesizes the prior MCL work the paper builds on: the TUM high-speed
/// motion model and boxed scanline layout (Stahl et al. 2019) with
/// `rangelibc`-style accelerated expected-range queries and a discretized
/// beam sensor model (Walsh & Karaman 2018), plus low-variance resampling
/// gated on the effective sample size.
///
/// Generic over the [`RangeMethod`]: pass a [`raceloc_range::RangeLut`] for
/// the paper's constant-time CPU configuration.
///
/// # Examples
///
/// ```
/// use raceloc_map::{TrackShape, TrackSpec};
/// use raceloc_pf::{SynPf, SynPfConfig};
/// use raceloc_range::RayMarching;
/// use raceloc_core::localizer::Localizer;
///
/// let track = TrackSpec::new(TrackShape::Oval { width: 12.0, height: 7.0 })
///     .resolution(0.1)
///     .build();
/// let caster = RayMarching::new(&track.grid, 10.0);
/// let config = SynPfConfig::builder().particles(200).build().expect("valid config");
/// let mut pf = SynPf::new(caster, config);
/// pf.reset(track.start_pose());
/// assert_eq!(pf.particles().len(), 200);
/// ```
#[derive(Debug)]
pub struct SynPf<M: RangeMethod> {
    config: SynPfConfig,
    /// Range oracle + sensor table, shared with the pool workers.
    shared: Arc<PfShared<M>>,
    /// The particle cloud in structure-of-arrays lanes (DESIGN.md §11).
    store: ParticleStore,
    weights: Vec<f64>,
    rng: Rng64,
    last_odom: Option<Odometry>,
    estimate: Pose2,
    /// Augmented-MCL injection, health detectors and Lost → re-init.
    recovery: Recovery,
    // Scratch buffers reused across steps to stay allocation-free.
    log_w: Vec<f64>,
    /// Cached beam selection; recomputed only when the scan geometry
    /// changes (the layout depends on nothing else).
    beam_sel: Vec<usize>,
    beam_key: Option<(usize, u64, u64)>,
    /// Per-scan scratch: selected finite beams' bearings.
    beam_bearings: Vec<f64>,
    /// Per-scan scratch: matching measured-range row offsets into the
    /// quantized sensor table.
    beam_rows: Vec<u32>,
    /// Expected-bin scratch for the inline (`threads = 1`) cast kernel.
    ebins: Vec<u32>,
    /// Reusable chunk jobs (at most [`raceloc_par::MAX_CHUNKS`]).
    jobs: Vec<StepJob>,
    /// Worker pool, spawned lazily on the first step with `threads > 1`.
    pool: OnceLock<WorkerPool<Arc<PfShared<M>>, StepJob>>,
    /// Prediction counter; the high half of each chunk's motion RNG stream.
    motion_epoch: u64,
    resample_idx: Vec<usize>,
    resample_scratch: ParticleStore,
    /// Observability handle; disabled by default (one branch per record).
    tel: Telemetry,
    /// Motion-update time accumulated since the last correction \[s\].
    motion_accum_seconds: f64,
    /// Per-stage timings of the last correction, for [`Localizer::diagnostics`].
    last_stages: Vec<(Cow<'static, str>, f64)>,
    /// Degradation-ladder controller (DESIGN.md §14); `None` without a
    /// configured [`SynPfConfig::deadline`].
    deadline: Option<DeadlineController>,
    /// Latest compute-pressure factor delivered through
    /// [`Localizer::set_compute_pressure`] (1 = no pressure).
    pressure_factor: f64,
    /// The plan governing the current correction; read by the resampler's
    /// KLD target clamp.
    last_plan: Option<StepPlan>,
}

/// Per-rung occupancy counters, indexed by ladder rung (DESIGN.md §14).
const RUNG_COUNTERS: [CounterName; raceloc_core::deadline::LADDER_LEN] = [
    names::DEADLINE_RUNG0,
    names::DEADLINE_RUNG1,
    names::DEADLINE_RUNG2,
    names::DEADLINE_RUNG3,
    names::DEADLINE_RUNG4,
    names::DEADLINE_RUNG5,
];

/// [`SynPf::covariance`] of any cloud, around `est`.
fn covariance(store: &ParticleStore, weights: &[f64], est: Pose2) -> (f64, f64, f64) {
    let (se, ce) = est.theta.sin_cos();
    let mut vx = 0.0;
    let mut vy = 0.0;
    let mut sin_sum = 0.0;
    let mut cos_sum = 0.0;
    // Lane streaming pass; sin/cos of (θ − est.θ) come from the
    // maintained trig lanes via the angle-subtraction identities, so
    // the reduction is transcendental-free.
    for (i, &w) in weights.iter().enumerate().take(store.len()) {
        let dx = store.x[i] - est.x;
        let dy = store.y[i] - est.y;
        vx += w * dx * dx;
        vy += w * dy * dy;
        sin_sum += w * (store.sin[i] * ce - store.cos[i] * se);
        cos_sum += w * (store.cos[i] * ce + store.sin[i] * se);
    }
    let r = sin_sum.hypot(cos_sum).clamp(0.0, 1.0);
    (vx, vy, 1.0 - r)
}

impl SynPf<Arc<MapArtifacts>> {
    /// Creates a filter over a shared [`MapArtifacts`] bundle — the
    /// service-oriented constructor: N filters on one track share a single
    /// grid/EDT/LUT build (see [`raceloc_range::ArtifactStore`]).
    ///
    /// Sensor-range queries delegate to the bundle's LUT (the paper's
    /// constant-time CPU configuration), which marches each cell's fan the
    /// first time a particle lands in it.
    ///
    /// # Panics
    ///
    /// Panics when `particles == 0` or `squash <= 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use raceloc_map::{TrackShape, TrackSpec};
    /// use raceloc_pf::{SynPf, SynPfConfig};
    /// use raceloc_range::{ArtifactParams, ArtifactStore};
    ///
    /// let track = TrackSpec::new(TrackShape::Oval { width: 12.0, height: 7.0 })
    ///     .resolution(0.1)
    ///     .build();
    /// let store = ArtifactStore::new();
    /// let artifacts = store.get_or_build(&track.grid, ArtifactParams::default());
    /// let config = SynPfConfig::builder().particles(200).build().expect("valid config");
    /// let pf = SynPf::from_artifacts(artifacts, config);
    /// assert_eq!(pf.particles().len(), 200);
    /// ```
    pub fn from_artifacts(artifacts: Arc<MapArtifacts>, config: SynPfConfig) -> Self {
        Self::new(artifacts, config)
    }

    /// The shared artifact bundle this filter queries.
    pub fn artifacts(&self) -> &Arc<MapArtifacts> {
        &self.shared.caster
    }

    /// Enables augmented-MCL recovery using the bundle's own grid (see
    /// [`SynPf::enable_recovery`]).
    pub fn enable_recovery_from_artifacts(&mut self) {
        let shared = Arc::clone(&self.shared);
        self.enable_recovery(shared.caster.grid());
    }
}

impl<M: RangeMethod + 'static> SynPf<M> {
    /// Creates a filter over the given range oracle.
    ///
    /// # Panics
    ///
    /// Panics when `particles == 0` or `squash <= 0`.
    pub fn new(caster: M, config: SynPfConfig) -> Self {
        assert!(config.particles > 0, "particle count must be positive");
        assert!(config.squash > 0.0, "squash divisor must be positive");
        let sensor = BeamSensorModel::new(config.beam_model, caster.max_range());
        let n = config.particles;
        let rng = Rng64::new(config.seed);
        Self {
            shared: Arc::new(PfShared { caster, sensor }),
            store: ParticleStore::identity(n),
            weights: vec![1.0 / n as f64; n],
            rng,
            last_odom: None,
            estimate: Pose2::IDENTITY,
            recovery: Recovery::new(config.health),
            log_w: Vec::new(),
            beam_sel: Vec::new(),
            beam_key: None,
            beam_bearings: Vec::new(),
            beam_rows: Vec::new(),
            ebins: Vec::new(),
            jobs: Vec::new(),
            pool: OnceLock::new(),
            motion_epoch: 0,
            resample_idx: Vec::new(),
            resample_scratch: ParticleStore::default(),
            tel: Telemetry::disabled(),
            motion_accum_seconds: 0.0,
            last_stages: Vec::new(),
            deadline: config.deadline.map(DeadlineController::new),
            pressure_factor: 1.0,
            last_plan: None,
            config,
        }
    }

    /// Attaches a telemetry handle: every subsequent prediction and
    /// correction records the `pf.motion`, `pf.cast_weight`, `pf.reduce`,
    /// `pf.resample`, and `pf.correct` spans (plus the `range.*` metrics of
    /// the batch caster) into it.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// The attached telemetry handle (disabled unless
    /// [`SynPf::set_telemetry`] was called).
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Enables augmented-MCL recovery: the filter tracks short- and
    /// long-term averages of the measurement likelihood and, when the
    /// short-term average collapses (`w_fast ≪ w_slow`), injects uniformly
    /// drawn free-space particles during resampling.
    ///
    /// The world centres of the grid's free cells are listed once to
    /// sample the random poses from; the recovery rates come from
    /// [`SynPfConfig::recovery`] (defaults are applied when it is `None`).
    pub fn enable_recovery(&mut self, grid: &OccupancyGrid) {
        let rates = self.config.recovery.unwrap_or_default();
        self.config.recovery = Some(rates);
        self.recovery.arm(rates, FreeSpace::new(grid));
    }

    /// The current recovery likelihood ratio `w_fast / w_slow` (≥1 means
    /// healthy); `None` until enough updates have run or when recovery is
    /// disabled.
    pub fn recovery_health(&self) -> Option<f64> {
        self.recovery.likelihood_ratio()
    }

    /// Weighted covariance of the particle cloud around the current
    /// estimate, as `(var_x, var_y, circular_var_theta)` — a confidence
    /// diagnostic for downstream consumers (planners typically gate on it).
    pub fn covariance(&self) -> (f64, f64, f64) {
        covariance(&self.store, &self.weights, self.estimate)
    }

    /// The configuration.
    pub fn config(&self) -> &SynPfConfig {
        &self.config
    }

    /// The current particle set, in structure-of-arrays layout. Use
    /// [`ParticleStore::iter`] / [`ParticleStore::to_vec`] to read the
    /// particles out as poses.
    pub fn particles(&self) -> &ParticleStore {
        &self.store
    }

    /// The current normalized weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Effective sample size of the current weights.
    pub fn ess(&self) -> f64 {
        effective_sample_size(&self.weights)
    }

    /// Scatters particles uniformly over the free cells of a grid (global
    /// localization / kidnapped-robot initialization).
    pub fn global_init(&mut self, grid: &OccupancyGrid) {
        if FreeSpace::new(grid).scatter(&mut self.store, &mut self.weights, &mut self.rng) {
            self.last_odom = None;
        }
    }

    /// The weighted-mean pose of the particle set (circular mean heading).
    ///
    /// One fused streaming pass over the x/y/cos/sin lanes; the circular
    /// mean `atan2(Σ w·sin θ, Σ w·cos θ)` reads the maintained trig lanes
    /// instead of re-evaluating `sin`/`cos` per particle. Weights are
    /// normalized when this runs, so the only degenerate case (matching
    /// [`raceloc_core::angle::weighted_circular_mean`]'s `None`) is a
    /// vanishing resultant,
    /// which falls back to the previous heading estimate.
    fn expected_pose(&self) -> Pose2 {
        let mut x = 0.0;
        let mut y = 0.0;
        let mut sin_sum = 0.0;
        let mut cos_sum = 0.0;
        for i in 0..self.store.len() {
            let w = self.weights[i];
            x += w * self.store.x[i];
            y += w * self.store.y[i];
            sin_sum += w * self.store.sin[i];
            cos_sum += w * self.store.cos[i];
        }
        let theta = if sin_sum.hypot(cos_sum) < 1e-12 {
            self.estimate.theta
        } else {
            sin_sum.atan2(cos_sum)
        };
        Pose2::new(x, y, theta)
    }

    fn resample_if_needed(&mut self) {
        let n = self.store.len();
        if self.ess() >= self.config.resample_ess_frac * n as f64 {
            return;
        }
        // KLD adaptation: size the new set to the posterior's spread,
        // additionally clamped to the deadline plan's particle ceiling —
        // the ladder's particle-shrink rungs are realized right here.
        let target = match &self.config.kld {
            Some(kld) => {
                let mut t = kld.adapt(self.store.iter());
                if let Some(plan) = &self.last_plan {
                    let cap = ((kld.max_particles as u64)
                        .saturating_mul(plan.rung_params().particle_pct as u64)
                        / 100)
                        .max(1) as usize;
                    t = t.min(cap);
                }
                t
            }
            None => n,
        };
        if self.config.kld.is_some() {
            self.tel.add(names::PF_KLD_N_TARGET, target as u64);
        }
        // In-place low-variance resample through a reusable scratch store:
        // gather every lane (including the trig lanes — gathered, not
        // recomputed) into the spare buffer, then swap it in.
        systematic_indices_into(&self.weights, target, &mut self.rng, &mut self.resample_idx);
        self.store
            .gather_into(&self.resample_idx, &mut self.resample_scratch);
        std::mem::swap(&mut self.store, &mut self.resample_scratch);
        self.tel.add(names::PF_SOA_RESAMPLED, target as u64);
        let u = 1.0 / target as f64;
        self.weights.clear();
        self.weights.resize(target, u);
    }

    /// Recomputes the cached beam selection when the scan geometry changed.
    fn select_beams(&mut self, scan: &LaserScan) {
        let key = (
            scan.len(),
            scan.angle_min.to_bits(),
            scan.angle_increment.to_bits(),
        );
        if self.beam_key != Some(key) {
            self.beam_sel = self.config.layout.select(scan);
            self.beam_key = Some(key);
        }
    }

    /// Ensures `jobs` holds at least `chunks` slots and parks any extras
    /// (left over from a larger batch, e.g. after a KLD shrink) as idle.
    fn prepare_jobs(&mut self, chunks: usize) {
        while self.jobs.len() < chunks {
            self.jobs.push(StepJob::empty(self.config.motion));
        }
        for job in self.jobs.iter_mut().skip(chunks) {
            job.kind = JobKind::Idle;
            job.clear_particles();
        }
    }

    /// Runs the prepared job set: inline for `threads = 1`, otherwise on
    /// the lazily spawned persistent pool. Both paths execute the exact
    /// same chunk layout and RNG streams, so results are bit-identical.
    fn run_jobs(&mut self) {
        if self.config.threads > 1 {
            let pool = self
                .pool
                .get_or_init(|| WorkerPool::new(Arc::clone(&self.shared), self.config.threads));
            pool.run_batch(&mut self.jobs);
            // The pool hands jobs back in completion order. Chunk sizes are
            // unequal (balanced layout), so restore chunk order — otherwise a
            // slot sized for a short chunk can be reloaded with a long one
            // next step and its scratch regrows, breaking the
            // zero-allocation steady state.
            self.jobs
                .sort_unstable_by_key(|j| (j.kind == JobKind::Idle, j.start));
            pool.publish_stats(&self.tel);
        } else {
            for job in &mut self.jobs {
                job.run(&self.shared);
            }
        }
    }

    /// Pool utilization counters, if the worker pool has been spawned
    /// (`None` with `threads = 1` or before the first multi-threaded step).
    pub fn pool_stats(&self) -> Option<raceloc_par::PoolStats> {
        self.pool.get().map(WorkerPool::stats)
    }

    /// The deadline controller, when [`SynPfConfig::deadline`] is set:
    /// exposes the rung-occupancy histogram, miss count, and coast count
    /// accumulated so far.
    pub fn deadline(&self) -> Option<&DeadlineController> {
        self.deadline.as_ref()
    }

    /// Plans the current correction against the deadline budget and books
    /// the decision into telemetry; `None` without a controller.
    ///
    /// The billing base for particle ceilings is the KLD maximum (the
    /// count the resampler may legitimately grow back to), or the live
    /// particle count when KLD is disabled — both pure functions of the
    /// configuration and the step history, never of wall-clock time.
    fn plan_deadline(&mut self, beams: u64) -> Option<StepPlan> {
        let health = self.recovery.health();
        let base = match &self.config.kld {
            Some(kld) => kld.max_particles,
            None => self.store.len(),
        } as u64;
        let ctl = self.deadline.as_mut()?;
        let plan = ctl.plan(self.pressure_factor, health, base, beams);
        self.tel.add(names::DEADLINE_RUNG, plan.rung as u64);
        self.tel.add(RUNG_COUNTERS[plan.rung], 1);
        if plan.miss {
            self.tel.add(names::DEADLINE_MISS, 1);
        }
        if plan.coast {
            self.tel.add(names::DEADLINE_COAST_STEPS, 1);
        }
        self.last_plan = Some(plan);
        Some(plan)
    }

    /// Books the per-stage timings of a finished correction into telemetry
    /// and into the stage list reported by [`Localizer::diagnostics`].
    fn finish_correction(
        &mut self,
        motion_seconds: f64,
        raycast_seconds: f64,
        sensor_seconds: f64,
        resample_seconds: f64,
        correct_started: Stopwatch,
    ) {
        // Every correction ends here, after normalize → resample → inject:
        // the particle set the next prediction consumes must be sane.
        raceloc_core::debug_invariant!(
            !self.store.is_empty(),
            "correction produced an empty particle set"
        );
        raceloc_core::debug_invariant!(
            self.weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative after resample"
        );
        raceloc_core::debug_invariant!(
            (self.weights.iter().sum::<f64>() - 1.0).abs() < 1e-6,
            "weights must be normalized after resample (sum = {})",
            self.weights.iter().sum::<f64>()
        );
        self.last_stages.clear();
        self.last_stages
            .push((Cow::Borrowed("motion"), motion_seconds));
        self.last_stages
            .push((Cow::Borrowed("raycast"), raycast_seconds));
        self.tel.record_span(names::PF_CAST_WEIGHT, raycast_seconds);
        self.tel.record_span(names::PF_REDUCE, sensor_seconds);
        self.tel.record_span(names::PF_RESAMPLE, resample_seconds);
        self.tel
            .record_span(names::PF_CORRECT, correct_started.elapsed_seconds());
        self.last_stages
            .push((Cow::Borrowed("sensor"), sensor_seconds));
        self.last_stages
            .push((Cow::Borrowed("resample"), resample_seconds));
    }

    /// Whether the scan is too old relative to the newest odometry to be
    /// corrected against (stale-input rejection, DESIGN.md §12).
    fn scan_is_stale(&self, scan: &LaserScan) -> bool {
        let Some(policy) = self.config.health else {
            return false;
        };
        match self.last_odom {
            Some(last) => last.stamp - scan.stamp > policy.max_scan_age,
            None => false,
        }
    }

    /// Runs the health detectors; on their re-init, re-draws the cloud over
    /// free space (as `global_init` does) and holds the ladder: no climbing
    /// into an expensive rung while the re-scattered cloud re-converges.
    fn update_health(&mut self, mean_lw: f64, mean_lik: f64) {
        let (store, weights, est) = (&self.store, &self.weights, self.estimate);
        let spread = || {
            let (vx, vy, _) = covariance(store, weights, est);
            (
                vx + vy,
                effective_sample_size(weights) / store.len().max(1) as f64,
            )
        };
        let Some(free) = self.recovery.assess(mean_lw, mean_lik, spread) else {
            return;
        };
        if free.scatter(&mut self.store, &mut self.weights, &mut self.rng) {
            self.last_odom = None;
        }
        if let Some(ctl) = &mut self.deadline {
            ctl.notify_reinit();
        }
        self.tel.add(names::PF_HEALTH_REINIT, 1);
    }
}

impl<M: RangeMethod + 'static> Localizer for SynPf<M> {
    fn predict(&mut self, odom: &Odometry) {
        let Some(last) = self.last_odom else {
            self.last_odom = Some(*odom);
            return;
        };
        let started = Stopwatch::start();
        let delta = last.pose.relative_to(odom.pose);
        let dt = (odom.stamp - last.stamp).max(1e-4);
        // Chunked motion sampling: each chunk draws from a counter-derived
        // RNG stream keyed by (prediction epoch, chunk index), so the noise
        // sequence is a pure function of the seed and the step history —
        // independent of thread count and scheduling.
        self.motion_epoch += 1;
        let n = self.store.len();
        if self.config.threads > 1 {
            let chunks = chunk_count(n, DEFAULT_CHUNK_MIN);
            self.prepare_jobs(chunks);
            for (idx, span) in chunk_spans(n, DEFAULT_CHUNK_MIN).enumerate() {
                let job = &mut self.jobs[idx];
                job.kind = JobKind::Motion;
                job.load_particles(&self.store, span);
                job.motion = self.config.motion;
                job.delta = delta;
                job.twist = odom.twist;
                job.dt = dt;
                job.seed = self.config.seed;
                job.epoch = self.motion_epoch;
                job.chunk = idx as u64;
            }
            self.run_jobs();
            // Jobs may come back in any completion order; scatter by offset.
            for job in &self.jobs {
                if job.kind != JobKind::Motion {
                    continue;
                }
                job.store_particles(&mut self.store);
            }
        } else {
            // Inline path: the same kernel, chunk layout, and RNG streams
            // as the pool path, run directly on per-chunk slices of the
            // store's lanes — zero copies, bitwise-identical results.
            let motion = self.config.motion;
            let seed = self.config.seed;
            let epoch = self.motion_epoch;
            let twist = odom.twist;
            let (x, y, theta, cos_t, sin_t) = self.store.lanes_mut();
            for (idx, span) in chunk_spans(n, DEFAULT_CHUNK_MIN).enumerate() {
                let mut rng = Rng64::stream(seed, stream_keys::pf_motion(epoch, idx as u64));
                let (s, e) = (span.start, span.end);
                motion_kernel(
                    &motion,
                    delta,
                    twist,
                    dt,
                    &mut rng,
                    &mut x[s..e],
                    &mut y[s..e],
                    &mut theta[s..e],
                    &mut cos_t[s..e],
                    &mut sin_t[s..e],
                );
            }
        }
        self.last_odom = Some(*odom);
        let seconds = started.elapsed_seconds();
        self.motion_accum_seconds += seconds;
        self.tel.record_span(names::PF_MOTION, seconds);
    }

    fn correct(&mut self, scan: &LaserScan) -> Pose2 {
        // Stale-input rejection (DESIGN.md §12): correcting against a scan
        // older than the odometry horizon would drag the cloud backwards.
        if self.scan_is_stale(scan) {
            self.recovery.note_unscored();
            return self.estimate;
        }
        self.select_beams(scan);
        if self.beam_sel.is_empty() {
            return self.estimate;
        }
        // Hold: a scan whose selected beams are all dropped or saturated
        // (e.g. a lidar blackout) carries no information — scoring it would
        // weight every particle equally and poison the recovery EMAs, so
        // the filter returns its last scored estimate instead while
        // `predict` keeps moving the particles (ROADMAP item 2).
        let cutoff = scan.max_range - 1e-9;
        let usable = self
            .beam_sel
            .iter()
            .filter(|&&b| {
                let r = scan.ranges[b];
                r.is_finite() && r > 0.0 && r < cutoff
            })
            .count();
        if usable == 0 {
            self.recovery.note_unscored();
            return self.estimate;
        }
        // Deadline plan (DESIGN.md §14): pick this correction's
        // degradation-ladder rung from the budget, the pressure factor,
        // and the health state — all deterministic inputs, so the rung
        // sequence is bit-identical for any thread count.
        let plan = self.plan_deadline(self.beam_sel.len() as u64);
        if plan.is_some_and(|p| p.coast) {
            // Bottom rung: shed the correction entirely and return the last
            // scored estimate (ROADMAP item 2) — a deliberate, bounded hold,
            // booked to the health machine like any other uninformative
            // correction.
            self.recovery.note_unscored();
            return self.estimate;
        }
        let (stride, quantum) = match plan {
            Some(p) => {
                let rung = p.rung_params();
                (rung.beam_stride as usize, rung.tier.bearing_quantum())
            }
            None => (1, None),
        };
        let correct_started = Stopwatch::start();
        let motion_seconds = std::mem::take(&mut self.motion_accum_seconds);
        let n = self.store.len();
        // The mean-likelihood reductions (two extra exp/sum passes over the
        // cloud) only feed augmented-MCL recovery and the health detectors;
        // skip them entirely when neither is configured.
        let need_stats = self.config.recovery.is_some() || self.config.health.is_some();
        // Beam model, fused cast + weight kernel (DESIGN.md §11): for each
        // particle the kernel casts the beam fan straight to quantized
        // expected-range bins and sums u16 sensor-model codes in integer
        // arithmetic, instead of materializing the n·k expected-range
        // matrix. The scan-dependent half of the table lookup — each
        // measured range's row offset — is hoisted here, once per scan.
        // Dropped beams (non-finite ranges) are skipped entirely: the
        // filter is identical for every chunk, so the layout stays a pure
        // function of the scan and results stay bit-identical across
        // thread counts.
        // The deadline plan degrades this hoist in two ways: the beam
        // stride uniformly decimates the selected fan, and the degraded
        // range tiers snap bearings onto a coarse conic grid (the
        // CDDT/raymarch fallback analog) so the cast amortizes across
        // bearing-identical beams. Both are pure functions of the scan
        // and the plan, so the layout stays bit-identical across thread
        // counts.
        self.beam_bearings.clear();
        self.beam_rows.clear();
        let sensor = &self.shared.sensor;
        self.beam_bearings.extend(
            self.beam_sel
                .iter()
                .step_by(stride)
                .filter(|&&b| scan.ranges[b].is_finite())
                .map(|&b| {
                    let a = scan.angle_of(b);
                    match quantum {
                        Some(q) => (a / q).round() * q,
                        None => a,
                    }
                }),
        );
        self.beam_rows.extend(
            self.beam_sel
                .iter()
                .step_by(stride)
                .map(|&b| scan.ranges[b])
                .filter(|r| r.is_finite())
                .map(|r| sensor.row_offset(r)),
        );
        let k_finite = self.beam_bearings.len();
        let raycast_started = Stopwatch::start();
        self.log_w.clear();
        self.log_w.resize(n, 0.0);
        if self.config.threads > 1 {
            let chunks = chunk_count(n, DEFAULT_CHUNK_MIN);
            self.prepare_jobs(chunks);
            for (idx, span) in chunk_spans(n, DEFAULT_CHUNK_MIN).enumerate() {
                let job = &mut self.jobs[idx];
                job.kind = JobKind::CastWeight;
                job.load_particles(&self.store, span);
                job.bearings.clear();
                job.bearings.extend_from_slice(&self.beam_bearings);
                job.rows.clear();
                job.rows.extend_from_slice(&self.beam_rows);
                job.mount = self.config.lidar_mount;
                job.squash = self.config.squash;
            }
            self.run_jobs();
            for job in &self.jobs {
                if job.kind != JobKind::CastWeight {
                    continue;
                }
                self.log_w[job.start..job.start + job.log_w.len()].copy_from_slice(&job.log_w);
            }
        } else {
            // Inline path: one kernel call over the whole store — per
            // particle the computation is chunk-independent, so this is
            // bitwise identical to the pooled chunked run.
            cast_weight_kernel(
                &self.shared.caster,
                &self.shared.sensor,
                self.config.lidar_mount,
                self.config.squash,
                &self.beam_bearings,
                &self.beam_rows,
                &self.store.x,
                &self.store.y,
                &self.store.theta,
                &self.store.cos,
                &self.store.sin,
                &mut self.ebins,
                &mut self.log_w,
            );
        }
        // Same telemetry contract as the unfused pipeline: the query count
        // the kernel evaluated (dropped beams are never cast), and the
        // cast+weight time under `pf.cast_weight` (booked by
        // `finish_correction`).
        self.tel.add(names::RANGE_QUERIES, (n * k_finite) as u64);
        let raycast_seconds = raycast_started.elapsed_seconds();
        // Weight reduction over the scattered per-particle log-likelihoods.
        let sensor_started = Stopwatch::start();
        let log_w = &self.log_w;
        let max_lw = log_w.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for (w, lw) in self.weights.iter_mut().zip(log_w) {
            *w *= (lw - max_lw).exp();
        }
        let (mean_lik, mean_lw) = if need_stats {
            (
                log_w.iter().map(|lw| lw.exp()).sum::<f64>() / log_w.len().max(1) as f64,
                log_w.iter().sum::<f64>() / log_w.len().max(1) as f64,
            )
        } else {
            (0.0, 0.0)
        };
        let inject = self.recovery.injection(mean_lik);
        normalize(&mut self.weights);
        self.estimate = self.expected_pose();
        self.update_health(mean_lw, mean_lik);
        let sensor_seconds = sensor_started.elapsed_seconds();
        let resample_started = Stopwatch::start();
        self.resample_if_needed();
        self.recovery.inject(inject, &mut self.store, &mut self.rng);
        let resample_seconds = resample_started.elapsed_seconds();
        self.finish_correction(
            motion_seconds,
            raycast_seconds,
            sensor_seconds,
            resample_seconds,
            correct_started,
        );
        self.estimate
    }

    fn pose(&self) -> Pose2 {
        self.estimate
    }

    fn reset(&mut self, pose: Pose2) {
        for i in 0..self.store.len() {
            let p = Pose2::new(
                self.rng.gaussian_with(pose.x, self.config.init_sigma_xy),
                self.rng.gaussian_with(pose.y, self.config.init_sigma_xy),
                self.rng
                    .gaussian_with(pose.theta, self.config.init_sigma_theta),
            );
            self.store.set_pose(i, p);
        }
        let u = 1.0 / self.store.len() as f64;
        self.weights.fill(u);
        self.estimate = pose;
        self.last_odom = None;
        self.recovery.reset();
        self.motion_epoch = 0;
        self.motion_accum_seconds = 0.0;
        self.last_stages.clear();
        if let Some(ctl) = &mut self.deadline {
            ctl.reset();
        }
        self.pressure_factor = 1.0;
        self.last_plan = None;
    }

    fn name(&self) -> &str {
        "synpf"
    }

    fn health(&self) -> Health {
        self.recovery.health()
    }

    fn set_compute_pressure(&mut self, factor: f64) {
        self.pressure_factor = factor;
    }

    fn diagnostics(&self) -> Diagnostics {
        let (vx, vy, _vt) = self.covariance();
        Diagnostics {
            particles: Some(self.store.len()),
            ess: Some(self.ess()),
            covariance_trace: Some(vx + vy),
            match_score: self.recovery_health(),
            health: self.config.health.is_some().then(|| self.recovery.health()),
            stages: self.last_stages.clone(),
        }
    }
}

impl<M: RangeMethod + 'static> Clone for SynPf<M> {
    /// Clones the filter state. The range oracle and sensor table are
    /// shared (`Arc`), while the worker pool and scratch buffers are fresh:
    /// the clone spawns its own pool lazily and replays identically from
    /// its copied RNG state.
    fn clone(&self) -> Self {
        Self {
            config: self.config.clone(),
            shared: Arc::clone(&self.shared),
            store: self.store.clone(),
            weights: self.weights.clone(),
            rng: self.rng.clone(),
            last_odom: self.last_odom,
            estimate: self.estimate,
            recovery: self.recovery.clone(),
            log_w: Vec::new(),
            beam_sel: self.beam_sel.clone(),
            beam_key: self.beam_key,
            beam_bearings: Vec::new(),
            beam_rows: Vec::new(),
            ebins: Vec::new(),
            jobs: Vec::new(),
            pool: OnceLock::new(),
            motion_epoch: self.motion_epoch,
            resample_idx: Vec::new(),
            resample_scratch: ParticleStore::default(),
            tel: self.tel.clone(),
            motion_accum_seconds: self.motion_accum_seconds,
            last_stages: self.last_stages.clone(),
            deadline: self.deadline.clone(),
            pressure_factor: self.pressure_factor,
            last_plan: self.last_plan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raceloc_core::Twist2;
    use raceloc_map::{CellState, Track, TrackShape, TrackSpec};
    use raceloc_range::RayMarching;

    fn track() -> Track {
        TrackSpec::new(TrackShape::Oval {
            width: 12.0,
            height: 7.0,
        })
        .resolution(0.1)
        .build()
    }

    fn small_pf(track: &Track, particles: usize) -> SynPf<RayMarching> {
        let caster = RayMarching::new(&track.grid, 10.0);
        SynPf::new(
            caster,
            SynPfConfig {
                particles,
                ..SynPfConfig::default()
            },
        )
    }

    /// Simulates a noiseless scan from a pose using the same caster family.
    fn scan_from(track: &Track, pose: Pose2, mount: Pose2) -> LaserScan {
        let caster = RayMarching::new(&track.grid, 10.0);
        let beams = 181;
        let fov = 270.0f64.to_radians();
        let inc = fov / (beams - 1) as f64;
        let sensor = pose * mount;
        let ranges: Vec<f64> = (0..beams)
            .map(|i| {
                caster.range(
                    sensor.x,
                    sensor.y,
                    sensor.theta - 0.5 * fov + i as f64 * inc,
                )
            })
            .collect();
        LaserScan::new(-0.5 * fov, inc, ranges, 10.0)
    }

    #[test]
    fn reset_centers_cloud_on_pose() {
        let t = track();
        let mut pf = small_pf(&t, 500);
        let pose = t.start_pose();
        pf.reset(pose);
        let mean = pf
            .particles()
            .iter()
            .fold((0.0, 0.0), |acc, p| (acc.0 + p.x, acc.1 + p.y));
        let mean = Pose2::new(mean.0 / 500.0, mean.1 / 500.0, pose.theta);
        assert!(mean.dist(pose) < 0.05);
        assert!((pf.ess() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn correction_tightens_estimate() {
        let t = track();
        let mut pf = small_pf(&t, 800);
        let true_pose = t.start_pose();
        // Initialize deliberately offset.
        let offset = Pose2::new(
            true_pose.x + 0.2,
            true_pose.y - 0.15,
            true_pose.theta + 0.05,
        );
        pf.reset(offset);
        let scan = scan_from(&t, true_pose, pf.config().lidar_mount);
        let mut est = pf.pose();
        for _ in 0..6 {
            est = pf.correct(&scan);
        }
        assert!(
            est.dist(true_pose) < 0.15,
            "estimate {est} vs truth {true_pose}"
        );
    }

    #[test]
    fn stationary_tracking_is_stable() {
        let t = track();
        let mut pf = small_pf(&t, 600);
        let pose = t.start_pose();
        pf.reset(pose);
        let scan = scan_from(&t, pose, pf.config().lidar_mount);
        let stamp = |i: usize| i as f64 * 0.02;
        for i in 0..20 {
            pf.predict(&Odometry::new(Pose2::IDENTITY, Twist2::ZERO, stamp(i)));
            let est = pf.correct(&scan);
            assert!(est.dist(pose) < 0.25, "diverged at step {i}: {est}");
        }
    }

    #[test]
    fn tracks_forward_motion() {
        let t = track();
        let mut pf = small_pf(&t, 800);
        let start = t.start_pose();
        pf.reset(start);
        // Drive 1 m forward along the heading in 10 steps; odometry exact.
        let v: f64 = 2.0;
        let dt = 0.05;
        let mut odom_pose = Pose2::IDENTITY;
        pf.predict(&Odometry::new(odom_pose, Twist2::new(v, 0.0, 0.0), 0.0));
        let mut true_pose = start;
        for i in 1..=10 {
            let step = Pose2::new(v * dt, 0.0, 0.0);
            odom_pose = odom_pose * step;
            true_pose = true_pose * step;
            pf.predict(&Odometry::new(
                odom_pose,
                Twist2::new(v, 0.0, 0.0),
                i as f64 * dt,
            ));
            let scan = scan_from(&t, true_pose, pf.config().lidar_mount);
            let est = pf.correct(&scan);
            assert!(est.dist(true_pose) < 0.3, "step {i}: {est} vs {true_pose}");
        }
    }

    #[test]
    fn resampling_triggers_on_peaked_weights() {
        let t = track();
        let mut pf = small_pf(&t, 300);
        pf.reset(t.start_pose());
        let scan = scan_from(&t, t.start_pose(), pf.config().lidar_mount);
        // After several corrections ESS drops and resampling kicks in; the
        // invariant is that weights return to uniform afterwards.
        for _ in 0..10 {
            pf.correct(&scan);
        }
        let n = pf.particles().len() as f64;
        assert!(pf.ess() > 0.3 * n, "ess collapsed: {}", pf.ess());
    }

    #[test]
    fn global_init_spreads_over_free_space() {
        let t = track();
        let mut pf = small_pf(&t, 400);
        pf.global_init(&t.grid);
        let free = pf
            .particles()
            .iter()
            .filter(|p| t.grid.state_at_world(p.translation()) == CellState::Free)
            .count();
        assert!(free as f64 > 0.95 * 400.0);
        // Spread across the whole track, not one spot.
        let xs: Vec<f64> = pf.particles().iter().map(|p| p.x).collect();
        let span = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - xs.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(span > 6.0, "span {span}");
    }

    #[test]
    fn global_localization_converges_with_scans() {
        let t = track();
        let mut pf = small_pf(&t, 3000);
        pf.global_init(&t.grid);
        let true_pose = t.start_pose();
        let scan = scan_from(&t, true_pose, pf.config().lidar_mount);
        let mut est = Pose2::IDENTITY;
        for i in 0..25 {
            // Small jitter between corrections keeps the cloud explorative.
            pf.predict(&Odometry::new(
                Pose2::IDENTITY,
                Twist2::ZERO,
                i as f64 * 0.02,
            ));
            est = pf.correct(&scan);
        }
        // The oval is symmetric front/back, so allow either of the two
        // geometrically consistent poses.
        let mirrored = Pose2::new(
            -true_pose.x,
            -true_pose.y,
            true_pose.theta + std::f64::consts::PI,
        );
        let ok = est.dist(true_pose) < 0.5 || est.dist(mirrored) < 0.5;
        assert!(ok, "global localization landed at {est}");
    }

    #[test]
    fn empty_scan_is_ignored() {
        let t = track();
        let mut pf = small_pf(&t, 100);
        pf.reset(t.start_pose());
        let before = pf.pose();
        let est = pf.correct(&LaserScan::new(0.0, 0.1, vec![], 10.0));
        assert_eq!(est, before);
    }

    #[test]
    fn first_predict_only_sets_reference() {
        let t = track();
        let mut pf = small_pf(&t, 100);
        pf.reset(t.start_pose());
        let cloud_before = pf.particles().clone();
        pf.predict(&Odometry::new(
            Pose2::new(99.0, 0.0, 0.0),
            Twist2::ZERO,
            0.0,
        ));
        assert_eq!(pf.particles(), &cloud_before);
    }

    #[test]
    fn deterministic_in_seed() {
        let t = track();
        let run = || {
            let mut pf = small_pf(&t, 200);
            pf.reset(t.start_pose());
            let scan = scan_from(&t, t.start_pose(), pf.config().lidar_mount);
            for i in 0..5 {
                pf.predict(&Odometry::new(
                    Pose2::new(0.01 * i as f64, 0.0, 0.0),
                    Twist2::new(0.5, 0.0, 0.0),
                    i as f64 * 0.02,
                ));
                pf.correct(&scan);
            }
            pf.pose().to_array()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn threaded_casting_matches_sequential() {
        let t = track();
        let mk = |threads: usize| {
            let caster = RayMarching::new(&t.grid, 10.0);
            let mut pf = SynPf::new(
                caster,
                SynPfConfig {
                    particles: 150,
                    threads,
                    ..SynPfConfig::default()
                },
            );
            pf.reset(t.start_pose());
            let scan = scan_from(&t, t.start_pose(), pf.config().lidar_mount);
            for _ in 0..3 {
                pf.correct(&scan);
            }
            pf.pose().to_array()
        };
        assert_eq!(mk(1), mk(4));
    }

    #[test]
    fn diagnostics_populated_after_correction() {
        let t = track();
        let mut pf = small_pf(&t, 300);
        pf.reset(t.start_pose());
        assert!(pf.diagnostics().stages.is_empty(), "no correction yet");
        let scan = scan_from(&t, t.start_pose(), pf.config().lidar_mount);
        pf.predict(&Odometry::new(Pose2::IDENTITY, Twist2::ZERO, 0.0));
        pf.predict(&Odometry::new(Pose2::IDENTITY, Twist2::ZERO, 0.02));
        pf.correct(&scan);
        let d = pf.diagnostics();
        assert_eq!(d.particles, Some(300));
        let ess = d.ess.expect("ess reported");
        assert!(ess > 0.0 && ess <= 300.0 + 1e-6, "ess {ess}");
        assert!(d.covariance_trace.expect("cov reported") >= 0.0);
        for stage in ["motion", "raycast", "sensor", "resample"] {
            let s = d.stage(stage).unwrap_or_else(|| panic!("stage {stage}"));
            assert!(s >= 0.0);
        }
    }

    #[test]
    fn telemetry_records_correction_spans() {
        let t = track();
        let mut pf = small_pf(&t, 200);
        let tel = raceloc_obs::Telemetry::enabled();
        pf.set_telemetry(tel.clone());
        pf.reset(t.start_pose());
        let scan = scan_from(&t, t.start_pose(), pf.config().lidar_mount);
        for i in 0..3 {
            pf.predict(&Odometry::new(
                Pose2::IDENTITY,
                Twist2::ZERO,
                i as f64 * 0.02,
            ));
            pf.correct(&scan);
        }
        let snap = tel.snapshot();
        for span in [
            names::PF_MOTION,
            names::PF_CAST_WEIGHT,
            names::PF_REDUCE,
            names::PF_RESAMPLE,
            names::PF_CORRECT,
        ] {
            let s = snap
                .span(span.as_str())
                .unwrap_or_else(|| panic!("span {span:?}"));
            assert!(s.count >= 1, "{span:?}");
        }
        assert_eq!(snap.span(names::PF_CORRECT.as_str()).unwrap().count, 3);
        // The batch caster books its own metrics through the same handle.
        assert!(snap.counter(names::RANGE_QUERIES.as_str()).unwrap_or(0) > 0);
        // Stage spans nest inside the whole correction.
        let total = snap.span(names::PF_CORRECT.as_str()).unwrap().total_seconds;
        let parts = snap
            .span(names::PF_CAST_WEIGHT.as_str())
            .unwrap()
            .total_seconds
            + snap.span(names::PF_REDUCE.as_str()).unwrap().total_seconds
            + snap
                .span(names::PF_RESAMPLE.as_str())
                .unwrap()
                .total_seconds;
        assert!(parts <= total + 1e-6, "stages {parts} exceed total {total}");
    }

    #[test]
    #[should_panic(expected = "particle count")]
    fn zero_particles_panics() {
        let t = track();
        let caster = RayMarching::new(&t.grid, 10.0);
        SynPf::new(
            caster,
            SynPfConfig {
                particles: 0,
                ..SynPfConfig::default()
            },
        );
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use crate::kld::KldConfig;
    use raceloc_core::Twist2;
    use raceloc_map::{Track, TrackShape, TrackSpec};
    use raceloc_range::RayMarching;

    fn track() -> Track {
        TrackSpec::new(TrackShape::Oval {
            width: 12.0,
            height: 7.0,
        })
        .resolution(0.1)
        .build()
    }

    fn scan_from(track: &Track, pose: Pose2, mount: Pose2) -> LaserScan {
        let caster = RayMarching::new(&track.grid, 10.0);
        let beams = 181;
        let fov = 270.0f64.to_radians();
        let inc = fov / (beams - 1) as f64;
        let sensor = pose * mount;
        let ranges: Vec<f64> = (0..beams)
            .map(|i| {
                caster.range(
                    sensor.x,
                    sensor.y,
                    sensor.theta - 0.5 * fov + i as f64 * inc,
                )
            })
            .collect();
        LaserScan::new(-0.5 * fov, inc, ranges, 10.0)
    }

    #[test]
    fn kld_shrinks_converged_cloud() {
        let t = track();
        let caster = RayMarching::new(&t.grid, 10.0);
        let mut pf = SynPf::new(
            caster,
            SynPfConfig {
                particles: 2000,
                kld: Some(KldConfig {
                    min_particles: 150,
                    ..KldConfig::default()
                }),
                ..SynPfConfig::default()
            },
        );
        let pose = t.start_pose();
        pf.reset(pose);
        let scan = scan_from(&t, pose, pf.config().lidar_mount);
        for i in 0..15 {
            pf.predict(&Odometry::new(
                Pose2::IDENTITY,
                Twist2::ZERO,
                i as f64 * 0.02,
            ));
            pf.correct(&scan);
        }
        // Converged tracking needs far fewer than the initial 2000.
        assert!(
            pf.particles().len() < 1000,
            "KLD did not shrink the set: {}",
            pf.particles().len()
        );
        assert!(pf.particles().len() >= 150);
        // Estimate quality is preserved.
        assert!(pf.pose().dist(pose) < 0.2);
        // Weights stay a distribution of the new size.
        assert_eq!(pf.weights().len(), pf.particles().len());
        let sum: f64 = pf.weights().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod health_tests {
    use super::*;
    use crate::health::HealthPolicy;
    use raceloc_core::Twist2;
    use raceloc_map::{Track, TrackShape, TrackSpec};
    use raceloc_range::RayMarching;

    fn track() -> Track {
        TrackSpec::new(TrackShape::RandomFourier {
            seed: 5,
            mean_radius: 5.0,
            amplitude: 0.2,
            harmonics: 3,
        })
        .resolution(0.1)
        .build()
    }

    fn scan_from(track: &Track, pose: Pose2, mount: Pose2) -> LaserScan {
        let caster = RayMarching::new(&track.grid, 10.0);
        let beams = 181;
        let fov = 270.0f64.to_radians();
        let inc = fov / (beams - 1) as f64;
        let sensor = pose * mount;
        let ranges: Vec<f64> = (0..beams)
            .map(|i| {
                caster.range(
                    sensor.x,
                    sensor.y,
                    sensor.theta - 0.5 * fov + i as f64 * inc,
                )
            })
            .collect();
        LaserScan::new(-0.5 * fov, inc, ranges, 10.0)
    }

    /// The stale-input detector compares scan stamps against odometry
    /// stamps, so every scored scan must carry the loop time.
    fn stamped(scan: &LaserScan, stamp: f64) -> LaserScan {
        let mut s = scan.clone();
        s.stamp = stamp;
        s
    }

    fn health_pf(t: &Track, particles: usize) -> SynPf<RayMarching> {
        let caster = RayMarching::new(&t.grid, 10.0);
        let mut pf = SynPf::new(
            caster,
            SynPfConfig {
                particles,
                recovery: Some(RecoveryConfig {
                    alpha_slow: 0.01,
                    alpha_fast: 0.4,
                }),
                health: Some(HealthPolicy::default()),
                ..SynPfConfig::default()
            },
        );
        pf.enable_recovery(&t.grid);
        pf
    }

    /// The kidnap filter: near-inert augmented-MCL rates keep random
    /// injection negligible, so recovery must come from the health
    /// machine's Lost → global re-init path rather than from injection.
    fn kidnap_pf(t: &Track) -> SynPf<RayMarching> {
        let caster = RayMarching::new(&t.grid, 10.0);
        let mut pf = SynPf::new(
            caster,
            SynPfConfig {
                particles: 1500,
                // Which along-track mode the zero-motion re-init locks onto
                // is realization-dependent (see the bound in the kidnap
                // test); this seed pins a realization that locks onto the
                // true one.
                seed: 2,
                recovery: Some(RecoveryConfig {
                    alpha_slow: 0.001,
                    alpha_fast: 0.002,
                }),
                health: Some(HealthPolicy {
                    reinit_holdoff: 60,
                    ..HealthPolicy::default()
                }),
                ..SynPfConfig::default()
            },
        );
        pf.enable_recovery(&t.grid);
        pf
    }

    /// The far side of the track, where the kidnap scans come from.
    fn far_side(t: &Track) -> Pose2 {
        let s = 0.5 * t.raceline.total_length();
        let p = t.raceline.point_at(s);
        Pose2::new(p.x, p.y, t.raceline.heading_at(s))
    }

    #[test]
    fn kidnap_reaches_lost_then_reinit_recovers_to_nominal() {
        let t = track();
        let mut pf = kidnap_pf(&t);
        let tel = raceloc_obs::Telemetry::enabled();
        pf.set_telemetry(tel.clone());
        let home = t.start_pose();
        pf.reset(home);
        let home_scan = scan_from(&t, home, pf.config().lidar_mount);
        // Converge and warm the likelihood EMAs past the detector warmup.
        for i in 0..30 {
            pf.predict(&Odometry::new(
                Pose2::IDENTITY,
                Twist2::ZERO,
                i as f64 * 0.02,
            ));
            pf.correct(&stamped(&home_scan, i as f64 * 0.02));
        }
        assert_eq!(pf.health(), Health::Nominal);
        // Kidnap: scans now come from the other side of the track.
        let there = far_side(&t);
        let there_scan = scan_from(&t, there, pf.config().lidar_mount);
        let mut est = pf.pose();
        let mut saw_non_nominal = false;
        for i in 30..280 {
            pf.predict(&Odometry::new(
                Pose2::IDENTITY,
                Twist2::ZERO,
                i as f64 * 0.02,
            ));
            est = pf.correct(&stamped(&there_scan, i as f64 * 0.02));
            saw_non_nominal |= pf.health() != Health::Nominal;
        }
        assert!(saw_non_nominal, "detectors never reacted to the kidnap");
        assert!(
            tel.snapshot()
                .counter(names::PF_HEALTH_REINIT.as_str())
                .unwrap_or(0)
                >= 1,
            "Lost never triggered a global re-init"
        );
        assert_eq!(pf.health(), Health::Nominal, "did not settle after re-init");
        // Mode-level recovery bound: with zero odometry motion the
        // re-scattered cloud cannot slide along the corridor, so which
        // nearby along-track mode it locks onto is realization-dependent.
        // The vanilla-MCL control below stays > 1.0 away; landing well
        // inside that proves the re-init recovered the pose.
        assert!(
            est.dist(there) < 0.9,
            "did not recover from kidnapping: {est} vs {there}"
        );
    }

    #[test]
    fn clone_in_the_reinit_holdoff_steps_bitwise_like_the_original() {
        let t = track();
        let mut pf = kidnap_pf(&t);
        let tel = raceloc_obs::Telemetry::enabled();
        pf.set_telemetry(tel.clone());
        let home = t.start_pose();
        pf.reset(home);
        let home_scan = scan_from(&t, home, pf.config().lidar_mount);
        let there_scan = scan_from(&t, far_side(&t), pf.config().lidar_mount);
        let odom = |i: usize| Odometry::new(Pose2::IDENTITY, Twist2::ZERO, i as f64 * 0.02);
        for i in 0..30 {
            pf.predict(&odom(i));
            pf.correct(&stamped(&home_scan, i as f64 * 0.02));
        }
        let reinits = || {
            tel.snapshot()
                .counter(names::PF_HEALTH_REINIT.as_str())
                .unwrap_or(0)
        };
        let mut i = 30;
        let mut since_reinit = 0;
        // Five corrections into the 60-correction holdoff, so the restarted
        // trackers hold fresh values: clone, then step both past it.
        while since_reinit < 5 {
            assert!(i < 280, "Lost never triggered a global re-init");
            pf.predict(&odom(i));
            pf.correct(&stamped(&there_scan, i as f64 * 0.02));
            i += 1;
            since_reinit += usize::from(reinits() > 0);
        }
        assert_eq!(pf.health(), Health::Recovering);
        let mut twin = pf.clone();
        for i in i..i + 80 {
            let scan = stamped(&there_scan, i as f64 * 0.02);
            pf.predict(&odom(i));
            twin.predict(&odom(i));
            let (a, b) = (pf.correct(&scan), twin.correct(&scan));
            assert_eq!(
                a.to_array().map(f64::to_bits),
                b.to_array().map(f64::to_bits)
            );
            assert_eq!(pf.health(), twin.health(), "health at step {i}");
            assert_eq!(
                pf.recovery_health().map(f64::to_bits),
                twin.recovery_health().map(f64::to_bits)
            );
        }
    }

    #[test]
    fn blackout_coasts_and_degrades_then_recovers() {
        let t = track();
        let mut pf = health_pf(&t, 600);
        let home = t.start_pose();
        pf.reset(home);
        let home_scan = scan_from(&t, home, pf.config().lidar_mount);
        for i in 0..25 {
            pf.predict(&Odometry::new(
                Pose2::IDENTITY,
                Twist2::ZERO,
                i as f64 * 0.02,
            ));
            pf.correct(&stamped(&home_scan, i as f64 * 0.02));
        }
        assert_eq!(pf.health(), Health::Nominal);
        // Total blackout: every beam invalid. The filter must hold its
        // estimate (no scoring) and degrade, not diverge or go non-finite.
        let mut blackout = LaserScan::new(
            home_scan.angle_min,
            home_scan.angle_increment,
            vec![f64::INFINITY; home_scan.len()],
            home_scan.max_range,
        );
        blackout.stamp = 24.0 * 0.02;
        let before = pf.pose();
        for _ in 0..5 {
            let est = pf.correct(&blackout);
            assert_eq!(est, before, "blackout correction must coast");
        }
        assert_eq!(pf.health(), Health::Degraded);
        // Scans return: the machine settles back to Nominal.
        for i in 25..33 {
            pf.predict(&Odometry::new(
                Pose2::IDENTITY,
                Twist2::ZERO,
                i as f64 * 0.02,
            ));
            pf.correct(&stamped(&home_scan, i as f64 * 0.02));
        }
        assert_eq!(pf.health(), Health::Nominal);
    }

    #[test]
    fn stale_scan_is_rejected() {
        let t = track();
        let mut pf = health_pf(&t, 300);
        let home = t.start_pose();
        pf.reset(home);
        let mut scan = scan_from(&t, home, pf.config().lidar_mount);
        pf.predict(&Odometry::new(Pose2::IDENTITY, Twist2::ZERO, 0.0));
        pf.predict(&Odometry::new(Pose2::IDENTITY, Twist2::ZERO, 1.0));
        scan.stamp = 0.0; // 1 s older than the odometry horizon.
        let before = pf.pose();
        let weights_before = pf.weights().to_vec();
        assert_eq!(pf.correct(&scan), before);
        assert_eq!(pf.weights(), &weights_before[..], "no scoring happened");
        // A fresh scan is accepted again.
        scan.stamp = 1.0;
        pf.correct(&scan);
        assert!(pf.diagnostics().stage("sensor").is_some());
    }

    #[test]
    fn health_disabled_is_inert() {
        let t = track();
        let caster = RayMarching::new(&t.grid, 10.0);
        let mut pf = SynPf::new(
            caster,
            SynPfConfig {
                particles: 200,
                ..SynPfConfig::default()
            },
        );
        pf.reset(t.start_pose());
        let scan = scan_from(&t, t.start_pose(), pf.config().lidar_mount);
        for _ in 0..5 {
            pf.correct(&scan);
        }
        assert_eq!(pf.health(), Health::Nominal);
        assert!(pf.diagnostics().health.is_none());
        // Stale scans are not rejected without a policy either.
        let mut old = scan.clone();
        old.stamp = -10.0;
        pf.predict(&Odometry::new(Pose2::IDENTITY, Twist2::ZERO, 0.0));
        pf.predict(&Odometry::new(Pose2::IDENTITY, Twist2::ZERO, 0.02));
        pf.correct(&old);
        assert!(pf.diagnostics().stage("sensor").is_some());
    }
}

#[cfg(test)]
mod recovery_tests {
    use super::*;
    use raceloc_core::Twist2;
    use raceloc_map::{Track, TrackShape, TrackSpec};
    use raceloc_range::RayMarching;

    fn track() -> Track {
        TrackSpec::new(TrackShape::RandomFourier {
            seed: 5,
            mean_radius: 5.0,
            amplitude: 0.2,
            harmonics: 3,
        })
        .resolution(0.1)
        .build()
    }

    fn scan_from(track: &Track, pose: Pose2, mount: Pose2) -> LaserScan {
        let caster = RayMarching::new(&track.grid, 10.0);
        let beams = 181;
        let fov = 270.0f64.to_radians();
        let inc = fov / (beams - 1) as f64;
        let sensor = pose * mount;
        let ranges: Vec<f64> = (0..beams)
            .map(|i| {
                caster.range(
                    sensor.x,
                    sensor.y,
                    sensor.theta - 0.5 * fov + i as f64 * inc,
                )
            })
            .collect();
        LaserScan::new(-0.5 * fov, inc, ranges, 10.0)
    }

    #[test]
    fn recovery_recovers_from_kidnapping() {
        let t = track();
        let caster = RayMarching::new(&t.grid, 10.0);
        let mut pf = SynPf::new(
            caster,
            SynPfConfig {
                particles: 1500,
                recovery: Some(RecoveryConfig {
                    alpha_slow: 0.01,
                    alpha_fast: 0.4,
                }),
                ..SynPfConfig::default()
            },
        );
        pf.enable_recovery(&t.grid);
        // Converge at the start pose first.
        let home = t.start_pose();
        pf.reset(home);
        let home_scan = scan_from(&t, home, pf.config().lidar_mount);
        for i in 0..12 {
            pf.predict(&Odometry::new(
                Pose2::IDENTITY,
                Twist2::ZERO,
                i as f64 * 0.02,
            ));
            pf.correct(&home_scan);
        }
        assert!(pf.pose().dist(home) < 0.2);
        // Kidnap: scans now come from the other side of the track.
        let s = 0.5 * t.raceline.total_length();
        let p = t.raceline.point_at(s);
        let there = Pose2::new(p.x, p.y, t.raceline.heading_at(s));
        let there_scan = scan_from(&t, there, pf.config().lidar_mount);
        let mut est = pf.pose();
        for i in 12..160 {
            pf.predict(&Odometry::new(
                Pose2::IDENTITY,
                Twist2::ZERO,
                i as f64 * 0.02,
            ));
            est = pf.correct(&there_scan);
        }
        assert!(
            est.dist(there) < 0.6,
            "did not recover from kidnapping: {est} vs {there}"
        );
    }

    #[test]
    fn without_recovery_kidnapping_is_fatal() {
        let t = track();
        let caster = RayMarching::new(&t.grid, 10.0);
        let mut pf = SynPf::new(
            caster,
            SynPfConfig {
                particles: 1500,
                ..SynPfConfig::default()
            },
        );
        let home = t.start_pose();
        pf.reset(home);
        let s = 0.5 * t.raceline.total_length();
        let p = t.raceline.point_at(s);
        let there = Pose2::new(p.x, p.y, t.raceline.heading_at(s));
        let there_scan = scan_from(&t, there, pf.config().lidar_mount);
        let mut est = pf.pose();
        for i in 0..100 {
            pf.predict(&Odometry::new(
                Pose2::IDENTITY,
                Twist2::ZERO,
                i as f64 * 0.02,
            ));
            est = pf.correct(&there_scan);
        }
        // The cloud cannot teleport: it stays lost near its old belief.
        assert!(
            est.dist(there) > 1.0,
            "vanilla MCL unexpectedly recovered: {est}"
        );
    }

    #[test]
    fn recovery_health_reports_collapse() {
        let t = track();
        let caster = RayMarching::new(&t.grid, 10.0);
        let mut pf = SynPf::new(
            caster,
            SynPfConfig {
                particles: 400,
                recovery: Some(RecoveryConfig::default()),
                ..SynPfConfig::default()
            },
        );
        pf.enable_recovery(&t.grid);
        let home = t.start_pose();
        pf.reset(home);
        let home_scan = scan_from(&t, home, pf.config().lidar_mount);
        for _ in 0..10 {
            pf.correct(&home_scan);
        }
        let healthy = pf.recovery_health().expect("recovery enabled");
        assert!(healthy > 0.5, "healthy ratio {healthy}");
    }

    #[test]
    fn covariance_shrinks_on_convergence() {
        let t = track();
        let caster = RayMarching::new(&t.grid, 10.0);
        let mut pf = SynPf::new(
            caster,
            SynPfConfig {
                particles: 600,
                init_sigma_xy: 0.4,
                init_sigma_theta: 0.3,
                ..SynPfConfig::default()
            },
        );
        let home = t.start_pose();
        pf.reset(home);
        let (vx0, vy0, vt0) = pf.covariance();
        let home_scan = scan_from(&t, home, pf.config().lidar_mount);
        for _ in 0..8 {
            pf.correct(&home_scan);
        }
        let (vx1, vy1, vt1) = pf.covariance();
        assert!(vx1 < vx0 && vy1 < vy0, "({vx0},{vy0}) -> ({vx1},{vy1})");
        assert!(vt1 < vt0 + 1e-9);
    }
}

#[cfg(test)]
mod deadline_tests {
    use super::*;
    use crate::kld::KldConfig;
    use raceloc_core::deadline::{DeadlineConfig, LADDER_LEN};
    use raceloc_core::Twist2;
    use raceloc_map::{Track, TrackShape, TrackSpec};
    use raceloc_range::RayMarching;

    fn track() -> Track {
        TrackSpec::new(TrackShape::Oval {
            width: 12.0,
            height: 7.0,
        })
        .resolution(0.1)
        .build()
    }

    fn scan_from(track: &Track, pose: Pose2, mount: Pose2) -> LaserScan {
        let caster = RayMarching::new(&track.grid, 10.0);
        let beams = 181;
        let fov = 270.0f64.to_radians();
        let inc = fov / (beams - 1) as f64;
        let sensor = pose * mount;
        let ranges: Vec<f64> = (0..beams)
            .map(|i| {
                caster.range(
                    sensor.x,
                    sensor.y,
                    sensor.theta - 0.5 * fov + i as f64 * inc,
                )
            })
            .collect();
        LaserScan::new(-0.5 * fov, inc, ranges, 10.0)
    }

    /// Full-step cost at the test shape: 512 + 600·(2 + 60·4) work units
    /// (600-particle KLD ceiling; the uniform layout below selects exactly
    /// 60 of the 181 test beams, unlike the boxed default whose
    /// perimeter-point dedup keeps fewer).
    const FULL: u64 = 145_712;

    fn deadline_pf(t: &Track, budget: u64, threads: usize) -> SynPf<RayMarching> {
        let caster = RayMarching::new(&t.grid, 10.0);
        SynPf::new(
            caster,
            SynPfConfig {
                particles: 600,
                threads,
                layout: ScanLayout::Uniform { count: 60 },
                kld: Some(KldConfig {
                    min_particles: 50,
                    max_particles: 600,
                    ..KldConfig::default()
                }),
                deadline: Some(DeadlineConfig {
                    budget_units: budget,
                    ..DeadlineConfig::default()
                }),
                ..SynPfConfig::default()
            },
        )
    }

    #[test]
    fn pressure_degrades_the_ladder_and_recovery_climbs_back() {
        let t = track();
        let mut pf = deadline_pf(&t, FULL + FULL / 2, 1);
        let tel = raceloc_obs::Telemetry::enabled();
        pf.set_telemetry(tel.clone());
        let pose = t.start_pose();
        pf.reset(pose);
        let scan = scan_from(&t, pose, pf.config().lidar_mount);
        let mut step = 0usize;
        let mut drive = |pf: &mut SynPf<RayMarching>, n: usize| {
            for _ in 0..n {
                pf.predict(&Odometry::new(
                    Pose2::IDENTITY,
                    Twist2::ZERO,
                    step as f64 * 0.02,
                ));
                pf.correct(&scan);
                step += 1;
            }
        };
        drive(&mut pf, 10);
        assert_eq!(pf.deadline().unwrap().rung(), 0, "uncontended budget");
        // A 50% pressure fault: the ladder must leave the top rung
        // immediately, without missing a deadline or coasting.
        pf.set_compute_pressure(0.5);
        drive(&mut pf, 15);
        let ctl = pf.deadline().unwrap();
        assert!(ctl.rung() > 0, "pressure must degrade the ladder");
        assert_eq!(ctl.misses(), 0);
        assert_eq!(ctl.coast_steps(), 0);
        // Pressure lifts: the debounced climb returns to the top rung.
        pf.set_compute_pressure(1.0);
        drive(&mut pf, 60);
        let ctl = pf.deadline().unwrap();
        assert_eq!(ctl.rung(), 0, "must recover to full compute");
        assert_eq!(ctl.misses(), 0);
        // Telemetry: occupancy recorded on the top rung and at least one
        // degraded rung.
        let snap = tel.snapshot();
        assert!(snap.counter(names::DEADLINE_RUNG0.as_str()).unwrap_or(0) > 0);
        let degraded: u64 = (1..LADDER_LEN)
            .map(|r| snap.counter(&format!("deadline.rung{r}")).unwrap_or(0))
            .sum();
        assert!(degraded > 0, "degraded rung occupancy recorded");
        assert!(snap.counter(names::PF_KLD_N_TARGET.as_str()).is_some());
        assert!(
            snap.counter(names::DEADLINE_MISS.as_str()).is_none(),
            "no misses booked"
        );
    }

    #[test]
    fn starved_budget_coasts_bounded_then_corrects_over_budget() {
        let t = track();
        // Budget below the cheapest correcting rung (2 042 units at this
        // shape) but above the coast cost (512 units).
        let mut pf = deadline_pf(&t, 1_000, 1);
        let tel = raceloc_obs::Telemetry::enabled();
        pf.set_telemetry(tel.clone());
        let pose = t.start_pose();
        pf.reset(pose);
        let scan = scan_from(&t, pose, pf.config().lidar_mount);
        let coast_limit = pf.config().deadline.unwrap().coast_limit as u64;
        for _ in 0..coast_limit {
            let before = pf.pose();
            assert_eq!(pf.correct(&scan), before, "coasted step holds the pose");
        }
        let ctl = pf.deadline().unwrap();
        assert_eq!(ctl.coast_steps(), coast_limit);
        assert_eq!(ctl.misses(), 0);
        // Coast budget exhausted: the filter corrects over budget (a
        // booked miss) instead of dead-reckoning forever.
        for _ in 0..5 {
            pf.correct(&scan);
        }
        let ctl = pf.deadline().unwrap();
        assert_eq!(ctl.coast_steps(), coast_limit, "coast is bounded");
        assert!(ctl.misses() >= 5, "forced corrections book misses");
        let snap = tel.snapshot();
        assert_eq!(
            snap.counter(names::DEADLINE_COAST_STEPS.as_str()),
            Some(coast_limit)
        );
        assert!(snap.counter(names::DEADLINE_MISS.as_str()).unwrap_or(0) >= 5);
        assert!(snap.counter(names::DEADLINE_RUNG5.as_str()).unwrap_or(0) >= coast_limit);
    }

    #[test]
    fn rung_ceiling_clamps_the_kld_target() {
        let t = track();
        // 3 000 units admits only the cheapest correcting rung (15% of
        // the 600-particle ceiling = 90 particles).
        let mut pf = deadline_pf(&t, 3_000, 1);
        let pose = t.start_pose();
        pf.reset(pose);
        let scan = scan_from(&t, pose, pf.config().lidar_mount);
        for i in 0..12 {
            pf.predict(&Odometry::new(
                Pose2::IDENTITY,
                Twist2::ZERO,
                i as f64 * 0.02,
            ));
            pf.correct(&scan);
        }
        assert!(pf.deadline().unwrap().rung() >= LADDER_LEN - 2);
        assert!(
            pf.particles().len() <= 90,
            "rung ceiling not applied: {} particles",
            pf.particles().len()
        );
        assert_eq!(pf.weights().len(), pf.particles().len());
    }

    #[test]
    fn ladder_and_poses_are_thread_deterministic() {
        let t = track();
        let run = |threads: usize| {
            let mut pf = deadline_pf(&t, FULL + FULL / 2, threads);
            let pose = t.start_pose();
            pf.reset(pose);
            let scan = scan_from(&t, pose, pf.config().lidar_mount);
            let mut poses = Vec::new();
            for i in 0..40 {
                // A mid-run pressure window, as a fault schedule delivers it.
                pf.set_compute_pressure(if (10..25).contains(&i) { 0.5 } else { 1.0 });
                pf.predict(&Odometry::new(
                    Pose2::IDENTITY,
                    Twist2::ZERO,
                    i as f64 * 0.02,
                ));
                poses.push(pf.correct(&scan).to_array());
            }
            let ctl = pf.deadline().unwrap();
            (poses, *ctl.rung_steps(), ctl.misses(), ctl.coast_steps())
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn clone_carries_the_controller_state() {
        let t = track();
        let mut pf = deadline_pf(&t, FULL + FULL / 2, 1);
        pf.reset(t.start_pose());
        let scan = scan_from(&t, t.start_pose(), pf.config().lidar_mount);
        pf.set_compute_pressure(0.5);
        for _ in 0..3 {
            pf.correct(&scan);
        }
        let cloned = pf.clone();
        assert_eq!(
            cloned.deadline().unwrap().rung_steps(),
            pf.deadline().unwrap().rung_steps()
        );
        // Reset returns the controller to the top rung.
        pf.reset(t.start_pose());
        assert_eq!(pf.deadline().unwrap().rung(), 0);
        assert_eq!(pf.deadline().unwrap().rung_steps(), &[0; LADDER_LEN]);
    }
}
