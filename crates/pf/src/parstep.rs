//! Chunked jobs for the fused parallel particle pipeline (DESIGN.md §11).
//!
//! [`SynPf`](crate::SynPf) splits its particle set into the deterministic
//! static chunk layout from [`raceloc_par::chunk`] and runs two kernels
//! over it, either inline (`threads = 1`, directly on per-chunk slices of
//! the filter's [`ParticleStore`] lanes) or as one [`StepJob`] per chunk on
//! a persistent [`raceloc_par::WorkerPool`]. Both paths call the *same*
//! free kernel functions on the same chunk spans with the same RNG
//! streams, so the filter trajectory is bitwise identical for any thread
//! count.
//!
//! - [`motion_kernel`]: propagates a chunk's pose lanes through the
//!   configured motion model using a *counter-derived* RNG stream
//!   ([`Rng64::stream`]) identified by `(epoch, chunk index)`. The stream
//!   is a pure function of the seed and those counters — never of which
//!   worker runs the chunk.
//! - [`cast_weight_kernel`]: the fused expected-range + weight kernel.
//!   For each particle it computes the sensor pose from the pose lanes
//!   (using the maintained `cos`/`sin` lanes — no transcendentals), asks
//!   the range oracle for the whole beam fan *as quantized expected-range
//!   bins* ([`RangeMethod::beam_bins_into`]), and sums the sensor model's
//!   u16 log-likelihood codes in a `u64` accumulator. Integer summation is
//!   exact and order-free, so the per-particle log-weight
//!   `(Σ codes) · qscale / squash` cannot depend on accumulation order —
//!   cross-thread bitwise identity holds by construction rather than by
//!   careful float ordering (DESIGN.md §11).

use std::sync::Arc;

use raceloc_core::{stream_keys, Pose2, Rng64, Twist2};
use raceloc_par::PoolJob;
use raceloc_range::RangeMethod;

use crate::filter::MotionConfig;
use crate::sensor::BeamSensorModel;
use crate::store::ParticleStore;

/// Immutable per-filter context shared with the pool workers: the range
/// oracle and the precomputed sensor table.
#[derive(Debug)]
pub(crate) struct PfShared<M> {
    /// The expected-range oracle.
    pub caster: M,
    /// The discretized beam sensor model.
    pub sensor: BeamSensorModel,
}

/// Propagates one chunk's pose lanes through the motion model, drawing
/// from `rng` in the scalar model's exact per-particle order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn motion_kernel(
    motion: &MotionConfig,
    delta: Pose2,
    twist: Twist2,
    dt: f64,
    rng: &mut Rng64,
    x: &mut [f64],
    y: &mut [f64],
    theta: &mut [f64],
    cos_t: &mut [f64],
    sin_t: &mut [f64],
) {
    match motion {
        MotionConfig::DiffDrive(m) => m.propagate_lanes(delta, rng, x, y, theta, cos_t, sin_t),
        MotionConfig::Tum(m) => m.propagate_lanes(twist, dt, rng, x, y, theta, cos_t, sin_t),
    }
}

/// Fused cast + weight over one chunk's pose lanes.
///
/// `bearings[j]` is the `j`-th selected beam's bearing in the sensor
/// frame; `rows[j]` is its measured-range row offset into the sensor
/// model's quantized table ([`BeamSensorModel::row_offset`]) — both are
/// precomputed once per scan. `ebins` is a reusable k-sized scratch;
/// `log_w` must be sized to the chunk and receives the squashed
/// log-weights.
#[allow(clippy::too_many_arguments)]
pub(crate) fn cast_weight_kernel<M: RangeMethod + ?Sized>(
    caster: &M,
    sensor: &BeamSensorModel,
    mount: Pose2,
    squash: f64,
    bearings: &[f64],
    rows: &[u32],
    x: &[f64],
    y: &[f64],
    theta: &[f64],
    cos_t: &[f64],
    sin_t: &[f64],
    ebins: &mut Vec<u32>,
    log_w: &mut [f64],
) {
    debug_assert_eq!(bearings.len(), rows.len());
    debug_assert_eq!(x.len(), log_w.len());
    // A resize of a cleared scratch that keeps its capacity across steps:
    // allocation-free once warm (`tests/alloc_free.rs`).
    ebins.clear();
    ebins.resize(bearings.len(), 0);
    let inv_res = sensor.inv_resolution();
    let max_bin = sensor.max_bin();
    let qscale = sensor.quantization_scale();
    for i in 0..x.len() {
        let (c, s) = (cos_t[i], sin_t[i]);
        let sx = x[i] + mount.x * c - mount.y * s;
        let sy = y[i] + mount.x * s + mount.y * c;
        let st = theta[i] + mount.theta;
        caster.beam_bins_into(sx, sy, st, bearings, inv_res, max_bin, ebins);
        let mut acc: u64 = 0;
        for (&row, &eb) in rows.iter().zip(ebins.iter()) {
            acc += u64::from(sensor.code_at(row + eb));
        }
        log_w[i] = acc as f64 * qscale / squash;
    }
}

/// What a [`StepJob`] computes when it runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum JobKind {
    /// Leftover job slot from a larger previous batch: does nothing.
    Idle,
    /// Propagate the pose lanes through the motion model.
    Motion,
    /// Fused expected-range cast + log-likelihood accumulation.
    CastWeight,
}

/// One particle chunk's worth of pipeline work, with owned reusable lane
/// buffers. The filter keeps a persistent `Vec<StepJob>` (at most
/// [`raceloc_par::MAX_CHUNKS`] entries) and rewrites the fields each step.
#[derive(Debug)]
pub(crate) struct StepJob {
    /// Which kernel to run.
    pub kind: JobKind,
    /// Offset of this chunk in the filter's particle store.
    pub start: usize,
    /// Chunk copy of the store's `x` lane (mutated by `Motion`).
    pub x: Vec<f64>,
    /// Chunk copy of the store's `y` lane.
    pub y: Vec<f64>,
    /// Chunk copy of the store's `theta` lane.
    pub theta: Vec<f64>,
    /// Chunk copy of the store's `cos θ` lane.
    pub cos: Vec<f64>,
    /// Chunk copy of the store's `sin θ` lane.
    pub sin: Vec<f64>,
    /// Selected finite beams' bearings in the sensor frame.
    pub bearings: Vec<f64>,
    /// Matching measured-range row offsets into the quantized sensor table.
    pub rows: Vec<u32>,
    /// LiDAR mount pose in the body frame.
    pub mount: Pose2,
    /// Log-likelihood squash divisor.
    pub squash: f64,
    /// `CastWeight` output: squashed log-weight per particle.
    pub log_w: Vec<f64>,
    /// Per-particle expected-bin scratch (k entries, reused).
    ebins: Vec<u32>,
    /// Motion model to sample from.
    pub motion: MotionConfig,
    /// Relative odometry since the last prediction.
    pub delta: Pose2,
    /// Body twist reported with the odometry.
    pub twist: Twist2,
    /// Time step \[s\].
    pub dt: f64,
    /// Filter seed; combined with the `(epoch, chunk)` counters into the
    /// chunk's registered RNG stream key.
    pub seed: u64,
    /// The filter's prediction epoch (always ≥ 1 when the job runs).
    pub epoch: u64,
    /// This job's chunk index in the static layout.
    pub chunk: u64,
}

impl StepJob {
    /// A fresh idle job slot with empty buffers.
    pub fn empty(motion: MotionConfig) -> Self {
        Self {
            kind: JobKind::Idle,
            start: 0,
            x: Vec::new(),
            y: Vec::new(),
            theta: Vec::new(),
            cos: Vec::new(),
            sin: Vec::new(),
            bearings: Vec::new(),
            rows: Vec::new(),
            mount: Pose2::IDENTITY,
            squash: 1.0,
            log_w: Vec::new(),
            ebins: Vec::new(),
            motion,
            delta: Pose2::IDENTITY,
            twist: Twist2::ZERO,
            dt: 0.0,
            seed: 0,
            epoch: 1,
            chunk: 0,
        }
    }

    /// Copies the store's lanes over `span` into the job's lane buffers
    /// and records the chunk offset. Buffers retain capacity across steps.
    pub fn load_particles(&mut self, store: &ParticleStore, span: std::ops::Range<usize>) {
        self.start = span.start;
        self.x.clear();
        self.x.extend_from_slice(&store.x[span.clone()]);
        self.y.clear();
        self.y.extend_from_slice(&store.y[span.clone()]);
        self.theta.clear();
        self.theta.extend_from_slice(&store.theta[span.clone()]);
        self.cos.clear();
        self.cos.extend_from_slice(&store.cos[span.clone()]);
        self.sin.clear();
        self.sin.extend_from_slice(&store.sin[span]);
    }

    /// Scatters the job's (motion-propagated) lanes back into the store at
    /// the recorded chunk offset.
    pub fn store_particles(&self, store: &mut ParticleStore) {
        let span = self.start..self.start + self.x.len();
        store.x[span.clone()].copy_from_slice(&self.x);
        store.y[span.clone()].copy_from_slice(&self.y);
        store.theta[span.clone()].copy_from_slice(&self.theta);
        store.cos[span.clone()].copy_from_slice(&self.cos);
        store.sin[span].copy_from_slice(&self.sin);
    }

    /// Clears the lane buffers (used when parking a job slot idle).
    pub fn clear_particles(&mut self) {
        self.x.clear();
        self.y.clear();
        self.theta.clear();
        self.cos.clear();
        self.sin.clear();
    }
}

impl<M: RangeMethod> PoolJob<Arc<PfShared<M>>> for StepJob {
    fn run(&mut self, ctx: &Arc<PfShared<M>>) {
        match self.kind {
            JobKind::Idle => {}
            JobKind::Motion => {
                // The stream depends only on (seed, epoch, chunk index) —
                // never on which worker runs the job — so motion noise is
                // identical for any thread count, including inline. The key
                // comes from the central registry (rule R7).
                let mut rng =
                    Rng64::stream(self.seed, stream_keys::pf_motion(self.epoch, self.chunk));
                motion_kernel(
                    &self.motion,
                    self.delta,
                    self.twist,
                    self.dt,
                    &mut rng,
                    &mut self.x,
                    &mut self.y,
                    &mut self.theta,
                    &mut self.cos,
                    &mut self.sin,
                );
            }
            JobKind::CastWeight => {
                // A resize of a cleared output buffer that keeps its capacity
                // across steps: allocation-free once warm.
                self.log_w.clear();
                self.log_w.resize(self.x.len(), 0.0);
                cast_weight_kernel(
                    &ctx.caster,
                    &ctx.sensor,
                    self.mount,
                    self.squash,
                    &self.bearings,
                    &self.rows,
                    &self.x,
                    &self.y,
                    &self.theta,
                    &self.cos,
                    &self.sin,
                    &mut self.ebins,
                    &mut self.log_w,
                );
            }
        }
    }

    fn items(&self) -> usize {
        self.x.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raceloc_map::{CellState, OccupancyGrid};
    use raceloc_range::BresenhamCasting;

    fn shared() -> Arc<PfShared<BresenhamCasting>> {
        let mut g = OccupancyGrid::new(80, 80, 0.1, raceloc_core::Point2::ORIGIN);
        g.fill(CellState::Free);
        for i in 0..80i64 {
            g.set((i, 0).into(), CellState::Occupied);
            g.set((i, 79).into(), CellState::Occupied);
            g.set((0, i).into(), CellState::Occupied);
            g.set((79, i).into(), CellState::Occupied);
        }
        Arc::new(PfShared {
            caster: BresenhamCasting::new(&g, 10.0),
            sensor: BeamSensorModel::new(crate::sensor::BeamModelConfig::default(), 10.0),
        })
    }

    fn load(job: &mut StepJob, poses: &[Pose2]) {
        let store = ParticleStore::from_poses(poses);
        job.load_particles(&store, 0..poses.len());
    }

    /// The fused lane kernel must reproduce, bitwise, a reference that
    /// evaluates the quantized sensor model per beam through the public
    /// scalar path: `range()` → `expected_bin` → `code_at` → integer sum.
    #[test]
    fn fused_matches_quantized_scalar_reference() {
        let ctx = shared();
        let particles = vec![
            Pose2::new(4.0, 4.0, 0.3),
            Pose2::new(3.0, 5.0, -1.2),
            Pose2::new(5.5, 2.0, 2.8),
        ];
        let beams: Vec<(f64, f64)> = (0..16)
            .map(|i| (-1.5 + i as f64 * 0.2, 2.0 + (i % 5) as f64 * 0.7))
            .collect();
        let mount = Pose2::new(0.1, 0.0, 0.0);
        let squash = 12.0;

        // Scalar reference over the same quantized table.
        let qscale = ctx.sensor.quantization_scale();
        let reference: Vec<f64> = particles
            .iter()
            .map(|p| {
                let mut acc: u64 = 0;
                for &(bearing, measured) in &beams {
                    // Fresh sin_cos sensor pose, like the old AoS path.
                    let sp = *p * mount;
                    let expected = ctx.caster.range(sp.x, sp.y, sp.theta + bearing);
                    let idx = ctx.sensor.row_offset(measured) + ctx.sensor.expected_bin(expected);
                    acc += u64::from(ctx.sensor.code_at(idx));
                }
                acc as f64 * qscale / squash
            })
            .collect();

        let mut job = StepJob::empty(MotionConfig::Tum(crate::motion::TumMotionModel::default()));
        job.kind = JobKind::CastWeight;
        load(&mut job, &particles);
        job.bearings = beams.iter().map(|&(b, _)| b).collect();
        job.rows = beams
            .iter()
            .map(|&(_, m)| ctx.sensor.row_offset(m))
            .collect();
        job.mount = mount;
        job.squash = squash;
        job.run(&ctx);
        assert_eq!(job.log_w, reference, "fused kernel must be bitwise exact");
    }

    /// Integer code accumulation makes the log-weight independent of beam
    /// evaluation order — the property the cross-thread gates lean on.
    #[test]
    fn weight_is_beam_order_independent() {
        let ctx = shared();
        let particles = vec![Pose2::new(4.0, 4.0, 0.3), Pose2::new(3.0, 5.0, -1.2)];
        let beams: Vec<(f64, f64)> = (0..24)
            .map(|i| (-1.3 + i as f64 * 0.11, 1.0 + (i % 7) as f64 * 0.9))
            .collect();
        let run = |beams: &[(f64, f64)]| {
            let mut job =
                StepJob::empty(MotionConfig::Tum(crate::motion::TumMotionModel::default()));
            job.kind = JobKind::CastWeight;
            load(&mut job, &particles);
            job.bearings = beams.iter().map(|&(b, _)| b).collect();
            job.rows = beams
                .iter()
                .map(|&(_, m)| ctx.sensor.row_offset(m))
                .collect();
            job.mount = Pose2::new(0.1, 0.0, 0.0);
            job.squash = 12.0;
            job.run(&ctx);
            job.log_w
        };
        let forward = run(&beams);
        let mut reversed_beams = beams.clone();
        reversed_beams.reverse();
        let reversed = run(&reversed_beams);
        assert_eq!(forward, reversed, "Σ of u16 codes must commute exactly");
    }

    #[test]
    fn motion_stream_is_pure() {
        let ctx = shared();
        let mk = || {
            let mut job =
                StepJob::empty(MotionConfig::Tum(crate::motion::TumMotionModel::default()));
            job.kind = JobKind::Motion;
            load(&mut job, &[Pose2::new(4.0, 4.0, 0.1); 8]);
            job.delta = Pose2::new(0.05, 0.0, 0.01);
            job.twist = Twist2::new(1.0, 0.0, 0.2);
            job.dt = 0.05;
            job.seed = 7;
            job.epoch = 3;
            job.chunk = 1;
            job.run(&ctx);
            (job.x, job.y, job.theta, job.cos, job.sin)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn load_store_round_trips_a_chunk() {
        let poses = vec![
            Pose2::new(1.0, 2.0, 0.3),
            Pose2::new(-1.0, 0.5, -2.0),
            Pose2::new(3.0, 3.0, 1.1),
            Pose2::new(0.0, -1.0, 0.0),
        ];
        let store = ParticleStore::from_poses(&poses);
        let mut dst = ParticleStore::identity(4);
        let mut job = StepJob::empty(MotionConfig::Tum(crate::motion::TumMotionModel::default()));
        job.load_particles(&store, 1..3);
        assert_eq!(job.start, 1);
        assert_eq!(job.x, &store.x[1..3]);
        job.store_particles(&mut dst);
        assert_eq!(dst.pose(1), store.pose(1));
        assert_eq!(dst.pose(2), store.pose(2));
        assert_eq!(dst.pose(0), Pose2::IDENTITY, "outside the span untouched");
    }

    #[test]
    fn idle_job_is_a_noop() {
        let ctx = shared();
        let mut job = StepJob::empty(MotionConfig::Tum(crate::motion::TumMotionModel::default()));
        load(&mut job, &[Pose2::new(1.0, 1.0, 0.0)]);
        let before = (job.x.clone(), job.y.clone(), job.theta.clone());
        job.run(&ctx);
        assert_eq!((job.x.clone(), job.y.clone(), job.theta.clone()), before);
        assert!(job.log_w.is_empty());
    }
}
