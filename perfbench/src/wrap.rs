//! A timing decorator around any [`Localizer`]: every `predict`, `correct`
//! and `reset` the closed loop makes is timed from outside the crate.

use crate::trace::{Shared, SpanId, NO_SPAN};
use raceloc_core::{Diagnostics, Health, LaserScan, Localizer, Odometry, Pose2};
use raceloc_pf::SynPf;
use raceloc_range::MapArtifacts;
use raceloc_slam::CartoLocalizer;
use std::sync::Arc;
use std::time::Instant;

/// The LiDAR scan period at 40 Hz \[µs\]: a correction slower than this
/// misses its scan.
pub const SCAN_PERIOD_US: f64 = 25_000.0;

/// The paper's SynPF over shared map artifacts.
pub type Pf = SynPf<Arc<MapArtifacts>>;

/// Span names of one localizer layer.
pub struct LayerNames {
    /// `predict` span.
    pub predict: &'static str,
    /// `correct` span.
    pub correct: &'static str,
    /// `reset` span.
    pub reset: &'static str,
}

/// What the decorator can read from a concrete localizer.
pub trait Probe: Localizer {
    /// The layer's span names.
    const NAMES: LayerNames;
    /// Current deadline-ladder rung, when the localizer runs one.
    fn rung(&self) -> Option<usize> {
        None
    }
}

impl Probe for Pf {
    const NAMES: LayerNames = LayerNames {
        predict: "pf.predict",
        correct: "pf.correct",
        reset: "pf.reset",
    };
    fn rung(&self) -> Option<usize> {
        self.deadline().map(|d| d.rung())
    }
}

impl Probe for CartoLocalizer {
    const NAMES: LayerNames = LayerNames {
        predict: "slam.predict",
        correct: "slam.correct",
        reset: "slam.reset",
    };
}

/// Counts read from the localizer's public getters after each correction
/// of a traced run.
#[derive(Debug, Clone, Default)]
pub struct ProbeCounts {
    /// Corrections observed.
    pub scans: u64,
    /// Corrections that ended in each health state (Nominal, Degraded,
    /// Lost, Recovering).
    pub health: [u64; 4],
    /// Σ particle count over corrections reporting one.
    pub particles_sum: f64,
    /// Σ ESS / particles over corrections reporting both.
    pub ess_frac_sum: f64,
    /// Corrections reporting particles and ESS.
    pub diag_n: u64,
    /// Σ scan-match score over corrections reporting one.
    pub match_score_sum: f64,
    /// Corrections reporting a match score.
    pub match_n: u64,
    /// Deadline-ladder rung changes between consecutive corrections.
    pub rung_changes: u64,
}

impl ProbeCounts {
    fn observe(&mut self, health: Health, diag: &Diagnostics) {
        self.scans += 1;
        self.health[match health {
            Health::Nominal => 0,
            Health::Degraded => 1,
            Health::Lost => 2,
            Health::Recovering => 3,
        }] += 1;
        if let (Some(n), Some(ess)) = (diag.particles, diag.ess) {
            if n > 0 {
                self.particles_sum += n as f64;
                self.ess_frac_sum += ess / n as f64;
                self.diag_n += 1;
            }
        }
        if let Some(score) = diag.match_score.filter(|s| s.is_finite()) {
            self.match_score_sum += score;
            self.match_n += 1;
        }
    }
}

/// Times every call into the wrapped localizer.
///
/// The per-scan latency of scan `k` is the time spent in the `predict`
/// calls since scan `k − 1` plus scan `k`'s `correct`. The first
/// correction after each `reset` is kept out of the latency samples (it
/// is cold start), but it still counts as an attempted correction.
pub struct Timed<L: Probe> {
    /// The wrapped localizer.
    pub inner: L,
    tr: Shared,
    /// Per-scan latency samples \[µs\], cold corrections excluded.
    pub scan_us: Vec<f64>,
    /// Corrections made, cold ones included.
    pub corrections: u64,
    /// Corrections slower than [`SCAN_PERIOD_US`].
    pub slow: u64,
    /// Corrections whose estimate was not finite.
    pub nonfinite: u64,
    /// Getter counts (traced runs only).
    pub counts: ProbeCounts,
    pending_predict_ns: u64,
    cold: bool,
    key: u64,
    period: SpanId,
    period_start: Option<Instant>,
    last_rung: Option<usize>,
}

impl<L: Probe> Timed<L> {
    /// Wraps `inner`, recording spans into `tr` when it is on.
    pub fn new(inner: L, tr: Shared) -> Self {
        let last_rung = inner.rung();
        Self {
            inner,
            tr,
            scan_us: Vec::new(),
            corrections: 0,
            slow: 0,
            nonfinite: 0,
            counts: ProbeCounts::default(),
            pending_predict_ns: 0,
            cold: true,
            key: 0,
            period: NO_SPAN,
            period_start: None,
            last_rung,
        }
    }
}

impl<L: Probe> Localizer for Timed<L> {
    fn predict(&mut self, odom: &Odometry) {
        let t0 = Instant::now();
        self.inner.predict(odom);
        let t1 = Instant::now();
        self.pending_predict_ns += (t1 - t0).as_nanos() as u64;
        self.tr
            .borrow_mut()
            .record(L::NAMES.predict, self.period, self.key, t0, t1);
    }

    fn correct(&mut self, scan: &LaserScan) -> Pose2 {
        let t0 = Instant::now();
        let pose = self.inner.correct(scan);
        let t1 = Instant::now();
        let correct_ns = (t1 - t0).as_nanos() as u64;
        self.corrections += 1;
        if correct_ns as f64 * 1e-3 > SCAN_PERIOD_US {
            self.slow += 1;
        }
        if !(pose.x.is_finite() && pose.y.is_finite() && pose.theta.is_finite()) {
            self.nonfinite += 1;
        }
        if !self.cold {
            self.scan_us
                .push((self.pending_predict_ns + correct_ns) as f64 * 1e-3);
        }
        self.pending_predict_ns = 0;
        self.cold = false;
        let mut tr = self.tr.borrow_mut();
        if tr.is_on() {
            tr.record(L::NAMES.correct, self.period, self.key, t0, t1);
            if let Some(start) = self.period_start {
                tr.record_as(self.period, "sim.period", NO_SPAN, self.key, start, t1);
            }
            self.counts
                .observe(self.inner.health(), &self.inner.diagnostics());
            let rung = self.inner.rung();
            if rung != self.last_rung {
                self.counts.rung_changes += 1;
                self.last_rung = rung;
            }
            self.key += 1;
            self.period = tr.reserve();
            // The next scan period starts after the getter reads, so
            // probing stays out of the simulator's remainder.
            self.period_start = Some(Instant::now());
        }
        pose
    }

    fn pose(&self) -> Pose2 {
        self.inner.pose()
    }

    fn reset(&mut self, pose: Pose2) {
        let t0 = Instant::now();
        self.inner.reset(pose);
        let t1 = Instant::now();
        self.tr
            .borrow_mut()
            .record(L::NAMES.reset, NO_SPAN, self.key, t0, t1);
        self.pending_predict_ns = 0;
        self.cold = true;
        // A reset closes the scan period it interrupted without a span.
        self.period = NO_SPAN;
        self.period_start = None;
        self.last_rung = self.inner.rung();
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn diagnostics(&self) -> Diagnostics {
        self.inner.diagnostics()
    }

    fn health(&self) -> Health {
        self.inner.health()
    }

    fn set_compute_pressure(&mut self, factor: f64) {
        self.inner.set_compute_pressure(factor);
    }
}
