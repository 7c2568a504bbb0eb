//! SynPF's re-seeding: augmented-MCL injection, the health detectors and
//! the Lost → global re-init, drawing from one free-space source. DESIGN.md
//! §12 ("SynPF's `Recovery`") gives the call order and the RNG draw order.

use raceloc_core::{Health, HealthMonitor, HealthSignal, Point2, Pose2, Rng64};
use raceloc_map::{CellState, OccupancyGrid};

use crate::health::HealthPolicy;
use crate::store::ParticleStore;

/// Configuration of augmented-MCL recovery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Long-term likelihood EMA rate (0 < α_slow ≪ α_fast).
    pub alpha_slow: f64,
    /// Short-term likelihood EMA rate.
    pub alpha_fast: f64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self {
            alpha_slow: 0.003,
            alpha_fast: 0.1,
        }
    }
}

/// Free space to draw random poses from: the world centre of every free
/// cell of a grid, in grid iteration order, and the half-cell jitter.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FreeSpace {
    centres: Vec<Point2>,
    jitter: f64,
}

impl FreeSpace {
    pub(crate) fn new(grid: &OccupancyGrid) -> Self {
        let centres = grid
            .iter()
            .filter(|(_, s)| *s == CellState::Free)
            .map(|(idx, _)| grid.index_to_world(idx))
            .collect();
        Self {
            centres,
            jitter: grid.resolution() * 0.5,
        }
    }

    /// Draws one pose uniformly over free space: a random free cell, a
    /// uniform jitter within it, and a uniform heading — in that RNG order.
    fn draw(&self, rng: &mut Rng64) -> Pose2 {
        let c = self.centres[rng.uniform_usize(self.centres.len())];
        Pose2::new(
            c.x + rng.uniform_range(-self.jitter, self.jitter),
            c.y + rng.uniform_range(-self.jitter, self.jitter),
            rng.uniform_range(-std::f64::consts::PI, std::f64::consts::PI),
        )
    }

    /// Redraws every particle, in order, and makes the weights `w`
    /// uniform; returns `false`, touching nothing, without a free cell.
    pub(crate) fn scatter(
        &self,
        store: &mut ParticleStore,
        w: &mut [f64],
        rng: &mut Rng64,
    ) -> bool {
        if self.centres.is_empty() {
            return false;
        }
        for i in 0..store.len() {
            let pose = self.draw(rng);
            store.set_pose(i, pose);
        }
        w.fill(1.0 / store.len() as f64);
        true
    }
}

/// A slow/fast pair of mean-likelihood EMAs, seeded by its first
/// observation (a zero slow average means unseeded).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct LikelihoodPair {
    slow: f64,
    fast: f64,
}

impl LikelihoodPair {
    /// Feeds one mean likelihood and returns the new `fast / slow` ratio
    /// (`None` for the seeding observation).
    fn observe(&mut self, alpha_slow: f64, alpha_fast: f64, lik: f64) -> Option<f64> {
        if self.slow == 0.0 {
            self.slow = lik;
            self.fast = lik;
            return None;
        }
        self.slow += alpha_slow * (lik - self.slow);
        self.fast += alpha_fast * (lik - self.fast);
        self.ratio()
    }

    fn ratio(&self) -> Option<f64> {
        (self.slow > 1e-300).then(|| self.fast / self.slow)
    }
}

/// EMA mean/variance of the mean squashed log-likelihood, and its count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct LogLikelihoodEma {
    mean: f64,
    var: f64,
    steps: u32,
}

/// Everything SynPF keeps to detect trouble and re-seed (DESIGN.md §12).
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
pub(crate) struct Recovery {
    /// Augmented-MCL rates and the free space both loops draw from; `None`
    /// until [`SynPf::enable_recovery`](crate::SynPf::enable_recovery).
    armed: Option<(RecoveryConfig, FreeSpace)>,
    /// Detector policy; `None` leaves the machine at Nominal.
    policy: Option<HealthPolicy>,
    monitor: HealthMonitor,
    /// Augmented MCL's `w_slow`/`w_fast`.
    mcl: LikelihoodPair,
    /// The detector's pair, independent of the injection rates.
    detector: LikelihoodPair,
    lw: LogLikelihoodEma,
    /// Detector mute countdown after an automatic global re-init.
    holdoff: u32,
}

impl Recovery {
    pub(crate) fn new(policy: Option<HealthPolicy>) -> Self {
        Self {
            armed: None,
            policy,
            monitor: HealthMonitor::new(policy.map(|h| h.monitor).unwrap_or_default()),
            mcl: LikelihoodPair::default(),
            detector: LikelihoodPair::default(),
            lw: LogLikelihoodEma::default(),
            holdoff: 0,
        }
    }

    /// Arms augmented-MCL injection and the health machine's re-init.
    pub(crate) fn arm(&mut self, rates: RecoveryConfig, free: FreeSpace) {
        self.armed = Some((rates, free));
    }

    /// Zeroes every tracker and sets the detector holdoff: the only place
    /// recovery state starts afresh, after a reset or a re-init.
    fn restart(&mut self, holdoff: u32) {
        self.mcl = LikelihoodPair::default();
        self.detector = LikelihoodPair::default();
        self.lw = LogLikelihoodEma::default();
        self.holdoff = holdoff;
    }

    /// Returns to the state of a fresh filter: trackers zeroed, Nominal.
    pub(crate) fn reset(&mut self) {
        self.monitor.reset();
        self.restart(0);
    }

    pub(crate) fn health(&self) -> Health {
        self.monitor.state()
    }

    /// Augmented MCL's `w_fast / w_slow`, once armed and seeded.
    pub(crate) fn likelihood_ratio(&self) -> Option<f64> {
        self.armed.as_ref().and_then(|_| self.mcl.ratio())
    }

    /// Feeds one mean raw likelihood into augmented MCL's pair and returns
    /// the share of the cloud to replace with free-space draws.
    pub(crate) fn injection(&mut self, mean_lik: f64) -> f64 {
        let Some((rates, _)) = &self.armed else {
            return 0.0;
        };
        self.mcl
            .observe(rates.alpha_slow, rates.alpha_fast, mean_lik)
            .map_or(0.0, |r| (1.0 - r).max(0.0))
    }

    /// Replaces `round(n · fraction)` particles, each at a uniformly drawn
    /// slot, with free-space draws.
    pub(crate) fn inject(&self, fraction: f64, store: &mut ParticleStore, rng: &mut Rng64) {
        let Some((_, free)) = self.armed.as_ref().filter(|(_, f)| !f.centres.is_empty()) else {
            return;
        };
        let n = store.len();
        let count = ((n as f64 * fraction).round() as usize).min(n);
        for _ in 0..count {
            let slot = rng.uniform_usize(n);
            let pose = free.draw(rng);
            store.set_pose(slot, pose);
        }
    }

    /// Books a correction that scored nothing (stale, empty, all beams
    /// dropped, or shed by the ladder) as Suspect: the filter returns its last
    /// scored estimate while `predict` moves the particles (ROADMAP item 2).
    pub(crate) fn note_unscored(&mut self) {
        if self.policy.is_some() {
            self.monitor.observe(HealthSignal::Suspect);
        }
    }

    /// Runs the detectors on one informative correction and steps the
    /// health machine (a no-op without a policy). The likelihood z-score and
    /// the detector's ratio vote Suspect or Diverged; `spread` (covariance
    /// trace, pre-resample ESS fraction) runs after them and only Suspects.
    /// On Lost with `auto_reinit` and a draw source, the trackers restart
    /// behind the holdoff and the free space to re-draw the cloud from is
    /// returned: the re-init event the filter acts on.
    pub(crate) fn assess(
        &mut self,
        mean_lw: f64,
        mean_lik: f64,
        spread: impl FnOnce() -> (f64, f64),
    ) -> Option<&FreeSpace> {
        let policy = self.policy?;
        let warmed = self.lw.steps >= policy.warmup_steps;
        let sigma = self.lw.var.max(0.0).sqrt().max(policy.z_sigma_floor);
        let z = (mean_lw - self.lw.mean) / sigma;
        if self.lw.steps == 0 {
            self.lw.mean = mean_lw;
            self.lw.var = 0.0;
        } else {
            let d = mean_lw - self.lw.mean;
            self.lw.mean += policy.ema_alpha * d;
            self.lw.var += policy.ema_alpha * (d * d - self.lw.var);
        }
        self.lw.steps = self.lw.steps.saturating_add(1);
        let ratio =
            self.detector
                .observe(policy.ratio_alpha_slow, policy.ratio_alpha_fast, mean_lik);
        if self.holdoff > 0 {
            // A freshly scattered cloud legitimately has a huge covariance
            // and an unsettled likelihood level: keep learning the EMAs
            // but let the machine sit in Recovering undisturbed.
            self.holdoff -= 1;
            return None;
        }
        let signal = if !warmed {
            HealthSignal::Ok
        } else if z < -policy.z_lost || ratio.is_some_and(|r| r < policy.ratio_lost) {
            HealthSignal::Diverged
        } else {
            // The spread never votes Diverged: a dispersed cloud with a
            // healthy likelihood is augmented-MCL injection mid-recovery,
            // and declaring Lost would re-scatter a converging filter.
            let (cov, ess_frac) = spread();
            let suspect = z < -policy.z_suspect
                || cov > policy.cov_suspect_m2
                || ess_frac < policy.ess_suspect_frac;
            if suspect {
                HealthSignal::Suspect
            } else {
                HealthSignal::Ok
            }
        };
        let state = self.monitor.observe(signal);
        if state != Health::Lost || !policy.auto_reinit || self.armed.is_none() {
            return None;
        }
        self.monitor.notify_reinit();
        self.restart(policy.reinit_holdoff);
        self.armed.as_ref().map(|(_, free)| free)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raceloc_map::{TrackShape, TrackSpec};

    fn armed(policy: HealthPolicy) -> Recovery {
        let track = TrackSpec::new(TrackShape::Oval {
            width: 8.0,
            height: 5.0,
        })
        .resolution(0.2)
        .build();
        let mut rec = Recovery::new(Some(policy));
        rec.arm(RecoveryConfig::default(), FreeSpace::new(&track.grid));
        rec
    }

    /// Warms the detectors on a steady likelihood, then collapses it
    /// until the machine orders a re-init; returns whether it did.
    fn warm_then_collapse(rec: &mut Recovery) -> bool {
        let healthy = || (0.01, 1.0);
        for _ in 0..HealthPolicy::default().warmup_steps + 5 {
            assert_eq!(rec.injection(0.5), 0.0);
            assert!(rec.assess(-1.0, 0.5, healthy).is_none());
        }
        assert_eq!(rec.health(), Health::Nominal);
        (0..100).any(|_| {
            rec.injection(1e-6);
            rec.assess(-50.0, 1e-6, healthy).is_some()
        })
    }

    #[test]
    fn reset_after_a_reinit_equals_a_fresh_recovery() {
        let policy = HealthPolicy::default();
        let mut rec = armed(policy);
        assert!(warm_then_collapse(&mut rec), "never reached Lost → re-init");
        assert_eq!(rec.health(), Health::Recovering);
        assert_eq!(rec.holdoff, policy.reinit_holdoff);
        // Inside the holdoff the trackers keep learning.
        for _ in 0..5 {
            rec.injection(0.3);
            assert!(rec.assess(-2.0, 0.3, || (0.01, 1.0)).is_none());
        }
        assert!(rec.likelihood_ratio().is_some());
        assert_ne!(rec.lw, LogLikelihoodEma::default());
        rec.reset();
        assert_eq!(rec, armed(policy));
    }

    #[test]
    fn unarmed_recovery_neither_injects_nor_reinits() {
        let mut rec = Recovery::new(Some(HealthPolicy::default()));
        assert!(!warm_then_collapse(&mut rec));
        assert_eq!(rec.health(), Health::Lost);
        assert_eq!(rec.likelihood_ratio(), None);
        assert_eq!(rec.mcl, LikelihoodPair::default());
    }
}
