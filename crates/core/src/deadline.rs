//! Deadline-aware adaptive compute: deterministic cost accounting and the
//! graceful-degradation ladder (DESIGN.md §14).
//!
//! A localizer that blows its scan period is as lost as one that
//! diverges, so the per-step compute budget is a first-class robustness
//! input. This module keeps the whole mechanism **deterministic**: cost
//! is accounted in integer *work units* — particles × beams × a
//! per-range-tier unit cost, calibrated once against the BENCH_pipeline
//! step-latency medians — never in wall-clock time, so the rung sequence
//! (and therefore every pose) is bit-identical for any worker-thread
//! count (rule R3).
//!
//! The ladder has six rungs. Each trades accuracy for work along three
//! axes — particle-count ceiling (realized through the KLD resampler),
//! beam subsample stride, and range-query tier — and the bottom rung
//! *coasts* on dead-reckoning for a bounded number of steps instead of
//! overrunning the period. The [`DeadlineController`] debounces rung
//! changes exactly like the [`HealthMonitor`](crate::health::HealthMonitor)
//! debounces divergence: descending is immediate (a deadline must not be
//! missed waiting for a streak), climbing requires a sustained
//! under-budget streak plus headroom, and leaving a coast episode arms a
//! holdoff so the ladder never flaps between coasting and full compute.
//!
//! # Examples
//!
//! ```
//! use raceloc_core::deadline::{DeadlineConfig, DeadlineController, LADDER_LEN};
//! use raceloc_core::Health;
//!
//! // 600 particles × 60 beams at the exact tier bill 145 712 units.
//! let config = DeadlineConfig {
//!     budget_units: 160_000,
//!     ..DeadlineConfig::default()
//! };
//! let mut ctl = DeadlineController::new(config.validated().unwrap());
//! // Full compute fits the budget: the controller stays on the top rung.
//! let plan = ctl.plan(1.0, Health::Nominal, 600, 60);
//! assert_eq!(plan.rung, 0);
//! assert!(!plan.miss);
//! // A 50% pressure fault halves the budget: the ladder descends, the
//! // deadline is still met.
//! let plan = ctl.plan(0.5, Health::Nominal, 600, 60);
//! assert!(plan.rung > 0 && plan.rung < LADDER_LEN - 1);
//! assert!(!plan.miss && !plan.coast);
//! ```

use crate::health::Health;

/// Number of rungs on the degradation ladder (including the coast rung).
pub const LADDER_LEN: usize = 6;

/// The range-query cost tier of a ladder rung.
///
/// The top tier bills the exact compressed-LUT fan interpolation; the
/// degraded tiers quantize beam bearings onto a coarse conic grid
/// (CDDT-style θ-binning at [`RangeTier::Binned`], a twice-coarser
/// raymarch-stride analog at [`RangeTier::Coarse`]) so the cast amortizes
/// across bearing-identical beams and bills fewer units per beam.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeTier {
    /// Exact LUT fan interpolation at the scan's native bearings.
    Exact,
    /// Bearings snapped to the LUT's 5° heading grid (72 bins).
    Binned,
    /// Bearings snapped to a 10° grid (36 bins).
    Coarse,
}

impl RangeTier {
    /// Work units billed per particle-beam evaluation at this tier.
    pub const fn beam_units(self) -> u64 {
        match self {
            RangeTier::Exact => 4,
            RangeTier::Binned => 2,
            RangeTier::Coarse => 1,
        }
    }

    /// The bearing quantization grid \[rad\] of this tier (`None`: exact
    /// bearings). 5° matches the default LUT heading bin
    /// (`ArtifactParams::theta_bins = 72`).
    pub fn bearing_quantum(self) -> Option<f64> {
        match self {
            RangeTier::Exact => None,
            RangeTier::Binned => Some(std::f64::consts::TAU / 72.0),
            RangeTier::Coarse => Some(std::f64::consts::TAU / 36.0),
        }
    }

    /// The stable tier label used in reports.
    pub const fn name(self) -> &'static str {
        match self {
            RangeTier::Exact => "lut_exact",
            RangeTier::Binned => "lut_binned",
            RangeTier::Coarse => "lut_coarse",
        }
    }
}

/// The integer work-unit cost model of one scan correction.
///
/// One work unit is defined as the cheapest ([`RangeTier::Coarse`])
/// particle-beam evaluation. The default constants were calibrated once
/// against the checked-in `BENCH_pipeline.json` medians (step p50
/// 0.256 ms at 1200 particles vs 0.759 ms at 4000, 60 beams, exact
/// tier): the per-particle slope is ≈180 ns ≈ 242 units, i.e. one unit
/// ≈ 0.75 ns on the reference machine. The constants are *declared*,
/// not measured at runtime — the model must stay a pure function of the
/// configuration (rule R3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Fixed per-correction overhead (scan prep, normalization, pose
    /// reduction) in work units.
    pub fixed_units: u64,
    /// Per-particle overhead (motion sampling, weight reduction,
    /// resampling amortized) in work units.
    pub per_particle_units: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            fixed_units: 512,
            per_particle_units: 2,
        }
    }
}

impl CostModel {
    /// Work units of one full correction: `fixed + n·(per_particle +
    /// beams·tier)`. Saturating: a pathological configuration clamps at
    /// `u64::MAX` instead of wrapping into a tiny budget.
    pub fn step_units(&self, particles: u64, beams: u64, tier: RangeTier) -> u64 {
        let per_particle = self
            .per_particle_units
            .saturating_add(beams.saturating_mul(tier.beam_units()));
        self.fixed_units
            .saturating_add(particles.saturating_mul(per_particle))
    }

    /// Work units of a coasted step (dead-reckoning only: the fixed
    /// overhead, no casts, no resample).
    pub fn coast_units(&self) -> u64 {
        self.fixed_units
    }
}

/// One rung of the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rung {
    /// Particle-count ceiling as a percentage of the configured maximum
    /// (realized through the KLD resampler's target clamp).
    pub particle_pct: u32,
    /// Beam subsample stride applied on top of the configured beam
    /// selection (1 = every selected beam).
    pub beam_stride: u32,
    /// Range-query cost tier.
    pub tier: RangeTier,
    /// Whether this rung skips the correction entirely and coasts on
    /// dead-reckoning (bounded by [`DeadlineConfig::coast_limit`]).
    pub coast: bool,
}

/// The degradation ladder, top (full compute) to bottom (coast).
///
/// Rung costs are strictly decreasing, which the constructor of
/// [`DeadlineController`] debug-asserts: a non-monotone ladder would
/// make the descend loop livelock above an affordable rung.
pub const LADDER: [Rung; LADDER_LEN] = [
    Rung {
        particle_pct: 100,
        beam_stride: 1,
        tier: RangeTier::Exact,
        coast: false,
    },
    Rung {
        particle_pct: 60,
        beam_stride: 1,
        tier: RangeTier::Exact,
        coast: false,
    },
    Rung {
        particle_pct: 40,
        beam_stride: 2,
        tier: RangeTier::Exact,
        coast: false,
    },
    Rung {
        particle_pct: 25,
        beam_stride: 2,
        tier: RangeTier::Binned,
        coast: false,
    },
    Rung {
        particle_pct: 15,
        beam_stride: 4,
        tier: RangeTier::Coarse,
        coast: false,
    },
    Rung {
        particle_pct: 15,
        beam_stride: 4,
        tier: RangeTier::Coarse,
        coast: true,
    },
];

/// An invalid [`DeadlineConfig`] field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlineConfigError {
    /// The offending field.
    pub field: &'static str,
    /// Why it was rejected.
    pub reason: &'static str,
}

impl std::fmt::Display for DeadlineConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deadline config: {} {}", self.field, self.reason)
    }
}

impl std::error::Error for DeadlineConfigError {}

/// Configuration of the [`DeadlineController`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlineConfig {
    /// Per-step compute budget in work units; `0` means uncapped.
    pub budget_units: u64,
    /// Maximum consecutive coasted steps per pressure episode. Once
    /// exhausted, the controller runs the cheapest correcting rung even
    /// over budget (booking a deadline miss) rather than dead-reckoning
    /// indefinitely.
    pub coast_limit: u32,
    /// Consecutive in-budget steps required before climbing one rung
    /// (the hysteresis that keeps the ladder from flapping).
    pub upgrade_streak: u32,
    /// Steps to hold the current rung after a coast episode ends or a
    /// global re-initialization fires, before climbing is allowed again
    /// (mirrors the health machine's reinit holdoff).
    pub recover_holdoff: u32,
    /// Climb only when the next rung's cost fits within this percentage
    /// of the budget (1–100). Headroom absorbs the one-step lag between
    /// commanding a particle ceiling and the resampler realizing it.
    pub headroom_pct: u32,
    /// The work-unit cost model.
    pub cost: CostModel,
}

impl Default for DeadlineConfig {
    fn default() -> Self {
        Self {
            budget_units: 0,
            coast_limit: 8,
            upgrade_streak: 5,
            recover_holdoff: 10,
            headroom_pct: 80,
            cost: CostModel::default(),
        }
    }
}

impl DeadlineConfig {
    /// Validates the configuration, returning it unchanged on success.
    pub fn validated(self) -> Result<Self, DeadlineConfigError> {
        let err = |field, reason| Err(DeadlineConfigError { field, reason });
        if self.upgrade_streak == 0 {
            return err("upgrade_streak", "must be at least 1");
        }
        if self.headroom_pct == 0 || self.headroom_pct > 100 {
            return err("headroom_pct", "must lie in 1..=100");
        }
        if self.cost.per_particle_units == 0 {
            return err("cost.per_particle_units", "must be at least 1");
        }
        Ok(self)
    }

    /// The effective per-step budget under a compute-pressure factor in
    /// `(0, 1]` (1 = no pressure). An uncapped budget stays uncapped;
    /// a capped one never collapses below one unit.
    pub fn effective_budget(&self, pressure: f64) -> u64 {
        if self.budget_units == 0 {
            return u64::MAX;
        }
        let f = if pressure.is_finite() {
            pressure.clamp(0.0, 1.0)
        } else {
            1.0
        };
        ((self.budget_units as f64 * f) as u64).max(1)
    }
}

/// The controller's decision for one correction step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepPlan {
    /// Index of the chosen rung in [`LADDER`].
    pub rung: usize,
    /// Billed cost of the step at the chosen rung, in work units.
    pub cost_units: u64,
    /// The effective (pressure-scaled) budget the step was planned
    /// against (`u64::MAX` when uncapped).
    pub budget_units: u64,
    /// Whether the billed cost exceeds the budget even at the cheapest
    /// admissible rung — a deadline miss.
    pub miss: bool,
    /// Whether the step coasts on dead-reckoning.
    pub coast: bool,
}

impl StepPlan {
    /// The chosen rung's parameters.
    pub fn rung_params(&self) -> &'static Rung {
        &LADDER[self.rung]
    }
}

/// The debounced rung-selection state machine.
///
/// One [`DeadlineController::plan`] call per correction; the returned
/// [`StepPlan`] is a pure function of the call sequence, so two filters
/// fed the same (seed, budget, fault schedule) produce bitwise-identical
/// rung sequences regardless of worker-thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadlineController {
    config: DeadlineConfig,
    rung: usize,
    ok_streak: u32,
    coast_run: u32,
    holdoff: u32,
    misses: u64,
    coast_steps: u64,
    rung_steps: [u64; LADDER_LEN],
}

impl DeadlineController {
    /// A controller starting on the top rung.
    pub fn new(config: DeadlineConfig) -> Self {
        debug_assert!(
            LADDER.windows(2).all(|w| {
                let cost = |r: &Rung| {
                    if r.coast {
                        0
                    } else {
                        (r.particle_pct as u64)
                            * (100 / r.beam_stride as u64).max(1)
                            * r.tier.beam_units()
                    }
                };
                cost(&w[0]) > cost(&w[1])
            }),
            "ladder rung costs must be strictly decreasing"
        );
        Self {
            config,
            rung: 0,
            ok_streak: 0,
            coast_run: 0,
            holdoff: 0,
            misses: 0,
            coast_steps: 0,
            rung_steps: [0; LADDER_LEN],
        }
    }

    /// The configuration the controller was built with.
    pub fn config(&self) -> &DeadlineConfig {
        &self.config
    }

    /// The current rung index (0 = top, full compute).
    pub fn rung(&self) -> usize {
        self.rung
    }

    /// Total deadline misses booked so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total coasted steps booked so far.
    pub fn coast_steps(&self) -> u64 {
        self.coast_steps
    }

    /// Steps planned at each rung (the occupancy histogram).
    pub fn rung_steps(&self) -> &[u64; LADDER_LEN] {
        &self.rung_steps
    }

    /// Records that a global re-initialization fired: arms the recovery
    /// holdoff and restarts the climb streak, so the ladder does not
    /// climb into an expensive rung while the filter re-converges.
    pub fn notify_reinit(&mut self) {
        self.holdoff = self.config.recover_holdoff;
        self.ok_streak = 0;
    }

    /// Resets the controller to the top rung, clearing streaks and
    /// statistics (mirrors `Localizer::reset`).
    pub fn reset(&mut self) {
        self.rung = 0;
        self.ok_streak = 0;
        self.coast_run = 0;
        self.holdoff = 0;
        self.misses = 0;
        self.coast_steps = 0;
        self.rung_steps = [0; LADDER_LEN];
    }

    /// Plans one correction step.
    ///
    /// `pressure` is the compute-pressure factor in `(0, 1]` (1 = no
    /// fault); `health` is the filter's current health state;
    /// `max_particles` the billing base for particle ceilings (the KLD
    /// maximum, or the live particle count when KLD is disabled);
    /// `beams` the number of selected beams before stride decimation.
    ///
    /// Descending is immediate and can cross several rungs; climbing is
    /// one rung per call, gated on streak, holdoff, and headroom. The
    /// coast rung is refused while [`Health::Lost`] (a lost filter must
    /// keep correcting) and once the per-episode coast budget is
    /// exhausted — both cases book a deadline miss instead.
    pub fn plan(
        &mut self,
        pressure: f64,
        health: Health,
        max_particles: u64,
        beams: u64,
    ) -> StepPlan {
        let budget = self.config.effective_budget(pressure);
        let cm = self.config.cost;
        let cost_at = move |r: usize| rung_cost(cm, r, max_particles, beams);
        let coast_allowed = health != Health::Lost && self.coast_run < self.config.coast_limit;
        let was_coast = LADDER[self.rung].coast;

        // A coasting controller re-plans from the cheapest correcting
        // rung: coast is an emergency, not a steady state, so resuming
        // (budget recovered) and forced over-budget correction (coast
        // bound exhausted) must not wait for the climb hysteresis.
        let mut r = if was_coast { LADDER_LEN - 2 } else { self.rung };
        // Descend until the step fits (or the cheapest admissible rung).
        while cost_at(r) > budget && r + 1 < LADDER_LEN {
            if LADDER[r + 1].coast && !coast_allowed {
                break;
            }
            r += 1;
        }
        let descended = r > self.rung;
        let mut miss = cost_at(r) > budget;

        // Climb consideration: only from a steady, in-budget rung (never
        // in the same step as a coast exit).
        if !was_coast && !descended && !miss && r > 0 {
            let next_cost = cost_at(r - 1) as u128;
            let fits = if budget == u64::MAX {
                true
            } else {
                next_cost * 100 <= budget as u128 * self.config.headroom_pct as u128
            };
            if fits && self.holdoff == 0 && self.ok_streak >= self.config.upgrade_streak {
                r -= 1;
                self.ok_streak = 0;
                miss = cost_at(r) > budget;
            }
        }

        // Streak and episode bookkeeping.
        if descended || miss {
            self.ok_streak = 0;
        } else {
            self.ok_streak = self.ok_streak.saturating_add(1);
        }
        if LADDER[r].coast {
            self.coast_run += 1;
            self.coast_steps += 1;
        } else if !miss && self.coast_run > 0 {
            // The budget admits a correcting rung again: the coast
            // episode is over; arm the holdoff before any climb. A
            // forced over-budget correction (miss) keeps the episode
            // open, so the coast bound cannot re-arm while starved.
            self.coast_run = 0;
            self.holdoff = self.config.recover_holdoff;
        }
        self.holdoff = self.holdoff.saturating_sub(1);
        if miss {
            self.misses += 1;
        }
        self.rung_steps[r] += 1;
        self.rung = r;

        StepPlan {
            rung: r,
            cost_units: cost_at(r),
            budget_units: budget,
            miss,
            coast: LADDER[r].coast,
        }
    }
}

/// Billed cost of one step at rung `r` of [`LADDER`] under cost model
/// `cm`, for a particle ceiling base of `max_particles` and `beams`
/// selected beams.
fn rung_cost(cm: CostModel, r: usize, max_particles: u64, beams: u64) -> u64 {
    let rung = &LADDER[r];
    if rung.coast {
        return cm.coast_units();
    }
    let particles = (max_particles.saturating_mul(rung.particle_pct as u64) / 100).max(1);
    let beams = beams.div_ceil(rung.beam_stride as u64);
    cm.step_units(particles, beams, rung.tier)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capped(budget: u64) -> DeadlineController {
        DeadlineController::new(
            DeadlineConfig {
                budget_units: budget,
                ..DeadlineConfig::default()
            }
            .validated()
            .expect("test config is valid"),
        )
    }

    // Full-step cost at the defaults: 512 + 600·(2 + 60·4) = 145_712.
    const N: u64 = 600;
    const BEAMS: u64 = 60;
    const FULL: u64 = 145_712;

    #[test]
    fn cost_model_matches_the_documented_formula() {
        let cost = CostModel::default();
        assert_eq!(cost.step_units(N, BEAMS, RangeTier::Exact), FULL);
        assert_eq!(
            cost.step_units(N, BEAMS, RangeTier::Coarse),
            512 + 600 * (2 + 60)
        );
        assert_eq!(cost.coast_units(), 512);
    }

    #[test]
    fn ladder_costs_strictly_decrease() {
        let ctl = capped(0);
        let costs: Vec<u64> = (0..LADDER_LEN)
            .map(|r| rung_cost(ctl.config().cost, r, N, BEAMS))
            .collect();
        for w in costs.windows(2) {
            assert!(w[0] > w[1], "{costs:?}");
        }
    }

    #[test]
    fn uncapped_budget_stays_on_the_top_rung() {
        let mut ctl = capped(0);
        for _ in 0..100 {
            let plan = ctl.plan(1.0, Health::Nominal, N, BEAMS);
            assert_eq!(plan.rung, 0);
            assert!(!plan.miss && !plan.coast);
        }
        assert_eq!(ctl.misses(), 0);
        assert_eq!(ctl.rung_steps()[0], 100);
    }

    #[test]
    fn pressure_descends_and_recovery_climbs_with_hysteresis() {
        // 1.5× full cost: the top rung fits the 80% headroom band, so the
        // ladder can climb all the way back once pressure lifts.
        let mut ctl = capped(FULL + FULL / 2);
        for _ in 0..10 {
            assert_eq!(ctl.plan(1.0, Health::Nominal, N, BEAMS).rung, 0);
        }
        // Halved budget: must leave the top rung immediately, no miss.
        let plan = ctl.plan(0.5, Health::Nominal, N, BEAMS);
        assert!(plan.rung > 0, "must descend");
        assert!(!plan.miss && !plan.coast);
        let pressured = plan.rung;
        for _ in 0..30 {
            let p = ctl.plan(0.5, Health::Nominal, N, BEAMS);
            assert_eq!(p.rung, pressured, "steady under constant pressure");
            assert!(!p.miss);
        }
        // Pressure lifts: climbing is debounced, one rung per streak.
        let mut rungs = Vec::new();
        for _ in 0..60 {
            rungs.push(ctl.plan(1.0, Health::Nominal, N, BEAMS).rung);
        }
        assert_eq!(*rungs.last().unwrap(), 0, "recovers to the top rung");
        for w in rungs.windows(2) {
            assert!(
                w[1] + 1 >= w[0] && w[1] <= w[0],
                "monotone climb: {rungs:?}"
            );
        }
        assert_eq!(ctl.misses(), 0);
    }

    #[test]
    fn starvation_coasts_bounded_then_misses() {
        let mut ctl = capped(FULL);
        // Budget below the cheapest correcting rung but above coast cost.
        let cheapest = rung_cost(ctl.config().cost, LADDER_LEN - 2, N, BEAMS);
        let pressure = (cheapest - 1) as f64 / FULL as f64;
        let limit = ctl.config().coast_limit as u64;
        for i in 0..limit {
            let p = ctl.plan(pressure, Health::Nominal, N, BEAMS);
            assert!(p.coast, "step {i} coasts");
            assert!(!p.miss);
        }
        // Coast budget exhausted: the controller corrects over budget.
        let p = ctl.plan(pressure, Health::Nominal, N, BEAMS);
        assert!(!p.coast, "coast is bounded");
        assert!(p.miss, "over-budget correction books a miss");
        assert_eq!(ctl.coast_steps(), limit);
        // The episode does not re-arm while still starved: no flapping
        // back into coast.
        for _ in 0..20 {
            assert!(!ctl.plan(pressure, Health::Nominal, N, BEAMS).coast);
        }
        assert_eq!(ctl.coast_steps(), limit);
    }

    #[test]
    fn coast_is_refused_while_lost() {
        let mut ctl = capped(FULL);
        let cheapest = rung_cost(ctl.config().cost, LADDER_LEN - 2, N, BEAMS);
        let pressure = (cheapest - 1) as f64 / FULL as f64;
        let p = ctl.plan(pressure, Health::Lost, N, BEAMS);
        assert!(!p.coast, "a lost filter must keep correcting");
        assert!(p.miss);
    }

    #[test]
    fn coast_recovery_arms_the_holdoff() {
        let mut ctl = capped(FULL);
        let cheapest = rung_cost(ctl.config().cost, LADDER_LEN - 2, N, BEAMS);
        let starve = (cheapest - 1) as f64 / FULL as f64;
        for _ in 0..3 {
            assert!(ctl.plan(starve, Health::Nominal, N, BEAMS).coast);
        }
        // Pressure lifts: the first correcting step ends the episode and
        // arms the holdoff — no climb for recover_holdoff steps even
        // though the budget now has headroom.
        let resumed = ctl.plan(1.0, Health::Nominal, N, BEAMS).rung;
        assert!(!LADDER[resumed].coast);
        let holdoff = ctl.config().recover_holdoff as usize;
        for _ in 0..holdoff.saturating_sub(1) {
            assert_eq!(ctl.plan(1.0, Health::Nominal, N, BEAMS).rung, resumed);
        }
    }

    #[test]
    fn reinit_restarts_the_climb_streak() {
        let mut ctl = capped(FULL + FULL / 5);
        ctl.plan(0.5, Health::Nominal, N, BEAMS);
        // Almost earned a climb…
        for _ in 0..ctl.config().upgrade_streak - 1 {
            ctl.plan(1.0, Health::Nominal, N, BEAMS);
        }
        let before = ctl.rung();
        ctl.notify_reinit();
        // …the reinit restarts the streak and arms the holdoff.
        for _ in 0..ctl.config().recover_holdoff {
            assert_eq!(ctl.plan(1.0, Health::Nominal, N, BEAMS).rung, before);
        }
    }

    #[test]
    fn effective_budget_handles_edges() {
        let cfg = DeadlineConfig {
            budget_units: 1000,
            ..DeadlineConfig::default()
        };
        assert_eq!(cfg.effective_budget(1.0), 1000);
        assert_eq!(cfg.effective_budget(0.5), 500);
        assert_eq!(cfg.effective_budget(0.0), 1);
        assert_eq!(cfg.effective_budget(f64::NAN), 1000);
        assert_eq!(cfg.effective_budget(7.0), 1000);
        let uncapped = DeadlineConfig::default();
        assert_eq!(uncapped.effective_budget(0.01), u64::MAX);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bad = DeadlineConfig {
            upgrade_streak: 0,
            ..DeadlineConfig::default()
        };
        assert_eq!(bad.validated().unwrap_err().field, "upgrade_streak");
        let bad = DeadlineConfig {
            headroom_pct: 0,
            ..DeadlineConfig::default()
        };
        assert_eq!(bad.validated().unwrap_err().field, "headroom_pct");
        let bad = DeadlineConfig {
            headroom_pct: 101,
            ..DeadlineConfig::default()
        };
        assert!(bad.validated().is_err());
        let bad = DeadlineConfig {
            cost: CostModel {
                fixed_units: 0,
                per_particle_units: 0,
            },
            ..DeadlineConfig::default()
        };
        assert!(bad.validated().is_err());
        assert!(DeadlineConfig::default().validated().is_ok());
    }

    #[test]
    fn reset_returns_to_the_top_rung() {
        let mut ctl = capped(FULL);
        ctl.plan(0.3, Health::Nominal, N, BEAMS);
        assert!(ctl.rung() > 0);
        ctl.reset();
        assert_eq!(ctl.rung(), 0);
        assert_eq!(ctl.misses(), 0);
        assert_eq!(ctl.rung_steps(), &[0; LADDER_LEN]);
    }

    #[test]
    fn plans_are_a_pure_function_of_the_call_sequence() {
        let drive = |ctl: &mut DeadlineController| -> Vec<usize> {
            let mut out = Vec::new();
            for i in 0..200u32 {
                let pressure = if (60..90).contains(&i) { 0.4 } else { 1.0 };
                out.push(ctl.plan(pressure, Health::Nominal, N, BEAMS).rung);
            }
            out
        };
        let mut a = capped(FULL + 7);
        let mut b = capped(FULL + 7);
        assert_eq!(drive(&mut a), drive(&mut b));
        assert_eq!(a, b);
    }
}
