//! Per-step fault evaluation: the combined effects a schedule exerts on a
//! scan or an odometry sample, plus the telemetry tracker.

use raceloc_obs::Telemetry;

use crate::FaultSchedule;

/// The combined scan-side effects of every fault active at one step.
///
/// Produced by [`FaultSchedule::scan_effects`]; applied to a raw range
/// array by [`ScanEffects::apply`]. Dropped beams are tagged
/// `f64::INFINITY` — the sensor-side convention for an invalid return —
/// never `max_range`, which the beam model would score as a confident hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanEffects {
    /// Every beam is invalid this step.
    pub blackout: bool,
    /// Extra per-beam dropout probability, in `[0, 1]`.
    pub extra_dropout: f64,
    /// Additive range miscalibration \[m\].
    pub bias_m: f64,
    /// Multiplicative range miscalibration.
    pub scale: f64,
    /// Scans are emitted `delay_steps` corrections late (0 = live).
    pub delay_steps: u64,
    /// The scan must be cast against the corrupted map.
    pub corrupt_map: bool,
}

impl ScanEffects {
    /// The neutral element: no fault active.
    pub fn none() -> Self {
        Self {
            blackout: false,
            extra_dropout: 0.0,
            bias_m: 0.0,
            scale: 1.0,
            delay_steps: 0,
            corrupt_map: false,
        }
    }

    /// Whether any effect differs from the neutral element.
    pub fn any(&self) -> bool {
        self.blackout
            || self.extra_dropout > 0.0
            || self.bias_m != 0.0
            || self.scale != 1.0
            || self.delay_steps > 0
            || self.corrupt_map
    }

    /// Mutates a raw range array in place.
    ///
    /// Blackout and dropout tag beams `f64::INFINITY`; bias/scale apply to
    /// valid returns only (beams already invalid or saturated at
    /// `max_range` are left alone) and clamp back into `[0, max_range]`,
    /// saturating to `max_range` exactly like the real sensor. The dropout
    /// draw comes from [`FaultSchedule::scan_rng`], so it is a pure
    /// function of `(seed, step)` and replays bit-identically.
    pub fn apply(&self, ranges: &mut [f64], max_range: f64, seed: u64, step: u64) {
        if !self.any() {
            return;
        }
        if self.blackout {
            for r in ranges.iter_mut() {
                *r = f64::INFINITY;
            }
            return;
        }
        let mut rng = (self.extra_dropout > 0.0).then(|| FaultSchedule::scan_rng(seed, step));
        let saturated = max_range - 1e-9;
        for r in ranges.iter_mut() {
            // One draw per beam regardless of the beam's current state, so
            // the stream layout depends only on the beam index.
            if let Some(rng) = rng.as_mut() {
                if rng.bernoulli(self.extra_dropout) {
                    *r = f64::INFINITY;
                    continue;
                }
            }
            if !r.is_finite() || *r >= saturated {
                continue;
            }
            let v = *r * self.scale + self.bias_m;
            *r = v.clamp(0.0, max_range);
        }
    }
}

/// The combined odometry-side effects of every fault active at one step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OdomEffects {
    /// Factor multiplied into the reported wheel speed (1 = nominal).
    pub slip_factor: f64,
    /// The encoder and steering feedback are frozen at their values from
    /// the fault's first active step.
    pub stuck: bool,
}

impl OdomEffects {
    /// The neutral element: no fault active.
    pub fn none() -> Self {
        Self {
            slip_factor: 1.0,
            stuck: false,
        }
    }

    /// Whether any effect differs from the neutral element.
    pub fn any(&self) -> bool {
        self.slip_factor != 1.0 || self.stuck
    }
}

/// Books fault activity into telemetry counters.
///
/// For each fault in the schedule, `faults.<kind>.activations` counts
/// rising edges and `faults.<kind>.steps` counts active steps. Counters
/// are no-ops when the telemetry handle is disabled.
#[derive(Debug, Clone)]
pub struct FaultTracker {
    was_active: Vec<bool>,
}

impl FaultTracker {
    /// A tracker sized for the given schedule.
    pub fn new(schedule: &FaultSchedule) -> Self {
        Self {
            was_active: vec![false; schedule.faults().len()],
        }
    }

    /// Forgets all edge state (call at the start of a run).
    pub fn reset(&mut self) {
        for a in &mut self.was_active {
            *a = false;
        }
    }

    /// Records one step's fault activity.
    pub fn record(&mut self, schedule: &FaultSchedule, step: u64, tel: &Telemetry) {
        for (spec, prev) in schedule.faults().iter().zip(self.was_active.iter_mut()) {
            let now = spec.window.contains(step);
            if now {
                if !*prev {
                    tel.add(spec.kind.activation_counter(), 1);
                }
                tel.add(spec.kind.step_counter(), 1);
            }
            *prev = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raceloc_obs::names;

    #[test]
    fn blackout_invalidates_every_beam() {
        let s = FaultSchedule::builder()
            .lidar_blackout(0, 10)
            .build()
            .expect("valid");
        let mut ranges = vec![1.0, 5.0, 9.99, 10.0];
        s.scan_effects(3).apply(&mut ranges, 10.0, s.seed(), 3);
        assert!(ranges.iter().all(|r| r.is_infinite()));
    }

    #[test]
    fn dropout_is_pure_in_seed_and_step() {
        let s = FaultSchedule::builder()
            .seed(5)
            .beam_dropout(0, 100, 0.4)
            .build()
            .expect("valid");
        let run = |step: u64| {
            let mut ranges = vec![3.0; 256];
            s.scan_effects(step)
                .apply(&mut ranges, 10.0, s.seed(), step);
            ranges
        };
        assert_eq!(run(7), run(7), "same step must replay identically");
        assert_ne!(run(7), run(8), "different steps draw different beams");
        let dropped = run(7).iter().filter(|r| r.is_infinite()).count();
        assert!(
            (50..=160).contains(&dropped),
            "dropout rate implausible: {dropped}/256"
        );
    }

    #[test]
    fn bias_and_scale_respect_validity_and_saturation() {
        let s = FaultSchedule::builder()
            .range_bias(0, 10, 1.0)
            .range_scale(0, 10, 2.0)
            .build()
            .expect("valid");
        let mut ranges = vec![2.0, 6.0, 10.0, f64::INFINITY];
        s.scan_effects(0).apply(&mut ranges, 10.0, s.seed(), 0);
        assert_eq!(ranges[0], 5.0, "2·2 + 1");
        assert_eq!(ranges[1], 10.0, "6·2 + 1 saturates at max_range");
        assert_eq!(ranges[2], 10.0, "saturated beams stay saturated");
        assert!(ranges[3].is_infinite(), "invalid beams stay invalid");
    }

    #[test]
    fn negative_bias_clamps_at_zero() {
        let s = FaultSchedule::builder()
            .range_bias(0, 10, -5.0)
            .build()
            .expect("valid");
        let mut ranges = vec![1.0];
        s.scan_effects(0).apply(&mut ranges, 10.0, s.seed(), 0);
        assert_eq!(ranges[0], 0.0);
    }

    #[test]
    fn tracker_counts_edges_and_steps() {
        let s = FaultSchedule::builder()
            .lidar_blackout(2, 5)
            .odom_slip(3, 4, 1.5)
            .build()
            .expect("valid");
        let tel = Telemetry::enabled();
        let mut tracker = FaultTracker::new(&s);
        for step in 0..8 {
            tracker.record(&s, step, &tel);
        }
        let snap = tel.snapshot();
        assert_eq!(
            snap.counter(names::FAULTS_LIDAR_BLACKOUT_ACTIVATIONS.as_str()),
            Some(1)
        );
        assert_eq!(
            snap.counter(names::FAULTS_LIDAR_BLACKOUT_STEPS.as_str()),
            Some(3)
        );
        assert_eq!(
            snap.counter(names::FAULTS_ODOM_SLIP_ACTIVATIONS.as_str()),
            Some(1)
        );
        assert_eq!(
            snap.counter(names::FAULTS_ODOM_SLIP_STEPS.as_str()),
            Some(1)
        );
    }
}
