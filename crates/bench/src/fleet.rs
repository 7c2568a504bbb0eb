//! The checked-in fleet specs (DESIGN.md §12, EXPERIMENTS.md A5/A6).
//!
//! - [`fleet_spec`] — the paper-style robustness fleet behind
//!   `BENCH_fleet.json`: two procedurally generated tracks, both surface
//!   qualities (the paper's HQ/LQ odometry axis), a nominal control plus
//!   the two fault scenarios the paper's narrative hinges on (wheelspin
//!   odometry slip and a kidnap-grade collision), all three localizers,
//!   and 20 seed replicates per cell — 720 closed-loop runs.
//! - [`fault_spec`] — the fault fleet behind `BENCH_faults.json`: the
//!   whole [`fault_catalog`] on the test track at HQ grip, all three
//!   localizers, 20 replicates — 600 runs of 24 s.
//! - [`deadline_spec`] — the deadline fleet behind `BENCH_deadline.json`
//!   (EXPERIMENTS.md A8): SynPF on the test track at HQ grip, four
//!   compute budgets × the three [`pressure_scenarios`], 20 replicates —
//!   240 runs of 16 s.
//!
//! The quick mode of every spec keeps the whole matrix and drops only the
//! replicate count, so CI exercises every cell on a compressed budget.

use raceloc_core::deadline::{CostModel, RangeTier};
use raceloc_eval::{EvalMethod, FleetSpec, GripSpec, MapSpec};

use crate::faults::{fault_catalog, pressure_scenarios};
use crate::{MU_HIGH_QUALITY, MU_LOW_QUALITY};

/// Replicates per cell in full mode (the checked-in artifacts).
pub const FULL_REPLICATES: u32 = 20;
/// Replicates per cell in `--quick` mode (the CI smoke artifacts).
pub const QUICK_REPLICATES: u32 = 2;

fn replicates(quick: bool) -> u32 {
    if quick {
        QUICK_REPLICATES
    } else {
        FULL_REPLICATES
    }
}

/// The test track ([`crate::test_track`]) as a fleet map.
fn fourier_33() -> MapSpec {
    MapSpec {
        name: "fourier-33".into(),
        fourier_seed: 33,
        half_width: 1.25,
        mean_radius: 6.0,
    }
}

fn high_grip() -> GripSpec {
    GripSpec {
        name: "HQ".into(),
        mu: MU_HIGH_QUALITY,
    }
}

/// Builds the robustness fleet. `quick` only changes the replicate count;
/// the cell matrix, seeds, and run length are identical in both modes.
pub fn fleet_spec(quick: bool) -> FleetSpec {
    // 8 s at 40 Hz = 320 corrections.
    let scenarios = fault_catalog(320)
        .into_iter()
        .filter(|s| ["nominal", "odom_slip", "pose_kidnap"].contains(&s.name.as_str()))
        .collect();
    FleetSpec {
        name: "robustness-fleet".into(),
        master_seed: 2024,
        replicates: replicates(quick),
        duration_s: 8.0,
        particles: 1200,
        beams: 271,
        // Success: the estimate's mean lateral error (the paper's primary
        // error axis) stayed under ~a quarter of the corridor half-width —
        // laterally on line, even if a global re-init picked the wrong
        // longitudinal section of a symmetric circuit.
        success_lat_cm: 30.0,
        maps: vec![
            fourier_33(),
            MapSpec {
                name: "fourier-77".into(),
                fourier_seed: 77,
                half_width: 1.25,
                mean_radius: 6.0,
            },
        ],
        grips: vec![
            high_grip(),
            GripSpec {
                name: "LQ".into(),
                mu: MU_LOW_QUALITY,
            },
        ],
        scenarios,
        // The robustness fleet stays on the uncapped budget; the budget ×
        // pressure sweep is [`deadline_spec`].
        budgets: vec![0],
        methods: EvalMethod::all().to_vec(),
    }
}

/// Builds the fault fleet: every [`fault_catalog`] scenario on the test
/// track at HQ grip. `quick` only changes the replicate count.
pub fn fault_spec(quick: bool) -> FleetSpec {
    // 24 s at 40 Hz = 960 corrections.
    FleetSpec {
        name: "fault-fleet".into(),
        master_seed: 2024,
        replicates: replicates(quick),
        duration_s: 24.0,
        particles: 1200,
        beams: 271,
        success_lat_cm: 30.0,
        maps: vec![fourier_33()],
        grips: vec![high_grip()],
        scenarios: fault_catalog(960),
        budgets: vec![0],
        methods: EvalMethod::all().to_vec(),
    }
}

/// The cost of one full-quality SynPF correction with `particles`
/// particles over the default boxed layout's 60-beam cap — the anchor of
/// the deadline fleet's budgets. Perimeter deduplication leaves the
/// selected fan at roughly two thirds of the cap, so one anchored full
/// step costs ~1.5× a real top-rung correction.
pub fn full_step_units(particles: usize) -> u64 {
    CostModel::default().step_units(particles as u64, 60, RangeTier::Exact)
}

/// Builds the deadline fleet: SynPF under an uncapped reference and three
/// per-step budgets — one anchored full step (headroom), 0.6× (forces
/// the ladder off the top rung) and 0.35× (deep in the degraded tiers) —
/// against each [`pressure_scenarios`] entry. `quick` only changes the
/// replicate count.
pub fn deadline_spec(quick: bool) -> FleetSpec {
    let particles = 1200;
    let full = full_step_units(particles);
    // 16 s at 40 Hz = 640 corrections.
    FleetSpec {
        name: "deadline-fleet".into(),
        master_seed: 2024,
        replicates: replicates(quick),
        duration_s: 16.0,
        particles,
        beams: 271,
        success_lat_cm: 30.0,
        maps: vec![fourier_33()],
        grips: vec![high_grip()],
        scenarios: pressure_scenarios(640),
        budgets: vec![0, full, full * 3 / 5, full * 7 / 20],
        methods: vec![EvalMethod::SynPf],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_fleet_matches_the_issue_sizing() {
        let spec = fleet_spec(false);
        spec.validate().expect("fleet spec is valid");
        assert_eq!(spec.cells().len(), 2 * 2 * 3 * 3);
        assert_eq!(spec.total_runs(), 36 * 20);
        assert!(
            spec.replicates >= 20,
            "paper-style statistics need ≥20 seeds"
        );
    }

    #[test]
    fn quick_fleet_keeps_the_matrix() {
        let quick = fleet_spec(true);
        let full = fleet_spec(false);
        quick.validate().expect("quick spec is valid");
        assert_eq!(quick.cells().len(), full.cells().len());
        assert_eq!(quick.total_runs(), 36 * QUICK_REPLICATES as usize);
        // Same matrix ⇒ same world seeds for the replicates both share.
        assert_eq!(quick.world_seed(1, 1, 2, 1), full.world_seed(1, 1, 2, 1));
    }

    #[test]
    fn both_maps_generate_drivable_tracks() {
        for m in &fleet_spec(false).maps {
            let track = m.build_track();
            let len = track.raceline.total_length();
            assert!((25.0..60.0).contains(&len), "{}: raceline {len} m", m.name);
            assert!(
                track.is_free(track.start_pose().translation()),
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn fourier_33_is_the_test_track() {
        assert_eq!(fourier_33().build_track().grid, crate::test_track().grid);
    }

    #[test]
    fn specs_round_trip_through_json() {
        for spec in [
            fleet_spec(false),
            fault_spec(false),
            fault_spec(true),
            deadline_spec(false),
        ] {
            spec.validate().expect("checked-in spec is valid");
            let text = format!("{}", spec.to_json());
            let back = FleetSpec::from_json_str(&text).expect("parse back");
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn fault_spec_covers_the_fault_space() {
        let spec = fault_spec(false);
        assert_eq!(spec.replicates, FULL_REPLICATES);
        assert_eq!(spec.corrections(), 960);
        assert!(spec.scenarios.len() >= 9, "nominal + ≥8 fault scenarios");
        assert_eq!(spec.scenarios[0].name, "nominal");
        assert_eq!(spec.methods, EvalMethod::all().to_vec());
        // Unique names and in-run windows are `validate`'s job.
        spec.validate().expect("fault spec is valid");
        for gated in ["pose_kidnap", "lidar_blackout"] {
            assert!(
                spec.scenarios
                    .iter()
                    .any(|s| s.name == gated && s.recovery_budget.is_some()),
                "{gated} must carry a recovery budget"
            );
        }
    }

    #[test]
    fn deadline_spec_sweeps_budget_by_pressure() {
        let spec = deadline_spec(false);
        spec.validate().expect("deadline spec is valid");
        assert_eq!(spec.replicates, FULL_REPLICATES);
        assert_eq!(spec.corrections(), 640);
        assert_eq!(spec.methods, vec![EvalMethod::SynPf]);
        // Uncapped leads; the caps descend from one anchored full step.
        assert_eq!(spec.budgets, vec![0, 290_912, 174_547, 101_819]);
        let names: Vec<&str> = spec.scenarios.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["nominal", "pressure_half", "pressure_cliff"]);
        assert!(
            spec.scenarios[0].schedule.is_empty(),
            "nominal is fault-free"
        );
        for s in &spec.scenarios[1..] {
            let [f] = s.schedule.faults() else {
                panic!("{}: one pressure window", s.name);
            };
            assert_eq!((f.window.start, f.window.end), (160, 288), "{}", s.name);
            assert_eq!(s.measure_from, 288, "{}", s.name);
            assert_eq!(s.recovery_budget, None, "{}", s.name);
        }
        assert_eq!(spec.total_runs(), 4 * 3 * 20);
        let quick = deadline_spec(true);
        assert_eq!(quick.replicates, QUICK_REPLICATES);
        assert_eq!(
            (quick.scenarios, quick.budgets),
            (spec.scenarios, spec.budgets)
        );
    }

    #[test]
    fn quick_fault_spec_keeps_the_catalog() {
        let quick = fault_spec(true);
        let full = fault_spec(false);
        quick.validate().expect("quick spec is valid");
        assert_eq!(quick.replicates, QUICK_REPLICATES);
        assert_eq!(quick.scenarios, full.scenarios);
        assert_eq!(quick.cells().len(), full.cells().len());
        assert_eq!(quick.world_seed(0, 0, 8, 1), full.world_seed(0, 0, 8, 1));
    }
}
