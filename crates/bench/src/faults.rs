//! The scenario catalogs of the checked-in fleets.
//!
//! - [`fault_catalog`] (DESIGN.md §12): a nominal control plus nine
//!   single-fault scenarios, each mapped to a physical failure. The fault
//!   fleet (`fleet --spec faults`, [`crate::fleet::fault_spec`]) runs the
//!   whole catalog; the robustness fleet ([`crate::fleet::fleet_spec`])
//!   takes its nominal, slip and kidnap entries.
//! - [`pressure_scenarios`] (DESIGN.md §14): the compute-pressure axis of
//!   the deadline fleet (`fleet --spec deadline`,
//!   [`crate::fleet::deadline_spec`]).

use crate::test_track;
use raceloc_eval::{ScenarioSpec, CLIFF_SCENARIO, HALF_SCENARIO, NOMINAL_SCENARIO};
use raceloc_faults::{FaultSchedule, MapRegion};

/// Seed of every catalog schedule.
const SCHEDULE_SEED: u64 = 0xFA57;

/// Builds the fault catalog for a run of `total_steps` scan corrections.
/// Windows scale with the run length, so a shorter run exercises the same
/// catalog on a compressed timeline.
///
/// # Panics
///
/// Panics when `total_steps` is too short to place the windows (< 80).
pub fn fault_catalog(total_steps: u64) -> Vec<ScenarioSpec> {
    assert!(total_steps >= 80, "need at least 80 corrections");
    let onset = total_steps / 4;
    let span = total_steps / 5;
    let end = onset + span;
    let blackout_len = (total_steps / 16).max(8);
    let mid = total_steps / 2;
    let budget = (total_steps / 4).clamp(40, 160);

    // Phantom obstacle: a 0.8 m box squarely on the raceline, far enough
    // around the lap that the car passes it mid-window.
    let track = test_track();
    let p = track.raceline.point_at(0.3 * track.raceline.total_length());
    let region = MapRegion {
        x0: p.x - 0.4,
        y0: p.y - 0.4,
        x1: p.x + 0.4,
        y1: p.y + 0.4,
    };

    let scenario = |name: &str,
                    b: raceloc_faults::FaultScheduleBuilder,
                    measure_from: u64,
                    recovery_budget: Option<u64>| ScenarioSpec {
        name: name.into(),
        schedule: b
            .seed(SCHEDULE_SEED)
            .build()
            .expect("catalog schedules are valid"),
        measure_from,
        recovery_budget,
    };
    let faults = FaultSchedule::builder;
    vec![
        scenario("nominal", faults(), 0, None),
        // Sun glare / dust cloud: the sensor sees nothing for a while.
        scenario(
            "lidar_blackout",
            faults().lidar_blackout(onset, onset + blackout_len),
            onset + blackout_len,
            Some(budget),
        ),
        // Rain / reflective surfaces: most beams return nothing.
        scenario(
            "beam_dropout",
            faults().beam_dropout(onset, end, 0.75),
            end,
            None,
        ),
        // Miscalibrated sensor swap: constant additive range offset.
        scenario(
            "range_bias",
            faults().range_bias(onset, end, 0.30),
            end,
            None,
        ),
        // Wrong beam-divergence compensation: multiplicative error.
        scenario(
            "range_scale",
            faults().range_scale(onset, end, 1.06),
            end,
            None,
        ),
        // Wheelspin burst: encoders over-count by 80%.
        scenario("odom_slip", faults().odom_slip(onset, end, 1.8), end, None),
        // Encoder cable failure: speed + steering feedback freeze.
        scenario(
            "stuck_encoder",
            faults().stuck_encoder(onset, onset + span / 2),
            onset + span / 2,
            None,
        ),
        // Transport congestion: scans arrive 8 corrections (200 ms) late —
        // past the stale-rejection threshold.
        scenario(
            "latency",
            faults().latency(onset, onset + span / 2, 8),
            onset + span / 2,
            None,
        ),
        // Kidnap-grade collision: the car is suddenly 6 m down-track.
        scenario(
            "pose_kidnap",
            faults().pose_kidnap(mid, 6.0),
            mid,
            Some(budget),
        ),
        // Unmapped obstacle: scans hit geometry the map does not have.
        scenario(
            "map_corruption",
            faults().map_corruption(onset, end, region),
            end,
            None,
        ),
    ]
}

/// The compute-pressure axis for a run of `total_steps` corrections: a
/// fault-free control, a window that halves the deadline budget (the
/// graceful-degradation case) and a near-total cliff at 2% of it (the
/// bounded-coast case). Sensors stay untouched, so accuracy shifts are
/// pure budget effects. The windows close well before the run ends, so
/// every capped cell also exercises the climb back to its steady rung.
///
/// # Panics
///
/// Panics when `total_steps` is too short to place the windows (< 80).
pub fn pressure_scenarios(total_steps: u64) -> Vec<ScenarioSpec> {
    assert!(total_steps >= 80, "need at least 80 corrections");
    let onset = total_steps / 4;
    let end = onset + total_steps / 5;
    let scenario =
        |name: &str, b: raceloc_faults::FaultScheduleBuilder, measure_from| ScenarioSpec {
            name: name.into(),
            schedule: b
                .seed(SCHEDULE_SEED)
                .build()
                .expect("pressure schedules are valid"),
            measure_from,
            recovery_budget: None,
        };
    let faults = FaultSchedule::builder;
    vec![
        scenario(NOMINAL_SCENARIO, faults(), 0),
        scenario(
            HALF_SCENARIO,
            faults().compute_pressure(onset, end, 0.5),
            end,
        ),
        scenario(
            CLIFF_SCENARIO,
            faults().compute_pressure(onset, end, 0.02),
            end,
        ),
    ]
}
