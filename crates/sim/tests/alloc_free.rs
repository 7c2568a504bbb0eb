//! Steady-state allocation audit of the vehicle model (rule R9): one
//! integration step performs **zero heap allocations**, on high and on
//! low grip, while accelerating and while cornering.
//!
//! The audit uses a counting `#[global_allocator]` wrapper, so everything
//! in this binary is counted; the measured window touches only
//! [`Vehicle::step`]. A single `#[test]` keeps the global counter
//! race-free.

use alloc_counter::CountingAlloc;
use raceloc_core::Pose2;
use raceloc_sim::{DriveCommand, Vehicle, VehicleParams, VehicleState};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn vehicle_step_allocates_nothing() {
    for params in [VehicleParams::f1tenth(), VehicleParams::f1tenth_slippery()] {
        let vehicle = Vehicle::new(params);
        let mut state = VehicleState::at_pose(Pose2::new(1.0, 2.0, 0.3));
        let before = ALLOC.total_events();
        for i in 0..2_000 {
            // Straight-line launch, then a hard left at speed.
            let steer = if i < 1_000 { 0.0 } else { 0.35 };
            state = vehicle.step(&state, &DriveCommand::new(6.0, steer), 0.001);
        }
        let events = ALLOC.total_events() - before;
        assert!(state.vx > 1.0 && state.pose.x.is_finite(), "{state:?}");
        assert_eq!(events, 0, "Vehicle::step touched the heap");
    }
}
