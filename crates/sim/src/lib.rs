#![deny(missing_docs)]
#![forbid(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

//! An F1TENTH-style racing simulator: vehicle dynamics with grip-dependent
//! tire slip, slip-corrupted wheel odometry, a simulated 2-D LiDAR, a
//! pure-pursuit racing controller, and a closed-loop world scheduler.
//!
//! This crate is the substitute for the paper's physical testbed
//! (DESIGN.md §1): the phenomena under study — wheel odometry that lies when
//! tires slip — emerge from the dynamic single-track model in [`vehicle`]
//! rather than being injected as ad-hoc noise. Lowering
//! [`vehicle::VehicleParams::mu`] from ≈1.0 ("grippy", 26 N lateral pull in
//! the paper) to ≈0.73 ("slippery", 19 N taped tires) reproduces the paper's
//! high-quality → low-quality odometry knob.
//!
//! # Examples
//!
//! ```
//! use raceloc_map::{TrackShape, TrackSpec};
//! use raceloc_sim::{World, WorldConfig};
//! use raceloc_core::localizer::DeadReckoning;
//!
//! let track = TrackSpec::new(TrackShape::Oval { width: 12.0, height: 7.0 })
//!     .resolution(0.1)
//!     .build();
//! let mut world = World::new(track, WorldConfig::default());
//! let mut loc = DeadReckoning::new();
//! let log = world.run(&mut loc, 3.0); // three simulated seconds
//! assert!(!log.samples.is_empty());
//! ```

pub mod controller;
pub mod sensors;
pub mod vehicle;
pub mod world;

pub use controller::{PurePursuit, PurePursuitConfig, SpeedProfile};
pub use sensors::{Lidar, LidarSpec, WheelOdometer, WheelOdometerConfig};
pub use vehicle::{DriveCommand, Vehicle, VehicleParams, VehicleState};
pub use world::{LogSample, SimLog, World, WorldConfig};
