#![deny(missing_docs)]

//! Core primitives shared by every crate in the `raceloc` workspace.
//!
//! This crate is dependency-free and provides:
//!
//! - [`Pose2`], [`Point2`], [`Twist2`]: the SE(2) types used by the vehicle
//!   simulator, the particle filter, and the pose-graph optimizer.
//! - [`angle`]: angle normalization and circular statistics.
//! - [`rng::Rng64`]: a deterministic, seedable xoshiro256** generator with
//!   Gaussian sampling, so every experiment in the workspace is
//!   bit-reproducible.
//! - [`stats`]: streaming mean/variance accumulators and summaries used by
//!   the evaluation harness.
//! - [`linalg`]: the small dense linear-algebra kernel (fixed 2/3-dim types
//!   plus a dense matrix with Cholesky factorization) backing the SLAM
//!   pose-graph optimizer.
//!
//! # Examples
//!
//! ```
//! use raceloc_core::Pose2;
//!
//! let world_from_base = Pose2::new(1.0, 2.0, std::f64::consts::FRAC_PI_2);
//! let base_from_lidar = Pose2::new(0.3, 0.0, 0.0);
//! let world_from_lidar = world_from_base * base_from_lidar;
//! assert!((world_from_lidar.x - 1.0).abs() < 1e-12);
//! assert!((world_from_lidar.y - 2.3).abs() < 1e-12);
//! ```

pub mod angle;
pub mod deadline;
pub mod diagnostics;
pub mod health;
pub mod invariant;
pub mod linalg;
pub mod localizer;
pub mod pose;
pub mod rng;
pub mod sensor_data;
pub mod stats;
pub mod stream_keys;

pub use deadline::{CostModel, DeadlineConfig, DeadlineController, RangeTier, StepPlan};
pub use diagnostics::Diagnostics;
pub use health::{Health, HealthConfig, HealthMonitor, HealthSignal};
pub use localizer::Localizer;
pub use pose::{Point2, Pose2, Twist2};
pub use rng::Rng64;
pub use sensor_data::{LaserScan, Odometry};
pub use stats::{RunningStats, Summary};
