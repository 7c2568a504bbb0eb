#![deny(missing_docs)]

//! Evaluation metrics for racing localization — the proxy measurements of
//! the paper's Table I plus standard trajectory-error metrics.
//!
//! - [`lap::lap_times`]: lap-time extraction from a pose trace;
//! - [`error`]: lateral deviation from the raceline and estimation error;
//! - [`alignment::ScanAlignmentScorer`]: the scan-alignment percentage
//!   ("overlap of scan endpoints with the track boundary");
//! - [`latency`]: compute-time summaries and the CPU-load proxy;
//! - [`trajectory`]: absolute/relative trajectory error (ATE / RPE) for
//!   SLAM evaluation;
//! - [`map_quality`]: wall precision/recall/F1 and free-space IoU of a
//!   SLAM-built map against ground truth;
//! - [`interval`]: Wilson binomial confidence intervals for Monte-Carlo
//!   success rates (fleet evaluation).

pub mod alignment;
pub mod error;
pub mod interval;
pub mod lap;
pub mod latency;
pub mod map_quality;
pub mod trajectory;

pub use alignment::ScanAlignmentScorer;
pub use interval::{wilson95, wilson_interval, RateInterval};
pub use lap::lap_times;
pub use map_quality::{compare_maps, MapQuality};
