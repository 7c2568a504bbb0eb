#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! A Cartographer-style 2-D LiDAR SLAM system — the state-of-the-art
//! pose-graph baseline the paper benchmarks SynPF against.
//!
//! Reimplements the published algorithm (Hess et al., *"Real-Time Loop
//! Closure in 2D LIDAR SLAM"*, ICRA 2016) from scratch:
//!
//! - [`ProbabilityGrid`]: odds-updated occupancy submap representation;
//! - [`CorrelativeScanMatcher`] + [`GaussNewtonRefiner`]: the real-time
//!   local matcher (exhaustive window search, then sub-cell polish);
//! - [`Submap`] / [`SubmapCollection`]: overlapping submap lifecycle;
//! - [`PoseGraph`]: sparse-pose-adjustment back-end (damped Gauss–Newton,
//!   Huber loss, analytic SE(2) Jacobians);
//! - [`BranchAndBoundMatcher`]: the loop-closure search over precomputed
//!   max-pool grids;
//! - [`CartoSlam`]: the online mapping pipeline tying it all together;
//! - [`CartoLocalizer`]: the pure-localization mode used in the paper's
//!   Table I — scan-to-known-map matching seeded by wheel odometry, which
//!   is exactly the configuration that degrades under wheel slip.
//!
//! # Examples
//!
//! ```
//! use raceloc_map::{TrackShape, TrackSpec};
//! use raceloc_range::{ArtifactParams, MapArtifacts};
//! use raceloc_slam::{CartoLocalizer, CartoLocalizerConfig};
//! use raceloc_core::localizer::Localizer;
//!
//! let track = TrackSpec::new(TrackShape::Oval { width: 10.0, height: 6.0 })
//!     .resolution(0.1)
//!     .build();
//! let artifacts = MapArtifacts::build(&track.grid, ArtifactParams::default());
//! let mut localizer = CartoLocalizer::from_artifacts(&artifacts, CartoLocalizerConfig::default());
//! localizer.reset(track.start_pose());
//! ```

pub mod localization;
pub mod loop_closure;
pub mod pose_graph;
pub mod probgrid;
pub mod scan_matcher;
pub mod slam;
pub mod submap;

pub use localization::{CartoLocalizer, CartoLocalizerConfig, SlamHealthPolicy};
pub use loop_closure::{BranchAndBoundConfig, BranchAndBoundMatcher};
pub use pose_graph::{Constraint, OptimizeReport, PoseGraph};
pub use probgrid::ProbabilityGrid;
pub use scan_matcher::{CorrelativeScanMatcher, GaussNewtonRefiner, MatchResult, SearchWindow};
pub use slam::{CartoSlam, CartoSlamConfig};
pub use submap::{Submap, SubmapCollection};
