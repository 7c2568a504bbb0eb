#![deny(missing_docs)]

//! Occupancy-grid maps, distance transforms, and race-track generation.
//!
//! This crate provides the 2-D world representation shared by the ray-casting
//! library, the particle filter, the SLAM baseline, and the vehicle
//! simulator:
//!
//! - [`OccupancyGrid`]: a ternary (free / occupied / unknown) grid with
//!   world ↔ cell coordinate transforms.
//! - [`edt`]: an exact Euclidean distance transform (Felzenszwalb), the
//!   substrate for ray-marching range queries and scan-alignment scoring.
//! - [`path::ClosedPath`]: arc-length parameterized closed polylines used for
//!   centerlines and racelines.
//! - [`trackgen`]: procedural corridor-style race tracks (the stand-in for
//!   the paper's physical test track, see DESIGN.md §1).
//! - [`io`]: PGM import/export for interoperability with ROS-style map files.
//! - [`transform`]: exact rigid SE(2) transforms of grids and poses, the
//!   substrate for metamorphic equivariance tests.
//!
//! # Examples
//!
//! ```
//! use raceloc_map::trackgen::{TrackSpec, TrackShape};
//!
//! let track = TrackSpec::new(TrackShape::RoundedRectangle {
//!     width: 14.0,
//!     height: 8.0,
//!     corner_radius: 2.5,
//! })
//! .build();
//! assert!(track.centerline.total_length() > 30.0);
//! assert!(track.grid.cell_count() > 0);
//! ```

pub mod edt;
pub mod grid;
pub mod io;
pub mod path;
pub mod trackgen;
pub mod transform;

pub use edt::DistanceMap;
pub use grid::{CellState, GridIndex, OccupancyGrid};
pub use path::ClosedPath;
pub use trackgen::{Track, TrackShape, TrackSpec};
