#![deny(missing_docs)]

//! **raceloc** — robust localization for autonomous racing.
//!
//! A from-scratch Rust reproduction of *"Robustness Evaluation of
//! Localization Techniques for Autonomous Racing"* (DATE 2024): the SynPF
//! Monte-Carlo localizer, a Cartographer-style pose-graph SLAM baseline,
//! a `rangelibc`-style ray-casting library, and an F1TENTH-scale vehicle /
//! sensor simulator that closes the loop between localization quality and
//! racing performance.
//!
//! This crate is a facade: everything lives in the workspace sub-crates and
//! is re-exported here under one roof.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `raceloc-core` | SE(2) poses, angles, PRNG, statistics, the [`core::localizer::Localizer`] trait |
//! | [`map`] | `raceloc-map` | occupancy grids, distance transforms, PGM I/O, track generation |
//! | [`range`] | `raceloc-range` | Bresenham / ray-marching / CDDT / LUT range queries |
//! | [`par`] | `raceloc-par` | deterministic chunking + the persistent worker pool (DESIGN.md §11) |
//! | [`sim`] | `raceloc-sim` | vehicle dynamics with tire slip, sensors, pure pursuit, the closed-loop [`sim::World`] |
//! | [`pf`] | `raceloc-pf` | **SynPF** — the paper's particle filter |
//! | [`slam`] | `raceloc-slam` | Cartographer-style SLAM + pure localization baseline |
//! | [`metrics`] | `raceloc-metrics` | lap times, lateral error, scan alignment, latency, ATE/RPE |
//! | [`obs`] | `raceloc-obs` | telemetry spans/counters/histograms, JSONL run recording |
//! | [`serve`] | `raceloc-serve` | multi-session localization service over shared map artifacts (DESIGN.md §13) |
//!
//! # Quickstart
//!
//! ```
//! use raceloc::map::{TrackShape, TrackSpec};
//! use raceloc::pf::{SynPf, SynPfConfig};
//! use raceloc::range::RayMarching;
//! use raceloc::sim::{World, WorldConfig};
//! use raceloc::core::localizer::Localizer;
//!
//! // Generate a race track, build a localizer, race one simulated second.
//! let track = TrackSpec::new(TrackShape::Oval { width: 12.0, height: 7.0 })
//!     .resolution(0.1)
//!     .build();
//! let caster = RayMarching::new(&track.grid, 10.0);
//! let config = SynPfConfig::builder().particles(300).build().expect("valid config");
//! let mut pf = SynPf::new(caster, config);
//! let mut world = World::new(track, WorldConfig::default());
//! let log = world.run(&mut pf, 1.0);
//! assert!(!log.samples.is_empty());
//! ```

pub use raceloc_core as core;
pub use raceloc_map as map;
pub use raceloc_metrics as metrics;
pub use raceloc_obs as obs;
pub use raceloc_par as par;
pub use raceloc_pf as pf;
pub use raceloc_range as range;
pub use raceloc_serve as serve;
pub use raceloc_sim as sim;
pub use raceloc_slam as slam;
