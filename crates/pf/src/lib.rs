#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! **SynPF** — the Monte-Carlo localization algorithm for high-speed
//! autonomous racing introduced by *"Robustness Evaluation of Localization
//! Techniques for Autonomous Racing"* (DATE 2024).
//!
//! SynPF synthesizes prior particle-filtering work for the racing domain:
//!
//! - the **TUM high-speed motion model** ([`TumMotionModel`]) whose heading
//!   dispersion shrinks with speed, against the textbook
//!   [`DiffDriveModel`] baseline (the paper's Fig. 1);
//! - the **boxed LiDAR scanline layout** ([`ScanLayout::Boxed`]) that
//!   concentrates the beam budget down-track (paper §II);
//! - a **discretized beam sensor model** ([`BeamSensorModel`]) evaluated
//!   over `rangelibc`-style accelerated range queries (the `raceloc-range`
//!   crate), giving the ~1 ms CPU-only sensor update the paper reports;
//! - **low-variance resampling** gated on the effective sample size
//!   ([`resample`]).
//!
//! The filter ([`SynPf`]) implements
//! [`raceloc_core::localizer::Localizer`], so it plugs directly into the
//! `raceloc-sim` closed loop used to regenerate the paper's Table I.
//!
//! # Examples
//!
//! ```
//! use raceloc_map::{TrackShape, TrackSpec};
//! use raceloc_pf::{SynPf, SynPfConfig};
//! use raceloc_range::RangeLut;
//! use raceloc_core::localizer::Localizer;
//!
//! // Paper configuration: LUT range queries on a CPU.
//! let track = TrackSpec::new(TrackShape::Oval { width: 10.0, height: 6.0 })
//!     .resolution(0.15)
//!     .build();
//! let lut = RangeLut::new(&track.grid, 10.0, 60);
//! let config = SynPfConfig::builder().particles(300).build().expect("valid config");
//! let mut pf = SynPf::new(lut, config);
//! pf.reset(track.start_pose());
//! assert_eq!(pf.name(), "synpf");
//! ```

pub mod config;
pub mod filter;
pub mod health;
pub mod kld;
pub mod layout;
pub mod motion;
mod parstep;
pub mod resample;
pub mod sensor;
pub mod store;

pub use config::{ConfigError, RecoveryConfigBuilder, SynPfConfigBuilder};
pub use filter::{MotionConfig, RecoveryConfig, SynPf, SynPfConfig};
pub use health::HealthPolicy;
pub use kld::KldConfig;
pub use layout::ScanLayout;
pub use motion::{CloudDispersion, DiffDriveModel, MotionModel, TumMotionModel};
pub use sensor::{BeamModelConfig, BeamSensorModel};
pub use store::ParticleStore;
