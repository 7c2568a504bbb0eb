#![deny(missing_docs)]
#![forbid(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

//! **Localization-as-a-service**: a multi-session engine that runs many
//! concurrent localizers — SynPF, Cartographer pure localization, dead
//! reckoning — over shared per-map artifacts and one worker pool.
//!
//! The paper's core claim is that MCL-grade localization is robust enough
//! to run as a commodity service for racing platforms; the F1TENTH survey
//! frames exactly this fleet-of-vehicles deployment. This crate is that
//! deployment shape (DESIGN.md §13):
//!
//! - **Shared artifacts** — sessions on the same track resolve one cached
//!   [`raceloc_range::MapArtifacts`] bundle (grid + EDT + a range LUT
//!   filled cell by cell on first touch) from the engine's
//!   [`raceloc_range::ArtifactStore`], keyed by a geometry-covering
//!   content hash. N sessions, one table, each cell filled once.
//! - **Session table** — [`SessionId`]-keyed slots, each with a private
//!   deterministic RNG stream (`Rng64::stream` on the session id) and
//!   per-session telemetry.
//! - **Cross-session batching** — queued [`StepRequest`]s from many small
//!   sessions are packed into dense worker-pool chunks; one session's
//!   steps are always serial, so results are bit-identical for every
//!   thread count.
//! - **Admission control** — a bounded queue sheds the *oldest* request
//!   under pressure (`serve.shed` counter): in localization, fresh data
//!   always beats stale data.
//! - **Observability** — per-session [`SessionSummary`] snapshots, an
//!   engine-wide [`ServeEngine::rollup`], and a JSONL stream from which
//!   any single session can be replayed bit-identically
//!   ([`record::parse_serve_steps`]).
//!
//! # Examples
//!
//! ```
//! use raceloc_map::{TrackShape, TrackSpec};
//! use raceloc_range::ArtifactParams;
//! use raceloc_serve::{LocalizerSpec, ServeConfig, ServeEngine};
//!
//! let track = TrackSpec::new(TrackShape::Oval { width: 10.0, height: 6.0 })
//!     .resolution(0.1)
//!     .build();
//! let mut engine = ServeEngine::new(ServeConfig::default());
//! // Ten cars on one track: a single shared artifact build.
//! for _ in 0..10 {
//!     engine
//!         .open_session(
//!             &track.grid,
//!             ArtifactParams::default(),
//!             LocalizerSpec::DeadReckoning,
//!             track.start_pose(),
//!         )
//!         .expect("capacity available");
//! }
//! assert_eq!(engine.store().builds(), 1);
//! assert_eq!(engine.store().hits(), 9);
//! ```

pub mod engine;
pub mod record;
pub mod session;

pub use engine::{ServeConfig, ServeEngine, ServeError, StepRequest, StepResult};
pub use record::{parse_serve_steps, session_records, ServeStepRecord};
pub use session::{session_seed, LocalizerSpec, SessionId, SessionSummary};
