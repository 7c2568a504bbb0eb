#![deny(missing_docs)]

//! **raceloc-obs** — the observability layer of the raceloc workspace.
//!
//! The paper's claims are about *runtime behaviour under stress*: per-stage
//! sensor-update latency on embedded hardware (Table III) and recovery
//! dynamics under wheel slip. This crate provides the measurement substrate
//! those experiments are regenerated from:
//!
//! - [`Telemetry`] — a cheap, cloneable handle carrying monotonic
//!   [span timers](Telemetry::span), [counters](Telemetry::add), and
//!   fixed-bucket latency [histograms](Histogram). A disabled handle
//!   (the default) costs one branch per call, so instrumented hot paths
//!   (`SynPf::correct`, the SLAM matchers, `World` stepping, batch ray
//!   casting) stay within the paper's latency budget. Every name it
//!   records is declared in [`names`].
//! - [`RunRecorder`] — streams one JSONL record per closed-loop correction
//!   step (ground truth, estimate, per-stage timings, filter
//!   [`Diagnostics`](raceloc_core::Diagnostics)) to any writer, so runs are
//!   machine-readable and latency tables are regenerated from recorded
//!   spans instead of ad-hoc `Instant` calls.
//! - [`Json`] — a minimal JSON value model (writer + parser) used by the
//!   recorder; kept local so the crate stays dependency-free.
//!
//! # Examples
//!
//! ```
//! use raceloc_obs::{names, Telemetry};
//!
//! let tel = Telemetry::enabled();
//! {
//!     let _outer = tel.span(names::PF_CORRECT);
//!     let _inner = tel.span(names::PF_CAST_WEIGHT);
//! } // both spans record on drop
//! tel.add(names::RANGE_QUERIES, 1);
//! let snap = tel.snapshot();
//! assert_eq!(snap.span(names::PF_CORRECT.as_str()).unwrap().count, 1);
//! assert_eq!(snap.counter(names::RANGE_QUERIES.as_str()), Some(1));
//! ```

pub mod hist;
pub mod json;
pub mod names;
pub mod recorder;
pub mod telemetry;
pub mod time;

pub use hist::Histogram;
pub use json::{Json, JsonError};
pub use names::{CounterName, SpanName};
pub use recorder::{parse_steps, RunRecorder, SharedBuffer, StepRecord};
pub use telemetry::{CounterRollup, Snapshot, Span, SpanStat, Telemetry};
pub use time::Stopwatch;
