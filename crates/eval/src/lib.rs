#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! **raceloc-eval** — deterministic Monte-Carlo fleet evaluation.
//!
//! The paper's robustness claims are statistical: each localizer ×
//! surface-quality × fault combination is judged over repeated runs, not
//! one trajectory. This crate turns that study into a declarative,
//! reproducible batch:
//!
//! - [`FleetSpec`] names the axes — maps × grip levels × fault scenarios
//!   × compute budgets × localizers × seed replicates — as plain data
//!   with a lossless JSON round-trip;
//! - [`run_fleet`] expands the spec into runs, fans them over a
//!   [`raceloc_par::WorkerPool`] (one simulated trajectory per job,
//!   stepping every budget × localizer that shares it in lockstep —
//!   [`execute_group`]; inner parallelism pinned to 1), scatters
//!   outcomes back by job tag, and folds them **in canonical run
//!   order**;
//! - [`FleetReport`] carries per-cell statistics — mean/p95 RMSE and
//!   lateral error, recovery-step distributions, success rates with
//!   Wilson 95% intervals — plus a fleet-wide telemetry counter rollup;
//! - [`ordering_violations`] encodes the paper's qualitative findings
//!   (SynPF degrades gracefully under odometry slip where Cartographer
//!   diverges; dead reckoning is the nominal-scenario worst case) as CI
//!   gates, [`recovery_violations`] holds SynPF to each scenario's
//!   recovery budget over every replicate, and [`ladder_violations`]
//!   holds capped cells to the deadline ladder's contract.
//!
//! Every world seed is a pure function of `(master_seed, map, grip,
//! scenario, replicate)` — the localizer is deliberately excluded so all
//! methods of a cell face bit-identical noise — and no report field
//! depends on wall clock, thread count, or job-completion order: the
//! serialized report is byte-identical for any pool width (rule R3).
//!
//! # Examples
//!
//! ```
//! use raceloc_eval::{run_fleet, EvalMethod, FleetSpec, GripSpec, MapSpec, ScenarioSpec};
//! use raceloc_faults::FaultSchedule;
//!
//! let spec = FleetSpec {
//!     name: "doc".into(),
//!     master_seed: 1,
//!     replicates: 1,
//!     duration_s: 1.0,
//!     particles: 60,
//!     beams: 61,
//!     success_lat_cm: 200.0,
//!     maps: vec![MapSpec {
//!         name: "m0".into(),
//!         fourier_seed: 33,
//!         half_width: 1.25,
//!         mean_radius: 6.0,
//!     }],
//!     grips: vec![GripSpec { name: "HQ".into(), mu: 1.0 }],
//!     scenarios: vec![ScenarioSpec {
//!         name: "nominal".into(),
//!         schedule: FaultSchedule::builder().build().unwrap(),
//!         measure_from: 0,
//!         recovery_budget: None,
//!     }],
//!     budgets: vec![0],
//!     methods: vec![EvalMethod::DeadReckoning],
//! };
//! let report = run_fleet(&spec, 1).unwrap();
//! assert_eq!(report.total_runs, 1);
//! assert_eq!(report.cells.len(), 1);
//! ```

pub mod aggregate;
pub mod cache;
pub mod diff;
pub mod gates;
pub mod runner;
pub mod spec;

pub use aggregate::{
    CellAggregator, CellSummary, FleetReport, LadderStats, ReportBuilder, ReportError,
    ERROR_BOUNDS_CM,
};
pub use cache::{cell_hash, code_fingerprint, CellCache, Fnv64, RESULT_REVISION};
pub use diff::{diff_reports, ReportDiff};
pub use gates::{
    ladder_violations, ordering_violations, recovery_violations, CLIFF_SCENARIO, HALF_SCENARIO,
    NOMINAL_SCENARIO, SLIP_SCENARIO,
};
pub use runner::{
    execute_group, execute_run, run_fleet, run_fleet_with, FleetCtx, FleetError, FleetRunOptions,
    FleetRunStats, MapResources, RunOutcome,
};
pub use spec::{
    CellKey, EvalMethod, FleetSpec, GripSpec, MapSpec, RunDesc, ScenarioSpec, SpecError,
};
