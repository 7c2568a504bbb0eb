//! Streaming aggregation of run outcomes into per-cell statistics and the
//! fleet report.
//!
//! Aggregation is **constant-memory in the replicate count**: a cell's
//! accumulator holds sums, maxima, counts, and fixed-ladder histograms
//! ([`ERROR_BOUNDS_CM`]) — never the outcome rows themselves — so the
//! replicate axis can grow to the roadmap's 100k-run fleets without the
//! aggregator growing with it. The p95 columns are therefore histogram
//! *upper bounds* (within one preferred-number rung, ~25%, of the exact
//! quantile), which buys a second property the resumable engine needs:
//! every statistic is **fold-order-independent across cells** (per-cell
//! state is independent; the fleet-wide counter rollup is a commutative
//! `u64` sum), and within a cell outcomes fold in replicate order. A
//! report assembled from any mix of cached and freshly executed cells
//! is byte-identical to a from-scratch run — rule R3
//! extended to provenance (`tests/resume_equivalence.rs`).

use raceloc_core::deadline::LADDER_LEN;
use raceloc_metrics::wilson95;
use raceloc_obs::{CounterRollup, Histogram, Json};

use crate::cache::intern_counter;
use crate::runner::RunOutcome;
use crate::spec::{FleetSpec, RunDesc};

/// The fixed error ladder \[cm\] behind the report's p95 columns: the R10
/// preferred-number series (1, 1.25, 1.6, 2, 2.5, 3.15, 4, 5, 6.3, 8 per
/// decade) from 0.01 cm to 1 km, mirroring the latency ladder's shape
/// (`raceloc_obs::LATENCY_BOUNDS_S`). Ten buckets per decade keep the
/// histogram quantile upper bound within ~25% of the exact value
/// anywhere on the ladder; errors past 10⁵ cm land in overflow and the
/// aggregator falls back to the cell's exact maximum.
pub const ERROR_BOUNDS_CM: [f64; 71] = [
    1e-2, 1.25e-2, 1.6e-2, 2e-2, 2.5e-2, 3.15e-2, 4e-2, 5e-2, 6.3e-2, 8e-2, //
    1e-1, 1.25e-1, 1.6e-1, 2e-1, 2.5e-1, 3.15e-1, 4e-1, 5e-1, 6.3e-1, 8e-1, //
    1.0, 1.25, 1.6, 2.0, 2.5, 3.15, 4.0, 5.0, 6.3, 8.0, //
    1e1, 1.25e1, 1.6e1, 2e1, 2.5e1, 3.15e1, 4e1, 5e1, 6.3e1, 8e1, //
    1e2, 1.25e2, 1.6e2, 2e2, 2.5e2, 3.15e2, 4e2, 5e2, 6.3e2, 8e2, //
    1e3, 1.25e3, 1.6e3, 2e3, 2.5e3, 3.15e3, 4e3, 5e3, 6.3e3, 8e3, //
    1e4, 1.25e4, 1.6e4, 2e4, 2.5e4, 3.15e4, 4e4, 5e4, 6.3e4, 8e4, //
    1e5,
];

/// Accumulates the outcomes of one cell's replicates in constant memory.
#[derive(Debug, Clone)]
pub struct CellAggregator {
    folded: u64,
    rmse_sum: f64,
    rmse_max: f64,
    rmse_hist: Histogram,
    lat_sum: f64,
    lat_max: f64,
    lat_hist: Histogram,
    rec_sum: u64,
    rec_count: u64,
    rec_max: u64,
    steps: u64,
    runs: u64,
    successes: u64,
    crashes: u64,
    nonfinite: u64,
    unrecovered: u64,
    missing: u64,
    ladder: LadderStats,
    /// Whether any folded run booked `deadline.final_rung`, i.e. ran a
    /// deadline controller.
    controlled: bool,
}

impl Default for CellAggregator {
    fn default() -> Self {
        Self::new()
    }
}

impl CellAggregator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self {
            folded: 0,
            rmse_sum: 0.0,
            rmse_max: 0.0,
            rmse_hist: Histogram::with_bounds(ERROR_BOUNDS_CM.to_vec()),
            lat_sum: 0.0,
            lat_max: 0.0,
            lat_hist: Histogram::with_bounds(ERROR_BOUNDS_CM.to_vec()),
            rec_sum: 0,
            rec_count: 0,
            rec_max: 0,
            steps: 0,
            runs: 0,
            successes: 0,
            crashes: 0,
            nonfinite: 0,
            unrecovered: 0,
            missing: 0,
            ladder: LadderStats::default(),
            controlled: false,
        }
    }

    /// Folds one replicate's outcome in. Within a cell, outcomes must be
    /// folded in replicate order (floating-point sums are order-
    /// sensitive); across cells, fold order is free.
    pub fn push(&mut self, out: &RunOutcome) {
        self.runs += 1;
        self.folded += 1;
        self.steps += out.steps as u64;
        self.rmse_sum += out.rmse_cm;
        self.rmse_max = self.rmse_max.max(out.rmse_cm);
        self.rmse_hist.record(out.rmse_cm);
        self.lat_sum += out.mean_lat_err_cm;
        self.lat_max = self.lat_max.max(out.mean_lat_err_cm);
        self.lat_hist.record(out.mean_lat_err_cm);
        if out.success {
            self.successes += 1;
        }
        if out.crashed {
            self.crashes += 1;
        }
        if !out.finite {
            self.nonfinite += 1;
        }
        match out.recovery_steps {
            Some(steps) => {
                self.rec_sum += steps;
                self.rec_count += 1;
                self.rec_max = self.rec_max.max(steps);
            }
            None => self.unrecovered += 1,
        }
        // The deadline counters of a capped SynPF run (DESIGN.md §14):
        // the filter books misses, coasts and rung occupancy, the runner
        // books `deadline.final_rung`. A run without a controller books
        // none of them.
        for &(name, v) in &out.counters {
            let ladder = &mut self.ladder;
            match name {
                "deadline.miss" => ladder.misses += v,
                "deadline.coast_steps" => ladder.coast_steps += v,
                "deadline.final_rung" => {
                    self.controlled = true;
                    if let Some(slot) = ladder.final_rungs.get_mut(v as usize) {
                        *slot += 1;
                    }
                }
                _ => {
                    let rung = name
                        .strip_prefix("deadline.rung")
                        .and_then(|r| r.parse().ok());
                    if let Some(slot) = rung.and_then(|r: usize| ladder.rung_occupancy.get_mut(r)) {
                        *slot += v;
                    }
                }
            }
        }
    }

    /// Records a replicate whose outcome never arrived (a skipped or
    /// failed job); counts as a non-finite failure so it can never
    /// silently inflate a success rate.
    pub fn push_missing(&mut self) {
        self.runs += 1;
        self.missing += 1;
        self.nonfinite += 1;
    }

    /// The p95 column of one histogram: the ladder upper bound, the exact
    /// maximum when the quantile lands in overflow (> 1 km), 0 when the
    /// cell folded no outcomes at all.
    fn p95(hist: &Histogram, max: f64) -> f64 {
        if hist.total() == 0 {
            return 0.0;
        }
        hist.quantile_upper_bound(0.95).unwrap_or(max)
    }

    /// Reduces the accumulated replicates to the cell's summary row.
    pub fn summarize(
        &self,
        map: &str,
        grip: &str,
        scenario: &str,
        budget: u64,
        method: &str,
    ) -> CellSummary {
        let iv = wilson95(self.successes, self.runs);
        let mean = |sum: f64, n: u64| if n == 0 { 0.0 } else { sum / n as f64 };
        CellSummary {
            map: map.to_string(),
            grip: grip.to_string(),
            scenario: scenario.to_string(),
            budget,
            method: method.to_string(),
            runs: self.runs,
            steps: self.steps,
            successes: self.successes,
            success_rate: iv.rate,
            success_lo: iv.lo,
            success_hi: iv.hi,
            mean_rmse_cm: mean(self.rmse_sum, self.folded),
            p95_rmse_cm: Self::p95(&self.rmse_hist, self.rmse_max),
            max_rmse_cm: self.rmse_max,
            mean_lat_err_cm: mean(self.lat_sum, self.folded),
            p95_lat_err_cm: Self::p95(&self.lat_hist, self.lat_max),
            recovered: self.rec_count,
            unrecovered: self.unrecovered,
            mean_recovery_steps: mean(self.rec_sum as f64, self.rec_count),
            max_recovery_steps: self.rec_max,
            crashes: self.crashes,
            nonfinite: self.nonfinite,
            missing: self.missing,
            ladder: self.controlled.then(|| self.ladder.clone()),
        }
    }
}

/// The deadline-ladder statistics of one cell whose runs carried a
/// deadline controller (a capped SynPF cell), summed over its replicates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LadderStats {
    /// Deadline misses booked by the controller.
    pub misses: u64,
    /// Corrections shed entirely (bottom-rung coasts).
    pub coast_steps: u64,
    /// Corrections planned at each ladder rung.
    pub rung_occupancy: [u64; LADDER_LEN],
    /// Replicates whose run ended on each rung.
    pub final_rungs: [u64; LADDER_LEN],
}

impl LadderStats {
    fn to_json(&self) -> Json {
        let counts = |v: &[u64]| Json::Arr(v.iter().map(|&c| Json::num(c as f64)).collect());
        Json::Obj(vec![
            ("misses".into(), Json::num(self.misses as f64)),
            ("coast_steps".into(), Json::num(self.coast_steps as f64)),
            ("rung_occupancy".into(), counts(&self.rung_occupancy)),
            ("final_rungs".into(), counts(&self.final_rungs)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, ReportError> {
        let counts = |key: &str| -> Result<[u64; LADDER_LEN], ReportError> {
            let err = || ReportError::new(format!("ladder {key:?} must list {LADDER_LEN} counts"));
            let arr = doc.get(key).and_then(Json::as_array).ok_or_else(err)?;
            if arr.len() != LADDER_LEN {
                return Err(err());
            }
            let mut out = [0; LADDER_LEN];
            for (slot, v) in out.iter_mut().zip(arr) {
                *slot = v.as_u64().ok_or_else(err)?;
            }
            Ok(out)
        };
        Ok(Self {
            misses: row_u64(doc, "misses")?,
            coast_steps: row_u64(doc, "coast_steps")?,
            rung_occupancy: counts("rung_occupancy")?,
            final_rungs: counts("final_rungs")?,
        })
    }
}

/// A report parse failure ([`FleetReport::from_json`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportError {
    message: String,
}

impl ReportError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fleet report error: {}", self.message)
    }
}

impl std::error::Error for ReportError {}

/// One aggregated row of the fleet report: the statistics of every
/// replicate of one `(map, grip, scenario, budget, method)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSummary {
    /// Map label.
    pub map: String,
    /// Grip label.
    pub grip: String,
    /// Scenario label.
    pub scenario: String,
    /// Per-step compute budget \[work units\]; `0` = uncapped.
    pub budget: u64,
    /// Localizer label.
    pub method: String,
    /// Replicates folded into the row.
    pub runs: u64,
    /// Total scan corrections across the replicates.
    pub steps: u64,
    /// Replicates that stayed finite, crash-free, and within the RMSE
    /// success threshold.
    pub successes: u64,
    /// `successes / runs`.
    pub success_rate: f64,
    /// Wilson 95% lower bound on the true success rate.
    pub success_lo: f64,
    /// Wilson 95% upper bound on the true success rate.
    pub success_hi: f64,
    /// Mean of the per-replicate translation RMSE \[cm\].
    pub mean_rmse_cm: f64,
    /// 95th percentile of the per-replicate RMSE \[cm\] — a ladder upper
    /// bound on the [`ERROR_BOUNDS_CM`] histogram (within one rung of the
    /// exact quantile).
    pub p95_rmse_cm: f64,
    /// Worst per-replicate RMSE \[cm\] (exact).
    pub max_rmse_cm: f64,
    /// Mean of the per-replicate lateral estimation error \[cm\].
    pub mean_lat_err_cm: f64,
    /// 95th percentile of the per-replicate lateral error \[cm\] (ladder
    /// upper bound, like `p95_rmse_cm`).
    pub p95_lat_err_cm: f64,
    /// Replicates whose health settled back at Nominal.
    pub recovered: u64,
    /// Replicates that ended still non-Nominal.
    pub unrecovered: u64,
    /// Mean recovery latency over the recovered replicates \[corrections\].
    pub mean_recovery_steps: f64,
    /// Worst recovery latency \[corrections\].
    pub max_recovery_steps: u64,
    /// Replicates whose ground-truth run crashed.
    pub crashes: u64,
    /// Replicates with a non-finite pose estimate (includes `missing`).
    pub nonfinite: u64,
    /// Replicates whose outcome never arrived from the pool.
    pub missing: u64,
    /// Deadline-ladder statistics; `None` when no run of the cell had a
    /// deadline controller (every uncapped cell, every non-SynPF cell).
    pub ladder: Option<LadderStats>,
}

impl CellSummary {
    /// Serializes the row (stable key order).
    pub fn to_json(&self) -> Json {
        let mut row = vec![
            ("map".into(), Json::Str(self.map.clone())),
            ("grip".into(), Json::Str(self.grip.clone())),
            ("scenario".into(), Json::Str(self.scenario.clone())),
            ("budget".into(), Json::num(self.budget as f64)),
            ("method".into(), Json::Str(self.method.clone())),
            ("runs".into(), Json::num(self.runs as f64)),
            ("steps".into(), Json::num(self.steps as f64)),
            ("successes".into(), Json::num(self.successes as f64)),
            ("success_rate".into(), Json::num(self.success_rate)),
            ("success_lo".into(), Json::num(self.success_lo)),
            ("success_hi".into(), Json::num(self.success_hi)),
            ("mean_rmse_cm".into(), Json::num(self.mean_rmse_cm)),
            ("p95_rmse_cm".into(), Json::num(self.p95_rmse_cm)),
            ("max_rmse_cm".into(), Json::num(self.max_rmse_cm)),
            ("mean_lat_err_cm".into(), Json::num(self.mean_lat_err_cm)),
            ("p95_lat_err_cm".into(), Json::num(self.p95_lat_err_cm)),
            ("recovered".into(), Json::num(self.recovered as f64)),
            ("unrecovered".into(), Json::num(self.unrecovered as f64)),
            (
                "mean_recovery_steps".into(),
                Json::num(self.mean_recovery_steps),
            ),
            (
                "max_recovery_steps".into(),
                Json::num(self.max_recovery_steps as f64),
            ),
            ("crashes".into(), Json::num(self.crashes as f64)),
            ("nonfinite".into(), Json::num(self.nonfinite as f64)),
            ("missing".into(), Json::num(self.missing as f64)),
        ];
        // Absent, not null, when uncapped: reports without a budget sweep
        // keep their bytes.
        if let Some(ladder) = &self.ladder {
            row.push(("ladder".into(), ladder.to_json()));
        }
        Json::Obj(row)
    }

    /// Parses a row serialized by [`CellSummary::to_json`]. Float fields
    /// that serialized as `null` (non-finite aggregates) come back as
    /// NaN.
    pub fn from_json(doc: &Json) -> Result<Self, ReportError> {
        Ok(Self {
            map: row_str(doc, "map")?,
            grip: row_str(doc, "grip")?,
            scenario: row_str(doc, "scenario")?,
            budget: row_u64(doc, "budget")?,
            method: row_str(doc, "method")?,
            runs: row_u64(doc, "runs")?,
            steps: row_u64(doc, "steps")?,
            successes: row_u64(doc, "successes")?,
            success_rate: row_f64(doc, "success_rate"),
            success_lo: row_f64(doc, "success_lo"),
            success_hi: row_f64(doc, "success_hi"),
            mean_rmse_cm: row_f64(doc, "mean_rmse_cm"),
            p95_rmse_cm: row_f64(doc, "p95_rmse_cm"),
            max_rmse_cm: row_f64(doc, "max_rmse_cm"),
            mean_lat_err_cm: row_f64(doc, "mean_lat_err_cm"),
            p95_lat_err_cm: row_f64(doc, "p95_lat_err_cm"),
            recovered: row_u64(doc, "recovered")?,
            unrecovered: row_u64(doc, "unrecovered")?,
            mean_recovery_steps: row_f64(doc, "mean_recovery_steps"),
            max_recovery_steps: row_u64(doc, "max_recovery_steps")?,
            crashes: row_u64(doc, "crashes")?,
            nonfinite: row_u64(doc, "nonfinite")?,
            missing: row_u64(doc, "missing")?,
            ladder: doc.get("ladder").map(LadderStats::from_json).transpose()?,
        })
    }
}

fn row_str(doc: &Json, key: &str) -> Result<String, ReportError> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| ReportError::new(format!("cell row is missing string field {key:?}")))
}

fn row_u64(doc: &Json, key: &str) -> Result<u64, ReportError> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| ReportError::new(format!("cell row is missing integer field {key:?}")))
}

fn row_f64(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// Folds cell outcomes — in any cell order, from any provenance — into a
/// [`FleetReport`]. One builder per report: seed it with the spec, call
/// [`ReportBuilder::fold_cell`] once per cell, and [`ReportBuilder::finish`]
/// to summarize in canonical cell order.
#[derive(Debug)]
pub struct ReportBuilder {
    spec: FleetSpec,
    aggs: Vec<CellAggregator>,
    counters: CounterRollup,
    total_runs: u64,
}

impl ReportBuilder {
    /// A builder with one empty accumulator per spec cell.
    pub fn new(spec: &FleetSpec) -> Self {
        let cells = spec.cells().len();
        Self {
            spec: spec.clone(),
            aggs: (0..cells).map(|_| CellAggregator::new()).collect(),
            counters: CounterRollup::new(),
            total_runs: 0,
        }
    }

    /// Folds one cell's replicate outcomes (in replicate order; `None` is
    /// a missing replicate). Out-of-range cell indices and surplus
    /// outcomes are ignored; short slices leave the remaining replicates
    /// missing. Calling this twice for one cell double-counts — the
    /// engine guarantees exactly one fold per cell.
    pub fn fold_cell(&mut self, cell: usize, outcomes: &[Option<RunOutcome>]) {
        let replicates = self.spec.replicates as usize;
        let Some(agg) = self.aggs.get_mut(cell) else {
            return;
        };
        for slot in 0..replicates {
            self.total_runs += 1;
            match outcomes.get(slot).and_then(|o| o.as_ref()) {
                Some(out) => {
                    agg.push(out);
                    self.counters.absorb_counts(&out.counters);
                }
                None => agg.push_missing(),
            }
        }
    }

    /// Folds one cell whose outcomes never arrived at all.
    pub fn fold_missing_cell(&mut self, cell: usize) {
        self.fold_cell(cell, &[]);
    }

    /// Summarizes every accumulator in canonical cell order.
    pub fn finish(self) -> FleetReport {
        let spec = &self.spec;
        let label =
            |names: &[String], i: usize| -> String { names.get(i).cloned().unwrap_or_default() };
        let map_names: Vec<String> = spec.maps.iter().map(|m| m.name.clone()).collect();
        let grip_names: Vec<String> = spec.grips.iter().map(|g| g.name.clone()).collect();
        let scen_names: Vec<String> = spec.scenarios.iter().map(|s| s.name.clone()).collect();
        let rows = spec
            .cells()
            .iter()
            .zip(self.aggs.iter())
            .map(|(key, agg)| {
                agg.summarize(
                    &label(&map_names, key.map),
                    &label(&grip_names, key.grip),
                    &label(&scen_names, key.scenario),
                    spec.budgets.get(key.budget).copied().unwrap_or(0),
                    spec.methods.get(key.method).map(|m| m.name()).unwrap_or(""),
                )
            })
            .collect();
        FleetReport {
            name: spec.name.clone(),
            master_seed: spec.master_seed,
            replicates: spec.replicates,
            total_runs: self.total_runs,
            cells: rows,
            counters: self.counters,
        }
    }
}

/// The aggregated result of one fleet: spec echo, per-cell rows in
/// canonical cell order, and the fleet-wide telemetry counter rollup.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Fleet label (from the spec).
    pub name: String,
    /// Master seed the fleet derived every world seed from.
    pub master_seed: u64,
    /// Replicates per cell.
    pub replicates: u32,
    /// Total runs folded into the report.
    pub total_runs: u64,
    /// Per-cell rows, in [`FleetSpec::cells`] order.
    pub cells: Vec<CellSummary>,
    /// Telemetry counters summed over every run (event counts only).
    pub counters: CounterRollup,
}

impl FleetReport {
    /// Folds scattered-back outcomes into the report. `outcomes` must be
    /// indexed by run index ([`RunDesc::index`]); a `None` entry counts as
    /// a missing, failed replicate.
    pub fn from_outcomes(
        spec: &FleetSpec,
        runs: &[RunDesc],
        outcomes: Vec<Option<RunOutcome>>,
    ) -> FleetReport {
        let mut builder = ReportBuilder::new(spec);
        let replicates = spec.replicates as usize;
        let cells = spec.cells().len();
        let mut slots: Vec<Vec<Option<RunOutcome>>> = (0..cells)
            .map(|_| (0..replicates).map(|_| None).collect())
            .collect();
        let mut outcomes = outcomes;
        for desc in runs {
            if let Some(slot) = slots
                .get_mut(desc.cell)
                .and_then(|c| c.get_mut(desc.replicate as usize))
            {
                *slot = outcomes.get_mut(desc.index).and_then(|o| o.take());
            }
        }
        for (cell, cell_slots) in slots.iter().enumerate() {
            builder.fold_cell(cell, cell_slots);
        }
        builder.finish()
    }

    /// Looks a cell row up by its four labels; with more than one budget
    /// in the spec this returns the first-listed budget's row (use
    /// [`FleetReport::cells`] directly to sweep the budget axis).
    pub fn cell(
        &self,
        map: &str,
        grip: &str,
        scenario: &str,
        method: &str,
    ) -> Option<&CellSummary> {
        self.cells.iter().find(|c| {
            c.map == map && c.grip == grip && c.scenario == scenario && c.method == method
        })
    }

    /// The rows of one `(map, grip, scenario)` group, in method order.
    pub fn group<'a>(
        &'a self,
        map: &'a str,
        grip: &'a str,
        scenario: &'a str,
    ) -> impl Iterator<Item = &'a CellSummary> + 'a {
        self.cells
            .iter()
            .filter(move |c| c.map == map && c.grip == grip && c.scenario == scenario)
    }

    /// Serializes the report (stable key order; no wall-clock fields).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("master_seed".into(), Json::num(self.master_seed as f64)),
            ("replicates".into(), Json::num(self.replicates as f64)),
            ("total_runs".into(), Json::num(self.total_runs as f64)),
            (
                "cells".into(),
                Json::Arr(self.cells.iter().map(CellSummary::to_json).collect()),
            ),
            ("counters".into(), self.counters.to_json()),
        ])
    }

    /// Parses a report serialized by [`FleetReport::to_json`], or the
    /// bench artifact wrapper `{"experiment":"fleet",...,"report":{...}}`
    /// (the `report` field wins when present). Counter totals round-trip;
    /// the rollup's internal snapshot count does not (it is not
    /// serialized), so parsed reports compare to built ones through their
    /// JSON, not through `PartialEq`.
    pub fn from_json(doc: &Json) -> Result<Self, ReportError> {
        let doc = doc.get("report").unwrap_or(doc);
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| ReportError::new("missing string field \"name\""))?
            .to_string();
        let master_seed = doc
            .get("master_seed")
            .and_then(Json::as_u64)
            .ok_or_else(|| ReportError::new("missing integer field \"master_seed\""))?;
        let replicates = doc
            .get("replicates")
            .and_then(Json::as_u64)
            .ok_or_else(|| ReportError::new("missing integer field \"replicates\""))?
            as u32;
        let total_runs = doc
            .get("total_runs")
            .and_then(Json::as_u64)
            .ok_or_else(|| ReportError::new("missing integer field \"total_runs\""))?;
        let cells = doc
            .get("cells")
            .and_then(Json::as_array)
            .ok_or_else(|| ReportError::new("missing array field \"cells\""))?
            .iter()
            .map(CellSummary::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let mut counters = CounterRollup::new();
        if let Some(totals) = doc.get("counters").and_then(Json::as_object) {
            let pairs: Vec<(&'static str, u64)> = totals
                .iter()
                .filter_map(|(name, v)| v.as_u64().map(|n| (intern_counter(name), n)))
                .collect();
            if !pairs.is_empty() {
                counters.absorb_counts(&pairs);
            }
        }
        Ok(Self {
            name,
            master_seed,
            replicates,
            total_runs,
            cells,
            counters,
        })
    }

    /// Parses a report from JSON text (see [`FleetReport::from_json`]).
    pub fn from_json_str(text: &str) -> Result<Self, ReportError> {
        let doc = Json::parse(text)
            .map_err(|e| ReportError::new(format!("report is not valid JSON: {e}")))?;
        Self::from_json(&doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(index: usize, rmse: f64, success: bool) -> RunOutcome {
        RunOutcome {
            index,
            steps: 100,
            rmse_cm: rmse,
            p95_err_cm: rmse * 1.5,
            max_err_cm: rmse * 2.0,
            mean_lat_err_cm: rmse * 0.6,
            recovery_steps: Some(4),
            pct_nominal: 0.95,
            crashed: false,
            finite: true,
            success,
            counters: vec![("sim.scans", 100)],
        }
    }

    #[test]
    fn aggregator_reduces_replicates() {
        let mut agg = CellAggregator::new();
        agg.push(&outcome(0, 10.0, true));
        agg.push(&outcome(1, 20.0, true));
        agg.push(&outcome(2, 60.0, false));
        let row = agg.summarize("m", "HQ", "nominal", 0, "SynPF");
        assert_eq!(row.runs, 3);
        assert_eq!(row.successes, 2);
        assert!((row.mean_rmse_cm - 30.0).abs() < 1e-12);
        assert!((row.max_rmse_cm - 60.0).abs() < 1e-12);
        // p95 is a ladder upper bound: 60 lands in (50, 63].
        assert!(
            (row.p95_rmse_cm - 63.0).abs() < 1e-12,
            "{}",
            row.p95_rmse_cm
        );
        assert_eq!(row.recovered, 3);
        assert_eq!(row.max_recovery_steps, 4);
        assert!(row.success_lo < row.success_rate && row.success_rate < row.success_hi);
    }

    #[test]
    fn aggregation_memory_does_not_grow_with_replicates() {
        // The accumulator is a fixed-size value: folding 10 or 10 000
        // replicates leaves its footprint unchanged (no per-outcome rows).
        let mut agg = CellAggregator::new();
        let before_counts = agg.rmse_hist.counts().len();
        for i in 0..10_000 {
            agg.push(&outcome(i, (i % 97) as f64, true));
        }
        assert_eq!(agg.rmse_hist.counts().len(), before_counts);
        assert_eq!(agg.runs, 10_000);
        let row = agg.summarize("m", "HQ", "nominal", 0, "SynPF");
        assert!(row.p95_rmse_cm >= 90.0 && row.p95_rmse_cm <= 125.0);
    }

    #[test]
    fn p95_overflow_falls_back_to_exact_max() {
        let mut agg = CellAggregator::new();
        for _ in 0..20 {
            agg.push(&outcome(0, 5e6, false));
        }
        let row = agg.summarize("m", "HQ", "nominal", 0, "SynPF");
        assert_eq!(row.p95_rmse_cm, 5e6, "overflow quantile = exact max");
        assert_eq!(row.max_rmse_cm, 5e6);
    }

    #[test]
    fn missing_outcomes_count_as_failures() {
        let mut agg = CellAggregator::new();
        agg.push(&outcome(0, 10.0, true));
        agg.push_missing();
        let row = agg.summarize("m", "HQ", "nominal", 0, "SynPF");
        assert_eq!(row.runs, 2);
        assert_eq!(row.successes, 1);
        assert_eq!(row.missing, 1);
        assert_eq!(row.nonfinite, 1);
        assert!((row.success_rate - 0.5).abs() < 1e-12);
        // Missing replicates don't drag the means toward zero: the mean
        // is over folded outcomes only.
        assert!((row.mean_rmse_cm - 10.0).abs() < 1e-12);
    }

    #[test]
    fn report_json_is_stable_and_parseable() {
        let mut agg = CellAggregator::new();
        agg.push(&outcome(0, 10.0, true));
        let row = agg.summarize("m", "HQ", "nominal", 0, "SynPF");
        let report = FleetReport {
            name: "t".into(),
            master_seed: 1,
            replicates: 1,
            total_runs: 1,
            cells: vec![row],
            counters: CounterRollup::new(),
        };
        let a = format!("{}", report.to_json());
        let b = format!("{}", report.clone().to_json());
        assert_eq!(a, b);
        let doc = Json::parse(&a).expect("valid JSON");
        assert_eq!(doc.get("total_runs").and_then(Json::as_u64), Some(1));
        let cells = doc.get("cells").and_then(Json::as_array).expect("cells");
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].get("method").and_then(Json::as_str), Some("SynPF"));
        assert!(report.cell("m", "HQ", "nominal", "SynPF").is_some());
        assert!(report.cell("m", "HQ", "nominal", "Cartographer").is_none());
        assert_eq!(report.group("m", "HQ", "nominal").count(), 1);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut agg = CellAggregator::new();
        agg.push(&outcome(0, 10.0, true));
        agg.push(&outcome(1, 25.0, false));
        let row = agg.summarize("m", "HQ", "nominal", 0, "SynPF");
        let mut counters = CounterRollup::new();
        counters.absorb_counts(&[("sim.scans", 200), ("eval.runs", 2)]);
        let report = FleetReport {
            name: "t".into(),
            master_seed: 1,
            replicates: 2,
            total_runs: 2,
            cells: vec![row],
            counters,
        };
        let text = format!("{}", report.to_json());
        let back = FleetReport::from_json_str(&text).expect("parse back");
        // Value-level identity is checked through the serialization (the
        // rollup's snapshot count intentionally doesn't round-trip).
        assert_eq!(format!("{}", back.to_json()), text);
        // The bench artifact wrapper parses to the same report.
        let wrapped = format!("{{\"experiment\":\"fleet\",\"quick\":true,\"report\":{text}}}");
        let back = FleetReport::from_json_str(&wrapped).expect("parse wrapper");
        assert_eq!(format!("{}", back.to_json()), text);
        assert!(FleetReport::from_json_str("{}").is_err());
        assert!(FleetReport::from_json_str("no").is_err());
    }

    /// A capped SynPF replicate's outcome: the deadline counters the
    /// controller books, ending on rung `final_rung`.
    fn capped(index: usize, final_rung: u64) -> RunOutcome {
        let mut out = outcome(index, 10.0, true);
        out.counters = vec![
            ("deadline.coast_steps", 2),
            ("deadline.final_rung", final_rung),
            ("deadline.miss", 1),
            ("deadline.rung", 70),
            ("deadline.rung0", 60),
            ("deadline.rung1", 30),
            ("deadline.rung4", 10),
            ("sim.scans", 100),
        ];
        out
    }

    #[test]
    fn ladder_folds_the_deadline_counters_and_round_trips() {
        let mut agg = CellAggregator::new();
        agg.push(&capped(0, 0));
        agg.push(&capped(1, 1));
        agg.push(&capped(2, 0));
        let row = agg.summarize("m", "HQ", "pressure_half", 90_000, "SynPF");
        let ladder = row.ladder.clone().expect("a controlled cell has a ladder");
        assert_eq!(ladder.misses, 3);
        assert_eq!(ladder.coast_steps, 6);
        assert_eq!(ladder.rung_occupancy, [180, 90, 0, 0, 30, 0]);
        assert_eq!(ladder.final_rungs, [2, 1, 0, 0, 0, 0]);
        let text = format!("{}", row.to_json());
        let back =
            CellSummary::from_json(&Json::parse(&text).expect("valid JSON")).expect("parse back");
        assert_eq!(back, row);
        let short = text.replace("\"final_rungs\":[2,1,0,0,0,0]", "\"final_rungs\":[2,1]");
        assert!(CellSummary::from_json(&Json::parse(&short).expect("valid JSON")).is_err());
    }

    #[test]
    fn uncontrolled_cells_carry_no_ladder() {
        let mut agg = CellAggregator::new();
        agg.push(&outcome(0, 10.0, true));
        let row = agg.summarize("m", "HQ", "nominal", 0, "SynPF");
        assert_eq!(row.ladder, None);
        let text = format!("{}", row.to_json());
        assert!(!text.contains("ladder"), "{text}");
        let back =
            CellSummary::from_json(&Json::parse(&text).expect("valid JSON")).expect("parse back");
        assert_eq!(back, row);
    }

    #[test]
    fn error_ladder_is_strictly_increasing() {
        for w in ERROR_BOUNDS_CM.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
