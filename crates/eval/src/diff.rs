//! `fleet diff`: the cross-PR accuracy regression gate over two fleet
//! reports (DESIGN.md §15).
//!
//! Fleet numbers drift for legitimate reasons (spec growth, simulator
//! fixes), so the gate does not compare floats for equality. It fails on
//! exactly the two signals the paper's evidence rests on:
//!
//! 1. **Ordering flips** — within one `(map, grip, scenario, budget)`
//!    group, the localizer ranking by mean lateral error changed between
//!    baseline and fresh. The paper's central claims are ordinal
//!    (SynPF < Cartographer under slip, DeadReckoning worst nominally);
//!    a flip anywhere is a qualitative regression even when every gate in
//!    [`crate::ordering_violations`] still passes.
//! 2. **Wilson-interval success regressions** — a cell whose fresh
//!    success-rate 95% interval lies *entirely below* the baseline's.
//!    Disjoint intervals are the statistically honest "this got worse"
//!    test: replicate noise widens the intervals, so small fleets only
//!    fail on large true drops.
//!
//! Everything else — cells added/removed by spec growth, error
//! magnitude drift, success movement within the intervals — is reported
//! as a note, never a failure. Output is deterministic (stable ordering,
//! fixed float formatting), so the rendered diff itself is goldenable.

use std::collections::BTreeMap;

use crate::aggregate::{CellSummary, FleetReport};

/// Relative mean-lateral-error drift (either direction) worth a note.
const LAT_DRIFT_NOTE_FACTOR: f64 = 1.25;

/// The outcome of comparing two fleet reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportDiff {
    /// One line per gating regression (ordering flip or Wilson drop);
    /// empty means the fresh report passes.
    pub regressions: Vec<String>,
    /// Informational lines (spec drift, magnitude drift, improvements).
    pub notes: Vec<String>,
    /// Summary header lines.
    pub header: Vec<String>,
}

impl ReportDiff {
    /// Whether the fresh report regressed (the CI exit-1 condition).
    pub fn is_regression(&self) -> bool {
        !self.regressions.is_empty()
    }

    /// Renders the full human-readable diff (deterministic).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.header {
            out.push_str(line);
            out.push('\n');
        }
        for line in &self.regressions {
            out.push_str("REGRESSION ");
            out.push_str(line);
            out.push('\n');
        }
        for line in &self.notes {
            out.push_str("note: ");
            out.push_str(line);
            out.push('\n');
        }
        if self.is_regression() {
            out.push_str(&format!(
                "verdict: REGRESSED ({} regression{})\n",
                self.regressions.len(),
                if self.regressions.len() == 1 { "" } else { "s" }
            ));
        } else {
            out.push_str("verdict: OK\n");
        }
        out
    }
}

type CellId = (String, String, String, u64, String);
type GroupId = (String, String, String, u64);

fn cell_id(c: &CellSummary) -> CellId {
    (
        c.map.clone(),
        c.grip.clone(),
        c.scenario.clone(),
        c.budget,
        c.method.clone(),
    )
}

fn group_label(g: &GroupId) -> String {
    format!("{} × {} × {} × b{}", g.0, g.1, g.2, g.3)
}

fn cell_label(id: &CellId) -> String {
    format!("{} × {} × {} × b{} × {}", id.0, id.1, id.2, id.3, id.4)
}

fn index(report: &FleetReport) -> BTreeMap<CellId, &CellSummary> {
    report.cells.iter().map(|c| (cell_id(c), c)).collect()
}

/// The group's localizer ranking by mean lateral error, best first, over
/// exactly `methods` (ties and NaNs ordered by `f64::total_cmp`, so the
/// ranking is deterministic).
fn ranking(
    cells: &BTreeMap<CellId, &CellSummary>,
    group: &GroupId,
    methods: &[String],
) -> Vec<String> {
    let mut ranked: Vec<(f64, String)> = methods
        .iter()
        .filter_map(|m| {
            let id = (
                group.0.clone(),
                group.1.clone(),
                group.2.clone(),
                group.3,
                m.clone(),
            );
            cells.get(&id).map(|c| (c.mean_lat_err_cm, m.clone()))
        })
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    ranked.into_iter().map(|(_, m)| m).collect()
}

/// Compares a fresh fleet report against a baseline. See the module docs
/// for exactly what gates and what merely annotates.
pub fn diff_reports(baseline: &FleetReport, fresh: &FleetReport) -> ReportDiff {
    let base_cells = index(baseline);
    let fresh_cells = index(fresh);

    let shared: Vec<&CellId> = base_cells
        .keys()
        .filter(|id| fresh_cells.contains_key(*id))
        .collect();
    let added: Vec<&CellId> = fresh_cells
        .keys()
        .filter(|id| !base_cells.contains_key(*id))
        .collect();
    let removed: Vec<&CellId> = base_cells
        .keys()
        .filter(|id| !fresh_cells.contains_key(*id))
        .collect();

    let header = vec![
        format!(
            "fleet diff: baseline {:?} ({} cells, {} runs) vs fresh {:?} ({} cells, {} runs)",
            baseline.name,
            baseline.cells.len(),
            baseline.total_runs,
            fresh.name,
            fresh.cells.len(),
            fresh.total_runs,
        ),
        format!(
            "cells: {} shared, {} added, {} removed",
            shared.len(),
            added.len(),
            removed.len()
        ),
    ];

    let mut regressions = Vec::new();
    let mut notes = Vec::new();

    // Ordering flips, judged per group over the methods both reports
    // have. BTreeMap iteration keeps group order deterministic.
    let mut groups: BTreeMap<GroupId, Vec<String>> = BTreeMap::new();
    for id in &shared {
        groups
            .entry((id.0.clone(), id.1.clone(), id.2.clone(), id.3))
            .or_default()
            .push(id.4.clone());
    }
    for (group, mut methods) in groups {
        methods.sort();
        if methods.len() < 2 {
            continue;
        }
        let before = ranking(&base_cells, &group, &methods);
        let after = ranking(&fresh_cells, &group, &methods);
        if before != after {
            regressions.push(format!(
                "ordering {}: {} (baseline) -> {} (fresh)",
                group_label(&group),
                before.join(" < "),
                after.join(" < "),
            ));
        }
    }

    // Wilson-interval success regressions and per-cell drift notes.
    for id in &shared {
        let (Some(base), Some(new)) = (base_cells.get(*id), fresh_cells.get(*id)) else {
            continue;
        };
        if new.success_hi < base.success_lo {
            regressions.push(format!(
                "success {}: {}/{} [{:.3}, {:.3}] -> {}/{} [{:.3}, {:.3}] (Wilson intervals disjoint)",
                cell_label(id),
                base.successes,
                base.runs,
                base.success_lo,
                base.success_hi,
                new.successes,
                new.runs,
                new.success_lo,
                new.success_hi,
            ));
        } else if new.success_lo > base.success_hi {
            notes.push(format!(
                "success improved {}: {}/{} -> {}/{}",
                cell_label(id),
                base.successes,
                base.runs,
                new.successes,
                new.runs,
            ));
        }
        let (b, f) = (base.mean_lat_err_cm, new.mean_lat_err_cm);
        if b.is_finite() && f.is_finite() && b > 0.0 && f > 0.0 {
            let ratio = f / b;
            if !(1.0 / LAT_DRIFT_NOTE_FACTOR..=LAT_DRIFT_NOTE_FACTOR).contains(&ratio) {
                notes.push(format!(
                    "lat err drift {}: {b:.2} -> {f:.2} cm ({ratio:.2}x)",
                    cell_label(id),
                ));
            }
        }
    }

    for id in added {
        notes.push(format!("cell added: {}", cell_label(id)));
    }
    for id in removed {
        notes.push(format!("cell removed: {}", cell_label(id)));
    }

    ReportDiff {
        regressions,
        notes,
        header,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raceloc_metrics::wilson95;
    use raceloc_obs::CounterRollup;

    fn cell(scenario: &str, method: &str, lat: f64, successes: u64) -> CellSummary {
        let iv = wilson95(successes, 20);
        CellSummary {
            map: "m0".into(),
            grip: "LQ".into(),
            scenario: scenario.into(),
            budget: 0,
            method: method.into(),
            runs: 20,
            steps: 2000,
            successes,
            success_rate: iv.rate,
            success_lo: iv.lo,
            success_hi: iv.hi,
            mean_rmse_cm: lat * 2.0,
            p95_rmse_cm: lat * 3.0,
            max_rmse_cm: lat * 4.0,
            mean_lat_err_cm: lat,
            p95_lat_err_cm: lat * 1.6,
            recovered: 20,
            unrecovered: 0,
            mean_recovery_steps: 3.0,
            max_recovery_steps: 9,
            crashes: 0,
            nonfinite: 0,
            missing: 0,
            ladder: None,
        }
    }

    fn report(cells: Vec<CellSummary>) -> FleetReport {
        FleetReport {
            name: "t".into(),
            master_seed: 1,
            replicates: 20,
            total_runs: cells.iter().map(|c| c.runs).sum(),
            cells,
            counters: CounterRollup::new(),
        }
    }

    #[test]
    fn identical_reports_diff_clean() {
        let r = report(vec![
            cell("odom_slip", "SynPF", 40.0, 18),
            cell("odom_slip", "Cartographer", 900.0, 2),
        ]);
        let d = diff_reports(&r, &r);
        assert!(!d.is_regression(), "{}", d.render());
        assert!(d.notes.is_empty());
        assert!(d.render().ends_with("verdict: OK\n"));
        // Deterministic output.
        assert_eq!(d.render(), diff_reports(&r, &r).render());
    }

    #[test]
    fn ordering_flip_is_a_regression() {
        let base = report(vec![
            cell("odom_slip", "SynPF", 40.0, 18),
            cell("odom_slip", "Cartographer", 900.0, 18),
        ]);
        let fresh = report(vec![
            cell("odom_slip", "SynPF", 900.0, 18),
            cell("odom_slip", "Cartographer", 40.0, 18),
        ]);
        let d = diff_reports(&base, &fresh);
        assert!(d.is_regression());
        assert!(
            d.regressions.iter().any(|r| r.starts_with("ordering")),
            "{:?}",
            d.regressions
        );
        assert!(d.render().contains("SynPF < Cartographer (baseline)"));
    }

    #[test]
    fn disjoint_wilson_drop_is_a_regression() {
        let base = report(vec![cell("nominal", "SynPF", 5.0, 19)]);
        let fresh = report(vec![cell("nominal", "SynPF", 5.0, 3)]);
        let d = diff_reports(&base, &fresh);
        assert!(d.is_regression());
        assert!(
            d.regressions
                .iter()
                .any(|r| r.starts_with("success") && r.contains("disjoint")),
            "{:?}",
            d.regressions
        );
        // The reverse direction is an improvement note, not a regression.
        let d = diff_reports(&fresh, &base);
        assert!(!d.is_regression());
        assert!(
            d.notes.iter().any(|n| n.contains("improved")),
            "{:?}",
            d.notes
        );
    }

    #[test]
    fn small_success_movement_stays_inside_the_interval() {
        let base = report(vec![cell("nominal", "SynPF", 5.0, 19)]);
        let fresh = report(vec![cell("nominal", "SynPF", 5.0, 17)]);
        assert!(!diff_reports(&base, &fresh).is_regression());
    }

    #[test]
    fn spec_growth_is_a_note_not_a_regression() {
        let base = report(vec![cell("nominal", "SynPF", 5.0, 19)]);
        let fresh = report(vec![
            cell("nominal", "SynPF", 5.0, 19),
            cell("odom_slip", "SynPF", 40.0, 15),
        ]);
        let d = diff_reports(&base, &fresh);
        assert!(!d.is_regression());
        assert!(
            d.notes.iter().any(|n| n.contains("cell added")),
            "{:?}",
            d.notes
        );
        let d = diff_reports(&fresh, &base);
        assert!(!d.is_regression());
        assert!(d.notes.iter().any(|n| n.contains("cell removed")));
    }

    #[test]
    fn magnitude_drift_is_noted() {
        let base = report(vec![
            cell("nominal", "SynPF", 5.0, 19),
            cell("nominal", "Cartographer", 7.0, 19),
        ]);
        let fresh = report(vec![
            cell("nominal", "SynPF", 6.9, 19),
            cell("nominal", "Cartographer", 7.0, 19),
        ]);
        // Drift without an ordering change: noted, not gated.
        let d = diff_reports(&base, &fresh);
        assert!(!d.is_regression(), "{}", d.render());
        assert!(
            d.notes.iter().any(|n| n.contains("lat err drift")),
            "{:?}",
            d.notes
        );
    }
}
