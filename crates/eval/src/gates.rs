//! Robustness gates: the paper's qualitative localizer ordering and the
//! fault catalog's recovery budgets, encoded as hard checks over a
//! [`FleetReport`] (`fleet check` runs both).
//!
//! The source paper's central robustness findings are *ordinal*, not
//! numeric: the synthetic-likelihood particle filter (SynPF) degrades
//! gracefully under degraded-odometry slip where Cartographer's
//! scan-to-map matcher diverges, and uncorrected dead reckoning is the
//! worst localizer whenever nothing forces the others off the map. The
//! gates below fail a fleet whose aggregated tables contradict that
//! ordering, so a regression in any localizer (or in the simulator's
//! noise model) turns CI red instead of silently rewriting the tables.
//!
//! Orderings are judged on the **mean lateral estimation error** — the
//! paper's primary error axis (lateral deviation is what steers the car
//! off line and into a wall). Whole-run translation RMSE is reported but
//! not gated: after a global re-init, a particle filter on a corridor
//! circuit can re-localize onto the wrong *longitudinal* section while
//! staying laterally exact, and that ambiguity is a property of the
//! track's symmetry, not of the localizer under test.

use crate::aggregate::{CellSummary, FleetReport};
use crate::spec::{EvalMethod, FleetSpec};

/// Scenario label the slip-ordering gate keys on (the fault catalog's
/// wheelspin burst).
pub const SLIP_SCENARIO: &str = "odom_slip";
/// Scenario label of the fault-free control the baseline gate keys on.
pub const NOMINAL_SCENARIO: &str = "nominal";

/// Checks one report against the paper's qualitative ordering and basic
/// sanity. Returns one human-readable line per violation; an empty vector
/// means the fleet passes.
///
/// Gates, per `(map, grip)` group:
///
/// 1. **Sanity** — every cell ran its replicates, and every aggregate is
///    finite with no missing outcomes.
/// 2. **Slip ordering** — under [`SLIP_SCENARIO`], SynPF's mean lateral
///    error must be strictly below Cartographer's (graceful degradation
///    vs divergence; paper §V).
/// 3. **Nominal baseline** — under [`NOMINAL_SCENARIO`], DeadReckoning
///    must have the worst mean lateral error of all localizers.
pub fn ordering_violations(report: &FleetReport) -> Vec<String> {
    let mut out = Vec::new();
    for cell in &report.cells {
        sanity(cell, &mut out);
    }
    let mut groups: Vec<(&str, &str)> = Vec::new();
    for cell in &report.cells {
        let g = (cell.map.as_str(), cell.grip.as_str());
        if !groups.contains(&g) {
            groups.push(g);
        }
    }
    for (map, grip) in groups {
        slip_ordering(report, map, grip, &mut out);
        nominal_baseline(report, map, grip, &mut out);
    }
    out
}

/// Checks every cell against the recovery contract of its scenario.
/// Returns one human-readable line per violation.
///
/// - A non-finite pose estimate in any replicate fails every method.
/// - Under a scenario with a `recovery_budget`, every SynPF replicate must
///   return to Nominal within that budget: no unrecovered replicate, and
///   the slowest recovery at most the budget. Cartographer and dead
///   reckoning are reported, never budget-gated.
pub fn recovery_violations(spec: &FleetSpec, report: &FleetReport) -> Vec<String> {
    let mut out = Vec::new();
    for cell in &report.cells {
        let tag = tag(cell);
        if cell.nonfinite > 0 {
            out.push(format!(
                "{tag}: {} of {} replicates had a non-finite pose estimate",
                cell.nonfinite, cell.runs
            ));
        }
        if cell.method != EvalMethod::SynPf.name() {
            continue;
        }
        let Some(budget) = spec
            .scenarios
            .iter()
            .find(|s| s.name == cell.scenario)
            .and_then(|s| s.recovery_budget)
        else {
            continue;
        };
        if cell.unrecovered > 0 {
            out.push(format!(
                "{tag}: {} of {} replicates never recovered to Nominal (budget {budget})",
                cell.unrecovered, cell.runs
            ));
        }
        if cell.max_recovery_steps > budget {
            out.push(format!(
                "{tag}: recovered in up to {} steps, budget {budget}",
                cell.max_recovery_steps
            ));
        }
    }
    out
}

fn tag(cell: &CellSummary) -> String {
    format!(
        "{} × {} × {} × b{} × {}",
        cell.map, cell.grip, cell.scenario, cell.budget, cell.method
    )
}

fn sanity(cell: &CellSummary, out: &mut Vec<String>) {
    let tag = tag(cell);
    if cell.runs == 0 {
        out.push(format!("{tag}: cell has no replicates"));
        return;
    }
    if cell.missing > 0 {
        out.push(format!("{tag}: {} outcome(s) missing", cell.missing));
    }
    if !(cell.mean_rmse_cm.is_finite()
        && cell.p95_rmse_cm.is_finite()
        && cell.mean_lat_err_cm.is_finite())
    {
        out.push(format!("{tag}: non-finite aggregate"));
    }
    if cell.steps == 0 {
        out.push(format!("{tag}: no corrections executed"));
    }
}

fn slip_ordering(report: &FleetReport, map: &str, grip: &str, out: &mut Vec<String>) {
    // `cell` resolves the first-listed budget, so budget-sweeping specs
    // are judged on their lead budget (conventionally the uncapped 0).
    let synpf = report.cell(map, grip, SLIP_SCENARIO, "SynPF");
    let carto = report.cell(map, grip, SLIP_SCENARIO, "Cartographer");
    if let (Some(synpf), Some(carto)) = (synpf, carto) {
        // NaN aggregates are reported by `sanity`, so a plain comparison
        // is enough here.
        if synpf.mean_lat_err_cm >= carto.mean_lat_err_cm {
            out.push(format!(
                "{map} × {grip} × {SLIP_SCENARIO}: SynPF mean lateral error {:.1} cm must be \
                 below Cartographer's {:.1} cm (graceful degradation vs divergence)",
                synpf.mean_lat_err_cm, carto.mean_lat_err_cm
            ));
        }
    }
}

fn nominal_baseline(report: &FleetReport, map: &str, grip: &str, out: &mut Vec<String>) {
    let Some(dr) = report.cell(map, grip, NOMINAL_SCENARIO, "DeadReckoning") else {
        return;
    };
    for other in report.group(map, grip, NOMINAL_SCENARIO) {
        // Compare within one budget only: a hard-capped SynPF losing to
        // an uncapped baseline is a budget effect, not a regression.
        if other.method == "DeadReckoning" || other.budget != dr.budget {
            continue;
        }
        if dr.mean_lat_err_cm < other.mean_lat_err_cm {
            out.push(format!(
                "{map} × {grip} × {NOMINAL_SCENARIO}: DeadReckoning mean lateral error {:.1} cm \
                 beats {} ({:.1} cm) — corrected localizers must outperform the baseline",
                dr.mean_lat_err_cm, other.method, other.mean_lat_err_cm
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raceloc_obs::CounterRollup;

    fn cell(scenario: &str, method: &str, rmse: f64, rate: f64) -> CellSummary {
        CellSummary {
            map: "m0".into(),
            grip: "LQ".into(),
            scenario: scenario.into(),
            budget: 0,
            method: method.into(),
            runs: 20,
            steps: 2000,
            successes: (rate * 20.0).round() as u64,
            success_rate: rate,
            success_lo: (rate - 0.1).max(0.0),
            success_hi: (rate + 0.1).min(1.0),
            mean_rmse_cm: rmse,
            p95_rmse_cm: rmse * 1.4,
            max_rmse_cm: rmse * 2.0,
            mean_lat_err_cm: rmse * 0.5,
            p95_lat_err_cm: rmse * 0.8,
            recovered: 20,
            unrecovered: 0,
            mean_recovery_steps: 3.0,
            max_recovery_steps: 9,
            crashes: 0,
            nonfinite: 0,
            missing: 0,
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
    fn paper_consistent_ordering_passes() {
        let r = report(vec![
            cell(NOMINAL_SCENARIO, "SynPF", 5.0, 1.0),
            cell(NOMINAL_SCENARIO, "Cartographer", 7.0, 1.0),
            cell(NOMINAL_SCENARIO, "DeadReckoning", 400.0, 0.0),
            cell(SLIP_SCENARIO, "SynPF", 40.0, 0.9),
            cell(SLIP_SCENARIO, "Cartographer", 900.0, 0.1),
            cell(SLIP_SCENARIO, "DeadReckoning", 700.0, 0.0),
        ]);
        assert_eq!(ordering_violations(&r), Vec::<String>::new());
    }

    #[test]
    fn inverted_slip_ordering_fails() {
        let r = report(vec![
            cell(SLIP_SCENARIO, "SynPF", 900.0, 0.1),
            cell(SLIP_SCENARIO, "Cartographer", 40.0, 0.9),
        ]);
        let v = ordering_violations(&r);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("SynPF"));
    }

    #[test]
    fn dead_reckoning_winning_nominal_fails() {
        let r = report(vec![
            cell(NOMINAL_SCENARIO, "SynPF", 50.0, 0.5),
            cell(NOMINAL_SCENARIO, "DeadReckoning", 5.0, 1.0),
        ]);
        let v = ordering_violations(&r);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("DeadReckoning"));
    }

    #[test]
    fn sanity_catches_broken_cells() {
        let mut bad = cell(NOMINAL_SCENARIO, "SynPF", f64::NAN, 0.5);
        bad.missing = 2;
        let v = ordering_violations(&report(vec![bad]));
        assert!(v.iter().any(|m| m.contains("missing")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("non-finite")), "{v:?}");
        let mut empty = cell(NOMINAL_SCENARIO, "SynPF", 1.0, 1.0);
        empty.runs = 0;
        let v = ordering_violations(&report(vec![empty]));
        assert!(v.iter().any(|m| m.contains("no replicates")), "{v:?}");
    }

    #[test]
    fn recovery_gate_judges_synpf_replicates_against_the_budget() {
        let mut spec = crate::spec::tests::tiny_spec();
        spec.scenarios.push(crate::spec::ScenarioSpec {
            name: "pose_kidnap".into(),
            schedule: raceloc_faults::FaultSchedule::builder()
                .pose_kidnap(40, 6.0)
                .build()
                .expect("valid"),
            measure_from: 40,
            recovery_budget: Some(20),
        });
        let kidnap = |method: &str| cell("pose_kidnap", method, 50.0, 0.5);
        let check = |c: CellSummary| recovery_violations(&spec, &report(vec![c]));

        assert!(check(kidnap("SynPF")).is_empty(), "9 steps, budget 20");
        let mut one_lost = kidnap("SynPF");
        one_lost.recovered = 19;
        one_lost.unrecovered = 1;
        let v = check(one_lost);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("1 of 20 replicates never recovered"), "{v:?}");
        let mut slow = kidnap("SynPF");
        slow.max_recovery_steps = 21;
        let v = check(slow);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("up to 21 steps, budget 20"), "{v:?}");
        let mut nonfinite = kidnap("SynPF");
        nonfinite.nonfinite = 1;
        assert_eq!(check(nonfinite).len(), 1, "non-finite pose");

        // Other methods, and scenarios without a budget, are never
        // budget-gated — but a non-finite pose fails them all.
        for method in ["Cartographer", "DeadReckoning"] {
            let mut c = kidnap(method);
            c.unrecovered = 20;
            c.max_recovery_steps = 500;
            assert!(check(c.clone()).is_empty(), "{method}");
            c.nonfinite = 2;
            assert_eq!(check(c).len(), 1, "{method}: non-finite pose");
        }
        let mut nominal = cell(NOMINAL_SCENARIO, "SynPF", 5.0, 1.0);
        nominal.unrecovered = 20;
        assert!(check(nominal).is_empty(), "nominal has no budget");
    }

    #[test]
    fn gates_tolerate_absent_methods() {
        // A spec without Cartographer or DeadReckoning has nothing to
        // compare — no spurious violations.
        let r = report(vec![cell(SLIP_SCENARIO, "SynPF", 40.0, 0.9)]);
        assert!(ordering_violations(&r).is_empty());
    }
}
