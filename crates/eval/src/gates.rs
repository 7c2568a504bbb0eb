//! Robustness gates: the paper's qualitative localizer ordering, the
//! fault catalog's recovery budgets and the deadline ladder's contract,
//! encoded as hard checks over a [`FleetReport`] (`fleet check` runs all
//! three).
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

use raceloc_core::deadline::LADDER_LEN;

use crate::aggregate::{CellSummary, FleetReport};
use crate::spec::{EvalMethod, FleetSpec};

/// Scenario label the slip-ordering gate keys on (the fault catalog's
/// wheelspin burst).
pub const SLIP_SCENARIO: &str = "odom_slip";
/// Scenario label of the fault-free control the baseline gate keys on.
pub const NOMINAL_SCENARIO: &str = "nominal";
/// Scenario label of the mid-run budget halving the ladder-descent gate
/// keys on.
pub const HALF_SCENARIO: &str = "pressure_half";
/// Scenario label of the near-total compute cliff — the only scenario
/// in which a capped cell may book deadline misses.
pub const CLIFF_SCENARIO: &str = "pressure_cliff";

/// On the nominal scenario, a budget of at least half the largest keeps
/// its mean lateral error within this factor of the uncapped cell's.
const GRACEFUL_FACTOR: f64 = 2.0;
/// Adjacent-budget slack of the nominal monotonicity gate: between
/// neighbouring budgets the accuracy gap can sit inside replicate noise,
/// so a strict `<=` would flake.
const MONOTONE_SLACK: f64 = 1.15;
/// Ceiling on a pressured capped cell's mean lateral error relative to
/// its nominal same-budget cell: pressure windows legitimately cost
/// accuracy (forced descents, coasting), divergence does not.
const PRESSURE_FACTOR: f64 = 15.0;

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

/// Checks every capped cell against the deadline ladder's contract
/// (DESIGN.md §14). Returns one human-readable line per violation.
/// Cells are compared only with cells of the same map, grip and method.
///
/// 1. A capped cell never crashes, and a capped SynPF cell carries ladder
///    statistics.
/// 2. Outside [`CLIFF_SCENARIO`] the ladder always finds a rung that fits
///    the budget: no deadline misses.
/// 3. Under [`HALF_SCENARIO`], the spec's largest budget leaves rung 0.
/// 4. Pressure lifts ⇒ the controller climbs back: every rung a pressured
///    cell's replicates end on is one its nominal same-budget cell's
///    replicates also end on.
/// 5. On the nominal scenario, a budget of at least half the largest
///    keeps mean lateral error within 2× the uncapped cell's.
/// 6. On the nominal scenario, mean lateral error does not grow with the
///    budget (uncapped counts as the largest), within a 1.15× slack.
/// 7. A pressured capped cell's mean lateral error stays within 15× its
///    nominal same-budget cell's.
pub fn ladder_violations(spec: &FleetSpec, report: &FleetReport) -> Vec<String> {
    let mut out = Vec::new();
    let largest = spec.budgets.iter().copied().max().unwrap_or(0);
    let peer = |c: &CellSummary, scenario: &str, budget: u64| {
        report.cells.iter().find(|o| {
            o.map == c.map
                && o.grip == c.grip
                && o.method == c.method
                && o.scenario == scenario
                && o.budget == budget
        })
    };
    for cell in report.cells.iter().filter(|c| c.budget > 0) {
        let tag = tag(cell);
        if cell.crashes > 0 {
            out.push(format!(
                "{tag}: {} of {} replicates crashed",
                cell.crashes, cell.runs
            ));
        }
        let Some(ladder) = &cell.ladder else {
            if cell.method == EvalMethod::SynPf.name() {
                out.push(format!("{tag}: capped cell carries no ladder statistics"));
            }
            continue;
        };
        if ladder.misses > 0 && cell.scenario != CLIFF_SCENARIO {
            out.push(format!(
                "{tag}: {} deadline miss(es) — the ladder must always fit the budget \
                 outside {CLIFF_SCENARIO}",
                ladder.misses
            ));
        }
        if cell.scenario == HALF_SCENARIO
            && cell.budget == largest
            && ladder.rung_occupancy[1..].iter().all(|&n| n == 0)
        {
            out.push(format!(
                "{tag}: never left rung 0 — halving the largest budget must force the \
                 ladder down"
            ));
        }
        if cell.scenario == NOMINAL_SCENARIO {
            if let Some(uncapped) = peer(cell, NOMINAL_SCENARIO, 0) {
                if 2 * cell.budget >= largest
                    && cell.mean_lat_err_cm > GRACEFUL_FACTOR * uncapped.mean_lat_err_cm
                {
                    out.push(format!(
                        "{tag}: mean lateral error {:.1} cm exceeds {GRACEFUL_FACTOR}× the \
                         uncapped {:.1} cm — degradation is not graceful",
                        cell.mean_lat_err_cm, uncapped.mean_lat_err_cm
                    ));
                }
            }
            continue;
        }
        let Some(nominal) = peer(cell, NOMINAL_SCENARIO, cell.budget) else {
            continue;
        };
        if let Some(nominal_ladder) = &nominal.ladder {
            for rung in 0..LADDER_LEN {
                if ladder.final_rungs[rung] > 0 && nominal_ladder.final_rungs[rung] == 0 {
                    out.push(format!(
                        "{tag}: {} replicate(s) ended on rung {rung}, where no nominal \
                         replicate ends — the controller must recover after pressure lifts",
                        ladder.final_rungs[rung]
                    ));
                }
            }
        }
        if cell.mean_lat_err_cm > PRESSURE_FACTOR * nominal.mean_lat_err_cm {
            out.push(format!(
                "{tag}: mean lateral error {:.1} cm exceeds {PRESSURE_FACTOR}× the nominal \
                 {:.1} cm — degradation under pressure is not graceful",
                cell.mean_lat_err_cm, nominal.mean_lat_err_cm
            ));
        }
    }
    nominal_monotone(report, &mut out);
    out
}

/// Gate 6 of [`ladder_violations`]: per `(map, grip, method)`, nominal
/// mean lateral error is non-increasing in the budget, uncapped last.
fn nominal_monotone(report: &FleetReport, out: &mut Vec<String>) {
    let mut groups: Vec<(&str, &str, &str)> = Vec::new();
    for c in &report.cells {
        let g = (c.map.as_str(), c.grip.as_str(), c.method.as_str());
        if !groups.contains(&g) {
            groups.push(g);
        }
    }
    for (map, grip, method) in groups {
        let mut cells: Vec<&CellSummary> = report
            .group(map, grip, NOMINAL_SCENARIO)
            .filter(|c| c.method == method)
            .collect();
        cells.sort_by_key(|c| if c.budget == 0 { u64::MAX } else { c.budget });
        for pair in cells.windows(2) {
            let (less, more) = (pair[0], pair[1]);
            if more.mean_lat_err_cm > MONOTONE_SLACK * less.mean_lat_err_cm {
                out.push(format!(
                    "{}: mean lateral error {:.1} cm exceeds {MONOTONE_SLACK}× the {:.1} cm of \
                     budget {} — more budget made accuracy worse",
                    tag(more),
                    more.mean_lat_err_cm,
                    less.mean_lat_err_cm,
                    less.budget
                ));
            }
        }
    }
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
    use crate::aggregate::LadderStats;
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

    const SLACK: u64 = 200_000;
    const TIGHT: u64 = 120_000;
    const STARVED: u64 = 70_000;

    /// A capped SynPF cell with mean lateral error `lat` that sat on rung
    /// 0 throughout and ended there in all 20 replicates.
    fn capped(scenario: &str, budget: u64, lat: f64) -> CellSummary {
        let mut c = cell(scenario, "SynPF", 2.0 * lat, 1.0);
        c.budget = budget;
        c.ladder = Some(LadderStats {
            misses: 0,
            coast_steps: 0,
            rung_occupancy: [12_800, 0, 0, 0, 0, 0],
            final_rungs: [20, 0, 0, 0, 0, 0],
        });
        c
    }

    fn ladder(c: &mut CellSummary) -> &mut LadderStats {
        c.ladder.as_mut().expect("capped cell")
    }

    /// A well-behaved budget × pressure sweep: flat nominal accuracy, a
    /// halving that pushes the largest budget down a rung, legal misses
    /// under the cliff.
    fn sweep() -> Vec<CellSummary> {
        let mut half = capped(HALF_SCENARIO, SLACK, 20.0);
        ladder(&mut half).rung_occupancy = [12_000, 800, 0, 0, 0, 0];
        let mut cliff = capped(CLIFF_SCENARIO, STARVED, 50.0);
        ladder(&mut cliff).misses = 120;
        ladder(&mut cliff).coast_steps = 8;
        vec![
            cell(NOMINAL_SCENARIO, "SynPF", 16.0, 1.0),
            capped(NOMINAL_SCENARIO, SLACK, 8.0),
            capped(NOMINAL_SCENARIO, TIGHT, 8.5),
            capped(NOMINAL_SCENARIO, STARVED, 9.0),
            half,
            cliff,
        ]
    }

    /// Runs the ladder gates over `sweep()` with `edit` applied to the
    /// cell at `index`.
    fn ladder_check(index: usize, edit: impl FnOnce(&mut CellSummary)) -> Vec<String> {
        let mut spec = crate::spec::tests::tiny_spec();
        spec.budgets = vec![0, SLACK, TIGHT, STARVED];
        let mut cells = sweep();
        edit(&mut cells[index]);
        ladder_violations(&spec, &report(cells))
    }

    #[test]
    fn well_behaved_sweep_passes_the_ladder_gates() {
        assert_eq!(ladder_check(0, |_| {}), Vec::<String>::new());
        // Reports without a budget sweep have nothing to judge.
        let spec = crate::spec::tests::tiny_spec();
        let r = report(vec![
            cell(NOMINAL_SCENARIO, "SynPF", 5.0, 1.0),
            cell(CLIFF_SCENARIO, "SynPF", 900.0, 0.0),
        ]);
        assert!(ladder_violations(&spec, &r).is_empty());
    }

    #[test]
    fn ladder_gate_catches_a_crashed_capped_cell() {
        let v = ladder_check(2, |c| c.crashes = 1);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("1 of 20 replicates crashed"), "{v:?}");
        let v = ladder_check(2, |c| c.ladder = None);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("no ladder statistics"), "{v:?}");
    }

    #[test]
    fn ladder_gate_catches_misses_outside_the_cliff() {
        let v = ladder_check(4, |c| ladder(c).misses = 3);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("3 deadline miss(es)"), "{v:?}");
        // The cliff cell of `sweep()` already books misses legally.
        assert!(ladder_check(5, |c| ladder(c).misses = 3).is_empty());
    }

    #[test]
    fn ladder_gate_catches_a_halving_that_never_degrades() {
        let v = ladder_check(4, |c| ladder(c).rung_occupancy = [12_800, 0, 0, 0, 0, 0]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("never left rung 0"), "{v:?}");
    }

    #[test]
    fn ladder_gate_catches_a_ladder_stuck_after_pressure() {
        let v = ladder_check(4, |c| ladder(c).final_rungs = [19, 1, 0, 0, 0, 0]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("1 replicate(s) ended on rung 1"), "{v:?}");
        assert!(v[0].contains("recover"), "{v:?}");
    }

    #[test]
    fn ladder_gate_catches_capped_nominal_accuracy_collapsing() {
        // 17 cm > 2 × the uncapped 8 cm (and, 2× the tight 8.5 cm, no
        // longer monotone either).
        let v = ladder_check(1, |c| c.mean_lat_err_cm = 17.0);
        assert!(v.iter().any(|m| m.contains("uncapped 8.0 cm")), "{v:?}");
        // The starved budget (< half the largest) is exempt from the 2×
        // bound: only monotonicity judges it.
        let v = ladder_check(3, |c| c.mean_lat_err_cm = 9.7);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn ladder_gate_catches_accuracy_worsening_with_budget() {
        // Tight at 12 cm stays within 2× uncapped but is worse than
        // 1.15× the starved 9 cm.
        let v = ladder_check(2, |c| c.mean_lat_err_cm = 12.0);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("more budget made accuracy worse"), "{v:?}");
        // Uncapped counts as the largest budget.
        let v = ladder_check(0, |c| c.mean_lat_err_cm = 9.3);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("b0"), "{v:?}");
    }

    #[test]
    fn ladder_gate_catches_divergence_under_pressure() {
        // 15 × the starved nominal 9 cm = 135 cm.
        assert!(ladder_check(5, |c| c.mean_lat_err_cm = 135.0).is_empty());
        let v = ladder_check(5, |c| c.mean_lat_err_cm = 136.0);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("under pressure"), "{v:?}");
    }
}
