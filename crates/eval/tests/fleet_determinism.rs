//! End-to-end determinism of the fleet engine (rule R3): the serialized
//! report must be byte-identical for every worker-pool width and across
//! repeated executions, with all three localizers and an active fault
//! scenario in play.

use raceloc_eval::{run_fleet, EvalMethod, FleetSpec, GripSpec, MapSpec, ScenarioSpec};
use raceloc_faults::FaultSchedule;
use raceloc_obs::names;

fn small_spec() -> FleetSpec {
    FleetSpec {
        name: "determinism-smoke".into(),
        master_seed: 4242,
        replicates: 2,
        duration_s: 1.5,
        particles: 80,
        beams: 61,
        success_lat_cm: 150.0,
        maps: vec![MapSpec {
            name: "fourier-33".into(),
            fourier_seed: 33,
            half_width: 1.25,
            mean_radius: 6.0,
        }],
        grips: vec![GripSpec {
            name: "LQ".into(),
            mu: 19.0 / 26.0,
        }],
        scenarios: vec![
            ScenarioSpec {
                name: "nominal".into(),
                schedule: FaultSchedule::builder().seed(7).build().expect("valid"),
                measure_from: 0,
                recovery_budget: None,
            },
            ScenarioSpec {
                name: "odom_slip".into(),
                schedule: FaultSchedule::builder()
                    .seed(7)
                    .odom_slip(15, 30, 1.8)
                    .build()
                    .expect("valid"),
                measure_from: 30,
                recovery_budget: None,
            },
        ],
        budgets: vec![0],
        methods: vec![
            EvalMethod::SynPf,
            EvalMethod::Cartographer,
            EvalMethod::DeadReckoning,
        ],
    }
}

#[test]
fn report_is_byte_identical_across_pool_widths_and_reruns() {
    let spec = small_spec();
    let baseline = format!("{}", run_fleet(&spec, 1).expect("valid spec").to_json());
    for threads in [2usize, 4] {
        let other = format!(
            "{}",
            run_fleet(&spec, threads).expect("valid spec").to_json()
        );
        assert_eq!(baseline, other, "pool width {threads} changed the report");
    }
    let again = format!("{}", run_fleet(&spec, 1).expect("valid spec").to_json());
    assert_eq!(baseline, again, "re-running the fleet changed the report");
}

#[test]
fn report_covers_every_cell_with_every_replicate() {
    let spec = small_spec();
    let report = run_fleet(&spec, 2).expect("valid spec");
    assert_eq!(report.total_runs as usize, spec.total_runs());
    assert_eq!(report.cells.len(), spec.cells().len());
    for cell in &report.cells {
        assert_eq!(cell.runs, u64::from(spec.replicates), "{cell:?}");
        assert_eq!(cell.missing, 0, "{cell:?}");
        assert!(cell.steps > 0, "{cell:?}");
    }
    // The counter rollup saw every run.
    assert_eq!(
        report.counters.total(names::EVAL_RUNS.as_str()),
        Some(report.total_runs),
        "eval.runs rollup"
    );
    // Paired seeds: SynPF and DeadReckoning rows of the same cell came
    // from identical worlds, so their step counts agree.
    let synpf = report
        .cell("fourier-33", "LQ", "nominal", "SynPF")
        .expect("SynPF row");
    let dr = report
        .cell("fourier-33", "LQ", "nominal", "DeadReckoning")
        .expect("DR row");
    assert_eq!(synpf.steps, dr.steps, "oracle control pairs trajectories");
}
