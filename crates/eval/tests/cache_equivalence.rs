//! Cache correctness (DESIGN.md §15): cached and fresh cell results are
//! byte-identical through the report, and editing a spec axis invalidates
//! exactly the affected cells — no more, no fewer.
//!
//! Engine-level tests drive real (micro) fleets through
//! [`run_fleet_with`]; the property tests work on the hash layer alone
//! (no simulation), so they can sweep hundreds of random specs/edits.

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use raceloc_eval::{
    cell_hash, run_fleet, run_fleet_with, EvalMethod, FleetRunOptions, FleetSpec, GripSpec,
    MapSpec, ScenarioSpec,
};
use raceloc_faults::FaultSchedule;

fn micro_spec() -> FleetSpec {
    FleetSpec {
        name: "cache-micro".into(),
        master_seed: 77,
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
        grips: vec![
            GripSpec {
                name: "HQ".into(),
                mu: 1.0,
            },
            GripSpec {
                name: "LQ".into(),
                mu: 19.0 / 26.0,
            },
        ],
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
        methods: vec![EvalMethod::DeadReckoning],
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "raceloc-cache-equivalence-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cached_opts(dir: &Path) -> FleetRunOptions {
    let mut opts = FleetRunOptions::new(2);
    opts.cache_dir = Some(dir.to_path_buf());
    opts
}

#[test]
fn cold_then_warm_runs_are_byte_identical_and_warm_is_all_hits() {
    // Every localizer and a capped budget, so each key dimension is covered
    // and every trajectory family holds more than one cell.
    let mut spec = micro_spec();
    spec.budgets = vec![0, 10_000];
    spec.methods = vec![
        EvalMethod::SynPf,
        EvalMethod::Cartographer,
        EvalMethod::DeadReckoning,
    ];
    let dir = temp_dir("cold-warm");
    let opts = cached_opts(&dir);
    let cells = spec.cells().len() as u64;
    assert_eq!(cells, 24);

    let (cold_report, cold_stats) = run_fleet_with(&spec, &opts).expect("cold run");
    assert_eq!(cold_stats.cache_hits, 0);
    assert_eq!(cold_stats.executed_cells, cells);
    assert_eq!(cold_stats.cache_stores, cells);

    let (warm_report, warm_stats) = run_fleet_with(&spec, &opts).expect("warm run");
    assert_eq!(warm_stats.cache_hits, cells, "unchanged spec = 100% hits");
    assert_eq!(warm_stats.executed_cells, 0);
    assert_eq!(warm_stats.executed_runs, 0);
    assert_eq!(warm_stats.cache_stores, 0, "cache keys must be stable");

    let cold = format!("{}", cold_report.to_json());
    let warm = format!("{}", warm_report.to_json());
    assert_eq!(cold, warm, "cache must not change the report");

    // And both match the engine with no persistence at all.
    let plain = format!("{}", run_fleet(&spec, 2).expect("plain run").to_json());
    assert_eq!(cold, plain, "persistence layers must be invisible");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn editing_one_grip_re_runs_exactly_that_grips_cells() {
    let spec = micro_spec();
    let dir = temp_dir("grip-edit");
    let opts = cached_opts(&dir);
    run_fleet_with(&spec, &opts).expect("warm the cache");

    let mut edited = spec.clone();
    edited.grips[1].mu = 0.5;
    let (report, stats) = run_fleet_with(&edited, &opts).expect("edited run");

    // 1 map × 2 grips × 2 scenarios × 1 budget × 1 method = 4 cells, half
    // of them under the edited grip.
    let affected = (spec.cells().iter().filter(|k| k.grip == 1).count()) as u64;
    assert_eq!(stats.executed_cells, affected, "only grip-1 cells re-ran");
    assert_eq!(stats.cache_hits, stats.cells_total - affected);

    // The mixed cached/fresh report is byte-identical to a cold run of
    // the edited spec.
    let fresh = run_fleet(&edited, 2).expect("cold edited run");
    assert_eq!(
        format!("{}", report.to_json()),
        format!("{}", fresh.to_json()),
        "cache reuse must not leak stale results into edited cells"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn appending_a_scenario_keeps_every_existing_cell_cached() {
    let spec = micro_spec();
    let dir = temp_dir("scenario-append");
    let opts = cached_opts(&dir);
    run_fleet_with(&spec, &opts).expect("warm the cache");

    let mut extended = spec.clone();
    extended.scenarios.push(ScenarioSpec {
        name: "pose_kidnap".into(),
        schedule: FaultSchedule::builder()
            .seed(7)
            .pose_kidnap(20, 4.0)
            .build()
            .expect("valid"),
        measure_from: 20,
        recovery_budget: None,
    });
    let (report, stats) = run_fleet_with(&extended, &opts).expect("extended run");
    let old_cells = spec.cells().len() as u64;
    let new_cells = extended.cells().len() as u64 - old_cells;
    assert_eq!(stats.cache_hits, old_cells, "appends never invalidate");
    assert_eq!(stats.executed_cells, new_cells);

    let fresh = run_fleet(&extended, 2).expect("cold extended run");
    assert_eq!(
        format!("{}", report.to_json()),
        format!("{}", fresh.to_json())
    );

    let _ = std::fs::remove_dir_all(&dir);
}

// --- hash-layer properties (no simulation) ------------------------------

fn arb_base_spec() -> impl Strategy<Value = FleetSpec> {
    (
        1u64..(1 << 53),
        1u32..5,
        1u64..4,
        1usize..4,
        1usize..3,
        prop::collection::vec(1u64..100_000, 0..3),
    )
        .prop_map(
            |(master_seed, replicates, n_maps, n_grips, n_scen, extra_budgets)| {
                let mut budgets = vec![0u64];
                for b in extra_budgets {
                    if !budgets.contains(&b) {
                        budgets.push(b);
                    }
                }
                FleetSpec {
                    name: "prop".into(),
                    master_seed,
                    replicates,
                    duration_s: 2.0,
                    particles: 100,
                    beams: 61,
                    success_lat_cm: 50.0,
                    maps: (0..n_maps)
                        .map(|i| MapSpec {
                            name: format!("m{i}"),
                            fourier_seed: 100 + i,
                            half_width: 1.25,
                            mean_radius: 6.0,
                        })
                        .collect(),
                    grips: (0..n_grips)
                        .map(|i| GripSpec {
                            name: format!("g{i}"),
                            mu: 0.5 + 0.1 * i as f64,
                        })
                        .collect(),
                    scenarios: (0..n_scen)
                        .map(|i| ScenarioSpec {
                            name: format!("s{i}"),
                            schedule: FaultSchedule::builder()
                                .seed(i as u64)
                                .build()
                                .expect("valid"),
                            measure_from: i as u64,
                            recovery_budget: None,
                        })
                        .collect(),
                    budgets,
                    methods: vec![EvalMethod::SynPf, EvalMethod::DeadReckoning],
                }
            },
        )
}

/// Which axis a random edit touches.
#[derive(Debug, Clone, Copy)]
enum Axis {
    Map,
    Grip,
    Scenario,
    Budget,
}

fn arb_axis() -> impl Strategy<Value = Axis> {
    prop_oneof![
        Just(Axis::Map),
        Just(Axis::Grip),
        Just(Axis::Scenario),
        Just(Axis::Budget),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cell_hashes_are_pure_and_collision_free(spec in arb_base_spec()) {
        let cells = spec.cells();
        let hashes: Vec<u64> = cells.iter().map(|&k| cell_hash(&spec, k)).collect();
        prop_assert_eq!(
            &hashes,
            &cells.iter().map(|&k| cell_hash(&spec, k)).collect::<Vec<_>>()
        );
        let mut dedup = hashes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), hashes.len(), "distinct cells, distinct hashes");
    }

    #[test]
    fn an_axis_edit_invalidates_exactly_the_affected_cells(
        spec in arb_base_spec(),
        axis in arb_axis(),
        pick in 0usize..16,
    ) {
        let mut edited = spec.clone();
        let index;
        match axis {
            Axis::Map => {
                index = pick % edited.maps.len();
                edited.maps[index].fourier_seed ^= 0x5555;
            }
            Axis::Grip => {
                index = pick % edited.grips.len();
                edited.grips[index].mu += 0.017;
            }
            Axis::Scenario => {
                index = pick % edited.scenarios.len();
                edited.scenarios[index].measure_from += 1;
            }
            Axis::Budget => {
                index = pick % edited.budgets.len();
                edited.budgets[index] += 1_000_000;
            }
        }
        // Every edit above keeps the spec valid (budgets stay distinct:
        // generated extras are < 100_000, the bump adds 1_000_000).
        prop_assert!(edited.validate().is_ok());
        for (i, &key) in spec.cells().iter().enumerate() {
            let touched = match axis {
                Axis::Map => key.map == index,
                Axis::Grip => key.grip == index,
                Axis::Scenario => key.scenario == index,
                Axis::Budget => key.budget == index,
            };
            let before = cell_hash(&spec, key);
            let after = cell_hash(&edited, key);
            if touched {
                prop_assert!(before != after, "cell {} must invalidate", i);
            } else {
                prop_assert_eq!(before, after, "cell {} must stay cached", i);
            }
        }
    }

    #[test]
    fn global_knobs_invalidate_every_cell(spec in arb_base_spec(), bump in 1u64..1000) {
        let mut reseeded = spec.clone();
        reseeded.master_seed = spec.master_seed.wrapping_add(bump);
        let mut longer = spec.clone();
        longer.duration_s += 0.5;
        for key in spec.cells() {
            let h = cell_hash(&spec, key);
            prop_assert!(h != cell_hash(&reseeded, key), "master_seed is global");
            prop_assert!(h != cell_hash(&longer, key), "duration_s is global");
        }
    }
}
