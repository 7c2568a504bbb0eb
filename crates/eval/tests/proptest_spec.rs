//! FleetSpec JSON round-trip properties, extended to the compute-budgets
//! axis and tied to the cell cache: a spec that survives
//! serialize → parse must be *identical* — same struct, same canonical
//! JSON, same world seeds, and (crucially for DESIGN.md §15) the same
//! content-addressed cell hashes, so writing a spec to disk and reading
//! it back never invalidates a single cache entry. A spec whose scenario
//! timing falls past the run end never parses.

use proptest::prelude::*;
use raceloc_eval::{cell_hash, EvalMethod, FleetSpec, GripSpec, MapSpec, ScenarioSpec};
use raceloc_faults::FaultSchedule;

/// Raw draw for one scenario: `(seed, kind, start, len, factor, budget)`.
/// `kind` picks nominal / odometry-slip / pose-kidnap; `budget == 0`
/// means no recovery gate (`None`).
type ScenarioDraw = (u64, u64, u64, u64, f64, u64);

fn build_scenario(i: usize, draw: ScenarioDraw) -> ScenarioSpec {
    let (seed, kind, start, len, factor, budget) = draw;
    let mut builder = FaultSchedule::builder().seed(seed);
    let mut measure_from = 0;
    match kind % 3 {
        1 => {
            builder = builder.odom_slip(start, start + len, factor);
            measure_from = start + len;
        }
        2 => {
            builder = builder.pose_kidnap(start, 2.0 * factor);
            measure_from = start;
        }
        _ => {}
    }
    ScenarioSpec {
        name: format!("scen{i}"),
        schedule: builder.build().expect("single ordered window"),
        measure_from,
        recovery_budget: (budget > 0).then_some(budget),
    }
}

fn arb_spec() -> impl Strategy<Value = FleetSpec> {
    (
        (
            1u64..(1 << 53),
            1u32..6,
            // ≥ 4 s = 160 corrections: every drawn window and measurement
            // point (< 150) falls inside the run, as `validate` requires.
            4.0f64..10.0,
            50usize..500,
            10.0f64..300.0,
        ),
        prop::collection::vec((1u64..10_000, 0.8f64..2.0, 4.0f64..9.0), 1..3),
        prop::collection::vec(0.3f64..1.2, 1..3),
        prop::collection::vec(
            (
                0u64..100,
                0u64..3,
                1u64..50,
                1u64..50,
                1.1f64..2.5,
                0u64..200,
            ),
            1..3,
        ),
        prop::collection::vec(1u64..5_000_000, 0..3),
        0usize..3,
    )
        .prop_map(
            |(globals, maps, grips, scenarios, extra_budgets, method_set)| {
                let (master_seed, replicates, duration_s, particles, success_lat_cm) = globals;
                let mut budgets = vec![0u64];
                for b in extra_budgets {
                    if !budgets.contains(&b) {
                        budgets.push(b);
                    }
                }
                FleetSpec {
                    name: "proptest-roundtrip".into(),
                    master_seed,
                    replicates,
                    duration_s,
                    particles,
                    beams: 61,
                    success_lat_cm,
                    maps: maps
                        .into_iter()
                        .enumerate()
                        .map(|(i, (seed, half_width, mean_radius))| MapSpec {
                            name: format!("map{i}"),
                            fourier_seed: seed,
                            half_width,
                            mean_radius,
                        })
                        .collect(),
                    grips: grips
                        .into_iter()
                        .enumerate()
                        .map(|(i, mu)| GripSpec {
                            name: format!("grip{i}"),
                            mu,
                        })
                        .collect(),
                    scenarios: scenarios
                        .into_iter()
                        .enumerate()
                        .map(|(i, draw)| build_scenario(i, draw))
                        .collect(),
                    budgets,
                    methods: match method_set {
                        0 => vec![EvalMethod::DeadReckoning],
                        1 => vec![EvalMethod::SynPf, EvalMethod::DeadReckoning],
                        _ => EvalMethod::all().to_vec(),
                    },
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn json_round_trip_is_lossless_including_budgets(spec in arb_spec()) {
        prop_assert!(spec.validate().is_ok());
        let text = format!("{}", spec.to_json());
        let parsed = FleetSpec::from_json_str(&text).expect("own JSON parses");
        prop_assert_eq!(&parsed, &spec);
        prop_assert_eq!(&parsed.budgets, &spec.budgets, "budgets axis survives");
        // Canonical form is a fixed point: re-serializing is byte-identical.
        prop_assert_eq!(format!("{}", parsed.to_json()), text);
    }

    #[test]
    fn round_trip_preserves_every_cell_hash(spec in arb_spec()) {
        let parsed = FleetSpec::from_json_str(&format!("{}", spec.to_json()))
            .expect("own JSON parses");
        for key in spec.cells() {
            prop_assert_eq!(
                cell_hash(&parsed, key),
                cell_hash(&spec, key),
                "a disk round trip must not invalidate cache entries"
            );
        }
    }

    #[test]
    fn round_trip_preserves_world_seeds_and_run_layout(spec in arb_spec()) {
        let parsed = FleetSpec::from_json_str(&format!("{}", spec.to_json()))
            .expect("own JSON parses");
        prop_assert_eq!(parsed.total_runs(), spec.total_runs());
        prop_assert_eq!(&parsed.cells(), &spec.cells());
        for desc in spec.runs() {
            let seed = parsed.world_seed(
                desc.key.map,
                desc.key.grip,
                desc.key.scenario,
                desc.replicate,
            );
            prop_assert_eq!(seed, desc.world_seed);
        }
    }

    #[test]
    fn budget_axis_multiplies_cells_without_touching_world_seeds(
        spec in arb_spec(),
        extra in 1u64..10_000_000,
    ) {
        // Appending a budget adds cells but leaves all world seeds (which
        // deliberately exclude the budget axis — paired comparison) alone.
        let mut widened = spec.clone();
        let budget = widened.budgets.iter().max().copied().unwrap_or(0) + extra;
        widened.budgets.push(budget);
        prop_assert!(widened.validate().is_ok());
        let per_budget = spec.cells().len() / spec.budgets.len();
        prop_assert_eq!(
            widened.cells().len(),
            spec.cells().len() + per_budget
        );
        for desc in spec.runs() {
            prop_assert_eq!(
                widened.world_seed(
                    desc.key.map,
                    desc.key.grip,
                    desc.key.scenario,
                    desc.replicate,
                ),
                desc.world_seed,
                "budgets must not perturb the paired world seeds"
            );
        }
    }

    #[test]
    fn scenarios_past_the_run_end_are_rejected(spec in arb_spec(), past in 0u64..50) {
        // A late window or measurement point would make the scenario a
        // silent nominal one that "recovers" in 0 steps.
        let end = spec.corrections() + past;
        let mut late = spec.clone();
        late.scenarios[0].measure_from = end;
        prop_assert!(late.validate().is_err(), "measure_from at {end}");
        let mut late = spec;
        late.scenarios[0].measure_from = 0;
        late.scenarios[0].schedule = FaultSchedule::builder()
            .odom_slip(end, end + 5, 1.5)
            .build()
            .expect("single ordered window");
        prop_assert!(late.validate().is_err(), "window at {end}");
        prop_assert!(FleetSpec::from_json_str(&format!("{}", late.to_json())).is_err());
    }
}
