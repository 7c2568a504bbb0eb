//! Rule R3 under faults: the same `(seed, schedule, budget)` must yield a
//! bitwise-identical run — every sample's pose and health — no matter how
//! many worker threads the simulator and the localizer use (DESIGN.md
//! §12, §14). The fleet pins inner threads to 1, so this is the only place
//! the thread sweep meets the fault catalog and the deadline ladder. The
//! runs are miniature: the point is the thread sweep, not the fault
//! physics.

use proptest::prelude::*;
use raceloc_bench::faults::{fault_catalog, pressure_scenarios};
use raceloc_bench::fleet::full_step_units;
use raceloc_bench::{test_track, track_artifacts, world_config, MU_HIGH_QUALITY};
use raceloc_core::{DeadlineConfig, Health};
use raceloc_eval::CLIFF_SCENARIO;
use raceloc_faults::FaultSchedule;
use raceloc_pf::{HealthPolicy, KldConfig, RecoveryConfig, SynPf, SynPfConfig};
use raceloc_sim::World;
use raceloc_slam::{CartoLocalizer, CartoLocalizerConfig, SlamHealthPolicy};

/// 2.5 s = 100 corrections, the catalog's smallest scale.
const DURATION_S: f64 = 2.5;
/// SynPF particle count (the KLD ceiling of a capped run).
const PARTICLES: usize = 250;

/// One sample of a run: the bit patterns of its true and estimated pose,
/// plus its health.
type Sample = ([[u64; 3]; 2], Health);

/// One oracle-control run on world seed `seed`. A positive `budget` arms
/// SynPF's deadline controller (with KLD resizing, as the fleet does);
/// `0` runs uncapped.
fn run(
    synpf: bool,
    schedule: &FaultSchedule,
    budget: u64,
    seed: u64,
    threads: usize,
) -> Vec<Sample> {
    let track = test_track();
    let mut wcfg = world_config(MU_HIGH_QUALITY, seed);
    wcfg.threads = threads;
    let mut world = World::new(track.clone(), wcfg);
    world.set_fault_schedule(schedule.clone());
    let log = if synpf {
        let mut builder = SynPfConfig::builder()
            .particles(PARTICLES)
            .threads(threads)
            .seed(7)
            .recovery(RecoveryConfig::default())
            .health(HealthPolicy::default());
        if budget > 0 {
            builder = builder
                .kld(KldConfig {
                    min_particles: PARTICLES / 4,
                    max_particles: PARTICLES,
                    ..KldConfig::default()
                })
                .deadline(DeadlineConfig {
                    budget_units: budget,
                    ..DeadlineConfig::default()
                });
        }
        let config = builder.build().expect("valid SynPF configuration");
        let mut pf = SynPf::from_artifacts(track_artifacts(&track), config);
        pf.enable_recovery(&track.grid);
        world.run_with_oracle_control(&mut pf, DURATION_S)
    } else {
        let config = CartoLocalizerConfig {
            health: Some(SlamHealthPolicy::default()),
            ..CartoLocalizerConfig::default()
        };
        let mut carto = CartoLocalizer::from_artifacts(&track_artifacts(&track), config);
        world.run_with_oracle_control(&mut carto, DURATION_S)
    };
    log.samples
        .iter()
        .map(|s| {
            let poses = [s.true_pose, s.est_pose];
            (
                poses.map(|p| [p.x.to_bits(), p.y.to_bits(), p.theta.to_bits()]),
                s.health,
            )
        })
        .collect()
}

#[test]
fn fault_runs_are_bitwise_identical_across_thread_counts() {
    let catalog = fault_catalog((DURATION_S * 40.0) as u64);
    // Kidnap exercises ground-truth teleport + health + recovery; dropout
    // exercises the per-beam RNG; latency exercises the stale-scan queue.
    let picks: Vec<_> = catalog
        .iter()
        .filter(|s| ["pose_kidnap", "beam_dropout", "latency"].contains(&s.name.as_str()))
        .collect();
    assert_eq!(picks.len(), 3, "catalog scenario names changed");

    for scenario in picks {
        for (synpf, method) in [(true, "SynPF"), (false, "Cartographer")] {
            let reference = run(synpf, &scenario.schedule, 0, 42, 1);
            assert!(reference.len() > 90, "{method} × {}", scenario.name);
            for threads in [2, 4] {
                assert!(
                    run(synpf, &scenario.schedule, 0, 42, threads) == reference,
                    "{method} × {} differs between 1 and {threads} threads",
                    scenario.name,
                );
            }
        }
    }
}

/// Runs capped SynPF at 1, 2 and 4 threads and requires identical runs.
fn assert_capped_thread_invariant(label: &str, schedule: &FaultSchedule, budget: u64, seed: u64) {
    let reference = run(true, schedule, budget, seed, 1);
    assert!(reference.len() > 90, "{label}");
    for threads in [2, 4] {
        assert!(
            run(true, schedule, budget, seed, threads) == reference,
            "{label} at budget {budget} differs between 1 and {threads} threads",
        );
    }
}

#[test]
fn capped_runs_under_pressure_are_bitwise_identical_across_thread_counts() {
    // A tight budget under the halving window walks the whole ladder:
    // descent, debounced climb, and (at 2%) bounded coasts + forced
    // misses — the paths where a thread-dependent reduction would show.
    let tight = full_step_units(PARTICLES) * 3 / 5;
    for scenario in &pressure_scenarios((DURATION_S * 40.0) as u64)[1..] {
        assert_capped_thread_invariant(&scenario.name, &scenario.schedule, tight, 42);
    }
}

#[test]
fn pressure_is_a_no_op_without_a_controller() {
    // ComputePressure only scales the deadline budget, so an uncapped run
    // under the cliff must match the fault-free run sample for sample.
    let scenarios = pressure_scenarios((DURATION_S * 40.0) as u64);
    let cliff = scenarios
        .iter()
        .find(|s| s.name == CLIFF_SCENARIO)
        .expect("the pressure axis has a cliff");
    let empty = FaultSchedule::builder().build().expect("empty schedule");
    let reference = run(true, &empty, 0, 42, 1);
    assert!(reference.len() > 90);
    assert!(run(true, &cliff.schedule, 0, 42, 1) == reference);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Ladder determinism over sampled budgets, pressure factors and
    /// world seeds: whatever rung sequence the controller picks, it must
    /// be the same sequence — and produce the same poses — on 1, 2 and
    /// 4 threads.
    #[test]
    fn sampled_budgets_and_pressures_stay_thread_invariant(
        seed in 1u64..1000,
        budget_pct in 25u64..160,
        factor in prop_oneof![Just(0.7f64), Just(0.4), Just(0.1)],
    ) {
        let total = (DURATION_S * 40.0) as u64;
        let schedule = FaultSchedule::builder()
            .seed(seed)
            .compute_pressure(total / 4, total / 2, factor)
            .build()
            .expect("valid schedule");
        let budget = full_step_units(PARTICLES) * budget_pct / 100;
        assert_capped_thread_invariant("sampled pressure", &schedule, budget, seed);
    }
}
