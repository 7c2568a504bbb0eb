//! Rule R3 under faults: the same `(seed, schedule)` must yield a
//! bitwise-identical run — every sample's pose and health — no matter how
//! many worker threads the simulator and the localizer use (DESIGN.md
//! §12). The fleet pins inner threads to 1, so this is the only place the
//! thread sweep meets the fault catalog. The runs are miniature: the point
//! is the thread sweep, not the fault physics.

use raceloc_bench::faults::fault_catalog;
use raceloc_bench::{test_track, track_artifacts, world_config, MU_HIGH_QUALITY};
use raceloc_core::Health;
use raceloc_faults::FaultSchedule;
use raceloc_pf::{HealthPolicy, RecoveryConfig, SynPf, SynPfConfig};
use raceloc_sim::World;
use raceloc_slam::{CartoLocalizer, CartoLocalizerConfig, SlamHealthPolicy};

/// 2.5 s = 100 corrections, the catalog's smallest scale.
const DURATION_S: f64 = 2.5;

/// One oracle-control run, reduced to the bit patterns of every sample's
/// true and estimated pose plus its health.
fn run(synpf: bool, schedule: &FaultSchedule, threads: usize) -> Vec<([[u64; 3]; 2], Health)> {
    let track = test_track();
    let mut wcfg = world_config(MU_HIGH_QUALITY, 42);
    wcfg.threads = threads;
    let mut world = World::new(track.clone(), wcfg);
    world.set_fault_schedule(schedule.clone());
    let log = if synpf {
        let config = SynPfConfig::builder()
            .particles(250)
            .threads(threads)
            .seed(7)
            .recovery(RecoveryConfig::default())
            .health(HealthPolicy::default())
            .build()
            .expect("valid SynPF configuration");
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
            let reference = run(synpf, &scenario.schedule, 1);
            assert!(reference.len() > 90, "{method} × {}", scenario.name);
            for threads in [2, 4] {
                assert!(
                    run(synpf, &scenario.schedule, threads) == reference,
                    "{method} × {} differs between 1 and {threads} threads",
                    scenario.name,
                );
            }
        }
    }
}
