//! Lockstep oracle-control runs: several localizers stepped on one
//! simulated trajectory must each see exactly what a solo run shows them.
//!
//! Under oracle control the world never reads a localizer, so
//! `World::run_with_oracle_control_all` may share one trajectory between
//! SynPF, Cartographer and dead reckoning. This suite pins that sharing
//! bit for bit — estimates, health and the crash flag — under a fault
//! schedule that exercises every stateful path of the closed loop
//! (latency backlog, blackout, kidnap, compute pressure), at simulator and
//! filter widths 1, 2 and 4.

use raceloc::core::localizer::{DeadReckoning, Localizer};
use raceloc::core::{DeadlineConfig, Health};
use raceloc::map::{Track, TrackShape, TrackSpec};
use raceloc::pf::{HealthPolicy, KldConfig, SynPf, SynPfConfig};
use raceloc::range::{ArtifactParams, MapArtifacts};
use raceloc::sim::{SimLog, World, WorldConfig};
use raceloc::slam::{CartoLocalizer, CartoLocalizerConfig, SlamHealthPolicy};
use raceloc_faults::FaultSchedule;
use std::sync::Arc;

const DURATION_S: f64 = 2.5;

fn track() -> Track {
    TrackSpec::new(TrackShape::Oval {
        width: 11.0,
        height: 6.5,
    })
    .resolution(0.1)
    .build()
}

fn faulted_world(track: &Track, threads: usize) -> World {
    let mut cfg = WorldConfig::default();
    cfg.lidar.beams = 121; // lighter scans for debug-mode speed
    cfg.seed = 17;
    cfg.threads = threads;
    let mut world = World::new(track.clone(), cfg);
    world.set_fault_schedule(
        FaultSchedule::builder()
            .seed(5)
            .latency(20, 35, 3)
            .lidar_blackout(40, 46)
            .pose_kidnap(55, 1.5)
            .compute_pressure(60, 85, 0.3)
            .build()
            .expect("valid schedule"),
    );
    world
}

/// Fresh SynPF (deadline-capped, so pressure changes its work),
/// Cartographer and dead reckoning, with health monitoring on.
fn localizers(
    track: &Track,
    artifacts: &Arc<MapArtifacts>,
    threads: usize,
) -> (SynPf<Arc<MapArtifacts>>, CartoLocalizer, DeadReckoning) {
    let config = SynPfConfig::builder()
        .particles(250)
        .threads(threads)
        .seed(3)
        .health(HealthPolicy::default())
        .kld(KldConfig {
            min_particles: 60,
            max_particles: 250,
            ..KldConfig::default()
        })
        .deadline(DeadlineConfig {
            budget_units: 40_000,
            ..DeadlineConfig::default()
        })
        .build()
        .expect("valid config");
    let mut pf = SynPf::from_artifacts(Arc::clone(artifacts), config);
    pf.enable_recovery(&track.grid);
    let carto = CartoLocalizer::from_artifacts(
        artifacts,
        CartoLocalizerConfig {
            health: Some(SlamHealthPolicy::default()),
            ..CartoLocalizerConfig::default()
        },
    );
    (pf, carto, DeadReckoning::new())
}

/// The deterministic content of a log: per sample the stamp, true and
/// estimated pose bits and health, plus the crash flag.
type LogKey = (Vec<(u64, [u64; 6], Health)>, bool);

fn key(log: &SimLog) -> LogKey {
    let samples = log
        .samples
        .iter()
        .map(|s| {
            let (t, e) = (s.true_pose, s.est_pose);
            (
                s.stamp.to_bits(),
                [t.x, t.y, t.theta, e.x, e.y, e.theta].map(f64::to_bits),
                s.health,
            )
        })
        .collect();
    (samples, log.crashed)
}

#[test]
fn lockstep_group_matches_solo_runs_bitwise() {
    let track = track();
    let artifacts = Arc::new(MapArtifacts::build(&track.grid, ArtifactParams::default()));
    let mut reference: Option<Vec<LogKey>> = None;
    for threads in [1usize, 2, 4] {
        let (mut pf, mut carto, mut dr) = localizers(&track, &artifacts, threads);
        let group = faulted_world(&track, threads)
            .run_with_oracle_control_all(&mut [&mut pf, &mut carto, &mut dr], DURATION_S);
        assert_eq!(group.len(), 3, "one log per localizer");

        let (mut pf, mut carto, mut dr) = localizers(&track, &artifacts, threads);
        let solo_localizers: [&mut dyn Localizer; 3] = [&mut pf, &mut carto, &mut dr];
        let group_keys: Vec<_> = group.iter().map(key).collect();
        for ((localizer, shared), name) in solo_localizers.into_iter().zip(&group_keys).zip([
            "SynPF",
            "Cartographer",
            "DeadReckoning",
        ]) {
            let solo =
                faulted_world(&track, threads).run_with_oracle_control(localizer, DURATION_S);
            assert!(solo.samples.len() > 90, "{name}: run cut short");
            assert_eq!(
                &key(&solo),
                shared,
                "{name} diverged from its solo run at threads={threads}"
            );
        }
        // The schedule's faults must have bitten: the capped, pressured
        // SynPF and the kidnap leave a visible trace in health.
        assert!(
            group_keys
                .iter()
                .any(|(samples, _)| samples.iter().any(|s| s.2 != Health::Nominal)),
            "no localizer ever left Nominal"
        );
        match &reference {
            None => reference = Some(group_keys),
            Some(r) => assert_eq!(r, &group_keys, "group diverged at threads={threads}"),
        }
    }
}
