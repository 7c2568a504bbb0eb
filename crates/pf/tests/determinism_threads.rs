//! Cross-thread-count determinism (ISSUE 3, satellite 4): a full SynPF
//! step sequence — motion sampling with per-chunk RNG streams, the fused
//! cast+weight kernel, ESS-gated resampling, KLD adaptation, and recovery
//! injection — must produce **bit-identical** results for any `threads`
//! value. This is the rule-R3 contract the parallel pipeline (DESIGN.md
//! §11) is built around: the chunk layout and the counter-derived motion
//! streams are pure functions of the configuration, never of the worker
//! count or scheduling.

use raceloc_core::localizer::Localizer;
use raceloc_core::sensor_data::{LaserScan, Odometry};
use raceloc_core::{Pose2, Twist2};
use raceloc_map::{Track, TrackShape, TrackSpec};
use raceloc_pf::{KldConfig, RecoveryConfig, SynPf, SynPfConfig};
use raceloc_range::{RangeMethod, RayMarching};

fn track() -> Track {
    TrackSpec::new(TrackShape::Oval {
        width: 12.0,
        height: 7.0,
    })
    .resolution(0.1)
    .build()
}

fn scan_from(track: &Track, pose: Pose2, mount: Pose2) -> LaserScan {
    let caster = RayMarching::new(&track.grid, 10.0);
    let beams = 181;
    let fov = 270.0f64.to_radians();
    let inc = fov / (beams - 1) as f64;
    let sensor = pose * mount;
    let ranges: Vec<f64> = (0..beams)
        .map(|i| {
            caster.range(
                sensor.x,
                sensor.y,
                sensor.theta - 0.5 * fov + i as f64 * inc,
            )
        })
        .collect();
    LaserScan::new(-0.5 * fov, inc, ranges, 10.0)
}

/// Runs a predict/correct sequence and returns the full filter state:
/// every particle, every weight, and the estimate.
fn run_steps(config: SynPfConfig, steps: usize) -> (Vec<[f64; 3]>, Vec<f64>, [f64; 3]) {
    let t = track();
    let caster = RayMarching::new(&t.grid, 10.0);
    let mut pf = SynPf::new(caster, config);
    pf.reset(t.start_pose());
    let scan = scan_from(&t, t.start_pose(), pf.config().lidar_mount);
    let mut odom_pose = Pose2::IDENTITY;
    for i in 0..steps {
        let step = Pose2::new(0.03, 0.0, 0.005);
        odom_pose = odom_pose * step;
        pf.predict(&Odometry::new(
            odom_pose,
            Twist2::new(0.6, 0.0, 0.1),
            i as f64 * 0.05,
        ));
        pf.correct(&scan);
    }
    (
        pf.particles().iter().map(|p| p.to_array()).collect(),
        pf.weights().to_vec(),
        pf.pose().to_array(),
    )
}

#[test]
fn full_step_bitwise_identical_across_thread_counts() {
    let base = SynPfConfig::builder()
        .particles(500)
        .seed(23)
        .build()
        .expect("valid config");
    let reference = run_steps(base.clone(), 6);
    for threads in [2usize, 4, 8] {
        let config = SynPfConfig {
            threads,
            ..base.clone()
        };
        let got = run_steps(config, 6);
        assert_eq!(
            got.0, reference.0,
            "particles diverged at threads={threads}"
        );
        assert_eq!(got.1, reference.1, "weights diverged at threads={threads}");
        assert_eq!(got.2, reference.2, "estimate diverged at threads={threads}");
    }
}

#[test]
fn kld_and_recovery_paths_stay_deterministic_across_threads() {
    let t = track();
    let run = |threads: usize| {
        let caster = RayMarching::new(&t.grid, 10.0);
        let config = SynPfConfig::builder()
            .particles(900)
            .threads(threads)
            .kld(KldConfig {
                min_particles: 120,
                ..KldConfig::default()
            })
            .recovery(RecoveryConfig::default())
            .seed(11)
            .build()
            .expect("valid config");
        let mut pf = SynPf::new(caster, config);
        pf.enable_recovery(&t.grid);
        pf.reset(t.start_pose());
        let scan = scan_from(&t, t.start_pose(), pf.config().lidar_mount);
        for i in 0..10 {
            pf.predict(&Odometry::new(
                Pose2::IDENTITY,
                Twist2::ZERO,
                i as f64 * 0.05,
            ));
            pf.correct(&scan);
        }
        (
            pf.particles().to_vec(),
            pf.weights().to_vec(),
            pf.pose().to_array(),
        )
    };
    let seq = run(1);
    let par = run(4);
    assert_eq!(seq.0, par.0, "KLD-resized particle sets diverged");
    assert_eq!(seq.1, par.1);
    assert_eq!(seq.2, par.2);
}

#[test]
fn health_and_dropout_paths_stay_deterministic_across_threads() {
    // Health monitoring plus invalid (dropped) beams exercise every new
    // branch of the correction path: the finite-beam job filter, the
    // blackout coast, and the detector EMAs. All of it must stay
    // bit-identical across thread counts (rule R3).
    let t = track();
    let run = |threads: usize| {
        let caster = RayMarching::new(&t.grid, 10.0);
        let config = SynPfConfig::builder()
            .particles(600)
            .threads(threads)
            .recovery(RecoveryConfig::default())
            .health(raceloc_pf::HealthPolicy::default())
            .seed(17)
            .build()
            .expect("valid config");
        let mut pf = SynPf::new(caster, config);
        pf.enable_recovery(&t.grid);
        pf.reset(t.start_pose());
        let clean = scan_from(&t, t.start_pose(), pf.config().lidar_mount);
        for i in 0..12 {
            pf.predict(&Odometry::new(
                Pose2::IDENTITY,
                Twist2::ZERO,
                i as f64 * 0.05,
            ));
            let mut scan = clean.clone();
            scan.stamp = i as f64 * 0.05;
            if (4..6).contains(&i) {
                // Blackout window: every beam invalid.
                scan.ranges.iter_mut().for_each(|r| *r = f64::INFINITY);
            } else {
                // Deterministic partial dropout: every 7th beam invalid.
                for (b, r) in scan.ranges.iter_mut().enumerate() {
                    if b % 7 == 0 {
                        *r = f64::INFINITY;
                    }
                }
            }
            pf.correct(&scan);
        }
        (
            pf.particles().to_vec(),
            pf.weights().to_vec(),
            pf.pose().to_array(),
            pf.health(),
        )
    };
    let seq = run(1);
    for threads in [2usize, 4] {
        let par = run(threads);
        assert_eq!(seq.0, par.0, "particles diverged at threads={threads}");
        assert_eq!(seq.1, par.1, "weights diverged at threads={threads}");
        assert_eq!(seq.2, par.2, "estimate diverged at threads={threads}");
        assert_eq!(seq.3, par.3, "health state diverged at threads={threads}");
    }
}

#[test]
fn pool_spawns_only_in_threaded_mode_and_reports_stats() {
    let t = track();
    let mk = |threads: usize| {
        let caster = RayMarching::new(&t.grid, 10.0);
        let config = SynPfConfig::builder()
            .particles(300)
            .threads(threads)
            .seed(3)
            .build()
            .expect("valid config");
        let mut pf = SynPf::new(caster, config);
        pf.reset(t.start_pose());
        let scan = scan_from(&t, t.start_pose(), pf.config().lidar_mount);
        pf.correct(&scan);
        pf
    };
    assert!(mk(1).pool_stats().is_none(), "threads=1 must stay inline");
    let stats = mk(4).pool_stats().expect("pool spawned for threads=4");
    assert!(stats.batches >= 1);
    assert!(stats.jobs >= 1);
}
