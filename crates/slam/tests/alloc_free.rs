//! Steady-state allocation audit of the Cartographer pure localizer: the
//! constructor sizes the downsampled-point buffer, the matcher's per-angle
//! tables and the stage list for the configured point cap and window, so
//! after a warm-up a predict/correct step performs **zero heap
//! allocations**, even when a later scan has more valid points than any
//! before it.
//!
//! The audit uses a counting `#[global_allocator]` wrapper, so everything
//! in this binary is counted; the measured window touches only the
//! localizer step. A single `#[test]` keeps the global counter race-free.

use alloc_counter::CountingAlloc;
use raceloc_core::localizer::Localizer;
use raceloc_core::sensor_data::{LaserScan, Odometry};
use raceloc_core::{Pose2, Twist2};
use raceloc_map::{TrackShape, TrackSpec};
use raceloc_range::{ArtifactParams, MapArtifacts, RangeMethod, RayMarching};
use raceloc_slam::{CartoLocalizer, CartoLocalizerConfig, SlamHealthPolicy};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Allocation events (allocs + reallocs) observed while running `f`.
fn alloc_events<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOC.total_events();
    let result = f();
    (ALLOC.total_events() - before, result)
}

fn drive(loc: &mut CartoLocalizer, scan: &LaserScan, steps: usize, t0: usize) {
    let mut odom_pose = Pose2::IDENTITY;
    for i in 0..steps {
        odom_pose = odom_pose * Pose2::new(0.01, 0.0, 0.002);
        let stamp = (t0 + i) as f64 * 0.025;
        loc.predict(&Odometry::new(
            odom_pose,
            Twist2::new(0.4, 0.0, 0.08),
            stamp,
        ));
        loc.correct(scan);
    }
}

/// `scan` with only `keep` of its beams returning: beam `i` stays when
/// `i · keep mod beams < keep`, which picks exactly `keep` beams spread
/// over the fan when the beam count is prime; the rest read max range.
fn thinned(scan: &LaserScan, keep: usize) -> LaserScan {
    let beams = scan.ranges.len();
    let ranges = (0..beams)
        .map(|i| {
            if i * keep % beams < keep {
                scan.ranges[i]
            } else {
                scan.max_range
            }
        })
        .collect();
    LaserScan::new(scan.angle_min, scan.angle_increment, ranges, scan.max_range)
}

#[test]
fn steady_state_step_allocates_nothing() {
    let track = TrackSpec::new(TrackShape::Oval {
        width: 12.0,
        height: 7.0,
    })
    .resolution(0.1)
    .build();
    // 271 beams over 270°: more valid returns than `max_points`, so the
    // strided pick runs.
    let scan = {
        let caster = RayMarching::new(&track.grid, 10.0);
        let beams = 271;
        let fov = 270.0f64.to_radians();
        let inc = fov / (beams - 1) as f64;
        let sensor = track.start_pose() * Pose2::new(0.1, 0.0, 0.0);
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
    };
    let artifacts = MapArtifacts::build(&track.grid, ArtifactParams::default());

    for health in [None, Some(SlamHealthPolicy::default())] {
        let config = CartoLocalizerConfig {
            health,
            ..CartoLocalizerConfig::default()
        };
        let mut loc = CartoLocalizer::from_artifacts(&artifacts, config);
        loc.reset(track.start_pose());
        drive(&mut loc, &scan, 4, 0);

        let (events, ()) = alloc_events(|| drive(&mut loc, &scan, 20, 4));
        assert_eq!(
            events, 0,
            "steady-state correction (health {health:?}) must not touch the heap"
        );
    }

    // Each scan below has more valid points than any before it (all below
    // `max_points`), a new high-water mark of every buffer; the default
    // rescue score of 1.0 runs the correlative search on every correction,
    // so the mark reaches the matcher's tables too.
    let config = CartoLocalizerConfig::default();
    assert!(config.correlative_rescue_score >= 1.0);
    let keeps = [30, 50, 70, 90, 110];
    assert!(keeps.iter().all(|&k| k < config.max_points));
    let mut loc = CartoLocalizer::from_artifacts(&artifacts, config);
    loc.reset(track.start_pose());
    drive(&mut loc, &thinned(&scan, keeps[0]), 4, 0);
    let mut odom_pose = Pose2::IDENTITY;
    for (i, &keep) in keeps.iter().enumerate().skip(1) {
        let sparse = thinned(&scan, keep);
        assert_eq!(sparse.valid_returns().count(), keep);
        odom_pose = odom_pose * Pose2::new(0.01, 0.0, 0.002);
        let odom = Odometry::new(
            odom_pose,
            Twist2::new(0.4, 0.0, 0.08),
            (4 + i) as f64 * 0.025,
        );
        let (events, ()) = alloc_events(|| {
            loc.predict(&odom);
            loc.correct(&sparse);
        });
        assert_eq!(
            events, 0,
            "the first scan with {keep} valid points must not touch the heap"
        );
        let stages = loc.diagnostics().stages;
        assert!(
            stages.iter().any(|(name, _)| name == "correlative"),
            "the correlative rescue ran: {stages:?}"
        );
    }
}
