//! Steady-state allocation audit of the Cartographer pure localizer: once
//! a warm-up has sized the downsampled-point buffer, the matcher's
//! per-angle tables and the stage list, a predict/correct step performs
//! **zero heap allocations**.
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
}
