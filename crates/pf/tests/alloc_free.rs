//! Steady-state allocation audit (ISSUE 3 acceptance): after a warm-up
//! phase that sizes every scratch buffer, a full SynPF predict/correct
//! step must perform **zero heap allocations** — the property the fused
//! pipeline, the beam-selection cache, the in-place resampler, and the
//! reusable chunk jobs (DESIGN.md §11) combine to deliver.
//!
//! The audit uses a counting `#[global_allocator]` wrapper, so everything
//! in this binary is counted; the measured window touches only the filter
//! step. A single `#[test]` keeps the global counter race-free.

use alloc_counter::CountingAlloc;
use raceloc_core::localizer::Localizer;
use raceloc_core::sensor_data::{LaserScan, Odometry};
use raceloc_core::{Pose2, Twist2};
use raceloc_map::{TrackShape, TrackSpec};
use raceloc_pf::{SynPf, SynPfConfig};
use raceloc_range::{ArtifactParams, MapArtifacts, RangeMethod, RayMarching};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Allocation events (allocs + reallocs) observed while running `f`.
fn alloc_events<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOC.total_events();
    let result = f();
    (ALLOC.total_events() - before, result)
}

/// Runs `steps` predict/correct steps, cycling through `scans`. Returns
/// the lowest recovery ratio `w_fast / w_slow` seen after a correction
/// (1 when recovery is off).
fn drive_cycling<M: RangeMethod + 'static>(
    pf: &mut SynPf<M>,
    scans: &[LaserScan],
    steps: usize,
    t0: usize,
) -> f64 {
    let mut odom_pose = Pose2::IDENTITY;
    let mut min_ratio = 1.0f64;
    for (i, scan) in scans.iter().cycle().take(steps).enumerate() {
        odom_pose = odom_pose * Pose2::new(0.02, 0.0, 0.003);
        pf.predict(&Odometry::new(
            odom_pose,
            Twist2::new(0.4, 0.0, 0.05),
            (t0 + i) as f64 * 0.05,
        ));
        pf.correct(scan);
        min_ratio = min_ratio.min(pf.recovery_health().unwrap_or(1.0));
    }
    min_ratio
}

fn drive(pf: &mut SynPf<RayMarching>, scan: &LaserScan, steps: usize, t0: usize) {
    drive_cycling(pf, std::slice::from_ref(scan), steps, t0);
}

/// A noise-free 181-beam, 270° scan of `track` from `sensor`.
fn cast_scan(track: &raceloc_map::Track, sensor: Pose2) -> LaserScan {
    let caster = RayMarching::new(&track.grid, 10.0);
    let beams = 181;
    let fov = 270.0f64.to_radians();
    let inc = fov / (beams - 1) as f64;
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

#[test]
fn steady_state_step_allocates_nothing() {
    let track = TrackSpec::new(TrackShape::Oval {
        width: 12.0,
        height: 7.0,
    })
    .resolution(0.1)
    .build();
    let scan = cast_scan(&track, track.start_pose() * Pose2::new(0.1, 0.0, 0.0));

    // Sequential configuration: the strict paper setup (threads = 1,
    // default config — no KLD, no recovery, telemetry disabled).
    let caster = RayMarching::new(&track.grid, 10.0);
    let config = SynPfConfig::builder()
        .particles(600)
        .seed(9)
        .build()
        .expect("valid config");
    let mut pf = SynPf::new(caster, config);
    pf.reset(track.start_pose());
    // Warm-up: sizes the beam cache, chunk jobs, log-weight and resample
    // scratch, and triggers at least one resample.
    drive(&mut pf, &scan, 8, 0);

    let (events, ()) = alloc_events(|| drive(&mut pf, &scan, 20, 8));
    assert_eq!(
        events, 0,
        "sequential steady-state step must not touch the heap"
    );

    // Pooled configuration: the persistent worker pool exchanges owned job
    // buffers, so the multi-threaded path is allocation-free too.
    let caster = RayMarching::new(&track.grid, 10.0);
    let config = SynPfConfig::builder()
        .particles(600)
        .threads(2)
        .seed(9)
        .build()
        .expect("valid config");
    let mut pf = SynPf::new(caster, config);
    pf.reset(track.start_pose());
    drive(&mut pf, &scan, 8, 0);

    let (events, ()) = alloc_events(|| drive(&mut pf, &scan, 20, 8));
    assert_eq!(
        events, 0,
        "pooled steady-state step must not touch the heap"
    );

    // Recovery-enabled configuration (augmented MCL): a scan seen from a
    // quarter turn off the true heading collapses the short-term
    // likelihood every other step, so uniform free-space particles are
    // injected during resampling. The draws come from the free-cell list
    // built once by `enable_recovery`, so injection allocates nothing.
    let wrong = cast_scan(
        &track,
        track.start_pose() * Pose2::new(0.1, 0.0, std::f64::consts::FRAC_PI_2),
    );
    let scans = [scan.clone(), wrong];
    let caster = RayMarching::new(&track.grid, 10.0);
    let config = SynPfConfig::builder()
        .particles(600)
        .seed(9)
        .build()
        .expect("valid config");
    let mut pf = SynPf::new(caster, config);
    pf.enable_recovery(&track.grid);
    pf.reset(track.start_pose());
    drive_cycling(&mut pf, &scans, 8, 0);

    let (events, min_ratio) = alloc_events(|| drive_cycling(&mut pf, &scans, 20, 8));
    // Injection replaces round(N · (1 − w_fast/w_slow)) particles.
    assert!(
        600.0 * (1.0 - min_ratio) >= 1.0,
        "recovery injection never fired (min w_fast/w_slow {min_ratio})"
    );
    assert_eq!(
        events, 0,
        "recovery-enabled steady-state step must not touch the heap"
    );

    // The same recovery run on a shared artifact bundle, whose range LUT
    // marches a cell's heading fan the first time a query lands in it:
    // injected particles land in cells no query has touched yet, so fills
    // run inside the measured window, and a fill allocates nothing.
    let artifacts = Arc::new(MapArtifacts::build(&track.grid, ArtifactParams::default()));
    let config = SynPfConfig::builder()
        .particles(600)
        .seed(9)
        .build()
        .expect("valid config");
    let mut pf = SynPf::from_artifacts(Arc::clone(&artifacts), config);
    pf.enable_recovery(&track.grid);
    pf.reset(track.start_pose());
    drive_cycling(&mut pf, &scans, 8, 0);

    let filled = artifacts.lut().cells_filled();
    let (events, min_ratio) = alloc_events(|| drive_cycling(&mut pf, &scans, 20, 8));
    assert!(
        600.0 * (1.0 - min_ratio) >= 1.0,
        "recovery injection never fired (min w_fast/w_slow {min_ratio})"
    );
    assert!(
        artifacts.lut().cells_filled() > filled,
        "no LUT cell was filled in the measured window"
    );
    assert_eq!(
        events, 0,
        "filling LUT cells on first touch must not touch the heap"
    );
}
