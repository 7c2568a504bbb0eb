//! Criterion bench backing the Table I load column: one Cartographer-style
//! scan correction (prior-weighted Gauss–Newton plus the always-on
//! correlative matcher) against the test-track map.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use raceloc_bench::{build_cartographer, test_track};
use raceloc_core::localizer::Localizer;
use raceloc_range::RayMarching;
use raceloc_sim::{Lidar, LidarSpec};
use raceloc_slam::{CorrelativeScanMatcher, GaussNewtonRefiner, ProbabilityGrid, SearchWindow};

fn bench_scan_matching(c: &mut Criterion) {
    let track = test_track();
    let caster = RayMarching::new(&track.grid, 10.0);
    let mut lidar = Lidar::new(LidarSpec::default(), 5);
    let scan = lidar.scan(track.start_pose(), &caster, 0.0);

    let mut group = c.benchmark_group("scan_matching");

    group.bench_function("carto_correct", |b| {
        let mut loc = build_cartographer(&track);
        loc.reset(track.start_pose());
        b.iter(|| loc.correct(black_box(&scan)));
    });

    let grid = ProbabilityGrid::from_occupancy_smoothed(&track.grid, 0.15);
    let points = scan.to_points();
    let sensor_pose = track.start_pose();

    group.bench_function("correlative_window", |b| {
        let mut matcher = CorrelativeScanMatcher::new(0.05, 0.015);
        b.iter(|| {
            matcher.match_scan(
                &grid,
                black_box(&points),
                sensor_pose,
                SearchWindow::tracking(),
            )
        });
    });

    group.bench_function("gauss_newton_refine", |b| {
        let refiner = GaussNewtonRefiner::default();
        b.iter(|| refiner.refine(&grid, black_box(&points), sensor_pose));
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_scan_matching
}
criterion_main!(benches);
