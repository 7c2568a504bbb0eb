//! Exercise the four rangelibc-style range-query methods on a generated
//! map and print a consistency/performance snapshot.
//!
//! Run with `cargo run --release --example range_methods`.

use raceloc::map::{TrackShape, TrackSpec};
use raceloc::obs::Stopwatch;
use raceloc::range::{
    ArtifactParams, BresenhamCasting, Cddt, MapArtifacts, RangeMethod, RayMarching,
};

fn main() {
    let track = TrackSpec::new(TrackShape::Oval {
        width: 12.0,
        height: 7.0,
    })
    .resolution(0.05)
    .build();

    // Query from a pose on the raceline looking down-track.
    let pose = track.start_pose();
    println!(
        "casting from {} on a {:.0}×{:.0} cell map\n",
        pose,
        track.grid.width() as f64,
        track.grid.height() as f64
    );

    let bres = BresenhamCasting::new(&track.grid, 10.0);
    let rm = RayMarching::new(&track.grid, 10.0);
    let cddt = Cddt::new(&track.grid, 10.0, 180);
    // The LUT row goes through the shared artifact bundle (the form every
    // localizer constructor now takes); its RangeMethod impl delegates to
    // the table, which fills a cell on the first query that lands in it.
    let artifacts = MapArtifacts::build(&track.grid, ArtifactParams::default());

    println!(
        "{:<14} {:>9} {:>9} {:>9} {:>12}",
        "method", "ahead", "left", "right", "mem [MB]"
    );
    let methods: [(&str, &dyn RangeMethod); 4] = [
        ("bresenham", &bres),
        ("ray-marching", &rm),
        ("cddt", &cddt),
        ("lut", &artifacts),
    ];
    for (name, m) in methods {
        let ahead = m.range(pose.x, pose.y, pose.theta);
        let left = m.range(pose.x, pose.y, pose.theta + std::f64::consts::FRAC_PI_2);
        let right = m.range(pose.x, pose.y, pose.theta - std::f64::consts::FRAC_PI_2);
        println!(
            "{name:<14} {ahead:>8.2}m {left:>8.2}m {right:>8.2}m {:>12.2}",
            m.memory_bytes() as f64 / 1e6
        );
    }

    // A quick throughput shoot-out on a 360° sweep.
    println!();
    let sweep: Vec<(f64, f64, f64)> = (0..3600)
        .map(|i| (pose.x, pose.y, i as f64 * 0.1f64.to_radians()))
        .collect();
    for (name, m) in [
        ("bresenham", &bres as &dyn RangeMethod),
        ("ray-marching", &rm),
        ("cddt", &cddt),
        ("lut", &artifacts),
    ] {
        let mut out = vec![0.0; sweep.len()];
        let t0 = Stopwatch::start();
        m.ranges_into(&sweep, &mut out);
        println!(
            "{name:<14} 3600-beam sweep in {:>7.2} ms",
            t0.elapsed_seconds() * 1e3
        );
    }
}
