//! **Ablation A2 — range-method comparison** (paper §II / rangelibc).
//!
//! Throughput, memory, and accuracy of the four CPU range-query methods on
//! the test-track map, plus the multi-threaded batch mode that substitutes
//! for rangelibc's GPU ray casting.
//!
//! Run with `cargo run -p raceloc-bench --release --bin ablation_range`.

use raceloc_bench::test_track;
use raceloc_core::Rng64;
use raceloc_map::CellState;
use raceloc_obs::Stopwatch;
use raceloc_range::{BresenhamCasting, Cddt, RangeLut, RangeMethod, RayMarching};

fn free_space_queries(track: &raceloc_map::Track, n: usize) -> Vec<(f64, f64, f64)> {
    let mut rng = Rng64::new(17);
    let (lo, hi) = track.grid.bounds();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let x = rng.uniform_range(lo.x, hi.x);
        let y = rng.uniform_range(lo.y, hi.y);
        if track.grid.state_at_world(raceloc_core::Point2::new(x, y)) == CellState::Free {
            out.push((
                x,
                y,
                rng.uniform_range(-std::f64::consts::PI, std::f64::consts::PI),
            ));
        }
    }
    out
}

fn bench_method<M: RangeMethod>(
    name: &str,
    method: &M,
    queries: &[(f64, f64, f64)],
    reference: &[f64],
    build_seconds: f64,
) {
    let mut out = vec![0.0; queries.len()];
    // Warm up.
    method.ranges_into(
        &queries[..1000.min(queries.len())],
        &mut out[..1000.min(queries.len())],
    );
    let t0 = Stopwatch::start();
    method.ranges_into(queries, &mut out);
    let per_query_ns = t0.elapsed_seconds() / queries.len() as f64 * 1e9;
    let mut err = raceloc_core::RunningStats::new();
    for (a, b) in out.iter().zip(reference) {
        err.push((a - b).abs());
    }
    println!(
        "{:<14} {:>10.1} {:>12.1} {:>11.2} {:>11.3} {:>10.2}",
        name,
        per_query_ns,
        1e3 / per_query_ns * 1e6 / 1e3, // queries per ms
        method.memory_bytes() as f64 / 1e6,
        err.mean() * 100.0,
        build_seconds,
    );
}

fn main() {
    println!("Range-method comparison on the test-track map (60k random free-space");
    println!("queries; error measured against exact Bresenham casting).");
    println!();
    println!(
        "{:<14} {:>10} {:>12} {:>11} {:>11} {:>10}",
        "method", "ns/query", "queries/ms", "mem [MB]", "err [cm]", "build [s]"
    );
    let track = test_track();
    let queries = free_space_queries(&track, 60_000);

    let t0 = Stopwatch::start();
    let bres = BresenhamCasting::new(&track.grid, 10.0);
    let bres_build = t0.elapsed_seconds();
    let mut reference = vec![0.0; queries.len()];
    bres.ranges_into(&queries, &mut reference);
    bench_method("bresenham", &bres, &queries, &reference, bres_build);

    let t0 = Stopwatch::start();
    let rm = RayMarching::new(&track.grid, 10.0);
    let rm_build = t0.elapsed_seconds();
    bench_method("ray-marching", &rm, &queries, &reference, rm_build);

    let t0 = Stopwatch::start();
    let cddt = Cddt::new(&track.grid, 10.0, 180);
    let cddt_build = t0.elapsed_seconds();
    bench_method("cddt", &cddt, &queries, &reference, cddt_build);

    let t0 = Stopwatch::start();
    let mut pruned = Cddt::new(&track.grid, 10.0, 180);
    pruned.prune();
    let pruned_build = t0.elapsed_seconds();
    bench_method("cddt-pruned", &pruned, &queries, &reference, pruned_build);

    let t0 = Stopwatch::start();
    let lut = RangeLut::new(&track.grid, 10.0, 72);
    let lut_build = t0.elapsed_seconds();
    bench_method("lut", &lut, &queries, &reference, lut_build);

    println!();
    println!("Threaded batch casting (GPU-mode substitute), Bresenham backend:");
    for threads in [1, 2, 4, 8] {
        let mut out = vec![0.0; queries.len()];
        let t0 = Stopwatch::start();
        bres.par_ranges_into(&queries, &mut out, threads);
        println!(
            "  threads={threads}: {:>8.1} ns/query",
            t0.elapsed_seconds() / queries.len() as f64 * 1e9
        );
    }
}
