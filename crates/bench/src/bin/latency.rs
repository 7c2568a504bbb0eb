//! **Experiment E3** — the paper's headline "1.25 ms scan matching on a
//! GPU-less on-board computer": wall-clock latency of one SynPF sensor
//! update (boxed 60-beam layout, LUT range queries) as a function of the
//! particle count, plus the same measurement for the other range methods.
//!
//! All numbers come from the `raceloc-obs` telemetry spans the filter
//! records (`pf.motion` / `pf.cast_weight` / `pf.reduce` / `pf.resample` /
//! `pf.correct`), so the per-stage breakdown printed here is the same
//! data path `World::run_recorded` streams to JSONL.
//!
//! Run with `cargo run -p raceloc-bench --release --bin latency`.

use raceloc_bench::{test_track, track_artifacts};
use raceloc_core::localizer::Localizer;
use raceloc_core::sensor_data::LaserScan;
use raceloc_obs::{names, Snapshot, Telemetry};
use raceloc_pf::{SynPf, SynPfConfig};
use raceloc_range::{BresenhamCasting, Cddt, RangeMethod, RayMarching};
use raceloc_sim::{Lidar, LidarSpec};
use std::sync::Arc;

fn scan_at_start(track: &raceloc_map::Track) -> LaserScan {
    let caster = RayMarching::new(&track.grid, 10.0);
    let mut lidar = Lidar::new(LidarSpec::default(), 5);
    lidar.scan(track.start_pose(), &caster, 0.0)
}

/// Runs warm-up + timed corrections and returns the telemetry snapshot the
/// filter recorded over the timed repetitions.
fn measure_pf<M: RangeMethod + 'static>(
    caster: M,
    particles: usize,
    threads: usize,
    track: &raceloc_map::Track,
    scan: &LaserScan,
) -> Snapshot {
    let config = SynPfConfig::builder()
        .particles(particles)
        .threads(threads)
        .build()
        .expect("latency bench config is valid");
    let mut pf = SynPf::new(caster, config);
    let tel = Telemetry::enabled();
    pf.set_telemetry(tel.clone());
    pf.reset(track.start_pose());
    // Warm up, then reset the telemetry so only timed reps are aggregated.
    for _ in 0..3 {
        pf.correct(scan);
    }
    tel.reset();
    for _ in 0..20 {
        pf.correct(scan);
    }
    tel.snapshot()
}

fn correct_ms(snap: &Snapshot) -> f64 {
    snap.span(names::PF_CORRECT.as_str())
        .map(|s| s.mean_seconds() * 1e3)
        .unwrap_or(f64::NAN)
}

fn print_stage_breakdown(snap: &Snapshot) {
    println!(
        "  {:<14} {:>10} {:>10} {:>10}",
        "stage", "mean [ms]", "min [ms]", "max [ms]"
    );
    for stage in [
        names::PF_MOTION,
        names::PF_CAST_WEIGHT,
        names::PF_REDUCE,
        names::PF_RESAMPLE,
        names::PF_CORRECT,
    ] {
        if let Some(s) = snap.span(stage.as_str()) {
            println!(
                "  {:<14} {:>10.4} {:>10.4} {:>10.4}",
                stage.as_str(),
                s.mean_seconds() * 1e3,
                s.min_seconds * 1e3,
                s.max_seconds * 1e3,
            );
        }
    }
    if let Some(h) = snap.histogram(names::PF_CORRECT.as_str()) {
        let p = |q: f64| {
            h.quantile_upper_bound(q)
                .map(|s| format!("{:.3}", s * 1e3))
                .unwrap_or_else(|| "n/a".into())
        };
        println!(
            "  pf.correct latency histogram: p50 ≤ {} ms, p90 ≤ {} ms, p99 ≤ {} ms",
            p(0.5),
            p(0.9),
            p(0.99)
        );
    }
}

fn main() {
    println!("SynPF sensor-update latency (paper: 1.25 ms on an i5-10210U, LUT mode)");
    println!();
    let track = test_track();
    let scan = scan_at_start(&track);

    println!("LUT mode (the paper's configuration), boxed 60-beam layout:");
    // One shared artifact bundle for every LUT-mode row: the LUT is built
    // once and all filter instances query the same table.
    let artifacts = track_artifacts(&track);
    for particles in [500, 1000, 1200, 2000, 4000] {
        let snap = measure_pf(Arc::clone(&artifacts), particles, 1, &track, &scan);
        println!(
            "  N={particles:>5}: {:>8.3} ms per scan update",
            correct_ms(&snap)
        );
    }

    println!();
    println!("Per-stage breakdown at N=1200 (LUT), from recorded obs spans:");
    let snap = measure_pf(Arc::clone(&artifacts), 1200, 1, &track, &scan);
    print_stage_breakdown(&snap);

    println!();
    println!("Range-method comparison at N=1200:");
    let snap = measure_pf(Arc::clone(&artifacts), 1200, 1, &track, &scan);
    println!("  {:<22} {:>8.3} ms", "LUT", correct_ms(&snap));
    let snap = measure_pf(Cddt::new(&track.grid, 10.0, 180), 1200, 1, &track, &scan);
    println!("  {:<22} {:>8.3} ms", "CDDT", correct_ms(&snap));
    let snap = measure_pf(RayMarching::new(&track.grid, 10.0), 1200, 1, &track, &scan);
    println!("  {:<22} {:>8.3} ms", "ray marching", correct_ms(&snap));
    let snap = measure_pf(
        BresenhamCasting::new(&track.grid, 10.0),
        1200,
        1,
        &track,
        &scan,
    );
    println!("  {:<22} {:>8.3} ms", "Bresenham", correct_ms(&snap));

    println!();
    println!("Threaded batch casting (the rangelibc GPU-mode substitute), N=1200, LUT:");
    for threads in [1, 2, 4, 8] {
        let snap = measure_pf(Arc::clone(&artifacts), 1200, threads, &track, &scan);
        let queries = snap.counter(names::RANGE_QUERIES.as_str()).unwrap_or(0);
        println!(
            "  threads={threads}: {:>8.3} ms  ({queries} batched range queries)",
            correct_ms(&snap)
        );
    }
}
