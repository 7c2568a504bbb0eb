//! **Pipeline benchmark** — latency of the fused parallel particle
//! pipeline (DESIGN.md §11) across worker-thread counts and particle
//! counts (the Table III N = 1200 configuration plus a 4000-particle
//! stress row; boxed 60-beam layout, compressed-LUT beam fans), plus a
//! hard correctness gate: the fused cast+weight kernel is compared
//! **bitwise** against the pre-fusion reference (the explicit n·k
//! expected-bin matrix, reduced in the filter's exact operation order)
//! and the multi-threaded filter against the sequential one. Any
//! divergence fails the run with exit code 1.
//!
//! Run with `cargo run -p raceloc-bench --release --bin pipeline --
//! [--quick] [--threads 1,2,4] [--particles 1200,4000] [--out FILE]`.
//! The report defaults to the git-ignored `pipeline-fresh.json`;
//! regenerating the checked-in baseline takes
//! `--out BENCH_pipeline.json`.
//!
//! `pipeline check BASELINE FRESH` judges a written report against the
//! checked-in one, exiting 0 when clean, 1 on a violation and 2 on a usage
//! or parse error (the codes of `fleet check`). It fails when a FRESH run
//! lost the bitwise gate, when a BASELINE `(particles, threads)` row is
//! missing from FRESH, or when a row's step-latency median exceeds
//! [`STEP_P50_TOLERANCE`] times the baseline's. The median, not the p99:
//! quick mode times only 20 steps, so its p99 is one noisy-neighbour
//! preemption away from the sample maximum, while losing the
//! compressed-LUT fan fast path alone is a >2× median hit at 4000
//! particles.

use raceloc_bench::{test_track, track_artifacts};
use raceloc_core::localizer::Localizer;
use raceloc_core::sensor_data::{LaserScan, Odometry};
use raceloc_core::{Pose2, Twist2};
use raceloc_map::Track;
use raceloc_obs::{names, Json, Stopwatch, Telemetry};
use raceloc_pf::resample::normalize;
use raceloc_pf::{BeamSensorModel, SynPf, SynPfConfig};
use raceloc_range::{MapArtifacts, RangeMethod, RayMarching};
use raceloc_sim::{Lidar, LidarSpec};
use std::collections::BTreeMap;
use std::sync::Arc;

/// `pipeline check` fails a row whose fresh step-latency median exceeds
/// this multiple of the baseline's.
const STEP_P50_TOLERANCE: f64 = 2.5;

struct Args {
    quick: bool,
    threads: Vec<usize>,
    particles: Vec<usize>,
    out: String,
}

fn parse_usize_list(list: &str, flag: &str) -> Vec<usize> {
    let parsed: Vec<usize> = list
        .split(',')
        .filter_map(|t| t.trim().parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .collect();
    if parsed.is_empty() {
        eprintln!("{flag} needs a comma-separated list like 1,2,4");
        std::process::exit(2);
    }
    parsed
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        quick: false,
        threads: vec![1, 2, 4],
        particles: vec![1200, 4000],
        out: "pipeline-fresh.json".to_string(),
    };
    let mut it = argv.iter().cloned();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--threads" => {
                args.threads = parse_usize_list(&it.next().unwrap_or_default(), "--threads");
            }
            "--particles" => {
                args.particles = parse_usize_list(&it.next().unwrap_or_default(), "--particles");
            }
            "--out" => {
                args.out = it.next().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!(
                    "unknown argument {other:?} (known: --quick --threads --particles --out; \
                     subcommand: check)"
                );
                std::process::exit(2);
            }
        }
    }
    if !args.threads.contains(&1) {
        // Thread count 1 is the sequential reference every other row is
        // compared (and normalized) against.
        args.threads.insert(0, 1);
    }
    args.threads.sort_unstable();
    args.threads.dedup();
    args.particles.sort_unstable();
    args.particles.dedup();
    args
}

fn scan_at_start(track: &Track) -> LaserScan {
    let caster = RayMarching::new(&track.grid, 10.0);
    let mut lidar = Lidar::new(LidarSpec::default(), 5);
    lidar.scan(track.start_pose(), &caster, 0.0)
}

/// The pre-fusion sensor update, kept as the bitwise reference: materialize
/// the full n·k expected-bin matrix through the same public
/// [`RangeMethod::beam_bins_into`] fan the kernel uses, then reduce it to
/// posterior weights with exactly the filter's operation order (u64 code
/// accumulation → `qscale / squash` decode → uniform prior × exp-shifted
/// likelihood, normalized). The fused kernel never materializes the matrix
/// and interleaves cast and accumulation per particle chunk — that fusion
/// (and the thread-pool chunking on top of it) is what this gate pins.
fn reference_weights(
    artifacts: &MapArtifacts,
    particles: &[Pose2],
    scan: &LaserScan,
    config: &SynPfConfig,
) -> Vec<f64> {
    let sensor = BeamSensorModel::new(config.beam_model, artifacts.max_range());
    // Same beam policy as the fused kernel: dropped beams (non-finite
    // ranges) are skipped entirely, never scored.
    let beams: Vec<usize> = config
        .layout
        .select(scan)
        .into_iter()
        .filter(|&b| scan.ranges[b].is_finite())
        .collect();
    let bearings: Vec<f64> = beams.iter().map(|&b| scan.angle_of(b)).collect();
    let rows: Vec<u32> = beams
        .iter()
        .map(|&b| sensor.row_offset(scan.ranges[b]))
        .collect();
    let n = particles.len();
    let k = beams.len().max(1);
    let inv_res = sensor.inv_resolution();
    let max_bin = sensor.max_bin();
    let mount = config.lidar_mount;
    let mut matrix = vec![0u32; n * k];
    for (p, row_out) in particles.iter().zip(matrix.chunks_mut(k)) {
        // The lidar mount transform spelled exactly as the kernel spells
        // it (lane cos/sin first); `Pose2::new` keeps headings in
        // (-π, π], where its normalization is a bitwise no-op, so these
        // inputs equal the filter's SoA lanes bit-for-bit.
        let (c, s) = (p.theta.cos(), p.theta.sin());
        let sx = p.x + mount.x * c - mount.y * s;
        let sy = p.y + mount.x * s + mount.y * c;
        let st = p.theta + mount.theta;
        artifacts.beam_bins_into(sx, sy, st, &bearings, inv_res, max_bin, row_out);
    }
    let qscale = sensor.quantization_scale();
    let mut log_w = vec![0.0; n];
    for (lw, bins) in log_w.iter_mut().zip(matrix.chunks(k)) {
        let mut acc: u64 = 0;
        for (&row, &eb) in rows.iter().zip(bins) {
            acc += u64::from(sensor.code_at(row + eb));
        }
        *lw = acc as f64 * qscale / config.squash;
    }
    let max_lw = log_w.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut w = vec![1.0 / n as f64; n];
    for (wi, lw) in w.iter_mut().zip(&log_w) {
        *wi *= (lw - max_lw).exp();
    }
    normalize(&mut w);
    w
}

/// Builds the benchmark filter at a particle count, sharing one artifact
/// bundle (grid + EDT + compressed LUT) across every configuration.
fn bench_filter(
    artifacts: &Arc<MapArtifacts>,
    particles: usize,
    seed: u64,
    threads: usize,
) -> SynPf<Arc<MapArtifacts>> {
    let config = SynPfConfig::builder()
        .particles(particles)
        .threads(threads)
        .seed(seed)
        .build()
        .expect("bench config is valid");
    SynPf::from_artifacts(Arc::clone(artifacts), config)
}

/// Max |Δweight| between the fused kernel at `threads` and the unfused
/// reference, from identical pre-correction particle sets. Resampling is
/// disabled (`ess_frac` 0) so the posterior weights stay observable.
fn fused_divergence(
    artifacts: &Arc<MapArtifacts>,
    track: &Track,
    scan: &LaserScan,
    particles: usize,
    threads: usize,
) -> f64 {
    let config = SynPfConfig::builder()
        .particles(particles)
        .threads(threads)
        .resample_ess_frac(0.0)
        .seed(7)
        .build()
        .expect("gate config is valid");
    let mut pf = SynPf::from_artifacts(Arc::clone(artifacts), config);
    pf.reset(track.start_pose());
    let cloud = pf.particles().to_vec();
    let reference = reference_weights(artifacts, &cloud, scan, pf.config());
    pf.correct(scan);
    pf.weights()
        .iter()
        .zip(&reference)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
}

/// Full predict/correct sequence state, for cross-thread bitwise checks.
fn full_steps(
    artifacts: &Arc<MapArtifacts>,
    track: &Track,
    scan: &LaserScan,
    particles: usize,
    threads: usize,
) -> (Vec<[f64; 3]>, Vec<f64>) {
    let mut pf = bench_filter(artifacts, particles, 3, threads);
    pf.reset(track.start_pose());
    let mut odom_pose = Pose2::IDENTITY;
    for i in 0..5 {
        odom_pose = odom_pose * Pose2::new(0.02, 0.0, 0.004);
        pf.predict(&Odometry::new(
            odom_pose,
            Twist2::new(0.5, 0.0, 0.08),
            i as f64 * 0.025,
        ));
        pf.correct(scan);
    }
    (
        pf.particles().iter().map(|p| p.to_array()).collect(),
        pf.weights().to_vec(),
    )
}

struct ThreadRow {
    threads: usize,
    correct_ms_mean: f64,
    correct_ms_p50: f64,
    correct_ms_p99: f64,
    step_ms_mean: f64,
    step_ms_p50: f64,
    step_ms_p99: f64,
}

struct Run {
    particles: usize,
    bitwise_identical: bool,
    max_abs_weight_delta: f64,
    rows: Vec<ThreadRow>,
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Times `reps` full SynPF steps (one odometry predict + one scan correct,
/// the Table III unit of work) at a particle count and thread count.
fn measure(
    artifacts: &Arc<MapArtifacts>,
    track: &Track,
    scan: &LaserScan,
    particles: usize,
    threads: usize,
    reps: usize,
) -> ThreadRow {
    let mut pf = bench_filter(artifacts, particles, 3, threads);
    let tel = Telemetry::enabled();
    pf.set_telemetry(tel.clone());
    pf.reset(track.start_pose());
    let mut odom_pose = Pose2::IDENTITY;
    let mut step = |pf: &mut SynPf<Arc<MapArtifacts>>, i: usize| {
        odom_pose = odom_pose * Pose2::new(0.02, 0.0, 0.004);
        pf.predict(&Odometry::new(
            odom_pose,
            Twist2::new(0.5, 0.0, 0.08),
            i as f64 * 0.025,
        ));
        pf.correct(scan);
    };
    for i in 0..(reps / 10).max(3) {
        step(&mut pf, i);
    }
    tel.reset();
    let mut step_ms = Vec::with_capacity(reps);
    for i in 0..reps {
        let t0 = Stopwatch::start();
        step(&mut pf, i);
        step_ms.push(t0.elapsed_seconds() * 1e3);
    }
    let snap = tel.snapshot();
    let (correct_mean, correct_p50, correct_p99) = match snap.histogram(names::PF_CORRECT.as_str())
    {
        Some(h) => {
            let p = |q: f64| h.quantile_upper_bound(q).map_or(f64::NAN, |s| s * 1e3);
            let mean = snap
                .span(names::PF_CORRECT.as_str())
                .map_or(f64::NAN, |s| s.mean_seconds() * 1e3);
            (mean, p(0.5), p(0.99))
        }
        None => (f64::NAN, f64::NAN, f64::NAN),
    };
    step_ms.sort_by(|a, b| a.total_cmp(b));
    ThreadRow {
        threads,
        correct_ms_mean: correct_mean,
        correct_ms_p50: correct_p50,
        correct_ms_p99: correct_p99,
        step_ms_mean: step_ms.iter().sum::<f64>() / step_ms.len().max(1) as f64,
        step_ms_p50: quantile(&step_ms, 0.5),
        step_ms_p99: quantile(&step_ms, 0.99),
    }
}

/// What `pipeline check` judges in one report.
struct Gated {
    /// `(particles, max |Δweight|)` of every run that lost the bitwise gate.
    diverged: Vec<(u64, f64)>,
    /// Step-latency median \[ms\] per `(particles, threads)` row.
    step_p50: BTreeMap<(u64, u64), f64>,
}

fn load_gated(path: &str) -> Result<Gated, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("failed to read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("failed to parse {path}: {e}"))?;
    let missing = |what: &str| format!("{path}: missing {what}");
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or_else(|| missing("the \"runs\" array"))?;
    let mut gated = Gated {
        diverged: Vec::new(),
        step_p50: BTreeMap::new(),
    };
    for run in runs {
        let particles = run
            .get("particles")
            .and_then(Json::as_u64)
            .ok_or_else(|| missing("a run's \"particles\""))?;
        let divergence = run.get("divergence");
        let Some(&Json::Bool(identical)) = divergence.and_then(|d| d.get("bitwise_identical"))
        else {
            return Err(missing("a run's \"divergence.bitwise_identical\""));
        };
        if !identical {
            let delta = divergence
                .and_then(|d| d.get("max_abs_weight_delta"))
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            gated.diverged.push((particles, delta));
        }
        let rows = run
            .get("threads")
            .and_then(Json::as_array)
            .ok_or_else(|| missing("a run's \"threads\" rows"))?;
        for row in rows {
            let threads = row.get("threads").and_then(Json::as_u64);
            let p50 = row.get("step_ms_p50").and_then(Json::as_f64);
            let (Some(threads), Some(p50)) = (threads, p50) else {
                return Err(missing("a row's \"threads\" or \"step_ms_p50\""));
            };
            gated.step_p50.insert((particles, threads), p50);
        }
    }
    Ok(gated)
}

/// The violations of `fresh` against `baseline`; prints one line per
/// baseline row as it goes.
fn judge(baseline: &Gated, fresh: &Gated) -> Vec<String> {
    let mut violations: Vec<String> = fresh
        .diverged
        .iter()
        .map(|(n, delta)| format!("N={n}: fused kernel diverged bitwise (max |dw| = {delta:e})"))
        .collect();
    if baseline.step_p50.is_empty() {
        violations.push("the baseline has no (particles, threads) rows to judge".to_string());
    }
    for (&(n, threads), &base) in &baseline.step_p50 {
        let Some(&got) = fresh.step_p50.get(&(n, threads)) else {
            println!("N={n} threads={threads}: MISSING");
            violations.push(format!(
                "N={n} threads={threads}: row missing from the fresh report"
            ));
            continue;
        };
        let limit = STEP_P50_TOLERANCE * base;
        let regressed = got > limit;
        println!(
            "N={n} threads={threads}: step p50 {got:.3} ms (baseline {base:.3} ms, \
             limit {limit:.3} ms) {}",
            if regressed { "REGRESSED" } else { "ok" }
        );
        if regressed {
            violations.push(format!(
                "N={n} threads={threads}: step p50 {got:.3} ms > \
                 {STEP_P50_TOLERANCE}x baseline {base:.3} ms"
            ));
        }
    }
    violations
}

/// `pipeline check BASELINE FRESH` — exit 0 clean, 1 violated, 2
/// usage/parse failure.
fn check_main(paths: &[String]) -> i32 {
    let [baseline, fresh] = paths else {
        eprintln!("usage: pipeline check BASELINE FRESH");
        return 2;
    };
    let (baseline, fresh) = match (load_gated(baseline), load_gated(fresh)) {
        (Ok(b), Ok(f)) => (b, f),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let violations = judge(&baseline, &fresh);
    if violations.is_empty() {
        println!("pipeline check passed");
        return 0;
    }
    eprintln!("pipeline check FAILED:");
    for v in &violations {
        eprintln!("  - {v}");
    }
    1
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("check") {
        std::process::exit(check_main(&argv[1..]));
    }
    let args = parse_args(&argv);
    let reps = if args.quick { 20 } else { 200 };
    println!("Fused particle-pipeline benchmark (boxed 60, compressed LUT)");
    let track = test_track();
    let artifacts = track_artifacts(&track);
    let scan = scan_at_start(&track);

    let mut diverged = false;
    let mut runs = Vec::new();
    for &n in &args.particles {
        // Correctness gate 1: fused kernel vs the unfused n·k matrix
        // reference, at every thread count.
        let mut max_delta = 0.0f64;
        let mut identical = true;
        for &threads in &args.threads {
            let delta = fused_divergence(&artifacts, &track, &scan, n, threads);
            max_delta = max_delta.max(delta);
            if delta != 0.0 {
                identical = false;
                eprintln!("DIVERGENCE: fused weights off by {delta:e} at N={n} threads={threads}");
            }
        }
        // Correctness gate 2: full multi-threaded steps vs the sequential
        // run.
        let sequential = full_steps(&artifacts, &track, &scan, n, 1);
        for &threads in args.threads.iter().filter(|&&t| t > 1) {
            if full_steps(&artifacts, &track, &scan, n, threads) != sequential {
                identical = false;
                eprintln!("DIVERGENCE: full step state differs at N={n} threads={threads}");
            }
        }
        diverged |= !identical;
        println!(
            "N={n}: divergence gate max |Δweight| = {max_delta:e} ({})",
            if identical { "ok" } else { "FAIL" }
        );

        let rows: Vec<ThreadRow> = args
            .threads
            .iter()
            .map(|&t| measure(&artifacts, &track, &scan, n, t, reps))
            .collect();
        let base = rows.first().map_or(f64::NAN, |r| r.step_ms_mean);
        println!(
            "  {:<8} {:>12} {:>11} {:>11} {:>12} {:>11} {:>11} {:>8}",
            "threads",
            "corr mean",
            "corr p50",
            "corr p99",
            "step mean",
            "step p50",
            "step p99",
            "speedup"
        );
        for r in &rows {
            println!(
                "  {:<8} {:>10.3}ms {:>9.3}ms {:>9.3}ms {:>10.3}ms {:>9.3}ms {:>9.3}ms {:>7.2}x",
                r.threads,
                r.correct_ms_mean,
                r.correct_ms_p50,
                r.correct_ms_p99,
                r.step_ms_mean,
                r.step_ms_p50,
                r.step_ms_p99,
                base / r.step_ms_mean
            );
        }
        runs.push(Run {
            particles: n,
            bitwise_identical: identical,
            max_abs_weight_delta: max_delta,
            rows,
        });
    }

    let json = Json::Obj(vec![
        ("experiment".into(), Json::Str("pipeline".into())),
        ("quick".into(), Json::Bool(args.quick)),
        (
            "config".into(),
            Json::Obj(vec![
                ("layout".into(), Json::Str("boxed60".into())),
                ("range_method".into(), Json::Str("compressed_lut".into())),
                ("reps".into(), Json::num(reps as f64)),
                (
                    "threads_checked".into(),
                    Json::Arr(args.threads.iter().map(|&t| Json::num(t as f64)).collect()),
                ),
            ]),
        ),
        (
            "runs".into(),
            Json::Arr(
                runs.iter()
                    .map(|run| {
                        let base = run.rows.first().map_or(f64::NAN, |r| r.step_ms_mean);
                        Json::Obj(vec![
                            ("particles".into(), Json::num(run.particles as f64)),
                            (
                                "divergence".into(),
                                Json::Obj(vec![
                                    (
                                        "bitwise_identical".into(),
                                        Json::Bool(run.bitwise_identical),
                                    ),
                                    (
                                        "max_abs_weight_delta".into(),
                                        Json::num(run.max_abs_weight_delta),
                                    ),
                                ]),
                            ),
                            (
                                "threads".into(),
                                Json::Arr(
                                    run.rows
                                        .iter()
                                        .map(|r| {
                                            Json::Obj(vec![
                                                ("threads".into(), Json::num(r.threads as f64)),
                                                (
                                                    "correct_ms_mean".into(),
                                                    Json::num(r.correct_ms_mean),
                                                ),
                                                (
                                                    "correct_ms_p50".into(),
                                                    Json::num(r.correct_ms_p50),
                                                ),
                                                (
                                                    "correct_ms_p99".into(),
                                                    Json::num(r.correct_ms_p99),
                                                ),
                                                ("step_ms_mean".into(), Json::num(r.step_ms_mean)),
                                                ("step_ms_p50".into(), Json::num(r.step_ms_p50)),
                                                ("step_ms_p99".into(), Json::num(r.step_ms_p99)),
                                                (
                                                    "speedup_vs_sequential".into(),
                                                    Json::num(base / r.step_ms_mean),
                                                ),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    if let Err(e) = std::fs::write(&args.out, format!("{json}\n")) {
        eprintln!("failed to write {}: {e}", args.out);
        std::process::exit(1);
    }
    println!("wrote {}", args.out);
    if diverged {
        std::process::exit(1);
    }
}
