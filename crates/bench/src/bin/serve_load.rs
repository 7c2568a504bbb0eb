//! **Serve load test** — drives a large mixed-localizer session fleet
//! through the `raceloc-serve` multi-session engine and reports sustained
//! throughput and fleet-step drain latency across worker-thread counts
//! (per-request latency is perfbench's `serve_mixed`), plus a hard
//! determinism gate: the FNV digest over every `(session, seq, pose,
//! health)` step result must be **byte-identical** for every thread count.
//! Any divergence fails the run with exit code 1 — this is the check CI's
//! `serve-smoke` job executes.
//!
//! Run with `cargo run -p raceloc-bench --release --bin serve_load --
//! [--quick] [--threads 1,2,4] [--out FILE]`. The report defaults to the
//! git-ignored `serve-fresh.json`; regenerating the checked-in baseline
//! takes `--out BENCH_serve.json`.

use raceloc_core::sensor_data::{LaserScan, Odometry};
use raceloc_core::{stream_keys, Pose2, Rng64, Twist2};
use raceloc_map::{Track, TrackShape, TrackSpec};
use raceloc_obs::{Json, Stopwatch};
use raceloc_pf::{ScanLayout, SynPfConfig};
use raceloc_range::{ArtifactParams, RangeMethod, RayMarching};
use raceloc_serve::{LocalizerSpec, ServeConfig, ServeEngine, StepRequest, StepResult};
use raceloc_slam::{CartoLocalizerConfig, SearchWindow};

struct Args {
    quick: bool,
    threads: Vec<usize>,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        threads: vec![1, 2, 4],
        out: "serve-fresh.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--threads" => {
                let list = it.next().unwrap_or_default();
                let parsed: Vec<usize> = list
                    .split(',')
                    .filter_map(|t| t.trim().parse::<usize>().ok())
                    .filter(|&t| t >= 1)
                    .collect();
                if parsed.is_empty() {
                    eprintln!("--threads needs a comma-separated list like 1,2,4");
                    std::process::exit(2);
                }
                args.threads = parsed;
            }
            "--out" => {
                args.out = it.next().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown argument {other:?} (known: --quick --threads --out)");
                std::process::exit(2);
            }
        }
    }
    // Thread count 1 is the sequential reference every digest is compared
    // against.
    if !args.threads.contains(&1) {
        args.threads.insert(0, 1);
    }
    args.threads.sort_unstable();
    args.threads.dedup();
    args
}

fn tracks() -> Vec<Track> {
    vec![
        TrackSpec::new(TrackShape::Oval {
            width: 12.0,
            height: 7.0,
        })
        .resolution(0.1)
        .build(),
        TrackSpec::new(TrackShape::RoundedRectangle {
            width: 11.0,
            height: 8.0,
            corner_radius: 2.0,
        })
        .resolution(0.1)
        .build(),
        TrackSpec::new(TrackShape::LShape {
            arm: 9.0,
            notch: 3.5,
            corner_radius: 1.2,
        })
        .resolution(0.1)
        .build(),
        TrackSpec::new(TrackShape::RandomFourier {
            seed: 11,
            mean_radius: 5.0,
            amplitude: 0.2,
            harmonics: 3,
        })
        .resolution(0.1)
        .build(),
    ]
}

fn params() -> ArtifactParams {
    ArtifactParams {
        max_range: 10.0,
        theta_bins: 36,
    }
}

/// Every third session runs a different localizer kind, so pool chunks mix
/// heavy SynPF corrections with near-free dead-reckoning updates.
fn spec_for(i: usize, quick: bool) -> LocalizerSpec {
    match i % 3 {
        0 => LocalizerSpec::SynPf {
            config: SynPfConfig {
                particles: if quick { 64 } else { 128 },
                layout: ScanLayout::Boxed {
                    count: 24,
                    aspect: 3.0,
                },
                ..SynPfConfig::default()
            },
            recovery: i.is_multiple_of(6),
        },
        1 => LocalizerSpec::Cartographer(CartoLocalizerConfig {
            max_points: 60,
            window: SearchWindow {
                linear: 0.15,
                angular: 0.08,
            },
            linear_step: 0.05,
            angular_step: 0.02,
            ..CartoLocalizerConfig::default()
        }),
        _ => LocalizerSpec::DeadReckoning,
    }
}

fn start_pose(track: &Track, session: usize) -> Pose2 {
    let s0 = session as f64 * 0.37;
    Pose2::from_point(
        track.centerline.point_at(s0),
        track.centerline.heading_at(s0),
    )
}

/// Deterministic per-session input tape (truth on the centerline, noisy
/// integrated odometry, scans cast from truth). Engine-independent, so the
/// same bytes feed every thread-count run.
fn input_tape(track: &Track, session: usize, steps: usize) -> Vec<(Odometry, Option<LaserScan>)> {
    const DT: f64 = 0.1;
    const SPEED: f64 = 3.5;
    let caster = RayMarching::new(&track.grid, params().max_range);
    let mut rng = Rng64::stream(0xBEEF, stream_keys::bench_driver(session as u64));
    let path = &track.centerline;
    let s0 = session as f64 * 0.37;
    let mut odom_pose = Pose2::IDENTITY;
    let mut out = Vec::with_capacity(steps);
    for step in 1..=steps {
        let s_prev = s0 + (step - 1) as f64 * SPEED * DT;
        let s_now = s0 + step as f64 * SPEED * DT;
        let prev = Pose2::from_point(path.point_at(s_prev), path.heading_at(s_prev));
        let truth = Pose2::from_point(path.point_at(s_now), path.heading_at(s_now));
        let mut delta = prev.relative_to(truth);
        delta.x += rng.gaussian_with(0.0, 0.005);
        delta.y += rng.gaussian_with(0.0, 0.005);
        delta.theta += rng.gaussian_with(0.0, 0.002);
        odom_pose = odom_pose * delta;
        let stamp = step as f64 * DT;
        let beams = 36;
        let fov = 270.0f64.to_radians();
        let inc = fov / (beams - 1) as f64;
        let ranges: Vec<f64> = (0..beams)
            .map(|b| caster.range(truth.x, truth.y, truth.theta - 0.5 * fov + b as f64 * inc))
            .collect();
        let mut scan = LaserScan::new(-0.5 * fov, inc, ranges, params().max_range);
        scan.stamp = stamp;
        out.push((
            Odometry::new(odom_pose, Twist2::new(SPEED, 0.0, 0.0), stamp),
            Some(scan),
        ));
    }
    out
}

fn digest(results: &[StepResult]) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    };
    for r in results {
        eat(r.session.0);
        eat(r.seq);
        eat(r.pose.x.to_bits());
        eat(r.pose.y.to_bits());
        eat(r.pose.theta.to_bits());
        eat(r.health.as_str().len() as u64);
    }
    h
}

struct RunOutcome {
    digest: u64,
    shed: u64,
    builds: u64,
    hits: u64,
    luts_built: u64,
    total_steps: usize,
    wall_seconds: f64,
    steps_per_sec: f64,
    drain_ms_p50: f64,
    drain_ms_p99: f64,
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Opens the whole fleet, replays every tape step-interleaved (one fleet
/// step = one submit per session + one drain), and measures drain latency.
fn run_fleet(
    threads: usize,
    tracks: &[Track],
    tapes: &[Vec<(Odometry, Option<LaserScan>)>],
    quick: bool,
) -> RunOutcome {
    let sessions = tapes.len();
    let steps = tapes.first().map_or(0, Vec::len);
    let mut engine = ServeEngine::new(ServeConfig {
        seed: 2024,
        threads,
        queue_capacity: sessions * 2,
        max_sessions: sessions,
        chunk_min: 2,
        ..ServeConfig::default()
    });
    let mut ids = Vec::with_capacity(sessions);
    for i in 0..sessions {
        let track = &tracks[i % tracks.len()];
        let id = engine
            .open_session(
                &track.grid,
                params(),
                spec_for(i, quick),
                start_pose(track, i),
            )
            .expect("fleet fits under max_sessions");
        ids.push(id);
    }
    let mut all = Vec::with_capacity(sessions * steps);
    let mut drain_ms = Vec::with_capacity(steps);
    let run = Stopwatch::start();
    for step in 0..steps {
        for (tape, id) in tapes.iter().zip(&ids) {
            let (odom, scan) = tape[step].clone();
            engine
                .submit(StepRequest {
                    session: *id,
                    odom,
                    scan,
                })
                .expect("session is open");
        }
        let t0 = Stopwatch::start();
        all.extend(engine.drain());
        drain_ms.push(t0.elapsed_seconds() * 1e3);
    }
    let wall_seconds = run.elapsed_seconds();
    all.sort_by_key(|r| (r.session.0, r.seq));
    drain_ms.sort_by(|a, b| a.total_cmp(b));
    RunOutcome {
        digest: digest(&all),
        shed: engine.shed_total(),
        builds: engine.store().builds(),
        hits: engine.store().hits(),
        luts_built: engine.store().luts_built(),
        total_steps: all.len(),
        wall_seconds,
        steps_per_sec: all.len() as f64 / wall_seconds.max(1e-9),
        drain_ms_p50: quantile(&drain_ms, 0.5),
        drain_ms_p99: quantile(&drain_ms, 0.99),
    }
}

fn main() {
    let args = parse_args();
    let sessions = if args.quick { 48 } else { 256 };
    let steps = if args.quick { 4 } else { 12 };
    println!(
        "Serve load test: {sessions} sessions x {steps} steps over 4 tracks, threads {:?}",
        args.threads
    );
    let tracks = tracks();
    let tapes: Vec<Vec<(Odometry, Option<LaserScan>)>> = (0..sessions)
        .map(|i| input_tape(&tracks[i % tracks.len()], i, steps))
        .collect();

    let outcomes: Vec<(usize, RunOutcome)> = args
        .threads
        .iter()
        .map(|&t| (t, run_fleet(t, &tracks, &tapes, args.quick)))
        .collect();

    let reference = &outcomes[0].1;
    let mut diverged = false;
    for (t, o) in &outcomes {
        if o.digest != reference.digest || o.total_steps != reference.total_steps {
            diverged = true;
            eprintln!(
                "DIVERGENCE: threads={t} digest {:016x} != reference {:016x}",
                o.digest, reference.digest
            );
        }
    }
    println!(
        "determinism gate: digest {:016x} across threads {:?} ({})",
        reference.digest,
        args.threads,
        if diverged { "FAIL" } else { "ok" }
    );
    println!(
        "artifact store: {} builds, {} hits, {} LUTs for {sessions} sessions",
        reference.builds, reference.hits, reference.luts_built
    );
    println!(
        "  {:<8} {:>12} {:>12} {:>12} {:>12}",
        "threads", "steps/sec", "drain p50", "drain p99", "wall"
    );
    for (t, o) in &outcomes {
        println!(
            "  {:<8} {:>12.0} {:>10.3}ms {:>10.3}ms {:>10.2}s",
            t, o.steps_per_sec, o.drain_ms_p50, o.drain_ms_p99, o.wall_seconds
        );
    }

    let json = Json::Obj(vec![
        ("experiment".into(), Json::Str("serve_load".into())),
        ("quick".into(), Json::Bool(args.quick)),
        (
            "config".into(),
            Json::Obj(vec![
                ("sessions".into(), Json::num(sessions as f64)),
                ("steps_per_session".into(), Json::num(steps as f64)),
                ("tracks".into(), Json::num(tracks.len() as f64)),
                (
                    "localizers".into(),
                    Json::Arr(vec![
                        Json::Str("synpf".into()),
                        Json::Str("cartographer".into()),
                        Json::Str("dead_reckoning".into()),
                    ]),
                ),
                ("theta_bins".into(), Json::num(params().theta_bins as f64)),
                ("seed".into(), Json::num(2024.0)),
            ]),
        ),
        (
            "determinism".into(),
            Json::Obj(vec![
                ("bitwise_identical".into(), Json::Bool(!diverged)),
                (
                    "digest".into(),
                    Json::Str(format!("{:016x}", reference.digest)),
                ),
                ("shed".into(), Json::num(reference.shed as f64)),
                ("artifact_builds".into(), Json::num(reference.builds as f64)),
                ("artifact_hits".into(), Json::num(reference.hits as f64)),
                ("luts_built".into(), Json::num(reference.luts_built as f64)),
                (
                    "threads_checked".into(),
                    Json::Arr(args.threads.iter().map(|&t| Json::num(t as f64)).collect()),
                ),
            ]),
        ),
        (
            "threads".into(),
            Json::Arr(
                outcomes
                    .iter()
                    .map(|(t, o)| {
                        Json::Obj(vec![
                            ("threads".into(), Json::num(*t as f64)),
                            ("total_steps".into(), Json::num(o.total_steps as f64)),
                            ("wall_seconds".into(), Json::num(o.wall_seconds)),
                            ("steps_per_sec".into(), Json::num(o.steps_per_sec)),
                            ("drain_ms_p50".into(), Json::num(o.drain_ms_p50)),
                            ("drain_ms_p99".into(), Json::num(o.drain_ms_p99)),
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
