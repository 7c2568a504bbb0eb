//! Tier-1 serve suite: a 64-session mixed-track run must be bit-identical
//! for every thread count, every session must be replayable in isolation
//! from the JSONL stream, same-track sessions must share one artifact
//! build, and backpressure must shed oldest-first.

use raceloc_core::sensor_data::{LaserScan, Odometry};
use raceloc_core::{stream_keys, Pose2, Rng64, Twist2};
use raceloc_map::{Track, TrackShape, TrackSpec};
use raceloc_obs::{names, SharedBuffer};
use raceloc_pf::SynPfConfig;
use raceloc_range::{ArtifactParams, RangeMethod, RayMarching};
use raceloc_serve::{
    parse_serve_steps, session_records, LocalizerSpec, ServeConfig, ServeEngine, SessionId,
    StepRequest, StepResult,
};
use raceloc_slam::CartoLocalizerConfig;

const SESSIONS: usize = 64;
const STEPS: usize = 6;
const DT: f64 = 0.1;
const SPEED: f64 = 3.0;

fn tracks() -> Vec<Track> {
    vec![
        TrackSpec::new(TrackShape::Oval {
            width: 10.0,
            height: 6.0,
        })
        .resolution(0.15)
        .build(),
        TrackSpec::new(TrackShape::RoundedRectangle {
            width: 9.0,
            height: 7.0,
            corner_radius: 1.5,
        })
        .resolution(0.15)
        .build(),
        TrackSpec::new(TrackShape::LShape {
            arm: 8.0,
            notch: 3.0,
            corner_radius: 1.0,
        })
        .resolution(0.15)
        .build(),
    ]
}

fn params() -> ArtifactParams {
    ArtifactParams {
        max_range: 8.0,
        theta_bins: 24,
    }
}

/// Cheap mixed specs: every third session runs a different localizer.
fn spec_for(i: usize) -> LocalizerSpec {
    match i % 3 {
        0 => LocalizerSpec::SynPf {
            config: SynPfConfig {
                particles: 64,
                layout: raceloc_pf::ScanLayout::Boxed {
                    count: 24,
                    aspect: 3.0,
                },
                ..SynPfConfig::default()
            },
            recovery: i.is_multiple_of(6),
        },
        1 => LocalizerSpec::Cartographer(CartoLocalizerConfig {
            max_points: 40,
            window: raceloc_slam::SearchWindow {
                linear: 0.12,
                angular: 0.06,
            },
            linear_step: 0.06,
            angular_step: 0.03,
            ..CartoLocalizerConfig::default()
        }),
        _ => LocalizerSpec::DeadReckoning,
    }
}

/// Deterministic per-session input tape: truth follows the track
/// centerline from a session-specific arc offset; odometry integrates
/// truth deltas with seeded noise; scans are cast from the truth pose.
/// Independent of the engine, so every run sees identical bytes.
fn inputs_for(track: &Track, session: usize) -> Vec<(Odometry, Option<LaserScan>)> {
    let caster = RayMarching::new(&track.grid, params().max_range);
    let mut rng = Rng64::stream(0x1A9E, stream_keys::bench_driver(session as u64));
    let path = &track.centerline;
    let s0 = session as f64 * 0.4;
    let mut odom_pose = Pose2::IDENTITY;
    let mut out = Vec::with_capacity(STEPS);
    for step in 1..=STEPS {
        let s_prev = s0 + (step - 1) as f64 * SPEED * DT;
        let s_now = s0 + step as f64 * SPEED * DT;
        let prev = Pose2::from_point(path.point_at(s_prev), path.heading_at(s_prev));
        let truth = Pose2::from_point(path.point_at(s_now), path.heading_at(s_now));
        let mut delta = prev.relative_to(truth);
        delta.x += rng.gaussian_with(0.0, 0.004);
        delta.y += rng.gaussian_with(0.0, 0.004);
        delta.theta += rng.gaussian_with(0.0, 0.002);
        odom_pose = odom_pose * delta;
        let stamp = step as f64 * DT;
        let odom = Odometry::new(odom_pose, Twist2::new(SPEED, 0.0, 0.0), stamp);
        let beams = 30;
        let fov = 270.0f64.to_radians();
        let inc = fov / (beams - 1) as f64;
        let ranges: Vec<f64> = (0..beams)
            .map(|b| caster.range(truth.x, truth.y, truth.theta - 0.5 * fov + b as f64 * inc))
            .collect();
        let mut scan = LaserScan::new(-0.5 * fov, inc, ranges, params().max_range);
        scan.stamp = stamp;
        out.push((odom, Some(scan)));
    }
    out
}

fn start_pose(track: &Track, session: usize) -> Pose2 {
    let s0 = session as f64 * 0.4;
    Pose2::from_point(
        track.centerline.point_at(s0),
        track.centerline.heading_at(s0),
    )
}

/// Runs the full 64-session fleet and returns every step result in
/// canonical order, plus the engine for counter inspection.
fn run_fleet(threads: usize, recorder: Option<SharedBuffer>) -> (Vec<StepResult>, ServeEngine) {
    let tracks = tracks();
    let mut engine = ServeEngine::new(ServeConfig {
        seed: 42,
        threads,
        queue_capacity: 8192,
        max_sessions: SESSIONS,
        chunk_min: 2,
        ..ServeConfig::default()
    });
    if let Some(buf) = recorder {
        engine.set_recorder(buf);
    }
    let mut ids = Vec::with_capacity(SESSIONS);
    let mut tapes = Vec::with_capacity(SESSIONS);
    for i in 0..SESSIONS {
        let track = &tracks[i % tracks.len()];
        let id = engine
            .open_session(&track.grid, params(), spec_for(i), start_pose(track, i))
            .expect("under max_sessions");
        ids.push(id);
        tapes.push(inputs_for(track, i));
    }
    // Interleave: every session advances one step, drain every two steps
    // so batches mix many small sessions into shared pool chunks.
    let mut all = Vec::new();
    for step in 0..STEPS {
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
        if step % 2 == 1 || step == STEPS - 1 {
            all.extend(engine.drain());
        }
    }
    all.sort_by_key(|r| (r.session.0, r.seq));
    (all, engine)
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

fn env_threads() -> usize {
    std::env::var("RACELOC_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&t| (1..=64).contains(&t))
        .unwrap_or(2)
}

#[test]
fn sixty_four_sessions_bitwise_identical_across_thread_counts() {
    let (reference, engine) = run_fleet(1, None);
    assert_eq!(reference.len(), SESSIONS * STEPS, "no step lost");
    assert_eq!(engine.shed_total(), 0, "no backpressure in this scenario");
    let want = digest(&reference);
    for threads in [2, env_threads()] {
        let (got, _) = run_fleet(threads, None);
        assert_eq!(digest(&got), want, "threads={threads} diverged");
        assert_eq!(got, reference, "threads={threads} full results differ");
    }
}

#[test]
fn every_session_replays_in_isolation_from_the_jsonl_stream() {
    let buf = SharedBuffer::new();
    let (results, _) = run_fleet(2, Some(buf.clone()));
    let stream = parse_serve_steps(&buf.contents()).expect("recorded stream parses");
    assert_eq!(stream.len(), results.len(), "one line per executed step");

    // Replay one session of each localizer kind. The fresh engine opens
    // the same 64 sessions (ids and therefore RNG streams match) but only
    // feeds the target session — sessions are independent, so its poses
    // must come back bit-identical to the recorded stream.
    let tracks = tracks();
    for target in [0usize, 1, 2, 9] {
        let mut engine = ServeEngine::new(ServeConfig {
            seed: 42,
            threads: 1,
            queue_capacity: 8192,
            max_sessions: SESSIONS,
            chunk_min: 2,
            ..ServeConfig::default()
        });
        for i in 0..SESSIONS {
            let track = &tracks[i % tracks.len()];
            engine
                .open_session(&track.grid, params(), spec_for(i), start_pose(track, i))
                .expect("under max_sessions");
        }
        let recorded = session_records(&stream, SessionId(target as u64));
        assert_eq!(recorded.len(), STEPS);
        for rec in &recorded {
            engine.submit(rec.request()).expect("session is open");
        }
        let replayed = engine.drain();
        assert_eq!(replayed.len(), recorded.len());
        for (rec, res) in recorded.iter().zip(&replayed) {
            assert_eq!(res.session, rec.session);
            assert_eq!(res.seq, rec.seq);
            assert_eq!(res.pose, rec.est, "session {target} seq {}", rec.seq);
            assert_eq!(res.health, rec.health);
        }
    }
}

#[test]
fn ten_same_track_sessions_share_one_artifact_build() {
    let track = &tracks()[0];
    let mut engine = ServeEngine::new(ServeConfig {
        seed: 9,
        threads: 2,
        ..ServeConfig::default()
    });
    let mut ids = Vec::new();
    for i in 0..10 {
        let spec = LocalizerSpec::SynPf {
            config: SynPfConfig {
                particles: 48,
                ..SynPfConfig::default()
            },
            recovery: false,
        };
        let id = engine
            .open_session(&track.grid, params(), spec, start_pose(track, i))
            .expect("under max_sessions");
        ids.push(id);
    }
    assert_eq!(engine.store().builds(), 1, "one bundle for ten sessions");
    assert_eq!(engine.store().hits(), 9);
    assert_eq!(engine.store().len(), 1);
    assert_eq!(engine.store().luts_built(), 0, "LUT is lazy until stepped");

    // Drive every session one correction step: the range LUT is built
    // exactly once, shared by all ten SynPF filters.
    for (i, id) in ids.iter().enumerate() {
        let (odom, scan) = inputs_for(track, i).remove(0);
        engine
            .submit(StepRequest {
                session: *id,
                odom,
                scan,
            })
            .expect("session is open");
    }
    let results = engine.drain();
    assert_eq!(results.len(), 10);
    assert_eq!(engine.store().luts_built(), 1, "ten sessions, one LUT");

    let rollup = engine.rollup();
    assert_eq!(
        rollup.total(names::RANGE_ARTIFACTS_BUILDS.as_str()),
        Some(1)
    );
    assert_eq!(rollup.total(names::RANGE_ARTIFACTS_HITS.as_str()), Some(9));
    assert_eq!(
        rollup.total(names::RANGE_ARTIFACTS_LUTS_BUILT.as_str()),
        Some(1)
    );
    assert_eq!(
        rollup.total(names::SERVE_SESSIONS_OPENED.as_str()),
        Some(10)
    );
    assert_eq!(rollup.total(names::SERVE_STEPS.as_str()), Some(10));
    assert!(
        rollup.total(names::PAR_POOL_JOBS.as_str()).unwrap_or(0) > 0,
        "drain went through the worker pool"
    );
    // All ten sessions ran on the same bundle (same content key).
    let keys: Vec<u64> = ids
        .iter()
        .map(|id| engine.close_session(*id).expect("open").artifact_key)
        .collect();
    assert!(keys.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn backpressure_sheds_oldest_first() {
    let track = &tracks()[0];
    let mut engine = ServeEngine::new(ServeConfig {
        seed: 1,
        threads: 1,
        queue_capacity: 4,
        ..ServeConfig::default()
    });
    let id = engine
        .open_session(
            &track.grid,
            params(),
            LocalizerSpec::DeadReckoning,
            start_pose(track, 0),
        )
        .expect("capacity available");
    // Six submissions into a 4-slot queue: the two oldest are shed.
    for k in 0..6 {
        let odom = Odometry::new(
            Pose2::new(k as f64, 0.0, 0.0),
            Twist2::new(1.0, 0.0, 0.0),
            k as f64 * DT,
        );
        engine
            .submit(StepRequest {
                session: id,
                odom,
                scan: None,
            })
            .expect("session is open");
    }
    assert_eq!(engine.queue_len(), 4);
    assert_eq!(engine.shed_total(), 2);
    let results = engine.drain();
    assert_eq!(results.len(), 4, "only the freshest four survive");
    // Dead reckoning echoes the odometry frame walk: the surviving steps
    // are the ones submitted with k = 2..5.
    assert_eq!(results[0].seq, 0);
    assert_eq!(engine.rollup().total(names::SERVE_SHED.as_str()), Some(2));
    let summary = engine.close_session(id).expect("open");
    assert_eq!(summary.sheds, 2);
    assert_eq!(summary.steps, 4);
}

#[test]
fn session_step_quota_sheds_oldest_keeping_newest() {
    let track = &tracks()[0];
    let mut engine = ServeEngine::new(ServeConfig {
        seed: 1,
        threads: 1,
        session_step_quota: 2,
        ..ServeConfig::default()
    });
    let a = engine
        .open_session(
            &track.grid,
            params(),
            LocalizerSpec::DeadReckoning,
            start_pose(track, 0),
        )
        .expect("capacity available");
    let b = engine
        .open_session(
            &track.grid,
            params(),
            LocalizerSpec::DeadReckoning,
            start_pose(track, 1),
        )
        .expect("capacity available");
    // Session a floods five steps; session b stays within quota.
    for k in 0..5 {
        let odom = Odometry::new(
            Pose2::new(k as f64, 0.0, 0.0),
            Twist2::new(1.0, 0.0, 0.0),
            k as f64 * DT,
        );
        engine
            .submit(StepRequest {
                session: a,
                odom,
                scan: None,
            })
            .expect("session is open");
    }
    engine
        .submit(StepRequest {
            session: b,
            odom: Odometry::new(Pose2::new(0.5, 0.0, 0.0), Twist2::new(1.0, 0.0, 0.0), DT),
            scan: None,
        })
        .expect("session is open");
    let results = engine.drain();
    // Quota kept the newest two of a's five requests; b is untouched.
    assert_eq!(results.len(), 3);
    assert_eq!(
        results.iter().filter(|r| r.session == a).count(),
        2,
        "session a executes exactly its quota"
    );
    assert_eq!(engine.budget_shed_total(), 3);
    assert_eq!(engine.shed_total(), 0, "queue backpressure never fired");
    assert_eq!(
        engine.rollup().total(names::SERVE_BUDGET_SHED.as_str()),
        Some(3)
    );
    let summary_a = engine.close_session(a).expect("open");
    assert_eq!(summary_a.sheds, 3);
    assert_eq!(summary_a.steps, 2);
    let summary_b = engine.close_session(b).expect("open");
    assert_eq!(summary_b.sheds, 0);
    assert_eq!(summary_b.steps, 1);
}

#[test]
fn unknown_sessions_and_capacity_are_rejected() {
    let track = &tracks()[0];
    let mut engine = ServeEngine::new(ServeConfig {
        max_sessions: 1,
        ..ServeConfig::default()
    });
    let id = engine
        .open_session(
            &track.grid,
            params(),
            LocalizerSpec::DeadReckoning,
            start_pose(track, 0),
        )
        .expect("first session fits");
    let over = engine.open_session(
        &track.grid,
        params(),
        LocalizerSpec::DeadReckoning,
        start_pose(track, 1),
    );
    assert!(matches!(
        over,
        Err(raceloc_serve::ServeError::AtCapacity { limit: 1 })
    ));
    let ghost = SessionId(99);
    let err = engine
        .submit(StepRequest {
            session: ghost,
            odom: Odometry::new(Pose2::IDENTITY, Twist2::ZERO, 0.0),
            scan: None,
        })
        .expect_err("unknown session");
    assert_eq!(err, raceloc_serve::ServeError::UnknownSession(ghost));
    engine.close_session(id).expect("open");
    assert!(engine.close_session(id).is_err(), "double close rejected");
}
