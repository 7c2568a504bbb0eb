//! `serve_mixed`: scan/odometry streams of a mixed SynPF, Cartographer and
//! dead-reckoning session fleet, pre-generated by the simulator outside
//! the timed path and replayed into one `ServeEngine` three ways:
//!
//! - closed-loop fleet steps, every session at once: per-request latency
//!   and CPU cost per request (tracked), and capacity;
//! - open-loop Poisson arrivals at three fixed rates: per-request latency
//!   from each due time, and the highest rate within the latency limit.

use crate::report::Report;
use crate::stats::{median, sustained_rps, RatePhase, Summary};
use crate::trace::{Tracer, NO_SPAN};
use crate::{cpu_seconds, mix_seed, Args};
use raceloc_core::{LaserScan, Localizer, Odometry, Pose2, Rng64};
use raceloc_map::{Track, TrackShape, TrackSpec};
use raceloc_pf::SynPfConfig;
use raceloc_range::ArtifactParams;
use raceloc_serve::{LocalizerSpec, ServeConfig, ServeEngine, SessionId, StepRequest, StepResult};
use raceloc_sim::{World, WorldConfig};
use raceloc_slam::CartoLocalizerConfig;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Pool width of the engine (the host's `nproc`).
const WIDTH: usize = 2;
/// Sessions per (track, localizer kind).
const REPLICAS: usize = 2;
/// Share of the measured seconds spent in closed-loop fleet steps; the
/// rest goes to the open-loop rates.
const STEPS_SHARE: f64 = 0.6;
/// The three fixed open-loop request rates \[req/s\]: about ½, ⅘ and
/// 1.25× of the rate whose p99 reached [`LIMIT_US`] on the reference host
/// (about 1600 req/s), frozen once.
const RATES: [f64; 3] = [800.0, 1300.0, 2000.0];
/// Share of the open-loop seconds each rate is held for.
const SHARES: [f64; 3] = [0.25, 0.5, 0.25];
/// The open-loop rate reported as the headline (the middle one).
const HEADLINE: usize = 1;
/// Per-request latency limit: one 40 Hz scan period \[µs\].
const LIMIT_US: f64 = 25_000.0;
/// Unmeasured closed-loop warm-up \[s\].
const WARMUP_S: f64 = 0.3;
/// Upper bound on the engine's throughput \[req/s\], for sizing the
/// pre-generated streams.
const MAX_RPS: f64 = 8000.0;
/// Cold set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Requests per session replayed untimed on a width-1 engine for the
/// result-digest check.
const REPLAY_PREFIX: usize = 40;
/// Odometry rate of the generated streams \[Hz\].
const ODOM_HZ: f64 = 50.0;

/// The serving tracks: four shapes on a 0.1 m grid.
fn track_specs() -> Vec<TrackSpec> {
    let fourier = |seed| TrackShape::RandomFourier {
        seed,
        mean_radius: 6.0,
        amplitude: 0.26,
        harmonics: 4,
    };
    [
        TrackShape::Oval {
            width: 12.0,
            height: 7.0,
        },
        TrackShape::RoundedRectangle {
            width: 11.0,
            height: 8.0,
            corner_radius: 2.0,
        },
        fourier(33),
        fourier(77),
    ]
    .into_iter()
    .map(|shape| TrackSpec::new(shape).half_width(1.25).resolution(0.1))
    .collect()
}

/// The localizer kinds, in session order per track.
fn session_specs() -> [LocalizerSpec; 3] {
    [
        LocalizerSpec::SynPf {
            config: SynPfConfig::default(),
            recovery: false,
        },
        LocalizerSpec::Cartographer(CartoLocalizerConfig::default()),
        LocalizerSpec::DeadReckoning,
    ]
}

/// The localizer kind of session `sid` (an index into [`KIND_LABELS`]).
fn kind_of(sid: usize) -> usize {
    sid % KIND_LABELS.len()
}

/// Short labels matching [`session_specs`].
const KIND_LABELS: [&str; 3] = ["synpf", "carto", "dr"];

/// One pre-generated step: the request inputs plus the ground truth at
/// its scan, if it carries one.
struct Step {
    odom: Odometry,
    scan: Option<(LaserScan, Pose2)>,
}

/// Records what the closed loop feeds a localizer, as serve steps.
#[derive(Default)]
struct Capture {
    steps: Vec<Step>,
    pose: Pose2,
}

impl Localizer for Capture {
    fn predict(&mut self, odom: &Odometry) {
        self.steps.push(Step {
            odom: *odom,
            scan: None,
        });
    }
    fn correct(&mut self, scan: &LaserScan) -> Pose2 {
        if let Some(last) = self.steps.last_mut().filter(|s| s.scan.is_none()) {
            last.scan = Some((scan.clone(), Pose2::IDENTITY));
        }
        self.pose
    }
    fn pose(&self) -> Pose2 {
        self.pose
    }
    fn reset(&mut self, pose: Pose2) {
        self.pose = pose;
    }
    fn name(&self) -> &str {
        "capture"
    }
}

/// Drives `track` under oracle control for `seconds` and returns its
/// step stream with the truth attached to every scan.
fn generate_stream(track: &Track, seed: u64, seconds: f64) -> Vec<Step> {
    let cfg = WorldConfig {
        seed,
        odom_hz: ODOM_HZ,
        ..WorldConfig::default()
    };
    let mut world = World::new(track.clone(), cfg);
    let mut cap = Capture::default();
    let log = world.run_with_oracle_control(&mut cap, seconds);
    let mut truths = log.samples.iter().map(|s| s.true_pose);
    for step in &mut cap.steps {
        if let Some((_, truth)) = step.scan.as_mut() {
            *truth = truths.next().unwrap_or(*truth);
        }
    }
    cap.steps
}

/// The engine with every session open and its first request answered.
struct Warm {
    engine: ServeEngine,
    /// Stream index of each session (`session id → track`).
    track_of: Vec<usize>,
    open_ms: Vec<f64>,
    trackgen_ms: f64,
    first_drain_ms: f64,
    total_s: f64,
    cpu_s: f64,
}

fn engine_config(width: usize, seed: u64) -> ServeConfig {
    ServeConfig {
        seed,
        threads: width,
        // Deep enough that the overload phase queues instead of shedding.
        queue_capacity: 1 << 20,
        max_sessions: 64,
        // One session per pool job, so even small batches use the width.
        chunk_min: 1,
        ..ServeConfig::default()
    }
}

/// One cold start: track generation, engine construction, every
/// `open_session` (artifact builds through the shared store), and the
/// first drain (lazy LUT builds and each session's first correction).
fn cold_start(width: usize, engine_seed: u64, streams: &[Vec<Step>]) -> Warm {
    let start = Instant::now();
    let cpu0 = cpu_seconds();
    let tracks: Vec<Track> = track_specs().iter().map(TrackSpec::build).collect();
    let trackgen_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut engine = ServeEngine::new(engine_config(width, engine_seed));
    let mut track_of = Vec::new();
    let mut open_ms = Vec::new();
    for (t, track) in tracks.iter().enumerate() {
        for spec in (0..REPLICAS).flat_map(|_| session_specs()) {
            let t0 = Instant::now();
            engine
                .open_session(
                    &track.grid,
                    ArtifactParams::default(),
                    spec,
                    track.start_pose(),
                )
                .expect("the session table has room");
            open_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            track_of.push(t);
        }
    }
    let t0 = Instant::now();
    for (sid, &t) in track_of.iter().enumerate() {
        submit(&mut engine, sid, &streams[t][0]);
    }
    engine.drain();
    let first_drain_ms = t0.elapsed().as_secs_f64() * 1e3;
    Warm {
        engine,
        track_of,
        open_ms,
        trackgen_ms,
        first_drain_ms,
        total_s: start.elapsed().as_secs_f64(),
        cpu_s: cpu_seconds() - cpu0,
    }
}

fn submit(engine: &mut ServeEngine, sid: usize, step: &Step) {
    engine
        .submit(StepRequest {
            session: SessionId(sid as u64),
            odom: step.odom,
            scan: step.scan.as_ref().map(|(s, _)| s.clone()),
        })
        .expect("every session stays open");
}

/// One open-loop request.
#[derive(Clone, Copy)]
struct Req {
    sid: usize,
    /// Index into the session's track stream.
    step: usize,
    /// Due time, seconds after the phase start.
    due: f64,
}

/// Raw samples of one phase \[µs\].
#[derive(Default)]
struct PhaseSamples {
    latency_us: Vec<f64>,
    queue_wait_us: Vec<f64>,
    gen_late_us: Vec<f64>,
    submit_us: Vec<f64>,
    drain_us: Vec<f64>,
    batch: Vec<f64>,
    wall_s: f64,
    backlog_at_end: usize,
    results: Vec<(usize, StepResult)>,
}

/// Poisson arrivals at `rate` for `seconds`, round-robin over sessions;
/// `next_step[s]` is each session's next unused index into its stream of
/// `stream_len` steps.
fn schedule(
    rate: f64,
    seconds: f64,
    stream_len: usize,
    next_step: &mut [usize],
    rng: &mut Rng64,
) -> Vec<Req> {
    let sessions = next_step.len();
    let mut reqs = Vec::new();
    let mut t = 0.0;
    let mut i = 0usize;
    loop {
        t += -(1.0 - rng.uniform()).ln() / rate;
        let sid = i % sessions;
        if t >= seconds || next_step[sid] >= stream_len {
            return reqs;
        }
        reqs.push(Req {
            sid,
            step: next_step[sid],
            due: t,
        });
        next_step[sid] += 1;
        i += 1;
    }
}

/// Replays one phase open-loop: submits each request when it falls due,
/// drains whenever requests are queued, and times every request from its
/// due time to the return of the drain that answers it.
fn run_phase(
    warm: &mut Warm,
    streams: &[Vec<Step>],
    reqs: &[Req],
    tr: &mut Tracer,
) -> PhaseSamples {
    let mut out = PhaseSamples::default();
    let sessions = warm.track_of.len();
    let mut pending: Vec<VecDeque<(usize, u32)>> = vec![VecDeque::new(); sessions];
    let t0 = Instant::now();
    let due_at = |r: &Req| t0 + Duration::from_secs_f64(r.due);
    let mut next = 0usize;
    let mut answered = 0usize;
    while answered < reqs.len() {
        let now = Instant::now();
        while let Some(r) = reqs.get(next).filter(|r| due_at(r) <= now) {
            let span = tr.reserve();
            let s0 = Instant::now();
            submit(
                &mut warm.engine,
                r.sid,
                &streams[warm.track_of[r.sid]][r.step],
            );
            let s1 = Instant::now();
            tr.record("serve.submit", span, next as u64, s0, s1);
            out.gen_late_us.push((s0 - due_at(r)).as_secs_f64() * 1e6);
            out.submit_us.push((s1 - s0).as_secs_f64() * 1e6);
            pending[r.sid].push_back((next, span));
            next += 1;
            if next == reqs.len() {
                out.backlog_at_end = next - answered;
            }
        }
        if warm.engine.queue_len() > 0 {
            let d0 = Instant::now();
            let results = warm.engine.drain();
            let d1 = Instant::now();
            tr.record("serve.drain", NO_SPAN, out.drain_us.len() as u64, d0, d1);
            out.drain_us.push((d1 - d0).as_secs_f64() * 1e6);
            out.batch.push(results.len() as f64);
            for res in results {
                let sid = res.session.0 as usize;
                let Some((idx, span)) = pending[sid].pop_front() else {
                    continue;
                };
                let due = due_at(&reqs[idx]);
                tr.record_as(span, "serve.request", NO_SPAN, idx as u64, due, d1);
                out.latency_us.push((d1 - due).as_secs_f64() * 1e6);
                out.queue_wait_us
                    .push((d0.saturating_duration_since(due)).as_secs_f64() * 1e6);
                out.results.push((reqs[idx].step, res));
                answered += 1;
            }
        } else if let Some(r) = reqs.get(next) {
            wait_until(due_at(r));
        }
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out
}

/// Raw samples of the closed-loop fleet steps.
#[derive(Default)]
struct StepSamples {
    latency_us: Vec<f64>,
    wall_s: f64,
    answered: usize,
    results: Vec<(usize, StepResult)>,
}

/// Closed-loop fleet steps: every session submits its next step at once,
/// the engine drains them as one batch, and the next step is released
/// when that drain returns. Each request is timed from its release to the
/// return of the drain that answers it.
fn run_steps(
    warm: &mut Warm,
    streams: &[Vec<Step>],
    next_step: &mut [usize],
    seconds: f64,
    tr: &mut Tracer,
) -> StepSamples {
    let mut out = StepSamples::default();
    let stream_len = streams.iter().map(Vec::len).min().unwrap_or(0);
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds && next_step.iter().all(|&k| k < stream_len) {
        let step = tr.reserve();
        let due = Instant::now();
        for (sid, k) in next_step.iter_mut().enumerate() {
            submit(&mut warm.engine, sid, &streams[warm.track_of[sid]][*k]);
        }
        let d0 = Instant::now();
        let results = warm.engine.drain();
        let d1 = Instant::now();
        tr.record("serve.drain", step, out.answered as u64, d0, d1);
        tr.record_as(step, "serve.step", NO_SPAN, out.answered as u64, due, d1);
        let us = (d1 - due).as_secs_f64() * 1e6;
        out.answered += results.len();
        for res in results {
            let sid = res.session.0 as usize;
            out.latency_us.push(us);
            out.results.push((next_step[sid], res));
        }
        next_step.iter_mut().for_each(|k| *k += 1);
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out
}

/// Sleeps most of the way to `t`, then spins.
fn wait_until(t: Instant) {
    let now = Instant::now();
    if t > now + Duration::from_micros(300) {
        std::thread::sleep(t - now - Duration::from_micros(200));
    }
    while Instant::now() < t {
        std::hint::spin_loop();
    }
}

/// FNV-1a digest over `(session, seq, pose bits, health)` of results in
/// canonical order.
fn digest(results: &mut [StepResult]) -> u64 {
    results.sort_by_key(|r| (r.session.0, r.seq));
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in results.iter() {
        eat(r.session.0);
        eat(r.seq);
        eat(r.pose.x.to_bits());
        eat(r.pose.y.to_bits());
        eat(r.pose.theta.to_bits());
        eat(r.health.as_str().len() as u64);
    }
    h
}

/// `serve_mixed`.
pub fn serve_mixed(args: &Args) -> Report {
    let mut rep = Report::default();
    let engine_seed = mix_seed(args.seed, 10);
    let steps_s = STEPS_SHARE * args.seconds;
    let open_s = SHARES.map(|f| f * (args.seconds - steps_s));
    // Inputs, outside the timed path: one oracle-driven stream per track,
    // long enough for every phase (a traced run repeats the steps).
    let tracks: Vec<Track> = track_specs().iter().map(TrackSpec::build).collect();
    let sessions = tracks.len() * REPLICAS * KIND_LABELS.len();
    let steps_reqs = MAX_RPS * (WARMUP_S + steps_s * (1.0 + args.trace as u8 as f64));
    let open_reqs: f64 = RATES.iter().zip(open_s).map(|(r, s)| r * s).sum::<f64>() * 1.2;
    let per_session = (steps_reqs + open_reqs) / sessions as f64 + REPLAY_PREFIX as f64;
    let stream_s = per_session / ODOM_HZ + 2.0;
    let streams: Vec<Vec<Step>> = tracks
        .iter()
        .enumerate()
        .map(|(t, track)| generate_stream(track, mix_seed(args.seed, 20 + t as u64), stream_s))
        .collect();
    let stream_len = streams.iter().map(Vec::len).min().unwrap_or(0);

    let mut colds = Vec::new();
    let mut warm = None;
    for _ in 0..SETUP_REPS {
        let w = cold_start(WIDTH, engine_seed, &streams);
        let open = median(&w.open_ms).unwrap_or(0.0);
        colds.push([w.cpu_s, open, w.first_drain_ms, w.trackgen_ms, w.total_s]);
        warm = Some(w);
    }
    let mut warm = warm.expect("at least one cold start");
    let med = |i: usize| median(&colds.iter().map(|c| c[i]).collect::<Vec<_>>()).unwrap_or(0.0);
    rep.e2e("setup_s", med(0), "s", Some(SETUP_REPS));
    rep.detail("setup_wall_s", med(4), "s", Some(SETUP_REPS));
    rep.layer("serve.open_ms", med(1), "ms", Some(SETUP_REPS * sessions));
    rep.detail("serve.first_drain_ms", med(2), "ms", Some(SETUP_REPS));
    rep.layer("map.trackgen_ms", med(3), "ms", Some(SETUP_REPS));
    let store = warm.engine.store();
    let (builds, hits) = (store.builds(), store.hits());
    rep.layer(
        "range.store_hit_ratio",
        hits as f64 / (hits + builds).max(1) as f64,
        "ratio",
        None,
    );

    let mut tr = Tracer::new(false);
    let mut next_step = vec![1usize; sessions];
    let mut all: Vec<(usize, StepResult)> = Vec::new();
    let mut attempted = 0u64;
    let shed_before = warm.engine.shed_total() + warm.engine.budget_shed_total();

    // Closed-loop fleet steps after an unmeasured warm-up: the tracked
    // per-request latency and CPU cost, and capacity. A traced run
    // repeats them traced.
    let mut warmup = run_steps(&mut warm, &streams, &mut next_step, WARMUP_S, &mut tr);
    attempted += warmup.answered as u64;
    all.append(&mut warmup.results);
    let cpu0 = cpu_seconds();
    let mut steps = run_steps(&mut warm, &streams, &mut next_step, steps_s, &mut tr);
    let cpu_us = (cpu_seconds() - cpu0) * 1e6 / steps.answered.max(1) as f64;
    attempted += steps.answered as u64;
    all.append(&mut steps.results);
    let capacity = steps.answered as f64 / steps.wall_s.max(1e-9);
    rep.e2e("cpu_us_per_op", cpu_us, "us", Some(steps.answered));
    rep.e2e_p50("latency_p50_us", "us", &steps.latency_us);
    rep.detail("step_rps", capacity, "1/s", Some(steps.answered));
    rep.detail_timing("step_latency", "_us", "us", &steps.latency_us);
    if args.trace {
        tr.set_on(true);
        let mut traced = run_steps(&mut warm, &streams, &mut next_step, steps_s, &mut tr);
        attempted += traced.answered as u64;
        all.append(&mut traced.results);
        let traced_rate = traced.answered as f64 / traced.wall_s.max(1e-9);
        rep.trace_overhead(capacity, traced_rate);
    }

    // Open-loop phases at the fixed rates: per-request latency from each
    // request's due time, and the highest rate meeting the limit.
    let mut rng = Rng64::new(mix_seed(args.seed, 30));
    let mut phases = Vec::new();
    let mut headline = PhaseSamples::default();
    let mut drains = 0usize;
    // A rollup publishes pool counters as deltas since the previous one.
    warm.engine.rollup();
    for (k, (&rate, secs)) in RATES.iter().zip(open_s).enumerate() {
        let reqs = schedule(rate, secs, stream_len, &mut next_step, &mut rng);
        attempted += reqs.len() as u64;
        let mut ph = run_phase(&mut warm, &streams, &reqs, &mut tr);
        let lat = Summary::of(&ph.latency_us);
        let tail = lat.map_or(f64::INFINITY, |s| s.tail);
        let achieved = reqs.len() as f64 / ph.wall_s.max(1e-9);
        phases.push(RatePhase {
            offered_rps: rate,
            achieved_rps: achieved,
            tail_us: tail,
            backlog_at_end: ph.backlog_at_end,
        });
        let n = lat.map(|s| s.n);
        rep.detail(
            &format!("req_p50_us@{rate}"),
            lat.map_or(0.0, |s| s.p50),
            "us",
            n,
        );
        rep.detail(&format!("req_tail_us@{rate}"), tail, "us", n);
        rep.detail(&format!("achieved_rps@{rate}"), achieved, "1/s", n);
        rep.detail(
            &format!("backlog_at_end@{rate}"),
            ph.backlog_at_end as f64,
            "count",
            None,
        );
        all.append(&mut ph.results);
        drains += ph.drain_us.len();
        if k == HEADLINE {
            headline = ph;
        }
    }
    let shed = warm.engine.shed_total() + warm.engine.budget_shed_total() - shed_before;
    let sustained = sustained_rps(&phases, LIMIT_US);
    rep.detail_timing("req", "_us", "us", &headline.latency_us);
    rep.detail("sustained_rps", sustained, "1/s", None);

    // Accuracy of the answered scans against the generator's truth.
    for (kind, label) in KIND_LABELS.iter().enumerate().take(2) {
        let (mut sq, mut n) = (0.0, 0usize);
        for (step, res) in &all {
            let sid = res.session.0 as usize;
            if kind_of(sid) != kind {
                continue;
            }
            if let Some((_, truth)) = &streams[warm.track_of[sid]][*step].scan {
                let e = truth.dist(res.pose);
                sq += e * e;
                n += 1;
            }
        }
        rep.detail(
            &format!("rmse_cm.{label}"),
            100.0 * (sq / n.max(1) as f64).sqrt(),
            "cm",
            Some(n),
        );
    }

    // Correctness: finite poses, nothing shed or lost, and the served
    // results match an untimed width-1 replay of the same requests.
    let nonfinite = all
        .iter()
        .filter(|(_, r)| {
            !(r.pose.x.is_finite() && r.pose.y.is_finite() && r.pose.theta.is_finite())
        })
        .count() as u64;
    let lost = attempted.saturating_sub(all.len() as u64);
    rep.check(nonfinite == 0, || {
        format!("serve_mixed: {nonfinite} non-finite poses")
    });
    rep.check(shed == 0, || format!("serve_mixed: {shed} requests shed"));
    rep.check(lost == 0, || {
        format!("serve_mixed: {lost} of {attempted} requests unanswered")
    });
    check_replay(&mut rep, engine_seed, &streams, &warm, &all);
    rep.attempted = attempted;
    rep.failed = shed + nonfinite + lost;

    if args.trace {
        let h = &headline;
        let drain_ms: Vec<f64> = h.drain_us.iter().map(|us| us * 1e-3).collect();
        let batches = h.batch.len();
        rep.layer_p50("serve.submit_us_p50", "us", &h.submit_us);
        rep.layer_p50("serve.queue_wait_us_p50", "us", &h.queue_wait_us);
        rep.layer_tail("serve.queue_wait_us_p99", "us", &h.queue_wait_us);
        rep.layer_p50("serve.drain_ms_p50", "ms", &drain_ms);
        rep.layer_tail("serve.drain_ms_p99", "ms", &drain_ms);
        let batch_mean = h.batch.iter().sum::<f64>() / batches.max(1) as f64;
        rep.layer("serve.batch_mean", batch_mean, "count", Some(batches));
        rep.layer("serve.shed", shed as f64, "count", None);
        rep.layer_tail("serve.gen_late_us_p99", "us", &h.gen_late_us);
        let jobs = warm.engine.rollup().total("par.pool.jobs").unwrap_or(0);
        rep.layer(
            "par.jobs",
            jobs as f64 / drains.max(1) as f64,
            "count",
            Some(drains),
        );
        let busy_s = headline.drain_us.iter().sum::<f64>() * 1e-6;
        rep.layer(
            "par.busy_frac",
            busy_s / headline.wall_s.max(1e-9),
            "ratio",
            None,
        );
        tr.save(args);
    }
    rep
}

/// Replays the first [`REPLAY_PREFIX`] requests of every session on a
/// fresh width-1 engine, untimed, and compares result digests.
fn check_replay(
    rep: &mut Report,
    engine_seed: u64,
    streams: &[Vec<Step>],
    warm: &Warm,
    served: &[(usize, StepResult)],
) {
    let mut served_prefix: Vec<StepResult> = served
        .iter()
        .map(|(_, r)| *r)
        .filter(|r| (r.seq as usize) <= REPLAY_PREFIX)
        .collect();
    let sessions = warm.track_of.len();
    let mut reference = cold_start(1, engine_seed, streams);
    for (sid, &track) in warm.track_of.iter().enumerate() {
        for step in &streams[track][1..=REPLAY_PREFIX] {
            submit(&mut reference.engine, sid, step);
        }
    }
    let mut replayed = reference.engine.drain();
    let want = sessions * REPLAY_PREFIX;
    rep.check(served_prefix.len() == want, || {
        format!(
            "serve_mixed: {} served results in the replay prefix, want {want}",
            served_prefix.len()
        )
    });
    let (a, b) = (digest(&mut served_prefix), digest(&mut replayed));
    rep.check(a == b, || {
        format!("serve_mixed: served digest {a:016x} != width-1 replay {b:016x}")
    });
}
