//! The closed-loop workloads: `race_hq` (the paper's on-car
//! configuration) and `race_faults` (the robustness experiment, SynPF then
//! Cartographer on identical inputs).

use crate::report::Report;
use crate::stats::{median, Summary};
use crate::trace::{Shared, Tracer};
use crate::wrap::{Pf, Probe, Timed, SCAN_PERIOD_US};
use crate::{cpu_seconds, mix_seed, Args};
use raceloc_core::{CostModel, DeadlineConfig, Localizer, RangeTier};
use raceloc_faults::FaultSchedule;
use raceloc_map::{Track, TrackShape, TrackSpec};
use raceloc_obs::Telemetry;
use raceloc_pf::{HealthPolicy, KldConfig, RecoveryConfig, SynPf, SynPfConfig};
use raceloc_range::{ArtifactParams, MapArtifacts, RangeMethod};
use raceloc_sim::{SimLog, World, WorldConfig};
use raceloc_slam::{CartoLocalizer, CartoLocalizerConfig, SlamHealthPolicy};
use std::sync::Arc;
use std::time::Instant;

/// Grip of the nominal surface (HQ odometry).
const MU_HQ: f64 = 1.0;
/// Taped tires: the paper's 19 N / 26 N lateral-pull ratio (LQ odometry).
const MU_LQ: f64 = 19.0 / 26.0;
/// Cold set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Simulated seconds per `race_hq` episode (about one lap).
const HQ_EPISODE_S: f64 = 10.0;
/// Corrections per `race_faults` episode (10 s at 40 Hz): short
/// episodes put more independent recoveries into one run.
const FAULT_STEPS: u64 = 400;
/// SynPF whole-run RMSE gate on `race_hq` \[cm\].
const HQ_RMSE_GATE_CM: f64 = 30.0;
/// Particle count of the paper's Table III configuration.
const PARTICLES: usize = 1200;
/// Beams of the boxed layout.
const LAYOUT_BEAMS: u64 = 60;

/// The paper-scale test track (the repository's `test_track`).
fn track_spec() -> TrackSpec {
    TrackSpec::new(TrackShape::RandomFourier {
        seed: 33,
        mean_radius: 6.0,
        amplitude: 0.26,
        harmonics: 4,
    })
    .half_width(1.25)
    .resolution(0.05)
}

/// A single-threaded world on grip `mu`, its speed profile planned for
/// that grip (the lateral-acceleration budget scales with μ).
fn world_config(mu: f64, seed: u64) -> WorldConfig {
    let mut cfg = WorldConfig::default();
    cfg.vehicle.mu = mu;
    cfg.a_lat_max *= mu;
    cfg.seed = seed;
    cfg.threads = 1;
    cfg
}

/// The fixed `race_faults` schedule: slip, range bias, blackout, kidnap,
/// and a compute-pressure window, in that order over one episode.
fn fault_schedule() -> FaultSchedule {
    FaultSchedule::builder()
        .seed(0xFA57)
        .odom_slip(40, 80, 1.8)
        .range_bias(120, 160, 0.30)
        .lidar_blackout(200, 215)
        .pose_kidnap(250, 6.0)
        .compute_pressure(310, 360, 0.5)
        .build()
        .expect("the benchmark fault schedule is valid")
}

/// The paper's Table III SynPF: N = 1200, boxed 60-beam layout,
/// compressed LUT, one thread.
fn synpf_hq(seed: u64) -> SynPfConfig {
    SynPfConfig::builder()
        .particles(PARTICLES)
        .threads(1)
        .seed(seed)
        .build()
        .expect("Table III configuration is valid")
}

/// SynPF for the robustness run: health detectors, global re-init, KLD
/// cloud sizing, and a deadline budget of one full-quality step.
fn synpf_faults(seed: u64) -> SynPfConfig {
    let budget = CostModel::default().step_units(PARTICLES as u64, LAYOUT_BEAMS, RangeTier::Exact);
    SynPfConfig::builder()
        .particles(PARTICLES)
        .threads(1)
        .seed(seed)
        .recovery(RecoveryConfig::default())
        .health(HealthPolicy::default())
        .kld(KldConfig {
            min_particles: PARTICLES / 4,
            max_particles: PARTICLES,
            ..KldConfig::default()
        })
        .deadline(DeadlineConfig {
            budget_units: budget,
            ..DeadlineConfig::default()
        })
        .build()
        .expect("robustness configuration is valid")
}

fn carto_config() -> CartoLocalizerConfig {
    CartoLocalizerConfig {
        health: Some(SlamHealthPolicy::default()),
        ..CartoLocalizerConfig::default()
    }
}

/// A SynPF over shared artifacts, with global re-initialization when
/// `recovery` is set.
fn synpf(artifacts: &Arc<MapArtifacts>, config: SynPfConfig, recovery: bool) -> Pf {
    let mut pf = SynPf::from_artifacts(Arc::clone(artifacts), config);
    if recovery {
        pf.enable_recovery_from_artifacts();
    }
    pf
}

/// Layer timings of one cold start \[ms\].
#[derive(Debug, Default, Clone, Copy)]
struct ColdTimes {
    total_s: f64,
    cpu_s: f64,
    trackgen_ms: f64,
    edt_ms: f64,
    lut_ms: f64,
    lut_bytes: f64,
    pf_first_ms: f64,
    slam_first_ms: f64,
}

/// What a cold start leaves behind for the measured loop.
struct Cold {
    track: Track,
    artifacts: Arc<MapArtifacts>,
    pf: Pf,
    carto: Option<CartoLocalizer>,
    times: ColdTimes,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One cold start, up to the first answered scan of every localizer:
/// trackgen, EDT, LUT build, localizer construction, world construction,
/// and each localizer's first correction.
fn cold_start(pf_cfg: SynPfConfig, mu: f64, seed: u64, with_carto: bool, recovery: bool) -> Cold {
    let start = Instant::now();
    let cpu0 = cpu_seconds();
    let t = Instant::now();
    let track = track_spec().build();
    let trackgen_ms = ms_since(t);
    let t = Instant::now();
    let artifacts = Arc::new(MapArtifacts::build(&track.grid, ArtifactParams::default()));
    let edt_ms = ms_since(t);
    let t = Instant::now();
    let lut_bytes = artifacts.lut().memory_bytes() as f64;
    let lut_ms = ms_since(t);
    let mut pf = synpf(&artifacts, pf_cfg, recovery);
    let mut carto = with_carto.then(|| CartoLocalizer::from_artifacts(&artifacts, carto_config()));
    let mut world = World::new(track.clone(), world_config(mu, seed));
    let scan = world.scan_now();
    let pose = track.start_pose();
    let t = Instant::now();
    pf.reset(pose);
    pf.correct(&scan);
    let pf_first_ms = ms_since(t);
    let mut slam_first_ms = 0.0;
    if let Some(c) = carto.as_mut() {
        let t = Instant::now();
        c.reset(pose);
        c.correct(&scan);
        slam_first_ms = ms_since(t);
    }
    let times = ColdTimes {
        total_s: start.elapsed().as_secs_f64(),
        cpu_s: cpu_seconds() - cpu0,
        trackgen_ms,
        edt_ms,
        lut_ms,
        lut_bytes,
        pf_first_ms,
        slam_first_ms,
    };
    Cold {
        track,
        artifacts,
        pf,
        carto,
        times,
    }
}

/// Runs [`SETUP_REPS`] cold starts; reports their medians and keeps the
/// last one.
fn set_up(rep: &mut Report, make: impl Fn() -> Cold) -> Cold {
    let mut all: Vec<ColdTimes> = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let cold = make();
        all.push(cold.times);
        last = Some(cold);
    }
    let med =
        |f: fn(&ColdTimes) -> f64| median(&all.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
    rep.e2e("setup_s", med(|c| c.cpu_s), "s", Some(SETUP_REPS));
    rep.detail("setup_wall_s", med(|c| c.total_s), "s", Some(SETUP_REPS));
    rep.layer(
        "map.trackgen_ms",
        med(|c| c.trackgen_ms),
        "ms",
        Some(SETUP_REPS),
    );
    rep.layer(
        "range.edt_build_ms",
        med(|c| c.edt_ms),
        "ms",
        Some(SETUP_REPS),
    );
    rep.layer(
        "range.lut_build_ms",
        med(|c| c.lut_ms),
        "ms",
        Some(SETUP_REPS),
    );
    rep.layer("range.lut_bytes", med(|c| c.lut_bytes), "bytes", None);
    rep.layer(
        "pf.first_correct_ms",
        med(|c| c.pf_first_ms),
        "ms",
        Some(SETUP_REPS),
    );
    if all.iter().any(|c| c.slam_first_ms > 0.0) {
        rep.layer(
            "slam.first_correct_ms",
            med(|c| c.slam_first_ms),
            "ms",
            Some(SETUP_REPS),
        );
    }
    last.expect("at least one cold start")
}

/// Position error accumulator over closed-loop logs.
#[derive(Debug, Default)]
struct ErrAcc {
    sq: f64,
    max: f64,
    n: usize,
}

impl ErrAcc {
    fn push(&mut self, log: &SimLog) {
        for s in &log.samples {
            let e = s.true_pose.dist(s.est_pose);
            if e.is_finite() {
                self.sq += e * e;
                self.max = self.max.max(e);
            }
            self.n += 1;
        }
    }
    fn rmse_cm(&self) -> f64 {
        100.0 * (self.sq / self.n.max(1) as f64).sqrt()
    }
}

/// Wall time and corrections of the measured loop, split by tracing.
#[derive(Debug, Default)]
struct LoopClock {
    secs: [f64; 2],
    scans: [usize; 2],
}

impl LoopClock {
    fn add(&mut self, traced: bool, secs: f64, scans: usize) {
        self.secs[traced as usize] += secs;
        self.scans[traced as usize] += scans;
    }
    fn rate(&self, traced: bool) -> f64 {
        self.scans[traced as usize] as f64 / self.secs[traced as usize].max(1e-9)
    }
}

/// Per-layer metrics derived from one localizer's spans and getter
/// counts over `eps` traced episodes; `layer` is `pf` or `slam`.
fn layer_metrics<L: Probe>(
    rep: &mut Report,
    tr: &Tracer,
    timed: &Timed<L>,
    layer: &str,
    eps: usize,
) {
    let pred = tr.durations_us(L::NAMES.predict);
    let corr = tr.durations_us(L::NAMES.correct);
    rep.layer_p50(&format!("{layer}.predict_us_p50"), "us", &pred);
    rep.layer_p50(&format!("{layer}.correct_us_p50"), "us", &corr);
    rep.layer_tail(&format!("{layer}.correct_us_p99"), "us", &corr);
    let c = &timed.counts;
    if layer == "pf" {
        let d = c.diag_n.max(1) as f64;
        let s = c.scans.max(1) as f64;
        rep.layer(
            "pf.particles_mean",
            c.particles_sum / d,
            "count",
            Some(c.diag_n as usize),
        );
        rep.layer(
            "pf.ess_frac_mean",
            c.ess_frac_sum / d,
            "ratio",
            Some(c.diag_n as usize),
        );
        rep.layer(
            "pf.lost_frac",
            c.health[2] as f64 / s,
            "ratio",
            Some(c.scans as usize),
        );
        rep.layer(
            "pf.recovering_frac",
            c.health[3] as f64 / s,
            "ratio",
            Some(c.scans as usize),
        );
        let per_ep = c.rung_changes as f64 / eps.max(1) as f64;
        rep.layer("core.deadline.rung_changes", per_ep, "1/episode", Some(eps));
    } else {
        let m = c.match_n.max(1) as f64;
        rep.layer(
            "slam.match_score_mean",
            c.match_score_sum / m,
            "score",
            Some(c.match_n as usize),
        );
    }
}

/// Simulator remainder: each scan period's wall time minus the decorated
/// localizer calls inside it.
fn sim_metrics(rep: &mut Report, tr: &Tracer) {
    let periods = tr.durations_us("sim.period");
    let selfs = tr.self_times_us("sim.period");
    rep.layer_p50("sim.self_us_p50", "us", &selfs);
    rep.layer_tail("sim.self_us_p99", "us", &selfs);
    let total: f64 = periods.iter().sum();
    rep.layer(
        "sim.share",
        selfs.iter().sum::<f64>() / total.max(1e-9),
        "ratio",
        Some(periods.len()),
    );
}

/// Episodes every run makes: one, or an untraced and a traced one.
fn min_episodes(args: &Args) -> usize {
    1 + args.trace as usize
}

/// Whether the episode with index `ep` is traced: traced runs alternate
/// untraced and traced episodes so the tracing overhead is measured
/// within one process.
fn traced_episode(args: &Args, ep: usize) -> bool {
    args.trace && ep % 2 == 1
}

/// `race_hq`: closed loop, HQ odometry, no faults, Table III SynPF.
pub fn race_hq(args: &Args) -> Report {
    let mut rep = Report::default();
    let world_seed = mix_seed(args.seed, 1);
    let cold = set_up(&mut rep, || {
        cold_start(
            synpf_hq(mix_seed(args.seed, 2)),
            MU_HQ,
            world_seed,
            false,
            false,
        )
    });
    let tr = Tracer::shared(false);
    let tel = Telemetry::enabled();
    let mut timed = Timed::new(cold.pf, Shared::clone(&tr));
    let mut err = ErrAcc::default();
    let mut clock = LoopClock::default();
    let mut lost = 0usize;
    let scheduled = (HQ_EPISODE_S * WorldConfig::default().lidar_hz).floor() as usize;
    let cpu0 = cpu_seconds();
    let deadline = Instant::now() + args.duration();
    let mut ep = 0;
    while ep < min_episodes(args) || Instant::now() < deadline {
        let traced = traced_episode(args, ep);
        tr.borrow_mut().set_on(traced);
        let ep_tel = episode_telemetry(&tel, traced);
        // A fresh world per episode: the closed loop schedules its sensors
        // from time zero, so a world is driven by one `run` call only.
        let mut world = World::new(
            cold.track.clone(),
            world_config(MU_HQ, mix_seed(world_seed, ep as u64)),
        );
        world.set_telemetry(ep_tel.clone());
        timed.inner.set_telemetry(ep_tel);
        let t = Instant::now();
        let log = world.run(&mut timed, HQ_EPISODE_S);
        clock.add(traced, t.elapsed().as_secs_f64(), log.samples.len());
        err.push(&log);
        ep += 1;
        if log.crashed {
            lost += scheduled.saturating_sub(log.samples.len());
            rep.check(false, || {
                format!("race_hq: the car crashed in episode {ep}")
            });
            break;
        }
    }
    tr.borrow_mut().set_on(false);

    let cpu_us = (cpu_seconds() - cpu0) * 1e6 / timed.corrections.max(1) as f64;
    e2e_loop(&mut rep, &timed.scan_us, cpu_us);
    rep.detail_timing("scan", "_us.synpf", "us", &timed.scan_us);
    rep.detail(
        "loop_scans_per_s",
        clock.rate(false),
        "1/s",
        Some(clock.scans[0]),
    );
    rep.detail("rmse_cm.synpf", err.rmse_cm(), "cm", Some(err.n));
    rep.detail("max_err_cm.synpf", 100.0 * err.max, "cm", Some(err.n));
    rep.check(err.rmse_cm() < HQ_RMSE_GATE_CM, || {
        format!(
            "race_hq: SynPF RMSE {:.1} cm is over the {HQ_RMSE_GATE_CM} cm gate",
            err.rmse_cm()
        )
    });
    rep.check(timed.nonfinite == 0, || {
        format!("race_hq: {} non-finite SynPF poses", timed.nonfinite)
    });
    rep.attempted = timed.corrections + lost as u64;
    rep.failed = lost as u64 + timed.nonfinite;
    rep.slow = timed.slow;

    if args.trace {
        let tr = tr.borrow();
        episode_counts(&mut rep, &tel, ep / 2);
        layer_metrics(&mut rep, &tr, &timed, "pf", ep / 2);
        sim_metrics(&mut rep, &tr);
        rep.trace_overhead(clock.rate(false), clock.rate(true));
        tr.save(args);
    }
    rep
}

/// `race_faults`: LQ odometry, oracle control, the fixed fault schedule;
/// SynPF first, then Cartographer, on identical inputs.
pub fn race_faults(args: &Args) -> Report {
    let mut rep = Report::default();
    let world_seed = mix_seed(args.seed, 3);
    let cold = set_up(&mut rep, || {
        cold_start(
            synpf_faults(mix_seed(args.seed, 4)),
            MU_LQ,
            world_seed,
            true,
            true,
        )
    });
    let schedule = fault_schedule();
    let steps = FAULT_STEPS as f64 / WorldConfig::default().lidar_hz;
    let tr = Tracer::shared(false);
    let tel = Telemetry::enabled();
    let carto = cold.carto.expect("race_faults builds Cartographer");
    let mut tpf = Timed::new(cold.pf, Shared::clone(&tr));
    let mut tcarto = Timed::new(carto, Shared::clone(&tr));
    let (mut err_pf, mut err_c) = (ErrAcc::default(), ErrAcc::default());
    let mut clock = LoopClock::default();
    let mut lost = 0usize;
    let mut cpu_s = 0.0;
    let deadline = Instant::now() + args.duration();
    let mut ep = 0;
    while ep < min_episodes(args) || Instant::now() < deadline {
        let traced = traced_episode(args, ep);
        tr.borrow_mut().set_on(traced);
        let ep_tel = episode_telemetry(&tel, traced);
        // Identical inputs: both localizers drive worlds of the same seed
        // under oracle control, so the truth and sensor streams match.
        let [mut w_pf, mut w_c] = [(); 2].map(|_| {
            let mut w = World::new(
                cold.track.clone(),
                world_config(MU_LQ, mix_seed(world_seed, ep as u64)),
            );
            w.set_fault_schedule(schedule.clone());
            w
        });
        // Fresh localizers per episode keep the episodes independent
        // trials (the cold start stays in `setup_s`).
        if ep > 0 {
            let seed = mix_seed(args.seed, 100 + ep as u64);
            tpf.inner = synpf(&cold.artifacts, synpf_faults(seed), true);
            tcarto.inner = CartoLocalizer::from_artifacts(&cold.artifacts, carto_config());
        }
        w_pf.set_telemetry(ep_tel.clone());
        tpf.inner.set_telemetry(ep_tel.clone());
        tcarto.inner.set_telemetry(ep_tel);
        let cpu0 = cpu_seconds();
        let t = Instant::now();
        let log_pf = w_pf.run_with_oracle_control(&mut tpf, steps);
        let log_c = w_c.run_with_oracle_control(&mut tcarto, steps);
        clock.add(
            traced,
            t.elapsed().as_secs_f64(),
            log_pf.samples.len() + log_c.samples.len(),
        );
        cpu_s += cpu_seconds() - cpu0;
        err_pf.push(&log_pf);
        err_c.push(&log_c);
        ep += 1;
        for log in [&log_pf, &log_c] {
            lost += (FAULT_STEPS as usize).saturating_sub(log.samples.len());
        }
        if log_pf.crashed || log_c.crashed {
            rep.check(false, || {
                format!("race_faults: crash under oracle control in episode {ep}")
            });
            break;
        }
    }
    tr.borrow_mut().set_on(false);

    let corrections = tpf.corrections + tcarto.corrections;
    let cpu_us = cpu_s * 1e6 / corrections.max(1) as f64;
    e2e_loop(&mut rep, &tpf.scan_us, cpu_us);
    rep.detail_timing("scan", "_us.synpf", "us", &tpf.scan_us);
    rep.detail_timing("scan", "_us.carto", "us", &tcarto.scan_us);
    rep.detail(
        "loop_scans_per_s",
        clock.rate(false),
        "1/s",
        Some(clock.scans[0]),
    );
    rep.detail("rmse_cm.synpf", err_pf.rmse_cm(), "cm", Some(err_pf.n));
    rep.detail("max_err_cm.synpf", 100.0 * err_pf.max, "cm", Some(err_pf.n));
    rep.detail("rmse_cm.carto", err_c.rmse_cm(), "cm", Some(err_c.n));
    rep.detail("max_err_cm.carto", 100.0 * err_c.max, "cm", Some(err_c.n));
    let nonfinite = tpf.nonfinite + tcarto.nonfinite;
    rep.check(nonfinite == 0, || {
        format!("race_faults: {nonfinite} non-finite poses")
    });
    rep.attempted = tpf.corrections + tcarto.corrections + lost as u64;
    rep.failed = lost as u64 + nonfinite;
    rep.slow = tpf.slow + tcarto.slow;

    if args.trace {
        let tr = tr.borrow();
        episode_counts(&mut rep, &tel, ep / 2);
        layer_metrics(&mut rep, &tr, &tpf, "pf", ep / 2);
        layer_metrics(&mut rep, &tr, &tcarto, "slam", ep / 2);
        sim_metrics(&mut rep, &tr);
        rep.trace_overhead(clock.rate(false), clock.rate(true));
        tr.save(args);
    }
    rep
}

/// The end-to-end metrics of a closed-loop workload.
fn e2e_loop(rep: &mut Report, scan_us: &[f64], cpu_us: f64) {
    rep.e2e("cpu_us_per_op", cpu_us, "us", None);
    rep.e2e_p50("latency_p50_us", "us", scan_us);
    match Summary::of(scan_us) {
        None => rep.check(false, || "no steady-state scans were timed".to_string()),
        Some(s) => rep.check(s.tail < SCAN_PERIOD_US, || {
            format!(
                "tail scan latency {:.0} us misses the 25 ms scan period",
                s.tail
            )
        }),
    }
}

/// The telemetry of one episode: the shared enabled handle on traced
/// episodes, a disabled one otherwise.
fn episode_telemetry(tel: &Telemetry, traced: bool) -> Telemetry {
    if traced {
        tel.clone()
    } else {
        Telemetry::disabled()
    }
}

/// Telemetry counts booked over the traced episodes, per traced episode
/// so runs of different lengths compare: re-inits and scans under a fault.
fn episode_counts(rep: &mut Report, tel: &Telemetry, traced_eps: usize) {
    let eps = traced_eps.max(1) as f64;
    let snap = tel.snapshot();
    let reinit = snap.counter("pf.health.reinit").unwrap_or(0) as f64;
    rep.layer("pf.reinit", reinit / eps, "1/episode", Some(traced_eps));
    rep.layer(
        "faults.active_scans",
        fault_steps(&snap) as f64 / eps,
        "1/episode",
        Some(traced_eps),
    );
}

/// Scans on which any fault was active (world telemetry).
fn fault_steps(snap: &raceloc_obs::Snapshot) -> u64 {
    snap.counters()
        .filter(|(name, _)| name.starts_with("faults.") && name.ends_with(".steps"))
        .map(|(_, v)| v)
        .sum()
}
