//! `fleet_sweep`: the fixed fleet spec in `fleet_spec.json`, run through
//! `run_fleet_with` at pool width `nproc` with a fresh, empty cell cache
//! every invocation.

use crate::report::Report;
use crate::stats::median;
use crate::trace::{Tracer, NO_SPAN};
use crate::{cpu_seconds, mix_seed, Args};
use raceloc_eval::{
    execute_run, ordering_violations, run_fleet_with, EvalMethod, FleetCtx, FleetReport,
    FleetRunOptions, FleetSpec,
};
use raceloc_range::RangeMethod;
use std::time::Instant;

/// Pool width (the host's `nproc`).
const WIDTH: usize = 2;
/// Cold set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// The fleet: one map × {HQ, LQ} × {nominal, odom_slip, pose_kidnap} ×
/// {SynPF, Cartographer, DeadReckoning} × 2 replicates.
const SPEC_JSON: &str = include_str!("../fleet_spec.json");

fn spec(seed: u64) -> FleetSpec {
    let mut spec = FleetSpec::from_json_str(SPEC_JSON).expect("the benchmark fleet spec parses");
    spec.master_seed = mix_seed(seed, 40);
    spec
}

/// One cold start: every map's track, EDT and (forced) range LUT.
/// Returns its wall and CPU seconds.
fn cold_start(spec: &FleetSpec) -> (f64, f64, FleetCtx) {
    let t = Instant::now();
    let cpu0 = cpu_seconds();
    let ctx = FleetCtx::build(spec);
    for m in &ctx.maps {
        m.artifacts.lut().memory_bytes();
    }
    (t.elapsed().as_secs_f64(), cpu_seconds() - cpu0, ctx)
}

/// `fleet_sweep`.
pub fn fleet_sweep(args: &Args) -> Report {
    let mut rep = Report::default();
    let spec = spec(args.seed);
    let colds: Vec<(f64, f64)> = (0..SETUP_REPS)
        .map(|_| {
            let (wall, cpu, _) = cold_start(&spec);
            (wall, cpu)
        })
        .collect();
    let wall = median(&colds.iter().map(|c| c.0).collect::<Vec<_>>()).unwrap_or(0.0);
    let cpu = median(&colds.iter().map(|c| c.1).collect::<Vec<_>>()).unwrap_or(0.0);
    rep.e2e("setup_s", cpu, "s", Some(SETUP_REPS));
    rep.detail("setup_wall_s", wall, "s", Some(SETUP_REPS));
    rep.layer("eval.ctx_build_ms", wall * 1e3, "ms", Some(SETUP_REPS));

    let cache_root = args
        .out_dir
        .join(format!("fleet_cache_{}", std::process::id()));
    let mut tr = Tracer::new(false);
    let mut walls = Vec::new();
    let mut runs = 0u64;
    let mut first: Option<String> = None;
    let mut stores = 0u64;
    let mut report: Option<FleetReport> = None;
    let mut cpu_s = 0.0;
    let deadline = Instant::now() + args.duration();
    let mut k = 0usize;
    while k == 0 || Instant::now() < deadline {
        let dir = cache_root.join(k.to_string());
        let opts = FleetRunOptions {
            threads: WIDTH,
            cache_dir: Some(dir.clone()),
            ..FleetRunOptions::default()
        };
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let out = run_fleet_with(&spec, &opts);
        let t1 = Instant::now();
        cpu_s += cpu_seconds() - cpu0;
        tr.record("eval.run_fleet_with", NO_SPAN, k as u64, t0, t1);
        let _ = std::fs::remove_dir_all(&dir);
        k += 1;
        match out {
            Ok((r, stats)) => {
                walls.push((t1 - t0).as_secs_f64());
                runs += stats.executed_runs;
                stores = stats.cache_stores;
                let text = r.to_json().to_string();
                match &first {
                    None => first = Some(text),
                    Some(f) => rep.check(*f == text, || {
                        format!("fleet_sweep: invocation {k} report differs from the first")
                    }),
                }
                report = Some(r);
            }
            Err(e) => {
                rep.check(false, || format!("fleet_sweep: run_fleet_with failed: {e}"));
                break;
            }
        }
    }
    let cpu_us = cpu_s * 1e6 / runs.max(1) as f64;
    let _ = std::fs::remove_dir_all(&cache_root);

    let total_runs = spec.total_runs() as u64 * k as u64;
    let wall: f64 = walls.iter().sum();
    let rate = runs as f64 / wall.max(1e-9);
    let walls_us: Vec<f64> = walls.iter().map(|w| w * 1e6).collect();
    rep.e2e("cpu_us_per_op", cpu_us, "us", Some(runs as usize));
    rep.e2e_p50("latency_p50_us", "us", &walls_us);
    rep.detail("fleet_runs_per_s", rate, "1/s", Some(runs as usize));

    let mut failed = total_runs.saturating_sub(runs);
    if let Some(r) = &report {
        let violations = ordering_violations(r);
        for v in &violations {
            rep.check(false, || format!("fleet_sweep gate: {v}"));
        }
        let bad: u64 = r.cells.iter().map(|c| c.nonfinite + c.missing).sum();
        failed += bad * k as u64;
        let (mut sum, mut n) = (0.0, 0u64);
        for c in r.cells.iter().filter(|c| c.method == "SynPF") {
            sum += c.mean_rmse_cm * c.runs as f64;
            n += c.runs;
        }
        rep.detail(
            "rmse_cm.synpf",
            sum / n.max(1) as f64,
            "cm",
            Some(n as usize),
        );
        for c in &r.cells {
            rep.detail(
                &format!("lat_err_cm.{}.{}.{}", c.grip, c.scenario, c.method),
                c.mean_lat_err_cm,
                "cm",
                Some(c.runs as usize),
            );
        }
    }
    rep.attempted = total_runs;
    rep.failed = failed;

    if args.trace {
        trace_runs(&mut rep, &spec, &mut tr, rate, &cache_root);
        rep.layer("eval.cache.stores", stores as f64, "count", None);
        rep.layer("par.jobs", runs as f64 / k.max(1) as f64, "count", Some(k));
        tr.save(args);
    }
    rep
}

/// The traced pass: every run of the spec through `execute_run`,
/// serially, timed per method; pool efficiency against the untraced
/// fleet rate; and one traced fleet invocation for the overhead.
fn trace_runs(
    rep: &mut Report,
    spec: &FleetSpec,
    tr: &mut Tracer,
    untraced_rate: f64,
    cache_root: &std::path::Path,
) {
    tr.set_on(true);
    let (_, _, ctx) = cold_start(spec);
    // Run times per method, in `EvalMethod::all()` order.
    let methods = EvalMethod::all();
    let mut by_method: [Vec<f64>; 3] = Default::default();
    for desc in spec.runs() {
        let t0 = Instant::now();
        std::hint::black_box(execute_run(spec, desc, &ctx));
        let t1 = Instant::now();
        tr.record("eval.execute_run", NO_SPAN, desc.index as u64, t0, t1);
        let method = spec.methods.get(desc.key.method);
        if let Some(i) = method.and_then(|m| methods.iter().position(|x| x == m)) {
            by_method[i].push((t1 - t0).as_secs_f64() * 1e3);
        }
    }
    let serial_s: f64 = by_method.iter().flatten().sum::<f64>() * 1e-3;
    for (times, label) in by_method.iter().zip(["synpf", "carto", "dr"]) {
        rep.layer_p50(&format!("eval.run_ms_p50.{label}"), "ms", times);
    }
    // Σ serial run time over (wall × width) of the untraced invocations.
    let runs = spec.total_runs() as f64;
    rep.layer(
        "eval.pool_efficiency",
        serial_s * untraced_rate / (runs * WIDTH as f64),
        "ratio",
        None,
    );
    let opts = FleetRunOptions {
        threads: WIDTH,
        cache_dir: Some(cache_root.to_path_buf()),
        ..FleetRunOptions::default()
    };
    let t0 = Instant::now();
    let traced = run_fleet_with(spec, &opts);
    let t1 = Instant::now();
    let _ = std::fs::remove_dir_all(cache_root);
    tr.record("eval.run_fleet_with", NO_SPAN, u64::MAX, t0, t1);
    if traced.is_ok() {
        let traced_rate = runs / (t1 - t0).as_secs_f64();
        rep.trace_overhead(untraced_rate, traced_rate);
    }
}
