//! The raceloc localization benchmark: end-to-end metrics from untraced
//! runs, per-layer metrics from a traced run (see `README.md`).
//!
//! ```text
//! raceloc-perfbench --workload <race_hq|race_faults|serve_mixed|fleet_sweep>
//!     --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! Prints every metric by name with its unit and sample count, then one
//! JSON result line. Exits 1 when a correctness check fails.

mod fleet;
mod race;
mod report;
mod serve;
mod stats;
mod trace;
mod wrap;

use report::Report;
use std::path::PathBuf;
use std::time::Duration;

/// The tracked end-to-end metrics: every untraced run reports each one.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("cpu_us_per_op", "us"),
    ("latency_p50_us", "us"),
];

/// The tracked per-layer metrics: every traced run reports each one, as 0
/// where its layer is not exercised by the workload.
const PER_LAYER: [(&str, &str); 42] = [
    ("map.trackgen_ms", "ms"),
    ("range.edt_build_ms", "ms"),
    ("range.lut_build_ms", "ms"),
    ("range.lut_bytes", "bytes"),
    ("range.store_hit_ratio", "ratio"),
    ("sim.self_us_p50", "us"),
    ("sim.self_us_p99", "us"),
    ("sim.share", "ratio"),
    ("pf.predict_us_p50", "us"),
    ("pf.correct_us_p50", "us"),
    ("pf.correct_us_p99", "us"),
    ("pf.first_correct_ms", "ms"),
    ("pf.particles_mean", "count"),
    ("pf.ess_frac_mean", "ratio"),
    ("pf.reinit", "1/episode"),
    ("pf.lost_frac", "ratio"),
    ("pf.recovering_frac", "ratio"),
    ("core.deadline.rung_changes", "1/episode"),
    ("slam.predict_us_p50", "us"),
    ("slam.correct_us_p50", "us"),
    ("slam.correct_us_p99", "us"),
    ("slam.first_correct_ms", "ms"),
    ("slam.match_score_mean", "score"),
    ("faults.active_scans", "1/episode"),
    ("serve.open_ms", "ms"),
    ("serve.submit_us_p50", "us"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.queue_wait_us_p99", "us"),
    ("serve.drain_ms_p50", "ms"),
    ("serve.drain_ms_p99", "ms"),
    ("serve.batch_mean", "count"),
    ("serve.shed", "count"),
    ("serve.gen_late_us_p99", "us"),
    ("par.jobs", "count"),
    ("par.busy_frac", "ratio"),
    ("eval.ctx_build_ms", "ms"),
    ("eval.run_ms_p50.synpf", "ms"),
    ("eval.run_ms_p50.carto", "ms"),
    ("eval.run_ms_p50.dr", "ms"),
    ("eval.pool_efficiency", "ratio"),
    ("eval.cache.stores", "count"),
    ("obs.trace_overhead_frac", "ratio"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Where traces and the fleet cache go.
    pub out_dir: PathBuf,
}

impl Args {
    /// The measured duration.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from(".bench_build/perfbench"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be within (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// A seed derived from the run seed and a purpose tag (SplitMix64), so
/// every input stream of a workload is a pure function of `--seed`.
pub fn mix_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(tag.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// CPU time \[s\] this process (every thread, live or exited) has run
/// so far, from `/proc/self/stat` (`utime + stime`, in 1/100 s ticks).
/// Unlike wall time it excludes time the host's hypervisor stole from
/// the guest, which makes it the steady measure of work on a shared host.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rfind(')').map_or("", |i| &stat[i + 1..]);
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

/// Fills the tracked metric list of the run's mode from the table:
/// per-layer metrics a workload does not exercise read 0; a missing or
/// non-positive end-to-end metric fails the run.
fn complete(rep: &mut Report, trace: bool) {
    let (table, list): (&[(&str, &str)], _) = if trace {
        (&PER_LAYER, &mut rep.layer)
    } else {
        (&END_TO_END, &mut rep.e2e)
    };
    let mut missing = Vec::new();
    let mut ordered = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        match list.iter().find(|m| m.name == name) {
            Some(m) if m.unit == unit && m.value.is_finite() && (trace || m.value > 0.0) => {
                ordered.push(m.clone())
            }
            Some(m) => missing.push(format!("{name}: bad value {} {}", m.value, m.unit)),
            None if trace => ordered.push(report::Metric {
                name: name.to_string(),
                value: 0.0,
                unit,
                n: None,
            }),
            None => missing.push(format!("{name}: not measured")),
        }
    }
    for m in list.iter() {
        if !table.iter().any(|&(name, _)| name == m.name) {
            missing.push(format!("{}: not a tracked metric", m.name));
        }
    }
    *list = ordered;
    rep.violations.extend(missing);
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("raceloc-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut rep = match args.workload.as_str() {
        "race_hq" => race::race_hq(&args),
        "race_faults" => race::race_faults(&args),
        "serve_mixed" => serve::serve_mixed(&args),
        "fleet_sweep" => fleet::fleet_sweep(&args),
        other => {
            eprintln!("raceloc-perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    complete(&mut rep, args.trace);
    rep.print_listing(&args.workload, args.trace);
    println!("{}", rep.result_json(args.trace));
    if !rep.violations.is_empty() {
        std::process::exit(1);
    }
}
