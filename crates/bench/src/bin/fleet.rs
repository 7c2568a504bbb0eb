//! **Fleet evaluation** — the paper-style Monte-Carlo robustness tables.
//! `--spec` picks the checked-in spec (`raceloc_bench::fleet`):
//!
//! - `robustness` (default, EXPERIMENTS.md A6): {SynPF, Cartographer,
//!   DeadReckoning} × {HQ, LQ grip} × {nominal, odometry slip, pose
//!   kidnap} × 2 tracks × 20 seed replicates → `BENCH_fleet.json`;
//! - `faults` (EXPERIMENTS.md A5): the ten-scenario fault catalog on the
//!   test track at HQ grip, 3 localizers × 20 replicates of 24 s →
//!   `BENCH_faults.json`;
//! - `deadline` (EXPERIMENTS.md A8): SynPF on the test track at HQ grip
//!   under four compute budgets (uncapped + three caps) × {nominal,
//!   budget halving, compute cliff} × 20 replicates of 16 s →
//!   `BENCH_deadline.json`, whose capped cells carry deadline-ladder
//!   statistics.
//!
//! Each cell aggregates into success rates (Wilson 95% intervals),
//! mean/p95 RMSE and lateral error, recovery-latency distributions, and —
//! for capped SynPF cells — ladder occupancy, misses and final rungs.
//! The report is byte-identical for every `--threads` value, every
//! `--cache-dir` state, and every interrupt/resume split (DESIGN.md §15).
//!
//! Run with `cargo run -p raceloc-bench --release --bin fleet --
//! [--spec robustness|faults|deadline] [--quick] [--threads N] [--out FILE]
//! [--cache-dir DIR] [--stats-out FILE] [--stop-after-cells K]`.
//! Without `--out` the report goes to the git-ignored
//! `<experiment>-fresh.json` (`fleet-`, `faults-`, `deadline-fresh.json`);
//! regenerating a checked-in baseline takes an explicit
//! `--out BENCH_….json`.
//!
//! The engine simulates each (map, grip, scenario, replicate) trajectory
//! once and steps every budget × method of it in lockstep (DESIGN.md
//! §15), so the report is identical to running each cell alone.
//!
//! An interrupted run (`--stop-after-cells`, or a killed process) resumes
//! by running again with the same `--cache-dir`: every cell already
//! stored there is a cache hit, and only the rest execute.
//!
//! Runs never gate. The gates are their own subcommands, both exiting 0
//! when clean, 1 on a violation and 2 on a usage or parse error:
//!
//! - `fleet check REPORT...` judges each written report against its own
//!   embedded spec: the paper's qualitative localizer ordering and
//!   per-cell sanity (`raceloc_eval::ordering_violations`), SynPF's
//!   recovery budgets over every replicate and finite poses everywhere
//!   (`raceloc_eval::recovery_violations`), and the deadline ladder's
//!   contract on capped cells (`raceloc_eval::ladder_violations`);
//! - `fleet diff BASELINE FRESH [--out FILE]` is the cross-PR accuracy
//!   gate: it exits 1 on an ordering flip or a disjoint-Wilson-interval
//!   success regression (see `raceloc_eval::diff_reports`).

use raceloc_bench::env_threads;
use raceloc_bench::fleet::{deadline_spec, fault_spec, fleet_spec};
use raceloc_eval::{
    diff_reports, ladder_violations, ordering_violations, recovery_violations, run_fleet_with,
    CellSummary, FleetReport, FleetRunOptions, FleetSpec,
};
use raceloc_obs::Json;

/// The checked-in specs `--spec` chooses between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpecChoice {
    Robustness,
    Faults,
    Deadline,
}

impl SpecChoice {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "robustness" => Some(Self::Robustness),
            "faults" => Some(Self::Faults),
            "deadline" => Some(Self::Deadline),
            _ => None,
        }
    }

    fn build(self, quick: bool) -> FleetSpec {
        match self {
            Self::Robustness => fleet_spec(quick),
            Self::Faults => fault_spec(quick),
            Self::Deadline => deadline_spec(quick),
        }
    }

    /// The report's `experiment` label.
    fn experiment(self) -> &'static str {
        match self {
            Self::Robustness => "fleet",
            Self::Faults => "faults",
            Self::Deadline => "deadline",
        }
    }

    /// The default `--out` path, `<experiment>-fresh.json`: git-ignored,
    /// so a bare run never overwrites a checked-in `BENCH_*.json`
    /// baseline (regenerating one takes an explicit `--out`).
    fn default_out(self) -> String {
        format!("{}-fresh.json", self.experiment())
    }
}

struct Args {
    spec: SpecChoice,
    quick: bool,
    threads: usize,
    out: Option<String>,
    cache_dir: Option<String>,
    stats_out: Option<String>,
    stop_after_cells: Option<usize>,
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        spec: SpecChoice::Robustness,
        quick: false,
        threads: env_threads(),
        out: None,
        cache_dir: None,
        stats_out: None,
        stop_after_cells: None,
    };
    let mut it = argv.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<'_, String>| -> String {
        it.next().cloned().unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            std::process::exit(2);
        })
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spec" => {
                args.spec = SpecChoice::parse(&value("--spec", &mut it)).unwrap_or_else(|| {
                    eprintln!("--spec needs robustness, faults or deadline");
                    std::process::exit(2);
                });
            }
            "--quick" => args.quick = true,
            "--threads" => {
                args.threads = value("--threads", &mut it)
                    .trim()
                    .parse::<usize>()
                    .ok()
                    .filter(|&t| t >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--threads needs a positive integer");
                        std::process::exit(2);
                    });
            }
            "--out" => args.out = Some(value("--out", &mut it)),
            "--cache-dir" => args.cache_dir = Some(value("--cache-dir", &mut it)),
            "--stats-out" => args.stats_out = Some(value("--stats-out", &mut it)),
            "--stop-after-cells" => {
                args.stop_after_cells = Some(
                    value("--stop-after-cells", &mut it)
                        .trim()
                        .parse::<usize>()
                        .unwrap_or_else(|_| {
                            eprintln!("--stop-after-cells needs a non-negative integer");
                            std::process::exit(2);
                        }),
                );
            }
            other => {
                eprintln!(
                    "unknown argument {other:?} (known: --spec --quick --threads --out \
                     --cache-dir --stats-out --stop-after-cells; subcommands: check, diff)"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

/// Rejects flag combinations that parse but cannot do what they ask.
fn check_args(args: &Args) -> Result<(), String> {
    if args.stop_after_cells.is_some() && args.cache_dir.is_none() {
        return Err(
            "--stop-after-cells needs --cache-dir: without the cell cache the \
                    finished cells are lost and the run cannot resume"
                .to_string(),
        );
    }
    Ok(())
}

fn format_cell(c: &CellSummary) -> String {
    format!(
        "{:<11} {:<3} {:<14} {:>7} {:<13} {:>5} {:>5.2} [{:.2},{:.2}] {:>9.1} {:>9.1} {:>8.1} {:>7}",
        c.map,
        c.grip,
        c.scenario,
        c.budget,
        c.method,
        c.runs,
        c.success_rate,
        c.success_lo,
        c.success_hi,
        c.mean_rmse_cm,
        c.p95_rmse_cm,
        c.mean_lat_err_cm,
        if c.unrecovered > 0 {
            format!("{}!", c.unrecovered)
        } else {
            format!("{:.0}", c.mean_recovery_steps)
        },
    )
}

fn load_report(path: &str) -> FleetReport {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("failed to read {path}: {e}");
        std::process::exit(2);
    });
    FleetReport::from_json_str(&text).unwrap_or_else(|e| {
        eprintln!("failed to parse {path}: {e}");
        std::process::exit(2);
    })
}

/// `fleet diff BASELINE FRESH [--out FILE]` — exit 0 clean, 1 regressed,
/// 2 usage/parse failure.
fn diff_main(argv: &[String]) -> ! {
    let mut paths: Vec<&String> = Vec::new();
    let mut out: Option<String> = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                out = Some(it.next().cloned().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                }));
            }
            _ => paths.push(arg),
        }
    }
    let [baseline_path, fresh_path] = paths[..] else {
        eprintln!("usage: fleet diff BASELINE FRESH [--out FILE]");
        std::process::exit(2);
    };
    let baseline = load_report(baseline_path);
    let fresh = load_report(fresh_path);
    let diff = diff_reports(&baseline, &fresh);
    let rendered = diff.render();
    print!("{rendered}");
    if let Some(out) = out {
        if let Err(e) = std::fs::write(&out, &rendered) {
            eprintln!("failed to write {out}: {e}");
            std::process::exit(2);
        }
    }
    std::process::exit(if diff.is_regression() { 1 } else { 0 });
}

/// Judges one written report against the spec embedded next to it.
fn check_file(path: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("failed to read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("failed to parse {path}: {e}"))?;
    let spec = doc
        .get("spec")
        .ok_or_else(|| format!("{path}: no \"spec\" to judge the report against"))?;
    let spec = FleetSpec::from_json(spec).map_err(|e| format!("{path}: {e}"))?;
    let report = FleetReport::from_json(&doc).map_err(|e| format!("{path}: {e}"))?;
    let mut violations = ordering_violations(&report);
    violations.extend(recovery_violations(&spec, &report));
    violations.extend(ladder_violations(&spec, &report));
    Ok(violations)
}

/// `fleet check REPORT...` — exit 0 clean, 1 violated, 2 usage/parse
/// failure (no report is judged unless every one parses).
fn check_main(paths: &[String]) -> i32 {
    if paths.is_empty() || paths.iter().any(|p| p.starts_with("--")) {
        eprintln!("usage: fleet check REPORT...");
        return 2;
    }
    let mut checked = Vec::new();
    for path in paths {
        match check_file(path) {
            Ok(violations) => checked.push((path, violations)),
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        }
    }
    let mut failed = false;
    for (path, violations) in checked {
        if violations.is_empty() {
            println!("{path}: all gates passed");
        }
        for v in &violations {
            println!("{path}: {v}");
        }
        failed |= !violations.is_empty();
    }
    i32::from(failed)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("diff") => diff_main(&argv[1..]),
        Some("check") => std::process::exit(check_main(&argv[1..])),
        _ => {}
    }
    let args = parse_args(&argv);
    if let Err(e) = check_args(&args) {
        eprintln!("{e}");
        std::process::exit(2);
    }
    let spec = args.spec.build(args.quick);
    let experiment = args.spec.experiment();
    let out = args.out.clone().unwrap_or_else(|| args.spec.default_out());
    println!(
        "{} — {} cells × {} replicates = {} closed-loop runs ({} threads)",
        spec.name,
        spec.cells().len(),
        spec.replicates,
        spec.total_runs(),
        args.threads.max(1)
    );
    let mut opts = FleetRunOptions::new(args.threads);
    opts.cache_dir = args.cache_dir.map(Into::into);
    opts.stop_after_cells = args.stop_after_cells;
    let (report, stats) = match run_fleet_with(&spec, &opts) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    println!(
        "cells: {} total — {} from cache, {} executed ({} runs){}",
        stats.cells_total,
        stats.cache_hits,
        stats.executed_cells,
        stats.executed_runs,
        if stats.stopped_early {
            " — STOPPED EARLY (rerun with the same --cache-dir to resume)"
        } else {
            ""
        }
    );

    println!(
        "{:<11} {:<3} {:<14} {:>7} {:<13} {:>5} {:>17} {:>9} {:>9} {:>8} {:>7}",
        "Map",
        "Odo",
        "Scenario",
        "Budget",
        "Method",
        "Runs",
        "Success [95% CI]",
        "RMSE[cm]",
        "p95[cm]",
        "Lat[cm]",
        "Recov"
    );
    for cell in &report.cells {
        println!("{}", format_cell(cell));
    }

    let json = Json::Obj(vec![
        ("experiment".into(), Json::Str(experiment.into())),
        ("quick".into(), Json::Bool(args.quick)),
        ("spec".into(), spec.to_json()),
        ("report".into(), report.to_json()),
    ]);
    if let Err(e) = std::fs::write(&out, format!("{json}\n")) {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");
    if let Some(stats_out) = &args.stats_out {
        if let Err(e) = std::fs::write(stats_out, format!("{}\n", stats.to_json())) {
            eprintln!("failed to write {stats_out}: {e}");
            std::process::exit(1);
        }
        println!("wrote {stats_out}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Args {
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        parse_args(&argv)
    }

    #[test]
    fn stop_after_cells_requires_a_cache_dir() {
        let err = check_args(&parse(&["--quick", "--stop-after-cells", "18"]))
            .expect_err("nothing would keep the finished cells");
        assert!(err.contains("--cache-dir"), "{err}");
        let resumable = parse(&["--stop-after-cells", "18", "--cache-dir", "d"]);
        assert!(check_args(&resumable).is_ok());
        assert!(check_args(&parse(&["--quick", "--cache-dir", "d"])).is_ok());
        assert!(check_args(&parse(&["--quick"])).is_ok());
    }

    #[test]
    fn spec_flag_picks_the_spec_and_its_default_out() {
        assert_eq!(parse(&[]).spec, SpecChoice::Robustness);
        assert_eq!(parse(&[]).spec.default_out(), "fleet-fresh.json");
        let faults = parse(&["--spec", "faults", "--quick"]);
        assert_eq!(faults.spec, SpecChoice::Faults);
        assert_eq!(faults.spec.experiment(), "faults");
        assert_eq!(faults.spec.default_out(), "faults-fresh.json");
        assert_eq!(faults.spec.build(faults.quick), fault_spec(true));
        let deadline = parse(&["--spec", "deadline"]);
        assert_eq!(deadline.spec, SpecChoice::Deadline);
        assert_eq!(deadline.spec.default_out(), "deadline-fresh.json");
        assert_eq!(deadline.spec.build(deadline.quick), deadline_spec(false));
        assert_eq!(SpecChoice::parse("ladder"), None);
    }
}
