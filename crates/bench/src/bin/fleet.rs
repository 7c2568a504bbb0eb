//! **Fleet evaluation** — the paper-style Monte-Carlo robustness tables
//! (EXPERIMENTS.md A6): {SynPF, Cartographer, DeadReckoning} × {HQ, LQ
//! grip} × {nominal, odometry slip, pose kidnap} × 2 tracks × 20 seed
//! replicates, aggregated into per-cell success rates (Wilson 95%
//! intervals), mean/p95 RMSE and lateral error, and recovery-latency
//! distributions. `BENCH_fleet.json` is the checked-in artifact; it is
//! byte-identical for every `--threads` value, every `--cache-dir`
//! state, and every interrupt/resume split (DESIGN.md §15).
//!
//! Hard gates (exit code 1, the CI `fleet-smoke` job): the paper's
//! qualitative localizer ordering — SynPF must beat Cartographer under
//! odometry slip, and dead reckoning must be the nominal-scenario worst
//! case — plus per-cell sanity (see `raceloc_eval::ordering_violations`).
//!
//! Run with `cargo run -p raceloc-bench --release --bin fleet --
//! [--quick] [--threads N] [--out BENCH_fleet.json] [--cache-dir DIR]
//! [--stats-out FILE] [--stop-after-cells K]`.
//!
//! An interrupted run (`--stop-after-cells`, or a killed process) resumes
//! by running again with the same `--cache-dir`: every cell already
//! stored there is a cache hit, and only the rest execute.
//!
//! The `diff` subcommand is the cross-PR accuracy gate (the CI
//! `fleet-cache-smoke` job): `fleet diff BASELINE FRESH [--out FILE]`
//! compares two report artifacts and exits 1 on an ordering flip or a
//! disjoint-Wilson-interval success regression (see
//! `raceloc_eval::diff_reports`).

use raceloc_bench::env_threads;
use raceloc_bench::fleet::fleet_spec;
use raceloc_eval::{
    diff_reports, ordering_violations, run_fleet_with, CellSummary, FleetReport, FleetRunOptions,
};
use raceloc_obs::Json;

struct Args {
    quick: bool,
    threads: usize,
    out: String,
    cache_dir: Option<String>,
    stats_out: Option<String>,
    stop_after_cells: Option<usize>,
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        quick: false,
        threads: env_threads(),
        out: "BENCH_fleet.json".to_string(),
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
            "--out" => args.out = value("--out", &mut it),
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
                    "unknown argument {other:?} (known: --quick --threads --out --cache-dir \
                     --stats-out --stop-after-cells; subcommand: diff)"
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
        "{:<11} {:<3} {:<12} {:<13} {:>5} {:>5.2} [{:.2},{:.2}] {:>9.1} {:>9.1} {:>8.1} {:>7}",
        c.map,
        c.grip,
        c.scenario,
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

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("diff") {
        diff_main(&argv[1..]);
    }
    let args = parse_args(&argv);
    if let Err(e) = check_args(&args) {
        eprintln!("{e}");
        std::process::exit(2);
    }
    let spec = fleet_spec(args.quick);
    println!(
        "Fleet evaluation — {} cells × {} replicates = {} closed-loop runs ({} threads)",
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
            " — STOPPED EARLY"
        } else {
            ""
        }
    );

    println!(
        "{:<11} {:<3} {:<12} {:<13} {:>5} {:>17} {:>9} {:>9} {:>8} {:>7}",
        "Map",
        "Odo",
        "Scenario",
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
        ("experiment".into(), Json::Str("fleet".into())),
        ("quick".into(), Json::Bool(args.quick)),
        ("spec".into(), spec.to_json()),
        ("report".into(), report.to_json()),
    ]);
    if let Err(e) = std::fs::write(&args.out, format!("{json}\n")) {
        eprintln!("failed to write {}: {e}", args.out);
        std::process::exit(1);
    }
    println!("wrote {}", args.out);
    if let Some(stats_out) = &args.stats_out {
        if let Err(e) = std::fs::write(stats_out, format!("{}\n", stats.to_json())) {
            eprintln!("failed to write {stats_out}: {e}");
            std::process::exit(1);
        }
        println!("wrote {stats_out}");
    }

    // An interrupted invocation deliberately leaves missing rows; the
    // ordering gates only judge complete reports (the resumed run gates).
    if stats.stopped_early {
        println!("stopped after {} cells — gates skipped until resume", {
            stats.cache_hits + stats.executed_cells
        });
        return;
    }
    let violations = ordering_violations(&report);
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("GATE FAILURE: {v}");
        }
        std::process::exit(1);
    }
    println!("all gates passed");
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
}
