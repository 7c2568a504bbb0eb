//! **Experiment E1 — Table I** of the paper: lap time, lateral error, scan
//! alignment, and CPU load for {Cartographer, SynPF} × {high-quality,
//! low-quality} wheel odometry, 10 flying laps per cell.
//!
//! Run with `cargo run -p raceloc-bench --release --bin table1`.
//! Pass a lap count as the first argument to shorten the experiment
//! (`0` is a fast smoke run: warm-up laps only).
//!
//! Each localizer's construction (map artifacts, and for SynPF the range
//! LUT) is timed and printed apart as its cold start, so the load column
//! is steady state. Exits 1 when SynPF's load is not below Cartographer's
//! on either odometry quality, the paper's qualitative ordering.

use raceloc_bench::{
    build_cartographer, build_synpf, format_row, run_cell_instrumented, table_header, test_track,
    CellResult, OdomSource, MU_HIGH_QUALITY, MU_LOW_QUALITY,
};
use raceloc_obs::{Stopwatch, Telemetry};

fn main() {
    let laps: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(10);
    println!("Table I reproduction — {laps} flying laps per cell");
    println!("(paper: Cartographer HQ 9.167s/6.86cm, LQ 9.428s/11.43cm;");
    println!("        SynPF        HQ 9.184s/8.22cm, LQ 9.280s/7.69cm)");
    println!();
    println!("{}", table_header());

    let track = test_track();
    let mut results = Vec::new();
    let mut cold_starts = Vec::new();
    // One telemetry handle shared by the world and both localizers: the
    // per-stage latency report below (Table III) is regenerated from the
    // spans recorded here, not from ad-hoc timers.
    let tel = Telemetry::enabled();
    // Cartographer consumes the stock VESC (Ackermann) odometry, SynPF the
    // IMU-fused odometry, matching the respective F1TENTH configurations
    // (DESIGN.md §5).
    for (odom, mu) in [("HQ", MU_HIGH_QUALITY), ("LQ", MU_LOW_QUALITY)] {
        let started = Stopwatch::start();
        let mut carto = build_cartographer(&track);
        cold_starts.push(("Cartographer", odom, started.elapsed_seconds()));
        carto.set_telemetry(tel.clone());
        let r = run_cell_instrumented(
            &mut carto,
            "Cartographer",
            odom,
            mu,
            laps,
            42,
            OdomSource::Ackermann,
            tel.clone(),
        );
        println!("{}", format_row(&r));
        results.push(r);
    }
    for (odom, mu) in [("HQ", MU_HIGH_QUALITY), ("LQ", MU_LOW_QUALITY)] {
        let started = Stopwatch::start();
        let mut pf = build_synpf(&track, 7);
        cold_starts.push(("SynPF", odom, started.elapsed_seconds()));
        pf.set_telemetry(tel.clone());
        let r = run_cell_instrumented(
            &mut pf,
            "SynPF",
            odom,
            mu,
            laps,
            42,
            OdomSource::ImuFused,
            tel.clone(),
        );
        println!("{}", format_row(&r));
        results.push(r);
    }

    println!();
    for (method, odom, seconds) in &cold_starts {
        println!(
            "Cold start {method} {odom}: {:.1} ms (construction, kept out of the load column)",
            seconds * 1e3
        );
    }

    // The paper's headline deltas.
    let cell = |m: &str, o: &str, f: fn(&CellResult) -> f64| {
        results
            .iter()
            .find(|r| r.method == m && r.odom == o)
            .map_or(f64::NAN, f)
    };
    let err = |m: &str, o: &str| cell(m, o, |r| r.lateral_error_cm.mean);
    let est = |m: &str, o: &str| cell(m, o, |r| r.est_error_cm.mean);
    let align = |m: &str, o: &str| cell(m, o, |r| r.scan_align_pct);
    println!();
    println!(
        "Cartographer HQ→LQ: lateral error {:+.1}% (paper +66.6%), alignment {:+.1}% (paper -11.0%)",
        100.0 * (err("Cartographer", "LQ") / err("Cartographer", "HQ") - 1.0),
        100.0 * (align("Cartographer", "LQ") / align("Cartographer", "HQ") - 1.0),
    );
    println!(
        "SynPF        HQ→LQ: lateral error {:+.1}% (paper -6.9%),  alignment {:+.1}% (paper -0.8%)",
        100.0 * (err("SynPF", "LQ") / err("SynPF", "HQ") - 1.0),
        100.0 * (align("SynPF", "LQ") / align("SynPF", "HQ") - 1.0),
    );
    println!(
        "Estimation error HQ→LQ: Cartographer {:+.1}%, SynPF {:+.1}%",
        100.0 * (est("Cartographer", "LQ") / est("Cartographer", "HQ") - 1.0),
        100.0 * (est("SynPF", "LQ") / est("SynPF", "HQ") - 1.0),
    );

    println!();
    println!("Per-stage latency over all four cells (recorded telemetry spans):");
    let snap = tel.snapshot();
    println!(
        "{:<18} {:>10} {:>11} {:>11}",
        "span", "calls", "mean [ms]", "max [ms]"
    );
    for (name, s) in snap.spans() {
        println!(
            "{:<18} {:>10} {:>11.4} {:>11.4}",
            name,
            s.count,
            s.mean_seconds() * 1e3,
            s.max_seconds * 1e3
        );
    }
    if let Some(load) = raceloc_metrics::latency::snapshot_load_percent(&snap, 40.0, 50.0) {
        println!("Span-derived closed-loop load (sim.correct@40Hz + sim.predict@50Hz): {load:.2}% of one core");
    }

    // The paper's qualitative load ordering: SynPF runs lighter than
    // Cartographer on both odometry qualities.
    let load = |m: &str, o: &str| cell(m, o, |r| r.load_pct);
    println!();
    let mut ordered = true;
    for odom in ["HQ", "LQ"] {
        let (synpf, carto) = (load("SynPF", odom), load("Cartographer", odom));
        let holds = synpf < carto;
        ordered &= holds;
        println!(
            "Load ordering {odom}: SynPF {synpf:.2}% vs Cartographer {carto:.2}% — {}",
            if holds {
                "ok (SynPF lighter)"
            } else {
                "VIOLATED"
            }
        );
    }
    if !ordered {
        eprintln!("table1: steady-state SynPF load is not below Cartographer's");
        std::process::exit(1);
    }
}
