//! **Ablation A3 — motion model inside the full filter** (paper §II).
//!
//! Runs the complete closed-loop Table I cell for SynPF with the TUM motion
//! model swapped for the textbook diff-drive model, on both grip levels —
//! quantifying how much of SynPF's robustness comes from the motion model.
//!
//! Run with `cargo run -p raceloc-bench --release --bin ablation_motion`.

use raceloc_bench::{
    format_row, run_cell, table_header, test_track, track_artifacts, OdomSource, MU_HIGH_QUALITY,
    MU_LOW_QUALITY,
};
use raceloc_obs::Telemetry;
use raceloc_pf::{DiffDriveModel, MotionConfig, SynPf, SynPfConfig, TumMotionModel};
use std::sync::Arc;

fn main() {
    let laps: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(5);
    println!("Motion-model ablation — SynPF with TUM vs diff-drive motion model,");
    println!("{laps} flying laps per cell.");
    println!();
    println!("{}", table_header());
    let track = test_track();
    // One shared artifact bundle: every filter instance reuses the same
    // EDT and range LUT instead of cloning a dense table. The table is
    // filled before the first cell so that no row's correction times
    // include LUT fills.
    let artifacts = track_artifacts(&track);
    artifacts.lut().fill_all();
    for (name, motion) in [
        ("SynPF-tum", MotionConfig::Tum(TumMotionModel::default())),
        (
            "SynPF-diffdrv",
            MotionConfig::DiffDrive(DiffDriveModel::default()),
        ),
    ] {
        for (odom, mu) in [("HQ", MU_HIGH_QUALITY), ("LQ", MU_LOW_QUALITY)] {
            let config = SynPfConfig::builder()
                .motion(motion)
                .seed(7)
                .build()
                .expect("ablation config is valid");
            let mut pf = SynPf::from_artifacts(Arc::clone(&artifacts), config);
            let r = run_cell(
                &mut pf,
                name,
                odom,
                mu,
                laps,
                42,
                OdomSource::ImuFused,
                Telemetry::disabled(),
            );
            println!("{}", format_row(&r));
        }
    }
    println!();
    println!("(the diff-drive variant should lose accuracy at speed, most visibly");
    println!(" in the estimation error and scan alignment)");
}
