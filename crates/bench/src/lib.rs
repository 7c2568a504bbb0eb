#![deny(missing_docs)]

//! Shared experiment infrastructure for the paper-reproduction harness.
//!
//! Every binary in this crate regenerates one table or figure of
//! *"Robustness Evaluation of Localization Techniques for Autonomous
//! Racing"* (DATE 2024); see `DESIGN.md` §4 for the experiment index and
//! `EXPERIMENTS.md` for recorded results.

pub mod faults;
pub mod fleet;

use raceloc_core::localizer::Localizer;
use raceloc_core::{Pose2, RunningStats, Summary};
use raceloc_map::{Track, TrackShape, TrackSpec};
use raceloc_metrics::alignment::ScanAlignmentScorer;
use raceloc_metrics::error::lateral_deviations;
use raceloc_metrics::lap::lap_times;
use raceloc_metrics::latency;
use raceloc_obs::Telemetry;
use raceloc_pf::{SynPf, SynPfConfig};
use raceloc_range::{ArtifactParams, MapArtifacts};
use raceloc_sim::{World, WorldConfig};
use raceloc_slam::{CartoLocalizer, CartoLocalizerConfig};
use std::sync::Arc;

/// The paper-scale test track used by all closed-loop experiments: a
/// rounded-rectangle corridor circuit comparable to the paper's tennis-hall
/// track (raceline ≈ 35 m, lap times in the 9–11 s range at the default
/// speed scaling).
pub fn test_track() -> Track {
    TrackSpec::new(TrackShape::RandomFourier {
        seed: 33,
        mean_radius: 6.0,
        amplitude: 0.26,
        harmonics: 4,
    })
    .half_width(1.25)
    .resolution(0.05)
    .build()
}

/// Friction coefficient of the nominal, grippy surface (26 N lateral pull
/// in the paper's measurement).
pub const MU_HIGH_QUALITY: f64 = 1.0;
/// Friction with taped tires: scaled by the paper's 19 N / 26 N pull ratio.
pub const MU_LOW_QUALITY: f64 = 19.0 / 26.0;

/// Builds the closed-loop world configuration for a grip level.
///
/// The simulator's own ray casting honors [`env_threads`], which cannot
/// change any result (scans are bit-identical for every thread count,
/// rule R3) — only the wall-clock time of regenerating a table.
pub fn world_config(mu: f64, seed: u64) -> WorldConfig {
    let mut cfg = WorldConfig::default();
    cfg.vehicle.mu = mu;
    cfg.seed = seed;
    cfg.threads = env_threads();
    cfg
}

/// Worker-thread count for the experiment harnesses, taken from the
/// `RACELOC_THREADS` environment variable (default 1).
///
/// Every parallel path in the workspace is bit-identical across thread
/// counts (DESIGN.md §11), so this knob only trades wall-clock time; the
/// regenerated tables never change.
pub fn env_threads() -> usize {
    parse_threads(std::env::var("RACELOC_THREADS").ok().as_deref())
}

/// Parses a thread-count override; `None`, empty, zero, or garbage → 1.
fn parse_threads(var: Option<&str>) -> usize {
    var.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(1)
}

/// Odometry source for an algorithm's run (DESIGN.md §5): the F1TENTH
/// Cartographer configuration consumes the VESC's Ackermann odometry
/// (`ω = v·tanδ/L`, blind to slip angles), while the TUM particle filter
/// fuses the IMU gyro.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OdomSource {
    /// Wheel speed + IMU gyro yaw (SynPF / TUM PF input).
    ImuFused,
    /// Wheel speed + Ackermann steering yaw (stock VESC odometry).
    Ackermann,
}

/// Builds the shared artifact bundle (grid + EDT + lazy LUT) for a track
/// at the paper's range parameters (10 m, 72 θ-bins). Clone the `Arc` to
/// share one build between several localizer instances. The LUT fills a
/// cell on first touch; call `lut().fill_all()` where queries are timed.
pub fn track_artifacts(track: &Track) -> Arc<MapArtifacts> {
    Arc::new(MapArtifacts::build(&track.grid, ArtifactParams::default()))
}

/// Builds the paper-configuration SynPF (LUT range queries, boxed layout,
/// TUM motion model) for a track, on [`env_threads`] worker threads.
pub fn build_synpf(track: &Track, seed: u64) -> SynPf<Arc<MapArtifacts>> {
    build_synpf_threaded(track, seed, env_threads())
}

/// [`build_synpf`] with an explicit worker-thread count for the fused
/// particle pipeline (results are identical for every value).
///
/// The whole range LUT is filled here, up front, so the cold start is paid
/// by the constructor and not by the corrections that would otherwise fill
/// it cell by cell: per-correction latency and load figures (Table I's
/// load gate) then describe the steady state only.
pub fn build_synpf_threaded(track: &Track, seed: u64, threads: usize) -> SynPf<Arc<MapArtifacts>> {
    let config = SynPfConfig::builder()
        .seed(seed)
        .threads(threads.max(1))
        .build()
        .expect("paper configuration is valid");
    let artifacts = track_artifacts(track);
    artifacts.lut().fill_all();
    SynPf::from_artifacts(artifacts, config)
}

/// Builds the Cartographer pure-localization baseline for a track.
pub fn build_cartographer(track: &Track) -> CartoLocalizer {
    CartoLocalizer::from_artifacts(&track_artifacts(track), CartoLocalizerConfig::default())
}

/// The Table I measurements of one (algorithm × odometry-quality) cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Algorithm name.
    pub method: String,
    /// `"HQ"` or `"LQ"`.
    pub odom: String,
    /// Lap-time summary over the completed laps \[s\].
    pub lap_time: Summary,
    /// Lateral deviation of the driven trajectory from the raceline \[cm\].
    pub lateral_error_cm: Summary,
    /// Scan-alignment percentage (0–100).
    pub scan_align_pct: f64,
    /// CPU-load proxy: percent of one core (correction + prediction).
    pub load_pct: f64,
    /// Mean scan-correction latency \[ms\].
    pub correct_ms: f64,
    /// Number of completed laps measured.
    pub laps: usize,
    /// Whether the run ended in a crash.
    pub crashed: bool,
    /// Mean translation error of the pose estimate vs ground truth \[cm\].
    pub est_error_cm: Summary,
}

/// Runs one closed-loop cell: `laps` timed laps (plus a warm-up lap that is
/// discarded) with the given localizer on the given grip level, fed by
/// `odom_source`. `tel` is installed into the world, so the loop's
/// `sim.predict` / `sim.correct` spans land next to whatever the localizer
/// records into the same handle (install it there too via the concrete
/// type's `set_telemetry`); this is how the Table III latency numbers are
/// regenerated from recorded spans. Pass [`Telemetry::disabled`] to record
/// nothing.
#[allow(clippy::too_many_arguments)]
pub fn run_cell<L: Localizer + ?Sized>(
    localizer: &mut L,
    method: &str,
    odom_label: &str,
    mu: f64,
    laps: usize,
    seed: u64,
    odom_source: OdomSource,
    tel: Telemetry,
) -> CellResult {
    let track = test_track();
    let mut cfg = world_config(mu, seed);
    cfg.odom.use_imu_yaw = odom_source == OdomSource::ImuFused;
    let mut world = World::new(track, cfg);
    world.set_telemetry(tel);
    // Generous wall-clock budget: warm-up + laps at ≈8–12 s per lap.
    let duration = 14.0 * (laps + 2) as f64;
    let log = world.run(localizer, duration);

    let trace: Vec<(f64, Pose2)> = log.samples.iter().map(|s| (s.stamp, s.true_pose)).collect();
    let raceline = &world.track().raceline;
    let all_laps = lap_times(&trace, raceline);
    // Discard the standing-start lap; keep up to `laps` flying laps.
    let timed: Vec<f64> = all_laps.iter().skip(1).take(laps).copied().collect();
    let lap_time = timed.iter().copied().collect::<RunningStats>().summary();

    // Lateral deviation measured per flying lap (matching the per-lap error
    // statistics of Table I): mean deviation within each lap is one sample.
    let first_timed_start: f64 = all_laps.first().copied().unwrap_or(0.0);
    let mut per_lap = RunningStats::new();
    if !timed.is_empty() {
        let mut lap_bounds = vec![first_timed_start];
        let mut acc = first_timed_start;
        for lt in &timed {
            acc += lt;
            lap_bounds.push(acc);
        }
        // Times are lap durations from the trace start; convert to stamps.
        let t0 = trace.first().map(|s| s.0).unwrap_or(0.0);
        for w in lap_bounds.windows(2) {
            let poses: Vec<Pose2> = log
                .samples
                .iter()
                .filter(|s| s.stamp - t0 >= w[0] && s.stamp - t0 < w[1])
                .map(|s| s.true_pose)
                .collect();
            let devs = lateral_deviations(&poses, raceline);
            if !devs.is_empty() {
                per_lap.push(100.0 * devs.iter().sum::<f64>() / devs.len() as f64);
            }
        }
    }

    // Scan alignment over the logged scan subsample (estimated poses).
    // Strict tolerance (one map cell + noise): the paper's alignment scores
    // live in the 60–80% band, not at saturation.
    let scorer = ScanAlignmentScorer::new(&world.track().grid, 0.06, world.config().lidar.mount);
    let scan_align_pct =
        scorer.mean_percentage(log.scans.iter().map(|(_, pose, scan)| (*pose, scan)));

    // Pose-estimate error (truth vs estimate) over the timed window.
    let est_error_cm = log
        .samples
        .iter()
        .map(|s| 100.0 * s.true_pose.dist(s.est_pose))
        .collect::<RunningStats>()
        .summary();

    let correct_ms = log.mean_correct_seconds() * 1e3;
    let predict_mean = if log.predict_calls > 0 {
        log.predict_seconds_total / log.predict_calls as f64
    } else {
        0.0
    };
    let load_pct = latency::combined_load_percent(
        log.mean_correct_seconds(),
        world.config().lidar_hz,
        predict_mean,
        world.config().odom_hz,
    );

    CellResult {
        method: method.to_string(),
        odom: odom_label.to_string(),
        lap_time,
        lateral_error_cm: per_lap.summary(),
        scan_align_pct,
        load_pct,
        correct_ms,
        laps: timed.len(),
        crashed: log.crashed,
        est_error_cm,
    }
}

/// Formats a [`CellResult`] as one row of the Table I layout.
pub fn format_row(r: &CellResult) -> String {
    format!(
        "{:<13} {:<4} {:>8.3} {:>7.3} {:>8.3} {:>7.3} {:>8.2} {:>7.2} {:>9.2} {:>6.2} {:>8.2} {:>5} {}",
        r.method,
        r.odom,
        r.lap_time.mean,
        r.lap_time.std,
        r.lateral_error_cm.mean,
        r.lateral_error_cm.std,
        r.est_error_cm.mean,
        r.est_error_cm.std,
        r.scan_align_pct,
        r.load_pct,
        r.correct_ms,
        r.laps,
        if r.crashed { "CRASH" } else { "" }
    )
}

/// The Table I header matching [`format_row`].
pub fn table_header() -> String {
    format!(
        "{:<13} {:<4} {:>8} {:>7} {:>8} {:>7} {:>8} {:>7} {:>9} {:>6} {:>8} {:>5}",
        "Method",
        "Odom",
        "LapT[s]",
        "σ",
        "Err[cm]",
        "σ",
        "Est[cm]",
        "σ",
        "Align[%]",
        "Load%",
        "Corr[ms]",
        "Laps"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_track_has_paper_scale() {
        let t = test_track();
        let len = t.raceline.total_length();
        assert!((30.0..50.0).contains(&len), "raceline {len} m");
        assert!(t.is_free(t.start_pose().translation()));
    }

    #[test]
    fn grip_constants_preserve_pull_ratio() {
        assert!((MU_LOW_QUALITY / MU_HIGH_QUALITY - 19.0 / 26.0).abs() < 1e-12);
    }

    #[test]
    fn world_config_sets_grip_and_seed() {
        let cfg = world_config(0.8, 123);
        assert_eq!(cfg.vehicle.mu, 0.8);
        assert_eq!(cfg.seed, 123);
        assert!(cfg.threads >= 1);
    }

    #[test]
    fn thread_override_parses_defensively() {
        assert_eq!(parse_threads(None), 1);
        assert_eq!(parse_threads(Some("")), 1);
        assert_eq!(parse_threads(Some("0")), 1);
        assert_eq!(parse_threads(Some("junk")), 1);
        assert_eq!(parse_threads(Some("4")), 4);
        assert_eq!(parse_threads(Some(" 2 ")), 2);
    }

    #[test]
    fn threaded_builder_matches_default_builder_output() {
        let t = test_track();
        let a = build_synpf_threaded(&t, 1, 1);
        let b = build_synpf_threaded(&t, 1, 4);
        assert_eq!(a.particles(), b.particles());
        assert_eq!(b.config().threads, 4);
    }

    #[test]
    fn row_formatting_is_stable() {
        let r = CellResult {
            method: "Test".into(),
            odom: "HQ".into(),
            lap_time: raceloc_core::Summary {
                count: 3,
                mean: 8.5,
                std: 0.1,
                min: 8.4,
                max: 8.6,
            },
            lateral_error_cm: raceloc_core::Summary::default(),
            scan_align_pct: 99.5,
            load_pct: 6.5,
            correct_ms: 1.3,
            laps: 3,
            crashed: false,
            est_error_cm: raceloc_core::Summary::default(),
        };
        let row = format_row(&r);
        assert!(row.contains("Test"));
        assert!(row.contains("8.500"));
        assert!(!row.contains("CRASH"));
        assert_eq!(
            table_header().split_whitespace().count(),
            12,
            "header column count"
        );
    }

    #[test]
    fn builders_construct() {
        let t = test_track();
        let pf = build_synpf(&t, 1);
        assert!(pf.particles().len() > 100);
        let carto = build_cartographer(&t);
        assert!(carto.config().max_points > 0);
    }
}
