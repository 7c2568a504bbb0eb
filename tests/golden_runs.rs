//! Golden-run regression snapshots: fixed-seed closed-loop fleets whose
//! serialized reports are checked in byte-for-byte, plus one SynPF run
//! and one Cartographer run whose per-step correction-tail decisions are
//! checked in the same way.
//!
//! The entire raceloc pipeline is deterministic by construction (rule
//! R3), so the strongest possible regression test is also the simplest:
//! run a small fixed-seed fleet and compare the report JSON against a
//! committed snapshot. Any behavioural drift — in the simulator, a
//! localizer, the fault engine, or the aggregation — shows up as a byte
//! diff, with the changed statistics named in the failure message.
//!
//! - The worker-pool width (and the lidar's and SynPF's `threads` in the
//!   tail runs) comes from `RACELOC_THREADS` (default 2), so the CI thread
//!   matrix doubles as a thread-independence check: the same snapshot must
//!   hold at every width.
//! - To regenerate after an *intentional* behavioural change, run
//!   `RACELOC_BLESS=1 cargo test --test golden_runs` and commit the
//!   rewritten files under `tests/golden/`.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use raceloc_core::sensor_data::{LaserScan, Odometry};
use raceloc_core::{DeadlineConfig, Diagnostics, Health, Localizer, Pose2, RangeTier};
use raceloc_eval::{run_fleet, EvalMethod, FleetSpec, GripSpec, MapSpec, ScenarioSpec};
use raceloc_faults::FaultSchedule;
use raceloc_pf::{HealthPolicy, KldConfig, RecoveryConfig, SynPf, SynPfConfig};
use raceloc_range::{ArtifactParams, MapArtifacts};
use raceloc_sim::{World, WorldConfig};
use raceloc_slam::{CartoLocalizer, CartoLocalizerConfig, SlamHealthPolicy};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn threads() -> usize {
    std::env::var("RACELOC_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(2)
}

fn blessing() -> bool {
    std::env::var("RACELOC_BLESS").is_ok_and(|v| v == "1")
}

/// Compares `actual` against the committed snapshot `name`, or rewrites
/// the snapshot when `RACELOC_BLESS=1`.
fn check_snapshot(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if blessing() {
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("bless {name}: {e}"));
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing snapshot {name} ({e}); run with RACELOC_BLESS=1 to create it")
    });
    assert_eq!(
        expected.trim_end(),
        actual.trim_end(),
        "golden run {name} drifted: a deliberate behavioural change must be \
         re-blessed with RACELOC_BLESS=1 and the new snapshot committed"
    );
}

/// A small but representative fleet: one map, low-quality grip, a
/// fault-free control plus a slip burst, all three localizers, one
/// replicate each. Roughly four seconds of wall clock in debug builds.
fn golden_spec() -> FleetSpec {
    FleetSpec {
        name: "golden-small".into(),
        master_seed: 20240831,
        replicates: 1,
        duration_s: 1.5,
        particles: 80,
        beams: 61,
        success_lat_cm: 50.0,
        maps: vec![MapSpec {
            name: "fourier-33".into(),
            fourier_seed: 33,
            half_width: 1.25,
            mean_radius: 6.0,
        }],
        grips: vec![GripSpec {
            name: "LQ".into(),
            mu: 19.0 / 26.0,
        }],
        scenarios: vec![
            ScenarioSpec {
                name: "nominal".into(),
                schedule: FaultSchedule::builder().seed(5).build().expect("valid"),
                measure_from: 0,
                recovery_budget: None,
            },
            ScenarioSpec {
                name: "odom_slip".into(),
                schedule: FaultSchedule::builder()
                    .seed(5)
                    .odom_slip(20, 35, 1.8)
                    .build()
                    .expect("valid"),
                measure_from: 35,
                recovery_budget: None,
            },
        ],
        budgets: vec![0],
        methods: vec![
            EvalMethod::SynPf,
            EvalMethod::Cartographer,
            EvalMethod::DeadReckoning,
        ],
    }
}

#[test]
fn golden_fleet_report_matches_snapshot() {
    let spec = golden_spec();
    let report = run_fleet(&spec, threads()).expect("valid spec");
    let json = format!("{}\n", report.to_json());
    check_snapshot("fleet_small.json", &json);
}

#[test]
fn golden_spec_round_trips_and_matches_snapshot() {
    // The spec itself is part of the contract: a silent change to the
    // spec JSON mapping (or to this fixture) also shows up as a diff.
    let spec = golden_spec();
    let json = format!("{}\n", spec.to_json());
    check_snapshot("fleet_small_spec.json", &json);
    let back = FleetSpec::from_json_str(&json).expect("spec parses back");
    assert_eq!(back.to_json().to_string(), spec.to_json().to_string());
}

/// Forwards every [`Localizer`] call to `inner` and appends one row per
/// correction, written by `row` from the localizer and the pose it just
/// returned: the state the correction tail decided.
struct TailProbe<L> {
    inner: L,
    row: fn(&L, Pose2) -> String,
    rows: String,
    steps: usize,
}

impl<L: Localizer> TailProbe<L> {
    fn new(inner: L, header: &str, row: fn(&L, Pose2) -> String) -> Self {
        Self {
            inner,
            row,
            rows: format!("step\t{header}\n"),
            steps: 0,
        }
    }
}

impl<L: Localizer> Localizer for TailProbe<L> {
    fn predict(&mut self, odom: &Odometry) {
        self.inner.predict(odom);
    }

    fn correct(&mut self, scan: &LaserScan) -> Pose2 {
        let p = self.inner.correct(scan);
        writeln!(self.rows, "{}\t{}", self.steps, (self.row)(&self.inner, p))
            .expect("write to String");
        self.steps += 1;
        p
    }

    fn pose(&self) -> Pose2 {
        self.inner.pose()
    }

    fn reset(&mut self, pose: Pose2) {
        self.inner.reset(pose);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn diagnostics(&self) -> Diagnostics {
        self.inner.diagnostics()
    }

    fn health(&self) -> Health {
        self.inner.health()
    }

    fn set_compute_pressure(&mut self, factor: f64) {
        self.inner.set_compute_pressure(factor);
    }
}

/// The golden track and a low-grip world on it with `faults` installed;
/// the lidar casts on `RACELOC_THREADS` workers.
fn faulted_world(faults: FaultSchedule) -> World {
    let track = golden_spec().maps[0].build_track();
    let mut wcfg = WorldConfig::default();
    wcfg.vehicle.mu = 19.0 / 26.0;
    wcfg.seed = 5;
    wcfg.lidar.beams = 61;
    wcfg.threads = threads();
    let mut world = World::new(track, wcfg);
    world.set_fault_schedule(faults);
    world
}

/// One SynPF closed loop under oracle control with every stage of the
/// correction tail armed — augmented-MCL recovery, health monitoring with
/// automatic re-init, KLD resizing, and a deadline budget — driven
/// through a range-bias window, a kidnap, and a compute-pressure window.
/// Pins the tail's decisions step by step, at any `RACELOC_THREADS`.
#[test]
fn golden_synpf_correction_tail_matches_snapshot() {
    let mut world = faulted_world(
        FaultSchedule::builder()
            .seed(5)
            .range_bias(20, 30, 0.5)
            .pose_kidnap(46, 4.0)
            .compute_pressure(30, 40, 0.3)
            .build()
            .expect("valid"),
    );
    let grid = &world.track().grid;
    let artifacts = Arc::new(MapArtifacts::build(grid, ArtifactParams::default()));
    let particles = 120;
    let deadline = DeadlineConfig::default();
    // "Slack": the budget exactly fits a full-rung step, so any pressure
    // forces the ladder down and its end lets it climb back.
    let budget_units = deadline
        .cost
        .step_units(particles as u64, 60, RangeTier::Exact);
    let config = SynPfConfig::builder()
        .particles(particles)
        .threads(threads())
        .seed(20240831)
        .recovery(RecoveryConfig::default())
        .health(HealthPolicy::default())
        .kld(KldConfig {
            min_particles: 40,
            max_particles: particles,
            ..KldConfig::default()
        })
        .deadline(DeadlineConfig {
            budget_units,
            ..deadline
        })
        .build()
        .expect("valid config");
    let mut pf = SynPf::from_artifacts(artifacts, config);
    pf.enable_recovery(grid);
    let mut probe = TailProbe::new(
        pf,
        "x\ty\ttheta\thealth\tparticles\trung",
        |pf: &SynPf<Arc<MapArtifacts>>, p| {
            let rung = pf.deadline().map_or(0, |c| c.rung());
            format!(
                "{:?}\t{:?}\t{:?}\t{:?}\t{}\t{}",
                p.x,
                p.y,
                p.theta,
                pf.health(),
                pf.particles().len(),
                rung
            )
        },
    );
    let log = world.run_with_oracle_control(&mut probe, 1.5);
    assert!(!log.crashed, "oracle control must not crash");
    check_snapshot("synpf_tail.tsv", &probe.rows);
}

/// One Cartographer closed loop (pure localization with the health
/// policy) under oracle control, driven through odometry slip, a range
/// bias, a lidar blackout and a kidnap. Each scan records the returned
/// pose and the match score as f64 bit patterns plus the health state,
/// so any change to the correlative search or the refiner shows up as a
/// diff, at any `RACELOC_THREADS`.
#[test]
fn golden_carto_correction_tail_matches_snapshot() {
    let mut world = faulted_world(
        FaultSchedule::builder()
            .seed(5)
            .odom_slip(10, 25, 1.8)
            .range_bias(30, 40, 0.5)
            .lidar_blackout(48, 56)
            .pose_kidnap(66, 4.0)
            .build()
            .expect("valid"),
    );
    let artifacts = MapArtifacts::build(&world.track().grid, ArtifactParams::default());
    let config = CartoLocalizerConfig {
        health: Some(SlamHealthPolicy::default()),
        ..CartoLocalizerConfig::default()
    };
    let mut probe = TailProbe::new(
        CartoLocalizer::from_artifacts(&artifacts, config),
        "x\ty\ttheta\tscore\thealth",
        |carto: &CartoLocalizer, p| {
            format!(
                "{:016x}\t{:016x}\t{:016x}\t{:016x}\t{:?}",
                p.x.to_bits(),
                p.y.to_bits(),
                p.theta.to_bits(),
                carto.last_score().to_bits(),
                carto.health()
            )
        },
    );
    let log = world.run_with_oracle_control(&mut probe, 2.25);
    assert!(!log.crashed, "oracle control must not crash");
    check_snapshot("carto_tail.tsv", &probe.rows);
}
