//! Golden-run regression snapshots: fixed-seed closed-loop fleets whose
//! serialized reports are checked in byte-for-byte, plus one SynPF run
//! whose per-step correction-tail decisions are checked in the same way.
//!
//! The entire raceloc pipeline is deterministic by construction (rule
//! R3), so the strongest possible regression test is also the simplest:
//! run a small fixed-seed fleet and compare the report JSON against a
//! committed snapshot. Any behavioural drift — in the simulator, a
//! localizer, the fault engine, or the aggregation — shows up as a byte
//! diff, with the changed statistics named in the failure message.
//!
//! - The worker-pool width (and SynPF's `threads` in the tail run) comes
//!   from `RACELOC_THREADS` (default 2), so the CI thread matrix doubles
//!   as a thread-independence check: the same snapshot must hold at every
//!   width.
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

/// Forwards every [`Localizer`] call to a SynPF and records, after each
/// correction, the state the correction tail decides: pose, health,
/// particle count (KLD), and deadline rung.
struct TailProbe {
    pf: SynPf<Arc<MapArtifacts>>,
    rows: String,
    steps: usize,
}

impl Localizer for TailProbe {
    fn predict(&mut self, odom: &Odometry) {
        self.pf.predict(odom);
    }

    fn correct(&mut self, scan: &LaserScan) -> Pose2 {
        let p = self.pf.correct(scan);
        let rung = self.pf.deadline().map_or(0, |c| c.rung());
        writeln!(
            self.rows,
            "{}\t{:?}\t{:?}\t{:?}\t{:?}\t{}\t{}",
            self.steps,
            p.x,
            p.y,
            p.theta,
            self.pf.health(),
            self.pf.particles().len(),
            rung
        )
        .expect("write to String");
        self.steps += 1;
        p
    }

    fn pose(&self) -> Pose2 {
        self.pf.pose()
    }

    fn reset(&mut self, pose: Pose2) {
        self.pf.reset(pose);
    }

    fn name(&self) -> &str {
        self.pf.name()
    }

    fn diagnostics(&self) -> Diagnostics {
        self.pf.diagnostics()
    }

    fn health(&self) -> Health {
        self.pf.health()
    }

    fn set_compute_pressure(&mut self, factor: f64) {
        self.pf.set_compute_pressure(factor);
    }
}

/// One SynPF closed loop under oracle control with every stage of the
/// correction tail armed — augmented-MCL recovery, health monitoring with
/// automatic re-init, KLD resizing, and a deadline budget — driven
/// through a range-bias window, a kidnap, and a compute-pressure window.
/// Pins the tail's decisions step by step, at any `RACELOC_THREADS`.
#[test]
fn golden_synpf_correction_tail_matches_snapshot() {
    let map = &golden_spec().maps[0];
    let track = map.build_track();
    let artifacts = Arc::new(MapArtifacts::build(&track.grid, ArtifactParams::default()));
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
    pf.enable_recovery(&track.grid);

    let mut wcfg = WorldConfig::default();
    wcfg.vehicle.mu = 19.0 / 26.0;
    wcfg.seed = 5;
    wcfg.lidar.beams = 61;
    let mut world = World::new(track, wcfg);
    world.set_fault_schedule(
        FaultSchedule::builder()
            .seed(5)
            .range_bias(20, 30, 0.5)
            .pose_kidnap(46, 4.0)
            .compute_pressure(30, 40, 0.3)
            .build()
            .expect("valid"),
    );
    let mut probe = TailProbe {
        pf,
        rows: String::from("step\tx\ty\ttheta\thealth\tparticles\trung\n"),
        steps: 0,
    };
    let log = world.run_with_oracle_control(&mut probe, 1.5);
    assert!(!log.crashed, "oracle control must not crash");
    check_snapshot("synpf_tail.tsv", &probe.rows);
}
