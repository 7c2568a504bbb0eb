//! Closed-loop observability integration: the world drives real localizers
//! with telemetry enabled and a JSONL recorder attached, and every
//! correction step must come out with populated diagnostics, consistent
//! span statistics, and a parseable record stream.

use raceloc::core::localizer::Localizer;
use raceloc::map::{Track, TrackShape, TrackSpec};
use raceloc::obs::{names, parse_steps, Json, RunRecorder, SharedBuffer, Telemetry};
use raceloc::pf::{SynPf, SynPfConfig};
use raceloc::range::{ArtifactParams, MapArtifacts, RayMarching};
use raceloc::sim::{World, WorldConfig};
use raceloc::slam::{CartoLocalizer, CartoLocalizerConfig};

fn track() -> Track {
    TrackSpec::new(TrackShape::Oval {
        width: 11.0,
        height: 6.5,
    })
    .resolution(0.1)
    .build()
}

fn world(t: &Track) -> World {
    let mut cfg = WorldConfig::default();
    cfg.lidar.beams = 121; // lighter scans for debug-mode speed
    cfg.pursuit.speed_scale = 0.8;
    World::new(t.clone(), cfg)
}

#[test]
fn synpf_closed_loop_populates_diagnostics_every_step() {
    let t = track();
    let mut w = world(&t);
    let tel = Telemetry::enabled();
    w.set_telemetry(tel.clone());

    let config = SynPfConfig::builder()
        .particles(250)
        .build()
        .expect("valid config");
    let mut pf = SynPf::new(RayMarching::new(&t.grid, 10.0), config);
    pf.set_telemetry(tel.clone());

    let buf = SharedBuffer::new();
    let mut rec = RunRecorder::new(buf.clone());
    let log = w.run_recorded(&mut pf, 2.0, &mut rec).expect("record run");
    assert!(!log.samples.is_empty());

    let steps = parse_steps(&buf.contents()).expect("JSONL parses");
    assert_eq!(steps.len(), log.samples.len());
    for (i, s) in steps.iter().enumerate() {
        // Every correction step carries full SynPF diagnostics.
        assert_eq!(s.step, i as u64, "steps are sequential");
        assert_eq!(s.diag.particles, Some(250), "step {i} particle count");
        let ess = s.diag.ess.expect("ESS populated");
        assert!((1.0..=250.0 + 1e-6).contains(&ess), "step {i} ESS {ess}");
        let cov = s.diag.covariance_trace.expect("covariance populated");
        assert!(cov.is_finite() && cov >= 0.0, "step {i} cov {cov}");
        assert!(!s.diag.stages.is_empty(), "step {i} has stage timings");
        // The in-correction stages never sum past the whole correction
        // ("motion" is excluded: it accumulates across the predict calls
        // that happened *before* this correction).
        let in_correction: f64 = s
            .diag
            .stages
            .iter()
            .filter(|(n, _)| n != "motion")
            .map(|(_, sec)| sec)
            .sum();
        assert!(
            in_correction <= s.correct_seconds + 1e-4,
            "step {i}: stages {in_correction} > correct {}",
            s.correct_seconds
        );
    }

    // The shared telemetry handle aggregated the same loop: one pf.correct
    // and one sim.correct span per recorded step.
    let snap = tel.snapshot();
    let sim_correct = snap
        .span(names::SIM_CORRECT.as_str())
        .expect("sim.correct span");
    assert_eq!(sim_correct.count as usize, steps.len());
    let pf_correct = snap
        .span(names::PF_CORRECT.as_str())
        .expect("pf.correct span");
    assert_eq!(pf_correct.count as usize, steps.len());
    for stage in [
        names::PF_MOTION,
        names::PF_CAST_WEIGHT,
        names::PF_REDUCE,
        names::PF_RESAMPLE,
    ] {
        assert!(
            snap.span(stage.as_str()).is_some(),
            "missing span {stage:?}"
        );
    }
    assert!(
        snap.counter(names::RANGE_QUERIES.as_str()).unwrap_or(0) > 0,
        "batched range queries counted"
    );
    // The latency histogram saw every correction too.
    let hist = snap
        .histogram(names::PF_CORRECT.as_str())
        .expect("latency histogram");
    assert_eq!(hist.total() as usize, steps.len());
}

#[test]
fn cartographer_closed_loop_reports_match_scores() {
    let t = track();
    let mut w = world(&t);
    let mut loc = CartoLocalizer::from_artifacts(
        &MapArtifacts::build(&t.grid, ArtifactParams::default()),
        CartoLocalizerConfig::default(),
    );
    let tel = Telemetry::enabled();
    loc.set_telemetry(tel.clone());

    let buf = SharedBuffer::new();
    let mut rec = RunRecorder::new(buf.clone());
    let log = w.run_recorded(&mut loc, 2.0, &mut rec).expect("record run");
    assert!(!log.samples.is_empty());

    let text = buf.contents();
    let meta = Json::parse(text.lines().next().expect("meta line")).expect("meta parses");
    assert_eq!(meta.get("type").and_then(Json::as_str), Some("meta"));
    assert_eq!(
        meta.get("localizer").and_then(Json::as_str),
        Some(loc.name())
    );

    let steps = parse_steps(&text).expect("JSONL parses");
    assert_eq!(steps.len(), log.samples.len());
    for (i, s) in steps.iter().enumerate() {
        let score = s.diag.match_score.expect("match score populated");
        assert!((0.0..=1.0).contains(&score), "step {i} score {score}");
        assert!(s.diag.stage("refine").is_some(), "step {i} refine stage");
    }
    let snap = tel.snapshot();
    assert_eq!(
        snap.span(names::SLAM_CORRECT.as_str())
            .map(|s| s.count as usize),
        Some(steps.len())
    );
}
