//! Pure-localization mode: Cartographer against a frozen map.
//!
//! This is the baseline configuration of the paper's Table I: the map is
//! known (built beforehand), and the algorithm tracks the car by correlative
//! scan-to-map matching seeded with the odometry-extrapolated pose, then
//! Gauss–Newton refinement.
//!
//! Its robustness character — excellent under nominal odometry, degrading
//! under wheel slip — comes from the single-hypothesis pipeline: the matcher
//! only searches a small window around the extrapolated prior, so when the
//! wheels lie (wheelspin, side-slip) the prior walks away and the matcher
//! can neither cover the discrepancy (corridor sections are longitudinally
//! ambiguous) nor recover more than one window per scan.

use raceloc_obs::{names, Stopwatch};
use std::borrow::Cow;

use crate::probgrid::ProbabilityGrid;
use crate::scan_matcher::{
    downsample_into, CorrelativeScanMatcher, GaussNewtonRefiner, MatchResult, SearchWindow,
};
use raceloc_core::localizer::Localizer;
use raceloc_core::sensor_data::{LaserScan, Odometry};
use raceloc_core::{Diagnostics, Health, HealthConfig, HealthMonitor, HealthSignal, Point2, Pose2};
use raceloc_obs::Telemetry;
use raceloc_range::MapArtifacts;

/// Divergence-detector policy for the Cartographer health machine
/// (DESIGN.md §12).
///
/// The single signal a scan-to-map matcher has is its own match score: a
/// strong match means the estimate explains the map, a weak one means the
/// prior walked outside the search window (wheel slip, kidnap) or the
/// scan is unusable (blackout). Unlike SynPF there is no global
/// re-initialization to fall back on — a Lost Cartographer holds
/// dead-reckoning, which is exactly the single-hypothesis limitation the
/// paper's robustness comparison quantifies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlamHealthPolicy {
    /// Streak thresholds of the underlying state machine.
    pub monitor: HealthConfig,
    /// Match scores below this vote Suspect.
    pub suspect_score: f64,
    /// Match scores below this vote Diverged.
    pub lost_score: f64,
    /// Scans older than this relative to the latest odometry \[s\] are
    /// rejected and the step coasts on dead-reckoning.
    pub max_scan_age: f64,
}

impl Default for SlamHealthPolicy {
    fn default() -> Self {
        Self {
            monitor: HealthConfig::default(),
            suspect_score: 0.35,
            lost_score: 0.18,
            max_scan_age: 0.15,
        }
    }
}

/// Configuration of the pure localizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CartoLocalizerConfig {
    /// Search window around the odometry-extrapolated prior.
    pub window: SearchWindow,
    /// Translational search step \[m\] (defaults to the map resolution).
    pub linear_step: f64,
    /// Rotational search step \[rad\].
    pub angular_step: f64,
    /// LiDAR pose in the body frame.
    pub lidar_mount: Pose2,
    /// Maximum scan points used per match.
    pub max_points: usize,
    /// Matches scoring below this keep the odometry prediction instead.
    pub min_score: f64,
    /// Prior penalty on translation in the refiner — how much the matcher
    /// trusts the odometry-extrapolated pose. This odometry trust is the
    /// mechanism behind Cartographer's low-quality-odometry degradation in
    /// the paper's Table I.
    pub prior_translation_weight: f64,
    /// Prior penalty on rotation in the refiner.
    pub prior_rotation_weight: f64,
    /// Run the correlative search before refinement only when the refined
    /// score falls below this. The default of 1.0 keeps the correlative
    /// matcher always on, matching the F1TENTH Cartographer configuration
    /// (`use_online_correlative_scan_matching = true`).
    pub correlative_rescue_score: f64,
    /// Optional health monitoring (DESIGN.md §12): the scan-match score
    /// drives a Nominal → Degraded → Lost state machine, with stale-input
    /// rejection. `None` (the default) disables it at zero cost.
    pub health: Option<SlamHealthPolicy>,
}

impl Default for CartoLocalizerConfig {
    fn default() -> Self {
        Self {
            window: SearchWindow {
                linear: 0.22,
                angular: 0.09,
            },
            linear_step: 0.05,
            angular_step: 0.015,
            lidar_mount: Pose2::new(0.1, 0.0, 0.0),
            max_points: 120,
            min_score: 0.35,
            prior_translation_weight: 2.6,
            prior_rotation_weight: 1.3,
            correlative_rescue_score: 1.0,
            health: None,
        }
    }
}

/// Cartographer-style scan-to-map localization on a known map.
///
/// # Examples
///
/// ```
/// use raceloc_map::{TrackShape, TrackSpec};
/// use raceloc_range::{ArtifactParams, MapArtifacts};
/// use raceloc_slam::{CartoLocalizer, CartoLocalizerConfig};
/// use raceloc_core::localizer::Localizer;
///
/// let track = TrackSpec::new(TrackShape::Oval { width: 10.0, height: 6.0 })
///     .resolution(0.1)
///     .build();
/// let artifacts = MapArtifacts::build(&track.grid, ArtifactParams::default());
/// let mut loc = CartoLocalizer::from_artifacts(&artifacts, CartoLocalizerConfig::default());
/// loc.reset(track.start_pose());
/// assert_eq!(loc.name(), "cartographer");
/// ```
#[derive(Debug, Clone)]
pub struct CartoLocalizer {
    config: CartoLocalizerConfig,
    grid: ProbabilityGrid,
    matcher: CorrelativeScanMatcher,
    refiner: GaussNewtonRefiner,
    /// The downsampled points of the scan being matched, reused across
    /// corrections.
    points: Vec<Point2>,
    pose: Pose2,
    last_odom: Option<Odometry>,
    last_score: f64,
    tel: Telemetry,
    /// Per-stage timings of the last correction, for
    /// [`Localizer::diagnostics`]: `refine`, then `correlative` when the
    /// correlative search runs; `refine` then totals both refines.
    last_stages: Vec<(Cow<'static, str>, f64)>,
    /// Health state machine (DESIGN.md §12); only fed when
    /// [`CartoLocalizerConfig::health`] is set.
    health_monitor: HealthMonitor,
}

impl CartoLocalizer {
    /// Books one pipeline stage's wall-clock share into the stage list
    /// surfaced by [`Localizer::diagnostics`]; a stage that runs twice in
    /// one correction adds to its first entry, so each name appears once.
    /// The list is cleared at the start of each correction and retains its
    /// capacity, so steady-state corrections append without reallocating.
    fn record_stage(&mut self, name: &'static str, seconds: f64) {
        match self.last_stages.iter_mut().find(|(n, _)| n == name) {
            Some((_, total)) => *total += seconds,
            None => self.last_stages.push((Cow::Borrowed(name), seconds)),
        }
    }

    /// Gauss–Newton refinement of `initial` against the map, pulled toward
    /// `prior` by the configured weights; books one `slam.refine` span and
    /// adds its time to the `refine` stage.
    fn refine(&mut self, initial: Pose2, prior: Pose2) -> MatchResult {
        let started = Stopwatch::start();
        let result = self.refiner.refine_with_prior(
            &self.grid,
            &self.points,
            initial,
            prior,
            self.config.prior_translation_weight,
            self.config.prior_rotation_weight,
        );
        let seconds = started.elapsed_seconds();
        self.tel.record_span(names::SLAM_REFINE, seconds);
        self.record_stage("refine", seconds);
        result
    }

    /// Builds the localizer from a shared [`MapArtifacts`] bundle — the
    /// service-oriented constructor. Only the bundle's occupancy grid is
    /// consumed (converted once to the matcher's smoothed probability
    /// field); the bundle's lazy range LUT is *not* touched, so
    /// Cartographer-only sessions never allocate or fill it.
    ///
    /// The smoothed field is a Gaussian ridge on the wall surface, so
    /// gradient refinement works on thick wall bands.
    pub fn from_artifacts(artifacts: &MapArtifacts, config: CartoLocalizerConfig) -> Self {
        let map = artifacts.grid();
        // Sized up front so that no correction allocates, whichever scan
        // first reaches `max_points` or first needs the correlative rescue.
        let mut matcher = CorrelativeScanMatcher::new(config.linear_step, config.angular_step);
        matcher.reserve(config.max_points, config.window);
        Self {
            grid: ProbabilityGrid::from_occupancy_smoothed(map, 3.0 * map.resolution()),
            matcher,
            refiner: GaussNewtonRefiner::default(),
            points: Vec::with_capacity(config.max_points),
            pose: Pose2::IDENTITY,
            last_odom: None,
            last_score: 0.0,
            tel: Telemetry::disabled(),
            // `refine` and `correlative`.
            last_stages: Vec::with_capacity(2),
            health_monitor: HealthMonitor::new(
                config.health.map(|h| h.monitor).unwrap_or_default(),
            ),
            config,
        }
    }

    /// Attaches a telemetry handle: corrections record the
    /// `slam.refine`, `slam.correlative`, and `slam.correct` spans into it.
    /// `slam.correlative` times the correlative search alone, and each
    /// Gauss–Newton refine (the direct one, and the one polishing the
    /// search's pose) is its own `slam.refine` span.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// The configuration.
    pub fn config(&self) -> &CartoLocalizerConfig {
        &self.config
    }

    /// Score of the most recent scan match (diagnostic).
    pub fn last_score(&self) -> f64 {
        self.last_score
    }

    /// Books a correction that could not be scored (empty, blacked-out, or
    /// stale scan) into the health machine: the tracker is coasting on
    /// dead-reckoning alone.
    fn note_uninformative_scan(&mut self) {
        if self.config.health.is_some() {
            self.health_monitor.observe(HealthSignal::Suspect);
        }
    }

    /// Whether the scan is too old relative to the newest odometry to be
    /// matched against (stale-input rejection, DESIGN.md §12).
    fn scan_is_stale(&self, scan: &LaserScan) -> bool {
        let Some(policy) = self.config.health else {
            return false;
        };
        match self.last_odom {
            Some(last) => last.stamp - scan.stamp > policy.max_scan_age,
            None => false,
        }
    }

    /// Feeds the match score of a finished correction into the health
    /// machine. Cartographer has no re-initialization machinery, so Lost
    /// simply persists until the matcher re-acquires (the window happens to
    /// cover the true pose again).
    fn update_health(&mut self, score: f64) {
        let Some(policy) = self.config.health else {
            return;
        };
        let signal = if score >= policy.suspect_score {
            HealthSignal::Ok
        } else if score >= policy.lost_score {
            HealthSignal::Suspect
        } else {
            HealthSignal::Diverged
        };
        self.health_monitor.observe(signal);
    }
}

impl Localizer for CartoLocalizer {
    fn predict(&mut self, odom: &Odometry) {
        if let Some(last) = self.last_odom {
            let delta = last.pose.relative_to(odom.pose);
            self.pose = self.pose * delta;
        }
        self.last_odom = Some(*odom);
    }

    fn correct(&mut self, scan: &LaserScan) -> Pose2 {
        // Stale-input rejection (DESIGN.md §12): matching a scan older than
        // the odometry horizon would drag the estimate backwards.
        if self.scan_is_stale(scan) {
            self.note_uninformative_scan();
            return self.pose;
        }
        downsample_into(scan, self.config.max_points, &mut self.points);
        if self.points.is_empty() {
            self.note_uninformative_scan();
            return self.pose;
        }
        let correct_started = Stopwatch::start();
        self.last_stages.clear();
        let prior = self.pose * self.config.lidar_mount;
        let direct = self.refine(prior, prior);
        let fine = if direct.score < self.config.correlative_rescue_score {
            let match_started = Stopwatch::start();
            let coarse =
                self.matcher
                    .match_scan(&self.grid, &self.points, prior, self.config.window);
            let match_seconds = match_started.elapsed_seconds();
            self.tel.record_span(names::SLAM_CORRELATIVE, match_seconds);
            self.record_stage("correlative", match_seconds);
            let rescued = self.refine(coarse.pose, prior);
            if rescued.score > direct.score {
                rescued
            } else {
                direct
            }
        } else {
            direct
        };
        self.last_score = fine.score;
        self.update_health(fine.score);
        self.tel
            .record_span(names::SLAM_CORRECT, correct_started.elapsed_seconds());
        if self.last_score >= self.config.min_score {
            // Clamp the refined pose back into the search window: the
            // single-hypothesis tracker never jumps beyond its window.
            let mut candidate = fine.pose;
            let dx = candidate.x - prior.x;
            let dy = candidate.y - prior.y;
            let lim = self.config.window.linear * 1.5;
            if dx.abs() > lim || dy.abs() > lim {
                // Never jump beyond the window: clamp back to the prior.
                candidate = Pose2::new(
                    prior.x + dx.clamp(-lim, lim),
                    prior.y + dy.clamp(-lim, lim),
                    candidate.theta,
                );
            }
            self.pose = candidate * self.config.lidar_mount.inverse();
        }
        self.pose
    }

    fn pose(&self) -> Pose2 {
        self.pose
    }

    fn reset(&mut self, pose: Pose2) {
        self.pose = pose;
        self.last_odom = None;
        self.last_score = 0.0;
        self.last_stages.clear();
        self.health_monitor.reset();
    }

    fn name(&self) -> &str {
        "cartographer"
    }

    fn health(&self) -> Health {
        self.health_monitor.state()
    }

    fn diagnostics(&self) -> Diagnostics {
        Diagnostics {
            particles: Some(1),
            match_score: Some(self.last_score),
            health: self
                .config
                .health
                .is_some()
                .then(|| self.health_monitor.state()),
            stages: self.last_stages.clone(),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raceloc_core::Twist2;
    use raceloc_map::{Track, TrackShape, TrackSpec};
    use raceloc_range::{RangeMethod, RayMarching};

    fn track() -> Track {
        TrackSpec::new(TrackShape::Oval {
            width: 10.0,
            height: 6.0,
        })
        .resolution(0.1)
        .build()
    }

    /// Artifact bundle for a test track. The LUT stays unbuilt: these tests
    /// only exercise the scan matcher, which needs the grid alone.
    fn artifacts(t: &Track) -> MapArtifacts {
        MapArtifacts::build(&t.grid, raceloc_range::ArtifactParams::default())
    }

    fn scan_from(track: &Track, pose: Pose2, mount: Pose2) -> LaserScan {
        let caster = RayMarching::new(&track.grid, 10.0);
        let beams = 140;
        let fov = 270.0f64.to_radians();
        let inc = fov / (beams - 1) as f64;
        let sensor = pose * mount;
        let ranges: Vec<f64> = (0..beams)
            .map(|i| {
                caster.range(
                    sensor.x,
                    sensor.y,
                    sensor.theta - 0.5 * fov + i as f64 * inc,
                )
            })
            .collect();
        LaserScan::new(-0.5 * fov, inc, ranges, 10.0)
    }

    #[test]
    fn corrects_small_offsets() {
        let t = track();
        let mut loc =
            CartoLocalizer::from_artifacts(&artifacts(&t), CartoLocalizerConfig::default());
        let truth = t.start_pose();
        // Start with a ~13 cm, 1.7° error.
        let initial = Pose2::new(truth.x + 0.1, truth.y - 0.08, truth.theta + 0.03);
        loc.reset(initial);
        let scan = scan_from(&t, truth, loc.config().lidar_mount);
        let mut est = loc.pose();
        for _ in 0..4 {
            est = loc.correct(&scan);
        }
        // With the default odometry-trust weights a longitudinal remnant can
        // survive on corridor-like geometry; what the matcher must deliver
        // is heading convergence plus a clear overall improvement.
        assert!(
            est.dist(truth) < 0.75 * initial.dist(truth),
            "est {est} truth {truth}"
        );
        assert!(est.heading_dist(truth) < 0.012, "heading {}", est.theta);
        assert!(loc.last_score() > 0.4);
    }

    #[test]
    fn tracks_motion_with_odometry() {
        let t = track();
        let mut loc =
            CartoLocalizer::from_artifacts(&artifacts(&t), CartoLocalizerConfig::default());
        let path = &t.centerline;
        let start = Pose2::from_point(path.point_at(0.0), path.heading_at(0.0));
        loc.reset(start);
        let mut odom_pose = Pose2::IDENTITY;
        let ds = 0.1;
        loc.predict(&Odometry::new(odom_pose, Twist2::ZERO, 0.0));
        for i in 1..80 {
            let s = i as f64 * ds;
            let truth = Pose2::from_point(path.point_at(s), path.heading_at(s));
            let prev = Pose2::from_point(path.point_at(s - ds), path.heading_at(s - ds));
            odom_pose = odom_pose * prev.relative_to(truth);
            loc.predict(&Odometry::new(odom_pose, Twist2::ZERO, i as f64 * 0.05));
            let est = loc.correct(&scan_from(&t, truth, loc.config().lidar_mount));
            assert!(est.dist(truth) < 0.25, "step {i}: {est} vs {truth}");
        }
    }

    #[test]
    fn cannot_recover_beyond_window() {
        // The single-hypothesis failure mode the paper quantifies: with the
        // prior far outside the window, one correction cannot recover.
        let t = track();
        let mut loc =
            CartoLocalizer::from_artifacts(&artifacts(&t), CartoLocalizerConfig::default());
        let truth = t.start_pose();
        let far = Pose2::new(truth.x - 1.2, truth.y + 0.9, truth.theta + 0.4);
        loc.reset(far);
        let scan = scan_from(&t, truth, loc.config().lidar_mount);
        let est = loc.correct(&scan);
        assert!(
            est.dist(truth) > 0.5,
            "should not fully recover in one step: {est}"
        );
    }

    #[test]
    fn low_score_keeps_prediction() {
        let t = track();
        let cfg = CartoLocalizerConfig {
            min_score: 0.99, // unreachable
            ..CartoLocalizerConfig::default()
        };
        let mut loc = CartoLocalizer::from_artifacts(&artifacts(&t), cfg);
        let truth = t.start_pose();
        let offset = Pose2::new(truth.x + 0.1, truth.y, truth.theta);
        loc.reset(offset);
        let est = loc.correct(&scan_from(&t, truth, loc.config().lidar_mount));
        assert_eq!(est, offset);
    }

    #[test]
    fn empty_scan_keeps_pose() {
        let t = track();
        let mut loc =
            CartoLocalizer::from_artifacts(&artifacts(&t), CartoLocalizerConfig::default());
        loc.reset(Pose2::new(1.0, 2.0, 0.0));
        let est = loc.correct(&LaserScan::new(0.0, 0.1, vec![], 10.0));
        assert_eq!(est, Pose2::new(1.0, 2.0, 0.0));
    }

    #[test]
    fn diagnostics_and_telemetry_record_match() {
        let t = track();
        let mut loc =
            CartoLocalizer::from_artifacts(&artifacts(&t), CartoLocalizerConfig::default());
        let tel = Telemetry::enabled();
        loc.set_telemetry(tel.clone());
        let truth = t.start_pose();
        loc.reset(truth);
        assert!(loc.diagnostics().stages.is_empty(), "no correction yet");
        loc.correct(&scan_from(&t, truth, loc.config().lidar_mount));
        let d = loc.diagnostics();
        assert_eq!(d.particles, Some(1));
        assert_eq!(d.match_score, Some(loc.last_score()));
        assert!(d.stage("refine").expect("refine stage") >= 0.0);
        let names: Vec<&str> = d.stages.iter().map(|(n, _)| n.as_ref()).collect();
        assert_eq!(names, ["refine", "correlative"]);
        let snap = tel.snapshot();
        let correct = snap
            .span(names::SLAM_CORRECT.as_str())
            .expect("correct span");
        assert_eq!(correct.count, 1);
        assert_eq!(
            snap.span(names::SLAM_CORRELATIVE.as_str())
                .expect("span")
                .count,
            1
        );
        let refine = snap.span(names::SLAM_REFINE.as_str()).expect("refine span");
        assert_eq!(refine.count, 2);
        // The refine stage totals both refines.
        assert_eq!(d.stage("refine"), Some(refine.total_seconds));
        // The stages are disjoint parts of the correction.
        assert!(
            d.stages_total() <= correct.total_seconds,
            "stages {} > correct {}",
            d.stages_total(),
            correct.total_seconds
        );
    }

    #[test]
    fn health_tracks_match_quality() {
        let t = track();
        // Thresholds pinned between the nominal score band (> 0.4 on this
        // map) and the smoothed grid's free-space floor (~0.3).
        let cfg = CartoLocalizerConfig {
            health: Some(SlamHealthPolicy {
                suspect_score: 0.4,
                lost_score: 0.33,
                ..SlamHealthPolicy::default()
            }),
            ..CartoLocalizerConfig::default()
        };
        let mut loc = CartoLocalizer::from_artifacts(&artifacts(&t), cfg);
        let truth = t.start_pose();
        loc.reset(truth);
        let good = scan_from(&t, truth, loc.config().lidar_mount);
        for _ in 0..5 {
            loc.correct(&good);
        }
        assert_eq!(loc.health(), Health::Nominal);
        assert_eq!(loc.diagnostics().health, Some(Health::Nominal));
        // A scan inconsistent with the map (every return 0.4 m away, as if
        // boxed in by an unmapped obstacle): every endpoint lands in free
        // space, scores collapse, and the single-hypothesis tracker — with
        // no re-init machinery — goes Lost.
        let bad = LaserScan::new(-1.35, 0.02, vec![0.4; 136], 10.0);
        let mut state = loc.health();
        for _ in 0..20 {
            loc.correct(&bad);
            state = loc.health();
        }
        assert_eq!(state, Health::Lost, "score {}", loc.last_score());
    }

    #[test]
    fn blackout_scan_degrades_health() {
        let t = track();
        let cfg = CartoLocalizerConfig {
            health: Some(SlamHealthPolicy::default()),
            ..CartoLocalizerConfig::default()
        };
        let mut loc = CartoLocalizer::from_artifacts(&artifacts(&t), cfg);
        let truth = t.start_pose();
        loc.reset(truth);
        // All beams dropped: `to_points` yields nothing, the tracker coasts.
        let blackout = LaserScan::new(0.0, 0.01, vec![f64::INFINITY; 100], 10.0);
        let before = loc.pose();
        for _ in 0..4 {
            assert_eq!(loc.correct(&blackout), before);
        }
        assert_eq!(loc.health(), Health::Degraded);
        // Recovery: good scans return.
        let good = scan_from(&t, truth, loc.config().lidar_mount);
        for _ in 0..6 {
            loc.correct(&good);
        }
        assert_eq!(loc.health(), Health::Nominal);
    }

    #[test]
    fn stale_scan_is_rejected() {
        let t = track();
        let cfg = CartoLocalizerConfig {
            health: Some(SlamHealthPolicy::default()),
            ..CartoLocalizerConfig::default()
        };
        let mut loc = CartoLocalizer::from_artifacts(&artifacts(&t), cfg);
        let truth = t.start_pose();
        loc.reset(truth);
        let mut scan = scan_from(&t, truth, loc.config().lidar_mount);
        loc.predict(&Odometry::new(Pose2::IDENTITY, Twist2::ZERO, 0.0));
        loc.predict(&Odometry::new(Pose2::IDENTITY, Twist2::ZERO, 1.0));
        scan.stamp = 0.0; // 1 s older than the odometry horizon.
        let score_before = loc.last_score();
        assert_eq!(loc.correct(&scan), truth);
        assert_eq!(loc.last_score(), score_before, "no match happened");
        // Without a health policy the same scan is accepted.
        let mut plain =
            CartoLocalizer::from_artifacts(&artifacts(&t), CartoLocalizerConfig::default());
        plain.reset(truth);
        plain.predict(&Odometry::new(Pose2::IDENTITY, Twist2::ZERO, 0.0));
        plain.predict(&Odometry::new(Pose2::IDENTITY, Twist2::ZERO, 1.0));
        plain.correct(&scan);
        assert!(plain.last_score() > 0.0);
    }

    #[test]
    fn reset_clears_odometry_reference() {
        let t = track();
        let mut loc =
            CartoLocalizer::from_artifacts(&artifacts(&t), CartoLocalizerConfig::default());
        loc.predict(&Odometry::new(Pose2::new(3.0, 0.0, 0.0), Twist2::ZERO, 0.0));
        loc.reset(Pose2::IDENTITY);
        loc.predict(&Odometry::new(Pose2::new(9.0, 0.0, 0.0), Twist2::ZERO, 0.1));
        // First post-reset sample only establishes the reference.
        assert_eq!(loc.pose(), Pose2::IDENTITY);
    }
}
