//! The online SLAM pipeline: local matching, submap insertion, pose-graph
//! construction, loop closure, and map export.

use raceloc_obs::Stopwatch;
use std::borrow::Cow;

use crate::loop_closure::{BranchAndBoundConfig, BranchAndBoundMatcher};
use crate::pose_graph::{Constraint, PoseGraph};
use crate::probgrid::ProbabilityGrid;
use crate::scan_matcher::{
    downsample_into, CorrelativeScanMatcher, GaussNewtonRefiner, SearchWindow,
};
use crate::submap::SubmapCollection;
use raceloc_core::localizer::Localizer;
use raceloc_core::sensor_data::{LaserScan, Odometry};
use raceloc_core::{Diagnostics, Point2, Pose2};
use raceloc_map::OccupancyGrid;
use raceloc_obs::Telemetry;

/// Configuration of the [`CartoSlam`] pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct CartoSlamConfig {
    /// Submap grid resolution \[m\].
    pub resolution: f64,
    /// Submap physical size \[m\].
    pub submap_size_m: f64,
    /// Scans per submap before it is finished.
    pub scans_per_submap: usize,
    /// Motion filter: minimum travel before a scan is inserted \[m\].
    pub motion_min_dist: f64,
    /// Motion filter: minimum rotation before a scan is inserted \[rad\].
    pub motion_min_angle: f64,
    /// Search window of the real-time matcher.
    pub tracking_window: SearchWindow,
    /// LiDAR pose in the body frame.
    pub lidar_mount: Pose2,
    /// Maximum scan points used for matching (uniform downsample).
    pub max_points: usize,
    /// Attempt loop closure every this many inserted nodes.
    pub loop_closure_every: usize,
    /// Branch-and-bound settings for loop closure.
    pub loop_closure: BranchAndBoundConfig,
    /// Minimum node-index separation for a closure attempt.
    pub min_closure_separation: usize,
    /// Prior penalty on translation in the scan refiner (Cartographer's
    /// `translation_weight`): how much the matcher trusts odometry.
    pub prior_translation_weight: f64,
    /// Prior penalty on rotation in the scan refiner.
    pub prior_rotation_weight: f64,
    /// Run the correlative matcher before refining only when the refined
    /// score falls below this (Cartographer's optional real-time matcher).
    pub correlative_rescue_score: f64,
}

impl Default for CartoSlamConfig {
    fn default() -> Self {
        Self {
            resolution: 0.05,
            submap_size_m: 12.0,
            scans_per_submap: 40,
            motion_min_dist: 0.1,
            motion_min_angle: 0.05,
            tracking_window: SearchWindow::tracking(),
            lidar_mount: Pose2::new(0.1, 0.0, 0.0),
            max_points: 140,
            loop_closure_every: 8,
            loop_closure: BranchAndBoundConfig::default(),
            min_closure_separation: 60,
            prior_translation_weight: 1.5,
            prior_rotation_weight: 1.0,
            correlative_rescue_score: 0.45,
        }
    }
}

struct NodeData {
    /// Index in the pose graph.
    graph_idx: usize,
    /// Downsampled sensor-frame points of the node's scan.
    points: Vec<Point2>,
}

/// A Cartographer-style online SLAM system.
///
/// Implements [`Localizer`] so it can be driven by the simulator: `predict`
/// extrapolates with odometry, `correct` runs scan-to-submap matching,
/// inserts motion-filtered scans, and periodically attempts loop closures
/// followed by a pose-graph optimization.
///
/// # Examples
///
/// ```
/// use raceloc_slam::{CartoSlam, CartoSlamConfig};
/// use raceloc_core::localizer::Localizer;
/// use raceloc_core::Pose2;
///
/// let mut slam = CartoSlam::new(CartoSlamConfig::default());
/// slam.reset(Pose2::IDENTITY);
/// assert_eq!(slam.name(), "carto-slam");
/// ```
pub struct CartoSlam {
    config: CartoSlamConfig,
    submaps: SubmapCollection,
    graph: PoseGraph,
    nodes: Vec<NodeData>,
    /// Anchor graph node of each submap (its first scan's node).
    submap_anchor_node: Vec<usize>,
    matcher: CorrelativeScanMatcher,
    refiner: GaussNewtonRefiner,
    tracked: Pose2,
    last_odom: Option<Odometry>,
    last_insert_pose: Option<Pose2>,
    nodes_since_closure: usize,
    closures_found: usize,
    tel: Telemetry,
    last_match_score: Option<f64>,
    /// Per-stage timings of the last correction, for
    /// [`Localizer::diagnostics`].
    last_stages: Vec<(Cow<'static, str>, f64)>,
}

impl std::fmt::Debug for CartoSlam {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CartoSlam")
            .field("nodes", &self.nodes.len())
            .field("submaps", &self.submaps.submaps().len())
            .field("closures_found", &self.closures_found)
            .field("tracked", &self.tracked)
            .finish_non_exhaustive()
    }
}

impl CartoSlam {
    /// Books one pipeline stage's wall-clock share into the stage list
    /// surfaced by [`Localizer::diagnostics`]. The list is cleared at the
    /// start of each correction and retains its capacity, so steady-state
    /// corrections append without reallocating.
    fn record_stage(&mut self, name: &'static str, seconds: f64) {
        self.last_stages.push((Cow::Borrowed(name), seconds));
    }

    /// Creates a SLAM instance.
    pub fn new(config: CartoSlamConfig) -> Self {
        let matcher = CorrelativeScanMatcher::new(config.resolution, 0.01);
        Self {
            submaps: SubmapCollection::new(
                config.submap_size_m,
                config.resolution,
                config.scans_per_submap,
            ),
            graph: PoseGraph::new(),
            nodes: Vec::new(),
            submap_anchor_node: Vec::new(),
            matcher,
            refiner: GaussNewtonRefiner::default(),
            tracked: Pose2::IDENTITY,
            last_odom: None,
            last_insert_pose: None,
            nodes_since_closure: 0,
            closures_found: 0,
            tel: Telemetry::disabled(),
            last_match_score: None,
            last_stages: Vec::new(),
            config,
        }
    }

    /// Attaches a telemetry handle: corrections record the `slam.match`,
    /// `slam.insert`, `slam.loop_closure`, `slam.optimize`, and
    /// `slam.correct` spans into it. Survives [`Localizer::reset`].
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// The configuration.
    pub fn config(&self) -> &CartoSlamConfig {
        &self.config
    }

    /// Number of pose-graph nodes created so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of submaps created so far.
    pub fn submap_count(&self) -> usize {
        self.submaps.submaps().len()
    }

    /// Number of accepted loop closures.
    pub fn closure_count(&self) -> usize {
        self.closures_found
    }

    /// The current pose-graph estimate of all scan nodes.
    pub fn trajectory(&self) -> Vec<Pose2> {
        self.nodes
            .iter()
            .map(|n| self.graph.node(n.graph_idx))
            .collect()
    }

    fn downsample(&self, scan: &LaserScan) -> Vec<Point2> {
        let mut points = Vec::new();
        downsample_into(scan, self.config.max_points, &mut points);
        points
    }

    fn try_loop_closure(&mut self) {
        let Some(node) = self.nodes.last() else {
            return;
        };
        let node_pose = self.graph.node(node.graph_idx);
        let sensor_pose = node_pose * self.config.lidar_mount;
        // Match against finished submaps whose anchor is far in the past.
        for (si, submap) in self.submaps.submaps().iter().enumerate() {
            if !submap.is_finished() {
                continue;
            }
            let anchor_node = self.submap_anchor_node[si];
            if node.graph_idx.saturating_sub(anchor_node) < self.config.min_closure_separation {
                continue;
            }
            if submap.anchor().dist(node_pose) > self.config.loop_closure.linear_window {
                continue;
            }
            let bnb = BranchAndBoundMatcher::new(submap.grid(), self.config.loop_closure);
            if let Some(m) = bnb.match_scan(&node.points, sensor_pose) {
                let refined = self.refiner.refine(submap.grid(), &node.points, m.pose);
                let matched_body = refined.pose * self.config.lidar_mount.inverse();
                let anchor_pose = self.graph.node(anchor_node);
                let relative = anchor_pose.relative_to(matched_body);
                self.graph.add_constraint(Constraint::new(
                    anchor_node,
                    node.graph_idx,
                    relative,
                    50.0,
                    200.0,
                ));
                self.closures_found += 1;
            }
        }
        // A closure can only be found once a node exists, so `nodes` is
        // non-empty here; the `if let` keeps the path panic-free regardless.
        if self.closures_found > 0 {
            let Some(newest) = self.nodes.last().map(|n| n.graph_idx) else {
                return;
            };
            let optimize_started = Stopwatch::start();
            let before = self.graph.node(newest);
            self.graph.optimize(10);
            let after = self.graph.node(newest);
            // Propagate the correction of the newest node to the tracked pose.
            let correction = after * before.inverse();
            self.tracked = correction * self.tracked;
            let optimize_seconds = optimize_started.elapsed_seconds();
            self.tel.record_span("slam.optimize", optimize_seconds);
            self.record_stage("optimize", optimize_seconds);
        }
    }

    /// Exports the stitched map of all submaps as a ternary occupancy grid.
    pub fn map(&self) -> OccupancyGrid {
        // Bounding box over submap grids.
        let submaps = self.submaps.submaps();
        let res = self.config.resolution;
        if submaps.is_empty() {
            return OccupancyGrid::new(1, 1, res, Point2::ORIGIN);
        }
        let mut lo = Point2::new(f64::INFINITY, f64::INFINITY);
        let mut hi = Point2::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
        for s in submaps {
            let o = s.grid().origin();
            lo.x = lo.x.min(o.x);
            lo.y = lo.y.min(o.y);
            hi.x = hi.x.max(o.x + s.grid().width() as f64 * res);
            hi.y = hi.y.max(o.y + s.grid().height() as f64 * res);
        }
        let width = ((hi.x - lo.x) / res).ceil() as usize + 1;
        let height = ((hi.y - lo.y) / res).ceil() as usize + 1;
        let mut merged = ProbabilityGrid::new(width, height, res, lo);
        // Merge: average the known probabilities per cell.
        let mut sum = vec![0.0f64; width * height];
        let mut cnt = vec![0u32; width * height];
        for s in submaps {
            let g = s.grid();
            for r in 0..g.height() as i64 {
                for c in 0..g.width() as i64 {
                    let idx = raceloc_map::GridIndex::new(c, r);
                    if !g.is_known(idx) {
                        continue;
                    }
                    let w = g.index_to_world(idx);
                    let midx = merged.world_to_index(w);
                    if midx.col >= 0
                        && midx.row >= 0
                        && (midx.col as usize) < width
                        && (midx.row as usize) < height
                    {
                        let flat = midx.row as usize * width + midx.col as usize;
                        sum[flat] += g.probability(idx);
                        cnt[flat] += 1;
                    }
                }
            }
        }
        for r in 0..height as i64 {
            for c in 0..width as i64 {
                let flat = r as usize * width + c as usize;
                if cnt[flat] > 0 {
                    let idx = raceloc_map::GridIndex::new(c, r);
                    merged.set_probability(idx, sum[flat] / cnt[flat] as f64);
                }
            }
        }
        merged.to_occupancy(0.55, 0.45)
    }
}

impl Localizer for CartoSlam {
    fn predict(&mut self, odom: &Odometry) {
        if let Some(last) = self.last_odom {
            let delta = last.pose.relative_to(odom.pose);
            self.tracked = self.tracked * delta;
        }
        self.last_odom = Some(*odom);
    }

    fn correct(&mut self, scan: &LaserScan) -> Pose2 {
        let points = self.downsample(scan);
        if points.is_empty() {
            return self.tracked;
        }
        let correct_started = Stopwatch::start();
        self.last_stages.clear();
        let sensor_prior = self.tracked * self.config.lidar_mount;
        // Local scan matching against the active submap (if it has data):
        // prior-regularized Gauss–Newton, with the correlative matcher as a
        // rescue when the refined placement scores poorly.
        if let Some(submap) = self.submaps.matching_submap() {
            if submap.scan_count() > 0 {
                let match_started = Stopwatch::start();
                let fine = self.refiner.refine_with_prior(
                    submap.grid(),
                    &points,
                    sensor_prior,
                    sensor_prior,
                    self.config.prior_translation_weight,
                    self.config.prior_rotation_weight,
                );
                let fine = if fine.score < self.config.correlative_rescue_score {
                    let coarse = self.matcher.match_scan(
                        submap.grid(),
                        &points,
                        sensor_prior,
                        self.config.tracking_window,
                    );
                    self.refiner.refine_with_prior(
                        submap.grid(),
                        &points,
                        coarse.pose,
                        sensor_prior,
                        self.config.prior_translation_weight,
                        self.config.prior_rotation_weight,
                    )
                } else {
                    fine
                };
                self.tracked = fine.pose * self.config.lidar_mount.inverse();
                self.last_match_score = Some(fine.score);
                let match_seconds = match_started.elapsed_seconds();
                self.tel.record_span("slam.match", match_seconds);
                self.record_stage("match", match_seconds);
            }
        }
        // Motion filter: only insert when the car moved enough.
        let insert = match self.last_insert_pose {
            None => true,
            Some(prev) => {
                prev.dist(self.tracked) >= self.config.motion_min_dist
                    || prev.heading_dist(self.tracked) >= self.config.motion_min_angle
            }
        };
        if insert {
            let insert_started = Stopwatch::start();
            let sensor_pose = self.tracked * self.config.lidar_mount;
            let n_submaps_before = self.submaps.submaps().len();
            self.submaps.insert(sensor_pose, scan);
            // Register anchors of any newly created submap.
            for _ in n_submaps_before..self.submaps.submaps().len() {
                let anchor_node = self.graph.len().saturating_sub(1);
                self.submap_anchor_node.push(anchor_node);
            }
            let graph_idx = self.graph.add_node(self.tracked);
            if graph_idx > 0 {
                let prev_pose = self.graph.node(graph_idx - 1);
                self.graph.add_constraint(Constraint::new(
                    graph_idx - 1,
                    graph_idx,
                    prev_pose.relative_to(self.tracked),
                    100.0,
                    400.0,
                ));
            }
            self.nodes.push(NodeData { graph_idx, points });
            self.last_insert_pose = Some(self.tracked);
            self.nodes_since_closure += 1;
            let insert_seconds = insert_started.elapsed_seconds();
            self.tel.record_span("slam.insert", insert_seconds);
            self.record_stage("insert", insert_seconds);
            if self.nodes_since_closure >= self.config.loop_closure_every {
                self.nodes_since_closure = 0;
                let closure_started = Stopwatch::start();
                self.try_loop_closure();
                let closure_seconds = closure_started.elapsed_seconds();
                self.tel.record_span("slam.loop_closure", closure_seconds);
                self.record_stage("loop_closure", closure_seconds);
            }
        }
        self.tel
            .record_span("slam.correct", correct_started.elapsed_seconds());
        self.tracked
    }

    fn pose(&self) -> Pose2 {
        self.tracked
    }

    fn reset(&mut self, pose: Pose2) {
        let config = self.config.clone();
        let tel = self.tel.clone();
        *self = CartoSlam::new(config);
        self.tel = tel;
        self.tracked = pose;
    }

    fn name(&self) -> &str {
        "carto-slam"
    }

    fn diagnostics(&self) -> Diagnostics {
        Diagnostics {
            particles: Some(1),
            match_score: self.last_match_score,
            stages: self.last_stages.clone(),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raceloc_core::Twist2;
    use raceloc_map::{CellState, TrackShape, TrackSpec};
    use raceloc_range::{RangeMethod, RayMarching};

    /// Drives ground truth along the track centerline, generating noiseless
    /// odometry and scans, and feeds them to the SLAM.
    fn run_slam_on_track(steps: usize) -> (CartoSlam, Vec<Pose2>, Vec<Pose2>) {
        let track = TrackSpec::new(TrackShape::Oval {
            width: 10.0,
            height: 6.0,
        })
        .resolution(0.1)
        .build();
        let caster = RayMarching::new(&track.grid, 10.0);
        let mut slam = CartoSlam::new(CartoSlamConfig {
            resolution: 0.1,
            max_points: 90,
            scans_per_submap: 20,
            ..CartoSlamConfig::default()
        });
        let path = &track.centerline;
        let ds = 0.12;
        let start = Pose2::from_point(path.point_at(0.0), path.heading_at(0.0));
        slam.reset(start);
        let mut truths = Vec::new();
        let mut estimates = Vec::new();
        let mut odom_pose = Pose2::IDENTITY;
        let mount = slam.config().lidar_mount;
        for i in 0..steps {
            let s = i as f64 * ds;
            let truth = Pose2::from_point(path.point_at(s), path.heading_at(s));
            if i > 0 {
                let prev = Pose2::from_point(path.point_at(s - ds), path.heading_at(s - ds));
                let delta = prev.relative_to(truth);
                odom_pose = odom_pose * delta;
            }
            slam.predict(&Odometry::new(
                odom_pose,
                Twist2::new(ds / 0.05, 0.0, 0.0),
                i as f64 * 0.05,
            ));
            // Noiseless scan from the truth pose.
            let sensor = truth * mount;
            let beams = 120;
            let fov = 270.0f64.to_radians();
            let inc = fov / (beams - 1) as f64;
            let ranges: Vec<f64> = (0..beams)
                .map(|b| {
                    caster.range(
                        sensor.x,
                        sensor.y,
                        sensor.theta - 0.5 * fov + b as f64 * inc,
                    )
                })
                .collect();
            let scan = raceloc_core::LaserScan::new(-0.5 * fov, inc, ranges, 10.0);
            let est = slam.correct(&scan);
            truths.push(truth);
            estimates.push(est);
        }
        (slam, truths, estimates)
    }

    #[test]
    fn tracks_centerline_with_good_odometry() {
        let (_slam, truths, estimates) = run_slam_on_track(120);
        // SLAM without a closed loop accumulates bounded drift; over the
        // ~14 m of this run the estimate must stay within grid-scale error.
        let final_err = truths
            .last()
            .expect("non-empty")
            .dist(*estimates.last().expect("non-empty"));
        assert!(final_err < 0.7, "final error {final_err}");
        let mean: f64 = truths
            .iter()
            .zip(&estimates)
            .map(|(t, e)| t.dist(*e))
            .sum::<f64>()
            / truths.len() as f64;
        assert!(mean < 0.3, "mean error {mean}");
    }

    #[test]
    fn builds_submaps_and_nodes() {
        let (slam, _, _) = run_slam_on_track(120);
        assert!(slam.node_count() > 50, "nodes {}", slam.node_count());
        assert!(slam.submap_count() >= 2, "submaps {}", slam.submap_count());
        assert_eq!(slam.trajectory().len(), slam.node_count());
    }

    #[test]
    fn map_export_contains_track_walls() {
        let (slam, truths, _) = run_slam_on_track(150);
        let map = slam.map();
        let (_, occ, _) = map.census();
        assert!(occ > 100, "occupied cells {occ}");
        // The traversed poses must be free in the exported map.
        let mut free_hits = 0;
        for t in truths.iter().step_by(10) {
            if map.state_at_world(t.translation()) == CellState::Free {
                free_hits += 1;
            }
        }
        assert!(
            free_hits * 10 >= truths.len() / 2,
            "trajectory not free in map"
        );
    }

    #[test]
    fn motion_filter_limits_node_rate() {
        let (slam, truths, _) = run_slam_on_track(100);
        // 100 scans, 0.12 m apart, min insert distance 0.1 → roughly one
        // node per scan is allowed here, but never more than scans.
        assert!(slam.node_count() <= truths.len());
        assert!(slam.node_count() >= truths.len() / 3);
    }

    #[test]
    fn reset_clears_state() {
        let (mut slam, _, _) = run_slam_on_track(60);
        assert!(slam.node_count() > 0);
        slam.reset(Pose2::new(1.0, 2.0, 0.3));
        assert_eq!(slam.node_count(), 0);
        assert_eq!(slam.submap_count(), 0);
        assert_eq!(slam.pose(), Pose2::new(1.0, 2.0, 0.3));
    }

    #[test]
    fn empty_scan_keeps_pose() {
        let mut slam = CartoSlam::new(CartoSlamConfig::default());
        slam.reset(Pose2::new(1.0, 1.0, 0.0));
        let est = slam.correct(&raceloc_core::LaserScan::new(0.0, 0.1, vec![], 10.0));
        assert_eq!(est, Pose2::new(1.0, 1.0, 0.0));
    }

    #[test]
    fn telemetry_and_diagnostics_cover_pipeline_stages() {
        let tel = Telemetry::enabled();
        let track = TrackSpec::new(TrackShape::Oval {
            width: 10.0,
            height: 6.0,
        })
        .resolution(0.1)
        .build();
        let caster = RayMarching::new(&track.grid, 10.0);
        let mut slam = CartoSlam::new(CartoSlamConfig {
            resolution: 0.1,
            max_points: 90,
            scans_per_submap: 20,
            ..CartoSlamConfig::default()
        });
        let path = &track.centerline;
        let start = Pose2::from_point(path.point_at(0.0), path.heading_at(0.0));
        slam.set_telemetry(tel.clone());
        slam.reset(start); // telemetry must survive the reset
        let mount = slam.config().lidar_mount;
        let mut odom_pose = Pose2::IDENTITY;
        let ds = 0.12;
        for i in 0..30 {
            let s = i as f64 * ds;
            let truth = Pose2::from_point(path.point_at(s), path.heading_at(s));
            if i > 0 {
                let prev = Pose2::from_point(path.point_at(s - ds), path.heading_at(s - ds));
                odom_pose = odom_pose * prev.relative_to(truth);
            }
            slam.predict(&Odometry::new(odom_pose, Twist2::ZERO, i as f64 * 0.05));
            let sensor = truth * mount;
            let beams = 120;
            let fov = 270.0f64.to_radians();
            let inc = fov / (beams - 1) as f64;
            let ranges: Vec<f64> = (0..beams)
                .map(|b| {
                    caster.range(
                        sensor.x,
                        sensor.y,
                        sensor.theta - 0.5 * fov + b as f64 * inc,
                    )
                })
                .collect();
            slam.correct(&raceloc_core::LaserScan::new(-0.5 * fov, inc, ranges, 10.0));
        }
        let snap = tel.snapshot();
        assert!(snap.span("slam.correct").expect("correct span").count >= 30);
        assert!(snap.span("slam.match").expect("match span").count >= 1);
        assert!(snap.span("slam.insert").expect("insert span").count >= 1);
        let d = slam.diagnostics();
        assert!(d.match_score.is_some());
        assert!(d.stage("match").is_some() || d.stage("insert").is_some());
    }
}
