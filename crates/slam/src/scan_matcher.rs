//! Scan-to-grid matching: real-time correlative search plus Gauss–Newton
//! refinement (the "local SLAM" front-end of Hess et al., ICRA 2016).

use crate::probgrid::ProbabilityGrid;
use raceloc_core::sensor_data::LaserScan;
use raceloc_core::{Point2, Pose2};

/// Fills `out` with at most `max_points` sensor-frame points of `scan`:
/// every valid return when they fit, otherwise the valid returns at
/// positions `⌊i · valid / max_points⌋`. Only the picked returns are
/// converted, and `out` keeps its capacity between calls.
pub(crate) fn downsample_into(scan: &LaserScan, max_points: usize, out: &mut Vec<Point2>) {
    out.clear();
    let valid = scan.valid_returns().count();
    if valid <= max_points {
        out.extend(scan.valid_returns().map(LaserScan::return_point));
        return;
    }
    let stride = valid as f64 / max_points as f64;
    // Strictly increasing because the stride exceeds 1.
    let mut picks = (0..max_points)
        .map(|i| (i as f64 * stride) as usize)
        .peekable();
    out.extend(
        scan.valid_returns()
            .enumerate()
            .filter(|&(k, _)| picks.next_if_eq(&k).is_some())
            .map(|(_, ret)| LaserScan::return_point(ret)),
    );
}

/// The outcome of a scan match.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchResult {
    /// The matched sensor pose in the grid's world frame.
    pub pose: Pose2,
    /// Mean per-point probability of the matched placement, in `[0, 1]`.
    pub score: f64,
}

/// The search window of the correlative matcher.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchWindow {
    /// Half-extent of the translational search in x and y \[m\].
    pub linear: f64,
    /// Half-extent of the rotational search \[rad\].
    pub angular: f64,
}

impl SearchWindow {
    /// A window sized for frame-to-frame tracking with a decent odometry
    /// prior (what Cartographer's real-time matcher uses).
    pub fn tracking() -> Self {
        Self {
            linear: 0.25,
            angular: 0.1,
        }
    }

    /// A wide window for loop closure / relocalization.
    pub fn loop_closure() -> Self {
        Self {
            linear: 3.0,
            angular: 0.6,
        }
    }
}

/// Exhaustive correlative scan matcher: scores every pose in a discretized
/// window and returns the best (Olson 2009; used by Cartographer both as
/// the real-time matcher and, via branch-and-bound, for loop closure).
///
/// The search is separable: a point's grid column depends only on the
/// candidate's x offset and its row only on the y offset, so both are
/// tabulated once per angle and each candidate only sums cell reads
/// (DESIGN.md, "Separable correlative search"). The tables live in
/// buffers the matcher keeps between calls.
#[derive(Debug, Clone)]
pub struct CorrelativeScanMatcher {
    /// Translational step \[m\] (usually the grid resolution).
    pub linear_step: f64,
    /// Rotational step \[rad\].
    pub angular_step: f64,
    /// The window's translational offsets `i · linear_step`, in search
    /// order; `span` of them.
    offsets: Vec<f64>,
    /// World x of every point placed at the current angle.
    xs: Vec<f64>,
    /// World y of every point placed at the current angle.
    ys: Vec<f64>,
    /// `cols[ix * n + j]`: grid column of point `j` shifted by the
    /// `ix`-th x offset, or `width · height` off the grid.
    cols: Vec<usize>,
    /// `rows[iy * n + j]`: flat offset (`row · width`) of point `j`'s
    /// row shifted by the `iy`-th y offset, or `width · height` off the
    /// grid.
    rows: Vec<usize>,
    /// `totals[iy]`: the summed cell reads of the current angle's
    /// candidate at the current x offset and the `iy`-th y offset.
    totals: Vec<f64>,
}

impl CorrelativeScanMatcher {
    /// Creates a matcher with the given discretization.
    ///
    /// # Panics
    ///
    /// Panics when either step is not positive.
    pub fn new(linear_step: f64, angular_step: f64) -> Self {
        assert!(
            linear_step > 0.0 && angular_step > 0.0,
            "matcher steps must be positive"
        );
        Self {
            linear_step,
            angular_step,
            offsets: Vec::new(),
            xs: Vec::new(),
            ys: Vec::new(),
            cols: Vec::new(),
            rows: Vec::new(),
            totals: Vec::new(),
        }
    }

    /// Scores a placement: mean occupancy probability under the scan's
    /// points transformed by `pose`.
    pub fn score(grid: &ProbabilityGrid, points: &[Point2], pose: Pose2) -> f64 {
        if points.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for &p in points {
            let w = pose.transform(p);
            total += grid.probability(grid.world_to_index(w));
        }
        total / points.len() as f64
    }

    /// Searches the window around `initial` for the best placement of the
    /// sensor-frame `points`.
    ///
    /// Candidates are visited angle-major, then by x and y offset, and
    /// replace the best only on a strictly higher score. Each point is
    /// placed at `initial` once per angle and then shifted by the
    /// candidate's offsets, so the result is bit-identical to indexing
    /// every point afresh for every candidate with that arithmetic. A
    /// negative window extent searches as zero.
    pub fn match_scan(
        &mut self,
        grid: &ProbabilityGrid,
        points: &[Point2],
        initial: Pose2,
        window: SearchWindow,
    ) -> MatchResult {
        let mut best = MatchResult {
            pose: initial,
            score: Self::score(grid, points, initial),
        };
        if points.is_empty() {
            return best;
        }
        let n_ang = ((window.angular / self.angular_step).ceil() as i64).max(0);
        let n_lin = ((window.linear / self.linear_step).ceil() as i64).max(0);
        let n = points.len();
        let origin = grid.origin();
        let res = grid.resolution();
        let (width, height) = (grid.width(), grid.height());
        self.offsets.clear();
        self.offsets
            .extend((-n_lin..=n_lin).map(|i| i as f64 * self.linear_step));
        let span = self.offsets.len();
        // A valid row offset plus a valid column is below `width · height`;
        // either marker pushes the sum to or past it, and the read clamps
        // it onto the trailing cell, which reads 0.5 just as `probability`
        // does off the grid.
        let off_grid = grid.off_grid();
        // Sliced so the compiler sees that every clamped index is in bounds.
        let cells = &grid.read_table()[..=off_grid];
        self.xs.resize(n, 0.0);
        self.ys.resize(n, 0.0);
        self.cols.resize(span * n, 0);
        self.rows.resize(span * n, 0);
        self.totals.resize(span, 0.0);
        for ia in -n_ang..=n_ang {
            let theta = initial.theta + ia as f64 * self.angular_step;
            // Rotate (and translate by the initial position) once per
            // angle, then tabulate every shifted column and row.
            let base = Pose2::new(initial.x, initial.y, theta);
            for ((x, y), &p) in self.xs.iter_mut().zip(&mut self.ys).zip(points) {
                let w = base.transform(p);
                (*x, *y) = (w.x, w.y);
            }
            let tables = self
                .cols
                .chunks_exact_mut(n)
                .zip(self.rows.chunks_exact_mut(n));
            for ((cols, rows), &d) in tables.zip(&self.offsets) {
                tabulate(cols, &self.xs, d, origin.x, res, width, 1, off_grid);
                tabulate(rows, &self.ys, d, origin.y, res, height, width, off_grid);
            }
            for (kx, &dx) in self.offsets.iter().enumerate() {
                // All `span` candidates of this x offset accumulate side by
                // side, each over the points in order.
                self.totals.fill(0.0);
                for (j, &col) in self.cols[kx * n..][..n].iter().enumerate() {
                    for (total, rows) in self.totals.iter_mut().zip(self.rows.chunks_exact(n)) {
                        *total += f64::from(cells[(rows[j] + col).min(off_grid)]);
                    }
                }
                for (&total, &dy) in self.totals.iter().zip(&self.offsets) {
                    let score = total / n as f64;
                    if score > best.score {
                        best = MatchResult {
                            pose: Pose2::new(initial.x + dx, initial.y + dy, theta),
                            score,
                        };
                    }
                }
            }
        }
        best
    }
}

/// 2⁵²: adding it to an integer-valued f64 in `[0, 2⁵²)` leaves that
/// integer in the low mantissa bits.
const TWO_52: f64 = 4_503_599_627_370_496.0;

/// Fills `out[j]` with `scale · ⌊(vs[j] + d − o) / res⌋`, or `off_grid`
/// where that cell index leaves `0..cells`, as `world_to_index` computes
/// it. The bounds are tested on the floored value, which equals testing
/// its `i64` cast: a NaN casts to 0, so it counts as inside and `max`
/// maps it to 0. The integer is read from the mantissa rather than by a
/// saturating cast, so the loop stays in vector registers.
#[allow(clippy::too_many_arguments)]
#[inline]
fn tabulate(
    out: &mut [usize],
    vs: &[f64],
    d: f64,
    o: f64,
    res: f64,
    cells: usize,
    scale: usize,
    off_grid: usize,
) {
    let (cells, scale, off_grid) = (cells as f64, scale as f64, off_grid as f64);
    for (slot, &v) in out.iter_mut().zip(vs) {
        let i = ((v + d - o) / res).floor();
        let inside = i.is_nan() || (i >= 0.0 && i < cells);
        let index = if inside { i.max(0.0) * scale } else { off_grid };
        *slot = ((index + TWO_52).to_bits() - TWO_52.to_bits()) as usize;
    }
}

/// Gauss–Newton scan refiner: polishes a pose to sub-cell accuracy by
/// maximizing the bilinearly interpolated occupancy under the scan points
/// (the role Ceres plays in Cartographer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussNewtonRefiner {
    /// Maximum iterations.
    pub max_iterations: usize,
    /// Convergence threshold on the update norm.
    pub epsilon: f64,
    /// Levenberg damping added to the normal equations' diagonal.
    pub damping: f64,
}

impl Default for GaussNewtonRefiner {
    fn default() -> Self {
        Self {
            max_iterations: 12,
            epsilon: 1e-5,
            damping: 1e-4,
        }
    }
}

impl GaussNewtonRefiner {
    /// Refines `initial` against the grid; returns the polished pose and its
    /// final mean-probability score.
    pub fn refine(&self, grid: &ProbabilityGrid, points: &[Point2], initial: Pose2) -> MatchResult {
        self.refine_with_prior(grid, points, initial, initial, 0.0, 0.0)
    }

    /// Refines `initial` with additional penalty terms pulling the solution
    /// toward `prior` — the translation/rotation regularizers of
    /// Cartographer's Ceres scan matcher. `translation_weight` has units of
    /// residual-per-meter, `rotation_weight` residual-per-radian, comparable
    /// to the per-point occupancy residuals in `[0, 1]`.
    pub fn refine_with_prior(
        &self,
        grid: &ProbabilityGrid,
        points: &[Point2],
        initial: Pose2,
        prior: Pose2,
        translation_weight: f64,
        rotation_weight: f64,
    ) -> MatchResult {
        use raceloc_core::linalg::{Mat3, Vec3};
        let mut pose = initial;
        if points.is_empty() {
            return MatchResult { pose, score: 0.0 };
        }
        for _ in 0..self.max_iterations {
            let (s, c) = pose.theta.sin_cos();
            let mut h = Mat3::ZERO;
            let mut b = Vec3::ZERO;
            for &p in points {
                let w = pose.transform(p);
                let (prob, ddx, ddy) = grid.probability_with_gradient(w);
                let r = 1.0 - prob;
                // d(world)/dθ for the point.
                let dwx_dt = -s * p.x - c * p.y;
                let dwy_dt = c * p.x - s * p.y;
                // Jacobian of the residual r = 1 − P(w(ξ)).
                let j = [-ddx, -ddy, -(ddx * dwx_dt + ddy * dwy_dt)];
                for (i, ji) in j.iter().enumerate() {
                    b[i] -= ji * r;
                    for (k, jk) in j.iter().enumerate() {
                        h.0[i][k] += ji * jk;
                    }
                }
            }
            // Prior penalties: residuals w·(ξ − ξ_prior) per dimension.
            // The occupancy term sums n squared-gradients, so scaling the
            // prior weight by √n keeps the relative strength independent of
            // the number of points used.
            let n = points.len() as f64;
            let tw = translation_weight * n.sqrt();
            let rw = rotation_weight * n.sqrt();
            if tw > 0.0 {
                h.0[0][0] += tw * tw;
                h.0[1][1] += tw * tw;
                b[0] -= tw * tw * (pose.x - prior.x);
                b[1] -= tw * tw * (pose.y - prior.y);
            }
            if rw > 0.0 {
                h.0[2][2] += rw * rw;
                b[2] -= rw * rw * raceloc_core::angle::diff(pose.theta, prior.theta);
            }
            for i in 0..3 {
                h.0[i][i] += self.damping;
            }
            let Some(hinv) = h.inverse() else { break };
            let step = hinv.mul_vec(b);
            pose = Pose2::new(pose.x + step[0], pose.y + step[1], pose.theta + step[2]);
            if step.norm() < self.epsilon {
                break;
            }
        }
        MatchResult {
            pose,
            score: CorrelativeScanMatcher::score(grid, points, pose),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use raceloc_map::GridIndex;

    /// The unfactored search the separable kernel replaced: every
    /// candidate transforms and indexes every point itself. Kept as the
    /// bitwise oracle of [`CorrelativeScanMatcher::match_scan`].
    fn match_scan_reference(
        m: &CorrelativeScanMatcher,
        grid: &ProbabilityGrid,
        points: &[Point2],
        initial: Pose2,
        window: SearchWindow,
    ) -> MatchResult {
        let mut best = MatchResult {
            pose: initial,
            score: CorrelativeScanMatcher::score(grid, points, initial),
        };
        if points.is_empty() {
            return best;
        }
        let n_ang = (window.angular / m.angular_step).ceil() as i64;
        let n_lin = (window.linear / m.linear_step).ceil() as i64;
        for ia in -n_ang..=n_ang {
            let theta = initial.theta + ia as f64 * m.angular_step;
            let base = Pose2::new(initial.x, initial.y, theta);
            let rotated: Vec<Point2> = points.iter().map(|&p| base.transform(p)).collect();
            for ix in -n_lin..=n_lin {
                let dx = ix as f64 * m.linear_step;
                for iy in -n_lin..=n_lin {
                    let dy = iy as f64 * m.linear_step;
                    let mut total = 0.0;
                    for &w in &rotated {
                        let q = Point2::new(w.x + dx, w.y + dy);
                        total += grid.probability(grid.world_to_index(q));
                    }
                    let score = total / points.len() as f64;
                    if score > best.score {
                        best = MatchResult {
                            pose: Pose2::new(initial.x + dx, initial.y + dy, theta),
                            score,
                        };
                    }
                }
            }
        }
        best
    }

    fn assert_bitwise_eq(got: MatchResult, want: MatchResult) {
        let bits = |r: MatchResult| {
            [
                r.pose.x.to_bits(),
                r.pose.y.to_bits(),
                r.pose.theta.to_bits(),
                r.score.to_bits(),
            ]
        };
        assert_eq!(bits(got), bits(want), "{got:?} vs {want:?}");
    }

    /// A 40 × 30 grid at `res` whose cells are a random mix of hit, missed
    /// and never-observed (unknown) ones.
    fn random_grid(res: f64, hits: &[(i64, i64)], misses: &[(i64, i64)]) -> ProbabilityGrid {
        let mut g = ProbabilityGrid::new(40, 30, res, Point2::new(-1.0, -0.75));
        for &(c, r) in hits {
            g.apply_hit(GridIndex::new(c, r));
        }
        for &(c, r) in misses {
            g.apply_miss(GridIndex::new(c, r));
        }
        g
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The separable kernel returns the reference search's result bit
        /// for bit: random grids with unknown cells, initial poses near
        /// and beyond the grid edge (so windows cross it), and linear steps
        /// on and off the resolution. One matcher serves every case, so
        /// its tables are reused across window and point-count changes.
        #[test]
        fn separable_search_matches_the_reference_bitwise(
            hits in prop::collection::vec((0i64..40, 0i64..30), 0..400),
            misses in prop::collection::vec((0i64..40, 0i64..30), 0..300),
            points in prop::collection::vec((-1.5..1.5f64, -1.5..1.5f64), 0..50),
            (x, y, theta) in (-1.4..1.4f64, -1.1..1.1f64, -3.2..3.2f64),
            (res, linear_step) in prop_oneof![
                Just((0.05, 0.05)),
                Just((0.05, 0.03)),
                Just((0.05, 0.07)),
                Just((0.04, 0.05)),
            ],
            (linear, angular) in (0.0..0.3f64, 0.0..0.12f64),
        ) {
            let grid = random_grid(res, &hits, &misses);
            let points: Vec<Point2> = points.iter().map(|&(px, py)| Point2::new(px, py)).collect();
            let initial = Pose2::new(x, y, theta);
            let window = SearchWindow { linear, angular };
            let mut m = CorrelativeScanMatcher::new(linear_step, 0.015);
            let want = match_scan_reference(&m, &grid, &points, initial, window);
            assert_bitwise_eq(m.match_scan(&grid, &points, initial, window), want);
            // A second search on the same matcher reuses its tables.
            let shifted = Pose2::new(y, x, -theta);
            let want = match_scan_reference(&m, &grid, &points, shifted, window);
            assert_bitwise_eq(m.match_scan(&grid, &points, shifted, window), want);
        }

        /// The same bitwise agreement on the wide loop-closure window,
        /// whose x and y offsets reach far past every grid edge.
        #[test]
        fn separable_search_matches_the_reference_on_the_loop_closure_window(
            hits in prop::collection::vec((0i64..40, 0i64..30), 0..400),
            points in prop::collection::vec((-1.5..1.5f64, -1.5..1.5f64), 1..12),
            (x, y, theta) in (-1.0..1.0f64, -0.8..0.8f64, -3.2..3.2f64),
        ) {
            let grid = random_grid(0.05, &hits, &[]);
            let points: Vec<Point2> = points.iter().map(|&(px, py)| Point2::new(px, py)).collect();
            let initial = Pose2::new(x, y, theta);
            let mut m = CorrelativeScanMatcher::new(0.05, 0.1);
            let want = match_scan_reference(&m, &grid, &points, initial, SearchWindow::loop_closure());
            let got = m.match_scan(&grid, &points, initial, SearchWindow::loop_closure());
            assert_bitwise_eq(got, want);
        }

        /// The picking downsampler yields exactly the points that
        /// converting every return and taking the strided copy did.
        #[test]
        fn downsample_matches_convert_then_stride_bitwise(
            ranges in prop::collection::vec(
                prop_oneof![Just(0.0), Just(10.0), Just(f64::INFINITY), 0.05..9.9f64],
                0..300,
            ),
            max_points in 0usize..150,
        ) {
            let scan = LaserScan::new(-2.35, 0.0174, ranges, 10.0);
            let all = scan.to_points();
            let want: Vec<Point2> = if all.len() <= max_points {
                all
            } else {
                let stride = all.len() as f64 / max_points as f64;
                (0..max_points).map(|i| all[(i as f64 * stride) as usize]).collect()
            };
            let mut got = vec![Point2::new(7.0, 7.0); 3];
            downsample_into(&scan, max_points, &mut got);
            let bits = |v: &[Point2]| -> Vec<(u64, u64)> {
                v.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect()
            };
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    /// On the room map the kernel and the reference agree bit for bit with
    /// the pure localizer's default window, from the true pose, from
    /// priors a few cells off, and from a prior whose window crosses the
    /// grid edge, with linear steps on and off the resolution.
    #[test]
    fn separable_search_matches_the_reference_on_the_room() {
        let g = room_grid();
        let pts = scan_points(Pose2::new(0.15, -0.1, 0.05));
        let window = SearchWindow {
            linear: 0.22,
            angular: 0.09,
        };
        for linear_step in [0.03, 0.05, 0.07] {
            let mut m = CorrelativeScanMatcher::new(linear_step, 0.015);
            for initial in [
                Pose2::IDENTITY,
                Pose2::new(0.15, -0.1, 0.05),
                Pose2::new(-0.3, 0.2, -0.1),
                // The walls sit 2 m from the centre and the grid edge 3 m:
                // from 0.9 m off, the walls on that side land within a
                // window of the edge.
                Pose2::new(0.9, -0.95, 0.02),
            ] {
                let want = match_scan_reference(&m, &g, &pts, initial, window);
                assert_bitwise_eq(m.match_scan(&g, &pts, initial, window), want);
            }
        }
    }

    /// A negative extent searches as zero: a fully negative window scores
    /// the prior alone, and a negative linear extent still turns through
    /// the angular window at the prior's position.
    #[test]
    fn negative_window_searches_as_zero() {
        let g = room_grid();
        let pts = scan_points(Pose2::new(0.0, 0.0, 0.06));
        let mut m = CorrelativeScanMatcher::new(0.05, 0.015);
        let prior = Pose2::new(0.12, -0.07, 0.0);
        let r = m.match_scan(
            &g,
            &pts,
            prior,
            SearchWindow {
                linear: -0.3,
                angular: -0.2,
            },
        );
        let want = MatchResult {
            pose: prior,
            score: CorrelativeScanMatcher::score(&g, &pts, prior),
        };
        assert_bitwise_eq(r, want);
        let turn_only = |linear| SearchWindow {
            linear,
            angular: 0.09,
        };
        let got = m.match_scan(&g, &pts, prior, turn_only(-0.06));
        let want = match_scan_reference(&m, &g, &pts, prior, turn_only(0.0));
        assert_bitwise_eq(got, want);
        assert_ne!(got.pose.theta, prior.theta, "the turn was searched");
    }

    /// Builds a probability grid of a square room by inserting noiseless
    /// scans from the center.
    fn room_grid() -> ProbabilityGrid {
        let mut g = ProbabilityGrid::new(120, 120, 0.05, Point2::new(-3.0, -3.0));
        let pose = Pose2::IDENTITY;
        let scan = synthetic_scan(pose);
        for _ in 0..8 {
            g.insert_scan(pose, &scan);
        }
        g
    }

    /// A noiseless 180-beam scan of the 4 m × 4 m room centred at origin,
    /// taken from `pose` (analytic ray-box intersection).
    fn synthetic_scan(pose: Pose2) -> LaserScan {
        let beams = 180;
        let inc = std::f64::consts::TAU / beams as f64;
        let half = 2.0;
        let ranges: Vec<f64> = (0..beams)
            .map(|i| {
                let a = pose.theta - std::f64::consts::PI + i as f64 * inc;
                let (s, c) = a.sin_cos();
                // Distance from pose to the axis-aligned box walls.
                let tx = if c > 1e-9 {
                    (half - pose.x) / c
                } else if c < -1e-9 {
                    (-half - pose.x) / c
                } else {
                    f64::INFINITY
                };
                let ty = if s > 1e-9 {
                    (half - pose.y) / s
                } else if s < -1e-9 {
                    (-half - pose.y) / s
                } else {
                    f64::INFINITY
                };
                tx.min(ty)
            })
            .collect();
        LaserScan::new(-std::f64::consts::PI, inc, ranges, 10.0)
    }

    fn scan_points(pose: Pose2) -> Vec<Point2> {
        synthetic_scan(pose).to_points()
    }

    #[test]
    fn score_is_high_at_truth_low_far_away() {
        let g = room_grid();
        let pts = scan_points(Pose2::IDENTITY);
        let at_truth = CorrelativeScanMatcher::score(&g, &pts, Pose2::IDENTITY);
        let off = CorrelativeScanMatcher::score(&g, &pts, Pose2::new(0.5, 0.3, 0.2));
        assert!(at_truth > 0.7, "{at_truth}");
        assert!(at_truth > off + 0.2, "{at_truth} vs {off}");
    }

    #[test]
    fn correlative_recovers_translation() {
        let g = room_grid();
        let mut m = CorrelativeScanMatcher::new(0.05, 0.02);
        // The scan was really taken from (0.15, -0.1); start the search at
        // the origin.
        let true_pose = Pose2::new(0.15, -0.1, 0.0);
        let pts = scan_points(true_pose);
        let result = m.match_scan(&g, &pts, Pose2::IDENTITY, SearchWindow::tracking());
        assert!(
            result.pose.dist(true_pose) < 0.08,
            "matched {} truth {}",
            result.pose,
            true_pose
        );
    }

    #[test]
    fn correlative_recovers_rotation() {
        let g = room_grid();
        let mut m = CorrelativeScanMatcher::new(0.05, 0.02);
        let true_pose = Pose2::new(0.0, 0.0, 0.08);
        let pts = scan_points(true_pose);
        let result = m.match_scan(&g, &pts, Pose2::IDENTITY, SearchWindow::tracking());
        assert!(
            result.pose.heading_dist(true_pose) < 0.03,
            "matched θ {}",
            result.pose.theta
        );
    }

    #[test]
    fn empty_points_return_initial() {
        let g = room_grid();
        let mut m = CorrelativeScanMatcher::new(0.05, 0.02);
        let init = Pose2::new(1.0, 1.0, 1.0);
        let r = m.match_scan(&g, &[], init, SearchWindow::tracking());
        assert_eq!(r.pose, init);
        assert_eq!(r.score, 0.0);
    }

    #[test]
    fn refiner_polishes_subcell_offsets() {
        let g = room_grid();
        let refiner = GaussNewtonRefiner::default();
        let true_pose = Pose2::new(0.02, -0.017, 0.008);
        let pts = scan_points(true_pose);
        let r = refiner.refine(&g, &pts, Pose2::IDENTITY);
        // The map's walls are quantized to 5 cm cells, so the attainable
        // accuracy is about half a cell.
        assert!(
            r.pose.dist(true_pose) < 0.04,
            "refined {} truth {}",
            r.pose,
            true_pose
        );
        assert!(r.pose.heading_dist(true_pose) < 0.02);
    }

    #[test]
    fn refiner_improves_correlative_result() {
        let g = room_grid();
        let mut m = CorrelativeScanMatcher::new(0.05, 0.02);
        let refiner = GaussNewtonRefiner::default();
        let true_pose = Pose2::new(0.13, 0.07, -0.04);
        let pts = scan_points(true_pose);
        let coarse = m.match_scan(&g, &pts, Pose2::IDENTITY, SearchWindow::tracking());
        let fine = refiner.refine(&g, &pts, coarse.pose);
        // The refiner maximizes the map score; with cell-quantized walls the
        // score optimum may sit a fraction of a cell away from the true
        // pose, so assert on the score and near-truth distance instead.
        assert!(
            fine.score >= coarse.score - 0.02,
            "refinement lowered the score: {} -> {}",
            coarse.score,
            fine.score
        );
        assert!(fine.pose.dist(true_pose) < 0.08);
    }

    #[test]
    fn refiner_empty_points_benign() {
        let g = room_grid();
        let r = GaussNewtonRefiner::default().refine(&g, &[], Pose2::IDENTITY);
        assert_eq!(r.pose, Pose2::IDENTITY);
    }

    #[test]
    #[should_panic(expected = "steps must be positive")]
    fn zero_step_panics() {
        CorrelativeScanMatcher::new(0.0, 0.1);
    }
}
