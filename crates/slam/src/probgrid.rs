//! Probability grids: the submap representation of Cartographer-style SLAM.
//!
//! Each cell stores the probability that it is occupied, updated through
//! odds multiplication with per-observation hit/miss factors (Hess et al.,
//! ICRA 2016 §IV). Unknown cells carry no information until first observed:
//! they read as 0.5, and a separate mask records which cells have been.

use raceloc_core::{Point2, Pose2};
use raceloc_map::{CellState, GridIndex, OccupancyGrid};

/// Occupancy probability assigned on a LiDAR hit.
pub const P_HIT: f64 = 0.63;
/// Occupancy probability assigned on a LiDAR pass-through (miss).
pub const P_MISS: f64 = 0.46;
/// Clamping bounds of the stored probability.
pub const P_MIN: f64 = 0.12;
/// Upper clamping bound of the stored probability.
pub const P_MAX: f64 = 0.97;

#[inline]
fn odds(p: f64) -> f64 {
    p / (1.0 - p)
}

#[inline]
fn from_odds(o: f64) -> f64 {
    o / (1.0 + o)
}

/// A fixed-extent 2-D probability grid.
///
/// # Examples
///
/// ```
/// use raceloc_slam::ProbabilityGrid;
/// use raceloc_core::Point2;
///
/// let mut grid = ProbabilityGrid::new(100, 100, 0.05, Point2::ORIGIN);
/// let idx = grid.world_to_index(Point2::new(2.0, 2.0));
/// grid.apply_hit(idx);
/// assert!(grid.probability(idx) > 0.6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProbabilityGrid {
    width: usize,
    height: usize,
    resolution: f64,
    origin: Point2,
    /// The value each cell reads as, row-major: its probability, or 0.5
    /// while never observed. One trailing cell past the grid also reads
    /// 0.5; every off-grid read lands on it.
    cells: Vec<f32>,
    /// Whether each cell has been observed at least once.
    known: Vec<bool>,
}

impl ProbabilityGrid {
    /// Creates an all-unknown grid.
    ///
    /// # Panics
    ///
    /// Panics on zero dimensions or non-positive resolution.
    pub fn new(width: usize, height: usize, resolution: f64, origin: Point2) -> Self {
        assert!(width > 0 && height > 0, "grid dimensions must be positive");
        assert!(resolution > 0.0, "resolution must be positive");
        Self {
            width,
            height,
            resolution,
            origin,
            cells: vec![0.5; width * height + 1],
            known: vec![false; width * height],
        }
    }

    /// Builds a probability grid from a known occupancy map (for pure
    /// localization): occupied → `P_MAX`, free → `P_MIN`, unknown stays
    /// unknown.
    pub fn from_occupancy(grid: &OccupancyGrid) -> Self {
        let mut pg = Self::new(
            grid.width(),
            grid.height(),
            grid.resolution(),
            grid.origin(),
        );
        for (idx, state) in grid.iter() {
            let p = match state {
                CellState::Occupied => P_MAX,
                CellState::Free => P_MIN,
                CellState::Unknown => continue,
            };
            pg.store(idx.row as usize * pg.width + idx.col as usize, p);
        }
        pg
    }

    /// Builds a *smoothed* probability field from a known occupancy map,
    /// for scan-to-map localization: probability peaks at `P_MAX` on the
    /// wall **surface** (occupied cells adjacent to free space) and decays
    /// as a Gaussian of the distance to that surface, down to `P_MIN`.
    ///
    /// Unlike [`ProbabilityGrid::from_occupancy`], thick wall bands do not
    /// form flat plateaus, so gradient-based refinement keeps a pull toward
    /// the surface from both sides. `sigma` is the decay scale in meters
    /// (≈1–2 cells works well).
    ///
    /// # Panics
    ///
    /// Panics when `sigma` is not positive.
    pub fn from_occupancy_smoothed(grid: &OccupancyGrid, sigma: f64) -> Self {
        assert!(sigma > 0.0, "sigma must be positive");
        // Surface = occupied cells with at least one free 4-neighbor.
        let mut surface = OccupancyGrid::new(
            grid.width(),
            grid.height(),
            grid.resolution(),
            grid.origin(),
        );
        surface.fill(CellState::Free);
        for (idx, state) in grid.iter() {
            if state != CellState::Occupied {
                continue;
            }
            let neighbors = [
                GridIndex::new(idx.col + 1, idx.row),
                GridIndex::new(idx.col - 1, idx.row),
                GridIndex::new(idx.col, idx.row + 1),
                GridIndex::new(idx.col, idx.row - 1),
            ];
            if neighbors.iter().any(|&n| grid.state(n) == CellState::Free) {
                surface.set(idx, CellState::Occupied);
            }
        }
        let dist = raceloc_map::DistanceMap::from_grid_with(&surface, |s| s == CellState::Occupied);
        let mut pg = Self::new(
            grid.width(),
            grid.height(),
            grid.resolution(),
            grid.origin(),
        );
        for (idx, state) in grid.iter() {
            if state == CellState::Unknown {
                continue;
            }
            let d = dist.distance(idx);
            let p = P_MIN + (P_MAX - P_MIN) * (-0.5 * d * d / (sigma * sigma)).exp();
            pg.store(idx.row as usize * pg.width + idx.col as usize, p);
        }
        pg
    }

    /// Grid width in cells.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height in cells.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Cell size in meters.
    #[inline]
    pub fn resolution(&self) -> f64 {
        self.resolution
    }

    /// World position of the grid's lower-left corner.
    #[inline]
    pub fn origin(&self) -> Point2 {
        self.origin
    }

    /// Converts a world point to a cell index (may be out of bounds).
    #[inline]
    pub fn world_to_index(&self, p: Point2) -> GridIndex {
        GridIndex::new(
            ((p.x - self.origin.x) / self.resolution).floor() as i64,
            ((p.y - self.origin.y) / self.resolution).floor() as i64,
        )
    }

    /// World position of a cell center.
    #[inline]
    pub fn index_to_world(&self, idx: GridIndex) -> Point2 {
        Point2::new(
            self.origin.x + (idx.col as f64 + 0.5) * self.resolution,
            self.origin.y + (idx.row as f64 + 0.5) * self.resolution,
        )
    }

    #[inline]
    fn flat(&self, idx: GridIndex) -> Option<usize> {
        if idx.col >= 0
            && idx.row >= 0
            && (idx.col as usize) < self.width
            && (idx.row as usize) < self.height
        {
            Some(idx.row as usize * self.width + idx.col as usize)
        } else {
            None
        }
    }

    /// Flat index of the trailing cell that every off-grid read lands on.
    #[inline]
    pub(crate) fn off_grid(&self) -> usize {
        self.width * self.height
    }

    /// The read values of the grid's cells plus the trailing off-grid
    /// cell, row-major: `read_table()[row · width + col]` is what
    /// [`ProbabilityGrid::probability`] returns as f32, and
    /// `read_table()[off_grid]` is 0.5.
    #[inline]
    pub(crate) fn read_table(&self) -> &[f32] {
        &self.cells
    }

    /// Occupancy probability of a cell; unknown and out-of-bounds cells read
    /// as 0.5 (no information).
    #[inline]
    pub fn probability(&self, idx: GridIndex) -> f64 {
        self.probability_flat(self.flat(idx).unwrap_or(self.off_grid()))
    }

    /// Occupancy probability of the cell at flat index `row · width +
    /// col`; unknown cells and indices past the grid read as 0.5, as in
    /// [`ProbabilityGrid::probability`].
    #[inline]
    pub fn probability_flat(&self, i: usize) -> f64 {
        f64::from(self.cells[i.min(self.off_grid())])
    }

    /// True when the cell has been observed at least once.
    #[inline]
    pub fn is_known(&self, idx: GridIndex) -> bool {
        self.flat(idx).is_some_and(|i| self.known[i])
    }

    /// Marks cell `i` observed with probability `p`, rounded to the
    /// stored precision.
    #[inline]
    fn store(&mut self, i: usize, p: f64) {
        self.cells[i] = p as f32;
        self.known[i] = true;
    }

    /// The four cells around the bilinear sample point `(c0, r0)`:
    /// `[p(c0, r0), p(c0+1, r0), p(c0, r0+1), p(c0+1, r0+1)]`, each read
    /// as [`ProbabilityGrid::probability`] does. A column or row outside
    /// the grid is replaced by the off-grid marker, so every read is one
    /// unconditional load.
    #[inline]
    fn quad(&self, c0: i64, r0: i64) -> [f64; 4] {
        let off_grid = self.off_grid();
        let axis = |i: i64, cells: usize, scale: usize| {
            if i >= 0 && (i as usize) < cells {
                i as usize * scale
            } else {
                off_grid
            }
        };
        let (ca, cb) = (axis(c0, self.width, 1), axis(c0 + 1, self.width, 1));
        let (ra, rb) = (
            axis(r0, self.height, self.width),
            axis(r0 + 1, self.height, self.width),
        );
        [ra + ca, ra + cb, rb + ca, rb + cb].map(|i| self.probability_flat(i))
    }

    /// Bilinearly interpolated probability at a world point (the smooth
    /// field the Gauss–Newton refiner differentiates).
    pub fn probability_at(&self, p: Point2) -> f64 {
        // Sample at the four surrounding cell centers.
        let gx = (p.x - self.origin.x) / self.resolution - 0.5;
        let gy = (p.y - self.origin.y) / self.resolution - 0.5;
        let c0 = gx.floor();
        let r0 = gy.floor();
        let tx = gx - c0;
        let ty = gy - r0;
        let [p00, p10, p01, p11] = self.quad(c0 as i64, r0 as i64);
        p00 * (1.0 - tx) * (1.0 - ty)
            + p10 * tx * (1.0 - ty)
            + p01 * (1.0 - tx) * ty
            + p11 * tx * ty
    }

    /// Bilinear probability plus its spatial gradient `(P, dP/dx, dP/dy)`
    /// at a world point — the quantities the Gauss–Newton scan refiner
    /// needs.
    pub fn probability_with_gradient(&self, p: Point2) -> (f64, f64, f64) {
        let gx = (p.x - self.origin.x) / self.resolution - 0.5;
        let gy = (p.y - self.origin.y) / self.resolution - 0.5;
        let c0 = gx.floor();
        let r0 = gy.floor();
        let tx = gx - c0;
        let ty = gy - r0;
        let [p00, p10, p01, p11] = self.quad(c0 as i64, r0 as i64);
        let value = p00 * (1.0 - tx) * (1.0 - ty)
            + p10 * tx * (1.0 - ty)
            + p01 * (1.0 - tx) * ty
            + p11 * tx * ty;
        let ddx = ((p10 - p00) * (1.0 - ty) + (p11 - p01) * ty) / self.resolution;
        let ddy = ((p01 - p00) * (1.0 - tx) + (p11 - p10) * tx) / self.resolution;
        (value, ddx, ddy)
    }

    /// Overwrites a cell's probability directly (clamped to the valid
    /// band); used when merging grids. No-op out of bounds.
    pub fn set_probability(&mut self, idx: GridIndex, p: f64) {
        if let Some(i) = self.flat(idx) {
            self.store(i, p.clamp(P_MIN, P_MAX));
        }
    }

    /// Applies a hit update to a cell (no-op out of bounds).
    pub fn apply_hit(&mut self, idx: GridIndex) {
        self.apply_odds(idx, odds(P_HIT));
    }

    /// Applies a miss update to a cell (no-op out of bounds).
    pub fn apply_miss(&mut self, idx: GridIndex) {
        self.apply_odds(idx, odds(P_MISS));
    }

    fn apply_odds(&mut self, idx: GridIndex, factor: f64) {
        let Some(i) = self.flat(idx) else { return };
        // An unknown cell reads 0.5, the prior of a first observation.
        let prior = self.probability_flat(i);
        let posterior = from_odds(odds(prior) * factor).clamp(P_MIN, P_MAX);
        self.store(i, posterior);
    }

    /// Integrates one scan taken from `sensor_pose` (world frame): the cells
    /// under each return get a hit, the cells along each ray a miss. Beams
    /// at max range contribute misses only.
    pub fn insert_scan(&mut self, sensor_pose: Pose2, scan: &raceloc_core::sensor_data::LaserScan) {
        // Collect hits and misses separately so a hit is never cancelled by
        // a miss from a neighboring beam in the same scan (Cartographer
        // applies hits after misses per insertion).
        let mut hits: Vec<GridIndex> = Vec::new();
        let mut misses: Vec<GridIndex> = Vec::new();
        let origin = sensor_pose.translation();
        for (angle, range) in scan.iter() {
            let is_return = range < scan.max_range - 1e-9 && range > 0.0;
            let world_angle = sensor_pose.theta + angle;
            let end = Point2::new(
                origin.x + range * world_angle.cos(),
                origin.y + range * world_angle.sin(),
            );
            let end_idx = self.world_to_index(end);
            // The traversal may stop one cell short of `end_idx` when the
            // endpoint lies exactly on a cell boundary, so the hit cell is
            // handled explicitly rather than inside the walk.
            traverse(self, origin, end, |idx| {
                if idx != end_idx {
                    misses.push(idx);
                }
                true
            });
            if is_return {
                hits.push(end_idx);
            } else {
                misses.push(end_idx);
            }
        }
        for idx in misses {
            self.apply_miss(idx);
        }
        for idx in hits {
            self.apply_hit(idx);
        }
    }

    /// Exports the grid as a ternary occupancy map with the given
    /// classification thresholds.
    pub fn to_occupancy(&self, occupied_above: f64, free_below: f64) -> OccupancyGrid {
        let mut out = OccupancyGrid::new(self.width, self.height, self.resolution, self.origin);
        for r in 0..self.height as i64 {
            for c in 0..self.width as i64 {
                let idx = GridIndex::new(c, r);
                let state = if !self.is_known(idx) {
                    CellState::Unknown
                } else {
                    let p = self.probability(idx);
                    if p >= occupied_above {
                        CellState::Occupied
                    } else if p <= free_below {
                        CellState::Free
                    } else {
                        CellState::Unknown
                    }
                };
                out.set(idx, state);
            }
        }
        out
    }
}

/// Amanatides–Woo traversal over a probability grid (same algorithm as
/// `OccupancyGrid::traverse_ray`, duplicated here to keep grid types
/// independent).
fn traverse<F: FnMut(GridIndex) -> bool>(
    grid: &ProbabilityGrid,
    from: Point2,
    to: Point2,
    mut visit: F,
) {
    let res = grid.resolution();
    let mut idx = grid.world_to_index(from);
    let end = grid.world_to_index(to);
    if !visit(idx) {
        return;
    }
    let dx = to.x - from.x;
    let dy = to.y - from.y;
    let step_c: i64 = if dx > 0.0 { 1 } else { -1 };
    let step_r: i64 = if dy > 0.0 { 1 } else { -1 };
    let next_edge = |i: i64, step: i64, origin: f64| {
        let edge = if step > 0 { i + 1 } else { i };
        origin + edge as f64 * res
    };
    let inv_dx = if dx != 0.0 { 1.0 / dx } else { f64::INFINITY };
    let inv_dy = if dy != 0.0 { 1.0 / dy } else { f64::INFINITY };
    let mut t_max_x = if dx != 0.0 {
        (next_edge(idx.col, step_c, grid.origin().x) - from.x) * inv_dx
    } else {
        f64::INFINITY
    };
    let mut t_max_y = if dy != 0.0 {
        (next_edge(idx.row, step_r, grid.origin().y) - from.y) * inv_dy
    } else {
        f64::INFINITY
    };
    let t_dx = (res * inv_dx).abs();
    let t_dy = (res * inv_dy).abs();
    let max_steps = 2 * (grid.width() + grid.height()) + 4;
    for _ in 0..max_steps {
        if idx == end || (t_max_x > 1.0 && t_max_y > 1.0) {
            return;
        }
        if t_max_x < t_max_y {
            t_max_x += t_dx;
            idx.col += step_c;
        } else {
            t_max_y += t_dy;
            idx.row += step_r;
        }
        if !visit(idx) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use raceloc_core::sensor_data::LaserScan;

    #[test]
    fn unknown_reads_half() {
        let g = ProbabilityGrid::new(10, 10, 0.1, Point2::ORIGIN);
        assert_eq!(g.probability(GridIndex::new(3, 3)), 0.5);
        assert_eq!(g.probability(GridIndex::new(-1, 0)), 0.5);
        assert!(!g.is_known(GridIndex::new(3, 3)));
    }

    #[test]
    fn hits_raise_misses_lower() {
        let mut g = ProbabilityGrid::new(10, 10, 0.1, Point2::ORIGIN);
        let idx = GridIndex::new(5, 5);
        g.apply_hit(idx);
        let after_hit = g.probability(idx);
        assert!(after_hit > 0.5);
        g.apply_miss(idx);
        assert!(g.probability(idx) < after_hit);
        let idx2 = GridIndex::new(2, 2);
        g.apply_miss(idx2);
        assert!(g.probability(idx2) < 0.5);
    }

    #[test]
    fn probabilities_clamp() {
        let mut g = ProbabilityGrid::new(4, 4, 0.1, Point2::ORIGIN);
        let idx = GridIndex::new(1, 1);
        for _ in 0..200 {
            g.apply_hit(idx);
        }
        assert!(g.probability(idx) <= P_MAX + 1e-6);
        for _ in 0..400 {
            g.apply_miss(idx);
        }
        assert!(g.probability(idx) >= P_MIN - 1e-6);
    }

    #[test]
    fn insert_scan_marks_hit_and_ray() {
        let mut g = ProbabilityGrid::new(100, 100, 0.1, Point2::ORIGIN);
        // Sensor at (1, 5) facing +x, wall return at 4 m.
        let scan = LaserScan::new(0.0, 0.1, vec![4.0], 10.0);
        let pose = Pose2::new(1.0, 5.0, 0.0);
        g.insert_scan(pose, &scan);
        let hit_idx = g.world_to_index(Point2::new(5.0, 5.0));
        assert!(g.probability(hit_idx) > 0.5, "{}", g.probability(hit_idx));
        // Midway along the ray: a miss.
        let mid_idx = g.world_to_index(Point2::new(3.0, 5.0));
        assert!(g.probability(mid_idx) < 0.5);
        // Beyond the return: untouched.
        let beyond = g.world_to_index(Point2::new(7.0, 5.0));
        assert!(!g.is_known(beyond));
    }

    #[test]
    fn max_range_beam_only_misses() {
        let mut g = ProbabilityGrid::new(100, 100, 0.1, Point2::ORIGIN);
        let scan = LaserScan::new(0.0, 0.1, vec![10.0], 10.0);
        g.insert_scan(Pose2::new(1.0, 5.0, 0.0), &scan);
        // Every touched cell is a miss; none is a hit.
        for c in 10..95 {
            let p = g.probability(GridIndex::new(c, 50));
            assert!(p <= 0.5 + 1e-9, "col {c}: {p}");
        }
    }

    #[test]
    fn repeated_scans_sharpen_the_map() {
        let mut g = ProbabilityGrid::new(100, 100, 0.1, Point2::ORIGIN);
        let scan = LaserScan::new(0.0, 0.1, vec![4.0], 10.0);
        let pose = Pose2::new(1.0, 5.0, 0.0);
        for _ in 0..5 {
            g.insert_scan(pose, &scan);
        }
        let hit_idx = g.world_to_index(Point2::new(5.0, 5.0));
        assert!(g.probability(hit_idx) > 0.85);
    }

    #[test]
    fn from_occupancy_roundtrip() {
        let mut occ = OccupancyGrid::new(8, 8, 0.25, Point2::new(-1.0, -1.0));
        occ.fill(CellState::Free);
        occ.set(GridIndex::new(3, 3), CellState::Occupied);
        occ.set(GridIndex::new(0, 0), CellState::Unknown);
        let pg = ProbabilityGrid::from_occupancy(&occ);
        assert!(pg.probability(GridIndex::new(3, 3)) > 0.9);
        assert!(pg.probability(GridIndex::new(5, 5)) < 0.2);
        assert!(!pg.is_known(GridIndex::new(0, 0)));
        let back = pg.to_occupancy(0.6, 0.35);
        assert_eq!(back.state(GridIndex::new(3, 3)), CellState::Occupied);
        assert_eq!(back.state(GridIndex::new(5, 5)), CellState::Free);
        assert_eq!(back.state(GridIndex::new(0, 0)), CellState::Unknown);
    }

    #[test]
    fn bilinear_interpolation_is_smooth() {
        let mut g = ProbabilityGrid::new(10, 10, 0.1, Point2::ORIGIN);
        for _ in 0..10 {
            g.apply_hit(GridIndex::new(5, 5));
        }
        // Probability decays smoothly moving away from the hit cell center.
        let center = g.index_to_world(GridIndex::new(5, 5));
        let p0 = g.probability_at(center);
        let p1 = g.probability_at(Point2::new(center.x + 0.05, center.y));
        let p2 = g.probability_at(Point2::new(center.x + 0.1, center.y));
        assert!(p0 >= p1 && p1 >= p2, "{p0} {p1} {p2}");
        assert!(p0 > 0.9);
    }

    #[test]
    #[should_panic(expected = "dimensions")]
    fn zero_size_panics() {
        ProbabilityGrid::new(0, 1, 0.1, Point2::ORIGIN);
    }

    /// The encoding the read table replaced: one f32 per cell, `-1.0`
    /// while never observed. Kept as the oracle of the grid's reads.
    struct SentinelGrid {
        width: usize,
        height: usize,
        cells: Vec<f32>,
    }

    impl SentinelGrid {
        fn flat(&self, idx: GridIndex) -> Option<usize> {
            let inside = idx.col >= 0
                && idx.row >= 0
                && (idx.col as usize) < self.width
                && (idx.row as usize) < self.height;
            inside.then(|| idx.row as usize * self.width + idx.col as usize)
        }

        fn probability_flat(&self, i: usize) -> f64 {
            match self.cells.get(i) {
                Some(&p) if p >= 0.0 => p as f64,
                _ => 0.5,
            }
        }

        fn probability(&self, idx: GridIndex) -> f64 {
            self.flat(idx).map_or(0.5, |i| self.probability_flat(i))
        }

        fn is_known(&self, idx: GridIndex) -> bool {
            self.flat(idx).is_some_and(|i| self.cells[i] >= 0.0)
        }

        fn apply_odds(&mut self, idx: GridIndex, factor: f64) {
            let Some(i) = self.flat(idx) else { return };
            let prior = if self.cells[i] >= 0.0 {
                self.cells[i] as f64
            } else {
                0.5
            };
            self.cells[i] = from_odds(odds(prior) * factor).clamp(P_MIN, P_MAX) as f32;
        }

        fn set_probability(&mut self, idx: GridIndex, p: f64) {
            if let Some(i) = self.flat(idx) {
                self.cells[i] = p.clamp(P_MIN, P_MAX) as f32;
            }
        }

        /// `(P, dP/dx, dP/dy)` at grid coordinates `(gx, gy)` (cell
        /// centres at half-integers), sampled cell by cell.
        fn bilinear(&self, gx: f64, gy: f64, res: f64) -> (f64, f64, f64) {
            let (c0, r0) = ((gx - 0.5).floor(), (gy - 0.5).floor());
            let (tx, ty) = (gx - 0.5 - c0, gy - 0.5 - r0);
            let p =
                |dc: i64, dr: i64| self.probability(GridIndex::new(c0 as i64 + dc, r0 as i64 + dr));
            let (p00, p10, p01, p11) = (p(0, 0), p(1, 0), p(0, 1), p(1, 1));
            let value = p00 * (1.0 - tx) * (1.0 - ty)
                + p10 * tx * (1.0 - ty)
                + p01 * (1.0 - tx) * ty
                + p11 * tx * ty;
            let ddx = ((p10 - p00) * (1.0 - ty) + (p11 - p01) * ty) / res;
            let ddy = ((p01 - p00) * (1.0 - tx) + (p11 - p10) * tx) / res;
            (value, ddx, ddy)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any sequence of hits, misses and direct writes, some of them
        /// off the grid, leaves every read equal to the sentinel-encoded
        /// model's: `probability` and `probability_flat` bit for bit
        /// (including indices past the grid), `is_known`, `to_occupancy`,
        /// and the bilinear reads the refiner takes.
        #[test]
        fn reads_match_the_sentinel_model(
            (width, height) in (1usize..12, 1usize..10),
            ops in prop::collection::vec(
                (0u8..3, -2i64..14, -2i64..12, 0.0..1.0f64),
                0..120,
            ),
            samples in prop::collection::vec(
                (-2.0..15.0f64, -2.0..13.0f64),
                1..20,
            ),
        ) {
            let res = 0.1;
            let mut grid = ProbabilityGrid::new(width, height, res, Point2::ORIGIN);
            let mut model = SentinelGrid {
                width,
                height,
                cells: vec![-1.0; width * height],
            };
            for &(op, col, row, p) in &ops {
                let idx = GridIndex::new(col, row);
                match op {
                    0 => {
                        grid.apply_hit(idx);
                        model.apply_odds(idx, odds(P_HIT));
                    }
                    1 => {
                        grid.apply_miss(idx);
                        model.apply_odds(idx, odds(P_MISS));
                    }
                    _ => {
                        grid.set_probability(idx, p);
                        model.set_probability(idx, p);
                    }
                }
            }
            for row in -2..height as i64 + 2 {
                for col in -2..width as i64 + 2 {
                    let idx = GridIndex::new(col, row);
                    prop_assert_eq!(
                        grid.probability(idx).to_bits(),
                        model.probability(idx).to_bits()
                    );
                    prop_assert_eq!(grid.is_known(idx), model.is_known(idx));
                }
            }
            for i in 0..width * height + 3 {
                prop_assert_eq!(
                    grid.probability_flat(i).to_bits(),
                    model.probability_flat(i).to_bits()
                );
            }
            let occupancy = grid.to_occupancy(0.6, 0.35);
            for row in 0..height as i64 {
                for col in 0..width as i64 {
                    let idx = GridIndex::new(col, row);
                    let p = model.probability(idx);
                    let want = if !model.is_known(idx) {
                        CellState::Unknown
                    } else if p >= 0.6 {
                        CellState::Occupied
                    } else if p <= 0.35 {
                        CellState::Free
                    } else {
                        CellState::Unknown
                    };
                    prop_assert_eq!(occupancy.state(idx), want);
                }
            }
            for &(gx, gy) in &samples {
                let at = Point2::new(gx * res, gy * res);
                let (value, ddx, ddy) = grid.probability_with_gradient(at);
                let bits = |v: (f64, f64, f64)| [v.0.to_bits(), v.1.to_bits(), v.2.to_bits()];
                let want = model.bilinear(at.x / res, at.y / res, res);
                prop_assert_eq!(bits((value, ddx, ddy)), bits(want));
                prop_assert_eq!(grid.probability_at(at).to_bits(), want.0.to_bits());
            }
        }
    }
}
