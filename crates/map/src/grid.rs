//! The occupancy grid: a ternary raster world model.

use raceloc_core::Point2;
use std::fmt;

/// The state of one occupancy-grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CellState {
    /// Traversable space.
    Free,
    /// An obstacle (wall) cell; LiDAR rays terminate here.
    Occupied,
    /// Never observed / outside the track. Treated as opaque by ray casting
    /// so that rays cannot escape through unmapped space.
    #[default]
    Unknown,
}

/// An integer cell coordinate `(col, row)` into an [`OccupancyGrid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
#[allow(
    clippy::disallowed_methods,
    reason = "the derived partial_cmp orders integer coordinates, which is total"
)]
pub struct GridIndex {
    /// Column (x direction).
    pub col: i64,
    /// Row (y direction).
    pub row: i64,
}

impl GridIndex {
    /// Creates an index from column and row.
    #[inline]
    pub const fn new(col: i64, row: i64) -> Self {
        Self { col, row }
    }
}

impl From<(i64, i64)> for GridIndex {
    #[inline]
    fn from((col, row): (i64, i64)) -> Self {
        Self { col, row }
    }
}

impl fmt::Display for GridIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.col, self.row)
    }
}

/// A 2-D occupancy grid with a metric origin and resolution.
///
/// Cells are stored row-major; cell `(0, 0)`'s *lower-left corner* sits at
/// `origin`, and cell centers are offset by half a resolution. The grid is
/// axis-aligned (ROS-style maps with zero origin yaw), which is what every
/// consumer in this workspace needs.
///
/// # Examples
///
/// ```
/// use raceloc_map::{CellState, OccupancyGrid};
/// use raceloc_core::Point2;
///
/// let mut grid = OccupancyGrid::new(10, 10, 0.1, Point2::new(-0.5, -0.5));
/// grid.fill(CellState::Free);
/// grid.set_world(Point2::new(0.0, 0.0), CellState::Occupied);
/// assert_eq!(grid.state_at_world(Point2::new(0.0, 0.0)), CellState::Occupied);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OccupancyGrid {
    width: usize,
    height: usize,
    resolution: f64,
    origin: Point2,
    cells: Vec<CellState>,
}

impl OccupancyGrid {
    /// Creates a grid of `width × height` cells, all [`CellState::Unknown`].
    ///
    /// # Panics
    ///
    /// Panics when `width` or `height` is zero or `resolution` is not a
    /// positive finite number.
    pub fn new(width: usize, height: usize, resolution: f64, origin: Point2) -> Self {
        assert!(width > 0 && height > 0, "grid dimensions must be positive");
        assert!(
            resolution.is_finite() && resolution > 0.0,
            "resolution must be positive"
        );
        Self {
            width,
            height,
            resolution,
            origin,
            cells: vec![CellState::Unknown; width * height],
        }
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

    /// Total number of cells.
    #[inline]
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Cell edge length in meters.
    #[inline]
    pub fn resolution(&self) -> f64 {
        self.resolution
    }

    /// World coordinate of cell `(0, 0)`'s lower-left corner.
    #[inline]
    pub fn origin(&self) -> Point2 {
        self.origin
    }

    /// Raw cell storage (row-major).
    #[inline]
    pub fn cells(&self) -> &[CellState] {
        &self.cells
    }

    /// Converts a world point to the (possibly out-of-bounds) cell index.
    #[inline]
    pub fn world_to_index(&self, p: Point2) -> GridIndex {
        GridIndex::new(
            ((p.x - self.origin.x) / self.resolution).floor() as i64,
            ((p.y - self.origin.y) / self.resolution).floor() as i64,
        )
    }

    /// World coordinate of the *center* of a cell.
    #[inline]
    pub fn index_to_world(&self, idx: GridIndex) -> Point2 {
        Point2::new(
            self.origin.x + (idx.col as f64 + 0.5) * self.resolution,
            self.origin.y + (idx.row as f64 + 0.5) * self.resolution,
        )
    }

    /// True when the index lies inside the grid.
    #[inline]
    pub fn contains(&self, idx: GridIndex) -> bool {
        idx.col >= 0
            && idx.row >= 0
            && (idx.col as usize) < self.width
            && (idx.row as usize) < self.height
    }

    #[inline]
    fn flat(&self, idx: GridIndex) -> usize {
        idx.row as usize * self.width + idx.col as usize
    }

    /// The state of a cell; out-of-bounds indices read as
    /// [`CellState::Unknown`].
    #[inline]
    pub fn state(&self, idx: GridIndex) -> CellState {
        if self.contains(idx) {
            self.cells[self.flat(idx)]
        } else {
            CellState::Unknown
        }
    }

    /// The state of the cell containing a world point.
    #[inline]
    pub fn state_at_world(&self, p: Point2) -> CellState {
        self.state(self.world_to_index(p))
    }

    /// Sets a cell's state. Out-of-bounds writes are ignored and reported.
    ///
    /// Returns `true` when the write landed inside the grid.
    #[inline]
    pub fn set(&mut self, idx: GridIndex, state: CellState) -> bool {
        if self.contains(idx) {
            let i = self.flat(idx);
            self.cells[i] = state;
            true
        } else {
            false
        }
    }

    /// Sets the cell containing a world point.
    #[inline]
    pub fn set_world(&mut self, p: Point2, state: CellState) -> bool {
        self.set(self.world_to_index(p), state)
    }

    /// Fills every cell with `state`.
    pub fn fill(&mut self, state: CellState) {
        self.cells.fill(state);
    }

    /// True when the cell blocks LiDAR (occupied **or** unknown/out of
    /// bounds). This is the ray-casting opacity convention used throughout
    /// the workspace.
    #[inline]
    pub fn is_opaque(&self, idx: GridIndex) -> bool {
        self.state(idx) != CellState::Free
    }

    /// True when the cell is strictly occupied (a mapped wall).
    #[inline]
    pub fn is_occupied(&self, idx: GridIndex) -> bool {
        self.state(idx) == CellState::Occupied
    }

    /// Iterates over all `(index, state)` pairs, row-major.
    pub fn iter(&self) -> impl Iterator<Item = (GridIndex, CellState)> + '_ {
        (0..self.height).flat_map(move |r| {
            (0..self.width).map(move |c| {
                let idx = GridIndex::new(c as i64, r as i64);
                (idx, self.cells[self.flat(idx)])
            })
        })
    }

    /// Counts cells in each state, returned as `(free, occupied, unknown)`.
    pub fn census(&self) -> (usize, usize, usize) {
        let mut free = 0;
        let mut occ = 0;
        let mut unk = 0;
        for c in &self.cells {
            match c {
                CellState::Free => free += 1,
                CellState::Occupied => occ += 1,
                CellState::Unknown => unk += 1,
            }
        }
        (free, occ, unk)
    }

    /// The world-coordinate bounding box `(min, max)` of the grid.
    pub fn bounds(&self) -> (Point2, Point2) {
        (
            self.origin,
            Point2::new(
                self.origin.x + self.width as f64 * self.resolution,
                self.origin.y + self.height as f64 * self.resolution,
            ),
        )
    }

    /// A stable 64-bit content fingerprint covering the grid's *geometry*
    /// (dimensions, resolution, origin) **and** its cell contents.
    ///
    /// Two grids with identical cell rasters but different metric geometry
    /// (e.g. the same maze at 0.05 m vs 0.10 m resolution) hash differently,
    /// which is what map-artifact caches need: the derived EDT and range LUT
    /// depend on world coordinates, not just cell bytes.
    ///
    /// The hash is FNV-1a over a fixed little-endian encoding, so it is
    /// stable across platforms and process runs (unlike `std::hash`).
    pub fn content_fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
            }
        };
        eat(&(self.width as u64).to_le_bytes());
        eat(&(self.height as u64).to_le_bytes());
        eat(&self.resolution.to_bits().to_le_bytes());
        eat(&self.origin.x.to_bits().to_le_bytes());
        eat(&self.origin.y.to_bits().to_le_bytes());
        for c in &self.cells {
            let tag: u8 = match c {
                CellState::Free => 0,
                CellState::Occupied => 1,
                CellState::Unknown => 2,
            };
            h = (h ^ tag as u64).wrapping_mul(FNV_PRIME);
        }
        h
    }

    /// The maximum possible in-grid ray length (the diagonal), in meters.
    pub fn diagonal(&self) -> f64 {
        let (w, h) = (
            self.width as f64 * self.resolution,
            self.height as f64 * self.resolution,
        );
        w.hypot(h)
    }

    /// Traverses grid cells along the segment from `from` to `to` (Amanatides
    /// & Woo DDA), invoking `visit` per cell, starting with the cell
    /// containing `from`. Traversal stops early when `visit` returns `false`.
    ///
    /// Cells outside the grid are still visited (with out-of-bounds indices),
    /// so callers can implement their own boundary policy.
    pub fn traverse_ray<F: FnMut(GridIndex) -> bool>(
        &self,
        from: Point2,
        to: Point2,
        mut visit: F,
    ) {
        let mut idx = self.world_to_index(from);
        let end = self.world_to_index(to);
        if !visit(idx) {
            return;
        }
        let dx = to.x - from.x;
        let dy = to.y - from.y;
        let step_c: i64 = if dx > 0.0 { 1 } else { -1 };
        let step_r: i64 = if dy > 0.0 { 1 } else { -1 };
        // Parametric distance (in ray t ∈ [0,1]) to the next cell boundary.
        let next_boundary = |i: i64, step: i64, origin: f64| -> f64 {
            let edge = if step > 0 { i + 1 } else { i };
            origin + edge as f64 * self.resolution
        };
        let inv_dx = if dx != 0.0 { 1.0 / dx } else { f64::INFINITY };
        let inv_dy = if dy != 0.0 { 1.0 / dy } else { f64::INFINITY };
        let mut t_max_x = if dx != 0.0 {
            (next_boundary(idx.col, step_c, self.origin.x) - from.x) * inv_dx
        } else {
            f64::INFINITY
        };
        let mut t_max_y = if dy != 0.0 {
            (next_boundary(idx.row, step_r, self.origin.y) - from.y) * inv_dy
        } else {
            f64::INFINITY
        };
        let t_delta_x = (self.resolution * inv_dx).abs();
        let t_delta_y = (self.resolution * inv_dy).abs();
        // Hard cap: a ray can cross at most w+h+2 cells within its extent.
        let max_steps = 2 * (self.width + self.height) + 4;
        for _ in 0..max_steps {
            if idx == end || (t_max_x > 1.0 && t_max_y > 1.0) {
                return;
            }
            if t_max_x < t_max_y {
                t_max_x += t_delta_x;
                idx.col += step_c;
            } else {
                t_max_y += t_delta_y;
                idx.row += step_r;
            }
            if !visit(idx) {
                return;
            }
        }
    }

    /// Renders the grid as ASCII art (`.` free, `#` occupied, space unknown),
    /// downsampled so the output is at most `max_cols` characters wide.
    /// Row 0 is printed at the bottom (y up).
    pub fn to_ascii(&self, max_cols: usize) -> String {
        let stride = (self.width / max_cols.max(1)).max(1);
        let mut out = String::new();
        let mut r = self.height as i64 - 1;
        while r >= 0 {
            let mut c = 0i64;
            while c < self.width as i64 {
                // Aggregate the stride×stride block: occupied wins over free
                // wins over unknown, so walls stay visible when downsampled.
                let mut best = CellState::Unknown;
                for rr in 0..stride as i64 {
                    for cc in 0..stride as i64 {
                        match self.state(GridIndex::new(c + cc, r - rr)) {
                            CellState::Occupied => best = CellState::Occupied,
                            CellState::Free if best == CellState::Unknown => {
                                best = CellState::Free;
                            }
                            _ => {}
                        }
                    }
                }
                out.push(match best {
                    CellState::Free => '.',
                    CellState::Occupied => '#',
                    CellState::Unknown => ' ',
                });
                c += stride as i64;
            }
            out.push('\n');
            r -= stride as i64;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> OccupancyGrid {
        OccupancyGrid::new(20, 10, 0.5, Point2::new(-1.0, -1.0))
    }

    #[test]
    fn new_grid_is_unknown() {
        let g = grid();
        assert_eq!(g.census(), (0, 0, 200));
        assert_eq!(g.cell_count(), 200);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_panics() {
        OccupancyGrid::new(0, 5, 0.1, Point2::ORIGIN);
    }

    #[test]
    #[should_panic(expected = "resolution")]
    fn bad_resolution_panics() {
        OccupancyGrid::new(5, 5, 0.0, Point2::ORIGIN);
    }

    #[test]
    fn world_index_roundtrip() {
        let g = grid();
        for (c, r) in [(0, 0), (5, 3), (19, 9)] {
            let idx = GridIndex::new(c, r);
            let p = g.index_to_world(idx);
            assert_eq!(g.world_to_index(p), idx);
        }
    }

    #[test]
    fn world_to_index_floor_behavior() {
        let g = grid();
        // Origin corner belongs to cell (0,0).
        assert_eq!(
            g.world_to_index(Point2::new(-1.0, -1.0)),
            GridIndex::new(0, 0)
        );
        // Just below origin is out of bounds (negative index).
        assert_eq!(
            g.world_to_index(Point2::new(-1.01, -1.0)),
            GridIndex::new(-1, 0)
        );
    }

    #[test]
    fn out_of_bounds_reads_unknown() {
        let g = grid();
        assert_eq!(g.state(GridIndex::new(-1, 0)), CellState::Unknown);
        assert_eq!(g.state(GridIndex::new(0, 100)), CellState::Unknown);
        assert!(g.is_opaque(GridIndex::new(-5, -5)));
    }

    #[test]
    fn out_of_bounds_writes_ignored() {
        let mut g = grid();
        assert!(!g.set(GridIndex::new(-1, 0), CellState::Free));
        assert_eq!(g.census(), (0, 0, 200));
    }

    #[test]
    fn set_get_roundtrip() {
        let mut g = grid();
        let idx = GridIndex::new(7, 4);
        assert!(g.set(idx, CellState::Occupied));
        assert_eq!(g.state(idx), CellState::Occupied);
        assert!(g.is_occupied(idx));
        assert!(g.is_opaque(idx));
    }

    #[test]
    fn fill_and_census() {
        let mut g = grid();
        g.fill(CellState::Free);
        assert_eq!(g.census(), (200, 0, 0));
    }

    #[test]
    fn bounds_and_diagonal() {
        let g = grid();
        let (lo, hi) = g.bounds();
        assert_eq!(lo, Point2::new(-1.0, -1.0));
        assert_eq!(hi, Point2::new(9.0, 4.0));
        assert!((g.diagonal() - (10.0f64.powi(2) + 5.0f64.powi(2)).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn traverse_straight_ray_visits_row() {
        let g = grid();
        let mut visited = Vec::new();
        g.traverse_ray(Point2::new(-0.75, -0.75), Point2::new(3.25, -0.75), |idx| {
            visited.push(idx);
            true
        });
        assert_eq!(visited.first(), Some(&GridIndex::new(0, 0)));
        assert_eq!(visited.last(), Some(&GridIndex::new(8, 0)));
        assert_eq!(visited.len(), 9);
        assert!(visited.iter().all(|i| i.row == 0));
    }

    #[test]
    fn traverse_diagonal_is_connected() {
        let g = grid();
        let mut prev: Option<GridIndex> = None;
        g.traverse_ray(Point2::new(-0.9, -0.9), Point2::new(8.9, 3.9), |idx| {
            if let Some(p) = prev {
                let d = (idx.col - p.col).abs() + (idx.row - p.row).abs();
                assert_eq!(d, 1, "4-connected traversal expected");
            }
            prev = Some(idx);
            true
        });
        assert!(prev.is_some());
    }

    #[test]
    fn traverse_early_stop() {
        let g = grid();
        let mut count = 0;
        g.traverse_ray(Point2::new(-0.75, -0.75), Point2::new(8.0, -0.75), |_| {
            count += 1;
            count < 3
        });
        assert_eq!(count, 3);
    }

    #[test]
    fn traverse_zero_length_visits_once() {
        let g = grid();
        let mut count = 0;
        let p = Point2::new(0.1, 0.1);
        g.traverse_ray(p, p, |_| {
            count += 1;
            true
        });
        assert_eq!(count, 1);
    }

    #[test]
    fn ascii_render_shape() {
        let mut g = grid();
        g.fill(CellState::Free);
        g.set(GridIndex::new(0, 0), CellState::Occupied);
        let art = g.to_ascii(40);
        assert!(art.contains('#'));
        assert!(art.lines().count() == 10);
        // Row 0 is at the bottom.
        assert!(art.lines().last().unwrap().starts_with('#'));
    }

    #[test]
    fn iter_covers_all_cells() {
        let g = grid();
        assert_eq!(g.iter().count(), 200);
    }

    #[test]
    fn fingerprint_is_stable_and_covers_cells() {
        let mut a = grid();
        let b = grid();
        assert_eq!(a.content_fingerprint(), b.content_fingerprint());
        a.set(GridIndex::new(3, 3), CellState::Occupied);
        assert_ne!(a.content_fingerprint(), b.content_fingerprint());
    }

    #[test]
    fn fingerprint_covers_geometry_not_just_cells() {
        // Identical cell rasters, different resolution / origin — these
        // describe different worlds and must not collide.
        let base = OccupancyGrid::new(8, 8, 0.1, Point2::ORIGIN);
        let coarse = OccupancyGrid::new(8, 8, 0.2, Point2::ORIGIN);
        let shifted = OccupancyGrid::new(8, 8, 0.1, Point2::new(1.0, 0.0));
        assert_eq!(base.cells(), coarse.cells());
        assert_ne!(base.content_fingerprint(), coarse.content_fingerprint());
        assert_ne!(base.content_fingerprint(), shifted.content_fingerprint());
    }
}
