//! Sphere-tracing ray casting on a Euclidean distance transform.
//!
//! A single cast is one serial dependency chain — divide, floor, EDT load,
//! advance — so batches are marched in interleaved rounds instead: a
//! fixed block of rays each takes one probe per round, and the
//! independent chains overlap in the core. Every ray still runs exactly
//! the float ops of the scalar [`RangeMethod::range`], in the same order,
//! so batched results are bit-identical to per-query ones.

use crate::RangeMethod;
use raceloc_core::Point2;
use raceloc_map::{DistanceMap, OccupancyGrid};
use std::f64::consts::TAU;

/// Rays in flight per marching round: enough independent chains to hide
/// the probe latency, few enough that the lane state stays in L1.
const BLOCK: usize = 8;

/// One ray of a marched batch: origin, unit direction, distance marched
/// so far, probes taken so far, and the output slot its range goes to.
#[derive(Debug, Clone, Copy, Default)]
struct Ray {
    x: f64,
    y: f64,
    c: f64,
    s: f64,
    t: f64,
    steps: usize,
    slot: usize,
}

/// Casts rays by "sphere tracing": from the current point, the distance
/// transform bounds how far the ray can safely advance without crossing an
/// obstacle, so most queries converge in a handful of steps.
///
/// Accuracy is bounded by the stop threshold (one cell by default); speed
/// degrades gracefully for rays that graze long walls.
///
/// # Examples
///
/// ```
/// use raceloc_map::{CellState, OccupancyGrid};
/// use raceloc_core::Point2;
/// use raceloc_range::{RayMarching, RangeMethod};
///
/// let mut grid = OccupancyGrid::new(60, 60, 0.1, Point2::ORIGIN);
/// grid.fill(CellState::Free);
/// for r in 0..60 { grid.set((59i64, r as i64).into(), CellState::Occupied); }
/// let rm = RayMarching::new(&grid, 10.0);
/// assert!((rm.range(1.0, 3.0, 0.0) - 4.9).abs() < 0.15);
/// ```
#[derive(Debug, Clone)]
pub struct RayMarching {
    dist: DistanceMap,
    grid: OccupancyGrid,
    max_range: f64,
    /// Consider a hit possible once the distance field drops below this
    /// (meters); the actual cell is then checked for opacity so that rays
    /// grazing an obstacle do not terminate early.
    threshold: f64,
    /// Minimum step to guarantee progress along grazing rays (meters).
    min_step: f64,
    /// Probe budget per ray: the worst case, every step advancing
    /// `min_step`.
    max_steps: usize,
}

impl RayMarching {
    /// Builds the distance transform and returns a caster.
    ///
    /// Construction is one `O(cells)` EDT plus a copy of the grid for the
    /// opacity test: 5 bytes per cell in all.
    ///
    /// # Panics
    ///
    /// Panics when `max_range` is not positive and finite.
    pub fn new(grid: &OccupancyGrid, max_range: f64) -> Self {
        assert!(
            max_range.is_finite() && max_range > 0.0,
            "max_range must be positive"
        );
        let res = grid.resolution();
        let min_step = res * 0.4;
        Self {
            dist: DistanceMap::from_grid(grid),
            grid: grid.clone(),
            max_range,
            threshold: res,
            min_step,
            max_steps: (max_range / min_step).ceil() as usize + 2,
        }
    }

    /// The occupancy grid the caster marches through.
    pub fn grid(&self) -> &OccupancyGrid {
        &self.grid
    }

    /// The exact Euclidean distance transform of [`RayMarching::grid`].
    pub fn edt(&self) -> &DistanceMap {
        &self.dist
    }

    /// The number of marching steps used for a query (diagnostic, used by
    /// the method-comparison ablation).
    pub fn steps(&self, x: f64, y: f64, theta: f64) -> usize {
        self.cast(x, y, theta).1
    }

    /// Whether a ray at distance `t` after `steps` probes keeps marching.
    #[inline(always)]
    fn marching(&self, t: f64, steps: usize) -> bool {
        t < self.max_range && steps < self.max_steps
    }

    /// One probe at distance `t` along the ray `(x, y) + t·(c, s)`: `None`
    /// when the probe sits in an opaque cell (a hit at `t`), else how far
    /// the ray may advance.
    #[inline(always)]
    fn probe(&self, x: f64, y: f64, c: f64, s: f64, t: f64) -> Option<f64> {
        let idx = self.grid.world_to_index(Point2::new(x + c * t, y + s * t));
        let d = self.dist.distance(idx);
        if d < self.threshold {
            // Close to a surface: only terminate if the ray has actually
            // entered an opaque cell; otherwise creep forward so rays
            // that merely graze an obstacle keep going.
            if self.grid.is_opaque(idx) {
                return None;
            }
            Some(self.min_step)
        } else {
            Some(d)
        }
    }

    fn cast(&self, x: f64, y: f64, theta: f64) -> (f64, usize) {
        let (s, c) = theta.sin_cos();
        let mut t = 0.0f64;
        let mut steps = 0usize;
        while self.marching(t, steps) {
            match self.probe(x, y, c, s, t) {
                Some(advance) => t += advance,
                None => return (t, steps),
            }
            steps += 1;
        }
        (self.max_range, steps)
    }

    /// Marches every ray of `rays` to its range — the clamped value
    /// [`RangeMethod::range`] returns — and hands it to `emit` with the
    /// ray's slot. Rays run [`BLOCK`] at a time, one probe each per round;
    /// a finished ray's lane is refilled from `rays` at once, so the block
    /// stays full until the source runs dry. Emission order is completion
    /// order, not source order.
    fn march(&self, mut rays: impl Iterator<Item = Ray>, mut emit: impl FnMut(usize, f64)) {
        let mut lanes = [Ray::default(); BLOCK];
        let mut live = 0usize;
        while live < BLOCK {
            match self.admit(&mut rays, &mut emit) {
                Some(ray) => lanes[live] = ray,
                None => break,
            }
            live += 1;
        }
        while live > 0 {
            let mut i = 0usize;
            while i < live {
                let ray = &mut lanes[i];
                match self.probe(ray.x, ray.y, ray.c, ray.s, ray.t) {
                    Some(advance) => {
                        ray.t += advance;
                        ray.steps += 1;
                        if self.marching(ray.t, ray.steps) {
                            i += 1;
                            continue;
                        }
                        emit(ray.slot, self.max_range);
                    }
                    None => emit(ray.slot, ray.t.clamp(0.0, self.max_range)),
                }
                // Lane `i` is free: refill it, or move the last live lane
                // (not yet probed this round) into it.
                match self.admit(&mut rays, &mut emit) {
                    Some(ray) => {
                        lanes[i] = ray;
                        i += 1;
                    }
                    None => {
                        live -= 1;
                        lanes[i] = lanes[live];
                    }
                }
            }
        }
    }

    /// Pulls the next ray that still has marching to do, emitting
    /// `max_range` for any that start out of budget.
    #[inline(always)]
    fn admit(
        &self,
        rays: &mut impl Iterator<Item = Ray>,
        emit: &mut impl FnMut(usize, f64),
    ) -> Option<Ray> {
        for ray in rays.by_ref() {
            if self.marching(ray.t, ray.steps) {
                return Some(ray);
            }
            emit(ray.slot, self.max_range);
        }
        None
    }

    /// Casts the heading fan of every cell centre — heading bin `k` at
    /// `k / theta_bins · 2π`, cells row-major — and hands each range to
    /// `emit` at `slot(cell, k)`; the range-LUT build. `sin_cos` runs once
    /// per bin, and each cell's first probe once per cell: at `t = 0` every
    /// ray of the fan samples the cell centre. Fans from opaque cells,
    /// whose every range is 0, are skipped without an `emit`.
    pub(crate) fn cell_fans(
        &self,
        theta_bins: usize,
        slot: impl Fn(usize, usize) -> usize,
        emit: impl FnMut(usize, f64),
    ) {
        let dirs: Vec<(f64, f64)> = (0..theta_bins)
            .map(|k| {
                let (s, c) = (k as f64 / theta_bins as f64 * TAU).sin_cos();
                (c, s)
            })
            .collect();
        let (w, h) = (self.grid.width(), self.grid.height());
        let res = self.grid.resolution();
        let origin = self.grid.origin();
        let (c0, s0) = dirs[0];
        let slot = &slot;
        let dirs = &dirs;
        let rays = (0..h)
            .flat_map(|r| (0..w).map(move |c| (r, c)))
            .filter_map(|(r, c)| {
                let y = origin.y + (r as f64 + 0.5) * res;
                let x = origin.x + (c as f64 + 0.5) * res;
                // `x + c·0 == x` for every finite direction, so bin 0's
                // first probe is every bin's.
                let t = self.probe(x, y, c0, s0, 0.0)?;
                Some((r * w + c, x, y, t))
            })
            .flat_map(move |(cell, x, y, t)| {
                dirs.iter().enumerate().map(move |(k, &(c, s))| Ray {
                    x,
                    y,
                    c,
                    s,
                    t,
                    steps: 1,
                    slot: slot(cell, k),
                })
            });
        self.march(rays, emit);
    }
}

impl RangeMethod for RayMarching {
    fn max_range(&self) -> f64 {
        self.max_range
    }

    fn range(&self, x: f64, y: f64, theta: f64) -> f64 {
        self.cast(x, y, theta).0.clamp(0.0, self.max_range)
    }

    // analyze:steady-state
    fn ranges_into(&self, queries: &[(f64, f64, f64)], out: &mut [f64]) {
        assert_eq!(queries.len(), out.len(), "query/output length mismatch");
        let rays = queries.iter().enumerate().map(|(slot, &(x, y, theta))| {
            let (s, c) = theta.sin_cos();
            Ray {
                x,
                y,
                c,
                s,
                t: 0.0,
                steps: 0,
                slot,
            }
        });
        self.march(rays, |slot, range| out[slot] = range);
    }

    fn memory_bytes(&self) -> usize {
        // The EDT's f32 plus the grid copy's one-byte state per cell.
        self.dist.width()
            * self.dist.height()
            * (std::mem::size_of::<f32>() + std::mem::size_of::<u8>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{room_with_pillar, square_room};
    use crate::{BresenhamCasting, RangeMethod};
    use std::f64::consts::PI;

    #[test]
    fn agrees_with_bresenham_in_room() {
        // Ray marching is an *approximate* method: rays that clip a tiny
        // corner chord of an obstacle can be missed entirely (same behavior
        // as rangelibc). The contract is tight agreement in the bulk with
        // rare outliers, which is what this test asserts.
        let g = room_with_pillar();
        let rm = RayMarching::new(&g, 20.0);
        let bres = BresenhamCasting::new(&g, 20.0);
        let mut n = 0usize;
        let mut outliers = 0usize;
        let mut total = 0.0f64;
        for i in 0..400 {
            let x = 1.0 + (i % 17) as f64 * 0.5;
            let y = 1.0 + (i % 13) as f64 * 0.6;
            let t = i as f64 * 0.177;
            if g.state_at_world(raceloc_core::Point2::new(x, y)) != raceloc_map::CellState::Free {
                continue;
            }
            let d = (rm.range(x, y, t) - bres.range(x, y, t)).abs();
            n += 1;
            if d > 0.3 {
                outliers += 1;
            } else {
                total += d;
            }
        }
        assert!(n > 250);
        assert!(
            outliers as f64 <= 0.02 * n as f64,
            "{outliers}/{n} outliers"
        );
        let mean_bulk = total / (n - outliers) as f64;
        assert!(mean_bulk < 0.06, "bulk mean error {mean_bulk}");
    }

    #[test]
    fn starting_on_obstacle_returns_zero() {
        let g = square_room();
        let rm = RayMarching::new(&g, 20.0);
        assert!(rm.range(0.05, 5.0, 0.0) < 0.15);
    }

    #[test]
    fn open_direction_hits_max_range() {
        let g = square_room();
        let rm = RayMarching::new(&g, 3.0);
        assert_eq!(rm.range(5.0, 5.0, PI / 3.0), 3.0);
    }

    #[test]
    fn converges_in_few_steps_in_open_space() {
        let g = square_room();
        let rm = RayMarching::new(&g, 20.0);
        // Pointing at a wall from the middle: should take ≪ range/res steps.
        assert!(rm.steps(5.0, 5.0, 0.0) < 20);
    }

    #[test]
    fn grazing_ray_terminates() {
        let g = square_room();
        let rm = RayMarching::new(&g, 20.0);
        // Nearly parallel to the bottom wall, just above it.
        let r = rm.range(0.3, 0.25, 0.02);
        assert!(r.is_finite() && r > 0.0);
    }

    #[test]
    fn memory_accounting_positive() {
        let g = square_room();
        let rm = RayMarching::new(&g, 20.0);
        assert_eq!(rm.memory_bytes(), 100 * 100 * 5);
    }
}
