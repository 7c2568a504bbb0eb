//! The precomputed 3-D range lookup table.
//!
//! This is the `rangelibc` "giant LUT" mode the paper selects for its
//! GPU-less on-car computer: every `(x, y, θ)` triple in a discretized pose
//! space stores its range, so a query is a single memory read — constant
//! time at the cost of `cells × θ-bins` floats.
//!
//! A table is filled one cell at a time: a cell centre's heading fan is
//! cast on a [`RayMarching`] caster, which marches a block of rays in
//! interleaved rounds. `sin_cos` runs once per heading bin per table, each
//! cell's first probe once per cell, and fans from opaque cells are
//! skipped (their ranges are 0). [`RangeLut::new`] and
//! [`CompressedRangeLut::new`] fill every cell before they return; the
//! [`CompressedRangeLut`] of a [`MapArtifacts`](crate::MapArtifacts)
//! bundle fills a cell the first time a query lands in it, so a cold start
//! pays only for the cells its particles visit. Either way the table is
//! byte-identical to querying the same caster one ray at a time through
//! `from_method`.

use crate::raymarch::fan_dirs;
use crate::{RangeMethod, RayMarching};
use raceloc_map::OccupancyGrid;
use std::f64::consts::TAU;
use std::sync::atomic::{AtomicBool, AtomicU16, Ordering};
use std::sync::{Arc, OnceLock};

/// A dense `(θ, row, col) → range` lookup table.
///
/// # Examples
///
/// ```
/// use raceloc_map::{CellState, OccupancyGrid};
/// use raceloc_core::Point2;
/// use raceloc_range::{RangeLut, RangeMethod};
///
/// let mut grid = OccupancyGrid::new(40, 40, 0.1, Point2::ORIGIN);
/// grid.fill(CellState::Free);
/// for r in 0..40 { grid.set((35i64, r as i64).into(), CellState::Occupied); }
/// let lut = RangeLut::new(&grid, 8.0, 90);
/// let r = lut.range(0.55, 2.0, 0.0);
/// assert!((r - 2.95).abs() < 0.25, "{r}");
/// ```
#[derive(Debug, Clone)]
pub struct RangeLut {
    width: usize,
    height: usize,
    theta_bins: usize,
    resolution: f64,
    origin_x: f64,
    origin_y: f64,
    max_range: f64,
    /// Layout: `table[theta][row][col]` flattened.
    table: Vec<f32>,
}

impl RangeLut {
    /// Precomputes the table with `theta_bins` bins over `[0, 2π)`, marching
    /// each cell centre's heading fan on a [`RayMarching`] caster (one EDT,
    /// ~log-time casts, a block of rays in flight at a time).
    ///
    /// Construction cost is `O(cells × theta_bins × cast)`, minus the
    /// opaque cells, whose fans are skipped; for maps beyond a few hundred
    /// thousand cell-bins prefer building once and sharing.
    ///
    /// # Panics
    ///
    /// Panics when `theta_bins == 0` or `max_range` is not positive/finite.
    pub fn new(grid: &OccupancyGrid, max_range: f64, theta_bins: usize) -> Self {
        let caster = RayMarching::new(grid, max_range);
        let mut lut = Self::zeroed(grid, max_range, theta_bins);
        let dirs = fan_dirs(theta_bins);
        let cells = lut.width * lut.height;
        for cell in 0..cells {
            let table = &mut lut.table;
            caster.cell_fan(&dirs, cell, |k, range| {
                table[k * cells + cell] = range as f32
            });
        }
        lut
    }

    /// Precomputes the table by querying an existing [`RangeMethod`]
    /// (use this to build an exact table from [`crate::BresenhamCasting`]).
    ///
    /// # Panics
    ///
    /// Panics when `theta_bins == 0`.
    pub fn from_method<M: RangeMethod>(
        grid: &OccupancyGrid,
        method: &M,
        theta_bins: usize,
    ) -> Self {
        let mut lut = Self::zeroed(grid, method.max_range(), theta_bins);
        let (w, h) = (lut.width, lut.height);
        let origin = grid.origin();
        for k in 0..theta_bins {
            let theta = k as f64 / theta_bins as f64 * TAU;
            let base = k * w * h;
            for r in 0..h {
                let y = origin.y + (r as f64 + 0.5) * lut.resolution;
                for c in 0..w {
                    let x = origin.x + (c as f64 + 0.5) * lut.resolution;
                    lut.table[base + r * w + c] = method.range(x, y, theta) as f32;
                }
            }
        }
        lut
    }

    /// An all-zero table over `grid`'s geometry.
    fn zeroed(grid: &OccupancyGrid, max_range: f64, theta_bins: usize) -> Self {
        assert!(theta_bins > 0, "theta_bins must be positive");
        let (w, h) = (grid.width(), grid.height());
        let origin = grid.origin();
        Self {
            width: w,
            height: h,
            theta_bins,
            resolution: grid.resolution(),
            origin_x: origin.x,
            origin_y: origin.y,
            max_range,
            table: vec![0.0f32; theta_bins * w * h],
        }
    }

    /// Number of heading bins.
    pub fn theta_bins(&self) -> usize {
        self.theta_bins
    }
}

impl RangeMethod for RangeLut {
    fn max_range(&self) -> f64 {
        self.max_range
    }

    fn range(&self, x: f64, y: f64, theta: f64) -> f64 {
        let c = ((x - self.origin_x) / self.resolution).floor();
        let r = ((y - self.origin_y) / self.resolution).floor();
        if c < 0.0 || r < 0.0 || c as usize >= self.width || r as usize >= self.height {
            return 0.0; // out of map is opaque
        }
        let mut phi = theta % TAU;
        if phi < 0.0 {
            phi += TAU;
        }
        // Nearest heading bin (bins are centred on k·2π/K).
        let k = (phi / TAU * self.theta_bins as f64).round() as usize % self.theta_bins;
        self.table[k * self.width * self.height + r as usize * self.width + c as usize] as f64
    }

    fn memory_bytes(&self) -> usize {
        self.table.len() * std::mem::size_of::<f32>()
    }
}

/// A dense range LUT quantized to u16 fixed-point against `max_range`,
/// stored *cell-major* so one particle's whole beam fan is cache-resident,
/// and filled one cell at a time.
///
/// Three deliberate differences from [`RangeLut`]:
///
/// - **Quantization.** Each entry is `round(range / max_range · 65535)`;
///   decoding multiplies by `scale = max_range / 65535` (≈ 0.15 mm at the
///   paper's 10 m clamp — two orders of magnitude below the 5 cm grid
///   resolution, so the compression is lossless at map scale). Half the
///   footprint of the f32 table means twice the fraction of the table that
///   stays cache-resident under a localized particle cloud.
/// - **Layout.** `table[(row · width + col) · theta_bins + k]`: all heading
///   bins of one cell are contiguous (72 bins × 2 B = 144 B ≈ 3 cache
///   lines), so the fused cast+weight kernel — 60 beams fanned from one
///   sensor cell — touches a handful of lines instead of 60 theta-major
///   planes 2 MB apart.
/// - **Fill on first touch.** The table of a
///   [`MapArtifacts`](crate::MapArtifacts) bundle starts empty and
///   marches a cell's heading fan the first time a query lands in that
///   cell; a particle cloud touches a few thousand of a track's ~40 k free
///   cells. A fill stores the fan's codes (Relaxed) and then the cell's
///   ready flag (Release); a query that loads the flag (Acquire) sees the
///   whole fan. Two threads that touch a new cell at once both march it
///   and store identical codes, so no result depends on which fills
///   first, and every entry is bit-identical to the eager build.
///   [`CompressedRangeLut::new`] and [`CompressedRangeLut::from_method`]
///   fill every cell up front; [`CompressedRangeLut::fill_all`] fills the
///   rest of a lazy table.
///
/// # Examples
///
/// ```
/// use raceloc_map::{CellState, OccupancyGrid};
/// use raceloc_core::Point2;
/// use raceloc_range::{CompressedRangeLut, RangeMethod};
///
/// let mut grid = OccupancyGrid::new(40, 40, 0.1, Point2::ORIGIN);
/// grid.fill(CellState::Free);
/// for r in 0..40 { grid.set((35i64, r as i64).into(), CellState::Occupied); }
/// let lut = CompressedRangeLut::new(&grid, 8.0, 90);
/// let r = lut.range(0.55, 2.0, 0.0);
/// assert!((r - 2.95).abs() < 0.25, "{r}");
/// ```
#[derive(Debug)]
pub struct CompressedRangeLut {
    width: usize,
    height: usize,
    theta_bins: usize,
    resolution: f64,
    origin_x: f64,
    origin_y: f64,
    max_range: f64,
    /// Decode factor: `max_range / 65535`.
    scale: f64,
    /// Layout: `table[(row, col)][theta]` flattened (cell-major).
    table: Box<[AtomicU16]>,
    /// One flag per cell, set once the cell's heading fan is in `table`.
    ready: Box<[AtomicBool]>,
    /// Marches unfilled cells; `None` when every cell was filled at
    /// construction.
    filler: Option<Filler>,
    /// Lazily built code → sensor-bin table for the fused beam fan (see
    /// [`BinCache`]); keyed by the first `(inv_res, max_bin)` pair seen.
    bin_cache: OnceLock<BinCache>,
}

/// What a lazily filled table marches a cell's fan with: the caster it
/// shares with its [`MapArtifacts`](crate::MapArtifacts) bundle, and the
/// heading bins' unit directions.
#[derive(Debug)]
struct Filler {
    caster: Arc<RayMarching>,
    dirs: Box<[(f64, f64)]>,
}

/// Precomputed `u16 range code → sensor range bin` map for one
/// `(inv_res, max_bin)` sensor discretization: each entry is exactly
/// `((decode(code) · inv_res) as u32).min(max_bin)`, so the fused beam fan
/// replaces its per-beam decode/convert/clamp float chain with a single
/// indexed load while producing bit-identical bins.
#[derive(Debug)]
struct BinCache {
    inv_res_bits: u64,
    max_bin: u32,
    /// Indexed directly by the `u16` code; the fixed-size array makes the
    /// lookup bound-check-free in safe Rust.
    bins: Box<[u16; 65536]>,
}

impl CompressedRangeLut {
    /// Precomputes the table with `theta_bins` bins over `[0, 2π)`, marching
    /// each cell centre's heading fan on a [`RayMarching`] caster (one EDT,
    /// ~log-time casts, a block of rays in flight at a time).
    ///
    /// # Panics
    ///
    /// Panics when `theta_bins == 0` or `max_range` is not positive/finite.
    pub fn new(grid: &OccupancyGrid, max_range: f64, theta_bins: usize) -> Self {
        let mut lut = Self::lazy(Arc::new(RayMarching::new(grid, max_range)), theta_bins);
        lut.fill_all();
        // Every cell is filled: the caster has no work left.
        lut.filler = None;
        lut
    }

    /// An empty table over `caster`'s grid and `max_range` that marches
    /// each cell's fan on that caster the first time a query lands in it.
    pub(crate) fn lazy(caster: Arc<RayMarching>, theta_bins: usize) -> Self {
        let mut lut = Self::empty(caster.grid(), caster.max_range(), theta_bins);
        lut.filler = Some(Filler {
            caster,
            dirs: fan_dirs(theta_bins),
        });
        lut
    }

    /// Precomputes the table by querying an existing [`RangeMethod`] at
    /// every cell center and heading bin, quantizing each result.
    ///
    /// # Panics
    ///
    /// Panics when `theta_bins == 0` or the method's `max_range` is not
    /// positive/finite.
    pub fn from_method<M: RangeMethod>(
        grid: &OccupancyGrid,
        method: &M,
        theta_bins: usize,
    ) -> Self {
        let lut = Self::empty(grid, method.max_range(), theta_bins);
        let (w, h) = (lut.width, lut.height);
        let (res, origin) = (lut.resolution, grid.origin());
        for r in 0..h {
            let y = origin.y + (r as f64 + 0.5) * res;
            for c in 0..w {
                let x = origin.x + (c as f64 + 0.5) * res;
                let cell = r * w + c;
                for (k, code) in lut.cell_codes(cell).iter().enumerate() {
                    let theta = k as f64 / theta_bins as f64 * TAU;
                    code.store(lut.code(method.range(x, y, theta)), Ordering::Relaxed);
                }
                lut.ready[cell].store(true, Ordering::Release);
            }
        }
        lut
    }

    /// An all-zero table over `grid`'s geometry with no cell filled.
    fn empty(grid: &OccupancyGrid, max_range: f64, theta_bins: usize) -> Self {
        assert!(theta_bins > 0, "theta_bins must be positive");
        assert!(
            max_range.is_finite() && max_range > 0.0,
            "max_range must be positive"
        );
        let (w, h) = (grid.width(), grid.height());
        let origin = grid.origin();
        Self {
            width: w,
            height: h,
            theta_bins,
            resolution: grid.resolution(),
            origin_x: origin.x,
            origin_y: origin.y,
            max_range,
            scale: max_range / f64::from(u16::MAX),
            table: (0..w * h * theta_bins).map(|_| AtomicU16::new(0)).collect(),
            ready: (0..w * h).map(|_| AtomicBool::new(false)).collect(),
            filler: None,
            bin_cache: OnceLock::new(),
        }
    }

    /// The u16 code of a range: `round(range / max_range · 65535)` after
    /// clamping to `[0, max_range]`.
    fn code(&self, range: f64) -> u16 {
        (range.clamp(0.0, self.max_range) * (f64::from(u16::MAX) / self.max_range)).round() as u16
    }

    /// The codes of `cell`'s heading fan, as stored: possibly unfilled.
    fn cell_codes(&self, cell: usize) -> &[AtomicU16] {
        let base = cell * self.theta_bins;
        &self.table[base..base + self.theta_bins]
    }

    /// The codes of `cell`'s heading fan, marched first if no query has
    /// touched the cell yet.
    #[inline(always)]
    fn fan(&self, cell: usize) -> &[AtomicU16] {
        if !self.ready[cell].load(Ordering::Acquire) {
            self.fill(cell);
        }
        self.cell_codes(cell)
    }

    /// Marches `cell`'s heading fan into the table and marks it filled.
    /// Allocates nothing.
    #[cold]
    #[inline(never)]
    fn fill(&self, cell: usize) {
        // Only `lazy` tables leave cells unfilled, and they have a filler.
        let Some(filler) = &self.filler else {
            return;
        };
        let codes = self.cell_codes(cell);
        filler.caster.cell_fan(&filler.dirs, cell, |k, range| {
            codes[k].store(self.code(range), Ordering::Relaxed);
        });
        self.ready[cell].store(true, Ordering::Release);
    }

    /// Fills every cell that no query has touched yet, so that no later
    /// query pays a fill: the whole-table build behind
    /// [`CompressedRangeLut::new`], and the prefill for callers that time
    /// steady-state queries only.
    pub fn fill_all(&self) {
        for (cell, ready) in self.ready.iter().enumerate() {
            if !ready.load(Ordering::Acquire) {
                self.fill(cell);
            }
        }
    }

    /// Number of cells whose heading fan is in the table. An opaque
    /// cell's fan is all zeros; it counts once a query or a fill has
    /// touched it.
    pub fn cells_filled(&self) -> usize {
        self.ready
            .iter()
            .filter(|ready| ready.load(Ordering::Relaxed))
            .count()
    }

    /// Number of heading bins.
    pub fn theta_bins(&self) -> usize {
        self.theta_bins
    }

    /// The quantization step in meters (`max_range / 65535`); decoded
    /// ranges differ from the stored f64 by at most half this step.
    pub fn quantization_step(&self) -> f64 {
        self.scale
    }

    /// Builds the code → sensor-bin table for one `(inv_res, max_bin)`
    /// discretization, entry-by-entry identical to the uncached decode
    /// chain. A `max_bin` beyond `u16::MAX` cannot be represented in the
    /// `u16` entries; the use site checks that bound before trusting the
    /// cache, so the table contents are then irrelevant.
    fn build_bin_cache(&self, inv_res: f64, max_bin: u32) -> BinCache {
        let mut bins = Box::new([0u16; 65536]);
        if max_bin <= u32::from(u16::MAX) {
            for (code, bin) in bins.iter_mut().enumerate() {
                let e = f64::from(code as u16) * self.scale;
                *bin = ((e * inv_res) as u32).min(max_bin) as u16;
            }
        }
        BinCache {
            inv_res_bits: inv_res.to_bits(),
            max_bin,
            bins,
        }
    }
}

impl RangeMethod for CompressedRangeLut {
    fn max_range(&self) -> f64 {
        self.max_range
    }

    fn range(&self, x: f64, y: f64, theta: f64) -> f64 {
        let c = ((x - self.origin_x) / self.resolution).floor();
        let r = ((y - self.origin_y) / self.resolution).floor();
        if c < 0.0 || r < 0.0 || c as usize >= self.width || r as usize >= self.height {
            return 0.0; // out of map is opaque
        }
        let mut phi = theta % TAU;
        if phi < 0.0 {
            phi += TAU;
        }
        // Nearest heading bin (bins are centred on k·2π/K).
        let k = (phi / TAU * self.theta_bins as f64).round() as usize % self.theta_bins;
        let fan = self.fan(r as usize * self.width + c as usize);
        f64::from(fan[k].load(Ordering::Relaxed)) * self.scale
    }

    fn beam_bins_into(
        &self,
        x: f64,
        y: f64,
        theta: f64,
        bearings: &[f64],
        inv_res: f64,
        max_bin: u32,
        out: &mut [u32],
    ) {
        assert_eq!(bearings.len(), out.len(), "bearing/output length mismatch");
        // Truncation equals `floor` for non-negative operands, so checking
        // the sign first keeps the cell lookup free of libm `floor` calls.
        let dx = x - self.origin_x;
        let dy = y - self.origin_y;
        if !(dx >= 0.0 && dy >= 0.0) {
            out.fill(0); // out of map is opaque: range 0 → bin 0
            return;
        }
        let c = (dx / self.resolution) as usize;
        let r = (dy / self.resolution) as usize;
        if c >= self.width || r >= self.height {
            out.fill(0);
            return;
        }
        let row = self.fan(r * self.width + c);
        // One-division range reduction instead of libm `fmod`: the result
        // can land one ULP outside [0, 2π), which the index wrap below
        // absorbs (same one-bin boundary wobble as the fused rounding).
        // Astronomical headings lose precision here; they (and NaN) fail
        // the range test below and take the `rem_euclid` path instead.
        let mut phi = theta - TAU * ((theta * (1.0 / TAU)) as i64 as f64);
        if phi < 0.0 {
            phi += TAU;
        }
        let phi_reduced = (0.0..=TAU).contains(&phi);
        let kb = self.theta_bins as f64 / TAU;
        let kn = self.theta_bins as i64;
        let phik = phi * kb;
        // Lidar bearings are at most one full turn; with that bound the
        // rounded bin index lies in [-kn, 2kn] and the wrap reduces to one
        // conditional add and two conditional subtracts — no integer
        // division (`rem_euclid`) in the per-beam hot loop. Rounding is a
        // biased truncation (`+ kn + 0.5` keeps the operand positive, so
        // `as i64` is a single trunc instruction rather than a libm
        // `round` call); it differs from `round()` only on exact-tie
        // inputs, which is within the documented one-bin boundary wobble.
        // Bearing bound test as an integer max-reduction (absolute value is
        // a mask, non-negative floats order like their bit patterns, NaN
        // maps above everything): unlike the early-exit float loop, this
        // vectorizes, and it runs once per fan call.
        let worst_bearing = bearings
            .iter()
            .fold(0u64, |m, b| m.max(b.to_bits() & 0x7fff_ffff_ffff_ffff));
        if phi_reduced && worst_bearing <= TAU.to_bits() {
            let bias = kn as f64 + 0.5;
            let cache = self
                .bin_cache
                .get_or_init(|| self.build_bin_cache(inv_res, max_bin));
            if cache.inv_res_bits == inv_res.to_bits()
                && cache.max_bin == max_bin
                && max_bin <= u32::from(u16::MAX)
            {
                let phib = phik + bias;
                let last = row.len() - 1;
                // Two passes: the heading-bin arithmetic is branch- and
                // load-free, so it autovectorizes; the dependent table
                // gathers stay in their own scalar loop.
                for (o, &b) in out.iter_mut().zip(bearings) {
                    // `phi·kb + b·kb` can differ from the scalar path's
                    // `((theta + b) mod 2π)·kb` by one ULP, so the chosen
                    // heading bin may differ by one exactly at a bin
                    // boundary; the cached code → bin map below reproduces
                    // `range()` + the trait default's decode bit-for-bit.
                    let mut k = (phib + b * kb) as i64 - kn;
                    k += kn & (k >> 63);
                    k -= kn * i64::from(k >= kn);
                    k -= kn * i64::from(k >= kn);
                    *o = k as u32;
                }
                for o in out.iter_mut() {
                    // `min` proves the index in-bounds (the wrap above
                    // already bounds it), eliding the panic branch.
                    let code = row[(*o as usize).min(last)].load(Ordering::Relaxed);
                    *o = u32::from(cache.bins[usize::from(code)]);
                }
            } else {
                // A second sensor discretization queried this table; serve
                // it with the (equivalent) uncached decode chain.
                for (o, &b) in out.iter_mut().zip(bearings) {
                    let mut k = (phik + b * kb + bias) as i64 - kn;
                    k += kn & (k >> 63);
                    k -= kn * i64::from(k >= kn);
                    k -= kn * i64::from(k >= kn);
                    let e = f64::from(row[k as usize].load(Ordering::Relaxed)) * self.scale;
                    *o = ((e * inv_res) as u32).min(max_bin);
                }
            }
        } else {
            for (o, &b) in out.iter_mut().zip(bearings) {
                let k = ((phik + b * kb).round() as i64).rem_euclid(kn) as usize;
                let e = f64::from(row[k].load(Ordering::Relaxed)) * self.scale;
                *o = ((e * inv_res) as u32).min(max_bin);
            }
        }
    }

    /// The code table's bytes; the per-cell ready flags add one byte per
    /// cell on top (under 1 % at 72 heading bins).
    fn memory_bytes(&self) -> usize {
        self.table.len() * std::mem::size_of::<AtomicU16>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{room_with_pillar, square_room};
    use crate::BresenhamCasting;
    use raceloc_core::Point2;
    use raceloc_map::CellState;

    #[test]
    fn agrees_with_bresenham_at_bin_angles() {
        let g = room_with_pillar();
        let bres = BresenhamCasting::new(&g, 20.0);
        let lut = RangeLut::from_method(&g, &bres, 72);
        for i in 0..200 {
            let x = 1.05 + (i % 17) as f64 * 0.45;
            let y = 1.05 + (i % 13) as f64 * 0.55;
            if g.state_at_world(Point2::new(x, y)) != CellState::Free {
                continue;
            }
            let k = i % 72;
            let theta = k as f64 / 72.0 * TAU;
            // LUT quantizes position to the cell center; compare against the
            // caster evaluated at exactly that center.
            let center = g.index_to_world(g.world_to_index(Point2::new(x, y)));
            let want = bres.range(center.x, center.y, theta) as f32 as f64;
            assert!((lut.range(x, y, theta) - want).abs() < 1e-6);
        }
    }

    #[test]
    fn off_bin_angle_snaps_to_nearest() {
        let g = square_room();
        let lut = RangeLut::new(&g, 20.0, 4);
        // 4 bins → bin centres at 0°, 90°, 180°, 270°. 40° snaps to 90°.
        let snapped = lut.range(5.05, 5.05, 40.0f64.to_radians());
        let exact_bin = lut.range(5.05, 5.05, std::f64::consts::FRAC_PI_2);
        assert_eq!(snapped, exact_bin);
    }

    #[test]
    fn theta_wraps_around() {
        let g = square_room();
        let lut = RangeLut::new(&g, 20.0, 36);
        let a = lut.range(5.0, 5.0, 0.1);
        let b = lut.range(5.0, 5.0, 0.1 + TAU);
        let c = lut.range(5.0, 5.0, 0.1 - TAU);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn out_of_map_is_zero() {
        let g = square_room();
        let lut = RangeLut::new(&g, 20.0, 8);
        assert_eq!(lut.range(-1.0, 5.0, 0.0), 0.0);
        assert_eq!(lut.range(5.0, 11.0, 0.0), 0.0);
    }

    #[test]
    fn memory_matches_layout() {
        let g = square_room();
        let lut = RangeLut::new(&g, 20.0, 10);
        assert_eq!(lut.memory_bytes(), 10 * 100 * 100 * 4);
        assert_eq!(lut.theta_bins(), 10);
    }

    #[test]
    #[should_panic(expected = "theta_bins")]
    fn zero_bins_panics() {
        RangeLut::new(&square_room(), 10.0, 0);
    }

    /// The u16 error bound the quantization step promises: decoding can be
    /// off by at most half a step from the f32 table (plus the f32 table's
    /// own single-precision rounding of the source f64).
    #[test]
    fn compressed_vs_f32_error_is_bounded_by_the_quantization_step() {
        let g = room_with_pillar();
        let bres = BresenhamCasting::new(&g, 20.0);
        let f32lut = RangeLut::from_method(&g, &bres, 24);
        let c16lut = CompressedRangeLut::from_method(&g, &bres, 24);
        let bound = c16lut.quantization_step() / 2.0 + 1e-5;
        assert!((c16lut.quantization_step() - 20.0 / 65535.0).abs() < 1e-12);
        let mut worst = 0.0f64;
        for i in 0..4000 {
            let x = 0.3 + (i % 31) as f64 * 0.31;
            let y = 0.3 + (i % 29) as f64 * 0.33;
            let t = i as f64 * 0.173;
            let err = (c16lut.range(x, y, t) - f32lut.range(x, y, t)).abs();
            worst = worst.max(err);
        }
        assert!(worst <= bound, "worst {worst} > bound {bound}");
        assert!(worst > 0.0, "some quantization must actually occur");
    }

    #[test]
    fn compressed_fan_matches_scalar_at_bin_angles() {
        let g = room_with_pillar();
        let lut = CompressedRangeLut::new(&g, 20.0, 72);
        let step = TAU / 72.0;
        let bearings: Vec<f64> = (0..16).map(|i| (i as f64 - 8.0) * step).collect();
        let inv_res = 1.0 / 0.05;
        let max_bin = 200;
        let mut out = vec![0u32; bearings.len()];
        for i in 0..60 {
            let x = 1.05 + (i % 9) as f64 * 0.95;
            let y = 1.05 + (i % 7) as f64 * 1.15;
            let theta = (i % 72) as f64 * step;
            lut.beam_bins_into(x, y, theta, &bearings, inv_res, max_bin, &mut out);
            for (j, &b) in bearings.iter().enumerate() {
                let want = ((lut.range(x, y, theta + b) * inv_res) as u32).min(max_bin);
                assert_eq!(out[j], want, "pose {i} beam {j}");
            }
        }
    }

    /// Off bin centers the fused fan may pick a heading bin one off from the
    /// scalar path (ULP wobble at bin boundaries), but never anything else.
    #[test]
    fn compressed_fan_off_bin_wobble_is_at_most_one_heading_bin() {
        let g = room_with_pillar();
        let lut = CompressedRangeLut::new(&g, 20.0, 72);
        let bearings: Vec<f64> = (0..24).map(|i| -1.9 + i as f64 * 0.163).collect();
        let inv_res = 1.0 / 0.05;
        let max_bin = 200;
        let mut out = vec![0u32; bearings.len()];
        for i in 0..80 {
            let x = 1.03 + (i % 11) as f64 * 0.81;
            let y = 1.07 + (i % 8) as f64 * 1.03;
            let theta = i as f64 * 0.377 - 12.0;
            lut.beam_bins_into(x, y, theta, &bearings, inv_res, max_bin, &mut out);
            for (j, &b) in bearings.iter().enumerate() {
                let candidates: Vec<u32> = (-1..=1)
                    .map(|d| {
                        let t = theta + b + d as f64 * TAU / 72.0;
                        ((lut.range(x, y, t) * inv_res) as u32).min(max_bin)
                    })
                    .collect();
                assert!(
                    candidates.contains(&out[j]),
                    "pose {i} beam {j}: {} not in {candidates:?}",
                    out[j]
                );
            }
        }
    }

    #[test]
    fn compressed_fan_out_of_map_is_all_zero_bins() {
        let g = square_room();
        let lut = CompressedRangeLut::new(&g, 20.0, 8);
        let bearings = [0.0, 0.5, -0.5];
        let mut out = [7u32; 3];
        lut.beam_bins_into(-3.0, 5.0, 0.2, &bearings, 20.0, 100, &mut out);
        assert_eq!(out, [0, 0, 0]);
        assert_eq!(lut.range(-3.0, 5.0, 0.2), 0.0);
    }

    /// The default trait fan (used by every non-LUT method) must agree with
    /// a hand-rolled loop over `range()` exactly.
    #[test]
    fn default_beam_bins_matches_scalar_loop() {
        let g = room_with_pillar();
        let bres = BresenhamCasting::new(&g, 20.0);
        let bearings: Vec<f64> = (0..12).map(|i| -1.2 + i as f64 * 0.21).collect();
        let mut out = vec![0u32; bearings.len()];
        bres.beam_bins_into(3.1, 4.2, 0.7, &bearings, 20.0, 150, &mut out);
        for (j, &b) in bearings.iter().enumerate() {
            let want = ((bres.range(3.1, 4.2, 0.7 + b) * 20.0) as u32).min(150);
            assert_eq!(out[j], want);
        }
    }

    #[test]
    fn compressed_theta_wraps_around() {
        let g = square_room();
        let lut = CompressedRangeLut::new(&g, 20.0, 36);
        let a = lut.range(5.0, 5.0, 0.1);
        assert_eq!(a, lut.range(5.0, 5.0, 0.1 + TAU));
        assert_eq!(a, lut.range(5.0, 5.0, 0.1 - TAU));
    }

    #[test]
    fn compressed_memory_is_half_the_f32_table() {
        let g = square_room();
        let f32lut = RangeLut::new(&g, 20.0, 10);
        let c16lut = CompressedRangeLut::new(&g, 20.0, 10);
        assert_eq!(c16lut.memory_bytes(), 10 * 100 * 100 * 2);
        assert_eq!(c16lut.memory_bytes() * 2, f32lut.memory_bytes());
        assert_eq!(c16lut.theta_bins(), 10);
    }

    #[test]
    #[should_panic(expected = "theta_bins")]
    fn compressed_zero_bins_panics() {
        CompressedRangeLut::new(&square_room(), 10.0, 0);
    }
}
