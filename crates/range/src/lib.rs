#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! Fast 2-D ray casting for localization — a from-scratch reimplementation
//! of the `rangelibc` library (Walsh & Karaman, ICRA 2018) that the paper's
//! SynPF uses to evaluate its sensor model.
//!
//! Four query methods are provided behind the [`RangeMethod`] trait:
//!
//! | Method | Construction | Query | Memory |
//! |---|---|---|---|
//! | [`BresenhamCasting`] | none | O(range/res) | none |
//! | [`RayMarching`] | O(cells) EDT | O(log range) typical | 1 float + 1 byte/cell |
//! | [`Cddt`] | O(θ-bins · occupied) | O(log obstacles) | compressed |
//! | [`RangeLut`] | O(θ-bins · cells · query) | **O(1)** | 1 float/cell/θ-bin |
//! | [`CompressedRangeLut`] | O(θ-bins · cells · query) | **O(1)** | 2 bytes/cell/θ-bin |
//!
//! The paper's headline experiment runs on a GPU-less Intel NUC using the
//! LUT mode; [`RangeLut`] reproduces that configuration. The GPU ray-casting
//! mode of `rangelibc` is substituted by [`RangeMethod::par_ranges_into`],
//! which fans a query batch across OS threads using the deterministic
//! static chunk layout from `raceloc-par` (see DESIGN.md §1, §11);
//! [`PooledCaster`] runs the same layout on a persistent worker pool so
//! long-lived callers avoid per-batch thread spawns, and
//! [`RangeMethod::par_ranges_traced`] additionally records the batch span
//! and query count into a [`raceloc_obs::Telemetry`] handle.
//!
//! # Examples
//!
//! ```
//! use raceloc_map::{CellState, OccupancyGrid};
//! use raceloc_core::Point2;
//! use raceloc_range::{BresenhamCasting, RangeMethod};
//!
//! let mut grid = OccupancyGrid::new(100, 100, 0.1, Point2::ORIGIN);
//! grid.fill(CellState::Free);
//! for r in 0..100 {
//!     grid.set((99i64, r as i64).into(), CellState::Occupied);
//! }
//! let caster = BresenhamCasting::new(&grid, 12.0);
//! let range = caster.range(0.05, 5.0, 0.0); // looking +x at the wall
//! assert!((range - 9.9).abs() < 0.2);
//! ```

pub mod artifacts;
pub mod batch;
pub mod bresenham;
pub mod cddt;
pub mod lut;
pub mod pooled;
pub mod raymarch;

pub use artifacts::{ArtifactParams, ArtifactStore, MapArtifacts};
pub use bresenham::BresenhamCasting;
pub use cddt::Cddt;
pub use lut::{CompressedRangeLut, RangeLut};
pub use pooled::PooledCaster;
pub use raymarch::RayMarching;

/// A 2-D range query oracle: "standing at `(x, y)` looking along `theta`,
/// how far is the nearest obstacle?"
///
/// Implementations clamp results to [`RangeMethod::max_range`] and treat
/// out-of-map space as opaque, so a query from outside the map returns `0`.
pub trait RangeMethod: Send + Sync {
    /// The configured maximum sensor range in meters.
    fn max_range(&self) -> f64;

    /// Casts a single ray; returns the distance to the first opaque cell in
    /// meters, clamped to `[0, max_range]`.
    fn range(&self, x: f64, y: f64, theta: f64) -> f64;

    /// Casts many rays, writing into `out`.
    ///
    /// The default implementation is a sequential loop;
    /// [`RangeMethod::par_ranges_into`] offers a parallel driver for large
    /// batches.
    ///
    /// # Panics
    ///
    /// Panics when `queries.len() != out.len()`.
    fn ranges_into(&self, queries: &[(f64, f64, f64)], out: &mut [f64]) {
        assert_eq!(queries.len(), out.len(), "query/output length mismatch");
        for (o, &(x, y, t)) in out.iter_mut().zip(queries) {
            *o = self.range(x, y, t);
        }
    }

    /// Casts a batch of queries in parallel over up to `threads` scoped OS
    /// threads, writing results into `out` in query order. With
    /// `threads <= 1` this degenerates to the sequential
    /// [`RangeMethod::ranges_into`].
    ///
    /// This is a provided method (all implementations share the chunk
    /// fan-out), and the trait remains object-safe: `&dyn RangeMethod`
    /// callers get parallelism too.
    ///
    /// # Panics
    ///
    /// Panics when `queries.len() != out.len()`.
    fn par_ranges_into(&self, queries: &[(f64, f64, f64)], out: &mut [f64], threads: usize) {
        batch::chunked_cast(self, queries, out, threads);
    }

    /// [`RangeMethod::par_ranges_into`] with telemetry: records the whole
    /// batch under the `range.batch` span and bumps the
    /// `range.queries` counter by the batch size.
    fn par_ranges_traced(
        &self,
        queries: &[(f64, f64, f64)],
        out: &mut [f64],
        threads: usize,
        tel: &raceloc_obs::Telemetry,
    ) {
        let _span = tel.span("range.batch");
        tel.add("range.queries", queries.len() as u64);
        // Route through `par_ranges_into` (not `chunked_cast` directly) so
        // wrappers like `PooledCaster` that override the batch driver keep
        // their tracing behavior consistent with their execution path.
        self.par_ranges_into(queries, out, threads);
    }

    /// Casts one fan of beams from a common sensor pose and quantizes each
    /// expected range straight to a sensor-model bin index:
    /// `out[j] = min(⌊range(x, y, theta + bearings[j]) · inv_res⌋, max_bin)`.
    ///
    /// This is the particle filter's hot query shape — every beam of one
    /// particle shares `(x, y)` — and returning bin indices instead of
    /// meters lets a quantized sensor model stay in integer arithmetic.
    /// Table-backed methods override this to hoist the shared position
    /// lookup out of the bearing loop; overrides may disagree with this
    /// default by one heading bin when `theta + bearing` lands within
    /// float rounding of a bin boundary.
    ///
    /// # Panics
    ///
    /// Panics when `bearings.len() != out.len()`.
    // Scalars stay unbundled: wrapping (x, y, theta, inv_res, max_bin) in
    // a struct would force the per-particle hot loop to build one per call.
    #[allow(clippy::too_many_arguments)]
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
        for (o, &b) in out.iter_mut().zip(bearings) {
            // `as u32` saturates negatives and NaN to 0, keeping the loop
            // branchless even for degenerate inputs.
            *o = ((self.range(x, y, theta + b) * inv_res) as u32).min(max_bin);
        }
    }

    /// Approximate heap memory used by precomputed structures, in bytes.
    /// Used by the method-comparison ablation (DESIGN.md A2).
    fn memory_bytes(&self) -> usize {
        0
    }
}

impl<T: RangeMethod + ?Sized> RangeMethod for &T {
    fn max_range(&self) -> f64 {
        (**self).max_range()
    }
    fn range(&self, x: f64, y: f64, theta: f64) -> f64 {
        (**self).range(x, y, theta)
    }
    fn ranges_into(&self, queries: &[(f64, f64, f64)], out: &mut [f64]) {
        (**self).ranges_into(queries, out)
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
        (**self).beam_bins_into(x, y, theta, bearings, inv_res, max_bin, out)
    }
    fn memory_bytes(&self) -> usize {
        (**self).memory_bytes()
    }
}

/// Shared-ownership delegation: lets many concurrent consumers (e.g. the
/// fleet-evaluation jobs, which each build a `SynPf<Arc<RangeLut>>`) share
/// one expensive precomputed caster per map instead of rebuilding it.
impl<T: RangeMethod + ?Sized> RangeMethod for std::sync::Arc<T> {
    fn max_range(&self) -> f64 {
        (**self).max_range()
    }
    fn range(&self, x: f64, y: f64, theta: f64) -> f64 {
        (**self).range(x, y, theta)
    }
    fn ranges_into(&self, queries: &[(f64, f64, f64)], out: &mut [f64]) {
        (**self).ranges_into(queries, out)
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
        (**self).beam_bins_into(x, y, theta, bearings, inv_res, max_bin, out)
    }
    fn memory_bytes(&self) -> usize {
        (**self).memory_bytes()
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use raceloc_core::Point2;
    use raceloc_map::{CellState, OccupancyGrid};

    /// A 10 m × 10 m square room with 0.1 m cells: free interior, occupied
    /// one-cell walls on all four sides.
    pub fn square_room() -> OccupancyGrid {
        let n = 100;
        let mut g = OccupancyGrid::new(n, n, 0.1, Point2::ORIGIN);
        g.fill(CellState::Free);
        for i in 0..n as i64 {
            g.set((i, 0).into(), CellState::Occupied);
            g.set((i, n as i64 - 1).into(), CellState::Occupied);
            g.set((0, i).into(), CellState::Occupied);
            g.set((n as i64 - 1, i).into(), CellState::Occupied);
        }
        g
    }

    /// A room with a 0.5 m square pillar in the middle.
    pub fn room_with_pillar() -> OccupancyGrid {
        let mut g = square_room();
        for c in 48..=52i64 {
            for r in 48..=52i64 {
                g.set((c, r).into(), CellState::Occupied);
            }
        }
        g
    }
}
