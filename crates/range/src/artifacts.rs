//! Shared immutable per-map artifacts behind `Arc`, cached by content hash.
//!
//! Every localizer used to privately own its map, EDT, and range LUT, so N
//! sessions on the same track paid N LUT builds — the binding obstacle to
//! the ROADMAP's "thousands of concurrent sessions" target (memory
//! residency, not compute, dominates at scale). [`MapArtifacts`] bundles
//! the derived per-map structures once; [`ArtifactStore`] deduplicates
//! bundles by a content hash that covers the grid's *geometry* (dimensions,
//! resolution, origin) as well as its cell raster, plus the build
//! parameters — two grids with identical cells but different resolution
//! describe different worlds and must not collide.
//!
//! The range LUT inside a bundle is lazy at two levels. The table itself
//! is allocated on the first range query, so EDT-only consumers
//! (Cartographer-style scan matchers, diagnostics) allocate nothing; a
//! `OnceLock` makes that exactly one table per bundle however many
//! sessions race on first touch. Then each cell's heading fan is marched
//! the first time a query lands in that cell (see [`CompressedRangeLut`]),
//! so a session pays for the few thousand cells its particles visit, not
//! the `O(cells × θ-bins × cast)` whole-table build. Fills are
//! share-correct too: racing sessions store identical codes.
//!
//! # Examples
//!
//! ```
//! use raceloc_range::{ArtifactParams, ArtifactStore, RangeMethod};
//! use raceloc_map::{CellState, OccupancyGrid};
//! use raceloc_core::Point2;
//!
//! let mut grid = OccupancyGrid::new(40, 40, 0.1, Point2::ORIGIN);
//! grid.fill(CellState::Free);
//! for r in 0..40 { grid.set((35i64, r as i64).into(), CellState::Occupied); }
//!
//! let store = ArtifactStore::new();
//! let params = ArtifactParams { max_range: 8.0, theta_bins: 36 };
//! let a = store.get_or_build(&grid, params);
//! let b = store.get_or_build(&grid, params); // same map → same bundle
//! assert!(std::sync::Arc::ptr_eq(&a, &b));
//! assert_eq!(store.builds(), 1);
//! assert_eq!(store.hits(), 1);
//! let r = a.range(0.55, 2.0, 0.0); // allocates the LUT, fills one cell
//! assert!((r - 2.95).abs() < 0.25, "{r}");
//! assert_eq!(a.lut().cells_filled(), 1);
//! ```

use crate::{CompressedRangeLut, RangeMethod, RayMarching};
use raceloc_map::{DistanceMap, OccupancyGrid};
use raceloc_obs::{names, Telemetry};
use raceloc_par::lock_unpoisoned;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Build parameters for the derived range structures of a [`MapArtifacts`]
/// bundle. Part of the cache key: the same grid under different sensor
/// parameters yields different LUTs and therefore different bundles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArtifactParams {
    /// Maximum sensor range in meters (LUT clamp).
    pub max_range: f64,
    /// Number of heading bins in the range LUT.
    pub theta_bins: usize,
}

impl Default for ArtifactParams {
    /// The paper's on-car configuration: 10 m LiDAR clamp, 72 heading bins
    /// (5° LUT quantization) — the literals previously copy-pasted at every
    /// construction site.
    fn default() -> Self {
        Self {
            max_range: 10.0,
            theta_bins: 72,
        }
    }
}

impl ArtifactParams {
    /// Folds the parameters into an FNV-1a accumulator (little-endian bit
    /// patterns, platform-stable).
    fn fold_into(self, mut h: u64) -> u64 {
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        for b in self
            .max_range
            .to_bits()
            .to_le_bytes()
            .into_iter()
            .chain((self.theta_bins as u64).to_le_bytes())
        {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        h
    }
}

/// The shared immutable bundle of per-map derived structures: a
/// [`RayMarching`] caster owning the occupancy grid and its exact EDT
/// (eager) + range LUT (allocated on first query, each cell's fan marched
/// by that caster on first touch).
///
/// Implements [`RangeMethod`] by delegating to the LUT, so existing generic
/// consumers (`SynPf<Arc<MapArtifacts>>`, the batch drivers) work through
/// the [`Arc`] blanket impl unchanged.
#[derive(Debug)]
pub struct MapArtifacts {
    /// Shared with the LUT, which marches its fills on it.
    caster: Arc<RayMarching>,
    lut: OnceLock<CompressedRangeLut>,
    params: ArtifactParams,
    key: u64,
}

impl MapArtifacts {
    /// Builds the bundle for a grid: clones the grid, computes the EDT
    /// eagerly (both inside one [`RayMarching`]), and defers the LUT to
    /// first use.
    ///
    /// # Panics
    ///
    /// Panics when `params.theta_bins == 0` or `params.max_range` is not
    /// positive/finite (validated up front so the lazy LUT cannot fail
    /// later, mid-batch).
    pub fn build(grid: &OccupancyGrid, params: ArtifactParams) -> Self {
        assert!(params.theta_bins > 0, "theta_bins must be positive");
        assert!(
            params.max_range.is_finite() && params.max_range > 0.0,
            "max_range must be positive"
        );
        let key = Self::content_key(grid, params);
        Self {
            caster: Arc::new(RayMarching::new(grid, params.max_range)),
            lut: OnceLock::new(),
            params,
            key,
        }
    }

    /// The cache key a given `(grid, params)` pair would map to: the grid's
    /// geometry-covering [`OccupancyGrid::content_fingerprint`] folded with
    /// the build parameters.
    pub fn content_key(grid: &OccupancyGrid, params: ArtifactParams) -> u64 {
        params.fold_into(grid.content_fingerprint())
    }

    /// The source occupancy grid.
    pub fn grid(&self) -> &OccupancyGrid {
        self.caster.grid()
    }

    /// The exact Euclidean distance transform of the grid.
    pub fn edt(&self) -> &DistanceMap {
        self.caster.edt()
    }

    /// The range LUT, allocated empty on first call (exactly once per
    /// bundle, even under concurrent first touch). Each cell's fan is
    /// marched when a query first lands in it; [`CompressedRangeLut::fill_all`]
    /// fills the rest up front. This is the u16 [`CompressedRangeLut`]:
    /// half the f32 footprint, with each cell's heading fan contiguous in
    /// memory.
    pub fn lut(&self) -> &CompressedRangeLut {
        self.lut.get_or_init(|| {
            CompressedRangeLut::lazy(Arc::clone(&self.caster), self.params.theta_bins)
        })
    }

    /// True when the lazy LUT has been allocated (its cells may still be
    /// unfilled).
    pub fn lut_built(&self) -> bool {
        self.lut.get().is_some()
    }

    /// The build parameters.
    pub fn params(&self) -> ArtifactParams {
        self.params
    }

    /// This bundle's content-hash cache key.
    pub fn key(&self) -> u64 {
        self.key
    }
}

impl RangeMethod for MapArtifacts {
    fn max_range(&self) -> f64 {
        // From params, not the LUT: answering "how far can the sensor see"
        // must not allocate the LUT.
        self.params.max_range
    }

    fn range(&self, x: f64, y: f64, theta: f64) -> f64 {
        self.lut().range(x, y, theta)
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
        self.lut()
            .beam_bins_into(x, y, theta, bearings, inv_res, max_bin, out)
    }

    fn memory_bytes(&self) -> usize {
        let lut = self.lut.get().map_or(0, CompressedRangeLut::memory_bytes);
        lut + self.caster.memory_bytes()
    }
}

/// Interior state of an [`ArtifactStore`]: the cache plus its counters,
/// under one lock so reads of `(builds, hits)` are coherent.
#[derive(Debug, Default)]
struct StoreState {
    cache: BTreeMap<u64, Arc<MapArtifacts>>,
    builds: u64,
    hits: u64,
}

/// A content-addressed cache of [`MapArtifacts`] bundles.
///
/// `N` sessions opened on the same `(grid, params)` pair share one bundle:
/// the first call builds, the rest hit. Bundle construction happens *under*
/// the store lock, deliberately: two racing misses on the same key must not
/// both build. The critical section stays short because construction defers
/// the expensive LUT — only the grid clone and EDT run under the lock.
#[derive(Debug, Default)]
pub struct ArtifactStore {
    state: Mutex<StoreState>,
}

impl ArtifactStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached bundle for `(grid, params)`, building and caching
    /// it on first request.
    pub fn get_or_build(&self, grid: &OccupancyGrid, params: ArtifactParams) -> Arc<MapArtifacts> {
        let key = MapArtifacts::content_key(grid, params);
        let mut state = lock_unpoisoned(&self.state);
        if let Some(found) = state.cache.get(&key).map(Arc::clone) {
            state.hits += 1;
            return found;
        }
        let built = Arc::new(MapArtifacts::build(grid, params));
        state.builds += 1;
        state.cache.insert(key, Arc::clone(&built));
        built
    }

    /// Number of cache misses that built a new bundle.
    pub fn builds(&self) -> u64 {
        lock_unpoisoned(&self.state).builds
    }

    /// Number of requests served from cache.
    pub fn hits(&self) -> u64 {
        lock_unpoisoned(&self.state).hits
    }

    /// Number of distinct bundles currently cached.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.state).cache.len()
    }

    /// True when no bundle has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of cached bundles whose lazy LUT has been allocated — the
    /// "how many tables did N sessions really share" number.
    pub fn luts_built(&self) -> u64 {
        lock_unpoisoned(&self.state)
            .cache
            .values()
            .filter(|a| a.lut_built())
            .count() as u64
    }

    /// Publishes cumulative store counters (`range.artifacts.builds`,
    /// `range.artifacts.hits`, `range.artifacts.cached`,
    /// `range.artifacts.luts_built`, `range.lut.compressed_bytes`,
    /// `range.lut.cells_filled`) into a telemetry handle. Counters are
    /// cumulative totals; call once per report.
    ///
    /// Cell fills are booked here, per store, and never per run: which of
    /// several concurrent runs fills a shared cell first depends on
    /// scheduling, while the set of cells filled after a given workload
    /// does not.
    pub fn publish_stats(&self, tel: &Telemetry) {
        let state = lock_unpoisoned(&self.state);
        tel.add(names::RANGE_ARTIFACTS_BUILDS, state.builds);
        tel.add(names::RANGE_ARTIFACTS_HITS, state.hits);
        tel.add(names::RANGE_ARTIFACTS_CACHED, state.cache.len() as u64);
        let built: Vec<_> = state.cache.values().filter_map(|a| a.lut.get()).collect();
        tel.add(names::RANGE_ARTIFACTS_LUTS_BUILT, built.len() as u64);
        let bytes: usize = built.iter().map(|l| l.memory_bytes()).sum();
        tel.add(names::RANGE_LUT_COMPRESSED_BYTES, bytes as u64);
        let filled: usize = built.iter().map(|l| l.cells_filled()).sum();
        tel.add(names::RANGE_LUT_CELLS_FILLED, filled as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{room_with_pillar, square_room};
    use raceloc_core::Point2;
    use raceloc_map::{CellState, GridIndex};

    fn params_small() -> ArtifactParams {
        ArtifactParams {
            max_range: 8.0,
            theta_bins: 16,
        }
    }

    #[test]
    fn same_map_shares_one_bundle() {
        let store = ArtifactStore::new();
        let g = square_room();
        let handles: Vec<_> = (0..10)
            .map(|_| store.get_or_build(&g, params_small()))
            .collect();
        for h in &handles[1..] {
            assert!(Arc::ptr_eq(&handles[0], h));
        }
        assert_eq!(store.builds(), 1);
        assert_eq!(store.hits(), 9);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn different_maps_get_different_bundles() {
        let store = ArtifactStore::new();
        let a = store.get_or_build(&square_room(), params_small());
        let b = store.get_or_build(&room_with_pillar(), params_small());
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.key(), b.key());
        assert_eq!(store.builds(), 2);
        assert_eq!(store.hits(), 0);
    }

    #[test]
    fn params_are_part_of_the_key() {
        let store = ArtifactStore::new();
        let g = square_room();
        let a = store.get_or_build(&g, params_small());
        let b = store.get_or_build(
            &g,
            ArtifactParams {
                theta_bins: 32,
                ..params_small()
            },
        );
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(store.builds(), 2);
    }

    /// Regression: the content hash must cover grid geometry (resolution,
    /// origin), not just cell bytes. Two grids with identical rasters at
    /// different resolutions are different worlds; a collision here would
    /// silently serve a 0.05 m-resolution LUT to a 0.10 m-resolution map.
    #[test]
    fn identical_cells_different_resolution_do_not_collide() {
        let build_at = |res: f64| {
            let mut g = OccupancyGrid::new(30, 30, res, Point2::ORIGIN);
            g.fill(CellState::Free);
            for i in 0..30i64 {
                g.set((i, 0).into(), CellState::Occupied);
                g.set((i, 29).into(), CellState::Occupied);
                g.set((0, i).into(), CellState::Occupied);
                g.set((29, i).into(), CellState::Occupied);
            }
            g
        };
        let fine = build_at(0.05);
        let coarse = build_at(0.10);
        assert_eq!(fine.cells(), coarse.cells(), "premise: identical rasters");
        let store = ArtifactStore::new();
        let a = store.get_or_build(&fine, params_small());
        let b = store.get_or_build(&coarse, params_small());
        assert_ne!(a.key(), b.key(), "geometry must be part of the hash");
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(store.builds(), 2, "both worlds must be built");
        // And the bundles really differ: the same world point is ~2× closer
        // to the wall in the fine map.
        let da = a.edt().distance_at_world(Point2::new(0.75, 0.75));
        let db = b.edt().distance_at_world(Point2::new(1.5, 1.5));
        assert!((da * 2.0 - db).abs() < 1e-6, "{da} vs {db}");
    }

    #[test]
    fn origin_shift_changes_the_key() {
        let mut a = OccupancyGrid::new(10, 10, 0.1, Point2::ORIGIN);
        a.fill(CellState::Free);
        let mut b = OccupancyGrid::new(10, 10, 0.1, Point2::new(2.0, -1.0));
        b.fill(CellState::Free);
        assert_ne!(
            MapArtifacts::content_key(&a, params_small()),
            MapArtifacts::content_key(&b, params_small()),
        );
    }

    #[test]
    fn lut_is_lazy_and_built_once() {
        let art = MapArtifacts::build(&square_room(), params_small());
        assert!(!art.lut_built(), "construction must not build the LUT");
        let edt_only = art.memory_bytes();
        let r1 = art.range(5.05, 5.05, 0.0);
        assert!(art.lut_built());
        assert!(art.memory_bytes() > edt_only, "LUT memory now counted");
        let r2 = art.lut().range(5.05, 5.05, 0.0);
        assert_eq!(r1, r2);
        assert_eq!(art.lut().theta_bins(), 16);
    }

    #[test]
    fn first_range_fills_exactly_one_cell_and_allocates_no_memory() {
        let art = MapArtifacts::build(&square_room(), params_small());
        let lut = art.lut();
        let allocated = art.memory_bytes();
        assert_eq!(lut.cells_filled(), 0, "allocating the table fills nothing");
        art.range(5.05, 5.05, 0.0);
        assert_eq!(lut.cells_filled(), 1);
        art.range(5.01, 5.09, 2.0); // same cell, another bin: no new fill
        assert_eq!(lut.cells_filled(), 1);
        art.range(-1.0, 5.05, 0.0); // out of map: no cell to fill
        assert_eq!(lut.cells_filled(), 1);
        assert_eq!(art.memory_bytes(), allocated);
    }

    /// Two threads race to fill every cell of one bundle, one through
    /// `range` and one through the beam fan, released together by a
    /// barrier and walking the cells in the same order so that they meet
    /// on new cells; the table must end equal to the eager build.
    #[test]
    fn two_threads_filling_one_bundle_end_equal_to_the_eager_table() {
        let g = room_with_pillar();
        let art = MapArtifacts::build(&g, params_small());
        let w = g.width();
        let centres: Vec<Point2> = (0..w * g.height())
            .map(|cell| g.index_to_world(GridIndex::new((cell % w) as i64, (cell / w) as i64)))
            .collect();
        art.lut(); // allocate the table before the race
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for p in &centres {
                    art.range(p.x, p.y, 0.0);
                }
            });
            s.spawn(|| {
                let mut out = [0u32; 2];
                start.wait();
                for p in &centres {
                    art.beam_bins_into(p.x, p.y, 1.0, &[0.0, 0.5], 20.0, 160, &mut out);
                }
            });
        });
        assert_eq!(art.lut().cells_filled(), centres.len());
        let eager = CompressedRangeLut::new(&g, 8.0, 16);
        for p in &centres {
            for k in 0..16 {
                let theta = k as f64 / 16.0 * std::f64::consts::TAU;
                assert_eq!(
                    art.range(p.x, p.y, theta).to_bits(),
                    eager.range(p.x, p.y, theta).to_bits(),
                    "({}, {}) bin {k}",
                    p.x,
                    p.y
                );
            }
        }
    }

    #[test]
    fn range_method_delegation_matches_direct_lut() {
        let g = room_with_pillar();
        let art = MapArtifacts::build(&g, params_small());
        let lut = CompressedRangeLut::new(&g, 8.0, 16);
        assert_eq!(art.max_range(), 8.0);
        for i in 0..40 {
            let x = 1.0 + (i % 8) as f64;
            let y = 1.0 + (i % 7) as f64;
            let t = i as f64 * 0.37;
            assert_eq!(art.range(x, y, t), lut.range(x, y, t));
        }
    }

    #[test]
    fn publish_stats_exports_counters() {
        let store = ArtifactStore::new();
        let g = square_room();
        store.get_or_build(&g, params_small());
        store.get_or_build(&g, params_small());
        let tel = Telemetry::enabled();
        store.publish_stats(&tel);
        let snap = tel.snapshot();
        assert_eq!(
            snap.counter(names::RANGE_ARTIFACTS_BUILDS.as_str()),
            Some(1)
        );
        assert_eq!(snap.counter(names::RANGE_ARTIFACTS_HITS.as_str()), Some(1));
        assert_eq!(
            snap.counter(names::RANGE_ARTIFACTS_CACHED.as_str()),
            Some(1)
        );
        assert_eq!(
            snap.counter(names::RANGE_ARTIFACTS_LUTS_BUILT.as_str()),
            Some(0)
        );
        assert_eq!(
            snap.counter(names::RANGE_LUT_COMPRESSED_BYTES.as_str()),
            Some(0)
        );
        assert_eq!(
            snap.counter(names::RANGE_LUT_CELLS_FILLED.as_str()),
            Some(0)
        );
        assert_eq!(store.luts_built(), 0, "no query ran, no LUT built");
    }

    #[test]
    fn publish_stats_reports_compressed_lut_bytes_once_built() {
        let store = ArtifactStore::new();
        let g = square_room();
        let a = store.get_or_build(&g, params_small());
        a.range(5.05, 5.05, 0.0); // allocates the LUT, fills one cell
        let tel = Telemetry::enabled();
        store.publish_stats(&tel);
        let snap = tel.snapshot();
        assert_eq!(
            snap.counter(names::RANGE_ARTIFACTS_LUTS_BUILT.as_str()),
            Some(1)
        );
        assert_eq!(
            snap.counter(names::RANGE_LUT_COMPRESSED_BYTES.as_str()),
            Some((100 * 100 * 16 * 2) as u64),
        );
        assert_eq!(
            snap.counter(names::RANGE_LUT_CELLS_FILLED.as_str()),
            Some(1)
        );
    }

    #[test]
    #[should_panic(expected = "theta_bins")]
    fn zero_theta_bins_panics_at_build_time() {
        MapArtifacts::build(
            &square_room(),
            ArtifactParams {
                max_range: 8.0,
                theta_bins: 0,
            },
        );
    }

    #[test]
    fn concurrent_first_touch_builds_one_lut() {
        let art = Arc::new(MapArtifacts::build(&square_room(), params_small()));
        let ptrs: Vec<*const CompressedRangeLut> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let art = Arc::clone(&art);
                    s.spawn(move || art.lut() as *const CompressedRangeLut as usize)
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("thread") as *const CompressedRangeLut)
                .collect()
        });
        for p in &ptrs[1..] {
            assert_eq!(ptrs[0], *p, "all threads must see the same LUT");
        }
    }
}
