//! Property-based cross-validation of the range-query methods: every
//! accelerated method must agree with exact Bresenham casting within its
//! documented error envelope, on randomly generated enclosed maps.

use proptest::prelude::*;
use raceloc_core::Point2;
use raceloc_map::{CellState, GridIndex, OccupancyGrid, TrackShape, TrackSpec};
use raceloc_range::{
    BresenhamCasting, Cddt, CompressedRangeLut, RangeLut, RangeMethod, RayMarching,
};

/// A random wall-enclosed room with scattered interior obstacles.
fn arb_room() -> impl Strategy<Value = OccupancyGrid> {
    (
        16usize..40,
        16usize..40,
        prop::collection::vec((0.1..0.9f64, 0.1..0.9f64), 0..8),
    )
        .prop_map(|(w, h, obstacles)| {
            let mut g = OccupancyGrid::new(w, h, 0.1, Point2::ORIGIN);
            g.fill(CellState::Free);
            for i in 0..w as i64 {
                g.set(GridIndex::new(i, 0), CellState::Occupied);
                g.set(GridIndex::new(i, h as i64 - 1), CellState::Occupied);
            }
            for i in 0..h as i64 {
                g.set(GridIndex::new(0, i), CellState::Occupied);
                g.set(GridIndex::new(w as i64 - 1, i), CellState::Occupied);
            }
            for (fx, fy) in obstacles {
                let c = (fx * w as f64) as i64;
                let r = (fy * h as f64) as i64;
                g.set(GridIndex::new(c, r), CellState::Occupied);
                g.set(GridIndex::new(c + 1, r), CellState::Occupied);
                g.set(GridIndex::new(c, r + 1), CellState::Occupied);
            }
            g
        })
}

fn free_pose(g: &OccupancyGrid, fx: f64, fy: f64) -> Option<(f64, f64)> {
    let (lo, hi) = g.bounds();
    let x = lo.x + fx * (hi.x - lo.x);
    let y = lo.y + fy * (hi.y - lo.y);
    if g.state_at_world(Point2::new(x, y)) == CellState::Free {
        Some((x, y))
    } else {
        None
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_methods_within_envelope_of_bresenham(
        g in arb_room(),
        fx in 0.05..0.95f64,
        fy in 0.05..0.95f64,
        theta in -std::f64::consts::PI..std::f64::consts::PI,
    ) {
        let Some((x, y)) = free_pose(&g, fx, fy) else {
            return Ok(());
        };
        let max_range = 8.0;
        let bres = BresenhamCasting::new(&g, max_range);
        let reference = bres.range(x, y, theta);

        let rm = RayMarching::new(&g, max_range);
        let cddt = Cddt::new(&g, max_range, 360);
        let lut = RangeLut::from_method(&g, &bres, 180);

        // Ray marching: within a couple of cells except corner-graze cases,
        // where it may miss entirely — bounded by the reference either way.
        let r = rm.range(x, y, theta);
        prop_assert!(r >= 0.0 && r <= max_range);
        // CDDT: heading discretization plus footprint conservatism. It may
        // overshoot slightly (discretized heading) and may *undershoot*
        // arbitrarily when the true ray grazes past an obstacle within the
        // conservative footprint — in that case the reported hit must still
        // correspond to real geometry near the ray.
        let c = cddt.range(x, y, theta);
        prop_assert!(c >= 0.0 && c <= max_range);
        prop_assert!(c <= reference + 1.0,
            "cddt overshoot: {c} vs bres {reference} at ({x},{y},{theta})");
        if c < reference - 0.3 {
            // Early hit: the claimed hit point must lie within ~1.5 cells of
            // an actual obstacle (a graze, not a phantom).
            let dm = raceloc_map::DistanceMap::from_grid_with(&g, |s| {
                s == CellState::Occupied
            });
            let hit = Point2::new(x + c * theta.cos(), y + c * theta.sin());
            prop_assert!(
                dm.distance_at_world(hit) <= 1.6 * g.resolution(),
                "phantom cddt hit at {hit} (c={c}, ref={reference})"
            );
        }
        // LUT from the exact method at a bin angle: evaluating at the bin
        // center must reproduce the reference exactly (up to f32).
        let bin = (theta.rem_euclid(std::f64::consts::TAU)
            / std::f64::consts::TAU * 180.0).round() as usize % 180;
        let bin_angle = bin as f64 / 180.0 * std::f64::consts::TAU;
        let cell = g.index_to_world(g.world_to_index(Point2::new(x, y)));
        let l = lut.range(cell.x, cell.y, bin_angle);
        let want = bres.range(cell.x, cell.y, bin_angle);
        prop_assert!((l - want).abs() < 1e-5, "lut {l} vs {want}");
    }

    #[test]
    fn ranges_are_never_negative_or_above_max(
        g in arb_room(),
        fx in 0.0..1.0f64,
        fy in 0.0..1.0f64,
        theta in -10.0..10.0f64,
    ) {
        let (lo, hi) = g.bounds();
        let x = lo.x + fx * (hi.x - lo.x);
        let y = lo.y + fy * (hi.y - lo.y);
        for m in [
            &BresenhamCasting::new(&g, 5.0) as &dyn RangeMethod,
            &RayMarching::new(&g, 5.0),
            &Cddt::new(&g, 5.0, 90),
        ] {
            let r = m.range(x, y, theta);
            prop_assert!((0.0..=5.0).contains(&r), "{r}");
        }
    }

    #[test]
    fn cddt_prune_preserves_free_space_queries(
        g in arb_room(),
        fx in 0.1..0.9f64,
        fy in 0.1..0.9f64,
        theta in -std::f64::consts::PI..std::f64::consts::PI,
    ) {
        let Some((x, y)) = free_pose(&g, fx, fy) else {
            return Ok(());
        };
        let mut cddt = Cddt::new(&g, 8.0, 180);
        let before = cddt.range(x, y, theta);
        cddt.prune();
        let after = cddt.range(x, y, theta);
        prop_assert!((before - after).abs() < 1e-6,
            "prune changed a free-space query: {before} -> {after}");
    }

    #[test]
    fn batch_equals_scalar(
        g in arb_room(),
        poses in prop::collection::vec((0.1..0.9f64, 0.1..0.9f64, -std::f64::consts::PI..std::f64::consts::PI), 1..32),
        threads in 1usize..5,
    ) {
        let bres = BresenhamCasting::new(&g, 8.0);
        let (lo, hi) = g.bounds();
        let queries: Vec<(f64, f64, f64)> = poses
            .iter()
            .map(|&(fx, fy, t)| {
                (lo.x + fx * (hi.x - lo.x), lo.y + fy * (hi.y - lo.y), t)
            })
            .collect();
        let mut a = vec![0.0; queries.len()];
        let mut b = vec![0.0; queries.len()];
        bres.ranges_into(&queries, &mut a);
        bres.par_ranges_into(&queries, &mut b, threads);
        prop_assert_eq!(a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The u16 compressed LUT must stay within half a quantization step of
    /// the f32 LUT everywhere (plus the f32 table's own single-precision
    /// rounding): both tables discretize headings with the identical
    /// nearest-bin rule, so the only disagreement left is each table's own
    /// value quantization (DESIGN.md §11).
    #[test]
    fn compressed_lut_tracks_f32_lut_within_quantization(
        g in arb_room(),
        fx in 0.1..0.9f64,
        fy in 0.1..0.9f64,
        theta in -6.0..6.0f64,
    ) {
        let Some((x, y)) = free_pose(&g, fx, fy) else {
            return Ok(());
        };
        let max_range = 8.0;
        let bins = 72;
        let f32_lut = RangeLut::new(&g, max_range, bins);
        let clut = CompressedRangeLut::new(&g, max_range, bins);
        let step = max_range / f64::from(u16::MAX);
        let a = f32_lut.range(x, y, theta);
        let b = clut.range(x, y, theta);
        prop_assert!((a - b).abs() <= 0.5 * step + 1e-5,
            "compressed {b} vs f32 {a} (step {step})");
    }

    /// The fused beam fan must agree with per-beam scalar queries up to
    /// the documented one-heading-bin boundary wobble: every fan output
    /// equals the quantized bin of the scalar range at the nearest heading
    /// bin or one of its two neighbors. This exercises the fan's branchless
    /// wrap, its cached code→bin table, and its float fallback against the
    /// simple scalar decode chain on random maps, poses, and bearings.
    #[test]
    fn beam_fan_matches_scalar_within_one_heading_bin(
        g in arb_room(),
        fx in 0.1..0.9f64,
        fy in 0.1..0.9f64,
        theta in -6.0..6.0f64,
        bearings in prop::collection::vec(-3.1..3.1f64, 1..48),
        max_bin in 50u32..400,
    ) {
        let Some((x, y)) = free_pose(&g, fx, fy) else {
            return Ok(());
        };
        let max_range = 8.0;
        let bins = 60usize;
        let clut = CompressedRangeLut::new(&g, max_range, bins);
        let inv_res = f64::from(max_bin) / max_range;
        let mut fan = vec![0u32; bearings.len()];
        clut.beam_bins_into(x, y, theta, &bearings, inv_res, max_bin, &mut fan);
        let tau = std::f64::consts::TAU;
        let kn = bins as f64;
        let scalar_bin = |k: usize| -> u32 {
            let center = k as f64 * tau / kn;
            let r = clut.range(x, y, center);
            ((r * inv_res) as u32).min(max_bin)
        };
        for (&b, &got) in bearings.iter().zip(&fan) {
            let phi = (theta + b).rem_euclid(tau);
            let k0 = (phi / tau * kn).round() as usize % bins;
            let candidates = [
                scalar_bin((k0 + bins - 1) % bins),
                scalar_bin(k0),
                scalar_bin((k0 + 1) % bins),
            ];
            prop_assert!(candidates.contains(&got),
                "fan bin {got} not within one heading bin of scalar {candidates:?} \
                 (bearing {b}, theta {theta})");
        }
    }
}

/// Batch sizes around `RayMarching`'s block of 8 rays in flight: empty,
/// one ray, a partial block, a full block, one ray into a refill, and a
/// full 271-beam lidar sweep.
const BATCH_SIZES: [usize; 6] = [0, 1, 7, 8, 9, 271];

/// Casts `queries` one `range()` at a time and through `ranges_into`,
/// asserting the two agree bit for bit.
fn assert_batch_matches_scalar(rm: &RayMarching, queries: &[(f64, f64, f64)]) {
    let mut batch = vec![f64::NAN; queries.len()];
    rm.ranges_into(queries, &mut batch);
    for (i, (&(x, y, theta), got)) in queries.iter().zip(&batch).enumerate() {
        let want = rm.range(x, y, theta);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "query {i} of {}: ({x}, {y}, {theta}) batch {got} vs scalar {want}",
            queries.len()
        );
    }
}

/// Decodes both tables at every cell centre × heading-bin angle and
/// asserts they agree bit for bit.
fn assert_same_table(g: &OccupancyGrid, bins: usize, a: &dyn RangeMethod, b: &dyn RangeMethod) {
    for r in 0..g.height() as i64 {
        for c in 0..g.width() as i64 {
            let p = g.index_to_world(GridIndex::new(c, r));
            for k in 0..bins {
                let theta = k as f64 / bins as f64 * std::f64::consts::TAU;
                let (ra, rb) = (a.range(p.x, p.y, theta), b.range(p.x, p.y, theta));
                assert_eq!(
                    ra.to_bits(),
                    rb.to_bits(),
                    "cell ({c}, {r}) bin {k}: {ra} vs {rb}"
                );
            }
        }
    }
}

/// `RangeLut::new` and `CompressedRangeLut::new` march cell fans in
/// rounds; the reference is the generic per-query build on the same
/// caster.
fn assert_luts_match_per_query_build(g: &OccupancyGrid, max_range: f64, bins: usize) {
    let rm = RayMarching::new(g, max_range);
    assert_same_table(
        g,
        bins,
        &RangeLut::new(g, max_range, bins),
        &RangeLut::from_method(g, &rm, bins),
    );
    assert_same_table(
        g,
        bins,
        &CompressedRangeLut::new(g, max_range, bins),
        &CompressedRangeLut::from_method(g, &rm, bins),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `RayMarching::ranges_into` marches rays in interleaved rounds; every
    /// ray must still come out bit-identical to its own `range()` call,
    /// whatever the batch size, heading or starting cell.
    #[test]
    fn ray_marching_batch_equals_per_query_range_bitwise(
        g in arb_room(),
        unknown in (0.1..0.9f64, 0.1..0.9f64),
        poses in prop::collection::vec((-0.3..1.3f64, -0.3..1.3f64, -20.0..20.0f64), 271),
    ) {
        let mut g = g;
        let (w, h) = (g.width() as f64, g.height() as f64);
        let patch = GridIndex::new((unknown.0 * w) as i64, (unknown.1 * h) as i64);
        for (dc, dr) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
            g.set(GridIndex::new(patch.col + dc, patch.row + dr), CellState::Unknown);
        }
        let rm = RayMarching::new(&g, 8.0);
        let (lo, hi) = g.bounds();
        let mut queries: Vec<(f64, f64, f64)> = poses
            .iter()
            .map(|&(fx, fy, t)| (lo.x + fx * (hi.x - lo.x), lo.y + fy * (hi.y - lo.y), t))
            .collect();
        // Pin the starts random draws may miss: an occupied wall cell, an
        // unknown cell, a point outside the map, and a non-finite heading.
        let wall = g.index_to_world(GridIndex::new(0, 0));
        let hole = g.index_to_world(patch);
        queries[0] = (wall.x, wall.y, queries[0].2);
        queries[1] = (hole.x, hole.y, queries[1].2);
        queries[2] = (lo.x - 1.0, hi.y + 0.5, queries[2].2);
        queries[3].2 = f64::INFINITY;
        for n in BATCH_SIZES {
            assert_batch_matches_scalar(&rm, &queries[..n]);
        }
    }

    #[test]
    fn marched_luts_equal_the_per_query_build_bytewise(
        g in arb_room(),
        bins in 1usize..80,
    ) {
        assert_luts_match_per_query_build(&g, 8.0, bins);
    }
}

/// The same byte-identity on a closed track at the paper's 0.05 m grid
/// resolution, sized to stay quick in debug builds.
#[test]
fn marched_luts_equal_the_per_query_build_on_a_track() {
    let track = TrackSpec::new(TrackShape::Oval {
        width: 6.0,
        height: 4.0,
    })
    .resolution(0.05)
    .build();
    assert_luts_match_per_query_build(&track.grid, 10.0, 36);
}
