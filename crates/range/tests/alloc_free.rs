//! Allocation audit of `RayMarching::ranges_into`: the interleaved
//! marching kernel keeps its rays in a fixed-size stack block, so a batch
//! cast performs **zero heap allocations**.
//!
//! The audit uses a counting `#[global_allocator]` wrapper, so everything
//! in this binary is counted; a single `#[test]` keeps the global counter
//! race-free.

use alloc_counter::CountingAlloc;
use raceloc_map::{TrackShape, TrackSpec};
use raceloc_range::{RangeMethod, RayMarching};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn ranges_into_allocates_nothing() {
    let track = TrackSpec::new(TrackShape::Oval {
        width: 12.0,
        height: 7.0,
    })
    .resolution(0.1)
    .build();
    let caster = RayMarching::new(&track.grid, 10.0);
    let start = track.start_pose();
    let queries: Vec<(f64, f64, f64)> = (0..271)
        .map(|i| (start.x, start.y, start.theta + i as f64 * 0.0174))
        .collect();
    let mut out = vec![0.0; queries.len()];
    for n in [0, 1, 7, 8, 9, 271] {
        let before = ALLOC.total_events();
        caster.ranges_into(&queries[..n], &mut out[..n]);
        assert_eq!(ALLOC.total_events(), before, "batch of {n} allocated");
    }
    assert!(out.iter().all(|r| (0.0..=10.0).contains(r)));
}
