//! Allocation ratchet of warm serve-engine steps (rule R9): submitting
//! one request per session and draining them allocates a fixed number of
//! times, pinned below. The engine regroups requests per session and hands
//! each pool chunk its own work and result vectors, so a warm step is not
//! allocation-free; the pin keeps that count from growing. Lower it when a
//! change removes allocations.
//!
//! The pin covers a window of steps rather than one: Cartographer's
//! buffers still grow now and then after warm-up (an amortized push
//! reaching a new high-water mark), which is deterministic but not the
//! same on every step.
//!
//! The audit uses a counting `#[global_allocator]` wrapper, so everything
//! in this binary is counted, worker threads included; the request
//! vectors are built before the measured window. A single `#[test]` keeps
//! the global counter race-free.

use alloc_counter::CountingAlloc;
use raceloc_core::sensor_data::{LaserScan, Odometry};
use raceloc_core::{Pose2, Twist2};
use raceloc_map::{TrackShape, TrackSpec};
use raceloc_pf::SynPfConfig;
use raceloc_range::{ArtifactParams, RangeMethod, RayMarching};
use raceloc_serve::{LocalizerSpec, ServeConfig, ServeEngine, SessionId, StepRequest};
use raceloc_slam::CartoLocalizerConfig;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Allocation events of [`WINDOW`] warm steps of 9 sessions (3 SynPF,
/// 3 Cartographer, 3 dead reckoning) in 3 pool chunks, as measured on the
/// engine when the pin was set: 34 per step, all of them the engine's own
/// (the localizers allocate nothing once warm).
const WARM_WINDOW_ALLOCATIONS: u64 = 272;

/// Steps run before the measured window, to size every buffer.
const WARM_UP: usize = 4;

/// Steps in the measured window.
const WINDOW: usize = 8;

const SESSIONS: usize = 9;
const DT: f64 = 0.1;
const SPEED: f64 = 2.0;

fn spec_for(i: usize) -> LocalizerSpec {
    match i % 3 {
        0 => LocalizerSpec::SynPf {
            config: SynPfConfig {
                particles: 64,
                layout: raceloc_pf::ScanLayout::Boxed {
                    count: 24,
                    aspect: 3.0,
                },
                ..SynPfConfig::default()
            },
            recovery: false,
        },
        1 => LocalizerSpec::Cartographer(CartoLocalizerConfig {
            max_points: 40,
            ..CartoLocalizerConfig::default()
        }),
        _ => LocalizerSpec::DeadReckoning,
    }
}

#[test]
fn warm_engine_step_allocations_do_not_grow() {
    let track = TrackSpec::new(TrackShape::Oval {
        width: 10.0,
        height: 6.0,
    })
    .resolution(0.15)
    .build();
    let params = ArtifactParams {
        max_range: 8.0,
        theta_bins: 24,
    };
    let caster = RayMarching::new(&track.grid, params.max_range);
    let path = &track.centerline;
    let mut engine = ServeEngine::new(ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    });
    let ids: Vec<SessionId> = (0..SESSIONS)
        .map(|i| {
            let s0 = i as f64 * 0.5;
            let start = Pose2::from_point(path.point_at(s0), path.heading_at(s0));
            engine
                .open_session(&track.grid, params, spec_for(i), start)
                .expect("capacity")
        })
        .collect();

    // One request per session per step: truth follows the centerline,
    // odometry integrates it exactly, the scan is cast from the truth.
    let step_requests = |step: usize| -> Vec<StepRequest> {
        ids.iter()
            .enumerate()
            .map(|(i, &session)| {
                let s0 = i as f64 * 0.5;
                let s = s0 + step as f64 * SPEED * DT;
                let truth = Pose2::from_point(path.point_at(s), path.heading_at(s));
                let start = Pose2::from_point(path.point_at(s0), path.heading_at(s0));
                let odom_pose = start.relative_to(truth);
                let stamp = step as f64 * DT;
                let beams = 30;
                let fov = 270.0f64.to_radians();
                let inc = fov / (beams - 1) as f64;
                let ranges: Vec<f64> = (0..beams)
                    .map(|b| {
                        caster.range(truth.x, truth.y, truth.theta - 0.5 * fov + b as f64 * inc)
                    })
                    .collect();
                let mut scan = LaserScan::new(-0.5 * fov, inc, ranges, params.max_range);
                scan.stamp = stamp;
                StepRequest {
                    session,
                    odom: Odometry::new(odom_pose, Twist2::new(SPEED, 0.0, 0.0), stamp),
                    scan: Some(scan),
                }
            })
            .collect()
    };

    let mut counts = Vec::with_capacity(WINDOW);
    for step in 1..=WARM_UP + WINDOW {
        let requests = step_requests(step);
        let before = ALLOC.total_events();
        for req in requests {
            engine.submit(req).expect("open session");
        }
        let results = engine.drain();
        let events = ALLOC.total_events() - before;
        assert_eq!(results.len(), SESSIONS);
        if step > WARM_UP {
            counts.push(events);
        }
    }
    let total: u64 = counts.iter().sum();
    assert!(
        total <= WARM_WINDOW_ALLOCATIONS,
        "{WINDOW} warm serve steps allocated {total} times (per step {counts:?}), \
         more than the pinned {WARM_WINDOW_ALLOCATIONS}"
    );
}
