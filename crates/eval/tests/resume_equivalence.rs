//! Resume equivalence (DESIGN.md §15): a fleet run interrupted after K of
//! N cells and rerun over the same cell-cache directory produces a final
//! report byte-identical to an uninterrupted run — at every worker-pool
//! width, even when the interrupt and the resume use different widths,
//! and even when the interrupt tore a cache store in half.

use std::path::{Path, PathBuf};

use raceloc_eval::{
    cell_hash, run_fleet, run_fleet_with, CellCache, EvalMethod, FleetRunOptions, FleetSpec,
    GripSpec, MapSpec, ScenarioSpec,
};
use raceloc_faults::FaultSchedule;

fn micro_spec() -> FleetSpec {
    FleetSpec {
        name: "resume-micro".into(),
        master_seed: 909,
        replicates: 2,
        duration_s: 1.5,
        particles: 80,
        beams: 61,
        success_lat_cm: 150.0,
        maps: vec![MapSpec {
            name: "fourier-33".into(),
            fourier_seed: 33,
            half_width: 1.25,
            mean_radius: 6.0,
        }],
        grips: vec![
            GripSpec {
                name: "HQ".into(),
                mu: 1.0,
            },
            GripSpec {
                name: "LQ".into(),
                mu: 19.0 / 26.0,
            },
        ],
        scenarios: vec![
            ScenarioSpec {
                name: "nominal".into(),
                schedule: FaultSchedule::builder().seed(7).build().expect("valid"),
                measure_from: 0,
                recovery_budget: None,
            },
            ScenarioSpec {
                name: "odom_slip".into(),
                schedule: FaultSchedule::builder()
                    .seed(7)
                    .odom_slip(15, 30, 1.8)
                    .build()
                    .expect("valid"),
                measure_from: 30,
                recovery_budget: None,
            },
        ],
        budgets: vec![0],
        methods: vec![EvalMethod::DeadReckoning],
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "raceloc-resume-equivalence-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cached_opts(dir: &Path, threads: usize) -> FleetRunOptions {
    let mut opts = FleetRunOptions::new(threads);
    opts.cache_dir = Some(dir.to_path_buf());
    opts
}

/// Runs `spec` over `dir` at `threads` workers, stopping after `k` cells.
fn interrupt(spec: &FleetSpec, dir: &Path, threads: usize, k: usize) {
    let mut opts = cached_opts(dir, threads);
    opts.stop_after_cells = Some(k);
    let (partial, stats) = run_fleet_with(spec, &opts).expect("interrupted run");
    assert!(stats.stopped_early);
    assert_eq!(stats.executed_cells, k as u64);
    assert_eq!(stats.cache_stores, k as u64);
    // The skipped cells are reported as missing, not dropped.
    assert_eq!(partial.cells.len(), spec.cells().len());
}

#[test]
fn interrupt_then_resume_is_byte_identical_at_every_pool_width() {
    let spec = micro_spec();
    let cells = spec.cells().len();
    let uninterrupted = format!("{}", run_fleet(&spec, 1).expect("valid spec").to_json());

    for threads in [1usize, 2, 4] {
        for k in 1..cells {
            let dir = temp_dir(&format!("t{threads}-k{k}"));
            interrupt(&spec, &dir, threads, k);

            let (resumed, stats) =
                run_fleet_with(&spec, &cached_opts(&dir, threads)).expect("resumed run");
            assert!(!stats.stopped_early);
            assert_eq!(stats.cache_hits, k as u64);
            assert_eq!(
                stats.executed_cells,
                (cells - k) as u64,
                "resume re-runs only the unfinished cells"
            );
            assert_eq!(
                uninterrupted,
                format!("{}", resumed.to_json()),
                "threads={threads} k={k}: resumed report drifted"
            );

            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn resume_at_a_different_pool_width_than_the_interrupt() {
    let spec = micro_spec();
    let uninterrupted = format!("{}", run_fleet(&spec, 2).expect("valid spec").to_json());
    let dir = temp_dir("cross-width");
    interrupt(&spec, &dir, 1, 2);

    let (resumed, stats) =
        run_fleet_with(&spec, &cached_opts(&dir, 4)).expect("resumed at 4 threads");
    assert_eq!(stats.cache_hits, 2);
    assert_eq!(
        uninterrupted,
        format!("{}", resumed.to_json()),
        "cache entries must be width-agnostic"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_interrupt_inside_a_trajectory_family_resumes_byte_identical() {
    // SynPF and dead reckoning share each (map, grip, scenario)
    // trajectory, so every family holds two cells and an odd K stops
    // between the two cells of one family.
    let mut spec = micro_spec();
    spec.methods = vec![EvalMethod::SynPf, EvalMethod::DeadReckoning];
    let cells = spec.cells().len();
    let uninterrupted = format!("{}", run_fleet(&spec, 2).expect("valid spec").to_json());
    for (k, interrupt_width, resume_width) in [(1usize, 1usize, 4usize), (3, 2, 1), (5, 4, 2)] {
        let dir = temp_dir(&format!("family-k{k}"));
        interrupt(&spec, &dir, interrupt_width, k);
        let (resumed, stats) =
            run_fleet_with(&spec, &cached_opts(&dir, resume_width)).expect("resumed run");
        assert_eq!(stats.cache_hits, k as u64);
        assert_eq!(stats.executed_cells, (cells - k) as u64);
        assert_eq!(
            stats.executed_runs,
            ((cells - k) * spec.replicates as usize) as u64,
            "executed runs count localizer runs, not trajectories"
        );
        assert_eq!(
            uninterrupted,
            format!("{}", resumed.to_json()),
            "k={k} ({interrupt_width} -> {resume_width} threads): resumed report drifted"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_store_torn_by_a_kill_is_a_miss_that_reruns_only_its_cell() {
    let spec = micro_spec();
    let cells = spec.cells().len() as u64;
    let replicates = spec.replicates as usize;
    let dir = temp_dir("torn");
    let (full, _) = run_fleet_with(&spec, &cached_opts(&dir, 2)).expect("full run");
    let uninterrupted = format!("{}", full.to_json());

    // What a kill mid-store can leave: a stale temp file, and an entry
    // torn short (a filesystem that does not rename atomically).
    let hash = cell_hash(&spec, spec.cells()[1]);
    let entry = dir.join(format!("cell-{hash:016x}.json"));
    let tmp = dir.join(format!("cell-{hash:016x}.json.tmp"));
    let text = std::fs::read_to_string(&entry).expect("stored entry");
    std::fs::write(&entry, &text[..text.len() / 2]).expect("truncate entry");
    std::fs::write(&tmp, &text[..text.len() / 3]).expect("stale temp file");
    let cache = CellCache::open(&dir).expect("cache dir");
    assert!(
        cache.load(hash, replicates).is_none(),
        "torn entry is a miss"
    );

    let (resumed, stats) = run_fleet_with(&spec, &cached_opts(&dir, 2)).expect("rerun");
    assert_eq!(stats.cache_hits, cells - 1);
    assert_eq!(stats.executed_cells, 1, "only the torn cell re-runs");
    assert_eq!(stats.cache_stores, 1);
    assert_eq!(uninterrupted, format!("{}", resumed.to_json()));
    assert_eq!(
        std::fs::read_to_string(&entry).expect("rewritten entry"),
        text,
        "the rerun overwrites the torn entry"
    );
    assert!(
        !tmp.exists(),
        "the rerun's store renames over the stale temp file"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
