//! Content-addressed per-cell result cache (DESIGN.md §15).
//!
//! The fleet engine's unit of reuse is the **cell**: all replicates of one
//! `(map, grip, scenario, budget, method)` combination. A cell's outcomes
//! are a pure function of (a) the code that executes them and (b) exactly
//! the spec content the cell can observe — the global run parameters, the
//! cell's own axis entries, and the derived per-replicate world seeds
//! (which are where axis *indices* enter, so re-ordering an axis
//! invalidates precisely the cells whose seeds moved). [`cell_hash`] folds
//! all of that through the same FNV-1a construction the
//! [`raceloc_range::ArtifactStore`] content keys use, and [`CellCache`]
//! stores one JSON file per hash under a cache directory.
//!
//! Editing a spec therefore re-runs exactly the cells whose inputs
//! changed: touch one grip's `mu` and only that grip's cells miss; append
//! a new scenario and every existing cell still hits
//! (`tests/cache_equivalence.rs` pins both properties).
//!
//! **Staleness contract:** the hash covers the *spec*, not the compiled
//! behavior of the simulator or localizers. [`RESULT_REVISION`] (folded
//! into every hash together with the crate version) must be bumped in the
//! same change as any behavioral edit to the sim/localizer/fault stack.
//! CI never persists the cache across workflow runs, so a forgotten bump
//! can only go stale on a developer machine — `rm -r` the cache directory
//! when in doubt.

use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use raceloc_obs::Json;
use raceloc_par::lock_unpoisoned;

use crate::runner::RunOutcome;
use crate::spec::{CellKey, FleetSpec};

/// Schema/behavior revision folded into every cell hash. Bump this (it is
/// deliberately a reviewable literal) whenever a change alters what
/// [`crate::execute_run`] computes for an unchanged spec — new outcome
/// fields, sim/localizer behavior changes, seed-derivation changes.
pub const RESULT_REVISION: u32 = 1;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64-bit accumulator over little-endian byte
/// streams — the same construction (and constants) as the
/// `ArtifactStore` content keys, shared here for spec-cell hashing.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// A fresh accumulator at the FNV-1a offset basis.
    pub fn new() -> Self {
        Self(FNV_OFFSET)
    }

    /// Folds raw bytes in.
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Folds a `u64` in (little-endian).
    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds an `f64` in by its little-endian bit pattern (platform
    /// stable; distinguishes `-0.0` from `0.0` and every NaN payload).
    pub fn f64(self, v: f64) -> Self {
        self.u64(v.to_bits())
    }

    /// Folds a length-prefixed string in (prefixing prevents ambiguous
    /// concatenations such as `"ab" + "c"` vs `"a" + "bc"`).
    pub fn str(self, s: &str) -> Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// The accumulated digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The digest of the *code* side of the cache key: the result-schema
/// revision plus the crate version, so a rebuilt workspace never serves
/// results recorded by a different implementation.
pub fn code_fingerprint() -> u64 {
    Fnv64::new()
        .str("raceloc-eval.cell")
        .u64(RESULT_REVISION as u64)
        .str(env!("CARGO_PKG_VERSION"))
        .finish()
}

/// The content hash of one cell: code fingerprint + the global run
/// parameters + the cell's own axis entries (serialized through their
/// canonical JSON) + the derived world seed of every replicate.
///
/// The world seeds are the load-bearing part: they are a pure function of
/// `(master_seed, map index, grip index, scenario index, replicate)`, so
/// any edit that moves a cell's position along a seed-relevant axis
/// changes its hash, while edits to *other* axis entries leave it alone.
pub fn cell_hash(spec: &FleetSpec, key: CellKey) -> u64 {
    let mut h = Fnv64::new()
        .u64(code_fingerprint())
        .u64(spec.master_seed)
        .u64(spec.replicates as u64)
        .f64(spec.duration_s)
        .u64(spec.particles as u64)
        .u64(spec.beams as u64)
        .f64(spec.success_lat_cm);
    h = match spec.maps.get(key.map) {
        Some(m) => h.str(&format!("{}", m.to_json())),
        None => h.str("<map out of range>"),
    };
    h = match spec.grips.get(key.grip) {
        Some(g) => h.str(&format!("{}", g.to_json())),
        None => h.str("<grip out of range>"),
    };
    h = match spec.scenarios.get(key.scenario) {
        Some(s) => h.str(&format!("{}", s.to_json())),
        None => h.str("<scenario out of range>"),
    };
    h = h.u64(spec.budgets.get(key.budget).copied().unwrap_or(u64::MAX));
    h = h.str(
        spec.methods
            .get(key.method)
            .map_or("<method out of range>", |m| m.name()),
    );
    for replicate in 0..spec.replicates {
        h = h.u64(spec.world_seed(key.map, key.grip, key.scenario, replicate));
    }
    h.finish()
}

/// Interns a counter name so deserialized outcomes can re-enter the
/// `&'static str`-keyed telemetry machinery. The leak is bounded by the
/// number of *distinct* counter names ever loaded (in practice the
/// telemetry catalog's size), and repeated loads of the same name return
/// the same allocation.
pub(crate) fn intern_counter(name: &str) -> &'static str {
    static POOL: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut pool = lock_unpoisoned(&POOL);
    if let Some(found) = pool.get(name) {
        return found;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    pool.insert(leaked);
    leaked
}

/// On-disk cache-entry schema version (independent of [`RESULT_REVISION`]:
/// this one only covers the JSON layout of a stored entry).
const ENTRY_VERSION: u64 = 1;

/// A content-addressed directory of cached cell results: one
/// `cell-<hash>.json` file per cell hash, written atomically
/// (temp-file + rename) so an interrupted store can never be half-read.
#[derive(Debug, Clone)]
pub struct CellCache {
    dir: PathBuf,
}

impl CellCache {
    /// Opens (creating if needed) a cache directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, hash: u64) -> PathBuf {
        self.dir.join(format!("cell-{hash:016x}.json"))
    }

    /// Loads the cached outcomes for `hash`, or `None` when the entry is
    /// absent, unreadable, corrupt, or does not carry exactly
    /// `expected_runs` outcomes (a corrupt entry is a miss, never an
    /// error: the cell simply re-runs and overwrites it). Returned
    /// outcomes carry their *replicate position* as `index`; the caller
    /// rebases them into the current spec's run numbering.
    pub fn load(&self, hash: u64, expected_runs: usize) -> Option<Vec<RunOutcome>> {
        let text = std::fs::read_to_string(self.entry_path(hash)).ok()?;
        parse_entry(&text, hash, expected_runs)
    }

    /// Whether an entry for `hash` exists on disk (without parsing it).
    pub fn contains(&self, hash: u64) -> bool {
        self.entry_path(hash).exists()
    }

    /// Stores one cell's outcomes under `hash`, atomically.
    pub fn store(&self, hash: u64, outcomes: &[RunOutcome]) -> io::Result<()> {
        let doc = entry_json(hash, outcomes);
        let tmp = self.dir.join(format!("cell-{hash:016x}.json.tmp"));
        std::fs::write(&tmp, format!("{doc}\n"))?;
        std::fs::rename(&tmp, self.entry_path(hash))
    }

    /// Number of entries currently on disk.
    pub fn len(&self) -> usize {
        let Ok(read) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        read.filter_map(Result::ok)
            .filter(|e| {
                e.file_name()
                    .to_str()
                    .is_some_and(|n| n.starts_with("cell-") && n.ends_with(".json"))
            })
            .count()
    }

    /// Whether the cache directory holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Serializes one cache entry.
fn entry_json(hash: u64, outcomes: &[RunOutcome]) -> Json {
    Json::Obj(vec![
        ("version".into(), Json::num(ENTRY_VERSION as f64)),
        ("cell_hash".into(), Json::Str(format!("{hash:016x}"))),
        (
            "outcomes".into(),
            Json::Arr(outcomes.iter().map(RunOutcome::to_cache_json).collect()),
        ),
    ])
}

/// Parses one cache entry, validating version, hash echo, and run count.
fn parse_entry(text: &str, hash: u64, expected_runs: usize) -> Option<Vec<RunOutcome>> {
    let doc = Json::parse(text.trim_end()).ok()?;
    if doc.get("version").and_then(Json::as_u64) != Some(ENTRY_VERSION) {
        return None;
    }
    let hex = doc.get("cell_hash").and_then(Json::as_str)?;
    if u64::from_str_radix(hex, 16).ok()? != hash {
        return None;
    }
    let rows = doc.get("outcomes").and_then(Json::as_array)?;
    if rows.len() != expected_runs {
        return None;
    }
    rows.iter()
        .enumerate()
        .map(|(pos, row)| RunOutcome::from_cache_json(row, pos))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::tests::tiny_spec;

    fn temp_cache(tag: &str) -> CellCache {
        let dir =
            std::env::temp_dir().join(format!("raceloc-eval-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CellCache::open(dir).expect("temp cache dir")
    }

    fn outcome(pos: usize) -> RunOutcome {
        RunOutcome {
            index: pos,
            steps: 60 + pos,
            rmse_cm: 12.5 + pos as f64,
            p95_err_cm: 20.0,
            max_err_cm: 31.25,
            mean_lat_err_cm: 4.5,
            recovery_steps: if pos.is_multiple_of(2) { Some(3) } else { None },
            pct_nominal: 0.975,
            crashed: false,
            finite: true,
            success: true,
            counters: vec![("eval.runs", 1), ("sim.scans", 60)],
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // FNV-1a 64 of "a" and "foobar" (public reference values).
        assert_eq!(Fnv64::new().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Fnv64::new().bytes(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
        // Length prefixing separates ambiguous concatenations.
        assert_ne!(
            Fnv64::new().str("ab").str("c").finish(),
            Fnv64::new().str("a").str("bc").finish()
        );
    }

    #[test]
    fn cell_hashes_are_stable_and_distinct() {
        let spec = tiny_spec();
        let cells = spec.cells();
        let hashes: Vec<u64> = cells.iter().map(|&k| cell_hash(&spec, k)).collect();
        let again: Vec<u64> = cells.iter().map(|&k| cell_hash(&spec, k)).collect();
        assert_eq!(hashes, again, "hashing must be pure in the spec");
        let mut dedup = hashes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), hashes.len(), "distinct cells, distinct hashes");
    }

    #[test]
    fn editing_one_axis_entry_misses_only_its_cells() {
        let spec = tiny_spec();
        let mut edited = spec.clone();
        edited.grips[1].mu = 0.5;
        let cells = spec.cells();
        for (i, &key) in cells.iter().enumerate() {
            let before = cell_hash(&spec, key);
            let after = cell_hash(&edited, key);
            if key.grip == 1 {
                assert_ne!(before, after, "cell {i} must invalidate");
            } else {
                assert_eq!(before, after, "cell {i} must stay cached");
            }
        }
    }

    #[test]
    fn appending_an_axis_entry_keeps_existing_cells() {
        let spec = tiny_spec();
        let mut extended = spec.clone();
        extended.scenarios.push(crate::spec::ScenarioSpec {
            name: "extra".into(),
            schedule: raceloc_faults::FaultSchedule::builder()
                .seed(9)
                .build()
                .expect("valid"),
            measure_from: 0,
            recovery_budget: None,
        });
        for key in spec.cells() {
            assert_eq!(cell_hash(&spec, key), cell_hash(&extended, key));
        }
    }

    #[test]
    fn master_seed_and_replicates_invalidate_everything() {
        let spec = tiny_spec();
        let mut reseeded = spec.clone();
        reseeded.master_seed ^= 1;
        let mut more_reps = spec.clone();
        more_reps.replicates += 1;
        for key in spec.cells() {
            let h = cell_hash(&spec, key);
            assert_ne!(h, cell_hash(&reseeded, key));
            assert_ne!(h, cell_hash(&more_reps, key));
        }
    }

    #[test]
    fn store_then_load_round_trips_outcomes() {
        let cache = temp_cache("roundtrip");
        let outcomes = vec![outcome(0), outcome(1), outcome(2)];
        cache.store(0xDEAD_BEEF, &outcomes).expect("store");
        assert!(cache.contains(0xDEAD_BEEF));
        assert_eq!(cache.len(), 1);
        let back = cache.load(0xDEAD_BEEF, 3).expect("hit");
        assert_eq!(back, outcomes);
        assert!(
            cache.load(0xDEAD_BEEF, 2).is_none(),
            "run-count mismatch is a miss"
        );
        assert!(cache.load(0xBAD, 3).is_none(), "absent entry is a miss");
    }

    #[test]
    fn corrupt_entries_are_misses() {
        let cache = temp_cache("corrupt");
        let path = cache.dir().join(format!("cell-{:016x}.json", 7u64));
        std::fs::write(&path, "{ not json").expect("write corrupt entry");
        assert!(cache.load(7, 1).is_none());
        // Wrong declared hash is also a miss.
        let doc = entry_json(8, &[outcome(0)]);
        std::fs::write(&path, format!("{doc}")).expect("write mismatched entry");
        assert!(cache.load(7, 1).is_none());
    }

    #[test]
    fn interning_is_idempotent() {
        let a = intern_counter("eval.test.counter");
        let b = intern_counter("eval.test.counter");
        assert!(std::ptr::eq(a, b), "same name, same allocation");
        assert_eq!(a, "eval.test.counter");
    }
}
