//! The pass applied to its own workspace: the repository must stay clean
//! against the checked-in baseline, and a seeded violation must be caught
//! with a `file:line` diagnostic.
//!
//! This makes `cargo test` enforce the same gate CI's `analyze` step does,
//! so a regression cannot land even when only the tier-1 command runs.

use std::path::Path;

use raceloc_analyze::baseline::Baseline;
use raceloc_analyze::mask::MaskedFile;
use raceloc_analyze::rules::{scan_file, Severity};
use raceloc_analyze::{run_scan, workspace};

fn repo_root() -> std::path::PathBuf {
    workspace::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/analyze")
}

fn checked_in_baseline(root: &Path) -> Baseline {
    let path = root.join("analyze-baseline.json");
    let text = std::fs::read_to_string(&path).expect("analyze-baseline.json is checked in");
    Baseline::from_json(&text).expect("baseline parses")
}

#[test]
fn workspace_is_clean_against_the_checked_in_baseline() {
    let root = repo_root();
    let baseline = checked_in_baseline(&root);
    let report = run_scan(&root, &baseline).expect("scan succeeds");
    assert!(
        report.verdict.new_violations.is_empty(),
        "new static-analysis violations:\n{}",
        report.human_new_violations().join("\n")
    );
    assert!(
        report.verdict.passes_check(),
        "the checked-in baseline does not pass --check: stale {:?}, ratchet \
         regressions {:?}, ratchet stale {:?}",
        report.verdict.stale,
        report.verdict.ratchet_regressions,
        report.verdict.ratchet_stale,
    );
    assert!(
        report.files_scanned >= 90,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
}

#[test]
fn baseline_is_ratcheted_small() {
    let root = repo_root();
    let baseline = checked_in_baseline(&root);
    // Acceptance criterion: the shipped baseline has at most 5 entries.
    assert!(
        baseline.len() <= 5,
        "baseline has grown to {} entries; fix the violations instead",
        baseline.len()
    );
}

#[test]
fn baseline_has_no_stale_entries() {
    let root = repo_root();
    let baseline = checked_in_baseline(&root);
    let report = run_scan(&root, &baseline).expect("scan succeeds");
    assert!(
        report.verdict.stale.is_empty(),
        "stale baseline entries (run --update-baseline): {:?}",
        report.verdict.stale
    );
}

#[test]
fn seeded_unwrap_in_pf_filter_is_caught_with_file_and_line() {
    // The acceptance scenario from ISSUE 2, run in memory: an `unwrap()`
    // slipped into `crates/pf/src/filter.rs` must fail with a file:line
    // diagnostic.
    let seeded = "\
fn estimate(&self) -> Pose2 {
    let best = self.weights.iter().copied().reduce(f64::max);
    best.unwrap()
}
";
    let violations = scan_file("crates/pf/src/filter.rs", &MaskedFile::new(seeded));
    let deny: Vec<_> = violations
        .iter()
        .filter(|v| v.severity == Severity::Deny)
        .collect();
    assert_eq!(deny.len(), 1, "{violations:?}");
    assert_eq!(deny[0].rule, "R1");
    assert_eq!(deny[0].line, 3);
    // And the empty baseline cannot absorb it.
    let verdict = Baseline::empty().compare(&violations, 0);
    assert_eq!(verdict.new_violations.len(), 1);
}

#[test]
fn every_crate_root_carries_the_lint_wall() {
    let root = repo_root();
    let files = workspace::collect_sources(&root).expect("walk succeeds");
    let roots: Vec<_> = files
        .iter()
        .filter(|(p, _)| raceloc_analyze::rules::is_crate_root(p))
        .collect();
    // 15 = 14 workspace crates (including this one) + the root facade crate.
    assert_eq!(roots.len(), 15, "unexpected crate-root set: {:?}", {
        let names: Vec<&str> = roots.iter().map(|(p, _)| p.as_str()).collect();
        names
    });
    for (path, text) in roots {
        assert!(
            text.contains("#![forbid(unsafe_code)]") && text.contains("#![deny(missing_docs)]"),
            "{path} is missing the lint wall"
        );
    }
}
