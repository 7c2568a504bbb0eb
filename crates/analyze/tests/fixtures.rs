//! Table-driven fixture corpus: one known-bad and one known-clean snippet
//! per rule R1–R9 (plus the `analyze:allow` grammar), each run through the
//! same per-file + cross-file pipeline `run_scan` uses. The fixture files
//! live in `tests/fixtures/` and are excluded from the workspace walk, so
//! the known-bad snippets never reach the self-scan.

use std::collections::BTreeMap;
use std::path::PathBuf;

use raceloc_analyze::crossfile::{self, Catalog};
use raceloc_analyze::facts::{self, RegistryFact};
use raceloc_analyze::rules::Violation;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// A registry the R7 call-site check resolves against: `pf_motion` is the
/// one blessed namespace.
fn test_registry() -> Vec<RegistryFact> {
    vec![RegistryFact {
        name: "pf_motion".to_string(),
        domain: "run".to_string(),
        lo: 0,
        hi: u64::MAX,
        line: 1,
    }]
}

/// A catalog with one registered name (`pf.motion`) under the `pf` domain.
fn test_catalog() -> Catalog {
    Catalog::from_json(
        r#"{"domains": ["pf"], "entries": [{"name": "pf.motion", "kind": "counter"}]}"#,
    )
    .expect("test catalog parses")
}

/// Runs one fixture through the full pipeline (local rules, registry,
/// stream keys, telemetry, steady-state, suppressions) as if it were the
/// only file in the workspace, keeping findings attributed to it.
fn scan_fixture(fixture: &str, scan_path: &str) -> crossfile::Suppressed {
    let text = std::fs::read_to_string(fixture_dir().join(fixture))
        .unwrap_or_else(|e| panic!("fixture {fixture}: {e}"));
    let f = facts::extract(scan_path, &text);
    let mut violations = f.violations.clone();
    violations.extend(crossfile::registry_violations(scan_path, &f.registry));
    let files = vec![(scan_path.to_string(), f.clone())];
    violations.extend(crossfile::stream_key_violations(&files, &test_registry()));
    violations.extend(crossfile::telemetry_violations(
        &files,
        Some(&test_catalog()),
    ));
    violations.extend(crossfile::steady_state_violations(&files));
    // Dead-catalog-entry findings point at the catalog, not the fixture.
    violations.retain(|v| v.file == scan_path);
    let mut allows = BTreeMap::new();
    if !f.allows.is_empty() {
        allows.insert(scan_path.to_string(), f.allows.clone());
    }
    crossfile::apply_allows(&allows, violations)
}

fn rules_found(sup: &crossfile::Suppressed, rule: &str) -> Vec<Violation> {
    sup.violations
        .iter()
        .filter(|v| v.rule == rule)
        .cloned()
        .collect()
}

#[test]
fn fixture_table_covers_every_rule() {
    // (fixture file, path the rules see, rule under test, expect findings)
    const HOT: &str = "crates/pf/src/fixture.rs";
    let table: &[(&str, &str, &str, bool)] = &[
        ("r1_bad.rs", HOT, "R1", true),
        ("r1_clean.rs", HOT, "R1", false),
        ("r1_idx_bad.rs", HOT, "R1-idx", true),
        ("r1_idx_clean.rs", HOT, "R1-idx", false),
        ("r2_bad.rs", HOT, "R2", true),
        ("r2_clean.rs", HOT, "R2", false),
        ("r3_bad.rs", HOT, "R3", true),
        ("r3_clean.rs", HOT, "R3", false),
        ("r4_bad.rs", HOT, "R4", true),
        ("r4_clean.rs", "crates/pf/src/lib.rs", "R4", false),
        // The lint wall is required in crate roots: a clean non-root file
        // scanned *as* a root without the wall is an R4 finding.
        ("r1_clean.rs", "crates/pf/src/lib.rs", "R4", true),
        ("r7_bad.rs", HOT, "R7", true),
        ("r7_clean.rs", HOT, "R7", false),
        (
            "r7_registry_bad.rs",
            "crates/core/src/fixture.rs",
            "R7",
            true,
        ),
        (
            "r7_registry_clean.rs",
            "crates/core/src/fixture.rs",
            "R7",
            false,
        ),
        ("r8_bad.rs", HOT, "R8", true),
        ("r8_clean.rs", HOT, "R8", false),
        ("r9_bad.rs", HOT, "R9", true),
        ("r9_clean.rs", HOT, "R9", false),
        ("allow_bad.rs", HOT, "allow", true),
        ("allow_clean.rs", HOT, "R1", false),
    ];
    for (fixture, scan_path, rule, expect_bad) in table {
        let sup = scan_fixture(fixture, scan_path);
        let found = rules_found(&sup, rule);
        if *expect_bad {
            assert!(
                !found.is_empty(),
                "{fixture}: expected at least one {rule} finding, got none \
                 (all findings: {:?})",
                sup.violations
            );
        } else {
            assert!(
                found.is_empty(),
                "{fixture}: expected no {rule} findings, got {found:?}"
            );
        }
    }
}

#[test]
fn clean_fixtures_are_clean_of_every_deny_rule() {
    // The clean half of the corpus must not trip *any* deny rule, not just
    // the one it exercises (advisory findings like R1-idx are fine).
    for fixture in [
        "r1_clean.rs",
        "r2_clean.rs",
        "r3_clean.rs",
        "r4_clean.rs",
        "r7_clean.rs",
        "r7_registry_clean.rs",
        "r8_clean.rs",
        "r9_clean.rs",
        "allow_clean.rs",
    ] {
        let scan_path = if fixture == "r4_clean.rs" {
            "crates/pf/src/lib.rs"
        } else {
            "crates/pf/src/fixture.rs"
        };
        let sup = scan_fixture(fixture, scan_path);
        let denies: Vec<&Violation> = sup
            .violations
            .iter()
            .filter(|v| v.severity == raceloc_analyze::rules::Severity::Deny)
            .collect();
        assert!(denies.is_empty(), "{fixture}: deny findings {denies:?}");
    }
}

#[test]
fn r1_idx_suppression_matches_and_counts() {
    let sup = scan_fixture("r1_idx_allowed.rs", "crates/pf/src/fixture.rs");
    assert!(
        rules_found(&sup, "R1-idx").is_empty(),
        "the reasoned directive must suppress the indexing advisory"
    );
    assert_eq!(sup.directives, 1, "one allow directive in the fixture");
    assert_eq!(sup.matched, 1, "it must match exactly one finding");
    assert!(
        rules_found(&sup, "allow").is_empty(),
        "a matching directive is not itself a finding"
    );
}

#[test]
fn allow_suppression_is_case_by_case_not_blanket() {
    // allow_clean.rs suppresses the single R1 on the directive's next
    // line; a second unsuppressed violation elsewhere must still surface.
    let sup = scan_fixture("allow_clean.rs", "crates/pf/src/fixture.rs");
    assert_eq!(sup.directives, 1);
    assert_eq!(sup.matched, 1);
    let sup_bad = scan_fixture("r1_bad.rs", "crates/pf/src/fixture.rs");
    assert!(!rules_found(&sup_bad, "R1").is_empty());
}

#[test]
fn dead_catalog_entries_are_flagged_at_the_catalog() {
    // r1_clean.rs never mentions `pf.motion`, so the catalog's only entry
    // is dead — reported against the catalog file itself.
    let text = std::fs::read_to_string(fixture_dir().join("r1_clean.rs")).expect("fixture");
    let f = facts::extract("crates/pf/src/fixture.rs", &text);
    let files = vec![("crates/pf/src/fixture.rs".to_string(), f)];
    let viols = crossfile::telemetry_violations(&files, Some(&test_catalog()));
    assert!(
        viols
            .iter()
            .any(|v| v.rule == "R8" && v.file == crossfile::CATALOG_FILE),
        "{viols:?}"
    );
}
