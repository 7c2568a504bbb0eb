#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! **raceloc-analyze** — the workspace's own static-analysis pass.
//!
//! The paper's robustness argument rests on numeric kernels that must never
//! silently produce NaN, panic mid-lap, or vary run-to-run. Clippy cannot
//! express those *project* rules, so this crate implements a zero-new-
//! dependency source analyzer that can (the rule set is documented in
//! [`rules`] and DESIGN.md §10). Two layers:
//!
//! **Token rules** over masked source ([`mask`] blanks comments, strings,
//! and `#[cfg(test)]` code):
//!
//! - **R1** panic-freedom in the hot-path crates, with an advisory
//!   slice-indexing audit (`R1-idx`);
//! - **R2** float total-order: `partial_cmp(..).unwrap()` → `total_cmp`;
//! - **R3** determinism: no hash containers, thread RNGs, or wall-clock
//!   reads in the localization/sim crates;
//! - **R4** `unsafe` ban plus the lint wall in every crate root.
//!
//! **Structural rules** over a real token stream ([`lex`] → [`syntax`] →
//! per-file [`facts`], joined across files by [`crossfile`]):
//!
//! - **R7** every `Rng64::stream(seed, key)` call site must build `key`
//!   through the central `raceloc_core::stream_keys` registry, whose
//!   namespace regions the analyzer re-proves pairwise disjoint per seed
//!   domain;
//! - **R8** every telemetry name literal must be registered in the
//!   checked-in `telemetry-catalog.json`, and every catalog entry must
//!   still be alive in the tree;
//! - **R9** (ratcheted) allocation-shaped expressions inside
//!   `// analyze:steady-state` kernels and the fns they call.
//!
//! Findings are suppressed case-by-case with
//! `// analyze:allow(RULE, reason = "...")` — the reason is mandatory and
//! the tree-wide directive count is itself ratcheted. Pre-existing
//! violations live in a checked-in, ratcheted [`baseline`]
//! (`analyze-baseline.json`): any *new* violation fails `--check`, stale
//! allowances fail too until blessed with `--update-baseline`, and counts
//! only go down.
//!
//! Run locally with `cargo run -p raceloc-analyze -- --check`; add
//! `--format sarif` or `--sarif <path>` for SARIF 2.1.0 output.
//!
//! # Examples
//!
//! ```
//! use raceloc_analyze::{mask::MaskedFile, rules};
//!
//! let masked = MaskedFile::new("fn f(x: Option<u32>) -> u32 { x.unwrap() }\n");
//! let violations = rules::scan_file("crates/pf/src/filter.rs", &masked);
//! assert_eq!(violations.len(), 1);
//! assert_eq!(violations[0].rule, "R1");
//! ```

pub mod baseline;
pub mod crossfile;
pub mod facts;
pub mod lex;
pub mod mask;
pub mod report;
pub mod rules;
pub mod sarif;
pub mod syntax;
pub mod workspace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use baseline::Baseline;
use crossfile::Catalog;
use facts::{AllowFact, FileFacts};
use report::Report;
use rules::Violation;

/// Knobs for [`run_scan_with`].
#[derive(Debug, Clone, Default)]
pub struct ScanOptions {
    /// Path of the telemetry catalog; defaults to
    /// `<root>/telemetry-catalog.json`.
    pub catalog_path: Option<PathBuf>,
}

/// Scans every workspace source under `root` and compares against
/// `baseline`, producing the full [`Report`].
///
/// # Errors
///
/// Returns the first I/O error hit while reading sources.
pub fn run_scan(root: &Path, baseline: &Baseline) -> std::io::Result<Report> {
    run_scan_with(root, baseline, &ScanOptions::default())
}

/// [`run_scan`] with a custom catalog path.
///
/// # Errors
///
/// Returns the first I/O error hit while reading sources. A missing
/// catalog is an R8 finding, not an error.
pub fn run_scan_with(
    root: &Path,
    baseline: &Baseline,
    opts: &ScanOptions,
) -> std::io::Result<Report> {
    let files = workspace::collect_sources(root)?;
    let all_facts: Vec<(String, FileFacts)> = files
        .iter()
        .map(|(path, text)| (path.clone(), facts::extract(path, text)))
        .collect();

    // Local findings plus the cross-file joins.
    let mut violations: Vec<Violation> = all_facts
        .iter()
        .flat_map(|(_, f)| f.violations.iter().cloned())
        .collect();
    let registry: Vec<facts::RegistryFact> = all_facts
        .iter()
        .find(|(p, _)| p == crossfile::REGISTRY_FILE)
        .map(|(_, f)| f.registry.clone())
        .unwrap_or_default();
    violations.extend(crossfile::registry_violations(
        crossfile::REGISTRY_FILE,
        &registry,
    ));
    violations.extend(crossfile::stream_key_violations(&all_facts, &registry));
    let catalog_path = opts
        .catalog_path
        .clone()
        .unwrap_or_else(|| root.join(crossfile::CATALOG_FILE));
    let catalog = std::fs::read_to_string(&catalog_path)
        .ok()
        .and_then(|t| Catalog::from_json(&t).ok());
    violations.extend(crossfile::telemetry_violations(
        &all_facts,
        catalog.as_ref(),
    ));
    violations.extend(crossfile::steady_state_violations(&all_facts));

    // Suppressions, then the baseline diff.
    let allows: BTreeMap<String, Vec<AllowFact>> = all_facts
        .iter()
        .filter(|(_, f)| !f.allows.is_empty())
        .map(|(p, f)| (p.clone(), f.allows.clone()))
        .collect();
    let sup = crossfile::apply_allows(&allows, violations);
    let verdict = baseline.compare(&sup.violations, sup.directives);

    Ok(Report {
        violations: sup.violations,
        verdict,
        files_scanned: files.len(),
        suppressions: sup.directives,
        suppressed_findings: sup.matched,
    })
}
