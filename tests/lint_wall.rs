//! The lint wall (DESIGN.md §10, rules R1 and R4): the workspace forbids
//! `unsafe` in every target of every package, every library crate root
//! denies missing docs, and the hot-path crate roots forbid the panicking
//! calls. Rustc and clippy enforce the lints once they are declared; this
//! test makes sure no declaration is dropped.

use std::fs;
use std::path::{Path, PathBuf};

/// The crates whose kernels must not panic (rule R1): the particle
/// filter, ray casting, the worker pool, SLAM, the simulator, fault
/// injection, the fleet engine and the serve engine.
const HOT_PATH_CRATES: [&str; 8] = [
    "eval", "faults", "par", "pf", "range", "serve", "slam", "sim",
];

/// The lints every hot-path crate root forbids (rule R1).
const NO_PANIC_LINTS: [&str; 6] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
];

fn workspace() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The directories of every workspace package: the root package and each
/// `crates/*` member.
fn packages() -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(workspace().join("crates"))
        .expect("crates/ is readable")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|dir| dir.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    dirs.push(workspace().to_path_buf());
    dirs
}

/// The `table.key = value` entries of a manifest, comments skipped.
fn manifest_entries(manifest: &str) -> Vec<String> {
    let mut table = String::new();
    let mut entries = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            table = header.trim().to_string();
        } else if let Some((key, value)) = line.split_once('=') {
            entries.push(format!("{table}.{} = {}", key.trim(), value.trim()));
        }
    }
    entries
}

/// The lints named by the crate-level `#![<level>(..)]` attributes of a
/// crate root; comment lines are skipped, so a mention is not a lint.
fn crate_lints(source: &str, level: &str) -> Vec<String> {
    let compact: String = source
        .lines()
        .filter(|line| !line.trim_start().starts_with("//"))
        .flat_map(str::chars)
        .filter(|c| !c.is_whitespace())
        .collect();
    let open = format!("#![{level}(");
    let mut lints = Vec::new();
    let mut rest = compact.as_str();
    while let Some(at) = rest.find(&open) {
        rest = &rest[at + open.len()..];
        let end = rest.find(")]").expect("unterminated crate attribute");
        lints.extend(
            rest[..end]
                .split(',')
                .filter(|l| !l.is_empty())
                .map(String::from),
        );
        rest = &rest[end..];
    }
    lints
}

#[test]
fn every_package_inherits_the_workspace_unsafe_ban() {
    let root = manifest_entries(&read(&workspace().join("Cargo.toml")));
    assert!(
        root.iter()
            .any(|e| e == r#"workspace.lints.rust.unsafe_code = "forbid""#),
        "the root Cargo.toml lacks [workspace.lints.rust] unsafe_code = \"forbid\""
    );
    let packages = packages();
    assert!(packages.len() > HOT_PATH_CRATES.len(), "found {packages:?}");
    for dir in packages {
        let manifest = dir.join("Cargo.toml");
        assert!(
            manifest_entries(&read(&manifest))
                .iter()
                .any(|e| e == "lints.workspace = true"),
            "{} lacks [lints] workspace = true",
            manifest.display()
        );
    }
}

#[test]
fn every_crate_root_denies_missing_docs() {
    for dir in packages() {
        let root = dir.join("src/lib.rs");
        if root.is_file() {
            assert!(
                crate_lints(&read(&root), "deny")
                    .iter()
                    .any(|l| l == "missing_docs"),
                "{} lacks #![deny(missing_docs)]",
                root.display()
            );
        }
    }
}

#[test]
fn every_hot_path_crate_root_forbids_the_panicking_calls() {
    for name in HOT_PATH_CRATES {
        let root = workspace().join(format!("crates/{name}/src/lib.rs"));
        let forbidden = crate_lints(&read(&root), "forbid");
        for lint in NO_PANIC_LINTS {
            assert!(
                forbidden.iter().any(|l| l == lint),
                "{} does not forbid {lint}",
                root.display()
            );
        }
    }
}

#[test]
fn a_commented_out_attribute_is_not_a_lint() {
    let source = "// #![forbid(clippy::panic)]\n//! #![deny(missing_docs)]\n#![deny(dead_code)]\n";
    assert!(crate_lints(source, "forbid").is_empty());
    assert_eq!(crate_lints(source, "deny"), ["dead_code"]);
    let manifest = "[lints]\n# workspace = true\n";
    assert!(manifest_entries(manifest).is_empty());
}
