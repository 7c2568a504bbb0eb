//! Workspace file discovery: which `.rs` files the pass scans.

use std::fs;
use std::path::{Path, PathBuf};

/// Directories never scanned: build output, vendored third-party stubs,
/// and VCS metadata.
const SKIP_DIRS: [&str; 4] = ["target", "third_party", ".git", "node_modules"];

/// Workspace-relative directories never scanned: the analyzer's fixture
/// corpus is deliberately full of known-bad snippets and must not trip
/// the self-scan (the fixture table test reads those files itself), and
/// `perfbench` is a separate cargo workspace whose metric-name literals
/// are report keys, not telemetry names.
const SKIP_RELATIVE: [&str; 2] = ["crates/analyze/tests/fixtures", "perfbench"];

/// Collects every workspace-owned `.rs` file under `root`, returned as
/// `(relative_path, contents)` with `/`-separated relative paths, sorted
/// for deterministic reports.
///
/// # Errors
///
/// Returns the first I/O error hit while walking or reading.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if SKIP_DIRS.contains(&name.as_ref())
                    || name.starts_with('.')
                    || SKIP_RELATIVE.contains(&relative(root, &path).as_str())
                {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let text = fs::read_to_string(&path)?;
                files.push((relative(root, &path), text));
            }
        }
    }
    files.sort();
    Ok(files)
}

/// `path` relative to `root`, `/`-separated regardless of platform.
fn relative(root: &Path, path: &Path) -> String {
    let rel: PathBuf = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Walks upward from `start` to find the workspace root: the first
/// directory containing both `Cargo.toml` and a `crates/` subdirectory.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_the_real_workspace_root_from_the_crate_dir() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root above crates/analyze");
        assert!(root.join("crates/analyze/Cargo.toml").is_file());
    }

    #[test]
    fn collects_and_relativizes_sources() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        let files = collect_sources(&root).expect("walk succeeds");
        let paths: Vec<&str> = files.iter().map(|(p, _)| p.as_str()).collect();
        assert!(paths.contains(&"crates/analyze/src/workspace.rs"));
        assert!(paths.contains(&"src/lib.rs"));
        assert!(!paths.iter().any(|p| p.starts_with("target/")));
        assert!(!paths.iter().any(|p| p.starts_with("third_party/")));
        assert!(
            !paths
                .iter()
                .any(|p| p.starts_with("crates/analyze/tests/fixtures/")),
            "the known-bad fixture corpus must not reach the self-scan"
        );
        assert!(!paths.iter().any(|p| p.starts_with("perfbench/")));
        // Sorted and unique.
        let mut sorted = paths.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted, paths);
    }
}
