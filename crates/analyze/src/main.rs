#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! `raceloc-analyze` CLI: scan the workspace, diff against the ratcheted
//! baseline, and report.
//!
//! ```text
//! cargo run -p raceloc-analyze -- [--check] [--json <path>] [--advisory]
//!                                 [--update-baseline] [--root <dir>]
//!                                 [--baseline <path>] [--format human|sarif]
//!                                 [--sarif <path>] [--catalog <path>]
//! ```
//!
//! Exit codes: `0` clean (or report-only mode), `1` regressions or stale
//! baseline entries under `--check`, `2` usage or I/O failure.

use std::path::PathBuf;
use std::process::ExitCode;

use raceloc_analyze::baseline::Baseline;
use raceloc_analyze::{run_scan_with, sarif, workspace, ScanOptions};

struct Options {
    check: bool,
    advisory: bool,
    update_baseline: bool,
    json_path: Option<PathBuf>,
    sarif_path: Option<PathBuf>,
    format: Format,
    root: Option<PathBuf>,
    baseline_path: Option<PathBuf>,
    catalog_path: Option<PathBuf>,
}

#[derive(PartialEq)]
enum Format {
    Human,
    Sarif,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        check: false,
        advisory: false,
        update_baseline: false,
        json_path: None,
        sarif_path: None,
        format: Format::Human,
        root: None,
        baseline_path: None,
        catalog_path: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut path_arg = |flag: &str| {
            args.next()
                .map(PathBuf::from)
                .ok_or(format!("{flag} requires a path"))
        };
        match arg.as_str() {
            "--check" => opts.check = true,
            "--advisory" => opts.advisory = true,
            "--update-baseline" => opts.update_baseline = true,
            "--json" => opts.json_path = Some(path_arg("--json")?),
            "--sarif" => opts.sarif_path = Some(path_arg("--sarif")?),
            "--root" => opts.root = Some(path_arg("--root")?),
            "--baseline" => opts.baseline_path = Some(path_arg("--baseline")?),
            "--catalog" => opts.catalog_path = Some(path_arg("--catalog")?),
            "--format" => {
                opts.format = match args.next().as_deref() {
                    Some("human") => Format::Human,
                    Some("sarif") => Format::Sarif,
                    other => {
                        return Err(format!(
                            "--format must be `human` or `sarif`, got {other:?}"
                        ))
                    }
                };
            }
            "--help" | "-h" => {
                return Err(
                    "usage: raceloc-analyze [--check] [--json <path>] [--advisory] \
                            [--update-baseline] [--root <dir>] [--baseline <path>] \
                            [--format human|sarif] [--sarif <path>] [--catalog <path>]"
                        .to_string(),
                );
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let root = match opts.root.clone().or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| workspace::find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("raceloc-analyze: could not locate the workspace root (use --root)");
            return ExitCode::from(2);
        }
    };
    let baseline_path = opts
        .baseline_path
        .clone()
        .unwrap_or_else(|| root.join("analyze-baseline.json"));
    let baseline = if baseline_path.is_file() {
        match std::fs::read_to_string(&baseline_path)
            .map_err(|e| e.to_string())
            .and_then(|t| Baseline::from_json(&t))
        {
            Ok(b) => b,
            Err(e) => {
                eprintln!(
                    "raceloc-analyze: bad baseline {}: {e}",
                    baseline_path.display()
                );
                return ExitCode::from(2);
            }
        }
    } else {
        Baseline::empty()
    };

    let scan_opts = ScanOptions {
        catalog_path: opts.catalog_path.clone(),
    };
    let report = match run_scan_with(&root, &baseline, &scan_opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("raceloc-analyze: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    if opts.update_baseline {
        let next = Baseline::covering(&report.violations, report.suppressions);
        if let Err(e) = std::fs::write(&baseline_path, next.to_json()) {
            eprintln!(
                "raceloc-analyze: cannot write {}: {e}",
                baseline_path.display()
            );
            return ExitCode::from(2);
        }
        println!(
            "raceloc-analyze: wrote {} with {} entr{} (R9 ratchet {}, allow ratchet {})",
            baseline_path.display(),
            next.len(),
            if next.len() == 1 { "y" } else { "ies" },
            next.ratchet("R9"),
            next.ratchet("allow"),
        );
        return ExitCode::SUCCESS;
    }

    if let Some(json_path) = &opts.json_path {
        if let Err(e) = std::fs::write(json_path, report.to_json()) {
            eprintln!("raceloc-analyze: cannot write {}: {e}", json_path.display());
            return ExitCode::from(2);
        }
    }
    if let Some(sarif_path) = &opts.sarif_path {
        if let Err(e) = std::fs::write(sarif_path, sarif::to_sarif(&report)) {
            eprintln!(
                "raceloc-analyze: cannot write {}: {e}",
                sarif_path.display()
            );
            return ExitCode::from(2);
        }
    }
    match opts.format {
        Format::Human => print!("{}", report.human_summary(opts.advisory)),
        Format::Sarif => print!("{}", sarif::to_sarif(&report)),
    }
    if opts.check && !report.verdict.passes_check() {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
