//! Exit codes of `fleet check` (DESIGN.md §15), driven through the
//! binary: a checked-in report with the paper's ordering passes, one with
//! SynPF and Cartographer swapped under odometry slip fails, and usage or
//! parse failures exit 2 before anything is judged.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn run_fleet(subcommand: &str, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fleet"))
        .arg(subcommand)
        .args(extra)
        .output()
        .expect("spawn fleet")
}

fn read_golden(name: &str) -> String {
    std::fs::read_to_string(golden(name)).unwrap_or_else(|e| panic!("missing golden {name}: {e}"))
}

fn path_arg(name: &str) -> String {
    golden(name).to_string_lossy().into_owned()
}

/// Writes a golden report wrapped as a `fleet` output file, with the quick
/// robustness spec (whose `odom_slip` and `nominal` cells it matches).
fn wrapped(name: &str) -> PathBuf {
    let report = raceloc_obs::Json::parse(&read_golden(name)).expect("golden parses");
    let doc = raceloc_obs::Json::Obj(vec![
        (
            "spec".into(),
            raceloc_bench::fleet::fleet_spec(true).to_json(),
        ),
        ("report".into(), report),
    ]);
    let path =
        std::env::temp_dir().join(format!("raceloc-fleet-check-{}-{name}", std::process::id()));
    std::fs::write(&path, format!("{doc}\n")).expect("write wrapped report");
    path
}

#[test]
fn check_exit_codes_follow_the_gates() {
    let clean = wrapped("check_base.json");
    let flipped = wrapped("check_slip_inverted.json");
    let clean_arg = clean.to_string_lossy().into_owned();
    let flipped_arg = flipped.to_string_lossy().into_owned();

    let out = run_fleet("check", &[&clean_arg]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let out = run_fleet("check", &[&clean_arg, &flipped_arg]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("all gates passed"), "{stdout}");
    assert!(stdout.contains("must be below Cartographer"), "{stdout}");

    // Usage and parse failures exit 2 before anything is judged.
    for args in [
        vec![],
        vec!["--out", clean_arg.as_str()],
        vec![clean_arg.as_str(), "definitely-missing.json"],
    ] {
        let out = run_fleet("check", &args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    }
    let bare = path_arg("check_base.json");
    let out = run_fleet("check", &[&bare]);
    assert_eq!(out.status.code(), Some(2), "a bare report has no spec");
    let _ = std::fs::remove_file(clean);
    let _ = std::fs::remove_file(flipped);
}
