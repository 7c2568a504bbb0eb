//! Golden tests for the `fleet diff` regression gate (DESIGN.md §15):
//! checked-in report pairs with a known ordering flip and a known
//! Wilson-interval regression must each exit 1 with a byte-stable
//! human-readable diff, and an identical pair must exit 0. The same
//! reports, wrapped with a spec, drive the exit codes of `fleet check`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn run_diff(extra: &[&str]) -> Output {
    run_fleet("diff", extra)
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

#[test]
fn identical_reports_exit_zero() {
    let base = path_arg("diff_base.json");
    let out = run_diff(&[&base, &base]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.ends_with("verdict: OK\n"), "{stdout}");
    assert!(!stdout.contains("REGRESSION"), "{stdout}");
}

#[test]
fn ordering_flip_exits_one_with_stable_output() {
    let out = run_diff(&[
        &path_arg("diff_base.json"),
        &path_arg("diff_ordering_flip.json"),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert_eq!(stdout, read_golden("diff_ordering_flip.txt"));
    assert!(stdout.contains("REGRESSION ordering"), "{stdout}");
}

#[test]
fn interval_regression_exits_one_with_stable_output() {
    let out = run_diff(&[
        &path_arg("diff_base.json"),
        &path_arg("diff_interval_regression.json"),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert_eq!(stdout, read_golden("diff_interval_regression.txt"));
    assert!(stdout.contains("(Wilson intervals disjoint)"), "{stdout}");
}

#[test]
fn out_flag_writes_the_rendered_diff() {
    let out_path = std::env::temp_dir().join(format!(
        "raceloc-fleet-diff-golden-{}.txt",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&out_path);
    let out = run_diff(&[
        &path_arg("diff_base.json"),
        &path_arg("diff_ordering_flip.json"),
        "--out",
        &out_path.to_string_lossy(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let written = std::fs::read_to_string(&out_path).expect("diff artifact written");
    assert_eq!(written, read_golden("diff_ordering_flip.txt"));
    let _ = std::fs::remove_file(&out_path);
}

#[test]
fn usage_and_parse_failures_exit_two() {
    let out = run_diff(&[&path_arg("diff_base.json")]);
    assert_eq!(out.status.code(), Some(2), "one path is a usage error");
    let out = run_diff(&[
        &path_arg("diff_base.json"),
        &path_arg("definitely-missing.json"),
    ]);
    assert_eq!(out.status.code(), Some(2), "unreadable report");
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
fn check_exit_codes_follow_diff() {
    let clean = wrapped("diff_base.json");
    let flipped = wrapped("diff_ordering_flip.json");
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
    let bare = path_arg("diff_base.json");
    let out = run_fleet("check", &[&bare]);
    assert_eq!(out.status.code(), Some(2), "a bare report has no spec");
    let _ = std::fs::remove_file(clean);
    let _ = std::fs::remove_file(flipped);
}
