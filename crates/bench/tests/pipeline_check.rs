//! Exit codes of `pipeline check BASELINE FRESH`, driven through the
//! binary against the checked-in `BENCH_pipeline.json` and edited copies
//! of it: 0 clean, 1 on a violated gate, 2 on a usage or parse error.

use raceloc_obs::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn baseline_path() -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../BENCH_pipeline.json")
        .to_string_lossy()
        .into_owned()
}

fn baseline() -> Json {
    let text = std::fs::read_to_string(baseline_path()).expect("read BENCH_pipeline.json");
    Json::parse(&text).expect("BENCH_pipeline.json parses")
}

fn field<'a>(json: &'a mut Json, key: &str) -> &'a mut Json {
    match json {
        Json::Obj(fields) => match fields.iter_mut().find(|(k, _)| k == key) {
            Some((_, value)) => value,
            None => panic!("no field {key:?}"),
        },
        other => panic!("{other:?} is not an object"),
    }
}

fn items(json: &mut Json) -> &mut Vec<Json> {
    match json {
        Json::Arr(items) => items,
        other => panic!("{other:?} is not an array"),
    }
}

/// Writes `text` to a temp file named after `name` and returns its path.
fn temp(name: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "raceloc-pipeline-check-{}-{name}",
        std::process::id()
    ));
    std::fs::write(&path, text).expect("write temp report");
    path
}

/// Runs `pipeline check` with `args` and returns its exit code.
fn check(args: &[&str]) -> i32 {
    let out = Command::new(env!("CARGO_BIN_EXE_pipeline"))
        .arg("check")
        .args(args)
        .output()
        .expect("spawn pipeline");
    out.status.code().expect("exit code")
}

/// The exit code of the checked-in baseline against `fresh`.
fn check_fresh(name: &str, fresh: &Json) -> i32 {
    let path = temp(name, &format!("{fresh}\n"));
    let code = check(&[&baseline_path(), &path.to_string_lossy()]);
    let _ = std::fs::remove_file(path);
    code
}

#[test]
fn the_baseline_passes_against_itself() {
    assert_eq!(check(&[&baseline_path(), &baseline_path()]), 0);
}

#[test]
fn one_row_at_three_times_the_median_fails() {
    let mut fresh = baseline();
    let row = &mut items(field(&mut items(field(&mut fresh, "runs"))[0], "threads"))[0];
    let p50 = field(row, "step_ms_p50");
    *p50 = Json::num(3.0 * p50.as_f64().expect("step_ms_p50"));
    assert_eq!(check_fresh("slow.json", &fresh), 1);
}

#[test]
fn a_run_that_lost_the_bitwise_gate_fails() {
    let mut fresh = baseline();
    let run = &mut items(field(&mut fresh, "runs"))[0];
    *field(field(run, "divergence"), "bitwise_identical") = Json::Bool(false);
    assert_eq!(check_fresh("diverged.json", &fresh), 1);
}

#[test]
fn empty_and_truncated_reports_fail() {
    let empty = Json::Obj(vec![("runs".into(), Json::Arr(Vec::new()))]);
    assert_eq!(check_fresh("empty.json", &empty), 1);
    // An empty baseline has nothing to judge against, so it fails too.
    let empty_path = temp("empty-baseline.json", &format!("{empty}\n"));
    assert_eq!(check(&[&empty_path.to_string_lossy(), &baseline_path()]), 1);
    let _ = std::fs::remove_file(empty_path);

    // Only the N = 1200, threads = 1 row survives.
    let mut truncated = baseline();
    let runs = items(field(&mut truncated, "runs"));
    runs.truncate(1);
    items(field(&mut runs[0], "threads")).truncate(1);
    assert_eq!(check_fresh("truncated.json", &truncated), 1);
}

#[test]
fn usage_and_parse_failures_exit_two() {
    assert_eq!(check(&[&baseline_path()]), 2, "one path is a usage error");
    assert_eq!(
        check(&[&baseline_path(), "definitely-missing.json"]),
        2,
        "unreadable report"
    );
    let not_json = temp("not-json.json", "step_ms_p50 = 0.25\n");
    assert_eq!(
        check(&[&baseline_path(), &not_json.to_string_lossy()]),
        2,
        "non-JSON report"
    );
    let _ = std::fs::remove_file(not_json);
}
