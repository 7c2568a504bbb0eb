//! The rule set: project-specific invariants the stock toolchain cannot
//! express, matched over masked source (see [`crate::mask`]).
//!
//! | Rule | Severity | Scope | Meaning |
//! |---|---|---|---|
//! | `R1` | deny | hot-path crates | panic-freedom: no `unwrap` / `expect` / `panic!` family outside `#[cfg(test)]` |
//! | `R1-idx` | advisory | hot-path crates | direct slice indexing (heuristic; audit, don't fail) |
//! | `R2` | deny | whole workspace | float total-order: no `partial_cmp(..).unwrap()/expect()` — use `total_cmp` |
//! | `R3` | deny | hot-path crates | determinism: no hash containers, `thread_rng`, or wall-clock reads outside `raceloc-obs` |
//! | `R4` | deny | whole workspace | `unsafe` ban + lint wall (`#![forbid(unsafe_code)]`, `#![deny(missing_docs)]`) in crate roots |

use crate::mask::MaskedFile;

/// The crates whose kernels must be panic-free and deterministic (R1, R3):
/// the particle filter, ray casting, the worker pool, SLAM, the
/// simulator, the fault-injection engine (whose schedules must replay
/// bit-identically from `(seed, step)` alone), the fleet-evaluation
/// engine (whose reports must be byte-identical for any pool width), and
/// the multi-session serve engine (whose session streams must replay
/// bit-identically for any thread count).
pub const HOT_PATH_CRATES: [&str; 8] = [
    "eval", "faults", "par", "pf", "range", "serve", "slam", "sim",
];

/// How a diagnostic participates in the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails `--check` unless baselined.
    Deny,
    /// Reported for audit; never fails and never baselined.
    Advisory,
    /// Counted per rule against the baseline's `ratchets` section: the
    /// workspace-wide count may shrink (bless with `--update-baseline`)
    /// but never grow. Used by R9 and the suppression-count ratchet.
    Ratchet,
}

/// One finding at a specific source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (`R1`, `R1-idx`, `R2`, `R3`, `R4`, `R7`, `R8`, `R9`,
    /// `allow`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// Whether the finding is denying or advisory.
    pub severity: Severity,
}

/// Whether `path` (workspace-relative, `/`-separated) lies in a hot-path
/// crate's `src/` tree.
fn in_hot_path_src(path: &str) -> bool {
    HOT_PATH_CRATES
        .iter()
        .any(|c| path.starts_with(&format!("crates/{c}/src/")))
}

/// Whether `path` is one of the crate roots R4 requires a lint wall in.
pub fn is_crate_root(path: &str) -> bool {
    path == "src/lib.rs" || (path.starts_with("crates/") && path.ends_with("/src/lib.rs"))
}

/// Is `text[at]` preceded by an identifier character (or underscore)?
fn ident_before(text: &str, at: usize) -> bool {
    text[..at]
        .chars()
        .next_back()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// Is the character right after the match an identifier character?
fn ident_after(text: &str, end: usize) -> bool {
    text[end..]
        .chars()
        .next()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// All match positions of `needle` in `line` that are standalone tokens:
/// an identifier-edge of the needle must not continue into a longer
/// identifier (`.unwrap()` matches after `x`; `unsafe` does not match
/// inside `unsafe_code`).
fn token_positions(line: &str, needle: &str) -> Vec<usize> {
    let first_is_ident = needle
        .chars()
        .next()
        .is_some_and(|c| c.is_alphanumeric() || c == '_');
    let last_is_ident = needle
        .chars()
        .next_back()
        .is_some_and(|c| c.is_alphanumeric() || c == '_');
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(rel) = line[from..].find(needle) {
        let at = from + rel;
        let end = at + needle.len();
        if (!first_is_ident || !ident_before(line, at))
            && (!last_is_ident || !ident_after(line, end))
        {
            out.push(at);
        }
        from = end;
    }
    out
}

/// Scans one masked file; `path` is workspace-relative with `/` separators.
pub fn scan_file(path: &str, masked: &MaskedFile) -> Vec<Violation> {
    let mut out = Vec::new();
    let lines: Vec<&str> = masked.lines().collect();
    let hot = in_hot_path_src(path);
    let in_obs = path.starts_with("crates/obs/");
    let in_analyze = path.starts_with("crates/analyze/");

    for (i, line) in lines.iter().enumerate() {
        let lineno = i + 1;
        if masked.is_test_line(i) {
            continue;
        }

        // R1: panic-freedom in the hot-path kernels.
        if hot {
            for (needle, what) in [
                (".unwrap()", "`unwrap()` can panic"),
                (".unwrap_err()", "`unwrap_err()` can panic"),
                (".expect(", "`expect(..)` can panic"),
                ("panic!", "explicit `panic!`"),
                ("unreachable!", "`unreachable!` can panic"),
                ("todo!", "`todo!` panics"),
                ("unimplemented!", "`unimplemented!` panics"),
            ] {
                for _ in token_positions(line, needle) {
                    out.push(Violation {
                        file: path.to_string(),
                        line: lineno,
                        rule: "R1",
                        message: format!(
                            "{what} in a hot-path crate; return an Option/Result or guard the case"
                        ),
                        severity: Severity::Deny,
                    });
                }
            }
            // R1-idx (advisory): direct indexing `expr[..]` can panic on an
            // out-of-bounds index. Heuristic: `[` directly after an
            // identifier character, `)`, or `]`.
            for (at, c) in line.char_indices() {
                if c == '['
                    && line[..at]
                        .chars()
                        .next_back()
                        .is_some_and(|p| p.is_alphanumeric() || p == '_' || p == ')' || p == ']')
                {
                    out.push(Violation {
                        file: path.to_string(),
                        line: lineno,
                        rule: "R1-idx",
                        message: "direct indexing can panic; consider `get` or an iterator"
                            .to_string(),
                        severity: Severity::Advisory,
                    });
                }
            }
        }

        // R2: float total-order. `partial_cmp` chained into unwrap/expect
        // (same line or the continuation line) instead of `total_cmp`.
        if !in_analyze {
            if let Some(pc) = line.find("partial_cmp") {
                let window = format!("{}{}", &line[pc..], lines.get(i + 1).copied().unwrap_or(""));
                if window.contains(".unwrap()") || window.contains(".expect(") {
                    out.push(Violation {
                        file: path.to_string(),
                        line: lineno,
                        rule: "R2",
                        message: "`partial_cmp(..).unwrap()/expect(..)` is not a total order; \
                                  use `f64::total_cmp`/`f32::total_cmp`"
                            .to_string(),
                        severity: Severity::Deny,
                    });
                }
            }
        }

        // R3: determinism in the localization/sim crates. Hash containers
        // iterate in randomized order; thread RNGs and wall-clock reads make
        // runs non-reproducible. Timing goes through `raceloc_obs::Stopwatch`.
        if hot && !in_obs {
            for (needle, what, hint) in [
                ("HashMap", "randomized-iteration container", "use BTreeMap"),
                ("HashSet", "randomized-iteration container", "use BTreeSet"),
                ("thread_rng", "non-seedable RNG", "use raceloc_core::Rng64"),
                (
                    "Instant::now",
                    "direct wall-clock read",
                    "use raceloc_obs::Stopwatch",
                ),
                (
                    "SystemTime",
                    "direct wall-clock read",
                    "use raceloc_obs::Stopwatch",
                ),
            ] {
                for _ in token_positions(line, needle) {
                    out.push(Violation {
                        file: path.to_string(),
                        line: lineno,
                        rule: "R3",
                        message: format!("{what} (`{needle}`) breaks determinism; {hint}"),
                        severity: Severity::Deny,
                    });
                }
            }
        }

        // R4 (part 1): no `unsafe` anywhere in the workspace.
        for _ in token_positions(line, "unsafe") {
            out.push(Violation {
                file: path.to_string(),
                line: lineno,
                rule: "R4",
                message: "`unsafe` is banned workspace-wide (#![forbid(unsafe_code)])".to_string(),
                severity: Severity::Deny,
            });
        }
    }

    // R4 (part 2): lint wall in crate roots. Matched on masked text so a
    // doc-comment mention cannot satisfy the check.
    if is_crate_root(path) {
        for attr in ["#![forbid(unsafe_code)]", "#![deny(missing_docs)]"] {
            if !masked.code.contains(attr) {
                out.push(Violation {
                    file: path.to_string(),
                    line: 1,
                    rule: "R4",
                    message: format!("crate root is missing the lint wall attribute `{attr}`"),
                    severity: Severity::Deny,
                });
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(path: &str, src: &str) -> Vec<Violation> {
        scan_file(path, &MaskedFile::new(src))
    }

    fn rules_of(vs: &[Violation]) -> Vec<&'static str> {
        vs.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn r1_flags_unwrap_in_hot_crate() {
        let vs = scan("crates/pf/src/filter.rs", "fn f() { x.unwrap(); }\n");
        assert_eq!(rules_of(&vs), ["R1"]);
        assert_eq!(vs[0].line, 1);
        assert_eq!(vs[0].severity, Severity::Deny);
    }

    #[test]
    fn r1_ignores_cold_crates_and_tests() {
        assert!(scan("crates/metrics/src/lap.rs", "fn f() { x.unwrap(); }\n").is_empty());
        let vs = scan(
            "crates/pf/src/filter.rs",
            "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n",
        );
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn r1_ignores_comments_and_strings() {
        let vs = scan(
            "crates/pf/src/filter.rs",
            "/// call .unwrap() freely\nfn f() { let s = \"panic!\"; }\n",
        );
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn r1_does_not_flag_debug_invariant() {
        let vs = scan(
            "crates/pf/src/filter.rs",
            "fn f() { raceloc_core::debug_invariant!(x > 0.0, \"msg\"); }\n",
        );
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn r1_idx_is_advisory() {
        let vs = scan("crates/pf/src/filter.rs", "fn f() { let y = xs[3]; }\n");
        assert_eq!(rules_of(&vs), ["R1-idx"]);
        assert_eq!(vs[0].severity, Severity::Advisory);
    }

    #[test]
    fn r1_idx_skips_attributes_and_macros() {
        let vs = scan(
            "crates/pf/src/filter.rs",
            "#[derive(Debug)]\nfn f() { let v = vec![1, 2]; let a: [f64; 2] = [0.0, 0.0]; }\n",
        );
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn r2_flags_partial_cmp_unwrap_everywhere() {
        let vs = scan(
            "crates/metrics/src/lap.rs",
            "fn f() { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n",
        );
        assert_eq!(rules_of(&vs), ["R2"]);
    }

    #[test]
    fn r2_catches_split_lines() {
        let vs = scan(
            "crates/map/src/path.rs",
            "let i = c.partial_cmp(&s)\n    .expect(\"finite\");\n",
        );
        assert_eq!(rules_of(&vs), ["R2"]);
    }

    #[test]
    fn r2_allows_total_cmp_and_bare_partial_cmp() {
        assert!(scan("crates/map/src/a.rs", "v.sort_by(f64::total_cmp);\n").is_empty());
        assert!(scan(
            "crates/map/src/a.rs",
            "let o = a.partial_cmp(&b).unwrap_or(Ordering::Equal);\n"
        )
        .is_empty());
    }

    #[test]
    fn r3_flags_hash_and_clock_in_hot_crates_only() {
        let src = "use std::collections::HashMap;\nlet t = Instant::now();\n";
        let vs = scan("crates/slam/src/slam.rs", src);
        assert_eq!(rules_of(&vs), ["R3", "R3"]);
        assert!(scan("crates/obs/src/telemetry.rs", src).is_empty());
        assert!(scan("crates/metrics/src/latency.rs", src).is_empty());
    }

    #[test]
    fn r4_flags_unsafe_everywhere_but_not_the_lint_attr() {
        let vs = scan("crates/metrics/src/lap.rs", "unsafe { *p }\n");
        assert_eq!(rules_of(&vs), ["R4"]);
        assert!(scan("crates/metrics/src/lap.rs", "#![forbid(unsafe_code)]\n").is_empty());
    }

    #[test]
    fn r4_requires_lint_wall_in_crate_roots() {
        let vs = scan("crates/map/src/lib.rs", "//! docs\npub mod grid;\n");
        assert_eq!(rules_of(&vs), ["R4", "R4"]);
        let ok = "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n//! docs\n";
        assert!(scan("crates/map/src/lib.rs", ok).is_empty());
        // A doc-comment mention is not a lint wall.
        let fake = "//! has #![forbid(unsafe_code)] and #![deny(missing_docs)] in docs\n";
        assert_eq!(scan("crates/map/src/lib.rs", fake).len(), 2);
    }

    #[test]
    fn serve_is_a_hot_path_crate() {
        let vs = scan("crates/serve/src/engine.rs", "fn f() { x.unwrap(); }\n");
        assert_eq!(rules_of(&vs), ["R1"]);
        let vs = scan(
            "crates/serve/src/engine.rs",
            "use std::collections::HashMap;\n",
        );
        assert_eq!(rules_of(&vs), ["R3"]);
    }
}
