//! Human-readable and JSON rendering of a scan's outcome.

use raceloc_obs::Json;

use crate::baseline::Verdict;
use crate::rules::{Severity, Violation};

/// The full outcome of one pass over the workspace.
#[derive(Debug)]
pub struct Report {
    /// Every surviving finding, including advisory, ratchet, and
    /// baselined ones (suppressed findings are gone).
    pub violations: Vec<Violation>,
    /// The split against the baseline.
    pub verdict: Verdict,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Total `analyze:allow` directives in the tree.
    pub suppressions: usize,
    /// How many findings those directives suppressed.
    pub suppressed_findings: usize,
}

impl Report {
    /// Advisory findings (never affect the exit code).
    pub fn advisories(&self) -> impl Iterator<Item = &Violation> {
        self.violations
            .iter()
            .filter(|v| v.severity == Severity::Advisory)
    }

    /// Ratchet findings (counted against the baseline's `ratchets`).
    pub fn ratchets(&self) -> impl Iterator<Item = &Violation> {
        self.violations
            .iter()
            .filter(|v| v.severity == Severity::Ratchet)
    }

    /// The `file:line: rule: message` diagnostics for regressions, the
    /// lines CI prints on failure.
    pub fn human_new_violations(&self) -> Vec<String> {
        self.verdict
            .new_violations
            .iter()
            .map(|v| format!("{}:{}: {}: {}", v.file, v.line, v.rule, v.message))
            .collect()
    }

    /// Renders the one-screen human summary.
    pub fn human_summary(&self, show_advisories: bool) -> String {
        let mut out = String::new();
        for line in self.human_new_violations() {
            out.push_str(&line);
            out.push('\n');
        }
        for v in &self.verdict.baselined {
            out.push_str(&format!(
                "{}:{}: {}: baselined: {}\n",
                v.file, v.line, v.rule, v.message
            ));
        }
        for (file, rule, allowed, found) in &self.verdict.stale {
            out.push_str(&format!(
                "{file}: {rule}: baseline is stale (allows {allowed}, found {found}); \
                 run with --update-baseline to ratchet down\n"
            ));
        }
        for d in &self.verdict.ratchet_regressions {
            out.push_str(&format!(
                "{}: ratchet regressed (allows {}, found {}); fix or suppress with a reason\n",
                d.rule, d.allowed, d.found
            ));
            for v in self.ratchets().filter(|v| v.rule == d.rule) {
                out.push_str(&format!(
                    "{}:{}: {}: {}\n",
                    v.file, v.line, v.rule, v.message
                ));
            }
        }
        for d in &self.verdict.ratchet_stale {
            out.push_str(&format!(
                "{}: ratchet is stale (allows {}, found {}); \
                 run with --update-baseline to ratchet down\n",
                d.rule, d.allowed, d.found
            ));
        }
        let advisories = self.advisories().count();
        if show_advisories {
            for v in self.advisories() {
                out.push_str(&format!(
                    "{}:{}: {}: advisory: {}\n",
                    v.file, v.line, v.rule, v.message
                ));
            }
        } else if advisories > 0 {
            out.push_str(&format!(
                "{advisories} advisory finding(s); rerun with --advisory to list\n"
            ));
        }
        out.push_str(&format!(
            "raceloc-analyze: {} file(s), {} new violation(s), {} baselined, \
             {} stale entr{}, {} ratchet finding(s), {} suppression(s)\n",
            self.files_scanned,
            self.verdict.new_violations.len(),
            self.verdict.baselined.len(),
            self.verdict.stale.len(),
            if self.verdict.stale.len() == 1 {
                "y"
            } else {
                "ies"
            },
            self.ratchets().count(),
            self.suppressions,
        ));
        out
    }

    /// The machine-readable report uploaded as a CI artifact.
    pub fn to_json(&self) -> String {
        fn viol(v: &Violation, status: &str) -> Json {
            Json::Obj(vec![
                ("file".to_string(), Json::Str(v.file.clone())),
                ("line".to_string(), Json::num(v.line as f64)),
                ("rule".to_string(), Json::Str(v.rule.to_string())),
                ("message".to_string(), Json::Str(v.message.clone())),
                ("status".to_string(), Json::Str(status.to_string())),
            ])
        }
        let mut findings: Vec<Json> = Vec::new();
        for v in &self.verdict.new_violations {
            findings.push(viol(v, "new"));
        }
        for v in &self.verdict.baselined {
            findings.push(viol(v, "baselined"));
        }
        for v in self.ratchets() {
            findings.push(viol(v, "ratchet"));
        }
        for v in self.advisories() {
            findings.push(viol(v, "advisory"));
        }
        let stale: Vec<Json> = self
            .verdict
            .stale
            .iter()
            .map(|(file, rule, allowed, found)| {
                Json::Obj(vec![
                    ("file".to_string(), Json::Str(file.clone())),
                    ("rule".to_string(), Json::Str(rule.clone())),
                    ("allowed".to_string(), Json::num(*allowed as f64)),
                    ("found".to_string(), Json::num(*found as f64)),
                ])
            })
            .collect();
        let ratchet_delta = |d: &crate::baseline::RatchetDelta| {
            Json::Obj(vec![
                ("rule".to_string(), Json::Str(d.rule.clone())),
                ("allowed".to_string(), Json::num(d.allowed as f64)),
                ("found".to_string(), Json::num(d.found as f64)),
            ])
        };
        let doc = Json::Obj(vec![
            ("version".to_string(), Json::num(2.0)),
            (
                "files_scanned".to_string(),
                Json::num(self.files_scanned as f64),
            ),
            (
                "new_violations".to_string(),
                Json::num(self.verdict.new_violations.len() as f64),
            ),
            (
                "suppressions".to_string(),
                Json::num(self.suppressions as f64),
            ),
            (
                "suppressed_findings".to_string(),
                Json::num(self.suppressed_findings as f64),
            ),
            ("findings".to_string(), Json::Arr(findings)),
            ("stale_baseline".to_string(), Json::Arr(stale)),
            (
                "ratchet_regressions".to_string(),
                Json::Arr(
                    self.verdict
                        .ratchet_regressions
                        .iter()
                        .map(ratchet_delta)
                        .collect(),
                ),
            ),
            (
                "ratchet_stale".to_string(),
                Json::Arr(
                    self.verdict
                        .ratchet_stale
                        .iter()
                        .map(ratchet_delta)
                        .collect(),
                ),
            ),
        ]);
        format!("{doc}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::Baseline;

    fn sample() -> Report {
        let violations = vec![
            Violation {
                file: "crates/pf/src/filter.rs".to_string(),
                line: 12,
                rule: "R1",
                message: "`unwrap()` can panic".to_string(),
                severity: Severity::Deny,
            },
            Violation {
                file: "crates/pf/src/filter.rs".to_string(),
                line: 30,
                rule: "R1-idx",
                message: "direct indexing".to_string(),
                severity: Severity::Advisory,
            },
            Violation {
                file: "crates/pf/src/parstep.rs".to_string(),
                line: 7,
                rule: "R9",
                message: "`.push(..)` allocates".to_string(),
                severity: Severity::Ratchet,
            },
        ];
        let verdict = Baseline::empty().compare(&violations, 1);
        Report {
            violations,
            verdict,
            files_scanned: 2,
            suppressions: 1,
            suppressed_findings: 0,
        }
    }

    #[test]
    fn human_diagnostic_has_file_line_rule_shape() {
        let r = sample();
        let lines = r.human_new_violations();
        assert_eq!(lines.len(), 1);
        assert!(
            lines[0].starts_with("crates/pf/src/filter.rs:12: R1: "),
            "{}",
            lines[0]
        );
    }

    #[test]
    fn summary_counts_advisories_without_listing_by_default() {
        let r = sample();
        let quiet = r.human_summary(false);
        assert!(quiet.contains("1 advisory finding(s)"));
        assert!(!quiet.contains("direct indexing"));
        let loud = r.human_summary(true);
        assert!(loud.contains("direct indexing"));
    }

    #[test]
    fn summary_lists_ratchet_regressions_with_their_findings() {
        let r = sample();
        let text = r.human_summary(false);
        assert!(
            text.contains("R9: ratchet regressed (allows 0, found 1)"),
            "{text}"
        );
        assert!(text.contains("crates/pf/src/parstep.rs:7: R9: "), "{text}");
        assert!(
            text.contains("allow: ratchet regressed (allows 0, found 1)"),
            "{text}"
        );
    }

    #[test]
    fn json_report_is_parseable_and_complete() {
        let r = sample();
        let doc = Json::parse(&r.to_json()).expect("valid json");
        assert_eq!(doc.get("new_violations").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("suppressions").and_then(Json::as_u64), Some(1));
        let findings = doc
            .get("findings")
            .and_then(Json::as_array)
            .expect("findings");
        assert_eq!(findings.len(), 3);
        assert_eq!(
            findings[0].get("status").and_then(Json::as_str),
            Some("new")
        );
        assert!(findings
            .iter()
            .any(|f| f.get("status").and_then(Json::as_str) == Some("ratchet")));
        let regressions = doc
            .get("ratchet_regressions")
            .and_then(Json::as_array)
            .expect("ratchet section");
        assert_eq!(regressions.len(), 2, "R9 + allow");
    }
}
