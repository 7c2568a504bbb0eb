//! SARIF 2.1.0 rendering of a [`Report`], so CI annotations and editor
//! integrations can consume the analyzer's findings without bespoke
//! parsing. Built on the vendored `raceloc_obs::Json` writer — no new
//! dependencies.

use raceloc_obs::Json;

use crate::report::Report;
use crate::rules::{Severity, Violation};

/// Rule metadata shown in SARIF viewers, one entry per rule the analyzer
/// can emit. Keep in sync with DESIGN.md §10.
const RULE_HELP: [(&str, &str); 9] = [
    ("R1", "panic-freedom in hot-path crates"),
    ("R1-idx", "direct slice indexing audit (advisory)"),
    ("R2", "float total-order: no partial_cmp().unwrap()"),
    (
        "R3",
        "determinism: no hash containers, thread RNGs, or wall-clock reads",
    ),
    ("R4", "unsafe ban and crate-root lint wall"),
    (
        "R7",
        "RNG stream keys must come from the stream_keys registry",
    ),
    ("R8", "telemetry names must be in telemetry-catalog.json"),
    ("R9", "steady-state allocation lint (ratcheted)"),
    ("allow", "analyze:allow directive hygiene"),
];

/// The SARIF `level` for a finding.
fn level(v: &Violation) -> &'static str {
    match v.severity {
        Severity::Deny => "error",
        Severity::Ratchet => "warning",
        Severity::Advisory => "note",
    }
}

fn result(v: &Violation, baselined: bool) -> Json {
    let mut fields = vec![
        ("ruleId".to_string(), Json::Str(v.rule.to_string())),
        ("level".to_string(), Json::Str(level(v).to_string())),
        (
            "message".to_string(),
            Json::Obj(vec![("text".to_string(), Json::Str(v.message.clone()))]),
        ),
        (
            "locations".to_string(),
            Json::Arr(vec![Json::Obj(vec![(
                "physicalLocation".to_string(),
                Json::Obj(vec![
                    (
                        "artifactLocation".to_string(),
                        Json::Obj(vec![("uri".to_string(), Json::Str(v.file.clone()))]),
                    ),
                    (
                        "region".to_string(),
                        Json::Obj(vec![(
                            "startLine".to_string(),
                            Json::num(v.line.max(1) as f64),
                        )]),
                    ),
                ]),
            )])]),
        ),
    ];
    if baselined {
        // SARIF's own suppression model, so viewers hide grandfathered
        // findings by default.
        fields.push((
            "suppressions".to_string(),
            Json::Arr(vec![Json::Obj(vec![
                ("kind".to_string(), Json::Str("external".to_string())),
                (
                    "justification".to_string(),
                    Json::Str("grandfathered in analyze-baseline.json".to_string()),
                ),
            ])]),
        ));
    }
    Json::Obj(fields)
}

/// Renders the report as a SARIF 2.1.0 document.
pub fn to_sarif(report: &Report) -> String {
    let rules: Vec<Json> = RULE_HELP
        .iter()
        .map(|(id, desc)| {
            Json::Obj(vec![
                ("id".to_string(), Json::Str(id.to_string())),
                (
                    "shortDescription".to_string(),
                    Json::Obj(vec![("text".to_string(), Json::Str(desc.to_string()))]),
                ),
            ])
        })
        .collect();
    let mut results: Vec<Json> = Vec::new();
    for v in &report.verdict.new_violations {
        results.push(result(v, false));
    }
    for v in &report.verdict.baselined {
        results.push(result(v, true));
    }
    for v in report.ratchets() {
        results.push(result(v, false));
    }
    for v in report.advisories() {
        results.push(result(v, false));
    }
    let doc = Json::Obj(vec![
        (
            "$schema".to_string(),
            Json::Str("https://json.schemastore.org/sarif-2.1.0.json".to_string()),
        ),
        ("version".to_string(), Json::Str("2.1.0".to_string())),
        (
            "runs".to_string(),
            Json::Arr(vec![Json::Obj(vec![
                (
                    "tool".to_string(),
                    Json::Obj(vec![(
                        "driver".to_string(),
                        Json::Obj(vec![
                            ("name".to_string(), Json::Str("raceloc-analyze".to_string())),
                            (
                                "informationUri".to_string(),
                                Json::Str("DESIGN.md".to_string()),
                            ),
                            ("rules".to_string(), Json::Arr(rules)),
                        ]),
                    )]),
                ),
                ("results".to_string(), Json::Arr(results)),
            ])]),
        ),
    ]);
    format!("{doc}\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::Baseline;

    #[test]
    fn sarif_document_shape() {
        let violations = vec![
            Violation {
                file: "crates/pf/src/filter.rs".to_string(),
                line: 12,
                rule: "R1",
                message: "`unwrap()` can panic".to_string(),
                severity: Severity::Deny,
            },
            Violation {
                file: "crates/pf/src/parstep.rs".to_string(),
                line: 3,
                rule: "R9",
                message: "allocates".to_string(),
                severity: Severity::Ratchet,
            },
        ];
        let verdict = Baseline::empty().compare(&violations, 0);
        let report = Report {
            violations,
            verdict,
            files_scanned: 1,
            suppressions: 0,
            suppressed_findings: 0,
        };
        let doc = Json::parse(&to_sarif(&report)).expect("valid json");
        assert_eq!(doc.get("version").and_then(Json::as_str), Some("2.1.0"));
        let runs = doc.get("runs").and_then(Json::as_array).expect("runs");
        let results = runs[0]
            .get("results")
            .and_then(Json::as_array)
            .expect("results");
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].get("ruleId").and_then(Json::as_str), Some("R1"));
        assert_eq!(
            results[0].get("level").and_then(Json::as_str),
            Some("error")
        );
        assert_eq!(
            results[1].get("level").and_then(Json::as_str),
            Some("warning")
        );
        let loc = results[0]
            .get("locations")
            .and_then(Json::as_array)
            .expect("locations");
        let uri = loc[0]
            .get("physicalLocation")
            .and_then(|p| p.get("artifactLocation"))
            .and_then(|a| a.get("uri"))
            .and_then(Json::as_str);
        assert_eq!(uri, Some("crates/pf/src/filter.rs"));
        let driver_rules = runs[0]
            .get("tool")
            .and_then(|t| t.get("driver"))
            .and_then(|d| d.get("rules"))
            .and_then(Json::as_array)
            .expect("rules");
        assert_eq!(driver_rules.len(), RULE_HELP.len());
    }
}
