//! Per-file structural *facts*: everything the cross-file rules (R7, R8,
//! R9) and the suppression machinery need to know about one source file.
//!
//! A [`FileFacts`] is a pure function of `(path, file contents)` — it
//! never looks at other files — so extraction is per file and only the
//! cross-file joins in [`crate::crossfile`] see the whole tree.

use crate::lex::{self, TokenKind};
use crate::mask::MaskedFile;
use crate::rules::{self, Severity, Violation};
use crate::syntax::{Directive, Syntax};

/// Telemetry write/read APIs whose first string-literal argument is a
/// metric name rule R8 resolves against the catalog.
pub const TEL_APIS: [&str; 6] = ["span", "time", "record_span", "add", "counter", "histogram"];

/// One `Rng64::stream(seed, key)` call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamSite {
    /// 1-based line of the call.
    pub line: usize,
    /// Source text of the key argument, for diagnostics.
    pub key_text: String,
    /// `stream_keys::<name>` constructors referenced by the key argument.
    pub key_names: Vec<String>,
    /// Whether the call sits in `#[cfg(test)]` code.
    pub in_test: bool,
}

/// One telemetry call with a literal metric name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelSite {
    /// 1-based line of the call.
    pub line: usize,
    /// Which API was called (`add`, `span`, …).
    pub api: String,
    /// The literal metric name.
    pub name: String,
    /// Whether the call sits in `#[cfg(test)]` code.
    pub in_test: bool,
}

/// One allocation-shaped expression inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocHit {
    /// 1-based line of the expression.
    pub line: usize,
    /// What was matched (`Vec::new`, `.push(..)`, `format!`, …).
    pub what: String,
}

/// The R9-relevant view of one `fn` item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnFacts {
    /// The function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Whether an `analyze:steady-state` directive marks this fn.
    pub steady: bool,
    /// Whether the fn sits in `#[cfg(test)]` code.
    pub in_test: bool,
    /// Names this fn calls (deduplicated), for the one-level closure.
    pub callees: Vec<String>,
    /// Allocation-shaped expressions in the body.
    pub allocs: Vec<AllocHit>,
}

/// One well-formed `analyze:allow` suppression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowFact {
    /// The suppressed rule.
    pub rule: String,
    /// The mandatory rationale.
    pub reason: String,
    /// 1-based line of the directive comment.
    pub line: usize,
}

/// One structurally parsed `StreamNamespace { .. }` registry entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryFact {
    /// Namespace name.
    pub name: String,
    /// Seed domain.
    pub domain: String,
    /// Region low bound (inclusive).
    pub lo: u64,
    /// Region high bound (inclusive).
    pub hi: u64,
    /// 1-based line of the entry.
    pub line: usize,
}

/// Everything the analyzer knows about one file in isolation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FileFacts {
    /// Local findings: R1–R4 plus malformed-directive denials.
    pub violations: Vec<Violation>,
    /// `Rng64::stream` call sites (R7).
    pub stream_sites: Vec<StreamSite>,
    /// Telemetry calls with literal names (R8).
    pub tel_sites: Vec<TelSite>,
    /// Every string literal outside `#[cfg(test)]` code, as
    /// `(line, value)` — R8 liveness and the domain-prefix rule.
    pub literals: Vec<(usize, String)>,
    /// `fn` items with their callees and allocation hits (R9).
    pub fns: Vec<FnFacts>,
    /// Well-formed suppressions.
    pub allows: Vec<AllowFact>,
    /// `StreamNamespace` registry entries found in this file (only the
    /// stream-key registry module has any).
    pub registry: Vec<RegistryFact>,
}

/// How far below its comment an `analyze:steady-state` directive still
/// attaches to a `fn` item (attribute lines may sit in between).
const STEADY_ATTACH_WINDOW: usize = 3;

/// Extracts the facts for one file. `path` is workspace-relative with
/// `/` separators.
pub fn extract(path: &str, text: &str) -> FileFacts {
    let masked = MaskedFile::new(text);
    let syn = Syntax::build(lex::lex(text));
    let in_test = |line: usize| masked.is_test_line(line.saturating_sub(1));

    let mut facts = FileFacts {
        violations: rules::scan_file(path, &masked),
        ..FileFacts::default()
    };

    // Directives.
    let mut steady_lines = Vec::new();
    for d in &syn.directives {
        match d {
            Directive::Allow { rule, reason, line } => facts.allows.push(AllowFact {
                rule: rule.clone(),
                reason: reason.clone(),
                line: *line,
            }),
            Directive::SteadyState { line } => steady_lines.push(*line),
            Directive::Malformed { line, why } => {
                if !in_test(*line) {
                    facts.violations.push(Violation {
                        file: path.to_string(),
                        line: *line,
                        rule: "allow",
                        message: why.clone(),
                        severity: Severity::Deny,
                    });
                }
            }
        }
    }

    // String literals outside test code.
    for t in &syn.tokens {
        if t.kind == TokenKind::Str && !in_test(t.line) {
            facts.literals.push((t.line, t.text.clone()));
        }
    }

    // fn items with innermost-attributed callees and allocation hits.
    let mut fn_facts: Vec<FnFacts> = syn
        .fns
        .iter()
        .map(|f| FnFacts {
            name: f.name.clone(),
            line: f.line,
            steady: steady_lines
                .iter()
                .any(|l| f.line >= *l && f.line <= l + STEADY_ATTACH_WINDOW),
            in_test: in_test(f.line),
            callees: Vec::new(),
            allocs: Vec::new(),
        })
        .collect();

    for call in &syn.calls {
        // Stream sites (R7).
        if !call.method
            && !call.macro_call
            && call.name == "stream"
            && call.path.len() >= 2
            && call.path[call.path.len() - 2] == "Rng64"
        {
            let key = call.args.get(1).copied();
            let key_names = key
                .map(|k| {
                    syn.paths_in(k)
                        .iter()
                        .flat_map(|p| {
                            p.windows(2)
                                .filter(|w| w[0] == "stream_keys")
                                .map(|w| w[1].clone())
                                .collect::<Vec<_>>()
                        })
                        .collect()
                })
                .unwrap_or_default();
            facts.stream_sites.push(StreamSite {
                line: call.line,
                key_text: key.map(|k| syn.arg_text(k)).unwrap_or_default(),
                key_names,
                in_test: in_test(call.line),
            });
        }

        // Telemetry sites (R8).
        if call.method && TEL_APIS.contains(&call.name.as_str()) {
            if let Some(name) = call.args.first().and_then(|a| syn.arg_str_literal(*a)) {
                facts.tel_sites.push(TelSite {
                    line: call.line,
                    api: call.name.clone(),
                    name: name.to_string(),
                    in_test: in_test(call.line),
                });
            }
        }

        // Attribute the call to its innermost enclosing fn (R9).
        if let Some(idx) = syn.enclosing_fn(call.tok) {
            let f = &mut fn_facts[idx];
            if !f.callees.contains(&call.name) {
                f.callees.push(call.name.clone());
            }
            if let Some(what) = alloc_shape(call.method, call.macro_call, &call.name, &call.path) {
                f.allocs.push(AllocHit {
                    line: call.line,
                    what,
                });
            }
        }
    }
    facts.fns = fn_facts;

    // Registry entries (R7): `StreamNamespace { field: literal, .. }`.
    extract_registry(path, &syn, &in_test, &mut facts);

    facts
}

/// Classifies a call as allocation-shaped for R9, returning its label.
fn alloc_shape(method: bool, macro_call: bool, name: &str, path: &[String]) -> Option<String> {
    if macro_call {
        return matches!(name, "format" | "vec").then(|| format!("{name}!(..)"));
    }
    if method {
        return matches!(name, "to_vec" | "to_string" | "collect" | "clone" | "push")
            .then(|| format!(".{name}(..)"));
    }
    if path.len() >= 2 {
        let ty = &path[path.len() - 2];
        let ok = matches!(
            (ty.as_str(), name),
            ("Vec" | "Box" | "String", "new")
                | ("Vec" | "String", "with_capacity")
                | ("String", "from")
        );
        if ok {
            return Some(format!("{ty}::{name}"));
        }
    }
    None
}

/// Parses `StreamNamespace { name: "..", domain: "..", lo: N, hi: N, .. }`
/// struct literals (skipping the type's own definition and test code).
/// Non-literal field values are an R7 violation: the analyzer cannot
/// evaluate Rust, so the registry table must stay literal.
fn extract_registry(
    path: &str,
    syn: &Syntax,
    in_test: &dyn Fn(usize) -> bool,
    facts: &mut FileFacts,
) {
    let toks = &syn.tokens;
    let mut i = 0;
    while i + 1 < toks.len() {
        let is_entry = toks[i].is_ident("StreamNamespace")
            && toks[i + 1].is_punct('{')
            && !(i > 0 && (toks[i - 1].is_ident("struct") || toks[i - 1].is_ident("impl")))
            && !in_test(toks[i].line);
        if !is_entry {
            i += 1;
            continue;
        }
        let entry_line = toks[i].line;
        let mut name = None;
        let mut domain = None;
        let mut lo = None;
        let mut hi = None;
        let mut bad = None;
        let mut j = i + 2;
        loop {
            match toks.get(j) {
                None => {
                    bad = bad.or(Some("unterminated entry".to_string()));
                    break;
                }
                Some(t) if t.is_punct('}') => {
                    j += 1;
                    break;
                }
                Some(field) if field.kind == TokenKind::Ident => {
                    let colon = toks.get(j + 1).is_some_and(|t| t.is_punct(':'));
                    let value = toks.get(j + 2);
                    let delim = toks
                        .get(j + 3)
                        .is_some_and(|t| t.is_punct(',') || t.is_punct('}'));
                    let lit =
                        value.is_some_and(|v| matches!(v.kind, TokenKind::Str | TokenKind::Number));
                    if !(colon && lit && delim) {
                        bad = bad.or(Some(format!(
                            "field `{}` of the `StreamNamespace` entry is not a plain \
                             string/integer literal; the registry table must stay literal \
                             so the analyzer can prove region disjointness",
                            field.text
                        )));
                        break;
                    }
                    let value = value.expect("checked above");
                    match field.text.as_str() {
                        "name" => name = Some(value.text.clone()),
                        "domain" => domain = Some(value.text.clone()),
                        "lo" => lo = lex::parse_u64_literal(&value.text),
                        "hi" => hi = lex::parse_u64_literal(&value.text),
                        _ => {}
                    }
                    j += 3;
                    if toks.get(j).is_some_and(|t| t.is_punct(',')) {
                        j += 1;
                    }
                }
                Some(_) => {
                    bad = bad.or(Some("unexpected token in entry".to_string()));
                    break;
                }
            }
        }
        if let Some(why) = bad {
            facts.violations.push(Violation {
                file: path.to_string(),
                line: entry_line,
                rule: "R7",
                message: why,
                severity: Severity::Deny,
            });
        } else {
            match (name, domain, lo, hi) {
                (Some(name), Some(domain), Some(lo), Some(hi)) => {
                    facts.registry.push(RegistryFact {
                        name,
                        domain,
                        lo,
                        hi,
                        line: entry_line,
                    });
                }
                _ => facts.violations.push(Violation {
                    file: path.to_string(),
                    line: entry_line,
                    rule: "R7",
                    message: "`StreamNamespace` entry is missing one of the required \
                              literal fields `name`, `domain`, `lo`, `hi`"
                        .to_string(),
                    severity: Severity::Deny,
                }),
            }
        }
        i = j.max(i + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_stream_sites_with_registry_names() {
        let f = extract(
            "crates/pf/src/x.rs",
            "fn f(seed: u64, e: u64, c: u64) {\n    let r = Rng64::stream(seed, stream_keys::pf_motion(e, c));\n    let bad = Rng64::stream(seed, (e << 32) | c);\n}\n",
        );
        assert_eq!(f.stream_sites.len(), 2);
        assert_eq!(f.stream_sites[0].key_names, ["pf_motion"]);
        assert!(f.stream_sites[1].key_names.is_empty());
        assert!(
            f.stream_sites[1].key_text.contains('<'),
            "{}",
            f.stream_sites[1].key_text
        );
    }

    #[test]
    fn extracts_tel_sites_and_literals_outside_tests() {
        let f = extract(
            "crates/sim/src/x.rs",
            "fn f(tel: &T) {\n    tel.add(\"sim.predict\", 1);\n    let name = \"faults.latency.steps\";\n}\n#[cfg(test)]\nmod tests {\n    fn t(tel: &T) { tel.add(\"test.only\", 1); }\n}\n",
        );
        assert_eq!(f.tel_sites.len(), 2);
        assert_eq!(f.tel_sites[0].name, "sim.predict");
        assert_eq!(f.tel_sites[0].api, "add");
        assert!(!f.tel_sites[0].in_test);
        // Test-code sites are recorded but flagged; crossfile skips them.
        assert_eq!(f.tel_sites[1].name, "test.only");
        assert!(f.tel_sites[1].in_test);
        let lits: Vec<&str> = f.literals.iter().map(|(_, v)| v.as_str()).collect();
        assert!(lits.contains(&"faults.latency.steps"));
        assert!(!lits.contains(&"test.only"));
    }

    #[test]
    fn steady_marker_attaches_through_attributes() {
        let f = extract(
            "crates/pf/src/x.rs",
            "// analyze:steady-state\n#[inline]\nfn kernel(v: &mut Vec<f64>) {\n    v.push(1.0);\n    let s = format!(\"x\");\n}\nfn other() { let v = Vec::new(); }\n",
        );
        let kernel = f.fns.iter().find(|f| f.name == "kernel").expect("kernel");
        assert!(kernel.steady);
        let whats: Vec<&str> = kernel.allocs.iter().map(|a| a.what.as_str()).collect();
        assert_eq!(whats, [".push(..)", "format!(..)"]);
        let other = f.fns.iter().find(|f| f.name == "other").expect("other");
        assert!(!other.steady);
        assert_eq!(other.allocs.len(), 1);
        assert_eq!(other.allocs[0].what, "Vec::new");
    }

    #[test]
    fn malformed_directives_are_deny_findings() {
        let f = extract("crates/pf/src/x.rs", "// analyze:allow(R1)\nfn f() {}\n");
        assert_eq!(f.violations.len(), 1);
        assert_eq!(f.violations[0].rule, "allow");
        assert_eq!(f.violations[0].severity, Severity::Deny);
        assert!(f.allows.is_empty());
    }

    #[test]
    fn parses_registry_entries_and_rejects_non_literals() {
        let good = extract(
            "crates/core/src/stream_keys.rs",
            "pub const REGISTRY: [StreamNamespace; 1] = [StreamNamespace {\n    name: \"pf_motion\",\n    domain: \"run\",\n    layout: \"x\",\n    lo: 0x0000_0001_0000_0000,\n    hi: 0x00FF_FFFF_FFFF_FFFF,\n}];\n",
        );
        assert_eq!(good.registry.len(), 1);
        let r = &good.registry[0];
        assert_eq!((r.name.as_str(), r.domain.as_str()), ("pf_motion", "run"));
        assert_eq!((r.lo, r.hi), (0x0000_0001_0000_0000, 0x00FF_FFFF_FFFF_FFFF));

        let bad = extract(
            "crates/core/src/stream_keys.rs",
            "const X: StreamNamespace = StreamNamespace { name: \"a\", domain: \"run\", lo: BASE, hi: 0xFF };\n",
        );
        assert!(bad.registry.is_empty());
        assert!(bad.violations.iter().any(|v| v.rule == "R7"));

        // The struct definition itself is not an entry.
        let def = extract(
            "crates/core/src/stream_keys.rs",
            "pub struct StreamNamespace {\n    pub name: &'static str,\n    pub lo: u64,\n}\n",
        );
        assert!(def.registry.is_empty());
        assert!(def.violations.is_empty());
    }

    #[test]
    fn registry_bounds_survive_the_full_u64_range() {
        let f = extract(
            "x.rs",
            "const R: [StreamNamespace; 1] = [StreamNamespace { name: \"w\", domain: \"m\", lo: 0x0, hi: 0xFFFF_FFFF_FFFF_FFFF }];\n",
        );
        assert_eq!(f.registry[0].hi, u64::MAX);
    }
}
