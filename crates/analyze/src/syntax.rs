//! Structural recovery over the [`crate::lex`] token stream: `fn` item
//! boundaries, call sites with their argument expressions, and the
//! `analyze:` comment directives.
//!
//! This is deliberately not a Rust parser. It recognizes exactly the
//! three shapes the R7/R8/R9 rules and the suppression machinery consume,
//! with delimiter balancing where nesting matters, and it degrades
//! gracefully on source it does not understand (an unrecognized region
//! simply contributes no facts — the token-level rules R1–R4 still see
//! every line through [`crate::mask`]).

use crate::lex::{Comment, Lexed, Token, TokenKind};

/// One `fn` item: its name, where it starts, and which token range holds
/// its body (braces included). Trait-method signatures without a body get
/// `body: None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// The function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token-index range `[open, close]` of the body braces, when present.
    pub body: Option<(usize, usize)>,
}

/// One call site: a path or method call with balanced, comma-split
/// top-level argument token ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// The called name (last path segment, method name, or macro name).
    pub name: String,
    /// Leading path/receiver segments, callee included
    /// (`Rng64::stream(..)` → `["Rng64", "stream"]`;
    /// `self.tel.add(..)` → `["self", "tel", "add"]`).
    pub path: Vec<String>,
    /// Whether the call is a `.name(..)` method call.
    pub method: bool,
    /// Whether the call is a `name!(..)` macro invocation.
    pub macro_call: bool,
    /// 1-based line of the callee name token.
    pub line: usize,
    /// Token index of the callee name (for innermost-fn attribution).
    pub tok: usize,
    /// Half-open token-index ranges of the top-level arguments.
    pub args: Vec<(usize, usize)>,
}

/// One parsed `analyze:` directive from a comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Directive {
    /// `// analyze:allow(RULE, reason = "...")` — suppress matching
    /// findings on this line or the next; the reason is mandatory.
    Allow {
        /// The rule identifier being suppressed.
        rule: String,
        /// The mandatory human rationale.
        reason: String,
        /// 1-based line of the comment.
        line: usize,
    },
    /// `// analyze:steady-state` — the next `fn` item is a steady-state
    /// kernel; rule R9 audits its allocations.
    SteadyState {
        /// 1-based line of the comment.
        line: usize,
    },
    /// Something started with `analyze:` but did not parse; always a deny
    /// finding (a typo must not silently disable a suppression).
    Malformed {
        /// 1-based line of the comment.
        line: usize,
        /// What went wrong.
        why: String,
    },
}

/// The structural view of one lexed file.
#[derive(Debug, Clone, Default)]
pub struct Syntax {
    /// The underlying token stream (owned; facts index into it).
    pub tokens: Vec<Token>,
    /// Every `fn` item found, in source order.
    pub fns: Vec<FnItem>,
    /// Every call site found, in source order.
    pub calls: Vec<CallSite>,
    /// Every `analyze:` directive found in comments.
    pub directives: Vec<Directive>,
}

/// Keywords that look like `name(`-calls but are control flow.
const NON_CALL_KEYWORDS: [&str; 10] = [
    "if", "while", "for", "match", "return", "loop", "else", "fn", "in", "move",
];

impl Syntax {
    /// Builds the structural view from a lexed file.
    pub fn build(lexed: Lexed) -> Self {
        let Lexed { tokens, comments } = lexed;
        let fns = find_fns(&tokens);
        let calls = find_calls(&tokens);
        let directives = find_directives(&comments);
        Self {
            tokens,
            fns,
            calls,
            directives,
        }
    }

    /// The source text of an argument range, tokens joined with spaces
    /// (string literals re-quoted), for diagnostics.
    pub fn arg_text(&self, range: (usize, usize)) -> String {
        let mut out = String::new();
        for t in &self.tokens[range.0..range.1] {
            let tight_before = matches!(
                t.text.as_str(),
                ")" | "]" | "," | "." | ":" | "(" | "[" | "!"
            );
            let tight_after = matches!(out.chars().next_back(), Some('(' | '[' | ':' | '.' | '!'));
            if !out.is_empty() && !tight_before && !tight_after {
                out.push(' ');
            }
            match t.kind {
                TokenKind::Str => {
                    out.push('"');
                    out.push_str(&t.text);
                    out.push('"');
                }
                _ => out.push_str(&t.text),
            }
        }
        out
    }

    /// When the range is exactly one string literal, its value.
    pub fn arg_str_literal(&self, range: (usize, usize)) -> Option<&str> {
        let slice = &self.tokens[range.0..range.1];
        match slice {
            [t] if t.kind == TokenKind::Str => Some(&t.text),
            _ => None,
        }
    }

    /// Every `::`-joined path (length ≥ 1) of identifiers appearing inside
    /// the range, maximal chains only (`a::b::c` yields one entry).
    pub fn paths_in(&self, range: (usize, usize)) -> Vec<Vec<String>> {
        let mut out = Vec::new();
        let mut i = range.0;
        while i < range.1 {
            if self.tokens[i].kind == TokenKind::Ident {
                let mut segs = vec![self.tokens[i].text.clone()];
                let mut j = i + 1;
                while j + 2 < range.1
                    && self.tokens[j].is_punct(':')
                    && self.tokens[j + 1].is_punct(':')
                    && self.tokens[j + 2].kind == TokenKind::Ident
                {
                    segs.push(self.tokens[j + 2].text.clone());
                    j += 3;
                }
                out.push(segs);
                i = j;
            } else {
                i += 1;
            }
        }
        out
    }

    /// The innermost `fn` item whose body contains token index `tok`.
    pub fn enclosing_fn(&self, tok: usize) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None; // (span, fn index)
        for (idx, f) in self.fns.iter().enumerate() {
            if let Some((open, close)) = f.body {
                if open < tok && tok < close {
                    let span = close - open;
                    if best.is_none_or(|(s, _)| span < s) {
                        best = Some((span, idx));
                    }
                }
            }
        }
        best.map(|(_, idx)| idx)
    }
}

/// Scans for `fn <name>` items and brace-balances their bodies.
fn find_fns(tokens: &[Token]) -> Vec<FnItem> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_ident("fn")
            && tokens
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::Ident)
        {
            let name = tokens[i + 1].text.clone();
            let line = tokens[i].line;
            // The first `{` or `;` after the signature opens the body (or
            // ends a bodyless trait signature). Signatures cannot contain
            // braces, so no balancing is needed to find the opener.
            let mut j = i + 2;
            let mut body = None;
            while j < tokens.len() {
                if tokens[j].is_punct(';') {
                    break;
                }
                if tokens[j].is_punct('{') {
                    if let Some(close) = match_brace(tokens, j) {
                        body = Some((j, close));
                    }
                    break;
                }
                j += 1;
            }
            out.push(FnItem { name, line, body });
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

/// The index of the `}` matching the `{` at `open`.
fn match_brace(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Scans for `name(`, `path::name(`, `.name(` and `name!(` call shapes
/// and splits their top-level arguments.
fn find_calls(tokens: &[Token]) -> Vec<CallSite> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if tokens[i].kind != TokenKind::Ident {
            continue;
        }
        let name = tokens[i].text.as_str();
        let (macro_call, open) = match tokens.get(i + 1) {
            Some(t) if t.is_punct('(') => (false, i + 1),
            Some(t)
                if t.is_punct('!')
                    && tokens
                        .get(i + 2)
                        .is_some_and(|t| t.is_punct('(') || t.is_punct('[')) =>
            {
                (true, i + 2)
            }
            _ => continue,
        };
        if !macro_call && NON_CALL_KEYWORDS.contains(&name) {
            continue;
        }
        // `fn name(` is a definition, not a call.
        if i > 0 && tokens[i - 1].is_ident("fn") {
            continue;
        }
        let method = i > 0 && tokens[i - 1].is_punct('.');
        let path = path_before(tokens, i);
        let args = split_args(tokens, open);
        out.push(CallSite {
            name: name.to_string(),
            path,
            method,
            macro_call,
            line: tokens[i].line,
            tok: i,
            args,
        });
    }
    out
}

/// Collects the `a::b.c` chain ending at the callee token `at`
/// (inclusive), walking `::` and `.` links backwards.
fn path_before(tokens: &[Token], at: usize) -> Vec<String> {
    let mut segs = vec![tokens[at].text.clone()];
    let mut i = at;
    while i >= 1 {
        let prev = &tokens[i - 1];
        if prev.is_punct('.') && i >= 2 && tokens[i - 2].kind == TokenKind::Ident {
            segs.push(tokens[i - 2].text.clone());
            i -= 2;
        } else if prev.is_punct(':')
            && i >= 3
            && tokens[i - 2].is_punct(':')
            && tokens[i - 3].kind == TokenKind::Ident
        {
            segs.push(tokens[i - 3].text.clone());
            i -= 3;
        } else {
            break;
        }
    }
    segs.reverse();
    segs
}

/// Splits the delimiter-balanced argument list opened at `open` into
/// half-open top-level ranges. Empty argument lists yield no ranges.
fn split_args(tokens: &[Token], open: usize) -> Vec<(usize, usize)> {
    let close_ch = if tokens[open].is_punct('[') { ']' } else { ')' };
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = open + 1;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth == 0 && t.is_punct(close_ch) {
                if j > start {
                    out.push((start, j));
                }
                return out;
            }
        } else if depth == 1 && t.is_punct(',') {
            if j > start {
                out.push((start, j));
            }
            start = j + 1;
        }
    }
    // Unbalanced (truncated source): keep what we split so far.
    out
}

/// Parses `analyze:` directives out of comment texts.
fn find_directives(comments: &[Comment]) -> Vec<Directive> {
    let mut out = Vec::new();
    for c in comments {
        // Anchored at the start of the comment: prose *mentioning*
        // `analyze:` (like this sentence, or a `raceloc_analyze::` path in
        // a doc example) is not a directive.
        let Some(rest) = c.text.trim_start().strip_prefix("analyze:") else {
            continue;
        };
        if let Some(args) = rest.strip_prefix("allow") {
            out.push(parse_allow(args.trim_start(), c.line));
        } else if rest.starts_with("steady-state") {
            out.push(Directive::SteadyState { line: c.line });
        } else {
            out.push(Directive::Malformed {
                line: c.line,
                why: format!(
                    "unknown analyze: directive `{}` (expected `allow(..)` or `steady-state`)",
                    rest.split_whitespace().next().unwrap_or(""),
                ),
            });
        }
    }
    out
}

/// Parses `(RULE, reason = "...")` after `analyze:allow`.
fn parse_allow(args: &str, line: usize) -> Directive {
    let malformed = |why: &str| Directive::Malformed {
        line,
        why: format!(
            "malformed analyze:allow — {why}; the grammar is \
             `analyze:allow(RULE, reason = \"...\")` with a non-empty reason"
        ),
    };
    let Some(inner) = args.strip_prefix('(') else {
        return malformed("missing `(`");
    };
    let Some(end) = inner.rfind(')') else {
        return malformed("missing closing `)`");
    };
    let inner = &inner[..end];
    let Some((rule, rest)) = inner.split_once(',') else {
        return malformed("missing `, reason = ...` (the reason is mandatory)");
    };
    let rule = rule.trim();
    if rule.is_empty() || !rule.chars().all(|c| c.is_ascii_alphanumeric() || c == '-') {
        return malformed("bad rule identifier");
    }
    let rest = rest.trim();
    let Some(eq) = rest.strip_prefix("reason") else {
        return malformed("expected `reason = \"...\"`");
    };
    let Some(value) = eq.trim_start().strip_prefix('=') else {
        return malformed("expected `=` after `reason`");
    };
    let value = value.trim();
    let reason = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .unwrap_or("");
    if reason.trim().is_empty() {
        return malformed("empty or unquoted reason");
    }
    Directive::Allow {
        rule: rule.to_string(),
        reason: reason.to_string(),
        line,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn syn(src: &str) -> Syntax {
        Syntax::build(lex(src))
    }

    #[test]
    fn finds_fn_items_and_bodies() {
        let s =
            syn("fn a() { 1 }\nimpl T { fn b(&self) -> u32 { 2 } }\ntrait Q { fn c(&self); }\n");
        let names: Vec<&str> = s.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
        assert!(s.fns[0].body.is_some());
        assert!(s.fns[1].body.is_some());
        assert!(s.fns[2].body.is_none(), "trait signature has no body");
        assert_eq!(s.fns[1].line, 2);
    }

    #[test]
    fn nested_fns_attribute_to_the_innermost_body() {
        let s = syn("fn outer() {\n    fn inner() { leak() }\n    keep()\n}\n");
        let call = |name: &str| s.calls.iter().find(|c| c.name == name).expect("call").tok;
        let inner_idx = s.fns.iter().position(|f| f.name == "inner").expect("inner");
        let outer_idx = s.fns.iter().position(|f| f.name == "outer").expect("outer");
        assert_eq!(s.enclosing_fn(call("leak")), Some(inner_idx));
        assert_eq!(s.enclosing_fn(call("keep")), Some(outer_idx));
    }

    #[test]
    fn call_sites_record_path_method_and_args() {
        let s = syn("let k = Rng64::stream(seed, stream_keys::pf_motion(e, c));\n");
        let stream = s.calls.iter().find(|c| c.name == "stream").expect("site");
        assert_eq!(stream.path, ["Rng64", "stream"]);
        assert!(!stream.method);
        assert_eq!(stream.args.len(), 2);
        let key = s.arg_text(stream.args[1]);
        assert!(key.contains("stream_keys::pf_motion"), "{key}");
        let paths = s.paths_in(stream.args[1]);
        assert!(paths.contains(&vec!["stream_keys".to_string(), "pf_motion".to_string()]));
    }

    #[test]
    fn method_calls_and_string_args() {
        let s = syn("tel.add(\"pf.motion\", n as u64);\nsnap.counter(\"pf.correct\");\n");
        let add = s.calls.iter().find(|c| c.name == "add").expect("add");
        assert!(add.method);
        assert_eq!(add.path, ["tel", "add"]);
        assert_eq!(s.arg_str_literal(add.args[0]), Some("pf.motion"));
        assert_eq!(s.arg_str_literal(add.args[1]), None);
        let counter = s
            .calls
            .iter()
            .find(|c| c.name == "counter")
            .expect("counter");
        assert_eq!(s.arg_str_literal(counter.args[0]), Some("pf.correct"));
    }

    #[test]
    fn nested_call_args_split_at_the_top_level_only() {
        let s = syn("f(g(a, b), h(c), [d, e]);\n");
        let f = s.calls.iter().find(|c| c.name == "f").expect("f");
        assert_eq!(f.args.len(), 3);
        assert_eq!(s.arg_text(f.args[0]), "g(a, b)");
    }

    #[test]
    fn macros_and_keywords() {
        let s = syn("if x(y) { format!(\"{n}\") } else { vec![1, 2] }\n");
        assert!(!s.calls.iter().any(|c| c.name == "if" || c.name == "else"));
        let fm = s
            .calls
            .iter()
            .find(|c| c.name == "format")
            .expect("format!");
        assert!(fm.macro_call);
        let v = s.calls.iter().find(|c| c.name == "vec").expect("vec!");
        assert!(v.macro_call);
        assert_eq!(v.args.len(), 2);
        // `x(y)` is still a call.
        assert!(s.calls.iter().any(|c| c.name == "x"));
    }

    #[test]
    fn allow_directive_parses_and_requires_a_reason() {
        let s = syn("// analyze:allow(R9, reason = \"chunk buffers are pre-reserved\")\n");
        assert_eq!(
            s.directives,
            [Directive::Allow {
                rule: "R9".to_string(),
                reason: "chunk buffers are pre-reserved".to_string(),
                line: 1,
            }]
        );
        for bad in [
            "// analyze:allow(R9)\n",
            "// analyze:allow(R9, reason = \"\")\n",
            "// analyze:allow(R9, reason = unquoted)\n",
            "// analyze:allow R9\n",
            "// analyze:suppress(R9)\n",
        ] {
            let s = syn(bad);
            assert!(
                matches!(s.directives[..], [Directive::Malformed { .. }]),
                "{bad:?} → {:?}",
                s.directives
            );
        }
    }

    #[test]
    fn steady_state_directive_parses_from_any_comment_style() {
        let s =
            syn("// analyze:steady-state\nfn kernel() {}\n/// analyze:steady-state\nfn k2() {}\n");
        assert_eq!(
            s.directives,
            [
                Directive::SteadyState { line: 1 },
                Directive::SteadyState { line: 3 }
            ]
        );
    }

    #[test]
    fn plain_comments_are_not_directives() {
        let s = syn("// the analyzer checks this\n// see DESIGN.md for analysis\nfn f() {}\n");
        assert!(s.directives.is_empty());
    }
}
