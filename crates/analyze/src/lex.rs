//! A lightweight Rust lexer producing a token stream with *values*.
//!
//! [`crate::mask`] deliberately blanks comments and string literals so the
//! token-matching rules (R1–R4) cannot be fooled by prose. The structural
//! rules added in PR 7 need the opposite: R7 resolves call-site argument
//! expressions, R8 reads telemetry *name literals*, and the suppression /
//! steady-state directives live inside comments. This module lexes the
//! raw source into:
//!
//! - [`Token`]s — identifiers, numbers, string/char literals (with their
//!   decoded values), lifetimes, and single-character punctuation — each
//!   tagged with its 1-based line;
//! - [`Comment`]s — the inner text of every `//`-style and `/* */`-style
//!   comment (doc comments included), for directive parsing.
//!
//! The lexer is intentionally not a full Rust grammar: it recognizes
//! exactly the token shapes the analyzer's structural layer consumes, and
//! it must agree with [`crate::mask`] on where strings and comments begin
//! and end (the mask regression tests in `tests/mask_edge_cases.rs` pin
//! the shared edge cases: nested block comments, raw strings, byte
//! strings).

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `Rng64`, `stream_keys`, …).
    Ident,
    /// Numeric literal, suffix included (`3`, `0xFA00_0000u64`, `1.5e-3`).
    Number,
    /// String literal; [`Token::text`] holds the *decoded value* (raw and
    /// byte strings included, prefixes and quoting stripped).
    Str,
    /// Char or byte literal; [`Token::text`] holds the decoded value.
    Char,
    /// Lifetime (`'a`); [`Token::text`] holds the name without the quote.
    Lifetime,
    /// One punctuation character (`::` is two `:` tokens).
    Punct,
}

/// One lexeme with its decoded text and source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The lexeme kind.
    pub kind: TokenKind,
    /// Identifier/number spelling, decoded string/char value, lifetime
    /// name, or the punctuation character.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: usize,
}

impl Token {
    /// Whether this token is the given punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }

    /// Whether this token is the given identifier.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }
}

/// The inner text of one comment (delimiters stripped), with the line it
/// starts on. Block comments keep their embedded newlines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line of the comment opener.
    pub line: usize,
    /// Text between the delimiters (`//`, `///`, `//!`, `/* */`).
    pub text: String,
}

/// The lexed form of one source file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Lexed {
    /// The token stream, in source order.
    pub tokens: Vec<Token>,
    /// Every comment, in source order.
    pub comments: Vec<Comment>,
}

/// Lexes `src` into tokens and comments. Unterminated constructs consume
/// to end of input rather than erroring: the analyzer must never panic on
/// weird-but-compiling (or even non-compiling) source.
pub fn lex(src: &str) -> Lexed {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    out: Lexed,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Self {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
            out: Lexed::default(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    /// Advances one byte, tracking newlines. Only called on ASCII
    /// boundaries; multi-byte chars are skipped with [`Self::bump_char`].
    fn bump(&mut self) {
        if self.peek(0) == Some(b'\n') {
            self.line += 1;
        }
        self.pos += 1;
    }

    fn bump_char(&mut self) {
        if let Some(c) = self.src[self.pos..].chars().next() {
            if c == '\n' {
                self.line += 1;
            }
            self.pos += c.len_utf8();
        }
    }

    fn run(mut self) -> Lexed {
        while let Some(b) = self.peek(0) {
            match b {
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string(0),
                b'r' | b'b' => {
                    if let Some(hashes) = self.raw_string_open() {
                        self.raw_string(hashes);
                    } else if b == b'b' && self.peek(1) == Some(b'"') {
                        self.bump(); // the b prefix
                        self.string(0);
                    } else if b == b'b' && self.peek(1) == Some(b'\'') {
                        self.bump();
                        self.char_or_lifetime();
                    } else {
                        self.ident();
                    }
                }
                b'\'' => self.char_or_lifetime(),
                _ if b.is_ascii_digit() => self.number(),
                _ if b == b'_' || b.is_ascii_alphabetic() => self.ident(),
                _ if b.is_ascii() => {
                    if !b.is_ascii_whitespace() {
                        let line = self.line;
                        self.push(TokenKind::Punct, (b as char).to_string(), line);
                    }
                    self.bump();
                }
                _ => self.bump_char(),
            }
        }
        self.out
    }

    fn push(&mut self, kind: TokenKind, text: String, line: usize) {
        self.out.tokens.push(Token { kind, text, line });
    }

    fn line_comment(&mut self) {
        let line = self.line;
        self.bump();
        self.bump();
        // Strip the doc marker so `/// analyze:...` parses the same.
        if matches!(self.peek(0), Some(b'/' | b'!')) {
            self.bump();
        }
        let start = self.pos;
        while self.peek(0).is_some_and(|b| b != b'\n') {
            self.bump_char();
        }
        self.out.comments.push(Comment {
            line,
            text: self.src[start..self.pos].to_string(),
        });
    }

    fn block_comment(&mut self) {
        let line = self.line;
        self.bump();
        self.bump();
        if matches!(self.peek(0), Some(b'*' | b'!')) && self.peek(1) != Some(b'/') {
            self.bump();
        }
        let start = self.pos;
        let mut depth = 1usize;
        let mut end;
        while let Some(b) = self.peek(0) {
            if b == b'/' && self.peek(1) == Some(b'*') {
                depth += 1;
                self.bump();
                self.bump();
            } else if b == b'*' && self.peek(1) == Some(b'/') {
                depth -= 1;
                end = self.pos;
                self.bump();
                self.bump();
                if depth == 0 {
                    self.out.comments.push(Comment {
                        line,
                        text: self.src[start..end].to_string(),
                    });
                    return;
                }
            } else {
                self.bump_char();
            }
        }
        // Unterminated: keep what we saw.
        self.out.comments.push(Comment {
            line,
            text: self.src[start..self.pos].to_string(),
        });
    }

    /// Detects `r"`, `r#"`, `br"`, `br#"`… at the cursor; returns the hash
    /// count when it opens a raw string.
    fn raw_string_open(&self) -> Option<usize> {
        let mut i = 0usize;
        if self.peek(i) == Some(b'b') {
            i += 1;
        }
        if self.peek(i) != Some(b'r') {
            return None;
        }
        i += 1;
        let mut hashes = 0usize;
        while self.peek(i) == Some(b'#') {
            hashes += 1;
            i += 1;
        }
        (self.peek(i) == Some(b'"')).then_some(hashes)
    }

    fn raw_string(&mut self, hashes: usize) {
        let line = self.line;
        // Skip prefix (b, r, hashes, quote).
        while self.peek(0) != Some(b'"') {
            self.bump();
        }
        self.bump();
        let start = self.pos;
        let mut value_end;
        loop {
            match self.peek(0) {
                None => {
                    value_end = self.pos;
                    break;
                }
                Some(b'"') => {
                    value_end = self.pos;
                    let mut ok = true;
                    for h in 0..hashes {
                        if self.peek(1 + h) != Some(b'#') {
                            ok = false;
                            break;
                        }
                    }
                    self.bump();
                    if ok {
                        for _ in 0..hashes {
                            self.bump();
                        }
                        break;
                    }
                }
                _ => self.bump_char(),
            }
        }
        let value = self.src[start..value_end].to_string();
        self.push(TokenKind::Str, value, line);
    }

    /// Lexes a (non-raw) string starting at the opening quote; `_prefix`
    /// bytes before it were already consumed by the caller.
    fn string(&mut self, _prefix: usize) {
        let line = self.line;
        self.bump(); // opening quote
        let mut value = String::new();
        loop {
            match self.peek(0) {
                None => break,
                Some(b'"') => {
                    self.bump();
                    break;
                }
                Some(b'\\') => {
                    self.bump();
                    self.escape_into(&mut value);
                }
                Some(_) => {
                    if let Some(c) = self.src[self.pos..].chars().next() {
                        value.push(c);
                    }
                    self.bump_char();
                }
            }
        }
        self.push(TokenKind::Str, value, line);
    }

    /// Decodes one escape (cursor is just past the backslash).
    fn escape_into(&mut self, value: &mut String) {
        match self.peek(0) {
            Some(b'n') => {
                value.push('\n');
                self.bump();
            }
            Some(b't') => {
                value.push('\t');
                self.bump();
            }
            Some(b'r') => {
                value.push('\r');
                self.bump();
            }
            Some(b'0') => {
                value.push('\0');
                self.bump();
            }
            Some(b'\\') => {
                value.push('\\');
                self.bump();
            }
            Some(b'"') => {
                value.push('"');
                self.bump();
            }
            Some(b'\'') => {
                value.push('\'');
                self.bump();
            }
            Some(b'u') => {
                // \u{HEX}
                self.bump();
                if self.peek(0) == Some(b'{') {
                    self.bump();
                    let start = self.pos;
                    while self.peek(0).is_some_and(|b| b != b'}') {
                        self.bump();
                    }
                    if let Ok(cp) = u32::from_str_radix(&self.src[start..self.pos], 16) {
                        if let Some(c) = char::from_u32(cp) {
                            value.push(c);
                        }
                    }
                    if self.peek(0) == Some(b'}') {
                        self.bump();
                    }
                }
            }
            Some(b'x') => {
                // \xNN
                self.bump();
                let start = self.pos;
                for _ in 0..2 {
                    if self.peek(0).is_some_and(|b| b.is_ascii_hexdigit()) {
                        self.bump();
                    }
                }
                if let Ok(b) = u8::from_str_radix(&self.src[start..self.pos], 16) {
                    value.push(b as char);
                }
            }
            Some(b'\n') => {
                // Line-continuation escape: swallow the newline and
                // following indentation, contributing nothing.
                self.bump();
                while self.peek(0).is_some_and(|b| b == b' ' || b == b'\t') {
                    self.bump();
                }
            }
            Some(_) => self.bump_char(),
            None => {}
        }
    }

    /// Disambiguates `'a` (lifetime) from `'a'` / `'\n'` (char literal)
    /// with the same lookahead rule as [`crate::mask`].
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        let next = self.src[self.pos + 1..].chars().next();
        if let Some(c) = next {
            if (c.is_alphabetic() || c == '_') && c != '\'' {
                // Find the char after the ident run; a closing quote makes
                // it a char literal ('a'), anything else a lifetime ('a).
                let rest = &self.src[self.pos + 1..];
                let ident_len: usize = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .map(char::len_utf8)
                    .sum();
                if !rest[ident_len..].starts_with('\'') {
                    self.bump(); // quote
                    let start = self.pos;
                    for _ in 0..rest[..ident_len].chars().count() {
                        self.bump_char();
                    }
                    let name = self.src[start..self.pos].to_string();
                    self.push(TokenKind::Lifetime, name, line);
                    return;
                }
            }
        }
        // Char literal.
        self.bump(); // opening quote
        let mut value = String::new();
        match self.peek(0) {
            Some(b'\\') => {
                self.bump();
                self.escape_into(&mut value);
            }
            Some(_) => {
                if let Some(c) = self.src[self.pos..].chars().next() {
                    value.push(c);
                }
                self.bump_char();
            }
            None => {}
        }
        if self.peek(0) == Some(b'\'') {
            self.bump();
        }
        self.push(TokenKind::Char, value, line);
    }

    fn number(&mut self) {
        let line = self.line;
        let start = self.pos;
        let mut prev = b'0';
        while let Some(b) = self.peek(0) {
            let keep = b.is_ascii_alphanumeric()
                || b == b'_'
                // A decimal point, but not the start of a `..` range and
                // only after a digit (so `xs[0].iter()` stops at the dot).
                || (b == b'.'
                    && prev.is_ascii_digit()
                    && self.peek(1).is_some_and(|n| n.is_ascii_digit()))
                // Exponent sign.
                || ((b == b'+' || b == b'-') && matches!(prev, b'e' | b'E')
                    && self.src[start..self.pos].contains('.'));
            if !keep {
                break;
            }
            prev = b;
            self.bump();
        }
        let text = self.src[start..self.pos].to_string();
        self.push(TokenKind::Number, text, line);
    }

    fn ident(&mut self) {
        let line = self.line;
        let start = self.pos;
        while self
            .peek(0)
            .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
        {
            self.bump();
        }
        let text = self.src[start..self.pos].to_string();
        self.push(TokenKind::Ident, text, line);
    }
}

/// Parses a Rust integer literal (`0xFA00_0000u64`, `42`, `0b1010usize`)
/// into its value. Returns `None` for floats and malformed spellings;
/// used by the R7 registry parser, which requires `lo`/`hi` to be plain
/// integer literals.
pub fn parse_u64_literal(text: &str) -> Option<u64> {
    let t: String = text.chars().filter(|c| *c != '_').collect();
    let t = t
        .strip_suffix("usize")
        .or_else(|| t.strip_suffix("u64"))
        .or_else(|| t.strip_suffix("u32"))
        .or_else(|| t.strip_suffix("u16"))
        .or_else(|| t.strip_suffix("u8"))
        .unwrap_or(&t);
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else if let Some(oct) = t.strip_prefix("0o") {
        u64::from_str_radix(oct, 8).ok()
    } else if let Some(bin) = t.strip_prefix("0b") {
        u64::from_str_radix(bin, 2).ok()
    } else {
        t.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn lexes_idents_numbers_and_punct_with_lines() {
        let l = lex("fn f() {\n    x + 0xFA_u64\n}\n");
        let f = &l.tokens[1];
        assert_eq!(
            (f.kind, f.text.as_str(), f.line),
            (TokenKind::Ident, "f", 1)
        );
        let num = l
            .tokens
            .iter()
            .find(|t| t.kind == TokenKind::Number)
            .expect("number");
        assert_eq!((num.text.as_str(), num.line), ("0xFA_u64", 2));
    }

    #[test]
    fn string_values_are_decoded() {
        assert_eq!(
            kinds(r##"("pf.motion", "a\"b", b"raw", r#"r"v"#)"##)
                .into_iter()
                .filter(|(k, _)| *k == TokenKind::Str)
                .map(|(_, v)| v)
                .collect::<Vec<_>>(),
            ["pf.motion", "a\"b", "raw", "r\"v"],
        );
    }

    #[test]
    fn comments_keep_their_text_and_line() {
        let l = lex("let a = 1; // analyze:steady-state\n/* block\nspans */\n/// doc note\n");
        let texts: Vec<(usize, &str)> =
            l.comments.iter().map(|c| (c.line, c.text.trim())).collect();
        assert_eq!(
            texts,
            [
                (1, "analyze:steady-state"),
                (2, "block\nspans"),
                (4, "doc note")
            ]
        );
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let l = lex("/* a /* b */ c */ token\n");
        assert_eq!(l.comments.len(), 1);
        assert_eq!(l.comments[0].text, " a /* b */ c ");
        assert!(l.tokens.iter().any(|t| t.is_ident("token")));
    }

    #[test]
    fn lifetimes_and_chars_disambiguate() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert!(toks.contains(&(TokenKind::Lifetime, "a".to_string())));
        assert!(toks.contains(&(TokenKind::Char, "x".to_string())));
        assert!(toks.contains(&(TokenKind::Char, "\n".to_string())));
    }

    #[test]
    fn ranges_do_not_swallow_dots() {
        let toks = kinds("for i in 0..n { let y = 1.5e-3; }");
        assert!(toks.contains(&(TokenKind::Number, "0".to_string())));
        assert!(toks.contains(&(TokenKind::Number, "1.5e-3".to_string())));
        // The two range dots survive as punctuation.
        assert_eq!(toks.iter().filter(|(_, t)| t == ".").count(), 2);
    }

    #[test]
    fn integer_literal_parsing_handles_the_registry_spellings() {
        assert_eq!(
            parse_u64_literal("0xFA00_0000_0000_0000"),
            Some(0xFA00_0000_0000_0000)
        );
        assert_eq!(parse_u64_literal("0x0000_0000_0000_00F1"), Some(0xF1));
        assert_eq!(parse_u64_literal("42u64"), Some(42));
        assert_eq!(parse_u64_literal("0b101"), Some(5));
        assert_eq!(parse_u64_literal("1.5"), None);
        assert_eq!(parse_u64_literal("xyz"), None);
    }

    #[test]
    fn unterminated_constructs_do_not_panic() {
        lex("\"open string\n");
        lex("/* open block\n");
        lex("r#\"open raw\n");
        lex("'");
    }
}
