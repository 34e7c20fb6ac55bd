//! A lossless hand-rolled Rust lexer.
//!
//! The tokenizer never drops a byte: concatenating the `text` slices of the
//! produced tokens reproduces the input source exactly (the round-trip
//! property pinned by `tests/lexer_roundtrip.rs`).  It understands every
//! construct the rules must *not* look inside — line and nested block
//! comments, string / raw-string / byte-string / char literals and
//! lifetimes — so a `.lock().unwrap()` inside a string or a `panic!` in a
//! doc comment can never produce a false finding.
//!
//! It is deliberately *not* a full Rust lexer: compound operators are
//! emitted as single-character [`TokKind::Punct`] tokens (the rules match
//! token sequences, so `::` is simply two `:` tokens) and numeric literal
//! edge cases that do not affect rule matching (`1.` vs `1 .`) may split
//! differently from rustc.  Losslessness, not classification fidelity, is
//! the contract.

/// Kind of one lexed token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// A run of whitespace (may span lines).
    Whitespace,
    /// `// …` up to but excluding the newline.
    LineComment,
    /// `/* … */` with arbitrary nesting; unterminated comments run to EOF.
    BlockComment,
    /// An identifier or keyword.
    Ident,
    /// A raw identifier `r#ident`.
    RawIdent,
    /// A lifetime such as `'a` (or the anonymous `'_`).
    Lifetime,
    /// A char literal `'x'`, including escapes.
    CharLit,
    /// A byte literal `b'x'`.
    ByteLit,
    /// A `"…"` string literal, including escapes.
    StringLit,
    /// A raw string literal `r"…"` / `r#"…"#` (any number of `#`s).
    RawStringLit,
    /// A byte string literal `b"…"`.
    ByteStringLit,
    /// A raw byte string literal `br"…"` / `br#"…"#`.
    RawByteStringLit,
    /// A numeric literal (integer or float, any base, with suffix).
    NumLit,
    /// A single punctuation character.
    Punct,
    /// Anything the lexer could not classify (kept so round-trip holds).
    Unknown,
}

impl TokKind {
    /// Whether the token is a comment (the only place suppressions live).
    pub(crate) fn is_comment(self) -> bool {
        matches!(self, TokKind::LineComment | TokKind::BlockComment)
    }

    /// Whether rules should skip the token when matching code patterns
    /// (whitespace and comments are transparent; literal contents opaque).
    pub(crate) fn is_trivia(self) -> bool {
        matches!(self, TokKind::Whitespace | TokKind::LineComment | TokKind::BlockComment)
    }
}

/// One token: kind, exact source slice and 1-based starting line.
#[derive(Clone, Copy, Debug)]
pub struct Token<'a> {
    pub kind: TokKind,
    pub text: &'a str,
    pub line: u32,
}

struct Cursor<'a> {
    src: &'a str,
    /// Byte offset of the next unread char.
    pos: usize,
    /// 1-based line of the next unread char.
    line: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn peek2(&self) -> Option<char> {
        let mut it = self.src[self.pos..].chars();
        it.next();
        it.next()
    }

    fn peek3(&self) -> Option<char> {
        let mut it = self.src[self.pos..].chars();
        it.next();
        it.next();
        it.next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    /// Consume chars while `pred` holds.
    fn eat_while(&mut self, mut pred: impl FnMut(char) -> bool) {
        while let Some(c) = self.peek() {
            if !pred(c) {
                break;
            }
            self.bump();
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Tokenize `src` losslessly.
// detlint::allow(unreferenced-pub): the entry point tests/lexer_roundtrip.rs holds to losslessness
pub fn lex(src: &str) -> Vec<Token<'_>> {
    let mut cur = Cursor { src, pos: 0, line: 1 };
    let mut out = Vec::new();
    while cur.pos < src.len() {
        let start = cur.pos;
        let line = cur.line;
        let kind = next_kind(&mut cur);
        out.push(Token { kind, text: &src[start..cur.pos], line });
    }
    out
}

fn next_kind(cur: &mut Cursor<'_>) -> TokKind {
    let c = match cur.peek() {
        Some(c) => c,
        None => return TokKind::Unknown,
    };
    if c.is_whitespace() {
        cur.eat_while(char::is_whitespace);
        return TokKind::Whitespace;
    }
    if c == '/' {
        match cur.peek2() {
            Some('/') => {
                cur.eat_while(|c| c != '\n');
                return TokKind::LineComment;
            }
            Some('*') => {
                return lex_block_comment(cur);
            }
            _ => {
                cur.bump();
                return TokKind::Punct;
            }
        }
    }
    if c == '\'' {
        return lex_quote(cur);
    }
    if c == '"' {
        lex_string(cur);
        return TokKind::StringLit;
    }
    // Raw strings / byte strings / raw identifiers share ident-looking
    // prefixes, so resolve them before the generic identifier path.
    if c == 'r' {
        match (cur.peek2(), cur.peek3()) {
            (Some('"'), _) | (Some('#'), Some('"')) | (Some('#'), Some('#')) => {
                cur.bump(); // r
                lex_raw_string(cur);
                return TokKind::RawStringLit;
            }
            (Some('#'), Some(c3)) if is_ident_start(c3) => {
                cur.bump(); // r
                cur.bump(); // #
                cur.eat_while(is_ident_continue);
                return TokKind::RawIdent;
            }
            _ => {}
        }
    }
    if c == 'b' {
        match (cur.peek2(), cur.peek3()) {
            (Some('\''), _) => {
                cur.bump(); // b
                lex_char_body(cur);
                return TokKind::ByteLit;
            }
            (Some('"'), _) => {
                cur.bump(); // b
                lex_string(cur);
                return TokKind::ByteStringLit;
            }
            (Some('r'), Some('"')) | (Some('r'), Some('#')) => {
                cur.bump(); // b
                cur.bump(); // r
                lex_raw_string(cur);
                return TokKind::RawByteStringLit;
            }
            _ => {}
        }
    }
    if is_ident_start(c) {
        cur.eat_while(is_ident_continue);
        return TokKind::Ident;
    }
    if c.is_ascii_digit() {
        lex_number(cur);
        return TokKind::NumLit;
    }
    cur.bump();
    TokKind::Punct
}

fn lex_block_comment(cur: &mut Cursor<'_>) -> TokKind {
    cur.bump(); // /
    cur.bump(); // *
    let mut depth = 1usize;
    while depth > 0 {
        match (cur.peek(), cur.peek2()) {
            (Some('/'), Some('*')) => {
                cur.bump();
                cur.bump();
                depth += 1;
            }
            (Some('*'), Some('/')) => {
                cur.bump();
                cur.bump();
                depth -= 1;
            }
            (Some(_), _) => {
                cur.bump();
            }
            (None, _) => break, // unterminated: runs to EOF
        }
    }
    TokKind::BlockComment
}

/// `'` can open a char literal or a lifetime; disambiguate like rustc does:
/// `'<ident-start>` not followed by a closing `'` is a lifetime.
fn lex_quote(cur: &mut Cursor<'_>) -> TokKind {
    match (cur.peek2(), cur.peek3()) {
        (Some(c2), c3) if is_ident_start(c2) && c3 != Some('\'') => {
            cur.bump(); // '
            cur.eat_while(is_ident_continue);
            TokKind::Lifetime
        }
        _ => {
            lex_char_body(cur);
            TokKind::CharLit
        }
    }
}

/// Consume `'…'` starting at the opening quote (escapes honoured).
fn lex_char_body(cur: &mut Cursor<'_>) {
    cur.bump(); // opening '
    loop {
        match cur.bump() {
            Some('\\') => {
                cur.bump(); // the escaped char
            }
            Some('\'') | None => break,
            Some(_) => {}
        }
    }
}

/// Consume `"…"` starting at the opening quote (escapes honoured).
fn lex_string(cur: &mut Cursor<'_>) {
    cur.bump(); // opening "
    loop {
        match cur.bump() {
            Some('\\') => {
                cur.bump();
            }
            Some('"') | None => break,
            Some(_) => {}
        }
    }
}

/// Consume `#…#"…"#…#` starting at the first `#` or `"` (the `r`/`br`
/// prefix is already consumed).  Handles any number of `#`s, including zero.
fn lex_raw_string(cur: &mut Cursor<'_>) {
    let mut hashes = 0usize;
    while cur.peek() == Some('#') {
        cur.bump();
        hashes += 1;
    }
    if cur.peek() != Some('"') {
        return; // malformed; keep what we consumed (round-trip still holds)
    }
    cur.bump(); // opening "
    'outer: loop {
        match cur.bump() {
            Some('"') => {
                // A closing quote counts only when followed by `hashes` #s.
                let mut seen = 0usize;
                while seen < hashes && cur.peek() == Some('#') {
                    cur.bump();
                    seen += 1;
                }
                if seen == hashes {
                    break 'outer;
                }
            }
            None => break 'outer, // unterminated: runs to EOF
            Some(_) => {}
        }
    }
}

/// Consume a numeric literal: digits in any base, `_` separators, a
/// fractional part (only when `.` is followed by a digit, so ranges and
/// method calls on integers are untouched) and signed exponents.
fn lex_number(cur: &mut Cursor<'_>) {
    let mut prev = '\0';
    loop {
        match cur.peek() {
            Some(c) if is_ident_continue(c) => {
                prev = c;
                cur.bump();
            }
            Some('.') if cur.peek2().is_some_and(|c| c.is_ascii_digit()) => {
                prev = '.';
                cur.bump();
            }
            Some(c @ ('+' | '-'))
                if matches!(prev, 'e' | 'E') && cur.peek2().is_some_and(|c| c.is_ascii_digit()) =>
            {
                prev = c;
                cur.bump();
            }
            _ => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &str) -> Vec<Token<'_>> {
        let toks = lex(src);
        let rebuilt: String = toks.iter().map(|t| t.text).collect();
        assert_eq!(rebuilt, src, "lexer must be lossless");
        toks
    }

    fn kinds(src: &str) -> Vec<TokKind> {
        roundtrip(src).iter().map(|t| t.kind).collect()
    }

    #[test]
    fn nested_block_comments() {
        let toks = roundtrip("/* a /* b */ c */ x");
        assert_eq!(toks[0].kind, TokKind::BlockComment);
        assert_eq!(toks[0].text, "/* a /* b */ c */");
        assert_eq!(toks[2].kind, TokKind::Ident);
        assert_eq!(toks[2].text, "x");
    }

    #[test]
    fn unterminated_block_comment_runs_to_eof() {
        let toks = roundtrip("x /* open /* deeper */ never closed");
        assert_eq!(toks.last().map(|t| t.kind), Some(TokKind::BlockComment));
    }

    #[test]
    fn raw_string_containing_unwrap_is_one_token() {
        let src = r####"let s = r#"x.lock().unwrap() and panic!"#;"####;
        let toks = roundtrip(src);
        let raw: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::RawStringLit).collect();
        assert_eq!(raw.len(), 1);
        assert!(raw[0].text.contains("unwrap"));
        // No `unwrap` ident token may leak out of the literal.
        assert!(!toks.iter().any(|t| t.kind == TokKind::Ident && t.text == "unwrap"));
    }

    #[test]
    fn raw_string_with_internal_quote_hash() {
        // `"#` inside an `r##"…"##` literal must not close it.
        let src = r###"r##"contains "# inside"## tail"###;
        let toks = roundtrip(src);
        assert_eq!(toks[0].kind, TokKind::RawStringLit);
        assert!(toks[0].text.ends_with(r###""##"###));
        assert_eq!(toks.last().map(|t| t.text), Some("tail"));
    }

    #[test]
    fn string_containing_lock_call_is_opaque() {
        let toks = roundtrip(r#"let m = "self.state.lock().unwrap()";"#);
        assert!(!toks.iter().any(|t| t.kind == TokKind::Ident && t.text == "lock"));
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::StringLit).count(), 1);
    }

    #[test]
    fn string_with_escaped_quote() {
        let toks = roundtrip(r#""a \" b" x"#);
        assert_eq!(toks[0].kind, TokKind::StringLit);
        assert_eq!(toks[0].text, r#""a \" b""#);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = roundtrip("&'a str; let c = 'x'; let z = '\\n'; let u = '_'; fn f<'_>()");
        let lifetimes: Vec<_> =
            toks.iter().filter(|t| t.kind == TokKind::Lifetime).map(|t| t.text).collect();
        let chars: Vec<_> =
            toks.iter().filter(|t| t.kind == TokKind::CharLit).map(|t| t.text).collect();
        assert_eq!(lifetimes, vec!["'a", "'_"]);
        assert_eq!(chars, vec!["'x'", "'\\n'", "'_'"]);
    }

    #[test]
    fn byte_and_raw_byte_literals() {
        let toks = roundtrip(r##"b'q' b"bytes" br#"raw bytes"# r"raw" r#ident"##);
        let ks: Vec<_> =
            toks.iter().filter(|t| t.kind != TokKind::Whitespace).map(|t| t.kind).collect();
        assert_eq!(
            ks,
            vec![
                TokKind::ByteLit,
                TokKind::ByteStringLit,
                TokKind::RawByteStringLit,
                TokKind::RawStringLit,
                TokKind::RawIdent,
            ]
        );
    }

    #[test]
    fn numbers_do_not_swallow_ranges_or_methods() {
        // `0..n` keeps the range dots; `1.max(2)` keeps the method call.
        let texts: Vec<String> = roundtrip("0..n 1.max(2) 1.5e-3 0x1F_u32 1_000")
            .iter()
            .filter(|t| t.kind == TokKind::NumLit)
            .map(|t| t.text.to_string())
            .collect();
        assert_eq!(texts, vec!["0", "1", "2", "1.5e-3", "0x1F_u32", "1_000"]);
    }

    #[test]
    fn line_numbers_track_newlines_inside_tokens() {
        let src = "a\n/* two\nlines */\nb";
        let toks = roundtrip(src);
        let b = toks.iter().find(|t| t.text == "b").expect("token b");
        assert_eq!(b.line, 4);
    }

    #[test]
    fn line_comment_excludes_newline() {
        let toks = roundtrip("// note\nx");
        assert_eq!(toks[0].kind, TokKind::LineComment);
        assert_eq!(toks[0].text, "// note");
        assert_eq!(toks[1].kind, TokKind::Whitespace);
    }

    #[test]
    fn unicode_survives() {
        let _ = kinds("// Σ ≈ π\nlet α = \"β\";");
    }
}
