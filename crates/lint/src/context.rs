//! Lightweight structural context over the token stream.
//!
//! A single forward pass tracks, for every token:
//!
//! * whether it sits inside **test code** — a `#[cfg(test)]` / `#[test]`
//!   item, or a file under `tests/`, `benches/` or `examples/`,
//! * the name of the enclosing **function**, if any.
//!
//! The tracker is heuristic by design (it does not parse Rust), but its
//! failure mode is conservative in the direction we care about: a scope is
//! only marked as test code when an explicit test attribute or test-like
//! file location says so, so real library code can never be silently
//! exempted by a tracking miss.

use crate::lexer::{TokKind, Token};

/// Per-token context, index-aligned with the lexed token stream.
#[derive(Clone, Debug)]
pub(crate) struct TokenContext {
    /// Token is inside `#[cfg(test)]` / `#[test]` code or a test-only file.
    pub(crate) test: bool,
    /// Name of the innermost enclosing `fn`, if any.
    pub(crate) fn_name: Option<String>,
}

/// How a file's location classifies all of its contents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FileClass {
    /// Ordinary library / binary source: all rules apply.
    Library,
    /// `tests/`, `benches/` or `examples/`: test context throughout.
    Test,
}

/// Classify a workspace-relative path (forward slashes).
pub(crate) fn classify_path(rel_path: &str) -> FileClass {
    let p = rel_path.replace('\\', "/");
    let in_dir = |d: &str| p.starts_with(&format!("{d}/")) || p.contains(&format!("/{d}/"));
    if in_dir("tests") || in_dir("benches") || in_dir("examples") {
        FileClass::Test
    } else {
        FileClass::Library
    }
}

#[derive(Clone, Debug)]
enum ScopeKind {
    Fn(String),
    Other,
}

#[derive(Clone, Debug)]
struct Scope {
    kind: ScopeKind,
    test: bool,
}

/// Compute the per-token context for a lexed file.
pub(crate) fn contexts(tokens: &[Token<'_>], class: FileClass) -> Vec<TokenContext> {
    let file_test = class == FileClass::Test;
    let mut scopes: Vec<Scope> = Vec::new();
    let mut out = Vec::with_capacity(tokens.len());

    // Attribute / item bookkeeping between braces.
    let mut pending_test = false; // saw #[cfg(test)] / #[test] awaiting its item
    let mut pending_name: Option<ScopeKind> = None; // saw `fn x` awaiting `{`
    let mut i = 0usize;

    while i < tokens.len() {
        let cur_test = file_test || scopes.last().is_some_and(|s| s.test);
        out.push(TokenContext {
            test: cur_test,
            fn_name: scopes.iter().rev().find_map(|s| match &s.kind {
                ScopeKind::Fn(name) => Some(name.clone()),
                _ => None,
            }),
        });

        let tok = &tokens[i];
        match tok.kind {
            TokKind::Punct if tok.text == "#" => {
                // Attribute: scan `[ … ]`, flagging test markers.  The scan
                // emits contexts for the consumed tokens too.
                if let Some((end, is_test)) = scan_attribute(tokens, i) {
                    if is_test {
                        pending_test = true;
                    }
                    for _ in i + 1..=end {
                        out.push(TokenContext { test: cur_test, fn_name: None });
                    }
                    i = end + 1;
                    continue;
                }
            }
            TokKind::Ident if tok.text == "fn" => {
                if let Some(name) = next_ident(tokens, i + 1) {
                    pending_name = Some(ScopeKind::Fn(name));
                }
            }
            TokKind::Punct if tok.text == ";" => {
                // `fn f();`, `#[cfg(test)] use …;` and friends: the pending
                // attribute/name attached to a braceless item — drop it.
                pending_test = false;
                pending_name = None;
            }
            TokKind::Punct if tok.text == "{" => {
                let parent_test = scopes.last().is_some_and(|s| s.test);
                scopes.push(Scope {
                    kind: pending_name.take().unwrap_or(ScopeKind::Other),
                    test: parent_test || pending_test,
                });
                pending_test = false;
            }
            TokKind::Punct if tok.text == "}" => {
                scopes.pop();
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Scan an attribute starting at the `#` token; returns the index of the
/// closing `]` and whether the attribute marks test code.
fn scan_attribute(tokens: &[Token<'_>], hash_idx: usize) -> Option<(usize, bool)> {
    let mut i = hash_idx + 1;
    // Optional inner-attribute bang: `#![…]`.
    if tokens.get(i).is_some_and(|t| t.kind == TokKind::Punct && t.text == "!") {
        i += 1;
    }
    let open = tokens.get(i)?;
    if open.kind != TokKind::Punct || open.text != "[" {
        return None;
    }
    let mut depth = 0usize;
    let mut is_test = false;
    let mut saw_cfg = false;
    let mut saw_not = false;
    for (j, t) in tokens.iter().enumerate().skip(i) {
        match (t.kind, t.text) {
            (TokKind::Punct, "[") => depth += 1,
            (TokKind::Punct, "]") => {
                depth -= 1;
                if depth == 0 {
                    return Some((j, is_test));
                }
            }
            (TokKind::Ident, "cfg") => saw_cfg = true,
            (TokKind::Ident, "not") => saw_not = true,
            // `#[test]` directly, or `test` inside `#[cfg(…)]` — but not a
            // negated `#[cfg(not(test))]`.
            (TokKind::Ident, "test") if (saw_cfg && !saw_not) || j == i + 1 => is_test = true,
            _ => {}
        }
    }
    None // unterminated attribute: treat as plain tokens
}

/// First non-trivia identifier at or after `from`.
fn next_ident(tokens: &[Token<'_>], from: usize) -> Option<String> {
    tokens[from..]
        .iter()
        .find(|t| !t.kind.is_trivia())
        .filter(|t| t.kind == TokKind::Ident || t.kind == TokKind::RawIdent)
        .map(|t| t.text.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx_at(src: &str, needle: &str) -> TokenContext {
        let toks = lex(src);
        let ctxs = contexts(&toks, FileClass::Library);
        let idx = toks
            .iter()
            .position(|t| t.text == needle && !t.kind.is_trivia())
            .expect("needle token present");
        ctxs[idx].clone()
    }

    #[test]
    fn cfg_test_module_is_test_context() {
        let src = "fn lib_code() { a(); }\n#[cfg(test)]\nmod tests { fn t() { b(); } }";
        assert!(!ctx_at(src, "a").test);
        assert!(ctx_at(src, "b").test);
    }

    #[test]
    fn test_attribute_on_fn_is_test_context() {
        let src = "#[test]\nfn check() { c(); }\nfn real() { d(); }";
        assert!(ctx_at(src, "c").test);
        assert!(!ctx_at(src, "d").test);
    }

    #[test]
    fn cfg_test_on_use_does_not_leak_to_next_brace() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn real() { e(); }";
        assert!(!ctx_at(src, "e").test);
    }

    #[test]
    fn nested_modules_and_fn_names_tracked() {
        let src = "mod outer { mod inner { fn work() { f(); } } }";
        let ctx = ctx_at(src, "f");
        assert_eq!(ctx.fn_name.as_deref(), Some("work"));
    }

    #[test]
    fn test_file_class_marks_everything() {
        let toks = lex("fn anything() { g(); }");
        let ctxs = contexts(&toks, FileClass::Test);
        assert!(ctxs.iter().all(|c| c.test));
    }

    #[test]
    fn classify_paths() {
        assert_eq!(classify_path("crates/gnn/src/plan.rs"), FileClass::Library);
        assert_eq!(classify_path("crates/gnn/tests/parity.rs"), FileClass::Test);
        assert_eq!(classify_path("tests/determinism.rs"), FileClass::Test);
        assert_eq!(classify_path("examples/quickstart.rs"), FileClass::Test);
        assert_eq!(classify_path("crates/bench/src/bin/perf_suite.rs"), FileClass::Library);
    }

    #[test]
    fn attr_followed_by_derive_then_test_mod() {
        // Attributes that are not test markers must not poison the flag.
        let src = "#[derive(Debug)]\nstruct S;\n#[cfg(test)]\nmod t { fn h() { i(); } }";
        assert!(ctx_at(src, "i").test);
        let src2 = "#[derive(Debug)]\nstruct S { x: u32 }\nfn r() { j(); }";
        assert!(!ctx_at(src2, "j").test);
    }
}
