//! The rule engine: six per-file determinism/resilience contract checks,
//! one workspace-level surface check, and the suppression
//! (`detlint::allow`) machinery.
//!
//! | id                 | contract                                                        |
//! |--------------------|-----------------------------------------------------------------|
//! | `mutex-poison`     | `.lock()` in library code recovers from poisoning, never panics |
//! | `panic-in-guarded` | no panic sources in designated hot-path / resilience modules    |
//! | `nondet-clock`     | wall clocks only in timing / bench / budget modules             |
//! | `nondet-iteration` | no hash-order iteration in the deterministic solver pipeline    |
//! | `float-reduce`     | no ad-hoc float reductions inside `par_iter` closures           |
//! | `unsafe-justified` | every `unsafe` carries an anchored `// SAFETY:` argument        |
//! | `unreferenced-pub` | every `pub` item is named by another crate (workspace-level)   |
//!
//! Suppression is explicit and reasoned:
//!
//! ```text
//! // detlint::allow(nondet-clock): timing instrumentation only, results unaffected
//! ```
//!
//! placed on the offending line or the line directly above.  A missing or
//! empty reason, or an unknown rule id, is itself a violation
//! (`allow-syntax`) — as is a suppression that no longer suppresses
//! anything, so stale allows cannot accumulate.

use crate::config::Config;
use crate::context::{classify_path, contexts, TokenContext};
use crate::lexer::{lex, TokKind, Token};
use crate::surface::unreferenced_pub;

/// Every valid rule id.
pub(crate) const RULE_IDS: [&str; 7] = [
    "mutex-poison",
    "panic-in-guarded",
    "nondet-clock",
    "nondet-iteration",
    "float-reduce",
    "unsafe-justified",
    "unreferenced-pub",
];

/// One finding (possibly suppressed).
#[derive(Clone, Debug)]
pub struct Violation {
    /// Rule id, or `allow-syntax` for suppression-comment problems.
    pub rule: String,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What is wrong and what to do instead.
    pub message: String,
    /// The trimmed source line.
    pub snippet: String,
    /// `Some(reason)` when an inline `detlint::allow` suppresses the
    /// finding; `None` for a live violation.
    pub allow_reason: Option<String>,
}

impl Violation {
    /// Whether this finding still fails the build.
    pub(crate) fn is_live(&self) -> bool {
        self.allow_reason.is_none()
    }
}

/// A parsed `detlint::allow(rule, …): reason` comment.
#[derive(Clone, Debug)]
struct Allow {
    line: u32,
    rules: Vec<String>,
    reason: String,
    used: std::cell::Cell<bool>,
}

/// Lint a set of `(workspace-relative path, source)` files as one
/// workspace: the per-file rules on each file, then `unreferenced-pub` over
/// all of them.  Returns every finding, live and suppressed, file by file.
pub fn lint_workspace(files: &[(String, String)], cfg: &Config) -> Vec<Violation> {
    let lexed: Vec<Vec<Token<'_>>> = files.iter().map(|(_, src)| lex(src)).collect();
    let surface_input: Vec<(&str, &[Token<'_>])> =
        files.iter().zip(&lexed).map(|((rel, _), t)| (rel.as_str(), t.as_slice())).collect();
    let mut surface = unreferenced_pub(&surface_input).into_iter().peekable();
    let mut out = Vec::new();
    for (k, ((rel, src), tokens)) in files.iter().zip(&lexed).enumerate() {
        let mut findings = file_findings(rel, tokens, cfg);
        while let Some((_, line, message)) = surface.next_if(|f| f.0 == k) {
            findings.push(("unreferenced-pub".to_string(), line, message));
        }
        out.extend(suppress(rel, src, tokens, findings));
    }
    out
}

/// The per-file rules that apply to `rel_path`: `(rule, line, message)`.
fn file_findings(rel_path: &str, tokens: &[Token<'_>], cfg: &Config) -> Vec<(String, u32, String)> {
    let ctxs = contexts(tokens, classify_path(rel_path));
    let mut findings = Vec::new();
    rule_mutex_poison(tokens, &ctxs, &mut findings);
    rule_unsafe_justified(tokens, &ctxs, &mut findings);
    if cfg.is_guarded(rel_path) {
        rule_panic_in_guarded(tokens, &ctxs, &mut findings);
    }
    if !cfg.clock_is_allowed(rel_path) {
        rule_nondet_clock(tokens, &ctxs, &mut findings);
    }
    if cfg.is_deterministic(rel_path) {
        rule_nondet_iteration(tokens, &ctxs, &mut findings);
        rule_float_reduce(tokens, &ctxs, &mut findings);
    }
    findings
}

/// Match one file's findings against its `detlint::allow` comments.
fn suppress(
    rel_path: &str,
    src: &str,
    tokens: &[Token<'_>],
    findings: Vec<(String, u32, String)>,
) -> Vec<Violation> {
    let lines: Vec<&str> = src.lines().collect();
    let snippet = |line: u32| -> String {
        lines.get(line as usize - 1).map(|l| l.trim().to_string()).unwrap_or_default()
    };

    let (allows, mut out) = parse_allows(rel_path, tokens, &snippet);

    for (rule, line, message) in findings {
        let allow_reason = allows
            .iter()
            .find(|a| (a.line == line || a.line + 1 == line) && a.rules.iter().any(|r| r == &rule))
            .map(|a| {
                a.used.set(true);
                a.reason.clone()
            });
        out.push(Violation {
            rule,
            file: rel_path.to_string(),
            line,
            message,
            snippet: snippet(line),
            allow_reason,
        });
    }

    // A suppression that suppresses nothing is stale — flag it so allows
    // cannot outlive the code they excused.
    for a in &allows {
        if !a.used.get() {
            out.push(Violation {
                rule: "allow-syntax".to_string(),
                file: rel_path.to_string(),
                line: a.line,
                message: format!(
                    "unused suppression for ({}): no matching finding on this or the next line",
                    a.rules.join(", ")
                ),
                snippet: snippet(a.line),
                allow_reason: None,
            });
        }
    }

    out.sort_by_key(|v| (v.line, v.rule.clone()));
    out
}

/// Count every `detlint::allow` comment in a source file (used by
/// `--self-check` to pin the workspace-wide suppression budget).
pub fn count_allow_comments(src: &str) -> usize {
    lex(src).iter().filter(|t| allow_content(t).is_some()).count()
}

/// If the comment token is an *anchored* suppression — its content starts
/// with `detlint::allow(` right after the comment opener — return the text
/// from `detlint::allow(` onward.  Prose that merely mentions the syntax
/// mid-sentence (doc comments, examples) does not anchor and is ignored.
fn allow_content<'a>(tok: &Token<'a>) -> Option<&'a str> {
    if !tok.kind.is_comment() {
        return None;
    }
    let body =
        tok.text.strip_prefix("//").or_else(|| tok.text.strip_prefix("/*")).unwrap_or(tok.text);
    // Doc/inner markers: `///`, `//!`, `/**`, `/*!`.
    let body = body.strip_prefix(['/', '!']).unwrap_or(body);
    let body = body.trim_start();
    body.starts_with("detlint::allow(").then_some(body)
}

fn parse_allows(
    rel_path: &str,
    tokens: &[Token<'_>],
    snippet: &dyn Fn(u32) -> String,
) -> (Vec<Allow>, Vec<Violation>) {
    let mut allows = Vec::new();
    let mut errors = Vec::new();
    let mut syntax_error = |line: u32, message: String| {
        errors.push(Violation {
            rule: "allow-syntax".to_string(),
            file: rel_path.to_string(),
            line,
            message,
            snippet: snippet(line),
            allow_reason: None,
        });
    };
    for t in tokens.iter() {
        let Some(content) = allow_content(t) else { continue };
        let rest = &content["detlint::allow(".len()..];
        let Some(close) = rest.find(')') else {
            syntax_error(t.line, "malformed detlint::allow: missing `)`".to_string());
            continue;
        };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() {
            syntax_error(t.line, "detlint::allow with an empty rule list".to_string());
            continue;
        }
        if let Some(bad) = rules.iter().find(|r| !RULE_IDS.contains(&r.as_str())) {
            syntax_error(
                t.line,
                format!(
                    "detlint::allow names unknown rule `{bad}` (known: {})",
                    RULE_IDS.join(", ")
                ),
            );
            continue;
        }
        let after = &rest[close + 1..];
        let Some(colon) = after.trim_start().strip_prefix(':') else {
            syntax_error(
                t.line,
                "detlint::allow requires a reason: `detlint::allow(rule): <why>`".to_string(),
            );
            continue;
        };
        let reason = colon.trim().trim_end_matches("*/").trim().to_string();
        if reason.is_empty() {
            syntax_error(t.line, "detlint::allow reason must not be empty".to_string());
            continue;
        }
        allows.push(Allow { line: t.line, rules, reason, used: std::cell::Cell::new(false) });
    }
    (allows, errors)
}

/// Next non-trivia token index strictly after `i`.
pub(crate) fn next_code(tokens: &[Token<'_>], i: usize) -> Option<usize> {
    tokens.iter().enumerate().skip(i + 1).find(|(_, t)| !t.kind.is_trivia()).map(|(j, _)| j)
}

/// Previous non-trivia token index strictly before `i`.
fn prev_code(tokens: &[Token<'_>], i: usize) -> Option<usize> {
    tokens[..i].iter().enumerate().rev().find(|(_, t)| !t.kind.is_trivia()).map(|(j, _)| j)
}

fn is_punct(t: &Token<'_>, c: &str) -> bool {
    t.kind == TokKind::Punct && t.text == c
}

fn is_ident(t: &Token<'_>, name: &str) -> bool {
    t.kind == TokKind::Ident && t.text == name
}

/// Match a sequence of punctuation/ident texts starting strictly after `i`,
/// skipping trivia; returns the index of the last matched token.
fn match_seq(tokens: &[Token<'_>], mut i: usize, seq: &[&str]) -> Option<usize> {
    for want in seq {
        i = next_code(tokens, i)?;
        let t = &tokens[i];
        let ok = match t.kind {
            TokKind::Punct | TokKind::Ident => t.text == *want,
            _ => false,
        };
        if !ok {
            return None;
        }
    }
    Some(i)
}

/// R1: `.lock()` immediately consumed by `.unwrap()` / `.expect(…)`.
fn rule_mutex_poison(
    tokens: &[Token<'_>],
    ctxs: &[TokenContext],
    findings: &mut Vec<(String, u32, String)>,
) {
    for (i, t) in tokens.iter().enumerate() {
        if !is_ident(t, "lock") || ctxs[i].test {
            continue;
        }
        let Some(p) = prev_code(tokens, i) else { continue };
        if !is_punct(&tokens[p], ".") {
            continue;
        }
        let Some(close) = match_seq(tokens, i, &["(", ")"]) else { continue };
        let Some(dot) = next_code(tokens, close) else { continue };
        if !is_punct(&tokens[dot], ".") {
            continue;
        }
        let Some(m) = next_code(tokens, dot) else { continue };
        if is_ident(&tokens[m], "unwrap") || is_ident(&tokens[m], "expect") {
            findings.push((
                "mutex-poison".to_string(),
                t.line,
                format!(
                    "`.lock().{}(…)` panics on a poisoned mutex; recover with \
                     `.lock().unwrap_or_else(PoisonError::into_inner)` (every reachable \
                     scratch state is valid)",
                    tokens[m].text
                ),
            ));
        }
    }
}

/// R6: every `unsafe` block/fn/impl requires an anchored `// SAFETY:`
/// comment — on the statement's own lines, or in the contiguous comment
/// block directly above it.  A soundness argument that lives in module docs
/// (or nowhere) drifts away from the code it excuses; anchoring it to the
/// site keeps the argument reviewable next to every edit of the `unsafe`
/// code itself.
fn rule_unsafe_justified(
    tokens: &[Token<'_>],
    ctxs: &[TokenContext],
    findings: &mut Vec<(String, u32, String)>,
) {
    use std::collections::BTreeSet;
    // Line maps: which lines hold a `SAFETY:` comment, and which hold code.
    // Tokens can span lines (block comments, multi-line strings), so count
    // every line a token touches.
    let mut safety_lines: BTreeSet<u32> = BTreeSet::new();
    let mut code_lines: BTreeSet<u32> = BTreeSet::new();
    for t in tokens {
        let span = t.text.matches('\n').count() as u32;
        if t.kind.is_comment() && t.text.contains("SAFETY:") {
            safety_lines.extend(t.line..=t.line + span);
        }
        if !t.kind.is_trivia() {
            code_lines.extend(t.line..=t.line + span);
        }
    }
    for (i, t) in tokens.iter().enumerate() {
        if !is_ident(t, "unsafe") || ctxs[i].test {
            continue;
        }
        // First line of the statement/item the `unsafe` belongs to: walk
        // code tokens backward to the previous statement boundary.
        let mut start = t.line;
        let mut j = i;
        while let Some(p) = prev_code(tokens, j) {
            if is_punct(&tokens[p], ";") || is_punct(&tokens[p], "{") || is_punct(&tokens[p], "}") {
                break;
            }
            start = start.min(tokens[p].line);
            j = p;
        }
        let on_statement = (start..=t.line).any(|l| safety_lines.contains(&l));
        let above = || {
            // Scan the contiguous run of non-code lines directly above the
            // statement (comments and blanks) for a SAFETY line.
            let mut l = start;
            while l > 1 && !code_lines.contains(&(l - 1)) {
                l -= 1;
                if safety_lines.contains(&l) {
                    return true;
                }
            }
            false
        };
        if !on_statement && !above() {
            findings.push((
                "unsafe-justified".to_string(),
                t.line,
                "`unsafe` without an anchored `// SAFETY:` comment; state the soundness \
                 argument at the site (on the statement or directly above it)"
                    .to_string(),
            ));
        }
    }
}

/// R2: panic sources in guarded hot-path modules.
fn rule_panic_in_guarded(
    tokens: &[Token<'_>],
    ctxs: &[TokenContext],
    findings: &mut Vec<(String, u32, String)>,
) {
    for (i, t) in tokens.iter().enumerate() {
        if ctxs[i].test || t.kind != TokKind::Ident {
            continue;
        }
        match t.text {
            "unwrap" | "expect" => {
                let preceded_by_dot =
                    prev_code(tokens, i).is_some_and(|p| is_punct(&tokens[p], "."));
                let followed_by_call =
                    next_code(tokens, i).is_some_and(|n| is_punct(&tokens[n], "("));
                if !(preceded_by_dot && followed_by_call) {
                    continue;
                }
                // `.lock().unwrap()` is already R1's finding; don't duplicate.
                if is_lock_chain(tokens, i) {
                    continue;
                }
                let fn_note = ctxs[i]
                    .fn_name
                    .as_deref()
                    .map(|f| format!(" (in fn `{f}`)"))
                    .unwrap_or_default();
                findings.push((
                    "panic-in-guarded".to_string(),
                    t.line,
                    format!(
                        "`.{}(…)` in a guarded hot-path module{fn_note}: propagate \
                         `sparse::Result`, record a FaultLog fallback, or justify the \
                         invariant with detlint::allow",
                        t.text
                    ),
                ));
            }
            "panic" | "todo" | "unimplemented"
                if next_code(tokens, i).is_some_and(|n| is_punct(&tokens[n], "!")) =>
            {
                findings.push((
                    "panic-in-guarded".to_string(),
                    t.line,
                    format!("`{}!` in a guarded hot-path module", t.text),
                ));
            }
            _ => {}
        }
    }
}

/// Whether the `unwrap`/`expect` ident at `i` directly consumes `.lock()`.
fn is_lock_chain(tokens: &[Token<'_>], i: usize) -> bool {
    // Walk back: `.` `)` `(` `lock` `.`
    let steps = ["(", ")"]; // reversed: expect `)` then `(`
    let Some(dot) = prev_code(tokens, i) else { return false };
    if !is_punct(&tokens[dot], ".") {
        return false;
    }
    let Some(rp) = prev_code(tokens, dot) else { return false };
    if !is_punct(&tokens[rp], steps[1]) {
        return false;
    }
    let Some(lp) = prev_code(tokens, rp) else { return false };
    if !is_punct(&tokens[lp], steps[0]) {
        return false;
    }
    prev_code(tokens, lp).is_some_and(|l| is_ident(&tokens[l], "lock"))
}

/// R3: `Instant::now` / `SystemTime::now` outside timing modules.
fn rule_nondet_clock(
    tokens: &[Token<'_>],
    ctxs: &[TokenContext],
    findings: &mut Vec<(String, u32, String)>,
) {
    for (i, t) in tokens.iter().enumerate() {
        if ctxs[i].test {
            continue;
        }
        if !(is_ident(t, "Instant") || is_ident(t, "SystemTime")) {
            continue;
        }
        if match_seq(tokens, i, &[":", ":", "now"]).is_some() {
            findings.push((
                "nondet-clock".to_string(),
                t.line,
                format!(
                    "`{}::now()` outside the timing/bench/resilience-budget modules: wall \
                     clocks must not influence deterministic solver paths",
                    t.text
                ),
            ));
        }
    }
}

/// Iteration methods whose order follows the hasher, not the data.
const HASH_ITER_METHODS: [&str; 8] =
    ["iter", "iter_mut", "into_iter", "keys", "values", "values_mut", "drain", "par_iter"];

/// R4: iteration over `HashMap` / `HashSet` bindings in deterministic
/// modules.  Bindings are tracked lexically per file: any `let` statement
/// (or typed pattern) that mentions `HashMap`/`HashSet` taints the bound
/// name; iterating a tainted name — method call or `for … in` — is flagged.
fn rule_nondet_iteration(
    tokens: &[Token<'_>],
    ctxs: &[TokenContext],
    findings: &mut Vec<(String, u32, String)>,
) {
    // Pass 1: collect tainted binding names.
    let mut tainted: Vec<String> = Vec::new();
    let code: Vec<usize> = (0..tokens.len()).filter(|&i| !tokens[i].kind.is_trivia()).collect();
    for (ci, &i) in code.iter().enumerate() {
        if !(is_ident(&tokens[i], "HashMap") || is_ident(&tokens[i], "HashSet")) {
            continue;
        }
        // Walk back through the statement for `let [mut] <name>` or
        // `<name> :` (typed binding / parameter).
        let mut j = ci;
        while j > 0 {
            j -= 1;
            let t = &tokens[code[j]];
            if is_punct(t, ";") || is_punct(t, "{") || is_punct(t, "}") {
                break;
            }
            if is_ident(t, "let") {
                // name = first ident after `let` (skipping `mut`).
                for &k in &code[j + 1..] {
                    let tk = &tokens[k];
                    if is_ident(tk, "mut") {
                        continue;
                    }
                    if tk.kind == TokKind::Ident && !tainted.iter().any(|n| n == tk.text) {
                        tainted.push(tk.text.to_string());
                    }
                    break;
                }
                break;
            }
        }
    }
    if tainted.is_empty() {
        return;
    }

    // Pass 2: flag iteration over tainted names.
    for (ci, &i) in code.iter().enumerate() {
        if ctxs[i].test || tokens[i].kind != TokKind::Ident {
            continue;
        }
        let name = tokens[i].text;
        if !tainted.iter().any(|t| t == name) {
            continue;
        }
        // `<name>.iter()`-style hash-ordered method call.
        if ci + 3 < code.len()
            && is_punct(&tokens[code[ci + 1]], ".")
            && tokens[code[ci + 2]].kind == TokKind::Ident
            && HASH_ITER_METHODS.contains(&tokens[code[ci + 2]].text)
            && is_punct(&tokens[code[ci + 3]], "(")
        {
            findings.push((
                "nondet-iteration".to_string(),
                tokens[i].line,
                format!(
                    "`{name}.{}()` iterates a hash collection in a deterministic module: \
                     iteration order follows the hasher seed — use BTreeMap/BTreeSet or \
                     sort the keys first",
                    tokens[code[ci + 2]].text
                ),
            ));
        }
        // `for … in … <name> … {` — hash-ordered loop.
        let mut j = ci;
        let mut saw_in = false;
        while j > 0 {
            j -= 1;
            let t = &tokens[code[j]];
            if is_punct(t, "{") || is_punct(t, "}") || is_punct(t, ";") {
                break;
            }
            if is_ident(t, "in") {
                saw_in = true;
            } else if is_ident(t, "for") && saw_in {
                findings.push((
                    "nondet-iteration".to_string(),
                    tokens[i].line,
                    format!(
                        "`for … in` over hash collection `{name}` in a deterministic \
                         module: iteration order follows the hasher seed — use \
                         BTreeMap/BTreeSet or sort the keys first",
                    ),
                ));
                break;
            }
        }
    }
}

/// Parallel-iterator entry points that start a chain.
const PAR_ENTRY: [&str; 6] =
    ["par_iter", "par_iter_mut", "into_par_iter", "par_bridge", "par_chunks", "par_chunks_mut"];

/// R5: `.sum::<f64>()` / `.fold(` inside a closure argument of a `par_iter`
/// chain.  The chain-level `sum`/`reduce` go through the fixed-chunk
/// deterministic reduction layer; ad-hoc reductions inside the closures do
/// not, so they must be hoisted or justified.
fn rule_float_reduce(
    tokens: &[Token<'_>],
    ctxs: &[TokenContext],
    findings: &mut Vec<(String, u32, String)>,
) {
    let code: Vec<usize> = (0..tokens.len()).filter(|&i| !tokens[i].kind.is_trivia()).collect();
    let mut ci = 0usize;
    while ci < code.len() {
        let i = code[ci];
        if ctxs[i].test || tokens[i].kind != TokKind::Ident || !PAR_ENTRY.contains(&tokens[i].text)
        {
            ci += 1;
            continue;
        }
        // Scan the chain: relative paren depth, bounded lookahead.
        let mut depth = 0i32;
        let mut cj = ci + 1;
        let limit = (ci + 4000).min(code.len());
        while cj < limit {
            let j = code[cj];
            let t = &tokens[j];
            if is_punct(t, "(") {
                depth += 1;
            } else if is_punct(t, ")") {
                depth -= 1;
                if depth < 0 {
                    break; // left the enclosing expression
                }
            } else if depth == 0 && (is_punct(t, ";") || is_punct(t, ",")) {
                break; // chain statement ended
            } else if depth >= 1 && t.kind == TokKind::Ident {
                let after_dot = cj > 0 && is_punct(&tokens[code[cj - 1]], ".");
                if after_dot && t.text == "fold" {
                    findings.push((
                        "float-reduce".to_string(),
                        t.line,
                        "`.fold(…)` inside a par_iter closure bypasses the fixed-chunk \
                         deterministic reduction layer"
                            .to_string(),
                    ));
                } else if after_dot
                    && t.text == "sum"
                    && match_seq(tokens, j, &[":", ":", "<", "f64"]).is_some()
                {
                    findings.push((
                        "float-reduce".to_string(),
                        t.line,
                        "`.sum::<f64>()` inside a par_iter closure bypasses the fixed-chunk \
                         deterministic reduction layer"
                            .to_string(),
                    ));
                }
            }
            cj += 1;
        }
        ci += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_at(path: &str, src: &str) -> Vec<Violation> {
        lint_workspace(&[(path.to_string(), src.to_string())], &Config::default())
    }

    fn live_rules(vs: &[Violation]) -> Vec<&str> {
        vs.iter().filter(|v| v.is_live()).map(|v| v.rule.as_str()).collect()
    }

    const GUARDED: &str = "crates/gnn/src/gemm.rs";
    const PLAIN: &str = "crates/fem/src/assembly.rs";

    #[test]
    fn bare_lock_unwrap_is_flagged_everywhere() {
        let src = "fn f(m: &Mutex<u32>) { let g = m.lock().unwrap(); }";
        assert_eq!(live_rules(&lint_at(PLAIN, src)), vec!["mutex-poison"]);
        let src2 = "fn f(m: &Mutex<u32>) { let g = m.lock().expect(\"locked\"); }";
        assert_eq!(live_rules(&lint_at(PLAIN, src2)), vec!["mutex-poison"]);
    }

    #[test]
    fn recovering_lock_passes() {
        let src =
            "fn f(m: &Mutex<u32>) { let g = m.lock().unwrap_or_else(PoisonError::into_inner); }";
        assert!(lint_at(PLAIN, src).is_empty());
    }

    #[test]
    fn lock_unwrap_in_test_module_is_exempt() {
        let src = "#[cfg(test)]\nmod tests { fn t(m: &Mutex<u32>) { m.lock().unwrap(); } }";
        assert!(lint_at(PLAIN, src).is_empty());
        // Same code in a tests/ file.
        let src2 = "fn t(m: &Mutex<u32>) { m.lock().unwrap(); }";
        assert!(lint_at("crates/gnn/tests/parity.rs", src2).is_empty());
    }

    #[test]
    fn lock_unwrap_inside_string_or_comment_is_ignored() {
        let src = "// example: m.lock().unwrap()\nfn f() { let s = \"m.lock().unwrap()\"; }";
        assert!(lint_at(PLAIN, src).is_empty());
        let raw = r####"fn f() { let s = r#"m.lock().unwrap() panic!"#; }"####;
        assert!(lint_at(GUARDED, raw).is_empty());
    }

    #[test]
    fn panic_sources_flagged_only_in_guarded_modules() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert_eq!(live_rules(&lint_at(GUARDED, src)), vec!["panic-in-guarded"]);
        assert!(lint_at(PLAIN, src).is_empty());
        let mac = "fn f() { panic!(\"boom\"); }";
        assert_eq!(live_rules(&lint_at(GUARDED, mac)), vec!["panic-in-guarded"]);
        let todo = "fn f() { todo!() }";
        assert_eq!(live_rules(&lint_at(GUARDED, todo)), vec!["panic-in-guarded"]);
    }

    #[test]
    fn unwrap_or_else_and_unwrap_or_default_pass_guarded() {
        let src =
            "fn f(x: Option<u32>) -> u32 { x.unwrap_or_else(|| 0).max(x.unwrap_or_default()) }";
        assert!(lint_at(GUARDED, src).is_empty());
    }

    #[test]
    fn lock_unwrap_in_guarded_module_reports_only_mutex_poison() {
        let src = "fn f(m: &Mutex<u32>) { let g = m.lock().unwrap(); }";
        assert_eq!(live_rules(&lint_at(GUARDED, src)), vec!["mutex-poison"]);
    }

    #[test]
    fn clock_flagged_outside_timing_modules() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(live_rules(&lint_at(PLAIN, src)), vec!["nondet-clock"]);
        let sys = "fn f() { let t = SystemTime::now(); }";
        assert_eq!(live_rules(&lint_at(PLAIN, sys)), vec!["nondet-clock"]);
        // Allowed in the bench harness and the solver driver's reporting.
        assert!(lint_at("crates/bench/src/bin/reproduce.rs", src).is_empty());
        assert!(lint_at("crates/ddm-gnn/src/solver.rs", src).is_empty());
        // The degradation ladder decides on data alone: a clock read there
        // is flagged like anywhere else in the library.
        assert_eq!(
            live_rules(&lint_at("crates/krylov/src/resilience.rs", src)),
            vec!["nondet-clock"]
        );
        // And in tests anywhere.
        let t = "#[cfg(test)]\nmod tests { fn f() { let t = Instant::now(); } }";
        assert!(lint_at(PLAIN, t).is_empty());
    }

    #[test]
    fn hash_iteration_flagged_in_deterministic_modules() {
        let src = "fn f() { let mut m: HashMap<u32, u32> = HashMap::new(); \
                   for (k, v) in &m { use_it(k, v); } }";
        assert_eq!(live_rules(&lint_at(PLAIN, src)), vec!["nondet-iteration"]);
        let src2 = "fn f() { let s = HashSet::new(); let v: Vec<_> = s.iter().collect(); }";
        assert_eq!(live_rules(&lint_at(PLAIN, src2)), vec!["nondet-iteration"]);
        // Lookup-only use passes.
        let ok = "fn f() { let mut m: HashMap<u32, u32> = HashMap::new(); \
                  m.insert(1, 2); let x = m.get(&1); }";
        assert!(lint_at(PLAIN, ok).is_empty());
        // BTreeMap iteration passes.
        let bt = "fn f() { let m: BTreeMap<u32, u32> = BTreeMap::new(); \
                  for (k, v) in &m { use_it(k, v); } }";
        assert!(lint_at(PLAIN, bt).is_empty());
        // Outside the deterministic pipeline nothing fires.
        assert!(lint_at("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn float_reduce_flagged_inside_par_closures_only() {
        let bad = "fn f(xs: &[Vec<f64>], acc: &Mutex<f64>) { \
                   xs.par_iter().for_each(|row| { \
                   let s = row.iter().map(|v| v * v).sum::<f64>(); sink(s); }); }";
        assert_eq!(live_rules(&lint_at(PLAIN, bad)), vec!["float-reduce"]);
        let bad_fold = "fn f(xs: &[f64]) { xs.par_iter().for_each(|v| { \
                        let m = ws.iter().fold(0.0, f64::max); sink(m); }); }";
        assert_eq!(live_rules(&lint_at(PLAIN, bad_fold)), vec!["float-reduce"]);
        // The chain-level sum goes through the deterministic reduction layer.
        let ok = "fn f(xs: &[f64]) -> f64 { xs.par_iter().map(|v| v * v).sum() }";
        assert!(lint_at(PLAIN, ok).is_empty());
        // Sequential folds are fine.
        let seq = "fn f(xs: &[f64]) -> f64 { xs.iter().fold(0.0, f64::max) }";
        assert!(lint_at(PLAIN, seq).is_empty());
    }

    #[test]
    fn allow_with_reason_suppresses_and_is_reported_as_allowed() {
        let src = "fn f(m: &Mutex<u32>) {\n\
                   // detlint::allow(mutex-poison): test harness, poisoning impossible\n\
                   let g = m.lock().unwrap();\n}";
        let vs = lint_at(PLAIN, src);
        assert_eq!(vs.len(), 1);
        assert!(!vs[0].is_live());
        assert_eq!(vs[0].allow_reason.as_deref(), Some("test harness, poisoning impossible"));
    }

    #[test]
    fn allow_on_same_line_works() {
        let src = "fn f(m: &Mutex<u32>) { let g = m.lock().unwrap(); \
                   // detlint::allow(mutex-poison): same line justification\n}";
        let vs = lint_at(PLAIN, src);
        assert_eq!(vs.len(), 1);
        assert!(!vs[0].is_live());
    }

    #[test]
    fn allow_without_reason_is_a_violation() {
        let src = "fn f(m: &Mutex<u32>) {\n\
                   // detlint::allow(mutex-poison)\n\
                   let g = m.lock().unwrap();\n}";
        let vs = lint_at(PLAIN, src);
        let rules = live_rules(&vs);
        assert!(rules.contains(&"allow-syntax"));
        assert!(rules.contains(&"mutex-poison"), "missing reason must not suppress");
    }

    #[test]
    fn allow_with_unknown_rule_is_a_violation() {
        let src = "fn f() {\n// detlint::allow(no-such-rule): whatever\nwork();\n}";
        let vs = lint_at(PLAIN, src);
        assert_eq!(live_rules(&vs), vec!["allow-syntax"]);
        assert!(vs[0].message.contains("unknown rule"));
    }

    #[test]
    fn unused_allow_is_a_violation() {
        let src = "fn f() {\n// detlint::allow(mutex-poison): nothing here anymore\nwork();\n}";
        let vs = lint_at(PLAIN, src);
        assert_eq!(live_rules(&vs), vec!["allow-syntax"]);
        assert!(vs[0].message.contains("unused suppression"));
    }

    #[test]
    fn allow_only_covers_named_rule() {
        let src = "fn f(m: &Mutex<u32>) {\n\
                   // detlint::allow(nondet-clock): wrong rule named\n\
                   let g = m.lock().unwrap();\n}";
        let vs = lint_at(PLAIN, src);
        let rules = live_rules(&vs);
        // The mutex-poison finding stays live and the clock allow is unused.
        assert!(rules.contains(&"mutex-poison"));
        assert!(rules.contains(&"allow-syntax"));
    }

    #[test]
    fn unjustified_unsafe_is_flagged() {
        let src = "fn f(p: *const u8) -> u8 { unsafe { *p } }";
        assert_eq!(live_rules(&lint_at(PLAIN, src)), vec!["unsafe-justified"]);
        // Unsafe impls need the argument too.
        let imp = "unsafe impl Send for Foo {}";
        assert_eq!(live_rules(&lint_at(PLAIN, imp)), vec!["unsafe-justified"]);
    }

    #[test]
    fn safety_comment_above_the_statement_justifies_unsafe() {
        let src = "fn f(p: *const u8) -> u8 {\n\
                   // SAFETY: caller guarantees p is valid for reads.\n\
                   let v =\n\
                   unsafe { *p };\n\
                   v }";
        assert!(lint_at(PLAIN, src).is_empty());
        // A multi-line statement with the SAFETY block several comment lines
        // above its first line (the pool.rs transmute shape).
        let pool_shape = "fn f(p: *const u8) -> u8 {\n\
                          // SAFETY: the borrow outlives every use because the\n\
                          // latch blocks until all jobs finish.\n\
                          let value: u8 =\n\
                          unsafe { *p };\n\
                          value }";
        assert!(lint_at(PLAIN, pool_shape).is_empty());
    }

    #[test]
    fn safety_comment_on_the_same_line_justifies_unsafe() {
        let src = "fn f(p: *const u8) -> u8 { unsafe { *p } /* SAFETY: p valid */ }";
        assert!(lint_at(PLAIN, src).is_empty());
    }

    #[test]
    fn unrelated_comment_does_not_justify_unsafe() {
        let src = "fn f(p: *const u8) -> u8 {\n\
                   // definitely fine, trust me\n\
                   unsafe { *p }\n\
                   }";
        assert_eq!(live_rules(&lint_at(PLAIN, src)), vec!["unsafe-justified"]);
        // A SAFETY comment separated from the statement by code does not
        // anchor.
        let stale = "fn f(p: *const u8) -> u8 {\n\
                     // SAFETY: for the other statement.\n\
                     let _x = 1;\n\
                     unsafe { *p }\n\
                     }";
        assert_eq!(live_rules(&lint_at(PLAIN, stale)), vec!["unsafe-justified"]);
    }

    #[test]
    fn unsafe_in_test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests { fn t(p: *const u8) -> u8 { unsafe { *p } } }";
        assert!(lint_at(PLAIN, src).is_empty());
    }

    #[test]
    fn unsafe_can_be_allowed_with_reason() {
        let src = "// detlint::allow(unsafe-justified): audited in PR review\n\
                   fn f(p: *const u8) -> u8 { unsafe { *p } }";
        let vs = lint_at(PLAIN, src);
        assert!(vs.iter().all(|v| !v.is_live()), "allow must suppress: {vs:?}");
    }

    #[test]
    fn count_allow_comments_counts_only_comments() {
        let src = "// detlint::allow(mutex-poison): a\n\
                   let s = \"detlint::allow(mutex-poison): not me\";\n\
                   /* detlint::allow(nondet-clock): b */";
        assert_eq!(count_allow_comments(src), 2);
    }

    /// Every rule still catches what it exists to catch: each row appends
    /// one violation to a real workspace file in that rule's scope — in
    /// memory, nothing is written — and the whole-workspace run must report
    /// exactly one more live finding, of that rule.
    #[test]
    fn every_rule_catches_a_seeded_violation() {
        let seeds = [
            (
                "mutex-poison",
                "crates/ddm/src/local.rs",
                "fn seeded(m: &std::sync::Mutex<u8>) -> u8 { *m.lock().unwrap() }",
            ),
            ("panic-in-guarded", "crates/krylov/src/pcg.rs", "fn seeded(x: Option<u8>) -> u8 { x.unwrap() }"),
            (
                "nondet-clock",
                "crates/ddm/src/asm.rs",
                "fn seeded() -> std::time::Instant { std::time::Instant::now() }",
            ),
            (
                "nondet-iteration",
                "crates/partition/src/graph.rs",
                "fn seeded() { let seeded_set: std::collections::HashSet<u8> = Default::default(); \
                 for x in &seeded_set { drop(x); } }",
            ),
            (
                "float-reduce",
                "crates/sparse/src/vector.rs",
                "fn seeded(xs: &[Vec<f64>]) { xs.par_iter().for_each(|r| drop(r.iter().sum::<f64>())); }",
            ),
            ("unsafe-justified", "crates/gnn/src/gemm.rs", "fn seeded(p: *const u8) -> u8 { unsafe { *p } }"),
            ("unreferenced-pub", "crates/sparse/src/vector.rs", "pub fn seeded_unreferenced() {}"),
        ];
        let mut rules: Vec<&str> = seeds.iter().map(|s| s.0).collect();
        rules.sort_unstable();
        let mut all = RULE_IDS.to_vec();
        all.sort_unstable();
        assert_eq!(rules, all, "one seed per rule");

        let cfg = Config::default();
        let root = crate::workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root");
        let files = crate::read_sources(std::slice::from_ref(&root), &root, &cfg)
            .expect("workspace sources");
        let live = |files: &[(String, String)]| -> Vec<(String, String)> {
            let mut live: Vec<_> = lint_workspace(files, &cfg)
                .into_iter()
                .filter(Violation::is_live)
                .map(|v| (v.rule, v.file))
                .collect();
            live.sort();
            live
        };
        let baseline = live(&files);
        for (rule, file, seed) in seeds {
            let mut seeded = files.clone();
            let target =
                seeded.iter_mut().find(|(rel, _)| rel == file).expect("seeded file exists");
            target.1.push_str(&format!("\n{seed}\n"));
            let mut found = live(&seeded);
            for known in &baseline {
                let at =
                    found.iter().position(|f| f == known).expect("a baseline finding vanished");
                found.remove(at);
            }
            assert_eq!(found, [(rule.to_string(), file.to_string())], "seeding {rule}");
        }
    }
}
