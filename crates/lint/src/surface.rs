//! `unreferenced-pub`: the one workspace-level rule.
//!
//! A `pub` item is public surface only if some other crate names it.  The
//! rule collects every bare-`pub` fn, inherent method, struct, enum, trait,
//! type alias, const and static outside test code, then looks for an
//! identifier token with the same name anywhere in the scanned files:
//!
//! * no non-test token names it (test code at most) — the item is **dead**:
//!   delete it together with the tests that exercise it;
//! * only its own crate names it outside test code — make it `pub(crate)`
//!   (or private).
//!
//! Bins, examples and benches are crates of their own, and they are real
//! users: only `tests/` directories and `#[cfg(test)]` / `#[test]` code
//! count as test code here.  The match is by name alone, so any same-named
//! identifier counts as a use — a shared method name like `apply` keeps
//! every `pub fn apply` alive.  That errs towards silence, never towards a
//! false finding.  A name in the signature of another bare-`pub` item — a
//! parameter or return type, a supertrait bound, an alias target — or in the
//! type of a `pub` field is part of a public interface and counts as a use
//! from outside.  Methods of `impl Trait for` blocks carry no `pub` and so
//! never enter the candidate set.
//!
//! Every scanned file counts as a user, but only the workspace's own
//! packages — `crates/*` and the root package — are judged.  The vendored
//! `shims/` mirror their upstream crates' API (swapping a shim back for the
//! registry crate needs no source change), and `benchmark/` is a separate,
//! frozen workspace: the outside user whose calls keep
//! `benchmark/api_surface.json` public.

use std::collections::BTreeMap;

use crate::context::{contexts, FileClass};
use crate::lexer::{TokKind, Token};
use crate::rules::next_code;

/// Keywords that introduce an item the rule judges.
const ITEM_KINDS: [&str; 8] = ["fn", "struct", "enum", "trait", "type", "const", "static", "union"];

/// Qualifiers that may sit between `pub` and the item keyword.
const QUALIFIERS: [&str; 5] = ["unsafe", "async", "extern", "mut", "auto"];

/// The crate a workspace-relative file belongs to: `…/src/bin/<name>` and
/// `…/src/main.rs` are binaries, anything else under `…/src/` is its
/// package's library, and a file outside `src/` (integration test, bench,
/// example) is a crate by itself.
fn crate_of(rel_path: &str) -> &str {
    let (prefix, rest) = match rel_path.find("/src/") {
        Some(k) => (&rel_path[..k + 1], &rel_path[k + 5..]),
        None => match rel_path.strip_prefix("src/") {
            Some(rest) => ("", rest),
            None => return rel_path,
        },
    };
    if let Some(bin) = rest.strip_prefix("bin/") {
        let name = bin.split('/').next().unwrap_or(bin);
        return &rel_path[..prefix.len() + "src/bin/".len() + name.len()];
    }
    if rest == "main.rs" {
        return rel_path;
    }
    prefix
}

/// Whether the rule judges the `pub` items declared in this file.
fn judged(rel_path: &str) -> bool {
    rel_path.starts_with("crates/") || rel_path.starts_with("src/")
}

/// What an identifier token is to the rule.
#[derive(Clone, Copy, PartialEq)]
enum Role {
    /// An ordinary use.
    Plain,
    /// The name of a judged `pub` item: not a use of anything.
    Declared,
    /// Inside the signature of a `pub` item or the type of a `pub` field:
    /// public exposure, a use from outside the crate.
    Exposed,
}

/// A `pub` item: file, line of its `pub`, token index of its name, keyword.
struct Decl<'a> {
    file: usize,
    line: u32,
    tok: usize,
    kind: &'a str,
}

/// Index of the token that ends the signature of the item named at `name`:
/// the first `{` or `;` outside brackets, or the `=` before a const or
/// static's value.
fn signature_end(tokens: &[Token<'_>], name: usize, kind: &str) -> usize {
    let mut depth = 0i32;
    let mut j = name;
    while let Some(k) = next_code(tokens, j) {
        match tokens[k].text {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" | ";" if depth == 0 => return k,
            "=" if depth == 0 && (kind == "const" || kind == "static") => return k,
            _ => {}
        }
        j = k;
    }
    tokens.len()
}

/// The type of the `pub` field at `i` (`pub name: T`, or a tuple struct's
/// `pub T`): the range of tokens up to the `,` or closing bracket that ends
/// it.  `None` for `pub use` and `pub mod`.
fn field_type(tokens: &[Token<'_>], i: usize) -> Option<(usize, usize)> {
    let mut start = next_code(tokens, i)?;
    if matches!(tokens[start].text, "use" | "mod") {
        return None;
    }
    if let Some(colon) = next_code(tokens, start).filter(|&c| tokens[c].text == ":") {
        start = colon;
    }
    let mut depth = 0i32;
    let mut j = start;
    while let Some(k) = next_code(tokens, j) {
        match tokens[k].text {
            "(" | "[" | "<" | "{" => depth += 1,
            ")" | "]" | ">" | "}" | "," if depth == 0 => return Some((start, k)),
            ")" | "]" | ">" | "}" => depth -= 1,
            _ => {}
        }
        j = k;
    }
    None
}

/// If the bare `pub` at `i` starts an item the rule judges, return the
/// token index of the item's name and its keyword.
fn pub_item<'a>(tokens: &[Token<'a>], i: usize) -> Option<(usize, &'a str)> {
    let mut kind = None;
    let mut j = next_code(tokens, i)?;
    loop {
        let t = &tokens[j];
        match t.kind {
            TokKind::Ident if ITEM_KINDS.contains(&t.text) => kind = Some(t.text),
            TokKind::Ident if QUALIFIERS.contains(&t.text) => {}
            // The ABI string of `pub extern "C" fn`.
            TokKind::StringLit => {}
            TokKind::Ident => return kind.map(|k| (j, k)),
            _ => return None,
        }
        j = next_code(tokens, j)?;
    }
}

/// Run the rule over lexed files (`(workspace-relative path, tokens)`);
/// returns `(file index, line, message)` for every finding.
pub(crate) fn unreferenced_pub(files: &[(&str, &[Token<'_>])]) -> Vec<(usize, u32, String)> {
    let test_flags: Vec<Vec<bool>> = files
        .iter()
        .map(|(rel, tokens)| {
            let class = if rel.starts_with("tests/") || rel.contains("/tests/") {
                FileClass::Test
            } else {
                FileClass::Library
            };
            contexts(tokens, class).into_iter().map(|c| c.test).collect()
        })
        .collect();

    let mut role: Vec<Vec<Role>> = files.iter().map(|(_, t)| vec![Role::Plain; t.len()]).collect();
    let mut decls: Vec<Decl<'_>> = Vec::new();
    for (f, (rel, tokens)) in files.iter().enumerate() {
        for (i, t) in tokens.iter().enumerate() {
            let bare_pub = t.kind == TokKind::Ident
                && t.text == "pub"
                && next_code(tokens, i).is_some_and(|n| tokens[n].text != "(");
            if !bare_pub || test_flags[f][i] {
                continue;
            }
            let Some((tok, kind)) = pub_item(tokens, i) else {
                if let Some((start, end)) = field_type(tokens, i) {
                    role[f][start..end].fill(Role::Exposed);
                }
                continue;
            };
            role[f][tok + 1..signature_end(tokens, tok, kind)].fill(Role::Exposed);
            if judged(rel) {
                role[f][tok] = Role::Declared;
                decls.push(Decl { file: f, line: t.line, tok, kind });
            }
        }
    }

    // Every identifier token that names a declared item, except the
    // declarations themselves: `(file, is test code, is exposure)`.
    let mut uses: BTreeMap<&str, Vec<(usize, bool, bool)>> =
        decls.iter().map(|d| (files[d.file].1[d.tok].text, Vec::new())).collect();
    for (f, (_, tokens)) in files.iter().enumerate() {
        for (i, t) in tokens.iter().enumerate() {
            if t.kind != TokKind::Ident || role[f][i] == Role::Declared {
                continue;
            }
            if let Some(list) = uses.get_mut(t.text) {
                list.push((f, test_flags[f][i], role[f][i] == Role::Exposed));
            }
        }
    }

    let mut out = Vec::new();
    for d in &decls {
        let (rel, tokens) = files[d.file];
        let name = tokens[d.tok].text;
        let home = crate_of(rel);
        let live: Vec<_> = uses[name].iter().filter(|u| !u.1).collect();
        let message = if live.is_empty() {
            format!(
                "`pub {} {name}` is named only by test code, if at all: delete it together \
                 with its tests",
                d.kind
            )
        } else if live.iter().all(|u| !u.2 && crate_of(files[u.0].0) == home) {
            format!(
                "`pub {} {name}` is named by no other crate: make it `pub(crate)` or private",
                d.kind
            )
        } else {
            continue;
        };
        out.push((d.file, d.line, message));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(files: &[(&str, &str)]) -> Vec<(String, u32, String)> {
        let lexed: Vec<Vec<Token<'_>>> = files.iter().map(|(_, src)| lex(src)).collect();
        let input: Vec<(&str, &[Token<'_>])> =
            files.iter().zip(&lexed).map(|((rel, _), t)| (*rel, t.as_slice())).collect();
        unreferenced_pub(&input)
            .into_iter()
            .map(|(f, line, m)| (files[f].0.to_string(), line, m))
            .collect()
    }

    #[test]
    fn crates_are_packages_bins_and_stand_alone_files() {
        assert_eq!(crate_of("crates/gnn/src/plan.rs"), "crates/gnn/");
        assert_eq!(crate_of("crates/gnn/src/lib.rs"), "crates/gnn/");
        assert_eq!(crate_of("src/lib.rs"), "");
        assert_eq!(crate_of("crates/bench/src/bin/table1.rs"), "crates/bench/src/bin/table1.rs");
        assert_eq!(crate_of("crates/x/src/bin/tool/cli.rs"), "crates/x/src/bin/tool");
        assert_eq!(crate_of("benchmark/src/main.rs"), "benchmark/src/main.rs");
        assert_eq!(crate_of("benchmark/src/json.rs"), "benchmark/");
        assert_eq!(crate_of("examples/quickstart.rs"), "examples/quickstart.rs");
        assert_eq!(crate_of("crates/gnn/tests/parity.rs"), "crates/gnn/tests/parity.rs");
    }

    #[test]
    fn item_named_by_another_crate_passes() {
        let lib = "pub fn used() {}\npub struct S;\npub const K: u8 = 1;";
        let user = "fn main() { a::used(); let _ = a::S; let _ = a::K; }";
        assert!(run(&[("crates/a/src/lib.rs", lib), ("examples/e.rs", user)]).is_empty());
    }

    #[test]
    fn item_named_only_in_its_own_crate_should_narrow() {
        let lib = "pub fn helper() {}\nfn caller() { helper() }";
        let found = run(&[("crates/a/src/lib.rs", lib), ("crates/b/src/lib.rs", "fn f() {}")]);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].1, 1);
        assert!(found[0].2.contains("pub(crate)"), "{found:?}");
        // Another bin of the same package is another crate.
        let bin = "fn main() { a::helper() }";
        assert!(run(&[("crates/a/src/lib.rs", lib), ("crates/a/src/bin/tool.rs", bin)]).is_empty());
    }

    #[test]
    fn item_named_only_by_tests_is_dead() {
        let lib = "pub fn only_tested() {}\n#[cfg(test)]\nmod tests { fn t() { only_tested() } }";
        let it = "fn t() { a::only_tested() }";
        let found = run(&[("crates/a/src/lib.rs", lib), ("crates/a/tests/it.rs", it)]);
        assert_eq!(found.len(), 1);
        assert!(found[0].2.contains("delete it"), "{found:?}");
    }

    #[test]
    fn shims_and_the_benchmark_are_users_but_not_judged() {
        let shim = "pub fn unused_upstream_api() {}\npub fn called() {}";
        let bench = "pub fn frozen() {}\nfn main() { rayon::called(); a::lib_fn(); }";
        let lib = "pub fn lib_fn() {}";
        let files = [
            ("shims/rayon/src/lib.rs", shim),
            ("benchmark/src/lib.rs", bench),
            ("crates/a/src/lib.rs", lib),
        ];
        assert!(run(&files).is_empty());
    }

    #[test]
    fn a_type_in_a_pub_signature_stays_public() {
        let lib = "pub struct Scratch;\npub trait Sealed {}\n\
                   pub trait Scalar: Sealed {}\npub fn used(s: &mut Scratch) {}";
        let user = "fn main() { a::used(todo()); }";
        let found = run(&[("crates/a/src/lib.rs", lib), ("examples/e.rs", user)]);
        // `Scalar` itself is the one item no other crate names.
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].2.contains("Scalar"), "{found:?}");
    }

    #[test]
    fn a_type_of_a_pub_field_stays_public() {
        let lib = "pub struct Reason;\npub struct Wrapped;\npub struct Stats { pub why: Reason }\n\
                   pub struct Tuple(pub Vec<Wrapped>);";
        let user = "fn main() { let _: a::Stats; let _: a::Tuple; }";
        assert!(run(&[("crates/a/src/lib.rs", lib), ("examples/e.rs", user)]).is_empty());
    }

    #[test]
    fn restricted_fields_modules_and_test_items_are_not_candidates() {
        let lib = "pub(crate) fn a() {}\npub(super) struct B;\npub struct C { pub field: u8 }\n\
                   pub mod m {}\npub use x::y;\n#[cfg(test)]\nmod tests { pub fn t() {} }\n\
                   fn f() { let _ = C { field: 0 }; }";
        let user = "fn main() { let _: a::C; }";
        assert!(run(&[("crates/a/src/lib.rs", lib), ("examples/e.rs", user)]).is_empty());
    }

    #[test]
    fn qualified_items_are_candidates() {
        let lib = "pub const fn a() {}\npub unsafe fn b() {}\npub extern \"C\" fn c() {}\n\
                   pub static mut D: u8 = 0;\npub type E = u8;\npub trait F {}\npub enum G {}";
        let found = run(&[("crates/a/src/lib.rs", lib)]);
        let names: Vec<u32> = found.iter().map(|f| f.1).collect();
        assert_eq!(names, vec![1, 2, 3, 4, 5, 6, 7], "{found:?}");
    }
}
