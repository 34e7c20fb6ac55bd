//! `detlint` CLI: lint the workspace (or given paths) against the
//! determinism & resilience contracts.
//!
//! ```text
//! detlint [--json] [--self-check] [PATH …]
//! ```
//!
//! * no paths: discover the workspace root (walk up to the `Cargo.toml`
//!   containing `[workspace]`) and scan every `.rs` file outside the
//!   excluded directories (build output; the vendored shims ARE scanned),
//! * `--json`: machine-readable report on stdout,
//! * `--self-check`: additionally fail on any live finding — so also on
//!   any `pub` item that `unreferenced-pub` finds dead or too wide — and
//!   assert the workspace-wide `detlint::allow` count matches the committed
//!   `EXPECTED_WORKSPACE_ALLOWS` constant, so suppressions cannot
//!   accumulate silently.
//!
//! `unreferenced-pub` judges every `pub` item against the files of the
//! walk, so it is meaningful on the whole workspace (no `PATH`).
//!
//! Exit codes: `0` clean, `1` live violations (or self-check mismatch),
//! `2` usage / IO error.

use std::path::PathBuf;
use std::process::ExitCode;

use lint::{
    count_allow_comments, lint_workspace, read_sources, workspace_root, Config, Report,
    EXPECTED_WORKSPACE_ALLOWS,
};

fn main() -> ExitCode {
    let mut json = false;
    let mut self_check = false;
    let mut paths: Vec<PathBuf> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--self-check" => self_check = true,
            "--help" | "-h" => {
                println!("usage: detlint [--json] [--self-check] [PATH ...]");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("detlint: unknown flag `{other}` (try --help)");
                return ExitCode::from(2);
            }
            other => paths.push(PathBuf::from(other)),
        }
    }

    let cfg = Config::default();
    let root = match std::env::current_dir().ok().and_then(|d| workspace_root(&d)) {
        Some(r) => r,
        None => {
            eprintln!("detlint: could not locate the workspace root (no [workspace] Cargo.toml)");
            return ExitCode::from(2);
        }
    };
    if paths.is_empty() {
        paths.push(root.clone());
    }

    let files = match read_sources(&paths, &root, &cfg) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("detlint: {e}");
            return ExitCode::from(2);
        }
    };
    let allow_total: usize = files.iter().map(|(_, src)| count_allow_comments(src)).sum();
    let mut report = Report { files_scanned: files.len(), findings: lint_workspace(&files, &cfg) };
    report.findings.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));

    let mut self_check_failures: Vec<String> = Vec::new();
    if self_check {
        // 1. No live finding anywhere, the lint crate and dead or too-wide
        //    public surface included.
        let live = report.live().count();
        if live > 0 {
            self_check_failures.push(format!("{live} live violation(s)"));
        }
        // 2. The workspace-wide suppression count is pinned.
        if allow_total != EXPECTED_WORKSPACE_ALLOWS {
            self_check_failures.push(format!(
                "workspace has {allow_total} detlint::allow comment(s), expected \
                 {EXPECTED_WORKSPACE_ALLOWS}; review the new/removed suppressions and \
                 update EXPECTED_WORKSPACE_ALLOWS in crates/lint/src/config.rs"
            ));
        }
    }

    if json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    for f in &self_check_failures {
        eprintln!("detlint: self-check: {f}");
    }
    if self_check && self_check_failures.is_empty() && !json {
        println!(
            "detlint: self-check OK ({allow_total} suppression(s), matching the committed count)"
        );
    }

    if report.passed() && self_check_failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
