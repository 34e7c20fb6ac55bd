//! `detlint` — a self-contained static analyzer enforcing this workspace's
//! determinism and resilience source contracts.
//!
//! The solver's headline guarantees — bit-identical f64 residual histories
//! across thread counts, and panic containment in the guarded
//! preconditioner paths — are *source-level* contracts: poison-recovering
//! mutexes, no wall clocks in solver math, no hash-order iteration, no
//! ad-hoc float reductions inside parallel closures.  This crate machine-
//! checks them with a hand-rolled lossless lexer (no external parser
//! dependencies) and a small token-pattern rule engine, plus one
//! workspace-level rule that keeps the public surface to what other crates
//! use.
//!
//! See the README "Static analysis" section for the rule catalogue and the
//! `detlint::allow` suppression syntax.

pub mod config;
mod context;
mod lexer;
pub mod report;
pub mod rules;
mod surface;
mod walk;

pub use config::{Config, EXPECTED_WORKSPACE_ALLOWS};
pub use report::Report;
pub use rules::{count_allow_comments, lint_workspace, Violation};
pub use walk::{read_sources, workspace_root};
