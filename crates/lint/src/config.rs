//! Which rules apply where.
//!
//! Paths are workspace-relative fragments matched with `contains` after
//! normalising to forward slashes, so the lists stay robust against being
//! invoked from a sub-directory or another platform.

/// Scope configuration for the rule engine.
#[derive(Clone, Debug)]
pub struct Config {
    /// R2 `panic-in-guarded`: modules on the guarded hot path / resilience
    /// contract — the krylov drivers and apply path, the gnn plan/gemm
    /// engine, the ddm-gnn preconditioner and the Schwarz/coarse apply paths
    /// a `DegradationLadder` supervises.
    pub guarded_modules: Vec<String>,
    /// R3 `nondet-clock`: modules allowed to read wall clocks — the bench
    /// harness, the criterion shim (whose job is timing), the resilience
    /// time-budget layer and the solver-driver modules whose job is
    /// reporting setup/solve wall times.
    pub clock_allowed: Vec<String>,
    /// R4 `nondet-iteration` + R5 `float-reduce`: the deterministic solver
    /// pipeline — everything whose results feed the bit-reproducible
    /// residual-history contract.
    pub deterministic_modules: Vec<String>,
    /// Directory fragments excluded from the walk entirely (build output;
    /// the vendored shims are scanned by default since PR 10 — see
    /// [`Config::exclude_shims`]).
    pub excluded_dirs: Vec<String>,
}

/// Committed number of `detlint::allow` suppressions across the workspace.
///
/// `--self-check` re-counts and fails on mismatch, so a new suppression
/// cannot land without a reviewed bump of this constant.
///
/// History: 16 when the scan excluded `shims/`; 18 once the shims entered
/// the scan scope (two reviewed `mutex-poison` allows on the worker pool's
/// batch latch, where propagating a poison panic beats waiting forever on
/// corrupted completion accounting); 16 when the f64 inference engine's
/// unbatched and batched cores became one forward body (one pair of
/// timing-telemetry clock reads instead of two); 8 when that body became
/// generic over the scalar type and the f32 and int8 plans' four cores, each
/// with a pair of its own, were deleted; 19 with `unreferenced-pub`: eleven
/// `pub` items that only other crates' tests name — reference
/// implementations, shared fixtures and test hooks — stay public.
pub const EXPECTED_WORKSPACE_ALLOWS: usize = 19;

impl Default for Config {
    fn default() -> Self {
        let s = |v: &[&str]| v.iter().map(|p| p.to_string()).collect();
        Config {
            guarded_modules: s(&[
                "crates/krylov/src/preconditioner.rs",
                "crates/krylov/src/resilience.rs",
                "crates/krylov/src/cg.rs",
                "crates/krylov/src/pcg.rs",
                "crates/krylov/src/history.rs",
                "crates/gnn/src/plan.rs",
                "crates/gnn/src/gemm.rs",
                // The Schwarz shell and its two local solves (Cholesky, DSS).
                "crates/ddm/src/asm.rs",
                "crates/ddm/src/local.rs",
                "crates/ddm-gnn/src/preconditioner.rs",
                "crates/ddm/src/multilevel.rs",
                // The sanitizer must never panic out of an instrumented lock
                // path: a detsan-only abort would make failures observable
                // only in sanitizer runs.
                "crates/sanitizer/src/",
            ]),
            clock_allowed: s(&[
                "crates/bench/",
                // The stand-alone benchmark crate times the library from
                // outside, like `crates/bench/`.
                "benchmark/",
                "crates/krylov/src/resilience.rs",
                "crates/ddm-gnn/src/solver.rs",
                // The criterion stand-in's whole job is measuring wall time.
                "shims/criterion/",
            ]),
            deterministic_modules: s(&[
                "crates/sparse/src/",
                "crates/krylov/src/",
                "crates/ddm/src/",
                "crates/ddm-gnn/src/",
                "crates/gnn/src/",
                "crates/partition/src/",
                "crates/meshgen/src/",
                "crates/fem/src/",
                // The pool shim is the most determinism-critical code in the
                // tree: every parallel reduction's chunk order lives here.
                "shims/rayon/src/",
            ]),
            excluded_dirs: s(&["target/", ".git/"]),
        }
    }
}

impl Config {
    fn matches(list: &[String], rel_path: &str) -> bool {
        let p = rel_path.replace('\\', "/");
        list.iter().any(|frag| p.contains(frag.as_str()) || p.starts_with(frag.as_str()))
    }

    /// Whether R2 applies to this file.
    pub(crate) fn is_guarded(&self, rel_path: &str) -> bool {
        Self::matches(&self.guarded_modules, rel_path)
    }

    /// Whether R3 exempts this file.
    pub(crate) fn clock_is_allowed(&self, rel_path: &str) -> bool {
        Self::matches(&self.clock_allowed, rel_path)
    }

    /// Whether R4/R5 apply to this file.
    pub(crate) fn is_deterministic(&self, rel_path: &str) -> bool {
        Self::matches(&self.deterministic_modules, rel_path)
    }

    /// Whether the walk should skip this path entirely.
    pub(crate) fn is_excluded(&self, rel_path: &str) -> bool {
        Self::matches(&self.excluded_dirs, rel_path)
    }

    /// Restore the pre-PR-10 scan scope: vendored shims excluded.  The CLI
    /// exposes this as `--exclude-shims` (`--include-shims` is the
    /// default).
    pub fn exclude_shims(&mut self) {
        self.excluded_dirs.push("shims/".to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scope lists shrink with the code: every fragment still names a
    /// path of the workspace.
    #[test]
    fn every_scope_fragment_names_an_existing_path() {
        let root = crate::workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root");
        let cfg = Config::default();
        for list in [&cfg.guarded_modules, &cfg.clock_allowed, &cfg.deterministic_modules] {
            for fragment in list {
                assert!(root.join(fragment).exists(), "`{fragment}` names no workspace path");
            }
        }
    }
}
