//! The depth of the default model as an executable contract.
//!
//! `load_pretrained()` runs the first `PRETRAINED_DEPTH` blocks of the
//! shipped 16-block file.  The rule that picked that depth (the depth sweep,
//! `reproduce depth`): the smallest depth whose PCG iteration count is ≤ the
//! 16-block count on every multi-level problem and ≤ 1.1× it on every
//! two-level one.  Iteration counts are deterministic, so the rule is
//! asserted here on the sweep's 3k and 12k problems — counted, not timed.

use std::path::Path;
use std::sync::Arc;

use ddm_gnn::{
    build_preconditioner, generate_problem, load_pretrained, solve, AsmLevel, HybridSolverConfig,
    Method, MultilevelConfig, PRETRAINED_DEPTH,
};
use gnn::DssModel;
use krylov::SolverOptions;
use partition::partition_mesh_with_overlap;

/// `(problem seed, target nodes, multi-level)` — the sweep's problems of at
/// most 12k nodes.
const PROBLEMS: [(u64, usize, bool); 5] =
    [(1, 3_000, true), (2, 3_000, true), (4, 12_000, true), (1, 3_000, false), (4, 12_000, false)];

/// DDM-GNN PCG iterations of `model` on every problem of [`PROBLEMS`].
fn iterations(model: DssModel) -> Vec<usize> {
    let model = Arc::new(model);
    PROBLEMS
        .iter()
        .map(|&(seed, target, multilevel)| {
            let problem = generate_problem(seed, target);
            let subdomains = partition_mesh_with_overlap(&problem.mesh, 300, 2, 0);
            let level = if multilevel {
                AsmLevel::Multilevel(MultilevelConfig::default())
            } else {
                AsmLevel::TwoLevel
            };
            let config = HybridSolverConfig { level, ..Default::default() };
            let precond =
                build_preconditioner(&problem, &subdomains, Method::DdmGnn, Some(&model), &config)
                    .expect("DDM-GNN setup");
            let opts = SolverOptions::with_tolerance(1e-6).max_iterations(4000);
            let outcome = solve(&problem.matrix, &[&problem.rhs], precond.as_deref(), &opts);
            assert!(outcome.stats().converged(), "problem ({seed}, {target}) did not converge");
            outcome.stats().iterations
        })
        .collect()
}

/// Whether `counts` keeps the rule against the 16-block `full` counts.
fn meets_rule(counts: &[usize], full: &[usize]) -> bool {
    PROBLEMS.iter().zip(counts).zip(full).all(|((&(_, _, multilevel), &its), &full)| {
        if multilevel {
            its <= full
        } else {
            10 * its <= 11 * full
        }
    })
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "heavy end-to-end test: opt in with `cargo test --release -- --include-ignored`"
)]
fn pretrained_depth_is_the_smallest_that_keeps_the_iteration_counts() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../assets/pretrained_k16_d10.dss");
    let anchor = gnn::io::load_model(Path::new(path)).expect("the shipped model in assets/");
    let default = load_pretrained().expect("the shipped model in assets/");
    assert_eq!(default.config().num_blocks, PRETRAINED_DEPTH);

    let full = iterations(anchor.clone());
    let chosen = iterations(default);
    assert!(meets_rule(&chosen, &full), "depth {PRETRAINED_DEPTH}: {chosen:?} vs 16: {full:?}");
    let mut shallower = anchor;
    shallower.truncate(PRETRAINED_DEPTH - 1);
    let shallower = iterations(shallower);
    assert!(
        !meets_rule(&shallower, &full),
        "depth {} keeps the rule too: {shallower:?} vs 16: {full:?}",
        PRETRAINED_DEPTH - 1
    );
}
