//! The depths of the default model as executable contracts.
//!
//! `load_pretrained()` runs the first `PRETRAINED_DEPTH` blocks of the
//! shipped 16-block file under one- and two-level coarse components, and the
//! first `MULTILEVEL_DEPTH` of them under the multi-level V-cycle.  The depth
//! sweep (`reproduce depth`) picked both, each by a rule fixed before
//! measuring:
//!
//! * `PRETRAINED_DEPTH`: the smallest depth whose PCG iteration count is ≤
//!   1.1× the 16-block count on every two-level problem — the only coarse
//!   kind that runs that many blocks.  Asserted on the anchor cut to that
//!   depth and to every shallower one (the sweep is not monotone in depth,
//!   so "smallest" needs them all), which run every block under every
//!   coarse kind.
//! * `MULTILEVEL_DEPTH`: among the depths whose iteration count is ≤ 1.3×
//!   the 16-block count on every multi-level problem, the one with the
//!   lowest summed setup + solve time on one thread, under the V-cycle of
//!   [`AsmLevel::Multilevel`].  The timing half is the sweep's; the counted
//!   half is asserted here for `load_pretrained()`.
//!
//! Iteration counts are deterministic, so both are asserted on the sweep's
//! problems of at most 12k nodes — counted, not timed.

use std::path::Path;
use std::sync::Arc;

use ddm_gnn::{
    build_preconditioner, generate_problem, load_pretrained, solve, AsmLevel, DdmGnnPreconditioner,
    HybridSolverConfig, Method, MultilevelConfig, Precision, MULTILEVEL_DEPTH, PRETRAINED_DEPTH,
};
use gnn::DssModel;
use krylov::{Preconditioner, SolverOptions};
use partition::partition_mesh_with_overlap;

/// `(problem seed, target nodes)` of the sweep's multi-level problems of at
/// most 12k nodes.
const MULTILEVEL_PROBLEMS: [(u64, usize); 3] = [(1, 3_000), (2, 3_000), (4, 12_000)];

/// `(problem seed, target nodes)` of the sweep's two-level problems.
const TWO_LEVEL_PROBLEMS: [(u64, usize); 2] = [(1, 3_000), (4, 12_000)];

/// The shipped 16-block file, loaded whole.
fn anchor() -> DssModel {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../assets/pretrained_k16_d10.dss");
    gnn::io::load_model(Path::new(path)).expect("the shipped model in assets/")
}

/// The anchor cut to its first `depth` blocks.
fn cut(depth: usize) -> DssModel {
    let mut model = anchor();
    model.truncate(depth);
    model
}

/// DDM-GNN PCG iterations of `model` at `level` on every one of `problems`.
fn iterations(model: DssModel, level: AsmLevel, problems: &[(u64, usize)]) -> Vec<usize> {
    let model = Arc::new(model);
    problems
        .iter()
        .map(|&(seed, target)| {
            let problem = generate_problem(seed, target);
            let subdomains = partition_mesh_with_overlap(&problem.mesh, 300, 2, 0);
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

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "heavy end-to-end test: opt in with `cargo test --release -- --include-ignored`"
)]
fn pretrained_depth_is_the_smallest_that_keeps_the_iteration_counts() {
    let default = load_pretrained().expect("the shipped model in assets/");
    assert_eq!(default.config().num_blocks, PRETRAINED_DEPTH);

    let two_level = |model| iterations(model, AsmLevel::TwoLevel, &TWO_LEVEL_PROBLEMS);
    let full = two_level(anchor());
    let meets_rule =
        |counts: &[usize]| counts.iter().zip(&full).all(|(&its, &f)| 10 * its <= 11 * f);
    let chosen = two_level(cut(PRETRAINED_DEPTH));
    assert!(meets_rule(&chosen), "depth {PRETRAINED_DEPTH}: {chosen:?} vs 16: {full:?}");
    for depth in 1..PRETRAINED_DEPTH {
        let shallower = two_level(cut(depth));
        assert!(
            !meets_rule(&shallower),
            "depth {depth} keeps the rule too: {shallower:?} vs 16: {full:?}"
        );
    }
}

/// The counted half of the `MULTILEVEL_DEPTH` rule for the default model:
/// under the V-cycle it runs `MULTILEVEL_DEPTH` blocks, and its iterations
/// stay ≤ 1.3× the anchor's on every multi-level problem.  One block takes
/// 7 / 7 / 7 iterations against the anchor's 8 / 7 / 8.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "heavy end-to-end test: opt in with `cargo test --release -- --include-ignored`"
)]
fn default_model_runs_the_multilevel_depth_within_1_3x_of_the_anchor() {
    let default = load_pretrained().expect("the shipped model in assets/");
    assert_eq!(default.multilevel_depth(), MULTILEVEL_DEPTH);
    let problem = generate_problem(1, 3_000);
    let subdomains = partition_mesh_with_overlap(&problem.mesh, 300, 2, 0);
    let v_cycle_bits = |model: DssModel| {
        let v_cycle = DdmGnnPreconditioner::with_multilevel_coarse(
            &problem,
            subdomains.clone(),
            Arc::new(model),
            &MultilevelConfig::default(),
            Precision::F64,
        )
        .expect("DDM-GNN setup");
        let mut z = vec![0.0; v_cycle.dim()];
        v_cycle.apply(&problem.rhs, &mut z);
        z.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    };
    // Under the V-cycle the default model has the bits of the plain anchor
    // cut to its first `MULTILEVEL_DEPTH` blocks.
    assert_eq!(v_cycle_bits(default.clone()), v_cycle_bits(cut(MULTILEVEL_DEPTH)));

    let multilevel = AsmLevel::Multilevel(MultilevelConfig::default());
    let counts = iterations(default, multilevel, &MULTILEVEL_PROBLEMS);
    let full = iterations(anchor(), multilevel, &MULTILEVEL_PROBLEMS);
    assert!(
        counts.iter().zip(&full).all(|(&its, &full)| 10 * its <= 13 * full),
        "depth {MULTILEVEL_DEPTH}: {counts:?} vs 16: {full:?}"
    );
}
