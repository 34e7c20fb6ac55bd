//! The depths of the default model as executable contracts.
//!
//! `load_pretrained()` runs the first `PRETRAINED_DEPTH` blocks of the
//! shipped 16-block file under one- and two-level coarse components, and the
//! first `MULTILEVEL_DEPTH` of them under the multi-level V-cycle.  The depth
//! sweep (`reproduce depth`) picked both, each by a rule fixed before
//! measuring:
//!
//! * `PRETRAINED_DEPTH`: the smallest depth whose PCG iteration count is ≤
//!   the 16-block count on every multi-level problem and ≤ 1.1× it on every
//!   two-level one.  The rule was fixed on the paper's additive sum of the
//!   V-cycle and the local corrections, so its multi-level problems run
//!   [`AsmLevel::AdditiveMultilevel`].  Asserted on the anchor cut to that
//!   depth and one block less, which run every block under every coarse
//!   kind.
//! * `MULTILEVEL_DEPTH`: among the depths whose iteration count is ≤ 1.3×
//!   the 16-block count on every multi-level problem, the one with the
//!   lowest summed setup + solve time on one thread, under the shipped
//!   multiplicative [`AsmLevel::Multilevel`].  The timing half is the
//!   sweep's; the counted half is asserted here for `load_pretrained()`.
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

/// `(problem seed, target nodes, multi-level)` — the sweep's problems of at
/// most 12k nodes.
const PROBLEMS: [(u64, usize, bool); 5] =
    [(1, 3_000, true), (2, 3_000, true), (4, 12_000, true), (1, 3_000, false), (4, 12_000, false)];

/// The shipped 16-block file, loaded whole.
fn anchor() -> DssModel {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../assets/pretrained_k16_d10.dss");
    gnn::io::load_model(Path::new(path)).expect("the shipped model in assets/")
}

/// DDM-GNN PCG iterations of `model` on every problem of [`PROBLEMS`]
/// whose coarse kind `keep` accepts, the multi-level ones composed as
/// `multilevel` makes of the default V-cycle.
fn iterations(
    model: DssModel,
    multilevel: fn(MultilevelConfig) -> AsmLevel,
    keep: fn(bool) -> bool,
) -> Vec<usize> {
    let model = Arc::new(model);
    PROBLEMS
        .iter()
        .filter(|&&(_, _, is_multilevel)| keep(is_multilevel))
        .map(|&(seed, target, is_multilevel)| {
            let problem = generate_problem(seed, target);
            let subdomains = partition_mesh_with_overlap(&problem.mesh, 300, 2, 0);
            let level = if is_multilevel {
                multilevel(MultilevelConfig::default())
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

/// Whether `counts` keeps the `PRETRAINED_DEPTH` rule against the 16-block
/// `full` counts.
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
    let default = load_pretrained().expect("the shipped model in assets/");
    assert_eq!(default.config().num_blocks, PRETRAINED_DEPTH);

    let full = &iterations(anchor(), AsmLevel::AdditiveMultilevel, |_| true);
    let cut = |depth| {
        let mut model = anchor();
        model.truncate(depth);
        iterations(model, AsmLevel::AdditiveMultilevel, |_| true)
    };
    let chosen = cut(PRETRAINED_DEPTH);
    assert!(meets_rule(&chosen, full), "depth {PRETRAINED_DEPTH}: {chosen:?} vs 16: {full:?}");
    let shallower = cut(PRETRAINED_DEPTH - 1);
    assert!(
        !meets_rule(&shallower, full),
        "depth {} keeps the rule too: {shallower:?} vs 16: {full:?}",
        PRETRAINED_DEPTH - 1
    );
}

/// The counted half of the `MULTILEVEL_DEPTH` rule for the default model:
/// under the multiplicative V-cycle it runs `MULTILEVEL_DEPTH` blocks, and
/// its iterations stay ≤ 1.3× the anchor's on every multi-level problem.
/// One block takes 7 / 7 / 7 iterations against the anchor's 8 / 7 / 8.
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
    let mut plain = anchor();
    plain.truncate(MULTILEVEL_DEPTH);
    assert_eq!(v_cycle_bits(default.clone()), v_cycle_bits(plain));

    let counts = iterations(default, AsmLevel::Multilevel, |multilevel| multilevel);
    let full = iterations(anchor(), AsmLevel::Multilevel, |multilevel| multilevel);
    assert!(
        counts.iter().zip(&full).all(|(&its, &full)| 10 * its <= 13 * full),
        "depth {MULTILEVEL_DEPTH}: {counts:?} vs 16: {full:?}"
    );
}
