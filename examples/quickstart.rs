//! Quickstart: solve one Poisson problem with the DDM-GNN hybrid solver.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! The example walks through the whole public API:
//! 1. generate a random 2D domain, mesh it and assemble the Poisson system,
//! 2. load the pre-trained Deep Statistical Solver shipped in `assets/`,
//! 3. solve with the GNN-preconditioned Conjugate Gradient and compare with
//!    the exact-local-solver baseline (DDM-LU) and plain CG.

use std::sync::Arc;

use ddm_gnn::{
    build_preconditioner, generate_problem, load_pretrained, solve, HybridSolverConfig, Method,
};
use krylov::SolverOptions;
use partition::partition_mesh_with_overlap;

fn main() {
    // 1. A random global Poisson problem with ~2000 unknowns, cut into
    //    overlapping sub-domains of ~200 nodes.
    let problem = generate_problem(42, 2000);
    println!(
        "Problem: {} nodes, {} triangles, {} nonzeros",
        problem.num_unknowns(),
        problem.mesh.num_triangles(),
        problem.matrix.nnz()
    );
    let subdomains = partition_mesh_with_overlap(&problem.mesh, 200, 2, 0);

    // 2. The trained DSS model.
    let model = Arc::new(load_pretrained().expect("the shipped model in assets/"));
    println!(
        "DSS model: k̄ = {}, d = {}, {} weights",
        model.config().num_blocks,
        model.config().latent_dim,
        model.num_params()
    );

    // 3. Two-level DDM-GNN preconditioned CG against DDM-LU and plain CG.
    let opts = SolverOptions::with_tolerance(1e-6).max_iterations(10_000);
    let config = HybridSolverConfig::default();
    println!(
        "\n{:<10} {:>12} {:>12} {:>14} {:>14}",
        "method", "iterations", "time [s]", "precond [s]", "rel. residual"
    );
    for method in [Method::DdmGnn, Method::DdmLu, Method::Cg] {
        let precond = build_preconditioner(&problem, &subdomains, method, Some(&model), &config)
            .expect("preconditioner setup");
        let outcome = solve(&problem.matrix, &[&problem.rhs], precond.as_deref(), &opts);
        let rel = krylov::true_relative_residual(&problem.matrix, outcome.x(), &problem.rhs);
        println!(
            "{:<10} {:>12} {:>12.4} {:>14.4} {:>14.3e}",
            method.name(),
            outcome.stats().iterations,
            outcome.total_seconds,
            outcome.preconditioner_seconds,
            rel
        );
    }
}
