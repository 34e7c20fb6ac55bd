//! Quickstart: solve one Poisson problem with the DDM-GNN hybrid solver.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! The example walks through the whole public API:
//! 1. generate a random 2D domain, mesh it and assemble the Poisson system,
//! 2. load the pre-trained Deep Statistical Solver (or train a small one if
//!    the shipped model is missing),
//! 3. solve with the GNN-preconditioned Conjugate Gradient and compare with
//!    the exact-local-solver baseline (DDM-LU) and plain CG.

use ddm_gnn::{
    generate_problem, load_pretrained, solve, HybridSolver, HybridSolverConfig, Method,
    PipelineConfig,
};
use krylov::SolverOptions;

fn main() {
    // 1. A random global Poisson problem with ~2000 unknowns.
    let problem = generate_problem(42, 2000);
    println!(
        "Problem: {} nodes, {} triangles, {} nonzeros",
        problem.num_unknowns(),
        problem.mesh.num_triangles(),
        problem.matrix.nnz()
    );

    // 2. A trained DSS model: prefer the shipped weights, otherwise train a
    //    small model from scratch (takes a minute or two on a laptop).
    let model = load_pretrained().unwrap_or_else(|| {
        println!("no pre-trained model found — training a small one (this takes a while)...");
        ddm_gnn::train_model(&PipelineConfig::default()).model
    });
    println!(
        "DSS model: k̄ = {}, d = {}, {} weights",
        model.config().num_blocks,
        model.config().latent_dim,
        model.num_params()
    );

    // 3. The hybrid solver: two-level DDM-GNN preconditioned CG.
    let solver = HybridSolver::new(
        model,
        HybridSolverConfig {
            subdomain_size: 200,
            overlap: 2,
            tolerance: 1e-6,
            ..Default::default()
        },
    );
    let gnn = solver.solve(&problem).expect("DDM-GNN solve");
    let lu = solver.solve_with_exact_local_solver(&problem).expect("DDM-LU solve");
    let cg_opts = SolverOptions::with_tolerance(1e-6).max_iterations(10_000);
    let cg = solve(&problem.matrix, &[&problem.rhs], None, &cg_opts);

    println!("\n{:<10} {:>12} {:>12} {:>14}", "method", "iterations", "time [s]", "rel. residual");
    for (method, outcome) in [(Method::DdmGnn, &gnn), (Method::DdmLu, &lu), (Method::Cg, &cg)] {
        let rel = krylov::true_relative_residual(&problem.matrix, outcome.x(), &problem.rhs);
        println!(
            "{:<10} {:>12} {:>12.4} {:>14.3e}",
            method.name(),
            outcome.stats().iterations,
            outcome.total_seconds,
            rel
        );
    }
    println!("\nDDM-GNN spent {:.4}s inside the preconditioner.", gnn.preconditioner_seconds);
}
