//! Train a Deep Statistical Solver on locally extracted sub-domain problems
//! and verify that the resulting DDM-GNN preconditioner accelerates PCG.
//!
//! Run with:
//!
//! ```bash
//! cargo run --release --example train_dss
//! ```
//!
//! Environment variables scale the run up towards the paper's configuration:
//! `DSS_BLOCKS` (k̄), `DSS_LATENT` (d), `DSS_EPOCHS`, `DSS_SAMPLES` (per
//! sub-domain size), `DSS_SUBDOMAINS` (comma-separated local problem sizes —
//! mixing sizes makes one model generalise across decompositions) and
//! `DSS_MODEL_OUT` (path to save the trained model for reuse by the other
//! examples and the benchmark harness).

use std::path::PathBuf;
use std::sync::Arc;

use ddm_gnn::{build_preconditioner, generate_problem, solve, HybridSolverConfig, Method};
use krylov::SolverOptions;
use partition::partition_mesh_with_overlap;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn main() {
    let blocks = env_usize("DSS_BLOCKS", 10);
    let latent = env_usize("DSS_LATENT", 10);
    let epochs = env_usize("DSS_EPOCHS", 60);
    let samples = env_usize("DSS_SAMPLES", 150);
    let raw_sizes = std::env::var("DSS_SUBDOMAINS").unwrap_or_else(|_| "300".to_string());
    let subdomain_sizes: Vec<usize> = match raw_sizes
        .split(',')
        .map(|v| v.trim().parse::<usize>())
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(sizes) if !sizes.is_empty() && sizes.iter().all(|&s| s > 0) => sizes,
        _ => {
            eprintln!(
                "DSS_SUBDOMAINS must be a comma-separated list of positive sizes \
                 (e.g. 150,250,400), got {raw_sizes:?}"
            );
            std::process::exit(2);
        }
    };
    let subdomain = *subdomain_sizes.last().unwrap();

    println!("=== DDM-GNN: training a Deep Statistical Solver ===");
    println!("architecture: k̄ = {blocks}, d = {latent}; sub-domain sizes {subdomain_sizes:?}");

    let start = std::time::Instant::now();
    let trained =
        ddm_gnn::train_model_multi_size(blocks, latent, &subdomain_sizes, samples, epochs);
    let losses = &trained.report.train_losses;
    println!(
        "trained on {} samples in {:.1}s — {} weights; training loss {:.3e} → {:.3e}",
        trained.num_samples,
        start.elapsed().as_secs_f64(),
        trained.model.num_params(),
        losses.first().copied().unwrap_or(f64::NAN),
        losses.last().copied().unwrap_or(f64::NAN),
    );
    println!(
        "evaluation: residual = {:.4} ± {:.4}, relative error = {:.3} ± {:.3}",
        trained.metrics.residual_mean,
        trained.metrics.residual_std,
        trained.metrics.relative_error_mean,
        trained.metrics.relative_error_std
    );

    // Verify the preconditioner on a fresh, unseen global problem.
    let problem = generate_problem(99, subdomain * 5);
    let subdomains = partition_mesh_with_overlap(&problem.mesh, subdomain, 2, 0);
    println!(
        "\nvalidation problem: N = {}, K = {} sub-domains",
        problem.num_unknowns(),
        subdomains.len()
    );
    let opts = SolverOptions::with_tolerance(1e-6).max_iterations(3000);
    let model = Arc::new(trained.model.clone());
    let config = HybridSolverConfig::default();
    let run = |method| {
        let precond = build_preconditioner(&problem, &subdomains, method, Some(&model), &config)
            .expect("preconditioner setup");
        solve(&problem.matrix, &[&problem.rhs], precond.as_deref(), &opts)
    };
    let [cg, lu, gnn] = [Method::Cg, Method::DdmLu, Method::DdmGnn].map(run);
    println!("  CG      : {:>4} iterations, {:.3}s", cg.stats().iterations, cg.total_seconds);
    println!(
        "  DDM-LU  : {:>4} iterations, {:.3}s (T_lu  = {:.3}s)",
        lu.stats().iterations,
        lu.total_seconds,
        lu.preconditioner_seconds
    );
    println!(
        "  DDM-GNN : {:>4} iterations, {:.3}s (T_gnn = {:.3}s)",
        gnn.stats().iterations,
        gnn.total_seconds,
        gnn.preconditioner_seconds
    );

    if let Ok(path) = std::env::var("DSS_MODEL_OUT") {
        let path = PathBuf::from(path);
        gnn::io::save_model(&path, &trained.model).expect("saving the model");
        println!("\nmodel saved to {}", path.display());
    }
}
