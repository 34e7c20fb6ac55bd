//! Pressure-projection scenario: a sequence of Poisson solves with evolving
//! right-hand sides, as they appear in incompressible CFD fractional-step
//! methods (the motivating application of the paper's introduction).
//!
//! ```bash
//! cargo run --release --example pressure_projection
//! ```
//!
//! A projection method solves one pressure Poisson problem per time step; the
//! operator is fixed while the right-hand side (the divergence of the
//! predicted velocity) changes every step.  This is the best case for the
//! DDM-GNN preconditioner: the sub-domain graphs, the coarse factorisation
//! and the trained model are all reused across steps, only inference runs
//! per step.

use std::sync::Arc;

use ddm_gnn::{load_pretrained, DdmGnnPreconditioner, Precision};
use fem::{PoissonProblem, SourceTerm};
use krylov::{preconditioned_conjugate_gradient, SolverOptions};
use meshgen::{generate_mesh, MeshingOptions, RandomBlobDomain};
use partition::partition_mesh_with_overlap;

fn main() {
    // Mesh and operator are built once, like the pressure system of a CFD code.
    let domain = RandomBlobDomain::generate(7, 20, 1.2);
    let h = meshgen::generator::element_size_for_target_nodes(&domain, 3000);
    let mesh = generate_mesh(&domain, &MeshingOptions::with_element_size(h).seed(7));
    println!("pressure mesh: {} nodes", mesh.num_nodes());

    // Assemble once with zero data to fix the operator; per-step right-hand
    // sides are assembled below from time-varying "divergence" fields.
    let n = mesh.num_nodes();
    let base = PoissonProblem::from_samples(mesh.clone(), &vec![0.0; n], &vec![0.0; n]);

    let model = load_pretrained().expect("the shipped model in assets/");
    let subdomains = partition_mesh_with_overlap(&base.mesh, 200, 2, 0);
    println!("decomposition: {} sub-domains of ~200 nodes", subdomains.len());

    // The preconditioner is set up once and reused for every time step.
    let precond = DdmGnnPreconditioner::with_precision(
        &base,
        subdomains,
        Arc::new(model),
        true,
        Precision::F64,
    )
    .expect("setup");
    let opts = SolverOptions::with_tolerance(1e-6).max_iterations(2000);

    let num_steps = 8;
    println!("\n{:<6} {:>12} {:>14} {:>12}", "step", "iterations", "rel. residual", "time [s]");
    let mut previous_solution = vec![0.0; n];
    let mut total_iterations = 0;
    for step in 0..num_steps {
        // A synthetic divergence field that evolves smoothly in time, plus the
        // boundary data of the pressure problem.
        let source = SourceTerm::sample(1000 + step as u64, 1.0 + 0.1 * step as f64);
        let f = source.forcing_values(&base.mesh);
        let g = source.boundary_values(&base.mesh);
        let problem = PoissonProblem::from_samples(base.mesh.clone(), &f, &g);

        let start = std::time::Instant::now();
        // Warm start from the previous step's pressure, as CFD codes do.
        let result = preconditioned_conjugate_gradient(
            &problem.matrix,
            &problem.rhs,
            Some(&previous_solution),
            &precond,
            &opts,
        );
        let elapsed = start.elapsed().as_secs_f64();
        let rel = krylov::true_relative_residual(&problem.matrix, &result.x, &problem.rhs);
        println!("{:<6} {:>12} {:>14.3e} {:>12.4}", step, result.stats.iterations, rel, elapsed);
        total_iterations += result.stats.iterations;
        previous_solution = result.x;
    }
    println!(
        "\n{} pressure solves completed, {:.1} PCG iterations per step on average.",
        num_steps,
        total_iterations as f64 / num_steps as f64
    );
}
