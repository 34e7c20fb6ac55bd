//! Fig. 5 — convergence on the large, out-of-distribution "Formula-1" mesh.
//!
//! Meshes the F1 silhouette with holes, partitions it into sub-domains of the
//! training size, and records the relative residual history of PCG-DDM-GNN,
//! PCG-DDM-LU and CG down to 1e-9 — the three curves of the paper's Fig. 5b.
//!
//! Environment variables:
//! * `F5_TARGET_NODES` — mesh size, default 12 000 (paper: 233 246)
//! * `F5_SUBSIZE`      — sub-domain size, default 200 (paper: ~1000)

use std::sync::Arc;

use bench::{env_usize, load_or_train_model, run_method, write_csv};
use ddm_gnn::Method;
use fem::PoissonProblem;
use krylov::SolverOptions;
use meshgen::{generate_mesh, FormulaOneDomain, MeshingOptions};
use partition::partition_mesh_with_overlap;

fn main() {
    let target_nodes = env_usize("F5_TARGET_NODES", 12_000);
    let subsize = env_usize("F5_SUBSIZE", 200);

    let domain = FormulaOneDomain::new(1.0);
    let h = meshgen::generator::element_size_for_target_nodes(&domain, target_nodes);
    let mesh = generate_mesh(&domain, &MeshingOptions::with_element_size(h).seed(1));
    println!(
        "Formula-1 mesh: {} nodes, {} triangles ({} boundary nodes)",
        mesh.num_nodes(),
        mesh.num_triangles(),
        mesh.num_boundary_nodes()
    );
    let problem = PoissonProblem::with_random_data(mesh, 5);
    let subdomains = partition_mesh_with_overlap(&problem.mesh, subsize, 2, 0);
    println!("partitioned into {} sub-domains (Fig. 5a)", subdomains.len());

    let model = Arc::new(load_or_train_model());
    let opts = SolverOptions::with_tolerance(1e-9).max_iterations(50_000);

    let methods = [Method::DdmGnn, Method::DdmLu, Method::Cg];
    let outcomes = methods.map(|method| run_method(&problem, &subdomains, method, &model, &opts));

    println!("\nFIG. 5b — iterations to relative residual 1e-9");
    for (method, outcome) in methods.iter().zip(&outcomes) {
        println!(
            "  {:<8} {:>7} iterations  ({:.2}s, converged: {})",
            method.name(),
            outcome.stats().iterations,
            outcome.total_seconds,
            outcome.stats().converged()
        );
    }

    // Residual histories as CSV (one row per iteration, empty cells once a
    // method has converged).
    let histories = outcomes.map(|outcome| outcome.stats().history.relative());
    let longest = histories.iter().map(|h| h.len()).max().unwrap_or(0);
    let mut rows = Vec::with_capacity(longest);
    for i in 0..longest {
        let cell = |h: &Vec<f64>| h.get(i).map(|v| format!("{v:e}")).unwrap_or_default();
        rows.push(format!(
            "{i},{},{},{}",
            cell(&histories[0]),
            cell(&histories[1]),
            cell(&histories[2])
        ));
    }
    write_csv("fig5_f1_convergence.csv", "iteration,ddm_gnn,ddm_lu,cg", &rows);
}
