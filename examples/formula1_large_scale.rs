//! Out-of-distribution, large-scale experiment on the "Formula-1" domain with
//! holes (the paper's Fig. 5 scenario).
//!
//! ```bash
//! cargo run --release --example formula1_large_scale
//! # scale up towards the paper's 233k-node mesh:
//! F1_TARGET_NODES=200000 cargo run --release --example formula1_large_scale
//! ```
//!
//! The domain (a caricatural F1 car with a cockpit opening and wing stripes)
//! is unlike anything in the training distribution, and the mesh is much
//! larger than the training sub-domains.  The hybrid solver must still
//! converge to a tolerance far below anything seen during training (1e-9).

use std::sync::Arc;

use ddm_gnn::{build_tiers, load_pretrained, solve, HybridSolverConfig, Method, PipelineConfig};
use fem::PoissonProblem;
use krylov::SolverOptions;
use meshgen::{generate_mesh, FormulaOneDomain, MeshingOptions};
use partition::partition_mesh_with_overlap;

fn main() {
    let target_nodes: usize =
        std::env::var("F1_TARGET_NODES").ok().and_then(|v| v.parse().ok()).unwrap_or(12_000);

    let domain = FormulaOneDomain::new(1.0);
    let h = meshgen::generator::element_size_for_target_nodes(&domain, target_nodes);
    let mesh = generate_mesh(&domain, &MeshingOptions::with_element_size(h).seed(1));
    println!(
        "Formula-1 mesh: {} nodes, {} triangles, {} boundary nodes (outer boundary + holes), area {:.3}",
        mesh.num_nodes(),
        mesh.num_triangles(),
        mesh.num_boundary_nodes(),
        mesh.area()
    );

    let problem = PoissonProblem::with_random_data(mesh, 5);
    let subdomains = partition_mesh_with_overlap(&problem.mesh, 200, 2, 0);
    println!("decomposition into {} sub-domains of ~200 nodes", subdomains.len());

    let model = Arc::new(load_pretrained().unwrap_or_else(|| {
        println!("no pre-trained model found — training a small one...");
        ddm_gnn::train_model(&PipelineConfig::default()).model
    }));

    // The paper drives this experiment to a relative residual of 1e-9 —
    // far below the training regime of the GNN.
    let opts = SolverOptions::with_tolerance(1e-9).max_iterations(20_000);
    let config = HybridSolverConfig::default();
    let run = |method| {
        let tiers = build_tiers(&problem, &subdomains, method, Some(&model), &config)
            .expect("preconditioner setup");
        solve(&problem.matrix, &[&problem.rhs], tiers.first().map(|t| t.as_ref()), &opts)
    };
    let methods = [Method::DdmGnn, Method::DdmLu, Method::Cg];
    let [gnn, lu, cg] = methods.map(run);

    println!("\n{:<10} {:>12} {:>12}", "method", "iterations", "time [s]");
    for (method, outcome) in methods.iter().zip([&gnn, &lu, &cg]) {
        println!(
            "{:<10} {:>12} {:>12.3}",
            method.name(),
            outcome.stats().iterations,
            outcome.total_seconds
        );
    }

    // Convergence traces (relative residual per iteration), the data of Fig. 5b.
    println!("\nrelative residual every 5 iterations (DDM-GNN / DDM-LU / CG):");
    let traces = [&gnn, &lu, &cg].map(|outcome| outcome.stats().history.relative());
    let longest = traces.iter().map(|t| t.len()).max().unwrap_or(0);
    for i in (0..longest).step_by(5) {
        let cell = |t: &Vec<f64>| {
            t.get(i).map(|v| format!("{v:>10.2e}")).unwrap_or_else(|| format!("{:>10}", "-"))
        };
        println!("iter {:>5}: {} {} {}", i, cell(&traces[0]), cell(&traces[1]), cell(&traces[2]));
    }
}
