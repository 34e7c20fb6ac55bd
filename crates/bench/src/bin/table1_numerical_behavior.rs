//! Table I — Numerical behaviour of the hybrid solver.
//!
//! For several global problem sizes `N`, sub-domain sizes `Ns` and overlaps,
//! solve random Poisson problems to a relative residual of 1e-6 with
//! PCG-DDM-GNN, PCG-DDM-LU and plain CG, and report the mean ± std iteration
//! counts — the exact structure of the paper's Table I.
//!
//! Environment variables (defaults are CPU-sized; paper-sized values in
//! parentheses):
//! * `T1_PROBLEMS`   — problems per configuration, default 3 (paper: 100)
//! * `T1_SIZES`      — comma-separated global sizes, default `800,2000,6000`
//!                     (paper: 2632, 7148, 33969)
//! * `T1_SUBSIZES`   — comma-separated sub-domain sizes, default `100,200,400`
//!                     (paper: 500, 1000, 2000)

use std::sync::Arc;

use bench::{env_usize, load_or_train_model, mean_std, pm, run_method, write_csv};
use ddm_gnn::{generate_problem, Method};
use krylov::SolverOptions;
use partition::partition_mesh_with_overlap;

fn env_list(name: &str, default: &[usize]) -> Vec<usize> {
    std::env::var(name)
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

fn main() {
    let num_problems = env_usize("T1_PROBLEMS", 3);
    let sizes = env_list("T1_SIZES", &[800, 2000, 6000]);
    let subsizes = env_list("T1_SUBSIZES", &[100, 200, 400]);
    let base_subsize = subsizes[subsizes.len() / 2];
    let model = Arc::new(load_or_train_model());
    let opts = SolverOptions::with_tolerance(1e-6).max_iterations(20_000);

    println!("\nTABLE I — Numerical behaviour (iterations to relative residual 1e-6)");
    println!(
        "{:>8} {:>6} {:>5} {:>8} | {:>12} {:>12} {:>12}",
        "N", "Ns", "K", "overlap", "DDM-GNN", "DDM-LU", "CG"
    );
    let mut csv_rows = Vec::new();

    for &target_n in &sizes {
        // Configurations mirror the paper: every sub-domain size at overlap 2,
        // plus the baseline sub-domain size at overlap 4.
        let mut configs: Vec<(usize, usize)> = subsizes.iter().map(|&ns| (ns, 2)).collect();
        configs.insert(1.min(configs.len()), (base_subsize, 4));

        for (ns, overlap) in configs {
            let mut iters_gnn = Vec::new();
            let mut iters_lu = Vec::new();
            let mut iters_cg = Vec::new();
            let mut ks = Vec::new();
            let mut actual_n = Vec::new();
            for p in 0..num_problems {
                let seed = 1000 + p as u64 + target_n as u64;
                let problem = generate_problem(seed, target_n);
                actual_n.push(problem.num_unknowns() as f64);
                let subdomains = partition_mesh_with_overlap(&problem.mesh, ns, overlap, seed);
                ks.push(subdomains.len() as f64);
                let [gnn, lu, cg] = [Method::DdmGnn, Method::DdmLu, Method::Cg]
                    .map(|method| run_method(&problem, &subdomains, method, &model, &opts));
                for (iters, outcome) in
                    [(&mut iters_gnn, gnn), (&mut iters_lu, lu), (&mut iters_cg, cg)]
                {
                    assert!(outcome.stats().converged());
                    iters.push(outcome.stats().iterations as f64);
                }
            }
            let (ng, sg) = mean_std(&iters_gnn);
            let (nl, sl) = mean_std(&iters_lu);
            let (nc, sc) = mean_std(&iters_cg);
            let (nm, _) = mean_std(&actual_n);
            let (km, _) = mean_std(&ks);
            println!(
                "{:>8.0} {:>6} {:>5.0} {:>8} | {:>12} {:>12} {:>12}",
                nm,
                ns,
                km,
                overlap,
                pm(ng, sg),
                pm(nl, sl),
                pm(nc, sc)
            );
            csv_rows.push(format!(
                "{nm:.0},{ns},{km:.0},{overlap},{ng:.1},{sg:.1},{nl:.1},{sl:.1},{nc:.1},{sc:.1}"
            ));
        }
    }

    write_csv(
        "table1_numerical_behavior.csv",
        "N,Ns,K,overlap,ddm_gnn_mean,ddm_gnn_std,ddm_lu_mean,ddm_lu_std,cg_mean,cg_std",
        &csv_rows,
    );
}
