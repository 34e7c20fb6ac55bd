//! Table III — benchmark against "legacy" optimised preconditioners.
//!
//! For a sweep of problem sizes `N` and sub-domain counts `K`, solve to a
//! relative residual of 1e-3 with IC(0)-PCG, PCG-DDM-LU and PCG-DDM-GNN, and
//! report the iteration counts, the total solve time `T`, and the time spent
//! inside the preconditioner (`T_lu`, `T_gnn`) — the columns of the paper's
//! Table III.
//!
//! Environment variables:
//! * `T3_SIZES`    — comma-separated problem sizes, default `5000,10000,20000,40000`
//!                   (paper: 10 571 … 609 740)
//! * `T3_SUBSIZES` — comma-separated sub-domain sizes, default `100,200,400`
//!                   (paper: 500, 1000, 2000)

use std::sync::Arc;

use bench::{load_or_train_model, run_method, write_csv};
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
    let sizes = env_list("T3_SIZES", &[5_000, 10_000, 20_000, 40_000]);
    let subsizes = env_list("T3_SUBSIZES", &[100, 200, 400]);
    let model = Arc::new(load_or_train_model());
    let opts = SolverOptions::with_tolerance(1e-3).max_iterations(50_000);

    println!("\nTABLE III — benchmark against legacy preconditioners (tolerance 1e-3)");
    println!(
        "{:>8} {:>6} | {:>6} {:>9} | {:>6} {:>9} {:>9} | {:>6} {:>9} {:>9}",
        "N", "K", "Nit", "T_ic0", "Nit", "T_lu_tot", "T_lu", "Nit", "T_gnn_tot", "T_gnn"
    );
    let mut csv_rows = Vec::new();

    for &target_n in &sizes {
        let problem = generate_problem(3000 + target_n as u64, target_n);
        let n = problem.num_unknowns();
        let ic0 = run_method(&problem, &[], Method::Ic0, &model, &opts);
        for &ns in &subsizes {
            let subdomains = partition_mesh_with_overlap(&problem.mesh, ns, 2, 0);
            let k = subdomains.len();
            let lu = run_method(&problem, &subdomains, Method::DdmLu, &model, &opts);
            let gnn = run_method(&problem, &subdomains, Method::DdmGnn, &model, &opts);
            println!(
                "{:>8} {:>6} | {:>6} {:>9.4} | {:>6} {:>9.4} {:>9.4} | {:>6} {:>9.4} {:>9.4}",
                n,
                k,
                ic0.stats().iterations,
                ic0.total_seconds,
                lu.stats().iterations,
                lu.total_seconds,
                lu.preconditioner_seconds,
                gnn.stats().iterations,
                gnn.total_seconds,
                gnn.preconditioner_seconds
            );
            csv_rows.push(format!(
                "{n},{k},{},{:.5},{},{:.5},{:.5},{},{:.5},{:.5}",
                ic0.stats().iterations,
                ic0.total_seconds,
                lu.stats().iterations,
                lu.total_seconds,
                lu.preconditioner_seconds,
                gnn.stats().iterations,
                gnn.total_seconds,
                gnn.preconditioner_seconds
            ));
        }
    }

    write_csv(
        "table3_legacy_benchmark.csv",
        "N,K,ic0_iters,ic0_total_s,ddm_lu_iters,ddm_lu_total_s,ddm_lu_precond_s,ddm_gnn_iters,ddm_gnn_total_s,ddm_gnn_precond_s",
        &csv_rows,
    );
}
