//! Fig. 6 — impact of the DSS hyper-parameters (k̄, d) on performance.
//!
//! For each architecture in the grid: train a model, then solve Poisson
//! problems with the corresponding DDM-GNN preconditioner and report
//! (a) the time spent applying the preconditioner (the inference time of
//! Fig. 6a) and (b) the total resolution time, both alongside the iteration
//! count at convergence (Fig. 6b).
//!
//! Environment variables:
//! * `F6_EPOCHS`       — training epochs per architecture, default 20
//! * `F6_SAMPLES`      — dataset cap, default 120
//! * `F6_TARGET_NODES` — size of the evaluation problems, default 3000
//!                       (paper: 10 000)
//! * `F6_PROBLEMS`     — number of evaluation problems, default 2 (paper: 100)
//! * `F6_FULL=1`       — full paper grid of architectures

use std::sync::Arc;

use bench::{env_usize, mean_std, run_method, write_csv};
use ddm_gnn::{generate_problem, Method};
use gnn::{
    extract_local_problems, train, AdamConfig, DatasetConfig, DssConfig, DssModel, TrainingConfig,
};
use krylov::SolverOptions;
use partition::partition_mesh_with_overlap;

fn main() {
    let epochs = env_usize("F6_EPOCHS", 20);
    let samples_cap = env_usize("F6_SAMPLES", 120);
    let target_nodes = env_usize("F6_TARGET_NODES", 3000);
    let num_problems = env_usize("F6_PROBLEMS", 2);
    let subsize = 200;
    let full_grid = std::env::var("F6_FULL").map(|v| v == "1").unwrap_or(false);

    let grid: Vec<(usize, usize)> = if full_grid {
        vec![
            (5, 5),
            (5, 10),
            (5, 20),
            (10, 5),
            (10, 10),
            (10, 20),
            (20, 5),
            (20, 10),
            (20, 20),
            (30, 10),
        ]
    } else {
        vec![(5, 5), (5, 10), (10, 5), (10, 10), (16, 10)]
    };

    println!("extracting shared training dataset...");
    let samples = extract_local_problems(&DatasetConfig {
        num_global_problems: 3,
        target_nodes: subsize * 4,
        subdomain_size: subsize,
        overlap: 2,
        max_iterations_per_problem: 12,
        max_samples: Some(samples_cap),
        seed: 1,
        ..Default::default()
    });

    println!(
        "\nFIG. 6 — performance vs architecture (evaluation problems of ~{target_nodes} nodes)"
    );
    println!(
        "{:>4} {:>4} | {:>10} {:>16} {:>14} {:>12}",
        "k̄", "d", "weights", "T_gnn/solve [s]", "total T [s]", "iterations"
    );
    let mut csv_rows = Vec::new();

    for (kbar, d) in grid {
        let mut model = DssModel::new(
            DssConfig { num_blocks: kbar, latent_dim: d, alpha: 1.0 / kbar as f64 },
            3,
        );
        let config = TrainingConfig {
            epochs,
            batch_size: 16,
            adam: AdamConfig { learning_rate: 5e-3, clip_norm: Some(1.0), ..Default::default() },
            validation_fraction: 0.15,
            seed: 2,
            ..Default::default()
        };
        train(&mut model, &samples, &config);
        let model = Arc::new(model);

        let mut inference_times = Vec::new();
        let mut total_times = Vec::new();
        let mut iterations = Vec::new();
        for p in 0..num_problems {
            let problem = generate_problem(500 + p as u64, target_nodes);
            let subdomains = partition_mesh_with_overlap(&problem.mesh, subsize, 2, 0);
            let opts = SolverOptions::with_tolerance(1e-6).max_iterations(20_000);
            let outcome = run_method(&problem, &subdomains, Method::DdmGnn, &model, &opts);
            inference_times.push(outcome.preconditioner_seconds);
            total_times.push(outcome.total_seconds);
            iterations.push(outcome.stats().iterations as f64);
        }
        let (ti, _) = mean_std(&inference_times);
        let (tt, _) = mean_std(&total_times);
        let (it, _) = mean_std(&iterations);
        println!(
            "{:>4} {:>4} | {:>10} {:>16.3} {:>14.3} {:>12.0}",
            kbar,
            d,
            model.num_params(),
            ti,
            tt,
            it
        );
        csv_rows.push(format!("{kbar},{d},{},{ti:.4},{tt:.4},{it:.1}", model.num_params()));
    }

    write_csv(
        "fig6_hyperparam_perf.csv",
        "kbar,d,num_weights,inference_seconds,total_seconds,iterations",
        &csv_rows,
    );
}
