//! Fig. 6 — impact of the DSS hyper-parameters (k̄, d) on performance.
//!
//! First, with no training, the depth sweep that picks
//! `ddm_gnn::PRETRAINED_DEPTH`: every block of the shipped `k̄ = 16` model is
//! trained on its own decoded residual, so each prefix `k̄ = 2 … 16` of it is
//! a trained solver, and depth is the inference cost.  Each prefix solves
//! eleven problems (each with its own right-hand side, sub-domains of 300,
//! overlap 2, partition seed 0, tolerance 1e-6):
//!
//! * multi-level f64 on `generate_problem` (1, 3k), (2, 3k), (4, 12k),
//!   (3, 24k), (7, 24k) and (6, 48k);
//! * two-level f64 and f32 on (1, 3k) and (4, 12k);
//! * multi-level f64 on the out-of-distribution Formula-1 mesh of Fig. 5 at
//!   12k (mesh seed 1, data seed 5, sub-domains of 200, tolerance 1e-9).
//!
//! The rule, fixed before measuring: the default depth is the smallest whose
//! iteration count is ≤ the 16-block count on every multi-level problem and
//! ≤ 1.1× it on every two-level one.  Iterations, apply seconds and total
//! seconds (setup included) go to `target/experiments/fig6_depth_sweep.csv`.
//! Timings are at the process's thread count: run with
//! `RAYON_NUM_THREADS=1` for the single-thread figures; the iteration counts
//! do not depend on it.
//!
//! Then, for each architecture in the grid: train a model, then solve
//! Poisson problems with the corresponding DDM-GNN preconditioner and report
//! (a) the time spent applying the preconditioner (the inference time of
//! Fig. 6a) and (b) the total resolution time, both alongside the iteration
//! count at convergence (Fig. 6b).
//!
//! Environment variables (of the training grid):
//! * `F6_EPOCHS`       — training epochs per architecture, default 20
//! * `F6_SAMPLES`      — dataset cap, default 120
//! * `F6_TARGET_NODES` — size of the evaluation problems, default 3000
//!                       (paper: 10 000)
//! * `F6_PROBLEMS`     — number of evaluation problems, default 2 (paper: 100)
//! * `F6_FULL=1`       — full paper grid of architectures

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use bench::{env_usize, mean_std, run_method, write_csv};
use ddm_gnn::{
    build_tiers, generate_problem, solve, AsmLevel, HybridSolverConfig, Method, MultilevelConfig,
    Precision, PRETRAINED_DEPTH,
};
use fem::PoissonProblem;
use gnn::{
    extract_local_problems, train, AdamConfig, DatasetConfig, DssConfig, DssModel, TrainingConfig,
};
use krylov::SolverOptions;
use meshgen::{generate_mesh, FormulaOneDomain, MeshingOptions};
use partition::partition_mesh_with_overlap;

/// One problem of the depth sweep, partitioned once.
struct SweepProblem {
    name: String,
    problem: PoissonProblem,
    subdomains: Vec<Vec<usize>>,
    level: AsmLevel,
    precision: Precision,
    tolerance: f64,
}

impl SweepProblem {
    fn new(
        name: String,
        problem: PoissonProblem,
        subdomain_size: usize,
        level: AsmLevel,
        precision: Precision,
        tolerance: f64,
    ) -> Self {
        let subdomains = partition_mesh_with_overlap(&problem.mesh, subdomain_size, 2, 0);
        SweepProblem { name, problem, subdomains, level, precision, tolerance }
    }

    /// Build and solve with `model`: (iterations, apply seconds, total
    /// seconds including setup).
    fn run(&self, model: &Arc<DssModel>) -> (usize, f64, f64) {
        let config = HybridSolverConfig {
            level: self.level,
            precision: self.precision,
            ..Default::default()
        };
        let opts = SolverOptions::with_tolerance(self.tolerance).max_iterations(20_000);
        let start = Instant::now();
        let tiers =
            build_tiers(&self.problem, &self.subdomains, Method::DdmGnn, Some(model), &config)
                .unwrap_or_else(|e| panic!("{} setup failed: {e}", self.name));
        let outcome = solve(&self.problem.matrix, &[&self.problem.rhs], Some(&*tiers[0]), &opts);
        assert!(outcome.stats().converged(), "{} did not converge", self.name);
        (outcome.stats().iterations, outcome.preconditioner_seconds, start.elapsed().as_secs_f64())
    }
}

fn sweep_problems() -> Vec<SweepProblem> {
    let multilevel = AsmLevel::Multilevel(MultilevelConfig::default());
    let mut problems = Vec::new();
    for (seed, target) in
        [(1u64, 3_000usize), (2, 3_000), (4, 12_000), (3, 24_000), (7, 24_000), (6, 48_000)]
    {
        let name = format!("ml-{}k-s{seed}", target / 1000);
        let problem = generate_problem(seed, target);
        problems.push(SweepProblem::new(name, problem, 300, multilevel, Precision::F64, 1e-6));
    }
    for precision in [Precision::F64, Precision::F32] {
        for (seed, target) in [(1u64, 3_000usize), (4, 12_000)] {
            let name = format!("2l-{}-{}k-s{seed}", precision.as_str(), target / 1000);
            let problem = generate_problem(seed, target);
            problems.push(SweepProblem::new(
                name,
                problem,
                300,
                AsmLevel::TwoLevel,
                precision,
                1e-6,
            ));
        }
    }
    let domain = FormulaOneDomain::new(1.0);
    let h = meshgen::generator::element_size_for_target_nodes(&domain, 12_000);
    let mesh = generate_mesh(&domain, &MeshingOptions::with_element_size(h).seed(1));
    let problem = PoissonProblem::with_random_data(mesh, 5);
    problems.push(SweepProblem::new(
        "ml-f1-12k".into(),
        problem,
        200,
        multilevel,
        Precision::F64,
        1e-9,
    ));
    problems
}

/// The depth sweep of the shipped model, and the depth its rule picks.
fn depth_sweep() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../assets/pretrained_k16_d10.dss");
    let anchor = gnn::io::load_model(Path::new(path)).expect("the shipped model in assets/");
    let full_depth = anchor.config().num_blocks;
    let problems = sweep_problems();
    println!(
        "FIG. 6 (depth) — the shipped k̄ = {full_depth} model cut to its first k̄ blocks, \
         {} thread(s); iterations per problem, Σ total seconds",
        rayon::current_num_threads()
    );
    print!("{:>4} |", "k̄");
    for p in &problems {
        print!(" {:>15}", p.name);
    }
    println!(" | {:>8}", "Σ T [s]");

    let mut csv_rows = Vec::new();
    let mut counts: Vec<(usize, Vec<usize>)> = Vec::new();
    for depth in (2..=full_depth).rev() {
        let mut model = anchor.clone();
        model.truncate(depth);
        let model = Arc::new(model);
        let mut iterations = Vec::with_capacity(problems.len());
        let mut total = 0.0;
        for p in &problems {
            let (its, apply_s, total_s) = p.run(&model);
            csv_rows.push(format!("{depth},{},{its},{apply_s:.4},{total_s:.4}", p.name));
            iterations.push(its);
            total += total_s;
        }
        print!("{depth:>4} |");
        for its in &iterations {
            print!(" {its:>15}");
        }
        println!(" | {total:>8.2}");
        counts.push((depth, iterations));
    }
    write_csv(
        "fig6_depth_sweep.csv",
        "depth,problem,iterations,apply_seconds,total_seconds",
        &csv_rows,
    );

    let full = &counts[0].1;
    let meets = |its: &[usize]| {
        problems.iter().zip(its).zip(full).all(|((p, &its), &full)| {
            if matches!(p.level, AsmLevel::Multilevel(_)) {
                its <= full
            } else {
                10 * its <= 11 * full
            }
        })
    };
    let picked = counts.iter().filter(|(_, its)| meets(its)).map(|(d, _)| *d).min();
    println!(
        "smallest depth with iterations ≤ k̄ = {full_depth} on every multi-level problem and \
         ≤ 1.1× on every two-level one: {} (PRETRAINED_DEPTH = {PRETRAINED_DEPTH})\n",
        picked.unwrap_or(full_depth)
    );
}

fn main() {
    depth_sweep();

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
