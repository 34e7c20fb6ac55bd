//! `reproduce`: the paper's evaluation, one section per artifact.
//!
//! ```text
//! cargo run --release -p bench --bin reproduce -- <section>…
//! ```
//!
//! Each section prints the paper's row/series structure and writes a CSV
//! under `target/experiments/`.  Defaults are CPU-sized; the environment
//! variables scale them (paper values in parentheses).
//!
//! * `table1` — Table I, numerical behaviour: iterations of PCG-DDM-GNN,
//!   PCG-DDM-LU and CG to a relative residual of 1e-6 for several problem
//!   sizes `N`, sub-domain sizes `Ns` and overlaps.
//!   `T1_PROBLEMS` problems per configuration, default 3 (100);
//!   `T1_SIZES`, default `800,2000,6000` (2632, 7148, 33969);
//!   `T1_SUBSIZES`, default `100,200,400` (500, 1000, 2000).
//! * `table3` — Table III, against the legacy preconditioners: iterations,
//!   total solve time `T` and time inside the preconditioner (`T_lu`,
//!   `T_gnn`) of IC(0), DDM-LU and DDM-GNN at tolerance 1e-3.
//!   `T3_SIZES`, default `5000,10000,20000,40000` (10 571 … 609 740);
//!   `T3_SUBSIZES`, default `100,200,400` (500, 1000, 2000).
//! * `fig5` — Fig. 5, the out-of-distribution Formula-1 mesh: residual
//!   histories of DDM-GNN, DDM-LU and CG down to 1e-9.
//!   `F5_TARGET_NODES`, default 12 000 (233 246); `F5_SUBSIZE`, default
//!   200 (~1000).
//! * `depth` — the sweep that picked `ddm_gnn::PRETRAINED_DEPTH` and
//!   `ddm_gnn::MULTILEVEL_DEPTH`, no training: every prefix `k̄ = 1 … 16` of
//!   the shipped model (each block is trained on its own decoded residual,
//!   and every prefix runs all its blocks under every coarse kind) solves
//!   eleven problems, each with sub-domains of 300, overlap 2, partition
//!   seed 0, tolerance 1e-6: multi-level f64 (`ml-…`) on `generate_problem`
//!   (1, 3k), (2, 3k), (4, 12k), (3, 24k), (7, 24k) and (6, 48k); two-level
//!   f64 and f32 (`2l-…`) on (1, 3k) and (4, 12k); multi-level f64 on the
//!   Formula-1 problem of `fig5` at 12k (sub-domains of 200, tolerance
//!   1e-9).  Two rules, fixed before measuring, each print their pick.  `PRETRAINED_DEPTH`, the depth one- and two-level
//!   preconditioners run: the smallest depth whose iteration count is ≤
//!   1.1× the 16-block count on every two-level problem (no other coarse
//!   kind runs that many blocks).
//!   `MULTILEVEL_DEPTH`, the depth the V-cycle's local solves run: among
//!   the depths whose iteration count is ≤ 1.3× the 16-block count on every
//!   multi-level problem, the one with the lowest setup + solve seconds
//!   summed over those problems.  Timings
//!   are at the process's thread count (`RAYON_NUM_THREADS=1` for the
//!   single-thread figures the second rule is stated for); the iteration
//!   counts do not depend on it.
//! * `grid` — Table II and Fig. 6 over the (k̄, d) grid, each architecture
//!   trained once: its Table II row is the test residual, the relative
//!   error against exact local solves and the weight count; its Fig. 6 row
//!   is the time inside the preconditioner, the solve time and the
//!   iterations of DDM-GNN on fresh problems.
//!   `T2_EPOCHS`, default 25 (400); `T2_SAMPLES` dataset cap, default 150
//!   (117 138); `T2_SUBSIZE`, default 200 (~1000); `T2_FULL=1` for the
//!   paper's full grid; `F6_TARGET_NODES` evaluation problem size, default
//!   3000 (10 000); `F6_PROBLEMS`, default 2 (100).

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use bench::{
    env_list, env_usize, formula_one_problem, mean_std, pm, shipped_model, solve_problem, write_csv,
};
use ddm_gnn::{
    generate_problem, train_model_multi_size, AsmLevel, HybridSolverConfig, Method,
    MultilevelConfig, Precision, MULTILEVEL_DEPTH, PRETRAINED_DEPTH,
};
use fem::PoissonProblem;
use gnn::DssModel;
use krylov::SolverOptions;
use partition::partition_mesh_with_overlap;

/// Every section, by the name it is selected with.
const SECTIONS: [(&str, fn()); 5] =
    [("table1", table1), ("table3", table3), ("fig5", fig5), ("depth", depth), ("grid", grid)];

fn main() -> ExitCode {
    let selected: Option<Vec<fn()>> = std::env::args()
        .skip(1)
        .map(|arg| SECTIONS.iter().find(|(name, _)| *name == arg).map(|&(_, run)| run))
        .collect();
    match selected {
        Some(sections) if !sections.is_empty() => {
            sections.into_iter().for_each(|run| run());
            ExitCode::SUCCESS
        }
        _ => {
            let names: Vec<&str> = SECTIONS.iter().map(|&(name, _)| name).collect();
            eprintln!("usage: reproduce <section>…  (sections: {})", names.join(", "));
            ExitCode::from(2)
        }
    }
}

fn table1() {
    let num_problems = env_usize("T1_PROBLEMS", 3);
    let sizes = env_list("T1_SIZES", &[800, 2000, 6000]);
    let subsizes = env_list("T1_SUBSIZES", &[100, 200, 400]);
    let base_subsize = subsizes[subsizes.len() / 2];
    let model = shipped_model();
    let config = HybridSolverConfig::default();
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
            let mut iters = [Vec::new(), Vec::new(), Vec::new()];
            let mut ks = Vec::new();
            let mut actual_n = Vec::new();
            for p in 0..num_problems {
                let seed = 1000 + p as u64 + target_n as u64;
                let problem = generate_problem(seed, target_n);
                actual_n.push(problem.num_unknowns() as f64);
                let subdomains = partition_mesh_with_overlap(&problem.mesh, ns, overlap, seed);
                ks.push(subdomains.len() as f64);
                for (iters, method) in
                    iters.iter_mut().zip([Method::DdmGnn, Method::DdmLu, Method::Cg])
                {
                    let outcome =
                        solve_problem(&problem, &subdomains, method, &model, &config, &opts);
                    assert!(outcome.stats().converged());
                    iters.push(outcome.stats().iterations as f64);
                }
            }
            let [(ng, sg), (nl, sl), (nc, sc)] = iters.map(|its| mean_std(&its));
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

fn table3() {
    let sizes = env_list("T3_SIZES", &[5_000, 10_000, 20_000, 40_000]);
    let subsizes = env_list("T3_SUBSIZES", &[100, 200, 400]);
    let model = shipped_model();
    let config = HybridSolverConfig::default();
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
        let ic0 = solve_problem(&problem, &[], Method::Ic0, &model, &config, &opts);
        for &ns in &subsizes {
            let subdomains = partition_mesh_with_overlap(&problem.mesh, ns, 2, 0);
            let k = subdomains.len();
            let [lu, gnn] = [Method::DdmLu, Method::DdmGnn]
                .map(|method| solve_problem(&problem, &subdomains, method, &model, &config, &opts));
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

fn fig5() {
    let problem = formula_one_problem(env_usize("F5_TARGET_NODES", 12_000));
    let subsize = env_usize("F5_SUBSIZE", 200);
    let mesh = &problem.mesh;
    println!(
        "Formula-1 mesh: {} nodes, {} triangles ({} boundary nodes)",
        mesh.num_nodes(),
        mesh.num_triangles(),
        mesh.num_boundary_nodes()
    );
    let subdomains = partition_mesh_with_overlap(mesh, subsize, 2, 0);
    println!("partitioned into {} sub-domains (Fig. 5a)", subdomains.len());

    let model = shipped_model();
    let config = HybridSolverConfig::default();
    let opts = SolverOptions::with_tolerance(1e-9).max_iterations(50_000);
    let methods = [Method::DdmGnn, Method::DdmLu, Method::Cg];
    let outcomes =
        methods.map(|method| solve_problem(&problem, &subdomains, method, &model, &config, &opts));

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
    let rows: Vec<String> = (0..longest)
        .map(|i| {
            let cell = |h: &Vec<f64>| h.get(i).map(|v| format!("{v:e}")).unwrap_or_default();
            format!("{i},{},{},{}", cell(&histories[0]), cell(&histories[1]), cell(&histories[2]))
        })
        .collect();
    write_csv("fig5_f1_convergence.csv", "iteration,ddm_gnn,ddm_lu,cg", &rows);
}

/// One problem of the depth sweep, partitioned once.
struct SweepProblem {
    name: String,
    problem: PoissonProblem,
    subdomains: Vec<Vec<usize>>,
    config: HybridSolverConfig,
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
        let config = HybridSolverConfig { level, precision, ..Default::default() };
        SweepProblem { name, problem, subdomains, config, tolerance }
    }

    /// Build and solve with `model`: (iterations, apply seconds, total
    /// seconds including setup).
    fn run(&self, model: &Arc<DssModel>) -> (usize, f64, f64) {
        let opts = SolverOptions::with_tolerance(self.tolerance).max_iterations(20_000);
        let start = Instant::now();
        let outcome = solve_problem(
            &self.problem,
            &self.subdomains,
            Method::DdmGnn,
            model,
            &self.config,
            &opts,
        );
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
    problems.push(SweepProblem::new(
        "ml-f1-12k".to_string(),
        formula_one_problem(12_000),
        200,
        multilevel,
        Precision::F64,
        1e-9,
    ));
    problems
}

/// The depth sweep of the shipped model, and the depths its two rules pick.
fn depth() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../assets/pretrained_k16_d10.dss");
    let anchor = gnn::io::load_model(Path::new(path)).expect("the shipped model in assets/");
    let full_depth = anchor.config().num_blocks;
    let problems = sweep_problems();
    println!(
        "FIG. 6 (depth) — the shipped k̄ = {full_depth} model cut to its first k̄ blocks, \
         {} thread(s); iterations per problem, Σ total seconds (all problems, multi-level \
         ones)",
        rayon::current_num_threads()
    );
    print!("{:>4} |", "k̄");
    for p in &problems {
        print!(" {:>15}", p.name);
    }
    println!(" | {:>8} {:>8}", "Σ T [s]", "Σ T_ml");

    let mut csv_rows = Vec::new();
    // (depth, iterations per problem, Σ seconds over the multi-level
    // problems)
    let mut rows: Vec<(usize, Vec<usize>, f64)> = Vec::new();
    for depth in (1..=full_depth).rev() {
        let mut model = anchor.clone();
        model.truncate(depth);
        let model = Arc::new(model);
        let mut iterations = Vec::with_capacity(problems.len());
        let (mut total, mut multilevel_total) = (0.0, 0.0);
        for p in &problems {
            let (its, apply_s, total_s) = p.run(&model);
            csv_rows.push(format!("{depth},{},{its},{apply_s:.4},{total_s:.4}", p.name));
            iterations.push(its);
            total += total_s;
            if matches!(p.config.level, AsmLevel::Multilevel(_)) {
                multilevel_total += total_s;
            }
        }
        print!("{depth:>4} |");
        for its in &iterations {
            print!(" {its:>15}");
        }
        println!(" | {total:>8.2} {multilevel_total:>8.2}");
        rows.push((depth, iterations, multilevel_total));
    }
    write_csv(
        "fig6_depth_sweep.csv",
        "depth,problem,iterations,apply_seconds,total_seconds",
        &csv_rows,
    );

    // Whether every count is within `tenths(level)` tenths of the 16-block
    // count on its problem (unbounded where it gives `None`).
    let full = &rows[0].1;
    let keeps = |its: &[usize], tenths: fn(AsmLevel) -> Option<usize>| {
        problems.iter().zip(its).zip(full).all(|((p, &its), &full)| {
            tenths(p.config.level).is_none_or(|tenths| 10 * its <= tenths * full)
        })
    };
    let pretrained_tenths = |level: AsmLevel| (level == AsmLevel::TwoLevel).then_some(11);
    let pretrained =
        rows.iter().filter(|(_, its, _)| keeps(its, pretrained_tenths)).map(|r| r.0).min();
    println!(
        "smallest depth with iterations ≤ 1.1× k̄ = {full_depth} on every two-level problem: {} \
         (PRETRAINED_DEPTH = {PRETRAINED_DEPTH})",
        pretrained.unwrap_or(full_depth)
    );
    let multilevel_tenths = |level| matches!(level, AsmLevel::Multilevel(_)).then_some(13);
    let multilevel = rows
        .iter()
        .filter(|(_, its, _)| keeps(its, multilevel_tenths))
        .min_by(|a, b| a.2.total_cmp(&b.2))
        .map(|r| r.0);
    println!(
        "fastest multi-level setup + solve among the depths with iterations \
         ≤ 1.3× k̄ = {full_depth} on every multi-level problem: {} \
         (MULTILEVEL_DEPTH = {MULTILEVEL_DEPTH})\n",
        multilevel.unwrap_or(full_depth)
    );
}

fn grid() {
    let epochs = env_usize("T2_EPOCHS", 25);
    let samples_cap = env_usize("T2_SAMPLES", 150);
    let subsize = env_usize("T2_SUBSIZE", 200);
    let full_grid = std::env::var("T2_FULL").is_ok_and(|v| v == "1");
    let target_nodes = env_usize("F6_TARGET_NODES", 3000);
    let num_problems = env_usize("F6_PROBLEMS", 2);

    let grid: &[(usize, usize)] = if full_grid {
        &[
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
        &[(5, 5), (5, 10), (10, 5), (10, 10), (16, 10)]
    };
    let problems: Vec<(PoissonProblem, Vec<Vec<usize>>)> = (0..num_problems)
        .map(|p| {
            let problem = generate_problem(500 + p as u64, target_nodes);
            let subdomains = partition_mesh_with_overlap(&problem.mesh, subsize, 2, 0);
            (problem, subdomains)
        })
        .collect();
    let config = HybridSolverConfig::default();
    let opts = SolverOptions::with_tolerance(1e-6).max_iterations(20_000);

    println!(
        "\nTABLE II — DSS metrics for varying k̄ and d ({epochs} epochs each, sub-domain size \
         ~{subsize}, dataset cap {samples_cap} samples)"
    );
    println!(
        "{:>4} {:>4} | {:>18} {:>18} {:>12}",
        "k̄", "d", "residual (1e-2)", "relative error", "weights"
    );
    let mut table2_rows = Vec::new();
    let mut fig6_rows = Vec::new();
    for &(kbar, d) in grid {
        let start = Instant::now();
        let trained = train_model_multi_size(kbar, d, &[subsize], samples_cap, epochs);
        let (metrics, weights) = (&trained.metrics, trained.model.num_params());
        println!(
            "{:>4} {:>4} | {:>8.2} ± {:<7.2} {:>8.2} ± {:<7.2} {:>12}   ({:.0}s)",
            kbar,
            d,
            metrics.residual_mean * 100.0,
            metrics.residual_std * 100.0,
            metrics.relative_error_mean,
            metrics.relative_error_std,
            weights,
            start.elapsed().as_secs_f64()
        );
        table2_rows.push(format!(
            "{kbar},{d},{:.5},{:.5},{:.5},{:.5},{weights}",
            metrics.residual_mean,
            metrics.residual_std,
            metrics.relative_error_mean,
            metrics.relative_error_std,
        ));

        let model = Arc::new(trained.model);
        let outcomes: Vec<_> = problems
            .iter()
            .map(|(problem, subdomains)| {
                solve_problem(problem, subdomains, Method::DdmGnn, &model, &config, &opts)
            })
            .collect();
        let mean = |f: fn(&ddm_gnn::SolveOutcome) -> f64| {
            mean_std(&outcomes.iter().map(f).collect::<Vec<_>>()).0
        };
        let ti = mean(|o| o.preconditioner_seconds);
        let tt = mean(|o| o.total_seconds);
        let it = mean(|o| o.stats().iterations as f64);
        fig6_rows.push((kbar, d, weights, ti, tt, it));
    }
    write_csv(
        "table2_dss_metrics.csv",
        "kbar,d,residual_mean,residual_std,relative_error_mean,relative_error_std,num_weights",
        &table2_rows,
    );

    println!(
        "\nFIG. 6 — performance vs architecture (evaluation problems of ~{target_nodes} nodes)"
    );
    println!(
        "{:>4} {:>4} | {:>10} {:>16} {:>14} {:>12}",
        "k̄", "d", "weights", "T_gnn/solve [s]", "total T [s]", "iterations"
    );
    let mut csv_rows = Vec::new();
    for (kbar, d, weights, ti, tt, it) in fig6_rows {
        println!("{kbar:>4} {d:>4} | {weights:>10} {ti:>16.3} {tt:>14.3} {it:>12.0}");
        csv_rows.push(format!("{kbar},{d},{weights},{ti:.4},{tt:.4},{it:.1}"));
    }
    write_csv(
        "fig6_hyperparam_perf.csv",
        "kbar,d,num_weights,inference_seconds,total_seconds,iterations",
        &csv_rows,
    );
}
