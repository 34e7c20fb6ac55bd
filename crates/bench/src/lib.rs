//! Shared plumbing of the `reproduce` binary and the `detsan_suite`.
//!
//! `reproduce <section>…` regenerates the paper's evaluation, one section
//! per artifact: `table1`, `table3`, `fig5`, `depth` (the sweep that picked
//! `ddm_gnn::PRETRAINED_DEPTH` and `ddm_gnn::MULTILEVEL_DEPTH`) and `grid`
//! (Table II and Fig. 6 from one training run per architecture).  Each
//! section prints the same row/series structure as the paper and writes a
//! CSV under `target/experiments/`.
//! `detsan_suite` is the concurrency sanitizer's schedule-fuzz acceptance
//! run.
//!
//! The default problem sizes are scaled down from the paper so a full run
//! finishes in minutes on a laptop CPU; the `reproduce` docs list the
//! environment variables that scale each section back up.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use ddm_gnn::{build_preconditioner, solve, HybridSolverConfig, Method, SolveOutcome};
use fem::PoissonProblem;
use gnn::DssModel;
use krylov::SolverOptions;
use meshgen::{generate_mesh, FormulaOneDomain, MeshingOptions};

/// Build `method`'s preconditioner at `config` on the given decomposition
/// and drive it over the problem's own right-hand side.
pub fn solve_problem(
    problem: &PoissonProblem,
    subdomains: &[Vec<usize>],
    method: Method,
    model: &Arc<DssModel>,
    config: &HybridSolverConfig,
    opts: &SolverOptions,
) -> SolveOutcome {
    let precond = build_preconditioner(problem, subdomains, method, Some(model), config)
        .unwrap_or_else(|e| panic!("{} setup failed: {e}", method.name()));
    solve(&problem.matrix, &[&problem.rhs], precond.as_deref(), opts)
}

/// The out-of-distribution "Formula-1" problem of Fig. 5: the F1 silhouette
/// with holes meshed at about `target_nodes` nodes (mesh seed 1) with random
/// data (seed 5).
pub fn formula_one_problem(target_nodes: usize) -> PoissonProblem {
    let domain = FormulaOneDomain::new(1.0);
    let h = meshgen::generator::element_size_for_target_nodes(&domain, target_nodes);
    let mesh = generate_mesh(&domain, &MeshingOptions::with_element_size(h).seed(1));
    PoissonProblem::with_random_data(mesh, 5)
}

/// The model every section that does not train its own solves with: the
/// shipped one of [`ddm_gnn::load_pretrained`].
pub fn shipped_model() -> Arc<DssModel> {
    let model = ddm_gnn::load_pretrained().expect("the shipped model in assets/");
    println!(
        "using pre-trained DSS model: d = {}, {} weights; k̄ = {} under one- and two-level \
         coarse components, {} under the multi-level V-cycle",
        model.config().latent_dim,
        model.num_params(),
        model.config().num_blocks,
        model.multilevel_depth()
    );
    Arc::new(model)
}

/// Read an integer environment variable with a default.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.trim().parse().ok()).unwrap_or(default)
}

/// Read a comma-separated list of integers from the environment, with a
/// default when it is unset or holds no integer.
pub fn env_list(name: &str, default: &[usize]) -> Vec<usize> {
    std::env::var(name)
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

/// Write a CSV file into `target/experiments/`, where the harness drops its
/// outputs.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    fs::create_dir_all(&dir).expect("creating target/experiments");
    let path = dir.join(name);
    let mut content = String::with_capacity(rows.len() * 64 + header.len() + 1);
    content.push_str(header);
    content.push('\n');
    for row in rows {
        content.push_str(row);
        content.push('\n');
    }
    fs::write(&path, content).expect("writing experiment CSV");
    println!("\n[csv] {}", path.display());
    path
}

/// Mean and standard deviation of a sample.
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64;
    (mean, var.sqrt())
}

/// Format a `mean ± std` cell the way the paper's tables do.
pub fn pm(mean: f64, std: f64) -> String {
    format!("{:.0}±{:.0}", mean, std)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_helpers_fall_back_to_defaults() {
        assert_eq!(env_usize("DDM_GNN_BENCH_UNSET_VAR", 7), 7);
        assert_eq!(env_list("DDM_GNN_BENCH_UNSET_VAR", &[1, 2]), vec![1, 2]);
    }

    #[test]
    fn mean_std_and_pm_formatting() {
        let (m, s) = mean_std(&[10.0, 12.0, 14.0]);
        assert!((m - 12.0).abs() < 1e-12);
        assert!(s > 1.0 && s < 2.0);
        assert_eq!(pm(22.4, 1.2), "22±1");
        assert!(mean_std(&[]).0.is_nan());
    }

    #[test]
    fn csv_writer_creates_files() {
        let path = write_csv("unit_test.csv", "a,b", &["1,2".to_string(), "3,4".to_string()]);
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("a,b\n1,2\n3,4\n"));
        std::fs::remove_file(path).ok();
    }
}
