//! Shared plumbing for the benchmark harness.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation section (see DESIGN.md for the index).  They all print the same
//! row/series structure as the paper and additionally write a CSV under
//! `target/experiments/` for post-processing.
//!
//! The default problem sizes are scaled down from the paper so a full run
//! finishes in minutes on a laptop CPU; every binary documents the
//! environment variables that scale it back up towards the paper's sizes.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use ddm_gnn::{build_tiers, solve, HybridSolverConfig, Method, SolveOutcome};
use fem::PoissonProblem;
use gnn::DssModel;
use krylov::SolverOptions;

/// One column of the paper's tables: build `method`'s preconditioner (the
/// two-level, double-precision default) on the given decomposition and drive
/// it over the problem's own right-hand side.
pub fn run_method(
    problem: &PoissonProblem,
    subdomains: &[Vec<usize>],
    method: Method,
    model: &Arc<DssModel>,
    opts: &SolverOptions,
) -> SolveOutcome {
    let config = HybridSolverConfig::default();
    let tiers = build_tiers(problem, subdomains, method, Some(model), &config)
        .unwrap_or_else(|e| panic!("{} setup failed: {e}", method.name()));
    solve(&problem.matrix, &[&problem.rhs], tiers.first().map(|t| t.as_ref()), opts)
}

/// Read an integer environment variable with a default.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
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

/// Load the shipped pre-trained DSS model, or train a small one on the fly.
pub fn load_or_train_model() -> DssModel {
    match ddm_gnn::load_pretrained() {
        Some(model) => {
            println!(
                "using pre-trained DSS model: k̄ = {}, d = {}, {} weights",
                model.config().num_blocks,
                model.config().latent_dim,
                model.num_params()
            );
            model
        }
        None => {
            println!(
                "no pre-trained model found — training a small model first (see train_dss example)"
            );
            ddm_gnn::train_model(&ddm_gnn::PipelineConfig::default()).model
        }
    }
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
