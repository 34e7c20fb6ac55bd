//! The hybrid solver public API and the one driver of the evaluation.
//!
//! [`HybridSolver`] is the interface a downstream user would adopt: configure
//! sub-domain size, overlap, coarse level and tolerance once, hand it a
//! trained DSS model, and call [`HybridSolver::solve`] on assembled Poisson
//! problems.  Underneath sit the two functions every example, paper-table
//! binary and test drives directly: [`build_tiers`] builds the
//! preconditioner of one [`Method`] (the four columns of the paper's Tables I
//! and III) at one [`AsmLevel`] and [`Precision`], and [`solve`] runs *any*
//! preconditioner — or none, for plain CG — through the same timed Krylov
//! call, reporting total time and time spent inside the preconditioner (the
//! `T`, `T_lu`, `T_gnn` columns of Table III).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ddm::{AdditiveSchwarz, AsmLevel};
use fem::PoissonProblem;
use gnn::{DssModel, Precision};
use krylov::{
    conjugate_gradient, solve_batch, DegradationLadder, FaultLog, Ic0Preconditioner,
    JacobiPreconditioner, Preconditioner, ResiliencePolicy, SolveResult, SolveStats, SolverOptions,
};
use partition::partition_mesh_with_overlap;
use sparse::CsrMatrix;

use crate::preconditioner::DdmGnnPreconditioner;

/// The solver variants benchmarked in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Unpreconditioned Conjugate Gradient.
    Cg,
    /// PCG with zero-fill incomplete Cholesky.
    Ic0,
    /// PCG with the Additive Schwarz method and exact local solves.
    DdmLu,
    /// PCG with the DDM-GNN preconditioner.
    DdmGnn,
}

impl Method {
    /// Human-readable name used in harness tables.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Cg => "CG",
            Method::Ic0 => "IC(0)",
            Method::DdmLu => "DDM-LU",
            Method::DdmGnn => "DDM-GNN",
        }
    }
}

/// Result of one [`solve`], with the timing breakdown of Table III.  Setup is
/// not part of it: the driver is handed a built preconditioner, so callers
/// that report time-to-solution time [`build_tiers`] themselves.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// Solution, iteration counts, residuals and convergence history of every
    /// right-hand side, in order.
    pub results: Vec<SolveResult>,
    /// Total wall-clock time of the Krylov call (all right-hand sides).
    pub total_seconds: f64,
    /// Wall-clock time spent applying the preconditioner (all columns).
    pub preconditioner_seconds: f64,
}

impl SolveOutcome {
    /// Solution of the first (usually the only) right-hand side.
    pub fn x(&self) -> &[f64] {
        &self.results[0].x
    }

    /// Statistics of the first (usually the only) right-hand side.
    pub fn stats(&self) -> &SolveStats {
        &self.results[0].stats
    }
}

/// Wraps any preconditioner and accumulates the wall-clock time spent in
/// `apply` — used to report the `T_lu` / `T_gnn` columns of Table III.
pub(crate) struct TimedPreconditioner<'a> {
    inner: &'a dyn Preconditioner,
    nanos: AtomicU64,
}

impl<'a> TimedPreconditioner<'a> {
    /// Wrap a preconditioner.
    pub(crate) fn new(inner: &'a dyn Preconditioner) -> Self {
        TimedPreconditioner { inner, nanos: AtomicU64::new(0) }
    }

    /// Seconds spent inside `apply` so far.
    pub(crate) fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    fn timed<T>(&self, apply: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let result = apply();
        self.nanos.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }
}

impl Preconditioner for TimedPreconditioner<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.timed(|| self.inner.apply(r, z));
    }

    fn apply_batch(&self, rs: &[&[f64]], zs: &mut [&mut [f64]]) {
        self.timed(|| self.inner.apply_batch(rs, zs));
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn collect_faults(&self, log: &mut FaultLog) {
        self.inner.collect_faults(log);
    }
}

/// Build the preconditioner of `method` over the given sub-domains: nothing
/// for CG, IC(0), or the Schwarz preconditioner with exact (`DdmLu`) or DSS
/// (`DdmGnn`, which needs `model`) local solves at `config.level` and
/// `config.precision`.
///
/// With `config.resilience` set, `DdmGnn` yields the whole ordered tier stack
/// of a fault-tolerant solve instead of its one tier: the GNN preconditioner
/// at the configured precision, then every *higher*-precision GNN engine it
/// can fall back to (int8 → f32 → f64), then the exact Schwarz method at the
/// same level, then diagonal Jacobi as the most conservative tier.  The tiers
/// are returned unassembled so tests and harnesses can wrap individual ones
/// (e.g. in a [`krylov::FaultInjectingPreconditioner`]) before handing them
/// to [`DegradationLadder::new`].
pub fn build_tiers(
    problem: &PoissonProblem,
    subdomains: &[Vec<usize>],
    method: Method,
    model: Option<&Arc<DssModel>>,
    config: &HybridSolverConfig,
) -> sparse::Result<Vec<Box<dyn Preconditioner>>> {
    let asm = || AdditiveSchwarz::new(&problem.matrix, subdomains.to_vec(), config.level);
    let mut tiers: Vec<Box<dyn Preconditioner>> = Vec::new();
    match method {
        Method::Cg => {}
        Method::Ic0 => tiers.push(Box::new(Ic0Preconditioner::new(&problem.matrix)?)),
        Method::DdmLu => tiers.push(Box::new(asm()?)),
        Method::DdmGnn => {
            let model = model.expect("Method::DdmGnn needs a trained model");
            let ladder = config.resilience.is_some();
            let fallbacks: &[Precision] = match config.precision {
                Precision::Int8 if ladder => &[Precision::F32, Precision::F64],
                Precision::F32 if ladder => &[Precision::F64],
                _ => &[],
            };
            for &precision in std::iter::once(&config.precision).chain(fallbacks) {
                tiers.push(Box::new(DdmGnnPreconditioner::build(
                    problem,
                    subdomains.to_vec(),
                    Arc::clone(model),
                    config.level,
                    precision,
                )?));
            }
            if ladder {
                tiers.push(Box::new(asm()?));
                tiers.push(Box::new(JacobiPreconditioner::new(&problem.matrix)));
            }
        }
    }
    Ok(tiers)
}

/// The one timed Krylov driver: solve `a x = b` for every `b` in `bs` with
/// plain CG (`precond` is `None`) or PCG under any preconditioner — a single
/// tier, a [`DegradationLadder`], a fault injector.
///
/// Under a preconditioner every right-hand side goes through one
/// [`krylov::solve_batch`], which batches the preconditioner application
/// across all still-active columns each outer iteration (one blocked GNN
/// inference per sub-domain instead of one per column); column `c` of the
/// result is bit-identical to a solve of `bs[c]` alone.
///
/// Contained faults, downgrades and the final active tier of a ladder end up
/// on `stats.faults`; the flexible (Polak–Ribière) PCG tolerates the
/// preconditioner changing mid-solve, so a downgrade never restarts the outer
/// iteration.
pub fn solve(
    a: &CsrMatrix,
    bs: &[&[f64]],
    precond: Option<&dyn Preconditioner>,
    opts: &SolverOptions,
) -> SolveOutcome {
    let timed = precond.map(TimedPreconditioner::new);
    let start = Instant::now();
    let results = match &timed {
        None => bs.iter().map(|b| conjugate_gradient(a, b, None, opts)).collect(),
        Some(p) => solve_batch(a, bs, None, p, opts),
    };
    SolveOutcome {
        results,
        total_seconds: start.elapsed().as_secs_f64(),
        preconditioner_seconds: timed.map_or(0.0, |p| p.seconds()),
    }
}

/// Configuration of the high-level [`HybridSolver`].
#[derive(Debug, Clone)]
pub struct HybridSolverConfig {
    /// Target sub-domain size in nodes (the paper trains on ~1000).
    pub subdomain_size: usize,
    /// Overlap layers.
    pub overlap: usize,
    /// The coarse component: none, the Nicolaides correction, or a
    /// smoothed-aggregation multi-level V-cycle.
    pub level: AsmLevel,
    /// Relative residual tolerance.
    pub tolerance: f64,
    /// Iteration cap.
    pub max_iterations: usize,
    /// Seed for the partitioner.
    pub partition_seed: u64,
    /// Scalar precision of the DSS inference inside the preconditioner
    /// (`Precision::F32` opts into the engine's single-precision
    /// instantiation, `Precision::Int8` into the same on weights quantised
    /// once at setup from the f64 model; the flexible outer PCG keeps its
    /// convergence guarantee in every mode).
    pub precision: Precision,
    /// When set, run the solve under the fault-tolerant supervisor: the
    /// preconditioner becomes a [`DegradationLadder`] over the tier stack of
    /// [`build_tiers`] that contains panics, scans for non-finite output, and
    /// downgrades in place on a classified fault without restarting the outer
    /// PCG.  Faults and downgrades are reported on `stats.faults`.
    pub resilience: Option<ResiliencePolicy>,
}

impl Default for HybridSolverConfig {
    fn default() -> Self {
        HybridSolverConfig {
            subdomain_size: 1000,
            overlap: 2,
            level: AsmLevel::TwoLevel,
            tolerance: 1e-6,
            max_iterations: 5000,
            partition_seed: 0,
            precision: Precision::F64,
            resilience: None,
        }
    }
}

/// The hybrid Krylov + GNN solver: the public API of the paper's contribution.
pub struct HybridSolver {
    config: HybridSolverConfig,
    model: Arc<DssModel>,
}

impl HybridSolver {
    /// Create a solver from a trained model and a configuration.
    pub fn new(model: DssModel, config: HybridSolverConfig) -> Self {
        HybridSolver { config, model: Arc::new(model) }
    }

    /// The solver configuration.
    pub fn config(&self) -> &HybridSolverConfig {
        &self.config
    }

    /// The trained model backing the preconditioner.
    pub fn model(&self) -> &DssModel {
        &self.model
    }

    /// Solve an assembled Poisson problem with the DDM-GNN preconditioned CG.
    pub fn solve(&self, problem: &PoissonProblem) -> sparse::Result<SolveOutcome> {
        self.run(problem, Method::DdmGnn)
    }

    /// Solve the same problem with the exact (DDM-LU) preconditioner — handy
    /// for side-by-side comparisons like Table I.
    pub fn solve_with_exact_local_solver(
        &self,
        problem: &PoissonProblem,
    ) -> sparse::Result<SolveOutcome> {
        self.run(problem, Method::DdmLu)
    }

    fn run(&self, problem: &PoissonProblem, method: Method) -> sparse::Result<SolveOutcome> {
        let config = &self.config;
        let subdomains = partition_mesh_with_overlap(
            &problem.mesh,
            config.subdomain_size,
            config.overlap,
            config.partition_seed,
        );
        let opts =
            SolverOptions::with_tolerance(config.tolerance).max_iterations(config.max_iterations);
        let mut tiers = build_tiers(problem, &subdomains, method, Some(&self.model), config)?;
        // Only the DDM-GNN stack has tiers to fall back through.
        let precond: Box<dyn Preconditioner> = match (&config.resilience, method) {
            (Some(policy), Method::DdmGnn) => {
                Box::new(DegradationLadder::new(tiers, policy.clone()))
            }
            _ => tiers.remove(0),
        };
        Ok(solve(&problem.matrix, &[&problem.rhs], Some(&*precond), &opts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{fixture, Fixture};
    use ddm::MultilevelConfig;

    /// Build `method` at `config` on the fixture and drive it over `bs`.
    fn run(
        fx: &Fixture,
        method: Method,
        config: &HybridSolverConfig,
        bs: &[&[f64]],
    ) -> SolveOutcome {
        let opts = SolverOptions::with_tolerance(1e-6).max_iterations(3000);
        let model = Arc::new(fx.model.clone());
        let tiers = build_tiers(&fx.problem, &fx.subdomains, method, Some(&model), config).unwrap();
        solve(&fx.problem.matrix, bs, tiers.first().map(|t| t.as_ref()), &opts)
    }

    #[test]
    fn all_methods_converge_and_agree() {
        let fx = fixture();
        let config = HybridSolverConfig::default();
        let [cg, ic0, lu, gnn] = [Method::Cg, Method::Ic0, Method::DdmLu, Method::DdmGnn]
            .map(|method| run(fx, method, &config, &[&fx.problem.rhs]));
        for (outcome, method) in [(&cg, "CG"), (&ic0, "IC(0)"), (&lu, "DDM-LU"), (&gnn, "DDM-GNN")]
        {
            assert!(outcome.stats().converged(), "{method} did not converge");
            assert!(outcome.total_seconds >= 0.0);
        }
        // All methods solve the same system: solutions agree.
        assert!(sparse::vector::relative_error(gnn.x(), lu.x()) < 1e-4);
        assert!(sparse::vector::relative_error(ic0.x(), lu.x()) < 1e-4);
        // Iteration ordering of Table I: DDM-LU <= DDM-GNN < CG.
        assert!(lu.stats().iterations <= gnn.stats().iterations);
        assert!(gnn.stats().iterations < cg.stats().iterations);
        // Timing bookkeeping is self-consistent.
        assert!(gnn.preconditioner_seconds <= gnn.total_seconds + 1e-9);
        assert!(lu.preconditioner_seconds <= lu.total_seconds + 1e-9);
        assert_eq!(cg.preconditioner_seconds, 0.0);
        assert_eq!(Method::DdmGnn.name(), "DDM-GNN");
    }

    #[test]
    fn hybrid_solver_api_end_to_end() {
        let fx = fixture();
        let solver = HybridSolver::new(
            fx.model.clone(),
            HybridSolverConfig {
                subdomain_size: 250,
                overlap: 2,
                tolerance: 1e-6,
                ..Default::default()
            },
        );
        assert_eq!(solver.config().overlap, 2);
        assert_eq!(solver.model().config().latent_dim, fx.model.config().latent_dim);
        let outcome = solver.solve(&fx.problem).unwrap();
        assert!(outcome.stats().converged());
        let exact = solver.solve_with_exact_local_solver(&fx.problem).unwrap();
        assert!(exact.stats().converged());
        assert!(exact.stats().iterations <= outcome.stats().iterations);
        assert!(
            krylov::true_relative_residual(&fx.problem.matrix, outcome.x(), &fx.problem.rhs) < 1e-5
        );
    }

    #[test]
    fn hybrid_solver_f32_precision_converges() {
        let fx = fixture();
        let base = HybridSolverConfig {
            subdomain_size: 250,
            overlap: 2,
            tolerance: 1e-6,
            ..Default::default()
        };
        let f64_solver = HybridSolver::new(fx.model.clone(), base.clone());
        let f32_solver = HybridSolver::new(
            fx.model.clone(),
            HybridSolverConfig { precision: Precision::F32, ..base },
        );
        let o64 = f64_solver.solve(&fx.problem).unwrap();
        let o32 = f32_solver.solve(&fx.problem).unwrap();
        assert!(o64.stats().converged() && o32.stats().converged());
        assert!(sparse::vector::relative_error(o32.x(), o64.x()) < 1e-4);
        let cap = o64.stats().iterations + o64.stats().iterations.div_ceil(10);
        assert!(
            o32.stats().iterations <= cap,
            "f32 iterations {} exceed f64 {} + 10%",
            o32.stats().iterations,
            o64.stats().iterations
        );
    }

    #[test]
    fn hybrid_solver_int8_precision_converges() {
        let fx = fixture();
        let base = HybridSolverConfig {
            subdomain_size: 250,
            overlap: 2,
            tolerance: 1e-6,
            ..Default::default()
        };
        let f64_solver = HybridSolver::new(fx.model.clone(), base.clone());
        let q_solver = HybridSolver::new(
            fx.model.clone(),
            HybridSolverConfig { precision: Precision::Int8, ..base },
        );
        let o64 = f64_solver.solve(&fx.problem).unwrap();
        let oq = q_solver.solve(&fx.problem).unwrap();
        assert!(o64.stats().converged() && oq.stats().converged());
        assert!(sparse::vector::relative_error(oq.x(), o64.x()) < 1e-4);
        let cap = o64.stats().iterations + (15 * o64.stats().iterations).div_ceil(100);
        assert!(
            oq.stats().iterations <= cap,
            "int8 iterations {} exceed f64 {} + 15%",
            oq.stats().iterations,
            o64.stats().iterations
        );
    }

    #[test]
    fn hybrid_solver_multilevel_config_end_to_end() {
        let fx = fixture();
        let config = HybridSolverConfig {
            subdomain_size: 250,
            overlap: 2,
            tolerance: 1e-6,
            level: AsmLevel::Multilevel(MultilevelConfig { coarsest_max_size: 60 }),
            ..Default::default()
        };
        let solver = HybridSolver::new(fx.model.clone(), config.clone());
        let outcome = solver.solve(&fx.problem).unwrap();
        assert!(outcome.stats().converged());
        assert!(
            krylov::true_relative_residual(&fx.problem.matrix, outcome.x(), &fx.problem.rhs) < 1e-5
        );
        let exact = solver.solve_with_exact_local_solver(&fx.problem).unwrap();
        assert!(exact.stats().converged());
        assert!(sparse::vector::relative_error(exact.x(), outcome.x()) < 1e-4);
        // The two functions underneath drive the same multilevel paths.
        let lu_ml = run(fx, Method::DdmLu, &config, &[&fx.problem.rhs]);
        let gnn_ml = run(fx, Method::DdmGnn, &config, &[&fx.problem.rhs]);
        assert!(lu_ml.stats().converged() && gnn_ml.stats().converged());
        assert!(lu_ml.stats().iterations <= gnn_ml.stats().iterations);
    }

    #[test]
    fn resilient_config_is_transparent_when_fault_free() {
        let fx = fixture();
        let base = HybridSolverConfig {
            subdomain_size: 250,
            overlap: 2,
            tolerance: 1e-6,
            ..Default::default()
        };
        let plain = HybridSolver::new(fx.model.clone(), base.clone());
        let resilient = HybridSolver::new(
            fx.model.clone(),
            HybridSolverConfig { resilience: Some(ResiliencePolicy::default()), ..base },
        );
        let p = plain.solve(&fx.problem).unwrap();
        let r = resilient.solve(&fx.problem).unwrap();
        assert!(p.stats().converged() && r.stats().converged());
        // The guards only read r/z, so a fault-free supervised solve is
        // bit-identical to the unsupervised one.
        assert_eq!(p.x(), r.x());
        assert_eq!(p.stats().iterations, r.stats().iterations);
        assert!(
            r.stats().faults.is_empty(),
            "fault-free solve reported faults: {:?}",
            r.stats().faults
        );
        assert_eq!(r.stats().faults.final_tier(), Some("ddm-gnn-2level"));
    }

    #[test]
    fn timed_preconditioner_accumulates() {
        let fx = fixture();
        let inner = krylov::JacobiPreconditioner::new(&fx.problem.matrix);
        let timed = TimedPreconditioner::new(&inner);
        let r = fx.problem.rhs.clone();
        let mut z = vec![0.0; r.len()];
        assert_eq!(timed.seconds(), 0.0);
        timed.apply(&r, &mut z);
        timed.apply(&r, &mut z);
        assert!(timed.seconds() > 0.0);
        assert_eq!(timed.dim(), r.len());
        assert_eq!(timed.name(), "jacobi");
        // The batched apply is timed too, and forwards to the inner batch path.
        let before = timed.seconds();
        let mut z0 = vec![0.0; r.len()];
        let mut z1 = vec![0.0; r.len()];
        let rs: Vec<&[f64]> = vec![&r, &r];
        let mut zs: Vec<&mut [f64]> = vec![&mut z0, &mut z1];
        timed.apply_batch(&rs, &mut zs);
        assert!(timed.seconds() > before);
        assert_eq!(z0, z);
        assert_eq!(z1, z);
    }

    #[test]
    fn batched_solve_matches_sequential_solves_bitwise() {
        let fx = fixture();
        let n = fx.problem.rhs.len();
        let config = HybridSolverConfig::default();
        // Three distinct right-hand sides: the assembled one and two shifts.
        let b0 = fx.problem.rhs.clone();
        let b1: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b2: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
        let batch = run(fx, Method::DdmGnn, &config, &[&b0, &b1, &b2]);
        assert_eq!(batch.results.len(), 3);
        assert!(batch.preconditioner_seconds > 0.0);
        for (c, b) in [&b0, &b1, &b2].into_iter().enumerate() {
            let single = run(fx, Method::DdmGnn, &config, &[b]);
            assert!(single.stats().converged());
            assert_eq!(batch.results[c].x, single.x(), "column {c} solution differs");
            assert_eq!(batch.results[c].stats.iterations, single.stats().iterations);
            assert_eq!(
                batch.results[c].stats.history.norms(),
                single.stats().history.norms(),
                "column {c} residual history differs"
            );
        }
    }
}
