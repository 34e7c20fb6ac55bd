//! The one driver of the evaluation.
//!
//! Every example, paper-table section and test goes through two functions:
//! [`build_preconditioner`] builds the preconditioner of one [`Method`] (the
//! four columns of the paper's Tables I and III) at one [`AsmLevel`] and
//! [`Precision`], under the degradation ladder when
//! [`HybridSolverConfig::resilient`] is set, and [`solve`] runs *any*
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
    JacobiPreconditioner, Preconditioner, SolveResult, SolveStats, SolverOptions,
};
use sparse::{CsrMatrix, SparseError};

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
/// that report time-to-solution time [`build_preconditioner`] themselves.
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

/// Build the preconditioner of `method` over the given sub-domains: `None`
/// for CG, IC(0), or the Schwarz preconditioner with exact (`DdmLu`) or DSS
/// (`DdmGnn`, which needs `model`) local solves at `config.level` and
/// `config.precision`.
///
/// With `config.resilient` set, `DdmGnn` yields the [`DegradationLadder`]
/// of a fault-tolerant solve instead of its one tier.  Its tiers, in order:
/// the GNN preconditioner at the configured precision, then every *higher*
/// precision GNN engine it can fall back to (int8 → f32 → f64), then the
/// exact Schwarz method at the same level, then diagonal Jacobi as the most
/// conservative tier.
pub fn build_preconditioner(
    problem: &PoissonProblem,
    subdomains: &[Vec<usize>],
    method: Method,
    model: Option<&Arc<DssModel>>,
    config: &HybridSolverConfig,
) -> sparse::Result<Option<Box<dyn Preconditioner>>> {
    let asm = || AdditiveSchwarz::new(&problem.matrix, subdomains.to_vec(), config.level);
    let precond: Box<dyn Preconditioner> = match method {
        Method::Cg => return Ok(None),
        Method::Ic0 => Box::new(Ic0Preconditioner::new(&problem.matrix)?),
        Method::DdmLu => Box::new(asm()?),
        Method::DdmGnn => {
            let model = model.ok_or_else(|| {
                SparseError::InvalidArgument("Method::DdmGnn needs a trained model".into())
            })?;
            let gnn = |precision| -> sparse::Result<Box<dyn Preconditioner>> {
                Ok(Box::new(DdmGnnPreconditioner::build(
                    problem,
                    subdomains.to_vec(),
                    Arc::clone(model),
                    config.level,
                    precision,
                )?))
            };
            if !config.resilient {
                return gnn(config.precision).map(Some);
            }
            let fallbacks: &[Precision] = match config.precision {
                Precision::Int8 => &[Precision::F32, Precision::F64],
                Precision::F32 => &[Precision::F64],
                Precision::F64 => &[],
            };
            let mut tiers = std::iter::once(&config.precision)
                .chain(fallbacks)
                .map(|&precision| gnn(precision))
                .collect::<sparse::Result<Vec<_>>>()?;
            tiers.push(Box::new(asm()?));
            tiers.push(Box::new(JacobiPreconditioner::new(&problem.matrix)));
            Box::new(DegradationLadder::new(tiers))
        }
    };
    Ok(Some(precond))
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

/// What [`build_preconditioner`] builds besides the method: the coarse
/// level, the inference precision and the fault-tolerant supervisor.
#[derive(Debug, Clone)]
pub struct HybridSolverConfig {
    /// The coarse component: none, the Nicolaides correction, or a
    /// smoothed-aggregation multi-level V-cycle.
    pub level: AsmLevel,
    /// Scalar precision of the DSS inference inside the preconditioner
    /// (`Precision::F32` opts into the engine's single-precision
    /// instantiation, `Precision::Int8` into the same on weights quantised
    /// once at setup from the f64 model; the flexible outer PCG keeps its
    /// convergence guarantee in every mode).
    pub precision: Precision,
    /// When `true`, DDM-GNN runs under the fault-tolerant supervisor: the
    /// preconditioner becomes a [`DegradationLadder`] that contains panics,
    /// scans for non-finite output and stagnation, and downgrades in place on
    /// a classified fault without restarting the outer PCG.  Faults and
    /// downgrades are reported on `stats.faults`.
    pub resilient: bool,
}

impl Default for HybridSolverConfig {
    fn default() -> Self {
        HybridSolverConfig {
            level: AsmLevel::TwoLevel,
            precision: Precision::F64,
            resilient: false,
        }
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
        let precond =
            build_preconditioner(&fx.problem, &fx.subdomains, method, Some(&model), config)
                .unwrap();
        solve(&fx.problem.matrix, bs, precond.as_deref(), &opts)
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
    fn ddm_gnn_without_a_model_is_an_invalid_argument() {
        let fx = fixture();
        let config = HybridSolverConfig::default();
        let built =
            build_preconditioner(&fx.problem, &fx.subdomains, Method::DdmGnn, None, &config);
        assert!(matches!(built, Err(SparseError::InvalidArgument(_))));
    }

    #[test]
    fn malformed_subdomains_are_an_invalid_argument_for_both_methods_at_both_levels() {
        // A duplicated, reversed, out-of-range or empty sub-domain list is
        // rejected before any coarse component or local solve sees it.
        let fx = fixture();
        let model = Arc::new(fx.model.clone());
        let (first, n) = (&fx.subdomains[0], fx.problem.num_unknowns());
        let duplicated = [&first[..1], first].concat();
        let reversed = first.iter().rev().copied().collect();
        let out_of_range = [first.as_slice(), &[n]].concat();
        let multilevel = AsmLevel::Multilevel(MultilevelConfig { coarsest_max_size: 60 });
        for (case, bad) in [duplicated, reversed, out_of_range, Vec::new()].into_iter().enumerate()
        {
            let subdomains = [vec![bad], fx.subdomains[1..].to_vec()].concat();
            for (method, level) in [Method::DdmLu, Method::DdmGnn]
                .into_iter()
                .flat_map(|method| [(method, AsmLevel::TwoLevel), (method, multilevel)])
            {
                let config = HybridSolverConfig { level, ..Default::default() };
                let built =
                    build_preconditioner(&fx.problem, &subdomains, method, Some(&model), &config);
                let Err(SparseError::InvalidArgument(message)) = built else {
                    panic!("case {case}: {} at {level:?} accepted it", method.name());
                };
                assert!(message.starts_with("sub-domain 0:"), "case {case}: {message}");
            }
        }
    }

    #[test]
    fn hybrid_solver_f32_precision_converges() {
        let fx = fixture();
        let [o64, o32] = [Precision::F64, Precision::F32].map(|precision| {
            let config = HybridSolverConfig { precision, ..Default::default() };
            run(fx, Method::DdmGnn, &config, &[&fx.problem.rhs])
        });
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
        let [o64, oq] = [Precision::F64, Precision::Int8].map(|precision| {
            let config = HybridSolverConfig { precision, ..Default::default() };
            run(fx, Method::DdmGnn, &config, &[&fx.problem.rhs])
        });
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
            level: AsmLevel::Multilevel(MultilevelConfig { coarsest_max_size: 60 }),
            ..Default::default()
        };
        let gnn = run(fx, Method::DdmGnn, &config, &[&fx.problem.rhs]);
        assert!(gnn.stats().converged());
        assert!(
            krylov::true_relative_residual(&fx.problem.matrix, gnn.x(), &fx.problem.rhs) < 1e-5
        );
        let exact = run(fx, Method::DdmLu, &config, &[&fx.problem.rhs]);
        assert!(exact.stats().converged());
        assert!(sparse::vector::relative_error(exact.x(), gnn.x()) < 1e-4);
        assert!(exact.stats().iterations <= gnn.stats().iterations);
    }

    /// Over the shipped two-level f64 tier, the multiplicative multi-level
    /// shell, and an f32 tier whose ladder has an f64 rung above the exact
    /// method.
    #[test]
    fn resilient_config_is_transparent_when_fault_free() {
        let fx = fixture();
        let multilevel = AsmLevel::Multilevel(MultilevelConfig { coarsest_max_size: 60 });
        let cases = [
            (HybridSolverConfig::default(), "ddm-gnn-2level"),
            (HybridSolverConfig { level: multilevel, ..Default::default() }, "ddm-gnn-ml3"),
            (
                HybridSolverConfig { precision: Precision::F32, ..Default::default() },
                "ddm-gnn-2level-f32",
            ),
        ];
        for (base, tier) in cases {
            let resilient = HybridSolverConfig { resilient: true, ..base.clone() };
            let p = run(fx, Method::DdmGnn, &base, &[&fx.problem.rhs]);
            let r = run(fx, Method::DdmGnn, &resilient, &[&fx.problem.rhs]);
            assert!(p.stats().converged() && r.stats().converged(), "{tier}");
            // The guards only read r/z, so a fault-free supervised solve is
            // bit-identical to the unsupervised one.
            assert_eq!(p.x(), r.x(), "{tier}");
            assert_eq!(p.stats().iterations, r.stats().iterations, "{tier}");
            assert!(
                r.stats().faults.is_empty(),
                "fault-free {tier} solve reported faults: {:?}",
                r.stats().faults
            );
            assert_eq!(r.stats().faults.final_tier(), Some(tier));
        }
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
