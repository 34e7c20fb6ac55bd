//! Integration tests: both Krylov drivers — CG and PCG, one column or a
//! lockstep batch — solve a fixed 2D Laplacian to tolerance, and CG's
//! recorded residual history is monotonically non-increasing.

use krylov::{
    conjugate_gradient, preconditioned_conjugate_gradient, solve_batch, FaultKind,
    JacobiPreconditioner, SolveStats, SolverOptions, StopReason,
};
use sparse::{CooMatrix, CsrMatrix};

/// 2D 5-point Laplacian on an `nx × ny` grid (SPD, diagonally dominant).
fn laplacian_2d(nx: usize, ny: usize) -> CsrMatrix {
    let n = nx * ny;
    let idx = |i: usize, j: usize| i * ny + j;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..nx {
        for j in 0..ny {
            let me = idx(i, j);
            coo.push(me, me, 4.0).unwrap();
            if i > 0 {
                coo.push(me, idx(i - 1, j), -1.0).unwrap();
            }
            if i + 1 < nx {
                coo.push(me, idx(i + 1, j), -1.0).unwrap();
            }
            if j > 0 {
                coo.push(me, idx(i, j - 1), -1.0).unwrap();
            }
            if j + 1 < ny {
                coo.push(me, idx(i, j + 1), -1.0).unwrap();
            }
        }
    }
    coo.to_csr()
}

fn fixed_rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 13 % 17) as f64) - 8.0).collect()
}

const TOL: f64 = 1e-9;

#[test]
fn cg_solves_laplacian_to_tolerance() {
    let a = laplacian_2d(12, 12);
    let b = fixed_rhs(a.nrows());
    let result = conjugate_gradient(&a, &b, None, &SolverOptions::with_tolerance(TOL));
    assert!(result.stats.converged(), "CG failed: {:?}", result.stats);
    assert!(krylov::true_relative_residual(&a, &result.x, &b) < 10.0 * TOL);
}

#[test]
fn pcg_with_jacobi_solves_laplacian_to_tolerance() {
    let a = laplacian_2d(12, 12);
    let b = fixed_rhs(a.nrows());
    let jacobi = JacobiPreconditioner::new(&a);
    let result = preconditioned_conjugate_gradient(
        &a,
        &b,
        None,
        &jacobi,
        &SolverOptions::with_tolerance(TOL),
    );
    assert!(result.stats.converged(), "PCG failed: {:?}", result.stats);
    assert!(krylov::true_relative_residual(&a, &result.x, &b) < 10.0 * TOL);
}

/// PCG with a 2-column `solve_batch` of the same right-hand side twice: both
/// columns of the batch must be the one-column solve bit for bit.
fn pcg_and_batch(
    a: &CsrMatrix,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &SolverOptions,
) -> [SolveStats; 3] {
    let jacobi = JacobiPreconditioner::new(a);
    let single = preconditioned_conjugate_gradient(a, b, x0, &jacobi, opts);
    let x0s = x0.map(|x0| [x0, x0]);
    let batch = solve_batch(a, &[b, b], x0s.as_ref().map(|x0s| &x0s[..]), &jacobi, opts);
    for column in &batch {
        assert_eq!(column.x, single.x);
        assert_eq!(column.stats.history.norms(), single.stats.history.norms());
    }
    let mut columns = batch.into_iter().map(|column| column.stats);
    [single.stats, columns.next().unwrap(), columns.next().unwrap()]
}

#[test]
fn all_drivers_agree_on_the_solution() {
    let a = laplacian_2d(8, 8);
    let b = fixed_rhs(a.nrows());
    let b2: Vec<f64> = b.iter().map(|v| 0.5 * v + 1.0).collect();
    let opts = SolverOptions::with_tolerance(1e-11);
    let jacobi = JacobiPreconditioner::new(&a);
    let cg = conjugate_gradient(&a, &b, None, &opts);
    let pcg = preconditioned_conjugate_gradient(&a, &b, None, &jacobi, &opts);
    let batch = solve_batch(&a, &[&b, &b2], None, &jacobi, &opts);
    assert!(sparse::vector::relative_error(&cg.x, &pcg.x) < 1e-7);
    assert!(sparse::vector::relative_error(&cg.x, &batch[0].x) < 1e-7);
    let cg2 = conjugate_gradient(&a, &b2, None, &opts);
    assert!(sparse::vector::relative_error(&cg2.x, &batch[1].x) < 1e-7);
}

#[test]
fn cg_history_records_monotone_residual_norms() {
    let a = laplacian_2d(12, 12);
    let b = fixed_rhs(a.nrows());
    let result = conjugate_gradient(&a, &b, None, &SolverOptions::with_tolerance(TOL));
    let norms = result.stats.history.norms();
    assert!(norms.len() >= 2, "history must be recorded (got {} entries)", norms.len());
    // CG on an SPD, diagonally dominant Laplacian contracts the residual at
    // every step; allow a tiny tolerance for floating-point wiggle.
    for w in norms.windows(2) {
        assert!(
            w[1] <= w[0] * (1.0 + 1e-12),
            "residual history not monotone: {} -> {}",
            w[0],
            w[1]
        );
    }
    // The recorded final norm is consistent with convergence.
    assert!(norms.last().unwrap() / norms.first().unwrap() <= TOL * 10.0);
}

#[test]
fn zero_rhs_yields_zero_solution_immediately() {
    let a = laplacian_2d(6, 6);
    let b = vec![0.0; a.nrows()];
    let result = conjugate_gradient(&a, &b, None, &SolverOptions::default());
    assert!(result.stats.converged());
    assert!(result.x.iter().all(|&v| v.abs() < 1e-14));
}

/// Zero-rhs semantics regression (CG, PCG and a 2-column `solve_batch`):
/// `final_relative_residual` must follow the documented convention — `0.0`
/// for an exactly-zero final residual, `f64::INFINITY` for a nonzero one —
/// never the silent absolute residual it used to report.
#[test]
fn zero_rhs_relative_residual_semantics_across_all_solvers() {
    let a = laplacian_2d(5, 5);
    let n = a.nrows();
    let b = vec![0.0; n];
    let opts = SolverOptions::default();

    // From the zero initial guess every solver converges immediately with an
    // exactly-zero residual: the relative residual must be 0.0, not NaN and
    // not "the absolute residual" by accident.
    let [pcg, c0, c1] = pcg_and_batch(&a, &b, None, &opts);
    for s in [conjugate_gradient(&a, &b, None, &opts).stats, pcg, c0, c1] {
        assert!(s.converged());
        assert_eq!(s.iterations, 0);
        assert_eq!(s.final_residual, 0.0);
        assert_eq!(s.final_relative_residual, 0.0, "zero residual against zero rhs is 0.0");
    }

    // From a nonzero initial guess the solvers iterate x → 0 under the
    // absolute tolerance; whatever tiny residual remains, the reported
    // relative residual must be 0.0 (exact) or +∞ (nonzero) — and must agree
    // with the final absolute residual, not shadow it.
    let x0: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) * 0.25 - 0.75).collect();
    let [pcg, c0, c1] = pcg_and_batch(&a, &b, Some(&x0), &opts);
    for s in [conjugate_gradient(&a, &b, Some(&x0), &opts).stats, pcg, c0, c1] {
        assert!(s.converged(), "zero-rhs solve from nonzero guess must converge: {:?}", s);
        // The absolute floor of every threshold, `1e-14`.
        assert!(s.final_residual <= 1e-14);
        if s.final_residual == 0.0 {
            assert_eq!(s.final_relative_residual, 0.0);
        } else {
            assert!(
                s.final_relative_residual.is_infinite(),
                "nonzero residual against zero rhs must report infinity, got {}",
                s.final_relative_residual
            );
        }
    }
}

/// The mean reduction factor `(last / first)^(1 / steps)` of real zero-rhs
/// solves: the zero-step immediate exit records a single entry (no factor),
/// and a history that starts from a nonzero guess stays finite and
/// non-negative — never NaN from dividing by a zero first entry.
#[test]
fn zero_rhs_mean_reduction_factor_is_well_defined() {
    let a = laplacian_2d(5, 5);
    let n = a.nrows();
    let b = vec![0.0; n];
    let opts = SolverOptions::default();

    // Immediate convergence from the zero guess records only the initial
    // residual: a single entry has no per-step factor.
    let result = conjugate_gradient(&a, &b, None, &opts);
    assert!(result.stats.converged());
    assert_eq!(result.stats.history.norms(), &[0.0]);

    // From a nonzero guess the solver takes real steps toward x = 0.
    let x0: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) * 0.5 - 1.0).collect();
    let result = conjugate_gradient(&a, &b, Some(&x0), &opts);
    assert!(result.stats.converged());
    let norms = result.stats.history.norms();
    assert!(norms.len() >= 2 && norms[0] > 0.0, "{norms:?}");
    let f = (norms[norms.len() - 1] / norms[0]).powf(1.0 / (norms.len() - 1) as f64);
    assert!(f.is_finite() && f >= 0.0, "factor must be finite and non-negative, got {f}");
}

/// PCG on an indefinite matrix hits a non-positive curvature `p·Ap ≤ 0` in the
/// very first iteration: the exit must be a classified
/// `StopReason::Breakdown` carrying a `FaultKind::Breakdown` event on
/// `SolveStats::faults` — not a silent max-iterations grind.
#[test]
fn pcg_zero_curvature_breakdown_is_classified() {
    let n = 4;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        // diag(1, -1, 1, -1): indefinite, so some directions have p·Ap < 0.
        coo.push(i, i, if i % 2 == 0 { 1.0 } else { -1.0 }).unwrap();
    }
    let a = coo.to_csr();
    let b = vec![0.0, 1.0, 0.0, 1.0]; // excites only the negative eigenspace
    let jacobi = JacobiPreconditioner::new(&a);
    let result =
        preconditioned_conjugate_gradient(&a, &b, None, &jacobi, &SolverOptions::default());
    assert_eq!(result.stats.stop_reason, StopReason::Breakdown);
    let events = result.stats.faults.events();
    assert_eq!(events[0].kind, FaultKind::Breakdown);
    assert_eq!(events[0].tier, "pcg");
}
