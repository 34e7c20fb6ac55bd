//! Unpreconditioned Conjugate Gradient — the "CG" baseline of Table I.

use sparse::vector::{axpby, axpy, dot, norm2};
use sparse::CsrMatrix;

use crate::history::{relative_residual_norm, ConvergenceHistory, SolveStats, StopReason};
use crate::resilience::{FaultEvent, FaultKind, FaultLog};
use crate::{SolveResult, SolverOptions};

/// Solve the SPD system `A x = b` with the Conjugate Gradient method.
///
/// `x0` provides the initial guess (pass `None` for the zero vector).  The
/// iteration stops when the recurrence residual norm drops below
/// `opts.threshold(‖b‖)` or the iteration cap is hit.
pub fn conjugate_gradient(
    a: &CsrMatrix,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &SolverOptions,
) -> SolveResult {
    assert_eq!(a.nrows(), a.ncols(), "CG requires a square matrix");
    assert_eq!(a.nrows(), b.len(), "CG rhs length mismatch");
    let n = b.len();

    let mut x = match x0 {
        Some(x0) => {
            assert_eq!(x0.len(), n, "CG initial guess length mismatch");
            x0.to_vec()
        }
        None => vec![0.0; n],
    };

    let bnorm = norm2(b);
    let threshold = opts.threshold(bnorm);
    let mut history = ConvergenceHistory::new();
    let mut faults = FaultLog::new();

    let mut r = vec![0.0; n];
    a.residual_into(b, &x, &mut r);
    let mut rnorm = norm2(&r);
    history.push(rnorm);
    if rnorm <= threshold {
        return SolveResult {
            x,
            stats: SolveStats {
                iterations: 0,
                final_residual: rnorm,
                final_relative_residual: relative_residual_norm(rnorm, bnorm),
                stop_reason: StopReason::Converged,
                history,
                faults,
            },
        };
    }

    let mut p = r.clone();
    let mut q = vec![0.0; n];
    let mut rho = dot(&r, &r);
    let mut stop = StopReason::MaxIterations;
    let mut iterations = opts.max_iterations;

    for iter in 0..opts.max_iterations {
        a.spmv_into(&p, &mut q);
        let pq = dot(&p, &q);
        if pq <= 0.0 || !pq.is_finite() {
            stop = StopReason::Breakdown;
            faults.record(FaultEvent::new(
                FaultKind::Breakdown,
                iter as u64,
                "cg",
                format!("non-positive or non-finite curvature p·Ap = {pq}"),
            ));
            iterations = iter;
            break;
        }
        let alpha = rho / pq;
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &q, &mut r);
        rnorm = norm2(&r);
        history.push(rnorm);
        if !rnorm.is_finite() {
            stop = StopReason::Diverged;
            faults.record(FaultEvent::new(
                FaultKind::NonFinite,
                iter as u64,
                "cg",
                "residual norm became non-finite",
            ));
            iterations = iter + 1;
            break;
        }
        if rnorm <= threshold {
            stop = StopReason::Converged;
            iterations = iter + 1;
            break;
        }
        let rho_new = dot(&r, &r);
        let beta = rho_new / rho;
        rho = rho_new;
        // p = r + beta p
        axpby(1.0, &r, beta, &mut p);
    }

    SolveResult {
        x,
        stats: SolveStats {
            iterations,
            final_residual: rnorm,
            final_relative_residual: relative_residual_norm(rnorm, bnorm),
            stop_reason: stop,
            history,
            faults,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_matrices::laplacian_2d;
    use crate::true_relative_residual;

    #[test]
    fn solves_laplacian_to_tolerance() {
        let a = laplacian_2d(15, 15);
        let n = a.nrows();
        let x_true: Vec<f64> = (0..n).map(|i| ((i % 13) as f64) * 0.3 - 1.0).collect();
        let b = a.spmv(&x_true);
        let opts = SolverOptions::with_tolerance(1e-10);
        let result = conjugate_gradient(&a, &b, None, &opts);
        assert!(result.stats.converged());
        assert!(true_relative_residual(&a, &result.x, &b) < 1e-9);
        assert!(sparse::vector::relative_error(&result.x, &x_true) < 1e-7);
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let a = laplacian_2d(4, 4);
        let b = vec![0.0; 16];
        let result = conjugate_gradient(&a, &b, None, &SolverOptions::default());
        assert_eq!(result.stats.iterations, 0);
        assert!(result.stats.converged());
        assert!(result.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let a = laplacian_2d(12, 12);
        let n = a.nrows();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).sin()).collect();
        let b = a.spmv(&x_true);
        let opts = SolverOptions::with_tolerance(1e-8);
        let cold = conjugate_gradient(&a, &b, None, &opts);
        // warm start very close to the solution
        let guess: Vec<f64> = x_true.iter().map(|v| v * 0.999).collect();
        let warm = conjugate_gradient(&a, &b, Some(&guess), &opts);
        assert!(warm.stats.iterations < cold.stats.iterations);
    }

    #[test]
    fn iteration_cap_is_respected() {
        let a = laplacian_2d(20, 20);
        let b = vec![1.0; a.nrows()];
        let opts = SolverOptions { max_iterations: 3, ..SolverOptions::with_tolerance(1e-14) };
        let result = conjugate_gradient(&a, &b, None, &opts);
        assert_eq!(result.stats.iterations, 3);
        assert_eq!(result.stats.stop_reason, StopReason::MaxIterations);
    }

    #[test]
    fn history_is_monotone_enough_and_recorded() {
        let a = laplacian_2d(10, 10);
        let b = vec![1.0; a.nrows()];
        let result = conjugate_gradient(&a, &b, None, &SolverOptions::with_tolerance(1e-8));
        let h = result.stats.history.norms();
        assert!(h.len() >= 2);
        assert!(h.last().unwrap() < h.first().unwrap());
    }

    #[test]
    fn iteration_count_grows_with_problem_size() {
        // The paper's Table I: plain CG iteration count grows strongly with N.
        let opts = SolverOptions::with_tolerance(1e-6);
        let mut iters = Vec::new();
        for &n in &[8usize, 16, 32] {
            let a = laplacian_2d(n, n);
            let b = vec![1.0; a.nrows()];
            let result = conjugate_gradient(&a, &b, None, &opts);
            assert!(result.stats.converged());
            iters.push(result.stats.iterations);
        }
        assert!(iters[2] > iters[1] && iters[1] > iters[0], "CG iterations {iters:?}");
    }
}
