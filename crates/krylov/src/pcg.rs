//! Preconditioned Conjugate Gradient — Algorithm 1 of the paper — for one
//! right-hand side or several in lockstep.
//!
//! The driver is written exactly as the paper states it: the preconditioner is
//! applied to the residual at every iteration (the step highlighted in red in
//! Algorithm 1), and convergence is declared on the recurrence residual norm
//! `‖rᵢ₊₁‖ < tol`.
//!
//! The update for the search direction uses the *flexible* (Polak–Ribière)
//! form `β = zᵢ₊₁·(rᵢ₊₁ - rᵢ) / zᵢ·rᵢ` instead of the classical
//! Fletcher–Reeves `β = zᵢ₊₁·rᵢ₊₁ / zᵢ·rᵢ`.  For a fixed SPD preconditioner
//! the two are identical in exact arithmetic, but the flexible form stays
//! convergent when the preconditioner varies between iterations — which the
//! DDM-GNN operator does, since DSS inference is a nonlinear map of the
//! residual (Notay, *Flexible Conjugate Gradients*, SIAM J. Sci. Comput.
//! 2000).  Two safeguards keep the iteration well-defined for arbitrary
//! learned preconditioners: a non-positive curvature `z·r ≤ 0` falls back to
//! the unpreconditioned residual direction for that step, and a negative `β`
//! is clamped to zero (a steepest-descent restart).  With these, the outer
//! Krylov method retains its convergence guarantee no matter how badly the
//! GNN is trained — the central robustness claim of the hybrid solver.
//!
//! [`solve_batch`] is the one recurrence body.  It runs one PCG instance per
//! right-hand side, advancing them in lockstep so the preconditioner sees all
//! still-active residuals at once through [`Preconditioner::apply_batch`]; for
//! the bandwidth-bound GNN preconditioner this amortises the weight/plan panel
//! traffic across the batch.  [`preconditioned_conjugate_gradient`] is its
//! one-column case.  Every per-column scalar (`α`, `β`, `ρ`, residual norms)
//! is computed from that column's vectors alone, and converged or broken-down
//! columns retire without perturbing the others, so column `c` of a batch is
//! bit-identical to a one-column solve of `bs[c]` whenever the preconditioner
//! honours the batched-apply contract of [`Preconditioner::apply_batch`].

use sparse::vector::{axpby, axpy, dot, norm2};
use sparse::CsrMatrix;

use crate::history::{relative_residual_norm, ConvergenceHistory, SolveStats, StopReason};
use crate::preconditioner::Preconditioner;
use crate::resilience::{FaultEvent, FaultKind, FaultLog};
use crate::{SolveResult, SolverOptions};

/// Solve `A x = b` with PCG using the supplied preconditioner: the one-column
/// [`solve_batch`].
///
/// `A` must be symmetric positive definite and the preconditioner symmetric
/// positive definite as an operator for the classical convergence theory to
/// hold; in practice the DDM-GNN preconditioner is only approximately
/// symmetric, which — as the paper observes — still converges reliably.
pub fn preconditioned_conjugate_gradient(
    a: &CsrMatrix,
    b: &[f64],
    x0: Option<&[f64]>,
    preconditioner: &dyn Preconditioner,
    opts: &SolverOptions,
) -> SolveResult {
    let x0s = x0.map(|x0| [x0]);
    solve_batch(a, &[b], x0s.as_ref().map(|x0s| &x0s[..]), preconditioner, opts).swap_remove(0)
}

/// Per-column mutable state of one lockstep PCG instance.
struct Column {
    x: Vec<f64>,
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    q: Vec<f64>,
    r_prev: Vec<f64>,
    rho: f64,
    rnorm: f64,
    bnorm: f64,
    threshold: f64,
    history: ConvergenceHistory,
    faults: FaultLog,
    stop: StopReason,
    iterations: usize,
    /// Still iterating (not converged / broken down / diverged).
    active: bool,
    /// Converged before the first preconditioner apply: the column carries
    /// no preconditioner faults, since no apply was made on its behalf.
    init_converged: bool,
}

/// One preconditioner apply over the still-active columns.
///
/// A one-column solve calls [`Preconditioner::apply`], which the trait
/// contract makes bit-identical to a one-column `apply_batch`; wrappers that
/// time or trace the two entry points apart thus still see a single-vector
/// solve as one.
fn apply_active(preconditioner: &dyn Preconditioner, cols: &mut [Column]) {
    if let [col] = cols {
        if col.active {
            preconditioner.apply(&col.r, &mut col.z);
        }
        return;
    }
    let (rs, mut zs): (Vec<&[f64]>, Vec<&mut [f64]>) = cols
        .iter_mut()
        .filter(|col| col.active)
        .map(|col| (col.r.as_slice(), col.z.as_mut_slice()))
        .unzip();
    if !rs.is_empty() {
        preconditioner.apply_batch(&rs, &mut zs);
    }
}

/// Solve `A x_c = bs[c]` for every column with lockstep flexible PCG, sharing
/// one [`Preconditioner::apply_batch`] across the active columns per outer
/// iteration.
///
/// `x0s`, when given, supplies one initial guess per column.  The returned
/// results are in column order; each column's `SolveStats` (iterations,
/// residual history, stop reason) matches a one-column solve of that column
/// bit-for-bit whenever the preconditioner honours the batched-apply
/// bit-identity contract.
pub fn solve_batch(
    a: &CsrMatrix,
    bs: &[&[f64]],
    x0s: Option<&[&[f64]]>,
    preconditioner: &dyn Preconditioner,
    opts: &SolverOptions,
) -> Vec<SolveResult> {
    assert_eq!(a.nrows(), a.ncols(), "PCG requires a square matrix");
    let n = a.nrows();
    assert_eq!(preconditioner.dim(), n, "preconditioner dimension mismatch");
    if let Some(x0s) = x0s {
        assert_eq!(x0s.len(), bs.len(), "PCG: one initial guess per right-hand side");
    }

    // r0 = b - A x0 per column; a column already below its threshold retires
    // before the first apply.
    let mut cols: Vec<Column> = bs
        .iter()
        .enumerate()
        .map(|(c, b)| {
            assert_eq!(b.len(), n, "PCG rhs length mismatch in column {c}");
            let x = match x0s {
                Some(x0s) => {
                    assert_eq!(x0s[c].len(), n, "PCG initial guess length mismatch in column {c}");
                    x0s[c].to_vec()
                }
                None => vec![0.0; n],
            };
            let bnorm = norm2(b);
            let threshold = opts.threshold(bnorm);
            let mut r = vec![0.0; n];
            a.residual_into(b, &x, &mut r);
            let rnorm = norm2(&r);
            let mut history = ConvergenceHistory::new();
            history.push(rnorm);
            let converged = rnorm <= threshold;
            Column {
                x,
                r,
                z: vec![0.0; n],
                p: Vec::new(),
                q: vec![0.0; n],
                r_prev: Vec::new(),
                rho: 0.0,
                rnorm,
                bnorm,
                threshold,
                history,
                faults: FaultLog::new(),
                stop: if converged { StopReason::Converged } else { StopReason::MaxIterations },
                iterations: if converged { 0 } else { opts.max_iterations },
                active: !converged,
                init_converged: converged,
            }
        })
        .collect();

    // z0 = M⁻¹ r0, p0 = z0.  Safeguard: a learned preconditioner may return a
    // direction with non-positive alignment z·r; fall back to the residual
    // itself so the step is still a descent direction for the SPD system.
    apply_active(preconditioner, &mut cols);
    for col in cols.iter_mut().filter(|c| c.active) {
        col.rho = dot(&col.r, &col.z);
        if col.rho <= 0.0 || !col.rho.is_finite() {
            col.z.copy_from_slice(&col.r);
            col.rho = col.rnorm * col.rnorm;
        }
        col.p = col.z.clone();
        col.r_prev = col.r.clone();
    }

    for iter in 0..opts.max_iterations {
        if cols.iter().all(|c| !c.active) {
            break;
        }
        for col in cols.iter_mut().filter(|c| c.active) {
            a.spmv_into(&col.p, &mut col.q);
            let pq = dot(&col.p, &col.q);
            if pq <= 0.0 || !pq.is_finite() {
                col.stop = StopReason::Breakdown;
                col.faults.record(FaultEvent::new(
                    FaultKind::Breakdown,
                    iter as u64,
                    "pcg",
                    format!("non-positive or non-finite curvature p·Ap = {pq}"),
                ));
                col.iterations = iter;
                col.active = false;
                continue;
            }
            let alpha = col.rho / pq;
            col.r_prev.copy_from_slice(&col.r);
            axpy(alpha, &col.p, &mut col.x);
            axpy(-alpha, &col.q, &mut col.r);
            col.rnorm = norm2(&col.r);
            col.history.push(col.rnorm);
            if !col.rnorm.is_finite() {
                col.stop = StopReason::Diverged;
                col.faults.record(FaultEvent::new(
                    FaultKind::NonFinite,
                    iter as u64,
                    "pcg",
                    "residual norm became non-finite",
                ));
                col.iterations = iter + 1;
                col.active = false;
                continue;
            }
            if col.rnorm <= col.threshold {
                col.stop = StopReason::Converged;
                col.iterations = iter + 1;
                col.active = false;
            }
        }
        // One shared apply for everything still running.
        apply_active(preconditioner, &mut cols);
        for col in cols.iter_mut().filter(|c| c.active) {
            let mut rho_new = dot(&col.r, &col.z);
            if rho_new <= 0.0 || !rho_new.is_finite() {
                // Safeguarded fallback: unpreconditioned residual direction.
                col.z.copy_from_slice(&col.r);
                rho_new = col.rnorm * col.rnorm;
            }
            // Flexible (Polak–Ribière) β; for a constant SPD preconditioner
            // z·r_prev vanishes and this equals the classical update.
            let beta = ((rho_new - dot(&col.z, &col.r_prev)) / col.rho).max(0.0);
            col.rho = rho_new;
            if col.rho == 0.0 {
                col.stop = StopReason::Breakdown;
                col.faults.record(FaultEvent::new(
                    FaultKind::Breakdown,
                    iter as u64,
                    "pcg",
                    "z·r vanished while the residual is above the threshold",
                ));
                col.iterations = iter + 1;
                col.active = false;
                continue;
            }
            // p = z + beta p
            axpby(1.0, &col.z, beta, &mut col.p);
        }
    }

    // The preconditioner's contained faults, collected once per solve, go to
    // every column that reached an apply.
    let mut shared = FaultLog::new();
    preconditioner.collect_faults(&mut shared);
    cols.into_iter()
        .map(|mut col| {
            if !col.init_converged {
                col.faults.merge(shared.clone());
            }
            SolveResult {
                x: col.x,
                stats: SolveStats {
                    iterations: col.iterations,
                    final_residual: col.rnorm,
                    final_relative_residual: relative_residual_norm(col.rnorm, col.bnorm),
                    stop_reason: col.stop,
                    history: col.history,
                    faults: col.faults,
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preconditioner::{Ic0Preconditioner, IdentityPreconditioner, JacobiPreconditioner};
    use crate::test_matrices::laplacian_2d;
    use crate::true_relative_residual;

    #[test]
    fn identity_preconditioner_matches_plain_cg() {
        let a = laplacian_2d(10, 10);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
        let opts = SolverOptions::with_tolerance(1e-8);
        let plain = crate::conjugate_gradient(&a, &b, None, &opts);
        let id = IdentityPreconditioner::new(n);
        let pcg = preconditioned_conjugate_gradient(&a, &b, None, &id, &opts);
        assert_eq!(plain.stats.iterations, pcg.stats.iterations);
        assert!(sparse::vector::relative_error(&plain.x, &pcg.x) < 1e-12);
    }

    #[test]
    fn ic0_reduces_iterations_vs_plain_cg() {
        let a = laplacian_2d(25, 25);
        let b = vec![1.0; a.nrows()];
        let opts = SolverOptions::with_tolerance(1e-8);
        let plain = crate::conjugate_gradient(&a, &b, None, &opts);
        let ic0 = Ic0Preconditioner::new(&a).unwrap();
        let pcg = preconditioned_conjugate_gradient(&a, &b, None, &ic0, &opts);
        assert!(pcg.stats.converged());
        assert!(
            pcg.stats.iterations < plain.stats.iterations,
            "IC(0) {} vs CG {}",
            pcg.stats.iterations,
            plain.stats.iterations
        );
        assert!(true_relative_residual(&a, &pcg.x, &b) < 1e-7);
    }

    #[test]
    fn jacobi_preconditioner_converges() {
        let a = laplacian_2d(12, 12);
        let b = vec![1.0; a.nrows()];
        let opts = SolverOptions::with_tolerance(1e-8);
        let jacobi = JacobiPreconditioner::new(&a);
        let result = preconditioned_conjugate_gradient(&a, &b, None, &jacobi, &opts);
        assert!(result.stats.converged());
        assert!(true_relative_residual(&a, &result.x, &b) < 1e-7);
    }

    #[test]
    fn converged_initial_guess_returns_immediately() {
        let a = laplacian_2d(6, 6);
        let x_true: Vec<f64> = (0..36).map(|i| i as f64 * 0.1).collect();
        let b = a.spmv(&x_true);
        let id = IdentityPreconditioner::new(36);
        let result = preconditioned_conjugate_gradient(
            &a,
            &b,
            Some(&x_true),
            &id,
            &SolverOptions::default(),
        );
        assert_eq!(result.stats.iterations, 0);
        assert!(result.stats.converged());
    }

    #[test]
    fn respects_iteration_cap() {
        let a = laplacian_2d(30, 30);
        let b = vec![1.0; a.nrows()];
        let id = IdentityPreconditioner::new(a.nrows());
        let opts = SolverOptions { max_iterations: 2, ..SolverOptions::with_tolerance(1e-14) };
        let result = preconditioned_conjugate_gradient(&a, &b, None, &id, &opts);
        assert_eq!(result.stats.iterations, 2);
        assert!(!result.stats.converged());
    }

    fn batch_rhs(n: usize, b: usize) -> Vec<Vec<f64>> {
        (0..b)
            .map(|c| (0..n).map(|i| ((i * (c + 3)) % 7) as f64 - 2.5 + 0.1 * c as f64).collect())
            .collect()
    }

    /// The batched driver must match b independent single solves bit-for-bit
    /// for a preconditioner with the default column-loop `apply_batch`.
    #[test]
    fn solve_batch_matches_sequential_solves_bitwise() {
        let a = laplacian_2d(14, 14);
        let n = a.nrows();
        let opts = SolverOptions::with_tolerance(1e-9);
        for nrhs in [1usize, 2, 4] {
            let rhs = batch_rhs(n, nrhs);
            let refs: Vec<&[f64]> = rhs.iter().map(|b| b.as_slice()).collect();
            let jacobi = JacobiPreconditioner::new(&a);
            let batched = solve_batch(&a, &refs, None, &jacobi, &opts);
            assert_eq!(batched.len(), nrhs);
            for (c, b) in rhs.iter().enumerate() {
                let single = preconditioned_conjugate_gradient(&a, b, None, &jacobi, &opts);
                assert_eq!(batched[c].x, single.x, "column {c}: solution diverged");
                assert_eq!(
                    batched[c].stats.iterations, single.stats.iterations,
                    "column {c}: iteration count diverged"
                );
                assert_eq!(
                    batched[c].stats.history.norms(),
                    single.stats.history.norms(),
                    "column {c}: residual history diverged"
                );
                assert_eq!(batched[c].stats.stop_reason, single.stats.stop_reason);
            }
        }
    }

    /// Converged columns retire from the batch: mixing an already-solved
    /// column with hard columns must not change anyone's stats.
    #[test]
    fn solve_batch_retires_converged_columns_independently() {
        let a = laplacian_2d(10, 10);
        let n = a.nrows();
        let opts = SolverOptions::with_tolerance(1e-8);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).cos()).collect();
        let solved_rhs = a.spmv(&x_true);
        let hard_rhs: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
        let refs: Vec<&[f64]> = vec![&solved_rhs, &hard_rhs];
        let guesses: Vec<&[f64]> = vec![&x_true, &x_true];
        let ic0 = Ic0Preconditioner::new(&a).unwrap();
        let batched = solve_batch(&a, &refs, Some(&guesses), &ic0, &opts);
        assert_eq!(batched[0].stats.iterations, 0, "pre-solved column must retire at init");
        assert!(batched[0].stats.converged());
        assert!(batched[0].stats.faults.is_empty());
        let single = preconditioned_conjugate_gradient(&a, &hard_rhs, Some(&x_true), &ic0, &opts);
        assert_eq!(batched[1].stats.iterations, single.stats.iterations);
        assert_eq!(batched[1].x, single.x);
        assert!(batched[1].stats.converged());
    }

    /// With the identity preconditioner the batch behaves like plain CG per
    /// column, and respects the iteration cap per column.
    #[test]
    fn solve_batch_respects_iteration_cap_per_column() {
        let a = laplacian_2d(20, 20);
        let n = a.nrows();
        let rhs = batch_rhs(n, 3);
        let refs: Vec<&[f64]> = rhs.iter().map(|b| b.as_slice()).collect();
        let id = IdentityPreconditioner::new(n);
        let opts = SolverOptions { max_iterations: 4, ..SolverOptions::with_tolerance(1e-14) };
        let batched = solve_batch(&a, &refs, None, &id, &opts);
        for (c, res) in batched.iter().enumerate() {
            assert_eq!(res.stats.iterations, 4, "column {c}");
            assert!(!res.stats.converged(), "column {c}");
        }
    }
}
