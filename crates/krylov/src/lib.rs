//! Krylov iterative solvers for sparse symmetric positive definite systems.
//!
//! The paper's hybrid solver is a flexible Preconditioned Conjugate Gradient
//! (Algorithm 1) whose preconditioner is the DDM-GNN operator.  This crate
//! provides that PCG driver — one lockstep body for one or several
//! right-hand sides, [`solve_batch`], of which
//! [`preconditioned_conjugate_gradient`] is the one-column case — together
//! with the unpreconditioned CG baseline of Table I.
//!
//! Preconditioners plug in through the [`Preconditioner`] trait; the identity,
//! Jacobi and IC(0) wrappers live here, the Schwarz and GNN preconditioners in
//! the `ddm` and `ddm-gnn` crates.  [`resilience`] supervises a stack of them
//! against faults.

// Library code must not panic via unwrap — the resilience supervisor relies
// on it (detlint enforces the wider contract; clippy carries this slice).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod cg;
pub mod history;
pub mod pcg;
pub mod preconditioner;
pub mod resilience;

pub use cg::conjugate_gradient;
pub use history::{ConvergenceHistory, SolveStats, StopReason};
pub use pcg::{preconditioned_conjugate_gradient, solve_batch};
pub use preconditioner::{Ic0Preconditioner, JacobiPreconditioner, Preconditioner};
pub use resilience::{
    DegradationLadder, FaultEvent, FaultInjectingPreconditioner, FaultKind, FaultLog, InjectedFault,
};

use history::relative_residual_norm;
use sparse::CsrMatrix;

/// Absolute residual tolerance of both drivers: the convergence threshold
/// when `‖b‖` is zero, and its floor otherwise.
const ABS_TOLERANCE: f64 = 1e-14;

/// Options shared by both Krylov drivers in this crate.  Both record the
/// residual norm of every iteration in the returned history.
#[derive(Debug, Clone)]
pub struct SolverOptions {
    /// Relative residual tolerance `‖rₖ‖ / ‖b‖` at which to declare convergence.
    pub rel_tolerance: f64,
    /// Hard cap on the number of iterations.
    pub max_iterations: usize,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions { rel_tolerance: 1e-6, max_iterations: 10_000 }
    }
}

impl SolverOptions {
    /// Convenience constructor with the given relative tolerance.
    pub fn with_tolerance(rel_tolerance: f64) -> Self {
        SolverOptions { rel_tolerance, ..Default::default() }
    }

    /// Builder-style setter for the iteration cap.
    pub fn max_iterations(mut self, max: usize) -> Self {
        self.max_iterations = max;
        self
    }

    /// The residual threshold for a right-hand side of norm `bnorm`: the
    /// relative tolerance, floored at an absolute `1e-14`.
    pub(crate) fn threshold(&self, bnorm: f64) -> f64 {
        (self.rel_tolerance * bnorm).max(ABS_TOLERANCE)
    }
}

/// Result of a linear solve: the approximate solution plus statistics.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// Approximate solution vector.
    pub x: Vec<f64>,
    /// Statistics (iterations, final residual, convergence flag, history).
    pub stats: SolveStats,
}

/// Compute the true relative residual `‖b - A x‖ / ‖b‖`, with the zero-rhs
/// semantics of [`SolveStats::final_relative_residual`] (0 for a zero
/// residual, infinite otherwise).
pub fn true_relative_residual(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
    let mut r = vec![0.0; b.len()];
    a.residual_into(b, x, &mut r);
    relative_residual_norm(sparse::vector::norm2(&r), sparse::vector::norm2(b))
}

#[cfg(test)]
pub(crate) mod test_matrices {
    //! Matrices shared by the solver tests.
    use sparse::{CooMatrix, CsrMatrix};

    /// 2D 5-point Laplacian on an `nx × ny` grid (SPD).
    pub fn laplacian_2d(nx: usize, ny: usize) -> CsrMatrix {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_threshold_uses_relative_and_absolute_floors() {
        let opts = SolverOptions::with_tolerance(1e-6);
        assert!((opts.threshold(100.0) - 1e-4).abs() < 1e-18);
        assert_eq!(opts.threshold(0.0), ABS_TOLERANCE);
        let opts = opts.max_iterations(3);
        assert_eq!(opts.max_iterations, 3);
    }

    #[test]
    fn true_relative_residual_zero_for_exact_solution() {
        let a = test_matrices::laplacian_2d(4, 4);
        let x: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let b = a.spmv(&x);
        assert!(true_relative_residual(&a, &x, &b) < 1e-14);
        let zero_b = vec![0.0; 16];
        let zero_x = vec![0.0; 16];
        assert_eq!(true_relative_residual(&a, &zero_x, &zero_b), 0.0);
    }
}
