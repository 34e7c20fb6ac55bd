//! Convergence bookkeeping shared by all Krylov drivers.

use crate::resilience::FaultLog;

/// Relative residual norm `‖r‖ / ‖b‖` with explicit zero-rhs semantics.
///
/// For `‖b‖ = 0` the quotient is ill-defined, and silently substituting the
/// absolute residual (as the solvers used to) makes the field lie about its
/// own definition.  The convention, used by every solver in this crate and by
/// [`crate::true_relative_residual`]:
///
/// * `bnorm > 0` → `rnorm / bnorm` (the ordinary definition);
/// * `bnorm == 0`, `rnorm == 0` → `0.0` (the exact solution `x = 0` of
///   `A x = 0` was found);
/// * `bnorm == 0`, `rnorm > 0` → [`f64::INFINITY`] (no nonzero residual is
///   "relatively small" against a zero right-hand side — judge such solves
///   by the absolute residual and the absolute tolerance instead).
pub fn relative_residual_norm(rnorm: f64, bnorm: f64) -> f64 {
    if bnorm > 0.0 {
        rnorm / bnorm
    } else if rnorm == 0.0 {
        0.0
    } else {
        f64::INFINITY
    }
}

/// Why the iteration stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The residual norm dropped below the requested threshold.
    Converged,
    /// The iteration cap was reached before convergence.
    MaxIterations,
    /// A breakdown occurred (zero denominator in a recurrence).
    Breakdown,
    /// The residual or iterate became non-finite.
    Diverged,
}

/// Residual-norm trace of a solve: the initial residual at index 0, then one
/// entry per iteration.
#[derive(Debug, Clone, Default)]
pub struct ConvergenceHistory {
    residual_norms: Vec<f64>,
}

impl ConvergenceHistory {
    /// Create an empty history.
    pub fn new() -> Self {
        ConvergenceHistory { residual_norms: Vec::new() }
    }

    /// Append a residual norm.
    pub fn push(&mut self, norm: f64) {
        self.residual_norms.push(norm);
    }

    /// The recorded norms, oldest first.
    pub fn norms(&self) -> &[f64] {
        &self.residual_norms
    }

    /// Relative norms with respect to the first recorded entry.
    pub fn relative(&self) -> Vec<f64> {
        match self.residual_norms.first() {
            Some(&first) if first > 0.0 => self.residual_norms.iter().map(|&r| r / first).collect(),
            _ => self.residual_norms.clone(),
        }
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.residual_norms.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.residual_norms.is_empty()
    }

    /// Average residual reduction factor per iteration (geometric mean),
    /// with explicit semantics for the degenerate endpoints (mirroring the
    /// zero-rhs contract of [`relative_residual_norm`]):
    ///
    /// * fewer than two entries, or a non-finite or negative endpoint →
    ///   `None` (no reduction is defined);
    /// * `first == 0` and `last == 0` → `Some(0.0)` (the solve started —
    ///   and stayed — at the exact solution; every step "reduced" an
    ///   already-zero residual);
    /// * `first == 0` and `last > 0` → `None` (the residual grew from
    ///   exact zero; no finite per-step factor describes that);
    /// * `first > 0` and `last == 0` → `Some(0.0)` (exact convergence);
    /// * otherwise → `(last / first)^(1 / steps)`.
    ///
    /// The old behaviour divided by `first` unconditionally for positive
    /// endpoints and let NaN/∞ endpoints fall through the `<= 0.0` guards,
    /// propagating non-finite factors to callers.
    pub fn mean_reduction_factor(&self) -> Option<f64> {
        let (Some(&first), Some(&last)) = (self.residual_norms.first(), self.residual_norms.last())
        else {
            return None;
        };
        if self.residual_norms.len() < 2 {
            return None;
        }
        if !first.is_finite() || !last.is_finite() || first < 0.0 || last < 0.0 {
            return None;
        }
        if last == 0.0 {
            // Covers first == 0 (already converged at entry) and first > 0
            // (exact convergence) alike.
            return Some(0.0);
        }
        if first == 0.0 {
            return None;
        }
        let steps = (self.residual_norms.len() - 1) as f64;
        Some((last / first).powf(1.0 / steps))
    }
}

/// Summary statistics for a completed solve.
#[derive(Debug, Clone)]
pub struct SolveStats {
    /// Number of iterations performed.
    pub iterations: usize,
    /// Final (preconditioned-solver reported) residual norm.
    pub final_residual: f64,
    /// Final residual norm relative to the right-hand side norm, with the
    /// zero-rhs semantics of [`relative_residual_norm`]: for `‖b‖ = 0` this
    /// is `0.0` when the final residual is exactly zero and
    /// [`f64::INFINITY`] otherwise (a zero-rhs solve should be judged by
    /// [`SolveStats::final_residual`] against the absolute tolerance).
    pub final_relative_residual: f64,
    /// Why the solver stopped.
    pub stop_reason: StopReason,
    /// Residual trace.
    pub history: ConvergenceHistory,
    /// Classified faults contained during the solve — breakdowns observed by
    /// the driver plus anything the preconditioner recorded internally
    /// (panics, non-finite outputs, downgrades of a resilience ladder).
    /// Empty on the healthy path.
    pub faults: FaultLog,
}

impl SolveStats {
    /// True when the solver reports convergence.
    pub fn converged(&self) -> bool {
        self.stop_reason == StopReason::Converged
    }

    /// True when any fault was contained or any ladder downgrade fired.
    pub fn degraded(&self) -> bool {
        !self.faults.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_history_is_scaled_by_first_entry() {
        let mut h = ConvergenceHistory::new();
        h.push(10.0);
        h.push(1.0);
        h.push(0.1);
        assert_eq!(h.relative(), vec![1.0, 0.1, 0.01]);
        assert_eq!(h.len(), 3);
        assert!(!h.is_empty());
    }

    #[test]
    fn mean_reduction_factor_geometric() {
        let mut h = ConvergenceHistory::new();
        h.push(1.0);
        h.push(0.1);
        h.push(0.01);
        let f = h.mean_reduction_factor().unwrap();
        assert!((f - 0.1).abs() < 1e-12);
        assert!(ConvergenceHistory::new().mean_reduction_factor().is_none());
    }

    #[test]
    fn mean_reduction_factor_degenerate_endpoints() {
        let push_all = |norms: &[f64]| {
            let mut h = ConvergenceHistory::new();
            for &v in norms {
                h.push(v);
            }
            h
        };
        // Single entry: no step, no factor.
        assert_eq!(push_all(&[0.0]).mean_reduction_factor(), None);
        // Zero-rhs solve converged at entry and stayed there: Some(0.0),
        // mirroring relative_residual_norm(0, 0) == 0.
        assert_eq!(push_all(&[0.0, 0.0]).mean_reduction_factor(), Some(0.0));
        assert_eq!(push_all(&[0.0, 0.0, 0.0]).mean_reduction_factor(), Some(0.0));
        // Exact convergence from a positive start.
        assert_eq!(push_all(&[1.0, 0.0]).mean_reduction_factor(), Some(0.0));
        // Residual grew from exact zero: undefined.
        assert_eq!(push_all(&[0.0, 1.0]).mean_reduction_factor(), None);
        // Non-finite endpoints (the old guards let these through as NaN/inf).
        assert_eq!(push_all(&[f64::NAN, 1.0]).mean_reduction_factor(), None);
        assert_eq!(push_all(&[f64::INFINITY, 1.0]).mean_reduction_factor(), None);
        assert_eq!(push_all(&[1.0, f64::NAN]).mean_reduction_factor(), None);
        assert_eq!(push_all(&[1.0, f64::INFINITY]).mean_reduction_factor(), None);
        // Negative norms are malformed input, not a reduction.
        assert_eq!(push_all(&[-1.0, 0.5]).mean_reduction_factor(), None);
    }

    #[test]
    fn stats_converged_flag() {
        let stats = SolveStats {
            iterations: 5,
            final_residual: 1e-8,
            final_relative_residual: 1e-9,
            stop_reason: StopReason::Converged,
            history: ConvergenceHistory::new(),
            faults: FaultLog::default(),
        };
        assert!(stats.converged());
        assert!(!stats.degraded());
        let stats = SolveStats { stop_reason: StopReason::MaxIterations, ..stats };
        assert!(!stats.converged());
    }

    #[test]
    fn empty_history_relative_is_empty() {
        let h = ConvergenceHistory::new();
        assert!(h.relative().is_empty());
        assert!(h.is_empty());
    }
}
