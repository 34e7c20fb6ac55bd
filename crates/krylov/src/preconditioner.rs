//! The preconditioner abstraction and the simple built-in preconditioners.
//!
//! A preconditioner maps a residual vector `r` to a correction `z ≈ A⁻¹ r`.
//! The DDM-GNN and Schwarz preconditioners of the paper implement this trait
//! in their own crates; here we provide the identity (plain CG), Jacobi
//! (diagonal scaling) and IC(0) wrappers used as baselines.

use sanitizer::TrackedMutex;
use std::sync::atomic::{AtomicU64, Ordering};

use sparse::{CsrMatrix, IncompleteCholesky};

use crate::resilience::{FaultEvent, FaultKind, FaultLog};

/// Maps a residual to a correction, `z = M⁻¹ r`.
///
/// Implementations must be `Send + Sync` so the solve drivers can be used from
/// parallel benchmark harnesses.
pub trait Preconditioner: Send + Sync {
    /// Apply the preconditioner: write `z = M⁻¹ r` into `z`.
    ///
    /// `z` and `r` always have the same length (the system dimension).
    fn apply(&self, r: &[f64], z: &mut [f64]);

    /// Apply the preconditioner to a batch of residuals at once: write
    /// `zs[c] = M⁻¹ rs[c]` for every column `c`.
    ///
    /// The default loops over the columns with [`Preconditioner::apply`], so
    /// every existing preconditioner works unchanged; bandwidth-bound
    /// implementations (the DDM-GNN apply in particular) override this to
    /// stream their weight/plan panels once for all columns.  Implementations
    /// must keep each column's result bit-identical to an unbatched `apply`
    /// of that column alone.
    fn apply_batch(&self, rs: &[&[f64]], zs: &mut [&mut [f64]]) {
        assert_eq!(rs.len(), zs.len(), "batched apply: rs/zs column count mismatch");
        for (r, z) in rs.iter().zip(zs.iter_mut()) {
            self.apply(r, z);
        }
    }

    /// Dimension of vectors this preconditioner acts on.
    fn dim(&self) -> usize;

    /// A short human-readable name used by the benchmark harness tables.
    fn name(&self) -> &str {
        "preconditioner"
    }

    /// Append any faults this preconditioner contained internally (since its
    /// construction) to `into`.  The solve drivers call this once at the end
    /// of a solve so contained faults surface on
    /// [`crate::SolveStats::faults`].  The default records nothing.
    fn collect_faults(&self, _into: &mut FaultLog) {}
}

/// Boxed trait objects forward every entry point, so ladder tiers
/// (`Box<dyn Preconditioner>`) compose with the generic wrappers — e.g.
/// `FaultInjectingPreconditioner<Box<dyn Preconditioner>>`.
impl Preconditioner for Box<dyn Preconditioner> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        (**self).apply(r, z);
    }

    fn apply_batch(&self, rs: &[&[f64]], zs: &mut [&mut [f64]]) {
        (**self).apply_batch(rs, zs);
    }

    fn dim(&self) -> usize {
        (**self).dim()
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn collect_faults(&self, into: &mut FaultLog) {
        (**self).collect_faults(into);
    }
}

/// The identity preconditioner: `z = r` (turns PCG into plain CG).
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct IdentityPreconditioner {
    n: usize,
}

#[cfg(test)]
impl IdentityPreconditioner {
    /// Identity acting on vectors of length `n`.
    pub(crate) fn new(n: usize) -> Self {
        IdentityPreconditioner { n }
    }
}

#[cfg(test)]
impl Preconditioner for IdentityPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }

    fn dim(&self) -> usize {
        self.n
    }

    fn name(&self) -> &str {
        "identity"
    }
}

/// Jacobi (diagonal) preconditioner: `z_i = r_i / A_ii`.
#[derive(Debug, Clone)]
pub struct JacobiPreconditioner {
    inv_diag: Vec<f64>,
}

impl JacobiPreconditioner {
    /// Build from the diagonal of `a`.  Zero diagonal entries are treated as 1
    /// so the operator stays well defined (they do not occur for assembled
    /// Poisson matrices).
    pub fn new(a: &CsrMatrix) -> Self {
        let inv_diag = a
            .diagonal()
            .into_iter()
            .map(|d| if d.abs() <= f64::EPSILON { 1.0 } else { 1.0 / d })
            .collect();
        JacobiPreconditioner { inv_diag }
    }
}

impl Preconditioner for JacobiPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        for i in 0..r.len() {
            z[i] = r[i] * self.inv_diag[i];
        }
    }

    fn dim(&self) -> usize {
        self.inv_diag.len()
    }

    fn name(&self) -> &str {
        "jacobi"
    }
}

/// IC(0) incomplete-Cholesky preconditioner (the paper's Table III baseline).
pub struct Ic0Preconditioner {
    factor: IncompleteCholesky,
    applies: AtomicU64,
    faults: TrackedMutex<FaultLog>,
}

impl Ic0Preconditioner {
    /// Factor the matrix with zero fill-in.
    pub fn new(a: &CsrMatrix) -> sparse::Result<Self> {
        Ok(Ic0Preconditioner {
            factor: IncompleteCholesky::factor(a)?,
            applies: AtomicU64::new(0),
            faults: TrackedMutex::new(
                FaultLog::new(),
                "krylov::preconditioner::Ic0Preconditioner::faults",
            ),
        })
    }
}

impl Preconditioner for Ic0Preconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let idx = self.applies.fetch_add(1, Ordering::SeqCst);
        if let Err(e) = self.factor.apply_into(r, z) {
            // A classified error (dimension mismatch), not a panic: fall back
            // to the identity correction when shapes admit it (zeros
            // otherwise) and record the fault so it surfaces on SolveStats.
            if z.len() == r.len() {
                z.copy_from_slice(r);
            } else {
                for v in z.iter_mut() {
                    *v = 0.0;
                }
            }
            self.faults.lock().record(FaultEvent::new(
                FaultKind::NumericalError,
                idx,
                "ic0",
                format!("{e}; identity fallback engaged"),
            ));
        }
    }

    fn dim(&self) -> usize {
        self.factor.dim()
    }

    fn name(&self) -> &str {
        "ic0"
    }

    fn collect_faults(&self, into: &mut FaultLog) {
        into.merge(self.faults.lock().clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_matrices::laplacian_2d;

    #[test]
    fn identity_copies_input() {
        let p = IdentityPreconditioner::new(3);
        let r = [1.0, 2.0, 3.0];
        let mut z = [0.0; 3];
        p.apply(&r, &mut z);
        assert_eq!(z, r);
        assert_eq!(p.dim(), 3);
        assert_eq!(p.name(), "identity");
    }

    #[test]
    fn jacobi_scales_by_inverse_diagonal() {
        let a = laplacian_2d(3, 3);
        let p = JacobiPreconditioner::new(&a);
        let r = vec![4.0; 9];
        let mut z = vec![0.0; 9];
        p.apply(&r, &mut z);
        assert!(z.iter().all(|&v| (v - 1.0).abs() < 1e-14));
        assert_eq!(p.dim(), 9);
    }

    #[test]
    fn ic0_wrapper_is_spd_application() {
        let a = laplacian_2d(6, 6);
        let p = Ic0Preconditioner::new(&a).unwrap();
        let r: Vec<f64> = (0..36).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let mut z = vec![0.0; 36];
        p.apply(&r, &mut z);
        assert!(sparse::vector::dot(&z, &r) > 0.0);
        assert_eq!(p.name(), "ic0");
        assert_eq!(p.dim(), 36);
    }

    #[test]
    fn ic0_dimension_mismatch_is_classified_not_a_panic() {
        let a = laplacian_2d(4, 4);
        let p = Ic0Preconditioner::new(&a).unwrap();
        // Wrong-length vectors: apply survives with the identity fallback
        // plus a recorded fault instead of the old `.expect` panic.
        let r_bad = vec![1.0; 7];
        let mut z_bad = vec![0.0; 7];
        p.apply(&r_bad, &mut z_bad);
        assert_eq!(z_bad, r_bad);
        let mut log = FaultLog::new();
        p.collect_faults(&mut log);
        assert_eq!(log.events()[0].kind, FaultKind::NumericalError);
        assert_eq!(log.events()[0].tier, "ic0");
    }
}
