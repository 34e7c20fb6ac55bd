//! DDM-LU: the Schwarz shell with exact local solves.
//!
//! The paper's DDM-LU baseline solves every local problem `Rᵢ A Rᵢᵀ vᵢ = Rᵢ r`
//! with a sparse direct factorisation (Eigen's sparse LU in the original C++
//! implementation).  The sub-domain matrices here are SPD Dirichlet
//! Laplacians, so the exact solver is the RCM + skyline Cholesky from the
//! `sparse` crate.

use rayon::prelude::*;
use sparse::{CsrMatrix, SkylineCholesky};

use crate::asm::{AsmLevel, LocalSolve, Schwarz};
use crate::multilevel::MultilevelConfig;
use crate::restriction::Restriction;
use crate::Decomposition;

/// The Schwarz preconditioner with exact local solvers, the paper's DDM-LU.
/// It keeps the paper's name, but like every [`Schwarz`] shell it composes
/// the local solves multiplicatively with a V-cycle under
/// [`AsmLevel::Multilevel`]; every other level adds them.
pub type AdditiveSchwarz = Schwarz<CholeskyLocalSolver>;

impl AdditiveSchwarz {
    /// Build the preconditioner from a global matrix, overlapping sub-domain
    /// index sets and the coarse component `level` selects.  Its name is
    /// `ddm-lu-1level`, `ddm-lu-2level` or `ddm-lu-ml<levels>`.
    pub fn new(
        matrix: &CsrMatrix,
        subdomains: Vec<Vec<usize>>,
        level: AsmLevel,
    ) -> sparse::Result<Self> {
        let Decomposition { restrictions, local_matrices, .. } =
            Decomposition::new(matrix, subdomains)?;
        Schwarz::build(
            matrix,
            restrictions,
            level,
            || local_matrices.par_iter().map(CholeskyLocalSolver::new).collect(),
            |tag| format!("ddm-lu-{tag}"),
        )
    }

    /// [`AdditiveSchwarz::new`] at [`AsmLevel::Multilevel`]: the V-cycle
    /// before and after the exact local solves.
    pub fn with_multilevel(
        matrix: &CsrMatrix,
        subdomains: Vec<Vec<usize>>,
        config: &MultilevelConfig,
    ) -> sparse::Result<Self> {
        Self::new(matrix, subdomains, AsmLevel::Multilevel(*config))
    }
}

/// A factorised local SPD operator: the exact [`LocalSolve`].
pub struct CholeskyLocalSolver {
    factor: SkylineCholesky,
}

impl CholeskyLocalSolver {
    /// Factor a local SPD matrix.
    pub fn new(matrix: &CsrMatrix) -> sparse::Result<Self> {
        Ok(CholeskyLocalSolver { factor: SkylineCholesky::factor(matrix)? })
    }
}

impl LocalSolve for CholeskyLocalSolver {
    /// `[rhs, sol, work]`: one column's restricted residual, its local
    /// solution and the solver's permuted intermediate.
    type Scratch = [Vec<f64>; 3];

    /// Restrict, solve and scatter column by column through the same
    /// contiguous buffers whatever `b` is.  A mismatched right-hand side is
    /// a classified error, not a panic.
    fn solve<R: AsRef<[f64]>>(
        &self,
        restriction: &Restriction,
        rs: &[R],
        [rhs, sol, work]: &mut Self::Scratch,
        panel: &mut [f64],
    ) -> sparse::Result<()> {
        let b = rs.len();
        rhs.resize(restriction.num_local(), 0.0);
        sol.resize(restriction.num_local(), 0.0);
        for (c, r) in rs.iter().enumerate() {
            restriction.restrict_into(r.as_ref(), rhs);
            self.factor.solve_scratch(rhs, work, sol)?;
            for (j, &v) in sol.iter().enumerate() {
                panel[j * b + c] = v;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::{CooMatrix, LuFactor};

    fn small_spd(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
            if i + 1 < n {
                coo.push(i, i + 1, -1.0).unwrap();
                coo.push(i + 1, i, -1.0).unwrap();
            }
        }
        coo.to_csr()
    }

    /// The `n × b` panel the local solve writes for `rs` on the sub-domain
    /// of all `n` nodes.
    fn panel(solver: &CholeskyLocalSolver, rs: &[&[f64]], n: usize) -> sparse::Result<Vec<f64>> {
        let mut out = vec![0.0; n * rs.len()];
        let all = Restriction::new((0..n).collect(), n);
        solver.solve(&all, rs, &mut Default::default(), &mut out)?;
        Ok(out)
    }

    #[test]
    fn solve_into_matches_solve_for_both_solvers() {
        let a = small_spd(30);
        let rhs: Vec<f64> = (0..30).map(|i| ((i * 11) % 7) as f64 - 3.0).collect();
        let chol = CholeskyLocalSolver::new(&a).unwrap();
        let lu = LuFactor::factor_csr(&a).unwrap();
        // The local solve's panel holds the factor's allocating solve.
        let expected = SkylineCholesky::factor(&a).unwrap().solve(&rhs).unwrap();
        assert_eq!(panel(&chol, &[&rhs], 30).unwrap(), expected);
        // The dense-LU reference agrees with itself the same way.
        let mut out = vec![0.0; 30];
        lu.solve_into(&rhs, &mut out).unwrap();
        assert_eq!(out, lu.solve(&rhs).unwrap());
    }

    #[test]
    fn mismatched_rhs_is_a_classified_error_not_a_panic() {
        let a = small_spd(10);
        let chol = CholeskyLocalSolver::new(&a).unwrap();
        // A restriction onto 7 nodes hands the 10-node factor a 7-entry rhs.
        let seven = Restriction::new((0..7).collect(), 10);
        let mut out = vec![0.0; 7];
        let r = vec![1.0; 10];
        assert!(chol.solve(&seven, &[&r], &mut Default::default(), &mut out).is_err());
    }

    #[test]
    fn cholesky_and_lu_agree() {
        let a = small_spd(25);
        let chol = CholeskyLocalSolver::new(&a).unwrap();
        let lu = LuFactor::factor_csr(&a).unwrap();
        assert_eq!(lu.dim(), 25);
        let rhs: Vec<f64> = (0..25).map(|i| (i as f64 * 0.3).sin()).collect();
        let x1 = panel(&chol, &[&rhs], 25).unwrap();
        let x2 = lu.solve(&rhs).unwrap();
        assert!(sparse::vector::relative_error(&x1, &x2) < 1e-10);
        // Verify it is actually a solution.
        let r: Vec<f64> = a.spmv(&x1).iter().zip(rhs.iter()).map(|(ax, b)| b - ax).collect();
        assert!(sparse::vector::norm2(&r) < 1e-10);
    }

    #[test]
    fn parallel_factorization_of_many_locals() {
        let mats: Vec<CsrMatrix> = (5..25).map(small_spd).collect();
        let solvers = mats
            .par_iter()
            .map(CholeskyLocalSolver::new)
            .collect::<sparse::Result<Vec<_>>>()
            .unwrap();
        assert_eq!(solvers.len(), 20);
        for (solver, mat) in solvers.iter().zip(mats.iter()) {
            let rhs = vec![1.0; mat.nrows()];
            let x = panel(solver, &[&rhs], mat.nrows()).unwrap();
            let r: Vec<f64> = mat.spmv(&x).iter().zip(rhs.iter()).map(|(ax, b)| b - ax).collect();
            assert!(sparse::vector::norm2(&r) < 1e-9);
        }
    }

    #[test]
    fn non_spd_local_matrix_is_rejected_by_cholesky() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 1, -1.0).unwrap();
        let a = coo.to_csr();
        assert!(CholeskyLocalSolver::new(&a).is_err());
        // ...but dense LU handles it.
        let lu = LuFactor::factor_csr(&a).unwrap();
        let x = lu.solve(&[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![2.0, -3.0]);
    }
}
