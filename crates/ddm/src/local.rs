//! Exact local (sub-domain) solvers.
//!
//! The paper's DDM-LU baseline solves every local problem `Rᵢ A Rᵢᵀ vᵢ = Rᵢ r`
//! with a sparse direct factorisation (Eigen's sparse LU in the original C++
//! implementation).  The sub-domain matrices here are SPD Dirichlet
//! Laplacians, so the exact solver is the RCM + skyline Cholesky from the
//! `sparse` crate.

use sparse::{CsrMatrix, SkylineCholesky};

/// A factorised local SPD operator that can solve `A_local x = rhs`
/// repeatedly.
///
/// Both entry points return `sparse::Result` so a mismatched right-hand side
/// is a classified error the Schwarz glue can route into fault
/// classification — not a panic that takes the whole solve down.
pub struct CholeskyLocalSolver {
    factor: SkylineCholesky,
}

impl CholeskyLocalSolver {
    /// Factor a local SPD matrix.
    pub fn new(matrix: &CsrMatrix) -> sparse::Result<Self> {
        Ok(CholeskyLocalSolver { factor: SkylineCholesky::factor(matrix)? })
    }

    /// Solve for one right-hand side.
    pub fn solve(&self, rhs: &[f64]) -> sparse::Result<Vec<f64>> {
        self.factor.solve(rhs)
    }

    /// Allocation-free solve: `work` is a caller-owned scratch buffer that is
    /// resized on first use and reused across calls, `out` receives the
    /// solution.
    pub fn solve_into(
        &self,
        rhs: &[f64],
        work: &mut Vec<f64>,
        out: &mut [f64],
    ) -> sparse::Result<()> {
        self.factor.solve_scratch(rhs, work, out)
    }

    /// Dimension of the local problem.
    pub fn dim(&self) -> usize {
        self.factor.dim()
    }
}

/// Factor every local matrix with the Cholesky solver, in parallel.
pub fn factor_all_cholesky(
    local_matrices: &[CsrMatrix],
) -> sparse::Result<Vec<CholeskyLocalSolver>> {
    use rayon::prelude::*;
    local_matrices.par_iter().map(CholeskyLocalSolver::new).collect::<Result<Vec<_>, _>>()
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

    #[test]
    fn solve_into_matches_solve_for_both_solvers() {
        let a = small_spd(30);
        let rhs: Vec<f64> = (0..30).map(|i| ((i * 11) % 7) as f64 - 3.0).collect();
        let chol = CholeskyLocalSolver::new(&a).unwrap();
        let lu = LuFactor::factor_csr(&a).unwrap();
        let mut work = Vec::new();
        let mut out = vec![0.0; 30];
        chol.solve_into(&rhs, &mut work, &mut out).unwrap();
        assert_eq!(out, chol.solve(&rhs).unwrap());
        // The dense-LU reference agrees with itself the same way.
        lu.solve_into(&rhs, &mut out).unwrap();
        assert_eq!(out, lu.solve(&rhs).unwrap());
    }

    #[test]
    fn mismatched_rhs_is_a_classified_error_not_a_panic() {
        let a = small_spd(10);
        let chol = CholeskyLocalSolver::new(&a).unwrap();
        let bad = vec![1.0; 7];
        assert!(chol.solve(&bad).is_err());
        let mut work = Vec::new();
        let mut out = vec![0.0; 10];
        assert!(chol.solve_into(&bad, &mut work, &mut out).is_err());
    }

    #[test]
    fn cholesky_and_lu_agree() {
        let a = small_spd(25);
        let chol = CholeskyLocalSolver::new(&a).unwrap();
        let lu = LuFactor::factor_csr(&a).unwrap();
        assert_eq!(chol.dim(), 25);
        assert_eq!(lu.dim(), 25);
        let rhs: Vec<f64> = (0..25).map(|i| (i as f64 * 0.3).sin()).collect();
        let x1 = chol.solve(&rhs).unwrap();
        let x2 = lu.solve(&rhs).unwrap();
        assert!(sparse::vector::relative_error(&x1, &x2) < 1e-10);
        // Verify it is actually a solution.
        let r: Vec<f64> = a.spmv(&x1).iter().zip(rhs.iter()).map(|(ax, b)| b - ax).collect();
        assert!(sparse::vector::norm2(&r) < 1e-10);
    }

    #[test]
    fn parallel_factorization_of_many_locals() {
        let mats: Vec<CsrMatrix> = (5..25).map(small_spd).collect();
        let solvers = factor_all_cholesky(&mats).unwrap();
        assert_eq!(solvers.len(), 20);
        for (solver, mat) in solvers.iter().zip(mats.iter()) {
            let rhs = vec![1.0; mat.nrows()];
            let x = solver.solve(&rhs).unwrap();
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
