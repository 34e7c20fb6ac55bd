//! Dense LU factorisation with partial pivoting.
//!
//! The paper solves the Nicolaides coarse problem `(R₀ A R₀ᵀ)⁻¹` with a direct
//! LU decomposition (Section III-A, step 1).  The coarse matrix is only
//! `K × K` where `K` is the number of sub-domains (at most ~1200 in the
//! paper's largest run), so a dense factorisation is the appropriate tool.
//! The same factorisation doubles as the reference "exact" solver in tests
//! and in the relative-error metric of Table II.

use crate::{CsrMatrix, Result, SparseError};

/// A dense LU factorisation `P A = L U` with partial pivoting.
#[derive(Debug, Clone)]
pub struct LuFactor {
    n: usize,
    /// Combined storage: strictly lower part of L (unit diagonal implied) and U.
    lu: Vec<f64>,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
}

impl LuFactor {
    /// Factor a square sparse matrix by eliminating on its dense row-major
    /// copy in place.  Intended for small systems (coarse problems,
    /// reference solves in tests).  Fails on (numerically) singular input.
    pub fn factor_csr(a: &CsrMatrix) -> Result<Self> {
        if a.nrows() != a.ncols() {
            return Err(SparseError::NotSquare { rows: a.nrows(), cols: a.ncols() });
        }
        let n = a.nrows();
        let mut lu = a.to_dense();
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Partial pivoting: find the largest entry in column k at or below row k.
            let mut pivot_row = k;
            let mut pivot_val = lu[k * n + k].abs();
            for r in (k + 1)..n {
                let v = lu[r * n + k].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-300 {
                return Err(SparseError::SingularMatrix { pivot: k, value: lu[k * n + k] });
            }
            if pivot_row != k {
                for c in 0..n {
                    lu.swap(k * n + c, pivot_row * n + c);
                }
                perm.swap(k, pivot_row);
            }
            let pivot = lu[k * n + k];
            for r in (k + 1)..n {
                let factor = lu[r * n + k] / pivot;
                lu[r * n + k] = factor;
                if factor != 0.0 {
                    for c in (k + 1)..n {
                        lu[r * n + c] -= factor * lu[k * n + c];
                    }
                }
            }
        }
        Ok(LuFactor { n, lu, perm })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solve `A x = b`, returning `x`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = vec![0.0; self.n];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solve `A x = b` into a preallocated `x` of the factor's dimension,
    /// without allocating.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<()> {
        for len in [b.len(), x.len()] {
            if len != self.n {
                return Err(SparseError::DimensionMismatch {
                    op: "lu_solve",
                    expected: (self.n, 1),
                    found: (len, 1),
                });
            }
        }
        let n = self.n;
        // Apply permutation: y = P b
        for (i, xi) in x.iter_mut().enumerate() {
            *xi = b[self.perm[i]];
        }
        // Forward substitution with unit lower triangular L.
        for i in 0..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[i * n + j] * x[j];
            }
            x[i] = acc;
        }
        // Backward substitution with U.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.lu[i * n + j] * x[j];
            }
            x[i] = acc / self.lu[i * n + i];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    /// The row-major `nrows × ncols` `data` as a sparse matrix.
    fn from_rows(nrows: usize, ncols: usize, data: &[f64]) -> CsrMatrix {
        let mut coo = CooMatrix::new(nrows, ncols);
        for (k, &v) in data.iter().enumerate() {
            coo.push(k / ncols, k % ncols, v).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn solve_identity() {
        let lu = LuFactor::factor_csr(&CsrMatrix::identity(4)).unwrap();
        let b = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(lu.solve(&b).unwrap(), b);
        assert_eq!(lu.dim(), 4);
    }

    #[test]
    fn solve_small_known_system() {
        // A = [[2, 1], [1, 3]], b = [3, 5] -> x = [0.8, 1.4]
        let lu = LuFactor::factor_csr(&from_rows(2, 2, &[2.0, 1.0, 1.0, 3.0])).unwrap();
        let x = lu.solve(&[3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // Without pivoting this matrix breaks immediately.
        let lu = LuFactor::factor_csr(&from_rows(2, 2, &[0.0, 1.0, 1.0, 0.0])).unwrap();
        let x = lu.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_rejected() {
        let a = from_rows(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        assert!(matches!(LuFactor::factor_csr(&a), Err(SparseError::SingularMatrix { .. })));
        let rect = CooMatrix::new(2, 3).to_csr();
        assert!(matches!(LuFactor::factor_csr(&rect), Err(SparseError::NotSquare { .. })));
    }

    #[test]
    fn random_system_residual_is_tiny() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 40;
        let mut data = vec![0.0; n * n];
        for v in &mut data {
            *v = rng.gen_range(-1.0..1.0);
        }
        // Make it diagonally dominant so it is comfortably nonsingular.
        for i in 0..n {
            data[i * n + i] += n as f64;
        }
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let b: Vec<f64> = data.chunks(n).map(|row| crate::vector::dot(row, &x_true)).collect();
        let lu = LuFactor::factor_csr(&from_rows(n, n, &data)).unwrap();
        let x = lu.solve(&b).unwrap();
        let err = crate::vector::relative_error(&x, &x_true);
        assert!(err < 1e-10, "relative error {err}");
    }

    #[test]
    fn factor_csr_matches_dense() {
        let mut coo = CooMatrix::new(3, 3);
        for i in 0..3 {
            coo.push(i, i, 4.0).unwrap();
        }
        coo.push(0, 1, -1.0).unwrap();
        coo.push(1, 0, -1.0).unwrap();
        coo.push(1, 2, -1.0).unwrap();
        coo.push(2, 1, -1.0).unwrap();
        let a = coo.to_csr();
        let lu = LuFactor::factor_csr(&a).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let x = lu.solve(&b).unwrap();
        let r: Vec<f64> = a.spmv(&x).iter().zip(b.iter()).map(|(ax, bi)| bi - ax).collect();
        assert!(crate::vector::norm2(&r) < 1e-12);
        let mut out = vec![0.0; 3];
        lu.solve_into(&b, &mut out).unwrap();
        assert_eq!(out, x);
        assert!(lu.solve(&[1.0]).is_err());
    }

    #[test]
    fn solve_into_rejects_a_wrong_length_output() {
        let lu = LuFactor::factor_csr(&CsrMatrix::identity(2)).unwrap();
        for len in [1, 3] {
            let found = (len, 1);
            let err = SparseError::DimensionMismatch { op: "lu_solve", expected: (2, 1), found };
            assert_eq!(lu.solve_into(&[3.0, 5.0], &mut vec![0.0; len]), Err(err));
        }
    }
}
