//! Zero-fill incomplete Cholesky factorisation, IC(0).
//!
//! IC(0) is the "legacy optimized preconditioner" baseline of the paper's
//! Table III.  The factorisation computes `A ≈ L Lᵀ` where `L` is constrained
//! to the sparsity pattern of the lower triangle of `A` (no fill-in), and the
//! preconditioner application solves the two triangular systems.

use crate::{CsrMatrix, Result, SparseError};

/// Incomplete Cholesky factorisation with zero fill-in.
#[derive(Debug, Clone)]
pub struct IncompleteCholesky {
    n: usize,
    /// Lower-triangular factor in CSR (row-wise, columns `<= row`, sorted).
    l: CsrMatrix,
}

impl IncompleteCholesky {
    /// Compute the IC(0) factorisation of a symmetric positive definite CSR
    /// matrix.  Only the lower triangle of `a` is read.
    ///
    /// When a pivot becomes non-positive (possible for incomplete
    /// factorisations even on SPD input), a standard diagonal-shift retry is
    /// applied: the whole diagonal is scaled by `1 + shift` with a growing
    /// shift until the factorisation succeeds.
    pub fn factor(a: &CsrMatrix) -> Result<Self> {
        if a.nrows() != a.ncols() {
            return Err(SparseError::NotSquare { rows: a.nrows(), cols: a.ncols() });
        }
        let mut shift = 0.0;
        for _attempt in 0..12 {
            match Self::factor_with_shift(a, shift) {
                Ok(ic) => return Ok(ic),
                Err(SparseError::NotPositiveDefinite { .. }) => {
                    shift = if shift == 0.0 { 1e-3 } else { shift * 10.0 };
                }
                Err(e) => return Err(e),
            }
        }
        Err(SparseError::InvalidArgument("IC(0) failed even with large diagonal shift".into()))
    }

    fn factor_with_shift(a: &CsrMatrix, shift: f64) -> Result<Self> {
        let n = a.nrows();
        // Extract the lower-triangular pattern and values of A.
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in 0..n {
            let (cols, vals) = a.row(r);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                if c < r {
                    col_idx.push(c);
                    values.push(v);
                } else if c == r {
                    col_idx.push(c);
                    values.push(v * (1.0 + shift));
                }
            }
            row_ptr.push(col_idx.len());
        }

        // Row-wise IKJ incomplete factorisation restricted to the pattern.
        // For each row i and each stored (i, j) with j < i:
        //   L[i][j] = (A[i][j] - Σ_{k<j, k in both patterns} L[i][k] L[j][k]) / L[j][j]
        // and the diagonal:
        //   L[i][i] = sqrt(A[i][i] - Σ_{k<i} L[i][k]^2)
        for i in 0..n {
            let (ri_lo, ri_hi) = (row_ptr[i], row_ptr[i + 1]);
            for idx in ri_lo..ri_hi {
                let j = col_idx[idx];
                if j < i {
                    // sparse dot of row i [cols < j] with row j [cols < j]
                    let (rj_lo, rj_hi) = (row_ptr[j], row_ptr[j + 1]);
                    let mut sum = 0.0;
                    let mut p = ri_lo;
                    let mut q = rj_lo;
                    while p < idx && q < rj_hi && col_idx[q] < j {
                        match col_idx[p].cmp(&col_idx[q]) {
                            std::cmp::Ordering::Less => p += 1,
                            std::cmp::Ordering::Greater => q += 1,
                            std::cmp::Ordering::Equal => {
                                sum += values[p] * values[q];
                                p += 1;
                                q += 1;
                            }
                        }
                    }
                    // diagonal of row j is its last stored entry
                    let djj = values[rj_hi - 1];
                    values[idx] = (values[idx] - sum) / djj;
                } else if j == i {
                    let mut sum = 0.0;
                    for k in ri_lo..idx {
                        sum += values[k] * values[k];
                    }
                    let d = values[idx] - sum;
                    if d <= 0.0 || !d.is_finite() {
                        return Err(SparseError::NotPositiveDefinite { row: i, value: d });
                    }
                    values[idx] = d.sqrt();
                }
            }
        }

        let l = CsrMatrix::from_raw_parts(n, n, row_ptr, col_idx, values)?;
        Ok(IncompleteCholesky { n, l })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Apply the preconditioner: solve `L Lᵀ z = r`.
    pub fn apply(&self, r: &[f64]) -> Result<Vec<f64>> {
        if r.len() != self.n {
            return Err(SparseError::DimensionMismatch {
                op: "ic0_apply",
                expected: (self.n, 1),
                found: (r.len(), 1),
            });
        }
        let n = self.n;
        let mut y = r.to_vec();
        // Forward solve L y = r
        for i in 0..n {
            let (cols, vals) = self.l.row(i);
            let mut acc = y[i];
            let mut diag = 1.0;
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                if c < i {
                    acc -= v * y[c];
                } else {
                    diag = v;
                }
            }
            y[i] = acc / diag;
        }
        // Backward solve Lᵀ z = y
        let mut z = y;
        for i in (0..n).rev() {
            let (cols, vals) = self.l.row(i);
            let diag = *vals.last().expect("row must contain its diagonal");
            let zi = z[i] / diag;
            z[i] = zi;
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                if c < i {
                    z[c] -= v * zi;
                }
            }
        }
        Ok(z)
    }

    /// Apply into a preallocated output buffer.
    pub fn apply_into(&self, r: &[f64], out: &mut [f64]) -> Result<()> {
        let z = self.apply(r)?;
        out.copy_from_slice(&z);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CooMatrix, SkylineCholesky};

    fn laplacian_1d(n: usize) -> CsrMatrix {
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
    fn tridiagonal_ic0_is_exact() {
        // For a tridiagonal SPD matrix the IC(0) pattern equals the exact
        // Cholesky pattern, so the preconditioner is an exact solver.
        let a = laplacian_1d(30);
        let ic = IncompleteCholesky::factor(&a).unwrap();
        let chol = SkylineCholesky::factor(&a).unwrap();
        let b: Vec<f64> = (0..30).map(|i| (i as f64).sin()).collect();
        let z = ic.apply(&b).unwrap();
        let x = chol.solve(&b).unwrap();
        assert!(crate::vector::relative_error(&z, &x) < 1e-10);
        assert_eq!(ic.dim(), 30);
    }

    #[test]
    fn factor_matrix_is_lower_triangular() {
        let a = laplacian_1d(10);
        let ic = IncompleteCholesky::factor(&a).unwrap();
        let l = &ic.l;
        for r in 0..l.nrows() {
            let (cols, _) = l.row(r);
            assert!(cols.iter().all(|&c| c <= r));
            assert_eq!(*cols.last().unwrap(), r, "diagonal must be stored");
        }
    }

    #[test]
    fn preconditioner_improves_residual_direction() {
        // z = M⁻¹ r should be a much better correction than r itself for an
        // ill-conditioned Laplacian: ‖b - A z‖ < ‖b - A (r/λmax-ish scaling)‖.
        let a = laplacian_1d(100);
        let ic = IncompleteCholesky::factor(&a).unwrap();
        let b = vec![1.0; 100];
        let z = ic.apply(&b).unwrap();
        let az = a.spmv(&z);
        let res_z: Vec<f64> = b.iter().zip(az.iter()).map(|(bi, ai)| bi - ai).collect();
        assert!(crate::vector::norm2(&res_z) < 1e-8, "tridiagonal IC0 should solve exactly");
    }

    #[test]
    fn rejects_rectangular_and_wrong_rhs() {
        let coo = CooMatrix::new(2, 3);
        assert!(IncompleteCholesky::factor(&coo.to_csr()).is_err());
        let a = laplacian_1d(4);
        let ic = IncompleteCholesky::factor(&a).unwrap();
        assert!(ic.apply(&[1.0]).is_err());
    }

    #[test]
    fn indefinite_matrix_falls_back_to_shift_or_errors() {
        // A matrix with a negative diagonal cannot be IC-factored even with
        // a positive multiplicative shift — expect a clean error, not a panic.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 1, -5.0).unwrap();
        let result = IncompleteCholesky::factor(&coo.to_csr());
        assert!(result.is_err());
    }

    #[test]
    fn apply_into_matches_apply() {
        let a = laplacian_1d(12);
        let ic = IncompleteCholesky::factor(&a).unwrap();
        let b: Vec<f64> = (0..12).map(|i| i as f64 - 6.0).collect();
        let z = ic.apply(&b).unwrap();
        let mut out = vec![0.0; 12];
        ic.apply_into(&b, &mut out).unwrap();
        assert_eq!(z, out);
    }

    #[test]
    fn ic0_on_2d_laplacian_is_spd_preconditioner() {
        // 5-point Laplacian on a small grid: IC(0) is inexact but must stay
        // SPD: zᵀ r > 0 for the PCG inner products to make sense.
        let nx = 8;
        let ny = 8;
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
        let a = coo.to_csr();
        let ic = IncompleteCholesky::factor(&a).unwrap();
        for seed in 0..5u64 {
            let r: Vec<f64> = (0..n)
                .map(|i| ((i as u64 * 2654435761 + seed) % 1000) as f64 / 500.0 - 1.0)
                .collect();
            let z = ic.apply(&r).unwrap();
            assert!(crate::vector::dot(&z, &r) > 0.0, "IC(0) application must stay SPD");
        }
    }
}
