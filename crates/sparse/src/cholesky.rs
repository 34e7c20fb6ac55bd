//! Envelope (skyline) Cholesky factorisation with RCM reordering.
//!
//! This is the exact sub-domain solver behind the paper's DDM-LU baseline
//! (the paper uses Eigen's sparse LU; the sub-domain matrices are symmetric
//! positive definite Dirichlet Laplacians, so a Cholesky factorisation is the
//! natural equivalent).  The factorisation stores, for every row, the segment
//! from its first nonzero column to the diagonal ("skyline"), which after an
//! RCM reordering of a planar FEM matrix stays narrow.

use crate::rcm::{permute_symmetric, reverse_cuthill_mckee};
use crate::{CsrMatrix, Result, SparseError};

/// Sparse SPD factorisation `A = L Lᵀ` in skyline storage, with an internal
/// RCM permutation applied transparently by [`SkylineCholesky::solve`].
#[derive(Debug, Clone)]
pub struct SkylineCholesky {
    n: usize,
    /// `perm[new] = old` RCM permutation (identity when `n == 0`).
    perm: Vec<usize>,
    /// Inverse permutation: `inv[old] = new`.
    inv: Vec<usize>,
    /// For each (permuted) row `i`, the column index of the first entry stored.
    first_col: Vec<usize>,
    /// Start offset of row `i` in `data`.
    row_start: Vec<usize>,
    /// Packed rows of L: row `i` stores columns `first_col[i]..=i`.
    data: Vec<f64>,
}

impl SkylineCholesky {
    /// Factor a symmetric positive definite CSR matrix.
    ///
    /// The matrix must be square and (numerically) symmetric; only the lower
    /// triangle is read.  Returns an error if a non-positive pivot appears.
    pub fn factor(a: &CsrMatrix) -> Result<Self> {
        if a.nrows() != a.ncols() {
            return Err(SparseError::NotSquare { rows: a.nrows(), cols: a.ncols() });
        }
        let n = a.nrows();
        if n == 0 {
            return Ok(SkylineCholesky {
                n,
                perm: vec![],
                inv: vec![],
                first_col: vec![],
                row_start: vec![0],
                data: vec![],
            });
        }
        let perm = reverse_cuthill_mckee(a);
        let mut inv = vec![0usize; n];
        for (new, &old) in perm.iter().enumerate() {
            inv[old] = new;
        }
        let ap = permute_symmetric(a, &perm);

        // Envelope structure: first nonzero column of each row (lower triangle).
        let mut first_col = vec![0usize; n];
        for i in 0..n {
            let (cols, _) = ap.row(i);
            let mut fc = i;
            for &c in cols {
                if c <= i {
                    fc = fc.min(c);
                }
            }
            first_col[i] = fc;
        }
        let mut row_start = vec![0usize; n + 1];
        for i in 0..n {
            row_start[i + 1] = row_start[i] + (i - first_col[i] + 1);
        }
        let mut data = vec![0.0; row_start[n]];

        // Scatter the lower triangle of the permuted matrix into the envelope.
        for i in 0..n {
            let (cols, vals) = ap.row(i);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                if c <= i {
                    let off = row_start[i] + (c - first_col[i]);
                    data[off] = v;
                }
            }
        }

        // In-place envelope Cholesky (row-oriented, "active column" variant).
        //
        //   L[i][j] = (A[i][j] - Σ_{k} L[i][k] L[j][k]) / L[j][j]
        //   L[i][i] = sqrt(A[i][i] - Σ_{k} L[i][k]^2)
        for i in 0..n {
            let fi = first_col[i];
            for j in fi..i {
                let fj = first_col[j];
                let lo = fi.max(fj);
                // dot product of row i segment [lo, j) with row j segment [lo, j)
                let mut sum = 0.0;
                if lo < j {
                    let ri = row_start[i] + (lo - fi);
                    let rj = row_start[j] + (lo - fj);
                    let len = j - lo;
                    for k in 0..len {
                        sum += data[ri + k] * data[rj + k];
                    }
                }
                let djj = data[row_start[j] + (j - fj)];
                let off_ij = row_start[i] + (j - fi);
                data[off_ij] = (data[off_ij] - sum) / djj;
            }
            // diagonal
            let mut sum = 0.0;
            let ri = row_start[i];
            for k in 0..(i - fi) {
                sum += data[ri + k] * data[ri + k];
            }
            let off_ii = row_start[i] + (i - fi);
            let dii = data[off_ii] - sum;
            if dii <= 0.0 || !dii.is_finite() {
                return Err(SparseError::NotPositiveDefinite { row: i, value: dii });
            }
            data[off_ii] = dii.sqrt();
        }

        Ok(SkylineCholesky { n, perm, inv, first_col, row_start, data })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solve `A x = b`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut out = vec![0.0; self.n];
        let mut work = Vec::new();
        self.solve_scratch(b, &mut work, &mut out)?;
        Ok(out)
    }

    /// Allocation-free solve: the permuted intermediate lives in `work`
    /// (resized on first use, reused afterwards) and the result is written to
    /// `out`.  This is the form the Schwarz preconditioner calls once per
    /// sub-domain per Krylov iteration.
    pub fn solve_scratch(&self, b: &[f64], work: &mut Vec<f64>, out: &mut [f64]) -> Result<()> {
        if b.len() != self.n {
            return Err(SparseError::DimensionMismatch {
                op: "cholesky_solve",
                expected: (self.n, 1),
                found: (b.len(), 1),
            });
        }
        if out.len() != self.n {
            return Err(SparseError::DimensionMismatch {
                op: "cholesky_solve",
                expected: (self.n, 1),
                found: (out.len(), 1),
            });
        }
        let n = self.n;
        if n == 0 {
            return Ok(());
        }
        work.resize(n, 0.0);
        let x = work.as_mut_slice();
        // permute rhs: x[new] = b[perm[new]]
        for i in 0..n {
            x[i] = b[self.perm[i]];
        }
        // Forward solve L y = b
        for i in 0..n {
            let fi = self.first_col[i];
            let ri = self.row_start[i];
            let mut acc = x[i];
            for (k, j) in (fi..i).enumerate() {
                acc -= self.data[ri + k] * x[j];
            }
            x[i] = acc / self.data[ri + (i - fi)];
        }
        // Backward solve Lᵀ x = y (column sweep over the envelope rows).
        for i in (0..n).rev() {
            let fi = self.first_col[i];
            let ri = self.row_start[i];
            let xi = x[i] / self.data[ri + (i - fi)];
            x[i] = xi;
            for (k, j) in (fi..i).enumerate() {
                x[j] -= self.data[ri + k] * xi;
            }
        }
        // un-permute: out[old] = x[inv[old]]
        for old in 0..n {
            out[old] = x[self.inv[old]];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CooMatrix, LuFactor};
    use rand::prelude::*;
    use rand::rngs::StdRng;

    /// 2D 5-point Laplacian on an `nx × ny` grid — an SPD matrix with the same
    /// structure class as the FEM sub-domain matrices.
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

    #[test]
    fn solve_identity() {
        let a = CsrMatrix::identity(5);
        let chol = SkylineCholesky::factor(&a).unwrap();
        let b = vec![1.0, -2.0, 3.0, 0.0, 5.0];
        assert_eq!(chol.solve(&b).unwrap(), b);
        assert_eq!(chol.dim(), 5);
    }

    #[test]
    fn solve_2d_laplacian_matches_lu() {
        let a = laplacian_2d(9, 7);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 13 % 17) as f64) - 8.0).collect();
        let chol = SkylineCholesky::factor(&a).unwrap();
        let lu = LuFactor::factor_csr(&a).unwrap();
        let x1 = chol.solve(&b).unwrap();
        let x2 = lu.solve(&b).unwrap();
        let err = crate::vector::relative_error(&x1, &x2);
        assert!(err < 1e-10, "Cholesky vs LU mismatch: {err}");
    }

    #[test]
    fn residual_is_tiny_on_random_spd() {
        let mut rng = StdRng::seed_from_u64(42);
        // Random sparse SPD matrix: A = B Bᵀ + n I with B banded random.
        let n = 60;
        let mut dense = vec![0.0; n * n];
        for i in 0..n {
            for j in i.saturating_sub(3)..=(i + 3).min(n - 1) {
                dense[i * n + j] = rng.gen_range(-1.0..1.0);
            }
        }
        // A = B Bᵀ + n I  (dense build, then sparsify)
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += dense[i * n + k] * dense[j * n + k];
                }
                a[i * n + j] = acc + if i == j { n as f64 } else { 0.0 };
            }
        }
        let mut coo = CooMatrix::new(n, n);
        for (k, &v) in a.iter().enumerate().filter(|(_, v)| v.abs() > 1e-14) {
            coo.push(k / n, k % n, v).unwrap();
        }
        let a = coo.to_csr();
        let chol = SkylineCholesky::factor(&a).unwrap();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).cos()).collect();
        let b = a.spmv(&x_true);
        let x = chol.solve(&b).unwrap();
        assert!(crate::vector::relative_error(&x, &x_true) < 1e-9);
    }

    #[test]
    fn non_spd_is_rejected() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 1, -1.0).unwrap();
        let a = coo.to_csr();
        assert!(matches!(
            SkylineCholesky::factor(&a),
            Err(SparseError::NotPositiveDefinite { .. })
        ));
        let rect_coo = CooMatrix::new(2, 3);
        assert!(matches!(
            SkylineCholesky::factor(&rect_coo.to_csr()),
            Err(SparseError::NotSquare { .. })
        ));
    }

    #[test]
    fn empty_matrix_and_wrong_rhs() {
        let a = CsrMatrix::identity(0);
        let chol = SkylineCholesky::factor(&a).unwrap();
        assert_eq!(chol.solve(&[]).unwrap(), Vec::<f64>::new());
        let a = CsrMatrix::identity(3);
        let chol = SkylineCholesky::factor(&a).unwrap();
        assert!(chol.solve(&[1.0]).is_err());
    }

    #[test]
    fn envelope_is_smaller_than_dense() {
        let a = laplacian_2d(20, 20);
        let chol = SkylineCholesky::factor(&a).unwrap();
        let n = a.nrows();
        assert!(chol.data.len() < n * (n + 1) / 2, "envelope should beat dense storage");
    }

    #[test]
    fn solve_scratch_reuses_buffers_bit_identically() {
        let a = laplacian_2d(7, 6);
        let n = a.nrows();
        let chol = SkylineCholesky::factor(&a).unwrap();
        let mut work = Vec::new();
        let mut out = vec![0.0; n];
        for seed in 0..4u64 {
            let b: Vec<f64> =
                (0..n).map(|i| ((i as u64 * 7 + seed * 13) % 19) as f64 - 9.0).collect();
            chol.solve_scratch(&b, &mut work, &mut out).unwrap();
            assert_eq!(out, chol.solve(&b).unwrap(), "seed {seed}");
        }
        // Wrong output length is rejected.
        let mut short = vec![0.0; n - 1];
        assert!(chol.solve_scratch(&vec![0.0; n], &mut work, &mut short).is_err());
    }
}
