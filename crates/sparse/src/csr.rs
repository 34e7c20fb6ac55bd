//! Compressed Sparse Row matrix.
//!
//! CSR is the workhorse format of the whole workspace: the assembled global
//! Poisson operator, every sub-domain operator `Rᵢ A Rᵢᵀ` and the graphs fed
//! to the GNN are all stored as [`CsrMatrix`].  The implementation focuses on
//! the operations the solvers actually need: parallel SpMV, principal
//! sub-matrix extraction, transpose, symmetry checks and Galerkin triple
//! products for the coarse space.

use rayon::prelude::*;

use crate::{Result, SparseError};

/// A sparse matrix stored in compressed sparse row format.
///
/// Invariants (enforced by [`CsrMatrix::from_raw_parts`]):
/// * `row_ptr.len() == nrows + 1`, `row_ptr[0] == 0`, non-decreasing,
/// * `col_idx.len() == values.len() == row_ptr[nrows]`,
/// * within each row, column indices are strictly increasing and `< ncols`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Build a CSR matrix from raw arrays, validating all invariants.
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self> {
        if row_ptr.len() != nrows + 1 {
            return Err(SparseError::InvalidArgument(format!(
                "row_ptr length {} does not match nrows {} + 1",
                row_ptr.len(),
                nrows
            )));
        }
        if row_ptr[0] != 0 {
            return Err(SparseError::InvalidArgument("row_ptr[0] must be 0".into()));
        }
        if col_idx.len() != values.len() || col_idx.len() != *row_ptr.last().unwrap() {
            return Err(SparseError::InvalidArgument(
                "col_idx/values length must equal row_ptr[nrows]".into(),
            ));
        }
        for r in 0..nrows {
            if row_ptr[r] > row_ptr[r + 1] {
                return Err(SparseError::InvalidArgument(format!(
                    "row_ptr must be non-decreasing (row {r})"
                )));
            }
            let mut last: Option<usize> = None;
            for &c in &col_idx[row_ptr[r]..row_ptr[r + 1]] {
                if c >= ncols {
                    return Err(SparseError::IndexOutOfBounds { index: c, bound: ncols });
                }
                if let Some(prev) = last {
                    if c <= prev {
                        return Err(SparseError::InvalidArgument(format!(
                            "column indices must be strictly increasing within row {r}"
                        )));
                    }
                }
                last = Some(c);
            }
        }
        Ok(CsrMatrix { nrows, ncols, row_ptr, col_idx, values })
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row pointer array (length `nrows + 1`).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index array.
    #[inline]
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Value array.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The column indices and values of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[usize], &[f64]) {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Value at `(row, col)`, 0 when the entry is not stored.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        let (cols, vals) = self.row(row);
        match cols.binary_search(&col) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// The diagonal as a dense vector (square or rectangular; missing entries
    /// are zero).
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.nrows.min(self.ncols);
        (0..n).map(|i| self.get(i, i)).collect()
    }

    /// Matrix–vector product `y = A x` into a preallocated output, parallel
    /// over rows.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "spmv: x length mismatch");
        assert_eq!(y.len(), self.nrows, "spmv: y length mismatch");
        if self.nrows >= 4096 {
            y.par_iter_mut().enumerate().for_each(|(r, yr)| {
                let lo = self.row_ptr[r];
                let hi = self.row_ptr[r + 1];
                let mut acc = 0.0;
                for k in lo..hi {
                    acc += self.values[k] * x[self.col_idx[k]];
                }
                *yr = acc;
            });
        } else {
            for r in 0..self.nrows {
                let lo = self.row_ptr[r];
                let hi = self.row_ptr[r + 1];
                let mut acc = 0.0;
                for k in lo..hi {
                    acc += self.values[k] * x[self.col_idx[k]];
                }
                y[r] = acc;
            }
        }
    }

    /// Matrix–vector product returning a freshly allocated vector.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        self.spmv_into(x, &mut y);
        y
    }

    /// Transposed matrix–vector product `y = Aᵀ x` into a preallocated
    /// output.  Works directly on the CSR arrays (scatter along rows) — no
    /// explicit transpose and no temporary is ever built.
    fn spmv_transpose_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(y.len(), self.ncols, "spmv_transpose: y length mismatch");
        y.fill(0.0);
        self.spmv_transpose_add_into(x, y);
    }

    /// Accumulating transposed product `y += Aᵀ x`.
    ///
    /// The accumulate form is what the Schwarz prolongation needs
    /// (`z += R₀ᵀ v`), so the coarse correction can scatter straight into the
    /// global output without a scratch vector.
    pub fn spmv_transpose_add_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.nrows, "spmv_transpose: x length mismatch");
        assert_eq!(y.len(), self.ncols, "spmv_transpose: y length mismatch");
        for r in 0..self.nrows {
            let xr = x[r];
            if xr == 0.0 {
                continue;
            }
            let lo = self.row_ptr[r];
            let hi = self.row_ptr[r + 1];
            for k in lo..hi {
                y[self.col_idx[k]] += self.values[k] * xr;
            }
        }
    }

    /// Transposed matrix–vector product `y = Aᵀ x`.
    pub fn spmv_transpose(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.ncols];
        self.spmv_transpose_into(x, &mut y);
        y
    }

    /// Residual `r = b - A x` into a preallocated buffer.
    pub fn residual_into(&self, b: &[f64], x: &[f64], r: &mut [f64]) {
        self.spmv_into(x, r);
        for i in 0..r.len() {
            r[i] = b[i] - r[i];
        }
    }

    /// Explicit transpose.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            counts[c + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let mut row_ptr = counts.clone();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut cursor = counts;
        for r in 0..self.nrows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k];
                let pos = cursor[c];
                col_idx[pos] = r;
                values[pos] = self.values[k];
                cursor[c] += 1;
            }
        }
        row_ptr.truncate(self.ncols + 1);
        CsrMatrix { nrows: self.ncols, ncols: self.nrows, row_ptr, col_idx, values }
    }

    /// Check numerical symmetry up to absolute tolerance `tol`.
    // detlint::allow(unreferenced-pub): the symmetry oracle the fem, ddm and ddm-gnn tests share
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                if (v - self.get(c, r)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Extract the principal sub-matrix `A[idx, idx]`.
    ///
    /// `idx` lists global indices (need not be sorted, must be unique).  The
    /// result is a `idx.len() × idx.len()` CSR matrix whose local ordering
    /// follows `idx`.  This is exactly the `Rᵢ A Rᵢᵀ` operator of the Schwarz
    /// method when `idx` enumerates the nodes of sub-domain `i`.
    pub fn principal_submatrix(&self, idx: &[usize]) -> CsrMatrix {
        self.extract_principal(idx, &mut vec![usize::MAX; self.ncols])
    }

    /// [`CsrMatrix::principal_submatrix`] of every index set, in order.
    ///
    /// All extractions share one global → local map that is reset only where
    /// a set touched it, so the cost is the size of what is extracted plus
    /// `O(ncols)` once — not `O(ncols)` per set.
    pub fn principal_submatrices(&self, index_sets: &[Vec<usize>]) -> Vec<CsrMatrix> {
        let mut glob_to_loc = vec![usize::MAX; self.ncols];
        index_sets.iter().map(|idx| self.extract_principal(idx, &mut glob_to_loc)).collect()
    }

    /// `A[idx, idx]` through a global → local map the caller provides filled
    /// with `usize::MAX` ("not in the sub-domain") and gets back that way.
    fn extract_principal(&self, idx: &[usize], glob_to_loc: &mut [usize]) -> CsrMatrix {
        let n = idx.len();
        for (loc, &g) in idx.iter().enumerate() {
            debug_assert!(g < self.nrows, "principal_submatrix: index out of bounds");
            glob_to_loc[g] = loc;
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for &g in idx {
            scratch.clear();
            let (cols, vals) = self.row(g);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                let loc = glob_to_loc[c];
                if loc != usize::MAX {
                    scratch.push((loc, v));
                }
            }
            scratch.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in &scratch {
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        for &g in idx {
            glob_to_loc[g] = usize::MAX;
        }
        CsrMatrix { nrows: n, ncols: n, row_ptr, col_idx, values }
    }

    /// Galerkin triple product `R A Rᵀ` with a sparse `k × n` restriction
    /// matrix, returning a dense row-major `k × k` array.
    ///
    /// Row `i` of the result is computed with a sparse row-merge accumulator:
    /// the rows of `A` selected by the nonzeros of `R_i` are merged into a
    /// dense accumulator `w = R_i A` (tracking the touched columns so the
    /// accumulator can be cleared in `O(touched)`), and each entry
    /// `out[i, j] = w · R_j` is then a sparse dot against row `j` of `R`.
    /// Peak extra memory is one `n`-vector regardless of `k`, and every
    /// summation order is fixed, so the result is deterministic.
    ///
    /// **Explicit zeros:** entries of `R` stored with value exactly `0.0` are
    /// skipped, both in the merge and in the dots, so this method computes
    /// the same floating-point operation sequence whether `R` carries
    /// explicitly-stored zeros or not.
    pub fn galerkin_product_csr(&self, r: &CsrMatrix) -> Vec<f64> {
        assert_eq!(r.ncols(), self.nrows, "galerkin_product: R column count mismatch");
        assert_eq!(self.nrows, self.ncols, "galerkin_product: A must be square");
        let k = r.nrows();
        let mut out = vec![0.0; k * k];
        let mut acc = vec![0.0; self.ncols];
        let mut marked = vec![false; self.ncols];
        let mut touched: Vec<usize> = Vec::new();
        for i in 0..k {
            // w = R_i A  (row-merge of the A-rows selected by R_i's nonzeros).
            let (rcols, rvals) = r.row(i);
            for (&g, &w) in rcols.iter().zip(rvals.iter()) {
                if w == 0.0 {
                    continue;
                }
                let (acols, avals) = self.row(g);
                for (&c, &a) in acols.iter().zip(avals.iter()) {
                    if !marked[c] {
                        marked[c] = true;
                        touched.push(c);
                        acc[c] = 0.0;
                    }
                    acc[c] += w * a;
                }
            }
            // out[i, j] = w · R_j, iterating row j's nonzeros in column order.
            for j in 0..k {
                let (jcols, jvals) = r.row(j);
                let mut s = 0.0;
                for (&c, &v) in jcols.iter().zip(jvals.iter()) {
                    if v != 0.0 && marked[c] {
                        s += acc[c] * v;
                    }
                }
                out[i * k + j] = s;
            }
            for &c in &touched {
                marked[c] = false;
            }
            touched.clear();
        }
        out
    }

    /// Sparse matrix–matrix product `C = A B` (row-merge SpGEMM).
    ///
    /// Every output row is accumulated into a dense scratch row with a
    /// touched-column list, then emitted in ascending column order, so the
    /// result satisfies the CSR invariants and the per-entry summation order
    /// is a fixed function of the inputs (deterministic, thread-free).
    /// Explicitly-stored zeros in `self` are skipped; zeros *produced* by
    /// cancellation are kept, preserving the Galerkin sparsity pattern.
    fn matmul(&self, other: &CsrMatrix) -> CsrMatrix {
        assert_eq!(self.ncols, other.nrows, "matmul: inner dimension mismatch");
        let n_out = other.ncols;
        let mut acc = vec![0.0; n_out];
        let mut marked = vec![false; n_out];
        let mut touched: Vec<usize> = Vec::new();
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (&j, &a) in cols.iter().zip(vals.iter()) {
                if a == 0.0 {
                    continue;
                }
                let (bcols, bvals) = other.row(j);
                for (&c, &b) in bcols.iter().zip(bvals.iter()) {
                    if !marked[c] {
                        marked[c] = true;
                        touched.push(c);
                        acc[c] = 0.0;
                    }
                    acc[c] += a * b;
                }
            }
            touched.sort_unstable();
            for &c in &touched {
                col_idx.push(c);
                values.push(acc[c]);
                marked[c] = false;
            }
            row_ptr.push(col_idx.len());
            touched.clear();
        }
        CsrMatrix { nrows: self.nrows, ncols: n_out, row_ptr, col_idx, values }
    }

    /// Galerkin triple product `R A Rᵀ` returning a **sparse** `k × k` CSR
    /// matrix — the per-level coarse-operator kernel of the multi-level
    /// hierarchy, where the dense `k × k` output of
    /// [`CsrMatrix::galerkin_product_csr`] would be quadratic in memory.
    ///
    /// Computed as two row-merge SpGEMMs, `(R · A) · Rᵀ`; both products keep
    /// a fixed summation order, so the result is deterministic.
    pub fn galerkin_rap(&self, r: &CsrMatrix) -> CsrMatrix {
        assert_eq!(r.ncols(), self.nrows, "galerkin_rap: R column count mismatch");
        assert_eq!(self.nrows, self.ncols, "galerkin_rap: A must be square");
        r.matmul(self).matmul(&r.transpose())
    }

    /// Scale all stored values by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.values {
            *v *= alpha;
        }
    }

    /// Convert to a dense row-major vector (for small matrices / testing).
    pub(crate) fn to_dense(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.nrows * self.ncols];
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                out[r * self.ncols + c] = v;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    /// `rows` (each of length `n`) as a sparse matrix, zeros dropped.
    fn sparse_rows(rows: &[Vec<f64>], n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(rows.len(), n);
        for (i, row) in rows.iter().enumerate() {
            for (c, &v) in row.iter().enumerate().filter(|(_, v)| **v != 0.0) {
                coo.push(i, c, v).unwrap();
            }
        }
        coo.to_csr()
    }

    fn sample_matrix() -> CsrMatrix {
        // [ 4 -1  0]
        // [-1  4 -1]
        // [ 0 -1  4]
        let mut coo = CooMatrix::new(3, 3);
        for i in 0..3 {
            coo.push(i, i, 4.0).unwrap();
        }
        coo.push(0, 1, -1.0).unwrap();
        coo.push(1, 0, -1.0).unwrap();
        coo.push(1, 2, -1.0).unwrap();
        coo.push(2, 1, -1.0).unwrap();
        coo.to_csr()
    }

    #[test]
    fn from_raw_parts_validation() {
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 1.0]).is_ok());
        // bad row_ptr length
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // column out of bounds
        assert!(CsrMatrix::from_raw_parts(1, 1, vec![0, 1], vec![3], vec![1.0]).is_err());
        // unsorted columns
        assert!(CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]).is_err());
        // decreasing row_ptr
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).is_err());
    }

    #[test]
    fn spmv_and_residual() {
        let a = sample_matrix();
        let x = vec![1.0, 2.0, 3.0];
        let y = a.spmv(&x);
        assert_eq!(y, vec![2.0, 4.0, 10.0]);
        let mut r = vec![0.0; 3];
        a.residual_into(&[2.0, 4.0, 10.0], &x, &mut r);
        assert_eq!(r, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn identity_and_get() {
        let id = CsrMatrix::identity(4);
        assert_eq!(id.nnz(), 4);
        let x = vec![1.0, -2.0, 3.0, 0.5];
        assert_eq!(id.spmv(&x), x);
        assert_eq!(id.get(2, 2), 1.0);
        assert_eq!(id.get(2, 3), 0.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 2, 2.0).unwrap();
        coo.push(1, 1, 3.0).unwrap();
        let a = coo.to_csr();
        let at = a.transpose();
        assert_eq!(at.nrows(), 3);
        assert_eq!(at.ncols(), 2);
        assert_eq!(at.get(2, 0), 2.0);
        let att = at.transpose();
        assert_eq!(att, a);
    }

    #[test]
    fn spmv_transpose_matches_explicit_transpose() {
        let a = sample_matrix();
        let x = vec![1.0, -1.0, 2.0];
        assert_eq!(a.spmv_transpose(&x), a.transpose().spmv(&x));
    }

    #[test]
    fn spmv_transpose_into_and_add_into() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 2, 2.0).unwrap();
        coo.push(1, 1, 3.0).unwrap();
        let a = coo.to_csr();
        let x = vec![2.0, -1.0];
        let mut y = vec![99.0; 3];
        a.spmv_transpose_into(&x, &mut y);
        assert_eq!(y, a.transpose().spmv(&x));
        // The accumulate form adds on top of existing contents.
        let mut z = vec![1.0; 3];
        a.spmv_transpose_add_into(&x, &mut z);
        assert_eq!(z, vec![1.0 + y[0], 1.0 + y[1], 1.0 + y[2]]);
    }

    #[test]
    fn symmetry_check() {
        let a = sample_matrix();
        assert!(a.is_symmetric(1e-14));
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0).unwrap();
        assert!(!coo.to_csr().is_symmetric(1e-14));
    }

    #[test]
    fn principal_submatrix_extraction() {
        let a = sample_matrix();
        let sub = a.principal_submatrix(&[2, 1]);
        // local ordering follows idx: local 0 = global 2, local 1 = global 1
        assert_eq!(sub.nrows(), 2);
        assert_eq!(sub.get(0, 0), 4.0);
        assert_eq!(sub.get(0, 1), -1.0);
        assert_eq!(sub.get(1, 0), -1.0);
        assert_eq!(sub.get(1, 1), 4.0);
    }

    #[test]
    fn principal_submatrices_share_one_map_without_leaking_between_sets() {
        // Overlapping, unsorted, empty and repeated sets: each result must be
        // what a fresh map gives, so no entry of an earlier set may survive
        // in the shared global → local map.
        let a = sample_matrix();
        let sets = vec![vec![2, 1], vec![0, 1, 2], vec![], vec![0], vec![1, 0], vec![2, 1]];
        let subs = a.principal_submatrices(&sets);
        assert_eq!(subs.len(), sets.len());
        for (sub, set) in subs.iter().zip(&sets) {
            assert_eq!(sub, &a.principal_submatrix(set), "set {set:?}");
        }
        // [0] after [0, 1, 2]: a leaked entry for global 1 would add a column.
        assert_eq!((subs[3].nrows(), subs[3].nnz()), (1, 1));
        assert!(a.principal_submatrices(&[]).is_empty());
    }

    #[test]
    fn galerkin_product_small() {
        let a = sample_matrix();
        // R = [1 1 0; 0 0 1]
        let r = vec![vec![1.0, 1.0, 0.0], vec![0.0, 0.0, 1.0]];
        let g = a.galerkin_product_csr(&sparse_rows(&r, 3));
        // R A Rᵀ = [[6, -1], [-1, 4]]
        assert_eq!(g, vec![6.0, -1.0, -1.0, 4.0]);
    }

    #[test]
    fn galerkin_product_csr_matches_dense_reference() {
        // A larger pseudo-random SPD-ish matrix and overlapping R rows; the
        // sparse row-merge accumulator must agree with the naive dense
        // computation R (A Rᵀ) to rounding.
        let n = 40;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0 + (i % 3) as f64).unwrap();
            if i + 1 < n {
                coo.push(i, i + 1, -1.0).unwrap();
                coo.push(i + 1, i, -1.0).unwrap();
            }
            if i + 7 < n {
                coo.push(i, i + 7, 0.5).unwrap();
                coo.push(i + 7, i, 0.5).unwrap();
            }
        }
        let a = coo.to_csr();
        let k = 5;
        let r_rows: Vec<Vec<f64>> = (0..k)
            .map(|j| {
                (0..n)
                    .map(|c| {
                        if c % k == j || c % (k + 1) == j {
                            (c + j + 1) as f64 * 0.1
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect();
        let fast = a.galerkin_product_csr(&sparse_rows(&r_rows, n));
        // Naive reference.
        let mut slow = vec![0.0; k * k];
        for i in 0..k {
            for j in 0..k {
                let arj = a.spmv(&r_rows[j]);
                slow[i * k + j] = crate::vector::dot(&r_rows[i], &arj);
            }
        }
        for (f, s) in fast.iter().zip(slow.iter()) {
            assert!((f - s).abs() < 1e-10 * s.abs().max(1.0), "{f} vs {s}");
        }
    }

    #[test]
    fn matmul_matches_dense_reference() {
        // (3×4) · (4×2) against the dense triple loop.
        let mut coo_a = CooMatrix::new(3, 4);
        for &(i, j, v) in
            &[(0usize, 0usize, 1.0), (0, 2, -2.0), (1, 1, 3.0), (1, 3, 0.5), (2, 0, -1.0)]
        {
            coo_a.push(i, j, v).unwrap();
        }
        let mut coo_b = CooMatrix::new(4, 2);
        for &(i, j, v) in
            &[(0usize, 0usize, 2.0), (1, 0, -1.0), (1, 1, 4.0), (2, 1, 1.5), (3, 0, 1.0)]
        {
            coo_b.push(i, j, v).unwrap();
        }
        let a = coo_a.to_csr();
        let b = coo_b.to_csr();
        let c = a.matmul(&b);
        assert_eq!(c.nrows(), 3);
        assert_eq!(c.ncols(), 2);
        let (da, db, dc) = (a.to_dense(), b.to_dense(), c.to_dense());
        for i in 0..3 {
            for j in 0..2 {
                let mut s = 0.0;
                for k in 0..4 {
                    s += da[i * 4 + k] * db[k * 2 + j];
                }
                assert!((dc[i * 2 + j] - s).abs() < 1e-14, "C[{i},{j}]");
            }
        }
        // Identity is neutral on both sides.
        assert_eq!(a.matmul(&CsrMatrix::identity(4)), a);
        assert_eq!(CsrMatrix::identity(3).matmul(&a), a);
    }

    #[test]
    fn matmul_keeps_cancellation_zeros_and_skips_stored_zeros() {
        // A row with +1/-1 against equal columns cancels to an explicit zero
        // in the output (pattern preserved); a stored zero in A contributes
        // no pattern at all.
        let a = CsrMatrix::from_raw_parts(2, 2, vec![0, 2, 3], vec![0, 1, 0], vec![1.0, -1.0, 0.0])
            .unwrap();
        let b = CsrMatrix::from_raw_parts(2, 1, vec![0, 1, 2], vec![0, 0], vec![3.0, 3.0]).unwrap();
        let c = a.matmul(&b);
        // Row 0: 1*3 + (-1)*3 = 0, stored explicitly.
        assert_eq!(c.row(0), (&[0usize][..], &[0.0][..]));
        // Row 1: the stored zero never touches B, so the row is empty.
        assert_eq!(c.row(1).0.len(), 0);
    }

    #[test]
    fn galerkin_rap_matches_dense_galerkin() {
        let a = {
            let n = 30;
            let mut coo = CooMatrix::new(n, n);
            for i in 0..n {
                coo.push(i, i, 4.0).unwrap();
                if i + 1 < n {
                    coo.push(i, i + 1, -1.0).unwrap();
                    coo.push(i + 1, i, -1.0).unwrap();
                }
            }
            coo.to_csr()
        };
        // Overlapping aggregates of 3, stride 2: R is 14×30.
        let k = 14;
        let mut coo = CooMatrix::new(k, 30);
        for i in 0..k {
            for d in 0..3 {
                coo.push(i, 2 * i + d, 1.0 + d as f64 * 0.5).unwrap();
            }
        }
        let r = coo.to_csr();
        let sparse = a.galerkin_rap(&r);
        let dense = a.galerkin_product_csr(&r);
        assert_eq!(sparse.nrows(), k);
        assert_eq!(sparse.ncols(), k);
        let sd = sparse.to_dense();
        for (i, (s, d)) in sd.iter().zip(dense.iter()).enumerate() {
            assert!((s - d).abs() < 1e-12 * d.abs().max(1.0), "entry {i}: {s} vs {d}");
        }
        // RAP of a symmetric matrix is symmetric.
        assert!(sparse.is_symmetric(1e-12));
    }

    #[test]
    fn scale_and_values_mut() {
        let mut a = sample_matrix();
        a.scale(2.0);
        assert_eq!(a.get(0, 0), 8.0);
        assert_eq!(a.values()[1], -2.0);
    }

    #[test]
    fn diagonal_extraction() {
        let a = sample_matrix();
        assert_eq!(a.diagonal(), vec![4.0, 4.0, 4.0]);
    }
}
