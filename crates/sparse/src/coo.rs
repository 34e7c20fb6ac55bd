//! Coordinate (triplet) sparse matrix used as an assembly buffer.
//!
//! Finite-element assembly naturally produces duplicate `(row, col, value)`
//! triplets (one contribution per element touching a pair of nodes).  The COO
//! builder accumulates them and converts to [`crate::CsrMatrix`],
//! summing duplicates in the process.

use crate::{CsrMatrix, Result, SparseError};

/// A sparse matrix in coordinate (triplet) format.
///
/// Triplets may appear in any order and may repeat; duplicates are summed when
/// converting to CSR.
#[derive(Debug, Clone)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    values: Vec<f64>,
}

impl CooMatrix {
    /// Create an empty `nrows × ncols` triplet matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooMatrix { nrows, ncols, rows: Vec::new(), cols: Vec::new(), values: Vec::new() }
    }

    /// Create an empty matrix with room for `cap` triplets.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            values: Vec::with_capacity(cap),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored triplets (duplicates counted individually).
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Append a triplet.  Returns an error if the indices are out of bounds.
    pub fn push(&mut self, row: usize, col: usize, value: f64) -> Result<()> {
        if row >= self.nrows {
            return Err(SparseError::IndexOutOfBounds { index: row, bound: self.nrows });
        }
        if col >= self.ncols {
            return Err(SparseError::IndexOutOfBounds { index: col, bound: self.ncols });
        }
        self.rows.push(row);
        self.cols.push(col);
        self.values.push(value);
        Ok(())
    }

    /// Append a triplet without bounds checking (used by hot assembly loops
    /// that have already validated their indices).
    ///
    /// # Panics
    /// Debug builds still assert the indices are in range.
    pub fn push_unchecked(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(row < self.nrows && col < self.ncols);
        self.rows.push(row);
        self.cols.push(col);
        self.values.push(value);
    }

    /// Iterate over the stored triplets.
    pub fn triplets(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.rows
            .iter()
            .zip(self.cols.iter())
            .zip(self.values.iter())
            .map(|((&r, &c), &v)| (r, c, v))
    }

    /// Convert to CSR, summing duplicate entries and dropping explicit zeros
    /// produced by cancellation only if `drop_zeros` is requested by the
    /// caller through [`CooMatrix::to_csr_dropping`].
    pub fn to_csr(&self) -> CsrMatrix {
        self.to_csr_dropping(false)
    }

    /// Convert to CSR.  When `drop_zeros` is true, entries that sum exactly to
    /// zero are removed from the sparsity pattern.
    pub fn to_csr_dropping(&self, drop_zeros: bool) -> CsrMatrix {
        // Counting sort by row, then sort each row's column indices.
        let nnz = self.values.len();
        let mut row_counts = vec![0usize; self.nrows + 1];
        for &r in &self.rows {
            row_counts[r + 1] += 1;
        }
        for i in 0..self.nrows {
            row_counts[i + 1] += row_counts[i];
        }
        let mut order = vec![0usize; nnz];
        let mut cursor = row_counts.clone();
        for (k, &r) in self.rows.iter().enumerate() {
            order[cursor[r]] = k;
            cursor[r] += 1;
        }

        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        let mut col_idx: Vec<usize> = Vec::with_capacity(nnz);
        let mut values: Vec<f64> = Vec::with_capacity(nnz);
        row_ptr.push(0);

        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for r in 0..self.nrows {
            scratch.clear();
            for &k in &order[row_counts[r]..row_counts[r + 1]] {
                scratch.push((self.cols[k], self.values[k]));
            }
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let col = scratch[i].0;
                let mut sum = 0.0;
                while i < scratch.len() && scratch[i].0 == col {
                    sum += scratch[i].1;
                    i += 1;
                }
                if !(drop_zeros && sum == 0.0) {
                    col_idx.push(col);
                    values.push(sum);
                }
            }
            row_ptr.push(col_idx.len());
        }

        CsrMatrix::from_raw_parts(self.nrows, self.ncols, row_ptr, col_idx, values)
            .expect("COO→CSR conversion produced an invalid matrix; this is a bug")
    }

    /// Build an identity-like COO matrix with the given diagonal values.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut coo = CooMatrix::with_capacity(n, n, n);
        for (i, &v) in diag.iter().enumerate() {
            coo.push_unchecked(i, i, v);
        }
        coo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_bounds() {
        let mut coo = CooMatrix::new(2, 3);
        assert!(coo.push(0, 0, 1.0).is_ok());
        assert!(coo.push(1, 2, 2.0).is_ok());
        assert!(coo.push(2, 0, 1.0).is_err());
        assert!(coo.push(0, 3, 1.0).is_err());
        assert_eq!(coo.nnz(), 2);
        assert_eq!(coo.nrows(), 2);
        assert_eq!(coo.ncols(), 3);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 0, 2.5).unwrap();
        coo.push(1, 1, 4.0).unwrap();
        coo.push(1, 0, -1.0).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csr.get(0, 0), 3.5);
        assert_eq!(csr.get(1, 0), -1.0);
        assert_eq!(csr.get(1, 1), 4.0);
        assert_eq!(csr.get(0, 1), 0.0);
    }

    #[test]
    fn zero_cancellation_dropping() {
        let mut coo = CooMatrix::new(1, 2);
        coo.push(0, 1, 2.0).unwrap();
        coo.push(0, 1, -2.0).unwrap();
        coo.push(0, 0, 1.0).unwrap();
        assert_eq!(coo.to_csr().nnz(), 2);
        assert_eq!(coo.to_csr_dropping(true).nnz(), 1);
    }

    #[test]
    fn triplets_roundtrip_and_diagonal() {
        let coo = CooMatrix::from_diagonal(&[1.0, 2.0, 3.0]);
        let trips: Vec<_> = coo.triplets().collect();
        assert_eq!(trips, vec![(0, 0, 1.0), (1, 1, 2.0), (2, 2, 3.0)]);
        let csr = coo.to_csr();
        assert_eq!(csr.diagonal(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn empty_rows_are_preserved() {
        let mut coo = CooMatrix::new(4, 4);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(3, 3, 1.0).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.row(1).0.len(), 0);
        assert_eq!(csr.row(2).0.len(), 0);
        assert_eq!(csr.nnz(), 2);
    }
}
