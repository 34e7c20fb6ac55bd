//! Dense row-major matrix with the handful of kernels the workspace needs.
//!
//! Dense matrices show up where [`crate::LuFactor`] needs one: the coarse
//! operator `R₀ A R₀ᵀ` of the two-level Schwarz method (K × K with K the
//! number of sub-domains) and reference LU solves in tests.  The
//! implementation is deliberately simple — row-major storage, no blocking.

use crate::{Result, SparseError};

/// A dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Zero matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseMatrix { nrows, ncols, data: vec![0.0; nrows * ncols] }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Build from a row-major vector.
    pub fn from_row_major(nrows: usize, ncols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != nrows * ncols {
            return Err(SparseError::InvalidArgument(format!(
                "dense data length {} != {nrows}x{ncols}",
                data.len()
            )));
        }
        Ok(DenseMatrix { nrows, ncols, data })
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

    /// Immutable access to the row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.nrows && c < self.ncols);
        self.data[r * self.ncols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.nrows && c < self.ncols);
        self.data[r * self.ncols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.ncols..(r + 1) * self.ncols]
    }

    /// Transpose.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.ncols, self.nrows);
        for r in 0..self.nrows {
            for c in 0..self.ncols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Fill with a constant.
    pub fn fill(&mut self, value: f64) {
        for v in &mut self.data {
            *v = value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut m = DenseMatrix::zeros(2, 3);
        m.set(0, 0, 1.0);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
        assert!(DenseMatrix::from_row_major(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn matvec_and_transpose() {
        let m = DenseMatrix::from_row_major(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let t = m.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.get(2, 1), 6.0);
    }

    #[test]
    fn add_scaled_and_norm_and_fill() {
        let mut a = DenseMatrix::identity(2);
        a.fill(0.5);
        assert_eq!(a.data(), &[0.5; 4]);
    }
}
