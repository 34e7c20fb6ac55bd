//! BLAS-1 style vector kernels used throughout the workspace.
//!
//! The Krylov solvers and the GNN training loop only need a handful of dense
//! vector operations; they are collected here so every crate shares a single,
//! tested implementation.  The in-place updates switch to rayon only above a
//! length threshold — for the short vectors that appear in sub-domain solves
//! the sequential loop is faster than the fork/join overhead.

use rayon::prelude::*;

/// Length above which the in-place updates actually use rayon.
const PAR_THRESHOLD: usize = 16_384;

/// Dot product `xᵀ y`.
///
/// # Panics
/// Panics if the two slices have different lengths.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y.iter()).map(|(a, b)| a * b).sum()
}

/// Euclidean norm `‖x‖₂`.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// `y ← a·x + y`.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    if x.len() >= PAR_THRESHOLD {
        y.par_iter_mut().zip(x.par_iter()).for_each(|(yi, xi)| *yi += a * xi);
    } else {
        for (yi, xi) in y.iter_mut().zip(x.iter()) {
            *yi += a * xi;
        }
    }
}

/// `y ← a·x + b·y`.
#[inline]
pub fn axpby(a: f64, x: &[f64], b: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpby: length mismatch");
    if x.len() >= PAR_THRESHOLD {
        y.par_iter_mut().zip(x.par_iter()).for_each(|(yi, xi)| *yi = a * xi + b * *yi);
    } else {
        for (yi, xi) in y.iter_mut().zip(x.iter()) {
            *yi = a * xi + b * *yi;
        }
    }
}

/// `x ← a·x`.
#[inline]
pub fn scale(a: f64, x: &mut [f64]) {
    if x.len() >= PAR_THRESHOLD {
        x.par_iter_mut().for_each(|xi| *xi *= a);
    } else {
        for xi in x.iter_mut() {
            *xi *= a;
        }
    }
}

/// Fill a vector with a constant.
#[inline]
pub fn fill(x: &mut [f64], value: f64) {
    for xi in x.iter_mut() {
        *xi = value;
    }
}

/// Relative Euclidean distance `‖x - y‖ / ‖y‖`, returning the absolute
/// distance when `‖y‖` is (numerically) zero.
pub fn relative_error(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "relative_error: length mismatch");
    let mut diff = 0.0;
    let mut base = 0.0;
    for (a, b) in x.iter().zip(y.iter()) {
        diff += (a - b) * (a - b);
        base += b * b;
    }
    let diff = diff.sqrt();
    let base = base.sqrt();
    if base <= f64::EPSILON {
        diff
    } else {
        diff / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        let x = [1.0, 2.0, 3.0];
        let y = [4.0, 5.0, 6.0];
        assert_eq!(dot(&x, &y), 32.0);
    }

    #[test]
    fn norms() {
        let x = [3.0, -4.0];
        assert_eq!(norm2(&x), 5.0);
        assert_eq!(norm2(&[]), 0.0);
    }

    #[test]
    fn axpy_axpby_scale() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
        axpby(1.0, &x, 0.5, &mut y);
        assert_eq!(y, [7.0, 14.0]);
        scale(2.0, &mut y);
        assert_eq!(y, [14.0, 28.0]);
    }

    #[test]
    fn sub_and_fill_and_copy() {
        let mut z = [5.0, 7.0];
        fill(&mut z, 1.5);
        assert_eq!(z, [1.5, 1.5]);
    }

    #[test]
    fn relative_error_basic() {
        let exact = [1.0, 1.0, 1.0, 1.0];
        let approx = [1.0, 1.0, 1.0, 2.0];
        let err = relative_error(&approx, &exact);
        assert!((err - 0.5).abs() < 1e-12);
        // Zero reference vector falls back to absolute error.
        let zero = [0.0, 0.0];
        assert!((relative_error(&[3.0, 4.0], &zero) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_kernels_match_sequential_on_long_vectors() {
        let n = 50_000;
        let x: Vec<f64> = (0..n).map(|i| (i % 7) as f64 * 0.5).collect();
        let y: Vec<f64> = (0..n).map(|i| (i % 11) as f64 - 3.0).collect();
        let mut y1 = y.clone();
        let mut y2 = y.clone();
        axpy(1.25, &x, &mut y1);
        for (yi, xi) in y2.iter_mut().zip(x.iter()) {
            *yi += 1.25 * xi;
        }
        assert_eq!(y1, y2);
    }

    #[test]
    #[should_panic]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
