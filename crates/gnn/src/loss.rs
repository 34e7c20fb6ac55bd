//! The physics-informed residual loss of the Deep Statistical Solver (Eq. 11).
//!
//! For a local system `A u = b` (with `b` the normalised sub-domain residual)
//! the loss of a candidate state `u` is the mean squared equation residual
//!
//! ```text
//! L(u) = 1/N Σ_i ( b_i - Σ_j a_ij u_j )²
//! ```
//!
//! and its gradient with respect to `u` is `∇L = 2/N Aᵀ (A u - b)`.
//! No ground-truth solutions enter the training loop — exactly as in the
//! paper, which is what allows the dataset to be generated without solving
//! every local problem exactly.

use sparse::CsrMatrix;

/// Loss value.
pub(crate) fn residual_loss(a: &CsrMatrix, b: &[f64], u: &[f64]) -> f64 {
    let n = a.nrows();
    assert_eq!(b.len(), n);
    assert_eq!(u.len(), n);
    let au = a.spmv(u);
    let mut acc = 0.0;
    for i in 0..n {
        let r = b[i] - au[i];
        acc += r * r;
    }
    acc / n as f64
}

/// Loss value and gradient with respect to `u`.
pub(crate) fn residual_loss_and_grad(a: &CsrMatrix, b: &[f64], u: &[f64]) -> (f64, Vec<f64>) {
    let n = a.nrows();
    assert_eq!(b.len(), n);
    assert_eq!(u.len(), n);
    let au = a.spmv(u);
    let mut residual = vec![0.0; n];
    let mut value = 0.0;
    for i in 0..n {
        residual[i] = au[i] - b[i];
        value += residual[i] * residual[i];
    }
    value /= n as f64;
    // grad = 2/N Aᵀ (A u - b)
    let mut grad = a.spmv_transpose(&residual);
    let scale = 2.0 / n as f64;
    for g in &mut grad {
        *g *= scale;
    }
    (value, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sparse::CooMatrix;

    fn small_system() -> (CsrMatrix, Vec<f64>) {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 2.0).unwrap();
        coo.push(1, 1, 3.0).unwrap();
        coo.push(2, 2, 4.0).unwrap();
        coo.push(0, 1, -1.0).unwrap();
        coo.push(1, 0, -1.0).unwrap();
        (coo.to_csr(), vec![1.0, -2.0, 0.5])
    }

    #[test]
    fn loss_is_zero_at_exact_solution() {
        let (a, b) = small_system();
        let lu = sparse::LuFactor::factor_csr(&a).unwrap();
        let u = lu.solve(&b).unwrap();
        assert!(residual_loss(&a, &b, &u) < 1e-24);
        let (value, grad) = residual_loss_and_grad(&a, &b, &u);
        assert!(value < 1e-24);
        assert!(sparse::vector::norm2(&grad) < 1e-11);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let (a, b) = small_system();
        let u = vec![0.3, -0.7, 1.1];
        let (_, grad) = residual_loss_and_grad(&a, &b, &u);
        let eps = 1e-6;
        for i in 0..3 {
            let mut up = u.clone();
            up[i] += eps;
            let mut um = u.clone();
            um[i] -= eps;
            let numeric = (residual_loss(&a, &b, &up) - residual_loss(&a, &b, &um)) / (2.0 * eps);
            assert!((numeric - grad[i]).abs() < 1e-7, "component {i}");
        }
    }

    #[test]
    fn loss_scales_with_mean_not_sum() {
        // Duplicating the system (block diagonal) keeps the mean loss equal.
        let (a, b) = small_system();
        let u = vec![0.1, 0.2, 0.3];
        let loss_small = residual_loss(&a, &b, &u);
        let mut coo = CooMatrix::new(6, 6);
        for r in 0..3 {
            let (cols, vals) = a.row(r);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                coo.push(r, c, v).unwrap();
                coo.push(r + 3, c + 3, v).unwrap();
            }
        }
        let a2 = coo.to_csr();
        let b2: Vec<f64> = b.iter().chain(b.iter()).copied().collect();
        let u2: Vec<f64> = u.iter().chain(u.iter()).copied().collect();
        let loss_big = residual_loss(&a2, &b2, &u2);
        assert!((loss_small - loss_big).abs() < 1e-14);
    }

    /// A diagonally dominant SPD matrix with the given off-diagonal entries
    /// (indices taken mod `n`, values made negative).
    fn random_spd(n: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        let mut diag = vec![1.0; n];
        for &(i, j, v) in entries {
            let (i, j) = (i % n, j % n);
            if i == j {
                continue;
            }
            coo.push(i, j, -v.abs()).unwrap();
            coo.push(j, i, -v.abs()).unwrap();
            diag[i] += v.abs();
            diag[j] += v.abs();
        }
        for (i, &d) in diag.iter().enumerate() {
            coo.push(i, i, d).unwrap();
        }
        coo.to_csr()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The physics-informed loss is zero exactly at the solution and
        /// positive elsewhere, for every random SPD local system.
        #[test]
        fn residual_loss_separates_solutions(
            entries in proptest::collection::vec((0usize..15, 0usize..15, 0.1f64..2.0), 5..30),
            perturbation in 0.05f64..5.0,
        ) {
            let n = 15;
            let a = random_spd(n, &entries);
            let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 5) as f64) - 2.0).collect();
            let lu = sparse::LuFactor::factor_csr(&a).unwrap();
            let exact = lu.solve(&b).unwrap();
            prop_assert!(residual_loss(&a, &b, &exact) < 1e-18);
            let mut off = exact.clone();
            off[0] += perturbation;
            prop_assert!(residual_loss(&a, &b, &off) > 1e-12);
        }
    }
}
