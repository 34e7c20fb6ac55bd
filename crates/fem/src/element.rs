//! P1 (linear Lagrange) triangle element kernels.
//!
//! For a triangle with vertices `p0, p1, p2` and linear shape functions
//! `φ_i`, the local stiffness matrix of the Laplace operator is
//!
//! ```text
//! K_ij = ∫_T ∇φ_i · ∇φ_j dx = (b_i b_j + c_i c_j) / (4 |T|)
//! ```
//!
//! where `b_i`, `c_i` are the usual shape-function gradient coefficients and
//! `|T|` the triangle area.  The load vector uses the exact integral of a
//! linear interpolant of `f`, which is the standard lumped rule
//! `F_i = |T| (2 f_i + f_j + f_k) / 12`.

use meshgen::Point2;

/// Local 3×3 stiffness matrix (row-major) and the triangle area.
///
/// Returns `None` for degenerate (zero-area) triangles.
pub(crate) fn local_stiffness(p0: &Point2, p1: &Point2, p2: &Point2) -> Option<([f64; 9], f64)> {
    let area2 = (p1.x - p0.x) * (p2.y - p0.y) - (p2.x - p0.x) * (p1.y - p0.y);
    let area = 0.5 * area2.abs();
    if area <= 0.0 {
        return None;
    }
    // Gradient coefficients: ∇φ_i = (b_i, c_i) / (2 |T|)
    let b = [p1.y - p2.y, p2.y - p0.y, p0.y - p1.y];
    let c = [p2.x - p1.x, p0.x - p2.x, p1.x - p0.x];
    let scale = 1.0 / (4.0 * area);
    let mut k = [0.0; 9];
    for i in 0..3 {
        for j in 0..3 {
            k[i * 3 + j] = scale * (b[i] * b[j] + c[i] * c[j]);
        }
    }
    Some((k, area))
}

/// Local load vector for nodal source values `f = (f0, f1, f2)` on a triangle
/// of area `area`, using the exact integration of the linear interpolant.
pub(crate) fn local_load(f: &[f64; 3], area: f64) -> [f64; 3] {
    let c = area / 12.0;
    [c * (2.0 * f[0] + f[1] + f[2]), c * (f[0] + 2.0 * f[1] + f[2]), c * (f[0] + f[1] + 2.0 * f[2])]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_triangle() -> (Point2, Point2, Point2) {
        (Point2::new(0.0, 0.0), Point2::new(1.0, 0.0), Point2::new(0.0, 1.0))
    }

    #[test]
    fn stiffness_of_reference_triangle() {
        let (p0, p1, p2) = reference_triangle();
        let (k, area) = local_stiffness(&p0, &p1, &p2).unwrap();
        assert!((area - 0.5).abs() < 1e-14);
        // Known exact values: K = [[1, -0.5, -0.5], [-0.5, 0.5, 0], [-0.5, 0, 0.5]]
        let expected = [1.0, -0.5, -0.5, -0.5, 0.5, 0.0, -0.5, 0.0, 0.5];
        for (a, e) in k.iter().zip(expected.iter()) {
            assert!((a - e).abs() < 1e-14, "{k:?}");
        }
    }

    #[test]
    fn stiffness_rows_sum_to_zero() {
        // Constants lie in the kernel of the Laplace operator: K · 1 = 0.
        let p0 = Point2::new(0.3, -0.2);
        let p1 = Point2::new(1.7, 0.4);
        let p2 = Point2::new(0.9, 1.5);
        let (k, _) = local_stiffness(&p0, &p1, &p2).unwrap();
        for i in 0..3 {
            let row_sum: f64 = (0..3).map(|j| k[i * 3 + j]).sum();
            assert!(row_sum.abs() < 1e-12);
        }
    }

    #[test]
    fn stiffness_is_symmetric_and_psd_diagonal() {
        let p0 = Point2::new(0.0, 0.0);
        let p1 = Point2::new(2.0, 0.3);
        let p2 = Point2::new(0.5, 1.8);
        let (k, _) = local_stiffness(&p0, &p1, &p2).unwrap();
        for i in 0..3 {
            assert!(k[i * 3 + i] > 0.0);
            for j in 0..3 {
                assert!((k[i * 3 + j] - k[j * 3 + i]).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn degenerate_triangle_rejected() {
        let p0 = Point2::new(0.0, 0.0);
        let p1 = Point2::new(1.0, 1.0);
        let p2 = Point2::new(2.0, 2.0);
        assert!(local_stiffness(&p0, &p1, &p2).is_none());
    }

    #[test]
    fn load_vector_constant_source() {
        // Constant source f = 1: each node receives area/3.
        let load = local_load(&[1.0, 1.0, 1.0], 0.5);
        for v in load {
            assert!((v - 0.5 / 3.0).abs() < 1e-14);
        }
    }

    #[test]
    fn load_vector_total_equals_integral() {
        // Sum of the load vector equals ∫ f over the triangle for linear f.
        let f = [1.0, 2.0, 3.0];
        let area = 0.7;
        let load = local_load(&f, area);
        let total: f64 = load.iter().sum();
        let integral = area * (f[0] + f[1] + f[2]) / 3.0;
        assert!((total - integral).abs() < 1e-14);
    }
}
