//! The Poisson problem bundle and the paper's random data distribution.
//!
//! Section IV-A of the paper samples, for each global domain, a forcing
//! function `f(x, y) = r1 (x-1)² + r2 y² + r3` and a boundary function
//! `g(x, y) = r4 x² + r5 y² + r6 x y + r7 x + r8 y + r9` with coefficients
//! drawn uniformly from `[-10, 10]`.  [`SourceTerm`] reproduces exactly that
//! distribution; [`PoissonProblem`] couples a mesh with assembled operators
//! and exposes the residual/rescaling helpers used by the rest of the
//! pipeline.

use meshgen::{Mesh, Point2};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use sparse::CsrMatrix;

use crate::assembly::{assemble_poisson, AssembledSystem};

/// A quadratic polynomial `a x² + b y² + c xy + d x + e y + f`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct QuadraticPolynomial {
    /// Coefficient of `x²`.
    pub a: f64,
    /// Coefficient of `y²`.
    pub b: f64,
    /// Coefficient of `x y`.
    pub c: f64,
    /// Coefficient of `x`.
    pub d: f64,
    /// Coefficient of `y`.
    pub e: f64,
    /// Constant term.
    pub f: f64,
}

impl QuadraticPolynomial {
    /// Evaluate at a point.
    pub(crate) fn eval(&self, p: &Point2) -> f64 {
        self.a * p.x * p.x
            + self.b * p.y * p.y
            + self.c * p.x * p.y
            + self.d * p.x
            + self.e * p.y
            + self.f
    }
}

/// The random forcing/boundary pair of the paper's dataset (Eq. 24–25).
#[derive(Debug, Clone, Copy)]
pub struct SourceTerm {
    /// Forcing `f(x,y) = r1 (x-1)² + r2 y² + r3`.
    pub(crate) forcing: QuadraticPolynomial,
    /// Boundary data `g` (full quadratic).
    pub(crate) boundary: QuadraticPolynomial,
}

impl SourceTerm {
    /// Sample the paper's distribution with coefficients `rᵢ ~ U[-10, 10]`.
    ///
    /// `scale` rescales the coefficients; the paper rescales force and
    /// boundary functions when growing domains so the solution magnitude
    /// stays comparable.
    pub fn sample(seed: u64, scale: f64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut r = || rng.gen_range(-10.0..10.0) * scale;
        let (r1, r2, r3) = (r(), r(), r());
        // f(x,y) = r1 (x-1)^2 + r2 y^2 + r3 = r1 x² + r2 y² - 2 r1 x + (r1 + r3)
        let forcing =
            QuadraticPolynomial { a: r1, b: r2, c: 0.0, d: -2.0 * r1, e: 0.0, f: r1 + r3 };
        let boundary = QuadraticPolynomial { a: r(), b: r(), c: r(), d: r(), e: r(), f: r() };
        SourceTerm { forcing, boundary }
    }

    /// Nodal samples of the forcing term on a mesh.
    pub fn forcing_values(&self, mesh: &Mesh) -> Vec<f64> {
        mesh.points.iter().map(|p| self.forcing.eval(p)).collect()
    }

    /// Nodal samples of the boundary term on a mesh.
    pub fn boundary_values(&self, mesh: &Mesh) -> Vec<f64> {
        mesh.points.iter().map(|p| self.boundary.eval(p)).collect()
    }
}

/// A fully assembled Poisson problem on a mesh.
#[derive(Debug, Clone)]
pub struct PoissonProblem {
    /// The mesh the problem is discretised on.
    pub mesh: Mesh,
    /// Assembled SPD matrix.
    pub matrix: CsrMatrix,
    /// Assembled right-hand side.
    pub rhs: Vec<f64>,
    /// Dirichlet flag per node.
    pub dirichlet: Vec<bool>,
}

impl PoissonProblem {
    /// Assemble a problem from a mesh and nodal source/boundary samples.
    pub fn from_samples(mesh: Mesh, f: &[f64], g: &[f64]) -> Self {
        let AssembledSystem { matrix, rhs, dirichlet, .. } = assemble_poisson(&mesh, f, g);
        PoissonProblem { mesh, matrix, rhs, dirichlet }
    }

    /// Assemble a problem with the paper's random data distribution.
    pub fn with_random_data(mesh: Mesh, seed: u64) -> Self {
        let source = SourceTerm::sample(seed, 1.0);
        let f = source.forcing_values(&mesh);
        let g = source.boundary_values(&mesh);
        Self::from_samples(mesh, &f, &g)
    }

    /// Number of unknowns (mesh nodes).
    pub fn num_unknowns(&self) -> usize {
        self.matrix.nrows()
    }

    /// Residual `b - A x`.
    pub fn residual(&self, x: &[f64]) -> Vec<f64> {
        let mut r = vec![0.0; self.rhs.len()];
        self.matrix.residual_into(&self.rhs, x, &mut r);
        r
    }

    /// Relative residual norm `‖b - A x‖ / ‖b‖`.
    #[cfg(test)]
    fn relative_residual(&self, x: &[f64]) -> f64 {
        let r = self.residual(x);
        let bnorm = sparse::vector::norm2(&self.rhs);
        let rnorm = sparse::vector::norm2(&r);
        if bnorm <= f64::EPSILON {
            rnorm
        } else {
            rnorm / bnorm
        }
    }

    /// The mean-squared residual loss of the paper's Eq. (11) for a state `u`:
    /// `1/N Σ_i (b_i - Σ_j a_ij u_j)²`.
    pub fn residual_loss(&self, u: &[f64]) -> f64 {
        let r = self.residual(u);
        r.iter().map(|v| v * v).sum::<f64>() / r.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshgen::{generate_mesh, MeshingOptions, RandomBlobDomain, RectangleDomain};

    #[test]
    fn quadratic_polynomial_eval() {
        let p = QuadraticPolynomial { a: 1.0, b: 2.0, c: 3.0, d: 4.0, e: 5.0, f: 6.0 };
        let v = p.eval(&Point2::new(1.0, 2.0));
        // 1 + 8 + 6 + 4 + 10 + 6 = 35
        assert!((v - 35.0).abs() < 1e-12);
    }

    #[test]
    fn source_term_matches_paper_form() {
        let s = SourceTerm::sample(3, 1.0);
        // Forcing has no xy and no y terms, per Eq. (24).
        assert_eq!(s.forcing.c, 0.0);
        assert_eq!(s.forcing.e, 0.0);
        // f(1, 0) = r1*0 + r3 + ... check consistency: f(x,y) at x=1 equals r2 y² + r3
        // (the (x-1)² term vanishes), i.e. no dependence on r1.
        let at_x1 = |y: f64| s.forcing.eval(&Point2::new(1.0, y));
        let diff = at_x1(2.0) - at_x1(0.0);
        // diff = r2 * 4 — must not depend on r1 (a-coefficient)
        assert!((diff - 4.0 * s.forcing.b).abs() < 1e-12);
        // Coefficients live in [-10, 10].
        for c in
            [s.boundary.a, s.boundary.b, s.boundary.c, s.boundary.d, s.boundary.e, s.boundary.f]
        {
            assert!(c.abs() <= 10.0);
        }
    }

    #[test]
    fn source_term_is_deterministic_per_seed() {
        let a = SourceTerm::sample(5, 1.0);
        let b = SourceTerm::sample(5, 1.0);
        assert_eq!(a.forcing, b.forcing);
        assert_eq!(a.boundary, b.boundary);
        let c = SourceTerm::sample(6, 1.0);
        assert_ne!(a.boundary, c.boundary);
    }

    #[test]
    fn problem_assembly_and_residual() {
        let d = RectangleDomain::new(0.0, 0.0, 1.0, 1.0);
        let mesh = generate_mesh(&d, &MeshingOptions::with_element_size(0.15));
        let problem = PoissonProblem::with_random_data(mesh, 11);
        let n = problem.num_unknowns();
        assert!(n > 30);
        // The exact solution has zero residual and zero loss.
        let lu = sparse::LuFactor::factor_csr(&problem.matrix).unwrap();
        let u = lu.solve(&problem.rhs).unwrap();
        assert!(problem.relative_residual(&u) < 1e-12);
        assert!(problem.residual_loss(&u) < 1e-20);
        // The zero vector has a nonzero residual for random data.
        assert!(problem.relative_residual(&vec![0.0; n]) > 1e-3);
    }

    #[test]
    fn random_blob_problem_is_spd_and_solvable() {
        let domain = RandomBlobDomain::generate(2, 20, 1.0);
        let h = meshgen::generator::element_size_for_target_nodes(&domain, 800);
        let mesh = generate_mesh(&domain, &MeshingOptions::with_element_size(h));
        let problem = PoissonProblem::with_random_data(mesh, 7);
        assert!(problem.matrix.is_symmetric(1e-9));
        let chol = sparse::SkylineCholesky::factor(&problem.matrix);
        assert!(chol.is_ok(), "assembled Poisson matrix must be SPD");
        let u = chol.unwrap().solve(&problem.rhs).unwrap();
        assert!(problem.relative_residual(&u) < 1e-10);
    }

    #[test]
    fn residual_loss_matches_definition() {
        let d = RectangleDomain::new(0.0, 0.0, 1.0, 1.0);
        let mesh = generate_mesh(&d, &MeshingOptions::with_element_size(0.25));
        let problem = PoissonProblem::with_random_data(mesh, 1);
        let n = problem.num_unknowns();
        let u = vec![0.1; n];
        let r = problem.residual(&u);
        let manual: f64 = r.iter().map(|v| v * v).sum::<f64>() / n as f64;
        assert!((problem.residual_loss(&u) - manual).abs() < 1e-15);
    }
}
