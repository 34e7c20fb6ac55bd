//! Global assembly of the Poisson system with Dirichlet boundary conditions.
//!
//! The assembled system keeps one unknown per mesh node (as in the paper,
//! where `N` equals the node count).  Dirichlet conditions are imposed by
//! symmetric elimination: for a boundary node `j` with value `g_j`, the
//! couplings `A_ij` are moved to the right-hand side (`b_i -= A_ij g_j`), the
//! row and column `j` are cleared, the diagonal is set to 1 and `b_j = g_j`.
//! This keeps `A` symmetric positive definite so the Conjugate Gradient
//! method and its Schwarz/GNN preconditioners apply directly.

use meshgen::Mesh;
use rayon::prelude::*;
use sparse::{CooMatrix, CsrMatrix};

use crate::element::{local_load, local_stiffness};

/// The assembled linear system and the data needed to interpret it.
#[derive(Debug, Clone)]
pub(crate) struct AssembledSystem {
    /// System matrix (SPD after Dirichlet elimination).
    pub matrix: CsrMatrix,
    /// Right-hand side.
    pub rhs: Vec<f64>,
    /// Dirichlet flag per node.
    pub dirichlet: Vec<bool>,
}

/// Assemble the P1 Poisson system `-Δu = f`, `u = g` on the boundary.
///
/// `f` and `g` are nodal samples of the source and boundary functions
/// (only the boundary entries of `g` are read).
pub(crate) fn assemble_poisson(mesh: &Mesh, f: &[f64], g: &[f64]) -> AssembledSystem {
    let n = mesh.num_nodes();
    assert_eq!(f.len(), n, "source vector length mismatch");
    assert_eq!(g.len(), n, "boundary vector length mismatch");

    // Per-triangle contributions computed in parallel, then merged serially
    // into the COO builder (the merge is cheap relative to the FLOPs).
    struct ElementContribution {
        nodes: [usize; 3],
        stiffness: [f64; 9],
        load: [f64; 3],
    }

    let contributions: Vec<ElementContribution> = mesh
        .triangles
        .par_iter()
        .filter_map(|t| {
            let p0 = &mesh.points[t[0]];
            let p1 = &mesh.points[t[1]];
            let p2 = &mesh.points[t[2]];
            let (stiffness, area) = local_stiffness(p0, p1, p2)?;
            let load = local_load(&[f[t[0]], f[t[1]], f[t[2]]], area);
            Some(ElementContribution { nodes: *t, stiffness, load })
        })
        .collect();

    let mut coo = CooMatrix::with_capacity(n, n, contributions.len() * 9);
    let mut rhs = vec![0.0; n];
    for c in &contributions {
        for i in 0..3 {
            rhs[c.nodes[i]] += c.load[i];
            for j in 0..3 {
                coo.push_unchecked(c.nodes[i], c.nodes[j], c.stiffness[i * 3 + j]);
            }
        }
    }
    let full = coo.to_csr();

    // Symmetric Dirichlet elimination.
    let dirichlet = mesh.boundary.clone();
    let dirichlet_values: Vec<f64> =
        (0..n).map(|i| if dirichlet[i] { g[i] } else { 0.0 }).collect();

    // Move boundary couplings to the RHS for interior rows.
    for i in 0..n {
        if dirichlet[i] {
            continue;
        }
        let (cols, vals) = full.row(i);
        for (&j, &a) in cols.iter().zip(vals.iter()) {
            if dirichlet[j] {
                rhs[i] -= a * dirichlet_values[j];
            }
        }
    }
    // Rebuild the matrix with boundary rows/columns cleared.
    let mut coo = CooMatrix::with_capacity(n, n, full.nnz());
    for i in 0..n {
        if dirichlet[i] {
            coo.push_unchecked(i, i, 1.0);
            rhs[i] = dirichlet_values[i];
            continue;
        }
        let (cols, vals) = full.row(i);
        for (&j, &a) in cols.iter().zip(vals.iter()) {
            if !dirichlet[j] {
                coo.push_unchecked(i, j, a);
            }
        }
    }
    let matrix = coo.to_csr();

    AssembledSystem { matrix, rhs, dirichlet }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshgen::{generate_mesh, CircleDomain, MeshingOptions, Point2, RectangleDomain};

    fn unit_square_mesh(h: f64) -> Mesh {
        let d = RectangleDomain::new(0.0, 0.0, 1.0, 1.0);
        generate_mesh(&d, &MeshingOptions::with_element_size(h))
    }

    #[test]
    fn assembled_matrix_is_spd_and_sized() {
        let mesh = unit_square_mesh(0.1);
        let n = mesh.num_nodes();
        let f = vec![1.0; n];
        let g = vec![0.0; n];
        let sys = assemble_poisson(&mesh, &f, &g);
        assert_eq!(sys.matrix.nrows(), n);
        assert!(sys.matrix.is_symmetric(1e-10));
        // Diagonal entries strictly positive.
        assert!(sys.matrix.diagonal().iter().all(|&d| d > 0.0));
    }

    #[test]
    fn homogeneous_dirichlet_zero_source_gives_zero_solution() {
        let mesh = unit_square_mesh(0.15);
        let n = mesh.num_nodes();
        let sys = assemble_poisson(&mesh, &vec![0.0; n], &vec![0.0; n]);
        assert!(sparse::vector::norm2(&sys.rhs) < 1e-14);
    }

    #[test]
    fn boundary_rows_are_identity() {
        let mesh = unit_square_mesh(0.2);
        let n = mesh.num_nodes();
        let g: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let sys = assemble_poisson(&mesh, &vec![0.0; n], &g);
        for i in 0..n {
            if sys.dirichlet[i] {
                let (cols, vals) = sys.matrix.row(i);
                assert_eq!(cols, &[i]);
                assert_eq!(vals, &[1.0]);
                assert_eq!(sys.rhs[i], g[i]);
            }
        }
    }

    /// Manufactured solution u = x² + y² ⇒ -Δu = -4, g = x² + y².
    /// The FEM solution must converge to it as h → 0.
    #[test]
    fn manufactured_solution_convergence() {
        let mut errors = Vec::new();
        for &h in &[0.2, 0.1] {
            let mesh = unit_square_mesh(h);
            let n = mesh.num_nodes();
            let exact: Vec<f64> = mesh.points.iter().map(|p| p.x * p.x + p.y * p.y).collect();
            let f = vec![-4.0; n];
            let sys = assemble_poisson(&mesh, &f, &exact);
            let lu = sparse::LuFactor::factor_csr(&sys.matrix).unwrap();
            let u = lu.solve(&sys.rhs).unwrap();
            let err = sparse::vector::relative_error(&u, &exact);
            errors.push(err);
        }
        assert!(errors[0] < 0.05, "coarse error too large: {}", errors[0]);
        assert!(errors[1] < errors[0], "error must decrease with refinement: {errors:?}");
    }

    /// Harmonic function u = x (Δu = 0) is reproduced exactly by P1 elements.
    #[test]
    fn linear_solution_is_exact() {
        let mesh = unit_square_mesh(0.18);
        let n = mesh.num_nodes();
        let exact: Vec<f64> = mesh.points.iter().map(|p| p.x).collect();
        let sys = assemble_poisson(&mesh, &vec![0.0; n], &exact);
        let lu = sparse::LuFactor::factor_csr(&sys.matrix).unwrap();
        let u = lu.solve(&sys.rhs).unwrap();
        assert!(
            sparse::vector::relative_error(&u, &exact) < 1e-10,
            "P1 must reproduce linear functions exactly"
        );
    }

    #[test]
    fn circle_domain_assembly_runs_and_is_spd() {
        let d = CircleDomain::new(Point2::new(0.0, 0.0), 1.0);
        let mesh = generate_mesh(&d, &MeshingOptions::with_element_size(0.12));
        let f: Vec<f64> = mesh.points.iter().map(|p| p.x + p.y).collect();
        let g: Vec<f64> = mesh.points.iter().map(|p| p.x * p.y).collect();
        let sys = assemble_poisson(&mesh, &f, &g);
        assert!(sys.matrix.is_symmetric(1e-10));
        // Cholesky factorisation succeeding is a strong SPD check.
        assert!(sparse::SkylineCholesky::factor(&sys.matrix).is_ok());
    }
}
