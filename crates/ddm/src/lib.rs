//! Additive Schwarz domain decomposition (Section II-A of the paper).
//!
//! The two-level Additive Schwarz Method (ASM) preconditioner is
//!
//! ```text
//! M⁻¹_{ASM,2} = R₀ᵀ (R₀ A R₀ᵀ)⁻¹ R₀  +  Σᵢ Rᵢᵀ (Rᵢ A Rᵢᵀ)⁻¹ Rᵢ
//! ```
//!
//! where the `Rᵢ` are boolean restrictions onto overlapping sub-domains and
//! `R₀` spans the Nicolaides coarse space.  Two things vary: the local solve
//! (a [`LocalSolve`]) and the coarse term, which one enum names:
//! [`AsmLevel`] is `OneLevel` (no coarse term), `TwoLevel` (Nicolaides) or
//! `Multilevel(config)` (a V-cycle).  This crate provides:
//!
//! * [`restriction::Restriction`] — the `Rᵢ` operators (index lists),
//! * [`multilevel::Hierarchy`] — the one coarse component: the
//!   partition-of-unity Nicolaides space with its dense LU
//!   (`Hierarchy::nicolaides`) or the recursive smoothed-aggregation AMG
//!   hierarchy whose V-cycle is a stronger (3+ level) coarse solve
//!   ([`Hierarchy::build`]),
//! * [`asm::Schwarz`] — the one Schwarz preconditioner, generic over a
//!   [`LocalSolve`] and implementing [`krylov::Preconditioner`] so it plugs
//!   straight into PCG,
//! * [`local::CholeskyLocalSolver`] — the exact local solve (sparse
//!   Cholesky; this is the "LU" of the paper's DDM-LU baseline), and
//!   [`AdditiveSchwarz`], the shell over it, built by
//!   `AdditiveSchwarz::new(matrix, subdomains, level)`.
//!
//! The GNN preconditioner of the paper (`ddm-gnn` crate) is the same shell
//! over a second local solve, DSS inference.

// Library code must not panic via unwrap — the `DegradationLadder` guard
// treats every Schwarz/coarse apply as panic-free (detlint enforces the wider
// contract; clippy carries this slice).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod asm;
pub mod local;
pub mod multilevel;
pub mod restriction;

pub use asm::{AsmLevel, LocalSolve, Schwarz};
pub use local::{AdditiveSchwarz, CholeskyLocalSolver};
pub use multilevel::{Hierarchy, MultilevelConfig, SmootherPrecision};
pub use restriction::Restriction;

use sparse::CsrMatrix;

/// The decomposition of a global problem: overlapping sub-domain index sets
/// plus the restriction operators and local matrices derived from them.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// One sorted global-node list per sub-domain.
    pub subdomains: Vec<Vec<usize>>,
    /// Restriction operators (one per sub-domain).
    pub restrictions: Vec<Restriction>,
    /// Local operators `Rᵢ A Rᵢᵀ`.
    pub local_matrices: Vec<CsrMatrix>,
}

impl Decomposition {
    /// Build a decomposition from the global matrix and overlapping
    /// sub-domain node sets (as produced by
    /// `partition::partition_mesh_with_overlap`).
    pub fn new(matrix: &CsrMatrix, subdomains: Vec<Vec<usize>>) -> Self {
        let n = matrix.nrows();
        let restrictions: Vec<Restriction> =
            subdomains.iter().map(|sd| Restriction::new(sd.clone(), n)).collect();
        let local_matrices = matrix.principal_submatrices(&subdomains);
        Decomposition { subdomains, restrictions, local_matrices }
    }

    /// Global problem size.
    pub fn num_global(&self) -> usize {
        self.restrictions.first().map(|r| r.num_global()).unwrap_or(0)
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared fixtures for the ddm tests: a small Poisson problem with a
    //! partition into overlapping sub-domains.
    use fem::PoissonProblem;
    use meshgen::{generate_mesh, MeshingOptions, RandomBlobDomain};
    use partition::partition_mesh_with_overlap;

    pub struct Fixture {
        pub problem: PoissonProblem,
        pub subdomains: Vec<Vec<usize>>,
    }

    /// Build a ~`target_nodes` Poisson problem split into sub-domains of
    /// ~`target_sub` nodes with the given overlap.
    pub fn fixture(target_nodes: usize, target_sub: usize, overlap: usize) -> Fixture {
        let domain = RandomBlobDomain::generate(17, 20, 1.0);
        let h = meshgen::generator::element_size_for_target_nodes(&domain, target_nodes);
        let mesh = generate_mesh(&domain, &MeshingOptions::with_element_size(h));
        let subdomains = partition_mesh_with_overlap(&mesh, target_sub, overlap, 0);
        let problem = PoissonProblem::with_random_data(mesh, 5);
        Fixture { problem, subdomains }
    }
}

#[cfg(test)]
mod coarse {
    //! Properties of the Nicolaides coarse space over a real
    //! [`Decomposition`](crate::Decomposition).  They live at the crate root
    //! so the suite keeps tracking them under their `coarse::tests::*` ids.
    mod tests {
        use crate::test_support::fixture;
        use crate::{Decomposition, Hierarchy};

        /// The Nicolaides hierarchy of a fixture and its problem size.
        fn nicolaides(target_nodes: usize, target_sub: usize) -> (Hierarchy, sparse::CsrMatrix) {
            let fx = fixture(target_nodes, target_sub, 2);
            let decomp = Decomposition::new(&fx.problem.matrix, fx.subdomains);
            let coarse = Hierarchy::nicolaides(&fx.problem.matrix, &decomp.restrictions).unwrap();
            assert_eq!(
                coarse.level_dims(),
                &[fx.problem.matrix.nrows(), decomp.restrictions.len()]
            );
            (coarse, fx.problem.matrix)
        }

        /// The coarse correction of `r`, accumulated into a zero vector.
        fn apply(coarse: &Hierarchy, r: &[f64]) -> Vec<f64> {
            let mut out = vec![0.0; r.len()];
            coarse.apply_into(r, &mut out);
            out
        }

        #[test]
        fn basis_is_a_partition_of_unity() {
            let (coarse, matrix) = nicolaides(800, 200);
            // Sum of basis rows = 1 everywhere (partition of unity).
            let r0 = coarse.r0.as_ref().unwrap();
            let mut sum = vec![0.0; matrix.nrows()];
            for i in 0..r0.nrows() {
                let (cols, vals) = r0.row(i);
                for (&c, &v) in cols.iter().zip(vals.iter()) {
                    sum[c] += v;
                }
            }
            for &s in &sum {
                assert!((s - 1.0).abs() < 1e-12, "partition of unity violated: {s}");
            }
        }

        #[test]
        fn coarse_apply_is_symmetric_operator() {
            // zᵀ apply(y) == yᵀ apply(z) because R0ᵀ A0⁻¹ R0 is symmetric.
            let (coarse, matrix) = nicolaides(600, 200);
            let n = matrix.nrows();
            let y: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
            let z: Vec<f64> = (0..n).map(|i| ((i % 11) as f64) * 0.25).collect();
            let ay = apply(&coarse, &y);
            let az = apply(&coarse, &z);
            let lhs = sparse::vector::dot(&z, &ay);
            let rhs = sparse::vector::dot(&y, &az);
            assert!((lhs - rhs).abs() < 1e-8 * lhs.abs().max(1.0));
        }

        #[test]
        fn coarse_correction_captures_constant_like_error() {
            // The coarse space must represent (approximately) constant vectors:
            // applying the coarse correction to A * 1 should recover something
            // close to the constant vector on the interior.
            let (coarse, matrix) = nicolaides(700, 200);
            let ones = vec![1.0; matrix.nrows()];
            let recovered = apply(&coarse, &matrix.spmv(&ones));
            // Galerkin projection property: R0 A (recovered - ones) = 0, i.e. the
            // coarse residual of the recovered vector vanishes.
            let diff: Vec<f64> = recovered.iter().zip(ones.iter()).map(|(r, o)| r - o).collect();
            let coarse_residual = coarse.r0.as_ref().unwrap().spmv(&matrix.spmv(&diff));
            for proj in coarse_residual {
                assert!(proj.abs() < 1e-6, "coarse residual component {proj}");
            }
        }

        #[test]
        fn apply_into_is_repeatable_and_accumulates() {
            // Scratch reuse must not change results, and apply_into must add to
            // (not overwrite) the output vector.
            let (coarse, matrix) = nicolaides(500, 180);
            let r: Vec<f64> =
                (0..matrix.nrows()).map(|i| ((i * 5 % 17) as f64) * 0.3 - 2.0).collect();
            let first = apply(&coarse, &r);
            let second = apply(&coarse, &r);
            assert_eq!(first, second, "scratch reuse changed the result");
            let mut acc = first.clone();
            coarse.apply_into(&r, &mut acc);
            for (a, f) in acc.iter().zip(first.iter()) {
                assert!((a - 2.0 * f).abs() < 1e-12);
            }
        }

        #[test]
        fn apply_survives_poisoned_scratch_mutex() {
            // A panic while the scratch lock is held poisons the mutex.  The
            // coarse solve must recover (the buffers carry no cross-call state)
            // and keep producing the exact same corrections as before the panic.
            let (coarse, matrix) = nicolaides(500, 180);
            let r: Vec<f64> =
                (0..matrix.nrows()).map(|i| ((i * 3 % 13) as f64) * 0.5 - 1.5).collect();
            let before = apply(&coarse, &r);

            // Deliberately poison: panic while holding the scratch guard.
            let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _guard = coarse.scratch.lock();
                panic!("deliberate poison");
            }));
            assert!(poison.is_err());

            // The next apply must neither panic nor change its answer.
            let after = apply(&coarse, &r);
            assert_eq!(before, after, "poison recovery changed the coarse correction");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use test_support::fixture;

    #[test]
    fn decomposition_shapes_are_consistent() {
        let fx = fixture(900, 250, 2);
        let decomp = Decomposition::new(&fx.problem.matrix, fx.subdomains.clone());
        assert_eq!(decomp.restrictions.len(), fx.subdomains.len());
        assert_eq!(decomp.num_global(), fx.problem.num_unknowns());
        for (i, sd) in fx.subdomains.iter().enumerate() {
            assert_eq!(decomp.local_matrices[i].nrows(), sd.len());
            assert_eq!(decomp.restrictions[i].num_local(), sd.len());
            // Local matrices inherit symmetry from the global one.
            assert!(decomp.local_matrices[i].is_symmetric(1e-10));
        }
    }
}
