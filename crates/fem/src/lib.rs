//! P1 finite-element discretisation of the Poisson problem.
//!
//! The paper solves `-Δu = f` on a 2D domain `Ω` with Dirichlet data `g` on
//! `∂Ω`, discretised with first-order Lagrange elements so that the unknowns
//! live on the mesh nodes (Section II).  This crate assembles the sparse
//! linear system `A u = b` from a [`meshgen::Mesh`]:
//!
//! * `element` — per-triangle stiffness matrices and load vectors,
//! * `assembly` — parallel global assembly and symmetric elimination of the
//!   Dirichlet boundary conditions (so `A` stays SPD and CG applies),
//! * [`problem`] — the [`PoissonProblem`] bundle (mesh + matrix + rhs) and the
//!   random quadratic forcing/boundary functions of the paper's dataset
//!   (Eq. 24–25), plus manufactured solutions for verification.

mod assembly;
mod element;
pub mod problem;

pub use problem::{PoissonProblem, SourceTerm};
