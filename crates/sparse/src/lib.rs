//! Sparse and dense linear-algebra substrate for the DDM-GNN reproduction.
//!
//! This crate provides every matrix/vector primitive the rest of the workspace
//! builds on:
//!
//! * [`CooMatrix`] — triplet builder used during finite-element assembly,
//! * [`CsrMatrix`] — compressed sparse row storage with parallel
//!   matrix–vector products and sub-matrix extraction,
//! * [`DenseMatrix`] / [`LuFactor`] — dense kernels and LU with partial
//!   pivoting used for the coarse problem of the two-level Schwarz method,
//! * [`SkylineCholesky`] — envelope (skyline) Cholesky factorisation
//!   combined with reverse Cuthill–McKee reordering, used as the exact sub-domain solver of
//!   the DDM-LU baseline,
//! * [`IncompleteCholesky`] — zero-fill incomplete Cholesky, the IC(0)
//!   baseline preconditioner of the paper's Table III,
//! * [`vector`] — the small set of BLAS-1 kernels (dot, axpy, norms) shared by
//!   the Krylov solvers.
//!
//! All floating point work is `f64`. Parallelism uses rayon and is restricted
//! to embarrassingly parallel loops (row-wise SpMV, batched factorisations),
//! so results are deterministic.

pub mod cholesky;
pub mod coo;
pub mod csr;
pub mod dense;
pub mod error;
pub mod ic0;
pub mod lu;
mod rcm;
pub mod vector;

pub use cholesky::SkylineCholesky;
pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use error::SparseError;
pub use ic0::IncompleteCholesky;
pub use lu::LuFactor;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, SparseError>;
