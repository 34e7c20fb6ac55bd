//! Umbrella crate for the DDM-GNN reproduction workspace.
//!
//! This crate only re-exports the workspace members so the examples under
//! `examples/` and the integration tests under `tests/` can reach every layer
//! of the stack through one dependency.  The actual functionality lives in:
//!
//! * [`sparse`] — sparse/dense linear algebra,
//! * [`krylov`] — CG and flexible PCG (one or many right-hand sides),
//! * [`meshgen`] — unstructured mesh generation,
//! * [`fem`] — P1 Poisson assembly,
//! * [`partition`] — graph partitioning and overlap,
//! * [`ddm`] — Additive Schwarz (DDM-LU),
//! * [`gnn`] — the Deep Statistical Solver framework,
//! * [`ddm_gnn`] — the DDM-GNN preconditioner and hybrid solver.

pub use ddm;
pub use ddm_gnn;
pub use fem;
pub use gnn;
pub use krylov;
pub use meshgen;
pub use partition;
pub use sparse;
