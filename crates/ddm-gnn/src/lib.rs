//! DDM-GNN: the multi-level GNN preconditioner and hybrid solver — the
//! paper's primary contribution (Section III).
//!
//! The preconditioner replaces the exact local solves of the two-level
//! Additive Schwarz Method with inference of a trained Deep Statistical
//! Solver, keeping the Nicolaides coarse correction:
//!
//! ```text
//! z  =  R₀ᵀ (R₀ A R₀ᵀ)⁻¹ R₀ r                     (coarse problem, LU)
//!     + Σᵢ Rᵢᵀ ‖Rᵢ r‖ · DSSθ(Ωₕ,ᵢ, Rᵢ r / ‖Rᵢ r‖)   (local problems, GNN)
//! ```
//!
//! (Eq. 13–16).  Used inside the Preconditioned Conjugate Gradient method this
//! yields a hybrid solver that converges to any tolerance while the
//! preconditioner runs as batched, data-parallel GNN inference.
//!
//! * [`preconditioner::DdmGnnPreconditioner`] — the operator above: the
//!   `ddm` crate's one Schwarz shell ([`ddm::Schwarz`]) over the DSS local
//!   solve, its coarse term selected by [`AsmLevel`] in one general
//!   constructor: none or Nicolaides, added to the local corrections, or a
//!   multi-level V-cycle run before and after them,
//! * [`solver`] — the two functions the whole evaluation runs through:
//!   [`build_preconditioner`] builds the preconditioner of a [`Method`]
//!   (plain CG, IC(0), DDM-LU, DDM-GNN), under the degradation ladder when
//!   [`HybridSolverConfig::resilient`] is set, and [`solve`] drives any
//!   preconditioner through one timed Krylov call,
//! * [`pipeline`] — end-to-end helpers: problem generation, model training
//!   and evaluation with one call each, and [`load_pretrained`]: the shipped
//!   16-block model run at its first [`PRETRAINED_DEPTH`] blocks — its first
//!   [`MULTILEVEL_DEPTH`] under a multi-level coarse component — the one
//!   model every example, paper section and test loads.

// Library code must not panic via unwrap — the apply path runs under
// `catch_unwind` containment whose soundness argument assumes poison-free
// recovery (detlint enforces the wider contract; clippy carries this slice).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod pipeline;
pub mod preconditioner;
pub mod solver;

pub use ddm::{AsmLevel, MultilevelConfig};
pub use gnn::Precision;
pub use krylov::{
    DegradationLadder, FaultEvent, FaultInjectingPreconditioner, FaultKind, FaultLog, InjectedFault,
};
pub use pipeline::{
    generate_problem, load_pretrained, train_model_multi_size, TrainedModel, MULTILEVEL_DEPTH,
    PRETRAINED_DEPTH,
};
pub use preconditioner::DdmGnnPreconditioner;
pub use solver::{build_preconditioner, solve, HybridSolverConfig, Method, SolveOutcome};

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared fixture: a small global problem, its decomposition and the
    //! shipped model.
    use fem::PoissonProblem;
    use gnn::DssModel;
    use meshgen::{generate_mesh, MeshingOptions, RandomBlobDomain};
    use partition::partition_mesh_with_overlap;
    use std::sync::OnceLock;

    pub struct Fixture {
        pub problem: PoissonProblem,
        pub subdomains: Vec<Vec<usize>>,
        pub model: DssModel,
    }

    /// A small fixture shared by the tests in this crate, on the model of
    /// [`crate::load_pretrained`].
    pub fn fixture() -> &'static Fixture {
        static FIXTURE: OnceLock<Fixture> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let domain = RandomBlobDomain::generate(23, 20, 1.0);
            let h = meshgen::generator::element_size_for_target_nodes(&domain, 1100);
            let mesh = generate_mesh(&domain, &MeshingOptions::with_element_size(h).seed(23));
            let subdomains = partition_mesh_with_overlap(&mesh, 200, 2, 0);
            let problem = PoissonProblem::with_random_data(mesh, 31);
            let model = crate::load_pretrained().expect("the shipped model in assets/");
            Fixture { problem, subdomains, model }
        })
    }
}
