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
//!   solve, its coarse term selected by
//!   [`AsmLevel`] (none, Nicolaides, or a multi-level V-cycle) in one general
//!   constructor,
//! * [`solver`] — the [`solver::HybridSolver`] public API over the two
//!   functions the whole evaluation runs through: [`build_tiers`] builds the
//!   preconditioner of a [`Method`] (plain CG, IC(0), DDM-LU, DDM-GNN) and
//!   [`solve`] drives any preconditioner through one timed Krylov call,
//! * [`pipeline`] — end-to-end helpers: problem generation, dataset
//!   extraction, model training and evaluation with one call each, and
//!   [`load_pretrained`]: the shipped 16-block model run at its first
//!   [`PRETRAINED_DEPTH`] blocks.

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
    DegradationLadder, FaultEvent, FaultInjectingPreconditioner, FaultKind, FaultLog,
    InjectedFault, ResiliencePolicy,
};
pub use pipeline::{
    generate_problem, load_pretrained, train_model, train_model_multi_size, PipelineConfig,
    TrainedModel, PRETRAINED_DEPTH,
};
pub use preconditioner::DdmGnnPreconditioner;
pub use solver::{build_tiers, solve, HybridSolver, HybridSolverConfig, Method, SolveOutcome};

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared fixture: a small global problem, its decomposition and a tiny
    //! trained model (trained just enough to be a useful preconditioner).
    use fem::PoissonProblem;
    use gnn::{DssConfig, DssModel};
    use meshgen::{generate_mesh, MeshingOptions, RandomBlobDomain};
    use partition::partition_mesh_with_overlap;
    use std::sync::OnceLock;

    pub struct Fixture {
        pub problem: PoissonProblem,
        pub subdomains: Vec<Vec<usize>>,
        pub model: DssModel,
    }

    /// A small fixture shared by the tests in this crate.  It prefers the
    /// pre-trained model shipped in `assets/` (produced by the `train_dss`
    /// example); when that file is absent it falls back to training a small
    /// model on the fly so the test-suite stays self-contained.
    pub fn fixture() -> &'static Fixture {
        static FIXTURE: OnceLock<Fixture> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let domain = RandomBlobDomain::generate(23, 20, 1.0);
            let h = meshgen::generator::element_size_for_target_nodes(&domain, 1100);
            let mesh = generate_mesh(&domain, &MeshingOptions::with_element_size(h).seed(23));
            let subdomains = partition_mesh_with_overlap(&mesh, 200, 2, 0);
            let problem = PoissonProblem::with_random_data(mesh, 31);
            let model = crate::pipeline::load_pretrained().unwrap_or_else(fallback_model);
            Fixture { problem, subdomains, model }
        })
    }

    /// Quick fallback training used only when the shipped model is missing.
    fn fallback_model() -> DssModel {
        let samples = gnn::extract_local_problems(&gnn::DatasetConfig {
            num_global_problems: 2,
            target_nodes: 800,
            subdomain_size: 200,
            overlap: 2,
            max_iterations_per_problem: 12,
            max_samples: Some(90),
            seed: 77,
            ..Default::default()
        });
        let mut model =
            DssModel::new(DssConfig { num_blocks: 12, latent_dim: 10, alpha: 1.0 / 12.0 }, 3);
        let config = gnn::TrainingConfig {
            epochs: 40,
            batch_size: 12,
            adam: gnn::AdamConfig {
                learning_rate: 5e-3,
                clip_norm: Some(1.0),
                ..Default::default()
            },
            validation_fraction: 0.15,
            seed: 5,
            ..Default::default()
        };
        gnn::train(&mut model, &samples, &config);
        model
    }
}
