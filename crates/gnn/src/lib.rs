//! A from-scratch Graph Neural Network framework implementing the
//! Deep Statistical Solver (DSS) of the paper (Section II-B and III-B).
//!
//! The paper trains its DSS model with PyTorch-Geometric on GPUs; no such
//! stack exists for Rust, so this crate implements the full pipeline natively:
//!
//! * [`gemm`] — the one register-blocked transposed-weight GEMM behind
//!   every linear layer and the inference engine, with a strict
//!   per-element accumulation-order (bit-identity) contract, generic over
//!   the sealed [`Scalar`] trait (`f64` unfused, `f32` with fused
//!   multiply-adds),
//! * `layers` — linear layers and two-layer MLPs as positions in a
//!   parameter vector, with exact reverse-mode gradients into a vector of
//!   the same layout (validated against finite differences in the
//!   test-suite),
//! * [`plan`] — the inference engine: an `O(e)` per-graph plan (structure
//!   and block 1's edge sums) next to one weight pack per plan set, and one
//!   forward pass over them, generic over the scalar type, compiled for the baseline
//!   target, for AVX2 + FMA and, in f64, for AVX-512F; the three [`Precision`]
//!   tiers are its f64 and f32 instantiations and an int8 weight format of
//!   the latter,
//! * [`graph`] — the [`graph::LocalGraph`] representation of one sub-domain
//!   problem: destination-grouped edges with their geometric features
//!   `(d_jl, ‖d_jl‖)` in the layout the plans cast, normalised residual
//!   input `c`, and the local operator used by the loss,
//! * [`model`] — the DSS architecture: `k̄` distinct message-passing blocks
//!   (Eq. 18–21), per-iteration decoders (Eq. 22), ResNet-style latent update
//!   with step `α`, held as its config and one parameter vector whose block
//!   layout is written once; every prefix of a trained model is a trained
//!   model ([`DssModel::truncate`]),
//! * `loss` — the physics-informed mean-squared residual loss (Eq. 11) and
//!   its gradient,
//! * `adam` — Adam with gradient clipping and a reduce-on-plateau schedule,
//!   at the one setting every training runs,
//! * [`dataset`] — extraction of local training problems from two-level
//!   ASM-preconditioned PCG runs, exactly like the paper's dataset,
//! * [`trainer`] — mini-batch training loop with rayon data-parallel gradient
//!   accumulation, plus the evaluation metrics of Table II,
//! * [`io`] — plain-text model serialisation so trained models can be reused
//!   by the examples and benchmarks.
//!
//! The architecture hyper-parameters reproduce the paper's weight counts
//! exactly (e.g. `k̄ = 30, d = 10` → 37 530 weights, Table II).

mod adam;
pub mod dataset;
pub mod gemm;
pub mod graph;
pub mod io;
mod layers;
mod loss;
pub mod model;
pub mod plan;
pub mod trainer;

pub use dataset::{extract_local_problems, TrainingSample};
pub use gemm::Scalar;
pub use graph::LocalGraph;
pub use model::{DssConfig, DssModel};
pub use plan::{InferScratch, InferencePlan, Precision};
pub use trainer::{evaluate, train, EvalMetrics, TrainingReport};
