//! A from-scratch Graph Neural Network framework implementing the
//! Deep Statistical Solver (DSS) of the paper (Section II-B and III-B).
//!
//! The paper trains its DSS model with PyTorch-Geometric on GPUs; no such
//! stack exists for Rust, so this crate implements the full pipeline natively:
//!
//! * [`gemm`] — register-blocked batch GEMM micro-kernels with a strict
//!   per-element accumulation-order (bit-identity) contract: the row-major
//!   f64 kernel behind every linear layer, and one fused
//!   transposed-weight kernel for the inference engine, generic over the
//!   sealed [`Scalar`] trait (`f64`, `f32`),
//! * `layers` — linear layers and two-layer MLPs with exact reverse-mode
//!   gradients (validated against finite differences in the test-suite),
//! * [`plan`] — the inference engine: an `O(e)` structure-only per-graph
//!   plan next to one shared weight pack, and one forward pass over them,
//!   generic over the scalar type, compiled for the baseline target and for
//!   AVX2; the three [`Precision`] tiers are its f64 and f32 instantiations
//!   and an int8 weight format of the latter,
//! * [`graph`] — the [`graph::LocalGraph`] representation of one sub-domain
//!   problem: geometric edge features `(d_jl, ‖d_jl‖)`, normalised residual
//!   input `c`, boundary mask and the local operator used by the loss,
//! * [`model`] — the DSS architecture: `k̄` distinct message-passing blocks
//!   (Eq. 18–21), per-iteration decoders (Eq. 22), ResNet-style latent update
//!   with step `α`; every prefix of a trained model is a trained model
//!   ([`DssModel::truncate`]),
//! * [`loss`] — the physics-informed mean-squared residual loss (Eq. 11) and
//!   its gradient,
//! * [`adam`] — Adam with gradient clipping and a reduce-on-plateau schedule,
//! * [`dataset`] — extraction of local training problems from two-level
//!   ASM-preconditioned PCG runs, exactly like the paper's dataset,
//! * [`trainer`] — mini-batch training loop with rayon data-parallel gradient
//!   accumulation, plus the evaluation metrics of Table II,
//! * [`io`] — plain-text model serialisation so trained models can be reused
//!   by the examples and benchmarks.
//!
//! The architecture hyper-parameters reproduce the paper's weight counts
//! exactly (e.g. `k̄ = 30, d = 10` → 37 530 weights, Table II).

pub mod adam;
pub mod dataset;
pub mod gemm;
pub mod graph;
pub mod io;
mod layers;
pub mod loss;
pub mod model;
pub mod plan;
pub mod trainer;

pub use adam::{Adam, AdamConfig};
pub use dataset::{extract_local_problems, DatasetConfig, TrainingSample};
pub use gemm::Scalar;
pub use graph::LocalGraph;
pub use model::{DssConfig, DssModel};
pub use plan::{InferScratch, InferencePlan, InferenceTimings, Precision};
pub use trainer::{evaluate, train, EvalMetrics, TrainingConfig, TrainingReport};
