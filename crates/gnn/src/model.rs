//! The Deep Statistical Solver model (Section III-B of the paper).
//!
//! The model maintains a latent state `H ∈ R^{n×d}` initialised to zero and
//! applies `k̄` *distinct* message-passing blocks.  Block `k` computes, for
//! every node `j`,
//!
//! ```text
//! φ→_j = Σ_{l ∈ N(j)} Φ→_k(h_j, h_l,  d_jl, ‖d_jl‖)
//! φ←_j = Σ_{l ∈ N(j)} Φ←_k(h_j, h_l, -d_jl, ‖d_jl‖)
//! h'_j = h_j + α Ψ_k(h_j, c_j, φ→_j, φ←_j)
//! r̂_j  = D_k(h'_j)
//! ```
//!
//! with all of `Φ→`, `Φ←`, `Ψ`, `D` two-layer MLPs of hidden width `d` (this
//! choice reproduces the paper's reported weight counts exactly).  Training
//! minimises the sum over blocks of the physics-informed residual loss of the
//! decoded state (Eq. 23).  Gradients are exact reverse-mode derivatives with
//! per-block activation recomputation so the memory footprint stays at one
//! latent state per block.
//!
//! A model is its [`DssConfig`] and one parameter vector, block after block.
//! The block's shape is written once, in `Block::new`, which turns `d` into
//! positions: a block, each of its four MLPs and each of their linear layers
//! is a position in that vector, not a container of weights.  The reference
//! forward pass, the backward pass (into a gradient vector of the same
//! layout), the inference engine's weight pack, the Xavier initialisation
//! and [`crate::io`] all read or write through those positions, and the
//! optimiser steps the model's own vector in place.
//!
//! Because every block's decoded state is trained, every prefix of a trained
//! model is a trained solver too, and depth is the inference cost: the apply
//! is linear in `k̄`.  [`DssModel::truncate`] cuts a model to its first blocks
//! — how the shipped `k̄ = 16` model runs at the depth time-to-solution picks
//! (`ddm_gnn::PRETRAINED_DEPTH`).  A model also carries how many of its
//! leading blocks a preconditioner runs under a multi-level coarse component
//! ([`DssModel::multilevel_depth`], `ddm_gnn::MULTILEVEL_DEPTH` on the
//! shipped one), where the V-cycle carries convergence.

use std::sync::Arc;

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use crate::gemm::Scalar;
use crate::graph::LocalGraph;
use crate::layers::{Linear, Mlp};
use crate::loss::residual_loss_and_grad;
use crate::plan::{InferScratch, InferencePlan, WeightPack};

/// Hyper-parameters of the DSS model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DssConfig {
    /// Number of message-passing blocks `k̄`.
    pub num_blocks: usize,
    /// Latent dimension `d` (also the hidden width of every MLP).
    pub latent_dim: usize,
    /// Residual update step `α` (the paper uses 1e-3).
    pub alpha: f64,
}

/// Where the four MLPs of one message-passing block sit in the block's
/// slice of the parameter vector — the one place the block's shape is
/// written: `Φ→` and `Φ←` `(2d+3) → d → d`, then `Ψ` `(3d+1) → d → d`,
/// then `D` `d → d → 1`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Block {
    pub phi_fwd: Mlp,
    pub phi_bwd: Mlp,
    pub psi: Mlp,
    pub decoder: Mlp,
}

impl Block {
    /// The layout of a block of latent dimension `d`.  Computes positions
    /// only, so a hostile `d` allocates nothing.
    pub(crate) fn new(d: usize) -> Self {
        let phi_fwd = Mlp::at(0, 2 * d + 3, d, d);
        let phi_bwd = Mlp::at(phi_fwd.end(), 2 * d + 3, d, d);
        let psi = Mlp::at(phi_bwd.end(), 3 * d + 1, d, d);
        let decoder = Mlp::at(psi.end(), d, d, 1);
        Block { phi_fwd, phi_bwd, psi, decoder }
    }

    /// Number of parameters of one block.
    pub(crate) fn len(&self) -> usize {
        self.decoder.end()
    }

    /// The block's eight layers, in parameter order.
    fn layers(&self) -> [Linear; 8] {
        let Block { phi_fwd, phi_bwd, psi, decoder } = *self;
        [phi_fwd.l1, phi_fwd.l2, phi_bwd.l1, phi_bwd.l2, psi.l1, psi.l2, decoder.l1, decoder.l2]
    }
}

/// The Deep Statistical Solver.
#[derive(Debug, Clone, PartialEq)]
pub struct DssModel {
    config: DssConfig,
    /// Every trainable weight, block after block, each in `Block`'s layout.
    params: Vec<f64>,
    /// Leading blocks run under a multi-level coarse component, in
    /// `1..=num_blocks`; all of them unless set.  Not saved with the model.
    multilevel_depth: usize,
}

impl DssModel {
    /// Create a Xavier/Glorot-uniform initialised model (the paper's
    /// initialisation): block after block, layer after layer, every weight
    /// drawn from `±sqrt(6 / (in + out))`; every bias is zero.
    pub fn new(config: DssConfig, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let block = Block::new(config.latent_dim);
        let mut params = vec![0.0; config.num_blocks * block.len()];
        for p in params.chunks_exact_mut(block.len()) {
            for layer in block.layers() {
                let limit = (6.0 / (layer.in_dim + layer.out_dim) as f64).sqrt();
                for w in layer.weight_mut(p) {
                    *w = rng.gen_range(-limit..limit);
                }
            }
        }
        Self::from_params(config, params)
    }

    /// The model of `config` with these parameters, in the layout of
    /// [`DssModel::params`].
    pub(crate) fn from_params(config: DssConfig, params: Vec<f64>) -> Self {
        let block_len = Block::new(config.latent_dim).len();
        assert_eq!(params.len(), config.num_blocks * block_len, "parameter count mismatch");
        DssModel { config, params, multilevel_depth: config.num_blocks }
    }

    /// The model hyper-parameters.
    pub fn config(&self) -> DssConfig {
        self.config
    }

    /// Total number of trainable weights (matches Table II of the paper).
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Every parameter, block after block in [`Block`]'s layout; a gradient
    /// has this layout too.
    pub(crate) fn params(&self) -> &[f64] {
        &self.params
    }

    /// The parameters, writable (the optimiser steps them in place).
    pub(crate) fn params_mut(&mut self) -> &mut [f64] {
        &mut self.params
    }

    /// Every block's layout with its slice of the parameters, in order.
    pub(crate) fn blocks(&self) -> impl DoubleEndedIterator<Item = (Block, &[f64])> {
        let block = Block::new(self.config.latent_dim);
        self.params.chunks_exact(block.len()).map(move |p| (block, p))
    }

    /// One block forward step using an explicit node input `c`: returns the
    /// next latent state.
    fn block_forward_with_input(
        &self,
        (block, p): (Block, &[f64]),
        graph: &LocalGraph,
        h: &[f64],
        input: &[f64],
    ) -> Vec<f64> {
        let d = self.config.latent_dim;
        let n = graph.num_nodes();
        let (msg_fwd, msg_bwd) = self.messages((block, p), graph, h);
        // Ψ update.
        let psi_in = build_psi_input(input, h, &msg_fwd, &msg_bwd, d);
        let update = block.psi.forward(p, &psi_in, n);
        let mut h_next = h.to_vec();
        for i in 0..n * d {
            h_next[i] += self.config.alpha * update[i];
        }
        h_next
    }

    /// Compute the two aggregated message fields for a block.
    ///
    /// Aggregation adds every node's run of destination-grouped edges in edge
    /// order.
    fn messages(
        &self,
        (block, p): (Block, &[f64]),
        graph: &LocalGraph,
        h: &[f64],
    ) -> (Vec<f64>, Vec<f64>) {
        let d = self.config.latent_dim;
        let n = graph.num_nodes();
        let e = graph.num_edges();
        let (x_fwd, x_bwd) = build_edge_inputs(graph, h, d);
        let m_fwd = block.phi_fwd.forward(p, &x_fwd, e);
        let m_bwd = block.phi_bwd.forward(p, &x_bwd, e);
        let mut msg_fwd = vec![0.0; n * d];
        let mut msg_bwd = vec![0.0; n * d];
        gather_messages(graph, &m_fwd, d, &mut msg_fwd);
        gather_messages(graph, &m_bwd, d, &mut msg_bwd);
        (msg_fwd, msg_bwd)
    }

    /// Keep the first `num_blocks` blocks, each with its own decoder, and
    /// drop the rest.
    ///
    /// Training sums the residual loss of the decoded state after *every*
    /// block (Eq. 23), so every prefix of a trained model is itself a trained
    /// solver: the cut model decodes block `num_blocks`' latent state with
    /// block `num_blocks`' decoder.  The step `α` the blocks were trained
    /// with is kept — a new [`DssConfig`] at the cut depth would have to
    /// repeat it.  A [`DssModel::multilevel_depth`] above the cut is clamped
    /// to it.
    ///
    /// Panics unless `1 ≤ num_blocks ≤` the current depth.
    pub fn truncate(&mut self, num_blocks: usize) {
        self.check_depth("truncate", num_blocks);
        self.params.truncate(num_blocks * Block::new(self.config.latent_dim).len());
        self.config.num_blocks = num_blocks;
        self.multilevel_depth = self.multilevel_depth.min(num_blocks);
    }

    /// How many leading blocks a preconditioner runs when a multi-level
    /// coarse component (a V-cycle) carries the global convergence: it
    /// builds its plans from the model cut to this depth, while one- and
    /// two-level preconditioners run every block.  All blocks unless
    /// [`DssModel::set_multilevel_depth`] chose fewer; it is a run-time
    /// setting, not written by [`crate::io::save_model`].
    pub fn multilevel_depth(&self) -> usize {
        self.multilevel_depth
    }

    /// Run only the first `depth` blocks under a multi-level coarse
    /// component (see [`DssModel::multilevel_depth`]).  At `depth = 1` no
    /// block sees a neighbour's latent state: each node's output depends on
    /// its own input and its edges' geometry alone, a learned node-wise
    /// smoother.
    ///
    /// Panics unless `1 ≤ depth ≤` the model's depth.
    pub fn set_multilevel_depth(&mut self, depth: usize) {
        self.check_depth("set_multilevel_depth", depth);
        self.multilevel_depth = depth;
    }

    fn check_depth(&self, what: &str, depth: usize) {
        assert!(
            (1..=self.config.num_blocks).contains(&depth),
            "{what}: depth {depth} is outside 1..={}",
            self.config.num_blocks
        );
    }

    /// Reference forward pass: the straightforward edge-batch formulation
    /// (build `e × (2d + 3)` inputs, run the full first-layer GEMM per edge).
    ///
    /// This is the semantics the optimised plan path is tested against — the
    /// proptest suite keeps [`DssModel::infer_with_plan_into`] within 1e-12
    /// relative error of this implementation — and it shares its block step
    /// with the training loss and backward pass, so gradient checks pin the
    /// same numerics.
    // detlint::allow(unreferenced-pub): the reference forward pass the engine parity tests compare against
    pub fn infer_reference(&self, graph: &LocalGraph, input: &[f64]) -> Vec<f64> {
        let n = graph.num_nodes();
        let mut h = vec![0.0; n * self.config.latent_dim];
        for block in self.blocks() {
            h = self.block_forward_with_input(block, graph, &h, input);
        }
        match self.blocks().last() {
            Some((block, p)) => block.decoder.forward(p, &h, n),
            None => vec![0.0; n],
        }
    }

    /// Build the inference plans of `graphs`, in parallel and in order, in
    /// the engine's scalar type `T` (the setup half of the setup/apply split
    /// — see [`InferencePlan`]).  The model's weights are packed once for
    /// the whole set: split and composed in f64 and rounded once into `T` —
    /// with `int8_weights` through int8 first (the latent-state GEMM
    /// matrices of every block, one scale per output, stored dequantised:
    /// [`crate::Precision::Int8`], a weight format of the f32 engine) — and
    /// every plan of the set shares that one pack.  The plans snapshot the
    /// model: changing it afterwards does not reach them.
    pub fn build_plans<T: Scalar>(
        &self,
        graphs: &[LocalGraph],
        int8_weights: bool,
    ) -> Vec<InferencePlan<T>> {
        let weights = Arc::new(WeightPack::new(self, int8_weights));
        graphs.par_iter().map(|graph| InferencePlan::new(graph, Arc::clone(&weights))).collect()
    }

    /// Build the f64 inference plan of this model for one graph, on a weight
    /// pack of its own (a set of graphs shares one: [`DssModel::build_plans`]).
    pub fn build_plan(&self, graph: &LocalGraph) -> InferencePlan {
        InferencePlan::new(graph, Arc::new(WeightPack::new(self, false)))
    }

    /// The f64 engine on one right-hand side: [`InferencePlan::infer`] with
    /// `b = 1`.
    pub fn infer_with_plan_into(
        &self,
        plan: &InferencePlan,
        input: &[f64],
        scratch: &mut InferScratch,
        out: &mut [f64],
    ) {
        plan.infer(input, 1, scratch, out);
    }

    /// Total training loss (sum of per-block residual losses, Eq. 23).
    pub(crate) fn loss(&self, graph: &LocalGraph) -> f64 {
        let n = graph.num_nodes();
        let d = self.config.latent_dim;
        let mut h = vec![0.0; n * d];
        let mut total = 0.0;
        for (block, p) in self.blocks() {
            h = self.block_forward_with_input((block, p), graph, &h, &graph.input);
            let decoded = block.decoder.forward(p, &h, n);
            total += crate::loss::residual_loss(&graph.matrix, &graph.input, &decoded);
        }
        total
    }

    /// Forward + backward pass on one graph.  Accumulates parameter gradients
    /// into `grad` (in the layout of [`DssModel::params`]) and returns the
    /// total training loss of this graph.
    pub(crate) fn backward(&self, graph: &LocalGraph, grad: &mut [f64]) -> f64 {
        assert_eq!(grad.len(), self.params.len(), "gradient length mismatch");
        let d = self.config.latent_dim;
        let n = graph.num_nodes();
        let e = graph.num_edges();
        let kbar = self.config.num_blocks;

        // Forward pass, storing every latent state (h^0 .. h^kbar).
        let mut states: Vec<Vec<f64>> = Vec::with_capacity(kbar + 1);
        states.push(vec![0.0; n * d]);
        for block in self.blocks() {
            let next =
                self.block_forward_with_input(block, graph, states.last().unwrap(), &graph.input);
            states.push(next);
        }
        let block = Block::new(d);
        let block_len = block.len();

        // Total loss (recomputed per block during the backward sweep).
        let mut total_loss = 0.0;

        // Backward sweep.
        let mut grad_h_next = vec![0.0; n * d]; // dL/dh^{k+1}
        for k in (0..kbar).rev() {
            let p = &self.params[k * block_len..][..block_len];
            let gblock = &mut grad[k * block_len..][..block_len];
            let h = &states[k];
            let h_next = &states[k + 1];

            // Decoder path of this block: loss on the decoded state of h^{k+1}.
            let (decoded, dec_cache) = block.decoder.forward_cached(p, h_next, n);
            let (lk, dldr) = residual_loss_and_grad(&graph.matrix, &graph.input, &decoded);
            total_loss += lk;
            let d_dec_in = block.decoder.backward(p, h_next, &dec_cache, &dldr, n, gblock);
            for i in 0..n * d {
                grad_h_next[i] += d_dec_in[i];
            }

            // Recompute the block's internals for backprop.
            let (x_fwd, x_bwd) = build_edge_inputs(graph, h, d);
            let (m_fwd, fwd_cache) = block.phi_fwd.forward_cached(p, &x_fwd, e);
            let (m_bwd, bwd_cache) = block.phi_bwd.forward_cached(p, &x_bwd, e);
            let mut msg_fwd = vec![0.0; n * d];
            let mut msg_bwd = vec![0.0; n * d];
            gather_messages(graph, &m_fwd, d, &mut msg_fwd);
            gather_messages(graph, &m_bwd, d, &mut msg_bwd);
            let psi_in = build_psi_input(&graph.input, h, &msg_fwd, &msg_bwd, d);
            let (_update, psi_cache) = block.psi.forward_cached(p, &psi_in, n);

            // h^{k+1} = h^k + α Ψ(psi_in): gradient through Ψ.
            let d_psi_out: Vec<f64> = grad_h_next.iter().map(|&g| g * self.config.alpha).collect();
            let d_psi_in = block.psi.backward(p, &psi_in, &psi_cache, &d_psi_out, n, gblock);

            // Gradient with respect to h^k: identity path + Ψ's h input.
            let psi_cols = 3 * d + 1;
            let mut grad_h = grad_h_next.clone();
            for j in 0..n {
                for kk in 0..d {
                    grad_h[j * d + kk] += d_psi_in[j * psi_cols + kk];
                }
            }
            // Gradients with respect to the message sums.
            let mut d_msg_fwd = vec![0.0; n * d];
            let mut d_msg_bwd = vec![0.0; n * d];
            for j in 0..n {
                for kk in 0..d {
                    d_msg_fwd[j * d + kk] = d_psi_in[j * psi_cols + d + 1 + kk];
                    d_msg_bwd[j * d + kk] = d_psi_in[j * psi_cols + 2 * d + 1 + kk];
                }
            }

            // Scatter message gradients back to the edges and through the
            // message MLPs.
            let mut d_m_fwd = vec![0.0; e * d];
            let mut d_m_bwd = vec![0.0; e * d];
            for (ei, dst) in graph.edge_dsts().enumerate() {
                for kk in 0..d {
                    d_m_fwd[ei * d + kk] = d_msg_fwd[dst * d + kk];
                    d_m_bwd[ei * d + kk] = d_msg_bwd[dst * d + kk];
                }
            }
            let d_x_fwd = block.phi_fwd.backward(p, &x_fwd, &fwd_cache, &d_m_fwd, e, gblock);
            let d_x_bwd = block.phi_bwd.backward(p, &x_bwd, &bwd_cache, &d_m_bwd, e, gblock);
            let edge_cols = 2 * d + 3;
            for (ei, (dst, &src)) in graph.edge_dsts().zip(graph.edge_src.iter()).enumerate() {
                let src = src as usize;
                for kk in 0..d {
                    // x = [h_dst, h_src, dx, dy, dist]
                    grad_h[dst * d + kk] += d_x_fwd[ei * edge_cols + kk];
                    grad_h[src * d + kk] += d_x_fwd[ei * edge_cols + d + kk];
                    grad_h[dst * d + kk] += d_x_bwd[ei * edge_cols + kk];
                    grad_h[src * d + kk] += d_x_bwd[ei * edge_cols + d + kk];
                }
            }

            grad_h_next = grad_h;
        }

        total_loss
    }
}

/// Aggregate per-edge messages into per-node sums.  The edges are grouped by
/// destination, so every node adds its run in edge order and the output is
/// written node after node.
fn gather_messages(graph: &LocalGraph, m: &[f64], d: usize, msg: &mut [f64]) {
    debug_assert_eq!(m.len(), graph.num_edges() * d);
    debug_assert_eq!(msg.len(), graph.num_nodes() * d);
    for (dst, row) in graph.edge_dsts().zip(m.chunks_exact(d)) {
        let dst_row = &mut msg[dst * d..(dst + 1) * d];
        for k in 0..d {
            dst_row[k] += row[k];
        }
    }
}

/// Build the per-edge input batches `[h_dst, h_src, ±dx, ±dy, dist]` for the
/// two message MLPs (the backward direction sees `−d_jl`).
fn build_edge_inputs(graph: &LocalGraph, h: &[f64], d: usize) -> (Vec<f64>, Vec<f64>) {
    let cols = 2 * d + 3;
    let mut x_fwd = vec![0.0; graph.num_edges() * cols];
    let mut x_bwd = vec![0.0; graph.num_edges() * cols];
    let edges = graph.edge_dsts().zip(graph.edge_src.iter()).zip(graph.edge_geo.iter());
    let rows = x_fwd.chunks_exact_mut(cols).zip(x_bwd.chunks_exact_mut(cols));
    for ((row_f, row_b), ((dst, &src), &[dx, dy, dist])) in rows.zip(edges) {
        let src = src as usize;
        for row in [&mut *row_f, &mut *row_b] {
            row[..d].copy_from_slice(&h[dst * d..(dst + 1) * d]);
            row[d..2 * d].copy_from_slice(&h[src * d..(src + 1) * d]);
        }
        row_f[2 * d..].copy_from_slice(&[dx, dy, dist]);
        row_b[2 * d..].copy_from_slice(&[-dx, -dy, dist]);
    }
    (x_fwd, x_bwd)
}

/// Build the per-node input batch for the Ψ update MLP.
fn build_psi_input(
    input: &[f64],
    h: &[f64],
    msg_fwd: &[f64],
    msg_bwd: &[f64],
    d: usize,
) -> Vec<f64> {
    let n = input.len();
    let cols = 3 * d + 1;
    let mut x = vec![0.0; n * cols];
    for j in 0..n {
        let row = &mut x[j * cols..(j + 1) * cols];
        for k in 0..d {
            row[k] = h[j * d + k];
            row[d + 1 + k] = msg_fwd[j * d + k];
            row[2 * d + 1 + k] = msg_bwd[j * d + k];
        }
        row[d] = input[j];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::tests::plan_for;
    use meshgen::Point2;
    use proptest::prelude::*;
    use sparse::CooMatrix;

    /// f64 inference on the graph's stored input through a throwaway plan.
    fn infer(model: &DssModel, graph: &LocalGraph) -> Vec<f64> {
        infer_with_input(model, graph, &graph.input)
    }

    fn infer_with_input(model: &DssModel, graph: &LocalGraph, input: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; graph.num_nodes()];
        let plan = model.build_plan(graph);
        model.infer_with_plan_into(&plan, input, &mut InferScratch::new(), &mut out);
        out
    }

    /// A tiny local graph (5-node chain) for gradient checking.
    fn tiny_graph() -> LocalGraph {
        let n = 5;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
            if i + 1 < n {
                coo.push(i, i + 1, -1.0).unwrap();
                coo.push(i + 1, i, -1.0).unwrap();
            }
        }
        let positions: Vec<Point2> =
            (0..n).map(|i| Point2::new(i as f64 * 0.5, (i as f64 * 0.3).sin())).collect();
        let rhs: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0) * 0.7 - 1.5).collect();
        LocalGraph::new(coo.to_csr(), positions, &rhs)
    }

    #[test]
    fn weight_counts_match_paper_table_ii() {
        // (k̄, d) → number of weights reported by the paper.
        let expected = [
            (5, 5, 1755),
            (5, 10, 6255),
            (5, 20, 23505),
            (10, 5, 3510),
            (10, 10, 12510),
            (10, 20, 47010),
            (20, 5, 7020),
            (20, 10, 25020),
            (20, 20, 94020),
            (30, 10, 37530),
        ];
        for (kbar, d, weights) in expected {
            let model =
                DssModel::new(DssConfig { num_blocks: kbar, latent_dim: d, alpha: 1e-3 }, 0);
            assert_eq!(model.num_params(), weights, "weight count mismatch for k̄={kbar}, d={d}");
        }
    }

    #[test]
    fn inference_shape_and_determinism() {
        let graph = tiny_graph();
        let model = DssModel::new(DssConfig { num_blocks: 3, latent_dim: 4, alpha: 1e-3 }, 7);
        let out1 = infer(&model, &graph);
        let out2 = infer(&model, &graph);
        assert_eq!(out1.len(), graph.num_nodes());
        assert_eq!(out1, out2);
        // Different seeds give different outputs.
        let other = DssModel::new(DssConfig { num_blocks: 3, latent_dim: 4, alpha: 1e-3 }, 8);
        assert_ne!(out1, infer(&other, &graph));
    }

    #[test]
    fn xavier_initialization_is_bounded_and_nonzero() {
        let model = DssModel::new(DssConfig { num_blocks: 2, latent_dim: 10, alpha: 1e-3 }, 5);
        assert_eq!(model.blocks().count(), 2);
        for (block, p) in model.blocks() {
            for layer in block.layers() {
                let limit = (6.0 / (layer.in_dim + layer.out_dim) as f64).sqrt();
                let weight = layer.weight(p);
                assert!(weight.iter().all(|w| w.abs() <= limit));
                assert!(weight.iter().any(|&w| w != 0.0));
                assert!(layer.bias(p).iter().all(|&b| b == 0.0));
            }
        }
    }

    #[test]
    fn backward_gradient_matches_finite_differences() {
        let graph = tiny_graph();
        let model = DssModel::new(DssConfig { num_blocks: 2, latent_dim: 3, alpha: 0.05 }, 11);
        let mut analytic = vec![0.0; model.num_params()];
        let loss = model.backward(&graph, &mut analytic);
        assert!(loss > 0.0);
        // Loss from backward matches loss() exactly.
        assert!((loss - model.loss(&graph)).abs() < 1e-12);

        let eps = 1e-6;
        // Spot-check a spread of parameters (checking all ~600 would be slow).
        let num = model.num_params();
        let indices: Vec<usize> = (0..24).map(|i| i * num / 24).collect();
        for &i in &indices {
            let (mut mp, mut mm) = (model.clone(), model.clone());
            mp.params[i] += eps;
            mm.params[i] -= eps;
            let numeric = (mp.loss(&graph) - mm.loss(&graph)) / (2.0 * eps);
            let diff = (numeric - analytic[i]).abs();
            let scale = numeric.abs().max(analytic[i].abs()).max(1e-3);
            assert!(
                diff / scale < 1e-3,
                "param {i}: numeric {numeric:e} vs analytic {:e}",
                analytic[i]
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `backward` matches central finite differences on random graphs.
        #[test]
        fn backward_gradients_match_finite_differences(
            n in 4usize..12,
            extra in proptest::collection::vec((0usize..12, 0usize..12), 0..6),
            geo_seed in 0u64..1000,
            model_seed in 0u64..1000,
        ) {
            let positions = (0..n)
                .map(|i| {
                    let t = i as f64 + geo_seed as f64 * 0.37;
                    Point2::new((t * 0.71).sin() * 2.0, (t * 0.53).cos() * 2.0)
                })
                .collect();
            let graph = crate::plan::tests::graph_on(positions, &extra);
            let model = DssModel::new(DssConfig { num_blocks: 2, latent_dim: 3, alpha: 0.05 }, model_seed);
            let mut analytic = vec![0.0; model.num_params()];
            let loss = model.backward(&graph, &mut analytic);
            prop_assert!((loss - model.loss(&graph)).abs() <= 1e-12 * loss.abs().max(1.0));
            let eps = 1e-6;
            // Spot-check a spread of parameters per case.
            for t in 0..8 {
                let i = t * model.num_params() / 8;
                let (mut mp, mut mm) = (model.clone(), model.clone());
                mp.params[i] += eps;
                mm.params[i] -= eps;
                let numeric = (mp.loss(&graph) - mm.loss(&graph)) / (2.0 * eps);
                let diff = (numeric - analytic[i]).abs();
                let scale = numeric.abs().max(analytic[i].abs()).max(1e-3);
                prop_assert!(diff / scale < 1e-3, "param {}: numeric {:e} vs analytic {:e}", i, numeric, analytic[i]);
            }
        }
    }

    #[test]
    fn gradient_step_decreases_loss() {
        // A small explicit gradient-descent step on one graph must reduce the
        // training loss — an end-to-end sanity check of the backward pass.
        let graph = tiny_graph();
        let model = DssModel::new(DssConfig { num_blocks: 2, latent_dim: 4, alpha: 0.05 }, 21);
        let mut g = vec![0.0; model.num_params()];
        let loss0 = model.backward(&graph, &mut g);
        let gnorm: f64 = g.iter().map(|v| v * v).sum::<f64>().sqrt();
        let step = 1e-2 / gnorm.max(1e-12);
        let mut better = model.clone();
        for (p, gi) in better.params.iter_mut().zip(&g) {
            *p -= step * gi;
        }
        let loss1 = better.loss(&graph);
        assert!(loss1 < loss0, "loss did not decrease: {loss0} -> {loss1}");
    }

    #[test]
    fn infer_with_input_matches_stored_input_and_reacts_to_changes() {
        let graph = tiny_graph();
        let model = DssModel::new(DssConfig { num_blocks: 3, latent_dim: 8, alpha: 1e-2 }, 7);
        let stored = infer(&model, &graph);
        assert!(
            stored.iter().any(|&v| v != 0.0),
            "untrained output should not be identically zero"
        );
        let same = infer_with_input(&model, &graph, &graph.input.clone());
        assert_eq!(stored, same);
        let different_input: Vec<f64> = graph.input.iter().map(|c| c * -0.5 + 0.1).collect();
        let different = infer_with_input(&model, &graph, &different_input);
        assert_ne!(stored, different);
    }

    #[test]
    fn infer_into_matches_infer_bit_for_bit_with_scratch_reuse() {
        let model = DssModel::new(DssConfig { num_blocks: 4, latent_dim: 6, alpha: 1e-2 }, 13);
        let mut scratch = InferScratch::new();
        // Same scratch across repeated calls and different inputs.
        let graph = tiny_graph();
        let plan = model.build_plan(&graph);
        let mut out = vec![0.0; graph.num_nodes()];
        for scale in [1.0, -0.5, 0.25] {
            let input: Vec<f64> = graph.input.iter().map(|c| c * scale + 0.1).collect();
            let expected = infer_with_input(&model, &graph, &input);
            model.infer_with_plan_into(&plan, &input, &mut scratch, &mut out);
            assert_eq!(out, expected, "scale {scale}");
        }
    }

    #[test]
    fn planned_inference_matches_reference_closely() {
        // The plan path reassociates the first-layer sums, so it is not
        // bit-identical to the reference — but it must stay within a few ulps
        // (the proptest suite enforces 1e-12 relative on random graphs too).
        let graph = tiny_graph();
        for seed in [7u64, 8, 9] {
            let model =
                DssModel::new(DssConfig { num_blocks: 4, latent_dim: 6, alpha: 1e-2 }, seed);
            let reference = model.infer_reference(&graph, &graph.input);
            let optimised = infer(&model, &graph);
            let ref_norm = reference.iter().map(|v| v * v).sum::<f64>().sqrt();
            for (a, b) in optimised.iter().zip(reference.iter()) {
                assert!(
                    (a - b).abs() <= 1e-12 * ref_norm.max(1.0),
                    "seed {seed}: optimised {a} vs reference {b}"
                );
            }
        }
    }

    #[test]
    fn prebuilt_plan_matches_throwaway_plan_bit_for_bit() {
        let graph = tiny_graph();
        let model = DssModel::new(DssConfig { num_blocks: 3, latent_dim: 5, alpha: 1e-2 }, 17);
        let plan = model.build_plan(&graph);
        assert_eq!(plan.num_nodes(), graph.num_nodes());
        assert!(plan.memory_bytes() > 0);
        let mut scratch = InferScratch::new();
        let mut out = vec![0.0; graph.num_nodes()];
        for scale in [1.0, -0.3, 0.8] {
            let input: Vec<f64> = graph.input.iter().map(|c| c * scale + 0.05).collect();
            model.infer_with_plan_into(&plan, &input, &mut scratch, &mut out);
            let expected = infer_with_input(&model, &graph, &input);
            assert_eq!(out, expected, "scale {scale}");
        }
    }

    /// Run `plan` on one right-hand side.
    fn run<T: Scalar>(plan: &InferencePlan<T>, input: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; plan.num_nodes()];
        plan.infer(input, 1, &mut InferScratch::new(), &mut out);
        out
    }

    /// The f32-engine plan of one graph, in either weight format.
    fn plan_f32(model: &DssModel, graph: &LocalGraph, int8: bool) -> InferencePlan<f32> {
        plan_for(model, graph, int8)
    }

    /// `reduced` (an f32-engine plan) tracks the f64 plan to `tol` relative
    /// and gives the same bits on every call.
    fn assert_tracks_f64(
        model: &DssModel,
        graph: &LocalGraph,
        reduced: &InferencePlan<f32>,
        tol: f64,
    ) {
        let plan64 = model.build_plan(graph);
        assert_eq!(reduced.num_nodes(), graph.num_nodes());
        for scale in [1.0, -0.4, 0.7] {
            let input: Vec<f64> = graph.input.iter().map(|c| c * scale + 0.05).collect();
            let out64 = run(&plan64, &input);
            let out = run(reduced, &input);
            assert_eq!(out, run(reduced, &input), "inference must be deterministic");
            let norm = out64.iter().map(|v| v * v).sum::<f64>().sqrt().max(1.0);
            for (a, b) in out.iter().zip(out64.iter()) {
                assert!((a - b).abs() <= tol * norm, "scale {scale}: reduced {a} vs f64 {b}");
            }
        }
    }

    #[test]
    fn f32_plan_tracks_f64_plan_closely_and_is_deterministic() {
        let graph = tiny_graph();
        let model = DssModel::new(DssConfig { num_blocks: 4, latent_dim: 6, alpha: 1e-2 }, 17);
        let plan32 = plan_f32(&model, &graph, false);
        // Neither plan stores per-block terms: depth is not in their size.
        let shallow = DssModel::new(DssConfig { num_blocks: 2, latent_dim: 6, alpha: 1e-2 }, 17);
        assert_eq!(plan_f32(&shallow, &graph, false).memory_bytes(), plan32.memory_bytes());
        assert!(plan32.memory_bytes() < model.build_plan(&graph).memory_bytes());
        assert_tracks_f64(&model, &graph, &plan32, 1e-4);
    }

    #[test]
    fn quantised_plan_tracks_f64_plan_closely_and_is_deterministic() {
        let graph = tiny_graph();
        let model = DssModel::new(DssConfig { num_blocks: 4, latent_dim: 6, alpha: 1e-2 }, 17);
        let (plan32, planq) = (plan_f32(&model, &graph, false), plan_f32(&model, &graph, true));
        assert_eq!(planq.memory_bytes(), plan32.memory_bytes(), "int8 is a weight format of f32");
        assert_eq!(planq.shared_weight_bytes(), plan32.shared_weight_bytes());
        assert_ne!(
            run(&planq, &graph.input),
            run(&plan32, &graph.input),
            "the int8 pack really is rounded"
        );
        assert_tracks_f64(&model, &graph, &planq, 1e-2);
    }

    /// A 7-node graph: a 6-node chain with one chord, and node 6 coupled to
    /// nothing (in-degree 0).
    fn graph_with_isolated_node() -> LocalGraph {
        let n = 7;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0).unwrap();
        }
        for (i, j) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4)] {
            coo.push(i, j, -1.0).unwrap();
            coo.push(j, i, -1.0).unwrap();
        }
        let positions: Vec<Point2> =
            (0..n).map(|i| Point2::new((i as f64 * 0.9).cos(), i as f64 * 0.4)).collect();
        let rhs: Vec<f64> = (0..n).map(|i| 0.5 - 0.3 * i as f64).collect();
        let graph = LocalGraph::new(coo.to_csr(), positions, &rhs);
        assert_eq!(graph.in_degree[6], 0);
        graph
    }

    /// Column `c` of an `n × b` batched run has the bits of the `b = 1` run
    /// on that column alone.
    fn assert_columns_match_unbatched<T: Scalar>(plan: &InferencePlan<T>, what: &str) {
        let n = plan.num_nodes();
        let mut scratch = InferScratch::new();
        for b in [1usize, 2, 3, 4, 5, 8] {
            // b distinct inputs; column 1 (when there is one) is all zero.
            let columns: Vec<Vec<f64>> = (0..b)
                .map(|c| {
                    let scale = if c == 1 { 0.0 } else { 1.0 - 0.37 * c as f64 };
                    (0..n).map(|j| scale * (0.4 - 0.11 * j as f64 + 0.03 * c as f64)).collect()
                })
                .collect();
            let mut panel = vec![0.0; n * b];
            for (c, col) in columns.iter().enumerate() {
                for j in 0..n {
                    panel[j * b + c] = col[j];
                }
            }
            let mut out_panel = vec![0.0; n * b];
            plan.infer(&panel, b, &mut scratch, &mut out_panel);
            for (c, col) in columns.iter().enumerate() {
                let expected = run(plan, col);
                assert!(expected.iter().any(|&v| v != 0.0));
                for j in 0..n {
                    assert_eq!(
                        out_panel[j * b + c].to_bits(),
                        expected[j].to_bits(),
                        "{what} b={b} c={c} j={j}: batched column diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_plan_inference_is_bit_identical_per_column() {
        // Every engine and batch width, on graphs whose node counts leave a
        // row-tile remainder (5 and 7 nodes, one of them isolated), at a
        // run-time row width (d = 5) and at the fixed one (d = 10), where
        // b = 1 and b > 1 take differently compiled edge sweeps.
        for graph in [tiny_graph(), graph_with_isolated_node()] {
            for latent_dim in [5, 10] {
                let model = DssModel::new(DssConfig { num_blocks: 3, latent_dim, alpha: 1e-2 }, 41);
                assert_columns_match_unbatched(&model.build_plan(&graph), "f64");
                assert_columns_match_unbatched(&plan_f32(&model, &graph, false), "f32");
                assert_columns_match_unbatched(&plan_f32(&model, &graph, true), "int8");
            }
        }
    }

    #[test]
    fn truncate_keeps_a_prefix_with_its_own_decoder_and_step() {
        let graph = tiny_graph();
        let config = DssConfig { num_blocks: 5, latent_dim: 4, alpha: 0.2 };
        let mut model = DssModel::new(config, 31);
        let full_params = model.params.clone();
        // Plans built before the cut snapshot the full model.
        let full = infer(&model, &graph);
        let (full64, full32) = (model.build_plan(&graph), plan_f32(&model, &graph, false));
        let full_f32 = run(&full32, &graph.input);

        model.truncate(3);
        assert_eq!(model.config(), DssConfig { num_blocks: 3, ..config });
        // A plan built after the cut runs the cut model: the reference
        // forward pass of three blocks decoded by the third decoder.
        let cut = infer(&model, &graph);
        assert_ne!(cut, full);
        let reference = model.infer_reference(&graph, &graph.input);
        let norm = reference.iter().map(|v| v * v).sum::<f64>().sqrt().max(1.0);
        for (a, b) in cut.iter().zip(&reference) {
            assert!((a - b).abs() <= 1e-12 * norm, "plan {a} vs reference {b}");
        }
        // …and has the bits of a model built at that depth from the prefix.
        let prefix = full_params[..3 * full_params.len() / 5].to_vec();
        let rebuilt = DssModel::from_params(DssConfig { num_blocks: 3, ..config }, prefix);
        assert_eq!(model, rebuilt, "the cut keeps the first three blocks' parameters");
        assert_eq!(cut, infer(&rebuilt, &graph));
        let (plan32, rebuilt32) =
            (plan_f32(&model, &graph, false), plan_f32(&rebuilt, &graph, false));
        assert_eq!(run(&plan32, &graph.input), run(&rebuilt32, &graph.input));
        // The plans built before the cut still run all five blocks.
        assert_eq!(run(&full64, &graph.input), full);
        assert_eq!(run(&full32, &graph.input), full_f32);
        assert_ne!(run(&plan32, &graph.input), full_f32);
    }

    #[test]
    fn multilevel_depth_defaults_to_all_blocks_and_truncate_clamps_it() {
        let mut model = DssModel::new(DssConfig { num_blocks: 5, latent_dim: 3, alpha: 1e-3 }, 2);
        assert_eq!(model.multilevel_depth(), 5);
        model.set_multilevel_depth(3);
        assert_eq!(model.multilevel_depth(), 3);
        model.truncate(4);
        assert_eq!(model.multilevel_depth(), 3, "a cut above the depth keeps it");
        model.truncate(2);
        assert_eq!(model.multilevel_depth(), 2, "a cut below the depth clamps it");
        // A run-time setting: the file holds the blocks, not the depth.
        model.set_multilevel_depth(1);
        let path = std::env::temp_dir().join(format!("dss_ml_depth_{}", std::process::id()));
        crate::io::save_model(&path, &model).unwrap();
        let loaded = crate::io::load_model(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.params, model.params);
        assert_eq!(loaded.multilevel_depth(), 2, "a loaded model runs all its blocks");
    }

    #[test]
    #[should_panic(expected = "set_multilevel_depth: depth 4 is outside 1..=3")]
    fn multilevel_depth_cannot_exceed_the_model() {
        DssModel::new(DssConfig { num_blocks: 3, latent_dim: 4, alpha: 1e-3 }, 1)
            .set_multilevel_depth(4);
    }

    #[test]
    #[should_panic(expected = "depth 0 is outside 1..=3")]
    fn truncate_rejects_zero_blocks() {
        DssModel::new(DssConfig { num_blocks: 3, latent_dim: 4, alpha: 1e-3 }, 1).truncate(0);
    }

    #[test]
    #[should_panic(expected = "depth 4 is outside 1..=3")]
    fn truncate_rejects_more_blocks_than_the_model_has() {
        DssModel::new(DssConfig { num_blocks: 3, latent_dim: 4, alpha: 1e-3 }, 1).truncate(4);
    }
}
