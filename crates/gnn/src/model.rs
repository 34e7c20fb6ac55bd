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
//! Because every block's decoded state is trained, every prefix of a trained
//! model is a trained solver too, and depth is the inference cost: the apply
//! is linear in `k̄`.  [`DssModel::truncate`] cuts a model to its first blocks
//! — how the shipped `k̄ = 16` model runs at the depth time-to-solution picks
//! (`ddm_gnn::PRETRAINED_DEPTH`).

use std::sync::{Arc, OnceLock};

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

use crate::gemm::Scalar;
use crate::graph::LocalGraph;
use crate::layers::Mlp;
use crate::loss::residual_loss_and_grad;
use crate::plan::{InferScratch, InferencePlan, InferenceTimings, WeightPack};

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

impl Default for DssConfig {
    fn default() -> Self {
        // The paper's training configuration: k̄ = 30, d = 10, α = 1e-3.
        DssConfig { num_blocks: 30, latent_dim: 10, alpha: 1e-3 }
    }
}

impl DssConfig {
    /// Convenience constructor.
    pub fn new(num_blocks: usize, latent_dim: usize) -> Self {
        DssConfig { num_blocks, latent_dim, alpha: 1e-3 }
    }
}

/// One message-passing block with its four MLPs.
#[derive(Debug, Clone)]
pub(crate) struct Block {
    pub phi_fwd: Mlp,
    pub phi_bwd: Mlp,
    pub psi: Mlp,
    pub decoder: Mlp,
}

impl Block {
    fn xavier(d: usize, rng: &mut impl Rng) -> Self {
        let edge_in = 2 * d + 3;
        let psi_in = 3 * d + 1;
        Block {
            phi_fwd: Mlp::xavier(edge_in, d, d, rng),
            phi_bwd: Mlp::xavier(edge_in, d, d, rng),
            psi: Mlp::xavier(psi_in, d, d, rng),
            decoder: Mlp::xavier(d, d, 1, rng),
        }
    }

    fn zeros_like(other: &Block) -> Self {
        Block {
            phi_fwd: Mlp::zeros_like(&other.phi_fwd),
            phi_bwd: Mlp::zeros_like(&other.phi_bwd),
            psi: Mlp::zeros_like(&other.psi),
            decoder: Mlp::zeros_like(&other.decoder),
        }
    }

    fn num_params(&self) -> usize {
        self.phi_fwd.num_params()
            + self.phi_bwd.num_params()
            + self.psi.num_params()
            + self.decoder.num_params()
    }
}

/// The weight packs of the inference engine, one per scalar type and weight
/// format, each built on first use and shared by every plan built from the
/// model afterwards.
#[derive(Debug, Clone, Default)]
struct PackCache {
    f64: OnceLock<Arc<WeightPack<f64>>>,
    f32: OnceLock<Arc<WeightPack<f32>>>,
    /// The f32 engine's pack in the int8 weight format.
    int8: OnceLock<Arc<WeightPack<f32>>>,
}

// The supertrait of the public `Scalar` must be `pub`, and it names the
// crate-private pack type; the module keeps the trait itself unnameable
// outside the crate, so the pack never leaks.
#[allow(private_interfaces)]
pub(crate) mod sealed {
    use super::*;

    /// Seals [`Scalar`] and names the slot of [`DssModel`]'s pack cache that
    /// holds the scalar type's weights in the given format.
    pub trait PackSlot: Sized {
        #[doc(hidden)]
        fn pack_slot(model: &DssModel, int8: bool) -> &OnceLock<Arc<WeightPack<Self>>>;
    }

    impl PackSlot for f64 {
        fn pack_slot(model: &DssModel, int8: bool) -> &OnceLock<Arc<WeightPack<f64>>> {
            debug_assert!(!int8, "int8 is a weight format of the f32 engine");
            &model.packs.f64
        }
    }

    impl PackSlot for f32 {
        fn pack_slot(model: &DssModel, int8: bool) -> &OnceLock<Arc<WeightPack<f32>>> {
            if int8 {
                &model.packs.int8
            } else {
                &model.packs.f32
            }
        }
    }
}

/// The Deep Statistical Solver.
#[derive(Debug, Clone)]
pub struct DssModel {
    config: DssConfig,
    blocks: Vec<Block>,
    /// The engine's weight packs; reset whenever the parameters change.
    packs: PackCache,
}

impl DssModel {
    /// Create a Xavier-initialised model.
    pub fn new(config: DssConfig, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let blocks =
            (0..config.num_blocks).map(|_| Block::xavier(config.latent_dim, &mut rng)).collect();
        DssModel { config, blocks, packs: PackCache::default() }
    }

    /// The model hyper-parameters.
    pub fn config(&self) -> DssConfig {
        self.config
    }

    /// Total number of trainable weights (matches Table II of the paper).
    pub fn num_params(&self) -> usize {
        self.blocks.iter().map(|b| b.num_params()).sum()
    }

    /// A zeroed clone used as a gradient accumulator.
    pub(crate) fn zeros_like(&self) -> DssModel {
        DssModel {
            config: self.config,
            blocks: self.blocks.iter().map(Block::zeros_like).collect(),
            packs: PackCache::default(),
        }
    }

    /// Flatten all parameters into a single vector.
    pub fn flatten(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_params());
        for b in &self.blocks {
            b.phi_fwd.append_params(&mut out);
            b.phi_bwd.append_params(&mut out);
            b.psi.append_params(&mut out);
            b.decoder.append_params(&mut out);
        }
        out
    }

    /// Load parameters from a flat vector produced by [`DssModel::flatten`].
    pub(crate) fn load_flat(&mut self, data: &[f64]) {
        assert_eq!(data.len(), self.num_params(), "flat parameter length mismatch");
        let mut offset = 0;
        for b in self.blocks_mut() {
            b.phi_fwd.read_params(data, &mut offset);
            b.phi_bwd.read_params(data, &mut offset);
            b.psi.read_params(data, &mut offset);
            b.decoder.read_params(data, &mut offset);
        }
    }

    /// One block forward step: returns the next latent state.
    fn block_forward(&self, block: &Block, graph: &LocalGraph, h: &[f64]) -> Vec<f64> {
        self.block_forward_with_input(block, graph, h, &graph.input)
    }

    /// One block forward step using an explicit node input `c`.
    fn block_forward_with_input(
        &self,
        block: &Block,
        graph: &LocalGraph,
        h: &[f64],
        input: &[f64],
    ) -> Vec<f64> {
        let d = self.config.latent_dim;
        let n = graph.num_nodes();
        let (msg_fwd, msg_bwd) = self.messages(block, graph, h);
        // Ψ update.
        let psi_in = build_psi_input(input, h, &msg_fwd, &msg_bwd, d);
        let update = block.psi.forward(&psi_in, n);
        let mut h_next = h.to_vec();
        for i in 0..n * d {
            h_next[i] += self.config.alpha * update[i];
        }
        h_next
    }

    /// Compute the two aggregated message fields for a block.
    ///
    /// Aggregation walks the graph's destination-sorted incidence
    /// ([`LocalGraph::edge_ptr`]), a contiguous per-node gather.  The stable
    /// sort keeps each node's edges in their original relative order, so the
    /// sums are bit-identical to the per-edge scatter this replaced.
    fn messages(&self, block: &Block, graph: &LocalGraph, h: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let d = self.config.latent_dim;
        let n = graph.num_nodes();
        let e = graph.num_edges();
        let (x_fwd, x_bwd) = build_edge_inputs(graph, h, d);
        let m_fwd = block.phi_fwd.forward(&x_fwd, e);
        let m_bwd = block.phi_bwd.forward(&x_bwd, e);
        let mut msg_fwd = vec![0.0; n * d];
        let mut msg_bwd = vec![0.0; n * d];
        gather_messages(graph, &m_fwd, d, &mut msg_fwd);
        gather_messages(graph, &m_bwd, d, &mut msg_bwd);
        (msg_fwd, msg_bwd)
    }

    /// The model's message-passing blocks (for [`InferencePlan`] builders).
    pub(crate) fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Keep the first `num_blocks` blocks, each with its own decoder, and
    /// drop the rest.
    ///
    /// Training sums the residual loss of the decoded state after *every*
    /// block (Eq. 23), so every prefix of a trained model is itself a trained
    /// solver: the cut model decodes block `num_blocks`' latent state with
    /// block `num_blocks`' decoder.  The step `α` the blocks were trained
    /// with is kept — a model rebuilt through [`DssConfig::new`] at the new
    /// depth would not have it.  Weight packs built before the cut are
    /// dropped, so plans built afterwards run the cut model.
    ///
    /// Panics unless `1 ≤ num_blocks ≤` the current depth.
    pub fn truncate(&mut self, num_blocks: usize) {
        assert!(
            (1..=self.blocks.len()).contains(&num_blocks),
            "truncate: depth {num_blocks} is outside 1..={}",
            self.blocks.len()
        );
        self.packs = PackCache::default();
        self.blocks.truncate(num_blocks);
        self.config.num_blocks = num_blocks;
    }

    /// Mutable access to the parameters — the only one besides
    /// [`DssModel::truncate`] — which drops the cached weight packs: they no
    /// longer match what the caller writes.
    fn blocks_mut(&mut self) -> &mut [Block] {
        self.packs = PackCache::default();
        &mut self.blocks
    }

    /// The engine's weight pack for the current parameters, rounded once
    /// into `T` — through int8 first with `int8` (f32 only) — built on first
    /// use, then shared.  The one place a pack is looked up.
    pub(crate) fn weight_pack<T: Scalar>(&self, int8: bool) -> Arc<WeightPack<T>> {
        Arc::clone(T::pack_slot(self, int8).get_or_init(|| Arc::new(WeightPack::new(self, int8))))
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
        for block in &self.blocks {
            h = self.block_forward_with_input(block, graph, &h, input);
        }
        match self.blocks.last() {
            Some(block) => block.decoder.forward(&h, n),
            None => vec![0.0; n],
        }
    }

    /// Build the f64 inference plan of this model for one graph (the setup
    /// half of the setup/apply split — see [`InferencePlan`]).
    pub fn build_plan(&self, graph: &LocalGraph) -> InferencePlan {
        InferencePlan::new(self, graph)
    }

    /// Build the *single-precision* inference plan of this model for one
    /// graph.  The weight splits and compositions are computed in f64 and
    /// rounded once — to f32, or with `int8_weights` through int8 first (the
    /// latent-state GEMM matrices of every block, one scale per output,
    /// stored dequantised: [`crate::Precision::Int8`]).  The forward pass
    /// then runs entirely in f32 with the residual converted on entry and
    /// the output widened back to f64.
    pub fn build_plan_f32(&self, graph: &LocalGraph, int8_weights: bool) -> InferencePlan<f32> {
        InferencePlan::with_weights(graph, self.weight_pack(int8_weights))
    }

    /// The optimised f64 inference engine on one right-hand side:
    /// [`DssModel::infer_with_plan`] with `b = 1` and no timings.
    pub fn infer_with_plan_into(
        &self,
        plan: &InferencePlan,
        input: &[f64],
        scratch: &mut InferScratch,
        out: &mut [f64],
    ) {
        self.infer_with_plan(plan, input, 1, scratch, out, None);
    }

    /// The inference engine, in the plan's scalar type, on `b` right-hand
    /// sides at once: direction-fused node-level GEMMs over transposed
    /// weights, geometric edge terms recomputed in registers, contiguous
    /// message aggregation.
    ///
    /// `input` and `out` are `n × b` row-major (`input[j*b + c]` is column
    /// `c`'s value at node `j`; with `b = 1` plain vectors).  Weights and
    /// edge structure are read, and the geometric edge terms computed, once
    /// per batch instead of once per right-hand side; column `c` of the
    /// output is **bit-identical** to a `b = 1` call on that column alone,
    /// for every batch width.  With `timings`, a per-stage wall-clock
    /// breakdown is accumulated into it; the output does not depend on it.
    ///
    /// All intermediates live in `scratch` (sized on first use, reused across
    /// calls), so the steady state performs zero heap allocation.  Only the
    /// final block's decoder runs — earlier decodes are training-time
    /// artefacts that do not influence the latent state.
    pub fn infer_with_plan<T: Scalar>(
        &self,
        plan: &InferencePlan<T>,
        input: &[f64],
        b: usize,
        scratch: &mut InferScratch<T>,
        out: &mut [f64],
        timings: Option<&mut InferenceTimings>,
    ) {
        assert_eq!(
            plan.latent_dim(),
            self.config.latent_dim,
            "plan built for a different latent dimension"
        );
        assert_eq!(plan.num_blocks(), self.blocks.len(), "plan built for a different model depth");
        plan.infer(input, b, scratch, out, timings);
    }

    /// Total training loss (sum of per-block residual losses, Eq. 23).
    pub(crate) fn loss(&self, graph: &LocalGraph) -> f64 {
        let n = graph.num_nodes();
        let d = self.config.latent_dim;
        let mut h = vec![0.0; n * d];
        let mut total = 0.0;
        for block in &self.blocks {
            h = self.block_forward(block, graph, &h);
            let decoded = block.decoder.forward(&h, n);
            total += crate::loss::residual_loss(&graph.matrix, &graph.input, &decoded);
        }
        total
    }

    /// Forward + backward pass on one graph.  Accumulates parameter gradients
    /// into `grad` (which must have the same shape) and returns the total
    /// training loss of this graph.
    pub(crate) fn backward(&self, graph: &LocalGraph, grad: &mut DssModel) -> f64 {
        assert_eq!(grad.config, self.config, "gradient container shape mismatch");
        let grad_blocks = grad.blocks_mut();
        let d = self.config.latent_dim;
        let n = graph.num_nodes();
        let e = graph.num_edges();
        let kbar = self.config.num_blocks;

        // Forward pass, storing every latent state (h^0 .. h^kbar).
        let mut states: Vec<Vec<f64>> = Vec::with_capacity(kbar + 1);
        states.push(vec![0.0; n * d]);
        for block in &self.blocks {
            let next = self.block_forward(block, graph, states.last().unwrap());
            states.push(next);
        }

        // Total loss (recomputed per block during the backward sweep).
        let mut total_loss = 0.0;

        // Backward sweep.
        let mut grad_h_next = vec![0.0; n * d]; // dL/dh^{k+1}
        for k in (0..kbar).rev() {
            let block = &self.blocks[k];
            let gblock = &mut grad_blocks[k];
            let h = &states[k];
            let h_next = &states[k + 1];

            // Decoder path of this block: loss on the decoded state of h^{k+1}.
            let (decoded, dec_cache) = block.decoder.forward_cached(h_next, n);
            let (lk, dldr) = residual_loss_and_grad(&graph.matrix, &graph.input, &decoded);
            total_loss += lk;
            let d_dec_in =
                block.decoder.backward(h_next, &dec_cache, &dldr, n, &mut gblock.decoder);
            for i in 0..n * d {
                grad_h_next[i] += d_dec_in[i];
            }

            // Recompute the block's internals for backprop.
            let (x_fwd, x_bwd) = build_edge_inputs(graph, h, d);
            let (m_fwd, fwd_cache) = block.phi_fwd.forward_cached(&x_fwd, e);
            let (m_bwd, bwd_cache) = block.phi_bwd.forward_cached(&x_bwd, e);
            let mut msg_fwd = vec![0.0; n * d];
            let mut msg_bwd = vec![0.0; n * d];
            gather_messages(graph, &m_fwd, d, &mut msg_fwd);
            gather_messages(graph, &m_bwd, d, &mut msg_bwd);
            let psi_in = build_psi_input(&graph.input, h, &msg_fwd, &msg_bwd, d);
            let (_update, psi_cache) = block.psi.forward_cached(&psi_in, n);

            // h^{k+1} = h^k + α Ψ(psi_in): gradient through Ψ.
            let d_psi_out: Vec<f64> = grad_h_next.iter().map(|&g| g * self.config.alpha).collect();
            let d_psi_in = block.psi.backward(&psi_in, &psi_cache, &d_psi_out, n, &mut gblock.psi);

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
            for (ei, edge) in graph.edges.iter().enumerate() {
                for kk in 0..d {
                    d_m_fwd[ei * d + kk] = d_msg_fwd[edge.dst * d + kk];
                    d_m_bwd[ei * d + kk] = d_msg_bwd[edge.dst * d + kk];
                }
            }
            let d_x_fwd =
                block.phi_fwd.backward(&x_fwd, &fwd_cache, &d_m_fwd, e, &mut gblock.phi_fwd);
            let d_x_bwd =
                block.phi_bwd.backward(&x_bwd, &bwd_cache, &d_m_bwd, e, &mut gblock.phi_bwd);
            let edge_cols = 2 * d + 3;
            for (ei, edge) in graph.edges.iter().enumerate() {
                for kk in 0..d {
                    // x = [h_dst, h_src, delta, dist]
                    grad_h[edge.dst * d + kk] += d_x_fwd[ei * edge_cols + kk];
                    grad_h[edge.src * d + kk] += d_x_fwd[ei * edge_cols + d + kk];
                    grad_h[edge.dst * d + kk] += d_x_bwd[ei * edge_cols + kk];
                    grad_h[edge.src * d + kk] += d_x_bwd[ei * edge_cols + d + kk];
                }
            }

            grad_h_next = grad_h;
        }

        total_loss
    }
}

/// Aggregate per-edge messages (indexed in original edge order) into per-node
/// sums along the destination-sorted incidence.  Stable sorting preserves
/// each node's relative edge order, so the result is bit-identical to the
/// per-edge scatter while the output is written node-contiguously.
fn gather_messages(graph: &LocalGraph, m: &[f64], d: usize, msg: &mut [f64]) {
    debug_assert_eq!(m.len(), graph.num_edges() * d);
    debug_assert_eq!(msg.len(), graph.num_nodes() * d);
    for j in 0..graph.num_nodes() {
        let dst_row = &mut msg[j * d..(j + 1) * d];
        for &ei in &graph.edge_order[graph.edge_ptr[j]..graph.edge_ptr[j + 1]] {
            let row = &m[ei * d..(ei + 1) * d];
            for k in 0..d {
                dst_row[k] += row[k];
            }
        }
    }
}

/// Build the per-edge input batches for the two message MLPs.
fn build_edge_inputs(graph: &LocalGraph, h: &[f64], d: usize) -> (Vec<f64>, Vec<f64>) {
    let e = graph.num_edges();
    let cols = 2 * d + 3;
    let mut x_fwd = vec![0.0; e * cols];
    let mut x_bwd = vec![0.0; e * cols];
    build_edge_inputs_into(graph, h, d, &mut x_fwd, &mut x_bwd);
    (x_fwd, x_bwd)
}

/// Write the per-edge input batches into preallocated buffers (every slot is
/// overwritten, so the buffers need no clearing).
fn build_edge_inputs_into(
    graph: &LocalGraph,
    h: &[f64],
    d: usize,
    x_fwd: &mut [f64],
    x_bwd: &mut [f64],
) {
    let cols = 2 * d + 3;
    debug_assert_eq!(x_fwd.len(), graph.num_edges() * cols);
    debug_assert_eq!(x_bwd.len(), graph.num_edges() * cols);
    for (ei, edge) in graph.edges.iter().enumerate() {
        let row_f = &mut x_fwd[ei * cols..(ei + 1) * cols];
        for k in 0..d {
            row_f[k] = h[edge.dst * d + k];
            row_f[d + k] = h[edge.src * d + k];
        }
        row_f[2 * d] = edge.delta[0];
        row_f[2 * d + 1] = edge.delta[1];
        row_f[2 * d + 2] = edge.dist;
        let row_b = &mut x_bwd[ei * cols..(ei + 1) * cols];
        for k in 0..d {
            row_b[k] = h[edge.dst * d + k];
            row_b[d + k] = h[edge.src * d + k];
        }
        row_b[2 * d] = -edge.delta[0];
        row_b[2 * d + 1] = -edge.delta[1];
        row_b[2 * d + 2] = edge.dist;
    }
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
    build_psi_input_into(input, h, msg_fwd, msg_bwd, d, &mut x);
    x
}

/// Write the Ψ input batch into a preallocated buffer (fully overwritten).
fn build_psi_input_into(
    input: &[f64],
    h: &[f64],
    msg_fwd: &[f64],
    msg_bwd: &[f64],
    d: usize,
    x: &mut [f64],
) {
    let n = input.len();
    let cols = 3 * d + 1;
    debug_assert_eq!(x.len(), n * cols);
    for j in 0..n {
        let row = &mut x[j * cols..(j + 1) * cols];
        for k in 0..d {
            row[k] = h[j * d + k];
            row[d + 1 + k] = msg_fwd[j * d + k];
            row[2 * d + 1 + k] = msg_bwd[j * d + k];
        }
        row[d] = input[j];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut boundary = vec![false; n];
        boundary[0] = true;
        boundary[n - 1] = true;
        LocalGraph::new(coo.to_csr(), positions, &rhs, boundary)
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
            let model = DssModel::new(DssConfig::new(kbar, d), 0);
            assert_eq!(model.num_params(), weights, "weight count mismatch for k̄={kbar}, d={d}");
        }
    }

    #[test]
    fn inference_shape_and_determinism() {
        let graph = tiny_graph();
        let model = DssModel::new(DssConfig::new(3, 4), 7);
        let out1 = infer(&model, &graph);
        let out2 = infer(&model, &graph);
        assert_eq!(out1.len(), graph.num_nodes());
        assert_eq!(out1, out2);
        // Different seeds give different outputs.
        let other = DssModel::new(DssConfig::new(3, 4), 8);
        assert_ne!(out1, infer(&other, &graph));
    }

    #[test]
    fn flatten_roundtrip_preserves_behaviour() {
        let graph = tiny_graph();
        let model = DssModel::new(DssConfig::new(2, 3), 3);
        let flat = model.flatten();
        assert_eq!(flat.len(), model.num_params());
        let mut copy = DssModel::new(DssConfig::new(2, 3), 99);
        copy.load_flat(&flat);
        assert_eq!(infer(&model, &graph), infer(&copy, &graph));
    }

    #[test]
    fn backward_gradient_matches_finite_differences() {
        let graph = tiny_graph();
        let model = DssModel::new(DssConfig { num_blocks: 2, latent_dim: 3, alpha: 0.05 }, 11);
        let mut grad = model.zeros_like();
        let loss = model.backward(&graph, &mut grad);
        assert!(loss > 0.0);
        // Loss from backward matches loss() exactly.
        assert!((loss - model.loss(&graph)).abs() < 1e-12);

        let params = model.flatten();
        let analytic = grad.flatten();
        let eps = 1e-6;
        // Spot-check a spread of parameters (checking all ~600 would be slow).
        let num = params.len();
        let indices: Vec<usize> = (0..24).map(|i| i * num / 24).collect();
        for &i in &indices {
            let mut plus = params.clone();
            plus[i] += eps;
            let mut minus = params.clone();
            minus[i] -= eps;
            let mut mp = model.clone();
            mp.load_flat(&plus);
            let mut mm = model.clone();
            mm.load_flat(&minus);
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
            let mut grad = model.zeros_like();
            let loss = model.backward(&graph, &mut grad);
            prop_assert!((loss - model.loss(&graph)).abs() <= 1e-12 * loss.abs().max(1.0));
            let params = model.flatten();
            let analytic = grad.flatten();
            let eps = 1e-6;
            // Spot-check a spread of parameters per case.
            for t in 0..8 {
                let i = t * params.len() / 8;
                let mut plus = params.clone();
                plus[i] += eps;
                let mut minus = params.clone();
                minus[i] -= eps;
                let mut mp = model.clone();
                mp.load_flat(&plus);
                let mut mm = model.clone();
                mm.load_flat(&minus);
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
        let mut grad = model.zeros_like();
        let loss0 = model.backward(&graph, &mut grad);
        let params = model.flatten();
        let g = grad.flatten();
        let gnorm: f64 = g.iter().map(|v| v * v).sum::<f64>().sqrt();
        let step = 1e-2 / gnorm.max(1e-12);
        let updated: Vec<f64> = params.iter().zip(g.iter()).map(|(p, gi)| p - step * gi).collect();
        let mut better = model.clone();
        better.load_flat(&updated);
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
        assert_eq!(plan.num_edges(), graph.num_edges());
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

    /// Run `plan` on one right-hand side, untimed.
    fn run<T: Scalar>(model: &DssModel, plan: &InferencePlan<T>, input: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; plan.num_nodes()];
        model.infer_with_plan(plan, input, 1, &mut InferScratch::new(), &mut out, None);
        out
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
        assert_eq!(reduced.num_edges(), graph.num_edges());
        for scale in [1.0, -0.4, 0.7] {
            let input: Vec<f64> = graph.input.iter().map(|c| c * scale + 0.05).collect();
            let out64 = run(model, &plan64, &input);
            let out = run(model, reduced, &input);
            assert_eq!(out, run(model, reduced, &input), "inference must be deterministic");
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
        let plan32 = model.build_plan_f32(&graph, false);
        // Neither plan stores per-block terms: depth is not in their size.
        let shallow = DssModel::new(DssConfig { num_blocks: 2, latent_dim: 6, alpha: 1e-2 }, 17);
        assert_eq!(shallow.build_plan_f32(&graph, false).memory_bytes(), plan32.memory_bytes());
        assert!(plan32.memory_bytes() < model.build_plan(&graph).memory_bytes());
        assert_tracks_f64(&model, &graph, &plan32, 1e-4);
    }

    #[test]
    fn quantised_plan_tracks_f64_plan_closely_and_is_deterministic() {
        let graph = tiny_graph();
        let model = DssModel::new(DssConfig { num_blocks: 4, latent_dim: 6, alpha: 1e-2 }, 17);
        let (plan32, planq) =
            (model.build_plan_f32(&graph, false), model.build_plan_f32(&graph, true));
        assert_eq!(planq.memory_bytes(), plan32.memory_bytes(), "int8 is a weight format of f32");
        assert_eq!(planq.shared_weight_bytes(), plan32.shared_weight_bytes());
        assert_ne!(
            run(&model, &planq, &graph.input),
            run(&model, &plan32, &graph.input),
            "the int8 pack really is rounded"
        );
        assert_tracks_f64(&model, &graph, &planq, 1e-2);
    }

    /// Timings never change the output and count one call per inference.
    fn assert_timed_is_identical<T: Scalar>(model: &DssModel, plan: &InferencePlan<T>) {
        let input: Vec<f64> = (0..plan.num_nodes()).map(|j| 0.3 - 0.1 * j as f64).collect();
        let mut scratch = InferScratch::new();
        let mut timed_out = vec![0.0; plan.num_nodes()];
        let mut timings = InferenceTimings::default();
        model.infer_with_plan(plan, &input, 1, &mut scratch, &mut timed_out, Some(&mut timings));
        assert_eq!(run(model, plan, &input), timed_out);
        assert_eq!(timings.calls, 1);
    }

    #[test]
    fn f32_timed_inference_is_identical_and_counts_calls() {
        let graph = tiny_graph();
        let model = DssModel::new(DssConfig { num_blocks: 3, latent_dim: 5, alpha: 1e-2 }, 29);
        assert_timed_is_identical(&model, &model.build_plan_f32(&graph, false));
    }

    #[test]
    fn quantised_timed_inference_is_identical_and_counts_calls() {
        let graph = tiny_graph();
        let model = DssModel::new(DssConfig { num_blocks: 3, latent_dim: 5, alpha: 1e-2 }, 29);
        assert_timed_is_identical(&model, &model.build_plan_f32(&graph, true));
    }

    #[test]
    fn timed_inference_is_bit_identical_and_counts_calls() {
        let graph = tiny_graph();
        let model = DssModel::new(DssConfig { num_blocks: 3, latent_dim: 4, alpha: 1e-2 }, 23);
        let plan = model.build_plan(&graph);
        assert_timed_is_identical(&model, &plan);
        let mut out = vec![0.0; graph.num_nodes()];
        let mut timings = InferenceTimings::default();
        let mut scratch = InferScratch::new();
        model.infer_with_plan(&plan, &graph.input, 1, &mut scratch, &mut out, Some(&mut timings));
        let mut merged = timings;
        merged.merge(&timings);
        assert_eq!(merged.calls, 2);
        let total = |t: &InferenceTimings| t.stages().iter().map(|&(_, ns)| ns).sum::<u64>();
        assert_eq!(total(&merged), 2 * total(&timings));
        assert_eq!(timings.stages().len(), 4);
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
        let graph = LocalGraph::new(coo.to_csr(), positions, &rhs, vec![false; n]);
        assert_eq!(graph.in_degrees()[6], 0);
        graph
    }

    /// Column `c` of an `n × b` batched run has the bits of the `b = 1` run
    /// on that column alone, timed or not.
    fn assert_columns_match_unbatched<T: Scalar>(
        model: &DssModel,
        plan: &InferencePlan<T>,
        what: &str,
    ) {
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
            let mut timed_panel = vec![0.0; n * b];
            let mut timings = InferenceTimings::default();
            model.infer_with_plan(plan, &panel, b, &mut scratch, &mut out_panel, None);
            model.infer_with_plan(
                plan,
                &panel,
                b,
                &mut scratch,
                &mut timed_panel,
                Some(&mut timings),
            );
            assert_eq!(out_panel, timed_panel, "{what} b={b}: timed batched path diverged");
            assert_eq!(timings.calls, 1);
            for (c, col) in columns.iter().enumerate() {
                let expected = run(model, plan, col);
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
                assert_columns_match_unbatched(&model, &model.build_plan(&graph), "f64");
                assert_columns_match_unbatched(&model, &model.build_plan_f32(&graph, false), "f32");
                assert_columns_match_unbatched(&model, &model.build_plan_f32(&graph, true), "int8");
            }
        }
    }

    #[test]
    fn truncate_keeps_a_prefix_with_its_own_decoder_and_step() {
        let graph = tiny_graph();
        let config = DssConfig { num_blocks: 5, latent_dim: 4, alpha: 0.2 };
        let mut model = DssModel::new(config, 31);
        let full_flat = model.flatten();
        // Populate the pack cache, so a stale pack would be picked up below.
        let full = infer(&model, &graph);
        let _ = model.build_plan_f32(&graph, false);

        model.truncate(3);
        assert_eq!(model.config(), DssConfig { num_blocks: 3, ..config });
        let flat = model.flatten();
        assert_eq!(flat[..], full_flat[..3 * full_flat.len() / 5]);
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
        let mut rebuilt = DssModel::new(DssConfig { num_blocks: 3, ..config }, 0);
        rebuilt.load_flat(&flat);
        assert_eq!(cut, infer(&rebuilt, &graph));
        let (plan32, rebuilt32) =
            (model.build_plan_f32(&graph, false), rebuilt.build_plan_f32(&graph, false));
        assert_eq!(run(&model, &plan32, &graph.input), run(&rebuilt, &rebuilt32, &graph.input));
    }

    #[test]
    #[should_panic(expected = "depth 0 is outside 1..=3")]
    fn truncate_rejects_zero_blocks() {
        DssModel::new(DssConfig::new(3, 4), 1).truncate(0);
    }

    #[test]
    #[should_panic(expected = "depth 4 is outside 1..=3")]
    fn truncate_rejects_more_blocks_than_the_model_has() {
        DssModel::new(DssConfig::new(3, 4), 1).truncate(4);
    }
}
