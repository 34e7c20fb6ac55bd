//! Per-graph inference plans and the forward passes that run on them.
//!
//! The DSS forward pass feeds every message MLP an edge-level batch of
//! `e × (2d + 3)` rows `[h_dst | h_src | d_jl | ‖d_jl‖]`.  The first layer is
//! affine, so its pre-activation splits along those column groups:
//!
//! ```text
//! W₁ x_e + b₁ = W_dst h_dst(e) + W_src h_src(e) + (W_geo g_e + b₁)
//! ```
//!
//! The two `h`-dependent parts are **node-level** products `H W_dstᵀ` and
//! `H W_srcᵀ` gathered per edge — an ~8× flop cut versus the `e × (2d + 3)`
//! edge-level GEMM at the mesh's typical `e ≈ 7n`.  The message MLPs' second
//! layer is linear too, so the per-node *sum* of ReLU'd hidden activations is
//! hit once by the composed matrix `W_Ψ,msg W₂` and no per-edge message is
//! ever materialised; the message biases contribute `deg(j) · W_Ψ,msg b₂`.
//! All engines fuse the two message directions column-wise (`[fwd | bwd]`
//! rows `2d` wide): one node GEMM pair, one edge sweep, one `2d × d` Ψ
//! product whose ascending-input order equals the fwd-then-bwd pair.
//!
//! What is left is the geometric part `W_geo g_e + b₁`, a pure function of
//! three numbers per edge (`d_jl`, `‖d_jl‖`) and of the model.  The three
//! precision tiers differ in what they do with it:
//!
//! * **f64** ([`InferencePlan`], the bit-reproducible anchor).  Setup copies
//!   *graph structure only*: `(dx, dy, dist)` and a `u32` source index per
//!   destination-sorted edge, the in-degree per node — `O(e)` bytes,
//!   independent of the model's depth and width.  Apply recomputes
//!   `W_geo g_e + b₁` and the Ψ static term `b_Ψ + deg·q` in registers from
//!   one weight pack ([`WeightPack`]) that is built once per model and
//!   shared by `Arc` between all plans.  Nothing is streamed per edge and
//!   block.
//! * **f32 / int8** ([`InferencePlanF32`], [`InferencePlanQ`]).  Setup
//!   additionally evaluates the geometric term for every edge, block and
//!   direction (`k̄ · e · 2d` values, f32 or bf16) and the Ψ static term per
//!   node and block; apply streams them.  Their plans are therefore `O(k̄ e d)`
//!   and larger than the f64 plan.
//!
//! A plan is tied to the exact (model, graph) pair it was built from; the
//! edge structure is copied in destination-sorted order (see
//! [`LocalGraph::edge_ptr`]), so message aggregation in the planned forward
//! pass is a contiguous per-node gather.

use std::sync::Arc;
use std::time::Instant;

use sanitizer::TrackedMutex;

use crate::gemm::{self, Epilogue, Operand};
use crate::graph::LocalGraph;
use crate::layers::Linear;
use crate::model::{Block, DssModel};

/// Scalar precision of the inference engine.
///
/// The preconditioner output only feeds a *flexible* outer Krylov method, so
/// reduced inference precision cannot break convergence — it merely perturbs
/// the preconditioner slightly (the observation that lets graph neural
/// preconditioners run inference in low precision).
///
/// `F64` is the default, the correctness anchor, and since its plan stopped
/// storing per-edge terms also the **smallest** plan (`O(e)` bytes against
/// `O(k̄ e d)` for the other two), the cheapest to set up and — one column at
/// a time — the fastest to apply.  `F32` trades ~1e-6 relative output error
/// for 8-lane kernels over stored single-precision terms; it is the fastest
/// tier per column only on the batched panel path.  `Int8` additionally
/// quantises the weights to int8 (per-output f32 scales) and the static
/// streams to bf16, trading ~1e-3 relative output error for half the f32
/// plan's footprint; it buys memory over `F32`, not speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Double-precision inference (bit-reproducible engine, the default).
    #[default]
    F64,
    /// Single-precision inference with explicit 8-lane SIMD kernels.
    F32,
    /// Quantised inference: int8 weights with per-output f32 scales, bf16
    /// static edge terms and hidden sums, f32 accumulators throughout.
    Int8,
}

impl Precision {
    /// Lower-case name used in benchmark reports and env configuration.
    pub fn as_str(&self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Precision {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "f64" | "double" => Ok(Precision::F64),
            "f32" | "single" => Ok(Precision::F32),
            "int8" | "i8" | "quantised" | "quantized" => Ok(Precision::Int8),
            other => Err(format!("unknown precision '{other}' (expected f64, f32 or int8)")),
        }
    }
}

/// Row-major weight splits and compositions of one message-passing block:
/// everything the plans derive from the model alone, computed in f64.  The
/// f64 weight pack transposes these into kernel layout; the f32 / int8 plans
/// round them once.
pub(crate) struct PlanBlock {
    /// `Φ→` first-layer columns acting on `h_dst` (`d × d`, row-major).
    pub w_dst_fwd: Vec<f64>,
    /// `Φ→` first-layer columns acting on `h_src`.
    pub w_src_fwd: Vec<f64>,
    /// `Φ←` split.
    pub w_dst_bwd: Vec<f64>,
    pub w_src_bwd: Vec<f64>,
    /// `Ψ` first-layer columns acting on `h` (`d × d`).
    pub psi_w_h: Vec<f64>,
    /// `Ψ` first-layer column acting on the node input `c` (length `d`).
    pub psi_w_c: Vec<f64>,
    /// Composed matrix `W_Ψ,→ W₂→` applied to the aggregated forward hidden
    /// activations (`d × d`).
    pub psi_m_fwd: Vec<f64>,
    /// Composed matrix `W_Ψ,← W₂←` for the backward direction.
    pub psi_m_bwd: Vec<f64>,
    /// `Ψ` first-layer bias `b_Ψ` (length `d`).
    pub psi_bias: Vec<f64>,
    /// Message-bias contribution per unit of in-degree,
    /// `q = W_Ψ,→ b₂→ + W_Ψ,← b₂←` (length `d`).
    pub psi_q: Vec<f64>,
}

/// Extract the column block `[col0, col0 + cols)` of a row-major layer weight
/// as its own row-major `out_dim × cols` matrix.
fn column_block(layer: &Linear, col0: usize, cols: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(layer.out_dim * cols);
    for o in 0..layer.out_dim {
        let row = &layer.weight[o * layer.in_dim..(o + 1) * layer.in_dim];
        out.extend_from_slice(&row[col0..col0 + cols]);
    }
    out
}

/// Precompute `W_geo g_e + b₁` for every destination-sorted edge (the f32 and
/// int8 plans store this; the f64 engine recomputes it per apply and is
/// pinned bit-identical to this function).  `sign` flips the relative
/// position for the backward message direction.
fn geo_terms(layer: &Linear, graph: &LocalGraph, d: usize, sign: f64) -> Vec<f64> {
    let cols = layer.in_dim;
    debug_assert_eq!(cols, 2 * d + 3);
    let mut out = Vec::with_capacity(graph.num_edges() * d);
    for &ei in &graph.edge_order {
        let edge = &graph.edges[ei];
        for o in 0..d {
            let w = &layer.weight[o * cols + 2 * d..o * cols + 2 * d + 3];
            out.push(
                layer.bias[o]
                    + w[0] * (sign * edge.delta[0])
                    + w[1] * (sign * edge.delta[1])
                    + w[2] * edge.dist,
            );
        }
    }
    out
}

/// Row-major product `A B` of two `d × d` matrices.
fn matmul_dd(a: &[f64], b: &[f64], d: usize) -> Vec<f64> {
    let mut out = vec![0.0; d * d];
    for p in 0..d {
        for o in 0..d {
            let apo = a[p * d + o];
            if apo == 0.0 {
                continue;
            }
            let brow = &b[o * d..(o + 1) * d];
            let orow = &mut out[p * d..(p + 1) * d];
            for t in 0..d {
                orow[t] += apo * brow[t];
            }
        }
    }
    out
}

/// `A v` for a row-major `d × d` matrix.
fn matvec_dd(a: &[f64], v: &[f64], d: usize) -> Vec<f64> {
    (0..d).map(|p| a[p * d..(p + 1) * d].iter().zip(v).map(|(x, y)| x * y).sum()).collect()
}

impl PlanBlock {
    fn new(block: &Block, d: usize) -> Self {
        let psi = &block.psi.l1;
        debug_assert_eq!(psi.in_dim, 3 * d + 1);
        let psi_w_fwd = column_block(psi, d + 1, d);
        let psi_w_bwd = column_block(psi, 2 * d + 1, d);
        let q_fwd = matvec_dd(&psi_w_fwd, &block.phi_fwd.l2.bias, d);
        let q_bwd = matvec_dd(&psi_w_bwd, &block.phi_bwd.l2.bias, d);
        PlanBlock {
            w_dst_fwd: column_block(&block.phi_fwd.l1, 0, d),
            w_src_fwd: column_block(&block.phi_fwd.l1, d, d),
            w_dst_bwd: column_block(&block.phi_bwd.l1, 0, d),
            w_src_bwd: column_block(&block.phi_bwd.l1, d, d),
            psi_w_h: column_block(psi, 0, d),
            psi_w_c: column_block(psi, d, 1),
            psi_m_fwd: matmul_dd(&psi_w_fwd, &block.phi_fwd.l2.weight, d),
            psi_m_bwd: matmul_dd(&psi_w_bwd, &block.phi_bwd.l2.weight, d),
            psi_bias: psi.bias.clone(),
            psi_q: q_fwd.iter().zip(&q_bwd).map(|(f, b)| f + b).collect(),
        }
    }

    /// Per-node static `Ψ` pre-activation `b_Ψ + deg(j) · q` (`n × d`), as
    /// the f32 and int8 plans store it.
    fn psi_static(&self, graph: &LocalGraph) -> Vec<f64> {
        let d = self.psi_bias.len();
        let n = graph.num_nodes();
        let mut out = vec![0.0; n * d];
        for j in 0..n {
            let deg = (graph.edge_ptr[j + 1] - graph.edge_ptr[j]) as f64;
            let row = &mut out[j * d..(j + 1) * d];
            for k in 0..d {
                row[k] = self.psi_bias[k] + deg * self.psi_q[k];
            }
        }
        out
    }
}

/// Transpose a row-major `out × in` f64 matrix into the kernels' `in × out`
/// layout (one contiguous row of output weights per input feature).
fn transpose_f64(w: &[f64], out_dim: usize, in_dim: usize) -> Vec<f64> {
    debug_assert_eq!(w.len(), out_dim * in_dim);
    let mut wt = vec![0.0f64; in_dim * out_dim];
    for o in 0..out_dim {
        for i in 0..in_dim {
            wt[i * out_dim + o] = w[o * in_dim + i];
        }
    }
    wt
}

/// Concatenate two row-major `d × d` f64 matrices column-wise and transpose
/// the pair into `in × out` (`d × 2d`): row `i` holds `[a[·][i] | b[·][i]]`.
fn cat_transpose_f64(a: &[f64], b: &[f64], d: usize) -> Vec<f64> {
    debug_assert_eq!(a.len(), d * d);
    debug_assert_eq!(b.len(), d * d);
    let mut wt = vec![0.0f64; d * 2 * d];
    for o in 0..d {
        for i in 0..d {
            wt[i * 2 * d + o] = a[o * d + i];
            wt[i * 2 * d + d + o] = b[o * d + i];
        }
    }
    wt
}

/// Stack two row-major `d × d` matrices as GEMM *inputs* of the transposed
/// layout (`2d × d`): input row `i` is the `i`-th forward hidden dimension
/// for `i < d` and the `(i − d)`-th backward one otherwise.
fn stack_transpose_f64(a: &[f64], b: &[f64], d: usize) -> Vec<f64> {
    let mut wt = transpose_f64(a, d, d);
    wt.extend(transpose_f64(b, d, d));
    wt
}

/// One block of the f64 [`WeightPack`], direction-fused and transposed.
#[derive(Debug)]
struct PackBlock {
    /// `[W_dst,→ | W_dst,←]` transposed: `d × 2d`.
    w_dst_t: Vec<f64>,
    /// `[W_src,→ | W_src,←]` transposed: `d × 2d`.
    w_src_t: Vec<f64>,
    /// Geometry rows, `4 × 2d`: `b₁`, then the weights of `dx`, `dy` and
    /// `dist`, each `[fwd | bwd]`.  The backward halves of the `dx` / `dy`
    /// rows are stored **negated**: `Φ←` sees `−d_jl`, and `(−w)·x` has the
    /// same bits as `w·(−x)`.
    geo: Vec<f64>,
    /// `Ψ` first-layer bias `b_Ψ` (length `d`).
    psi_bias: Vec<f64>,
    /// Transposed weight of the per-node input `[deg(j), c_j]`, `2 × d`: the
    /// per-degree message-bias term `q`, then `Ψ`'s `c` column.  Starting
    /// from `b_Ψ`, its two accumulation steps are `(b_Ψ + deg·q) + c·w_c` —
    /// the static term and the `W_c c` term in the order they were always
    /// added.
    psi_node_t: Vec<f64>,
    /// `Ψ` first-layer columns acting on `h`, transposed: `d × d`.
    psi_w_h_t: Vec<f64>,
    /// `[W_Ψ,→ W₂→ ; W_Ψ,← W₂←]` transposed: `2d × d`.
    psi_m_t: Vec<f64>,
    /// Ψ second layer, transposed weight + bias.
    psi_l2_wt: Vec<f64>,
    psi_l2_b: Vec<f64>,
}

impl PackBlock {
    fn new(block: &Block, d: usize) -> Self {
        let pb = PlanBlock::new(block, d);
        let (fwd, bwd) = (&block.phi_fwd.l1, &block.phi_bwd.l1);
        let cols = fwd.in_dim;
        let d2 = 2 * d;
        let mut geo = vec![0.0; 4 * d2];
        for o in 0..d {
            let wf = &fwd.weight[o * cols + d2..][..3];
            let wb = &bwd.weight[o * cols + d2..][..3];
            geo[o] = fwd.bias[o];
            geo[d + o] = bwd.bias[o];
            geo[d2 + o] = wf[0];
            geo[d2 + d + o] = -wb[0];
            geo[2 * d2 + o] = wf[1];
            geo[2 * d2 + d + o] = -wb[1];
            geo[3 * d2 + o] = wf[2];
            geo[3 * d2 + d + o] = wb[2];
        }
        PackBlock {
            w_dst_t: cat_transpose_f64(&pb.w_dst_fwd, &pb.w_dst_bwd, d),
            w_src_t: cat_transpose_f64(&pb.w_src_fwd, &pb.w_src_bwd, d),
            geo,
            psi_bias: pb.psi_bias,
            psi_node_t: [pb.psi_q, pb.psi_w_c].concat(),
            psi_w_h_t: transpose_f64(&pb.psi_w_h, d, d),
            psi_m_t: stack_transpose_f64(&pb.psi_m_fwd, &pb.psi_m_bwd, d),
            psi_l2_wt: transpose_f64(&block.psi.l2.weight, d, d),
            psi_l2_b: block.psi.l2.bias.clone(),
        }
    }

    fn len(&self) -> usize {
        self.w_dst_t.len()
            + self.w_src_t.len()
            + self.geo.len()
            + self.psi_bias.len()
            + self.psi_node_t.len()
            + self.psi_w_h_t.len()
            + self.psi_m_t.len()
            + self.psi_l2_wt.len()
            + self.psi_l2_b.len()
    }

    fn geo_rows(&self) -> GeoRows<'_> {
        let d2 = self.geo.len() / 4;
        let (bias, rest) = self.geo.split_at(d2);
        let (w_dx, rest) = rest.split_at(d2);
        let (w_dy, w_dist) = rest.split_at(d2);
        GeoRows { bias, w_dx, w_dy, w_dist }
    }
}

/// The four `2d`-wide rows of [`PackBlock::geo`].
#[derive(Clone, Copy)]
struct GeoRows<'a> {
    bias: &'a [f64],
    w_dx: &'a [f64],
    w_dy: &'a [f64],
    w_dist: &'a [f64],
}

impl GeoRows<'_> {
    /// Lane `k` of `W_geo g_e + b₁`, evaluated in exactly the expression
    /// order of [`geo_terms`] — `((b + w₀·dx) + w₁·dy) + w₂·dist` — so the
    /// recomputed term has the bits the stored one had.
    #[inline(always)]
    fn term(&self, k: usize, [dx, dy, dist]: [f64; 3]) -> f64 {
        self.bias[k] + self.w_dx[k] * dx + self.w_dy[k] * dy + self.w_dist[k] * dist
    }
}

/// Final-block decoder of the f64 [`WeightPack`].
#[derive(Debug)]
struct PackDecoder {
    l1_wt: Vec<f64>,
    l1_b: Vec<f64>,
    /// Second-layer weight (`out_dim = 1`: its row is its own transpose).
    l2_w: Vec<f64>,
    l2_b: Vec<f64>,
}

/// The model half of the f64 engine: every weight the forward pass reads, in
/// kernel layout (direction-fused, transposed to `in × out`).  A few KB per
/// block; built once per model ([`DssModel::weight_pack`]) and shared by
/// `Arc` between all plans built from it, so a preconditioner holds one
/// copy, not one per sub-domain.
#[derive(Debug)]
pub(crate) struct WeightPack {
    latent_dim: usize,
    alpha: f64,
    blocks: Vec<PackBlock>,
    decoder: Option<PackDecoder>,
}

impl WeightPack {
    pub(crate) fn new(model: &DssModel) -> Self {
        let config = model.config();
        let d = config.latent_dim;
        WeightPack {
            latent_dim: d,
            alpha: config.alpha,
            blocks: model.blocks().iter().map(|b| PackBlock::new(b, d)).collect(),
            decoder: model.blocks().last().map(|b| PackDecoder {
                l1_wt: transpose_f64(&b.decoder.l1.weight, d, d),
                l1_b: b.decoder.l1.bias.clone(),
                l2_w: b.decoder.l2.weight.clone(),
                l2_b: b.decoder.l2.bias.clone(),
            }),
        }
    }

    fn memory_bytes(&self) -> usize {
        let decoder = self
            .decoder
            .as_ref()
            .map_or(0, |dec| dec.l1_wt.len() + dec.l1_b.len() + dec.l2_w.len() + dec.l2_b.len());
        std::mem::size_of::<f64>()
            * (self.blocks.iter().map(PackBlock::len).sum::<usize>() + decoder)
    }
}

/// Reusable buffers for the f64 inference path
/// ([`DssModel::infer_with_plan_into`] and friends).
///
/// Create once (cheap, everything starts empty), pass to every inference
/// call; buffers are sized lazily to the largest graph seen and reused
/// afterwards.  Holding one scratch per sub-domain keeps the preconditioner's
/// hot path allocation-free without any sharing between threads; batched
/// inference recycles them through a [`ScratchPool`].  The direction-fused
/// buffers (`a_dst`, `a_src`, `hsum`) are `n × 2d`.
#[derive(Debug, Default)]
pub struct InferScratch {
    /// Per-node Ψ input `[deg(j), c_j]` (`n × 2`).
    node_in: Vec<f64>,
    /// Latent state `H` (`n × d`).
    h: Vec<f64>,
    /// Node-level destination terms `H [W_dst,→ | W_dst,←]ᵀ`.
    a_dst: Vec<f64>,
    /// Node-level source terms `H [W_src,→ | W_src,←]ᵀ`.
    a_src: Vec<f64>,
    /// Per-node sums of ReLU'd message hidden activations, `[fwd | bwd]`.
    hsum: Vec<f64>,
    /// Ψ hidden activation (`n × d`).
    psi_hidden: Vec<f64>,
    /// Decoder hidden-activation buffer (`n × d`).
    hidden: Vec<f64>,
}

impl InferScratch {
    /// Empty scratch; buffers are allocated on first use.
    pub fn new() -> Self {
        InferScratch::default()
    }
}

/// A per-graph f64 inference plan: the setup half of the setup/apply split.
///
/// Build once per sub-domain graph (e.g. at preconditioner construction) via
/// [`DssModel::build_plan`], then run [`DssModel::infer_with_plan_into`] any
/// number of times with changing node inputs.  The plan owns only graph
/// structure — three doubles and a `u32` per edge, a `u32` per node — and
/// shares the model's [`WeightPack`]; it snapshots that pack, so it must be
/// rebuilt if the model is retrained.
pub struct InferencePlan {
    /// `(dx, dy, dist)` of every destination-sorted edge.
    edge_geo: Vec<[f64; 3]>,
    /// Source node of every destination-sorted edge.
    edge_src: Vec<u32>,
    /// In-degree of every node: node `j`'s edges follow those of `j − 1` in
    /// the sorted edge list.
    in_degree: Vec<u32>,
    weights: Arc<WeightPack>,
}

impl InferencePlan {
    /// Build a plan for `model` on `graph`.
    pub fn new(model: &DssModel, graph: &LocalGraph) -> Self {
        let n = graph.num_nodes();
        let e = graph.num_edges();
        assert_eq!(graph.edge_ptr.len(), n + 1, "stale incidence: run rebuild_incidence");
        assert_eq!(graph.edge_order.len(), e, "stale incidence: run rebuild_incidence");
        let edge_geo = graph
            .edge_order
            .iter()
            .map(|&ei| {
                let edge = &graph.edges[ei];
                [edge.delta[0], edge.delta[1], edge.dist]
            })
            .collect();
        InferencePlan {
            edge_geo,
            edge_src: graph.sorted_edge_sources(),
            in_degree: graph.in_degrees(),
            weights: model.weight_pack(),
        }
    }

    /// Number of nodes of the graph this plan was built for.
    pub fn num_nodes(&self) -> usize {
        self.in_degree.len()
    }

    /// Number of directed edges of the graph this plan was built for.
    pub fn num_edges(&self) -> usize {
        self.edge_src.len()
    }

    /// Latent dimension of the model this plan was built from.
    pub(crate) fn latent_dim(&self) -> usize {
        self.weights.latent_dim
    }

    /// Depth of the model this plan was built from.
    pub(crate) fn num_blocks(&self) -> usize {
        self.weights.blocks.len()
    }

    /// Heap footprint in bytes of what this plan owns: `28 e + 4 n`, whatever
    /// the model's depth and width.  The shared weights are counted
    /// separately, see [`InferencePlan::shared_weight_bytes`].
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<[f64; 3]>() * self.edge_geo.len()
            + std::mem::size_of::<u32>() * (self.edge_src.len() + self.in_degree.len())
    }

    /// Heap footprint in bytes of the weight pack this plan shares with every
    /// other plan built from the same model (count it once per model, not
    /// once per plan).
    pub fn shared_weight_bytes(&self) -> usize {
        self.weights.memory_bytes()
    }

    /// Run the f64 engine on an `n × b` column-interleaved panel of inputs
    /// (`b = 1`: a plain vector).  The forward body is compiled twice — inlined
    /// here for the baseline target, and into [`forward_avx2`] — and the copy
    /// the CPU supports is chosen per call; neither copy contracts or
    /// reassociates, so both produce the same bits.
    pub(crate) fn infer_core(
        &self,
        input: &[f64],
        b: usize,
        scratch: &mut InferScratch,
        out: &mut [f64],
        timings: Option<&mut InferenceTimings>,
    ) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `forward_avx2` is safe code whose only requirement is
            // the AVX2 target feature it is compiled with, and the
            // `is_x86_feature_detected!("avx2")` check guarding this branch
            // has just confirmed the running CPU provides it.
            return unsafe { forward_avx2(self, input, b, scratch, out, timings) };
        }
        forward(self, input, b, scratch, out, timings)
    }
}

/// [`forward`] compiled with AVX2 enabled (no `fma`: the arithmetic must
/// stay a separate multiply and add per term).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn forward_avx2(
    plan: &InferencePlan,
    input: &[f64],
    b: usize,
    scratch: &mut InferScratch,
    out: &mut [f64],
    timings: Option<&mut InferenceTimings>,
) {
    forward(plan, input, b, scratch, out, timings);
}

/// `Y = epilogue(bias + Σₛ Xₛ Wₛᵀ)` on column-interleaved panels of width
/// `b`.  `b = 1` *is* the unbatched row-major layout and takes the
/// lane-tiled kernel.
#[inline(always)]
fn panel_gemm<const S: usize>(
    ops: [Operand<'_>; S],
    n: usize,
    out_dim: usize,
    b: usize,
    bias: &[f64],
    epilogue: Epilogue,
    y: &mut [f64],
) {
    if b == 1 {
        gemm::gemm_t_f64(ops, n, out_dim, bias, epilogue, y);
    } else {
        gemm::gemm_t_f64_b(ops, n, out_dim, b, bias, epilogue, y);
    }
}

/// `acc[k] += max(geo_k + adj[k] + asj[k], 0)` over one fused `[fwd | bwd]`
/// row, the geometric term recomputed in registers.  All slices are cut to
/// `acc.len()`, so a caller with a fixed-size accumulator gets a fully
/// unrolled, bounds-check-free body.
#[inline(always)]
fn edge_row(acc: &mut [f64], geo: GeoRows<'_>, g: [f64; 3], adj: &[f64], asj: &[f64]) {
    let w = acc.len();
    let geo = GeoRows {
        bias: &geo.bias[..w],
        w_dx: &geo.w_dx[..w],
        w_dy: &geo.w_dy[..w],
        w_dist: &geo.w_dist[..w],
    };
    let (adj, asj) = (&adj[..w], &asj[..w]);
    for k in 0..w {
        acc[k] += (geo.term(k, g) + adj[k] + asj[k]).max(0.0);
    }
}

/// Fused edge sweep at a compile-time row width: each node's accumulator row
/// stays in registers across its edges and is stored once.
#[inline(always)]
fn edge_sweep_fixed<const D2: usize>(
    plan: &InferencePlan,
    geo: GeoRows<'_>,
    a_dst: &[f64],
    a_src: &[f64],
    hsum: &mut [f64],
) {
    let mut slot = 0;
    for (j, &deg) in plan.in_degree.iter().enumerate() {
        let adj = &a_dst[j * D2..][..D2];
        let mut acc = [0.0f64; D2];
        for s in slot..slot + deg as usize {
            let src = plan.edge_src[s] as usize;
            edge_row(&mut acc, geo, plan.edge_geo[s], adj, &a_src[src * D2..][..D2]);
        }
        slot += deg as usize;
        hsum[j * D2..][..D2].copy_from_slice(&acc);
    }
}

/// Fused edge sweep at a run-time row width `d2` and panel width `b`, the
/// accumulator row living in `hsum`.  With `b > 1` the geometric term is
/// computed once per edge and lane and broadcast over the `b` columns.
#[inline(always)]
fn edge_sweep_dyn(
    plan: &InferencePlan,
    geo: GeoRows<'_>,
    d2: usize,
    b: usize,
    a_dst: &[f64],
    a_src: &[f64],
    hsum: &mut [f64],
) {
    let row = d2 * b;
    let mut slot = 0;
    for (j, &deg) in plan.in_degree.iter().enumerate() {
        let adj = &a_dst[j * row..][..row];
        let acc = &mut hsum[j * row..][..row];
        acc.fill(0.0);
        for s in slot..slot + deg as usize {
            let src = plan.edge_src[s] as usize;
            let asj = &a_src[src * row..][..row];
            let g = plan.edge_geo[s];
            if b == 1 {
                edge_row(acc, geo, g, adj, asj);
                continue;
            }
            for k in 0..d2 {
                let gk = geo.term(k, g);
                let (ak, adjk, asjk) =
                    (&mut acc[k * b..][..b], &adj[k * b..][..b], &asj[k * b..][..b]);
                for c in 0..b {
                    ak[c] += (gk + adjk[c] + asjk[c]).max(0.0);
                }
            }
        }
        slot += deg as usize;
    }
}

/// Row width (`2d`) of the shipped model, for which the edge sweep keeps its
/// accumulator in registers.
const FIXED_D2: usize = 20;

/// The f64 forward pass on one graph, written once as safe code and inlined
/// into [`InferencePlan::infer_core`] (baseline) and [`forward_avx2`].  Every output element is
/// produced by the same sequence of IEEE operations as the engine this
/// replaced (per-direction row-major GEMMs, stored geometric and Ψ static
/// terms), hence the same bits.
///
/// All intermediates live in `scratch` (sized on first use, reused across
/// calls), so the steady state performs zero heap allocation.  Only the
/// final block's decoder runs — earlier decodes are training-time artefacts
/// that do not influence the latent state.
#[inline(always)]
fn forward(
    plan: &InferencePlan,
    input: &[f64],
    b: usize,
    scratch: &mut InferScratch,
    out: &mut [f64],
    mut timings: Option<&mut InferenceTimings>,
) {
    let w = &*plan.weights;
    let d = w.latent_dim;
    let d2 = 2 * d;
    let n = plan.num_nodes();
    assert_eq!(input.len(), n * b, "input length mismatch");
    assert_eq!(out.len(), n * b, "output length mismatch");

    let InferScratch { node_in, h, a_dst, a_src, hsum, psi_hidden, hidden } = scratch;
    node_in.clear();
    for (&deg, cin) in plan.in_degree.iter().zip(input.chunks_exact(b.max(1))) {
        node_in.extend(std::iter::repeat_n(deg as f64, b));
        node_in.extend_from_slice(cin);
    }
    h.clear();
    h.resize(n * d * b, 0.0);
    a_dst.resize(n * d2 * b, 0.0);
    a_src.resize(n * d2 * b, 0.0);
    hsum.resize(n * d2 * b, 0.0);
    psi_hidden.resize(n * d * b, 0.0);
    hidden.resize(n * d * b, 0.0);

    let mut last = Instant::now(); // detlint::allow(nondet-clock): timing telemetry only
    macro_rules! tick {
        ($field:ident) => {
            if let Some(t) = timings.as_deref_mut() {
                let now = Instant::now(); // detlint::allow(nondet-clock): timing telemetry only
                t.$field += now.duration_since(last).as_nanos() as u64;
                last = now;
            }
        };
    }

    for pb in &w.blocks {
        // Node-level GEMMs, both message directions at once (`n × 2d`): the
        // h-dependent halves of the split first layer.
        let on_h = |wt| [Operand { x: h, in_dim: d, wt }];
        panel_gemm(on_h(&pb.w_dst_t), n, d2, b, &[], Epilogue::Store, a_dst);
        panel_gemm(on_h(&pb.w_src_t), n, d2, b, &[], Epilogue::Store, a_src);
        tick!(node_gemm_ns);
        // Fused edge sweep: per-edge hidden pre-activation = recomputed
        // geometric term + gathered node terms, ReLU'd and summed straight
        // into the per-node accumulator.  The second message layer is applied
        // once per *node* inside the Ψ stage (composed into `psi_m_t`).
        if b == 1 && d2 == FIXED_D2 {
            edge_sweep_fixed::<FIXED_D2>(plan, pb.geo_rows(), a_dst, a_src, hsum);
        } else {
            edge_sweep_dyn(plan, pb.geo_rows(), d2, b, a_dst, a_src, hsum);
        }
        tick!(edge_gather_ns);
        // Ψ update.  The hidden pre-activation starts from `b_Ψ`, takes the
        // degree-scaled message biases and the `W_c c` term, then the
        // latent-dependent products (the message one pre-composed with the
        // second message layer, forward inputs before backward) — one pass,
        // ReLU on the way out; the second layer steps `H` in place.
        let psi_in = [
            Operand { x: node_in, in_dim: 2, wt: &pb.psi_node_t },
            Operand { x: h, in_dim: d, wt: &pb.psi_w_h_t },
            Operand { x: hsum, in_dim: d2, wt: &pb.psi_m_t },
        ];
        panel_gemm(psi_in, n, d, b, &pb.psi_bias, Epilogue::Relu, psi_hidden);
        let psi_out = [Operand { x: psi_hidden, in_dim: d, wt: &pb.psi_l2_wt }];
        panel_gemm(psi_out, n, d, b, &pb.psi_l2_b, Epilogue::AddScaled(w.alpha), h);
        tick!(psi_update_ns);
    }
    match &w.decoder {
        Some(dec) => {
            let l1 = [Operand { x: h, in_dim: d, wt: &dec.l1_wt }];
            panel_gemm(l1, n, d, b, &dec.l1_b, Epilogue::Relu, hidden);
            let l2 = [Operand { x: hidden, in_dim: d, wt: &dec.l2_w }];
            panel_gemm(l2, n, 1, b, &dec.l2_b, Epilogue::Store, out);
        }
        None => out.fill(0.0),
    }
    tick!(decoder_ns);
    let _ = last; // the final tick's stamp is intentionally unused
    if let Some(t) = timings {
        t.calls += 1;
    }
}

/// Cast a slice of doubles to single precision.
fn cast_f32(v: &[f64]) -> Vec<f32> {
    v.iter().map(|&x| x as f32).collect()
}

/// Transpose a row-major `out_dim × in_dim` matrix into the f32 kernels'
/// `in_dim × out_dim` layout (one contiguous row of output weights per input
/// feature), casting to single precision.
fn transpose_cast_f32(w: &[f64], out_dim: usize, in_dim: usize) -> Vec<f32> {
    debug_assert_eq!(w.len(), out_dim * in_dim);
    let mut wt = vec![0.0f32; in_dim * out_dim];
    for o in 0..out_dim {
        for i in 0..in_dim {
            wt[i * out_dim + o] = w[o * in_dim + i] as f32;
        }
    }
    wt
}

/// Single-precision counterpart of [`PlanBlock`].
///
/// All matrices consumed by the f32 GEMM kernels are stored transposed
/// (`in × out`); everything is derived from the f64 [`PlanBlock`] — the
/// splits and compositions are computed in double precision and rounded
/// once, so the f32 plan carries no extra composition error.  Unlike the
/// f64 plan, the f32 plan also snapshots Ψ's second layer: the f32 forward
/// pass never reads the model at all.
///
/// On top of the f64 plan's splits, the f32 layout **fuses the two message
/// directions**: the `Φ→`/`Φ←` weight splits, static edge terms and per-node
/// hidden sums are concatenated column-wise (`[fwd | bwd]`, row width `2d`).
/// One node GEMM then produces both directions' terms, one edge sweep
/// aggregates both (halving the per-edge index overhead and running the
/// SIMD lanes over `2d` contiguous floats), and the two composed Ψ message
/// GEMMs collapse into a single `2d × d` product whose ascending-input
/// accumulation order equals the sequential fwd-then-bwd pair.
struct PlanBlockF32 {
    /// `[W_dst,→ | W_dst,←]` transposed: `d × 2d`.
    w_dst_cat_t: Vec<f32>,
    /// `[W_src,→ | W_src,←]` transposed: `d × 2d`.
    w_src_cat_t: Vec<f32>,
    /// `[geo→ | geo←]` per destination-sorted edge: `e × 2d`.
    geo_cat: Vec<f32>,
    /// `Ψ` first-layer columns acting on `h`, transposed: `d × d`.
    psi_w_h_t: Vec<f32>,
    /// `Ψ` first-layer column acting on the node input `c` (length `d`).
    psi_w_c: Vec<f32>,
    /// `[W_Ψ,→ W₂→ ; W_Ψ,← W₂←]` transposed: `2d × d`.
    psi_m_cat_t: Vec<f32>,
    /// Per-node static `Ψ` pre-activation (`n × d`).
    psi_static: Vec<f32>,
    /// Ψ second layer, transposed weight + bias.
    psi_l2_wt: Vec<f32>,
    psi_l2_b: Vec<f32>,
}

/// Concatenate two row-major `d × d` matrices column-wise and transpose the
/// pair into the f32 kernels' `in × out` layout: row `i` holds
/// `[a[·][i] | b[·][i]]`, `2d` outputs wide.
fn cat_transpose_cast_f32(a: &[f64], b: &[f64], d: usize) -> Vec<f32> {
    debug_assert_eq!(a.len(), d * d);
    debug_assert_eq!(b.len(), d * d);
    let mut wt = vec![0.0f32; d * 2 * d];
    for o in 0..d {
        for i in 0..d {
            wt[i * 2 * d + o] = a[o * d + i] as f32;
            wt[i * 2 * d + d + o] = b[o * d + i] as f32;
        }
    }
    wt
}

impl PlanBlockF32 {
    fn new(block: &Block, graph: &LocalGraph, d: usize) -> Self {
        let pb = PlanBlock::new(block, d);
        let geo_fwd = geo_terms(&block.phi_fwd.l1, graph, d, 1.0);
        let geo_bwd = geo_terms(&block.phi_bwd.l1, graph, d, -1.0);
        let e = graph.num_edges();
        let mut geo_cat = vec![0.0f32; e * 2 * d];
        for slot in 0..e {
            for k in 0..d {
                geo_cat[slot * 2 * d + k] = geo_fwd[slot * d + k] as f32;
                geo_cat[slot * 2 * d + d + k] = geo_bwd[slot * d + k] as f32;
            }
        }
        // The composed message matrices stack as GEMM *inputs*: input row i
        // of the transposed layout is the i-th forward hidden dimension for
        // i < d and the (i-d)-th backward one otherwise.
        let mut psi_m_cat_t = vec![0.0f32; 2 * d * d];
        for i in 0..d {
            for o in 0..d {
                psi_m_cat_t[i * d + o] = pb.psi_m_fwd[o * d + i] as f32;
                psi_m_cat_t[(d + i) * d + o] = pb.psi_m_bwd[o * d + i] as f32;
            }
        }
        PlanBlockF32 {
            w_dst_cat_t: cat_transpose_cast_f32(&pb.w_dst_fwd, &pb.w_dst_bwd, d),
            w_src_cat_t: cat_transpose_cast_f32(&pb.w_src_fwd, &pb.w_src_bwd, d),
            geo_cat,
            psi_w_h_t: transpose_cast_f32(&pb.psi_w_h, d, d),
            psi_w_c: cast_f32(&pb.psi_w_c),
            psi_m_cat_t,
            psi_static: cast_f32(&pb.psi_static(graph)),
            psi_l2_wt: block.psi.l2.weight_t_f32(),
            psi_l2_b: block.psi.l2.bias_f32(),
        }
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<f32>()
            * (self.w_dst_cat_t.len()
                + self.w_src_cat_t.len()
                + self.geo_cat.len()
                + self.psi_w_h_t.len()
                + self.psi_w_c.len()
                + self.psi_m_cat_t.len()
                + self.psi_static.len()
                + self.psi_l2_wt.len()
                + self.psi_l2_b.len())
    }
}

/// Final-block decoder in single precision.
struct DecoderF32 {
    l1_wt: Vec<f32>,
    l1_b: Vec<f32>,
    /// Second-layer weight row (`out_dim = 1`).
    l2_w: Vec<f32>,
    l2_b: f32,
}

/// Reusable buffers for the f32 inference path ([`InferencePlanF32`]).
///
/// Mirrors [`InferScratch`]: create once, pass to every call; buffers are
/// sized lazily and reused.  Contents are fully overwritten per inference.
/// The direction-fused buffers (`a_dst`, `a_src`, `hsum`) are `n × 2d`.
#[derive(Debug, Default)]
pub struct InferScratchF32 {
    input: Vec<f32>,
    h: Vec<f32>,
    a_dst: Vec<f32>,
    a_src: Vec<f32>,
    hsum: Vec<f32>,
    psi_hidden: Vec<f32>,
    update: Vec<f32>,
    hidden: Vec<f32>,
}

impl InferScratchF32 {
    /// Empty scratch; buffers are allocated on first use.
    pub fn new() -> Self {
        InferScratchF32::default()
    }
}

/// `acc[k] += max(g[k] + adj[k] + asj[k], 0)` — the fused edge sweep body.
/// Equal-length slices let LLVM fold the four bounds checks and vectorise
/// the whole row.
#[inline(always)]
fn relu_sum3_acc_f32(acc: &mut [f32], g: &[f32], adj: &[f32], asj: &[f32]) {
    let d = acc.len();
    let (g, adj, asj) = (&g[..d], &adj[..d], &asj[..d]);
    for k in 0..d {
        acc[k] += (g[k] + adj[k] + asj[k]).max(0.0);
    }
}

/// Batched fused edge-sweep body: `acc`, `adj` and `asj` are `2d × b`
/// column-interleaved panels, `g` the shared `2d` static row — loaded once
/// per edge and broadcast over the `b` right-hand sides.  Per column the
/// operation sequence equals [`relu_sum3_acc_f32`] exactly.
#[inline(always)]
fn relu_sum3_acc_f32_b(acc: &mut [f32], g: &[f32], adj: &[f32], asj: &[f32], b: usize) {
    let db = acc.len();
    let (adj, asj) = (&adj[..db], &asj[..db]);
    for (k, &gk) in g.iter().enumerate() {
        let ak = &mut acc[k * b..(k + 1) * b];
        let adjk = &adj[k * b..(k + 1) * b];
        let asjk = &asj[k * b..(k + 1) * b];
        for c in 0..b {
            ak[c] += (gk + adjk[c] + asjk[c]).max(0.0);
        }
    }
}

/// A per-graph single-precision inference plan: the f32 sibling of
/// [`InferencePlan`].
///
/// Built once per sub-domain graph via [`DssModel::build_plan_f32`]; the
/// forward pass ([`InferencePlanF32::infer_into`]) runs entirely in f32 —
/// the caller's residual is converted on entry and the decoded output is
/// widened back to f64 on exit, so the surrounding solver stays in double
/// precision.  The plan snapshots *all* weights it needs (including Ψ's
/// second layer and the final decoder), making the apply independent of the
/// model object.
pub struct InferencePlanF32 {
    pub(crate) num_nodes: usize,
    pub(crate) num_edges: usize,
    pub(crate) latent_dim: usize,
    pub(crate) num_blocks: usize,
    alpha: f32,
    /// Source node of every destination-sorted edge (u32: sub-domain graphs
    /// are far below 2³² nodes, and the narrower index halves gather
    /// traffic).
    edge_src: Vec<u32>,
    /// Destination offsets into the sorted edge list (`n + 1` entries).
    edge_ptr: Vec<usize>,
    blocks: Vec<PlanBlockF32>,
    decoder: Option<DecoderF32>,
}

impl InferencePlanF32 {
    /// Build an f32 plan for `model` on `graph`.
    pub fn new(model: &DssModel, graph: &LocalGraph) -> Self {
        let config = model.config();
        let d = config.latent_dim;
        let n = graph.num_nodes();
        let e = graph.num_edges();
        assert_eq!(graph.edge_ptr.len(), n + 1, "stale incidence: run rebuild_incidence");
        assert_eq!(graph.edge_order.len(), e, "stale incidence: run rebuild_incidence");
        let edge_src = graph.sorted_edge_sources();
        let blocks: Vec<PlanBlockF32> =
            model.blocks().iter().map(|b| PlanBlockF32::new(b, graph, d)).collect();
        let decoder = model.blocks().last().map(|b| DecoderF32 {
            l1_wt: b.decoder.l1.weight_t_f32(),
            l1_b: b.decoder.l1.bias_f32(),
            l2_w: cast_f32(&b.decoder.l2.weight),
            l2_b: b.decoder.l2.bias[0] as f32,
        });
        InferencePlanF32 {
            num_nodes: n,
            num_edges: e,
            latent_dim: d,
            num_blocks: config.num_blocks,
            alpha: config.alpha as f32,
            edge_src,
            edge_ptr: graph.edge_ptr.clone(),
            blocks,
            decoder,
        }
    }

    /// Number of nodes of the graph this plan was built for.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed edges of the graph this plan was built for.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Heap footprint of the precomputed data in bytes (about half the f64
    /// plan's: the dominant static edge terms are stored single-precision).
    pub fn memory_bytes(&self) -> usize {
        self.blocks.iter().map(PlanBlockF32::memory_bytes).sum::<usize>()
            + self.decoder.as_ref().map_or(0, |dec| {
                std::mem::size_of::<f32>() * (dec.l1_wt.len() + dec.l1_b.len() + dec.l2_w.len() + 1)
            })
            + std::mem::size_of::<u32>() * self.edge_src.len()
            + std::mem::size_of::<usize>() * self.edge_ptr.len()
    }

    /// Run the single-precision engine: `input` (the normalised residual) is
    /// converted to f32 on entry, the decoded output is widened back into
    /// `out`.  All intermediates live in `scratch`; the steady state
    /// allocates nothing.
    pub fn infer_into(&self, input: &[f64], scratch: &mut InferScratchF32, out: &mut [f64]) {
        self.infer_core(input, scratch, out, None);
    }

    /// [`InferencePlanF32::infer_into`] with a per-stage wall-clock breakdown
    /// accumulated into `timings`.
    pub fn infer_timed(
        &self,
        input: &[f64],
        scratch: &mut InferScratchF32,
        out: &mut [f64],
        timings: &mut InferenceTimings,
    ) {
        self.infer_core(input, scratch, out, Some(timings));
    }

    fn infer_core(
        &self,
        input: &[f64],
        scratch: &mut InferScratchF32,
        out: &mut [f64],
        mut timings: Option<&mut InferenceTimings>,
    ) {
        let d = self.latent_dim;
        let n = self.num_nodes;
        assert_eq!(input.len(), n, "input length mismatch");
        assert_eq!(out.len(), n, "output length mismatch");

        let InferScratchF32 { input: input32, h, a_dst, a_src, hsum, psi_hidden, update, hidden } =
            scratch;
        input32.clear();
        input32.extend(input.iter().map(|&v| v as f32));
        h.clear();
        h.resize(n * d, 0.0);
        let d2 = 2 * d;
        a_dst.resize(n * d2, 0.0);
        a_src.resize(n * d2, 0.0);
        hsum.resize(n * d2, 0.0);
        psi_hidden.resize(n * d, 0.0);
        update.resize(n * d, 0.0);
        hidden.resize(n * d, 0.0);

        let mut last = Instant::now(); // detlint::allow(nondet-clock): timing telemetry only
        macro_rules! tick {
            ($field:ident) => {
                if let Some(t) = timings.as_deref_mut() {
                    let now = Instant::now(); // detlint::allow(nondet-clock): timing telemetry only
                    t.$field += now.duration_since(last).as_nanos() as u64;
                    last = now;
                }
            };
        }

        for pb in &self.blocks {
            // Node-level GEMMs, both message directions at once (`n × 2d`).
            gemm::gemm_t_into_f32(h, n, d, d2, &pb.w_dst_cat_t, a_dst);
            gemm::gemm_t_into_f32(h, n, d, d2, &pb.w_src_cat_t, a_src);
            tick!(node_gemm_ns);
            // Fused edge sweep over both directions: one pass, `2d`-wide rows.
            for j in 0..n {
                let adj = &a_dst[j * d2..(j + 1) * d2];
                let acc = &mut hsum[j * d2..(j + 1) * d2];
                acc.fill(0.0);
                for slot in self.edge_ptr[j]..self.edge_ptr[j + 1] {
                    let src = self.edge_src[slot] as usize;
                    relu_sum3_acc_f32(
                        acc,
                        &pb.geo_cat[slot * d2..(slot + 1) * d2],
                        adj,
                        &a_src[src * d2..(src + 1) * d2],
                    );
                }
            }
            tick!(edge_gather_ns);
            for j in 0..n {
                let c = input32[j];
                let stat = &pb.psi_static[j * d..(j + 1) * d];
                let row = &mut psi_hidden[j * d..(j + 1) * d];
                for k in 0..d {
                    row[k] = stat[k] + pb.psi_w_c[k] * c;
                }
            }
            gemm::gemm_t_acc_into_f32(h, n, d, d, &pb.psi_w_h_t, psi_hidden);
            gemm::gemm_t_acc_into_f32(hsum, n, d2, d, &pb.psi_m_cat_t, psi_hidden);
            for v in psi_hidden.iter_mut() {
                *v = v.max(0.0);
            }
            gemm::gemm_t_bias_into_f32(psi_hidden, n, d, d, &pb.psi_l2_wt, &pb.psi_l2_b, update);
            for (hv, uv) in h.iter_mut().zip(update.iter()) {
                *hv += self.alpha * *uv;
            }
            tick!(psi_update_ns);
        }
        match &self.decoder {
            Some(dec) => {
                gemm::gemm_t_bias_into_f32(h, n, d, d, &dec.l1_wt, &dec.l1_b, hidden);
                for v in hidden.iter_mut() {
                    *v = v.max(0.0);
                }
                for j in 0..n {
                    let row = &hidden[j * d..(j + 1) * d];
                    let mut acc = dec.l2_b;
                    for k in 0..d {
                        acc += dec.l2_w[k] * row[k];
                    }
                    out[j] = acc as f64;
                }
            }
            None => out.fill(0.0),
        }
        tick!(decoder_ns);
        let _ = last; // the final tick's stamp is intentionally unused
        if let Some(t) = timings {
            t.calls += 1;
        }
    }

    /// Batched forward pass over `b` right-hand sides: `input` and `out` are
    /// column-interleaved `n × b` panels (`input[j*b + c]` is column `c`'s
    /// value at node `j`).  One sweep over the plan's static streams serves
    /// all `b` columns; column `c` of the output matches
    /// [`InferencePlanF32::infer_into`] run on that column alone.
    pub fn infer_into_b(
        &self,
        input: &[f64],
        b: usize,
        scratch: &mut InferScratchF32,
        out: &mut [f64],
    ) {
        self.infer_core_b(input, b, scratch, out, None);
    }

    /// [`InferencePlanF32::infer_into_b`] with a per-stage wall-clock
    /// breakdown accumulated into `timings`.
    pub fn infer_timed_b(
        &self,
        input: &[f64],
        b: usize,
        scratch: &mut InferScratchF32,
        out: &mut [f64],
        timings: &mut InferenceTimings,
    ) {
        self.infer_core_b(input, b, scratch, out, Some(timings));
    }

    fn infer_core_b(
        &self,
        input: &[f64],
        b: usize,
        scratch: &mut InferScratchF32,
        out: &mut [f64],
        mut timings: Option<&mut InferenceTimings>,
    ) {
        let d = self.latent_dim;
        let n = self.num_nodes;
        assert_eq!(input.len(), n * b, "input panel length mismatch");
        assert_eq!(out.len(), n * b, "output panel length mismatch");

        let InferScratchF32 { input: input32, h, a_dst, a_src, hsum, psi_hidden, update, hidden } =
            scratch;
        input32.clear();
        input32.extend(input.iter().map(|&v| v as f32));
        h.clear();
        h.resize(n * d * b, 0.0);
        let d2 = 2 * d;
        a_dst.resize(n * d2 * b, 0.0);
        a_src.resize(n * d2 * b, 0.0);
        hsum.resize(n * d2 * b, 0.0);
        psi_hidden.resize(n * d * b, 0.0);
        update.resize(n * d * b, 0.0);
        hidden.resize(n * d * b, 0.0);

        let mut last = Instant::now(); // detlint::allow(nondet-clock): timing telemetry only
        macro_rules! tick {
            ($field:ident) => {
                if let Some(t) = timings.as_deref_mut() {
                    let now = Instant::now(); // detlint::allow(nondet-clock): timing telemetry only
                    t.$field += now.duration_since(last).as_nanos() as u64;
                    last = now;
                }
            };
        }

        let d2b = d2 * b;
        for pb in &self.blocks {
            // Node-level GEMMs, both message directions at once, all b
            // columns per weight load.
            gemm::gemm_t_into_f32_b(h, n, d, d2, b, &pb.w_dst_cat_t, a_dst);
            gemm::gemm_t_into_f32_b(h, n, d, d2, b, &pb.w_src_cat_t, a_src);
            tick!(node_gemm_ns);
            // Fused edge sweep: the static geo row is read once per edge and
            // broadcast across the b columns.
            for j in 0..n {
                let adj = &a_dst[j * d2b..(j + 1) * d2b];
                let acc = &mut hsum[j * d2b..(j + 1) * d2b];
                acc.fill(0.0);
                for slot in self.edge_ptr[j]..self.edge_ptr[j + 1] {
                    let src = self.edge_src[slot] as usize;
                    relu_sum3_acc_f32_b(
                        acc,
                        &pb.geo_cat[slot * d2..(slot + 1) * d2],
                        adj,
                        &a_src[src * d2b..(src + 1) * d2b],
                        b,
                    );
                }
            }
            tick!(edge_gather_ns);
            for j in 0..n {
                let cin = &input32[j * b..(j + 1) * b];
                let stat = &pb.psi_static[j * d..(j + 1) * d];
                let row = &mut psi_hidden[j * d * b..(j + 1) * d * b];
                for k in 0..d {
                    let s = stat[k];
                    let wc = pb.psi_w_c[k];
                    let rk = &mut row[k * b..(k + 1) * b];
                    for c in 0..b {
                        rk[c] = s + wc * cin[c];
                    }
                }
            }
            gemm::gemm_t_acc_into_f32_b(h, n, d, d, b, &pb.psi_w_h_t, psi_hidden);
            gemm::gemm_t_acc_into_f32_b(hsum, n, d2, d, b, &pb.psi_m_cat_t, psi_hidden);
            for v in psi_hidden.iter_mut() {
                *v = v.max(0.0);
            }
            gemm::gemm_t_bias_into_f32_b(
                psi_hidden,
                n,
                d,
                d,
                b,
                &pb.psi_l2_wt,
                &pb.psi_l2_b,
                update,
            );
            for (hv, uv) in h.iter_mut().zip(update.iter()) {
                *hv += self.alpha * *uv;
            }
            tick!(psi_update_ns);
        }
        match &self.decoder {
            Some(dec) => {
                gemm::gemm_t_bias_into_f32_b(h, n, d, d, b, &dec.l1_wt, &dec.l1_b, hidden);
                for v in hidden.iter_mut() {
                    *v = v.max(0.0);
                }
                for j in 0..n {
                    let row = &hidden[j * d * b..(j + 1) * d * b];
                    for c in 0..b {
                        let mut acc = dec.l2_b;
                        for k in 0..d {
                            acc += dec.l2_w[k] * row[k * b + c];
                        }
                        out[j * b + c] = acc as f64;
                    }
                }
            }
            None => out.fill(0.0),
        }
        tick!(decoder_ns);
        let _ = last; // the final tick's stamp is intentionally unused
        if let Some(t) = timings {
            t.calls += 1;
        }
    }
}

/// Per-output-column int8 quantisation of a transposed (`in × out`) f64
/// matrix: `scale[o] = max_i |wt[i][o]| / 127` (1.0 for all-zero columns, so
/// the quantised values stay 0), `q[i][o] = round(wt[i][o] / scale[o])`.
///
/// One scale per *output* equals one scale per row of the original
/// `out × in` weight — the per-output-row scheme: each output's dot product
/// is exact up to a single rounding per weight, and dequantisation is one
/// multiply per output after the shared-axis sweep.
fn quantise_cols_i8(wt: &[f64], in_dim: usize, out_dim: usize) -> (Vec<i8>, Vec<f32>) {
    debug_assert_eq!(wt.len(), in_dim * out_dim);
    let mut q = vec![0i8; wt.len()];
    let mut scale = vec![0.0f32; out_dim];
    for o in 0..out_dim {
        let amax = (0..in_dim).map(|i| wt[i * out_dim + o].abs()).fold(0.0f64, f64::max);
        let s = if amax == 0.0 { 1.0 } else { amax / 127.0 };
        scale[o] = s as f32;
        for i in 0..in_dim {
            q[i * out_dim + o] = (wt[i * out_dim + o] / s).round().clamp(-127.0, 127.0) as i8;
        }
    }
    (q, scale)
}

/// Quantised counterpart of [`PlanBlockF32`]: same direction-fused layout,
/// with the weight matrices stored as int8 + per-output f32 scales and the
/// two dominant memory streams — the `[fwd | bwd]` static geo/bias edge
/// terms (`e × 2d`) and the per-node static Ψ pre-activation (`n × d`) —
/// stored as bf16.  The tiny Ψ `W_c` column, Ψ's second layer and the
/// decoder stay f32: they are negligible in both memory and error budget.
/// All splits/compositions are computed in f64 (via [`PlanBlock`]) and
/// quantised exactly once.
struct PlanBlockQ {
    /// `[W_dst,→ | W_dst,←]` transposed, int8: `d × 2d` + `2d` scales.
    w_dst_cat_q: Vec<i8>,
    w_dst_cat_scale: Vec<f32>,
    /// `[W_src,→ | W_src,←]` transposed, int8.
    w_src_cat_q: Vec<i8>,
    w_src_cat_scale: Vec<f32>,
    /// `[geo→ | geo←]` per destination-sorted edge, bf16: `e × 2d`.
    geo_cat: Vec<u16>,
    /// `Ψ` first-layer columns acting on `h`, transposed int8: `d × d`.
    psi_w_h_q: Vec<i8>,
    psi_w_h_scale: Vec<f32>,
    /// `Ψ` first-layer column acting on the node input `c` (length `d`, f32).
    psi_w_c: Vec<f32>,
    /// `[W_Ψ,→ W₂→ ; W_Ψ,← W₂←]` transposed int8: `2d × d`.
    psi_m_cat_q: Vec<i8>,
    psi_m_cat_scale: Vec<f32>,
    /// Per-node static `Ψ` pre-activation, bf16 (`n × d`).
    psi_static: Vec<u16>,
    /// Ψ second layer, transposed weight + bias (f32).
    psi_l2_wt: Vec<f32>,
    psi_l2_b: Vec<f32>,
}

impl PlanBlockQ {
    fn new(block: &Block, graph: &LocalGraph, d: usize) -> Self {
        let pb = PlanBlock::new(block, d);
        let geo_fwd = geo_terms(&block.phi_fwd.l1, graph, d, 1.0);
        let geo_bwd = geo_terms(&block.phi_bwd.l1, graph, d, -1.0);
        let e = graph.num_edges();
        // bf16 static edge terms, direction-fused exactly like the f32 plan.
        let mut geo_cat = vec![0u16; e * 2 * d];
        for slot in 0..e {
            for k in 0..d {
                geo_cat[slot * 2 * d + k] = gemm::f32_to_bf16(geo_fwd[slot * d + k] as f32);
                geo_cat[slot * 2 * d + d + k] = gemm::f32_to_bf16(geo_bwd[slot * d + k] as f32);
            }
        }
        let psi_static: Vec<u16> =
            pb.psi_static(graph).iter().map(|&v| gemm::f32_to_bf16(v as f32)).collect();
        // Composed message matrices stacked as GEMM inputs (fwd rows then bwd
        // rows of the transposed layout), then quantised per output column.
        let psi_m_cat_t = stack_transpose_f64(&pb.psi_m_fwd, &pb.psi_m_bwd, d);
        let (w_dst_cat_q, w_dst_cat_scale) =
            quantise_cols_i8(&cat_transpose_f64(&pb.w_dst_fwd, &pb.w_dst_bwd, d), d, 2 * d);
        let (w_src_cat_q, w_src_cat_scale) =
            quantise_cols_i8(&cat_transpose_f64(&pb.w_src_fwd, &pb.w_src_bwd, d), d, 2 * d);
        let (psi_w_h_q, psi_w_h_scale) = quantise_cols_i8(&transpose_f64(&pb.psi_w_h, d, d), d, d);
        let (psi_m_cat_q, psi_m_cat_scale) = quantise_cols_i8(&psi_m_cat_t, 2 * d, d);
        PlanBlockQ {
            w_dst_cat_q,
            w_dst_cat_scale,
            w_src_cat_q,
            w_src_cat_scale,
            geo_cat,
            psi_w_h_q,
            psi_w_h_scale,
            psi_w_c: cast_f32(&pb.psi_w_c),
            psi_m_cat_q,
            psi_m_cat_scale,
            psi_static,
            psi_l2_wt: block.psi.l2.weight_t_f32(),
            psi_l2_b: block.psi.l2.bias_f32(),
        }
    }

    fn memory_bytes(&self) -> usize {
        self.w_dst_cat_q.len()
            + self.w_src_cat_q.len()
            + self.psi_w_h_q.len()
            + self.psi_m_cat_q.len()
            + std::mem::size_of::<u16>() * (self.geo_cat.len() + self.psi_static.len())
            + std::mem::size_of::<f32>()
                * (self.w_dst_cat_scale.len()
                    + self.w_src_cat_scale.len()
                    + self.psi_w_h_scale.len()
                    + self.psi_m_cat_scale.len()
                    + self.psi_w_c.len()
                    + self.psi_l2_wt.len()
                    + self.psi_l2_b.len())
    }
}

/// Reusable buffers for the quantised inference path ([`InferencePlanQ`]).
///
/// Mirrors [`InferScratchF32`], with two differences: the per-node hidden
/// sums are *stored* bf16 (`n × 2d` `u16`s — halving the read traffic of the
/// Ψ message GEMM) and a single `2d`-wide f32 row (`acc`) accumulates each
/// node's edge sweep before it is rounded to bf16 once.
#[derive(Debug, Default)]
pub struct InferScratchQ {
    input: Vec<f32>,
    h: Vec<f32>,
    a_dst: Vec<f32>,
    a_src: Vec<f32>,
    /// Per-node hidden sums, bf16-packed (`n × 2d`).
    hsum: Vec<u16>,
    /// f32 accumulator row for one node's edge sweep (`2d`).
    acc: Vec<f32>,
    /// Widened-weight panel of the int8 GEMM kernels (`≤ 2d × 2d`).
    wbuf: Vec<f32>,
    psi_hidden: Vec<f32>,
    update: Vec<f32>,
    hidden: Vec<f32>,
}

impl InferScratchQ {
    /// Empty scratch; buffers are allocated on first use.
    pub fn new() -> Self {
        InferScratchQ::default()
    }
}

/// `acc[k] += max(decode(g[k]) + adj[k] + asj[k], 0)` — the fused edge-sweep
/// body with bf16 static terms decoded on the fly (a 16-bit shift per lane).
#[inline(always)]
fn relu_sum3_acc_bf16_geo(acc: &mut [f32], g: &[u16], adj: &[f32], asj: &[f32]) {
    let d = acc.len();
    let (g, adj, asj) = (&g[..d], &adj[..d], &asj[..d]);
    for k in 0..d {
        acc[k] += (gemm::bf16_to_f32(g[k]) + adj[k] + asj[k]).max(0.0);
    }
}

/// Batched bf16 edge-sweep body: the static term is **decoded once per edge**
/// and broadcast across the `b` columns (the unbatched path decodes it once
/// per (edge, rhs)).  Per column the operation sequence equals
/// [`relu_sum3_acc_bf16_geo`] exactly.
#[inline(always)]
fn relu_sum3_acc_bf16_geo_b(acc: &mut [f32], g: &[u16], adj: &[f32], asj: &[f32], b: usize) {
    let db = acc.len();
    let (adj, asj) = (&adj[..db], &asj[..db]);
    for (k, &gq) in g.iter().enumerate() {
        let gk = gemm::bf16_to_f32(gq);
        let ak = &mut acc[k * b..(k + 1) * b];
        let adjk = &adj[k * b..(k + 1) * b];
        let asjk = &asj[k * b..(k + 1) * b];
        for c in 0..b {
            ak[c] += (gk + adjk[c] + asjk[c]).max(0.0);
        }
    }
}

/// A per-graph **quantised** inference plan: int8 weights (per-output f32
/// scales), bf16 static streams, f32 accumulators — the third member of the
/// [`InferencePlan`] / [`InferencePlanF32`] family.
///
/// Built once per sub-domain graph via [`DssModel::build_plan_q`]; the
/// forward pass ([`InferencePlanQ::infer_into`]) keeps all *state* (latent
/// `H`, node GEMM outputs, Ψ pre-activations) in f32 and dequantises weights
/// inside the GEMM kernels, so accuracy degrades only by the weight rounding
/// (≤ 2⁻⁸ relative per weight) and the bf16 rounding of the static streams
/// (≤ 2⁻⁹ relative each) — in practice ~1e-3 relative on the decoded output,
/// far below what the flexible outer Krylov method notices.  The residual is
/// converted on entry and the decoded output widened back to f64 on exit,
/// exactly like the f32 engine.
///
/// The plan's memory footprint is roughly **half the f32 plan's** (the
/// dominant `e × 2d` static edge stream and the `n × d` static Ψ term are
/// 2-byte, the weights 1-byte), which is what the bandwidth-bound edge sweep
/// actually pays for.
pub struct InferencePlanQ {
    pub(crate) num_nodes: usize,
    pub(crate) num_edges: usize,
    pub(crate) latent_dim: usize,
    pub(crate) num_blocks: usize,
    alpha: f32,
    /// Source node of every destination-sorted edge (u32, like the f32 plan).
    edge_src: Vec<u32>,
    /// Destination offsets into the sorted edge list (`n + 1` entries).
    edge_ptr: Vec<usize>,
    blocks: Vec<PlanBlockQ>,
    decoder: Option<DecoderF32>,
}

impl InferencePlanQ {
    /// Build a quantised plan for `model` on `graph`.
    pub fn new(model: &DssModel, graph: &LocalGraph) -> Self {
        let config = model.config();
        let d = config.latent_dim;
        let n = graph.num_nodes();
        let e = graph.num_edges();
        assert_eq!(graph.edge_ptr.len(), n + 1, "stale incidence: run rebuild_incidence");
        assert_eq!(graph.edge_order.len(), e, "stale incidence: run rebuild_incidence");
        let edge_src = graph.sorted_edge_sources();
        let blocks: Vec<PlanBlockQ> =
            model.blocks().iter().map(|b| PlanBlockQ::new(b, graph, d)).collect();
        let decoder = model.blocks().last().map(|b| DecoderF32 {
            l1_wt: b.decoder.l1.weight_t_f32(),
            l1_b: b.decoder.l1.bias_f32(),
            l2_w: cast_f32(&b.decoder.l2.weight),
            l2_b: b.decoder.l2.bias[0] as f32,
        });
        InferencePlanQ {
            num_nodes: n,
            num_edges: e,
            latent_dim: d,
            num_blocks: config.num_blocks,
            alpha: config.alpha as f32,
            edge_src,
            edge_ptr: graph.edge_ptr.clone(),
            blocks,
            decoder,
        }
    }

    /// Number of nodes of the graph this plan was built for.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed edges of the graph this plan was built for.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Heap footprint of the precomputed data in bytes (about half the f32
    /// plan's: the dominant static streams are 2-byte, the weights 1-byte).
    pub fn memory_bytes(&self) -> usize {
        self.blocks.iter().map(PlanBlockQ::memory_bytes).sum::<usize>()
            + self.decoder.as_ref().map_or(0, |dec| {
                std::mem::size_of::<f32>() * (dec.l1_wt.len() + dec.l1_b.len() + dec.l2_w.len() + 1)
            })
            + std::mem::size_of::<u32>() * self.edge_src.len()
            + std::mem::size_of::<usize>() * self.edge_ptr.len()
    }

    /// Run the quantised engine: `input` (the normalised residual) is
    /// converted to f32 on entry, the decoded output is widened back into
    /// `out`.  All intermediates live in `scratch`; the steady state
    /// allocates nothing.
    pub fn infer_into(&self, input: &[f64], scratch: &mut InferScratchQ, out: &mut [f64]) {
        self.infer_core(input, scratch, out, None);
    }

    /// [`InferencePlanQ::infer_into`] with a per-stage wall-clock breakdown
    /// accumulated into `timings`.
    pub fn infer_timed(
        &self,
        input: &[f64],
        scratch: &mut InferScratchQ,
        out: &mut [f64],
        timings: &mut InferenceTimings,
    ) {
        self.infer_core(input, scratch, out, Some(timings));
    }

    fn infer_core(
        &self,
        input: &[f64],
        scratch: &mut InferScratchQ,
        out: &mut [f64],
        mut timings: Option<&mut InferenceTimings>,
    ) {
        let d = self.latent_dim;
        let n = self.num_nodes;
        assert_eq!(input.len(), n, "input length mismatch");
        assert_eq!(out.len(), n, "output length mismatch");

        let InferScratchQ {
            input: input32,
            h,
            a_dst,
            a_src,
            hsum,
            acc,
            wbuf,
            psi_hidden,
            update,
            hidden,
        } = scratch;
        input32.clear();
        input32.extend(input.iter().map(|&v| v as f32));
        h.clear();
        h.resize(n * d, 0.0);
        let d2 = 2 * d;
        a_dst.resize(n * d2, 0.0);
        a_src.resize(n * d2, 0.0);
        hsum.resize(n * d2, 0);
        acc.resize(d2, 0.0);
        psi_hidden.resize(n * d, 0.0);
        update.resize(n * d, 0.0);
        hidden.resize(n * d, 0.0);

        let mut last = Instant::now(); // detlint::allow(nondet-clock): timing telemetry only
        macro_rules! tick {
            ($field:ident) => {
                if let Some(t) = timings.as_deref_mut() {
                    let now = Instant::now(); // detlint::allow(nondet-clock): timing telemetry only
                    t.$field += now.duration_since(last).as_nanos() as u64;
                    last = now;
                }
            };
        }

        for pb in &self.blocks {
            // Node-level int8 GEMMs, both message directions at once
            // (`n × 2d`): the weights dequantise inside the kernel, the
            // outputs land in f32.
            gemm::gemm_t_into_i8(h, n, d, d2, &pb.w_dst_cat_q, &pb.w_dst_cat_scale, wbuf, a_dst);
            gemm::gemm_t_into_i8(h, n, d, d2, &pb.w_src_cat_q, &pb.w_src_cat_scale, wbuf, a_src);
            tick!(node_gemm_ns);
            // Fused edge sweep: bf16 static terms decoded on the fly, f32
            // accumulation into one row, rounded to bf16 once per node.
            for j in 0..n {
                let adj = &a_dst[j * d2..(j + 1) * d2];
                acc.fill(0.0);
                for slot in self.edge_ptr[j]..self.edge_ptr[j + 1] {
                    let src = self.edge_src[slot] as usize;
                    relu_sum3_acc_bf16_geo(
                        acc,
                        &pb.geo_cat[slot * d2..(slot + 1) * d2],
                        adj,
                        &a_src[src * d2..(src + 1) * d2],
                    );
                }
                gemm::store_bf16(acc, &mut hsum[j * d2..(j + 1) * d2]);
            }
            tick!(edge_gather_ns);
            for j in 0..n {
                let c = input32[j];
                let stat = &pb.psi_static[j * d..(j + 1) * d];
                let row = &mut psi_hidden[j * d..(j + 1) * d];
                gemm::gather_bf16(stat, row);
                for k in 0..d {
                    row[k] += pb.psi_w_c[k] * c;
                }
            }
            gemm::gemm_t_acc_into_i8(
                h,
                n,
                d,
                d,
                &pb.psi_w_h_q,
                &pb.psi_w_h_scale,
                wbuf,
                psi_hidden,
            );
            gemm::gemm_t_acc_into_i8_bf16(
                hsum,
                n,
                d2,
                d,
                &pb.psi_m_cat_q,
                &pb.psi_m_cat_scale,
                wbuf,
                psi_hidden,
            );
            for v in psi_hidden.iter_mut() {
                *v = v.max(0.0);
            }
            gemm::gemm_t_bias_into_f32(psi_hidden, n, d, d, &pb.psi_l2_wt, &pb.psi_l2_b, update);
            for (hv, uv) in h.iter_mut().zip(update.iter()) {
                *hv += self.alpha * *uv;
            }
            tick!(psi_update_ns);
        }
        match &self.decoder {
            Some(dec) => {
                gemm::gemm_t_bias_into_f32(h, n, d, d, &dec.l1_wt, &dec.l1_b, hidden);
                for v in hidden.iter_mut() {
                    *v = v.max(0.0);
                }
                for j in 0..n {
                    let row = &hidden[j * d..(j + 1) * d];
                    let mut acc = dec.l2_b;
                    for k in 0..d {
                        acc += dec.l2_w[k] * row[k];
                    }
                    out[j] = acc as f64;
                }
            }
            None => out.fill(0.0),
        }
        tick!(decoder_ns);
        let _ = last; // the final tick's stamp is intentionally unused
        if let Some(t) = timings {
            t.calls += 1;
        }
    }

    /// Batched quantised forward pass over `b` right-hand sides: `input` and
    /// `out` are column-interleaved `n × b` panels.  The bf16 static streams
    /// (geo edge terms and the Ψ static rows) are decoded once per element
    /// and broadcast across all `b` columns; column `c` of the output matches
    /// [`InferencePlanQ::infer_into`] run on that column alone.
    pub fn infer_into_b(
        &self,
        input: &[f64],
        b: usize,
        scratch: &mut InferScratchQ,
        out: &mut [f64],
    ) {
        self.infer_core_b(input, b, scratch, out, None);
    }

    /// [`InferencePlanQ::infer_into_b`] with a per-stage wall-clock breakdown
    /// accumulated into `timings`.
    pub fn infer_timed_b(
        &self,
        input: &[f64],
        b: usize,
        scratch: &mut InferScratchQ,
        out: &mut [f64],
        timings: &mut InferenceTimings,
    ) {
        self.infer_core_b(input, b, scratch, out, Some(timings));
    }

    fn infer_core_b(
        &self,
        input: &[f64],
        b: usize,
        scratch: &mut InferScratchQ,
        out: &mut [f64],
        mut timings: Option<&mut InferenceTimings>,
    ) {
        let d = self.latent_dim;
        let n = self.num_nodes;
        assert_eq!(input.len(), n * b, "input panel length mismatch");
        assert_eq!(out.len(), n * b, "output panel length mismatch");

        let InferScratchQ {
            input: input32,
            h,
            a_dst,
            a_src,
            hsum,
            acc,
            wbuf,
            psi_hidden,
            update,
            hidden,
        } = scratch;
        input32.clear();
        input32.extend(input.iter().map(|&v| v as f32));
        h.clear();
        h.resize(n * d * b, 0.0);
        let d2 = 2 * d;
        a_dst.resize(n * d2 * b, 0.0);
        a_src.resize(n * d2 * b, 0.0);
        hsum.resize(n * d2 * b, 0);
        acc.resize(d2 * b, 0.0);
        psi_hidden.resize(n * d * b, 0.0);
        update.resize(n * d * b, 0.0);
        hidden.resize(n * d * b, 0.0);

        let mut last = Instant::now(); // detlint::allow(nondet-clock): timing telemetry only
        macro_rules! tick {
            ($field:ident) => {
                if let Some(t) = timings.as_deref_mut() {
                    let now = Instant::now(); // detlint::allow(nondet-clock): timing telemetry only
                    t.$field += now.duration_since(last).as_nanos() as u64;
                    last = now;
                }
            };
        }

        let d2b = d2 * b;
        for pb in &self.blocks {
            gemm::gemm_t_into_i8_b(
                h,
                n,
                d,
                d2,
                b,
                &pb.w_dst_cat_q,
                &pb.w_dst_cat_scale,
                wbuf,
                a_dst,
            );
            gemm::gemm_t_into_i8_b(
                h,
                n,
                d,
                d2,
                b,
                &pb.w_src_cat_q,
                &pb.w_src_cat_scale,
                wbuf,
                a_src,
            );
            tick!(node_gemm_ns);
            // Fused edge sweep: bf16 static terms decoded once per edge for
            // all b columns, f32 accumulation into one panel row, rounded to
            // bf16 once per node.
            for j in 0..n {
                let adj = &a_dst[j * d2b..(j + 1) * d2b];
                acc.fill(0.0);
                for slot in self.edge_ptr[j]..self.edge_ptr[j + 1] {
                    let src = self.edge_src[slot] as usize;
                    relu_sum3_acc_bf16_geo_b(
                        acc,
                        &pb.geo_cat[slot * d2..(slot + 1) * d2],
                        adj,
                        &a_src[src * d2b..(src + 1) * d2b],
                        b,
                    );
                }
                gemm::store_bf16(acc, &mut hsum[j * d2b..(j + 1) * d2b]);
            }
            tick!(edge_gather_ns);
            for j in 0..n {
                let cin = &input32[j * b..(j + 1) * b];
                let stat = &pb.psi_static[j * d..(j + 1) * d];
                let row = &mut psi_hidden[j * d * b..(j + 1) * d * b];
                for k in 0..d {
                    let s = gemm::bf16_to_f32(stat[k]);
                    let wc = pb.psi_w_c[k];
                    let rk = &mut row[k * b..(k + 1) * b];
                    for c in 0..b {
                        rk[c] = s + wc * cin[c];
                    }
                }
            }
            gemm::gemm_t_acc_into_i8_b(
                h,
                n,
                d,
                d,
                b,
                &pb.psi_w_h_q,
                &pb.psi_w_h_scale,
                wbuf,
                psi_hidden,
            );
            gemm::gemm_t_acc_into_i8_bf16_b(
                hsum,
                n,
                d2,
                d,
                b,
                &pb.psi_m_cat_q,
                &pb.psi_m_cat_scale,
                wbuf,
                psi_hidden,
            );
            for v in psi_hidden.iter_mut() {
                *v = v.max(0.0);
            }
            gemm::gemm_t_bias_into_f32_b(
                psi_hidden,
                n,
                d,
                d,
                b,
                &pb.psi_l2_wt,
                &pb.psi_l2_b,
                update,
            );
            for (hv, uv) in h.iter_mut().zip(update.iter()) {
                *hv += self.alpha * *uv;
            }
            tick!(psi_update_ns);
        }
        match &self.decoder {
            Some(dec) => {
                gemm::gemm_t_bias_into_f32_b(h, n, d, d, b, &dec.l1_wt, &dec.l1_b, hidden);
                for v in hidden.iter_mut() {
                    *v = v.max(0.0);
                }
                for j in 0..n {
                    let row = &hidden[j * d * b..(j + 1) * d * b];
                    for c in 0..b {
                        let mut acc = dec.l2_b;
                        for k in 0..d {
                            acc += dec.l2_w[k] * row[k * b + c];
                        }
                        out[j * b + c] = acc as f64;
                    }
                }
            }
            None => out.fill(0.0),
        }
        tick!(decoder_ns);
        let _ = last; // the final tick's stamp is intentionally unused
        if let Some(t) = timings {
            t.calls += 1;
        }
    }
}

/// Wall-clock breakdown of planned inference, one bucket per pipeline stage.
///
/// Filled by [`DssModel::infer_with_plan_timed`]; buckets accumulate across
/// calls so one struct can aggregate a whole preconditioner application (or
/// several).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct InferenceTimings {
    /// Node-level GEMMs `H W_dstᵀ` / `H W_srcᵀ` for both message directions.
    pub node_gemm_ns: u64,
    /// Fused edge sweep: static term + gathered node terms, ReLU, and the
    /// per-node aggregation of the hidden activations (the former edge GEMM
    /// plus scatter, collapsed into one contiguous pass).
    pub edge_gather_ns: u64,
    /// Ψ update: static + c-term init, three accumulating GEMMs, ReLU,
    /// second layer and the latent-state step.
    pub psi_update_ns: u64,
    /// Final-block decoder.
    pub decoder_ns: u64,
    /// Number of inference calls folded into the buckets.
    pub calls: u64,
}

impl InferenceTimings {
    /// Add another timing record into this one.
    pub fn merge(&mut self, other: &InferenceTimings) {
        self.node_gemm_ns += other.node_gemm_ns;
        self.edge_gather_ns += other.edge_gather_ns;
        self.psi_update_ns += other.psi_update_ns;
        self.decoder_ns += other.decoder_ns;
        self.calls += other.calls;
    }

    /// Stage name / nanosecond pairs, in pipeline order.
    pub fn stages(&self) -> [(&'static str, u64); 4] {
        [
            ("node_gemm", self.node_gemm_ns),
            ("edge_gather", self.edge_gather_ns),
            ("psi_update", self.psi_update_ns),
            ("decoder", self.decoder_ns),
        ]
    }

    /// Total time across all stages.
    pub fn total_ns(&self) -> u64 {
        self.stages().iter().map(|&(_, ns)| ns).sum()
    }
}

/// A lock-protected pool of scratch buffers for batched inference, generic
/// over the scratch type (`InferScratch` by default; [`InferScratchF32`] and
/// [`InferScratchQ`] pool the same way for the reduced-precision engines).
///
/// `acquire` pops a warmed-up scratch (or creates an empty one when the pool
/// is dry); `release` returns it.  Buffers grow to the largest graph they
/// ever served and are reused across batch items *and* across calls, so a
/// long-lived pool makes repeated [`DssModel::infer_batch_with_pool`] calls
/// allocation-free in the steady state.  The pool never influences results —
/// scratch contents are fully overwritten by every inference.
///
/// Two robustness properties:
///
/// * **Bounded retention.**  Idle buffers are capped at the high-water mark
///   of *concurrent* borrows ever observed — more idle buffers than peak
///   concurrency can never be useful, so buffers released beyond that cap
///   are dropped instead of retained forever.
/// * **Panic tolerance.**  The internal mutex recovers from poisoning: a
///   worker that panics between `acquire` and `release` must not cascade
///   into poison-panics on every later pool operation.  The guarded state
///   (a list of interchangeable buffers plus counters) has no invariant a
///   mid-panic writer could break.
///
/// **Size classes.**  Borrows are keyed by a *size class* — in practice the
/// batch width `b` of a batched inference, so an `n × 8` panel scratch and a
/// `n × 1` scratch live in separate bins.  Without the split, one batched
/// apply would permanently inflate every pooled buffer to `b×` the unbatched
/// size (buffers only ever grow), and alternating widths would hand b=1
/// borrowers panel-sized allocations while batched borrowers keep drawing
/// cold buffers.  [`ScratchPool::acquire`]/[`ScratchPool::release`] are the
/// width-1 shorthand used by the unbatched paths; the retention cap applies
/// per class.
#[derive(Debug)]
pub struct ScratchPool<T = InferScratch> {
    state: TrackedMutex<PoolState<T>>,
}

impl<T> Default for ScratchPool<T> {
    fn default() -> Self {
        ScratchPool {
            // Commutative: the bins hold *interchangeable* buffers, so which
            // of two same-batch borrowers pops a given buffer first cannot
            // affect any solver output (contents are overwritten on use).
            state: TrackedMutex::new_commutative(
                PoolState::default(),
                "gnn::plan::ScratchPool::state",
                "pooled buffers are interchangeable; acquire/release order never \
                 reaches solver output",
            ),
        }
    }
}

/// Size class of the unbatched (single right-hand-side) borrows.
const POOL_CLASS_UNBATCHED: usize = 1;

#[derive(Debug)]
struct PoolState<T> {
    /// Idle buffers, binned by size class (few classes — linear scan).
    bins: Vec<(usize, Vec<T>)>,
    /// Buffers currently borrowed (acquired and not yet released).
    outstanding: usize,
    /// Maximum `outstanding` ever observed — the per-class idle-retention cap.
    high_water: usize,
}

impl<T> Default for PoolState<T> {
    fn default() -> Self {
        PoolState { bins: Vec::new(), outstanding: 0, high_water: 0 }
    }
}

impl<T> PoolState<T> {
    fn bin_mut(&mut self, class: usize) -> &mut Vec<T> {
        if let Some(pos) = self.bins.iter().position(|(c, _)| *c == class) {
            &mut self.bins[pos].1
        } else {
            self.bins.push((class, Vec::new()));
            match self.bins.last_mut() {
                Some(last) => &mut last.1,
                None => unreachable!("bins is non-empty: an entry was just pushed"),
            }
        }
    }
}

impl<T: Default> ScratchPool<T> {
    /// An empty pool; buffers are created on demand.
    pub fn new() -> Self {
        ScratchPool::default()
    }

    /// Take an unbatched (size class 1) scratch out of the pool.
    pub fn acquire(&self) -> T {
        self.acquire_class(POOL_CLASS_UNBATCHED)
    }

    /// Take a scratch of the given size class (batch width) out of the pool,
    /// or create a fresh one when that class's bin is dry.  Borrows of other
    /// classes are never handed out.
    pub fn acquire_class(&self, class: usize) -> T {
        let mut st = self.state.lock();
        st.outstanding += 1;
        st.high_water = st.high_water.max(st.outstanding);
        st.bin_mut(class).pop().unwrap_or_default()
    }

    /// Return an unbatched scratch to the pool for reuse.
    pub fn release(&self, scratch: T) {
        self.release_class(POOL_CLASS_UNBATCHED, scratch);
    }

    /// Return a scratch to its size class's bin.  Buffers beyond the
    /// high-water concurrent-borrow count (per class) are dropped.
    pub fn release_class(&self, class: usize, scratch: T) {
        let mut st = self.state.lock();
        // Saturating: a panicked worker may never have reported its release,
        // and foreign buffers can legitimately be donated to the pool.
        st.outstanding = st.outstanding.saturating_sub(1);
        let cap = st.high_water;
        let bin = st.bin_mut(class);
        if bin.len() < cap {
            bin.push(scratch);
        }
    }

    /// Number of idle buffers currently pooled, across all size classes.
    pub fn idle(&self) -> usize {
        self.state.lock().bins.iter().map(|(_, bin)| bin.len()).sum()
    }

    /// Number of idle buffers pooled for one size class.
    pub fn idle_class(&self, class: usize) -> usize {
        self.state.lock().bins.iter().find(|(c, _)| *c == class).map_or(0, |(_, bin)| bin.len())
    }

    /// Drop every idle buffer and reset the idle-retention cap, releasing
    /// the memory a past high-concurrency (or large-graph) burst grew the
    /// pool to.  Outstanding borrows are unaffected; the pool refills on
    /// demand.
    pub fn clear(&self) {
        let mut st = self.state.lock();
        st.bins.clear();
        st.high_water = st.outstanding;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DssConfig;
    use meshgen::Point2;
    use proptest::prelude::*;
    use sparse::CooMatrix;

    /// A connected local graph on the given node positions: a chain backbone
    /// plus the `extra` couplings.  Repeated positions give edges whose
    /// deltas and length are exactly zero.
    fn graph_on(positions: Vec<Point2>, extra: &[(usize, usize)]) -> LocalGraph {
        let n = positions.len();
        let mut coo = CooMatrix::new(n, n);
        let chain = (0..n - 1).map(|i| (i, i + 1));
        for (i, j) in chain.chain(extra.iter().map(|&(a, b)| (a % n, b % n))) {
            if i != j {
                coo.push(i, j, -1.0).unwrap();
                coo.push(j, i, -1.0).unwrap();
            }
        }
        for i in 0..n {
            coo.push(i, i, 8.0).unwrap();
        }
        let rhs: Vec<f64> = (0..n).map(|i| ((i * 31) % 23) as f64 * 0.2 - 2.0).collect();
        LocalGraph::new(coo.to_csr(), positions, &rhs, vec![false; n])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The geometric term the f64 engine recomputes per apply has the
        /// bits of the one `geo_terms` precomputes (and the f32 / int8 plans
        /// still store), in both message directions — including zero,
        /// negative and `-0.0` deltas.
        #[test]
        fn recomputed_geometry_matches_geo_terms_bit_for_bit(
            coords in proptest::collection::vec((-1i32..2, -1i32..2, 0u32..1000), 3..24),
            extra in proptest::collection::vec((0usize..24, 0usize..24), 0..20),
            negate_zero in proptest::collection::vec(0usize..64, 0..6),
            model_seed in 0u64..1000,
            latent in 2usize..12,
        ) {
            // A 3 × 3 lattice with a sub-lattice jitter on a quarter of the
            // nodes: many exactly repeated coordinates (zero deltas, zero
            // lengths) next to generic ones.
            let positions = coords
                .iter()
                .map(|&(x, y, j)| {
                    let jitter = if j % 4 == 3 { j as f64 * 1e-3 } else { 0.0 };
                    Point2::new(x as f64 * 0.5 + jitter, y as f64 * 0.25 - jitter)
                })
                .collect();
            let mut graph = graph_on(positions, &extra);
            for &pick in &negate_zero {
                let e = graph.num_edges();
                let edge = &mut graph.edges[pick % e];
                for delta in edge.delta.iter_mut().filter(|v| **v == 0.0) {
                    *delta = -0.0;
                }
            }
            let d = latent;
            let mut model = DssModel::new(DssConfig { num_blocks: 2, latent_dim: d, alpha: 1e-2 }, model_seed);
            // Xavier initialisation leaves every bias at zero; perturb all
            // parameters so the `b₁` rows take part.
            let mut params = model.flatten();
            for (i, p) in params.iter_mut().enumerate() {
                *p += ((i * 37 % 101) as f64 - 50.0) * 1e-3;
            }
            model.load_flat(&params);
            let plan = InferencePlan::new(&model, &graph);
            for (block, pb) in model.blocks().iter().zip(&plan.weights.blocks) {
                let stored_fwd = geo_terms(&block.phi_fwd.l1, &graph, d, 1.0);
                let stored_bwd = geo_terms(&block.phi_bwd.l1, &graph, d, -1.0);
                let rows = pb.geo_rows();
                for (slot, &g) in plan.edge_geo.iter().enumerate() {
                    for k in 0..d {
                        prop_assert!(
                            rows.term(k, g).to_bits() == stored_fwd[slot * d + k].to_bits(),
                            "fwd slot {} lane {} geometry {:?}", slot, k, g
                        );
                        prop_assert!(
                            rows.term(d + k, g).to_bits() == stored_bwd[slot * d + k].to_bits(),
                            "bwd slot {} lane {} geometry {:?}", slot, k, g
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx2_and_baseline_compiled_bodies_agree_bit_for_bit() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            println!("skipped: this CPU has no AVX2, only the baseline body can run");
            return;
        }
        let pretrained = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../assets/pretrained_k16_d10.dss");
        let shipped = crate::io::load_model(&pretrained).expect("checked-in pretrained model");
        assert_eq!(2 * shipped.config().latent_dim, FIXED_D2, "the shipped width is the fixed one");
        let other = DssModel::new(DssConfig { num_blocks: 3, latent_dim: 6, alpha: 1e-2 }, 5);
        let positions = (0..37)
            .map(|i| Point2::new((i as f64 * 0.71).sin() * 2.0, (i as f64 * 0.53).cos() * 2.0))
            .collect();
        let graph = graph_on(positions, &[(0, 9), (3, 30), (12, 25), (7, 19), (36, 2)]);
        let n = graph.num_nodes();
        for model in [&shipped, &other] {
            let plan = InferencePlan::new(model, &graph);
            let mut scratch = InferScratch::new();
            for b in [1usize, 3] {
                let input: Vec<f64> =
                    (0..n * b).map(|i| ((i * 7 + b) % 13) as f64 * 0.1 - 0.6).collect();
                let mut baseline = vec![0.0; n * b];
                let mut avx2 = vec![0.0; n * b];
                forward(&plan, &input, b, &mut scratch, &mut baseline, None);
                // SAFETY: AVX2 was detected at the top of this test.
                unsafe { forward_avx2(&plan, &input, b, &mut scratch, &mut avx2, None) };
                assert!(baseline.iter().any(|&v| v != 0.0));
                let d = model.config().latent_dim;
                for (x, y) in baseline.iter().zip(&avx2) {
                    assert_eq!(x.to_bits(), y.to_bits(), "d={d} b={b}");
                }
            }
        }
    }

    #[test]
    fn f64_plan_owns_only_graph_structure() {
        let positions = (0..9).map(|i| Point2::new(i as f64 * 0.5, (i as f64).sin())).collect();
        let graph = graph_on(positions, &[(0, 4), (2, 7)]);
        let (n, e) = (graph.num_nodes(), graph.num_edges());
        let shallow = DssModel::new(DssConfig { num_blocks: 2, latent_dim: 4, alpha: 1e-2 }, 1);
        let deep = DssModel::new(DssConfig { num_blocks: 9, latent_dim: 12, alpha: 1e-2 }, 1);
        let (p_shallow, p_deep) = (shallow.build_plan(&graph), deep.build_plan(&graph));
        assert_eq!(p_shallow.memory_bytes(), 28 * e + 4 * n);
        assert_eq!(
            p_deep.memory_bytes(),
            p_shallow.memory_bytes(),
            "depth and width are not in the plan"
        );
        assert!(p_deep.shared_weight_bytes() > p_shallow.shared_weight_bytes());
        // One pack per model, shared by all of its plans; retraining drops it.
        assert!(Arc::ptr_eq(&p_deep.weights, &deep.build_plan(&graph).weights));
        let mut retrained = deep.clone();
        retrained.load_flat(&deep.flatten());
        assert!(!Arc::ptr_eq(&p_deep.weights, &retrained.build_plan(&graph).weights));
    }

    #[test]
    fn precision_parses_and_displays() {
        assert_eq!("f32".parse::<Precision>().unwrap(), Precision::F32);
        assert_eq!("F64".parse::<Precision>().unwrap(), Precision::F64);
        assert_eq!("single".parse::<Precision>().unwrap(), Precision::F32);
        assert_eq!("int8".parse::<Precision>().unwrap(), Precision::Int8);
        assert_eq!("I8".parse::<Precision>().unwrap(), Precision::Int8);
        assert_eq!("quantised".parse::<Precision>().unwrap(), Precision::Int8);
        assert!("f16".parse::<Precision>().is_err());
        assert_eq!(Precision::F32.to_string(), "f32");
        assert_eq!(Precision::Int8.to_string(), "int8");
        assert_eq!(Precision::default(), Precision::F64);
    }

    #[test]
    fn quantise_cols_i8_is_exact_per_column_scale() {
        // A 3×2 transposed matrix: column 0 has amax 2.0, column 1 is zero.
        let wt = vec![2.0, 0.0, -1.0, 0.0, 0.5, 0.0];
        let (q, scale) = quantise_cols_i8(&wt, 3, 2);
        assert_eq!(scale[1], 1.0, "all-zero columns get scale 1.0");
        assert!(q.iter().skip(1).step_by(2).all(|&v| v == 0));
        assert_eq!(q[0], 127, "the column max quantises to ±127");
        assert!((scale[0] as f64 - 2.0 / 127.0).abs() < 1e-8, "scale stored in f32");
        // Dequantised values stay within half a quantisation step.
        for i in 0..3 {
            let deq = q[i * 2] as f64 * scale[0] as f64;
            assert!((deq - wt[i * 2]).abs() <= scale[0] as f64 * 0.5 + 1e-12);
        }
    }

    #[test]
    fn pool_caps_idle_buffers_at_high_water_borrows() {
        let pool: ScratchPool = ScratchPool::new();
        // Peak of three concurrent borrows.
        let (a, b, c) = (pool.acquire(), pool.acquire(), pool.acquire());
        pool.release(a);
        pool.release(b);
        pool.release(c);
        assert_eq!(pool.idle(), 3);
        // Donating extra buffers must not grow the pool past the high-water
        // mark of 3.
        pool.release(InferScratch::new());
        pool.release(InferScratch::new());
        assert_eq!(pool.idle(), 3, "idle buffers must stay capped at peak concurrency");
        // Steady-state reuse keeps the count stable.
        let s = pool.acquire();
        pool.release(s);
        assert_eq!(pool.idle(), 3);
    }

    #[test]
    fn pool_sequential_use_retains_a_single_buffer() {
        let pool: ScratchPool = ScratchPool::new();
        for _ in 0..5 {
            let s = pool.acquire();
            pool.release(s);
        }
        assert_eq!(pool.idle(), 1, "sequential borrows never need more than one idle buffer");
    }

    #[test]
    fn pool_survives_mutex_poisoning() {
        let pool: ScratchPool = ScratchPool::new();
        let s = pool.acquire();
        pool.release(s);
        // Poison the mutex: panic while holding the guard.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = pool.state.lock();
            panic!("worker panic while holding the pool lock");
        }));
        assert!(result.is_err());
        assert!(pool.state.is_poisoned(), "mutex must actually be poisoned");
        // Every pool operation must keep working.
        assert_eq!(pool.idle(), 1);
        let s = pool.acquire();
        pool.release(s);
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn pool_release_of_unacquired_buffer_is_safe() {
        let pool: ScratchPool = ScratchPool::new();
        // outstanding is 0; release must not underflow and (with no borrow
        // history) must not retain the buffer.
        pool.release(InferScratch::new());
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn pool_keeps_batched_and_unbatched_borrows_in_separate_bins() {
        // Alternating b=1 / b=8 borrows: each width must recycle its own
        // buffer, the b=1 bin must never be handed a panel-sized buffer and
        // the pool must not accumulate one buffer per alternation.
        let pool: ScratchPool<Vec<f64>> = ScratchPool::new();
        let mut big = pool.acquire_class(8);
        assert!(big.capacity() == 0, "first batched borrow starts cold");
        big.resize(8 * 1024, 0.0);
        let big_ptr = big.as_ptr();
        pool.release_class(8, big);

        let mut small = pool.acquire();
        assert_eq!(small.capacity(), 0, "a b=1 borrow must not receive the n×8 panel buffer");
        small.resize(1024, 0.0);
        pool.release(small);

        let big = pool.acquire_class(8);
        assert_eq!(big.as_ptr(), big_ptr, "the batched borrow recycles the batched buffer");
        assert!(big.capacity() >= 8 * 1024);
        pool.release_class(8, big);

        for _ in 0..16 {
            let s = pool.acquire();
            pool.release(s);
            let s8 = pool.acquire_class(8);
            pool.release_class(8, s8);
        }
        assert_eq!(pool.idle_class(1), 1, "sequential b=1 borrows keep one idle buffer");
        assert_eq!(pool.idle_class(8), 1, "sequential b=8 borrows keep one idle buffer");
        assert_eq!(pool.idle(), 2, "alternating widths must not inflate the pool");

        pool.clear();
        assert_eq!(pool.idle(), 0);
    }
}
