//! Per-graph inference plans and the one forward pass that runs on them.
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
//! The two message directions are fused column-wise (`[fwd | bwd]` rows `2d`
//! wide): one node GEMM pair, one edge sweep, one `2d × d` Ψ product whose
//! ascending-input order equals the fwd-then-bwd pair.
//!
//! What is left is the geometric part `W_geo g_e + b₁`, a pure function of
//! three numbers per edge (`d_jl`, `‖d_jl‖`) and of the model.  It is
//! **recomputed in registers on every apply**, as is the Ψ static term
//! `b_Ψ + deg·q`, so nothing is stored or streamed per edge and block.
//!
//! The one exception is block 1.  The latent state enters it as `H⁰ = 0`,
//! so its node GEMM is exactly `+0` and its edge sums `Σ relu(W_geo g_e +
//! b₁)` depend on the plan only: the plan computes them once, with the same
//! sweep, and every apply reads them instead of sweeping — in place as the
//! Ψ operand of a one-column apply, one copy per column in a batch.  A
//! one-block model therefore runs no edge sweep at apply time at all.
//!
//! There is one engine, generic over the [`Scalar`] type `T`:
//!
//! * An [`InferencePlan<T>`] is the setup half.  Its graph half is the
//!   [`LocalGraph`]'s own edge arrays, shared by `Arc`, not copied — the f64
//!   `(dx, dy, dist)` and a `u32` source index per destination-grouped edge,
//!   a `u32` in-degree per node — and it stores block 1's `2d`-wide edge sums
//!   per node: `28 e + (4 + 2d·size_of::<T>()) n` bytes, `28 e + (4 + 16 d)
//!   n` in f64 and `28 e + (4 + 8 d) n` in f32, whatever the model's depth.
//!   The f32 engine rounds each geometry triple to `T` in registers where a
//!   sweep reads it, the rounding a stored cast would have made; in f64 the
//!   rounding is the identity.
//! * A `WeightPack<T>` is the model half: every weight the forward pass
//!   reads, direction-fused and transposed.  It is built once per plan set —
//!   one [`DssModel::build_plans`] call — and shared by `Arc` between the
//!   plans of that set.
//! * `forward` is the apply half, written once as safe code and compiled for
//!   `f64` and `f32`, each for the baseline target and with AVX2 and FMA
//!   enabled, and for `f64` once more with AVX-512F.  A batch of `b`
//!   right-hand sides is `b` consecutive rows per node of the same kernels;
//!   `b = 1` is the unbatched layout.
//!
//! The three [`Precision`] tiers are two instantiations and a weight format:
//! `F64` is `forward::<f64>` (the bit-reproducible anchor), `F32` is
//! `forward::<f32>` on weights rounded once from f64, `Int8` is the same f32
//! body on a pack whose latent-state GEMM matrices (the node matrix, Ψ's
//! `W_h` and the two composed message matrices of every block) were rounded
//! to int8 with one scale per output and stored dequantised.
//!
//! A plan runs itself ([`InferencePlan::infer`]): it shares its graph half
//! and its pack, a snapshot of the model at build time, so neither the model
//! nor the graph is needed at apply time.  The edges keep the graph's
//! destination-grouped order, so message aggregation in the forward pass is
//! a contiguous per-node gather.

use std::sync::Arc;

use crate::gemm::{gemm_t, Epilogue, Operand, Scalar};
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
/// All three tiers run the same forward body on the same `O(e)` plan layout.
/// `F64` is the default and the correctness anchor: its results are pinned
/// bit for bit.  `F32` runs that body in single precision with every
/// multiply-add fused — half the plan bytes, twice the SIMD lanes, ~1e-6
/// relative output error; it is the fastest tier, alone or batched.  `Int8`
/// is a *weight-storage format* of the f32 engine: the latent-state GEMM
/// weight matrices of every block are rounded to int8 with one scale per
/// output and stored dequantised.  It runs at exactly the speed and plan
/// size of `F32` and perturbs the output far more: its relative forward
/// error stays within 1e-2 only on random shallow models (~1e-3 there) and
/// grows with trained depth: ≈ 2e-2 through the 7 blocks the shipped model
/// runs under one- and two-level coarse components, ≈ 6e-2 through all 16
/// (about 5e-3 of a whole preconditioner application there), which
/// flexible PCG absorbs within a few iterations; it exists to answer
/// whether the model survives int8 weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Double-precision inference (bit-reproducible engine, the default).
    #[default]
    F64,
    /// Single-precision inference: the same engine on 8-lane vectors.
    F32,
    /// Single-precision inference on int8-rounded GEMM weights (per-output
    /// f32 scales, stored dequantised).
    Int8,
}

impl Precision {
    /// Lower-case name used in benchmark reports.
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

/// Row-major weight splits and compositions of one message-passing block:
/// everything the pack derives from the model alone, computed in f64 and
/// rounded once on the way into a [`WeightPack`].
struct PlanBlock {
    /// `Φ→` first-layer columns acting on `h_dst` (`d × d`, row-major).
    w_dst_fwd: Vec<f64>,
    /// `Φ→` first-layer columns acting on `h_src`.
    w_src_fwd: Vec<f64>,
    /// `Φ←` split.
    w_dst_bwd: Vec<f64>,
    w_src_bwd: Vec<f64>,
    /// `Ψ` first-layer columns acting on `h` (`d × d`).
    psi_w_h: Vec<f64>,
    /// `Ψ` first-layer column acting on the node input `c` (length `d`).
    psi_w_c: Vec<f64>,
    /// Composed matrix `W_Ψ,→ W₂→` applied to the aggregated forward hidden
    /// activations (`d × d`).
    psi_m_fwd: Vec<f64>,
    /// Composed matrix `W_Ψ,← W₂←` for the backward direction.
    psi_m_bwd: Vec<f64>,
    /// Message-bias contribution per unit of in-degree,
    /// `q = W_Ψ,→ b₂→ + W_Ψ,← b₂←` (length `d`).
    psi_q: Vec<f64>,
}

/// Extract the column block `[col0, col0 + cols)` of a row-major layer weight
/// in `p` as its own row-major `out_dim × cols` matrix.
fn column_block(layer: &Linear, p: &[f64], col0: usize, cols: usize) -> Vec<f64> {
    let weight = layer.weight(p);
    let mut out = Vec::with_capacity(layer.out_dim * cols);
    for row in weight.chunks_exact(layer.in_dim) {
        out.extend_from_slice(&row[col0..col0 + cols]);
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
    fn new((block, p): (Block, &[f64]), d: usize) -> Self {
        let psi = &block.psi.l1;
        let psi_w_fwd = column_block(psi, p, d + 1, d);
        let psi_w_bwd = column_block(psi, p, 2 * d + 1, d);
        let q_fwd = matvec_dd(&psi_w_fwd, block.phi_fwd.l2.bias(p), d);
        let q_bwd = matvec_dd(&psi_w_bwd, block.phi_bwd.l2.bias(p), d);
        PlanBlock {
            w_dst_fwd: column_block(&block.phi_fwd.l1, p, 0, d),
            w_src_fwd: column_block(&block.phi_fwd.l1, p, d, d),
            w_dst_bwd: column_block(&block.phi_bwd.l1, p, 0, d),
            w_src_bwd: column_block(&block.phi_bwd.l1, p, d, d),
            psi_w_h: column_block(psi, p, 0, d),
            psi_w_c: column_block(psi, p, d, 1),
            psi_m_fwd: matmul_dd(&psi_w_fwd, block.phi_fwd.l2.weight(p), d),
            psi_m_bwd: matmul_dd(&psi_w_bwd, block.phi_bwd.l2.weight(p), d),
            psi_q: q_fwd.iter().zip(&q_bwd).map(|(f, b)| f + b).collect(),
        }
    }
}

/// Transpose a row-major `out × in` f64 matrix into the kernels' `in × out`
/// layout (one contiguous row of output weights per input feature).
pub(crate) fn transpose(w: &[f64], out_dim: usize, in_dim: usize) -> Vec<f64> {
    debug_assert_eq!(w.len(), out_dim * in_dim);
    let mut wt = vec![0.0f64; in_dim * out_dim];
    for o in 0..out_dim {
        for i in 0..in_dim {
            wt[i * out_dim + o] = w[o * in_dim + i];
        }
    }
    wt
}

/// Concatenate row-major `d × d` f64 matrices column-wise and transpose the
/// lot into `in × out` (`d × m·d`): row `i` holds `[a₀[·][i] | a₁[·][i] | …]`.
fn cat_transpose(parts: &[&[f64]], d: usize) -> Vec<f64> {
    let out_dim = parts.len() * d;
    let mut wt = vec![0.0f64; d * out_dim];
    for (p, a) in parts.iter().enumerate() {
        debug_assert_eq!(a.len(), d * d);
        for o in 0..d {
            for i in 0..d {
                wt[i * out_dim + p * d + o] = a[o * d + i];
            }
        }
    }
    wt
}

/// Per-output-column int8 quantisation of a transposed (`in × out`) f64
/// matrix: `scale[o] = max_i |wt[i][o]| / 127` (1.0 for all-zero columns, so
/// the quantised values stay 0), `q[i][o] = round(wt[i][o] / scale[o])`.
///
/// One scale per *output* equals one scale per row of the original
/// `out × in` weight — the per-output-row scheme: each output's dot product
/// is exact up to a single rounding per weight.
pub(crate) fn quantise_cols_i8(wt: &[f64], in_dim: usize, out_dim: usize) -> (Vec<i8>, Vec<f32>) {
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

/// Round a slice of doubles into the engine's scalar type.
fn cast<T: Scalar>(v: &[f64]) -> Vec<T> {
    v.iter().map(|&x| T::from_f64(x)).collect()
}

/// A transposed GEMM weight in the pack's storage: rounded to `T`, after a
/// round trip through [`quantise_cols_i8`] (`q · scale`, evaluated in f32)
/// when the pack stores the int8 weight format.
fn gemm_weight<T: Scalar>(wt: &[f64], in_dim: usize, out_dim: usize, int8: bool) -> Vec<T> {
    if !int8 {
        return cast(wt);
    }
    let (q, scale) = quantise_cols_i8(wt, in_dim, out_dim);
    q.iter()
        .enumerate()
        .map(|(e, &q)| T::from_f64((q as f32 * scale[e % out_dim]) as f64))
        .collect()
}

/// One block of a [`WeightPack`], direction-fused and transposed.
#[derive(Debug)]
struct PackBlock<T> {
    /// `[W_dst,→ | W_dst,← | W_src,→ | W_src,←]` transposed: `d × 4d` — the
    /// h-dependent halves of both directions' first layer, for the
    /// destination and for the source role of a node, as one GEMM.
    w_node_t: Vec<T>,
    /// Geometry rows, `4 × 2d`: `b₁`, then the weights of `dx`, `dy` and
    /// `dist`, each `[fwd | bwd]`.  The backward halves of the `dx` / `dy`
    /// rows are stored **negated**: `Φ←` sees `−d_jl`, and `(−w)·x` has the
    /// same bits as `w·(−x)`.
    geo: Vec<T>,
    /// `Ψ` first-layer bias `b_Ψ` (length `d`).
    psi_bias: Vec<T>,
    /// Transposed weight of the per-node input `[deg(j), c_j]`, `2 × d`: the
    /// per-degree message-bias term `q`, then `Ψ`'s `c` column.  Starting
    /// from `b_Ψ`, its two accumulation steps are `(b_Ψ + deg·q) + c·w_c` —
    /// the static term and the `W_c c` term in the order they were always
    /// added.
    psi_node_t: Vec<T>,
    /// `Ψ` first-layer columns acting on `h`, transposed: `d × d`.
    psi_w_h_t: Vec<T>,
    /// `[W_Ψ,→ W₂→ ; W_Ψ,← W₂←]` transposed: `2d × d`.
    psi_m_t: Vec<T>,
    /// Ψ second layer, transposed weight + bias.
    psi_l2_wt: Vec<T>,
    psi_l2_b: Vec<T>,
}

impl<T: Scalar> PackBlock<T> {
    fn new((block, p): (Block, &[f64]), d: usize, int8: bool) -> Self {
        let pb = PlanBlock::new((block, p), d);
        let (fwd, bwd) = (&block.phi_fwd.l1, &block.phi_bwd.l1);
        let cols = fwd.in_dim;
        let d2 = 2 * d;
        let mut geo = vec![0.0; 4 * d2];
        for o in 0..d {
            let wf = &fwd.weight(p)[o * cols + d2..][..3];
            let wb = &bwd.weight(p)[o * cols + d2..][..3];
            geo[o] = fwd.bias(p)[o];
            geo[d + o] = bwd.bias(p)[o];
            geo[d2 + o] = wf[0];
            geo[d2 + d + o] = -wb[0];
            geo[2 * d2 + o] = wf[1];
            geo[2 * d2 + d + o] = -wb[1];
            geo[3 * d2 + o] = wf[2];
            geo[3 * d2 + d + o] = wb[2];
        }
        PackBlock {
            w_node_t: gemm_weight(
                &cat_transpose(&[&pb.w_dst_fwd, &pb.w_dst_bwd, &pb.w_src_fwd, &pb.w_src_bwd], d),
                d,
                2 * d2,
                int8,
            ),
            geo: cast(&geo),
            psi_bias: cast(block.psi.l1.bias(p)),
            psi_node_t: cast(&[pb.psi_q, pb.psi_w_c].concat()),
            psi_w_h_t: gemm_weight(&transpose(&pb.psi_w_h, d, d), d, d, int8),
            // Each direction's composed matrix is a weight matrix of its own
            // (with its own per-output scales in the int8 format); stacked,
            // they are the `2d` GEMM inputs: forward hidden sums first.
            psi_m_t: [&pb.psi_m_fwd, &pb.psi_m_bwd]
                .iter()
                .flat_map(|m| gemm_weight::<T>(&transpose(m, d, d), d, d, int8))
                .collect(),
            psi_l2_wt: cast(&transpose(block.psi.l2.weight(p), d, d)),
            psi_l2_b: cast(block.psi.l2.bias(p)),
        }
    }

    fn len(&self) -> usize {
        self.w_node_t.len()
            + self.geo.len()
            + self.psi_bias.len()
            + self.psi_node_t.len()
            + self.psi_w_h_t.len()
            + self.psi_m_t.len()
            + self.psi_l2_wt.len()
            + self.psi_l2_b.len()
    }

    fn geo_rows(&self) -> GeoRows<'_, T> {
        let d2 = self.geo.len() / 4;
        let (bias, rest) = self.geo.split_at(d2);
        let (w_dx, rest) = rest.split_at(d2);
        let (w_dy, w_dist) = rest.split_at(d2);
        GeoRows { bias, w_dx, w_dy, w_dist }
    }
}

/// The four `2d`-wide rows of [`PackBlock::geo`].
#[derive(Clone, Copy)]
struct GeoRows<'a, T> {
    bias: &'a [T],
    w_dx: &'a [T],
    w_dy: &'a [T],
    w_dist: &'a [T],
}

impl<T: Scalar> GeoRows<'_, T> {
    /// Lane `k` of `W_geo g_e + b₁`, evaluated as
    /// `((b + w₀·dx) + w₁·dy) + w₂·dist` with one [`Scalar::mul_acc`] per
    /// term — in f64 the expression order, and hence the bits, of the
    /// per-edge terms the first plans stored; in f32 three fused
    /// multiply-adds in that order.
    #[inline(always)]
    fn term(&self, k: usize, [dx, dy, dist]: [T; 3]) -> T {
        self.bias[k]
            .mul_acc(self.w_dx[k], dx)
            .mul_acc(self.w_dy[k], dy)
            .mul_acc(self.w_dist[k], dist)
    }

    /// The same rows cut to `w` lanes, so loops over them carry no bounds
    /// checks.
    #[inline(always)]
    fn cut(&self, w: usize) -> Self {
        GeoRows {
            bias: &self.bias[..w],
            w_dx: &self.w_dx[..w],
            w_dy: &self.w_dy[..w],
            w_dist: &self.w_dist[..w],
        }
    }
}

/// Final-block decoder of a [`WeightPack`].
#[derive(Debug)]
struct PackDecoder<T> {
    l1_wt: Vec<T>,
    l1_b: Vec<T>,
    /// Second-layer weight (`out_dim = 1`: its row is its own transpose).
    l2_w: Vec<T>,
    l2_b: Vec<T>,
}

/// The model half of the engine: every weight the forward pass reads, in
/// kernel layout (direction-fused, transposed to `in × out`) and in the
/// engine's scalar type.  A few KB per block; built once per plan set by
/// [`DssModel::build_plans`] and shared by `Arc` between the plans of the
/// set, so a preconditioner holds one copy, not one per sub-domain.
#[derive(Debug)]
pub(crate) struct WeightPack<T> {
    latent_dim: usize,
    alpha: T,
    blocks: Vec<PackBlock<T>>,
    decoder: Option<PackDecoder<T>>,
}

impl<T: Scalar> WeightPack<T> {
    /// Pack `model`'s weights, rounding the latent-state GEMM matrices of
    /// every block through int8 first when `int8` is set.
    pub(crate) fn new(model: &DssModel, int8: bool) -> Self {
        let config = model.config();
        let d = config.latent_dim;
        WeightPack {
            latent_dim: d,
            alpha: T::from_f64(config.alpha),
            blocks: model.blocks().map(|b| PackBlock::new(b, d, int8)).collect(),
            decoder: model.blocks().last().map(|(b, p)| PackDecoder {
                l1_wt: cast(&transpose(b.decoder.l1.weight(p), d, d)),
                l1_b: cast(b.decoder.l1.bias(p)),
                l2_w: cast(b.decoder.l2.weight(p)),
                l2_b: cast(b.decoder.l2.bias(p)),
            }),
        }
    }

    fn memory_bytes(&self) -> usize {
        let decoder = self
            .decoder
            .as_ref()
            .map_or(0, |dec| dec.l1_wt.len() + dec.l1_b.len() + dec.l2_w.len() + dec.l2_b.len());
        std::mem::size_of::<T>() * (self.blocks.iter().map(PackBlock::len).sum::<usize>() + decoder)
    }
}

/// Reusable buffers of the forward pass ([`InferencePlan::infer`]).
///
/// Create once (cheap, everything starts empty), pass to every inference
/// call; buffers are sized lazily to the largest `nodes × batch width` seen
/// and reused afterwards.  A scratch carries no history: the forward pass
/// writes every element of a buffer before reading it, so one scratch may
/// serve any plan next — the preconditioner keeps one per running worker,
/// not one per sub-domain.
///
/// A forward pass on `n` nodes and `b` right-hand sides gives every buffer
/// but `geo_buf` `n · b` rows; the direction-fused `hsum` is `2d` wide.
#[derive(Debug, Default)]
pub struct InferScratch<T = f64> {
    /// Per-row Ψ input `[deg(j), c_j]` (2 wide).
    node_in: Vec<T>,
    /// Latent state `H` (`d` wide).
    h: Vec<T>,
    /// Node-level terms `H [W_dst,→ | W_dst,← | W_src,→ | W_src,←]ᵀ` (`4d`
    /// wide): what a row contributes to its own edges as their destination,
    /// then what it contributes to its neighbours' as their source.
    a_node: Vec<T>,
    /// Per-node sums of ReLU'd message hidden activations, `[fwd | bwd]`.
    hsum: Vec<T>,
    /// Ψ hidden activation (`d` wide).
    psi_hidden: Vec<T>,
    /// Decoder hidden activation (`d` wide).
    hidden: Vec<T>,
    /// Decoded output before it is widened into the caller's `f64` slice.
    decoded: Vec<T>,
    /// The geometric terms of one node's edges (`max in-degree × 2d`),
    /// shared by the rows of that node in a batched apply.
    geo_buf: Vec<T>,
}

impl<T: Default> InferScratch<T> {
    /// Empty scratch; buffers are allocated on first use.
    pub fn new() -> Self {
        InferScratch::default()
    }
}

/// A per-graph inference plan: the setup half of the setup/apply split.
///
/// Build the plans of a set of sub-domain graphs once (e.g. at
/// preconditioner construction) via [`DssModel::build_plans`], or of one
/// graph via [`DssModel::build_plan`], then run [`InferencePlan::infer`] any
/// number of times with changing node inputs.  The plan shares its graph's
/// structure — three f64 and a `u32` per edge, a `u32` per node — and the
/// weight pack of its set, and owns block 1's `2d` edge sums per node; the
/// pack snapshots the model, so a retrained model needs new plans.
pub struct InferencePlan<T = f64> {
    /// The graph's `(dx, dy, dist)` of every destination-grouped edge.
    edge_geo: Arc<[[f64; 3]]>,
    /// The graph's source node of every destination-grouped edge.
    edge_src: Arc<[u32]>,
    /// The graph's in-degree of every node: node `j`'s edges follow those of
    /// `j − 1` in the edge list.
    in_degree: Arc<[u32]>,
    /// Largest in-degree: the rows of the batched sweep's `geo_buf`.
    max_degree: usize,
    /// Block 1's per-node edge sums `[fwd | bwd]` (`n × 2d`), which every
    /// forward pass reads instead of sweeping.  Empty only where a test
    /// runs block 1 live against them.
    block1_hsum: Vec<T>,
    weights: Arc<WeightPack<T>>,
}

impl<T: Scalar> InferencePlan<T> {
    /// Build a plan for `graph` that reads `weights`: share the graph's edge
    /// arrays and sweep block 1's edges once.
    pub(crate) fn new(graph: &LocalGraph, weights: Arc<WeightPack<T>>) -> Self {
        let mut plan = InferencePlan {
            edge_geo: Arc::clone(&graph.edge_geo),
            edge_src: Arc::clone(&graph.edge_src),
            in_degree: Arc::clone(&graph.in_degree),
            max_degree: graph.in_degree.iter().copied().max().unwrap_or(0) as usize,
            block1_hsum: Vec::new(),
            weights,
        };
        plan.block1_hsum = plan.block1_sums();
        plan
    }

    /// Block 1's edge sums: the forward pass's own sweep on the `+0` node
    /// terms of `H⁰ = 0`, so they have the bits of the live sweep.
    fn block1_sums(&self) -> Vec<T> {
        let Some(pb) = self.weights.blocks.first() else { return Vec::new() };
        let d2 = 2 * self.latent_dim();
        let mut sums = vec![T::ZERO; self.num_nodes() * d2];
        let a_node = vec![T::ZERO; self.num_nodes() * 2 * d2];
        run_widest::<T>(
            #[inline(always)]
            || edge_sweep(self, pb.geo_rows(), d2, 1, &a_node, &mut sums, &mut vec![T::ZERO; d2]),
        );
        sums
    }

    /// Number of nodes of the graph this plan was built for.
    pub fn num_nodes(&self) -> usize {
        self.in_degree.len()
    }

    /// Latent dimension of the model this plan was built from.
    fn latent_dim(&self) -> usize {
        self.weights.latent_dim
    }

    /// Heap footprint in bytes of what this plan holds, its graph's shared
    /// structure included: `28 e + (4 + 2d·size_of::<T>()) n`, that is
    /// `28 e + (4 + 16 d) n` in f64 and `28 e + (4 + 8 d) n` in f32,
    /// whatever the model's depth.  The shared weights are counted
    /// separately, see [`InferencePlan::shared_weight_bytes`].
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<[f64; 3]>() * self.edge_geo.len()
            + std::mem::size_of::<u32>() * (self.edge_src.len() + self.in_degree.len())
            + std::mem::size_of::<T>() * self.block1_hsum.len()
    }

    /// Heap footprint in bytes of the weight pack this plan shares with the
    /// other plans of its set (count it once per set, not once per plan).
    pub fn shared_weight_bytes(&self) -> usize {
        self.weights.memory_bytes()
    }

    /// The inference engine, in the plan's scalar type, on `b` right-hand
    /// sides at once: direction-fused node-level GEMMs over transposed
    /// weights, geometric edge terms recomputed in registers, contiguous
    /// message aggregation, in the widest compiled copy of the forward pass
    /// the CPU supports.
    ///
    /// `input` and `out` are `n × b` row-major (`input[j*b + c]` is column
    /// `c`'s value at node `j`; with `b = 1` plain vectors).  Weights and
    /// edge structure are read, and the geometric edge terms computed, once
    /// per batch instead of once per right-hand side; column `c` of the
    /// output is **bit-identical** to a `b = 1` call on that column alone,
    /// for every batch width.
    ///
    /// All intermediates live in `scratch` (sized on first use, reused across
    /// calls), so the steady state performs zero heap allocation.  Only the
    /// final block's decoder runs — earlier decodes are training-time
    /// artefacts that do not influence the latent state.
    pub fn infer(&self, input: &[f64], b: usize, scratch: &mut InferScratch<T>, out: &mut [f64]) {
        run_widest::<T>(
            #[inline(always)]
            || forward(self, input, b, scratch, out),
        );
    }
}

/// Run `pass`, an `#[inline(always)]` closure over the engine, in the widest
/// copy the running CPU supports: AVX-512F for the scalar types
/// [`Scalar::AVX512`] selects, else AVX2 with FMA, else the baseline target.
/// Each copy inlines the closure under its own target features; none
/// contracts or reassociates, and every fused multiply-add is an explicit,
/// correctly rounded [`Scalar::mul_acc`], so all produce the same bits.
#[inline(always)]
fn run_widest<T: Scalar>(pass: impl FnOnce()) {
    #[cfg(target_arch = "x86_64")]
    {
        if T::AVX512 && std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: `on_avx512` is safe code whose only requirement is the
            // AVX-512F target feature it is compiled with, which the check
            // guarding this branch has just confirmed the running CPU
            // provides.
            return unsafe { on_avx512(pass) };
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: as above, for `on_avx2` and AVX2 with FMA.
            return unsafe { on_avx2(pass) };
        }
    }
    pass();
}

/// `pass` compiled with AVX-512F enabled.  The feature implies FMA, but the
/// f64 code has no fused operation and Rust never contracts a multiply and
/// an add.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn on_avx512(pass: impl FnOnce()) {
    pass();
}

/// `pass` compiled with AVX2 and FMA enabled.  The f32 instantiation's
/// [`Scalar::mul_acc`] becomes one `vfmadd` instruction here, where the
/// baseline copy calls libm's correctly rounded `fmaf`, with the same bits.
/// The f64 instantiation has no fused operation to lower, and Rust never
/// contracts its multiply and add, so it keeps the baseline's bits too.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn on_avx2(pass: impl FnOnce()) {
    pass();
}

/// `acc[k] += max(g[k] + adj[k] + asj[k], 0)` over one fused `[fwd | bwd]`
/// row.  All slices are cut to `acc.len()`, so the loop carries no bounds
/// checks.
#[inline(always)]
fn relu_sum3_acc<T: Scalar>(acc: &mut [T], g: &[T], adj: &[T], asj: &[T]) {
    let w = acc.len();
    let (g, adj, asj) = (&g[..w], &adj[..w], &asj[..w]);
    for k in 0..w {
        acc[k] += (g[k] + adj[k] + asj[k]).relu();
    }
}

/// Fused edge sweep at a compile-time row width over `b` rows per node: each
/// accumulator row stays in registers across its node's edges and is stored
/// once.  With `b = 1` the geometric term is recomputed in registers as well;
/// with `b > 1` it is evaluated once per edge into `geo_buf` (one row per edge
/// of the node) and reused for the node's `b` rows, which see exactly the
/// values and operations of their own `b = 1` sweep.
#[inline(always)]
fn edge_sweep_fixed<T: Scalar, const D2: usize>(
    plan: &InferencePlan<T>,
    geo: GeoRows<'_, T>,
    b: usize,
    a_node: &[T],
    hsum: &mut [T],
    geo_buf: &mut [T],
) {
    let geo = geo.cut(D2);
    // A row of `a_node` is `[as destination | as source]`, `D2` each.
    let as_dst = |row: usize| &a_node[row * 2 * D2..][..D2];
    let as_src = |row: usize| &a_node[row * 2 * D2 + D2..][..D2];
    let mut slot = 0;
    if b == 1 {
        for (j, &deg) in plan.in_degree.iter().enumerate() {
            let adj = as_dst(j);
            let mut acc = [T::ZERO; D2];
            for s in slot..slot + deg as usize {
                let g = plan.edge_geo[s].map(T::from_f64);
                let asj = as_src(plan.edge_src[s] as usize);
                for k in 0..D2 {
                    acc[k] += (geo.term(k, g) + adj[k] + asj[k]).relu();
                }
            }
            slot += deg as usize;
            hsum[j * D2..][..D2].copy_from_slice(&acc);
        }
        return;
    }
    for (j, &deg) in plan.in_degree.iter().enumerate() {
        let edges = slot..slot + deg as usize;
        slot = edges.end;
        for (g, &xyz) in geo_buf.chunks_exact_mut(D2).zip(&plan.edge_geo[edges.clone()]) {
            let xyz = xyz.map(T::from_f64);
            // Through a local row: a store into `geo_buf` could alias the
            // weight rows for all the optimiser knows, which keeps the lanes
            // from being evaluated as vectors.
            let mut row = [T::ZERO; D2];
            for k in 0..D2 {
                row[k] = geo.term(k, xyz);
            }
            g.copy_from_slice(&row);
        }
        for c in 0..b {
            let adj = as_dst(j * b + c);
            let mut acc = [T::ZERO; D2];
            for (g, &src) in geo_buf.chunks_exact(D2).zip(&plan.edge_src[edges.clone()]) {
                let asj = as_src(src as usize * b + c);
                for k in 0..D2 {
                    acc[k] += (g[k] + adj[k] + asj[k]).relu();
                }
            }
            hsum[(j * b + c) * D2..][..D2].copy_from_slice(&acc);
        }
    }
}

/// Fused edge sweep at a run-time row width `d2` over `b` rows per node, the
/// accumulator rows living in `hsum`.  The geometric term is evaluated once
/// per edge into the first row of `geo_buf` and reused for the node's `b`
/// rows; per row the operations are those of [`edge_sweep_fixed`].
#[inline(always)]
fn edge_sweep_dyn<T: Scalar>(
    plan: &InferencePlan<T>,
    geo: GeoRows<'_, T>,
    d2: usize,
    b: usize,
    a_node: &[T],
    hsum: &mut [T],
    geo_buf: &mut [T],
) {
    let geo = geo.cut(d2);
    let geo_row = &mut geo_buf[..d2];
    let mut slot = 0;
    for (j, &deg) in plan.in_degree.iter().enumerate() {
        hsum[j * b * d2..][..b * d2].fill(T::ZERO);
        for s in slot..slot + deg as usize {
            let src = plan.edge_src[s] as usize;
            let xyz = plan.edge_geo[s].map(T::from_f64);
            for (k, g) in geo_row.iter_mut().enumerate() {
                *g = geo.term(k, xyz);
            }
            for c in 0..b {
                let (row, src_row) = (j * b + c, src * b + c);
                relu_sum3_acc(
                    &mut hsum[row * d2..][..d2],
                    geo_row,
                    &a_node[row * 2 * d2..],
                    &a_node[src_row * 2 * d2 + d2..],
                );
            }
        }
        slot += deg as usize;
    }
}

/// Row width (`2d`) of the shipped model, for which the edge sweep keeps its
/// accumulator rows in registers.
const FIXED_D2: usize = 20;

/// The fused edge sweep at row width `d2`: [`edge_sweep_fixed`] at the
/// shipped width, [`edge_sweep_dyn`] at any other.
#[inline(always)]
fn edge_sweep<T: Scalar>(
    plan: &InferencePlan<T>,
    geo: GeoRows<'_, T>,
    d2: usize,
    b: usize,
    a_node: &[T],
    hsum: &mut [T],
    geo_buf: &mut [T],
) {
    if d2 == FIXED_D2 {
        edge_sweep_fixed::<T, FIXED_D2>(plan, geo, b, a_node, hsum, geo_buf);
    } else {
        edge_sweep_dyn(plan, geo, d2, b, a_node, hsum, geo_buf);
    }
}

/// The forward pass on one graph and `b` right-hand sides, written once as
/// safe code and inlined into every copy [`run_widest`] picks from.
///
/// The `b` columns of the batch are `b` consecutive **rows per node**: row
/// `j·b + c` of every buffer belongs to node `j`, column `c`, which is the
/// layout `input` and `out` already have.  Every GEMM is the one lane-tiled
/// kernel over `n · b` rows and rows never mix, so each column has exactly
/// the bits of its own `b = 1` run.  In f64 every output element is produced
/// by the same sequence of IEEE operations as the engines this replaced
/// (per-direction row-major GEMMs, stored geometric and Ψ static terms),
/// hence the same bits.
///
/// All intermediates live in `scratch` (sized on first use, reused across
/// calls), so the steady state performs zero heap allocation.  Only the
/// final block's decoder runs — earlier decodes are training-time artefacts
/// that do not influence the latent state.
#[inline(always)]
fn forward<T: Scalar>(
    plan: &InferencePlan<T>,
    input: &[f64],
    b: usize,
    scratch: &mut InferScratch<T>,
    out: &mut [f64],
) {
    let w = &*plan.weights;
    let d = w.latent_dim;
    let d2 = 2 * d;
    let rows = plan.num_nodes() * b;
    assert_eq!(input.len(), rows, "input length mismatch");
    assert_eq!(out.len(), rows, "output length mismatch");

    let InferScratch { node_in, h, a_node, hsum, psi_hidden, hidden, decoded, geo_buf } = scratch;
    node_in.clear();
    for (&deg, cin) in plan.in_degree.iter().zip(input.chunks_exact(b.max(1))) {
        let deg = T::from_f64(deg as f64);
        node_in.extend(cin.iter().flat_map(|&c| [deg, T::from_f64(c)]));
    }
    h.clear();
    h.resize(rows * d, T::ZERO);
    a_node.resize(rows * 2 * d2, T::ZERO);
    hsum.resize(rows * d2, T::ZERO);
    psi_hidden.resize(rows * d, T::ZERO);
    hidden.resize(rows * d, T::ZERO);
    decoded.resize(rows, T::ZERO);
    geo_buf.resize(plan.max_degree.max(1) * d2, T::ZERO);

    for (k, pb) in w.blocks.iter().enumerate() {
        let cached = k == 0 && !plan.block1_hsum.is_empty();
        if cached && b > 1 {
            // `H⁰ = 0`: block 1's node terms are `+0` and its edge sums are
            // the plan's, the same for each of a node's `b` rows.  With
            // `b = 1` the plan's rows are the Ψ operand as they stand.
            let sums = plan.block1_hsum.chunks_exact(d2).flat_map(|s| std::iter::repeat_n(s, b));
            for (row, sum) in hsum.chunks_exact_mut(d2).zip(sums) {
                row.copy_from_slice(sum);
            }
        } else if !cached {
            // Node-level GEMM: the h-dependent halves of the split first
            // layer, both message directions and both roles of a node at
            // once (`4d` wide).
            let on_h = [Operand { x: &h[..], in_dim: d, wt: &pb.w_node_t[..] }];
            gemm_t(on_h, rows, 2 * d2, &[], Epilogue::Store, a_node);
            // Fused edge sweep: per-edge hidden pre-activation = recomputed
            // geometric term + gathered node terms, ReLU'd and summed
            // straight into the per-node accumulator.  The second message
            // layer is applied once per *node* inside the Ψ stage (composed
            // into `psi_m_t`).
            edge_sweep(plan, pb.geo_rows(), d2, b, a_node, hsum, geo_buf);
        }
        // Ψ update, in full in block 1 too.  The hidden pre-activation starts
        // from `b_Ψ`, takes the degree-scaled message biases and the `W_c c`
        // term, then the latent-dependent products (the message one
        // pre-composed with the second message layer, forward inputs before
        // backward) — one pass, ReLU on the way out; the second layer steps
        // `H` in place.  Block 1's `c` term comes before its message sums, so
        // the sums cannot fold into a static term.
        let sums = if cached && b == 1 { &plan.block1_hsum[..] } else { &hsum[..] };
        let psi_in = [
            Operand { x: &node_in[..], in_dim: 2, wt: &pb.psi_node_t[..] },
            Operand { x: &h[..], in_dim: d, wt: &pb.psi_w_h_t[..] },
            Operand { x: sums, in_dim: d2, wt: &pb.psi_m_t[..] },
        ];
        gemm_t(psi_in, rows, d, &pb.psi_bias, Epilogue::Relu, psi_hidden);
        let psi_out = [Operand { x: &psi_hidden[..], in_dim: d, wt: &pb.psi_l2_wt[..] }];
        gemm_t(psi_out, rows, d, &pb.psi_l2_b, Epilogue::AddScaled(w.alpha), h);
    }
    match &w.decoder {
        Some(dec) => {
            let l1 = [Operand { x: &h[..], in_dim: d, wt: &dec.l1_wt[..] }];
            gemm_t(l1, rows, d, &dec.l1_b, Epilogue::Relu, hidden);
            let l2 = [Operand { x: &hidden[..], in_dim: d, wt: &dec.l2_w[..] }];
            gemm_t(l2, rows, 1, &dec.l2_b, Epilogue::Store, decoded);
            for (o, v) in out.iter_mut().zip(decoded.iter()) {
                *o = v.to_f64();
            }
        }
        None => out.fill(0.0),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::model::DssConfig;
    use meshgen::Point2;
    use proptest::prelude::*;
    use sparse::CooMatrix;

    /// A connected local graph on the given node positions: a chain backbone
    /// plus the `extra` couplings.  Repeated positions give edges whose
    /// deltas and length are exactly zero.
    pub(crate) fn graph_on(positions: Vec<Point2>, extra: &[(usize, usize)]) -> LocalGraph {
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
        LocalGraph::new(coo.to_csr(), positions, &rhs)
    }

    /// The plan of one graph in the scalar type `T`, on a pack of its own.
    pub(crate) fn plan_for<T: Scalar>(
        model: &DssModel,
        graph: &LocalGraph,
        int8: bool,
    ) -> InferencePlan<T> {
        model.build_plans(std::slice::from_ref(graph), int8).remove(0)
    }

    /// Reference for the recomputed geometric term: `W_geo g_e + b₁` for
    /// every destination-grouped edge, the way the first plans precomputed
    /// and stored it.  `sign` flips the relative position for the backward
    /// message direction.
    fn geo_terms(layer: &Linear, p: &[f64], graph: &LocalGraph, d: usize, sign: f64) -> Vec<f64> {
        let cols = layer.in_dim;
        assert_eq!(cols, 2 * d + 3);
        let (weight, bias) = (layer.weight(p), layer.bias(p));
        let mut out = Vec::with_capacity(graph.num_edges() * d);
        for &[dx, dy, dist] in graph.edge_geo.iter() {
            for o in 0..d {
                let w = &weight[o * cols + 2 * d..o * cols + 2 * d + 3];
                out.push(bias[o] + w[0] * (sign * dx) + w[1] * (sign * dy) + w[2] * dist);
            }
        }
        out
    }

    /// A forward pass that reads block 1's sums from the plan (in place at
    /// `b = 1`, copied per column at `b = 3`) has the bits of the same
    /// forward pass running block 1 live.
    fn block1_cache_matches_live<T: Scalar>(model: &DssModel, graph: &LocalGraph) {
        let cached = plan_for::<T>(model, graph, false);
        let mut live = plan_for::<T>(model, graph, false);
        live.block1_hsum.clear();
        let n = graph.num_nodes();
        let mut scratch = InferScratch::new();
        for b in [1usize, 3] {
            let input: Vec<f64> =
                (0..n * b).map(|i| ((i * 5 + b) % 11) as f64 * 0.2 - 1.0).collect();
            let (mut from_plan, mut swept) = (vec![0.0; n * b], vec![0.0; n * b]);
            cached.infer(&input, b, &mut scratch, &mut from_plan);
            live.infer(&input, b, &mut scratch, &mut swept);
            assert!(swept.iter().any(|&v| v != 0.0));
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&from_plan), bits(&swept), "d={} b={b}", model.config().latent_dim);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The geometric term the f64 engine recomputes per apply has the
        /// bits of the per-edge term `geo_terms` evaluates the way the first
        /// plans stored it, in both message directions — including zero,
        /// negative and `-0.0` deltas — and block 1's sums from the plan
        /// have the bits of the live sweep on these graphs.
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
                let geo = &mut Arc::make_mut(&mut graph.edge_geo)[pick % e];
                for delta in geo[..2].iter_mut().filter(|v| **v == 0.0) {
                    *delta = -0.0;
                }
            }
            let d = latent;
            let mut model = DssModel::new(DssConfig { num_blocks: 2, latent_dim: d, alpha: 1e-2 }, model_seed);
            // Xavier initialisation leaves every bias at zero; perturb all
            // parameters so the `b₁` rows take part.
            for (i, p) in model.params_mut().iter_mut().enumerate() {
                *p += ((i * 37 % 101) as f64 - 50.0) * 1e-3;
            }
            let plan = model.build_plan(&graph);
            for ((block, p), pb) in model.blocks().zip(&plan.weights.blocks) {
                let stored_fwd = geo_terms(&block.phi_fwd.l1, p, &graph, d, 1.0);
                let stored_bwd = geo_terms(&block.phi_bwd.l1, p, &graph, d, -1.0);
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
            block1_cache_matches_live::<f64>(&model, &graph);
            block1_cache_matches_live::<f32>(&model, &graph);
        }
    }

    /// The models of the fixed-width and the run-time-width tests: the
    /// shipped `d = 10` model, whose `2d` is [`FIXED_D2`], and a `d = 6` one,
    /// on a 37-node graph.
    fn shipped_and_d6_models() -> ([DssModel; 2], LocalGraph) {
        let pretrained = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../assets/pretrained_k16_d10.dss");
        let shipped = crate::io::load_model(&pretrained).expect("checked-in pretrained model");
        assert_eq!(2 * shipped.config().latent_dim, FIXED_D2, "the shipped width is the fixed one");
        let other = DssModel::new(DssConfig { num_blocks: 3, latent_dim: 6, alpha: 1e-2 }, 5);
        let positions = (0..37)
            .map(|i| Point2::new((i as f64 * 0.71).sin() * 2.0, (i as f64 * 0.53).cos() * 2.0))
            .collect();
        let graph = graph_on(positions, &[(0, 9), (3, 30), (12, 25), (7, 19), (36, 2)]);
        ([shipped, other], graph)
    }

    #[test]
    fn block1_sums_from_the_plan_have_the_bits_of_the_live_sweep() {
        let (models, graph) = shipped_and_d6_models();
        // The first block alone: a forward pass without any edge sweep.
        let mut one_block = models[0].clone();
        one_block.truncate(1);
        for model in models.iter().chain([&one_block]) {
            block1_cache_matches_live::<f64>(model, &graph);
            block1_cache_matches_live::<f32>(model, &graph);
        }
    }

    /// Block 1 reads `H⁰ = 0` and the geometry only, so a one-block model's
    /// output at a node is a function of that node's input alone: changing
    /// one input of the shipped model's one-block cut leaves every other
    /// output's bits unchanged, in f64 and f32, unbatched and batched.  A
    /// cross-node term in block 1 fails this.
    #[test]
    fn one_block_output_at_a_node_reads_only_its_own_input() {
        fn check<T: Scalar>(model: &DssModel, graph: &LocalGraph) {
            let plan = plan_for::<T>(model, graph, false);
            let n = graph.num_nodes();
            let mut scratch = InferScratch::new();
            for b in [1usize, 3] {
                let input: Vec<f64> =
                    (0..n * b).map(|i| ((i * 7 + b) % 13) as f64 * 0.1 - 0.6).collect();
                let mut base = vec![0.0; n * b];
                plan.infer(&input, b, &mut scratch, &mut base);
                for changed in [0, n * b / 2 + 1, n * b - 1] {
                    let mut perturbed = input.clone();
                    perturbed[changed] += 0.37;
                    let mut out = vec![0.0; n * b];
                    plan.infer(&perturbed, b, &mut scratch, &mut out);
                    assert_ne!(out[changed], base[changed], "b={b} row {changed}");
                    for (row, (x, y)) in base.iter().zip(&out).enumerate() {
                        if row != changed {
                            assert_eq!(x.to_bits(), y.to_bits(), "b={b} {changed} moved {row}");
                        }
                    }
                }
            }
        }
        let (models, graph) = shipped_and_d6_models();
        let mut one_block = models[0].clone();
        one_block.truncate(1);
        check::<f64>(&one_block, &graph);
        check::<f32>(&one_block, &graph);
    }

    /// The compiled copies of `forward::<T>` — baseline, AVX2 + FMA and, with
    /// `avx512`, AVX-512F — on the fixed-width and the run-time-width model,
    /// unbatched and batched.  In f32 the baseline copy computes every
    /// [`Scalar::mul_acc`] with libm's `fmaf` and the AVX2 copy with
    /// `vfmadd`: both round once, so the bits must agree.
    #[cfg(target_arch = "x86_64")]
    fn compiled_bodies_agree<T: Scalar>(avx512: bool) {
        let (models, graph) = shipped_and_d6_models();
        let n = graph.num_nodes();
        for model in &models {
            let plan = plan_for::<T>(model, &graph, false);
            let mut scratch = InferScratch::new();
            for b in [1usize, 3] {
                let input: Vec<f64> =
                    (0..n * b).map(|i| ((i * 7 + b) % 13) as f64 * 0.1 - 0.6).collect();
                let mut outs = vec![vec![0.0; n * b]; if avx512 { 3 } else { 2 }];
                for (body, out) in outs.iter_mut().enumerate() {
                    let (plan, input, scratch) = (&plan, &input[..], &mut scratch);
                    match body {
                        0 => forward(plan, input, b, scratch, out),
                        // SAFETY: the caller detected AVX2 and FMA before
                        // calling this helper.
                        1 => unsafe {
                            on_avx2(
                                #[inline(always)]
                                || forward(plan, input, b, scratch, out),
                            )
                        },
                        // SAFETY: the caller sets `avx512` only after
                        // detecting AVX-512F.
                        _ => unsafe {
                            on_avx512(
                                #[inline(always)]
                                || forward(plan, input, b, scratch, out),
                            )
                        },
                    }
                }
                assert!(outs[0].iter().any(|&v| v != 0.0));
                let d = model.config().latent_dim;
                for (body, out) in outs.iter().enumerate().skip(1) {
                    for (x, y) in outs[0].iter().zip(out) {
                        assert_eq!(x.to_bits(), y.to_bits(), "body {body} d={d} b={b}");
                    }
                }
            }
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn compiled_bodies_agree_bit_for_bit() {
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        if !avx2 || !std::arch::is_x86_feature_detected!("fma") {
            let missing = if avx2 { "fma" } else { "avx2" };
            println!("skipped: this CPU has no {missing}, only the baseline body can run");
            return;
        }
        let avx512 = std::arch::is_x86_feature_detected!("avx512f");
        if !avx512 {
            println!("AVX-512 body skipped: this CPU has no avx512f");
        }
        compiled_bodies_agree::<f64>(avx512);
        compiled_bodies_agree::<f32>(false);
    }

    /// Pins the f32 engine's bits across commits: the f32 and int8 outputs
    /// of the shipped and the `d = 6` model at `b ∈ {1, 3}`, in the copy
    /// `run_widest` picks (all copies have the same bits).  Any change to the
    /// f32 arithmetic that moves one bit — fusing or unfusing a multiply-add,
    /// reordering a sum — moves this hash.
    #[test]
    fn f32_forward_bits_are_pinned() {
        let (models, graph) = shipped_and_d6_models();
        let n = graph.num_nodes();
        let mut outputs = Vec::new();
        for model in &models {
            for int8 in [false, true] {
                let plan = plan_for::<f32>(model, &graph, int8);
                let mut scratch = InferScratch::new();
                for b in [1usize, 3] {
                    let input: Vec<f64> =
                        (0..n * b).map(|i| ((i * 7 + b) % 13) as f64 * 0.1 - 0.6).collect();
                    let mut out = vec![0.0; n * b];
                    plan.infer(&input, b, &mut scratch, &mut out);
                    outputs.extend(out);
                }
            }
        }
        assert_eq!(crate::trainer::tests::hash_f64s(outputs), 0xdc787896554824a4);
    }

    #[test]
    fn f64_plan_owns_only_graph_structure() {
        let positions = (0..9).map(|i| Point2::new(i as f64 * 0.5, (i as f64).sin())).collect();
        let graph = graph_on(positions, &[(0, 4), (2, 7)]);
        let (n, e) = (graph.num_nodes(), graph.num_edges());
        let model = |num_blocks, latent_dim| {
            DssModel::new(DssConfig { num_blocks, latent_dim, alpha: 1e-2 }, 1)
        };
        let (shallow, mut deep) = (model(2, 12), model(9, 12));
        let (p_shallow, p_deep) = (shallow.build_plan(&graph), deep.build_plan(&graph));
        // The graph's shared structure, then block 1's `2d` edge sums per
        // node.
        assert_eq!(p_shallow.memory_bytes(), 28 * e + (4 + 16 * 12) * n);
        assert_eq!(p_deep.memory_bytes(), p_shallow.memory_bytes(), "depth is not in the plan");
        assert_eq!(model(9, 4).build_plan(&graph).memory_bytes(), 28 * e + (4 + 16 * 4) * n);
        assert!(p_deep.shared_weight_bytes() > p_shallow.shared_weight_bytes());
        // The f32 engine: the same f64 structure, the sums in single
        // precision, for either weight format.
        let (f_shallow, f_deep) =
            (plan_for::<f32>(&shallow, &graph, false), plan_for::<f32>(&deep, &graph, false));
        let q_deep = plan_for::<f32>(&deep, &graph, true);
        assert_eq!(f_shallow.memory_bytes(), 28 * e + (4 + 8 * 12) * n);
        assert_eq!(f_deep.memory_bytes(), f_shallow.memory_bytes());
        assert_eq!(2 * f_deep.shared_weight_bytes(), p_deep.shared_weight_bytes());
        assert_eq!(q_deep.memory_bytes(), f_deep.memory_bytes(), "int8 == f32: a weight format");
        assert_eq!(q_deep.shared_weight_bytes(), f_deep.shared_weight_bytes());
        assert!(!Arc::ptr_eq(&q_deep.weights, &f_deep.weights));
        // A plan built on its own packs its own weights, a snapshot of the
        // model: retraining the model afterwards does not reach the plan.
        assert!(!Arc::ptr_eq(&p_deep.weights, &deep.build_plan(&graph).weights));
        let run = |plan: &InferencePlan| {
            let mut out = vec![0.0; n];
            plan.infer(&graph.input, 1, &mut InferScratch::new(), &mut out);
            out
        };
        let before = run(&p_deep);
        deep.params_mut().iter_mut().for_each(|w| *w *= 0.5);
        assert_eq!(run(&p_deep), before);
        assert_ne!(run(&deep.build_plan(&graph)), before);
    }

    #[test]
    fn plans_of_one_call_share_one_pack() {
        let graphs: Vec<LocalGraph> = (3..7)
            .map(|n| graph_on((0..n).map(|i| Point2::new(i as f64, 0.1 * n as f64)).collect(), &[]))
            .collect();
        let model = DssModel::new(DssConfig { num_blocks: 3, latent_dim: 4, alpha: 1e-2 }, 2);
        let (first, second) =
            (model.build_plans::<f64>(&graphs, false), model.build_plans(&graphs, false));
        let single = model.build_plans::<f32>(&graphs, false);
        fn shares_graph<T>(plan: &InferencePlan<T>, graph: &LocalGraph) -> bool {
            Arc::ptr_eq(&plan.edge_geo, &graph.edge_geo)
                && Arc::ptr_eq(&plan.edge_src, &graph.edge_src)
                && Arc::ptr_eq(&plan.in_degree, &graph.in_degree)
        }
        // One pack per call, shared by its plans, which come in graph order;
        // every plan, at either precision, shares its graph's arrays.
        assert_eq!(second.len(), graphs.len());
        for (((graph, a), b), c) in graphs.iter().zip(&first).zip(&second).zip(&single) {
            assert_eq!(a.num_nodes(), graph.num_nodes());
            assert!(Arc::ptr_eq(&a.weights, &first[0].weights));
            assert!(Arc::ptr_eq(&b.weights, &second[0].weights));
            assert!(!Arc::ptr_eq(&a.weights, &b.weights));
            assert!(shares_graph(a, graph) && shares_graph(b, graph) && shares_graph(c, graph));
        }
    }

    #[test]
    fn precision_displays_and_defaults() {
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
        // Dequantised values stay within half a quantisation step, and they
        // are what a pack in the int8 weight format stores.
        let stored: Vec<f32> = gemm_weight(&wt, 3, 2, true);
        for i in 0..3 {
            let deq = q[i * 2] as f64 * scale[0] as f64;
            assert!((deq - wt[i * 2]).abs() <= scale[0] as f64 * 0.5 + 1e-12);
            assert_eq!(stored[i * 2], q[i * 2] as f32 * scale[0]);
            assert_eq!(stored[i * 2 + 1], 0.0);
        }
        assert_eq!(gemm_weight::<f32>(&wt, 3, 2, false), [2.0, 0.0, -1.0, 0.0, 0.5, 0.0]);
    }
}
