//! Cache- and register-blocked batch GEMM micro-kernels.
//!
//! All dense layers in this crate compute `Y = X Wᵀ (+ bias)` on row-major
//! batches: `X` is `n × in_dim`, `W` is `out_dim × in_dim` (one weight row per
//! output), `Y` is `n × out_dim`.  The batch dimension `n` is large (one row
//! per edge or per node of a sub-domain graph) while `in_dim`/`out_dim` are
//! small (the latent dimension `d ≈ 10`), so the kernels panel over the batch:
//! a register tile of 4 × 4 accumulators walks the shared `in_dim` axis once,
//! giving 16 multiply-adds per 8 loads and 16 independent dependency chains
//! for the CPU to overlap (the naive row-by-row GEMV has a single serial add
//! chain per output).  The weight panel stays resident in cache across the
//! whole batch sweep.
//!
//! **Determinism contract:** every output element accumulates its dot product
//! strictly in ascending `i` order starting from its initial value (bias,
//! zero, or the prior `Y` entry).  Blocking only regroups *independent*
//! output elements, so the results are bit-identical to the scalar triple
//! loop these kernels replaced — at every tile shape and every batch size.
//!
//! The row-major kernel serves every `Linear` layer (training, evaluation,
//! the reference forward pass).  The inference engine uses one fused
//! transposed-weight (`in_dim × out_dim`) kernel further down, generic over
//! the [`Scalar`] type: its f64 instantiation is bit-identical to the
//! row-major kernel, its f32 instantiation runs twice the lanes.  A batch
//! of right-hand sides is just more rows of that kernel.

/// Batch rows per register tile.
const MR: usize = 4;
/// Output columns per register tile.
const NR: usize = 4;

/// First `N` elements of a kernel subslice as an array reference.
///
/// The panel loops only take subslices they have already sized to at least
/// one tile, so the length check cannot fail; `unreachable!` states that
/// invariant instead of routing through `try_into().unwrap()`, which the
/// workspace lint forbids on the apply hot path.
#[inline(always)]
fn head<T, const N: usize>(s: &[T]) -> &[T; N] {
    match s.split_first_chunk::<N>() {
        Some((a, _)) => a,
        None => unreachable!("kernel subslice shorter than its tile width"),
    }
}

/// `Y = X Wᵀ + bias` (each output element starts from its bias).
pub(crate) fn gemm_bias_into(
    x: &[f64],
    n: usize,
    in_dim: usize,
    out_dim: usize,
    weight: &[f64],
    bias: &[f64],
    y: &mut [f64],
) {
    debug_assert_eq!(x.len(), n * in_dim);
    debug_assert_eq!(weight.len(), out_dim * in_dim);
    debug_assert_eq!(bias.len(), out_dim);
    debug_assert_eq!(y.len(), n * out_dim);
    let mr_end = n - n % MR;
    let nr_end = out_dim - out_dim % NR;
    let mut r = 0;
    while r < mr_end {
        // Row slices of exactly `in_dim` elements let the bounds checks hoist
        // out of the inner loop.
        let x0 = &x[r * in_dim..][..in_dim];
        let x1 = &x[(r + 1) * in_dim..][..in_dim];
        let x2 = &x[(r + 2) * in_dim..][..in_dim];
        let x3 = &x[(r + 3) * in_dim..][..in_dim];
        let mut o = 0;
        while o < nr_end {
            let w0 = &weight[o * in_dim..][..in_dim];
            let w1 = &weight[(o + 1) * in_dim..][..in_dim];
            let w2 = &weight[(o + 2) * in_dim..][..in_dim];
            let w3 = &weight[(o + 3) * in_dim..][..in_dim];
            let mut a00 = bias[o];
            let mut a01 = bias[o + 1];
            let mut a02 = bias[o + 2];
            let mut a03 = bias[o + 3];
            let mut a10 = bias[o];
            let mut a11 = bias[o + 1];
            let mut a12 = bias[o + 2];
            let mut a13 = bias[o + 3];
            let mut a20 = bias[o];
            let mut a21 = bias[o + 1];
            let mut a22 = bias[o + 2];
            let mut a23 = bias[o + 3];
            let mut a30 = bias[o];
            let mut a31 = bias[o + 1];
            let mut a32 = bias[o + 2];
            let mut a33 = bias[o + 3];
            for i in 0..in_dim {
                let (p0, p1, p2, p3) = (x0[i], x1[i], x2[i], x3[i]);
                let (q0, q1, q2, q3) = (w0[i], w1[i], w2[i], w3[i]);
                a00 += q0 * p0;
                a01 += q1 * p0;
                a02 += q2 * p0;
                a03 += q3 * p0;
                a10 += q0 * p1;
                a11 += q1 * p1;
                a12 += q2 * p1;
                a13 += q3 * p1;
                a20 += q0 * p2;
                a21 += q1 * p2;
                a22 += q2 * p2;
                a23 += q3 * p2;
                a30 += q0 * p3;
                a31 += q1 * p3;
                a32 += q2 * p3;
                a33 += q3 * p3;
            }
            y[r * out_dim + o] = a00;
            y[r * out_dim + o + 1] = a01;
            y[r * out_dim + o + 2] = a02;
            y[r * out_dim + o + 3] = a03;
            y[(r + 1) * out_dim + o] = a10;
            y[(r + 1) * out_dim + o + 1] = a11;
            y[(r + 1) * out_dim + o + 2] = a12;
            y[(r + 1) * out_dim + o + 3] = a13;
            y[(r + 2) * out_dim + o] = a20;
            y[(r + 2) * out_dim + o + 1] = a21;
            y[(r + 2) * out_dim + o + 2] = a22;
            y[(r + 2) * out_dim + o + 3] = a23;
            y[(r + 3) * out_dim + o] = a30;
            y[(r + 3) * out_dim + o + 1] = a31;
            y[(r + 3) * out_dim + o + 2] = a32;
            y[(r + 3) * out_dim + o + 3] = a33;
            o += NR;
        }
        // Remainder outputs: one column across the MR-row panel.
        while o < out_dim {
            let w = &weight[o * in_dim..][..in_dim];
            let mut a0 = bias[o];
            let mut a1 = bias[o];
            let mut a2 = bias[o];
            let mut a3 = bias[o];
            for i in 0..in_dim {
                let q = w[i];
                a0 += q * x0[i];
                a1 += q * x1[i];
                a2 += q * x2[i];
                a3 += q * x3[i];
            }
            y[r * out_dim + o] = a0;
            y[(r + 1) * out_dim + o] = a1;
            y[(r + 2) * out_dim + o] = a2;
            y[(r + 3) * out_dim + o] = a3;
            o += 1;
        }
        r += MR;
    }
    // Remainder rows: plain per-row sweep (same accumulation order).
    while r < n {
        let xr = &x[r * in_dim..][..in_dim];
        for o in 0..out_dim {
            let w = &weight[o * in_dim..][..in_dim];
            let mut acc = bias[o];
            for i in 0..in_dim {
                acc += w[i] * xr[i];
            }
            y[r * out_dim + o] = acc;
        }
        r += 1;
    }
}

// ---------------------------------------------------------------------------
// Transposed-weight kernel (the inference engine, f64 and f32)
// ---------------------------------------------------------------------------
//
// Same arithmetic as [`gemm_bias_into`], different traversal: the weight comes in
// transposed (`in_dim × out_dim`, one contiguous row of output weights per
// input feature), so for every shared-axis step `i` a column tile of outputs
// is one contiguous load and the inner loop is a pure axpy
// `acc[k] += x_i · wt[i][k]` over whole SIMD vectors — no horizontal dot
// product per output.  Each output element still starts from its initial
// value and adds its products strictly in ascending `i` order, one multiply
// and one add per term (Rust never contracts them into an FMA), so the f64
// results are bit-identical to the row-major kernel's, and the
// f32 results differ from them by rounding only.
//
// A call takes a *list* of operands accumulated one after the other into the
// same register tile — `bias + X₀ W₀ᵀ + X₁ W₁ᵀ + …`, each term added in
// turn — and an [`Epilogue`] applied to the finished tile, so a sum of products, its
// ReLU and a scaled update each cost one pass over the output instead of one
// pass per step.
//
// Rows never mix: a row's outputs are the same sequence of operations
// whether it sits in a 4-row register tile or in the single-row remainder.
// The batched forward pass relies on that — it lays the `b` columns of a
// batch out as `b` consecutive rows per node and calls this same kernel on
// `n · b` rows, so every column has the bits of its own unbatched run.
//
// The kernel is `#[inline(always)]`: the forward pass is compiled twice per
// scalar type (baseline and AVX2, see `plan::InferencePlan`) and the kernel
// must be instantiated inside each copy to pick up its target features.

/// Scalar type of the inference engine: `f64`, the bit-reproducible anchor,
/// or `f32`.  Sealed — the engine is compiled for exactly these two.
pub trait Scalar:
    crate::model::sealed::PackSlot
    + Copy
    + Default
    + PartialEq
    + std::fmt::Debug
    + Send
    + Sync
    + 'static
    + std::ops::Add<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::AddAssign
{
    /// Additive identity.
    const ZERO: Self;
    /// Column tile of the fused GEMM in elements, two 256-bit vectors, used
    /// while at least 16 outputs remain (narrower rests are one exact tile).
    const TILE: usize;
    /// Round a double to this type (the identity for `f64`).
    fn from_f64(v: f64) -> Self;
    /// Widen to a double (exact).
    fn to_f64(self) -> f64;
    /// `max(self, 0)`.
    fn relu(self) -> Self;
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const TILE: usize = 8;
    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn relu(self) -> Self {
        self.max(0.0)
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const TILE: usize = 16;
    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn relu(self) -> Self {
        self.max(0.0)
    }
}

/// One `X Wᵀ` term of a fused transposed-weight GEMM: `x` is the row-major
/// `n × in_dim` activation, `wt` its transposed `in_dim × out_dim` weight.
#[derive(Clone, Copy)]
pub(crate) struct Operand<'a, T> {
    pub x: &'a [T],
    pub in_dim: usize,
    pub wt: &'a [T],
}

/// What a fused GEMM does with each finished accumulator `a`.
#[derive(Clone, Copy)]
pub(crate) enum Epilogue<T> {
    /// `y = a`
    Store,
    /// `y = max(a, 0)`
    Relu,
    /// `y += s · a`
    AddScaled(T),
}

impl<T: Scalar> Epilogue<T> {
    #[inline(always)]
    fn apply(self, y: &mut [T], acc: &[T]) {
        match self {
            Epilogue::Store => y.copy_from_slice(acc),
            Epilogue::Relu => {
                for (y, a) in y.iter_mut().zip(acc) {
                    *y = a.relu();
                }
            }
            Epilogue::AddScaled(s) => {
                for (y, a) in y.iter_mut().zip(acc) {
                    *y += s * *a;
                }
            }
        }
    }
}

/// `Y = epilogue(bias + Σₛ Xₛ Wₛᵀ)` over `n` rows with transposed weights;
/// outputs start from zero when `bias` is empty.
#[inline(always)]
pub(crate) fn gemm_t<T: Scalar, const S: usize>(
    ops: [Operand<'_, T>; S],
    n: usize,
    out_dim: usize,
    bias: &[T],
    epilogue: Epilogue<T>,
    y: &mut [T],
) {
    for op in &ops {
        debug_assert_eq!(op.x.len(), n * op.in_dim);
        debug_assert_eq!(op.wt.len(), op.in_dim * out_dim);
    }
    debug_assert!(bias.is_empty() || bias.len() == out_dim);
    debug_assert_eq!(y.len(), n * out_dim);
    let mut r = 0;
    while r + MR <= n {
        gemm_t_rows::<T, MR, S>(&ops, r, out_dim, bias, epilogue, y);
        r += MR;
    }
    while r < n {
        gemm_t_rows::<T, 1, S>(&ops, r, out_dim, bias, epilogue, y);
        r += 1;
    }
}

/// Rows `[r, r + R)` of [`gemm_t`]: column tiles of [`Scalar::TILE`] outputs
/// while at least 16 outputs remain, then the rest of the row — 0 to 15
/// outputs — as **one** tile of its exact width (f64: `4d = 40` is 5 × 8,
/// `2d = 20` is 8 + 12, `d = 10` one tile of 10; f32: 16 + 16 + 8, 16 + 4
/// and one tile of 10).  A tile's accumulators are its independent add
/// chains, and a chain advances once per add latency: cutting a 10-wide tail
/// into 8 + 2 would run a second pass of too few chains to cover the adder's
/// latency, where the single pass keeps all ten in flight.
#[inline(always)]
fn gemm_t_rows<T: Scalar, const R: usize, const S: usize>(
    ops: &[Operand<'_, T>; S],
    r: usize,
    out_dim: usize,
    bias: &[T],
    epilogue: Epilogue<T>,
    y: &mut [T],
) {
    let mut o = 0;
    while o + 16 <= out_dim {
        if T::TILE == 16 {
            gemm_t_tile::<T, R, 16, S>(ops, r, o, out_dim, bias, epilogue, y);
        } else {
            gemm_t_tile::<T, R, 8, S>(ops, r, o, out_dim, bias, epilogue, y);
        }
        o += T::TILE;
    }
    macro_rules! tail {
        ($($w:literal)+) => {
            match out_dim - o {
                0 => {}
                $($w => gemm_t_tile::<T, R, $w, S>(ops, r, o, out_dim, bias, epilogue, y),)+
                _ => unreachable!("the tail is narrower than 16"),
            }
        };
    }
    tail!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);
}

/// One `R`-row × `W`-column register tile of [`gemm_t`].
#[inline(always)]
fn gemm_t_tile<T: Scalar, const R: usize, const W: usize, const S: usize>(
    ops: &[Operand<'_, T>; S],
    r: usize,
    o: usize,
    out_dim: usize,
    bias: &[T],
    epilogue: Epilogue<T>,
    y: &mut [T],
) {
    assert!(o + W <= out_dim);
    let init: [T; W] = if bias.is_empty() { [T::ZERO; W] } else { *head(&bias[o..]) };
    let mut acc = [init; R];
    for op in ops {
        // Row slices of exactly `in_dim` elements and weight rows of exactly
        // `out_dim` keep every bounds check out of the inner loop.
        let xs: [&[T]; R] = std::array::from_fn(|q| &op.x[(r + q) * op.in_dim..][..op.in_dim]);
        for (i, wrow) in (0..op.in_dim).zip(op.wt.chunks_exact(out_dim)) {
            let w: &[T; W] = head(&wrow[o..]);
            for q in 0..R {
                let s = xs[q][i];
                for k in 0..W {
                    acc[q][k] += s * w[k];
                }
            }
        }
    }
    for q in 0..R {
        epilogue.apply(&mut y[(r + q) * out_dim + o..][..W], &acc[q]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    #[allow(clippy::too_many_arguments)]
    fn naive(
        x: &[f64],
        n: usize,
        in_dim: usize,
        out_dim: usize,
        weight: &[f64],
        bias: &[f64],
        y0: &[f64],
        acc: bool,
    ) -> Vec<f64> {
        let mut y = vec![0.0; n * out_dim];
        for r in 0..n {
            for o in 0..out_dim {
                let mut a = if acc {
                    y0[r * out_dim + o]
                } else if bias.is_empty() {
                    0.0
                } else {
                    bias[o]
                };
                for i in 0..in_dim {
                    a += weight[o * in_dim + i] * x[r * in_dim + i];
                }
                y[r * out_dim + o] = a;
            }
        }
        y
    }

    #[test]
    fn blocked_matches_naive_bit_for_bit_across_shapes() {
        let mut rng = StdRng::seed_from_u64(42);
        // Cover every tile-remainder combination: n and out_dim spanning 0..2
        // full tiles plus partials, in_dim from empty to odd sizes.
        for &n in &[0usize, 1, 2, 3, 4, 5, 7, 8, 9, 16, 23] {
            for &out_dim in &[1usize, 2, 3, 4, 5, 8, 10, 13] {
                for &in_dim in &[0usize, 1, 3, 10, 23, 31] {
                    let x: Vec<f64> = (0..n * in_dim).map(|_| rng.gen_range(-2.0..2.0)).collect();
                    let w: Vec<f64> =
                        (0..out_dim * in_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    let b: Vec<f64> = (0..out_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();

                    let mut y = vec![0.0; n * out_dim];
                    gemm_bias_into(&x, n, in_dim, out_dim, &w, &b, &mut y);
                    assert_eq!(y, naive(&x, n, in_dim, out_dim, &w, &b, &[], false));
                }
            }
        }
    }

    #[test]
    fn accumulate_composes_with_bias_init() {
        // The fused two-operand sum the plan path relies on (Ψ pre-activation
        // = c-term + Σ GEMM terms) equals bias-init followed by accumulation.
        let n = 6;
        let (din, dout) = (5, 4);
        let mut rng = StdRng::seed_from_u64(7);
        let xa: Vec<f64> = (0..n * din).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let xb: Vec<f64> = (0..n * din).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let wa: Vec<f64> = (0..dout * din).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let wb: Vec<f64> = (0..dout * din).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let bias: Vec<f64> = (0..dout).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let (wat, wbt) = (transposed(&wa, dout, din), transposed(&wb, dout, din));
        let ops =
            [Operand { x: &xa, in_dim: din, wt: &wat }, Operand { x: &xb, in_dim: din, wt: &wbt }];
        let mut y = vec![0.0; n * dout];
        gemm_t(ops, n, dout, &bias, Epilogue::Store, &mut y);
        let first = naive(&xa, n, din, dout, &wa, &bias, &[], false);
        let both = naive(&xb, n, din, dout, &wb, &[], &first, true);
        assert_eq!(y, both);
    }

    /// Transpose a row-major `out × in` weight into the `in × out` layout.
    fn transposed(w: &[f64], out_dim: usize, in_dim: usize) -> Vec<f64> {
        let mut wt = vec![0.0; w.len()];
        for o in 0..out_dim {
            for i in 0..in_dim {
                wt[i * out_dim + o] = w[o * in_dim + i];
            }
        }
        wt
    }

    #[test]
    fn transposed_f64_matches_row_major_chain_bit_for_bit_across_shapes() {
        // `bias + X₀W₀ᵀ + X₁W₁ᵀ` through the fused transposed kernel must
        // have the bits of the row-major scalar loop, bias-initialised then
        // accumulating, over every row/column tile remainder; the epilogues
        // must equal the separate passes they replace.
        let mut rng = StdRng::seed_from_u64(43);
        for &n in &[0usize, 1, 3, 4, 5, 8, 9, 23] {
            for &out_dim in &[1usize, 2, 3, 4, 5, 8, 10, 13, 15, 16, 20, 23, 24, 40] {
                for &(in_a, in_b) in &[(0usize, 1usize), (2, 10), (10, 20), (7, 3)] {
                    let xa: Vec<f64> = (0..n * in_a).map(|_| rng.gen_range(-2.0..2.0)).collect();
                    let xb: Vec<f64> = (0..n * in_b).map(|_| rng.gen_range(-2.0..2.0)).collect();
                    let wa: Vec<f64> =
                        (0..out_dim * in_a).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    let wb: Vec<f64> =
                        (0..out_dim * in_b).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    let bias: Vec<f64> = (0..out_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    let (wat, wbt) =
                        (transposed(&wa, out_dim, in_a), transposed(&wb, out_dim, in_b));
                    let ops = [
                        Operand { x: &xa, in_dim: in_a, wt: &wat },
                        Operand { x: &xb, in_dim: in_b, wt: &wbt },
                    ];

                    let first = naive(&xa, n, in_a, out_dim, &wa, &bias, &[], false);
                    let expected = naive(&xb, n, in_b, out_dim, &wb, &[], &first, true);
                    let mut y = vec![f64::NAN; n * out_dim];
                    gemm_t(ops, n, out_dim, &bias, Epilogue::Store, &mut y);
                    assert_eq!(y, expected, "n={n} out={out_dim} in=({in_a},{in_b})");

                    gemm_t(ops, n, out_dim, &bias, Epilogue::Relu, &mut y);
                    let relu: Vec<f64> = expected.iter().map(|v| v.max(0.0)).collect();
                    assert_eq!(y, relu);

                    let y0: Vec<f64> = (0..n * out_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    let mut y = y0.clone();
                    gemm_t(ops, n, out_dim, &bias, Epilogue::AddScaled(1e-3), &mut y);
                    let stepped: Vec<f64> =
                        y0.iter().zip(&expected).map(|(h, u)| h + 1e-3 * u).collect();
                    assert_eq!(y, stepped);

                    // No bias: outputs start from zero.
                    let expected = naive(&xa, n, in_a, out_dim, &wa, &[], &[], false);
                    let mut y = vec![f64::NAN; n * out_dim];
                    gemm_t([ops[0]], n, out_dim, &[], Epilogue::Store, &mut y);
                    assert_eq!(y, expected);
                }
            }
        }
    }

    /// Scalar reference of the transposed kernel in single precision.
    fn naive_f32(
        x: &[f32],
        n: usize,
        in_dim: usize,
        out_dim: usize,
        wt: &[f32],
        bias: &[f32],
    ) -> Vec<f32> {
        let mut y = vec![0.0f32; n * out_dim];
        for r in 0..n {
            for o in 0..out_dim {
                let mut a = if bias.is_empty() { 0.0 } else { bias[o] };
                for i in 0..in_dim {
                    a += wt[i * out_dim + o] * x[r * in_dim + i];
                }
                y[r * out_dim + o] = a;
            }
        }
        y
    }

    #[test]
    fn f32_panel_matches_naive_bit_for_bit_across_shapes() {
        let mut rng = StdRng::seed_from_u64(17);
        // Span full/partial 4-row panels and every column tile of the f32
        // instantiation (16, 8, 4, 2, 1).
        for &n in &[0usize, 1, 3, 4, 5, 8, 9, 17] {
            for &out_dim in &[1usize, 2, 7, 8, 9, 10, 16, 19, 20, 37] {
                for &in_dim in &[0usize, 1, 3, 10, 23] {
                    let x: Vec<f32> =
                        (0..n * in_dim).map(|_| rng.gen_range(-2.0..2.0) as f32).collect();
                    let wt: Vec<f32> =
                        (0..in_dim * out_dim).map(|_| rng.gen_range(-1.0..1.0) as f32).collect();
                    let b: Vec<f32> =
                        (0..out_dim).map(|_| rng.gen_range(-1.0..1.0) as f32).collect();
                    let ops = [Operand { x: &x[..], in_dim, wt: &wt[..] }];

                    let with_bias = naive_f32(&x, n, in_dim, out_dim, &wt, &b);
                    let mut y = vec![f32::NAN; n * out_dim];
                    gemm_t(ops, n, out_dim, &b, Epilogue::Store, &mut y);
                    assert_eq!(y, with_bias, "n={n} out={out_dim} in={in_dim}");

                    gemm_t(ops, n, out_dim, &[], Epilogue::Relu, &mut y);
                    let relu: Vec<f32> = naive_f32(&x, n, in_dim, out_dim, &wt, &[])
                        .iter()
                        .map(|v| v.max(0.0))
                        .collect();
                    assert_eq!(y, relu);

                    let y0: Vec<f32> =
                        (0..n * out_dim).map(|_| rng.gen_range(-1.0..1.0) as f32).collect();
                    let mut y = y0.clone();
                    gemm_t(ops, n, out_dim, &b, Epilogue::AddScaled(0.25), &mut y);
                    let stepped: Vec<f32> =
                        y0.iter().zip(&with_bias).map(|(h, u)| h + 0.25 * u).collect();
                    assert_eq!(y, stepped);
                }
            }
        }
    }

    #[test]
    fn f32_kernel_tracks_f64_kernel_closely() {
        // The f32 instantiation must agree with the f64 one to single
        // precision: same body, different rounding.
        let mut rng = StdRng::seed_from_u64(29);
        let (n, in_dim, out_dim) = (13, 10, 10);
        let x: Vec<f64> = (0..n * in_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let wt: Vec<f64> = (0..in_dim * out_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f64> = (0..out_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut y64 = vec![0.0; n * out_dim];
        gemm_t(
            [Operand { x: &x[..], in_dim, wt: &wt[..] }],
            n,
            out_dim,
            &b,
            Epilogue::Store,
            &mut y64,
        );

        let round = |v: &[f64]| -> Vec<f32> { v.iter().map(|&v| v as f32).collect() };
        let (x32, wt32, b32) = (round(&x), round(&wt), round(&b));
        let mut y32 = vec![0.0f32; n * out_dim];
        let ops = [Operand { x: &x32[..], in_dim, wt: &wt32[..] }];
        gemm_t(ops, n, out_dim, &b32, Epilogue::Store, &mut y32);
        for (a, b) in y32.iter().zip(y64.iter()) {
            assert!((*a as f64 - b).abs() < 1e-5, "f32 {a} vs f64 {b}");
        }
    }

    #[test]
    fn i8_kernel_tracks_f32_kernel_within_quantisation_error() {
        // Int8 is a weight-storage format of the f32 engine: round a weight
        // per output column with `quantise_cols_i8`, store it dequantised,
        // and the f32 kernel stays within the quantisation error of the
        // exact product.
        let mut rng = StdRng::seed_from_u64(61);
        let (n, in_dim, out_dim) = (13, 10, 10);
        let x: Vec<f32> = (0..n * in_dim).map(|_| rng.gen_range(-1.0..1.0) as f32).collect();
        let wt: Vec<f64> = (0..in_dim * out_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let (q, scale) = crate::plan::quantise_cols_i8(&wt, in_dim, out_dim);
        let exact_w: Vec<f32> = wt.iter().map(|&w| w as f32).collect();
        let stored_w: Vec<f32> =
            q.iter().enumerate().map(|(e, &q)| q as f32 * scale[e % out_dim]).collect();
        let mut exact = vec![0.0f32; n * out_dim];
        let mut quant = vec![0.0f32; n * out_dim];
        let on = |wt| [Operand { x: &x[..], in_dim, wt }];
        gemm_t(on(&exact_w[..]), n, out_dim, &[], Epilogue::Store, &mut exact);
        gemm_t(on(&stored_w[..]), n, out_dim, &[], Epilogue::Store, &mut quant);
        // Worst case per output: in_dim · (scale/2) · max|x|.
        for (r, (q, e)) in quant.iter().zip(exact.iter()).enumerate() {
            let bound = in_dim as f32 * scale[r % out_dim] * 0.5 + 1e-6;
            assert!((q - e).abs() <= bound, "int8 {q} vs f32 {e} (bound {bound})");
        }
        assert_ne!(quant, exact, "the stored weight really is rounded");
    }

    /// Lay `b` column matrices (each `rows × dim`) out the way the batched
    /// forward pass does: row `j·b + c` of the result is row `j` of column `c`.
    fn columns_as_rows<T: Copy>(cols: &[Vec<T>], dim: usize) -> Vec<T> {
        let rows = cols[0].len() / dim.max(1);
        let mut out = Vec::with_capacity(cols.len() * cols[0].len());
        for j in 0..rows {
            for col in cols {
                out.extend_from_slice(&col[j * dim..(j + 1) * dim]);
            }
        }
        out
    }

    /// Two chained operands, every epilogue: running the kernel on the `b`
    /// columns laid out as `n · b` rows must give every column the bits of
    /// its own `n`-row run, although the rows land in different register
    /// tiles and remainders.
    fn batch_rows_are_bit_identical_to_unbatched<T: Scalar>(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for &b in &[1usize, 2, 3, 5, 8, 11] {
            for &(n, in_a, in_b, out_dim) in &[
                (1usize, 10usize, 20usize, 10usize),
                (5, 10, 2, 20),
                (9, 20, 10, 1),
                (23, 7, 3, 5),
                (6, 9, 4, 37),
            ] {
                let mut cols = |dim: usize| -> Vec<Vec<T>> {
                    (0..b)
                        .map(|_| {
                            (0..n * dim).map(|_| T::from_f64(rng.gen_range(-2.0..2.0))).collect()
                        })
                        .collect()
                };
                let (xa, xb, y0s) = (cols(in_a), cols(in_b), cols(out_dim));
                let mut weights = |len: usize| -> Vec<T> {
                    (0..len).map(|_| T::from_f64(rng.gen_range(-1.0..1.0))).collect()
                };
                let (wa, wb, bias) =
                    (weights(in_a * out_dim), weights(in_b * out_dim), weights(out_dim));
                let (xar, xbr) = (columns_as_rows(&xa, in_a), columns_as_rows(&xb, in_b));
                let epilogues =
                    [Epilogue::Store, Epilogue::Relu, Epilogue::AddScaled(T::from_f64(0.37))];
                for epilogue in epilogues {
                    for bias in [&bias[..], &[]] {
                        let mut yr = columns_as_rows(&y0s, out_dim);
                        let ops = [
                            Operand { x: &xar[..], in_dim: in_a, wt: &wa[..] },
                            Operand { x: &xbr[..], in_dim: in_b, wt: &wb[..] },
                        ];
                        gemm_t(ops, n * b, out_dim, bias, epilogue, &mut yr);
                        let mut expected = y0s.clone();
                        for (c, y) in expected.iter_mut().enumerate() {
                            let ops = [
                                Operand { x: &xa[c][..], in_dim: in_a, wt: &wa[..] },
                                Operand { x: &xb[c][..], in_dim: in_b, wt: &wb[..] },
                            ];
                            gemm_t(ops, n, out_dim, bias, epilogue, y);
                        }
                        assert!(yr == columns_as_rows(&expected, out_dim), "b={b} n={n}");
                    }
                }
            }
        }
    }

    #[test]
    fn batched_f64_columns_bit_identical_to_unbatched() {
        batch_rows_are_bit_identical_to_unbatched::<f64>(91);
    }

    #[test]
    fn batched_f32_columns_bit_identical_to_unbatched() {
        batch_rows_are_bit_identical_to_unbatched::<f32>(92);
    }
}
