//! Linear layers and two-layer MLPs with hand-derived reverse-mode gradients.
//!
//! Every neural component of the DSS model (message functions `Φ→`, `Φ←`, the
//! update `Ψ` and the decoders `D`) is a two-layer perceptron with one ReLU
//! hidden layer whose width equals the latent dimension `d` — that choice
//! reproduces the paper's reported weight counts exactly.
//!
//! The layers operate on row-major batches: an input of `n` rows of `in_dim`
//! features is a `&[f64]` of length `n * in_dim`.

use rand::prelude::*;

use crate::gemm::{gemm_t, Epilogue, Operand};
use crate::plan::transpose;

/// A dense affine layer `y = W x + b`.
#[derive(Debug, Clone)]
pub(crate) struct Linear {
    /// Input dimension.
    pub(crate) in_dim: usize,
    /// Output dimension.
    pub(crate) out_dim: usize,
    /// Weights, row-major `out_dim × in_dim`.
    pub(crate) weight: Vec<f64>,
    /// Bias, length `out_dim`.
    pub(crate) bias: Vec<f64>,
}

impl Linear {
    /// Xavier/Glorot-uniform initialised layer (the paper's initialisation).
    pub(crate) fn xavier(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        let limit = (6.0 / (in_dim + out_dim) as f64).sqrt();
        let weight = (0..in_dim * out_dim).map(|_| rng.gen_range(-limit..limit)).collect();
        let bias = vec![0.0; out_dim];
        Linear { in_dim, out_dim, weight, bias }
    }

    /// Zero-initialised layer (used as a gradient container).
    pub(crate) fn zeros(in_dim: usize, out_dim: usize) -> Self {
        Linear { in_dim, out_dim, weight: vec![0.0; in_dim * out_dim], bias: vec![0.0; out_dim] }
    }

    /// Number of trainable parameters.
    pub(crate) fn num_params(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    /// Forward pass on a batch of `n` rows.
    ///
    /// Runs the inference engine's f64 GEMM on the weight transposed per
    /// call: each output starts from its bias and adds `w·x` in ascending
    /// input order, the bits of the scalar triple loop.
    pub(crate) fn forward(&self, x: &[f64], n: usize) -> Vec<f64> {
        debug_assert_eq!(x.len(), n * self.in_dim);
        let wt = transpose(&self.weight, self.out_dim, self.in_dim);
        let mut y = vec![0.0; n * self.out_dim];
        let op = Operand { x, in_dim: self.in_dim, wt: &wt };
        gemm_t([op], n, self.out_dim, &self.bias, Epilogue::Store, &mut y);
        y
    }

    /// Backward pass: given the forward input `x` and `dL/dy`, accumulate
    /// parameter gradients into `grad` and return `dL/dx`.
    pub(crate) fn backward(&self, x: &[f64], dy: &[f64], n: usize, grad: &mut Linear) -> Vec<f64> {
        debug_assert_eq!(x.len(), n * self.in_dim);
        debug_assert_eq!(dy.len(), n * self.out_dim);
        debug_assert_eq!(grad.in_dim, self.in_dim);
        debug_assert_eq!(grad.out_dim, self.out_dim);
        let mut dx = vec![0.0; n * self.in_dim];
        for r in 0..n {
            let xin = &x[r * self.in_dim..(r + 1) * self.in_dim];
            let dyr = &dy[r * self.out_dim..(r + 1) * self.out_dim];
            let dxr = &mut dx[r * self.in_dim..(r + 1) * self.in_dim];
            for o in 0..self.out_dim {
                let g = dyr[o];
                if g == 0.0 {
                    continue;
                }
                grad.bias[o] += g;
                let wrow = &self.weight[o * self.in_dim..(o + 1) * self.in_dim];
                let gwrow = &mut grad.weight[o * self.in_dim..(o + 1) * self.in_dim];
                for i in 0..self.in_dim {
                    gwrow[i] += g * xin[i];
                    dxr[i] += g * wrow[i];
                }
            }
        }
        dx
    }

    /// Append all parameters to a flat vector (weights then bias).
    pub(crate) fn append_params(&self, out: &mut Vec<f64>) {
        out.extend_from_slice(&self.weight);
        out.extend_from_slice(&self.bias);
    }

    /// Read parameters back from a flat vector starting at `*offset`.
    pub(crate) fn read_params(&mut self, data: &[f64], offset: &mut usize) {
        let w = self.weight.len();
        self.weight.copy_from_slice(&data[*offset..*offset + w]);
        *offset += w;
        let b = self.bias.len();
        self.bias.copy_from_slice(&data[*offset..*offset + b]);
        *offset += b;
    }
}

/// Element-wise ReLU forward.
pub(crate) fn relu(x: &[f64]) -> Vec<f64> {
    x.iter().map(|&v| v.max(0.0)).collect()
}

/// ReLU backward: `dL/dx = dL/dy ⊙ 1[x > 0]`.
pub(crate) fn relu_backward(x_pre: &[f64], dy: &[f64]) -> Vec<f64> {
    x_pre.iter().zip(dy.iter()).map(|(&x, &g)| if x > 0.0 { g } else { 0.0 }).collect()
}

/// A two-layer perceptron `y = W₂ relu(W₁ x + b₁) + b₂`.
#[derive(Debug, Clone)]
pub(crate) struct Mlp {
    /// First (hidden) layer.
    pub(crate) l1: Linear,
    /// Output layer.
    pub(crate) l2: Linear,
}

/// Forward cache of an MLP: the hidden pre-activation batch.
pub(crate) struct MlpCache {
    hidden_pre: Vec<f64>,
}

impl Mlp {
    /// Xavier-initialised MLP with one hidden layer of width `hidden`.
    pub(crate) fn xavier(in_dim: usize, hidden: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Mlp { l1: Linear::xavier(in_dim, hidden, rng), l2: Linear::xavier(hidden, out_dim, rng) }
    }

    /// Zero MLP with the same shape as `other` (gradient container).
    pub(crate) fn zeros_like(other: &Mlp) -> Self {
        Mlp {
            l1: Linear::zeros(other.l1.in_dim, other.l1.out_dim),
            l2: Linear::zeros(other.l2.in_dim, other.l2.out_dim),
        }
    }

    /// Number of trainable parameters.
    pub(crate) fn num_params(&self) -> usize {
        self.l1.num_params() + self.l2.num_params()
    }

    /// Forward pass on `n` rows.
    pub(crate) fn forward(&self, x: &[f64], n: usize) -> Vec<f64> {
        let hidden_pre = self.l1.forward(x, n);
        let hidden = relu(&hidden_pre);
        self.l2.forward(&hidden, n)
    }

    /// Forward pass that also returns the cache needed for backprop.
    pub(crate) fn forward_cached(&self, x: &[f64], n: usize) -> (Vec<f64>, MlpCache) {
        let hidden_pre = self.l1.forward(x, n);
        let hidden = relu(&hidden_pre);
        let y = self.l2.forward(&hidden, n);
        (y, MlpCache { hidden_pre })
    }

    /// Backward pass: accumulate parameter gradients into `grad` and return
    /// `dL/dx`.
    pub(crate) fn backward(
        &self,
        x: &[f64],
        cache: &MlpCache,
        dy: &[f64],
        n: usize,
        grad: &mut Mlp,
    ) -> Vec<f64> {
        let hidden = relu(&cache.hidden_pre);
        let dhidden = self.l2.backward(&hidden, dy, n, &mut grad.l2);
        let dhidden_pre = relu_backward(&cache.hidden_pre, &dhidden);
        self.l1.backward(x, &dhidden_pre, n, &mut grad.l1)
    }

    /// Append parameters (l1 then l2) to a flat vector.
    pub(crate) fn append_params(&self, out: &mut Vec<f64>) {
        self.l1.append_params(out);
        self.l2.append_params(out);
    }

    /// Read parameters back from a flat vector.
    pub(crate) fn read_params(&mut self, data: &[f64], offset: &mut usize) {
        self.l1.read_params(data, offset);
        self.l2.read_params(data, offset);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn finite_difference_check(
        forward: &dyn Fn(&[f64]) -> f64,
        params: &[f64],
        analytic: &[f64],
        eps: f64,
        tol: f64,
    ) {
        for i in 0..params.len() {
            let mut plus = params.to_vec();
            plus[i] += eps;
            let mut minus = params.to_vec();
            minus[i] -= eps;
            let numeric = (forward(&plus) - forward(&minus)) / (2.0 * eps);
            let diff = (numeric - analytic[i]).abs();
            let scale = numeric.abs().max(analytic[i].abs()).max(1.0);
            assert!(
                diff / scale < tol,
                "gradient mismatch at {i}: numeric {numeric}, analytic {}",
                analytic[i]
            );
        }
    }

    #[test]
    fn linear_forward_known_values() {
        let mut layer = Linear::zeros(2, 2);
        layer.weight = vec![1.0, 2.0, 3.0, 4.0];
        layer.bias = vec![0.5, -0.5];
        let y = layer.forward(&[1.0, 1.0, 2.0, 0.0], 2);
        assert_eq!(y, vec![3.5, 6.5, 2.5, 5.5]);
        assert_eq!(layer.num_params(), 6);
    }

    #[test]
    fn relu_and_backward() {
        let x = vec![-1.0, 0.0, 2.0];
        assert_eq!(relu(&x), vec![0.0, 0.0, 2.0]);
        assert_eq!(relu_backward(&x, &[1.0, 1.0, 1.0]), vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn linear_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Linear::xavier(3, 2, &mut rng);
        let x: Vec<f64> = (0..6).map(|i| (i as f64) * 0.3 - 0.5).collect(); // 2 rows
                                                                            // Scalar loss: sum of squares of outputs.
        let loss_for = |params: &[f64]| {
            let mut l = layer.clone();
            let mut off = 0;
            l.read_params(params, &mut off);
            let y = l.forward(&x, 2);
            y.iter().map(|v| v * v).sum::<f64>()
        };
        let mut params = Vec::new();
        layer.append_params(&mut params);
        // Analytic gradient.
        let y = layer.forward(&x, 2);
        let dy: Vec<f64> = y.iter().map(|v| 2.0 * v).collect();
        let mut grad = Linear::zeros(3, 2);
        let _dx = layer.backward(&x, &dy, 2, &mut grad);
        let mut analytic = Vec::new();
        grad.append_params(&mut analytic);
        finite_difference_check(&loss_for, &params, &analytic, 1e-6, 1e-5);
    }

    #[test]
    fn linear_input_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(2);
        let layer = Linear::xavier(3, 2, &mut rng);
        let x: Vec<f64> = vec![0.1, -0.2, 0.4];
        let loss_for_x = |xv: &[f64]| {
            let y = layer.forward(xv, 1);
            y.iter().map(|v| v * v).sum::<f64>()
        };
        let y = layer.forward(&x, 1);
        let dy: Vec<f64> = y.iter().map(|v| 2.0 * v).collect();
        let mut grad = Linear::zeros(3, 2);
        let dx = layer.backward(&x, &dy, 1, &mut grad);
        finite_difference_check(&loss_for_x, &x, &dx, 1e-6, 1e-6);
    }

    #[test]
    fn mlp_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let mlp = Mlp::xavier(4, 5, 3, &mut rng);
        assert_eq!(mlp.l1.in_dim, 4);
        assert_eq!(mlp.l2.out_dim, 3);
        assert_eq!(mlp.num_params(), 4 * 5 + 5 + 5 * 3 + 3);
        let x: Vec<f64> = (0..8).map(|i| ((i * 7 % 5) as f64) * 0.2 - 0.4).collect(); // 2 rows
        let loss_for = |params: &[f64]| {
            let mut m = mlp.clone();
            let mut off = 0;
            m.read_params(params, &mut off);
            let y = m.forward(&x, 2);
            y.iter().enumerate().map(|(i, v)| (i as f64 + 1.0) * v * v).sum::<f64>()
        };
        let mut params = Vec::new();
        mlp.append_params(&mut params);
        let (y, cache) = mlp.forward_cached(&x, 2);
        let dy: Vec<f64> = y.iter().enumerate().map(|(i, v)| 2.0 * (i as f64 + 1.0) * v).collect();
        let mut grad = Mlp::zeros_like(&mlp);
        let dx = mlp.backward(&x, &cache, &dy, 2, &mut grad);
        let mut analytic = Vec::new();
        grad.append_params(&mut analytic);
        finite_difference_check(&loss_for, &params, &analytic, 1e-6, 1e-4);

        // Also check the input gradient.
        let loss_for_x = |xv: &[f64]| {
            let y = mlp.forward(xv, 2);
            y.iter().enumerate().map(|(i, v)| (i as f64 + 1.0) * v * v).sum::<f64>()
        };
        finite_difference_check(&loss_for_x, &x, &dx, 1e-6, 1e-4);
    }

    #[test]
    fn params_roundtrip() {
        let mut rng = StdRng::seed_from_u64(4);
        let mlp = Mlp::xavier(3, 4, 2, &mut rng);
        let mut flat = Vec::new();
        mlp.append_params(&mut flat);
        let mut copy = Mlp::zeros_like(&mlp);
        let mut off = 0;
        copy.read_params(&flat, &mut off);
        assert_eq!(off, flat.len());
        let x = vec![0.3, -0.1, 0.7];
        assert_eq!(mlp.forward(&x, 1), copy.forward(&x, 1));
    }

    #[test]
    fn xavier_initialization_is_bounded_and_nonzero() {
        let mut rng = StdRng::seed_from_u64(5);
        let layer = Linear::xavier(10, 10, &mut rng);
        let limit = (6.0 / 20.0_f64).sqrt();
        assert!(layer.weight.iter().all(|w| w.abs() <= limit));
        assert!(layer.weight.iter().any(|&w| w != 0.0));
        assert!(layer.bias.iter().all(|&b| b == 0.0));
    }
}
