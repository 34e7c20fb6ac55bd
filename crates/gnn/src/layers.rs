//! Linear layers and two-layer MLPs with hand-derived reverse-mode gradients.
//!
//! A layer holds no weights: it is a position in a model's parameter vector
//! (see [`crate::model`]) — its row-major `out × in` weight, then its bias —
//! and reads the vector it is given.  A gradient vector has the same layout,
//! so the same positions address it: a backward pass accumulates into it.
//!
//! Every neural component of the DSS model (message functions `Φ→`, `Φ←`, the
//! update `Ψ` and the decoders `D`) is a two-layer perceptron with one ReLU
//! hidden layer whose width equals the latent dimension `d` — that choice
//! reproduces the paper's reported weight counts exactly.
//!
//! The layers operate on row-major batches: an input of `n` rows of `in_dim`
//! features is a `&[f64]` of length `n * in_dim`.

use crate::gemm::{gemm_t, Epilogue, Operand};
use crate::plan::transpose;

/// A dense affine layer `y = W x + b`: where its weight (row-major
/// `out_dim × in_dim`) and then its bias (length `out_dim`) sit in a
/// parameter vector.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Linear {
    /// Position of the first weight.
    offset: usize,
    /// Input dimension.
    pub(crate) in_dim: usize,
    /// Output dimension.
    pub(crate) out_dim: usize,
}

impl Linear {
    /// The layer whose parameters start at `offset`.
    pub(crate) fn at(offset: usize, in_dim: usize, out_dim: usize) -> Self {
        Linear { offset, in_dim, out_dim }
    }

    /// One past the layer's last parameter.
    pub(crate) fn end(&self) -> usize {
        self.offset + (self.in_dim + 1) * self.out_dim
    }

    /// The weight, row-major `out_dim × in_dim`, in `params`.
    pub(crate) fn weight<'a>(&self, params: &'a [f64]) -> &'a [f64] {
        &params[self.offset..][..self.in_dim * self.out_dim]
    }

    /// The weight in `params`, writable.
    pub(crate) fn weight_mut<'a>(&self, params: &'a mut [f64]) -> &'a mut [f64] {
        &mut params[self.offset..][..self.in_dim * self.out_dim]
    }

    /// The bias in `params`.
    pub(crate) fn bias<'a>(&self, params: &'a [f64]) -> &'a [f64] {
        &params[self.offset + self.in_dim * self.out_dim..self.end()]
    }

    /// Forward pass on a batch of `n` rows.
    ///
    /// Runs the inference engine's f64 GEMM on the weight transposed per
    /// call: each output starts from its bias and adds `w·x` in ascending
    /// input order, the bits of the scalar triple loop.
    pub(crate) fn forward(&self, params: &[f64], x: &[f64], n: usize) -> Vec<f64> {
        debug_assert_eq!(x.len(), n * self.in_dim);
        let wt = transpose(self.weight(params), self.out_dim, self.in_dim);
        let mut y = vec![0.0; n * self.out_dim];
        let op = Operand { x, in_dim: self.in_dim, wt: &wt };
        gemm_t([op], n, self.out_dim, self.bias(params), Epilogue::Store, &mut y);
        y
    }

    /// Backward pass: given the forward input `x` and `dL/dy`, accumulate
    /// the parameter gradients into `grad` (at the layer's position) and
    /// return `dL/dx`.
    pub(crate) fn backward(
        &self,
        params: &[f64],
        x: &[f64],
        dy: &[f64],
        n: usize,
        grad: &mut [f64],
    ) -> Vec<f64> {
        debug_assert_eq!(x.len(), n * self.in_dim);
        debug_assert_eq!(dy.len(), n * self.out_dim);
        let weight = self.weight(params);
        let (grad_weight, grad_bias) =
            grad[self.offset..self.end()].split_at_mut(self.in_dim * self.out_dim);
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
                grad_bias[o] += g;
                let wrow = &weight[o * self.in_dim..(o + 1) * self.in_dim];
                let gwrow = &mut grad_weight[o * self.in_dim..(o + 1) * self.in_dim];
                for i in 0..self.in_dim {
                    gwrow[i] += g * xin[i];
                    dxr[i] += g * wrow[i];
                }
            }
        }
        dx
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

/// A two-layer perceptron `y = W₂ relu(W₁ x + b₁) + b₂`: its first layer's
/// parameters, then its second's.
#[derive(Debug, Clone, Copy)]
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
    /// The MLP `in_dim → hidden → out_dim` whose parameters start at
    /// `offset`.
    pub(crate) fn at(offset: usize, in_dim: usize, hidden: usize, out_dim: usize) -> Self {
        let l1 = Linear::at(offset, in_dim, hidden);
        Mlp { l1, l2: Linear::at(l1.end(), hidden, out_dim) }
    }

    /// One past the MLP's last parameter.
    pub(crate) fn end(&self) -> usize {
        self.l2.end()
    }

    /// Forward pass on `n` rows.
    pub(crate) fn forward(&self, params: &[f64], x: &[f64], n: usize) -> Vec<f64> {
        self.forward_cached(params, x, n).0
    }

    /// Forward pass that also returns the cache needed for backprop.
    pub(crate) fn forward_cached(
        &self,
        params: &[f64],
        x: &[f64],
        n: usize,
    ) -> (Vec<f64>, MlpCache) {
        let hidden_pre = self.l1.forward(params, x, n);
        let hidden = relu(&hidden_pre);
        let y = self.l2.forward(params, &hidden, n);
        (y, MlpCache { hidden_pre })
    }

    /// Backward pass: accumulate parameter gradients into `grad` and return
    /// `dL/dx`.
    pub(crate) fn backward(
        &self,
        params: &[f64],
        x: &[f64],
        cache: &MlpCache,
        dy: &[f64],
        n: usize,
        grad: &mut [f64],
    ) -> Vec<f64> {
        let hidden = relu(&cache.hidden_pre);
        let dhidden = self.l2.backward(params, &hidden, dy, n, grad);
        let dhidden_pre = relu_backward(&cache.hidden_pre, &dhidden);
        self.l1.backward(params, x, &dhidden_pre, n, grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    /// `len` parameters drawn uniformly from `[-0.5, 0.5)`.
    fn random_params(len: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-0.5..0.5)).collect()
    }

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
        // Behind one leading parameter: positions are offsets.
        let layer = Linear::at(1, 2, 2);
        assert_eq!(layer.end(), 7);
        let params = [9.0, 1.0, 2.0, 3.0, 4.0, 0.5, -0.5];
        let y = layer.forward(&params, &[1.0, 1.0, 2.0, 0.0], 2);
        assert_eq!(y, vec![3.5, 6.5, 2.5, 5.5]);
    }

    #[test]
    fn relu_and_backward() {
        let x = vec![-1.0, 0.0, 2.0];
        assert_eq!(relu(&x), vec![0.0, 0.0, 2.0]);
        assert_eq!(relu_backward(&x, &[1.0, 1.0, 1.0]), vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn linear_gradient_matches_finite_differences() {
        let layer = Linear::at(0, 3, 2);
        let params = random_params(layer.end(), 1);
        let x: Vec<f64> = (0..6).map(|i| (i as f64) * 0.3 - 0.5).collect(); // 2 rows
                                                                            // Scalar loss: sum of squares of outputs.
        let loss_for = |params: &[f64]| {
            let y = layer.forward(params, &x, 2);
            y.iter().map(|v| v * v).sum::<f64>()
        };
        // Analytic gradient.
        let y = layer.forward(&params, &x, 2);
        let dy: Vec<f64> = y.iter().map(|v| 2.0 * v).collect();
        let mut analytic = vec![0.0; params.len()];
        let _dx = layer.backward(&params, &x, &dy, 2, &mut analytic);
        finite_difference_check(&loss_for, &params, &analytic, 1e-6, 1e-5);
    }

    #[test]
    fn linear_input_gradient_matches_finite_differences() {
        let layer = Linear::at(0, 3, 2);
        let params = random_params(layer.end(), 2);
        let x: Vec<f64> = vec![0.1, -0.2, 0.4];
        let loss_for_x = |xv: &[f64]| {
            let y = layer.forward(&params, xv, 1);
            y.iter().map(|v| v * v).sum::<f64>()
        };
        let y = layer.forward(&params, &x, 1);
        let dy: Vec<f64> = y.iter().map(|v| 2.0 * v).collect();
        let mut grad = vec![0.0; params.len()];
        let dx = layer.backward(&params, &x, &dy, 1, &mut grad);
        finite_difference_check(&loss_for_x, &x, &dx, 1e-6, 1e-6);
    }

    #[test]
    fn mlp_gradient_matches_finite_differences() {
        let mlp = Mlp::at(0, 4, 5, 3);
        assert_eq!(mlp.l1.in_dim, 4);
        assert_eq!(mlp.l2.out_dim, 3);
        assert_eq!(mlp.end(), 4 * 5 + 5 + 5 * 3 + 3);
        let params = random_params(mlp.end(), 3);
        let x: Vec<f64> = (0..8).map(|i| ((i * 7 % 5) as f64) * 0.2 - 0.4).collect(); // 2 rows
        let loss_for = |params: &[f64]| {
            let y = mlp.forward(params, &x, 2);
            y.iter().enumerate().map(|(i, v)| (i as f64 + 1.0) * v * v).sum::<f64>()
        };
        let (y, cache) = mlp.forward_cached(&params, &x, 2);
        let dy: Vec<f64> = y.iter().enumerate().map(|(i, v)| 2.0 * (i as f64 + 1.0) * v).collect();
        let mut analytic = vec![0.0; params.len()];
        let dx = mlp.backward(&params, &x, &cache, &dy, 2, &mut analytic);
        finite_difference_check(&loss_for, &params, &analytic, 1e-6, 1e-4);

        // Also check the input gradient.
        let loss_for_x = |xv: &[f64]| {
            let y = mlp.forward(&params, xv, 2);
            y.iter().enumerate().map(|(i, v)| (i as f64 + 1.0) * v * v).sum::<f64>()
        };
        finite_difference_check(&loss_for_x, &x, &dx, 1e-6, 1e-4);
    }
}
