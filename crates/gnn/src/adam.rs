//! Adam optimiser with gradient clipping and a reduce-on-plateau schedule.
//!
//! Training follows the paper's configuration: Adam with an initial learning
//! rate of 1e-2, gradient clipping, and a `ReduceLROnPlateau`-style schedule
//! that multiplies the learning rate by 0.1 when the validation loss stops
//! improving.

/// Exponential decay of the first moment.
const BETA1: f64 = 0.9;
/// Exponential decay of the second moment.
const BETA2: f64 = 0.999;
/// Numerical stabiliser of the update's denominator.
const EPSILON: f64 = 1e-8;

/// Adam hyper-parameters; the moment decays `β₁ = 0.9`, `β₂ = 0.999` and the
/// stabiliser `ε = 1e-8` are the usual fixed values.
#[derive(Debug, Clone, Copy)]
pub struct AdamConfig {
    /// Learning rate.
    pub learning_rate: f64,
    /// Global-norm gradient clipping threshold (`None` disables clipping).
    pub clip_norm: Option<f64>,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig { learning_rate: 1e-2, clip_norm: Some(1e-2) }
    }
}

/// Adam state over a flat parameter vector.
#[derive(Debug, Clone)]
pub struct Adam {
    config: AdamConfig,
    m: Vec<f64>,
    v: Vec<f64>,
    t: usize,
}

impl Adam {
    /// Create an optimiser for `num_params` parameters.
    pub fn new(config: AdamConfig, num_params: usize) -> Self {
        Adam { config, m: vec![0.0; num_params], v: vec![0.0; num_params], t: 0 }
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f64 {
        self.config.learning_rate
    }

    /// Scale the learning rate (used by the plateau scheduler).
    pub(crate) fn scale_learning_rate(&mut self, factor: f64) {
        self.config.learning_rate *= factor;
    }

    /// Apply one update step: `params ← params - lr * m̂ / (sqrt(v̂) + ε)`.
    ///
    /// The gradient is clipped to the configured global norm first.
    pub fn step(&mut self, params: &mut [f64], gradient: &[f64]) {
        assert_eq!(params.len(), self.m.len(), "parameter length mismatch");
        assert_eq!(gradient.len(), self.m.len(), "gradient length mismatch");
        self.t += 1;

        // Global-norm clipping.
        let mut scale = 1.0;
        if let Some(clip) = self.config.clip_norm {
            let norm: f64 = gradient.iter().map(|g| g * g).sum::<f64>().sqrt();
            if norm > clip && norm > 0.0 {
                scale = clip / norm;
            }
        }

        let (b1, b2) = (BETA1, BETA2);
        let bias1 = 1.0 - b1.powi(self.t as i32);
        let bias2 = 1.0 - b2.powi(self.t as i32);
        let lr = self.config.learning_rate;
        for i in 0..params.len() {
            let g = gradient[i] * scale;
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g;
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g;
            let mhat = self.m[i] / bias1;
            let vhat = self.v[i] / bias2;
            params[i] -= lr * mhat / (vhat.sqrt() + EPSILON);
        }
    }
}

/// Reduce-on-plateau learning-rate scheduler.
#[derive(Debug, Clone)]
pub(crate) struct PlateauScheduler {
    best: f64,
    patience: usize,
    factor: f64,
    stale_epochs: usize,
    min_lr: f64,
}

impl PlateauScheduler {
    /// A scheduler that multiplies the learning rate by `factor` after
    /// `patience` epochs without improvement.
    pub fn new(patience: usize, factor: f64, min_lr: f64) -> Self {
        PlateauScheduler { best: f64::INFINITY, patience, factor, stale_epochs: 0, min_lr }
    }

    /// Report an epoch's validation loss; adjusts the optimiser when the loss
    /// has plateaued.  Returns `true` when the learning rate was reduced.
    pub fn observe(&mut self, loss: f64, optimiser: &mut Adam) -> bool {
        if loss < self.best * (1.0 - 1e-4) {
            self.best = loss;
            self.stale_epochs = 0;
            return false;
        }
        self.stale_epochs += 1;
        if self.stale_epochs >= self.patience {
            self.stale_epochs = 0;
            if optimiser.learning_rate() * self.factor >= self.min_lr {
                optimiser.scale_learning_rate(self.factor);
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_minimises_a_quadratic() {
        // f(x) = Σ (x_i - target_i)²
        let target = [1.0, -2.0, 0.5, 3.0];
        let mut params = vec![0.0; 4];
        let config = AdamConfig { learning_rate: 0.05, clip_norm: None };
        let mut adam = Adam::new(config, 4);
        for _ in 0..500 {
            let grad: Vec<f64> =
                params.iter().zip(target.iter()).map(|(p, t)| 2.0 * (p - t)).collect();
            adam.step(&mut params, &grad);
        }
        for (p, t) in params.iter().zip(target.iter()) {
            assert!((p - t).abs() < 1e-3, "{params:?}");
        }
    }

    #[test]
    fn gradient_clipping_limits_step_size() {
        let config = AdamConfig { learning_rate: 1.0, clip_norm: Some(1e-3) };
        let mut adam = Adam::new(config, 2);
        let mut params = vec![0.0, 0.0];
        // A huge gradient must not blow the parameters up thanks to clipping
        // and Adam's normalisation.
        adam.step(&mut params, &[1e9, -1e9]);
        assert!(params.iter().all(|p| p.abs() <= 1.0 + 1e-9));
    }

    #[test]
    fn learning_rate_scaling() {
        let mut adam = Adam::new(AdamConfig::default(), 1);
        let lr0 = adam.learning_rate();
        adam.scale_learning_rate(0.1);
        assert!((adam.learning_rate() - lr0 * 0.1).abs() < 1e-15);
    }

    #[test]
    fn plateau_scheduler_reduces_after_patience() {
        let mut adam = Adam::new(AdamConfig::default(), 1);
        let lr0 = adam.learning_rate();
        let mut sched = PlateauScheduler::new(2, 0.1, 1e-6);
        assert!(!sched.observe(1.0, &mut adam)); // first observation sets best
        assert!(!sched.observe(1.0, &mut adam)); // stale 1
        assert!(sched.observe(1.0, &mut adam)); // stale 2 -> reduce
        assert!((adam.learning_rate() - lr0 * 0.1).abs() < 1e-12);
        // Improvement resets the counter.
        assert!(!sched.observe(0.5, &mut adam));
        assert!(!sched.observe(0.6, &mut adam));
    }

    #[test]
    fn plateau_scheduler_respects_min_lr() {
        let mut adam = Adam::new(AdamConfig { learning_rate: 1e-5, ..Default::default() }, 1);
        let mut sched = PlateauScheduler::new(1, 0.1, 1e-5);
        sched.observe(1.0, &mut adam);
        let reduced = sched.observe(1.0, &mut adam);
        assert!(!reduced, "must not go below min_lr");
        assert!((adam.learning_rate() - 1e-5).abs() < 1e-18);
    }
}
