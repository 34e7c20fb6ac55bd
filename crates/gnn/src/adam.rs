//! Adam optimiser with gradient clipping and a reduce-on-plateau schedule.
//!
//! Every model trains at one setting, fixed here: Adam at a learning rate
//! of [`LEARNING_RATE`] = 5e-3 with the gradient's global norm clipped at
//! [`CLIP_NORM`] = 1.0, and a `ReduceLROnPlateau`-style schedule that
//! multiplies the learning rate by [`PLATEAU_FACTOR`] = 0.3 after
//! [`PLATEAU_PATIENCE`] = 8 epochs without improvement of the validation
//! loss, down to [`MIN_LEARNING_RATE`].  The paper (Section IV-B) starts at
//! 1e-2 and reduces by × 0.1; the smaller start and the gentler reduction
//! are the values every CPU-sized training here has run, and the recipe of
//! the Table II / Fig. 6 grid.

/// Initial learning rate.
const LEARNING_RATE: f64 = 5e-3;
/// Global-norm gradient clipping threshold.
const CLIP_NORM: f64 = 1.0;
/// Epochs without improvement before the learning rate is reduced.
const PLATEAU_PATIENCE: usize = 8;
/// Factor of each plateau reduction.
const PLATEAU_FACTOR: f64 = 0.3;
/// The schedule never reduces the learning rate below this.
const MIN_LEARNING_RATE: f64 = 1e-7;
/// Exponential decay of the first moment.
const BETA1: f64 = 0.9;
/// Exponential decay of the second moment.
const BETA2: f64 = 0.999;
/// Numerical stabiliser of the update's denominator.
const EPSILON: f64 = 1e-8;

/// Adam state over a flat parameter vector.
#[derive(Debug, Clone)]
pub(crate) struct Adam {
    learning_rate: f64,
    m: Vec<f64>,
    v: Vec<f64>,
    t: usize,
}

impl Adam {
    /// Create an optimiser for `num_params` parameters.
    pub(crate) fn new(num_params: usize) -> Self {
        Adam {
            learning_rate: LEARNING_RATE,
            m: vec![0.0; num_params],
            v: vec![0.0; num_params],
            t: 0,
        }
    }

    /// Current learning rate.
    pub(crate) fn learning_rate(&self) -> f64 {
        self.learning_rate
    }

    /// Scale the learning rate (used by the plateau scheduler).
    fn scale_learning_rate(&mut self, factor: f64) {
        self.learning_rate *= factor;
    }

    /// Apply one update step: `params ← params - lr * m̂ / (sqrt(v̂) + ε)`.
    ///
    /// The gradient is clipped to the global norm [`CLIP_NORM`] first.
    pub(crate) fn step(&mut self, params: &mut [f64], gradient: &[f64]) {
        assert_eq!(params.len(), self.m.len(), "parameter length mismatch");
        assert_eq!(gradient.len(), self.m.len(), "gradient length mismatch");
        self.t += 1;

        // Global-norm clipping.
        let norm: f64 = gradient.iter().map(|g| g * g).sum::<f64>().sqrt();
        let scale = if norm > CLIP_NORM { CLIP_NORM / norm } else { 1.0 };

        let (b1, b2) = (BETA1, BETA2);
        let bias1 = 1.0 - b1.powi(self.t as i32);
        let bias2 = 1.0 - b2.powi(self.t as i32);
        let lr = self.learning_rate;
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
    stale_epochs: usize,
}

impl PlateauScheduler {
    /// A scheduler that multiplies the learning rate by [`PLATEAU_FACTOR`]
    /// after [`PLATEAU_PATIENCE`] epochs without improvement.
    pub(crate) fn new() -> Self {
        PlateauScheduler { best: f64::INFINITY, stale_epochs: 0 }
    }

    /// Report an epoch's validation loss; adjusts the optimiser when the loss
    /// has plateaued.  Returns `true` when the learning rate was reduced.
    pub(crate) fn observe(&mut self, loss: f64, optimiser: &mut Adam) -> bool {
        if loss < self.best * (1.0 - 1e-4) {
            self.best = loss;
            self.stale_epochs = 0;
            return false;
        }
        self.stale_epochs += 1;
        if self.stale_epochs >= PLATEAU_PATIENCE {
            self.stale_epochs = 0;
            if optimiser.learning_rate() * PLATEAU_FACTOR >= MIN_LEARNING_RATE {
                optimiser.scale_learning_rate(PLATEAU_FACTOR);
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
        let mut adam = Adam::new(4);
        for _ in 0..3000 {
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
        // Adam's first moment after one step is `(1 − β₁)` times the gradient
        // it was fed: the clipped one above the threshold, the raw one below.
        let fed_norm =
            |adam: &Adam| adam.m.iter().map(|m| (m / (1.0 - BETA1)).powi(2)).sum::<f64>().sqrt();
        let mut adam = Adam::new(2);
        let mut params = vec![0.0, 0.0];
        adam.step(&mut params, &[3e9, -4e9]);
        assert!((fed_norm(&adam) - CLIP_NORM).abs() < 1e-12, "{}", fed_norm(&adam));
        // A huge gradient moves the parameters by at most the learning rate.
        assert!(params.iter().all(|p| p.abs() <= LEARNING_RATE * (1.0 + 1e-9)));
        let mut adam = Adam::new(2);
        adam.step(&mut params, &[0.3, -0.4]);
        assert!((fed_norm(&adam) - 0.5).abs() < 1e-12, "{}", fed_norm(&adam));
    }

    #[test]
    fn learning_rate_scaling() {
        let mut adam = Adam::new(1);
        assert_eq!(adam.learning_rate(), LEARNING_RATE);
        adam.scale_learning_rate(0.1);
        assert!((adam.learning_rate() - LEARNING_RATE * 0.1).abs() < 1e-15);
    }

    #[test]
    fn plateau_scheduler_reduces_after_patience() {
        let mut adam = Adam::new(1);
        let mut sched = PlateauScheduler::new();
        assert!(!sched.observe(1.0, &mut adam)); // first observation sets best
        for _ in 1..PLATEAU_PATIENCE {
            assert!(!sched.observe(1.0, &mut adam));
        }
        assert!(sched.observe(1.0, &mut adam)); // stale PLATEAU_PATIENCE -> reduce
        assert!((adam.learning_rate() - LEARNING_RATE * PLATEAU_FACTOR).abs() < 1e-15);
        // Improvement resets the counter.
        assert!(!sched.observe(0.5, &mut adam));
        for _ in 1..PLATEAU_PATIENCE {
            assert!(!sched.observe(0.6, &mut adam));
        }
    }

    #[test]
    fn plateau_scheduler_respects_min_lr() {
        let mut adam = Adam::new(1);
        let mut sched = PlateauScheduler::new();
        let reductions =
            (0..100 * PLATEAU_PATIENCE).filter(|_| sched.observe(1.0, &mut adam)).count();
        // 5e-3 · 0.3⁸ ≈ 3.3e-7 is the last step that stays above 1e-7.
        assert_eq!(reductions, 8);
        assert!(adam.learning_rate() >= MIN_LEARNING_RATE, "must not go below min_lr");
        assert!(adam.learning_rate() * PLATEAU_FACTOR < MIN_LEARNING_RATE);
    }
}
