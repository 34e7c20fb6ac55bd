//! Mini-batch training loop and the evaluation metrics of Table II.
//!
//! Training follows the paper's recipe (Section IV-B): Adam at learning rate
//! 1e-2, gradient clipping, a reduce-on-plateau schedule, mini-batches of
//! local problems, and the summed per-iteration physics-informed loss.
//! Per-sample gradients inside a batch are computed in parallel with rayon —
//! the CPU counterpart of the paper's data-parallel GPU training.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use crate::adam::{Adam, AdamConfig, PlateauScheduler};
use crate::graph::LocalGraph;
use crate::model::DssModel;
use crate::plan::InferScratch;

/// Training hyper-parameters.
#[derive(Debug, Clone)]
pub struct TrainingConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size (the paper uses 100; CPU-sized runs use less).
    pub batch_size: usize,
    /// Adam configuration (learning rate, clipping, ...).
    pub adam: AdamConfig,
    /// Fraction of the samples held out for validation / the LR scheduler.
    pub validation_fraction: f64,
    /// Plateau patience (epochs without improvement before reducing the LR).
    pub lr_patience: usize,
    /// Plateau reduction factor.
    pub lr_factor: f64,
    /// Shuffling seed.
    pub seed: u64,
    /// Print a progress line every `log_every` epochs (0 disables logging).
    pub log_every: usize,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            epochs: 40,
            batch_size: 16,
            adam: AdamConfig::default(),
            validation_fraction: 0.2,
            lr_patience: 5,
            lr_factor: 0.1,
            seed: 0,
            log_every: 0,
        }
    }
}

/// Per-epoch record of a training run.
#[derive(Debug, Clone)]
pub struct TrainingReport {
    /// Mean training loss per epoch.
    pub train_losses: Vec<f64>,
    /// Mean validation loss per epoch (empty when no validation split).
    pub validation_losses: Vec<f64>,
    /// Learning rate at the end of training.
    pub final_learning_rate: f64,
}

/// Evaluation metrics in the format of the paper's Table II.
#[derive(Debug, Clone)]
pub struct EvalMetrics {
    /// Mean ± std of the final residual norm `‖A û - c‖` over the samples
    /// (the input `c` is normalised, so this is a relative residual).
    pub residual_mean: f64,
    /// Standard deviation of the residual norm.
    pub residual_std: f64,
    /// Mean relative error against the exact (direct) solution of each local
    /// problem.
    pub relative_error_mean: f64,
    /// Standard deviation of the relative error.
    pub relative_error_std: f64,
}

/// Train the model in place.  Returns the per-epoch loss history.
pub fn train(
    model: &mut DssModel,
    samples: &[LocalGraph],
    config: &TrainingConfig,
) -> TrainingReport {
    assert!(!samples.is_empty(), "cannot train on an empty dataset");
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);

    // Train/validation split.
    let mut indices: Vec<usize> = (0..samples.len()).collect();
    indices.shuffle(&mut rng);
    let num_val = ((samples.len() as f64) * config.validation_fraction).round() as usize;
    let num_val = num_val.min(samples.len().saturating_sub(1));
    let (val_idx, train_idx) = indices.split_at(num_val);
    let train_idx: Vec<usize> = train_idx.to_vec();
    let val_idx: Vec<usize> = val_idx.to_vec();

    let num_params = model.num_params();
    let mut adam = Adam::new(config.adam, num_params);
    let mut scheduler = PlateauScheduler::new(config.lr_patience, config.lr_factor, 1e-7);

    let mut train_losses = Vec::with_capacity(config.epochs);
    let mut validation_losses = Vec::with_capacity(config.epochs);

    let mut order = train_idx.clone();
    for epoch in 0..config.epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0;
        let mut batches = 0usize;
        for chunk in order.chunks(config.batch_size.max(1)) {
            // Data-parallel gradient computation; the per-sample results are
            // collected in order and summed sequentially so training stays
            // bit-for-bit deterministic regardless of thread scheduling.
            let per_sample: Vec<(f64, Vec<f64>)> = chunk
                .par_iter()
                .map(|&idx| {
                    let mut grad = model.zeros_like();
                    let loss = model.backward(&samples[idx], &mut grad);
                    (loss, grad.flatten())
                })
                .collect();
            let mut batch_loss = 0.0;
            let mut grad_flat = vec![0.0; num_params];
            for (loss, grad) in &per_sample {
                batch_loss += loss;
                for (a, b) in grad_flat.iter_mut().zip(grad.iter()) {
                    *a += b;
                }
            }
            let scale = 1.0 / chunk.len() as f64;
            let grad_mean: Vec<f64> = grad_flat.iter().map(|g| g * scale).collect();
            let mut params = model.flatten();
            adam.step(&mut params, &grad_mean);
            model.load_flat(&params);
            epoch_loss += batch_loss * scale;
            batches += 1;
        }
        let mean_train = epoch_loss / batches.max(1) as f64;
        train_losses.push(mean_train);

        // Validation loss drives the plateau scheduler (falls back to the
        // training loss when there is no held-out split).
        let monitored = if val_idx.is_empty() {
            mean_train
        } else {
            let losses: Vec<f64> =
                val_idx.par_iter().map(|&idx| model.loss(&samples[idx])).collect();
            let val_loss: f64 = losses.iter().sum::<f64>() / val_idx.len() as f64;
            validation_losses.push(val_loss);
            val_loss
        };
        scheduler.observe(monitored, &mut adam);

        if config.log_every > 0 && (epoch + 1) % config.log_every == 0 {
            println!(
                "epoch {:>4}: train loss {:.3e}, monitored {:.3e}, lr {:.2e}",
                epoch + 1,
                mean_train,
                monitored,
                adam.learning_rate()
            );
        }
    }

    TrainingReport { train_losses, validation_losses, final_learning_rate: adam.learning_rate() }
}

/// Evaluate the model: residual norms and relative errors against exact local
/// solutions (the metrics of Table II).
///
/// Inference goes through the planned fast path, one plan per sample.
pub fn evaluate(model: &DssModel, samples: &[LocalGraph]) -> EvalMetrics {
    assert!(!samples.is_empty(), "cannot evaluate on an empty dataset");
    let per_sample: Vec<(f64, f64)> = samples
        .par_iter()
        .map(|graph| {
            let plan = model.build_plan(graph);
            let mut prediction = vec![0.0; graph.num_nodes()];
            let mut scratch = InferScratch::new();
            model.infer_with_plan_into(&plan, &graph.input, &mut scratch, &mut prediction);
            // Residual norm of the normalised system.
            let au = graph.matrix.spmv(&prediction);
            let res: Vec<f64> = au.iter().zip(graph.input.iter()).map(|(a, c)| c - a).collect();
            let residual_norm = sparse::vector::norm2(&res);
            // Relative error against the exact local solution.
            let relative_error = match sparse::SkylineCholesky::factor(&graph.matrix) {
                Ok(chol) => {
                    let exact = chol.solve(&graph.input).unwrap_or_else(|_| prediction.clone());
                    sparse::vector::relative_error(&prediction, &exact)
                }
                Err(_) => f64::NAN,
            };
            (residual_norm, relative_error)
        })
        .collect();

    let residuals: Vec<f64> = per_sample.iter().map(|&(r, _)| r).collect();
    let errors: Vec<f64> = per_sample.iter().map(|&(_, e)| e).filter(|e| e.is_finite()).collect();
    let (residual_mean, residual_std) = mean_std(&residuals);
    let (relative_error_mean, relative_error_std) = mean_std(&errors);
    EvalMetrics { residual_mean, residual_std, relative_error_mean, relative_error_std }
}

fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{extract_local_problems, DatasetConfig};
    use crate::model::DssConfig;

    fn tiny_samples() -> Vec<LocalGraph> {
        extract_local_problems(&DatasetConfig {
            num_global_problems: 1,
            target_nodes: 300,
            subdomain_size: 90,
            overlap: 2,
            max_iterations_per_problem: 6,
            max_samples: Some(24),
            seed: 9,
            ..Default::default()
        })
    }

    #[test]
    fn training_reduces_the_loss() {
        let samples = tiny_samples();
        assert!(samples.len() >= 8);
        let mut model = DssModel::new(DssConfig { num_blocks: 3, latent_dim: 4, alpha: 1e-2 }, 1);
        let before = evaluate(&model, &samples);
        let config = TrainingConfig {
            epochs: 12,
            batch_size: 8,
            adam: AdamConfig { learning_rate: 3e-3, clip_norm: Some(1.0), ..Default::default() },
            validation_fraction: 0.2,
            seed: 1,
            ..Default::default()
        };
        let report = train(&mut model, &samples, &config);
        assert_eq!(report.train_losses.len(), 12);
        let after = evaluate(&model, &samples);
        assert!(
            report.train_losses.last().unwrap() < &report.train_losses[0],
            "training loss must decrease: {:?}",
            report.train_losses
        );
        assert!(
            after.residual_mean < before.residual_mean,
            "residual must improve: {} -> {}",
            before.residual_mean,
            after.residual_mean
        );
    }

    #[test]
    fn evaluation_metrics_are_finite_and_positive() {
        let samples = tiny_samples();
        let model = DssModel::new(DssConfig { num_blocks: 2, latent_dim: 3, alpha: 1e-2 }, 5);
        let metrics = evaluate(&model, &samples);
        assert!(metrics.residual_mean.is_finite() && metrics.residual_mean > 0.0);
        assert!(metrics.residual_std.is_finite());
        assert!(metrics.relative_error_mean.is_finite() && metrics.relative_error_mean > 0.0);
        assert!(metrics.relative_error_std.is_finite());
    }

    #[test]
    fn training_is_deterministic_for_fixed_seeds() {
        let samples = tiny_samples();
        let config = TrainingConfig { epochs: 3, batch_size: 6, seed: 4, ..Default::default() };
        let mut m1 = DssModel::new(DssConfig { num_blocks: 2, latent_dim: 3, alpha: 1e-2 }, 2);
        let mut m2 = DssModel::new(DssConfig { num_blocks: 2, latent_dim: 3, alpha: 1e-2 }, 2);
        let r1 = train(&mut m1, &samples, &config);
        let r2 = train(&mut m2, &samples, &config);
        for (a, b) in r1.train_losses.iter().zip(r2.train_losses.iter()) {
            assert!((a - b).abs() < 1e-10);
        }
        assert_eq!(m1.flatten(), m2.flatten());
    }

    #[test]
    fn mean_std_helper() {
        let (m, s) = mean_std(&[2.0, 4.0]);
        assert!((m - 3.0).abs() < 1e-12);
        assert!((s - 1.0).abs() < 1e-12);
        let (m, s) = mean_std(&[]);
        assert!(m.is_nan() && s.is_nan());
    }
}
