//! Mini-batch training loop and the evaluation metrics of Table II.
//!
//! Training follows the paper's recipe (Section IV-B): Adam with gradient
//! clipping and a reduce-on-plateau schedule (their settings are in the
//! `adam` module), mini-batches of 16 local problems (the paper's are 100),
//! and the summed per-iteration physics-informed loss.  Per-sample gradients inside
//! a batch are computed in parallel with rayon — the CPU counterpart of the
//! paper's data-parallel GPU training.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use crate::adam::{Adam, PlateauScheduler};
use crate::graph::LocalGraph;
use crate::model::DssModel;
use crate::plan::InferScratch;

/// Mini-batch size.
const BATCH_SIZE: usize = 16;
/// Share of the samples held out for validation, which drives the plateau
/// schedule.
const VALIDATION_SHARE: f64 = 0.15;
/// Seed of the validation split and of the per-epoch shuffles.
const SHUFFLE_SEED: u64 = 2;

/// Per-epoch record of a training run.
#[derive(Debug, Clone)]
pub struct TrainingReport {
    /// Mean training loss per epoch.
    pub train_losses: Vec<f64>,
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

/// Train the model in place for `epochs` passes over `samples`.  Returns
/// the per-epoch loss history.
pub fn train(model: &mut DssModel, samples: &[LocalGraph], epochs: usize) -> TrainingReport {
    assert!(!samples.is_empty(), "cannot train on an empty dataset");
    let mut rng = ChaCha8Rng::seed_from_u64(SHUFFLE_SEED);

    // Train/validation split.
    let mut indices: Vec<usize> = (0..samples.len()).collect();
    indices.shuffle(&mut rng);
    let num_val = ((samples.len() as f64) * VALIDATION_SHARE).round() as usize;
    let num_val = num_val.min(samples.len().saturating_sub(1));
    let (val_idx, train_idx) = indices.split_at(num_val);
    let train_idx: Vec<usize> = train_idx.to_vec();
    let val_idx: Vec<usize> = val_idx.to_vec();

    let num_params = model.num_params();
    let mut adam = Adam::new(num_params);
    let mut scheduler = PlateauScheduler::new();

    let mut train_losses = Vec::with_capacity(epochs);

    let mut order = train_idx.clone();
    for _ in 0..epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0;
        let mut batches = 0usize;
        for chunk in order.chunks(BATCH_SIZE) {
            // Data-parallel gradient computation, one gradient vector (in
            // the layout of the model's parameters) per sample; the results
            // are collected in order and summed sequentially so training
            // stays bit-for-bit deterministic regardless of thread scheduling.
            let per_sample: Vec<(f64, Vec<f64>)> = chunk
                .par_iter()
                .map(|&idx| {
                    let mut grad = vec![0.0; num_params];
                    let loss = model.backward(&samples[idx], &mut grad);
                    (loss, grad)
                })
                .collect();
            let mut batch_loss = 0.0;
            let mut grad_mean = vec![0.0; num_params];
            for (loss, grad) in &per_sample {
                batch_loss += loss;
                for (a, b) in grad_mean.iter_mut().zip(grad.iter()) {
                    *a += b;
                }
            }
            let scale = 1.0 / chunk.len() as f64;
            grad_mean.iter_mut().for_each(|g| *g *= scale);
            adam.step(model.params_mut(), &grad_mean);
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
            losses.iter().sum::<f64>() / val_idx.len() as f64
        };
        scheduler.observe(monitored, &mut adam);
    }

    TrainingReport { train_losses }
}

/// Evaluate the model: residual norms and relative errors against exact local
/// solutions (the metrics of Table II).
///
/// Inference goes through the f64 engine, one plan per sample, all sharing
/// one weight pack ([`DssModel::build_plans`]).
pub fn evaluate(model: &DssModel, samples: &[LocalGraph]) -> EvalMetrics {
    assert!(!samples.is_empty(), "cannot evaluate on an empty dataset");
    let plans = model.build_plans::<f64>(samples, false);
    let per_sample: Vec<(f64, f64)> = samples
        .par_iter()
        .zip(plans.par_iter())
        .map(|(graph, plan)| {
            let mut prediction = vec![0.0; graph.num_nodes()];
            plan.infer(&graph.input, 1, &mut InferScratch::new(), &mut prediction);
            // Residual norm of the normalised system.
            let au = graph.matrix.spmv(&prediction);
            let res: Vec<f64> = au.iter().zip(graph.input.iter()).map(|(a, c)| c - a).collect();
            let residual_norm = sparse::vector::norm2(&res);
            // Relative error against the exact local solution; a sample without
            // one scores NaN and is left out of the mean.
            let exact = sparse::SkylineCholesky::factor(&graph.matrix)
                .and_then(|chol| chol.solve(&graph.input));
            let relative_error = match exact {
                Ok(exact) => sparse::vector::relative_error(&prediction, &exact),
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
pub(crate) mod tests {
    use super::*;
    use crate::dataset::extract_local_problems;
    use crate::model::DssConfig;

    fn tiny_samples() -> Vec<LocalGraph> {
        extract_local_problems(&[90], 24)
    }

    #[test]
    fn training_reduces_the_loss() {
        let samples = tiny_samples();
        assert!(samples.len() >= 8);
        let mut model = DssModel::new(DssConfig { num_blocks: 3, latent_dim: 4, alpha: 1e-2 }, 1);
        let before = evaluate(&model, &samples);
        let report = train(&mut model, &samples, 12);
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
        let mut m1 = DssModel::new(DssConfig { num_blocks: 2, latent_dim: 3, alpha: 1e-2 }, 2);
        let mut m2 = DssModel::new(DssConfig { num_blocks: 2, latent_dim: 3, alpha: 1e-2 }, 2);
        let r1 = train(&mut m1, &samples, 3);
        let r2 = train(&mut m2, &samples, 3);
        for (a, b) in r1.train_losses.iter().zip(r2.train_losses.iter()) {
            assert!((a - b).abs() < 1e-10);
        }
        assert_eq!(m1, m2);
    }

    /// FNV-1a over the bit patterns of a float sequence.
    pub(crate) fn hash_f64s(values: impl IntoIterator<Item = f64>) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for v in values {
            for b in v.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        }
        h
    }

    /// Pins training's bits across commits: the trained weights and the last
    /// epoch's loss of `training_is_deterministic_for_fixed_seeds`' run.  Any
    /// change to the forward pass, the gradients or the optimiser that moves
    /// one bit moves these hashes.
    #[test]
    fn training_bits_are_pinned() {
        let samples = tiny_samples();
        let mut model = DssModel::new(DssConfig { num_blocks: 2, latent_dim: 3, alpha: 1e-2 }, 2);
        let report = train(&mut model, &samples, 3);
        let weights = hash_f64s(model.params().iter().copied());
        let last_loss = report.train_losses.last().unwrap().to_bits();
        assert_eq!((weights, last_loss), (0xb747830912f841a6, 0x3f8e4bddc34d2b6e));
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
