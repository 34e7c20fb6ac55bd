//! Parity of the optimised inference engine against the retained naive
//! reference, plus gradient-stability checks.
//!
//! The fast path (`InferencePlan::infer` and everything routed through it)
//! reassociates the first-layer sums — split node-level GEMMs
//! plus precomputed static edge terms instead of one edge-level GEMM — so it
//! is *not* bit-identical to the reference formulation.  These tests pin the
//! agreement to ≤ 1e-12 relative error on random graphs and random weights.
//!
//! The single-precision instantiation of the engine (`InferencePlan<f32>`)
//! is pinned against the f64 plan path at ≤ 1e-4 relative error over the same
//! random graph distribution — the bound the DDM-GNN preconditioner's f32
//! mode relies on.
//!
//! Its int8 weight format (the latent-state GEMM matrices of every block
//! rounded to int8 with per-output f32 scales, stored dequantised) is pinned at ≤ 1e-2
//! relative error against the f64 plan path — the documented tolerance of
//! the `Precision::Int8` preconditioner mode.

use gnn::{DssConfig, DssModel, InferScratch, InferencePlan, LocalGraph};
use meshgen::Point2;
use proptest::prelude::*;
use sparse::CooMatrix;

/// Build a random connected local graph: a chain backbone (guaranteeing
/// connectivity) plus random extra symmetric couplings, random geometry and a
/// random right-hand side.
fn random_graph(n: usize, extra: &[(usize, usize)], geo_seed: u64, rhs_seed: u64) -> LocalGraph {
    let mut coo = CooMatrix::new(n, n);
    let mut touched = vec![false; n];
    let push_pair = |coo: &mut CooMatrix, i: usize, j: usize| {
        coo.push(i, j, -1.0).unwrap();
        coo.push(j, i, -1.0).unwrap();
    };
    for i in 0..n - 1 {
        push_pair(&mut coo, i, i + 1);
    }
    for &(a, b) in extra {
        let (i, j) = (a % n, b % n);
        if i != j && !(touched[i] && touched[j]) {
            // Cap the fill-in a little; duplicates are merged by to_csr.
            push_pair(&mut coo, i, j);
            touched[i] = true;
            touched[j] = true;
        }
    }
    for i in 0..n {
        coo.push(i, i, 8.0).unwrap();
    }
    let positions: Vec<Point2> = (0..n)
        .map(|i| {
            let t = i as f64 + geo_seed as f64 * 0.37;
            Point2::new((t * 0.71).sin() * 2.0, (t * 0.53).cos() * 2.0)
        })
        .collect();
    let rhs: Vec<f64> =
        (0..n).map(|i| ((i as u64 * 31 + rhs_seed * 17) % 23) as f64 * 0.2 - 2.0).collect();
    LocalGraph::new(coo.to_csr(), positions, &rhs)
}

/// f64 inference on `input` through a throwaway plan.
fn infer(model: &DssModel, graph: &LocalGraph, input: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; graph.num_nodes()];
    let plan = model.build_plan(graph);
    model.infer_with_plan_into(&plan, input, &mut InferScratch::new(), &mut out);
    out
}

/// The f32-engine plan of one graph, in either weight format.
fn plan_f32(model: &DssModel, graph: &LocalGraph, int8: bool) -> InferencePlan<f32> {
    model.build_plans(std::slice::from_ref(graph), int8).remove(0)
}

/// One right-hand side through the f32 engine, reusing `scratch`.
fn infer_f32(
    plan: &InferencePlan<f32>,
    input: &[f64],
    scratch: &mut InferScratch<f32>,
) -> Vec<f64> {
    let mut out = vec![0.0; plan.num_nodes()];
    plan.infer(input, 1, scratch, &mut out);
    out
}

/// An f32-engine plan reused across inputs and scratch states is bit-stable:
/// results depend only on (plan, input), never on buffer history.
fn assert_reuse_is_bit_stable(graph: &LocalGraph, plan: &InferencePlan<f32>) {
    let inputs: Vec<Vec<f64>> = [1.0, -0.4]
        .iter()
        .map(|scale| graph.input.iter().map(|c| c * scale + 0.01).collect())
        .collect();
    let mut scratch = InferScratch::new();
    let baseline: Vec<Vec<f64>> =
        inputs.iter().map(|input| infer_f32(plan, input, &mut scratch)).collect();
    // Re-run in reverse order with a fresh scratch: identical bits.
    let mut fresh = InferScratch::new();
    for (input, expected) in inputs.iter().zip(&baseline).rev() {
        assert_eq!(&infer_f32(plan, input, &mut fresh), expected);
    }
}

fn max_relative_deviation(a: &[f64], b: &[f64]) -> f64 {
    let scale = b.iter().map(|v| v.abs()).fold(1.0_f64, f64::max);
    a.iter().zip(b.iter()).map(|(x, y)| (x - y).abs() / scale).fold(0.0_f64, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The optimised forward pass agrees with the naive reference to
    /// ≤ 1e-12 relative error on random graphs and random weights.
    #[test]
    fn optimised_forward_matches_reference(
        n in 4usize..40,
        extra in proptest::collection::vec((0usize..40, 0usize..40), 0..30),
        geo_seed in 0u64..1000,
        rhs_seed in 0u64..1000,
        model_seed in 0u64..1000,
        num_blocks in 1usize..5,
        latent in 2usize..12,
    ) {
        let graph = random_graph(n, &extra, geo_seed, rhs_seed);
        let model = DssModel::new(
            DssConfig { num_blocks, latent_dim: latent, alpha: 1e-2 },
            model_seed,
        );
        let reference = model.infer_reference(&graph, &graph.input);
        let optimised = infer(&model, &graph, &graph.input);
        prop_assert_eq!(optimised.len(), reference.len());
        let dev = max_relative_deviation(&optimised, &reference);
        prop_assert!(dev <= 1e-12, "deviation {} exceeds 1e-12", dev);
    }

    /// A prebuilt plan reused across inputs and scratch states gives
    /// bit-identical results to a throwaway plan with a fresh scratch.
    #[test]
    fn plan_reuse_and_batching_are_bit_stable(
        n in 4usize..24,
        extra in proptest::collection::vec((0usize..24, 0usize..24), 0..12),
        geo_seed in 0u64..1000,
        rhs_seed in 0u64..1000,
        model_seed in 0u64..1000,
    ) {
        let graph = random_graph(n, &extra, geo_seed, rhs_seed);
        let model = DssModel::new(DssConfig { num_blocks: 3, latent_dim: 6, alpha: 1e-2 }, model_seed);
        let plan = model.build_plan(&graph);
        let mut scratch = InferScratch::new();
        let mut out = vec![0.0; graph.num_nodes()];
        for scale in [1.0, -0.4] {
            let input: Vec<f64> = graph.input.iter().map(|c| c * scale + 0.01).collect();
            model.infer_with_plan_into(&plan, &input, &mut scratch, &mut out);
            prop_assert_eq!(&out, &infer(&model, &graph, &input));
        }
    }

    /// The f32 engine tracks the f64 plan path to ≤ 1e-4 relative error on
    /// random sub-domain graphs, random weights and unit-normalised inputs
    /// (the preconditioner always feeds the network unit-norm residuals).
    #[test]
    fn f32_engine_matches_f64_within_1e4(
        n in 4usize..40,
        extra in proptest::collection::vec((0usize..40, 0usize..40), 0..30),
        geo_seed in 0u64..1000,
        rhs_seed in 0u64..1000,
        model_seed in 0u64..1000,
        num_blocks in 1usize..5,
        latent in 2usize..12,
    ) {
        let graph = random_graph(n, &extra, geo_seed, rhs_seed);
        let model = DssModel::new(
            DssConfig { num_blocks, latent_dim: latent, alpha: 1e-2 },
            model_seed,
        );
        // Unit-normalise the input like the preconditioner does.
        let norm = graph.input.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-30);
        let input: Vec<f64> = graph.input.iter().map(|v| v / norm).collect();

        let plan32 = plan_f32(&model, &graph, false);
        let out64 = infer(&model, &graph, &input);
        let out32 = infer_f32(&plan32, &input, &mut InferScratch::new());
        let dev = max_relative_deviation(&out32, &out64);
        prop_assert!(dev <= 1e-4, "f32 deviation {} exceeds 1e-4", dev);
    }

    /// See [`assert_reuse_is_bit_stable`].
    #[test]
    fn f32_plan_reuse_is_bit_stable(
        n in 4usize..24,
        extra in proptest::collection::vec((0usize..24, 0usize..24), 0..12),
        geo_seed in 0u64..1000,
        rhs_seed in 0u64..1000,
        model_seed in 0u64..1000,
    ) {
        let graph = random_graph(n, &extra, geo_seed, rhs_seed);
        let model = DssModel::new(DssConfig { num_blocks: 3, latent_dim: 6, alpha: 1e-2 }, model_seed);
        assert_reuse_is_bit_stable(&graph, &plan_f32(&model, &graph, false));
    }

    /// The f32 engine on int8-rounded weights tracks the f64 plan path to
    /// ≤ 1e-2 relative error on random sub-domain graphs, random weights and
    /// unit-normalised inputs — the documented accuracy contract of
    /// `Precision::Int8` (weight rounding ≤ 2⁻⁸ relative per weight, f32
    /// accumulation).
    #[test]
    fn quantised_engine_matches_f64_within_1e2(
        n in 4usize..40,
        extra in proptest::collection::vec((0usize..40, 0usize..40), 0..30),
        geo_seed in 0u64..1000,
        rhs_seed in 0u64..1000,
        model_seed in 0u64..1000,
        num_blocks in 1usize..5,
        latent in 2usize..12,
    ) {
        let graph = random_graph(n, &extra, geo_seed, rhs_seed);
        let model = DssModel::new(
            DssConfig { num_blocks, latent_dim: latent, alpha: 1e-2 },
            model_seed,
        );
        // Unit-normalise the input like the preconditioner does.
        let norm = graph.input.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-30);
        let input: Vec<f64> = graph.input.iter().map(|v| v / norm).collect();

        let planq = plan_f32(&model, &graph, true);
        let plan32 = plan_f32(&model, &graph, false);
        prop_assert_eq!(planq.memory_bytes(), plan32.memory_bytes());
        prop_assert_eq!(planq.shared_weight_bytes(), plan32.shared_weight_bytes());
        let out64 = infer(&model, &graph, &input);
        let outq = infer_f32(&planq, &input, &mut InferScratch::new());
        let dev = max_relative_deviation(&outq, &out64);
        prop_assert!(dev <= 1e-2, "quantised deviation {} exceeds 1e-2", dev);
    }

    /// See [`assert_reuse_is_bit_stable`], on the int8 weight format.
    #[test]
    fn quantised_plan_reuse_is_bit_stable(
        n in 4usize..24,
        extra in proptest::collection::vec((0usize..24, 0usize..24), 0..12),
        geo_seed in 0u64..1000,
        rhs_seed in 0u64..1000,
        model_seed in 0u64..1000,
    ) {
        let graph = random_graph(n, &extra, geo_seed, rhs_seed);
        let model = DssModel::new(DssConfig { num_blocks: 3, latent_dim: 6, alpha: 1e-2 }, model_seed);
        assert_reuse_is_bit_stable(&graph, &plan_f32(&model, &graph, true));
    }
}
