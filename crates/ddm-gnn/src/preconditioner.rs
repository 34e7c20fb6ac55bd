//! The DDM-GNN preconditioner (Section III-A of the paper): the Schwarz shell
//! of the `ddm` crate over the DSS local solve.
//!
//! With the Nicolaides coarse space (or none) one application proceeds in
//! the three steps of the paper:
//!
//! 1. **Coarse problem** — `r_c = R₀ᵀ (R₀ A R₀ᵀ)⁻¹ R₀ r` by dense LU on the
//!    Nicolaides coarse space (Eq. 13; none under [`AsmLevel::OneLevel`]),
//! 2. **Local problems** — the DSS local solve: every sub-domain residual is
//!    restricted, normalised to unit norm and solved by one DSS inference,
//!    and the output is scaled back by the norm; the shell processes all
//!    sub-domains concurrently (Eq. 14–15).  The normalisation is the
//!    paper's answer to vanishing residual magnitudes late in the PCG
//!    iteration: the network always sees unit-norm inputs,
//! 3. **Gluing** — `z = r_c + Σᵢ Rᵢᵀ ‖Rᵢ r‖ r̃ᵢ` (Eq. 16), the shell's
//!    sub-domain-ordered sum of the pre-scaled local panels.
//!
//! Under the multi-level V-cycle ([`AsmLevel::Multilevel`]) the steps run
//! in sequence instead, each on the residual the previous one left: a
//! V-cycle, the local problems glued onto it, a second V-cycle.

use std::sync::Arc;

use ddm::{AsmLevel, Decomposition, LocalSolve, MultilevelConfig, Restriction, Schwarz};
use fem::PoissonProblem;
use gnn::{
    dataset::build_local_graphs, DssModel, InferScratch, InferencePlan, LocalGraph, Precision,
};
use krylov::{FaultLog, Preconditioner};

/// The DSS local solve of one sub-domain (Eq. 14–15): its inference plan,
/// built once at construction (the setup phase), in the engine the
/// configured precision runs on (`Int8` is a weight format of the f32
/// engine).  The plan shares its graph's destination-grouped structure,
/// holds block 1's edge sums, and shares one weight pack with the plans of
/// the other sub-domains.
pub(crate) enum DssLocalSolver {
    F64(InferencePlan<f64>),
    F32(InferencePlan<f32>),
}

/// Work buffers of a [`DssLocalSolver`], sized on first use per batch width.
/// The shell pools them across sub-domains; `solve` writes each buffer
/// before reading it.
#[derive(Default)]
pub(crate) struct DssScratch {
    /// One column's restricted residual.
    local_r: Vec<f64>,
    /// Row-major `num_local × b` panel of normalised residuals.
    input: Vec<f64>,
    /// Per-column restriction norms (`0.0` marks a vanishing column).
    norms: Vec<f64>,
    /// Inference scratch of the f64 engine.
    engine_f64: InferScratch<f64>,
    /// Inference scratch of the f32 engine (the `F32` and `Int8` tiers).
    engine_f32: InferScratch<f32>,
}

impl DssLocalSolver {
    /// The local solves of `graphs`, one per sub-domain in order, on one
    /// weight pack of `model` in the format `precision` names.
    fn build_all(model: &DssModel, graphs: &[LocalGraph], precision: Precision) -> Vec<Self> {
        let int8 = precision == Precision::Int8;
        match precision {
            Precision::F64 => model.build_plans(graphs, false).into_iter().map(Self::F64).collect(),
            Precision::F32 | Precision::Int8 => {
                model.build_plans(graphs, int8).into_iter().map(Self::F32).collect()
            }
        }
    }

    /// Heap bytes of the plan's own structure and of the weight pack it
    /// shares.
    fn plan_bytes(&self) -> (usize, usize) {
        match self {
            Self::F64(plan) => (plan.memory_bytes(), plan.shared_weight_bytes()),
            Self::F32(plan) => (plan.memory_bytes(), plan.shared_weight_bytes()),
        }
    }
}

impl LocalSolve for DssLocalSolver {
    type Scratch = DssScratch;

    /// Restrict and normalise each column through the same contiguous buffer
    /// whatever `b` is, run **one** inference on `b` rows per node — the
    /// weights are read, and the geometric edge terms computed, once for the
    /// whole batch — and write `‖Rᵢ r‖ · DSS(Rᵢ r / ‖Rᵢ r‖)` into the panel,
    /// or zeros for a vanishing column.  With the per-column bit-identity of
    /// the inference engine, column `c` is bit-identical to a one-column
    /// solve of `rs[c]`.
    fn solve<R: AsRef<[f64]>>(
        &self,
        restriction: &Restriction,
        rs: &[R],
        scratch: &mut DssScratch,
        panel: &mut [f64],
    ) -> sparse::Result<()> {
        let DssScratch { local_r, input, norms, .. } = scratch;
        let b = rs.len();
        let nl = restriction.num_local();
        local_r.resize(nl, 0.0);
        input.resize(nl * b, 0.0);
        norms.clear();
        for (c, r) in rs.iter().enumerate() {
            restriction.restrict_into(r.as_ref(), local_r);
            let norm = sparse::vector::norm2(local_r);
            let norm = if norm > f64::MIN_POSITIVE { norm } else { 0.0 };
            for (j, &v) in local_r.iter().enumerate() {
                input[j * b + c] = if norm > 0.0 { v / norm } else { 0.0 };
            }
            norms.push(norm);
        }
        self.infer_scaled(scratch, b, panel);
        Ok(())
    }
}

impl DssLocalSolver {
    /// The part of a solve that no longer reads the residuals: one inference
    /// on the normalised `nₗ × b` input of `scratch`, each column scaled
    /// back by its norm.  Kept out of line so the engine bodies it inlines
    /// are compiled once, whatever container the residual columns come in.
    #[inline(never)]
    fn infer_scaled(&self, scratch: &mut DssScratch, b: usize, panel: &mut [f64]) {
        let DssScratch { input, norms, engine_f64, engine_f32, .. } = scratch;
        if norms.iter().all(|&norm| norm == 0.0) {
            panel.fill(0.0);
            return;
        }
        match self {
            Self::F64(plan) => plan.infer(input, b, engine_f64, panel),
            Self::F32(plan) => plan.infer(input, b, engine_f32, panel),
        }
        for row in panel.chunks_exact_mut(b) {
            for (v, &norm) in row.iter_mut().zip(norms.iter()) {
                *v = if norm > 0.0 { norm * *v } else { 0.0 };
            }
        }
    }
}

/// The multi-level GNN preconditioner: the Schwarz shell over DSS local
/// solves, together with the local graphs whose structure their plans
/// share.
///
/// A named type rather than an alias so it can carry the constructors (the
/// shell is foreign to this crate).
pub struct DdmGnnPreconditioner {
    shell: Schwarz<DssLocalSolver>,
    graphs: Vec<LocalGraph>,
}

impl DdmGnnPreconditioner {
    /// One- or two-level ([`AsmLevel::TwoLevel`], Nicolaides) preconditioner
    /// for an assembled Poisson problem at an inference precision
    /// ([`Precision::F64`] is the bit-reproducible one); `two_level` toggles
    /// the Nicolaides coarse correction.
    pub fn with_precision(
        problem: &PoissonProblem,
        subdomains: Vec<Vec<usize>>,
        model: Arc<DssModel>,
        two_level: bool,
        precision: Precision,
    ) -> sparse::Result<Self> {
        let level = if two_level { AsmLevel::TwoLevel } else { AsmLevel::OneLevel };
        Self::build(problem, subdomains, model, level, precision)
    }

    /// [`AsmLevel::Multilevel`] preconditioner: a smoothed-aggregation
    /// V-cycle instead of the single-shot Nicolaides solve, run before and
    /// after the local solves, which correct the residual the first V-cycle
    /// leaves (the symmetric multiplicative composition of
    /// [`ddm::asm`]).
    ///
    /// The V-cycle carries the global convergence here, so the local solves
    /// run only the model's first [`DssModel::multilevel_depth`] blocks (all
    /// of them unless set; one on the shipped model, see
    /// [`crate::MULTILEVEL_DEPTH`]), at every precision.  At one block the
    /// network sees no neighbour's residual: each node's correction depends
    /// on its own normalised residual and its edges' geometry, a learned
    /// node-wise smoother under the V-cycle.
    pub fn with_multilevel_coarse(
        problem: &PoissonProblem,
        subdomains: Vec<Vec<usize>>,
        model: Arc<DssModel>,
        config: &MultilevelConfig,
        precision: Precision,
    ) -> sparse::Result<Self> {
        Self::build(problem, subdomains, model, AsmLevel::Multilevel(*config), precision)
    }

    /// The one general constructor: `subdomains` are the overlapping node
    /// sets (e.g. from [`partition::partition_mesh_with_overlap`]), `level`
    /// selects the coarse component and `precision` the inference engine.
    /// The name is `ddm-gnn-{1,2}level[-f32|-int8]` or
    /// `ddm-gnn-ml<levels>[-f32|-int8]`.
    ///
    /// `Precision::F32` runs every sub-domain DSS inference through the
    /// single-precision instantiation of the engine: the restricted residual
    /// is normalised in f64, converted to f32 on entry to the network, and
    /// the decoded output is widened back to f64 before the (entirely
    /// double-precision) gluing step.  Because the preconditioner only feeds
    /// a *flexible* outer Krylov method, the ~1e-6 relative perturbation
    /// cannot break convergence — it typically leaves iteration counts
    /// unchanged.
    ///
    /// `Precision::Int8` is the same f32 engine on weights quantised **once
    /// at setup** from the f64 model (int8 with per-output f32 scales,
    /// stored dequantised).  It costs exactly what `F32` costs in time and
    /// memory and perturbs a whole application by ~5e-3 relative on the
    /// shipped model.
    ///
    /// The decomposition's local operators move into the sub-domain graphs,
    /// and each plan shares its graph's structure rather than copying it.
    /// At every precision a plan holds that f64 structure and block 1's
    /// edge sums: `28 e + (4 + 16 d) n` bytes in f64, `28 e + (4 + 8 d) n`
    /// in f32 and int8.  The plans of all sub-domains are built by one
    /// [`DssModel::build_plans`] call and share its one weight pack.  Under
    /// the V-cycle ([`AsmLevel::Multilevel`]) the plans are built from the
    /// model cut to its [`DssModel::multilevel_depth`]; one- and two-level
    /// ones run every block.
    pub(crate) fn build(
        problem: &PoissonProblem,
        subdomains: Vec<Vec<usize>>,
        model: Arc<DssModel>,
        level: AsmLevel,
        precision: Precision,
    ) -> sparse::Result<Self> {
        let depth = model.multilevel_depth();
        let model = match level {
            AsmLevel::Multilevel(_) if depth < model.config().num_blocks => {
                let mut cut = DssModel::clone(&model);
                cut.truncate(depth);
                Arc::new(cut)
            }
            _ => model,
        };
        let Decomposition { subdomains, restrictions, local_matrices } =
            Decomposition::new(&problem.matrix, subdomains)?;
        let graphs = build_local_graphs(problem, &subdomains, local_matrices);
        let suffix = match precision {
            Precision::F64 => "",
            Precision::F32 => "-f32",
            Precision::Int8 => "-int8",
        };
        let shell = Schwarz::build(
            &problem.matrix,
            restrictions,
            level,
            || Ok(DssLocalSolver::build_all(&model, &graphs, precision)),
            |tag| format!("ddm-gnn-{tag}{suffix}"),
        )?;
        Ok(DdmGnnPreconditioner { shell, graphs })
    }

    /// The per-sub-domain local graphs.
    pub fn graphs(&self) -> &[LocalGraph] {
        &self.graphs
    }

    /// Total heap footprint of the cached inference plans in bytes, the
    /// graph structure they share included.  The plans share one weight
    /// pack, which is counted once.
    pub fn plan_memory_bytes(&self) -> usize {
        let solves = self.shell.local_solves();
        solves.iter().map(|s| s.plan_bytes().0).sum::<usize>()
            + solves.first().map_or(0, |s| s.plan_bytes().1)
    }
}

impl Preconditioner for DdmGnnPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.shell.apply(r, z);
    }

    fn apply_batch(&self, rs: &[&[f64]], zs: &mut [&mut [f64]]) {
        self.shell.apply_batch(rs, zs);
    }

    fn dim(&self) -> usize {
        self.shell.dim()
    }

    fn name(&self) -> &str {
        self.shell.name()
    }

    fn collect_faults(&self, into: &mut FaultLog) {
        self.shell.collect_faults(into);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::fixture;
    use krylov::{preconditioned_conjugate_gradient, SolverOptions};

    /// The fixture's one- or two-level preconditioner at `precision`.
    fn fixture_preconditioner(two_level: bool, precision: Precision) -> DdmGnnPreconditioner {
        let fx = fixture();
        let (subdomains, model) = (fx.subdomains.clone(), Arc::new(fx.model.clone()));
        DdmGnnPreconditioner::with_precision(&fx.problem, subdomains, model, two_level, precision)
            .unwrap()
    }

    #[test]
    fn construction_and_metadata() {
        let fx = fixture();
        let precond = fixture_preconditioner(true, Precision::F64);
        assert_eq!(precond.shell.local_solves().len(), fx.subdomains.len());
        assert_eq!(precond.graphs().len(), fx.subdomains.len());
        for (graph, subdomain) in precond.graphs().iter().zip(&fx.subdomains) {
            assert_eq!(graph.num_nodes(), subdomain.len());
        }
        assert!(precond.plan_memory_bytes() > 0);
        assert_eq!(precond.dim(), fx.problem.num_unknowns());
        assert_eq!(precond.name(), "ddm-gnn-2level");
        assert_eq!(fixture_preconditioner(false, Precision::F64).name(), "ddm-gnn-1level");
    }

    #[test]
    fn application_produces_descent_direction() {
        // zᵀ r > 0 is required for PCG to accept the preconditioned residual
        // as a descent direction; a trained DSS model must provide that.
        let fx = fixture();
        let precond = fixture_preconditioner(true, Precision::F64);
        let r = fx.problem.rhs.clone();
        let mut z = vec![0.0; r.len()];
        precond.apply(&r, &mut z);
        assert!(sparse::vector::norm2(&z) > 0.0);
        assert!(sparse::vector::dot(&z, &r) > 0.0, "preconditioner must stay positive");
    }

    #[test]
    fn f32_precision_metadata_and_closeness_to_f64() {
        let fx = fixture();
        let p64 = fixture_preconditioner(true, Precision::F64);
        let p32 = fixture_preconditioner(true, Precision::F32);
        assert_eq!(p64.name(), "ddm-gnn-2level");
        assert_eq!(p32.name(), "ddm-gnn-2level-f32");
        let r = fx.problem.rhs.clone();
        let mut z64 = vec![0.0; r.len()];
        let mut z32 = vec![0.0; r.len()];
        p64.apply(&r, &mut z64);
        p32.apply(&r, &mut z32);
        // Same operator up to single-precision rounding of the local solves.
        let scale = sparse::vector::norm2(&z64).max(1.0);
        let mut diff = 0.0f64;
        for (a, b) in z32.iter().zip(z64.iter()) {
            diff = diff.max((a - b).abs());
        }
        assert!(diff / scale < 1e-4, "f32 apply deviates too much: {}", diff / scale);
        assert!(sparse::vector::dot(&z32, &r) > 0.0, "f32 preconditioner must stay positive");
    }

    #[test]
    fn plan_memory_is_every_plan_plus_one_pack() {
        // Each plan's bytes — its graph's shared f64 structure (28 B per
        // edge, 4 B per node) and block 1's `2d` edge sums (16d B per node
        // in f64, 8d B in f32 for either weight format), whatever the depth
        // — plus the one pack of the set, counted once: at every precision,
        // two-level and on the V-cycle's cut to the shipped model's
        // `MULTILEVEL_DEPTH`.  A graph's directed edges are its operator's
        // off-diagonal entries.
        let fx = fixture();
        let d = fx.model.config().latent_dim;
        let ml = AsmLevel::Multilevel(MultilevelConfig { coarsest_max_size: 60 });
        assert!(fx.model.multilevel_depth() < fx.model.config().num_blocks, "a real cut");
        let mut packs = Vec::new();
        for precision in [Precision::F64, Precision::F32, Precision::Int8] {
            let width = if precision == Precision::F64 { 8 } else { 4 };
            for level in [AsmLevel::TwoLevel, ml] {
                let model = Arc::new(fx.model.clone());
                let p = DdmGnnPreconditioner::build(
                    &fx.problem,
                    fx.subdomains.clone(),
                    model,
                    level,
                    precision,
                )
                .unwrap();
                let solves = p.shell.local_solves();
                let pack = solves[0].plan_bytes().1;
                let mut own = 0;
                for (solve, g) in solves.iter().zip(p.graphs()) {
                    let (bytes, shared) = solve.plan_bytes();
                    let edges = g.matrix.nnz() - g.num_nodes();
                    assert_eq!(bytes, 28 * edges + (4 + 2 * d * width) * g.num_nodes());
                    assert_eq!(shared, pack, "{precision} {level:?}: one pack size per set");
                    own += bytes;
                }
                assert_eq!(p.plan_memory_bytes(), own + pack, "{precision} {level:?}");
                packs.push(pack);
            }
        }
        // A few KB per block, so the cut's pack is the smaller one; f32's is
        // half of f64's, and int8 is a weight format of f32.
        assert!(packs[0] < 1 << 20 && packs[1] < packs[0], "{packs:?}");
        assert_eq!(packs[2..4], [packs[0] / 2, packs[1] / 2]);
        assert_eq!(packs[4..], packs[2..4]);
    }

    #[test]
    fn reduced_tiers_meet_their_forward_error_contract() {
        // Tier accuracy as a contract: on the pretrained model at its default
        // depth (`PRETRAINED_DEPTH` = 7 blocks) and every sub-domain graph of
        // the fixture, the f32 engine stays within 1e-4 relative forward
        // error of the naive reference formulation (it is at 3.5e-6).  Its
        // int8 weight format measures 1.9e-2 and is pinned just above, at
        // 2.5e-2, so a regression of the format shows: trained blocks
        // amplify the 2⁻⁸ weight rounding beyond the 1e-2 that random
        // shallow models keep (`quantised_engine_matches_f64_within_1e2`),
        // and more with depth — all 16 blocks of the shipped file reach
        // 6.2e-2 — most of it a coherent shift from the composed `W_Ψ W₂`
        // matrices acting on the all-positive hidden sums.  Flexible PCG
        // absorbs it (`pcg_with_int8_ddm_gnn_converges_like_f64`).
        let fx = fixture();
        let precond = fixture_preconditioner(false, Precision::F64);
        for (int8, tolerance) in [(false, 1e-4), (true, 2.5e-2)] {
            let mut scratch = gnn::InferScratch::<f32>::new();
            let mut worst = 0.0f64;
            for graph in precond.graphs() {
                let reference = fx.model.infer_reference(graph, &graph.input);
                let plan = fx.model.build_plans(std::slice::from_ref(graph), int8).remove(0);
                let mut out = vec![0.0; graph.num_nodes()];
                plan.infer(&graph.input, 1, &mut scratch, &mut out);
                let error: Vec<f64> = out.iter().zip(&reference).map(|(a, b)| a - b).collect();
                let relative = sparse::vector::norm2(&error) / sparse::vector::norm2(&reference);
                worst = worst.max(relative);
            }
            assert!(worst > 0.0, "a reduced tier cannot reproduce f64 exactly");
            assert!(
                worst <= tolerance,
                "int8={int8}: relative forward error {worst:e} exceeds {tolerance:e}"
            );
        }
    }

    #[test]
    fn f32_one_level_name_and_zero_residual() {
        let fx = fixture();
        let p32 = fixture_preconditioner(false, Precision::F32);
        assert_eq!(p32.name(), "ddm-gnn-1level-f32");
        let r = vec![0.0; fx.problem.num_unknowns()];
        let mut z = vec![1.0; r.len()];
        p32.apply(&r, &mut z);
        assert!(z.iter().all(|&v| v == 0.0), "zero residual must give zero correction");
    }

    #[test]
    fn int8_precision_metadata_and_closeness_to_f64() {
        let fx = fixture();
        let p64 = fixture_preconditioner(true, Precision::F64);
        let p32 = fixture_preconditioner(true, Precision::F32);
        let pq = fixture_preconditioner(true, Precision::Int8);
        assert_eq!(pq.name(), "ddm-gnn-2level-int8");
        assert_eq!(
            pq.plan_memory_bytes(),
            p32.plan_memory_bytes(),
            "int8 is a weight format of the f32 engine"
        );
        let r = fx.problem.rhs.clone();
        let mut z64 = vec![0.0; r.len()];
        let mut zq = vec![0.0; r.len()];
        p64.apply(&r, &mut z64);
        pq.apply(&r, &mut zq);
        // Same operator up to the quantisation error of the local solves.
        let scale = sparse::vector::norm2(&z64).max(1.0);
        let mut diff = 0.0f64;
        for (a, b) in zq.iter().zip(z64.iter()) {
            diff = diff.max((a - b).abs());
        }
        assert!(diff / scale < 5e-2, "int8 apply deviates too much: {}", diff / scale);
        assert!(sparse::vector::dot(&zq, &r) > 0.0, "int8 preconditioner must stay positive");
    }

    #[test]
    fn int8_one_level_name_and_zero_residual() {
        let fx = fixture();
        let pq = fixture_preconditioner(false, Precision::Int8);
        assert_eq!(pq.name(), "ddm-gnn-1level-int8");
        let r = vec![0.0; fx.problem.num_unknowns()];
        let mut z = vec![1.0; r.len()];
        pq.apply(&r, &mut z);
        assert!(z.iter().all(|&v| v == 0.0), "zero residual must give zero correction");
    }

    #[test]
    fn pcg_with_int8_ddm_gnn_converges_like_f64() {
        let fx = fixture();
        let opts = SolverOptions::with_tolerance(1e-6).max_iterations(500);
        let solve = |precision| {
            let precond = fixture_preconditioner(true, precision);
            preconditioned_conjugate_gradient(
                &fx.problem.matrix,
                &fx.problem.rhs,
                None,
                &precond,
                &opts,
            )
        };
        let r64 = solve(gnn::Precision::F64);
        let rq = solve(gnn::Precision::Int8);
        assert!(r64.stats.converged() && rq.stats.converged());
        assert!(krylov::true_relative_residual(&fx.problem.matrix, &rq.x, &fx.problem.rhs) < 1e-5);
        // The flexible outer Krylov method absorbs the quantisation
        // perturbation: iteration counts stay within +15% of f64.
        let cap = r64.stats.iterations + (15 * r64.stats.iterations).div_ceil(100);
        assert!(
            rq.stats.iterations <= cap,
            "int8 iterations {} exceed f64 {} + 15%",
            rq.stats.iterations,
            r64.stats.iterations
        );
    }

    #[test]
    fn pcg_with_f32_ddm_gnn_converges_like_f64() {
        let fx = fixture();
        let opts = SolverOptions::with_tolerance(1e-6).max_iterations(500);
        let solve = |precision| {
            let precond = fixture_preconditioner(true, precision);
            preconditioned_conjugate_gradient(
                &fx.problem.matrix,
                &fx.problem.rhs,
                None,
                &precond,
                &opts,
            )
        };
        let r64 = solve(gnn::Precision::F64);
        let r32 = solve(gnn::Precision::F32);
        assert!(r64.stats.converged() && r32.stats.converged());
        assert!(krylov::true_relative_residual(&fx.problem.matrix, &r32.x, &fx.problem.rhs) < 1e-5);
        // The flexible outer Krylov method absorbs the f32 perturbation:
        // iteration counts stay within +10% of the f64 baseline.
        let cap = r64.stats.iterations + r64.stats.iterations.div_ceil(10);
        assert!(
            r32.stats.iterations <= cap,
            "f32 iterations {} exceed f64 {} + 10%",
            r32.stats.iterations,
            r64.stats.iterations
        );
    }

    #[test]
    fn multilevel_coarse_component_converges_and_names_itself() {
        let fx = fixture();
        let ml = DdmGnnPreconditioner::with_multilevel_coarse(
            &fx.problem,
            fx.subdomains.clone(),
            Arc::new(fx.model.clone()),
            &MultilevelConfig { coarsest_max_size: 60 },
            gnn::Precision::F64,
        )
        .unwrap();
        let levels: usize = ml.name().strip_prefix("ddm-gnn-ml").unwrap().parse().unwrap();
        assert!(levels >= 2);
        let opts = SolverOptions::with_tolerance(1e-6).max_iterations(500);
        let result = preconditioned_conjugate_gradient(
            &fx.problem.matrix,
            &fx.problem.rhs,
            None,
            &ml,
            &opts,
        );
        assert!(result.stats.converged(), "{:?}", result.stats.stop_reason);
        assert!(
            krylov::true_relative_residual(&fx.problem.matrix, &result.x, &fx.problem.rhs) < 1e-5
        );
    }

    #[test]
    fn multilevel_depth_sets_the_blocks_only_the_v_cycle_runs() {
        // A random 3-block model on the fixture: which blocks every local
        // solve runs, told by the bits of one apply, per coarse kind and
        // precision.
        let fx = fixture();
        let ml = AsmLevel::Multilevel(MultilevelConfig { coarsest_max_size: 60 });
        let levels = [AsmLevel::OneLevel, AsmLevel::TwoLevel, ml];
        let run = |model: &DssModel, level, precision| {
            let p = DdmGnnPreconditioner::build(
                &fx.problem,
                fx.subdomains.clone(),
                Arc::new(model.clone()),
                level,
                precision,
            )
            .unwrap();
            let mut z = vec![0.0; p.dim()];
            p.apply(&fx.problem.rhs, &mut z);
            z.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        let full = DssModel::new(gnn::DssConfig { num_blocks: 3, latent_dim: 4, alpha: 0.1 }, 9);
        let mut set = full.clone();
        set.set_multilevel_depth(2);
        let mut cut = full.clone();
        cut.truncate(2);
        let mut one = full.clone();
        one.truncate(1);
        for level in levels {
            for precision in [Precision::F64, Precision::F32, Precision::Int8] {
                // Without the setting every coarse kind runs all blocks: the
                // bits of neither shorter cut.
                let all = run(&full, level, precision);
                let two = run(&cut, level, precision);
                assert_ne!(all, two, "{level:?} {precision}");
                assert_ne!(all, run(&one, level, precision), "{level:?} {precision}");
                // With it only the V-cycle's local solves are cut, to the
                // bits of the cut model.
                let expected = if level == ml { two } else { all };
                assert_eq!(run(&set, level, precision), expected, "{level:?} {precision}");
            }
        }
        // A cut below the setting clamps it: the V-cycle runs the one block
        // left.
        let mut shallow = set.clone();
        shallow.truncate(1);
        assert_eq!(shallow.multilevel_depth(), 1);
        assert_eq!(run(&shallow, ml, Precision::F64), run(&one, ml, Precision::F64));
    }

    /// What a [`Masked`] local solve does on its sub-domain.
    #[derive(Clone, Copy)]
    enum Role {
        /// Run the wrapped solve.
        Solve,
        /// Scribble NaN over the panel and report an error.
        Fail,
        /// Contribute nothing: an all-zero panel.
        Drop,
    }

    /// A test-only local solve around a real one.
    struct Masked<L> {
        inner: L,
        role: Role,
    }

    impl<L: LocalSolve> LocalSolve for Masked<L> {
        type Scratch = L::Scratch;

        fn solve<R: AsRef<[f64]>>(
            &self,
            restriction: &Restriction,
            rs: &[R],
            scratch: &mut L::Scratch,
            panel: &mut [f64],
        ) -> sparse::Result<()> {
            match self.role {
                Role::Solve => self.inner.solve(restriction, rs, scratch, panel),
                Role::Fail => {
                    panel.fill(f64::NAN);
                    Err(sparse::SparseError::SingularMatrix { pivot: 0, value: 0.0 })
                }
                Role::Drop => {
                    panel.fill(0.0);
                    Ok(())
                }
            }
        }
    }

    /// Batched-vs-unbatched bit-identity, scratches without history, poison
    /// recovery and the zero residual on one freshly built shell.
    fn check_shell(shell: &dyn Preconditioner, level: AsmLevel, columns: &[Vec<f64>]) {
        let name = shell.name();
        let n = shell.dim();
        let apply = |r: &[f64]| {
            let mut z = vec![0.0; n];
            shell.apply(r, &mut z);
            z
        };
        let r = &columns[0];
        let baseline = apply(r);
        for b in [1usize, 3, 4] {
            let rs: Vec<&[f64]> = columns[..b].iter().map(Vec::as_slice).collect();
            let mut zs = vec![vec![0.0; n]; b];
            let mut z_refs: Vec<&mut [f64]> = zs.iter_mut().map(Vec::as_mut_slice).collect();
            shell.apply_batch(&rs, &mut z_refs);
            for (c, r) in rs.iter().enumerate() {
                assert_eq!(zs[c], apply(r), "{name} b={b} column {c}: batched apply diverged");
            }
        }

        // The pooled scratches served sub-domains of every size, at every
        // batch width, in between: none carries history.
        assert_eq!(apply(r), baseline, "{name}: a reused scratch changed the correction");

        // A too-short output handed to an unguarded apply panics in the
        // glue, while the caller holds the panels' lock: it ends up
        // poisoned, as after a worker panic.  Every panel is overwritten per
        // apply, so recovery must be bit-identical.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shell.apply(r, &mut vec![0.0; n - 7]);
        }));
        assert!(panicked.is_err(), "{name}: a short output must panic an unguarded apply");
        assert_eq!(apply(r), baseline, "{name}: poison recovery changed the correction");
        let mut z = vec![0.0; n];
        shell.apply_batch(&[r.as_slice()], &mut [z.as_mut_slice()]);
        assert_eq!(z, baseline, "{name}: batched apply must also recover bit-identically");

        if level == AsmLevel::OneLevel {
            let mut z = vec![1.0; n];
            shell.apply(&vec![0.0; n], &mut z);
            assert!(z.iter().all(|&v| v == 0.0), "{name}: zero residual, nonzero correction");
        }
    }

    /// The local-fault branch: a shell whose middle sub-domain fails glues
    /// exactly what one that drops the sub-domain glues, and logs one
    /// classified fault per apply (plain or batched).
    fn check_fault_path<L: LocalSolve>(
        matrix: &sparse::CsrMatrix,
        restrictions: &[Restriction],
        level: AsmLevel,
        columns: &[Vec<f64>],
        solves: impl Fn() -> Vec<L>,
    ) {
        let k = restrictions.len() / 2;
        let shell = |role| {
            let masked = || {
                let roles = (0..).map(|i| if i == k { role } else { Role::Solve });
                Ok(solves()
                    .into_iter()
                    .zip(roles)
                    .map(|(inner, role)| Masked { inner, role })
                    .collect())
            };
            Schwarz::build(matrix, restrictions.to_vec(), level, masked, |tag| {
                format!("masked-{tag}")
            })
            .unwrap()
        };
        let (failing, dropped) = (shell(Role::Fail), shell(Role::Drop));
        let n = matrix.nrows();
        let rs: Vec<&[f64]> = columns[..3].iter().map(Vec::as_slice).collect();
        let corrections = |p: &Schwarz<Masked<L>>| {
            let mut z = vec![0.0; n];
            p.apply(rs[0], &mut z);
            let mut zs = vec![vec![0.0; n]; rs.len()];
            p.apply_batch(&rs, &mut zs.iter_mut().map(Vec::as_mut_slice).collect::<Vec<_>>());
            (z, zs)
        };
        assert_eq!(corrections(&failing), corrections(&dropped), "{level:?}");
        let mut log = FaultLog::new();
        failing.collect_faults(&mut log);
        assert_eq!(log.events().len(), 2, "{level:?}: {log:?}");
        for (apply_index, event) in log.events().iter().enumerate() {
            assert_eq!(event.kind, krylov::FaultKind::NumericalError, "{event:?}");
            assert_eq!(event.apply_index, apply_index as u64, "{event:?}");
        }
        let mut clean = FaultLog::new();
        dropped.collect_faults(&mut clean);
        assert!(clean.events().is_empty(), "{clean:?}");
    }

    #[test]
    fn schwarz_contract_holds_for_every_local_solve_and_level() {
        // One table over both local solves (Cholesky; DSS at every
        // precision) and every coarse kind.
        let fx = fixture();
        let matrix = &fx.problem.matrix;
        let model = Arc::new(fx.model.clone());
        let decomposition = Decomposition::new(matrix, fx.subdomains.clone()).unwrap();
        let graphs = build_local_graphs(
            &fx.problem,
            &decomposition.subdomains,
            decomposition.local_matrices.clone(),
        );
        let columns: Vec<Vec<f64>> = (0..4)
            .map(|c| {
                fx.problem
                    .rhs
                    .iter()
                    .enumerate()
                    .map(|(i, v)| v * (1.0 - 0.21 * c as f64) + 0.01 * ((i + c) % 7) as f64)
                    .collect()
            })
            .collect();
        let ml = MultilevelConfig { coarsest_max_size: 60 };
        let levels = [AsmLevel::OneLevel, AsmLevel::TwoLevel, AsmLevel::Multilevel(ml)];
        for level in levels {
            let lu = ddm::AdditiveSchwarz::new(matrix, fx.subdomains.clone(), level).unwrap();
            check_shell(&lu, level, &columns);
            check_fault_path(matrix, &decomposition.restrictions, level, &columns, || {
                let factor = |a| ddm::CholeskyLocalSolver::new(a).unwrap();
                decomposition.local_matrices.iter().map(factor).collect()
            });
            for precision in [Precision::F64, Precision::F32, Precision::Int8] {
                let gnn = DdmGnnPreconditioner::build(
                    &fx.problem,
                    fx.subdomains.clone(),
                    Arc::clone(&model),
                    level,
                    precision,
                )
                .unwrap();
                check_shell(&gnn, level, &columns);
                check_fault_path(matrix, &decomposition.restrictions, level, &columns, || {
                    DssLocalSolver::build_all(&model, &graphs, precision)
                });
            }
        }
    }

    #[test]
    fn wrong_length_residual_is_a_classified_fault_whatever_the_coarse_kind() {
        // A too-short residual used to index out of bounds inside a rayon
        // worker and a too-long one tripped the V-cycle's length assert: the
        // guard of a one-tier ladder rejects either before the shell sees
        // it, whatever its local solve, so it classifies a numerical error
        // (not a panic) and falls back to the identity.
        let fx = fixture();
        let n = fx.problem.num_unknowns();
        let ml = MultilevelConfig { coarsest_max_size: 60 };
        for level in [AsmLevel::TwoLevel, AsmLevel::Multilevel(ml)] {
            let model = Arc::new(fx.model.clone());
            let shells: [Box<dyn Preconditioner>; 2] = [
                Box::new(
                    ddm::AdditiveSchwarz::new(&fx.problem.matrix, fx.subdomains.clone(), level)
                        .unwrap(),
                ),
                Box::new(
                    DdmGnnPreconditioner::build(
                        &fx.problem,
                        fx.subdomains.clone(),
                        model,
                        level,
                        Precision::F64,
                    )
                    .unwrap(),
                ),
            ];
            for shell in shells {
                let guarded = krylov::DegradationLadder::new(vec![shell]);
                for len in [n - 7, n + 7] {
                    let r = vec![1.0; len];
                    let mut z = vec![0.0; len];
                    guarded.apply(&r, &mut z);
                    assert_eq!(z, r, "{}: identity fallback expected", guarded.name());
                }
                let mut log = FaultLog::new();
                guarded.collect_faults(&mut log);
                assert_eq!(log.events().len(), 2, "{}: {log:?}", guarded.name());
                for event in log.events() {
                    assert_eq!(event.kind, krylov::FaultKind::NumericalError, "{event:?}");
                }
            }
        }
    }

    #[test]
    fn multilevel_coarse_follows_inference_precision() {
        // Every precision runs the same f64 V-cycle; only the local GNN
        // solves drop to f32 (int8: f32 on quantised weights).  The solve
        // must still converge with iteration counts close to f64's.
        let fx = fixture();
        let opts = SolverOptions::with_tolerance(1e-6).max_iterations(500);
        let solve = |precision| {
            let precond = DdmGnnPreconditioner::with_multilevel_coarse(
                &fx.problem,
                fx.subdomains.clone(),
                Arc::new(fx.model.clone()),
                &MultilevelConfig { coarsest_max_size: 60 },
                precision,
            )
            .unwrap();
            let name = precond.name().to_string();
            (
                preconditioned_conjugate_gradient(
                    &fx.problem.matrix,
                    &fx.problem.rhs,
                    None,
                    &precond,
                    &opts,
                ),
                name,
            )
        };
        let (r64, _) = solve(gnn::Precision::F64);
        assert!(r64.stats.converged());
        let base = r64.stats.iterations;
        for (precision, suffix, percent) in
            [(gnn::Precision::F32, "-f32", 10), (gnn::Precision::Int8, "-int8", 15)]
        {
            let (r, name) = solve(precision);
            assert!(name.starts_with("ddm-gnn-ml") && name.ends_with(suffix), "{name}");
            assert!(r.stats.converged(), "{name} did not converge");
            let cap = base + (percent * base).div_ceil(100);
            assert!(
                r.stats.iterations <= cap,
                "{name} iterations {} exceed f64 {base} + {percent}%",
                r.stats.iterations
            );
        }
    }

    #[test]
    fn pcg_with_ddm_gnn_converges() {
        // The headline property of the paper: the hybrid solver converges to
        // the requested tolerance even though the preconditioner is learned.
        let fx = fixture();
        let precond = fixture_preconditioner(true, Precision::F64);
        let opts = SolverOptions::with_tolerance(1e-6).max_iterations(500);
        let result = preconditioned_conjugate_gradient(
            &fx.problem.matrix,
            &fx.problem.rhs,
            None,
            &precond,
            &opts,
        );
        assert!(
            result.stats.converged(),
            "hybrid solver must converge: {:?}",
            result.stats.stop_reason
        );
        assert!(
            krylov::true_relative_residual(&fx.problem.matrix, &result.x, &fx.problem.rhs) < 1e-5
        );
    }

    #[test]
    fn trained_gnn_preconditioner_beats_plain_cg() {
        let fx = fixture();
        let opts = SolverOptions::with_tolerance(1e-6).max_iterations(2000);
        let plain = krylov::conjugate_gradient(&fx.problem.matrix, &fx.problem.rhs, None, &opts);
        let precond = fixture_preconditioner(true, Precision::F64);
        let hybrid = preconditioned_conjugate_gradient(
            &fx.problem.matrix,
            &fx.problem.rhs,
            None,
            &precond,
            &opts,
        );
        assert!(plain.stats.converged() && hybrid.stats.converged());
        assert!(
            hybrid.stats.iterations < plain.stats.iterations,
            "DDM-GNN {} vs CG {}",
            hybrid.stats.iterations,
            plain.stats.iterations
        );
    }
}
