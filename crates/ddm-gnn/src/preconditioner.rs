//! The DDM-GNN preconditioner (Section III-A of the paper).
//!
//! One application proceeds in the three steps of the paper:
//!
//! 1. **Coarse problem** — `r_c = R₀ᵀ (R₀ A R₀ᵀ)⁻¹ R₀ r` by dense LU on the
//!    Nicolaides coarse space (Eq. 13), or one V-cycle of a
//!    smoothed-aggregation hierarchy, as [`AsmLevel`] selects,
//! 2. **Local problems** — every sub-domain residual is restricted,
//!    normalised to unit norm and solved by one DSS inference; all sub-domains
//!    are processed concurrently (Eq. 14–15).  The normalisation is the
//!    paper's answer to vanishing residual magnitudes late in the PCG
//!    iteration: the network always sees unit-norm inputs,
//! 3. **Gluing** — `z = r_c + Σᵢ Rᵢᵀ ‖Rᵢ r‖ r̃ᵢ` (Eq. 16).

use ddm::{
    check_lengths, AsmLevel, Decomposition, Hierarchy, MultilevelConfig, Restriction,
    SmootherPrecision,
};
use fem::PoissonProblem;
use gnn::{
    dataset::build_local_graphs, DssModel, InferScratch, InferencePlan, InferenceTimings,
    LocalGraph, Precision,
};
use krylov::Preconditioner;
use rayon::prelude::*;
use std::sync::Arc;

use sanitizer::TrackedMutex;

/// GNN inference scratch of the engine the configured precision runs on.
enum EngineScratch {
    F64(InferScratch<f64>),
    F32(InferScratch<f32>),
}

/// Reusable per-sub-domain buffers for one preconditioner application on `b`
/// right-hand sides (`b = 1` for a plain `apply`): the restricted residual,
/// the row-major `num_local × b` panels of normalised residuals and DSS
/// outputs, the norms used to undo the normalisation at gluing time, and the
/// GNN inference scratch.  They are sized once per batch width, so `apply`
/// is allocation-free per iteration.
struct SubdomainScratch {
    /// One column's restricted residual, normalised in place.
    local_r: Vec<f64>,
    /// `num_local × b` residual panel (`panel[j*b + c]`: node `j`, column `c`).
    local_rb: Vec<f64>,
    /// `num_local × b` correction panel.
    correction_b: Vec<f64>,
    /// Per-column restriction norms (`0.0` marks a vanishing column that
    /// skips both inference output and gluing).
    norms_b: Vec<f64>,
    infer: EngineScratch,
}

impl SubdomainScratch {
    fn new(dim: usize, precision: Precision) -> TrackedMutex<Self> {
        TrackedMutex::new(
            SubdomainScratch {
                local_r: vec![0.0; dim],
                local_rb: vec![0.0; dim],
                correction_b: vec![0.0; dim],
                norms_b: Vec::with_capacity(1),
                infer: match precision {
                    Precision::F64 => EngineScratch::F64(InferScratch::new()),
                    Precision::F32 | Precision::Int8 => EngineScratch::F32(InferScratch::new()),
                },
            },
            "ddm_gnn::preconditioner::SubdomainScratch",
        )
    }
}

/// Per-sub-domain inference plans of the engine the configured precision
/// runs on (`Int8` is a weight format of the f32 engine).
enum PlanSet {
    F64(Vec<InferencePlan<f64>>),
    F32(Vec<InferencePlan<f32>>),
}

/// The multi-level GNN preconditioner.
pub struct DdmGnnPreconditioner {
    restrictions: Vec<Restriction>,
    graphs: Vec<LocalGraph>,
    /// Per-sub-domain inference plans, built once at construction (the setup
    /// phase), at the configured [`Precision`].  They hold only the
    /// destination-sorted graph structure and share one weight pack of the
    /// model.
    plans: PlanSet,
    precision: Precision,
    coarse: Option<Hierarchy>,
    model: Arc<DssModel>,
    scratch: Vec<TrackedMutex<SubdomainScratch>>,
    /// Serialises whole `apply` calls: the scratch buffers span the parallel
    /// inference and the sequential gluing, so two concurrent `apply`s on the
    /// same preconditioner would otherwise interleave and corrupt each other.
    apply_guard: TrackedMutex<()>,
    num_global: usize,
    /// Reported by `Preconditioner::name`: `ddm-gnn-{1,2}level[-f32|-int8]`
    /// or `ddm-gnn-ml<levels>[-f32|-int8]`.
    name: String,
}

impl DdmGnnPreconditioner {
    /// Build the double-precision preconditioner for an assembled Poisson
    /// problem; `two_level` toggles the Nicolaides coarse correction.
    pub fn new(
        problem: &PoissonProblem,
        subdomains: Vec<Vec<usize>>,
        model: Arc<DssModel>,
        two_level: bool,
    ) -> sparse::Result<Self> {
        Self::with_precision(problem, subdomains, model, two_level, Precision::F64)
    }

    /// One- or two-level ([`AsmLevel::TwoLevel`], Nicolaides) preconditioner
    /// at an explicit inference precision.
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
    /// V-cycle instead of the single-shot Nicolaides solve.
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
    /// At every precision a plan holds graph structure only (`28 e + 4 n`
    /// bytes in f64, `16 e + 4 n` in f32) next to one shared weight pack.
    ///
    /// A multi-level hierarchy's smoother precision follows the inference
    /// precision (`Precision::F64` keeps f64 sweeps; `F32` and `Int8` drop
    /// the sweeps to f32 — the V-cycle glue stays f64 either way), so
    /// reduced-precision deployments get a matching reduced-precision coarse
    /// path without extra configuration.
    pub(crate) fn build(
        problem: &PoissonProblem,
        subdomains: Vec<Vec<usize>>,
        model: Arc<DssModel>,
        level: AsmLevel,
        precision: Precision,
    ) -> sparse::Result<Self> {
        let decomposition = Decomposition::new(&problem.matrix, subdomains);
        let graphs = build_local_graphs(problem, &decomposition);
        let level = match level {
            AsmLevel::Multilevel(config) => AsmLevel::Multilevel(MultilevelConfig {
                smoother_precision: match precision {
                    Precision::F64 => SmootherPrecision::F64,
                    Precision::F32 | Precision::Int8 => SmootherPrecision::F32,
                },
                ..config
            }),
            level => level,
        };
        let (coarse, tag) = level.build_coarse(&problem.matrix, &decomposition.restrictions)?;
        let scratch = decomposition
            .restrictions
            .iter()
            .map(|r| SubdomainScratch::new(r.num_local(), precision))
            .collect();
        let plans = match precision {
            Precision::F64 => PlanSet::F64(graphs.iter().map(|g| model.build_plan(g)).collect()),
            Precision::F32 | Precision::Int8 => {
                let int8 = precision == Precision::Int8;
                PlanSet::F32(graphs.iter().map(|g| model.build_plan_f32(g, int8)).collect())
            }
        };
        let suffix = match precision {
            Precision::F64 => "",
            Precision::F32 => "-f32",
            Precision::Int8 => "-int8",
        };
        Ok(DdmGnnPreconditioner {
            restrictions: decomposition.restrictions,
            graphs,
            plans,
            precision,
            coarse,
            model,
            scratch,
            apply_guard: TrackedMutex::new(
                (),
                "ddm_gnn::preconditioner::DdmGnnPreconditioner::apply_guard",
            ),
            num_global: problem.matrix.nrows(),
            name: format!("ddm-gnn-{tag}{suffix}"),
        })
    }

    /// Number of sub-domains handled by the preconditioner.
    pub fn num_subdomains(&self) -> usize {
        self.restrictions.len()
    }

    /// Whether the coarse-space correction is active.
    pub fn has_coarse_space(&self) -> bool {
        self.coarse.is_some()
    }

    /// The coarse component, if any.
    pub fn coarse_space(&self) -> Option<&Hierarchy> {
        self.coarse.as_ref()
    }

    /// The underlying DSS model.
    pub fn model(&self) -> &DssModel {
        &self.model
    }

    /// The per-sub-domain local graphs.
    pub fn graphs(&self) -> &[LocalGraph] {
        &self.graphs
    }

    /// The inference precision the plans were built at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Total heap footprint of the cached inference plans in bytes.  The
    /// plans share one weight pack, which is counted once.
    pub fn plan_memory_bytes(&self) -> usize {
        fn total<T: gnn::Scalar>(plans: &[InferencePlan<T>]) -> usize {
            plans.iter().map(InferencePlan::memory_bytes).sum::<usize>()
                + plans.first().map_or(0, InferencePlan::shared_weight_bytes)
        }
        match &self.plans {
            PlanSet::F64(plans) => total(plans),
            PlanSet::F32(plans) => total(plans),
        }
    }

    /// Restrict, normalise and infer the `b = rs.len()` residuals of one
    /// sub-domain into its scratch slot through **one** inference on `b`
    /// rows per node, so the weights are read, and the geometric edge terms
    /// computed, once for the whole batch; optionally accumulating per-stage
    /// timings.
    ///
    /// Each column is restricted and normalised through the same contiguous
    /// buffer and operation order whatever `b` is, then scattered into the
    /// row-major panel — so together with the per-column bit-identity of the
    /// inference engine, column `c`'s correction is bit-identical to a
    /// one-column apply of `rs[c]`.
    fn solve_local(&self, i: usize, rs: &[&[f64]], timings: Option<&mut InferenceTimings>) {
        let b = rs.len();
        let mut guard = self.scratch[i].lock();
        let SubdomainScratch { local_r, local_rb, correction_b, norms_b, infer } = &mut *guard;
        let nl = local_r.len();
        local_rb.resize(nl * b, 0.0);
        correction_b.resize(nl * b, 0.0);
        norms_b.clear();
        let mut any_live = false;
        for (c, r) in rs.iter().enumerate() {
            self.restrictions[i].restrict_into(r, local_r);
            let mut norm = sparse::vector::norm2(local_r);
            if norm <= f64::MIN_POSITIVE {
                norm = 0.0;
                for j in 0..nl {
                    local_rb[j * b + c] = 0.0;
                }
            } else {
                for v in local_r.iter_mut() {
                    *v /= norm;
                }
                for (j, &v) in local_r.iter().enumerate() {
                    local_rb[j * b + c] = v;
                }
                any_live = true;
            }
            norms_b.push(norm);
        }
        if !any_live {
            return;
        }
        match (&self.plans, infer) {
            (PlanSet::F64(plans), EngineScratch::F64(scratch)) => {
                self.model.infer_with_plan(&plans[i], local_rb, b, scratch, correction_b, timings)
            }
            (PlanSet::F32(plans), EngineScratch::F32(scratch)) => {
                self.model.infer_with_plan(&plans[i], local_rb, b, scratch, correction_b, timings)
            }
            _ => unreachable!("plans and scratch are built for the same precision"),
        }
    }

    /// Gluing (Eq. 16), per column: `z = Σ Rᵢᵀ ‖Rᵢ r‖ r̃ᵢ (+ coarse
    /// correction)`, accumulated sequentially in sub-domain order so the
    /// result does not depend on the thread count.
    fn glue(&self, rs: &[&[f64]], zs: &mut [&mut [f64]]) {
        let b = rs.len();
        for z in zs.iter_mut() {
            z.fill(0.0);
        }
        for (restriction, scratch) in self.restrictions.iter().zip(self.scratch.iter()) {
            let guard = scratch.lock();
            for (c, z) in zs.iter_mut().enumerate() {
                if guard.norms_b[c] > 0.0 {
                    restriction.extend_add_scaled_strided(
                        guard.norms_b[c],
                        &guard.correction_b,
                        b,
                        c,
                        z,
                    );
                }
            }
        }
        if let Some(coarse) = &self.coarse {
            for (r, z) in rs.iter().zip(zs.iter_mut()) {
                coarse.apply_into(r, z);
            }
        }
    }

    /// One application to `b = rs.len()` residuals.  Without `timings` the
    /// sub-domains run in parallel (the batched GPU inference of Eq. 14
    /// mapped onto rayon), each writing into its own pre-sized scratch so the
    /// steady state allocates nothing; with `timings` they run
    /// **sequentially**, so the stage buckets measure kernel time rather than
    /// scheduler contention.  Both give the same bits: gluing is sequential
    /// in sub-domain order either way.
    fn apply_columns(
        &self,
        rs: &[&[f64]],
        zs: &mut [&mut [f64]],
        timings: Option<&mut InferenceTimings>,
    ) {
        assert_eq!(rs.len(), zs.len(), "batched apply: rs/zs column count mismatch");
        debug_assert!(rs.iter().all(|r| r.len() == self.num_global));
        debug_assert!(zs.iter().all(|z| z.len() == self.num_global));
        let _exclusive = self.apply_guard.lock();
        let subdomains = 0..self.restrictions.len();
        match timings {
            Some(timings) => subdomains.for_each(|i| self.solve_local(i, rs, Some(&mut *timings))),
            None => subdomains.into_par_iter().for_each(|i| self.solve_local(i, rs, None)),
        }
        self.glue(rs, zs);
    }

    /// [`Preconditioner::apply`] with a per-stage wall-clock breakdown of the
    /// GNN inference accumulated into `timings`.  The result written to `z`
    /// is bit-identical to [`Preconditioner::apply`].
    pub fn apply_timed(&self, r: &[f64], z: &mut [f64], timings: &mut InferenceTimings) {
        self.apply_columns(&[r], &mut [z], Some(timings));
    }

    /// [`Preconditioner::apply_batch`] with the per-stage inference breakdown
    /// accumulated into `timings` — the batched sibling of
    /// [`DdmGnnPreconditioner::apply_timed`].  Bit-identical to the parallel
    /// batched apply.
    pub fn apply_batch_timed(
        &self,
        rs: &[&[f64]],
        zs: &mut [&mut [f64]],
        timings: &mut InferenceTimings,
    ) {
        self.apply_columns(rs, zs, Some(timings));
    }
}

impl Preconditioner for DdmGnnPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.apply_columns(&[r], &mut [z], None);
    }

    fn apply_checked(&self, r: &[f64], z: &mut [f64]) -> sparse::Result<()> {
        check_lengths("DDM-GNN apply", self.num_global, r, z)?;
        self.apply(r, z);
        Ok(())
    }

    fn apply_batch(&self, rs: &[&[f64]], zs: &mut [&mut [f64]]) {
        self.apply_columns(rs, zs, None);
    }

    fn dim(&self) -> usize {
        self.num_global
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::fixture;
    use krylov::{preconditioned_conjugate_gradient, SolverOptions};

    #[test]
    fn construction_and_metadata() {
        let fx = fixture();
        let precond = DdmGnnPreconditioner::new(
            &fx.problem,
            fx.subdomains.clone(),
            Arc::new(fx.model.clone()),
            true,
        )
        .unwrap();
        assert_eq!(precond.num_subdomains(), fx.subdomains.len());
        assert!(precond.has_coarse_space());
        assert_eq!(precond.dim(), fx.problem.num_unknowns());
        assert_eq!(precond.name(), "ddm-gnn-2level");
        assert_eq!(precond.model().config().latent_dim, fx.model.config().latent_dim);
        let one_level = DdmGnnPreconditioner::new(
            &fx.problem,
            fx.subdomains.clone(),
            Arc::new(fx.model.clone()),
            false,
        )
        .unwrap();
        assert!(!one_level.has_coarse_space());
        assert_eq!(one_level.name(), "ddm-gnn-1level");
    }

    #[test]
    fn application_produces_descent_direction() {
        // zᵀ r > 0 is required for PCG to accept the preconditioned residual
        // as a descent direction; a trained DSS model must provide that.
        let fx = fixture();
        let precond = DdmGnnPreconditioner::new(
            &fx.problem,
            fx.subdomains.clone(),
            Arc::new(fx.model.clone()),
            true,
        )
        .unwrap();
        let r = fx.problem.rhs.clone();
        let mut z = vec![0.0; r.len()];
        precond.apply(&r, &mut z);
        assert!(sparse::vector::norm2(&z) > 0.0);
        assert!(sparse::vector::dot(&z, &r) > 0.0, "preconditioner must stay positive");
    }

    #[test]
    fn zero_residual_maps_to_coarse_only_correction() {
        let fx = fixture();
        let precond = DdmGnnPreconditioner::new(
            &fx.problem,
            fx.subdomains.clone(),
            Arc::new(fx.model.clone()),
            false,
        )
        .unwrap();
        let r = vec![0.0; fx.problem.num_unknowns()];
        let mut z = vec![1.0; r.len()];
        precond.apply(&r, &mut z);
        assert!(z.iter().all(|&v| v == 0.0), "zero residual must give zero correction");
    }

    #[test]
    fn timed_apply_is_bit_identical_to_apply() {
        let fx = fixture();
        let precond = DdmGnnPreconditioner::new(
            &fx.problem,
            fx.subdomains.clone(),
            Arc::new(fx.model.clone()),
            true,
        )
        .unwrap();
        assert!(precond.plan_memory_bytes() > 0);
        assert_eq!(precond.graphs().len(), precond.num_subdomains());
        let r = fx.problem.rhs.clone();
        let mut z = vec![0.0; r.len()];
        let mut z_timed = vec![0.0; r.len()];
        precond.apply(&r, &mut z);
        let mut timings = gnn::InferenceTimings::default();
        precond.apply_timed(&r, &mut z_timed, &mut timings);
        assert_eq!(z, z_timed, "timed apply must not change the correction");
        assert_eq!(timings.calls as usize, precond.num_subdomains());
    }

    #[test]
    fn apply_survives_poisoned_scratch_bit_identically() {
        // A worker panic while holding a scratch (or the batch serialisation)
        // mutex poisons it.  The preconditioner must recover on the next
        // apply — same guarantee `GuardedPreconditioner` relies on — and the
        // recovered correction must be bit-identical, since every reachable
        // scratch state is valid (scratch is fully overwritten per apply).
        let fx = fixture();
        let precond = DdmGnnPreconditioner::new(
            &fx.problem,
            fx.subdomains.clone(),
            Arc::new(fx.model.clone()),
            true,
        )
        .unwrap();
        let r = fx.problem.rhs.clone();
        let mut baseline = vec![0.0; r.len()];
        precond.apply(&r, &mut baseline);

        fn poison<T>(mutex: &TrackedMutex<T>) {
            let p = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _guard = mutex.lock();
                panic!("injected worker panic while holding the lock");
            }));
            assert!(p.is_err());
            assert!(mutex.is_poisoned(), "test setup failed to poison the mutex");
        }
        poison(&precond.scratch[0]);
        poison(&precond.apply_guard);

        let mut recovered = vec![1.0; r.len()];
        precond.apply(&r, &mut recovered);
        assert_eq!(baseline, recovered, "poison recovery changed the correction");

        let mut batch_out = vec![0.0; r.len()];
        precond.apply_batch(&[r.as_slice()], &mut [batch_out.as_mut_slice()]);
        assert_eq!(baseline, batch_out, "batched apply must also recover bit-identically");
    }

    #[test]
    fn batched_apply_is_bit_identical_per_column_for_all_precisions() {
        let fx = fixture();
        let n = fx.problem.num_unknowns();
        for precision in [gnn::Precision::F64, gnn::Precision::F32, gnn::Precision::Int8] {
            let precond = DdmGnnPreconditioner::with_precision(
                &fx.problem,
                fx.subdomains.clone(),
                Arc::new(fx.model.clone()),
                true,
                precision,
            )
            .unwrap();
            for b in [1usize, 3, 4] {
                let rhs: Vec<Vec<f64>> = (0..b)
                    .map(|c| {
                        fx.problem
                            .rhs
                            .iter()
                            .enumerate()
                            .map(|(i, v)| v * (1.0 - 0.21 * c as f64) + 0.01 * ((i + c) % 7) as f64)
                            .collect()
                    })
                    .collect();
                let r_refs: Vec<&[f64]> = rhs.iter().map(|r| r.as_slice()).collect();
                let mut zs: Vec<Vec<f64>> = vec![vec![0.0; n]; b];
                {
                    let mut z_refs: Vec<&mut [f64]> =
                        zs.iter_mut().map(|z| z.as_mut_slice()).collect();
                    precond.apply_batch(&r_refs, &mut z_refs);
                }
                let mut expected = vec![0.0; n];
                for (c, r) in rhs.iter().enumerate() {
                    precond.apply(r, &mut expected);
                    assert_eq!(
                        zs[c], expected,
                        "{precision:?} b={b} column {c}: batched apply diverged"
                    );
                }
                // The timed batched apply is bit-identical too and counts one
                // inference call per (sub-domain, batch).
                let mut timings = gnn::InferenceTimings::default();
                let mut zs_timed: Vec<Vec<f64>> = vec![vec![0.0; n]; b];
                {
                    let mut z_refs: Vec<&mut [f64]> =
                        zs_timed.iter_mut().map(|z| z.as_mut_slice()).collect();
                    precond.apply_batch_timed(&r_refs, &mut z_refs, &mut timings);
                }
                assert_eq!(zs, zs_timed, "{precision:?} b={b}: timed batched apply diverged");
                assert_eq!(timings.calls as usize, precond.num_subdomains());
            }
        }
    }

    #[test]
    fn f32_precision_metadata_and_closeness_to_f64() {
        let fx = fixture();
        let p64 = DdmGnnPreconditioner::new(
            &fx.problem,
            fx.subdomains.clone(),
            Arc::new(fx.model.clone()),
            true,
        )
        .unwrap();
        let p32 = DdmGnnPreconditioner::with_precision(
            &fx.problem,
            fx.subdomains.clone(),
            Arc::new(fx.model.clone()),
            true,
            gnn::Precision::F32,
        )
        .unwrap();
        assert_eq!(p64.precision(), gnn::Precision::F64);
        assert_eq!(p32.precision(), gnn::Precision::F32);
        assert_eq!(p32.name(), "ddm-gnn-2level-f32");
        // f64 plans hold graph structure only (28 B per edge, 4 B per node)
        // next to one weight pack counted once: per edge, their size does
        // not depend on the model's depth.
        let structure: usize =
            p64.graphs().iter().map(|g| 28 * g.num_edges() + 4 * g.num_nodes()).sum();
        let pack = p64.plan_memory_bytes() - structure;
        assert!(pack > 0 && pack < 1 << 20, "one shared weight pack: {pack} bytes");
        let shallow = gnn::DssModel::new(gnn::DssConfig::new(2, fx.model.config().latent_dim), 0);
        let p64_shallow =
            DdmGnnPreconditioner::new(&fx.problem, fx.subdomains.clone(), Arc::new(shallow), true)
                .unwrap();
        assert!(p64_shallow.plan_memory_bytes() > structure);
        assert!(p64_shallow.plan_memory_bytes() - structure < pack);
        // The f32 plans: the same structure in single precision (16 B per
        // edge) next to the same pack at half the width.
        let structure32: usize =
            p32.graphs().iter().map(|g| 16 * g.num_edges() + 4 * g.num_nodes()).sum();
        assert_eq!(p32.plan_memory_bytes() - structure32, pack / 2);
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
        // Timed apply matches the parallel apply bit-for-bit in f32 mode too.
        let mut z32_timed = vec![0.0; r.len()];
        let mut timings = gnn::InferenceTimings::default();
        p32.apply_timed(&r, &mut z32_timed, &mut timings);
        assert_eq!(z32, z32_timed);
        assert_eq!(timings.calls as usize, p32.num_subdomains());
    }

    #[test]
    fn reduced_tiers_meet_their_forward_error_contract() {
        // Tier accuracy as a contract: on the pretrained model at its default
        // depth (`PRETRAINED_DEPTH` = 8 blocks) and every sub-domain graph of
        // the fixture, the f32 engine stays within 1e-4 relative forward
        // error of the naive reference formulation (it is at 4.6e-6).  Its
        // int8 weight format measures 1.9e-2 and is pinned just above, at
        // 2.5e-2, so a regression of the format shows: trained blocks
        // amplify the 2⁻⁸ weight rounding beyond the 1e-2 that random
        // shallow models keep (`quantised_engine_matches_f64_within_1e2`),
        // and more with depth — all 16 blocks of the shipped file reach
        // 6.2e-2 — most of it a coherent shift from the composed `W_Ψ W₂`
        // matrices acting on the all-positive hidden sums.  Flexible PCG
        // absorbs it (`pcg_with_int8_ddm_gnn_converges_like_f64`).
        let fx = fixture();
        let precond = DdmGnnPreconditioner::new(
            &fx.problem,
            fx.subdomains.clone(),
            Arc::new(fx.model.clone()),
            false,
        )
        .unwrap();
        for (int8, tolerance) in [(false, 1e-4), (true, 2.5e-2)] {
            let mut scratch = gnn::InferScratch::new();
            let mut worst = 0.0f64;
            for graph in precond.graphs() {
                let reference = fx.model.infer_reference(graph, &graph.input);
                let plan = fx.model.build_plan_f32(graph, int8);
                let mut out = vec![0.0; graph.num_nodes()];
                fx.model.infer_with_plan(&plan, &graph.input, 1, &mut scratch, &mut out, None);
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
        let p32 = DdmGnnPreconditioner::with_precision(
            &fx.problem,
            fx.subdomains.clone(),
            Arc::new(fx.model.clone()),
            false,
            gnn::Precision::F32,
        )
        .unwrap();
        assert_eq!(p32.name(), "ddm-gnn-1level-f32");
        let r = vec![0.0; fx.problem.num_unknowns()];
        let mut z = vec![1.0; r.len()];
        p32.apply(&r, &mut z);
        assert!(z.iter().all(|&v| v == 0.0), "zero residual must give zero correction");
    }

    #[test]
    fn int8_precision_metadata_and_closeness_to_f64() {
        let fx = fixture();
        let p64 = DdmGnnPreconditioner::new(
            &fx.problem,
            fx.subdomains.clone(),
            Arc::new(fx.model.clone()),
            true,
        )
        .unwrap();
        let p32 = DdmGnnPreconditioner::with_precision(
            &fx.problem,
            fx.subdomains.clone(),
            Arc::new(fx.model.clone()),
            true,
            gnn::Precision::F32,
        )
        .unwrap();
        let pq = DdmGnnPreconditioner::with_precision(
            &fx.problem,
            fx.subdomains.clone(),
            Arc::new(fx.model.clone()),
            true,
            gnn::Precision::Int8,
        )
        .unwrap();
        assert_eq!(pq.precision(), gnn::Precision::Int8);
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
        // Timed apply matches the parallel apply bit-for-bit in int8 mode too.
        let mut zq_timed = vec![0.0; r.len()];
        let mut timings = gnn::InferenceTimings::default();
        pq.apply_timed(&r, &mut zq_timed, &mut timings);
        assert_eq!(zq, zq_timed);
        assert_eq!(timings.calls as usize, pq.num_subdomains());
    }

    #[test]
    fn int8_one_level_name_and_zero_residual() {
        let fx = fixture();
        let pq = DdmGnnPreconditioner::with_precision(
            &fx.problem,
            fx.subdomains.clone(),
            Arc::new(fx.model.clone()),
            false,
            gnn::Precision::Int8,
        )
        .unwrap();
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
            let precond = DdmGnnPreconditioner::with_precision(
                &fx.problem,
                fx.subdomains.clone(),
                Arc::new(fx.model.clone()),
                true,
                precision,
            )
            .unwrap();
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
            let precond = DdmGnnPreconditioner::with_precision(
                &fx.problem,
                fx.subdomains.clone(),
                Arc::new(fx.model.clone()),
                true,
                precision,
            )
            .unwrap();
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
            &MultilevelConfig { coarsest_max_size: 60, ..Default::default() },
            gnn::Precision::F64,
        )
        .unwrap();
        assert!(ml.has_coarse_space());
        let levels = ml.coarse_space().unwrap().num_levels();
        assert!(levels >= 2);
        assert_eq!(ml.name(), format!("ddm-gnn-ml{levels}"));
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
    fn wrong_length_residual_is_a_classified_fault_whatever_the_coarse_kind() {
        // A too-short residual used to index out of bounds inside a rayon
        // worker and a too-long one tripped the V-cycle's length assert: both
        // shells now reject either up front, so the guard classifies a
        // numerical error (not a panic) and falls back to the identity.
        let fx = fixture();
        let n = fx.problem.num_unknowns();
        let ml = MultilevelConfig { coarsest_max_size: 60, ..Default::default() };
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
                let guarded = krylov::GuardedPreconditioner::new(shell, Default::default());
                for len in [n - 7, n + 7] {
                    let r = vec![1.0; len];
                    let mut z = vec![0.0; len];
                    guarded.apply(&r, &mut z);
                    assert_eq!(z, r, "{}: identity fallback expected", guarded.name());
                }
                let log = guarded.fault_log();
                assert_eq!(log.events().len(), 2, "{}: {log:?}", guarded.name());
                for event in log.events() {
                    assert_eq!(event.kind, krylov::FaultKind::NumericalError, "{event:?}");
                }
            }
        }
    }

    #[test]
    fn multilevel_coarse_follows_inference_precision() {
        // The f32/int8 inference modes drop the hierarchy's smoother to f32
        // sweeps; the solve must still converge with iteration counts close
        // to the f64 configuration.
        let fx = fixture();
        let opts = SolverOptions::with_tolerance(1e-6).max_iterations(500);
        let solve = |precision| {
            let precond = DdmGnnPreconditioner::with_multilevel_coarse(
                &fx.problem,
                fx.subdomains.clone(),
                Arc::new(fx.model.clone()),
                &MultilevelConfig { coarsest_max_size: 60, ..Default::default() },
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
        let (r32, name32) = solve(gnn::Precision::F32);
        assert!(name32.starts_with("ddm-gnn-ml") && name32.ends_with("-f32"), "{name32}");
        assert!(r64.stats.converged() && r32.stats.converged());
        let cap = r64.stats.iterations + r64.stats.iterations.div_ceil(10);
        assert!(
            r32.stats.iterations <= cap,
            "f32-smoothed multilevel iterations {} exceed f64 {} + 10%",
            r32.stats.iterations,
            r64.stats.iterations
        );
    }

    #[test]
    fn pcg_with_ddm_gnn_converges() {
        // The headline property of the paper: the hybrid solver converges to
        // the requested tolerance even though the preconditioner is learned.
        let fx = fixture();
        let precond = DdmGnnPreconditioner::new(
            &fx.problem,
            fx.subdomains.clone(),
            Arc::new(fx.model.clone()),
            true,
        )
        .unwrap();
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
        let precond = DdmGnnPreconditioner::new(
            &fx.problem,
            fx.subdomains.clone(),
            Arc::new(fx.model.clone()),
            true,
        )
        .unwrap();
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
