//! The Schwarz shell: one preconditioner, generic over its local solve.
//!
//! Without a coarse component or with the Nicolaides one, `apply` implements
//! Eq. (6) / (7) of the paper, the additive sum:
//!
//! ```text
//! z = [R₀ᵀ (R₀ A R₀ᵀ)⁻¹ R₀ r]   (the coarse term [`AsmLevel`] selects:
//!                                none or this Nicolaides solve)
//!   + Σᵢ Rᵢᵀ vᵢ,   vᵢ the local solve of Rᵢ r
//! ```
//!
//! Under a smoothed-aggregation V-cycle `H` ([`AsmLevel::Multilevel`]) the
//! local phase is the smoother *around* the coarse correction instead, the
//! symmetric multiplicative composition (Trilinos/ML applies its smoothers
//! the same way):
//!
//! ```text
//! z  = H r
//! z += Σᵢ Rᵢᵀ vᵢ,   vᵢ the local solve of Rᵢ (r − A z)
//! z += H (r − A z)
//! ```
//!
//! With symmetric local solves both forms are symmetric positive definite.
//!
//! With the exact local solve `vᵢ = (Rᵢ A Rᵢᵀ)⁻¹ Rᵢ r` the shell is DDM-LU
//! ([`crate::AdditiveSchwarz`]); the `ddm-gnn` crate plugs in normalised DSS
//! inference (Eq. 14–16).  Everything but the local solve lives here, once.
//!
//! The local solves are independent and run in parallel with rayon — the CPU
//! analogue of the paper's batched GPU inference.  The correction panels,
//! one per sub-domain, and the residuals of the multiplicative form sit
//! behind one lock held for the whole apply; the local solve's work buffers
//! live in a small pool instead, one per job running at once, since a
//! scratch carries no history.  All are sized once per batch width, so the
//! per-Krylov-iteration path performs no heap allocation.  The glue
//! (`Σ Rᵢᵀ vᵢ`) accumulates sequentially in sub-domain order so the result
//! is bit-identical at every thread count.

use sanitizer::TrackedMutex;
use std::sync::atomic::{AtomicU64, Ordering};

use krylov::resilience::{FaultEvent, FaultKind, FaultLog};
use krylov::Preconditioner;
use rayon::prelude::*;
use sparse::CsrMatrix;

use crate::multilevel::{Hierarchy, MultilevelConfig};
use crate::restriction::Restriction;

/// What varies between the Schwarz preconditioners of the paper besides the
/// local solve: the coarse component, and how it composes with the local
/// corrections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsmLevel {
    /// One-level method: local solves only.
    OneLevel,
    /// Two-level method: local solves plus the Nicolaides coarse correction.
    TwoLevel,
    /// A smoothed-aggregation V-cycle before and after the local solves, each
    /// step on the residual the previous one left (the symmetric
    /// multiplicative composition of the module docs).
    Multilevel(MultilevelConfig),
}

impl AsmLevel {
    /// Build the coarse component this level names over `matrix`, together
    /// with the tag (`1level`, `2level`, `ml<levels>`) the shell reports in
    /// its tier name.
    pub(crate) fn build_coarse(
        &self,
        matrix: &CsrMatrix,
        restrictions: &[Restriction],
    ) -> sparse::Result<(Option<Hierarchy>, String)> {
        Ok(match self {
            AsmLevel::OneLevel => (None, "1level".to_string()),
            AsmLevel::TwoLevel => {
                (Some(Hierarchy::nicolaides(matrix, restrictions)?), "2level".to_string())
            }
            AsmLevel::Multilevel(config) => {
                let hierarchy = Hierarchy::build(matrix, config)?;
                let tag = format!("ml{}", hierarchy.num_levels());
                (Some(hierarchy), tag)
            }
        })
    }
}

/// The local solve of one sub-domain — the one thing that differs between
/// DDM-LU (exact Cholesky) and DDM-GNN (DSS inference).
pub trait LocalSolve: Send + Sync {
    /// Work buffers of the solve, sized on first use and reused.  The shell
    /// pools them across sub-domains and applies: a scratch may last have
    /// served any sub-domain, of any size, at any batch width.  So it must
    /// carry no history — `solve` writes every element it reads first.
    type Scratch: Default + Send;

    /// Write the local corrections of the `b = rs.len()` global residuals
    /// into the row-major `nₗ × b` panel (`panel[j*b + c]`: local node `j`,
    /// column `c`), restricting each column through `restriction`.
    ///
    /// The shell glues the panel as it is (`z += Rᵢᵀ panel`), so any scaling
    /// is already applied.  Column `c` must be bit-identical to a one-column
    /// solve of `rs[c]`.  An error zeroes the panel and is recorded as one
    /// classified fault.  The residuals are the caller's columns, or the
    /// shell's own under the multiplicative composition.
    fn solve<R: AsRef<[f64]>>(
        &self,
        restriction: &Restriction,
        rs: &[R],
        scratch: &mut Self::Scratch,
        panel: &mut [f64],
    ) -> sparse::Result<()>;
}

/// What one apply of the shell writes before it reads: guarded together for
/// the whole apply.
#[derive(Default)]
struct ApplyBuffers {
    /// The `nᵢ × b` correction panel of every sub-domain: the ordered glue
    /// reads them all.
    panels: Vec<Vec<f64>>,
    /// The residual columns `r − A z` of the multiplicative composition, one
    /// `n`-vector per batch column (never shrunk, so a narrower batch
    /// reuses them).
    residuals: Vec<Vec<f64>>,
}

/// The Schwarz preconditioner over any [`LocalSolve`].
pub struct Schwarz<L: LocalSolve> {
    restrictions: Vec<Restriction>,
    local_solves: Vec<L>,
    /// The lock is held for a whole apply, which serialises applies: the
    /// buffers span the parallel local phase and the sequential glue, so two
    /// concurrent applies on the same preconditioner would otherwise
    /// interleave and corrupt each other.
    buffers: TrackedMutex<ApplyBuffers>,
    /// Local-solve scratches not in use.  A local-phase job takes one (or
    /// makes one), solves and returns it, so there are never more than the
    /// jobs that ran at once: at most the pool threads, plus one.
    scratch_pool: TrackedMutex<Vec<L::Scratch>>,
    /// The coarse component: the Nicolaides solve is added to the local
    /// corrections, a V-cycle runs before and after them.
    coarse: Option<Hierarchy>,
    num_global: usize,
    /// Reported by `Preconditioner::name`, e.g. `ddm-lu-2level` or
    /// `ddm-gnn-ml3-f32`.
    name: String,
    /// Number of applies so far (≈ the outer iteration index).
    applies: AtomicU64,
    /// Classified local-solve errors, surfaced via `collect_faults`.
    faults: TrackedMutex<FaultLog>,
}

impl<L: LocalSolve> Schwarz<L> {
    /// Assemble the preconditioner over the restrictions of a decomposition
    /// of `matrix`: build the coarse component `level` selects, then the
    /// local solves (one per restriction, in order), and name it
    /// `name(tag)`, where the tag is `1level`, `2level` or `ml<levels>`.
    pub fn build(
        matrix: &CsrMatrix,
        restrictions: Vec<Restriction>,
        level: AsmLevel,
        local_solves: impl FnOnce() -> sparse::Result<Vec<L>>,
        name: impl FnOnce(&str) -> String,
    ) -> sparse::Result<Self> {
        let (coarse, tag) = level.build_coarse(matrix, &restrictions)?;
        let local_solves = local_solves()?;
        assert_eq!(local_solves.len(), restrictions.len(), "one local solve per sub-domain");
        let buffers =
            ApplyBuffers { panels: vec![Vec::new(); local_solves.len()], residuals: Vec::new() };
        Ok(Schwarz {
            restrictions,
            local_solves,
            buffers: TrackedMutex::new(buffers, "ddm::asm::Schwarz::buffers"),
            // Commutative: which pooled scratch a job takes depends on the
            // schedule, but a scratch carries no history.
            scratch_pool: TrackedMutex::new_commutative(
                Vec::new(),
                "ddm::asm::Schwarz::scratch_pool",
                "a scratch carries no history: every solve writes each buffer before reading it",
            ),
            coarse,
            num_global: matrix.nrows(),
            name: name(&tag),
            applies: AtomicU64::new(0),
            // Commutative: the fault log is append-only inside parallel
            // sections and every aggregation over it is order-insensitive.
            faults: TrackedMutex::new_commutative(
                FaultLog::new(),
                "ddm::asm::Schwarz::faults",
                "append-only fault log; aggregation queries are order-insensitive",
            ),
        })
    }

    /// The local solves, one per sub-domain.
    pub fn local_solves(&self) -> &[L] {
        &self.local_solves
    }

    /// Number of local-solve scratches made so far (all are back in the
    /// pool between applies).
    #[cfg(test)]
    pub(crate) fn scratch_count(&self) -> usize {
        self.scratch_pool.lock().len()
    }

    /// The local corrections of the residual columns `rs`, computed in
    /// parallel into the per-sub-domain panels with a pooled scratch.  A
    /// failed local solve glues as zeros and is recorded as a classified
    /// fault instead of panicking the worker — the remaining sub-domains
    /// (and the coarse correction) still produce a usable preconditioner.
    fn local_phase<R: AsRef<[f64]> + Sync>(
        &self,
        rs: &[R],
        panels: &mut [Vec<f64>],
        apply_index: u64,
    ) {
        let b = rs.len();
        panels.par_iter_mut().enumerate().for_each(|(i, panel)| {
            let mut scratch = self.scratch_pool.lock().pop().unwrap_or_default();
            let restriction = &self.restrictions[i];
            panel.resize(restriction.num_local() * b, 0.0);
            if let Err(e) = self.local_solves[i].solve(restriction, rs, &mut scratch, panel) {
                panel.fill(0.0);
                self.faults.lock().record(FaultEvent::new(
                    FaultKind::NumericalError,
                    apply_index,
                    &self.name,
                    format!("local solve on sub-domain {i} failed: {e}"),
                ));
            }
            self.scratch_pool.lock().push(scratch);
        });
    }

    /// Glue `z += Σ Rᵢᵀ panelᵢ` per column, sequentially in sub-domain
    /// order for thread-count-independent rounding.
    fn glue(&self, panels: &[Vec<f64>], zs: &mut [&mut [f64]]) {
        let b = zs.len();
        for (restriction, panel) in self.restrictions.iter().zip(panels.iter()) {
            for (c, z) in zs.iter_mut().enumerate() {
                restriction.extend_add_strided(panel, b, c, z);
            }
        }
    }
}

impl<L: LocalSolve> Preconditioner for Schwarz<L> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.apply_batch(&[r], &mut [z]);
    }

    fn apply_batch(&self, rs: &[&[f64]], zs: &mut [&mut [f64]]) {
        assert_eq!(rs.len(), zs.len(), "batched apply: rs/zs column count mismatch");
        let mut buffers = self.buffers.lock();
        let ApplyBuffers { panels, residuals } = &mut *buffers;
        let apply_index = self.applies.fetch_add(1, Ordering::SeqCst);
        // Every hierarchy but the Nicolaides space (its `R₀`) is a V-cycle.
        let v_cycle = self.coarse.as_ref().filter(|coarse| coarse.r0.is_none());

        let Some(v_cycle) = v_cycle else {
            // Additive: z = Σ Rᵢᵀ vᵢ (+ Nicolaides correction).
            self.local_phase(rs, panels, apply_index);
            for z in zs.iter_mut() {
                z.fill(0.0);
            }
            self.glue(panels, zs);
            if let Some(coarse) = &self.coarse {
                for (r, z) in rs.iter().zip(zs.iter_mut()) {
                    coarse.apply_into(r, z);
                }
            }
            return;
        };

        // Multiplicative: z = H r.
        for (r, z) in rs.iter().zip(zs.iter_mut()) {
            z.fill(0.0);
            v_cycle.apply_into(r, z);
        }
        // A hierarchy that did not coarsen is an exact solve: both residuals
        // below vanish to rounding, so `H r` is the whole correction.
        let Some(a) = v_cycle.fine_operator() else {
            return;
        };
        let b = rs.len();
        if residuals.len() < b {
            residuals.resize_with(b, Vec::new);
        }
        let residuals = &mut residuals[..b];
        for ((r, z), res) in rs.iter().zip(zs.iter()).zip(residuals.iter_mut()) {
            res.resize(self.num_global, 0.0);
            a.residual_into(r, z, res);
        }
        // z += Σ Rᵢᵀ vᵢ on r − A z.
        self.local_phase(residuals, panels, apply_index);
        self.glue(panels, zs);
        // z += H (r − A z).
        for ((r, z), res) in rs.iter().zip(zs.iter_mut()).zip(residuals.iter_mut()) {
            a.residual_into(r, z, res);
            v_cycle.apply_into(res, z);
        }
    }

    fn dim(&self) -> usize {
        self.num_global
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn collect_faults(&self, into: &mut FaultLog) {
        into.merge(self.faults.lock().clone());
    }
}

#[cfg(test)]
mod tests {
    use crate::test_support::fixture;
    use crate::{AdditiveSchwarz, AsmLevel, MultilevelConfig};
    use krylov::{
        conjugate_gradient, preconditioned_conjugate_gradient, DegradationLadder, FaultKind,
        FaultLog, Preconditioner, SolverOptions,
    };

    #[test]
    fn asm_preconditioned_pcg_converges_and_beats_cg() {
        let fx = fixture(1500, 400, 2);
        let opts = SolverOptions::with_tolerance(1e-6);
        let plain = conjugate_gradient(&fx.problem.matrix, &fx.problem.rhs, None, &opts);
        let asm =
            AdditiveSchwarz::new(&fx.problem.matrix, fx.subdomains.clone(), AsmLevel::TwoLevel)
                .unwrap();
        let pcg = preconditioned_conjugate_gradient(
            &fx.problem.matrix,
            &fx.problem.rhs,
            None,
            &asm,
            &opts,
        );
        assert!(plain.stats.converged());
        assert!(pcg.stats.converged());
        assert!(
            pcg.stats.iterations < plain.stats.iterations / 2,
            "ASM {} vs CG {}",
            pcg.stats.iterations,
            plain.stats.iterations
        );
        // Both compute the same solution.
        assert!(sparse::vector::relative_error(&pcg.x, &plain.x) < 1e-4);
    }

    #[test]
    fn two_level_beats_or_matches_one_level() {
        // With many sub-domains the one-level method loses scalability and the
        // coarse correction pays off (the effect is weak for small K).
        let fx = fixture(2500, 150, 2);
        let opts = SolverOptions::with_tolerance(1e-6);
        let one =
            AdditiveSchwarz::new(&fx.problem.matrix, fx.subdomains.clone(), AsmLevel::OneLevel)
                .unwrap();
        let two =
            AdditiveSchwarz::new(&fx.problem.matrix, fx.subdomains.clone(), AsmLevel::TwoLevel)
                .unwrap();
        assert!(one.coarse.is_none());
        assert!(two.coarse.is_some());
        let r1 = preconditioned_conjugate_gradient(
            &fx.problem.matrix,
            &fx.problem.rhs,
            None,
            &one,
            &opts,
        );
        let r2 = preconditioned_conjugate_gradient(
            &fx.problem.matrix,
            &fx.problem.rhs,
            None,
            &two,
            &opts,
        );
        assert!(r1.stats.converged() && r2.stats.converged());
        assert!(
            r2.stats.iterations <= r1.stats.iterations,
            "two-level {} vs one-level {}",
            r2.stats.iterations,
            r1.stats.iterations
        );
    }

    #[test]
    fn asm_application_is_symmetric() {
        // The ASM operator with exact local solves is symmetric; PCG theory
        // relies on it.
        let fx = fixture(700, 250, 2);
        let asm =
            AdditiveSchwarz::new(&fx.problem.matrix, fx.subdomains.clone(), AsmLevel::TwoLevel)
                .unwrap();
        let n = fx.problem.num_unknowns();
        let y: Vec<f64> = (0..n).map(|i| ((i * 3 % 13) as f64) - 6.0).collect();
        let w: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) * 0.4).collect();
        let mut my = vec![0.0; n];
        let mut mw = vec![0.0; n];
        asm.apply(&y, &mut my);
        asm.apply(&w, &mut mw);
        let lhs = sparse::vector::dot(&w, &my);
        let rhs = sparse::vector::dot(&y, &mw);
        assert!((lhs - rhs).abs() < 1e-8 * lhs.abs().max(1.0));
    }

    #[test]
    fn larger_overlap_reduces_iterations() {
        // Paper Table I: overlap 4 converges in fewer iterations than overlap 2.
        let fx2 = fixture(1500, 400, 2);
        let fx4_subdomains = {
            // Rebuild the same mesh partition with overlap 4 by regenerating
            // the fixture with identical seeds.
            let fx4 = fixture(1500, 400, 4);
            // Both fixtures are generated from the same deterministic seeds, so
            // the underlying problems match.
            assert_eq!(fx4.problem.num_unknowns(), fx2.problem.num_unknowns());
            fx4.subdomains
        };
        let opts = SolverOptions::with_tolerance(1e-6);
        let asm2 =
            AdditiveSchwarz::new(&fx2.problem.matrix, fx2.subdomains.clone(), AsmLevel::TwoLevel)
                .unwrap();
        let asm4 =
            AdditiveSchwarz::new(&fx2.problem.matrix, fx4_subdomains, AsmLevel::TwoLevel).unwrap();
        let r2 = preconditioned_conjugate_gradient(
            &fx2.problem.matrix,
            &fx2.problem.rhs,
            None,
            &asm2,
            &opts,
        );
        let r4 = preconditioned_conjugate_gradient(
            &fx2.problem.matrix,
            &fx2.problem.rhs,
            None,
            &asm4,
            &opts,
        );
        assert!(r2.stats.converged() && r4.stats.converged());
        assert!(
            r4.stats.iterations <= r2.stats.iterations,
            "overlap 4: {} vs overlap 2: {}",
            r4.stats.iterations,
            r2.stats.iterations
        );
    }

    #[test]
    fn multilevel_coarse_component_converges_and_is_symmetric() {
        let fx = fixture(2500, 150, 2);
        let opts = SolverOptions::with_tolerance(1e-6);
        let ml = AdditiveSchwarz::with_multilevel(
            &fx.problem.matrix,
            fx.subdomains.clone(),
            &MultilevelConfig { coarsest_max_size: 100 },
        )
        .unwrap();
        let levels = ml.coarse.as_ref().unwrap().num_levels();
        assert!(levels >= 2, "hierarchy should have coarsened, got {levels} levels");
        assert_eq!(ml.name(), format!("ddm-lu-ml{levels}"));

        // Symmetry (PCG requirement).
        let n = fx.problem.num_unknowns();
        let y: Vec<f64> = (0..n).map(|i| ((i * 3 % 13) as f64) - 6.0).collect();
        let w: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) * 0.4).collect();
        let mut my = vec![0.0; n];
        let mut mw = vec![0.0; n];
        ml.apply(&y, &mut my);
        ml.apply(&w, &mut mw);
        let lhs = sparse::vector::dot(&w, &my);
        let rhs = sparse::vector::dot(&y, &mw);
        assert!((lhs - rhs).abs() < 1e-8 * lhs.abs().max(1.0));

        // Converges at least as fast as the Nicolaides two-level method.
        let two =
            AdditiveSchwarz::new(&fx.problem.matrix, fx.subdomains.clone(), AsmLevel::TwoLevel)
                .unwrap();
        let r_ml = preconditioned_conjugate_gradient(
            &fx.problem.matrix,
            &fx.problem.rhs,
            None,
            &ml,
            &opts,
        );
        let r_two = preconditioned_conjugate_gradient(
            &fx.problem.matrix,
            &fx.problem.rhs,
            None,
            &two,
            &opts,
        );
        assert!(r_ml.stats.converged() && r_two.stats.converged());
        assert!(
            r_ml.stats.iterations <= r_two.stats.iterations + 2,
            "multilevel {} vs two-level {}",
            r_ml.stats.iterations,
            r_two.stats.iterations
        );
        assert!(sparse::vector::relative_error(&r_ml.x, &r_two.x) < 1e-4);
    }

    #[test]
    fn multiplicative_apply_over_a_hierarchy_that_does_not_coarsen_is_its_exact_solve() {
        // A coarsest size above n leaves one level, a direct solve with no
        // fine-level operator to form residuals with: the composition is the
        // exact solve `A⁻¹ r`, to rounding.
        let fx = fixture(700, 250, 2);
        let a = &fx.problem.matrix;
        let config = MultilevelConfig { coarsest_max_size: a.nrows() };
        let ml = AdditiveSchwarz::with_multilevel(a, fx.subdomains.clone(), &config).unwrap();
        assert_eq!(ml.coarse.as_ref().unwrap().num_levels(), 1);
        assert_eq!(ml.name(), "ddm-lu-ml1");
        let mut z = vec![0.0; a.nrows()];
        ml.apply(&fx.problem.rhs, &mut z);
        let exact = sparse::SkylineCholesky::factor(a).unwrap().solve(&fx.problem.rhs).unwrap();
        let error = sparse::vector::relative_error(&z, &exact);
        assert!(error < 1e-12, "relative error {error:e}");
    }

    #[test]
    fn asm_level_multilevel_uses_default_config() {
        let fx = fixture(1200, 300, 2);
        let level = AsmLevel::Multilevel(MultilevelConfig::default());
        let ml = AdditiveSchwarz::new(&fx.problem.matrix, fx.subdomains.clone(), level).unwrap();
        assert!(ml.coarse.is_some());
        assert!(ml.name().starts_with("ddm-lu-ml"));
        let opts = SolverOptions::with_tolerance(1e-6);
        let r = preconditioned_conjugate_gradient(
            &fx.problem.matrix,
            &fx.problem.rhs,
            None,
            &ml,
            &opts,
        );
        assert!(r.stats.converged());
    }

    #[test]
    fn preconditioner_name_reflects_level() {
        let fx = fixture(500, 200, 2);
        let one =
            AdditiveSchwarz::new(&fx.problem.matrix, fx.subdomains.clone(), AsmLevel::OneLevel)
                .unwrap();
        let two =
            AdditiveSchwarz::new(&fx.problem.matrix, fx.subdomains.clone(), AsmLevel::TwoLevel)
                .unwrap();
        assert_eq!(one.name(), "ddm-lu-1level");
        assert_eq!(two.name(), "ddm-lu-2level");
        let level = AsmLevel::Multilevel(MultilevelConfig { coarsest_max_size: 100 });
        let ml = AdditiveSchwarz::new(&fx.problem.matrix, fx.subdomains.clone(), level).unwrap();
        let levels = ml.coarse.as_ref().unwrap().num_levels();
        assert_eq!(ml.name(), format!("ddm-lu-ml{levels}"));
        assert_eq!(one.dim(), fx.problem.num_unknowns());
        assert!(one.local_solves().len() >= 2);
    }

    #[test]
    fn pooled_scratches_stay_bounded() {
        // One scratch per job running at once, not one per sub-domain.  (That
        // a scratch carries no history is checked by ddm-gnn's shell contract.)
        let fx = fixture(1500, 150, 2);
        let asm =
            AdditiveSchwarz::new(&fx.problem.matrix, fx.subdomains.clone(), AsmLevel::OneLevel)
                .unwrap();
        let r = fx.problem.rhs.as_slice();
        let mut zs = vec![vec![0.0; r.len()]; 3];
        for b in [1, 3, 1] {
            let mut z_refs: Vec<&mut [f64]> = zs[..b].iter_mut().map(Vec::as_mut_slice).collect();
            asm.apply_batch(&vec![r; b], &mut z_refs);
        }
        let made = asm.scratch_count();
        assert!((1..=rayon::current_num_threads() + 1).contains(&made), "{made} scratches");
    }

    #[test]
    fn wrong_length_column_in_a_batched_ladder_apply_is_a_numerical_error() {
        // The ladder checks every column's length before the shell sees the
        // batch, so a short column is a classified error (not a panic inside
        // a rayon worker) and the whole batch falls back to the identity.
        let fx = fixture(700, 250, 2);
        let n = fx.problem.num_unknowns();
        let asm =
            AdditiveSchwarz::new(&fx.problem.matrix, fx.subdomains.clone(), AsmLevel::TwoLevel)
                .unwrap();
        let ladder = DegradationLadder::new(vec![Box::new(asm)]);
        let (good, short) = (vec![1.0; n], vec![1.0; n - 7]);
        let (mut z0, mut z1) = (vec![0.0; n], vec![0.0; n - 7]);
        ladder.apply_batch(
            &[good.as_slice(), short.as_slice()],
            &mut [z0.as_mut_slice(), z1.as_mut_slice()],
        );
        assert_eq!((z0, z1), (good, short), "identity fallback expected");
        let mut log = FaultLog::new();
        ladder.collect_faults(&mut log);
        assert_eq!(log.events().len(), 1, "{log:?}");
        assert_eq!(log.events()[0].kind, FaultKind::NumericalError);
        assert!(log.events()[0].detail.starts_with("column 1:"), "{log:?}");
    }
}
