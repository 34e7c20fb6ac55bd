//! The coarse component of the Schwarz preconditioners: one [`Hierarchy`]
//! type, built either as the Nicolaides coarse space or as a recursive
//! smoothed-aggregation AMG hierarchy.
//!
//! **Nicolaides** (`Hierarchy::nicolaides`, Eq. 7 and 13 of the paper) has
//! one degree of freedom per sub-domain.  Its basis vectors are the
//! partition-of-unity weighted indicator vectors of the sub-domains: node `v`
//! contributes `1 / multiplicity(v)` to every sub-domain that contains it, so
//! the basis sums to the constant vector — the kernel direction the one-level
//! method struggles with.  `R₀` is a sparse `K × N` CSR matrix, the coarse
//! operator `R₀ A R₀ᵀ` a small dense matrix factored with LU once per setup,
//! and the correction `R₀ᵀ (R₀ A R₀ᵀ)⁻¹ R₀ r` is scattered straight into the
//! output (an intermediate accumulator would re-round the additions the
//! committed two-level hashes pin).
//!
//! That single coarse solve caps out once it grows with the sub-domain
//! count: the dense LU is `O(K³)` and one constant per sub-domain is too weak
//! to keep PCG iteration counts flat as `n` grows.  **Smoothed aggregation**
//! ([`Hierarchy::build`]) replaces it with a classical AMG hierarchy:
//!
//! 1. **Strength of connection** — `j` is a strong neighbour of `i` when
//!    `|a_ij| ≥ θ √(a_ii a_jj)`.
//! 2. **Greedy uncoupled aggregation** (the Trilinos ML "Uncoupled"/MIS
//!    scheme): a first pass seeds an aggregate at every node whose strong
//!    neighbourhood is untouched, a second pass attaches leftovers to their
//!    strongest aggregated neighbour, a third pass turns stragglers into
//!    singletons.
//! 3. **Smoothed prolongation** — `P = (I − ω D⁻¹A) P_tent` with
//!    `ω = ω_f / λ_max(D⁻¹A)` and `λ_max` bounded by the (deterministic,
//!    iteration-free) Gershgorin estimate.  `R = Pᵀ` is stored as the CSR
//!    restriction, exactly like the Nicolaides `R₀`.
//! 4. **Galerkin coarsening** — `A_{ℓ+1} = R A_ℓ Rᵀ` by sparse SpGEMM
//!    ([`CsrMatrix::galerkin_rap`]), repeated until the coarsest operator is
//!    small enough for the existing skyline-Cholesky direct solve.
//!
//! Its [`Hierarchy::apply_into`] V-cycle (one weighted-Jacobi sweep before
//! and after each level, zero initial guess) is symmetric positive definite,
//! so either construction slots in additively as the coarse component of
//! the Schwarz shell ([`crate::Schwarz`]), whatever its local solve, without
//! breaking PCG theory.
//!
//! **Determinism contract.** Everything here is sequential or runs through
//! the fixed-chunk SpMV kernels, so results are bit-identical at every thread
//! count.

use sanitizer::TrackedMutex;

use sparse::{CsrMatrix, DenseMatrix, LuFactor, SkylineCholesky};

use crate::restriction::{node_multiplicity, Restriction};

/// Strength-of-connection threshold `θ` in `|a_ij| ≥ θ √(a_ii a_jj)`, applied
/// at the finest level and **halved at each coarser level**: the Galerkin
/// operators grow denser stencils whose individual couplings are
/// proportionally smaller, so a fixed threshold eventually classifies every
/// coupling as weak and stalls coarsening.
const THETA: f64 = 0.08;
/// Prolongator damping numerator: `ω = OMEGA_FACTOR / λ_max(D⁻¹A)` (the
/// classical smoothed-aggregation choice).
const OMEGA_FACTOR: f64 = 4.0 / 3.0;
/// Damping weight of the Jacobi smoother sweeps.
const JACOBI_WEIGHT: f64 = 2.0 / 3.0;
/// Hard cap on the number of levels (including fine and coarsest).
const MAX_LEVELS: usize = 12;

/// Scalar precision of the smoother sweeps (the V-cycle glue — restriction,
/// prolongation, coarse solve — always stays f64).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmootherPrecision {
    /// Full double-precision sweeps.
    F64,
    /// The per-row residual of each Jacobi sweep is accumulated in f32 over
    /// f32 copies of the matrix values and inverse diagonal; the iterate
    /// stays f64.  Halves the smoother's memory traffic at a ~1e-7 relative
    /// perturbation the flexible outer Krylov method absorbs.
    F32,
}

/// Configuration of [`Hierarchy::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultilevelConfig {
    /// Smoother sweep precision.
    pub smoother_precision: SmootherPrecision,
    /// Coarsening stops once the operator has at most this many rows.
    pub coarsest_max_size: usize,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        MultilevelConfig { smoother_precision: SmootherPrecision::F64, coarsest_max_size: 400 }
    }
}

/// Per-level weighted-Jacobi smoother data.  The matrix structure is shared
/// with the level's operator; only value copies at reduced precision are
/// stored here.
enum LevelSmoother {
    Jacobi { inv_diag: Vec<f64> },
    JacobiF32 { values: Vec<f32>, inv_diag: Vec<f32> },
}

/// One non-coarsest level: its operator, the restriction to the next level
/// and the smoother.
struct Level {
    a: CsrMatrix,
    /// Restriction `R = Pᵀ` to the next coarser level (`n_{ℓ+1} × n_ℓ`).
    r: CsrMatrix,
    smoother: LevelSmoother,
}

/// Direct solver for the coarsest operator.
enum CoarseSolve {
    /// RCM + skyline Cholesky (the default for the SPD Galerkin operators).
    Cholesky(SkylineCholesky),
    /// Dense LU: the Nicolaides factorisation, and the fallback for Galerkin
    /// operators that defeat the Cholesky.
    DenseLu(LuFactor),
}

impl CoarseSolve {
    fn factor(a: &CsrMatrix) -> sparse::Result<Self> {
        match SkylineCholesky::factor(a) {
            Ok(chol) => Ok(CoarseSolve::Cholesky(chol)),
            Err(_) => {
                // Galerkin RAP of an SPD fine operator is SPD whenever P has
                // full column rank; keep a dense-LU fallback for inputs that
                // defeat the Cholesky (e.g. near-singular coarse operators).
                Ok(CoarseSolve::DenseLu(LuFactor::factor_csr(a)?))
            }
        }
    }

    fn solve_into(&self, b: &[f64], work: &mut Vec<f64>, out: &mut [f64]) {
        match self {
            CoarseSolve::Cholesky(chol) => chol
                .solve_scratch(b, work, out)
                // detlint::allow(panic-in-guarded): b/out are sized by the hierarchy itself, so the dimension check cannot fail
                .expect("coarse Cholesky solve dimension mismatch cannot happen"),
            CoarseSolve::DenseLu(lu) => {
                // detlint::allow(panic-in-guarded): b/out are sized by the hierarchy itself, so the dimension check cannot fail
                lu.solve_into(b, out).expect("coarse LU solve dimension mismatch cannot happen")
            }
        }
    }
}

/// Reusable per-apply buffers: one `(x, b, tmp)` triple per non-coarsest
/// level, an `(x, b)` pair for the coarsest, and the Cholesky work vector.
pub(crate) struct HierarchyScratch {
    /// Iterate per level (index `ℓ < L-1`), plus the coarsest solution last.
    xs: Vec<Vec<f64>>,
    /// Right-hand side per level, plus the coarsest rhs last.
    bs: Vec<Vec<f64>>,
    /// Residual buffer per non-coarsest level.
    tmps: Vec<Vec<f64>>,
    /// Direct-solver work vector.
    work: Vec<f64>,
}

/// The assembled coarse component: per-level `(A_ℓ, R_ℓ, smoother_ℓ)` plus
/// the coarsest direct factorisation, or the Nicolaides `R₀` and its LU.
pub struct Hierarchy {
    /// Smoothed V-cycle levels, fine to coarse (none for Nicolaides).
    levels: Vec<Level>,
    /// The Nicolaides restriction `R₀` straight onto the coarsest space: set
    /// by [`Hierarchy::nicolaides`], whose apply never forms a fine-level
    /// residual and so stores neither the fine operator nor `n`-long buffers.
    pub(crate) r0: Option<CsrMatrix>,
    coarse: CoarseSolve,
    pub(crate) scratch: TrackedMutex<HierarchyScratch>,
    /// Row counts per level, fine to coarse (length = number of levels).
    level_dims: Vec<usize>,
    /// `Σ_ℓ nnz(A_ℓ) / nnz(A_0)` — the classical AMG operator complexity.
    operator_complexity: f64,
}

impl Hierarchy {
    /// Build a smoothed-aggregation hierarchy over `matrix`.
    ///
    /// Coarsening stops at `config.coarsest_max_size` rows, at `MAX_LEVELS`
    /// levels, or as soon as an aggregation pass fails to shrink the operator
    /// (whichever comes first); the final operator is factored directly.
    pub fn build(matrix: &CsrMatrix, config: &MultilevelConfig) -> sparse::Result<Self> {
        assert_eq!(matrix.nrows(), matrix.ncols(), "hierarchy needs a square operator");
        let mut total_nnz = matrix.nnz();
        let mut level_dims = vec![matrix.nrows()];
        let mut levels: Vec<Level> = Vec::new();
        let mut a = matrix.clone();
        while a.nrows() > config.coarsest_max_size && level_dims.len() < MAX_LEVELS {
            // Halve the strength threshold at each coarser level (see
            // `THETA`): RAP stencils get denser while individual couplings
            // shrink, so the finest-level threshold is too strict.
            let theta = THETA * 0.5f64.powi(levels.len() as i32);
            let (agg, num_agg) = aggregate(&a, theta);
            if num_agg >= a.nrows() {
                // Aggregation made no progress (e.g. a diagonal operator):
                // stop coarsening and factor what we have.
                break;
            }
            let r = smoothed_restriction(&a, &agg, num_agg);
            let a_coarse = a.galerkin_rap(&r);
            total_nnz += a_coarse.nnz();
            let smoother = build_smoother(&a, config.smoother_precision);
            levels.push(Level { a, r, smoother });
            level_dims.push(a_coarse.nrows());
            a = a_coarse;
        }
        let coarse = CoarseSolve::factor(&a)?;
        Ok(Self::assemble(levels, None, coarse, level_dims, total_nnz, matrix.nnz()))
    }

    /// The Nicolaides coarse space over the sub-domain `restrictions`: the
    /// partition-of-unity restriction `R₀`, a dense-LU solve of `R₀ A R₀ᵀ`,
    /// and no smoothing.
    pub(crate) fn nicolaides(
        matrix: &CsrMatrix,
        restrictions: &[Restriction],
    ) -> sparse::Result<Self> {
        let n = matrix.nrows();
        let k = restrictions.len();
        assert!(k > 0, "coarse space needs at least one sub-domain");
        let mult = node_multiplicity(restrictions, n);
        // Restriction indices are sorted and unique, so the rows can be
        // emitted directly in CSR order.
        let mut row_ptr = Vec::with_capacity(k + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in restrictions {
            for &g in r.indices() {
                col_idx.push(g);
                values.push(1.0 / mult[g].max(1) as f64);
            }
            row_ptr.push(col_idx.len());
        }
        let r0 = CsrMatrix::from_raw_parts(k, n, row_ptr, col_idx, values)?;
        // Coarse operator A0 = R0 A R0ᵀ (dense K × K).
        let a0 = matrix.galerkin_product_csr(&r0);
        let dense = DenseMatrix::from_row_major(k, k, a0)?;
        let coarse = CoarseSolve::DenseLu(LuFactor::factor_dense(&dense)?);
        Ok(Self::assemble(
            Vec::new(),
            Some(r0),
            coarse,
            vec![n, k],
            matrix.nnz() + k * k,
            matrix.nnz(),
        ))
    }

    fn assemble(
        levels: Vec<Level>,
        r0: Option<CsrMatrix>,
        coarse: CoarseSolve,
        level_dims: Vec<usize>,
        total_nnz: usize,
        fine_nnz: usize,
    ) -> Self {
        let coarsest = level_dims[level_dims.len() - 1];
        let mut xs: Vec<Vec<f64>> = levels.iter().map(|l| vec![0.0; l.a.nrows()]).collect();
        let mut bs = xs.clone();
        let tmps = xs.clone();
        xs.push(vec![0.0; coarsest]);
        bs.push(vec![0.0; coarsest]);
        Hierarchy {
            levels,
            r0,
            coarse,
            scratch: TrackedMutex::new(
                HierarchyScratch { xs, bs, tmps, work: Vec::new() },
                "ddm::multilevel::Hierarchy::scratch",
            ),
            level_dims,
            operator_complexity: total_nnz as f64 / fine_nnz.max(1) as f64,
        }
    }

    /// Number of levels, fine and coarsest included.
    pub fn num_levels(&self) -> usize {
        self.level_dims.len()
    }

    /// Row counts per level, fine to coarse.
    pub fn level_dims(&self) -> &[usize] {
        &self.level_dims
    }

    /// `Σ_ℓ nnz(A_ℓ) / nnz(A_0)`.
    pub fn operator_complexity(&self) -> f64 {
        self.operator_complexity
    }

    /// Fine-level dimension.
    pub fn dim(&self) -> usize {
        self.level_dims[0]
    }

    /// The coarse correction for `r` — one V-cycle on `A x = r` from a zero
    /// initial guess, or the Nicolaides solve — **accumulated** into `out`
    /// (`out += M⁻¹ r`), the additive-Schwarz coarse component contract.
    ///
    /// Panics on a wrong-length `r` or `out`; the `DegradationLadder` guard
    /// checks every column's length before a tier sees it and classifies a
    /// mismatch there.
    pub fn apply_into(&self, r: &[f64], out: &mut [f64]) {
        assert_eq!(r.len(), self.dim(), "apply_into: residual length mismatch");
        assert_eq!(out.len(), self.dim(), "apply_into: output length mismatch");
        // A panic elsewhere while the lock was held poisons the mutex, but the
        // guarded state has no invariant that a panic could break: every
        // buffer is fully overwritten before it is read, so recovering the
        // guard is always safe.  Without this, one panicked worker would
        // permanently disable the coarse solve for every subsequent apply.
        let mut guard = self.scratch.lock();
        let HierarchyScratch { xs, bs, tmps, work } = &mut *guard;

        if let Some(r0) = &self.r0 {
            // Restrict, dense solve, scatter straight into `out`.  Routing
            // through a fine-level iterate would re-round the scatter
            // additions (x = 0 + c₁ + c₂ then out += x is not
            // out += c₁ += c₂ in floating point).
            r0.spmv_into(r, &mut bs[0]);
            self.coarse.solve_into(&bs[0], work, &mut xs[0]);
            r0.spmv_transpose_add_into(&xs[0], out);
            return;
        }

        let num = self.levels.len();
        bs[0].copy_from_slice(r);
        // Downward sweep: pre-smooth from zero, restrict the residual.
        for l in 0..num {
            let lvl = &self.levels[l];
            smooth_from_zero(&lvl.smoother, &bs[l], &mut xs[l]);
            lvl.a.residual_into(&bs[l], &xs[l], &mut tmps[l]);
            let (_, bs_coarser) = bs.split_at_mut(l + 1);
            lvl.r.spmv_into(&tmps[l], &mut bs_coarser[0]);
        }
        // Coarsest direct solve.
        self.coarse.solve_into(&bs[num], work, &mut xs[num]);
        // Upward sweep: prolongate, post-smooth.
        for l in (0..num).rev() {
            let lvl = &self.levels[l];
            let (xs_fine, xs_coarser) = xs.split_at_mut(l + 1);
            lvl.r.spmv_transpose_add_into(&xs_coarser[0], &mut xs_fine[l]);
            smooth(&lvl.a, &lvl.smoother, &bs[l], &mut xs_fine[l], &mut tmps[l]);
        }
        for (o, &x) in out.iter_mut().zip(xs[0].iter()) {
            *o += x;
        }
    }
}

/// One weighted-Jacobi sweep (the same before and after coarsening, so the
/// whole V-cycle is a symmetric operator).
fn smooth(a: &CsrMatrix, s: &LevelSmoother, b: &[f64], x: &mut [f64], tmp: &mut [f64]) {
    match s {
        LevelSmoother::Jacobi { inv_diag } => jacobi_sweep(a, inv_diag, JACOBI_WEIGHT, b, x, tmp),
        LevelSmoother::JacobiF32 { values, inv_diag } => {
            jacobi_sweep_f32(a, values, inv_diag, JACOBI_WEIGHT as f32, b, x, tmp)
        }
    }
}

/// [`smooth`] from a zero iterate, without the product `A · 0`: the sweep's
/// own arithmetic on the residual `b − A·0`, which is exactly `b` for a
/// finite `A`, so the result has the bits of `x.fill(0.0)` plus [`smooth`]
/// at one SpMV less.  The `0.0 +` is the sweep's `x += …` onto the zero
/// iterate, and it is not a no-op: it turns a −0 update into +0.
fn smooth_from_zero(s: &LevelSmoother, b: &[f64], x: &mut [f64]) {
    match s {
        LevelSmoother::Jacobi { inv_diag } => {
            for i in 0..x.len() {
                x[i] = 0.0 + JACOBI_WEIGHT * inv_diag[i] * b[i];
            }
        }
        LevelSmoother::JacobiF32 { inv_diag, .. } => {
            let weight = JACOBI_WEIGHT as f32;
            for i in 0..x.len() {
                x[i] = 0.0 + (weight * inv_diag[i] * (b[i] as f32)) as f64;
            }
        }
    }
}

/// `x ← x + w D⁻¹ (b − A x)`.
fn jacobi_sweep(
    a: &CsrMatrix,
    inv_diag: &[f64],
    weight: f64,
    b: &[f64],
    x: &mut [f64],
    tmp: &mut [f64],
) {
    a.residual_into(b, x, tmp);
    for i in 0..x.len() {
        x[i] += weight * inv_diag[i] * tmp[i];
    }
}

/// The f32 Jacobi sweep: the per-row residual is accumulated in f32 over the
/// f32 value copy, the update is buffered in the caller's f64 scratch so the
/// sweep stays a true (simultaneous-update, hence symmetric) Jacobi step.
fn jacobi_sweep_f32(
    a: &CsrMatrix,
    values: &[f32],
    inv_diag: &[f32],
    weight: f32,
    b: &[f64],
    x: &mut [f64],
    tmp: &mut [f64],
) {
    let row_ptr = a.row_ptr();
    let col_idx = a.col_idx();
    for i in 0..x.len() {
        let mut acc = 0.0f32;
        for k in row_ptr[i]..row_ptr[i + 1] {
            acc += values[k] * (x[col_idx[k]] as f32);
        }
        let r = (b[i] as f32) - acc;
        tmp[i] = (weight * inv_diag[i] * r) as f64;
    }
    for (xi, &d) in x.iter_mut().zip(tmp.iter()) {
        *xi += d;
    }
}

fn build_smoother(a: &CsrMatrix, precision: SmootherPrecision) -> LevelSmoother {
    let diag = a.diagonal();
    match precision {
        SmootherPrecision::F64 => LevelSmoother::Jacobi {
            inv_diag: diag.iter().map(|&d| if d != 0.0 { 1.0 / d } else { 0.0 }).collect(),
        },
        SmootherPrecision::F32 => LevelSmoother::JacobiF32 {
            values: a.values().iter().map(|&v| v as f32).collect(),
            inv_diag: diag.iter().map(|&d| if d != 0.0 { (1.0 / d) as f32 } else { 0.0 }).collect(),
        },
    }
}

/// Greedy uncoupled aggregation over the strength-of-connection graph.
/// Returns the aggregate id of every node and the number of aggregates.
fn aggregate(a: &CsrMatrix, theta: f64) -> (Vec<usize>, usize) {
    let n = a.nrows();
    let diag = a.diagonal();
    const UNAGGREGATED: usize = usize::MAX;
    let mut agg = vec![UNAGGREGATED; n];
    let mut num_agg = 0usize;

    let is_strong = |i: usize, j: usize, v: f64| -> bool {
        j != i && v.abs() >= theta * (diag[i].abs() * diag[j].abs()).sqrt()
    };

    // Pass 1: seed an aggregate at every node whose strong neighbourhood is
    // non-empty and entirely untouched; the node and its strong neighbours
    // form it.  Nodes with no strong neighbour at all are left for pass 3 —
    // seeding them here would make every weakly-coupled node its own
    // aggregate and stall coarsening on the denser Galerkin operators.
    for i in 0..n {
        if agg[i] != UNAGGREGATED {
            continue;
        }
        let (cols, vals) = a.row(i);
        let mut free = true;
        let mut has_strong = false;
        for (&j, &v) in cols.iter().zip(vals.iter()) {
            if is_strong(i, j, v) {
                has_strong = true;
                if agg[j] != UNAGGREGATED {
                    free = false;
                    break;
                }
            }
        }
        if !has_strong || !free {
            continue;
        }
        agg[i] = num_agg;
        for (&j, &v) in cols.iter().zip(vals.iter()) {
            if is_strong(i, j, v) {
                agg[j] = num_agg;
            }
        }
        num_agg += 1;
    }

    // Pass 2: attach leftovers to the aggregate of their strongest
    // aggregated neighbour (deterministic tie-break: first in column order).
    let snapshot = agg.clone();
    for i in 0..n {
        if agg[i] != UNAGGREGATED {
            continue;
        }
        let (cols, vals) = a.row(i);
        let mut best: Option<(f64, usize)> = None;
        for (&j, &v) in cols.iter().zip(vals.iter()) {
            if is_strong(i, j, v) && snapshot[j] != UNAGGREGATED {
                let s = v.abs();
                if best.map(|(bs, _)| s > bs).unwrap_or(true) {
                    best = Some((s, snapshot[j]));
                }
            }
        }
        if let Some((_, target)) = best {
            agg[i] = target;
        }
    }

    // Pass 3: nodes with only weak couplings attach to the aggregate of
    // their largest neighbour by |a_ij| — couplings below the strength
    // threshold still carry information, and leaving these nodes as
    // singletons would stall coarsening.  The attachment targets are frozen
    // at the start of the pass so the result is order-independent.
    let snapshot = agg.clone();
    for i in 0..n {
        if agg[i] != UNAGGREGATED {
            continue;
        }
        let (cols, vals) = a.row(i);
        let mut best: Option<(f64, usize)> = None;
        for (&j, &v) in cols.iter().zip(vals.iter()) {
            if j != i && v != 0.0 && snapshot[j] != UNAGGREGATED {
                let s = v.abs();
                if best.map(|(bs, _)| s > bs).unwrap_or(true) {
                    best = Some((s, snapshot[j]));
                }
            }
        }
        if let Some((_, target)) = best {
            agg[i] = target;
        }
    }

    // Pass 4: truly isolated rows (e.g. Dirichlet identity rows).  When the
    // passes above produced genuine aggregates, lump every isolated row into
    // one shared aggregate: the rows are mutually decoupled, so the lumped
    // degree of freedom stays decoupled through the Galerkin product and only
    // trades the exact per-row coarse correction for a least-squares one the
    // smoother mops up.  Per-row singletons would instead put a hard floor
    // under the coarse dimension (one dof per Dirichlet node at *every*
    // level) and stall coarsening.  When nothing aggregated at all (a
    // diagonal operator), fall back to singletons so the caller sees
    // `num_agg == n` and stops coarsening gracefully.
    if num_agg > 0 {
        let mut lumped = false;
        for a_i in agg.iter_mut() {
            if *a_i == UNAGGREGATED {
                *a_i = num_agg;
                lumped = true;
            }
        }
        if lumped {
            num_agg += 1;
        }
    } else {
        for a_i in agg.iter_mut() {
            if *a_i == UNAGGREGATED {
                *a_i = num_agg;
                num_agg += 1;
            }
        }
    }

    (agg, num_agg)
}

/// Build the smoothed restriction `R = Pᵀ` with
/// `P = (I − ω D⁻¹A) P_tent`, assembled row-by-row directly over the
/// aggregate ids (no explicit `P_tent`, no general CSR subtraction):
/// `P[i, c] = δ_{c, agg(i)} − (ω/d_i) Σ_{j: agg(j)=c} a_ij`.
fn smoothed_restriction(a: &CsrMatrix, agg: &[usize], num_agg: usize) -> CsrMatrix {
    let n = a.nrows();
    let diag = a.diagonal();
    // Gershgorin bound on λ_max(D⁻¹A): max_i Σ_j |a_ij| / d_i.  Deterministic
    // and iteration-free; for the M-matrices produced by the FEM assembly it
    // overestimates by at most ~2×, which the `OMEGA_FACTOR` numerator absorbs.
    let mut lam_max = 0.0f64;
    for i in 0..n {
        let (_, vals) = a.row(i);
        let s: f64 = vals.iter().map(|v| v.abs()).sum();
        if diag[i] != 0.0 {
            lam_max = lam_max.max(s / diag[i].abs());
        }
    }
    let omega = if lam_max > 0.0 { OMEGA_FACTOR / lam_max } else { 0.0 };

    // Assemble P row-by-row with the shared row-merge accumulator, then
    // transpose once to get the stored restriction.
    let mut acc = vec![0.0f64; num_agg];
    let mut marked = vec![false; num_agg];
    let mut touched: Vec<usize> = Vec::new();
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    row_ptr.push(0);
    for i in 0..n {
        let mut note = |c: usize, w: f64, acc: &mut [f64]| {
            if !marked[c] {
                marked[c] = true;
                touched.push(c);
                acc[c] = 0.0;
            }
            acc[c] += w;
        };
        note(agg[i], 1.0, &mut acc);
        if omega != 0.0 && diag[i] != 0.0 {
            let scale = omega / diag[i];
            let (cols, vals) = a.row(i);
            for (&j, &v) in cols.iter().zip(vals.iter()) {
                if v != 0.0 {
                    note(agg[j], -scale * v, &mut acc);
                }
            }
        }
        touched.sort_unstable();
        for &c in &touched {
            col_idx.push(c);
            values.push(acc[c]);
            marked[c] = false;
        }
        row_ptr.push(col_idx.len());
        touched.clear();
    }
    let p = CsrMatrix::from_raw_parts(n, num_agg, row_ptr, col_idx, values)
        // detlint::allow(panic-in-guarded): construction-time assembly of rows built sorted and in-bounds above; not on the apply path
        .expect("smoothed prolongator assembly produced an invalid matrix; this is a bug");
    p.transpose()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::CooMatrix;

    /// One V-cycle on `r`, accumulated into a zero vector.
    fn apply(h: &Hierarchy, r: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; r.len()];
        h.apply_into(r, &mut out);
        out
    }

    /// 2D Laplacian on an `nx × ny` grid (5-point stencil, Dirichlet shifted
    /// onto the diagonal).
    fn laplacian_2d(nx: usize, ny: usize) -> CsrMatrix {
        let idx = |i: usize, j: usize| i * ny + j;
        let mut coo = CooMatrix::new(nx * ny, nx * ny);
        for i in 0..nx {
            for j in 0..ny {
                coo.push(idx(i, j), idx(i, j), 4.0).unwrap();
                if i + 1 < nx {
                    coo.push(idx(i, j), idx(i + 1, j), -1.0).unwrap();
                    coo.push(idx(i + 1, j), idx(i, j), -1.0).unwrap();
                }
                if j + 1 < ny {
                    coo.push(idx(i, j), idx(i, j + 1), -1.0).unwrap();
                    coo.push(idx(i, j + 1), idx(i, j), -1.0).unwrap();
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn aggregation_covers_every_node() {
        let a = laplacian_2d(20, 20);
        let (agg, k) = aggregate(&a, 0.08);
        assert!(k > 0 && k < a.nrows(), "aggregation must coarsen: k = {k}");
        for &g in &agg {
            assert!(g < k);
        }
        // Every aggregate is used.
        let mut used = vec![false; k];
        for &g in &agg {
            used[g] = true;
        }
        assert!(used.into_iter().all(|u| u));
    }

    #[test]
    fn three_level_hierarchy_on_small_laplacian() {
        // Debug-fast 3-level check: a 40×40 grid Laplacian coarsens to 3+
        // levels with the default config, the V-cycle is SPD-compatible and
        // PCG with it converges quickly.
        let a = laplacian_2d(40, 40);
        let config = MultilevelConfig { coarsest_max_size: 120, ..MultilevelConfig::default() };
        let h = Hierarchy::build(&a, &config).unwrap();
        assert!(h.num_levels() >= 3, "expected 3+ levels, got dims {:?}", h.level_dims());
        assert_eq!(h.dim(), a.nrows());
        // Dims strictly decrease.
        for w in h.level_dims().windows(2) {
            assert!(w[1] < w[0], "level dims must shrink: {:?}", h.level_dims());
        }
        assert!(h.operator_complexity() >= 1.0 && h.operator_complexity() < 3.0);

        // Symmetry of the V-cycle operator (required by PCG).
        let n = a.nrows();
        let y: Vec<f64> = (0..n).map(|i| ((i * 3 % 13) as f64) - 6.0).collect();
        let w: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) * 0.4).collect();
        let my = apply(&h, &y);
        let mw = apply(&h, &w);
        let lhs = sparse::vector::dot(&w, &my);
        let rhs = sparse::vector::dot(&y, &mw);
        assert!((lhs - rhs).abs() < 1e-8 * lhs.abs().max(1.0), "V-cycle not symmetric");
        // Positivity: yᵀ M⁻¹ y > 0.
        assert!(sparse::vector::dot(&y, &my) > 0.0, "V-cycle not positive definite");

        // As a standalone preconditioner it beats plain CG.
        let b: Vec<f64> = (0..n).map(|i| ((i % 17) as f64) * 0.25 - 2.0).collect();
        let opts = krylov::SolverOptions::with_tolerance(1e-8);
        let plain = krylov::conjugate_gradient(&a, &b, None, &opts);
        struct H<'a>(&'a Hierarchy);
        impl krylov::Preconditioner for H<'_> {
            fn apply(&self, r: &[f64], z: &mut [f64]) {
                z.fill(0.0);
                self.0.apply_into(r, z);
            }
            fn dim(&self) -> usize {
                self.0.dim()
            }
            fn name(&self) -> &str {
                "sa-vcycle"
            }
        }
        let pcg = krylov::preconditioned_conjugate_gradient(&a, &b, None, &H(&h), &opts);
        assert!(plain.stats.converged() && pcg.stats.converged());
        assert!(
            pcg.stats.iterations * 2 < plain.stats.iterations,
            "V-cycle PCG {} vs CG {}",
            pcg.stats.iterations,
            plain.stats.iterations
        );
    }

    #[test]
    fn f32_smoothing_stays_close_to_f64() {
        let a = laplacian_2d(24, 24);
        let base = MultilevelConfig { coarsest_max_size: 60, ..MultilevelConfig::default() };
        let h64 = Hierarchy::build(&a, &base).unwrap();
        let h32 = Hierarchy::build(
            &a,
            &MultilevelConfig { smoother_precision: SmootherPrecision::F32, ..base },
        )
        .unwrap();
        let n = a.nrows();
        let r: Vec<f64> = (0..n).map(|i| ((i * 3 % 23) as f64) * 0.5 - 5.0).collect();
        let z64 = apply(&h64, &r);
        let z32 = apply(&h32, &r);
        let scale = sparse::vector::norm2(&z64).max(1.0);
        let mut diff = 0.0f64;
        for (x, y) in z32.iter().zip(z64.iter()) {
            diff = diff.max((x - y).abs());
        }
        assert!(diff / scale < 1e-4, "f32 smoothing deviates too much: {}", diff / scale);
        assert!(sparse::vector::dot(&z32, &r) > 0.0);
    }

    #[test]
    fn sweep_from_zero_has_the_bits_of_a_full_sweep_on_a_zero_iterate() {
        let a = laplacian_2d(9, 7);
        let n = a.nrows();
        // Signed zeros included: the full sweep maps a −0 right-hand side to
        // a +0 iterate, and so must the shortcut.
        let b: Vec<f64> = (0..n)
            .map(|i| match i % 5 {
                0 => -0.0,
                1 => 0.0,
                _ => ((i * 7 % 19) as f64 - 9.0) * 0.37,
            })
            .collect();
        for precision in [SmootherPrecision::F64, SmootherPrecision::F32] {
            let s = build_smoother(&a, precision);
            let (mut full, mut tmp) = (vec![0.0; n], vec![0.0; n]);
            smooth(&a, &s, &b, &mut full, &mut tmp);
            let mut short = vec![f64::NAN; n];
            smooth_from_zero(&s, &b, &mut short);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&short), bits(&full), "{precision:?}");
            assert!(short.iter().all(|x| x.to_bits() != (-0.0f64).to_bits()));
        }
    }

    #[test]
    fn apply_survives_poisoned_scratch_mutex() {
        let a = laplacian_2d(16, 16);
        let h = Hierarchy::build(
            &a,
            &MultilevelConfig { coarsest_max_size: 40, ..MultilevelConfig::default() },
        )
        .unwrap();
        let n = a.nrows();
        let r: Vec<f64> = (0..n).map(|i| ((i * 7 % 29) as f64) - 14.0).collect();
        let before = apply(&h, &r);
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = h.scratch.lock();
            panic!("deliberate poison");
        }));
        assert!(poison.is_err());
        assert_eq!(before, apply(&h, &r), "poison recovery changed the V-cycle result");
    }

    #[test]
    fn diagonal_matrix_stops_coarsening_gracefully() {
        // A diagonal operator has no strong couplings: aggregation produces
        // n singletons and must bail out instead of looping forever.
        let a = CsrMatrix::identity(600);
        let h = Hierarchy::build(&a, &MultilevelConfig::default()).unwrap();
        assert_eq!(h.num_levels(), 1, "no coarsening possible on a diagonal operator");
        let r = vec![1.0; 600];
        let z = apply(&h, &r);
        for &v in &z {
            assert!((v - 1.0).abs() < 1e-12, "identity solve must return the rhs");
        }
    }
}
