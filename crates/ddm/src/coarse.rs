//! The Nicolaides coarse space and coarse problem (Eq. 7 and 13 of the paper).
//!
//! The coarse space has one degree of freedom per sub-domain.  Its basis
//! vectors are the partition-of-unity weighted indicator vectors of the
//! sub-domains: node `v` contributes `1 / multiplicity(v)` to every
//! sub-domain that contains it, so the basis sums to the constant vector —
//! the kernel direction the one-level method struggles with.
//!
//! `R₀` is stored as a sparse `K × N` CSR matrix (each row has one entry per
//! sub-domain node, not `N`), so the restriction `R₀ r` is a sparse SpMV and
//! the prolongation `R₀ᵀ v` a transposed scatter via
//! [`CsrMatrix::spmv_transpose_add_into`] — no dense basis vectors and no
//! temporaries.  The coarse operator `A₀ = R₀ A R₀ᵀ` is a small `K × K` dense
//! matrix assembled with the sparse Galerkin row-merge kernel and factored
//! with LU once per setup; `apply_into` reuses pre-sized scratch vectors so
//! the per-Krylov-iteration path is allocation-free.

use sanitizer::TrackedMutex;

use sparse::{CsrMatrix, DenseMatrix, LuFactor};

use crate::restriction::{node_multiplicity, Restriction};

/// Reusable coarse-solve buffers (`K`-sized, tiny; the `_b` panels grow to
/// `K × b` on the first batched apply).
struct CoarseScratch {
    rhs: Vec<f64>,
    sol: Vec<f64>,
    rhs_b: Vec<f64>,
    sol_b: Vec<f64>,
}

/// The assembled Nicolaides coarse space: sparse basis, coarse operator LU.
pub struct NicolaidesCoarseSpace {
    /// `R₀` as a sparse `K × N` matrix of partition-of-unity weights.
    r0: CsrMatrix,
    /// LU factorisation of `R₀ A R₀ᵀ`.
    factor: LuFactor,
    /// Pre-sized buffers for `apply_into`.
    scratch: TrackedMutex<CoarseScratch>,
}

impl NicolaidesCoarseSpace {
    /// Build the coarse space from the global matrix and the sub-domain
    /// restrictions.
    pub fn new(matrix: &CsrMatrix, restrictions: &[Restriction]) -> sparse::Result<Self> {
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
        let factor = LuFactor::factor_dense(&dense)?;
        let scratch = TrackedMutex::new(
            CoarseScratch {
                rhs: vec![0.0; k],
                sol: vec![0.0; k],
                rhs_b: Vec::new(),
                sol_b: Vec::new(),
            },
            "ddm::coarse::NicolaidesCoarseSpace::scratch",
        );
        Ok(NicolaidesCoarseSpace { r0, factor, scratch })
    }

    /// Number of coarse degrees of freedom (= number of sub-domains).
    pub fn dim(&self) -> usize {
        self.r0.nrows()
    }

    /// The sparse restriction matrix `R₀`.
    pub fn restriction_matrix(&self) -> &CsrMatrix {
        &self.r0
    }

    /// Apply the coarse correction `z_c = R₀ᵀ (R₀ A R₀ᵀ)⁻¹ R₀ r`, accumulating
    /// the result into `out`.
    ///
    /// A mismatched residual length is a classified `sparse::Result` error
    /// (not an `.expect` panic) so callers can route it into fault
    /// classification and keep the outer solve alive.
    pub fn apply_into(&self, r: &[f64], out: &mut [f64]) -> sparse::Result<()> {
        if r.len() != self.r0.ncols() || out.len() != self.r0.ncols() {
            return Err(sparse::SparseError::DimensionMismatch {
                op: "coarse correction",
                expected: (self.r0.ncols(), self.r0.ncols()),
                found: (r.len(), out.len()),
            });
        }
        // A panic elsewhere while the lock was held poisons the mutex, but the
        // guarded state has no invariant that a panic could break: both
        // buffers are fully overwritten (`spmv_into` / `solve_into`) before
        // being read, so recovering the guard is always safe.  Without this,
        // one panicked worker would permanently disable the coarse solve for
        // every subsequent apply.
        let mut guard = self.scratch.lock();
        let CoarseScratch { rhs, sol, .. } = &mut *guard;
        // coarse rhs = R0 r (sparse restriction)
        self.r0.spmv_into(r, rhs);
        self.factor.solve_into(rhs, sol)?;
        // out += R0ᵀ coarse_sol (sparse prolongation)
        self.r0.spmv_transpose_add_into(sol, out);
        Ok(())
    }

    /// Batched coarse correction: `outs[c] += R₀ᵀ A₀⁻¹ R₀ rs[c]` for every
    /// column, with the restriction and prolongation run as **blocked SpMM**
    /// — `R₀`'s sparse index/value streams are swept once for the whole batch
    /// instead of once per column.
    ///
    /// Each column accumulates its row sums in the same ascending-entry order
    /// as the unbatched [`NicolaidesCoarseSpace::apply_into`], so column `c`
    /// of the result is bit-identical to an unbatched apply of `rs[c]`.
    pub fn apply_batch_into(&self, rs: &[&[f64]], outs: &mut [&mut [f64]]) -> sparse::Result<()> {
        assert_eq!(rs.len(), outs.len(), "batched coarse apply: rs/outs column count mismatch");
        let b = rs.len();
        let n = self.r0.ncols();
        for (r, out) in rs.iter().zip(outs.iter()) {
            if r.len() != n || out.len() != n {
                return Err(sparse::SparseError::DimensionMismatch {
                    op: "coarse correction",
                    expected: (n, n),
                    found: (r.len(), out.len()),
                });
            }
        }
        let k = self.r0.nrows();
        let mut guard = self.scratch.lock();
        let CoarseScratch { rhs, sol, rhs_b, sol_b } = &mut *guard;
        rhs_b.resize(k * b, 0.0);
        sol_b.resize(k * b, 0.0);
        // Blocked restriction: one sweep over R₀ fills all b coarse rhs
        // columns (column-interleaved K × b panel).
        for i in 0..k {
            let (cols, vals) = self.r0.row(i);
            let row = &mut rhs_b[i * b..(i + 1) * b];
            row.fill(0.0);
            for (&g, &v) in cols.iter().zip(vals.iter()) {
                for (c, r) in rs.iter().enumerate() {
                    row[c] += v * r[g];
                }
            }
        }
        // The K × K LU solve stays per-column (contiguous gather/scatter):
        // the factor is tiny and cache-resident across the batch.
        for c in 0..b {
            for i in 0..k {
                rhs[i] = rhs_b[i * b + c];
            }
            self.factor.solve_into(rhs, sol)?;
            for i in 0..k {
                sol_b[i * b + c] = sol[i];
            }
        }
        // Blocked prolongation: one sweep over R₀ scatters all b columns.
        for i in 0..k {
            let (cols, vals) = self.r0.row(i);
            let row = &sol_b[i * b..(i + 1) * b];
            for (&g, &v) in cols.iter().zip(vals.iter()) {
                for (c, out) in outs.iter_mut().enumerate() {
                    // The unbatched prolongation skips exact-zero coarse
                    // coefficients; mirror that so `-0.0` outputs stay
                    // bit-identical.
                    if row[c] != 0.0 {
                        out[g] += v * row[c];
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::fixture;
    use crate::Decomposition;

    /// The coarse correction of `r`, accumulated into a zero vector.
    fn apply(coarse: &NicolaidesCoarseSpace, r: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; r.len()];
        coarse.apply_into(r, &mut out).unwrap();
        out
    }

    #[test]
    fn basis_is_a_partition_of_unity() {
        let fx = fixture(800, 200, 2);
        let decomp = Decomposition::new(&fx.problem.matrix, fx.subdomains.clone());
        let n = fx.problem.num_unknowns();
        let coarse = NicolaidesCoarseSpace::new(&fx.problem.matrix, &decomp.restrictions).unwrap();
        assert_eq!(coarse.dim(), decomp.num_subdomains());
        // Sum of basis rows = 1 everywhere (partition of unity).
        let r0 = coarse.restriction_matrix();
        let mut sum = vec![0.0; n];
        for i in 0..r0.nrows() {
            let (cols, vals) = r0.row(i);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                sum[c] += v;
            }
        }
        for &s in &sum {
            assert!((s - 1.0).abs() < 1e-12, "partition of unity violated: {s}");
        }
    }

    #[test]
    fn coarse_apply_is_symmetric_operator() {
        // zᵀ apply(y) == yᵀ apply(z) because R0ᵀ A0⁻¹ R0 is symmetric.
        let fx = fixture(600, 200, 2);
        let decomp = Decomposition::new(&fx.problem.matrix, fx.subdomains.clone());
        let coarse = NicolaidesCoarseSpace::new(&fx.problem.matrix, &decomp.restrictions).unwrap();
        let n = fx.problem.num_unknowns();
        let y: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
        let z: Vec<f64> = (0..n).map(|i| ((i % 11) as f64) * 0.25).collect();
        let ay = apply(&coarse, &y);
        let az = apply(&coarse, &z);
        let lhs = sparse::vector::dot(&z, &ay);
        let rhs = sparse::vector::dot(&y, &az);
        assert!((lhs - rhs).abs() < 1e-8 * lhs.abs().max(1.0));
    }

    #[test]
    fn coarse_correction_captures_constant_like_error() {
        // The coarse space must represent (approximately) constant vectors:
        // applying the coarse correction to A * 1 should recover something
        // close to the constant vector on the interior.
        let fx = fixture(700, 200, 2);
        let decomp = Decomposition::new(&fx.problem.matrix, fx.subdomains.clone());
        let coarse = NicolaidesCoarseSpace::new(&fx.problem.matrix, &decomp.restrictions).unwrap();
        let n = fx.problem.num_unknowns();
        let ones = vec![1.0; n];
        let a_ones = fx.problem.matrix.spmv(&ones);
        let recovered = apply(&coarse, &a_ones);
        // Galerkin projection property: R0 A (recovered - ones) = 0, i.e. the
        // coarse residual of the recovered vector vanishes.
        let diff: Vec<f64> = recovered.iter().zip(ones.iter()).map(|(r, o)| r - o).collect();
        let a_diff = fx.problem.matrix.spmv(&diff);
        let coarse_residual = coarse.restriction_matrix().spmv(&a_diff);
        for proj in coarse_residual {
            assert!(proj.abs() < 1e-6, "coarse residual component {proj}");
        }
    }

    #[test]
    fn apply_into_is_repeatable_and_accumulates() {
        // Scratch reuse must not change results, and apply_into must add to
        // (not overwrite) the output vector.
        let fx = fixture(500, 180, 2);
        let decomp = Decomposition::new(&fx.problem.matrix, fx.subdomains.clone());
        let coarse = NicolaidesCoarseSpace::new(&fx.problem.matrix, &decomp.restrictions).unwrap();
        let n = fx.problem.num_unknowns();
        let r: Vec<f64> = (0..n).map(|i| ((i * 5 % 17) as f64) * 0.3 - 2.0).collect();
        let first = apply(&coarse, &r);
        let second = apply(&coarse, &r);
        assert_eq!(first, second, "scratch reuse changed the result");
        let mut acc = first.clone();
        coarse.apply_into(&r, &mut acc).unwrap();
        for (a, f) in acc.iter().zip(first.iter()) {
            assert!((a - 2.0 * f).abs() < 1e-12);
        }
    }

    #[test]
    fn apply_survives_poisoned_scratch_mutex() {
        // A panic while the scratch lock is held poisons the mutex.  The
        // coarse solve must recover (the buffers carry no cross-call state)
        // and keep producing the exact same corrections as before the panic.
        let fx = fixture(500, 180, 2);
        let decomp = Decomposition::new(&fx.problem.matrix, fx.subdomains.clone());
        let coarse = NicolaidesCoarseSpace::new(&fx.problem.matrix, &decomp.restrictions).unwrap();
        let n = fx.problem.num_unknowns();
        let r: Vec<f64> = (0..n).map(|i| ((i * 3 % 13) as f64) * 0.5 - 1.5).collect();
        let before = apply(&coarse, &r);

        // Deliberately poison: panic while holding the scratch guard.
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = coarse.scratch.lock();
            panic!("deliberate poison");
        }));
        assert!(poison.is_err());
        assert!(coarse.scratch.is_poisoned(), "test setup failed to poison the mutex");

        // The next apply must neither panic nor change its answer.
        let after = apply(&coarse, &r);
        assert_eq!(before, after, "poison recovery changed the coarse correction");
    }
}
