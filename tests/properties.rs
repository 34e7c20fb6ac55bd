//! Property-based tests on the core numerical invariants, spanning crates.
//!
//! The suite is deterministic and CI-bounded by construction: every test runs
//! a fixed small number of cases (`with_cases(24)` below) on sub-50-unknown
//! systems or on preconditioners of at most ~1500 unknowns built once per
//! binary, and the vendored proptest shim derives each test's RNG stream
//! from a fixed workspace seed plus the test name, so runs are reproducible
//! machine to machine (no `proptest-regressions/` churn).  Set
//! `PROPTEST_SEED=<u64>` to explore a different deterministic stream.

use ddm_gnn_suite::*;

use proptest::prelude::*;
use sparse::{CooMatrix, CsrMatrix};

use std::sync::{Arc, OnceLock};

use krylov::Preconditioner;

/// Shared fixture for the batched-apply properties: one small decomposed
/// problem and the DDM-GNN preconditioner at every precision, built once.
struct BatchedApplyFixture {
    problem: fem::PoissonProblem,
    f64_precond: ddm_gnn::DdmGnnPreconditioner,
    f32_precond: ddm_gnn::DdmGnnPreconditioner,
    int8_precond: ddm_gnn::DdmGnnPreconditioner,
}

fn batched_apply_fixture() -> &'static BatchedApplyFixture {
    static FIXTURE: OnceLock<BatchedApplyFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let model = Arc::new(ddm_gnn::load_pretrained().expect("the shipped model in assets/"));
        let problem = ddm_gnn::generate_problem(816, 600);
        let subdomains = partition::partition_mesh_with_overlap(&problem.mesh, 150, 2, 0);
        let build = |precision| {
            ddm_gnn::DdmGnnPreconditioner::with_precision(
                &problem,
                subdomains.clone(),
                Arc::clone(&model),
                true,
                precision,
            )
            .expect("preconditioner setup")
        };
        let f64_precond = build(ddm_gnn::Precision::F64);
        let f32_precond = build(ddm_gnn::Precision::F32);
        let int8_precond = build(ddm_gnn::Precision::Int8);
        BatchedApplyFixture { problem, f64_precond, f32_precond, int8_precond }
    })
}

/// The multi-level DDM-LU shell (V-cycle, local phase, V-cycle) on two
/// problem sizes, built once: n ≈ 600 and n ≈ 1500.
fn multilevel_shells() -> &'static [ddm::AdditiveSchwarz; 2] {
    static SHELLS: OnceLock<[ddm::AdditiveSchwarz; 2]> = OnceLock::new();
    SHELLS.get_or_init(|| {
        [(817, 600), (818, 1500)].map(|(seed, target)| {
            let problem = ddm_gnn::generate_problem(seed, target);
            let subdomains = partition::partition_mesh_with_overlap(&problem.mesh, 150, 2, 0);
            let config = ddm::MultilevelConfig { coarsest_max_size: 60 };
            let shell = ddm::AdditiveSchwarz::with_multilevel(&problem.matrix, subdomains, &config)
                .expect("multi-level DDM-LU setup");
            assert!(shell.name().starts_with("ddm-lu-ml"), "{}", shell.name());
            assert_ne!(shell.name(), "ddm-lu-ml1", "the hierarchy must coarsen");
            shell
        })
    })
}

/// `Mx` for a preconditioner `M`.
fn apply(m: &dyn Preconditioner, x: &[f64]) -> Vec<f64> {
    let mut mx = vec![0.0; x.len()];
    m.apply(x, &mut mx);
    mx
}

/// `⟨Mx, y⟩` and `⟨x, My⟩` for a preconditioner `M`.
fn both_pairings(m: &dyn Preconditioner, x: &[f64], y: &[f64]) -> (f64, f64) {
    (sparse::vector::dot(&apply(m, x), y), sparse::vector::dot(x, &apply(m, y)))
}

/// `Mx` and `M(−x)` for a preconditioner `M`.
fn both_signs(m: &dyn Preconditioner, x: &[f64]) -> (Vec<f64>, Vec<f64>) {
    (apply(m, x), apply(m, &x.iter().map(|v| -v).collect::<Vec<_>>()))
}

/// Print how far the DSS tier of the shipped model under the multi-level
/// V-cycle is from symmetric, `|⟨Mx,y⟩ − ⟨x,My⟩| / |⟨Mx,y⟩|`, and from odd,
/// `‖M(−x) + Mx‖ / ‖Mx‖`, over a few vectors.  A linear operator has
/// neither defect; the network's is why PCG must be flexible.  They are
/// printed (run with `--nocapture`), not asserted.
#[test]
fn dss_tier_asymmetry_and_oddness_under_the_v_cycle() {
    let model = Arc::new(ddm_gnn::load_pretrained().expect("the shipped model in assets/"));
    let problem = ddm_gnn::generate_problem(817, 600);
    let subdomains = partition::partition_mesh_with_overlap(&problem.mesh, 150, 2, 0);
    let config = ddm::MultilevelConfig { coarsest_max_size: 60 };
    let precision = ddm_gnn::Precision::F64;
    let dss = ddm_gnn::DdmGnnPreconditioner::with_multilevel_coarse(
        &problem, subdomains, model, &config, precision,
    )
    .expect("DDM-GNN setup");
    let (asymmetry, oddness): (Vec<String>, Vec<String>) = (0..4u64)
        .map(|seed| {
            let v = batch_residuals(problem.num_unknowns(), 2, seed);
            let (mxy, xmy) = both_pairings(&dss, &v[0], &v[1]);
            let (mx, m_minus_x) = both_signs(&dss, &v[0]);
            let sum: Vec<f64> = mx.iter().zip(&m_minus_x).map(|(a, b)| a + b).collect();
            let odd = sparse::vector::norm2(&sum) / sparse::vector::norm2(&mx);
            (format!("{:.2e}", (mxy - xmy).abs() / mxy.abs()), format!("{odd:.2e}"))
        })
        .unzip();
    let (asymmetry, oddness) = (asymmetry.join(" "), oddness.join(" "));
    println!("{}: relative asymmetry {asymmetry}, oddness defect {oddness}", dss.name());
}

/// `b` deterministic pseudo-random residual vectors derived from a seed.
fn batch_residuals(n: usize, b: usize, seed: u64) -> Vec<Vec<f64>> {
    (0..b)
        .map(|c| {
            (0..n)
                .map(|i| ((i as f64) * 0.37 + (seed as f64) * 1.73 + (c as f64) * 5.11).sin())
                .collect()
        })
        .collect()
}

/// Build a random sparse SPD matrix of size `n`: diagonally dominant with
/// random symmetric off-diagonal couplings.
fn random_spd(n: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    let mut diag = vec![1.0; n];
    for &(i, j, v) in entries {
        let (i, j) = (i % n, j % n);
        if i == j {
            continue;
        }
        coo.push(i, j, -v.abs()).unwrap();
        coo.push(j, i, -v.abs()).unwrap();
        diag[i] += v.abs();
        diag[j] += v.abs();
    }
    for (i, &d) in diag.iter().enumerate() {
        coo.push(i, i, d).unwrap();
    }
    coo.to_csr()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CG solves every diagonally dominant SPD system to the requested
    /// tolerance.
    #[test]
    fn cg_solves_random_spd_systems(
        entries in proptest::collection::vec((0usize..30, 0usize..30, 0.1f64..2.0), 10..60),
        rhs_seed in 0u64..1000,
    ) {
        let n = 30;
        let a = random_spd(n, &entries);
        let b: Vec<f64> = (0..n).map(|i| (((i as u64 + rhs_seed) * 37 % 23) as f64) - 11.0).collect();
        let result = krylov::conjugate_gradient(&a, &b, None, &krylov::SolverOptions::with_tolerance(1e-10));
        prop_assert!(result.stats.converged());
        prop_assert!(krylov::true_relative_residual(&a, &result.x, &b) < 1e-8);
    }

    /// The sparse Cholesky factorisation agrees with dense LU on random SPD
    /// systems.
    #[test]
    fn cholesky_matches_lu(
        entries in proptest::collection::vec((0usize..25, 0usize..25, 0.1f64..2.0), 10..50),
    ) {
        let n = 25;
        let a = random_spd(n, &entries);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let chol = sparse::SkylineCholesky::factor(&a).unwrap();
        let lu = sparse::LuFactor::factor_csr(&a).unwrap();
        let x1 = chol.solve(&b).unwrap();
        let x2 = lu.solve(&b).unwrap();
        prop_assert!(sparse::vector::relative_error(&x1, &x2) < 1e-8);
    }

    /// Restriction/extension round trips: extending a local vector and
    /// restricting it back is the identity on the sub-domain.
    #[test]
    fn restriction_extension_roundtrip(
        raw_indices in proptest::collection::btree_set(0usize..50, 1..20),
        values in proptest::collection::vec(-10.0f64..10.0, 20),
    ) {
        let indices: Vec<usize> = raw_indices.into_iter().collect();
        let r = ddm::Restriction::new(indices.clone(), 50);
        let local: Vec<f64> = values.iter().take(indices.len()).copied().collect();
        let mut global = vec![0.0; 50];
        for (&l, &g) in local.iter().zip(r.indices()) {
            global[g] += l;
        }
        let back = r.restrict(&global);
        prop_assert_eq!(back, local);
    }

    /// Partitions always cover every node, use every part index at most once
    /// per node and produce sub-domains whose union is the whole graph after
    /// overlap growth.
    #[test]
    fn partition_covers_mesh(seed in 0u64..50, target in 80usize..220) {
        let domain = meshgen::RandomBlobDomain::generate(seed, 12, 1.0);
        let h = meshgen::generator::element_size_for_target_nodes(&domain, 600);
        let mesh = meshgen::generate_mesh(&domain, &meshgen::MeshingOptions::with_element_size(h).seed(seed));
        let subdomains = partition::partition_mesh_with_overlap(&mesh, target, 2, seed);
        let mut covered = vec![false; mesh.num_nodes()];
        for sd in &subdomains {
            for &v in sd {
                prop_assert!(v < mesh.num_nodes());
                covered[v] = true;
            }
        }
        prop_assert!(covered.into_iter().all(|c| c));
    }

    /// The Galerkin kernel gives the same bits on a restriction with
    /// explicitly stored zeros as on the same rows with the zeros dropped:
    /// the products they add are signed zeros, which cannot change a sum
    /// that starts from `+0.0`.
    #[test]
    fn galerkin_wrapper_matches_csr_on_explicit_zeros(
        entries in proptest::collection::vec((0usize..20, 0usize..20, 0.1f64..2.0), 10..40),
        r_entries in proptest::collection::vec((0usize..4, 0usize..20, -2.0f64..2.0), 8..30),
        zero_every in 2usize..5,
    ) {
        let n = 20;
        let k = 4;
        let a = random_spd(n, &entries);
        // Dense rows with a sprinkling of exact zeros at regular positions.
        let mut rows = vec![vec![0.0f64; n]; k];
        for (idx, &(i, j, v)) in r_entries.iter().enumerate() {
            rows[i % k][j % n] = if idx % zero_every == 0 { 0.0 } else { v };
        }
        // The rows as CSR, with every nonzero stored, plus (`keep_zeros`) a
        // guaranteed explicit zero per row.
        let to_csr = |keep_zeros: bool| {
            let mut row_ptr = vec![0usize];
            let mut col_idx = Vec::new();
            let mut values = Vec::new();
            for row in &rows {
                for (j, &v) in row.iter().enumerate() {
                    if v != 0.0 || (keep_zeros && j % 7 == 0) {
                        col_idx.push(j);
                        values.push(v);
                    }
                }
                row_ptr.push(col_idx.len());
            }
            CsrMatrix::from_raw_parts(k, n, row_ptr, col_idx, values).unwrap()
        };
        let r_csr = to_csr(true);
        prop_assert!(r_csr.values().contains(&0.0), "fixture must contain explicit zeros");
        let dropped = a.galerkin_rap(&to_csr(false));
        let kept = a.galerkin_rap(&r_csr);
        for (i, j) in (0..k).flat_map(|i| (0..k).map(move |j| (i, j))) {
            prop_assert_eq!(dropped.get(i, j).to_bits(), kept.get(i, j).to_bits());
        }
    }

    /// The batched preconditioner apply extends the standing bit-determinism
    /// result: for every batch width b ∈ {1..8} and random residual panel,
    /// column `c` of `apply_batch` is **bit-identical** to a sequential
    /// `apply` on that column alone (f64 engine).
    #[test]
    fn f64_apply_batch_is_bit_identical_to_sequential_applies(
        b in 1usize..9,
        seed in 0u64..200,
    ) {
        let fx = batched_apply_fixture();
        let n = fx.problem.num_unknowns();
        let residuals = batch_residuals(n, b, seed);
        let rs: Vec<&[f64]> = residuals.iter().map(|r| r.as_slice()).collect();
        let mut batched = vec![vec![0.0f64; n]; b];
        {
            let mut zs: Vec<&mut [f64]> = batched.iter_mut().map(|z| z.as_mut_slice()).collect();
            fx.f64_precond.apply_batch(&rs, &mut zs);
        }
        let mut sequential = vec![0.0f64; n];
        for c in 0..b {
            fx.f64_precond.apply(&residuals[c], &mut sequential);
            for (i, (x, y)) in batched[c].iter().zip(sequential.iter()).enumerate() {
                prop_assert!(
                    x.to_bits() == y.to_bits(),
                    "b={} column {} entry {} differs: {} vs {}", b, c, i, x, y
                );
            }
        }
    }

    /// The f32 and int8 batched applies stay within the engines' standing
    /// parity bounds of the f64 reference (1e-4 / 1e-2 relative), and each
    /// column also matches its own unbatched apply bit for bit.
    #[test]
    fn reduced_precision_apply_batch_parity(
        b in 1usize..9,
        seed in 0u64..200,
    ) {
        let fx = batched_apply_fixture();
        let n = fx.problem.num_unknowns();
        let residuals = batch_residuals(n, b, seed);
        let rs: Vec<&[f64]> = residuals.iter().map(|r| r.as_slice()).collect();
        let mut reference = vec![0.0f64; n];
        let mut unbatched = vec![0.0f64; n];
        for (precond, bound) in
            [(&fx.f32_precond, 1e-4), (&fx.int8_precond, 1e-2)]
        {
            let mut batched = vec![vec![0.0f64; n]; b];
            {
                let mut zs: Vec<&mut [f64]> =
                    batched.iter_mut().map(|z| z.as_mut_slice()).collect();
                precond.apply_batch(&rs, &mut zs);
            }
            for c in 0..b {
                fx.f64_precond.apply(&residuals[c], &mut reference);
                let err = sparse::vector::relative_error(&batched[c], &reference);
                prop_assert!(
                    err < bound,
                    "b={} column {}: relative error {} exceeds {}", b, c, err, bound
                );
                precond.apply(&residuals[c], &mut unbatched);
                for (x, y) in batched[c].iter().zip(unbatched.iter()) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    /// With exact (Cholesky) local solves the multi-level shell (V-cycle,
    /// local phase, V-cycle) is a symmetric positive definite operator on
    /// both fixture sizes — and exactly odd, `M(−x) == −M(x)` entry by
    /// entry: every step is linear, and IEEE rounding is symmetric in sign.
    #[test]
    fn multilevel_shells_are_symmetric_positive(
        seed in 0u64..1000,
        shift in -1.0f64..1.0,
    ) {
        for shell in multilevel_shells() {
            let n = shell.dim();
            let v = batch_residuals(n, 2, seed);
            let x: Vec<f64> = v[0].iter().map(|x| x + shift).collect();
            let (mxy, xmy) = both_pairings(shell, &x, &v[1]);
            prop_assert!(
                (mxy - xmy).abs() <= 1e-8 * mxy.abs(),
                "{} at n={}: <Mx,y> = {} vs <x,My> = {}", shell.name(), n, mxy, xmy
            );
            let (mxx, _) = both_pairings(shell, &x, &x);
            prop_assert!(mxx > 0.0, "{} at n={}: <Mx,x> = {}", shell.name(), n, mxx);
            let (mx, m_minus_x) = both_signs(shell, &x);
            let odd = mx.iter().zip(&m_minus_x).all(|(a, b)| -a == *b);
            prop_assert!(odd, "{} at n={}: M(-x) != -M(x)", shell.name(), n);
        }
    }

    /// FEM assembly always yields a symmetric positive definite matrix with
    /// identity rows at Dirichlet nodes, for random domains and data.
    #[test]
    fn assembled_poisson_matrix_is_spd(seed in 0u64..40) {
        let problem = ddm_gnn::generate_problem(seed, 400);
        prop_assert!(problem.matrix.is_symmetric(1e-9));
        prop_assert!(sparse::SkylineCholesky::factor(&problem.matrix).is_ok());
        for i in 0..problem.num_unknowns() {
            if problem.dirichlet[i] {
                let (cols, vals) = problem.matrix.row(i);
                prop_assert_eq!(cols, &[i]);
                prop_assert_eq!(vals, &[1.0]);
            }
        }
    }
}
