//! Integration tests spanning the whole workspace: mesh generation → FEM
//! assembly → partitioning → Schwarz decomposition → GNN preconditioning →
//! hybrid PCG solve.

use std::sync::Arc;

use ddm_gnn_suite::*;

use ddm::{AdditiveSchwarz, AsmLevel};
use ddm_gnn::{HybridSolverConfig, Method, SolveOutcome};
use fem::PoissonProblem;
use gnn::DssModel;
use krylov::{preconditioned_conjugate_gradient, Preconditioner, SolverOptions};
use meshgen::{generate_mesh, FormulaOneDomain, MeshingOptions, RandomBlobDomain};
use partition::partition_mesh_with_overlap;

/// Build `method`'s preconditioner at `config` on the given decomposition and
/// drive it over `bs` — the two calls every solver variant goes through.
fn run(
    problem: &PoissonProblem,
    subdomains: &[Vec<usize>],
    method: Method,
    model: Option<&Arc<DssModel>>,
    config: &HybridSolverConfig,
    bs: &[&[f64]],
    opts: &SolverOptions,
) -> SolveOutcome {
    let precond = ddm_gnn::build_preconditioner(problem, subdomains, method, model, config)
        .expect("preconditioner setup");
    ddm_gnn::solve(&problem.matrix, bs, precond.as_deref(), opts)
}

/// The full numerical pipeline without any learned component: mesh a random
/// domain, assemble, partition, precondition with two-level ASM and solve.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "heavy end-to-end test: opt in with `cargo test --release -- --include-ignored`"
)]
fn full_pipeline_with_exact_local_solvers() {
    let domain = RandomBlobDomain::generate(3, 20, 1.0);
    let h = meshgen::generator::element_size_for_target_nodes(&domain, 1500);
    let mesh = generate_mesh(&domain, &MeshingOptions::with_element_size(h).seed(3));
    let problem = PoissonProblem::with_random_data(mesh, 1);
    let subdomains = partition_mesh_with_overlap(&problem.mesh, 300, 2, 0);
    assert!(subdomains.len() >= 3);

    let asm =
        AdditiveSchwarz::new(&problem.matrix, subdomains, AsmLevel::TwoLevel).expect("ASM setup");
    let opts = SolverOptions::with_tolerance(1e-8);
    let result =
        preconditioned_conjugate_gradient(&problem.matrix, &problem.rhs, None, &asm, &opts);
    assert!(result.stats.converged());
    assert!(krylov::true_relative_residual(&problem.matrix, &result.x, &problem.rhs) < 1e-7);

    // Cross-check against a direct solve.
    let chol = sparse::SkylineCholesky::factor(&problem.matrix).expect("SPD matrix");
    let exact = chol.solve(&problem.rhs).unwrap();
    assert!(sparse::vector::relative_error(&result.x, &exact) < 1e-5);
}

/// The hybrid solver with the shipped GNN model converges on a freshly
/// generated problem it has never seen, and the solution matches the
/// exact-preconditioner run.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "heavy end-to-end test: opt in with `cargo test --release -- --include-ignored`"
)]
fn hybrid_solver_end_to_end_on_unseen_problem() {
    let problem = ddm_gnn::generate_problem(12345, 1800);
    let model = Arc::new(ddm_gnn::load_pretrained().expect("the shipped model in assets/"));
    let subdomains = partition_mesh_with_overlap(&problem.mesh, 200, 2, 0);
    let opts = SolverOptions::with_tolerance(1e-6).max_iterations(5000);
    let config = HybridSolverConfig::default();
    let [gnn, lu] = [Method::DdmGnn, Method::DdmLu].map(|method| {
        run(&problem, &subdomains, method, Some(&model), &config, &[&problem.rhs], &opts)
    });
    assert!(gnn.stats().converged(), "hybrid solver must converge on unseen problems");
    assert!(lu.stats().converged());
    assert!(sparse::vector::relative_error(gnn.x(), lu.x()) < 1e-3);
    // The exact preconditioner is at least as good in iteration count.
    assert!(lu.stats().iterations <= gnn.stats().iterations);
}

/// Out-of-distribution geometry: the hybrid pipeline handles a domain with
/// holes (the Fig. 5 scenario at a reduced size).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "heavy end-to-end test: opt in with `cargo test --release -- --include-ignored`"
)]
fn formula_one_domain_with_holes_is_solvable() {
    let domain = FormulaOneDomain::new(1.0);
    let h = meshgen::generator::element_size_for_target_nodes(&domain, 2500);
    let mesh = generate_mesh(&domain, &MeshingOptions::with_element_size(h).seed(2));
    assert!(mesh.num_boundary_nodes() > 100, "holes must contribute boundary nodes");
    let problem = PoissonProblem::with_random_data(mesh, 9);
    let subdomains = partition_mesh_with_overlap(&problem.mesh, 250, 2, 0);
    let asm = AdditiveSchwarz::new(&problem.matrix, subdomains, AsmLevel::TwoLevel).unwrap();
    let result = preconditioned_conjugate_gradient(
        &problem.matrix,
        &problem.rhs,
        None,
        &asm,
        &SolverOptions::with_tolerance(1e-9),
    );
    assert!(result.stats.converged());
}

/// Out-of-distribution sub-domain sizes (the Table I ablation): the same
/// trained model is reused with smaller and larger sub-domains and the hybrid
/// solver still converges.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "heavy end-to-end test: opt in with `cargo test --release -- --include-ignored`"
)]
fn gnn_preconditioner_generalises_across_subdomain_sizes() {
    let model = Arc::new(ddm_gnn::load_pretrained().expect("the shipped model in assets/"));
    let problem = ddm_gnn::generate_problem(777, 1500);
    let opts = SolverOptions::with_tolerance(1e-6).max_iterations(20_000);
    let config = HybridSolverConfig::default();
    let rhs: &[&[f64]] = &[&problem.rhs];
    let cg = run(&problem, &[], Method::Cg, None, &config, rhs, &opts);
    for subdomain_size in [120usize, 200, 350] {
        let subdomains = partition_mesh_with_overlap(&problem.mesh, subdomain_size, 2, 0);
        let outcome = run(&problem, &subdomains, Method::DdmGnn, Some(&model), &config, rhs, &opts);
        assert!(outcome.stats().converged(), "must converge with sub-domain size {subdomain_size}");
        assert!(
            outcome.stats().iterations < cg.stats().iterations,
            "DDM-GNN ({}) should beat plain CG ({}) at sub-domain size {subdomain_size}",
            outcome.stats().iterations,
            cg.stats().iterations
        );
    }
}

/// Larger overlap must not hurt the exact Schwarz preconditioner (Table I's
/// overlap ablation).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "heavy end-to-end test: opt in with `cargo test --release -- --include-ignored`"
)]
fn larger_overlap_does_not_degrade_ddm_lu() {
    let problem = ddm_gnn::generate_problem(55, 1500);
    let opts = SolverOptions::with_tolerance(1e-6);
    let sd2 = partition_mesh_with_overlap(&problem.mesh, 250, 2, 0);
    let sd4 = partition_mesh_with_overlap(&problem.mesh, 250, 4, 0);
    let config = HybridSolverConfig::default();
    let [r2, r4] = [sd2, sd4]
        .map(|sd| run(&problem, &sd, Method::DdmLu, None, &config, &[&problem.rhs], &opts));
    assert!(r2.stats().converged() && r4.stats().converged());
    assert!(r4.stats().iterations <= r2.stats().iterations + 1);
}

/// The dataset → training → preconditioning loop is exercised end to end with
/// a tiny configuration (independent of the shipped pre-trained weights).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "heavy end-to-end test: opt in with `cargo test --release -- --include-ignored`"
)]
fn small_training_pipeline_produces_working_preconditioner() {
    let trained = ddm_gnn::train_model_multi_size(4, 6, &[150], 40, 10);
    let problem = ddm_gnn::generate_problem(404, 700);
    let subdomains = partition_mesh_with_overlap(&problem.mesh, 150, 2, 0);
    let outcome = run(
        &problem,
        &subdomains,
        Method::DdmGnn,
        Some(&Arc::new(trained.model)),
        &HybridSolverConfig::default(),
        &[&problem.rhs],
        &SolverOptions::with_tolerance(1e-6).max_iterations(20_000),
    );
    // Even a lightly trained model must preserve the convergence guarantee of
    // the outer Krylov method (the central claim of the hybrid approach).
    assert!(outcome.stats().converged());
}

/// A fast, always-on smoke test of the exact-solver pipeline: small mesh,
/// partition, two-level ASM, PCG.  Keeps end-to-end coverage in the debug
/// suite while the heavy tests above are `#[ignore]`d; the heavy variants
/// run under `cargo test --release -- --include-ignored` (see CI).
#[test]
fn small_pipeline_smoke() {
    let domain = RandomBlobDomain::generate(8, 16, 1.0);
    let h = meshgen::generator::element_size_for_target_nodes(&domain, 400);
    let mesh = generate_mesh(&domain, &MeshingOptions::with_element_size(h).seed(8));
    let problem = PoissonProblem::with_random_data(mesh, 4);
    let subdomains = partition_mesh_with_overlap(&problem.mesh, 150, 2, 0);
    assert!(!subdomains.is_empty());

    let asm =
        AdditiveSchwarz::new(&problem.matrix, subdomains, AsmLevel::TwoLevel).expect("ASM setup");
    let result = preconditioned_conjugate_gradient(
        &problem.matrix,
        &problem.rhs,
        None,
        &asm,
        &SolverOptions::with_tolerance(1e-8),
    );
    assert!(result.stats.converged());
    assert!(krylov::true_relative_residual(&problem.matrix, &result.x, &problem.rhs) < 1e-7);
}

/// The degenerate `k == n` partition (one vertex per part — the shape
/// `partition_graph` produces whenever `num_parts >= num_vertices`) must flow
/// through the whole downstream pipeline: overlap growth, Schwarz
/// decomposition, the Nicolaides coarse space and a preconditioned solve.
/// Guards the `partition_graph` doc contract end to end — no out-of-range
/// part indices, no panics on singleton cores.
#[test]
fn singleton_partition_flows_through_decomposition_and_coarse_space() {
    let domain = RandomBlobDomain::generate(5, 14, 1.0);
    let h = meshgen::generator::element_size_for_target_nodes(&domain, 70);
    let mesh = generate_mesh(&domain, &MeshingOptions::with_element_size(h).seed(5));
    let problem = PoissonProblem::with_random_data(mesh, 6);
    // target_size 1 ⇒ k == n parts, every core a single vertex.
    let subdomains = partition_mesh_with_overlap(&problem.mesh, 1, 1, 0);
    assert_eq!(subdomains.len(), problem.mesh.num_nodes());
    for sd in &subdomains {
        assert!(!sd.is_empty(), "k == n cores are singletons, never empty");
        assert!(sd.windows(2).all(|w| w[0] < w[1]), "sorted/unique node lists");
    }
    // The full two-level Schwarz pipeline, Nicolaides coarse space included,
    // accepts the degenerate shape.
    let asm = AdditiveSchwarz::new(&problem.matrix, subdomains, AsmLevel::TwoLevel)
        .expect("two-level ASM must accept singleton sub-domains");
    assert_eq!(asm.name(), "ddm-lu-2level");
    let result = preconditioned_conjugate_gradient(
        &problem.matrix,
        &problem.rhs,
        None,
        &asm,
        &SolverOptions::with_tolerance(1e-8),
    );
    assert!(result.stats.converged(), "singleton-sub-domain ASM solve must converge");
    assert!(krylov::true_relative_residual(&problem.matrix, &result.x, &problem.rhs) < 1e-7);
}

/// The hybrid GNN-preconditioned solve at smoke-test size, with the shipped
/// pre-trained model.
#[test]
fn small_gnn_smoke_with_pretrained_model() {
    let model = ddm_gnn::load_pretrained().expect("the shipped model in assets/");
    let problem = ddm_gnn::generate_problem(42, 500);
    let subdomains = partition_mesh_with_overlap(&problem.mesh, 150, 2, 0);
    let outcome = run(
        &problem,
        &subdomains,
        Method::DdmGnn,
        Some(&Arc::new(model)),
        &HybridSolverConfig::default(),
        &[&problem.rhs],
        &SolverOptions::with_tolerance(1e-6).max_iterations(5_000),
    );
    assert!(outcome.stats().converged());
}

/// The f32 inference engine inside the preconditioner: on a fresh ~1800-node
/// problem the single-precision hybrid solver must converge with an iteration
/// count within +10% of the f64 baseline (the acceptance bound of the f32
/// mode — the flexible outer PCG absorbs the single-precision perturbation),
/// and its solution must agree with the f64 one to well below the solver
/// tolerance.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "heavy end-to-end test: opt in with `cargo test --release -- --include-ignored`"
)]
fn f32_preconditioner_iteration_count_within_ten_percent_of_f64() {
    let model = Arc::new(ddm_gnn::load_pretrained().expect("the shipped model in assets/"));
    let problem = ddm_gnn::generate_problem(991, 1800);
    let subdomains = partition_mesh_with_overlap(&problem.mesh, 200, 2, 0);
    let opts = SolverOptions::with_tolerance(1e-6).max_iterations(20_000);
    let [o64, o32] = [ddm_gnn::Precision::F64, ddm_gnn::Precision::F32].map(|precision| {
        let config = HybridSolverConfig { precision, ..Default::default() };
        run(&problem, &subdomains, Method::DdmGnn, Some(&model), &config, &[&problem.rhs], &opts)
    });
    assert!(o64.stats().converged() && o32.stats().converged());
    let cap = o64.stats().iterations + o64.stats().iterations.div_ceil(10);
    assert!(
        o32.stats().iterations <= cap,
        "f32 preconditioner took {} iterations vs f64 {} (+10% cap {})",
        o32.stats().iterations,
        o64.stats().iterations,
        cap
    );
    assert!(krylov::true_relative_residual(&problem.matrix, o32.x(), &problem.rhs) < 1e-5);
    assert!(sparse::vector::relative_error(o32.x(), o64.x()) < 1e-4);
}

/// The int8 weight format of the f32 inference engine inside the
/// preconditioner: on a fresh ~1800-node problem the quantised hybrid solver
/// must converge with an iteration count within +15% of the f64 baseline
/// (the acceptance bound of the int8 mode — the quantisation perturbation,
/// ~5e-3 relative on a whole application, is absorbed by the flexible outer
/// PCG), and its solution must agree with the f64 one to well below the
/// solver tolerance.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "heavy end-to-end test: opt in with `cargo test --release -- --include-ignored`"
)]
fn int8_preconditioner_iteration_count_within_fifteen_percent_of_f64() {
    let model = Arc::new(ddm_gnn::load_pretrained().expect("the shipped model in assets/"));
    let problem = ddm_gnn::generate_problem(991, 1800);
    let subdomains = partition_mesh_with_overlap(&problem.mesh, 200, 2, 0);
    let opts = SolverOptions::with_tolerance(1e-6).max_iterations(20_000);
    let [o64, oq] = [ddm_gnn::Precision::F64, ddm_gnn::Precision::Int8].map(|precision| {
        let config = HybridSolverConfig { precision, ..Default::default() };
        run(&problem, &subdomains, Method::DdmGnn, Some(&model), &config, &[&problem.rhs], &opts)
    });
    assert!(o64.stats().converged() && oq.stats().converged());
    let cap = o64.stats().iterations + (15 * o64.stats().iterations).div_ceil(100);
    assert!(
        oq.stats().iterations <= cap,
        "int8 preconditioner took {} iterations vs f64 {} (+15% cap {})",
        oq.stats().iterations,
        o64.stats().iterations,
        cap
    );
    assert!(krylov::true_relative_residual(&problem.matrix, oq.x(), &problem.rhs) < 1e-5);
    assert!(sparse::vector::relative_error(oq.x(), o64.x()) < 1e-4);
}

/// Multi-right-hand-side batched solve at n ≈ 9k: one `ddm_gnn::solve` over
/// b = 4 distinct right-hand sides must produce per-column `SolveStats`
/// (iterations, residual history) and solutions **bit-identical** to four
/// independent single-column solves — and the whole comparison must hold at
/// 1 and 4 rayon threads (the batched panel kernels keep each column's
/// ascending accumulation order, so neither batching nor the thread count may
/// move a single bit).  Like the determinism suite, each thread count runs in
/// a child process because the pool size is fixed per process.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "heavy end-to-end test: opt in with `cargo test --release -- --include-ignored`"
)]
fn batched_solve_matches_independent_solves_at_1_and_4_threads() {
    const CHILD_ENV: &str = "DDM_GNN_BATCH_E2E_CHILD";
    const OUT_ENV: &str = "DDM_GNN_BATCH_E2E_OUT";

    // Child mode: run the batch-vs-sequential comparison at the inherited
    // RAYON_NUM_THREADS and write a signature of the per-column histories.
    if std::env::var(CHILD_ENV).is_ok() {
        let out = std::env::var(OUT_ENV).expect("child needs the output path");
        let model = Arc::new(ddm_gnn::load_pretrained().expect("the shipped model in assets/"));
        let problem = ddm_gnn::generate_problem(2024, 9000);
        let n = problem.num_unknowns();
        assert!(n > 8000, "problem must be ~9k unknowns, got {n}");
        let subdomains = partition_mesh_with_overlap(&problem.mesh, 250, 2, 0);
        let opts = SolverOptions::with_tolerance(1e-6).max_iterations(2000);
        // Four distinct right-hand sides: the assembled one plus three
        // deterministic synthetic loads.
        let mut rhss = vec![problem.rhs.clone()];
        for c in 1..4usize {
            rhss.push((0..n).map(|i| ((i * c) as f64 * 0.13 + c as f64).sin()).collect());
        }
        let rs: Vec<&[f64]> = rhss.iter().map(|r| r.as_slice()).collect();
        let config = HybridSolverConfig::default();
        let solve = |bs: &[&[f64]]| {
            run(&problem, &subdomains, Method::DdmGnn, Some(&model), &config, bs, &opts)
        };
        let batch = solve(&rs);
        assert_eq!(batch.results.len(), 4);

        let mut signature = String::new();
        for (c, rhs) in rhss.iter().enumerate() {
            let single = &solve(&[rhs]).results[0];
            let col = &batch.results[c];
            assert!(single.stats.converged(), "column {c} must converge independently");
            assert!(col.stats.converged(), "column {c} must converge in the batch");
            assert_eq!(
                col.stats.iterations, single.stats.iterations,
                "column {c} iteration count differs from the independent solve"
            );
            let (bh, sh) = (col.stats.history.norms(), single.stats.history.norms());
            assert_eq!(bh.len(), sh.len(), "column {c} history length differs");
            for (i, (x, y)) in bh.iter().zip(sh.iter()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "column {c} residual history entry {i} differs: {x} vs {y}"
                );
            }
            for (i, (x, y)) in col.x.iter().zip(single.x.iter()).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "column {c} solution entry {i} differs");
            }
            use std::fmt::Write as _;
            let _ = write!(signature, "col{c}:");
            for v in bh {
                let _ = write!(signature, "{:016x}", v.to_bits());
            }
            let _ = writeln!(signature);
        }
        std::fs::write(out, signature).expect("child cannot write signature");
        return;
    }

    let exe = std::env::current_exe().expect("cannot locate test executable");
    let mut signatures = Vec::new();
    for threads in ["1", "4"] {
        let out = std::env::temp_dir().join(format!("ddm_gnn_batch_e2e_{threads}.sig"));
        let status = std::process::Command::new(&exe)
            .args([
                "batched_solve_matches_independent_solves_at_1_and_4_threads",
                "--exact",
                "--test-threads=1",
                "--include-ignored",
            ])
            .env(CHILD_ENV, "1")
            .env(OUT_ENV, &out)
            .env("RAYON_NUM_THREADS", threads)
            .status()
            .expect("failed to spawn batched-solve child");
        assert!(status.success(), "child with {threads} threads failed");
        let sig = std::fs::read_to_string(&out).expect("missing child signature");
        assert!(!sig.is_empty(), "empty signature at {threads} threads");
        let _ = std::fs::remove_file(&out);
        signatures.push((threads, sig));
    }
    let (_, reference) = &signatures[0];
    let (threads, sig) = &signatures[1];
    assert_eq!(
        sig, reference,
        "batched residual histories at RAYON_NUM_THREADS={threads} differ from the 1-thread run"
    );
}

/// The multi-level hierarchy at scale (n ≈ 24k): the smoothed-aggregation
/// coarse path builds three or more levels, the multilevel DDM-LU solver
/// converges, and its iteration count stays within a small margin of the
/// two-level Nicolaides baseline (the point of the hierarchy is to keep the
/// coarse solve cheap without giving up convergence).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "heavy end-to-end test: opt in with `cargo test --release -- --include-ignored`"
)]
fn multilevel_hierarchy_at_scale() {
    let problem = ddm_gnn::generate_problem(4242, 24_000);
    let n = problem.num_unknowns();
    assert!(n > 20_000, "problem must be genuinely large, got n = {n}");

    // The hierarchy alone: ≥3 levels, modest operator complexity (the level
    // dimensions are checked by `ddm`'s own hierarchy tests).
    let config = ddm_gnn::MultilevelConfig::default();
    let hierarchy = ddm::Hierarchy::build(&problem.matrix, &config).expect("hierarchy build");
    assert!(
        hierarchy.num_levels() >= 3,
        "expected a true multi-level hierarchy at n = {n}, got {} levels",
        hierarchy.num_levels()
    );
    assert!(
        hierarchy.operator_complexity() < 3.0,
        "operator complexity {} too high",
        hierarchy.operator_complexity()
    );

    // Full solves: two-level Nicolaides baseline vs multilevel coarse path.
    let subdomains = partition_mesh_with_overlap(&problem.mesh, 400, 2, 0);
    let opts = SolverOptions::with_tolerance(1e-8);
    let [two_level, multi] = [AsmLevel::TwoLevel, AsmLevel::Multilevel(config)].map(|level| {
        let config = HybridSolverConfig { level, ..Default::default() };
        run(&problem, &subdomains, Method::DdmLu, None, &config, &[&problem.rhs], &opts)
    });
    assert!(two_level.stats().converged() && multi.stats().converged());
    assert!(krylov::true_relative_residual(&problem.matrix, multi.x(), &problem.rhs) < 1e-7);
    assert!(sparse::vector::relative_error(multi.x(), two_level.x()) < 1e-5);
    // The hierarchy's V-cycle must be a genuinely useful coarse component:
    // iteration counts stay in the same ballpark as the Nicolaides baseline.
    assert!(
        multi.stats().iterations <= two_level.stats().iterations * 2,
        "multilevel took {} iterations vs two-level {}",
        multi.stats().iterations,
        two_level.stats().iterations
    );
}

/// Multi-level iteration counts stay flat as the problem doubles past
/// n ≈ 24k, and stay below the two-level Nicolaides counts at both sizes:
/// 300-node sub-domains, overlap 2, exact (LU) local solves, tolerance 1e-6.
/// At 24k → 48k two-level takes 49 → 51 iterations and the multiplicative
/// multi-level 7 → 9 (the additive sum 20 → 22), so the +2 bound holds with
/// no slack.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "heavy end-to-end test: opt in with `cargo test --release -- --include-ignored`"
)]
fn multilevel_iterations_stay_flat_from_24k_to_48k() {
    let opts = SolverOptions::with_tolerance(1e-6).max_iterations(4000);
    let [small, large] = [(3, 24_000), (4, 48_000)].map(|(seed, target)| {
        let problem = ddm_gnn::generate_problem(seed, target);
        let subdomains = partition_mesh_with_overlap(&problem.mesh, 300, 2, 0);
        let multilevel = AsmLevel::Multilevel(ddm_gnn::MultilevelConfig::default());
        let [two_level, multi] = [AsmLevel::TwoLevel, multilevel].map(|level| {
            let config = HybridSolverConfig { level, ..Default::default() };
            let outcome =
                run(&problem, &subdomains, Method::DdmLu, None, &config, &[&problem.rhs], &opts);
            assert!(
                outcome.stats().converged(),
                "no convergence at n = {}",
                problem.num_unknowns()
            );
            outcome.stats().iterations
        });
        assert!(
            multi < two_level,
            "multi-level took {multi} iterations vs two-level {two_level} at n = {}",
            problem.num_unknowns()
        );
        multi
    });
    assert!(large <= small + 2, "multi-level iterations grew from {small} (24k) to {large} (48k)");
}
