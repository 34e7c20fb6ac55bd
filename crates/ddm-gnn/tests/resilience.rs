//! End-to-end fault-injection suite for the fault-tolerant solve supervisor.
//!
//! Every test here uses one problem recipe (`generate_problem(1 + idx,
//! target)`, sub-domains of ~300 nodes with overlap 2, tolerance 1e-6), so
//! the fault-free residual-history hash can be pinned against constants
//! recorded when the determinism pins were first taken — the proof that the
//! resilience layer is bit-transparent when nothing goes wrong.  Those pins, and the fault
//! tests, run the 16-block anchor model file; the default model of
//! `load_pretrained()` (its first 7 blocks) has pins of its own.
//!
//! The heavy tests are `#[ignore]`d: CI runs them in release via
//! `cargo test --workspace --release -- --include-ignored` (the `test` job).

use std::path::Path;
use std::sync::Arc;

use ddm::{AdditiveSchwarz, AsmLevel};
use ddm_gnn::{
    build_preconditioner, generate_problem, load_pretrained, solve, DdmGnnPreconditioner,
    DegradationLadder, FaultInjectingPreconditioner, FaultKind, HybridSolverConfig, InjectedFault,
    Method, Precision,
};
use fem::PoissonProblem;
use gnn::DssModel;
use krylov::{
    preconditioned_conjugate_gradient, JacobiPreconditioner, Preconditioner, SolveResult,
    SolverOptions,
};
use partition::partition_mesh_with_overlap;

/// FNV-1a over the bit patterns of a float sequence — the determinism
/// witness `detsan_suite` hashes with too, so the pins are comparable.
fn hash_f64s(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn solve_hash(result: &SolveResult) -> u64 {
    hash_f64s(result.stats.history.norms().iter().copied().chain(result.x.iter().copied()))
}

/// The shipped model file loaded whole — all 16 blocks, the bit-pinned
/// anchor — rather than through `load_pretrained()`, which cuts it.
fn model() -> Arc<DssModel> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../assets/pretrained_k16_d10.dss");
    Arc::new(
        gnn::io::load_model(Path::new(path))
            .expect("the anchor model in assets/ is required for the resilience e2e suite"),
    )
}

/// The pinned problem recipe: `idx` 0 is n≈3k, `idx` 1 is n≈9k.
fn problem_and_subdomains(idx: usize, target: usize) -> (PoissonProblem, Vec<Vec<usize>>) {
    let problem = generate_problem(1 + idx as u64, target);
    let subdomains = partition_mesh_with_overlap(&problem.mesh, 300, 2, 0);
    (problem, subdomains)
}

fn opts() -> SolverOptions {
    SolverOptions::with_tolerance(1e-6).max_iterations(4000)
}

/// The default DDM-GNN preconditioner (two-level, f64).
fn gnn_tier(
    problem: &PoissonProblem,
    subdomains: &[Vec<usize>],
    model: &Arc<DssModel>,
) -> DdmGnnPreconditioner {
    DdmGnnPreconditioner::with_precision(
        problem,
        subdomains.to_vec(),
        Arc::clone(model),
        true,
        Precision::F64,
    )
    .expect("DDM-GNN setup failed")
}

/// The tier stack `build_preconditioner` assembles into the ladder of the
/// default (two-level, f64) DDM-GNN solve, built here so a test can wrap its
/// GNN tier.
fn ladder_tiers(
    problem: &PoissonProblem,
    subdomains: &[Vec<usize>],
    model: &Arc<DssModel>,
) -> Vec<Box<dyn Preconditioner>> {
    let asm = AdditiveSchwarz::new(&problem.matrix, subdomains.to_vec(), AsmLevel::TwoLevel)
        .expect("ASM setup failed");
    vec![
        Box::new(gnn_tier(problem, subdomains, model)),
        Box::new(asm),
        Box::new(JacobiPreconditioner::new(&problem.matrix)),
    ]
}

/// Fault-free reference: plain (unsupervised) DDM-GNN PCG, f64 inference.
fn fault_free(
    problem: &PoissonProblem,
    subdomains: &[Vec<usize>],
    model: &Arc<DssModel>,
) -> SolveResult {
    let precond = gnn_tier(problem, subdomains, model);
    preconditioned_conjugate_gradient(&problem.matrix, &problem.rhs, None, &precond, &opts())
}

/// Inject one fault of each class at apply 10 into the GNN tier of the
/// degradation ladder and require: convergence to tolerance, at most 2× the
/// fault-free iteration count, and a fault log naming the fault kind and the
/// faulted tier.  The process must never abort — a panic escaping the
/// supervisor fails the whole test binary.
fn exercise_all_fault_classes(target: usize, idx: usize) {
    let (problem, subdomains) = problem_and_subdomains(idx, target);
    let model = model();
    let reference = fault_free(&problem, &subdomains, &model);
    assert!(reference.stats.converged(), "fault-free reference did not converge");
    let budget = reference.stats.iterations * 2;

    let cases: [(InjectedFault, FaultKind); 4] = [
        (InjectedFault::Panic, FaultKind::Panic),
        (InjectedFault::NanOutput, FaultKind::NonFinite),
        (InjectedFault::InfOutput, FaultKind::NonFinite),
        (InjectedFault::ZeroOutput, FaultKind::ZeroOutput),
    ];
    for (fault, expected_kind) in cases {
        let mut tiers = ladder_tiers(&problem, &subdomains, &model);
        // Wrap the preferred (GNN) tier in the deterministic injector.
        let gnn = tiers.remove(0);
        let faulted_tier_name = format!("inject({})", gnn.name());
        tiers.insert(0, Box::new(FaultInjectingPreconditioner::scheduled(gnn, [(10u64, fault)])));
        let ladder = DegradationLadder::new(tiers);
        let outcome = solve(&problem.matrix, &[&problem.rhs], Some(&ladder), &opts());
        let stats = outcome.stats();

        assert!(
            stats.converged(),
            "{fault:?} at n={}: solve did not converge",
            problem.num_unknowns()
        );
        assert!(
            stats.iterations <= budget,
            "{fault:?} at n={}: {} iterations exceed 2x fault-free ({})",
            problem.num_unknowns(),
            stats.iterations,
            budget
        );
        let faults = &stats.faults;
        let event = faults
            .events()
            .iter()
            .find(|e| e.kind == expected_kind)
            .unwrap_or_else(|| panic!("{fault:?}: expected {expected_kind:?} in {faults:?}"));
        assert_eq!(event.tier, faulted_tier_name, "fault attributed to the wrong tier");
        assert_eq!(event.apply_index, 10, "fault attributed to the wrong apply");
        // Every class downgrades off the GNN tier.
        assert_eq!(faults.final_tier(), Some("ddm-lu-2level"), "{fault:?}: unexpected final tier");
        // The solution still solves the system.
        assert!(
            krylov::true_relative_residual(&problem.matrix, outcome.x(), &problem.rhs) < 1e-5,
            "{fault:?}: true residual too large"
        );
    }
}

#[test]
#[ignore = "heavy e2e (full PCG solves): run in release via --include-ignored"]
fn all_fault_classes_recover_at_n3k() {
    exercise_all_fault_classes(3000, 0);
}

#[test]
#[ignore = "heavy e2e (full PCG solves): run in release via --include-ignored"]
fn all_fault_classes_recover_at_n9k() {
    exercise_all_fault_classes(9000, 1);
}

/// Residual-history/solution hashes of the fault-free solves on problems
/// idx 0 (n = 3090) and idx 1 (n≈9k), as first recorded at 1/2/4 threads:
/// `pcg-ddm-gnn-2level` on the 16-block anchor, and the exact
/// `pcg-ddm-lu-2level`.
const PINNED_HASHES: &[(&str, [&str; 2])] = &[
    ("pcg-ddm-gnn-2level", ["3b4db8001002d99e", "28f579a265eedd52"]),
    ("pcg-ddm-lu-2level", ["7c60b364b117b10a", "1d09d2e7bd959eea"]),
];

/// `pcg-ddm-gnn-2level` on the default model of `load_pretrained()` — the
/// anchor's first 7 blocks — on the same problems: `(hash, iterations)`.
const DEFAULT_MODEL_PINS: [(&str, usize); 2] = [("405cc26fef905ab4", 50), ("cf7df0a87a0b4c07", 88)];

fn pinned_hash(solver: &str, idx: usize) -> &'static str {
    let (_, hashes) = PINNED_HASHES.iter().find(|(s, _)| *s == solver).expect("pinned solver");
    hashes[idx]
}

/// The fault-free residual-history hash must be bit-identical to the
/// pinned baseline — both for the plain preconditioner and for the
/// full degradation ladder (the supervisor's guards only *read* `r`/`z`, so
/// a healthy solve must be untouched) — and so must the exact two-level
/// Schwarz solve, the pin of the Nicolaides coarse component on its own.  CI
/// runs this at 1 and 4 rayon threads; the committed baseline was verified at
/// 1/2/4.
#[test]
#[ignore = "heavy e2e (full PCG solves): run in release via --include-ignored"]
fn fault_free_hash_matches_committed_baseline() {
    let model = model();
    for (idx, target) in [(0usize, 3000usize), (1, 9000)] {
        let (problem, subdomains) = problem_and_subdomains(idx, target);
        let plain = fault_free(&problem, &subdomains, &model);
        assert!(plain.stats.converged());
        let expected = pinned_hash("pcg-ddm-gnn-2level", idx);
        assert_eq!(
            format!("{:016x}", solve_hash(&plain)),
            expected,
            "plain DDM-GNN hash drifted from the committed baseline (idx {idx})"
        );
        let asm = AdditiveSchwarz::new(&problem.matrix, subdomains.clone(), AsmLevel::TwoLevel)
            .expect("ASM setup failed");
        let lu =
            preconditioned_conjugate_gradient(&problem.matrix, &problem.rhs, None, &asm, &opts());
        assert_eq!(
            format!("{:016x}", solve_hash(&lu)),
            pinned_hash("pcg-ddm-lu-2level", idx),
            "DDM-LU hash drifted from the committed baseline (idx {idx})"
        );

        let config = HybridSolverConfig { resilient: true, ..Default::default() };
        let ladder =
            build_preconditioner(&problem, &subdomains, Method::DdmGnn, Some(&model), &config)
                .expect("ladder setup failed");
        let supervised = solve(&problem.matrix, &[&problem.rhs], ladder.as_deref(), &opts());
        assert!(supervised.stats().converged());
        assert!(supervised.stats().faults.is_empty(), "fault-free supervised solve logged faults");
        assert_eq!(
            format!("{:016x}", solve_hash(&supervised.results[0])),
            expected,
            "supervised fault-free hash drifted from the committed baseline (idx {idx})"
        );
    }
}

/// The default model — what the examples, the paper sections and the
/// benchmark run — has its own pins on the same problems.  CI runs this at 1
/// and 4 rayon threads too.
#[test]
#[ignore = "heavy e2e (full PCG solves): run in release via --include-ignored"]
fn default_model_hash_matches_its_pins() {
    let model = Arc::new(load_pretrained().expect("the shipped model in assets/"));
    assert_eq!(model.config().num_blocks, ddm_gnn::PRETRAINED_DEPTH);
    for (idx, target) in [(0usize, 3000usize), (1, 9000)] {
        let (problem, subdomains) = problem_and_subdomains(idx, target);
        let plain = fault_free(&problem, &subdomains, &model);
        assert!(plain.stats.converged());
        let (hash, iterations) = DEFAULT_MODEL_PINS[idx];
        assert_eq!(
            (format!("{:016x}", solve_hash(&plain)).as_str(), plain.stats.iterations),
            (hash, iterations),
            "default-model DDM-GNN solve drifted from its pin (idx {idx})"
        );
    }
}

/// A seeded random schedule is bit-reproducible: two ladders built from the
/// same seed produce identical fault logs and identical solves.
#[test]
#[ignore = "heavy e2e (full PCG solves): run in release via --include-ignored"]
fn seeded_random_fault_schedule_reproduces() {
    let (problem, subdomains) = problem_and_subdomains(0, 3000);
    let model = model();
    let menu = [InjectedFault::Panic, InjectedFault::NanOutput, InjectedFault::ZeroOutput];
    let run = || {
        let mut tiers = ladder_tiers(&problem, &subdomains, &model);
        let gnn = tiers.remove(0);
        let injector = FaultInjectingPreconditioner::random(gnn, 42, 2, 30, &menu);
        let schedule: Vec<_> = injector.schedule().iter().map(|(k, v)| (*k, *v)).collect();
        tiers.insert(0, Box::new(injector));
        let ladder = DegradationLadder::new(tiers);
        let outcome = solve(&problem.matrix, &[&problem.rhs], Some(&ladder), &opts());
        (schedule, outcome)
    };
    let (schedule_a, a) = run();
    let (schedule_b, b) = run();
    assert_eq!(schedule_a, schedule_b, "seeded schedule is not reproducible");
    assert!(a.stats().converged() && b.stats().converged());
    assert_eq!(a.x(), b.x(), "seeded faulted solves diverged");
    assert_eq!(a.stats().iterations, b.stats().iterations);
    assert_eq!(a.stats().faults.events().len(), b.stats().faults.events().len());
}
