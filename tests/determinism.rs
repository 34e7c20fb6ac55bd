//! Cross-thread-count determinism of the parallel runtime.
//!
//! The rayon shim promises bit-identical results at every `RAYON_NUM_THREADS`
//! setting (chunk boundaries and reduction order depend only on data length).
//! Because the pool size is fixed per process, this test re-executes the test
//! binary as a child process per thread count: each child computes a
//! signature over the parallel hot paths — `spmv_into`, the DDM-LU Schwarz
//! `apply` at two levels and under the multi-level V-cycle, the DDM-GNN
//! `apply` at every inference precision and under the V-cycle, and a full
//! PCG residual history — writes it to a file, and the parent asserts all
//! signatures are byte-identical.

use std::fmt::Write as _;
use std::process::Command;
use std::sync::Arc;

use ddm_gnn_suite::ddm::{AdditiveSchwarz, AsmLevel, MultilevelConfig};
use ddm_gnn_suite::ddm_gnn::{generate_problem, DdmGnnPreconditioner, Precision};
use ddm_gnn_suite::gnn::{DssConfig, DssModel};
use ddm_gnn_suite::krylov::{preconditioned_conjugate_gradient, Preconditioner, SolverOptions};
use ddm_gnn_suite::partition::partition_mesh_with_overlap;

const CHILD_ENV: &str = "DDM_GNN_DETERMINISM_CHILD";
const OUT_ENV: &str = "DDM_GNN_DETERMINISM_OUT";

fn push_bits(sig: &mut String, label: &str, values: &[f64]) {
    let _ = write!(sig, "{label}:");
    for v in values {
        let _ = write!(sig, "{:016x}", v.to_bits());
    }
    let _ = writeln!(sig);
}

/// Exercise every parallel hot path and return a hex signature of the raw
/// f64 bit patterns involved.
fn compute_signature() -> String {
    // Large enough that spmv_into takes its parallel branch (nrows >= 4096).
    let problem = generate_problem(3, 5000);
    let n = problem.num_unknowns();
    assert!(n >= 4096, "problem too small to cover the parallel SpMV branch");
    let subdomains = partition_mesh_with_overlap(&problem.mesh, 250, 2, 0);

    let mut sig = String::new();

    // Parallel SpMV.
    let x: Vec<f64> = (0..n).map(|i| ((i * 7 % 23) as f64) * 0.25 - 2.0).collect();
    let mut y = vec![0.0; n];
    problem.matrix.spmv_into(&x, &mut y);
    push_bits(&mut sig, "spmv", &y);

    // ASM preconditioner application (parallel local solves).
    let asm = AdditiveSchwarz::new(&problem.matrix, subdomains.clone(), AsmLevel::TwoLevel)
        .expect("ASM setup");
    let mut z = vec![0.0; n];
    asm.apply(&problem.rhs, &mut z);
    push_bits(&mut sig, "asm_apply", &z);
    let multilevel = AsmLevel::Multilevel(MultilevelConfig::default());
    AdditiveSchwarz::new(&problem.matrix, subdomains.clone(), multilevel)
        .expect("multi-level ASM setup")
        .apply(&problem.rhs, &mut z);
    push_bits(&mut sig, "asm_multilevel_apply", &z);

    // DDM-GNN preconditioner application (parallel batched inference) at
    // every precision tier.  A small untrained model keeps the debug-profile
    // runtime low; determinism does not depend on model quality.
    let model = Arc::new(DssModel::new(DssConfig { num_blocks: 3, latent_dim: 6, alpha: 1e-2 }, 7));
    for precision in [Precision::F64, Precision::F32, Precision::Int8] {
        let gnn = DdmGnnPreconditioner::with_precision(
            &problem,
            subdomains.clone(),
            Arc::clone(&model),
            true,
            precision,
        )
        .expect("GNN setup");
        gnn.apply(&problem.rhs, &mut z);
        push_bits(&mut sig, &format!("gnn_apply_{precision}"), &z);
    }
    DdmGnnPreconditioner::with_multilevel_coarse(
        &problem,
        subdomains.clone(),
        Arc::clone(&model),
        &MultilevelConfig::default(),
        Precision::F64,
    )
    .expect("multi-level GNN setup")
    .apply(&problem.rhs, &mut z);
    push_bits(&mut sig, "gnn_multilevel_apply", &z);

    // Full PCG residual history with the ASM preconditioner.
    let opts = SolverOptions::with_tolerance(1e-8).max_iterations(300);
    let result =
        preconditioned_conjugate_gradient(&problem.matrix, &problem.rhs, None, &asm, &opts);
    assert!(result.stats.converged(), "PCG must converge: {:?}", result.stats.stop_reason);
    push_bits(&mut sig, "pcg_history", result.stats.history.norms());
    push_bits(&mut sig, "pcg_solution", &result.x);

    sig
}

#[test]
fn bit_identical_across_thread_counts() {
    // Child mode: compute the signature at the inherited RAYON_NUM_THREADS
    // and write it where the parent asked.
    if std::env::var(CHILD_ENV).is_ok() {
        let out = std::env::var(OUT_ENV).expect("child needs the output path");
        std::fs::write(out, compute_signature()).expect("child cannot write signature");
        return;
    }

    let exe = std::env::current_exe().expect("cannot locate test executable");
    let mut signatures = Vec::new();
    for threads in ["1", "2", "4"] {
        let out = std::env::temp_dir().join(format!("ddm_gnn_determinism_{threads}.sig"));
        let status = Command::new(&exe)
            .args(["bit_identical_across_thread_counts", "--exact", "--test-threads=1"])
            .env(CHILD_ENV, "1")
            .env(OUT_ENV, &out)
            .env("RAYON_NUM_THREADS", threads)
            .status()
            .expect("failed to spawn determinism child");
        assert!(status.success(), "child with {threads} threads failed");
        let sig = std::fs::read_to_string(&out).expect("missing child signature");
        assert!(!sig.is_empty(), "empty signature at {threads} threads");
        let _ = std::fs::remove_file(&out);
        signatures.push((threads, sig));
    }
    let (_, reference) = &signatures[0];
    for (threads, sig) in &signatures[1..] {
        assert_eq!(
            sig, reference,
            "results at RAYON_NUM_THREADS={threads} differ from the 1-thread run"
        );
    }
}
