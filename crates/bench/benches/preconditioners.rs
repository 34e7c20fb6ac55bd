//! Criterion benchmarks of one preconditioner application: IC(0), two-level
//! DDM-LU and DDM-GNN on the same problem and decomposition — the per-
//! iteration cost behind the `T_lu` / `T_gnn` columns of Table III.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use ddm::{AdditiveSchwarz, AsmLevel};
use ddm_gnn::{generate_problem, DdmGnnPreconditioner};
use gnn::{DssConfig, DssModel};
use krylov::{Ic0Preconditioner, Preconditioner};
use partition::partition_mesh_with_overlap;

fn bench_preconditioner_apply(c: &mut Criterion) {
    let problem = generate_problem(11, 4_000);
    let n = problem.num_unknowns();
    let subdomains = partition_mesh_with_overlap(&problem.mesh, 200, 2, 0);
    let r = problem.rhs.clone();
    let mut z = vec![0.0; n];

    let mut group = c.benchmark_group("preconditioner_apply");
    group.sample_size(20);

    let ic0 = Ic0Preconditioner::new(&problem.matrix).unwrap();
    group.bench_function("ic0", |b| b.iter(|| ic0.apply(&r, &mut z)));

    let asm =
        AdditiveSchwarz::new(&problem.matrix, subdomains.clone(), AsmLevel::TwoLevel).unwrap();
    group.bench_function(format!("ddm_lu_k{}", subdomains.len()), |b| {
        b.iter(|| asm.apply(&r, &mut z))
    });

    // An untrained model has the same computational cost as a trained one, so
    // the benchmark does not depend on the shipped weights.
    let model = ddm_gnn::load_pretrained().unwrap_or_else(|| {
        let config =
            DssConfig { num_blocks: ddm_gnn::PRETRAINED_DEPTH, latent_dim: 10, alpha: 1e-3 };
        DssModel::new(config, 0)
    });
    let gnn_precond =
        DdmGnnPreconditioner::new(&problem, subdomains.clone(), Arc::new(model), true).unwrap();
    group.bench_function(format!("ddm_gnn_k{}", subdomains.len()), |b| {
        b.iter(|| gnn_precond.apply(&r, &mut z))
    });

    group.finish();
}

fn bench_preconditioner_setup(c: &mut Criterion) {
    let problem = generate_problem(12, 2_000);
    let subdomains = partition_mesh_with_overlap(&problem.mesh, 200, 2, 0);

    let mut group = c.benchmark_group("preconditioner_setup");
    group.sample_size(10);
    group.bench_function("ic0_factor", |b| {
        b.iter(|| Ic0Preconditioner::new(&problem.matrix).unwrap())
    });
    group.bench_function("ddm_lu_factor", |b| {
        b.iter(|| {
            AdditiveSchwarz::new(&problem.matrix, subdomains.clone(), AsmLevel::TwoLevel).unwrap()
        })
    });
    let model =
        Arc::new(DssModel::new(DssConfig { num_blocks: 10, latent_dim: 10, alpha: 1e-3 }, 0));
    group.bench_function("ddm_gnn_setup", |b| {
        b.iter(|| {
            DdmGnnPreconditioner::new(&problem, subdomains.clone(), Arc::clone(&model), true)
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(preconditioners, bench_preconditioner_apply, bench_preconditioner_setup);
criterion_main!(preconditioners);
