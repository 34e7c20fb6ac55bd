//! Criterion micro-benchmarks of the computational kernels underlying the
//! hybrid solver: sparse matrix–vector products, FEM assembly, mesh
//! partitioning, local factorisations and GNN inference.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ddm_gnn::generate_problem;
use gnn::{DssConfig, DssModel};
use partition::partition_mesh_with_overlap;
use sparse::SkylineCholesky;

fn bench_spmv(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmv");
    for &n in &[2_000usize, 8_000] {
        let problem = generate_problem(1, n);
        let x = vec![1.0; problem.num_unknowns()];
        let mut y = vec![0.0; problem.num_unknowns()];
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| problem.matrix.spmv_into(&x, &mut y));
        });
    }
    group.finish();
}

fn bench_assembly(c: &mut Criterion) {
    let mut group = c.benchmark_group("fem_assembly");
    group.sample_size(20);
    for &n in &[2_000usize, 8_000] {
        let problem = generate_problem(2, n);
        let mesh = problem.mesh.clone();
        let nn = mesh.num_nodes();
        let f = vec![1.0; nn];
        let g = vec![0.0; nn];
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| fem::assemble_poisson(&mesh, &f, &g));
        });
    }
    group.finish();
}

fn bench_partitioning(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition_with_overlap");
    group.sample_size(20);
    let problem = generate_problem(3, 8_000);
    for &ns in &[100usize, 400] {
        group.bench_with_input(BenchmarkId::from_parameter(ns), &ns, |b, _| {
            b.iter(|| partition_mesh_with_overlap(&problem.mesh, ns, 2, 0));
        });
    }
    // The mesh and sub-domain size of the benchmark's `lu-ml-8rhs-100k`
    // (n = 100 892, 337 sub-domains): the size at which a superlinear term
    // in the partitioner shows.  Per node this row should stay within ~3× of
    // the rows above.
    let large = generate_problem(5, 100_000);
    group.bench_function("n=100k/300", |b| {
        b.iter(|| partition_mesh_with_overlap(&large.mesh, 300, 2, 0));
    });
    group.finish();
}

fn bench_local_cholesky(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_cholesky_factor");
    group.sample_size(30);
    let problem = generate_problem(4, 3_000);
    let subdomains = partition_mesh_with_overlap(&problem.mesh, 300, 2, 0);
    let local = problem.matrix.principal_submatrix(&subdomains[0]);
    group.bench_function(format!("n={}", local.nrows()), |b| {
        b.iter(|| SkylineCholesky::factor(&local).unwrap());
    });
    let chol = SkylineCholesky::factor(&local).unwrap();
    let rhs = vec![1.0; local.nrows()];
    group.bench_function(format!("solve_n={}", local.nrows()), |b| {
        b.iter(|| chol.solve(&rhs).unwrap());
    });
    group.finish();
}

fn bench_dss_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("dss_inference");
    group.sample_size(20);
    let samples = gnn::extract_local_problems(&gnn::DatasetConfig {
        num_global_problems: 1,
        target_nodes: 800,
        subdomain_size: 200,
        overlap: 2,
        max_iterations_per_problem: 2,
        max_samples: Some(4),
        seed: 1,
        ..Default::default()
    });
    let graph = samples.into_iter().next().expect("at least one sample");
    for &(kbar, d) in &[(5usize, 5usize), (10, 10), (16, 10)] {
        let model = DssModel::new(DssConfig { num_blocks: kbar, latent_dim: d, alpha: 1e-3 }, 0);
        let plan = model.build_plan(&graph);
        let mut scratch = gnn::InferScratch::new();
        let mut out = vec![0.0; graph.num_nodes()];
        group.bench_function(format!("k{kbar}_d{d}_n{}", graph.num_nodes()), |b| {
            b.iter(|| model.infer_with_plan_into(&plan, &graph.input, &mut scratch, &mut out));
        });
    }
    group.finish();
}

criterion_group!(
    kernels,
    bench_spmv,
    bench_assembly,
    bench_partitioning,
    bench_local_cholesky,
    bench_dss_inference
);
criterion_main!(kernels);
