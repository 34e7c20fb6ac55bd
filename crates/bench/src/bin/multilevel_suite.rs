//! Multi-level hierarchy benchmark: two-level Nicolaides vs the
//! smoothed-aggregation multi-level coarse path, across problem sizes.
//!
//! For each problem size the suite measures, with exact (LU) local solves:
//!
//! * the hierarchy itself — levels, per-level dimensions, operator
//!   complexity, setup wall time and the V-cycle apply kernel time,
//! * end-to-end PCG — iteration counts and wall times for the two-level
//!   baseline (`pcg-ddm-lu-2level`) and the multi-level coarse path
//!   (`pcg-ddm-lu-ml*`),
//! * when the pre-trained model is present, the same pair with GNN local
//!   solves (`pcg-ddm-gnn-2level` vs `pcg-ddm-gnn-ml*`).
//!
//! The headline claim the report documents: multi-level iteration counts
//! stay flat (or fall) as the problem grows past n ≈ 24k, while the coarse
//! solve stays cheap — the direct factorisation moves from the k×k
//! Nicolaides operator to the ≤`coarsest_max_size` end of the hierarchy.
//!
//! Like `perf_suite`, results go to stdout as `PERF key=value` records and
//! are rendered to a JSON report (`BENCH_multilevel.json`).  The suite is
//! single-process: cross-thread determinism is `perf_suite`'s contract; this
//! one pins the solver trajectory with the same FNV-1a residual-history
//! hash so regressions show up as hash churn in review.
//!
//! Usage:
//!   cargo run --release -p bench --bin multilevel_suite
//! Environment:
//!   PERF_SUITE_SIZES   comma-separated target node counts
//!                      (default "3000,9000,24000,48000")
//!   PERF_SUITE_OUT     output path (default "BENCH_multilevel.json")
//!   PERF_SUITE_SMOKE   when set: one tiny problem and short calibration
//!                      floors — a CI smoke run exercising the whole harness
//!                      in seconds

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use ddm::{AsmLevel, Hierarchy, MultilevelConfig};
use ddm_gnn::{
    build_tiers, generate_problem, load_pretrained, solve, HybridSolverConfig, Method, SolveOutcome,
};
use krylov::SolverOptions;
use partition::partition_mesh_with_overlap;

fn smoke_mode() -> bool {
    std::env::var("PERF_SUITE_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn env_list(name: &str, default: &[usize]) -> Vec<usize> {
    std::env::var(name)
        .ok()
        .map(|s| s.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

/// FNV-1a over the bit patterns of a float sequence — the trajectory witness
/// (same function as `perf_suite`).
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

/// Median/min per-call time with batch-size calibration (same algorithm as
/// `perf_suite::time_kernel`).
fn time_kernel<F: FnMut()>(mut f: F, floor: Duration, samples: usize) -> (u64, u64) {
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed >= floor || iters >= 1 << 20 {
            break;
        }
        let projected = if elapsed.is_zero() {
            iters * 8
        } else {
            (floor.as_nanos() as u64).saturating_mul(iters) / (elapsed.as_nanos() as u64).max(1) + 1
        };
        iters = projected.max(iters * 2).min(1 << 20);
    }
    let mut per_call: Vec<u64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            (start.elapsed().as_nanos() as u64) / iters
        })
        .collect();
    per_call.sort_unstable();
    (per_call[per_call.len() / 2], per_call[0])
}

struct E2eRow {
    solver: String,
    idx: usize,
    n: usize,
    wall_ms: f64,
    setup_ms: f64,
    iterations: usize,
    hash: u64,
}

/// Run one solver (setup + solve) twice (min wall), record iterations, the
/// trajectory hash and the setup time `solve` reports next to its outcome,
/// and echo a `PERF` record.
fn run_e2e(
    rows: &mut Vec<E2eRow>,
    idx: usize,
    n: usize,
    name: &str,
    mut solve: impl FnMut() -> (f64, SolveOutcome),
) {
    let mut best_ms = f64::INFINITY;
    let mut record = None;
    for _ in 0..2 {
        let start = Instant::now();
        let (setup_seconds, outcome) = solve();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let stats = outcome.stats();
        assert!(stats.converged(), "{name} failed to converge on n={n}");
        best_ms = best_ms.min(ms);
        let hash =
            hash_f64s(stats.history.norms().iter().copied().chain(outcome.x().iter().copied()));
        record = Some((stats.iterations, hash, setup_seconds * 1e3));
    }
    let (iterations, hash, setup_ms) = record.unwrap();
    println!(
        "PERF kind=e2e solver={name} idx={idx} n={n} wall_ms={best_ms:.3} setup_ms={setup_ms:.3} iterations={iterations} hash={hash:016x}"
    );
    rows.push(E2eRow {
        solver: name.to_string(),
        idx,
        n,
        wall_ms: best_ms,
        setup_ms,
        iterations,
        hash,
    });
}

struct HierarchyRow {
    idx: usize,
    n: usize,
    levels: usize,
    dims: Vec<usize>,
    operator_complexity: f64,
    setup_ms: f64,
    apply_median_ns: u64,
    apply_min_ns: u64,
}

fn main() {
    let smoke = smoke_mode();
    let default_sizes: &[usize] = if smoke { &[800] } else { &[3000, 9000, 24000, 48000] };
    let sizes = env_list("PERF_SUITE_SIZES", default_sizes);
    let out_path =
        std::env::var("PERF_SUITE_OUT").unwrap_or_else(|_| "BENCH_multilevel.json".to_string());
    let floor = Duration::from_millis(if smoke { 5 } else { 25 });
    let model = load_pretrained().map(std::sync::Arc::new);
    let config = MultilevelConfig::default();

    let mut hier_rows: Vec<HierarchyRow> = Vec::new();
    let mut e2e_rows: Vec<E2eRow> = Vec::new();
    let mut problems_meta: Vec<(usize, usize, usize, usize)> = Vec::new();

    for (idx, &target) in sizes.iter().enumerate() {
        let problem = generate_problem(1 + idx as u64, target);
        let n = problem.num_unknowns();
        let nnz = problem.matrix.nnz();
        // Sub-domains of ~300 nodes, overlap 2 (the paper's configuration).
        let subdomains = partition_mesh_with_overlap(&problem.mesh, 300, 2, 0);
        let k = subdomains.len();
        problems_meta.push((idx, n, nnz, k));
        println!("PERF kind=problem idx={idx} n={n} nnz={nnz} subdomains={k}");

        // Hierarchy construction + V-cycle apply kernel.
        let setup_start = Instant::now();
        let hierarchy = Hierarchy::build(&problem.matrix, &config).expect("hierarchy build");
        let setup_ms = setup_start.elapsed().as_secs_f64() * 1e3;
        let dims = hierarchy.level_dims().to_vec();
        let mut z = vec![0.0; n];
        let (med, min) = time_kernel(|| hierarchy.apply_into(&problem.rhs, &mut z), floor, 7);
        println!(
            "PERF kind=hierarchy idx={idx} n={n} levels={} dims={} operator_complexity={:.4} setup_ms={setup_ms:.3} vcycle_median_ns={med} vcycle_min_ns={min}",
            hierarchy.num_levels(),
            dims.iter().map(usize::to_string).collect::<Vec<_>>().join("/"),
            hierarchy.operator_complexity(),
        );
        hier_rows.push(HierarchyRow {
            idx,
            n,
            levels: hierarchy.num_levels(),
            dims,
            operator_complexity: hierarchy.operator_complexity(),
            setup_ms,
            apply_median_ns: med,
            apply_min_ns: min,
        });
        drop(hierarchy);

        // End-to-end PCG: two-level baseline vs multi-level coarse path.
        let opts = SolverOptions::with_tolerance(1e-6).max_iterations(4000);
        let levels = hier_rows.last().unwrap().levels;
        let methods: &[(Method, &str)] = match &model {
            Some(_) => &[(Method::DdmLu, "lu"), (Method::DdmGnn, "gnn")],
            None => &[(Method::DdmLu, "lu")],
        };
        for &(method, local) in methods {
            for (level, tag) in [
                (AsmLevel::TwoLevel, "2level".to_string()),
                (AsmLevel::Multilevel(config), format!("ml{levels}")),
            ] {
                let solver_config = HybridSolverConfig { level, ..Default::default() };
                run_e2e(&mut e2e_rows, idx, n, &format!("pcg-ddm-{local}-{tag}"), || {
                    let setup = Instant::now();
                    let tiers =
                        build_tiers(&problem, &subdomains, method, model.as_ref(), &solver_config)
                            .unwrap_or_else(|e| panic!("{local}-{tag} setup failed on n={n}: {e}"));
                    let setup_seconds = setup.elapsed().as_secs_f64();
                    let precond = tiers.first().map(|t| t.as_ref());
                    (setup_seconds, solve(&problem.matrix, &[&problem.rhs], precond, &opts))
                });
            }
        }
    }

    // The headline check: multi-level iteration counts must stay flat or
    // fall **past n ≈ 24k** (small sizes are still in the pre-asymptotic
    // regime where a handful of extra iterations is normal).  Tolerate +2
    // iterations of noise between consecutive large sizes.
    let ml_iters: Vec<(usize, usize)> = e2e_rows
        .iter()
        .filter(|r| r.solver.starts_with("pcg-ddm-lu-ml"))
        .map(|r| (r.n, r.iterations))
        .collect();
    let mut scalable = true;
    for pair in ml_iters.windows(2) {
        if pair[0].0 >= 20_000 && pair[1].1 > pair[0].1 + 2 {
            scalable = false;
            eprintln!(
                "multilevel_suite: iteration growth {} (n={}) -> {} (n={})",
                pair[0].1, pair[0].0, pair[1].1, pair[1].0
            );
        }
    }

    let json = render_json(&problems_meta, &hier_rows, &e2e_rows, scalable);
    std::fs::write(&out_path, json).expect("cannot write benchmark report");
    eprintln!("multilevel_suite: wrote {out_path} (iterations flat-or-falling: {scalable})");
    if !smoke {
        assert!(scalable, "multi-level iteration counts grew with problem size");
    }
}

fn render_json(
    problems: &[(usize, usize, usize, usize)],
    hier: &[HierarchyRow],
    e2e: &[E2eRow],
    scalable: bool,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"command\": \"cargo run --release -p bench --bin multilevel_suite\",");
    let _ = writeln!(
        s,
        "  \"config\": \"MultilevelConfig::default() — smoothed aggregation, weighted-Jacobi smoothing, 1 pre + 1 post sweep\","
    );
    let _ = writeln!(s, "  \"problems\": [");
    for (i, (idx, n, nnz, k)) in problems.iter().enumerate() {
        let comma = if i + 1 < problems.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{ \"idx\": {idx}, \"n\": {n}, \"nnz\": {nnz}, \"subdomains\": {k} }}{comma}"
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"hierarchies\": [");
    for (i, h) in hier.iter().enumerate() {
        let comma = if i + 1 < hier.len() { "," } else { "" };
        let dims = h.dims.iter().map(usize::to_string).collect::<Vec<_>>().join(", ");
        let _ = writeln!(
            s,
            "    {{ \"idx\": {}, \"n\": {}, \"levels\": {}, \"level_dims\": [{}], \"operator_complexity\": {:.4}, \"setup_ms\": {:.3}, \"vcycle_median_ns\": {}, \"vcycle_min_ns\": {} }}{comma}",
            h.idx, h.n, h.levels, dims, h.operator_complexity, h.setup_ms, h.apply_median_ns, h.apply_min_ns
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"end_to_end\": [");
    for (i, r) in e2e.iter().enumerate() {
        let comma = if i + 1 < e2e.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{ \"solver\": \"{}\", \"idx\": {}, \"n\": {}, \"wall_ms\": {:.3}, \"setup_ms\": {:.3}, \"iterations\": {}, \"hash\": \"{:016x}\" }}{comma}",
            r.solver, r.idx, r.n, r.wall_ms, r.setup_ms, r.iterations, r.hash
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"multilevel_iterations_flat_or_falling\": {scalable}");
    let _ = writeln!(s, "}}");
    s
}
