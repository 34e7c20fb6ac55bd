//! End-to-end performance suite for the parallel runtime.
//!
//! Times the four hot paths of the hybrid solver — sparse SpMV, the Additive
//! Schwarz (DDM-LU) preconditioner application, the DDM-GNN preconditioner
//! application and full PCG solves — across several problem sizes and thread
//! counts, and writes the results to `BENCH_parallel.json` so future changes
//! have a measured trajectory to beat.
//!
//! Because the rayon shim reads `RAYON_NUM_THREADS` once per process, the
//! suite re-executes itself: the parent spawns one child per thread count
//! (`PERF_SUITE_CHILD=1`), each child prints `PERF key=value ...` records on
//! stdout, and the parent aggregates them, cross-checks that the residual
//! histories are **bit-identical** at every thread count (the shim's
//! determinism contract) and emits the JSON report.
//!
//! Besides the end-to-end report the suite writes a per-layer breakdown of
//! the GNN inference engine (`BENCH_gnn_inference.json`): node GEMMs, edge
//! GEMM, aggregation, Ψ update and decoder, measured by timing
//! [`gnn::DssModel::infer_with_plan`] sequentially over every sub-domain
//! graph of the preconditioner.  Every GNN measurement (apply kernel, per-layer stages,
//! plan memory, e2e solve) runs once per inference precision tier — the
//! engine's f64 and f32 instantiations and the int8 weight format of the
//! latter — and the rows are tagged `precision=f64|f32|int8`; the per-layer
//! report closes with the per-problem f32-vs-f64 apply speedups.
//!
//! Usage:
//!   cargo run --release -p bench --bin perf_suite
//! Environment:
//!   PERF_SUITE_THREADS   comma-separated thread counts   (default "1,2,4")
//!   PERF_SUITE_SIZES     comma-separated target node counts
//!                        (default "3000,9000,24000")
//!   PERF_SUITE_PRECISIONS comma-separated GNN inference precisions
//!                        (default "f64,f32,int8")
//!   PERF_SUITE_OUT       output path (default "BENCH_parallel.json")
//!   PERF_SUITE_GNN_OUT   per-layer report path (default "BENCH_gnn_inference.json")
//!   PERF_SUITE_SMOKE     when set: tiny problem, two thread counts, short
//!                        calibration floors — a CI smoke run that exercises
//!                        the whole harness (including the determinism
//!                        cross-check and both reports) in well under a
//!                        minute of measurement time

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;
use std::time::{Duration, Instant};

use ddm::{AdditiveSchwarz, AsmLevel};
use ddm_gnn::{
    build_tiers, generate_problem, load_pretrained, solve, DdmGnnPreconditioner, DegradationLadder,
    FaultInjectingPreconditioner, HybridSolverConfig, InjectedFault, Method, Precision,
    ResiliencePolicy,
};
use gnn::{DssModel, InferScratch, InferencePlan, InferenceTimings, LocalGraph};
use krylov::{preconditioned_conjugate_gradient, Preconditioner, SolverOptions};
use partition::partition_mesh_with_overlap;

fn smoke_mode() -> bool {
    std::env::var("PERF_SUITE_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// GNN inference precisions to measure (`PERF_SUITE_PRECISIONS`, default
/// all three).
fn precision_list() -> Vec<Precision> {
    std::env::var("PERF_SUITE_PRECISIONS")
        .ok()
        .map(|s| {
            s.split(',')
                .map(|t| t.parse().expect("bad PERF_SUITE_PRECISIONS entry"))
                .collect::<Vec<Precision>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![Precision::F64, Precision::F32, Precision::Int8])
}

fn main() {
    if std::env::var("PERF_SUITE_CHILD").is_ok() {
        child();
    } else {
        parent();
    }
}

// ---------------------------------------------------------------------------
// Child: measure at the current RAYON_NUM_THREADS
// ---------------------------------------------------------------------------

/// FNV-1a over the bit patterns of a float sequence — the determinism witness.
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

/// Median/min per-call time: calibrate the batch size once (≥ `floor` per
/// batch), then take `samples` equally sized samples.
///
/// Mirrors the criterion shim's `Bencher::iter` algorithm but is kept local
/// on purpose: the shim only exposes upstream criterion's API so the
/// workspace can swap back to the registry crate without source changes, and
/// upstream has no callable calibrate-and-sample helper.
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
        // Grow at least 2× but never past the cap (`clamp` would panic when
        // the lower bound exceeds the cap).
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

fn child() {
    let threads = rayon::current_num_threads();
    let smoke = smoke_mode();
    let default_sizes: &[usize] = if smoke { &[800] } else { &[3000, 9000, 24000] };
    let sizes = env_list("PERF_SUITE_SIZES", default_sizes);
    let model = load_pretrained().map(std::sync::Arc::new);
    let floor = Duration::from_millis(if smoke { 5 } else { 25 });
    let mut fault_recovery_done = false;

    for (pi, &target) in sizes.iter().enumerate() {
        let problem = generate_problem(1 + pi as u64, target);
        let n = problem.num_unknowns();
        let nnz = problem.matrix.nnz();
        // Sub-domains of ~300 nodes, overlap 2 (the paper's configuration).
        let subdomains = partition_mesh_with_overlap(&problem.mesh, 300, 2, 0);
        let k = subdomains.len();
        println!("PERF kind=problem idx={pi} n={n} nnz={nnz} subdomains={k} threads={threads}");

        // SpMV.
        let x = vec![1.0; n];
        let mut y = vec![0.0; n];
        let (med, min) = time_kernel(|| problem.matrix.spmv_into(&x, &mut y), floor, 7);
        println!("PERF kind=kernel name=spmv idx={pi} n={n} threads={threads} median_ns={med} min_ns={min}");

        // ASM (DDM-LU two-level) apply.
        let asm = AdditiveSchwarz::new(&problem.matrix, subdomains.clone(), AsmLevel::TwoLevel)
            .expect("ASM setup failed");
        let r = problem.rhs.clone();
        let mut z = vec![0.0; n];
        let (med, min) = time_kernel(|| asm.apply(&r, &mut z), floor, 7);
        println!("PERF kind=kernel name=asm_apply idx={pi} n={n} threads={threads} median_ns={med} min_ns={min}");

        // End-to-end PCG solves (2 runs, min wall time; history hashed for
        // the cross-thread-count determinism check).
        let opts = SolverOptions::with_tolerance(1e-6).max_iterations(4000);
        let e2e = |name: &str, precond: &dyn Preconditioner| {
            let mut best_ms = f64::INFINITY;
            let mut record = None;
            for _ in 0..2 {
                let start = Instant::now();
                let result = preconditioned_conjugate_gradient(
                    &problem.matrix,
                    &problem.rhs,
                    None,
                    precond,
                    &opts,
                );
                let ms = start.elapsed().as_secs_f64() * 1e3;
                assert!(result.stats.converged(), "{name} failed to converge on n={n}");
                if ms < best_ms {
                    best_ms = ms;
                }
                let hash = hash_f64s(
                    result.stats.history.norms().iter().copied().chain(result.x.iter().copied()),
                );
                record = Some((result.stats.iterations, hash));
            }
            let (iterations, hash) = record.unwrap();
            println!(
                "PERF kind=e2e solver={name} idx={pi} n={n} threads={threads} wall_ms={best_ms:.3} iterations={iterations} hash={hash:016x}"
            );
        };
        e2e("pcg-ddm-lu-2level", &asm);

        // GNN preconditioner: apply kernel, per-layer breakdown and e2e PCG,
        // once per inference precision.  The preconditioners are built one at
        // a time so only one plan set (hundreds of MB at the largest size) is
        // resident.
        if let Some(m) = &model {
            for precision in precision_list() {
                let p = precision.as_str();
                let precond = DdmGnnPreconditioner::with_precision(
                    &problem,
                    subdomains.clone(),
                    std::sync::Arc::clone(m),
                    true,
                    precision,
                )
                .expect("DDM-GNN setup failed");
                let (med, min) = time_kernel(|| precond.apply(&r, &mut z), floor, 7);
                println!("PERF kind=kernel name=gnn_apply precision={p} idx={pi} n={n} threads={threads} median_ns={med} min_ns={min}");

                // Batched multi-RHS apply: the b columns are b rows per node
                // of the same kernels, the weights are read and the geometric
                // edge terms computed once per batch instead of once per
                // column, so ns-per-column should fall with b.  b=4 is
                // covered by the CI smoke leg.
                let batch_widths: &[usize] = if smoke { &[1, 4] } else { &[1, 2, 4, 8] };
                let max_b = batch_widths.iter().copied().max().unwrap();
                let rhs_panel: Vec<Vec<f64>> = (0..max_b)
                    .map(|c| {
                        r.iter()
                            .enumerate()
                            .map(|(i, &v)| v + (c as f64) * ((i as f64) * 0.01).sin())
                            .collect()
                    })
                    .collect();
                let mut z_panel = vec![vec![0.0; n]; max_b];
                for &bw in batch_widths {
                    let rs: Vec<&[f64]> = rhs_panel[..bw].iter().map(|v| v.as_slice()).collect();
                    let (cols, _) = z_panel.split_at_mut(bw);
                    let (med, min) = time_kernel(
                        || {
                            let mut zs: Vec<&mut [f64]> =
                                cols.iter_mut().map(|z| z.as_mut_slice()).collect();
                            precond.apply_batch(&rs, &mut zs);
                        },
                        floor,
                        7,
                    );
                    println!("PERF kind=kernel name=gnn_apply_batched precision={p} b={bw} idx={pi} n={n} threads={threads} median_ns={med} min_ns={min}");
                }

                // Per-layer breakdown of the inference engine: one
                // sequential sweep over the sub-domain graphs per rep, with
                // plans at this tier's precision.  Stage times do not depend
                // on the input values, so each graph's stored input stands in
                // for the residual.  The stage split is thread-independent,
                // so the parent asks only the base-thread-count child to
                // measure it (standalone child runs default to measuring).
                let measure_layers =
                    std::env::var("PERF_SUITE_LAYER_CHILD").map_or(true, |v| v != "0");
                if measure_layers {
                    let reps = if smoke { 1 } else { 3 };
                    let [timings, batched_timings] =
                        [1, max_b].map(|b| stage_timings(m, precond.graphs(), precision, b, reps));
                    for (stage, ns) in timings.stages() {
                        println!(
                            "PERF kind=gnn_layer precision={p} stage={stage} idx={pi} n={n} threads={threads} total_ns={ns} applies={reps} inferences={}",
                            timings.calls
                        );
                    }
                    // The same stage split at the widest batch: shows where
                    // the amortisation lands per stage (the node GEMMs and
                    // edge gather touch the plan once per batch, the
                    // psi/decoder work scales with b).
                    for (stage, ns) in batched_timings.stages() {
                        println!(
                            "PERF kind=gnn_layer_batched precision={p} b={max_b} stage={stage} idx={pi} n={n} threads={threads} total_ns={ns} applies={reps} inferences={}",
                            batched_timings.calls
                        );
                    }
                    println!(
                        "PERF kind=gnn_plan precision={p} idx={pi} n={n} threads={threads} plan_bytes={}",
                        precond.plan_memory_bytes()
                    );
                }

                let solver_name = match precision {
                    Precision::F64 => "pcg-ddm-gnn-2level",
                    Precision::F32 => "pcg-ddm-gnn-2level-f32",
                    Precision::Int8 => "pcg-ddm-gnn-2level-int8",
                };
                e2e(solver_name, &precond);
            }

            // Recovery overhead of the fault-tolerant supervisor: run the
            // full degradation ladder (GNN-f64 → DDM-LU → Jacobi) fault-free
            // and with one NaN fault injected into the GNN tier at apply 10,
            // on the first problem of at least ~9k unknowns.  Measured once
            // (at every thread count) — the ladder setup builds a second GNN
            // plan set, so this is kept off the smaller problems.
            if !fault_recovery_done && !smoke && n >= 5000 {
                fault_recovery_done = true;
                let config = HybridSolverConfig {
                    resilience: Some(ResiliencePolicy::default()),
                    ..Default::default()
                };
                let run = |inject: bool| {
                    let mut tiers =
                        build_tiers(&problem, &subdomains, Method::DdmGnn, Some(m), &config)
                            .expect("resilience tier setup failed");
                    if inject {
                        let gnn = tiers.remove(0);
                        tiers.insert(
                            0,
                            Box::new(FaultInjectingPreconditioner::scheduled(
                                gnn,
                                [(10u64, InjectedFault::NanOutput)],
                            )),
                        );
                    }
                    let ladder = DegradationLadder::new(tiers, ResiliencePolicy::default());
                    let start = Instant::now();
                    let outcome = solve(&problem.matrix, &[&problem.rhs], Some(&ladder), &opts);
                    (start.elapsed().as_secs_f64() * 1e3, outcome)
                };
                let (clean_ms, clean) = run(false);
                let (faulted_ms, faulted) = run(true);
                assert!(
                    clean.stats().converged() && faulted.stats().converged(),
                    "fault_recovery solves failed to converge on n={n}"
                );
                let overhead = if clean_ms > 0.0 { faulted_ms / clean_ms } else { f64::INFINITY };
                println!(
                    "PERF kind=fault_recovery idx={pi} n={n} threads={threads} clean_ms={clean_ms:.3} faulted_ms={faulted_ms:.3} overhead={overhead:.3} clean_iterations={} faulted_iterations={} faults={} final_tier={}",
                    clean.stats().iterations,
                    faulted.stats().iterations,
                    faulted.stats().faults.events().len(),
                    faulted.stats().faults.final_tier().unwrap_or("?")
                );
            }
        }
    }
}

/// Per-stage inference time of `reps` sequential sweeps over `graphs`, one
/// `b`-column inference per graph on plans built at `precision` (`calls` =
/// graphs × reps).
fn stage_timings(
    model: &DssModel,
    graphs: &[LocalGraph],
    precision: Precision,
    b: usize,
    reps: usize,
) -> InferenceTimings {
    fn sweep<T: gnn::Scalar>(
        model: &DssModel,
        plan: &InferencePlan<T>,
        input: &[f64],
        b: usize,
        reps: usize,
        timings: &mut InferenceTimings,
    ) {
        let mut scratch = InferScratch::new();
        let mut out = vec![0.0; input.len()];
        for _ in 0..reps {
            model.infer_with_plan(plan, input, b, &mut scratch, &mut out, Some(&mut *timings));
        }
    }
    let mut timings = InferenceTimings::default();
    for graph in graphs {
        let input: Vec<f64> = graph.input.iter().flat_map(|&v| std::iter::repeat_n(v, b)).collect();
        match precision {
            Precision::F64 => sweep(model, &model.build_plan(graph), &input, b, reps, &mut timings),
            Precision::F32 | Precision::Int8 => {
                let plan = model.build_plan_f32(graph, precision == Precision::Int8);
                sweep(model, &plan, &input, b, reps, &mut timings)
            }
        }
    }
    timings
}

// ---------------------------------------------------------------------------
// Parent: orchestrate children, verify determinism, write the JSON report
// ---------------------------------------------------------------------------

type Record = BTreeMap<String, String>;

fn env_list(name: &str, default: &[usize]) -> Vec<usize> {
    std::env::var(name)
        .ok()
        .map(|s| s.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

fn parse_records(stdout: &str) -> Vec<Record> {
    stdout
        .lines()
        .filter_map(|line| line.strip_prefix("PERF "))
        .map(|rest| {
            rest.split_whitespace()
                .filter_map(|kv| kv.split_once('='))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect()
        })
        .collect()
}

fn parent() {
    let smoke = smoke_mode();
    let default_threads: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4] };
    let thread_counts = env_list("PERF_SUITE_THREADS", default_threads);
    let out_path =
        std::env::var("PERF_SUITE_OUT").unwrap_or_else(|_| "BENCH_parallel.json".to_string());
    let gnn_out_path = std::env::var("PERF_SUITE_GNN_OUT")
        .unwrap_or_else(|_| "BENCH_gnn_inference.json".to_string());
    let exe = std::env::current_exe().expect("cannot locate perf_suite executable");

    let base_threads = thread_counts.iter().min().copied().unwrap_or(1);
    let mut all: Vec<Record> = Vec::new();
    for &t in &thread_counts {
        eprintln!("perf_suite: measuring with RAYON_NUM_THREADS={t} ...");
        let output = Command::new(&exe)
            .env("PERF_SUITE_CHILD", "1")
            .env("RAYON_NUM_THREADS", t.to_string())
            // The per-layer stage split is thread-independent; only the
            // base-thread-count child spends time measuring it.
            .env("PERF_SUITE_LAYER_CHILD", if t == base_threads { "1" } else { "0" })
            .output()
            .expect("failed to spawn perf_suite child");
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        assert!(
            output.status.success(),
            "child (threads={t}) failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        all.extend(parse_records(&stdout));
    }

    // Annotate every measurement taken with more worker threads than the
    // host actually has: oversubscribed numbers must not be misread as
    // scaling data.
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    for rec in &mut all {
        if rec.get("threads").and_then(|t| t.parse::<usize>().ok()).is_some_and(|t| t > host_cpus) {
            rec.insert("oversubscribed".to_string(), "true".to_string());
        }
    }

    // Determinism: for every (solver, problem) the residual-history hash must
    // be identical at every thread count.
    let mut hashes: BTreeMap<(String, String), Vec<(String, String)>> = BTreeMap::new();
    for rec in all.iter().filter(|r| r.get("kind").map(String::as_str) == Some("e2e")) {
        hashes
            .entry((rec["solver"].clone(), rec["idx"].clone()))
            .or_default()
            .push((rec["threads"].clone(), rec["hash"].clone()));
    }
    let mut identical = true;
    for ((solver, idx), entries) in &hashes {
        let first = &entries[0].1;
        for (threads, hash) in entries {
            if hash != first {
                identical = false;
                eprintln!(
                    "DETERMINISM VIOLATION: {solver} problem {idx}: hash {hash} at {threads} threads != {first}"
                );
            }
        }
    }

    // Speedup of the largest end-to-end solve: max threads vs 1 thread.
    let speedup = |solver: &str| -> Option<f64> {
        let largest = all
            .iter()
            .filter(|r| r.get("kind").map(String::as_str) == Some("e2e") && r["solver"] == solver)
            .filter_map(|r| r["idx"].parse::<usize>().ok())
            .max()?;
        let wall = |threads: usize| -> Option<f64> {
            all.iter()
                .find(|r| {
                    r.get("kind").map(String::as_str) == Some("e2e")
                        && r["solver"] == solver
                        && r["idx"] == largest.to_string()
                        && r["threads"] == threads.to_string()
                })
                .and_then(|r| r["wall_ms"].parse().ok())
        };
        // Fewest vs most threads, independent of the order the list was
        // given in (PERF_SUITE_THREADS is user-supplied and may be unsorted).
        let base = wall(*thread_counts.iter().min()?)?;
        let best = wall(*thread_counts.iter().max()?)?;
        (best > 0.0).then(|| base / best)
    };

    let json = render_json(
        &thread_counts,
        &all,
        identical,
        &[
            ("pcg-ddm-lu-2level", speedup("pcg-ddm-lu-2level")),
            ("pcg-ddm-gnn-2level", speedup("pcg-ddm-gnn-2level")),
            ("pcg-ddm-gnn-2level-f32", speedup("pcg-ddm-gnn-2level-f32")),
            ("pcg-ddm-gnn-2level-int8", speedup("pcg-ddm-gnn-2level-int8")),
        ],
    );
    std::fs::write(&out_path, json).expect("cannot write benchmark report");
    eprintln!("perf_suite: wrote {out_path} (bit-identical across thread counts: {identical})");

    let gnn_json = render_gnn_inference_json(&thread_counts, &all);
    std::fs::write(&gnn_out_path, gnn_json).expect("cannot write GNN inference report");
    eprintln!("perf_suite: wrote {gnn_out_path}");

    assert!(identical, "residual histories differ across thread counts");
}

/// Render the per-layer GNN inference report.  Stage timings come from
/// sequential per-graph inference sweeps, so they are thread-count independent; the
/// records of the lowest measured thread count are kept.  Every row carries
/// a `precision` tag (`"f64"` / `"f32"` / `"int8"`), and the report closes
/// with the per-problem f32-vs-f64 `gnn_apply` speedups.
fn render_gnn_inference_json(thread_counts: &[usize], records: &[Record]) -> String {
    let base_threads = thread_counts.iter().min().copied().unwrap_or(1).to_string();
    let precision_of = |rec: &Record| -> String {
        rec.get("precision").cloned().unwrap_or_else(|| "f64".to_string())
    };
    let layer_recs: Vec<&Record> = records
        .iter()
        .filter(|r| {
            r.get("kind").map(String::as_str) == Some("gnn_layer")
                && r.get("threads") == Some(&base_threads)
        })
        .collect();
    // Total per (problem index, precision), for the share column.
    let mut totals: BTreeMap<(String, String), u64> = BTreeMap::new();
    for rec in &layer_recs {
        if let Ok(ns) = rec["total_ns"].parse::<u64>() {
            *totals.entry((rec["idx"].clone(), precision_of(rec))).or_default() += ns;
        }
    }
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"command\": \"cargo run --release -p bench --bin perf_suite\",");
    let _ = writeln!(
        s,
        "  \"stage_timer\": \"DssModel::infer_with_plan (sequential sub-domain sweep)\","
    );
    let _ = writeln!(
        s,
        "  \"host_cpus\": {},",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );
    let _ = writeln!(s, "  \"threads\": {base_threads},");
    let _ = writeln!(s, "  \"stages\": [");
    for (i, rec) in layer_recs.iter().enumerate() {
        let total =
            totals.get(&(rec["idx"].clone(), precision_of(rec))).copied().unwrap_or(0).max(1);
        let ns: u64 = rec["total_ns"].parse().unwrap_or(0);
        let share = ns as f64 / total as f64;
        let comma = if i + 1 < layer_recs.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{ \"idx\": {}, \"n\": {}, \"precision\": \"{}\", \"stage\": \"{}\", \"total_ns\": {}, \"share\": {:.4}, \"applies\": {}, \"inferences\": {} }}{comma}",
            rec["idx"], rec["n"], precision_of(rec), rec["stage"], rec["total_ns"], share, rec["applies"], rec["inferences"]
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"plan_memory\": [");
    let plan_recs: Vec<&Record> = records
        .iter()
        .filter(|r| {
            r.get("kind").map(String::as_str) == Some("gnn_plan")
                && r.get("threads") == Some(&base_threads)
        })
        .collect();
    for (i, rec) in plan_recs.iter().enumerate() {
        let comma = if i + 1 < plan_recs.len() { "," } else { "" };
        let _ =
            writeln!(
            s,
            "    {{ \"idx\": {}, \"n\": {}, \"precision\": \"{}\", \"plan_bytes\": {} }}{comma}",
            rec["idx"], rec["n"], precision_of(rec), rec["plan_bytes"]
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"gnn_apply_median_ns\": [");
    let apply_recs: Vec<&Record> = records
        .iter()
        .filter(|r| {
            r.get("kind").map(String::as_str) == Some("kernel")
                && r.get("name").map(String::as_str) == Some("gnn_apply")
                && r.get("threads") == Some(&base_threads)
        })
        .collect();
    for (i, rec) in apply_recs.iter().enumerate() {
        let comma = if i + 1 < apply_recs.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{ \"idx\": {}, \"n\": {}, \"precision\": \"{}\", \"median_ns\": {}, \"min_ns\": {} }}{comma}",
            rec["idx"], rec["n"], precision_of(rec), rec["median_ns"], rec["min_ns"]
        );
    }
    let _ = writeln!(s, "  ],");
    // Batched multi-RHS apply: median per call, per column (median / b) and
    // the amortisation factor against the b=1 batched run of the same
    // (problem, precision).
    let batched_recs: Vec<&Record> = records
        .iter()
        .filter(|r| {
            r.get("kind").map(String::as_str) == Some("kernel")
                && r.get("name").map(String::as_str) == Some("gnn_apply_batched")
                && r.get("threads") == Some(&base_threads)
        })
        .collect();
    let mut b1_per_column: BTreeMap<(String, String), f64> = BTreeMap::new();
    for rec in &batched_recs {
        if rec.get("b").map(String::as_str) == Some("1") {
            if let Ok(ns) = rec["median_ns"].parse::<f64>() {
                b1_per_column.insert((rec["idx"].clone(), precision_of(rec)), ns);
            }
        }
    }
    let _ = writeln!(s, "  \"gnn_apply_batched\": [");
    for (i, rec) in batched_recs.iter().enumerate() {
        let b: f64 = rec["b"].parse().unwrap_or(1.0);
        let median: f64 = rec["median_ns"].parse().unwrap_or(0.0);
        let per_column = median / b.max(1.0);
        let amortisation = b1_per_column
            .get(&(rec["idx"].clone(), precision_of(rec)))
            .map_or(1.0, |&b1| if per_column > 0.0 { b1 / per_column } else { 1.0 });
        let comma = if i + 1 < batched_recs.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{ \"idx\": {}, \"n\": {}, \"precision\": \"{}\", \"b\": {}, \"median_ns\": {}, \"ns_per_column\": {:.0}, \"batch_amortisation_vs_b1\": {:.3} }}{comma}",
            rec["idx"], rec["n"], precision_of(rec), rec["b"], rec["median_ns"], per_column, amortisation
        );
    }
    let _ = writeln!(s, "  ],");
    // The per-stage split of the widest batched apply, mirroring "stages".
    let batched_layer_recs: Vec<&Record> = records
        .iter()
        .filter(|r| {
            r.get("kind").map(String::as_str) == Some("gnn_layer_batched")
                && r.get("threads") == Some(&base_threads)
        })
        .collect();
    let mut batched_totals: BTreeMap<(String, String), u64> = BTreeMap::new();
    for rec in &batched_layer_recs {
        if let Ok(ns) = rec["total_ns"].parse::<u64>() {
            *batched_totals.entry((rec["idx"].clone(), precision_of(rec))).or_default() += ns;
        }
    }
    let _ = writeln!(s, "  \"stages_batched\": [");
    for (i, rec) in batched_layer_recs.iter().enumerate() {
        let total = batched_totals
            .get(&(rec["idx"].clone(), precision_of(rec)))
            .copied()
            .unwrap_or(0)
            .max(1);
        let ns: u64 = rec["total_ns"].parse().unwrap_or(0);
        let share = ns as f64 / total as f64;
        let comma = if i + 1 < batched_layer_recs.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{ \"idx\": {}, \"n\": {}, \"precision\": \"{}\", \"b\": {}, \"stage\": \"{}\", \"total_ns\": {}, \"share\": {:.4}, \"applies\": {}, \"inferences\": {} }}{comma}",
            rec["idx"], rec["n"], precision_of(rec), rec["b"], rec["stage"], rec["total_ns"], share, rec["applies"], rec["inferences"]
        );
    }
    let _ = writeln!(s, "  ],");
    // Per-problem apply-kernel speedup of the f32 instantiation over the f64
    // one (median / median).  The int8 tier is the f32 engine on differently
    // rounded weights, so it has no speed or memory ratio of its own.
    let mut medians: BTreeMap<(String, String), (String, u64)> = BTreeMap::new();
    for rec in &apply_recs {
        if let Ok(ns) = rec["median_ns"].parse::<u64>() {
            medians.insert((rec["idx"].clone(), precision_of(rec)), (rec["n"].clone(), ns));
        }
    }
    let _ = writeln!(s, "  \"gnn_apply_speedup_f32_vs_f64\": [");
    let speedups: Vec<(&String, &String, f64)> = medians
        .iter()
        .filter(|((_, p), _)| p == "f64")
        .filter_map(|((idx, _), (n, ns_f64))| {
            let (_, ns_f32) = medians.get(&(idx.clone(), "f32".to_string()))?;
            (*ns_f32 > 0).then(|| (idx, n, *ns_f64 as f64 / *ns_f32 as f64))
        })
        .collect();
    for (i, (idx, n, speedup)) in speedups.iter().enumerate() {
        let comma = if i + 1 < speedups.len() { "," } else { "" };
        let _ =
            writeln!(s, "    {{ \"idx\": {idx}, \"n\": {n}, \"speedup\": {speedup:.3} }}{comma}");
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

fn render_json(
    thread_counts: &[usize],
    records: &[Record],
    identical: bool,
    speedups: &[(&str, Option<f64>)],
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"command\": \"cargo run --release -p bench --bin perf_suite\",");
    let _ = writeln!(
        s,
        "  \"host_cpus\": {},",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );
    let _ = writeln!(
        s,
        "  \"thread_counts\": [{}],",
        thread_counts.iter().map(usize::to_string).collect::<Vec<_>>().join(", ")
    );
    let render_group = |s: &mut String, kind: &str, fields: &[&str]| {
        let recs: Vec<&Record> =
            records.iter().filter(|r| r.get("kind").map(String::as_str) == Some(kind)).collect();
        for (i, rec) in recs.iter().enumerate() {
            let body = fields
                .iter()
                .filter_map(|&f| {
                    rec.get(f).map(|v| {
                        // `hash`/`solver`/`name` are always strings — a hex
                        // hash of decimal digits (or with a lone 'e') would
                        // otherwise pass the f64 parse and be emitted as an
                        // invalid bare number.
                        let is_bool = matches!(v.as_str(), "true" | "false");
                        let is_string = !is_bool
                            && (matches!(f, "hash" | "solver" | "name")
                                || v.parse::<f64>().is_err());
                        if is_string {
                            format!("\"{f}\": \"{v}\"")
                        } else {
                            format!("\"{f}\": {v}")
                        }
                    })
                })
                .collect::<Vec<_>>()
                .join(", ");
            let comma = if i + 1 < recs.len() { "," } else { "" };
            let _ = writeln!(s, "    {{ {body} }}{comma}");
        }
    };
    // Problem records repeat once per child process; keep one per index.
    let first_threads = thread_counts.first().map(usize::to_string).unwrap_or_default();
    let problem_records: Vec<Record> = records
        .iter()
        .filter(|r| {
            r.get("kind").map(String::as_str) == Some("problem")
                && r.get("threads") == Some(&first_threads)
        })
        .cloned()
        .collect();
    let _ = writeln!(s, "  \"problems\": [");
    for (i, rec) in problem_records.iter().enumerate() {
        let comma = if i + 1 < problem_records.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{ \"idx\": {}, \"n\": {}, \"nnz\": {}, \"subdomains\": {} }}{comma}",
            rec["idx"], rec["n"], rec["nnz"], rec["subdomains"]
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"kernels\": [");
    render_group(
        &mut s,
        "kernel",
        &["name", "precision", "b", "idx", "n", "threads", "median_ns", "min_ns", "oversubscribed"],
    );
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"end_to_end\": [");
    render_group(
        &mut s,
        "e2e",
        &["solver", "idx", "n", "threads", "wall_ms", "iterations", "hash", "oversubscribed"],
    );
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"fault_recovery\": [");
    render_group(
        &mut s,
        "fault_recovery",
        &[
            "idx",
            "n",
            "threads",
            "clean_ms",
            "faulted_ms",
            "overhead",
            "clean_iterations",
            "faulted_iterations",
            "faults",
            "final_tier",
            "oversubscribed",
        ],
    );
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"determinism\": {{ \"bit_identical_across_threads\": {identical} }},");
    let _ = writeln!(s, "  \"speedups_largest_problem_maxthreads_vs_1\": {{");
    for (i, (name, value)) in speedups.iter().enumerate() {
        let comma = if i + 1 < speedups.len() { "," } else { "" };
        match value {
            Some(v) => {
                let _ = writeln!(s, "    \"{name}\": {v:.3}{comma}");
            }
            None => {
                let _ = writeln!(s, "    \"{name}\": null{comma}");
            }
        }
    }
    let _ = writeln!(s, "  }}");
    let _ = writeln!(s, "}}");
    s
}
