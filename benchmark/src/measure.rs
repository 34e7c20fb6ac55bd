//! One workload, measured from outside the library: timed calls into public
//! constructors, the `krylov::Preconditioner` trait and the Krylov drivers.
//!
//! Closed loop, one solve in flight.  Per run: generate the problem
//! (untimed input), one discarded warm-up (partition + build + a 3-iteration
//! solve; its build is the cold one), [`SETUP_SAMPLES`] setup samples, then
//! solve samples on the last build until `--seconds` have passed.  Every
//! solve is verified.  The traced pass alternates plain and span-recording
//! solves and then runs the kernel probes.

use std::collections::BTreeMap;
use std::f64::consts::TAU;
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ddm::{AdditiveSchwarz, Hierarchy};
use ddm_gnn::{
    generate_problem, load_pretrained, DdmGnnPreconditioner, MultilevelConfig, Precision,
};
use fem::PoissonProblem;
use gnn::{DssModel, InferScratch};
use krylov::{
    conjugate_gradient, preconditioned_conjugate_gradient, solve_batch, Ic0Preconditioner,
    Preconditioner, SolveResult, SolverOptions,
};
use partition::partition_mesh_with_overlap;

use crate::checks::{combined_hash, same_hash, SolveRecord, Tally};
use crate::host::{self, Host, Triad};
use crate::json::Value;
use crate::stats::{median, time_kernel, Summary};
use crate::trace::{self, Span, Traced, Tracer};
use crate::workloads::{MetricDef, Tier, Workload, END_TO_END, PER_LAYER, SMOKE_TARGET_NODES};

// Common settings, equal to the committed BENCH_*.json files so numbers stay
// comparable with them.
const SUBDOMAIN_NODES: usize = 300;
const OVERLAP: usize = 2;
const PARTITION_SEED: u64 = 0;
const REL_TOLERANCE: f64 = 1e-6;
const MAX_ITERATIONS: usize = 4000;

/// Setup samples per run; the reported `setup_s` is their median.
const SETUP_SAMPLES: usize = 5;
const SETUP_SAMPLES_TRACED: usize = 3;
/// A setup sample repeats partition + build until it has lasted this long
/// (at most [`SETUP_MAX_CYCLES`] times) and reports the time per cycle: at
/// n≈3k one cycle is ≈ 35 ms and varied 33–59 ms on its own.
const SETUP_SAMPLE_FLOOR_S: f64 = 0.3;
const SETUP_MAX_CYCLES: usize = 10;
/// Iterations of the discarded warm-up solve.
const WARMUP_ITERATIONS: usize = 3;

/// What the command line chose for one run.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    pub seed: u64,
    /// How long to keep taking solve samples.
    pub seconds: f64,
    /// Record a span per preconditioner application and run the probes.
    pub trace: bool,
    /// n≈800, one sample of everything; same checks and schema.
    pub smoke: bool,
}

impl Settings {
    /// Setup samples per run; the traced pass reports no end-to-end metric
    /// and takes fewer.
    fn setup_samples(&self) -> usize {
        match (self.smoke, self.trace) {
            (true, _) => 1,
            (false, true) => SETUP_SAMPLES_TRACED,
            (false, false) => SETUP_SAMPLES,
        }
    }

    /// Solve samples taken even when `seconds` have already passed (the
    /// traced pass counts pairs of a plain and a span-recording sample).
    fn min_solve_samples(&self) -> usize {
        if self.smoke || self.trace {
            1
        } else {
            2
        }
    }

    /// Shortest calibrated batch and sample count of a kernel probe.
    fn kernel_floor(&self) -> (Duration, usize) {
        if self.smoke {
            (Duration::from_millis(2), 3)
        } else {
            (Duration::from_millis(25), 7)
        }
    }
}

/// One reported value, with the samples behind it when it is a timing.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub summary: Option<Summary>,
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static Workload,
    pub settings: Settings,
    pub n: usize,
    pub subdomains: usize,
    /// `Preconditioner::name()` of the tier that ran.
    pub tier: String,
    /// Combined hash of one solve sample (all right-hand sides).
    pub hash: Option<u64>,
    /// Iterations of one solve sample, summed over its right-hand sides.
    pub iterations: usize,
    pub tally: Tally,
    /// The end-to-end metrics (untraced pass) or the per-layer metrics
    /// (traced pass), in table order; empty when the workload was refused.
    pub metrics: Vec<Metric>,
    /// `solve_s` of the span-recording solves (traced pass only).
    pub traced_solve_s: Option<Summary>,
    pub wall_s: f64,
    pub spans: Vec<Span>,
}

/// The right-hand sides of one run, drawn from `--seed`:
/// `base[i] + c_j·sin(0.01·i + φ_j)` with `c_j ∈ [j + 0.5, j + 1.5)` and
/// `φ_j ∈ [0, 2π)` — `perf_suite`'s extra right-hand sides with a seeded
/// amplitude and phase.  The mesh and matrix are pinned per workload: across
/// meshes the iteration count of the two-level row alone varies by 23 %
/// (48–68), which no bound survives, while across these right-hand sides it
/// stays within an iteration or two.
pub fn right_hand_sides(base: &[f64], seed: u64, count: usize) -> Vec<Vec<f64>> {
    let mut state = seed;
    // splitmix64 → uniform in [0, 1).
    let mut unit = move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..count)
        .map(|j| {
            let amplitude = j as f64 + 0.5 + unit();
            let phase = TAU * unit();
            base.iter()
                .enumerate()
                .map(|(i, &v)| v + amplitude * (0.01 * i as f64 + phase).sin())
                .collect()
        })
        .collect()
}

/// The preconditioner a workload built, typed so the probes can reach the
/// GNN tier's graphs and plan size.
enum Built {
    Gnn(DdmGnnPreconditioner),
    Lu(AdditiveSchwarz),
}

impl Built {
    fn preconditioner(&self) -> &dyn Preconditioner {
        match self {
            Built::Gnn(p) => p,
            Built::Lu(p) => p,
        }
    }
}

struct Setup {
    built: Built,
    subdomains: usize,
    size_max_over_mean: f64,
    /// Partition + constructor time.
    seconds: f64,
}

/// The inputs of one run and the tracer that times what is done with them.
struct Context<'a> {
    workload: &'static Workload,
    settings: Settings,
    problem: PoissonProblem,
    rhs: Vec<Vec<f64>>,
    model: Option<Arc<DssModel>>,
    options: SolverOptions,
    tracer: &'a Tracer,
}

impl<'a> Context<'a> {
    fn new(
        workload: &'static Workload,
        settings: Settings,
        tracer: &'a Tracer,
    ) -> Result<Context<'a>, String> {
        let target = if settings.smoke { SMOKE_TARGET_NODES } else { workload.target_nodes };
        // A missing model is a hard error, never a silent retrain.
        let model = if workload.tier.is_gnn() {
            Some(Arc::new(load_pretrained().ok_or("pre-trained model not found (assets/)")?))
        } else {
            None
        };
        let (problem, _) =
            tracer.span("generate", || generate_problem(workload.problem_seed, target));
        let rhs = right_hand_sides(&problem.rhs, settings.seed, workload.rhs);
        let options = SolverOptions::with_tolerance(REL_TOLERANCE).max_iterations(MAX_ITERATIONS);
        Ok(Context { workload, settings, problem, rhs, model, options, tracer })
    }

    fn model(&self) -> &Arc<DssModel> {
        self.model.as_ref().expect("GNN tiers load the model in Context::new")
    }

    fn partition(&self) -> Vec<Vec<usize>> {
        partition_mesh_with_overlap(&self.problem.mesh, SUBDOMAIN_NODES, OVERLAP, PARTITION_SEED)
    }

    /// PCG on one right-hand side at the common tolerance.
    fn pcg(&self, b: &[f64], preconditioner: &dyn Preconditioner) -> SolveResult {
        let matrix = &self.problem.matrix;
        preconditioned_conjugate_gradient(matrix, b, None, preconditioner, &self.options)
    }

    /// Partition and build, each under its own span.
    fn setup(&self) -> Result<Setup, String> {
        let matrix = &self.problem.matrix;
        let (subdomains, partition_s) = self.tracer.span("partition", || self.partition());
        let count = subdomains.len();
        let largest = subdomains.iter().map(Vec::len).max().unwrap_or(0);
        let mean = subdomains.iter().map(Vec::len).sum::<usize>() as f64 / count.max(1) as f64;
        let config = MultilevelConfig::default();
        let (built, build_s) = self.tracer.span("build", || match self.workload.tier {
            Tier::GnnMultilevelF64 => DdmGnnPreconditioner::with_multilevel_coarse(
                &self.problem,
                subdomains,
                Arc::clone(self.model()),
                &config,
                Precision::F64,
            )
            .map(Built::Gnn),
            Tier::GnnTwoLevelF32 => DdmGnnPreconditioner::with_precision(
                &self.problem,
                subdomains,
                Arc::clone(self.model()),
                true,
                Precision::F32,
            )
            .map(Built::Gnn),
            Tier::LuMultilevel => {
                AdditiveSchwarz::with_multilevel(matrix, subdomains, &config).map(Built::Lu)
            }
        });
        Ok(Setup {
            built: built.map_err(|e| format!("preconditioner setup failed: {e}"))?,
            subdomains: count,
            size_max_over_mean: largest as f64 / mean.max(1.0),
            seconds: partition_s + build_s,
        })
    }

    /// Solve every right-hand side: one lockstep batch, or one after another.
    fn solve_all(
        &self,
        preconditioner: &dyn Preconditioner,
        options: &SolverOptions,
    ) -> Vec<SolveResult> {
        let matrix = &self.problem.matrix;
        if self.workload.batched {
            let columns: Vec<&[f64]> = self.rhs.iter().map(Vec::as_slice).collect();
            solve_batch(matrix, &columns, None, preconditioner, options)
        } else {
            self.rhs
                .iter()
                .map(|b| {
                    preconditioned_conjugate_gradient(matrix, b, None, preconditioner, options)
                })
                .collect()
        }
    }

    /// The discarded warm-up solve: [`WARMUP_ITERATIONS`] iterations touch
    /// every buffer a solve uses without paying for a whole one.
    fn warm_up_solve(&self, preconditioner: &dyn Preconditioner) {
        let short = self.options.clone().max_iterations(WARMUP_ITERATIONS);
        self.tracer.span("solve", || self.solve_all(preconditioner, &short));
    }

    /// One timed solve of all right-hand sides and its untimed verification.
    fn solve_sample(&self, preconditioner: &dyn Preconditioner) -> (f64, Vec<SolveRecord>) {
        let (results, seconds) =
            self.tracer.span("solve", || self.solve_all(preconditioner, &self.options));
        let (records, _) = self.tracer.span("verify", || {
            results
                .iter()
                .zip(&self.rhs)
                .map(|(result, b)| SolveRecord::of(&self.problem.matrix, b, result))
                .collect()
        });
        (seconds, records)
    }
}

/// Values collected during a run, by metric name.
#[derive(Default)]
struct Values(BTreeMap<&'static str, (f64, Option<Summary>)>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, (value, None));
    }

    fn set_summary(&mut self, name: &'static str, summary: Summary) {
        self.0.insert(name, (summary.median, Some(summary)));
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.0)
    }

    /// The metrics of `table`, in its order; one that was never set does not
    /// apply to this workload and reads 0.
    fn into_metrics(self, table: &[MetricDef]) -> Vec<Metric> {
        for name in self.0.keys() {
            assert!(
                END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| n == name),
                "metric `{name}` is in neither table"
            );
        }
        table
            .iter()
            .map(|&(name, unit)| {
                let (value, summary) = self.0.get(name).copied().unwrap_or((0.0, None));
                Metric { name, unit, value, summary }
            })
            .collect()
    }
}

/// What the measured part of a run hands to the span-derived metrics.
struct Measured {
    n: usize,
    subdomains: usize,
    tier: String,
    hash: u64,
    plain_solve: Summary,
    traced_solve: Option<Summary>,
    /// Iterations of one sample, summed over its right-hand sides.
    iterations: usize,
    /// The bandwidth probe (traced pass only).
    triad: Option<Triad>,
}

/// Run one workload under `settings`.
pub fn run(workload: &'static Workload, settings: Settings, host: &Host) -> Report {
    let wall = Instant::now();
    let refused = |reason: String| Report {
        workload,
        settings,
        n: 0,
        subdomains: 0,
        tier: String::new(),
        hash: None,
        iterations: 0,
        tally: Tally::refused(reason),
        metrics: Vec::new(),
        traced_solve_s: None,
        wall_s: wall.elapsed().as_secs_f64(),
        spans: Vec::new(),
    };
    // Oversubscribed timings are not measurements: refuse instead.
    if workload.threads > host.cpus {
        return refused(format!("needs {} CPUs, host has {}", workload.threads, host.cpus));
    }
    let threads = rayon::current_num_threads();
    if threads != workload.threads {
        return refused(format!("pool has {threads} threads, workload names {}", workload.threads));
    }
    let tracer = Tracer::default();
    let mut tally = Tally::default();
    let mut values = Values::default();
    let (measured, _) = tracer
        .span("workload", || measure(workload, settings, host, &tracer, &mut tally, &mut values));
    let measured = match measured {
        Ok(measured) => measured,
        Err(reason) => return refused(reason),
    };
    let spans = tracer.spans();
    let table: &[MetricDef] = if settings.trace {
        span_metrics(workload, &spans, &measured, &mut values);
        &PER_LAYER
    } else {
        values.set("peak_rss_mb", host::peak_rss_mb());
        &END_TO_END
    };
    Report {
        workload,
        settings,
        n: measured.n,
        subdomains: measured.subdomains,
        tier: measured.tier,
        hash: Some(measured.hash),
        iterations: measured.iterations,
        tally,
        metrics: values.into_metrics(table),
        traced_solve_s: measured.traced_solve,
        wall_s: wall.elapsed().as_secs_f64(),
        spans,
    }
}

/// The timed part of a run: warm-up, setup samples, solve samples, the
/// reference checks and (traced pass) the probes.
fn measure(
    workload: &'static Workload,
    settings: Settings,
    host: &Host,
    tracer: &Tracer,
    tally: &mut Tally,
    values: &mut Values,
) -> Result<Measured, String> {
    let context = &Context::new(workload, settings, tracer)?;
    let pattern = workload.tier.name_pattern();

    // Warm-up: the first build of a process pays the page faults of the whole
    // plan set (0.5–4.8 s against a steady 0.45 s at n≈24k).
    let mut current = Some(
        tracer
            .span("warmup", || {
                let setup = context.setup()?;
                context.warm_up_solve(setup.built.preconditioner());
                Ok::<Setup, String>(setup)
            })
            .0?,
    );

    let mut setup_samples = Vec::new();
    for _ in 0..settings.setup_samples() {
        let (mut timed, mut cycles) = (0.0, 0);
        while cycles == 0
            || (!settings.smoke && timed < SETUP_SAMPLE_FLOOR_S && cycles < SETUP_MAX_CYCLES)
        {
            // Drop the previous instance first: two f64 plan sets at once
            // would double the peak resident set.
            drop(current.take());
            let setup = tracer.span("setup", || context.setup()).0?;
            timed += setup.seconds;
            cycles += 1;
            current = Some(setup);
        }
        setup_samples.push(timed / cycles as f64);
    }
    let setup = current.expect("at least one setup sample");
    let preconditioner = setup.built.preconditioner();
    let tier = preconditioner.name().to_string();
    let setup_s = Summary::of(&setup_samples).expect("at least one setup sample");

    // Solve samples on the last build.  The traced pass alternates plain and
    // span-recording solves so `trace.overhead_ratio` compares like with like.
    let traced_preconditioner = Traced { inner: preconditioner, tracer };
    let min_samples = settings.min_solve_samples();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut reference: Option<Vec<SolveRecord>> = None;
    let mut judge_sample = |label: String, records: Vec<SolveRecord>, tally: &mut Tally| {
        for (j, record) in records.iter().enumerate() {
            let identical = match &reference {
                Some(first) => same_hash(first[j].hash, record.hash),
                None => Ok(()),
            };
            let verdict = record.judge(Some((pattern, &tier))).and(identical);
            tally.solve(&format!("{label}, rhs {j}"), verdict);
        }
        reference.get_or_insert(records);
    };
    let sampling = Instant::now();
    while plain.len() < min_samples || sampling.elapsed().as_secs_f64() < settings.seconds {
        let (seconds, records) = context.solve_sample(preconditioner);
        judge_sample(format!("solve sample {}", plain.len()), records, tally);
        plain.push(seconds);
        if settings.trace {
            let (seconds, records) = context.solve_sample(&traced_preconditioner);
            judge_sample(format!("traced solve sample {}", traced.len()), records, tally);
            traced.push(seconds);
        }
    }
    let reference = reference.expect("at least one solve sample");
    let hash = combined_hash(&reference);
    let iterations: usize = reference.iter().map(|r| r.iterations).sum();
    let solve_s = Summary::of(&plain).expect("at least one solve sample");

    values.set_summary("setup_s", setup_s);
    values.set_summary("solve_s", solve_s);
    values.set_summary("time_to_solution_s", setup_s.plus(solve_s));
    values.set("partition.subdomains", setup.subdomains as f64);
    values.set("partition.size_max_over_mean", setup.size_max_over_mean);
    values.set("krylov.iterations", iterations as f64);
    values.set(
        "krylov.true_rel_residual",
        reference.iter().map(|r| r.true_rel_residual).fold(0.0, f64::max),
    );
    values.set("rayon.threads", workload.threads as f64);

    // The PR-8 contract: every batched column is bit-identical, iteration
    // count included, to its own unbatched solve.
    if workload.batched {
        let (sequential_s, _) = tracer.span("verify", || {
            let mut total = 0.0;
            for (j, b) in context.rhs.iter().enumerate() {
                let active: &dyn Preconditioner =
                    if settings.trace { &traced_preconditioner } else { preconditioner };
                let (result, seconds) = tracer.span("solve", || context.pcg(b, active));
                total += seconds;
                let record = SolveRecord::of(&context.problem.matrix, b, &result);
                let batched = reference[j].iterations;
                let same_count = (record.iterations == batched).then_some(()).ok_or_else(|| {
                    format!("{} iterations unbatched, {batched} batched", record.iterations)
                });
                let verdict = record
                    .judge(Some((pattern, &tier)))
                    .and(same_count)
                    .and(same_hash(record.hash, reference[j].hash));
                tally.solve(&format!("unbatched column {j}"), verdict);
            }
            total
        });
        values.set("ddm-gnn.batch_speedup_vs_sequential", sequential_s / solve_s.median);
    }

    // The standing thread-invariance guarantee: the same seed solved on one
    // thread, in a process of its own, gives the same bits.
    if workload.threads > 1 {
        let (one_thread, _) = tracer.span("verify", || one_thread_reference(workload, &settings));
        match one_thread {
            Ok((reference_hash, reference_solve_s)) => {
                tally.solve("1-thread reference", same_hash(reference_hash, hash));
                let speedup = reference_solve_s / solve_s.median;
                values.set("rayon.speedup_vs_t1", speedup);
                values.set("rayon.efficiency", speedup / workload.threads as f64);
            }
            Err(reason) => tally.solve("1-thread reference", Err(reason)),
        }
    }

    let mut triad = None;
    if settings.trace {
        match tracer.span("probes", || probes(context, host, &setup, tally, values)).0 {
            Ok(measured) => triad = Some(measured),
            Err(reason) => tally.solve("probes", Err(reason)),
        }
    }
    Ok(Measured {
        n: context.problem.num_unknowns(),
        subdomains: setup.subdomains,
        tier,
        hash,
        plain_solve: solve_s,
        traced_solve: Summary::of(&traced),
        iterations,
        triad,
    })
}

/// Kernel probes: public calls timed directly, in calibrated batches.  A
/// constructor that fails ends the probes and fails the run.
fn probes(
    context: &Context,
    host: &Host,
    setup: &Setup,
    tally: &mut Tally,
    values: &mut Values,
) -> Result<Triad, String> {
    let Context { workload, settings, problem, .. } = context;
    let matrix = &problem.matrix;
    let n = matrix.nrows();
    let (floor, samples) = settings.kernel_floor();
    let first_rhs = &context.rhs[0];
    let config = MultilevelConfig::default();

    let ones = vec![1.0; n];
    let mut out = vec![0.0; n];
    let spmv = time_kernel(|| matrix.spmv_into(&ones, &mut out), floor, samples);
    values.set_summary("sparse.spmv_us", spmv.scaled(1e6));
    // Computed, not measured: values + column indices + row pointers read
    // once, x read and y written once; cache misses on x are ignored.
    let spmv_bytes = 16 * matrix.nnz() + 8 * (n + 1) + 16 * n;
    values.set("sparse.spmv_gbs_computed", spmv_bytes as f64 / spmv.median / 1e9);

    if workload.tier != Tier::GnnTwoLevelF32 {
        let start = Instant::now();
        let hierarchy = Hierarchy::build(matrix, &config).map_err(|e| e.to_string())?;
        values.set("ddm.hierarchy_build_s", start.elapsed().as_secs_f64());
        values.set("ddm.hierarchy_levels", hierarchy.num_levels() as f64);
        values.set("ddm.operator_complexity", hierarchy.operator_complexity());
        // `apply_into` accumulates, which does not change its cost.
        let vcycle = time_kernel(|| hierarchy.apply_into(first_rhs, &mut out), floor, samples);
        values.set_summary("ddm.vcycle_us", vcycle.scaled(1e6));
    }

    if let Built::Gnn(preconditioner) = &setup.built {
        // A sample of the sub-domains (every ⌈k/8⌉-th), so the probe does
        // not duplicate the whole plan set; f64 anchor engine only.
        let model = context.model();
        let graphs = preconditioner.graphs();
        let (mut build_ms, mut infer_us) = (Vec::new(), Vec::new());
        for graph in graphs.iter().step_by(graphs.len().div_ceil(8).max(1)) {
            let start = Instant::now();
            let plan = model.build_plan(graph);
            build_ms.push(start.elapsed().as_secs_f64() * 1e3);
            let mut scratch = InferScratch::new();
            let mut local = vec![0.0; graph.num_nodes()];
            let infer = time_kernel(
                || model.infer_with_plan_into(&plan, &graph.input, &mut scratch, &mut local),
                floor,
                samples,
            );
            infer_us.push(infer.median * 1e6);
        }
        let infer = Summary::of(&infer_us).expect("at least one sub-domain");
        values.set_summary("gnn.plan_build_ms", Summary::of(&build_ms).expect("one sub-domain"));
        values.set_summary("gnn.infer_us", infer);
        values.set("gnn.infer_max_over_median", infer.max / infer.median);
        values.set("gnn.plan_mb", preconditioner.plan_memory_bytes() as f64 / 1e6);
    }

    if workload.probe_other_tiers {
        // The "int8, on evidence" decision: the other two tiers on the same
        // problem, one at a time so only one extra plan set is resident.
        for (precision, apply_name, plan_name) in [
            (Precision::F32, "ddm-gnn.apply_f32_ms", "ddm-gnn.plan_mb_f32"),
            (Precision::Int8, "ddm-gnn.apply_int8_ms", "ddm-gnn.plan_mb_int8"),
        ] {
            let other = DdmGnnPreconditioner::with_multilevel_coarse(
                problem,
                context.partition(),
                Arc::clone(context.model()),
                &config,
                precision,
            )
            .map_err(|e| e.to_string())?;
            let applies: Vec<f64> = (0..5)
                .map(|_| {
                    let start = Instant::now();
                    other.apply(first_rhs, &mut out);
                    start.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            values.set_summary(apply_name, Summary::of(&applies).expect("5 applies"));
            values.set(plan_name, other.plan_memory_bytes() as f64 / 1e6);
        }
    }

    if workload.tier == Tier::GnnMultilevelF64 {
        // The ROADMAP's standing gap as a number: DDM-LU on this problem,
        // partition included.
        let start = Instant::now();
        let lu = AdditiveSchwarz::with_multilevel(matrix, context.partition(), &config)
            .map_err(|e| e.to_string())?;
        let result = context.pcg(first_rhs, &lu);
        let lu_s = start.elapsed().as_secs_f64();
        let tier = (Tier::LuMultilevel.name_pattern(), lu.name());
        tally.solve("DDM-LU probe", SolveRecord::of(matrix, first_rhs, &result).judge(Some(tier)));
        values.set("ddm.lu_time_to_solution_s", lu_s);
        values.set("ddm-gnn.slowdown_vs_lu", values.get("time_to_solution_s") / lu_s);
    }

    if workload.tier == Tier::LuMultilevel {
        // Classical baselines on the same problem and tolerance.
        let start = Instant::now();
        let cg = conjugate_gradient(matrix, first_rhs, None, &context.options);
        values.set("krylov.cg_solve_s", start.elapsed().as_secs_f64());
        values.set("krylov.cg_iterations", cg.stats.iterations as f64);
        tally.solve("CG probe", SolveRecord::of(matrix, first_rhs, &cg).judge(None));
        let ic0 = Ic0Preconditioner::new(matrix).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let result = context.pcg(first_rhs, &ic0);
        values.set("krylov.ic0_solve_s", start.elapsed().as_secs_f64());
        values.set("krylov.ic0_iterations", result.stats.iterations as f64);
        tally.solve("IC(0) probe", SolveRecord::of(matrix, first_rhs, &result).judge(None));
    }

    let triad = if settings.smoke {
        host::triad(host, true)
    } else {
        host::triad_cached(host, &crate::out_dir(false).join("host-triad.json"))
    };
    values.set("host.cpus", host.cpus as f64);
    values.set("host.llc_mb", host.llc_mb);
    values.set("host.triad_gbs", triad.gbs);
    values.set("host.triad_array_mb", triad.array_mb);
    Ok(triad)
}

/// Per-layer metrics that come from the recorded spans.
fn span_metrics(workload: &Workload, spans: &[Span], measured: &Measured, values: &mut Values) {
    let is_gnn = workload.tier.is_gnn();
    let seconds_of = |name: &str| Summary::of(&trace::durations(spans, name));

    values.set("meshgen.generate_s", median(&trace::durations(spans, "generate")));
    if let Some(partition) = Summary::of(&trace::durations_under(spans, "setup", "partition")) {
        values.set_summary("partition.partition_s", partition);
    }
    let warm_build = Summary::of(&trace::durations_under(spans, "setup", "build"));
    let cold_build = median(&trace::durations_under(spans, "warmup", "build"));
    if let Some(build) = warm_build {
        values.set_summary(if is_gnn { "ddm-gnn.build_s" } else { "ddm.asm_build_s" }, build);
    }
    if is_gnn {
        values.set("ddm-gnn.build_cold_s", cold_build);
    }

    let apply = seconds_of("apply");
    let apply_batch = seconds_of("apply_batch");
    if let Some(apply) = apply {
        if is_gnn {
            values.set_summary("ddm-gnn.apply_ms", apply.scaled(1e3));
        } else {
            values.set_summary("ddm.asm_apply_us", apply.scaled(1e6));
        }
    }
    if let Some(batch) = apply_batch {
        values.set_summary("ddm-gnn.batch_ms_per_column", batch.scaled(1e3 / workload.rhs as f64));
    }
    // Every apply streams the plan set once, so plan bytes ÷ apply time is a
    // computed lower bound on the bytes the apply moved per second.
    if let Some(stream) = apply_batch.or(apply).filter(|_| is_gnn) {
        let gbs = values.get("gnn.plan_mb") / 1e3 / stream.median;
        values.set("gnn.stream_gbs_computed", gbs);
        // A roof measured inside the cache is not a roof: omit the ratio then.
        if let Some(triad) = measured.triad.filter(|t| t.beyond_cache) {
            values.set("gnn.roof_fraction", gbs / triad.gbs);
        }
    }

    // Krylov self time: the span-recording solve samples minus their applies.
    let sample_solves: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "solve" && s.parent == Some(0))
        .filter(|s| spans.iter().any(|c| c.parent == Some(s.id)))
        .collect();
    let solve_total: f64 = sample_solves.iter().map(|s| s.seconds()).sum();
    let apply_total: f64 = spans
        .iter()
        .filter(|c| c.parent.is_some_and(|p| sample_solves.iter().any(|s| s.id == p)))
        .map(Span::seconds)
        .sum();
    if solve_total > 0.0 {
        let iterations = (sample_solves.len() * measured.iterations).max(1);
        values.set("krylov.precond_share", apply_total / solve_total);
        values
            .set("krylov.self_ms_per_iter", (solve_total - apply_total) * 1e3 / iterations as f64);
    }
    if let Some(traced) = measured.traced_solve {
        values.set("trace.overhead_ratio", traced.median / measured.plain_solve.median);
    }
    values.set("trace.self_time_gap", trace::self_time_gap(spans));
}

/// What the 1-thread reference process prints: hash and solve time of the
/// same workload and seed.
pub fn reference_line(workload: &'static Workload, settings: Settings) -> Result<String, String> {
    let tracer = Tracer::default();
    let context = Context::new(workload, settings, &tracer)?;
    let setup = context.setup()?;
    let preconditioner = setup.built.preconditioner();
    context.warm_up_solve(preconditioner);
    let (seconds, records) = context.solve_sample(preconditioner);
    Ok(crate::json::obj([
        ("hash", Value::from(format!("{:016x}", combined_hash(&records)))),
        ("solve_s", Value::from(seconds)),
    ])
    .to_compact())
}

/// Solve `workload` once on one thread in a fresh process (the pool reads
/// `RAYON_NUM_THREADS` once per process) and return its hash and solve time.
fn one_thread_reference(workload: &Workload, settings: &Settings) -> Result<(u64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command.args(["reference", "--workload", workload.name, "--seed", &settings.seed.to_string()]);
    if settings.smoke {
        command.arg("--smoke");
    }
    let output = command.env("RAYON_NUM_THREADS", "1").output().map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("reference process failed: {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = Value::parse(stdout.lines().last().unwrap_or(""))?;
    let hash = line
        .get("hash")
        .and_then(Value::as_str)
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or("reference process printed no hash")?;
    let solve_s =
        line.get("solve_s").and_then(Value::as_f64).ok_or("reference process printed no time")?;
    Ok((hash, solve_s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn right_hand_sides_follow_the_seed() {
        let base = vec![0.25; 100];
        let a = right_hand_sides(&base, 7, 3);
        assert_eq!(a, right_hand_sides(&base, 7, 3), "same seed, same inputs");
        assert_ne!(a, right_hand_sides(&base, 8, 3), "another seed, other inputs");
        assert_eq!((a.len(), a[0].len()), (3, 100));
        assert_ne!(a[0], a[1]);
        // The first columns of a longer set are the shorter set.
        assert_eq!(right_hand_sides(&base, 7, 1)[0], a[0]);
        // Column j's perturbation has amplitude in [j + 0.5, j + 1.5).
        let peak = |col: &[f64]| col.iter().map(|v| (v - 0.25).abs()).fold(0.0, f64::max);
        assert!(peak(&a[0]) < 1.5 && peak(&a[2]) > 1.5 && peak(&a[2]) < 3.5);
    }

    #[test]
    fn unset_metrics_read_zero_and_unknown_names_panic() {
        let mut values = Values::default();
        values.set("solve_s", 1.5);
        let metrics = values.into_metrics(&END_TO_END);
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics.iter().find(|m| m.name == "solve_s").unwrap().value, 1.5);
        assert_eq!(metrics.iter().find(|m| m.name == "setup_s").unwrap().value, 0.0);
        let mut values = Values::default();
        values.set("no.such_metric", 1.0);
        assert!(std::panic::catch_unwind(move || values.into_metrics(&PER_LAYER)).is_err());
    }
}
