//! `detsan_suite`: end-to-end schedule-invariance acceptance run for the
//! concurrency sanitizer.
//!
//! Without `--cfg detsan` this binary is a no-op (exit 0): the sanitizer's
//! pool hooks are compiled out, so there is no schedule to fuzz.
//!
//! Under `--cfg detsan` the parent re-executes itself once per thread count
//! (the rayon shim reads `RAYON_NUM_THREADS` once per process) with
//! `DETSAN=1`, so lock-site tracking is live for the whole child.  Each
//! child:
//!
//! 1. builds the paper's n≈3k Poisson problem and the strongest
//!    preconditioner available — DDM-GNN two-level f64 on the whole 16-block
//!    model file (the anchor the pins were recorded with) when it loads,
//!    DDM-LU two-level otherwise,
//! 2. solves once under the FIFO baseline schedule and once per fuzzed
//!    schedule seed, hashing the residual history chained with the solution
//!    vector (FNV-1a over the bit patterns),
//! 3. prints its live/suppressed sanitizer finding counts and, when asked,
//!    writes `sanitizer::report().render_json()` to the report path.
//!
//! The parent asserts that every hash — all thread counts, all seeds — is
//! bit-identical, that the hash matches the pin committed below (when running
//! the default problem size), and that the tracked run
//! produced **zero** live sanitizer findings.
//!
//! Usage:
//!   RUSTFLAGS="--cfg detsan" cargo run -p bench --bin detsan_suite
//! Environment:
//!   DETSAN_SUITE_SEEDS    fuzzed schedule seeds per child    (default 64;
//!                         CI smoke uses 8)
//!   DETSAN_SUITE_THREADS  comma-separated thread counts      (default 1,2,4)
//!   DETSAN_SUITE_SIZE     target node count                  (default 3000;
//!                         non-default sizes skip the committed-pin check)
//!   DETSAN_SUITE_REPORT   JSON findings-report path          (default
//!                         detsan-report.json, written by the parent's
//!                         max-thread-count child)

#[cfg(not(detsan))]
fn main() {
    eprintln!(
        "detsan_suite: compiled without --cfg detsan; the sanitizer hooks are \
         compiled out and there is no schedule to fuzz (exit 0)"
    );
}

#[cfg(detsan)]
fn main() {
    if std::env::var("DETSAN_SUITE_CHILD").is_ok() {
        detsan::child();
    } else {
        detsan::parent();
    }
}

#[cfg(detsan)]
mod detsan {
    use std::collections::BTreeMap;
    use std::path::Path;
    use std::process::Command;
    use std::sync::Arc;

    use bench::{env_list, env_usize};
    use ddm::{AdditiveSchwarz, AsmLevel};
    use ddm_gnn::{generate_problem, DdmGnnPreconditioner, Precision};
    use krylov::{preconditioned_conjugate_gradient, Preconditioner, SolverOptions};
    use partition::partition_mesh_with_overlap;

    /// Pinned residual-history/solution hashes of the n = 3090 problem
    /// (target size 3000), recorded on the 16-block anchor model when the
    /// determinism pins were first taken.  Bit-identical across
    /// thread counts by the pool shim's determinism contract; the suite
    /// extends that pin to every fuzzed schedule.
    const PINNED_HASHES: &[(&str, &str)] =
        &[("pcg-ddm-gnn-2level", "3b4db8001002d99e"), ("pcg-ddm-lu-2level", "7c60b364b117b10a")];

    /// Problem size whose hashes are pinned above.
    const PINNED_SIZE: usize = 3000;

    /// Golden-ratio stride: consecutive indices give unrelated seeds.
    const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

    /// FNV-1a over the bit patterns of a float sequence — the determinism
    /// witness the pins above were recorded with.
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

    // -----------------------------------------------------------------------
    // Child: solve under the baseline and fuzzed schedules at one thread count
    // -----------------------------------------------------------------------

    pub(super) fn child() {
        let threads = rayon::current_num_threads();
        let seeds = env_usize("DETSAN_SUITE_SEEDS", 64);
        let target = env_usize("DETSAN_SUITE_SIZE", PINNED_SIZE);

        let problem = generate_problem(1, target);
        let n = problem.num_unknowns();
        let subdomains = partition_mesh_with_overlap(&problem.mesh, 300, 2, 0);
        let opts = SolverOptions::with_tolerance(1e-6).max_iterations(4000);

        // The shipped file loaded whole: the 16-block anchor the pins were
        // recorded with (`load_pretrained()` would cut it to its default
        // depth).
        let anchor = concat!(env!("CARGO_MANIFEST_DIR"), "/../../assets/pretrained_k16_d10.dss");
        let model = gnn::io::load_model(Path::new(anchor)).ok().map(Arc::new);
        let (solver, precond): (&str, Box<dyn Preconditioner>) = match &model {
            Some(m) => (
                "pcg-ddm-gnn-2level",
                Box::new(
                    DdmGnnPreconditioner::with_precision(
                        &problem,
                        subdomains.clone(),
                        Arc::clone(m),
                        true,
                        Precision::F64,
                    )
                    .expect("DDM-GNN setup failed"),
                ),
            ),
            None => (
                "pcg-ddm-lu-2level",
                Box::new(
                    AdditiveSchwarz::new(&problem.matrix, subdomains.clone(), AsmLevel::TwoLevel)
                        .expect("ASM setup failed"),
                ),
            ),
        };

        let solve_hash = || -> u64 {
            let result = preconditioned_conjugate_gradient(
                &problem.matrix,
                &problem.rhs,
                None,
                &*precond,
                &opts,
            );
            assert!(result.stats.converged(), "{solver} failed to converge on n={n}");
            hash_f64s(result.stats.history.norms().iter().copied().chain(result.x.iter().copied()))
        };

        sanitizer::clear_schedule_seed();
        let baseline = solve_hash();
        println!(
            "DETSAN kind=solve solver={solver} n={n} threads={threads} seed=baseline \
             hash={baseline:016x}"
        );
        for k in 0..seeds {
            let seed = 0xD5_C4ED ^ (k as u64).wrapping_mul(SEED_STRIDE);
            sanitizer::set_schedule_seed(seed);
            let hash = solve_hash();
            println!(
                "DETSAN kind=solve solver={solver} n={n} threads={threads} seed={seed:016x} \
                 hash={hash:016x}"
            );
        }
        sanitizer::clear_schedule_seed();

        // Findings accumulated over every solve above (DETSAN=1 keeps
        // lock-site tracking live for the whole child process).
        let report = sanitizer::report();
        let live = report.live().count();
        let suppressed = report.allowed().count();
        println!("DETSAN kind=findings threads={threads} live={live} suppressed={suppressed}");
        eprint!("{}", report.render_human_as("detsan"));
        if let Ok(path) = std::env::var("DETSAN_SUITE_REPORT") {
            if !path.is_empty() {
                std::fs::write(&path, report.render_json()).expect("cannot write sanitizer report");
                eprintln!("detsan_suite: wrote {path}");
            }
        }
    }

    // -----------------------------------------------------------------------
    // Parent: orchestrate children, verify hashes and findings
    // -----------------------------------------------------------------------

    type Record = BTreeMap<String, String>;

    fn parse_records(stdout: &str) -> Vec<Record> {
        stdout
            .lines()
            .filter_map(|line| line.strip_prefix("DETSAN "))
            .map(|rest| {
                rest.split_whitespace()
                    .filter_map(|kv| kv.split_once('='))
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect()
            })
            .collect()
    }

    pub(super) fn parent() {
        let thread_counts = env_list("DETSAN_SUITE_THREADS", &[1, 2, 4]);
        let seeds = env_usize("DETSAN_SUITE_SEEDS", 64);
        let target = env_usize("DETSAN_SUITE_SIZE", PINNED_SIZE);
        let report_path = std::env::var("DETSAN_SUITE_REPORT")
            .unwrap_or_else(|_| "detsan-report.json".to_string());
        let exe = std::env::current_exe().expect("cannot locate detsan_suite executable");
        let report_child = thread_counts.iter().max().copied().unwrap_or(1);

        let mut all: Vec<Record> = Vec::new();
        for &t in &thread_counts {
            eprintln!(
                "detsan_suite: RAYON_NUM_THREADS={t}, {seeds} fuzzed schedule(s), \
                 target size {target} ..."
            );
            let output = Command::new(&exe)
                .env("DETSAN_SUITE_CHILD", "1")
                .env("RAYON_NUM_THREADS", t.to_string())
                // Lock-site tracking live for the whole child, so the
                // findings report covers every fuzzed solve.
                .env("DETSAN", "1")
                .env(
                    "DETSAN_SUITE_REPORT",
                    if t == report_child { report_path.as_str() } else { "" },
                )
                .output()
                .expect("failed to spawn detsan_suite child");
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            assert!(output.status.success(), "child (threads={t}) failed");
            all.extend(parse_records(&stdout));
        }

        let mut failures: Vec<String> = Vec::new();

        // Every solve hash — all thread counts, baseline and fuzzed — must
        // be identical, and must match the committed pin at the pinned size.
        let solves: Vec<&Record> =
            all.iter().filter(|r| r.get("kind").map(String::as_str) == Some("solve")).collect();
        if solves.is_empty() {
            failures.push("no solve records produced".to_string());
        }
        let expected: Option<&str> = if target == PINNED_SIZE {
            solves
                .first()
                .and_then(|r| {
                    PINNED_HASHES
                        .iter()
                        .find(|(s, _)| Some(*s) == r.get("solver").map(String::as_str))
                })
                .map(|(_, h)| *h)
        } else {
            None
        };
        let reference: Option<String> =
            expected.map(str::to_string).or_else(|| solves.first().map(|r| r["hash"].clone()));
        if let Some(want) = &reference {
            for rec in &solves {
                if &rec["hash"] != want {
                    failures.push(format!(
                        "{} at {} thread(s), seed {}: hash {} != {want}{}",
                        rec["solver"],
                        rec["threads"],
                        rec["seed"],
                        rec["hash"],
                        if expected.is_some() { " (pinned hash)" } else { "" }
                    ));
                }
            }
        }

        // The tracked runs must be clean: zero live sanitizer findings.
        for rec in all.iter().filter(|r| r.get("kind").map(String::as_str) == Some("findings")) {
            if rec.get("live").map(String::as_str) != Some("0") {
                failures.push(format!(
                    "{} live sanitizer finding(s) at {} thread(s) — see {report_path}",
                    rec["live"], rec["threads"]
                ));
            }
        }

        let schedules = solves.len();
        for f in &failures {
            eprintln!("detsan_suite: FAIL: {f}");
        }
        assert!(failures.is_empty(), "detsan_suite found {} failure(s)", failures.len());
        eprintln!(
            "detsan_suite: PASS — {schedules} solve(s) across {:?} thread(s) bit-identical{}, \
             zero live findings",
            thread_counts,
            if expected.is_some() { " and equal to the committed pin" } else { "" }
        );
    }
}
