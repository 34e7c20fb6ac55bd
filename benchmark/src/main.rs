//! Command line of the benchmark.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! benchmark run [--seed <n>] [--seconds <s>] [--smoke]
//! benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form measures one workload in this process and ends its output
//! with the one-line JSON result; `run` spawns it once per workload and pass
//! (a fresh process each, so `peak_rss_mb` and the thread count are per
//! workload) and gathers `out/results.json`.  Exit code 1 means a check
//! failed (or `compare` found a `worse`), 2 a usage or I/O error.

use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;

use benchmark::compare::{classify, compare, Side, Verdict};
use benchmark::host::{self, Host};
use benchmark::json::{obj, Value};
use benchmark::measure::{self, Settings};
use benchmark::report;
use benchmark::workloads::{self, Workload, WORKLOADS};

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  benchmark run [--seed <n>] [--seconds <s>] [--smoke]
  benchmark compare <a.json> <b.json>";

/// `--seconds` of `run` when none is given: `run_seconds` of BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 10.0;

struct Args {
    workload: Option<&'static Workload>,
    settings: Settings,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        settings: Settings { seed: 1, seconds: DEFAULT_SECONDS, trace: false, smoke: false },
        positional: Vec::new(),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                let found = workloads::find(name).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{name}`; one of {}", names.join(", "))
                })?;
                parsed.workload = Some(found);
            }
            "--seed" => {
                parsed.settings.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err("--seconds must lie in 0..=3600".to_string());
                }
                parsed.settings.seconds = seconds;
            }
            "--trace" => {
                parsed.settings.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => parsed.settings.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            _ => parsed.positional.push(arg.clone()),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => return usage_error(&message),
    };
    let command: Vec<&str> = parsed.positional.iter().map(String::as_str).collect();
    match (command.as_slice(), parsed.workload) {
        ([], Some(workload)) => single(workload, parsed.settings),
        (["reference"], Some(workload)) => reference(workload, parsed.settings),
        (["run"], None) => suite(parsed.settings),
        (["compare", before, after], None) => compare_files(before, after),
        _ => usage_error("expected --workload <name>, `run` or `compare <a> <b>`"),
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message}\n{USAGE}");
    ExitCode::from(2)
}

/// The pool reads `RAYON_NUM_THREADS` once, at first use; nothing has used
/// it yet, and no other thread exists to race the environment write.
fn pin_threads(workload: &Workload) {
    std::env::set_var("RAYON_NUM_THREADS", workload.threads.to_string());
}

/// Measure one workload in this process (the form the driver runs).
fn single(workload: &'static Workload, settings: Settings) -> ExitCode {
    pin_threads(workload);
    let report = measure::run(workload, settings, &Host::detect());
    report::print_lines(&report);
    if let Err(e) = report::write_files(&report) {
        eprintln!("error: writing under {}: {e}", benchmark::out_dir(settings.smoke).display());
        return ExitCode::from(2);
    }
    println!("{}", report::result_line(&report));
    ExitCode::from(u8::from(report.tally.failed > 0))
}

/// Internal: the 1-thread solve a multi-threaded workload checks its bits
/// against (spawned by `measure` with `RAYON_NUM_THREADS=1`).
fn reference(workload: &'static Workload, settings: Settings) -> ExitCode {
    match measure::reference_line(workload, settings) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(1)
        }
    }
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `metrics` of a detail file as `results.json` keeps them.
fn metrics_of(detail: Option<&Value>) -> Value {
    detail.and_then(|d| d.get("metrics")).cloned().unwrap_or_else(|| obj::<&str>([]))
}

/// Every workload, untraced then traced, each in a fresh process.
fn suite(settings: Settings) -> ExitCode {
    let wall = Instant::now();
    let host = Host::detect();
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return usage_error(&format!("cannot locate this executable: {e}")),
    };
    let mut rows = Vec::new();
    let mut failed = false;
    for workload in &WORKLOADS {
        let mut details = Vec::new();
        for trace in [false, true] {
            let path = report::detail_path(workload.name, trace, settings.smoke);
            // A stale file must not pass for this run's result.
            let _ = std::fs::remove_file(&path);
            let mut command = Command::new(&exe);
            command.args(["--workload", workload.name]);
            command.args(["--seed", &settings.seed.to_string()]);
            command.args(["--seconds", &settings.seconds.to_string()]);
            command.args(["--trace", if trace { "1" } else { "0" }]);
            if settings.smoke {
                command.arg("--smoke");
            }
            let succeeded = command.status().is_ok_and(|status| status.success());
            let detail = read_json(&path);
            if let Err(message) = &detail {
                eprintln!("FAILED {}: no result ({message})", workload.name);
            }
            failed |= !succeeded || detail.is_err();
            details.push(detail.ok());
        }
        let (untraced, traced) = (details[0].as_ref(), details[1].as_ref());
        let field = |key: &str| untraced.and_then(|d| d.get(key)).cloned().unwrap_or(Value::Null);
        let failed_share = untraced.and_then(|d| d.get("failed_share")?.as_f64()).unwrap_or(1.0);
        let mut end_to_end = metrics_of(untraced);
        if let Value::Obj(members) = &mut end_to_end {
            members.push((
                "failed_share".to_string(),
                obj([("value", Value::from(failed_share)), ("unit", Value::from("ratio"))]),
            ));
        }
        if let Some(verdict) = tracing_verdict(&end_to_end, traced) {
            println!("trace.solve_s_vs_untraced {} {verdict} verdict", workload.name);
        }
        rows.push(obj([
            ("name", Value::from(workload.name)),
            ("why", Value::from(workload.why)),
            ("threads", Value::from(workload.threads)),
            ("n", field("n")),
            ("subdomains", field("subdomains")),
            ("tier", field("tier")),
            ("solution_hash", field("solution_hash")),
            ("solves_attempted", field("solves_attempted")),
            ("solves_failed", field("solves_failed")),
            ("failures", field("failures")),
            ("end_to_end", end_to_end),
            ("per_layer", metrics_of(traced)),
            ("traced_solve_s", traced.and_then(|d| d.get("traced_solve_s")).cloned().into()),
            ("traced_failures", traced.and_then(|d| d.get("failures")).cloned().into()),
        ]));
    }
    let results = obj([
        ("schema", Value::from(1usize)),
        ("smoke", Value::from(settings.smoke)),
        ("seed", Value::from(settings.seed)),
        ("seconds", Value::from(settings.seconds)),
        ("host", host.to_json()),
        ("git", host::git_state()),
        ("rustc", Value::from(host::rustc_version())),
        ("wall_s", Value::from(wall.elapsed().as_secs_f64())),
        ("workloads", Value::Arr(rows)),
    ]);
    let path = benchmark::out_dir(settings.smoke).join("results.json");
    if let Err(e) = std::fs::write(&path, results.to_pretty()) {
        eprintln!("error: {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!("wrote {} ({:.1} s)", path.display(), wall.elapsed().as_secs_f64());
    ExitCode::from(u8::from(failed))
}

/// Whether recording spans slowed the solves: the traced pass's
/// span-recording `solve_s` against the untraced pass's, under `compare`'s
/// rule and `solve_s`'s bound.
fn tracing_verdict(end_to_end: &Value, traced: Option<&Value>) -> Option<Verdict> {
    let side = |v: &Value, value_key: &str| {
        Some(Side {
            median: v.get(value_key)?.as_f64()?,
            min: v.get("min")?.as_f64()?,
            max: v.get("max")?.as_f64()?,
        })
    };
    let untraced = side(end_to_end.get("solve_s")?, "value")?;
    let traced = side(traced?.get("traced_solve_s")?, "median")?;
    let bound = benchmark_json().ok()?.get("end_to_end")?.as_array()?.iter().find_map(|m| {
        (m.get("name")?.as_str()? == "solve_s").then(|| m.get("bound")?.as_f64())?
    })?;
    Some(classify(untraced, traced, true, bound))
}

fn benchmark_json() -> Result<Value, String> {
    read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
}

fn compare_files(before: &str, after: &str) -> ExitCode {
    let rows = read_json(Path::new(before))
        .and_then(|a| Ok((a, read_json(Path::new(after))?, benchmark_json()?)))
        .and_then(|(a, b, benchmark)| compare(&a, &b, &benchmark));
    let rows = match rows {
        Ok(rows) => rows,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    println!("{:<20} {:<22} {:>12} {:>12}  verdict", "metric", "workload", "before", "after");
    for row in &rows {
        println!(
            "{:<20} {:<22} {:>12.5} {:>12.5}  {}",
            row.metric, row.workload, row.before, row.after, row.verdict
        );
    }
    ExitCode::from(u8::from(rows.iter().any(|r| r.verdict == Verdict::Worse)))
}
