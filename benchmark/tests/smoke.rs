//! Runs `benchmark run --smoke` end to end and validates what it writes
//! against `BENCHMARK.json`: the same names, units, checks and schema as a
//! full run, at n≈800 with one sample of everything.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use benchmark::json::Value;
use benchmark::workloads::{END_TO_END, PER_LAYER, WORKLOADS};

fn read(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Value::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn str_of<'a>(value: &'a Value, key: &str) -> &'a str {
    value.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("`{key}` missing in {value:?}"))
}

fn num_of(value: &Value, key: &str) -> f64 {
    value.get(key).and_then(Value::as_f64).unwrap_or_else(|| panic!("`{key}` missing in {value:?}"))
}

/// `BENCHMARK.json` must name exactly what the code reports.
#[test]
fn benchmark_json_matches_the_code() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let benchmark = read(&manifest.join("../BENCHMARK.json"));
    let keys: Vec<&str> = benchmark.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);

    let list = |key: &str| benchmark.get(key).and_then(Value::as_array).unwrap().to_vec();
    let workloads = list("workloads");
    assert!((2..=8).contains(&workloads.len()));
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (listed, coded) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(str_of(listed, "name"), coded.name);
        let why = str_of(listed, "why");
        assert_eq!(why, coded.why);
        assert!(why.len() <= 200 && !why.contains('\n'), "{}: why too long", coded.name);
    }

    let end_to_end = list("end_to_end");
    assert!((1..=16).contains(&end_to_end.len()));
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (listed, (name, unit)) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!((str_of(listed, "name"), str_of(listed, "unit")), (*name, *unit));
        assert!(["lower", "higher"].contains(&str_of(listed, "better")));
        let bound = num_of(listed, "bound");
        assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
    }
    let bound_of = |name: &str| {
        end_to_end.iter().find(|m| str_of(m, "name") == name).map(|m| num_of(m, "bound")).unwrap()
    };
    assert!(end_to_end.iter().all(|m| num_of(m, "bound") <= bound_of("setup_s")));

    let per_layer = list("per_layer");
    assert!((1..=128).contains(&per_layer.len()));
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (listed, (name, unit)) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!((str_of(listed, "name"), str_of(listed, "unit")), (*name, *unit));
        assert!(["lower", "higher"].contains(&str_of(listed, "better")));
        assert_eq!(listed.as_object().unwrap().len(), 3, "{name}: name, unit, better only");
    }

    let mut names = BTreeSet::new();
    for entry in workloads.iter().chain(&end_to_end).chain(&per_layer) {
        let name = str_of(entry, "name");
        assert!(name_ok(name), "bad name `{name}`");
        assert!(names.insert(name.to_string()), "duplicate name `{name}`");
    }

    let run_seconds = num_of(&benchmark, "run_seconds");
    assert!((1.0..=60.0).contains(&run_seconds) && run_seconds.fract() == 0.0);
    let paths = list("paths");
    assert_eq!(paths, vec![Value::from("benchmark")]);

    // Every library item the benchmark calls is written down for the
    // simplification PRs that must keep or re-export it.
    let surface = read(&manifest.join("api_surface.json"));
    let items = surface.get("api_surface").and_then(Value::as_array).unwrap();
    assert!(items.len() >= 20 && items.iter().all(|i| i.as_str().is_some()));
}

#[test]
fn smoke_run_reports_every_metric_for_every_workload() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["run", "--smoke", "--seed", "1", "--seconds", "0"])
        .output()
        .expect("running the benchmark binary");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);

    let results = read(&manifest.join("out/smoke/results.json"));
    assert_eq!(results.get("smoke"), Some(&Value::Bool(true)), "numbers are marked as smoke");
    let host = results.get("host").expect("host fingerprint");
    let cpus = num_of(host, "cpus") as usize;
    for key in ["cpu_model", "l1d_kb", "l2_kb", "llc_mb", "ram_mb"] {
        assert!(host.get(key).is_some(), "host.{key} missing");
    }
    assert!(results.get("git").and_then(|g| g.get("rev")).is_some());
    assert!(
        str_of(&results, "rustc").starts_with("rustc") || str_of(&results, "rustc") == "unknown"
    );
    assert_eq!(num_of(&results, "seed"), 1.0);
    assert!(num_of(&results, "wall_s") > 0.0);

    // A workload that needs more CPUs than the host has is refused, which
    // fails the run; everything else must pass.
    let refused = |threads: usize| threads > cpus;
    let any_refused = WORKLOADS.iter().any(|w| refused(w.threads));
    assert_eq!(
        output.status.code(),
        Some(i32::from(any_refused)),
        "stdout:\n{stdout}\nstderr:\n{stderr}"
    );

    let rows = results.get("workloads").and_then(Value::as_array).unwrap();
    assert_eq!(rows.len(), WORKLOADS.len());
    for (row, workload) in rows.iter().zip(&WORKLOADS) {
        let name = workload.name;
        assert_eq!(str_of(row, "name"), name);
        assert_eq!(num_of(row, "threads") as usize, workload.threads);
        let end_to_end = row.get("end_to_end").and_then(Value::as_object).unwrap();
        let per_layer = row.get("per_layer").and_then(Value::as_object).unwrap();
        if refused(workload.threads) {
            let timing_rows = end_to_end.iter().filter(|(k, _)| k != "failed_share").count();
            assert_eq!(timing_rows + per_layer.len(), 0, "{name}: refused, so no timing rows");
            assert_eq!(
                num_of(row.get("end_to_end").unwrap().get("failed_share").unwrap(), "value"),
                1.0
            );
            continue;
        }
        assert_eq!(num_of(row, "solves_failed"), 0.0, "{name}: {:?}", row.get("failures"));
        assert!(num_of(row, "solves_attempted") >= 1.0);
        assert_eq!(row.get("traced_failures"), Some(&Value::Arr(Vec::new())), "{name}");
        assert!(str_of(row, "solution_hash").len() == 16);

        for (metric, unit) in END_TO_END.iter().chain(&[("failed_share", "ratio")]) {
            let entry = row.get("end_to_end").unwrap().get(metric);
            let entry = entry.unwrap_or_else(|| panic!("{name}: end-to-end `{metric}` missing"));
            assert_eq!(str_of(entry, "unit"), *unit);
            let value = num_of(entry, "value");
            assert!(
                value.is_finite() && (value > 0.0 || *metric == "failed_share"),
                "{name} {metric}"
            );
            // The `name workload value unit` line is printed too.
            assert!(
                stdout.lines().any(|l| l.starts_with(&format!("{metric} {name} "))),
                "{name}: no line for {metric}"
            );
        }
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (metric, unit) in &PER_LAYER {
            let entry = row.get("per_layer").unwrap().get(metric);
            let entry = entry.unwrap_or_else(|| panic!("{name}: per-layer `{metric}` missing"));
            assert_eq!(str_of(entry, "unit"), *unit);
            assert!(num_of(entry, "value").is_finite(), "{name} {metric}");
        }
        let layer =
            |metric: &str| num_of(row.get("per_layer").unwrap().get(metric).unwrap(), "value");
        assert!(layer("krylov.iterations") >= 1.0);
        assert!(layer("krylov.true_rel_residual") <= 2e-6);
        assert_eq!(layer("rayon.threads") as usize, workload.threads);
        assert!(layer("trace.overhead_ratio") > 0.0);

        // The trace is Chrome trace-event JSON whose self times account for
        // the whole run.
        let trace = read(&manifest.join(format!("out/smoke/trace-{name}.json")));
        let events = trace.get("traceEvents").and_then(Value::as_array).unwrap();
        let root = &events[0];
        assert_eq!((str_of(root, "name"), str_of(root, "ph")), ("workload", "X"));
        let self_ns: f64 = events.iter().map(|e| num_of(e.get("args").unwrap(), "self_ns")).sum();
        let root_ns = num_of(root.get("args").unwrap(), "end_ns")
            - num_of(root.get("args").unwrap(), "start_ns");
        assert!(
            (self_ns - root_ns).abs() <= 0.01 * root_ns,
            "{name}: self {self_ns} root {root_ns}"
        );
        for span in ["generate", "setup", "partition", "build", "solve", "verify", "probes"] {
            assert!(events.iter().any(|e| str_of(e, "name") == span), "{name}: no `{span}` span");
        }
        let applies = events.iter().filter(|e| str_of(e, "name").starts_with("apply")).count();
        assert!(applies >= 1, "{name}: no apply spans");
    }

    // Smoke numbers are not measurements: `compare` refuses them.
    let results_path = manifest.join("out/smoke/results.json");
    let compared = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .arg("compare")
        .args([&results_path, &results_path])
        .output()
        .expect("running compare");
    assert_eq!(compared.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&compared.stderr).contains("smoke"));
}
