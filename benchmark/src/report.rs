//! How a run's results leave the process: the `name workload value unit`
//! lines, the one-line result the driver reads, and the files under `out/`.

use std::path::PathBuf;

use crate::json::{obj, Value};
use crate::measure::{Metric, Report};
use crate::{out_dir, trace};

fn pass_name(trace: bool) -> &'static str {
    if trace {
        "traced"
    } else {
        "untraced"
    }
}

/// Where [`write_files`] puts the detail of one pass of one workload.
pub fn detail_path(workload: &str, trace: bool, smoke: bool) -> PathBuf {
    out_dir(smoke).join(format!("run-{workload}-{}.json", pass_name(trace)))
}

fn metric_json(metric: &Metric) -> Value {
    let mut members = vec![
        ("value".to_string(), Value::from(metric.value)),
        ("unit".to_string(), Value::from(metric.unit)),
    ];
    if let Some(Value::Obj(summary)) = metric.summary.map(|s| s.to_json()) {
        members.extend(summary);
    }
    Value::Obj(members)
}

/// Print every metric as `name workload value unit`, timings followed by
/// their sample count and spread; then the failure accounting.
pub fn print_lines(report: &Report) {
    let workload = report.workload.name;
    for metric in &report.metrics {
        print!("{} {workload} {} {}", metric.name, metric.value, metric.unit);
        if let Some(s) = metric.summary {
            print!("  (n={} min={} max={}", s.n, s.min, s.max);
            if let Some(tail) = s.tail {
                print!(" p{:.1}={}", tail.percentile, tail.value);
            }
            print!(")");
        }
        println!();
    }
    let tally = &report.tally;
    println!("failed_share {workload} {} ratio", tally.failed_share());
    println!("solves_attempted {workload} {} count", tally.attempted);
    println!("solves_failed {workload} {} count", tally.failed);
    if let Some(hash) = report.hash {
        println!("solve_iterations {workload} {} count", report.iterations);
        println!("solution_hash {workload} {hash:016x} fnv1a");
    }
    for reason in &tally.reasons {
        eprintln!("FAILED {workload}: {reason}");
    }
}

/// The last line of standard output: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(report: &Report) -> String {
    let metrics = report
        .metrics
        .iter()
        .map(|m| (m.name, obj([("value", Value::from(m.value)), ("unit", Value::from(m.unit))])));
    obj([
        ("correct", Value::from(report.tally.failed == 0)),
        ("attempted", Value::from(report.tally.attempted)),
        ("failed", Value::from(report.tally.failed)),
        ("metrics", obj(metrics)),
    ])
    .to_compact()
}

/// Everything known about one pass, for `results.json`.
pub fn detail_json(report: &Report) -> Value {
    let tally = &report.tally;
    obj([
        ("workload", Value::from(report.workload.name)),
        ("pass", Value::from(pass_name(report.settings.trace))),
        ("seed", Value::from(report.settings.seed)),
        ("seconds", Value::from(report.settings.seconds)),
        ("smoke", Value::from(report.settings.smoke)),
        ("threads", Value::from(report.workload.threads)),
        ("n", Value::from(report.n)),
        ("subdomains", Value::from(report.subdomains)),
        ("tier", Value::from(report.tier.as_str())),
        ("solution_hash", Value::from(report.hash.map(|h| format!("{h:016x}")))),
        ("solve_iterations", Value::from(report.iterations)),
        ("solves_attempted", Value::from(tally.attempted)),
        ("solves_failed", Value::from(tally.failed)),
        ("failed_share", Value::from(tally.failed_share())),
        ("failures", Value::from(tally.reasons.clone())),
        ("wall_s", Value::from(report.wall_s)),
        ("metrics", obj(report.metrics.iter().map(|m| (m.name, metric_json(m))))),
        ("traced_solve_s", Value::from(report.traced_solve_s.map(|s| s.to_json()))),
    ])
}

/// Write the pass's detail file and, for a traced pass, the Chrome trace
/// (`trace-<workload>.json`; open it at <https://ui.perfetto.dev>).
pub fn write_files(report: &Report) -> std::io::Result<()> {
    let Report { workload, settings, .. } = report;
    std::fs::create_dir_all(out_dir(settings.smoke))?;
    std::fs::write(
        detail_path(workload.name, settings.trace, settings.smoke),
        detail_json(report).to_pretty(),
    )?;
    if settings.trace && !report.spans.is_empty() {
        let path = out_dir(settings.smoke).join(format!("trace-{}.json", workload.name));
        std::fs::write(path, trace::chrome_trace(&report.spans, workload.name).to_compact())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::Tally;
    use crate::measure::Settings;
    use crate::stats::Summary;
    use crate::workloads::WORKLOADS;

    fn sample_report(tally: Tally) -> Report {
        Report {
            workload: &WORKLOADS[0],
            settings: Settings { seed: 1, seconds: 10.0, trace: false, smoke: false },
            n: 24346,
            subdomains: 82,
            tier: "ddm-gnn-ml3".to_string(),
            hash: Some(0xabc),
            iterations: 26,
            tally,
            metrics: vec![
                Metric {
                    name: "solve_s",
                    unit: "s",
                    value: 6.8125,
                    summary: Summary::of(&[6.75, 6.875]),
                },
                Metric { name: "peak_rss_mb", unit: "MB", value: 640.5, summary: None },
            ],
            traced_solve_s: None,
            wall_s: 20.0,
            spans: Vec::new(),
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let tally = Tally { attempted: 2, failed: 0, reasons: Vec::new() };
        let line = Value::parse(&result_line(&sample_report(tally))).unwrap();
        let keys: Vec<&str> = line.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        let solve = line.get("metrics").unwrap().get("solve_s").unwrap();
        assert_eq!(solve.get("value").and_then(Value::as_f64), Some(6.8125));
        assert_eq!(solve.as_object().unwrap().len(), 2, "value and unit only");
    }

    #[test]
    fn a_failed_solve_makes_the_run_incorrect() {
        let tally = Tally { attempted: 2, failed: 1, reasons: vec!["sample 1: stalled".into()] };
        let report = sample_report(tally);
        let line = Value::parse(&result_line(&report)).unwrap();
        assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
        let detail = detail_json(&report);
        assert_eq!(detail.get("failed_share").and_then(Value::as_f64), Some(0.5));
        let solve = detail.get("metrics").unwrap().get("solve_s").unwrap();
        assert_eq!(solve.get("min").and_then(Value::as_f64), Some(6.75));
        assert_eq!(solve.get("n").and_then(Value::as_f64), Some(2.0));
    }
}
