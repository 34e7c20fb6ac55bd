//! `benchmark compare <a.json> <b.json>`: the noise-aware diff of two
//! `results.json` files, using the bounds fixed in `BENCHMARK.json`.
//!
//! For each (end-to-end metric, workload) the second file is `better`,
//! `same`, `worse` or `unresolved` against the first.  Two medians are only
//! compared when each lies outside the other side's min–max spread; a median
//! inside the other side's spread is `unresolved`, never `same` — the runs
//! cannot tell the two apart, which is not evidence that nothing changed.

use std::fmt;

use crate::json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// One side of a comparison: a median and the spread of its samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Side {
    fn contains(&self, value: f64) -> bool {
        self.min <= value && value <= self.max
    }
}

/// Classify `after` against `before`.  `bound` is the share of `before`'s
/// median by which the metric may worsen (or must improve) to count.
pub fn classify(before: Side, after: Side, lower_is_better: bool, bound: f64) -> Verdict {
    if before.median == after.median && before.min == before.max && after.min == after.max {
        return Verdict::Same; // exact quantities, e.g. failed_share 0 and 0
    }
    if before.contains(after.median) || after.contains(before.median) {
        return Verdict::Unresolved;
    }
    let change = (after.median - before.median) / before.median.abs().max(f64::MIN_POSITIVE);
    let worsening = if lower_is_better { change } else { -change };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One line of the comparison table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub metric: String,
    pub workload: String,
    pub before: f64,
    pub after: f64,
    pub verdict: Verdict,
}

/// `{value, min?, max?}` → [`Side`]; a metric without samples is its own spread.
fn side(metric: &Value) -> Option<Side> {
    let median = metric.get("value")?.as_f64()?;
    let bound = |key: &str| metric.get(key).and_then(Value::as_f64).unwrap_or(median);
    Some(Side { median, min: bound("min"), max: bound("max") })
}

fn workloads(results: &Value) -> Result<&[Value], String> {
    if results.get("smoke").and_then(Value::as_bool) != Some(false) {
        return Err("refusing to compare: not a full (non-smoke) results file".to_string());
    }
    results.get("workloads").and_then(Value::as_array).ok_or_else(|| "no `workloads`".to_string())
}

/// Compare two parsed `results.json` documents under `benchmark`'s
/// (`BENCHMARK.json`) end-to-end bounds.  `failed_share`, which the
/// benchmark reports as `failed / attempted`, is compared with bound 0.
pub fn compare(before: &Value, after: &Value, benchmark: &Value) -> Result<Vec<Row>, String> {
    let mut metrics: Vec<(String, bool, f64)> = benchmark
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no `end_to_end`")?
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("better")?.as_str()? == "lower",
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect::<Option<_>>()
        .ok_or("malformed `end_to_end` entry in BENCHMARK.json")?;
    metrics.push(("failed_share".to_string(), true, 0.0));

    let after_workloads = workloads(after)?;
    let mut rows = Vec::new();
    for a in workloads(before)? {
        let name = a.get("name").and_then(Value::as_str).ok_or("workload without a name")?;
        let b = after_workloads
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
            .ok_or_else(|| format!("workload `{name}` missing from the second file"))?;
        for (metric, lower_is_better, bound) in &metrics {
            let find = |w: &Value| w.get("end_to_end").and_then(|e| e.get(metric)).and_then(side);
            // A workload that was refused has no timing rows on that side.
            let (x, y) = (find(a), find(b));
            let verdict = match (x, y) {
                (Some(x), Some(y)) => classify(x, y, *lower_is_better, *bound),
                (None, None) => continue,
                (Some(_), None) => Verdict::Worse,
                (None, Some(_)) => Verdict::Better,
            };
            rows.push(Row {
                metric: metric.clone(),
                workload: name.to_string(),
                before: x.map_or(f64::NAN, |s| s.median),
                after: y.map_or(f64::NAN, |s| s.median),
                verdict,
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    fn side(median: f64, min: f64, max: f64) -> Side {
        Side { median, min, max }
    }

    #[test]
    fn overlapping_spreads_are_unresolved_never_same() {
        // Identical medians, but with a spread: the runs cannot tell.
        let a = side(1.00, 0.97, 1.04);
        assert_eq!(classify(a, a, true, 0.10), Verdict::Unresolved);
        // 20 % slower median that still lies inside the first side's spread.
        assert_eq!(
            classify(side(1.0, 0.9, 1.3), side(1.2, 1.15, 1.25), true, 0.10),
            Verdict::Unresolved
        );
        // The first median inside the second side's spread.
        assert_eq!(
            classify(side(1.0, 0.99, 1.01), side(1.2, 0.95, 1.4), true, 0.10),
            Verdict::Unresolved
        );
    }

    #[test]
    fn separated_medians_are_judged_against_the_bound() {
        let before = side(1.00, 0.98, 1.02);
        assert_eq!(classify(before, side(1.20, 1.18, 1.22), true, 0.10), Verdict::Worse);
        assert_eq!(classify(before, side(1.06, 1.04, 1.08), true, 0.10), Verdict::Same);
        assert_eq!(classify(before, side(0.94, 0.92, 0.96), true, 0.10), Verdict::Same);
        assert_eq!(classify(before, side(0.80, 0.78, 0.82), true, 0.10), Verdict::Better);
        // Higher-is-better flips the direction.
        assert_eq!(classify(before, side(1.20, 1.18, 1.22), false, 0.10), Verdict::Better);
        assert_eq!(classify(before, side(0.80, 0.78, 0.82), false, 0.10), Verdict::Worse);
    }

    #[test]
    fn exact_quantities_compare_with_bound_zero() {
        let zero = side(0.0, 0.0, 0.0);
        assert_eq!(classify(zero, zero, true, 0.0), Verdict::Same);
        assert_eq!(classify(zero, side(0.25, 0.25, 0.25), true, 0.0), Verdict::Worse);
        assert_eq!(classify(side(0.25, 0.25, 0.25), zero, true, 0.0), Verdict::Better);
    }

    fn results(smoke: bool, solve: (f64, f64, f64), failed_share: f64) -> Value {
        let metric = |(value, min, max): (f64, f64, f64)| {
            obj([("value", Value::from(value)), ("min", min.into()), ("max", max.into())])
        };
        obj([
            ("smoke", Value::from(smoke)),
            (
                "workloads",
                Value::Arr(vec![obj([
                    ("name", Value::from("w")),
                    (
                        "end_to_end",
                        obj([
                            ("solve_s", metric(solve)),
                            ("failed_share", obj([("value", Value::from(failed_share))])),
                        ]),
                    ),
                ])]),
            ),
        ])
    }

    fn benchmark() -> Value {
        Value::parse(
            r#"{"end_to_end": [{"name": "solve_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn files_are_compared_metric_by_metric() {
        let before = results(false, (1.0, 0.98, 1.02), 0.0);
        let after = results(false, (1.3, 1.28, 1.32), 0.5);
        let rows = compare(&before, &after, &benchmark()).unwrap();
        let verdicts: Vec<_> = rows.iter().map(|r| (r.metric.as_str(), r.verdict)).collect();
        assert_eq!(verdicts, [("solve_s", Verdict::Worse), ("failed_share", Verdict::Worse)]);
        let rows = compare(&before, &before, &benchmark()).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Unresolved);
        assert_eq!(rows[1].verdict, Verdict::Same);
    }

    #[test]
    fn smoke_results_are_refused() {
        let full = results(false, (1.0, 1.0, 1.0), 0.0);
        let smoke = results(true, (1.0, 1.0, 1.0), 0.0);
        assert!(compare(&full, &smoke, &benchmark()).unwrap_err().contains("smoke"));
        assert!(compare(&smoke, &full, &benchmark()).is_err());
    }
}
