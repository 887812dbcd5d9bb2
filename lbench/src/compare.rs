//! `lbench --compare A.json B.json`: one row per workload and end-to-end
//! metric, judged by the bound `BENCHMARK.json` fixes for that metric.

use crate::json::Value;
use crate::stats::{median, spread};

/// An end-to-end metric's regression rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of the base's median by which the metric may get worse.
    pub bound: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// Not worse, but the runs of one side spread wider than the bound, so
    /// "unchanged" cannot be claimed either.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub fn bounds(spec: &Value) -> Result<Vec<Bound>, String> {
    spec.get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .as_arr()
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: an end_to_end metric lacks name, better or bound".into())
}

/// Judge `change` against `base` (all runs of one workload and metric).
pub fn judge(bound: &Bound, base: &[f64], change: &[f64]) -> (f64, f64, Verdict) {
    let (a, b) = (median(base), median(change));
    let worse_by = if bound.lower_is_better { b - a } else { a - b };
    let verdict = if worse_by > bound.bound * a.abs() {
        Verdict::Worse
    } else if spread(base).max(spread(change)) > bound.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (a, b, verdict)
}

/// Values of `metric` over the untraced runs of `workload` in a result file.
fn values(file: &Value, workload: &str, metric: &str) -> Vec<f64> {
    file.get("runs")
        .map(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
        .filter(|r| r.get("trace").and_then(Value::as_bool) == Some(false))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn failures(file: &Value) -> f64 {
    file.get("runs")
        .map(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|r| r.get("failed")?.as_f64())
        .sum()
}

/// Print the comparison; `Ok(true)` when some metric got worse.
pub fn compare(spec: &Value, base: &Value, change: &Value) -> Result<bool, String> {
    let bounds = bounds(spec)?;
    let workloads: Vec<&str> = spec
        .get("workloads")
        .map(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>9} {:>7} {:>9} {:>9}  verdict",
        "workload", "metric", "base (A)", "change (B)", "B/A", "bound", "spread A", "spread B"
    );
    let mut any_worse = false;
    for w in workloads {
        for bound in &bounds {
            let (a, b) = (values(base, w, &bound.name), values(change, w, &bound.name));
            if a.is_empty() || b.is_empty() {
                println!(
                    "{w:<16} {:<12} missing from one file (A has {}, B has {} runs)",
                    bound.name,
                    a.len(),
                    b.len()
                );
                continue;
            }
            let (ma, mb, verdict) = judge(bound, &a, &b);
            any_worse |= verdict == Verdict::Worse;
            println!(
                "{w:<16} {:<12} {ma:>14.4} {mb:>14.4} {:>9.4} {:>7.2} {:>8.1}% {:>8.1}%  {} (n={}/{})",
                bound.name,
                mb / ma,
                bound.bound,
                spread(&a) * 100.0,
                spread(&b) * 100.0,
                verdict.as_str(),
                a.len(),
                b.len()
            );
        }
    }
    println!(
        "failed operations: A {}, B {} (a gain does not count when B fails more)",
        failures(base),
        failures(change)
    );
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rate() -> Bound {
        Bound {
            name: "ops_per_s".into(),
            lower_is_better: false,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        assert_eq!(judge(&rate(), &steady, &[95.0, 96.0, 94.0]).2, Verdict::Ok);
        assert_eq!(
            judge(&rate(), &steady, &[85.0, 86.0, 84.0]).2,
            Verdict::Worse
        );
        assert_eq!(
            judge(&rate(), &steady, &[150.0, 151.0, 149.0]).2,
            Verdict::Ok
        );
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(judge(&rate(), &noisy, &steady).2, Verdict::Unresolved);
        let latency = Bound {
            name: "op_p50_us".into(),
            lower_is_better: true,
            bound: 0.10,
        };
        assert_eq!(
            judge(&latency, &steady, &[111.0, 112.0, 113.0]).2,
            Verdict::Worse
        );
        assert_eq!(judge(&latency, &steady, &[50.0]).2, Verdict::Ok);
        let (a, b, _) = judge(&latency, &steady, &[50.0]);
        assert_eq!((a, b), (100.0, 50.0));
    }

    #[test]
    fn reads_bounds_and_run_values() {
        let spec = Value::parse(
            r#"{"workloads": [{"name": "w", "why": "x"}],
                "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap();
        let b = bounds(&spec).unwrap();
        assert_eq!(
            b[0],
            Bound {
                name: "setup_s".into(),
                lower_is_better: true,
                bound: 0.25
            }
        );
        let file = |v: f64| {
            Value::parse(&format!(
                r#"{{"runs": [
                    {{"workload": "w", "trace": false, "failed": 0, "metrics": {{"setup_s": {{"value": {v}, "unit": "s"}}}}}},
                    {{"workload": "w", "trace": true, "failed": 0, "metrics": {{"setup_s": {{"value": 99, "unit": "s"}}}}}},
                    {{"workload": "other", "trace": false, "failed": 2, "metrics": {{}}}}]}}"#
            ))
            .unwrap()
        };
        assert_eq!(values(&file(1.5), "w", "setup_s"), vec![1.5]);
        assert_eq!(failures(&file(1.5)), 2.0);
        assert_eq!(compare(&spec, &file(1.0), &file(1.2)), Ok(false));
        assert_eq!(compare(&spec, &file(1.0), &file(1.3)), Ok(true));
        assert!(bounds(&Value::parse("{}").unwrap()).is_err());
    }
}
