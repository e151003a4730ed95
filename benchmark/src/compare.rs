//! `compare <a.json> <b.json>`: one row per end-to-end metric and workload, `a` being the
//! parent and `b` the change, judged by the rule of the `choosing-metrics` guide.
//!
//! * `worse` — `b`'s median is worse than `a`'s by more than the metric's bound.
//! * `unresolved` — the runs of `a` spread (interquartile range over median) wider than the
//!   bound, so a regression of that size could hide in the noise — unless every run of `b`
//!   reads better than every run of `a`.
//! * `better` — `b`'s median is better by more than the spread of `a`'s own runs.
//! * `same` — none of the above.
//!
//! The exit code is non-zero on any `worse` row and on any rise in failed requests.

use std::process::ExitCode;

use lift_telemetry::json::{parse, Json};

use crate::stats::{median, spread};
use crate::suite::benchmark_json;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn values(doc: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    doc.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

fn failed(doc: &Json, workload: &str) -> f64 {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("failed"))
        .and_then(Json::as_arr)
        .map_or(0.0, |runs| runs.iter().filter_map(Json::as_f64).sum())
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("usage: compare <a.json> <b.json>".to_string());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let benchmark = benchmark_json()?;
    let list = |key: &str| {
        benchmark
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json has no `{key}`"))
    };
    let mut worse_rows = 0;
    println!(
        "{:18} {:16} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "a median", "b median", "change", "spread", "bound"
    );
    for workload in list("workloads")? {
        let workload = workload.get("name").and_then(Json::as_str).unwrap_or("");
        for metric in list("end_to_end")? {
            let name = metric.get("name").and_then(Json::as_str).unwrap_or("");
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let higher_is_better = metric.get("better").and_then(Json::as_str) == Some("higher");
            let (Some(av), Some(bv)) = (values(&a, workload, name), values(&b, workload, name))
            else {
                return Err(format!("{workload}/{name} is missing from a result file"));
            };
            let (am, bm) = (median(&av), median(&bv));
            // Positive `worsening` is a change for the worse, as a share of a's median.
            let sign = if higher_is_better { -1.0 } else { 1.0 };
            let worsening = sign * (bm - am) / am.abs();
            let a_spread = spread(&av);
            let every_b_better = bv.iter().all(|b| av.iter().all(|a| sign * (b - a) < 0.0));
            let verdict = if worsening > bound {
                worse_rows += 1;
                "worse"
            } else if a_spread > bound && !every_b_better {
                "unresolved"
            } else if -worsening > a_spread && worsening < 0.0 {
                "better"
            } else {
                "same"
            };
            println!(
                "{workload:18} {name:16} {am:>14.4} {bm:>14.4} {:>+7.2}% {:>7.2}% {:>5.0}%  {verdict}",
                sign * worsening * 100.0,
                a_spread * 100.0,
                bound * 100.0
            );
        }
        let (fa, fb) = (failed(&a, workload), failed(&b, workload));
        if fb > fa {
            worse_rows += 1;
            println!("{workload:18} failed requests rose from {fa} to {fb}: worse");
        }
    }
    Ok(if worse_rows == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
