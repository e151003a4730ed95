//! `suite`: every workload, one process per run, gathered into one result file.
//!
//! Each run is a child process of this binary, so `peak_rss_mb` belongs to one workload and
//! one run cannot warm another's caches. `--runs r` repeats the untraced run with seeds
//! `seed..seed + r`; the traced run happens once per workload.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use lift_telemetry::json::{parse, Json};

use crate::config::{DETECT_RACES, ENGINE, THREADS, TUNER_SEED};
use crate::output::json_string;
use crate::scenario::WORKLOADS;
use crate::stats::{median, spread};
use crate::{bench_dir, Flags};

pub const DEFAULT_SEED: u64 = 1;

/// The parsed `BENCHMARK.json` at the root of the checkout.
pub fn benchmark_json() -> Result<Json, String> {
    let path = bench_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `run_seconds` of `BENCHMARK.json`: how long a run measures unless `--seconds` says so.
pub fn default_seconds() -> Result<f64, String> {
    benchmark_json()?
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or_else(|| "BENCHMARK.json has no run_seconds".to_string())
}

/// The commit the checkout is at, read from `.git` without leaving the checkout; `unknown`
/// where there is no repository (the driver's checkouts have none).
fn git_commit(root: &Path) -> String {
    let read = |path: PathBuf| std::fs::read_to_string(path).ok();
    let Some(head) = read(root.join(".git/HEAD")) else {
        return "unknown".to_string();
    };
    match head.trim().strip_prefix("ref: ") {
        Some(reference) => read(root.join(".git").join(reference))
            .map_or("unknown".to_string(), |commit| commit.trim().to_string()),
        None => head.trim().to_string(),
    }
}

/// Everything two result files need to agree on before their numbers can be compared.
pub fn provenance_json(seed: u64, seconds: f64) -> String {
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "{{\"seed\": {seed}, \"seconds\": {seconds}, \"git_commit\": {}, \"nproc\": {nproc}, \
         \"threads\": {THREADS}, \"engine\": {}, \"race_detection\": {DETECT_RACES}, \
         \"tuner_seed\": {TUNER_SEED}, \"rustc\": {}}}",
        json_string(&git_commit(&bench_dir().join(".."))),
        json_string(ENGINE.label()),
        json_string(&rustc)
    )
}

/// One metric of one workload across the runs of a suite.
struct Series {
    name: String,
    unit: String,
    values: Vec<f64>,
}

#[derive(Default)]
struct WorkloadResults {
    attempted: Vec<f64>,
    failed: Vec<f64>,
    end_to_end: Vec<Series>,
    per_layer: Vec<Series>,
}

/// Runs this binary once and folds the result line it prints into `results`.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    results: &mut WorkloadResults,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let doc = parse(line).map_err(|e| {
        format!(
            "{workload} (seed {seed}, trace {}) printed no result ({}): {e}",
            u8::from(trace),
            output.status
        )
    })?;
    let number = |key: &str| {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{workload}: result has no `{key}`"))
    };
    results.attempted.push(number("attempted")?);
    results.failed.push(number("failed")?);
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err(format!("{workload}: result has no metrics"));
    };
    let series = if trace {
        &mut results.per_layer
    } else {
        &mut results.end_to_end
    };
    for (name, metric) in metrics {
        let value = metric
            .get("value")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{workload}: {name} has no value"))?;
        let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
        match series.iter_mut().find(|s| s.name == *name) {
            Some(s) => s.values.push(value),
            None => series.push(Series {
                name: name.clone(),
                unit: unit.to_string(),
                values: vec![value],
            }),
        }
    }
    Ok(())
}

fn numbers(values: &[f64]) -> String {
    let rendered: Vec<String> = values.iter().map(f64::to_string).collect();
    format!("[{}]", rendered.join(", "))
}

fn series_json(series: &[Series], indent: &str) -> String {
    let entries: Vec<String> = series
        .iter()
        .map(|s| {
            format!(
                "{indent}  {}: {{\"unit\": {}, \"values\": {}}}",
                json_string(&s.name),
                json_string(&s.unit),
                numbers(&s.values)
            )
        })
        .collect();
    format!("{{\n{}\n{indent}}}", entries.join(",\n"))
}

pub fn main(mut flags: Flags) -> Result<ExitCode, String> {
    let seed: u64 = flags.parse("--seed")?.unwrap_or(DEFAULT_SEED);
    let seconds: f64 = flags.parse("--seconds")?.unwrap_or(default_seconds()?);
    let runs: u64 = flags.parse("--runs")?.unwrap_or(1);
    let out = flags
        .take("--out")?
        .map_or(bench_dir().join("out/results.json"), PathBuf::from);
    flags.done()?;

    let mut all = Vec::new();
    for workload in WORKLOADS {
        let mut results = WorkloadResults::default();
        for r in 0..runs {
            child(workload, seed + r, seconds, false, &mut results)?;
        }
        child(workload, seed, seconds, true, &mut results)?;
        all.push((workload, results));
    }

    let mut failed = 0.0;
    let mut doc = format!(
        "{{\n  \"provenance\": {},\n  \"runs\": {runs},\n  \"workloads\": {{\n",
        provenance_json(seed, seconds)
    );
    for (i, (workload, results)) in all.iter().enumerate() {
        println!("{workload}");
        for s in results.end_to_end.iter().chain(&results.per_layer) {
            println!(
                "  {:34} {:>18.6} {:8} spread {:.4} over {} run(s)",
                s.name,
                median(&s.values),
                s.unit,
                spread(&s.values),
                s.values.len()
            );
        }
        failed += results.failed.iter().sum::<f64>();
        let comma = if i + 1 < all.len() { "," } else { "" };
        let _ = writeln!(
            doc,
            "    {}: {{\n      \"attempted\": {},\n      \"failed\": {},\n      \
             \"end_to_end\": {},\n      \"per_layer\": {}\n    }}{comma}",
            json_string(workload),
            numbers(&results.attempted),
            numbers(&results.failed),
            series_json(&results.end_to_end, "      "),
            series_json(&results.per_layer, "      ")
        );
    }
    doc.push_str("  }\n}\n");
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(&out, doc).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(if failed == 0.0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
