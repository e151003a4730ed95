//! Two runs of a workload with one seed must agree exactly on everything that is counted
//! rather than timed, and what a run prints must carry exactly the metric names and units
//! that `BENCHMARK.json` declares. Runs are cut to a fixed number of requests (`--requests`):
//! a time limit would let the two runs differ in length.

use std::process::Command;

use lift_telemetry::json::{parse, Json};

/// Metrics that repeat exactly for a fixed seed and request count.
const EXACT_END_TO_END: [&str; 1] = ["tuned_cost"];
const EXACT_PER_LAYER: [&str; 7] = [
    "codegen.kernel_bytes",
    "vgpu.sim_ops",
    "tuner.points_evaluated",
    "rewrite.candidates_explored",
    "service.hit_share",
    "service.misses",
    "service.evictions",
];

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in the `section` list of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let doc = benchmark_json();
    doc.get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lists `{section}`"))
        .iter()
        .map(|m| {
            let field = |key| m.get(key).and_then(Json::as_str).expect(key).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

struct Run {
    /// `(name, unit, value)` in printed order.
    metrics: Vec<(String, String, f64)>,
    failed: f64,
    /// The `stream` line: a digest of the order in which keys were requested.
    stream: String,
}

impl Run {
    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("the run printed `{name}`"))
            .2
    }
}

fn run(workload: &str, seed: u64, requests: usize, trace: bool) -> Run {
    let output = Command::new(env!("CARGO_BIN_EXE_lift-request-bench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--requests", &requests.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let doc = parse(stdout.lines().last().expect("a result line")).expect("the result parses");
    let Json::Obj(keys) = &doc else {
        panic!("the result is an object")
    };
    let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("the result has metrics")
    };
    Run {
        metrics: metrics
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .expect("unit")
                        .to_string(),
                    m.get("value").and_then(Json::as_f64).expect("value"),
                )
            })
            .collect(),
        failed: doc.get("failed").and_then(Json::as_f64).expect("failed"),
        stream: stdout
            .lines()
            .find_map(|l| l.trim().strip_prefix("stream "))
            .expect("a stream line")
            .to_string(),
    }
}

/// Runs `workload` twice untraced and twice traced with one seed and checks the contract.
fn check(workload: &str, requests: usize) -> Run {
    let names = |run: &Run| -> Vec<(String, String)> {
        run.metrics
            .iter()
            .map(|(n, u, _)| (n.clone(), u.clone()))
            .collect()
    };
    let (a, b) = (
        run(workload, 7, requests, false),
        run(workload, 7, requests, false),
    );
    assert_eq!(
        names(&a),
        declared("end_to_end"),
        "{workload}: end-to-end names"
    );
    for name in EXACT_END_TO_END {
        assert_eq!(a.value(name), b.value(name), "{workload}: {name} repeats");
    }
    assert_eq!(a.stream, b.stream, "{workload}: one seed, one stream");
    assert_eq!(a.failed + b.failed, 0.0, "{workload}: no request fails");
    for (name, _, value) in &a.metrics {
        assert!(*value > 0.0, "{workload}: {name} is never 0");
    }

    let (ta, tb) = (
        run(workload, 7, requests, true),
        run(workload, 7, requests, true),
    );
    assert_eq!(
        names(&ta),
        declared("per_layer"),
        "{workload}: per-layer names"
    );
    for name in EXACT_PER_LAYER {
        assert_eq!(ta.value(name), tb.value(name), "{workload}: {name} repeats");
    }
    assert_eq!(ta.value("vgpu.engine_fallbacks"), 0.0);
    assert_eq!(ta.value("failed_share"), 0.0);
    a
}

#[test]
fn benchmark_json_names_the_four_workloads() {
    let doc = benchmark_json();
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(
        names,
        [
            "cold_exec_bound",
            "cold_search_bound",
            "warm_replay",
            "store_churn"
        ]
    );
    assert!(declared("end_to_end").contains(&("setup_s".to_string(), "s".to_string())));
}

#[test]
fn cold_exec_bound_repeats() {
    check("cold_exec_bound", 1);
}

#[test]
fn cold_search_bound_repeats() {
    check("cold_search_bound", 1);
}

#[test]
fn warm_replay_repeats() {
    check("warm_replay", 70);
}

#[test]
fn store_churn_repeats_and_follows_the_seed() {
    let a = check("store_churn", 250);
    let other = run("store_churn", 8, 250, false);
    assert_ne!(a.stream, other.stream, "another seed, another stream");
}
