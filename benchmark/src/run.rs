//! One run of one workload: set-up, the measured phase, verification and the metrics.
//!
//! With `--trace 0` the run measures the end-to-end metrics under `lift_telemetry::Null`.
//! With `--trace 1` it measures an untraced phase, repeats it under an `InMemory` collector
//! (the difference is the cost of looking), re-drives every distinct request stage by stage
//! (`layers.rs`) and reports the per-layer metrics.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use lift_service::{DerivationService, Response, Served};
use lift_telemetry::{Collector, Event, InMemory, Null};

use crate::layers::{race_detector_cost, redrive_cold, redrive_warm, Counts};
use crate::output::Metric;
use crate::scenario::{set_up, Scenario, Step, Totals};
use crate::stats::{geometric_mean, median, peak_rss_mb, percentile, timed, Rng};
use crate::trace::Tracer;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Stop a phase after this many requests instead of after `seconds` (the determinism
    /// test needs runs of equal length, which a time limit cannot give).
    pub requests: Option<usize>,
}

pub struct RunResult {
    pub attempted: usize,
    pub failed: usize,
    /// One line per failed request or failed check.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Requests timed in the measured phase.
    pub samples: usize,
    /// Digest of the order in which keys were requested (what `--seed` decides).
    pub stream: u64,
    /// The `layers` and `spans` members of a traced run's record.
    pub trace_json: Option<String>,
}

/// Verifies served responses against the oracle and keeps what the metrics need from them.
struct Checker {
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
    /// Per key, the distinct responses already verified: a response equal to one of them in
    /// chain, options, launch and source is the same function of the same inputs.
    verified: BTreeMap<usize, Vec<Response>>,
    /// Per key, how the latest request was served and with which of `verified`.
    latest: BTreeMap<usize, (Served, usize)>,
    /// FNV-1a over the requested keys, in order.
    stream: u64,
}

impl Checker {
    /// Checks one answered request; `true` when it was served and verified correct.
    fn record(&mut self, scenario: &dyn Scenario, step: &Step) -> bool {
        self.attempted += 1;
        self.stream = (self.stream ^ step.key as u64).wrapping_mul(0x0100_0000_01b3);
        let case = &scenario.cases()[step.key];
        let response = match &step.result {
            Ok(response) => response,
            Err(e) => return self.fail(format!("{}: {e}", case.request.name)),
        };
        let known = self.verified.entry(step.key).or_default();
        let same = |known: &Response| {
            known.variant == response.variant
                && known.rule_options == response.rule_options
                && known.launch == response.launch
        };
        let index = match known.iter().position(same) {
            Some(index) => index,
            None => {
                if let Err(e) = case.oracle.verify(&case.request, response) {
                    return self.fail(format!("{}: {e}", case.request.name));
                }
                known.push(response.clone());
                known.len() - 1
            }
        };
        self.latest.insert(step.key, (response.served, index));
        true
    }

    /// The latest response of every key asked so far, in key order.
    fn latest(&self) -> impl Iterator<Item = (usize, Served, &Response)> {
        self.latest
            .iter()
            .map(|(key, (served, index))| (*key, *served, &self.verified[key][*index]))
    }

    fn fail(&mut self, line: String) -> bool {
        self.failed += 1;
        self.failures.push(line);
        false
    }
}

/// The timed requests of one phase.
struct Phase {
    /// `(request_ms, served)` per answered request, in order.
    samples: Vec<(f64, Served)>,
    /// Requests served and verified correct.
    correct: usize,
    /// Request time plus the waits in front of requests, in seconds.
    wall_s: f64,
    totals: Totals,
}

impl Phase {
    fn sorted_ms(&self, served: Option<Served>) -> Vec<f64> {
        let mut ms: Vec<f64> = self
            .samples
            .iter()
            .filter(|(_, s)| served.is_none_or(|want| want == *s))
            .map(|(ms, _)| *ms)
            .collect();
        ms.sort_by(f64::total_cmp);
        ms
    }
}

fn measure(
    scenario: &mut dyn Scenario,
    checker: &mut Checker,
    collector: &dyn Collector,
    seconds: f64,
    requests: Option<usize>,
) -> Phase {
    let before = scenario.totals();
    let mut samples = Vec::new();
    let mut correct = 0;
    let mut wall_ms = 0.0;
    while requests.map_or(wall_ms < seconds * 1e3, |n| samples.len() < n) {
        let step = scenario.step(collector);
        wall_ms += step.request_ms + step.wait_ms;
        // Verification runs between requests and is not part of the measured wall.
        correct += usize::from(checker.record(scenario, &step));
        if let Ok(response) = &step.result {
            samples.push((step.request_ms, response.served));
        } else if requests.is_some() {
            // A failing request must not keep a count-limited phase running forever.
            break;
        }
    }
    Phase {
        samples,
        correct,
        wall_s: wall_ms / 1e3,
        totals: scenario.totals() - before,
    }
}

pub fn run(args: &RunArgs, out_dir: &Path) -> Result<RunResult, String> {
    let mut rng = Rng::new(args.seed);
    let start = Instant::now();
    let mut scenario = set_up(&args.workload, &mut rng, out_dir)?;
    let setup_s = start.elapsed().as_secs_f64();
    let scenario = scenario.as_mut();

    let mut checker = Checker {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        verified: BTreeMap::new(),
        latest: BTreeMap::new(),
        stream: 0xcbf2_9ce4_8422_2325,
    };
    // A traced run has two phases, which share its time budget.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let phase = measure(scenario, &mut checker, &Null, seconds, args.requests);
    if phase.samples.is_empty() {
        return Err(format!(
            "no request succeeded: {}",
            checker.failures.join("; ")
        ));
    }
    let peak_rss = peak_rss_mb()?;

    let mut trace_json = None;
    let metrics = if args.trace {
        let (metrics, json) = per_layer(scenario, &mut checker, &phase)?;
        trace_json = Some(json);
        metrics
    } else {
        end_to_end(&checker, &phase, setup_s, peak_rss)
    };
    Ok(RunResult {
        attempted: checker.attempted,
        failed: checker.failed,
        failures: checker.failures,
        metrics,
        samples: phase.samples.len(),
        stream: checker.stream,
        trace_json,
    })
}

fn tuned_cost(checker: &Checker) -> f64 {
    let times: Vec<f64> = checker
        .latest()
        .map(|(_, _, response)| response.variant.estimated_time)
        .collect();
    geometric_mean(&times)
}

fn end_to_end(checker: &Checker, phase: &Phase, setup_s: f64, peak_rss: f64) -> Vec<Metric> {
    let ms = phase.sorted_ms(None);
    let metric = |name, unit, value| Metric { name, unit, value };
    vec![
        metric("request_ms_p50", "ms", percentile(&ms, 0.5)),
        metric("request_ms_p90", "ms", percentile(&ms, 0.9)),
        metric("requests_per_s", "1/s", phase.correct as f64 / phase.wall_s),
        metric("tuned_cost", "cost", tuned_cost(checker)),
        metric("peak_rss_mb", "MiB", peak_rss),
        metric("setup_s", "s", setup_s),
    ]
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// `value` when `n` requests of its kind were re-driven, 0 when the workload has none.
fn if_any(n: f64, value: f64) -> f64 {
    if n > 0.0 {
        value
    } else {
        0.0
    }
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// The traced half of a `--trace 1` run. `untraced` is the phase just measured under `Null`.
fn per_layer(
    scenario: &mut dyn Scenario,
    checker: &mut Checker,
    untraced: &Phase,
) -> Result<(Vec<Metric>, String), String> {
    // The same number of requests again, now with every crate's events recorded.
    let collector = InMemory::new();
    let traced = measure(
        scenario,
        checker,
        &collector,
        0.0,
        Some(untraced.samples.len()),
    );
    let events = collector.into_events();
    let fallbacks_in_requests = events
        .iter()
        .filter(|e| matches!(e.event, Event::EngineFallback { .. }))
        .count();

    // Re-drive every distinct request of the traced phase, in key order.
    let mut t = Tracer::new();
    let mut counts = Counts::default();
    let redrive_events = InMemory::new();
    let mut kernel_bytes = 0usize;
    let mut kernels = 0usize;
    let (mut race_on_ms, mut race_off_ms) = (0.0, 0.0);
    for (key, served, response) in checker.latest() {
        let case = &scenario.cases()[key];
        t.next_request(served == Served::WarmHit);
        if served == Served::WarmHit {
            redrive_warm(
                &mut t,
                &mut counts,
                &case.request,
                response,
                &case.oracle,
                &redrive_events,
            )?;
        } else {
            redrive_cold(
                &mut t,
                &mut counts,
                &case.request,
                &case.oracle,
                &redrive_events,
            )?;
        }
        kernel_bytes += response.variant.kernel_source.len();
        kernels += response
            .variant
            .kernel_source
            .matches("kernel void")
            .count();
        let (on, off) = race_detector_cost(&case.request, response, &case.oracle)?;
        race_on_ms += on;
        race_off_ms += off;
    }
    let fallbacks = fallbacks_in_requests
        + redrive_events
            .into_events()
            .iter()
            .filter(|e| matches!(e.event, Event::EngineFallback { .. }))
            .count();

    // Store I/O, timed directly: five whole-store writes and five loads of what was written.
    let mut persist_samples = Vec::new();
    let mut open_samples: Vec<f64> = scenario.open_ms().to_vec();
    if let Some(service) = scenario.service() {
        for _ in 0..5 {
            let (result, ms) = timed(|| service.persist());
            result.map_err(|e| e.to_string())?;
            persist_samples.push(ms);
        }
    }
    let config = scenario.service_config();
    let mut store_bytes = 0u64;
    if let Some(root) = &config.root {
        for file in ["store.jsonl", "index.json"] {
            store_bytes += std::fs::metadata(root.join(file))
                .map_err(|e| format!("{file}: {e}"))?
                .len();
        }
    }
    for _ in 0..5 {
        let (result, ms) = timed(|| DerivationService::open(config.clone()));
        result.map_err(|e| e.to_string())?;
        open_samples.push(ms);
    }
    let persist_ms = median_or_zero(&persist_samples);
    let open_ms = median(&open_samples);

    // Per-request walls by kind, from the untraced phase.
    let cold_wall = median_or_zero(&untraced.sorted_ms(Some(Served::ColdMiss)));
    let warm_wall = median_or_zero(&untraced.sorted_ms(Some(Served::WarmHit)));
    let n_cold = counts.cold_requests as f64;
    let n_warm = counts.warm_requests as f64;
    let cold = |name: &str| t.sum_ms(|s| s.name == name && !s.warm);
    let warm = |name: &str| t.sum_ms(|s| s.name == name && s.warm);
    let all = |name: &str| t.sum_ms(|s| s.name == name);

    let tune_ms = all("tuner.tune");
    let enumerate_ms = all("rewrite.enumerate");
    let score_ms = all("rewrite.score");
    let typecheck_ms = all("ir.typecheck");
    let compile_ms = all("codegen.compile");
    let execute_ms = all("vgpu.execute");
    let replay_ms = all("rewrite.replay");
    let key_ms = all("service.cache_key");
    let reference_ms = all("interp.reference");
    let attributed_ms = enumerate_ms
        + typecheck_ms
        + compile_ms
        + execute_ms
        + replay_ms
        + key_ms
        + persist_ms * (n_cold + n_warm);
    let redriven_wall_ms = cold_wall * n_cold + warm_wall * n_warm;

    let all_ms = untraced.sorted_ms(None);
    let untraced_p50 = percentile(&all_ms, 0.5);
    let traced_p50 = percentile(&traced.sorted_ms(None), 0.5);
    let totals = untraced.totals;
    let points = counts.points_evaluated as f64;

    let m = |name, unit, value| Metric { name, unit, value };
    let metrics = vec![
        m(
            "service.cold_self_ms",
            "ms",
            if_any(n_cold, cold_wall - tune_ms / n_cold),
        ),
        m(
            "service.warm_self_ms",
            "ms",
            if_any(
                n_warm,
                warm_wall - (replay_ms + warm("rewrite.score")) / n_warm,
            ),
        ),
        m("service.cache_key_ms", "ms", ratio(key_ms, n_warm)),
        m("service.open_ms", "ms", open_ms),
        m("service.persist_ms", "ms", persist_ms),
        m("service.store_bytes", "bytes", store_bytes as f64),
        m(
            "service.hit_share",
            "ratio",
            ratio(totals.hits as f64, totals.requests as f64),
        ),
        m("service.misses", "count", totals.misses as f64),
        m("service.evictions", "count", totals.evictions as f64),
        m("service.warm_started", "count", totals.warm_started as f64),
        m(
            "service.replay_failures",
            "count",
            totals.replay_failures as f64,
        ),
        m("service.request_ms_p99", "ms", percentile(&all_ms, 0.99)),
        m("tuner.tune_ms", "ms", ratio(tune_ms, n_cold)),
        m(
            "tuner.self_ms",
            "ms",
            ratio(tune_ms - enumerate_ms - cold("rewrite.score"), n_cold),
        ),
        m("tuner.points_evaluated", "count", points),
        m("tuner.enumerations", "count", counts.enumerations as f64),
        m(
            "tuner.enumeration_reuse_share",
            "ratio",
            ratio(counts.enumeration_cache_hits as f64, points),
        ),
        m(
            "tuner.infeasible_points",
            "count",
            counts.infeasible_points as f64,
        ),
        m("tuner.points_per_s", "1/s", ratio(points, tune_ms / 1e3)),
        m(
            "tuner.improvement_x",
            "x",
            if_any(n_cold, (counts.improvement_ln / n_cold).exp()),
        ),
        m("rewrite.enumerate_ms", "ms", ratio(enumerate_ms, n_cold)),
        m(
            "rewrite.candidates_explored",
            "count",
            counts.candidates_explored as f64,
        ),
        m(
            "rewrite.candidates_per_s",
            "1/s",
            ratio(counts.candidates_explored as f64, enumerate_ms / 1e3),
        ),
        m("rewrite.dedup_hits", "count", counts.dedup_hits as f64),
        m(
            "rewrite.lowered_share",
            "ratio",
            ratio(counts.lowered as f64, counts.candidates_explored as f64),
        ),
        m("rewrite.score_ms", "ms", ratio(score_ms, n_cold + n_warm)),
        m(
            "rewrite.score_self_ms",
            "ms",
            ratio(
                score_ms - typecheck_ms - compile_ms - execute_ms,
                n_cold + n_warm,
            ),
        ),
        m(
            "rewrite.rejected_share",
            "ratio",
            ratio(counts.rejected as f64, counts.scored as f64),
        ),
        m("rewrite.replay_ms", "ms", ratio(replay_ms, n_warm)),
        m(
            "ir.typecheck_ms",
            "ms",
            ratio(typecheck_ms, n_cold + n_warm),
        ),
        m("ir.programs_typed", "count", counts.programs_typed as f64),
        m(
            "interp.reference_ms",
            "ms",
            ratio(reference_ms, n_cold + n_warm),
        ),
        m(
            "codegen.compile_ms",
            "ms",
            ratio(compile_ms, n_cold + n_warm),
        ),
        m(
            "codegen.programs_compiled",
            "count",
            counts.compile_attempts as f64,
        ),
        m(
            "codegen.compile_us_per_program",
            "us",
            ratio(compile_ms * 1e3, counts.compile_attempts as f64),
        ),
        m(
            "codegen.rejected_share",
            "ratio",
            ratio(
                counts.compile_rejected as f64,
                counts.compile_attempts as f64,
            ),
        ),
        m("codegen.kernel_bytes", "bytes", kernel_bytes as f64),
        m("codegen.kernels", "count", kernels as f64),
        m("vgpu.execute_ms", "ms", ratio(execute_ms, n_cold + n_warm)),
        m(
            "vgpu.kernels_executed",
            "count",
            counts.kernels_executed as f64,
        ),
        m("vgpu.sim_ops", "count", counts.sim_ops as f64),
        m(
            "vgpu.host_ns_per_sim_op",
            "ns",
            ratio(execute_ms * 1e6, counts.sim_ops as f64),
        ),
        m(
            "vgpu.execute_share",
            "ratio",
            ratio(execute_ms, redriven_wall_ms),
        ),
        m(
            "vgpu.race_overhead_share",
            "ratio",
            ratio(race_on_ms - race_off_ms, race_off_ms),
        ),
        m("vgpu.engine_fallbacks", "count", fallbacks as f64),
        m(
            "telemetry.overhead_share",
            "ratio",
            ratio(traced_p50 - untraced_p50, untraced_p50),
        ),
        m("telemetry.events", "count", events.len() as f64),
        m(
            "trace.attributed_share",
            "ratio",
            ratio(attributed_ms, redriven_wall_ms),
        ),
        m(
            "failed_share",
            "ratio",
            ratio(checker.failed as f64, checker.attempted as f64),
        ),
    ];
    Ok((metrics, t.to_json_members()))
}
