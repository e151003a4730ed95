//! Builders for the machine-readable reports the harness binaries write.
//!
//! All three documents — `BENCH_explore.json`, `BENCH_autotune.json` and
//! `BENCH_telemetry.json` — are assembled here against the shared [`crate::schema`] writer,
//! so the binaries contain flag handling and measurement only. Everything that varies
//! between two runs with identical inputs (wall-clock, throughput, timestamps) enters
//! through explicit parameters, so rendering a result twice with the same timing values is
//! byte-identical — the property the report determinism tests pin down.

use lift_rewrite::Exploration;
use lift_telemetry::{
    counts_by_kind, phase_durations, Event, RejectReason, SoundnessReport, TimedEvent,
};
use lift_tuner::{Strategy, TuningResult};

use crate::schema::Json;

/// Renders a [`Strategy`] for the report.
pub fn strategy_label(strategy: &Strategy) -> String {
    match strategy {
        Strategy::Exhaustive => "exhaustive".to_string(),
        Strategy::RandomHillClimb {
            seed,
            samples,
            max_steps,
        } => format!("hill-climb(seed={seed}, samples={samples}, max_steps={max_steps})"),
        Strategy::SeededHillClimb {
            seeds,
            seed,
            samples,
            max_steps,
        } => format!(
            "seeded-hill-climb(seeds={}, seed={seed}, samples={samples}, max_steps={max_steps})",
            seeds.len()
        ),
    }
}

/// Builds one `results[]` entry of `BENCH_autotune.json`.
///
/// `default_best_time` is the best estimated time of the *default-configuration*
/// exploration (`ExplorationConfig::default()` with the same device) — the baseline the
/// tuned point must beat. `wall_ms` is the measured tuning wall-clock; pass a fixed value to
/// obtain timestamp-independent output.
pub fn autotune_entry(
    workload: &str,
    strategy: &Strategy,
    default_best_time: Option<f64>,
    result: &TuningResult,
    wall_ms: f64,
) -> Json {
    let best = result.best_point.as_ref().zip(result.best_variant.as_ref());
    let improvement = match (default_best_time, &result.best_variant) {
        (Some(d), Some(b)) if b.estimated_time > 0.0 => Some(d / b.estimated_time),
        _ => None,
    };
    let points_per_sec = if wall_ms > 0.0 {
        result.points_evaluated as f64 / (wall_ms / 1e3)
    } else {
        0.0
    };
    Json::obj([
        ("workload", Json::str(workload)),
        ("device", Json::str(&result.device)),
        ("strategy", Json::str(strategy_label(strategy))),
        ("default_best_time", Json::opt_num(default_best_time)),
        (
            "tuned_best_time",
            Json::opt_num(result.best_variant.as_ref().map(|b| b.estimated_time)),
        ),
        ("improvement", Json::opt_num(improvement)),
        (
            "points_evaluated",
            Json::num(result.points_evaluated as f64),
        ),
        ("enumerations", Json::num(result.enumerations as f64)),
        (
            "enumeration_cache_hits",
            Json::num(result.enumeration_cache_hits as f64),
        ),
        (
            "kernels_executed",
            Json::num(result.kernels_executed as f64),
        ),
        ("kernels_reused", Json::num(result.kernels_reused as f64)),
        ("wall_ms", Json::num(wall_ms)),
        ("points_per_sec", Json::num(points_per_sec)),
        (
            "best",
            best.map_or(Json::Null, |(point, variant)| {
                Json::obj([
                    (
                        "split_sizes",
                        Json::Arr(
                            point
                                .rule_options
                                .split_sizes
                                .iter()
                                .map(|s| Json::num(*s as f64))
                                .collect(),
                        ),
                    ),
                    (
                        "vector_widths",
                        Json::Arr(
                            point
                                .rule_options
                                .vector_widths
                                .iter()
                                .map(|w| Json::num(*w as f64))
                                .collect(),
                        ),
                    ),
                    (
                        // Each tile as a `[rows, cols]` pair; 1D stencil tiles are `[1, x]`.
                        "tile_sizes",
                        Json::Arr(
                            point
                                .rule_options
                                .tile_sizes
                                .iter()
                                .map(|t| {
                                    Json::Arr(vec![Json::num(t.y as f64), Json::num(t.x as f64)])
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "global",
                        Json::Arr(
                            point
                                .launch
                                .global
                                .iter()
                                .map(|g| Json::num(*g as f64))
                                .collect(),
                        ),
                    ),
                    (
                        "local",
                        Json::Arr(
                            point
                                .launch
                                .local
                                .iter()
                                .map(|l| Json::num(*l as f64))
                                .collect(),
                        ),
                    ),
                    (
                        "derivation",
                        Json::Arr(variant.derivation.iter().map(Json::str).collect()),
                    ),
                ])
            }),
        ),
        (
            "trajectory",
            Json::Arr(
                result
                    .trajectory
                    .iter()
                    .map(|entry| {
                        Json::obj([
                            (
                                "global",
                                Json::num(entry.point.launch.total_work_items() as f64),
                            ),
                            (
                                "local",
                                Json::num(entry.point.launch.work_group_size() as f64),
                            ),
                            (
                                "split_sizes",
                                Json::Arr(
                                    entry
                                        .point
                                        .rule_options
                                        .split_sizes
                                        .iter()
                                        .map(|s| Json::num(*s as f64))
                                        .collect(),
                                ),
                            ),
                            ("best_time", Json::opt_num(entry.best_time)),
                            ("variants", Json::num(entry.variants as f64)),
                            ("improved", Json::Bool(entry.improved)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Assembles the complete `BENCH_autotune.json` document from per-run entries.
pub fn autotune_report(entries: Vec<Json>) -> Json {
    Json::obj([
        ("schema", Json::str("lift-autotune/v1")),
        ("results", Json::Arr(entries)),
    ])
}

/// Builds one `max_candidates_N` section of `BENCH_explore.json`.
///
/// `wall_ms` is the measured exploration wall-clock (throughput is derived from it, so
/// equal inputs render byte-identically). `engine` is the virtual-GPU engine label the
/// probe ran on (`EngineSelection::label`).
pub fn explore_section(result: &Exploration, wall_ms: f64, engine: &str) -> Json {
    let cps = if wall_ms > 0.0 {
        result.explored as f64 / (wall_ms / 1e3)
    } else {
        0.0
    };
    let derivations: Vec<Json> = result
        .variants
        .iter()
        .map(|v| {
            Json::Arr(
                v.derivation
                    .iter()
                    .map(|s| Json::str(format!("{} @ {}", s.rule, s.location)))
                    .collect(),
            )
        })
        .collect();
    Json::obj([
        ("engine", Json::str(engine)),
        ("explored", Json::num(result.explored as f64)),
        ("wall_ms", Json::num(wall_ms)),
        ("candidates_per_sec", Json::num(cps)),
        ("variants", Json::num(result.variants.len() as f64)),
        (
            "best_estimated_time",
            Json::opt_num(result.variants.first().map(|v| v.estimated_time)),
        ),
        ("best_derivations", Json::Arr(derivations)),
        ("soundness", soundness_counts(&result.soundness)),
    ])
}

/// The fixed-shape per-reason incident counts of a soundness report: one key per
/// [`RejectReason::SOUNDNESS`] label (zeros included) plus the static/dynamic split, so
/// serialized summaries have the same keys whether or not anything was rejected.
pub fn soundness_counts(report: &SoundnessReport) -> Json {
    let mut pairs: Vec<(&'static str, Json)> = report
        .counts()
        .into_iter()
        .map(|(label, n)| (label, Json::num(n as f64)))
        .collect();
    pairs.push(("static", Json::num(report.static_rejections.len() as f64)));
    pairs.push(("dynamic", Json::num(report.dynamic_rejections.len() as f64)));
    Json::obj(pairs)
}

/// Builds the `engines` section of `BENCH_explore.json`: end-to-end exploration throughput
/// of the same execution-dominated probe on each virtual-GPU engine (best-of-N wall-clocks,
/// race detection on), plus the bytecode tier's speedup over the interpreter — the number
/// the `perf_gate` bytecode-vs-interpreter floor reads.
pub fn engine_comparison_section(
    probe: &str,
    explored: usize,
    interpreter_ms: f64,
    bytecode_ms: f64,
) -> Json {
    let cps = |wall_ms: f64| {
        if wall_ms > 0.0 {
            explored as f64 / (wall_ms / 1e3)
        } else {
            0.0
        }
    };
    let speedup = if bytecode_ms > 0.0 {
        interpreter_ms / bytecode_ms
    } else {
        0.0
    };
    let engine = |wall_ms: f64| {
        Json::obj([
            ("wall_ms", Json::num(wall_ms)),
            ("candidates_per_sec", Json::num(cps(wall_ms))),
        ])
    };
    Json::obj([
        ("probe", Json::str(probe)),
        ("explored", Json::num(explored as f64)),
        ("interpreter", engine(interpreter_ms)),
        ("bytecode", engine(bytecode_ms)),
        ("bytecode_speedup", Json::num(speedup)),
    ])
}

/// Builds the `race_detector` section of `BENCH_soundness.json`: the cost of scoring an
/// enumeration with the shadow-memory race detector relative to scoring it without
/// (best-of-N wall-clocks, measured by `explore_stats`).
pub fn race_detector_section(plain_ms: f64, detected_ms: f64) -> Json {
    let fraction = if plain_ms > 0.0 {
        (detected_ms - plain_ms) / plain_ms
    } else {
        0.0
    };
    Json::obj([
        ("plain_ms", Json::num(plain_ms)),
        ("detected_ms", Json::num(detected_ms)),
        ("overhead_fraction", Json::num(fraction)),
    ])
}

/// Assembles the complete `BENCH_soundness.json` document: per-probe soundness sections in
/// order, then the race-detector overhead section.
pub fn soundness_report(sections: Vec<(String, Json)>, race_detector: Json) -> Json {
    let mut pairs = vec![("schema".to_string(), Json::str("lift-soundness/v1"))];
    pairs.extend(sections);
    pairs.push(("race_detector".to_string(), race_detector));
    Json::Obj(pairs)
}

/// Assembles the complete `BENCH_explore.json` document: the named sections in order,
/// followed by the pre-optimisation baseline and the speedup of `current_cps` over it (the
/// key order the committed baseline and the gate parser expect).
pub fn explore_report(sections: Vec<(String, Json)>, baseline_cps: f64, current_cps: f64) -> Json {
    let mut pairs = sections;
    pairs.push((
        "baseline_candidates_per_sec".to_string(),
        Json::num(baseline_cps),
    ));
    pairs.push((
        "speedup_over_baseline".to_string(),
        Json::num(current_cps / baseline_cps),
    ));
    Json::Obj(pairs)
}

/// Builds the `batch` section of one `BENCH_cache.json` entry: the deduplication outcome
/// of submitting `requests` identical requests to a fresh service in one drain.
/// `derivations`/`coalesced` come from [`lift_service::ServiceStats`]; `miss_events` is the
/// number of `cache_miss` telemetry events the drain recorded — the independent pin that
/// the batch cost exactly one derivation.
pub fn cache_batch(
    requests: u64,
    derivations: u64,
    coalesced: u64,
    miss_events: usize,
    wall_ms: f64,
) -> Json {
    Json::obj([
        ("requests", Json::num(requests as f64)),
        ("derivations", Json::num(derivations as f64)),
        ("coalesced", Json::num(coalesced as f64)),
        ("miss_events", Json::num(miss_events as f64)),
        ("wall_ms", Json::num(wall_ms)),
    ])
}

/// Builds one `results[]` entry of `BENCH_cache.json`: the cold-derivation and warm-hit
/// wall-clocks of one workload on one device, the warm/cold speedup the gate's
/// [`crate::gate::CACHE_SPEEDUP_FLOOR`] reads, the number of warm-start seeds the cold
/// search climbed from, and the [`cache_batch`] deduplication section.
pub fn cache_entry(
    workload: &str,
    device: &str,
    cold_ms: f64,
    warm_ms: f64,
    warm_seeds: usize,
    batch: Json,
) -> Json {
    let speedup = if warm_ms > 0.0 {
        cold_ms / warm_ms
    } else {
        0.0
    };
    Json::obj([
        ("workload", Json::str(workload)),
        ("device", Json::str(device)),
        ("cold_ms", Json::num(cold_ms)),
        ("warm_ms", Json::num(warm_ms)),
        ("speedup", Json::num(speedup)),
        ("warm_start_seeds", Json::num(warm_seeds as f64)),
        ("batch", batch),
    ])
}

/// Assembles the complete `BENCH_cache.json` document from per-workload entries.
pub fn cache_report(entries: Vec<Json>) -> Json {
    Json::obj([
        ("schema", Json::str("lift-cache-stats/v1")),
        ("results", Json::Arr(entries)),
    ])
}

/// Builds one `results[]` entry of `BENCH_telemetry.json` from a recorded event stream:
/// total event count, per-kind counts and the per-phase wall-time breakdown
/// ([`phase_durations`] over the collector's span events).
pub fn telemetry_entry(workload: &str, events: &[TimedEvent], wall_ms: f64) -> Json {
    let counts = counts_by_kind(events)
        .into_iter()
        .map(|(kind, n)| (kind, Json::num(n as f64)))
        .collect::<Vec<_>>();
    let phases = phase_durations(events)
        .into_iter()
        .map(|(name, us)| (name, Json::num(us as f64)))
        .collect::<Vec<_>>();
    let rejections: Vec<(&'static str, Json)> = RejectReason::ALL
        .iter()
        .map(|r| {
            let n = events
                .iter()
                .filter(|t| matches!(&t.event, Event::Rejection { reason, .. } if reason == r))
                .count();
            (r.label(), Json::num(n as f64))
        })
        .collect();
    Json::obj([
        ("workload", Json::str(workload)),
        ("wall_ms", Json::num(wall_ms)),
        ("events", Json::num(events.len() as f64)),
        ("event_counts", Json::obj(counts)),
        ("rejection_reasons", Json::obj(rejections)),
        ("phase_us", Json::obj(phases)),
    ])
}

/// Builds the `overhead` section of `BENCH_telemetry.json`: the instrumentation cost of an
/// enabled in-memory collector relative to the default [`lift_telemetry::Null`] collector
/// on the same workload (best-of-N wall-clocks, measured by `telemetry_stats`).
pub fn overhead_section(null_ms: f64, collected_ms: f64) -> Json {
    let fraction = if null_ms > 0.0 {
        (collected_ms - null_ms) / null_ms
    } else {
        0.0
    };
    Json::obj([
        ("null_ms", Json::num(null_ms)),
        ("collected_ms", Json::num(collected_ms)),
        ("overhead_fraction", Json::num(fraction)),
    ])
}

/// Assembles the complete `BENCH_telemetry.json` document.
pub fn telemetry_report(entries: Vec<Json>, overhead: Option<Json>) -> Json {
    Json::obj([
        ("schema", Json::str("lift-telemetry/v1")),
        ("results", Json::Arr(entries)),
        ("overhead", overhead.unwrap_or(Json::Null)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_without_variants_render_null_fields() {
        let result = TuningResult {
            device: "nvidia-titan-black".into(),
            best_point: None,
            best_variant: None,
            trajectory: Vec::new(),
            points_evaluated: 0,
            enumerations: 0,
            enumeration_cache_hits: 0,
            kernels_executed: 0,
            kernels_reused: 0,
        };
        let entry = autotune_entry("empty", &Strategy::Exhaustive, None, &result, 0.0);
        assert_eq!(
            entry.get("tuned_best_time"),
            Some(&crate::schema::Json::Null)
        );
        assert_eq!(entry.get("best"), Some(&crate::schema::Json::Null));
        let doc = autotune_report(vec![entry]);
        let parsed = crate::schema::parse(&doc.render()).expect("round-trips");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("lift-autotune/v1")
        );
    }

    #[test]
    fn explore_report_matches_the_committed_baseline_shape() {
        let result = Exploration {
            explored: 973,
            ..Exploration::default()
        };
        let section = explore_section(&result, 203.9, "bytecode");
        assert_eq!(section.get("explored").and_then(Json::as_f64), Some(973.0));
        let cps = section
            .get("candidates_per_sec")
            .and_then(Json::as_f64)
            .expect("throughput");
        assert!((cps - 973.0 / 0.2039).abs() < 1.0);
        let doc = explore_report(
            vec![("max_candidates_4000".to_string(), section)],
            4772.0,
            cps,
        );
        // The gate reads exactly this path.
        assert!(doc
            .get("max_candidates_4000")
            .and_then(|s| s.get("candidates_per_sec"))
            .is_some());
        assert!(doc.get("speedup_over_baseline").is_some());
    }

    #[test]
    fn cache_report_round_trips_with_the_speedup_derived() {
        let batch = cache_batch(8, 1, 7, 1, 95.0);
        let entry = cache_entry("dot_product", "nvidia", 500.0, 10.0, 2, batch);
        let doc = cache_report(vec![entry]);
        let parsed = crate::schema::parse(&doc.render()).expect("round-trips");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("lift-cache-stats/v1")
        );
        let entry = &parsed.get("results").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(entry.get("speedup").and_then(Json::as_f64), Some(50.0));
        let batch = entry.get("batch").expect("batch section");
        assert_eq!(batch.get("derivations").and_then(Json::as_f64), Some(1.0));
        assert_eq!(batch.get("coalesced").and_then(Json::as_f64), Some(7.0));
    }

    #[test]
    fn telemetry_report_rendering_is_deterministic() {
        use lift_telemetry::{Event, TimedEvent};
        let events = vec![
            TimedEvent {
                t_us: 0,
                event: Event::SpanBegin { name: "enumerate" },
            },
            TimedEvent {
                t_us: 120,
                event: Event::SpanEnd { name: "enumerate" },
            },
            TimedEvent {
                t_us: 130,
                event: Event::Counter {
                    name: "executed_kernels",
                    value: 7.0,
                },
            },
        ];
        let build = || {
            telemetry_report(
                vec![telemetry_entry("dot_product", &events, 1.5)],
                Some(overhead_section(100.0, 103.0)),
            )
            .render()
        };
        let text = build();
        assert_eq!(text, build(), "equal inputs render byte-identically");
        let parsed = crate::schema::parse(&text).expect("round-trips");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("lift-telemetry/v1")
        );
        let entry = &parsed.get("results").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(
            entry
                .get("phase_us")
                .and_then(|p| p.get("enumerate"))
                .and_then(Json::as_f64),
            Some(120.0)
        );
        assert_eq!(entry.get("events").and_then(Json::as_f64), Some(3.0));
        let overhead = parsed.get("overhead").expect("overhead section");
        assert!(
            (overhead
                .get("overhead_fraction")
                .and_then(Json::as_f64)
                .unwrap()
                - 0.03)
                .abs()
                < 1e-9
        );
    }
}
