//! Builder of `BENCH_autotune.json`, the one report this crate writes.
//!
//! No field is a measurement of time: every value follows from the seeded search and the
//! cost model, so two runs render byte-identical documents and the committed file is
//! compared with `git diff`, exactly.

use lift_rewrite::{Exploration, ExplorationConfig};
use lift_telemetry::json::Json;
use lift_tuner::{Strategy, TuningResult};

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
/// `default` is the *default-configuration* exploration (`default_config`:
/// `ExplorationConfig::default()` on the same device); its best estimated time is the
/// baseline the tuned point must beat. When it found no valid variant the entry says why in
/// `default_null_reason`, from that exploration's own statistics, beside the null.
pub fn autotune_entry(
    workload: &str,
    strategy: &Strategy,
    default_config: &ExplorationConfig,
    default: &Exploration,
    result: &TuningResult,
) -> Json {
    let best = result.best_point.as_ref().zip(result.best_variant.as_ref());
    let default_best_time = default.variants.first().map(|v| v.estimated_time);
    let improvement = match (default_best_time, &result.best_variant) {
        (Some(d), Some(b)) if b.estimated_time > 0.0 => Some(d / b.estimated_time),
        _ => None,
    };
    let mut fields = vec![
        ("workload", Json::str(workload)),
        ("device", Json::str(&result.device)),
        ("strategy", Json::str(strategy_label(strategy))),
        ("default_best_time", Json::opt_num(default_best_time)),
    ];
    if default_best_time.is_none() {
        let rejected = default.rejected_compile
            + default.rejected_incorrect
            + default.rejected_unsound
            + default.rejected_race
            + default.rejected_divergence;
        fields.push((
            "default_null_reason",
            Json::str(format!(
                "no valid variant: explored {} of at most {} candidates to max_depth {}, \
                 fully lowered {}, rejected after lowering {rejected}",
                default.explored,
                default_config.max_candidates,
                default_config.max_depth,
                default.lowered
            )),
        ));
    }
    fields.extend([
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
        ("kernels_pruned", Json::num(result.kernels_pruned as f64)),
        ("rows_simulated", Json::num(result.rows_simulated as f64)),
        ("rewrites_judged", Json::num(result.rewrites_judged as f64)),
        (
            "rewrites_recalled",
            Json::num(result.rewrites_recalled as f64),
        ),
        (
            "candidates_compiled",
            Json::num(result.candidates_compiled as f64),
        ),
        (
            "compiles_recalled",
            Json::num(result.compiles_recalled as f64),
        ),
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
    ]);
    Json::obj(fields)
}

/// Assembles the complete `BENCH_autotune.json` document from per-run entries.
pub fn autotune_report(entries: Vec<Json>) -> Json {
    Json::obj([
        ("schema", Json::str("lift-autotune/v1")),
        ("results", Json::Arr(entries)),
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
            kernels_pruned: 0,
            rows_simulated: 0,
            rewrites_judged: 0,
            rewrites_recalled: 0,
            candidates_compiled: 0,
            compiles_recalled: 0,
        };
        let default_config = ExplorationConfig::default();
        let default = Exploration {
            explored: 3000,
            ..Exploration::default()
        };
        let entry = autotune_entry(
            "empty",
            &Strategy::Exhaustive,
            &default_config,
            &default,
            &result,
        );
        assert_eq!(entry.get("default_best_time"), Some(&Json::Null));
        assert_eq!(
            entry.get("default_null_reason").and_then(Json::as_str),
            Some(
                "no valid variant: explored 3000 of at most 4000 candidates to max_depth 6, \
                 fully lowered 0, rejected after lowering 0"
            )
        );
        assert_eq!(entry.get("tuned_best_time"), Some(&Json::Null));
        assert_eq!(entry.get("best"), Some(&Json::Null));
        let doc = autotune_report(vec![entry]);
        let parsed = lift_telemetry::json::parse(&doc.render()).expect("round-trips");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("lift-autotune/v1")
        );
    }
}
