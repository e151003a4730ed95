//! The CI performance-regression gate logic (used by the `perf_gate` binary).
//!
//! Compares freshly generated `BENCH_explore.json` / `BENCH_autotune.json` reports against
//! committed baselines and reports a failure when a tracked number regresses by more than
//! the threshold:
//!
//! * exploration throughput must not drop below `baseline × (1 − threshold)`,
//! * the bytecode execution tier must stay at least [`BYTECODE_SPEEDUP_FLOOR`]× faster than
//!   the slotted interpreter on the current report's per-engine comparison probe,
//! * every `(workload, device)` tuned best-time present in the *baseline* must still exist
//!   and must not exceed `baseline × (1 + threshold)`,
//! * every `(workload, device)` kernel-launch count in the baseline (`kernels_executed`,
//!   `kernels_reused` — what a tuning run measured on the virtual GPU and what it recalled
//!   from its score memo) must be reproduced exactly,
//! * on every device the current report tunes both on, the 2D-tiled MM (`mm_tiled`) must
//!   be at least as fast as the plain 1D-best `matrix_multiply` (no threshold).
//!
//! Workloads present only in the *current* report (a newly added benchmark whose baseline
//! has not been committed yet) are reported informationally and never trip the gate — the
//! gate protects committed numbers, it does not demand prescience from the baseline.

use std::collections::HashMap;

use crate::schema::Json;

/// Validates a `--threshold` value: it is a regression *fraction*, so it must be a finite
/// number in `[0, 1]` (0 = any regression fails, 1 = a 100% regression is tolerated).
///
/// # Errors
///
/// Returns a usage message for NaN, infinite, negative or greater-than-one values — a
/// threshold outside this range would make the gate pass or fail vacuously.
pub fn validate_threshold(threshold: f64) -> Result<(), String> {
    if !threshold.is_finite() || !(0.0..=1.0).contains(&threshold) {
        return Err(format!(
            "--threshold must be a fraction within [0.0, 1.0], got `{threshold}`"
        ));
    }
    Ok(())
}

/// Minimum end-to-end speedup of the bytecode execution tier over the slotted interpreter
/// on the explore report's per-engine comparison probe. Unlike the throughput check this is
/// a fixed ratio of two wall-times measured in the same run on the same machine, so it is
/// machine-independent and takes no baseline.
pub const BYTECODE_SPEEDUP_FLOOR: f64 = 2.0;

/// Minimum warm-hit speedup over a cold derivation in `BENCH_cache.json`. A warm hit
/// replays and re-validates exactly one candidate while a cold miss runs the full
/// enumerate-and-tune search, so like the bytecode floor this is a same-run wall-time ratio:
/// machine-independent and gated without a committed baseline.
pub const CACHE_SPEEDUP_FLOOR: f64 = 10.0;

/// One line of the gate's verdict, in report order.
#[derive(Clone, Debug, PartialEq)]
pub struct GateLine {
    /// Whether this line passed (informational lines always pass).
    pub ok: bool,
    /// The rendered verdict line.
    pub message: String,
}

/// The gate's overall outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct GateOutcome {
    /// Per-check verdict lines.
    pub lines: Vec<GateLine>,
}

impl GateOutcome {
    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.lines.iter().all(|l| l.ok)
    }
}

fn explore_throughput(doc: &Json, label: &str) -> Result<f64, String> {
    doc.get("max_candidates_4000")
        .and_then(|s| s.get("candidates_per_sec"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{label}: missing max_candidates_4000.candidates_per_sec"))
}

/// Renders the per-phase wall-time breakdown of `workload` from a `BENCH_telemetry.json`
/// document (`None` when the report has no entry for it). `workload` is the telemetry
/// entry name, e.g. `explore:dot_product` or `tune:jacobi_2d`.
fn phase_breakdown(telemetry: &Json, workload: &str) -> Option<String> {
    let entry = telemetry
        .get("results")
        .and_then(Json::as_arr)?
        .iter()
        .find(|e| e.get("workload").and_then(Json::as_str) == Some(workload))?;
    let Json::Obj(phases) = entry.get("phase_us")? else {
        return None;
    };
    let mut parts: Vec<String> = phases
        .iter()
        .filter_map(|(name, us)| us.as_f64().map(|us| format!("{name} {:.1}ms", us / 1e3)))
        .collect();
    if let Some(wall) = entry.get("wall_ms").and_then(Json::as_f64) {
        parts.push(format!("wall {wall:.1}ms"));
    }
    (!parts.is_empty()).then(|| format!("       {workload} phases: {}", parts.join(", ")))
}

/// When `line` failed and the telemetry report covers `workload`, appends an informational
/// line with that workload's per-phase breakdown so the offender is diagnosable from the
/// gate output alone.
fn push_breakdown_for_failure(lines: &mut Vec<GateLine>, telemetry: Option<&Json>, workload: &str) {
    let failed = lines.last().is_some_and(|l| !l.ok);
    if !failed {
        return;
    }
    if let Some(message) = telemetry.and_then(|t| phase_breakdown(t, workload)) {
        lines.push(GateLine { ok: true, message });
    }
}

/// Sums the `rejection_reasons` maps of every entry in a `BENCH_telemetry.json` document
/// and renders one informational line (`None` when no entry carries the map). The line
/// keeps the per-reason taxonomy visible in the gate output — a sudden appearance of
/// `ownership_violation` / `data_race` counts means the search space grew a racy shape the
/// soundness layers are rejecting.
fn rejection_summary(telemetry: &Json) -> Option<String> {
    let results = telemetry.get("results").and_then(Json::as_arr)?;
    let mut totals: Vec<(String, f64)> = Vec::new();
    for entry in results {
        let Some(Json::Obj(reasons)) = entry.get("rejection_reasons") else {
            continue;
        };
        for (reason, n) in reasons {
            let Some(n) = n.as_f64() else { continue };
            match totals.iter_mut().find(|(name, _)| name == reason) {
                Some((_, total)) => *total += n,
                None => totals.push((reason.clone(), n)),
            }
        }
    }
    if totals.is_empty() {
        return None;
    }
    let parts: Vec<String> = totals
        .iter()
        .map(|(reason, n)| format!("{reason} {n:.0}"))
        .collect();
    Some(format!("[info] rejection reasons: {}", parts.join(", ")))
}

/// `(workload, device) → field` for every autotune entry that has the numeric `field`.
fn entry_numbers(
    doc: &Json,
    label: &str,
    field: &str,
) -> Result<HashMap<(String, String), f64>, String> {
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{label}: missing results[]"))?;
    let mut out = HashMap::new();
    for entry in results {
        let workload = entry
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{label}: entry without workload"))?;
        let device = entry
            .get("device")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{label}: entry without device"))?;
        if let Some(value) = entry.get(field).and_then(Json::as_f64) {
            out.insert((workload.to_string(), device.to_string()), value);
        }
    }
    Ok(out)
}

/// Runs every gate check over the four parsed reports.
///
/// `telemetry` is an optional freshly generated `BENCH_telemetry.json` document: when a
/// check fails and the telemetry report covers the offending workload, the verdict gains an
/// informational line with that workload's per-phase wall-time breakdown.
///
/// # Errors
///
/// Returns a message when a report is structurally invalid (missing fields) or the
/// threshold is out of range; regressions are *not* errors — they are failing lines in the
/// returned [`GateOutcome`].
pub fn check_reports(
    baseline_explore: &Json,
    current_explore: &Json,
    baseline_autotune: &Json,
    current_autotune: &Json,
    telemetry: Option<&Json>,
    threshold: f64,
) -> Result<GateOutcome, String> {
    validate_threshold(threshold)?;
    let mut lines = Vec::new();

    // 1. Exploration throughput: lower is a regression. This number is wall-clock based and
    //    therefore machine-dependent — the committed baseline must be refreshed (re-run
    //    `explore_stats` and commit the JSON) whenever the reference machine class changes,
    //    and the threshold absorbs normal runner-to-runner variance.
    let baseline = explore_throughput(baseline_explore, "baseline explore report")?;
    let current = explore_throughput(current_explore, "current explore report")?;
    let floor = baseline * (1.0 - threshold);
    let ok = current >= floor;
    lines.push(GateLine {
        ok,
        message: format!(
            "[{}] exploration throughput: {current:.0} candidates/sec \
             (baseline {baseline:.0}, floor {floor:.0})",
            if ok { "ok" } else { "FAIL" }
        ),
    });
    // The throughput probe is the dot-product search, so that is the entry to show.
    push_breakdown_for_failure(&mut lines, telemetry, "explore:dot_product");

    // 2. The bytecode tier's speedup over the interpreter: both wall-times come from the
    //    same run of the current report's per-engine probe, so the ratio is machine-
    //    independent and gated against a fixed floor rather than a committed baseline.
    //    Reports that predate the probe (no `engines` section) get an informational line —
    //    the gate protects the numbers a report records, it does not demand new schema
    //    retroactively.
    match current_explore.get("engines") {
        None => lines.push(GateLine {
            ok: true,
            message: "[info] engines: current explore report has no per-engine probe".to_string(),
        }),
        Some(section) => {
            let speedup = section
                .get("bytecode_speedup")
                .and_then(Json::as_f64)
                .ok_or("current explore report: engines section without bytecode_speedup")?;
            let probe = section.get("probe").and_then(Json::as_str).unwrap_or("?");
            let ok = speedup >= BYTECODE_SPEEDUP_FLOOR;
            lines.push(GateLine {
                ok,
                message: format!(
                    "[{}] engines ({probe}): bytecode {speedup:.2}x interpreter \
                     (floor {BYTECODE_SPEEDUP_FLOOR:.1}x)",
                    if ok { "ok" } else { "FAIL" }
                ),
            });
            push_breakdown_for_failure(&mut lines, telemetry, "explore:dot_product");
        }
    }

    // 3. Tuned best-times: higher is a regression (deterministic cost model, so any drift
    //    beyond the threshold is a real change in generated code or search quality).
    let baseline_label = "baseline autotune report";
    let current_label = "current autotune report";
    let baseline_times = entry_numbers(baseline_autotune, baseline_label, "tuned_best_time")?;
    let current_times = entry_numbers(current_autotune, current_label, "tuned_best_time")?;
    let mut keys: Vec<_> = baseline_times.keys().collect();
    keys.sort();
    for key in keys {
        let baseline = baseline_times[key];
        let ceiling = baseline * (1.0 + threshold);
        match current_times.get(key) {
            None => lines.push(GateLine {
                ok: false,
                message: format!(
                    "[FAIL] autotune {}/{}: missing from current report",
                    key.0, key.1
                ),
            }),
            Some(&current) => {
                let ok = current <= ceiling;
                lines.push(GateLine {
                    ok,
                    message: format!(
                        "[{}] autotune {}/{}: tuned best {current:.1} \
                         (baseline {baseline:.1}, ceiling {ceiling:.1})",
                        if ok { "ok" } else { "FAIL" },
                        key.0,
                        key.1
                    ),
                });
            }
        }
        push_breakdown_for_failure(&mut lines, telemetry, &format!("tune:{}", key.0));
    }

    // 3b. Kernel launches a tuning run executed and recalled: the search is deterministic,
    //     so these are exact counts, not measurements — any drift means the candidate set,
    //     the launch identity or the score memo changed. Baselines that predate the counts
    //     have no entries here.
    for field in ["kernels_executed", "kernels_reused"] {
        let baseline_counts = entry_numbers(baseline_autotune, baseline_label, field)?;
        let current_counts = entry_numbers(current_autotune, current_label, field)?;
        let mut keys: Vec<_> = baseline_counts.keys().collect();
        keys.sort();
        for key in keys {
            let baseline = baseline_counts[key];
            let current = current_counts.get(key).copied();
            let ok = current == Some(baseline);
            lines.push(GateLine {
                ok,
                message: format!(
                    "[{}] autotune {}/{}: {field} {} (baseline {baseline:.0}, must match)",
                    if ok { "ok" } else { "FAIL" },
                    key.0,
                    key.1,
                    current.map_or("missing".to_string(), |c| format!("{c:.0}")),
                ),
            });
        }
    }

    // 4. Workloads only in the current report never trip the gate: a new workload's first
    //    baseline is committed by the PR that adds it.
    let mut new_keys: Vec<_> = current_times
        .keys()
        .filter(|k| !baseline_times.contains_key(*k))
        .collect();
    new_keys.sort();
    for key in new_keys {
        lines.push(GateLine {
            ok: true,
            message: format!(
                "[new] autotune {}/{}: {:.1} (no committed baseline yet)",
                key.0, key.1, current_times[key]
            ),
        });
    }

    // 5. The 2D-tiled MM must not fall behind the committed 1D-best plain MM on any device
    //    both appear on in the current report: the whole point of the tiled derivation is
    //    that register/local blocking wins, so this is a structural invariant of the
    //    report, not a number to eyeball. No threshold — a tie is the worst acceptable
    //    outcome for the tiled variant.
    let mut tiled_devices: Vec<&(String, String)> = current_times
        .keys()
        .filter(|(w, _)| w == "mm_tiled")
        .collect();
    tiled_devices.sort();
    for key in tiled_devices {
        let device = &key.1;
        let tiled = current_times[key];
        let Some(&plain) = current_times.get(&("matrix_multiply".to_string(), device.clone()))
        else {
            continue;
        };
        let ok = tiled <= plain;
        lines.push(GateLine {
            ok,
            message: format!(
                "[{}] autotune mm_tiled/{device}: tiled best {tiled:.1} vs 1D-best MM {plain:.1}",
                if ok { "ok" } else { "FAIL" }
            ),
        });
        push_breakdown_for_failure(&mut lines, telemetry, "tune:mm_tiled");
    }

    // 6. The rejection-reason taxonomy of the telemetry report, summed across workloads
    //    (informational: makes soundness rejections visible in the gate output).
    if let Some(message) = telemetry.and_then(rejection_summary) {
        lines.push(GateLine { ok: true, message });
    }

    Ok(GateOutcome { lines })
}

/// Runs the derivation-service checks over a freshly generated `BENCH_cache.json` document
/// (the `--cache` flag of `perf_gate`). Per tracked `(workload, device)` entry:
///
/// * the warm hit must be at least [`CACHE_SPEEDUP_FLOOR`]× faster than the cold
///   derivation measured in the same run,
/// * the batch of identical requests must have cost exactly one derivation, pinned twice —
///   by the service's own `derivations` counter and by the independent `cache_miss`
///   telemetry event count.
///
/// Both are same-run invariants of the service, so no baseline is involved.
///
/// # Errors
///
/// Returns a message when the report is structurally invalid (missing fields).
pub fn check_cache_report(doc: &Json) -> Result<GateOutcome, String> {
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("cache report: missing results[]")?;
    let mut lines = Vec::new();
    for entry in results {
        let field = |name: &str| {
            entry
                .get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("cache report: entry without {name}"))
        };
        let workload = entry
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("cache report: entry without workload")?;
        let device = entry
            .get("device")
            .and_then(Json::as_str)
            .ok_or("cache report: entry without device")?;
        let (cold, warm, speedup) = (field("cold_ms")?, field("warm_ms")?, field("speedup")?);
        let ok = speedup >= CACHE_SPEEDUP_FLOOR;
        lines.push(GateLine {
            ok,
            message: format!(
                "[{}] cache {workload}/{device}: warm {warm:.1}ms vs cold {cold:.1}ms \
                 = {speedup:.1}x (floor {CACHE_SPEEDUP_FLOOR:.0}x)",
                if ok { "ok" } else { "FAIL" }
            ),
        });
        let batch = entry
            .get("batch")
            .ok_or("cache report: entry without batch section")?;
        let batch_field = |name: &str| {
            batch
                .get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("cache report: batch section without {name}"))
        };
        let requests = batch_field("requests")?;
        let derivations = batch_field("derivations")?;
        let miss_events = batch_field("miss_events")?;
        let ok = derivations == 1.0 && miss_events == 1.0;
        lines.push(GateLine {
            ok,
            message: format!(
                "[{}] cache {workload}/{device}: batch of {requests:.0} identical requests \
                 cost {derivations:.0} derivation(s), {miss_events:.0} miss event(s) \
                 (must be exactly 1)",
                if ok { "ok" } else { "FAIL" }
            ),
        });
    }
    if lines.is_empty() {
        return Err("cache report: results[] is empty".to_string());
    }
    Ok(GateOutcome { lines })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::parse;

    fn explore_doc(cps: f64) -> Json {
        parse(&format!(
            r#"{{"max_candidates_4000": {{"candidates_per_sec": {cps}}}}}"#
        ))
        .unwrap()
    }

    fn autotune_doc(entries: &[(&str, &str, f64)]) -> Json {
        let results: Vec<String> = entries
            .iter()
            .map(|(w, d, t)| {
                format!(r#"{{"workload": "{w}", "device": "{d}", "tuned_best_time": {t}}}"#)
            })
            .collect();
        parse(&format!(r#"{{"results": [{}]}}"#, results.join(","))).unwrap()
    }

    #[test]
    fn threshold_range_is_validated() {
        assert!(validate_threshold(0.0).is_ok());
        assert!(validate_threshold(0.25).is_ok());
        assert!(validate_threshold(1.0).is_ok());
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(validate_threshold(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn check_reports_rejects_invalid_thresholds_up_front() {
        let e = explore_doc(100.0);
        let a = autotune_doc(&[]);
        assert!(check_reports(&e, &e, &a, &a, None, f64::NAN).is_err());
        assert!(check_reports(&e, &e, &a, &a, None, -1.0).is_err());
        assert!(check_reports(&e, &e, &a, &a, None, 2.0).is_err());
    }

    #[test]
    fn regressions_beyond_the_threshold_fail() {
        let baseline = autotune_doc(&[("dot", "nv", 100.0)]);
        let regressed = autotune_doc(&[("dot", "nv", 130.0)]);
        let outcome = check_reports(
            &explore_doc(100.0),
            &explore_doc(100.0),
            &baseline,
            &regressed,
            None,
            0.25,
        )
        .unwrap();
        assert!(!outcome.passed());
        // Within the threshold passes.
        let near = autotune_doc(&[("dot", "nv", 120.0)]);
        let outcome = check_reports(
            &explore_doc(100.0),
            &explore_doc(100.0),
            &baseline,
            &near,
            None,
            0.25,
        )
        .unwrap();
        assert!(outcome.passed());
        // Throughput drops fail too.
        let outcome = check_reports(
            &explore_doc(100.0),
            &explore_doc(50.0),
            &baseline,
            &near,
            None,
            0.25,
        )
        .unwrap();
        assert!(!outcome.passed());
    }

    fn explore_doc_with_engines(cps: f64, bytecode_speedup: f64) -> Json {
        parse(&format!(
            r#"{{"max_candidates_4000": {{"candidates_per_sec": {cps}}},
                 "engines": {{"probe": "dot_product_n16384", "explored": 137,
                              "interpreter": {{"wall_ms": 400.0}},
                              "bytecode": {{"wall_ms": 160.0}},
                              "bytecode_speedup": {bytecode_speedup}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn the_bytecode_speedup_floor_gates_the_engines_section() {
        let autotune = autotune_doc(&[("dot", "nv", 100.0)]);
        let baseline = explore_doc(100.0);

        // At or above the floor passes.
        let current = explore_doc_with_engines(100.0, 2.5);
        let outcome = check_reports(&baseline, &current, &autotune, &autotune, None, 0.25).unwrap();
        assert!(outcome.passed(), "{:?}", outcome.lines);
        assert!(outcome.lines.iter().any(|l| l.ok
            && l.message
                .contains("[ok] engines (dot_product_n16384): bytecode 2.50x interpreter")));

        // Below the floor fails.
        let current = explore_doc_with_engines(100.0, 1.4);
        let outcome = check_reports(&baseline, &current, &autotune, &autotune, None, 0.25).unwrap();
        assert!(!outcome.passed());
        assert!(outcome.lines.iter().any(|l| !l.ok
            && l.message
                .contains("bytecode 1.40x interpreter (floor 2.0x)")));

        // A current report that predates the probe is informational, never a failure.
        let outcome =
            check_reports(&baseline, &baseline, &autotune, &autotune, None, 0.25).unwrap();
        assert!(outcome.passed());
        assert!(outcome
            .lines
            .iter()
            .any(|l| l.ok && l.message.contains("[info] engines")));

        // An engines section without the speedup field is structurally invalid.
        let malformed =
            parse(r#"{"max_candidates_4000": {"candidates_per_sec": 100.0}, "engines": {}}"#)
                .unwrap();
        assert!(check_reports(&baseline, &malformed, &autotune, &autotune, None, 0.25).is_err());
    }

    #[test]
    fn kernel_launch_counts_must_match_the_baseline_exactly() {
        let doc = |executed: &str| {
            parse(&format!(
                r#"{{"results": [{{"workload": "dot", "device": "nv", "tuned_best_time": 100,
                    "kernels_reused": 658{executed}}}]}}"#
            ))
            .unwrap()
        };
        let explore = explore_doc(100.0);
        let check = |baseline: &Json, current: &Json| {
            check_reports(&explore, &explore, baseline, current, None, 0.25).unwrap()
        };
        let baseline = doc(r#", "kernels_executed": 507"#);
        assert!(check(&baseline, &baseline).passed());
        // One launch more or fewer is a change in what the search measures, not noise.
        let outcome = check(&baseline, &doc(r#", "kernels_executed": 508"#));
        assert!(!outcome.passed());
        assert!(outcome.lines.iter().any(|l| !l.ok
            && l.message
                .contains("kernels_executed 508 (baseline 507, must match)")));
        // A current report that dropped the count fails; a baseline without it asks nothing.
        assert!(!check(&baseline, &doc("")).passed());
        assert!(check(&doc(""), &baseline).passed());
    }

    #[test]
    fn a_workload_missing_from_the_current_report_fails() {
        let baseline = autotune_doc(&[("dot", "nv", 100.0)]);
        let current = autotune_doc(&[]);
        let outcome = check_reports(
            &explore_doc(100.0),
            &explore_doc(100.0),
            &baseline,
            &current,
            None,
            0.25,
        )
        .unwrap();
        assert!(!outcome.passed());
    }

    #[test]
    fn a_new_workload_only_in_the_current_report_does_not_trip_the_gate() {
        // The committed baseline predates the two-stage workload; the gate reports it as
        // new and still passes.
        let baseline = autotune_doc(&[("dot", "nv", 100.0)]);
        let current = autotune_doc(&[("dot", "nv", 100.0), ("dot_two_stage", "nv", 900.0)]);
        let outcome = check_reports(
            &explore_doc(100.0),
            &explore_doc(100.0),
            &baseline,
            &current,
            None,
            0.25,
        )
        .unwrap();
        assert!(outcome.passed(), "{:?}", outcome.lines);
        assert!(outcome
            .lines
            .iter()
            .any(|l| l.ok && l.message.contains("[new] autotune dot_two_stage/nv")));
    }

    #[test]
    fn the_tiled_mm_must_not_be_slower_than_the_plain_mm() {
        let e = explore_doc(100.0);
        let baseline = autotune_doc(&[("matrix_multiply", "nv", 100.0)]);

        // Faster (or equal) tiled MM passes.
        let current = autotune_doc(&[("matrix_multiply", "nv", 100.0), ("mm_tiled", "nv", 80.0)]);
        let outcome = check_reports(&e, &e, &baseline, &current, None, 0.25).unwrap();
        assert!(outcome.passed(), "{:?}", outcome.lines);
        assert!(outcome.lines.iter().any(|l| l.ok
            && l.message
                .contains("[ok] autotune mm_tiled/nv: tiled best 80.0 vs 1D-best MM 100.0")));

        // A tiled MM behind the 1D best fails, with no threshold slack.
        let current = autotune_doc(&[("matrix_multiply", "nv", 100.0), ("mm_tiled", "nv", 100.1)]);
        let outcome = check_reports(&e, &e, &baseline, &current, None, 0.25).unwrap();
        assert!(!outcome.passed());
        assert!(outcome
            .lines
            .iter()
            .any(|l| !l.ok && l.message.contains("mm_tiled/nv")));

        // A device without a plain-MM entry is skipped rather than a failure.
        let current = autotune_doc(&[("matrix_multiply", "nv", 100.0), ("mm_tiled", "amd", 50.0)]);
        let outcome = check_reports(&e, &e, &baseline, &current, None, 0.25).unwrap();
        assert!(outcome.passed(), "{:?}", outcome.lines);
    }

    #[test]
    fn the_telemetry_rejection_taxonomy_is_summed_into_an_info_line() {
        let telemetry = parse(
            r#"{
  "schema": "lift-telemetry/v1",
  "results": [
    {"workload": "explore:dot_product",
     "rejection_reasons": {"ill_typed": 10, "ownership_violation": 1, "data_race": 0}},
    {"workload": "tune:dot",
     "rejection_reasons": {"ill_typed": 5, "ownership_violation": 2, "data_race": 0}}
  ]
}"#,
        )
        .unwrap();
        let autotune = autotune_doc(&[("dot", "nv", 100.0)]);
        let outcome = check_reports(
            &explore_doc(100.0),
            &explore_doc(100.0),
            &autotune,
            &autotune,
            Some(&telemetry),
            0.25,
        )
        .unwrap();
        assert!(outcome.passed());
        let line = outcome
            .lines
            .iter()
            .find(|l| l.message.starts_with("[info] rejection reasons:"))
            .expect("rejection summary line");
        assert!(line.message.contains("ill_typed 15"), "{}", line.message);
        assert!(
            line.message.contains("ownership_violation 3"),
            "{}",
            line.message
        );
        assert!(line.message.contains("data_race 0"), "{}", line.message);
        // A telemetry report without the map (older schema) adds no line.
        let old = parse(r#"{"results": [{"workload": "explore:dot_product"}]}"#).unwrap();
        let outcome = check_reports(
            &explore_doc(100.0),
            &explore_doc(100.0),
            &autotune,
            &autotune,
            Some(&old),
            0.25,
        )
        .unwrap();
        assert!(!outcome
            .lines
            .iter()
            .any(|l| l.message.contains("rejection reasons")));
    }

    fn cache_doc(speedup: f64, derivations: u64, miss_events: u64) -> Json {
        let warm = 10.0;
        let cold = warm * speedup;
        parse(&format!(
            r#"{{"schema": "lift-cache-stats/v1", "results": [
                 {{"workload": "dot_product", "device": "nvidia",
                   "cold_ms": {cold}, "warm_ms": {warm}, "speedup": {speedup},
                   "warm_start_seeds": 0,
                   "batch": {{"requests": 8, "derivations": {derivations},
                              "coalesced": 7, "miss_events": {miss_events},
                              "wall_ms": 100.0}}}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn the_cache_gate_enforces_the_warm_speedup_floor_and_single_derivation_batches() {
        // At or above the floor with a single-derivation batch passes.
        let outcome = check_cache_report(&cache_doc(25.0, 1, 1)).unwrap();
        assert!(outcome.passed(), "{:?}", outcome.lines);
        assert!(outcome.lines.iter().any(|l| l.ok
            && l.message
                .contains("[ok] cache dot_product/nvidia: warm 10.0ms vs cold 250.0ms = 25.0x")));

        // A warm hit slower than the floor fails.
        let outcome = check_cache_report(&cache_doc(4.0, 1, 1)).unwrap();
        assert!(!outcome.passed());
        assert!(outcome
            .lines
            .iter()
            .any(|l| !l.ok && l.message.contains("= 4.0x (floor 10x)")));

        // A batch that cost more than one derivation fails, whichever pin reports it.
        let outcome = check_cache_report(&cache_doc(25.0, 8, 1)).unwrap();
        assert!(!outcome.passed());
        let outcome = check_cache_report(&cache_doc(25.0, 1, 8)).unwrap();
        assert!(!outcome.passed());

        // Structurally invalid reports are errors, not failing lines.
        assert!(check_cache_report(&parse(r#"{"results": []}"#).unwrap()).is_err());
        assert!(check_cache_report(&parse(r#"{"schema": "x"}"#).unwrap()).is_err());
        let no_batch = parse(
            r#"{"results": [{"workload": "w", "device": "d",
                             "cold_ms": 1.0, "warm_ms": 1.0, "speedup": 1.0}]}"#,
        )
        .unwrap();
        assert!(check_cache_report(&no_batch).is_err());
    }

    #[test]
    fn a_failure_prints_the_offending_workloads_phase_breakdown() {
        let telemetry = parse(
            r#"{
  "schema": "lift-telemetry/v1",
  "results": [
    {"workload": "explore:dot_product", "wall_ms": 140.5,
     "phase_us": {"enumerate": 90000, "typecheck": 8000, "compile": 20000,
                  "execute": 18000, "score": 500}},
    {"workload": "tune:dot", "wall_ms": 900,
     "phase_us": {"sample": 700000, "climb": 150000}}
  ]
}"#,
        )
        .unwrap();
        let baseline = autotune_doc(&[("dot", "nv", 100.0)]);
        let regressed = autotune_doc(&[("dot", "nv", 200.0)]);
        let outcome = check_reports(
            &explore_doc(100.0),
            &explore_doc(50.0),
            &baseline,
            &regressed,
            Some(&telemetry),
            0.25,
        )
        .unwrap();
        assert!(!outcome.passed());
        // Each failing check is followed by the informational breakdown line.
        assert!(outcome.lines.iter().any(|l| l.ok
            && l.message
                .contains("explore:dot_product phases: enumerate 90.0ms")));
        assert!(outcome
            .lines
            .iter()
            .any(|l| l.ok && l.message.contains("tune:dot phases: sample 700.0ms")));
        // Passing checks gain no breakdown lines.
        let outcome = check_reports(
            &explore_doc(100.0),
            &explore_doc(100.0),
            &baseline,
            &baseline,
            Some(&telemetry),
            0.25,
        )
        .unwrap();
        assert!(outcome.passed());
        assert!(!outcome.lines.iter().any(|l| l.message.contains("phases:")));
    }
}
