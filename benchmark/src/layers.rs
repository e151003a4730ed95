//! The stage-by-stage re-drive behind the per-layer metrics.
//!
//! After a request has been served, the benchmark repeats what the service did for it, one
//! public call at a time, with a span around every call: `tune_with`, then for every point of
//! the tuned trajectory `enumerate` (once per rule-option coordinate) and `Enumerated::score`,
//! then for every lowered candidate `to_program` + `infer_types`, `compile_program` and
//! `launch_sequence` (once per distinct kernel source, as the explorer does). A warm hit is
//! re-driven the same way from `cache_key` and `Enumerated::from_derivation`. The work is
//! deterministic, so the re-drive sees the same trajectory, candidates and kernels as the
//! request did; only the kernel inputs differ (the oracle's, of the same shape).

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashSet};

use lift_arith::Environment;
use lift_codegen::compile_program;
use lift_ir::infer_types;
use lift_rewrite::{enumerate, Enumerated, Exploration, ExplorationConfig, ExploreError};
use lift_service::{cache_key, Request, Response};
use lift_telemetry::{Collector, Null};
use lift_tuner::tune_with;
use lift_vgpu::{CostCounters, ExecutionRequest};

use crate::oracle::Oracle;
use crate::stats::timed;
use crate::trace::Tracer;

/// Counts gathered at the same boundaries as the spans. All of them repeat exactly for a
/// fixed set of re-driven requests.
#[derive(Default)]
pub struct Counts {
    pub cold_requests: usize,
    pub warm_requests: usize,
    pub points_evaluated: usize,
    pub enumerations: usize,
    pub enumeration_cache_hits: usize,
    pub infeasible_points: usize,
    /// Σ ln(first feasible point's time ÷ tuned best), one term per cold request.
    pub improvement_ln: f64,
    pub candidates_explored: usize,
    pub dedup_hits: usize,
    /// Lowered candidates, counted once per enumeration.
    pub lowered: usize,
    /// Lowered candidates that reached scoring, counted once per point.
    pub scored: usize,
    pub rejected: usize,
    pub programs_typed: usize,
    pub compile_attempts: usize,
    pub compile_rejected: usize,
    pub kernels_executed: usize,
    pub sim_ops: u64,
}

fn sim_ops(c: &CostCounters) -> u64 {
    c.flops + c.int_ops + c.div_mod_ops + c.global_accesses + c.local_accesses + c.private_accesses
}

fn rejected(e: &Exploration) -> usize {
    e.rejected_compile
        + e.rejected_incorrect
        + e.rejected_unsound
        + e.rejected_race
        + e.rejected_divergence
}

/// Typechecks, compiles and executes every lowered candidate of `enumerated` under `config`,
/// one span per call. `collector` receives the engine's fallback events.
fn stages(
    t: &mut Tracer,
    counts: &mut Counts,
    enumerated: &Enumerated,
    config: &ExplorationConfig,
    oracle: &Oracle,
    collector: &dyn Collector,
) {
    let options = config
        .compile_options
        .clone()
        .with_launch(config.launch.global, config.launch.local);
    let mut executed: HashSet<String> = HashSet::new();
    for (term, _) in enumerated.lowered_candidates() {
        counts.programs_typed += 1;
        let typed = t.span("ir.typecheck", |_| {
            let mut program = term.to_program();
            infer_types(&mut program).map(|()| program)
        });
        let Ok(program) = typed else { continue };
        counts.compile_attempts += 1;
        let compiled = t.span("codegen.compile", |_| {
            let compiled = compile_program(&program, &options).ok()?;
            let source = compiled.source();
            let (args, _) = compiled
                .bind_args(&oracle.buffers, &Environment::new())
                .ok()?;
            Some((compiled, source, args))
        });
        let Some((compiled, source, args)) = compiled else {
            counts.compile_rejected += 1;
            continue;
        };
        if !executed.insert(source) {
            continue;
        }
        counts.kernels_executed += 1;
        let result = t.span("vgpu.execute", |_| {
            ExecutionRequest::new(&compiled.module)
                .on_device(&config.device)
                .engine(config.engine)
                .race_detection(config.detect_races)
                .collector(collector)
                .launch_sequence(&compiled.launch_plan(config.launch), args)
        });
        // A kernel the detector stops has no counters; the explorer rejects it too.
        if let Ok(result) = result {
            counts.sim_ops += sim_ops(&result.merged_counters());
        }
    }
}

/// Re-drives the cold path of `request`: the whole search, then each of its stages.
pub fn redrive_cold(
    t: &mut Tracer,
    counts: &mut Counts,
    request: &Request,
    oracle: &Oracle,
    collector: &dyn Collector,
) -> Result<(), String> {
    counts.cold_requests += 1;
    let tuned = t
        .span("tuner.tune", |_| {
            tune_with(&request.program, &request.config, &Null)
        })
        .map_err(|e| format!("{}: {e}", request.name))?;
    counts.points_evaluated += tuned.points_evaluated;
    counts.enumerations += tuned.enumerations;
    counts.enumeration_cache_hits += tuned.enumeration_cache_hits;
    let first = tuned.trajectory.iter().find_map(|entry| entry.best_time);
    if let (Some(first), Some(best)) = (first, &tuned.best_variant) {
        counts.improvement_ln += (first / best.estimated_time).ln();
    }
    t.span("interp.reference", |_| {
        lift_interp::evaluate(&oracle.typed, &oracle.values)
    })
    .map_err(|e| format!("{}: {e}", request.name))?;

    let mut enumerations: BTreeMap<(usize, usize, usize), Enumerated> = BTreeMap::new();
    let mut counted: HashSet<(usize, usize, usize)> = HashSet::new();
    for entry in &tuned.trajectory {
        if entry.best_time.is_none() {
            counts.infeasible_points += 1;
        }
        let index = entry.point.index;
        let coordinate = (index.split_set, index.width_set, index.tile_set);
        let config = ExplorationConfig {
            rule_options: entry.point.rule_options.clone(),
            launch: entry.point.launch,
            device: request.config.device.clone(),
            ..request.config.base.clone()
        };
        let enumerated = match enumerations.entry(coordinate) {
            Entry::Occupied(found) => found.into_mut(),
            Entry::Vacant(slot) => {
                let enumerated = t
                    .span("rewrite.enumerate", |_| {
                        enumerate(&request.program, &config)
                    })
                    .map_err(|e| format!("{}: {e}", request.name))?;
                counts.lowered += enumerated.lowered();
                slot.insert(enumerated)
            }
        };
        let scored = match t.span("rewrite.score", |_| enumerated.score(&config)) {
            Ok(scored) => scored,
            // A launch the device refuses: the tuner records it as an infeasible point.
            Err(ExploreError::Launch(_)) => continue,
            Err(e) => return Err(format!("{}: {e}", request.name)),
        };
        // Every score of one enumeration repeats that search's statistics: count them once.
        if counted.insert(coordinate) {
            counts.candidates_explored += scored.explored;
            counts.dedup_hits += scored.dedup_hits;
        }
        counts.scored += scored.lowered;
        counts.rejected += rejected(&scored);
        t.span("rewrite.stages", |t| {
            stages(t, counts, enumerated, &config, oracle, collector);
        });
    }
    Ok(())
}

/// Re-drives the warm path of `request` for the derivation the service served.
pub fn redrive_warm(
    t: &mut Tracer,
    counts: &mut Counts,
    request: &Request,
    response: &Response,
    oracle: &Oracle,
    collector: &dyn Collector,
) -> Result<(), String> {
    counts.warm_requests += 1;
    t.span("service.cache_key", |_| {
        cache_key(
            &request.program,
            &request.config.device.name,
            &request.config.space,
            lift_rewrite::RULE_SET_VERSION,
            lift_vgpu::COST_MODEL_VERSION,
        )
    })
    .map_err(|e| format!("{}: {e}", request.name))?;
    let config = ExplorationConfig {
        rule_options: response.rule_options.clone(),
        launch: response.launch,
        device: request.config.device.clone(),
        ..request.config.base.clone()
    };
    // `from_derivation` evaluates the reference itself; the separate `interp.reference`
    // span sizes that part and is not added to the attributed total a second time.
    let enumerated = t
        .span("rewrite.replay", |_| {
            Enumerated::from_derivation(&request.program, &response.variant.steps, &config)
        })
        .map_err(|e| format!("{}: {e}", request.name))?;
    t.span("interp.reference", |_| {
        lift_interp::evaluate(&oracle.typed, &oracle.values)
    })
    .map_err(|e| format!("{}: {e}", request.name))?;
    let scored = t
        .span("rewrite.score", |_| enumerated.score(&config))
        .map_err(|e| format!("{}: {e}", request.name))?;
    counts.lowered += enumerated.lowered();
    counts.scored += scored.lowered;
    counts.rejected += rejected(&scored);
    t.span("rewrite.stages", |t| {
        stages(t, counts, &enumerated, &config, oracle, collector);
    });
    Ok(())
}

/// Host time of the served kernel with the race detector on and off: `(on_ms, off_ms)`, each
/// the fastest of five launches.
pub fn race_detector_cost(
    request: &Request,
    response: &Response,
    oracle: &Oracle,
) -> Result<(f64, f64), String> {
    let (compiled, args, _) = oracle.compile_served(request, response)?;
    let plan = compiled.launch_plan(response.launch);
    let fastest = |detect: bool| -> Result<f64, String> {
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let (result, ms) = timed(|| {
                ExecutionRequest::new(&compiled.module)
                    .on_device(&request.config.device)
                    .engine(request.config.base.engine)
                    .race_detection(detect)
                    .launch_sequence(&plan, args.clone())
            });
            result.map_err(|e| format!("{}: {e}", request.name))?;
            best = best.min(ms);
        }
        Ok(best)
    };
    Ok((fastest(true)?, fastest(false)?))
}
