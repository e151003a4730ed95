//! The tuning driver: walks a [`TuningSpace`] with a [`Strategy`], evaluating every visited
//! `(RuleOptions, LaunchConfig)` point through the two-phase exploration API and tracking
//! the best validated variant.
//!
//! Evaluation of one point runs `rewrite` (rule search) → `codegen` (compilation with the
//! point's launch threaded into the [`CompilationOptions`]) → `vgpu` (execution, correctness
//! validation against the interpreter, cost counters) → the device cost model. Points that
//! share rule options share one [`Enumerated`] candidate set — the launch only affects
//! scoring — so a launch sweep re-uses the rule search instead of repeating it.
//!
//! A run is one [`Search`]: the program is typed and its reference output evaluated once,
//! and every point goes through the search's two memos, each keyed by what the memoised
//! computation *read* — which is what makes recalling exact instead of approximate:
//!
//! * a rule application depends on the [`lift_rewrite::RuleOptions`] only through the lists
//!   the rule reads, so the rule search for another coordinate judges again only the
//!   applications that read a list which differs, and recalls the rest — terms name for
//!   name what it would derive itself;
//! * code generation depends on the launch only through a handful of comparisons, so a
//!   candidate compiled at one point is compiled again only under a launch that answers one
//!   of them differently, and a kernel launch that an earlier point executed and validated
//!   is not executed again (one an earlier point pruned runs again only where its cost
//!   bound does not rule it out of the point's best variants).
//!
//! Trajectories, winners and costs are those of a run through a fresh search per point
//! (`tests/score_memo_differential.rs`); [`TuningResult`] says how much was worked out and
//! how much recalled.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use lift_codegen::CompilationOptions;
use lift_ir::Program;
use lift_rewrite::{Enumerated, Exploration, ExplorationConfig, ExploreError, Search, Variant};
use lift_telemetry::{Collector, Event, Null};
use lift_vgpu::DeviceProfile;

use crate::search::{drive, Strategy};
use crate::space::{PointIndex, TuningPoint, TuningSpace};

/// Renders a tuning point compactly for telemetry events, e.g.
/// `splits=[2, 4] widths=[4] tiles=[] launch=64x16`.
pub(crate) fn point_label(point: &TuningPoint) -> String {
    format!(
        "splits={:?} widths={:?} tiles={:?} launch={}",
        point.rule_options.split_sizes,
        point.rule_options.vector_widths,
        point.rule_options.tile_sizes,
        launch_label(&point.launch)
    )
}

fn launch_label(launch: &lift_vgpu::LaunchConfig) -> String {
    let dims = |d: [usize; 3]| {
        let mut s = d[0].to_string();
        for v in &d[1..] {
            if *v > 1 {
                s.push('x');
                s.push_str(&v.to_string());
            }
        }
        s
    };
    format!("{}/{}", dims(launch.global), dims(launch.local))
}

/// Errors from the tuning driver.
#[derive(Clone, Debug)]
pub enum TuneError {
    /// The tuning space contains no points.
    EmptySpace,
    /// The underlying exploration rejected the input program.
    Explore(ExploreError),
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::EmptySpace => write!(f, "the tuning space contains no points"),
            TuneError::Explore(e) => write!(f, "exploration failed: {e}"),
        }
    }
}

impl std::error::Error for TuneError {}

impl From<ExploreError> for TuneError {
    fn from(e: ExploreError) -> Self {
        TuneError::Explore(e)
    }
}

/// Everything the tuner needs: the target device, the space, the strategy and the base
/// exploration budgets (whose `rule_options`, `launch`, `device` and `compile_options`
/// launch sizes are overridden per point).
#[derive(Clone, Debug)]
pub struct TuningConfig {
    /// The device profile tuned for (cost model, launch limits).
    pub device: DeviceProfile,
    /// The grid of candidate rule options and launches.
    pub space: TuningSpace,
    /// How the grid is walked.
    pub strategy: Strategy,
    /// Search budgets and execution options shared by every point (depth, beam, candidate
    /// cap, threads, sizes, race detection, and the virtual-GPU engine selection — every
    /// point's scoring runs on `base.engine`).
    pub base: ExplorationConfig,
}

impl TuningConfig {
    /// A configuration with the default exploration budgets, compiler options derived from
    /// the device ([`CompilationOptions::for_device`]) and the given space and strategy.
    pub fn new(device: DeviceProfile, space: TuningSpace, strategy: Strategy) -> TuningConfig {
        let base = ExplorationConfig {
            compile_options: CompilationOptions::for_device(&device),
            device: device.clone(),
            ..ExplorationConfig::default()
        };
        TuningConfig {
            device,
            space,
            strategy,
            base,
        }
    }
}

/// The best validated variant found at the best point.
#[derive(Clone, Debug, PartialEq)]
pub struct BestVariant {
    /// Estimated execution time under the tuned device's cost model.
    pub estimated_time: f64,
    /// The derivation chain (`rule @ location` per step), human-readable.
    pub derivation: Vec<String>,
    /// The structured derivation chain behind [`BestVariant::derivation`], replayable
    /// through [`lift_rewrite::replay`]. The derivation-service cache persists these so a
    /// warm hit reconstructs the exact variant without re-searching.
    pub steps: Vec<lift_rewrite::DerivationStep>,
    /// The generated OpenCL kernel source.
    pub kernel_source: String,
}

impl From<&Variant> for BestVariant {
    fn from(v: &Variant) -> BestVariant {
        let chain = v.derivation.iter();
        BestVariant {
            estimated_time: v.estimated_time,
            derivation: chain
                .map(|s| format!("{} @ {}", s.rule, s.location))
                .collect(),
            steps: v.derivation.clone(),
            kernel_source: v.kernel_source.clone(),
        }
    }
}

/// One evaluated point, in evaluation order.
#[derive(Clone, Debug, PartialEq)]
pub struct TrajectoryEntry {
    /// The evaluated point.
    pub point: TuningPoint,
    /// Estimated time of the point's best validated variant (`None`: no variant survived).
    pub best_time: Option<f64>,
    /// Fully lowered candidates the point's exploration produced.
    pub lowered: usize,
    /// Validated variants the point's exploration returned.
    pub variants: usize,
    /// Whether this point improved on every earlier point.
    pub improved: bool,
}

/// The outcome of one tuning run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TuningResult {
    /// Name of the tuned device profile.
    pub device: String,
    /// The best point found, if any point produced a validated variant.
    pub best_point: Option<TuningPoint>,
    /// The best variant at [`TuningResult::best_point`].
    pub best_variant: Option<BestVariant>,
    /// Every distinct evaluated point, in evaluation order.
    pub trajectory: Vec<TrajectoryEntry>,
    /// Number of distinct points evaluated.
    pub points_evaluated: usize,
    /// Rule searches actually run (one per distinct `RuleOptions` visited).
    pub enumerations: usize,
    /// Point evaluations that re-used a cached rule search.
    pub enumeration_cache_hits: usize,
    /// Kernel launches the run started on the virtual GPU, pruned ones included: each
    /// distinct launch once however many points needed it, unless a point had to run a
    /// launch an earlier point pruned again. Every launch that was not pruned was executed
    /// to completion and validated.
    pub kernels_executed: usize,
    /// Kernel launches points needed whose verdict an earlier point of the run had already
    /// measured, recalled instead of executed.
    pub kernels_reused: usize,
    /// Of [`TuningResult::kernels_executed`], the launches stopped early: their partial
    /// counters proved them slower than the point's `best_n` best known times, so they could
    /// not change the point's result ([`lift_rewrite::Exploration::pruned_kernels`]).
    pub kernels_pruned: usize,
    /// Rows of launches that completed or were pruned: the lock-step rows the started
    /// launches executed, summed over the run's points
    /// ([`lift_rewrite::Exploration::rows_simulated`]) — the exact simulation work behind
    /// [`TuningResult::kernels_executed`]. A launch that fails with an execution error
    /// counts none.
    pub rows_simulated: u64,
    /// Rewrites the run's rule searches judged: a rule applied, the result spliced in,
    /// normalised and type-checked.
    pub rewrites_judged: usize,
    /// Rewrites whose outcome an earlier rule search of the run had recorded under the same
    /// contents of the option lists the rule reads, recalled instead of judged.
    pub rewrites_recalled: usize,
    /// Lowered candidates the run's points compiled.
    pub candidates_compiled: usize,
    /// Lowered candidates whose compile outcome an earlier point had recorded under a launch
    /// that answers the code generator's questions the same way, recalled instead of
    /// compiled.
    pub compiles_recalled: usize,
}

struct Evaluator<'a> {
    config: &'a TuningConfig,
    collector: &'a dyn Collector,
    /// The program's search, shared by every point of the run.
    search: Search,
    /// One rule search per `(split_set, width_set, tile_set)` — launches share it.
    enumerated: HashMap<(usize, usize, usize), Enumerated>,
    /// Memoised objective per visited index (strategies may revisit).
    memo: HashMap<PointIndex, Option<f64>>,
    result: TuningResult,
}

impl Evaluator<'_> {
    fn eval(&mut self, index: PointIndex) -> Result<Option<f64>, TuneError> {
        if let Some(cached) = self.memo.get(&index) {
            return Ok(*cached);
        }
        let point = self.config.space.point(index);
        let key = (index.split_set, index.width_set, index.tile_set);
        // `config.launch` is the single source of the launch: scoring threads it into the
        // compiler options itself (see `ExplorationConfig::compile_options`).
        let config = ExplorationConfig {
            rule_options: point.rule_options.clone(),
            launch: point.launch,
            device: self.config.device.clone(),
            ..self.config.base.clone()
        };
        let result = &mut self.result;
        let cache_hit = self.enumerated.contains_key(&key);
        let enumerated = match self.enumerated.entry(key) {
            Entry::Occupied(found) => found.into_mut(),
            Entry::Vacant(slot) => slot.insert(self.search.enumerate(&config, self.collector)?),
        };
        result.enumeration_cache_hits += usize::from(cache_hit);
        result.enumerations += usize::from(!cache_hit);
        let scored = match self.search.score(enumerated, &config, self.collector) {
            Ok(scored) => scored,
            // A launch the device rejects is an infeasible point, not a failed tuning run.
            Err(ExploreError::Launch(_)) => Exploration::default(),
            Err(e) => return Err(e.into()),
        };
        let best = scored.variants.first();
        let best_time = best.map(|v| v.estimated_time);
        let improved = best.filter(|v| {
            let so_far = result.best_variant.as_ref();
            so_far.is_none_or(|b| v.estimated_time < b.estimated_time)
        });
        if let Some(v) = improved {
            result.best_point = Some(point.clone());
            result.best_variant = Some(BestVariant::from(v));
        }
        let executed = scored.executed_kernels - scored.reused_kernels;
        result.kernels_executed += executed;
        result.kernels_reused += scored.reused_kernels;
        result.kernels_pruned += scored.pruned_kernels;
        result.rows_simulated += scored.rows_simulated;
        result.candidates_compiled += scored.lowered - scored.reused_compiles;
        result.compiles_recalled += scored.reused_compiles;
        if self.collector.enabled() {
            self.collector.record(Event::TunerPoint {
                index: result.points_evaluated as u32,
                point: point_label(&point),
                best_time,
                lowered: scored.lowered as u32,
                variants: scored.variants.len() as u32,
                improved: improved.is_some(),
                cache_hit,
                kernels_executed: executed as u32,
                kernels_reused: scored.reused_kernels as u32,
                kernels_pruned: scored.pruned_kernels as u32,
            });
        }
        result.points_evaluated += 1;
        result.trajectory.push(TrajectoryEntry {
            point,
            best_time,
            lowered: scored.lowered,
            variants: scored.variants.len(),
            improved: improved.is_some(),
        });
        self.memo.insert(index, best_time);
        Ok(best_time)
    }
}

/// Tunes `program` over `config.space` and returns the best `(RuleOptions, LaunchConfig)`
/// point, its best variant, and the full evaluation trajectory.
///
/// # Errors
///
/// Returns [`TuneError::EmptySpace`] for an empty space and [`TuneError::Explore`] when the
/// input program itself is invalid (an individual infeasible point is recorded in the
/// trajectory instead).
pub fn tune(program: &Program, config: &TuningConfig) -> Result<TuningResult, TuneError> {
    tune_with(program, config, &Null)
}

/// Like [`tune`], but emits the search trajectory to `collector`: one `TunerPoint` event per
/// evaluated point (its config, objective, accept/reject and enumeration-cache status),
/// `sample`/`climb` phase spans and one `TunerMove` event per accepted hill-climb move —
/// plus everything the underlying explorations emit. With the default
/// [`lift_telemetry::Null`] collector this is exactly [`tune`].
///
/// # Errors
///
/// See [`tune`].
pub fn tune_with(
    program: &Program,
    config: &TuningConfig,
    collector: &dyn Collector,
) -> Result<TuningResult, TuneError> {
    if config.space.is_empty() {
        return Err(TuneError::EmptySpace);
    }
    let mut evaluator = Evaluator {
        config,
        collector,
        search: Search::new(program, &config.base.sizes, collector)?,
        enumerated: HashMap::new(),
        memo: HashMap::new(),
        result: TuningResult {
            device: config.device.name.clone(),
            ..TuningResult::default()
        },
    };
    drive(
        &config.strategy,
        &config.space,
        &mut |index| evaluator.eval(index),
        &|index| point_label(&config.space.point(index)),
        collector,
    )?;
    evaluator.result.rewrites_judged = evaluator.search.rewrites_judged();
    evaluator.result.rewrites_recalled = evaluator.search.rewrites_recalled();
    Ok(evaluator.result)
}
