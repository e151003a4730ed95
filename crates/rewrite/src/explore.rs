//! Cost-guided exploration of the rewrite space.
//!
//! Starting from a (typically high-level) program, the driver repeatedly applies rewrite
//! rules at every site under a depth/width budget and keeps a beam of the most promising
//! candidates (those with the fewest remaining high-level patterns, then the smallest).
//! Fully lowered candidates are compiled with `lift-codegen`, executed on the `lift-vgpu`
//! virtual GPU with deterministic inputs, checked against the reference interpreter's result
//! for the *original* program (the rules are semantics-preserving, so any disagreement
//! disqualifies a variant), and scored with the analytical cost model of the selected
//! [`DeviceProfile`]. The best `N` variants are returned together with their derivation
//! chains, ready for code generation.
//!
//! All of it happens on a [`Search`]; [`explore`], [`enumerate`], [`Enumerated::score`] and
//! [`Enumerated::from_derivation`] are one-shot wrappers over a throwaway one.
//!
//! # The hot path
//!
//! Exploration throughput is what every auto-tuning feature multiplies, so the driver is
//! built to touch each candidate as lightly as possible:
//!
//! * candidates are deduped by an 8-byte canonical structural hash ([`Term::dedup_key`])
//!   instead of retaining full pretty-printed renderings,
//! * candidates are type-checked directly on the tree form ([`crate::typecheck()`]); the
//!   arena conversion and `infer_types` run only for the few candidates that reach scoring,
//! * a rule application is judged once per [`Search`] and content of the option lists it
//!   read, not once per enumeration: [`Search::enumerate`] goes through a rewrite memo that
//!   records, per term and `(site, rule)`, the outcomes together with the
//!   [`RuleOptions`] lists the rule was handed, and a later enumeration under other options
//!   judges again only where such a list differs — the beam search itself runs unchanged
//!   over recalled and judged outcomes, so its results are those of a fresh search,
//! * a candidate carries no derivation chain through the search: the memo's nodes know how
//!   they were derived, and a chain is written out only for a fully lowered candidate,
//! * frontier expansion fans out over [`std::thread::scope`] workers
//!   ([`ExplorationConfig::threads`]) with a deterministic in-order merge, so results are
//!   identical to the sequential run,
//! * a launch the virtual GPU has already run — several derivations frequently lower to
//!   byte-identical OpenCL, and an auto-tuner meets the same candidates at many of its
//!   points — is never run again, and a candidate is compiled once per *answer* the launch
//!   gives the code generator, not once per launch: [`Search::score`] goes through a score
//!   memo that recalls the first verdict and keeps the compiled program, from which every
//!   later launch and returned variant of the candidate is built,
//! * scoring is branch and bound: every launch is counted before any runs
//!   ([`ExecutionRequest::static_counters`]), and launches run cheapest count first, each
//!   under a budget ([`ExecutionRequest::budget`]) of the [`ExplorationConfig::best_n`]-th
//!   best time known so far. The virtual GPU stops one as soon as its count or its partial
//!   counters prove it cannot beat that time — before its first row where the count is
//!   exact — so it could not be returned, and winners and their order are those of running
//!   it to the end ([`Exploration::pruned_kernels`]), and
//! * beam selection keeps the best `beam_width` candidates with a bounded binary heap
//!   instead of sorting the whole frontier expansion.

use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::{Arc, OnceLock};

use lift_arith::Environment;
use lift_codegen::{
    compile_program_traced, CodegenError, CompilationOptions, CompiledProgram, KernelStage,
    LaunchTrace,
};
use lift_interp::{evaluate_with_sizes, Value};
use lift_ir::{infer_types, Program, Type, TypeError};
use lift_telemetry::{Collector, Event, Null, RejectReason, SoundnessIncident, SoundnessReport};
use lift_vgpu::{
    estimated_sequence_time, outputs_match, CostCounters, DeviceProfile, EngineSelection,
    ExecutionProfile, ExecutionRequest, KernelArg, LaunchConfig, LaunchError, StaticCount,
    VgpuError,
};

use crate::memo::{NodeId, Outcome, OutcomeKind, RewriteMemo, ROOT};
use crate::rules::{RuleKind, RuleOptions};
use crate::term::{StableHasher, Term, TermError};
use crate::traversal::Location;

/// The 8-byte candidate-dedup key (see [`Term::dedup_key`]). The `seen` set of an
/// exploration holds one of these per enumerated distinct candidate — nothing else — which
/// bounds its payload memory to `8 bytes × candidates`.
pub type DedupKey = u64;

/// Budgets and knobs for the exploration.
#[derive(Clone, Debug)]
pub struct ExplorationConfig {
    /// Maximum number of rewrite steps per derivation.
    pub max_depth: usize,
    /// Maximum number of candidates carried from one depth level to the next.
    pub beam_width: usize,
    /// Hard cap on the total number of candidates ever enumerated.
    pub max_candidates: usize,
    /// Maximum term size (node count) a candidate may reach.
    pub max_term_size: usize,
    /// Numeric knobs for the parameterised rules.
    pub rule_options: RuleOptions,
    /// How many best variants to return.
    pub best_n: usize,
    /// The launch configuration candidates are compiled for and executed with.
    pub launch: LaunchConfig,
    /// Compiler optimisation toggles (the launch sizes are overwritten from `launch`).
    pub compile_options: CompilationOptions,
    /// The device profile whose cost model ranks the variants.
    pub device: DeviceProfile,
    /// Bindings for symbolic sizes (empty for fully constant programs); one per [`Search`].
    pub sizes: Environment,
    /// Worker threads for frontier expansion: `0` uses the machine's available parallelism,
    /// `1` runs sequentially. The merge is deterministic, so every setting produces identical
    /// results. Scoring runs on the calling thread, in candidate order.
    pub threads: usize,
    /// Emit one [`Event::Rejection`] per rejected rewrite (with its rendered site) to the
    /// collector. Off by default: rejection sites are rendered per rejected candidate, which
    /// is the kind of per-event allocation the hot path otherwise never pays. Has no effect
    /// under a disabled collector.
    pub trace_rejections: bool,
    /// Execute candidates under the virtual GPU's shadow-memory data-race detector
    /// ([`ExecutionRequest::race_detection`]), so a racy candidate that the static
    /// parallelism-ownership pass missed is rejected as a typed
    /// [`SoundnessIncident::DataRace`] instead of (at best) a silent wrong-output
    /// rejection. On by default: a launch is executed once per [`Search`] (see
    /// [`Exploration::executed_kernels`]), so the per-access shadow bookkeeping is paid a
    /// handful of times per search, not per candidate.
    pub detect_races: bool,
    /// Which virtual-GPU execution tier scores the candidates
    /// ([`ExecutionRequest::engine`]). The default [`EngineSelection::Auto`] runs the
    /// bytecode tier (falling back to the interpreter per launch on unsupported
    /// constructs, reported as [`Event::EngineFallback`] telemetry); results are
    /// byte-identical across tiers, so this knob only trades throughput.
    pub engine: EngineSelection,
}

impl Default for ExplorationConfig {
    fn default() -> Self {
        ExplorationConfig {
            max_depth: 6,
            beam_width: 64,
            max_candidates: 4000,
            max_term_size: 200,
            rule_options: RuleOptions::default(),
            best_n: 3,
            launch: LaunchConfig::d1(64, 16),
            compile_options: CompilationOptions::all_optimisations(),
            device: DeviceProfile::nvidia(),
            sizes: Environment::new(),
            threads: 0,
            trace_rejections: false,
            detect_races: true,
            engine: EngineSelection::Auto,
        }
    }
}

/// One applied rule in a derivation chain.
///
/// A step carries full provenance: the structured [`Location`] of the rewrite site and the
/// index of the chosen rewrite among everything the rule offered there, so a recorded chain
/// can be replayed through the engine ([`crate::provenance::replay`]) to reproduce the exact
/// variant term, or rendered as a human-readable transcript ([`crate::provenance::explain`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DerivationStep {
    /// The rule name.
    pub rule: &'static str,
    /// The rule family.
    pub kind: RuleKind,
    /// Where it was applied (rendered with [`crate::traversal::format_location`]).
    pub location: String,
    /// The structured location of the rewrite site (what [`DerivationStep::location`]
    /// renders).
    pub path: Location,
    /// Index of the chosen rewrite among the rule's applications at the site (parameterised
    /// rules offer one rewrite per option, e.g. per dividing split factor).
    pub alternative: usize,
}

/// A fully lowered, compiled, validated and scored variant.
#[derive(Clone, Debug)]
pub struct Variant {
    /// The derived low-level program (typechecked).
    pub program: Program,
    /// The rules that produced it, in application order.
    pub derivation: Vec<DerivationStep>,
    /// The generated OpenCL source of the whole module (one kernel per stage).
    pub kernel_source: String,
    /// Number of kernels the program compiled to (1 for ordinary single-kernel variants;
    /// more when global-memory intermediates split the program into a sequence).
    pub kernel_count: usize,
    /// Dynamic cost counters summed over all stages of the virtual-GPU execution.
    pub counters: CostCounters,
    /// Per-stage cost counters of the virtual-GPU execution, in launch order (one entry per
    /// kernel; parallel to `stage_names`).
    pub stage_counters: Vec<CostCounters>,
    /// Kernel names in launch order (parallel to `stage_counters`).
    pub stage_names: Vec<String>,
    /// Estimated execution time under the configured device profile (lower is better):
    /// per-stage work–span times summed plus one launch overhead per kernel.
    pub estimated_time: f64,
}

impl Variant {
    /// The structured per-stage execution profile of the variant under `device` — the same
    /// counters and time model that produced [`Variant::estimated_time`], broken down per
    /// kernel stage and cost component instead of collapsed into one number.
    pub fn profile(&self, device: &DeviceProfile) -> ExecutionProfile {
        ExecutionProfile::from_stages(&self.stage_names, &self.stage_counters, device)
    }
}

/// Statistics and results of one exploration.
#[derive(Clone, Debug, Default)]
pub struct Exploration {
    /// The validated variants, best (lowest estimated time) first.
    pub variants: Vec<Variant>,
    /// Total candidates enumerated (including rejected ones).
    pub explored: usize,
    /// Candidates rejected because the derived program failed to re-typecheck.
    pub rejected_typecheck: usize,
    /// Well-typed candidates discarded as structural duplicates of earlier ones.
    pub dedup_hits: usize,
    /// Fully lowered candidates that failed to compile.
    pub rejected_compile: usize,
    /// Fully lowered candidates whose execution disagreed with the interpreter.
    pub rejected_incorrect: usize,
    /// Candidates rejected statically by the parallelism-ownership pass (a shared buffer
    /// written at a finer parallelism level than its owner). The incidents are in
    /// [`Exploration::soundness`].
    pub rejected_unsound: usize,
    /// Candidates rejected because the shadow-memory detector observed a data race during
    /// execution (only under [`ExplorationConfig::detect_races`]). The incidents are in
    /// [`Exploration::soundness`].
    pub rejected_race: usize,
    /// Candidates rejected because a barrier was reached by only part of a work group.
    /// The incidents are in [`Exploration::soundness`].
    pub rejected_divergence: usize,
    /// The typed incident behind every soundness rejection (static ownership violations
    /// and dynamic races/divergences), for machine-readable reporting.
    pub soundness: SoundnessReport,
    /// Distinct fully lowered candidates that reached scoring.
    pub lowered: usize,
    /// Distinct launches (kernel source + arguments + launch plan) this scoring pass needed
    /// a verdict for; candidates that lower to the same launch share one.
    pub executed_kernels: usize,
    /// How many of [`Exploration::executed_kernels`] were recalled from the [`Search`]'s score
    /// memo instead of run: the virtual GPU started `executed_kernels - reused_kernels`
    /// launches in this pass, pruned ones included. Always 0 under a fresh memo
    /// ([`Enumerated::score`]).
    pub reused_kernels: usize,
    /// How many of the launches started in this pass were pruned: stopped once their
    /// partial counters proved an estimated time above the [`ExplorationConfig::best_n`]-th
    /// best time already known among the pass's candidates, so none of their candidates
    /// could be returned. Pruned candidates are neither variants nor rejections. Always 0
    /// under `best_n = usize::MAX`.
    pub pruned_kernels: usize,
    /// Rows of launches that completed or were pruned: the lock-step rows the launches
    /// started in this pass executed on the virtual GPU. A completed launch counts every row
    /// of every stage, a pruned one its finished stages and the stopped stage up to the row
    /// it stopped at (none if its static bound stopped it before the first row). A launch
    /// that fails with an execution error (a race, a divergent barrier, an out-of-bounds
    /// access) counts none.
    pub rows_simulated: u64,
    /// Candidates whose compile outcome was recalled from the [`Search`]'s score memo,
    /// skipping type inference and code generation — recorded under this launch or under any
    /// other that answers the generator's questions the same way
    /// ([`LaunchTrace::holds_for`]). A launch such a candidate must run, and the variant it
    /// may become, are built from the program the memo kept. Always 0 under a fresh memo.
    pub reused_compiles: usize,
}

/// Errors from the exploration driver.
#[derive(Clone, Debug)]
pub enum ExploreError {
    /// Converting the input program to tree form failed.
    Term(TermError),
    /// The input program does not typecheck.
    Type(TypeError),
    /// The reference interpreter could not evaluate the input program.
    Reference(String),
    /// The configured launch is invalid for the configured device profile.
    Launch(LaunchError),
    /// Scoring was asked to bind other symbolic sizes than the ones the [`Search`] generated
    /// its inputs and reference output under.
    Sizes,
    /// Replaying a recorded derivation chain failed (see [`Search::replay`]).
    Replay(crate::provenance::ReplayError),
    /// An invariant of a [`Search`]'s rewrite or score memo does not hold.
    Memo(&'static str),
    /// A rule-expansion worker thread panicked; the enumeration it belonged to is lost.
    WorkerPanicked,
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::Term(e) => write!(f, "cannot build rewrite term: {e}"),
            ExploreError::Type(e) => write!(f, "input program does not typecheck: {e}"),
            ExploreError::Reference(e) => write!(f, "reference evaluation failed: {e}"),
            ExploreError::Launch(e) => {
                write!(f, "launch configuration is invalid for the device: {e}")
            }
            ExploreError::Sizes => {
                write!(f, "sizes differ from the ones the search was built under")
            }
            ExploreError::Replay(e) => write!(f, "derivation replay failed: {e}"),
            ExploreError::Memo(what) => write!(f, "inconsistent search memo: {what}"),
            ExploreError::WorkerPanicked => write!(f, "a rule-expansion worker thread panicked"),
        }
    }
}

impl std::error::Error for ExploreError {}

impl From<TermError> for ExploreError {
    fn from(e: TermError) -> Self {
        ExploreError::Term(e)
    }
}

impl From<TypeError> for ExploreError {
    fn from(e: TypeError) -> Self {
        ExploreError::Type(e)
    }
}

impl From<crate::provenance::ReplayError> for ExploreError {
    fn from(e: crate::provenance::ReplayError) -> Self {
        ExploreError::Replay(e)
    }
}

/// The content-address identity of a program, as used by the derivation-service cache.
///
/// The 8-byte [`Term::dedup_key`] is the lookup address; the full canonical rendering is
/// stored alongside it and compared on every hit so a (vanishingly unlikely) 64-bit hash
/// collision degrades to a cache miss instead of serving the wrong derivation. The
/// [`Term::skeleton`] is the coarser similarity key used to warm-start tuner searches from
/// structurally related workloads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CanonicalKey {
    /// The 8-byte canonical structural hash ([`Term::dedup_key`]).
    pub hash: DedupKey,
    /// The full canonical rendering ([`Term::pretty`]) guarding `hash` against collisions.
    pub rendering: String,
    /// The high-level pattern skeleton ([`Term::skeleton`]).
    pub skeleton: String,
}

/// Types `program` and converts it to the term every search of it starts from. This is the
/// one normalisation: a program is keyed ([`canonical_key`]), searched ([`Search::new`]) and
/// replayed ([`crate::provenance::replay`]) from the same root.
pub(crate) fn typed_root<E: From<TypeError> + From<TermError>>(
    program: &Program,
) -> Result<(Program, Term), E> {
    let mut typed = program.clone();
    infer_types(&mut typed)?;
    let root = Term::from_program(&typed)?;
    Ok((typed, root))
}

/// Computes the [`CanonicalKey`] of a program from the root a [`Search`] of it starts from,
/// so a program hashes identically whether it is keyed for the cache or searched.
///
/// # Errors
///
/// Returns [`ExploreError::Type`] / [`ExploreError::Term`] when the program does not
/// typecheck or cannot be converted to tree form.
pub fn canonical_key(program: &Program) -> Result<CanonicalKey, ExploreError> {
    let (_, root) = typed_root::<ExploreError>(program)?;
    Ok(CanonicalKey {
        hash: root.dedup_key(),
        rendering: root.pretty(),
        skeleton: root.skeleton(),
    })
}

/// A fully lowered candidate as scoring sees it. The term and the derivation chain are the
/// ones the search's [`RewriteMemo`] holds for the node, built once and shared by every
/// enumeration that reaches it.
#[derive(Clone, Debug)]
pub(crate) struct Candidate {
    pub(crate) term: Arc<Term>,
    pub(crate) steps: Arc<[DerivationStep]>,
    /// Cached [`Term::dedup_key`]: the enumeration's dedup key and the candidate half of the
    /// [`ScoreMemo`] compile key.
    pub(crate) key: DedupKey,
}

/// One program searched at one binding of its symbolic sizes: the typed root term, the
/// inputs and reference output every candidate is validated against, and two memos.
///
/// Rewriting depends on the program and the search knobs of an [`ExplorationConfig`] only,
/// never on the launch or device, and the reference on the program and `sizes` only, so one
/// `Search` serves a whole auto-tuning run. [`Search::enumerate`] judges a rule application
/// once per distinct content of the [`RuleOptions`] lists it read; [`Search::score`] compiles
/// a candidate once per answer the launch gives the code generator and executes (and
/// validates) each distinct launch once, or until it is pruned. Both return the candidates
/// and variants a throwaway `Search` returns; the counters of what was recalled, and the
/// verdicts on candidates that could not have been returned (a launch pruned under one bar
/// may run to a rejection under another), can differ. Nothing in a search is persisted.
///
/// A search may outlive the run it was made for. The derivation service keeps the one a
/// cache hit was proven with beside its entry, so the next hit on that entry replays and
/// scores on it: the score memo recalls the candidate's compilation and its launch's
/// verdict, and the hit compiles and executes nothing while it still replays and types its
/// candidate and prints its source from the kept program.
#[derive(Debug)]
pub struct Search {
    data: Arc<ScoreData>,
    pub(crate) rewrites: RewriteMemo,
    scores: ScoreMemo,
}

impl Search {
    /// Types `program`, converts it to the search root, and generates the inputs and the
    /// reference output under `sizes` inside an `interp.reference` span.
    ///
    /// # Errors
    ///
    /// [`ExploreError::Type`] / [`ExploreError::Term`] for a program that does not type or
    /// convert, [`ExploreError::Reference`] if the interpreter cannot evaluate it.
    pub fn new(
        program: &Program,
        sizes: &Environment,
        collector: &dyn Collector,
    ) -> Result<Search, ExploreError> {
        let (typed, root) = typed_root::<ExploreError>(program)?;
        collector.span_begin("interp.reference");
        let data = ScoreData::generate(&typed, sizes);
        collector.span_end("interp.reference");
        Ok(Search {
            rewrites: RewriteMemo::new(root),
            data: Arc::new(data?),
            scores: ScoreMemo::default(),
        })
    }

    /// The size bindings this search's inputs and reference output were generated under:
    /// the only ones [`Search::score`] accepts.
    pub fn sizes(&self) -> &Environment {
        &self.data.sizes
    }

    /// Hash over this search's generated inputs and reference output.
    pub fn fingerprint(&self) -> u64 {
        self.data.fingerprint
    }

    /// Runs the rule search under the search knobs of `config`, collecting every fully
    /// lowered candidate. Emits an `enumerate` span, one [`Event::BeamRound`] (+ per-rule
    /// [`Event::RuleRound`]s) per depth level and, under
    /// [`ExplorationConfig::trace_rejections`], one [`Event::Rejection`] per rejected rewrite,
    /// all from the sequential merge: deterministic for any thread count.
    ///
    /// # Errors
    ///
    /// [`ExploreError::Memo`] and [`ExploreError::Replay`] report a memo that contradicts
    /// itself, which no input causes.
    pub fn enumerate(
        &mut self,
        config: &ExplorationConfig,
        collector: &dyn Collector,
    ) -> Result<Enumerated, ExploreError> {
        collector.span_begin("enumerate");
        let result = beam_search(&mut self.rewrites, &self.data, config, collector);
        collector.span_end("enumerate");
        result
    }

    /// The one candidate a recorded derivation chain derives, replayed from the search root
    /// under `options` instead of searched. Scoring it compiles the candidate (ownership
    /// check included) and executes and validates its launch, unless this search's score
    /// memo already holds that compilation and that launch's verdict under the same context.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::Replay`] when the chain does not apply to the program (wrong
    /// program, renamed rule, out-of-range alternative: a stale cache entry).
    pub fn replay(
        &self,
        steps: &[DerivationStep],
        options: &RuleOptions,
    ) -> Result<Enumerated, ExploreError> {
        let root = (*self.rewrites.rebuild(ROOT)?).clone();
        let term = crate::provenance::replay_from(root, steps, options)?;
        let candidate = Candidate {
            key: term.dedup_key(),
            steps: steps.into(),
            term: Arc::new(term),
        };
        Ok(Enumerated {
            complete: vec![candidate],
            data: Arc::clone(&self.data),
            search: Exploration {
                lowered: 1,
                ..Exploration::default()
            },
        })
    }

    /// Compiles, validates and ranks `enumerated` under the launch, compiler options and
    /// device of `config`, through this search's score memo. Emits phase spans (`typecheck`,
    /// `compile`, `execute`, `score`) and per-variant events.
    ///
    /// # Errors
    ///
    /// [`ExploreError::Sizes`] if `config.sizes` is not the binding `enumerated` was searched
    /// under, [`ExploreError::Launch`] if `config.launch` is invalid for `config.device`.
    /// Failures of individual candidates are counted in the [`Exploration`] statistics.
    pub fn score(
        &mut self,
        enumerated: &Enumerated,
        config: &ExplorationConfig,
        collector: &dyn Collector,
    ) -> Result<Exploration, ExploreError> {
        score_all(enumerated, config, &mut self.scores, collector)
    }

    /// Rewrites this search has judged: a rule applied, the result spliced in, normalised
    /// and type-checked.
    pub fn rewrites_judged(&self) -> usize {
        self.rewrites.judged
    }

    /// Rewrites whose outcome was recalled from an earlier enumeration instead.
    pub fn rewrites_recalled(&self) -> usize {
        self.rewrites.recalled
    }
}

/// The launch-independent half of an exploration: the fully lowered candidates one
/// [`Search::enumerate`] or [`Search::replay`] found, sharing that search's inputs and
/// reference output. An auto-tuner sweeping launches scores one `Enumerated` per
/// `RuleOptions` at every launch instead of repeating the rule search.
#[derive(Clone, Debug)]
pub struct Enumerated {
    pub(crate) complete: Vec<Candidate>,
    data: Arc<ScoreData>,
    search: Exploration,
}

impl Enumerated {
    /// Number of distinct fully lowered candidates the search found.
    pub fn lowered(&self) -> usize {
        self.complete.len()
    }

    /// The fully lowered candidates: each derived term with its derivation chain, in
    /// discovery order. The chains carry full provenance ([`DerivationStep::path`],
    /// [`DerivationStep::alternative`]), so [`crate::provenance::replay`] reproduces each
    /// term exactly.
    pub fn lowered_candidates(&self) -> impl Iterator<Item = (&Term, &[DerivationStep])> {
        self.complete.iter().map(|c| (&*c.term, &*c.steps))
    }

    /// [`Search::replay`] on a throwaway [`Search`] of `program` under `config.sizes` and
    /// `config.rule_options`.
    ///
    /// # Errors
    ///
    /// See [`Search::new`] and [`Search::replay`].
    pub fn from_derivation(
        program: &Program,
        steps: &[DerivationStep],
        config: &ExplorationConfig,
    ) -> Result<Enumerated, ExploreError> {
        Search::new(program, &config.sizes, &Null)?.replay(steps, &config.rule_options)
    }

    /// [`Search::score`] against a fresh score memo: every distinct launch is executed and
    /// validated by this call.
    ///
    /// # Errors
    ///
    /// See [`Search::score`].
    pub fn score(&self, config: &ExplorationConfig) -> Result<Exploration, ExploreError> {
        score_all(self, config, &mut ScoreMemo::default(), &Null)
    }
}

/// Explores the rewrite space of `program` and returns the validated, cost-ranked variants:
/// [`enumerate`] followed by [`Enumerated::score`] with the same configuration. Callers that
/// sweep launches or rule options, or want telemetry, keep a [`Search`] instead.
///
/// # Errors
///
/// Returns an [`ExploreError`] if the *input* program is invalid (does not typecheck, cannot
/// be converted, or cannot be evaluated by the reference interpreter) or the launch is
/// invalid for the device. Failures of derived candidates are not errors — they are counted
/// in the [`Exploration`] statistics.
pub fn explore(program: &Program, config: &ExplorationConfig) -> Result<Exploration, ExploreError> {
    enumerate(program, config)?.score(config)
}

/// [`Search::enumerate`] on a throwaway [`Search`] of `program` under `config.sizes`.
///
/// # Errors
///
/// See [`Search::new`].
pub fn enumerate(
    program: &Program,
    config: &ExplorationConfig,
) -> Result<Enumerated, ExploreError> {
    Search::new(program, &config.sizes, &Null)?.enumerate(config, &Null)
}

/// Per-round telemetry aggregation: everything needed for one [`Event::BeamRound`] plus the
/// per-rule tallies behind its [`Event::RuleRound`]s. Only touched when the collector is
/// enabled — the disabled hot path pays one branch per outcome.
#[derive(Default)]
struct RoundStats {
    expanded: u32,
    derived: u32,
    dedup_hits: u32,
    rejected: u32,
    completed: u32,
    rules: std::collections::BTreeMap<&'static str, RuleTally>,
}

#[derive(Default)]
struct RuleTally {
    fired: u32,
    ill_typed: u32,
    oversize: u32,
    failed: u32,
    duplicates: u32,
}

impl RoundStats {
    fn tally(&mut self, rule: &'static str) -> &mut RuleTally {
        self.rules.entry(rule).or_default()
    }

    /// Emits the round's [`Event::BeamRound`] followed by one [`Event::RuleRound`] per rule
    /// with activity (in rule-name order — deterministic regardless of worker scheduling).
    fn emit(&self, collector: &dyn Collector, depth: u32, frontier: u32, kept: u32) {
        collector.record(Event::BeamRound {
            depth,
            frontier,
            expanded: self.expanded,
            derived: self.derived,
            dedup_hits: self.dedup_hits,
            rejected: self.rejected,
            completed: self.completed,
            kept,
            pruned: self.derived.saturating_sub(kept),
        });
        for (rule, t) in &self.rules {
            collector.record(Event::RuleRound {
                rule,
                depth,
                fired: t.fired,
                ill_typed: t.ill_typed,
                oversize: t.oversize,
                failed: t.failed,
                duplicates: t.duplicates,
            });
        }
    }
}

/// The beam search of [`Search::enumerate`] over `memo`: whatever `memo` has judged under
/// option lists that have not changed is recalled, the rest is judged and recorded.
fn beam_search(
    memo: &mut RewriteMemo,
    data: &Arc<ScoreData>,
    config: &ExplorationConfig,
    collector: &dyn Collector,
) -> Result<Enumerated, ExploreError> {
    memo.bind(config);
    let workers = worker_count(config);
    let mut stats = Exploration::default();
    let mut seen: HashSet<DedupKey> = HashSet::new();
    let mut complete: Vec<Candidate> = Vec::new();

    seen.insert(memo.node(ROOT).key);
    if memo.node(ROOT).high_level_left == 0 {
        complete.push(memo.candidate(ROOT)?);
    }
    let mut frontier = vec![ROOT];
    // The beam before `frontier`: its terms are held until `frontier` is expanded.
    let mut parents: Vec<NodeId> = Vec::new();

    let telemetry = collector.enabled();
    let trace = config.trace_rejections && telemetry;

    for depth in 0..config.max_depth {
        // The merge below consumes at most `remaining` outcomes before the budget trips
        // (the outcome that reaches the cap is counted but not processed — hence max(1)),
        // so expansion never judges a whole candidate the merge cannot reach.
        let remaining = config.max_candidates.saturating_sub(stats.explored).max(1);
        let expansions =
            memo.expand_frontier(&frontier, depth, config, workers, remaining, trace)?;
        memo.release(&parents);
        let frontier_len = frontier.len() as u32;
        let mut round = RoundStats::default();
        let mut next: Vec<Reached> = Vec::new();
        let mut budget_hit = false;
        'merge: for outcomes in expansions {
            for Outcome { rule, site, kind } in outcomes {
                stats.explored += 1;
                if stats.explored >= config.max_candidates {
                    budget_hit = true;
                    break 'merge;
                }
                match kind {
                    OutcomeKind::Rejected(reason) => {
                        if reason == RejectReason::IllTyped {
                            stats.rejected_typecheck += 1;
                        }
                        if telemetry {
                            round.expanded += 1;
                            round.rejected += 1;
                            let t = round.tally(rule);
                            t.fired += 1;
                            match reason {
                                RejectReason::IllTyped => t.ill_typed += 1,
                                RejectReason::Oversize => t.oversize += 1,
                                RejectReason::ReplaceFailed => t.failed += 1,
                                // Duplicates are tallied on their own path below; the
                                // soundness reasons are emitted from the scoring phases,
                                // never from rule enumeration.
                                RejectReason::Duplicate
                                | RejectReason::OwnershipViolation
                                | RejectReason::DataRace
                                | RejectReason::DivergentBarrier => {}
                            }
                            if let Some(site) = site {
                                collector.record(Event::Rejection {
                                    rule,
                                    site: site.into_string(),
                                    reason,
                                });
                            }
                        }
                    }
                    OutcomeKind::Derived { node, term } => {
                        let reached = memo.node(node);
                        let (high_level_left, size) = (reached.high_level_left, reached.size);
                        if !seen.insert(reached.key) {
                            stats.dedup_hits += 1;
                            if telemetry {
                                round.expanded += 1;
                                round.dedup_hits += 1;
                                let t = round.tally(rule);
                                t.fired += 1;
                                t.duplicates += 1;
                                if let Some(site) = site {
                                    collector.record(Event::Rejection {
                                        rule,
                                        site: site.into_string(),
                                        reason: RejectReason::Duplicate,
                                    });
                                }
                            }
                            continue;
                        }
                        if telemetry {
                            round.expanded += 1;
                            round.derived += 1;
                            round.tally(rule).fired += 1;
                            if high_level_left == 0 {
                                round.completed += 1;
                            }
                        }
                        // A fully lowered term is held from here on: scoring shares it. Any
                        // other is rebuilt from its parent's if the node is expanded.
                        if high_level_left == 0 {
                            memo.hold(node, term.as_ref());
                            complete.push(memo.candidate(node)?);
                        }
                        next.push(Reached {
                            node,
                            high_level_left,
                            size,
                        });
                    }
                }
            }
        }
        if budget_hit {
            // The budget tripped mid-merge: no beam is selected — mirror that in the event.
            if telemetry {
                round.emit(collector, depth as u32, frontier_len, 0);
            }
            break;
        }
        if next.is_empty() {
            if telemetry {
                round.emit(collector, depth as u32, frontier_len, 0);
            }
            break;
        }
        // Beam selection: lowering progress first, then smaller terms (heap-based select-k,
        // equivalent to a stable sort by `(high_level_left, size)` plus truncation).
        let selected = select_beam(next, config.beam_width).into_iter();
        parents = std::mem::replace(&mut frontier, selected.map(|r| r.node).collect());
        if telemetry {
            round.emit(collector, depth as u32, frontier_len, frontier.len() as u32);
        }
        if frontier.is_empty() {
            break;
        }
    }

    memo.release(&parents);
    memo.release(&frontier);
    stats.lowered = complete.len();
    Ok(Enumerated {
        complete,
        data: Arc::clone(data),
        search: stats,
    })
}

fn worker_count(config: &ExplorationConfig) -> usize {
    match config.threads {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    }
}

/// A candidate the merge admitted to the next beam selection.
struct Reached {
    node: NodeId,
    high_level_left: usize,
    size: usize,
}

/// Keeps the `width` best candidates by `(high_level_left, size)` in stable order, using a
/// bounded max-heap instead of sorting the whole expansion.
fn select_beam(next: Vec<Reached>, width: usize) -> Vec<Reached> {
    let mut heap: BinaryHeap<(usize, usize, usize)> = BinaryHeap::with_capacity(width + 1);
    for (idx, c) in next.iter().enumerate() {
        let key = (c.high_level_left, c.size, idx);
        if heap.len() < width {
            heap.push(key);
        } else if let Some(top) = heap.peek() {
            if key < *top {
                heap.pop();
                heap.push(key);
            }
        }
    }
    let mut selected = heap.into_vec();
    selected.sort_unstable();
    let mut slots: Vec<Option<Reached>> = next.into_iter().map(Some).collect();
    selected
        .into_iter()
        .filter_map(|(_, _, idx)| slots[idx].take())
        .collect()
}

#[derive(Clone, Debug)]
enum ScoreError {
    Compile,
    Incorrect,
    /// The candidate was rejected for a soundness reason — statically by the ownership
    /// pass, or dynamically by the race detector / barrier-divergence check — and the
    /// typed incident carries the details (boxed: rejections are rare, and every memo
    /// entry is as wide as this enum).
    Unsound(Box<SoundnessIncident>),
}

/// The launch-independent scoring data of one [`Search`]: the size bindings, the
/// deterministic inputs in flat buffer form and the reference output, each hashed once here
/// instead of per candidate.
#[derive(Clone, Debug)]
struct ScoreData {
    /// The bindings the inputs and the reference were generated under, and the only ones
    /// scoring binds kernel arguments with.
    sizes: Environment,
    /// One flat buffer per root parameter.
    inputs: Vec<Vec<f32>>,
    /// [`hash_floats`] of each input buffer (parallel to `inputs`).
    input_hashes: Vec<u64>,
    /// The interpreter's output for the *original* program on `inputs`.
    reference: Vec<f32>,
    /// Hash over the inputs and the reference: the data half of a [`ScoreContext`].
    fingerprint: u64,
}

impl ScoreData {
    /// Generates the deterministic pseudo-random inputs for the root parameters of `typed`
    /// and evaluates the reference output with the interpreter.
    fn generate(typed: &Program, sizes: &Environment) -> Result<ScoreData, ExploreError> {
        use std::hash::Hasher;
        let values = generate_inputs(typed, sizes).map_err(ExploreError::Reference)?;
        let reference = evaluate_with_sizes(typed, &values, sizes)
            .map_err(|e| ExploreError::Reference(e.to_string()))?
            .flatten_f32();
        let inputs: Vec<Vec<f32>> = values.iter().map(Value::flatten_f32).collect();
        let input_hashes: Vec<u64> = inputs.iter().map(|b| hash_floats(b)).collect();
        let mut h = StableHasher::new();
        for hash in &input_hashes {
            h.write_u64(*hash);
        }
        h.write_u64(hash_floats(&reference));
        Ok(ScoreData {
            sizes: sizes.clone(),
            inputs,
            input_hashes,
            reference,
            fingerprint: h.finish(),
        })
    }

    /// [`hash_floats`] of a marshalled buffer argument. An argument that is one of the
    /// inputs, bit for bit, takes the hash computed once in [`ScoreData::generate`].
    fn buffer_hash(&self, buffer: &[f32]) -> u64 {
        let is_buffer = |input: &Vec<f32>| {
            input.len() == buffer.len()
                && input
                    .iter()
                    .zip(buffer)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        };
        match self.inputs.iter().position(is_buffer) {
            Some(i) => self.input_hashes[i],
            None => hash_floats(buffer),
        }
    }
}

/// Content hash of a float buffer (length, then the bit pattern of every element).
fn hash_floats(data: &[f32]) -> u64 {
    use std::hash::Hasher;
    let mut h = StableHasher::new();
    h.write_usize(data.len());
    for v in data {
        h.write_u32(v.to_bits());
    }
    h.finish()
}

/// Deterministic pseudo-random inputs derived from the root parameter types.
fn generate_inputs(program: &Program, sizes: &Environment) -> Result<Vec<Value>, String> {
    let params = program.root_params().to_vec();
    let mut out = Vec::with_capacity(params.len());
    for (i, p) in params.iter().enumerate() {
        let ty = program
            .expr(*p)
            .ty
            .clone()
            .ok_or_else(|| format!("root parameter {i} is untyped"))?;
        let mut state = 0x9e37u32.wrapping_add(i as u32 * 0x85eb);
        let value = value_of_type(&ty, sizes, &mut state)
            .ok_or_else(|| format!("cannot generate an input of type {ty}"))?;
        out.push(value);
    }
    Ok(out)
}

/// Small deterministic generator: values in [-2, 2) with a quarter-step grid, so additions
/// and multiplications stay well inside `f32` exactness for the comparison tolerance.
fn next_input(state: &mut u32) -> f32 {
    *state = state.wrapping_mul(1664525).wrapping_add(1013904223);
    ((*state >> 16) % 16) as f32 * 0.25 - 2.0
}

fn value_of_type(ty: &Type, sizes: &Environment, state: &mut u32) -> Option<Value> {
    match ty {
        Type::Scalar(_) => Some(Value::Float(next_input(state))),
        Type::Vector(_, width) => Some(Value::Vector(
            (0..*width)
                .map(|_| Value::Float(next_input(state)))
                .collect(),
        )),
        Type::Tuple(elems) => Some(Value::Tuple(
            elems
                .iter()
                .map(|e| value_of_type(e, sizes, state))
                .collect::<Option<Vec<_>>>()?,
        )),
        Type::Array(elem, len) => {
            let n = len.evaluate(sizes).ok()?;
            let n = usize::try_from(n).ok()?;
            Some(Value::Array(
                (0..n)
                    .map(|_| value_of_type(elem, sizes, state))
                    .collect::<Option<Vec<_>>>()?,
            ))
        }
    }
}

/// What a verdict depends on besides the candidate and the launch. Every [`ScoreMemo`]
/// entry is bound to the context it was recorded under (compared field by field, not
/// hashed), so a memo handed a different device, engine, race-detection setting, compiler
/// options, size bindings or input data misses instead of serving the other context's
/// verdict.
#[derive(Clone, Debug, PartialEq)]
struct ScoreContext {
    device: DeviceProfile,
    engine: EngineSelection,
    detect_races: bool,
    /// `ExplorationConfig::compile_options` with the launch sizes zeroed: scoring overwrites
    /// them from the launch, which is part of every key.
    compile_options: CompilationOptions,
    sizes: Environment,
    /// [`ScoreData::fingerprint`]: the generated inputs and the reference output.
    data: u64,
}

/// The identity of one virtual-GPU launch sequence: everything
/// [`ExecutionRequest::launch_sequence`] is handed (kernel source, marshalled arguments,
/// per-stage launch plan) under one [`ScoreContext`]. Two candidates with equal keys
/// execute identically, so the second takes the first one's verdict.
///
/// Collision policy: the key holds hashes, not the launch itself, so two different launches
/// are told apart only as far as the hashes go. The three components are hashed separately
/// (64 bits each) and the source length rides along: a false match needs the source hashes,
/// the source lengths, the argument hashes and the plan hashes of two different launches to
/// agree at once. No single 64-bit collision can make one launch answer for another.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct ExecKey {
    /// Index of the [`ScoreContext`] in its [`ScoreMemo`].
    context: usize,
    source: u64,
    source_len: usize,
    args: u64,
    plan: u64,
}

impl ExecKey {
    /// The key of the launch a compiled candidate (`seed`) makes under `launch`.
    fn new(context: usize, seed: &LaunchSeed, launch: LaunchConfig) -> ExecKey {
        use std::hash::Hash;
        let mut plan_hash = StableHasher::new();
        for stage in &seed.stages {
            plan_hash.write_str(&stage.name);
            stage.launch(launch).hash(&mut plan_hash);
        }
        ExecKey {
            context,
            source: seed.source,
            source_len: seed.source_len,
            args: seed.args,
            plan: std::hash::Hasher::finish(&plan_hash),
        }
    }
}

/// What a compiled candidate contributes to its [`ExecKey`] whatever the launch: hashes of
/// the kernel source and of the marshalled arguments, and the kernel stages the launch plan
/// is laid over.
#[derive(Clone, Debug, PartialEq)]
struct LaunchSeed {
    source: u64,
    source_len: usize,
    args: u64,
    stages: Vec<KernelStage>,
}

impl LaunchSeed {
    fn new(source: &str, args: &[KernelArg], stages: &[KernelStage], data: &ScoreData) -> Self {
        use std::hash::Hasher;
        let mut source_hash = StableHasher::new();
        source_hash.write(source.as_bytes());
        let mut args_hash = StableHasher::new();
        for arg in args {
            match arg {
                KernelArg::Buffer(buffer) => {
                    args_hash.write_u8(0);
                    args_hash.write_u64(data.buffer_hash(buffer));
                }
                KernelArg::Float(v) => {
                    args_hash.write_u8(1);
                    args_hash.write_u32(v.to_bits());
                }
                KernelArg::Int(v) => {
                    args_hash.write_u8(2);
                    args_hash.write_i64(*v);
                }
            }
        }
        LaunchSeed {
            source: source_hash.finish(),
            source_len: source.len(),
            args: args_hash.finish(),
            stages: stages.to_vec(),
        }
    }
}

/// What one validated execution yields.
#[derive(Clone, Debug)]
struct Scored {
    /// Counters summed over all stages.
    counters: CostCounters,
    /// The sequence's estimated time under the context's device profile.
    time: f64,
    /// Per-stage counters, in launch order.
    stage_counters: Vec<CostCounters>,
}

/// What one launch did on the virtual GPU.
#[derive(Clone, Debug)]
enum Verdict {
    /// It ran to completion and matched the reference.
    Scored(Scored),
    /// It failed, or computed the wrong result.
    Rejected(ScoreError),
    /// Its budget stopped it with this lower bound on its estimated time: it could not make
    /// the `best_n` of the point that ran it, and was neither completed nor validated.
    Pruned(f64),
}

/// A compiled candidate as the score memo keeps it: the program every launch of it runs, and
/// the seed of those launches' keys. Candidates whose seeds are equal share one.
#[derive(Debug)]
struct Kept {
    seed: LaunchSeed,
    program: CompiledProgram,
    /// The program's printed source, once a point returns it as a variant.
    source: OnceLock<String>,
}

impl Kept {
    /// The printed source of the program, printed the first time it is asked for.
    fn source(&self) -> &str {
        self.source.get_or_init(|| self.program.source())
    }
}

/// What a candidate compiles to under every launch that answers the generator's questions
/// the way `trace` records them ([`LaunchTrace::holds_for`]): its rejection, or the program
/// it compiled to.
#[derive(Debug)]
struct Compiled {
    trace: LaunchTrace,
    outcome: Result<Arc<Kept>, ScoreError>,
}

/// The verdicts of one [`Search`]: what every candidate compiled to, and what every
/// distinct launch did on the virtual GPU.
///
/// [`Search::score`] consults the memo before it compiles or executes anything and
/// records what it had to work out, on two levels:
///
/// * **compilation** — [`Term::dedup_key`] → per [`LaunchTrace`], the compile rejection or
///   the program the candidate compiled to, with the launch-independent part of its launch
///   key. Code generation looks at the launch only through the comparisons its trace
///   records ([`lift_codegen::compile_program_traced`]), so an entry answers for every launch
///   its trace holds for — not only the one it was compiled under — and the launch key is
///   completed from the launch at hand. A recalled candidate skips type inference and code
///   generation: the launch it must run and the variant it may become are built from the
///   kept program, one per distinct [`LaunchSeed`] however many candidates compile to it.
/// * **execution** — launch key (kernel source + marshalled arguments + launch plan) → the
///   [`Verdict`]: counters, estimated time and per-stage counters, the typed rejection
///   ([`SoundnessIncident`] included), or the lower bound a pruned launch was stopped at. A
///   recalled launch does not touch the virtual GPU; a pruned one is final only for a point
///   whose bar its bound clears, and runs again at any other.
///
/// Every launch is still executed under the configured race detection and validated against
/// the interpreter's reference the first time the memo sees it; only byte-identical repeats
/// are elided, so scoring through a shared memo returns the variants scoring through a fresh
/// one returns. Code generation runs once per candidate, context and trace: no launch and
/// no variant compiles a candidate again. Entries are bound to the context they were recorded under (device,
/// engine, race detection, compiler options, size bindings, input data): under any other
/// context they are not found.
#[derive(Debug, Default)]
struct ScoreMemo {
    contexts: Vec<ScoreContext>,
    /// Compile outcomes per context and candidate ([`Term::dedup_key`]), one per trace.
    compiled: HashMap<(usize, DedupKey), Vec<Compiled>>,
    /// Every kept program, by the source hash of its seed.
    kept: HashMap<u64, Vec<Arc<Kept>>>,
    executed: HashMap<ExecKey, Verdict>,
}

impl ScoreMemo {
    /// The index of the context `config` and `data` describe, registering it if new.
    fn context(&mut self, config: &ExplorationConfig, data: &ScoreData) -> usize {
        let context = ScoreContext {
            device: config.device.clone(),
            engine: config.engine,
            detect_races: config.detect_races,
            compile_options: config.compile_options.clone().with_launch([0; 3], [0; 3]),
            sizes: data.sizes.clone(),
            data: data.fingerprint,
        };
        self.contexts
            .iter()
            .position(|known| *known == context)
            .unwrap_or_else(|| {
                self.contexts.push(context);
                self.contexts.len() - 1
            })
    }

    /// The kept program of `seed`: the one kept for an equal seed, or else `program`.
    fn keep(&mut self, seed: LaunchSeed, program: CompiledProgram) -> Arc<Kept> {
        let same_source = self.kept.entry(seed.source).or_default();
        if let Some(kept) = same_source.iter().find(|kept| kept.seed == seed) {
            return Arc::clone(kept);
        }
        let kept = Arc::new(Kept {
            seed,
            program,
            source: OnceLock::new(),
        });
        same_source.push(Arc::clone(&kept));
        kept
    }
}

/// A launch a scoring pass needs a verdict for.
struct Needed {
    key: ExecKey,
    /// The program its candidates compiled to.
    kept: Arc<Kept>,
    /// How many candidates make it.
    candidates: usize,
}

/// The `n` smallest times among a point's candidates with a known time, counted per
/// candidate. Its height is the bar a launch must be able to meet to be among the `n`
/// variants the point returns: a launch whose time is bound to exceed it ranks behind `n`
/// candidates whatever it measures, equal times and discovery order included.
struct Bar {
    n: usize,
    /// Ascending, at most `n`.
    times: Vec<f64>,
}

impl Bar {
    fn new(n: usize) -> Bar {
        Bar {
            n,
            times: Vec::new(),
        }
    }

    /// Records `time` for each of `candidates` candidates.
    fn admit(&mut self, time: f64, candidates: usize) {
        for _ in 0..candidates.min(self.n) {
            let at = self.times.partition_point(|t| t.total_cmp(&time).is_le());
            if at == self.n {
                break;
            }
            self.times.insert(at, time);
            self.times.truncate(self.n);
        }
    }

    /// The `n`-th smallest time: infinite until `n` candidates have one, and for `n = 0`.
    fn height(&self) -> f64 {
        self.n
            .checked_sub(1)
            .and_then(|last| self.times.get(last))
            .copied()
            .unwrap_or(f64::INFINITY)
    }
}

/// Phase-1 result for one candidate.
enum Staged {
    /// The memo knows what the candidate compiles to under this launch.
    Known(Result<Arc<Kept>, ScoreError>),
    /// The candidate has to be compiled; this is its typed arena form.
    Typed(Result<Program, ScoreError>),
}

/// Variant ranking: lowest estimated time first, discovery order among equal times — so
/// the order does not depend on which verdicts were recalled and which were measured.
fn rank_order(a: &(f64, usize), b: &(f64, usize)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// Compiles, deduplicates, executes, validates and ranks the complete candidates, recalling
/// from `memo` whatever it has on record and recording the rest. The four phases
/// (typecheck → compile → execute → score) are bracketed with collector spans, so a
/// recorded trace breaks a scoring pass down into the wall time of each.
fn score_all(
    enumerated: &Enumerated,
    config: &ExplorationConfig,
    memo: &mut ScoreMemo,
    collector: &dyn Collector,
) -> Result<Exploration, ExploreError> {
    let complete = &enumerated.complete;
    let data = &*enumerated.data;
    if config.sizes != data.sizes {
        return Err(ExploreError::Sizes);
    }
    config
        .device
        .validate_launch(&config.launch)
        .map_err(ExploreError::Launch)?;
    let mut stats = enumerated.search.clone();
    let context = memo.context(config, data);
    let options = launch_options(config);

    // Phase 1 (cheap, serial): arena conversion + type inference for every candidate whose
    // compile outcome is not on record under a trace that holds for this launch.
    collector.span_begin("typecheck");
    let staged: Vec<Staged> = complete
        .iter()
        .map(|cand| {
            let known = memo.compiled.get(&(context, cand.key)).and_then(|known| {
                let holds = known.iter().find(|c| c.trace.holds_for(&options))?;
                Some(holds.outcome.clone())
            });
            match known {
                Some(outcome) => Staged::Known(outcome),
                None => Staged::Typed(typecheck_candidate(cand)),
            }
        })
        .collect();
    collector.span_end("typecheck");

    // Phase 2 (serial): compilation of every candidate whose compile outcome is not on
    // record, streamed. A compiled candidate is reduced to the kept program of its seed and
    // the launch that program makes here; candidates that make the same launch share one.
    collector.span_begin("compile");
    let mut outcomes: Vec<Result<usize, ScoreError>> = Vec::with_capacity(complete.len());
    let mut needed: Vec<Needed> = Vec::new();
    let mut slots: HashMap<ExecKey, usize> = HashMap::new();
    for (cand, staged) in complete.iter().zip(staged) {
        let outcome = match staged {
            Staged::Known(outcome) => {
                stats.reused_compiles += 1;
                outcome
            }
            Staged::Typed(program) => {
                let (fresh, trace) = match program {
                    Ok(program) => compile_candidate(&program, data, &options),
                    // The arena form does not type, whatever the launch.
                    Err(e) => (Err(e), LaunchTrace::default()),
                };
                let outcome = fresh.map(|(seed, program)| memo.keep(seed, program));
                let traces = memo.compiled.entry((context, cand.key)).or_default();
                traces.push(Compiled {
                    trace,
                    outcome: outcome.clone(),
                });
                outcome
            }
        };
        outcomes.push(outcome.map(|kept| {
            let key = ExecKey::new(context, &kept.seed, config.launch);
            let slot = *slots.entry(key).or_insert_with(|| {
                needed.push(Needed {
                    key,
                    kept,
                    candidates: 0,
                });
                needed.len() - 1
            });
            needed[slot].candidates += 1;
            slot
        }));
    }
    drop(slots);
    collector.span_end("compile");

    // Phase 3 (serial): execute each launch that needs running once, under a budget of the
    // bar so far: a launch whose cost bound rises above it is outranked by `best_n`
    // candidates already, and is stopped as pruned. The order alone decides what is pruned.
    // The bar starts from the recorded verdicts; a launch an earlier point pruned stays
    // pruned if its bound clears that bar (which only drops while the point runs), and runs
    // again otherwise, as does a launch without a verdict. Where the bar can fall below
    // infinity, every launch is counted first and they run in ascending order of the bound
    // their count prices them at, first occurrence first among equal bounds: the cheapest
    // launches set the bar, and an exactly counted launch over it is stopped before its
    // first row, with the count it was handed.
    collector.span_begin("execute");
    let mut bar = Bar::new(config.best_n);
    for launch in &needed {
        if let Some(Verdict::Scored(scored)) = memo.executed.get(&launch.key) {
            bar.admit(scored.time, launch.candidates);
        }
    }
    let recorded_bar = bar.height();
    let to_run: Vec<&Needed> = needed
        .iter()
        .filter(|launch| match memo.executed.get(&launch.key) {
            None => true,
            Some(Verdict::Pruned(bound)) => *bound <= recorded_bar,
            Some(_) => false,
        })
        .collect();
    stats.executed_kernels = needed.len();
    stats.reused_kernels = needed.len() - to_run.len();
    // With no more candidates than `best_n` the bar stays infinite and nothing is pruned.
    let prunable = needed.iter().map(|n| n.candidates).sum::<usize>() > config.best_n;
    // The count reads the kinds of the arguments and the values of the `int` ones, not the
    // buffers: it is handed arguments bound from one element of each input.
    let hollow: Vec<Vec<f32>> = data
        .inputs
        .iter()
        .map(|input| input.iter().take(1).copied().collect())
        .collect();
    let mut queue: Vec<(f64, &Needed, Option<StaticCount>)> = to_run
        .into_iter()
        .map(|launch| {
            let program = &launch.kept.program;
            let plan = program.launch_plan(config.launch);
            let count = prunable
                .then(|| program.bind_args(&hollow, &data.sizes).ok())
                .flatten()
                .and_then(|(args, _)| {
                    let request = scoring_request(program, config, collector);
                    request.static_counters(&plan, &args).ok()
                });
            let bound = count.as_ref().map_or(0.0, |count| {
                scoring_request(program, config, collector).static_bound(&plan, count)
            });
            (bound, launch, count)
        })
        .collect();
    queue.sort_by(|a, b| a.0.total_cmp(&b.0));
    // A launch's arguments are marshalled from the kept program just before it runs, so only
    // one launch's buffers are alive at a time.
    let run = |program: &CompiledProgram, limit: f64, count: Option<&StaticCount>| {
        let Ok((args, output)) = program.bind_args(&data.inputs, &data.sizes) else {
            return (Verdict::Rejected(ScoreError::Compile), 0);
        };
        let request = scoring_request(program, config, collector).budget(limit);
        let request = match count {
            Some(count) => request.counted(count),
            None => request,
        };
        let result = request.launch_sequence(&program.launch_plan(config.launch), args);
        let rows = match &result {
            Ok(result) => result.merged_counters().lockstep_rows,
            Err(VgpuError::OverBudget { row, .. }) => *row,
            Err(_) => 0,
        };
        let verdict = match result {
            Err(VgpuError::OverBudget { lower_bound, .. }) => Verdict::Pruned(lower_bound),
            Err(VgpuError::DataRace {
                buffer,
                index,
                writers,
                epoch,
            }) => Verdict::Rejected(ScoreError::Unsound(Box::new(SoundnessIncident::DataRace {
                buffer,
                index,
                writers,
                epoch,
            }))),
            Err(VgpuError::DivergentBarrier {
                group,
                arrived,
                expected,
            }) => Verdict::Rejected(ScoreError::Unsound(Box::new(
                SoundnessIncident::DivergentBarrier {
                    group,
                    arrived,
                    expected,
                },
            ))),
            Err(_) => Verdict::Rejected(ScoreError::Incorrect),
            Ok(result) => {
                if outputs_match(&result.buffers[output], &data.reference) {
                    let stage_counters = result.stage_counters();
                    Verdict::Scored(Scored {
                        counters: result.merged_counters(),
                        time: estimated_sequence_time(&stage_counters, &config.device),
                        stage_counters,
                    })
                } else {
                    Verdict::Rejected(ScoreError::Incorrect)
                }
            }
        };
        (verdict, rows)
    };
    for (_, launch, count) in &queue {
        let (verdict, rows) = run(&launch.kept.program, bar.height(), count.as_ref());
        stats.rows_simulated += rows;
        match &verdict {
            Verdict::Scored(scored) => bar.admit(scored.time, launch.candidates),
            Verdict::Pruned(_) => stats.pruned_kernels += 1,
            Verdict::Rejected(_) => {}
        }
        memo.executed.insert(launch.key, verdict);
    }
    collector.span_end("execute");

    // Phase 4 (serial): per-candidate verdicts in candidate order, then ranking. A pruned
    // candidate is outranked, not rejected. Only the `best_n` survivors become full variants,
    // typed again and printed from the program their launch ran.
    collector.span_begin("score");
    let mut ranked: Vec<((f64, usize), &Scored, &Kept)> = Vec::new();
    for (index, (cand, outcome)) in complete.iter().zip(outcomes).enumerate() {
        let launch = match outcome {
            Ok(slot) => &needed[slot],
            Err(e) => {
                reject_candidate(&mut stats, collector, cand, e);
                continue;
            }
        };
        match memo.executed.get(&launch.key) {
            Some(Verdict::Scored(scored)) => {
                ranked.push(((scored.time, index), scored, &launch.kept));
            }
            Some(Verdict::Rejected(e)) => reject_candidate(&mut stats, collector, cand, e.clone()),
            Some(Verdict::Pruned(_)) => {}
            None => return Err(ExploreError::Memo("a needed launch has no verdict")),
        }
    }
    ranked.sort_unstable_by(|a, b| rank_order(&a.0, &b.0));
    ranked.truncate(config.best_n);
    stats.variants = ranked
        .into_iter()
        .map(|((_, index), scored, kept)| {
            let cand = &complete[index];
            let program = typecheck_candidate(cand)
                .map_err(|_| ExploreError::Memo("a compiled candidate no longer types"))?;
            Ok(Variant {
                program,
                derivation: cand.steps.to_vec(),
                kernel_source: kept.source().to_string(),
                kernel_count: scored.stage_counters.len(),
                counters: scored.counters,
                stage_counters: scored.stage_counters.clone(),
                stage_names: kept
                    .program
                    .kernels
                    .iter()
                    .map(|k| k.name.clone())
                    .collect(),
                estimated_time: scored.time,
            })
        })
        .collect::<Result<_, ExploreError>>()?;
    collector.span_end("score");
    if collector.enabled() {
        collector.record(Event::Counter {
            name: "executed_kernels",
            value: stats.executed_kernels as f64,
        });
        collector.record(Event::Counter {
            name: "reused_kernels",
            value: stats.reused_kernels as f64,
        });
        collector.record(Event::Counter {
            name: "pruned_kernels",
            value: stats.pruned_kernels as f64,
        });
        for (rank, v) in stats.variants.iter().enumerate() {
            collector.record(Event::Variant {
                rank: rank as u32,
                estimated_time: v.estimated_time,
                kernels: v.kernel_count as u32,
                steps: v.derivation.len() as u32,
            });
        }
    }
    Ok(stats)
}

/// The launch request scoring under `config` makes of `program`, before its budget.
fn scoring_request<'a>(
    program: &'a CompiledProgram,
    config: &'a ExplorationConfig,
    collector: &'a dyn Collector,
) -> ExecutionRequest<'a> {
    ExecutionRequest::new(&program.module)
        .on_device(&config.device)
        .engine(config.engine)
        .race_detection(config.detect_races)
        .collector(collector)
}

/// Counts one rejected candidate. Soundness rejections additionally record the typed
/// incident on [`Exploration::soundness`] and — under an enabled collector — emit a
/// first-class [`Event::Rejection`] whose `rule` is the candidate's last derivation step
/// and whose `site` is the incident's one-line rendering. Unlike rewrite-level rejection
/// tracing this is not gated on [`ExplorationConfig::trace_rejections`]: soundness
/// rejections are rare and each one means a miscompile was prevented.
fn reject_candidate(
    stats: &mut Exploration,
    collector: &dyn Collector,
    cand: &Candidate,
    error: ScoreError,
) {
    match error {
        ScoreError::Compile => stats.rejected_compile += 1,
        ScoreError::Incorrect => stats.rejected_incorrect += 1,
        ScoreError::Unsound(incident) => {
            match &*incident {
                SoundnessIncident::OwnershipViolation { .. } => stats.rejected_unsound += 1,
                SoundnessIncident::DataRace { .. } => stats.rejected_race += 1,
                SoundnessIncident::DivergentBarrier { .. } => stats.rejected_divergence += 1,
            }
            if collector.enabled() {
                collector.record(Event::Rejection {
                    rule: cand.steps.last().map_or("<input>", |s| s.rule),
                    site: incident.describe(),
                    reason: incident.reason(),
                });
            }
            stats.soundness.record(*incident);
        }
    }
}

/// Phase-1 work for one candidate: arena conversion plus the type inference that fills in
/// the annotations code generation reads (the term-level checker already accepted it).
fn typecheck_candidate(cand: &Candidate) -> Result<Program, ScoreError> {
    let mut program = cand.term.to_program();
    infer_types(&mut program).map_err(|_| ScoreError::Compile)?;
    Ok(program)
}

/// Code generation for one typed candidate under `options` (which carry the launch), with
/// what it asked of that launch.
fn compile_typed(
    program: &Program,
    options: &CompilationOptions,
) -> (Result<CompiledProgram, ScoreError>, LaunchTrace) {
    let (compiled, trace) = compile_program_traced(program, options);
    let compiled = compiled.map_err(|e| match e {
        // The ownership pass's typed rejection survives as a typed incident; every other
        // compile failure stays an undifferentiated compile rejection.
        CodegenError::OwnershipViolation {
            buffer,
            writer_level,
            owner_level,
            site,
        } => ScoreError::Unsound(Box::new(SoundnessIncident::OwnershipViolation {
            buffer,
            writer_level: writer_level.label(),
            owner_level: owner_level.label(),
            site,
        })),
        _ => ScoreError::Compile,
    });
    (compiled, trace)
}

/// The compiler options scoring under `config` compiles with: its launch threaded in.
fn launch_options(config: &ExplorationConfig) -> CompilationOptions {
    config
        .compile_options
        .clone()
        .with_launch(config.launch.global, config.launch.local)
}

/// Phase-2 work for one typed candidate: code generation under `options` (which carry the
/// launch) and the launch seed of the program — and the trace under which any of it, the
/// rejection included, repeats.
fn compile_candidate(
    program: &Program,
    data: &ScoreData,
    options: &CompilationOptions,
) -> (
    Result<(LaunchSeed, CompiledProgram), ScoreError>,
    LaunchTrace,
) {
    let (compiled, trace) = compile_typed(program, options);
    let seeded = compiled.and_then(|compiled| {
        let (args, _) = compiled
            .bind_args(&data.inputs, &data.sizes)
            .map_err(|_| ScoreError::Compile)?;
        let seed = LaunchSeed::new(&compiled.source(), &args, &compiled.kernels, data);
        Ok((seed, compiled))
    });
    (seeded, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    /// Listing 1 of the paper before any implementation choices are made.
    use lift_benchmarks::dot_product::high_level_program as high_level_partial_dot;
    use lift_ir::UserFun;

    #[test]
    fn exploration_derives_multiple_correct_dot_product_variants() {
        let program = high_level_partial_dot(512);
        let config = ExplorationConfig {
            max_depth: 5,
            beam_width: 48,
            rule_options: RuleOptions {
                split_sizes: vec![2, 4],
                vector_widths: vec![4],
                tile_sizes: vec![],
            },
            launch: LaunchConfig::d1(16, 4),
            best_n: 4,
            ..ExplorationConfig::default()
        };
        let result = explore(&program, &config).expect("exploration runs");
        assert!(
            result.variants.len() >= 2,
            "expected at least two validated variants, got {} (lowered {}, compile-rejected \
             {}, incorrect {})",
            result.variants.len(),
            result.lowered,
            result.rejected_compile,
            result.rejected_incorrect
        );
        // Distinct lowered programs, each carrying a non-trivial derivation.
        let mut renderings = HashSet::new();
        for v in &result.variants {
            assert!(!v.derivation.is_empty());
            assert!(v.kernel_source.contains("kernel void"));
            assert!(
                renderings.insert(v.program.to_string()),
                "duplicate variant returned"
            );
            assert!(
                v.program.first_high_level_pattern().is_none(),
                "variant still contains high-level patterns"
            );
        }
        // Ranked by estimated time.
        for pair in result.variants.windows(2) {
            assert!(pair[0].estimated_time <= pair[1].estimated_time);
        }
        // Kernel-level execution dedup never runs more kernels than complete candidates.
        assert!(result.executed_kernels <= result.lowered);
    }

    #[test]
    fn two_phase_api_matches_explore_and_shares_enumeration_across_launches() {
        let program = high_level_partial_dot(512);
        let config = ExplorationConfig {
            max_depth: 5,
            beam_width: 32,
            max_candidates: 1500,
            rule_options: RuleOptions {
                split_sizes: vec![2, 4],
                vector_widths: vec![4],
                tile_sizes: vec![],
            },
            launch: LaunchConfig::d1(16, 4),
            best_n: 3,
            ..ExplorationConfig::default()
        };
        let enumerated = enumerate(&program, &config).expect("enumeration runs");
        assert!(enumerated.lowered() > 0);
        let scored = enumerated.score(&config).expect("scoring runs");
        let direct = explore(&program, &config).expect("exploration runs");
        assert_eq!(scored.explored, direct.explored);
        assert_eq!(scored.lowered, direct.lowered);
        assert_eq!(scored.variants.len(), direct.variants.len());
        for (a, b) in scored.variants.iter().zip(&direct.variants) {
            assert_eq!(a.kernel_source, b.kernel_source);
            assert_eq!(a.estimated_time, b.estimated_time);
        }
        // Re-scoring the same enumeration under a different launch produces different
        // estimated times without re-running the search.
        let wider = ExplorationConfig {
            launch: LaunchConfig::d1(128, 32),
            ..config.clone()
        };
        let rescored = enumerated.score(&wider).expect("re-scoring runs");
        assert_eq!(rescored.explored, scored.explored);
        assert!(!rescored.variants.is_empty());
        // An invalid launch for the device is a typed error, not a silent mis-scoring.
        let invalid = ExplorationConfig {
            launch: LaunchConfig::d1(4096, 2048),
            ..config
        };
        assert!(matches!(
            enumerated.score(&invalid),
            Err(ExploreError::Launch(_))
        ));
    }

    /// The PR-5 miscompile shape: every work item stages the whole tile into `__local`
    /// through its own `toLocal(mapSeq id)` copy inside the `mapLcl` lambda.
    fn racy_per_item_staging() -> Program {
        let mut p = Program::new("racy_stage");
        let id = p.user_fun(UserFun::id_float());
        let add = p.user_fun(UserFun::add());
        let copy_lcl = {
            let m = p.map_seq(id);
            p.to_local(m)
        };
        let red = p.reduce_seq(add, 0.0);
        let stage_and_reduce = p.lambda(&["t"], |p, params| {
            let staged = p.apply1(copy_lcl, params[0]);
            p.apply1(red, staged)
        });
        let lcl = p.map_lcl(0, stage_and_reduce);
        let inner_split = p.split(4usize);
        let group_body = p.compose(&[lcl, inner_split]);
        let wrg = p.map_wrg(0, group_body);
        let s = p.split(16usize);
        let j = p.join();
        p.with_root(
            vec![("x", Type::array(Type::float(), 64usize))],
            |p, params| {
                let split = p.apply1(s, params[0]);
                let mapped = p.apply1(wrg, split);
                p.apply1(j, mapped)
            },
        );
        p
    }

    #[test]
    fn statically_racy_candidate_is_rejected_with_a_typed_incident() {
        let program = racy_per_item_staging();
        let config = ExplorationConfig {
            max_depth: 1,
            beam_width: 8,
            max_candidates: 200,
            launch: LaunchConfig::d1(16, 4),
            ..ExplorationConfig::default()
        };
        let collector = lift_telemetry::InMemory::new();
        let mut search = Search::new(&program, &config.sizes, &collector).expect("input types");
        let enumerated = search
            .enumerate(&config, &collector)
            .expect("enumeration runs");
        let result = search
            .score(&enumerated, &config, &collector)
            .expect("scoring runs");
        assert!(
            result.rejected_unsound >= 1,
            "the ownership pass should reject the racy input candidate (got {result:?})"
        );
        let incident = result
            .soundness
            .static_rejections
            .first()
            .expect("the static incident is recorded on the report");
        match incident {
            SoundnessIncident::OwnershipViolation {
                buffer,
                owner_level,
                site,
                ..
            } => {
                assert!(buffer.contains("__local"), "buffer: {buffer}");
                assert_eq!(*owner_level, "work-group");
                assert!(site.contains("toLocal"), "site: {site}");
            }
            other => panic!("expected an ownership violation, got {other:?}"),
        }
        // The per-reason counts have a fixed shape, ownership violations first.
        let counts = result.soundness.counts();
        assert_eq!(counts[0].0, "ownership_violation");
        assert!(counts[0].1 >= 1);
        // The rejection is a first-class telemetry event — emitted to any enabled
        // collector, not gated on `trace_rejections`. The racy candidate is the search
        // input itself (no derivation steps), so the rule reads `<input>`.
        assert!(
            collector.events().iter().any(|t| matches!(
                &t.event,
                Event::Rejection {
                    rule: "<input>",
                    reason: RejectReason::OwnershipViolation,
                    ..
                }
            )),
            "expected an ownership-violation Event::Rejection"
        );
    }

    #[test]
    fn a_recalled_rejection_carries_the_same_typed_incident() {
        let program = racy_per_item_staging();
        let config = ExplorationConfig {
            max_depth: 1,
            beam_width: 8,
            max_candidates: 200,
            launch: LaunchConfig::d1(16, 4),
            ..ExplorationConfig::default()
        };
        let mut search = Search::new(&program, &config.sizes, &Null).expect("input types");
        let enumerated = search.enumerate(&config, &Null).expect("enumeration runs");
        let first = search
            .score(&enumerated, &config, &Null)
            .expect("scoring runs");
        assert!(first.rejected_unsound >= 1);
        assert_eq!(first.reused_compiles, 0);

        // The static rejection is recalled from the compile level — nothing is compiled —
        // with the incident intact, and still reported as a first-class event.
        let collector = lift_telemetry::InMemory::new();
        let again = search
            .score(&enumerated, &config, &collector)
            .expect("scoring runs");
        assert_eq!(again.reused_compiles, again.lowered);
        assert_eq!(again.rejected_unsound, first.rejected_unsound);
        assert_eq!(again.soundness, first.soundness);
        assert!(collector.events().iter().any(|t| matches!(
            &t.event,
            Event::Rejection {
                reason: RejectReason::OwnershipViolation,
                ..
            }
        )));

        // A dynamic rejection is recalled from the execution level the same way. No
        // derivation of the tracked workloads races (the ownership pass sees to that), so
        // the verdict of one validated launch is replaced by a detector finding here. Nothing
        // is pruned, so the forged verdict cannot send a pruned launch back to run.
        let program = high_level_partial_dot(512);
        let config = ExplorationConfig {
            max_depth: 5,
            beam_width: 32,
            max_candidates: 1500,
            launch: LaunchConfig::d1(16, 4),
            best_n: usize::MAX,
            ..config
        };
        let mut search = Search::new(&program, &config.sizes, &Null).expect("input types");
        let enumerated = search.enumerate(&config, &Null).expect("enumeration runs");
        let sound = search
            .score(&enumerated, &config, &Null)
            .expect("scoring runs");
        let race = SoundnessIncident::DataRace {
            buffer: "out".to_string(),
            index: 3,
            writers: [0, 1],
            epoch: 0,
        };
        let verdict = search
            .scores
            .executed
            .values_mut()
            .find(|verdict| matches!(verdict, Verdict::Scored(_)))
            .expect("a launch validated");
        *verdict = Verdict::Rejected(ScoreError::Unsound(Box::new(race.clone())));
        let recalled = search
            .score(&enumerated, &config, &Null)
            .expect("scoring runs");
        assert_eq!(recalled.reused_kernels, recalled.executed_kernels);
        assert!(recalled.rejected_race >= 1);
        assert!(recalled
            .soundness
            .dynamic_rejections
            .iter()
            .all(|incident| *incident == race));
        assert_eq!(
            recalled.soundness.dynamic_rejections.len(),
            recalled.rejected_race
        );
        assert!(sound.soundness.is_clean());
    }

    /// A dot-product search scored at `d1(16, 4)`, and the configuration of a second launch,
    /// `d1(32, 4)`, that answers the code generator's questions alike but is another launch.
    fn scored_at_two_launches() -> (Search, Enumerated, ExplorationConfig, ExplorationConfig) {
        let program = high_level_partial_dot(512);
        let config = ExplorationConfig {
            max_depth: 5,
            beam_width: 32,
            max_candidates: 1500,
            rule_options: RuleOptions {
                split_sizes: vec![2, 4],
                vector_widths: vec![4],
                tile_sizes: vec![],
            },
            launch: LaunchConfig::d1(16, 4),
            best_n: 3,
            ..ExplorationConfig::default()
        };
        let wider = ExplorationConfig {
            launch: LaunchConfig::d1(32, 4),
            ..config.clone()
        };
        let mut search = Search::new(&program, &config.sizes, &Null).expect("input types");
        let enumerated = search.enumerate(&config, &Null).expect("enumeration runs");
        let first = search
            .score(&enumerated, &config, &Null)
            .expect("scoring runs");
        assert_eq!(first.reused_compiles, 0);
        (search, enumerated, config, wider)
    }

    #[test]
    fn a_recalled_candidate_runs_its_launch_without_compiling_again() {
        let (mut search, enumerated, _, wider) = scored_at_two_launches();
        let again = search
            .score(&enumerated, &wider, &Null)
            .expect("scoring runs");
        // Every compilation holds for the second launch, and some of its launches run.
        assert_eq!(again.reused_compiles, again.lowered);
        assert!(again.reused_kernels < again.executed_kernels);
        // The variants are those of a fresh memo, which compiles every candidate.
        let fresh = enumerated.score(&wider).expect("scoring runs");
        assert_eq!(fresh.reused_compiles, 0);
        assert!(!fresh.variants.is_empty());
        assert_eq!(again.variants.len(), fresh.variants.len());
        for (a, b) in again.variants.iter().zip(&fresh.variants) {
            assert_eq!(a.kernel_source, b.kernel_source);
            assert_eq!(a.estimated_time.to_bits(), b.estimated_time.to_bits());
            assert_eq!(a.derivation, b.derivation);
            assert_eq!(a.stage_names, b.stage_names);
            assert_eq!(a.program.to_string(), b.program.to_string());
        }
    }

    #[test]
    fn the_kept_program_is_what_compiling_the_candidate_again_gives() {
        let (mut search, enumerated, config, wider) = scored_at_two_launches();
        search
            .score(&enumerated, &wider, &Null)
            .expect("scoring runs");
        let mut kept = 0;
        for config in [&config, &wider] {
            let options = launch_options(config);
            let context = search.scores.context(config, &enumerated.data);
            for cand in &enumerated.complete {
                let recorded = search.scores.compiled[&(context, cand.key)]
                    .iter()
                    .find(|c| c.trace.holds_for(&options))
                    .expect("every candidate's compilation is on record");
                let program = typecheck_candidate(cand).expect("a lowered candidate types");
                let (fresh, trace) = compile_typed(&program, &options);
                assert_eq!(trace, recorded.trace);
                match (&recorded.outcome, fresh) {
                    (Ok(recorded), Ok(fresh)) => {
                        assert_eq!(recorded.program, fresh);
                        kept += 1;
                    }
                    (Err(recorded), Err(fresh)) => {
                        assert_eq!(format!("{recorded:?}"), format!("{fresh:?}"));
                    }
                    (recorded, fresh) => {
                        panic!("recorded {recorded:?}, compiled again {fresh:?}")
                    }
                }
            }
        }
        assert!(kept > 0);
    }

    #[test]
    fn the_launch_key_covers_source_arguments_and_plan() {
        let data = ScoreData {
            sizes: Environment::new(),
            inputs: vec![vec![1.0, 2.0]],
            input_hashes: vec![hash_floats(&[1.0, 2.0])],
            reference: vec![3.0],
            fingerprint: 0,
        };
        let stages = |kernel: &str, parallel| {
            vec![KernelStage {
                name: kernel.to_string(),
                parallel,
            }]
        };
        let args = vec![KernelArg::Buffer(vec![1.0, 2.0]), KernelArg::Int(2)];
        let seed = LaunchSeed::new("kernel void k() {}", &args, &stages("k", true), &data);
        let key = ExecKey::new(0, &seed, LaunchConfig::d1(16, 4));
        assert_eq!(key, ExecKey::new(0, &seed, LaunchConfig::d1(16, 4)));
        // The same source and arguments under another launch plan is another launch —
        // unless the stage is sequential, which launches one work item whatever is asked.
        assert_ne!(key, ExecKey::new(0, &seed, LaunchConfig::d1(32, 4)));
        let sequential = LaunchSeed::new("kernel void k() {}", &args, &stages("k", false), &data);
        assert_eq!(
            ExecKey::new(0, &sequential, LaunchConfig::d1(16, 4)),
            ExecKey::new(0, &sequential, LaunchConfig::d1(32, 4))
        );
        assert_ne!(key, ExecKey::new(0, &sequential, LaunchConfig::d1(16, 4)));
        let other = |source: &str, args: &[KernelArg], kernel: &str| {
            let seed = LaunchSeed::new(source, args, &stages(kernel, true), &data);
            ExecKey::new(0, &seed, LaunchConfig::d1(16, 4))
        };
        assert_ne!(key, other("kernel void j() {}", &args, "k"));
        assert_ne!(key, other("kernel void k() {}", &args[..1], "k"));
        assert_ne!(key, other("kernel void k() {}", &args, "j"));
        assert_ne!(key, ExecKey::new(1, &seed, LaunchConfig::d1(16, 4)));
        // An argument equal to an input takes the input's precomputed hash; the shortcut
        // compares bit patterns, so `-0.0` is not mistaken for `0.0`.
        assert_eq!(data.buffer_hash(&[1.0, 2.0]), hash_floats(&[1.0, 2.0]));
        let zero = ScoreData {
            inputs: vec![vec![0.0]],
            input_hashes: vec![hash_floats(&[0.0])],
            ..data
        };
        assert_ne!(zero.buffer_hash(&[-0.0]), zero.buffer_hash(&[0.0]));
    }

    #[test]
    fn ranking_keeps_discovery_order_among_equal_times() {
        let mut ranked = [(2.0, 0), (1.0, 3), (1.0, 1), (f64::NAN, 2), (1.0, 2)];
        ranked.sort_unstable_by(rank_order);
        assert_eq!(
            ranked.iter().map(|r| r.1).collect::<Vec<_>>(),
            [1, 2, 3, 0, 2]
        );

        // Whether a verdict was measured or recalled does not enter the ranking: a memo that
        // holds half of an enumeration's verdicts (recorded through an overlapping
        // enumeration) ranks like a fresh one, equal times included.
        let program = high_level_partial_dot(512);
        let config = ExplorationConfig {
            max_depth: 5,
            beam_width: 32,
            max_candidates: 1500,
            rule_options: RuleOptions {
                split_sizes: vec![2, 4],
                vector_widths: vec![4],
                tile_sizes: vec![],
            },
            launch: LaunchConfig::d1(16, 4),
            best_n: usize::MAX,
            ..ExplorationConfig::default()
        };
        let narrow = ExplorationConfig {
            rule_options: RuleOptions {
                split_sizes: vec![4],
                ..config.rule_options.clone()
            },
            ..config.clone()
        };
        let mut search = Search::new(&program, &config.sizes, &Null).expect("input types");
        let enumerated = search.enumerate(&narrow, &Null).expect("enumeration runs");
        search
            .score(&enumerated, &narrow, &Null)
            .expect("scoring runs");
        let enumerated = search.enumerate(&config, &Null).expect("enumeration runs");
        let mixed = search
            .score(&enumerated, &config, &Null)
            .expect("scoring runs");
        let fresh = enumerated.score(&config).expect("scoring runs");
        assert!(0 < mixed.reused_compiles && mixed.reused_compiles < mixed.lowered);
        let order = |e: &Exploration| -> Vec<(u64, Vec<DerivationStep>)> {
            e.variants
                .iter()
                .map(|v| (v.estimated_time.to_bits(), v.derivation.clone()))
                .collect()
        };
        assert_eq!(order(&mixed), order(&fresh));
        let times: Vec<f64> = fresh.variants.iter().map(|v| v.estimated_time).collect();
        assert!(
            times.windows(2).any(|pair| pair[0] == pair[1]),
            "the probe should contain equal-time variants"
        );
    }

    #[test]
    fn race_detection_is_on_by_default_and_does_not_change_winners() {
        let program = high_level_partial_dot(512);
        let config = ExplorationConfig {
            max_depth: 5,
            beam_width: 32,
            max_candidates: 1500,
            rule_options: RuleOptions {
                split_sizes: vec![2, 4],
                vector_widths: vec![4],
                tile_sizes: vec![],
            },
            launch: LaunchConfig::d1(16, 4),
            best_n: 3,
            ..ExplorationConfig::default()
        };
        assert!(config.detect_races);
        let enumerated = enumerate(&program, &config).expect("enumeration runs");
        let detected = enumerated.score(&config).expect("scoring runs");
        let plain = enumerated
            .score(&ExplorationConfig {
                detect_races: false,
                ..config
            })
            .expect("scoring runs");
        // Sound derivations are unaffected by the detector: same winners, same scores,
        // and nothing was rejected for a dynamic soundness reason.
        assert!(!detected.variants.is_empty());
        assert_eq!(detected.variants.len(), plain.variants.len());
        for (a, b) in detected.variants.iter().zip(&plain.variants) {
            assert_eq!(a.kernel_source, b.kernel_source);
            assert_eq!(a.estimated_time, b.estimated_time);
        }
        assert_eq!(detected.rejected_race, 0);
        assert_eq!(detected.rejected_divergence, 0);
        assert!(detected.soundness.is_clean());
    }

    #[test]
    fn scoring_under_other_sizes_than_the_search_is_a_typed_error() {
        // The crate-doc `square`, over a symbolic length: its inputs and reference are
        // generated under the search's binding, so only that binding can validate anything.
        let mut p = Program::new("square");
        let mult = p.user_fun(UserFun::mult());
        let sq = p.lambda(&["v"], |p, params| p.apply(mult, [params[0], params[0]]));
        let m = p.map(sq);
        let n = lift_arith::ArithExpr::size_var("N");
        p.with_root(vec![("x", Type::array(Type::float(), n))], |p, params| {
            p.apply1(m, params[0])
        });
        let at = |n| ExplorationConfig {
            launch: LaunchConfig::d1(16, 4),
            sizes: Environment::new().bind("N", n),
            ..ExplorationConfig::default()
        };
        let same = enumerate(&p, &at(64)).unwrap().score(&at(64)).unwrap();
        assert_eq!(
            (same.lowered, same.variants.len(), same.rejected_incorrect),
            (3, 3, 0)
        );
        for (searched, scored) in [(64, 128), (128, 64)] {
            let enumerated = enumerate(&p, &at(searched)).expect("enumeration runs");
            assert_eq!(enumerated.lowered(), 3);
            assert!(matches!(
                enumerated.score(&at(scored)),
                Err(ExploreError::Sizes)
            ));
        }
    }

    #[test]
    fn exploration_rejects_untypeable_input() {
        let p = Program::new("empty");
        assert!(explore(&p, &ExplorationConfig::default()).is_err());
    }

    #[test]
    fn dedup_keys_are_eight_bytes() {
        // The `seen` set retains exactly one `DedupKey` per distinct candidate: its payload
        // memory is bounded by 8 bytes × candidates, not by candidate renderings.
        assert_eq!(std::mem::size_of::<DedupKey>(), 8);
    }
}
