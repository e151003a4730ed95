//! # Rewrite-rule engine and cost-guided exploration
//!
//! The Lift approach (and its companion paper *Generating Performance Portable Code using
//! Rewrite Rules*, Steuwer et al.) starts from *high-level*, backend-agnostic expressions
//! built from `map` and `reduce`, and derives OpenCL-specific implementations by applying
//! semantics-preserving rewrite rules. This crate supplies that missing front half of the
//! pipeline:
//!
//! * [`term`] — the tree-shaped program container rules pattern-match on (the pattern
//!   vocabulary is `lift_ir::Pattern` itself), with lossless conversions in both directions,
//! * [`traversal`] — location-based traversal: every application site, its enclosing
//!   parallel-pattern context and derived argument types,
//! * [`rules`] — the algorithmic rules (map fusion, split-join with arithmetically checked
//!   divisibility, partial reduction, iterate decomposition, data-layout identities) and the
//!   OpenCL lowering rules (`map` → `mapGlb` / `mapWrg ∘ mapLcl` / `mapSeq` / vectorised
//!   `mapVec`, `reduce` → `reduceSeq`, `toLocal`/`toGlobal`/`toPrivate` placement),
//! * [`mod@explore`] — the exploration driver: applies rules under a depth/width budget,
//!   re-typechecks every derived program, validates fully lowered candidates against the
//!   reference interpreter on the virtual GPU and ranks them with the analytical cost model,
//! * [`mod@provenance`] — replay and transcript rendering for recorded derivation chains.
//!
//! ```
//! use lift_ir::prelude::*;
//! use lift_rewrite::{explore, ExplorationConfig};
//! use lift_vgpu::LaunchConfig;
//!
//! // A high-level program: square every element (no OpenCL patterns anywhere).
//! let mut p = Program::new("square");
//! let mult = p.user_fun(UserFun::mult());
//! let sq = p.lambda(&["v"], |p, params| p.apply(mult, [params[0], params[0]]));
//! let m = p.map(sq);
//! p.with_root(vec![("x", Type::array(Type::float(), 64usize))], |p, params| {
//!     p.apply1(m, params[0])
//! });
//!
//! let config = ExplorationConfig {
//!     launch: LaunchConfig::d1(16, 4),
//!     ..ExplorationConfig::default()
//! };
//! let result = explore(&p, &config).expect("exploration runs");
//! assert!(!result.variants.is_empty());
//! // The best variant is fully lowered and compiled to OpenCL.
//! assert!(result.variants[0].kernel_source.contains("kernel void"));
//! ```
//!
//! # Telemetry
//!
//! A [`Search`] reports to the [`lift_telemetry::Collector`] each of its calls is handed:
//! [`Search::new`] an `interp.reference` span around the reference evaluation,
//! [`Search::enumerate`] an `enumerate` span with per-round beam statistics (`BeamRound`) and
//! per-rule fire/reject counts (`RuleRound`), and [`Search::score`] the scoring-phase spans
//! (`typecheck`/`compile`/`execute`/`score`), the `executed_kernels`, `reused_kernels` and
//! `pruned_kernels` counters and the ranked variants. The one-shot wrappers
//! ([`explore()`], [`enumerate`], [`Enumerated::score`]) use the `Null` collector, whose
//! disabled state reduces every instrumentation site to a branch — exploration throughput is
//! unchanged. Setting [`ExplorationConfig::trace_rejections`] additionally emits one
//! `Rejection` event (with its rendered site) per rejected rewrite.
//!
//! # Reading a derivation transcript
//!
//! Each returned [`Variant`] carries its derivation chain: one [`DerivationStep`] per
//! applied rule, with the rule name, its family (`Algorithmic` identity or OpenCL
//! `Lowering`), the structured site [`Location`] (rendered like `.arg0.fun1.body`: descend
//! into argument 0, then into the lambda body behind one pattern layer), and which
//! `alternative` the rule chose when it offered several (e.g. one per dividing split
//! factor). [`provenance::replay`] runs a chain back through the engine and reproduces the
//! exact derived term; [`provenance::explain`] renders the whole walkthrough:
//!
//! ```text
//! derivation of `dot` in 3 steps
//!
//! initial program:
//!     join (map (reduce add 0.0) (split 32 (map mult (zip x y))))
//!
//! step 1: apply map-to-mapGlb [Lowering] at .arg0 (alternative 0)
//!     join (mapGlb (reduce add 0.0) (split 32 (map mult (zip x y))))
//! ...
//! ```
//!
//! Read it top to bottom: every section shows the whole program *after* that rule fired, so
//! the transformation at each step is the diff between consecutive sections. The first
//! lowering decision is usually the interesting one — it fixes how work maps onto the
//! OpenCL thread hierarchy; everything after refines memory placement and sequential
//! residue. `examples/explain_dot_product.rs` prints this transcript for the paper's
//! Listing-1 dot product.

pub mod explore;
mod memo;
pub mod provenance;
pub mod rules;
pub mod term;
pub mod traversal;
pub mod typecheck;

pub use explore::{
    canonical_key, enumerate, explore, CanonicalKey, DedupKey, DerivationStep, Enumerated,
    Exploration, ExplorationConfig, ExploreError, Search, Variant,
};
pub use provenance::{explain, replay, ExplainedStep, Explanation, ReplayError};
pub use rules::{
    all_rules, divides, OptionAxes, Rule, RuleCx, RuleKind, RuleOptions, TileSize, RULE_SET_VERSION,
};
pub use term::{beta_normalize, StableHasher, Term, TermError, TermExpr, TermFun};
pub use traversal::{
    format_location, get, infer_type, replace, sites, Location, NestContext, Site, Step,
};
pub use typecheck::typecheck;
