//! Regression tests for the exploration hot path: the parallel driver must be
//! indistinguishable from the sequential one, the canonical structural hash must agree with
//! the pretty-printed rendering it replaced as the dedup key, and the three drivers of the
//! one typing-rule statement (arena checker, term checker, site walker) must agree.

use std::collections::HashSet;

use lift_benchmarks::dot_product;
use lift_ir::{infer_types, ExprId, ExprKind, FunDecl, Program};
use lift_rewrite::{
    all_rules, canonical_key, explore, get, replace, sites, typecheck, Exploration,
    ExplorationConfig, RuleCx, RuleOptions, Search, Step, Term,
};
use lift_telemetry::InMemory;
use lift_vgpu::LaunchConfig;

/// [`explore`] through one [`Search`] that reports to `sink`.
fn explore_traced(program: &Program, config: &ExplorationConfig, sink: &InMemory) -> Exploration {
    let mut search = Search::new(program, &config.sizes, sink).expect("input types");
    let enumerated = search.enumerate(config, sink).expect("enumeration runs");
    search
        .score(&enumerated, config, sink)
        .expect("scoring runs")
}

fn search_config(threads: usize) -> ExplorationConfig {
    ExplorationConfig {
        max_depth: 5,
        beam_width: 48,
        max_candidates: 4000,
        rule_options: RuleOptions {
            split_sizes: vec![2, 4],
            vector_widths: vec![4],
            tile_sizes: vec![],
        },
        launch: LaunchConfig::d1(16, 4),
        best_n: 4,
        threads,
        ..ExplorationConfig::default()
    }
}

#[test]
fn parallel_exploration_equals_sequential_exploration() {
    let program = dot_product::high_level_program(512);
    let sequential = explore(&program, &search_config(1)).expect("sequential runs");
    let parallel = explore(&program, &search_config(4)).expect("parallel runs");

    // Identical statistics…
    assert_eq!(sequential.explored, parallel.explored);
    assert_eq!(sequential.rejected_typecheck, parallel.rejected_typecheck);
    assert_eq!(sequential.dedup_hits, parallel.dedup_hits);
    assert_eq!(sequential.rejected_compile, parallel.rejected_compile);
    assert_eq!(sequential.rejected_incorrect, parallel.rejected_incorrect);
    assert_eq!(sequential.lowered, parallel.lowered);
    assert_eq!(sequential.executed_kernels, parallel.executed_kernels);

    // …and an identical variant list: same programs, same derivation chains (rule names and
    // locations, in order), same estimated times, in the same order.
    assert_eq!(sequential.variants.len(), parallel.variants.len());
    assert!(!sequential.variants.is_empty(), "search found variants");
    for (s, p) in sequential.variants.iter().zip(&parallel.variants) {
        assert_eq!(s.program.to_string(), p.program.to_string());
        assert_eq!(s.kernel_source, p.kernel_source);
        assert_eq!(s.estimated_time, p.estimated_time);
        let s_steps: Vec<_> = s.derivation.iter().map(|d| (d.rule, &d.location)).collect();
        let p_steps: Vec<_> = p.derivation.iter().map(|d| (d.rule, &d.location)).collect();
        assert_eq!(s_steps, p_steps);
    }
}

/// The exploration outcome reduced to everything observable: statistics, variant programs,
/// kernels, times and derivation chains.
fn fingerprint(result: &lift_rewrite::Exploration) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "explored={} typecheck={} dedup={} compile={} incorrect={} lowered={} kernels={}\n",
        result.explored,
        result.rejected_typecheck,
        result.dedup_hits,
        result.rejected_compile,
        result.rejected_incorrect,
        result.lowered,
        result.executed_kernels,
    );
    for v in &result.variants {
        let chain: Vec<String> = v
            .derivation
            .iter()
            .map(|s| format!("{} @ {}", s.rule, s.location))
            .collect();
        let _ = writeln!(
            out,
            "t={} chain=[{}]\n{}\n{}",
            v.estimated_time,
            chain.join("; "),
            v.program,
            v.kernel_source
        );
    }
    out
}

#[test]
fn an_enabled_collector_does_not_change_exploration_results() {
    // Telemetry is observability, not behaviour: the default Null-collector path, an
    // enabled in-memory collector, and an enabled collector with per-rejection tracing must
    // all produce byte-identical exploration outcomes.
    let program = dot_product::high_level_program(512);
    let config = search_config(4);
    let null_path = explore(&program, &config).expect("null-collector exploration runs");

    let collector = InMemory::new();
    let collected = explore_traced(&program, &config, &collector);
    assert_eq!(fingerprint(&null_path), fingerprint(&collected));
    let events = collector.into_events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.event, lift_telemetry::Event::BeamRound { .. })),
        "the enabled collector observed beam rounds"
    );
    assert!(
        !events
            .iter()
            .any(|e| matches!(e.event, lift_telemetry::Event::Rejection { .. })),
        "rejection events stay off unless trace_rejections is set"
    );

    let tracing = InMemory::new();
    let traced = explore_traced(
        &program,
        &ExplorationConfig {
            trace_rejections: true,
            ..config.clone()
        },
        &tracing,
    );
    assert_eq!(fingerprint(&null_path), fingerprint(&traced));
    assert!(
        tracing
            .into_events()
            .iter()
            .any(|e| matches!(e.event, lift_telemetry::Event::Rejection { .. })),
        "trace_rejections surfaces per-site rejection events"
    );
}

#[test]
fn null_collector_results_match_the_committed_baseline() {
    // The deterministic outcome of the dot-product probe at both candidate budgets:
    // candidate count, variant count, best cost, every best chain in rank order and a clean
    // soundness report. These constants are the committed baseline; the search is seeded,
    // so any drift is a change in the rules, the beam or the cost model, and instrumentation
    // must not perturb any of it.
    const GLB: &str = "map-to-mapGlb @ .arg0.arg0.arg0";
    const SEQ: &str = "reduce-to-reduceSeq @ .arg0.fun1.body";
    const WRG_OUTER: &str = "map-to-mapWrg-mapLcl @ .arg0";
    const WRG_INNER: &str = "map-to-mapWrg-mapLcl @ .arg0.arg0.arg0";
    let probes: [(usize, usize, [&[&str]; 4]); 2] = [
        (
            500,
            500,
            [
                &[GLB, SEQ, WRG_OUTER],
                &[SEQ, WRG_INNER, WRG_OUTER],
                &[SEQ, WRG_INNER, WRG_OUTER],
                &[GLB, "map-to-mapSeq @ .arg0", SEQ],
            ],
        ),
        (
            4000,
            1036,
            [
                &[GLB, SEQ, WRG_OUTER],
                &[
                    GLB,
                    SEQ,
                    WRG_OUTER,
                    "wrap-toLocal @ .arg0.arg0.fun1.body.fun1.body",
                ],
                &[
                    GLB,
                    SEQ,
                    WRG_OUTER,
                    "wrap-toGlobal @ .arg0.arg0.fun1.body.fun1.body",
                ],
                &[
                    GLB,
                    SEQ,
                    WRG_OUTER,
                    "wrap-toPrivate @ .arg0.arg0.fun1.body.fun1.body",
                ],
            ],
        ),
    ];
    let program = dot_product::high_level_program(512);
    for (max_candidates, explored, chains) in probes {
        let config = ExplorationConfig {
            max_candidates,
            ..search_config(4)
        };
        let result = explore(&program, &config).expect("exploration runs");
        assert_eq!(result.explored, explored, "budget {max_candidates}");
        assert!(result.soundness.is_clean(), "budget {max_candidates}");
        let best = &result.variants[0];
        assert!(
            (best.estimated_time - 18283.741).abs() < 1e-2,
            "budget {max_candidates}: best estimated time drifted: {}",
            best.estimated_time
        );
        let found: Vec<Vec<String>> = result
            .variants
            .iter()
            .map(|v| {
                v.derivation
                    .iter()
                    .map(|s| format!("{} @ {}", s.rule, s.location))
                    .collect()
            })
            .collect();
        assert_eq!(found, chains, "budget {max_candidates}");
    }
}

/// Enumerates every term derivable from `term` by one rule application, in the driver's
/// site-major, rule-minor order.
fn derive_once(term: &Term, options: &RuleOptions) -> Vec<Term> {
    let mut out = Vec::new();
    for site in sites(term) {
        let Some(site_expr) = get(&term.body, &site.location) else {
            continue;
        };
        for rule in all_rules() {
            let mut fresh = term.fresh;
            let rewrites = {
                let mut cx = RuleCx {
                    context: site.context,
                    arg_types: &site.arg_types,
                    env: &site.env,
                    options,
                    fresh: &mut fresh,
                };
                rule.applications(site_expr, &mut cx)
            };
            for replacement in rewrites {
                let Some(body) = replace(&term.body, &site.location, replacement) else {
                    continue;
                };
                out.push(Term {
                    name: term.name.clone(),
                    params: term.params.clone(),
                    body: lift_rewrite::beta_normalize(&body),
                    fresh,
                });
            }
        }
    }
    out
}

/// All candidates reachable from the dot-product program within two rule applications —
/// a few hundred terms covering every rule family.
fn two_level_candidates() -> Vec<Term> {
    let mut program = dot_product::high_level_program(512);
    infer_types(&mut program).expect("input types");
    let root = Term::from_program(&program).expect("converts");
    let options = RuleOptions {
        split_sizes: vec![2, 4],
        vector_widths: vec![4],
        tile_sizes: vec![lift_rewrite::TileSize::d1(2), lift_rewrite::TileSize::d1(4)],
    };
    let mut all = vec![root.clone()];
    let depth1 = derive_once(&root, &options);
    for t in depth1.iter().take(40) {
        all.extend(derive_once(t, &options));
    }
    all.extend(depth1);
    all
}

#[test]
fn structural_hash_equality_implies_rendering_equality() {
    // The dedup key replaced `Program::to_string()` in a `HashSet<String>`; soundness of
    // that replacement is exactly this implication (the converse — distinct renderings get
    // distinct keys — is what makes the dedup no coarser than before, checked here too).
    let candidates = two_level_candidates();
    assert!(candidates.len() > 200, "generator produced a real corpus");
    let mut by_key: std::collections::HashMap<u64, String> = std::collections::HashMap::new();
    let mut renderings: HashSet<String> = HashSet::new();
    let mut distinct_keys: HashSet<u64> = HashSet::new();
    for term in &candidates {
        let key = term.dedup_key();
        let rendering = render(term);
        match by_key.get(&key) {
            Some(existing) => assert_eq!(
                existing, &rendering,
                "hash collision: same key, different renderings"
            ),
            None => {
                by_key.insert(key, rendering.clone());
            }
        }
        renderings.insert(rendering);
        distinct_keys.insert(key);
    }
    assert_eq!(
        renderings.len(),
        distinct_keys.len(),
        "the key must be exactly as discriminating as the rendering"
    );

    // The canonical pretty-rendering (what `canonical_key` stores as the cache's collision
    // guard) must be at least as discriminating as the 8-byte key on the same corpus: two
    // hash-equal terms always carry equal guards, so a guard mismatch in the cache proves
    // a collision rather than ever serving a wrong entry.
    let mut by_key_pretty: std::collections::HashMap<u64, String> =
        std::collections::HashMap::new();
    for term in &candidates {
        match by_key_pretty.entry(term.dedup_key()) {
            std::collections::hash_map::Entry::Occupied(e) => assert_eq!(
                e.get(),
                &term.pretty(),
                "hash collision: same key, different canonical renderings"
            ),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(term.pretty());
            }
        }
    }
}

#[test]
fn canonical_keys_pair_the_hash_with_its_guard_rendering_and_skeleton() {
    // The service cache addresses entries by `canonical_key`: the structural hash, the
    // full canonical rendering (collision guard) and the knob-erased pattern skeleton
    // (warm-start similarity). The triple must be deterministic and agree field-by-field
    // with the term-level functions it is assembled from.
    let program = dot_product::high_level_program(512);
    let key = canonical_key(&program).expect("the dot product keys");
    assert_eq!(
        key,
        canonical_key(&program).expect("keying is deterministic")
    );

    let mut typed = program.clone();
    infer_types(&mut typed).expect("input types");
    let term = Term::from_program(&typed).expect("converts");
    assert_eq!(key.hash, term.dedup_key());
    assert_eq!(key.rendering, term.pretty());
    assert_eq!(key.skeleton, term.skeleton());

    // A different problem size is a different program (hash and guard both move), but the
    // pattern skeleton — every numeric knob erased — is shared, which is exactly what lets
    // the service warm-start across differently sized instances of the same shape.
    let resized = canonical_key(&dot_product::high_level_program(1024)).expect("keys");
    assert_ne!(key.hash, resized.hash);
    assert_ne!(key.rendering, resized.rendering);
    assert_eq!(key.skeleton, resized.skeleton);

    // Skeletons are strictly coarser than renderings over the rule corpus: derivations
    // that differ only in knobs (split 2 vs split 4) merge.
    let candidates = two_level_candidates();
    let renderings: HashSet<String> = candidates.iter().map(render).collect();
    let skeletons: HashSet<String> = candidates.iter().map(Term::skeleton).collect();
    assert!(skeletons.len() > 1, "the corpus spans several shapes");
    assert!(
        skeletons.len() < renderings.len(),
        "skeletons ({}) must merge knob variants of the {} renderings",
        skeletons.len(),
        renderings.len()
    );
}

/// The per-pattern rules are one function (`lift_ir::pattern_type`) that both checkers call,
/// so they cannot drift apart. What still differs is the driver around it: the arena checker
/// annotates parameter nodes in place, the term checker keeps a lexical stack of names. A
/// scoping bug in either (shadowing, a binding that outlives its lambda) is the one thing
/// this comparison can still catch.
#[test]
fn term_typechecker_agrees_with_arena_typechecker() {
    let candidates = two_level_candidates();
    let mut accepted = 0usize;
    for term in &candidates {
        let term_verdict = typecheck(term).is_ok();
        let mut program = term.to_program();
        let arena_verdict = infer_types(&mut program).is_ok();
        assert_eq!(
            term_verdict,
            arena_verdict,
            "typechecker disagreement on:\n{}",
            render(term)
        );
        accepted += usize::from(term_verdict);
    }
    assert!(accepted > 100, "corpus contains many well-typed candidates");
}

/// The arena expression a tree location addresses, or `None` where `to_program` contracted
/// the eta-lambda the location passes through (`λx. p(x)` nested in a pattern becomes the
/// bare `p`, whose application is no longer an expression node).
fn arena_expr_at(program: &Program, location: &[Step]) -> Option<ExprId> {
    let mut at = program.root_body();
    for step in location {
        let ExprKind::FunCall { f, args } = &program.expr(at).kind else {
            panic!("location {location:?} leaves the call tree");
        };
        at = match step {
            Step::Arg(i) => args[*i],
            Step::Body { peel } => {
                let mut decl = *f;
                for _ in 0..*peel {
                    let FunDecl::Pattern(p) = program.decl(decl) else {
                        panic!("location {location:?} peels a non-pattern");
                    };
                    decl = p.nested_fun().expect("peeled patterns nest a function");
                }
                match program.decl(decl) {
                    FunDecl::Lambda { body, .. } => *body,
                    _ => return None,
                }
            }
        };
    }
    Some(at)
}

/// The site walker is the third driver of the typing rules: rules read `Site::arg_types` to
/// pick split factors and tile sizes, so a wrong type there derives a wrong program. On every
/// candidate the enumeration gate admits — the only terms `sites()` is ever handed — each
/// recorded argument type must be the type the arena checker annotates on that argument.
#[test]
fn site_argument_types_equal_the_arena_annotations() {
    let (mut compared, mut contracted) = (0usize, 0usize);
    for term in two_level_candidates() {
        if typecheck(&term).is_err() {
            continue;
        }
        let mut program = term.to_program();
        infer_types(&mut program).expect("the checkers agree on admitted candidates");
        for site in sites(&term) {
            // An iterated body is typed once per iteration: the walker records the first
            // iteration's types, the arena keeps the last one's.
            if site.context.inside_iterate {
                continue;
            }
            let Some(call) = arena_expr_at(&program, &site.location) else {
                contracted += 1;
                continue;
            };
            let ExprKind::FunCall { args, .. } = &program.expr(call).kind else {
                panic!("site {:?} is not an application", site.location);
            };
            assert_eq!(args.len(), site.arg_types.len());
            for (arg, recorded) in args.iter().zip(&site.arg_types) {
                assert_eq!(
                    recorded.as_ref(),
                    Some(program.type_of(*arg)),
                    "site {:?} of:\n{}",
                    site.location,
                    render(&term)
                );
                compared += 1;
            }
        }
    }
    assert!(compared > 2000, "only {compared} argument types compared");
    assert!(
        contracted < compared,
        "{contracted} sites had no arena counterpart"
    );
}

fn render(term: &Term) -> String {
    let mut program: Program = term.to_program();
    // Render after inference, like the old dedup key did (inference only annotates).
    let _ = infer_types(&mut program);
    program.to_string()
}

// --------------------------------------------------------------- what the memos key by
//
// The run-scoped memos recall by what a computation *read*: a rule application by the
// option lists it was handed, a compilation by the launch comparisons it made. Both logs
// are only as good as their completeness, which these properties pin: nothing the result
// depends on goes unlogged.

mod memo_keys {
    use std::sync::OnceLock;

    use lift_benchmarks::{dot_product, mm};
    use lift_codegen::{compile_program_traced, CompilationOptions};
    use lift_ir::infer_types;
    use lift_rewrite::{
        all_rules, enumerate, get, sites, typecheck, ExplorationConfig, OptionAxes, RuleCx,
        RuleOptions, Search, Term, TileSize,
    };
    use lift_telemetry::Null;
    use lift_vgpu::{DeviceProfile, LaunchConfig};
    use proptest::prelude::*;

    use super::{search_config, two_level_candidates};

    /// The fully lowered candidates of the dot-product probe (1D work-item and work-group
    /// maps) and of the tiled matrix multiply (2D `mapWrg`/`mapLcl` nests), typed.
    fn lowered_corpus() -> &'static [lift_ir::Program] {
        static CORPUS: OnceLock<Vec<lift_ir::Program>> = OnceLock::new();
        CORPUS.get_or_init(|| {
            let tiled = ExplorationConfig {
                rule_options: RuleOptions {
                    split_sizes: vec![2, 4],
                    vector_widths: vec![4],
                    tile_sizes: vec![TileSize::d2(4, 4)],
                },
                ..search_config(1)
            };
            let searches = [
                (dot_product::high_level_program(512), search_config(1)),
                (mm::high_level_program(16, 16, 16), tiled),
            ];
            let mut corpus = Vec::new();
            for (program, config) in searches {
                let enumerated = enumerate(&program, &config).expect("enumeration runs");
                for (term, _) in enumerated.lowered_candidates() {
                    let mut program = term.to_program();
                    if infer_types(&mut program).is_ok() {
                        corpus.push(program);
                    }
                }
            }
            assert!(corpus.len() > 100, "the searches lower a real corpus");
            corpus
        })
    }

    /// A launch of up to 16 × 16 work items per group in up to 16 × 16 groups: valid on both
    /// device profiles by construction.
    fn launch() -> impl Strategy<Value = LaunchConfig> {
        (0u32..5, 0u32..5, 0u32..5, 0u32..5).prop_map(|(lx, ly, gx, gy)| {
            let (lx, ly) = (1usize << lx, 1usize << ly);
            LaunchConfig::d2((lx << gx, ly << gy), (lx, ly))
        })
    }

    fn options_at(launch: LaunchConfig) -> CompilationOptions {
        CompilationOptions::all_optimisations().with_launch(launch.global, launch.local)
    }

    /// Up to three elements of `pool`, as an option list.
    fn list_of<T: Copy + 'static>(pool: &'static [T]) -> impl Strategy<Value = Vec<T>> {
        proptest::collection::vec(0..pool.len(), 0..4)
            .prop_map(move |picks| picks.into_iter().map(|i| pool[i]).collect())
    }

    fn rule_options() -> impl Strategy<Value = RuleOptions> {
        const TILES: &[TileSize] = &[
            TileSize::d1(2),
            TileSize::d1(4),
            TileSize::d1(8),
            TileSize::d2(4, 4),
        ];
        (
            list_of(&[2i64, 3, 4, 8, 16, 128]),
            list_of(&[2usize, 4, 8]),
            list_of(TILES),
        )
            .prop_map(|(split_sizes, vector_widths, tile_sizes)| RuleOptions {
                split_sizes,
                vector_widths,
                tile_sizes,
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// A compilation repeats — same source, or same error — under every launch its
        /// trace holds for.
        #[test]
        fn a_compilation_repeats_under_every_launch_its_trace_holds_for(
            pick in 0usize..1 << 16,
            a in launch(),
            b in launch(),
        ) {
            for device in [DeviceProfile::nvidia(), DeviceProfile::amd()] {
                prop_assert_eq!(device.validate_launch(&a), Ok(()));
            }
            let corpus = lowered_corpus();
            let program = &corpus[pick % corpus.len()];
            let (under_a, trace) = compile_program_traced(program, &options_at(a));
            prop_assert!(trace.holds_for(&options_at(a)), "a trace holds where it was recorded");
            let (under_b, trace_b) = compile_program_traced(program, &options_at(b));
            if trace.holds_for(&options_at(b)) {
                prop_assert_eq!(&trace, &trace_b, "{:?} vs {:?}", a, b);
                match (under_a, under_b) {
                    (Ok(x), Ok(y)) => prop_assert_eq!(x.source(), y.source(), "{:?} vs {:?}", a, b),
                    (Err(x), Err(y)) => prop_assert_eq!(x.to_string(), y.to_string()),
                    (x, y) => panic!("{a:?} gave {x:?} but {b:?} gave {y:?}"),
                }
            } else {
                // A launch that answers differently is told apart by its own trace.
                prop_assert_ne!(&trace, &trace_b, "{:?} vs {:?}", a, b);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Scoring under `b` through a memo that has scored under `a` returns what a fresh
        /// memo returns, and recalls no compilation whose trace does not hold for `b`.
        #[test]
        fn a_score_memo_recalls_a_compilation_only_where_its_trace_holds(
            a in launch(),
            b in launch(),
        ) {
            let program = dot_product::high_level_program(512);
            let config = ExplorationConfig { max_candidates: 500, ..search_config(1) };
            let mut search = Search::new(&program, &config.sizes, &Null).expect("input types");
            let enumerated = search.enumerate(&config, &Null).expect("enumeration runs");
            let at = |launch| ExplorationConfig { launch, ..config.clone() };
            search.score(&enumerated, &at(a), &Null).expect("scoring runs");
            let shared = search.score(&enumerated, &at(b), &Null).expect("scoring runs");
            let fresh = enumerated.score(&at(b)).expect("scoring runs");
            prop_assert_eq!(shared.rejected_compile, fresh.rejected_compile);
            prop_assert_eq!(shared.rejected_incorrect, fresh.rejected_incorrect);
            prop_assert_eq!(shared.rejected_unsound, fresh.rejected_unsound);
            prop_assert_eq!(shared.executed_kernels, fresh.executed_kernels);
            prop_assert_eq!(shared.variants.len(), fresh.variants.len());
            for (s, f) in shared.variants.iter().zip(&fresh.variants) {
                prop_assert_eq!(&s.kernel_source, &f.kernel_source);
                prop_assert_eq!(s.estimated_time.to_bits(), f.estimated_time.to_bits());
                prop_assert_eq!(&s.derivation, &f.derivation);
            }
            let holding = enumerated
                .lowered_candidates()
                .filter(|(term, _)| {
                    let mut program = term.to_program();
                    infer_types(&mut program).is_err()
                        || compile_program_traced(&program, &options_at(a))
                            .1
                            .holds_for(&options_at(b))
                })
                .count();
            prop_assert!(
                shared.reused_compiles <= holding,
                "{} compilations recalled, but only {holding} traces of {a:?} hold for {b:?}",
                shared.reused_compiles
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// At every site of the corpus, every rule gives the same rewrites under two option
        /// sets that differ only in a list it did not log a read of.
        #[test]
        fn a_rule_depends_on_an_option_list_only_if_it_logged_reading_it(
            base in rule_options(),
            other in rule_options(),
        ) {
            type Axis = (&'static str, fn(&OptionAxes) -> bool, fn(&RuleOptions, &RuleOptions) -> RuleOptions);
            let axes: [Axis; 3] = [
                ("split_sizes", |read| read.split_sizes, |base, other| RuleOptions {
                    split_sizes: other.split_sizes.clone(),
                    ..base.clone()
                }),
                ("vector_widths", |read| read.vector_widths, |base, other| RuleOptions {
                    vector_widths: other.vector_widths.clone(),
                    ..base.clone()
                }),
                ("tile_sizes", |read| read.tile_sizes, |base, other| RuleOptions {
                    tile_sizes: other.tile_sizes.clone(),
                    ..base.clone()
                }),
            ];
            let apply = |term: &Term, site: &lift_rewrite::Site, options: &RuleOptions, rule: &lift_rewrite::Rule| {
                let site_expr = get(&term.body, &site.location).expect("sites are addressable");
                let mut fresh = term.fresh;
                let mut cx = RuleCx {
                    context: site.context,
                    arg_types: &site.arg_types,
                    env: &site.env,
                    options,
                    fresh: &mut fresh,
                };
                let (rewrites, read) = rule.applications_logged(site_expr, &mut cx);
                (rewrites, fresh, read)
            };
            let mut reads = 0usize;
            for term in two_level_candidates().iter().filter(|t| typecheck(t).is_ok()) {
                for site in sites(term) {
                    for rule in all_rules() {
                        let (rewrites, fresh, read) = apply(term, &site, &base, rule);
                        reads += usize::from(read != OptionAxes::default());
                        for (axis, was_read, vary) in &axes {
                            if was_read(&read) {
                                continue;
                            }
                            let varied = apply(term, &site, &vary(&base, &other), rule);
                            prop_assert!(
                                (rewrites == varied.0) && fresh == varied.1 && read == varied.2,
                                "{} changed with {axis}, which it did not log reading",
                                rule.name
                            );
                        }
                    }
                }
            }
            prop_assert!(reads > 0, "the corpus has sites where rules read their options");
        }
    }
}
