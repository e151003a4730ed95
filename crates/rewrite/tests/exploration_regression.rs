//! Regression tests for the exploration hot path: the parallel driver must be
//! indistinguishable from the sequential one, the canonical structural hash must agree with
//! the pretty-printed rendering it replaced as the dedup key, and the three drivers of the
//! one typing-rule statement (arena checker, term checker, site walker) must agree.

use std::collections::HashSet;

use lift_benchmarks::dot_product;
use lift_ir::{infer_types, ExprId, ExprKind, FunDecl, Program};
use lift_rewrite::{
    all_rules, canonical_key, explore, explore_with, get, replace, sites, typecheck,
    ExplorationConfig, RuleCx, RuleOptions, Step, Term,
};
use lift_telemetry::InMemory;
use lift_vgpu::LaunchConfig;

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
    let collected = explore_with(&program, &config, &collector).expect("collected runs");
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
    let traced = explore_with(
        &program,
        &ExplorationConfig {
            trace_rejections: true,
            ..config.clone()
        },
        &tracing,
    )
    .expect("traced runs");
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
            (best.estimated_time - 19039.903).abs() < 1e-2,
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
