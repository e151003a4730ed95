//! Differential properties of the two virtual-GPU execution engines.
//!
//! The bytecode tier must be observationally indistinguishable from the slotted
//! interpreter: same output buffers (bit for bit), same cost counters, same execution
//! profiles, and the same error taxonomy — with race detection on or off. This suite
//! checks that equivalence three ways:
//!
//! 1. **Gated workloads.** Every candidate the rewrite exploration derives from the seven
//!    tuned workloads scores identically on both engines (verdict counters, winners,
//!    estimated times compared bit for bit), and the bytecode tier runs every one of their
//!    kernels itself: no launch falls back to the interpreter.
//! 2. **Random derived kernels.** Randomly composed data-layout pipelines (the
//!    view-composition shapes whose index generation is the subtle part of the compiler)
//!    launch to bitwise-equal buffers and counters on both engines.
//! 3. **Error taxonomy.** A failing launch (out-of-bounds access) produces the same
//!    [`VgpuError`] value from both engines.
//! 4. **Budgets.** The cost bound a budgeted launch is stopped by never exceeds the exact
//!    time, and both engines stop a launch at the same row with the same bound.
//! 5. **The paper's evaluation.** Every Table 1 benchmark's hand-written reference kernel
//!    and its Lift kernel at each of Figure 8's optimisation levels run to bit-identical
//!    buffers and counters on both engines, and the bytecode tier runs every one itself.

use lift::benchmarks::runner::compile_case;
use lift::benchmarks::{all_benchmarks, mm, ProblemSize};
use lift::codegen::{compile_program, CompilationOptions, CompiledProgram};
use lift::ir::prelude::*;
use lift::rewrite::{
    all_rules, beta_normalize, get, replace, sites, typecheck, Exploration, ExplorationConfig,
    RuleCx, RuleOptions, Search, Term, TileSize,
};
use lift::telemetry::{Event, InMemory, Null};
use lift::tuner::Workload;
use lift::vgpu::{
    DeviceProfile, EngineSelection, ExecutionRequest, KernelArg, KernelLaunchSpec, LaunchConfig,
    SequenceResult, VgpuError,
};
use lift_arith::ArithExpr;
use lift_bench::autotune_config;
use proptest::prelude::*;

/// A launch every workload's lowered candidates execute correctly under (the virtual GPU
/// masks surplus work items, so a fixed grid works across problem sizes).
const LAUNCH: LaunchConfig = LaunchConfig {
    global: [64, 1, 1],
    local: [16, 1, 1],
};

fn workload_config(workload: &Workload, device: &DeviceProfile) -> ExplorationConfig {
    ExplorationConfig {
        rule_options: RuleOptions {
            split_sizes: vec![2, 4],
            vector_widths: vec![4],
            tile_sizes: workload.tile_sets.first().cloned().unwrap_or_default(),
        },
        launch: LAUNCH,
        ..autotune_config(workload, device).base
    }
}

/// Asserts two scored explorations are observationally identical, including the winners'
/// estimated times bit for bit.
fn assert_scored_identical(name: &str, a: &Exploration, b: &Exploration) {
    assert_eq!(a.explored, b.explored, "{name}: explored");
    assert_eq!(a.lowered, b.lowered, "{name}: lowered");
    assert_eq!(a.rejected_typecheck, b.rejected_typecheck, "{name}");
    assert_eq!(a.rejected_compile, b.rejected_compile, "{name}");
    assert_eq!(a.rejected_incorrect, b.rejected_incorrect, "{name}");
    assert_eq!(a.rejected_unsound, b.rejected_unsound, "{name}");
    assert_eq!(a.rejected_race, b.rejected_race, "{name}");
    assert_eq!(a.rejected_divergence, b.rejected_divergence, "{name}");
    assert_eq!(a.executed_kernels, b.executed_kernels, "{name}");
    assert_eq!(a.soundness, b.soundness, "{name}: soundness report");
    assert_eq!(a.variants.len(), b.variants.len(), "{name}: variant count");
    for (va, vb) in a.variants.iter().zip(&b.variants) {
        assert_eq!(va.kernel_source, vb.kernel_source, "{name}");
        assert_eq!(va.counters, vb.counters, "{name}: counters");
        assert_eq!(va.stage_counters, vb.stage_counters, "{name}");
        assert_eq!(va.stage_names, vb.stage_names, "{name}");
        assert_eq!(
            va.estimated_time.to_bits(),
            vb.estimated_time.to_bits(),
            "{name}: estimated time differs: {} vs {}",
            va.estimated_time,
            vb.estimated_time
        );
        assert_eq!(
            va.profile(&DeviceProfile::nvidia()),
            vb.profile(&DeviceProfile::nvidia()),
            "{name}: execution profile"
        );
    }
}

#[test]
fn gated_workloads_score_identically_on_both_engines() {
    let device = DeviceProfile::nvidia();
    for workload in Workload::all() {
        let config = workload_config(&workload, &device);
        // The engine is part of the score memo's context: the two sides share no verdict.
        let mut search = Search::new(&workload.program, &config.sizes, &Null).expect("types");
        let enumerated = search
            .enumerate(&config, &Null)
            .unwrap_or_else(|e| panic!("{}: enumeration fails: {e}", workload.name));
        for detect_races in [true, false] {
            let interp = enumerated
                .score(&ExplorationConfig {
                    engine: EngineSelection::Interpreter,
                    detect_races,
                    ..config.clone()
                })
                .unwrap_or_else(|e| panic!("{}: interpreter scoring fails: {e}", workload.name));
            let collector = InMemory::new();
            let bytecode = search
                .score(
                    &enumerated,
                    &ExplorationConfig {
                        engine: EngineSelection::Bytecode,
                        detect_races,
                        ..config.clone()
                    },
                    &collector,
                )
                .unwrap_or_else(|e| panic!("{}: bytecode scoring fails: {e}", workload.name));
            assert!(
                !interp.variants.is_empty(),
                "{}: no variant survived",
                workload.name
            );
            let label = format!("{} (detect_races={detect_races})", workload.name);
            assert_scored_identical(&label, &interp, &bytecode);

            // The collector did observe the scoring pass, and no kernel in it was handed
            // back to the interpreter.
            let events = collector.into_events();
            assert!(
                events
                    .iter()
                    .any(|e| e.event == Event::SpanBegin { name: "execute" }),
                "{label}: the collector saw no execute phase"
            );
            let fallbacks: Vec<&Event> = events
                .iter()
                .map(|e| &e.event)
                .filter(|e| matches!(e, Event::EngineFallback { .. }))
                .collect();
            assert!(fallbacks.is_empty(), "{label}: {fallbacks:?}");
        }
    }
}

/// Deterministic flat inputs for the root parameters of a typed program.
fn flat_inputs(program: &Program, sizes: &lift::arith::Environment) -> Vec<Vec<f32>> {
    program
        .root_params()
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let ty = program.expr(*p).ty.as_ref().expect("typed root parameter");
            let len = ty.element_count().evaluate(sizes).expect("sized");
            (0..len)
                .map(|j| ((j * 7 + i as i64 * 3) % 9) as f32 * 0.25 - 1.0)
                .collect()
        })
        .collect()
}

/// Runs `stages` on `engine`, under `budget` when one is given.
fn run_sequence(
    compiled: &CompiledProgram,
    stages: &[KernelLaunchSpec],
    args: &[KernelArg],
    device: &DeviceProfile,
    engine: EngineSelection,
    budget: Option<f64>,
) -> Result<SequenceResult, VgpuError> {
    let request = ExecutionRequest::new(&compiled.module)
        .on_device(device)
        .engine(engine);
    let request = match budget {
        Some(limit) => request.budget(limit),
        None => request,
    };
    request.launch_sequence(stages, args.to_vec())
}

/// The cost bound behind `ExecutionRequest::budget` is sound on every distinct kernel the
/// gated workloads' searches validate, on both device profiles: a launch budgeted at its
/// exact estimated time completes with unchanged buffers and counters, and a launch
/// budgeted at half of it either completes alike or is stopped — at the same row, with the
/// same lower bound, by both engines — with a lower bound no greater than its exact time.
#[test]
fn the_budget_bound_is_sound_and_both_engines_stop_alike() {
    let mut stopped = 0;
    for device in [DeviceProfile::nvidia(), DeviceProfile::amd()] {
        for workload in Workload::all() {
            let config = ExplorationConfig {
                best_n: usize::MAX,
                detect_races: false,
                ..workload_config(&workload, &device)
            };
            let scored = lift::rewrite::explore(&workload.program, &config).expect("scores");
            let mut sources = std::collections::HashSet::new();
            for variant in scored.variants {
                if !sources.insert(variant.kernel_source) {
                    continue;
                }
                let options = config
                    .compile_options
                    .clone()
                    .with_launch(LAUNCH.global, LAUNCH.local);
                let compiled = compile_program(&variant.program, &options).expect("compiles");
                let inputs = flat_inputs(&variant.program, &config.sizes);
                let (args, _) = compiled.bind_args(&inputs, &config.sizes).expect("binds");
                let stages = compiled.launch_plan(LAUNCH);
                let run = |engine, budget| {
                    run_sequence(&compiled, &stages, &args, &device, engine, budget)
                };
                let exact = run(EngineSelection::Interpreter, None).expect("runs");
                let time = exact.estimated_time(&device);
                let at = format!("{} on {}", workload.name, device.name);
                for engine in [EngineSelection::Interpreter, EngineSelection::Bytecode] {
                    assert_eq!(run(engine, Some(time)).as_ref(), Ok(&exact), "{at}");
                }
                let half = [EngineSelection::Interpreter, EngineSelection::Bytecode]
                    .map(|engine| run(engine, Some(time / 2.0)));
                assert_eq!(half[0], half[1], "{at}: the engines stop differently");
                match &half[0] {
                    Ok(completed) => assert_eq!(completed, &exact, "{at}"),
                    Err(VgpuError::OverBudget { lower_bound, .. }) => {
                        assert!(*lower_bound > time / 2.0 && *lower_bound <= time, "{at}");
                        stopped += 1;
                    }
                    Err(e) => panic!("{at}: {e}"),
                }
            }
        }
    }
    assert!(stopped > 0, "no launch was stopped at half its time");
}

/// Runs `stages` of `module` on `engine` under an `InMemory` collector, asserting that no
/// launch fell back to the interpreter.
fn run_without_fallback(
    label: &str,
    module: &lift::ocl::Module,
    stages: &[KernelLaunchSpec],
    args: Vec<KernelArg>,
    engine: EngineSelection,
) -> SequenceResult {
    let collector = InMemory::new();
    let result = ExecutionRequest::new(module)
        .engine(engine)
        .collector(&collector)
        .launch_sequence(stages, args)
        .unwrap_or_else(|e| panic!("{label}: {engine:?} fails: {e}"));
    let fallbacks: Vec<Event> = collector
        .into_events()
        .into_iter()
        .map(|e| e.event)
        .filter(|e| matches!(e, Event::EngineFallback { .. }))
        .collect();
    assert!(fallbacks.is_empty(), "{label}: {fallbacks:?}");
    result
}

/// Figure 8's evaluation on both engines: for every Table 1 benchmark, the hand-written
/// reference kernel and the Lift kernel at each of the three optimisation levels (each a
/// single kernel) produce bit-identical buffers and identical counters on the interpreter
/// and the bytecode tier, and no launch falls back.
#[test]
fn paper_benchmarks_run_identically_on_both_engines_without_fallback() {
    let levels = [
        ("none", CompilationOptions::none()),
        (
            "barrier+cf",
            CompilationOptions::without_array_access_simplification(),
        ),
        ("barrier+cf+array", CompilationOptions::all_optimisations()),
    ];
    for case in all_benchmarks(ProblemSize::Small) {
        let name = case.info.name;
        let reference = KernelLaunchSpec {
            kernel: case.reference_kernel.clone(),
            launch: case.launch,
        };
        let mut launches = vec![(
            format!("{name} reference"),
            case.reference_module.clone(),
            vec![reference],
            case.reference_args.clone(),
        )];
        for (level, options) in &levels {
            let label = format!("{name} at {level}");
            let compiled = compile_case(&case, options)
                .unwrap_or_else(|e| panic!("{label}: compile fails: {e}"));
            assert_eq!(compiled.kernels.len(), 1, "{label}");
            assert!(compiled.temp_buffers.is_empty(), "{label}");
            let (args, _) = compiled
                .bind_args(&case.inputs, &case.sizes)
                .expect("arguments bind");
            let stages = compiled.launch_plan(case.launch);
            launches.push((label, compiled.module, stages, args));
        }
        for (label, module, stages, args) in launches {
            let [interp, bytecode] = [EngineSelection::Interpreter, EngineSelection::Bytecode]
                .map(|engine| run_without_fallback(&label, &module, &stages, args.clone(), engine));
            assert_eq!(interp.buffers.len(), bytecode.buffers.len(), "{label}");
            for (x, y) in interp.buffers.iter().zip(&bytecode.buffers) {
                let x_bits: Vec<u32> = x.iter().map(|v| v.to_bits()).collect();
                let y_bits: Vec<u32> = y.iter().map(|v| v.to_bits()).collect();
                assert_eq!(x_bits, y_bits, "{label}: buffers differ");
            }
            assert_eq!(interp.reports, bytecode.reports, "{label}: counters differ");
        }
    }
}

/// One data-layout step applied before the parallel copy (mirrors the shapes of the
/// `differential_pipelines` suite).
#[derive(Clone, Debug)]
enum LayoutStep {
    Reverse,
    SplitJoin(usize),
    Stride(usize),
}

fn layout_step() -> impl Strategy<Value = LayoutStep> {
    prop_oneof![
        Just(LayoutStep::Reverse),
        prop_oneof![Just(2usize), Just(4), Just(8)].prop_map(LayoutStep::SplitJoin),
        prop_oneof![Just(2usize), Just(4), Just(8)].prop_map(LayoutStep::Stride),
    ]
}

/// Builds the program for a fixed input length of 128 elements and 32-wide work groups.
fn build_program(steps: &[LayoutStep], negate: bool) -> Program {
    const N: usize = 128;
    let mut p = Program::new("pipeline");
    let f = if negate {
        p.user_fun(
            UserFun::new(
                "negate",
                vec![("x", Type::float())],
                Type::float(),
                ScalarExpr::cf(0.0).sub(ScalarExpr::param(0)),
            )
            .expect("well-formed"),
        )
    } else {
        p.user_fun(UserFun::id_float())
    };
    let ml = p.map_lcl(0, f);
    let wg = p.map_wrg(0, ml);
    let split32 = p.split(32usize);
    let join_out = p.join();
    p.with_root(
        vec![("x", Type::array(Type::float(), ArithExpr::cst(N as i64)))],
        |p, params| {
            let mut value = params[0];
            for step in steps {
                value = match step {
                    LayoutStep::Reverse => {
                        let g = p.gather(Reorder::Reverse);
                        p.apply1(g, value)
                    }
                    LayoutStep::SplitJoin(k) => {
                        let s = p.split(*k);
                        let j = p.join();
                        let split = p.apply1(s, value);
                        p.apply1(j, split)
                    }
                    LayoutStep::Stride(s) => {
                        let g = p.gather(Reorder::Stride(ArithExpr::cst(*s as i64)));
                        p.apply1(g, value)
                    }
                };
            }
            let split = p.apply1(split32, value);
            let mapped = p.apply1(wg, split);
            p.apply1(join_out, mapped)
        },
    );
    p
}

fn run_on(
    program: &Program,
    input: &[f32],
    engine: EngineSelection,
    detect_races: bool,
) -> SequenceResult {
    let options = CompilationOptions::all_optimisations().with_launch_1d(input.len(), 32);
    let kernel = compile_program(program, &options).expect("pipeline compiles");
    let (args, _) = kernel
        .bind_args(&[input.to_vec()], &Default::default())
        .expect("arguments bind");
    ExecutionRequest::new(&kernel.module)
        .engine(engine)
        .race_detection(detect_races)
        .launch_sequence(&kernel.launch_plan(LaunchConfig::d1(input.len(), 32)), args)
        .expect("pipeline executes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_derived_kernels_run_identically_on_both_engines(
        steps in proptest::collection::vec(layout_step(), 0..4),
        negate in any::<bool>(),
        seed in 0u32..1000,
    ) {
        let input: Vec<f32> =
            (0..128).map(|i| ((i as u32 * 37 + seed) % 101) as f32 - 50.0).collect();
        let program = build_program(&steps, negate);
        for detect_races in [true, false] {
            let interp = run_on(&program, &input, EngineSelection::Interpreter, detect_races);
            let bytecode = run_on(&program, &input, EngineSelection::Bytecode, detect_races);
            prop_assert_eq!(
                interp.buffers.len(), bytecode.buffers.len(),
                "steps {:?}", &steps
            );
            for (a, b) in interp.buffers.iter().zip(&bytecode.buffers) {
                let a_bits: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
                let b_bits: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(&a_bits, &b_bits, "steps {:?} races {}", &steps, detect_races);
            }
            prop_assert_eq!(&interp.reports, &bytecode.reports, "steps {:?}", &steps);
        }
    }
}

// ------------------------------------------------------------------ 2D launches

/// Derives the 2D-tiled matrix multiply from the high-level program through the rewrite
/// engine (no hand-lowering): `mm-tiled-2d` forms the tiles, then the ordinary
/// `reduce-map-fusion`/`reduce-to-reduceSeq` steps lower the per-element computation —
/// exactly the chain the beam search finds.
fn derive_tiled_mm(m: usize, k: usize, n: usize, tile: TileSize) -> (Program, Type) {
    let program = mm::high_level_program(m, k, n);
    let options = RuleOptions {
        split_sizes: Vec::new(),
        vector_widths: Vec::new(),
        tile_sizes: vec![tile],
    };
    let mut current = Term::from_program(&program).expect("converts");
    let input_type = typecheck(&current).expect("input typechecks");
    for want in ["mm-tiled-2d", "reduce-map-fusion", "reduce-to-reduceSeq"] {
        let rule = all_rules()
            .iter()
            .find(|r| r.name == want)
            .expect("rule registered");
        let mut applied = None;
        for site in sites(&current) {
            let Some(expr) = get(&current.body, &site.location) else {
                continue;
            };
            let mut fresh = current.fresh;
            let replacement = {
                let mut cx = RuleCx {
                    context: site.context,
                    arg_types: &site.arg_types,
                    env: &site.env,
                    options: &options,
                    fresh: &mut fresh,
                };
                rule.applications(expr, &mut cx).into_iter().next()
            };
            if let Some(replacement) = replacement {
                let body = replace(&current.body, &site.location, replacement)
                    .expect("replacement applies");
                applied = Some(Term {
                    name: current.name.clone(),
                    params: current.params.clone(),
                    body: beta_normalize(&body),
                    fresh,
                });
                break;
            }
        }
        current = applied.unwrap_or_else(|| panic!("{want} did not fire (tile {tile:?})"));
    }
    let derived_type =
        typecheck(&current).unwrap_or_else(|e| panic!("tiled term ill-typed (tile {tile:?}): {e}"));
    assert_eq!(input_type, derived_type, "tiling must preserve the type");
    (current.to_program(), derived_type)
}

fn mm_inputs(m: usize, k: usize, n: usize) -> (Vec<f32>, Vec<f32>) {
    let a = (0..m * k)
        .map(|i| ((i * 7 + 3) % 11) as f32 - 5.0)
        .collect();
    let b = (0..k * n)
        .map(|i| ((i * 5 + 1) % 13) as f32 - 6.0)
        .collect();
    (a, b)
}

/// The derived tiled MM under genuinely 2D launches — exact-fit, group-strided,
/// local-strided and guarded grids — must produce bit-identical buffers and reports on
/// both engines, with race detection on and off, and match the host reference.
#[test]
fn tiled_mm_2d_launches_run_identically_on_both_engines() {
    const M: usize = 16;
    const K: usize = 16;
    const N: usize = 16;
    let cases: [(TileSize, LaunchConfig); 4] = [
        // Exact fit: one work group per tile, local shape = tile shape.
        (TileSize::d2(8, 8), LaunchConfig::d2((16, 16), (8, 8))),
        // Group-strided: fewer groups than tiles along both axes.
        (TileSize::d2(4, 4), LaunchConfig::d2((8, 8), (4, 4))),
        // Local-strided: local size smaller than the tile along one axis.
        (TileSize::d2(8, 8), LaunchConfig::d2((8, 16), (4, 8))),
        // Guarded: local size larger than the tile along one axis.
        (TileSize::d2(4, 8), LaunchConfig::d2((16, 16), (8, 8))),
    ];
    let (a, b) = mm_inputs(M, K, N);
    let expected = mm::host_reference(&a, &b, M, K, N);
    for (tile, launch) in cases {
        let (program, _) = derive_tiled_mm(M, K, N, tile);
        let options =
            CompilationOptions::all_optimisations().with_launch(launch.global, launch.local);
        let kernel = compile_program(&program, &options)
            .unwrap_or_else(|e| panic!("tile {tile:?}: compile fails: {e}"));
        let (args, out_idx) = kernel
            .bind_args(&[a.clone(), b.clone()], &Default::default())
            .expect("arguments bind");
        for detect_races in [true, false] {
            let interp = ExecutionRequest::new(&kernel.module)
                .engine(EngineSelection::Interpreter)
                .race_detection(detect_races)
                .launch_sequence(&kernel.launch_plan(launch), args.clone())
                .unwrap_or_else(|e| panic!("tile {tile:?}: interpreter fails: {e}"));
            let bytecode = ExecutionRequest::new(&kernel.module)
                .engine(EngineSelection::Bytecode)
                .race_detection(detect_races)
                .launch_sequence(&kernel.launch_plan(launch), args.clone())
                .unwrap_or_else(|e| panic!("tile {tile:?}: bytecode fails: {e}"));
            assert_eq!(interp.buffers.len(), bytecode.buffers.len());
            for (x, y) in interp.buffers.iter().zip(&bytecode.buffers) {
                let x_bits: Vec<u32> = x.iter().map(|v| v.to_bits()).collect();
                let y_bits: Vec<u32> = y.iter().map(|v| v.to_bits()).collect();
                assert_eq!(x_bits, y_bits, "tile {tile:?} races {detect_races}");
            }
            assert_eq!(
                interp.reports, bytecode.reports,
                "tile {tile:?} races {detect_races}"
            );
            let out = &interp.buffers[out_idx];
            assert_eq!(out.len(), expected.len(), "tile {tile:?}");
            for (got, want) in out.iter().zip(&expected) {
                assert!(
                    (got - want).abs() < 1e-3,
                    "tile {tile:?} launch {launch:?}: {got} != {want}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random `split∘transpose∘split` tile compositions: for every dividing 2D tile the
    /// `mm-tiled-2d` family preserves the program type (checked inside `derive_tiled_mm`)
    /// and its semantics — the derived kernel matches the host reference bit-for-bit
    /// across both engines under a 2D launch.
    #[test]
    fn random_tile_compositions_preserve_type_and_semantics(
        m in prop_oneof![Just(8usize), Just(16)],
        k in prop_oneof![Just(4usize), Just(8), Just(16)],
        n in prop_oneof![Just(8usize), Just(16)],
        tm in prop_oneof![Just(2i64), Just(4), Just(8)],
        tn in prop_oneof![Just(2i64), Just(4), Just(8)],
    ) {
        // Every candidate (m, tm) and (n, tn) pair divides: powers of two ≤ 8 vs 8/16.
        let tile = TileSize::d2(tm, tn);
        let (program, _) = derive_tiled_mm(m, k, n, tile);
        let launch = LaunchConfig::d2((n, m), (tn as usize, tm as usize));
        let options =
            CompilationOptions::all_optimisations().with_launch(launch.global, launch.local);
        let kernel = compile_program(&program, &options)
            .unwrap_or_else(|e| panic!("tile {tile:?}: compile fails: {e}"));
        let (a, b) = mm_inputs(m, k, n);
        let expected = mm::host_reference(&a, &b, m, k, n);
        let (args, out_idx) = kernel
            .bind_args(&[a, b], &Default::default())
            .expect("arguments bind");
        let mut outputs: Vec<Vec<u32>> = Vec::new();
        for engine in [EngineSelection::Interpreter, EngineSelection::Bytecode] {
            let result = ExecutionRequest::new(&kernel.module)
                .engine(engine)
                .race_detection(true)
                .launch_sequence(&kernel.launch_plan(launch), args.clone())
                .unwrap_or_else(|e| panic!("{m}x{k}x{n} tile {tile:?}: {engine:?} fails: {e}"));
            let out = &result.buffers[out_idx];
            for (got, want) in out.iter().zip(&expected) {
                prop_assert!(
                    (got - want).abs() < 1e-3,
                    "{}x{}x{} tile {:?}: {} != {}", m, k, n, tile, got, want
                );
            }
            outputs.push(out.iter().map(|v| v.to_bits()).collect());
        }
        prop_assert_eq!(&outputs[0], &outputs[1], "engines disagree bitwise");
    }
}

/// The race detector distinguishes work-item *dimensions*, not just levels (two items that
/// differ only in `get_local_id(1)` writing different values to one cell is a detected race
/// — pinned by `race_detector_distinguishes_work_item_dimensions` in the vgpu crate). The
/// flip side pinned here: a kernel distributed over dimension 0 only, launched on a 2D
/// grid, has every dimension-1 sibling repeat bitwise-identical writes — the detector
/// treats value-preserving stores as benign, so the launch runs clean on both engines with
/// detection on, and the duplicated work still produces the correct (bit-identical) output.
#[test]
fn duplicated_identical_writes_across_dimension_1_are_benign() {
    let mut p = Program::new("dim1_race");
    let id = p.user_fun(UserFun::id_float());
    let stage = p.map_lcl(0, id);
    let staged = p.to_local(stage);
    let copy_out = p.map_lcl(0, id);
    let per_tile = p.lambda(&["tile"], |p, params| {
        let local = p.apply1(staged, params[0]);
        p.apply1(copy_out, local)
    });
    let wg = p.map_wrg(0, per_tile);
    let split = p.split(8usize);
    let join = p.join();
    p.with_root(
        vec![("x", Type::array(Type::float(), 64usize))],
        |p, params| {
            let tiles = p.apply1(split, params[0]);
            let mapped = p.apply1(wg, tiles);
            p.apply1(join, mapped)
        },
    );
    let options = CompilationOptions::all_optimisations().with_launch([16, 2, 1], [8, 2, 1]);
    let kernel = compile_program(&p, &options).expect("compiles");
    let input: Vec<f32> = (0..64).map(|i| i as f32).collect();
    let (args, out_idx) = kernel
        .bind_args(std::slice::from_ref(&input), &Default::default())
        .expect("arguments bind");

    // 2D launch: the dimension-1 work items duplicate every write with identical values —
    // benign under the value-preserving-store rule, so detection stays silent and both
    // engines produce the same correct copy.
    let launch_2d = LaunchConfig::d2((16, 2), (8, 2));
    let mut outputs = Vec::new();
    for engine in [EngineSelection::Interpreter, EngineSelection::Bytecode] {
        let result = ExecutionRequest::new(&kernel.module)
            .engine(engine)
            .race_detection(true)
            .launch_sequence(&kernel.launch_plan(launch_2d), args.clone())
            .expect("identical duplicated writes are benign");
        assert_eq!(result.buffers[out_idx], input, "{engine:?}");
        assert_eq!(
            result.reports[0].counters.work_items, 32,
            "{engine:?} must actually drive the 2D grid"
        );
        outputs.push(
            result.buffers[out_idx]
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
    }
    assert_eq!(outputs[0], outputs[1], "engines disagree bitwise");

    // 1D launch of the same module: dimension 1 has a single work item, so the identical
    // loops are race-free and the copy is correct.
    for engine in [EngineSelection::Interpreter, EngineSelection::Bytecode] {
        let result = ExecutionRequest::new(&kernel.module)
            .engine(engine)
            .race_detection(true)
            .launch_sequence(&kernel.launch_plan(LaunchConfig::d1(16, 8)), args.clone())
            .expect("1D launch is race-free");
        assert_eq!(result.buffers[out_idx], input, "{engine:?}");
    }
}

#[test]
fn failing_launches_report_the_same_error_on_both_engines() {
    // Compiled for 128 elements but handed a 64-element buffer: every work item past the
    // truncated input reads out of bounds, and both engines must fail identically.
    let program = build_program(&[], false);
    let options = CompilationOptions::all_optimisations().with_launch_1d(128, 32);
    let kernel = compile_program(&program, &options).expect("pipeline compiles");
    let full: Vec<f32> = (0..128).map(|i| i as f32).collect();
    let (args, _) = kernel
        .bind_args(&[full], &Default::default())
        .expect("arguments bind");
    let truncated: Vec<_> = args
        .into_iter()
        .enumerate()
        .map(|(i, arg)| {
            if i == 0 {
                lift::vgpu::KernelArg::Buffer(vec![0.0; 64])
            } else {
                arg
            }
        })
        .collect();
    let mut errors: Vec<VgpuError> = Vec::new();
    for engine in [EngineSelection::Interpreter, EngineSelection::Bytecode] {
        for detect_races in [true, false] {
            let err = ExecutionRequest::new(&kernel.module)
                .engine(engine)
                .race_detection(detect_races)
                .launch_sequence(
                    &kernel.launch_plan(LaunchConfig::d1(128, 32)),
                    truncated.clone(),
                )
                .expect_err("truncated input must fail the launch");
            assert!(
                matches!(err, VgpuError::OutOfBounds { .. }),
                "expected OutOfBounds, got {err:?}"
            );
            errors.push(err);
        }
    }
    for e in &errors[1..] {
        assert_eq!(e, &errors[0], "engines disagree on the error");
    }
}
