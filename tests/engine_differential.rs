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
    CostCounters, DeviceProfile, EngineSelection, ExecutionRequest, KernelArg, KernelLaunchSpec,
    LaunchConfig, SequenceResult, StaticCount, VgpuError,
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

/// One launch of the gated workloads: a distinct validated kernel sequence of a workload's
/// search, compiled and bound for [`LAUNCH`].
struct GatedLaunch {
    label: String,
    compiled: CompiledProgram,
    stages: Vec<KernelLaunchSpec>,
    args: Vec<KernelArg>,
}

/// Every distinct kernel source the gated workloads' searches validate on `device`, each
/// compiled and bound for [`LAUNCH`].
fn gated_launches(device: &DeviceProfile) -> Vec<GatedLaunch> {
    let mut launches = Vec::new();
    for workload in Workload::all() {
        let config = ExplorationConfig {
            best_n: usize::MAX,
            detect_races: false,
            ..workload_config(&workload, device)
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
            launches.push(GatedLaunch {
                label: format!("{} on {} ({})", workload.name, device.name, sources.len()),
                stages: compiled.launch_plan(LAUNCH),
                compiled,
                args,
            });
        }
    }
    launches
}

/// The cost bound behind `ExecutionRequest::budget` is sound on every distinct kernel the
/// gated workloads' searches validate, on both device profiles: a launch budgeted at its
/// exact estimated time completes with unchanged buffers and counters, and a launch
/// budgeted at half of it either completes alike or is stopped — at the same row, with the
/// same lower bound, by both engines — with a lower bound no greater than its exact time.
#[test]
fn the_budget_bound_is_sound_and_both_engines_stop_alike() {
    let mut stopped = 0;
    let mut before_running = 0;
    for device in [DeviceProfile::nvidia(), DeviceProfile::amd()] {
        for GatedLaunch {
            label: at,
            compiled,
            stages,
            args,
        } in gated_launches(&device)
        {
            let run =
                |engine, budget| run_sequence(&compiled, &stages, &args, &device, engine, budget);
            let exact = run(EngineSelection::Interpreter, None).expect("runs");
            let time = exact.estimated_time(&device);
            for engine in [EngineSelection::Interpreter, EngineSelection::Bytecode] {
                assert_eq!(run(engine, Some(time)).as_ref(), Ok(&exact), "{at}");
            }
            let half = [EngineSelection::Interpreter, EngineSelection::Bytecode]
                .map(|engine| run(engine, Some(time / 2.0)));
            assert_eq!(half[0], half[1], "{at}: the engines stop differently");
            match &half[0] {
                Ok(completed) => assert_eq!(completed, &exact, "{at}"),
                Err(VgpuError::OverBudget { lower_bound, row }) => {
                    assert!(*lower_bound > time / 2.0 && *lower_bound <= time, "{at}");
                    stopped += 1;
                    before_running += usize::from(*row == 0);
                }
                Err(e) => panic!("{at}: {e}"),
            }
        }
    }
    assert!(stopped > 0, "no launch was stopped at half its time");
    assert!(
        before_running > 0,
        "no launch was stopped before its first row"
    );
}

/// Every counter class, named.
fn counted_classes(c: &CostCounters) -> [(&'static str, u64); 15] {
    [
        ("flops", c.flops),
        ("int_ops", c.int_ops),
        ("div_mod_ops", c.div_mod_ops),
        ("global_accesses", c.global_accesses),
        ("vector_accesses", c.vector_accesses),
        ("global_transactions", c.global_transactions),
        ("uncoalesced_accesses", c.uncoalesced_accesses),
        ("local_accesses", c.local_accesses),
        ("private_accesses", c.private_accesses),
        ("barriers", c.barriers),
        ("loop_iterations", c.loop_iterations),
        ("work_items", c.work_items),
        ("work_groups", c.work_groups),
        ("lockstep_rows", c.lockstep_rows),
        ("group_span_rows", c.group_span_rows),
    ]
}

/// Counts `stages` statically and runs them, asserting every static class is at most the
/// executed one, and equal to it where the walk says its count is exact. Returns whether
/// the walk said so, and whether every class is equal.
fn static_bound_holds(
    label: &str,
    module: &lift::ocl::Module,
    stages: &[KernelLaunchSpec],
    args: &[KernelArg],
    device: &DeviceProfile,
) -> (bool, bool) {
    let request = ExecutionRequest::new(module).on_device(device);
    let counted = request.static_counters(stages, args).expect("counts");
    let run = request
        .launch_sequence(stages, args.to_vec())
        .expect("runs");
    static_count_holds(label, &counted, &run)
}

/// Asserts that `counted` is at most `run`'s counters in every class of every stage, and
/// equal where it says it is exact. Returns whether it says so, and whether every class is
/// equal.
fn static_count_holds(label: &str, counted: &StaticCount, run: &SequenceResult) -> (bool, bool) {
    let mut equal = true;
    for (stage, (static_count, executed)) in
        counted.stages.iter().zip(run.stage_counters()).enumerate()
    {
        for ((class, s), (_, e)) in counted_classes(static_count)
            .into_iter()
            .zip(counted_classes(&executed))
        {
            assert!(
                s <= e,
                "{label}: stage {stage} {class} counted {s} > executed {e}"
            );
            assert!(
                !counted.exact || s == e,
                "{label}: stage {stage} {class} counted {s} < executed {e} by an exact count"
            );
            equal &= s == e;
        }
    }
    (counted.exact, equal)
}

/// The static count equals the run's counters in every class on every distinct kernel and
/// launch the gated workloads validate, on both profiles, and says it is exact: no control
/// or global address of theirs reads data.
#[test]
fn the_static_bound_is_exact_on_the_gated_workloads() {
    let mut launches = 0;
    for device in [DeviceProfile::nvidia(), DeviceProfile::amd()] {
        for launch in gated_launches(&device) {
            let (exact, _) = static_bound_holds(
                &launch.label,
                &launch.compiled.module,
                &launch.stages,
                &launch.args,
                &device,
            );
            assert!(exact, "{}: the static count is not exact", launch.label);
            launches += 1;
        }
    }
    assert!(launches > 20, "only {launches} launches");
}

/// The static count holds on every launch the canonical `autotune_stats` tunes score: for
/// each of the seven workloads on both profiles, every lowered candidate of every point of
/// the tuned trajectory, compiled for the point's launch, counted and run to completion.
/// Where the walk says its count is exact it equals the run in every class, and elsewhere
/// it is at most the run: a count above the run would prune a winner silently.
#[test]
#[ignore = "the full canonical walk: run with --release"]
fn the_static_count_holds_on_every_canonical_launch() {
    let (mut launches, mut exact) = (0, 0);
    for device in [DeviceProfile::nvidia(), DeviceProfile::amd()] {
        for workload in Workload::all() {
            let config = autotune_config(&workload, &device);
            let tuned = lift::tuner::tune(&workload.program, &config).expect("tuning runs");
            let mut search =
                Search::new(&workload.program, &config.base.sizes, &Null).expect("input types");
            let mut seen = std::collections::HashSet::new();
            for entry in &tuned.trajectory {
                let point = ExplorationConfig {
                    rule_options: entry.point.rule_options.clone(),
                    launch: entry.point.launch,
                    ..config.base.clone()
                };
                let options = point
                    .compile_options
                    .clone()
                    .with_launch(point.launch.global, point.launch.local);
                let enumerated = search.enumerate(&point, &Null).expect("enumeration runs");
                for (term, _) in enumerated.lowered_candidates() {
                    let mut program = term.to_program();
                    if infer_types(&mut program).is_err() {
                        continue;
                    }
                    let Ok(compiled) = compile_program(&program, &options) else {
                        continue;
                    };
                    if !seen.insert((compiled.source(), entry.point.launch)) {
                        continue;
                    }
                    let inputs = flat_inputs(&program, &config.base.sizes);
                    let Ok((args, _)) = compiled.bind_args(&inputs, &config.base.sizes) else {
                        continue;
                    };
                    let stages = compiled.launch_plan(entry.point.launch);
                    let request = ExecutionRequest::new(&compiled.module).on_device(&device);
                    let Ok(run) = request.launch_sequence(&stages, args.clone()) else {
                        continue;
                    };
                    let counted = request.static_counters(&stages, &args).expect("counts");
                    let label = format!("{} on {}: {}", workload.name, device.name, launches);
                    exact += usize::from(static_count_holds(&label, &counted, &run).0);
                    launches += 1;
                }
            }
        }
    }
    eprintln!("{exact} of {launches} canonical launches counted exactly");
    assert!(launches > 1000, "only {launches} launches");
}

/// Every kernel launch of Figure 8 at the Small size: each Table 1 benchmark's reference
/// kernel and its Lift kernel at the three optimisation levels, with labels.
fn paper_launches() -> Vec<(
    String,
    lift::ocl::Module,
    Vec<KernelLaunchSpec>,
    Vec<KernelArg>,
)> {
    let levels = [
        ("none", CompilationOptions::none()),
        (
            "barrier+cf",
            CompilationOptions::without_array_access_simplification(),
        ),
        ("barrier+cf+array", CompilationOptions::all_optimisations()),
    ];
    let mut launches = Vec::new();
    for case in all_benchmarks(ProblemSize::Small) {
        let name = case.info.name;
        let reference = KernelLaunchSpec {
            kernel: case.reference_kernel.clone(),
            launch: case.launch,
        };
        launches.push((
            format!("{name} reference"),
            case.reference_module.clone(),
            vec![reference],
            case.reference_args.clone(),
        ));
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
    }
    launches
}

/// Figure 8 cases whose kernels branch on loaded data (MD's neighbour cutoff), where the
/// static bound leaves the arms out.
const DATA_DEPENDENT: &[&str] = &["MD"];

/// The static bound is a lower bound on all 48 Small Figure 8 launches under both profiles,
/// exact (and said to be) on every case whose control reads no data, and strictly below on
/// MD's cutoff, which it says is not exact.
#[test]
fn the_static_bound_holds_on_every_figure8_launch() {
    let launches = paper_launches();
    assert_eq!(launches.len(), 48);
    for device in [DeviceProfile::nvidia(), DeviceProfile::amd()] {
        for (label, module, stages, args) in &launches {
            let (exact, equal) = static_bound_holds(label, module, stages, args, &device);
            let data_dependent = DATA_DEPENDENT.iter().any(|case| label.starts_with(case));
            assert_eq!(exact, !data_dependent, "{label} on {}", device.name);
            assert_eq!(equal, !data_dependent, "{label} on {}", device.name);
        }
    }
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
    for (label, module, stages, args) in paper_launches() {
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

/// What the code generator adds to a kernel to avoid redundant work runs alike on both
/// engines: a user function with a local (`d = pj - pi` is used on every path, in the
/// `Select`'s condition and its else arm), a lazily evaluated `Select` whose then arm repeats
/// `d * d` inline, a reduction whose loop-invariant read of its own element is loaded once
/// before the loop, and Convolution's `int` local for the invariant part of its window
/// index, read inside the `Index` terms of the loop and of the store after it. Buffers are
/// bit-identical, counters equal, and nothing falls back.
#[test]
fn function_locals_lazy_selects_and_hoisted_loads_run_identically_on_both_engines() {
    let d = || ScalarExpr::param(1).sub(ScalarExpr::param(2));
    let near = ScalarExpr::Bin(BinOp::Lt, Box::new(d()), Box::new(ScalarExpr::cf(0.25)));
    let pull = d().mul(d()).div(d().mul(d()).add(ScalarExpr::cf(1.0)));
    let interact = UserFun::new(
        "interact",
        vec![
            ("acc", Type::float()),
            ("pj", Type::float()),
            ("pi", Type::float()),
        ],
        Type::float(),
        ScalarExpr::param(0).add(ScalarExpr::Select(
            Box::new(near),
            Box::new(pull),
            Box::new(d()),
        )),
    )
    .expect("well-formed");
    let n = 64usize;
    let mut p = Program::new("pairwise");
    let f = p.user_fun(interact);
    p.with_root(vec![("pos", Type::array(Type::float(), n))], |p, params| {
        let pos = params[0];
        let per_item = p.lambda(&["pi"], |p, lp| {
            let pi = lp[0];
            let step = p.lambda(&["acc", "pj"], |p, rp| p.apply(f, [rp[0], rp[1], pi]));
            let reduce = p.reduce_seq_pattern(step);
            let init = p.literal_f32(0.0);
            p.apply(reduce, [init, pos])
        });
        let m = p.map_glb(0, per_item);
        let j = p.join();
        let mapped = p.apply1(m, pos);
        p.apply1(j, mapped)
    });
    let options = CompilationOptions::all_optimisations().with_launch(LAUNCH.global, LAUNCH.local);
    let compiled = compile_program(&p, &options).expect("compiles");
    let source = compiled.source();
    assert!(source.contains("  float t0 = pj - pi;\n"), "{source}");
    assert_eq!(source.matches("t0 * t0").count(), 2, "{source}");
    assert!(source.contains("float t0 = pos[gl_id];"), "{source}");
    let sizes = lift::arith::Environment::new();
    let pos: Vec<f32> = (0..n).map(|i| ((i * 37) % n) as f32 / 32.0 - 1.0).collect();
    let (args, _) = compiled.bind_args(&[pos], &sizes).expect("binds");
    let stages = compiled.launch_plan(LAUNCH);
    let [interp, bytecode] =
        [EngineSelection::Interpreter, EngineSelection::Bytecode].map(|engine| {
            run_without_fallback("pairwise", &compiled.module, &stages, args.clone(), engine)
        });
    let bits = |r: &SequenceResult| -> Vec<Vec<u32>> {
        r.buffers
            .iter()
            .map(|b| b.iter().map(|v| v.to_bits()).collect())
            .collect()
    };
    assert_eq!(bits(&interp), bits(&bytecode), "buffers differ");
    assert_eq!(interp.reports, bytecode.reports, "counters differ");
    // The hoisted read is one global load per item; the loop reads only `pos[i]`.
    let counters = interp.reports[0].counters;
    assert_eq!(counters.global_accesses, (n * (n + 1) + n) as u64);

    let cases = all_benchmarks(ProblemSize::Small);
    let conv = cases
        .iter()
        .find(|c| c.info.name == "Convolution")
        .expect("Convolution");
    let compiled = compile_case(conv, &CompilationOptions::all_optimisations()).expect("compiles");
    let source = compiled.source();
    assert!(source.contains("int t0 = l_id_1 + 64 * wg_id;"), "{source}");
    assert!(
        source.contains("input[i_3 + t0]") && source.contains("output[t0]"),
        "{source}"
    );
    let (args, _) = compiled
        .bind_args(&conv.inputs, &conv.sizes)
        .expect("binds");
    let stages = compiled.launch_plan(conv.launch);
    let [interp, bytecode] =
        [EngineSelection::Interpreter, EngineSelection::Bytecode].map(|engine| {
            run_without_fallback(
                "convolution",
                &compiled.module,
                &stages,
                args.clone(),
                engine,
            )
        });
    assert_eq!(
        bits(&interp),
        bits(&bytecode),
        "convolution: buffers differ"
    );
    assert_eq!(
        interp.reports, bytecode.reports,
        "convolution: counters differ"
    );
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
