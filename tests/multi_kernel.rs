//! Multi-kernel compilation: programs with global-memory intermediates split at device-wide
//! synchronisation points into kernel *sequences* sharing host-allocated temporaries.
//!
//! Three properties are pinned here:
//!
//! 1. the hand-lowered two-stage dot product (`mapGlb` partial sums staged with `toGlobal`,
//!    feeding a kernel-level `reduceSeq`) compiles to two kernels sharing one global
//!    temporary and validates on the virtual GPU against the reference interpreter,
//! 2. the same schedule is **derived automatically** by the `lift-rewrite` exploration from
//!    the high-level full dot product — no hand-lowering,
//! 3. every single-kernel variant an exploration derives recompiles through
//!    [`compile_program`] to one kernel whose source is byte-identical to the one the
//!    exploration reported.

use lift::benchmarks::dot_product;
use lift::codegen::{compile_program, CompilationOptions, CompiledProgram};
use lift::interp::{evaluate, Value};
use lift::ir::Program;
use lift::rewrite::{explore, ExplorationConfig, RuleOptions};
use lift::vgpu::{outputs_match, ExecutionRequest, LaunchConfig};

/// Executes a compiled (possibly multi-kernel) program with the shared-pool ABI.
fn run_program(compiled: &CompiledProgram, inputs: &[Vec<f32>], launch: LaunchConfig) -> Vec<f32> {
    let (args, out_idx) = compiled
        .bind_args(inputs, &Default::default())
        .expect("arguments bind");
    let result = ExecutionRequest::new(&compiled.module)
        .launch_sequence(&compiled.launch_plan(launch), args)
        .expect("kernel sequence executes");
    result.buffers[out_idx].clone()
}

fn interpret(program: &Program, inputs: &[Vec<f32>]) -> Vec<f32> {
    let values: Vec<Value> = inputs.iter().map(|v| Value::from_f32_slice(v)).collect();
    evaluate(program, &values)
        .expect("interpreter runs")
        .flatten_f32()
}

fn test_inputs(n: usize) -> Vec<Vec<f32>> {
    let x: Vec<f32> = (0..n).map(|i| ((i % 17) as f32) * 0.25 - 2.0).collect();
    let y: Vec<f32> = (0..n).map(|i| ((i % 13) as f32) * 0.5 - 3.0).collect();
    vec![x, y]
}

#[test]
fn hand_lowered_two_stage_dot_compiles_to_two_kernels_and_validates() {
    let n = 1024;
    let program = dot_product::two_stage_program(n);
    let launch = LaunchConfig::d1(8, 4);
    let options = CompilationOptions::all_optimisations().with_launch(launch.global, launch.local);
    let compiled = compile_program(&program, &options).expect("two-stage program compiles");

    // Two kernels sharing one global temporary; the producer stage is parallel, the final
    // reduction is sequential (launched as a single work item).
    assert_eq!(compiled.kernels.len(), 2);
    assert_eq!(compiled.temp_buffers.len(), 1);
    assert!(compiled.kernels[0].parallel, "stage 1 is the mapGlb stage");
    assert!(
        !compiled.kernels[1].parallel,
        "stage 2 is a sequential kernel-level reduction"
    );
    let source = compiled.source();
    assert!(source.contains("kernel void two_stage_dot_k0"));
    assert!(source.contains("kernel void two_stage_dot_k1"));
    // The temporary is a kernel parameter of both stages and documented in the host ABI.
    let tmp = &compiled.temp_buffers[0].name;
    assert!(source.contains("host ABI"));
    assert_eq!(source.matches(&format!("*{tmp}")).count(), 2);

    // The launch plan: full ND-range for the parallel stage, a single work item for the
    // sequential one.
    let plan = compiled.launch_plan(launch);
    assert_eq!(plan[0].launch, launch);
    assert_eq!(plan[1].launch, LaunchConfig::d1(1, 1));

    // Differential validation against the reference interpreter.
    let inputs = test_inputs(n);
    let actual = run_program(&compiled, &inputs, launch);
    let expected = interpret(&program, &inputs);
    assert!(
        outputs_match(&actual, &expected),
        "vgpu {actual:?} vs interpreter {expected:?}"
    );
}

#[test]
fn rewrite_derives_the_two_stage_schedule_without_hand_lowering() {
    // The acceptance workload: the high-level full dot product, lowered purely by the rule
    // engine. Among the validated variants there must be a multi-kernel derivation: mapGlb
    // partial sums staged with toGlobal feeding a second kernel-level reduce.
    let n = 1024;
    let program = dot_product::high_level_full_program(n);
    let config = ExplorationConfig {
        max_depth: 7,
        beam_width: 64,
        max_candidates: 6000,
        rule_options: RuleOptions {
            split_sizes: vec![2, 4],
            vector_widths: vec![4],
            tile_sizes: vec![],
        },
        launch: LaunchConfig::d1(8, 4),
        best_n: 16,
        ..ExplorationConfig::default()
    };
    let result = explore(&program, &config).expect("exploration runs");
    assert!(
        !result.variants.is_empty(),
        "no validated variants (lowered {}, compile-rejected {}, incorrect {})",
        result.lowered,
        result.rejected_compile,
        result.rejected_incorrect
    );
    let multi: Vec<_> = result
        .variants
        .iter()
        .filter(|v| v.kernel_count >= 2)
        .collect();
    assert!(
        !multi.is_empty(),
        "no multi-kernel variant among {} validated variants",
        result.variants.len()
    );
    // The derivation used the toGlobal lowering rule and a mapGlb lowering.
    let derived = multi
        .iter()
        .find(|v| {
            v.derivation.iter().any(|s| s.rule == "wrap-toGlobal")
                && v.derivation.iter().any(|s| s.rule == "map-to-mapGlb")
        })
        .expect("a toGlobal(mapGlb …) derivation exists among the multi-kernel variants");
    assert!(derived.kernel_source.contains("get_global_id"));
    // Every variant explore returns was already validated against the interpreter on the
    // exploration's own inputs; re-validate the derived program on fresh inputs end to end.
    let options = CompilationOptions::all_optimisations()
        .with_launch(config.launch.global, config.launch.local);
    let compiled =
        compile_program(&derived.program, &options).expect("derived two-stage program compiles");
    assert!(compiled.kernels.len() > 1);
    assert!(!compiled.temp_buffers.is_empty());
    let inputs = test_inputs(n);
    let actual = run_program(&compiled, &inputs, config.launch);
    let expected = interpret(&derived.program, &inputs);
    assert!(
        outputs_match(&actual, &expected),
        "vgpu {actual:?} vs interpreter {expected:?}"
    );
}

#[test]
fn explored_single_kernel_variants_recompile_to_their_reported_source() {
    // Every single-kernel variant of a partial-dot exploration recompiles to one kernel
    // whose source is the one the exploration reported.
    let program = dot_product::high_level_program(512);
    let config = ExplorationConfig {
        max_depth: 5,
        beam_width: 48,
        rule_options: RuleOptions {
            split_sizes: vec![2, 4],
            vector_widths: vec![4],
            tile_sizes: vec![],
        },
        launch: LaunchConfig::d1(16, 4),
        // The cost model now often prefers multi-kernel schedules; keep enough variants to
        // cover the single-kernel ones this test is about.
        best_n: 60,
        ..ExplorationConfig::default()
    };
    let result = explore(&program, &config).expect("exploration runs");
    assert!(!result.variants.is_empty());
    let mut checked = 0;
    for variant in &result.variants {
        if variant.kernel_count != 1 {
            continue;
        }
        let options = CompilationOptions::all_optimisations()
            .with_launch(config.launch.global, config.launch.local);
        let compiled = compile_program(&variant.program, &options).expect("compiles");
        assert_eq!(compiled.kernels.len(), 1);
        assert_eq!(compiled.source(), variant.kernel_source);
        checked += 1;
    }
    assert!(checked > 0, "no single-kernel variants to check");
}
