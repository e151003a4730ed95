//! End-to-end tests: Lift programs are compiled to OpenCL, executed on the virtual GPU, and
//! the results are compared against the reference interpreter.

use lift_arith::{ArithExpr, Environment};
use lift_codegen::{compile_program, CompilationOptions, CompiledProgram};
use lift_interp::{evaluate_with_sizes, Value};
use lift_ir::prelude::*;
use lift_vgpu::{ExecutionRequest, LaunchConfig, SequenceResult};

/// Launches a compiled program with the given input arrays and size bindings.
fn run_kernel(
    kernel: &CompiledProgram,
    inputs: &[Vec<f32>],
    sizes: &Environment,
    config: LaunchConfig,
) -> (Vec<f32>, SequenceResult) {
    let (args, buffer_index) = kernel.bind_args(inputs, sizes).expect("arguments bind");
    let result = ExecutionRequest::new(&kernel.module)
        .launch_sequence(&kernel.launch_plan(config), args)
        .expect("kernel executes");
    (result.buffers[buffer_index].clone(), result)
}

fn assert_close(actual: &[f32], expected: &[f32]) {
    assert_eq!(actual.len(), expected.len(), "length mismatch");
    for (i, (a, e)) in actual.iter().zip(expected).enumerate() {
        assert!(
            (a - e).abs() <= 1e-3 * (1.0 + e.abs()),
            "element {i}: got {a}, expected {e}"
        );
    }
}

// ------------------------------------------------------------------------ simple copies

#[test]
fn map_glb_id_copies_the_input() {
    let n = ArithExpr::size_var("N");
    let mut p = Program::new("copy");
    let id = p.user_fun(UserFun::id_float());
    let m = p.map_glb(0, id);
    p.with_root(vec![("x", Type::array(Type::float(), n))], |p, params| {
        p.apply1(m, params[0])
    });

    let options = CompilationOptions::all_optimisations().with_launch_1d(64, 16);
    let kernel = compile_program(&p, &options).expect("compiles");
    assert!(kernel.source().contains("kernel void copy"));

    let input: Vec<f32> = (0..64).map(|i| i as f32).collect();
    let sizes = Environment::new().bind("N", 64);
    let (out, _) = run_kernel(
        &kernel,
        std::slice::from_ref(&input),
        &sizes,
        LaunchConfig::d1(64, 16),
    );
    assert_close(&out, &input);
}

#[test]
fn zipped_multiplication_matches_the_interpreter() {
    let n = ArithExpr::size_var("N");
    let mut p = Program::new("mul");
    let mult = p.user_fun(UserFun::mult_pair());
    let m = p.map_glb(0, mult);
    let z = p.zip2();
    p.with_root(
        vec![
            ("x", Type::array(Type::float(), n.clone())),
            ("y", Type::array(Type::float(), n)),
        ],
        |p, params| {
            let zipped = p.apply(z, [params[0], params[1]]);
            p.apply1(m, zipped)
        },
    );

    let x: Vec<f32> = (0..128).map(|i| (i % 9) as f32).collect();
    let y: Vec<f32> = (0..128).map(|i| (i % 5) as f32 * 0.25).collect();
    let sizes = Environment::new().bind("N", 128);

    let expected = evaluate_with_sizes(
        &p,
        &[Value::from_f32_slice(&x), Value::from_f32_slice(&y)],
        &sizes,
    )
    .expect("interpreter")
    .flatten_f32();

    let options = CompilationOptions::all_optimisations().with_launch_1d(128, 32);
    let kernel = compile_program(&p, &options).expect("compiles");
    let (out, _) = run_kernel(
        &kernel,
        &[x.clone(), y.clone()],
        &sizes,
        LaunchConfig::d1(128, 32),
    );
    assert_close(&out, &expected);
}

// ------------------------------------------------------------------------ work-group pipelines

#[test]
fn split_map_wrg_map_lcl_join_pipeline() {
    // join . mapWrg(mapLcl(id)) . split 32 — a blocked parallel copy.
    let n = ArithExpr::size_var("N");
    let mut p = Program::new("blocked_copy");
    let id = p.user_fun(UserFun::id_float());
    let ml = p.map_lcl(0, id);
    let wg = p.map_wrg(0, ml);
    let s = p.split(32usize);
    let j = p.join();
    p.with_root(vec![("x", Type::array(Type::float(), n))], |p, params| {
        let split = p.apply1(s, params[0]);
        let mapped = p.apply1(wg, split);
        p.apply1(j, mapped)
    });

    let input: Vec<f32> = (0..256).map(|i| i as f32 * 0.5).collect();
    let sizes = Environment::new().bind("N", 256);
    let options = CompilationOptions::all_optimisations().with_launch_1d(256, 32);
    let kernel = compile_program(&p, &options).expect("compiles");
    let (out, _) = run_kernel(
        &kernel,
        std::slice::from_ref(&input),
        &sizes,
        LaunchConfig::d1(256, 32),
    );
    assert_close(&out, &input);
}

#[test]
fn per_work_group_reduction() {
    // join . mapWrg(toGlobal(mapLcl(mapSeq(id))) . split 1 . reduce-per-chunk) . split 64
    // Simplified: each work group reduces its 64-element chunk with a single local thread
    // per chunk of 4 and a sequential reduce.
    let n = ArithExpr::size_var("N");
    let mut p = Program::new("partial_sum");
    let add = p.user_fun(UserFun::add());
    let red = p.reduce_seq(add, 0.0);
    let copy_local = p.copy_to_local();
    let per_thread = p.compose(&[copy_local, red]);
    let ml = p.map_lcl(0, per_thread);
    let split4 = p.split(4usize);
    let j_inner = p.join();
    let inner = p.compose(&[j_inner, ml, split4]);
    let wg = p.map_wrg(0, inner);
    let split64 = p.split(64usize);
    let j = p.join();
    p.with_root(vec![("x", Type::array(Type::float(), n))], |p, params| {
        let split = p.apply1(split64, params[0]);
        let mapped = p.apply1(wg, split);
        p.apply1(j, mapped)
    });

    let input: Vec<f32> = (0..256).map(|i| (i % 7) as f32).collect();
    let sizes = Environment::new().bind("N", 256);
    let expected = evaluate_with_sizes(&p, &[Value::from_f32_slice(&input)], &sizes)
        .unwrap()
        .flatten_f32();

    let options = CompilationOptions::all_optimisations().with_launch_1d(64, 16);
    let kernel = compile_program(&p, &options).expect("compiles");
    let (out, _) = run_kernel(&kernel, &[input], &sizes, LaunchConfig::d1(64, 16));
    assert_close(&out, &expected);
}

// ------------------------------------------------------------------------ layout patterns

#[test]
fn gather_transpose_of_a_matrix() {
    // Matrix transposition expressed as in Section 3.2:
    // split N . gather(stride) . join, followed by a copy to make it a computation.
    let n = 8usize;
    let m = 12usize;
    let mut p = Program::new("transpose");
    let id = p.user_fun(UserFun::id_float());
    let ml = p.map_lcl(0, id);
    let wg = p.map_wrg(0, ml);
    let split_rows = p.split(n);
    let reorder = Reorder::Stride(ArithExpr::cst(n as i64));
    let g = p.gather(reorder);
    let j = p.join();
    p.with_root(
        vec![("x", Type::array(Type::array(Type::float(), m), n))],
        |p, params| {
            let joined = p.apply1(j, params[0]);
            let gathered = p.apply1(g, joined);
            let split = p.apply1(split_rows, gathered);
            p.apply1(wg, split)
        },
    );

    let data: Vec<f32> = (0..n * m).map(|i| i as f32).collect();
    let sizes = Environment::new();
    let expected = evaluate_with_sizes(&p, &[Value::from_f32_matrix(&data, n, m)], &sizes)
        .unwrap()
        .flatten_f32();
    // Sanity: the interpreter really transposes.
    assert_eq!(expected[0], 0.0);
    assert_eq!(expected[1], (m) as f32 * 1.0);

    let options = CompilationOptions::all_optimisations().with_launch_1d(96, 8);
    let kernel = compile_program(&p, &options).expect("compiles");
    let (out, _) = run_kernel(&kernel, &[data], &sizes, LaunchConfig::d1(96, 8));
    assert_close(&out, &expected);
}

#[test]
fn slide_based_stencil() {
    // mapGlb(reduceSeq(add, 0)) . slide(3, 1): a 3-point moving sum.
    let n = 64usize;
    let mut p = Program::new("stencil3");
    let add = p.user_fun(UserFun::add());
    let red = p.reduce_seq(add, 0.0);
    let m = p.map_glb(0, red);
    let j = p.join();
    let slide = p.slide(3usize, 1usize);
    p.with_root(vec![("x", Type::array(Type::float(), n))], |p, params| {
        let windows = p.apply1(slide, params[0]);
        let sums = p.apply1(m, windows);
        p.apply1(j, sums)
    });

    let input: Vec<f32> = (0..n).map(|i| (i % 11) as f32).collect();
    let sizes = Environment::new();
    let expected = evaluate_with_sizes(&p, &[Value::from_f32_slice(&input)], &sizes)
        .unwrap()
        .flatten_f32();
    assert_eq!(expected.len(), n - 2);

    let options = CompilationOptions::all_optimisations().with_launch_1d(62, 31);
    let kernel = compile_program(&p, &options).expect("compiles");
    let (out, _) = run_kernel(&kernel, &[input], &sizes, LaunchConfig::d1(62, 31));
    assert_close(&out, &expected);
}

// ------------------------------------------------------------------------ the Listing 1 kernel

fn listing1_dot_product(n: usize) -> Program {
    let mut p = Program::new("partialDot");
    let mult_add = p.user_fun(UserFun::mult_and_sum_up_pair());
    let add = p.user_fun(UserFun::add());

    let red1 = p.reduce_seq(mult_add, 0.0);
    let copy_l1 = p.copy_to_local();
    let step1_f = p.compose(&[copy_l1, red1]);
    let step1_map = p.map_lcl(0, step1_f);
    let s2a = p.split(2usize);
    let j1 = p.join();
    let step1 = p.compose(&[j1, step1_map, s2a]);

    let red2 = p.reduce_seq(add, 0.0);
    let copy_l2 = p.copy_to_local();
    let step2_f = p.compose(&[copy_l2, red2]);
    let step2_map = p.map_lcl(0, step2_f);
    let s2b = p.split(2usize);
    let j2 = p.join();
    let iter_body = p.compose(&[j2, step2_map, s2b]);
    let step2 = p.iterate(6, iter_body);

    let copy_g = p.copy_to_global();
    let m_copy = p.map_lcl(0, copy_g);
    let s1 = p.split(1usize);
    let j3 = p.join();
    let step3 = p.compose(&[j3, m_copy, s1]);

    let wg_body = p.compose(&[step3, step2, step1]);
    let wg = p.map_wrg(0, wg_body);
    let s128 = p.split(128usize);
    let jout = p.join();
    let z = p.zip2();
    let n_expr = ArithExpr::cst(n as i64);
    p.with_root(
        vec![
            ("x", Type::array(Type::float(), n_expr.clone())),
            ("y", Type::array(Type::float(), n_expr)),
        ],
        |p, params| {
            let zipped = p.apply(z, [params[0], params[1]]);
            let split = p.apply1(s128, zipped);
            let mapped = p.apply1(wg, split);
            p.apply1(jout, mapped)
        },
    );
    p
}

#[test]
fn dot_product_kernel_runs_and_matches_the_interpreter() {
    let n = 512;
    let p = listing1_dot_product(n);
    let x: Vec<f32> = (0..n).map(|i| ((i % 13) as f32) * 0.5).collect();
    let y: Vec<f32> = (0..n).map(|i| ((i % 7) as f32) - 3.0).collect();
    let sizes = Environment::new();
    let expected = evaluate_with_sizes(
        &p,
        &[Value::from_f32_slice(&x), Value::from_f32_slice(&y)],
        &sizes,
    )
    .unwrap()
    .flatten_f32();

    for options in [
        CompilationOptions::all_optimisations(),
        CompilationOptions::without_array_access_simplification(),
        CompilationOptions::none(),
    ] {
        let options = options.with_launch_1d(256, 64);
        let kernel = compile_program(&p, &options).expect("compiles");
        let (out, _) = run_kernel(
            &kernel,
            &[x.clone(), y.clone()],
            &sizes,
            LaunchConfig::d1(256, 64),
        );
        assert_close(&out, &expected);
    }
}

#[test]
fn dot_product_kernel_has_the_figure7_structure() {
    let p = listing1_dot_product(1024);
    let options = CompilationOptions::all_optimisations().with_launch_1d(512, 64);
    let kernel = compile_program(&p, &options).expect("compiles");
    let source = kernel.source();
    // Work-group loop over the chunks, like Figure 7 line 7.
    assert!(source.contains("get_group_id(0)"), "{source}");
    // Local temporary buffers and barriers.
    assert!(source.contains("local float"), "{source}");
    assert!(source.contains("barrier(CLK_LOCAL_MEM_FENCE)"), "{source}");
    // Double buffering of the iterate (pointer swap through a ternary).
    assert!(source.contains("?"), "{source}");
    // The multiply-accumulate user function.
    assert!(source.contains("multAndSumUp"), "{source}");
}

#[test]
fn array_access_simplification_reduces_divisions() {
    // The matrix-transposition access of Figure 6 is the paper's example of an index that
    // only simplifies with the range-aware arithmetic rules.
    let n = 16usize;
    let m = 8usize;
    let mut p = Program::new("transpose");
    let id = p.user_fun(UserFun::id_float());
    let ml = p.map_lcl(0, id);
    let wg = p.map_wrg(0, ml);
    let split_rows = p.split(n);
    let g = p.gather(Reorder::Stride(ArithExpr::cst(n as i64)));
    let j = p.join();
    p.with_root(
        vec![("x", Type::array(Type::array(Type::float(), m), n))],
        |p, params| {
            let joined = p.apply1(j, params[0]);
            let gathered = p.apply1(g, joined);
            let split = p.apply1(split_rows, gathered);
            p.apply1(wg, split)
        },
    );
    let opts = |o: CompilationOptions| o.with_launch_1d((n * m).next_power_of_two(), n);
    let simplified = compile_program(&p, &opts(CompilationOptions::all_optimisations())).unwrap();
    let unsimplified = compile_program(
        &p,
        &opts(CompilationOptions::without_array_access_simplification()),
    )
    .unwrap();
    let count =
        |k: &CompiledProgram| k.source().matches('%').count() + k.source().matches('/').count();
    assert!(
        count(&unsimplified) > count(&simplified),
        "expected fewer division/modulo operations with simplification: {} vs {}",
        count(&simplified),
        count(&unsimplified)
    );
}

#[test]
fn results_are_identical_across_optimisation_levels() {
    let n = ArithExpr::size_var("N");
    let mut p = Program::new("square");
    let mult = p.user_fun(UserFun::mult_pair());
    let m = p.map_glb(0, mult);
    let z = p.zip2();
    p.with_root(
        vec![
            ("x", Type::array(Type::float(), n.clone())),
            ("y", Type::array(Type::float(), n)),
        ],
        |p, params| {
            let zipped = p.apply(z, [params[0], params[1]]);
            p.apply1(m, zipped)
        },
    );
    let x: Vec<f32> = (0..96).map(|i| i as f32).collect();
    let sizes = Environment::new().bind("N", 96);
    let mut outputs = Vec::new();
    for options in [
        CompilationOptions::all_optimisations(),
        CompilationOptions::without_array_access_simplification(),
        CompilationOptions::none(),
    ] {
        let kernel = compile_program(&p, &options.with_launch_1d(96, 32)).unwrap();
        let (out, _) = run_kernel(
            &kernel,
            &[x.clone(), x.clone()],
            &sizes,
            LaunchConfig::d1(96, 32),
        );
        outputs.push(out);
    }
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[1], outputs[2]);
}

// ------------------------------------------------------------------------ padded stencils

/// A hand-lowered boundary-handled 3-point stencil:
/// `mapGlb(reduceSeq(add, 0)) ∘ slide(3, 1) ∘ pad(1, 1, mode)`.
fn padded_stencil(n: usize, mode: PadMode) -> Program {
    let mut p = Program::new("stencil3");
    let add = p.user_fun(UserFun::add());
    let red = p.reduce_seq(add, 0.0);
    let glb = p.map_glb(0, red);
    let pad = p.pad(1usize, 1usize, mode);
    let s = p.slide(3usize, 1usize);
    p.with_root(vec![("x", Type::array(Type::float(), n))], |p, params| {
        let padded = p.apply1(pad, params[0]);
        let windows = p.apply1(s, padded);
        p.apply1(glb, windows)
    });
    p
}

#[test]
fn padded_stencil_matches_the_interpreter_for_every_mode() {
    let n = 32;
    let input: Vec<f32> = (0..n).map(|i| (i as f32 * 0.5) - 3.0).collect();
    for mode in [PadMode::Clamp, PadMode::Mirror, PadMode::Wrap] {
        let p = padded_stencil(n, mode);
        let expected =
            evaluate_with_sizes(&p, &[Value::from_f32_slice(&input)], &Environment::new())
                .expect("interpreter runs")
                .flatten_f32();

        let options = CompilationOptions::all_optimisations().with_launch_1d(n, 8);
        let kernel = compile_program(&p, &options).expect("compiles");
        // The pad view emits branch-free min/max (or double-mod) index arithmetic; the
        // virtual GPU's bounds checker rejects any out-of-range access, so a successful
        // run proves there are none.
        let (out, _) = run_kernel(
            &kernel,
            std::slice::from_ref(&input),
            &Environment::new(),
            LaunchConfig::d1(n, 8),
        );
        assert_close(&out, &expected);
    }
}

#[test]
fn pad_as_final_producer_is_a_typed_error() {
    let mut p = Program::new("bad");
    let pad = p.pad(1usize, 1usize, PadMode::Clamp);
    p.with_root(
        vec![("x", Type::array(Type::float(), 8usize))],
        |p, params| p.apply1(pad, params[0]),
    );
    let err = compile_program(&p, &CompilationOptions::all_optimisations()).unwrap_err();
    assert!(
        err.to_string().contains("read-side pattern"),
        "unexpected error: {err}"
    );
}

/// A hand-lowered 2D 5-point stencil over a padded grid: the `slide2d`/`pad2d` compositions
/// with their high-level maps already lowered to `mapSeq`, so the mapped layout patterns
/// compile as views (no intermediate buffers) and only the compute maps emit loops.
#[test]
fn two_dimensional_padded_stencil_compiles_as_views() {
    let (rows, cols) = (6usize, 8usize);
    let mut p = Program::new("stencil2d");
    let add = p.user_fun(UserFun::add());
    // Per 3×3 window: sum of all 9 elements (join flattens the window).
    let red = p.reduce_seq(add, 0.0);
    let j = p.join();
    let window_sum = p.compose(&[red, j]);
    let inner_map = p.map_seq(window_sum);
    let row_map = p.map_glb(0, inner_map);
    // pad2d, lowered: mapSeq(pad) ∘ pad.
    let pad_rows = p.pad(1usize, 1usize, PadMode::Clamp);
    let pad_cols = p.pad(1usize, 1usize, PadMode::Clamp);
    let m_pad = p.map_seq(pad_cols);
    // slide2d, lowered: mapSeq(transpose) ∘ slide ∘ mapSeq(slide).
    let slide_cols = p.slide(3usize, 1usize);
    let m_slide = p.map_seq(slide_cols);
    let slide_rows = p.slide(3usize, 1usize);
    let t = p.transpose();
    let m_t = p.map_seq(t);
    p.with_root(
        vec![("grid", Type::array(Type::array(Type::float(), cols), rows))],
        |p, params| {
            let padded_rows = p.apply1(pad_rows, params[0]);
            let padded = p.apply1(m_pad, padded_rows);
            let row_windows = p.apply1(m_slide, padded);
            let grouped = p.apply1(slide_rows, row_windows);
            let neighbourhoods = p.apply1(m_t, grouped);
            p.apply1(row_map, neighbourhoods)
        },
    );

    let input: Vec<f32> = (0..rows * cols).map(|i| (i % 7) as f32 - 2.0).collect();
    let grid = Value::from_f32_matrix(&input, rows, cols);
    let expected = evaluate_with_sizes(&p, &[grid], &Environment::new())
        .expect("interpreter runs")
        .flatten_f32();

    let options = CompilationOptions::all_optimisations().with_launch_1d(rows, 2);
    let kernel = compile_program(&p, &options).expect("compiles");
    // The mapped layout patterns must not have materialised anything: the kernel contains
    // no temporary arrays, just the compute loops reading through the views.
    assert!(
        !kernel.source().contains("tmp"),
        "layout maps materialised a buffer:\n{}",
        kernel.source()
    );
    let (out, _) = run_kernel(
        &kernel,
        std::slice::from_ref(&input),
        &Environment::new(),
        LaunchConfig::d1(rows, 2),
    );
    assert_close(&out, &expected);
}

// --------------------------------------------------------- dimension-handling regressions

/// Two parallel loops of the same kind nested over the *same* dimension both stride the
/// same work-item id: only the diagonal index pairs would ever be computed, silently
/// leaving the off-diagonal output cells unwritten. The generator must reject this shape
/// statically rather than miscompile it.
#[test]
fn same_dimension_nested_parallel_maps_are_rejected() {
    let build = |inner_dim: u8| {
        let mut p = Program::new("nested");
        let id = p.user_fun(UserFun::id_float());
        let inner = p.map_lcl(inner_dim, id);
        let outer = p.map_lcl(0, inner);
        let wg = p.map_wrg(0, outer);
        p.with_root(
            vec![(
                "x",
                Type::array(
                    Type::array(Type::array(Type::float(), 4usize), 4usize),
                    4usize,
                ),
            )],
            |p, params| p.apply1(wg, params[0]),
        );
        p
    };

    // mapLcl0 ∘ mapLcl0: rejected with an error naming the dimension.
    let options = CompilationOptions::all_optimisations().with_launch([4, 4, 1], [4, 4, 1]);
    let err = compile_program(&build(0), &options).expect_err("same-dim nesting must not compile");
    let message = err.to_string();
    assert!(
        message.contains("mapLcl") && message.contains("dimension 0"),
        "unhelpful rejection: {message}"
    );

    // mapLcl0 ∘ mapLcl1: the 2D distribution compiles and runs correctly.
    let kernel = compile_program(&build(1), &options).expect("distinct dims compile");
    let input: Vec<f32> = (0..64).map(|i| i as f32).collect();
    let (out, _) = run_kernel(
        &kernel,
        std::slice::from_ref(&input),
        &Environment::new(),
        LaunchConfig::d2((4, 4), (4, 4)),
    );
    assert_close(&out, &input);
}

/// The same rejection applies per kind across the hierarchy: `mapWrg0 ∘ mapWrg0` is as
/// wrong as `mapLcl0 ∘ mapLcl0`, while `mapWrg1 ∘ mapWrg0` (the tiled-MM grid) is fine.
#[test]
fn same_dimension_nested_work_group_maps_are_rejected() {
    let build = |outer_dim: u8| {
        let mut p = Program::new("grid");
        let id = p.user_fun(UserFun::id_float());
        let lcl = p.map_lcl(0, id);
        let inner_wrg = p.map_wrg(0, lcl);
        let outer_wrg = p.map_wrg(outer_dim, inner_wrg);
        p.with_root(
            vec![(
                "x",
                Type::array(
                    Type::array(Type::array(Type::float(), 4usize), 2usize),
                    2usize,
                ),
            )],
            |p, params| p.apply1(outer_wrg, params[0]),
        );
        p
    };
    let options = CompilationOptions::all_optimisations().with_launch([8, 2, 1], [4, 1, 1]);
    let err =
        compile_program(&build(0), &options).expect_err("same-dim work-group nesting rejected");
    assert!(
        err.to_string().contains("mapWrg") && err.to_string().contains("dimension 0"),
        "unhelpful rejection: {err}"
    );
    compile_program(&build(1), &options).expect("mapWrg1 over mapWrg0 compiles");
}
