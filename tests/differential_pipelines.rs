//! Differential property test: randomly composed data-layout pipelines are compiled with the
//! full Lift pipeline and executed on the virtual GPU; the result must always agree with the
//! reference interpreter (and therefore with the denotational semantics of the patterns).
//!
//! The generated programs have the shape
//! `join . mapWrg(mapLcl(f)) . split L . <random layout prefix>` where the prefix is a random
//! sequence of `gather(reverse)`, `split k . join`, and `gather(stride)` steps — i.e. exactly
//! the kind of view compositions whose index generation (Section 5.3) is the subtle part of
//! the compiler.

use lift::codegen::{compile_program, CompilationOptions};
use lift::interp::{evaluate, Value};
use lift::ir::prelude::*;
use lift::vgpu::{ExecutionRequest, LaunchConfig};
use lift_arith::ArithExpr;
use proptest::prelude::*;

/// One data-layout step applied before the parallel copy.
#[derive(Clone, Debug)]
enum LayoutStep {
    Reverse,
    /// `join . split k` (a no-op data movement exercising both views).
    SplitJoin(usize),
    /// `gather(stride s)`, a transposition-style permutation.
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

fn run_compiled(program: &Program, input: &[f32], simplify: bool) -> Vec<f32> {
    let options = if simplify {
        CompilationOptions::all_optimisations()
    } else {
        CompilationOptions::none()
    }
    .with_launch_1d(input.len(), 32);
    let kernel = compile_program(program, &options).expect("pipeline compiles");
    let (args, out_index) = kernel
        .bind_args(&[input.to_vec()], &Default::default())
        .expect("arguments bind");
    let result = ExecutionRequest::new(&kernel.module)
        .launch_sequence(&kernel.launch_plan(LaunchConfig::d1(input.len(), 32)), args)
        .expect("pipeline executes");
    result.buffers[out_index].clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn compiled_pipelines_agree_with_the_interpreter(
        steps in proptest::collection::vec(layout_step(), 0..4),
        negate in any::<bool>(),
        seed in 0u32..1000,
    ) {
        let input: Vec<f32> = (0..128).map(|i| ((i as u32 * 37 + seed) % 101) as f32).collect();
        let program = build_program(&steps, negate);

        let expected = evaluate(&program, &[Value::from_f32_slice(&input)])
            .expect("interpreter")
            .flatten_f32();

        for simplify in [true, false] {
            let actual = run_compiled(&program, &input, simplify);
            prop_assert_eq!(&actual, &expected, "steps {:?} simplify {}", steps, simplify);
        }
    }
}
