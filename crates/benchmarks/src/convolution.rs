//! Convolution (Table 1: Convolution, from the NVIDIA SDK).
//!
//! A 17-point convolution expressed with the `slide` pattern (Section 3.2). The paper reports
//! this benchmark as the one that suffers most (up to ~20×) when array-access simplification
//! is disabled, because the sliding-window views produce long index expressions; the same
//! effect is visible on the virtual GPU. The original is a 2-D separable convolution with
//! tiling; this reproduction keeps one dimension, which preserves the sliding-window access
//! pattern that drives the result.

use lift_arith::ArithExpr;
use lift_ir::{Program, Type, UserFun};
use lift_ocl::{CExpr, CStmt, Kernel};
use lift_vgpu::{KernelArg, LaunchConfig};

use crate::refs;
use crate::workload::random_floats;
use crate::{BenchmarkCase, BenchmarkInfo, ProblemSize};

/// Filter width.
pub const FILTER: usize = 17;

fn outputs(size: ProblemSize) -> usize {
    match size {
        ProblemSize::Small => 2048,
        ProblemSize::Large => 8192,
    }
}

/// Host reference.
pub fn host_reference(input: &[f32], weights: &[f32]) -> Vec<f32> {
    let n = input.len() - weights.len() + 1;
    (0..n)
        .map(|i| {
            weights
                .iter()
                .enumerate()
                .map(|(k, w)| input[i + k] * w)
                .sum()
        })
        .collect()
}

/// The *high-level* convolution — the program before any implementation choices:
/// `join ∘ map(λw. reduce(add, 0)(map(mult)(zip(w, weights)))) ∘ slide filter 1`.
///
/// This is the input of the rewrite-based derivation: `lift-rewrite` lowers the maps and
/// the reduction, and its stencil rule family (overlapped tiling with `toLocal` staging)
/// re-derives the paper's Section 3.2 work-group kernel — the same shape as the
/// hand-lowered [`lift_program`] — with the tile size exposed as a tuning knob.
pub fn high_level_program(n_out: usize, filter: usize) -> Program {
    let mut p = Program::new("convolution");
    let mult = p.user_fun(UserFun::mult_pair());
    let add = p.user_fun(UserFun::add());
    let in_len = ArithExpr::cst((n_out + filter - 1) as i64);
    let w_len = ArithExpr::cst(filter as i64);
    p.with_root(
        vec![
            ("input", Type::array(Type::float(), in_len)),
            ("weights", Type::array(Type::float(), w_len)),
        ],
        |p, params| {
            let weights = params[1];
            let m_in = p.map(mult);
            let red = p.reduce(add, 0.0);
            let per_window = p.lambda(&["window"], |p, lp| {
                let z = p.zip2();
                let zipped = p.apply(z, [lp[0], weights]);
                let mapped = p.apply1(m_in, zipped);
                p.apply1(red, mapped)
            });
            let mw = p.map(per_window);
            let slide = p.slide(filter, 1usize);
            let j = p.join();
            let windows = p.apply1(slide, params[0]);
            let mapped = p.apply1(mw, windows);
            p.apply1(j, mapped)
        },
    );
    p
}

/// The Lift program:
/// `join . mapWrg(join . mapLcl(reduceSeq(multAndSumUp, 0) . zip(weights)) ) . split L . slide 17 1`.
pub fn lift_program(n_out: usize, filter: usize, wg: usize) -> Program {
    let mut p = Program::new("convolution");
    let mult_add = p.user_fun(UserFun::mult_and_sum_up_pair());
    let in_len = ArithExpr::cst((n_out + filter - 1) as i64);
    let w_len = ArithExpr::cst(filter as i64);
    p.with_root(
        vec![
            ("input", Type::array(Type::float(), in_len)),
            ("weights", Type::array(Type::float(), w_len)),
        ],
        |p, params| {
            let weights = params[1];
            let per_window = p.lambda(&["window"], |p, lp| {
                let z = p.zip2();
                let zipped = p.apply(z, [lp[0], weights]);
                let red = p.reduce_seq_pattern(mult_add);
                let init = p.literal_f32(0.0);
                p.apply(red, [init, zipped])
            });
            let ml = p.map_lcl(0, per_window);
            let j_inner = p.join();
            let wg_body = p.compose(&[j_inner, ml]);
            let mw = p.map_wrg(0, wg_body);
            let split = p.split(wg);
            let slide = p.slide(filter, 1usize);
            let j_out = p.join();
            let windows = p.apply1(slide, params[0]);
            let grouped = p.apply1(split, windows);
            let mapped = p.apply1(mw, grouped);
            p.apply1(j_out, mapped)
        },
    );
    p
}

/// Hand-written reference kernel: each thread convolves one output element with direct,
/// division-free indexing (as the hand-tuned NVIDIA SDK kernel does).
fn reference_kernel() -> Kernel {
    let gid = CExpr::global_id(0);
    let body = vec![
        refs::decl_float("acc", CExpr::float(0.0)),
        refs::for_loop(
            "k",
            CExpr::int(FILTER as i64),
            vec![CStmt::Assign {
                lhs: CExpr::var("acc"),
                rhs: CExpr::var("acc").add(
                    CExpr::var("input")
                        .at(gid.clone().add(CExpr::var("k")))
                        .mul(CExpr::var("weights").at(CExpr::var("k"))),
                ),
            }],
        ),
        CStmt::Assign {
            lhs: CExpr::var("out").at(gid),
            rhs: CExpr::var("acc"),
        },
    ];
    Kernel {
        name: "convolution_ref".into(),
        params: vec![
            refs::input("input"),
            refs::input("weights"),
            refs::output("out"),
        ],
        body,
    }
}

/// The convolution benchmark case.
pub fn case(size: ProblemSize) -> BenchmarkCase {
    let n_out = outputs(size);
    let input = random_floats(61, n_out + FILTER - 1, -1.0, 1.0);
    let weights = random_floats(62, FILTER, -0.5, 0.5);
    let expected = host_reference(&input, &weights);
    let kernel = reference_kernel();
    let reference_kernel_name = kernel.name.clone();
    BenchmarkCase {
        info: BenchmarkInfo {
            name: "Convolution",
            source: "NVIDIA SDK",
            characteristics_paper: "local - - coal 2D",
            opencl_loc_paper: 92,
            high_level_loc_paper: 48,
            low_level_loc_paper: 48,
        },
        size,
        program: lift_program(n_out, FILTER, 64),
        inputs: vec![input.clone(), weights.clone()],
        sizes: lift_arith::Environment::new(),
        launch: LaunchConfig::d1(n_out, 64),
        reference_module: refs::module(kernel),
        reference_kernel: reference_kernel_name,
        reference_args: vec![
            KernelArg::Buffer(input),
            KernelArg::Buffer(weights),
            KernelArg::zeros(n_out),
        ],
        reference_output_buffer: 2,
        expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lift_interp::{evaluate, Value};

    #[test]
    fn high_level_program_matches_host_reference_and_hand_lowered_kernel() {
        let n_out = 48;
        let input = random_floats(7, n_out + FILTER - 1, -1.0, 1.0);
        let weights = random_floats(8, FILTER, -0.5, 0.5);
        let args = [
            Value::from_f32_slice(&input),
            Value::from_f32_slice(&weights),
        ];
        let high = evaluate(&high_level_program(n_out, FILTER), &args)
            .expect("high-level program runs")
            .flatten_f32();
        let hand = evaluate(&lift_program(n_out, FILTER, 16), &args)
            .expect("hand-lowered program runs")
            .flatten_f32();
        let expected = host_reference(&input, &weights);
        assert_eq!(high.len(), expected.len());
        for ((a, b), e) in high.iter().zip(&hand).zip(&expected) {
            assert!((a - e).abs() < 1e-3 * (1.0 + e.abs()), "{a} vs host {e}");
            assert!((a - b).abs() < 1e-3 * (1.0 + b.abs()), "{a} vs hand {b}");
        }
        // The high-level program still contains undecided maps/reduces for the rule
        // engine to lower.
        assert!(high_level_program(n_out, FILTER)
            .first_high_level_pattern()
            .is_some());
    }

    #[test]
    fn interpreter_matches_host_reference() {
        let n_out = 64;
        let input = random_floats(1, n_out + FILTER - 1, -1.0, 1.0);
        let weights = random_floats(2, FILTER, -0.5, 0.5);
        let out = evaluate(
            &lift_program(n_out, FILTER, 16),
            &[
                Value::from_f32_slice(&input),
                Value::from_f32_slice(&weights),
            ],
        )
        .unwrap()
        .flatten_f32();
        let expected = host_reference(&input, &weights);
        assert_eq!(out.len(), expected.len());
        for (a, e) in out.iter().zip(&expected) {
            assert!((a - e).abs() < 1e-3 * (1.0 + e.abs()));
        }
    }
}
