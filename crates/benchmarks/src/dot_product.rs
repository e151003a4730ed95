//! The partial dot product of Listing 1 — the paper's running example.
//!
//! This is not one of the Table 1 benchmarks, but it is the program whose generated kernel the
//! paper shows in Figure 7, so it is used by the `paper_stats` binary (which records that
//! kernel in `BENCH_paper.json`), by the quickstart example and throughout the test-suite.

use lift_arith::ArithExpr;
use lift_ir::{Program, Type, UserFun};

/// Builds the Listing 1 partial dot product for input length `n` (a multiple of 128).
///
/// Each work group reduces a chunk of 128 elements: a first pass multiplies pairs and reduces
/// two elements into local memory, an `iterate 6` tree-reduction finishes the chunk, and the
/// result is copied back to global memory.
pub fn lift_program(n: usize) -> Program {
    assert!(
        n.is_multiple_of(128),
        "the Listing 1 kernel processes chunks of 128 elements"
    );
    let mut p = Program::new("partialDot");
    let mult_add = p.user_fun(UserFun::mult_and_sum_up_pair());
    let add = p.user_fun(UserFun::add());

    // Step 1: split 2 . mapLcl(toLocal(mapSeq(id)) . reduceSeq(multAndSumUp, 0)) . join
    let red1 = p.reduce_seq(mult_add, 0.0);
    let copy_l1 = p.copy_to_local();
    let step1_f = p.compose(&[copy_l1, red1]);
    let step1_map = p.map_lcl(0, step1_f);
    let s2a = p.split(2usize);
    let j1 = p.join();
    let step1 = p.compose(&[j1, step1_map, s2a]);

    // Step 2: iterate 6 (join . mapLcl(toLocal(mapSeq(id)) . reduceSeq(add, 0)) . split 2)
    let red2 = p.reduce_seq(add, 0.0);
    let copy_l2 = p.copy_to_local();
    let step2_f = p.compose(&[copy_l2, red2]);
    let step2_map = p.map_lcl(0, step2_f);
    let s2b = p.split(2usize);
    let j2 = p.join();
    let iter_body = p.compose(&[j2, step2_map, s2b]);
    let step2 = p.iterate(6, iter_body);

    // Step 3: join . toGlobal(mapLcl(mapSeq(id))) . split 1
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

/// Builds the *high-level* partial dot product — Listing 1 before any implementation
/// choices are made: `join ∘ map(reduce(add, 0)) ∘ split 128 ∘ map(mult) ∘ zip`.
///
/// This is the input program of the rewrite-based derivation: it contains only the
/// backend-agnostic `map`/`reduce` patterns, and `lift-rewrite` explores the rule space to
/// lower it to OpenCL-specific variants (of which [`lift_program`] is a hand-derived one).
pub fn high_level_program(n: usize) -> Program {
    assert!(
        n.is_multiple_of(128),
        "the Listing 1 kernel processes chunks of 128 elements"
    );
    let mut p = Program::new("partial_dot");
    let mult = p.user_fun(UserFun::mult_pair());
    let add = p.user_fun(UserFun::add());
    let m1 = p.map(mult);
    let red = p.reduce(add, 0.0);
    let m2 = p.map(red);
    let s = p.split(128usize);
    let j = p.join();
    let z = p.zip2();
    let n_expr = ArithExpr::cst(n as i64);
    p.with_root(
        vec![
            ("x", Type::array(Type::float(), n_expr.clone())),
            ("y", Type::array(Type::float(), n_expr)),
        ],
        |p, params| {
            let zipped = p.apply(z, [params[0], params[1]]);
            let mapped = p.apply1(m1, zipped);
            let split = p.apply1(s, mapped);
            let outer = p.apply1(m2, split);
            p.apply1(j, outer)
        },
    );
    p
}

/// Host reference: the per-work-group partial sums.
pub fn host_reference(x: &[f32], y: &[f32]) -> Vec<f32> {
    x.chunks(128)
        .zip(y.chunks(128))
        .map(|(xs, ys)| xs.iter().zip(ys).map(|(a, b)| a * b).sum())
        .collect()
}

/// Builds the *high-level full* dot product: the partial sums of
/// [`high_level_program`] reduced once more to a single value —
/// `reduce(add, 0) ∘ join ∘ map(reduce(add, 0)) ∘ split 128 ∘ map(mult) ∘ zip`.
///
/// Unlike the partial dot product, this program cannot execute as one kernel with
/// device-wide parallelism: the final reduction consumes partial sums produced by *all*
/// work items, which needs a device-wide synchronisation point. Lowering it therefore
/// either serialises everything into one sequential kernel or derives the paper's
/// two-stage schedule — `mapGlb` partial sums staged in global memory (`toGlobal`) feeding
/// a second kernel-level reduce — which `lift-codegen` compiles to a *sequence* of kernels.
pub fn high_level_full_program(n: usize) -> Program {
    assert!(
        n.is_multiple_of(128),
        "the Listing 1 kernel processes chunks of 128 elements"
    );
    let mut p = Program::new("full_dot");
    let mult = p.user_fun(UserFun::mult_pair());
    let add = p.user_fun(UserFun::add());
    let m1 = p.map(mult);
    let red = p.reduce(add, 0.0);
    let m2 = p.map(red);
    let red_out = p.reduce(add, 0.0);
    let s = p.split(128usize);
    let j = p.join();
    let z = p.zip2();
    let n_expr = ArithExpr::cst(n as i64);
    p.with_root(
        vec![
            ("x", Type::array(Type::float(), n_expr.clone())),
            ("y", Type::array(Type::float(), n_expr)),
        ],
        |p, params| {
            let zipped = p.apply(z, [params[0], params[1]]);
            let mapped = p.apply1(m1, zipped);
            let split = p.apply1(s, mapped);
            let outer = p.apply1(m2, split);
            let joined = p.apply1(j, outer);
            p.apply1(red_out, joined)
        },
    );
    p
}

/// Builds the hand-lowered *two-stage* full dot product: stage 1 computes per-chunk
/// partial sums with `mapGlb(toGlobal(reduceSeq(multAndSumUp, 0)))` — each work item
/// publishes its partial result to global memory — and stage 2 reduces the partial sums
/// with a kernel-level `reduceSeq(add, 0)`.
///
/// `lift-codegen` compiles this to two kernels sharing one global temporary; the kernel
/// boundary is the device-wide synchronisation between the stages. The same schedule is
/// derived automatically from [`high_level_full_program`] by the `lift-rewrite`
/// exploration.
pub fn two_stage_program(n: usize) -> Program {
    assert!(
        n.is_multiple_of(128),
        "the Listing 1 kernel processes chunks of 128 elements"
    );
    let mut p = Program::new("two_stage_dot");
    let mult_add = p.user_fun(UserFun::mult_and_sum_up_pair());
    let add = p.user_fun(UserFun::add());
    let red1 = p.reduce_seq(mult_add, 0.0);
    let red1_global = p.to_global(red1);
    let glb = p.map_glb(0, red1_global);
    let red2 = p.reduce_seq(add, 0.0);
    let s = p.split(128usize);
    let j = p.join();
    let z = p.zip2();
    let n_expr = ArithExpr::cst(n as i64);
    p.with_root(
        vec![
            ("x", Type::array(Type::float(), n_expr.clone())),
            ("y", Type::array(Type::float(), n_expr)),
        ],
        |p, params| {
            let zipped = p.apply(z, [params[0], params[1]]);
            let split = p.apply1(s, zipped);
            let partials = p.apply1(glb, split);
            let joined = p.apply1(j, partials);
            p.apply1(red2, joined)
        },
    );
    p
}

/// Host reference for the full dot product: a single scalar (as a 1-element vector, the
/// shape of a Lift `reduce` result).
pub fn host_full_reference(x: &[f32], y: &[f32]) -> Vec<f32> {
    vec![host_reference(x, y).iter().sum()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::random_floats;
    use lift_interp::{evaluate, Value};

    #[test]
    fn interpreter_matches_the_host_reference() {
        let n = 256;
        let x = random_floats(1, n, -1.0, 1.0);
        let y = random_floats(2, n, -1.0, 1.0);
        let p = lift_program(n);
        let out = evaluate(&p, &[Value::from_f32_slice(&x), Value::from_f32_slice(&y)])
            .expect("interpreter runs")
            .flatten_f32();
        let expected = host_reference(&x, &y);
        assert_eq!(out.len(), expected.len());
        for (a, e) in out.iter().zip(&expected) {
            assert!((a - e).abs() < 1e-3, "{a} vs {e}");
        }
    }

    #[test]
    #[should_panic(expected = "chunks of 128")]
    fn length_must_be_a_multiple_of_128() {
        lift_program(100);
    }

    #[test]
    fn full_dot_interpreter_matches_the_host_reference() {
        let n = 256;
        let x = random_floats(3, n, -1.0, 1.0);
        let y = random_floats(4, n, -1.0, 1.0);
        let expected = host_full_reference(&x, &y);
        for p in [high_level_full_program(n), two_stage_program(n)] {
            let out = evaluate(&p, &[Value::from_f32_slice(&x), Value::from_f32_slice(&y)])
                .expect("interpreter runs")
                .flatten_f32();
            assert_eq!(out.len(), 1);
            assert!(
                (out[0] - expected[0]).abs() < 1e-2,
                "{} vs {}",
                out[0],
                expected[0]
            );
        }
    }
}
