//! Matrix multiplication (Table 1: MM, CLBlast-style AMD and NVIDIA mappings).
//!
//! Both variants compute `C = A·B` with a two-dimensional iteration space:
//!
//! * **AMD** — every global work item computes one element of `C`, reading its row of `A`
//!   straight from global memory (the original CLBlast AMD configuration does not tile in
//!   local memory).
//! * **NVIDIA** — the row of `A` is first staged in *private* memory (`toPrivate`) before the
//!   inner loop over the columns of `B`, mirroring the register blocking of the CLBlast
//!   NVIDIA configuration. (The original additionally tiles in local memory and vectorises;
//!   this reproduction keeps the register-blocking dimension and documents the rest.)

use lift_arith::ArithExpr;
use lift_ir::{Program, Type, UserFun};
use lift_ocl::{CExpr, CStmt, Kernel};
use lift_vgpu::{KernelArg, LaunchConfig};

use crate::refs;
use crate::workload::random_matrix;
use crate::{BenchmarkCase, BenchmarkInfo, ProblemSize};

fn dim(size: ProblemSize) -> usize {
    match size {
        ProblemSize::Small => 32,
        ProblemSize::Large => 48,
    }
}

/// Transposes a `rows x cols` matrix the way the paper expresses it (Section 3.2):
/// `split rows . gather(stride rows) . join`, rather than with a built-in transpose. The
/// gather introduces the division/modulo-laden indices that only the array-access
/// simplification of Section 5.3 can clean up.
fn gather_transpose(p: &mut Program, matrix: lift_ir::ExprId, rows: usize) -> lift_ir::ExprId {
    let j = p.join();
    let g = p.gather(lift_ir::Reorder::Stride(ArithExpr::cst(rows as i64)));
    let s = p.split(rows);
    let joined = p.apply1(j, matrix);
    let gathered = p.apply1(g, joined);
    p.apply1(s, gathered)
}

/// Host reference: `C = A·B` with `A` of shape `m×k` and `B` of shape `k×n`.
pub fn host_reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for kk in 0..k {
                acc += a[i * k + kk] * b[kk * n + j];
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// The AMD-style Lift program: 2D `mapGlb` with the dot product over `zip(arow, bcol)`.
pub fn amd_lift_program(m: usize, k: usize, n: usize) -> Program {
    let mut p = Program::new("mm_amd");
    let mult_add = p.user_fun(UserFun::mult_and_sum_up_pair());
    let m_expr = ArithExpr::cst(m as i64);
    let k_expr = ArithExpr::cst(k as i64);
    let n_expr = ArithExpr::cst(n as i64);
    p.with_root(
        vec![
            (
                "A",
                Type::array(Type::array(Type::float(), k_expr.clone()), m_expr),
            ),
            ("B", Type::array(Type::array(Type::float(), n_expr), k_expr)),
        ],
        |p, params| {
            let b = params[1];
            let per_row = p.lambda(&["arow"], |p, row_params| {
                let arow = row_params[0];
                let per_col = p.lambda(&["bcol"], |p, col_params| {
                    let z = p.zip2();
                    let zipped = p.apply(z, [arow, col_params[0]]);
                    let red = p.reduce_seq_pattern(mult_add);
                    let init = p.literal_f32(0.0);
                    p.apply(red, [init, zipped])
                });
                let inner = p.map_glb(1, per_col);
                let j = p.join();
                let bt = gather_transpose(p, b, k);
                let mapped = p.apply1(inner, bt);
                p.apply1(j, mapped)
            });
            let outer = p.map_glb(0, per_row);
            p.apply1(outer, params[0])
        },
    );
    p
}

/// The NVIDIA-style Lift program: like the AMD mapping but the row of `A` is copied into
/// private memory (register blocking) before the inner loop.
pub fn nvidia_lift_program(m: usize, k: usize, n: usize) -> Program {
    let mut p = Program::new("mm_nvidia");
    let mult_add = p.user_fun(UserFun::mult_and_sum_up_pair());
    let m_expr = ArithExpr::cst(m as i64);
    let k_expr = ArithExpr::cst(k as i64);
    let n_expr = ArithExpr::cst(n as i64);
    p.with_root(
        vec![
            (
                "A",
                Type::array(Type::array(Type::float(), k_expr.clone()), m_expr),
            ),
            ("B", Type::array(Type::array(Type::float(), n_expr), k_expr)),
        ],
        |p, params| {
            let b = params[1];
            let per_row = p.lambda(&["arow"], |p, row_params| {
                // Register-block the row of A: copy it to private memory first.
                let idf = p.user_fun(UserFun::id_float());
                let copy_seq = p.map_seq(idf);
                let to_priv = p.to_private(copy_seq);
                let arow_priv = p.apply1(to_priv, row_params[0]);
                let with_private_row = p.lambda(&["arowp"], |p, priv_params| {
                    let arowp = priv_params[0];
                    let per_col = p.lambda(&["bcol"], |p, col_params| {
                        let z = p.zip2();
                        let zipped = p.apply(z, [arowp, col_params[0]]);
                        let red = p.reduce_seq_pattern(mult_add);
                        let init = p.literal_f32(0.0);
                        p.apply(red, [init, zipped])
                    });
                    let inner = p.map_glb(1, per_col);
                    let j = p.join();
                    let bt = gather_transpose(p, b, k);
                    let mapped = p.apply1(inner, bt);
                    p.apply1(j, mapped)
                });
                p.apply1(with_private_row, arow_priv)
            });
            let outer = p.map_glb(0, per_row);
            p.apply1(outer, params[0])
        },
    );
    p
}

/// The *high-level* matrix multiplication — the paper's Section 3 expression before any
/// implementation choices: `A ↦ map(λarow. join(map(λbcol. reduce(add, 0) ∘ map(×) ∘
/// zip(arow, bcol))(transpose B)))(A)`.
///
/// It contains only backend-agnostic `map`/`reduce` patterns; `lift-rewrite` lowers it (and
/// `lift-tuner` searches the parameter space) to OpenCL variants such as
/// [`amd_lift_program`]/[`nvidia_lift_program`].
pub fn high_level_program(m: usize, k: usize, n: usize) -> Program {
    let mut p = Program::new("mm");
    let mult = p.user_fun(UserFun::mult_pair());
    let add = p.user_fun(UserFun::add());
    let m_expr = ArithExpr::cst(m as i64);
    let k_expr = ArithExpr::cst(k as i64);
    let n_expr = ArithExpr::cst(n as i64);
    p.with_root(
        vec![
            (
                "A",
                Type::array(Type::array(Type::float(), k_expr.clone()), m_expr),
            ),
            ("B", Type::array(Type::array(Type::float(), n_expr), k_expr)),
        ],
        |p, params| {
            let b = params[1];
            let per_row = p.lambda(&["arow"], |p, row_params| {
                let arow = row_params[0];
                let per_col = p.lambda(&["bcol"], |p, col_params| {
                    let z = p.zip2();
                    let zipped = p.apply(z, [arow, col_params[0]]);
                    let products = p.map(mult);
                    let mapped = p.apply1(products, zipped);
                    let red = p.reduce(add, 0.0);
                    p.apply1(red, mapped)
                });
                let inner = p.map(per_col);
                let t = p.transpose();
                let j = p.join();
                let bt = p.apply1(t, b);
                let cols = p.apply1(inner, bt);
                p.apply1(j, cols)
            });
            let outer = p.map(per_row);
            p.apply1(outer, params[0])
        },
    );
    p
}

/// Hand-written reference kernel: one output element per (2D) work item, flat indexing.
fn reference_kernel(name: &str) -> Kernel {
    let row = CExpr::global_id(0);
    let col = CExpr::global_id(1);
    let body = vec![
        refs::decl_float("acc", CExpr::float(0.0)),
        refs::for_loop(
            "kk",
            CExpr::var("K"),
            vec![CStmt::Assign {
                lhs: CExpr::var("acc"),
                rhs: CExpr::var("acc").add(
                    CExpr::var("A")
                        .at(row.clone().mul(CExpr::var("K")).add(CExpr::var("kk")))
                        .mul(
                            CExpr::var("B")
                                .at(CExpr::var("kk").mul(CExpr::var("N")).add(col.clone())),
                        ),
                ),
            }],
        ),
        CStmt::Assign {
            lhs: CExpr::var("out").at(row.mul(CExpr::var("N")).add(col)),
            rhs: CExpr::var("acc"),
        },
    ];
    Kernel {
        name: name.into(),
        params: vec![
            refs::input("A"),
            refs::input("B"),
            refs::output("out"),
            refs::int_param("K"),
            refs::int_param("N"),
        ],
        body,
    }
}

fn build_case(size: ProblemSize, nvidia: bool) -> BenchmarkCase {
    let d = dim(size);
    let (m, k, n) = (d, d, d);
    let a = random_matrix(81, m, k, -1.0, 1.0);
    let b = random_matrix(82, k, n, -1.0, 1.0);
    let expected = host_reference(&a, &b, m, k, n);
    let (program, info, kernel_name) = if nvidia {
        (
            nvidia_lift_program(m, k, n),
            BenchmarkInfo {
                name: "MM (NVIDIA)",
                source: "CLBlast",
                characteristics_paper: "local private vec coal 2D",
                opencl_loc_paper: 768,
                high_level_loc_paper: 17,
                low_level_loc_paper: 65,
            },
            "mm_nvidia_ref",
        )
    } else {
        (
            amd_lift_program(m, k, n),
            BenchmarkInfo {
                name: "MM (AMD)",
                source: "CLBlast",
                characteristics_paper: "- private vec coal 2D",
                opencl_loc_paper: 768,
                high_level_loc_paper: 17,
                low_level_loc_paper: 38,
            },
            "mm_amd_ref",
        )
    };
    let kernel = reference_kernel(kernel_name);
    let reference_kernel = kernel.name.clone();
    BenchmarkCase {
        info,
        size,
        program,
        inputs: vec![a.clone(), b.clone()],
        sizes: lift_arith::Environment::new(),
        launch: LaunchConfig::d2((m, n), (8, 8)),
        reference_module: refs::module(kernel),
        reference_kernel,
        reference_args: vec![
            KernelArg::Buffer(a),
            KernelArg::Buffer(b),
            KernelArg::zeros(m * n),
            KernelArg::Int(k as i64),
            KernelArg::Int(n as i64),
        ],
        reference_output_buffer: 2,
        expected,
    }
}

/// The CLBlast-AMD-style benchmark case.
pub fn amd_case(size: ProblemSize) -> BenchmarkCase {
    build_case(size, false)
}

/// The CLBlast-NVIDIA-style benchmark case.
pub fn nvidia_case(size: ProblemSize) -> BenchmarkCase {
    build_case(size, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lift_interp::{evaluate, Value};

    #[test]
    fn lift_programs_match_the_host_reference() {
        let (m, k, n) = (6, 8, 10);
        let a = random_matrix(1, m, k, -1.0, 1.0);
        let b = random_matrix(2, k, n, -1.0, 1.0);
        let expected = host_reference(&a, &b, m, k, n);
        for program in [
            amd_lift_program(m, k, n),
            nvidia_lift_program(m, k, n),
            high_level_program(m, k, n),
        ] {
            let out = evaluate(
                &program,
                &[
                    Value::from_f32_matrix(&a, m, k),
                    Value::from_f32_matrix(&b, k, n),
                ],
            )
            .unwrap()
            .flatten_f32();
            for (o, e) in out.iter().zip(&expected) {
                assert!((o - e).abs() < 1e-3 * (1.0 + e.abs()), "{o} vs {e}");
            }
        }
    }
}
