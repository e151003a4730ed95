//! Dense linear-algebra kernels (Table 1: ATAX, GEMV, GESUMMV, from CLBlast / PolyBench).
//!
//! * **GEMV** — `y = A·x`: one work item per row, sequential dot product along the row.
//! * **ATAX** — the second half of `Aᵀ(A·x)`: a matrix–vector product with the matrix accessed
//!   through a `transpose` view, which produces the strided (uncoalesced) accesses the paper's
//!   reference implementation avoids by construction.
//! * **GESUMMV** — `y = (A + B)·x`: two matrices are zipped row-wise and reduced together.

use lift_arith::ArithExpr;
use lift_ir::{Program, ScalarExpr, Type, UserFun};
use lift_ocl::{CExpr, CStmt, Kernel};
use lift_vgpu::{KernelArg, LaunchConfig};

use crate::refs;
use crate::workload::{random_floats, random_matrix};
use crate::{BenchmarkCase, BenchmarkInfo, ProblemSize};

fn dim(size: ProblemSize) -> usize {
    match size {
        ProblemSize::Small => 64,
        ProblemSize::Large => 128,
    }
}

/// `gesummvMac(acc, t) = acc + (t.0 + t.1) * t.2` where `t = (a_ij, b_ij, x_j)`.
pub fn gesummv_mac() -> UserFun {
    let t = ScalarExpr::param(1);
    UserFun::new(
        "gesummvMac",
        vec![
            ("acc", Type::float()),
            (
                "t",
                Type::tuple(vec![Type::float(), Type::float(), Type::float()]),
            ),
        ],
        Type::float(),
        ScalarExpr::param(0).add(t.clone().get(0).add(t.clone().get(1)).mul(t.get(2))),
    )
    .expect("well-formed")
}

// ---------------------------------------------------------------------------- host references

/// `y = A·x` on the host.
pub fn gemv_host(a: &[f32], x: &[f32], n: usize, m: usize) -> Vec<f32> {
    (0..n)
        .map(|i| (0..m).map(|j| a[i * m + j] * x[j]).sum())
        .collect()
}

/// `y = Aᵀ·x` on the host.
pub fn atax_host(a: &[f32], x: &[f32], n: usize, m: usize) -> Vec<f32> {
    (0..m)
        .map(|j| (0..n).map(|i| a[i * m + j] * x[i]).sum())
        .collect()
}

/// `y = (A + B)·x` on the host.
pub fn gesummv_host(a: &[f32], b: &[f32], x: &[f32], n: usize, m: usize) -> Vec<f32> {
    (0..n)
        .map(|i| (0..m).map(|j| (a[i * m + j] + b[i * m + j]) * x[j]).sum())
        .collect()
}

// ---------------------------------------------------------------------------- Lift programs

/// GEMV: `join . mapGlb(reduceSeq(multAndSumUp, 0) . zip(x)) . A`.
pub fn gemv_lift_program(n: usize, m: usize) -> Program {
    let mut p = Program::new("gemv");
    let mult_add = p.user_fun(UserFun::mult_and_sum_up_pair());
    let n_expr = ArithExpr::cst(n as i64);
    let m_expr = ArithExpr::cst(m as i64);
    p.with_root(
        vec![
            (
                "A",
                Type::array(Type::array(Type::float(), m_expr.clone()), n_expr),
            ),
            ("x", Type::array(Type::float(), m_expr)),
        ],
        |p, params| {
            let x = params[1];
            let per_row = p.lambda(&["row"], |p, lp| {
                let z = p.zip2();
                let zipped = p.apply(z, [lp[0], x]);
                let red = p.reduce_seq_pattern(mult_add);
                let init = p.literal_f32(0.0);
                p.apply(red, [init, zipped])
            });
            let m_glb = p.map_glb(0, per_row);
            let j = p.join();
            let mapped = p.apply1(m_glb, params[0]);
            p.apply1(j, mapped)
        },
    );
    p
}

/// ATAX (second pass): `join . mapGlb(reduceSeq(multAndSumUp, 0) . zip(x)) . transpose(A)`.
pub fn atax_lift_program(n: usize, m: usize) -> Program {
    let mut p = Program::new("atax");
    let mult_add = p.user_fun(UserFun::mult_and_sum_up_pair());
    let n_expr = ArithExpr::cst(n as i64);
    let m_expr = ArithExpr::cst(m as i64);
    p.with_root(
        vec![
            (
                "A",
                Type::array(Type::array(Type::float(), m_expr.clone()), n_expr.clone()),
            ),
            ("x", Type::array(Type::float(), n_expr)),
        ],
        |p, params| {
            let x = params[1];
            let per_col = p.lambda(&["col"], |p, lp| {
                let z = p.zip2();
                let zipped = p.apply(z, [lp[0], x]);
                let red = p.reduce_seq_pattern(mult_add);
                let init = p.literal_f32(0.0);
                p.apply(red, [init, zipped])
            });
            let m_glb = p.map_glb(0, per_col);
            let j = p.join();
            // Transposition expressed as split . gather(stride) . join, as in Section 3.2.
            let jt = p.join();
            let g = p.gather(lift_ir::Reorder::Stride(ArithExpr::cst(n as i64)));
            let st = p.split(n);
            let flat = p.apply1(jt, params[0]);
            let gathered = p.apply1(g, flat);
            let transposed = p.apply1(st, gathered);
            let mapped = p.apply1(m_glb, transposed);
            p.apply1(j, mapped)
        },
    );
    p
}

/// GESUMMV: `join . mapGlb(reduceSeq(gesummvMac, 0) . zip3(arow, brow, x)) . zip(A, B)`.
pub fn gesummv_lift_program(n: usize, m: usize) -> Program {
    let mut p = Program::new("gesummv");
    let mac = p.user_fun(gesummv_mac());
    let n_expr = ArithExpr::cst(n as i64);
    let m_expr = ArithExpr::cst(m as i64);
    p.with_root(
        vec![
            (
                "A",
                Type::array(Type::array(Type::float(), m_expr.clone()), n_expr.clone()),
            ),
            (
                "B",
                Type::array(Type::array(Type::float(), m_expr.clone()), n_expr),
            ),
            ("x", Type::array(Type::float(), m_expr)),
        ],
        |p, params| {
            let x = params[2];
            let per_row = p.lambda(&["rows"], |p, lp| {
                let g0 = p.get(0);
                let g1 = p.get(1);
                let arow = p.apply1(g0, lp[0]);
                let brow = p.apply1(g1, lp[0]);
                let z3 = p.zip(3);
                let zipped = p.apply(z3, [arow, brow, x]);
                let red = p.reduce_seq_pattern(mac);
                let init = p.literal_f32(0.0);
                p.apply(red, [init, zipped])
            });
            let zrows = p.zip2();
            let m_glb = p.map_glb(0, per_row);
            let j = p.join();
            let zipped_rows = p.apply(zrows, [params[0], params[1]]);
            let mapped = p.apply1(m_glb, zipped_rows);
            p.apply1(j, mapped)
        },
    );
    p
}

// ---------------------------------------------------------------------------- reference kernels

/// The CLBlast-style GEMV reference: one row per thread, flat indexing.
fn gemv_reference_kernel() -> Kernel {
    let gid = CExpr::global_id(0);
    let body = vec![
        refs::decl_float("acc", CExpr::float(0.0)),
        refs::for_loop(
            "j",
            CExpr::var("M"),
            vec![CStmt::Assign {
                lhs: CExpr::var("acc"),
                rhs: CExpr::var("acc").add(
                    CExpr::var("A")
                        .at(gid.clone().mul(CExpr::var("M")).add(CExpr::var("j")))
                        .mul(CExpr::var("x").at(CExpr::var("j"))),
                ),
            }],
        ),
        CStmt::Assign {
            lhs: CExpr::var("out").at(gid),
            rhs: CExpr::var("acc"),
        },
    ];
    Kernel {
        name: "gemv_ref".into(),
        params: vec![
            refs::input("A"),
            refs::input("x"),
            refs::output("out"),
            refs::int_param("M"),
        ],
        body,
    }
}

/// The ATAX reference: one column per thread (`A` accessed with stride `M`).
fn atax_reference_kernel() -> Kernel {
    let gid = CExpr::global_id(0);
    let body = vec![
        refs::decl_float("acc", CExpr::float(0.0)),
        refs::for_loop(
            "i",
            CExpr::var("N"),
            vec![CStmt::Assign {
                lhs: CExpr::var("acc"),
                rhs: CExpr::var("acc").add(
                    CExpr::var("A")
                        .at(CExpr::var("i").mul(CExpr::var("M")).add(gid.clone()))
                        .mul(CExpr::var("x").at(CExpr::var("i"))),
                ),
            }],
        ),
        CStmt::Assign {
            lhs: CExpr::var("out").at(gid),
            rhs: CExpr::var("acc"),
        },
    ];
    Kernel {
        name: "atax_ref".into(),
        params: vec![
            refs::input("A"),
            refs::input("x"),
            refs::output("out"),
            refs::int_param("N"),
            refs::int_param("M"),
        ],
        body,
    }
}

/// The GESUMMV reference: one row per thread over both matrices.
fn gesummv_reference_kernel() -> Kernel {
    let gid = CExpr::global_id(0);
    let idx = gid.clone().mul(CExpr::var("M")).add(CExpr::var("j"));
    let body = vec![
        refs::decl_float("acc", CExpr::float(0.0)),
        refs::for_loop(
            "j",
            CExpr::var("M"),
            vec![CStmt::Assign {
                lhs: CExpr::var("acc"),
                rhs: CExpr::var("acc").add(
                    CExpr::var("A")
                        .at(idx.clone())
                        .add(CExpr::var("B").at(idx))
                        .mul(CExpr::var("x").at(CExpr::var("j"))),
                ),
            }],
        ),
        CStmt::Assign {
            lhs: CExpr::var("out").at(gid),
            rhs: CExpr::var("acc"),
        },
    ];
    Kernel {
        name: "gesummv_ref".into(),
        params: vec![
            refs::input("A"),
            refs::input("B"),
            refs::input("x"),
            refs::output("out"),
            refs::int_param("M"),
        ],
        body,
    }
}

// ---------------------------------------------------------------------------- cases

/// The GEMV benchmark case.
pub fn gemv_case(size: ProblemSize) -> BenchmarkCase {
    let n = dim(size);
    let m = dim(size);
    let a = random_matrix(71, n, m, -1.0, 1.0);
    let x = random_floats(72, m, -1.0, 1.0);
    let expected = gemv_host(&a, &x, n, m);
    let kernel = gemv_reference_kernel();
    let name = kernel.name.clone();
    BenchmarkCase {
        info: BenchmarkInfo {
            name: "GEMV",
            source: "CLBlast",
            characteristics_paper: "local - - coal 1D",
            opencl_loc_paper: 213,
            high_level_loc_paper: 15,
            low_level_loc_paper: 32,
        },
        size,
        program: gemv_lift_program(n, m),
        inputs: vec![a.clone(), x.clone()],
        sizes: lift_arith::Environment::new(),
        launch: LaunchConfig::d1(n, 16),
        reference_module: refs::module(kernel),
        reference_kernel: name,
        reference_args: vec![
            KernelArg::Buffer(a),
            KernelArg::Buffer(x),
            KernelArg::zeros(n),
            KernelArg::Int(m as i64),
        ],
        reference_output_buffer: 2,
        expected,
    }
}

/// The ATAX benchmark case.
pub fn atax_case(size: ProblemSize) -> BenchmarkCase {
    let n = dim(size);
    let m = dim(size);
    let a = random_matrix(73, n, m, -1.0, 1.0);
    let x = random_floats(74, n, -1.0, 1.0);
    let expected = atax_host(&a, &x, n, m);
    let kernel = atax_reference_kernel();
    let name = kernel.name.clone();
    BenchmarkCase {
        info: BenchmarkInfo {
            name: "ATAX",
            source: "CLBlast",
            characteristics_paper: "local - - coal 1D",
            opencl_loc_paper: 426,
            high_level_loc_paper: 30,
            low_level_loc_paper: 64,
        },
        size,
        program: atax_lift_program(n, m),
        inputs: vec![a.clone(), x.clone()],
        sizes: lift_arith::Environment::new(),
        launch: LaunchConfig::d1(m, 16),
        reference_module: refs::module(kernel),
        reference_kernel: name,
        reference_args: vec![
            KernelArg::Buffer(a),
            KernelArg::Buffer(x),
            KernelArg::zeros(m),
            KernelArg::Int(n as i64),
            KernelArg::Int(m as i64),
        ],
        reference_output_buffer: 2,
        expected,
    }
}

/// The GESUMMV benchmark case.
pub fn gesummv_case(size: ProblemSize) -> BenchmarkCase {
    let n = dim(size);
    let m = dim(size);
    let a = random_matrix(75, n, m, -1.0, 1.0);
    let b = random_matrix(76, n, m, -1.0, 1.0);
    let x = random_floats(77, m, -1.0, 1.0);
    let expected = gesummv_host(&a, &b, &x, n, m);
    let kernel = gesummv_reference_kernel();
    let name = kernel.name.clone();
    BenchmarkCase {
        info: BenchmarkInfo {
            name: "GESUMMV",
            source: "CLBlast",
            characteristics_paper: "local - - coal 1D",
            opencl_loc_paper: 426,
            high_level_loc_paper: 30,
            low_level_loc_paper: 64,
        },
        size,
        program: gesummv_lift_program(n, m),
        inputs: vec![a.clone(), b.clone(), x.clone()],
        sizes: lift_arith::Environment::new(),
        launch: LaunchConfig::d1(n, 16),
        reference_module: refs::module(kernel),
        reference_kernel: name,
        reference_args: vec![
            KernelArg::Buffer(a),
            KernelArg::Buffer(b),
            KernelArg::Buffer(x),
            KernelArg::zeros(n),
            KernelArg::Int(m as i64),
        ],
        reference_output_buffer: 3,
        expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lift_interp::{evaluate, Value};

    #[test]
    fn gemv_interpreter_matches_host() {
        let (n, m) = (8, 12);
        let a = random_matrix(1, n, m, -1.0, 1.0);
        let x = random_floats(2, m, -1.0, 1.0);
        let out = evaluate(
            &gemv_lift_program(n, m),
            &[Value::from_f32_matrix(&a, n, m), Value::from_f32_slice(&x)],
        )
        .unwrap()
        .flatten_f32();
        for (o, e) in out.iter().zip(&gemv_host(&a, &x, n, m)) {
            assert!((o - e).abs() < 1e-3 * (1.0 + e.abs()));
        }
    }

    #[test]
    fn atax_interpreter_matches_host() {
        let (n, m) = (8, 12);
        let a = random_matrix(3, n, m, -1.0, 1.0);
        let x = random_floats(4, n, -1.0, 1.0);
        let out = evaluate(
            &atax_lift_program(n, m),
            &[Value::from_f32_matrix(&a, n, m), Value::from_f32_slice(&x)],
        )
        .unwrap()
        .flatten_f32();
        for (o, e) in out.iter().zip(&atax_host(&a, &x, n, m)) {
            assert!((o - e).abs() < 1e-3 * (1.0 + e.abs()));
        }
    }

    #[test]
    fn gesummv_interpreter_matches_host() {
        let (n, m) = (8, 12);
        let a = random_matrix(5, n, m, -1.0, 1.0);
        let b = random_matrix(6, n, m, -1.0, 1.0);
        let x = random_floats(7, m, -1.0, 1.0);
        let out = evaluate(
            &gesummv_lift_program(n, m),
            &[
                Value::from_f32_matrix(&a, n, m),
                Value::from_f32_matrix(&b, n, m),
                Value::from_f32_slice(&x),
            ],
        )
        .unwrap()
        .flatten_f32();
        for (o, e) in out.iter().zip(&gesummv_host(&a, &b, &x, n, m)) {
            assert!((o - e).abs() < 1e-3 * (1.0 + e.abs()));
        }
    }
}
