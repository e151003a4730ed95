//! MRI-Q (Table 1: MRI-Q, from Parboil).
//!
//! This reproduces the `ComputePhiMag` kernel of the Parboil MRI-Q benchmark: for every
//! k-space sample the magnitude `phiR² + phiI²` is computed from the real and imaginary
//! parts. Like NN it is a pure streaming kernel, used in the paper to show that trivial
//! programs lose nothing by going through the Lift pipeline.

use lift_arith::ArithExpr;
use lift_ir::{Program, ScalarExpr, Type, UserFun};
use lift_ocl::{CExpr, CStmt, Kernel};
use lift_vgpu::{KernelArg, LaunchConfig};

use crate::refs;
use crate::workload::random_floats;
use crate::{BenchmarkCase, BenchmarkInfo, ProblemSize};

fn samples(size: ProblemSize) -> usize {
    match size {
        ProblemSize::Small => 8192,
        ProblemSize::Large => 32768,
    }
}

/// `phiMag((r, i)) = r*r + i*i`.
pub fn phi_mag() -> UserFun {
    let r = || ScalarExpr::param(0).get(0);
    let i = || ScalarExpr::param(0).get(1);
    UserFun::new(
        "computePhiMag",
        vec![("phi", Type::pair(Type::float(), Type::float()))],
        Type::float(),
        r().mul(r()).add(i().mul(i())),
    )
    .expect("well-formed")
}

/// Host reference.
pub fn host_reference(phi_r: &[f32], phi_i: &[f32]) -> Vec<f32> {
    phi_r
        .iter()
        .zip(phi_i)
        .map(|(r, i)| r * r + i * i)
        .collect()
}

/// The Lift program: `mapGlb(phiMag) . zip(phiR, phiI)`.
pub fn lift_program(n: usize) -> Program {
    let mut p = Program::new("mriq_phimag");
    let f = p.user_fun(phi_mag());
    let m = p.map_glb(0, f);
    let z = p.zip2();
    let n_expr = ArithExpr::cst(n as i64);
    p.with_root(
        vec![
            ("phiR", Type::array(Type::float(), n_expr.clone())),
            ("phiI", Type::array(Type::float(), n_expr)),
        ],
        |p, params| {
            let zipped = p.apply(z, [params[0], params[1]]);
            p.apply1(m, zipped)
        },
    );
    p
}

/// Hand-written reference kernel (as in Parboil).
fn reference_kernel() -> Kernel {
    let gid = CExpr::global_id(0);
    let body = vec![
        refs::decl_float("r", CExpr::var("phiR").at(gid.clone())),
        refs::decl_float("i", CExpr::var("phiI").at(gid.clone())),
        CStmt::Assign {
            lhs: CExpr::var("out").at(gid),
            rhs: CExpr::var("r")
                .mul(CExpr::var("r"))
                .add(CExpr::var("i").mul(CExpr::var("i"))),
        },
    ];
    Kernel {
        name: "mriq_ref".into(),
        params: vec![
            refs::input("phiR"),
            refs::input("phiI"),
            refs::output("out"),
        ],
        body,
    }
}

/// The MRI-Q benchmark case.
pub fn case(size: ProblemSize) -> BenchmarkCase {
    let n = samples(size);
    let phi_r = random_floats(51, n, -1.0, 1.0);
    let phi_i = random_floats(52, n, -1.0, 1.0);
    let expected = host_reference(&phi_r, &phi_i);
    let kernel = reference_kernel();
    let reference_kernel_name = kernel.name.clone();
    BenchmarkCase {
        info: BenchmarkInfo {
            name: "MRI-Q",
            source: "Parboil",
            characteristics_paper: "- - - coal 1D",
            opencl_loc_paper: 41,
            high_level_loc_paper: 43,
            low_level_loc_paper: 43,
        },
        size,
        program: lift_program(n),
        inputs: vec![phi_r.clone(), phi_i.clone()],
        sizes: lift_arith::Environment::new(),
        launch: LaunchConfig::d1(n, 128),
        reference_module: refs::module(kernel),
        reference_kernel: reference_kernel_name,
        reference_args: vec![
            KernelArg::Buffer(phi_r),
            KernelArg::Buffer(phi_i),
            KernelArg::zeros(n),
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
    fn interpreter_matches_host_reference() {
        let r = random_floats(1, 64, -1.0, 1.0);
        let i = random_floats(2, 64, -1.0, 1.0);
        let out = evaluate(
            &lift_program(64),
            &[Value::from_f32_slice(&r), Value::from_f32_slice(&i)],
        )
        .unwrap()
        .flatten_f32();
        for (a, e) in out.iter().zip(&host_reference(&r, &i)) {
            assert!((a - e).abs() < 1e-4);
        }
    }
}
