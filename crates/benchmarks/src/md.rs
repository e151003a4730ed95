//! Molecular dynamics (Table 1: MD, from the SHOC suite).
//!
//! Each particle accumulates a Lennard-Jones-style force contribution from every other
//! particle that lies within a cutoff radius. As for N-Body, particles live on a line; the
//! cutoff test exercises the `Select` (conditional) form of user functions, which the original
//! SHOC kernel also relies on (it skips non-neighbours).

use lift_arith::ArithExpr;
use lift_ir::{Program, ScalarExpr, Type, UserFun};
use lift_ocl::{CExpr, CStmt, Kernel};
use lift_vgpu::{KernelArg, LaunchConfig};

use crate::refs;
use crate::workload::random_floats;
use crate::{BenchmarkCase, BenchmarkInfo, ProblemSize};

/// Cutoff distance (squared) of the interaction.
pub const CUTOFF_SQ: f32 = 0.25;

fn particles(size: ProblemSize) -> usize {
    match size {
        ProblemSize::Small => 256,
        ProblemSize::Large => 512,
    }
}

/// The Lennard-Jones-style user function with a cutoff:
/// `acc + (r² < cutoff ? (1/r⁶ - 1/r¹²) * d : 0)` with `d = p_j - p_i`, `r² = d² + ε`.
pub fn lj_interaction() -> UserFun {
    let d = || ScalarExpr::param(1).sub(ScalarExpr::param(2));
    let r2 = || d().mul(d()).add(ScalarExpr::cf(0.01));
    let r6 = || r2().mul(r2()).mul(r2());
    let force = ScalarExpr::cf(1.0)
        .div(r6())
        .sub(ScalarExpr::cf(1.0).div(r6().mul(r6())))
        .mul(d());
    let within = ScalarExpr::Bin(
        lift_ir::BinOp::Lt,
        Box::new(r2()),
        Box::new(ScalarExpr::cf(f64::from(CUTOFF_SQ))),
    );
    UserFun::new(
        "ljInteraction",
        vec![
            ("acc", Type::float()),
            ("pj", Type::float()),
            ("pi", Type::float()),
        ],
        Type::float(),
        ScalarExpr::param(0).add(ScalarExpr::Select(
            Box::new(within),
            Box::new(force),
            Box::new(ScalarExpr::cf(0.0)),
        )),
    )
    .expect("well-formed")
}

fn lj_host(pi: f32, pj: f32) -> f32 {
    let d = pj - pi;
    let r2 = d * d + 0.01;
    if r2 < CUTOFF_SQ {
        let r6 = r2 * r2 * r2;
        (1.0 / r6 - 1.0 / (r6 * r6)) * d
    } else {
        0.0
    }
}

/// Host reference. Each particle's terms are summed in `f64` and rounded once, as the
/// virtual GPU accumulates: at `ProblemSize::Large` an `f32` running sum of terms up to
/// ~1e8 drifts past the comparison tolerance.
pub fn host_reference(positions: &[f32]) -> Vec<f32> {
    positions
        .iter()
        .map(|pi| {
            let sum: f64 = positions
                .iter()
                .map(|pj| f64::from(lj_host(*pi, *pj)))
                .sum();
            sum as f32
        })
        .collect()
}

/// The Lift program: a flat global map with a sequential reduction per particle.
pub fn lift_program(n: usize) -> Program {
    let mut p = Program::new("md");
    let interact = p.user_fun(lj_interaction());
    let n_expr = ArithExpr::cst(n as i64);
    p.with_root(
        vec![("pos", Type::array(Type::float(), n_expr))],
        |p, params| {
            let positions = params[0];
            let per_particle = p.lambda(&["pi"], |p, lp| {
                let pi = lp[0];
                let red_f = p.lambda(&["acc", "pj"], |p, rp| {
                    p.apply(interact, [rp[0], rp[1], pi])
                });
                let reduce = p.reduce_seq_pattern(red_f);
                let init = p.literal_f32(0.0);
                p.apply(reduce, [init, positions])
            });
            let m = p.map_glb(0, per_particle);
            let j = p.join();
            let mapped = p.apply1(m, positions);
            p.apply1(j, mapped)
        },
    );
    p
}

/// Hand-written reference kernel (per-thread loop, as in SHOC).
fn reference_kernel() -> Kernel {
    let gid = CExpr::global_id(0);
    let r2 = CExpr::var("d").mul(CExpr::var("d")).add(CExpr::float(0.01));
    let body = vec![
        refs::decl_float("pi", CExpr::var("pos").at(gid.clone())),
        refs::decl_float("acc", CExpr::float(0.0)),
        refs::for_loop(
            "j",
            CExpr::var("N"),
            vec![
                refs::decl_float(
                    "d",
                    CExpr::var("pos").at(CExpr::var("j")).sub(CExpr::var("pi")),
                ),
                refs::decl_float("r2", r2),
                refs::decl_float(
                    "r6",
                    CExpr::var("r2").mul(CExpr::var("r2")).mul(CExpr::var("r2")),
                ),
                CStmt::If {
                    cond: CExpr::var("r2").lt(CExpr::float(f64::from(CUTOFF_SQ))),
                    then: vec![CStmt::Assign {
                        lhs: CExpr::var("acc"),
                        rhs: CExpr::var("acc").add(
                            CExpr::float(1.0)
                                .div(CExpr::var("r6"))
                                .sub(CExpr::float(1.0).div(CExpr::var("r6").mul(CExpr::var("r6"))))
                                .mul(CExpr::var("d")),
                        ),
                    }],
                    otherwise: None,
                },
            ],
        ),
        CStmt::Assign {
            lhs: CExpr::var("out").at(gid),
            rhs: CExpr::var("acc"),
        },
    ];
    Kernel {
        name: "md_ref".into(),
        params: vec![
            refs::input("pos"),
            refs::output("out"),
            refs::int_param("N"),
        ],
        body,
    }
}

/// The MD benchmark case.
pub fn case(size: ProblemSize) -> BenchmarkCase {
    let n = particles(size);
    let positions = random_floats(23, n, -2.0, 2.0);
    let expected = host_reference(&positions);
    let kernel = reference_kernel();
    let reference_kernel_name = kernel.name.clone();
    BenchmarkCase {
        info: BenchmarkInfo {
            name: "MD",
            source: "SHOC",
            local_memory: false,
            private_memory: true,
            vectorisation: false,
            coalescing: true,
            iteration_space: "1D",
            opencl_loc_paper: 50,
            high_level_loc_paper: 34,
            low_level_loc_paper: 34,
        },
        size,
        program: lift_program(n),
        inputs: vec![positions.clone()],
        sizes: lift_arith::Environment::new(),
        launch: LaunchConfig::d1(n, 64),
        reference_module: refs::module(kernel),
        reference_kernel: reference_kernel_name,
        reference_args: vec![
            KernelArg::Buffer(positions),
            KernelArg::zeros(n),
            KernelArg::Int(n as i64),
        ],
        reference_output_buffer: 1,
        expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lift_interp::{evaluate, Value};

    #[test]
    fn interpreter_matches_host_reference() {
        let n = 128;
        let pos = random_floats(5, n, -2.0, 2.0);
        let out = evaluate(&lift_program(n), &[Value::from_f32_slice(&pos)])
            .unwrap()
            .flatten_f32();
        let expected = host_reference(&pos);
        for (a, e) in out.iter().zip(&expected) {
            assert!((a - e).abs() < 1e-2 * (1.0 + e.abs()), "{a} vs {e}");
        }
    }
}
