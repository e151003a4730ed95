//! N-Body simulation (Table 1: NVIDIA SDK and AMD SDK variants).
//!
//! Every body feels a softened gravitational pull from every other body. To keep the focus on
//! code generation (rather than the physics), bodies live on a line: the acceleration of body
//! `i` is `Σ_j d * rsqrt((d² + ε)³)` with `d = p_j - p_i`. The two Lift variants mirror the
//! two reference implementations of the paper:
//!
//! * **NVIDIA**: work-group based; the chunk of target bodies handled by a work group is first
//!   staged in local memory (`toLocal`), then each work item reduces over all source bodies.
//! * **AMD**: a flat `mapGlb` over the bodies with no local memory (the original uses
//!   vectorisation instead, which this reproduction notes but does not vectorise).

use lift_arith::ArithExpr;
use lift_ir::{Program, ScalarExpr, Type, UserFun};
use lift_ocl::{Builtin, CExpr, CStmt, CType, Fence, Kernel};
use lift_vgpu::{KernelArg, LaunchConfig};

use crate::refs;
use crate::workload::random_floats;
use crate::{BenchmarkCase, BenchmarkInfo, ProblemSize};

/// Softening factor of the interaction.
pub const SOFTENING: f32 = 0.01;

fn bodies(size: ProblemSize) -> usize {
    match size {
        ProblemSize::Small => 256,
        ProblemSize::Large => 512,
    }
}

const TILE: usize = 64;

/// The pairwise interaction user function: `acc + d * rsqrt((d² + ε)³)` with `d = p_j - p_i`.
pub fn interaction() -> UserFun {
    let d = || ScalarExpr::param(1).sub(ScalarExpr::param(2));
    let dist2 = || d().mul(d()).add(ScalarExpr::cf(f64::from(SOFTENING)));
    let inv = dist2().mul(dist2()).mul(dist2()).rsqrt();
    UserFun::new(
        "nbodyInteraction",
        vec![
            ("acc", Type::float()),
            ("pj", Type::float()),
            ("pi", Type::float()),
        ],
        Type::float(),
        ScalarExpr::param(0).add(d().mul(inv)),
    )
    .expect("well-formed")
}

/// Host reference.
pub fn host_reference(positions: &[f32]) -> Vec<f32> {
    positions
        .iter()
        .map(|pi| {
            positions
                .iter()
                .map(|pj| {
                    let d = pj - pi;
                    let dist2 = d * d + SOFTENING;
                    d / (dist2 * dist2 * dist2).sqrt()
                })
                .sum()
        })
        .collect()
}

/// The NVIDIA-style Lift program: work groups stage their targets in local memory.
pub fn nvidia_lift_program(n: usize) -> Program {
    let mut p = Program::new("nbody_nvidia");
    let interact = p.user_fun(interaction());
    let n_expr = ArithExpr::cst(n as i64);
    p.with_root(
        vec![("pos", Type::array(Type::float(), n_expr.clone()))],
        |p, params| {
            let positions = params[0];
            // Per target body: reduce the interaction over all source bodies.
            let per_body = p.lambda(&["pi"], |p, body_params| {
                let pi = body_params[0];
                let red_f = p.lambda(&["acc", "pj"], |p, red_params| {
                    p.apply(interact, [red_params[0], red_params[1], pi])
                });
                let reduce = p.reduce_seq_pattern(red_f);
                let init = p.literal_f32(0.0);
                p.apply(reduce, [init, positions])
            });
            // Work group: copy the chunk of targets into local memory, then map over it.
            let copy_chunk = {
                let idf = p.user_fun(UserFun::id_float());
                let ml = p.map_lcl(0, idf);
                p.to_local(ml)
            };
            let map_bodies = p.map_lcl(0, per_body);
            let joins = p.join();
            let wg_body = p.compose(&[joins, map_bodies, copy_chunk]);
            let wg = p.map_wrg(0, wg_body);
            let split = p.split(TILE);
            let join_out = p.join();
            let chunks = p.apply1(split, positions);
            let mapped = p.apply1(wg, chunks);
            p.apply1(join_out, mapped)
        },
    );
    p
}

/// The AMD-style Lift program: a flat global map with no local memory.
pub fn amd_lift_program(n: usize) -> Program {
    let mut p = Program::new("nbody_amd");
    let interact = p.user_fun(interaction());
    let n_expr = ArithExpr::cst(n as i64);
    p.with_root(
        vec![("pos", Type::array(Type::float(), n_expr.clone()))],
        |p, params| {
            let positions = params[0];
            let per_body = p.lambda(&["pi"], |p, body_params| {
                let pi = body_params[0];
                let red_f = p.lambda(&["acc", "pj"], |p, red_params| {
                    p.apply(interact, [red_params[0], red_params[1], pi])
                });
                let reduce = p.reduce_seq_pattern(red_f);
                let init = p.literal_f32(0.0);
                p.apply(reduce, [init, positions])
            });
            let m = p.map_glb(0, per_body);
            let j = p.join();
            let mapped = p.apply1(m, positions);
            p.apply1(j, mapped)
        },
    );
    p
}

/// The *high-level* N-Body program: `pos ↦ join(map(λpi. reduce(λ(acc, pj).
/// interaction(acc, pj, pi), 0)(pos))(pos))` — only backend-agnostic `map`/`reduce`
/// patterns, no work-group structure and no memory placement.
///
/// `lift-rewrite` lowers it to variants like [`amd_lift_program`] (flat `mapGlb`) and
/// `lift-tuner` searches the launch/parameter space per device.
pub fn high_level_program(n: usize) -> Program {
    let mut p = Program::new("nbody");
    let interact = p.user_fun(interaction());
    let n_expr = ArithExpr::cst(n as i64);
    p.with_root(
        vec![("pos", Type::array(Type::float(), n_expr.clone()))],
        |p, params| {
            let positions = params[0];
            let per_body = p.lambda(&["pi"], |p, body_params| {
                let pi = body_params[0];
                let red_f = p.lambda(&["acc", "pj"], |p, red_params| {
                    p.apply(interact, [red_params[0], red_params[1], pi])
                });
                let reduce = p.reduce_pattern(red_f);
                let init = p.literal_f32(0.0);
                p.apply(reduce, [init, positions])
            });
            let m = p.map(per_body);
            let j = p.join();
            let mapped = p.apply1(m, positions);
            p.apply1(j, mapped)
        },
    );
    p
}

/// Hand-written NVIDIA-style reference kernel: local-memory tiling of the source bodies.
fn nvidia_reference_kernel(n: usize) -> Kernel {
    let gid = CExpr::global_id(0);
    let lid = CExpr::local_id(0);
    let body = vec![
        CStmt::Decl {
            ty: CType::Float,
            name: "tile".into(),
            addr: Some(lift_ocl::AddrSpace::Local),
            array_len: Some(ArithExpr::cst(TILE as i64)),
            init: None,
        },
        refs::decl_float("pi", CExpr::var("pos").at(gid.clone())),
        refs::decl_float("acc", CExpr::float(0.0)),
        refs::for_loop(
            "t",
            CExpr::int((n / TILE) as i64),
            vec![
                CStmt::Assign {
                    lhs: CExpr::var("tile").at(lid.clone()),
                    rhs: CExpr::var("pos").at(CExpr::var("t")
                        .mul(CExpr::int(TILE as i64))
                        .add(lid.clone())),
                },
                CStmt::Barrier(Fence::local()),
                refs::for_loop(
                    "j",
                    CExpr::int(TILE as i64),
                    vec![
                        refs::decl_float(
                            "d",
                            CExpr::var("tile").at(CExpr::var("j")).sub(CExpr::var("pi")),
                        ),
                        refs::decl_float(
                            "dist2",
                            CExpr::var("d")
                                .mul(CExpr::var("d"))
                                .add(CExpr::float(f64::from(SOFTENING))),
                        ),
                        CStmt::Assign {
                            lhs: CExpr::var("acc"),
                            rhs: CExpr::var("acc").add(CExpr::var("d").mul(CExpr::Builtin(
                                Builtin::Rsqrt,
                                vec![CExpr::var("dist2")
                                    .mul(CExpr::var("dist2"))
                                    .mul(CExpr::var("dist2"))],
                            ))),
                        },
                    ],
                ),
                CStmt::Barrier(Fence::local()),
            ],
        ),
        CStmt::Assign {
            lhs: CExpr::var("out").at(gid),
            rhs: CExpr::var("acc"),
        },
    ];
    Kernel {
        name: "nbody_nvidia_ref".into(),
        params: vec![
            refs::input("pos"),
            refs::output("out"),
            refs::int_param("N"),
        ],
        body,
    }
}

/// Hand-written AMD-style reference kernel: a straightforward per-thread loop.
fn amd_reference_kernel() -> Kernel {
    let gid = CExpr::global_id(0);
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
                refs::decl_float(
                    "dist2",
                    CExpr::var("d")
                        .mul(CExpr::var("d"))
                        .add(CExpr::float(f64::from(SOFTENING))),
                ),
                CStmt::Assign {
                    lhs: CExpr::var("acc"),
                    rhs: CExpr::var("acc").add(CExpr::var("d").mul(CExpr::Builtin(
                        Builtin::Rsqrt,
                        vec![CExpr::var("dist2")
                            .mul(CExpr::var("dist2"))
                            .mul(CExpr::var("dist2"))],
                    ))),
                },
            ],
        ),
        CStmt::Assign {
            lhs: CExpr::var("out").at(gid),
            rhs: CExpr::var("acc"),
        },
    ];
    Kernel {
        name: "nbody_amd_ref".into(),
        params: vec![
            refs::input("pos"),
            refs::output("out"),
            refs::int_param("N"),
        ],
        body,
    }
}

fn build_case(size: ProblemSize, nvidia: bool) -> BenchmarkCase {
    let n = bodies(size);
    let positions = random_floats(11, n, -1.0, 1.0);
    let expected = host_reference(&positions);
    let (program, kernel, info) = if nvidia {
        (
            nvidia_lift_program(n),
            nvidia_reference_kernel(n),
            BenchmarkInfo {
                name: "N-Body (NVIDIA)",
                source: "NVIDIA SDK",
                characteristics_paper: "local private - coal 1D",
                opencl_loc_paper: 139,
                high_level_loc_paper: 34,
                low_level_loc_paper: 49,
            },
        )
    } else {
        (
            amd_lift_program(n),
            amd_reference_kernel(),
            BenchmarkInfo {
                name: "N-Body (AMD)",
                source: "AMD SDK",
                characteristics_paper: "- private vec coal 1D",
                opencl_loc_paper: 54,
                high_level_loc_paper: 34,
                low_level_loc_paper: 34,
            },
        )
    };
    let reference_kernel = kernel.name.clone();
    BenchmarkCase {
        info,
        size,
        program,
        inputs: vec![positions.clone()],
        sizes: lift_arith::Environment::new(),
        launch: LaunchConfig::d1(n, TILE),
        reference_module: refs::module(kernel),
        reference_kernel,
        reference_args: vec![
            KernelArg::Buffer(positions),
            KernelArg::zeros(n),
            KernelArg::Int(n as i64),
        ],
        reference_output_buffer: 1,
        expected,
    }
}

/// The NVIDIA-SDK-style benchmark case.
pub fn nvidia_case(size: ProblemSize) -> BenchmarkCase {
    build_case(size, true)
}

/// The AMD-SDK-style benchmark case.
pub fn amd_case(size: ProblemSize) -> BenchmarkCase {
    build_case(size, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characteristics;
    use lift_interp::{evaluate, Value};

    #[test]
    fn lift_programs_match_the_host_reference() {
        let n = 128;
        let positions = random_floats(3, n, -1.0, 1.0);
        let expected = host_reference(&positions);
        for program in [
            nvidia_lift_program(n),
            amd_lift_program(n),
            high_level_program(n),
        ] {
            let out = evaluate(&program, &[Value::from_f32_slice(&positions)])
                .expect("interpreter")
                .flatten_f32();
            for (a, e) in out.iter().zip(&expected) {
                assert!((a - e).abs() < 1e-2 * (1.0 + e.abs()), "{a} vs {e}");
            }
        }
    }

    #[test]
    fn cases_are_well_formed() {
        let local_memory = |c: &BenchmarkCase| {
            let kernel = c.reference_module.kernel(&c.reference_kernel).unwrap();
            characteristics(kernel, &c.launch, &Default::default()).local_memory
        };
        let c = nvidia_case(ProblemSize::Small);
        assert_eq!(c.inputs[0].len(), c.expected.len());
        assert!(local_memory(&c));
        assert!(!local_memory(&amd_case(ProblemSize::Small)));
    }
}
