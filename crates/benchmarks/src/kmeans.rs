//! K-Means distance computation (Table 1: K-Means, from Rodinia).
//!
//! For every point the kernel computes the squared distance to the closest of `C` cluster
//! centroids (the membership step of K-Means). The output is the minimal distance per point;
//! the original Rodinia kernel additionally records the index, which does not change the
//! memory or compute behaviour being measured.

use lift_arith::ArithExpr;
use lift_ir::{Program, ScalarExpr, Type, UserFun};
use lift_ocl::{CExpr, CStmt, Kernel};
use lift_vgpu::{KernelArg, LaunchConfig};

use crate::refs;
use crate::workload::random_floats;
use crate::{BenchmarkCase, BenchmarkInfo, ProblemSize};

/// Number of cluster centroids.
pub const CLUSTERS: usize = 8;

fn points(size: ProblemSize) -> usize {
    match size {
        ProblemSize::Small => 4096,
        ProblemSize::Large => 16384,
    }
}

/// `minDist(acc, c, p) = min(acc, (c - p)²)`.
pub fn min_dist() -> UserFun {
    let d = || ScalarExpr::param(1).sub(ScalarExpr::param(2));
    UserFun::new(
        "minDist",
        vec![
            ("acc", Type::float()),
            ("c", Type::float()),
            ("p", Type::float()),
        ],
        Type::float(),
        ScalarExpr::param(0).min(d().mul(d())),
    )
    .expect("well-formed")
}

/// Host reference.
pub fn host_reference(points: &[f32], centroids: &[f32]) -> Vec<f32> {
    points
        .iter()
        .map(|p| {
            centroids
                .iter()
                .map(|c| (c - p) * (c - p))
                .fold(f32::INFINITY, f32::min)
        })
        .collect()
}

/// The Lift program: one global work item per point, sequential reduction over the centroids.
pub fn lift_program(n: usize, clusters: usize) -> Program {
    let mut p = Program::new("kmeans");
    let mind = p.user_fun(min_dist());
    let n_expr = ArithExpr::cst(n as i64);
    let c_expr = ArithExpr::cst(clusters as i64);
    p.with_root(
        vec![
            ("points", Type::array(Type::float(), n_expr)),
            ("centroids", Type::array(Type::float(), c_expr)),
        ],
        |p, params| {
            let centroids = params[1];
            let per_point = p.lambda(&["pt"], |p, lp| {
                let pt = lp[0];
                let red_f = p.lambda(&["acc", "c"], |p, rp| p.apply(mind, [rp[0], rp[1], pt]));
                let reduce = p.reduce_seq_pattern(red_f);
                let init = p.literal_f32(3.0e38);
                p.apply(reduce, [init, centroids])
            });
            let m = p.map_glb(0, per_point);
            let j = p.join();
            let mapped = p.apply1(m, params[0]);
            p.apply1(j, mapped)
        },
    );
    p
}

/// Hand-written reference kernel (per-thread loop over the centroids, as in Rodinia).
fn reference_kernel() -> Kernel {
    let gid = CExpr::global_id(0);
    let body = vec![
        refs::decl_float("p", CExpr::var("points").at(gid.clone())),
        refs::decl_float("best", CExpr::float(3.0e38)),
        refs::for_loop(
            "c",
            CExpr::int(CLUSTERS as i64),
            vec![
                refs::decl_float(
                    "d",
                    CExpr::var("centroids")
                        .at(CExpr::var("c"))
                        .sub(CExpr::var("p")),
                ),
                CStmt::Assign {
                    lhs: CExpr::var("best"),
                    rhs: CExpr::Call(
                        "fmin".into(),
                        vec![CExpr::var("best"), CExpr::var("d").mul(CExpr::var("d"))],
                    ),
                },
            ],
        ),
        CStmt::Assign {
            lhs: CExpr::var("out").at(gid),
            rhs: CExpr::var("best"),
        },
    ];
    Kernel {
        name: "kmeans_ref".into(),
        params: vec![
            refs::input("points"),
            refs::input("centroids"),
            refs::output("out"),
        ],
        body,
    }
}

/// The K-Means benchmark case.
pub fn case(size: ProblemSize) -> BenchmarkCase {
    let n = points(size);
    let pts = random_floats(31, n, -4.0, 4.0);
    let centroids = random_floats(32, CLUSTERS, -4.0, 4.0);
    let expected = host_reference(&pts, &centroids);
    let kernel = reference_kernel();
    let reference_kernel_name = kernel.name.clone();
    BenchmarkCase {
        info: BenchmarkInfo {
            name: "K-Means",
            source: "Rodinia",
            characteristics_paper: "- - - - 1D",
            opencl_loc_paper: 32,
            high_level_loc_paper: 25,
            low_level_loc_paper: 25,
        },
        size,
        program: lift_program(n, CLUSTERS),
        inputs: vec![pts.clone(), centroids.clone()],
        sizes: lift_arith::Environment::new(),
        launch: LaunchConfig::d1(n, 128),
        reference_module: refs::module(kernel),
        reference_kernel: reference_kernel_name,
        reference_args: vec![
            KernelArg::Buffer(pts),
            KernelArg::Buffer(centroids),
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
        let pts = random_floats(1, 64, -4.0, 4.0);
        let cs = random_floats(2, CLUSTERS, -4.0, 4.0);
        let out = evaluate(
            &lift_program(64, CLUSTERS),
            &[Value::from_f32_slice(&pts), Value::from_f32_slice(&cs)],
        )
        .unwrap()
        .flatten_f32();
        let expected = host_reference(&pts, &cs);
        for (a, e) in out.iter().zip(&expected) {
            assert!((a - e).abs() < 1e-3 * (1.0 + e.abs()));
        }
    }
}
