//! Nearest Neighbour (Table 1: NN, from Rodinia).
//!
//! For every record (latitude, longitude) the kernel computes the Euclidean distance to a
//! fixed query location. This is the simplest benchmark of the suite: a single zipped map
//! with no reuse, entirely memory-bound.

use lift_arith::ArithExpr;
use lift_ir::{Program, ScalarExpr, Type, UserFun};
use lift_ocl::{Builtin, CExpr, CStmt, Kernel};
use lift_vgpu::{KernelArg, LaunchConfig};

use crate::refs;
use crate::workload::random_floats;
use crate::{BenchmarkCase, BenchmarkInfo, ProblemSize};

/// The fixed query location.
pub const QUERY_LAT: f32 = 0.5;
/// The fixed query location.
pub const QUERY_LNG: f32 = -0.25;

fn records(size: ProblemSize) -> usize {
    match size {
        ProblemSize::Small => 8192,
        ProblemSize::Large => 32768,
    }
}

/// `dist((lat, lng)) = sqrt((lat - qlat)² + (lng - qlng)²)`.
pub fn distance() -> UserFun {
    let lat = || {
        ScalarExpr::param(0)
            .get(0)
            .sub(ScalarExpr::cf(f64::from(QUERY_LAT)))
    };
    let lng = || {
        ScalarExpr::param(0)
            .get(1)
            .sub(ScalarExpr::cf(f64::from(QUERY_LNG)))
    };
    UserFun::new(
        "nnDistance",
        vec![("rec", Type::pair(Type::float(), Type::float()))],
        Type::float(),
        lat().mul(lat()).add(lng().mul(lng())).sqrt(),
    )
    .expect("well-formed")
}

/// Host reference.
pub fn host_reference(lat: &[f32], lng: &[f32]) -> Vec<f32> {
    lat.iter()
        .zip(lng)
        .map(|(a, b)| ((a - QUERY_LAT).powi(2) + (b - QUERY_LNG).powi(2)).sqrt())
        .collect()
}

/// The Lift program: `mapGlb(dist) . zip(lat, lng)`.
pub fn lift_program(n: usize) -> Program {
    let mut p = Program::new("nn");
    let dist = p.user_fun(distance());
    let m = p.map_glb(0, dist);
    let z = p.zip2();
    let n_expr = ArithExpr::cst(n as i64);
    p.with_root(
        vec![
            ("lat", Type::array(Type::float(), n_expr.clone())),
            ("lng", Type::array(Type::float(), n_expr)),
        ],
        |p, params| {
            let zipped = p.apply(z, [params[0], params[1]]);
            p.apply1(m, zipped)
        },
    );
    p
}

/// Hand-written reference kernel.
fn reference_kernel() -> Kernel {
    let gid = CExpr::global_id(0);
    let body = vec![
        refs::decl_float(
            "dlat",
            CExpr::var("lat")
                .at(gid.clone())
                .sub(CExpr::float(f64::from(QUERY_LAT))),
        ),
        refs::decl_float(
            "dlng",
            CExpr::var("lng")
                .at(gid.clone())
                .sub(CExpr::float(f64::from(QUERY_LNG))),
        ),
        CStmt::Assign {
            lhs: CExpr::var("out").at(gid),
            rhs: CExpr::Builtin(
                Builtin::Sqrt,
                vec![CExpr::var("dlat")
                    .mul(CExpr::var("dlat"))
                    .add(CExpr::var("dlng").mul(CExpr::var("dlng")))],
            ),
        },
    ];
    Kernel {
        name: "nn_ref".into(),
        params: vec![refs::input("lat"), refs::input("lng"), refs::output("out")],
        body,
    }
}

/// The NN benchmark case.
pub fn case(size: ProblemSize) -> BenchmarkCase {
    let n = records(size);
    let lat = random_floats(41, n, -1.0, 1.0);
    let lng = random_floats(42, n, -1.0, 1.0);
    let expected = host_reference(&lat, &lng);
    let kernel = reference_kernel();
    let reference_kernel_name = kernel.name.clone();
    BenchmarkCase {
        info: BenchmarkInfo {
            name: "NN",
            source: "Rodinia",
            characteristics_paper: "- - - coal 1D",
            opencl_loc_paper: 18,
            high_level_loc_paper: 7,
            low_level_loc_paper: 7,
        },
        size,
        program: lift_program(n),
        inputs: vec![lat.clone(), lng.clone()],
        sizes: lift_arith::Environment::new(),
        launch: LaunchConfig::d1(n, 128),
        reference_module: refs::module(kernel),
        reference_kernel: reference_kernel_name,
        reference_args: vec![
            KernelArg::Buffer(lat),
            KernelArg::Buffer(lng),
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
        let lat = random_floats(1, 64, -1.0, 1.0);
        let lng = random_floats(2, 64, -1.0, 1.0);
        let out = evaluate(
            &lift_program(64),
            &[Value::from_f32_slice(&lat), Value::from_f32_slice(&lng)],
        )
        .unwrap()
        .flatten_f32();
        let expected = host_reference(&lat, &lng);
        for (a, e) in out.iter().zip(&expected) {
            assert!((a - e).abs() < 1e-4);
        }
    }
}
