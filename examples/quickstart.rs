//! Quickstart: write a small Lift program, compile it to OpenCL, inspect the kernel and run it
//! on the virtual GPU.
//!
//! Run with `cargo run --release --example quickstart`.

use lift::prelude::*;
use lift_vgpu::{KernelArg, LaunchConfig};

fn main() {
    // 1. Write the program: a parallel "axpy-like" pairwise multiplication
    //    out[i] = x[i] * y[i], expressed as mapGlb(mult) . zip(x, y).
    let n = ArithExpr::size_var("N");
    let mut program = Program::new("pairwise_mult");
    let mult = program.user_fun(UserFun::mult_pair());
    let map = program.map_glb(0, mult);
    let zip = program.zip2();
    program.with_root(
        vec![
            ("x", Type::array(Type::float(), n.clone())),
            ("y", Type::array(Type::float(), n)),
        ],
        |p, params| {
            let zipped = p.apply(zip, [params[0], params[1]]);
            p.apply1(map, zipped)
        },
    );
    println!("== Lift IL ==\n{program}");

    // 2. Compile it for a concrete launch configuration.
    let options = CompilationOptions::all_optimisations().with_launch_1d(1024, 128);
    let compiled = compile_program(&program, &options).expect("the program compiles");
    println!("== Generated OpenCL ==\n{}", compiled.source());

    // 3. Execute the generated kernel (a one-stage plan) on the virtual GPU.
    let x: Vec<f32> = (0..1024).map(|i| i as f32).collect();
    let y: Vec<f32> = (0..1024).map(|i| 0.5 * i as f32).collect();
    let result = ExecutionRequest::new(&compiled.module)
        .launch_sequence(
            &compiled.launch_plan(LaunchConfig::d1(1024, 128)),
            vec![
                KernelArg::Buffer(x.clone()),
                KernelArg::Buffer(y.clone()),
                KernelArg::zeros(1024),
                KernelArg::Int(1024),
            ],
        )
        .expect("the kernel runs");

    let out = &result.buffers[2];
    assert!((out[10] - x[10] * y[10]).abs() < 1e-3);
    println!("out[10] = {} (expected {})", out[10], x[10] * y[10]);

    // 4. Look at the cost model: estimated times under the two device profiles.
    for device in [DeviceProfile::nvidia(), DeviceProfile::amd()] {
        println!(
            "estimated time on {:<20}: {:.1} units",
            device.name,
            result.reports[0].estimated_time(&device)
        );
    }
}
