//! The paper's running example: the partial dot product of Listing 1, compiled to the OpenCL
//! kernel of Figure 7 and executed on the virtual GPU.
//!
//! Run with `cargo run --release --example dot_product`.

use lift::benchmarks::dot_product;
use lift::codegen::{compile_program, CompilationOptions};
use lift::vgpu::{DeviceProfile, ExecutionRequest, LaunchConfig};

fn main() {
    let n = 16 * 1024;
    let program = dot_product::lift_program(n);
    println!("== Listing 1 (low-level Lift IL) ==\n{program}");

    // Compile for 64 threads per work group, one work group per 128-element chunk.
    let launch = LaunchConfig::d1(n / 2, 64);
    let options = CompilationOptions::all_optimisations().with_launch(launch.global, launch.local);
    let kernel = compile_program(&program, &options).expect("compiles");
    println!(
        "== Generated kernel (compare with Figure 7) ==\n{}",
        kernel.source()
    );

    // Prepare inputs and launch.
    let x: Vec<f32> = (0..n).map(|i| ((i % 17) as f32) * 0.25).collect();
    let y: Vec<f32> = (0..n).map(|i| ((i % 29) as f32) - 14.0).collect();
    let (args, out_idx) = kernel
        .bind_args(&[x.clone(), y.clone()], &Default::default())
        .expect("arguments bind");
    let result = ExecutionRequest::new(&kernel.module)
        .launch_sequence(&kernel.launch_plan(launch), args)
        .expect("runs");

    // The kernel produces one partial sum per work group; finish the reduction on the host,
    // exactly as the paper does ("we omit a second kernel which sums up all intermediate
    // results").
    let partials = &result.buffers[out_idx];
    let total: f32 = partials.iter().sum();
    let expected: f32 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
    println!("dot product = {total} (host reference {expected})");
    assert!((total - expected).abs() < 1e-2 * expected.abs());

    let device = DeviceProfile::nvidia();
    let report = &result.reports[0];
    println!(
        "work groups: {}, barriers: {}, estimated time: {:.1} units",
        report.counters.work_groups,
        report.counters.barriers,
        report.estimated_time(&device)
    );
}
