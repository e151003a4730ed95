//! Regenerates Figure 7 of the paper: the compiler-generated OpenCL kernel for the partial
//! dot product of Listing 1.

use lift_benchmarks::dot_product;
use lift_codegen::{compile_program, CompilationOptions};

fn main() {
    let n = 16 * 1024;
    let program = dot_product::lift_program(n);

    println!("Listing 1 (low-level Lift IL):\n{program}");

    let options = CompilationOptions::all_optimisations().with_launch_1d(n / 2, 64);
    let kernel = compile_program(&program, &options).expect("the dot product compiles");
    println!("Figure 7 (generated OpenCL kernel):\n");
    println!("{}", kernel.source());

    let unoptimised = compile_program(
        &program,
        &CompilationOptions::none().with_launch_1d(n / 2, 64),
    )
    .expect("compiles");
    println!(
        "// With all optimisations: {} lines. Without: {} lines.",
        kernel.line_count(),
        unoptimised.line_count()
    );
}
