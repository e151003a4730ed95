//! Regenerates Figure 8 of the paper: relative performance of the Lift-generated kernels
//! compared to the hand-written reference implementations, for the three optimisation levels,
//! both device profiles and both input sizes.
//!
//! Usage: `cargo run --release -p lift-bench --bin figure8 [small|large|both]`
//!
//! Every kernel (generated and reference) is executed on the virtual GPU; the bar heights are
//! the ratios of estimated execution times under the device profile's cost model. Outputs are
//! verified against the host reference on every run; the process exits non-zero if a
//! reference or generated kernel fails to run or produces a wrong output.

use lift_bench::{format_relative, geometric_mean};
use lift_benchmarks::runner::{relative_performance, run_lift, run_reference};
use lift_benchmarks::{all_benchmarks, ProblemSize};
use lift_codegen::CompilationOptions;
use lift_vgpu::DeviceProfile;

fn optimisation_levels() -> Vec<(&'static str, CompilationOptions)> {
    vec![
        ("none", CompilationOptions::none()),
        (
            "barrier+cf",
            CompilationOptions::without_array_access_simplification(),
        ),
        ("barrier+cf+array", CompilationOptions::all_optimisations()),
    ]
}

fn main() {
    let arg = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "both".to_string());
    let sizes: Vec<ProblemSize> = match arg.as_str() {
        "small" => vec![ProblemSize::Small],
        "large" => vec![ProblemSize::Large],
        _ => vec![ProblemSize::Small, ProblemSize::Large],
    };
    let devices = [DeviceProfile::amd(), DeviceProfile::nvidia()];
    // Rows with a failed run or a wrong output, over both device profiles.
    let mut failed_rows = 0;

    println!("Figure 8: performance of generated code relative to hand-written OpenCL");
    println!("(1.0 = parity with the manually optimised reference; higher is better)\n");

    for device in &devices {
        println!("==== Device profile: {} ====", device.name);
        println!(
            "{:<18} {:>6}  {:>18} {:>18} {:>18}  correct",
            "Benchmark", "size", "none", "barrier+cf", "barrier+cf+array"
        );
        let mut means: Vec<Vec<f64>> = vec![Vec::new(); optimisation_levels().len()];
        for size in &sizes {
            for case in all_benchmarks(*size) {
                let reference = match run_reference(&case) {
                    Ok(r) => r,
                    Err(e) => {
                        println!(
                            "{:<18} {:>6}  reference failed: {e}",
                            case.info.name,
                            size.label()
                        );
                        failed_rows += 1;
                        continue;
                    }
                };
                let mut cells = Vec::new();
                let mut all_correct = reference.correct;
                for (level_idx, (_, options)) in optimisation_levels().iter().enumerate() {
                    match run_lift(&case, options) {
                        Ok(outcome) => {
                            let rel = relative_performance(&outcome, &reference, device);
                            means[level_idx].push(rel);
                            all_correct &= outcome.correct;
                            cells.push(format_relative(rel));
                        }
                        Err(e) => {
                            all_correct = false;
                            cells.push(format!("error: {e}"));
                        }
                    }
                }
                if !all_correct {
                    failed_rows += 1;
                }
                println!(
                    "{:<18} {:>6}  {:>18} {:>18} {:>18}  {}",
                    case.info.name,
                    size.label(),
                    cells.first().cloned().unwrap_or_default(),
                    cells.get(1).cloned().unwrap_or_default(),
                    cells.get(2).cloned().unwrap_or_default(),
                    if all_correct { "yes" } else { "NO" },
                );
            }
        }
        println!(
            "{:<18} {:>6}  {:>18} {:>18} {:>18}",
            "Geometric mean",
            "",
            format_relative(geometric_mean(&means[0])),
            format_relative(geometric_mean(&means[1])),
            format_relative(geometric_mean(&means[2])),
        );
        println!();
    }

    println!(
        "Expected shape (cf. the paper): with all optimisations the generated code is on par \
         with the hand-written kernels; disabling array-access simplification costs the most \
         for the benchmarks that transpose or slide over their data (MM, ATAX, Convolution)."
    );
    if failed_rows > 0 {
        eprintln!("figure8: {failed_rows} row(s) failed to run or produced a wrong output");
        std::process::exit(1);
    }
}
