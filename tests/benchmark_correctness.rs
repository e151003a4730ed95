//! Workspace-level integration test: every Table 1 benchmark compiles through the full Lift
//! pipeline, executes on the virtual GPU at every optimisation level, and both the generated
//! kernel and the hand-written reference kernel reproduce the host-computed result, at both
//! problem sizes.

use lift::benchmarks::runner::{run_lift, run_reference};
use lift::benchmarks::{all_benchmarks, ProblemSize};
use lift::codegen::CompilationOptions;

fn generated_kernels_are_correct(size: ProblemSize) {
    for case in all_benchmarks(size) {
        let outcome = run_lift(&case, &CompilationOptions::all_optimisations())
            .unwrap_or_else(|e| panic!("{} ({size:?}): {e}", case.info.name));
        assert!(
            outcome.correct,
            "{} ({size:?}): generated kernel output does not match the host reference",
            case.info.name
        );
        assert!(
            outcome.source_lines > 0,
            "{}: empty kernel source",
            case.info.name
        );
    }
}

fn reference_kernels_are_correct(size: ProblemSize) {
    for case in all_benchmarks(size) {
        let outcome =
            run_reference(&case).unwrap_or_else(|e| panic!("{} ({size:?}): {e}", case.info.name));
        assert!(
            outcome.correct,
            "{} ({size:?}): reference kernel output does not match the host reference",
            case.info.name
        );
    }
}

fn optimisation_levels_agree(size: ProblemSize) {
    // Check the ablation levels on a representative subset (the cheap benchmarks) so the test
    // stays fast; the figure8 harness exercises all of them.
    for case in all_benchmarks(size)
        .into_iter()
        .filter(|c| matches!(c.info.name, "NN" | "MRI-Q" | "K-Means" | "Convolution"))
    {
        let reference = run_lift(&case, &CompilationOptions::all_optimisations()).unwrap();
        for options in [
            CompilationOptions::without_array_access_simplification(),
            CompilationOptions::none(),
        ] {
            let outcome = run_lift(&case, &options).unwrap();
            assert!(
                outcome.correct,
                "{} ({size:?}) at level {}",
                case.info.name,
                options.label()
            );
            assert_eq!(
                outcome.output, reference.output,
                "{} ({size:?}): optimisations changed the numerical result",
                case.info.name
            );
        }
    }
}

#[test]
fn all_benchmarks_generate_correct_kernels() {
    generated_kernels_are_correct(ProblemSize::Small);
}

#[test]
fn all_reference_kernels_are_correct() {
    reference_kernels_are_correct(ProblemSize::Small);
}

#[test]
fn optimisation_levels_do_not_change_results() {
    optimisation_levels_agree(ProblemSize::Small);
}

#[test]
fn all_benchmarks_generate_correct_kernels_at_large_size() {
    generated_kernels_are_correct(ProblemSize::Large);
}

#[test]
fn all_reference_kernels_are_correct_at_large_size() {
    reference_kernels_are_correct(ProblemSize::Large);
}

#[test]
fn optimisation_levels_do_not_change_results_at_large_size() {
    optimisation_levels_agree(ProblemSize::Large);
}
