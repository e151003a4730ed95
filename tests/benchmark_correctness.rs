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

/// Figure 8's redundant-work gap stays closed (Small size, all optimisations). User
/// functions bind their shared subterms once and each reduction loads its loop-invariant
/// element once before the loop, so the Lift kernels of MD, both N-Body variants and K-Means
/// stay at or under the flops and global accesses pinned here. Before that they ran 1.3–2.6×
/// the flops and up to 2× the global accesses of the hand-written references. The three
/// single-loop cases match their reference's global accesses to within 5 %. Convolution
/// computes its loop-invariant window offset once per work item (217 088 integer ops before).
#[test]
fn generated_kernels_do_not_redo_shared_work() {
    // (case, Lift flops, Lift global accesses, compared with the reference's accesses)
    let pins = [
        ("MD", 432_864, 66_048, true),
        ("N-Body (NVIDIA)", 720_896, 66_048, false),
        ("N-Body (AMD)", 720_896, 66_048, true),
        ("K-Means", 98_304, 40_960, true),
    ];
    let cases = all_benchmarks(ProblemSize::Small);
    for (name, flops, accesses, matches_reference) in pins {
        let case = cases
            .iter()
            .find(|c| c.info.name == name)
            .unwrap_or_else(|| panic!("no case {name}"));
        let lift = run_lift(case, &CompilationOptions::all_optimisations()).unwrap();
        let reference = run_reference(case).unwrap();
        assert!(lift.correct && reference.correct, "{name}: wrong output");
        assert!(
            lift.counters.flops <= flops,
            "{name}: {} flops, pinned at {flops}",
            lift.counters.flops
        );
        assert!(
            lift.counters.global_accesses <= accesses,
            "{name}: {} global accesses, pinned at {accesses}",
            lift.counters.global_accesses
        );
        if matches_reference {
            let limit = reference.counters.global_accesses * 105 / 100;
            assert!(
                lift.counters.global_accesses <= limit,
                "{name}: {} global accesses against the reference's {}",
                lift.counters.global_accesses,
                reference.counters.global_accesses
            );
        }
    }
    // Convolution's window index: the invariant `l_id_1 + 64 * wg_id` is computed once per
    // work item and shared by the loop's reads and the store after it.
    let conv = cases.iter().find(|c| c.info.name == "Convolution").unwrap();
    let lift = run_lift(conv, &CompilationOptions::all_optimisations()).unwrap();
    assert!(lift.correct, "Convolution: wrong output");
    assert!(
        lift.counters.int_ops <= 147_456,
        "Convolution: {} int ops, pinned at 147456",
        lift.counters.int_ops
    );
}
