//! Shared helpers for the two binaries in `src/bin`, each the single writer of one committed,
//! deterministic document at the repository root:
//!
//! * `paper_stats` — the paper's evaluation (Table 1, Figures 6, 7 and 8) as
//!   `BENCH_paper.json`; the [`paper`] module builds its Table 1 rows and Figure 8 cells;
//! * `autotune_stats` — the auto-tuning search over the seven tracked workloads on both
//!   device profiles, as `BENCH_autotune.json`; the [`report`] module builds it.
//!
//! Nothing in this crate reads a clock. Both documents hold only what the benchmarks, the
//! seeded search and the cost model determine, so each is its own gate: CI regenerates it and
//! fails on any `git diff`. Wall-clock is measured in one place, the stand-alone `benchmark/`
//! package.

pub mod paper;
pub mod report;

use lift_vgpu::DeviceProfile;

/// Geometric mean of a list of ratios (used for the "Mean" column of Figure 8).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// The canonical auto-tuning strategy per workload, sized for the serial virtual GPU: a
/// seeded random sample plus a short hill climb. Fixed seeds make `BENCH_autotune.json`
/// reproducible (same seed ⇒ identical trajectory).
pub fn autotune_strategy(workload: &lift_tuner::Workload) -> lift_tuner::Strategy {
    let seed = 0x11f7;
    match workload.name {
        "dot_product" => lift_tuner::Strategy::RandomHillClimb {
            seed,
            samples: 8,
            max_steps: 4,
        },
        "matrix_multiply" => lift_tuner::Strategy::RandomHillClimb {
            seed,
            samples: 6,
            max_steps: 3,
        },
        // The two-stage dot product has a small launch grid (8 chunks of parallelism) but
        // candidates execute over 1024 elements; a short walk covers it.
        "dot_product_two_stage" => lift_tuner::Strategy::RandomHillClimb {
            seed,
            samples: 4,
            max_steps: 3,
        },
        // The stencil workloads add the tile dimension; a few extra samples let the walk
        // compare tile sizes as well as launches.
        "convolution_1d" => lift_tuner::Strategy::RandomHillClimb {
            seed,
            samples: 6,
            max_steps: 3,
        },
        // The stencil's launch space is now genuinely 2D, which multiplies the points the
        // sampler must cover; the extra samples keep the good 1D region reachable.
        "jacobi_2d" => lift_tuner::Strategy::RandomHillClimb {
            seed,
            samples: 16,
            max_steps: 6,
        },
        // The tiled MM searches the genuinely 2D launch grid; hill-climb steps move one
        // launch axis at a time, so give the walk a little more room than plain MM.
        "mm_tiled" => lift_tuner::Strategy::RandomHillClimb {
            seed,
            samples: 6,
            max_steps: 4,
        },
        // N-Body kernels are the most expensive to execute on the serial virtual GPU, so
        // its walk gets the smallest sample budget.
        _ => lift_tuner::Strategy::RandomHillClimb {
            seed,
            samples: 3,
            max_steps: 2,
        },
    }
}

/// The canonical tuning configuration of the `autotune_stats` binary for one workload on one
/// device — shared with the determinism test so both pin the same run.
pub fn autotune_config(
    workload: &lift_tuner::Workload,
    device: &DeviceProfile,
) -> lift_tuner::TuningConfig {
    let mut config = lift_tuner::TuningConfig::new(
        device.clone(),
        workload.space_for(device),
        autotune_strategy(workload),
    );
    config.base.max_candidates = 3000;
    config.base.beam_width = 48;
    // The 2D Jacobi pipeline needs ~9 lowering steps (five layout maps plus the compute
    // maps and the reduction), which exceeds the default search depth.
    if workload.name == "jacobi_2d" {
        config.base.max_depth = 10;
        config.base.max_candidates = 6000;
        config.base.beam_width = 32;
    }
    config
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_of_equal_values_is_the_value() {
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-9);
        assert_eq!(geometric_mean(&[]), 0.0);
    }
}
